"""Per-site thermal baths: spectral density, occupation numbers, and the
transition table, which is built from the spectrum alone.

Each of the N sites couples through its sigma_x to its own independent
bosonic reservoir, all at the same temperature T.  A bath is characterised by
a dimensionless strength kappa^(n) >= 0 entering the ohmic spectral density
J^(n)(omega) = kappa^(n) * omega.  kappa = 0 means the site is exactly
decoupled; this is the central asymmetry knob and is kept distinct from
merely small kappa.  No other coupling is offered: sigma_y is sigma_x rotated
by a z rotation of its site, which commutes with H (the same rates), and
sigma_z commutes with H, so it moves no population (kappa = 0).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .chain import SpectralDecomposition, _is_integer, _require_nondegenerate, _spin_flips
from .errors import ValidationError

_LOG_DBL_MAX = 709.782712893384  # log of the largest double; np.expm1 overflows above it


@dataclass(frozen=True)
class BathConfig:
    """One bath per site, all at temperature T (units h1/k_B).

    Site n couples through its sigma_x (the only coupling; see the module).
    T = 0 is a documented limit (zero occupation, pure damping).  T and every
    kappa are finite: a NaN kappa would silently decouple its site.
    """

    temperature: float
    kappas: tuple[float, ...]

    def __post_init__(self):
        object.__setattr__(self, "temperature", float(self.temperature))
        object.__setattr__(self, "kappas", tuple(float(k) for k in self.kappas))
        if not 0 <= self.temperature < math.inf:  # NaN fails every comparison
            raise ValidationError(f"temperature must be finite and >= 0, got {self.temperature}")
        if not self.kappas:
            raise ValidationError("at least one bath is required")
        for n, kappa in enumerate(self.kappas, start=1):
            if not 0 <= kappa < math.inf:
                raise ValidationError(f"kappa for site {n} must be finite and >= 0, got {kappa}")

    @property
    def n_sites(self) -> int:
        return len(self.kappas)


def spectral_density(config: BathConfig, site, omega):
    """J^(n)(omega) = kappa^(n) * omega of the ohmic bath attached to 1-based
    `site`, or, for an array of sites such as the transition table's, of each
    entry's own site, at positive gaps omega (a scalar or an array).  `config`
    may also be a list of baths of one site count, one row of J per bath.

    No cutoff is modelled because rates only ever sample J at the finitely
    many gap frequencies.
    """
    kappas = np.array([b.kappas for b in config]) if isinstance(config, list) else np.asarray(config.kappas)
    sites, n_sites = np.asarray(site), kappas.shape[-1]
    bad = (sites < 1) | (sites > n_sites)
    if np.any(bad):
        raise ValidationError(f"site {sites[bad][0]} out of range 1..{n_sites}")
    if np.any(np.less_equal(omega, 0)):
        raise ValidationError(f"spectral density requires omega > 0, got {np.min(omega)}")
    return kappas[..., sites - 1] * omega


def bose_einstein(omega: float, temperature: float) -> float:
    """Mean thermal occupation 1/(exp(omega/T) - 1); 0 in the T = 0 limit."""
    if omega <= 0:
        raise ValidationError(f"occupation requires omega > 0, got {omega}")
    if temperature < 0:
        raise ValidationError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        return 0.0
    x = float(omega) / float(temperature)
    if x > _LOG_DBL_MAX:  # exp(x) is beyond double range: the occupation is 0
        return 0.0
    # Python float division: a subnormal x gives inf without a numpy overflow warning
    m = float(np.expm1(x))  # not math.expm1, which differs from np.expm1 in the last bit
    return 1.0 / m if m else math.inf  # m == 0 when omega / T underflows


@dataclass(frozen=True)
class CouplingElements:
    """The transition table of `n_sites` sites: every nonzero <i|sigma_x^(n)|j>
    with i < j in the energy basis of `spectrum`, the decomposition its rows index.

    Each bath flips one spin, so the rows are the single-spin flips, d/2 per
    site: read-only arrays rows, cols and sites (1-based), in row-major
    (i, j) order, and omega, each flip's gap E_j - E_i, computed here once for
    every consumer.  Every element is exactly 1, in both triangles, so none
    is stored and |S_ij|^2 = 1, which the structural-zero bookkeeping relies
    on.  A table admits only a nondegenerate spectrum (no two adjacent levels
    within chain.DEGENERACY_TOL, which the secular rate construction cannot
    take; DegenerateGapError names the pair), so every omega is at least that
    tolerance and nothing derived from the table checks the spectrum again.
    (Why sigma_x alone: see the module.)  Arrays that are not 1-D integer
    arrays of one length, a site outside 1..n_sites, a row or col outside
    0..d-1 and a flip without i < j are refused with ValidationError.
    """

    rows: np.ndarray
    cols: np.ndarray
    sites: np.ndarray
    n_sites: int
    spectrum: SpectralDecomposition
    omega: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        for name in ("rows", "cols", "sites"):
            a = np.array(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        rows, cols, sites = self.rows, self.cols, self.sites
        if not all(a.ndim == 1 and a.size == rows.size and np.issubdtype(a.dtype, np.integer)
                   for a in (rows, cols, sites)):
            raise ValidationError("transition table rows, cols and sites must be 1-D integer arrays of one length")
        if not (_is_integer(self.n_sites) and self.n_sites >= 1):
            raise ValidationError(f"transition table n_sites must be an integer >= 1, got {self.n_sites!r}")
        d = self.spectrum.dimension
        for name, a, low, high in (("site", sites, 1, self.n_sites), ("row", rows, 0, d - 1), ("col", cols, 0, d - 1)):
            bad = a[(a < low) | (a > high)]
            if bad.size:
                raise ValidationError(f"transition table {name} {bad[0]} out of range {low}..{high}")
        bad = np.flatnonzero(rows >= cols)
        if bad.size:
            raise ValidationError(f"transition table flip ({rows[bad[0]]}, {cols[bad[0]]}) does not have i < j")
        _require_nondegenerate(self.spectrum)
        omega = self.spectrum.energies[cols] - self.spectrum.energies[rows]
        omega.setflags(write=False)
        object.__setattr__(self, "omega", omega)

    @property
    def dimension(self) -> int:
        return self.spectrum.dimension


def coupling_matrix_elements(dec: SpectralDecomposition) -> CouplingElements:
    """The transition table of the spectrum `dec` alone: d = 2^N levels are N
    sites (any other d is refused with ValidationError), and every spin flip
    between two eigenstates is a row.  A bath meets the table only through
    `generator._check_bath`; a degenerate spectrum is refused by the table."""
    d = dec.dimension
    if d < 2 or d & (d - 1):
        raise ValidationError(f"a spin-chain spectrum has 2^N levels with N >= 1, got {d}")
    rows, cols, sites = _spin_flips(dec)
    order = np.lexsort((cols, rows))
    return CouplingElements(
        rows=rows[order],
        cols=cols[order],
        sites=sites[order],
        n_sites=d.bit_length() - 1,
        spectrum=dec,
    )
