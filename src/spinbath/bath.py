"""Per-site thermal baths: spectral density, occupation numbers, coupling elements.

Each of the N sites couples to its own independent bosonic reservoir, all at
the same temperature T.  A bath is characterised by the Pauli axis of its
coupling operator S^(n) and a dimensionless strength kappa^(n) >= 0 entering
the ohmic spectral density J^(n)(omega) = kappa^(n) * omega.  kappa = 0 means
the site is exactly decoupled; this is the central asymmetry knob and is kept
distinct from merely small kappa.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .chain import SpectralDecomposition, _require_nondegenerate, _spin_flips
from .errors import ValidationError

_LOG_DBL_MAX = 709.782712893384  # log of the largest double; np.expm1 overflows above it


@dataclass(frozen=True)
class BathConfig:
    """One bath per site, all at temperature T (units h1/k_B).

    T = 0 is admitted as a documented limit (zero occupation, pure damping).
    T and every kappa are finite: a NaN kappa would silently decouple its site.
    """

    temperature: float
    kappas: tuple[float, ...]
    axes: tuple[str, ...] = ()

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
        axes = tuple(self.axes) if self.axes else ("x",) * len(self.kappas)
        if len(axes) != len(self.kappas):
            raise ValidationError(
                f"expected {len(self.kappas)} coupling axes, got {len(axes)}"
            )
        for axis in axes:
            if axis not in ("x", "y", "z"):
                raise ValidationError(f"unknown coupling axis {axis!r}")
        object.__setattr__(self, "axes", axes)

    @property
    def n_sites(self) -> int:
        return len(self.kappas)


def spectral_density(config: BathConfig, site, omega):
    """J^(n)(omega) = kappa^(n) * omega of the ohmic bath attached to 1-based
    `site`, or, for an array of sites such as the transition table's, of each
    entry's own site, at positive gaps omega (a scalar or an array).

    No cutoff is modelled because rates only ever sample J at the finitely
    many gap frequencies.
    """
    sites = np.asarray(site)
    bad = (sites < 1) | (sites > config.n_sites)
    if np.any(bad):
        raise ValidationError(f"site {sites[bad][0]} out of range 1..{config.n_sites}")
    if np.any(np.less_equal(omega, 0)):
        raise ValidationError(f"spectral density requires omega > 0, got {np.min(omega)}")
    return np.asarray(config.kappas)[sites - 1] * omega


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
    """The transition table: every nonzero <i|S^(n)|j> with i < j in the
    energy basis of `spectrum`, the decomposition its rows index.

    Each bath flips one spin, so the rows are the single-spin flips of the
    sites with an x or y axis, d/2 per such site: read-only arrays rows,
    cols, sites (1-based) and values = <rows|S^(sites)|cols>, in row-major
    (i, j) order.  Values are exact (1 for x, -1j or +1j for y), so
    |S_ij|^2 = 1 on every row, which the structural-zero bookkeeping
    downstream relies on.  The lower triangle is the conjugate.  A table
    admits only a nondegenerate spectrum (no two adjacent levels within
    chain.DEGENERACY_TOL, which the secular rate construction cannot take;
    DegenerateGapError names the pair), so nothing derived from it checks
    the spectrum again.
    """

    rows: np.ndarray
    cols: np.ndarray
    sites: np.ndarray
    values: np.ndarray
    axes: tuple[str, ...]
    spectrum: SpectralDecomposition

    def __post_init__(self):
        for name in ("rows", "cols", "sites", "values"):
            a = np.array(getattr(self, name))
            a.setflags(write=False)
            object.__setattr__(self, name, a)
        _require_nondegenerate(self.spectrum)

    @property
    def dimension(self) -> int:
        return self.spectrum.dimension

    @property
    def n_sites(self) -> int:
        return len(self.axes)


def coupling_matrix_elements(config: BathConfig, dec: SpectralDecomposition) -> CouplingElements:
    """Build the transition table from the spin flips of the eigenbasis.

    A bath whose site count does not match the dimension is refused with
    ValidationError, and a degenerate spectrum by the table itself.  A z
    axis commutes with the chain and contributes no rows.  For y the element
    is -1j when site n is up (bit 0) in |i>, else +1j.
    """
    d = dec.dimension
    if 2 ** config.n_sites != d:
        raise ValidationError(
            f"bath has {config.n_sites} sites but decomposition dimension is {d}"
        )
    rows, cols, sites, down = _spin_flips(dec, config.n_sites)
    axes = np.asarray(config.axes)[sites - 1]
    values = np.ones(rows.size)  # the x element; the table stays real without a y axis
    if "y" in config.axes:
        values = np.where(axes == "y", np.where(down, 1j, -1j), values)
    keep = axes != "z"
    rows, cols, sites, values = rows[keep], cols[keep], sites[keep], values[keep]
    order = np.lexsort((cols, rows))
    return CouplingElements(
        rows=rows[order],
        cols=cols[order],
        sites=sites[order],
        values=values[order],
        axes=config.axes,
        spectrum=dec,
    )
