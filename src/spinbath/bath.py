"""Per-site thermal baths: spectral density, occupation numbers, coupling elements.

Each of the N sites couples to its own independent bosonic reservoir, all at
the same temperature T.  A bath is characterised by the Pauli axis of its
coupling operator S^(n) and a dimensionless strength kappa^(n) >= 0 entering
the ohmic spectral density J^(n)(omega) = kappa^(n) * omega.  kappa = 0 means
the site is exactly decoupled; this is the central asymmetry knob and is kept
distinct from merely small kappa.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .chain import SpectralDecomposition, local_operator, pauli_matrix
from .errors import DomainError, ValidationError

SPECTRAL_FAMILIES = ("ohmic",)


@dataclass(frozen=True)
class BathConfig:
    """One bath per site, all at temperature T (units h1/k_B).

    T = 0 is admitted as a documented limit (zero occupation, pure damping).
    """

    temperature: float
    kappas: tuple[float, ...]
    axes: tuple[str, ...] = ()
    family: str = "ohmic"

    def __post_init__(self):
        object.__setattr__(self, "temperature", float(self.temperature))
        object.__setattr__(self, "kappas", tuple(float(k) for k in self.kappas))
        if self.temperature < 0:
            raise ValidationError(f"temperature must be >= 0, got {self.temperature}")
        if not self.kappas:
            raise ValidationError("at least one bath is required")
        for n, kappa in enumerate(self.kappas, start=1):
            if kappa < 0:
                raise ValidationError(f"kappa for site {n} must be >= 0, got {kappa}")
        axes = tuple(self.axes) if self.axes else ("x",) * len(self.kappas)
        if len(axes) != len(self.kappas):
            raise ValidationError(
                f"expected {len(self.kappas)} coupling axes, got {len(axes)}"
            )
        for axis in axes:
            if axis not in ("x", "y", "z"):
                raise ValidationError(f"unknown coupling axis {axis!r}")
        object.__setattr__(self, "axes", axes)
        if self.family not in SPECTRAL_FAMILIES:
            raise ValidationError(
                f"unknown spectral-density family {self.family!r}; available: {SPECTRAL_FAMILIES}"
            )

    @property
    def n_sites(self) -> int:
        return len(self.kappas)


def ohmic_spectral_density(kappa: float, omega):
    """J(omega) = kappa * omega, evaluated only at positive gap frequencies (scalar or array)."""
    if np.any(np.less_equal(omega, 0)):
        raise DomainError(f"spectral density requires omega > 0, got {np.min(omega)}")
    if kappa < 0:
        raise ValidationError(f"kappa must be >= 0, got {kappa}")
    return kappa * omega


def spectral_density(config: BathConfig, site: int, omega):
    """J^(n)(omega) of the bath attached to 1-based `site`.

    Dispatches on the configured family; only the ohmic family ships, and no
    cutoff is modelled because rates only ever sample J at the finitely many
    gap frequencies, passed as a scalar or an array.
    """
    if not 1 <= site <= config.n_sites:
        raise ValidationError(f"site {site} out of range 1..{config.n_sites}")
    return ohmic_spectral_density(config.kappas[site - 1], omega)


def bose_einstein(omega: float, temperature: float) -> float:
    """Mean thermal occupation 1/(exp(omega/T) - 1); 0 in the T = 0 limit."""
    if omega <= 0:
        raise DomainError(f"occupation requires omega > 0, got {omega}")
    if temperature < 0:
        raise ValidationError(f"temperature must be >= 0, got {temperature}")
    if temperature == 0.0:
        return 0.0
    # np.expm1 overflows to inf rather than raising, giving the correct 0 limit
    with np.errstate(over="ignore"):
        return float(1.0 / np.expm1(omega / temperature))


@dataclass(frozen=True)
class CouplingElements:
    """Coupling operators of every site rotated into the energy eigenbasis.

    matrices[n] is the d x d array of <i|S^(n)|j>; Hermitian by construction.
    For diagonal chain Hamiltonians the eigenbasis is a permutation of the
    computational basis, so these elements are exact (no roundoff), which the
    structural-zero bookkeeping downstream relies on.

    transitions is the table every rate build reads, read-only arrays
    (rows, cols, weights) listing in row-major order each pair
    i = rows[k] < j = cols[k] that some site couples, with
    weights[n - 1, k] = |S_ij^(n)|^2.
    """

    matrices: tuple[np.ndarray, ...]
    axes: tuple[str, ...]
    transitions: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        abs2 = np.stack([np.abs(s) ** 2 for s in self.matrices])
        rows, cols = np.nonzero(np.triu(abs2.any(axis=0), k=1))
        weights = abs2[:, rows, cols]
        for a in (rows, cols, weights):
            a.setflags(write=False)
        object.__setattr__(self, "transitions", (rows, cols, weights))

    @property
    def n_sites(self) -> int:
        return len(self.matrices)

    @property
    def dimension(self) -> int:
        return self.matrices[0].shape[0]


def coupling_matrix_elements(config: BathConfig, dec: SpectralDecomposition) -> CouplingElements:
    """Rotate every site's Pauli coupling operator into the energy basis: by
    exact index permutation when every eigenvector is a basis state (every
    z-type chain), else as u^dagger S u."""
    if 2 ** config.n_sites != dec.dimension:
        raise ValidationError(
            f"bath has {config.n_sites} sites but decomposition dimension is {dec.dimension}"
        )
    u = dec.vectors
    order = np.argmax(u != 0, axis=0)
    permutation = np.array_equal(u, np.eye(dec.dimension)[:, order])
    matrices = []
    for site, axis in enumerate(config.axes, start=1):
        s = local_operator(pauli_matrix(axis), site, config.n_sites)
        if permutation:
            matrices.append(s[np.ix_(order, order)])
            continue
        s_energy = u.conj().T @ s @ u
        if np.max(np.abs(s_energy - s_energy.conj().T)) > 1e-12:
            raise ValidationError(
                f"coupling elements for site {site} lost Hermiticity; check the eigenbasis"
            )
        matrices.append(s_energy)
    return CouplingElements(matrices=tuple(matrices), axes=config.axes)
