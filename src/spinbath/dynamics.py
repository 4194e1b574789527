"""Propagation, steady states, and observables of the population dynamics.

Trajectories are computed with the dense matrix exponential, sampling
exp(generator * t) independently at every requested time.  The generator is
stiff when couplings span several decades (kappa = 1e-5 against 1), and the
exponential route keeps acceptance tests free of integrator tolerances.
Normalisation and positivity are asserted at every snapshot (once, when the
Trajectory is built), never silently repaired.

scipy is loaded only by the first call of `expm`, i.e. on the first
propagation (`evolve`, `fig2`, the sweeps, the Lindblad oracle).  Steady
states need neither linear algebra nor a rate matrix, only the transition
table, so `steady`, like every other structure command, runs on numpy alone.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bath import BathConfig, CouplingElements
from .chain import MAX_DENSE_SITES, SpectralDecomposition
from .errors import CapacityError, NumericalIntegrityError, ValidationError
from .generator import (
    LindbladSuperoperator,
    RateMatrix,
    _check_bath,
    _flip_densities,
    _require_nondegenerate,
    structural_blocks,
    unvectorize,
    vectorize,
)

# Construction-time tolerance for a population vector, and the looser drift
# budget allowed to the matrix exponential during propagation.
STATE_TOL = 1e-10
DRIFT_TOL = 1e-8

_scipy_expm = None


def expm(a: np.ndarray) -> np.ndarray:
    """scipy.linalg.expm, imported on the first call.

    Importing scipy.linalg costs more than half of a cold start of the CLI,
    which commands that never propagate should not pay.
    """
    global _scipy_expm
    if _scipy_expm is None:
        from scipy.linalg import expm as _scipy_expm
    return _scipy_expm(a)


@dataclass(frozen=True)
class PopulationState:
    """Probability vector over energy eigenstates (nonnegative, sum 1)."""

    p: np.ndarray

    def __post_init__(self):
        p = np.asarray(self.p, dtype=np.float64)
        if p.ndim != 1:
            raise ValidationError(f"population vector must be 1-D, got shape {p.shape}")
        if not np.all(np.isfinite(p)):
            raise ValidationError("population entries must be finite")
        if np.any(p < -1e-12) or np.any(p > 1 + 1e-12):
            raise ValidationError("population entries must lie in [0, 1]")
        if abs(p.sum() - 1.0) > STATE_TOL:
            raise ValidationError(f"population vector sums to {p.sum()!r}, expected 1")
        object.__setattr__(self, "p", p)

    @classmethod
    def basis(cls, dimension: int, index: int) -> "PopulationState":
        p = np.zeros(dimension)
        p[index] = 1.0
        return cls(p)

    @classmethod
    def uniform(cls, dimension: int) -> "PopulationState":
        return cls(np.full(dimension, 1.0 / dimension))

    @property
    def dimension(self) -> int:
        return self.p.size


def _as_population(p0) -> np.ndarray:
    if isinstance(p0, PopulationState):
        return p0.p
    return PopulationState(np.asarray(p0)).p


def _check_times(times) -> np.ndarray:
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size == 0:
        raise ValidationError("time grid must be a non-empty 1-D array")
    if t[0] < 0 or np.any(np.diff(t) <= 0):
        raise ValidationError("time grid must be nonnegative and strictly increasing")
    return t


@dataclass(frozen=True)
class Trajectory:
    """Population snapshots on a strictly increasing time grid."""

    times: np.ndarray
    populations: np.ndarray
    provenance: dict = field(default_factory=dict)

    def __post_init__(self):
        t = _check_times(self.times)
        p = np.asarray(self.populations, dtype=np.float64)
        if p.shape != (t.size, p.shape[-1]):
            raise ValidationError("population snapshots do not match the time grid")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "populations", p)
        finite = np.isfinite(p).all(axis=1)
        drift = np.abs(p.sum(axis=1, where=finite[:, None]) - 1.0)  # non-finite rows are caught first
        low = p.min(axis=1)
        bad = np.flatnonzero(~finite | (drift > DRIFT_TOL) | (low < -DRIFT_TOL))
        if bad.size:  # report the earliest bad snapshot: non-finite, then drift, then negativity
            k = bad[0]
            if not finite[k]:
                raise NumericalIntegrityError(f"non-finite population at t = {t[k]:g}")
            if drift[k] > DRIFT_TOL:
                raise NumericalIntegrityError(f"normalisation drift {drift[k]:.3e} at t = {t[k]:g}")
            raise NumericalIntegrityError(f"negative population {low[k]:.3e} at t = {t[k]:g}")

    @property
    def dimension(self) -> int:
        return self.populations.shape[1]


def propagate_populations(rates: RateMatrix, p0, times) -> Trajectory:
    """Evolve a population vector through exp(Lambda t) on the given grid.

    Refused beyond 2^MAX_DENSE_SITES states before anything is allocated.
    """
    if rates.dimension > 2**MAX_DENSE_SITES:
        raise CapacityError(
            f"dense propagation limited to d <= 2^{MAX_DENSE_SITES}, got d = {rates.dimension}"
        )
    p = _as_population(p0)
    if p.size != rates.dimension:
        raise ValidationError("initial state dimension does not match the rate matrix")
    t = _check_times(times)
    snapshots = np.empty((t.size, p.size))
    for k, tk in enumerate(t):
        snapshots[k] = expm(rates.matrix * tk) @ p
    return Trajectory(
        times=t,
        populations=snapshots,
        provenance={
            "engine": "pauli",
            "temperature": rates.temperature,
            "kappas": rates.kappas,
        },
    )


@dataclass(frozen=True)
class DensityTrajectory:
    """Density-matrix snapshots; populations are the real diagonal."""

    times: np.ndarray
    matrices: np.ndarray
    provenance: dict = field(default_factory=dict)

    @property
    def dimension(self) -> int:
        return self.matrices.shape[-1]

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.diagonal(self.matrices, axis1=1, axis2=2))


def _check_density(rho: np.ndarray, t: float, tol: float) -> None:
    if not np.all(np.isfinite(rho)):
        raise NumericalIntegrityError(f"non-finite density matrix at t = {t:g}")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise NumericalIntegrityError(f"density matrix lost Hermiticity at t = {t:g}")
    drift = abs(float(np.trace(rho).real) - 1.0)
    if drift > tol:
        raise NumericalIntegrityError(f"trace drift {drift:.3e} at t = {t:g}")
    low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if low < -tol:
        raise NumericalIntegrityError(f"negative eigenvalue {low:.3e} at t = {t:g}")


def propagate_density(superop: LindbladSuperoperator, rho0: np.ndarray, times) -> DensityTrajectory:
    """Evolve a density matrix in the energy basis through the full generator."""
    d = superop.dimension
    rho = np.asarray(rho0, dtype=np.complex128)
    if rho.shape != (d, d):
        raise ValidationError(f"expected a {d} x {d} density matrix, got shape {rho.shape}")
    try:
        _check_density(rho, 0.0, STATE_TOL)
    except NumericalIntegrityError as exc:
        raise ValidationError(f"initial density matrix invalid: {exc}") from None
    t = _check_times(times)
    v0 = vectorize(rho)
    snapshots = np.empty((t.size, d, d), dtype=np.complex128)
    for k, tk in enumerate(t):
        snapshots[k] = unvectorize(expm(superop.matrix * tk) @ v0, d)
        _check_density(snapshots[k], float(tk), DRIFT_TOL)
    return DensityTrajectory(
        times=t,
        matrices=snapshots,
        provenance={
            "engine": "lindblad",
            "temperature": superop.temperature,
            "kappas": superop.kappas,
        },
    )


def _thermal_weights(energies: np.ndarray, temperature: float) -> np.ndarray:
    """exp(-E_i/T)/Z over the given levels, shifted by their minimum so it
    cannot overflow; at T = 0 all weight sits on the first lowest level."""
    if temperature == 0.0:
        w = np.zeros(energies.size)
        w[np.argmin(energies)] = 1.0
        return w
    w = np.exp(-(energies - energies.min()) / temperature)
    return w / w.sum()


def _block_gibbs(dec: SpectralDecomposition, elems: CouplingElements,
                 baths: BathConfig) -> tuple[tuple[tuple[int, ...], ...], tuple[np.ndarray, ...]]:
    """The structural blocks of the table and the restricted Gibbs vector of
    each, embedded in the full dimension.  Refuses a degenerate spectrum and
    a bath that does not match the table, as `build_rate_matrix` does, and a
    NaN kappa, which the rates refuse as non-finite but which would leave its
    site silently decoupled here (NaN > 0 is false)."""
    _require_nondegenerate(dec)
    _check_bath(dec, elems, baths)
    if np.isnan(baths.kappas).any():
        raise NumericalIntegrityError(f"kappa is NaN: {baths.kappas}")
    blocks = structural_blocks(elems, baths.kappas)
    vectors = []
    for block in blocks:
        full = np.zeros(dec.dimension)
        idx = np.asarray(block)
        full[idx] = _thermal_weights(dec.energies[idx], baths.temperature)
        vectors.append(full)
    return blocks, tuple(vectors)


def steady_states(dec: SpectralDecomposition, elems: CouplingElements,
                  baths: BathConfig) -> list[PopulationState]:
    """One stationary population vector per decoupled structural block.

    Each block of `structural_blocks(elems, baths.kappas)` relaxes to its
    restricted Gibbs vector.  Lambda obeys detailed balance and a block is
    connected, so that vector is the block's exact and only kernel vector
    (Schnakenberg, Rev. Mod. Phys. 48, 571 (1976)).  Neither the blocks nor
    the vectors depend on rate magnitudes, so no rate matrix is built.

    At T = 0 no rate leads uphill, and a state is absorbing exactly when its
    summed downhill J(omega) over the table is 0.0, i.e. when it has no
    downhill flip on a site with kappa * omega > 0 (bit for bit the test
    -Lambda[j, j] == 0.0 on the built matrix).  The block's lowest level is
    always absorbing, and a block holding several absorbing local minima has
    a kernel of that dimension and no unique steady state:
    NumericalIntegrityError.
    """
    blocks, vectors = _block_gibbs(dec, elems, baths)
    if baths.temperature == 0.0:
        _, density = _flip_densities(dec, elems, baths)
        absorbing = np.bincount(elems.cols, weights=density, minlength=dec.dimension) == 0.0
        for block in blocks:
            k = np.count_nonzero(absorbing[list(block)])
            if k > 1:
                raise NumericalIntegrityError(
                    f"block {tuple(i + 1 for i in block)} has kernel dimension {k}, expected 1"
                )
    return [PopulationState(v) for v in vectors]


def gibbs_state(dec: SpectralDecomposition, temperature: float) -> PopulationState:
    """Thermal population vector exp(-E_i/T)/Z, evaluated overflow-safely."""
    if temperature <= 0:
        raise ValidationError(f"Gibbs state requires T > 0, got {temperature}")
    return PopulationState(_thermal_weights(dec.energies, temperature))


def excitation_probability(trajectory) -> np.ndarray:
    """P_exc(t) = 1 - p_1(t), the departure from the native-like ground state."""
    return 1.0 - np.asarray(trajectory.populations)[:, 0]
