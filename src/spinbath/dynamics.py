"""Propagation, steady states, and observables of the population dynamics.

Trajectories are computed with the dense matrix exponential, sampling
exp(generator * t) independently at every requested time.  The generator is
stiff when couplings span several decades (kappa = 1e-5 against 1), and the
exponential route keeps acceptance tests free of integrator tolerances.
Normalisation and positivity are asserted at every snapshot (once, when the
Trajectory is built) and at every sweep point (`analysis.sweep`), by the one
check `_snapshot_faults`, never silently repaired.  An exponential that
overflows is refused by that check, not reported as a numpy warning.

scipy is loaded only by the first matrix exponential, i.e. on the first
propagation (`evolve`, `fig2`, the sweeps, the Lindblad oracle).  Steady
states need neither linear algebra nor a rate matrix, only the transition
table, so `steady`, like every other structure command, runs on numpy alone.

`expm`, the rate path's exponential, is scipy's algorithm (Al-Mohy & Higham,
SIAM J. Matrix Anal. Appl. 31(3):970-989, 2009), bit for bit
`scipy.linalg.expm`.  A real float64 matrix with a nonzero in both strict
triangles, such as Lambda t for t > 0 at T > 0 with any coupled flip, goes
straight to the Pade kernel of scipy's generic branch, skipping the input
handling that costs about two thirds of a 4 x 4 call.  1 x 1, diagonal and
triangular input (a T = 0 rate matrix is upper triangular), stacks, and any
matrix the kernel cannot do go to `scipy.linalg.expm`.  The kernel is private
to scipy, so it is used only if it imports, accepts these arguments and
reproduces `scipy.linalg.expm` bit for bit on a probe that needs squaring,
checked once, on the first call.  The Lindblad oracle (`propagate_density`)
runs `scipy.linalg.expm` itself, apart from this fast path.

`connectivity_blocks` is the one place where the transition table becomes a
checked partition, with d restricted Gibbs weights in all.  `steady_states`,
the late-time predictions and the `steady` command read it, so at T = 0 all
refuse a block with several absorbing minima; the bare block structure
(`generator.structural_blocks`, the `blocks` command) does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bath import BathConfig, CouplingElements
from .chain import SpectralDecomposition
from .errors import NumericalIntegrityError, ValidationError
from .generator import (LindbladSuperoperator, RateMatrix, _check_bath, _flip_densities, structural_blocks,
                        unvectorize, vectorize)

# Construction-time tolerance for a population vector, and the looser drift
# budget allowed to the matrix exponential during propagation.
STATE_TOL = 1e-10
DRIFT_TOL = 1e-8

_scipy_expm = None
_pade = None  # (pick_pade_structure, pade_UV_calc) once the probe has passed

# A generator (zero column sums) of 1-norm 12: degree 13 after scaling by 2^-1, then one squaring.
_PROBE = np.array([[-6.0, 2.0, 1.0], [4.0, -3.0, 5.0], [2.0, 1.0, -6.0]])

# Flat indices of the strict lower and upper triangles of the sizes up to
# _SMALL_SIZE (1,360 in all).  At d = 4, counting the nonzeros at them takes
# 1.7 us against 6.8 us for scipy.linalg.bandwidth, which larger matrices use
# (10 us at d = 128, where np.nonzero takes 114 us).
_SMALL_SIZE = 16
_TRIANGLES = tuple(
    (np.flatnonzero(lower), np.flatnonzero(lower.T))
    for lower in (np.tri(n, k=-1, dtype=bool) for n in range(_SMALL_SIZE + 1))
)


def expm(a: np.ndarray) -> np.ndarray:
    """exp(a) as scipy.linalg.expm computes it, bit for bit; scipy is
    imported on the first call.

    Importing scipy.linalg costs more than half of a cold start of the CLI,
    which commands that never propagate should not pay.  A real float64
    square matrix with a nonzero in both strict triangles runs scipy's Pade
    kernel directly; a diagonal or triangular matrix, or one the kernel
    refuses, goes to scipy.linalg.expm (see the module docstring).
    """
    if _scipy_expm is None:
        _load_scipy()
    if (_pade is not None and type(a) is np.ndarray and a.dtype == np.float64 and a.ndim == 2
            and a.shape[0] == a.shape[1] and _in_both_triangles(a)):
        e = _pade_expm(a, *_pade)
        if e is not None:
            return e
    return _scipy_expm(a)


def _load_scipy() -> None:
    """Import scipy.linalg.expm, and its Pade kernel if the kernel matches it on _PROBE."""
    global _scipy_expm, _pade
    from scipy.linalg import expm as scipy_expm

    try:
        from scipy.linalg._matfuncs_expm import pade_UV_calc, pick_pade_structure

        probe = _pade_expm(_PROBE, pick_pade_structure, pade_UV_calc)
    except (ImportError, TypeError):  # no kernel, or one with another signature
        _pade = None
    else:
        matches = probe is not None and np.array_equal(probe, scipy_expm(_PROBE))
        _pade = (pick_pade_structure, pade_UV_calc) if matches else None
    _scipy_expm = scipy_expm


def _in_both_triangles(a: np.ndarray) -> bool:
    """True when the square `a` has a nonzero (NaN included) below the
    diagonal and one above it: scipy's generic case, neither diagonal nor
    triangular."""
    n = a.shape[0]
    if n <= _SMALL_SIZE:
        lower, upper = _TRIANGLES[n]
        flat = a.reshape(-1)
        return np.count_nonzero(flat[lower]) > 0 and np.count_nonzero(flat[upper]) > 0
    from scipy.linalg import bandwidth  # loaded with scipy.linalg.expm

    lower, upper = bandwidth(a)
    return lower > 0 and upper > 0


def _pade_expm(a: np.ndarray, pick_pade_structure, pade_UV_calc) -> np.ndarray | None:
    """scipy.linalg.expm's generic branch for one real n x n matrix: choose
    the Pade degree m and the scaling 2^-s, evaluate the approximant in a
    (5, n, n) workspace, then square s times.  None where scipy would raise
    (m < 0 or a nonzero info), so that scipy.linalg.expm reports it."""
    n = a.shape[0]
    work = np.empty((5, n, n))
    work[0] = a
    m, s = pick_pade_structure(work)  # scales work[0] by 2^-s in place
    if m < 0 or pade_UV_calc(work, m) != 0:
        return None
    e = work[0]
    if s == 0:
        return e.copy()  # not a view that keeps the workspace alive
    for _ in range(s):
        e = e @ e
    return e


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

    def __post_init__(self):
        t = _check_times(self.times)
        p = np.asarray(self.populations, dtype=np.float64)
        if p.shape != (t.size, p.shape[-1]):
            raise ValidationError("population snapshots do not match the time grid")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "populations", p)
        faults = _snapshot_faults(t, p)
        if faults:  # report the earliest bad snapshot
            raise NumericalIntegrityError(next(iter(faults.values())))

    @property
    def dimension(self) -> int:
        return self.populations.shape[1]


def _snapshot_faults(times: np.ndarray, populations: np.ndarray) -> dict[int, str]:
    """Each bad snapshot row, in row order, with the first check it fails:
    non-finite, normalisation drift above DRIFT_TOL, then a population below
    -DRIFT_TOL.  The one check of every Trajectory and every sweep point."""
    finite = np.isfinite(populations).all(axis=1)
    drift = np.abs(populations.sum(axis=1, where=finite[:, None]) - 1.0)  # non-finite rows are caught first
    low = populations.min(axis=1)
    faults = {}
    for k in np.flatnonzero(~finite | (drift > DRIFT_TOL) | (low < -DRIFT_TOL)).tolist():
        if not finite[k]:
            faults[k] = f"non-finite population at t = {times[k]:g}"
        elif drift[k] > DRIFT_TOL:
            faults[k] = f"normalisation drift {drift[k]:.3e} at t = {times[k]:g}"
        else:
            faults[k] = f"negative population {low[k]:.3e} at t = {times[k]:g}"
    return faults


def propagate_populations(rates: RateMatrix, p0, times) -> Trajectory:
    """Evolve a population vector through exp(Lambda t) on the given grid.

    The dense Lambda is read before the snapshots are allocated, so a chain
    beyond its capacity (`RateMatrix.matrix`) is refused first.  An exponential
    that overflows raises no warning: the snapshot check refuses its result.
    """
    p = _as_population(p0)
    if p.size != rates.dimension:
        raise ValidationError("initial state dimension does not match the rate matrix")
    t = _check_times(times)
    matrix = rates.matrix
    snapshots = np.empty((t.size, p.size))
    with np.errstate(over="ignore", invalid="ignore"):
        for k, tk in enumerate(t):
            snapshots[k] = expm(matrix * tk) @ p
    return Trajectory(times=t, populations=snapshots)


@dataclass(frozen=True)
class DensityTrajectory:
    """Density-matrix snapshots; populations are the real diagonal."""

    times: np.ndarray
    matrices: np.ndarray

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
    """Evolve a density matrix in the energy basis through the full generator,
    with scipy.linalg.expm itself, independent of the rate path's `expm`."""
    from scipy.linalg import expm as scipy_expm

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
        snapshots[k] = unvectorize(scipy_expm(superop.matrix * tk) @ v0, d)
        _check_density(snapshots[k], float(tk), DRIFT_TOL)
    return DensityTrajectory(times=t, matrices=snapshots)


def _thermal_weights(energies: np.ndarray, temperature: float) -> np.ndarray:
    """exp(-E_i/T)/Z over the given levels, shifted by their minimum so it
    cannot overflow; at T = 0 all weight sits on the first lowest level."""
    if temperature == 0.0:
        w = np.zeros(energies.size)
        w[np.argmin(energies)] = 1.0
        return w
    w = np.exp(-(energies - energies.min()) / temperature)
    return w / w.sum()


@dataclass(frozen=True)
class BlockPartition:
    """Decoupled energy subspaces of the structural transition graph.

    blocks are disjoint 0-based index tuples covering all states, ordered by
    smallest member; weights[b] is the restricted Gibbs distribution of block
    b at the bath temperature over its own levels, in the order of blocks[b]
    (d floats in total, however many blocks there are).
    """

    blocks: tuple[tuple[int, ...], ...]
    weights: tuple[np.ndarray, ...]

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)

    @cached_property
    def dimension(self) -> int:
        return sum(map(len, self.blocks))

    def embedded(self) -> np.ndarray:
        """The restricted Gibbs vectors embedded in the full dimension, one row
        per block."""
        rows = np.zeros((self.n_blocks, self.dimension))
        for row, block, w in zip(rows, self.blocks, self.weights):
            row[list(block)] = w
        return rows


def connectivity_blocks(elems: CouplingElements, baths: BathConfig) -> BlockPartition:
    """The checked block partition of the transition table, the one source of
    steady states and late-time predictions; no rate matrix is built.

    In order: the refusal of a bath that does not match the table's sites and
    axes (the table's spectrum was admitted when it was built); the connected
    components of the structural graph (`structural_blocks`); each block's
    restricted Gibbs weights over its own levels, from the table's spectrum;
    and at T = 0 the absorbing-state check.

    Lambda obeys detailed balance and a block is connected, so for T > 0 the
    restricted Gibbs vector is the block's exact and only kernel vector
    (Schnakenberg, Rev. Mod. Phys. 48, 571 (1976)).  At T = 0 no rate leads
    uphill, and a state is absorbing exactly when its summed downhill
    J(omega) over the table is 0.0, i.e. when it has no downhill flip on a
    site with kappa * omega > 0 (bit for bit the test -Lambda[j, j] == 0.0 on
    the built matrix).  The block's lowest level is always absorbing, and a
    block holding several absorbing local minima has a kernel of that
    dimension and no unique steady state: NumericalIntegrityError.
    """
    _check_bath(elems, baths)
    blocks = structural_blocks(elems, baths.kappas)
    weights = tuple(_thermal_weights(elems.spectrum.energies[list(block)], baths.temperature) for block in blocks)
    if baths.temperature == 0.0:
        _, density = _flip_densities(elems, baths)
        absorbing = np.bincount(elems.cols, weights=density, minlength=elems.dimension) == 0.0
        for block in blocks:
            k = np.count_nonzero(absorbing[list(block)])
            if k > 1:
                raise NumericalIntegrityError(
                    f"block {tuple(i + 1 for i in block)} has kernel dimension {k}, expected 1"
                )
    return BlockPartition(blocks=blocks, weights=weights)


def steady_states(elems: CouplingElements, baths: BathConfig) -> list[PopulationState]:
    """One stationary population vector per decoupled structural block: the
    restricted Gibbs vectors of `connectivity_blocks`, embedded in the full
    dimension.  Neither the blocks nor the vectors depend on rate magnitudes,
    so no rate matrix is built; at T = 0 a block with several absorbing
    minima is refused with NumericalIntegrityError.
    """
    partition = connectivity_blocks(elems, baths)
    return [PopulationState(row) for row in partition.embedded()]


def gibbs_state(dec: SpectralDecomposition, temperature: float) -> PopulationState:
    """Thermal population vector exp(-E_i/T)/Z, evaluated overflow-safely."""
    if temperature <= 0:
        raise ValidationError(f"Gibbs state requires T > 0, got {temperature}")
    return PopulationState(_thermal_weights(dec.energies, temperature))


def excitation_probability(trajectory) -> np.ndarray:
    """P_exc(t) = 1 - p_1(t), the departure from the native-like ground state."""
    return 1.0 - np.asarray(trajectory.populations)[:, 0]
