"""Propagation, steady states, and observables of the population dynamics,
among them P_exc = 1 - p_1 (`excitation_probability`, its one definition).

Trajectories step by exact exponentials of Lambda from one requested time
to the next: `propagate_populations` states the stepping rule (the linear-grid step
within THETA_13, stiff grids on their own intervals) and its accuracy, and
`expm` the step memo and scipy's import on the first exponential, so the
structure commands run on numpy alone.  A sweep (`analysis.sweep`) takes one
exponential from 0 to t*, and the Lindblad oracle (`propagate_density`)
scipy's own from 0 to every snapshot time.  Every snapshot and sweep point
passes the one check `_snapshot_faults`; nothing is silently repaired.

`connectivity_blocks` is the one place where the transition table becomes a
checked partition, with d restricted Gibbs weights in all: it is the steady
state, one restricted Gibbs vector per block.  The late-time predictions and
the `steady` command read it, so at T = 0 both refuse a block with several
absorbing minima; the bare block structure (`generator.structural_blocks`,
the `blocks` command) does not.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .bath import BathConfig, CouplingElements
from .chain import SpectralDecomposition, _is_integer
from .errors import NumericalIntegrityError, ValidationError
from .generator import LindbladSuperoperator, RateMatrix, _flip_densities, structural_blocks, unvectorize, vectorize

# Construction-time tolerance for a population vector, and the looser drift
# budget allowed to the matrix exponential during propagation.
STATE_TOL = 1e-10
DRIFT_TOL = 1e-8

# Al-Mohy & Higham's theta_13: the largest 1-norm at which the degree-13 Pade
# approximant of exp meets unit roundoff without scaling, so without squaring.
THETA_13 = 5.371920351148152

_scipy_expm = None  # scipy.linalg.expm, once the first exponential has imported it


def expm(a: np.ndarray, t: float, recent: list | None = None) -> np.ndarray:
    """exp(a t) by scipy.linalg.expm of `a * t`, which the first call imports:
    importing scipy.linalg costs more than half of a cold start of the CLI,
    which commands that never propagate should not pay.

    `recent`, a list the caller owns and passes with one matrix `a` to every
    call, remembers the last two distinct t, most recent first, each as an
    entry (t, exp(a t)).  A t equal to the most recent entry's (one float
    comparison), then to the other's, gets that call's result back, the same
    object, which the caller must not write to; a miss computes it, puts it
    first and keeps two entries.  So the list holds two arrays of a's size,
    and the array a * t lives for one miss only.  0.0 and -0.0 are one key,
    which is harmless: only a trajectory's first step can be zero.
    """
    global _scipy_expm
    if recent and recent[0][0] == t:  # the most recent step again: the common hit
        return recent[0][1]
    if recent and recent[-1][0] == t:  # the other entry, which moves to the front
        recent.reverse()
        return recent[0][1]
    if _scipy_expm is None:
        from scipy.linalg import expm as _scipy_expm
    e = _scipy_expm(a * t)
    if recent is not None:
        recent[:] = [(t, e)] + recent[:1]
    return e


@dataclass(frozen=True, eq=False)
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
        dimension = _check_dimension(dimension)
        if not (_is_integer(index) and 0 <= index < dimension):
            raise ValidationError(f"basis index {index} out of range 0..{dimension - 1}")
        p = np.zeros(dimension)
        p[index] = 1.0
        return cls(p)

    @classmethod
    def uniform(cls, dimension: int) -> "PopulationState":
        dimension = _check_dimension(dimension)
        return cls(np.full(dimension, 1.0 / dimension))

    @property
    def dimension(self) -> int:
        return self.p.size


def _check_dimension(dimension) -> int:
    """`dimension` as an int, refused unless it is an integer >= 1, the rule
    `ChainSpec.n_sites` uses."""
    if not (_is_integer(dimension) and dimension >= 1):
        raise ValidationError(f"population dimension must be an integer >= 1, got {dimension!r}")
    return int(dimension)


def _as_population(p0) -> np.ndarray:
    if isinstance(p0, PopulationState):
        return p0.p
    return PopulationState(np.asarray(p0)).p


def _check_times(times, name: str = "time grid") -> np.ndarray:
    """`times` as a float array: the one rule for every time, sweep and config
    grid.  1-D, non-empty, first point >= 0, strictly increasing and finite,
    each written as a comparison that NaN fails; a refusal names the grid."""
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size == 0 or not (t[0] >= 0 and np.all(np.diff(t) > 0) and t[-1] < np.inf):
        raise ValidationError(f"{name} must be a non-empty 1-D array, nonnegative, finite and strictly increasing")
    return t


@dataclass(frozen=True, eq=False)
class Trajectory:
    """Population snapshots on a strictly increasing time grid."""

    times: np.ndarray
    populations: np.ndarray

    def __post_init__(self):
        t = _check_times(self.times)
        p = np.asarray(self.populations, dtype=np.float64)
        if p.ndim != 2 or p.shape[0] != t.size:
            raise ValidationError("population snapshots do not match the time grid")
        object.__setattr__(self, "times", t)
        object.__setattr__(self, "populations", p)
        faults = _snapshot_faults(t, p)
        if faults:  # report the earliest bad snapshot
            raise NumericalIntegrityError(next(iter(faults.values())))


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
            faults[k] = f"non-finite population at t = {times[k]:.12g}"
        elif drift[k] > DRIFT_TOL:
            faults[k] = f"normalisation drift {drift[k]:.3e} at t = {times[k]:.12g}"
        else:
            faults[k] = f"negative population {low[k]:.3e} at t = {times[k]:.12g}"
    return faults


def propagate_populations(rates: RateMatrix, p0, times) -> Trajectory:
    """Evolve a population vector through exp(Lambda t) on the given grid,
    one step at a time: p(t_0) = expm(Lambda t_0) p0 and
    p(t_k) = expm(Lambda dt_k) p(t_{k-1}), one `expm` call per snapshot.
    dt_k is the interval t_k - t_{k-1}, or, on a linear grid (t equal to
    np.linspace(t_0, t_-1, n), n > 2) whose spacing h keeps
    ||Lambda h||_1 = 2 max(outflow) h <= THETA_13, h itself, so that every
    step after the first is one matrix: `0:10:201`, whose intervals take 10
    bit patterns, computes 2 exponentials for its 201 calls, and a log grid,
    whose intervals all differ, 201.  The calls share one two-entry memo
    (`expm`'s `recent`, keyed by dt_k), made here and dropped on return, so
    each distinct step is exponentiated once and two d x d results are kept.

    Accuracy: every factor is column-stochastic up to rounding, so the error
    a step makes is carried to the next without growing.  A reused step h
    differs from the grid's intervals by rounding only, and within THETA_13
    its exponential takes no squaring, so n repeats of it add about n u.  For
    kappa <= 1 and T <= 10 on chains of up to five sites, each snapshot
    agrees with the independent expm(Lambda t_k) p0 within 1e-12 absolute.
    A stiff linear grid (||Lambda h||_1 > THETA_13) keeps its own intervals:
    a squared factor repeated n times adds its error coherently (the paper
    chain at T = 10, kappa_1 = 1e6: P_exc(10) lands 2.5e-9 from its plateau
    0.701779922116 with one reused step, 5.4e-11 on the grid's own
    intervals).  Each factor is an exact exponential, not an integrator step,
    so there is no step size to pick and no tolerance to meet.  On a stiff
    Lambda the short interval is the more accurate route: it needs few or no
    squarings, where expm(Lambda t_k) needs up to log2 ||Lambda t_k|| of them,
    each adding its rounding (the paper chain at kappa_1 = 1e6 drifts from
    normalisation by 7.7e-10 stepped against 1.7e-8 taken from 0).

    The dense Lambda is read before the snapshots are allocated, so a chain
    beyond its capacity (`RateMatrix.matrix`) is refused first.  An exponential
    that overflows raises no warning: the snapshot check refuses its result.
    """
    p = _as_population(p0)
    if p.size != rates.dimension:
        raise ValidationError("initial state dimension does not match the rate matrix")
    t = _check_times(times)
    matrix = rates.matrix
    steps = np.diff(t, prepend=0.0)
    if t.size > 2:
        h = (t[-1] - t[0]) / (t.size - 1)
        if 2.0 * rates.outflow.max() * h <= THETA_13 and np.array_equal(t, np.linspace(t[0], t[-1], t.size)):
            steps[1:] = h  # ||Lambda h||_1 = 2 max(outflow) h: columns sum to zero
    snapshots = np.empty((t.size, p.size))
    recent = []  # this trajectory's last two steps, so each distinct step is exponentiated once
    with np.errstate(over="ignore", invalid="ignore"):
        for k, dt in enumerate(steps.tolist()):
            p = np.dot(expm(matrix, dt, recent), p, out=snapshots[k])
    return Trajectory(times=t, populations=snapshots)


@dataclass(frozen=True, eq=False)
class DensityTrajectory:
    """Density-matrix snapshots; populations are the real diagonal."""

    times: np.ndarray
    matrices: np.ndarray

    @property
    def populations(self) -> np.ndarray:
        return np.real(np.diagonal(self.matrices, axis1=1, axis2=2))


def _check_density(rho: np.ndarray, t: float, tol: float) -> None:
    if not np.all(np.isfinite(rho)):
        raise NumericalIntegrityError(f"non-finite density matrix at t = {t:.12g}")
    if np.max(np.abs(rho - rho.conj().T)) > tol:
        raise NumericalIntegrityError(f"density matrix lost Hermiticity at t = {t:.12g}")
    drift = abs(float(np.trace(rho).real) - 1.0)
    if drift > tol:
        raise NumericalIntegrityError(f"trace drift {drift:.3e} at t = {t:.12g}")
    low = float(np.linalg.eigvalsh((rho + rho.conj().T) / 2).min())
    if low < -tol:
        raise NumericalIntegrityError(f"negative eigenvalue {low:.3e} at t = {t:.12g}")


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


@dataclass(frozen=True, eq=False)
class BlockPartition:
    """Decoupled energy subspaces of the structural transition graph.

    blocks are disjoint 0-based index tuples covering all states, ordered by
    smallest member; weights[b] is the restricted Gibbs distribution of block
    b at the bath temperature over its own levels, in the order of blocks[b]
    (d floats in total, however many blocks there are).
    """

    blocks: tuple[tuple[int, ...], ...]
    weights: tuple[np.ndarray, ...]

    @cached_property
    def dimension(self) -> int:
        return sum(map(len, self.blocks))


def connectivity_blocks(elems: CouplingElements, baths: BathConfig) -> BlockPartition:
    """The checked block partition of the transition table, the one source of
    steady states and late-time predictions; no rate matrix is built.

    In order: the connected components of the structural graph
    (`structural_blocks`, which refuses a sigma_x bath whose site count is
    not the table's); each block's restricted Gibbs weights over its
    own levels, from the table's spectrum (admitted when the table was
    built); and at T = 0 the absorbing-state check.

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
    blocks = structural_blocks(elems, baths)
    weights = tuple(_thermal_weights(elems.spectrum.energies[list(block)], baths.temperature) for block in blocks)
    if baths.temperature == 0.0:
        density = _flip_densities(elems, baths)
        absorbing = np.bincount(elems.cols, weights=density, minlength=elems.dimension) == 0.0
        for block in blocks:
            k = np.count_nonzero(absorbing[list(block)])
            if k > 1:
                raise NumericalIntegrityError(
                    f"block {tuple(i + 1 for i in block)} has kernel dimension {k}, expected 1"
                )
    return BlockPartition(blocks=blocks, weights=weights)


def gibbs_state(dec: SpectralDecomposition, temperature: float) -> PopulationState:
    """Thermal population vector exp(-E_i/T)/Z, evaluated overflow-safely."""
    if temperature <= 0:
        raise ValidationError(f"Gibbs state requires T > 0, got {temperature}")
    return PopulationState(_thermal_weights(dec.energies, temperature))


def excitation_probability(populations) -> np.ndarray:
    """P_exc = 1 - p_1, the departure from the native-like ground state, of every
    row of a populations array (trajectory snapshots, sweep states at t*)."""
    return 1.0 - np.asarray(populations)[:, 0]
