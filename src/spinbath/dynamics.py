"""Propagation, steady states, and observables of the population dynamics,
among them P_exc = 1 - p_1 (`excitation_probability`, its one definition).

Trajectories are computed with the dense matrix exponential, stepping from
one requested time to the next: p(t_0) = exp(Lambda t_0) p0, then
p(t_k) = exp(Lambda (t_k - t_{k-1})) p(t_{k-1}), one `expm` call per
snapshot but one exponential per distinct interval: the calls of one
trajectory share a two-entry memo of exact inputs (`expm`'s `recent`), so
the 201 steps of `0:10:201`, whose intervals take 10 distinct bit patterns,
compute 10 exponentials, and a log grid, whose intervals all differ, 201.
A hit returns the bits the same input produced, so the snapshots are those
of one exponential per step; the memo holds four d x d arrays while the
trajectory runs.  Scaling and squaring costs, and rounds, more as
log2 ||Lambda t|| grows, so a short interval is cheaper and no less
accurate than the whole time from 0.  The generator is stiff when couplings
span several decades (kappa = 1e-5 against 1); every step is still an exact
exponential, not an integrator step, so there is no step size to pick and no
tolerance to meet: the requested grid is the only discretisation, and the
factors are column-stochastic, so the rounding of one step does not grow in
the next.
A sweep (`analysis.sweep`) takes one exponential from 0 to t*, and the
Lindblad oracle (`propagate_density`) one from 0 to every snapshot time.
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
triangles, such as Lambda dt for dt > 0 at T > 0 with any coupled flip, goes
straight to the Pade kernel of scipy's generic branch, skipping scipy's own
input checks.  To see that a matrix is such a generic one, `expm` first reads
two entries, one below and one above the diagonal, that held nonzeros in the
last generic matrix of that size: the steps of one trajectory share their
zero pattern, so two scalar reads settle all but its first step.  On a miss,
`scipy.linalg.bandwidth`, the test scipy's own expm routes by, decides.  1 x 1,
diagonal and triangular input (a T = 0 rate matrix is upper triangular),
stacks, and any matrix the kernel cannot do go to `scipy.linalg.expm`.  The
kernel is private to scipy, so it is used only if it imports, accepts these
arguments and reproduces `scipy.linalg.expm` bit for bit on a probe that
needs squaring, checked once, on the first call.  The Lindblad oracle
(`propagate_density`) runs `scipy.linalg.expm` itself, apart from this fast
path.

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

_scipy_expm = None
_pade = None  # (pick_pade_structure, pade_UV_calc) once the probe has passed

# A generator (zero column sums) of 1-norm 12: degree 13 after scaling by 2^-1, then one squaring.
_PROBE = np.array([[-6.0, 2.0, 1.0], [4.0, -3.0, 5.0], [2.0, 1.0, -6.0]])

# For each size n, the flat indices of one entry below and one above the
# diagonal that were nonzero in the last generic n x n matrix.  A hint, never
# a verdict: a matrix nonzero at both is generic, and bandwidth decides others.
_PAIRS: dict[int, tuple[int, int]] = {}


def expm(a: np.ndarray, recent: list | None = None) -> np.ndarray:
    """exp(a) as scipy.linalg.expm computes it, bit for bit; scipy is
    imported on the first call.

    Importing scipy.linalg costs more than half of a cold start of the CLI,
    which commands that never propagate should not pay.  A real float64
    square matrix with a nonzero in both strict triangles, such as the step
    Lambda dt of a trajectory at T > 0, runs scipy's Pade kernel directly
    (`_in_both_triangles` decides which matrices do).  A diagonal or
    triangular matrix, or one the kernel refuses, goes to scipy.linalg.expm
    (see the module docstring).

    `recent`, a list the caller owns and passes to every call of one
    computation on ndarrays of one shape and dtype, remembers the last two
    distinct inputs: an `a` whose bytes equal a stored one's gets that
    call's result back, the same object, which the caller must not write to.
    Each entry holds a copy of its input and the result, so the list holds
    four arrays of a's size.
    """
    if recent is not None:
        key = a.tobytes()
        for i, (k, e) in enumerate(recent):
            if k == key:
                recent.insert(0, recent.pop(i))
                return e
    if _scipy_expm is None:
        _load_scipy()
    e = None
    if (_pade is not None and type(a) is np.ndarray and a.dtype == np.float64 and a.ndim == 2
            and a.shape[0] == a.shape[1] and _in_both_triangles(a)):
        e = _pade_expm(a, *_pade)
    if e is None:
        e = _scipy_expm(a)
    if recent is not None:
        recent.insert(0, (key, e))
        del recent[2:]
    return e


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
    """True when the square float64 `a` has a nonzero (NaN included) below
    the diagonal and one above it: scipy's generic case, neither diagonal nor
    triangular.

    The entries at the pair remembered for a's size are read first; when both
    are nonzero the answer is True at the cost of two scalar reads.  On a
    miss, scipy.linalg.bandwidth decides, as it does in scipy.linalg.expm,
    and a generic matrix replaces the pair with its own first nonzero below
    and above the diagonal."""
    n = a.shape[0]
    pair = _PAIRS.get(n)
    if pair is not None and a.item(pair[0]) != 0 and a.item(pair[1]) != 0:
        return True
    from scipy.linalg import bandwidth  # loaded with scipy.linalg.expm

    below, above = bandwidth(a)
    generic = below > 0 and above > 0
    if generic:
        _PAIRS[n] = (int(np.flatnonzero(np.tril(a, -1))[0]), int(np.flatnonzero(np.triu(a, 1))[0]))
    return generic


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


def _check_times(times, name: str = "time grid", error=ValidationError) -> np.ndarray:
    """`times` as a float array: the one rule for every time, sweep and config
    grid.  1-D, non-empty, first point >= 0, strictly increasing and finite,
    each written as a comparison that NaN fails; a refusal names the grid."""
    t = np.asarray(times, dtype=np.float64)
    if t.ndim != 1 or t.size == 0 or not (t[0] >= 0 and np.all(np.diff(t) > 0) and t[-1] < np.inf):
        raise error(f"{name} must be a non-empty 1-D array, nonnegative, finite and strictly increasing")
    return t


@dataclass(frozen=True)
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
    one interval at a time: p(t_0) = expm(Lambda t_0) p0 and
    p(t_k) = expm(Lambda (t_k - t_{k-1})) p(t_{k-1}), one `expm` call per
    snapshot.  The calls share one two-entry memo (`expm`'s `recent`), made
    here and dropped on return, so each distinct interval is exponentiated
    once while its input and result, four d x d arrays in all, are kept.

    Accuracy: every factor is column-stochastic up to rounding, so the error
    a step makes is carried to the next without growing.  For kappa <= 1 and
    T <= 10 on chains of up to five sites, each snapshot agrees with the
    independent expm(Lambda t_k) p0 within 1e-12 absolute.  On a stiff Lambda
    the short interval is the more accurate route: it needs few or no
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
    snapshots = np.empty((t.size, p.size))
    recent = []  # this trajectory's last two steps, so each distinct interval is exponentiated once
    with np.errstate(over="ignore", invalid="ignore"):
        for k, dt in enumerate(np.diff(t, prepend=0.0).tolist()):
            p = np.dot(expm(matrix * dt, recent), p, out=snapshots[k])
    return Trajectory(times=t, populations=snapshots)


@dataclass(frozen=True)
class DensityTrajectory:
    """Density-matrix snapshots; populations are the real diagonal."""

    times: np.ndarray
    matrices: np.ndarray

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
        _, density = _flip_densities(elems, baths)
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
