"""Structural and statistical analysis of the rate dynamics.

Covers the late-time state predicted from block weights, the zeros scaling
law, a detailed-balance audit, the bath-variant scans behind fig2 and the
slope locator for the thermal transition temperature.  Every function that
reads a transition table takes it with its baths, `(elems, baths)`.

The scans vary one bath setting (`bath_at`) on the caller's table, with the
rates of all their variants from one `build_rate_matrices` call: `sweep` gives
P_exc(t*) along a grid, each point checked like a trajectory snapshot, and
`excitation_curves` P_exc(t) for a few variants.

Structural zeros and blocks are always read off the transition table (the
coupled flips, those of sites with kappa > 0), never from rate values or
float thresholds: a kappa of 1e-5 is structurally connected but dynamically
slow, and that distinction is exactly what the blocking phenomenology
exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .bath import BathConfig, CouplingElements, coupling_matrix_elements
from .chain import ChainSpec, SpectralDecomposition, _close_levels, _is_integer, decompose_chain
from .dynamics import (BlockPartition, PopulationState, _as_population, _check_times, _snapshot_faults,
                       excitation_probability, expm, propagate_populations)
from .errors import SpinbathError, ValidationError
from .generator import RateMatrix, _check_bath, _raise_failed, _structural_pattern, build_rate_matrices

MAX_CHAIN_DRAWS = 1000


def predicted_zero_count(n_sites: int) -> int:
    """Minimum number of structural zeros of Lambda for an N-site chain,
    2^N (2^N - (N+1)), valid when every site couples and the spectrum is nondegenerate."""
    if n_sites < 1:
        raise ValidationError(f"n_sites must be >= 1, got {n_sites}")
    d = 2 ** int(n_sites)
    return d * (d - (int(n_sites) + 1))


def count_structural_zeros(elems: CouplingElements, baths: BathConfig) -> int:
    """Structurally zero entries of the d x d rate matrix (diagonal included) of
    `baths` on the table `elems`, without building it: d^2 minus two entries
    per coupled flip and one diagonal entry per state a coupled flip touches
    (`_structural_pattern`)."""
    coupled, touched = _structural_pattern(elems, baths)
    return elems.dimension**2 - 2 * int(np.count_nonzero(coupled)) - int(np.count_nonzero(touched))


def detailed_balance_audit(rates: RateMatrix) -> float:
    """Worst relative deviation of gain/damping ratios from exp(-omega/T).

    Scans every coupled flip (i, j) of the table, i < j in row-major order,
    at the build temperature; passes when the result is below 1e-10.
    Division by a structurally zero damping rate cannot occur because every
    coupled flip has a strictly positive damping entry.
    """
    e, temperature = rates.elems.spectrum.energies, rates.baths.temperature
    if temperature <= 0:
        raise ValidationError(f"detailed-balance audit requires T > 0, got {temperature}")
    coupled, _ = _structural_pattern(rates.elems, rates.baths)
    rows, cols = rates.elems.rows[coupled], rates.elems.cols[coupled]
    damping, gain = rates.damping[coupled], rates.gain[coupled]
    expected = np.exp(-(e[cols] - e[rows]) / temperature)
    with np.errstate(divide="ignore", invalid="ignore"):
        deviation = np.abs(gain / damping - expected) / expected
    underflow = np.where(gain == 0.0, 0.0, np.inf)  # exp(-omega/T) below double range
    return float(np.max(np.where(expected == 0.0, underflow, deviation), initial=0.0))


def restricted_gibbs_prediction(blocks: BlockPartition, p0) -> PopulationState:
    """Late-time state implied by block weights: each block keeps its initial
    weight and thermalises internally to the restricted Gibbs distribution."""
    p = _as_population(p0)
    if p.size != blocks.dimension:
        raise ValidationError("initial state dimension does not match the blocks")
    out = np.zeros(p.size)
    for block, w in zip(blocks.blocks, blocks.weights):
        idx = list(block)
        out[idx] = p[idx].sum() * w
    return PopulationState(out)


@dataclass(frozen=True)
class SweepResult:
    """A value per point of a bath-axis grid, such as P_exc(t*),
    with the failed points: grid index -> reason.  A value is nan exactly
    at the failed points."""

    axis: str
    grid: np.ndarray
    values: np.ndarray
    errors: dict = field(default_factory=dict)

    def __post_init__(self):
        g = _check_times(self.grid, "sweep grid")
        v = np.asarray(self.values, dtype=np.float64)
        if v.shape != g.shape:
            raise ValidationError("sweep values must match the grid")
        if not all(_is_integer(k) and 0 <= k < g.size for k in self.errors):
            raise ValidationError(f"sweep errors must be keyed by grid indices 0..{g.size - 1}")
        if not np.array_equal(np.isnan(v), np.isin(np.arange(g.size), list(self.errors))):
            raise ValidationError("a sweep value must be nan exactly at its failed points")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)


def bath_at(baths: BathConfig, axis: str, value: float, site: int | None = None) -> BathConfig:
    """The bath variant at one sweep point.

    axis "temperature" sets the temperature of every bath and takes no site;
    axis "kappa" sets the coupling of the 1-based `site` and leaves the other
    sites alone.
    """
    if axis == "temperature":
        if site is not None:
            raise ValidationError("a temperature sweep takes no site")
        return replace(baths, temperature=float(value))
    if axis != "kappa":
        raise ValidationError(f"unknown sweep axis {axis!r}")
    if not (_is_integer(site) and 1 <= site <= baths.n_sites):
        raise ValidationError(f"site {site} out of range 1..{baths.n_sites}")
    kappas = list(baths.kappas)
    kappas[site - 1] = float(value)
    return replace(baths, kappas=tuple(kappas))


def _scan_start(elems: CouplingElements, baths: BathConfig, p0) -> np.ndarray:
    """The checks both bath-variant scans make first: `baths` matches the table
    (`_check_bath`), and p0 is a population vector of the table's dimension."""
    _check_bath(elems, baths)
    p = _as_population(p0)
    if p.size != elems.dimension:
        raise ValidationError("initial state dimension does not match the spectrum")
    return p


def sweep(elems: CouplingElements, baths: BathConfig, axis: str, grid, t_star: float, p0,
          site: int | None = None) -> SweepResult:
    """P_exc(t*) = 1 - p_1(t*) from p0 at every grid value, with the rates of all
    `bath_at(baths, axis, value, site)` from one `build_rate_matrices` call on the table.

    The table's spectrum was admitted (nondegenerate) when it was built, so a
    degenerate chain never reaches the loop.  A bath whose site count, all a
    sigma_x bath can differ in, is not the table's, a p0 of another dimension
    (`_scan_start`), a grid that fails `dynamics._check_times`, a bad axis
    or site (`bath_at`) and a t_star that is not positive and finite are
    refused before any rate is built.  A point whose rates fail, or whose
    state at t* fails the trajectory snapshot check
    (`dynamics._snapshot_faults`), is recorded under its grid index and the
    sweep continues.
    """
    p0 = _scan_start(elems, baths, p0)
    grid = _check_times(grid, "sweep grid")
    if not 0 < t_star < np.inf:  # NaN fails every comparison
        raise ValidationError(f"t_star must be positive and finite, got {t_star}")
    bath_at(baths, axis, 0.0, site)  # refuses an unknown axis or a bad site
    snapshots = np.empty((grid.size, p0.size))
    errors = {}
    with np.errstate(over="ignore", invalid="ignore"):  # the snapshot check refuses what overflows
        for k, rates in enumerate(build_rate_matrices(elems, [bath_at(baths, axis, v, site) for v in grid])):
            try:
                snapshots[k] = expm(_raise_failed(rates).matrix * t_star) @ p0
            except SpinbathError as exc:
                snapshots[k] = np.nan
                errors[k] = f"{type(exc).__name__}: {exc}"
    for k, reason in _snapshot_faults(np.full(grid.size, float(t_star)), snapshots).items():
        errors.setdefault(k, f"NumericalIntegrityError: {reason}")
    values = excitation_probability(snapshots)
    values[list(errors)] = np.nan
    return SweepResult(axis=axis, grid=grid, values=values, errors=dict(sorted(errors.items())))


def excitation_curves(elems: CouplingElements, baths: BathConfig, axis: str, points, times, p0,
                      site: int | None = None) -> np.ndarray:
    """P_exc(t) from p0 on the grid `times`, one column per bath variant `bath_at(baths,
    axis, value, site)` of `points`, their rates built in one `build_rate_matrices` call on
    the caller's transition table, each propagated by `dynamics.propagate_populations`.
    A mismatched bath or initial state (`_scan_start`), a bad time grid, axis or site, and
    an empty `points` are refused before any rate is built; the first variant, in order,
    whose rates or trajectory fail is refused."""
    p0 = _scan_start(elems, baths, p0)
    times = _check_times(times)
    variants = [bath_at(baths, axis, value, site) for value in points]
    if not variants:
        raise ValidationError("excitation curves need at least one bath variant")
    return np.column_stack([excitation_probability(propagate_populations(_raise_failed(rates), p0, times).populations)
                            for rates in build_rate_matrices(elems, variants)])


def locate_t_theta(sweep: SweepResult) -> float:
    """Temperature of maximum central-difference slope of a temperature sweep.

    Interior grid points only; ties resolve toward lower temperature.  A
    sweep with no variation at all has no slope to locate and is rejected.
    """
    if sweep.axis != "temperature":
        raise ValidationError(f"expected a temperature sweep, got axis {sweep.axis!r}")
    if sweep.grid.size < 3:
        raise ValidationError("slope location needs at least 3 grid points")
    if np.any(np.isnan(sweep.values)):
        raise ValidationError("sweep contains failed points; cannot locate the slope maximum")
    if np.ptp(sweep.values) == 0.0:
        raise ValidationError("sweep has no variation; slope maximum undefined")
    slopes = (sweep.values[2:] - sweep.values[:-2]) / (sweep.grid[2:] - sweep.grid[:-2])
    return float(sweep.grid[1 + int(np.argmax(slopes))])


def random_nondegenerate_chain(n_sites: int, rng: np.random.Generator) -> ChainSpec:
    """Draw a chain with all-pairs couplings until its spectrum is nondegenerate.

    Fields are drawn from U(0.5, 1.5) and a coupling from U(-0.5, 0.5) for
    every site pair, at most MAX_CHAIN_DRAWS times, and a draw is accepted
    when no two adjacent levels lie within DEGENERACY_TOL, i.e. when
    `check_degeneracy` would call it nondegenerate.
    """
    return _draw_nondegenerate(n_sites, rng)[0]


def _draw_nondegenerate(n_sites: int, rng: np.random.Generator) -> tuple[ChainSpec, SpectralDecomposition]:
    """The draw behind `random_nondegenerate_chain`, also returning the accepted
    decomposition.  Only the spacing check runs; the same-site gap scan of
    `check_degeneracy` is left to the `spectrum` command."""
    for _ in range(MAX_CHAIN_DRAWS):
        fields = tuple(rng.uniform(0.5, 1.5, size=n_sites))
        couplings = tuple(
            (a, b, float(rng.uniform(-0.5, 0.5)))
            for a, b in combinations(range(1, n_sites + 1), 2)
        )
        spec = ChainSpec(n_sites=n_sites, fields=fields, couplings=couplings)
        dec = decompose_chain(spec)
        if not _close_levels(dec.energies).size:
            return spec, dec
    raise SpinbathError(
        f"failed to draw a nondegenerate {n_sites}-site chain in {MAX_CHAIN_DRAWS} attempts"
    )


def zeros_scaling(max_n: int, draws: int, rng: np.random.Generator) -> list[tuple[int, int, int]]:
    """Count structural zeros on random nondegenerate chains against the scaling law.

    Returns (N, counted, predicted) rows for N = 2 .. max_n, with every site
    coupled through its sigma_x at unit strength; all draws for a given N
    must agree on the count.  Each count comes from the draw's transition
    table; no rate matrix is built.
    """
    if max_n < 2 or draws < 1:
        raise ValidationError(f"zeros scaling needs max_n >= 2 and draws >= 1, got max_n = {max_n}, draws = {draws}")
    rows = []
    for n in range(2, max_n + 1):
        counts = set()
        for _ in range(draws):
            _, dec = _draw_nondegenerate(n, rng)
            baths = BathConfig(temperature=1.0, kappas=(1.0,) * n)
            counts.add(count_structural_zeros(coupling_matrix_elements(baths, dec), baths))
        if len(counts) != 1:
            raise SpinbathError(f"structural zero count varies across draws for N = {n}: {counts}")
        rows.append((n, counts.pop(), predicted_zero_count(n)))
    return rows
