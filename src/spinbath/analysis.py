"""Structural and statistical analysis of the rate dynamics.

Covers the block partition of the transition table and the late-time state
predicted from block weights, the zeros scaling law, a detailed-balance
audit, parameter sweeps of the excitation probability, and the slope locator
for the thermal transition temperature.

Blocks are always computed from the transition table (the coupled flips,
those of sites with kappa > 0), never from rate values or float thresholds: a
kappa of 1e-5 is structurally connected but dynamically slow, and that
distinction is exactly what the blocking phenomenology exploits.  The table's
coupled flips are the structural off-diagonal entries of Lambda, so blocks and
steady states need no rate matrix.

`connectivity_blocks` and `BlockPartition` are dynamics', re-exported here.
At T = 0 they refuse a block with several absorbing minima, whose late-time
state depends on where in the block the weight starts, so the predictions
refuse it too; the bare block structure (`generator.structural_blocks`, the
`blocks` command) does not.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .bath import BathConfig, CouplingElements, coupling_matrix_elements
from .chain import DEGENERACY_TOL, ChainSpec, SpectralDecomposition, _close_levels, decompose_chain
from .dynamics import BlockPartition, PopulationState, _as_population, connectivity_blocks, expm
from .errors import NumericalIntegrityError, SpinbathError, ValidationError
from .generator import RateMatrix, _structural_pattern, build_rate_matrix

MAX_CHAIN_DRAWS = 1000


def predicted_zero_count(n_sites: int) -> int:
    """Minimum number of structural zeros of Lambda for an N-site chain,
    2^N (2^N - (N+1)), valid when every site couples and the spectrum is nondegenerate."""
    if n_sites < 1:
        raise ValidationError(f"n_sites must be >= 1, got {n_sites}")
    d = 2 ** int(n_sites)
    return d * (d - (int(n_sites) + 1))


def count_structural_zeros(rates: RateMatrix) -> int:
    """Structurally zero entries of the full d x d generator (diagonal included),
    counted on the table it was built from (`_table_zero_count`)."""
    return _table_zero_count(rates.elems, rates.kappas)


def _table_zero_count(elems: CouplingElements, kappas) -> int:
    """Structural zeros of the rate matrix built from `elems` and `kappas`, without
    building it: d^2 minus two entries per coupled flip and one diagonal entry per
    state a coupled flip touches (`_structural_pattern`)."""
    rows, _, touched = _structural_pattern(elems, kappas)
    return elems.dimension**2 - 2 * rows.size - int(np.count_nonzero(touched))


def detailed_balance_audit(rates: RateMatrix) -> float:
    """Worst relative deviation of gain/damping ratios from exp(-omega/T).

    Scans every coupled flip (i, j) of the table, i < j in row-major order,
    at the build temperature; passes when the result is below 1e-10.
    Division by a structurally zero damping rate cannot occur because every
    coupled flip has a strictly positive damping entry.
    """
    e, temperature = rates.energies, rates.temperature
    if temperature <= 0:
        raise ValidationError(f"detailed-balance audit requires T > 0, got {temperature}")
    coupled = np.asarray(rates.kappas)[rates.elems.sites - 1] > 0
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
    """Excitation probability P_exc(t*) recorded along a parameter grid."""

    axis: str
    grid: np.ndarray
    values: np.ndarray
    t_star: float
    site: int | None = None
    metadata: dict = field(default_factory=dict)
    errors: dict = field(default_factory=dict)

    def __post_init__(self):
        g = np.asarray(self.grid, dtype=np.float64)
        v = np.asarray(self.values, dtype=np.float64)
        if g.ndim != 1 or v.shape != g.shape:
            raise ValidationError("sweep grid and values must be matching 1-D arrays")
        if g.size >= 2 and not (np.all(np.diff(g) > 0) or np.all(np.diff(g) < 0)):
            raise ValidationError("sweep grid must be strictly monotone")
        object.__setattr__(self, "grid", g)
        object.__setattr__(self, "values", v)


def bath_at(baths: BathConfig, axis: str, value: float, site: int | None = None) -> BathConfig:
    """The bath variant at one sweep point.

    axis "temperature" sets the temperature of every bath; axis "kappa" sets
    the coupling of the 1-based `site` and leaves the other sites alone.
    """
    if axis == "temperature":
        return replace(baths, temperature=float(value))
    if axis != "kappa":
        raise ValidationError(f"unknown sweep axis {axis!r}")
    if site is None or not 1 <= site <= baths.n_sites:
        raise ValidationError(f"site {site} out of range 1..{baths.n_sites}")
    kappas = list(baths.kappas)
    kappas[site - 1] = float(value)
    return replace(baths, kappas=tuple(kappas))


def _sweep(spec, baths, axis, grid, t_star, initial_state, metadata, site=None) -> SweepResult:
    """P_exc(t*) = 1 - p_1(t*) with the rates rebuilt at every grid point.

    The decomposition, the transition table and the initial vector are built
    once; a point whose rates fail, or whose P_exc is not finite, is recorded
    under its grid index and the sweep continues.
    """
    dec = decompose_chain(spec)
    elems = coupling_matrix_elements(baths, dec)
    p0 = _as_population(PopulationState.basis(dec.dimension, 0) if initial_state is None else initial_state)
    if p0.size != dec.dimension:
        raise ValidationError("initial state dimension does not match the spectrum")
    grid = np.asarray(grid, dtype=np.float64)
    if t_star <= 0:
        raise ValidationError(f"t_star must be positive, got {t_star}")
    values = np.empty(grid.size)
    errors = {}
    for k, value in enumerate(grid):
        try:
            rates = build_rate_matrix(dec, elems, bath_at(baths, axis, value, site))
            values[k] = 1.0 - float((expm(rates.matrix * t_star) @ p0)[0])
            if not np.isfinite(values[k]):
                raise NumericalIntegrityError(f"P_exc(t*) = {values[k]} is not finite")
        except SpinbathError as exc:
            values[k] = np.nan
            errors[k] = f"{type(exc).__name__}: {exc}"
    return SweepResult(
        axis=axis, grid=grid, values=values, t_star=float(t_star), site=site,
        metadata=metadata, errors=errors,
    )


def sweep_temperature(
    spec: ChainSpec,
    baths: BathConfig,
    temperatures,
    t_star: float,
    *,
    initial_state=None,
) -> SweepResult:
    """P_exc(t*) while the bath temperature is swept, from `initial_state`
    (the ground state by default).

    The generator is rebuilt at every grid point; per-point failures are
    recorded under the grid index and the sweep continues.
    """
    meta = {"kappas": baths.kappas, "axes": baths.axes}
    return _sweep(spec, baths, "temperature", temperatures, t_star, initial_state, meta)


def sweep_coupling(
    spec: ChainSpec,
    baths: BathConfig,
    site: int,
    kappas,
    t_star: float,
    *,
    initial_state=None,
) -> SweepResult:
    """P_exc(t*) while one site's coupling is swept (1-based site), from
    `initial_state` (the ground state by default)."""
    if not 1 <= site <= spec.n_sites:
        raise ValidationError(f"site {site} out of range 1..{spec.n_sites}")
    meta = {"temperature": baths.temperature, "axes": baths.axes}
    return _sweep(spec, baths, "kappa", kappas, t_star, initial_state, meta, site)


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
        if not _close_levels(dec.energies, DEGENERACY_TOL).size:
            return spec, dec
    raise SpinbathError(
        f"failed to draw a nondegenerate {n_sites}-site chain in {MAX_CHAIN_DRAWS} attempts"
    )


def zeros_scaling(max_n: int, draws: int, rng: np.random.Generator) -> list[tuple[int, int, int]]:
    """Count structural zeros on random nondegenerate chains against the scaling law.

    Returns (N, counted, predicted) rows for N = 2 .. max_n, with every site
    coupled through its x axis at unit strength; all draws for a given N
    must agree on the count.  Each count comes from the draw's transition
    table; no rate matrix is built.
    """
    rows = []
    for n in range(2, max_n + 1):
        counts = set()
        for _ in range(draws):
            _, dec = _draw_nondegenerate(n, rng)
            baths = BathConfig(temperature=1.0, kappas=(1.0,) * n)
            counts.add(_table_zero_count(coupling_matrix_elements(baths, dec), baths.kappas))
        if len(counts) != 1:
            raise SpinbathError(f"structural zero count varies across draws for N = {n}: {counts}")
        rows.append((n, counts.pop(), predicted_zero_count(n)))
    return rows
