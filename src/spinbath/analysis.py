"""Structural and statistical analysis of the rate dynamics.

Covers block/connectivity detection on the transition table, the late-time
state predicted from block weights and the restricted Gibbs vectors (the same
vectors, from the same partition, that dynamics.steady_states returns), the
zeros scaling law, a detailed-balance audit, parameter sweeps of the
excitation probability, and the slope locator for the thermal transition
temperature.

Blocks are always computed from the transition table (the coupled flips,
those of sites with kappa > 0), never from rate values or float thresholds: a
kappa of 1e-5 is structurally connected but dynamically slow, and that
distinction is exactly what the blocking phenomenology exploits.  The table's
coupled flips are the off-diagonal pattern of the rate-matrix mask, so blocks
and steady states need no rate matrix.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np

from .bath import BathConfig, CouplingElements, coupling_matrix_elements
from .chain import ChainSpec, SpectralDecomposition, check_degeneracy, decompose_chain
from .dynamics import PopulationState, _as_population, _block_gibbs, expm
from .errors import NumericalIntegrityError, SpinbathError, ValidationError
from .generator import RateMatrix, _structural_pattern, build_rate_matrix

MAX_CHAIN_DRAWS = 1000


@dataclass(frozen=True)
class BlockPartition:
    """Decoupled energy subspaces of the structural transition graph.

    blocks are disjoint 0-based index tuples covering all states, ordered by
    smallest member; restricted_gibbs[b] is the thermal vector of block b at
    the bath temperature, embedded in the full dimension.
    """

    blocks: tuple[tuple[int, ...], ...]
    restricted_gibbs: tuple[np.ndarray, ...]
    temperature: float

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def connectivity_blocks(dec: SpectralDecomposition, elems: CouplingElements,
                        baths: BathConfig) -> BlockPartition:
    """Partition the states into the connected components of the structural
    graph of the transition table, each with its restricted Gibbs vector at
    the bath temperature; no rate matrix is built."""
    blocks, gibbs = _block_gibbs(dec, elems, baths)
    return BlockPartition(blocks=blocks, restricted_gibbs=gibbs, temperature=baths.temperature)


def predicted_zero_count(n_sites: int) -> int:
    """Minimum number of structural zeros of Lambda for an N-site chain,
    2^N (2^N - (N+1)), valid when every site couples and the spectrum is nondegenerate."""
    if n_sites < 1:
        raise ValidationError(f"n_sites must be >= 1, got {n_sites}")
    d = 2 ** int(n_sites)
    return d * (d - (int(n_sites) + 1))


def count_structural_zeros(rates: RateMatrix) -> int:
    """Structurally zero entries of the full d x d generator (diagonal included)."""
    d = rates.dimension
    return int(d * d - np.count_nonzero(rates.nonzero_mask))


def _table_zero_count(elems: CouplingElements, kappas) -> int:
    """count_structural_zeros of the rate matrix built from `elems` and `kappas`,
    without building it: d^2 minus two entries per coupled flip and one diagonal
    entry per state a coupled flip touches (the pattern of the rate-matrix mask)."""
    rows, _, touched = _structural_pattern(elems, kappas)
    return elems.dimension**2 - 2 * rows.size - int(np.count_nonzero(touched))


def detailed_balance_audit(rates: RateMatrix) -> float:
    """Worst relative deviation of gain/damping ratios from exp(-omega/T).

    Scans every structurally nonzero pair at the build temperature; passes
    when the result is below 1e-10.  Division by a structurally zero damping
    rate cannot occur because structural nonzeros have strictly positive
    damping entries.
    """
    e, temperature = rates.energies, rates.temperature
    if temperature <= 0:
        raise ValidationError(f"detailed-balance audit requires T > 0, got {temperature}")
    rows, cols = np.nonzero(np.triu(rates.nonzero_mask, 1))
    damping = rates.matrix[rows, cols]
    gain = rates.matrix[cols, rows]
    expected = np.exp(-(e[cols] - e[rows]) / temperature)
    with np.errstate(divide="ignore", invalid="ignore"):
        deviation = np.abs(gain / damping - expected) / expected
    underflow = np.where(gain == 0.0, 0.0, np.inf)  # exp(-omega/T) below double range
    return float(np.max(np.where(expected == 0.0, underflow, deviation), initial=0.0))


def restricted_gibbs_prediction(blocks: BlockPartition, p0) -> PopulationState:
    """Late-time state implied by block weights: each block keeps its initial
    weight and thermalises internally to the restricted Gibbs distribution."""
    p = _as_population(p0)
    out = np.zeros(blocks.restricted_gibbs[0].size)
    if p.size != out.size:
        raise ValidationError("initial state dimension does not match the blocks")
    for block, gibbs in zip(blocks.blocks, blocks.restricted_gibbs):
        out += float(p[np.asarray(block)].sum()) * gibbs
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
    """P_exc(t*) from the ground state while the bath temperature is swept.

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
    """P_exc(t*) from the ground state while one site's coupling is swept (1-based site)."""
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
    when `check_degeneracy` passes at DEGENERACY_TOL.
    """
    return _draw_nondegenerate(n_sites, rng)[0]


def _draw_nondegenerate(n_sites: int, rng: np.random.Generator) -> tuple[ChainSpec, SpectralDecomposition]:
    """The draw behind `random_nondegenerate_chain`, also returning the accepted
    decomposition, which keeps its degeneracy report."""
    for _ in range(MAX_CHAIN_DRAWS):
        fields = tuple(rng.uniform(0.5, 1.5, size=n_sites))
        couplings = tuple(
            (a, b, float(rng.uniform(-0.5, 0.5)))
            for a, b in combinations(range(1, n_sites + 1), 2)
        )
        spec = ChainSpec(n_sites=n_sites, fields=fields, couplings=couplings)
        dec = decompose_chain(spec)
        if check_degeneracy(dec).nondegenerate:
            return spec, dec
    raise SpinbathError(
        f"failed to draw a nondegenerate {n_sites}-site chain in {MAX_CHAIN_DRAWS} attempts"
    )


def zeros_scaling(
    max_n: int,
    draws: int,
    rng: np.random.Generator,
    *,
    min_n: int = 2,
) -> list[tuple[int, int, int]]:
    """Count structural zeros on random nondegenerate chains against the scaling law.

    Returns (N, counted, predicted) rows for N = min_n .. max_n, with every
    site coupled through its x axis at unit strength; all draws for a given N
    must agree on the count.  Each count comes from the draw's transition
    table; no rate matrix is built.
    """
    if not 1 <= min_n <= max_n:
        raise ValidationError(f"need 1 <= min_n <= max_n, got {min_n}..{max_n}")
    rows = []
    for n in range(min_n, max_n + 1):
        counts = set()
        for _ in range(draws):
            _, dec = _draw_nondegenerate(n, rng)
            baths = BathConfig(temperature=1.0, kappas=(1.0,) * n)
            counts.add(_table_zero_count(coupling_matrix_elements(baths, dec), baths.kappas))
        if len(counts) != 1:
            raise SpinbathError(f"structural zero count varies across draws for N = {n}: {counts}")
        rows.append((n, counts.pop(), predicted_zero_count(n)))
    return rows
