"""Structural and statistical analysis of the rate dynamics.

Covers block/connectivity detection on the structural mask, restricted-Gibbs
predictions for the late-time state, the zeros scaling law, a detailed-balance
audit, parameter sweeps of the excitation probability, and the slope locator
for the thermal transition temperature.

Blocks are always computed from the structural mask (the kappa and
coupling-element pattern), not from float thresholds: a kappa of 1e-5 is
structurally connected but dynamically slow, and that distinction is exactly
what the blocking phenomenology exploits.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations

import numpy as np
from scipy.linalg import expm

from .bath import BathConfig, CouplingElements, coupling_matrix_elements
from .chain import (
    DEGENERACY_TOL,
    ChainSpec,
    SpectralDecomposition,
    build_hamiltonian,
    check_degeneracy,
    spectral_decomposition,
)
from .dynamics import PopulationState
from .errors import SpinbathError, ValidationError
from .generator import RateMatrix, build_rate_matrix, structural_blocks


@dataclass(frozen=True)
class BlockPartition:
    """Decoupled energy subspaces of a rate matrix.

    blocks are disjoint 0-based index tuples covering all states, ordered by
    smallest member; restricted_gibbs[b] is the thermal vector of block b at
    the build temperature, embedded in the full dimension.
    """

    blocks: tuple[tuple[int, ...], ...]
    restricted_gibbs: tuple[np.ndarray, ...]
    temperature: float

    @property
    def n_blocks(self) -> int:
        return len(self.blocks)


def _block_gibbs(energies: np.ndarray, block: tuple[int, ...], temperature: float) -> np.ndarray:
    full = np.zeros(energies.size)
    idx = np.asarray(block)
    e = energies[idx]
    if temperature == 0.0:
        full[idx[np.argmin(e)]] = 1.0
        return full
    w = np.exp(-(e - e.min()) / temperature)
    full[idx] = w / w.sum()
    return full


def connectivity_blocks(rates: RateMatrix) -> BlockPartition:
    """Partition the states into the connected components of the structural graph."""
    blocks = structural_blocks(rates)
    gibbs = tuple(_block_gibbs(rates.energies, b, rates.temperature) for b in blocks)
    return BlockPartition(blocks=blocks, restricted_gibbs=gibbs, temperature=rates.temperature)


def predicted_zero_count(n_sites: int) -> int:
    """Minimum number of structural zeros of Lambda for an N-site chain,
    2^N (2^N - (N+1)), valid when every site couples and gaps are nondegenerate."""
    if n_sites < 1:
        raise ValidationError(f"n_sites must be >= 1, got {n_sites}")
    d = 2 ** int(n_sites)
    return d * (d - (int(n_sites) + 1))


def count_structural_zeros(rates: RateMatrix) -> int:
    """Structurally zero entries of the full d x d generator (diagonal included)."""
    d = rates.dimension
    return int(d * d - np.count_nonzero(rates.nonzero_mask))


def detailed_balance_audit(rates: RateMatrix, dec: SpectralDecomposition, temperature: float) -> float:
    """Worst relative deviation of gain/damping ratios from exp(-omega/T).

    Scans every structurally nonzero pair; passes when the result is below
    1e-10.  Division by a structurally zero damping rate cannot occur because
    structural nonzeros have strictly positive damping entries.
    """
    if temperature <= 0:
        raise ValidationError(f"detailed-balance audit requires T > 0, got {temperature}")
    rows, cols = np.nonzero(np.triu(rates.nonzero_mask, 1))
    damping = rates.matrix[rows, cols]
    gain = rates.matrix[cols, rows]
    expected = np.exp(-dec.gap_table[rows, cols] / temperature)
    with np.errstate(divide="ignore", invalid="ignore"):
        deviation = np.abs(gain / damping - expected) / expected
    underflow = np.where(gain == 0.0, 0.0, np.inf)  # exp(-omega/T) below double range
    return float(np.max(np.where(expected == 0.0, underflow, deviation), initial=0.0))


def restricted_gibbs_prediction(
    blocks: BlockPartition,
    p0,
    dec: SpectralDecomposition,
    temperature: float,
) -> PopulationState:
    """Late-time state implied by block weights: each block keeps its initial
    weight and thermalises internally to the restricted Gibbs distribution."""
    p = p0.p if isinstance(p0, PopulationState) else np.asarray(p0, dtype=np.float64)
    if p.size != dec.dimension:
        raise ValidationError("initial state dimension does not match the spectrum")
    out = np.zeros(dec.dimension)
    for block in blocks.blocks:
        weight = float(p[np.asarray(block)].sum())
        if weight == 0.0:
            continue
        out += weight * _block_gibbs(dec.energies, block, temperature)
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


def _sweep(axis, grid, t_star, point_job, site=None, metadata=None):
    grid = np.asarray(grid, dtype=np.float64)
    if t_star <= 0:
        raise ValidationError(f"t_star must be positive, got {t_star}")

    def run(k):
        try:
            return float(point_job(grid[k])), None
        except SpinbathError as exc:
            return np.nan, f"{type(exc).__name__}: {exc}"

    results = [run(k) for k in range(grid.size)]
    values = np.array([r[0] for r in results])
    errors = {k: r[1] for k, r in enumerate(results) if r[1] is not None}
    return SweepResult(
        axis=axis,
        grid=grid,
        values=values,
        t_star=float(t_star),
        site=site,
        metadata=metadata or {},
        errors=errors,
    )


def _excitation_at(rates: RateMatrix, p0: np.ndarray, t_star: float) -> float:
    p = expm(rates.matrix * t_star) @ p0
    return 1.0 - float(p[0])


def sweep_temperature(
    spec: ChainSpec,
    baths: BathConfig,
    temperatures,
    t_star: float,
    *,
    initial_state=None,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> SweepResult:
    """P_exc(t*) from the ground state while the bath temperature is swept.

    The generator is rebuilt at every grid point; per-point failures are
    recorded under the grid index and the sweep continues.
    """
    dec = spectral_decomposition(build_hamiltonian(spec))
    elems = coupling_matrix_elements(baths, dec)
    p0 = _initial_vector(initial_state, dec.dimension)

    def job(temperature):
        point = replace(baths, temperature=float(temperature))
        rates = build_rate_matrix(dec, elems, point, tol=degeneracy_tol)
        return _excitation_at(rates, p0, t_star)

    meta = {"kappas": baths.kappas, "axes": baths.axes}
    return _sweep("temperature", temperatures, t_star, job, metadata=meta)


def sweep_coupling(
    spec: ChainSpec,
    baths: BathConfig,
    site: int,
    kappas,
    t_star: float,
    *,
    initial_state=None,
    degeneracy_tol: float = DEGENERACY_TOL,
) -> SweepResult:
    """P_exc(t*) from the ground state while one site's coupling is swept (1-based site)."""
    if not 1 <= site <= spec.n_sites:
        raise ValidationError(f"site {site} out of range 1..{spec.n_sites}")
    dec = spectral_decomposition(build_hamiltonian(spec))
    elems = coupling_matrix_elements(baths, dec)
    p0 = _initial_vector(initial_state, dec.dimension)

    def job(kappa):
        kappas_point = list(baths.kappas)
        kappas_point[site - 1] = float(kappa)
        point = replace(baths, kappas=tuple(kappas_point))
        rates = build_rate_matrix(dec, elems, point, tol=degeneracy_tol)
        return _excitation_at(rates, p0, t_star)

    meta = {"temperature": baths.temperature, "axes": baths.axes}
    return _sweep("kappa", kappas, t_star, job, site=site, metadata=meta)


def _initial_vector(initial_state, dimension: int) -> np.ndarray:
    if initial_state is None:
        return PopulationState.basis(dimension, 0).p
    if isinstance(initial_state, PopulationState):
        return initial_state.p
    return PopulationState(np.asarray(initial_state)).p


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


def random_nondegenerate_chain(
    n_sites: int,
    rng: np.random.Generator,
    *,
    field_range: tuple[float, float] = (0.5, 1.5),
    coupling_range: tuple[float, float] = (-0.5, 0.5),
    tol: float = DEGENERACY_TOL,
    max_draws: int = 1000,
) -> ChainSpec:
    """Draw a chain with all-pairs couplings until spectrum and gaps are nondegenerate.

    Couplings are drawn for every site pair: purely nearest-neighbour chains
    of three or more sites always carry degenerate gaps (flipping an end spin
    costs the same energy whatever the far spins do), so they can never pass
    the rejection step.
    """
    for _ in range(max_draws):
        fields = tuple(rng.uniform(*field_range, size=n_sites))
        couplings = tuple(
            (a, b, float(rng.uniform(*coupling_range)))
            for a, b in combinations(range(1, n_sites + 1), 2)
        )
        spec = ChainSpec(n_sites=n_sites, fields=fields, couplings=couplings)
        dec = spectral_decomposition(build_hamiltonian(spec))
        if check_degeneracy(dec, tol).nondegenerate:
            return spec
    raise SpinbathError(
        f"failed to draw a nondegenerate {n_sites}-site chain in {max_draws} attempts"
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
    must agree on the count.
    """
    if not 1 <= min_n <= max_n:
        raise ValidationError(f"need 1 <= min_n <= max_n, got {min_n}..{max_n}")
    rows = []
    for n in range(min_n, max_n + 1):
        counts = set()
        for _ in range(draws):
            spec = random_nondegenerate_chain(n, rng)
            baths = BathConfig(temperature=1.0, kappas=(1.0,) * n)
            dec = spectral_decomposition(build_hamiltonian(spec))
            elems = coupling_matrix_elements(baths, dec)
            rates = build_rate_matrix(dec, elems, baths)
            counts.add(count_structural_zeros(rates))
        if len(counts) != 1:
            raise SpinbathError(f"structural zero count varies across draws for N = {n}: {counts}")
        rows.append((n, counts.pop(), predicted_zero_count(n)))
    return rows
