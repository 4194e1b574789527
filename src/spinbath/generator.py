"""Dissipative generators for the open chain.

Two routes are built from the same spectral data:

* the Pauli rate matrix Lambda (primary engine), a d x d real generator whose
  off-diagonal entries are golden-rule damping/gain rates between energy
  eigenstates and whose columns sum to zero;
* the full Lindblad superoperator (oracle), a d^2 x d^2 complex matrix acting
  on column-stacked density matrices, assembled from the secular jump
  operators.

Both constructions need a nondegenerate spectrum, checked at the fixed
tolerance chain.DEGENERACY_TOL, and refuse a degenerate one.  Equal gaps are
admitted: flips of one site at one frequency share a jump operator, and two
flips of the same site never share an endpoint, so populations still evolve
apart from coherences.  Structural zeros of Lambda (entries that vanish for
every T > 0 given the kappa and coupling-element patterns) are tracked by an
exact mask, never by thresholding floats.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .bath import BathConfig, CouplingElements, bose_einstein, spectral_density
from .chain import DEGENERACY_TOL, MAX_DENSE_SITES, SpectralDecomposition, check_degeneracy
from .errors import CapacityError, DegenerateGapError, NumericalIntegrityError, ValidationError

RATE_MATRIX_TOL = 1e-12
# The oracle is a dense d^4 complex matrix: 16.8 MB at N = 5, 268 MB at N = 6.
MAX_LINDBLAD_SITES = 5


def _require_nondegenerate(dec: SpectralDecomposition) -> None:
    report = check_degeneracy(dec, DEGENERACY_TOL)
    if not report.nondegenerate:
        i, j, diff = report.spectrum_pairs[0]
        raise DegenerateGapError(
            f"spectrum degenerate: |E_{i + 1} - E_{j + 1}| = {diff:.3e} < {DEGENERACY_TOL:.1e}"
        )


def _check_bath(dec: SpectralDecomposition, elems: CouplingElements, baths: BathConfig) -> None:
    if elems.dimension != dec.dimension:
        raise ValidationError(
            f"coupling elements dimension {elems.dimension} != spectrum dimension {dec.dimension}"
        )
    if baths.n_sites != elems.n_sites:
        raise ValidationError(
            f"bath has {baths.n_sites} sites but coupling elements cover {elems.n_sites}"
        )
    if baths.axes != elems.axes:
        raise ValidationError("bath axes differ from the axes the coupling elements were built with")


@dataclass(frozen=True)
class JumpOperator:
    """Secular jump operator of one site at one positive transition frequency.

    In the energy basis it lowers |j> to |i> with amplitude values[k] for the
    k-th stored (i, j) pair, and has no other entries; it holds one pair per
    flip of the site at this frequency, usually one.  `site` is the 1-based
    site label.
    """

    site: int
    omega: float
    pairs: tuple[tuple[int, int], ...]
    values: tuple[complex, ...]


def build_jump_operators(dec: SpectralDecomposition, elems: CouplingElements) -> list[JumpOperator]:
    """One jump operator per (site, positive gap) with a nonzero coupling element.

    Each site's flips from the transition table are taken in (omega, i, j)
    order, so sites without flips get no operator.  Flips whose gaps agree
    within DEGENERACY_TOL with the first of a group join that operator (the
    sum over equal-frequency terms of the secular form).
    """
    _require_nondegenerate(dec)
    ops: list[JumpOperator] = []
    for n in range(1, elems.n_sites + 1):
        flips = elems.sites == n
        rows, cols, values = elems.rows[flips], elems.cols[flips], elems.values[flips]
        omega = dec.energies[cols] - dec.energies[rows]
        groups: list[list[int]] = []
        for k in np.lexsort((cols, rows, omega)).tolist():
            if groups and omega[k] - omega[groups[-1][0]] < DEGENERACY_TOL:
                groups[-1].append(k)
            else:
                groups.append([k])
        for group in groups:
            pairs = tuple(zip(rows[group].tolist(), cols[group].tolist()))
            ops.append(JumpOperator(site=n, omega=float(omega[group[0]]), pairs=pairs,
                                    values=tuple(values[group].tolist())))
    return ops


@dataclass(frozen=True)
class RateMatrix:
    """Generator of the population dynamics in the energy-sorted basis.

    matrix[i, j] for i < j is the damping rate from |j> down into |i>;
    matrix[i, j] for i > j is the gain rate from |j> up into |i>; the
    diagonal holds the negative total outflow, so columns sum to zero.
    nonzero_mask marks the structurally nonzero entries (nonzero for every
    T > 0 given kappa and the coupling elements).
    """

    matrix: np.ndarray
    nonzero_mask: np.ndarray
    energies: np.ndarray
    temperature: float
    kappas: tuple[float, ...]
    axes: tuple[str, ...]

    @property
    def dimension(self) -> int:
        return self.matrix.shape[0]

    def validate(self, tol: float = RATE_MATRIX_TOL) -> None:
        """Check conservation, sign structure, and mask consistency."""
        m = self.matrix
        if np.max(np.abs(m.sum(axis=0))) >= tol:
            raise ValidationError("rate-matrix columns do not sum to zero within tolerance")
        off = ~np.eye(self.dimension, dtype=bool)
        if np.any(m[off] < 0):
            raise ValidationError("negative off-diagonal rate")
        if np.any(np.diagonal(m) > 0):
            raise ValidationError("positive diagonal entry")
        if np.any((m != 0) & ~self.nonzero_mask):
            raise ValidationError("nonzero rate outside the structural mask")


def build_rate_matrix(
    dec: SpectralDecomposition,
    elems: CouplingElements,
    baths: BathConfig,
) -> RateMatrix:
    """Assemble the golden-rule rate matrix for the configured baths.

    For every row (i, j, n) of the transition table `elems`, the flip of
    site n between levels i < j with gap omega = E_j - E_i:

        damping  Lambda[i, j] = J^(n)(omega) (1 + nbar_omega)
        gain     Lambda[j, i] = J^(n)(omega)      nbar_omega

    since |S_ij^(n)|^2 = 1.  Pairs outside the table have no rate.  The
    diagonal is minus each column's sum, the total outflow, which for the
    ground and top states reduces to pure gain and pure damping.  A pair is
    structurally nonzero when its site has kappa^(n) > 0.

    Refused beyond 2^MAX_DENSE_SITES states before anything is allocated,
    and refused with NumericalIntegrityError when a rate or a total outflow
    is not finite (kappa * omega beyond double range).
    """
    d = dec.dimension
    if d > 2**MAX_DENSE_SITES:
        raise CapacityError(f"dense rate matrix limited to d <= 2^{MAX_DENSE_SITES}, got d = {d}")
    _require_nondegenerate(dec)
    _check_bath(dec, elems, baths)
    rows, cols = elems.rows, elems.cols
    omega, coupled = _flip_densities(dec, elems, baths)
    nbar = np.array([bose_einstein(w, baths.temperature) for w in omega.tolist()])
    matrix = np.zeros((d, d))
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        matrix[rows, cols] = coupled * (1.0 + nbar)
        matrix[cols, rows] = coupled * nbar
        outflow = matrix.sum(axis=0)
    # rates are nonnegative, so a column sum is finite iff every rate in it is
    bad = np.flatnonzero(~np.isfinite(outflow))
    if bad.size:
        j = bad[0]
        raise NumericalIntegrityError(
            f"non-finite rates: total outflow of level {j + 1} is {float(outflow[j])}"
        )
    np.fill_diagonal(matrix, -outflow)

    on_rows, on_cols, touched = _structural_pattern(elems, baths.kappas)
    mask = np.diag(touched)
    mask[on_rows, on_cols] = mask[on_cols, on_rows] = True
    return RateMatrix(
        matrix=matrix,
        nonzero_mask=mask,
        energies=dec.energies.copy(),
        temperature=baths.temperature,
        kappas=baths.kappas,
        axes=baths.axes,
    )


def _flip_densities(dec: SpectralDecomposition, elems: CouplingElements,
                    baths: BathConfig) -> tuple[np.ndarray, np.ndarray]:
    """The gap omega and the spectral density J^(n)(omega) of every row of the
    transition table.  J overflows to inf when kappa * omega is beyond double
    range; callers decide whether that matters."""
    omega = dec.energies[elems.cols] - dec.energies[elems.rows]
    density = np.empty(omega.size)
    with np.errstate(over="ignore"):
        for n in range(1, baths.n_sites + 1):
            flips = elems.sites == n
            density[flips] = spectral_density(baths, n, omega[flips])
    return omega, density


def _structural_pattern(elems: CouplingElements, kappas) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The structurally nonzero entries of Lambda, read off the transition table.

    A flip is coupled when its site has kappa > 0; each coupled flip (i, j)
    gives the two entries (i, j) and (j, i), and a state touched by any
    coupled flip has a nonzero diagonal entry.  Returns the coupled flips'
    rows and cols and the touched-state flags.
    """
    coupled = np.asarray(kappas)[elems.sites - 1] > 0
    rows, cols = elems.rows[coupled], elems.cols[coupled]
    touched = np.zeros(elems.dimension, dtype=bool)
    touched[rows] = touched[cols] = True
    return rows, cols, touched


def structural_blocks(elems: CouplingElements, kappas) -> tuple[tuple[int, ...], ...]:
    """Connected components of the structural transition graph.

    The edges are the coupled flips of the transition table (those of sites
    with kappa > 0, `_structural_pattern`), taken undirected; they are the
    off-diagonal pattern of the rate-matrix mask, so no rate matrix is
    needed.  Blocks are ordered by smallest member.

    Found with numpy alone, so `steady` and `blocks` load no scipy.  Every
    state repeatedly takes the smallest label among itself and its
    neighbours, then its label's label (pointer jumping).  A label is always
    a state of the same component no larger than the state itself, so at the
    fixed point every state is labelled with the smallest member of its block.
    """
    rows, cols, _ = _structural_pattern(elems, kappas)
    labels = np.arange(elems.dimension)
    while True:
        hooked = labels.copy()
        np.minimum.at(hooked, rows, labels[cols])
        np.minimum.at(hooked, cols, labels[rows])
        hooked = hooked[hooked]
        if np.array_equal(hooked, labels):
            break
        labels = hooked
    order = np.argsort(labels, kind="stable")
    cuts = np.flatnonzero(np.diff(labels[order])) + 1
    return tuple(tuple(block.tolist()) for block in np.split(order, cuts))


def vectorize(rho: np.ndarray) -> np.ndarray:
    """Column-stack a density matrix (vec convention used by the superoperator)."""
    return np.asarray(rho).flatten(order="F")


def unvectorize(vec: np.ndarray, dimension: int) -> np.ndarray:
    """Inverse of `vectorize`."""
    return np.asarray(vec).reshape((dimension, dimension), order="F")


@dataclass(frozen=True)
class LindbladSuperoperator:
    """Full secular master-equation generator on column-stacked densities.

    Used as the oracle against the Pauli rate matrix: with a nondegenerate
    spectrum the population components evolve independently of coherences,
    and their generator block equals Lambda.
    """

    matrix: np.ndarray
    energies: np.ndarray
    temperature: float
    kappas: tuple[float, ...]
    population_indices: np.ndarray = field(init=False, repr=False)

    def __post_init__(self):
        d = self.energies.size
        if self.matrix.shape != (d * d, d * d):
            raise ValidationError("superoperator shape does not match the spectrum dimension")
        object.__setattr__(self, "population_indices", np.arange(d) * (d + 1))

    @property
    def dimension(self) -> int:
        return self.energies.size

    def population_block(self) -> np.ndarray:
        """The generator restricted to population components (should equal Lambda)."""
        idx = self.population_indices
        return self.matrix[np.ix_(idx, idx)].real


def build_lindblad_superoperator(
    dec: SpectralDecomposition,
    elems: CouplingElements,
    baths: BathConfig,
) -> LindbladSuperoperator:
    """Assemble -i[H, .] plus the dissipator from the secular jump operators.

    Every damping term carries J(omega)(1 + nbar) with the sandwich
    A rho A-dagger and its anticommutator, every gain term carries
    J(omega) nbar with the adjoint sandwich; vec convention is column
    stacking, vec(A rho B) = kron(B^T, A) vec(rho).  Refused beyond
    MAX_LINDBLAD_SITES sites, before anything is allocated.
    """
    _check_bath(dec, elems, baths)
    if baths.n_sites > MAX_LINDBLAD_SITES:
        raise CapacityError(
            f"Lindblad superoperator limited to N <= {MAX_LINDBLAD_SITES}, got N = {baths.n_sites}"
        )
    ops = build_jump_operators(dec, elems)
    d = dec.dimension
    eye = np.eye(d)
    h = np.diag(dec.energies)
    super_matrix = -1j * (np.kron(eye, h) - np.kron(h.T, eye))

    for op in ops:
        a = np.zeros((d, d), dtype=elems.values.dtype)
        a[tuple(zip(*op.pairs))] = op.values
        a_dag = a.conj().T
        j_omega = spectral_density(baths, op.site, op.omega)
        nbar = bose_einstein(op.omega, baths.temperature)

        down = a_dag @ a
        super_matrix = super_matrix + j_omega * (1.0 + nbar) * (
            np.kron(a.conj(), a) - 0.5 * (np.kron(eye, down) + np.kron(down.T, eye))
        )
        up = a @ a_dag
        super_matrix = super_matrix + j_omega * nbar * (
            np.kron(a.T, a_dag) - 0.5 * (np.kron(eye, up) + np.kron(up.T, eye))
        )

    return LindbladSuperoperator(
        matrix=super_matrix,
        energies=dec.energies.copy(),
        temperature=baths.temperature,
        kappas=baths.kappas,
    )
