"""Dissipative generators for the open chain.

Two routes are built from the same spectral data:

* the Pauli rate matrix Lambda (primary engine), golden-rule damping/gain
  rates between energy eigenstates with zero column sums, kept on the
  transition table; the dense d x d Lambda is derived on first use;
* the full Lindblad superoperator (oracle), a d^2 x d^2 complex matrix acting
  on column-stacked density matrices, assembled from the secular jump
  operators.

Both constructions need a nondegenerate spectrum.  They read it from the
transition table (`bath.CouplingElements.spectrum`), which admits it once,
where it is built, at the fixed tolerance chain.DEGENERACY_TOL, so no builder
takes a decomposition or checks it again.  Equal gaps are admitted: flips of
one site at one frequency share a jump operator, and two flips of the same
site never share an endpoint, so populations still evolve apart from
coherences.  "One frequency" has one rule, `chain._frequency_groups`: a
site's flips in gap order, chained wherever neighbouring gaps lie within
the tolerance; the degeneracy report lists the same chained pairs.
Structural zeros of Lambda (entries that vanish for every T > 0 given the
kappa and coupling-element patterns) are read off the transition table,
never by thresholding floats.

Every consumer of the table takes it with its baths, `(elems, baths)`, and
reads them through `_flip_densities` (J(omega) of every flip) or
`_structural_pattern` (the coupled flips).  These two and the Lindblad builder
refuse a bath whose site count, all a sigma_x bath can differ in, is not the
table's (`_check_bath`).
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass, field
from functools import cached_property

import numpy as np

from .bath import BathConfig, CouplingElements, bose_einstein, spectral_density
from .chain import MAX_DENSE_SITES, _frequency_groups
# unused here; spinbench/test_spinbench.py::test_tracer_restores_every_wrapped_function reads it
from .chain import check_degeneracy  # noqa: F401
from .errors import CapacityError, NumericalIntegrityError, ValidationError

# The oracle is a dense d^4 complex matrix: 16.8 MB at N = 5, 268 MB at N = 6.
MAX_LINDBLAD_SITES = 5


def _check_bath(elems: CouplingElements, baths: BathConfig) -> None:
    if baths.n_sites != elems.n_sites:
        raise ValidationError(
            f"bath has {baths.n_sites} sites but coupling elements cover {elems.n_sites}"
        )


@dataclass(frozen=True)
class JumpOperator:
    """Secular jump operator of one site at one positive transition frequency.

    In the energy basis it lowers |j> to |i> with amplitude 1, the sigma_x
    element, for every stored (i, j) pair, and has no other entries; it holds
    one pair per flip of the site at this frequency, usually one.  `site` is
    the 1-based site label.
    """

    site: int
    omega: float
    pairs: tuple[tuple[int, int], ...]


def build_jump_operators(elems: CouplingElements) -> list[JumpOperator]:
    """One jump operator per frequency group of the transition table's flips.

    The groups are `chain._frequency_groups`, the rule `check_degeneracy`
    reports gap_pairs by: each site's flips in (omega, i, j) order, cut
    wherever a flip's gap is not within the tolerance of the previous one's.
    An operator sums its group's flips (the equal-frequency terms of the
    secular form of sigma_x) at its first flip's gap.
    """
    order, joins = _frequency_groups(elems.sites, elems.omega, elems.rows, elems.cols)
    groups = np.split(order, np.flatnonzero(~joins) + 1) if order.size else []
    return [JumpOperator(site=int(elems.sites[g[0]]), omega=float(elems.omega[g[0]]),
                         pairs=tuple(zip(elems.rows[g].tolist(), elems.cols[g].tolist())))
            for g in groups]


@dataclass(frozen=True, eq=False)
class RateMatrix:
    """Generator of the population dynamics in the energy-sorted basis, kept
    on the transition table `elems` it was built from, for the baths `baths`.

    For table row k, the flip (i, j) = (elems.rows[k], elems.cols[k]) with
    i < j, damping[k] = Lambda[i, j] is the rate from |j> down into |i> and
    gain[k] = Lambda[j, i] the rate from |i> up into |j>; both are 0.0 on the
    flips of kappa = 0 sites.  outflow[j] = -Lambda[j, j] is the total rate
    out of |j>, so columns sum to zero.  Every other entry of Lambda is 0.
    `matrix`, the dense d x d Lambda, is built from these on first use; it is
    the rate path's one d^2 array and its one capacity guard.
    """

    elems: CouplingElements
    baths: BathConfig
    damping: np.ndarray
    gain: np.ndarray
    outflow: np.ndarray

    @property
    def dimension(self) -> int:
        return self.elems.dimension

    @cached_property
    def matrix(self) -> np.ndarray:
        """The dense Lambda (read-only), for the matrix exponential.  Refused
        with CapacityError beyond 2^MAX_DENSE_SITES states, before anything is
        allocated."""
        rows, cols, d = self.elems.rows, self.elems.cols, self.dimension
        if d > 2**MAX_DENSE_SITES:
            raise CapacityError(f"dense rate matrix limited to d <= 2^{MAX_DENSE_SITES}, got d = {d}")
        matrix = np.zeros((d, d))
        matrix[rows, cols] = self.damping
        matrix[cols, rows] = self.gain
        matrix.flat[:: d + 1] = -self.outflow
        matrix.setflags(write=False)
        return matrix


def build_rate_matrix(elems: CouplingElements, baths: BathConfig) -> RateMatrix:
    """Assemble the golden-rule rates for the configured baths on the table.

    For every row (i, j, n) of the transition table `elems`, the flip of
    site n between levels i < j with gap omega = E_j - E_i:

        damping  Lambda[i, j] = J^(n)(omega) (1 + nbar_omega)
        gain     Lambda[j, i] = J^(n)(omega)      nbar_omega

    since |S_ij^(n)|^2 = 1.  Pairs outside the table have no rate.  The
    outflow of a state is its column's sum, which for the ground and top
    states reduces to pure gain and pure damping.  A pair is structurally
    nonzero when its site has kappa^(n) > 0.  No d x d array is allocated, so
    only the dense `RateMatrix.matrix` has a capacity limit.

    Refused with ValidationError when the baths do not match the table's
    site count (`_flip_densities`), and with NumericalIntegrityError when
    a rate or a total outflow overflows (kappa * omega beyond double range):
    the one-variant case of `build_rate_matrices`, with its failure raised.
    """
    return _raise_failed(next(build_rate_matrices(elems, [baths])))


def build_rate_matrices(elems: CouplingElements, variants: list[BathConfig]) -> Iterator[RateMatrix | Exception]:
    """The `RateMatrix` of every bath in `variants` on one table, bit for bit
    each variant's alone, from one pass: one `_flip_densities` over the list,
    one nbar per (variant, flip) and one outflow `bincount` over the (variants
    x flips) arrays.  A variant whose outflow is not finite gets in its place
    the NumericalIntegrityError naming its first such level.  Each entry is
    made as the iterator reaches it, so a caller keeping one holds one dense
    Lambda.  A bath that `_flip_densities` refuses refuses all; no variants
    give no entries."""
    if not variants:
        return iter(())
    density = _flip_densities(elems, variants)
    nbar = np.array([[bose_einstein(w, bath.temperature) for w in elems.omega.tolist()] for bath in variants])
    d, n = elems.dimension, len(variants)
    with np.errstate(over="ignore", invalid="ignore"):  # overflow is refused below
        damping, gain = density * (1.0 + nbar), density * nbar
        # each column summed in row order, as Lambda.sum(axis=0) sums it: the damping into rows i < j
        # in table order, then the gain into rows above j; variant v's column j is bin v * d + j
        bins = np.concatenate((elems.cols, elems.rows)) + d * np.arange(n)[:, None]
        outflow = np.bincount(bins.ravel(), np.hstack((damping, gain)).ravel(), minlength=d * n)
    outflow = outflow.astype(np.float64).reshape(n, d)  # an empty table counts in integers
    first = np.argmin(np.isfinite(outflow), axis=1)  # rates are nonnegative: a column sum is finite iff its rates are
    return (RateMatrix(elems=elems, baths=bath, damping=down, gain=up, outflow=out) if np.isfinite(out[j])
            else NumericalIntegrityError(f"non-finite rates: total outflow of level {j + 1} is {float(out[j])}")
            for bath, down, up, out, j in zip(variants, damping, gain, outflow, first.tolist()))


def _raise_failed(rates):
    """An entry of `build_rate_matrices`: its RateMatrix, or its failure raised."""
    if isinstance(rates, Exception):
        raise rates
    return rates


def _flip_densities(elems: CouplingElements, baths) -> np.ndarray:
    """J^(n)(omega) of every row of the transition table at its gap omega, in
    one call over the rows' sites, for a bath (or a non-empty list, one row of
    J each) that matches the table (`_check_bath`).  J is inf when kappa *
    omega is beyond double range; callers decide whether that matters."""
    for bath in baths if isinstance(baths, list) else [baths]:
        _check_bath(elems, bath)
    with np.errstate(over="ignore"):
        return spectral_density(baths, elems.sites, elems.omega)


def _structural_pattern(elems: CouplingElements, baths: BathConfig) -> tuple[np.ndarray, np.ndarray]:
    """The structurally nonzero entries of Lambda, read off the transition table
    for baths that match it (`_check_bath`).

    A flip is coupled when its site has kappa > 0; each coupled flip (i, j)
    gives the two entries (i, j) and (j, i), and a state touched by any
    coupled flip has a nonzero diagonal entry.  Returns the coupled flag of
    every table row and the touched flag of every state.
    """
    _check_bath(elems, baths)
    coupled = np.asarray(baths.kappas)[elems.sites - 1] > 0
    touched = np.zeros(elems.dimension, dtype=bool)
    touched[elems.rows[coupled]] = touched[elems.cols[coupled]] = True
    return coupled, touched


def structural_blocks(elems: CouplingElements, baths: BathConfig) -> tuple[tuple[int, ...], ...]:
    """Connected components of the structural transition graph.

    The edges are the coupled flips of the transition table (those of sites
    with kappa > 0, `_structural_pattern`), taken undirected; they are the
    structurally nonzero off-diagonal entries of Lambda, so no rate matrix is
    needed.  Blocks are ordered by smallest member.  Only the bath's kappas
    are read.

    Found with numpy alone, so `steady` and `blocks` load no scipy.  Every
    state repeatedly takes the smallest label among itself and its
    neighbours, then its label's label (pointer jumping).  A label is always
    a state of the same component no larger than the state itself, so at the
    fixed point every state is labelled with the smallest member of its block.
    """
    coupled, _ = _structural_pattern(elems, baths)
    rows, cols = elems.rows[coupled], elems.cols[coupled]
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


@dataclass(frozen=True, eq=False)
class LindbladSuperoperator:
    """Full secular master-equation generator on column-stacked densities.

    Used as the oracle against the Pauli rate matrix: with a nondegenerate
    spectrum the population components evolve independently of coherences,
    and their generator block equals Lambda.
    """

    matrix: np.ndarray
    energies: np.ndarray
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


def build_lindblad_superoperator(elems: CouplingElements, baths: BathConfig) -> LindbladSuperoperator:
    """Assemble -i[H, .] plus the dissipator from the secular jump operators.

    Every damping term carries J(omega)(1 + nbar) with the sandwich
    A rho A-dagger and its anticommutator, every gain term carries
    J(omega) nbar with the adjoint sandwich; vec convention is column
    stacking, vec(A rho B) = kron(B^T, A) vec(rho).  Refused beyond
    MAX_LINDBLAD_SITES sites, before anything is allocated.
    """
    _check_bath(elems, baths)
    if baths.n_sites > MAX_LINDBLAD_SITES:
        raise CapacityError(
            f"Lindblad superoperator limited to N <= {MAX_LINDBLAD_SITES}, got N = {baths.n_sites}"
        )
    ops = build_jump_operators(elems)
    d, energies = elems.dimension, elems.spectrum.energies
    eye = np.eye(d)
    h = np.diag(energies)
    super_matrix = -1j * (np.kron(eye, h) - np.kron(h.T, eye))

    for op in ops:
        a = np.zeros((d, d))
        a[tuple(zip(*op.pairs))] = 1.0
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

    return LindbladSuperoperator(matrix=super_matrix, energies=energies.copy())
