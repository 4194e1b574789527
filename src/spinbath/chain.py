"""Spin-chain Hamiltonians, exact diagonalization, and model sanity checks.

Conventions (fixed throughout the package):

* Units: hbar = k_B = 1, energies in units of the first field h_1, time in
  hbar/h_1, temperature in h_1/k_B.
* Computational basis: index i in [0, 2^N) is read as a bitstring with site 1
  as the most significant bit; bit 0 means spin up (sigma_z = +1), bit 1 means
  spin down (sigma_z = -1).  For N = 2 the order is uu, ud, du, dd.
* Chain Hamiltonians are all z-type,

      H = sum_n h_n sigma_z^(n)  -  sum_(a<b) Delta_ab sigma_z^(a) sigma_z^(b),

  hence diagonal in the computational basis, and every eigenstate is a
  basis state: the decomposition stores which one, never a matrix.
* Eigenvalues are sorted ascending; ties are broken by computational-basis
  index.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import CapacityError, SpecificationError, ValidationError

# Dense-matrix scale limits.  Frustration checks only need the 2^N energy
# vector and go further than the d x d matrix builders.
MAX_DENSE_SITES = 12
MAX_ENUMERATION_SITES = 20

HERMITICITY_TOL = 1e-12
DEGENERACY_TOL = 1e-9

@dataclass(frozen=True)
class ChainSpec:
    """Parameters of a z-type Ising chain.

    fields[n-1] is the longitudinal field h_n on site n; couplings are
    (a, b, Delta_ab) triples with 1 <= a < b <= N, entering the Hamiltonian
    as -Delta_ab sigma_z^(a) sigma_z^(b).
    """

    n_sites: int
    fields: tuple[float, ...]
    couplings: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        if self.n_sites < 1:
            raise SpecificationError(f"n_sites must be >= 1, got {self.n_sites}")
        object.__setattr__(self, "fields", tuple(float(h) for h in self.fields))
        if len(self.fields) != self.n_sites:
            raise SpecificationError(
                f"expected {self.n_sites} fields, got {len(self.fields)}"
            )
        seen = set()
        norm = []
        for a, b, delta in self.couplings:
            a, b = int(a), int(b)
            if not (1 <= a < b <= self.n_sites):
                raise SpecificationError(
                    f"coupling sites ({a},{b}) must satisfy 1 <= a < b <= {self.n_sites}"
                )
            if (a, b) in seen:
                raise SpecificationError(f"duplicate coupling for sites ({a},{b})")
            seen.add((a, b))
            norm.append((a, b, float(delta)))
        object.__setattr__(self, "couplings", tuple(norm))

    @property
    def dimension(self) -> int:
        return 2 ** self.n_sites


def diagonal_energies(spec: ChainSpec) -> np.ndarray:
    """Classical energies of all 2^N configurations, in computational-basis order."""
    if spec.n_sites > MAX_ENUMERATION_SITES:
        raise CapacityError(
            f"exhaustive enumeration limited to N <= {MAX_ENUMERATION_SITES}, got N = {spec.n_sites}"
        )
    n = spec.n_sites
    idx = np.arange(spec.dimension, dtype=np.int64)
    # sigma_z value of site m (1-based) on every configuration: +1 for bit 0, -1 for bit 1
    s = 1 - 2 * ((idx[:, None] >> (n - np.arange(1, n + 1))[None, :]) & 1)
    energies = s @ np.asarray(spec.fields)
    for a, b, delta in spec.couplings:
        energies = energies - delta * (s[:, a - 1] * s[:, b - 1])
    return energies.astype(np.float64)


def build_hamiltonian(spec: ChainSpec) -> np.ndarray:
    """Dense Hamiltonian of `spec` in the computational basis (diagonal, real)."""
    if spec.n_sites > MAX_DENSE_SITES:
        raise CapacityError(
            f"dense Hamiltonian limited to N <= {MAX_DENSE_SITES}, got N = {spec.n_sites}"
        )
    return np.diag(diagonal_energies(spec))


@dataclass(frozen=True)
class SpectralDecomposition:
    """Sorted eigensystem of a diagonal Hamiltonian.

    energies are ascending and eigenstate |k> is the computational-basis
    state basis[k] (read-only copies).  The gap of levels i < j is
    energies[j] - energies[i]; no d x d gap table is stored.
    """

    energies: np.ndarray
    basis: np.ndarray
    _reports: dict = field(init=False, repr=False, compare=False, default_factory=dict)

    def __post_init__(self):
        e = np.array(self.energies, dtype=np.float64)
        b = np.array(self.basis, dtype=np.intp)
        if e.ndim != 1 or b.shape != e.shape:
            raise ValidationError("energies/basis shapes are inconsistent")
        # stable: the default integer quicksort pages in ~0.3 MB of SIMD code on first use
        if not np.array_equal(np.sort(b, kind="stable"), np.arange(e.size)):
            raise ValidationError("basis must be a permutation of the computational basis")
        if np.any(np.diff(e) < 0):
            raise ValidationError("energies must be sorted ascending")
        for name, a in (("energies", e), ("basis", b)):
            a.setflags(write=False)
            object.__setattr__(self, name, a)

    @property
    def dimension(self) -> int:
        return self.energies.size


def spectral_decomposition(hamiltonian: np.ndarray) -> SpectralDecomposition:
    """Sort the diagonal of a diagonal Hermitian matrix into a SpectralDecomposition.

    The eigenstates are basis states ordered by a stable sort, so ties are
    broken by computational-basis index.  Off-diagonal input is refused:
    no ChainSpec produces it.
    """
    h = np.asarray(hamiltonian)
    if h.ndim != 2 or h.shape[0] != h.shape[1]:
        raise ValidationError(f"expected a square matrix, got shape {h.shape}")
    diag = np.diagonal(h)
    if np.count_nonzero(h) != np.count_nonzero(diag):
        raise ValidationError("expected a diagonal matrix; only z-type chains are supported")
    if np.max(np.abs(diag.imag), initial=0.0) > HERMITICITY_TOL:
        raise ValidationError("matrix is not Hermitian within 1e-12")
    energies = diag.real.astype(np.float64)
    order = np.argsort(energies, kind="stable")
    return SpectralDecomposition(energies=energies[order], basis=order)


@dataclass(frozen=True)
class DegeneracyReport:
    """Outcome of the nondegeneracy checks behind the secular rate construction.

    spectrum_pairs lists (i, j, |E_i - E_j|) for offending level pairs;
    gap_pairs lists ((i, j), (k, l), difference) for colliding transition
    frequencies.  Indices are 0-based eigenstate labels.
    """

    spectrum_degenerate: bool
    gaps_degenerate: bool
    spectrum_pairs: tuple[tuple[int, int, float], ...]
    gap_pairs: tuple[tuple[tuple[int, int], tuple[int, int], float], ...]
    tolerance: float

    @property
    def nondegenerate(self) -> bool:
        return not (self.spectrum_degenerate or self.gaps_degenerate)


def check_degeneracy(dec: SpectralDecomposition, tol: float = DEGENERACY_TOL) -> DegeneracyReport:
    """Flag near-coincident eigenvalues and near-coincident transition gaps.

    The spectrum is degenerate if any two eigenvalues lie within `tol`; the
    gap table is degenerate if any gap is below `tol` or two gaps belonging
    to distinct state pairs agree within `tol`, as neighbours in (omega, i, j)
    order.  The report is computed once per (decomposition, tol) and kept on
    the decomposition, whose read-only arrays keep it valid.
    """
    if tol <= 0:
        raise ValidationError(f"tolerance must be positive, got {tol}")
    if tol in dec._reports:
        return dec._reports[tol]
    e = dec.energies

    steps = np.diff(e)
    spectrum_pairs = [(int(i), int(i) + 1, float(steps[i])) for i in np.flatnonzero(steps < tol)]

    # triu_indices lists the pairs by (i, j), so a stable sort orders them by (omega, i, j)
    rows, cols = np.triu_indices(dec.dimension, k=1)
    gaps = e[cols] - e[rows]
    flagged = []
    # Levels spaced by tol or more leave no gap below tol (the smallest gap is a
    # step), and whether two gaps lie within tol depends on their values alone:
    # an unstable sort settles that, and the (omega, i, j) order only names pairs.
    if spectrum_pairs or np.any(np.diff(np.sort(gaps)) < tol):
        order = np.argsort(gaps, kind="stable")
        gaps, rows, cols = gaps[order], rows[order], cols[order]
        diffs = np.diff(gaps)

        def pair(k: int) -> tuple[int, int]:
            return int(rows[k]), int(cols[k])

        flagged = [(pair(k), pair(k), float(gaps[k])) for k in np.flatnonzero(gaps < tol)]
        flagged += [(pair(k), pair(k + 1), float(diffs[k])) for k in np.flatnonzero(diffs < tol)]

    dec._reports[tol] = DegeneracyReport(
        spectrum_degenerate=bool(spectrum_pairs),
        gaps_degenerate=bool(flagged),
        spectrum_pairs=tuple(spectrum_pairs),
        gap_pairs=tuple(flagged),
        tolerance=float(tol),
    )
    return dec._reports[tol]


def check_frustration(spec: ChainSpec) -> bool:
    """True if the chain is unfrustrated.

    Compares the sum of the per-term minima (each field and coupling term
    minimized independently) to the true ground-state energy, by exhaustive
    enumeration over all 2^N configurations.
    """
    energies = diagonal_energies(spec)  # raises CapacityError beyond enumeration scale
    term_min = -sum(abs(h) for h in spec.fields)
    term_min -= sum(abs(delta) for _, _, delta in spec.couplings)
    return bool(abs(term_min - float(energies.min())) <= 1e-12)
