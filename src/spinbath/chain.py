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

import math
import numbers
from dataclasses import dataclass

import numpy as np

from .errors import CapacityError, DegenerateGapError, ValidationError

# Dense-matrix scale limits.  Frustration checks only need the 2^N energy
# vector and go further than the d x d matrix builders.
MAX_DENSE_SITES = 12
MAX_ENUMERATION_SITES = 20

HERMITICITY_TOL = 1e-12
DEGENERACY_TOL = 1e-9


def _is_integer(x) -> bool:
    """The one rule for a count, index or site: a Python or numpy integer, not a bool."""
    return isinstance(x, numbers.Integral) and not isinstance(x, bool)


@dataclass(frozen=True)
class ChainSpec:
    """Parameters of a z-type Ising chain.

    fields[n-1] is the longitudinal field h_n on site n; couplings are
    (a, b, Delta_ab) triples with 1 <= a < b <= N, entering the Hamiltonian
    as -Delta_ab sigma_z^(a) sigma_z^(b).  Every field and Delta is finite:
    a NaN would give NaN energies that no later check refuses.
    """

    n_sites: int
    fields: tuple[float, ...]
    couplings: tuple[tuple[int, int, float], ...] = ()

    def __post_init__(self):
        if not (_is_integer(self.n_sites) and self.n_sites >= 1):
            raise ValidationError(f"n_sites must be an integer >= 1, got {self.n_sites}")
        object.__setattr__(self, "fields", tuple(float(h) for h in self.fields))
        if len(self.fields) != self.n_sites:
            raise ValidationError(f"expected {self.n_sites} fields, got {len(self.fields)}")
        for n, h in enumerate(self.fields, start=1):
            if not math.isfinite(h):
                raise ValidationError(f"field for site {n} must be finite, got {h}")
        seen = set()
        norm = []
        for a, b, delta in self.couplings:
            if not (_is_integer(a) and _is_integer(b)):
                raise ValidationError(f"coupling sites ({a!r},{b!r}) must be integers")
            a, b = int(a), int(b)
            if not (1 <= a < b <= self.n_sites):
                raise ValidationError(f"coupling sites ({a},{b}) must satisfy 1 <= a < b <= {self.n_sites}")
            if (a, b) in seen:
                raise ValidationError(f"duplicate coupling for sites ({a},{b})")
            seen.add((a, b))
            delta = float(delta)
            if not math.isfinite(delta):
                raise ValidationError(f"coupling for sites ({a},{b}) must be finite, got {delta}")
            norm.append((a, b, delta))
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

    def __post_init__(self):
        e = np.array(self.energies, dtype=np.float64)
        b = np.array(self.basis, dtype=np.intp)
        if e.ndim != 1 or b.shape != e.shape:
            raise ValidationError("energies/basis shapes are inconsistent")
        # stable: the default integer quicksort pages in ~0.3 MB of SIMD code on first use
        if not np.array_equal(np.sort(b, kind="stable"), np.arange(e.size)):
            raise ValidationError("basis must be a permutation of the computational basis")
        if not np.all(np.isfinite(e)):
            raise ValidationError("energies must be finite")
        if not np.all(np.diff(e) >= 0):  # NaN fails every comparison
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
    return _sorted(diag.real.astype(np.float64))


def decompose_chain(spec: ChainSpec) -> SpectralDecomposition:
    """The SpectralDecomposition of `spec`, sorted straight from its 2^N energies.

    Equal to spectral_decomposition(build_hamiltonian(spec)) without the
    d x d matrix, and refused beyond MAX_DENSE_SITES in the same way, since
    every command built on it holds d x d objects.
    """
    if spec.n_sites > MAX_DENSE_SITES:
        raise CapacityError(
            f"dense d x d objects limited to N <= {MAX_DENSE_SITES}, got N = {spec.n_sites}"
        )
    return _sorted(diagonal_energies(spec))


def _sorted(energies: np.ndarray) -> SpectralDecomposition:
    order = np.argsort(energies, kind="stable")
    return SpectralDecomposition(energies=energies[order], basis=order)


def _spin_flips(dec: SpectralDecomposition, n_sites: int):
    """Every single-spin flip between eigenstates, as arrays (rows, cols, sites):
    the nonzero upper-triangle elements of each site's sigma_x, all equal to 1.

    Site n flips bit 2^(N - n) of the basis index (site 1 is the most
    significant bit).  Each flip is listed once, from eigenstate rows to the
    higher label cols, site by site and then by the basis index of |rows>.
    """
    state = np.arange(dec.dimension)
    label = np.empty(dec.dimension, dtype=np.intp)
    label[dec.basis] = state  # eigenstate label of each basis state
    bits = 1 << (n_sites - np.arange(1, n_sites + 1))
    partner = label[state ^ bits[:, None]]
    site, state = np.nonzero(label < partner)
    return label[state], partner[site, state], site + 1


def _frequency_groups(sites, gaps, rows, cols, tol: float = DEGENERACY_TOL) -> tuple[np.ndarray, np.ndarray]:
    """The secular grouping rule: which spin flips share one frequency.

    Returns (order, joins): order sorts the flips by (site, omega, i, j), and
    joins[k] says whether flip order[k + 1] joins the group of order[k] (one
    site, gaps within `tol`).  A group is a maximal run of joins: the
    transitive closure of "gaps within tol", whatever the visiting order.
    """
    order = np.lexsort((cols, rows, gaps, sites))
    sites, gaps = sites[order], gaps[order]
    return order, (np.diff(gaps) < tol) & (sites[1:] == sites[:-1])


@dataclass(frozen=True)
class DegeneracyReport:
    """Outcome of the nondegeneracy check behind the secular rate construction.

    spectrum_pairs lists (i, j, |E_i - E_j|) for level pairs closer than the
    tolerance, which the secular construction cannot take.  gap_pairs lists
    ((i, j), (k, l), difference) for each flip that joins the frequency group
    of the flip before it (`_frequency_groups`: one site, gaps within the
    tolerance).  Each group is one secular jump operator
    (`generator.build_jump_operators`), so both flips of a pair share one:
    colliding gaps are reported but harmless.  Indices are 0-based
    eigenstate labels.
    """

    spectrum_degenerate: bool
    gaps_degenerate: bool
    spectrum_pairs: tuple[tuple[int, int, float], ...]
    gap_pairs: tuple[tuple[tuple[int, int], tuple[int, int], float], ...]
    tolerance: float

    @property
    def nondegenerate(self) -> bool:
        """True when the spectrum is nondegenerate, all the rate construction needs."""
        return not self.spectrum_degenerate


def check_degeneracy(dec: SpectralDecomposition, tol: float = DEGENERACY_TOL) -> DegeneracyReport:
    """Flag near-coincident eigenvalues and colliding gaps of same-site flips.

    The spectrum is degenerate if two adjacent eigenvalues lie within `tol`.
    Gaps collide where a flip joins its neighbour's frequency group
    (`_frequency_groups`).  A dimension that is not a power of two has no
    spin flips.
    """
    if not tol > 0:  # NaN fails every comparison
        raise ValidationError(f"tolerance must be positive, got {tol}")
    e = dec.energies
    spectrum_pairs = [(int(i), int(i) + 1, float(e[i + 1] - e[i])) for i in _close_levels(e, tol)]
    d = dec.dimension
    n_sites = d.bit_length() - 1 if d & (d - 1) == 0 else 0
    rows, cols, sites = _spin_flips(dec, n_sites)
    gaps = e[cols] - e[rows]
    order, joins = _frequency_groups(sites, gaps, rows, cols, tol)
    rows, cols, diffs = rows[order], cols[order], np.diff(gaps[order])
    gap_pairs = [
        ((int(rows[k]), int(cols[k])), (int(rows[k + 1]), int(cols[k + 1])), float(diffs[k]))
        for k in np.flatnonzero(joins)
    ]
    return DegeneracyReport(
        spectrum_degenerate=bool(spectrum_pairs),
        gaps_degenerate=bool(gap_pairs),
        spectrum_pairs=tuple(spectrum_pairs),
        gap_pairs=tuple(gap_pairs),
        tolerance=float(tol),
    )


def _close_levels(energies: np.ndarray, tol: float = DEGENERACY_TOL) -> np.ndarray:
    """The 0-based i with E_(i+1) - E_i < tol in an ascending spectrum: the
    spacing check alone, all that admitting a spectrum needs."""
    return np.flatnonzero(np.diff(energies) < tol)


def _require_nondegenerate(dec: SpectralDecomposition) -> None:
    """Refuse a degenerate spectrum, naming its lowest close pair of adjacent
    levels (1-based), as `check_degeneracy` lists it first in spectrum_pairs."""
    close = _close_levels(dec.energies)
    if close.size:
        i = int(close[0])
        diff = float(dec.energies[i + 1] - dec.energies[i])
        raise DegenerateGapError(
            f"spectrum degenerate: |E_{i + 1} - E_{i + 2}| = {diff:.3e} < {DEGENERACY_TOL:.1e}"
        )


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
