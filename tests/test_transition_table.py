"""The transition-table fast paths against the pair-loop code they replaced.

The reference implementations below are the package's original dense
rotation, tuple-sort degeneracy check and pair-loop rate assembly, kept
verbatim in arithmetic so the fast paths can be held to them.
"""

from __future__ import annotations

from itertools import combinations

import numpy as np
import pytest

from spinbath import (
    BathConfig,
    ChainSpec,
    DegenerateGapError,
    DomainError,
    SpectralDecomposition,
    build_hamiltonian,
    build_rate_matrix,
    check_degeneracy,
    coupling_matrix_elements,
    local_operator,
    pauli_matrix,
    spectral_decomposition,
)
from spinbath.bath import bose_einstein, spectral_density
from spinbath.chain import DegeneracyReport
from spinbath.errors import ValidationError

TEMPERATURES = (0.0, 0.05, 1.0, 10.0)
KAPPAS = (0.0, 1e-5, 0.3, 1.0)
TOLERANCES = (1e-9, 1e-3, 0.05)


def reference_coupling_matrices(config: BathConfig, dec: SpectralDecomposition) -> list[np.ndarray]:
    """Dense rotation u^dagger S u of every site's coupling operator."""
    u = dec.vectors
    matrices = []
    for site, axis in enumerate(config.axes, start=1):
        s = local_operator(pauli_matrix(axis), site, config.n_sites)
        s_energy = u.conj().T @ s @ u
        if np.max(np.abs(s_energy - s_energy.conj().T)) > 1e-12:
            raise ValidationError(f"coupling elements for site {site} lost Hermiticity")
        matrices.append(s_energy)
    return matrices


def reference_degeneracy(dec: SpectralDecomposition, tol: float) -> DegeneracyReport:
    """Sort all gaps as (omega, i, j) tuples and compare neighbours."""
    e = dec.energies
    d = dec.dimension
    spectrum_pairs = [
        (i, i + 1, float(e[i + 1] - e[i])) for i in range(d - 1) if e[i + 1] - e[i] < tol
    ]
    gaps = [(float(e[j] - e[i]), i, j) for i in range(d) for j in range(i + 1, d)]
    gaps.sort()
    gap_pairs = []
    for k in range(len(gaps) - 1):
        w0, i0, j0 = gaps[k]
        w1, i1, j1 = gaps[k + 1]
        if w1 - w0 < tol:
            gap_pairs.append(((i0, j0), (i1, j1), float(w1 - w0)))
    tiny = [((i, j), (i, j), w) for w, i, j in gaps if w < tol]
    return DegeneracyReport(
        spectrum_degenerate=bool(spectrum_pairs),
        gaps_degenerate=bool(gap_pairs or tiny),
        spectrum_pairs=tuple(spectrum_pairs),
        gap_pairs=tuple(tiny + gap_pairs),
        tolerance=float(tol),
    )


def reference_rates(dec, matrices, baths, *, tol=1e-9, allow_degenerate_gaps=False):
    """Pair-loop golden-rule assembly: (Lambda, structural mask)."""
    if not (allow_degenerate_gaps or reference_degeneracy(dec, tol).nondegenerate):
        raise DegenerateGapError("degenerate spectrum or gaps")
    d = dec.dimension
    abs2 = np.stack([np.abs(s) ** 2 for s in matrices])
    matrix = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            weights = abs2[:, i, j]
            if not weights.any():
                continue
            omega = float(dec.gap_table[i, j])
            nbar = bose_einstein(omega, baths.temperature)
            j_omega = np.array(
                [spectral_density(baths, n, omega) for n in range(1, baths.n_sites + 1)]
            )
            coupled = float(j_omega @ weights)
            matrix[i, j] = coupled * (1.0 + nbar)
            matrix[j, i] = coupled * nbar
    for i in range(d):
        matrix[i, i] = -(matrix[:i, i].sum() + matrix[i + 1 :, i].sum())
    structural = (np.asarray(baths.kappas)[:, None, None] * abs2).sum(axis=0) > 0
    np.fill_diagonal(structural, False)
    return matrix, structural | np.diag(structural.any(axis=0))


def _random_chain(rng, n_sites: int, pairs) -> ChainSpec:
    fields = tuple(rng.uniform(0.5, 1.5, size=n_sites))
    couplings = tuple((a, b, float(rng.uniform(-0.5, 0.5))) for a, b in pairs)
    return ChainSpec(n_sites=n_sites, fields=fields, couplings=couplings)


def _cases():
    """(label, spec, allow_degenerate_gaps): all-pairs chains and nearest-neighbour ones."""
    rng = np.random.default_rng(20191110)
    cases = []
    for n in range(2, 7):
        for draw in range(2):
            spec = _random_chain(rng, n, combinations(range(1, n + 1), 2))
            cases.append((f"all-pairs-N{n}-{draw}", spec, False))
    for n in range(3, 6):
        spec = _random_chain(rng, n, [(a, a + 1) for a in range(1, n)])
        cases.append((f"nearest-neighbour-N{n}", spec, True))
    return cases


CASES = _cases()


def _assert_same_rates(dec, baths, allow):
    elems = coupling_matrix_elements(baths, dec)
    reference = reference_coupling_matrices(baths, dec)
    for fast, slow in zip(elems.matrices, reference):
        assert np.array_equal(fast, slow)
    try:
        expected, expected_mask = reference_rates(
            dec, reference, baths, allow_degenerate_gaps=allow
        )
    except Exception as exc:
        with pytest.raises(type(exc)):
            build_rate_matrix(dec, elems, baths, allow_degenerate_gaps=allow)
        return None
    rates = build_rate_matrix(dec, elems, baths, allow_degenerate_gaps=allow)
    assert np.array_equal(rates.nonzero_mask, expected_mask)
    scale = np.max(np.abs(expected))
    assert np.max(np.abs(rates.matrix - expected)) <= 1e-15 * scale
    return rates


@pytest.mark.parametrize("label, spec, allow", CASES, ids=[c[0] for c in CASES])
def test_rates_match_the_pair_loop(label, spec, allow):
    rng = np.random.default_rng(len(label) * spec.n_sites)
    dec = spectral_decomposition(build_hamiltonian(spec))
    built = 0
    for temperature in TEMPERATURES:
        axes = tuple(rng.choice(["x", "y", "z"], size=spec.n_sites))
        kappas = tuple(rng.choice(KAPPAS, size=spec.n_sites))
        baths = BathConfig(temperature=temperature, kappas=kappas, axes=axes)
        built += _assert_same_rates(dec, baths, allow) is not None
    assert built > 0


@pytest.mark.parametrize("label, spec, allow", CASES, ids=[c[0] for c in CASES])
def test_degeneracy_report_matches_the_tuple_sort(label, spec, allow):
    dec = spectral_decomposition(build_hamiltonian(spec))
    for tol in TOLERANCES:
        report = check_degeneracy(dec, tol)
        expected = reference_degeneracy(dec, tol)
        assert report == expected
        assert repr(report) == repr(expected)  # Python ints and floats, not numpy scalars
    if allow:
        assert not check_degeneracy(dec, 1e-9).nondegenerate


def test_degenerate_chain_refused_by_both():
    spec = _random_chain(np.random.default_rng(5), 4, [(1, 2), (2, 3), (3, 4)])
    dec = spectral_decomposition(build_hamiltonian(spec))
    baths = BathConfig(temperature=1.0, kappas=(1.0,) * 4)
    with pytest.raises(DegenerateGapError):
        reference_rates(dec, reference_coupling_matrices(baths, dec), baths)
    with pytest.raises(DegenerateGapError):
        build_rate_matrix(dec, coupling_matrix_elements(baths, dec), baths)


def test_zero_gap_transition_raises_like_the_pair_loop():
    # a field-free second spin: flipping it costs nothing, so omega = 0 is coupled
    dec = spectral_decomposition(build_hamiltonian(ChainSpec(n_sites=2, fields=(1.0, 0.0))))
    baths = BathConfig(temperature=1.0, kappas=(1.0, 1.0))
    with pytest.raises(DomainError):
        reference_rates(dec, reference_coupling_matrices(baths, dec), baths, allow_degenerate_gaps=True)
    with pytest.raises(DomainError):
        build_rate_matrix(dec, coupling_matrix_elements(baths, dec), baths, allow_degenerate_gaps=True)


def test_general_eigenbasis_uses_the_dense_rotation():
    rng = np.random.default_rng(3)
    g = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    dec = spectral_decomposition(g + g.conj().T)
    baths = BathConfig(temperature=1.0, kappas=(1.0, 0.5), axes=("x", "y"))
    elems = coupling_matrix_elements(baths, dec)
    for fast, slow in zip(elems.matrices, reference_coupling_matrices(baths, dec)):
        assert np.array_equal(fast, slow)


def test_transition_table_has_one_pair_per_spin_flip():
    spec = CASES[6][1]  # an all-pairs chain with N = 5
    dec = spectral_decomposition(build_hamiltonian(spec))
    baths = BathConfig(temperature=1.0, kappas=(1.0,) * 5, axes=("x", "y", "x", "y", "x"))
    rows, cols, weights = coupling_matrix_elements(baths, dec).transitions
    d = dec.dimension
    assert rows.size == d * 5 // 2
    assert np.all(rows < cols)
    assert np.array_equal(weights.sum(axis=0), np.ones(rows.size))  # each pair is one site's flip
    for a in (rows, cols, weights):
        with pytest.raises(ValueError):
            a[0] = 0


def test_report_is_computed_once_per_decomposition_and_tolerance(paper_spec):
    dec = spectral_decomposition(build_hamiltonian(paper_spec))
    first = check_degeneracy(dec, 1e-9)
    assert check_degeneracy(dec, 1e-9) is first
    assert check_degeneracy(dec, 1e-3) is not first
    assert check_degeneracy(dec, 1e-3) is check_degeneracy(dec, 1e-3)
    other = spectral_decomposition(build_hamiltonian(paper_spec))
    assert check_degeneracy(other, 1e-9) is not first
    assert check_degeneracy(other, 1e-9) == first


def test_decomposition_arrays_are_private_and_read_only():
    energies = np.array([0.0, 1.0, 3.0])
    vectors = np.eye(3)
    dec = SpectralDecomposition(energies=energies, vectors=vectors)
    report = check_degeneracy(dec, 1e-9)
    energies[1] = 2.0  # the caller's arrays are copied, so this cannot reach dec
    vectors[0, 0] = 5.0
    assert dec.energies[1] == 1.0 and dec.vectors[0, 0] == 1.0
    for a in (dec.energies, dec.vectors, dec.gap_table):
        with pytest.raises(ValueError):
            a[0] = 7.0
    assert check_degeneracy(dec, 1e-9) is report
