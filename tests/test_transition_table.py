"""The transition-table fast paths against the dense code they replaced.

The reference implementations below are the package's original dense
rotation of Kronecker-product coupling operators, pair-loop rate assembly,
pair-loop jump operators and per-entry CSV rendering, kept verbatim in
arithmetic so the fast paths can be held to them, and a pair loop for the
degeneracy check.
"""

from __future__ import annotations

import tempfile
from dataclasses import replace
from itertools import combinations
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinbath import (
    BathConfig,
    ChainSpec,
    DegenerateGapError,
    JumpOperator,
    PopulationState,
    SpectralDecomposition,
    build_hamiltonian,
    build_jump_operators,
    build_lindblad_superoperator,
    build_rate_matrix,
    check_degeneracy,
    connectivity_blocks,
    coupling_matrix_elements,
    count_structural_zeros,
    excitation_curves,
    parse_config,
    predicted_zero_count,
    random_nondegenerate_chain,
    spectral_decomposition,
    structural_blocks,
    sweep,
)
from spinbath import cli, export, generator
from spinbath.bath import bose_einstein, spectral_density
from spinbath.chain import DEGENERACY_TOL, DegeneracyReport
from spinbath.errors import ValidationError
from spinbath.export import fmt, write_csv, write_mask_csv, write_rates_csv

from conftest import site_operator, table_mask

TEMPERATURES = (0.0, 0.05, 1.0, 10.0)
KAPPAS = (0.0, 1e-5, 0.3, 1.0)
TOLERANCES = (1e-9, 1e-3, 0.05)


def reference_coupling_matrices(config: BathConfig, dec: SpectralDecomposition) -> list[np.ndarray]:
    """Dense rotation u^dagger S u of every site's coupling operator, sigma_x."""
    u = np.eye(dec.dimension)[:, dec.basis]
    matrices = []
    for site in range(1, config.n_sites + 1):
        s = site_operator(site, config.n_sites)
        s_energy = u.conj().T @ s @ u
        if np.max(np.abs(s_energy - s_energy.conj().T)) > 1e-12:
            raise ValidationError(f"coupling elements for site {site} lost Hermiticity")
        matrices.append(s_energy)
    return matrices


def reference_table(matrices) -> tuple[np.ndarray, ...]:
    """(rows, cols, sites, values): the nonzero upper triangles, in row-major order."""
    entries = sorted(
        (i, j, n, s[i, j])
        for n, s in enumerate(matrices, start=1)
        for i, j in zip(*np.nonzero(np.triu(s, k=1)))
    )
    return tuple(np.array([e[k] for e in entries]) for k in range(4))


def reference_degeneracy(dec: SpectralDecomposition, tol: float) -> DegeneracyReport:
    """Compare neighbouring levels, then each site's flips as sorted (omega, i, j) tuples.

    A flip of site n is a level pair whose basis states differ in bit
    2^(N - n) alone, found by a loop over all level pairs.
    """
    e = dec.energies
    d = dec.dimension
    spectrum_pairs = [
        (i, i + 1, float(e[i + 1] - e[i])) for i in range(d - 1) if e[i + 1] - e[i] < tol
    ]
    n_sites = int(np.log2(d)) if 2 ** int(np.log2(d)) == d else 0
    gap_pairs = []
    for n in range(1, n_sites + 1):
        bit = 1 << (n_sites - n)
        flips = sorted(
            (float(e[j] - e[i]), i, j)
            for i in range(d)
            for j in range(i + 1, d)
            if dec.basis[i] ^ dec.basis[j] == bit
        )
        for (w0, i0, j0), (w1, i1, j1) in zip(flips, flips[1:]):
            if w1 - w0 < tol:
                gap_pairs.append(((i0, j0), (i1, j1), float(w1 - w0)))
    return DegeneracyReport(
        spectrum_degenerate=bool(spectrum_pairs),
        gaps_degenerate=bool(gap_pairs),
        spectrum_pairs=tuple(spectrum_pairs),
        gap_pairs=tuple(gap_pairs),
        tolerance=float(tol),
    )


def reference_rates(dec, matrices, baths, *, tol=1e-9):
    """Pair-loop golden-rule assembly: (Lambda, structural mask)."""
    if reference_degeneracy(dec, tol).spectrum_degenerate:
        raise DegenerateGapError("degenerate spectrum")
    d = dec.dimension
    abs2 = np.stack([np.abs(s) ** 2 for s in matrices])
    matrix = np.zeros((d, d))
    for i in range(d):
        for j in range(i + 1, d):
            weights = abs2[:, i, j]
            if not weights.any():
                continue
            omega = float(dec.energies[j] - dec.energies[i])
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


def reference_jump_operators(dec, matrices, *, tol=1e-9):
    """Pair loop over every level pair of every site's dense coupling matrix,
    grouping a site's entries by neighbour chaining: in (omega, i, j) order,
    an entry joins the group of the one before it when their gaps lie within
    tol."""
    if reference_degeneracy(dec, tol).spectrum_degenerate:
        raise DegenerateGapError("degenerate spectrum")
    d = dec.dimension
    ops = []
    for n, s in enumerate(matrices, start=1):
        entries = [
            (float(dec.energies[j] - dec.energies[i]), i, j)
            for i in range(d)
            for j in range(i + 1, d)
            if s[i, j] != 0
        ]
        entries.sort()
        groups = []
        for entry in entries:
            if groups and entry[0] - groups[-1][-1][0] < tol:
                groups[-1].append(entry)
            else:
                groups.append([entry])
        for group in groups:
            pairs = tuple((i, j) for _, i, j in group)
            ops.append(JumpOperator(site=n, omega=group[0][0], pairs=pairs))
    return ops


def _random_chain(rng, n_sites: int, pairs) -> ChainSpec:
    fields = tuple(rng.uniform(0.5, 1.5, size=n_sites))
    couplings = tuple((a, b, float(rng.uniform(-0.5, 0.5))) for a, b in pairs)
    return ChainSpec(n_sites=n_sites, fields=fields, couplings=couplings)


def _cases():
    """(label, spec): all-pairs chains, and nearest-neighbour ones whose end-spin flips collide."""
    rng = np.random.default_rng(20191110)
    cases = []
    for n in range(2, 7):
        for draw in range(2):
            spec = _random_chain(rng, n, combinations(range(1, n + 1), 2))
            cases.append((f"all-pairs-N{n}-{draw}", spec))
    for n in range(3, 6):
        spec = _random_chain(rng, n, [(a, a + 1) for a in range(1, n)])
        cases.append((f"nearest-neighbour-N{n}", spec))
    return cases


CASES = _cases()


def _assert_same_table(elems, matrices):
    *expected, values = reference_table(matrices)
    for got, want in zip((elems.rows, elems.cols, elems.sites), expected):
        assert np.array_equal(got, want)
    assert np.all(values == 1.0)  # every sigma_x element is exactly 1, so the table stores none


def _assert_same_jump_operators(got, expected):
    assert len(got) == len(expected)
    for a, b in zip(got, expected):
        assert (a.site, a.omega, a.pairs) == (b.site, b.omega, b.pairs)


def _assert_same_rates(dec, baths):
    elems = coupling_matrix_elements(baths, dec)
    reference = reference_coupling_matrices(baths, dec)
    _assert_same_table(elems, reference)
    try:
        expected, expected_mask = reference_rates(dec, reference, baths)
        expected_ops = reference_jump_operators(dec, reference)
    except Exception as exc:
        with pytest.raises(type(exc)):
            build_rate_matrix(elems, baths)
        return None
    rates = build_rate_matrix(elems, baths)
    assert np.array_equal(table_mask(rates), expected_mask)
    off = ~np.eye(dec.dimension, dtype=bool)
    assert np.array_equal(rates.matrix[off], expected[off])
    scale = np.max(np.abs(expected))  # the pair loop sums each column in another order
    assert np.max(np.abs(rates.matrix - expected)) <= 1e-15 * scale
    ops = build_jump_operators(elems)
    _assert_same_jump_operators(ops, expected_ops)
    if dec.dimension <= 8:
        superop = build_lindblad_superoperator(elems, baths)
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(generator, "build_jump_operators", lambda *args, **kwargs: expected_ops)
            oracle = build_lindblad_superoperator(elems, baths)
        assert np.array_equal(superop.matrix, oracle.matrix)
    return rates


@pytest.mark.parametrize("label, spec", CASES, ids=[c[0] for c in CASES])
def test_rates_match_the_pair_loop(label, spec):
    rng = np.random.default_rng(len(label) * spec.n_sites)
    dec = spectral_decomposition(build_hamiltonian(spec))
    built = 0
    for temperature in TEMPERATURES:
        kappas = tuple(rng.choice(KAPPAS, size=spec.n_sites))
        baths = BathConfig(temperature=temperature, kappas=kappas)
        built += _assert_same_rates(dec, baths) is not None
    assert built > 0


@pytest.mark.parametrize("label, spec", CASES, ids=[c[0] for c in CASES])
def test_degeneracy_report_matches_the_tuple_sort(label, spec):
    dec = spectral_decomposition(build_hamiltonian(spec))
    for tol in TOLERANCES:
        report = check_degeneracy(dec, tol)
        expected = reference_degeneracy(dec, tol)
        assert report == expected
        assert repr(report) == repr(expected)  # Python ints and floats, not numpy scalars
    report = check_degeneracy(dec, 1e-9)
    assert report.nondegenerate
    assert report.gaps_degenerate == label.startswith("nearest-neighbour")


def test_degenerate_gaps_admitted_by_both():
    spec = _random_chain(np.random.default_rng(5), 4, [(1, 2), (2, 3), (3, 4)])
    dec = spectral_decomposition(build_hamiltonian(spec))
    assert check_degeneracy(dec, 1e-9).gaps_degenerate
    baths = BathConfig(temperature=1.0, kappas=(1.0,) * 4)
    expected, expected_mask = reference_rates(dec, reference_coupling_matrices(baths, dec), baths)
    rates = build_rate_matrix(coupling_matrix_elements(baths, dec), baths)
    assert np.array_equal(table_mask(rates), expected_mask)
    assert np.max(np.abs(rates.matrix - expected)) <= 1e-15 * np.max(np.abs(expected))


def test_zero_gap_transition_raises_like_the_pair_loop():
    # a field-free second spin: flipping it costs nothing, so two levels coincide
    dec = spectral_decomposition(build_hamiltonian(ChainSpec(n_sites=2, fields=(1.0, 0.0))))
    baths = BathConfig(temperature=1.0, kappas=(1.0, 1.0))
    with pytest.raises(DegenerateGapError):
        reference_rates(dec, reference_coupling_matrices(baths, dec), baths)
    with pytest.raises(DegenerateGapError):
        build_rate_matrix(coupling_matrix_elements(baths, dec), baths)


def test_transition_table_has_one_pair_per_spin_flip():
    spec = CASES[6][1]  # an all-pairs chain with N = 5
    dec = spectral_decomposition(build_hamiltonian(spec))
    baths = BathConfig(temperature=1.0, kappas=(1.0,) * 5)
    elems = coupling_matrix_elements(baths, dec)
    d = dec.dimension
    assert elems.rows.size == d * 5 // 2
    assert np.all(elems.rows < elems.cols)
    assert np.bincount(elems.sites).tolist() == [0] + [d // 2] * 5
    flipped = dec.basis[elems.rows] ^ dec.basis[elems.cols]
    assert np.array_equal(flipped, 1 << (5 - elems.sites))  # exactly the site's bit differs
    for a in (elems.rows, elems.cols, elems.sites):
        with pytest.raises(ValueError):
            a[0] = 0


@st.composite
def _chains_and_baths(draw, kappa_values=(0.0, 1e-5, 0.3, 1.0)):
    n = draw(st.integers(1, 6))
    value = st.floats(-2.0, 2.0, allow_nan=False)
    fields = tuple(draw(value) for _ in range(n))
    couplings = tuple(
        (a, b, draw(value)) for a, b in combinations(range(1, n + 1), 2) if draw(st.booleans())
    )
    kappas = tuple(draw(st.sampled_from(kappa_values)) for _ in range(n))
    return ChainSpec(n, fields, couplings), kappas


@settings(max_examples=60, deadline=None)
@given(_chains_and_baths())
def test_table_equals_the_dense_rotation_on_random_chains(case):
    spec, kappas = case
    dec = spectral_decomposition(build_hamiltonian(spec))
    baths = BathConfig(temperature=1.0, kappas=kappas)
    assume(not check_degeneracy(dec).spectrum_degenerate)  # refused with the table
    elems = coupling_matrix_elements(baths, dec)
    _assert_same_table(elems, reference_coupling_matrices(baths, dec))

    # with every site coupled, the zeros law holds whatever the gaps
    coupled = BathConfig(temperature=1.0, kappas=tuple(k or 0.5 for k in kappas))
    rates = build_rate_matrix(coupling_matrix_elements(coupled, dec), coupled)
    assert count_structural_zeros(rates.elems, rates.baths) == predicted_zero_count(spec.n_sites)


@settings(max_examples=60, deadline=None)
@given(_chains_and_baths())
def test_the_table_refuses_exactly_the_degenerate_spectra(case):
    """coupling_matrix_elements admits a spectrum by the spacing check alone,
    and its refusal names the pair check_degeneracy lists first."""
    spec, kappas = case
    dec = spectral_decomposition(build_hamiltonian(spec))
    baths = BathConfig(temperature=1.0, kappas=kappas)
    report = check_degeneracy(dec)
    if not report.spectrum_degenerate:
        assert coupling_matrix_elements(baths, dec).spectrum is dec
        return
    i, j, diff = report.spectrum_pairs[0]
    with pytest.raises(DegenerateGapError) as info:
        coupling_matrix_elements(baths, dec)
    assert str(info.value) == f"spectrum degenerate: |E_{i + 1} - E_{j + 1}| = {diff:.3e} < {DEGENERACY_TOL:.1e}"


@settings(max_examples=60, deadline=None)
@given(_chains_and_baths())
def test_every_table_consumer_checks_its_bath(case):
    """Every function that takes (elems, baths) refuses a bath whose site count
    differs from the table's with _check_bath's own message, and accepts the bath
    the table was built for."""
    spec, kappas = case
    dec = spectral_decomposition(build_hamiltonian(spec))
    assume(not check_degeneracy(dec).spectrum_degenerate)  # refused with the table
    baths = BathConfig(temperature=1.0, kappas=kappas)
    elems = coupling_matrix_elements(baths, dec)
    p0 = PopulationState.basis(dec.dimension, 0)
    consumers = [
        build_rate_matrix, connectivity_blocks, structural_blocks, count_structural_zeros,
        generator._structural_pattern, generator._flip_densities,
        lambda e, b: sweep(e, b, "temperature", [1.0], 1.0, p0),
        lambda e, b: excitation_curves(e, b, "temperature", [1.0], [0.0, 1.0], p0),
    ]
    if spec.n_sites <= 3:  # the oracle's d^4 matrix
        consumers.append(build_lindblad_superoperator)
    mismatched = [BathConfig(temperature=1.0, kappas=(*kappas, 1.0))]
    if spec.n_sites > 1:
        mismatched.append(BathConfig(temperature=1.0, kappas=kappas[:-1]))
    for bad in mismatched:
        with pytest.raises(ValidationError) as expected:
            generator._check_bath(elems, bad)
        for consumer in consumers:
            with pytest.raises(ValidationError) as refused:
                consumer(elems, bad)
            assert str(refused.value) == str(expected.value)
    for consumer in consumers:
        consumer(elems, baths)
    assert sweep(elems, baths, "temperature", [1.0], 1.0, p0).errors == {}


def test_a_table_built_by_hand_refuses_a_degenerate_spectrum(paper_table):
    elems, _ = paper_table()
    energies = np.array([0.0, 1.0, 1.0 + 1e-12, 2.0])
    close = SpectralDecomposition(energies=energies, basis=np.arange(4))
    with pytest.raises(DegenerateGapError, match=r"\|E_2 - E_3\| = 1\.000e-12 < 1\.0e-09"):
        replace(elems, spectrum=close)


def test_decomposition_arrays_are_private_and_read_only():
    energies = np.array([0.0, 1.0, 3.0])
    basis = np.array([2, 0, 1])
    dec = SpectralDecomposition(energies=energies, basis=basis)
    report = check_degeneracy(dec, 1e-9)
    energies[1] = 2.0  # the caller's arrays are copied, so this cannot reach dec
    basis[0] = 1
    assert dec.energies[1] == 1.0 and dec.basis[0] == 2
    for a in (dec.energies, dec.basis):
        with pytest.raises(ValueError):
            a[0] = 7.0
    assert check_degeneracy(dec, 1e-9) == report
    with pytest.raises(ValidationError, match="permutation"):
        SpectralDecomposition(energies=energies, basis=np.array([0, 0, 1]))


def reference_render_rows(matrix) -> list[str]:
    """The per-entry CSV rendering the emission fast paths replaced."""
    return [",".join(fmt(x) for x in row) for row in np.asarray(matrix)]


def reference_mask_rows(mask) -> list[str]:
    return [",".join(str(int(x)) for x in row) for row in np.asarray(mask)]


@pytest.mark.parametrize("mask_bytes", [1, 100, export._MASK_BYTES])
def test_matrix_csv_matches_the_per_entry_rendering(tmp_path, monkeypatch, mask_bytes):
    # write_csv renders every entry; the cell writer behind rates.csv and steady.csv
    # renders only the cells it is given, in any order, and "0" for the rest
    monkeypatch.setattr(export, "_MASK_BYTES", mask_bytes)
    rng = np.random.default_rng(3)
    special = np.array([0.0, -0.0, np.nan, np.inf, -np.inf, 5e-324, 1e-300, -2.5, 1 / 3])
    path = tmp_path / "m.csv"
    for shape in ((1, 1), (2, 2), (3, 7), (0, 4), (4, 0), (64, 64)):
        real = rng.choice(special, size=shape)
        real[rng.random(shape) < 0.5] = 0.0
        lines = ["# h", ",".join(f"c{k}" for k in range(shape[1]))]
        for m in (real, real.astype(np.float32), real > 0):
            write_csv(path, lines, m)
            assert path.read_bytes() == ("\n".join([*lines, *reference_render_rows(m)]) + "\n").encode()
        if shape[1]:
            at = rng.permutation(np.flatnonzero((real != 0) | np.signbit(real)))  # NaN != 0 holds
            export._write_cells(path, lines, *shape, at, real.reshape(-1)[at])
            assert path.read_bytes() == ("\n".join([*lines, *reference_render_rows(real)]) + "\n").encode()


@pytest.mark.parametrize("mask_bytes", [1, 100, export._MASK_BYTES])
def test_mask_csv_matches_the_per_entry_rendering(tmp_path, monkeypatch, mask_bytes):
    # random patterns: pairs i < j in row-major order, and touched states drawn apart
    monkeypatch.setattr(export, "_MASK_BYTES", mask_bytes)
    rng = np.random.default_rng(4)
    path = tmp_path / "mask.csv"
    for d in (1, 2, 3, 5, 64, 300):
        for density in (0.0, 0.05, 0.3, 1.0):
            rows, cols = np.nonzero(np.triu(rng.random((d, d)) < density, 1))
            touched = rng.random(d) < density
            grid = np.diag(touched)
            grid[rows, cols] = grid[cols, rows] = True
            write_mask_csv(path, (rows, cols, touched), ["# h"])
            assert path.read_bytes() == ("\n".join(["# h", *reference_mask_rows(grid)]) + "\n").encode()


@settings(max_examples=60, deadline=None)
@given(_chains_and_baths(kappa_values=(0.0, 1e-5, 1.0)))
def test_flip_densities_equal_the_per_site_law(case):
    """One spectral_density call over the table's sites against one call per
    site: the same bits on every row of the table."""
    spec, kappas = case
    dec = spectral_decomposition(build_hamiltonian(spec))
    baths = BathConfig(temperature=1.0, kappas=kappas)
    assume(not check_degeneracy(dec).spectrum_degenerate)  # a zero gap is refused with the table
    elems = coupling_matrix_elements(baths, dec)
    omega = dec.energies[elems.cols] - dec.energies[elems.rows]
    expected = np.empty(omega.size)
    for n in range(1, baths.n_sites + 1):
        flips = elems.sites == n
        expected[flips] = spectral_density(baths, n, omega[flips])
    gaps, density = generator._flip_densities(elems, baths)
    assert gaps.tobytes() == omega.tobytes()
    assert density.tobytes() == expected.tobytes()


@settings(max_examples=60, deadline=None)
@given(_chains_and_baths(), st.sampled_from(TEMPERATURES))
def test_rates_on_the_table_equal_the_pair_loop(case, temperature):
    """Lambda built from the per-flip rates, and rates.csv rendered from them,
    against the pair loop: every entry the same bits, signed zeros included.
    The pair loop sums each column in its own order, so the diagonal it is
    held to is its off-diagonal part summed as Lambda.sum(axis=0) sums it."""
    spec, kappas = case
    dec = spectral_decomposition(build_hamiltonian(spec))
    baths = BathConfig(temperature=temperature, kappas=kappas)
    assume(not check_degeneracy(dec).spectrum_degenerate)  # refused with the table
    expected, _ = reference_rates(dec, reference_coupling_matrices(baths, dec), baths)
    rates = build_rate_matrix(coupling_matrix_elements(baths, dec), baths)
    scale = np.max(np.abs(expected), initial=0.0)
    paired = np.diagonal(expected).copy()
    np.fill_diagonal(expected, 0.0)
    np.fill_diagonal(expected, -expected.sum(axis=0))
    assert np.max(np.abs(np.diagonal(expected) - paired), initial=0.0) <= 1e-15 * scale
    assert np.array_equal(rates.matrix, expected)
    assert np.array_equal(np.signbit(rates.matrix), np.signbit(expected))
    with tempfile.TemporaryDirectory() as tmp:
        path = write_rates_csv(Path(tmp) / "rates.csv", rates, ["# h"])
        labels = ",".join(f"E={fmt(x)}" for x in dec.energies)
        assert path.read_bytes() == ("\n".join(["# h", labels, *reference_render_rows(expected)]) + "\n").encode()


def test_decoupled_rates_csv_prints_minus_zero_on_the_diagonal(tmp_path):
    # every kappa = 0: the table keeps its four flips at rate 0.0, and each state's
    # outflow is 0.0, so the diagonal prints -0.0
    path = tmp_path / "decoupled.cfg"
    path.write_text("[chain]\nn = 2\nfields = 1.0, 0.5\ncouplings = 1-2: 0.25\n"
                    "[bath]\ntemperature = 1.0\nkappas = 0, 0\n")
    assert cli.main(["rates", "--config", str(path), "--out", str(tmp_path)]) == 0
    body = [line for line in (tmp_path / "rates.csv").read_text().splitlines() if not line.startswith("#")]
    assert body[1:] == ["-0,0,0,0", "0,-0,0,0", "0,0,-0,0", "0,0,0,-0"]


def _decomposition(energies) -> SpectralDecomposition:
    return SpectralDecomposition(energies=np.asarray(energies, dtype=float), basis=np.arange(len(energies)))


DEGENERACY_EDGES = {
    "d=1": [0.0],
    "d=2": [0.0, 1.0],
    "d=2-tie": [0.5, 0.5],
    "exact-energy-tie": [0.0, 1.0, 1.0, 3.0],
    "gap-below-tol": [0.0, 1.0, 1.0 + 5e-10, 4.0],
    "two-gaps-within-tol": [0.0, 1.0, 3.0, 4.0 + 5e-10],
    "exact-gap-tie": [0.0, 1.0, 2.5, 3.5],
    "spaced": [0.0, 1.0, 3.0, 7.0],
}


@pytest.mark.parametrize("label", DEGENERACY_EDGES)
def test_degeneracy_fast_path_on_edge_spectra(label):
    for tol in TOLERANCES:
        dec = _decomposition(DEGENERACY_EDGES[label])
        report = check_degeneracy(dec, tol)
        expected = reference_degeneracy(dec, tol)
        assert report == expected and repr(report) == repr(expected)


def _all_pairs_config(spec: ChainSpec) -> str:
    kappas = (1e-5,) + (1.0,) * (spec.n_sites - 1)
    return "\n".join([
        "[chain]",
        f"n = {spec.n_sites}",
        "fields = " + ", ".join(repr(h) for h in spec.fields),
        "couplings = " + ", ".join(f"{a}-{b}: {d!r}" for a, b, d in spec.couplings),
        "[bath]",
        "temperature = 1.0",
        "kappas = " + ", ".join(repr(k) for k in kappas),
    ]) + "\n"


def test_cli_files_match_the_per_entry_rendering(tmp_path):
    spec = random_nondegenerate_chain(6, np.random.default_rng(66))
    path = tmp_path / "n6.cfg"
    path.write_text(_all_pairs_config(spec))
    for command in ("spectrum", "rates"):
        assert cli.main([command, "--config", str(path), "--out", str(tmp_path)]) == 0

    cfg = parse_config(path)
    dec = spectral_decomposition(build_hamiltonian(cfg.chain))
    rates = build_rate_matrix(coupling_matrix_elements(cfg.bath, dec), cfg.bath)
    _, expected_mask = reference_rates(dec, reference_coupling_matrices(cfg.bath, dec), cfg.bath)
    e, d = dec.energies, dec.dimension
    expected = {
        "gaps.csv": ["i,j,omega"] + [
            f"{i + 1},{j + 1},{fmt(e[j] - e[i])}" for i in range(d) for j in range(i + 1, d)
        ],
        "rates.csv": [",".join(f"E={fmt(x)}" for x in e), *reference_render_rows(rates.matrix)],
        "rates_mask.csv": reference_mask_rows(expected_mask),
    }
    for name, body in expected.items():
        text = (tmp_path / name).read_text()
        header = [line for line in text.split("\n") if line.startswith("#")]
        assert len(header) == 3
        assert (tmp_path / name).read_bytes() == ("\n".join([*header, *body]) + "\n").encode()
