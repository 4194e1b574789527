"""Jump operators, the golden-rule rate matrix, and the Lindblad superoperator."""

from __future__ import annotations

import math
import tracemalloc
from itertools import combinations

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from spinbath import (
    BathConfig,
    bath_at,
    bose_einstein,
    CapacityError,
    ChainSpec,
    CouplingElements,
    DegenerateGapError,
    LindbladSuperoperator,
    NumericalIntegrityError,
    SpectralDecomposition,
    build_hamiltonian,
    build_jump_operators,
    build_lindblad_superoperator,
    build_rate_matrix,
    check_degeneracy,
    coupling_matrix_elements,
    decompose_chain,
    gibbs_state,
    random_nondegenerate_chain,
    spectral_decomposition,
    structural_blocks,
    unvectorize,
    ValidationError,
    vectorize,
)
from spinbath import generator

from conftest import csgraph_blocks, random_density, table_mask


def _elems(dec, kappas, temperature=1.0):
    cfg = BathConfig(temperature=temperature, kappas=kappas)
    return cfg, coupling_matrix_elements(dec)


class TestJumpOperators:
    def test_site_one_two_operators(self, paper_dec):
        _, elems = _elems(paper_dec, (1.0, 1.0))
        ops = [op for op in build_jump_operators(elems) if op.site == 1]
        assert [(op.omega, op.pairs) for op in ops] == [
            (pytest.approx(4 / 3), ((1, 3),)),
            (pytest.approx(8 / 3), ((0, 2),)),
        ]

    def test_site_two_operators(self, paper_dec):
        _, elems = _elems(paper_dec, (1.0, 1.0))
        ops = [op for op in build_jump_operators(elems) if op.site == 2]
        assert [(op.omega, op.pairs) for op in ops] == [
            (pytest.approx(1 / 3), ((2, 3),)),
            (pytest.approx(5 / 3), ((0, 1),)),
        ]

    def test_degenerate_gaps_refused_with_pair_names(self):
        # equal fields make equal levels, which no secular form takes
        dec = spectral_decomposition(build_hamiltonian(ChainSpec(2, (1.0, 1.0))))
        with pytest.raises(DegenerateGapError, match=r"spectrum degenerate: \|E_2 - E_3\|"):
            _elems(dec, (1.0, 1.0))

    def test_degenerate_override_groups_equal_frequencies(self):
        # uncoupled chain: both site-1 transitions share the gap 2 h_1, and
        # equal frequencies of one site are grouped without any override
        dec = spectral_decomposition(build_hamiltonian(ChainSpec(2, (1.0, 0.5))))
        _, elems = _elems(dec, (1.0, 1.0))
        ops = build_jump_operators(elems)
        site1 = [op for op in ops if op.site == 1]
        assert len(site1) == 1
        assert site1[0].omega == pytest.approx(2.0)
        assert len(site1[0].pairs) == 2

    def test_chained_gaps_share_one_operator(self):
        # the four site-1 gaps lie 8e-10, 2e-10 and 8e-10 apart: each within the tolerance
        # of the next, 1.8e-9 end to end, so they chain into one group, as the report pairs them
        dec = decompose_chain(ChainSpec(3, (1.0, 0.5, 0.3), ((1, 2, 2.5e-10), (1, 3, 2e-10))))
        _, elems = _elems(dec, (1.0, 1.0, 1.0))
        ops = build_jump_operators(elems)
        assert [op.pairs for op in ops if op.site == 1] == [((3, 7), (2, 6), (1, 5), (0, 4))]
        operator_of = {pair: k for k, op in enumerate(ops) for pair in op.pairs}
        report = check_degeneracy(dec)
        assert report.gap_pairs[:3] == (((3, 7), (2, 6), pytest.approx(8e-10)), ((2, 6), (1, 5), pytest.approx(2e-10)),
                                        ((1, 5), (0, 4), pytest.approx(8e-10)))
        assert all(operator_of[a] == operator_of[b] for a, b, _ in report.gap_pairs)

    def test_operators_store_only_their_entries(self):
        # operators keep their entries only: a d x d matrix per flip would take 512 MiB here
        dec = spectral_decomposition(build_hamiltonian(random_nondegenerate_chain(8, np.random.default_rng(3))))
        _, elems = _elems(dec, (1.0,) * 8)
        tracemalloc.start()
        try:
            ops = build_jump_operators(elems)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(ops) == 8 * 2**8 // 2
        assert peak < 8 * 2**20


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 4), st.integers(0, 2**32 - 1))
def test_report_pairs_are_the_operators_consecutive_members(n, seed):
    """Couplings within +-5e-10 spread a site's gaps over a few tolerances, so
    they chain into groups of every shape; the report and the operators group
    them by the one rule."""
    rng = np.random.default_rng(seed)
    couplings = tuple((a, b, float(rng.uniform(-5e-10, 5e-10))) for a, b in combinations(range(1, n + 1), 2))
    dec = decompose_chain(ChainSpec(n, tuple(rng.uniform(0.5, 1.5, size=n)), couplings))
    report = check_degeneracy(dec)
    assume(report.nondegenerate)
    _, elems = _elems(dec, (1.0,) * n)
    members = [pairs for op in build_jump_operators(elems) for pairs in zip(op.pairs, op.pairs[1:])]
    assert [(a, b) for a, b, _ in report.gap_pairs] == members


class TestRateMatrix:
    def test_blocked_structure_is_exact(self, paper_model):
        elems, rates = paper_model(kappas=(0.0, 1.0), temperature=3.0)
        block_a, block_b = (0, 1), (2, 3)
        for i in block_a:
            for j in block_b:
                assert rates.matrix[i, j] == 0.0
                assert rates.matrix[j, i] == 0.0
        assert structural_blocks(elems, rates.baths) == (block_a, block_b)

    def test_zero_temperature_pure_damping(self, paper_model):
        _, rates = paper_model(kappas=(1.0, 1.0), temperature=0.0)
        lower = np.tril(rates.matrix, k=-1)
        assert np.count_nonzero(lower) == 0
        assert np.max(np.abs(rates.matrix.sum(axis=0))) < 1e-12

    def test_paper_rates_match_direct_formula(self, paper_model):
        # independent evaluation of the golden-rule expressions at gap 8/3
        _, rates = paper_model(kappas=(1.0, 1.0), temperature=1.0)
        nbar = 1.0 / math.expm1(8 / 3)
        expected_damping = (8 / 3) * (1.0 + nbar)
        expected_gain = (8 / 3) * nbar
        assert rates.matrix[0, 2] == pytest.approx(expected_damping, rel=1e-12)
        assert rates.matrix[2, 0] == pytest.approx(expected_gain, rel=1e-12)
        assert expected_damping == pytest.approx(2.865792, abs=1e-6)
        assert expected_gain == pytest.approx(0.199125, abs=1e-6)
        ratio = rates.matrix[2, 0] / rates.matrix[0, 2]
        assert ratio == pytest.approx(math.exp(-8 / 3), rel=1e-10)

    def test_invariants_and_row_counts(self, paper_model):
        _, rates = paper_model(kappas=(1.0, 1.0), temperature=1.0)
        m = rates.matrix
        assert np.all(np.isfinite(m))
        off = ~np.eye(4, dtype=bool)
        assert np.all(m[off] >= 0)
        assert np.all(np.diagonal(m) <= 0)
        # every row holds N + 1 = 3 structural nonzeros when all sites couple, and at
        # T > 0 each of them is a nonzero rate
        assert np.all(table_mask(rates).sum(axis=1) == 3)
        assert np.array_equal(table_mask(rates), m != 0)

    def test_build_allocates_no_dense_matrix(self):
        # N = 10: a dense Lambda alone takes 8 MiB; the build keeps two rates per flip
        # of the table and one outflow per state, and the dense Lambda waits for first use
        dec = decompose_chain(random_nondegenerate_chain(10, np.random.default_rng(10)))
        cfg, elems = _elems(dec, (1e-5,) + (1.0,) * 9)
        tracemalloc.start()
        try:
            rates = build_rate_matrix(elems, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"peaked at {peak / 2**20:.2f} MiB"
        assert rates.elems is elems
        assert rates.damping.shape == rates.gain.shape == (5 * 2**10,)
        assert "matrix" not in vars(rates)
        assert rates.matrix is rates.matrix and rates.matrix.shape == (2**10, 2**10)

    def test_boundary_diagonal_entries(self, paper_model):
        # ground state loses only upward (gain), top state only downward (damping)
        _, rates = paper_model(kappas=(1.0, 1.0), temperature=2.0)
        m = rates.matrix
        assert m[0, 0] == pytest.approx(-(m[1, 0] + m[2, 0] + m[3, 0]), rel=1e-12)
        assert m[3, 3] == pytest.approx(-(m[0, 3] + m[1, 3] + m[2, 3]), rel=1e-12)

    def test_detailed_balance_random_chains(self):
        rng = np.random.default_rng(31)
        for _ in range(25):
            n = int(rng.integers(2, 4))
            from spinbath import random_nondegenerate_chain

            spec = random_nondegenerate_chain(n, rng)
            temperature = float(rng.uniform(0.5, 5.0))
            dec = spectral_decomposition(build_hamiltonian(spec))
            cfg, elems = _elems(dec, tuple(rng.uniform(0.1, 2.0, size=n)), temperature)
            rates = build_rate_matrix(elems, cfg)
            mask = table_mask(rates)
            for i in range(dec.dimension):
                for j in range(i + 1, dec.dimension):
                    if not mask[i, j]:
                        continue
                    ratio = rates.matrix[j, i] / rates.matrix[i, j]
                    expected = math.exp(-float(dec.energies[j] - dec.energies[i]) / temperature)
                    assert ratio == pytest.approx(expected, rel=1e-10)

    def test_mask_is_temperature_independent(self, paper_model):
        _, cold = paper_model(kappas=(1e-5, 1.0), temperature=0.01)
        _, hot = paper_model(kappas=(1e-5, 1.0), temperature=100.0)
        # the pattern is read off the table; the rates at either temperature agree with it
        for rates in (cold, hot):
            assert np.array_equal(table_mask(rates), rates.matrix != 0)
        assert np.all(table_mask(cold).sum(axis=1) == 3)  # 1e-5 still structurally couples


@st.composite
def _bath_grids(draw):
    """A nondegenerate chain of N <= 5 sites and its bath with variants along one
    axis: temperatures from T = 0 to 1e308, where nbar overflows, or couplings of one
    site up to 4e307, whose rates are finite but whose outflows may overflow, and
    1e308, whose rates overflow."""
    n = draw(st.integers(1, 5))
    spec = random_nondegenerate_chain(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    kappas = tuple(draw(st.sampled_from((0.0, 1e-5, 0.3, 1.0))) for _ in range(n))
    baths = BathConfig(temperature=draw(st.sampled_from((0.0, 0.05, 1.0, 10.0))), kappas=kappas)
    axis = draw(st.sampled_from(("temperature", "kappa")))
    values = (0.0, 1e-300, 0.05, 1.0, 10.0, 1e308) if axis == "temperature" else (0.0, 1e-5, 1.0, 1e17, 4e307, 1e308)
    site = draw(st.integers(1, n)) if axis == "kappa" else None
    return spec, baths, axis, draw(st.lists(st.sampled_from(values), min_size=1, max_size=6)), site


@settings(max_examples=80, deadline=None)
@given(_bath_grids())
def test_batched_rates_equal_each_variant_built_alone(case):
    """generator.build_rate_matrices is build_rate_matrix of each variant, bit for bit, with
    a variant that build_rate_matrix refuses failed in its place by the same message,
    and it evaluates nbar exactly once per (variant, flip)."""
    spec, baths, axis, points, site = case
    elems = coupling_matrix_elements(decompose_chain(spec))
    variants = [bath_at(baths, axis, value, site) for value in points]
    calls = []
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(generator, "bose_einstein", lambda w, t: calls.append((w, t)) or bose_einstein(w, t))
        built = list(generator.build_rate_matrices(elems, variants))
    gaps = (elems.spectrum.energies[elems.cols] - elems.spectrum.energies[elems.rows]).tolist()
    assert calls == [(w, bath.temperature) for bath in variants for w in gaps]
    assert len(built) == len(variants)
    for bath, rates in zip(variants, built):
        try:
            alone = build_rate_matrix(elems, bath)
        except NumericalIntegrityError as refused:
            assert type(rates) is NumericalIntegrityError and str(rates) == str(refused)
            continue
        assert isinstance(rates, generator.RateMatrix) and rates.elems is elems and rates.baths == bath
        for name in ("damping", "gain", "outflow", "matrix"):
            ours, theirs = getattr(rates, name), getattr(alone, name)
            assert ours.dtype == theirs.dtype and ours.tobytes() == theirs.tobytes(), name


def test_no_bath_variants_build_no_rates(paper_dec):
    # an empty list of baths has no site count: it was refused as "site 2 out of range 1..0"
    _, elems = _elems(paper_dec, (1.0, 1.0))
    assert list(generator.build_rate_matrices(elems, [])) == []


class TestRateMatrixRefusals:
    @pytest.mark.parametrize("temperature", [0.0, 1.0])
    @pytest.mark.parametrize("kappa", [1e308, math.inf, math.nan])
    def test_non_finite_rates_refused_without_warnings(self, paper_dec, kappa, temperature):
        # the bath refuses a non-finite kappa itself; a finite kappa = 1e308 reaches the
        # builder, where kappa * omega overflows, and inf * 0 occupation is NaN at T = 0
        if not math.isfinite(kappa):
            with pytest.raises(ValidationError, match="kappa for site 1 must be finite and >= 0"):
                _elems(paper_dec, (kappa, 1.0), temperature)
            return
        cfg, elems = _elems(paper_dec, (kappa, 1.0), temperature)
        with pytest.raises(NumericalIntegrityError, match="non-finite rates: total outflow of level 1"):
            build_rate_matrix(elems, cfg)

    def test_finite_rates_whose_outflow_overflows_refused(self):
        # uncoupled fields: the top level decays by gaps 2, 1.8 and 1.6, each rate
        # below the double range at kappa = 4e307, their sum 2.16e308 beyond it
        dec = decompose_chain(ChainSpec(3, (1.0, 0.9, 0.8)))
        cfg, elems = _elems(dec, (4e307,) * 3, 0.0)
        with pytest.raises(NumericalIntegrityError, match="level 8 is inf"):
            build_rate_matrix(elems, cfg)

    def test_build_beyond_the_dense_limit_stays_on_the_table(self):
        # a synthetic 2^13-level spectrum: 53,248 flips, no d x d array (4.1 MiB peak)
        d = 2**13
        dec = SpectralDecomposition(energies=np.arange(d) * 1e-3, basis=np.arange(d))
        cfg, elems = _elems(dec, (1.0,) * 13)
        tracemalloc.start()
        try:
            rates = build_rate_matrix(elems, cfg)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20
        assert rates.damping.size == 13 * d // 2 and rates.outflow.size == d

    def test_capacity_guard_before_allocation(self):
        # the dense Lambda of the same spectrum is 512 MiB: refused before it is allocated
        d = 2**13
        dec = SpectralDecomposition(energies=np.arange(d) * 1e-3, basis=np.arange(d))
        cfg, elems = _elems(dec, (1.0,) * 13)
        rates = build_rate_matrix(elems, cfg)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=r"d <= 2\^12, got d = 8192"):
                rates.matrix
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20


@st.composite
def _symmetric_masks(draw):
    d = draw(st.integers(1, 40))
    mask = np.zeros((d, d), dtype=bool)
    for i, j in draw(st.lists(st.tuples(st.integers(0, d - 1), st.integers(0, d - 1)), max_size=2 * d)):
        mask[i, j] = mask[j, i] = True
    return mask


@settings(max_examples=200, deadline=None)
@given(_symmetric_masks())
def test_blocks_equal_csgraph_on_random_masks(mask):
    # any graph as a one-site table: each edge of the mask is a coupled flip; a
    # self-loop is no flip (the table refuses i = j) and joins no two states
    rows, cols = np.nonzero(np.triu(mask, 1))
    ones = np.ones(rows.size, dtype=np.intp)
    d = mask.shape[0]
    elems = CouplingElements(rows=rows, cols=cols, sites=ones, n_sites=1,
                             spectrum=SpectralDecomposition(energies=np.arange(d, dtype=float), basis=np.arange(d)))
    assert structural_blocks(elems, BathConfig(temperature=1.0, kappas=(1.0,))) == csgraph_blocks(mask)


class TestLindbladSuperoperator:
    def test_shape_must_match_the_spectrum(self):
        with pytest.raises(ValidationError, match="superoperator shape does not match the spectrum dimension"):
            LindbladSuperoperator(matrix=np.zeros((4, 4)), energies=np.zeros(4))

    def test_capacity_guard_before_allocation(self):
        spec = ChainSpec(6, (1.0, 0.5, 0.25, 0.125, 0.0625, 0.03125))  # binary fields: no two levels meet
        dec = spectral_decomposition(build_hamiltonian(spec))
        cfg, elems = _elems(dec, (1.0,) * 6)
        with pytest.raises(CapacityError, match="N <= 5"):
            build_lindblad_superoperator(elems, cfg)

    def test_gibbs_annihilated(self, paper_dec, paper_superop):
        for temperature in (0.1, 1.0, 10.0):
            superop = paper_superop(kappas=(1.0, 1.0), temperature=temperature)
            rho = np.diag(gibbs_state(paper_dec, temperature).p).astype(complex)
            assert np.max(np.abs(superop.matrix @ vectorize(rho))) < 1e-10

    def test_infinite_temperature_fixed_point(self, paper_superop):
        superop = paper_superop(kappas=(1.0, 1.0), temperature=1e6)
        rho = np.eye(4, dtype=complex) / 4.0
        residual = np.max(np.abs(superop.matrix @ vectorize(rho)))
        assert residual < 1e-6 * np.max(np.abs(superop.matrix))

    def test_rhs_matches_direct_master_equation(self, paper_dec, paper_superop):
        # oracle: assemble the right-hand side by explicit matrix products
        temperature, kappas = 0.7, (0.4, 1.3)
        superop = paper_superop(kappas=kappas, temperature=temperature)
        cfg, elems = _elems(paper_dec, kappas, temperature)
        ops = build_jump_operators(elems)
        h = np.diag(paper_dec.energies)
        rng = np.random.default_rng(32)
        for _ in range(5):
            rho = random_density(rng, 4)
            rhs = -1j * (h @ rho - rho @ h)
            for op in ops:
                a = np.zeros((4, 4))
                for i, j in op.pairs:
                    a[i, j] = 1.0
                from spinbath import bose_einstein, spectral_density

                j_omega = spectral_density(cfg, op.site, op.omega)
                nbar = bose_einstein(op.omega, temperature)
                down = a.conj().T @ a
                rhs += j_omega * (1 + nbar) * (
                    a @ rho @ a.conj().T - 0.5 * (rho @ down + down @ rho)
                )
                up = a @ a.conj().T
                rhs += j_omega * nbar * (
                    a.conj().T @ rho @ a - 0.5 * (rho @ up + up @ rho)
                )
            got = unvectorize(superop.matrix @ vectorize(rho), 4)
            assert np.max(np.abs(got - rhs)) < 1e-12

    def test_population_block_equals_rate_matrix(self, paper_model, paper_superop):
        for kappas, temperature in (((1.0, 1.0), 1.0), ((1e-5, 1.0), 10.0), ((0.0, 1.0), 0.5)):
            _, rates = paper_model(kappas=kappas, temperature=temperature)
            superop = paper_superop(kappas=kappas, temperature=temperature)
            assert np.max(np.abs(superop.population_block() - rates.matrix)) < 1e-12

    def test_populations_structurally_closed(self, paper_superop):
        # population rows carry exactly zero weight on coherence columns
        superop = paper_superop(kappas=(1.0, 1.0), temperature=1.0)
        pop = superop.population_indices
        coh = np.setdiff1d(np.arange(16), pop)
        assert np.count_nonzero(superop.matrix[np.ix_(pop, coh)]) == 0

    def test_coherences_decay_exponentially(self, paper_dec, paper_superop):
        # with nondegenerate gaps each coherence only couples to itself
        superop = paper_superop(kappas=(1.0, 1.0), temperature=1.0)
        pop = superop.population_indices
        coh = np.setdiff1d(np.arange(16), pop)
        sub = superop.matrix[np.ix_(coh, coh)]
        assert np.count_nonzero(sub - np.diag(np.diagonal(sub))) == 0
        assert np.all(np.diagonal(sub).real <= 0)

    def test_zeros_scaling_structure_quick(self):
        from spinbath import count_structural_zeros, predicted_zero_count, random_nondegenerate_chain

        rng = np.random.default_rng(33)
        for n in (2, 3, 4):
            for _ in range(5):
                spec = random_nondegenerate_chain(n, rng)
                dec = spectral_decomposition(build_hamiltonian(spec))
                cfg, elems = _elems(dec, (1.0,) * n)
                rates = build_rate_matrix(elems, cfg)
                assert count_structural_zeros(rates.elems, rates.baths) == predicted_zero_count(n)


def _assert_oracle_populations_equal_rates(dec, kappas, temperature):
    assert check_degeneracy(dec).gaps_degenerate
    cfg, elems = _elems(dec, kappas, temperature)
    rates = build_rate_matrix(elems, cfg)
    superop = build_lindblad_superoperator(elems, cfg)
    pop = superop.population_indices
    coh = np.setdiff1d(np.arange(dec.dimension**2), pop)
    assert np.max(np.abs(superop.population_block() - rates.matrix)) <= 1e-12 * np.max(np.abs(rates.matrix))
    assert np.count_nonzero(superop.matrix[np.ix_(pop, coh)]) == 0
    assert np.count_nonzero(superop.matrix[np.ix_(coh, pop)]) == 0


@st.composite
def _colliding_chains(draw):
    """Nearest-neighbour chains, or all-pairs chains in which one site couples
    equally to two others; either way some flips of one site share a gap."""
    n = draw(st.integers(3, 4))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    fields = tuple(rng.uniform(0.5, 1.5, size=n))
    if draw(st.booleans()):
        couplings = [(a, a + 1, float(rng.uniform(-0.5, 0.5))) for a in range(1, n)]
    else:
        delta = {pair: float(rng.uniform(-0.5, 0.5)) for pair in combinations(range(1, n + 1), 2)}
        a, b, c = draw(st.permutations(range(1, n + 1)))[:3]
        delta[min(a, c), max(a, c)] = delta[min(a, b), max(a, b)]
        couplings = [(i, j, value) for (i, j), value in delta.items()]
    kappas = tuple(draw(st.sampled_from((1e-5, 0.3, 1.0))) for _ in range(n))
    temperature = draw(st.sampled_from((0.05, 1.0, 10.0)))
    return ChainSpec(n, fields, tuple(couplings)), kappas, temperature


@settings(max_examples=40, deadline=None)
@given(_colliding_chains())
def test_oracle_populations_equal_rates_when_gaps_collide(case):
    spec, kappas, temperature = case
    dec = spectral_decomposition(build_hamiltonian(spec))
    assume(check_degeneracy(dec).nondegenerate)
    _assert_oracle_populations_equal_rates(dec, kappas, temperature)


def test_oracle_populations_equal_rates_on_a_five_site_open_chain():
    couplings = ((1, 2, 0.131), (2, 3, 0.154), (3, 4, 0.092), (4, 5, -0.289))
    dec = spectral_decomposition(build_hamiltonian(ChainSpec(5, (0.592, 0.774, 0.952, 0.918, 1.043), couplings)))
    assert check_degeneracy(dec).nondegenerate
    _assert_oracle_populations_equal_rates(dec, (1e-5, 1.0, 0.3, 1.0, 0.3), 1.0)
