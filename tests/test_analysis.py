"""Blocks, scaling law, detailed-balance audit, sweeps, and the slope locator."""

from __future__ import annotations

import math
import re
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from spinbath import (
    BathConfig,
    ChainSpec,
    NumericalIntegrityError,
    build_rate_matrix,
    coupling_matrix_elements,
    decompose_chain,
    PopulationState,
    SweepResult,
    SpinbathError,
    ValidationError,
    bath_at,
    check_degeneracy,
    connectivity_blocks,
    count_structural_zeros,
    detailed_balance_audit,
    excitation_curves,
    locate_t_theta,
    predicted_zero_count,
    propagate_populations,
    random_nondegenerate_chain,
    restricted_gibbs_prediction,
    structural_blocks,
    sweep,
    zeros_scaling,
)
from spinbath import analysis, generator

from conftest import csgraph_blocks, dense_steady_vectors, steady_vectors, table_mask, value_edges


class TestConnectivityBlocks:
    def test_connected(self, paper_table):
        assert connectivity_blocks(*paper_table(kappas=(1.0, 1.0))).blocks == ((0, 1, 2, 3),)

    def test_decoupled_pairs(self, paper_table):
        assert connectivity_blocks(*paper_table(kappas=(0.0, 1.0))).blocks == ((0, 1), (2, 3))

    def test_fully_decoupled(self, paper_table):
        assert connectivity_blocks(*paper_table(kappas=(0.0, 0.0))).blocks == ((0,), (1,), (2,), (3,))

    def test_refuses_a_bath_that_does_not_match_the_table(self, paper_table):
        elems, _ = paper_table()
        with pytest.raises(ValidationError, match="bath has 3 sites but coupling elements cover 2"):
            connectivity_blocks(elems, BathConfig(temperature=1.0, kappas=(1.0,) * 3))

    def test_restricted_gibbs_vectors(self, paper_table):
        partition = connectivity_blocks(*paper_table(kappas=(0.0, 1.0), temperature=1.0))
        low = 1.0 / (1.0 + math.exp(-5 / 3))
        assert partition.weights[0] == pytest.approx([low, 1 - low], abs=1e-12)
        assert steady_vectors(partition)[0] == pytest.approx([low, 1 - low, 0, 0], abs=1e-12)


@pytest.mark.parametrize("kappas", [(0.0, 1.0, 7.0), (1.0,)])
def test_structure_refuses_a_kappa_count_other_than_the_tables(paper_table, kappas):
    # the blocks, the zero count and the pattern behind rates_mask.csv read the bath's
    # kappas by table site: a third kappa is not dropped, a missing one is no IndexError
    elems, _ = paper_table()
    baths = BathConfig(temperature=1.0, kappas=kappas)
    for consumer in (structural_blocks, count_structural_zeros, generator._structural_pattern):
        with pytest.raises(ValidationError, match=f"bath has {len(kappas)} sites but coupling elements cover 2"):
            consumer(elems, baths)


class TestZeroCounts:
    def test_formula_values(self):
        assert predicted_zero_count(1) == 0
        assert predicted_zero_count(2) == 4
        assert predicted_zero_count(3) == 32
        assert predicted_zero_count(4) == 176
        with pytest.raises(ValidationError, match="n_sites must be >= 1, got 0"):
            predicted_zero_count(0)

    def test_paper_model_counts(self, paper_model):
        _, rates = paper_model(kappas=(1.0, 1.0))
        assert count_structural_zeros(rates.elems, rates.baths) == 4
        _, blocked = paper_model(kappas=(0.0, 1.0))
        assert count_structural_zeros(blocked.elems, blocked.baths) == 8

    def test_blocked_mask_matches_enumeration(self, paper_model):
        # oracle: site-2 flips only connect |1><->|2| and |3><->|4>
        _, rates = paper_model(kappas=(0.0, 1.0))
        expected = np.zeros((4, 4), dtype=bool)
        for i, j in ((0, 1), (2, 3)):
            expected[i, j] = expected[j, i] = True
        expected |= np.diag(expected.any(axis=0))
        assert np.array_equal(table_mask(rates), expected)

    def test_random_three_site_count(self):
        rng = np.random.default_rng(51)
        rows = zeros_scaling(3, 5, rng)
        assert rows == [(2, 4, 4), (3, 32, 32)]

    @pytest.mark.parametrize("max_n, draws", [(3, 0), (3, -1), (1, 5), (0, 5)])
    def test_scaling_refuses_an_empty_table(self, max_n, draws):
        # no draws, or no N >= 2: there is nothing to count
        with pytest.raises(ValidationError, match="zeros scaling needs max_n >= 2 and draws >= 1"):
            zeros_scaling(max_n, draws, np.random.default_rng(0))

    def test_scaling_refuses_counts_that_vary_across_draws(self, monkeypatch):
        # every draw of a nondegenerate chain gives the law's count, so only a broken
        # counter can disagree with itself
        counts = iter([4, 5])
        monkeypatch.setattr(analysis, "count_structural_zeros", lambda elems, baths: next(counts))
        with pytest.raises(SpinbathError, match=re.escape("structural zero count varies across draws for N = 2: {4, 5}")):
            zeros_scaling(2, 2, np.random.default_rng(0))

    def test_scaling_reuses_the_accepted_decompositions(self, monkeypatch):
        built = []
        decompose = analysis.decompose_chain
        monkeypatch.setattr(
            analysis, "decompose_chain", lambda spec: built.append(decompose(spec)) or built[-1]
        )
        drawing, scaling = np.random.default_rng(12), np.random.default_rng(12)
        specs = [random_nondegenerate_chain(n, drawing) for n in (2, 3, 4) for _ in range(3)]
        candidates = len(built)
        built.clear()
        zeros_scaling(4, 3, scaling)
        # the same draws, each decomposed once: the rate builds reuse the accepted ones
        assert len(built) == candidates
        assert drawing.random() == scaling.random()
        accepted = [dec for dec in built if check_degeneracy(dec).nondegenerate]
        assert [dec.dimension for dec in accepted] == [spec.dimension for spec in specs]


@st.composite
def _tables(draw):
    n = draw(st.integers(1, 6))
    spec = random_nondegenerate_chain(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    # five times stronger couplings make glassy landscapes with several local minima
    scale = draw(st.sampled_from([1.0, 5.0]))
    spec = replace(spec, couplings=tuple((a, b, scale * delta) for a, b, delta in spec.couplings))
    assume(check_degeneracy(decompose_chain(spec)).nondegenerate)
    kappas = tuple(draw(st.lists(st.sampled_from([0.0, 1e-5, 1.0]), min_size=n, max_size=n)))
    return spec, BathConfig(temperature=draw(st.sampled_from([0.0, 0.05, 1.0, 10.0])), kappas=kappas)


@settings(max_examples=80, deadline=None)
@given(_tables())
def test_structural_zero_count_matches_the_built_rate_matrix(table):
    # the zeros of the values, at a temperature where no occupation underflows: the
    # structure does not depend on T, while at T = 0 a state with no downhill flip
    # has a zero diagonal entry
    spec, baths = table
    dec = decompose_chain(spec)
    elems = coupling_matrix_elements(baths, dec)
    rates = build_rate_matrix(elems, baths)
    hot = build_rate_matrix(elems, replace(baths, temperature=10.0))
    assert count_structural_zeros(rates.elems, rates.baths) == hot.matrix.size - np.count_nonzero(hot.matrix)


@settings(max_examples=80, deadline=None)
@given(_tables())
def test_blocks_equal_csgraph_on_random_chains(table):
    spec, baths = table
    dec = decompose_chain(spec)
    elems = coupling_matrix_elements(baths, dec)
    rates = build_rate_matrix(elems, baths)
    # the bare structure: at T = 0 connectivity_blocks refuses a glassy block, this does not
    assert structural_blocks(elems, baths) == csgraph_blocks(value_edges(rates))


@settings(max_examples=120, deadline=None)
@given(_tables())
# at T = 0 one local minimum and two local maxima, then the converse: a rule that
# counted uphill flips in place of downhill ones would swap the two verdicts
@example((ChainSpec(3, (0.61, 1.13, 0.88), ((1, 2, 1.13), (1, 3, 0.77), (2, 3, -0.34))),
          BathConfig(temperature=0.0, kappas=(1.0, 1.0, 1.0))))
@example((ChainSpec(3, (1.2, 0.63, 0.88), ((1, 2, -0.4), (1, 3, 0.82), (2, 3, -0.22))),
          BathConfig(temperature=0.0, kappas=(1.0, 1.0, 1.0))))
def test_table_steady_states_equal_the_dense_path(table):
    """Steady vectors from the transition table's block partition equal, bit for
    bit, those of the dense path on the built rate matrix, and at T = 0 both
    refuse or both accept."""
    spec, baths = table
    dec = decompose_chain(spec)
    elems = coupling_matrix_elements(baths, dec)
    expected = dense_steady_vectors(build_rate_matrix(elems, baths))
    if expected is None:
        with pytest.raises(NumericalIntegrityError, match="kernel dimension"):
            connectivity_blocks(elems, baths)
        return
    partition = connectivity_blocks(elems, baths)
    states = steady_vectors(partition)
    assert len(states) == len(partition.blocks) == len(expected)
    for state, block, weights, oracle in zip(states, partition.blocks, partition.weights, expected):
        assert np.array_equal(state, oracle)
        assert np.array_equal(weights, oracle[list(block)])


@st.composite
def _relabelled_tables(draw):
    """(spec, baths, perm): a table of the detailed-balance and relabelling
    properties, and a relabelling that moves site n to site perm[n - 1] + 1."""
    n = draw(st.integers(1, 6))
    spec = random_nondegenerate_chain(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    kappas = tuple(draw(st.lists(st.sampled_from([0.0, 1e-5, 1.0]), min_size=n, max_size=n)))
    baths = BathConfig(temperature=draw(st.sampled_from([0.05, 1.0, 10.0])), kappas=kappas)
    return spec, baths, draw(st.permutations(range(n)))


@settings(max_examples=60, deadline=None)
@given(_relabelled_tables())
def test_built_rates_obey_detailed_balance(case):
    spec, baths, _ = case
    dec = decompose_chain(spec)
    assert detailed_balance_audit(build_rate_matrix(coupling_matrix_elements(baths, dec), baths)) < 1e-10


def _relabelled(spec: ChainSpec, baths: BathConfig, perm) -> tuple[ChainSpec, BathConfig]:
    """The same chain and baths with site n renamed perm[n - 1] + 1."""
    source = np.argsort(perm)  # the old index of each new site

    def moved(values):
        return tuple(values[i] for i in source)

    couplings = tuple((*sorted((perm[a - 1] + 1, perm[b - 1] + 1)), delta) for a, b, delta in spec.couplings)
    return (ChainSpec(spec.n_sites, moved(spec.fields), couplings),
            BathConfig(temperature=baths.temperature, kappas=moved(baths.kappas)))


@settings(max_examples=60, deadline=None)
@given(_relabelled_tables())
def test_site_relabelling_permutes_the_states(case):
    """Renaming the sites permutes the basis states and changes nothing else: the
    spectrum, the zero count, the block sizes, and Lambda up to that permutation."""
    spec, baths, perm = case
    n = spec.n_sites
    models = []
    for chain, bath in (case[:2], _relabelled(spec, baths, perm)):
        dec = decompose_chain(chain)
        elems = coupling_matrix_elements(bath, dec)
        models.append((dec, build_rate_matrix(elems, bath), connectivity_blocks(elems, bath)))
    (dec, rates, blocks), (moved_dec, moved_rates, moved_blocks) = models
    # level k is basis state dec.basis[k]; site m's bit (2^(N - m)) moves to site perm[m - 1] + 1
    bits = [(dec.basis >> (n - m)) & 1 for m in range(1, n + 1)]
    state = sum(bit << (n - 1 - perm[m]) for m, bit in enumerate(bits))
    level = np.argsort(moved_dec.basis)[state]
    assert sorted(level.tolist()) == list(range(dec.dimension))
    scale = np.max(np.abs(dec.energies))
    assert np.max(np.abs(moved_dec.energies - dec.energies)) <= 1e-12 * scale
    assert np.max(np.abs(moved_dec.energies[level] - dec.energies)) <= 1e-12 * scale
    assert count_structural_zeros(moved_rates.elems, moved_rates.baths) == count_structural_zeros(rates.elems, rates.baths)
    assert sorted(map(len, moved_blocks.blocks)) == sorted(map(len, blocks.blocks))
    moved_matrix = moved_rates.matrix[np.ix_(level, level)]
    assert np.max(np.abs(moved_matrix - rates.matrix)) <= 1e-12 * np.max(np.abs(rates.matrix), initial=0.0)


class TestDetailedBalanceAudit:
    def test_built_matrix_passes(self, paper_dec, paper_model):
        _, rates = paper_model(kappas=(1.0, 1.0), temperature=1.0)
        assert detailed_balance_audit(rates) < 1e-10

    def test_corrupted_rate_detected(self, paper_dec, paper_model):
        _, rates = paper_model(kappas=(1.0, 1.0), temperature=1.0)
        damping = rates.damping.copy()
        damping[(rates.elems.rows == 0) & (rates.elems.cols == 2)] *= 1.01
        broken = replace(rates, damping=damping)
        deviation = detailed_balance_audit(broken)
        assert deviation == pytest.approx(1 - 1 / 1.01, rel=1e-6)

    def test_high_temperature_expansion_regime(self, paper_dec, paper_model):
        _, rates = paper_model(kappas=(1.0, 1.0), temperature=1e6)
        assert detailed_balance_audit(rates) < 1e-10

    def test_requires_positive_temperature(self, paper_dec, paper_model):
        _, rates = paper_model()
        with pytest.raises(ValidationError):
            detailed_balance_audit(replace(rates, baths=replace(rates.baths, temperature=0.0)))


class TestRestrictedGibbsPrediction:
    def test_blocked_from_third_state(self, paper_table):
        blocks = connectivity_blocks(*paper_table(kappas=(0.0, 1.0), temperature=1.0))
        pred = restricted_gibbs_prediction(blocks, PopulationState.basis(4, 2))
        p3 = 1.0 / (1.0 + math.exp(-1 / 3))
        assert pred.p == pytest.approx([0.0, 0.0, p3, 1 - p3], abs=1e-12)
        assert p3 == pytest.approx(0.5826, abs=1e-4)

    def test_connected_gives_global_gibbs(self, paper_dec, paper_table):
        blocks = connectivity_blocks(*paper_table(kappas=(1.0, 1.0), temperature=0.7))
        from spinbath import gibbs_state

        pred = restricted_gibbs_prediction(blocks, PopulationState.uniform(4))
        assert np.max(np.abs(pred.p - gibbs_state(paper_dec, 0.7).p)) < 1e-12

    def test_ground_start_two_level_form(self, paper_table):
        blocks = connectivity_blocks(*paper_table(kappas=(0.0, 1.0), temperature=10.0))
        pred = restricted_gibbs_prediction(blocks, PopulationState.basis(4, 0))
        nbar = 1.0 / math.expm1((5 / 3) / 10.0)
        assert pred.p[1] == pytest.approx(nbar / (2 * nbar + 1), rel=1e-12)
        assert pred.p[2] == pred.p[3] == 0.0

    @pytest.mark.parametrize("start, late", [(2, [0.0, 1.0]), (5, [0.267139, 0.732861])])
    def test_glassy_chain_at_zero_temperature_is_refused(self, start, late):
        # one block with two absorbing minima at T = 0: where the weight ends up
        # depends on the start, not only on the block's weight, so no prediction
        spec = ChainSpec(3, (0.251, 0.252, 0.179), ((1, 2, -1.229), (2, 3, -1.368), (1, 3, -1.17)))
        baths = BathConfig(temperature=0.0, kappas=(1.0, 1.0, 1.0))
        dec = decompose_chain(spec)
        elems = coupling_matrix_elements(baths, dec)
        p0 = PopulationState.basis(8, start - 1)
        trajectory = propagate_populations(build_rate_matrix(elems, baths), p0, [0.0, 1e3])
        assert trajectory.populations[-1] == pytest.approx(late + [0.0] * 6, abs=1e-6)
        with pytest.raises(NumericalIntegrityError, match="kernel dimension 2"):
            restricted_gibbs_prediction(connectivity_blocks(elems, baths), p0)

    def test_initial_state_must_match_the_blocks(self, paper_table):
        blocks = connectivity_blocks(*paper_table(kappas=(0.0, 1.0), temperature=1.0))
        with pytest.raises(ValidationError, match="initial state dimension does not match the blocks"):
            restricted_gibbs_prediction(blocks, PopulationState.uniform(8))

    def test_block_weights_conserved(self, paper_table):
        rng = np.random.default_rng(52)
        blocks = connectivity_blocks(*paper_table(kappas=(0.0, 1.0), temperature=2.0))
        for _ in range(10):
            p0 = PopulationState(rng.dirichlet(np.ones(4)))
            pred = restricted_gibbs_prediction(blocks, p0)
            for block in blocks.blocks:
                idx = np.asarray(block)
                assert pred.p[idx].sum() == pytest.approx(p0.p[idx].sum(), abs=1e-12)


GRID_RULE = "must be a non-empty 1-D array, nonnegative, finite and strictly increasing"


def _paper_sweep(paper_table, kappas, temperature, axis, grid, t_star, site=None, p0=None):
    """A sweep of the paper chain from the ground state (or p0)."""
    p0 = PopulationState.basis(4, 0) if p0 is None else p0
    return sweep(*paper_table(kappas=kappas, temperature=temperature), axis, grid, t_star, p0, site)


class TestSweeps:
    def test_temperature_sweep_thermal_ceiling(self, paper_table):
        result = _paper_sweep(paper_table, (1e-5, 1.0), 1.0, "temperature", np.geomspace(0.1, 10, 25), 10.0)
        assert result.axis == "temperature" and result.errors == {}
        assert np.all(np.diff(result.values) > 0)
        assert result.values.max() < 0.5

    def test_coupling_sweep_crosses_half(self, paper_table):
        result = _paper_sweep(paper_table, (1e-5, 1.0), 10.0, "kappa", np.geomspace(1e-3, 1, 25), 10.0, site=1)
        assert result.axis == "kappa" and result.errors == {}
        assert result.values[-1] > 0.5
        assert np.all(np.diff(result.values) > -1e-12)

    def test_symmetric_high_temperature_approaches_uniform(self, paper_table):
        result = _paper_sweep(paper_table, (1.0, 1.0), 1.0, "temperature", np.geomspace(1, 1e4, 9), 10.0)
        assert result.values[-1] == pytest.approx(0.75, abs=1e-3)

    def test_per_point_failures_recorded(self, paper_table, monkeypatch):
        build = analysis.build_rate_matrices

        def refuse_first(elems, variants):
            built = build(elems, variants)
            return [ValidationError("refused") if bath.kappas[0] == 0.05 else rates
                    for bath, rates in zip(variants, built)]

        monkeypatch.setattr(analysis, "build_rate_matrices", refuse_first)
        result = _paper_sweep(paper_table, (1e-5, 1.0), 10.0, "kappa", np.array([0.05, 0.1]), 10.0, site=1)
        assert result.errors == {0: "ValidationError: refused"}
        assert np.isnan(result.values[0]) and not np.isnan(result.values[1])

    def test_non_finite_excitation_is_a_failed_point(self, paper_table):
        # rates of order 1e200 overflow the exponential; the snapshot check refuses it without a warning
        result = _paper_sweep(paper_table, (1.0, 1.0), 1.0, "kappa", np.array([1.0, 1e200]), 1.0, site=1)
        assert list(result.errors) == [1] and "NumericalIntegrityError" in result.errors[1]
        assert np.isnan(result.values[1]) and np.isfinite(result.values[0])

    def test_overflowing_rates_are_a_failed_point(self, paper_table):
        result = _paper_sweep(paper_table, (1.0, 1.0), 1.0, "kappa", np.array([1.0, 1e308]), 1.0, site=1)
        assert list(result.errors) == [1]
        assert result.errors[1].startswith("NumericalIntegrityError: non-finite rates")
        assert np.isnan(result.values[1]) and np.isfinite(result.values[0])

    def test_inaccurate_exponentials_are_failed_points(self, paper_table):
        # from kappa_1 = 1e9 on, scaling and squaring drifts the norm of the state at t* past DRIFT_TOL
        # (to -1.09 in P_exc at 1e15); each point fails the snapshot check with its reason
        grid = np.geomspace(1e9, 1e17, 5)
        result = _paper_sweep(paper_table, (1e-5, 1.0), 10.0, "kappa", grid, 10.0, site=1)
        assert sorted(result.errors) == [0, 1, 2, 3, 4] and np.all(np.isnan(result.values))
        assert all(result.errors[k].startswith("NumericalIntegrityError: normalisation drift") for k in range(4))
        assert result.errors[4] == "NumericalIntegrityError: non-finite population at t = 10"

    @pytest.mark.parametrize("axis, site, message", [
        ("field", 1, "unknown sweep axis 'field'"),
        ("kappa", None, "site None out of range 1..2"),
        ("kappa", 3, "site 3 out of range 1..2"),
        ("kappa", 1.5, "site 1.5 out of range 1..2"),
        ("kappa", True, "site True out of range 1..2"),
        ("temperature", 1, "a temperature sweep takes no site"),
    ])
    def test_bad_axis_or_site_refused_before_the_loop(self, axis, site, message, paper_table, monkeypatch):
        def refuse(*args):
            raise AssertionError("no rates are built for a refused sweep")

        monkeypatch.setattr(analysis, "build_rate_matrices", refuse)
        with pytest.raises(ValidationError, match=re.escape(message)):
            _paper_sweep(paper_table, (1.0, 1.0), 1.0, axis, [0.5, 1.0], 10.0, site=site)

    @pytest.mark.parametrize("axis, grid, site", [
        ("temperature", [0.5, 1.0, 1.0], None),
        ("kappa", [1.0, 0.5, 0.25], 1),
        ("temperature", [[0.5, 1.0]], None),
        ("kappa", [-1.0, 0.1], 1),
        ("temperature", [0.5, math.nan], None),
        ("temperature", [0.5, math.inf], None),
        ("temperature", [], None),
    ])
    def test_bad_grid_refused_before_the_loop(self, axis, grid, site, paper_table, monkeypatch):
        def refuse(*args):
            raise AssertionError("no rates are built for a refused sweep")

        monkeypatch.setattr(analysis, "build_rate_matrices", refuse)
        with pytest.raises(ValidationError, match=re.escape("sweep grid " + GRID_RULE)):
            _paper_sweep(paper_table, (1.0, 1.0), 1.0, axis, grid, 10.0, site=site)

    @pytest.mark.parametrize("change, message", [
        ({"axis": "field", "site": 1}, "unknown sweep axis 'field'"),
        ({"axis": "kappa"}, "site None out of range 1..2"),
        ({"axis": "kappa", "site": 1.5}, "site 1.5 out of range 1..2"),
        ({"site": 1}, "a temperature sweep takes no site"),
        ({"times": [0.0, 1.0, 1.0]}, "time grid " + GRID_RULE),
        ({"axis": "kappa", "times": [[0.0, 1.0]], "site": 1}, "time grid " + GRID_RULE),
        ({"times": [0.0, math.nan]}, "time grid " + GRID_RULE),
        ({"points": []}, "excitation curves need at least one bath variant"),
        ({"p0": PopulationState.basis(8, 0)}, "initial state dimension does not match the spectrum"),
        ({"baths": BathConfig(temperature=1.0, kappas=(1.0,) * 3)}, "bath has 3 sites but coupling elements cover 2"),
    ])
    def test_bad_curves_refused_before_the_loop(self, change, message, paper_table, monkeypatch):
        def refuse(*args):
            raise AssertionError("no rates are built for refused curves")

        monkeypatch.setattr(analysis, "build_rate_matrices", refuse)
        elems, baths = paper_table(kappas=(1.0, 1.0), temperature=1.0)
        call = {"baths": baths, "axis": "temperature", "points": [0.5, 1.0], "times": [0.0, 1.0],
                "p0": PopulationState.basis(4, 0), "site": None, **change}
        with pytest.raises(ValidationError, match=re.escape(message)):
            excitation_curves(elems, **call)

    @pytest.mark.parametrize("baths, axis, grid, site, message", [
        (BathConfig(temperature=10.0, kappas=(1e-5, 1.0, 1.0)), "kappa",
         np.geomspace(1e-3, 1, 5), 1, "bath has 3 sites but coupling elements cover 2"),
    ])
    def test_mismatched_bath_refused_before_the_loop(self, baths, axis, grid, site, message, paper_table,
                                                     monkeypatch):
        # one refusal, not a failed point per grid value
        def refuse(*args):
            raise AssertionError("no rates are built for a refused sweep")

        monkeypatch.setattr(analysis, "build_rate_matrices", refuse)
        elems, _ = paper_table(kappas=(1e-5, 1.0))
        with pytest.raises(ValidationError, match=re.escape(message)):
            sweep(elems, baths, axis, grid, 10.0, PopulationState.basis(4, 0), site)

    def test_excitation_curves_are_one_trajectory_per_bath_variant(self, paper_table):
        elems, baths = paper_table(kappas=(1e-5, 1.0), temperature=10.0)
        times, p0 = np.linspace(0.0, 10.0, 11), PopulationState.basis(4, 0)
        columns = excitation_curves(elems, baths, "kappa", [1e-3, 1.0], times, p0, site=1)
        assert columns.shape == (11, 2)
        for k, value in enumerate([1e-3, 1.0]):
            rates = build_rate_matrix(elems, bath_at(baths, "kappa", value, 1))
            expected = 1.0 - propagate_populations(rates, p0, times).populations[:, 0]
            assert columns[:, k].tobytes() == expected.tobytes()
        with pytest.raises(NumericalIntegrityError, match="non-finite rates"):  # refused, not recorded
            excitation_curves(elems, baths, "kappa", [1.0, 1e308], times, p0, site=1)

    def test_bath_at_sets_one_axis(self):
        baths = BathConfig(temperature=10.0, kappas=(1e-5, 1.0))
        assert bath_at(baths, "temperature", 0.3) == replace(baths, temperature=0.3)
        assert bath_at(baths, "kappa", 0.5, site=2) == replace(baths, kappas=(1e-5, 0.5))
        assert bath_at(baths, "kappa", 0.5, site=np.int64(2)) == replace(baths, kappas=(1e-5, 0.5))
        for axis, site in (("field", 1), ("kappa", None), ("kappa", 3), ("temperature", 1)):
            with pytest.raises(ValidationError):
                bath_at(baths, axis, 0.5, site)

    @pytest.mark.parametrize("t_star", [0.0, -1.0, math.nan, math.inf])
    def test_invalid_t_star(self, t_star, paper_table, monkeypatch):
        # refused once, not a failed point per grid value
        def refuse(*args):
            raise AssertionError("no rates are built for a refused sweep")

        monkeypatch.setattr(analysis, "build_rate_matrices", refuse)
        with pytest.raises(ValidationError, match=f"t_star must be positive and finite, got {t_star}"):
            _paper_sweep(paper_table, (1.0, 1.0), 1.0, "temperature", np.geomspace(0.1, 1, 5), t_star)

    def test_initial_state_must_match_the_spectrum(self, paper_table):
        with pytest.raises(ValidationError, match="dimension"):
            _paper_sweep(paper_table, (1.0, 1.0), 1.0, "temperature", [0.5, 1.0], 10.0,
                         p0=[0.5, 0.5] + [0.0] * 6)


SWEEP_TEMPERATURES = (0.0, 0.05, 1.0, 10.0)
SWEEP_KAPPAS = (0.0, 1e-5, 1.0, 1e9, 1e13, 1e17)


@st.composite
def _sweeps(draw):
    """(dec, elems, baths, axis, grid, t_star, p0, site): a sweep of a random chain
    of up to four sites, where kappa up to 1e17 drives the exponential into overflow."""
    n = draw(st.integers(1, 4))
    spec = random_nondegenerate_chain(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    baths = BathConfig(
        temperature=draw(st.sampled_from(SWEEP_TEMPERATURES)),
        kappas=tuple(draw(st.lists(st.sampled_from(SWEEP_KAPPAS), min_size=n, max_size=n))),
    )
    dec = decompose_chain(spec)
    axis = draw(st.sampled_from(["temperature", "kappa"]))
    site = None if axis == "temperature" else draw(st.integers(1, n))
    values = SWEEP_TEMPERATURES if axis == "temperature" else SWEEP_KAPPAS
    grid = sorted(draw(st.sets(st.sampled_from(values), min_size=1)))
    p0 = PopulationState.basis(dec.dimension, draw(st.integers(0, dec.dimension - 1)))
    t_star = draw(st.sampled_from([0.1, 1.0, 10.0]))
    return dec, coupling_matrix_elements(baths, dec), baths, axis, grid, t_star, p0, site


@settings(max_examples=80, deadline=None)
@given(_sweeps())
def test_sweep_points_equal_one_snapshot_trajectories(case):
    """Every sweep point is, bit for bit, the one-snapshot trajectory at t* of
    its bath, and it fails exactly when that trajectory is refused, with the
    same message."""
    dec, elems, baths, axis, grid, t_star, p0, site = case
    result = sweep(elems, baths, axis, grid, t_star, p0, site)
    for k, value in enumerate(grid):
        try:
            traj = propagate_populations(build_rate_matrix(elems, bath_at(baths, axis, value, site)),
                                         p0, [t_star])
        except SpinbathError as exc:
            assert result.errors[k] == f"{type(exc).__name__}: {exc}"
            assert np.isnan(result.values[k])
        else:
            assert k not in result.errors
            assert result.values[k] == 1 - traj.populations[0, 0]


class TestLocateTTheta:
    def test_paper_regime_bracket(self, paper_table):
        result = _paper_sweep(paper_table, (1e-5, 1.0), 1.0, "temperature", np.geomspace(0.1, 10, 25), 10.0)
        assert 0.5 <= locate_t_theta(result) <= 2.0

    def test_matches_closed_form_two_level_curve(self):
        # analytic P_exc(t*) of the isolated {|1>,|2>} pair, gap 5/3
        grid = np.geomspace(0.1, 10, 25)
        omega, t_star = 5 / 3, 10.0

        def analytic(temperature):
            nbar = 1.0 / math.expm1(omega / temperature)
            return nbar / (2 * nbar + 1) * -math.expm1(-omega * (2 * nbar + 1) * t_star)

        values = np.array([analytic(t) for t in grid])
        sweep = SweepResult(axis="temperature", grid=grid, values=values)
        slopes = [
            (values[k + 1] - values[k - 1]) / (grid[k + 1] - grid[k - 1])
            for k in range(1, 24)
        ]
        expected = grid[1 + int(np.argmax(slopes))]
        assert locate_t_theta(sweep) == expected

    def test_flat_curve_rejected(self):
        grid = np.geomspace(0.1, 10, 5)
        sweep = SweepResult(axis="temperature", grid=grid, values=np.zeros(5))
        with pytest.raises(ValidationError, match="variation"):
            locate_t_theta(sweep)

    def test_needs_enough_points_and_right_axis(self):
        sweep = SweepResult(axis="temperature", grid=np.array([1.0, 2.0]), values=np.array([0.1, 0.2]))
        with pytest.raises(ValidationError):
            locate_t_theta(sweep)
        kappa_sweep = SweepResult(axis="kappa", grid=np.array([1.0, 2.0, 3.0]), values=np.array([0.1, 0.2, 0.3]))
        with pytest.raises(ValidationError):
            locate_t_theta(kappa_sweep)

    def test_ties_resolve_toward_lower_temperature_on_an_increasing_grid_only(self):
        # equal slopes 0.125 at T = 2 and T = 5: the lower one is located, and the same
        # points listed from the top, which would locate 5, are refused as a sweep
        grid, values = np.array([1.0, 2.0, 5.0, 6.0]), np.array([0.0, 0.25, 0.5, 0.75])
        assert locate_t_theta(SweepResult(axis="temperature", grid=grid, values=values)) == 2.0
        with pytest.raises(ValidationError, match=re.escape("sweep grid " + GRID_RULE)):
            SweepResult(axis="temperature", grid=grid[::-1], values=values[::-1])

    @pytest.mark.parametrize("values, errors, message", [
        ([0.5, 0.6, 0.7], {5: "x"}, "sweep errors must be keyed by grid indices 0..2"),
        ([0.5, 0.6, 0.7], {-1: "x"}, "sweep errors must be keyed by grid indices 0..2"),
        ([0.5, 0.6, 0.7], {"1": "x"}, "sweep errors must be keyed by grid indices 0..2"),
        ([0.5, math.nan, 0.7], {True: "x"}, "sweep errors must be keyed by grid indices 0..2"),
        # a failed point whose value is finite would pass locate_t_theta's nan guard
        ([0.5, 0.6, 0.7], {1: "failed"}, "a sweep value must be nan exactly at its failed points"),
        ([0.5, math.nan, 0.7], {}, "a sweep value must be nan exactly at its failed points"),
        ([0.5, 0.6], {}, "sweep values must match the grid"),
        ([[0.5, 0.6, 0.7]], {}, "sweep values must match the grid"),
    ])
    def test_failed_points_are_the_nan_values(self, values, errors, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            SweepResult(axis="temperature", grid=[1.0, 2.0, 3.0], values=values, errors=errors)

    def test_failed_points_refused(self):
        failed = SweepResult(axis="temperature", grid=[1.0, 2.0, 3.0], values=[0.5, math.nan, 0.7],
                             errors={np.int64(1): "failed"})
        with pytest.raises(ValidationError, match="failed points"):
            locate_t_theta(failed)


class TestRandomChains:
    def test_draws_are_nondegenerate_and_seeded(self):
        from spinbath import build_hamiltonian, check_degeneracy, spectral_decomposition

        a = random_nondegenerate_chain(3, np.random.default_rng(7))
        b = random_nondegenerate_chain(3, np.random.default_rng(7))
        assert a == b
        dec = spectral_decomposition(build_hamiltonian(a))
        assert check_degeneracy(dec).nondegenerate

    def test_draws_give_up_after_the_limit(self, monkeypatch):
        # no practical draw is refused MAX_CHAIN_DRAWS times: every candidate is made degenerate
        monkeypatch.setattr(analysis, "MAX_CHAIN_DRAWS", 3)
        monkeypatch.setattr(analysis, "_close_levels", lambda energies: np.array([0]))
        rng = np.random.default_rng(0)
        with pytest.raises(SpinbathError, match="failed to draw a nondegenerate 2-site chain in 3 attempts"):
            random_nondegenerate_chain(2, rng)
        # three candidates were drawn: two fields and one coupling each
        assert rng.random() == np.random.default_rng(0).uniform(size=10)[9]

    def test_all_pairs_couplings_present(self):
        spec = random_nondegenerate_chain(4, np.random.default_rng(8))
        assert len(spec.couplings) == 6
