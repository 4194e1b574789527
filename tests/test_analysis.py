"""Blocks, scaling law, detailed-balance audit, sweeps, and the slope locator."""

from __future__ import annotations

import math
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
    ValidationError,
    bath_at,
    check_degeneracy,
    connectivity_blocks,
    count_structural_zeros,
    detailed_balance_audit,
    locate_t_theta,
    predicted_zero_count,
    random_nondegenerate_chain,
    restricted_gibbs_prediction,
    steady_states,
    sweep_coupling,
    sweep_temperature,
    zeros_scaling,
)
from spinbath import analysis

from conftest import csgraph_blocks, dense_steady_vectors


class TestConnectivityBlocks:
    def test_connected(self, paper_table):
        assert connectivity_blocks(*paper_table(kappas=(1.0, 1.0))).blocks == ((0, 1, 2, 3),)

    def test_decoupled_pairs(self, paper_table):
        assert connectivity_blocks(*paper_table(kappas=(0.0, 1.0))).blocks == ((0, 1), (2, 3))

    def test_fully_decoupled(self, paper_table):
        assert connectivity_blocks(*paper_table(kappas=(0.0, 0.0))).blocks == ((0,), (1,), (2,), (3,))

    def test_restricted_gibbs_vectors(self, paper_table):
        partition = connectivity_blocks(*paper_table(kappas=(0.0, 1.0), temperature=1.0))
        low = 1.0 / (1.0 + math.exp(-5 / 3))
        assert partition.restricted_gibbs[0] == pytest.approx([low, 1 - low, 0, 0], abs=1e-12)


class TestZeroCounts:
    def test_formula_values(self):
        assert predicted_zero_count(1) == 0
        assert predicted_zero_count(2) == 4
        assert predicted_zero_count(3) == 32
        assert predicted_zero_count(4) == 176

    def test_paper_model_counts(self, paper_model):
        _, _, rates = paper_model(kappas=(1.0, 1.0))
        assert count_structural_zeros(rates) == 4
        _, _, blocked = paper_model(kappas=(0.0, 1.0))
        assert count_structural_zeros(blocked) == 8

    def test_blocked_mask_matches_enumeration(self, paper_model):
        # oracle: site-2 flips only connect |1><->|2| and |3><->|4>
        _, _, rates = paper_model(kappas=(0.0, 1.0))
        expected = np.zeros((4, 4), dtype=bool)
        for i, j in ((0, 1), (2, 3)):
            expected[i, j] = expected[j, i] = True
        expected |= np.diag(expected.any(axis=0))
        assert np.array_equal(rates.nonzero_mask, expected)

    def test_random_three_site_count(self):
        rng = np.random.default_rng(51)
        rows = zeros_scaling(3, 5, rng, min_n=3)
        assert rows == [(3, 32, 32)]

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
    axes = tuple(draw(st.lists(st.sampled_from("xyz"), min_size=n, max_size=n)))
    return spec, BathConfig(temperature=draw(st.sampled_from([0.0, 0.05, 1.0, 10.0])), kappas=kappas, axes=axes)


@settings(max_examples=80, deadline=None)
@given(_tables())
def test_table_zero_count_matches_the_built_rate_matrix(table):
    spec, baths = table
    dec = decompose_chain(spec)
    elems = coupling_matrix_elements(baths, dec)
    rates = build_rate_matrix(dec, elems, baths)
    assert analysis._table_zero_count(elems, baths.kappas) == count_structural_zeros(rates)


@settings(max_examples=80, deadline=None)
@given(_tables())
def test_blocks_equal_csgraph_on_random_chains(table):
    spec, baths = table
    dec = decompose_chain(spec)
    elems = coupling_matrix_elements(baths, dec)
    rates = build_rate_matrix(dec, elems, baths)
    assert connectivity_blocks(dec, elems, baths).blocks == csgraph_blocks(rates.nonzero_mask)


@settings(max_examples=120, deadline=None)
@given(_tables())
# at T = 0 one local minimum and two local maxima, then the converse: a rule that
# counted uphill flips in place of downhill ones would swap the two verdicts
@example((ChainSpec(3, (0.61, 1.13, 0.88), ((1, 2, 1.13), (1, 3, 0.77), (2, 3, -0.34))),
          BathConfig(temperature=0.0, kappas=(1.0, 1.0, 1.0))))
@example((ChainSpec(3, (1.2, 0.63, 0.88), ((1, 2, -0.4), (1, 3, 0.82), (2, 3, -0.22))),
          BathConfig(temperature=0.0, kappas=(1.0, 1.0, 1.0))))
def test_table_steady_states_equal_the_dense_path(table):
    """Steady vectors from the transition table equal, bit for bit, those of the
    dense path on the built rate matrix, and at T = 0 both refuse or both accept."""
    spec, baths = table
    dec = decompose_chain(spec)
    elems = coupling_matrix_elements(baths, dec)
    expected = dense_steady_vectors(build_rate_matrix(dec, elems, baths))
    if expected is None:
        with pytest.raises(NumericalIntegrityError, match="kernel dimension"):
            steady_states(dec, elems, baths)
        return
    states = steady_states(dec, elems, baths)
    gibbs = connectivity_blocks(dec, elems, baths).restricted_gibbs
    assert len(states) == len(gibbs) == len(expected)
    for state, vector, oracle in zip(states, gibbs, expected):
        assert np.array_equal(state.p, oracle)
        assert np.array_equal(vector, oracle)


class TestDetailedBalanceAudit:
    def test_built_matrix_passes(self, paper_dec, paper_model):
        _, _, rates = paper_model(kappas=(1.0, 1.0), temperature=1.0)
        assert detailed_balance_audit(rates) < 1e-10

    def test_corrupted_rate_detected(self, paper_dec, paper_model):
        _, _, rates = paper_model(kappas=(1.0, 1.0), temperature=1.0)
        corrupted = rates.matrix.copy()
        corrupted[0, 2] *= 1.01
        broken = replace(rates, matrix=corrupted)
        deviation = detailed_balance_audit(broken)
        assert deviation == pytest.approx(1 - 1 / 1.01, rel=1e-6)

    def test_high_temperature_expansion_regime(self, paper_dec, paper_model):
        _, _, rates = paper_model(kappas=(1.0, 1.0), temperature=1e6)
        assert detailed_balance_audit(rates) < 1e-10

    def test_requires_positive_temperature(self, paper_dec, paper_model):
        _, _, rates = paper_model()
        with pytest.raises(ValidationError):
            detailed_balance_audit(replace(rates, temperature=0.0))


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

    def test_block_weights_conserved(self, paper_table):
        rng = np.random.default_rng(52)
        blocks = connectivity_blocks(*paper_table(kappas=(0.0, 1.0), temperature=2.0))
        for _ in range(10):
            p0 = PopulationState(rng.dirichlet(np.ones(4)))
            pred = restricted_gibbs_prediction(blocks, p0)
            for block in blocks.blocks:
                idx = np.asarray(block)
                assert pred.p[idx].sum() == pytest.approx(p0.p[idx].sum(), abs=1e-12)


class TestSweeps:
    def test_temperature_sweep_thermal_ceiling(self, paper_spec):
        baths = BathConfig(temperature=1.0, kappas=(1e-5, 1.0))
        sweep = sweep_temperature(paper_spec, baths, np.geomspace(0.1, 10, 25), 10.0)
        assert sweep.axis == "temperature"
        assert np.all(np.diff(sweep.values) > 0)
        assert sweep.values.max() < 0.5

    def test_coupling_sweep_crosses_half(self, paper_spec):
        baths = BathConfig(temperature=10.0, kappas=(1e-5, 1.0))
        sweep = sweep_coupling(paper_spec, baths, 1, np.geomspace(1e-3, 1, 25), 10.0)
        assert sweep.values[-1] > 0.5
        assert np.all(np.diff(sweep.values) > -1e-12)

    def test_symmetric_high_temperature_approaches_uniform(self, paper_spec):
        baths = BathConfig(temperature=1.0, kappas=(1.0, 1.0))
        sweep = sweep_temperature(paper_spec, baths, np.geomspace(1, 1e4, 9), 10.0)
        assert sweep.values[-1] == pytest.approx(0.75, abs=1e-3)

    def test_per_point_failures_recorded(self, paper_spec):
        baths = BathConfig(temperature=10.0, kappas=(1e-5, 1.0))
        sweep = sweep_coupling(paper_spec, baths, 1, np.array([-1.0, 0.1]), 10.0)
        assert 0 in sweep.errors and "ValidationError" in sweep.errors[0]
        assert np.isnan(sweep.values[0]) and not np.isnan(sweep.values[1])

    def test_non_finite_excitation_is_a_failed_point(self, paper_spec):
        baths = BathConfig(temperature=1.0, kappas=(1.0, 1.0))
        with np.errstate(over="ignore", invalid="ignore"):  # rates of order 1e200 overflow expm
            sweep = sweep_coupling(paper_spec, baths, 1, np.array([1.0, 1e200]), 1.0)
        assert list(sweep.errors) == [1] and "NumericalIntegrityError" in sweep.errors[1]
        assert np.isnan(sweep.values[1]) and np.isfinite(sweep.values[0])

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_overflowing_rates_are_a_failed_point(self, paper_spec):
        baths = BathConfig(temperature=1.0, kappas=(1.0, 1.0))
        sweep = sweep_coupling(paper_spec, baths, 1, np.array([1.0, 1e308]), 1.0)
        assert list(sweep.errors) == [1]
        assert sweep.errors[1].startswith("NumericalIntegrityError: non-finite rates")
        assert np.isnan(sweep.values[1]) and np.isfinite(sweep.values[0])

    def test_bath_at_sets_one_axis(self):
        baths = BathConfig(temperature=10.0, kappas=(1e-5, 1.0), axes=("x", "y"))
        assert bath_at(baths, "temperature", 0.3) == replace(baths, temperature=0.3)
        assert bath_at(baths, "kappa", 0.5, site=2) == replace(baths, kappas=(1e-5, 0.5))
        for axis, site in (("field", 1), ("kappa", None), ("kappa", 3)):
            with pytest.raises(ValidationError):
                bath_at(baths, axis, 0.5, site)

    def test_invalid_t_star(self, paper_spec):
        baths = BathConfig(temperature=1.0, kappas=(1.0, 1.0))
        with pytest.raises(ValidationError):
            sweep_temperature(paper_spec, baths, np.geomspace(0.1, 1, 5), 0.0)

    def test_initial_state_must_match_the_spectrum(self, paper_spec):
        baths = BathConfig(temperature=1.0, kappas=(1.0, 1.0))
        with pytest.raises(ValidationError, match="dimension"):
            sweep_temperature(paper_spec, baths, [0.5, 1.0], 10.0, initial_state=[0.5, 0.5] + [0.0] * 6)


class TestLocateTTheta:
    def test_paper_regime_bracket(self, paper_spec):
        baths = BathConfig(temperature=1.0, kappas=(1e-5, 1.0))
        sweep = sweep_temperature(paper_spec, baths, np.geomspace(0.1, 10, 25), 10.0)
        assert 0.5 <= locate_t_theta(sweep) <= 2.0

    def test_matches_closed_form_two_level_curve(self):
        # analytic P_exc(t*) of the isolated {|1>,|2>} pair, gap 5/3
        grid = np.geomspace(0.1, 10, 25)
        omega, t_star = 5 / 3, 10.0

        def analytic(temperature):
            nbar = 1.0 / math.expm1(omega / temperature)
            return nbar / (2 * nbar + 1) * -math.expm1(-omega * (2 * nbar + 1) * t_star)

        values = np.array([analytic(t) for t in grid])
        sweep = SweepResult(axis="temperature", grid=grid, values=values, t_star=t_star)
        slopes = [
            (values[k + 1] - values[k - 1]) / (grid[k + 1] - grid[k - 1])
            for k in range(1, 24)
        ]
        expected = grid[1 + int(np.argmax(slopes))]
        assert locate_t_theta(sweep) == expected

    def test_flat_curve_rejected(self):
        grid = np.geomspace(0.1, 10, 5)
        sweep = SweepResult(axis="temperature", grid=grid, values=np.zeros(5), t_star=1.0)
        with pytest.raises(ValidationError, match="variation"):
            locate_t_theta(sweep)

    def test_needs_enough_points_and_right_axis(self):
        sweep = SweepResult(
            axis="temperature", grid=np.array([1.0, 2.0]), values=np.array([0.1, 0.2]), t_star=1.0
        )
        with pytest.raises(ValidationError):
            locate_t_theta(sweep)
        kappa_sweep = SweepResult(
            axis="kappa", grid=np.array([1.0, 2.0, 3.0]), values=np.array([0.1, 0.2, 0.3]), t_star=1.0
        )
        with pytest.raises(ValidationError):
            locate_t_theta(kappa_sweep)


class TestRandomChains:
    def test_draws_are_nondegenerate_and_seeded(self):
        from spinbath import build_hamiltonian, check_degeneracy, spectral_decomposition

        a = random_nondegenerate_chain(3, np.random.default_rng(7))
        b = random_nondegenerate_chain(3, np.random.default_rng(7))
        assert a == b
        dec = spectral_decomposition(build_hamiltonian(a))
        assert check_degeneracy(dec).nondegenerate

    def test_all_pairs_couplings_present(self):
        spec = random_nondegenerate_chain(4, np.random.default_rng(8))
        assert len(spec.couplings) == 6
