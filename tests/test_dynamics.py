"""Propagation, steady states, Gibbs vectors, and excitation observables."""

from __future__ import annotations

import ast
import math
import re
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.linalg import expm as scipy_expm
from scipy.linalg import null_space

from spinbath import (
    BathConfig,
    CapacityError,
    NumericalIntegrityError,
    PopulationState,
    ChainSpec,
    CouplingElements,
    RateMatrix,
    SpectralDecomposition,
    Trajectory,
    ValidationError,
    build_hamiltonian,
    build_rate_matrix,
    connectivity_blocks,
    coupling_matrix_elements,
    excitation_probability,
    gibbs_state,
    propagate_density,
    propagate_populations,
    random_nondegenerate_chain,
    spectral_decomposition,
    structural_blocks,
)
from spinbath import dynamics
from spinbath.cli import main

from conftest import random_density, steady_vectors, two_spin_energies


EPS = np.finfo(np.float64).eps


def gibbs_oracle(temperature: float) -> np.ndarray:
    """Normalize exp(-E_i/T) from the closed-form two-spin eigenvalues."""
    e = np.array(two_spin_energies(1.0, 0.5, 1 / 3))
    w = np.exp(-(e - e.min()) / temperature)
    return w / w.sum()


class TestPopulationState:
    def test_rejects_unnormalized(self):
        with pytest.raises(ValidationError):
            PopulationState(np.array([0.5, 0.4]))

    def test_rejects_negative(self):
        with pytest.raises(ValidationError):
            PopulationState(np.array([1.1, -0.1]))

    def test_rejects_non_finite(self):
        for p in ([math.nan, 1.0], [math.inf, 0.0], [0.5, 0.5, -math.inf]):
            with pytest.raises(ValidationError, match="finite"):
                PopulationState(np.array(p))

    def test_rejects_a_vector_that_is_not_1d(self):
        with pytest.raises(ValidationError, match=re.escape("population vector must be 1-D, got shape (2, 2)")):
            PopulationState(np.full((2, 2), 0.25))

    def test_basis_and_uniform(self):
        assert PopulationState.basis(4, 2).p[2] == 1.0
        assert PopulationState.basis(np.int64(4), np.int64(2)).p[2] == 1.0
        assert np.allclose(PopulationState.uniform(5).p, 0.2)

    @pytest.mark.parametrize("make, dimension", [
        (lambda: PopulationState.basis(4.0, 1), "4.0"),
        (lambda: PopulationState.uniform(4.5), "4.5"),
        (lambda: PopulationState.uniform(0), "0"),
        (lambda: PopulationState.basis(-1, 0), "-1"),
        (lambda: PopulationState.basis(True, 0), "True"),
        (lambda: PopulationState.uniform(True), "True"),
    ])
    def test_dimension_must_be_a_positive_integer(self, make, dimension):
        # a float raised a bare TypeError from numpy, 0 a ZeroDivisionError, and
        # -1 reported an index "out of range 0..-2"
        with pytest.raises(ValidationError, match=re.escape(f"dimension must be an integer >= 1, got {dimension}")):
            make()

    @pytest.mark.parametrize("index", [-1, 4, 1.5, True])
    def test_basis_index_out_of_range_refused(self, index):
        # -1 would silently pick the top state, 4 and 1.5 raise a bare IndexError,
        # and True is a boolean mask that sets every entry
        with pytest.raises(ValidationError, match=rf"basis index {index} out of range 0\.\.3"):
            PopulationState.basis(4, index)


class TestPropagatePopulations:
    def test_gibbs_initial_state_is_stationary(self, paper_dec, paper_model):
        _, rates = paper_model(kappas=(1.0, 1.0), temperature=1.0)
        p0 = gibbs_state(paper_dec, 1.0)
        traj = propagate_populations(rates, p0, np.linspace(0.0, 10.0, 21))
        assert np.max(np.abs(traj.populations - p0.p)) < 1e-10

    def test_blocked_subspace_never_populated(self, paper_model):
        _, rates = paper_model(kappas=(0.0, 1.0), temperature=1.0)
        traj = propagate_populations(
            rates, PopulationState.basis(4, 2), np.linspace(0.0, 50.0, 26)
        )
        assert np.max(np.abs(traj.populations[:, :2])) == 0.0

    def test_asymmetric_regime_two_level_reduction(self, paper_model):
        # effective two-level {|1>,|2>} relaxation with rate kappa2*omega*(2 nbar + 1)
        _, rates = paper_model(kappas=(1e-5, 1.0), temperature=10.0)
        traj = propagate_populations(rates, PopulationState.basis(4, 0), [10.0])
        nbar = 1.0 / math.expm1((5 / 3) / 10.0)
        fixed_point = nbar / (2 * nbar + 1)
        analytic = fixed_point * -math.expm1(-(5 / 3) * (2 * nbar + 1) * 10.0)
        assert excitation_probability(traj.populations)[0] == pytest.approx(analytic, abs=1e-3)
        assert excitation_probability(traj.populations)[0] == pytest.approx(0.458, abs=1e-2)

    def test_capacity_guard_before_allocation(self):
        # a synthetic 2^13-level generator with an empty table and zero outflows:
        # nothing of size d x d exists
        d = 2**13
        empty = np.zeros(0, dtype=np.intp)
        spectrum = SpectralDecomposition(energies=np.arange(d, dtype=float), basis=np.arange(d))
        elems = CouplingElements(rows=empty, cols=empty, sites=empty, n_sites=13, spectrum=spectrum)
        rates = RateMatrix(elems=elems, baths=BathConfig(temperature=1.0, kappas=(1.0,) * 13),
                           damping=empty.astype(float), gain=empty.astype(float), outflow=np.zeros(d))
        p0 = PopulationState.basis(d, 0)
        tracemalloc.start()
        try:
            with pytest.raises(CapacityError, match=r"d <= 2\^12, got d = 8192"):
                propagate_populations(rates, p0, np.linspace(0.0, 1.0, 201))
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_semigroup_property(self):
        rng = np.random.default_rng(41)
        from spinbath import random_nondegenerate_chain

        for _ in range(10):
            n = int(rng.integers(2, 4))
            spec = random_nondegenerate_chain(n, rng)
            baths = BathConfig(
                temperature=float(rng.uniform(0.5, 5)),
                kappas=tuple(rng.uniform(0.0, 1.5, size=n)),
            )
            dec = spectral_decomposition(build_hamiltonian(spec))
            rates = build_rate_matrix(coupling_matrix_elements(baths, dec), baths)
            p0 = PopulationState(rng.dirichlet(np.ones(dec.dimension)))
            t, s = float(rng.uniform(0.1, 3)), float(rng.uniform(0.1, 3))
            p_ts = propagate_populations(rates, p0, [t + s]).populations[-1]
            p_t = propagate_populations(rates, p0, [t]).populations[-1]
            p_t_s = propagate_populations(rates, PopulationState(p_t), [s]).populations[-1]
            assert np.max(np.abs(p_ts - p_t_s)) < 1e-9

    def test_two_level_block_monotone_relaxation(self, paper_model, paper_table):
        _, rates = paper_model(kappas=(0.0, 1.0), temperature=1.0)
        traj = propagate_populations(
            rates, PopulationState.basis(4, 2), np.linspace(0.0, 20.0, 41)
        )
        equilibrium = _steady_states(*paper_table(kappas=(0.0, 1.0), temperature=1.0))[1]
        distances = np.abs(traj.populations - equilibrium).max(axis=1)
        assert np.all(np.diff(distances) <= 1e-15)

    def test_normalization_drift_aborts(self, paper_model):
        _, rates = paper_model()
        broken = replace(rates, outflow=rates.outflow - 0.05)  # each column gains 0.05
        with pytest.raises(NumericalIntegrityError, match="drift"):
            propagate_populations(broken, PopulationState.uniform(4), [0.0, 5.0])

    def test_earliest_bad_snapshot_reported_drift_first(self):
        good, negative, drifted = [0.5, 0.5], [1.5, -0.5], [0.5, 0.6]
        with pytest.raises(NumericalIntegrityError, match=r"negative population -5\.000e-01 at t = 1$"):
            Trajectory(times=[0.0, 1.0, 2.0], populations=[good, negative, drifted])
        with pytest.raises(NumericalIntegrityError, match=r"drift 1\.000e-01 at t = 1$"):
            Trajectory(times=[0.0, 1.0, 2.0], populations=[good, [-0.4, 1.5], negative])
        assert Trajectory(times=[0.0, 1.0], populations=[good, good]).populations.shape == (2, 2)

    def test_earliest_bad_snapshot_reported_non_finite_first(self):
        good, drifted = [0.5, 0.5], [0.5, 0.6]
        with pytest.raises(NumericalIntegrityError, match=r"non-finite population at t = 1$"):
            Trajectory(times=[0.0, 1.0, 2.0], populations=[good, [math.nan, 1.0], drifted])
        with pytest.raises(NumericalIntegrityError, match=r"non-finite population at t = 1$"):
            Trajectory(times=[0.0, 1.0], populations=[good, [math.inf, -math.inf]])
        with pytest.raises(NumericalIntegrityError, match=r"drift 1\.000e-01 at t = 1$"):
            Trajectory(times=[0.0, 1.0, 2.0], populations=[good, drifted, [math.nan, 1.0]])

    @pytest.mark.parametrize("populations", [1.0, [0.5, 0.5], [[0.5, 0.5], [0.5, 0.5]], [[[1.0]]]])
    def test_snapshots_must_match_the_time_grid(self, populations):
        # a 0-d array has no axes for a shape check to index
        with pytest.raises(ValidationError, match="population snapshots do not match the time grid"):
            Trajectory(times=[0.0], populations=populations)

    def test_fault_times_keep_twelve_digits(self):
        good, drifted = [0.5, 0.5], [0.5, 0.6]
        for t in ("0.1234567", "0.1234568", "10.0000000001"):
            with pytest.raises(NumericalIntegrityError, match=rf"drift 1\.000e-01 at t = {re.escape(t)}$"):
                Trajectory(times=[0.0, float(t)], populations=[good, drifted])

    def test_initial_state_must_match_the_rates(self, paper_model):
        _, rates = paper_model()
        with pytest.raises(ValidationError, match="initial state dimension does not match the rate matrix"):
            propagate_populations(rates, PopulationState.uniform(2), [0.0, 1.0])

    @pytest.mark.parametrize("times", [
        [1.0, 1.0], [-1.0, 1.0], [0.0, math.nan], [math.nan, 1.0], [0.0, math.inf], [], [[0.0, 1.0]],
    ])
    def test_time_grid_validation(self, times, paper_model):
        # a NaN time is a bad grid (ValidationError, CLI exit 2), not a failed snapshot
        _, rates = paper_model()
        message = "time grid must be a non-empty 1-D array, nonnegative, finite and strictly increasing"
        with pytest.raises(ValidationError, match=re.escape(message)):
            propagate_populations(rates, PopulationState.uniform(4), times)


class TestPropagateDensity:
    def test_population_marginals_match_rate_engine(self, paper_model, paper_superop):
        _, rates = paper_model(kappas=(1e-5, 1.0), temperature=10.0)
        superop = paper_superop(kappas=(1e-5, 1.0), temperature=10.0)
        times = np.linspace(0.0, 10.0, 11)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[0, 0] = 1.0
        dens = propagate_density(superop, rho0, times)
        pops = propagate_populations(rates, PopulationState.basis(4, 0), times)
        assert np.max(np.abs(dens.populations - pops.populations)) < 1e-8

    def test_coherences_do_not_feed_populations(self, paper_superop):
        superop = paper_superop(kappas=(1.0, 1.0), temperature=1.0)
        times = np.linspace(0.0, 5.0, 6)
        coherent = np.full((2, 2), 0.5, dtype=complex)  # (|1> + |2>)/sqrt(2)
        rho0 = np.zeros((4, 4), dtype=complex)
        rho0[:2, :2] = coherent
        dephased = np.diag(np.diagonal(rho0)).astype(complex)
        a = propagate_density(superop, rho0, times).populations
        b = propagate_density(superop, dephased, times).populations
        assert np.max(np.abs(a - b)) < 1e-12

    def test_gibbs_density_stationary(self, paper_dec, paper_superop):
        superop = paper_superop(kappas=(1.0, 1.0), temperature=1.0)
        rho0 = np.diag(gibbs_state(paper_dec, 1.0).p).astype(complex)
        dens = propagate_density(superop, rho0, np.linspace(0.0, 10.0, 5))
        assert np.max(np.abs(dens.matrices - rho0)) < 1e-10

    def test_coherence_magnitudes_decay_monotonically(self, paper_superop):
        superop = paper_superop(kappas=(1.0, 1.0), temperature=1.0)
        rng = np.random.default_rng(42)
        rho0 = random_density(rng, 4)
        dens = propagate_density(superop, rho0, np.linspace(0.0, 4.0, 21))
        for i in range(4):
            for j in range(i + 1, 4):
                magnitudes = np.abs(dens.matrices[:, i, j])
                assert np.all(np.diff(magnitudes) <= 1e-12)

    def test_invalid_initial_density_rejected(self, paper_superop):
        superop = paper_superop()
        bad_trace = np.eye(4, dtype=complex)
        with pytest.raises(ValidationError):
            propagate_density(superop, bad_trace, [1.0])
        not_psd = np.diag([1.5, -0.5, 0.0, 0.0]).astype(complex)
        with pytest.raises(ValidationError):
            propagate_density(superop, not_psd, [1.0])
        not_finite = np.diag([1.0, 0.0, 0.0, 0.0]).astype(complex)
        not_finite[0, 1] = not_finite[1, 0] = math.nan
        with pytest.raises(ValidationError, match="non-finite"):
            propagate_density(superop, not_finite, [1.0])

    @pytest.mark.parametrize("rho0, message", [
        (np.eye(2) / 2, "expected a 4 x 4 density matrix, got shape (2, 2)"),
        (np.full(4, 0.25), "expected a 4 x 4 density matrix, got shape (4,)"),
        (np.diag([0.5, 0.5, 0.0, 0.0]) + np.eye(4, k=1) * 0.1,
         "initial density matrix invalid: density matrix lost Hermiticity at t = 0"),
    ])
    def test_malformed_initial_density_refused(self, rho0, message, paper_superop):
        with pytest.raises(ValidationError, match=re.escape(message)):
            propagate_density(paper_superop(), rho0, [1.0])

    def test_fault_times_keep_twelve_digits(self):
        with pytest.raises(NumericalIntegrityError, match=r"t = 0\.1234567$"):
            dynamics._check_density(np.diag([0.5, 0.6]), 0.1234567, 1e-8)

    def test_oracle_runs_its_own_exponential(self, paper_superop, monkeypatch):
        # the rate path's expm broken: the oracle propagates with scipy.linalg.expm alone
        superop = paper_superop(kappas=(1e-5, 1.0), temperature=10.0)
        rho0 = random_density(np.random.default_rng(7), 4)
        times = np.linspace(0.0, 10.0, 11)

        def refuse(a):
            raise AssertionError("the Lindblad oracle called dynamics.expm")

        monkeypatch.setattr(dynamics, "expm", refuse)
        dens = propagate_density(superop, rho0, times)
        v0 = rho0.flatten(order="F")
        direct = [(scipy_expm(superop.matrix * t) @ v0).reshape((4, 4), order="F") for t in times]
        assert np.array_equal(dens.matrices, np.array(direct))


def _steady_states(elems, baths) -> list[np.ndarray]:
    """One d-vector per block of the checked partition, its restricted Gibbs state."""
    return steady_vectors(connectivity_blocks(elems, baths))


class TestSteadyStates:
    def test_connected_model_reaches_gibbs(self, paper_dec, paper_table):
        states = _steady_states(*paper_table(kappas=(1.0, 1.0), temperature=1.0))
        assert len(states) == 1
        oracle = gibbs_oracle(1.0)
        assert np.max(np.abs(states[0] - oracle)) < 1e-10
        assert np.max(np.abs(states[0] - gibbs_state(paper_dec, 1.0).p)) < 1e-10
        frozen = np.array([0.764441, 0.144384, 0.053116, 0.038059])
        assert np.max(np.abs(states[0] - frozen)) < 1e-6

    def test_blocked_model_two_restricted_gibbs(self, paper_table):
        states = _steady_states(*paper_table(kappas=(0.0, 1.0), temperature=1.0))
        assert len(states) == 2
        # two-level Gibbs oracles with gaps 5/3 and 1/3
        low = 1.0 / (1.0 + math.exp(-5 / 3))
        high = 1.0 / (1.0 + math.exp(-1 / 3))
        assert states[0] == pytest.approx([low, 1 - low, 0.0, 0.0], abs=1e-10)
        assert states[1] == pytest.approx([0.0, 0.0, high, 1 - high], abs=1e-10)

    def test_fully_decoupled_gives_basis_states(self, paper_table):
        states = _steady_states(*paper_table(kappas=(0.0, 0.0), temperature=1.0))
        assert len(states) == 4
        for k, state in enumerate(states):
            assert state[k] == 1.0

    def test_random_connected_chains_reach_gibbs(self):
        rng = np.random.default_rng(43)
        from spinbath import random_nondegenerate_chain

        for _ in range(10):
            n = int(rng.integers(2, 4))
            spec = random_nondegenerate_chain(n, rng)
            temperature = float(rng.uniform(0.5, 5.0))
            baths = BathConfig(
                temperature=temperature, kappas=tuple(rng.uniform(0.2, 2.0, size=n))
            )
            dec = spectral_decomposition(build_hamiltonian(spec))
            states = _steady_states(coupling_matrix_elements(baths, dec), baths)
            assert len(states) == 1
            assert np.max(np.abs(states[0] - gibbs_state(dec, temperature).p)) < 1e-9

    def test_zero_temperature_multiminimum_is_integrity_error(self):
        # two single-flip local minima in one structural block: kernel is 2-D
        spec = ChainSpec(
            3, (0.251, 0.252, 0.179), ((1, 2, -1.229), (2, 3, -1.368), (1, 3, -1.17))
        )
        baths = BathConfig(temperature=0.0, kappas=(1.0, 1.0, 1.0))
        dec = spectral_decomposition(build_hamiltonian(spec))
        with pytest.raises(NumericalIntegrityError, match="kernel"):
            connectivity_blocks(coupling_matrix_elements(baths, dec), baths)

    @pytest.mark.parametrize("temperature", [0.03, 0.02, 0.01])
    def test_glassy_chain_at_low_temperature_is_its_gibbs_state(self, temperature):
        # the T = 0 case above has two absorbing minima; any T > 0 connects them
        spec = ChainSpec(
            3, (0.251, 0.252, 0.179), ((1, 2, -1.229), (2, 3, -1.368), (1, 3, -1.17))
        )
        baths = BathConfig(temperature=temperature, kappas=(1.0, 1.0, 1.0))
        dec = spectral_decomposition(build_hamiltonian(spec))
        elems = coupling_matrix_elements(baths, dec)
        rates = build_rate_matrix(elems, baths)
        partition = connectivity_blocks(elems, baths)
        assert partition.blocks == (tuple(range(8)),)
        residual = np.max(np.abs(rates.matrix @ partition.weights[0]))
        assert residual <= 8 * EPS * np.max(np.abs(rates.matrix))


@st.composite
def _random_models(draw):
    n = draw(st.integers(1, 6))
    spec = random_nondegenerate_chain(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    baths = BathConfig(
        temperature=draw(st.sampled_from((0.0, 0.3, 1.0, 10.0))),
        kappas=tuple(draw(st.sampled_from((0.0, 1e-5, 0.3, 1.0))) for _ in range(n)),
    )
    dec = spectral_decomposition(build_hamiltonian(spec))
    elems = coupling_matrix_elements(baths, dec)
    return dec, elems, baths, build_rate_matrix(elems, baths)


@settings(max_examples=80, deadline=None)
@given(_random_models())
def test_steady_states_match_the_null_space_oracle(model):
    """Each block's steady state is its normalised SVD kernel vector; at T = 0
    the call raises exactly when some block's kernel is more than 1-D.

    At T = 0 a kappa = 1e-5 flip across a small gap leaves a total outflow near
    1e-7, and the SVD vector is then ~1e-9 off the exact basis vector; there the
    1-D oracle kernel and the residual bound pin the state instead.
    """
    dec, elems, baths, rates = model
    blocks = structural_blocks(elems, baths)
    kernels = [null_space(rates.matrix[np.ix_(b, b)], rcond=1e-12) for b in blocks]
    if any(k.shape[1] > 1 for k in kernels):
        assert rates.baths.temperature == 0.0
        with pytest.raises(NumericalIntegrityError, match="kernel"):
            connectivity_blocks(elems, baths)
        return
    states = _steady_states(elems, baths)
    assert len(states) == len(blocks)
    scale = np.max(np.abs(rates.matrix))
    for block, kernel, state in zip(blocks, kernels, states):
        if rates.baths.temperature > 0:
            oracle = np.zeros(rates.dimension)
            oracle[list(block)] = kernel[:, 0] / kernel[:, 0].sum()
            assert np.max(np.abs(state - oracle)) <= 1e-9
        assert np.max(np.abs(rates.matrix @ state)) <= 8 * EPS * scale


@settings(max_examples=80, deadline=None)
@given(_random_models(), st.integers(0, 2**32 - 1))
def test_block_weights_are_conserved_by_propagation(model, seed):
    """No rate crosses a structural block, so each block keeps its initial weight."""
    _, elems, baths, rates = model
    p0 = np.random.default_rng(seed).dirichlet(np.ones(rates.dimension))
    traj = propagate_populations(rates, p0, [0.0, 0.1, 1.0, 10.0, 100.0])
    for block in structural_blocks(elems, baths):
        weights = traj.populations[:, list(block)].sum(axis=1)
        assert np.max(np.abs(weights - p0[list(block)].sum())) <= 1e-12


@st.composite
def _stepped_runs(draw):
    """A rate matrix, a start vector and a time grid: linspace and geomspace
    grids, irregular ones, and grids whose first time is > 0."""
    n = draw(st.integers(1, 5))
    spec = random_nondegenerate_chain(n, np.random.default_rng(draw(st.integers(0, 2**32 - 1))))
    baths = BathConfig(
        temperature=draw(st.sampled_from((0.0, 0.05, 1.0, 10.0))),
        kappas=tuple(draw(st.sampled_from((0.0, 1e-5, 1.0))) for _ in range(n)),
    )
    rates = build_rate_matrix(coupling_matrix_elements(baths, spectral_decomposition(build_hamiltonian(spec))), baths)
    d = rates.dimension
    p0 = draw(st.sampled_from((PopulationState.basis(d, 0), PopulationState.basis(d, d - 1),
                               PopulationState.uniform(d)))).p
    first = draw(st.sampled_from((0.0, 1e-3, 0.7)))
    stop = first + draw(st.sampled_from((0.5, 10.0, 50.0)))
    count = draw(st.integers(1, 40))
    kind = draw(st.sampled_from(("linspace", "geomspace", "irregular")))
    if kind == "linspace":
        times = np.linspace(first, stop, count + 1)
    elif kind == "geomspace":
        times = np.geomspace(first or 1e-3, stop, count + 1)
    else:
        steps = draw(st.lists(st.floats(1e-4, 5.0), min_size=count, max_size=count))
        times = first + np.cumsum([0.0] + steps)
    return rates, p0, times


@settings(max_examples=120, deadline=None)
@given(_stepped_runs())
def test_stepped_snapshots_match_one_exponential_per_time(run):
    """Stepping interval by interval gives, at every snapshot, what scipy's
    exponential of Lambda t_k, taken independently at each time, gives."""
    rates, p0, times = run
    traj = propagate_populations(rates, p0, times)
    oracle = np.array([scipy_expm(rates.matrix * t) @ p0 for t in times])
    assert np.max(np.abs(traj.populations - oracle)) <= 1e-12


@settings(max_examples=100, deadline=None)
@given(_stepped_runs())
def test_stepped_snapshots_equal_a_plain_loop(run):
    """The snapshots are, bit for bit, p = expm(Lambda dt) @ p over the steps:
    the grid's intervals, the first from 0, except that on a linear grid of
    more than two points whose spacing h keeps ||Lambda h||_1 = 2 max(outflow) h
    within theta_13 = 5.371920351148152 every step after the first is h."""
    rates, p, times = run
    traj = propagate_populations(rates, p, times)
    steps = np.diff(times, prepend=0.0)
    if times.size > 2:
        h = (times[-1] - times[0]) / (times.size - 1)
        if (np.array_equal(times, np.linspace(times[0], times[-1], times.size))
                and 2.0 * rates.outflow.max() * h <= 5.371920351148152):
            steps[1:] = h
    expected = []
    for dt in steps:
        p = scipy_expm(rates.matrix * dt) @ p
        expected.append(p)
    assert np.array_equal(traj.populations, expected)


class TestStepMemo:
    """Each trajectory exponentiates every distinct step once: `expm`
    remembers, in a list the trajectory owns, its last two inputs, found by
    identity or by their exact bytes."""

    @pytest.fixture
    def counts(self, monkeypatch):
        """Counts the exponentials actually computed and the `expm` calls,
        checking the `recent` list each call is given."""
        dynamics.expm(np.eye(2))  # loads scipy before counting
        counts = {"kernels": 0, "calls": 0}
        real = dynamics._scipy_expm

        def counted(a):
            counts["kernels"] += 1
            return real(a)

        monkeypatch.setattr(dynamics, "_scipy_expm", counted)
        real_expm = dynamics.expm

        def checked(a, recent=None):
            counts["calls"] += 1
            e = real_expm(a, recent)
            assert recent is not None and len(recent) <= 2
            return e

        monkeypatch.setattr(dynamics, "expm", checked)
        return counts

    @pytest.mark.parametrize("kappas, times, kernels", [
        # linear, ||Lambda h||_1 = 1.09 <= theta_13: Lambda t_0 = 0 and Lambda h
        ((1e-5, 1.0), np.linspace(0.0, 10.0, 201), 2),
        # linear, ||Lambda h||_1 = 1.1e5 > theta_13: the 10 distinct interval bit patterns, 0 among them
        ((1e6, 1.0), np.linspace(0.0, 10.0, 201), 10),
        ((1e-5, 1.0), np.geomspace(0.01, 10.0, 201), 201),  # every interval differs
    ])
    def test_one_exponential_per_distinct_step(self, paper_model, counts, kappas, times, kernels):
        _, rates = paper_model(kappas=kappas, temperature=10.0)
        propagate_populations(rates, PopulationState.basis(4, 0), times)
        assert counts == {"kernels": kernels, "calls": 201}

    def test_nothing_carries_over_between_trajectories(self, paper_model, counts):
        _, rates = paper_model(kappas=(1e-5, 1.0), temperature=10.0)
        times = np.linspace(0.0, 10.0, 201)
        first = propagate_populations(rates, PopulationState.basis(4, 0), times)
        second = propagate_populations(rates, PopulationState.basis(4, 0), times)
        assert counts == {"kernels": 4, "calls": 402}
        assert np.array_equal(first.populations, second.populations)

    def test_the_same_array_and_an_equal_copy_hit(self, counts):
        a = _matrix("rate", 4, 1.0, 5)
        recent = []
        e = dynamics.expm(a, recent)
        assert dynamics.expm(a, recent) is e
        assert dynamics.expm(a.copy(), recent) is e
        assert counts["kernels"] == 1

    def test_a_hit_moves_to_the_front_and_a_third_input_drops_the_oldest(self, counts):
        a, b, c = (_matrix("rate", 4, norm, 5) for norm in (1.0, 2.0, 3.0))
        recent = []
        ea, eb = dynamics.expm(a, recent), dynamics.expm(b, recent)
        assert dynamics.expm(a.copy(), recent) is ea  # a is now the more recent, b the oldest
        ec = dynamics.expm(c, recent)  # drops b
        assert counts["kernels"] == 3
        assert dynamics.expm(a, recent) is ea and dynamics.expm(c, recent) is ec
        assert counts["kernels"] == 3
        again = dynamics.expm(b, recent)
        assert counts["kernels"] == 4 and again is not eb
        assert np.array_equal(again, scipy_expm(b))

    def test_fig2_computes_one_exponential_per_distinct_step(self, counts, tmp_path):
        """The op of the fig2-paper benchmark workload: fig2c's 5 and fig2d's 4
        trajectories on 0:10:201 take Lambda * 0 and one reused step each, and
        fig2e's and fig2f's 25 points one expm(Lambda t*) each, 68 in all; the
        trajectories' 1,809 calls are the benchmark's pinned count."""
        assert main(["fig2", "--config", "ising2_paper", "--out", str(tmp_path)]) == 0
        assert counts == {"kernels": 9 * 2 + 2 * 25, "calls": 9 * 201}

    @settings(max_examples=150, deadline=None)
    @given(st.data())
    def test_any_call_sequence_gets_scipys_bits_once_per_miss(self, data):
        """Pooled inputs and equal copies of them, in any order through one
        `recent` list: every result is scipy's, the list keeps at most two
        entries, and an exponential is computed exactly when a two-entry
        least-recently-used cache keyed by the input's bytes misses."""
        d = data.draw(st.integers(1, 8))
        matrices = st.builds(_matrix, st.sampled_from(("rate", "generic", "upper", "diagonal", "zero")),
                             st.just(d), st.sampled_from((0.5, 3.0, 30.0)), st.integers(0, 3))
        pool = data.draw(st.lists(matrices, min_size=1, max_size=4))
        picks = data.draw(st.lists(st.tuples(st.integers(0, len(pool) - 1), st.booleans()), max_size=12))
        dynamics.expm(np.eye(2))  # loads scipy before counting
        real = dynamics._scipy_expm
        computed = []
        recent, lru, misses = [], [], 0
        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(dynamics, "_scipy_expm", lambda a: computed.append(a) or real(a))
            for index, copy in picks:
                a = pool[index].copy() if copy else pool[index]
                key = a.tobytes()
                if key in lru:
                    lru.remove(key)
                else:
                    misses += 1
                lru = [key] + lru[:1]
                assert np.array_equal(dynamics.expm(a, recent), scipy_expm(a))
                assert len(recent) <= 2
        assert len(computed) == misses


class TestGibbsState:
    def test_high_temperature_uniform(self, paper_dec):
        assert np.max(np.abs(gibbs_state(paper_dec, 1e9).p - 0.25)) < 1e-9

    def test_low_temperature_ground(self, paper_dec):
        assert np.array_equal(gibbs_state(paper_dec, 1e-6).p, [1.0, 0.0, 0.0, 0.0])

    def test_matches_independent_normalization(self, paper_dec):
        for temperature in (0.3, 1.0, 10.0):
            assert np.max(
                np.abs(gibbs_state(paper_dec, temperature).p - gibbs_oracle(temperature))
            ) < 1e-14

    def test_requires_positive_temperature(self, paper_dec):
        with pytest.raises(ValidationError):
            gibbs_state(paper_dec, 0.0)


class TestExcitationProbability:
    def test_ground_start_is_zero(self, paper_model):
        _, rates = paper_model()
        traj = propagate_populations(rates, PopulationState.basis(4, 0), [0.0, 1.0])
        assert excitation_probability(traj.populations)[0] == 0.0

    def test_uniform_state_value(self, paper_model):
        _, rates = paper_model()
        traj = propagate_populations(rates, PopulationState.uniform(4), [0.0])
        assert excitation_probability(traj.populations)[0] == pytest.approx(0.75, abs=1e-14)

    def test_late_time_hot_gibbs(self, paper_dec, paper_model):
        _, rates = paper_model(kappas=(1.0, 1.0), temperature=10.0)
        traj = propagate_populations(rates, PopulationState.basis(4, 0), [1000.0])
        expected = 1.0 - gibbs_oracle(10.0)[0]
        assert excitation_probability(traj.populations)[-1] == pytest.approx(expected, abs=1e-6)
        assert expected == pytest.approx(0.702, abs=1e-3)


KINDS = ("generic", "rate", "upper", "lower", "diagonal", "zero", "complex", "nan")


def _matrix(kind: str, d: int, norm: float, seed: int) -> np.ndarray:
    """A d x d matrix of the given kind, scaled to 1-norm `norm` (zero stays zero)."""
    rng = np.random.default_rng(seed)
    a = rng.normal(size=(d, d))
    if kind == "complex":
        a = a + 1j * rng.normal(size=(d, d))
    elif kind == "rate":  # sparse nonnegative off-diagonal, zero column sums
        a = np.abs(a) * (rng.random((d, d)) < 0.3)
        np.fill_diagonal(a, 0.0)
        a -= np.diag(a.sum(axis=0))
    elif kind in ("upper", "lower"):
        a = np.triu(a) if kind == "upper" else np.tril(a)
    elif kind == "diagonal":
        a = np.diag(np.diag(a))
    elif kind == "zero":
        a = np.zeros((d, d))
    scale = np.abs(a).sum(axis=0).max()
    a = a * (norm / scale) if scale else a
    if kind == "nan":
        a[rng.integers(d), rng.integers(d)] = np.nan
    return a


class TestExpm:
    @settings(max_examples=150, deadline=None)
    @given(
        kind=st.sampled_from(KINDS),
        d=st.integers(1, 16) | st.integers(17, 256),
        log_norm=st.floats(-9.0, math.log10(3e3)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_equals_scipy_bit_for_bit(self, kind, d, log_norm, seed):
        a = _matrix(kind, d, 10.0**log_norm, seed)
        with np.errstate(over="ignore", invalid="ignore"):  # exp(3e3) on a diagonal
            assert np.array_equal(dynamics.expm(a), scipy_expm(a), equal_nan=True)

    def test_first_call_imports_scipys_expm_once(self, monkeypatch):
        monkeypatch.setattr(dynamics, "_scipy_expm", None)
        a = _matrix("rate", 4, 3.0, 1)
        assert np.array_equal(dynamics.expm(a), scipy_expm(a))
        assert dynamics._scipy_expm is scipy_expm  # kept for every later call

    def test_inputs_without_a_memo_go_to_scipy_as_given(self, monkeypatch):
        """Without `recent`, anything scipy accepts is passed on unchanged and
        computed once: other sizes, dtypes, a nested list, a stack."""
        dynamics.expm(np.eye(2))  # loads scipy
        seen = []
        real = dynamics._scipy_expm
        monkeypatch.setattr(dynamics, "_scipy_expm", lambda a: seen.append(a) or real(a))
        generic = _matrix("generic", 4, 3.0, 1)
        inputs = [
            np.array([[2.0]]),
            generic,
            _matrix("lower", 20, 3.0, 1),
            generic.astype(np.complex128),
            generic.astype(np.float32),
            generic.tolist(),
            np.stack([generic, generic]),
        ]
        for a in inputs:
            assert np.array_equal(dynamics.expm(a), scipy_expm(a))
            assert seen[-1] is a
        assert len(seen) == len(inputs)

    @pytest.mark.parametrize("n", [2, 4, 17, 128])
    def test_memo_keeps_scipys_bits_across_kinds(self, monkeypatch, n):
        """Generic, triangular, diagonal and NaN-poisoned inputs of one size
        through one `recent` list: misses get scipy's bits, hits by identity or
        by equal bytes (NaN included) get the stored result back, and an input
        evicted by two others is computed again."""
        dynamics.expm(np.eye(2))  # loads scipy
        seen = []
        real = dynamics._scipy_expm
        monkeypatch.setattr(dynamics, "_scipy_expm", lambda a: seen.append(a) or real(a))
        recent = []
        generic = _matrix("generic", n, 3.0, n)
        poisoned = generic.copy()
        poisoned.flat[n + 1 if n > 1 else 0] = np.nan
        results = {}
        with np.errstate(over="ignore", invalid="ignore"):
            for kind, a in [("generic", generic), ("upper", _matrix("upper", n, 3.0, n)),
                            ("lower", _matrix("lower", n, 3.0, n)),
                            ("diagonal", _matrix("diagonal", n, 3.0, n)), ("poisoned", poisoned)]:
                results[kind] = dynamics.expm(a, recent)
                assert np.array_equal(results[kind], scipy_expm(a), equal_nan=True)
            assert len(seen) == 5 and len(recent) == 2
            assert dynamics.expm(poisoned.copy(), recent) is results["poisoned"]
            assert dynamics.expm(recent[1][0], recent) is results["diagonal"]
            again = dynamics.expm(generic.copy(), recent)
        assert len(seen) == 6 and again is not results["generic"]
        assert np.array_equal(again, results["generic"])

    def test_seven_site_snapshots(self):
        """Snapshot generators of a seeded all-pairs 7-site chain in the paper's
        asymmetric regime, every fifth point of `evolve`'s default grid."""
        spec = random_nondegenerate_chain(7, np.random.default_rng(7))
        baths = BathConfig(temperature=1.0, kappas=(1e-5,) + (1.0,) * 6)
        dec = spectral_decomposition(build_hamiltonian(spec))
        rates = build_rate_matrix(coupling_matrix_elements(baths, dec), baths)
        for t in np.linspace(0.0, 10.0, 201)[::5]:
            a = rates.matrix * t
            assert np.array_equal(dynamics.expm(a), scipy_expm(a))


def test_src_imports_no_private_scipy_module():
    """Every scipy import in the package, function-local ones included, names
    public modules and public names only: a private module or name may change
    or vanish in any scipy release."""
    scipy_imports = []
    for path in sorted(Path(dynamics.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                found = [(alias.name, None) for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and node.level == 0:
                found = [(node.module, alias.name) for alias in node.names]
            else:
                continue
            scipy_imports += [(path.name, node.lineno, module, name) for module, name in found
                              if module.split(".")[0] == "scipy"]
    assert scipy_imports, "no scipy import found: the scan reads nothing"
    private = [(file, line, module, name) for file, line, module, name in scipy_imports
               if any(part.startswith("_") for part in module.split(".")) or (name or "").startswith("_")]
    assert private == []
