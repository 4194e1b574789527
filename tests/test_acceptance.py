"""Acceptance suite: every exit criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible under `pytest -s` or on failure)
so the suite doubles as a checklist.  Expected values marked as derived are
computed by independent oracles inside this module: closed-form two-spin
eigenvalues, the analytic two-level excitation curve, direct normalisation of
exp(-E/T), and explicit golden-rule formula evaluation.
"""

from __future__ import annotations

import filecmp
import math
from contextlib import contextmanager

import numpy as np
import pytest

from spinbath import (
    BathConfig,
    ChainSpec,
    PopulationState,
    build_hamiltonian,
    build_lindblad_superoperator,
    build_rate_matrix,
    connectivity_blocks,
    coupling_matrix_elements,
    count_structural_zeros,
    detailed_balance_audit,
    excitation_probability,
    gibbs_state,
    locate_t_theta,
    predicted_zero_count,
    propagate_density,
    propagate_populations,
    random_nondegenerate_chain,
    restricted_gibbs_prediction,
    spectral_decomposition,
    sweep,
    vectorize,
)
from spinbath.cli import main

from conftest import random_density


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except Exception:
        print(f"ACCEPTANCE {number} ({label}): FAIL")
        raise
    print(f"ACCEPTANCE {number} ({label}): PASS")


def build(paper_dec, kappas, temperature):
    baths = BathConfig(temperature=temperature, kappas=kappas)
    elems = coupling_matrix_elements(paper_dec)
    return elems, build_rate_matrix(elems, baths)


def test_criterion_1_gibbs_stationarity(paper_dec):
    with criterion(1, "Gibbs stationarity"):
        for temperature in (0.1, 1.0, 10.0):
            baths = BathConfig(temperature=temperature, kappas=(1.0, 1.0))
            elems = coupling_matrix_elements(paper_dec)
            rates = build_rate_matrix(elems, baths)
            superop = build_lindblad_superoperator(elems, baths)
            p = gibbs_state(paper_dec, temperature).p
            assert np.max(np.abs(rates.matrix @ p)) < 1e-10
            rho = np.diag(p).astype(complex)
            assert np.max(np.abs(superop.matrix @ vectorize(rho))) < 1e-10


def test_criterion_2_detailed_balance_random_chains():
    with criterion(2, "detailed balance"):
        rng = np.random.default_rng(1002)
        worst = 0.0
        for k in range(100):
            n = 2 if k < 50 else 3
            spec = random_nondegenerate_chain(n, rng)
            temperature = float(rng.uniform(0.5, 5.0))
            baths = BathConfig(
                temperature=temperature, kappas=tuple(rng.uniform(0.1, 2.0, size=n))
            )
            dec = spectral_decomposition(build_hamiltonian(spec))
            rates = build_rate_matrix(coupling_matrix_elements(dec), baths)
            worst = max(worst, detailed_balance_audit(rates))
        assert worst < 1e-10


def test_criterion_3_blocking_both_extremes(paper_dec):
    with criterion(3, "blocking"):
        times = np.concatenate([[0.0], np.geomspace(1e-2, 1e3, 30)])
        p0 = PopulationState.basis(4, 2)
        for temperature in (0.01, 100.0):
            elems, rates = build(paper_dec, (0.0, 1.0), temperature)
            traj = propagate_populations(rates, p0, times)
            assert np.max(np.abs(traj.populations[:, :2])) < 1e-12
            baths = BathConfig(temperature=temperature, kappas=(0.0, 1.0))
            prediction = restricted_gibbs_prediction(connectivity_blocks(elems, baths), p0)
            assert np.max(np.abs(traj.populations[-1] - prediction.p)) < 1e-6


def _ground_state_sweep(paper_dec, temperature, axis, grid, site=None):
    """P_exc(t* = 10) from the ground state with kappa = (1e-5, 1)."""
    baths = BathConfig(temperature=temperature, kappas=(1e-5, 1.0))
    elems = coupling_matrix_elements(paper_dec)
    return sweep(elems, baths, axis, grid, 10.0, PopulationState.basis(4, 0), site)


def _thermal_sweep(paper_dec):
    return _ground_state_sweep(paper_dec, 1.0, "temperature", np.geomspace(0.1, 10.0, 25))


def test_criterion_4_thermal_ceiling(paper_dec):
    with criterion(4, "thermal ceiling"):
        result = _thermal_sweep(paper_dec)
        assert np.all(np.diff(result.values) > 0)  # monotone in T
        peak = float(result.values.max())
        assert 0.40 <= peak < 0.50
        # derived oracle: two-level fixed point at T = 10 with gap 5/3
        nbar = 1.0 / math.expm1((5 / 3) / 10.0)
        fixed_point = nbar / (2 * nbar + 1)
        assert abs(float(result.values[-1]) - fixed_point) < 0.01
        assert fixed_point == pytest.approx(0.458, abs=1e-3)


def test_criterion_5_chemical_crossing(paper_dec):
    with criterion(5, "chemical-like crossing"):
        result = _ground_state_sweep(paper_dec, 10.0, "kappa", np.geomspace(1e-3, 1.0, 25), site=1)
        # monotone up to float resolution at the saturated plateau
        assert np.all(np.diff(result.values) > -1e-12)
        endpoint = float(result.values[-1])
        assert endpoint > 0.5
        # derived oracle: Gibbs excitation at T = 10
        gibbs_value = 1.0 - gibbs_state(paper_dec, 10.0).p[0]
        assert abs(endpoint - gibbs_value) < 0.01
        assert gibbs_value == pytest.approx(0.702, abs=1e-3)


def test_criterion_6_t_theta_bracket(paper_dec):
    with criterion(6, "T_theta bracket"):
        t_theta = locate_t_theta(_thermal_sweep(paper_dec))
        assert 0.5 <= t_theta <= 2.0


def test_criterion_7_zeros_scaling_law():
    with criterion(7, "zeros scaling law"):
        rng = np.random.default_rng(1007)
        for n in (2, 3, 4):
            expected = predicted_zero_count(n)
            for _ in range(100):
                spec = random_nondegenerate_chain(n, rng)
                baths = BathConfig(temperature=1.0, kappas=(1.0,) * n)
                dec = spectral_decomposition(build_hamiltonian(spec))
                rates = build_rate_matrix(coupling_matrix_elements(dec), baths)
                assert count_structural_zeros(rates.elems, rates.baths) == expected
        for n in (3, 4, 5):  # open nearest-neighbour chains, whose same-site gaps collide
            expected = predicted_zero_count(n)
            for _ in range(20):
                couplings = tuple((a, a + 1, float(rng.uniform(-0.5, 0.5))) for a in range(1, n))
                spec = ChainSpec(n, tuple(rng.uniform(0.5, 1.5, size=n)), couplings)
                baths = BathConfig(temperature=1.0, kappas=(1.0,) * n)
                dec = spectral_decomposition(build_hamiltonian(spec))
                rates = build_rate_matrix(coupling_matrix_elements(dec), baths)
                assert count_structural_zeros(rates.elems, rates.baths) == expected


def test_criterion_8_oracle_equivalence(paper_dec):
    with criterion(8, "rate-matrix vs Lindblad oracle"):
        rng = np.random.default_rng(1008)
        times = np.linspace(0.0, 10.0, 11)
        regimes = (((1.0, 1.0), 1.0), ((1e-5, 1.0), 10.0))
        for kappas, temperature in regimes:
            baths = BathConfig(temperature=temperature, kappas=kappas)
            elems = coupling_matrix_elements(paper_dec)
            rates = build_rate_matrix(elems, baths)
            superop = build_lindblad_superoperator(elems, baths)
            for _ in range(10):  # diagonal initial states
                p0 = rng.dirichlet(np.ones(4))
                dens = propagate_density(superop, np.diag(p0).astype(complex), times)
                pops = propagate_populations(rates, PopulationState(p0), times)
                assert np.max(np.abs(dens.populations - pops.populations)) < 1e-8
            for _ in range(10):  # coherent initial states
                rho0 = random_density(rng, 4)
                dephased = np.diag(np.diagonal(rho0).real).astype(complex)
                coherent = propagate_density(superop, rho0, times)
                diagonal = propagate_density(superop, dephased, times)
                assert np.max(np.abs(coherent.populations - diagonal.populations)) < 1e-12
                pops = propagate_populations(
                    rates, PopulationState(np.diagonal(rho0).real), times
                )
                assert np.max(np.abs(coherent.populations - pops.populations)) < 1e-8


def test_criterion_9_fig2_determinism(tmp_path):
    with criterion(9, "fig2 determinism"):
        out_a, out_b = tmp_path / "a", tmp_path / "b"
        assert main(["fig2", "--config", "ising2_paper", "--out", str(out_a)]) == 0
        assert main(["fig2", "--config", "ising2_paper", "--out", str(out_b)]) == 0
        names = ["fig2c.csv", "fig2d.csv", "fig2e.csv", "fig2f.csv"]
        for name in names:
            assert (out_a / name).is_file()
            assert filecmp.cmp(out_a / name, out_b / name, shallow=False), name


def test_criterion_endpoints_from_emitted_fig2(tmp_path, paper_spec):
    # the emitted CSVs carry the same endpoint physics as criteria 4 and 5
    from spinbath.export import read_csv_columns

    out = tmp_path / "fig2"
    assert main(["fig2", "--config", "ising2_paper", "--out", str(out)]) == 0
    thermal = read_csv_columns(out / "fig2e.csv")
    chemical = read_csv_columns(out / "fig2f.csv")
    assert thermal["P_exc"].max() < 0.5
    assert chemical["P_exc"][-1] > 0.5
