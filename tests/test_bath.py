"""Spectral density, thermal occupation, and coupling matrix elements."""

from __future__ import annotations

import math
import re
import warnings

import numpy as np
import pytest

from spinbath import (
    BathConfig,
    ChainSpec,
    ValidationError,
    bose_einstein,
    build_hamiltonian,
    coupling_matrix_elements,
    spectral_decomposition,
    spectral_density,
)

from conftest import site_operator


def _one_bath(kappa: float) -> BathConfig:
    return BathConfig(temperature=1.0, kappas=(kappa,))


class TestOhmicSpectralDensity:
    def test_paper_gap_value(self):
        assert spectral_density(_one_bath(1.0), 1, 5 / 3) == pytest.approx(5 / 3, rel=1e-15)

    def test_decoupled_site(self):
        assert spectral_density(_one_bath(0.0), 1, 2.7) == 0.0

    def test_linearity(self):
        assert spectral_density(_one_bath(1e-5), 1, 3.0) == pytest.approx(3e-5, rel=1e-15)

    def test_domain(self):
        for omega in (0.0, -1.0, np.array([1.0, 0.0])):
            with pytest.raises(ValidationError, match="spectral density requires omega > 0"):
                spectral_density(_one_bath(1.0), 1, omega)

    def test_dispatch_by_site(self):
        cfg = BathConfig(temperature=1.0, kappas=(0.25, 2.0))
        assert spectral_density(cfg, 1, 2.0) == pytest.approx(0.5)
        assert spectral_density(cfg, 2, 2.0) == pytest.approx(4.0)
        with pytest.raises(ValidationError):
            spectral_density(cfg, 3, 2.0)

    def test_one_site_per_frequency(self):
        cfg = BathConfig(temperature=1.0, kappas=(0.25, 2.0))
        assert spectral_density(cfg, np.array([2, 1, 2]), np.array([1.0, 2.0, 3.0])).tolist() == [2.0, 0.5, 6.0]
        with pytest.raises(ValidationError, match="site 0 out of range 1..2"):
            spectral_density(cfg, np.array([1, 0]), np.array([1.0, 2.0]))


class TestBoseEinstein:
    def test_log_two(self):
        assert bose_einstein(math.log(2), 1.0) == pytest.approx(1.0, rel=1e-12)

    def test_zero_temperature_limit(self):
        assert bose_einstein(1.0, 0.0) == 0.0

    def test_paper_regime_value(self):
        expected = 1.0 / (math.exp((5 / 3) / 10.0) - 1.0)  # direct evaluation
        assert bose_einstein(5 / 3, 10.0) == pytest.approx(expected, rel=1e-12)
        assert expected == pytest.approx(5.5139, abs=1e-4)

    def test_underflow_limit(self):
        assert bose_einstein(1.0, 1e-4) == 0.0  # occupation below double-precision range

    def test_domain(self):
        with pytest.raises(ValidationError, match="occupation requires omega > 0"):
            bose_einstein(0.0, 1.0)

    def test_negative_temperature_refused(self):
        with pytest.raises(ValidationError, match=re.escape("temperature must be >= 0, got -0.5")):
            bose_einstein(1.0, -0.5)

    def test_detailed_balance_precursor(self):
        rng = np.random.default_rng(21)
        for _ in range(100):
            omega = float(rng.uniform(0.05, 5.0))
            temperature = float(rng.uniform(0.05, 50.0))
            nbar = bose_einstein(omega, temperature)
            assert nbar / (1 + nbar) == pytest.approx(
                math.exp(-omega / temperature), rel=1e-12
            )

    def test_matches_the_errstate_formula_bit_for_bit(self):
        def reference(omega, temperature):
            with np.errstate(over="ignore"):
                return float(1.0 / np.expm1(omega / temperature))

        def warnings_of(fn, *args):
            with warnings.catch_warnings(record=True) as caught:
                warnings.simplefilter("always")
                value = fn(*args)
            return value, {str(w.message) for w in caught if w.category is RuntimeWarning}

        edge = 709.782712893384  # log of the largest double
        cases = [(w, 1.0) for w in (edge, np.nextafter(edge, 0.0), np.nextafter(edge, np.inf))]
        rng = np.random.default_rng(17)
        for temperature in (1e-4, 0.01, 1.0, 10.0, 1e6):
            omegas = 10.0 ** rng.uniform(-8.0, 3.0, size=200)
            cases += [(float(w), temperature) for w in (*omegas, 1e-300, 5e-324)]
        for omega, temperature in cases:
            expected, expected_warnings = warnings_of(reference, omega, temperature)
            got, got_warnings = warnings_of(bose_einstein, omega, temperature)
            assert got.hex() == expected.hex(), (omega, temperature)
            assert got_warnings <= expected_warnings, (omega, temperature)
        assert bose_einstein(5e-324, 1.0) == math.inf  # 1/x overflows for a subnormal x
        assert bose_einstein(np.nextafter(edge, np.inf), 1.0) == 0.0
        assert bose_einstein(edge, 1.0) > 0.0


class TestBathConfig:
    def test_negative_kappa_rejected(self):
        with pytest.raises(ValidationError):
            BathConfig(temperature=1.0, kappas=(-0.1, 1.0))

    def test_negative_temperature_rejected(self):
        with pytest.raises(ValidationError):
            BathConfig(temperature=-1.0, kappas=(1.0,))

    def test_at_least_one_bath(self):
        with pytest.raises(ValidationError, match="at least one bath is required"):
            BathConfig(temperature=1.0, kappas=())

    @pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
    def test_non_finite_values_rejected(self, value):
        # NaN > 0 is false: an unrefused NaN kappa would leave its site silently decoupled
        with pytest.raises(ValidationError, match="kappa for site 2 must be finite and >= 0"):
            BathConfig(temperature=1.0, kappas=(1.0, value))
        with pytest.raises(ValidationError, match="temperature must be finite and >= 0"):
            BathConfig(temperature=value, kappas=(1.0,))


def _pairs(elems, site=None):
    return [
        (i, j) for i, j, n in zip(elems.rows.tolist(), elems.cols.tolist(), elems.sites.tolist())
        if site in (None, n)
    ]


class TestCouplingMatrixElements:
    def test_site_one_pathways(self, paper_dec):
        cfg = BathConfig(temperature=1.0, kappas=(1.0, 1.0))
        elems = coupling_matrix_elements(cfg, paper_dec)
        assert _pairs(elems, 1) == [(0, 2), (1, 3)]  # |1> <-> |3>, |2> <-> |4>

    def test_site_two_pathways(self, paper_dec):
        cfg = BathConfig(temperature=1.0, kappas=(1.0, 1.0))
        elems = coupling_matrix_elements(cfg, paper_dec)
        assert _pairs(elems, 2) == [(0, 1), (2, 3)]  # |1> <-> |2>, |3> <-> |4>
        assert _pairs(elems) == [(0, 1), (0, 2), (1, 3), (2, 3)]  # row-major
        assert elems.sites.tolist() == [2, 1, 1, 2]

    def test_hermiticity(self):
        # each site's rows, with 1 in both triangles, rebuild its dense sigma_x;
        # |h_2| < Delta: site 2 is up in the lower level of one flip and down in the other
        dec = spectral_decomposition(build_hamiltonian(ChainSpec(2, (1.0, -0.2), ((1, 2, 1 / 3),))))
        elems = coupling_matrix_elements(BathConfig(temperature=1.0, kappas=(1.0, 1.0)), dec)
        u = np.eye(4)[:, dec.basis]
        for site in (1, 2):
            flips = elems.sites == site
            s = np.zeros((4, 4))
            s[elems.rows[flips], elems.cols[flips]] = 1.0
            assert np.array_equal(s + s.T, u.T @ site_operator(site, 2) @ u)

    def test_dimension_mismatch(self, paper_dec):
        cfg = BathConfig(temperature=1.0, kappas=(1.0, 1.0, 1.0))
        with pytest.raises(ValidationError):
            coupling_matrix_elements(cfg, paper_dec)

    def test_x_coupling_exchanges_energy(self, paper_spec):
        # [H, sigma_x^(n)] != 0 for both sites of the reference chain
        h = build_hamiltonian(paper_spec)
        for site in (1, 2):
            s = site_operator(site, 2)
            assert np.max(np.abs(h @ s - s @ h)) > 0.1

    def test_independent_of_gauge_for_nondegenerate_spectra(self, paper_spec):
        # rebuilding the decomposition must reproduce the same table exactly
        dec_a = spectral_decomposition(build_hamiltonian(paper_spec))
        dec_b = spectral_decomposition(build_hamiltonian(paper_spec))
        cfg = BathConfig(temperature=1.0, kappas=(1.0, 1.0))
        a, b = coupling_matrix_elements(cfg, dec_a), coupling_matrix_elements(cfg, dec_b)
        for name in ("rows", "cols", "sites"):
            assert np.array_equal(getattr(a, name), getattr(b, name))
