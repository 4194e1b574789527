"""Hamiltonian construction, diagonalization, degeneracy and frustration checks."""

from __future__ import annotations

import itertools
import math
import re

import numpy as np
import pytest

from spinbath import (
    CapacityError,
    ChainSpec,
    SpectralDecomposition,
    ValidationError,
    build_hamiltonian,
    check_degeneracy,
    check_frustration,
    diagonal_energies,
    spectral_decomposition,
)

from conftest import two_spin_energies


def brute_force_energies(spec: ChainSpec) -> np.ndarray:
    """Independent oracle: term-by-term evaluation over explicit spin tuples."""
    n = spec.n_sites
    energies = np.empty(2 ** n)
    for bits in itertools.product((0, 1), repeat=n):
        index = int("".join(map(str, bits)), 2)
        spins = [1 - 2 * b for b in bits]  # site 1 first
        e = sum(h * s for h, s in zip(spec.fields, spins))
        e -= sum(delta * spins[a - 1] * spins[b - 1] for a, b, delta in spec.couplings)
        energies[index] = e
    return energies


class TestBuildHamiltonian:
    def test_paper_two_spin_diagonal(self):
        spec = ChainSpec(2, (1.0, 0.5), ((1, 2, 1 / 3),))
        h = build_hamiltonian(spec)
        assert np.count_nonzero(h - np.diag(np.diagonal(h))) == 0
        # basis order uu, ud, du, dd
        expected = np.array([7 / 6, 5 / 6, -1 / 6, -11 / 6])
        assert np.max(np.abs(np.diagonal(h) - expected)) < 1e-12

    def test_single_free_spin(self):
        h = build_hamiltonian(ChainSpec(1, (1.0,)))
        assert np.array_equal(h, np.diag([1.0, -1.0]))

    def test_three_site_brute_force(self):
        spec = ChainSpec(3, (1.0, 0.6, 0.3), ((1, 2, 0.2), (2, 3, 0.1)))
        h = build_hamiltonian(spec)
        assert np.max(np.abs(np.diagonal(h) - brute_force_energies(spec))) < 1e-12
        # all-spins-down entry: -1 - 0.6 - 0.3 - 0.2 - 0.1
        assert abs(h[-1, -1] - (-2.2)) < 1e-12

    def test_invalid_sites_rejected(self):
        with pytest.raises(ValidationError):
            ChainSpec(2, (1.0, 0.5), ((1, 3, 0.1),))
        with pytest.raises(ValidationError):
            ChainSpec(2, (1.0, 0.5), ((2, 1, 0.1),))
        with pytest.raises(ValidationError):
            ChainSpec(2, (1.0, 0.5), ((1, 2, 0.1), (1, 2, 0.2)))
        with pytest.raises(ValidationError):
            ChainSpec(2, (1.0,))

    @pytest.mark.parametrize("couplings, message", [
        (((1.5, 2, 0.1),), "coupling sites (1.5,2) must be integers"),
        ((("1", 2, 0.1),), "coupling sites ('1',2) must be integers"),
        (((True, 2, 0.1),), "coupling sites (True,2) must be integers"),
    ])
    def test_coupling_sites_must_be_integers(self, couplings, message):
        # int() would silently turn site 1.5 into 1 and '1' into 1
        with pytest.raises(ValidationError, match=re.escape(message)):
            ChainSpec(3, (1.0, 0.5, 0.3), couplings)
        assert ChainSpec(3, (1.0, 0.5, 0.3), ((np.int64(1), np.int64(2), 0.1),)).couplings == ((1, 2, 0.1),)

    @pytest.mark.parametrize("fields, couplings, message", [
        ((float("nan"), 0.5), (), "field for site 1 must be finite, got nan"),
        ((1.0, float("-inf")), (), "field for site 2 must be finite, got -inf"),
        ((1.0, 0.5), ((1, 2, float("nan")),), "coupling for sites (1,2) must be finite, got nan"),
        ((1.0, 0.5), ((1, 2, float("inf")),), "coupling for sites (1,2) must be finite, got inf"),
    ])
    def test_non_finite_parameters_rejected(self, fields, couplings, message):
        # NaN energies would pass the table's nondegeneracy check and the frustration check
        with pytest.raises(ValidationError, match=re.escape(message)):
            ChainSpec(2, fields, couplings)

    @pytest.mark.parametrize("n_sites", [0, -1, 2.0, 1.5, "2", True])
    def test_site_count_must_be_a_positive_integer(self, n_sites):
        # 2.0 passes a range check and then breaks decompose_chain with a bare TypeError
        with pytest.raises(ValidationError, match=re.escape(f"n_sites must be an integer >= 1, got {n_sites}")):
            ChainSpec(n_sites, (1.0, 0.5))
        assert ChainSpec(np.int64(2), (1.0, 0.5)).dimension == 4

    def test_dense_capacity_guard(self):
        spec = ChainSpec(14, (1.0,) * 14)
        with pytest.raises(CapacityError):
            build_hamiltonian(spec)


class TestSpectralDecomposition:
    def test_paper_eigensystem(self, paper_dec):
        expected = two_spin_energies(1.0, 0.5, 1 / 3)
        assert np.max(np.abs(paper_dec.energies - expected)) < 1e-12
        # |1> = dd (index 3), |2> = du (2), |3> = ud (1), |4> = uu (0)
        assert paper_dec.basis.tolist() == [3, 2, 1, 0]

    @pytest.mark.parametrize("build", [
        lambda: spectral_decomposition(np.diag([0.0, math.nan, 1.0, 2.0])),
        lambda: spectral_decomposition(np.diag([0.0, 1.0, math.inf, 2.0])),
        lambda: SpectralDecomposition([0.0, 1.0, 2.0, math.nan], np.arange(4)),
        lambda: SpectralDecomposition([math.nan], [0]),
        lambda: SpectralDecomposition([-math.inf, 0.0], [0, 1]),
    ])
    def test_non_finite_energies_refused(self, build):
        # a NaN energy sorts last and fails no spacing check, so it would be admitted as nondegenerate
        with pytest.raises(ValidationError, match="energies must be finite"):
            build()

    @pytest.mark.parametrize("build, message", [
        (lambda: SpectralDecomposition([0.0, 1.0], [0]), "energies/basis shapes are inconsistent"),
        (lambda: SpectralDecomposition([[0.0, 1.0]], [[0, 1]]), "energies/basis shapes are inconsistent"),
        (lambda: SpectralDecomposition([1.0, 0.0], [0, 1]), "energies must be sorted ascending"),
        (lambda: spectral_decomposition(np.zeros((2, 3))), "expected a square matrix, got shape (2, 3)"),
        (lambda: spectral_decomposition(np.zeros(4)), "expected a square matrix, got shape (4,)"),
        (lambda: spectral_decomposition(np.diag([0.0, 1j])), "matrix is not Hermitian within 1e-12"),
    ])
    def test_malformed_input_refused(self, build, message):
        with pytest.raises(ValidationError, match=re.escape(message)):
            build()

    def test_scaled_identity(self):
        dec = spectral_decomposition(2.5 * np.eye(6))
        assert np.allclose(dec.energies, 2.5)
        assert dec.basis.tolist() == list(range(6))

    def test_three_site_sorted(self):
        spec = ChainSpec(3, (1.0, 0.6, 0.3), ((1, 2, 0.2), (2, 3, 0.1)))
        dec = spectral_decomposition(build_hamiltonian(spec))
        assert np.max(np.abs(dec.energies - np.sort(brute_force_energies(spec)))) < 1e-12

    def test_non_hermitian_rejected(self):
        m = np.array([[0.0, 1.0], [0.0, 0.0]])
        with pytest.raises(ValidationError):
            spectral_decomposition(m)

    def test_reconstruction_and_unitarity_random_hermitian(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            d = int(rng.integers(2, 9))
            g = rng.normal(size=(d, d)) + 1j * rng.normal(size=(d, d))
            with pytest.raises(ValidationError, match="diagonal"):
                spectral_decomposition((g + g.conj().T) / 2)
            h = np.diag(rng.normal(size=d))
            dec = spectral_decomposition(h)
            u = np.eye(d)[:, dec.basis]  # a permutation matrix, hence unitary
            assert np.array_equal((u * dec.energies) @ u.T, h)

    def test_two_spin_formula_property(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            h1, h2, delta = rng.uniform(-2, 2, size=3)
            spec = ChainSpec(2, (h1, h2), ((1, 2, delta),))
            dec = spectral_decomposition(build_hamiltonian(spec))
            assert np.max(np.abs(dec.energies - two_spin_energies(h1, h2, delta))) < 1e-12

    def test_tie_break_by_basis_index(self):
        dec = spectral_decomposition(np.diag([1.0, -1.0, 1.0, -1.0]))
        assert dec.basis.tolist() == [1, 3, 0, 2]


class TestCheckDegeneracy:
    def test_paper_gaps_all_distinct(self, paper_dec):
        report = check_degeneracy(paper_dec, tol=1e-9)
        assert report.nondegenerate
        # enumerate the six gaps from the closed-form eigenvalues
        e = two_spin_energies(1.0, 0.5, 1 / 3)
        gaps = sorted(e[j] - e[i] for i in range(4) for j in range(i + 1, 4))
        expected = sorted([5 / 3, 8 / 3, 3.0, 1.0, 4 / 3, 1 / 3])
        assert np.max(np.abs(np.array(gaps) - expected)) < 1e-12

    def test_symmetric_pair_degenerate(self):
        dec = spectral_decomposition(build_hamiltonian(ChainSpec(2, (1.0, 1.0))))
        report = check_degeneracy(dec, 1e-9)
        assert report.spectrum_degenerate
        assert report.spectrum_pairs

    def test_matched_field_coupling_degenerate(self):
        # h = (1, 1/2), Delta = 1/2 gives E = (-2, 0, 1, 1)
        spec = ChainSpec(2, (1.0, 0.5), ((1, 2, 0.5),))
        dec = spectral_decomposition(build_hamiltonian(spec))
        assert np.max(np.abs(dec.energies - np.array([-2.0, 0.0, 1.0, 1.0]))) < 1e-12
        assert check_degeneracy(dec, 1e-9).spectrum_degenerate

    @pytest.mark.parametrize("tol", [0.0, -1e-9, float("nan")])
    def test_tolerance_must_be_positive(self, tol):
        # a NaN tolerance would call the degenerate fields = (1, 1) chain nondegenerate
        dec = spectral_decomposition(build_hamiltonian(ChainSpec(2, (1.0, 1.0))))
        with pytest.raises(ValidationError, match="tolerance must be positive"):
            check_degeneracy(dec, tol)

    def test_report_deterministic(self, paper_dec):
        a = check_degeneracy(paper_dec, 1e-9)
        b = check_degeneracy(paper_dec, 1e-9)
        assert a == b


class TestCheckFrustration:
    def test_paper_parameters_unfrustrated(self, paper_spec):
        assert check_frustration(paper_spec) is True

    def test_single_spin(self):
        assert check_frustration(ChainSpec(1, (0.7,))) is True

    def test_antiferromagnetic_triangle_frustrated(self):
        spec = ChainSpec(3, (0.0, 0.0, 0.0), ((1, 2, -1.0), (2, 3, -1.0), (1, 3, -1.0)))
        # per-term minima sum to -3 while the best configuration reaches -1
        assert check_frustration(spec) is False
        assert diagonal_energies(spec).min() == pytest.approx(-1.0)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(13)
        for _ in range(20):
            n = int(rng.integers(2, 5))
            fields = rng.uniform(-1, 1, size=n)
            pairs = [(a, b) for a in range(1, n + 1) for b in range(a + 1, n + 1)]
            couplings = [(a, b, float(rng.uniform(-1, 1))) for a, b in pairs]
            spec = ChainSpec(n, tuple(fields), tuple(couplings))
            perm = rng.permutation(n) + 1
            relabeled = ChainSpec(
                n,
                tuple(fields[np.argsort(perm)]),
                tuple(
                    (min(perm[a - 1], perm[b - 1]), max(perm[a - 1], perm[b - 1]), d)
                    for a, b, d in couplings
                ),
            )
            assert check_frustration(spec) == check_frustration(relabeled)

    def test_enumeration_capacity(self):
        spec = ChainSpec(25, (1.0,) * 25)
        with pytest.raises(CapacityError):
            check_frustration(spec)
