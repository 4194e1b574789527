"""Shared fixtures: the two-spin reference model and its bath variants."""

from __future__ import annotations

import numpy as np
import pytest
from scipy.sparse import csr_matrix
from scipy.sparse.csgraph import connected_components

from spinbath import (
    BathConfig,
    ChainSpec,
    build_hamiltonian,
    build_lindblad_superoperator,
    build_rate_matrix,
    coupling_matrix_elements,
    spectral_decomposition,
)

H2 = 0.5
DELTA = 1.0 / 3.0


PAULI = {
    "x": np.array([[0.0, 1.0], [1.0, 0.0]]),
    "y": np.array([[0.0, -1.0j], [1.0j, 0.0]]),
    "z": np.array([[1.0, 0.0], [0.0, -1.0]]),
}


def site_operator(axis: str, site: int, n_sites: int) -> np.ndarray:
    """Dense Kronecker embedding of the Pauli matrix `axis` at 1-based `site`
    (site 1 is the leftmost factor, the most significant bit)."""
    out = np.array([[1.0]])
    for n in range(1, n_sites + 1):
        out = np.kron(out, PAULI[axis] if n == site else np.eye(2))
    return out


def two_spin_energies(h1: float, h2: float, delta: float) -> list[float]:
    """The four closed-form eigenvalues of the two-spin chain, ascending."""
    return sorted([-h1 - h2 - delta, -h1 + h2 + delta, h1 - h2 + delta, h1 + h2 - delta])


@pytest.fixture
def paper_spec() -> ChainSpec:
    return ChainSpec(n_sites=2, fields=(1.0, H2), couplings=((1, 2, DELTA),))


@pytest.fixture
def paper_dec(paper_spec):
    return spectral_decomposition(build_hamiltonian(paper_spec))


@pytest.fixture
def paper_model(paper_dec):
    """Factory building (dec, elems, rates) for chosen couplings and temperature."""

    def build(kappas=(1.0, 1.0), temperature=1.0):
        baths = BathConfig(temperature=temperature, kappas=kappas)
        elems = coupling_matrix_elements(baths, paper_dec)
        rates = build_rate_matrix(paper_dec, elems, baths)
        return paper_dec, elems, rates

    return build


@pytest.fixture
def paper_superop(paper_dec):
    def build(kappas=(1.0, 1.0), temperature=1.0):
        baths = BathConfig(temperature=temperature, kappas=kappas)
        elems = coupling_matrix_elements(baths, paper_dec)
        return build_lindblad_superoperator(paper_dec, elems, baths)

    return build


def random_density(rng: np.random.Generator, dimension: int) -> np.ndarray:
    g = rng.normal(size=(dimension, dimension)) + 1j * rng.normal(size=(dimension, dimension))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


def csgraph_blocks(mask: np.ndarray) -> tuple[tuple[int, ...], ...]:
    """Oracle for structural_blocks: scipy's connected components of the
    undirected mask graph, ordered by smallest member."""
    n_comp, labels = connected_components(csr_matrix(mask), directed=False)
    return tuple(sorted(tuple(np.flatnonzero(labels == c).tolist()) for c in range(n_comp)))
