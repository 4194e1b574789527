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
from spinbath.dynamics import _thermal_weights

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
def paper_table(paper_dec):
    """Factory building (dec, elems, baths), what steady_states and
    connectivity_blocks take, for chosen couplings and temperature."""

    def build(kappas=(1.0, 1.0), temperature=1.0):
        baths = BathConfig(temperature=temperature, kappas=kappas)
        return paper_dec, coupling_matrix_elements(baths, paper_dec), baths

    return build


@pytest.fixture
def paper_model(paper_table):
    """Factory building (dec, elems, rates) for chosen couplings and temperature."""

    def build(kappas=(1.0, 1.0), temperature=1.0):
        dec, elems, baths = paper_table(kappas, temperature)
        return dec, elems, build_rate_matrix(dec, elems, baths)

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


def dense_steady_vectors(rates) -> list[np.ndarray] | None:
    """Oracle for steady_states: the dense path it replaced.  Blocks are the
    csgraph components of the built mask, each with its restricted Gibbs
    vector; at T = 0 a state is absorbing when -Lambda[j, j] == 0.0, and None
    stands for a refusal, a block with two absorbing states."""
    blocks = csgraph_blocks(rates.nonzero_mask)
    if rates.temperature == 0.0:
        absorbing = np.diagonal(rates.matrix) == 0.0
        if any(np.count_nonzero(absorbing[list(block)]) > 1 for block in blocks):
            return None
    vectors = []
    for block in blocks:
        vector = np.zeros(rates.dimension)
        vector[list(block)] = _thermal_weights(rates.energies[list(block)], rates.temperature)
        vectors.append(vector)
    return vectors
