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
from spinbath.generator import _structural_pattern

H2 = 0.5
DELTA = 1.0 / 3.0


SIGMA_X = np.array([[0.0, 1.0], [1.0, 0.0]])


def site_operator(site: int, n_sites: int) -> np.ndarray:
    """Dense Kronecker embedding of sigma_x, every bath's coupling operator, at
    1-based `site` (site 1 is the leftmost factor, the most significant bit)."""
    out = np.array([[1.0]])
    for n in range(1, n_sites + 1):
        out = np.kron(out, SIGMA_X if n == site else np.eye(2))
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
    """Factory building (elems, baths), what connectivity_blocks and
    structural_blocks take, for chosen couplings and temperature."""

    def build(kappas=(1.0, 1.0), temperature=1.0):
        baths = BathConfig(temperature=temperature, kappas=kappas)
        return coupling_matrix_elements(baths, paper_dec), baths

    return build


@pytest.fixture
def paper_model(paper_table):
    """Factory building (elems, rates) for chosen couplings and temperature."""

    def build(kappas=(1.0, 1.0), temperature=1.0):
        elems, baths = paper_table(kappas, temperature)
        return elems, build_rate_matrix(elems, baths)

    return build


@pytest.fixture
def paper_superop(paper_dec):
    def build(kappas=(1.0, 1.0), temperature=1.0):
        baths = BathConfig(temperature=temperature, kappas=kappas)
        elems = coupling_matrix_elements(baths, paper_dec)
        return build_lindblad_superoperator(elems, baths)

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


def table_mask(rates) -> np.ndarray:
    """The structural pattern of a built rate matrix as a dense d x d mask, for
    comparison with an independent reference."""
    coupled, touched = _structural_pattern(rates.elems, rates.baths)
    rows, cols = rates.elems.rows[coupled], rates.elems.cols[coupled]
    mask = np.diag(touched)
    mask[rows, cols] = mask[cols, rows] = True
    return mask


def value_edges(rates) -> np.ndarray:
    """The pairs joined by a nonzero rate in either direction.  Every coupled flip
    has a damping rate J(omega)(1 + nbar) > 0 at any T >= 0, so these are the
    structural edges, read off the values rather than the table."""
    m = rates.matrix
    return (m != 0) | (m.T != 0)


def steady_vectors(partition) -> list[np.ndarray]:
    """The restricted Gibbs weights of each block of a BlockPartition embedded
    in the full dimension: one d-vector per block, for comparison with an
    oracle's."""
    vectors = []
    for block, weights in zip(partition.blocks, partition.weights):
        vector = np.zeros(partition.dimension)
        vector[list(block)] = weights
        vectors.append(vector)
    return vectors


def dense_steady_vectors(rates) -> list[np.ndarray] | None:
    """Oracle for connectivity_blocks' steady states: the dense path it
    replaced, one d-vector per block (`steady_vectors`).  Blocks are the
    csgraph components of the built matrix's nonzero rates (`value_edges`),
    each with its restricted Gibbs vector; at T = 0 a state is absorbing when
    -Lambda[j, j] == 0.0, and None stands for a refusal, a block with two
    absorbing states."""
    blocks = csgraph_blocks(value_edges(rates))
    if rates.baths.temperature == 0.0:
        absorbing = np.diagonal(rates.matrix) == 0.0
        if any(np.count_nonzero(absorbing[list(block)]) > 1 for block in blocks):
            return None
    vectors = []
    for block in blocks:
        vector = np.zeros(rates.dimension)
        vector[list(block)] = _thermal_weights(rates.elems.spectrum.energies[list(block)], rates.baths.temperature)
        vectors.append(vector)
    return vectors
