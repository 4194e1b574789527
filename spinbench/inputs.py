"""Seeded workload inputs, drawn without importing spinbath.

Chains are drawn the way `spinbath.analysis.random_nondegenerate_chain` draws
them (fields from U(0.5, 1.5), a coupling from U(-0.5, 0.5) on every site
pair) and redrawn until they pass the package's documented nondegeneracy rule:
no two sorted energies and no two positive gaps within `tol`, and no gap below
`tol`.  The rule is evaluated here with numpy, so a later change to the
package's own check cannot change which configs the benchmark writes.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from itertools import combinations
from pathlib import Path

import numpy as np

DEGENERACY_TOL = 1e-9
MAX_DRAWS = 1000


@dataclass(frozen=True)
class Chain:
    fields: tuple[float, ...]
    couplings: tuple[tuple[int, int, float], ...]

    @property
    def n_sites(self) -> int:
        return len(self.fields)


def energies(chain: Chain) -> np.ndarray:
    """Energies of all 2^N basis states, site 1 the most significant bit.

    Mirrors the arithmetic order of the package's diagonal energies so both
    sides see the same floats.
    """
    n = chain.n_sites
    idx = np.arange(2**n, dtype=np.int64)
    s = 1 - 2 * ((idx[:, None] >> (n - np.arange(1, n + 1))[None, :]) & 1)
    e = s @ np.asarray(chain.fields)
    for a, b, delta in chain.couplings:
        e = e - delta * (s[:, a - 1] * s[:, b - 1])
    return e.astype(np.float64)


def nondegenerate(e: np.ndarray, tol: float = DEGENERACY_TOL) -> bool:
    e = np.sort(e, kind="stable")
    if np.any(np.diff(e) < tol):
        return False
    i, j = np.triu_indices(e.size, k=1)
    gaps = np.sort(e[j] - e[i])
    return bool(gaps[0] >= tol and not np.any(np.diff(gaps) < tol))


def draw_chain(n_sites: int, rng: np.random.Generator) -> Chain:
    for _ in range(MAX_DRAWS):
        fields = tuple(float(h) for h in rng.uniform(0.5, 1.5, size=n_sites))
        couplings = tuple(
            (a, b, float(rng.uniform(-0.5, 0.5)))
            for a, b in combinations(range(1, n_sites + 1), 2)
        )
        chain = Chain(fields, couplings)
        if nondegenerate(energies(chain)):
            return chain
    raise RuntimeError(f"no nondegenerate {n_sites}-site chain in {MAX_DRAWS} draws")


def _floats(values) -> str:
    return ", ".join(repr(float(v)) for v in values)


def config_text(chain: Chain, temperature: float, kappas, run: dict) -> str:
    """INI run file; floats use repr so the parser reads back the drawn values."""
    lines = [
        "[chain]",
        f"n = {chain.n_sites}",
        f"fields = {_floats(chain.fields)}",
        "couplings = " + ", ".join(f"{a}-{b}: {d!r}" for a, b, d in chain.couplings),
        "",
        "[bath]",
        f"temperature = {float(temperature)!r}",
        f"kappas = {_floats(kappas)}",
        "axes = x",
        "",
        "[run]",
        *(f"{key} = {value}" for key, value in run.items()),
    ]
    return "\n".join(lines) + "\n"


def write_config(path: Path, text: str) -> str:
    """Write a config file and return its sha256."""
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(text)
    return hashlib.sha256(text.encode()).hexdigest()
