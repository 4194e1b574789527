"""Output checks for every op, needing no spinbath import.

Each check reads the artifacts one op wrote and returns a list of problems;
an empty list means the op's output is correct.  Numbers are compared to the
precision the CSVs print: 1e-12 plus one unit in the 12th significant digit
of the expected value.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
from scipy.linalg import expm

from inputs import Chain, energies

REFERENCE_DIR = Path(__file__).resolve().parent / "reference"
FIG2_FILES = ("fig2c.csv", "fig2d.csv", "fig2e.csv", "fig2f.csv")
SUM_TOL = 1e-10
NEGATIVE_TOL = 1e-8


def read_csv(path: Path, named: bool = True) -> tuple[list[str], np.ndarray]:
    """Column names (the first row, if `named`) and float rows of a '#'-headed CSV."""
    lines = [line for line in Path(path).read_text().splitlines() if line and not line.startswith("#")]
    names = lines[0].split(",") if named else []
    body = lines[1:] if named else lines
    if not body:
        return names, np.empty((0, len(names)))
    return names, np.loadtxt(body, delimiter=",", ndmin=2)


def read_json(path: Path):
    lines = Path(path).read_text().splitlines()
    return json.loads("\n".join(line for line in lines if not line.startswith("#")))


def close_to_print(actual: np.ndarray, expected: np.ndarray) -> bool:
    actual, expected = np.asarray(actual, dtype=float), np.asarray(expected, dtype=float)
    if actual.shape != expected.shape or not np.all(np.isfinite(actual)):
        return False
    magnitude = np.abs(expected)
    digit = np.where(magnitude > 0, 10.0 ** (np.floor(np.log10(np.where(magnitude > 0, magnitude, 1.0))) - 11), 0.0)
    return bool(np.all(np.abs(actual - expected) <= 1e-12 + digit))


def _populations(name: str, rows: np.ndarray, problems: list[str]) -> None:
    sums = rows.sum(axis=1)
    if np.max(np.abs(sums - 1.0)) > SUM_TOL:
        problems.append(f"{name}: a row sums to {sums[np.argmax(np.abs(sums - 1.0))]!r}")
    if rows.min() < -NEGATIVE_TOL:
        problems.append(f"{name}: population {rows.min()!r} below -{NEGATIVE_TOL}")


def check_fig2(out: Path) -> list[str]:
    """fig2c-fig2f against the values recorded from the seed commit."""
    problems = []
    for name in FIG2_FILES:
        names, rows = read_csv(out / name)
        ref_names, ref_rows = read_csv(REFERENCE_DIR / name)
        if names != ref_names or not close_to_print(rows, ref_rows):
            problems.append(f"{name}: differs from the recorded reference")
    return problems


def reference_trajectory(chain: Chain, temperature: float, kappas, times) -> np.ndarray:
    """Golden-rule populations from the ground state, by the seed commit's arithmetic.

    x-axis baths connect basis states that differ by one spin flip; the rate
    matrix is assembled in the energy-sorted basis and every snapshot is an
    independent matrix exponential.
    """
    e = energies(chain)
    order = np.argsort(e, kind="stable")
    label = np.empty_like(order)
    label[order] = np.arange(order.size)
    e = e[order]
    n, d = chain.n_sites, e.size
    matrix = np.zeros((d, d))
    for basis in range(d):
        for site in range(1, n + 1):
            i, j = label[basis], label[basis ^ (1 << (n - site))]
            if i >= j:
                continue
            omega = float(e[j] - e[i])
            nbar = float(1.0 / np.expm1(omega / temperature))
            coupled = kappas[site - 1] * omega
            matrix[i, j] = coupled * (1.0 + nbar)
            matrix[j, i] = coupled * nbar
    for i in range(d):
        matrix[i, i] = -(matrix[:i, i].sum() + matrix[i + 1 :, i].sum())
    p0 = np.zeros(d)
    p0[0] = 1.0
    return np.array([expm(matrix * t) @ p0 for t in times])


def check_trajectory(out: Path, reference: np.ndarray) -> list[str]:
    problems = []
    names, rows = read_csv(out / "trajectory.csv")
    pops = rows[:, 1:-1]
    _populations("trajectory.csv", pops, problems)
    if not close_to_print(rows[:, -1], 1.0 - pops[:, 0]):
        problems.append("trajectory.csv: P_exc differs from 1 - p_1")
    if not close_to_print(pops, reference):
        problems.append("trajectory.csv: differs from the reference propagation")
    return problems


def check_structure(out: Path, n_sites: int, sorted_energies: np.ndarray) -> list[str]:
    """Invariants of the spectrum, rates, steady, blocks and zeros-scaling artifacts."""
    d = 2**n_sites
    problems = []

    _, spectrum = read_csv(out / "spectrum.csv")
    if not close_to_print(spectrum[:, 1], sorted_energies):
        problems.append("spectrum.csv: energies differ from the chain's sorted spectrum")
    _, gaps = read_csv(out / "gaps.csv")
    if gaps.shape[0] != d * (d - 1) // 2:
        problems.append(f"gaps.csv: {gaps.shape[0]} rows, expected {d * (d - 1) // 2}")
    report = read_json(out / "degeneracy.json")
    if report["spectrum_degenerate"] or report["gaps_degenerate"]:
        problems.append("degeneracy.json: a nondegenerate chain is reported degenerate")

    _, rates = read_csv(out / "rates.csv")
    if rates.shape != (d, d):
        problems.append(f"rates.csv: shape {rates.shape}, expected {(d, d)}")
    else:
        residual = np.abs(rates.sum(axis=0))
        if np.any(residual > 1e-12 + 1e-11 * np.abs(rates).sum(axis=0)):
            problems.append(f"rates.csv: column {int(np.argmax(residual)) + 1} does not sum to 0")
        if np.any(rates[~np.eye(d, dtype=bool)] < 0):
            problems.append("rates.csv: negative off-diagonal rate")
    _, mask = read_csv(out / "rates_mask.csv", named=False)
    if np.count_nonzero(mask) != d * (n_sites + 1):
        problems.append(f"rates_mask.csv: {np.count_nonzero(mask)} nonzeros, expected {d * (n_sites + 1)}")

    _, steady = read_csv(out / "steady.csv")
    _populations("steady.csv", steady[:, 1:], problems)

    blocks = read_json(out / "blocks.json")
    if sorted(i for block in blocks for i in block) != list(range(1, d + 1)):
        problems.append("blocks.json: blocks do not partition 1..d")

    _, zeros = read_csv(out / "zeros_scaling.csv")
    if zeros.size == 0 or np.any(zeros[:, 1] != zeros[:, 2]):
        problems.append("zeros_scaling.csv: counted differs from predicted")
    return problems
