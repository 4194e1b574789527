"""The CSV renderer against format(v, ".12g"), entry by entry and chunk by chunk."""

from __future__ import annotations

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from spinbath import export
from spinbath.errors import ValidationError
from spinbath.export import fmt, write_csv, write_gaps_csv, write_mask_csv


def rendered(values) -> list[str]:
    """The renderer's text of each value, one per line."""
    column = np.asarray(values, dtype=np.float64)[:, None]
    return export._render([column]).tobytes().decode().split("\n")[:-1]


def expected(values) -> list[str]:
    return [format(float(v), ".12g") for v in values]


def edge_values() -> list[float]:
    values = [0.0, -0.0, math.nan, -math.nan, math.inf, -math.inf, 5e-324, -5e-324,
              2.2250738585072014e-308, 1.7976931348623157e308, 999999999999.5, 99999999999.95,
              1e22, 1e23, 9.99999999999e33, 9.999999999995e33, 1e-11, 9.99999999999e-12,
              123456789012345.0, -123456789012.0, 0.0001, 1e-05, 1234.5, 0.5, 120.0]
    for k in range(-330, 309):
        p = float(f"1e{k}")
        values += [p, np.nextafter(p, 0.0), np.nextafter(p, math.inf), -p]
    # exact ties and their neighbours at the 12th significant digit
    rng = np.random.default_rng(8)
    for m, j in zip(rng.integers(10**11, 10**12, 300), rng.integers(-20, 25, 300)):
        tie = (float(m) + 0.5) * 10.0 ** float(j)
        values += [tie, np.nextafter(tie, 0.0), np.nextafter(tie, math.inf)]
    values += [(m + 0.5) / 10.0**j for m in range(1, 1000, 37) for j in range(1, 13)]
    return values


def test_renderer_matches_format_on_edge_values():
    values = edge_values()
    assert rendered(values) == expected(values)


@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(width=64, allow_nan=True, allow_infinity=True, allow_subnormal=True),
                min_size=1, max_size=40))
def test_renderer_matches_format_on_any_float(values):
    assert rendered(values) == expected(values)


@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(0, 10**8 - 1), min_size=1, max_size=40),
       st.lists(st.floats(width=64, allow_nan=True, allow_infinity=True), min_size=1, max_size=40))
def test_integer_and_float_blocks_side_by_side(labels, values):
    n = min(len(labels), len(values))
    ints = np.array(labels[:n])[:, None]
    floats = np.array(values[:n])[:, None]
    lines = export._render([ints, floats, ints]).tobytes().decode().split("\n")[:-1]
    assert lines == [f"{a},{fmt(v)},{a}" for a, v in zip(labels[:n], values[:n])]


def test_integer_blocks_are_range_checked():
    with pytest.raises(ValidationError):
        export._render([np.array([[10**8]])])
    with pytest.raises(ValidationError):
        export._render([np.array([[-1]])])


@pytest.mark.parametrize("chunk", [1, 7, 64])
def test_chunk_seams_do_not_change_the_files(tmp_path, monkeypatch, chunk):
    rng = np.random.default_rng(chunk)
    energies = np.sort(rng.uniform(-5, 5, 23))
    matrix = np.where(rng.random((9, 11)) < 0.8, 0.0, rng.standard_normal((9, 11)))
    matrix[0, 0], matrix[1, 2], matrix[2, 3] = -0.0, math.nan, -math.inf
    table = rng.standard_normal((13, 3)) * 10.0 ** rng.integers(-8, 8, (13, 3))
    monkeypatch.setattr(export, "_CHUNK", chunk)
    write_gaps_csv(tmp_path / "gaps.csv", energies, ["# h"])
    write_csv(tmp_path / "m.csv", ["# h", ",".join(["a"] * 11)], matrix)
    write_csv(tmp_path / "t.csv", ["# h", "k,x,y,z"], np.arange(13)[:, None], table)
    d = energies.size
    gaps = [f"{i + 1},{j + 1},{fmt(energies[j] - energies[i])}" for i in range(d) for j in range(i + 1, d)]
    rows = [",".join(fmt(x) for x in row) for row in matrix]
    lines = [f"{k}," + ",".join(fmt(x) for x in row) for k, row in enumerate(table)]
    assert (tmp_path / "gaps.csv").read_text() == "\n".join(["# h", "i,j,omega", *gaps]) + "\n"
    assert (tmp_path / "m.csv").read_text() == "\n".join(["# h", ",".join(["a"] * 11), *rows]) + "\n"
    assert (tmp_path / "t.csv").read_text() == "\n".join(["# h", "k,x,y,z", *lines]) + "\n"


def test_gaps_csv_memory_stays_bounded(tmp_path):
    energies = np.sort(np.random.default_rng(10).uniform(-20, 20, 1024))  # an N = 10 spectrum
    tracemalloc.start()
    try:
        write_gaps_csv(tmp_path / "gaps.csv", energies, ["# h"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (tmp_path / "gaps.csv").stat().st_size > 10 * 2**20
    assert peak < 4 * 2**20


def test_mask_csv_memory_stays_bounded(tmp_path):
    # the single-spin-flip pattern of an N = 10 chain with every site coupled
    d, states = 2**10, np.arange(2**10)
    flips = [(states[states & bit == 0], states[states & bit == 0] + bit) for bit in 1 << np.arange(10)]
    rows, cols = (np.concatenate(side) for side in zip(*flips))
    tracemalloc.start()
    try:
        write_mask_csv(tmp_path / "mask.csv", (rows, cols, np.ones(d, dtype=bool)), ["# h"])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    body = (tmp_path / "mask.csv").read_bytes().split(b"\n", 1)[1]
    assert len(body) == 2 * d * d and body.count(b"1") == d * 11
    assert peak < 2**20  # the text alone is 2 MiB
