"""Deterministic result emission: CSV and JSON files with provenance headers.

All floats are written with 12 significant digits and every file starts with
'#'-prefixed provenance lines (command, config hash, parameter echo), so
identical configurations produce byte-identical artifacts.  JSON bodies
follow the same header lines; `read_json_body` strips them again.

A real matrix is mostly exact zeros (the rate matrix has d(N+1) nonzeros of
d^2), so `write_matrix_csv` writes every +0.0 entry as the literal "0", which
is what the 12-digit format gives it, and formats only the other entries
(-0.0 stays "-0"; NaN and +-inf are formatted as "nan", "inf", "-inf").
Masks are 0/1 grids rendered as one byte buffer.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError


def fmt(value) -> str:
    """Canonical 12-significant-digit rendering of a real number."""
    return format(float(value), ".12g")


def fmt_complex(value) -> str:
    """Render a complex entry as re+imi (e.g. '1.5-0.25i')."""
    z = complex(value)
    sign = "+" if z.imag >= 0 else "-"
    return f"{fmt(z.real)}{sign}{fmt(abs(z.imag))}i"


def provenance_lines(command: str, config_hash: str, params: dict) -> list[str]:
    """Header lines embedded at the top of every output file."""
    echo = " ".join(f"{k}={params[k]}" for k in sorted(params))
    return [
        f"# spinbath {command}",
        f"# config_sha256: {config_hash}",
        f"# params: {echo}",
    ]


def write_lines(path: Path, header: list[str], body: list[str]) -> Path:
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join([*header, *body]) + "\n")
    return path


def write_matrix_csv(path, matrix, header: list[str], labels: list[str] | None = None) -> Path:
    """Row-major matrix dump; complex entries become re+imi pairs."""
    m = np.asarray(matrix)
    body = [",".join(labels)] if labels is not None else []
    if np.iscomplexobj(m):
        body.extend(",".join(fmt_complex(x) for x in row) for row in m)
    else:
        body.extend(_real_rows(np.asarray(m, dtype=np.float64)))
    return write_lines(path, header, body)


def _real_rows(m: np.ndarray) -> list[str]:
    """fmt of every entry, one line per row, with a format call only where it can differ from "0"."""
    rows, cols = np.nonzero((m != 0) | np.signbit(m))  # NaN != 0 holds, -0.0 has its sign bit
    text = [format(x, ".12g") for x in m[rows, cols].tolist()]
    starts = np.searchsorted(rows, np.arange(m.shape[0] + 1)).tolist()
    cols = cols.tolist()
    lines = []
    for r in range(m.shape[0]):
        cells = ["0"] * m.shape[1]
        for k in range(starts[r], starts[r + 1]):
            cells[cols[k]] = text[k]
        lines.append(",".join(cells))
    return lines


def write_mask_csv(path, mask, header: list[str]) -> Path:
    """0/1 grid, one row per line; any other entry is refused."""
    grid = np.asarray(mask)
    if np.any((grid != 0) & (grid != 1)):
        raise ValidationError("mask entries must be 0 or 1")
    n, m = grid.shape
    buf = np.full((n, max(2 * m, 1)), ord(","), dtype=np.uint8)  # digit, comma, ..., digit, newline
    buf[:, 0 : 2 * m : 2] = grid + ord("0")
    buf[:, -1] = ord("\n")
    text = buf.tobytes().decode("ascii")
    return write_lines(path, header, [text[:-1]] if n else [])


def write_trajectory_csv(path, trajectory, header: list[str]) -> Path:
    """Columns t, p_1..p_d, P_exc."""
    pops = np.asarray(trajectory.populations)
    d = pops.shape[1]
    body = ["t," + ",".join(f"p_{i + 1}" for i in range(d)) + ",P_exc"]
    for t, row in zip(trajectory.times, pops):
        body.append(",".join([fmt(t), *(fmt(x) for x in row), fmt(1.0 - row[0])]))
    return write_lines(path, header, body)


def write_sweep_csv(path, sweep, header: list[str]) -> Path:
    """Columns grid_value, P_exc; sweep metadata joins the '#' header."""
    extra = [f"# axis: {sweep.axis}", f"# t_star: {fmt(sweep.t_star)}"]
    if sweep.site is not None:
        extra.append(f"# site: {sweep.site}")
    for key in sorted(sweep.metadata):
        extra.append(f"# {key}: {sweep.metadata[key]}")
    for k in sorted(sweep.errors):
        extra.append(f"# failed_point: index={k} grid_value={fmt(sweep.grid[k])} {sweep.errors[k]}")
    body = ["grid_value,P_exc"]
    for g, v in zip(sweep.grid, sweep.values):
        body.append(f"{fmt(g)},{fmt(v) if not np.isnan(v) else 'nan'}")
    return write_lines(path, header + extra, body)


def write_json(path, payload, header: list[str]) -> Path:
    """'#' provenance lines followed by a canonical JSON body."""
    body = json.dumps(payload, indent=1, sort_keys=True)
    return write_lines(path, header, [body])


def read_json_body(path) -> object:
    """Parse a JSON artifact, skipping the '#' provenance header."""
    lines = Path(path).read_text().splitlines()
    return json.loads("\n".join(line for line in lines if not line.startswith("#")))


def read_csv_columns(path) -> dict[str, np.ndarray]:
    """Parse a headered CSV artifact back into named float columns."""
    rows = [
        line.split(",")
        for line in Path(path).read_text().splitlines()
        if line and not line.startswith("#")
    ]
    names = rows[0]
    data = np.array([[float(x) for x in row] for row in rows[1:]])
    return {name: data[:, k] for k, name in enumerate(names)}
