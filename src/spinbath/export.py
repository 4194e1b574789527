"""Deterministic result emission: CSV and JSON files with provenance headers.

All floats are written with 12 significant digits, exactly as fmt renders
them (format(v, ".12g"), the correctly rounded decimal), and every file
starts with '#'-prefixed provenance lines (command, config hash, parameter
echo), so identical configurations produce byte-identical artifacts.  JSON
bodies follow the same header lines; `read_json_body` strips them again.

CSV bodies are rendered as byte arrays, a bounded chunk of rows at a time,
and each chunk is written to the file before the next is rendered, so the
working set does not grow with the file.  A float v goes through exact
binary64 arithmetic: k = floor(log10|v|) and m = rint(|v| 10^(11-k)), one
multiplication or division by an exactly representable power 10^0..10^22,
so m is the rounding of the exact product unless that product lies within
two spacings of a tie.  The 12 digits of m are split at the decimal point
and turned into ASCII eight at a time in uint64 lanes, and each value's text
is a window of a 32-byte row aligned at the decimal point: fixed or
scientific notation, trailing zeros dropped, '-' for a set sign bit (so -0.0
prints "-0").  Any value this cannot settle exactly (m outside
[10^11, 10^12), 10^(11-k) not exact, a near tie, NaN or +-inf) is rendered
by format() itself: about 0.06% of the gaps of an 8-site spectrum.  Integer
columns (row labels) print as integers.  Tables that are mostly zeros are
rendered from what they are built from, never from a dense array: a rate
matrix from its transition table (each flip's damping and gain, and the
outflow diagonal) and steady states from their block partition (the block
labels and the d restricted Gibbs weights), with "0" spliced in for every
other cell, and a structural mask from its pattern as a 0/1 grid, straight
to bytes.  Each is written a bounded chunk of rows at a time.
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np

from .errors import ValidationError


def fmt(value) -> str:
    """Canonical 12-significant-digit rendering of a real number."""
    return format(float(value), ".12g")


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


def write_csv(path, lines: list[str], *blocks) -> Path:
    """`lines` (header and column names), then one CSV line per row of the 2-D
    `blocks` placed side by side: integer blocks (0 <= n < 10^8) print as
    integers, every other entry as fmt prints it."""
    blocks = [b if b.dtype.kind in "iu" else b.astype(np.float64, copy=False) for b in map(np.asarray, blocks)]
    n_rows = blocks[0].shape[0] if blocks else 0
    floats = sum(b.size for b in blocks if b.dtype.kind == "f")
    step = _CHUNK * n_rows // floats if floats else _CHUNK
    if not sum(b.shape[1] for b in blocks):  # rows without entries are empty lines
        return _write_rows(path, lines, n_rows, step, lambda a, b: b"\n" * (b - a))
    return _write_rows(path, lines, n_rows, step, lambda a, b: _render([blk[a:b] for blk in blocks]))


def _write_cells(path, lines: list[str], n_rows: int, n_cols: int, at: np.ndarray, values: np.ndarray) -> Path:
    """Write `lines`, then n_rows CSV lines of n_cols >= 1 cells: the text of
    values[k] in the flat cell at[k] (distinct cells, in any order) and "0" in
    every other cell.  Only the values are rendered; a step takes _MASK_BYTES
    of "0," cells and the values among them."""
    order = np.argsort(at)
    at, values = at[order], values[order]
    line = np.full(n_cols, ord(","), dtype=np.uint8)
    line[-1] = ord("\n")

    def render(a: int, b: int) -> np.ndarray:
        seps = np.tile(line, b - a)
        lo, hi = np.searchsorted(at, (a * n_cols, b * n_cols))
        cells = at[lo:hi] - a * n_cols
        width = np.full(seps.size, 2, dtype=np.int32)  # "0" and its separator
        if cells.size:
            rows, keep = _texts(values[lo:hi], seps[cells])
            width[cells] = keep.sum(axis=1)
        start = np.cumsum(width, dtype=np.int32) - width
        out = np.empty(int(start[-1]) + int(width[-1]), dtype=np.uint8)
        out[start] = ord("0")  # every cell as "0" and its separator; the texts then overwrite theirs
        out[start + 1] = seps
        if cells.size:
            w = width[cells]
            out[np.repeat(start[cells] - (np.cumsum(w) - w), w) + np.arange(int(w.sum()))] = rows[keep]
        return out

    return _write_rows(path, lines, n_rows, _MASK_BYTES // (2 * n_cols), render)


def write_rates_csv(path, rates, header: list[str]) -> Path:
    """Lambda of a RateMatrix under the column labels E=<energy>, from its table:
    each flip's damping at (i, j) and gain at (j, i), -outflow on the whole
    diagonal (a state no coupled flip touches prints "-0"), "0" elsewhere."""
    rows, cols, d = rates.elems.rows, rates.elems.cols, rates.dimension
    at = np.concatenate((rows * d + cols, cols * d + rows, np.arange(d) * (d + 1)))
    values = np.concatenate((rates.damping, rates.gain, -rates.outflow))
    labels = ",".join(f"E={fmt(e)}" for e in rates.elems.spectrum.energies)
    return _write_cells(path, [*header, labels], d, d, at, values)


def write_gaps_csv(path, energies, header: list[str]) -> Path:
    """Columns i, j, omega = E_j - E_i for every level pair i < j (1-based), row-major."""
    e = np.asarray(energies, dtype=np.float64)
    d = e.size
    counts = np.arange(d - 1, -1, -1)  # level i pairs with j = i + 1 .. d - 1
    ends = np.cumsum(counts)  # one past the last pair of each level

    def pairs(a: int, b: int) -> np.ndarray:
        levels = np.arange(*np.searchsorted(ends, [a, b - 1], side="right") + [0, 1])
        i = np.repeat(levels, np.minimum(ends[levels], b) - np.maximum(ends[levels] - counts[levels], a))
        j = np.arange(a, b) - ends[i] + d
        return _render([np.column_stack((i + 1, j + 1)), (e[j] - e[i])[:, None]])

    return _write_rows(path, [*header, "i,j,omega"], d * (d - 1) // 2, _CHUNK, pairs)


# Rendering.  A float's text lives in a 32-byte row of four uint64 words:
# integer digits right-aligned in bytes 0..14, '.' at 15, 15 fraction digits
# from 16, so the text is the window row[start:end], and byte `end` takes the
# separator (after a scientific suffix 'e+XX', written at `end` first).
# An integer's text is right-aligned in bytes 0..7 of a 16-byte row.
_CHUNK = 2048  # float entries rendered per step
_MASK_BYTES = 2**18  # "0" cells of a mask, a rate matrix or steady states rendered per step
_FLOAT_WIDTH, _INT_WIDTH = 32, 16
_INT_MAX = 10**8
_POW10 = np.array([10.0**k for k in range(23)])  # exact in binary64
_MULTIPLY = np.concatenate([np.ones(22), _POW10])  # 10^s at s + 22 for s = -22..22, else 1
_DIVIDE = np.concatenate([_POW10[:0:-1], np.ones(23)])  # 10^-s at s + 22 for s < 0, else 1
_TIE = 2.0**-12  # two spacings of binary64 below 2^40
_EXPONENTS = np.frombuffer(b"".join(f"e{k:+03d}".encode() for k in range(-11, 34)), dtype=np.uint8).reshape(-1, 4)
_DIGIT_LIMITS = 10 ** np.arange(1, 8)
_ASCII_ZEROS = np.uint64(0x3030303030303030)
_DOT = np.uint64((ord("0") ^ ord(".")) << 56)  # turns byte 7 of word 1 from '0' into '.'


def _windows(width: int) -> np.ndarray:
    """Row start * width + end keeps columns start..end (the text and its separator)."""
    cols = np.arange(width)
    keep = (cols >= cols[:, None, None]) & (cols <= cols[None, :, None])
    return keep.reshape(width * width, width)


_FLOAT_WINDOWS, _INT_WINDOWS = _windows(_FLOAT_WIDTH), _windows(_INT_WIDTH)


def _ascii_digits(words: np.ndarray) -> None:
    """In place: each uint64 below 10^8 becomes its 8 ASCII digits, most significant
    in the lowest byte, by splitting into 32-, 16- and 8-bit lanes (x // 100 is
    x * 5243 >> 19 below 10^4, x // 10 is x * 103 >> 10 below 100)."""
    high = words // 10000
    words -= high * 10000
    words <<= 32
    words |= high
    for mul, shift, mask, base, lane in ((5243, 19, 0x0000007F0000007F, 100, 16),
                                         (103, 10, 0x000F000F000F000F, 10, 8)):
        np.multiply(words, mul, out=high)
        high >>= shift
        high &= mask
        words -= high * base
        words <<= lane
        words |= high
    words |= _ASCII_ZEROS


def _float_cells(v: np.ndarray):
    """(rows, start, end) with the text of v[i] in rows[i, start[i]:end[i]]."""
    n = v.size
    a = np.abs(v)
    finite = a < np.inf
    usable = finite & (a > 0)
    x = np.where(usable, a, 1.0)
    s = np.floor(np.log10(x)).astype(np.intp)  # k = floor(log10 |v|)
    np.subtract(11, s, out=s)
    np.clip(s, -22, 22, out=s)  # the scale 10^s is exact; k = 11 - s from here on
    y = x * _MULTIPLY[s + 22] / _DIVIDE[s + 22]
    m = np.rint(y)
    exact = (y >= 1e11) & (m < 1e12) & (np.abs(np.abs(y - m) - 0.5) > _TIE)
    m *= exact & usable  # zero, and any value left to format(), print as "0" here
    scientific = (s > 15) | (s < 0)  # k < -4 or k >= 12
    point = np.where(scientific, 11, np.minimum(s, 12))  # digits right of the decimal point
    scale = _POW10[point]
    whole = np.floor(m / scale)
    frac = (m - whole * scale) * _POW10[np.where(scientific, 4, 15 - s)]  # 15 digits
    words = np.empty((n, 4), dtype=np.uint64)
    for col, part in ((0, whole), (2, frac)):  # 15 digits as 7 + 8, the 8th a pad
        high = np.floor(part / 1e7)
        words[:, col] = high
        words[:, col + 1] = (part - high * 1e7) * 10
    _ascii_digits(words)
    words[:, 1] ^= _DOT
    tail = words[:, 3] ^ _ASCII_ZEROS  # nonzero bytes are nonzero digits
    last = np.where(tail != 0, tail, words[:, 2] ^ _ASCII_ZEROS)
    # the highest nonzero byte holds a digit of at most 9, so float conversion keeps it
    digits = np.floor(np.log2(np.maximum(last, 1).astype(np.float64))).astype(np.intp) >> 3
    digits += np.where(tail != 0, 9, 1)
    end = np.where(frac != 0, 16 + digits, 15)
    start = 15 - np.where(scientific | (s > 11), 1, 12 - s)
    rows = words.view(np.uint8)
    flat = rows.reshape(-1)
    at = np.arange(0, n * _FLOAT_WIDTH, _FLOAT_WIDTH)
    flat[at + start - 1] = ord("-")  # outside the text unless the sign bit is set
    start -= np.signbit(v)
    sci = np.flatnonzero(scientific & exact)
    if sci.size:
        flat[(at[sci] + end[sci])[:, None] + np.arange(4)] = _EXPONENTS[22 - s[sci]]
        end[sci] += 4
    slow = np.flatnonzero(~(exact & finite))
    if slow.size:  # format() itself, from column 0
        texts = [format(value, ".12g") for value in v[slow].tolist()]
        rows[slow] = np.frombuffer("".join(t.ljust(_FLOAT_WIDTH) for t in texts).encode(),
                                   dtype=np.uint8).reshape(-1, _FLOAT_WIDTH)
        start[slow] = 0
        end[slow] = [len(t) for t in texts]
    return rows, start, end


def _int_cells(v: np.ndarray):
    """(rows, start, end) with the decimal text of v[i] in rows[i, start[i]:end[i]]."""
    if v.size and (v.min() < 0 or v.max() >= _INT_MAX):
        raise ValidationError(f"integer column entries must lie in [0, {_INT_MAX})")
    digits = v.astype(np.uint64)
    _ascii_digits(digits)
    words = np.zeros((v.size, 2), dtype=np.uint64)
    words[:, 0] = digits
    start = 7 - np.searchsorted(_DIGIT_LIMITS, v, side="right")
    return words.view(np.uint8), start, np.full(v.size, 8)


def _texts(values: np.ndarray, seps: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """(rows, keep): row i holds values[i]'s text and then seps[i] in its kept columns."""
    integer = values.dtype.kind in "iu"
    rows, start, end = (_int_cells if integer else _float_cells)(values)
    width = rows.shape[1]
    rows.reshape(-1)[np.arange(0, values.size * width, width) + end] = seps
    keep = (_INT_WINDOWS if integer else _FLOAT_WINDOWS).take(start * width + end, axis=0)
    lo, hi = int(start.min()), int(end.max()) + 1  # the columns any text here uses
    return rows[:, lo:hi], keep[:, lo:hi]


def _render(blocks: list[np.ndarray]) -> np.ndarray:
    """The CSV lines of row-aligned 2-D blocks, as one uint8 array."""
    seps = [np.full(block.shape, ord(","), dtype=np.uint8) for block in blocks]
    seps[-1][:, -1] = ord("\n")
    n = blocks[0].shape[0]
    parts = [_texts(block.reshape(-1), sep.reshape(-1)) for block, sep in zip(blocks, seps)]
    widths = [block.shape[1] * rows.shape[1] for block, (rows, _) in zip(blocks, parts)]
    text = np.empty((n, sum(widths)), dtype=np.uint8)
    keep = np.empty((n, sum(widths)), dtype=bool)
    at = 0
    for block, width, (rows, kept) in zip(blocks, widths, parts):  # lay the blocks side by side
        cells = (n, block.shape[1], rows.shape[1])  # splitting axes keeps every reshape a view
        text[:, at : at + width].reshape(cells)[...] = rows.reshape(cells)
        keep[:, at : at + width].reshape(cells)[...] = kept.reshape(cells)
        at += width
    return text[keep]


def _write_rows(path, lines: list[str], n_rows: int, step: int, render) -> Path:
    """Write `lines`, then render(a, b), the bytes of rows a..b-1, `step` rows at a time."""
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    step = max(1, step)
    with path.open("wb") as f:
        f.write("".join(f"{line}\n" for line in lines).encode())
        for a in range(0, n_rows, step):
            f.write(render(a, min(a + step, n_rows)))
    return path


def write_mask_csv(path, pattern, header: list[str]) -> Path:
    """The 0/1 grid of a structural pattern (rows, cols, touched), one row per
    line: 1 at (rows[k], cols[k]), at (cols[k], rows[k]) and at (i, i) for every
    touched[i], 0 elsewhere."""
    rows, cols, touched = pattern
    d = touched.size
    ones = np.sort(np.concatenate((rows * d + cols, cols * d + rows, np.flatnonzero(touched) * (d + 1))))
    line = np.full(2 * d, ord(","), dtype=np.uint8)  # digit, comma, ..., digit, newline
    line[::2], line[-1] = ord("0"), ord("\n")

    def render(a: int, b: int) -> np.ndarray:
        chunk = np.tile(line, b - a)
        lo, hi = np.searchsorted(ones, (a * d, b * d))
        chunk[2 * (ones[lo:hi] - a * d)] = ord("1")
        return chunk

    return _write_rows(path, header, d, _MASK_BYTES // line.size, render)


def write_trajectory_csv(path, trajectory, header: list[str]) -> Path:
    """Columns t, p_1..p_d, P_exc."""
    pops = np.asarray(trajectory.populations)
    names = "t," + ",".join(f"p_{i + 1}" for i in range(pops.shape[1])) + ",P_exc"
    table = np.column_stack((trajectory.times, pops, 1.0 - pops[:, 0]))
    return write_csv(path, [*header, names], table)


def write_steady_csv(path, partition, header: list[str]) -> Path:
    """Columns block, p_1..p_d: one row per block of a BlockPartition, its
    restricted Gibbs vector embedded in the full dimension.  Only the block
    labels and the d weights are rendered; every other cell is "0"."""
    d, n_blocks = partition.dimension, partition.n_blocks
    names = "block," + ",".join(f"p_{i + 1}" for i in range(d))
    sizes = [len(block) for block in partition.blocks]
    members = np.array([i for block in partition.blocks for i in block], dtype=np.intp)
    labels = np.arange(n_blocks) * (d + 1)  # per line: the label, then p_1..p_d
    at = np.concatenate((labels, np.repeat(labels, sizes) + 1 + members))
    # a label below 10^12 renders as a float exactly as an integer does
    values = np.concatenate((np.arange(1.0, n_blocks + 1), *partition.weights))
    return _write_cells(path, [*header, names], n_blocks, d + 1, at, values)


def write_sweep_csv(path, sweep, header: list[str]) -> Path:
    """Columns grid_value, P_exc; sweep metadata joins the '#' header."""
    extra = [f"# axis: {sweep.axis}", f"# t_star: {fmt(sweep.t_star)}"]
    if sweep.site is not None:
        extra.append(f"# site: {sweep.site}")
    for key in sorted(sweep.metadata):
        extra.append(f"# {key}: {sweep.metadata[key]}")
    for k in sorted(sweep.errors):
        extra.append(f"# failed_point: index={k} grid_value={fmt(sweep.grid[k])} {sweep.errors[k]}")
    return write_csv(path, [*header, *extra, "grid_value,P_exc"], np.column_stack((sweep.grid, sweep.values)))


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
