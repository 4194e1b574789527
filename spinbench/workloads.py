"""The three workloads: seeded inputs, the CLI calls of one op, and its output check.

fig2-paper  `fig2` on the builtin `ising2_paper` config (N=2, d=4): the paper's
            headline figure; thousands of tiny `expm` calls, so per-call
            overhead dominates.
evolve-n7   `evolve` on a seeded 7-site chain (d=128), 201 snapshots from the
            ground state at T=1 with kappa=(1e-5, 1, ..., 1): bound by
            propagation.
structure-n8  one pass of `spectrum`, `rates`, `steady`, `blocks` and
            `zeros-scaling` (max_n=8, draws=2) on a seeded 8-site chain
            (d=256): no propagation; degeneracy checks, coupling elements,
            O(d^2) rate assembly and large CSV writes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import math
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import numpy as np
from scipy.linalg import expm

import checks
from inputs import config_text, draw_chain, energies, write_config
from spinbath import cli, config

NAMES = ("fig2-paper", "evolve-n7", "structure-n8")
TEMPERATURE = 1.0
STRUCTURE_COMMANDS = ("spectrum", "rates", "steady", "blocks", "zeros-scaling")


@dataclass
class Workload:
    name: str
    commands: list[list[str]]  # argv of each CLI call; one op runs them all in order
    out: Path
    configs: dict[str, str]  # config file name -> sha256
    probe_config: str  # what the set-up probe parses: a builtin name or a path
    check: Callable[[], list[str]]
    reference: Callable[[], object]  # fixed work of the same kind as the op's bulk


def interpreter_reference() -> str:
    """Fixed interpreter-bound work: float arithmetic, formatting, dicts and lists."""
    total, parts, table = 0.0, [], {}
    for i in range(4000):
        total += math.sqrt(i) * 1.000001
        parts.append(format(total, ".12g"))
        table[i & 511] = total
    return ",".join(parts)


def blas_reference() -> Callable[[], np.ndarray]:
    """Fixed BLAS-bound work: one `expm` of a 128 x 128 generator-like matrix."""
    g = np.random.default_rng(0).standard_normal((128, 128))
    a = 3.0 * (g - np.diag(g.sum(axis=0))) / 40
    return lambda: expm(a)


def _kappas(n_sites: int) -> tuple[float, ...]:
    return (1e-5,) + (1.0,) * (n_sites - 1)


def prepare(name: str, seed: int, workdir: Path) -> Workload:
    """Write the workload's inputs under `workdir`; the same seed gives the same files."""
    rng = np.random.default_rng(seed)
    out = workdir / "out"
    if name == "fig2-paper":
        path = config.builtin_config_path("ising2_paper")
        digest = hashlib.sha256(path.read_bytes()).hexdigest()
        return Workload(
            name, [["fig2", "--config", "ising2_paper", "--out", str(out)]], out,
            {"ising2_paper.cfg": digest}, "ising2_paper", lambda: checks.check_fig2(out),
            interpreter_reference,
        )
    if name == "evolve-n7":
        chain = draw_chain(7, rng)
        kappas = _kappas(7)
        text = config_text(chain, TEMPERATURE, kappas,
                           {"command": "evolve", "initial_state": "ground", "times": "0:10:201"})
        path = workdir / "evolve-n7.cfg"
        digest = write_config(path, text)
        expected = checks.reference_trajectory(chain, TEMPERATURE, kappas, np.linspace(0, 10, 201))
        return Workload(
            name, [["evolve", "--config", str(path), "--out", str(out)]], out,
            {path.name: digest}, str(path), lambda: checks.check_trajectory(out, expected),
            blas_reference(),
        )
    if name == "structure-n8":
        chain = draw_chain(8, rng)
        run = {"max_n": 8, "draws": 2, "seed": int(rng.integers(2**31))}
        path = workdir / "structure-n8.cfg"
        digest = write_config(path, config_text(chain, TEMPERATURE, _kappas(8), run))
        spectrum = np.sort(energies(chain))
        return Workload(
            name, [[cmd, "--config", str(path), "--out", str(out)] for cmd in STRUCTURE_COMMANDS],
            out, {path.name: digest}, str(path), lambda: checks.check_structure(out, 8, spectrum),
            interpreter_reference,
        )
    raise ValueError(f"unknown workload {name!r}; available: {', '.join(NAMES)}")


def run_op(workload: Workload) -> tuple[float, list[Path]]:
    """Run the op's CLI calls in order.

    Returns the wall seconds spent in the calls and the files they report
    writing; raises RuntimeError when a call exits nonzero.
    """
    seconds, written = 0.0, []
    for argv in workload.commands:
        stdout, stderr = io.StringIO(), io.StringIO()
        start = time.perf_counter()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = cli.main(argv)
        seconds += time.perf_counter() - start
        if code != 0:
            raise RuntimeError(f"{argv[0]} exited {code}: {stderr.getvalue().strip()}")
        written.extend(Path(line) for line in stdout.getvalue().splitlines())
    return seconds, written
