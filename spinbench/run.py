"""spinbath benchmark: runs CLI workloads in-process and prints every metric.

Usage, from the repository root:

    python3 spinbench/run.py --workload evolve-n7 --seed 1 --seconds 25 --trace 0

One client runs a closed loop: each op (one `spinbath.cli.main(argv)` call, or
the five calls of a `structure-n8` pass) starts when the previous one has
returned and its artifacts have been checked.  The timed window adds up the
ops' wall time only, so checking does not count against `ops_per_s`.

`--trace 0` reports the end-to-end metrics; `--trace 1` splits the time
between an untraced and a traced phase and reports per-layer metrics.  The
second-to-last stdout line is the full report (environment, config hashes,
every metric); the last line holds the metrics that carry bounds.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".spinbench"

# numpy and scipy read these when their OpenBLAS is first loaded, so they are
# set before either is imported.  Two BLAS threads on these matrix sizes, on
# two cores, measure the scheduler rather than the program.
BLAS_ENV = {"OPENBLAS_NUM_THREADS": "1", "OMP_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
WARMUP_OPS = 2
SETUP_PROBES = 7
REFERENCE_REPEATS = 3
WALL_LIMIT_S = 120.0

# Fresh-interpreter set-up: import the CLI and parse the workload's config,
# resolving a bare name as a builtin config the way the CLI does.
PROBE = """
import time
t0 = time.perf_counter()
import os, sys
sys.path.insert(0, sys.argv[1])
import spinbath.cli
from spinbath.config import builtin_config_path, parse_config
arg = sys.argv[2]
parse_config(arg if os.path.isfile(arg) else builtin_config_path(arg))
print(time.perf_counter() - t0)
"""

# Bounded metrics.  On a shared host, co-tenants slow every instruction by up
# to 1.8x for seconds to minutes, so a run's median op time moved by a quarter
# between runs.  Each op divided by the workload's fixed reference work, timed
# around it in the same process, moved by a few percent.
END_TO_END_UNITS = {"op_p50_ref": "ref", "setup_s": "s", "peak_rss_mb": "MB"}
PER_LAYER_UNITS = {
    "dynamics.expm.calls": "count",
    "dynamics.propagate_populations.calls": "count",
    "analysis.expm.calls": "count",
    "generator.build_rate_matrix.calls": "count",
    "bath.bose_einstein.calls": "count",
    "bath.spectral_density.calls": "count",
    "chain.check_degeneracy.calls": "count",
    "generator.build_rate_matrix.self_s": "s",
    "bath.coupling_matrix_elements.self_s": "s",
    "chain.check_degeneracy.self_s": "s",
    "chain.spectral_decomposition.self_s": "s",
    "config.parse_config.self_s": "s",
    "export.write.self_s": "s",
    "export.bytes_written": "bytes",
    "config.self_s": "s",
    "chain.self_s": "s",
    "bath.self_s": "s",
    "generator.self_s": "s",
    "dynamics.self_s": "s",
    "cli.self_s": "s",
    "analysis.draw_accept_ratio": "ratio",
    "trace.overhead_ratio": "ratio",
}
# Reported in the full line only, because a workload that bypasses the layer
# reads exactly zero on every run.
BYPASSABLE_UNITS = {
    "dynamics.expm.self_s": "s",
    "dynamics.propagate_populations.self_s": "s",
    "analysis.expm.self_s": "s",
    "dynamics.steady_states.self_s": "s",
    "generator.structural_blocks.self_s": "s",
    "analysis.sweep_temperature.self_s": "s",
    "analysis.sweep_coupling.self_s": "s",
    "analysis.self_s": "s",
}


def _seconds(work) -> float:
    start = time.perf_counter()
    work()
    return time.perf_counter() - start


class Loop:
    """Closed-loop op runner that tallies attempts, failures and timings."""

    def __init__(self, workload, run_op):
        self.workload = workload
        self.run_op = run_op
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.durations: list[float] = []
        self.reference: list[float] = []
        self.started = time.perf_counter()

    def op(self) -> int:
        """One op, its check and the reference work; returns the bytes the op wrote."""
        self.attempted += 1
        t0 = time.perf_counter()
        try:
            seconds, written = self.run_op(self.workload)
            problems = self.workload.check()
        except Exception as exc:  # any failure of the op or its artifacts counts against it
            seconds, written = time.perf_counter() - t0, []
            problems = [f"{type(exc).__name__}: {exc}"]
        if problems:
            self.failed += 1
            self.problems.extend(problems[: 5 - len(self.problems)])
        self.durations.append(seconds)
        self.reference.append(statistics.median(
            _seconds(self.workload.reference) for _ in range(REFERENCE_REPEATS)
        ))
        return sum(p.stat().st_size for p in written if p.is_file())

    def timed(self, seconds: float) -> tuple[slice, int]:
        """At least one op, then ops until their wall time adds up to `seconds`;
        returns their slice of `durations` and `reference`, and the bytes they wrote."""
        first, nbytes = len(self.durations), self.op()
        while (sum(self.durations[first:]) < seconds
               and time.perf_counter() - self.started < WALL_LIMIT_S):
            nbytes += self.op()
        return slice(first, len(self.durations)), nbytes


def reference_ratios(loop: Loop, ops: slice) -> list[float]:
    """Each op's wall time over its reference time.  The reference runs just
    before (after the previous op) and just after the op bracket the machine
    conditions it ran under, so their mean is the divisor."""
    before = loop.reference[ops.start - 1:ops.stop - 1]
    after = loop.reference[ops]
    return [d / ((a + b) / 2) for d, a, b in zip(loop.durations[ops], before, after)]


def tail_percentile(durations: list[float]) -> tuple[str, float] | None:
    """Highest of p99/p90/p75 that has at least ten samples beyond it."""
    for pct in (99, 90, 75):
        if len(durations) * (100 - pct) / 100 >= 10:
            return f"op_p{pct}_s", statistics.quantiles(durations, n=100)[pct - 1]
    return None


def setup_seconds(probe_config: str) -> float:
    done = subprocess.run(
        [sys.executable, "-c", PROBE, str(SRC), probe_config],
        capture_output=True, text=True, check=True, timeout=60, cwd=ROOT,
    )
    return float(done.stdout.strip().splitlines()[-1])


def end_to_end(loop: Loop, seconds: float, probe_config: str) -> tuple[dict, dict]:
    # The set-up probes are spread over the run so that they see the same
    # machine conditions as the ops; probe time is outside the timed window.
    first, setup = len(loop.durations), []
    for _ in range(SETUP_PROBES):
        loop.timed(seconds / SETUP_PROBES)
        setup.append(setup_seconds(probe_config))
    ops = slice(first, len(loop.durations))
    durations, refs = loop.durations[ops], loop.reference[ops]
    bounded = {
        "op_p50_ref": statistics.median(reference_ratios(loop, ops)),
        "setup_s": statistics.median(setup),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    reported = {
        "op_min_s": (min(durations), "s"),
        "op_p50_s": (statistics.median(durations), "s"),
        "ops_per_s": (len(durations) / sum(durations), "1/s"),
        "reference_p50_s": (statistics.median(refs), "s"),
    }
    tail = tail_percentile(durations)
    if tail:
        reported[tail[0]] = (tail[1], "s")
    return bounded, {"ops": len(durations), "setup_samples_s": setup, "reported": reported}


def per_layer(loop: Loop, seconds: float) -> tuple[dict, dict]:
    from spans import Tracer, layer_metrics

    untraced_ops, _ = loop.timed(seconds / 2)
    with Tracer() as tracer:
        traced_ops, nbytes = loop.timed(seconds / 2)
    untraced, traced = loop.durations[untraced_ops], loop.durations[traced_ops]
    metrics = layer_metrics(tracer, len(traced))
    metrics["export.bytes_written"] = nbytes / len(traced)
    metrics["trace.overhead_ratio"] = (
        statistics.median(reference_ratios(loop, traced_ops))
        / statistics.median(reference_ratios(loop, untraced_ops))
    )
    bounded = {name: metrics.get(name, 0.0) for name in PER_LAYER_UNITS}
    reported = {name: (metrics.get(name, 0.0), unit) for name, unit in BYPASSABLE_UNITS.items()}
    reported["untraced_op_p50_s"] = (statistics.median(untraced), "s")
    reported["traced_op_p50_s"] = (statistics.median(traced), "s")
    spans_per_op = {
        name.removesuffix(".calls"): {
            "calls": metrics[name],
            "self_s": metrics[name.removesuffix("calls") + "self_s"],
        }
        for name in sorted(metrics) if name.endswith(".calls")
    }
    extra = {"untraced_ops": len(untraced), "ops": len(traced), "reported": reported,
             "spans_per_op": spans_per_op}
    return bounded, extra


def _process_threads() -> int | None:
    try:
        for line in Path("/proc/self/status").read_text().splitlines():
            if line.startswith("Threads:"):
                return int(line.split()[1])
    except OSError:
        pass
    return None


def _src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode() + b"\0" + path.read_bytes())
    return digest.hexdigest()


def _git_commit() -> str | None:
    """HEAD of a git checkout, read from its files; None outside one."""
    git = ROOT / ".git"
    if not (git / "HEAD").is_file():
        return None
    head = (git / "HEAD").read_text().strip()
    if not head.startswith("ref: "):
        return head
    ref = head[5:]
    if (git / ref).is_file():
        return (git / ref).read_text().strip()
    packed = git / "packed-refs"
    lines = packed.read_text().splitlines() if packed.is_file() else []
    return next((line.split()[0] for line in lines if line.endswith(" " + ref)), None)


def environment() -> dict:
    import numpy
    import scipy

    def openblas(module) -> str | None:
        try:
            return module.show_config(mode="dicts")["Build Dependencies"]["blas"].get("version")
        except (KeyError, TypeError, ValueError):
            return None

    return {
        "blas_threads": {
            **{k: os.environ.get(k) for k in BLAS_ENV},
            "how": "environment variables set by spinbench/run.py before numpy is imported",
            "process_threads": _process_threads(),
        },
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_numpy": openblas(numpy),
        "openblas_scipy": openblas(scipy),
        "spinbath_commit": _git_commit(),
        "spinbath_src_sha256": _src_digest(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "spinbath" / "__init__.py").is_file():
        print(f"spinbench: no spinbath sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(BLAS_ENV)
    sys.path[:0] = [str(SRC), str(HERE)]
    import spinbath
    import workloads

    if not Path(spinbath.__file__).resolve().is_relative_to(SRC):
        print(f"spinbench: spinbath imported from {spinbath.__file__}, not {SRC}", file=sys.stderr)
        return 2
    if args.workload not in workloads.NAMES:
        parser.error(f"unknown workload {args.workload!r}; available: {', '.join(workloads.NAMES)}")

    workdir = WORK / f"{args.workload}-{args.seed}-{os.getpid()}"
    try:
        workload = workloads.prepare(args.workload, args.seed, workdir)
        loop = Loop(workload, workloads.run_op)
        for _ in range(WARMUP_OPS):
            loop.op()
        if args.trace:
            bounded, extra = per_layer(loop, args.seconds)
            units = PER_LAYER_UNITS
        else:
            bounded, extra = end_to_end(loop, args.seconds, workload.probe_config)
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.is_dir() and not any(WORK.iterdir()):
            WORK.rmdir()

    metrics = {name: {"value": value, "unit": units[name]} for name, value in bounded.items()}
    reported = {name: {"value": value, "unit": unit} for name, (value, unit) in extra.pop("reported").items()}
    reported["error_rate"] = {"value": loop.failed / loop.attempted, "unit": "ratio"}
    report = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "configs": workload.configs,
        "environment": environment(),
        "attempted": loop.attempted,
        "failed": loop.failed,
        "problems": loop.problems,
        "metrics": {**metrics, **reported},
        **extra,
    }
    print(json.dumps(report))
    print(json.dumps({
        "correct": loop.failed == 0,
        "attempted": loop.attempted,
        "failed": loop.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
