"""Tests of the benchmark's own code: inputs, checks, span arithmetic, tracer, counts."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import checks  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402
from spinbath import ChainSpec, build_hamiltonian, check_degeneracy, diagonal_energies, spectral_decomposition  # noqa: E402


def _run_bench(workload: str, trace: int, seconds: str = "0.1", cwd: Path = HERE.parent):
    return subprocess.run(
        [sys.executable, str(cwd / "spinbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", seconds, "--trace", str(trace)],
        capture_output=True, text=True, timeout=170, cwd=cwd,
    )


def test_same_seed_gives_same_config(tmp_path):
    first = workloads.prepare("structure-n8", 11, tmp_path / "a").configs
    again = workloads.prepare("structure-n8", 11, tmp_path / "b").configs
    other = workloads.prepare("structure-n8", 12, tmp_path / "c").configs
    assert first == again
    assert first != other


def test_inputs_do_not_import_spinbath():
    code = "import sys, inputs; sys.exit(any(m.startswith('spinbath') for m in sys.modules))"
    assert subprocess.run([sys.executable, "-c", code], cwd=HERE).returncode == 0


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_drawn_chain_matches_the_package(seed):
    chain = inputs.draw_chain(7, np.random.default_rng(seed))
    spec = ChainSpec(n_sites=7, fields=chain.fields, couplings=chain.couplings)
    assert np.array_equal(inputs.energies(chain), diagonal_energies(spec))
    assert check_degeneracy(spectral_decomposition(build_hamiltonian(spec)), inputs.DEGENERACY_TOL).nondegenerate


def test_nondegeneracy_rule_rejects_colliding_gaps():
    assert inputs.nondegenerate(np.array([0.0, 1.0, 2.5]))
    assert not inputs.nondegenerate(np.array([0.0, 1.0, 2.0]))  # gaps 1 and 1
    assert not inputs.nondegenerate(np.array([0.0, 1.0, 1.0 + 1e-10]))


def test_checker_rejects_a_perturbed_rates_column(tmp_path):
    workload = workloads.prepare("structure-n8", 5, tmp_path)
    workloads.run_op(workload)
    assert workload.check() == []
    path = workload.out / "rates.csv"
    lines = path.read_text().splitlines()
    row = lines[5].split(",")
    row[3] = repr(float(row[3]) * 1.001 + 1e-3)
    lines[5] = ",".join(row)
    path.write_text("\n".join(lines) + "\n")
    assert any("rates.csv: column 4" in p for p in workload.check())


def test_checker_rejects_a_changed_fig2_value(tmp_path):
    workload = workloads.prepare("fig2-paper", 0, tmp_path)
    workloads.run_op(workload)
    assert workload.check() == []
    path = workload.out / "fig2e.csv"
    text = path.read_text()
    path.write_text(text.replace("10,0.458916890192", "10,0.458916890193"))
    assert checks.check_fig2(workload.out) == []  # within 1e-12 plus one unit in the 12th digit
    path.write_text(text.replace("10,0.458916890192", "10,0.458916890195"))
    assert checks.check_fig2(workload.out) == ["fig2e.csv: differs from the recorded reference"]


def test_self_times_on_a_synthetic_tree():
    tree = [
        ["root", 0.0, 10.0, -1, 0.5],  # children cover [1, 6] (overlapping) and [8, 9]
        ["a", 1.0, 4.0, 0, 0.0],
        ["b", 3.0, 6.0, 0, 0.0],
        ["c", 8.0, 9.0, 0, 0.25],
        ["d", 2.0, 3.0, 1, 0.0],
    ]
    assert spans.self_times(tree) == pytest.approx([10 - 5 - 1 - 0.5, 3 - 1, 3, 1 - 0.25, 1])


def test_tracer_restores_every_wrapped_function():
    modules = [m for name, m in sys.modules.items() if name == "spinbath" or name.startswith("spinbath.")]
    before = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    original = sys.modules["spinbath.generator"].check_degeneracy
    with spans.Tracer() as tracer:
        assert sys.modules["spinbath.generator"].check_degeneracy is not original
        assert sys.modules["spinbath.dynamics"].expm is not sys.modules["spinbath.analysis"].expm
    after = {(m.__name__, k): v for m in modules for k, v in vars(m).items()}
    assert after.keys() == before.keys()
    assert all(after[key] is value for key, value in before.items())
    assert tracer.spans == []


def test_nested_spans_and_aggregated_leaves(tmp_path):
    workload = workloads.prepare("fig2-paper", 0, tmp_path)
    with spans.Tracer() as tracer:
        workloads.run_op(workload)
    table = spans.summarize(tracer)
    assert table["cli.main"]["calls"] == 1
    assert table["bath.bose_einstein"]["calls"] == 240
    assert "export.fmt" not in table
    roots = [r for r in tracer.spans if r[spans.PARENT] < 0]
    assert [r[spans.NAME] for r in roots] == ["cli.main"]
    own = sum(row["self_s"] for row in table.values())
    assert own == pytest.approx(roots[0][spans.END] - roots[0][spans.START], rel=1e-9)


@pytest.mark.parametrize(
    "workload, expm_calls",
    [("fig2-paper", {"dynamics.expm.calls": 1809, "analysis.expm.calls": 50}),
     ("evolve-n7", {"dynamics.expm.calls": 201, "analysis.expm.calls": 0})],
)
def test_traced_run_reports_exact_counts(workload, expm_calls):
    done = _run_bench(workload, trace=1)
    assert done.returncode == 0, done.stderr
    last = json.loads(done.stdout.splitlines()[-1])
    assert set(last) == {"correct", "attempted", "failed", "metrics"}
    assert last["correct"] and last["failed"] == 0
    for name, calls in expm_calls.items():
        assert last["metrics"][name] == {"value": calls, "unit": "count"}


def test_refuses_to_run_without_the_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "spinbench", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    done = _run_bench("fig2-paper", trace=0, cwd=tmp_path)
    assert done.returncode != 0
    assert done.stdout == ""


def test_benchmark_json_lists_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == run.PER_LAYER_UNITS
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
