"""Config parsing and the command-line surface (files, exit codes, determinism)."""

from __future__ import annotations

import contextlib
import dataclasses
import filecmp
import inspect
import io
import json
import os
import re
import subprocess
import sys
import tempfile
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from spinbath import (
    ConfigError,
    Trajectory,
    analysis,
    build_hamiltonian,
    builtin_config_path,
    cli,
    decompose_chain,
    gibbs_state,
    parse_config,
    random_nondegenerate_chain,
    spectral_decomposition,
)
from spinbath.cli import main
from spinbath.config import COMMANDS, GridSpec
from spinbath.dynamics import _check_times
from spinbath.export import read_csv_columns, read_json_body

BLOCKED = """
[chain]
n = 2
fields = 1.0, 0.5
couplings = 1-2: 0.3333333333333333

[bath]
temperature = 1.0
kappas = 0, 1.0

[run]
command = blocks
"""

# An open nearest-neighbour chain with the paper config's bath and run settings:
# its end-spin flips collide in gap, while its levels lie 0.004 or more apart.
NEAREST_NEIGHBOUR_6 = """
[chain]
n = 6
fields = 0.592, 0.774, 0.952, 0.918, 1.043, 1.369
couplings = 1-2: 0.131, 2-3: 0.154, 3-4: 0.092, 4-5: -0.289, 5-6: -0.05

[bath]
temperature = 10.0
kappas = 1e-5, 1.0, 1.0, 1.0, 1.0, 1.0
axes = x, x, x, x, x, x

[run]
initial_state = ground
times = 0:10:11
t_star = 10
temperature_grid = 0.1:10:5:log
kappa_grid = 1e-3:1:5:log
kappa_site = 1
"""


# Thirteen sites, one past chain.MAX_DENSE_SITES: every command refuses it before
# building anything of size d x d.
THIRTEEN_SITES = """
[chain]
n = 13
fields = 0.5, 0.6, 0.7, 0.8, 0.9, 1.0, 1.1, 1.2, 1.3, 1.4, 1.5, 1.6, 1.7

[bath]
temperature = 1.0
kappas = 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1, 1

[run]
seed = 1
kappa_site = 1
"""


# Runs the given commands in order in one fresh interpreter and prints last, as JSON,
# the scipy modules loaded after each.
COLD_START = """
import json, sys
from spinbath import cli
loaded = {}
for command in sys.argv[2:]:
    argv = [command, "--config", "ising2_paper", "--out", sys.argv[1]]
    if command == "zeros-scaling":
        argv += ["--max-n", "4", "--draws", "1", "--seed", "1"]
    if cli.main(argv) != 0:
        sys.exit(f"{command} failed")
    loaded[command] = sorted(m for m in sys.modules if m == "scipy" or m.startswith("scipy."))
print(json.dumps(loaded))
"""


# Every numeric key set; a test swaps one value for a non-finite one.
EVERY_NUMBER = """
[chain]
n = 2
fields = 1.0, 0.5
couplings = 1-2: 0.25

[bath]
temperature = 1.0
kappas = 1.0, 1.0

[run]
times = 0:10:11
t_star = 10
temperature_grid = 0.1:10:5:log
kappa_grid = 1e-3:1:5:log
fig2_temperatures = 0.1, 1.0
fig2_kappas = 0.01, 1.0
"""


def _random_chain_cfg(path: Path, n_sites: int, kappas: str) -> Path:
    """A config at T = 1 for the chain random_nondegenerate_chain draws from seed n_sites."""
    spec = random_nondegenerate_chain(n_sites, np.random.default_rng(n_sites))
    path.write_text(
        f"[chain]\nn = {n_sites}\nfields = " + ", ".join(map(repr, spec.fields)) + "\n"
        + "couplings = " + ", ".join(f"{a}-{b}: {d!r}" for a, b, d in spec.couplings) + "\n"
        + f"[bath]\ntemperature = 1.0\nkappas = {kappas}\n"
    )
    return path


@pytest.fixture
def blocked_cfg(tmp_path):
    path = tmp_path / "blocked.cfg"
    path.write_text(BLOCKED)
    return path


class TestParseConfig:
    def test_shipped_paper_config(self):
        cfg = parse_config(builtin_config_path("ising2_paper"))
        assert cfg.chain.n_sites == 2
        assert cfg.chain.fields == (1.0, 0.5)
        assert cfg.chain.couplings[0][:2] == (1, 2)
        assert cfg.chain.couplings[0][2] == pytest.approx(1 / 3, rel=1e-12)
        assert cfg.bath.kappas == (1e-5, 1.0)
        assert cfg.bath.temperature == 10.0
        assert cfg.command == "fig2"
        grid = cfg.temperature_grid
        assert (grid.start, grid.stop, grid.count, grid.mode) == (0.1, 10.0, 25, "log")
        assert cfg.kappa_grid.mode == "log"

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.cfg"
        path.write_text("")
        with pytest.raises(ConfigError):
            parse_config(path)

    def test_unknown_key_names_key_and_line(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[chain]\nn = 2\nfields = 1, 0.5\nflux = 3\n\n[bath]\ntemperature=1\nkappas=1,1\n")
        with pytest.raises(ConfigError, match=r"flux.*line 4"):
            parse_config(path)
        # sweeps run serially; a file that still asks for threads is refused the same way
        path.write_text("[chain]\nn = 1\nfields = 1\n[bath]\ntemperature=1\nkappas=1\n[run]\nthreads = 2\n")
        with pytest.raises(ConfigError, match=r"'threads'.*line 8"):
            parse_config(path)

    def test_degeneracy_tolerance_is_not_a_setting(self, tmp_path, capsys):
        # the tolerance is the fixed chain.DEGENERACY_TOL; a file that sets it is refused
        path = tmp_path / "tol.cfg"
        path.write_text(BLOCKED + "degeneracy_tol = 1e-6\n")
        assert main(["blocks", "--config", str(path), "--out", str(tmp_path / "b")]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert "'degeneracy_tol'" in record["message"] and "line 13" in record["message"]

    def test_negative_kappa_rejected(self, tmp_path):
        path = tmp_path / "neg.cfg"
        path.write_text("[chain]\nn = 1\nfields = 1\n[bath]\ntemperature = 1\nkappas = -1\n")
        with pytest.raises(ConfigError, match="kappa"):
            parse_config(path)

    def test_json_alternative(self, tmp_path):
        payload = {
            "chain": {"n": 2, "fields": [1.0, 0.5], "couplings": ["1-2: 0.25"]},
            "bath": {"temperature": 2.0, "kappas": [0.5, 1.0], "axes": ["x", "x"]},
            "run": {"command": "spectrum", "temperature_grid": [0.1, 10, 25, "log"]},
        }
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        cfg = parse_config(path)
        assert cfg.chain.couplings == ((1, 2, 0.25),)
        assert cfg.bath.temperature == 2.0
        assert cfg.command == "spectrum"
        assert cfg.temperature_grid.count == 25

    def test_json_twin_of_the_paper_config(self):
        # typed JSON values read as the INI text they stand for: the same run
        twin = parse_config(Path(__file__).parent / "ising2_paper.json")
        paper = parse_config(builtin_config_path("ising2_paper"))
        assert dataclasses.replace(twin, source_hash=paper.source_hash) == paper

    @pytest.mark.parametrize("key, value, message", [
        ("n", {"a": 1}, "[chain] n: expected a number, a string or a list of them (line 3): got {'a': 1}"),
        ("n", 2.0, "[chain] n: expected an integer (line 3): got '2.0'"),
        ("fields", [[1.0], 0.5], "[chain] fields: expected a number, a string or a list of them (line 4): "
                                 "got [[1.0], 0.5]"),
        ("fields", [1.0, None], "[chain] fields: expected a number, a string or a list of them (line 4): "
                                "got [1.0, None]"),
    ])
    def test_json_value_of_the_wrong_shape_names_its_line(self, key, value, message, tmp_path, capsys):
        payload = {"chain": {"n": 2, "fields": [1.0, 0.5]}, "bath": {"temperature": 1.0, "kappas": [1.0, 1.0]}}
        payload["chain"][key] = value
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload, indent=1))
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message, "exit_code": 2}

    def test_one_line_json_names_line_1(self, tmp_path, capsys):
        # the twin of the n = 2.0 case above, written on one line: the quoted key is found inside it
        payload = {"chain": {"n": 2.0, "fields": [1.0, 0.5]}, "bath": {"temperature": 1.0, "kappas": [1.0, 1.0]}}
        path = tmp_path / "run.json"
        path.write_text(json.dumps(payload))
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        message = "[chain] n: expected an integer (line 1): got '2.0'"
        assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message, "exit_code": 2}

    @pytest.mark.parametrize("axes", [None, "x", "x, x"])
    def test_axes_may_spell_out_x(self, axes, tmp_path):
        # every bath couples through sigma_x: an absent key, one x and one x per site are one run
        paper = builtin_config_path("ising2_paper").read_text()
        path = tmp_path / "paper.cfg"
        path.write_text(paper.replace("axes = x, x\n", "" if axes is None else f"axes = {axes}\n"))
        cfg = parse_config(path)
        assert cfg.bath == parse_config(builtin_config_path("ising2_paper")).bath
        assert cli._header(cfg)[2].startswith("# params: axes=xx ")

    @pytest.mark.parametrize("axes", ["y", "z", "x, y", "x, z", "w", "x, x, x", ""])
    def test_axes_other_than_x_refused_with_the_reason(self, axes, tmp_path, capsys):
        paper = builtin_config_path("ising2_paper").read_text()
        path = tmp_path / "paper.cfg"
        path.write_text(paper.replace("axes = x, x\n", f"axes = {axes}\n"))
        message = ("[bath] axes: expected x on every site, once or 2 times (sigma_y is sigma_x up to a phase; "
                   f"a z bath is kappa = 0) (line 13): got {axes!r}")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value) == message
        assert main(["evolve", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err) == {"error": "ConfigError", "message": message, "exit_code": 2}
        assert not (tmp_path / "out").exists()

    def test_malformed_coupling_is_named_once(self, tmp_path):
        path = tmp_path / "coupling.cfg"
        path.write_text("[chain]\nn = 2\nfields = 1.0, 0.5\ncouplings = 1-2 0.3\n[bath]\ntemperature = 1\nkappas = 1, 1\n")
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert str(info.value) == "[chain] couplings: expected items like '1-2: 0.333' (line 4): got '1-2 0.3'"

    def test_bad_grid_rejected(self, tmp_path):
        path = tmp_path / "grid.cfg"
        path.write_text(
            "[chain]\nn = 1\nfields = 1\n[bath]\ntemperature = 1\nkappas = 1\n"
            "[run]\ntemperature_grid = 0:10:25:log\n"
        )
        with pytest.raises(ConfigError, match="grid"):
            parse_config(path)

    def test_grid_echo_keeps_twelve_digits(self, tmp_path):
        # bounds that differ in the 7th digit write different `# params` echoes; the
        # shipped grids print as they always have
        params = []
        for start in ("0.1234567", "0.1234568"):
            path = tmp_path / f"{start}.cfg"
            path.write_text(BLOCKED + f"temperature_grid = {start}:10:5:log\n")
            out = tmp_path / start
            assert main(["sweep-T", "--config", str(path), "--out", str(out)]) == 0
            lines = (out / "sweep_T.csv").read_text().splitlines()
            params.append(next(line for line in lines if line.startswith("# params:")))
        assert "temperature_grid=0.1234567:10:5:log" in params[0]
        assert "temperature_grid=0.1234568:10:5:log" in params[1]
        paper = parse_config(builtin_config_path("ising2_paper"))
        assert [str(paper.times), str(paper.temperature_grid), str(paper.kappa_grid)] == [
            "0:10:201:linear", "0.1:10:25:log", "0.001:1:25:log"]

    def test_bad_command_rejected(self, tmp_path):
        path = tmp_path / "cmd.cfg"
        path.write_text(
            "[chain]\nn = 1\nfields = 1\n[bath]\ntemperature = 1\nkappas = 1\n"
            "[run]\ncommand = explode\n"
        )
        with pytest.raises(ConfigError, match="command"):
            parse_config(path)

    def test_initial_state_validation(self, tmp_path):
        base = "[chain]\nn = 1\nfields = 1\n[bath]\ntemperature = 1\nkappas = 1\n[run]\n"
        path = tmp_path / "init.cfg"
        path.write_text(base + "initial_state = basis:9\n")
        with pytest.raises(ConfigError, match="basis index"):
            parse_config(path)
        path.write_text(base + "initial_state = 0.5, 0.25, 0.25\n")
        with pytest.raises(ConfigError, match="probabilities"):
            parse_config(path)

    @pytest.mark.parametrize("value", ["nan", "inf"])
    @pytest.mark.parametrize("key, line", [
        ("fields", "fields = 1.0, {}"),
        ("couplings", "couplings = 1-2: {}"),
        ("temperature", "temperature = {}"),
        ("kappas", "kappas = {}, 1.0"),
        ("times", "times = 0:{}:11"),
        ("t_star", "t_star = {}"),
        ("temperature_grid", "temperature_grid = 0.1:{}:5:log"),
        ("kappa_grid", "kappa_grid = {}:1:5:log"),
        ("fig2_temperatures", "fig2_temperatures = 0.1, {}"),
        ("fig2_kappas", "fig2_kappas = {}"),
    ])
    def test_non_finite_number_names_key_and_line(self, key, line, value, tmp_path, capsys):
        lines = EVERY_NUMBER.splitlines()
        lineno = next(k for k, text in enumerate(lines, start=1) if text.startswith(f"{key} ="))
        lines[lineno - 1] = line.format(value)
        path = tmp_path / "bad.cfg"
        path.write_text("\n".join(lines) + "\n")
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert key in record["message"] and f"line {lineno}" in record["message"]
        assert not out.exists()

    def test_kappa_count_must_match_sites(self, tmp_path):
        path = tmp_path / "count.cfg"
        path.write_text("[chain]\nn = 2\nfields = 1, 0.5\n[bath]\ntemperature = 1\nkappas = 1\n")
        with pytest.raises(ConfigError, match="one bath per site"):
            parse_config(path)


# Every key set, each header followed by a key; the property below breaks it one
# way at a time.
VALID = """# three sites
[chain]
n = 3
fields = 1.0, 0.5, 0.8
couplings = 1-2: 0.25, 2-3: -0.1
[bath]
temperature = 1.0
kappas = 1e-5, 1.0, 1.0
axes = x, x, x
[run]
command = spectrum
initial_state = ground
times = 0:10:11
t_star = 10
temperature_grid = 0.1:10:5:log
kappa_grid = 1e-3:1:5:log
kappa_site = 1
seed = 3
max_n = 4
draws = 2
fig2_temperatures = 0.1, 1.0
fig2_kappas = 0.01, 1.0
"""
_LINES = VALID.splitlines()
_KEY_LINES = {line.split(" = ")[0]: k for k, line in enumerate(_LINES) if " = " in line}
_NUMERIC = ("n", "fields", "couplings", "temperature", "kappas", "times", "t_star", "temperature_grid",
            "kappa_grid", "kappa_site", "seed", "max_n", "draws", "fig2_temperatures", "fig2_kappas")
_PER_SITE = ("fields", "kappas", "axes")
_GRIDS = ("times", "temperature_grid", "kappa_grid")
_NOT_NUMBERS = ("abc", "1.0.0", "one", "0x1A", "1e", "--1", "e5", "true")
_BAD_GRIDS = ("0:10", "0:10:11:log:x", "10:0:11", "0:10:1", "0:10:11:cubic", "0:10:11:log", "-1:1:5:log", "1:1:5",
              "1:1.0000000000000002:5", "1:0:5:log", "-1e308:1e308:5", "0:10:1000000000000000")
_OUT_OF_RANGE = {
    "n": ("0", "-2"),
    "couplings": ("1-4: 0.25", "2-1: 0.25", "1-2: 0.1, 1-2: 0.2"),
    "temperature": ("-1",),
    "kappas": ("1e-5, -1, 1.0",),
    "axes": ("x, w, x", "x, y, x", "z"),
    "kappa_site": ("0", "4"),
    "t_star": ("0", "-1"),
    "initial_state": ("basis:9", "0.5, 0.5", "warm"),
    "seed": ("-1",),
    "max_n": ("0", "1"),
    "draws": ("0",),
    "times": ("-1:10:5",),
    "temperature_grid": ("-1:1:3",),
    "kappa_grid": ("-1:1:3",),
    "fig2_temperatures": ("-1, 1",),
    "fig2_kappas": ("-0.5, 1",),
}


@st.composite
def _broken_configs(draw):
    """(text, line): VALID with one mistake, and the 1-based line that must be named."""
    lines = list(_LINES)
    kind = draw(st.sampled_from(["header", "duplicate", "unknown", "not-a-number", "length", "grid", "range",
                                 "gibbs-cold"]))
    if kind == "gibbs-cold":  # a Gibbs start needs T > 0; the initial_state line is named
        return _gibbs_at_zero_temperature()
    if kind == "header":  # the key below the header moves up into its line
        k = draw(st.sampled_from([k for k, line in enumerate(lines) if line.startswith("[")]))
        del lines[k]
        return "\n".join(lines) + "\n", k + 1
    if kind == "unknown":
        k = draw(st.integers(0, len(lines)))
        lines.insert(k, draw(st.sampled_from(["flux", "threads", "degeneracy_tol", "kappa"])) + " = 1")
        return "\n".join(lines) + "\n", k + 1
    key = draw(st.sampled_from({"duplicate": list(_KEY_LINES), "not-a-number": _NUMERIC,
                                "length": _PER_SITE, "grid": _GRIDS, "range": list(_OUT_OF_RANGE)}[kind]))
    k = _KEY_LINES[key]
    value = lines[k].split(" = ")[1]
    if kind == "duplicate":
        lines.insert(k + 1, lines[k])
        return "\n".join(lines) + "\n", k + 2
    if kind == "not-a-number":
        items = value.split(", ")
        bad = draw(st.sampled_from(_NOT_NUMBERS))
        items[draw(st.integers(0, len(items) - 1))] = bad
        value = draw(st.sampled_from([bad, ", ".join(items)]))
    elif kind == "length":
        items = value.split(", ")
        value = ", ".join(items[:-1] if draw(st.booleans()) else items + items[:1])
    elif kind == "grid":
        value = draw(st.sampled_from(_BAD_GRIDS))
    else:
        value = draw(st.sampled_from(_OUT_OF_RANGE[key]))
    return _with_value(key, value)


def _with_value(key: str, value: str) -> tuple[str, int]:
    """(text, line): VALID with `key` set to `value`, and the 1-based line of the key."""
    lines = list(_LINES)
    k = _KEY_LINES[key]
    lines[k] = f"{key} = {value}"
    return "\n".join(lines) + "\n", k + 1


def _gibbs_at_zero_temperature() -> tuple[str, int]:
    lines = list(_LINES)
    lines[_KEY_LINES["temperature"]] = "temperature = 0"
    lines[_KEY_LINES["initial_state"]] = "initial_state = gibbs"
    return "\n".join(lines) + "\n", _KEY_LINES["initial_state"] + 1


@settings(max_examples=150, deadline=None)
@given(_broken_configs())
@example(_gibbs_at_zero_temperature())
def test_every_broken_config_names_its_line(case):
    """A dropped header, a duplicate or unknown key, a non-numeric value, a
    per-site list of the wrong length, a bad grid, a value out of range or a
    Gibbs start at T = 0: parse_config raises a ConfigError naming the line, and the CLI exits 2
    with one JSON record."""
    _assert_refused_naming_its_line(*case)


@pytest.mark.parametrize("key, value", [(key, value) for key, values in _OUT_OF_RANGE.items() for value in values])
def test_every_out_of_range_value_names_its_line(key, value):
    _assert_refused_naming_its_line(*_with_value(key, value))


@pytest.mark.parametrize("key, value", [(key, value) for key in _GRIDS for value in _BAD_GRIDS])
def test_every_bad_grid_names_its_line(key, value):
    # one grid rule, dynamics._check_times: points that round together, such as
    # 1:1.0000000000000002:5, are refused with the key's line, not later by the run
    _assert_refused_naming_its_line(*_with_value(key, value))


def _assert_refused_naming_its_line(text: str, line: int) -> None:
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "broken.cfg"
        path.write_text(text)
        with pytest.raises(ConfigError) as info:
            parse_config(path)
        assert re.search(rf"\bline {line}\b", str(info.value)), (str(info.value), text)
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            assert main(["spectrum", "--config", str(path), "--out", str(Path(tmp) / "out")]) == 2
        record = json.loads(err.getvalue())
        assert record == {"error": "ConfigError", "message": str(info.value), "exit_code": 2}
        assert not (Path(tmp) / "out").exists()


def test_the_fuzzed_config_is_valid(tmp_path):
    path = tmp_path / "valid.cfg"
    path.write_text(VALID)
    cfg = parse_config(path)
    assert cfg.chain.n_sites == 3 and cfg.bath.n_sites == 3 and cfg.draws == 2


def _refusal(argv: list[str], out: Path, capsys) -> dict:
    """The one JSON record of a run that exits 2 and writes nothing."""
    assert main([*argv, "--out", str(out)]) == 2
    captured = capsys.readouterr()
    assert captured.out == "" and len(captured.err.splitlines()) == 1, captured
    assert not out.exists()
    return json.loads(captured.err)


@pytest.mark.parametrize("key, value", [
    ("seed", "abc"), ("seed", "-1"), ("max_n", "2.5"), ("max_n", "1"), ("max_n", "13"), ("draws", "x"),
    ("draws", "0"), ("command", "frobnicate"), ("command", ""),
])
def test_a_command_line_value_is_refused_as_its_file_twin(key, value, tmp_path, capsys):
    # one reader: the same value set in the file and given on the command line is
    # refused with the same record, (line N) against (command line)
    broken, line = _with_value(key, value)
    (tmp_path / "broken.cfg").write_text(broken)
    (tmp_path / "valid.cfg").write_text(VALID)
    from_file = _refusal(["--config", str(tmp_path / "broken.cfg")], tmp_path / "file", capsys)
    flag = [value] if key == "command" else ["--" + key.replace("_", "-"), value]
    from_argv = _refusal(["--config", str(tmp_path / "valid.cfg"), *flag], tmp_path / "argv", capsys)
    assert f"(line {line})" in from_file["message"]
    assert from_argv == {**from_file, "message": from_file["message"].replace(f"(line {line})", "(command line)")}
    assert re.fullmatch(rf"\[run\] {key}: expected .+ \(command line\): .+", from_argv["message"])
    if not value.lstrip("-").isdigit():  # a range refusal prints the integer it read
        assert from_argv["message"].endswith(f"(command line): got {value!r}")


@pytest.mark.parametrize("argv, message", [
    (["spectrum"], "command line: the following arguments are required: --config"),
    (["spectrum", "--config", "ising2_paper", "--bogus"], "command line: unrecognized arguments: --bogus"),
    (["spectrum", "--config", "ising2_paper", "--seed"], "command line: argument --seed: expected one argument"),
])
def test_argv_that_argparse_cannot_split_is_one_record(argv, message, tmp_path, capsys):
    assert _refusal(argv, tmp_path / "out", capsys) == {"error": "ConfigError", "message": message, "exit_code": 2}


def test_help_lists_the_commands(capsys):
    with pytest.raises(SystemExit) as info:
        main(["--help"])
    assert info.value.code == 0
    help_text = " ".join(capsys.readouterr().out.split())
    assert "one of " + ", ".join(COMMANDS) + " (defaults to the config's [run] command)" in help_text


class TestCli:
    def test_blocks_json(self, blocked_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["blocks", "--config", str(blocked_cfg), "--out", str(out)]) == 0
        assert read_json_body(out / "blocks.json") == [[1, 2], [3, 4]]

    def test_spectrum_and_rates(self, blocked_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["spectrum", "--config", str(blocked_cfg), "--out", str(out)]) == 0
        cols = read_csv_columns(out / "spectrum.csv")
        assert np.allclose(cols["energy"], [-11 / 6, -1 / 6, 5 / 6, 7 / 6])
        report = read_json_body(out / "degeneracy.json")
        assert report["spectrum_degenerate"] is False and report["gaps_degenerate"] is False
        assert main(["rates", "--config", str(blocked_cfg), "--out", str(out)]) == 0
        mask = np.loadtxt(out / "rates_mask.csv", delimiter=",", comments="#")
        assert mask.sum() == 8
        header = (out / "rates.csv").read_text().splitlines()
        label_row = next(line for line in header if line.startswith("E="))
        assert label_row.split(",")[0] == "E=-1.83333333333"

    def test_evolve_trajectory(self, blocked_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(blocked_cfg), "--out", str(out)]) == 0
        cols = read_csv_columns(out / "trajectory.csv")
        assert cols["t"][0] == 0.0 and cols["t"][-1] == 10.0
        assert np.allclose(cols["p_1"] + cols["p_2"] + cols["p_3"] + cols["p_4"], 1.0, atol=1e-9)
        assert np.allclose(cols["P_exc"], 1 - cols["p_1"], atol=1e-12)

    def test_steady_and_sweeps(self, blocked_cfg, tmp_path):
        out = tmp_path / "out"
        assert main(["steady", "--config", str(blocked_cfg), "--out", str(out)]) == 0
        cols = read_csv_columns(out / "steady.csv")
        assert cols["block"].size == 2
        assert main(["sweep-T", "--config", str(blocked_cfg), "--out", str(out)]) == 0
        sweep = read_csv_columns(out / "sweep_T.csv")
        assert sweep["grid_value"].size == 25
        assert main(["sweep-kappa", "--config", str(blocked_cfg), "--out", str(out)]) == 0

    def test_sweeps_start_from_the_configured_initial_state(self, tmp_path):
        # from the top state, sweep-T and sweep-kappa are fig2e and fig2f
        path = tmp_path / "top.cfg"
        path.write_text(builtin_config_path("ising2_paper").read_text()
                        .replace("initial_state = ground", "initial_state = basis:4"))
        out = tmp_path / "out"
        for command in ("fig2", "sweep-T", "sweep-kappa"):
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
        lines = {name: (out / f"{name}.csv").read_text().splitlines()
                 for name in ("fig2e", "fig2f", "sweep_T", "sweep_kappa")}

        def body(name):
            return [line for line in lines[name] if not line.startswith("#")]

        assert body("sweep_T") == body("fig2e") and body("sweep_kappa") == body("fig2f")
        for name in ("sweep_T", "sweep_kappa"):
            params = next(line for line in lines[name] if line.startswith("# params:"))
            assert " initial_state=basis:4 " in params

    @pytest.mark.parametrize("state, echo, p0", [
        ("uniform", "uniform", [0.25] * 4),
        ("gibbs", "gibbs", None),
        ("0.1, 0.2, 0.3, 0.4", "0.1,0.2,0.3,0.4", [0.1, 0.2, 0.3, 0.4]),
    ])
    def test_evolve_starts_from_every_initial_state_kind(self, state, echo, p0, tmp_path):
        # row 0 is the state; the Gibbs state is stationary, since both kappa > 0 make one block
        path = tmp_path / "start.cfg"
        path.write_text(builtin_config_path("ising2_paper").read_text()
                        .replace("initial_state = ground", f"initial_state = {state}"))
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        cols = read_csv_columns(out / "trajectory.csv")
        populations = np.column_stack([cols[f"p_{i}"] for i in range(1, 5)])
        if p0 is None:
            p0 = gibbs_state(decompose_chain(parse_config(path).chain), 10.0).p
            assert np.max(np.abs(populations - populations[0])) == 0.0
            assert np.all(cols["P_exc"] == 0.701779922116)
        assert populations[0] == pytest.approx(p0, abs=1e-12)
        params = next(line for line in (out / "trajectory.csv").read_text().splitlines()
                      if line.startswith("# params: "))
        assert f" initial_state={echo} " in params

    def test_sweep_headers_hold_provenance_axis_and_failed_points_only(self, tmp_path):
        # the settings a sweep holds fixed are echoed once, in "# params:"; a kappa grid
        # out to 1e308 fails its last two points, each on a line of its own
        path = tmp_path / "paper.cfg"
        path.write_text(builtin_config_path("ising2_paper").read_text()
                        .replace("kappa_grid = 1e-3:1:25:log", "kappa_grid = 1e-3:1e308:3:log"))
        out = tmp_path / "out"
        for command in ("fig2", "sweep-T", "sweep-kappa"):
            assert main([command, "--config", str(path), "--out", str(out)]) == 0
        for name, command, axis in (("fig2e", "fig2", "temperature"), ("fig2f", "fig2", "kappa"),
                                    ("sweep_T", "sweep-T", "temperature"), ("sweep_kappa", "sweep-kappa", "kappa")):
            header = [line for line in (out / f"{name}.csv").read_text().splitlines() if line.startswith("#")]
            assert header[0] == f"# spinbath {command}"
            assert header[1].startswith("# config_sha256: ") and header[2].startswith("# params: ")
            assert header[3] == f"# axis: {axis}"
            failed = header[4:]
            assert all(line.startswith("# failed_point: ") for line in failed)
            assert len(failed) == (2 if axis == "kappa" else 0)

    def test_zeros_scaling_table_and_determinism(self, blocked_cfg, tmp_path):
        out1, out2 = tmp_path / "z1", tmp_path / "z2"
        args = ["zeros-scaling", "--config", str(blocked_cfg), "--max-n", "4", "--draws", "3", "--seed", "99"]
        assert main(args + ["--out", str(out1)]) == 0
        assert main(args + ["--out", str(out2)]) == 0
        cols = read_csv_columns(out1 / "zeros_scaling.csv")
        assert cols["N"].tolist() == [2.0, 3.0, 4.0]
        assert cols["counted"].tolist() == [4.0, 32.0, 176.0]
        assert cols["predicted"].tolist() == [4.0, 32.0, 176.0]
        assert filecmp.cmp(out1 / "zeros_scaling.csv", out2 / "zeros_scaling.csv", shallow=False)

    @pytest.mark.parametrize("command", ["spectrum", "rates", "evolve", "steady", "blocks",
                                         "sweep-T", "sweep-kappa", "fig2", "zeros-scaling"])
    def test_every_command_refuses_more_than_twelve_sites(self, command, tmp_path, capsys):
        path = tmp_path / "n13.cfg"
        path.write_text(THIRTEEN_SITES)
        argv = [command, "--config", str(path), "--out", str(tmp_path / "out")]
        if command == "zeros-scaling":
            argv += ["--max-n", "13", "--draws", "1"]
        assert main(argv) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "CapacityError" and "N <= 12, got N = 13" in record["message"]
        assert not any((tmp_path / "out").glob("*.csv"))

    def test_non_finite_trajectory_exits_3(self, blocked_cfg, tmp_path, capsys, monkeypatch):
        def nan_propagation(rates, p0, times):
            pops = np.full((len(times), rates.dimension), 1.0 / rates.dimension)
            pops[-1, 0] = np.nan
            return Trajectory(times=times, populations=pops)

        monkeypatch.setattr(cli, "propagate_populations", nan_propagation)
        assert main(["evolve", "--config", str(blocked_cfg), "--out", str(tmp_path)]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "NumericalIntegrityError" and "non-finite" in record["message"]
        assert not (tmp_path / "trajectory.csv").exists()

    def test_overflowing_rates_exit_3_and_fail_a_sweep_point(self, tmp_path, capsys):
        path = tmp_path / "huge.cfg"
        huge = BLOCKED.replace("kappas = 0, 1.0", "kappas = 1e308, 1.0")
        path.write_text(huge + "kappa_grid = 1:1e308:2:log\n")
        out = tmp_path / "out"
        assert main(["rates", "--config", str(path), "--out", str(out)]) == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "NumericalIntegrityError" and record["exit_code"] == 3
        assert record["message"].startswith("non-finite rates")
        assert not (out / "rates.csv").exists()
        assert main(["sweep-kappa", "--config", str(path), "--out", str(out)]) == 0
        lines = (out / "sweep_kappa.csv").read_text().splitlines()
        failed = [line for line in lines if "failed_point" in line]
        assert len(failed) == 1
        assert "index=1" in failed[0] and "NumericalIntegrityError: non-finite rates" in failed[0]

    def test_fig2_writes_nothing_when_a_curve_is_refused(self, tmp_path, capsys):
        # fig2d's kappa_1 = 1e308 overflows its rates, which refuses the run (exit 3)
        # after fig2c's curves are computed: none of the four files is written
        path = tmp_path / "huge.cfg"
        path.write_text(builtin_config_path("ising2_paper").read_text() + "fig2_kappas = 0.001, 1e308\n")
        out = tmp_path / "out"
        assert main(["fig2", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        record = json.loads(err)
        assert record["error"] == "NumericalIntegrityError" and record["exit_code"] == 3
        assert record["message"] == "non-finite rates: total outflow of level 1 is inf"
        assert list(out.iterdir()) == []

    def test_stiff_chemical_axis_reaches_its_plateau(self, tmp_path):
        # kappa_1 = 1e6 against kappa_2 = 1: each 0.05 step of the grid keeps ||Lambda dt||
        # small, so the trajectory stays normalised and P_exc(10) lands on the T = 10 plateau
        # 0.701779922116 of the exact exponential (150-digit mpmath), shared by every kappa_1
        # from 1e3 to 1e17
        paper = builtin_config_path("ising2_paper").read_text()
        path = tmp_path / "stiff.cfg"
        path.write_text(paper.replace("kappas = 1e-5, 1.0", "kappas = 1e6, 1.0"))
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 0
        p_exc = read_csv_columns(out / "trajectory.csv")["P_exc"]
        assert abs(p_exc[-1] - 0.701779922116) <= 1e-9

    def test_overflowing_exponential_exits_3_and_fails_every_sweep_point(self, tmp_path, capsys):
        # kappa_1 >= 1e9 drives scaling and squaring past DRIFT_TOL, then into overflow: evolve
        # refuses the bath, and sweep-kappa records each point with its reason and no warning
        paper = builtin_config_path("ising2_paper").read_text()
        path = tmp_path / "overflow.cfg"
        path.write_text(paper.replace("kappas = 1e-5, 1.0", "kappas = 1e17, 1.0")
                        .replace("kappa_grid = 1e-3:1:25:log", "kappa_grid = 1e9:1e17:5:log"))
        out = tmp_path / "out"
        assert main(["evolve", "--config", str(path), "--out", str(out)]) == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        record = json.loads(err)
        assert record["error"] == "NumericalIntegrityError" and record["exit_code"] == 3
        assert not (out / "trajectory.csv").exists()
        assert main(["sweep-kappa", "--config", str(path), "--out", str(out)]) == 0
        assert capsys.readouterr().err == ""
        lines = (out / "sweep_kappa.csv").read_text().splitlines()
        failed = [line for line in lines if line.startswith("# failed_point:")]
        assert [line.split()[2] for line in failed] == [f"index={k}" for k in range(5)]
        assert all("NumericalIntegrityError: " in line for line in failed)
        assert np.all(np.isnan(read_csv_columns(out / "sweep_kappa.csv")["P_exc"]))

    @pytest.mark.parametrize("command", ["fig2", "sweep-T", "sweep-kappa"])
    def test_one_transition_table_per_command(self, command, tmp_path, monkeypatch):
        # the sweeps run on the command's own decomposition and table
        from spinbath.bath import coupling_matrix_elements
        from spinbath.chain import decompose_chain

        calls = {}
        for original in (decompose_chain, coupling_matrix_elements):
            def counted(*args, _original=original, **kwargs):
                calls[_original.__name__] += 1
                return _original(*args, **kwargs)

            calls[original.__name__] = 0
            for module in [m for name, m in sys.modules.items() if name.startswith("spinbath")]:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        monkeypatch.setattr(module, attr, counted)
        assert main([command, "--config", "ising2_paper", "--out", str(tmp_path)]) == 0
        assert calls == {"decompose_chain": 1, "coupling_matrix_elements": 1}

    @pytest.mark.parametrize("temperature", ["1.0", "0.0"])
    def test_steady_and_blocks_do_not_depend_on_rate_magnitudes(self, temperature, tmp_path, capsys):
        # kappa = 1e308 overflows the site-1 rates, which `rates` refuses; blocks and
        # steady states read only the table and equal those at kappa = 1
        bodies = {}
        for kappa in ("1e308", "1.0"):
            path = tmp_path / f"kappa-{kappa}.cfg"
            path.write_text(BLOCKED.replace("kappas = 0, 1.0", f"kappas = {kappa}, 1.0")
                            .replace("temperature = 1.0", f"temperature = {temperature}"))
            out = tmp_path / kappa
            for command in ("steady", "blocks"):
                assert main([command, "--config", str(path), "--out", str(out)]) == 0
            bodies[kappa] = [
                [line for line in (out / name).read_text().splitlines() if not line.startswith("#")]
                for name in ("steady.csv", "blocks.json")
            ]
            assert main(["rates", "--config", str(path), "--out", str(out)]) == (3 if kappa == "1e308" else 0)
        assert bodies["1e308"] == bodies["1.0"]
        assert json.loads("\n".join(bodies["1.0"][1])) == [[1, 2, 3, 4]]

    def test_steady_and_blocks_at_twelve_sites_evaluate_no_rate(self, tmp_path, monkeypatch):
        # d = 4096: a dense rate matrix and its mask alone would take 144 MiB
        path = _random_chain_cfg(tmp_path / "n12.cfg", 12, "0, 1e-5" + ", 1.0" * 10)

        def refuse(*args, **kwargs):
            raise AssertionError("steady and blocks evaluate no rate")

        for name, module in list(sys.modules.items()):
            if name == "spinbath" or name.startswith("spinbath."):
                for attr in ("build_rate_matrix", "bose_einstein"):
                    if hasattr(module, attr):
                        monkeypatch.setattr(module, attr, refuse)
        out = tmp_path / "out"
        for command in ("steady", "blocks"):
            tracemalloc.start()
            try:
                assert main([command, "--config", str(path), "--out", str(out)]) == 0
                _, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert peak < 16 * 2**20, f"{command} peaked at {peak / 2**20:.1f} MiB"
        blocks = read_json_body(out / "blocks.json")
        assert len(blocks) == 2  # site 1 is decoupled, kappa = 1e-5 still couples
        assert sorted(i for block in blocks for i in block) == list(range(1, 4097))
        steady = read_csv_columns(out / "steady.csv")
        total = sum(steady[f"p_{i}"] for i in range(1, 4097))
        assert np.max(np.abs(total - 1.0)) < 1e-12

    def test_blocks_of_a_decoupled_ten_site_chain_build_no_vectors(self, tmp_path):
        # every kappa = 0 gives 1,024 singleton blocks; one restricted Gibbs vector
        # of 1,024 entries per block would take 8 MiB
        path = _random_chain_cfg(tmp_path / "n10.cfg", 10, "0" + ", 0" * 9)
        argv = ["blocks", "--config", str(path), "--out", str(tmp_path / "out")]
        assert main(argv) == 0  # first-call caches are not the command's working set
        tracemalloc.start()
        try:
            assert main(argv) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20, f"blocks peaked at {peak / 2**20:.2f} MiB"
        assert read_json_body(tmp_path / "out" / "blocks.json") == [[i] for i in range(1, 1025)]

    def test_steady_of_a_decoupled_eleven_site_chain_holds_no_dense_rows(self, tmp_path):
        # every kappa = 0 gives 2,048 singleton blocks; one embedded vector of 2,048
        # entries per block would take 32 MiB, twice over with the array written out
        path = _random_chain_cfg(tmp_path / "n11.cfg", 11, "0" + ", 0" * 10)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert main(["steady", "--config", str(path), "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20, f"steady peaked at {peak / 2**20:.1f} MiB"
        lines = [line for line in (out / "steady.csv").read_text().splitlines() if not line.startswith("#")]
        assert lines[0] == "block," + ",".join(f"p_{i}" for i in range(1, 2049))
        assert len(lines) == 2049
        for k, line in enumerate(lines[1:], start=1):  # level k alone, as a 1 among "0" entries
            assert line == f"{k}," + "0," * (k - 1) + "1" + ",0" * (2048 - k)

    def test_rates_of_a_ten_site_chain_hold_no_dense_matrix(self, tmp_path):
        # d = 1,024: a dense rate matrix alone would take 8 MiB; rates.csv is rendered
        # from the table's d (N + 1) = 11,264 nonzero rates
        path = _random_chain_cfg(tmp_path / "n10.cfg", 10, "1e-5" + ", 1.0" * 9)
        out = tmp_path / "out"
        tracemalloc.start()
        try:
            assert main(["rates", "--config", str(path), "--out", str(out)]) == 0
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 8 * 2**20, f"rates peaked at {peak / 2**20:.1f} MiB"
        lines = [line for line in (out / "rates.csv").read_text().splitlines() if not line.startswith("#")]
        assert len(lines) == 1 + 1024
        assert sum(cell != "0" for line in lines[1:] for cell in line.split(",")) == 11264

    def test_structure_commands_never_load_scipy(self, tmp_path):
        structure = ["spectrum", "rates", "steady", "blocks", "zeros-scaling"]
        package_root = str(Path(cli.__file__).resolve().parents[1])
        pythonpath = os.pathsep.join(filter(None, [package_root, os.environ.get("PYTHONPATH")]))
        env = dict(os.environ, PYTHONPATH=pythonpath)
        done = subprocess.run([sys.executable, "-c", COLD_START, str(tmp_path), *structure, "evolve"],
                              capture_output=True, text=True, env=env, timeout=120)
        assert done.returncode == 0, done.stderr
        loaded = json.loads(done.stdout.splitlines()[-1])  # after the paths cli.main prints
        assert {command: loaded[command] for command in structure} == {command: [] for command in structure}
        assert "scipy.linalg" in loaded["evolve"]

    @pytest.mark.parametrize("command, grids", [
        ("evolve", ["times"]),
        ("sweep-T", ["temperature_grid"]),
        ("sweep-kappa", ["kappa_grid"]),
        ("fig2", ["times", "times", "temperature_grid", "kappa_grid"]),
    ])
    def test_commands_pass_the_parsed_grid_points_themselves(self, command, grids, tmp_path, monkeypatch):
        # each grid is computed and checked once, at parse time; a command passes its
        # read-only points on, and nothing else computes them
        cfg = parse_config(builtin_config_path("ising2_paper"))
        passed = []

        def spy(original, position):
            def recorded(*args, **kwargs):
                passed.append(args[position])
                return original(*args, **kwargs)
            return recorded

        monkeypatch.setattr(cli, "propagate_populations", spy(cli.propagate_populations, 2))
        monkeypatch.setattr(analysis, "sweep", spy(analysis.sweep, 3))
        monkeypatch.setattr(analysis, "excitation_curves", spy(analysis.excitation_curves, 4))
        cli.run_command(dataclasses.replace(cfg, command=command, out=str(tmp_path)))
        assert [id(points) for points in passed] == [id(getattr(cfg, grid).points) for grid in grids]
        assert not any(points.flags.writeable for points in passed)
        assert not hasattr(GridSpec, "values")
        assert list(inspect.signature(_check_times).parameters) == ["times", "name"]

    def test_run_command_refuses_a_command_no_reader_checked(self, tmp_path):
        # a RunConfig built past the reader: still refused before anything is written
        cfg = dataclasses.replace(parse_config(builtin_config_path("ising2_paper")), out=str(tmp_path / "out"))
        with pytest.raises(ConfigError, match=re.escape("unknown command 'x'; available: " + ", ".join(COMMANDS))):
            cli.run_command(dataclasses.replace(cfg, command="x"))
        assert not (tmp_path / "out").exists()

    def test_zeros_scaling_requires_seed(self, blocked_cfg, tmp_path, capsys):
        code = main(["zeros-scaling", "--config", str(blocked_cfg), "--out", str(tmp_path / "z")])
        assert code == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError" and "seed" in record["message"]

    @pytest.mark.parametrize("flag, value, error", [
        ("--seed", "-1", "ConfigError"),
        ("--draws", "0", "ConfigError"),
        ("--max-n", "0", "ConfigError"),
        ("--max-n", "1", "ConfigError"),
        ("--max-n", "13", "CapacityError"),
    ])
    def test_overrides_are_checked_as_file_values(self, flag, value, error, blocked_cfg, tmp_path,
                                                  capsys, monkeypatch):
        def refuse(*args):
            raise AssertionError("a refused override draws no chain")

        monkeypatch.setattr(analysis, "_draw_nondegenerate", refuse)
        overrides = {"--seed": "1", "--max-n": "4", "--draws": "1", flag: value}
        argv = ["zeros-scaling", "--config", str(blocked_cfg), "--out", str(tmp_path)]
        assert main(argv + [item for pair in overrides.items() for item in pair]) == 2
        record = json.loads(capsys.readouterr().err)
        key = flag[2:].replace("-", "_")
        assert record["error"] == error and record["message"].startswith(f"[run] {key}: ")

    def test_config_that_is_not_utf8_names_the_file(self, tmp_path, capsys):
        path = tmp_path / "latin1.cfg"
        path.write_bytes(BLOCKED.replace("fields = 1.0, 0.5", "fields = 1.0, 0.5\xff").encode("latin-1"))
        assert main(["blocks", "--config", str(path), "--out", str(tmp_path)]) == 2
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "ConfigError"
        assert record["message"].startswith(f"config file {path} is not valid UTF-8")

    @pytest.mark.parametrize("name, text, message", [
        ("section.cfg", "[chain]\nn = 1\nfields = 1\n[bath]\ntemperature = 1\nkappas = 1\n[extra]\nk = 1\n",
         "unknown section [extra] (line 7)"),
        ("section.json", '{"chain": {"n": 1, "fields": 1}, "extra": {}}', "unknown section [extra] (line 1)"),
        ("list.json", "[1, 2]", "JSON config must map section names to key/value objects"),
        ("flat.json", '{"chain": 1}', "JSON config must map section names to key/value objects"),
        ("broken.json", '{"chain": ', "invalid JSON config: Expecting value: line 1 column 11 (char 10)"),
        ("missing.cfg", None, "config file not found: {path}"),
        ("no_such_builtin", None, "unknown builtin config 'no_such_builtin'; available: ['ising2_paper']"),
        ("command.cfg", "[chain]\nn = 1\nfields = 1\n[bath]\ntemperature = 1\nkappas = 1\n",
         "no command given (positional argument or [run] command)"),
    ])
    def test_refused_inputs_exit_2_with_one_record(self, name, text, message, tmp_path, capsys, monkeypatch):
        # a file that is not a config, a name that is no file and no builtin, and a run
        # without a command: exit 2, one JSON record naming the fault, nothing written
        monkeypatch.chdir(tmp_path)
        path = tmp_path / name
        if text is not None:
            path.write_text(text)
        message = message.format(path=path)
        if name.endswith((".cfg", ".json")) and name != "command.cfg":
            with pytest.raises(ConfigError) as info:
                parse_config(path)
            assert str(info.value) == message
        config = name if name == "no_such_builtin" else str(path)
        argv = ["--config", config, "--out", str(tmp_path / "out")]
        assert main(argv if name == "command.cfg" else ["spectrum", *argv]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert json.loads(err) == {"error": "ConfigError", "message": message, "exit_code": 2}
        assert not (tmp_path / "out").exists()

    def test_config_error_exit_code(self, tmp_path, capsys):
        code = main(["spectrum", "--config", str(tmp_path / "missing.cfg")])
        assert code == 2
        assert json.loads(capsys.readouterr().err)["exit_code"] == 2

    def test_integrity_error_exit_code(self, tmp_path, capsys):
        # frozen T=0 landscape with two absorbing minima in one block
        path = tmp_path / "glassy.cfg"
        path.write_text(
            "[chain]\nn = 3\nfields = 0.251, 0.252, 0.179\n"
            "couplings = 1-2: -1.229, 2-3: -1.368, 1-3: -1.17\n"
            "[bath]\ntemperature = 0.0\nkappas = 1, 1, 1\n"
        )
        code = main(["steady", "--config", str(path), "--out", str(tmp_path / "g")])
        assert code == 3
        record = json.loads(capsys.readouterr().err)
        assert record["error"] == "NumericalIntegrityError"
        assert "kernel dimension 2" in record["message"]
        # the block structure itself is well defined: one block of all eight levels
        assert main(["blocks", "--config", str(path), "--out", str(tmp_path / "g")]) == 0
        assert read_json_body(tmp_path / "g" / "blocks.json") == [list(range(1, 9))]
        assert not (tmp_path / "g" / "steady.csv").exists()

    def test_glassy_chain_steady_at_low_temperature(self, tmp_path):
        # the same landscape at T = 0.02: one block and one restricted Gibbs state
        path = tmp_path / "glassy.cfg"
        path.write_text(
            "[chain]\nn = 3\nfields = 0.251, 0.252, 0.179\n"
            "couplings = 1-2: -1.229, 2-3: -1.368, 1-3: -1.17\n"
            "[bath]\ntemperature = 0.02\nkappas = 1, 1, 1\n"
        )
        out = tmp_path / "g"
        assert main(["steady", "--config", str(path), "--out", str(out)]) == 0
        cols = read_csv_columns(out / "steady.csv")
        assert cols["block"].tolist() == [1.0]
        assert sum(cols[f"p_{i}"][0] for i in range(1, 9)) == pytest.approx(1.0, abs=1e-12)

    def test_fig2_curves_and_sweeps_build_the_same_baths(self, tmp_path):
        out = tmp_path / "fig2"
        assert main(["fig2", "--config", "ising2_paper", "--out", str(out)]) == 0

        def rows(name):
            lines = (out / name).read_text().splitlines()
            return [line.split(",") for line in lines if not line.startswith("#")]

        def at_t_star(name, label):  # t = t_star = 10 is the last time of the curves
            header, *body = rows(name)
            assert body[-1][0] == "10"
            return body[-1][header.index(label)]

        thermal, chemical = dict(rows("fig2e.csv")[1:]), dict(rows("fig2f.csv")[1:])
        assert at_t_star("fig2c.csv", "T=10") == thermal["10"] == "0.458916890192"
        assert at_t_star("fig2d.csv", "kappa1=1") == chemical["1"] == "0.701779922116"

    def test_output_path_that_is_a_file_is_io_error(self, tmp_path, capsys):
        taken = tmp_path / "taken"
        taken.write_text("not a directory\n")
        code = main(["fig2", "--config", "ising2_paper", "--out", str(taken)])
        assert code == 4
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": "FileExistsError", "message": record["message"], "exit_code": 4}
        assert str(taken) in record["message"]

    @pytest.mark.parametrize(
        "exc, code", [(np.linalg.LinAlgError("singular matrix"), 3), (MemoryError("no room"), 5)]
    )
    def test_linalg_and_memory_errors_are_json_records(self, exc, code, tmp_path, capsys, monkeypatch):
        def fail(cfg, out):
            raise exc

        monkeypatch.setitem(cli._COMMAND_TABLE, "spectrum", (fail, ()))
        assert main(["spectrum", "--config", "ising2_paper", "--out", str(tmp_path)]) == code
        record = json.loads(capsys.readouterr().err)
        assert record == {"error": type(exc).__name__, "message": str(exc), "exit_code": code}

    def test_degenerate_chain_is_config_class_error(self, tmp_path, capsys):
        # equal fields put levels 2 and 3 at the same energy: every command that builds
        # the transition table refuses the chain before writing anything, the sweeps too,
        # and only spectrum reports it
        path = tmp_path / "degen.cfg"
        path.write_text("[chain]\nn = 2\nfields = 1.0, 1.0\n[bath]\ntemperature = 1\nkappas = 1, 1\n")
        record = {"error": "DegenerateGapError", "exit_code": 2,
                  "message": "spectrum degenerate: |E_2 - E_3| = 0.000e+00 < 1.0e-09"}
        for command in ("rates", "evolve", "steady", "blocks", "sweep-T", "sweep-kappa", "fig2"):
            out = tmp_path / command
            assert main([command, "--config", str(path), "--out", str(out)]) == 2, command
            captured = capsys.readouterr()
            assert [json.loads(line) for line in captured.err.splitlines()] == [record], command
            assert captured.out == "" and not any(out.iterdir()), command
        assert main(["spectrum", "--config", str(path), "--out", str(tmp_path / "spectrum")]) == 0
        assert read_json_body(tmp_path / "spectrum" / "degeneracy.json")["spectrum_degenerate"] is True

    def test_nearest_neighbour_chain_runs_with_colliding_gaps(self, tmp_path):
        path = tmp_path / "nn6.cfg"
        path.write_text(NEAREST_NEIGHBOUR_6)
        out = tmp_path / "out"
        assert main(["fig2", "--config", str(path), "--out", str(out)]) == 0
        for name in ("fig2c.csv", "fig2d.csv", "fig2e.csv", "fig2f.csv"):
            assert all(np.all(np.isfinite(c)) for c in read_csv_columns(out / name).values())
        assert main(["spectrum", "--config", str(path), "--out", str(out)]) == 0
        report = read_json_body(out / "degeneracy.json")
        assert report["spectrum_degenerate"] is False and report["gaps_degenerate"] is True
        cfg = parse_config(path)
        basis = spectral_decomposition(build_hamiltonian(cfg.chain)).basis
        site_bits = {1 << n for n in range(6)}
        for (i, j), (k, l), diff in report["gap_pairs"]:
            flipped = basis[i - 1] ^ basis[j - 1]
            assert flipped in site_bits and basis[k - 1] ^ basis[l - 1] == flipped
            assert 0.0 <= diff < report["tolerance"]

    def test_command_from_config_and_env_outdir(self, blocked_cfg, tmp_path, monkeypatch):
        monkeypatch.setenv("SPINBATH_OUT", str(tmp_path / "envout"))
        assert main(["--config", str(blocked_cfg)]) == 0  # [run] command = blocks
        assert (tmp_path / "envout" / "blocks.json").is_file()

    def test_builtin_config_resolution(self, tmp_path):
        out = tmp_path / "paper"
        assert main(["blocks", "--config", "ising2_paper", "--out", str(out)]) == 0
        assert read_json_body(out / "blocks.json") == [[1, 2, 3, 4]]

    def test_provenance_headers_present(self, blocked_cfg, tmp_path):
        out = tmp_path / "out"
        main(["blocks", "--config", str(blocked_cfg), "--out", str(out)])
        lines = (out / "blocks.json").read_text().splitlines()
        assert lines[0] == "# spinbath blocks"
        assert lines[1].startswith("# config_sha256: ")
        assert "kappas=(0,1)" in lines[2]
