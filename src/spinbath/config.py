"""Run-configuration parsing: INI-style section files, JSON alternative.

A run file has [chain], [bath] and optional [run] sections; unknown sections
or keys are rejected with the offending line.  The same structure nested as
JSON objects is accepted when the file is valid JSON, and read in the one INI
grammar: each JSON value stands for the INI text of that key (a list for its
items joined by ", ", a number for its repr, a string for itself, null for a
key that is absent), so "n": 2.0 is refused as n = 2.0 is.  A refused value
reads "[section] key: expected ... (line N): got ...".  Command-line values
of the command, seed, max_n and draws pass the same reader and checks, with
(command line) in place of the line.  Units follow the package convention
hbar = k_B = h_1 = 1.  Every bath couples through sigma_x (see `bath`), so
[bath] axes, read for files that spell it out, must be x, once or per site.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import re
from dataclasses import dataclass, field, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .bath import BathConfig
from .chain import MAX_DENSE_SITES, ChainSpec, SpectralDecomposition
from .dynamics import PopulationState, _check_times, gibbs_state
from .errors import CapacityError, ConfigError, SpinbathError
from .export import fmt

COMMANDS = (
    "spectrum",
    "rates",
    "evolve",
    "steady",
    "blocks",
    "sweep-T",
    "sweep-kappa",
    "zeros-scaling",
    "fig2",
)

_SCHEMA = {
    "chain": ("n", "fields", "couplings"),
    "bath": ("temperature", "kappas", "axes"),
    "run": (
        "command",
        "initial_state",
        "times",
        "t_star",
        "temperature_grid",
        "kappa_grid",
        "kappa_site",
        "out",
        "seed",
        "max_n",
        "draws",
        "fig2_temperatures",
        "fig2_kappas",
    ),
}


# Every grid's points are computed once, at parse time, the grids a command never
# reads included, so a larger count is refused before anything is allocated:
# 10**6 points take 8 MB, while 0:10:10**15 would ask linspace for 7 PiB (a
# MemoryError naming no key) and a count that fits in virtual memory would be
# filled page by page until the run is killed with no JSON record.
MAX_GRID_POINTS = 10**6


@dataclass(frozen=True)
class GridSpec:
    """A (start, stop, count, linear|log) grid of times, temperatures or
    kappas.  `points`, computed and checked once when the grid is built, pass
    `dynamics._check_times`, the one grid rule, and are read-only."""

    start: float
    stop: float
    count: int
    mode: str = "linear"
    points: np.ndarray = field(init=False, compare=False, repr=False)

    def __post_init__(self):
        if self.count < 2:
            raise ConfigError(f"grid needs at least 2 points, got {self.count}")
        if self.count > MAX_GRID_POINTS:
            raise ConfigError(f"grid takes at most {MAX_GRID_POINTS} points, got {self.count}")
        if self.mode not in ("linear", "log"):
            raise ConfigError(f"grid mode must be linear or log, got {self.mode!r}")
        if self.mode == "log" and not (self.start > 0 and self.stop > 0):
            raise ConfigError(f"a log grid needs bounds > 0, got start={self.start}, stop={self.stop}")
        space = np.geomspace if self.mode == "log" else np.linspace
        with np.errstate(over="ignore", invalid="ignore"):  # stop - start beyond double range: nan, refused
            points = _check_times(space(self.start, self.stop, self.count), "grid")
        points.flags.writeable = False
        object.__setattr__(self, "points", points)

    def __str__(self) -> str:
        """start:stop:count:mode, the bounds as `export.fmt` prints every float of an echo."""
        return f"{fmt(self.start)}:{fmt(self.stop)}:{self.count}:{self.mode}"


@dataclass(frozen=True)
class RunConfig:
    """Validated run description: the chain, its baths, and what to compute."""

    chain: ChainSpec
    bath: BathConfig
    command: str | None
    initial_state: str
    times: GridSpec
    t_star: float
    temperature_grid: GridSpec
    kappa_grid: GridSpec
    kappa_site: int
    out: str | None
    seed: int | None
    max_n: int
    draws: int
    fig2_temperatures: tuple[float, ...]
    fig2_kappas: tuple[float, ...]
    source_hash: str


def builtin_config_names() -> list[str]:
    root = resources.files("spinbath") / "configs"
    return sorted(p.name.removesuffix(".cfg") for p in root.iterdir() if p.name.endswith(".cfg"))


def builtin_config_path(name: str) -> Path:
    """Path of a configuration shipped with the package (e.g. 'ising2_paper')."""
    path = resources.files("spinbath") / "configs" / f"{name}.cfg"
    if not path.is_file():
        raise ConfigError(f"unknown builtin config {name!r}; available: {builtin_config_names()}")
    return Path(str(path))


def _line_of(text: str, section: str, key: str) -> str:
    """Best-effort line locator for error messages: an INI key starts its
    line, a JSON key is quoted anywhere in it (a one-line file is line 1)."""
    current = None
    name = re.escape(key)
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = re.match(r"\s*\[(\w+)\]", line)
        if m:
            current = m.group(1)
            if key == section == current:
                return f"line {lineno}"
            continue
        found = re.match(rf"\s*{name}\s*[=:]", line) or re.search(rf'"{name}"\s*:', line)
        if found and current in (section, None):
            return f"line {lineno}"
    return "line unknown"


def _ini_text(value) -> str | None:
    """The INI text a JSON value stands for; None for anything else."""
    items = value if isinstance(value, list) else [value]
    if all(isinstance(x, (str, int, float)) for x in items):  # a bool is an int: true reads as 'True'
        return ", ".join(x if isinstance(x, str) else repr(x) for x in items)
    return None


def _finite(text: str) -> float:
    value = float(text)
    if not math.isfinite(value):
        raise ValueError(text)
    return value


def _grid_fields(text: str) -> tuple[float, float, int, str]:
    parts = [p.strip() for p in text.strip("()").replace(",", ":").split(":")]
    if len(parts) not in (3, 4):
        raise ValueError(text)
    return _finite(parts[0]), _finite(parts[1]), int(parts[2]), parts[3] if len(parts) == 4 else "linear"


_REQUIRED = object()
# the lowest value of each run number and what a refusal expects; zeros-scaling starts at N = 2
_RUN_NUMBERS = {
    "seed": (0, "a nonnegative integer"),
    "max_n": (2, "an integer >= 2"),
    "draws": (1, "a positive integer"),
}


class _Sections:
    """Section/key table of INI text plus typed readers with schema errors.

    `text` is the file, which locates a key's line; None stands for the
    command line.
    """

    def __init__(self, data: dict[str, dict[str, object]], text: str | None):
        self.text = text
        self.data = {}
        for section, keys in data.items():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}] ({_line_of(text, section, section)})")
            self.data[section] = {}
            for key, value in keys.items():
                if key not in _SCHEMA[section]:
                    raise ConfigError(
                        f"unknown key {key!r} in section [{section}] ({_line_of(text, section, key)})"
                    )
                if value is None:  # a JSON null: the key is absent
                    continue
                ini = _ini_text(value)
                if ini is None:
                    self._fail(section, key, "a number, a string or a list of them", f"got {value!r}")
                self.data[section][key] = ini

    def _fail(self, section, key, expected, detail, error=ConfigError):
        where = "command line" if self.text is None else _line_of(self.text, section, key)
        raise error(f"[{section}] {key}: expected {expected} ({where}): {detail}")

    def _read(self, section, key, convert, expected, default):
        raw = self.data.get(section, {}).get(key)
        if raw is None:
            if default is _REQUIRED:
                self._fail(section, key, expected, "key is required")
            return default
        try:
            return convert(raw.strip())
        except ValueError:
            self._fail(section, key, expected, f"got {raw!r}")

    def get_int(self, section, key, default=None):
        return self._read(section, key, int, "an integer", default)

    def get_float(self, section, key, default=None):
        return self._read(section, key, _finite, "a finite number", default)

    def get_str(self, section, key, default=None):
        return self._read(section, key, str, "a string", default)

    def get_floats(self, section, key, default=None):
        return self._read(section, key, lambda text: tuple(map(_finite, text.split(","))),
                          "a comma-separated list of finite numbers", default)

    def get_grid(self, section, key, default: tuple[float, float, int, str]) -> GridSpec:
        fields = self._read(section, key, _grid_fields, "a start:stop:count[:linear|log] grid with finite bounds",
                            default)
        try:
            return GridSpec(*fields)
        except SpinbathError as exc:  # GridSpec's own checks, and _check_times on its points
            self._fail(section, key, "a valid grid", str(exc))

    def get_command(self):
        """[run] command, or the command named on the command line: one of COMMANDS."""
        command = self.get_str("run", "command")
        if command is not None and command not in COMMANDS:
            self._fail("run", "command", f"one of {', '.join(COMMANDS)}", f"got {command!r}")
        return command

    def get_run_number(self, key, default=None):
        """seed, max_n or draws, at least its lowest value; max_n past
        MAX_DENSE_SITES is refused here, before any chain is drawn."""
        value = self.get_int("run", key, default)
        lowest, expected = _RUN_NUMBERS[key]
        if value is not None and value < lowest:
            self._fail("run", key, expected, f"got {value}")
        if key == "max_n" and value is not None and value > MAX_DENSE_SITES:
            self._fail("run", key, "a chain size that dense d x d objects can hold",
                       f"N <= {MAX_DENSE_SITES}, got N = {value}", CapacityError)
        return value


def _load_sections(path: Path) -> _Sections:
    try:
        text = path.read_text(encoding="utf-8")
    except UnicodeDecodeError as exc:
        raise ConfigError(f"config file {path} is not valid UTF-8: {exc}") from None
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from None
        if not isinstance(payload, dict) or not all(isinstance(v, dict) for v in payload.values()):
            raise ConfigError("JSON config must map section names to key/value objects")
        return _Sections(payload, text)
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:  # a missing header or a duplicate key carries its line
        where = f" (line {exc.lineno})" if getattr(exc, "lineno", None) else ""
        raise ConfigError(f"invalid config file{where}: {exc}") from None
    return _Sections({section: dict(parser.items(section)) for section in parser.sections()}, text)


def _parse_couplings(sections: _Sections) -> tuple[tuple[int, int, float], ...]:
    couplings = []
    for item in filter(None, map(str.strip, sections.get_str("chain", "couplings", "").split(","))):
        m = re.fullmatch(r"(\d+)\s*-\s*(\d+)\s*:\s*(\S+)", item)
        if not m:
            sections._fail("chain", "couplings", "items like '1-2: 0.333'", f"got {item!r}")
        try:
            couplings.append((int(m.group(1)), int(m.group(2)), _finite(m.group(3))))
        except ValueError:
            sections._fail("chain", "couplings", "a finite coupling strength", f"got {item!r}")
    return tuple(couplings)


def parse_config(path) -> RunConfig:
    """Read and validate a run configuration file (INI sections or JSON)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    sections = _load_sections(path)

    n = sections.get_int("chain", "n", _REQUIRED)
    if n < 1:
        sections._fail("chain", "n", "a positive number of sites", f"got {n}")
    fields = sections.get_floats("chain", "fields", _REQUIRED)
    if len(fields) != n:
        sections._fail("chain", "fields", f"one field per site ({n})", f"got {len(fields)}")
    couplings = _parse_couplings(sections)
    try:
        chain = ChainSpec(n_sites=n, fields=fields, couplings=couplings)
    except SpinbathError as exc:  # the sites and fields are checked above
        sections._fail("chain", "couplings", f"pairs a-b with 1 <= a < b <= {n}, each once", str(exc))

    temperature = sections.get_float("bath", "temperature", _REQUIRED)
    kappas = sections.get_floats("bath", "kappas", _REQUIRED)
    axes = [a.strip() for a in sections.get_str("bath", "axes", "x").split(",")]
    for key, bad, expected in (  # every refusal of BathConfig, and any axis but x, with its line
        ("temperature", temperature < 0, "a temperature >= 0"),
        ("kappas", len(kappas) != n or min(kappas) < 0, f"one bath per site ({n}), each kappa >= 0"),
        ("axes", set(axes) != {"x"} or len(axes) not in (1, n),
         f"x on every site, once or {n} times (sigma_y is sigma_x up to a phase; a z bath is kappa = 0)"),
    ):
        if bad:
            sections._fail("bath", key, expected, f"got {sections.data['bath'][key]!r}")
    bath = BathConfig(temperature=temperature, kappas=kappas)

    command = sections.get_command()
    kappa_site = sections.get_int("run", "kappa_site", 1)
    if not 1 <= kappa_site <= chain.n_sites:
        sections._fail("run", "kappa_site", f"a site in 1..{chain.n_sites}", f"got {kappa_site}")
    t_star = sections.get_float("run", "t_star", 10.0)
    if t_star <= 0:
        sections._fail("run", "t_star", "a positive time", f"got {t_star}")

    fig2_temperatures = sections.get_floats("run", "fig2_temperatures", (0.1, 0.3, 1.0, 3.0, 10.0))
    fig2_kappas = sections.get_floats("run", "fig2_kappas", (0.001, 0.01, 0.1, 1.0))
    for key, values in (("fig2_temperatures", fig2_temperatures), ("fig2_kappas", fig2_kappas)):
        if min(values) < 0:  # a bath variant BathConfig would refuse, refused with its line
            sections._fail("run", key, "values >= 0", f"got {sections.data['run'][key]!r}")

    initial_state = sections.get_str("run", "initial_state", "ground")
    try:
        _initial_state(initial_state, chain.dimension)
    except ValueError as exc:
        sections._fail("run", "initial_state", str(exc), f"got {initial_state!r}")
    if initial_state == "gibbs" and temperature == 0:
        sections._fail("run", "initial_state", "a state other than gibbs at temperature = 0",
                       f"got {initial_state!r}")

    return RunConfig(
        chain=chain,
        bath=bath,
        command=command,
        initial_state=initial_state,
        times=sections.get_grid("run", "times", (0.0, 10.0, 201, "linear")),
        t_star=t_star,
        temperature_grid=sections.get_grid("run", "temperature_grid", (0.1, 10.0, 25, "log")),
        kappa_grid=sections.get_grid("run", "kappa_grid", (1e-3, 1.0, 25, "log")),
        kappa_site=kappa_site,
        out=sections.get_str("run", "out"),
        seed=sections.get_run_number("seed"),
        max_n=sections.get_run_number("max_n", 4),
        draws=sections.get_run_number("draws", 100),
        fig2_temperatures=fig2_temperatures,
        fig2_kappas=fig2_kappas,
        source_hash=hashlib.sha256(sections.text.encode()).hexdigest(),
    )


def _initial_state(state: str, dimension: int) -> tuple[str, object]:
    """The initial_state grammar, parsed for the file check and again for the
    run: ('basis', k) for 'ground' (k = 0) and 'basis:K' (k = K - 1),
    ('uniform', None), ('gibbs', None), or ('vector', PopulationState) for d
    comma-separated probabilities.  A refusal is a ValueError saying what was
    expected."""
    if state in ("uniform", "gibbs"):
        return state, None
    m = re.fullmatch(r"ground|basis:(\d+)", state)
    if m:
        k = int(m.group(1) or 1)
        if not 1 <= k <= dimension:
            raise ValueError(f"a basis index in 1..{dimension}")
        return "basis", k - 1
    try:
        p = PopulationState(np.array([float(x) for x in state.split(",")]))
    except ValueError:  # not numbers, or not a probability vector
        p = None
    if p is None or p.dimension != dimension:
        raise ValueError(f"ground, uniform, gibbs, basis:K or {dimension} probabilities summing to 1")
    return "vector", p


def resolve_initial_state(cfg: RunConfig, dec: SpectralDecomposition) -> PopulationState:
    """Turn the configured initial-state tag into a population vector."""
    kind, value = _initial_state(cfg.initial_state, dec.dimension)
    if kind == "basis":
        return PopulationState.basis(dec.dimension, value)
    if kind == "uniform":
        return PopulationState.uniform(dec.dimension)
    if kind == "gibbs":
        return gibbs_state(dec, cfg.bath.temperature)
    return value


def with_overrides(cfg: RunConfig, *, command=None, out=None, seed=None, max_n=None,
                   draws=None) -> RunConfig:
    """Apply command-line overrides on top of a parsed configuration.  The
    command, seed, max_n and draws pass the file's reader and checks, as text
    or as values, and a refusal names (command line) where a file value names
    its line."""
    flags = _Sections({"run": {"command": command, "seed": seed, "max_n": max_n, "draws": draws}}, None)
    updates = {"command": flags.get_command(), "out": None if out is None else str(out)}
    updates.update((key, flags.get_run_number(key)) for key in _RUN_NUMBERS)
    return replace(cfg, **{key: value for key, value in updates.items() if value is not None})
