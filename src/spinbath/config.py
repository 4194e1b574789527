"""Run-configuration parsing: INI-style section files, JSON alternative.

A run file has [chain], [bath] and optional [run] sections; unknown sections
or keys are rejected with the offending line.  The same structure nested as
JSON objects is accepted when the file is valid JSON.  Units follow the
package convention hbar = k_B = h_1 = 1.
"""

from __future__ import annotations

import configparser
import hashlib
import json
import math
import re
from dataclasses import dataclass, replace
from importlib import resources
from pathlib import Path

import numpy as np

from .bath import BathConfig
from .chain import ChainSpec, SpectralDecomposition
from .dynamics import PopulationState, gibbs_state
from .errors import ConfigError, SpinbathError

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


@dataclass(frozen=True)
class GridSpec:
    """A (start, stop, count, linear|log) sweep grid."""

    start: float
    stop: float
    count: int
    mode: str = "linear"

    def __post_init__(self):
        if self.count < 2:
            raise ConfigError(f"grid needs at least 2 points, got {self.count}")
        if not self.start < self.stop:
            raise ConfigError(f"grid must increase: start={self.start}, stop={self.stop}")
        if self.mode not in ("linear", "log"):
            raise ConfigError(f"grid mode must be linear or log, got {self.mode!r}")
        if self.mode == "log" and self.start <= 0:
            raise ConfigError("log grid requires a positive start")

    def values(self) -> np.ndarray:
        if self.mode == "log":
            return np.geomspace(self.start, self.stop, self.count)
        return np.linspace(self.start, self.stop, self.count)

    def __str__(self) -> str:
        return f"{self.start:g}:{self.stop:g}:{self.count}:{self.mode}"


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
    source_path: str


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
    """Best-effort line locator for error messages."""
    current = None
    for lineno, line in enumerate(text.splitlines(), start=1):
        m = re.match(r"\s*\[(\w+)\]", line)
        if m:
            current = m.group(1)
            if key == section == current:
                return f"line {lineno}"
            continue
        if re.match(rf'\s*"?{re.escape(key)}"?\s*[=:]', line) and current in (section, None):
            return f"line {lineno}"
    return "line unknown"


class _Sections:
    """Raw section/key table plus typed accessors with schema errors."""

    def __init__(self, data: dict[str, dict[str, object]], text: str):
        self.data = data
        self.text = text
        for section, keys in data.items():
            if section not in _SCHEMA:
                raise ConfigError(f"unknown section [{section}] ({_line_of(text, section, section)})")
            for key in keys:
                if key not in _SCHEMA[section]:
                    raise ConfigError(
                        f"unknown key {key!r} in section [{section}] ({_line_of(text, section, key)})"
                    )

    def has(self, section: str, key: str) -> bool:
        return key in self.data.get(section, {})

    def raw(self, section: str, key: str, default=None):
        return self.data.get(section, {}).get(key, default)

    def _fail(self, section, key, expected, detail=""):
        where = _line_of(self.text, section, key)
        suffix = f": {detail}" if detail else ""
        raise ConfigError(f"[{section}] {key}: expected {expected} ({where}){suffix}")

    def get_int(self, section, key, default=None, required=False):
        raw = self.raw(section, key)
        if raw is None:
            if required:
                self._fail(section, key, "an integer", "key is required")
            return default
        try:
            if isinstance(raw, bool) or (isinstance(raw, float) and not raw.is_integer()):
                raise ValueError
            return int(raw) if not isinstance(raw, str) else int(raw.strip())
        except ValueError:
            self._fail(section, key, "an integer", f"got {raw!r}")

    def get_float(self, section, key, default=None, required=False):
        raw = self.raw(section, key)
        if raw is None:
            if required:
                self._fail(section, key, "a number", "key is required")
            return default
        try:
            value = float(raw if not isinstance(raw, str) else raw.strip())
        except (TypeError, ValueError):
            self._fail(section, key, "a number", f"got {raw!r}")
        if not math.isfinite(value):
            self._fail(section, key, "a finite number", f"got {raw!r}")
        return value

    def get_str(self, section, key, default=None, required=False):
        raw = self.raw(section, key)
        if raw is None:
            if required:
                self._fail(section, key, "a string", "key is required")
            return default
        return str(raw).strip()

    def get_floats(self, section, key, default=None, required=False):
        raw = self.raw(section, key)
        if raw is None:
            if required:
                self._fail(section, key, "a comma-separated list of numbers", "key is required")
            return default
        items = raw if isinstance(raw, (list, tuple)) else str(raw).split(",")
        try:
            values = tuple(float(x) for x in items)
        except (TypeError, ValueError):
            self._fail(section, key, "a comma-separated list of numbers", f"got {raw!r}")
        if not all(math.isfinite(v) for v in values):
            self._fail(section, key, "a comma-separated list of finite numbers", f"got {raw!r}")
        return values

    def get_grid(self, section, key, default: str):
        raw = self.raw(section, key, default)
        if isinstance(raw, (list, tuple)):
            parts = [str(x).strip() for x in raw]
        else:
            parts = [p.strip() for p in str(raw).strip().strip("()").replace(",", ":").split(":")]
        if len(parts) not in (3, 4):
            self._fail(section, key, "a start:stop:count[:linear|log] grid", f"got {raw!r}")
        try:
            grid = GridSpec(
                start=float(parts[0]),
                stop=float(parts[1]),
                count=int(parts[2]),
                mode=parts[3] if len(parts) == 4 else "linear",
            )
        except ValueError:
            self._fail(section, key, "a start:stop:count[:linear|log] grid", f"got {raw!r}")
        except ConfigError as exc:
            self._fail(section, key, "a valid grid", str(exc))
        if not (math.isfinite(grid.start) and math.isfinite(grid.stop)):
            self._fail(section, key, "a grid with finite bounds", f"got {raw!r}")
        return grid


def _load_sections(path: Path) -> tuple[_Sections, str]:
    text = path.read_text()
    if path.suffix == ".json" or text.lstrip().startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ConfigError(f"invalid JSON config: {exc}") from None
        if not isinstance(payload, dict) or not all(isinstance(v, dict) for v in payload.values()):
            raise ConfigError("JSON config must map section names to key/value objects")
        return _Sections(payload, text), text
    parser = configparser.ConfigParser(interpolation=None, inline_comment_prefixes=("#", ";"))
    try:
        parser.read_string(text)
    except configparser.Error as exc:
        raise ConfigError(f"invalid config file: {exc}") from None
    data = {section: dict(parser.items(section)) for section in parser.sections()}
    return _Sections(data, text), text


def _parse_couplings(sections: _Sections) -> tuple[tuple[int, int, float], ...]:
    raw = sections.raw("chain", "couplings")
    if raw in (None, ""):
        return ()
    if isinstance(raw, (list, tuple)):
        items = [str(x) for x in raw]
    else:
        items = [x for x in str(raw).split(",") if x.strip()]
    couplings = []
    for item in items:
        m = re.fullmatch(r"\s*(\d+)\s*-\s*(\d+)\s*:\s*([^\s]+)\s*", item)
        if not m:
            sections._fail("chain", "couplings", "items like '1-2: 0.333'", f"got {item!r}")
        try:
            couplings.append((int(m.group(1)), int(m.group(2)), float(m.group(3))))
        except ValueError:
            sections._fail("chain", "couplings", "a numeric coupling strength", f"got {item!r}")
        if not math.isfinite(couplings[-1][2]):
            sections._fail("chain", "couplings", "a finite coupling strength", f"got {item!r}")
    return tuple(couplings)


def parse_config(path) -> RunConfig:
    """Read and validate a run configuration file (INI sections or JSON)."""
    path = Path(path)
    if not path.is_file():
        raise ConfigError(f"config file not found: {path}")
    sections, text = _load_sections(path)

    n = sections.get_int("chain", "n", required=True)
    fields = sections.get_floats("chain", "fields", required=True)
    try:
        chain = ChainSpec(n_sites=n, fields=fields, couplings=_parse_couplings(sections))
    except SpinbathError as exc:
        raise ConfigError(f"[chain]: {exc}") from None

    temperature = sections.get_float("bath", "temperature", required=True)
    kappas = sections.get_floats("bath", "kappas", required=True)
    axes_raw = sections.raw("bath", "axes")
    if axes_raw is None:
        axes = ()
    elif isinstance(axes_raw, (list, tuple)):
        axes = tuple(str(a).strip() for a in axes_raw)
    else:
        text_axes = str(axes_raw).strip()
        parts = [a.strip() for a in text_axes.split(",")] if "," in text_axes else [text_axes] * len(kappas)
        axes = tuple(parts)
    try:
        bath = BathConfig(temperature=temperature, kappas=kappas, axes=axes)
    except SpinbathError as exc:
        raise ConfigError(f"[bath]: {exc}") from None
    if bath.n_sites != chain.n_sites:
        raise ConfigError(
            f"[bath] kappas: expected one bath per site ({chain.n_sites}), got {bath.n_sites}"
        )

    command = sections.get_str("run", "command")
    if command is not None and command not in COMMANDS:
        raise ConfigError(
            f"[run] command: expected one of {', '.join(COMMANDS)} "
            f"({_line_of(text, 'run', 'command')}): got {command!r}"
        )
    kappa_site = sections.get_int("run", "kappa_site", default=1)
    if not 1 <= kappa_site <= chain.n_sites:
        raise ConfigError(f"[run] kappa_site: site {kappa_site} out of range 1..{chain.n_sites}")
    t_star = sections.get_float("run", "t_star", default=10.0)
    if t_star <= 0:
        raise ConfigError(f"[run] t_star: expected a positive time, got {t_star}")
    seed = sections.get_int("run", "seed", default=None)
    if seed is not None and seed < 0:
        raise ConfigError(f"[run] seed: expected a nonnegative integer, got {seed}")

    initial_state = sections.get_str("run", "initial_state", default="ground")
    _validate_initial_state(initial_state, chain.dimension)

    cfg = RunConfig(
        chain=chain,
        bath=bath,
        command=command,
        initial_state=initial_state,
        times=sections.get_grid("run", "times", default="0:10:201"),
        t_star=t_star,
        temperature_grid=sections.get_grid("run", "temperature_grid", default="0.1:10:25:log"),
        kappa_grid=sections.get_grid("run", "kappa_grid", default="1e-3:1:25:log"),
        kappa_site=kappa_site,
        out=sections.get_str("run", "out"),
        seed=seed,
        max_n=sections.get_int("run", "max_n", default=4),
        draws=sections.get_int("run", "draws", default=100),
        fig2_temperatures=sections.get_floats(
            "run", "fig2_temperatures", default=(0.1, 0.3, 1.0, 3.0, 10.0)
        ),
        fig2_kappas=sections.get_floats("run", "fig2_kappas", default=(0.001, 0.01, 0.1, 1.0)),
        source_hash=hashlib.sha256(text.encode()).hexdigest(),
        source_path=str(path),
    )
    if cfg.max_n < 1:
        raise ConfigError(f"[run] max_n: expected a positive integer, got {cfg.max_n}")
    if cfg.draws < 1:
        raise ConfigError(f"[run] draws: expected a positive integer, got {cfg.draws}")
    return cfg


def _validate_initial_state(state: str, dimension: int) -> None:
    if state in ("ground", "uniform", "gibbs"):
        return
    m = re.fullmatch(r"basis:(\d+)", state)
    if m:
        index = int(m.group(1))
        if not 1 <= index <= dimension:
            raise ConfigError(f"[run] initial_state: basis index {index} out of range 1..{dimension}")
        return
    try:
        values = tuple(float(x) for x in state.split(","))
    except ValueError:
        raise ConfigError(
            f"[run] initial_state: expected ground|uniform|gibbs|basis:K or {dimension} "
            f"probabilities, got {state!r}"
        ) from None
    if len(values) != dimension:
        raise ConfigError(
            f"[run] initial_state: expected {dimension} probabilities, got {len(values)}"
        )


def resolve_initial_state(cfg: RunConfig, dec: SpectralDecomposition) -> PopulationState:
    """Turn the configured initial-state tag into a population vector."""
    d = dec.dimension
    state = cfg.initial_state
    if state == "ground":
        return PopulationState.basis(d, 0)
    if state == "uniform":
        return PopulationState.uniform(d)
    if state == "gibbs":
        return gibbs_state(dec, cfg.bath.temperature)
    m = re.fullmatch(r"basis:(\d+)", state)
    if m:
        return PopulationState.basis(d, int(m.group(1)) - 1)
    try:
        return PopulationState(np.array([float(x) for x in state.split(",")]))
    except SpinbathError as exc:
        raise ConfigError(f"[run] initial_state: {exc}") from None


def with_overrides(cfg: RunConfig, *, command=None, out=None, seed=None, max_n=None,
                   draws=None) -> RunConfig:
    """Apply command-line overrides on top of a parsed configuration."""
    updates = {}
    if command is not None:
        updates["command"] = command
    if out is not None:
        updates["out"] = str(out)
    if seed is not None:
        updates["seed"] = int(seed)
    if max_n is not None:
        updates["max_n"] = int(max_n)
    if draws is not None:
        updates["draws"] = int(draws)
    return replace(cfg, **updates) if updates else cfg
