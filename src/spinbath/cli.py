"""Command-line interface: one config file in, deterministic CSV/JSON files out.

Exit codes: 0 success, 2 configuration/model error, 3 numerical error (a
numerical-integrity check or a failed linear-algebra routine), 4 output/IO
error (any OSError, such as an output path that is a file), 5 out of memory.
Failures print a machine-readable JSON record to stderr.

`steady` and `blocks` read only the transition table: which sites have
kappa > 0, and at T = 0 which downhill J(omega) are 0.0.  Their results do not
depend on rate magnitudes, so a kappa whose rates overflow (kappa = 1e308 on a
gap above 1.8) makes `rates`, `evolve` and `fig2` exit 3 but `steady` and
`blocks` exit 0 with the output of any other positive kappa.  At T = 0 a
block holding several absorbing minima has no unique steady state: `steady`
refuses it (exit 3), as the late-time predictions do (both read
dynamics.connectivity_blocks), while `blocks` still writes the block
structure (exit 0).

A config file is INI text or JSON read as the same INI text (spinbath.config).
argparse only splits argv: the positional command, --seed, --max-n and
--draws pass the config file's reader and checks, so a bad value exits 2
naming the key and "(command line)" where a file value names its line, and
argv that argparse cannot split (no --config, an unknown option) exits 2
with the same one JSON record.

Every command but `spectrum` and `zeros-scaling` decomposes the chain and
builds the transition table once, which admits the spectrum: a degenerate
one (two adjacent levels within chain.DEGENERACY_TOL) exits 2 with a
DegenerateGapError naming the pair, before any artifact is written.
`spectrum` reports it instead ("spectrum_degenerate" in degeneracy.json) and
exits 0.  `sweep-T`, `sweep-kappa`, fig2e and fig2f are one configured
sweep on that one table (`_sweep`, analysis.sweep), and fig2c and fig2d its
P_exc(t) curves (analysis.excitation_curves).  A sweep point whose rates or
state at t* fail their checks is a `# failed_point` header line with its
reason and a nan P_exc; the command still exits 0.

`spectrum`, `rates`, `steady`, `blocks` and `zeros-scaling` run on numpy
alone and never import scipy.  `evolve`, `sweep-T`, `sweep-kappa` and `fig2`
start from, and echo, [run] initial_state, and import scipy.linalg on their
first matrix exponential (dynamics.expm).  Every command refuses more than
chain.MAX_DENSE_SITES sites (exit 2, CapacityError); on the rate path only
the dense Lambda of the exponential (RateMatrix.matrix) has a limit of its own.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

import numpy as np

from . import analysis, export
from .bath import coupling_matrix_elements
from .chain import check_degeneracy, decompose_chain
from .config import COMMANDS, RunConfig, builtin_config_path, parse_config, resolve_initial_state, with_overrides
from .dynamics import connectivity_blocks, propagate_populations
from .errors import ConfigError, NumericalIntegrityError, SpinbathError
from .generator import _structural_pattern, build_rate_matrix, structural_blocks

OUT_DIR_ENV = "SPINBATH_OUT"


def _echo_value(value) -> str:
    """One `# params:` value without whitespace: a tuple of floats as (a,b,c), a
    float as export.fmt prints it, a string with its whitespace dropped."""
    if isinstance(value, tuple):
        return "(" + ",".join(export.fmt(v) for v in value) + ")"
    if isinstance(value, float):
        return export.fmt(value)
    return "".join(str(value).split())


def _header(cfg: RunConfig) -> list[str]:
    """The provenance lines of cfg.command: the chain and bath, then the [run]
    keys that command reads (`_COMMAND_TABLE`)."""
    chain, bath = cfg.chain, cfg.bath
    params = {
        "command": cfg.command,
        "n": chain.n_sites,
        "fields": _echo_value(chain.fields),
        "couplings": ";".join(f"{a}-{b}:{export.fmt(d)}" for a, b, d in chain.couplings) or "none",
        "temperature": _echo_value(bath.temperature),
        "kappas": _echo_value(bath.kappas),
        "axes": "x" * bath.n_sites,  # every bath couples through sigma_x
    }
    for key in _COMMAND_TABLE[cfg.command][1]:
        params[key] = _echo_value(getattr(cfg, key))
    return export.provenance_lines(cfg.command, cfg.source_hash, params)


def _table(cfg: RunConfig):
    return coupling_matrix_elements(decompose_chain(cfg.chain))


def _cmd_spectrum(cfg: RunConfig, out: Path) -> list[Path]:
    dec = decompose_chain(cfg.chain)
    report = check_degeneracy(dec)
    header = _header(cfg)
    states = np.arange(1, dec.dimension + 1)[:, None]
    files = [
        export.write_csv(out / "spectrum.csv", [*header, "state,energy"], states, dec.energies[:, None]),
        export.write_gaps_csv(out / "gaps.csv", dec.energies, header),
    ]
    payload = {
        "tolerance": report.tolerance,
        "spectrum_degenerate": report.spectrum_degenerate,
        "gaps_degenerate": report.gaps_degenerate,
        "spectrum_pairs": [[i + 1, j + 1, diff] for i, j, diff in report.spectrum_pairs],
        "gap_pairs": [
            [[i + 1, j + 1], [k + 1, l + 1], diff]
            for (i, j), (k, l), diff in report.gap_pairs
        ],
    }
    files.append(export.write_json(out / "degeneracy.json", payload, header))
    return files


def _cmd_rates(cfg: RunConfig, out: Path) -> list[Path]:
    elems = _table(cfg)
    rates = build_rate_matrix(elems, cfg.bath)
    coupled, touched = _structural_pattern(elems, cfg.bath)
    header = _header(cfg)
    return [
        export.write_rates_csv(out / "rates.csv", rates, header),
        export.write_mask_csv(out / "rates_mask.csv", (elems.rows[coupled], elems.cols[coupled], touched), header),
    ]


def _cmd_evolve(cfg: RunConfig, out: Path) -> list[Path]:
    elems = _table(cfg)
    rates = build_rate_matrix(elems, cfg.bath)
    traj = propagate_populations(rates, resolve_initial_state(cfg, elems.spectrum), cfg.times.points)
    return [export.write_trajectory_csv(out / "trajectory.csv", traj, _header(cfg))]


def _cmd_steady(cfg: RunConfig, out: Path) -> list[Path]:
    partition = connectivity_blocks(_table(cfg), cfg.bath)
    return [export.write_steady_csv(out / "steady.csv", partition, _header(cfg))]


def _cmd_blocks(cfg: RunConfig, out: Path) -> list[Path]:
    payload = [[i + 1 for i in block] for block in structural_blocks(_table(cfg), cfg.bath)]
    return [export.write_json(out / "blocks.json", payload, _header(cfg))]


def _sweep(cfg: RunConfig, elems, p0, axis: str) -> analysis.SweepResult:
    """The configured P_exc(t*) sweep along `axis`: sweep-T, sweep-kappa, fig2e and fig2f."""
    grid, site = (cfg.temperature_grid, None) if axis == "temperature" else (cfg.kappa_grid, cfg.kappa_site)
    return analysis.sweep(elems, cfg.bath, axis, grid.points, cfg.t_star, p0, site)


def _cmd_sweep(axis: str, name: str):
    """The handler of a sweep command: the configured sweep along `axis`, written to `name`."""
    def run(cfg: RunConfig, out: Path) -> list[Path]:
        elems = _table(cfg)
        sweep = _sweep(cfg, elems, resolve_initial_state(cfg, elems.spectrum), axis)
        return [export.write_sweep_csv(out / name, sweep, _header(cfg))]
    return run


def _cmd_zeros_scaling(cfg: RunConfig, out: Path) -> list[Path]:
    if cfg.seed is None:
        raise ConfigError("zeros-scaling needs a fixed RNG seed ([run] seed or --seed)")
    rng = np.random.default_rng(cfg.seed)
    rows = np.array(analysis.zeros_scaling(cfg.max_n, cfg.draws, rng))
    return [export.write_csv(out / "zeros_scaling.csv", [*_header(cfg), "N,counted,predicted"], rows)]


def _cmd_fig2(cfg: RunConfig, out: Path) -> list[Path]:
    """The four datasets behind the thermal-vs-chemical excitation figure,
    all computed before any is written: fig2c, P_exc(t) at several
    temperatures with the configured (asymmetric) couplings; fig2d, P_exc(t)
    at several kappa values for the swept site at the configured temperature;
    fig2e/f, the corresponding P_exc(t*) sweeps.
    """
    elems = _table(cfg)
    # the configured-bath rates are built only to refuse overflowing rates up front;
    # the benchmark's pinned bose_einstein count, 240 = 60 variants x 4 flips built in
    # 5 passes (this one, then one per curve set and sweep), includes their 4 calls
    build_rate_matrix(elems, cfg.bath)
    p0 = resolve_initial_state(cfg, elems.spectrum)
    times = cfg.times.points
    header = _header(cfg)

    def curves(label: str, axis: str, points, site: int | None = None):
        columns = analysis.excitation_curves(elems, cfg.bath, axis, points, times, p0, site)
        names = "t," + ",".join(f"{label}={export.fmt(v)}" for v in points)
        return [*header, names], np.column_stack((times, columns))

    fig2c = curves("T", "temperature", cfg.fig2_temperatures)
    fig2d = curves(f"kappa{cfg.kappa_site}", "kappa", cfg.fig2_kappas, cfg.kappa_site)
    fig2e, fig2f = _sweep(cfg, elems, p0, "temperature"), _sweep(cfg, elems, p0, "kappa")
    return [
        export.write_csv(out / "fig2c.csv", *fig2c),
        export.write_csv(out / "fig2d.csv", *fig2d),
        export.write_sweep_csv(out / "fig2e.csv", fig2e, header),
        export.write_sweep_csv(out / "fig2f.csv", fig2f, header),
    ]


# command -> (handler, the [run] keys it reads, echoed in its `# params:` line)
_COMMAND_TABLE = {
    "spectrum": (_cmd_spectrum, ()),
    "rates": (_cmd_rates, ()),
    "evolve": (_cmd_evolve, ("times", "initial_state")),
    "steady": (_cmd_steady, ()),
    "blocks": (_cmd_blocks, ()),
    "sweep-T": (_cmd_sweep("temperature", "sweep_T.csv"), ("initial_state", "temperature_grid", "t_star")),
    "sweep-kappa": (_cmd_sweep("kappa", "sweep_kappa.csv"), ("initial_state", "kappa_grid", "kappa_site", "t_star")),
    "zeros-scaling": (_cmd_zeros_scaling, ("max_n", "draws", "seed")),
    "fig2": (_cmd_fig2, ("times", "initial_state", "temperature_grid", "kappa_grid", "kappa_site", "t_star",
                         "fig2_temperatures", "fig2_kappas")),
}


def run_command(cfg: RunConfig) -> list[Path]:
    """Execute the configured command and return the written artifact paths."""
    if cfg.command is None:
        raise ConfigError("no command given (positional argument or [run] command)")
    if cfg.command not in _COMMAND_TABLE:
        raise ConfigError(f"unknown command {cfg.command!r}; available: {', '.join(COMMANDS)}")
    out = Path(cfg.out) if cfg.out else Path(os.environ.get(OUT_DIR_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    return _COMMAND_TABLE[cfg.command][0](cfg, out)


def _resolve_config_path(value: str) -> Path:
    path = Path(value)
    if path.is_file():
        return path
    if os.sep not in value and value == Path(value).stem:
        return builtin_config_path(value)
    raise ConfigError(f"config file not found: {value}")


class _ArgvParser(argparse.ArgumentParser):
    def error(self, message):
        """argv that cannot be split is refused like any other input: main's JSON record, exit 2."""
        raise ConfigError(f"command line: {message}")


def build_parser() -> argparse.ArgumentParser:
    parser = _ArgvParser(
        prog="spinbath",
        description="Relaxation of open spin chains with site-asymmetric thermal baths.",
    )
    parser.add_argument("command", nargs="?",
                        help=f"one of {', '.join(COMMANDS)} (defaults to the config's [run] command)")
    parser.add_argument("--config", required=True,
                        help="path to a run config, or the name of a builtin one (e.g. ising2_paper)")
    parser.add_argument("--out", help=f"output directory (default: config, then ${OUT_DIR_ENV}, then .)")
    parser.add_argument("--seed", help="RNG seed for randomized runs")
    parser.add_argument("--max-n", dest="max_n", help="largest chain size for zeros-scaling")
    parser.add_argument("--draws", help="random draws per chain size for zeros-scaling")
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        cfg = parse_config(_resolve_config_path(args.config))
        cfg = with_overrides(
            cfg,
            command=args.command,
            out=args.out,
            seed=args.seed,
            max_n=args.max_n,
            draws=args.draws,
        )
        files = run_command(cfg)
    except (NumericalIntegrityError, np.linalg.LinAlgError) as exc:
        _report_error(exc, 3)
        return 3
    except SpinbathError as exc:
        _report_error(exc, 2)
        return 2
    except OSError as exc:
        _report_error(exc, 4)
        return 4
    except MemoryError as exc:
        _report_error(exc, 5)
        return 5
    for path in files:
        print(path)
    return 0


def _report_error(exc: Exception, code: int) -> None:
    record = {"error": type(exc).__name__, "message": str(exc), "exit_code": code}
    print(json.dumps(record), file=sys.stderr)


if __name__ == "__main__":
    sys.exit(main())
