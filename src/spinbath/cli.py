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
refuses it (exit 3), as `steady_states` and the late-time predictions do,
while `blocks` still writes the block structure (exit 0).

A config file is INI text or JSON read as the same INI text (spinbath.config).
--seed, --max-n and --draws pass the config file's reader and checks, so a
bad value exits 2 naming the key and "(command line)" where a file value
names its line.

Every command but `spectrum` and `zeros-scaling` decomposes the chain and
builds the transition table once, which admits the spectrum: a degenerate
one (two adjacent levels within chain.DEGENERACY_TOL) exits 2 with a
DegenerateGapError naming the pair, before any artifact is written.
`spectrum` reports it instead ("spectrum_degenerate" in degeneracy.json) and
exits 0.  `sweep-T`, `sweep-kappa` and `fig2` sweep on that one table
(analysis.sweep).  A sweep point whose rates or state at t* fail their checks
is a `# failed_point` header line with its reason and a nan P_exc; the
command still exits 0.

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


def _echo(cfg: RunConfig, command: str) -> dict:
    params = {
        "command": command,
        "n": cfg.chain.n_sites,
        "fields": "(" + ",".join(export.fmt(h) for h in cfg.chain.fields) + ")",
        "couplings": ";".join(f"{a}-{b}:{export.fmt(d)}" for a, b, d in cfg.chain.couplings) or "none",
        "temperature": export.fmt(cfg.bath.temperature),
        "kappas": "(" + ",".join(export.fmt(k) for k in cfg.bath.kappas) + ")",
        "axes": "".join(cfg.bath.axes),
    }
    if command in ("evolve", "fig2"):
        params["times"] = str(cfg.times)
    if command in ("evolve", "sweep-T", "sweep-kappa", "fig2"):
        params["initial_state"] = cfg.initial_state
    if command in ("sweep-T", "fig2"):
        params["temperature_grid"] = str(cfg.temperature_grid)
    if command in ("sweep-kappa", "fig2"):
        params["kappa_grid"] = str(cfg.kappa_grid)
        params["kappa_site"] = cfg.kappa_site
    if command in ("sweep-T", "sweep-kappa", "fig2"):
        params["t_star"] = export.fmt(cfg.t_star)
    if command == "zeros-scaling":
        params["max_n"] = cfg.max_n
        params["draws"] = cfg.draws
        params["seed"] = cfg.seed
    return params


def _header(cfg: RunConfig, command: str) -> list[str]:
    return export.provenance_lines(command, cfg.source_hash, _echo(cfg, command))


def _table(cfg: RunConfig):
    return coupling_matrix_elements(cfg.bath, decompose_chain(cfg.chain))


def _cmd_spectrum(cfg: RunConfig, out: Path) -> list[Path]:
    dec = decompose_chain(cfg.chain)
    report = check_degeneracy(dec)
    header = _header(cfg, "spectrum")
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
    rates = build_rate_matrix(_table(cfg), cfg.bath)
    header = _header(cfg, "rates")
    return [
        export.write_rates_csv(out / "rates.csv", rates, header),
        export.write_mask_csv(out / "rates_mask.csv", _structural_pattern(rates.elems, cfg.bath.kappas), header),
    ]


def _cmd_evolve(cfg: RunConfig, out: Path) -> list[Path]:
    elems = _table(cfg)
    rates = build_rate_matrix(elems, cfg.bath)
    traj = propagate_populations(rates, resolve_initial_state(cfg, elems.spectrum), cfg.times.values())
    return [export.write_trajectory_csv(out / "trajectory.csv", traj, _header(cfg, "evolve"))]


def _cmd_steady(cfg: RunConfig, out: Path) -> list[Path]:
    partition = connectivity_blocks(_table(cfg), cfg.bath)
    return [export.write_steady_csv(out / "steady.csv", partition, _header(cfg, "steady"))]


def _cmd_blocks(cfg: RunConfig, out: Path) -> list[Path]:
    payload = [[i + 1 for i in block] for block in structural_blocks(_table(cfg), cfg.bath.kappas)]
    return [export.write_json(out / "blocks.json", payload, _header(cfg, "blocks"))]


def _cmd_sweep_t(cfg: RunConfig, out: Path) -> list[Path]:
    elems = _table(cfg)
    sweep = analysis.sweep(elems, cfg.bath, "temperature", cfg.temperature_grid.values(), cfg.t_star,
                           resolve_initial_state(cfg, elems.spectrum))
    return [export.write_sweep_csv(out / "sweep_T.csv", sweep, _header(cfg, "sweep-T"))]


def _cmd_sweep_kappa(cfg: RunConfig, out: Path) -> list[Path]:
    elems = _table(cfg)
    sweep = analysis.sweep(elems, cfg.bath, "kappa", cfg.kappa_grid.values(), cfg.t_star,
                           resolve_initial_state(cfg, elems.spectrum), cfg.kappa_site)
    return [export.write_sweep_csv(out / "sweep_kappa.csv", sweep, _header(cfg, "sweep-kappa"))]


def _cmd_zeros_scaling(cfg: RunConfig, out: Path) -> list[Path]:
    if cfg.seed is None:
        raise ConfigError("zeros-scaling needs a fixed RNG seed ([run] seed or --seed)")
    rng = np.random.default_rng(cfg.seed)
    rows = analysis.zeros_scaling(cfg.max_n, cfg.draws, rng)
    body = ["N,counted,predicted"] + [f"{n},{c},{p}" for n, c, p in rows]
    return [export.write_lines(out / "zeros_scaling.csv", _header(cfg, "zeros-scaling"), body)]


def _cmd_fig2(cfg: RunConfig, out: Path) -> list[Path]:
    """The four datasets behind the thermal-vs-chemical excitation figure.

    fig2c: P_exc(t) at several temperatures with the configured (asymmetric)
    couplings; fig2d: P_exc(t) at several kappa values for the swept site at
    the configured temperature; fig2e/f: the corresponding P_exc(t*) sweeps.
    """
    elems = _table(cfg)
    # the configured-bath rates are built only to refuse overflowing rates up
    # front; the benchmark's pinned bose_einstein count (240) includes their 4 calls
    build_rate_matrix(elems, cfg.bath)
    p0 = resolve_initial_state(cfg, elems.spectrum)
    times = cfg.times.values()
    header = _header(cfg, "fig2")
    site = cfg.kappa_site

    def curves(path: Path, label: str, axis: str, points) -> Path:
        columns = []  # P_exc(t) for each bath variant, built by the sweeps' own rule
        for value in points:
            rates = build_rate_matrix(elems, analysis.bath_at(cfg.bath, axis, value, site))
            columns.append(1.0 - propagate_populations(rates, p0, times).populations[:, 0])
        names = "t," + ",".join(f"{label}={export.fmt(v)}" for v in points)
        return export.write_csv(path, [*header, names], np.column_stack((times, *columns)))

    return [
        curves(out / "fig2c.csv", "T", "temperature", cfg.fig2_temperatures),
        curves(out / "fig2d.csv", f"kappa{site}", "kappa", cfg.fig2_kappas),
        export.write_sweep_csv(out / "fig2e.csv", analysis.sweep(
            elems, cfg.bath, "temperature", cfg.temperature_grid.values(), cfg.t_star, p0), header),
        export.write_sweep_csv(out / "fig2f.csv", analysis.sweep(
            elems, cfg.bath, "kappa", cfg.kappa_grid.values(), cfg.t_star, p0, site), header),
    ]


_HANDLERS = {
    "spectrum": _cmd_spectrum,
    "rates": _cmd_rates,
    "evolve": _cmd_evolve,
    "steady": _cmd_steady,
    "blocks": _cmd_blocks,
    "sweep-T": _cmd_sweep_t,
    "sweep-kappa": _cmd_sweep_kappa,
    "zeros-scaling": _cmd_zeros_scaling,
    "fig2": _cmd_fig2,
}


def run_command(cfg: RunConfig) -> list[Path]:
    """Execute the configured command and return the written artifact paths."""
    if cfg.command is None:
        raise ConfigError("no command given (positional argument or [run] command)")
    if cfg.command not in _HANDLERS:
        raise ConfigError(f"unknown command {cfg.command!r}; available: {', '.join(COMMANDS)}")
    out = Path(cfg.out) if cfg.out else Path(os.environ.get(OUT_DIR_ENV, "."))
    out.mkdir(parents=True, exist_ok=True)
    return _HANDLERS[cfg.command](cfg, out)


def _resolve_config_path(value: str) -> Path:
    path = Path(value)
    if path.is_file():
        return path
    if os.sep not in value and value == Path(value).stem:
        return builtin_config_path(value)
    raise ConfigError(f"config file not found: {value}")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinbath",
        description="Relaxation of open spin chains with site-asymmetric thermal baths.",
    )
    parser.add_argument("command", nargs="?", choices=COMMANDS,
                        help="command to run (defaults to the config's [run] command)")
    parser.add_argument("--config", required=True,
                        help="path to a run config, or the name of a builtin one (e.g. ising2_paper)")
    parser.add_argument("--out", help=f"output directory (default: config, then ${OUT_DIR_ENV}, then .)")
    parser.add_argument("--seed", type=int, help="RNG seed for randomized runs")
    parser.add_argument("--max-n", type=int, dest="max_n", help="largest chain size for zeros-scaling")
    parser.add_argument("--draws", type=int, help="random draws per chain size for zeros-scaling")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
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
