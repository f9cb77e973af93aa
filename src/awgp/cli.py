"""Batch command-line surface.

Subcommands: aw-fbm, aw-discrete, aw-unit, aw-multi, mart-approx, simulate,
check-assumptions, regen-goldens.  Flags can also be supplied through a JSON
config file (--config) using the same field names with dashes replaced by
underscores; a config field sets its flag whatever the flag's default, and an
explicit flag wins over the config.  Exit codes: 0 success, 2 validation
failure, 3 numerical failure (diagnostics on stderr).
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys

import numpy as np

from . import __version__
from .config import build_process_spec, build_scenario
from .errors import (ConvergenceError, DomainError, MeasureOrderingError,
                     NotPositiveDefiniteError, SimulationError, check_count)
from .fsde import estimate_coupling_cost, euler_fsde, simulate_coupled_noise, assumption_checker
from .gauss_aw import (CovMatrix, DistanceReport, continuous_aw_fbm, continuous_aw_multi,
                       continuous_aw_unit, discrete_aw)
from .mart_approx import mart_approx_distance
from .oracles import regenerate_goldens
from .quadrature import QuadratureGrid

_EXIT_VALIDATION = 2
_EXIT_NUMERICAL = 3


def _fmt(x: float) -> str:
    return f"{x:.17g}"


def _write(text: str, output: str | None) -> None:
    if output:
        with open(output, "w") as fh:
            fh.write(text if text.endswith("\n") else text + "\n")
    else:
        sys.stdout.write(text if text.endswith("\n") else text + "\n")


def _report_text(report: DistanceReport, fmt: str, correlations: bool = False) -> str:
    if fmt == "json":
        return report.to_json(include_correlation=correlations)
    lines = ["distance_squared,trace_term,cross_term",
             ",".join(_fmt(v) for v in (report.distance_squared, report.trace_term,
                                        report.cross_term))]
    if "n_s" in report.grid_meta:  # the node count used, which a rule may round from --grid
        lines.append(f"# n_s,{report.grid_meta['n_s']}")
    return "\n".join(lines)


def _grid_from_args(args) -> QuadratureGrid:
    return QuadratureGrid(n_s=args.grid, n_t=args.grid)


def _parse_range(text: str) -> np.ndarray:
    lo, hi, count = text.split(":")
    count = check_count(int(count), f"sweep range {text!r} count")
    return np.linspace(float(lo), float(hi), count)


def _cmd_aw_fbm(args) -> int:
    grid = _grid_from_args(args)
    unread = ("h1", "h2", "correlations") if args.sweep else ("h1_range", "h2_range")
    given = ["--" + f.replace("_", "-") for f in unread
             if getattr(args, f) is not None and getattr(args, f) is not False]  # --h1 0 is given
    if given:
        sys.stderr.write(f"error: aw-fbm {'with' if args.sweep else 'without'} --sweep does "
                         f"not read {', '.join(given)}\n")
        return _EXIT_VALIDATION
    if not args.sweep and (args.h1 is None or args.h2 is None):
        sys.stderr.write("error: aw-fbm requires --h1 and --h2 (or --sweep)\n")
        return _EXIT_VALIDATION
    if args.sweep:
        h1s = _parse_range(args.h1_range or "0.1:0.9:9")
        h2s = _parse_range(args.h2_range or "0.1:0.9:9")
        lines = ["H1,H2,aw_squared"]
        for h1 in h1s:
            for h2 in h2s:
                rep = continuous_aw_fbm(float(h1), float(h2), args.T, grid)
                lines.append(f"{_fmt(h1)},{_fmt(h2)},{_fmt(rep.distance_squared)}")
        _write("\n".join(lines), args.output)
        return 0
    rep = continuous_aw_fbm(args.h1, args.h2, args.T, grid)
    _write(_report_text(rep, args.format, args.correlations), args.output)
    return 0


def _cmd_aw_discrete(args) -> int:
    rep = discrete_aw(CovMatrix.from_csv(args.cov1), CovMatrix.from_csv(args.cov2))
    _write(_report_text(rep, args.format, args.correlations), args.output)
    return 0


def _cmd_aw_specs(args) -> int:
    # the module's names are read per call, so a wrapper the benchmark tracer installs applies
    distance = continuous_aw_unit if args.command == "aw-unit" else continuous_aw_multi
    rep = distance(build_process_spec(args.spec1), build_process_spec(args.spec2),
                   _grid_from_args(args))
    _write(_report_text(rep, args.format, args.correlations), args.output)
    return 0


def _cmd_mart_approx(args) -> int:
    res = mart_approx_distance(args.h, args.T, _grid_from_args(args))
    if args.format == "json":
        _write(res.to_json(), args.output)
    else:
        lines = [f"# distance_squared,{_fmt(res.distance_squared)}", "r,rho"]
        lines += [f"{_fmt(r)},{_fmt(v)}" for r, v in zip(res.r_nodes, res.rho)]
        lines.append(f"# distance_nodes,{res.grid_meta['distance_nodes']}")
        _write("\n".join(lines), args.output)
    return 0


def _cmd_simulate(args) -> int:
    sc = build_scenario(args.scenario)
    estimates = estimate_coupling_cost(sc.spec1, sc.spec2, sc.controls, sc.n_steps, sc.n_paths,
                                       sc.seed, n_workers=args.threads)
    _write(json.dumps([est.to_dict() for est in estimates], indent=2), args.output)
    if args.paths_csv:
        z1, z2 = simulate_coupled_noise(sc.spec1.noise_kernel, sc.spec2.noise_kernel,
                                        sc.controls[0], sc.spec1.T, sc.n_steps,
                                        min(10, sc.n_paths), sc.seed)
        x1 = euler_fsde(sc.spec1, z1)
        x2 = euler_fsde(sc.spec2, z2)
        lines = ["path_id,t,x1,x2"]
        for p in range(x1.n_paths):
            for m, t in enumerate(x1.times):
                lines.append(f"{p},{_fmt(t)},{_fmt(x1.paths[p, m])},{_fmt(x2.paths[p, m])}")
        with open(args.paths_csv, "w") as fh:
            fh.write("\n".join(lines) + "\n")
    return 0


def _cmd_check_assumptions(args) -> int:
    sc = build_scenario(args.scenario)
    out = {"process1": assumption_checker(sc.spec1).to_dict(),
           "process2": assumption_checker(sc.spec2).to_dict()}
    _write(json.dumps(out, indent=2), args.output)
    return 0


def _cmd_regen_goldens(args) -> int:
    reg = regenerate_goldens(path=args.output)
    sys.stderr.write(f"regenerated {len(reg)} golden values\n")
    return 0


def _positive_int(text: str) -> int:
    try:
        return check_count(int(text), "a flag value")
    except ValueError:  # DomainError is one
        raise argparse.ArgumentTypeError(f"expected a positive integer, got {text!r}") from None


_READ_FLAGS = {
    "correlations": dict(action="store_true",
                         help="include the per-node correlation array in JSON output"),
    "format": dict(choices=("json", "csv"), default="json"),
    "grid": dict(type=_positive_int, default=256, help="quadrature resolution (default 256)"),
    "threads": dict(type=_positive_int, help="worker-thread cap of simulate, which alone reads "
                                             "it (default $AWGP_THREADS or 1)"),
}


def _add_common(p: argparse.ArgumentParser, *reads: str) -> None:
    """Add the flags every subcommand takes and the ``_READ_FLAGS`` named in ``reads``,
    those its handler reads.  ``aw-unit`` and ``aw-discrete`` also take ``--threads``,
    which they ignore, because the benchmark passes it to them."""
    p.add_argument("--output", help="output file (default stdout)")
    for name in reads:
        p.add_argument("--" + name, **_READ_FLAGS[name])
    p.add_argument("--config", help="JSON file supplying any of this command's flags")


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process and shared: callers must not change it."""
    parser = argparse.ArgumentParser(
        prog="awgp",
        description="Adapted Wasserstein distances between Gaussian processes")
    parser.add_argument("--version", action="version", version=f"awgp {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("aw-fbm", help="distance between fractional Brownian motions")
    p.add_argument("--h1", type=float)
    p.add_argument("--h2", type=float)
    p.add_argument("--T", type=float, default=1.0)
    p.add_argument("--sweep", action="store_true",
                   help="emit a CSV over an (H1, H2) grid, whatever --format says; it takes "
                        "neither --h1, --h2 nor --correlations")
    p.add_argument("--h1-range", help="sweep range lo:hi:count (--sweep only)")
    p.add_argument("--h2-range", help="sweep range lo:hi:count (--sweep only)")
    _add_common(p, "correlations", "format", "grid")
    p.set_defaults(fn=_cmd_aw_fbm, required_fields=())

    p = sub.add_parser("aw-discrete", help="distance between discrete Gaussian laws")
    p.add_argument("--cov1", help="CSV covariance matrix")
    p.add_argument("--cov2", help="CSV covariance matrix")
    _add_common(p, "correlations", "format", "threads")
    p.set_defaults(fn=_cmd_aw_discrete, required_fields=("cov1", "cov2"))

    p = sub.add_parser("aw-unit", help="distance between unit-multiplicity specs")
    p.add_argument("--spec1", help="process spec JSON file")
    p.add_argument("--spec2", help="process spec JSON file")
    _add_common(p, "correlations", "format", "grid", "threads")
    p.set_defaults(fn=_cmd_aw_specs, required_fields=("spec1", "spec2"))

    p = sub.add_parser("aw-multi", help="distance between higher-multiplicity specs")
    p.add_argument("--spec1", help="process spec JSON file")
    p.add_argument("--spec2", help="process spec JSON file")
    _add_common(p, "correlations", "format", "grid")
    p.set_defaults(fn=_cmd_aw_specs, required_fields=("spec1", "spec2"))

    p = sub.add_parser("mart-approx", help="best martingale approximation to an fBM")
    p.add_argument("--h", type=float)
    p.add_argument("--T", type=float, default=1.0)
    _add_common(p, "format", "grid")
    p.set_defaults(fn=_cmd_mart_approx, required_fields=("h",))

    p = sub.add_parser("simulate", help="Monte Carlo coupling costs for a scenario")
    p.add_argument("--scenario", help="scenario JSON file")
    p.add_argument("--paths-csv", help="dump the first 10 coupled paths to CSV")
    _add_common(p, "threads")
    p.set_defaults(fn=_cmd_simulate, required_fields=("scenario",))

    p = sub.add_parser("check-assumptions", help="evaluate the standing assumptions")
    p.add_argument("--scenario", help="scenario JSON file")
    _add_common(p)
    p.set_defaults(fn=_cmd_check_assumptions, required_fields=("scenario",))

    p = sub.add_parser("regen-goldens", help="re-derive the golden-value registry")
    p.add_argument("--output", required=True, help="registry path to write")
    p.set_defaults(fn=_cmd_regen_goldens, required_fields=())

    return parser


def _config_argv(argv: list[str], args: argparse.Namespace,
                 parser: argparse.ArgumentParser) -> list[str]:
    """The command line with the config file's fields spliced in as flags.

    They go right after the subcommand, ahead of the explicit flags, so an
    explicit flag wins and argparse converts and validates every value.
    """
    try:
        with open(args.config) as fh:
            cfg = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        parser.error(f"cannot read config file: {exc}")
    tokens = []
    for key, value in cfg.items():
        attr = key.replace("-", "_")
        if not hasattr(args, attr):
            parser.error(f"config field {key!r} is not a flag of this command")
        flag = "--" + attr.replace("_", "-")
        if value is True:
            tokens.append(flag)
        elif value is not False:
            tokens += [flag, str(value)]
    return [argv[0], *tokens, *argv[1:]]


def main(argv=None) -> int:
    parser = build_parser()
    argv = sys.argv[1:] if argv is None else list(argv)
    args = parser.parse_args(argv)
    if getattr(args, "config", None):
        args = parser.parse_args(_config_argv(argv, args, parser))
    if getattr(args, "threads", 0) is None:  # read per call; a bad value exits 2 like a bad flag
        try:
            args.threads = _positive_int(os.environ.get("AWGP_THREADS") or "1")
        except argparse.ArgumentTypeError as exc:
            parser.error(f"$AWGP_THREADS: {exc}")
    missing = [f for f in args.required_fields if getattr(args, f, None) is None]
    if missing:
        sys.stderr.write(f"error: missing required flags: {', '.join('--' + m for m in missing)}\n")
        return _EXIT_VALIDATION
    try:
        return args.fn(args)
    except (ConvergenceError, SimulationError, np.linalg.LinAlgError) as exc:
        sys.stderr.write(f"numerical failure: {exc}\n")
        return _EXIT_NUMERICAL
    except (DomainError, MeasureOrderingError, NotPositiveDefiniteError, FileNotFoundError,
            json.JSONDecodeError, KeyError, ValueError) as exc:
        sys.stderr.write(f"validation error: {exc}\n")
        return _EXIT_VALIDATION


if __name__ == "__main__":
    sys.exit(main())
