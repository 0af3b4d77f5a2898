"""Command-line interface: thin wrapper over the experiment harness.

Exit codes: 0 on success, 2 on configuration errors (bad flags, malformed or
invalid scenario files, an unwritable --out), 3 when any optimization run
failed to converge within --max-outer iterations (results are still written,
and a warning on stderr says so).
"""

from __future__ import annotations

import argparse
import math
import os
import sys

from .admm import AdmmOptions
from .experiments import (
    run_convergence,
    run_optimize,
    run_practical,
    run_sweep_angle,
    run_sweep_n,
    validate_scenario,
    write_csv,
)
from .model import ScenarioError, load_scenario

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_NONCONVERGED = 3

DEFAULT_ANGLES_DEG = "120,200,280,360"
DEFAULT_N_LIST = "4,8,12,16"
DEFAULT_ANGLE_GRID_DEG = "60,75,90,97.5,105,120,150,180,210,240,270,300,330,360"


def _parse_float_list(text: str):
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ScenarioError(f"expected a comma-separated number list, got {text!r}") from exc
    if not values:
        raise ScenarioError("empty list argument")
    return values


def _parse_int_list(text: str):
    values = _parse_float_list(text)
    if not all(v.is_integer() for v in values):
        raise ScenarioError(f"expected a comma-separated integer list, got {text!r}")
    return [int(v) for v in values]


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument("--max-outer", type=int, default=1000, help="outer iteration cap")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rssdgeom",
        description="Information-optimal measuring geometry for RSSD source localization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="optimize one scenario and write a summary row")
    _add_common(p)

    p = sub.add_parser("convergence", help="per-iteration traces for several spread bounds")
    _add_common(p)
    p.add_argument("--beta-max-deg", default=DEFAULT_ANGLES_DEG,
                   help=f"comma list of bounds in degrees (default {DEFAULT_ANGLES_DEG})")

    p = sub.add_parser("sweep-n", help="uniform vs optimized across swarm sizes")
    _add_common(p)
    p.add_argument("--n-list", default=DEFAULT_N_LIST,
                   help=f"comma list of swarm sizes (default {DEFAULT_N_LIST})")
    p.add_argument("--beta-max-deg", default=DEFAULT_ANGLES_DEG,
                   help=f"comma list of bounds in degrees (default {DEFAULT_ANGLES_DEG})")

    p = sub.add_parser("sweep-angle", help="uniform vs optimized across a bound grid")
    _add_common(p)
    p.add_argument("--beta-grid-deg", default=DEFAULT_ANGLE_GRID_DEG,
                   help="comma list of bounds in degrees")

    p = sub.add_parser("practical", help="prior-error trials scored against the truth")
    _add_common(p)
    p.add_argument("--prior-std", type=float, default=math.sqrt(12500.0),
                   help="std of the prior position error in meters (default sqrt(12500))")
    p.add_argument("--trials", type=int, default=100, help="number of trials (default 100)")
    p.add_argument("--no-refine", action="store_true",
                   help="skip the measurement simulation + ML refinement step")

    p = sub.add_parser("validate", help="check a scenario file and print derived quantities")
    p.add_argument("--scenario", required=True, help="scenario JSON file")

    return parser


def _print_validation(report) -> None:
    print(report.message)
    if not report.ok:
        return
    d = report.details
    print(f"  sensors:          {d['n_sensors']} ({d['variant']})")
    print(f"  scenario hash:    {d['scenario_hash']}")
    print(f"  beta_max:         {d['beta_max_deg']:.6g} deg")
    print(f"  weights:          {', '.join(f'{w:.6g}' for w in d['weights'])}")
    print(f"  mean inv var:     {d['mean_inv_var']:.6g} (effective, per averaged sample)")
    print(f"  g0 bound:         [{d['g0'][0]:.6g}, {d['g0'][1]:.6g}]")
    print(f"  coupling rank:    {d['coupling_rank']}")
    print(f"  uniform LB-RMSE:  {d['lb_rmse_uniform_m']:.6g} m")
    print(f"  T condition:      {d['t_condition']:.6g} (lambda_max / lambda_min, uniform)")


def _out_problem(path: str):
    """Why --out cannot be written, or None; checked before any design work."""
    if os.path.isdir(path):
        return f"{path} is a directory"
    parent = os.path.dirname(path) or "."
    if not os.path.isdir(parent):
        return f"no such directory: {parent}"
    return None


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)

    if args.command == "validate":
        report = validate_scenario(args.scenario)
        _print_validation(report)
        return EXIT_OK if report.ok else EXIT_CONFIG

    problem = _out_problem(args.out)
    if problem is not None:
        print(f"error: --out: {problem}", file=sys.stderr)
        return EXIT_CONFIG
    try:
        scenario = load_scenario(args.scenario)
        options = AdmmOptions(max_outer=args.max_outer)
        if args.command == "optimize":
            result = run_optimize(scenario, options=options, seed=args.seed)
        elif args.command == "convergence":
            angles = [math.radians(b) for b in _parse_float_list(args.beta_max_deg)]
            result = run_convergence(scenario, angles, options=options, seed=args.seed)
        elif args.command == "sweep-n":
            angles = [math.radians(b) for b in _parse_float_list(args.beta_max_deg)]
            n_list = _parse_int_list(args.n_list)
            result = run_sweep_n(scenario, n_list, angles, options=options, seed=args.seed)
        elif args.command == "sweep-angle":
            grid = [math.radians(b) for b in _parse_float_list(args.beta_grid_deg)]
            result = run_sweep_angle(scenario, grid, options=options, seed=args.seed)
        elif args.command == "practical":
            result = run_practical(
                scenario,
                prior_std=args.prior_std,
                trials=args.trials,
                seed=args.seed,
                options=options,
                refine=not args.no_refine,
            )
        else:  # pragma: no cover - argparse enforces the choices
            parser.error(f"unknown command {args.command}")
    except (ScenarioError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        write_csv(result, args.out)
    except OSError as exc:
        print(f"error: --out: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(
        f"{result.mode}: {len(result.rows)} rows -> {args.out} "
        f"({result.elapsed_s:.2f}s, converged={'yes' if result.converged_all else 'NO'})"
    )
    for key, value in result.summary.items():
        print(f"  {key}: {value}")
    if result.converged_all:
        return EXIT_OK
    print(
        f"warning: not every run converged within --max-outer {args.max_outer}; "
        f"the rows were written to {args.out}",
        file=sys.stderr,
    )
    return EXIT_NONCONVERGED


if __name__ == "__main__":
    sys.exit(main())
