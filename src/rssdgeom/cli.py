"""Command-line interface: thin wrapper over the experiment harness.

Exit codes: 0 on success, 2 on configuration errors (bad flags, malformed or
invalid scenario files, an unwritable --out), 3 when any optimization run
failed to converge within --max-outer iterations (results are still written,
and a warning on stderr says so).
"""

from __future__ import annotations

import argparse
import functools
import math
import os
import sys
import time

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


def _parse_list(flag: str, text: str, integer: bool = False) -> list:
    """The numbers of the list flag's text; integer=True requires whole numbers.

    A malformed or empty list is a ScenarioError that names the flag.
    """
    try:
        values = [float(tok) for tok in text.split(",") if tok.strip()]
    except ValueError as exc:
        raise ScenarioError(
            f"{flag}: expected a comma-separated number list, got {text!r}"
        ) from exc
    if not values:
        raise ScenarioError(f"{flag}: expected at least one number, got {text!r}")
    if not integer:
        return values
    if not all(v.is_integer() for v in values):
        raise ScenarioError(f"{flag}: expected a comma-separated integer list, got {text!r}")
    return [int(v) for v in values]


def _radians(flag: str, text: str) -> list:
    """The list flag's angles in degrees, in radians."""
    return [math.radians(b) for b in _parse_list(flag, text)]


def _add_common(parser: argparse.ArgumentParser):
    parser.add_argument("--scenario", required=True, help="scenario JSON file")
    parser.add_argument("--out", required=True, help="output CSV path")
    parser.add_argument("--seed", type=int, default=0, help="RNG seed (default 0)")
    parser.add_argument(
        "--max-outer", type=int, default=AdmmOptions.max_outer, help="outer iteration cap"
    )


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The CLI parser, built once per process on first use.

    Each run mode's ``run(scenario, args, options)`` default parses the
    mode's list flags and calls its ``run_*`` function by module-level name
    at call time, so a replaced ``cli.run_*`` is the one that runs.
    """
    parser = argparse.ArgumentParser(
        prog="rssdgeom",
        description="Information-optimal measuring geometry for RSSD source localization.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("optimize", help="optimize one scenario and write a summary row")
    _add_common(p)
    p.set_defaults(run=lambda scenario, args, options: run_optimize(
        scenario, options=options, seed=args.seed))

    p = sub.add_parser("convergence", help="per-iteration traces for several spread bounds")
    _add_common(p)
    p.add_argument("--beta-max-deg", default=DEFAULT_ANGLES_DEG,
                   help=f"comma list of bounds in degrees (default {DEFAULT_ANGLES_DEG})")
    p.set_defaults(run=lambda scenario, args, options: run_convergence(
        scenario, _radians("--beta-max-deg", args.beta_max_deg), options=options,
        seed=args.seed))

    p = sub.add_parser("sweep-n", help="uniform vs optimized across swarm sizes")
    _add_common(p)
    p.add_argument("--n-list", default=DEFAULT_N_LIST,
                   help=f"comma list of swarm sizes (default {DEFAULT_N_LIST})")
    p.add_argument("--beta-max-deg", default=DEFAULT_ANGLES_DEG,
                   help=f"comma list of bounds in degrees (default {DEFAULT_ANGLES_DEG})")
    p.set_defaults(run=lambda scenario, args, options: run_sweep_n(
        scenario, _parse_list("--n-list", args.n_list, integer=True),
        _radians("--beta-max-deg", args.beta_max_deg), options=options, seed=args.seed))

    p = sub.add_parser("sweep-angle", help="uniform vs optimized across a bound grid")
    _add_common(p)
    p.add_argument("--beta-grid-deg", default=DEFAULT_ANGLE_GRID_DEG,
                   help="comma list of bounds in degrees")
    p.set_defaults(run=lambda scenario, args, options: run_sweep_angle(
        scenario, _radians("--beta-grid-deg", args.beta_grid_deg), options=options,
        seed=args.seed))

    p = sub.add_parser("practical", help="prior-error trials scored against the truth")
    _add_common(p)
    p.add_argument("--prior-std", type=float, default=math.sqrt(12500.0),
                   help="std of the prior position error in meters (default sqrt(12500))")
    p.add_argument("--trials", type=int, default=100, help="number of trials (default 100)")
    p.add_argument("--no-refine", action="store_true",
                   help="skip the measurement simulation + ML refinement step")
    p.set_defaults(run=lambda scenario, args, options: run_practical(
        scenario, prior_std=args.prior_std, trials=args.trials, seed=args.seed,
        options=options, refine=not args.no_refine))

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
    args = build_parser().parse_args(argv)

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
        t0 = time.perf_counter()
        result = args.run(scenario, args, options)
        elapsed_s = time.perf_counter() - t0
    except ValueError as exc:  # ScenarioError included
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONFIG

    try:
        write_csv(result, args.out)
    except OSError as exc:
        print(f"error: --out: {exc}", file=sys.stderr)
        return EXIT_CONFIG
    print(
        f"{result.mode}: {len(result.rows)} rows -> {args.out} "
        f"({elapsed_s:.2f}s, converged={'yes' if result.converged_all else 'NO'})"
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
