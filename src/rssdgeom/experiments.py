"""Benchmark harness: the four study modes plus scenario validation.

Every mode produces a table of rows (list of dicts sharing a fixed header)
that serializes to CSV. Neither the rows nor the result object carry
wall-clock timing, so two runs with identical seeds give equal results and
byte-identical CSVs; the CLI times each run and prints it. Placements are
embedded in each row (degrees, six decimals, semicolon-separated) so any row
can be re-scored offline. Every row is built from the design it describes
(_design_rows): its scenario hash covers the input scenario with the row's
sensor count and spread bound.

The convergence, sweep-n and sweep-angle modes hand all their designs to
admm.optimize_many in one call, which runs the designs of up to 32 sensors
as one lockstep batch padded to its largest size (see admm); optimize and
practical design one placement with admm.optimize, and practical scores,
simulates and refines all its trials as arrays with a trial axis (one
fim.reduced_scores, one model.simulate_measurements_many and one
estimator.mle_estimate_many call).
Everything runs in the calling thread: a design is a sequence of short NumPy
calls that hold the interpreter lock, so threads would only contend for it.
"""

from __future__ import annotations

import json
import math
from collections import Counter
from dataclasses import dataclass, field, replace

import numpy as np

# CPython's built-in SHA-256, as the random module takes its _sha512: hashlib
# would map OpenSSL's libcrypto (3.3 MB resident) into every design mode's
# process for one short digest
try:
    from _sha2 import sha256 as _sha256  # Python 3.12+
except ImportError:
    try:
        from _sha256 import sha256 as _sha256  # Python 3.10 and 3.11
    except ImportError:
        from hashlib import sha256 as _sha256

from .admm import AdmmOptions, check_sensor_count, optimize, optimize_many, uniform_init
# mle_estimate is not called here, but it stays importable as
# experiments.mle_estimate: perfbench/spans.py wraps it under that name
from .estimator import mle_estimate, mle_estimate_many  # noqa: F401
from .fim import (
    coupling_matrix,
    fim_full,
    g0_bound,
    noise_weights,
    reduced_scores,
    sensor_offsets,
    t_eigenvalues,
)
from .model import (
    Scenario,
    ScenarioError,
    SourceParams,
    as_count,
    as_real,
    load_scenario,
    scenario_to_dict,
    simulate_measurements_many,
    swarm_positions,
)
# simulate_measurements is not called here either; it stays importable as
# experiments.simulate_measurements for the same reason
from .model import simulate_measurements  # noqa: F401

HEADERS = {
    "optimize": [
        "beta_max_deg", "lb_rmse_uniform_m", "lb_rmse_opt_m", "improvement_pct",
        "iterations", "converged", "mean_inner_iters",
        "placement_deg", "scenario_hash", "seed",
    ],
    "convergence": [
        "beta_max_deg", "iter", "lb_rmse_m", "objective", "inner_iters",
        "placement_deg", "scenario_hash", "seed",
    ],
    "sweep-n": [
        "n", "beta_max_deg", "lb_rmse_uniform_m", "lb_rmse_opt_m", "improvement_pct",
        "placement_deg", "scenario_hash", "seed",
    ],
    "sweep-angle": [
        "beta_max_deg", "lb_rmse_uniform_m", "lb_rmse_opt_m", "improvement_pct",
        "placement_deg", "scenario_hash", "seed",
    ],
    "practical": [
        "trial", "prior_err_m", "prior_x_m", "prior_y_m",
        "lb_rmse_theoretical_m", "lb_rmse_practical_m", "empirical_rmse_m",
        "placement_deg", "scenario_hash", "seed",
    ],
}


@dataclass
class RunResult:
    """Rows, convergence flag and console summary of one experiment mode.

    It holds only what the run computed, so two identical runs give equal
    results; write_csv takes the columns from HEADERS[mode].
    """

    mode: str
    rows: list
    converged_all: bool
    summary: dict = field(default_factory=dict)


def scenario_hash(scenario: Scenario) -> str:
    """Stable 12-hex-digit digest of the scenario content.

    The first 12 hex digits of the SHA-256 of the scenario's canonical JSON
    (sorted keys, no spaces), taken with CPython's built-in module (_sha2
    from Python 3.12, _sha256 before) and with hashlib only on an
    interpreter that has neither. Every source gives the same digest.
    """
    canon = json.dumps(scenario_to_dict(scenario), sort_keys=True, separators=(",", ":"))
    return _sha256(canon.encode()).hexdigest()[:12]


def _fmt(value) -> str:
    if isinstance(value, bool):
        return "1" if value else "0"
    if isinstance(value, float):
        return f"{value:.12g}"
    return str(value)


def placement_to_field(angles) -> str:
    """Angles (radians) in degrees, six decimals, semicolon-separated."""
    return ";".join(f"{math.degrees(a):.6f}" for a in angles)


def write_csv(result: RunResult, path) -> None:
    header = HEADERS[result.mode]
    lines = [",".join(header)]
    for row in result.rows:
        lines.append(",".join(_fmt(row[col]) for col in header))
    with open(path, "w", newline="") as fh:
        fh.write("\n".join(lines) + "\n")


def _design_rows(designs, results, seed: int) -> list:
    """One row per optimized design, holding every column a design mode writes.

    results are the (placement, trace) pairs of the designs, in order. The
    scenario hash covers the design the row describes: the input scenario
    with the row's sensor count and spread bound. improvement_pct is nan
    where the uniform placement's LB-RMSE is not finite: no gain can be
    measured against it. write_csv keeps only the columns of the mode's
    header.
    """
    rows = []
    for sc, (placement, trace) in zip(designs, results):
        lb_u, lb_o = trace.records[0].lb_rmse, trace.best.lb_rmse
        rows.append(
            {
                "n": sc.n_sensors,
                "beta_max_deg": math.degrees(sc.beta_max),
                "lb_rmse_uniform_m": lb_u,
                "lb_rmse_opt_m": lb_o,
                "improvement_pct": (
                    100.0 * (1.0 - lb_o / lb_u) if math.isfinite(lb_u) else math.nan
                ),
                "iterations": trace.outer_iters,
                "converged": trace.converged,
                "mean_inner_iters": trace.mean_inner,
                "placement_deg": placement_to_field(placement.angles),
                "scenario_hash": scenario_hash(sc),
                "seed": seed,
            }
        )
    return rows


def _result(mode: str, rows: list, results, **summary) -> RunResult:
    """The RunResult of a mode whose designs gave results.

    Its summary ends with stop_reasons, the number of designs that stopped
    on each AdmmTrace.stop_reason, in name order.
    """
    reasons = Counter(trace.stop_reason for _, trace in results)
    return RunResult(
        mode=mode,
        rows=rows,
        converged_all=all(trace.converged for _, trace in results),
        summary={**summary, "stop_reasons": dict(sorted(reasons.items()))},
    )


# -- study modes --------------------------------------------------------------


def run_convergence(
    scenario: Scenario, beta_max_list, options: AdmmOptions = None, seed: int = 0
) -> RunResult:
    """Per-iteration LB-RMSE trace for each spread bound in the list."""
    seed = as_count(seed, "seed")
    designs = [replace(scenario, beta_max=float(beta_max)) for beta_max in beta_max_list]
    results = optimize_many(designs, options)
    design_rows = _design_rows(designs, results, seed)
    rows = [
        {
            **design,
            "iter": rec.k,
            "lb_rmse_m": rec.lb_rmse,
            "objective": rec.objective,
            "inner_iters": rec.inner_iters,
            "placement_deg": placement_to_field(rec.angles),
        }
        for design, (_, trace) in zip(design_rows, results)
        for rec in trace.records
    ]
    mean_inner = {_fmt(row["beta_max_deg"]): row["mean_inner_iters"] for row in design_rows}
    return _result("convergence", rows, results, mean_inner_iters=mean_inner)


def resize_sensors(template: Scenario, n: int) -> Scenario:
    """Scale a scenario's sensor count, preserving its noise structure.

    Sensor i of the n takes template sensor i * m // n (m template sensors):
    its distances and its noise std. Each template sensor thus keeps its
    share of the swarm as nearly as n allows, in template order, so caseA's
    variances become [8, 8, 2] at n = 3 and [8, 8, 8, 2, 2] at n = 5, and an
    even n splits them in half.
    """
    as_count(n, "n", 2)
    pick = np.arange(n) * template.n_sensors // n
    return replace(
        template,
        n_sensors=n,
        horiz_dist=template.horiz_dist[pick],
        vert_dist=template.vert_dist[pick],
        noise_std=template.noise_std[pick],
    )


def run_sweep_n(
    scenario_template: Scenario,
    n_list,
    beta_max_list,
    options: AdmmOptions = None,
    seed: int = 0,
) -> RunResult:
    """Uniform vs optimized LB-RMSE across swarm sizes and spread bounds."""
    seed = as_count(seed, "seed")
    designs = []
    for n in n_list:
        sc = resize_sensors(scenario_template, n)
        designs.extend(replace(sc, beta_max=float(beta_max)) for beta_max in beta_max_list)

    results = optimize_many(designs, options)
    return _result("sweep-n", _design_rows(designs, results, seed), results)


def run_sweep_angle(
    scenario: Scenario, beta_grid, options: AdmmOptions = None, seed: int = 0
) -> RunResult:
    """Uniform vs optimized LB-RMSE across a grid of spread bounds."""
    seed = as_count(seed, "seed")
    designs = [replace(scenario, beta_max=float(beta_max)) for beta_max in beta_grid]
    results = optimize_many(designs, options)
    return _result("sweep-angle", _design_rows(designs, results, seed), results)


def run_practical(
    scenario: Scenario,
    prior_std: float,
    trials: int,
    seed: int = 0,
    options: AdmmOptions = None,
    refine: bool = True,
) -> RunResult:
    """Fly one design around noisy prior positions and score it against the truth.

    The placement is designed once: the information matrix depends only on
    where the sensors sit relative to the source, so the best angles around
    any prior are the angles around the true source. Each trial draws a
    Gaussian prior error from its own stream (seed, (t, 0)) and places the
    swarm at those angles around the perturbed prior. All trials then go
    through one array pass: their (T, N) sensor offsets from the true source
    give every trial's LB-RMSE in one fim.reduced_scores call, and (when
    refine is set) their (T, N, 3) sensor positions feed one
    simulate_measurements_many call and one lockstep maximum-likelihood
    refinement. Trial t's measurement noise comes from one generator, seeded
    with the int that the stream (seed, (t, 1)) generates, which draws every
    sensor's samples of that trial. The refinement takes prior_std as the
    std of its Gaussian prior about each trial's prior: it starts from the
    prior and from the two closed-form candidates of the model, the source
    and its circle-inversion mirror, and keeps the start with the most
    posterior mass (see estimator.mle_estimate_many). A final
    aggregate row (trial = -1) carries the means and the empirical
    refinement RMSE. The true reference power is 0 dB: the MLE profiles P0
    out, so no value of it would change the refined position beyond the
    Gauss-Newton step tolerance. A prior_std so large that the sensor
    distances overflow is a ScenarioError.
    """
    as_count(trials, "trials", 1)
    as_real(prior_std, "prior_std", 0.0)
    seed = as_count(seed, "seed")
    truth = SourceParams(p0=0.0, position=scenario.source[:2])

    results = [optimize(scenario, options=options)]
    placement, _ = results[0]
    design = _design_rows([scenario], results, seed)[0]
    lb_theory = design["lb_rmse_opt_m"]

    errs = np.array(
        [
            np.random.default_rng(np.random.SeedSequence(seed, spawn_key=(t, 0))).normal(
                0.0, prior_std, size=2
            )
            for t in range(trials)
        ]
    )
    priors = truth.position + errs
    with np.errstate(over="ignore"):
        dx, dy, d_sq = sensor_offsets(
            priors, scenario.horiz_dist, scenario.vert_dist, placement.angles, truth.position
        )
    if not np.all(np.isfinite(d_sq)):
        raise ScenarioError(
            f"practical: prior_std {prior_std!r} puts the swarm so far from the source "
            "that its distances overflow"
        )
    weights = noise_weights(scenario)
    _, _, lb_practical, _ = reduced_scores(
        dx, dy, d_sq, np.broadcast_to(weights.w, dx.shape), [weights.lb_scale] * trials
    )
    rows = [
        {
            **design,
            "trial": t,
            "prior_err_m": float(np.linalg.norm(errs[t])),
            "prior_x_m": float(priors[t, 0]),
            "prior_y_m": float(priors[t, 1]),
            "lb_rmse_theoretical_m": lb_theory,
            "lb_rmse_practical_m": lb_practical[t],
            "empirical_rmse_m": math.nan,
        }
        for t in range(trials)
    ]
    if refine:
        meas_seeds = [
            int(np.random.SeedSequence(seed, spawn_key=(t, 1)).generate_state(1)[0])
            for t in range(trials)
        ]
        positions = swarm_positions(scenario, placement, priors)
        estimates = mle_estimate_many(
            simulate_measurements_many(scenario, positions, truth, meas_seeds),
            positions,
            np.sqrt(scenario.effective_var),
            scenario.gamma,
            [SourceParams(p0=0.0, position=prior) for prior in priors],
            prior_std=prior_std,
        )
        for row, estimate in zip(rows, estimates):
            row["empirical_rmse_m"] = float(
                np.linalg.norm(estimate.theta_hat[1:] - truth.position)
            )
    lb_vals = [r["lb_rmse_practical_m"] for r in rows]
    emp = [r["empirical_rmse_m"] for r in rows if math.isfinite(r["empirical_rmse_m"])]
    rows.append(
        {
            **design,
            "trial": -1,
            "prior_err_m": float(np.mean([r["prior_err_m"] for r in rows])),
            "prior_x_m": 0.0,
            "prior_y_m": 0.0,
            "lb_rmse_theoretical_m": lb_theory,
            "lb_rmse_practical_m": float(np.mean(lb_vals)),
            # hypot does not overflow where the squared errors' sum would
            "empirical_rmse_m": math.hypot(*emp) / math.sqrt(len(emp)) if emp else math.nan,
        }
    )
    return _result(
        "practical",
        rows,
        results,
        lb_rmse_theoretical_m=lb_theory,
        lb_rmse_practical_mean_m=float(np.mean(lb_vals)),
    )


def run_optimize(scenario: Scenario, options: AdmmOptions = None, seed: int = 0) -> RunResult:
    """Single optimization run summarized as one row."""
    seed = as_count(seed, "seed")
    results = [optimize(scenario, options=options)]
    return _result("optimize", _design_rows([scenario], results, seed), results)


# -- validation ---------------------------------------------------------------


@dataclass
class ValidationReport:
    ok: bool
    message: str
    details: dict = field(default_factory=dict)


def validate_scenario(path) -> ValidationReport:
    """Parse a scenario file, check invariants, and derive key quantities."""
    try:
        scenario = load_scenario(path)
        check_sensor_count(scenario)
    except ScenarioError as exc:
        return ValidationReport(ok=False, message=str(exc))
    weights = noise_weights(scenario)
    coupling = coupling_matrix(weights)
    bound = g0_bound(scenario.beta_max)
    rank = int(np.linalg.matrix_rank(coupling, tol=1e-12))
    uniform = fim_full(
        scenario,
        uniform_init(scenario.n_sensors, scenario.beta_max),
        SourceParams(0.0, scenario.source[:2]),
    )
    lam_min, lam_max = t_eigenvalues(uniform.t)
    details = {
        "n_sensors": scenario.n_sensors,
        "variant": scenario.variant.value,
        "weights": [float(w) for w in weights.w],
        "mean_inv_var": weights.mean_inv_var,
        "g0": [float(x) for x in bound.g0],
        "coupling_rank": rank,
        "beta_max_deg": math.degrees(scenario.beta_max),
        "lb_rmse_uniform_m": uniform.lb_rmse,
        "t_condition": math.inf if uniform.degenerate else float(lam_max / lam_min),
        "scenario_hash": scenario_hash(scenario),
    }
    return ValidationReport(ok=True, message="scenario valid", details=details)
