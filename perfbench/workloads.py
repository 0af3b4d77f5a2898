"""The benchmark workloads: inputs made from the seed, one timed pass, checks.

Each workload has the same three steps, called by ``run.py``:

* ``inputs()`` builds a pass's inputs from the seed, outside the timed region;
* ``run(inputs, work, tracer)`` is one timed pass and returns a
  ``PassResult`` (items attempted, calls that raised, non-converged runs, the
  outputs, and a fingerprint two passes on the same inputs must reproduce);
* ``evaluate(outputs)`` re-scores every returned placement with
  ``fim.fim_full`` at the true source and runs the correctness checks.
"""

from __future__ import annotations

import contextlib
import csv
import io
import math
from dataclasses import dataclass, field, replace
from pathlib import Path

import numpy as np

from rssdgeom import (
    Placement,
    Scenario,
    SourceParams,
    admm,
    cli,
    fim_full,
    load_scenario,
    uniform_init,
)
from rssdgeom.experiments import resize_sensors

import spans

ANGLE_TOL = 1e-9
# Written placements carry six decimals of a degree. Re-scoring the rounded
# angles moves LB-RMSE by up to about 4e-9 relative on the bundled studies
# (measured), so agreement and the uniform-baseline floor allow this slack.
REL_TOL = 1e-6
# ``admm.optimize`` returns the iterate with the largest det T among those
# whose LB-RMSE is at most the uniform start's plus 1e-9 m. Re-scoring the
# six-decimal iterates of the bundled ``convergence`` study moves LB-RMSE by
# up to about 7e-7 m (measured), so the benchmark's copy of that rule allows
# this absolute slack on top.
LB_BUDGET_SLACK_M = 1e-9 + 1e-5
PRIOR_STD_M = "111.80339887498948"


@dataclass
class PassResult:
    items: int
    raised: int = 0
    nonconverged: int = 0
    outputs: object = None
    fingerprint: bytes = b""


@dataclass
class Evaluation:
    """What the checks found on one pass's outputs."""

    failed: int = 0
    lb_rmse: list = field(default_factory=list)
    gains: list = field(default_factory=list)
    report_mismatch: int = 0
    extra: dict = field(default_factory=dict)


def _score(scenario: Scenario, placement, at) -> tuple:
    summary = fim_full(scenario, placement, SourceParams(0.0, at))
    return summary.lb_rmse, float(np.linalg.det(summary.t))


def check_design(ev: Evaluation, scenario, angles, design_at, truth_at):
    """Check one returned placement and add its quality at the truth to ``ev``.

    ``angles`` are radians in [0, beta_max]; ``design_at`` is the source
    position the placement was designed for, ``truth_at`` the true one.
    Returns the LB-RMSE at the truth, or None when a check fails.
    """
    angles = np.asarray(angles, dtype=float)
    if not (
        np.all(np.isfinite(angles))
        and np.all(angles >= -ANGLE_TOL)
        and np.all(angles <= scenario.beta_max + ANGLE_TOL)
    ):
        return None
    placement = Placement.from_angles(angles)
    uniform = uniform_init(scenario.n_sensors, scenario.beta_max)
    _, det_design = _score(scenario, placement, design_at)
    _, det_uniform_design = _score(scenario, uniform, design_at)
    lb, det = _score(scenario, placement, truth_at)
    _, det_uniform = _score(scenario, uniform, truth_at)
    if not (
        math.isfinite(lb)
        and det > 0
        and det_uniform > 0
        and det_design >= det_uniform_design * (1.0 - REL_TOL)
    ):
        return None
    ev.lb_rmse.append(lb)
    ev.gains.append(det / det_uniform)
    return lb


def _rows(text: str) -> list:
    rows = list(csv.DictReader(io.StringIO(text)))
    numeric = [k for k in (rows[0] if rows else {}) if k not in ("placement_deg", "scenario_hash")]
    for row in rows:
        for key in numeric:
            row[key] = float(row[key])
        row["angles"] = np.radians([float(a) for a in row["placement_deg"].split(";")])
    return rows


def _all_finite(rows) -> bool:
    return all(
        math.isfinite(v) for row in rows for k, v in row.items() if isinstance(v, float)
    ) and all(np.all(np.isfinite(row["angles"])) for row in rows)


def _relclose(a: float, b: float, tol: float) -> bool:
    return abs(a - b) <= tol * max(abs(a), abs(b))


class _CliWorkload:
    """Shared pass runner for the workloads that go through ``cli.main``."""

    invocations: list  # (mode, scenario file, extra flags, designs or trials)

    def __init__(self, root, seed: int):
        self.root = Path(root)
        self.seed = seed
        self.items = sum(n for *_, n in self.invocations)
        self.scenarios = {
            case: load_scenario(self.root / "scenarios" / f"{case}.json")
            for case in {case for _, case, _, _ in self.invocations}
        }

    def inputs(self):
        return self.invocations

    def run(self, invocations, work: Path, tracer=None) -> PassResult:
        result = PassResult(items=self.items, outputs={})
        for mode, case, flags, n in invocations:
            out = work / f"{mode}.csv"
            out.unlink(missing_ok=True)
            argv = [
                mode,
                "--scenario", str(self.root / "scenarios" / f"{case}.json"),
                "--out", str(out),
                "--seed", str(self.seed),
                *flags,
            ]
            try:
                with contextlib.redirect_stdout(io.StringIO()):
                    code = cli.main(argv)
                text = out.read_text()
            except Exception:  # an operation that raised counts as failed
                code, text = None, None
            if code not in (cli.EXIT_OK, cli.EXIT_NONCONVERGED) or text is None:
                result.raised += n
                continue
            if code == cli.EXIT_NONCONVERGED:
                # the exit code cannot say which runs hit the cap: all count
                result.nonconverged += n
            result.outputs[mode] = text
        result.fingerprint = "\0".join(
            f"{mode}\0{result.outputs.get(mode)}" for mode, *_ in invocations
        ).encode()
        return result


class Studies(_CliWorkload):
    """The four design studies of the paper with default flags (35 designs)."""

    invocations = [
        ("optimize", "caseA", [], 1),
        ("convergence", "caseA", [], len(cli.DEFAULT_ANGLES_DEG.split(","))),
        (
            "sweep-n",
            "caseA",
            [],
            len(cli.DEFAULT_N_LIST.split(",")) * len(cli.DEFAULT_ANGLES_DEG.split(",")),
        ),
        ("sweep-angle", "caseB", [], len(cli.DEFAULT_ANGLE_GRID_DEG.split(","))),
    ]

    def evaluate(self, outputs: dict) -> Evaluation:
        ev = Evaluation()
        for mode, case, _, designs in self.invocations:
            if mode not in outputs:
                continue  # already counted as raised
            try:
                checked = self._check_table(ev, mode, self.scenarios[case], designs, outputs[mode])
            except (ValueError, KeyError, StopIteration):  # a malformed table
                checked = 0
            ev.failed += designs - checked
        return ev

    def _check_table(self, ev, mode, base, designs, text) -> int:
        """Number of designs in one CSV that pass every check."""
        rows = _rows(text)
        count = len({r["beta_max_deg"] for r in rows}) if mode == "convergence" else len(rows)
        if not _all_finite(rows) or count != designs:
            return 0
        if mode == "convergence":
            return self._convergence(ev, base, rows)
        checked = 0
        for row in rows:
            sc = resize_sensors(base, int(row["n"])) if mode == "sweep-n" else base
            sc = replace(sc, beta_max=math.radians(row["beta_max_deg"]))
            at = sc.source[:2]
            lb = check_design(ev, sc, row["angles"], at, at)
            if lb is None:
                continue
            checked += 1
            # a mismatch is a reporting defect of the program, not a failed
            # check: it is counted, never filtered out
            ev.report_mismatch += not _relclose(row["lb_rmse_opt_m"], lb, REL_TOL)
        return checked

    @staticmethod
    def _convergence(ev, base, rows) -> int:
        """Check every iterate and score the one ``optimize`` returns.

        The returned placement is not written; it is picked here by the rule
        of ``admm.optimize``: starting from the uniform iterate (iteration 0),
        each iterate whose det T beats the best so far, and whose LB-RMSE is
        at most the uniform one plus ``LB_BUDGET_SLACK_M``, becomes the best.
        """
        checked = 0
        for beta_deg in sorted({row["beta_max_deg"] for row in rows}):
            sc = replace(base, beta_max=math.radians(beta_deg))
            at = sc.source[:2]
            trace = [row for row in rows if row["beta_max_deg"] == beta_deg]
            scores = []
            ok = True
            for row in trace:
                ok &= bool(
                    np.all(row["angles"] >= -ANGLE_TOL)
                    and np.all(row["angles"] <= sc.beta_max + ANGLE_TOL)
                )
                scores.append(_score(sc, Placement.from_angles(row["angles"]), at))
            best = next(i for i, row in enumerate(trace) if row["iter"] == 0)
            budget = scores[best][0] + LB_BUDGET_SLACK_M
            for i, (lb, det) in enumerate(scores):
                if det > scores[best][1] and lb <= budget:
                    best = i
            checked += ok and check_design(ev, sc, trace[best]["angles"], at, at) is not None
        return checked


class Practical(_CliWorkload):
    """``practical`` on caseA: designs around perturbed priors plus MLE refinement."""

    TRIALS = 40
    invocations = [
        ("practical", "caseA", ["--prior-std", PRIOR_STD_M, "--trials", str(TRIALS)], TRIALS),
    ]

    def evaluate(self, outputs: dict) -> Evaluation:
        ev = Evaluation()
        if "practical" not in outputs:
            return ev
        try:
            rows = _rows(outputs["practical"])
        except (ValueError, KeyError):  # a malformed table
            ev.failed = self.TRIALS
            return ev
        trials = [row for row in rows if row["trial"] >= 0]
        agg = [row for row in rows if row["trial"] == -1]
        if len(trials) != self.TRIALS or len(agg) != 1 or not _all_finite(rows):
            ev.failed = self.TRIALS
            return ev
        agg = agg[0]
        expected = {
            "prior_err_m": np.mean([r["prior_err_m"] for r in trials]),
            "lb_rmse_practical_m": np.mean([r["lb_rmse_practical_m"] for r in trials]),
            "empirical_rmse_m": math.sqrt(np.mean([r["empirical_rmse_m"] ** 2 for r in trials])),
        }
        if not all(_relclose(agg[k], float(v), 1e-9) for k, v in expected.items()) or any(
            r["lb_rmse_theoretical_m"] != agg["lb_rmse_theoretical_m"] for r in trials
        ):
            ev.failed = self.TRIALS
            return ev
        case_a = self.scenarios["caseA"]
        truth = case_a.source[:2]
        for row in trials:
            prior = np.array([row["prior_x_m"], row["prior_y_m"]])
            sc = case_a.with_source(prior)
            ev.failed += check_design(ev, sc, row["angles"], prior, truth) is None
        ev.extra["empirical_rmse_m"] = agg["empirical_rmse_m"]
        return ev


class LargeSwarm:
    """Library ``optimize`` on large swarms with noise levels drawn from the seed."""

    SIZES = (64, 256)
    ARCS_DEG = (60.0, 120.0, 200.0)
    NOISE_STD = (math.sqrt(2.0), math.sqrt(8.0))  # the two caseA levels

    def __init__(self, root, seed: int):
        self.seed = seed
        self.items = len(self.SIZES) * len(self.ARCS_DEG)

    def inputs(self) -> list:
        """Scenarios with noise levels drawn from the seed.

        Sensors come in adjacent pairs, one at each noise level, in an order
        drawn per pair; independent draws per sensor made the outer iteration
        count of a single design swing between about 100 and the 1000 cap.
        """
        rng = np.random.default_rng(self.seed)
        out = []
        for n in self.SIZES:
            for arc in self.ARCS_DEG:
                first = rng.integers(0, 2, size=n // 2)
                levels = np.column_stack([first, 1 - first]).ravel()
                out.append(
                    Scenario(
                        source=[0.0, 0.0, 0.0],
                        n_sensors=n,
                        gamma=2.0,
                        horiz_dist=np.full(n, 1000.0),
                        vert_dist=np.full(n, 100.0),
                        noise_std=np.asarray(self.NOISE_STD)[levels],
                        samples_per_position=10,
                        beta_max=math.radians(arc),
                    )
                )
        return out

    def run(self, scenarios, work=None, tracer=None) -> PassResult:
        optimize = admm.optimize
        if tracer is not None:
            optimize = spans.wrap(tracer, "admm.optimize", optimize, spans.count_optimize)
        result = PassResult(items=self.items, outputs=[])
        for sc in scenarios:
            try:
                placement, trace = optimize(sc)
            except Exception:  # an operation that raised counts as failed
                result.raised += 1
                continue
            result.nonconverged += not trace.converged
            result.outputs.append((sc, placement))
        result.fingerprint = b"".join(p.angles.tobytes() for _, p in result.outputs)
        return result

    def evaluate(self, outputs: list) -> Evaluation:
        ev = Evaluation()
        for sc, placement in outputs:
            at = sc.source[:2]
            ev.failed += check_design(ev, sc, placement.angles, at, at) is None
        return ev


WORKLOADS = {"studies": Studies, "practical": Practical, "large-swarm": LargeSwarm}
