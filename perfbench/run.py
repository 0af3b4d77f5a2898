#!/usr/bin/env python3
"""Benchmark of rssdgeom: runs one workload and prints its metrics.

    python3 perfbench/run.py --workload studies --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py                 # every workload, untraced and traced

The package is imported from the ``src/`` directory of the checkout this file
sits in, so the numbers describe that source tree. The load generator is one
process at a time: it adds no threads and drives each pass as a closed loop
(the next pass starts when the previous one returns). The program's own pool
in ``experiments._parallel_map`` still starts up to ``min(items, cpu_count, 8)``
threads. With no ``--workload`` each run goes to a child process of its own,
one after the other, so that ``peak_rss_mb`` is that workload's own.

A run does a reference pass (warm-up; its outputs are re-scored and checked
and give the quality metrics), then timed passes until ``--seconds`` have
passed and at least two were made; each must reproduce the reference outputs
byte for byte. ``--trace 0`` reports the end-to-end metrics. Set-up time is
measured in short-lived child interpreters, one at a time, each waited for:
one after each timed pass, so that the samples spread over the run, and more
after the last pass up to ``SETUP_SAMPLES``; the median is reported.
``--trace 1`` spends half the time on untraced and half on traced passes over
the same inputs and reports the per-layer metrics plus the tracing overhead;
spans go to ``.perfbench_work/spans-<workload>-seed<n>.jsonl``.
BLAS runs on one thread.

Human-readable lines come first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One single-threaded load generator: BLAS gets one thread, here and in the
# set-up children, so co-tenant load cannot stall a BLAS thread team.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
WORKLOAD_NAMES = ("studies", "practical", "large-swarm")
SETUP_SAMPLES = 25
MIN_PASSES = 2

# Names and units of the gated end-to-end and the per-layer metrics.
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m["unit"] for m in SPEC["per_layer"]}
# Printed with the end-to-end metrics but not gated: each can read 0 or has
# no value on some workload, or needs more passes than a run makes.
REPORT_ONLY = {
    "wall_s.tail": "s",
    "report_mismatch": "count",
    "empirical_rmse_m": "m",
    "nonconverged_frac": "ratio",
    "failed_frac": "ratio",
}


class Tally:
    """Operations attempted, failed and not converged over every pass of a run."""

    def __init__(self):
        self.attempted = self.failed = self.nonconverged = 0

    def add(self, result, check_failed: int) -> None:
        self.attempted += result.items
        self.failed += min(result.items, result.raised + check_failed)
        self.nonconverged += result.nonconverged


def setup_once(name: str, seed: int) -> float:
    """Wall time of a cold interpreter importing rssdgeom and loading the inputs."""
    code = (
        f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(HERE)!r}]; import workloads; "
        f"workloads.WORKLOADS[{name!r}]({str(ROOT)!r}, {seed}).inputs()"
    )
    t0 = time.perf_counter()
    # no timeout: with one, the wait polls and rounds times up to 50 ms
    subprocess.run(
        [sys.executable, "-c", code],
        cwd=ROOT,
        check=True,
        stdin=subprocess.DEVNULL,
        stdout=subprocess.DEVNULL,
    )
    return time.perf_counter() - t0


def timed_passes(wl, work, seconds, ref, ref_failed, tally, traced=False, after_pass=None):
    """Passes until ``seconds`` elapse; returns (pass times, items, spans per pass).

    Every pass runs on the reference inputs, must reproduce the reference
    outputs exactly and then shares their check result. ``after_pass`` is
    called, outside the timed region, after each pass.
    """
    import rssdgeom
    import spans

    inputs = wl.inputs()
    times, items, traces = [], 0, []
    deadline = time.perf_counter() + seconds
    while len(times) < MIN_PASSES or time.perf_counter() < deadline:
        tracer = spans.Tracer() if traced else None
        saved = spans.install(tracer, rssdgeom) if traced else []
        t0 = time.perf_counter()
        try:
            out = wl.run(inputs, work, tracer)
        finally:
            elapsed = time.perf_counter() - t0
            spans.uninstall(saved)
        times.append(elapsed)
        items += out.items
        tally.add(out, ref_failed if out.fingerprint == ref.fingerprint else out.items)
        if traced:
            traces.append(tracer.spans)
        if after_pass is not None:
            after_pass()
    return times, items, traces


def tail(times) -> tuple:
    """Highest percentile with at least ten passes beyond it: (value, pct, n)."""
    n = len(times)
    if n < 11:
        return None, None, n
    return sorted(times)[n - 11], 100.0 * (n - 10) / n, n


def end_to_end(name, wl, work, seconds, ref, ev, tally) -> tuple:
    """Untraced timed passes; returns (metrics, extra report lines)."""
    setup = []
    times, items, _ = timed_passes(
        wl, work, seconds, ref, ev.failed, tally,
        after_pass=lambda: setup.append(setup_once(name, wl.seed)),
    )
    while len(setup) < SETUP_SAMPLES:
        setup.append(setup_once(name, wl.seed))
    metrics = {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(times),
        "items_per_s": items / sum(times),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "lb_rmse_mean_m": statistics.fmean(ev.lb_rmse) if ev.lb_rmse else 0.0,
        "det_t_gain": (
            math.exp(statistics.fmean(math.log(g) for g in ev.gains)) if ev.gains else 0.0
        ),
    }
    value, pct, n = tail(times)
    tail_text = (
        f"{value:.6g} s (p{pct:.0f} of {n} passes)"
        if value is not None
        else f"n/a ({n} passes; needs at least 11)"
    )
    lines = [f"{name:12s} {'wall_s.tail':38s} {tail_text}"]
    report_only = {
        "report_mismatch": ev.report_mismatch,
        "nonconverged_frac": tally.nonconverged / tally.attempted,
        "failed_frac": tally.failed / tally.attempted,
        **ev.extra,
    }
    for key, value in report_only.items():
        lines.append(f"{name:12s} {key:38s} {value:.6g} {REPORT_ONLY[key]}")
    lines.append(
        f"{name:12s} {'passes':38s} {len(times)} timed + 1 reference "
        f"({', '.join(f'{t:.3f}' for t in times)} s)"
    )
    lines.append(f"{name:12s} {'set-up samples':38s} {len(setup)}")
    return metrics, lines


def per_layer(name, wl, work, seconds, ref, ev, tally) -> tuple:
    """Untraced then traced passes on the reference inputs.

    Returns (metrics, extra report lines, whether the counts repeated).
    """
    import spans

    plain, _, _ = timed_passes(wl, work, seconds / 2, ref, ev.failed, tally)
    traced, _, traces = timed_passes(wl, work, seconds / 2, ref, ev.failed, tally, traced=True)
    spans.write_jsonl(WORK / f"spans-{name}-seed{wl.seed}.jsonl", traces)
    per_pass = [spans.layer_metrics(s) for s in traces]
    repeat = all(p[key] == per_pass[0][key] for p in per_pass for key in spans.REPEATABLE_COUNTS)
    metrics = {
        key: (statistics.median_low if isinstance(v, int) else statistics.median)(
            p[key] for p in per_pass
        )
        for key, v in per_pass[0].items()
    }
    untraced_wall = statistics.median(plain)
    overhead = statistics.median(traced) - untraced_wall
    metrics["trace.overhead_s"] = overhead
    metrics["trace.overhead_frac"] = overhead / untraced_wall
    lines = [
        f"{name:12s} {'untraced wall_s':38s} {untraced_wall:.6g} s "
        f"({len(plain)} untraced, {len(traced)} traced passes)",
        f"{name:12s} {'count repeat check':38s} {'ok' if repeat else 'FAILED'} "
        f"({', '.join(spans.REPEATABLE_COUNTS)})",
    ]
    return metrics, lines, repeat


def run_workload(name: str, seed: int, seconds: float, trace: bool) -> dict:
    """One workload in this process; prints its report lines, returns the result."""
    import workloads

    wl = workloads.WORKLOADS[name](ROOT, seed)
    work = WORK / f"{name}-{os.getpid()}"
    work.mkdir(parents=True, exist_ok=True)
    try:
        tally = Tally()
        ref = wl.run(wl.inputs(), work)
        ev = wl.evaluate(ref.outputs)
        tally.add(ref, ev.failed)
        if trace:
            metrics, lines, correct = per_layer(name, wl, work, seconds, ref, ev, tally)
            units = PER_LAYER
        else:
            metrics, lines = end_to_end(name, wl, work, seconds, ref, ev, tally)
            units, correct = END_TO_END, True
    finally:
        shutil.rmtree(work, ignore_errors=True)

    head = [f"{name:12s} {key:38s} {metrics[key]:.6g} {unit}" for key, unit in units.items()]
    print("\n".join(head + lines), flush=True)
    return {
        "correct": correct and tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {key: {"value": metrics[key], "unit": unit} for key, unit in units.items()},
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES + ("all",), default="all")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "rssdgeom" / "__init__.py").is_file():
        print(f"error: no rssdgeom sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import rssdgeom

    if Path(rssdgeom.__file__).resolve().parent != SRC / "rssdgeom":
        print(f"error: imported rssdgeom from {rssdgeom.__file__}, not {SRC}", file=sys.stderr)
        return 2

    if args.workload != "all":
        print(json.dumps(run_workload(args.workload, args.seed, args.seconds, bool(args.trace))))
        return 0

    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            # a child per run, so that peak_rss_mb is this workload's own
            proc = subprocess.run(
                [sys.executable, __file__, "--workload", name, "--seed", str(args.seed),
                 "--seconds", str(args.seconds), "--trace", str(trace)],
                cwd=ROOT,
                check=True,
                stdin=subprocess.DEVNULL,
                stdout=subprocess.PIPE,
                text=True,
            )
            *lines, last = proc.stdout.strip().splitlines()
            print("\n".join(lines), flush=True)
            result = json.loads(last)
            combined["correct"] &= result["correct"]
            combined["attempted"] += result["attempted"]
            combined["failed"] += result["failed"]
            combined["metrics"].setdefault(name, {}).update(result["metrics"])
    print(json.dumps(combined))
    return 0


if __name__ == "__main__":
    sys.exit(main())
