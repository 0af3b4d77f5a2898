"""In-memory span recorder and the wrappers that place spans at layer boundaries.

Spans are recorded from the benchmark's own files only: ``install`` swaps the
module-level names that callers inside ``rssdgeom`` look up at call time for
timing wrappers, and ``uninstall`` puts the originals back. No file of the
program changes.

Parent stacks are per thread because ``experiments._parallel_map`` runs jobs
on pool threads. A span opened on a thread whose stack is empty takes as its
parent the innermost span open on the thread that created the tracer: the
pool threads only ever run work submitted from inside such a span.
"""

from __future__ import annotations

import itertools
import json
import os
import threading
import time
from collections import defaultdict
from dataclasses import dataclass, field

import numpy as np


@dataclass
class Span:
    """One timed call: name, start, end, the span that caused it, counters."""

    sid: int
    name: str
    parent: int | None
    thread: int
    start: float
    end: float = 0.0
    counts: dict = field(default_factory=dict)


class Tracer:
    """Collects spans in memory; ``spans`` is read after the traced work ends."""

    def __init__(self):
        self.spans = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._root_stack = self._stack()

    def _stack(self):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def open(self, name: str) -> Span:
        stack = self._stack()
        outer = stack or self._root_stack
        span = Span(
            sid=next(self._ids),
            name=name,
            parent=outer[-1].sid if outer else None,
            thread=threading.get_ident(),
            start=time.perf_counter(),
        )
        stack.append(span)
        return span

    def close(self, span: Span) -> None:
        span.end = time.perf_counter()
        self._stack().pop()
        self.spans.append(span)


def wrap(tracer: Tracer, name: str, fn, count=None):
    def wrapper(*args, **kwargs):
        span = tracer.open(name)
        try:
            result = fn(*args, **kwargs)
            if count is not None:
                count(span, args, result)
            return result
        finally:
            tracer.close(span)

    wrapper.__wrapped__ = fn
    return wrapper


def count_optimize(span: Span, args, result) -> None:
    """Counters of one ``admm.optimize`` call, read from its return value."""
    placement, trace = result
    k_returned = next(
        (r.k for r in trace.records if np.array_equal(r.angles, placement.angles)), 0
    )
    inner = sum(r.inner_iters for r in trace.records)
    span.counts.update(
        n=args[0].n_sensors,
        outer_iters=trace.outer_iters,
        inner_sweeps=inner,
        mm_rows=inner * args[0].n_sensors,
        returned_iter=k_returned,
        converged=int(trace.converged),
    )


def _count_mle(span, args, result):
    span.counts.update(gn_iters=result.iterations, converged=int(result.converged))


def _count_csv(span, args, result):
    span.counts["bytes"] = os.path.getsize(args[1])


# (module attribute, span name, counter) for every name the program's callers
# look up at call time. Span names follow the per-layer metric names.
_TARGETS = [
    ("admm", "x_update", "admm.x_update", None),
    ("admm", "g_update_mm", "admm.g_update_mm", None),
    ("admm", "fim_full", "admm.fim_full", None),
    ("admm", "psd_sqrt", "numerics.psd_sqrt", None),
    ("admm", "sym_eig_max", "numerics.sym_eig_max", None),
    ("admm", "thin_svd", "numerics.thin_svd", None),
    ("experiments", "optimize", "admm.optimize", count_optimize),
    ("experiments", "fim_full", "experiments.fim_full", None),
    ("experiments", "mle_estimate", "estimator.mle_estimate", _count_mle),
    ("experiments", "simulate_measurements", "model.simulate_measurements", None),
    ("cli", "load_scenario", "cli.load_scenario", None),
    ("cli", "write_csv", "cli.write_csv", _count_csv),
    ("cli", "run_optimize", "experiments.run_optimize", None),
    ("cli", "run_convergence", "experiments.run_convergence", None),
    ("cli", "run_sweep_n", "experiments.run_sweep_n", None),
    ("cli", "run_sweep_angle", "experiments.run_sweep_angle", None),
    ("cli", "run_practical", "experiments.run_practical", None),
]


def install(tracer: Tracer, package) -> list:
    """Wrap every target name; returns what ``uninstall`` needs to undo it."""
    saved = []
    for module_name, attr, span_name, count in _TARGETS:
        module = getattr(package, module_name)
        original = getattr(module, attr)
        saved.append((module, attr, original))
        setattr(module, attr, wrap(tracer, span_name, original, count))
    return saved


def uninstall(saved: list) -> None:
    for module, attr, original in reversed(saved):
        setattr(module, attr, original)


def _covered(interval, others) -> float:
    """Length of the part of ``interval`` covered by the union of ``others``."""
    lo, hi = interval
    clipped = sorted((max(a, lo), min(b, hi)) for a, b in others if b > lo and a < hi)
    total, cur_a, cur_b = 0.0, None, None
    for a, b in clipped:
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans) -> dict:
    """Span id -> duration minus the part of it covered by its child spans."""
    children = defaultdict(list)
    for s in spans:
        if s.parent is not None:
            children[s.parent].append((s.start, s.end))
    return {
        s.sid: (s.end - s.start) - _covered((s.start, s.end), children[s.sid])
        for s in spans
    }


DESIGN_SIZES = (4, 8, 12, 16, 64, 256)

# Counts that must repeat exactly between two traced passes on the same inputs.
REPEATABLE_COUNTS = (
    "admm.outer_iters",
    "admm.inner_sweeps",
    "admm.fim_full.calls",
    "estimator.gn_iters",
)


def layer_metrics(spans) -> dict:
    """Per-layer numbers of one traced pass, keyed by per-layer metric name.

    A metric whose layer did no work on this pass reads 0.
    """
    by_name = defaultdict(list)
    for s in spans:
        by_name[s.name].append(s)
    selfs = self_times(spans)

    def busy(name):
        return sum(s.end - s.start for s in by_name[name])

    opt = by_name["admm.optimize"]
    mle = by_name["estimator.mle_estimate"]
    outer = sum(s.counts["outer_iters"] for s in opt)
    m = {
        "admm.optimize.calls": len(opt),
        "admm.optimize.s": busy("admm.optimize"),
        "admm.optimize.self_s": sum(selfs[s.sid] for s in opt),
        "admm.g_update_mm.s": busy("admm.g_update_mm"),
        "admm.mm_rows": sum(s.counts["mm_rows"] for s in opt),
        "admm.fim_full.calls": len(by_name["admm.fim_full"]),
        "admm.fim_full.s": busy("admm.fim_full"),
        "admm.x_update.s": busy("admm.x_update"),
        "numerics.thin_svd.calls": len(by_name["numerics.thin_svd"]),
        "numerics.thin_svd.s": busy("numerics.thin_svd"),
        "admm.outer_iters": outer,
        "admm.inner_sweeps": sum(s.counts["inner_sweeps"] for s in opt),
        "admm.useful_iter_frac": (
            sum(s.counts["returned_iter"] for s in opt) / outer if outer else 0.0
        ),
        "numerics.psd_sqrt.s": busy("numerics.psd_sqrt"),
        "numerics.sym_eig_max.s": busy("numerics.sym_eig_max"),
    }
    for n in DESIGN_SIZES:
        times = [s.end - s.start for s in opt if s.counts["n"] == n]
        m[f"admm.optimize.s_per_design.n{n}"] = float(np.mean(times)) if times else 0.0
    m.update(
        {
            "estimator.mle_estimate.calls": len(mle),
            "estimator.mle_estimate.s": busy("estimator.mle_estimate"),
            "estimator.gn_iters": sum(s.counts["gn_iters"] for s in mle),
            "estimator.converged_frac": (
                sum(s.counts["converged"] for s in mle) / len(mle) if mle else 0.0
            ),
            "model.simulate_measurements.s": busy("model.simulate_measurements"),
            "experiments.fim_full.s": busy("experiments.fim_full"),
            "experiments.self_s": sum(
                selfs[s.sid] for s in spans if s.name.startswith("experiments.run_")
            ),
            "cli.write_csv.s": busy("cli.write_csv"),
            "cli.write_csv.bytes": sum(s.counts["bytes"] for s in by_name["cli.write_csv"]),
            "cli.load_scenario.s": busy("cli.load_scenario"),
        }
    )
    return m


def write_jsonl(path, passes) -> None:
    """Write every span of every traced pass, one JSON object per line."""
    with open(path, "w") as fh:
        for index, spans in enumerate(passes):
            for s in spans:
                fh.write(
                    json.dumps(
                        {
                            "pass": index,
                            "id": s.sid,
                            "name": s.name,
                            "parent": s.parent,
                            "thread": s.thread,
                            "start": s.start,
                            "end": s.end,
                            **s.counts,
                        }
                    )
                    + "\n"
                )
