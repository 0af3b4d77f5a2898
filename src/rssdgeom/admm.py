"""Constrained geometric configuration optimizer.

Maximizes the determinant of the reduced information matrix T over sensor
angles confined to an arc, by splitting the log-det objective from the
unit-norm/arc constraints: an auxiliary matrix X carries the objective, the
direction matrix G carries the constraints, and a dual matrix V plus a
quadratic penalty rho tie them together. Per outer iteration the X block has
a closed-form update through a thin SVD, and the G block is solved by
majorize-minimize sweeps whose per-row minimizers are known in closed form on
the feasible arc. A sweep updates all N rows in one array expression
(_mm_rows); mm_row_update is the same kernel applied to a single row.

Designs run in lockstep along a leading design axis. optimize_many groups
its scenarios by variant, all swarms of at most _PAD_LIMIT sensors in one
group and larger swarms by exact size, and advances each group as one
batch of (B, N, 2) arrays, N being the group's largest sensor count: every
outer step is one batched thin SVD for the X-update, one set of MM sweeps
(each design stops sweeping on its own test) and one dual update for all
running designs. A smaller swarm is padded with zero rows and columns in
its coupling factor and m_tilde and zero rows in G and V; its padded rows
see q = 0 in every sweep, so they keep their zeros, and they never feed
back into the real rows. The set-up makes one call per kernel for all
designs of one sensor count. The iterates are scored (frame rotation, T,
det T and LB-RMSE) once per block of up to _SCORE_BLOCK outer steps, with
one frame rotation over every step and design of the block and one
scoring call per sensor count on the real rows only; the solver state
never reads a score, so the block only decides how far a design runs past
its stop before it leaves the batch. Each design keeps its own penalty,
bound, arc offset, LB budget, best record and stop test, keeps only the
records up to its stop, and leaves the batch at the end of the block in
which it stops. Its result is bit for bit the serial loop run on its
zero-padded arrays: what it would be alone when its group holds one size,
and within rounding of that otherwise (the padded sums round differently).
optimize is optimize_many on one scenario. x_update, g_update_mm, _mm_rows
and _to_user_frame take the design axis or a single design, and give a
single design the same bits either way.

For spread bounds above pi the solver works in a rotation-equivalent arc
centered on pi/2 (where the constraint is a plain elementwise vector bound)
and rotates the result back into [0, beta_max] before returning it.

Two conventions worth knowing:

* the penalty is a calibrated constant over the squared spectral norm of
  the constraint operator, so trajectories do not depend on physical units;
* the outer stopping test watches the placement metric (relative LB-RMSE
  change) and the iterate step norm rather than the primal residual: the
  X singular values are bounded below by sqrt(2/rho), so the primal residual
  of this splitting stays bounded away from zero by construction.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass, fields

import numpy as np

from .fim import (
    ConstraintBound,
    coupling_matrix,
    g0_bound,
    noise_weights,
    reduced_scores,
    sensitivity_diag,
    sensor_offsets,
    solver_arc_offset,
)
from .model import (
    TWO_PI, Placement, Scenario, ScenarioError, Variant, direction_angles, wrap_angles
)
from .numerics import psd_sqrt, row_dots, sym_eig_max, thin_svd

# fim_full is not called here, but it stays importable as admm.fim_full:
# perfbench/spans.py wraps it under that name
from .fim import fim_full  # noqa: F401

# Penalty rho = _PENALTY_SCALE / opnorm^2. The constant is calibrated on the
# bundled benchmark scenarios (convergence inside 100 outer iterations with
# the documented improvement envelope at 10 iterations). The problem is
# nonconvex, so the penalty picks the fixed point the run reaches, not only
# the path to it: it is a constant of the solver, not a setting.
_PENALTY_SCALE = 4.0

# Outer tolerance on the relative LB-RMSE change and the iterate step norm.
_ADMM_TOL = 1e-4

# Outer convergence requires the stopping test to hold this many consecutive
# iterations, guarding against one-off stalls during transients.
_STALL_ITERATIONS = 2

# Outer steps a lockstep group advances between two scoring calls. A design
# that stops inside a block has its later steps of that block computed and
# dropped, so a group runs at most _SCORE_BLOCK - 1 steps past its last stop.
_SCORE_BLOCK = 8

# Designs with at most this many sensors share one lockstep group, padded to
# its largest sensor count; larger swarms keep one group per exact size. A
# lockstep step costs about the same up to this size and grows past it
# (measured at 8 designs: 238, 314 and 352 us per step at N = 4, 16 and 32,
# 747 us at 64), so padding a small swarm to a large one would cost more
# than the steps it saves.
_PAD_LIMIT = 32


@dataclass
class AdmmOptions:
    """Optimizer settings: max_outer caps the outer iterations.

    It must be an integer of at least 1; booleans are not. The penalty and
    the tolerances are constants of the solver (_PENALTY_SCALE, _ADMM_TOL
    and the g_update_mm defaults).
    """

    max_outer: int = 1000

    def __post_init__(self):
        value = self.max_outer
        if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 1:
            raise ValueError(f"max_outer must be an integer >= 1, got {value!r}")


@dataclass
class TraceRecord:
    """One outer iteration: scalar diagnostics plus the user-frame angles."""

    k: int
    objective: float
    det_t: float
    lb_rmse: float
    inner_iters: int
    primal_residual: float
    angles: np.ndarray


@dataclass
class AdmmTrace:
    """Per-iteration records of a run; best is the record of the returned placement.

    stop_reason is "lb_stall" (relative LB-RMSE change below _ADMM_TOL),
    "step" (iterate step below _ADMM_TOL) or "max_outer" (iteration cap);
    when both tolerance tests hold at the last iteration it is "lb_stall".
    """

    records: list
    converged: bool
    outer_iters: int
    mean_inner: float
    best: TraceRecord
    stop_reason: str


def check_sensor_count(scenario: Scenario) -> None:
    """Reject swarms too small to locate the source.

    RSSD has three unknowns (P0, x, y), so fewer than three sensors leave
    the information matrix singular; no variant can place fewer than two.
    """
    need = 3 if scenario.variant is Variant.RSSD else 2
    if scenario.n_sensors < need:
        raise ScenarioError(
            f"{scenario.variant.value} scenarios need at least {need} sensors, "
            f"got {scenario.n_sensors}"
        )


def uniform_init(n: int, beta_max: float) -> Placement:
    """Evenly spread angles i * beta_max / n, i = 1..n (the baseline strategy)."""
    if n < 2:
        raise ValueError(f"need at least 2 sensors, got {n}")
    if not 0.0 < beta_max <= TWO_PI + 1e-12:
        raise ValueError(f"beta_max must lie in (0, 2*pi], got {beta_max!r}")
    angles = beta_max * np.arange(1, n + 1) / n
    return Placement.from_angles(angles)


def singular_value_map(sigma, rho):
    """Positive root of rho*x^2 - sigma*x - 2 = 0, the optimal X singular value.

    Elementwise on arrays of sigma >= 0 and rho > 0.
    """
    # sigma^2 is libm pow, as for a float: the array square sigma * sigma
    # differs from it in the last bit for some sigma; np.float_power keeps pow
    return (sigma + np.sqrt(np.float_power(sigma, 2) + 8.0 * rho)) / (2.0 * rho)


def x_update(j_k: np.ndarray, rho) -> np.ndarray:
    """Global minimizer of the X subproblem for the current J = V + rho*S*G.

    Shares singular vectors with J (the alignment that attains the trace
    upper bound); each singular value is remapped by singular_value_map
    (sigma >= 0 by construction, rho > 0). Returns the array
    X = U diag(lambda) V^T, which holds each singular pair only as the
    product u_j v_j^T and so does not depend on its sign. J may be a
    (B, N, 2) stack of designs with one rho each.
    """
    u, sigma, vh = thin_svd(j_k)
    lam = singular_value_map(sigma, np.asarray(rho)[..., None])
    return (u * lam[..., None, :]) @ vh


def _mm_rows(q: np.ndarray, bound: ConstraintBound, prev: np.ndarray) -> np.ndarray:
    """Minimize g_i.T q_i over unit vectors in the feasible arc, for every row i.

    The unconstrained minimizer -q_i/|q_i| wins where it satisfies the vector
    bound; elsewhere the minimum sits at an arc endpoint (the objective is
    unimodal along the circle), ties going to the smaller angle. Rows with
    q_i = 0 keep prev_i: every feasible point is optimal there. q and prev
    are (N, 2), or (B, N, 2) with a bound carrying one row per design.
    """
    nq = np.sqrt(row_dots(q, q))
    zero = nq == 0.0
    interior = -q / np.where(zero, 1.0, nq)[..., None]
    lo, hi = bound.ends[..., None, 0, :], bound.ends[..., None, 1, :]
    lower_first = row_dots(q, hi) < row_dots(q, lo)
    endpoint = np.where(lower_first[..., None], hi, lo)
    feasible = (interior >= bound.g0[..., None, :]).all(axis=-1)
    g = np.where(feasible[..., None], interior, endpoint)
    return np.where(zero[..., None], prev, g)


def mm_row_update(q: np.ndarray, bound: ConstraintBound, prev: np.ndarray = None) -> np.ndarray:
    """Minimize g.T q over unit vectors in the feasible arc (one row of _mm_rows).

    For q = 0 every feasible point is optimal: the previous row is kept for
    determinism, or the arc midpoint returned when there is none.
    """
    if prev is None:
        mid = bound.beta_max / 2.0 if bound.beta_max <= math.pi else math.pi / 2.0
        prev = [math.cos(mid), math.sin(mid)]
    q = np.asarray(q, dtype=float).reshape(1, 2)
    return _mm_rows(q, bound, np.asarray(prev, dtype=float).reshape(1, 2))[0]


def _design_sums(a: np.ndarray) -> np.ndarray:
    """Sum of every entry of each design's (N, 2) block, as np.sum of the block."""
    return a.reshape(len(a), -1).sum(axis=1)


def _design_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each design's block, as np.linalg.norm of the block."""
    flat = a.reshape(len(a), -1)
    return np.sqrt(row_dots(flat, flat))


def _g_objective(g: np.ndarray, half_bd: np.ndarray, c: np.ndarray, half_rho: np.ndarray) -> list:
    """G-subproblem objective rho/2 * ||S G||^2 + <C, S G> up to constants, per design."""
    sg = half_bd @ g
    return (half_rho * _design_sums(sg * sg) + _design_sums(c * sg)).tolist()


def g_update_mm(
    x_next: np.ndarray,
    v: np.ndarray,
    g_start: np.ndarray,
    half_bd: np.ndarray,
    m_tilde: np.ndarray,
    rho,
    bound: ConstraintBound,
    mm_tol: float = 1e-3,
    max_inner: int = 50,
):
    """Solve the constrained G subproblem by majorize-minimize sweeps.

    The quadratic coupling through M = (S D)^T S D is linearized at the
    current iterate using m_tilde = M - lambda_max(M) I (negative
    semidefinite, so the linearization is a global upper bound); the linear
    surrogate splits into independent per-row problems, all solved at once
    by _mm_rows. Sweeps stop when the subproblem objective change falls
    below mm_tol (relative) or the iterate moves less than mm_tol in
    Frobenius norm. Returns (G, sweeps performed).

    Every array may carry a leading design axis (B, ...), with one rho and
    one bound row per design; each design then stops on its own test, keeps
    its G from then on, and the sweep counts come back as a list of B.
    """
    one = np.ndim(g_start) == 2
    if one:
        x_next, v, g_start, half_bd, m_tilde = (
            np.asarray(a, dtype=float)[None] for a in (x_next, v, g_start, half_bd, m_tilde)
        )
    rho = np.reshape(rho, -1)
    rho_3d = rho[:, None, None]
    half_rho = 0.5 * rho
    g = g_start
    c = v - rho_3d * x_next
    base = half_bd.swapaxes(-1, -2) @ c
    prev_obj = _g_objective(g, half_bd, c, half_rho)
    inner = [max_inner] * len(g)
    running = [True] * len(g)
    for sweep in range(1, max_inner + 1):
        q_all = base + rho_3d * (m_tilde @ g)
        g_next = _mm_rows(q_all, bound, g)
        obj = _g_objective(g_next, half_bd, c, half_rho)
        delta = _design_norms(g_next - g).tolist()
        # a design that stopped in an earlier sweep keeps its G
        g = g_next if all(running) else np.where(np.array(running)[:, None, None], g_next, g)
        for b, (p, o, d) in enumerate(zip(prev_obj, obj, delta)):
            if running[b] and (abs(p - o) < mm_tol * max(1.0, abs(o)) or d < mm_tol):
                running[b] = False
                inner[b] = sweep
        if not any(running):
            break
        prev_obj = obj
    return (g[0], inner[0]) if one else (g, inner)


def _log_det_inv_gram(x: np.ndarray):
    """-log det(X^T X), +inf where X^T X is not positive definite; per design."""
    sign, logdet = np.linalg.slogdet(x.swapaxes(-1, -2) @ x)
    return np.where(sign > 0, -logdet, math.inf).tolist()


def _to_user_frame(g_solver: np.ndarray, beta_max, offset) -> np.ndarray:
    """Rotate solver-frame directions back into [0, beta_max] user angles.

    g_solver is (..., N, 2), beta_max and offset scalars or one per leading
    entry; returns the (..., N) angles. Angles within 1e-9 above beta_max
    snap to beta_max, and those within 1e-9 below 2*pi to 0. The row angles
    come from model.direction_angles.
    """
    snap = 1e-9
    beta_max = np.asarray(beta_max)[..., None]
    a = wrap_angles(direction_angles(g_solver) - np.asarray(offset)[..., None])
    over = a > beta_max
    return np.where(
        over & (TWO_PI - a <= snap),
        0.0,
        np.where(over & (a - beta_max <= snap), beta_max, a),
    )


@dataclass
class _Batch:
    """Solver arrays of the designs still running in a lockstep group, one row each.

    Sensor axes are padded with zeros to the group's largest sensor count;
    n holds each design's own count.
    """

    index: np.ndarray  # position of each design in its group
    n: np.ndarray
    half_bd: np.ndarray
    m_tilde: np.ndarray
    rho: np.ndarray
    g0: np.ndarray
    ends: np.ndarray
    beta_max: np.ndarray
    offset: np.ndarray
    center: np.ndarray
    horiz: np.ndarray
    vert: np.ndarray
    w: np.ndarray
    lb_scale: np.ndarray
    g: np.ndarray
    v: np.ndarray
    hg: np.ndarray  # half_bd @ g

    def take(self, keep: np.ndarray) -> "_Batch":
        return _Batch(**{f.name: getattr(self, f.name)[keep] for f in fields(self)})

    def score(self, angles: np.ndarray, design: np.ndarray, variant: Variant):
        """det T, LB-RMSE and real angles of entries (angles[e], design[e]), as lists.

        angles are padded (entries, N) user-frame rows. Each entry is scored
        on its design's own sensors only, with one sensor_offsets and one
        reduced_scores call per sensor count, as it would be alone.
        """
        det_t = np.empty(len(design))
        lbs = np.empty(len(design))
        real = [None] * len(design)
        sizes = self.n[design]
        for n in sorted(set(sizes.tolist())):
            sel = np.flatnonzero(sizes == n)
            rows = design[sel]
            a = angles[sel, :n]
            center = self.center[rows]
            horiz, vert = self.horiz[rows, :n], self.vert[rows, :n]
            dx, dy, d_sq = sensor_offsets(center, horiz, vert, a, center)
            t, lb, _ = reduced_scores(dx, dy, d_sq, self.w[rows, :n], self.lb_scale[rows], variant)
            det_t[sel] = np.linalg.det(t)
            lbs[sel] = lb
            for e, row in zip(sel.tolist(), a):
                real[e] = row
        return det_t.tolist(), lbs.tolist(), real


@dataclass
class _Run:
    """Trace bookkeeping of one design: its records, best record and stop test."""

    records: list
    best: TraceRecord
    lb_budget: float
    stall: int = 0

    def advance(self, rec: TraceRecord, step: float):
        """Add one outer iteration; returns the stop reason once the run stops."""
        self.records.append(rec)
        if rec.det_t > self.best.det_t and rec.lb_rmse <= self.lb_budget:
            self.best = rec
        # Relative LB-RMSE change against the previous iterate and the one
        # two steps back: the splitting admits alternating (period-2) limit
        # cycles whose even/odd subsequences are stationary, and either
        # situation means the iteration has stopped making progress.
        rel_lb = math.inf
        if math.isfinite(rec.lb_rmse) and rec.lb_rmse > 0:
            for lag in (1, 2):
                if len(self.records) > lag:
                    prev = self.records[-1 - lag].lb_rmse
                    rel_lb = min(rel_lb, abs(rec.lb_rmse - prev) / rec.lb_rmse)
        lb_stall = rel_lb < _ADMM_TOL
        self.stall = self.stall + 1 if (lb_stall or step < _ADMM_TOL) else 0
        if self.stall >= _STALL_ITERATIONS:
            return "lb_stall" if lb_stall else "step"
        return None

    def result(self, stop_reason: str):
        inner = [rec.inner_iters for rec in self.records[1:]]
        trace = AdmmTrace(
            records=self.records,
            converged=stop_reason != "max_outer",
            outer_iters=self.records[-1].k,
            mean_inner=float(np.mean(inner)) if inner else 0.0,
            best=self.best,
            stop_reason=stop_reason,
        )
        return Placement.from_angles(self.best.angles), trace


def _start(scenarios: list):
    """Set up a lockstep group: its _Batch and one _Run per design.

    Each design's coupling factor, m_tilde, penalty and uniform start are
    computed at its own sensor count, with one call per kernel for all
    designs of that count, and embedded in zeros up to the group's largest
    count. The zero rows and columns keep the padded sensors inert (see
    the module docstring). Every run starts from the uniform placement,
    which is record 0 and the first best record.
    """
    variant = scenarios[0].variant
    count = len(scenarios)
    sizes = np.array([sc.n_sensors for sc in scenarios])
    n_pad = int(sizes.max())
    weights = [noise_weights(sc) for sc in scenarios]
    bounds = [g0_bound(sc.beta_max) for sc in scenarios]
    offset = np.array([solver_arc_offset(sc.beta_max) for sc in scenarios])

    half_bd = np.zeros((count, n_pad, n_pad))
    m_tilde = np.zeros((count, n_pad, n_pad))
    rho = np.empty(count)
    angles, horiz, vert, w = (np.zeros((count, n_pad)) for _ in range(4))
    g = np.zeros((count, n_pad, 2))
    for n in sorted(set(sizes.tolist())):
        at = np.flatnonzero(sizes == n)
        members = [scenarios[i] for i in at]
        coupling = np.stack([coupling_matrix(weights[i], variant) for i in at])
        sens = np.stack([sensitivity_diag(sc) for sc in members])
        factor = psd_sqrt(coupling) * sens[:, None, :]
        m_mat = factor.swapaxes(-1, -2) @ factor
        m_mat = 0.5 * (m_mat + m_mat.swapaxes(-1, -2))
        op_norms = np.linalg.norm(factor, 2, axis=(-2, -1)).tolist()
        if min(op_norms) <= 0:
            raise ValueError("degenerate scenario: constraint operator is zero")
        half_bd[at, :n, :n] = factor
        m_tilde[at, :n, :n] = m_mat - sym_eig_max(m_mat)[:, None, None] * np.eye(n)
        rho[at] = [_PENALTY_SCALE / op**2 for op in op_norms]
        uniform = np.stack([uniform_init(n, sc.beta_max).angles for sc in members])
        turned = uniform + offset[at, None]
        angles[at, :n] = uniform
        g[at, :n] = np.stack([np.cos(turned), np.sin(turned)], axis=-1)
        horiz[at, :n] = [sc.horiz_dist for sc in members]
        vert[at, :n] = [sc.vert_dist for sc in members]
        w[at, :n] = [weights[i].w for i in at]

    hg = half_bd @ g
    batch = _Batch(
        index=np.arange(count),
        n=sizes,
        half_bd=half_bd,
        m_tilde=m_tilde,
        rho=rho,
        g0=np.stack([b.g0 for b in bounds]),
        ends=np.stack([b.ends for b in bounds]),
        beta_max=np.array([b.beta_max for b in bounds]),
        offset=offset,
        center=np.stack([sc.source[:2] for sc in scenarios]),
        horiz=horiz,
        vert=vert,
        w=w,
        lb_scale=np.array([wt.lb_scale for wt in weights]),
        g=g,
        v=np.zeros_like(g),
        hg=hg,
    )
    det_t, lbs, real = batch.score(angles, batch.index, variant)
    runs = []
    for objective, det, lb, rec_angles in zip(_log_det_inv_gram(hg), det_t, lbs, real):
        first = TraceRecord(0, objective, det, lb, 0, 0.0, rec_angles)
        runs.append(_Run(records=[first], best=first, lb_budget=lb + 1e-9))
    return batch, runs


def _lockstep(scenarios: list, max_outer: int) -> list:
    """Run designs of one variant as one padded batch; (placement, trace) each.

    The group advances in blocks of up to _SCORE_BLOCK outer steps, never
    past max_outer. Every outer step updates all running designs with one
    call per kernel and no scoring. The block's iterates are then stacked
    step-major to (steps * designs, N, 2), rotated to the user frame with
    one call and scored on each design's real sensors with one call per
    kernel and sensor count (_Batch.score); each design replays its records
    through its stop test in step order. A design that stops keeps the
    records up to its stop, drops the rest of the block and leaves the
    batch; the others run on.
    """
    variant = scenarios[0].variant
    batch, runs = _start(scenarios)
    reasons = ["max_outer"] * len(scenarios)
    k = 0
    while k < max_outer:
        steps = min(_SCORE_BLOCK, max_outer - k)
        rho_3d = batch.rho[:, None, None]
        bound = ConstraintBound(g0=batch.g0, beta_max=batch.beta_max, ends=batch.ends)
        xs, gs, residuals, moves, inner = [], [], [], [], []
        for _ in range(steps):
            x = x_update(batch.v + rho_3d * batch.hg, batch.rho)
            g, sweeps = g_update_mm(
                x, batch.v, batch.g, batch.half_bd, batch.m_tilde, batch.rho, bound
            )
            hg = batch.half_bd @ g
            residual = hg - x
            xs.append(x)
            gs.append(g)
            residuals.append(residual)
            moves.append(g - batch.g)
            inner += sweeps
            batch.g, batch.hg, batch.v = g, hg, batch.v + rho_3d * residual

        width = len(batch.index)
        angles = _to_user_frame(
            np.concatenate(gs), np.tile(batch.beta_max, steps), np.tile(batch.offset, steps)
        )
        det_t, lbs, real = batch.score(angles, np.tile(np.arange(width), steps), variant)
        columns = list(zip(
            _log_det_inv_gram(np.concatenate(xs)),
            det_t,
            lbs,
            inner,
            _design_norms(np.concatenate(residuals)).tolist(),
            real,
            _design_norms(np.concatenate(moves)).tolist(),
        ))
        running = []
        for j, i in enumerate(batch.index.tolist()):
            for s in range(steps):
                objective, det, lb, sweeps, primal, rec_angles, step = columns[s * width + j]
                rec = TraceRecord(k + s + 1, objective, det, lb, sweeps, primal, rec_angles)
                reason = runs[i].advance(rec, step)
                if reason is not None:
                    reasons[i] = reason
                    break
            running.append(reason is None)
        k += steps
        if not all(running):
            if not any(running):
                break
            batch = batch.take(np.array(running))
    return [run.result(reason) for run, reason in zip(runs, reasons)]


def optimize_many(scenarios, options: AdmmOptions = None) -> list:
    """Run the optimizer on every scenario; one (placement, trace) each, in input order.

    Designs of one variant with at most _PAD_LIMIT sensors run as one
    lockstep batch (see _lockstep), padded with inert sensors to the
    batch's largest sensor count; larger swarms run as one batch per exact
    size. Each design keeps its own penalty, bound, trajectory and stop
    test. Its result is bit for bit that of the serial optimize loop run on
    its zero-padded arrays, and so that of optimize on it alone when the
    batch holds one size; padding changes only how the solver's padded
    sums round. Every scenario's sensor count is checked before any work
    starts.
    """
    scenarios = list(scenarios)
    for scenario in scenarios:
        check_sensor_count(scenario)
    max_outer = (options if options is not None else AdmmOptions()).max_outer
    groups = {}
    for i, scenario in enumerate(scenarios):
        n = scenario.n_sensors
        groups.setdefault((scenario.variant, n if n > _PAD_LIMIT else 0), []).append(i)
    results = [None] * len(scenarios)
    for members in groups.values():
        for i, result in zip(members, _lockstep([scenarios[i] for i in members], max_outer)):
            results[i] = result
    return results


def optimize(scenario: Scenario, options: AdmmOptions = None):
    """Run the full optimizer and return (placement, trace).

    The placement is the feasible iterate with the largest reduced-information
    determinant seen during the run, restricted to iterates that do not score
    worse than the uniform baseline (the baseline itself is a candidate, so
    the result never loses to it). The trace carries one record per outer
    iteration, record 0 being the uniform initialization, keeps the record
    of the returned placement as trace.best, and says in trace.stop_reason
    why the run stopped.

    Every iterate is scored at the scenario's own source. The design depends
    only on the distances, noise, arc and variant: moving the source moves
    the sensors with it, and the information matrix sees only their offsets.
    This is optimize_many on a single scenario.
    """
    return optimize_many([scenario], options)[0]


def optimal_distance(r_range, h_range):
    """Best (r, h) for a single sensor over a rectangle of allowed distances.

    The per-sensor sensitivity r / (r^2 + h^2) is decreasing in h and peaks at
    r = h for fixed h, so the optimum is h* = h_min with r* clamped to the
    allowed interval; it does not depend on any angle or on other sensors.
    """
    r_min, r_max = float(r_range[0]), float(r_range[1])
    h_min, h_max = float(h_range[0]), float(h_range[1])
    if not 0.0 < r_min <= r_max:
        raise ValueError("need 0 < r_min <= r_max")
    if not 0.0 <= h_min <= h_max:
        raise ValueError("need 0 <= h_min <= h_max")
    if h_min > 0.0:
        r_star = min(max(h_min, r_min), r_max)
    else:
        r_star = r_min
    return r_star, h_min
