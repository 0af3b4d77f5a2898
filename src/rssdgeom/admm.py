"""Constrained geometric configuration optimizer.

Maximizes the determinant of the reduced information matrix T over sensor
angles confined to an arc, by splitting the log-det objective from the
unit-norm/arc constraints: an auxiliary matrix X carries the objective, the
direction matrix G carries the constraints, and a dual matrix V plus a
quadratic penalty rho tie them together. Per outer iteration the X block has
a closed-form update on the 2x2 Gram matrix of J (a thin SVD only where that
matrix is near singular), and the G block is solved by majorize-minimize
sweeps whose per-row minimizers are known in closed form on the feasible
arc: each row's minimizer is an angle on the arc, and the sweep's
objective is read off the same q the rows are computed from. A sweep
updates all N rows in one array expression (_mm_rows); mm_row_update is
the same kernel applied to a single row.

Designs run in lockstep along a leading design axis. optimize_many groups
its scenarios by variant, all swarms of at most _PAD_LIMIT sensors in one
group and larger swarms by exact size, and advances each group as one
batch of (B, N, 2) arrays, N being the group's largest sensor count: every
outer step is one X-update call, one set of MM sweeps (each design stops
sweeping on its own test) and one dual update for all running designs. A
smaller swarm is padded with zero rows and columns in its coupling factor
and m_tilde and zero rows in G and V; its padded rows see q = 0 in every
sweep, so they keep their zeros, and they never feed back into the real
rows. The set-up makes one call per kernel for all designs of one sensor
count. The iterates are scored (det T and LB-RMSE) once per block of up to
_SCORE_BLOCK outer steps, with one call over every step and design of the
block on T = (S D G)^T S D G, which the steps already hold, through
fim.t_scores, the rule fim.reduced_scores applies too; the solver
state never reads a score, so the block only decides how far a design
runs past its stop before it leaves the batch. The MM sweeps carry each
row's arc angle, which is its user-frame angle, so no iterate is turned
back from directions to angles. Each design keeps its own penalty, bound,
LB budget, best record and stop test, keeps only the records up to its
stop, and leaves the batch at the end of the block in which it stops.
Record 0 and the returned best record are re-scored at the end through
fim.reduced_scores, one call per sensor count, so the reported numbers
are those of fim_full. A design's result is bit for bit the serial loop
run on its zero-padded arrays: what it would be alone when its group holds
one size, and within rounding of that otherwise (the padded sums round
differently). optimize is optimize_many on one scenario. x_update,
g_update_mm and _mm_rows take the design axis or a single design, and
give a single design the same bits either way.

For spread bounds above pi the solver works in a rotation-equivalent arc
centered on pi/2 (where the constraint is a plain elementwise vector
bound); a row's arc angle, measured from the arc's lower end, is the same
in both frames.

Two conventions worth knowing:

* the penalty is a calibrated constant over lambda_max(M), the squared
  spectral norm of the constraint operator S D, taken from the same
  eigenvalue as m_tilde, so trajectories do not depend on physical units;
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
    t_scores,
)
from .model import TWO_PI, Placement, Scenario, ScenarioError, Variant, wrap_angles
from .numerics import psd_sqrt, row_dots, sym_eig_max, thin_svd

# fim_full is not called here, but it stays importable as admm.fim_full:
# perfbench/spans.py wraps it under that name
from .fim import fim_full  # noqa: F401

# Penalty rho = _PENALTY_SCALE / lambda_max(M), M = (S D)^T S D, the squared
# spectral norm of the constraint operator S D. The constant is calibrated on
# the bundled benchmark scenarios (convergence inside 100 outer iterations with
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

# A design's X-update takes the closed form on its Gram matrix K = J^T J
# while det K > _GRAM_RCOND * K_00 * K_11, that is, while the squared sine
# of the angle between J's columns exceeds it; the rest take the thin SVD.
# det K is formed by cancellation, so the closed form's relative error grows
# as about eps / sin^2: at this bound it stays within about 1e-13 of the SVD
# (measured against 40-digit arithmetic), and the J of the bundled studies
# stay above 0.048.
_GRAM_RCOND = 1e-2

_IDENTITY = np.eye(2)
_ADJUGATE_SIGNS = np.array([[1.0, -1.0], [-1.0, 1.0]])

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

    X = U diag(lambda) V^T shares its singular vectors with J (the alignment
    that attains the trace upper bound), each singular value remapped by
    singular_value_map. With the 2x2 Gram matrix K = J^T J that is
    X = J (I + (I + 8 rho K^-1)^(1/2)) / (2 rho), evaluated in closed form:
    a 2x2 positive definite A has the square root
    (A + sqrt(det A) I) / sqrt(tr A + 2 sqrt(det A)). A design whose K is
    singular or too ill-conditioned for that (det K at most _GRAM_RCOND
    times the product of its diagonal) takes the thin SVD instead, which
    then runs on the whole stack. J may be a (B, N, 2) stack of designs
    with one rho each; a design's path and bits depend on its own J and
    rho only.
    """
    j = np.asarray(j_k, dtype=float)
    one = j.ndim == 2
    if one:
        j = j[None]
    rho = np.asarray(rho, dtype=float).reshape(-1)
    k = j.swapaxes(-1, -2) @ j
    k00, k01, k11 = k[:, 0, 0], k[:, 0, 1], k[:, 1, 1]
    diagonal = k00 * k11
    det = diagonal - k01 * k01
    closed = det > _GRAM_RCOND * diagonal
    all_closed = np.count_nonzero(closed) == len(closed)
    # A = I + c adj(K) with c = 8 rho / det K; det A = 1 + c tr K + 8 rho c
    # is a sum of positive terms, so it is formed without cancellation
    eight_rho = 8.0 * rho
    c = eight_rho / (det if all_closed else np.where(closed, det, 1.0))
    one_ct = 1.0 + c * (k00 + k11)
    root_det = np.sqrt(one_ct + eight_rho * c)
    root_trace = np.sqrt(one_ct + 1.0 + 2.0 * root_det)
    scale = 0.5 / rho
    per_trace = scale / root_trace
    diag = scale + (1.0 + root_det) * per_trace
    cross = c * per_trace
    # (I + A^(1/2)) / (2 rho) = diag I + cross adj(K), adj(K) being K with
    # its diagonal swapped and its off-diagonal negated
    adjugate = k[:, ::-1, ::-1] * _ADJUGATE_SIGNS
    m = diag[:, None, None] * _IDENTITY + cross[:, None, None] * adjugate
    x = j @ m
    if not all_closed:
        u, sigma, vh = thin_svd(j)
        lam = singular_value_map(sigma, rho[:, None])
        x = np.where(closed[:, None, None], x, (u * lam[..., None, :]) @ vh)
    return x[0] if one else x


def _mm_rows(q: np.ndarray, bound: ConstraintBound, prev: np.ndarray, prev_angles=None):
    """Minimize g_i.T q_i over unit vectors in the feasible arc, for every row i.

    Along the circle g_i.T q_i = -|q_i| cos(t - t_i), t_i the angle of -q_i,
    which is unimodal: the minimizer is t_i where it lies on the arc and the
    nearer arc end elsewhere. So each row measures t_i from the arc centre,
    wrapped to [-pi, pi) (-q_i opposite the centre ties to the lower end),
    clips it to the arc's half-width and turns that angle into a unit row.
    Rows with q_i = 0 keep prev_i: every feasible point is optimal there.
    q and prev are (N, 2), or (B, N, 2) with a bound carrying one beta_max
    per design. Given prev_angles, the arc angles of prev's rows, it returns
    the new rows and their arc angles: a row's angle above the arc's lower
    end, which is its user-frame angle in [0, beta_max].
    """
    away = -q
    x, y = away[..., 0], away[..., 1]
    turn = np.arctan2(y, x) - bound.centre
    np.add(turn, TWO_PI, out=turn, where=turn < -math.pi)
    np.minimum(np.maximum(turn, -bound.half, out=turn), bound.half, out=turn)
    angle = bound.centre + turn
    rows = np.empty_like(away)
    np.cos(angle, out=rows[..., 0])
    np.sin(angle, out=rows[..., 1])
    moved = np.logical_or(x, y)
    rows = np.where(moved[..., None], rows, prev)
    if prev_angles is None:
        return rows
    return rows, np.where(moved, turn + bound.half, prev_angles)


def mm_row_update(q: np.ndarray, bound: ConstraintBound, prev: np.ndarray) -> np.ndarray:
    """Minimize g.T q over unit vectors in the feasible arc (one row of _mm_rows).

    For q = 0 every feasible point is optimal, and the previous row prev is
    kept for determinism.
    """
    q = np.asarray(q, dtype=float).reshape(1, 2)
    return _mm_rows(q, bound, np.asarray(prev, dtype=float).reshape(1, 2))[0]


def _design_sums(a: np.ndarray) -> np.ndarray:
    """Sum of every entry of each design's block, as np.sum of the block."""
    return a.reshape(len(a), -1).sum(axis=1)


def _design_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each design's block, the square root of its flat self-dot."""
    flat = a.reshape(len(a), -1)
    return np.sqrt(row_dots(flat, flat))


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
    angles=None,
):
    """Solve the constrained G subproblem by majorize-minimize sweeps.

    The quadratic coupling through M = (S D)^T S D is linearized at the
    current iterate using m_tilde = M - lambda_max(M) I (negative
    semidefinite, so the linearization is a global upper bound); the linear
    surrogate splits into independent per-row problems, all solved at once
    by _mm_rows. Sweeps stop when the subproblem objective change falls
    below mm_tol (relative) or the iterate moves less than mm_tol in
    Frobenius norm. Returns (G, sweeps performed); given angles, the arc
    angles of g_start's rows (see _mm_rows), it returns
    (G, sweeps, arc angles of G's rows).

    Every array may carry a leading design axis (B, ...), with one rho and
    one bound row per design; each design then stops on its own test, every
    sweep keeps the new G only for the designs still running, and the sweep
    counts come back as a list of B.
    """
    one = np.ndim(g_start) == 2
    if one:
        x_next, v, g_start, half_bd, m_tilde = (
            np.asarray(a, dtype=float)[None] for a in (x_next, v, g_start, half_bd, m_tilde)
        )
    rho = np.asarray(rho, dtype=float).reshape(-1)
    rho_3d = rho[:, None, None]
    c = v - rho_3d * x_next
    base = half_bd.swapaxes(-1, -2) @ c
    # The objective rho/2 ||S G||^2 + <C, S G> read off the sweep's own
    # q = S^T C + rho m_tilde G: every row of G is a unit row or a zero
    # (padded) row, so rho/2 ||S G||^2 = rho/2 <G, m_tilde G> + lambda_max(M)
    # times the real rows, which is rho/2 (||S||_F^2 - tr m_tilde).
    flat = half_bd.reshape(len(half_bd), -1)
    shift = 0.5 * rho * (row_dots(flat, flat) - np.trace(m_tilde, axis1=-2, axis2=-1))
    g = g_start
    arc = np.zeros(g.shape[:-1]) if angles is None else np.reshape(angles, g.shape[:-1])
    q = base + rho_3d * (m_tilde @ g)
    prev_obj = (0.5 * _design_sums(g * (q + base)) + shift).tolist()
    inner = [max_inner] * len(g)
    running = [True] * len(g)
    # a zero q keeps a row, so a stopped design's q is multiplied by zero
    live = np.ones((len(g), 1, 1))
    for sweep in range(1, max_inner + 1):
        g_next, arc = _mm_rows(q if all(running) else q * live, bound, g, arc)
        delta = _design_norms(g_next - g).tolist()
        g = g_next
        q = base + rho_3d * (m_tilde @ g)
        obj = (0.5 * _design_sums(g * (q + base)) + shift).tolist()
        for b, (p, o, d) in enumerate(zip(prev_obj, obj, delta)):
            if running[b] and (abs(p - o) < mm_tol * max(1.0, abs(o)) or d < mm_tol):
                running[b] = False
                live[b] = 0.0
                inner[b] = sweep
        if not any(running):
            break
        prev_obj = obj
    if one:
        g, inner, arc = g[0], inner[0], arc[0]
    return (g, inner) if angles is None else (g, inner, arc)


def _log_det_inv_gram(x: np.ndarray):
    """-log det(X^T X), +inf where X^T X is not positive definite; per design."""
    sign, logdet = np.linalg.slogdet(x.swapaxes(-1, -2) @ x)
    return np.where(sign > 0, -logdet, math.inf).tolist()


def _iterate_scores(hg: np.ndarray, lb_scale: np.ndarray):
    """det T and LB-RMSE of every entry of a (E, N, 2) stack of S*D*G, as lists.

    T = (S D G)^T S D G is the reduced information matrix G^T D B D G, the
    T of fim.reduced_scores turned into the solver frame (which keeps its
    determinant and eigenvalues), scored by fim.t_scores.
    """
    det, lb, _ = t_scores(hg.swapaxes(-1, -2) @ hg, lb_scale)
    return det, lb


def _certified_scores(scenarios: list, weights: list, angles: list):
    """det T and LB-RMSE of each design's user-frame angles, scored as fim_full does.

    One sensor_offsets and one reduced_scores call per sensor count, at each
    design's own source, so every value has the bits of fim_full on the
    design alone.
    """
    variant = scenarios[0].variant
    det_t, lbs = [0.0] * len(scenarios), [0.0] * len(scenarios)
    sizes = [sc.n_sensors for sc in scenarios]
    for n in sorted(set(sizes)):
        at = [i for i, size in enumerate(sizes) if size == n]
        center = np.stack([scenarios[i].source[:2] for i in at])
        horiz = np.stack([scenarios[i].horiz_dist for i in at])
        vert = np.stack([scenarios[i].vert_dist for i in at])
        a = np.stack([angles[i] for i in at])
        dx, dy, d_sq = sensor_offsets(center, horiz, vert, a, center)
        w = np.stack([weights[i].w for i in at])
        _, dets, lb, _ = reduced_scores(
            dx, dy, d_sq, w, [weights[i].lb_scale for i in at], variant
        )
        for i, det, value in zip(at, dets, lb):
            det_t[i], lbs[i] = det, value
    return det_t, lbs


@dataclass
class _Batch:
    """Solver arrays of the designs still running in a lockstep group, one row each.

    Sensor axes are padded with zeros to the group's largest sensor count;
    n holds each design's own count, and angles the arc angles (user-frame
    angles) of g's rows.
    """

    index: np.ndarray  # position of each design in its group
    n: np.ndarray
    half_bd: np.ndarray
    m_tilde: np.ndarray
    rho: np.ndarray
    g0: np.ndarray
    beta_max: np.ndarray
    lb_scale: np.ndarray
    g: np.ndarray
    angles: np.ndarray
    v: np.ndarray
    hg: np.ndarray  # half_bd @ g

    def take(self, keep: np.ndarray) -> "_Batch":
        return _Batch(**{f.name: getattr(self, f.name)[keep] for f in fields(self)})


@dataclass
class _Run:
    """Trace bookkeeping of one design: its records, best record, stop test and stop reason."""

    records: list
    best: TraceRecord
    lb_budget: float
    stall: int = 0
    reason: str = "max_outer"

    def advance(self, rec: TraceRecord, step: float) -> bool:
        """Add one outer iteration; True once the run stops, with reason set."""
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
            self.reason = "lb_stall" if lb_stall else "step"
            return True
        return False

    def result(self):
        inner = [rec.inner_iters for rec in self.records[1:]]
        trace = AdmmTrace(
            records=self.records,
            converged=self.reason != "max_outer",
            outer_iters=self.records[-1].k,
            mean_inner=float(np.mean(inner)) if inner else 0.0,
            best=self.best,
            stop_reason=self.reason,
        )
        return Placement.from_angles(self.best.angles), trace


def _start(scenarios: list, weights: list):
    """Set up a lockstep group: its _Batch and one _Run per design.

    Each design's coupling factor, m_tilde, penalty and uniform start are
    computed at its own sensor count, with one call per kernel for all
    designs of that count, and embedded in zeros up to the group's largest
    count. m_tilde and the penalty share one lambda_max(M). The zero rows and columns keep the padded sensors inert (see
    the module docstring). Every run starts from the uniform placement,
    which is record 0 and the first best record, scored by
    _certified_scores.
    """
    variant = scenarios[0].variant
    count = len(scenarios)
    sizes = np.array([sc.n_sensors for sc in scenarios])
    n_pad = int(sizes.max())
    bounds = [g0_bound(sc.beta_max) for sc in scenarios]
    offset = np.array([solver_arc_offset(sc.beta_max) for sc in scenarios])

    half_bd = np.zeros((count, n_pad, n_pad))
    m_tilde = np.zeros((count, n_pad, n_pad))
    rho = np.empty(count)
    angles = np.zeros((count, n_pad))
    g = np.zeros((count, n_pad, 2))
    for n in sorted(set(sizes.tolist())):
        at = np.flatnonzero(sizes == n)
        members = [scenarios[i] for i in at]
        coupling = np.stack([coupling_matrix(weights[i], variant) for i in at])
        sens = np.stack([sensitivity_diag(sc) for sc in members])
        factor = psd_sqrt(coupling) * sens[:, None, :]
        m_mat = factor.swapaxes(-1, -2) @ factor
        m_mat = 0.5 * (m_mat + m_mat.swapaxes(-1, -2))
        lam_max = sym_eig_max(m_mat)
        if lam_max.min() <= 0:
            raise ValueError("degenerate scenario: constraint operator is zero")
        half_bd[at, :n, :n] = factor
        m_tilde[at, :n, :n] = m_mat - lam_max[:, None, None] * np.eye(n)
        rho[at] = _PENALTY_SCALE / lam_max
        uniform = np.stack([uniform_init(n, sc.beta_max).angles for sc in members])
        turned = uniform + offset[at, None]
        angles[at, :n] = uniform
        g[at, :n] = np.stack([np.cos(turned), np.sin(turned)], axis=-1)

    hg = half_bd @ g
    batch = _Batch(
        index=np.arange(count),
        n=sizes,
        half_bd=half_bd,
        m_tilde=m_tilde,
        rho=rho,
        g0=np.stack([b.g0 for b in bounds]),
        beta_max=np.array([b.beta_max for b in bounds]),
        lb_scale=np.array([wt.lb_scale for wt in weights]),
        g=g,
        angles=angles,
        v=np.zeros_like(g),
        hg=hg,
    )
    runs = []
    for objective, det, lb, row, n in zip(
        _log_det_inv_gram(hg), *_iterate_scores(hg, batch.lb_scale), angles, sizes.tolist()
    ):
        first = TraceRecord(0, objective, det, lb, 0, 0.0, row[:n])
        runs.append(_Run(records=[first], best=first, lb_budget=lb + 1e-9))
    return batch, runs


def _lockstep(scenarios: list, max_outer: int) -> list:
    """Run designs of one variant as one padded batch; (placement, trace) each.

    The group advances in blocks of up to _SCORE_BLOCK outer steps, never
    past max_outer. Every outer step updates all running designs with one
    call per kernel and no scoring; g_update_mm carries the arc angles of
    G's rows along. The block's iterates are then stacked step-major to
    (steps * designs, N, 2) and scored with one _iterate_scores call on the
    S*D*G the steps already hold; each design replays its records through
    its stop test in step order. A design that stops keeps the records up
    to its stop, drops the rest of the block and leaves the batch; the
    others run on. At the end, each design's record 0 and best record are
    re-scored by _certified_scores, so the numbers reported with the uniform
    and the returned placement are those of fim_full.
    """
    weights = [noise_weights(sc) for sc in scenarios]
    batch, runs = _start(scenarios, weights)
    k = 0
    while k < max_outer:
        steps = min(_SCORE_BLOCK, max_outer - k)
        rho_3d = batch.rho[:, None, None]
        bound = ConstraintBound(g0=batch.g0, beta_max=batch.beta_max)
        xs, hgs, arcs, residuals, moves, inner = [], [], [], [], [], []
        for _ in range(steps):
            x = x_update(batch.v + rho_3d * batch.hg, batch.rho)
            g, sweeps, arc = g_update_mm(
                x, batch.v, batch.g, batch.half_bd, batch.m_tilde, batch.rho, bound,
                angles=batch.angles,
            )
            hg = batch.half_bd @ g
            residual = hg - x
            xs.append(x)
            hgs.append(hg)
            arcs.append(arc)
            residuals.append(residual)
            moves.append(g - batch.g)
            inner += sweeps
            batch.g, batch.angles, batch.hg = g, arc, hg
            batch.v = batch.v + rho_3d * residual

        width = len(batch.index)
        det_t, lbs = _iterate_scores(np.concatenate(hgs), np.tile(batch.lb_scale, steps))
        user = wrap_angles(np.stack(arcs))
        columns = list(zip(
            _log_det_inv_gram(np.concatenate(xs)),
            det_t,
            lbs,
            inner,
            _design_norms(np.concatenate(residuals)).tolist(),
            _design_norms(np.concatenate(moves)).tolist(),
        ))
        running = []
        for j, (i, n) in enumerate(zip(batch.index.tolist(), batch.n.tolist())):
            for s in range(steps):
                objective, det, lb, sweeps, primal, step = columns[s * width + j]
                rec = TraceRecord(k + s + 1, objective, det, lb, sweeps, primal, user[s, j, :n])
                stopped = runs[i].advance(rec, step)
                if stopped:
                    break
            running.append(not stopped)
        k += steps
        if not all(running):
            if not any(running):
                break
            batch = batch.take(np.array(running))
    reported = [run.records[0] for run in runs] + [run.best for run in runs]
    certified = _certified_scores(scenarios * 2, weights * 2, [rec.angles for rec in reported])
    for rec, det, lb in zip(reported, *certified):
        rec.det_t, rec.lb_rmse = det, lb
    return [run.result() for run in runs]


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
