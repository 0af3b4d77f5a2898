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

For spread bounds above pi the solver works in a rotation-equivalent arc
centered on pi/2 (where the constraint is a plain elementwise vector bound)
and rotates the result back into [0, beta_max] before returning it.

Two conventions worth knowing:

* the penalty is internally rescaled by the squared spectral norm of the
  constraint operator, so trajectories do not depend on physical units;
* the outer stopping test watches the placement metric (relative LB-RMSE
  change) and the iterate step norm rather than the primal residual: the
  X singular values are bounded below by sqrt(2/rho), so the primal residual
  of this splitting stays bounded away from zero by construction.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fim import (
    ConstraintBound,
    coupling_matrix,
    fim_full,
    g0_bound,
    noise_weights,
    sensitivity_diag,
    solver_arc_offset,
)
from .model import Placement, Scenario, ScenarioError, SourceParams, Variant, wrap_angles
from .numerics import psd_sqrt, row_dots, sym_eig_max, thin_svd

TWO_PI = 2.0 * math.pi

# Effective penalty = rho * _PENALTY_SCALE / opnorm^2. The constant is
# calibrated on the bundled benchmark scenarios (convergence inside 100 outer
# iterations with the documented improvement envelope at 10 iterations).
_PENALTY_SCALE = 4.0

# Outer convergence requires the stopping test to hold this many consecutive
# iterations, guarding against one-off stalls during transients.
_STALL_ITERATIONS = 2


@dataclass
class AdmmOptions:
    """Optimizer knobs.

    rho is the penalty weight before the internal unit rescaling; it shapes
    the trajectory only, never the fixed-point target. Tolerances: admm_tol
    stops the outer loop (relative LB-RMSE change or iterate step norm),
    mm_tol stops the inner sweeps (subproblem objective change or step norm).
    """

    rho: float = 1.0
    admm_tol: float = 1e-4
    mm_tol: float = 1e-3
    max_outer: int = 1000
    max_inner: int = 50

    def __post_init__(self):
        for name in ("rho", "admm_tol", "mm_tol"):
            if getattr(self, name) <= 0:
                raise ValueError(f"{name} must be positive")
        for name in ("max_outer", "max_inner"):
            if int(getattr(self, name)) < 1:
                raise ValueError(f"{name} must be a positive integer")


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
    """Per-iteration records of a run; best is the record of the returned placement."""

    records: list
    converged: bool
    outer_iters: int
    mean_inner: float
    best: TraceRecord


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


def singular_value_map(sigma: float, rho: float) -> float:
    """Positive root of rho*x^2 - sigma*x - 2 = 0, the optimal X singular value."""
    if sigma < 0 or rho <= 0:
        raise ValueError("need sigma >= 0 and rho > 0")
    return (sigma + math.sqrt(sigma**2 + 8.0 * rho)) / (2.0 * rho)


def x_update(j_k: np.ndarray, rho: float) -> np.ndarray:
    """Global minimizer of the X subproblem for the current J = V + rho*S*G.

    Shares singular vectors with J (the alignment that attains the trace
    upper bound); each singular value is remapped by singular_value_map.
    """
    svd = thin_svd(j_k)
    lam = np.array([singular_value_map(s, rho) for s in svd.sigma])
    return (svd.u * lam) @ svd.v.T


def _arc_candidates(bound: ConstraintBound) -> np.ndarray:
    """(2, 2) endpoint directions of the feasible arc, by increasing angle."""
    beta_max = bound.beta_max
    if beta_max <= math.pi:
        angles = (0.0, beta_max)
    else:
        angles = ((math.pi + beta_max) / 2.0, (5.0 * math.pi - beta_max) / 2.0)
    return np.array([[math.cos(a), math.sin(a)] for a in angles])


def _mm_rows(q: np.ndarray, bound: ConstraintBound, prev: np.ndarray) -> np.ndarray:
    """Minimize g_i.T q_i over unit vectors in the feasible arc, for every row i.

    The unconstrained minimizer -q_i/|q_i| wins where it satisfies the vector
    bound; elsewhere the minimum sits at an arc endpoint (the objective is
    unimodal along the circle), ties going to the smaller angle. Rows with
    q_i = 0 keep prev_i: every feasible point is optimal there.
    """
    nq = np.sqrt(row_dots(q, q))
    zero = nq == 0.0
    interior = -q / np.where(zero, 1.0, nq)[:, None]
    ends = _arc_candidates(bound)
    lower_first = row_dots(q, ends[1]) < row_dots(q, ends[0])
    endpoint = np.where(lower_first[:, None], ends[1], ends[0])
    feasible = np.all(interior >= bound.g0, axis=1)
    g = np.where(feasible[:, None], interior, endpoint)
    return np.where(zero[:, None], prev, g)


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


def _g_objective(g: np.ndarray, half_bd: np.ndarray, c: np.ndarray, rho: float) -> float:
    """G-subproblem objective rho/2 * ||S G||^2 + <C, S G> up to constants."""
    sg = half_bd @ g
    return 0.5 * rho * float(np.sum(sg * sg)) + float(np.sum(c * sg))


def g_update_mm(
    x_next: np.ndarray,
    v: np.ndarray,
    g_start: np.ndarray,
    half_bd: np.ndarray,
    m_tilde: np.ndarray,
    rho: float,
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
    """
    g = np.array(g_start, dtype=float)
    c = v - rho * x_next
    base = half_bd.T @ c
    prev_obj = _g_objective(g, half_bd, c, rho)
    inner = 0
    for _ in range(max_inner):
        q_all = base + rho * (m_tilde @ g)
        g_next = _mm_rows(q_all, bound, g)
        inner += 1
        obj = _g_objective(g_next, half_bd, c, rho)
        delta = float(np.linalg.norm(g_next - g))
        g = g_next
        if abs(prev_obj - obj) < mm_tol * max(1.0, abs(obj)) or delta < mm_tol:
            break
        prev_obj = obj
    return g, inner


def _log_det_inv_gram(x: np.ndarray) -> float:
    sign, logdet = np.linalg.slogdet(x.T @ x)
    return -logdet if sign > 0 else math.inf


def _to_user_frame(g_solver: np.ndarray, beta_max: float, offset: float) -> Placement:
    """Rotate solver-frame directions back into [0, beta_max] user angles.

    Angles within 1e-9 above beta_max snap to beta_max, and those within
    1e-9 below 2*pi to 0. The row angles use math.atan2, which can differ
    from np.arctan2 in the last bit.
    """
    snap = 1e-9
    raw = np.array([math.atan2(y, x) for x, y in g_solver.tolist()])
    a = wrap_angles(wrap_angles(raw) - offset)
    over = a > beta_max
    a = np.where(
        over & (TWO_PI - a <= snap),
        0.0,
        np.where(over & (a - beta_max <= snap), beta_max, a),
    )
    return Placement.from_angles(a)


def optimize(scenario: Scenario, options: AdmmOptions = None):
    """Run the full optimizer and return (placement, trace).

    The placement is the feasible iterate with the largest reduced-information
    determinant seen during the run, restricted to iterates that do not score
    worse than the uniform baseline (the baseline itself is a candidate, so
    the result never loses to it). The trace carries one record per outer
    iteration, record 0 being the uniform initialization, and keeps the
    record of the returned placement as trace.best.

    Every iterate is scored at the scenario's own source. The design depends
    only on the distances, noise, arc and variant: moving the source moves
    the sensors with it, and the information matrix sees only their offsets.
    """
    check_sensor_count(scenario)
    options = options if options is not None else AdmmOptions()
    source = SourceParams(p0=0.0, position=scenario.source[:2])
    n = scenario.n_sensors
    beta_max = scenario.beta_max
    bound = g0_bound(beta_max)
    offset = solver_arc_offset(beta_max)

    weights = noise_weights(scenario)
    coupling = coupling_matrix(weights, scenario.variant)
    sens = sensitivity_diag(scenario)
    half_bd = psd_sqrt(coupling.b) * sens.d[None, :]
    m_mat = half_bd.T @ half_bd
    m_mat = 0.5 * (m_mat + m_mat.T)
    lam_max = sym_eig_max(m_mat)
    m_tilde = m_mat - lam_max * np.eye(n)

    op_norm = float(np.linalg.norm(half_bd, 2))
    if op_norm <= 0:
        raise ValueError("degenerate scenario: constraint operator is zero")
    rho = options.rho * _PENALTY_SCALE / op_norm**2

    uniform = uniform_init(n, beta_max)
    uniform_summary = fim_full(scenario, uniform, source)
    uniform_det_t = float(np.linalg.det(uniform_summary.t))

    g = np.column_stack(
        [np.cos(uniform.angles + offset), np.sin(uniform.angles + offset)]
    )
    v = np.zeros((n, 2))
    x = half_bd @ g

    records = [
        TraceRecord(
            k=0,
            objective=_log_det_inv_gram(x),
            det_t=uniform_det_t,
            lb_rmse=uniform_summary.lb_rmse,
            inner_iters=0,
            primal_residual=0.0,
            angles=uniform.angles.copy(),
        )
    ]
    best_placement = uniform
    best = records[0]
    lb_budget = uniform_summary.lb_rmse + 1e-9

    converged = False
    k = 0
    stall = 0
    inner_counts = []
    for k in range(1, options.max_outer + 1):
        j_k = v + rho * (half_bd @ g)
        x = x_update(j_k, rho)
        g_next, inner = g_update_mm(
            x, v, g, half_bd, m_tilde, rho, bound,
            mm_tol=options.mm_tol, max_inner=options.max_inner,
        )
        v = v + rho * (half_bd @ g_next - x)
        step = float(np.linalg.norm(g_next - g))
        g = g_next
        primal = float(np.linalg.norm(half_bd @ g - x))
        inner_counts.append(inner)

        placement_k = _to_user_frame(g, beta_max, offset)
        summary_k = fim_full(scenario, placement_k, source)
        det_t_k = float(np.linalg.det(summary_k.t))
        records.append(
            TraceRecord(
                k=k,
                objective=_log_det_inv_gram(x),
                det_t=det_t_k,
                lb_rmse=summary_k.lb_rmse,
                inner_iters=inner,
                primal_residual=primal,
                angles=placement_k.angles.copy(),
            )
        )
        if det_t_k > best.det_t and summary_k.lb_rmse <= lb_budget:
            best = records[-1]
            best_placement = placement_k

        # Relative LB-RMSE change against the previous iterate and the one
        # two steps back: the splitting admits alternating (period-2) limit
        # cycles whose even/odd subsequences are stationary, and either
        # situation means the iteration has stopped making progress.
        cur_lb = records[-1].lb_rmse
        rel_lb = math.inf
        if math.isfinite(cur_lb) and cur_lb > 0:
            for lag in (1, 2):
                if len(records) > lag:
                    rel_lb = min(rel_lb, abs(cur_lb - records[-1 - lag].lb_rmse) / cur_lb)
        stall = stall + 1 if (rel_lb < options.admm_tol or step < options.admm_tol) else 0
        if stall >= _STALL_ITERATIONS:
            converged = True
            break

    trace = AdmmTrace(
        records=records,
        converged=converged,
        outer_iters=k,
        mean_inner=float(np.mean(inner_counts)) if inner_counts else 0.0,
        best=best,
    )
    return best_placement, trace


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
