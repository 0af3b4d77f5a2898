"""Constrained geometric configuration optimizer.

Maximizes the determinant of the reduced information matrix T over sensor
angles confined to an arc, by splitting the log-det objective from the
unit-norm/arc constraints: an auxiliary matrix X carries the objective, the
direction matrix G carries the constraints, and a dual matrix V plus a
quadratic penalty rho tie them together. Per outer iteration the X block has
a closed-form update on the 2x2 Gram matrix of J (a thin SVD only where that
matrix is near singular), and the G block is solved by majorize-minimize
sweeps whose per-row minimizers are known in closed form on the feasible
arc [0, beta_max]: each row's minimizer is an angle on the arc, for every
beta_max, and the sweep's objective is read off the same q the rows are
computed from. A sweep updates all N rows in one array expression
(_mm_rows); mm_row_update is the same kernel applied to a single row.

The kernels keep the (B, N, .) arrays in NumPy and run the per-design
scalars (the X-update's 2x2 multiplier, the MM objective and stop test) on
Python floats after one tolist, in the order of operations of the serial
one-design loop, so with its bits: most outer steps run on a few designs,
where a NumPy call on a few dozen numbers costs more than one design's
whole float chain.

Designs run in lockstep along a leading design axis. optimize_many puts
all swarms of at most _PAD_LIMIT sensors in one group and larger swarms in
one group per exact size, and advances each group as one batch of
(B, N, 2) arrays, N being the group's largest sensor count: every outer
step is one X-update call, one set of MM sweeps (each design stops
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
runs past its stop before it leaves the batch. The block's record angles
are read off its iterates the same way, with one np.arctan2 over every
step and design, wrapped and clipped at beta_max (the angle of a row on
the arc's upper end can round 1 ulp past it). Each design keeps its own
penalty, bound and AdmmTrace, which applies the stop test and the
best-record rule, keeps only the records up to its stop, and leaves the
batch at the end of the block in which it stops. Record 0 is scored before
the first step and the returned best record at the end, both through
fim.reduced_scores with one call per sensor count, so the reported
numbers are those of fim_full. A design's result is bit for bit
the serial loop run on its zero-padded arrays: what it would be alone when
its group holds one size, and within rounding of that otherwise (the padded
sums round differently). optimize is optimize_many on one scenario. x_update,
g_update_mm and _mm_rows take the design axis or a single design, and
give a single design the same bits either way.

Two conventions worth knowing:

* the penalty is a calibrated constant over lambda_max(M), the squared
  spectral norm of the constraint operator S D, taken from the same
  eigenvalue as m_tilde, so trajectories do not depend on physical units;
* the outer stopping test watches the placement metric (relative LB-RMSE
  change) rather than the primal residual: the X singular values are
  bounded below by sqrt(2/rho), so the primal residual of this splitting
  stays bounded away from zero by construction. A run also stops once its
  best record is _PATIENCE iterations old ("patience"), since only a later,
  better record could change its result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field, fields

import numpy as np

from .fim import (
    ConstraintBound,
    coupling_matrix,
    noise_weights,
    reduced_scores,
    sensitivity_diag,
    sensor_offsets,
    t_scores,
)
from .model import (
    TWO_PI, Placement, Scenario, ScenarioError, as_count, spread_bound, wrap_angles,
)
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

# Outer tolerance on the relative LB-RMSE change.
_ADMM_TOL = 1e-4

# Outer convergence requires the stopping test to hold this many consecutive
# iterations, guarding against one-off stalls during transients.
_STALL_ITERATIONS = 2

# A run stops once its best record is this many outer iterations old: the
# result is that record, so the later iterations only matter if one of them
# beats it. Of 1288 designs (caseA and caseB, N = 3-16, 20-360 degrees),
# this patience makes 6 return an earlier record, at 0.944-0.979 of their
# det T; a patience of 20 moves 32, down to 0.596.
_PATIENCE = 48

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

    It must be an integer of at least 1 (model.as_count); anything else is
    a ScenarioError. The penalty and the tolerances are constants of the
    solver (_PENALTY_SCALE, _ADMM_TOL and the g_update_mm defaults).
    """

    max_outer: int = 1000

    def __post_init__(self):
        as_count(self.max_outer, "max_outer", 1)


@dataclass
class TraceRecord:
    """One outer iteration: scalar diagnostics plus the sensor angles."""

    k: int
    objective: float
    det_t: float
    lb_rmse: float
    inner_iters: int
    primal_residual: float
    angles: np.ndarray


@dataclass
class AdmmTrace:
    """One design's run: one record per outer iteration, record 0 the uniform start.

    best, the record of the returned placement, has the largest det T among
    the records whose LB-RMSE is at most lb_budget, record 0's plus 1e-9 m;
    of records with equal det T (one that underflows to 0, say), the lowest
    LB-RMSE. stop_reason is "lb_stall" (relative LB-RMSE change below
    _ADMM_TOL), "patience" (best record _PATIENCE iterations old) or
    "max_outer" (iteration cap); when both rules hold at the last iteration,
    "lb_stall" names it. converged, false only at the cap, outer_iters and
    mean_inner are read off records and stop_reason.
    """

    records: list
    best: TraceRecord
    lb_budget: float
    stop_reason: str = "max_outer"
    _stall: int = field(default=0, init=False, repr=False)

    @property
    def converged(self) -> bool:
        return self.stop_reason != "max_outer"

    @property
    def outer_iters(self) -> int:
        return self.records[-1].k

    @property
    def mean_inner(self) -> float:
        inner = [rec.inner_iters for rec in self.records[1:]]
        return float(np.mean(inner)) if inner else 0.0

    def _advance(self, rec: TraceRecord) -> bool:
        """Add one outer iteration; True once the run stops, with stop_reason set."""
        self.records.append(rec)
        best = self.best
        if rec.lb_rmse <= self.lb_budget and (
            rec.det_t > best.det_t or (rec.det_t == best.det_t and rec.lb_rmse < best.lb_rmse)
        ):
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
        self._stall = self._stall + 1 if rel_lb < _ADMM_TOL else 0
        if self._stall >= _STALL_ITERATIONS:
            self.stop_reason = "lb_stall"
            return True
        if rec.k - self.best.k >= _PATIENCE:
            self.stop_reason = "patience"
            return True
        return False


def check_sensor_count(scenario: Scenario) -> None:
    """Reject swarms too small to locate the source.

    RSSD has three unknowns (P0, x, y), so fewer than three sensors leave
    the information matrix singular.
    """
    if scenario.n_sensors < 3:
        raise ScenarioError(f"rssd scenarios need at least 3 sensors, got {scenario.n_sensors}")


def uniform_init(n: int, beta_max: float) -> Placement:
    """Evenly spread angles i * beta_max / n, i = 1..n (the baseline strategy)."""
    n = as_count(n, "n", 2)
    bound = spread_bound(beta_max)
    # n * bound / n can round 1 ulp past the bound (past 2*pi it would wrap
    # to a tiny angle, not to 0), so clip before Placement wraps
    return Placement.from_angles(np.minimum(bound * np.arange(1, n + 1) / n, bound))


def singular_value_map(sigma, rho):
    """Positive root of rho*x^2 - sigma*x - 2 = 0, the optimal X singular value.

    Elementwise on arrays of sigma >= 0 and rho > 0.
    """
    # sigma^2 is libm pow, as for a float: the array square sigma * sigma
    # differs from it in the last bit for some sigma; np.float_power keeps pow
    return (sigma + np.sqrt(np.float_power(sigma, 2) + 8.0 * rho)) / (2.0 * rho)


def _per_design(rho, count: int) -> np.ndarray:
    """rho as a (count,) array: one value per design, or one value for all."""
    rho = np.asarray(rho, dtype=float).reshape(-1)
    return rho if len(rho) == count else np.full(count, rho)


def x_update(j_k: np.ndarray, rho) -> np.ndarray:
    """Global minimizer of the X subproblem for the current J = V + rho*S*G.

    X = U diag(lambda) V^T shares its singular vectors with J (the alignment
    that attains the trace upper bound), each singular value remapped by
    singular_value_map. With the 2x2 Gram matrix K = J^T J that is
    X = J (I + (I + 8 rho K^-1)^(1/2)) / (2 rho), evaluated in closed form:
    a 2x2 positive definite A has the square root
    (A + sqrt(det A) I) / sqrt(tr A + 2 sqrt(det A)), each design's 2x2
    multiplier computed on floats from one tolist of the Gram matrices. A
    design whose K is singular or too ill-conditioned for that (det K at
    most _GRAM_RCOND times the product of its diagonal) takes the thin SVD
    instead, on those designs only. J may be a (B, N, 2) stack
    of designs with one rho each, or one for all; a design's path and bits
    depend on its own J and rho only. A rho that is not finite and positive
    is a ValueError.
    """
    j = np.asarray(j_k, dtype=float)
    one = j.ndim == 2
    if one:
        j = j[None]
    rho = _per_design(rho, len(j))
    k = j.swapaxes(-1, -2) @ j
    entries = k.ravel().tolist()
    m, svd = [], []
    for k00, k01, k11, r in zip(entries[0::4], entries[1::4], entries[3::4], rho.tolist()):
        if not 0.0 < r < math.inf:
            raise ValueError(f"x_update needs a finite rho > 0, got {r}")
        diagonal = k00 * k11
        det = diagonal - k01 * k01
        if not det > _GRAM_RCOND * diagonal:
            svd.append(len(m) // 4)
            m += (0.0, 0.0, 0.0, 0.0)  # its rows are overwritten below
            continue
        # A = I + c adj(K) with c = 8 rho / det K; det A = 1 + c tr K + 8 rho c
        # is a sum of positive terms, so it is formed without cancellation
        eight_rho = 8.0 * r
        c = eight_rho / det
        one_ct = 1.0 + c * (k00 + k11)
        root_det = math.sqrt(one_ct + eight_rho * c)
        root_trace = math.sqrt(one_ct + 1.0 + 2.0 * root_det)
        scale = 0.5 / r
        per_trace = scale / root_trace
        diag = scale + (1.0 + root_det) * per_trace
        cross = c * per_trace
        # (I + A^(1/2)) / (2 rho) = diag I + cross adj(K), adj(K) being K with
        # its diagonal swapped and its off-diagonal negated
        off = -cross * k01
        m += (diag + cross * k11, off, off, diag + cross * k00)
    x = j @ np.array(m, dtype=float).reshape(-1, 2, 2)
    if svd:
        u, sigma, vh = thin_svd(j[svd])
        x[svd] = (u * singular_value_map(sigma, rho[svd, None])[..., None, :]) @ vh
    return x[0] if one else x


def _half_width(bound: ConstraintBound):
    """The arc's (-beta_max / 2, beta_max / 2), shaped to broadcast over the rows."""
    half = 0.5 * np.asarray(bound.beta_max, dtype=float)[..., None]
    return -half, half


def _mm_rows(away: np.ndarray, half_width, prev: np.ndarray) -> np.ndarray:
    """Minimize g_i.T q_i over unit vectors on the arc [0, beta_max], for every row i.

    Along the circle g_i.T q_i = -|q_i| cos(t - t_i), t_i the angle of -q_i,
    which is unimodal: the minimizer is t_i where it lies on the arc and the
    nearer arc end elsewhere. So each row measures t_i from the arc centre
    beta_max / 2, wrapped to [-pi, pi) (-q_i opposite the centre ties to the
    lower end), clips it to the half-width beta_max / 2 and adds the centre
    back: that is the row's angle in [0, beta_max], turned into a unit row.
    Rows with q_i = 0 keep prev_i: every feasible point is optimal there.
    away holds the rows -q_i, (N, 2) or (B, N, 2) like prev, and half_width
    is _half_width of the bound (one beta_max per design for a stack).
    """
    low, half = half_width
    x, y = away[..., 0], away[..., 1]
    turn = np.arctan2(y, x) - half
    np.add(turn, TWO_PI, out=turn, where=turn < -math.pi)
    np.minimum(np.maximum(turn, low, out=turn), half, out=turn)
    angle = half + turn
    rows = np.empty_like(away)
    np.cos(angle, out=rows[..., 0])
    np.sin(angle, out=rows[..., 1])
    moved = np.logical_or(x, y)
    return np.where(moved[..., None], rows, prev)


def mm_row_update(q: np.ndarray, bound: ConstraintBound, prev: np.ndarray) -> np.ndarray:
    """Minimize g.T q over unit vectors in the feasible arc (one row of _mm_rows).

    For q = 0 every feasible point is optimal, and the previous row prev is
    kept for determinism.
    """
    away = -np.asarray(q, dtype=float).reshape(1, 2)
    prev = np.asarray(prev, dtype=float).reshape(1, 2)
    return _mm_rows(away, _half_width(bound), prev)[0]


def _design_norms(a: np.ndarray) -> np.ndarray:
    """Frobenius norm of each design's block, the square root of its flat self-dot."""
    flat = a.reshape(len(a), -1)
    return np.sqrt(row_dots(flat, flat))


def _mm_shift(half_bd: np.ndarray, m_tilde: np.ndarray, rho: np.ndarray) -> np.ndarray:
    """The constant of g_update_mm's objective, one per design of a (B, N, N) stack.

    The objective rho/2 ||S G||^2 + <C, S G> is read off each sweep's own
    q = S^T C + rho m_tilde G: every row of G is a unit row or a zero
    (padded) row, so rho/2 ||S G||^2 = rho/2 <G, m_tilde G> + lambda_max(M)
    times the real rows, which is rho/2 (||S||_F^2 - tr m_tilde).
    """
    flat = half_bd.reshape(len(half_bd), -1)
    return 0.5 * rho * (row_dots(flat, flat) - np.trace(m_tilde, axis1=-2, axis2=-1))


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
    *,
    shift=None,
):
    """Solve the constrained G subproblem by majorize-minimize sweeps.

    The quadratic coupling through M = (S D)^T S D is linearized at the
    current iterate using m_tilde = M - lambda_max(M) I (negative
    semidefinite, so the linearization is a global upper bound); the linear
    surrogate splits into independent per-row problems, all solved at once
    by _mm_rows. An MM sweep never raises the objective, so a design stops
    sweeping once its objective changes by less than mm_tol * max(1, |obj|),
    or at max_inner. Returns (G, sweeps performed). shift, the objective's
    constant per design, is _mm_shift of half_bd, m_tilde and rho, and is
    computed here unless the caller holds it.

    Every array may carry a leading design axis (B, ...), with one rho and
    one bound row per design, or one rho for all. Each sweep takes every
    design's stop test on floats, after one tolist of its objective sums.
    _mm_rows reads -q, formed as q times -1.0, or -0.0 once the design
    stops: a zero q keeps its rows. The sweep counts come back as a list of
    B, or an int for a single design.
    """
    one = np.ndim(g_start) == 2
    if one:
        x_next, v, g_start, half_bd, m_tilde = (
            np.asarray(a, dtype=float)[None] for a in (x_next, v, g_start, half_bd, m_tilde)
        )
    count = len(g_start)
    rho = _per_design(rho, count)
    rho_3d = rho[:, None, None]
    c = v - rho_3d * x_next
    base = half_bd.swapaxes(-1, -2) @ c
    if shift is None:
        shift = _mm_shift(half_bd, m_tilde, rho)
    shift = shift.tolist()
    half_width = _half_width(bound)
    g = g_start
    q = base + rho_3d * (m_tilde @ g)
    sums = (g * (q + base)).reshape(count, -1).sum(axis=1).tolist()
    prev_obj = [0.5 * total + constant for total, constant in zip(sums, shift)]
    inner = [max_inner] * count  # a design's count is the sweep it stopped at
    running = range(count)
    negate = np.full((count, 1, 1), -1.0)
    for sweep in range(1, max_inner + 1):
        g = _mm_rows(q * negate, half_width, g)
        q = base + rho_3d * (m_tilde @ g)
        sums = (g * (q + base)).reshape(count, -1).sum(axis=1).tolist()
        still = []
        for b in running:
            obj = 0.5 * sums[b] + shift[b]
            size = abs(obj)
            tol = mm_tol * (size if size > 1.0 else 1.0)  # mm_tol * max(1, |obj|)
            if abs(prev_obj[b] - obj) < tol:
                inner[b] = sweep
                negate[b] = -0.0
            else:
                prev_obj[b] = obj
                still.append(b)
        running = still
        if not running:
            break
    if one:
        return g[0], inner[0]
    return g, inner


def _log_det_inv_gram(x: np.ndarray):
    """-log det(X^T X), +inf where X^T X is not positive definite; per design."""
    sign, logdet = np.linalg.slogdet(x.swapaxes(-1, -2) @ x)
    return np.where(sign > 0, -logdet, math.inf).tolist()


def _certified_scores(scenarios: list, weights: list, angles: list):
    """det T and LB-RMSE of each design's angles, scored as fim_full does.

    One sensor_offsets and one reduced_scores call per sensor count, at each
    design's own source, so every value has the bits of fim_full on the
    design alone.
    """
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
        _, dets, lb, _ = reduced_scores(dx, dy, d_sq, w, [weights[i].lb_scale for i in at])
        for i, det, value in zip(at, dets, lb):
            det_t[i], lbs[i] = det, value
    return det_t, lbs


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
    shift: np.ndarray  # _mm_shift, fixed for the whole run
    beta_max: np.ndarray
    lb_scale: np.ndarray
    g: np.ndarray
    v: np.ndarray
    hg: np.ndarray  # half_bd @ g

    def take(self, keep: np.ndarray) -> "_Batch":
        return _Batch(**{f.name: getattr(self, f.name)[keep] for f in fields(self)})


def _start(scenarios: list, weights: list):
    """Set up a lockstep group: its _Batch and one AdmmTrace per design.

    Every run starts from the uniform placement, G being its directions.
    That placement is record 0 and the first best record, scored once by
    _certified_scores; its LB-RMSE sets the trace's lb_budget. Each design's
    coupling factor, m_tilde and penalty are computed at its own sensor
    count, with one call per kernel for all designs of that count, and
    embedded in zeros up to the group's largest count; m_tilde and the
    penalty share one lambda_max(M). The zero rows and columns keep the
    padded sensors inert (see the module docstring).
    """
    count = len(scenarios)
    sizes = np.array([sc.n_sensors for sc in scenarios])
    n_pad = int(sizes.max())
    uniform = [uniform_init(sc.n_sensors, sc.beta_max) for sc in scenarios]
    det_0, lb_0 = _certified_scores(scenarios, weights, [p.angles for p in uniform])

    half_bd = np.zeros((count, n_pad, n_pad))
    m_tilde = np.zeros((count, n_pad, n_pad))
    rho = np.empty(count)
    g = np.zeros((count, n_pad, 2))
    for n in sorted(set(sizes.tolist())):
        at = np.flatnonzero(sizes == n)
        members = [scenarios[i] for i in at]
        coupling = np.stack([coupling_matrix(weights[i]) for i in at])
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
        g[at, :n] = np.stack([uniform[i].directions for i in at])

    hg = half_bd @ g
    batch = _Batch(
        index=np.arange(count),
        n=sizes,
        half_bd=half_bd,
        m_tilde=m_tilde,
        rho=rho,
        shift=_mm_shift(half_bd, m_tilde, rho),
        beta_max=np.array([sc.beta_max for sc in scenarios]),
        lb_scale=np.array([wt.lb_scale for wt in weights]),
        g=g,
        v=np.zeros_like(g),
        hg=hg,
    )
    traces = []
    for objective, det, lb, start in zip(_log_det_inv_gram(hg), det_0, lb_0, uniform):
        first = TraceRecord(0, objective, det, lb, 0, 0.0, start.angles)
        traces.append(AdmmTrace([first], first, lb + 1e-9))
    return batch, traces


def _lockstep(scenarios: list, max_outer: int) -> list:
    """Run designs as one padded batch; (placement, trace) each.

    The group advances in blocks of up to _SCORE_BLOCK outer steps, never
    past max_outer. Every outer step updates all running designs with one
    call per kernel and no scoring. The block's iterates are then stacked
    step-major to (steps * designs, N, 2) and scored with one fim.t_scores
    call on T = (S D G)^T S D G, from the S*D*G the steps already hold;
    their record angles come from one np.arctan2 over the stacked G,
    wrapped and clipped at each
    design's beta_max. Each design's AdmmTrace takes its records in step
    order. A design that stops keeps the records up to its stop, drops the
    rest of the block and leaves the batch; the others run on. At the end, each
    design's best record is re-scored by _certified_scores, as record 0 was
    at the start, so the numbers reported with the uniform and the returned
    placement are those of fim_full. A best record that scores
    +inf there (no placement reached has a finite bound, as on an arc far
    too narrow for the swarm) raises a ScenarioError naming the arc; a
    degenerate uniform start alone does not, since the run may leave it (a
    swarm whose uniform points c_i e(theta_i) are collinear does).
    """
    weights = [noise_weights(sc) for sc in scenarios]
    batch, traces = _start(scenarios, weights)
    k = 0
    while k < max_outer:
        steps = min(_SCORE_BLOCK, max_outer - k)
        rho_3d = batch.rho[:, None, None]
        bound = ConstraintBound(batch.beta_max)
        xs, gs, hgs, residuals, inner = [], [], [], [], []
        for _ in range(steps):
            x = x_update(batch.v + rho_3d * batch.hg, batch.rho)
            g, sweeps = g_update_mm(
                x, batch.v, batch.g, batch.half_bd, batch.m_tilde, batch.rho, bound,
                shift=batch.shift,
            )
            hg = batch.half_bd @ g
            residual = hg - x
            xs.append(x)
            hgs.append(hg)
            residuals.append(residual)
            gs.append(g)
            inner += sweeps
            batch.g, batch.hg = g, hg
            batch.v = batch.v + rho_3d * residual

        width = len(batch.index)
        path = np.stack(gs)
        hg = np.concatenate(hgs)
        det_t, lbs, _ = t_scores(hg.swapaxes(-1, -2) @ hg, np.tile(batch.lb_scale, steps))
        user = np.minimum(
            wrap_angles(np.arctan2(path[..., 1], path[..., 0])), batch.beta_max[:, None]
        )
        columns = list(zip(
            _log_det_inv_gram(np.concatenate(xs)),
            det_t,
            lbs,
            inner,
            _design_norms(np.concatenate(residuals)).tolist(),
        ))
        running = np.ones(width, dtype=bool)
        for j, (i, n) in enumerate(zip(batch.index.tolist(), batch.n.tolist())):
            for s in range(steps):
                rec = TraceRecord(k + s + 1, *columns[s * width + j], user[s, j, :n])
                if traces[i]._advance(rec):
                    running[j] = False
                    break
        k += steps
        if not running.all():
            if not running.any():
                break
            batch = batch.take(running)
    best = [trace.best for trace in traces]
    certified = _certified_scores(scenarios, weights, [rec.angles for rec in best])
    for sc, rec, det, lb in zip(scenarios, best, *certified):
        if lb == math.inf:
            raise ScenarioError(
                f"beta_max {math.degrees(sc.beta_max):.6g} deg is too narrow for "
                f"{sc.n_sensors} sensors: every placement the solver reached has a "
                "singular information matrix"
            )
        rec.det_t, rec.lb_rmse = det, lb
    return [(Placement.from_angles(trace.best.angles), trace) for trace in traces]


def optimize_many(scenarios, options: AdmmOptions = None) -> list:
    """Run the optimizer on every scenario; one (placement, trace) each, in input order.

    Designs with at most _PAD_LIMIT sensors run as one lockstep batch (see
    _lockstep), padded with inert sensors to the batch's largest sensor
    count; larger swarms run as one batch per exact size. Each design keeps
    its own penalty, bound, trajectory and stop test. Its result is bit for
    bit that of the serial optimize loop run on its zero-padded arrays, and
    so that of optimize on it alone when the batch holds one size; padding
    changes only how the solver's padded sums round. Every scenario's
    sensor count is checked before any work starts.
    """
    scenarios = list(scenarios)
    for scenario in scenarios:
        check_sensor_count(scenario)
    max_outer = (options if options is not None else AdmmOptions()).max_outer
    groups = {}
    for i, scenario in enumerate(scenarios):
        n = scenario.n_sensors
        groups.setdefault(n if n > _PAD_LIMIT else 0, []).append(i)
    results = [None] * len(scenarios)
    for members in groups.values():
        for i, result in zip(members, _lockstep([scenarios[i] for i in members], max_outer)):
            results[i] = result
    return results


def optimize(scenario: Scenario, options: AdmmOptions = None):
    """Run the full optimizer and return (placement, trace).

    The placement is the feasible iterate with the largest reduced-information
    determinant seen during the run, restricted to iterates whose LB-RMSE is
    at most trace.lb_budget, the uniform baseline's plus 1e-9 m (the baseline
    itself is a candidate, so the result never loses to it). The trace
    carries one record per outer iteration, record 0 being the uniform
    initialization, keeps the record of the returned placement as
    trace.best, and says in trace.stop_reason why the run stopped;
    trace.converged, trace.outer_iters and trace.mean_inner are read off
    the records and the stop reason.

    Every iterate is scored at the scenario's own source. The design depends
    only on the distances, noise and arc: moving the source moves the
    sensors with it, and the information matrix sees only their offsets.
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
    return min(max(h_min, r_min), r_max), h_min
