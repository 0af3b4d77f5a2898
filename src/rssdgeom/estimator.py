"""Maximum-likelihood source estimation from averaged RSS measurements.

The negative log-likelihood (up to constants) is the weighted squared
residual sum over sensors

    Q(P0, x, y) = sum_i (P_i - P0 + 10*gamma*log10(d_i(x, y)))^2 / var_i.

P0 enters linearly, so it is profiled out in closed form (the weighted mean
of P_i + 10*gamma*log10(d_i)); the horizontal position is found by damped
Gauss-Newton on the profiled residual.

Given a prior std, each problem runs three starts, the initial guess (the
prior) and the two closed-form roots of the model's linearisation
(_model_roots), and keeps the result with the most posterior mass
(_laplace_scores). Without a prior std the initial guess is the one start.

mle_estimate_many refines many problems (trials) that share the noise levels
and path-loss exponent. Every start of every trial is one row of a
(starts, N) array program, and all rows advance in lockstep. Rows run in
blocks of whole trials of at most _BLOCK_ROWS rows, which bounds the working
memory whatever the number of trials. At the start of a block each row gets
its own copy of its trial's measurements and sensor positions; the loop then
holds its state only for the starts still running, and drops the starts that
stop from every array at once. An unusable trial step (singular, non-finite,
at a sensor, or overflowing to a NaN cost) is rejected by a mask. Each start
keeps its own damping and stopping rules. Every operation of the loop is
elementwise or a sum along one row of a C-contiguous (starts, N) array, the
Jacobian is held as its x and y components, and the damped 2x2 normal
equations are solved in closed form on (starts,) arrays, so no value of a
row depends on the other rows: each result is bit-identical to running the
starts of each trial one after another. mle_estimate is the one-trial call.
Every iteration forms each start's Gauss-Newton normal equations (J^T J and
J^T r) afresh, also after a rejected step, which leaves the iterate and so
those bits as they were.

Profiling P0 also makes the position estimate exactly insensitive to a
constant shift of all measurements, matching the difference-based nature of
the measurement model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .model import ScenarioError, SourceParams, as_real, loss_slope

_DAMPING_START = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 0.1
_DAMPING_MIN = 1e-15
# the float64 resolution of one residual term, relative to the size of the
# terms it is summed from; see _solve_lockstep for the cost's tie allowance
_COST_RESOLUTION = np.finfo(float).eps
_STEP_TOL = 1e-8
_MAX_ITERS = 200
_BLOCK_ROWS = 1024


@dataclass
class MleResult:
    """Estimated (P0, x, y), final weighted residual norm, and solver status.

    converged means that the start whose estimate is returned reached a
    stationary point of the profiled cost, not that the estimate is near the
    source: a start that begins far from the swarm can stop converged on a
    far-field stationary point. iterations counts the iterations of every
    start.
    """

    theta_hat: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int


def _dist_sq(xy, px, py, h_sq):
    """(S, N) squared sensor distances from the (S, 2) points xy.

    px, py and h_sq are the (S, N) sensor x, y and squared heights of each
    row's problem.
    """
    return (xy[:, :1] - px) ** 2 + (xy[:, 1:] - py) ** 2 + h_sq


class _CostModel(NamedTuple):
    """The constants of the profiled cost shared by every row, made once per call.

    inv_std is the (N,) 1 / sigma_eff, w2 = inv_std**2 the weights of P0's
    weighted mean, wsum their sum, and slope = 10*gamma / ln(10) the scale
    of the path-loss term's derivative.
    """

    inv_std: np.ndarray
    w2: np.ndarray
    wsum: float
    gamma: float
    slope: float


def _cost_model(inv_std, gamma) -> _CostModel:
    w2 = inv_std**2
    return _CostModel(inv_std, w2, np.add.reduce(w2), gamma, loss_slope(gamma))


def _profiled_residual(d_sq, measurements, model):
    """Weighted residuals with the optimal P0 substituted, per row.

    d_sq and measurements are (S, N); returns the (S, N) residuals, the
    (S,) profiled P0 and the (S, N) path-loss terms 10*gamma*log10(d_i).
    """
    log_term = 5.0 * model.gamma * np.log10(d_sq)  # 10*gamma*log10(d)
    shifted = measurements + log_term
    p0 = np.add.reduce(model.w2 * shifted, axis=1) / model.wsum
    res = model.inv_std * (shifted - p0[:, None])
    return res, p0, log_term


def _jacobian(xy, px, py, model, d_sq):
    """(S, N) x and y components of the Jacobians of the profiled residuals."""
    components = []
    for coord, sensor in ((xy[:, :1], px), (xy[:, 1:], py)):
        # d(10*gamma*log10 d_i)/dx = slope * (x - x_i) / d_i^2
        raw = model.slope * (coord - sensor) / d_sq
        mean = np.add.reduce(model.w2 * raw, axis=1) / model.wsum
        components.append(model.inv_std * (raw - mean[:, None]))
    return components


def _solve_2x2(a00, a01, a11, b0, b1):
    """Solve every symmetric 2x2 system [[a00, a01], [a01, a11]] x = (b0, b1).

    All arguments are (S,) arrays. LU with partial pivoting, as LAPACK's
    getrf: the rows swap where |a01| > |a00|. A row is unsolved exactly
    where a pivot is 0, where np.linalg.solve raises LinAlgError; its x is
    then meaningless. A NaN entry gives a NaN x, not an unsolved row.
    Returns the (S, 2) x and the (S,) solved mask.
    """
    swap = np.abs(a01) > np.abs(a00)
    # the pivot row (p0, p1 | c0) and the row it eliminates (q0, q1 | c1)
    p0, p1, c0 = np.where(swap, a01, a00), np.where(swap, a11, a01), np.where(swap, b1, b0)
    q0, q1, c1 = np.where(swap, a00, a01), np.where(swap, a01, a11), np.where(swap, b0, b1)
    with np.errstate(all="ignore"):
        lower = q0 / p0
        u11 = q1 - lower * p1
        x1 = (c1 - lower * c0) / u11
        x0 = (c0 - p1 * x1) / p0
    return np.stack([x0, x1], axis=1), (p0 != 0) & (u11 != 0)


def _solve_lockstep(starts, meas, px, py, h_sq, model):
    """Damped Gauss-Newton from every start at once.

    Row s of the (S, N) measurements, sensor x, y and squared heights is the
    problem of start s; model holds the constants of the cost (_cost_model).
    Each start keeps its own damping and its own accept/reject, convergence
    and stop rules, as if run alone. Each iteration scores every row's
    trial, with floating-point warnings silenced, and rejects by mask: a trial is ok where the solve succeeded,
    it is finite and no sensor is at zero distance from it, and accepted
    where it is ok and does not raise the cost beyond its rounding
    (a finite trial whose squared distances overflow costs NaN, so it is
    rejected). The rounding allowance is the rounding the residuals carry,
    which scales with the terms they are summed from, not with the cost:
    _COST_RESOLUTION * sum_i |r_i|*inv_std_i*(|P_i| + |10*gamma*log10 d_i|).
    Near a minimum the cost of the next iterate differs from the current
    one only by rounding, and counting such a tie as a rise would raise the
    damping until the step vanished short of the fixed point; accepted, a
    tie lowers the damping and lets the Gauss-Newton step finish. A
    rejection raises the damping. A singular normal matrix stops a start,
    an accepted step shorter than _STEP_TOL stops it, and a rejected ok
    trial that lifts its damping above 1e15 stops it. A short step counts
    as converged only where tr(J^T J) is at least the damping floor
    _DAMPING_MIN: below it the damping swamps J^T J at every value it can
    take, so the step is short however far the start is from a minimum (a
    start lost far out on a flat cost). J^T J and J^T r are formed, through
    _jacobian, at every iteration of every running start. The row sums and
    row tests call the ufunc reductions (np.add.reduce and the logical ones)
    directly: they give np.sum's, np.all's and np.any's bits without their
    Python wrappers.

    The loop state covers only the starts still running. On an iteration
    where starts stop, their results are written out and every state array
    shrinks by one row index. Returns the per-start (xy, cost, converged,
    iterations).
    """
    xy = np.array(starts, dtype=float)
    n_starts = len(xy)
    out_xy = np.empty_like(xy)
    out_cost = np.empty(n_starts)
    converged = np.zeros(n_starts, dtype=bool)
    iterations = np.full(n_starts, _MAX_ITERS)
    rows = np.arange(n_starts)  # the start that each state row belongs to
    d_sq = _dist_sq(xy, px, py, h_sq)
    res, _, _ = _profiled_residual(d_sq, meas, model)
    row_sum, row_all, row_any = np.add.reduce, np.logical_and.reduce, np.logical_or.reduce
    cost = row_sum(res * res, axis=1)
    damping = np.full(n_starts, _DAMPING_START)
    for it in range(1, _MAX_ITERS + 1):
        # J^T J = [[h00, h01], [h01, h11]] and J^T r = (g0, g1) of each start
        jx, jy = _jacobian(xy, px, py, model, d_sq)
        h00, h01, h11 = (row_sum(a * b, axis=1) for a, b in ((jx, jx), (jx, jy), (jy, jy)))
        g0, g1 = row_sum(jx * res, axis=1), row_sum(jy * res, axis=1)
        step, solved = _solve_2x2(h00 + damping, h01, h11 + damping, -g0, -g1)
        trial = xy + step
        # a bad trial's NaN or overflow is thrown away by the masks below
        with np.errstate(all="ignore"):
            t_sq = _dist_sq(trial, px, py, h_sq)
            res_t, _, log_t = _profiled_residual(t_sq, meas, model)
            cost_t = row_sum(res_t * res_t, axis=1)
            # the rounding of cost_t: each residual carries its terms' rounding
            tie = _COST_RESOLUTION * row_sum(
                np.abs(res_t) * model.inv_std * (np.abs(meas) + np.abs(log_t)), axis=1
            )
            step_norm = np.sqrt(row_sum(step * step, axis=1))
        ok = solved & row_all(np.isfinite(trial), axis=1) & ~row_any(t_sq <= 0, axis=1)
        accept = ok & (cost_t <= cost + tie)
        xy = np.where(accept[:, None], trial, xy)
        res = np.where(accept[:, None], res_t, res)
        d_sq = np.where(accept[:, None], t_sq, d_sq)
        cost = np.where(accept, cost_t, cost)
        damping = np.where(
            accept, np.maximum(damping * _DAMPING_DOWN, _DAMPING_MIN), damping * _DAMPING_UP
        )
        short = accept & (step_norm < _STEP_TOL)
        stop = ~solved | short | (ok & ~accept & (damping > 1e15))
        if row_any(stop):
            done = rows[stop]
            out_xy[done], out_cost[done], iterations[done] = xy[stop], cost[stop], it
            flat = h00 + h11 < _DAMPING_MIN
            converged[rows[short & ~flat]] = True
            keep = np.flatnonzero(~stop)
            state = (rows, xy, res, cost, d_sq, damping)
            rows, xy, res, cost, d_sq, damping = (a.take(keep, axis=0) for a in state)
            meas, px, py, h_sq = (a.take(keep, axis=0) for a in (meas, px, py, h_sq))
            if not keep.size:
                break
    out_xy[rows], out_cost[rows] = xy, cost
    return out_xy, out_cost, converged, iterations


def _model_roots(meas, px, py, h_sq, prior, gamma):
    """(T, 2, 2) the two closed-form source candidates of each of T problems.

    The model gives d_i^2 = lambda * kappa_i, with
    kappa_i = 10^(-(P_i - mean P) / (5 gamma)) and lambda set by P0. With s_i
    the horizontal sensor offsets from the prior and p the source offset,
    d_i^2 = |p|^2 - 2 s_i^T p + |s_i|^2 + h_i^2, so each row
    [1, -2 s_i^T, -kappa_i, |s_i|^2 + h_i^2] annihilates (|p|^2, p, lambda, 1):
    the model is linear in A = |p|^2, p and lambda. Each problem's columns
    are scaled by their largest magnitude over the sensors, and the right
    singular vectors of the two smallest singular values span the solutions;
    full_matrices makes them the null space when N < 5. On that span, the
    last component set to 1 leaves a line (A, p)(t), and A = |p|^2 is a
    quadratic in t, solved in its stable form. On noiseless data the source
    is a root, and on a swarm at one radius and height about the prior the
    other root is its circle-inversion mirror (So & Lin 2011, IEEE TSP
    59(8); Beck, Stoica & Li 2008, IEEE TSP 56(5)). A negative discriminant
    gives the vertex as both roots; a root that is not finite, or a problem
    whose rows are not, gives the prior. meas, px, py and h_sq are (T, N),
    prior is (T, 2); one stacked SVD serves all T problems.
    """
    with np.errstate(all="ignore"):
        sx, sy = px - prior[:, :1], py - prior[:, 1:]
        kappa = 10.0 ** ((np.mean(meas, axis=1, keepdims=True) - meas) / (5.0 * gamma))
        rows = np.stack(
            [np.ones_like(sx), -2.0 * sx, -2.0 * sy, -kappa, sx * sx + sy * sy + h_sq], axis=2
        )
        scale = np.max(np.abs(rows), axis=1)
        scale[~(scale > 0)] = 1.0
        rows /= scale[:, None, :]
    finite = np.all(np.isfinite(rows), axis=(1, 2))
    rows[~finite] = 0.0  # LAPACK may not return on a non-finite matrix
    v1, v2 = np.moveaxis(np.linalg.svd(rows, full_matrices=True)[2][:, -2:], 1, 0)
    with np.errstate(all="ignore"):
        e1, e2 = v1[:, 4:], v2[:, 4:]
        # the combination whose unscaled last component is 1, and a direction
        # along which that component stays exactly 0
        base = scale[:, 4:] * (e1 * v1 + e2 * v2) / (e1 * e1 + e2 * e2) / scale
        ray = (e2 * v1 - e1 * v2) / scale
        qa = ray[:, 1] ** 2 + ray[:, 2] ** 2
        qb = 2.0 * (base[:, 1] * ray[:, 1] + base[:, 2] * ray[:, 2]) - ray[:, 0]
        qc = base[:, 1] ** 2 + base[:, 2] ** 2 - base[:, 0]
        disc = qb * qb - 4.0 * qa * qc
        q = -0.5 * (qb + np.copysign(np.sqrt(np.maximum(disc, 0.0)), qb))
        vertex = -qb / (2.0 * qa)
        t = np.stack([np.where(disc < 0, vertex, q / qa), np.where(disc < 0, vertex, qc / q)], 1)
        roots = prior[:, None, :] + base[:, None, 1:3] + t[:, :, None] * ray[:, None, 1:3]
    ok = finite[:, None, None] & np.isfinite(roots)
    return np.where(np.all(ok, axis=2, keepdims=True), roots, prior[:, None, :])


def _laplace_scores(xy, cost, prior, px, py, h_sq, model, prior_std):
    """(S,) -2 log posterior mass of each refined start, up to a constant.

    The Laplace approximation under a Gaussian prior of std prior_std about
    the (S, 2) prior: cost + |p - prior|^2 / prior_std^2
    + log det(J^T J + I / prior_std^2), with J^T J the profiled Gauss-Newton
    normal matrix at p. A source and its mirror fit the data alike, so only
    the prior density and the basin volume tell them apart. A score that is
    not finite is returned as inf.
    """
    with np.errstate(all="ignore"):
        d_sq = _dist_sq(xy, px, py, h_sq)
        jx, jy = _jacobian(xy, px, py, model, d_sq)
        inv_var = np.float64(prior_std) ** -2
        h00 = np.sum(jx * jx, axis=1) + inv_var
        h11 = np.sum(jy * jy, axis=1) + inv_var
        h01 = np.sum(jx * jy, axis=1)
        score = cost + np.sum((xy - prior) ** 2, axis=1) * inv_var + np.log(h00 * h11 - h01 * h01)
    return np.where(np.isfinite(score), score, np.inf)


def mle_estimate_many(
    measurements: np.ndarray,
    sensor_positions: np.ndarray,
    sigma_eff: np.ndarray,
    gamma: float,
    inits,
    prior_std: float = 0.0,
) -> list:
    """Weighted nonlinear least-squares source estimates of T problems at once.

    Args:
        measurements: (T, N) averaged RSS values (dB), one row per problem.
        sensor_positions: (T, N, 3) sensor positions (m) of each problem.
        sigma_eff: length-N noise std of the averaged measurements (dB),
            shared by every problem.
        gamma: path-loss exponent, finite and > 0, else a ScenarioError.
        inits: T initial guesses (SourceParams; each position seeds its
            problem's iteration, each p0 is ignored since the power is
            profiled out).
        prior_std: std (m) of the error of each init as a prior on its
            problem's position. 0 runs a single start per problem, from the
            init. Above 0, each problem runs three starts, its init and the
            two closed-form candidates of _model_roots, and keeps the result
            with the lowest _laplace_scores score, the earliest start on a
            tie; a score that is not finite never wins.

    Returns:
        T MleResults in input order, each equal bit for bit to
        mle_estimate on that problem alone.
    """
    measurements = np.asarray(measurements, dtype=float)
    pos = np.asarray(sensor_positions, dtype=float)
    sigma_eff = np.asarray(sigma_eff, dtype=float)
    inits = list(inits)
    if measurements.ndim != 2:
        raise ValueError("inconsistent input dimensions")
    n_problems, n = measurements.shape
    if pos.shape != (n_problems, n, 3) or sigma_eff.shape != (n,) or len(inits) != n_problems:
        raise ValueError("inconsistent input dimensions")
    if n < 3:
        raise ValueError(f"need at least 3 sensors to fix 3 unknowns, got {n}")
    if not np.all(np.isfinite(sigma_eff) & (sigma_eff > 0)):
        raise ValueError("sigma_eff must be finite and positive")
    if not np.all(np.isfinite(measurements)):
        raise ValueError("measurements must be finite")
    if not np.all(np.isfinite(pos)):
        raise ValueError("sensor_positions must be finite")
    prior_std = as_real(prior_std, "prior_std", 0.0)
    gamma = as_real(gamma, "gamma")
    if gamma <= 0:
        raise ScenarioError("gamma: must be positive and finite")
    model = _cost_model(1.0 / sigma_eff, gamma)
    init_xy = np.array([init.position for init in inits], dtype=float).reshape(-1, 2)
    k = 3 if prior_std > 0 else 1
    per_block = _BLOCK_ROWS // k

    results = []
    for t0 in range(0, n_problems, per_block):
        block = slice(t0, t0 + per_block)
        meas, px, py = measurements[block], pos[block, :, 0], pos[block, :, 1]
        h_sq = pos[block, :, 2] ** 2
        prior = init_xy[block]
        n_block = len(meas)
        # rows are trial-major: the init of each trial, then its two roots;
        # each row carries its own copy of its trial's inputs
        starts = prior[:, None, :]
        if k > 1:
            starts = np.concatenate([starts, _model_roots(meas, px, py, h_sq, prior, gamma)], 1)
        meas, px, py, h_sq, prior = (np.repeat(a, k, axis=0) for a in (meas, px, py, h_sq, prior))
        xy, cost, conv, iters = _solve_lockstep(
            starts.reshape(-1, 2), meas, px, py, h_sq, model
        )
        best = np.zeros(n_block, dtype=int)
        if k > 1:
            scores = _laplace_scores(xy, cost, prior, px, py, h_sq, model, prior_std)
            best = np.argmin(scores.reshape(n_block, k), axis=1)
        rows = np.arange(n_block) * k + best
        # recomputed, an iterate's squared distances are the bits the loop held
        d_sq = _dist_sq(xy[rows], px[rows], py[rows], h_sq[rows])
        _, p0, _ = _profiled_residual(d_sq, meas[rows], model)
        theta = np.column_stack([p0, xy[rows]])
        converged = conv[rows] & np.logical_and.reduce(np.isfinite(theta), axis=1)
        n_iters = np.add.reduce(iters.reshape(n_block, k), axis=1)
        for j in range(n_block):
            results.append(
                MleResult(
                    theta_hat=theta[j],
                    residual_norm=math.sqrt(cost[rows[j]]),
                    converged=bool(converged[j]),
                    iterations=int(n_iters[j]),
                )
            )
    return results


def mle_estimate(
    measurements: np.ndarray,
    sensor_positions: np.ndarray,
    sigma_eff: np.ndarray,
    gamma: float,
    init: SourceParams,
    prior_std: float = 0.0,
) -> MleResult:
    """Weighted nonlinear least-squares source estimate.

    Args:
        measurements: length-N averaged RSS values (dB).
        sensor_positions: (N, 3) sensor positions (m).
        sigma_eff: length-N noise std of the averaged measurements (dB).
        gamma: path-loss exponent, checked as in mle_estimate_many.
        init: initial guess (its position seeds the iteration; its p0 is
            ignored since the power is profiled out).
        prior_std: std (m) of the init's error as a prior on the position;
            0 runs a single start from the init, above 0 three starts, as in
            mle_estimate_many.

    Returns:
        MleResult with theta_hat = (P0_hat, x_hat, y_hat). The residual at
        the estimate never exceeds the residual at its start beyond
        rounding: an accepted step may raise the squared residual by at most
        its rounding allowance (see _solve_lockstep).
    """
    return mle_estimate_many(
        np.asarray(measurements, dtype=float)[None],
        np.asarray(sensor_positions, dtype=float)[None],
        sigma_eff,
        gamma,
        [init],
        prior_std,
    )[0]
