"""Maximum-likelihood source estimation from averaged RSS measurements.

The negative log-likelihood (up to constants) is the weighted squared
residual sum over sensors

    Q(P0, x, y) = sum_i (P_i - P0 + 10*gamma*log10(d_i(x, y)))^2 / var_i.

P0 enters linearly, so it is profiled out in closed form (the weighted mean
of P_i + 10*gamma*log10(d_i)); the horizontal position is found by damped
Gauss-Newton on the profiled residual, optionally restarted from a small grid
of offsets around the initial guess to escape distant local minima.

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

A start forms its Gauss-Newton normal equations (J^T J and J^T r) only when
its iterate has moved: at its first iteration and after an accepted step. A
rejected step changes only the damping, so the next iteration reuses the
stored J^T J and J^T r, which are the same bits a recomputation would give.

Profiling P0 also makes the position estimate exactly insensitive to a
constant shift of all measurements, matching the difference-based nature of
the measurement model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SourceParams

_DAMPING_START = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 0.1
_DAMPING_MIN = 1e-15
# the float64 resolution of the profiled cost, relative: a trial whose cost
# exceeds the current one by no more is a tie at rounding level, not a rise
_COST_RESOLUTION = 16 * np.finfo(float).eps
_STEP_TOL = 1e-8
_MAX_ITERS = 200
_BLOCK_ROWS = 1024


@dataclass
class MleResult:
    """Estimated (P0, x, y), final weighted residual norm, and solver status.

    converged means that a start reached a stationary point of the profiled
    cost, not that the estimate is near the source: a start that begins far
    from the swarm can stop converged on a far-field stationary point.
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


def _profiled_residual(d_sq, measurements, inv_std, gamma):
    """Weighted residuals with the optimal P0 substituted, per row.

    d_sq and measurements are (S, N); returns the (S, N) residuals and the
    (S,) profiled P0.
    """
    log_term = 5.0 * gamma * np.log10(d_sq)  # 10*gamma*log10(d)
    shifted = measurements + log_term
    wsum = np.sum(inv_std**2)
    p0 = np.sum(inv_std**2 * shifted, axis=1) / wsum
    res = inv_std * (shifted - p0[:, None])
    return res, p0


def _jacobian(xy, px, py, inv_std, gamma, d_sq):
    """(S, N) x and y components of the Jacobians of the profiled residuals."""
    slope = 10.0 * gamma / math.log(10.0)
    w2 = inv_std**2
    wsum = np.sum(w2)
    components = []
    for coord, sensor in ((xy[:, :1], px), (xy[:, 1:], py)):
        # d(10*gamma*log10 d_i)/dx = slope * (x - x_i) / d_i^2
        raw = slope * (coord - sensor) / d_sq
        mean = np.sum(w2 * raw, axis=1) / wsum
        components.append(inv_std * (raw - mean[:, None]))
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


def _solve_lockstep(starts, meas, px, py, h_sq, inv_std, gamma):
    """Damped Gauss-Newton from every start at once.

    Row s of the (S, N) measurements, sensor x, y and squared heights is the
    problem of start s. Each start keeps its own damping and its own
    accept/reject, convergence and stop rules, as if run alone. Each
    iteration scores every row's trial, with floating-point warnings
    silenced, and rejects by mask: a trial is ok where the solve succeeded,
    it is finite and no sensor is at zero distance from it, and accepted
    where it is ok and does not raise the cost beyond its rounding
    (a finite trial whose squared distances overflow costs NaN, so it is
    rejected). The rounding allowance is _COST_RESOLUTION relative: near a
    minimum the cost of the next iterate differs from the current one only
    by rounding, and counting such a tie as a rise would raise the damping
    until the step vanished short of the fixed point; accepted, a tie lowers
    the damping and lets the Gauss-Newton step finish. A rejection raises
    the damping. A singular normal matrix stops a start, an accepted step
    shorter than _STEP_TOL stops it, and a rejected ok trial that lifts its
    damping above 1e15 stops it. A short step counts as converged only where
    tr(J^T J) is at least the damping floor _DAMPING_MIN: below it the
    damping swamps J^T J at every value it can take, so the step is short
    however far the start is from a minimum (a start lost far out on a flat
    cost). J^T J and J^T r are kept per start as five (S,) arrays and
    recomputed, through _jacobian, only for starts whose iterate moved (the
    first iteration, and after an accepted step); after a rejected step they
    are reused as they are.

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
    res, _ = _profiled_residual(d_sq, meas, inv_std, gamma)
    cost = np.sum(res * res, axis=1)
    damping = np.full(n_starts, _DAMPING_START)
    # J^T J = [[h00, h01], [h01, h11]] and J^T r = (g0, g1) of each start's
    # current iterate; moved marks the starts whose iterate changed since
    # they were formed (all of them at first)
    h00, h01, h11, g0, g1 = np.empty((5, n_starts))
    moved = np.ones(n_starts, dtype=bool)
    for it in range(1, _MAX_ITERS + 1):
        if moved.any():
            new = np.flatnonzero(moved)
            jx, jy = _jacobian(xy[new], px[new], py[new], inv_std, gamma, d_sq[new])
            r = res[new]
            h00[new] = np.sum(jx * jx, axis=1)
            h01[new] = np.sum(jx * jy, axis=1)
            h11[new] = np.sum(jy * jy, axis=1)
            g0[new] = np.sum(jx * r, axis=1)
            g1[new] = np.sum(jy * r, axis=1)
        step, solved = _solve_2x2(h00 + damping, h01, h11 + damping, -g0, -g1)
        trial = xy + step
        # a bad trial's NaN or overflow is thrown away by the masks below
        with np.errstate(all="ignore"):
            t_sq = _dist_sq(trial, px, py, h_sq)
            res_t, _ = _profiled_residual(t_sq, meas, inv_std, gamma)
            cost_t = np.sum(res_t * res_t, axis=1)
            step_norm = np.sqrt(np.sum(step * step, axis=1))
        ok = solved & np.all(np.isfinite(trial), axis=1) & ~np.any(t_sq <= 0, axis=1)
        accept = ok & (cost_t <= cost * (1.0 + _COST_RESOLUTION))
        xy = np.where(accept[:, None], trial, xy)
        res = np.where(accept[:, None], res_t, res)
        d_sq = np.where(accept[:, None], t_sq, d_sq)
        cost = np.where(accept, cost_t, cost)
        damping = np.where(
            accept, np.maximum(damping * _DAMPING_DOWN, _DAMPING_MIN), damping * _DAMPING_UP
        )
        short = accept & (step_norm < _STEP_TOL)
        stop = ~solved | short | (ok & ~accept & (damping > 1e15))
        moved = accept
        if stop.any():
            done = rows[stop]
            out_xy[done], out_cost[done], iterations[done] = xy[stop], cost[stop], it
            flat = h00 + h11 < _DAMPING_MIN
            converged[rows[short & ~flat]] = True
            keep = np.flatnonzero(~stop)
            state = (rows, xy, res, cost, d_sq, damping, moved, h00, h01, h11, g0, g1)
            rows, xy, res, cost, d_sq, damping, moved, h00, h01, h11, g0, g1 = (
                a.take(keep, axis=0) for a in state
            )
            meas, px, py, h_sq = (a.take(keep, axis=0) for a in (meas, px, py, h_sq))
            if not keep.size:
                break
    out_xy[rows], out_cost[rows] = xy, cost
    return out_xy, out_cost, converged, iterations


def _restart_offsets(multistart_spread: float) -> np.ndarray:
    """(K, 2) offsets of the restart grid around the init, init excluded."""
    offsets = []
    if multistart_spread > 0:
        grid = np.linspace(-multistart_spread, multistart_spread, 5)
        for ox in grid:
            for oy in grid:
                if ox == 0.0 and oy == 0.0:
                    continue
                offsets.append([ox, oy])
    return np.array(offsets, dtype=float).reshape(-1, 2)


def mle_estimate_many(
    measurements: np.ndarray,
    sensor_positions: np.ndarray,
    sigma_eff: np.ndarray,
    gamma: float,
    inits,
    multistart_spread: float = 0.0,
) -> list:
    """Weighted nonlinear least-squares source estimates of T problems at once.

    Args:
        measurements: (T, N) averaged RSS values (dB), one row per problem.
        sensor_positions: (T, N, 3) sensor positions (m) of each problem.
        sigma_eff: length-N noise std of the averaged measurements (dB),
            shared by every problem.
        gamma: path-loss exponent.
        inits: T initial guesses (SourceParams; each position seeds its
            problem's iteration, each p0 is ignored since the power is
            profiled out).
        multistart_spread: half-width (m) of a 5x5 restart grid of horizontal
            offsets around each init; 0 runs a single start per problem.

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
    spread = float(multistart_spread)
    if not (math.isfinite(spread) and spread >= 0):
        raise ValueError(f"multistart_spread must be finite and >= 0, got {multistart_spread!r}")
    inv_std = 1.0 / sigma_eff
    init_xy = np.array([init.position for init in inits], dtype=float).reshape(-1, 2)
    offsets = _restart_offsets(spread)
    k = 1 + len(offsets)
    per_block = max(1, _BLOCK_ROWS // k)

    results = []
    for t0 in range(0, n_problems, per_block):
        block = slice(t0, t0 + per_block)
        meas, px, py = measurements[block], pos[block, :, 0], pos[block, :, 1]
        h_sq = pos[block, :, 2] ** 2
        n_block = len(meas)
        # rows are trial-major: the init of each trial, then its restart grid;
        # each row carries its own copy of its trial's inputs
        starts = np.empty((n_block, k, 2))
        starts[:, 0] = init_xy[block]
        starts[:, 1:] = init_xy[block, None, :] + offsets
        xy, cost, conv, iters = _solve_lockstep(
            starts.reshape(-1, 2),
            *(np.repeat(a, k, axis=0) for a in (meas, px, py, h_sq)),
            inv_std,
            gamma,
        )
        # per trial, the first start with the lowest cost; a later one must
        # beat it strictly, so a NaN cost never takes over
        cost = cost.reshape(n_block, k)
        trial = np.arange(n_block)
        best = np.zeros(n_block, dtype=int)
        for s in range(1, k):
            best[cost[:, s] < cost[trial, best]] = s
        rows = trial * k + best
        # recomputed, an iterate's squared distances are the bits the loop held
        _, p0 = _profiled_residual(_dist_sq(xy[rows], px, py, h_sq), meas, inv_std, gamma)
        conv = conv.reshape(n_block, k)
        iters = iters.reshape(n_block, k)
        for j in range(n_block):
            theta = np.array([p0[j], xy[rows[j], 0], xy[rows[j], 1]])
            results.append(
                MleResult(
                    theta_hat=theta,
                    residual_norm=math.sqrt(cost[j, best[j]]),
                    converged=bool(np.any(conv[j])) and bool(np.all(np.isfinite(theta))),
                    iterations=int(np.sum(iters[j])),
                )
            )
    return results


def mle_estimate(
    measurements: np.ndarray,
    sensor_positions: np.ndarray,
    sigma_eff: np.ndarray,
    gamma: float,
    init: SourceParams,
    multistart_spread: float = 0.0,
) -> MleResult:
    """Weighted nonlinear least-squares source estimate.

    Args:
        measurements: length-N averaged RSS values (dB).
        sensor_positions: (N, 3) sensor positions (m).
        sigma_eff: length-N noise std of the averaged measurements (dB).
        gamma: path-loss exponent.
        init: initial guess (its position seeds the iteration; its p0 is
            ignored since the power is profiled out).
        multistart_spread: half-width (m) of a 5x5 restart grid of horizontal
            offsets around the init; 0 runs a single start.

    Returns:
        MleResult with theta_hat = (P0_hat, x_hat, y_hat). The residual at
        the estimate never exceeds the residual at the init beyond rounding:
        an accepted step may raise the squared residual by at most the
        relative allowance _COST_RESOLUTION (16 float64 epsilons).
    """
    return mle_estimate_many(
        np.asarray(measurements, dtype=float)[None],
        np.asarray(sensor_positions, dtype=float)[None],
        sigma_eff,
        gamma,
        [init],
        multistart_spread,
    )[0]
