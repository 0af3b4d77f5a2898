"""Maximum-likelihood source estimation from averaged RSS measurements.

The negative log-likelihood (up to constants) is the weighted squared
residual sum over sensors

    Q(P0, x, y) = sum_i (P_i - P0 + 10*gamma*log10(d_i(x, y)))^2 / var_i.

P0 enters linearly, so it is profiled out in closed form (the weighted mean
of P_i + 10*gamma*log10(d_i)); the horizontal position is found by damped
Gauss-Newton on the profiled residual, optionally restarted from a small grid
of offsets around the initial guess to escape distant local minima.

All starts advance in lockstep as one (starts, N) array program. Each start
keeps its own damping and stopping rules, and every batched product and 2x2
solve goes through the same BLAS/LAPACK call as for a single start, so the
result is bit-identical to running the starts one after another.

Profiling P0 also makes the position estimate exactly insensitive to a
constant shift of all measurements, matching the difference-based nature of
the measurement model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .model import SourceParams
from .numerics import row_dots

_DAMPING_START = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 0.1
_STEP_TOL = 1e-8
_MAX_ITERS = 200


@dataclass
class MleResult:
    """Estimated (P0, x, y), final weighted residual norm, and solver status."""

    theta_hat: np.ndarray
    residual_norm: float
    converged: bool
    iterations: int


def _profiled_residual(xy, measurements, pos, inv_std, gamma):
    """Weighted residuals with the optimal P0 substituted, per start.

    xy is (S, 2); returns the (S, N) residuals, the (S,) profiled P0 and the
    (S, N) squared sensor distances.
    """
    d_sq = (xy[:, :1] - pos[:, 0]) ** 2 + (xy[:, 1:] - pos[:, 1]) ** 2 + pos[:, 2] ** 2
    log_term = 5.0 * gamma * np.log10(d_sq)  # 10*gamma*log10(d)
    shifted = measurements + log_term
    wsum = np.sum(inv_std**2)
    p0 = np.sum(inv_std**2 * shifted, axis=1) / wsum
    res = inv_std * (shifted - p0[:, None])
    return res, p0, d_sq


def _jacobian(xy, pos, inv_std, gamma, d_sq):
    """(S, N, 2) Jacobians of the profiled residuals w.r.t. (x, y)."""
    slope = 10.0 * gamma / math.log(10.0)
    # d(10*gamma*log10 d_i)/dx = slope * (x - x_i) / d_i^2
    raw = np.stack(
        [
            slope * (xy[:, :1] - pos[:, 0]) / d_sq,
            slope * (xy[:, 1:] - pos[:, 1]) / d_sq,
        ],
        axis=-1,
    )
    w2 = inv_std**2
    wsum = np.sum(w2)
    mean_row = (w2 @ raw) / wsum
    return inv_std[:, None] * (raw - mean_row[:, None, :])


def _solve_each(a, b):
    """Solve every 2x2 system a_i x = b_i; a singular one fails only its own row.

    Returns (x, solved). The batched call is the same LAPACK routine as a
    single solve, so each row is bit-identical to solving it alone.
    """
    try:
        return np.linalg.solve(a, b[:, :, None])[:, :, 0], np.ones(len(a), dtype=bool)
    except np.linalg.LinAlgError:
        x = np.zeros_like(b)
        solved = np.ones(len(a), dtype=bool)
        for i in range(len(a)):
            try:
                x[i] = np.linalg.solve(a[i], b[i])
            except np.linalg.LinAlgError:
                solved[i] = False
        return x, solved


def _solve_lockstep(starts, measurements, pos, inv_std, gamma):
    """Damped Gauss-Newton from every start at once.

    Each start keeps its own damping and its own accept/reject, convergence
    and stop rules, as if run alone: a singular normal matrix stops it, a
    non-finite trial or one at zero distance from a sensor raises its
    damping, an accepted step shorter than _STEP_TOL converges it, and a
    rejected step that lifts its damping above 1e15 stops it. Returns the
    per-start (xy, cost, converged, iterations).
    """
    xy = np.array(starts, dtype=float)
    n_starts = len(xy)
    res, _, d_sq = _profiled_residual(xy, measurements, pos, inv_std, gamma)
    cost = row_dots(res, res)
    damping = np.full(n_starts, _DAMPING_START)
    converged = np.zeros(n_starts, dtype=bool)
    iterations = np.zeros(n_starts, dtype=int)
    active = np.ones(n_starts, dtype=bool)
    for it in range(1, _MAX_ITERS + 1):
        idx = np.flatnonzero(active)
        if idx.size == 0:
            break
        iterations[idx] = it
        jac = _jacobian(xy[idx], pos, inv_std, gamma, d_sq[idx])
        jac_t = jac.transpose(0, 2, 1)
        grad = (jac_t @ res[idx][:, :, None])[:, :, 0]
        hess = jac_t @ jac
        step, solved = _solve_each(hess + damping[idx, None, None] * np.eye(2), -grad)
        active[idx[~solved]] = False
        idx, step = idx[solved], step[solved]
        trial = xy[idx] + step
        usable = np.all(np.isfinite(trial), axis=1)
        # reject steps that would land a sensor at zero distance
        t = trial[usable]
        t_sq = (t[:, :1] - pos[:, 0]) ** 2 + (t[:, 1:] - pos[:, 1]) ** 2 + pos[:, 2] ** 2
        usable[usable] = ~np.any(t_sq <= 0, axis=1)
        damping[idx[~usable]] *= _DAMPING_UP
        idx, step, trial = idx[usable], step[usable], trial[usable]

        res_t, _, d_sq_t = _profiled_residual(trial, measurements, pos, inv_std, gamma)
        cost_t = row_dots(res_t, res_t)
        accept = cost_t <= cost[idx]
        acc = idx[accept]
        xy[acc], res[acc], cost[acc], d_sq[acc] = (
            trial[accept], res_t[accept], cost_t[accept], d_sq_t[accept]
        )
        damping[acc] = np.maximum(damping[acc] * _DAMPING_DOWN, 1e-15)
        short = np.sqrt(row_dots(step[accept], step[accept])) < _STEP_TOL
        converged[acc[short]] = True
        active[acc[short]] = False
        rej = idx[~accept]
        damping[rej] *= _DAMPING_UP
        active[rej[damping[rej] > 1e15]] = False
    return xy, cost, converged, iterations


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
        the estimate never exceeds the residual at the init.
    """
    measurements = np.asarray(measurements, dtype=float)
    pos = np.asarray(sensor_positions, dtype=float)
    sigma_eff = np.asarray(sigma_eff, dtype=float)
    n = len(measurements)
    if pos.shape != (n, 3) or sigma_eff.shape != (n,):
        raise ValueError("inconsistent input dimensions")
    if n < 3:
        raise ValueError(f"need at least 3 sensors to fix 3 unknowns, got {n}")
    if np.any(sigma_eff <= 0):
        raise ValueError("sigma_eff must be positive")
    inv_std = 1.0 / sigma_eff

    starts = [np.asarray(init.position, dtype=float)]
    if multistart_spread > 0:
        offsets = np.linspace(-multistart_spread, multistart_spread, 5)
        for ox in offsets:
            for oy in offsets:
                if ox == 0.0 and oy == 0.0:
                    continue
                starts.append(init.position + np.array([ox, oy]))

    xy, cost, conv, iters = _solve_lockstep(starts, measurements, pos, inv_std, gamma)
    # the first start with the lowest cost; a later one must beat it strictly
    best = 0
    for i in range(1, len(cost)):
        if cost[i] < cost[best]:
            best = i
    res, p0, _ = _profiled_residual(xy[best : best + 1], measurements, pos, inv_std, gamma)
    theta = np.array([p0[0], xy[best, 0], xy[best, 1]])
    return MleResult(
        theta_hat=theta,
        residual_norm=math.sqrt(cost[best]),
        converged=bool(np.any(conv)) and bool(np.all(np.isfinite(theta))),
        iterations=int(np.sum(iters)),
    )
