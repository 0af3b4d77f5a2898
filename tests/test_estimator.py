"""Maximum-likelihood estimator tests."""

import dataclasses
import math

import numpy as np
import pytest

from rssdgeom.admm import optimize
from rssdgeom.estimator import MleResult, mle_estimate
from rssdgeom.fim import fim_full
from rssdgeom.model import (
    SourceParams,
    case_a,
    sensor_positions,
    simulate_measurements,
)


def setup_problem(beta_max_deg=360.0):
    sc = case_a(beta_max=math.radians(beta_max_deg))
    placement, _ = optimize(sc)
    pos = sensor_positions(sc, placement)
    sigma_eff = np.sqrt(sc.effective_var)
    return sc, placement, pos, sigma_eff


def noiseless_measurements(sc, placement, truth):
    quiet = dataclasses.replace(sc, noise_std=np.full(sc.n_sensors, 1e-12))
    return simulate_measurements(quiet, placement, truth, seed=0)


class TestNoiselessRecovery:
    def test_exact_fixed_point_from_truth(self):
        sc, placement, pos, sigma_eff = setup_problem()
        truth = SourceParams(p0=17.0, position=[0.0, 0.0])
        meas = noiseless_measurements(sc, placement, truth)
        result = mle_estimate(meas, pos, sigma_eff, sc.gamma, truth)
        assert result.converged
        assert result.theta_hat[0] == pytest.approx(17.0, abs=1e-6)
        assert np.linalg.norm(result.theta_hat[1:] - truth.position) < 1e-6

    def test_recovery_from_offset_init(self):
        # the residual surface has its basin minimum at the truth; verify by
        # grid evaluation, then check the solver lands there from 200 m away
        sc, placement, pos, sigma_eff = setup_problem()
        truth = SourceParams(p0=5.0, position=[0.0, 0.0])
        meas = noiseless_measurements(sc, placement, truth)

        grid = np.linspace(-400.0, 400.0, 200)
        best = (math.inf, None)
        inv_var = 1.0 / sc.effective_var
        for gx in grid:
            d_sq = (gx - pos[:, 0]) ** 2 + (grid[:, None] - pos[:, 1]) ** 2 + pos[:, 2] ** 2
            shifted = meas + 5.0 * sc.gamma * np.log10(d_sq)
            p0 = (inv_var * shifted).sum(axis=1) / inv_var.sum()
            cost = (inv_var * (shifted - p0[:, None]) ** 2).sum(axis=1)
            k = int(np.argmin(cost))
            if cost[k] < best[0]:
                best = (float(cost[k]), (gx, grid[k]))
        assert np.hypot(*best[1]) < 5.0  # grid argmin sits at the truth

        init = SourceParams(p0=0.0, position=[120.0, -160.0])  # 200 m off
        result = mle_estimate(meas, pos, sigma_eff, sc.gamma, init)
        assert result.converged
        assert np.linalg.norm(result.theta_hat[1:] - truth.position) < 1e-4

    def test_residual_never_worse_than_init(self):
        sc, placement, pos, sigma_eff = setup_problem()
        truth = SourceParams(p0=3.0, position=[0.0, 0.0])
        rng = np.random.default_rng(30)
        for t in range(10):
            meas = simulate_measurements(sc, placement, truth, seed=200 + t)
            init = SourceParams(p0=0.0, position=rng.normal(0, 150, 2))
            result = mle_estimate(meas, pos, sigma_eff, sc.gamma, init)
            d_sq = (
                (init.position[0] - pos[:, 0]) ** 2
                + (init.position[1] - pos[:, 1]) ** 2
                + pos[:, 2] ** 2
            )
            shifted = meas + 5.0 * sc.gamma * np.log10(d_sq)
            inv_var = 1.0 / sc.effective_var
            p0 = float((inv_var * shifted).sum() / inv_var.sum())
            init_cost = float((inv_var * (shifted - p0) ** 2).sum())
            assert result.residual_norm**2 <= init_cost + 1e-12


class TestShiftInvariance:
    def test_constant_shift_moves_only_p0(self):
        sc, placement, pos, sigma_eff = setup_problem()
        truth = SourceParams(p0=0.0, position=[0.0, 0.0])
        meas = simulate_measurements(sc, placement, truth, seed=77)
        init = SourceParams(p0=0.0, position=[90.0, 40.0])
        base = mle_estimate(meas, pos, sigma_eff, sc.gamma, init)
        shifted = mle_estimate(meas + 23.5, pos, sigma_eff, sc.gamma, init)
        assert shifted.theta_hat[0] - base.theta_hat[0] == pytest.approx(23.5, abs=1e-9)
        assert np.linalg.norm(shifted.theta_hat[1:] - base.theta_hat[1:]) < 1e-8


class TestInputValidation:
    def test_too_few_sensors(self):
        with pytest.raises(ValueError, match="3 sensors"):
            mle_estimate(
                np.zeros(2), np.zeros((2, 3)), np.ones(2), 2.0,
                SourceParams(0.0, [0.0, 0.0]),
            )

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="dimensions"):
            mle_estimate(
                np.zeros(4), np.zeros((3, 3)), np.ones(4), 2.0,
                SourceParams(0.0, [0.0, 0.0]),
            )


class TestCrlbConsistency:
    def test_monte_carlo_rmse_respects_bound(self):
        # the empirical RMSE of the ML refinement can approach but not beat
        # the lower bound (beyond estimation noise in the RMSE itself)
        sc, placement, pos, sigma_eff = setup_problem()
        truth = SourceParams(p0=0.0, position=[0.0, 0.0])
        lb = fim_full(sc, placement, truth).lb_rmse
        sq_err = []
        for t in range(400):
            meas = simulate_measurements(sc, placement, truth, seed=5000 + t)
            result = mle_estimate(meas, pos, sigma_eff, sc.gamma, truth)
            sq_err.append(float(np.sum((result.theta_hat[1:] - truth.position) ** 2)))
        sq_err = np.array(sq_err)
        rmse = math.sqrt(sq_err.mean())
        se = sq_err.std() / (2.0 * rmse * math.sqrt(len(sq_err)))
        assert rmse >= lb - 3.0 * se
        # sanity: the efficient estimator should be near the bound, not far above
        assert rmse <= 1.5 * lb


# -- lockstep multistart against the per-start reference ----------------------
#
# The functions below are the per-start damped Gauss-Newton loop that
# mle_estimate ran before its starts were advanced in lockstep, kept verbatim
# as the reference: the lockstep version must reproduce it bit for bit.

_DAMPING_START = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 0.1
_STEP_TOL = 1e-8
_MAX_ITERS = 200


def _profiled_residual(xy, measurements, pos, inv_std, gamma):
    """Weighted residuals with the optimal P0 substituted, plus that P0."""
    d_sq = (xy[0] - pos[:, 0]) ** 2 + (xy[1] - pos[:, 1]) ** 2 + pos[:, 2] ** 2
    log_term = 5.0 * gamma * np.log10(d_sq)  # 10*gamma*log10(d)
    shifted = measurements + log_term
    wsum = np.sum(inv_std**2)
    p0 = float(np.sum(inv_std**2 * shifted) / wsum)
    res = inv_std * (shifted - p0)
    return res, p0, d_sq


def _jacobian(xy, pos, inv_std, gamma, d_sq):
    """Jacobian of the profiled residuals w.r.t. (x, y)."""
    slope = 10.0 * gamma / math.log(10.0)
    # d(10*gamma*log10 d_i)/dx = slope * (x - x_i) / d_i^2
    raw = np.column_stack(
        [
            slope * (xy[0] - pos[:, 0]) / d_sq,
            slope * (xy[1] - pos[:, 1]) / d_sq,
        ]
    )
    w2 = inv_std**2
    wsum = np.sum(w2)
    mean_row = (w2 @ raw) / wsum
    return inv_std[:, None] * (raw - mean_row[None, :])


def _solve_from(xy0, measurements, pos, inv_std, gamma):
    """Damped Gauss-Newton from one start; returns (xy, cost, converged, iters)."""
    xy = np.asarray(xy0, dtype=float).copy()
    res, _, d_sq = _profiled_residual(xy, measurements, pos, inv_std, gamma)
    cost = float(res @ res)
    damping = _DAMPING_START
    converged = False
    it = 0
    for it in range(1, _MAX_ITERS + 1):
        jac = _jacobian(xy, pos, inv_std, gamma, d_sq)
        grad = jac.T @ res
        hess = jac.T @ jac
        try:
            step = np.linalg.solve(hess + damping * np.eye(2), -grad)
        except np.linalg.LinAlgError:
            break
        trial = xy + step
        if not np.all(np.isfinite(trial)):
            damping *= _DAMPING_UP
            continue
        # reject steps that would land a sensor at zero distance
        t_sq = (trial[0] - pos[:, 0]) ** 2 + (trial[1] - pos[:, 1]) ** 2 + pos[:, 2] ** 2
        if np.any(t_sq <= 0):
            damping *= _DAMPING_UP
            continue
        res_t, _, d_sq_t = _profiled_residual(trial, measurements, pos, inv_std, gamma)
        cost_t = float(res_t @ res_t)
        if cost_t <= cost:
            xy, res, cost, d_sq = trial, res_t, cost_t, d_sq_t
            damping = max(damping * _DAMPING_DOWN, 1e-15)
            if float(np.linalg.norm(step)) < _STEP_TOL:
                converged = True
                break
        else:
            damping *= _DAMPING_UP
            if damping > 1e15:
                break
    return xy, cost, converged, it


def reference_mle(measurements, pos, sigma_eff, gamma, init, multistart_spread=0.0):
    """mle_estimate with one _solve_from call per start, in start order."""
    inv_std = 1.0 / sigma_eff
    starts = [np.asarray(init.position, dtype=float)]
    if multistart_spread > 0:
        offsets = np.linspace(-multistart_spread, multistart_spread, 5)
        for ox in offsets:
            for oy in offsets:
                if ox == 0.0 and oy == 0.0:
                    continue
                starts.append(init.position + np.array([ox, oy]))

    best = None
    any_converged = False
    total_iters = 0
    per_start = []
    for s in starts:
        xy, cost, conv, iters = _solve_from(s, measurements, pos, inv_std, gamma)
        per_start.append((conv, iters))
        total_iters += iters
        any_converged = any_converged or conv
        if best is None or cost < best[1]:
            best = (xy, cost, conv)
    xy, cost, conv = best
    res, p0, _ = _profiled_residual(xy, measurements, pos, inv_std, gamma)
    theta = np.array([p0, xy[0], xy[1]])
    result = MleResult(
        theta_hat=theta,
        residual_norm=math.sqrt(cost),
        converged=any_converged and bool(np.all(np.isfinite(theta))),
        iterations=total_iters,
    )
    return result, per_start


def assert_same_result(got, want):
    np.testing.assert_array_equal(got.theta_hat, want.theta_hat)
    assert got.residual_norm == want.residual_norm or (
        math.isnan(got.residual_norm) and math.isnan(want.residual_norm)
    )
    assert got.iterations == want.iterations
    assert got.converged == want.converged


def random_problem(rng, n, sigma_scale=1.0):
    pos = np.column_stack(
        [rng.uniform(-1000, 1000, n), rng.uniform(-1000, 1000, n), rng.uniform(0, 150, n)]
    )
    sigma = sigma_scale * rng.uniform(0.3, 3.0, n)
    meas = rng.normal(-60.0, 5.0, n)
    return meas, pos, sigma


class TestLockstepMatchesPerStartReference:
    def test_randomized_scenarios_and_spreads(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            meas, pos, sigma = random_problem(rng, int(rng.integers(3, 20)))
            init = SourceParams(0.0, rng.normal(0.0, 300.0, 2))
            spread = float(rng.choice([0.0, 5.0, 150.0, 2000.0]))
            want, _ = reference_mle(meas, pos, sigma, 2.0, init, spread)
            got = mle_estimate(meas, pos, sigma, 2.0, init, multistart_spread=spread)
            assert_same_result(got, want)

    def test_designed_placement_with_simulated_measurements(self):
        sc, placement, pos, sigma_eff = setup_problem(120.0)
        truth = SourceParams(p0=0.0, position=[0.0, 0.0])
        for t in range(10):
            meas = simulate_measurements(sc, placement, truth, seed=900 + t)
            init = SourceParams(0.0, [80.0 - 20.0 * t, 15.0 * t])
            want, _ = reference_mle(meas, pos, sigma_eff, sc.gamma, init, 223.6)
            got = mle_estimate(meas, pos, sigma_eff, sc.gamma, init, multistart_spread=223.6)
            assert_same_result(got, want)

    def test_single_start(self):
        rng = np.random.default_rng(7)
        meas, pos, sigma = random_problem(rng, 6)
        init = SourceParams(0.0, [40.0, -25.0])
        want, per_start = reference_mle(meas, pos, sigma, 2.0, init)
        assert len(per_start) == 1
        assert_same_result(mle_estimate(meas, pos, sigma, 2.0, init), want)

    def test_far_off_starts_with_rejected_and_non_finite_trials(self):
        rng = np.random.default_rng(11)
        for scale in (1e7, 1e160):
            for _ in range(5):
                meas, pos, sigma = random_problem(rng, int(rng.integers(3, 9)))
                init = SourceParams(0.0, rng.normal(0.0, scale, 2))
                with np.errstate(all="ignore"):
                    want, per_start = reference_mle(meas, pos, sigma, 2.0, init, scale)
                    got = mle_estimate(meas, pos, sigma, 2.0, init, multistart_spread=scale)
                assert_same_result(got, want)
        # at 1e160 every trial overflows: the starts run to the iteration cap
        assert all(iters == 200 and not conv for conv, iters in per_start)

    def test_starts_that_stop_on_damping(self):
        # with noise levels of 1e-9 dB the cost is dominated by rounding
        # noise, so trial steps keep being rejected until the damping passes
        # 1e15, while other starts of the same call converge
        rng = np.random.default_rng(5)
        stopped = 0
        for _ in range(10):
            meas, pos, sigma = random_problem(rng, int(rng.integers(3, 9)), sigma_scale=1e-9)
            init = SourceParams(0.0, rng.normal(0.0, 300.0, 2))
            want, per_start = reference_mle(meas, pos, sigma, 2.0, init, 100.0)
            got = mle_estimate(meas, pos, sigma, 2.0, init, multistart_spread=100.0)
            assert_same_result(got, want)
            stopped += sum(not conv and iters < 200 for conv, iters in per_start)
        assert stopped > 0

    def test_singular_normal_matrix_stops_only_its_start(self):
        # sensors and the start on the line y = x make every Jacobian row a
        # multiple of (1, 1); with tiny noise the damping is lost against the
        # normal matrix, which is then exactly singular
        n = 5
        line = np.array([-700.0, -300.0, 100.0, 450.0, 900.0])
        pos = np.column_stack([line, line, np.zeros(n)])
        sigma = np.full(n, 1e-9)
        meas = np.array([-55.0, -61.0, -58.5, -63.0, -57.0])
        init = SourceParams(0.0, [20.0, 20.0])
        want, per_start = reference_mle(meas, pos, sigma, 2.0, init)
        assert per_start == [(False, 1)]  # the singular solve ends the only start
        assert_same_result(mle_estimate(meas, pos, sigma, 2.0, init), want)
        # the diagonal offsets of the restart grid are singular too, the others are not
        want, per_start = reference_mle(meas, pos, sigma, 2.0, init, 50.0)
        assert (False, 1) in per_start and any(iters > 1 for _, iters in per_start)
        got = mle_estimate(meas, pos, sigma, 2.0, init, multistart_spread=50.0)
        assert_same_result(got, want)
