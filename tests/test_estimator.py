"""Maximum-likelihood estimator tests."""

import dataclasses
import math
import tracemalloc
import warnings

import numpy as np
import pytest

from rssdgeom import estimator, experiments
from rssdgeom.admm import optimize, uniform_init
from rssdgeom.estimator import MleResult, mle_estimate, mle_estimate_many
from rssdgeom.fim import fim_full
from rssdgeom.model import (
    SourceParams,
    case_a,
    case_b,
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

    def test_constant_shift_over_many_seeds(self):
        # a shift changes the cost's rounding, not its minimum; counting a
        # rounding-level cost tie as a rise stalls a start short of its fixed
        # point, by up to 1.85e-6 m on these seeds
        sc, placement, pos, sigma_eff = setup_problem()
        truth = SourceParams(p0=0.0, position=[0.0, 0.0])
        init = SourceParams(p0=0.0, position=[90.0, 40.0])
        gaps = []
        for seed in range(60, 100):
            meas = simulate_measurements(sc, placement, truth, seed=seed)
            base = mle_estimate(meas, pos, sigma_eff, sc.gamma, init)
            shifted = mle_estimate(meas + 23.5, pos, sigma_eff, sc.gamma, init)
            assert base.converged and shifted.converged
            gaps.append(np.linalg.norm(shifted.theta_hat[1:] - base.theta_hat[1:]))
        assert max(gaps) < 1e-6, max(gaps)


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

    @pytest.mark.parametrize(
        "field, value, named",
        [
            ("spread", math.inf, "multistart_spread"),
            ("spread", math.nan, "multistart_spread"),
            ("spread", -5.0, "multistart_spread"),
            ("sigma", math.nan, "sigma_eff"),
            ("sigma", math.inf, "sigma_eff"),
            ("meas", math.nan, "measurements"),
            ("meas", -math.inf, "measurements"),
            ("pos", math.nan, "sensor_positions"),
            ("pos", math.inf, "sensor_positions"),
        ],
    )
    def test_rejects_non_finite_inputs(self, field, value, named):
        meas, pos, sigma = random_problem(np.random.default_rng(3), 6)
        spread = 100.0
        if field == "spread":
            spread = value
        elif field == "sigma":
            sigma[2] = value
        elif field == "meas":
            meas[4] = value
        else:
            pos[1, 2] = value
        init = SourceParams(0.0, [10.0, -20.0])
        with pytest.raises(ValueError, match=named):
            mle_estimate(meas, pos, sigma, 2.0, init, multistart_spread=spread)
        with pytest.raises(ValueError, match=named):
            mle_estimate_many(
                np.stack([meas, meas]), np.stack([pos, pos]), sigma, 2.0, [init, init],
                multistart_spread=spread,
            )

    def test_many_dimension_mismatch(self):
        meas, pos, sigma = random_problem(np.random.default_rng(4), 5)
        init = SourceParams(0.0, [0.0, 0.0])
        for args in [
            (meas, pos[None], sigma, [init]),  # 1-D measurements
            (meas[None], pos, sigma, [init]),  # 2-D positions
            (meas[None], pos[None], sigma, [init, init]),  # one init too many
            (meas[None], pos[None], sigma[:4], [init]),
        ]:
            with pytest.raises(ValueError, match="dimensions"):
                mle_estimate_many(args[0], args[1], args[2], 2.0, args[3])


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
# mle_estimate runs, one start at a time on 1-D arrays and Python floats,
# kept frozen as the reference: the lockstep version must reproduce it bit
# for bit. Its arithmetic is elementwise products and 1-D sums, and a
# closed-form 2x2 solve.

_DAMPING_START = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 0.1
_STEP_TOL = 1e-8
_MAX_ITERS = 200
_COST_TIE = 1.0 + 16 * np.finfo(float).eps


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
    """x and y columns of the Jacobian of the profiled residuals w.r.t. (x, y)."""
    slope = 10.0 * gamma / math.log(10.0)
    w2 = inv_std**2
    wsum = np.sum(w2)
    # d(10*gamma*log10 d_i)/dx = slope * (x - x_i) / d_i^2
    raw_x = slope * (xy[0] - pos[:, 0]) / d_sq
    raw_y = slope * (xy[1] - pos[:, 1]) / d_sq
    jx = inv_std * (raw_x - np.sum(w2 * raw_x) / wsum)
    jy = inv_std * (raw_y - np.sum(w2 * raw_y) / wsum)
    return jx, jy


def _lu_solve(a00, a01, a10, a11, b0, b1):
    """x of [[a00, a01], [a10, a11]] x = (b0, b1) by LU with partial pivoting.

    Returns None where a pivot is 0, where np.linalg.solve raises.
    """
    if abs(a10) > abs(a00):
        a00, a01, b0, a10, a11, b1 = a10, a11, b1, a00, a01, b0
    if a00 == 0:
        return None
    lower = a10 / a00
    u11 = a11 - lower * a01
    if u11 == 0:
        return None
    x1 = (b1 - lower * b0) / u11
    return np.array([(b0 - a01 * x1) / a00, x1])


def _solve_from(xy0, measurements, pos, inv_std, gamma):
    """Damped Gauss-Newton from one start; returns (xy, cost, converged, iters)."""
    xy = np.asarray(xy0, dtype=float).copy()
    res, _, d_sq = _profiled_residual(xy, measurements, pos, inv_std, gamma)
    cost = float(np.sum(res * res))
    damping = _DAMPING_START
    converged = False
    it = 0
    for it in range(1, _MAX_ITERS + 1):
        jx, jy = _jacobian(xy, pos, inv_std, gamma, d_sq)
        h00, h01, h11 = float(np.sum(jx * jx)), float(np.sum(jx * jy)), float(np.sum(jy * jy))
        g0, g1 = float(np.sum(jx * res)), float(np.sum(jy * res))
        step = _lu_solve(h00 + damping, h01, h01, h11 + damping, -g0, -g1)
        if step is None:
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
        cost_t = float(np.sum(res_t * res_t))
        # a cost within rounding of the current one is a tie, and accepted
        if cost_t <= cost * _COST_TIE:
            xy, res, cost, d_sq = trial, res_t, cost_t, d_sq_t
            damping = max(damping * _DAMPING_DOWN, 1e-15)
            if math.sqrt(float(np.sum(step * step))) < _STEP_TOL:
                # below the damping floor, tr(J^T J) is swamped by any damping
                converged = h00 + h11 >= 1e-15
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


class TestNormalEquationsReuse:
    def test_jacobian_rows_are_the_starts_and_the_accepted_steps(self, monkeypatch):
        # the reference forms J at every iteration, and a rejected step leaves
        # the iterate as it was; with each run of a repeated iterate counted
        # once, its J points are the starts and the accepted steps a start
        # went on from, the points where the lockstep must form J, and only them
        sc, placement, pos, sigma_eff = setup_problem(120.0)
        truth = SourceParams(p0=0.0, position=[0.0, 0.0])
        meas = np.array(
            [simulate_measurements(sc, placement, truth, seed=900 + t) for t in range(4)]
        )
        inits = [SourceParams(0.0, [80.0 - 20.0 * t, 15.0 * t]) for t in range(4)]

        evaluated = []
        jacobian = estimator._jacobian

        def recording_jacobian(xy, *args):
            evaluated.extend(map(tuple, xy.tolist()))
            return jacobian(xy, *args)

        monkeypatch.setattr(estimator, "_jacobian", recording_jacobian)
        got = mle_estimate_many(
            meas, np.repeat(pos[None], 4, axis=0), sigma_eff, sc.gamma, inits,
            multistart_spread=223.6,
        )

        per_start = []
        reference_jacobian, reference_solve = _jacobian, _solve_from

        def tracking_jacobian(xy, *args):
            if not per_start[-1] or per_start[-1][-1] != tuple(xy.tolist()):
                per_start[-1].append(tuple(xy.tolist()))
            return reference_jacobian(xy, *args)

        def tracking_solve(*args):
            per_start.append([])
            return reference_solve(*args)

        monkeypatch.setitem(globals(), "_jacobian", tracking_jacobian)
        monkeypatch.setitem(globals(), "_solve_from", tracking_solve)
        for t in range(4):
            want, _ = reference_mle(meas[t], pos, sigma_eff, sc.gamma, inits[t], 223.6)
            assert_same_result(got[t], want)
        monkeypatch.undo()

        assert len(per_start) == 4 * 25
        assert sorted(evaluated) == sorted(row for start in per_start for row in start)
        # rejected steps happen here, so reuse saves Jacobians
        assert len(evaluated) < sum(result.iterations for result in got)


# -- many problems in one lockstep against one problem at a time ---------------


def random_batch(rng, n_problems, n, sigma, init_scale=300.0):
    """n_problems problems with n sensors sharing the noise levels sigma."""
    meas, pos, inits = [], [], []
    for _ in range(n_problems):
        m, p, _ = random_problem(rng, n)
        meas.append(m)
        pos.append(p)
        inits.append(SourceParams(0.0, rng.normal(0.0, init_scale, 2)))
    return np.array(meas), np.array(pos), sigma, inits


def assert_many_matches_one_at_a_time(meas, pos, sigma, inits, spread):
    got = mle_estimate_many(meas, pos, sigma, 2.0, inits, multistart_spread=spread)
    assert len(got) == len(inits)
    for t, result in enumerate(got):
        want = mle_estimate(meas[t], pos[t], sigma, 2.0, inits[t], multistart_spread=spread)
        assert_same_result(result, want)


class TestManyMatchesOneAtATime:
    # 25 starts per problem run in blocks of 40 problems (1000 rows), so 41
    # and 81 problems cross block boundaries; one start per problem runs
    # 1024 problems per block
    @pytest.mark.parametrize("n_problems", [1, 20, 21, 40, 41, 81])
    @pytest.mark.parametrize("spread", [0.0, 223.6])
    def test_problem_counts_across_blocks(self, n_problems, spread):
        rng = np.random.default_rng(100 + n_problems)
        sigma = rng.uniform(0.3, 3.0, 7)
        meas, pos, _, inits = random_batch(rng, n_problems, 7, sigma)
        assert_many_matches_one_at_a_time(meas, pos, sigma, inits, spread)

    def test_one_start_per_problem_across_a_block(self):
        rng = np.random.default_rng(1025)
        sigma = rng.uniform(0.3, 3.0, 4)
        meas, pos, _, inits = random_batch(rng, 1025, 4, sigma)
        assert_many_matches_one_at_a_time(meas, pos, sigma, inits, 0.0)

    def test_far_off_starts_with_rejected_and_non_finite_trials(self):
        rng = np.random.default_rng(11)
        sigma = rng.uniform(0.3, 3.0, 5)
        meas, pos, _, inits = random_batch(rng, 21, 5, sigma)
        far = range(0, 21, 3)
        for t in far:
            inits[t] = SourceParams(0.0, rng.normal(0.0, 1e160, 2))
        with np.errstate(all="ignore"):
            assert_many_matches_one_at_a_time(meas, pos, sigma, inits, 1e7)
            assert_many_matches_one_at_a_time(meas, pos, sigma, inits, 1e160)
            results = mle_estimate_many(meas, pos, sigma, 2.0, inits, multistart_spread=1e160)
        # around a far-off init every trial step overflows: each of its 25
        # starts runs to the iteration cap, next to problems that converge
        assert all(results[t].iterations == 25 * 200 for t in far)
        assert not any(results[t].converged for t in far)
        assert any(r.converged for r in results)

    def test_singular_normal_matrix_in_a_batch(self):
        # the line problem of the per-start test: its diagonal restart
        # offsets hit an exactly singular normal matrix, the other problems'
        # starts do not
        n = 5
        line = np.array([-700.0, -300.0, 100.0, 450.0, 900.0])
        sigma = np.full(n, 1e-9)
        rng = np.random.default_rng(5)
        meas, pos, _, inits = random_batch(rng, 21, n, sigma)
        pos[7] = np.column_stack([line, line, np.zeros(n)])
        meas[7] = [-55.0, -61.0, -58.5, -63.0, -57.0]
        inits[7] = SourceParams(0.0, [20.0, 20.0])
        _, per_start = reference_mle(meas[7], pos[7], sigma, 2.0, inits[7], 50.0)
        assert (False, 1) in per_start
        assert_many_matches_one_at_a_time(meas, pos, sigma, inits, 50.0)

    def test_a_start_on_a_sensor_never_wins(self):
        # a restart point on a sensor at zero height has a NaN cost (log of
        # zero distance) that no step repairs; the pick takes the first start
        # with the lowest cost, so that NaN never wins, while np.argmin would
        # take it
        rng = np.random.default_rng(21)
        sigma = rng.uniform(0.3, 3.0, 6)
        meas, pos, _, inits = random_batch(rng, 21, 6, sigma, init_scale=50.0)
        for t in (0, 13, 20):
            pos[t, 0] = [*(inits[t].position + [25.0, 25.0]), 0.0]
        with np.errstate(all="ignore"):
            got = mle_estimate_many(meas, pos, sigma, 2.0, inits, multistart_spread=50.0)
            for t in (0, 13, 20):
                want, _ = reference_mle(meas[t], pos[t], sigma, 2.0, inits[t], 50.0)
                assert_same_result(got[t], want)
                assert np.all(np.isfinite(got[t].theta_hat))
            assert_many_matches_one_at_a_time(meas, pos, sigma, inits, 50.0)


class TestLockstepBlocks:
    def test_forty_problems_run_as_one_block_of_running_starts(self, monkeypatch):
        rng = np.random.default_rng(40)
        sigma = rng.uniform(0.3, 3.0, 8)
        meas, pos, _, inits = random_batch(rng, 40, 8, sigma, init_scale=50.0)
        rows = []
        solve_2x2 = estimator._solve_2x2

        def counting_solve_2x2(a00, *args):
            rows.append(len(a00))
            return solve_2x2(a00, *args)

        monkeypatch.setattr(estimator, "_solve_2x2", counting_solve_2x2)
        results = mle_estimate_many(meas, pos, sigma, 2.0, inits, multistart_spread=100.0)
        # the 40 x 25 starts fill one block, and the running set only shrinks
        assert rows[0] == 40 * 25
        assert rows == sorted(rows, reverse=True)
        # a start is solved once per iteration it runs, and never after it stops
        assert sum(rows) == sum(r.iterations for r in results)

    @pytest.mark.parametrize("spread", [0.0, 100.0])
    def test_a_trial_on_a_sensor_is_rejected_like_a_non_finite_one(self, monkeypatch, spread):
        # the first step of problem 1's first start lands exactly on its
        # sensor 2, at zero height; that trial must stay out of the residual
        # arithmetic (log of a zero distance) and be rejected as a non-finite
        # trial is: the damping rises and the start stays where it is
        rng = np.random.default_rng(9)
        sigma = rng.uniform(0.3, 3.0, 6)
        meas, pos, _, inits = random_batch(rng, 3, 6, sigma, init_scale=50.0)
        inits[1] = SourceParams(0.0, [10.0, 20.0])
        pos[1, 2] = [30.0, 50.0, 0.0]
        row = 1 if spread == 0 else 25
        solve_2x2 = estimator._solve_2x2

        def run(first_step):
            forced = [first_step]

            def forced_solve_2x2(*args):
                step, solved = solve_2x2(*args)
                if forced:  # the first call only
                    step[row] = forced.pop()
                return step, solved

            monkeypatch.setattr(estimator, "_solve_2x2", forced_solve_2x2)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                results = mle_estimate_many(
                    meas, pos, sigma, 2.0, inits, multistart_spread=spread
                )
            assert not forced  # the step was forced through the solve
            return results

        on_sensor = run([20.0, 30.0])
        for got, want in zip(on_sensor, run([math.inf, 0.0])):
            assert_same_result(got, want)

    def test_a_nan_normal_matrix_gives_a_step_the_ok_mask_rejects(self, monkeypatch):
        # a NaN entry of one start's first normal matrix solves to a NaN
        # step, not to an unsolved row; the start must not stop as singular
        # but reject the trial as it rejects a non-finite one
        rng = np.random.default_rng(9)
        sigma = rng.uniform(0.3, 3.0, 6)
        meas, pos, _, inits = random_batch(rng, 3, 6, sigma, init_scale=50.0)
        solve_2x2 = estimator._solve_2x2
        row = 30

        def run(spoil_matrix):
            first = []

            def spoilt_solve_2x2(a00, *args):
                if not first and spoil_matrix:
                    a00 = a00.copy()
                    a00[row] = math.nan
                step, solved = solve_2x2(a00, *args)
                if not first:  # the first call only
                    first.append((step[row].copy(), solved[row]))
                    if not spoil_matrix:
                        step[row] = [math.inf, 0.0]
                return step, solved

            monkeypatch.setattr(estimator, "_solve_2x2", spoilt_solve_2x2)
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                results = mle_estimate_many(meas, pos, sigma, 2.0, inits, multistart_spread=100.0)
            return results, first[0]

        spoilt, (step, solved) = run(spoil_matrix=True)
        assert solved and not np.all(np.isfinite(step))
        non_finite, _ = run(spoil_matrix=False)
        for got, want in zip(spoilt, non_finite):
            assert_same_result(got, want)

    def test_a_finite_trial_whose_distances_overflow_is_rejected(self, monkeypatch):
        # a step of 1e200 m is finite, but its squared sensor distances
        # overflow to inf and its cost to NaN; the trial must be rejected
        # without a warning and the start must still reach the minimum
        sc = case_a()
        placement = uniform_init(sc.n_sensors, sc.beta_max)
        pos = sensor_positions(sc, placement)[None]
        meas = simulate_measurements(sc, placement, SourceParams(0.0, [0.0, 0.0]), seed=5)[None]
        sigma_eff = np.sqrt(sc.effective_var)
        inits = [SourceParams(0.0, [10.0, 5.0])]
        (plain,) = mle_estimate_many(meas, pos, sigma_eff, sc.gamma, inits)
        solve_2x2 = estimator._solve_2x2
        forced = [np.array([1e200, 0.0])]

        def overflowing_solve_2x2(*args):
            step, solved = solve_2x2(*args)
            if forced:  # the first call only
                step[0] = forced.pop()
            return step, solved

        monkeypatch.setattr(estimator, "_solve_2x2", overflowing_solve_2x2)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            (got,) = mle_estimate_many(meas, pos, sigma_eff, sc.gamma, inits)
        assert not forced  # the step was forced through the solve
        assert got.converged
        assert np.linalg.norm(got.theta_hat[1:] - plain.theta_hat[1:]) < 1e-6


def damped_normal_systems(rng, n_rows, magnitude=0.0, column_scale=0.0):
    """Entries of n_rows damped systems (J^T J + D) x = -J^T r, and J's column scales.

    Returns ((a00, a01, a11, b0, b1), scales), each entry an (n_rows,) array
    and scales (n_rows, 2). Each J has 3-19 rows and its columns scaled by
    10^U(-column_scale, column_scale); the damping D is a random multiple of
    the squared scales, as Marquardt's scaled damping; each side is then
    multiplied by 10^U(-magnitude, magnitude).
    """
    entries = np.empty((5, n_rows))
    scales = 10.0 ** rng.uniform(-column_scale, column_scale, (n_rows, 2))
    for i, d in enumerate(scales):
        jac = rng.normal(size=(int(rng.integers(3, 20)), 2)) * d
        hess = jac.T @ jac + 10.0 ** rng.uniform(-15, 1) * np.diag(d**2)
        grad = jac.T @ rng.normal(size=len(jac))
        hess_scale, grad_scale = 10.0 ** rng.uniform(-magnitude, magnitude, 2)
        entries[:3, i] = hess_scale * hess[[0, 0, 1], [0, 1, 1]]
        entries[3:, i] = -grad_scale * grad
    return tuple(entries), scales


class TestClosedFormSolve:
    @pytest.mark.parametrize(
        "magnitude, column_scale", [(0.0, 0.0), (100.0, 0.0), (0.0, 8.0), (100.0, 4.0)]
    )
    def test_agrees_with_numpy_solve(self, magnitude, column_scale):
        # the error is measured on the scaled unknowns d * x, the ones the
        # column scaling leaves well conditioned
        rng = np.random.default_rng(int(magnitude + column_scale))
        (a00, a01, a11, b0, b1), d = damped_normal_systems(rng, 2000, magnitude, column_scale)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, solved = estimator._solve_2x2(a00, a01, a11, b0, b1)
        a = np.stack([np.stack([a00, a01], -1), np.stack([a01, a11], -1)], axis=1)
        want = np.linalg.solve(a, np.stack([b0, b1], -1)[:, :, None])[:, :, 0]
        assert solved.all()
        err = np.hypot(*(d * (x - want)).T) / np.hypot(*(d * want).T)
        assert err.max() <= 1e-12, err.max()

    def test_a_zero_pivot_leaves_only_its_row_unsolved(self):
        # a zero first column makes the first pivot 0, and rows (1, 2) and
        # (2, 4) make the second pivot exactly 0 with and without a swap;
        # these are the rows np.linalg.solve refuses
        a = np.array(
            [
                [[0.0, 0.0], [0.0, 3.0]],
                [[1.0, 2.0], [2.0, 4.0]],
                [[4.0, 2.0], [2.0, 1.0]],
                [[2.0, 1.0], [1.0, 3.0]],
                [[1e-300, 0.0], [0.0, 1e300]],
            ]
        )
        b = np.array([[1.0, -2.0], [0.5, 3.0], [-1.0, 1.0], [1.0, 1.0], [1.0, 1.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, solved = estimator._solve_2x2(a[:, 0, 0], a[:, 0, 1], a[:, 1, 1], b[:, 0], b[:, 1])
        np.testing.assert_array_equal(solved, [False, False, False, True, True])
        for row in range(3):
            with pytest.raises(np.linalg.LinAlgError):
                np.linalg.solve(a[row], b[row])
        np.testing.assert_allclose(x[3:], np.linalg.solve(a[3:], b[3:, :, None])[:, :, 0])

    def test_nan_entries_give_a_non_finite_solved_row(self):
        (a00, a01, a11, b0, b1), _ = damped_normal_systems(np.random.default_rng(3), 5)
        a00[1] = a01[2] = a11[3] = b0[4] = math.nan
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            x, solved = estimator._solve_2x2(a00, a01, a11, b0, b1)
        assert solved.all()
        assert np.all(np.isfinite(x[0]))
        assert not np.any(np.all(np.isfinite(x[1:]), axis=1))


class TestConvergedFlag:
    @staticmethod
    def practical_results(monkeypatch, scenario, prior_std, trials, seed):
        """The MleResults of one run_practical call, one per trial."""
        calls = []

        def recording(*args, **kwargs):
            calls.append(mle_estimate_many(*args, **kwargs))
            return calls[-1]

        monkeypatch.setattr(experiments, "mle_estimate_many", recording)
        experiments.run_practical(scenario, prior_std=prior_std, trials=trials, seed=seed)
        assert len(calls) == 1 and len(calls[0]) == trials
        return calls[0]

    def test_starts_lost_far_out_do_not_converge(self, monkeypatch):
        # about 1e150 m out, J^T J is below the damping floor: every start
        # stops on a short first step, which is no sign of convergence
        results = self.practical_results(monkeypatch, case_a(), 1e150, 5, 7)
        assert all(r.iterations == 25 for r in results)  # 25 starts, 1 iteration each
        assert not any(r.converged for r in results)
        for r in results:
            assert np.linalg.norm(r.theta_hat[1:]) > 1e149

    def test_converged_starts_far_from_the_swarm_are_stationary_points(self, monkeypatch):
        # with priors about 1e6 m off, most starts stop converged tens of km
        # from their 1 km swarm; each is a genuine stationary point of the
        # profiled cost: its Gauss-Newton decrement g^T (J^T J)^-1 g, with
        # g = J^T r, is a rounding-level fraction of the cost r^T r
        solve = estimator._solve_lockstep
        runs = []

        def recording(starts, *args):
            runs.append((args, solve(starts, *args)))
            return runs[-1][1]

        monkeypatch.setattr(estimator, "_solve_lockstep", recording)
        experiments.run_practical(case_a(), prior_std=1e6, trials=21, seed=1)
        assert len(runs) == 1
        (meas, px, py, h_sq, inv_std, gamma), (xy, cost, converged, _) = runs[0]
        centre = np.column_stack([px.mean(axis=1), py.mean(axis=1)])
        far = np.linalg.norm(xy - centre, axis=1) > 5000.0
        assert (converged & far).sum() > len(xy) / 2
        d_sq = estimator._dist_sq(xy, px, py, h_sq)
        res, _ = estimator._profiled_residual(d_sq, meas, inv_std, gamma)
        jac = np.stack(estimator._jacobian(xy, px, py, inv_std, gamma, d_sq), axis=-1)
        grad = (jac.transpose(0, 2, 1) @ res[:, :, None])[:, :, 0]
        step = np.linalg.solve(jac.transpose(0, 2, 1) @ jac, grad[:, :, None])[:, :, 0]
        ratio = np.sum(grad * step, axis=1) / cost
        assert np.all(ratio[converged] <= 1e-12), ratio[converged].max()

    @pytest.mark.parametrize("scenario", [case_a(), case_b()], ids=["caseA", "caseB"])
    @pytest.mark.parametrize("seed", [1, 7])
    def test_every_trial_at_the_benchmark_prior_converges(self, monkeypatch, scenario, seed):
        results = self.practical_results(monkeypatch, scenario, 111.8, 40, seed)
        assert all(r.converged for r in results)

    def test_a_start_whose_last_steps_tie_at_its_minimum_converges(self):
        # its last steps raise the cost by rounding only, a few parts in 1e15;
        # accepted as ties, they lower the damping, and the Gauss-Newton step
        # keeps shrinking until it is short enough to converge the start
        rng = np.random.default_rng(11)
        sigma = rng.uniform(0.3, 3.0, 5)
        meas, pos, _, inits = random_batch(rng, 2, 5, sigma)
        want, per_start = reference_mle(meas[1], pos[1], sigma, 2.0, inits[1])
        assert per_start == [(True, 13)]
        assert_same_result(mle_estimate(meas[1], pos[1], sigma, 2.0, inits[1]), want)


class TestMirrorAmbiguity:
    # Sensors on a circle of radius R about c see a source p at distance a
    # from c and its circle-inversion mirror p* = c + R^2 (p - c) / a^2 in
    # the fixed distance ratio |s - p*| = (R / a) |s - p| (at zero height).
    # That ratio is a constant dB offset, which the profiled P0 absorbs, so
    # the RSSD measurements cannot tell p from p*.
    R = 1000.0
    CENTER = np.array([40.0, -30.0])
    SOURCE = CENTER + [300.0, 400.0]  # a = 500 m

    def problem(self, height):
        _, _, pos, sigma_eff = setup_problem()  # caseA's design, R = 1000 m
        pos = pos + [*self.CENTER, 0.0]
        pos[:, 2] = height
        d_sq = np.sum((pos[:, :2] - self.SOURCE) ** 2, axis=1) + height**2
        meas = 17.0 - 10.0 * 2.0 * np.log10(np.sqrt(d_sq))  # noiseless, P0 = 17 dB
        offset = self.SOURCE - self.CENTER
        mirror = self.CENTER + self.R**2 * offset / np.dot(offset, offset)
        return meas, pos, sigma_eff, mirror

    def cost(self, xy, meas, pos, sigma_eff):
        res, p0, _ = _profiled_residual(xy, meas, pos, 1.0 / sigma_eff, 2.0)
        return float(res @ res), p0

    def test_mirror_fits_exactly_at_zero_height(self):
        meas, pos, sigma_eff, mirror = self.problem(0.0)
        np.testing.assert_allclose(np.hypot(*(pos[:, :2] - self.CENTER).T), self.R)
        ratio = np.hypot(*(pos[:, :2] - mirror).T) / np.hypot(*(pos[:, :2] - self.SOURCE).T)
        np.testing.assert_allclose(ratio, self.R / 500.0, rtol=1e-12)
        cost, p0 = self.cost(mirror, meas, pos, sigma_eff)
        assert cost < 1e-20  # zero up to rounding, 2 km from the source
        assert p0 == pytest.approx(17.0 + 20.0 * math.log10(self.R / 500.0), abs=1e-9)
        assert self.cost(self.CENTER, meas, pos, sigma_eff)[0] > 1.0
        # started there, the ML estimate stays at the mirror
        got = mle_estimate(meas, pos, sigma_eff, 2.0, SourceParams(0.0, mirror))
        assert np.linalg.norm(got.theta_hat[1:] - mirror) < 1e-6

    def test_height_breaks_the_tie_only_weakly(self):
        # at caseA's 100 m the mirror's cost is positive, yet far below the
        # cost that measurement noise alone gives at the source: about
        # N - 1 = 7, the mean of a chi-square with 7 degrees of freedom
        meas, pos, sigma_eff, mirror = self.problem(100.0)
        cost, _ = self.cost(mirror, meas, pos, sigma_eff)
        assert 1e-3 < cost < 0.1
        assert self.cost(self.SOURCE, meas, pos, sigma_eff)[0] < 1e-20


class TestBoundedMemory:
    def test_peak_does_not_grow_with_the_number_of_problems(self):
        rng = np.random.default_rng(8)
        sigma = rng.uniform(0.3, 3.0, 8)
        meas, pos, _, inits = random_batch(rng, 400, 8, sigma, init_scale=50.0)
        peaks = []
        for n_problems in (40, 400):
            tracemalloc.start()
            try:
                mle_estimate_many(
                    meas[:n_problems], pos[:n_problems], sigma, 2.0, inits[:n_problems],
                    multistart_spread=100.0,
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks
