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
    ScenarioError,
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

    @pytest.mark.parametrize("prior_std", [0.0, 111.8])
    def test_constant_shift_over_many_seeds(self, prior_std):
        # a shift changes the cost's rounding, not its minimum; counting a
        # rounding-level cost tie as a rise stalls a start short of its fixed
        # point, by up to 5.7e-8 m on these seeds with no tie allowance, and
        # by up to 2.6e-7 m with an allowance relative to the cost
        sc, placement, pos, sigma_eff = setup_problem()
        truth = SourceParams(p0=0.0, position=[0.0, 0.0])
        init = SourceParams(p0=0.0, position=[90.0, 40.0])
        gaps = []
        for seed in range(60, 100):
            meas = simulate_measurements(sc, placement, truth, seed=seed)
            base = mle_estimate(meas, pos, sigma_eff, sc.gamma, init, prior_std)
            shifted = mle_estimate(meas + 23.5, pos, sigma_eff, sc.gamma, init, prior_std)
            assert base.converged and shifted.converged
            gaps.append(np.linalg.norm(shifted.theta_hat[1:] - base.theta_hat[1:]))
        assert max(gaps) < 1e-9, max(gaps)


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
            ("prior", math.inf, "prior_std"),
            ("prior", math.nan, "prior_std"),
            ("prior", -5.0, "prior_std"),
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
        prior_std = 100.0
        if field == "prior":
            prior_std = value
        elif field == "sigma":
            sigma[2] = value
        elif field == "meas":
            meas[4] = value
        else:
            pos[1, 2] = value
        init = SourceParams(0.0, [10.0, -20.0])
        with pytest.raises(ValueError, match=named):
            mle_estimate(meas, pos, sigma, 2.0, init, prior_std=prior_std)
        with pytest.raises(ValueError, match=named):
            mle_estimate_many(
                np.stack([meas, meas]), np.stack([pos, pos]), sigma, 2.0, [init, init],
                prior_std=prior_std,
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

    @pytest.mark.parametrize("prior_std", [True, "100", 10**400])
    def test_prior_std_must_be_a_finite_number(self, prior_std):
        # True would run with a 1 m prior
        meas, pos, sigma = random_problem(np.random.default_rng(3), 6)
        init = SourceParams(0.0, [10.0, -20.0])
        with pytest.raises(ScenarioError, match="prior_std"):
            mle_estimate(meas, pos, sigma, 2.0, init, prior_std=prior_std)

    @pytest.mark.parametrize("gamma", [True, math.nan, math.inf, -2.0, 0.0, "2"])
    def test_gamma_must_be_a_positive_finite_number(self, gamma):
        # unchecked, True ran as gamma = 1, nan and inf gave a non-finite P0,
        # -2.0 converged on a fit with the path loss reversed and 0.0 returned
        # the origin; the rejection comes before any arithmetic
        meas, pos, sigma = random_problem(np.random.default_rng(3), 6)
        init = SourceParams(0.0, [10.0, -20.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ScenarioError, match="gamma"):
                mle_estimate(meas, pos, sigma, gamma, init, prior_std=100.0)
            with pytest.raises(ScenarioError, match="gamma"):
                mle_estimate_many(meas[None], pos[None], sigma, gamma, [init])


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


# -- lockstep starts against the per-start reference --------------------------
#
# The functions below are the per-start damped Gauss-Newton loop that
# mle_estimate runs, one start at a time on 1-D arrays and Python floats,
# and its pick among the starts, kept frozen as the reference: the lockstep
# version must reproduce them bit for bit. Their arithmetic is elementwise
# products and 1-D sums, and a closed-form 2x2 solve. The starts other than
# the init come from estimator._model_roots, which TestModelRoots checks.

_DAMPING_START = 1e-3
_DAMPING_UP = 10.0
_DAMPING_DOWN = 0.1
_STEP_TOL = 1e-8
_MAX_ITERS = 200
_EPS = np.finfo(float).eps


def _profiled_residual(xy, measurements, pos, inv_std, gamma):
    """Weighted residuals with the optimal P0 substituted, that P0, d^2 and
    the rounding allowance of the cost the residuals sum to."""
    d_sq = (xy[0] - pos[:, 0]) ** 2 + (xy[1] - pos[:, 1]) ** 2 + pos[:, 2] ** 2
    log_term = 5.0 * gamma * np.log10(d_sq)  # 10*gamma*log10(d)
    shifted = measurements + log_term
    wsum = np.sum(inv_std**2)
    p0 = float(np.sum(inv_std**2 * shifted) / wsum)
    res = inv_std * (shifted - p0)
    tie = float(_EPS * np.sum(np.abs(res) * inv_std * (np.abs(measurements) + np.abs(log_term))))
    return res, p0, d_sq, tie


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
    res, _, d_sq, _ = _profiled_residual(xy, measurements, pos, inv_std, gamma)
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
        res_t, _, d_sq_t, tie = _profiled_residual(trial, measurements, pos, inv_std, gamma)
        cost_t = float(np.sum(res_t * res_t))
        # a cost within rounding of the current one is a tie, and accepted
        if cost_t <= cost + tie:
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


def _laplace_score(xy, cost, prior, measurements, pos, inv_std, gamma, prior_std):
    """-2 log posterior mass of a refined start, up to a constant; inf if not finite."""
    with np.errstate(all="ignore"):
        _, _, d_sq, _ = _profiled_residual(xy, measurements, pos, inv_std, gamma)
        jx, jy = _jacobian(xy, pos, inv_std, gamma, d_sq)
        inv_var = np.float64(prior_std) ** -2
        h00 = np.sum(jx * jx) + inv_var
        h11 = np.sum(jy * jy) + inv_var
        h01 = np.sum(jx * jy)
        score = cost + np.sum((xy - prior) ** 2) * inv_var + np.log(h00 * h11 - h01 * h01)
    return float(score) if np.isfinite(score) else math.inf


def reference_mle(measurements, pos, sigma_eff, gamma, init, prior_std=0.0):
    """mle_estimate with one _solve_from call per start, in start order."""
    inv_std = 1.0 / sigma_eff
    prior = np.asarray(init.position, dtype=float)
    starts = [prior]
    if prior_std > 0:
        starts += list(
            estimator._model_roots(
                measurements[None], pos[None, :, 0], pos[None, :, 1], pos[None, :, 2] ** 2,
                prior[None], gamma,
            )[0]
        )

    solved, per_start = [], []
    for s in starts:
        xy, cost, conv, iters = _solve_from(s, measurements, pos, inv_std, gamma)
        per_start.append((conv, iters))
        solved.append((xy, cost))
    # the first start with the lowest score; only a finite score wins
    best = 0
    if prior_std > 0:
        scores = [
            _laplace_score(xy, cost, prior, measurements, pos, inv_std, gamma, prior_std)
            for xy, cost in solved
        ]
        for k, score in enumerate(scores):
            if score < scores[best]:
                best = k
    xy, cost = solved[best]
    _, p0, _, _ = _profiled_residual(xy, measurements, pos, inv_std, gamma)
    theta = np.array([p0, xy[0], xy[1]])
    result = MleResult(
        theta_hat=theta,
        residual_norm=math.sqrt(cost),
        converged=per_start[best][0] and bool(np.all(np.isfinite(theta))),
        iterations=sum(iters for _, iters in per_start),
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
    def test_randomized_scenarios_and_priors(self):
        rng = np.random.default_rng(2024)
        for _ in range(30):
            meas, pos, sigma = random_problem(rng, int(rng.integers(3, 20)))
            init = SourceParams(0.0, rng.normal(0.0, 300.0, 2))
            prior_std = float(rng.choice([0.0, 5.0, 150.0, 2000.0]))
            want, _ = reference_mle(meas, pos, sigma, 2.0, init, prior_std)
            got = mle_estimate(meas, pos, sigma, 2.0, init, prior_std=prior_std)
            assert_same_result(got, want)

    def test_designed_placement_with_simulated_measurements(self):
        sc, placement, pos, sigma_eff = setup_problem(120.0)
        truth = SourceParams(p0=0.0, position=[0.0, 0.0])
        for t in range(10):
            meas = simulate_measurements(sc, placement, truth, seed=900 + t)
            init = SourceParams(0.0, [80.0 - 20.0 * t, 15.0 * t])
            want, _ = reference_mle(meas, pos, sigma_eff, sc.gamma, init, 111.8)
            got = mle_estimate(meas, pos, sigma_eff, sc.gamma, init, prior_std=111.8)
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
                    got = mle_estimate(meas, pos, sigma, 2.0, init, prior_std=scale)
                assert_same_result(got, want)
        # at 1e160 every trial overflows, and so do the model's rows: all
        # three starts are the init, and each runs to the iteration cap
        assert per_start == [(False, 200)] * 3

    def test_starts_that_stop_on_damping(self, monkeypatch):
        # with noise levels of 1e-9 dB the cost is dominated by rounding
        # noise; without a tie allowance trial steps keep being rejected until
        # the damping passes 1e15, while other starts of the same call converge
        monkeypatch.setattr(estimator, "_COST_RESOLUTION", 0.0)
        monkeypatch.setitem(globals(), "_EPS", 0.0)
        rng = np.random.default_rng(5)
        stopped = 0
        for _ in range(10):
            meas, pos, sigma = random_problem(rng, int(rng.integers(3, 9)), sigma_scale=1e-9)
            init = SourceParams(0.0, rng.normal(0.0, 300.0, 2))
            want, per_start = reference_mle(meas, pos, sigma, 2.0, init, 100.0)
            got = mle_estimate(meas, pos, sigma, 2.0, init, prior_std=100.0)
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
        # the model's roots lie on the line of the sensors and the init too
        want, per_start = reference_mle(meas, pos, sigma, 2.0, init, 50.0)
        assert per_start == [(False, 1)] * 3
        got = mle_estimate(meas, pos, sigma, 2.0, init, prior_std=50.0)
        assert_same_result(got, want)


class TestRejectedSteps:
    def test_rejected_steps_match_the_reference_bit_for_bit(self, monkeypatch):
        # a rejected step leaves the iterate, and so its normal equations, as
        # they were; the lockstep forms them again and keeps the bits of the
        # reference, which forms them at every iteration of one start
        rng = np.random.default_rng(3)
        sigma_eff = rng.uniform(0.3, 3.0, 6)
        meas, pos, _, inits = random_batch(rng, 4, 6, sigma_eff)
        got = mle_estimate_many(meas, pos, sigma_eff, 2.0, inits)

        points = []
        reference_jacobian = _jacobian

        def recording_jacobian(xy, *args):
            points.append(tuple(xy.tolist()))
            return reference_jacobian(xy, *args)

        monkeypatch.setitem(globals(), "_jacobian", recording_jacobian)
        for t in range(4):
            want, _ = reference_mle(meas[t], pos[t], sigma_eff, 2.0, inits[t])
            assert_same_result(got[t], want)
        monkeypatch.undo()
        # rejected steps happen here: an iteration forms J where the one before did
        assert any(a == b for a, b in zip(points, points[1:]))


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


def assert_many_matches_one_at_a_time(meas, pos, sigma, inits, prior_std):
    got = mle_estimate_many(meas, pos, sigma, 2.0, inits, prior_std=prior_std)
    assert len(got) == len(inits)
    for t, result in enumerate(got):
        want = mle_estimate(meas[t], pos[t], sigma, 2.0, inits[t], prior_std=prior_std)
        assert_same_result(result, want)


class TestManyMatchesOneAtATime:
    # 3 starts per problem run in blocks of 341 problems (1023 rows), so 342
    # problems cross a block boundary; one start per problem runs 1024
    # problems per block
    @pytest.mark.parametrize("n_problems", [1, 20, 341, 342])
    @pytest.mark.parametrize("prior_std", [0.0, 111.8])
    def test_problem_counts_across_blocks(self, n_problems, prior_std):
        rng = np.random.default_rng(100 + n_problems)
        sigma = rng.uniform(0.3, 3.0, 7)
        meas, pos, _, inits = random_batch(rng, n_problems, 7, sigma)
        assert_many_matches_one_at_a_time(meas, pos, sigma, inits, prior_std)

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
            results = mle_estimate_many(meas, pos, sigma, 2.0, inits, prior_std=1e160)
        # around a far-off init every trial step overflows: each of its 3
        # starts runs to the iteration cap, next to problems that converge
        assert all(results[t].iterations == 3 * 200 for t in far)
        assert not any(results[t].converged for t in far)
        assert any(r.converged for r in results)

    def test_singular_normal_matrix_in_a_batch(self):
        # the line problem of the per-start test: each of its starts hits an
        # exactly singular normal matrix, the other problems' starts do not
        n = 5
        line = np.array([-700.0, -300.0, 100.0, 450.0, 900.0])
        sigma = np.full(n, 1e-9)
        rng = np.random.default_rng(5)
        meas, pos, _, inits = random_batch(rng, 21, n, sigma)
        pos[7] = np.column_stack([line, line, np.zeros(n)])
        meas[7] = [-55.0, -61.0, -58.5, -63.0, -57.0]
        inits[7] = SourceParams(0.0, [20.0, 20.0])
        _, per_start = reference_mle(meas[7], pos[7], sigma, 2.0, inits[7], 50.0)
        assert per_start == [(False, 1)] * 3
        assert_many_matches_one_at_a_time(meas, pos, sigma, inits, 50.0)

    def test_a_start_on_a_sensor_never_wins(self):
        # an init on a sensor at zero height has a NaN cost (log of zero
        # distance) that no step repairs; its score is not finite, so the
        # pick takes one of the model's roots, while np.argmin of the raw
        # scores would take the NaN
        rng = np.random.default_rng(21)
        sigma = rng.uniform(0.3, 3.0, 6)
        meas, pos, _, inits = random_batch(rng, 21, 6, sigma, init_scale=50.0)
        for t in (0, 13, 20):
            pos[t, 0] = [*inits[t].position, 0.0]
        with np.errstate(all="ignore"):
            got = mle_estimate_many(meas, pos, sigma, 2.0, inits, prior_std=50.0)
            for t in (0, 13, 20):
                want, _ = reference_mle(meas[t], pos[t], sigma, 2.0, inits[t], 50.0)
                assert_same_result(got[t], want)
                assert np.all(np.isfinite(got[t].theta_hat))
                assert math.isfinite(got[t].residual_norm)
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
        results = mle_estimate_many(meas, pos, sigma, 2.0, inits, prior_std=100.0)
        # the 40 x 3 starts fill one block, and the running set only shrinks
        assert rows[0] == 40 * 3
        assert rows == sorted(rows, reverse=True)
        # a start is solved once per iteration it runs, and never after it stops
        assert sum(rows) == sum(r.iterations for r in results)

    @pytest.mark.parametrize("prior_std", [0.0, 100.0])
    def test_a_trial_on_a_sensor_is_rejected_like_a_non_finite_one(self, monkeypatch, prior_std):
        # the first step of problem 1's first start lands exactly on its
        # sensor 2, at zero height; that trial must stay out of the residual
        # arithmetic (log of a zero distance) and be rejected as a non-finite
        # trial is: the damping rises and the start stays where it is
        rng = np.random.default_rng(9)
        sigma = rng.uniform(0.3, 3.0, 6)
        meas, pos, _, inits = random_batch(rng, 3, 6, sigma, init_scale=50.0)
        inits[1] = SourceParams(0.0, [10.0, 20.0])
        pos[1, 2] = [30.0, 50.0, 0.0]
        row = 1 if prior_std == 0 else 3
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
                results = mle_estimate_many(meas, pos, sigma, 2.0, inits, prior_std=prior_std)
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
        row = 4  # problem 1's second start

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
                results = mle_estimate_many(meas, pos, sigma, 2.0, inits, prior_std=100.0)
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
        # stops on a short first step, which is no sign of convergence (the
        # model's roots fall back to the prior: at that magnitude the sensor
        # offsets from it round to zero)
        results = self.practical_results(monkeypatch, case_a(), 1e150, 5, 7)
        assert all(r.iterations == 3 for r in results)  # 3 starts, 1 iteration each
        assert not any(r.converged for r in results)
        for r in results:
            assert np.linalg.norm(r.theta_hat[1:]) > 1e149

    def test_converged_starts_far_from_the_swarm_are_stationary_points(self, monkeypatch):
        # with priors about 1e6 m off, one of the model's roots of every
        # trial stops converged tens of km from its 1 km swarm; each
        # converged start is a genuine stationary point of the profiled cost:
        # its Gauss-Newton decrement g^T (J^T J)^-1 g, with g = J^T r, is a
        # rounding-level fraction of the cost r^T r
        solve = estimator._solve_lockstep
        runs = []

        def recording(starts, *args):
            runs.append((args, solve(starts, *args)))
            return runs[-1][1]

        monkeypatch.setattr(estimator, "_solve_lockstep", recording)
        experiments.run_practical(case_a(), prior_std=1e6, trials=21, seed=1)
        assert len(runs) == 1
        (meas, px, py, h_sq, model), (xy, cost, converged, _) = runs[0]
        centre = np.column_stack([px.mean(axis=1), py.mean(axis=1)])
        far = np.linalg.norm(xy - centre, axis=1) > 5000.0
        assert np.all(np.any((converged & far).reshape(-1, 3), axis=1))
        d_sq = estimator._dist_sq(xy, px, py, h_sq)
        res, _, _ = estimator._profiled_residual(d_sq, meas, model)
        jac = np.stack(estimator._jacobian(xy, px, py, model, d_sq), axis=-1)
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

    def test_converged_describes_the_returned_start(self, monkeypatch):
        # capped at 8 iterations, one trial of this batch has a start that
        # converged but returns another, which ran to the cap: its result
        # is not converged
        monkeypatch.setattr(estimator, "_MAX_ITERS", 8)
        monkeypatch.setitem(globals(), "_MAX_ITERS", 8)
        rng = np.random.default_rng(0)
        sigma = rng.uniform(0.3, 3.0, 6)
        meas, pos, _, inits = random_batch(rng, 40, 6, sigma)
        got = mle_estimate_many(meas, pos, sigma, 2.0, inits, prior_std=300.0)
        mixed = 0
        for t, result in enumerate(got):
            want, per_start = reference_mle(meas[t], pos[t], sigma, 2.0, inits[t], 300.0)
            assert_same_result(result, want)
            mixed += any(conv for conv, _ in per_start) and not result.converged
        assert mixed == 1


class TestMirrorAmbiguity:
    # Sensors on a circle of radius R about c, all at height h, see a source
    # p at distance a from c and its mirror p* = c + (R^2 + h^2) (p - c) / a^2
    # in the fixed distance ratio |s - p*| = (sqrt(R^2 + h^2) / a) |s - p|,
    # with |s - p| the 3-D distance: writing u = s - c and v = p - c,
    # |u - v*|^2 + h^2 = (R^2 + h^2) / a^2 (|u - v|^2 + h^2). That ratio is a
    # constant dB offset, which the profiled P0 absorbs, so the RSSD
    # measurements cannot tell p from p* at any height.
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
        mirror = self.CENTER + (self.R**2 + height**2) * offset / np.dot(offset, offset)
        return meas, pos, sigma_eff, mirror

    def cost(self, xy, meas, pos, sigma_eff):
        res, p0, _, _ = _profiled_residual(xy, meas, pos, 1.0 / sigma_eff, 2.0)
        return float(res @ res), p0

    @pytest.mark.parametrize("height", [0.0, 100.0, 600.0])
    def test_mirror_fits_exactly_at_every_height(self, height):
        meas, pos, sigma_eff, mirror = self.problem(height)
        np.testing.assert_allclose(np.hypot(*(pos[:, :2] - self.CENTER).T), self.R)
        ratio_sq = (np.sum((pos[:, :2] - mirror) ** 2, axis=1) + height**2) / (
            np.sum((pos[:, :2] - self.SOURCE) ** 2, axis=1) + height**2
        )
        np.testing.assert_allclose(ratio_sq, (self.R**2 + height**2) / 500.0**2, rtol=1e-12)
        cost, p0 = self.cost(mirror, meas, pos, sigma_eff)
        assert cost < 1e-20  # zero up to rounding, 1.5 km or more from the source
        assert p0 == pytest.approx(
            17.0 + 10.0 * math.log10((self.R**2 + height**2) / 500.0**2), abs=1e-9
        )
        assert self.cost(self.CENTER, meas, pos, sigma_eff)[0] > 1.0
        # started there, the ML estimate stays at the mirror
        got = mle_estimate(meas, pos, sigma_eff, 2.0, SourceParams(0.0, mirror))
        assert np.linalg.norm(got.theta_hat[1:] - mirror) < 1e-6


def model_roots(meas, pos, prior, gamma=2.0):
    """estimator._model_roots on (T, N) measurements and (T, N, 3) positions."""
    return estimator._model_roots(
        meas, pos[:, :, 0], pos[:, :, 1], pos[:, :, 2] ** 2, prior, gamma
    )


def noiseless_swarms(rng, n_problems, n):
    """Sensors at their own radius and height about each prior, and a source."""
    priors = rng.uniform(-500.0, 500.0, (n_problems, 2))
    radius = rng.uniform(400.0, 1500.0, (n_problems, n))
    angle = rng.uniform(0.0, 2.0 * math.pi, (n_problems, n))
    pos = np.stack(
        [
            priors[:, :1] + radius * np.cos(angle),
            priors[:, 1:] + radius * np.sin(angle),
            rng.uniform(0.0, 300.0, (n_problems, n)),
        ],
        axis=2,
    )
    sources = priors + rng.normal(0.0, 300.0, (n_problems, 2))
    d_sq = np.sum((pos[:, :, :2] - sources[:, None]) ** 2, axis=2) + pos[:, :, 2] ** 2
    meas = 17.0 - 5.0 * 2.0 * np.log10(d_sq)
    return meas, pos, priors, sources


class TestModelRoots:
    @pytest.mark.parametrize("height", [0.0, 100.0, 600.0])
    def test_a_concentric_swarm_gives_the_source_and_its_mirror(self, height):
        mirror_problem = TestMirrorAmbiguity()
        meas, pos, _, mirror = mirror_problem.problem(height)
        roots = model_roots(meas[None], pos[None], mirror_problem.CENTER[None])[0]
        err = [np.linalg.norm(roots - point, axis=1) for point in (mirror_problem.SOURCE, mirror)]
        assert min(err[0][0] + err[1][1], err[0][1] + err[1][0]) < 1e-6, roots

    @pytest.mark.parametrize("n", [3, 4, 8])
    def test_a_heterogeneous_swarm_has_the_source_as_a_root(self, n):
        # with its own radius and height per sensor the system is
        # inhomogeneous; noiseless, the source still solves it exactly
        meas, pos, priors, sources = noiseless_swarms(np.random.default_rng(n), 20, n)
        roots = model_roots(meas, pos, priors)
        err = np.min(np.linalg.norm(roots - sources[:, None], axis=2), axis=1)
        assert err.max() < 1e-6, err.max()

    def test_a_stacked_call_gives_each_problem_the_bits_of_a_one_problem_call(self):
        rng = np.random.default_rng(12)
        meas, pos, priors, _ = noiseless_swarms(rng, 9, 6)
        meas += rng.normal(0.0, 1.0, meas.shape)
        stacked = model_roots(meas, pos, priors)
        for t in range(len(meas)):
            np.testing.assert_array_equal(
                stacked[t], model_roots(meas[t : t + 1], pos[t : t + 1], priors[t : t + 1])[0]
            )

    @pytest.mark.parametrize(
        "scenario, prior_std, trials, seed",
        [(case_a(), 1e150, 45, 7), (case_b(), 1e6, 45, 7), (case_a(), 2e4, 40, 1)],
        ids=["far", "cap", "mid"],
    )
    def test_far_priors_raise_no_warning(self, scenario, prior_std, trials, seed):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            experiments.run_practical(scenario, prior_std, trials=trials, seed=seed)

    def test_no_start_runs_to_the_iteration_cap_at_a_far_prior(self, monkeypatch):
        # a 5x5 restart grid of +-2 prior_std about priors 1e6 m off ran 73 of
        # its starts to the cap here; the model's roots and the prior run none
        solve = estimator._solve_lockstep
        iterations = []

        def recording(*args):
            out = solve(*args)
            iterations.append(out[3])
            return out

        monkeypatch.setattr(estimator, "_solve_lockstep", recording)
        experiments.run_practical(case_b(), prior_std=1e6, trials=45, seed=7)
        assert len(iterations) == 1 and len(iterations[0]) == 45 * 3
        assert not np.any(iterations[0] == estimator._MAX_ITERS)


class TestBoundedMemory:
    def test_peak_does_not_grow_with_the_number_of_problems(self):
        rng = np.random.default_rng(8)
        sigma = rng.uniform(0.3, 3.0, 8)
        meas, pos, _, inits = random_batch(rng, 1364, 8, sigma, init_scale=50.0)
        peaks = []
        # 341 problems of 3 starts fill one block of rows, 1364 fill four
        for n_problems in (341, 1364):
            tracemalloc.start()
            try:
                mle_estimate_many(
                    meas[:n_problems], pos[:n_problems], sigma, 2.0, inits[:n_problems],
                    prior_std=100.0,
                )
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        assert peaks[1] <= 1.5 * peaks[0], peaks
