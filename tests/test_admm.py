"""Optimizer tests: subproblem solvers, full runs, and the distance rule."""

import math
import warnings
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from scipy.optimize import minimize

from rssdgeom import admm, cli
from rssdgeom.admm import (
    AdmmOptions,
    TraceRecord,
    _mm_rows,
    _to_user_frame,
    check_sensor_count,
    g_update_mm,
    mm_row_update,
    optimal_distance,
    optimize,
    optimize_many,
    singular_value_map,
    uniform_init,
    x_update,
)
from rssdgeom.experiments import resize_sensors
from rssdgeom.fim import (
    coupling_matrix,
    fim_full,
    g0_bound,
    is_feasible,
    loss_slope,
    noise_weights,
    sensitivity_diag,
    solver_arc_offset,
)
from rssdgeom.model import (
    Placement,
    Scenario,
    ScenarioError,
    SourceParams,
    Variant,
    case_a,
    case_b,
    sensor_positions,
    wrap_angle,
    wrap_angles,
)
from rssdgeom.numerics import psd_sqrt, row_dots, sym_eig_max

TWO_PI = 2.0 * math.pi
SCENARIOS = Path(__file__).resolve().parent.parent / "scenarios"


class TestAdmmOptions:
    @pytest.mark.parametrize(
        "field, value",
        [
            ("max_outer", 2.5),
            ("max_outer", 3.0),
            ("max_outer", True),
        ],
    )
    def test_rejects_non_finite_and_non_integral(self, field, value):
        with pytest.raises(ValueError, match=field):
            AdmmOptions(**{field: value})

    def test_accepts_numpy_scalars(self):
        assert AdmmOptions(max_outer=np.int64(5)).max_outer == 5

    def test_max_outer_is_the_only_setting(self):
        # the penalty and the tolerances are constants of the solver
        assert [f.name for f in fields(AdmmOptions)] == ["max_outer"]
        for name in ("rho", "admm_tol", "mm_tol", "max_inner"):
            with pytest.raises(TypeError, match=name):
                AdmmOptions(**{name: 1.0})


class TestUniformInit:
    def test_full_circle_eight(self):
        p = uniform_init(8, TWO_PI)
        expect = np.radians([45, 90, 135, 180, 225, 270, 315, 0])  # 360 wraps to 0
        np.testing.assert_allclose(p.angles, expect, atol=1e-12)

    def test_half_circle_four(self):
        p = uniform_init(4, math.pi)
        np.testing.assert_allclose(p.angles, np.radians([45, 90, 135, 180]), atol=1e-12)

    def test_two_sensors(self):
        p = uniform_init(2, TWO_PI / 3)
        np.testing.assert_allclose(p.angles, np.radians([60, 120]), atol=1e-12)

    def test_rejects_tiny_swarm(self):
        with pytest.raises(ValueError):
            uniform_init(1, math.pi)


class TestSingularValueMap:
    def test_zero_sigma(self):
        assert singular_value_map(0.0, 2.0) == pytest.approx(1.0, abs=1e-15)

    def test_unit_case(self):
        assert singular_value_map(1.0, 1.0) == pytest.approx(2.0, abs=1e-15)

    def test_quadratic_formula(self):
        # (5 + sqrt(29)) / 1
        assert singular_value_map(5.0, 0.5) == pytest.approx(10.385164807134505, rel=1e-12)

    def test_is_positive_root(self):
        rng = np.random.default_rng(21)
        for _ in range(200):
            sigma = rng.uniform(0, 10)
            rho = rng.uniform(0.01, 10)
            lam = singular_value_map(sigma, rho)
            assert lam > 0
            assert rho * lam**2 - sigma * lam - 2 == pytest.approx(0.0, abs=1e-9)

    def test_array_form_equals_float_form_bitwise(self):
        # sigma**2 of a float is libm pow, which differs from sigma * sigma in
        # the last bit for some sigma (320449.5489817773 is one, seen in an
        # N = 256 design); the array form must round the same way
        rng = np.random.default_rng(20)
        sigma = np.concatenate([[320449.5489817773], rng.uniform(0.0, 1e6, 100_000)])
        for rho in (1e-6, 0.37):
            want = [(s + math.sqrt(s**2 + 8.0 * rho)) / (2.0 * rho) for s in sigma.tolist()]
            assert singular_value_map(sigma, rho).tobytes() == np.array(want).tobytes()


def x_objective(x, j_k, rho):
    """ln det (X'X)^-1 + rho/2 ||X||^2 - <J, X> (the X-subproblem objective)."""
    sign, logdet = np.linalg.slogdet(x.T @ x)
    if sign <= 0:
        return math.inf
    return -logdet + 0.5 * rho * np.sum(x * x) - np.sum(j_k * x)


def x_objective_grad(x, j_k, rho):
    return -2.0 * x @ np.linalg.inv(x.T @ x) + rho * x - j_k


class TestXUpdate:
    def test_zero_input_inflates_to_unit_values(self):
        x = x_update(np.zeros((6, 2)), rho=2.0)
        s = np.linalg.svd(x, compute_uv=False)
        np.testing.assert_allclose(s, [1.0, 1.0], atol=1e-12)

    def test_unit_singular_values(self):
        # J with both singular values 1: orthonormal columns
        j_k = np.zeros((5, 2))
        j_k[0, 0] = 1.0
        j_k[1, 1] = 1.0
        x = x_update(j_k, rho=1.0)
        s = np.linalg.svd(x, compute_uv=False)
        np.testing.assert_allclose(s, [2.0, 2.0], atol=1e-12)

    def test_beats_random_perturbations(self):
        rng = np.random.default_rng(22)
        j_k = rng.normal(size=(8, 2))
        x = x_update(j_k, rho=1.0)
        base = x_objective(x, j_k, 1.0)
        # 1e4 random perturbations at radius 1e-3 never beat the solution
        noise = rng.normal(size=(10_000, 8, 2))
        noise /= np.linalg.norm(noise, axis=(1, 2))[:, None, None]
        for z in noise:
            assert x_objective(x + 1e-3 * z, j_k, 1.0) >= base - 1e-12

    def test_beats_generic_minimizer(self):
        rng = np.random.default_rng(23)
        for _ in range(10):
            n = int(rng.integers(3, 9))
            rho = float(rng.uniform(0.2, 5.0))
            j_k = rng.normal(size=(n, 2)) * rng.uniform(0.5, 3.0)
            x = x_update(j_k, rho)
            ours = x_objective(x, j_k, rho)
            best = math.inf
            for start in (j_k / rho + 0.5 * rng.normal(size=(n, 2)), x + 0.3 * rng.normal(size=(n, 2))):
                res = minimize(
                    lambda v: x_objective(v.reshape(n, 2), j_k, rho),
                    start.ravel(),
                    jac=lambda v: x_objective_grad(v.reshape(n, 2), j_k, rho).ravel(),
                    method="L-BFGS-B",
                    options={"maxiter": 2000, "ftol": 1e-14, "gtol": 1e-12},
                )
                best = min(best, res.fun)
            assert ours <= best + 1e-6


class TestMmRowUpdate:
    def test_interior_case(self):
        bound = g0_bound(math.pi / 2)
        g = mm_row_update(np.array([0.0, -1.0]), bound)
        np.testing.assert_allclose(g, [0.0, 1.0], atol=1e-12)

    def test_endpoint_case(self):
        # -q points at [0,-1], infeasible; candidates give values 1 and 0
        bound = g0_bound(math.pi / 2)
        g = mm_row_update(np.array([0.0, 1.0]), bound)
        np.testing.assert_allclose(g, [1.0, 0.0], atol=1e-12)

    def test_zero_q_keeps_previous(self):
        bound = g0_bound(math.pi)
        prev = np.array([0.6, 0.8])
        np.testing.assert_allclose(mm_row_update(np.zeros(2), bound, prev=prev), prev)

    def test_matches_dense_arc_grid(self):
        # 1e5 random (q, beta_max) pairs, each checked against a 1e4-point
        # sweep of the feasible arc
        rng = np.random.default_rng(24)
        n_grid = 10_000
        for beta_max in rng.uniform(0.05, TWO_PI, 100):
            bound = g0_bound(beta_max)
            if beta_max <= math.pi:
                arc = np.linspace(0.0, beta_max, n_grid)
            else:
                lo = math.pi / 2 - beta_max / 2
                arc = np.linspace(lo, lo + beta_max, n_grid)
            cand = np.column_stack([np.cos(arc), np.sin(arc)])
            qs = rng.normal(size=(1000, 2))
            grid_vals = cand @ qs.T  # (n_grid, 1000)
            grid_min = grid_vals.min(axis=0)
            for q, gmin in zip(qs, grid_min):
                g = mm_row_update(q, bound)
                assert float(g @ q) <= gmin + 1e-9
                assert np.all(g >= bound.g0 - 1e-12)


def reference_row_update(q, bound, prev):
    """The per-row MM rule written out one row at a time.

    The unconstrained minimizer -q/|q| if it satisfies the vector bound, else
    the arc endpoint with the lower g.T q, ties going to the smaller angle;
    q = 0 keeps the previous row.
    """
    nq = float(np.linalg.norm(q))
    if nq == 0.0:
        return np.array(prev, dtype=float)
    interior = -q / nq
    if np.all(interior >= bound.g0):
        return interior
    if bound.beta_max <= math.pi:
        angles = (0.0, bound.beta_max)
    else:
        angles = ((math.pi + bound.beta_max) / 2.0, (5.0 * math.pi - bound.beta_max) / 2.0)
    best, best_val = None, math.inf
    for a in angles:
        cand = np.array([math.cos(a), math.sin(a)])
        val = float(cand @ q)
        if val < best_val:
            best, best_val = cand, val
    return best


class TestBatchedRowUpdate:
    BETAS = (0.3, 1.0, math.pi / 2, 2.5, math.pi, 3.5, 4.7, 6.0, TWO_PI)

    def test_equals_scalar_rule_bitwise(self):
        rng = np.random.default_rng(31)
        seen = {"zero": 0, "interior": 0, "endpoint": 0, "tie": 0}
        for beta_max in self.BETAS:
            bound = g0_bound(beta_max)
            if beta_max <= math.pi:
                ends = [np.array([1.0, 0.0]), np.array([math.cos(beta_max), math.sin(beta_max)])]
                sign = 1.0
            else:
                ends = [
                    np.array([math.cos(a), math.sin(a)])
                    for a in ((math.pi + beta_max) / 2, (5 * math.pi - beta_max) / 2)
                ]
                sign = -1.0
            # rows along the arc bisector pointing away from the arc: both
            # endpoints score the same up to rounding, often exactly
            bisector = sign * rng.uniform(0.1, 10.0, (60, 1)) * (ends[0] + ends[1])
            q = np.vstack(
                [rng.normal(size=(200, 2)) * rng.uniform(1e-3, 1e3, (200, 1)), bisector, np.zeros((20, 2))]
            )
            q = q[rng.permutation(len(q))]
            angles = rng.uniform(0.0, TWO_PI, len(q))
            prev = np.column_stack([np.cos(angles), np.sin(angles)])

            got = _mm_rows(q, bound, prev)
            for i in range(len(q)):
                want = reference_row_update(q[i], bound, prev[i])
                assert got[i].tobytes() == want.tobytes()
                assert mm_row_update(q[i], bound, prev=prev[i]).tobytes() == want.tobytes()
                nq = float(np.linalg.norm(q[i]))
                if nq == 0.0:
                    seen["zero"] += 1
                elif np.all(-q[i] / nq >= bound.g0):
                    seen["interior"] += 1
                else:
                    seen["endpoint"] += 1
                    seen["tie"] += float(ends[0] @ q[i]) == float(ends[1] @ q[i])
        assert all(count > 0 for count in seen.values()), seen

    def test_exact_tie_goes_to_smaller_angle(self):
        # at beta_max = pi/2 the endpoints score 1 and 1 + 6e-17, which rounds to 1
        bound = g0_bound(math.pi / 2)
        q = np.array([1.0, 1.0])
        np.testing.assert_array_equal(mm_row_update(q, bound), [1.0, 0.0])
        np.testing.assert_array_equal(_mm_rows(q[None, :], bound, np.zeros((1, 2)))[0], [1.0, 0.0])


def reference_user_frame(g_solver, beta_max, offset):
    """Rotate solver-frame rows back to user angles, one row at a time."""
    snap = 1e-9
    angles = []
    for row in g_solver:
        a = wrap_angle(wrap_angle(math.atan2(row[1], row[0])) - offset)
        if a > beta_max:
            if TWO_PI - a <= snap:
                a = 0.0
            elif a - beta_max <= snap:
                a = beta_max
        angles.append(a)
    return Placement.from_angles(angles)


class TestToUserFrame:
    def test_equals_per_row_rule_and_snaps(self):
        rng = np.random.default_rng(32)
        for beta_max in (0.4, 2.0, math.pi, 3.9, 5.5, TWO_PI - 1e-3):
            offset = solver_arc_offset(beta_max)
            special = np.array(
                [beta_max + 5e-10, TWO_PI - 5e-10, beta_max + 1e-6, 0.0, beta_max, beta_max / 2]
            )
            user = np.concatenate([rng.uniform(0.0, TWO_PI, 200), special])
            solver = user + offset
            g = np.column_stack([np.cos(solver), np.sin(solver)])
            got = Placement.from_angles(_to_user_frame(g, beta_max, offset))
            want = reference_user_frame(g, beta_max, offset)
            assert got.angles.tobytes() == want.angles.tobytes()
            assert got.directions.tobytes() == want.directions.tobytes()
            snapped = got.angles[-6:]
            assert snapped[0] == beta_max  # within 1e-9 above beta_max
            assert snapped[1] == 0.0  # within 1e-9 below 2*pi
            assert snapped[2] > beta_max  # 1e-6 above is left alone


def random_mm_instance(rng, n=5, beta_max=math.radians(140)):
    bound = g0_bound(beta_max)
    w = rng.uniform(0.2, 1.0, n)
    w /= w.sum()
    b = np.diag(w) - np.outer(w, w)
    d = rng.uniform(0.5, 1.5, n)
    half_bd = psd_sqrt(b) * d[None, :]
    m = half_bd.T @ half_bd
    m = 0.5 * (m + m.T)
    m_tilde = m - sym_eig_max(m) * np.eye(n)
    rho = float(rng.uniform(0.5, 4.0))
    x_next = rng.normal(size=(n, 2))
    v = rng.normal(size=(n, 2))
    start_angles = rng.uniform(0, beta_max if beta_max <= math.pi else TWO_PI, n)
    if beta_max > math.pi:
        lo = math.pi / 2 - beta_max / 2
        start_angles = lo + rng.uniform(0, beta_max, n)
    g_start = np.column_stack([np.cos(start_angles), np.sin(start_angles)])
    return bound, half_bd, m_tilde, rho, x_next, v, g_start


def g_objective(g, half_bd, c, rho):
    sg = half_bd @ g
    return 0.5 * rho * float(np.sum(sg * sg)) + float(np.sum(c * sg))


class TestGUpdateMm:
    def test_fixed_point_returns_start(self):
        rng = np.random.default_rng(25)
        bound, half_bd, m_tilde, rho, _, _, g_start = random_mm_instance(rng)
        x_next = half_bd @ g_start
        v = np.zeros_like(x_next)
        g, inner = g_update_mm(x_next, v, g_start, half_bd, m_tilde, rho, bound)
        assert inner == 1
        np.testing.assert_allclose(g, g_start, atol=1e-12)

    def test_monotone_descent_every_sweep(self):
        # re-run the sweeps by hand and check the true subproblem objective
        # never increases (the linearization is a global upper bound)
        rng = np.random.default_rng(26)
        for _ in range(20):
            bound, half_bd, m_tilde, rho, x_next, v, g = random_mm_instance(rng)
            c = v - rho * x_next
            base = half_bd.T @ c
            prev_val = g_objective(g, half_bd, c, rho)
            for _ in range(40):
                q_all = base + rho * (m_tilde @ g)
                g = np.stack([mm_row_update(q_all[i], bound, prev=g[i]) for i in range(len(g))])
                val = g_objective(g, half_bd, c, rho)
                assert val <= prev_val + 1e-10
                prev_val = val

    @staticmethod
    def _grid_min(half_bd, c, rho, beta_max):
        arc = np.linspace(0, beta_max, 60)
        dirs = np.column_stack([np.cos(arc), np.sin(arc)])
        best = math.inf
        for i1 in range(60):
            for i2 in range(60):
                g3 = np.empty((60, 3, 2))
                g3[:, 0] = dirs[i1]
                g3[:, 1] = dirs[i2]
                g3[:, 2] = dirs
                sdg = np.einsum("ij,kjl->kil", half_bd, g3)
                vals = 0.5 * rho * np.sum(sdg * sdg, axis=(1, 2)) + np.sum(
                    c * sdg, axis=(1, 2)
                )
                best = min(best, float(vals.min()))
        return best

    def test_usually_globally_optimal_on_three_sensor_grid(self):
        # exhaustive 60^3 grid over feasible angle triples: the sweep limit
        # is a fixed point that is usually, but provably not always, the
        # global subproblem optimum (see test_documents_local_fixed_point)
        rng = np.random.default_rng(27)
        beta_max = math.radians(120.0)
        hits = 0
        for _ in range(8):
            bound, half_bd, m_tilde, rho, x_next, v, g_start = random_mm_instance(
                rng, n=3, beta_max=beta_max
            )
            g, _ = g_update_mm(
                x_next, v, g_start, half_bd, m_tilde, rho, bound,
                mm_tol=1e-12, max_inner=500,
            )
            c = v - rho * x_next
            ours = g_objective(g, half_bd, c, rho)
            start_val = g_objective(g_start, half_bd, c, rho)
            assert ours <= start_val + 1e-10
            hits += ours <= self._grid_min(half_bd, c, rho, beta_max) + 1e-6
        assert hits >= 6

    def test_documents_local_fixed_point(self):
        # reproducible counterexample to universal global optimality: the 4th
        # instance of this seed converges (tol 1e-12, a true fixed point) to
        # an objective ~0.3 above the exhaustive grid minimum
        rng = np.random.default_rng(27)
        beta_max = math.radians(120.0)
        gaps = []
        for _ in range(4):
            bound, half_bd, m_tilde, rho, x_next, v, g_start = random_mm_instance(
                rng, n=3, beta_max=beta_max
            )
            g, _ = g_update_mm(
                x_next, v, g_start, half_bd, m_tilde, rho, bound,
                mm_tol=1e-12, max_inner=500,
            )
            c = v - rho * x_next
            gaps.append(
                g_objective(g, half_bd, c, rho) - self._grid_min(half_bd, c, rho, beta_max)
            )
        assert gaps[3] > 0.1  # non-global fixed point, stable under more sweeps


class TestOptimize:
    def test_equal_weights_full_circle_matches_uniform(self):
        # with identical sensors and no constraint the even spread is optimal,
        # so the optimizer must return (numerically) the same LB-RMSE
        sc = case_b(beta_max=TWO_PI)
        placement, trace = optimize(sc)
        lb_uniform = trace.records[0].lb_rmse
        lb_opt = min(rec.lb_rmse for rec in trace.records)
        assert lb_opt == pytest.approx(lb_uniform, rel=1e-6)
        assert trace.converged

    def test_constrained_heterogeneous_improves_early(self):
        sc = case_a(beta_max=math.radians(120.0))
        placement, trace = optimize(sc, options=AdmmOptions(max_outer=10))
        lb_uniform = trace.records[0].lb_rmse
        lb_10 = min(rec.lb_rmse for rec in trace.records)
        assert 1.0 - lb_10 / lb_uniform >= 0.20

    def test_every_iterate_feasible_unit_norm(self):
        for beta_deg in (120.0, 200.0, 280.0, 360.0):
            sc = case_a(beta_max=math.radians(beta_deg))
            placement, trace = optimize(sc)
            for rec in trace.records:
                assert np.all(rec.angles >= -1e-9)
                assert np.all(rec.angles <= sc.beta_max + 1e-9)
            norms = np.linalg.norm(placement.directions, axis=1)
            np.testing.assert_allclose(norms, 1.0, atol=1e-9)
            bound = g0_bound(sc.beta_max)
            if sc.beta_max <= math.pi:
                assert is_feasible(placement, bound).ok

    def test_trace_starts_at_uniform(self):
        sc = case_a(beta_max=math.radians(200.0))
        _, trace = optimize(sc)
        uniform = uniform_init(8, sc.beta_max)
        np.testing.assert_allclose(trace.records[0].angles, uniform.angles, atol=0.0)
        lb_uniform = fim_full(sc, uniform, SourceParams(0.0, [0.0, 0.0])).lb_rmse
        assert trace.records[0].lb_rmse == lb_uniform

    def test_never_worse_than_uniform(self):
        rng = np.random.default_rng(28)
        for _ in range(5):
            beta = float(rng.uniform(0.6, TWO_PI))
            sc = case_a(beta_max=beta)
            placement, trace = optimize(sc)
            summary = fim_full(sc, placement, SourceParams(0.0, [0.0, 0.0]))
            assert summary.lb_rmse <= trace.records[0].lb_rmse + 1e-9
            det_uniform = trace.records[0].det_t
            assert np.linalg.det(summary.t) >= det_uniform - 1e-12

    def test_best_record_is_the_returned_placement(self):
        for sc in (case_a(beta_max=math.radians(120.0)), case_b(beta_max=math.radians(60.0))):
            placement, trace = optimize(sc)
            assert trace.best.angles.tobytes() == placement.angles.tobytes()
            assert trace.best is trace.records[trace.best.k]
            summary = fim_full(sc, placement, SourceParams(0.0, [0.0, 0.0]))
            assert trace.best.lb_rmse == summary.lb_rmse

    def test_three_sensors_on_one_degree_score_finite(self):
        # det T > 0 on a 1 degree arc, so the bound is finite, if large
        sc = case_b(n_sensors=3, beta_max=math.radians(1.0))
        summary = fim_full(sc, uniform_init(3, sc.beta_max), SourceParams(0.0, [0.0, 0.0]))
        assert not summary.degenerate
        assert math.isfinite(summary.lb_rmse)
        assert np.linalg.det(summary.t) > 0
        _, trace = optimize(sc)
        assert all(math.isfinite(rec.lb_rmse) for rec in trace.records)

    def test_deterministic_trajectories(self):
        sc = case_a(beta_max=math.radians(280.0))
        p1, t1 = optimize(sc)
        p2, t2 = optimize(sc)
        assert np.array_equal(p1.angles, p2.angles)
        assert len(t1.records) == len(t2.records)
        for a, b in zip(t1.records, t2.records):
            assert a.lb_rmse == b.lb_rmse
            assert a.det_t == b.det_t
            assert np.array_equal(a.angles, b.angles)

    def test_converges_across_penalty_weights(self):
        for builder in (case_a, case_b):
            _, trace = optimize(builder(beta_max=math.radians(280.0)))
            assert trace.converged, builder.__name__

    def test_nonconvergence_flagged(self):
        sc = case_a(beta_max=math.radians(120.0))
        _, trace = optimize(sc, options=AdmmOptions(max_outer=1))
        assert not trace.converged

    def test_stop_reason_at_the_iteration_cap(self):
        sc = case_a(beta_max=math.radians(0.01))
        _, trace = optimize(sc, options=AdmmOptions(max_outer=50))
        assert trace.stop_reason == "max_outer"
        assert not trace.converged and trace.outer_iters == 50

    def test_stop_reason_names_a_tolerance_test(self):
        _, trace = optimize(case_a(beta_max=math.radians(120.0)))
        assert trace.converged
        assert trace.stop_reason in ("lb_stall", "step")

    def test_stop_reason_is_the_test_that_held_last(self):
        # "lb_stall" exactly when the relative LB-RMSE change of the last
        # record (against lag 1 or 2) is below the tolerance 1e-4; otherwise
        # the step test held. The studies designs stop both ways.
        tol = 1e-4
        seen = set()
        for _, trace in optimize_many(studies_designs()):
            last = trace.records[-1].lb_rmse
            rel = min(abs(last - trace.records[-1 - lag].lb_rmse) / last for lag in (1, 2))
            assert trace.stop_reason == ("lb_stall" if rel < tol else "step")
            seen.add(trace.stop_reason)
        assert seen == {"lb_stall", "step"}

    def test_prior_centered_geometry_same_angles(self):
        # the optimal angles depend only on distances/noise, not on where the
        # assumed source sits; 250 degrees runs in the rotated solver frame
        for sc in (
            case_a(beta_max=math.radians(150.0)),
            case_a(beta_max=math.radians(250.0)),
            replace(case_a(beta_max=math.radians(150.0)), variant=Variant.RSS),
        ):
            p0, _ = optimize(sc)
            p1, _ = optimize(sc.with_source([400.0, -250.0]))
            np.testing.assert_allclose(p0.angles, p1.angles, atol=1e-12)


def tiny_swarm(n, variant):
    return Scenario(
        source=[0.0, 0.0, 0.0],
        n_sensors=n,
        gamma=2.0,
        horiz_dist=np.full(n, 1000.0),
        vert_dist=np.full(n, 100.0),
        noise_std=np.full(n, 2.0),
        beta_max=math.radians(120.0),
        variant=variant,
    )


class TestSwarmSizeChecks:
    @pytest.mark.parametrize(
        "n, variant", [(2, Variant.RSSD), (1, Variant.RSSD), (1, Variant.RSS)]
    )
    def test_too_few_sensors_rejected(self, n, variant):
        with pytest.raises(ScenarioError, match="at least"):
            optimize(tiny_swarm(n, variant))

    def test_smallest_accepted_swarms(self):
        for n, variant in ((3, Variant.RSSD), (2, Variant.RSS)):
            placement, _ = optimize(tiny_swarm(n, variant))
            assert placement.n_sensors == n


# -- lockstep designs against the serial reference -----------------------------
#
# The functions below are the one-design optimize loop and the kernels it ran
# before designs were advanced in lockstep, kept verbatim as the reference
# (with the names prefixed ref_): optimize_many must reproduce every trace
# record of it bit for bit.


def ref_thin_svd(a):
    a = np.asarray(a, dtype=float)
    u, s, vh = np.linalg.svd(a, full_matrices=False)
    for j in range(2):
        k = int(np.argmax(np.abs(u[:, j])))
        if u[k, j] < 0.0:
            u[:, j] = -u[:, j]
            vh[j, :] = -vh[j, :]
    return u, s, vh


def ref_singular_value_map(sigma, rho):
    return (sigma + math.sqrt(sigma**2 + 8.0 * rho)) / (2.0 * rho)


def ref_x_update(j_k, rho):
    u, sigma, vh = ref_thin_svd(j_k)
    lam = np.array([ref_singular_value_map(s, rho) for s in sigma])
    return (u * lam) @ vh


def ref_arc_candidates(bound):
    beta_max = bound.beta_max
    if beta_max <= math.pi:
        angles = (0.0, beta_max)
    else:
        angles = ((math.pi + beta_max) / 2.0, (5.0 * math.pi - beta_max) / 2.0)
    return np.array([[math.cos(a), math.sin(a)] for a in angles])


def ref_mm_rows(q, bound, prev):
    nq = np.sqrt(row_dots(q, q))
    zero = nq == 0.0
    interior = -q / np.where(zero, 1.0, nq)[:, None]
    ends = ref_arc_candidates(bound)
    lower_first = row_dots(q, ends[1]) < row_dots(q, ends[0])
    endpoint = np.where(lower_first[:, None], ends[1], ends[0])
    feasible = np.all(interior >= bound.g0, axis=1)
    g = np.where(feasible[:, None], interior, endpoint)
    return np.where(zero[:, None], prev, g)


def ref_g_objective(g, half_bd, c, rho):
    sg = half_bd @ g
    return 0.5 * rho * float(np.sum(sg * sg)) + float(np.sum(c * sg))


def ref_g_update_mm(x_next, v, g_start, half_bd, m_tilde, rho, bound, mm_tol=1e-3, max_inner=50):
    g = np.array(g_start, dtype=float)
    c = v - rho * x_next
    base = half_bd.T @ c
    prev_obj = ref_g_objective(g, half_bd, c, rho)
    inner = 0
    for _ in range(max_inner):
        q_all = base + rho * (m_tilde @ g)
        g_next = ref_mm_rows(q_all, bound, g)
        inner += 1
        obj = ref_g_objective(g_next, half_bd, c, rho)
        delta = float(np.linalg.norm(g_next - g))
        g = g_next
        if abs(prev_obj - obj) < mm_tol * max(1.0, abs(obj)) or delta < mm_tol:
            break
        prev_obj = obj
    return g, inner


def ref_log_det_inv_gram(x):
    sign, logdet = np.linalg.slogdet(x.T @ x)
    return -logdet if sign > 0 else math.inf


def ref_to_user_frame(g_solver, beta_max, offset):
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


def ref_score(scenario, placement, source):
    """(T, LB-RMSE) of fim_full as it was: the T part of the one-placement scorer."""
    pos = sensor_positions(scenario, placement)
    dx = pos[:, 0] - source.position[0]
    dy = pos[:, 1] - source.position[1]
    r = np.hypot(dx, dy)
    d_sq = r**2 + pos[:, 2] ** 2
    slope = loss_slope(scenario.gamma)
    inv_var = 1.0 / scenario.effective_var
    inv_var_sum = inv_var.sum()
    w = inv_var / inv_var_sum
    u = np.column_stack([dy, dx]) / d_sq[:, None]
    if scenario.variant is Variant.RSSD:
        u = u - w @ u
    t = (w[:, None] * u).T @ u
    t = 0.5 * (t + t.T)
    half_trace = 0.5 * (t[0, 0] + t[1, 1])
    half_gap = math.hypot(0.5 * (t[0, 0] - t[1, 1]), t[0, 1])
    lam_min, lam_max = half_trace - half_gap, half_trace + half_gap
    if lam_min <= 1e-12 * max(lam_max, 0.0):
        return t, math.inf
    return t, math.sqrt((1.0 / lam_min + 1.0 / lam_max) / (slope**2 * inv_var_sum))


def zero_padded(a, shape):
    """The 2-D array a embedded in the top left corner of zeros of the given shape."""
    out = np.zeros(shape)
    out[: a.shape[0], : a.shape[1]] = a
    return out


def reference_optimize(scenario, options=None, n_pad=None):
    """The serial optimize; returns (placement, records, converged, k, mean_inner, best).

    With n_pad, half_bd, m_tilde, the start G and V are embedded in zeros up
    to n_pad sensors after the set-up, as in a padded lockstep group, and
    every iterate is scored on its first N rows.
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
    half_bd = psd_sqrt(coupling) * sens[None, :]
    m_mat = half_bd.T @ half_bd
    m_mat = 0.5 * (m_mat + m_mat.T)
    lam_max = sym_eig_max(m_mat)
    m_tilde = m_mat - lam_max * np.eye(n)

    op_norm = float(np.linalg.norm(half_bd, 2))
    rho = 4.0 / op_norm**2

    uniform = uniform_init(n, beta_max)
    uniform_t, uniform_lb = ref_score(scenario, uniform, source)
    uniform_det_t = float(np.linalg.det(uniform_t))

    g = np.column_stack(
        [np.cos(uniform.angles + offset), np.sin(uniform.angles + offset)]
    )
    v = np.zeros((n, 2))
    if n_pad is not None:
        half_bd, m_tilde = (zero_padded(a, (n_pad, n_pad)) for a in (half_bd, m_tilde))
        g, v = (zero_padded(a, (n_pad, 2)) for a in (g, v))
    x = half_bd @ g

    records = [
        TraceRecord(
            k=0,
            objective=ref_log_det_inv_gram(x),
            det_t=uniform_det_t,
            lb_rmse=uniform_lb,
            inner_iters=0,
            primal_residual=0.0,
            angles=uniform.angles.copy(),
        )
    ]
    best_placement = uniform
    best = records[0]
    lb_budget = uniform_lb + 1e-9

    converged = False
    k = 0
    stall = 0
    inner_counts = []
    for k in range(1, options.max_outer + 1):
        j_k = v + rho * (half_bd @ g)
        x = ref_x_update(j_k, rho)
        g_next, inner = ref_g_update_mm(
            x, v, g, half_bd, m_tilde, rho, bound,
            mm_tol=1e-3, max_inner=50,
        )
        v = v + rho * (half_bd @ g_next - x)
        step = float(np.linalg.norm(g_next - g))
        g = g_next
        primal = float(np.linalg.norm(half_bd @ g - x))
        inner_counts.append(inner)

        placement_k = ref_to_user_frame(g[:n], beta_max, offset)
        t_k, lb_k = ref_score(scenario, placement_k, source)
        det_t_k = float(np.linalg.det(t_k))
        records.append(
            TraceRecord(
                k=k,
                objective=ref_log_det_inv_gram(x),
                det_t=det_t_k,
                lb_rmse=lb_k,
                inner_iters=inner,
                primal_residual=primal,
                angles=placement_k.angles.copy(),
            )
        )
        if det_t_k > best.det_t and lb_k <= lb_budget:
            best = records[-1]
            best_placement = placement_k

        cur_lb = records[-1].lb_rmse
        rel_lb = math.inf
        if math.isfinite(cur_lb) and cur_lb > 0:
            for lag in (1, 2):
                if len(records) > lag:
                    rel_lb = min(rel_lb, abs(cur_lb - records[-1 - lag].lb_rmse) / cur_lb)
        stall = stall + 1 if (rel_lb < 1e-4 or step < 1e-4) else 0
        if stall >= 2:
            converged = True
            break

    mean_inner = float(np.mean(inner_counts)) if inner_counts else 0.0
    return best_placement, records, converged, k, mean_inner, best


def _bits(value) -> bytes:
    return np.float64(value).tobytes()


def assert_same_run(got, want):
    """A (placement, trace) of optimize_many equals reference_optimize bit for bit."""
    placement, trace = got
    ref_placement, records, converged, outer_iters, mean_inner, best = want
    assert placement.angles.tobytes() == ref_placement.angles.tobytes()
    assert placement.directions.tobytes() == ref_placement.directions.tobytes()
    assert trace.converged == converged
    assert trace.outer_iters == outer_iters
    assert _bits(trace.mean_inner) == _bits(mean_inner)
    assert trace.best.k == best.k
    assert trace.best is trace.records[best.k]
    assert len(trace.records) == len(records)
    for rec, ref in zip(trace.records, records):
        assert rec.k == ref.k
        assert rec.inner_iters == ref.inner_iters
        for name in ("objective", "det_t", "lb_rmse", "primal_residual"):
            assert _bits(getattr(rec, name)) == _bits(getattr(ref, name)), (rec.k, name)
        assert rec.angles.tobytes() == ref.angles.tobytes(), rec.k


def studies_designs():
    """The 35 designs of the four studies with their default flags."""
    from_deg = [math.radians(d) for d in (120.0, 200.0, 280.0, 360.0)]
    grid = (60, 75, 90, 97.5, 105, 120, 150, 180, 210, 240, 270, 300, 330, 360)
    designs = [case_a()]
    designs += [case_a(beta_max=b) for b in from_deg]
    designs += [
        replace(resize_sensors(case_a(), n), beta_max=b) for n in (4, 8, 12, 16) for b in from_deg
    ]
    designs += [case_b(beta_max=math.radians(d)) for d in grid]
    return designs


def random_scenario(rng):
    n = int(rng.integers(3, 13))
    variant = Variant.RSS if rng.uniform() < 0.3 else Variant.RSSD
    return Scenario(
        source=[float(rng.uniform(-500, 500)), float(rng.uniform(-500, 500)), 0.0],
        n_sensors=n,
        gamma=float(rng.uniform(1.5, 4.0)),
        horiz_dist=rng.uniform(200.0, 2000.0, n),
        vert_dist=rng.uniform(0.0, 300.0, n),
        noise_std=rng.uniform(0.5, 4.0, n),
        samples_per_position=int(rng.integers(1, 20)),
        beta_max=float(rng.uniform(0.2, TWO_PI)),
        variant=variant,
    )


def group_pad(designs, scenario):
    """The sensor count optimize_many pads scenario to among designs."""
    n = scenario.n_sensors
    if n > admm._PAD_LIMIT:
        return n
    return max(
        sc.n_sensors for sc in designs
        if sc.variant is scenario.variant and sc.n_sensors <= admm._PAD_LIMIT
    )


class TestLockstepMatchesSerialReference:
    @staticmethod
    def check(designs, options=None):
        results = optimize_many(designs, options)
        assert len(results) == len(designs)
        for sc, got in zip(designs, results):
            n_pad = group_pad(designs, sc)
            want = reference_optimize(sc, options, None if n_pad == sc.n_sensors else n_pad)
            assert_same_run(got, want)
        return results

    def test_all_studies_designs(self):
        self.check(studies_designs())

    def test_mixed_sizes_in_input_order(self):
        designs = studies_designs()[5:21]  # sweep-n: N = 4, 8, 12, 16
        order = np.random.default_rng(41).permutation(len(designs))
        shuffled = [designs[i] for i in order]
        results = self.check(shuffled)
        assert [p.n_sensors for p, _ in results] == [sc.n_sensors for sc in shuffled]

    def test_rss_variant(self):
        arcs = (60.0, 120.0, 280.0)
        self.check([replace(case_a(beta_max=math.radians(d)), variant=Variant.RSS) for d in arcs])

    def test_arcs_above_pi(self):
        self.check([case_a(beta_max=math.radians(d)) for d in (250.0, 360.0)])

    def test_design_leaving_the_batch_early(self):
        # case B at 360 degrees (uniform is optimal) stops at iteration 2
        designs = [
            case_a(beta_max=math.radians(120.0)),
            case_b(),
            case_a(beta_max=math.radians(200.0)),
        ]
        results = self.check(designs)
        iters = [trace.outer_iters for _, trace in results]
        assert iters[1] == 2 and min(iters[0], iters[2]) > 2

    def test_design_at_the_iteration_cap(self):
        options = AdmmOptions(max_outer=50)
        designs = [case_a(beta_max=math.radians(0.01)), case_a(beta_max=math.radians(120.0))]
        results = self.check(designs, options)
        assert results[0][1].outer_iters == 50 and not results[0][1].converged
        assert results[1][1].converged

    def test_random_scenarios(self):
        rng = np.random.default_rng(42)
        self.check([random_scenario(rng) for _ in range(20)])

    @pytest.mark.parametrize("max_outer", [1, 7, 8, 9, 17])
    def test_caps_around_the_score_block(self, max_outer):
        # caps inside, at and past the end of a scoring block of 8 steps
        assert admm._SCORE_BLOCK == 8
        designs = [
            case_a(beta_max=math.radians(120.0)),
            case_b(),
            replace(resize_sensors(case_a(), 4), beta_max=math.radians(200.0)),
            case_a(beta_max=math.radians(0.01)),
        ]
        results = self.check(designs, AdmmOptions(max_outer=max_outer))
        assert results[3][1].outer_iters == max_outer and not results[3][1].converged

    def test_design_stopping_inside_a_block(self):
        # case B at 360 degrees stops at iteration 2 of the first block; the
        # steps it takes after that are dropped while case A runs on
        results = self.check([case_b(), case_a(beta_max=math.radians(120.0))])
        (_, stopped), (_, running) = results
        assert stopped.outer_iters == 2 and len(stopped.records) == 3
        assert running.outer_iters > 2 * admm._SCORE_BLOCK

    def test_batched_kernels_equal_reference_kernels(self):
        # every entry of a (B, N, 2) call has the bits of the one-design call
        rng = np.random.default_rng(43)
        for _ in range(40):
            n, size = int(rng.integers(3, 17)), int(rng.integers(1, 7))
            j_k = rng.normal(size=(size, n, 2)) * rng.lognormal(0.0, 4.0, (size, 1, 1))
            rho = rng.uniform(1e-4, 5.0, size)
            x = x_update(j_k, rho)
            instances = [
                random_mm_instance(rng, n=n, beta_max=float(rng.uniform(0.1, TWO_PI)))
                for _ in range(size)
            ]
            bounds, half_bd, m_tilde, rhos, x_next, v, g_start = (
                list(field) for field in zip(*instances)
            )
            stacked = admm.ConstraintBound(
                g0=np.stack([b.g0 for b in bounds]),
                beta_max=np.array([b.beta_max for b in bounds]),
                ends=np.stack([b.ends for b in bounds]),
            )
            g, inner = g_update_mm(
                *(np.stack(a) for a in (x_next, v, g_start, half_bd, m_tilde)),
                np.array(rhos), stacked, mm_tol=1e-6, max_inner=30,
            )
            for b in range(size):
                want_x = ref_x_update(j_k[b], rho[b])
                assert x[b].tobytes() == want_x.tobytes()
                assert x_update(j_k[b], rho[b]).tobytes() == want_x.tobytes()
                args = (x_next[b], v[b], g_start[b], half_bd[b], m_tilde[b], rhos[b], bounds[b])
                want_g, want_inner = ref_g_update_mm(*args, mm_tol=1e-6, max_inner=30)
                assert g[b].tobytes() == want_g.tobytes() and inner[b] == want_inner
                one_g, one_inner = g_update_mm(*args, mm_tol=1e-6, max_inner=30)
                assert one_g.tobytes() == want_g.tobytes() and one_inner == want_inner

    def test_too_small_swarm_rejected_before_any_work(self, monkeypatch):
        started = []
        monkeypatch.setattr(admm, "_start", lambda *args: started.append(args))
        with pytest.raises(ScenarioError, match="at least 3"):
            optimize_many([case_a(), tiny_swarm(3, Variant.RSSD), tiny_swarm(2, Variant.RSSD)])
        assert started == []


class TestInertPadding:
    """Zero-padded sensors of a lockstep group never move and never feed back."""

    def test_x_update_keeps_zero_rows_of_j_zero(self):
        rng = np.random.default_rng(45)
        for _ in range(200):
            n_pad = int(rng.integers(3, 33))
            sizes = rng.integers(2, n_pad, int(rng.integers(1, 5)))
            j_k = np.stack([
                zero_padded(rng.normal(size=(n, 2)) * rng.lognormal(0.0, 4.0), (n_pad, 2))
                for n in sizes
            ])
            x = x_update(j_k, rng.uniform(1e-4, 5.0, len(sizes)))
            assert np.isfinite(x).all()
            for n, one in zip(sizes, x):
                assert not one[n:].any()

    def test_g_update_mm_leaves_padded_rows_untouched(self):
        rng = np.random.default_rng(46)
        for _ in range(100):
            n = int(rng.integers(3, 13))
            n_pad = n + int(rng.integers(1, 9))
            beta_max = float(rng.uniform(0.1, TWO_PI))
            bound, half_bd, m_tilde, rho, x_next, v, g_start = random_mm_instance(
                rng, n=n, beta_max=beta_max
            )
            # any previous rows survive, not only the zero rows of a padded start
            g_start = np.vstack([g_start, rng.normal(size=(n_pad - n, 2))])
            half_bd, m_tilde = (zero_padded(a, (n_pad, n_pad)) for a in (half_bd, m_tilde))
            x_next, v = (zero_padded(a, (n_pad, 2)) for a in (x_next, v))
            g, _ = g_update_mm(x_next, v, g_start, half_bd, m_tilde, rho, bound)
            assert g[n:].tobytes() == g_start[n:].tobytes()
            assert (g[:n] >= bound.g0 - 1e-12).all()


def counting(monkeypatch, name):
    """Replace admm.<name> by a wrapper that counts its calls."""
    calls = []
    inner = getattr(admm, name)

    def wrapper(*args, **kwargs):
        calls.append(None)
        return inner(*args, **kwargs)

    monkeypatch.setattr(admm, name, wrapper)
    return calls


class TestScoreBlocks:
    @staticmethod
    def group_steps(monkeypatch):
        """Record, per lockstep group, the steps of its slowest design."""
        steps = []
        inner = admm._lockstep

        def recording(scenarios, max_outer):
            results = inner(scenarios, max_outer)
            steps.append(max(trace.outer_iters for _, trace in results))
            return results

        monkeypatch.setattr(admm, "_lockstep", recording)
        return steps

    def test_one_scoring_call_per_block_of_steps(self, monkeypatch):
        frames = counting(monkeypatch, "_to_user_frame")
        x_updates = counting(monkeypatch, "x_update")
        scored = []  # the sensor count of every reduced_scores call
        reduced_scores = admm.reduced_scores

        def recording(dx, *args):
            scored.append(dx.shape[-1])
            return reduced_scores(dx, *args)

        monkeypatch.setattr(admm, "reduced_scores", recording)
        steps = self.group_steps(monkeypatch)
        designs = studies_designs()
        results = optimize_many(designs)
        assert len(steps) == 1  # every size of the 35 designs in one padded group
        block = admm._SCORE_BLOCK
        blocks = math.ceil(steps[0] / block)
        assert len(frames) == blocks
        # a size is scored once at the start, then once per block it runs in
        for n in {sc.n_sensors for sc in designs}:
            last = max(t.outer_iters for sc, (_, t) in zip(designs, results) if sc.n_sensors == n)
            assert scored.count(n) == 1 + math.ceil(last / block)
        # the steps after the group's last stop run only to the end of its block
        assert len(x_updates) == min(blocks * block, 1000)
        assert len(x_updates) <= steps[0] + block - 1

    def test_cli_studies_take_at_most_block_minus_one_extra_steps(self, monkeypatch, tmp_path):
        # one step per scoring call and one group per sensor count took 785
        # lockstep steps over the four studies at their default flags, where
        # the CLI runs one batch per mode; one group per size took 533 on
        # sweep-n alone, one padded group takes 190
        x_updates = counting(monkeypatch, "x_update")
        steps = self.group_steps(monkeypatch)
        for mode, case in (
            ("optimize", "caseA"), ("convergence", "caseA"),
            ("sweep-n", "caseA"), ("sweep-angle", "caseB"),
        ):
            scenario = SCENARIOS / f"{case}.json"
            argv = [mode, "--scenario", str(scenario), "--out", str(tmp_path / f"{mode}.csv")]
            assert cli.main(argv) == cli.EXIT_OK
        assert steps == [24, 96, 190, 132]
        assert len(x_updates) <= sum(steps) + (admm._SCORE_BLOCK - 1) * len(steps)

    def test_swarms_above_the_pad_limit_keep_their_own_group(self, monkeypatch):
        groups = []
        lockstep = admm._lockstep

        def recording(scenarios, max_outer):
            groups.append(sorted(sc.n_sensors for sc in scenarios))
            return lockstep(scenarios, max_outer)

        monkeypatch.setattr(admm, "_lockstep", recording)
        assert admm._PAD_LIMIT == 32
        arc = math.radians(200.0)
        designs = [replace(resize_sensors(case_a(), n), beta_max=arc) for n in (40, 4, 32, 8)]
        TestLockstepMatchesSerialReference.check(designs)
        assert sorted(groups) == [[4, 8, 32], [40]]

    def test_speculative_steps_raise_no_warning(self):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            results = optimize_many(studies_designs())
        assert all(trace.converged for _, trace in results)


def grid_best_distance(r_range, h_range, n_grid=1000):
    """Dense grid-search oracle for the single-sensor distance choice."""
    r = np.linspace(r_range[0], r_range[1], n_grid)
    h = np.linspace(h_range[0], h_range[1], n_grid)
    rr, hh = np.meshgrid(r, h, indexing="ij")
    val = rr / (rr**2 + hh**2)
    k = int(np.argmax(val))
    return rr.ravel()[k], hh.ravel()[k]


class TestOptimalDistance:
    def test_interior_maximum_at_r_equals_h(self):
        got = optimal_distance((50.0, 2000.0), (100.0, 500.0))
        assert got == (100.0, 100.0)
        grid = grid_best_distance((50.0, 2000.0), (100.0, 500.0))
        assert abs(grid[0] - got[0]) < 2.5 and abs(grid[1] - got[1]) < 2.5

    def test_lower_clamp(self):
        got = optimal_distance((200.0, 2000.0), (100.0, 500.0))
        assert got == (200.0, 100.0)
        grid = grid_best_distance((200.0, 2000.0), (100.0, 500.0))
        assert abs(grid[0] - got[0]) < 2.5 and abs(grid[1] - got[1]) < 2.5

    def test_upper_clamp(self):
        got = optimal_distance((10.0, 50.0), (100.0, 500.0))
        assert got == (50.0, 100.0)
        grid = grid_best_distance((10.0, 50.0), (100.0, 500.0))
        assert abs(grid[0] - got[0]) < 0.1 and abs(grid[1] - got[1]) < 0.5

    def test_hundred_random_rectangles(self):
        rng = np.random.default_rng(29)
        for _ in range(100):
            r_min = rng.uniform(1, 500)
            r_max = r_min + rng.uniform(1, 2000)
            h_min = rng.uniform(0, 500)
            h_max = h_min + rng.uniform(1, 500)
            got = optimal_distance((r_min, r_max), (h_min, h_max))
            grid = grid_best_distance((r_min, r_max), (h_min, h_max), n_grid=400)
            cell_r = (r_max - r_min) / 399
            cell_h = (h_max - h_min) / 399
            assert abs(got[0] - grid[0]) <= cell_r + 1e-9
            assert abs(got[1] - grid[1]) <= cell_h + 1e-9

    def test_rejects_empty_ranges(self):
        with pytest.raises(ValueError):
            optimal_distance((10.0, 5.0), (0.0, 1.0))
        with pytest.raises(ValueError):
            optimal_distance((1.0, 5.0), (3.0, 2.0))
