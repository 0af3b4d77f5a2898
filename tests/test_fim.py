"""Fisher information, reduced form, and constraint machinery tests."""

import math
import warnings
from dataclasses import fields

import numpy as np
import pytest

from rssdgeom.fim import (
    ConstraintBound,
    apply_orthogonal,
    coupling_matrix,
    fim_full,
    g0_bound,
    is_feasible,
    loss_slope,
    noise_weights,
    reduced_scores,
    sensitivity_diag,
    sensor_offsets,
    t_eigenvalues,
    t_matrix,
    t_scores,
)
from rssdgeom.model import (
    Placement,
    Scenario,
    SourceParams,
    Variant,
    sensor_positions,
    wrap_angle,
    wrap_angles,
)

TWO_PI = 2.0 * math.pi


def make_scenario(n=8, sigma_sq=None, m=1, gamma=2.0, r=None, h=None, beta_max=TWO_PI):
    sigma_sq = np.full(n, 4.0) if sigma_sq is None else np.asarray(sigma_sq, dtype=float)
    return Scenario(
        source=[0.0, 0.0, 0.0],
        n_sensors=n,
        gamma=gamma,
        horiz_dist=np.full(n, 1000.0) if r is None else np.asarray(r, dtype=float),
        vert_dist=np.full(n, 100.0) if h is None else np.asarray(h, dtype=float),
        noise_std=np.sqrt(sigma_sq),
        samples_per_position=m,
        beta_max=beta_max,
    )


def random_scenario(rng):
    n = int(rng.integers(4, 11))
    return Scenario(
        source=rng.uniform(-100, 100, 2).tolist() + [0.0],
        n_sensors=n,
        gamma=float(rng.uniform(1.5, 4.0)),
        horiz_dist=rng.uniform(100, 3000, n),
        vert_dist=rng.uniform(0, 600, n),
        noise_std=rng.uniform(0.5, 4.0, n),
        samples_per_position=int(rng.integers(1, 20)),
    )


class TestNoiseWeights:
    def test_equal_sigmas_give_uniform_weights(self):
        sc = make_scenario(n=6, sigma_sq=np.full(6, 3.7), m=7)
        w = noise_weights(sc)
        np.testing.assert_allclose(w.w, 1.0 / 6.0, atol=1e-14)

    def test_benchmark_heterogeneous_weights(self):
        # half variance 8, half variance 2, single sample
        sc = make_scenario(sigma_sq=[8.0] * 4 + [2.0] * 4, m=1)
        w = noise_weights(sc)
        np.testing.assert_allclose(w.w, [0.05] * 4 + [0.2] * 4, atol=1e-12)
        assert w.mean_inv_var == pytest.approx(0.3125, abs=1e-12)

    def test_two_sensor_hand_arithmetic(self):
        sc = make_scenario(n=2, sigma_sq=[1.0, 3.0], m=1)
        w = noise_weights(sc)
        np.testing.assert_allclose(w.w, [0.75, 0.25], atol=1e-12)

    def test_averaging_scales_mean_inv_var_not_weights(self):
        sc1 = make_scenario(sigma_sq=[8.0] * 4 + [2.0] * 4, m=1)
        sc10 = make_scenario(sigma_sq=[8.0] * 4 + [2.0] * 4, m=10)
        w1, w10 = noise_weights(sc1), noise_weights(sc10)
        np.testing.assert_allclose(w1.w, w10.w, atol=1e-14)
        assert w10.mean_inv_var == pytest.approx(10 * w1.mean_inv_var, rel=1e-12)

    def test_lb_scale_hand_arithmetic(self):
        # slope^2 * sum 1/var_i: (20 / ln 10)^2 * 10 * (4 * 1/8 + 4 * 1/2)
        sc = make_scenario(sigma_sq=[8.0] * 4 + [2.0] * 4, m=10, gamma=2.0)
        w = noise_weights(sc)
        assert w.lb_scale == pytest.approx((20.0 / math.log(10.0)) ** 2 * 25.0, rel=1e-14)

    def test_weights_sum_to_one(self):
        rng = np.random.default_rng(10)
        for _ in range(20):
            sc = random_scenario(rng)
            w = noise_weights(sc)
            assert np.all(w.w > 0)
            assert w.w.sum() == pytest.approx(1.0, abs=1e-12)


class TestCouplingMatrix:
    def test_two_sensor_hand_expansion(self):
        sc = make_scenario(n=2, sigma_sq=[1.0, 1.0], m=1)
        b = coupling_matrix(noise_weights(sc), Variant.RSSD)
        np.testing.assert_allclose(b, [[0.25, -0.25], [-0.25, 0.25]], atol=1e-14)

    def test_annihilates_all_ones(self):
        rng = np.random.default_rng(11)
        for _ in range(20):
            sc = random_scenario(rng)
            b = coupling_matrix(noise_weights(sc), Variant.RSSD)
            np.testing.assert_allclose(b @ np.ones(sc.n_sensors), 0.0, atol=1e-10)

    def test_rejects_a_variant_other_than_rssd(self):
        with pytest.raises(ValueError):
            coupling_matrix(noise_weights(make_scenario()), "rss")

    def test_quadratic_form_matches_weighted_variance(self):
        # for any xi: xi' B xi = sum w_i xi_i^2 - (sum w_i xi_i)^2 >= 0
        rng = np.random.default_rng(12)
        sc = random_scenario(rng)
        w = noise_weights(sc)
        b = coupling_matrix(w, Variant.RSSD)
        for _ in range(100):
            xi = rng.normal(size=sc.n_sensors)
            direct = xi @ b @ xi
            expected = np.sum(w.w * xi**2) - np.sum(w.w * xi) ** 2
            assert direct == pytest.approx(expected, abs=1e-10)
            assert direct >= -1e-12

    def test_positive_semidefinite(self):
        rng = np.random.default_rng(13)
        for _ in range(10):
            sc = random_scenario(rng)
            b = coupling_matrix(noise_weights(sc), Variant.RSSD)
            assert np.linalg.eigvalsh(b)[0] >= -1e-10


class TestTMatrix:
    def test_zero_coupling_gives_zero(self):
        g = Placement.from_angles([0.1, 1.0, 2.0]).directions
        np.testing.assert_allclose(t_matrix(g, np.ones(3), np.zeros((3, 3))), 0.0, atol=1e-15)

    def test_matches_sum_formula(self):
        # matrix form G' D B D G against the direct weighted-moment sums
        sc = make_scenario(sigma_sq=[8.0] * 4 + [2.0] * 4, m=10)
        placement = Placement.from_angles(TWO_PI * np.arange(1, 9) / 8)
        w = noise_weights(sc)
        b = coupling_matrix(w, Variant.RSSD)
        sens = sensitivity_diag(sc)
        t_mat = t_matrix(placement.directions, sens, b)
        g = placement.directions
        first = sum(
            w.w[i] * sens[i] ** 2 * np.outer(g[i], g[i]) for i in range(8)
        )
        mean_vec = sum(w.w[i] * sens[i] * g[i] for i in range(8))
        t_sum = first - np.outer(mean_vec, mean_vec)
        np.testing.assert_allclose(t_mat, t_sum, atol=1e-12 * np.abs(t_sum).max())

    def test_single_effective_sensor_annihilates(self):
        # all weight on one sensor: B = e1 e1' - e1 e1' = 0, so T = 0
        from rssdgeom.fim import NoiseWeights

        w = NoiseWeights(w=np.array([1.0, 0.0, 0.0, 0.0, 0.0]), mean_inv_var=1.0, lb_scale=1.0)
        b = coupling_matrix(w, Variant.RSSD)
        np.testing.assert_allclose(b, 0.0, atol=1e-15)
        g = Placement.from_angles([0.3, 1.1, 2.2, 3.3, 4.4]).directions
        t_mat = t_matrix(g, np.ones(5), b)
        np.testing.assert_allclose(t_mat, 0.0, atol=1e-15)


class TestFimFull:
    def test_rejects_a_placement_of_the_wrong_size(self):
        sc = make_scenario(n=4)
        with pytest.raises(ValueError, match="^placement size does not match scenario"):
            fim_full(sc, Placement.from_angles([0.0, 1.0, 2.0]), SourceParams(0.0, [0.0, 0.0]))

    def test_rejects_a_sensor_directly_above_the_evaluation_point(self):
        # the first sensor sits at (0, r_0): tan(beta) = dx / dy, beta = 0
        sc = make_scenario(n=4)
        placement = Placement.from_angles([0.0, 1.0, 2.0, 3.0])
        below = SourceParams(0.0, [0.0, float(sc.horiz_dist[0])])
        with pytest.raises(ValueError, match="^a sensor sits directly above the evaluation"):
            fim_full(sc, placement, below)

    def test_collinear_placement_is_degenerate(self):
        sc = make_scenario(n=3, sigma_sq=np.full(3, 4.0))
        placement = Placement.from_angles([1.0, 1.0, 1.0])
        summary = fim_full(sc, placement, SourceParams(0.0, [0.0, 0.0]))
        scale = np.abs(summary.f).max()
        assert abs(summary.det_f) <= 1e-9 * scale**3
        assert summary.degenerate
        assert summary.lb_rmse == math.inf

    def test_determinant_identity_cube(self):
        # det F = slope^4 * (N*mean_inv_var)^3 * det T: every FIM entry
        # carries exactly one inverse-variance factor, so the prefactor is
        # cubic in the noise scale (see also the acceptance notes)
        rng = np.random.default_rng(14)
        for _ in range(100):
            sc = random_scenario(rng)
            placement = Placement.from_angles(rng.uniform(0, TWO_PI, sc.n_sensors))
            src = SourceParams(0.0, sc.source[:2])
            summary = fim_full(sc, placement, src)
            w = noise_weights(sc)
            cg = loss_slope(sc.gamma)
            rhs = cg**4 * (sc.n_sensors * w.mean_inv_var) ** 3 * np.linalg.det(summary.t)
            assert summary.det_f == pytest.approx(rhs, rel=1e-9)

    def test_noise_scaling(self):
        # multiplying every sigma by c leaves T (hence the argmax) unchanged
        # and scales every FIM entry by c^-2, so det F scales by c^-6
        rng = np.random.default_rng(15)
        sc = random_scenario(rng)
        placement = Placement.from_angles(rng.uniform(0, TWO_PI, sc.n_sensors))
        src = SourceParams(0.0, sc.source[:2])
        base = fim_full(sc, placement, src)
        c = 3.0
        sc_scaled = Scenario(
            source=sc.source, n_sensors=sc.n_sensors, gamma=sc.gamma,
            horiz_dist=sc.horiz_dist, vert_dist=sc.vert_dist,
            noise_std=sc.noise_std * c, samples_per_position=sc.samples_per_position,
        )
        scaled = fim_full(sc_scaled, placement, src)
        np.testing.assert_allclose(scaled.t, base.t, rtol=1e-12)
        assert scaled.det_f == pytest.approx(base.det_f * c**-6, rel=1e-9)
        np.testing.assert_allclose(scaled.f, base.f / c**2, rtol=1e-12)

    def test_lb_rmse_consistent_with_field(self):
        sc = make_scenario()
        placement = Placement.from_angles(TWO_PI * np.arange(1, 9) / 8)
        summary = fim_full(sc, placement, SourceParams(0.0, [0.0, 0.0]))
        inv = cofactor_inverse_3x3(summary.f)
        assert summary.lb_rmse == pytest.approx(math.sqrt(inv[1, 1] + inv[2, 2]), rel=1e-12)

    def test_case_a_uniform_120_lb_rmse(self):
        # case A geometry, uniform over 120 degrees, evaluated at the source
        sc = make_scenario(sigma_sq=[8.0] * 4 + [2.0] * 4, m=10, beta_max=math.radians(120.0))
        placement = Placement.from_angles(sc.beta_max * np.arange(1, 9) / 8)
        summary = fim_full(sc, placement, SourceParams(0.0, [0.0, 0.0]))
        assert summary.lb_rmse == pytest.approx(176.27, abs=0.01)

    def test_t_matches_coupling_reference(self):
        # the O(N) weighted-covariance T against G' D B D G built from the
        # N x N coupling matrix, with an off-source evaluation
        rng = np.random.default_rng(21)
        for _ in range(20):
            sc = random_scenario(rng)
            placement = Placement.from_angles(rng.uniform(0, TWO_PI, sc.n_sensors))
            at = sc.source[:2] + rng.normal(0.0, 30.0, 2)
            summary = fim_full(sc, placement, SourceParams(0.0, at))
            pos = sensor_positions(sc, placement)
            dx, dy = pos[:, 0] - at[0], pos[:, 1] - at[1]
            r = np.hypot(dx, dy)
            d_sq = r**2 + pos[:, 2] ** 2
            ref = t_matrix(
                np.column_stack([dy / r, dx / r]), r / d_sq, coupling_matrix(noise_weights(sc))
            )
            np.testing.assert_allclose(summary.t, ref, rtol=0, atol=1e-12 * np.abs(ref).max())


def cofactor_inverse_3x3(f):
    """Independent 3x3 inversion by explicit cofactor expansion (oracle)."""
    a, b, c = f[0]
    d, e, g = f[1]
    h, i, j = f[2]
    det = a * (e * j - g * i) - b * (d * j - g * h) + c * (d * i - e * h)
    cof = np.array(
        [
            [e * j - g * i, -(d * j - g * h), d * i - e * h],
            [-(b * j - c * i), a * j - c * h, -(a * i - b * h)],
            [b * g - c * e, -(a * g - c * d), a * e - b * d],
        ]
    )
    return cof.T / det


class TestLbRmse:
    def test_matches_cofactor_oracle(self):
        rng = np.random.default_rng(17)
        for _ in range(30):
            sc = random_scenario(rng)
            placement = Placement.from_angles(rng.uniform(0, TWO_PI, sc.n_sensors))
            summary = fim_full(sc, placement, SourceParams(0.0, sc.source[:2]))
            if summary.degenerate:
                continue
            inv = cofactor_inverse_3x3(summary.f)
            expect = math.sqrt(inv[1, 1] + inv[2, 2])
            assert summary.lb_rmse == pytest.approx(expect, rel=1e-10)


class TestTScores:
    def test_stack_entries_have_the_bits_of_one_entry_calls(self):
        rng = np.random.default_rng(31)
        a = rng.normal(size=(60, 2, 2)) * 10.0 ** rng.uniform(-9.0, -3.0, (60, 1, 1))
        t = a.swapaxes(-1, -2) @ a
        t[0] = 0.0
        t[1] = np.outer([0.6, 0.8], [0.6, 0.8])
        scale = rng.uniform(0.1, 10.0, 60)
        det, lb, degenerate = t_scores(t, scale)
        lam_min, lam_max = t_eigenvalues(t)
        for i in range(len(t)):
            assert t_scores(t[i : i + 1], scale[i : i + 1]) == ([det[i]], [lb[i]], [degenerate[i]])
            assert t_eigenvalues(t[i]) == (lam_min[i], lam_max[i])
        assert degenerate[:2] == [True, True] and not any(degenerate[2:])

    def test_degenerate_stack_is_inf_without_warnings(self):
        # sensors on one line through the source make T rank one; a zero
        # coupling makes it 0
        sc = make_scenario(n=4, r=[500.0, 1000.0, 1500.0, 2000.0])
        sens = sensitivity_diag(sc)
        b = coupling_matrix(noise_weights(sc), Variant.RSSD)
        collinear = Placement.from_angles([0.7, 0.7, 0.7 + math.pi, 0.7 + math.pi]).directions
        spread = Placement.from_angles(TWO_PI * np.arange(1, 5) / 4).directions
        t = np.stack(
            [t_matrix(collinear, sens, b), np.zeros((2, 2)), t_matrix(spread, sens, b)]
        )
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            det, lb, degenerate = t_scores(t, [1.0, 1.0, 1.0])
        assert degenerate == [True, True, False]
        assert lb[:2] == [math.inf, math.inf] and math.isfinite(lb[2])
        assert abs(det[0]) <= 1e-12 * np.trace(t[0]) ** 2 and det[1] == 0.0

    def test_lb_rmse_matches_the_coupling_reference(self):
        # LB-RMSE = sqrt(tr T^-1 / lb_scale) with T = G' D B D G from the
        # N x N coupling matrix, for a stack of random placements in one call
        rng = np.random.default_rng(32)
        worst = 0.0
        for _ in range(10):
            sc = random_scenario(rng)
            weights = noise_weights(sc)
            b = coupling_matrix(weights)
            sens = sensitivity_diag(sc)
            angles = rng.uniform(0, TWO_PI, (30, sc.n_sensors))
            center = sc.source[:2]
            dx, dy, d_sq = sensor_offsets(center, sc.horiz_dist, sc.vert_dist, angles, center)
            w = np.broadcast_to(weights.w, dx.shape)
            _, _, lb, degenerate = reduced_scores(dx, dy, d_sq, w, [weights.lb_scale] * len(angles))
            assert not any(degenerate)
            for row, value in zip(angles, lb):
                ref = t_matrix(Placement.from_angles(row).directions, sens, b)
                want = math.sqrt(np.trace(np.linalg.inv(ref)) / weights.lb_scale)
                worst = max(worst, abs(value - want) / want)
        assert worst <= 1e-12, worst


def rotation(phi):
    return np.array([[math.cos(phi), -math.sin(phi)], [math.sin(phi), math.cos(phi)]])


class TestApplyOrthogonal:
    def test_identity_transform(self):
        p = Placement.from_angles([0.2, 1.2, 2.2])
        q = apply_orthogonal(p, np.eye(2))
        np.testing.assert_allclose(q.angles, p.angles, atol=1e-12)

    def test_rotation_preserves_det_t(self):
        rng = np.random.default_rng(18)
        sc = make_scenario(sigma_sq=[8.0] * 4 + [2.0] * 4)
        w = noise_weights(sc)
        b = coupling_matrix(w, Variant.RSSD)
        sens = sensitivity_diag(sc)
        placement = Placement.from_angles(rng.uniform(0, TWO_PI, 8))
        t0 = np.linalg.det(t_matrix(placement.directions, sens, b))
        for _ in range(50):
            u = rotation(rng.uniform(0, TWO_PI))
            moved = apply_orthogonal(placement, u)
            t1 = np.linalg.det(t_matrix(moved.directions, sens, b))
            assert t1 == pytest.approx(t0, rel=1e-10)

    def test_reflection_preserves_det_t_and_lb(self):
        sc = make_scenario(sigma_sq=[8.0] * 4 + [2.0] * 4)
        placement = Placement.from_angles(TWO_PI * np.arange(1, 9) / 8)
        src = SourceParams(0.0, [0.0, 0.0])
        base = fim_full(sc, placement, src)
        reflect = np.diag([1.0, -1.0])
        moved = apply_orthogonal(placement, reflect)
        out = fim_full(sc, moved, src)
        assert np.linalg.det(out.t) == pytest.approx(np.linalg.det(base.t), rel=1e-10)
        assert out.lb_rmse == pytest.approx(base.lb_rmse, rel=1e-10)

    def test_rejects_non_orthogonal(self):
        with pytest.raises(ValueError, match="orthogonal"):
            apply_orthogonal(Placement.from_angles([0.0]), np.array([[1.0, 0.1], [0.0, 1.0]]))

    @pytest.mark.parametrize("bad", [math.nan, math.inf])
    def test_rejects_non_finite(self, bad):
        # NaN fails every comparison, so the orthogonality test alone lets it through
        u = np.full((2, 2), bad)
        with pytest.raises(ValueError, match="expected an orthogonal 2x2 matrix"):
            apply_orthogonal(Placement.from_angles([0.3, 1.0, 2.0]), u)
        u = np.eye(2)
        u[0, 1] = bad
        with pytest.raises(ValueError, match="expected an orthogonal 2x2 matrix"):
            apply_orthogonal(Placement.from_angles([0.3, 1.0, 2.0]), u)

    def test_identity_round_trips_angles(self):
        beta = np.random.default_rng(2).uniform(0, TWO_PI, 1000)
        back = apply_orthogonal(Placement.from_angles(beta), np.eye(2)).angles
        np.testing.assert_allclose(back, beta, rtol=0, atol=1e-12)
        third = apply_orthogonal(Placement.from_angles([5 * math.pi / 4]), np.eye(2)).angles
        assert third[0] == pytest.approx(5 * math.pi / 4, abs=1e-12)

    @pytest.mark.parametrize("phi", [0.4, math.pi / 2, math.pi, 4.0, -2.5])
    def test_rotation_and_reflection_move_angles(self, phi):
        # third-quadrant directions (pi, 3*pi/2) on both sides of the map
        beta = np.concatenate(
            [np.random.default_rng(7).uniform(0, TWO_PI, 200), [3.5, 4.0, 5 * math.pi / 4]]
        )
        placement = Placement.from_angles(beta)
        c, s = math.cos(phi), math.sin(phi)
        reflect = np.array([[c, s], [s, -c]])  # mirror in the line at angle phi / 2
        for u, want in ((rotation(phi), beta + phi), (reflect, phi - beta)):
            got = apply_orthogonal(placement, u).angles
            assert np.all((got >= 0.0) & (got < TWO_PI))
            # distance on the circle, so 2*pi - 1e-15 and 0 count as equal
            gap = np.abs(np.angle(np.exp(1j * (got - wrap_angles(want)))))
            assert np.max(gap) <= 1e-12


class TestG0Bound:
    def test_half_circle(self):
        bound = g0_bound(math.pi)
        np.testing.assert_allclose(bound.g0, [-1.0, 0.0], atol=1e-12)

    def test_full_circle_vacuous(self):
        bound = g0_bound(TWO_PI)
        np.testing.assert_allclose(bound.g0, [-1.0, -1.0], atol=1e-12)

    def test_quarter_circle(self):
        bound = g0_bound(math.pi / 2)
        np.testing.assert_allclose(bound.g0, [0.0, 0.0], atol=1e-12)

    def test_built_from_beta_max_alone(self):
        # beta_max is the bound's one field; g0 follows from it
        assert [f.name for f in fields(ConstraintBound)] == ["beta_max"]
        for beta_max in (0.3, math.pi / 2, math.pi, 3.5, TWO_PI):
            bound = ConstraintBound(beta_max)
            if beta_max <= math.pi:
                want = [math.cos(beta_max), 0.0]
            else:
                want = [-1.0, math.cos(beta_max / 2.0)]
            assert bound.g0.tobytes() == np.array(want).tobytes()
            assert g0_bound(beta_max) == bound

    def test_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            g0_bound(0.0)
        with pytest.raises(ValueError):
            g0_bound(7.0)


def angle_in_equivalent_set(beta, beta_max):
    """Independent membership oracle for the bound's feasible angle set.

    For beta_max <= pi the set is [0, beta_max]; above pi it is the union
    [0, pi/2 + beta_max/2] | [5*pi/2 - beta_max/2, 2*pi), the rotated copy
    of [0, beta_max] the vector bound describes.
    """
    beta = wrap_angle(beta)
    if beta_max <= math.pi:
        return 0.0 <= beta <= beta_max
    return beta <= math.pi / 2 + beta_max / 2 or beta >= 5 * math.pi / 2 - beta_max / 2


class TestIsFeasible:
    def test_full_circle_everything_feasible(self):
        rng = np.random.default_rng(19)
        placement = Placement.from_angles(rng.uniform(0, TWO_PI, 30))
        assert is_feasible(placement, g0_bound(TWO_PI)).ok

    def test_violation_reports_row_and_coordinate(self):
        placement = Placement.from_angles([0.1, 3 * math.pi / 4])
        report = is_feasible(placement, g0_bound(math.pi / 2))
        assert not report.ok
        rows = [v[0] for v in report.violations]
        assert rows == [1]
        assert report.violations[0][1] == "coord0"  # cos negative in quadrant 2

    def test_matches_angle_set_oracle(self):
        rng = np.random.default_rng(20)
        for beta_max_deg in (60.0, 120.0, 200.0, 280.0):
            beta_max = math.radians(beta_max_deg)
            bound = g0_bound(beta_max)
            betas = rng.uniform(0, TWO_PI, 10_000)
            for beta in betas:
                placement = Placement.from_angles([beta])
                got = bool(is_feasible(placement, bound, tol=1e-12))
                expect = angle_in_equivalent_set(beta, beta_max)
                assert got == expect, (beta, beta_max_deg)
