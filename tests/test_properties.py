"""Property tests: sign invariance of the X-update, symmetries of the scores, the frame
bound and the triangle identity."""

import math
from dataclasses import replace
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rssdgeom import admm
from rssdgeom.admm import x_update
from rssdgeom.fim import fim_full, noise_weights, sensitivity_diag
from rssdgeom.model import Placement, Scenario, SourceParams, case_b
from rssdgeom.numerics import thin_svd

TWO_PI = 2.0 * math.pi

PROPERTY = settings(derandomize=True, database=None, deadline=None)

finite = st.floats(-1e3, 1e3, allow_nan=False, allow_infinity=False)


@st.composite
def batched_j(draw):
    """A (B, N, 2) stack of J matrices, one rho per design, and a sign mask (B, 2)."""
    b = draw(st.integers(1, 4))
    n = draw(st.integers(2, 12))
    j = np.array(draw(st.lists(finite, min_size=2 * n * b, max_size=2 * n * b))).reshape(b, n, 2)
    rho = np.array(draw(st.lists(st.floats(1e-3, 1e3), min_size=b, max_size=b)))
    flip = np.array(draw(st.lists(st.booleans(), min_size=2 * b, max_size=2 * b))).reshape(b, 2)
    return j, rho, flip


@st.composite
def scenarios(draw):
    """A scenario with N in [4, 10] and the angles of a placement of it."""
    n = draw(st.integers(4, 10))

    def vector(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    sc = Scenario(
        source=[draw(st.floats(-500, 500)), draw(st.floats(-500, 500)), 0.0],
        n_sensors=n,
        gamma=draw(st.floats(1.5, 4.0)),
        horiz_dist=vector(50.0, 3000.0),
        vert_dist=vector(0.0, 600.0),
        noise_std=vector(0.5, 4.0),
        samples_per_position=draw(st.integers(1, 20)),
    )
    return sc, vector(0.0, TWO_PI)


def scores(sc, angles):
    """(det T, LB-RMSE) of a placement at the scenario's own source, or None if ill-posed."""
    summary = fim_full(sc, Placement.from_angles(angles), SourceParams(0.0, sc.source[:2]))
    eig = np.linalg.eigvalsh(summary.t)
    if summary.degenerate or eig[0] <= 1e-5 * eig[1]:
        return None
    return float(np.linalg.det(summary.t)), summary.lb_rmse


def assert_rel_close(got, want, rel=1e-9):
    assert abs(got - want) <= rel * abs(want), (got, want)


@PROPERTY
@given(batched_j())
def test_x_update_ignores_singular_pair_signs(case):
    # X = U diag(lambda) V^T holds each pair only as u_j v_j^T, so negating
    # any pair of J's SVD must leave every bit of X unchanged
    j, rho, flip = case
    sign = np.where(flip, -1.0, 1.0)

    def flipped_svd(a):
        u, sigma, vh = thin_svd(a)
        # x_update hands over only the designs that need the SVD, so flip
        # the pairs of as many designs as it passes
        rows = sign[: len(a)]
        return u * rows[:, None, :], sigma, vh * rows[:, :, None]

    plain = x_update(j, rho)
    with mock.patch.object(admm, "thin_svd", flipped_svd):
        negated = x_update(j, rho)
    np.testing.assert_array_equal(negated, plain)


@PROPERTY
@given(scenarios(), st.data())
def test_scores_invariant_under_joint_permutation(case, data):
    sc, angles = case
    base = scores(sc, angles)
    assume(base is not None)
    order = np.array(data.draw(st.permutations(range(sc.n_sensors))))
    permuted = replace(
        sc,
        horiz_dist=sc.horiz_dist[order],
        vert_dist=sc.vert_dist[order],
        noise_std=sc.noise_std[order],
    )
    det_t, lb = scores(permuted, angles[order])
    assert_rel_close(det_t, base[0])
    assert_rel_close(lb, base[1])


@PROPERTY
@given(scenarios(), st.floats(0.0, TWO_PI), st.booleans())
def test_scores_invariant_under_rotation_and_reflection(case, phi, reflect):
    sc, angles = case
    base = scores(sc, angles)
    assume(base is not None)
    moved = (phi - angles if reflect else angles + phi) % TWO_PI
    det_t, lb = scores(sc, moved)
    assert_rel_close(det_t, base[0])
    assert_rel_close(lb, base[1])


@PROPERTY
@given(scenarios(), st.floats(0.05, 20.0))
def test_lb_rmse_scales_with_distances(case, k):
    sc, angles = case
    base = scores(sc, angles)
    assume(base is not None)
    scaled = replace(sc, horiz_dist=k * sc.horiz_dist, vert_dist=k * sc.vert_dist)
    _, lb = scores(scaled, angles)
    assert_rel_close(lb, k * base[1])


@st.composite
def bound_cases(draw):
    """A scenario with N in [3, 19] on a random arc, and a placement seed."""
    n = draw(st.integers(3, 19))

    def vector(lo, hi):
        return np.array(draw(st.lists(st.floats(lo, hi), min_size=n, max_size=n)))

    sc = Scenario(
        source=[draw(st.floats(-500, 500)), draw(st.floats(-500, 500)), 0.0],
        n_sensors=n,
        gamma=draw(st.floats(1.5, 4.0)),
        horiz_dist=vector(50.0, 3000.0),
        vert_dist=vector(0.0, 600.0),
        noise_std=vector(0.5, 4.0),
        samples_per_position=draw(st.integers(1, 20)),
        beta_max=draw(st.floats(0.01, TWO_PI)),
    )
    return sc, draw(st.integers(0, 2**32 - 1))


def frame_bound(sc):
    """(sum_i w_i c_i^2 / 2)^2, w the noise weights and c_i = r_i / d_i^2."""
    w, c = noise_weights(sc).w, sensitivity_diag(sc)
    return (float(np.sum(w * c**2)) / 2.0) ** 2


def det_t(sc, angles):
    """det T of a placement at the scenario's own source."""
    summary = fim_full(sc, Placement.from_angles(angles), SourceParams(0.0, sc.source[:2]))
    return float(np.linalg.det(summary.t))


@PROPERTY
@given(bound_cases())
def test_det_t_never_exceeds_the_frame_bound(case):
    # tr T <= sum w_i c_i^2 (T is a weighted covariance of the points
    # c_i g_i), so det T <= (tr T / 2)^2
    # is at most the bound on every arc
    sc, seed = case
    bound = frame_bound(sc)
    for angles in np.random.default_rng(seed).uniform(0.0, sc.beta_max, (30, sc.n_sensors)):
        assert det_t(sc, angles) <= bound * (1.0 + 1e-12)


@pytest.mark.parametrize("n", [3, 4, 8])
def test_regular_polygon_meets_the_frame_bound(n):
    # identical sensors on a regular polygon: m = 0 and T = c^2 / 2 * I
    sc = case_b(n)
    assert det_t(sc, TWO_PI * np.arange(n) / n) == pytest.approx(frame_bound(sc), rel=1e-12)


@PROPERTY
@given(bound_cases())
def test_triangle_identity(case):
    # T is the w-weighted covariance of the points u_i = c_i e(theta_i), with
    # sum w = 1, so by Cauchy-Binet det T is the weighted sum of the squared
    # doubled areas of the triangles they span. det T is formed by
    # cancellation near degenerate placements, hence the floor at the bound.
    sc, seed = case
    w, c = noise_weights(sc).w, sensitivity_diag(sc)
    floor = 1e-12 * frame_bound(sc)
    i, j, k = np.array(list(combinations(range(sc.n_sensors), 3))).T
    for angles in np.random.default_rng(seed).uniform(0.0, sc.beta_max, (30, sc.n_sensors)):
        u = c[:, None] * np.column_stack([np.cos(angles), np.sin(angles)])
        a, b = u[j] - u[i], u[k] - u[i]
        areas = a[:, 0] * b[:, 1] - a[:, 1] * b[:, 0]
        want = float(np.sum(w[i] * w[j] * w[k] * areas**2))
        assert abs(det_t(sc, angles) - want) <= max(1e-9 * want, floor), (det_t(sc, angles), want)
