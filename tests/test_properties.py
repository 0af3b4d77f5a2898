"""Property tests: sign invariance of the X-update and symmetries of the scores."""

import math
from dataclasses import replace
from unittest import mock

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from rssdgeom import admm
from rssdgeom.admm import x_update
from rssdgeom.fim import fim_full
from rssdgeom.model import Placement, Scenario, SourceParams, Variant
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
        variant=draw(st.sampled_from([Variant.RSSD, Variant.RSS])),
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
        return u * sign[:, None, :], sigma, vh * sign[:, :, None]

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
