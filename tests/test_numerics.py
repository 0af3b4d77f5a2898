"""Deterministic linear-algebra kernel tests."""

import numpy as np
import pytest

from rssdgeom.fim import coupling_matrix, noise_weights
from rssdgeom.model import Scenario
from rssdgeom.numerics import psd_sqrt, row_dots, sym_eig_max, thin_svd


def case_a_coupling():
    sc = Scenario(
        source=[0, 0, 0], n_sensors=8, gamma=2.0,
        horiz_dist=np.full(8, 1000.0), vert_dist=np.full(8, 100.0),
        noise_std=np.sqrt([8.0] * 4 + [2.0] * 4), samples_per_position=1,
    )
    return coupling_matrix(noise_weights(sc), sc.variant)


class TestPsdSqrt:
    def test_identity(self):
        np.testing.assert_allclose(psd_sqrt(np.eye(3)), np.eye(3), atol=1e-14)

    def test_diagonal(self):
        np.testing.assert_allclose(psd_sqrt(np.diag([4.0, 9.0])), np.diag([2.0, 3.0]), atol=1e-14)

    def test_reconstructs_coupling_and_inherits_null_space(self):
        b = case_a_coupling()
        s = psd_sqrt(b)
        np.testing.assert_allclose(s @ s.T, b, atol=1e-10)
        # the coupling annihilates the all-ones vector; its root must too
        np.testing.assert_allclose(s @ np.ones(8), 0.0, atol=1e-9)

    def test_symmetric_output(self):
        rng = np.random.default_rng(3)
        a = rng.normal(size=(6, 6))
        b = a @ a.T
        s = psd_sqrt(b)
        np.testing.assert_allclose(s, s.T, atol=1e-12)
        np.testing.assert_allclose(s @ s.T, b, rtol=1e-9, atol=1e-12)

    def test_rejects_indefinite(self):
        with pytest.raises(ValueError, match="PSD"):
            psd_sqrt(np.diag([1.0, -1.0]))

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            psd_sqrt(np.array([[1.0, 2.0], [0.0, 1.0]]))

    def test_stack_equals_one_call_per_matrix_bitwise(self):
        # rank-deficient inputs, like the coupling matrices the solver factors
        rng = np.random.default_rng(4)
        for n in (3, 4, 8, 16, 33):
            w = rng.uniform(0.1, 2.0, (6, n))
            w /= w.sum(axis=1, keepdims=True)
            b = np.stack([np.diag(row) - np.outer(row, row) for row in w])
            stacked = psd_sqrt(b)
            for one, want in zip(b, stacked):
                assert psd_sqrt(one).tobytes() == want.tobytes()

    def test_stack_rejects_one_indefinite_matrix(self):
        with pytest.raises(ValueError, match="PSD"):
            psd_sqrt(np.stack([np.eye(2), np.diag([1.0, -1.0])]))
        with pytest.raises(ValueError, match="symmetric"):
            psd_sqrt(np.stack([np.eye(2), np.array([[1.0, 2.0], [0.0, 1.0]])]))


@pytest.mark.parametrize("kernel", [psd_sqrt, sym_eig_max])
@pytest.mark.parametrize("shape", [(2, 3), (4, 3, 2), (5,)])
def test_symmetric_kernels_reject_a_matrix_that_is_not_square(kernel, shape):
    with pytest.raises(ValueError, match="^expected a square matrix or a stack of them"):
        kernel(np.ones(shape))


class TestThinSvd:
    def test_orthogonal_columns_give_their_norms(self):
        a = np.zeros((4, 2))
        a[:, 0] = np.array([3.0, 4.0, 0.0, 0.0])          # norm 5
        a[:, 1] = np.array([0.0, 0.0, -3.0, 0.0])         # norm 3
        _, sigma, _ = thin_svd(a)
        np.testing.assert_allclose(sigma, [5.0, 3.0], atol=1e-12)

    def test_rank_one_input(self):
        u = np.array([1.0, 2.0, -1.0, 0.5])
        a = np.outer(u, [2.0, -1.0])
        _, sigma, _ = thin_svd(a)
        assert sigma[1] <= 1e-12 * np.linalg.norm(a)

    def test_reconstruction_and_orthonormality(self):
        rng = np.random.default_rng(4)
        for _ in range(50):
            a = rng.normal(size=(8, 2))
            u, sigma, vh = thin_svd(a)
            back = u @ np.diag(sigma) @ vh
            np.testing.assert_allclose(back, a, atol=1e-10 * np.linalg.norm(a))
            np.testing.assert_allclose(u.T @ u, np.eye(2), atol=1e-12)
            np.testing.assert_allclose(vh @ vh.T, np.eye(2), atol=1e-12)
            assert sigma[0] >= sigma[1] >= 0

    def test_deterministic_bits(self):
        rng = np.random.default_rng(5)
        a = rng.normal(size=(6, 2))
        for first, second in zip(thin_svd(a), thin_svd(a.copy())):
            assert np.array_equal(first, second)

    def test_rejects_wrong_shape(self):
        with pytest.raises(ValueError):
            thin_svd(np.zeros((1, 2)))
        with pytest.raises(ValueError):
            thin_svd(np.zeros((4, 3)))


def power_iteration_extreme(m, iters=20000, tol=1e-14):
    """Largest-magnitude eigenvalue by plain power iteration (test oracle)."""
    rng = np.random.default_rng(99)
    v = rng.normal(size=m.shape[0])
    v /= np.linalg.norm(v)
    lam = 0.0
    for _ in range(iters):
        w = m @ v
        nw = np.linalg.norm(w)
        if nw == 0:
            return 0.0
        v_new = w / nw
        lam_new = float(v_new @ m @ v_new)
        if abs(lam_new - lam) < tol * max(1.0, abs(lam_new)):
            return lam_new
        v, lam = v_new, lam_new
    return lam


class TestSymEigMax:
    def test_diagonal(self):
        assert sym_eig_max(np.diag([1.0, 7.0, 3.0])) == pytest.approx(7.0, abs=1e-12)

    def test_identity(self):
        assert sym_eig_max(np.eye(4)) == pytest.approx(1.0, abs=1e-12)

    def test_matches_power_iteration(self):
        rng = np.random.default_rng(7)
        for _ in range(10):
            a = rng.normal(size=(8, 8))
            m = a @ a.T  # PSD so the top eigenvalue is the dominant one
            assert sym_eig_max(m) == pytest.approx(power_iteration_extreme(m), rel=1e-8)

    def test_shift_is_negative_semidefinite(self):
        rng = np.random.default_rng(8)
        a = rng.normal(size=(6, 6))
        m = 0.5 * (a + a.T)
        lam = sym_eig_max(m)
        shifted = m - lam * np.eye(6)
        assert np.linalg.eigvalsh(shifted)[-1] <= 1e-9

    def test_rejects_asymmetric(self):
        with pytest.raises(ValueError, match="symmetric"):
            sym_eig_max(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stack_equals_one_call_per_matrix_bitwise(self):
        rng = np.random.default_rng(9)
        for n in (3, 8, 16, 40):
            a = rng.normal(size=(5, n, n))
            m = a @ a.swapaxes(-1, -2)
            m = 0.5 * (m + m.swapaxes(-1, -2))
            stacked = sym_eig_max(m)
            assert stacked.shape == (5,)
            assert [sym_eig_max(one) for one in m] == stacked.tolist()


class TestRowDots:
    def test_equals_one_dimensional_dot_bitwise(self):
        rng = np.random.default_rng(10)
        for n in (2, 3, 8, 17, 64):
            a = rng.normal(size=(40, n)) * rng.uniform(1e-3, 1e3, (40, 1))
            b = rng.normal(size=(40, n))
            shared = rng.normal(size=n)
            np.testing.assert_array_equal(row_dots(a, b), [float(x @ y) for x, y in zip(a, b)])
            np.testing.assert_array_equal(row_dots(a, shared), [float(x @ shared) for x in a])
