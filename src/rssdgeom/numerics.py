"""Small dense linear-algebra kernels around LAPACK via numpy.

psd_sqrt fixes the square-root branch (the symmetric root, with rounding-
level eigenvalues truncated). thin_svd leaves the sign of each singular
pair to LAPACK: the optimizer only forms products u_j v_j^T, which do not
depend on it. Every kernel here accepts leading batch axes (a stack of
matrices) and gives every batch entry the bits of the unbatched call.
"""

from __future__ import annotations

import numpy as np


def _check_symmetric(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim < 2 or m.shape[-1] != m.shape[-2]:
        raise ValueError(f"expected a square matrix or a stack of them, got shape {m.shape}")
    scale = np.maximum(1.0, np.abs(m).max(axis=(-2, -1)))
    if np.any(np.abs(m - m.swapaxes(-1, -2)).max(axis=(-2, -1)) > tol * scale):
        raise ValueError("matrix is not symmetric")
    return m


def psd_sqrt(b: np.ndarray) -> np.ndarray:
    """Symmetric square root S of a PSD matrix, S @ S.T == b, or of each of a stack.

    Computed through the symmetric eigendecomposition with negative
    eigenvalues in [-1e-8, 0) clamped to zero; anything more negative raises.
    A triangular factorization would fail here because the inputs are
    typically exactly rank-deficient.
    """
    b = _check_symmetric(b)
    values, vectors = np.linalg.eigh(b)
    low, top = values[..., 0], values[..., -1:]
    not_psd = low < -1e-8 * np.maximum(1.0, top[..., 0])
    if np.any(not_psd):
        raise ValueError(f"matrix is not PSD: min eigenvalue {low[not_psd].flat[0]:.3e}")
    # eigenvalues at rounding level are exact zeros of the rank-deficient
    # inputs this serves; truncating keeps the null space clean
    values = np.where(values < 1e-14 * np.maximum(top, 0.0), 0.0, values)
    root = np.sqrt(values)
    s = (vectors * root[..., None, :]) @ vectors.swapaxes(-1, -2)
    return 0.5 * (s + s.swapaxes(-1, -2))


def thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """NumPy's thin SVD (u, sigma, vh) of an (N, 2) matrix, N >= 2, or of a
    stack (..., N, 2); each singular pair carries the sign LAPACK returns."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != 2 or a.shape[-2] < 2:
        raise ValueError(f"expected an (N, 2) matrix with N >= 2, got shape {a.shape}")
    return np.linalg.svd(a, full_matrices=False)


def sym_eig_max(m: np.ndarray):
    """Largest eigenvalue of a symmetric matrix (a float), or of each of a stack (an array)."""
    m = _check_symmetric(m)
    top = np.linalg.eigvalsh(m)[..., -1]
    return float(top) if m.ndim == 2 else top


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot of each row of a with b: its matching row, or one shared vector.

    Leading axes broadcast, so a (B, N, K) stack takes a (B, 1, K) vector
    per entry. Goes through the same BLAS dot as the 1-D product
    a[i] @ b[i], so every entry is bit-identical to it (a sum such as
    np.sum(a * b, axis=1) rounds differently).
    """
    return (a[..., None, :] @ b[..., None])[..., 0, 0]
