"""Small dense linear-algebra kernels around LAPACK via numpy.

psd_sqrt fixes the square-root branch (the symmetric root, with rounding-
level eigenvalues truncated). thin_svd leaves the sign of each singular
pair to LAPACK: the optimizer only forms products u_j v_j^T, which do not
depend on it. thin_svd and row_dots accept leading batch axes and give
every batch entry the bits of the unbatched call.
"""

from __future__ import annotations

import numpy as np


def _check_symmetric(m: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    m = np.asarray(m, dtype=float)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        raise ValueError(f"expected a square matrix, got shape {m.shape}")
    scale = max(1.0, float(np.max(np.abs(m))))
    if np.max(np.abs(m - m.T)) > tol * scale:
        raise ValueError("matrix is not symmetric")
    return m


def psd_sqrt(b: np.ndarray) -> np.ndarray:
    """Symmetric square root S of a PSD matrix, S @ S.T == b.

    Computed through the symmetric eigendecomposition with negative
    eigenvalues in [-1e-8, 0) clamped to zero; anything more negative raises.
    A triangular factorization would fail here because the inputs are
    typically exactly rank-deficient.
    """
    b = _check_symmetric(b)
    values, vectors = np.linalg.eigh(b)
    scale = max(1.0, float(values[-1]))
    if values[0] < -1e-8 * scale:
        raise ValueError(f"matrix is not PSD: min eigenvalue {values[0]:.3e}")
    # eigenvalues at rounding level are exact zeros of the rank-deficient
    # inputs this serves; truncating keeps the null space clean
    values = np.where(values < 1e-14 * max(float(values[-1]), 0.0), 0.0, values)
    root = np.sqrt(values)
    s = (vectors * root) @ vectors.T
    return 0.5 * (s + s.T)


def thin_svd(a: np.ndarray) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """NumPy's thin SVD (u, sigma, vh) of an (N, 2) matrix, N >= 2, or of a
    stack (..., N, 2); each singular pair carries the sign LAPACK returns."""
    a = np.asarray(a, dtype=float)
    if a.ndim < 2 or a.shape[-1] != 2 or a.shape[-2] < 2:
        raise ValueError(f"expected an (N, 2) matrix with N >= 2, got shape {a.shape}")
    return np.linalg.svd(a, full_matrices=False)


def sym_eig_max(m: np.ndarray) -> float:
    """Largest eigenvalue of a symmetric matrix."""
    m = _check_symmetric(m)
    return float(np.linalg.eigvalsh(m)[-1])


def row_dots(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Dot of each row of a with b: its matching row, or one shared vector.

    Leading axes broadcast, so a (B, N, K) stack takes a (B, 1, K) vector
    per entry. Goes through the same BLAS dot as the 1-D product
    a[i] @ b[i], so every entry is bit-identical to it (a sum such as
    np.sum(a * b, axis=1) rounds differently).
    """
    return (a[..., None, :] @ b[..., None])[..., 0, 0]
