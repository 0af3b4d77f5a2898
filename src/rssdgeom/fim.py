"""Fisher information assembly and the spread-angle constraint machinery.

The estimation parameters are theta = (P0, x, y). For Gaussian measurement
noise the FIM is F = Jac.T @ N^-1 @ Jac with Jac = [1, a_x, a_y] per sensor,
where a_x, a_y are the derivatives of the path-loss mean w.r.t. the source
coordinates. fim_full keeps F for the determinant identity below;
everything it scores comes from the reduced 2x2 matrix T = G.T D B D G,
built from the direction matrix G, the sensitivity diagonal
D = diag(r_i / d_i^2) and the noise-coupling matrix B, which profiles the
unknown P0 out, so the position CRLB is (slope^2 * sum 1/var_i * T)^-1.
reduced_scores evaluates T in O(N) as a weighted covariance, for a stack of
placements at once (the solver scores every design of a batch with one
call; fim_full calls it with one placement). t_scores holds the one rule
that turns a stack of T into det T, the LB-RMSE and the degenerate flag,
from the closed-form eigenvalues of t_eigenvalues; every caller that
scores a T, the solver's iterates included, goes through it.
coupling_matrix and sensitivity_diag return B and the diagonal of D as plain
arrays for the solver set-up; t_matrix builds T from them the N x N way, as
a reference.

The determinant identity relating F and T is

    det(F) = (10*gamma/ln 10)^4 * (N * mean_inv_var)^3 * det(T)

where mean_inv_var is the average inverse effective variance. Note the cube:
every entry of F carries exactly one factor of the noise inverse-covariance,
so det(F) scales with its third power. (A frequently quoted version of this
identity with a square instead of a cube does not match a direct evaluation
of F; see tests.)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .model import Placement, Scenario, SourceParams, Variant, loss_slope, spread_bound


@dataclass
class NoiseWeights:
    """Normalized inverse-variance weights, their unnormalized mean and the LB scale.

    w sums to one; mean_inv_var is the average of the inverse effective
    variances (variance of one averaged measurement, sigma_i^2 / m);
    lb_scale is slope^2 * sum 1/var_i, the factor that turns tr T^-1 into
    the squared LB-RMSE (reduced_scores).
    """

    w: np.ndarray
    mean_inv_var: float
    lb_scale: float


def noise_weights(scenario: Scenario) -> NoiseWeights:
    inv_var = 1.0 / scenario.effective_var
    inv_var_sum = inv_var.sum()
    return NoiseWeights(
        w=inv_var / inv_var_sum,
        mean_inv_var=float(inv_var.mean()),
        lb_scale=loss_slope(scenario.gamma) ** 2 * inv_var_sum,
    )


def coupling_matrix(weights: NoiseWeights, variant: Variant = Variant.RSSD) -> np.ndarray:
    """Noise-coupling matrix B of the reduced information form, as an (N, N) array.

    B = diag(w) - w w^T profiles the unknown power out; it is PSD, annihilates
    the all-ones vector and is exactly symmetric as computed. variant is the
    measurement model; model.Variant has only RSSD, so any other value
    raises ValueError.
    """
    Variant(variant)
    w = weights.w
    return np.diag(w) - np.outer(w, w)


def sensitivity_diag(scenario: Scenario) -> np.ndarray:
    """Diagonal entries r_i / d_i^2 of the range-sensitivity matrix D, as an (N,) array."""
    d = scenario.horiz_dist / scenario.slant_distances() ** 2
    if np.any(d <= 0):
        raise ValueError("sensitivity entries must be positive")
    return d


def t_matrix(g: np.ndarray, d: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Reduced 2x2 information matrix G.T D B D G (symmetric PSD).

    g: (N, 2) directions; d: the (N,) diagonal of D (sensitivity_diag);
    b: the (N, N) coupling matrix (coupling_matrix).
    """
    dg = d[:, None] * np.asarray(g, dtype=float)
    t = dg.T @ b @ dg
    return 0.5 * (t + t.T)


@dataclass
class FimSummary:
    """Scalar figures of merit of one placement and the matrices behind them.

    f is the 3x3 FIM of (P0, x, y), t the reduced matrix with P0 profiled
    out and lb_rmse the position bound it gives. A numerically singular t
    (degenerate geometry) sets the degenerate flag and lb_rmse to +inf.
    """

    f: np.ndarray
    t: np.ndarray
    det_f: float
    lb_rmse: float
    degenerate: bool = False


_DEGENERACY_RCOND = 1e-12


def fim_full(scenario: Scenario, placement: Placement, source: SourceParams) -> FimSummary:
    """Score a placement, evaluated at a source position.

    Sensor positions are built around the scenario's own source; the FIM is
    evaluated against the supplied source, which may differ (that is how a
    placement designed around a prior estimate is scored against the truth).
    T and the LB-RMSE come from reduced_scores, called with one placement.
    """
    if placement.n_sensors != scenario.n_sensors:
        raise ValueError("placement size does not match scenario")
    dx, dy, d_sq = sensor_offsets(
        scenario.source[:2],
        scenario.horiz_dist,
        scenario.vert_dist,
        placement.angles,
        source.position,
    )
    slope = loss_slope(scenario.gamma)
    a_x = slope * dx / d_sq
    a_y = slope * dy / d_sq
    jac = np.column_stack([np.ones_like(a_x), a_x, a_y])
    inv_var = 1.0 / scenario.effective_var
    f = jac.T @ (inv_var[:, None] * jac)
    f = 0.5 * (f + f.T)

    weights = noise_weights(scenario)
    t, _, lb, degenerate = reduced_scores(
        dx[None], dy[None], d_sq[None], weights.w[None], [weights.lb_scale]
    )
    return FimSummary(
        f=f, t=t[0], det_f=float(np.linalg.det(f)), lb_rmse=lb[0], degenerate=degenerate[0]
    )


def sensor_offsets(center, horiz, vert, angles, at):
    """Offsets dx, dy of every sensor from the point at, and its squared slant distance.

    Sensor i sits at center + horiz_i * (sin, cos)(angles_i), at height
    vert_i (the placement convention of model.sensor_positions). Points are
    (2,) and rows (N,), or (B, 2) and (B, N) for B designs at once.
    """
    center, at = np.asarray(center), np.asarray(at)
    dx = (center[..., :1] + horiz * np.sin(angles)) - at[..., :1]
    dy = (center[..., 1:] + horiz * np.cos(angles)) - at[..., 1:]
    r = np.hypot(dx, dy)
    if np.any(r <= 0):
        raise ValueError("a sensor sits directly above the evaluation source")
    return dx, dy, r**2 + vert**2


def reduced_scores(dx, dy, d_sq, w, lb_scale):
    """T, det T, LB-RMSE and the degenerate flag of B placements at once.

    dx, dy: (B, N) sensor offsets from the evaluation source; d_sq: (B, N)
    squared slant distances; w: (B, N) normalised inverse effective
    variances; lb_scale: B values of slope^2 * sum 1/var_i. Returns T as
    (B, 2, 2) and det T, the LB-RMSE and the degenerate flag as lists of B,
    scored by t_scores.

    With u_i = (dy_i, dx_i) / d_i^2, T = sum w_i u_i u_i^T - m m^T with
    m = sum w_i u_i, computed as the weighted covariance
    sum w_i (u_i - m)(u_i - m)^T. The position CRLB is
    (slope^2 * sum 1/var_i * T)^-1, so
    LB-RMSE = sqrt(tr T^-1 / (slope^2 * sum 1/var_i)).
    """
    # rows (cos, sin) * r / d^2 of the angle convention tan(beta) = dx/dy
    u = np.stack([dy, dx], axis=-1) / d_sq[..., None]
    u = u - w[..., None, :] @ u
    t = (w[..., None] * u).swapaxes(-1, -2) @ u
    t = 0.5 * (t + t.swapaxes(-1, -2))
    return t, *t_scores(t, lb_scale)


def t_eigenvalues(t):
    """(lambda_min, lambda_max) of each symmetric 2x2 T of a (..., 2, 2) stack, closed form."""
    t00, t01, t11 = t[..., 0, 0], t[..., 0, 1], t[..., 1, 1]
    half_trace = 0.5 * (t00 + t11)
    half_gap = np.hypot(0.5 * (t00 - t11), t01)
    return half_trace - half_gap, half_trace + half_gap


def t_scores(t, lb_scale):
    """det T, LB-RMSE and the degenerate flag of each T of a (B, 2, 2) stack, as lists of B.

    det T = t00 t11 - t01^2 and LB-RMSE = sqrt((1/lambda_min + 1/lambda_max)
    / lb_scale), lb_scale being B values of slope^2 * sum 1/var_i. A T with
    lambda_min <= 1e-12 * lambda_max is degenerate: its LB-RMSE is +inf, and
    its eigenvalues are masked before the division, so a singular or zero T
    raises no floating-point warning. Every entry has the bits of a
    one-entry call on it.
    """
    lam_min, lam_max = t_eigenvalues(t)
    degenerate = lam_min <= _DEGENERACY_RCOND * np.maximum(lam_max, 0.0)
    lam_min, lam_max = (np.where(degenerate, 1.0, lam) for lam in (lam_min, lam_max))
    lb = np.where(degenerate, math.inf, np.sqrt((1.0 / lam_min + 1.0 / lam_max) / lb_scale))
    det = t[:, 0, 0] * t[:, 1, 1] - t[:, 0, 1] * t[:, 0, 1]
    return det.tolist(), lb.tolist(), degenerate.tolist()


def apply_orthogonal(placement: Placement, u: np.ndarray) -> Placement:
    """Rotate/reflect every direction row by an orthogonal 2x2 matrix.

    The reduced information determinant (hence the FIM determinant and the
    LB-RMSE) is invariant under this transform.
    """
    u = np.asarray(u, dtype=float)
    if (u.shape != (2, 2) or not np.all(np.isfinite(u))
            or np.max(np.abs(u.T @ u - np.eye(2))) > 1e-10):
        raise ValueError("expected an orthogonal 2x2 matrix")
    g = placement.directions @ u.T
    return Placement.from_angles(np.arctan2(g[:, 1], g[:, 0]))


@dataclass
class ConstraintBound:
    """The spread-angle constraint: every sensor angle lies in [0, beta_max].

    beta_max may carry a leading design axis, one bound per design; the
    solver reads nothing else. g0 is the paper's equivalent elementwise
    vector bound for a single beta_max: a unit vector g satisfies g >= g0
    exactly when its angle lies in [0, beta_max] for beta_max <= pi, and for
    beta_max > pi in the arc of the same width centered on pi/2, which is
    [0, beta_max] turned by pi/2 - beta_max/2 (a rotation, which leaves the
    information determinant unchanged).
    """

    beta_max: float

    @property
    def g0(self) -> np.ndarray:
        beta_max = float(self.beta_max)
        if beta_max <= math.pi:
            return np.array([math.cos(beta_max), 0.0])
        return np.array([-1.0, math.cos(beta_max / 2.0)])


def g0_bound(beta_max: float) -> ConstraintBound:
    return ConstraintBound(beta_max=spread_bound(beta_max))


@dataclass
class FeasibilityReport:
    """Outcome of a feasibility check with per-row violation details."""

    ok: bool
    violations: list = field(default_factory=list)

    def __bool__(self) -> bool:
        return self.ok


def is_feasible(placement: Placement, bound: ConstraintBound, tol: float = 1e-9) -> FeasibilityReport:
    """Check every direction row against the vector bound and unit norm."""
    violations = []
    g0 = bound.g0
    norms = np.linalg.norm(placement.directions, axis=1)
    for i, (g, norm) in enumerate(zip(placement.directions, norms)):
        if abs(norm - 1.0) > tol:
            violations.append((i, "norm", float(norm)))
        for axis in range(2):
            if g[axis] < g0[axis] - tol:
                violations.append((i, f"coord{axis}", float(g[axis])))
    return FeasibilityReport(ok=not violations, violations=violations)
