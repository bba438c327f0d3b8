"""Floor-plane estimation by quantile regression on a scene point cloud.

The floor is modeled as a line h = slope * d + intercept in the
(depth, height) projection of the cloud; fitting minimizes the pinball
(quantile) loss, so a low quantile tracks the cloud's lower envelope and
ignores points belonging to the body.
"""

from dataclasses import dataclass

import numpy as np

from .errors import DegenerateFitError, LmaError

MIN_CLOUD_POINTS = 10


@dataclass(frozen=True)
class FloorPlane:
    slope: float
    intercept: float
    up_axis: int = 1
    depth_axis: int = 2
    tau: float = 0.05
    pinball_loss: float = 0.0

    def __post_init__(self):
        if self.up_axis == self.depth_axis:
            raise LmaError("up_axis and depth_axis must differ")
        if not 0.0 < self.tau < 1.0:
            raise LmaError(f"tau must lie in (0, 1), got {self.tau}")
        if self.pinball_loss < 0:
            raise LmaError("pinball_loss must be >= 0")


def pinball_loss(residuals, tau):
    """Sum of the asymmetric absolute loss rho_tau over residuals."""
    r = np.asarray(residuals, dtype=float)
    return float(np.sum(np.where(r >= 0, tau * r, (tau - 1.0) * r)))


def _check_cloud(points):
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2 or pts.shape[1] != 3:
        raise LmaError(f"point cloud must be N x 3, got {pts.shape}")
    if pts.shape[0] < MIN_CLOUD_POINTS:
        raise LmaError(f"point cloud needs >= {MIN_CLOUD_POINTS} points")
    if not np.all(np.isfinite(pts)):
        raise LmaError("point cloud contains non-finite coordinates")
    return pts


def _irls_quantile_line(d, h, tau, eps_start=1e-2, eps_end=1e-8, max_iter=200):
    """Iteratively reweighted LS on a smoothed pinball loss."""
    A = np.column_stack([d, np.ones_like(d)])
    coef, *_ = np.linalg.lstsq(A, h, rcond=None)
    eps = eps_start
    decay = (eps_end / eps_start) ** (1.0 / max_iter)
    for _ in range(max_iter):
        r = h - A @ coef
        w = np.where(r >= 0, tau, 1.0 - tau) / np.maximum(np.abs(r), eps)
        sw = np.sqrt(w)
        coef_new, *_ = np.linalg.lstsq(A * sw[:, None], h * sw, rcond=None)
        if np.max(np.abs(coef_new - coef)) < 1e-12:
            coef = coef_new
            break
        coef = coef_new
        eps = max(eps * decay, eps_end)
    return coef


def _polish_by_interpolation(d, h, tau, coef, n_candidates=40):
    """Refine to an exact vertex solution.

    An optimal quantile-regression line interpolates at least two samples;
    candidate pairs are drawn from the points with the smallest residuals
    around the IRLS solution and the exact loss decides.
    """
    r = np.abs(h - (coef[0] * d + coef[1]))
    cand = np.argsort(r, kind="stable")[: min(n_candidates, len(d))]
    best_loss = pinball_loss(h - (coef[0] * d + coef[1]), tau)
    best = (float(coef[0]), float(coef[1]))
    for ai in range(len(cand)):
        for bi in range(ai + 1, len(cand)):
            i, j = cand[ai], cand[bi]
            dd = d[j] - d[i]
            if dd == 0.0:
                continue
            slope = (h[j] - h[i]) / dd
            intercept = h[i] - slope * d[i]
            loss = pinball_loss(h - (slope * d + intercept), tau)
            if loss < best_loss - 1e-15:
                best_loss = loss
                best = (slope, intercept)
    return best[0], best[1], best_loss


def fit_floor(points, tau=0.05, up_axis=1, depth_axis=2):
    """Fit the floor line in the (depth, height) projection of the cloud."""
    pts = _check_cloud(points)
    if not 0.0 < tau < 1.0:
        raise LmaError(f"tau must lie in (0, 1), got {tau}")
    if up_axis == depth_axis:
        raise LmaError("up_axis and depth_axis must differ")
    d = pts[:, depth_axis]
    h = pts[:, up_axis]
    if np.ptp(d) == 0.0:
        raise DegenerateFitError("all cloud points share one depth coordinate")
    coef = _irls_quantile_line(d, h, tau)
    slope, intercept, loss = _polish_by_interpolation(d, h, tau, coef)
    return FloorPlane(
        slope=slope,
        intercept=intercept,
        up_axis=up_axis,
        depth_axis=depth_axis,
        tau=tau,
        pinball_loss=loss,
    )


def flat_floor():
    """Zero-height horizontal floor, used when no point cloud is available."""
    return FloorPlane(0.0, 0.0)


def height_above_floor(p, plane):
    """Signed height of point(s) above the plane; positive means above.

    Accepts a single 3-vector or an array whose last axis is xyz.
    """
    p = np.asarray(p, dtype=float)
    h = p[..., plane.up_axis] - (plane.slope * p[..., plane.depth_axis] + plane.intercept)
    return float(h) if h.ndim == 0 else h

