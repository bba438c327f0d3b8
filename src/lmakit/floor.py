"""Floor-plane estimation by quantile regression on a scene point cloud.

The floor is modeled as a line h = slope * d + intercept in the
(depth, height) projection of the cloud; fitting minimizes the pinball
(quantile) loss exactly, so a low quantile tracks the cloud's lower envelope
and ignores points belonging to the body.
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


def _line_through(i, d, h, tau):
    """(slope, intercept, loss) of the lowest-loss line through sample i.

    With a_k = d_k - d_i, sample k's residual is a_k * (t_k - slope), so the
    best slope is the first slope t_k, in order, at which the running sum of
    |a_k| reaches tau * sum(a > 0) + (1 - tau) * sum(|a < 0|).
    """
    moves = d != d[i]
    a = d[moves] - d[i]
    t = (h[moves] - h[i]) / a
    order = np.argsort(t, kind="stable")
    target = tau * a[a > 0].sum() - (1.0 - tau) * a[a < 0].sum()
    k = int(np.searchsorted(np.cumsum(np.abs(a[order])), target))
    # for tau within rounding of 0 or 1 the target can pass the summed weight
    slope = float(t[order[min(k, len(t) - 1)]])
    intercept = float(h[i] - slope * d[i])
    return slope, intercept, pinball_loss(h - (slope * d + intercept), tau)


def _quantile_line(d, h, tau):
    """Exact descent over lines through two samples (Koenker & Bassett 1978;
    Barrodale & Roberts 1973).  From the best line through the lowest sample,
    rotate about every sample on the current line and keep the lowest loss,
    while that lowers it; where no rotation helps, the simplex optimality
    condition holds and the loss is the minimum."""
    line = _line_through(int(np.argmin(h)), d, h, tau)
    while True:
        slope, intercept, loss = line
        sd = slope * d
        on_line = np.abs(h - (sd + intercept)) <= 1e-12 * (np.abs(h) + np.abs(sd) + abs(intercept))
        line = min((_line_through(i, d, h, tau) for i in np.flatnonzero(on_line)), key=lambda fit: fit[2])
        if not line[2] < loss - 1e-15:
            return slope, intercept, loss


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
    slope, intercept, loss = _quantile_line(d, h, tau)
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

