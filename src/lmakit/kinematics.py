"""Finite-difference derivatives and sliding-window iteration."""

from dataclasses import dataclass

import numpy as np

from .errors import LmaError


@dataclass(frozen=True)
class WindowConfig:
    """Sliding-window length and stride, in frames."""

    w: int = 55
    stride: int = 1

    def __post_init__(self):
        if self.w < 2:
            raise LmaError(f"window length must be >= 2, got {self.w}")
        if self.stride < 1:
            raise LmaError(f"stride must be >= 1, got {self.stride}")


def finite_difference(track, dt):
    """One differencing pass: central interior, one-sided at the ends.

    Works on any array whose first axis is time.
    """
    x = np.asarray(track, dtype=float)
    out = np.empty_like(x)
    out[1:-1] = (x[2:] - x[:-2]) / (2.0 * dt)
    out[0] = (x[1] - x[0]) / dt
    out[-1] = (x[-1] - x[-2]) / dt
    return out


def derivative(track, order, dt):
    """Repeated finite differencing; the output array keeps the input length T.

    Boundary frames are one-sided, so values within `order` frames of either
    end are lower-accuracy; interior values are exact on polynomials of
    degree <= 2 for each pass.

    Accuracy guarantees (interior frames):
    - linear tracks: first derivative exact to round-off (<= 1e-9)
    - quadratic tracks: second derivative exact to round-off (<= 1e-6)
    - sinusoid sin(omega * t): first-derivative error <= dt^2 * omega^3 / 6,
      i.e. 5e-3 relative holds for omega <= 2*pi at dt = 1/60
    """
    if order not in (1, 2, 3):
        raise LmaError(f"derivative order must be 1, 2 or 3, got {order}")
    x = np.asarray(track, dtype=float)
    if x.shape[0] < order + 1:
        raise LmaError(
            f"track too short for order-{order} derivative (T={x.shape[0]})"
        )
    for _ in range(order):
        x = finite_difference(x, dt)
    return x


def windows(n_frames, cfg):
    """Half-open [start, end) ranges tiling the sequence per the config."""
    if n_frames < cfg.w:
        raise LmaError(
            f"sequence too short for window: T={n_frames} < w={cfg.w}"
        )
    return [(s, s + cfg.w) for s in range(0, n_frames - cfg.w + 1, cfg.stride)]
