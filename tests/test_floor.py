import numpy as np
import pytest

from conftest import make_sequence, pair_enumeration_pinball_oracle, static_pose_positions
from lmakit.errors import DegenerateFitError, LmaError
from lmakit.floor import (
    FloorPlane,
    fit_floor,
    flat_floor,
    height_above_floor,
    pinball_loss,
)


def _cloud(d, h):
    return np.column_stack([np.zeros_like(d), h, d])


def test_exact_line_any_tau():
    rng = np.random.default_rng(0)
    d = rng.uniform(0, 10, 100)
    plane = fit_floor(_cloud(d, 0.1 * d + 0.5), tau=0.05)
    assert abs(plane.slope - 0.1) < 1e-6
    assert abs(plane.intercept - 0.5) < 1e-6
    assert plane.pinball_loss < 1e-9


def test_floor_plus_body_ignores_body():
    # oracle: pair enumeration over all interpolating lines
    rng = np.random.default_rng(1)
    d_floor = rng.uniform(0, 6, 100)
    h_floor = 0.1 * d_floor + 0.5
    d_body = rng.uniform(2, 3, 50)
    h_body = 0.1 * d_body + 0.5 + 1.0 + rng.uniform(0, 0.5, 50)
    d = np.concatenate([d_floor, d_body])
    h = np.concatenate([h_floor, h_body])
    plane = fit_floor(_cloud(d, h), tau=0.05)
    assert abs(plane.slope - 0.1) < 1e-3
    assert abs(plane.intercept - 0.5) < 1e-3
    oracle = pair_enumeration_pinball_oracle(d, h, 0.05)
    assert plane.pinball_loss <= oracle + 1e-6


def test_small_cloud_rejected():
    d = np.arange(5.0)
    with pytest.raises(LmaError):
        fit_floor(_cloud(d, d))


def test_degenerate_depth_rejected():
    d = np.zeros(20)
    h = np.random.default_rng(0).uniform(0, 1, 20)
    with pytest.raises(DegenerateFitError):
        fit_floor(_cloud(d, h))


@pytest.mark.parametrize("seed", range(12))
def test_optimality_vs_pair_oracle_random_clouds(seed):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(20, 200))
    d = rng.uniform(-5, 5, n)
    h = 0.2 * rng.normal() * d + rng.normal() + rng.exponential(0.4, n)
    tau = float(rng.uniform(0.05, 0.95))
    plane = fit_floor(_cloud(d, h), tau=tau)
    oracle = pair_enumeration_pinball_oracle(d, h, tau)
    assert plane.pinball_loss <= oracle + 1e-6


def test_exact_on_cloud_missed_by_candidate_polish():
    # a floor under a body, where a polish over pairs of the 40 samples
    # nearest an IRLS line stopped 5.8e-3 above the optimum
    rng = np.random.default_rng(10063)
    n = int(rng.integers(50, 3000))
    d = rng.uniform(-3, 3, n)
    h = 0.05 * d + np.where(rng.random(n) < 0.7, rng.uniform(0.2, 2.0, n), rng.normal(0, 0.01, n))
    tau = float(rng.uniform(0.02, 0.98))
    plane = fit_floor(_cloud(d, h), tau=tau)
    assert abs(plane.pinball_loss - pair_enumeration_pinball_oracle(d, h, tau)) <= 1e-9


def _degenerate_cloud(rng, kind):
    n = int(rng.integers(10, 40))
    if kind == "grid":
        d = rng.integers(-3, 4, n).astype(float)
        h = rng.integers(0, 4, n).astype(float)
    elif kind == "duplicates":  # a few points, each repeated
        base = rng.uniform(-2, 2, (int(rng.integers(3, 8)), 2)).round(1)
        d, h = base[rng.integers(0, len(base), n)].T
    elif kind == "collinear":  # a run of points on one line among grid points
        d = rng.integers(-5, 6, n).astype(float)
        h = np.where(rng.random(n) < 0.6, 0.5 * d + 1.0, rng.integers(0, 5, n).astype(float))
    else:  # a noiseless floor under a body
        d = rng.uniform(0, 4, n)
        h = 0.1 * d + 0.3 + np.where(rng.random(n) < 0.4, rng.uniform(0.5, 1.5, n), 0.0)
    d[0] = d[1] + 1.0  # at least two depths
    return d, h


@pytest.mark.parametrize("kind", ["grid", "duplicates", "collinear", "floor-under-body"])
def test_exact_on_degenerate_clouds(kind):
    for seed in range(60):
        rng = np.random.default_rng(seed)
        d, h = _degenerate_cloud(rng, kind)
        tau = float(rng.choice([0.05, 0.25, 0.5, 0.75, rng.uniform(0.02, 0.98)]))
        plane = fit_floor(_cloud(d, h), tau=tau)
        gap = plane.pinball_loss - pair_enumeration_pinball_oracle(d, h, tau)
        assert abs(gap) <= 1e-9, (seed, tau, gap)


@pytest.mark.parametrize("tau", [1e-17, 1 - 1e-16])
def test_exact_at_extreme_tau(tau):
    rng = np.random.default_rng(11)
    d = rng.uniform(0, 5, 60)
    h = rng.normal(0, 1, 60)
    plane = fit_floor(_cloud(d, h), tau=tau)
    assert abs(plane.pinball_loss - pair_enumeration_pinball_oracle(d, h, tau)) <= 1e-9


def test_translation_equivariance():
    rng = np.random.default_rng(7)
    d = rng.uniform(0, 5, 80)
    h = 0.05 * d + rng.exponential(0.3, 80)
    p1 = fit_floor(_cloud(d, h), tau=0.1)
    p2 = fit_floor(_cloud(d, h + 2.5), tau=0.1)
    assert abs(p2.slope - p1.slope) < 1e-9
    assert abs(p2.intercept - (p1.intercept + 2.5)) < 1e-9


def test_tau_monotone_intercept_at_mean_depth():
    rng = np.random.default_rng(11)
    d = rng.uniform(0, 5, 150)
    h = 0.1 * d + rng.normal(0, 0.3, 150)
    dm = d.mean()
    levels = [
        fit_floor(_cloud(d, h), tau=t) for t in (0.05, 0.5, 0.95)
    ]
    values = [p.slope * dm + p.intercept for p in levels]
    assert values[0] <= values[1] + 1e-9 <= values[2] + 2e-9


def test_height_above_flat_floor():
    plane = flat_floor()
    assert height_above_floor(np.array([1.0, 0.7, 3.0]), plane) == pytest.approx(0.7)


def test_point_on_plane_is_zero():
    plane = FloorPlane(slope=0.2, intercept=-0.3, tau=0.05)
    p = np.array([5.0, 0.2 * 4.0 - 0.3, 4.0])
    assert abs(height_above_floor(p, plane)) < 1e-12


def test_tilted_plane_height_arithmetic():
    # 1.0 - (0.1 * 2 + 0.5) = 0.3, by hand
    plane = FloorPlane(slope=0.1, intercept=0.5, tau=0.05)
    p = np.array([0.0, 1.0, 2.0])
    assert height_above_floor(p, plane) == pytest.approx(0.3, abs=1e-12)


def test_pinball_loss_nonnegative_and_zero_on_fit():
    assert pinball_loss(np.zeros(5), 0.3) == 0.0
    assert pinball_loss([1.0, -1.0], 0.3) == pytest.approx(0.3 + 0.7)


def test_plane_invariants():
    with pytest.raises(LmaError):
        FloorPlane(0.0, 0.0, up_axis=1, depth_axis=1)
    with pytest.raises(LmaError):
        FloorPlane(0.0, 0.0, tau=1.5)
