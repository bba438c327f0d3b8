import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lmakit.errors import LmaError
from lmakit.kinematics import WindowConfig, derivative, windows

DT = 1.0 / 60.0


def test_linear_motion_velocity_exact():
    t = np.arange(50)
    track = np.column_stack([0.1 * t * DT, np.zeros(50), np.zeros(50)])
    v = derivative(track, 1, DT)
    np.testing.assert_allclose(v[:, 0], 0.1, atol=1e-9)
    np.testing.assert_allclose(v[:, 1:], 0.0, atol=1e-9)


def test_quadratic_acceleration_interior():
    # oracle: analytic second derivative of 0.5 * 2 * t^2 is 2 m/s^2
    t = np.arange(100) * DT
    track = np.column_stack([0.5 * 2.0 * t**2, np.zeros(100), np.zeros(100)])
    a = derivative(track, 2, DT)
    np.testing.assert_allclose(a[2:-2, 0], 2.0, atol=1e-6)


def test_constant_position_any_order():
    track = np.ones((30, 3)) * 1.7
    for order in (1, 2, 3):
        np.testing.assert_array_equal(derivative(track, order, DT), 0.0)


def test_chained_first_derivatives_equal_higher_orders():
    rng = np.random.default_rng(3)
    track = rng.normal(size=(40, 13, 3))
    vel = derivative(track, 1, DT)
    acc = derivative(vel, 1, DT)
    assert np.array_equal(acc, derivative(track, 2, DT))
    assert np.array_equal(derivative(acc, 1, DT), derivative(track, 3, DT))


def test_too_short_raises():
    with pytest.raises(LmaError):
        derivative(np.zeros((2, 3)), 2, DT)


def test_sinusoid_velocity_accuracy():
    # interior finite differences vs analytic omega * cos(omega t);
    # central-difference error is dt^2 * omega^3 / 6 at the peaks, which is
    # 1.8e-3 relative at 1 Hz and 7.3e-3 at 2 Hz
    for hz in (0.5, 1.0, 2.0):
        omega = 2 * np.pi * hz
        t = np.arange(240) * DT
        track = np.column_stack([np.sin(omega * t), np.zeros_like(t), np.zeros_like(t)])
        v = derivative(track, 1, DT)[:, 0]
        analytic = omega * np.cos(omega * t)
        err = np.abs(v[1:-1] - analytic[1:-1])
        assert err.max() <= 1.01 * DT**2 * omega**3 / 6
        if hz <= 1.0:
            assert err.max() / omega < 5e-3


@settings(max_examples=25, deadline=None)
@given(st.integers(0, 2**31), st.floats(-3, 3), st.floats(-3, 3))
def test_derivative_linearity(seed, a, b):
    rng = np.random.default_rng(seed)
    X = rng.normal(size=(20, 3))
    Y = rng.normal(size=(20, 3))
    lhs = derivative(a * X + b * Y, 1, DT)
    rhs = a * derivative(X, 1, DT) + b * derivative(Y, 1, DT)
    np.testing.assert_allclose(lhs, rhs, atol=1e-9)


def test_windows_exact_tiling():
    assert windows(10, WindowConfig(w=5, stride=5)) == [(0, 5), (5, 10)]


def test_windows_stride_one_count():
    assert len(windows(10, WindowConfig(w=5, stride=1))) == 6


def test_windows_too_short():
    with pytest.raises(LmaError):
        windows(4, WindowConfig(w=5, stride=1))


@settings(max_examples=30, deadline=None)
@given(st.integers(2, 40), st.integers(2, 50), st.integers(1, 10))
def test_windows_cover_and_stay_in_bounds(w, T, stride):
    if T < w:
        with pytest.raises(LmaError):
            windows(T, WindowConfig(w=w, stride=stride))
        return
    spans = windows(T, WindowConfig(w=w, stride=stride))
    assert spans
    for s, e in spans:
        assert 0 <= s < e <= T
        assert e - s == w
    if stride == 1:
        covered = set()
        for s, e in spans:
            covered.update(range(s, e))
        assert covered == set(range(T))


def test_window_config_validation():
    with pytest.raises(LmaError):
        WindowConfig(w=1)
    with pytest.raises(LmaError):
        WindowConfig(w=5, stride=0)
