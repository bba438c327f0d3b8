import csv
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_sequence, static_pose_positions
from lmakit import features
from lmakit.errors import LmaError
from lmakit.features import (
    FEATURE_NAMES,
    FeatureTable,
    LmaConfig,
    SequencePrimitives,
    assemble_features,
    read_features_csv,
    write_features_csv,
    _effort_space_ratios,
    _initiation_predicates,
)
from lmakit.files import read_text
from lmakit.floor import FloorPlane, flat_floor
from lmakit.kinematics import WindowConfig
from lmakit.skeleton import SkeletonSpec, canonical_skeleton

FPS = 60.0
DT = 1.0 / FPS


def _cfg(w=30, stride=10, **kw):
    return LmaConfig(window=WindowConfig(w=w, stride=stride), **kw)


def _get(table, name):
    return table.X[:, FEATURE_NAMES.index(name)]


def test_layout_is_55_and_stable():
    assert len(FEATURE_NAMES) == 55
    assert len(set(FEATURE_NAMES)) == 55
    table = assemble_features(make_sequence(static_pose_positions(40)), cfg=_cfg())
    assert table.X.shape[1] == len(FEATURE_NAMES)


# --- initiation ---------------------------------------------------------


def test_initiation_stationary_zero():
    seq = make_sequence(static_pose_positions(100))
    rows = assemble_features(seq, cfg=_cfg())
    for name in ("initiation_left_hand", "initiation_right_hand",
                 "initiation_left_foot", "initiation_right_foot"):
        assert np.all(_get(rows, name) == 0.0)


def test_initiation_constant_speed_is_one():
    T = 120
    track = np.column_stack([0.5 * np.arange(T) * DT, np.full(T, 0.9), np.zeros(T)])
    pos = static_pose_positions(T, "left_hand", track)
    seq = make_sequence(pos)
    rows = assemble_features(seq, cfg=_cfg(w=30, stride=1))
    assert np.all(_get(rows, "initiation_left_hand") == 1.0)


def test_initiation_burst_detected_where_lookahead_overlaps_it():
    # oracle: direct evaluation of the displacement-rate predicate on a
    # track that is still, moves at 1 m/s during frames 60-90, then stops
    T = 120
    w = 20
    track = np.tile(np.array([0.0, 0.9, 0.0]), (T, 1))
    track[60:90, 0] = np.arange(30) / FPS
    track[90:, 0] = 29 / FPS
    pos = static_pose_positions(T, "left_hand", track)
    seq = make_sequence(pos)
    cfg = _cfg(w=w)
    pred = _initiation_predicates(seq, "left_hand", cfg)

    step_speed = np.linalg.norm(track[1:] - track[:-1], axis=1) / DT
    tau = np.std(step_speed)
    for t in range(T - 1):
        t2 = min(t + w, T - 1)
        expected = np.linalg.norm(track[t2] - track[t]) / ((t2 - t) * DT) > tau
        assert pred[t] == expected
    # fires while the look-ahead overlaps the burst, not while fully still
    assert pred[65]
    assert not pred[30]
    assert not pred[100]


# --- effort space -------------------------------------------------------


def test_effort_space_straight_line_is_one():
    T = 60
    track = np.column_stack([np.arange(T) * DT, np.full(T, 0.9), np.zeros(T)])
    ratio = _effort_space_ratios(track, np.array([0]), 30, 6, 1e-3)[0]
    assert ratio == pytest.approx(1.0, abs=1e-9)


def test_effort_space_closed_loop_clamps():
    # loop returning to start: denominator clamps to epsilon_net
    T = 61
    ang = 2 * np.pi * np.arange(T) / 60.0
    track = np.column_stack([0.3 * np.cos(ang), np.full(T, 0.9), 0.3 * np.sin(ang)])
    ratio = _effort_space_ratios(track, np.array([0]), 61, 10, 1e-3)[0]
    chords = sum(
        np.linalg.norm(track[k * 10] - track[(k - 1) * 10]) for k in range(1, 7)
    )
    assert ratio == pytest.approx(chords / 1e-3, rel=1e-9)
    assert np.isfinite(ratio)


def test_effort_space_zigzag_matches_hand_arithmetic():
    # 5 chord samples at frames 0, 2, 4, 6, 8 with known chord lengths
    T = 10
    track = np.zeros((T, 3))
    track[:, 1] = 0.9
    pts = {0: (0.0, 0.0), 2: (0.3, 0.4), 4: (0.6, 0.0), 6: (0.9, 0.4), 8: (1.2, 0.0)}
    for f, (x, z) in pts.items():
        track[f, 0] = x
        track[f, 2] = z
    ratio = _effort_space_ratios(track, np.array([0]), 9, 2, 1e-3)[0]
    assert ratio == pytest.approx(4 * 0.5 / 1.2, rel=1e-9)


def test_effort_space_window_too_short():
    track = np.zeros((10, 3))
    with pytest.raises(LmaError):
        _effort_space_ratios(track, np.array([0]), 2, 2, 1e-3)


@pytest.mark.parametrize("key", ["initiation_scale", "epsilon_net"])
@pytest.mark.parametrize("value", [0.0, -1.0, np.nan, np.inf])
def test_lma_config_refuses_non_positive_and_non_finite(key, value):
    with pytest.raises(LmaError, match=key):
        _cfg(**{key: value})


def test_effort_space_total_weighted_sum():
    # all joints stationary except a straight-line left hand (ratio 1);
    # stationary joints contribute ratio 0 by convention
    T = 60
    track = np.column_stack([np.arange(T) * DT, np.full(T, 0.9), np.zeros(T)])
    seq = make_sequence(static_pose_positions(T, "left_hand", track))
    rows = assemble_features(seq, cfg=_cfg(w=60, stride=60))
    assert _get(rows, "effort_space_left_hand")[0] == pytest.approx(1.0, abs=1e-9)
    assert _get(rows, "effort_space_head")[0] == 0.0
    alpha_lh = canonical_skeleton().weight("left_hand")
    assert _get(rows, "effort_space_total")[0] == pytest.approx(alpha_lh * 1.0, abs=1e-9)


# --- effort weight / time / flow ---------------------------------------


def test_effort_weight_stationary_zero():
    seq = make_sequence(static_pose_positions(80))
    rows = assemble_features(seq, cfg=_cfg())
    assert np.all(_get(rows, "effort_weight_mean") == 0.0)
    assert np.all(_get(rows, "effort_weight_max") == 0.0)


def test_effort_weight_single_joint_constant_speed():
    # only the left hand moves: alpha = 1, speed 2 m/s -> 0.5 * 1 * 4 = 2
    T = 100
    track = np.column_stack([2.0 * np.arange(T) * DT, np.full(T, 0.9), np.zeros(T)])
    seq = make_sequence(static_pose_positions(T, "left_hand", track))
    rows = assemble_features(seq, cfg=_cfg())
    np.testing.assert_allclose(_get(rows, "effort_weight_mean"), 2.0, atol=1e-9)
    np.testing.assert_allclose(_get(rows, "effort_weight_max"), 2.0, atol=1e-9)


def test_effort_time_constant_acceleration():
    # quadratic track, |a| = 2 m/s^2; interior windows see the exact value
    T = 200
    t = np.arange(T) * DT
    track = np.column_stack([t**2, np.full(T, 0.9), np.zeros(T)])
    seq = make_sequence(static_pose_positions(T, "left_hand", track))
    cfg = LmaConfig(window=WindowConfig(w=50, stride=50))
    rows = assemble_features(seq, cfg=cfg)
    # second window [50, 100) is fully interior
    assert _get(rows, "effort_time_mean")[1] == pytest.approx(2.0, abs=1e-6)
    assert _get(rows, "effort_time_max")[1] == pytest.approx(2.0, abs=1e-6)


def test_effort_time_constant_velocity_zero():
    T = 100
    track = np.column_stack([np.arange(T) * DT, np.full(T, 0.9), np.zeros(T)])
    seq = make_sequence(static_pose_positions(T, "left_hand", track))
    rows = assemble_features(seq, cfg=_cfg())
    np.testing.assert_allclose(_get(rows, "effort_time_mean"), 0.0, atol=1e-9)


def test_effort_time_linear_in_alpha():
    rng = np.random.default_rng(0)
    T = 90
    track = np.cumsum(rng.normal(0, 0.01, (T, 3)), axis=0) + [0, 0.9, 0]
    skel = canonical_skeleton()
    seq1 = make_sequence(static_pose_positions(T, "left_hand", track))
    skel2 = SkeletonSpec(skel.joint_names, skel.role_map, skel.joint_weights * 2.0)
    seq2 = make_sequence(seq1.positions)
    from dataclasses import replace

    seq2 = replace(seq1, skeleton=skel2)
    r1 = assemble_features(seq1, cfg=_cfg())
    r2 = assemble_features(seq2, cfg=_cfg())
    np.testing.assert_allclose(
        _get(r2, "effort_time_mean"), 2.0 * _get(r1, "effort_time_mean"), rtol=1e-9
    )


def test_effort_flow_constant_acceleration_zero():
    T = 100
    t = np.arange(T) * DT
    track = np.column_stack([t**2, np.full(T, 0.9), np.zeros(T)])
    seq = make_sequence(static_pose_positions(T, "left_hand", track))
    cfg = LmaConfig(window=WindowConfig(w=40, stride=40))
    rows = assemble_features(seq, cfg=cfg)
    assert _get(rows, "effort_flow_left_hand")[1] == pytest.approx(0.0, abs=1e-6)


def test_effort_flow_sinusoid_matches_analytic():
    # oracle: analytic jerk of A sin(wt) is -A w^3 cos(wt); compare window
    # means of magnitudes at the frame times
    A, hz = 0.2, 1.0
    omega = 2 * np.pi * hz
    T = 240
    t = np.arange(T) * DT
    track = np.column_stack([A * np.sin(omega * t), np.full(T, 0.9), np.zeros(T)])
    seq = make_sequence(static_pose_positions(T, "left_hand", track))
    cfg = LmaConfig(window=WindowConfig(w=60, stride=60))
    rows = assemble_features(seq, cfg=cfg)
    s, e = 60, 120  # interior window
    analytic = np.abs(A * omega**3 * np.cos(omega * t[s:e])).mean()
    assert _get(rows, "effort_flow_left_hand")[1] == pytest.approx(analytic, rel=0.05)


def test_rigid_translation_invariance_of_effort():
    rng = np.random.default_rng(1)
    T = 90
    pos = static_pose_positions(T) + rng.normal(0, 0.02, (T, 13, 3))
    seq1 = make_sequence(pos)
    seq2 = make_sequence(pos + np.array([3.0, 0.0, -2.0]))
    r1 = assemble_features(seq1, cfg=_cfg())
    r2 = assemble_features(seq2, cfg=_cfg())
    for name in ("effort_weight_mean", "effort_time_mean", "effort_flow_total"):
        np.testing.assert_allclose(_get(r1, name), _get(r2, name), atol=1e-9)


# --- body distances and angles ------------------------------------------


def _pose_with(overrides, T=40):
    from lmakit.synth import STANDING_POSE

    skel = canonical_skeleton()
    pose = dict(STANDING_POSE)
    pose.update(overrides)
    frame = np.array([pose[n] for n in skel.joint_names])
    return np.tile(frame, (T, 1, 1))


def test_tpose_hand_distance():
    pos = _pose_with({"left_hand": (-0.8, 1.45, 0.0), "right_hand": (0.8, 1.45, 0.0)})
    rows = assemble_features(make_sequence(pos), cfg=_cfg())
    assert _get(rows, "dist_hand_hand")[0] == pytest.approx(1.6, abs=1e-9)


def test_straight_leg_knee_angle_pi():
    pos = _pose_with(
        {"pelvis": (0.1, 1.0, 0.0), "left_knee": (0.1, 0.5, 0.0), "left_ankle": (0.1, 0.1, 0.0)}
    )
    rows = assemble_features(make_sequence(pos), cfg=_cfg())
    assert _get(rows, "angle_left_knee")[0] == pytest.approx(np.pi, abs=1e-9)


def test_right_angle_knee():
    pos = _pose_with(
        {"pelvis": (0.0, 1.0, 0.0), "left_knee": (0.0, 0.5, 0.0), "left_ankle": (0.0, 0.5, 0.4)}
    )
    rows = assemble_features(make_sequence(pos), cfg=_cfg())
    assert _get(rows, "angle_left_knee")[0] == pytest.approx(np.pi / 2, abs=1e-9)


def test_midarm_elbow_proxy_is_straight():
    # without elbow joints the proxy vertex is collinear with shoulder/hand
    rows = assemble_features(make_sequence(_pose_with({})), cfg=_cfg())
    assert _get(rows, "angle_left_elbow")[0] == pytest.approx(np.pi, abs=1e-9)


# --- shape and dispersion -------------------------------------------------


def test_volume_static_pose_constant():
    seq = make_sequence(static_pose_positions(50))
    rows = assemble_features(seq, cfg=_cfg())
    assert _get(rows, "volume_std")[0] == pytest.approx(0.0, abs=1e-12)
    mean, low, high = (_get(rows, name)[0] for name in ("volume_mean", "volume_min", "volume_max"))
    assert mean == low == high
    assert _get(rows, "volume_mean")[0] > 0


def test_dispersion_constant_distance():
    pos = _pose_with(
        {
            "torso": (0.0, 0.0, 0.0),
            "head": (0.5, 0.0, 0.0),
            "left_hand": (-0.5, 0.0, 0.0),
            "right_hand": (0.0, 0.5, 0.0),
            "left_shoulder": (0.0, -0.5, 0.0),
            "right_shoulder": (0.0, 0.0, 0.5),
        }
    )
    rows = assemble_features(make_sequence(pos), cfg=_cfg())
    assert _get(rows, "dispersion_upper_mean")[0] == pytest.approx(0.5, abs=1e-9)
    assert _get(rows, "dispersion_upper_std")[0] == pytest.approx(0.0, abs=1e-12)


def test_dispersion_linear_ramp_mean():
    # oracle: mean of a linear ramp over the window grid
    T = 60
    pos = _pose_with({}, T=T)
    skel = canonical_skeleton()
    d = np.linspace(0.3, 0.7, T)
    torso = pos[0, skel.index("torso")]
    for role, direction in (
        ("head", [0, 1, 0]),
        ("left_hand", [1, 0, 0]),
        ("right_hand", [-1, 0, 0]),
        ("left_shoulder", [0, 0, 1]),
        ("right_shoulder", [0, 0, -1]),
    ):
        pos[:, skel.index(role), :] = torso[None, :] + d[:, None] * np.array(direction)
    rows = assemble_features(make_sequence(pos), cfg=_cfg(w=T, stride=T))
    assert _get(rows, "dispersion_upper_mean")[0] == pytest.approx(d.mean(), abs=1e-6)


def test_dispersion_rotation_invariant():
    rng = np.random.default_rng(2)
    T = 50
    pos = static_pose_positions(T) + rng.normal(0, 0.02, (T, 13, 3))
    theta = 0.7
    R = np.array(
        [[np.cos(theta), 0, np.sin(theta)], [0, 1, 0], [-np.sin(theta), 0, np.cos(theta)]]
    )
    r1 = assemble_features(make_sequence(pos), cfg=_cfg())
    r2 = assemble_features(make_sequence(pos @ R.T), cfg=_cfg())
    for name in ("dispersion_upper_mean", "dispersion_lower_mean"):
        np.testing.assert_allclose(_get(r1, name), _get(r2, name), atol=1e-9)


# --- space / trajectory ----------------------------------------------------


def test_straight_pelvis_path():
    # oracle: uniform-grid arithmetic, 59 segments of 1/60 m
    T = 60
    track = np.column_stack([np.arange(T) * DT, np.ones(T), np.zeros(T)])
    pos = static_pose_positions(T, "pelvis", track)
    rows = assemble_features(make_sequence(pos), cfg=_cfg(w=60, stride=60))
    assert _get(rows, "pelvis_path_length")[0] == pytest.approx(59 / 60, abs=1e-9)
    assert _get(rows, "pelvis_net_displacement")[0] == pytest.approx(59 / 60, abs=1e-9)
    assert _get(rows, "pelvis_path_ratio")[0] == pytest.approx(1.0, abs=1e-9)
    assert _get(rows, "pelvis_curvature_max")[0] == pytest.approx(0.0, abs=1e-6)


def test_circular_pelvis_curvature():
    # oracle: analytic curvature of a circle of radius R is 1/R
    R = 0.5
    T = 120  # one revolution per 2 s at 60 fps
    ang = 2 * np.pi * np.arange(T) / T
    track = np.column_stack([R * np.cos(ang), np.ones(T), R * np.sin(ang)])
    pos = static_pose_positions(T, "pelvis", track)
    rows = assemble_features(make_sequence(pos), cfg=_cfg(w=60, stride=60))
    assert _get(rows, "pelvis_curvature_mean")[0] == pytest.approx(1 / R, rel=0.02)


def test_stationary_pelvis_heights_and_ratio():
    pos = static_pose_positions(60)
    skel = canonical_skeleton()
    pos[:, skel.index("pelvis"), :] = [0.0, 0.9, 0.0]
    rows = assemble_features(make_sequence(pos), plane=flat_floor(), cfg=_cfg(w=60, stride=60))
    assert _get(rows, "pelvis_height_mean")[0] == pytest.approx(0.9)
    assert _get(rows, "pelvis_height_min")[0] == pytest.approx(0.9)
    assert _get(rows, "pelvis_height_max")[0] == pytest.approx(0.9)
    assert _get(rows, "pelvis_path_length")[0] == 0.0
    assert _get(rows, "pelvis_path_ratio")[0] == 0.0


def test_tilted_floor_heights():
    plane = FloorPlane(slope=0.1, intercept=0.5, tau=0.05)
    T = 40
    pos = static_pose_positions(T)
    skel = canonical_skeleton()
    depth = np.linspace(0, 2, T)
    pos[:, skel.index("pelvis"), 1] = 1.0
    pos[:, skel.index("pelvis"), 2] = depth
    rows = assemble_features(make_sequence(pos), plane=plane, cfg=_cfg(w=T, stride=T))
    expected = 1.0 - (0.1 * depth + 0.5)
    assert _get(rows, "pelvis_height_min")[0] == pytest.approx(expected.min(), abs=1e-9)
    assert _get(rows, "pelvis_height_max")[0] == pytest.approx(expected.max(), abs=1e-9)


# --- assembly ---------------------------------------------------------------


def test_feature_table_concat_keeps_row_order():
    seq1 = make_sequence(static_pose_positions(60), label="a", group_id="g1")
    seq2 = make_sequence(static_pose_positions(45) + 0.1, label="b", group_id="g2")
    t1, t2 = assemble_features(seq1, cfg=_cfg()), assemble_features(seq2, cfg=_cfg())
    t = FeatureTable.concat([t1, t2])
    assert len(t) == len(t1) + len(t2) == 6
    assert np.array_equal(t.X, np.vstack([t1.X, t2.X]))
    assert t.labels == ("a",) * 4 + ("b",) * 2
    assert t.groups == ("g1",) * 4 + ("g2",) * 2
    assert t.starts.tolist() == [0, 10, 20, 30, 0, 10]


def test_feature_table_checks_the_whole_matrix():
    X = np.zeros((3, 55))
    with pytest.raises(LmaError, match="feature values"):
        FeatureTable(X[:, :54], [None] * 3, [""] * 3, [0, 1, 2])
    with pytest.raises(LmaError, match="row count"):
        FeatureTable(X, [None] * 2, [""] * 3, [0, 1, 2])
    X[2, 40] = np.inf
    with pytest.raises(LmaError, match="non-finite feature value"):
        FeatureTable(X, [None] * 3, [""] * 3, [0, 1, 2])


def test_two_frame_sequence_too_short_for_primitives():
    with pytest.raises(LmaError, match="too short"):
        SequencePrimitives(make_sequence(static_pose_positions(2)))


def test_window_count():
    seq = make_sequence(static_pose_positions(120))
    rows = assemble_features(seq, cfg=_cfg(w=55, stride=1))
    assert len(rows) == 66


def test_stationary_dancer_all_kinematic_slots_zero():
    seq = make_sequence(static_pose_positions(80))
    rows = assemble_features(seq, cfg=_cfg())
    for name in FEATURE_NAMES:
        if name.startswith(("effort_", "initiation_", "pelvis_path", "pelvis_curv", "travel_")):
            np.testing.assert_allclose(_get(rows, name), 0.0, atol=1e-9, err_msg=name)
    assert np.all(np.isfinite(rows.X))


def test_joint_storage_order_irrelevant():
    rng = np.random.default_rng(4)
    T = 70
    pos = static_pose_positions(T) + rng.normal(0, 0.03, (T, 13, 3))
    skel = canonical_skeleton()
    perm = rng.permutation(13)
    inv = {int(p): i for i, p in enumerate(perm)}
    names2 = tuple(skel.joint_names[p] for p in perm)
    role_map2 = {r: inv[i] for r, i in skel.role_map.items()}
    weights2 = skel.joint_weights[perm]
    skel2 = SkeletonSpec(names2, role_map2, weights2)
    from lmakit.sequence import JointSequence

    seq1 = make_sequence(pos)
    seq2 = JointSequence(fps=FPS, positions=pos[:, perm, :], skeleton=skel2)
    r1 = assemble_features(seq1, cfg=_cfg())
    r2 = assemble_features(seq2, cfg=_cfg())
    np.testing.assert_allclose(r1.X, r2.X, atol=1e-12)


def test_rigid_motion_invariance_full_vector():
    rng = np.random.default_rng(5)
    T = 90
    pos = static_pose_positions(T) + rng.normal(0, 0.02, (T, 13, 3))
    theta = 1.1
    R = np.array(
        [[np.cos(theta), 0, np.sin(theta)], [0, 1, 0], [-np.sin(theta), 0, np.cos(theta)]]
    )
    shift = np.array([2.0, 0.0, -1.0])
    r1 = assemble_features(make_sequence(pos), cfg=_cfg())
    r2 = assemble_features(make_sequence(pos @ R.T + shift), cfg=_cfg())
    sensitive = ("pelvis_height_mean", "pelvis_height_min", "pelvis_height_max")
    for i, name in enumerate(FEATURE_NAMES):
        if name in sensitive:
            continue
        assert np.all(np.abs(r1.X[:, i] - r2.X[:, i]) <= 1e-6), name


def test_time_reversal_preserves_statistics():
    rng = np.random.default_rng(6)
    T = 80
    pos = static_pose_positions(T) + rng.normal(0, 0.02, (T, 13, 3))
    r1 = assemble_features(make_sequence(pos), cfg=_cfg(w=T, stride=T))
    r2 = assemble_features(make_sequence(pos[::-1].copy()), cfg=_cfg(w=T, stride=T))
    for name in ("pelvis_path_length", "volume_mean", "volume_std",
                 "dispersion_upper_mean", "effort_weight_mean", "travel_left_hand"):
        assert _get(r1, name)[0] == pytest.approx(_get(r2, name)[0], abs=1e-9), name


def test_effort_space_ratio_at_least_one_when_not_clamped():
    rng = np.random.default_rng(7)
    for _ in range(50):
        T = 60
        track = np.cumsum(rng.normal(0, 0.02, (T, 3)), axis=0)
        ratio = _effort_space_ratios(track, np.array([0]), T, 6, 1e-3)[0]
        net = np.linalg.norm(
            track[(T - 1) // 6 * 6] - track[0]
        )
        if net >= 1e-3 and ratio != 0.0:
            assert ratio >= 1.0 - 1e-9


def test_all_finite_on_degenerate_inputs():
    rng = np.random.default_rng(8)
    for trial in range(40):
        T = 60
        kind = trial % 4
        if kind == 0:  # fully stationary
            pos = static_pose_positions(T)
        elif kind == 1:  # coplanar pose
            pos = static_pose_positions(T)
            pos[..., 2] = 0.0
        elif kind == 2:  # closed loops on every joint
            ang = 2 * np.pi * np.arange(T) / (T - 1)
            loop = 0.1 * np.column_stack([np.cos(ang), np.zeros(T), np.sin(ang)])
            pos = static_pose_positions(T) + loop[:, None, :]
        else:  # random walk
            pos = static_pose_positions(T) + np.cumsum(
                rng.normal(0, 0.01, (T, 13, 3)), axis=0
            )
        rows = assemble_features(make_sequence(pos), cfg=_cfg())
        assert np.all(np.isfinite(rows.X))


# --- CSV round trip ----------------------------------------------------------


def test_csv_round_trip(tmp_path):
    rng = np.random.default_rng(9)
    T = 70
    pos = static_pose_positions(T) + rng.normal(0, 0.02, (T, 13, 3))
    seq = make_sequence(pos, label="demo", group_id="vid1")
    table = assemble_features(seq, cfg=_cfg())
    path = tmp_path / "features.csv"
    write_features_csv(table, path)
    back = read_features_csv(path)
    assert back.X.shape == (len(table), 55)
    assert back.labels == ("demo",) * len(table)
    assert back.groups == ("vid1",) * len(table)
    assert back.starts.tolist() == table.starts.tolist()
    np.testing.assert_allclose(back.X, table.X, rtol=1e-8)


def test_csv_writer_bytes_match_the_csv_module(tmp_path):
    # labels and group ids that need quoting, or a `%`, and values whose
    # text is easy to get wrong; None is written as an empty label
    texts = ("a,b", 'say "hi"', "100%", "two\nlines", "", "plain", "%s %d")
    rng = np.random.default_rng(4)
    n = 2 * len(texts)
    X = rng.normal(0.0, 10.0 ** rng.integers(-5, 6, (n, 55)))
    X[0, :3] = [-0.0, 1e-300, 1.5e300]
    X[1, :3] = [0.0, -5e-324, -1.7976931348623157e308]
    labels = [None, *texts, *texts[::-1]][:n]
    groups = [*texts[::-1], *texts]
    table = FeatureTable(X, labels, groups, np.arange(n) * 7 - 3)
    path = tmp_path / "features.csv"
    write_features_csv(table, path)
    with open(tmp_path / "reference.csv", "w", encoding="utf-8", newline="\n") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(list(FEATURE_NAMES) + ["label", "group_id", "window_start"])
        writer.writerows([f"{v:.9g}" for v in x] + [label or "", group, start]
                         for x, label, group, start in zip(X.tolist(), labels, groups, table.starts.tolist()))
    assert path.read_bytes() == (tmp_path / "reference.csv").read_bytes()
    back = read_features_csv(path)
    assert back.labels == tuple(label or None for label in labels) and back.groups == tuple(groups)


def test_csv_header_only_reads_as_empty_table(tmp_path):
    path = tmp_path / "features.csv"
    write_features_csv(FeatureTable.concat([]), path)
    table = read_features_csv(path)
    assert len(table) == 0 and table.X.shape == (0, 55) and table.starts.shape == (0,)


def test_csv_non_finite_cell_rejected_with_path(tmp_path):
    from lmakit.errors import SchemaError

    path = tmp_path / "features.csv"
    write_features_csv(assemble_features(make_sequence(static_pose_positions(40)), cfg=_cfg()), path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[1] = "nan" + lines[1][lines[1].index(","):]
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(SchemaError, match="features.csv: non-finite feature value"):
        read_features_csv(path)


def test_csv_quoted_cells_and_line_numbers(tmp_path):
    # a label with a comma, quotes, a line end and a form feed takes two
    # physical lines per row; errors give the row's last physical line
    from lmakit.errors import SchemaError

    label = 'a,"b"\nc\x0cd'
    table = assemble_features(make_sequence(static_pose_positions(40), label=label), cfg=_cfg())
    path = tmp_path / "features.csv"
    write_features_csv(table, path)
    back = read_features_csv(path)
    assert back.labels == (label,) * len(table)
    np.testing.assert_array_equal(back.starts, table.starts)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[3] = "x" + lines[3][lines[3].index(","):]  # the first line of the second row
    path.write_text("\n".join(lines), encoding="utf-8")
    with pytest.raises(SchemaError, match="features.csv:5: non-numeric"):
        read_features_csv(path)


def test_csv_schema_mismatch_rejected(tmp_path):
    from lmakit.errors import SchemaError

    path = tmp_path / "bad.csv"
    path.write_text("a,b,c\n1,2,3\n", encoding="utf-8")
    with pytest.raises(SchemaError):
        read_features_csv(path)


def _same_table(a, b):
    assert a.X.tobytes() == b.X.tobytes()  # -0.0 stays -0.0
    assert a.labels == b.labels and a.groups == b.groups
    np.testing.assert_array_equal(a.starts, b.starts)


def _csv_module_table(path):
    return FeatureTable(*features._read_quoted(read_text(path), path))


# Cells as the writer's %.9g gives them, extremes included.
CSV_VALUES = st.one_of(st.floats(allow_nan=False, allow_infinity=False),
                       st.sampled_from([-0.0, 0.0, 1e-300, 1.5e300, -1.5e300, 5e-324]))
CSV_TEXTS = st.text(st.sampled_from(list('ab ,"\n\x0c\x1c_-é')), max_size=6)


@settings(max_examples=80, deadline=None)
@given(rows=st.lists(st.tuples(st.lists(CSV_VALUES, min_size=55, max_size=55), CSV_TEXTS, CSV_TEXTS,
                               st.integers(0, 10**6)), max_size=4),
       plain_labels=st.booleans())
def test_csv_paths_read_written_tables_alike(tmp_path_factory, rows, plain_labels):
    # a table read back equals the written one at the written precision, and
    # the numpy path (taken when no cell needs quoting) agrees with the csv module
    if plain_labels:
        plain = str.maketrans("", "", '",\n\x0c\x1c')
        rows = [(x, label.translate(plain), group.translate(plain), start)
                for x, label, group, start in rows]
    table = FeatureTable(np.reshape([x for x, *_ in rows], (-1, 55)), [r[1] or None for r in rows],
                         [r[2] for r in rows], [r[3] for r in rows])
    path = tmp_path_factory.mktemp("csv") / "features.csv"
    write_features_csv(table, path)
    back = read_features_csv(path)
    written = FeatureTable(np.array([[float(f"{v:.9g}") for v in x] for x, *_ in rows]).reshape(-1, 55),
                           table.labels, table.groups, table.starts)
    _same_table(back, written)
    _same_table(back, _csv_module_table(path))
    text = read_text(path)
    if not any(c in text for c in features._CSV_ONLY):
        _same_table(back, FeatureTable(*features._read_plain(text)))


@pytest.mark.parametrize("cell, value", [
    ("1_0", 10.0), (" 1.5", 1.5), ("1.5\t", 1.5), ("\u00a01.5", 1.5), ("\u0661", 1.0),
    ("+1E0", 1.0), ("-0", -0.0), ("1\x1c", None), ("\x1f2", None), ("0x10", None), ("", None),
])
def test_csv_cells_read_as_float_reads_them(tmp_path, cell, value):
    # the numpy parser and float() differ on some cells; the table follows float()
    from lmakit.errors import SchemaError

    path = tmp_path / "features.csv"
    write_features_csv(assemble_features(make_sequence(static_pose_positions(40)), cfg=_cfg()), path)
    lines = path.read_text(encoding="utf-8").split("\n")
    lines[2] = cell + lines[2][lines[2].index(","):]
    path.write_text("\n".join(lines), encoding="utf-8")
    if value is None:
        with pytest.raises(SchemaError, match="features.csv:3: non-numeric"):
            read_features_csv(path)
        return
    table = read_features_csv(path)
    assert table.X[1, 0] == value and np.signbit(table.X[1, 0]) == np.signbit(value)
    _same_table(table, _csv_module_table(path))


def _row(numbers):
    return ",".join(["1"] * numbers + ["a", "g", "0"])


@pytest.mark.parametrize("rows, message", [
    ([_row(54), _row(56)], ":2: feature CSV row has 57 columns"),  # the comma count adds up
    ([",a,g,0", _row(109)], ":2: feature CSV row has 4 columns"),  # np.loadtxt skips an empty head
    ([_row(55), _row(0)], ":3: feature CSV row has 3 columns"),
    ([",a,g,0", ",a,g,0"], ":2: feature CSV row has 4 columns"),  # np.loadtxt warns on no data
])
def test_csv_rows_of_other_widths_name_their_line(tmp_path, rows, message):
    from lmakit.errors import SchemaError

    path = tmp_path / "features.csv"
    write_features_csv(FeatureTable.concat([]), path)
    path.write_text(path.read_text(encoding="utf-8") + "\n".join(rows) + "\n", encoding="utf-8")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(SchemaError, match=message):
            read_features_csv(path)


def test_csv_plain_text_skips_the_csv_module(tmp_path, monkeypatch):
    def refuse(text, path):
        raise AssertionError("read by the csv module")

    table = assemble_features(make_sequence(static_pose_positions(40), label="demo"), cfg=_cfg())
    path = tmp_path / "features.csv"
    write_features_csv(table, path)
    path.write_text(path.read_text(encoding="utf-8") + "\n\n", encoding="utf-8")  # blank lines
    expected = _csv_module_table(path)
    monkeypatch.setattr(features, "_read_quoted", refuse)
    _same_table(read_features_csv(path), expected)
    write_features_csv(FeatureTable.concat([]), path)
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # np.loadtxt warns on an empty body
        assert len(read_features_csv(path)) == 0


# --- whole-array assembly against a per-window reference ------------------


def _reference_rows(seq, prim, plane, cfg):
    """The 55 slots window by window with plain slicing: the per-window loop
    that the whole-array assembly replaces, kept as its reference."""
    from lmakit.features import EFFORT_ROLES, SELECTED_JOINTS
    from lmakit.floor import height_above_floor

    skel, pos, T = seq.skeleton, seq.positions, seq.n_frames
    w = cfg.window.w
    w_inner = max(2, w // 5)
    alpha = {r: skel.weight(r) for r in SELECTED_JOINTS}
    sel = [skel.index(r) for r in SELECTED_JOINTS]
    sel_alpha = np.array([alpha[r] for r in SELECTED_JOINTS])
    energy = 0.5 * (sel_alpha[None, :] * prim.speed[:, sel] ** 2).sum(axis=1)
    accel = (sel_alpha[None, :] * prim.accel_mag[:, sel]).sum(axis=1)
    p = skel.index("pelvis")
    heights = height_above_floor(pos[:, p, :], plane)
    pred = {r: _initiation_predicates(seq, r, cfg)
            for r in ("left_hand", "right_hand", "left_foot", "right_foot")}

    def ratio(track, s, e):
        k_max = (e - 1 - s) // w_inner
        samples = track[s : s + k_max * w_inner + 1 : w_inner]
        chords = float(np.sum(np.linalg.norm(np.diff(samples, axis=0), axis=1)))
        net = float(np.linalg.norm(samples[-1] - samples[0]))
        return 0.0 if chords < 1e-12 else chords / max(net, cfg.epsilon_net)

    rows = []
    for s in range(0, T - w + 1, cfg.window.stride):
        e = s + w
        ratios = {r: ratio(pos[:, skel.index(r)], s, e)
                  for r in SELECTED_JOINTS}
        jerk = {r: prim.jerk_mag[s:e, skel.index(r)].mean()
                for r in SELECTED_JOINTS}
        vol, du, dl = prim.volume[s:e], prim.dispersion_upper[s:e], prim.dispersion_lower[s:e]
        path = float(prim.step_len[s : e - 1, p].sum())
        net = float(np.linalg.norm(pos[e - 1, p] - pos[s, p]))
        curv, h = prim.pelvis_curvature[s:e], heights[s:e]
        rows.append(np.concatenate([
            prim.distances[s:e].mean(axis=0),
            prim.angles[s:e].mean(axis=0),
            [float(v[s : min(e, T - 1)].mean()) for v in pred.values()],
            [ratios[r] for r in EFFORT_ROLES],
            [sum(alpha[r] * ratios[r] for r in SELECTED_JOINTS)],
            [energy[s:e].mean(), energy[s:e].max(), accel[s:e].mean(), accel[s:e].max()],
            [jerk[r] for r in EFFORT_ROLES],
            [sum(alpha[r] * jerk[r] for r in SELECTED_JOINTS)],
            [vol.mean(), vol.std(), vol.min(), vol.max()],
            [du.mean(), du.std(), dl.mean(), dl.std()],
            [path, net, 0.0 if path < 1e-12 else path / max(net, cfg.epsilon_net)],
            [curv.mean(), curv.max()],
            prim.step_len[s : e - 1, [skel.index(r) for r in EFFORT_ROLES]].sum(axis=0),
            [h.mean(), h.min(), h.max()],
        ]))
    return np.array(rows)


@pytest.mark.parametrize("w,stride", [(3, 1), (5, 1), (10, 3), (17, 4), (30, 2), (55, 1), (55, 7), (90, 1)])
def test_assembly_equals_per_window_reference(w, stride):
    from lmakit.synth import default_styles, generate_corpus

    plane = FloorPlane(slope=0.05, intercept=-0.1)
    for seq in generate_corpus(default_styles(), per_style=3, duration=1.5, fps=FPS,
                               master_seed=11)[::7]:
        prim = SequencePrimitives(seq)
        cfg = _cfg(w=w, stride=stride)
        table = assemble_features(seq, plane=plane, cfg=cfg, primitives=prim)
        assert table.starts.tolist() == list(range(0, seq.n_frames - w + 1, stride))
        assert np.array_equal(table.X, _reference_rows(seq, prim, plane, cfg))


def test_two_frame_window_too_short_for_chords():
    with pytest.raises(LmaError, match="too short for inner stride"):
        assemble_features(make_sequence(static_pose_positions(10)), cfg=_cfg(w=2, stride=1))
