import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_sequence, static_pose_positions
from lmakit.errors import GapError, SequenceFormatError
from lmakit.sequence import load_sequence, save_sequence, validate_and_repair
from lmakit.skeleton import REQUIRED_ROLES


def _write_minimal_file(path, n_frames=2, fps=60, mutate=None):
    joints = list(REQUIRED_ROLES)
    header = {
        "format_version": 1,
        "fps": fps,
        "units": "meters",
        "joints": joints,
        "roles": {r: r for r in joints},
        "weights": {},
        "label": "demo",
        "group_id": "g0",
    }
    frames = [[[0.1 * j, 0.2 * j, 0.01 * t] for j in range(13)] for t in range(n_frames)]
    lines = [json.dumps(header)] + [json.dumps(f) for f in frames]
    if mutate:
        lines = mutate(lines)
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")


def test_load_minimal_file(tmp_path):
    f = tmp_path / "seq.jsonl"
    _write_minimal_file(f)
    seq = load_sequence(f)
    assert seq.n_frames == 2
    assert seq.n_joints == 13
    assert seq.fps == 60
    assert seq.label == "demo"
    assert seq.group_id == "g0"


def test_single_frame_rejected(tmp_path):
    f = tmp_path / "seq.jsonl"
    _write_minimal_file(f, n_frames=1)
    with pytest.raises(SequenceFormatError, match="T >= 2"):
        load_sequence(f)


def test_wrong_joint_count_names_frame(tmp_path):
    f = tmp_path / "seq.jsonl"

    def drop_joint(lines):
        frame = json.loads(lines[2])
        lines[2] = json.dumps(frame[:-1])
        return lines

    _write_minimal_file(f, n_frames=3, mutate=drop_joint)
    with pytest.raises(SequenceFormatError, match="frame 1"):
        load_sequence(f)


def test_unknown_role_joint_rejected(tmp_path):
    f = tmp_path / "seq.jsonl"

    def rename(lines):
        header = json.loads(lines[0])
        header["roles"]["head"] = "not_a_joint"
        lines[0] = json.dumps(header)
        return lines

    _write_minimal_file(f, mutate=rename)
    with pytest.raises(SequenceFormatError, match="not_a_joint"):
        load_sequence(f)


def test_non_meter_units_rejected(tmp_path):
    f = tmp_path / "seq.jsonl"

    def mm(lines):
        header = json.loads(lines[0])
        header["units"] = "millimeters"
        lines[0] = json.dumps(header)
        return lines

    _write_minimal_file(f, mutate=mm)
    with pytest.raises(SequenceFormatError, match="meters"):
        load_sequence(f)


def test_round_trip(tmp_path):
    f = tmp_path / "a.jsonl"
    g = tmp_path / "b.jsonl"
    _write_minimal_file(f, n_frames=5)
    seq = load_sequence(f)
    save_sequence(seq, g)
    seq2 = load_sequence(g)
    np.testing.assert_allclose(seq2.positions, seq.positions, atol=1e-9)
    assert seq2.fps == seq.fps
    assert seq2.label == seq.label


def test_null_round_trips_as_nan(tmp_path):
    f = tmp_path / "a.jsonl"

    def put_null(lines):
        frame = json.loads(lines[1])
        frame[3][1] = None
        lines[1] = json.dumps(frame)
        return lines

    _write_minimal_file(f, n_frames=3, mutate=put_null)
    seq = load_sequence(f)
    assert math.isnan(seq.positions[0, 3, 1])


def test_repair_midpoint():
    pos = static_pose_positions(11)
    j = 2
    pos[:, j, :] = [0.0, 0.0, 0.0]
    pos[6, j, :] = [0.0, 0.0, 0.2]
    pos[5, j, :] = np.nan
    # neighbors at (0,0,0) and (0,0,0.2): midpoint interpolation
    seq = make_sequence(pos)
    fixed = validate_and_repair(seq, max_gap=6)
    np.testing.assert_allclose(fixed.positions[5, j, :], [0.0, 0.0, 0.1], atol=1e-12)
    assert np.all(np.isfinite(fixed.positions))


def test_repair_gap_too_long():
    pos = static_pose_positions(20)
    pos[5:12, 0, :] = np.nan  # 7 frames > max_gap 6
    with pytest.raises(GapError, match="max_gap"):
        validate_and_repair(make_sequence(pos), max_gap=6)


def test_repair_boundary_nan():
    pos = static_pose_positions(10)
    pos[0, 4, 0] = np.nan
    with pytest.raises(GapError, match="boundary"):
        validate_and_repair(make_sequence(pos))


def test_repair_identity_and_idempotent():
    pos = static_pose_positions(8)
    seq = make_sequence(pos)
    assert validate_and_repair(seq) is seq
    pos2 = static_pose_positions(8)
    pos2[3, 1, :] = np.nan
    fixed = validate_and_repair(make_sequence(pos2))
    again = validate_and_repair(fixed)
    np.testing.assert_array_equal(fixed.positions, again.positions)


def _repair_reference(seq, max_gap=6):
    """`validate_and_repair` as a frame-by-frame loop over each joint's runs."""
    pos = seq.positions
    if np.all(np.isfinite(pos)):
        return seq
    if np.any(np.isinf(pos)):
        raise GapError("sequence contains infinite coordinates")
    repaired = pos.copy()
    T = seq.n_frames
    for j in range(seq.n_joints):
        bad = np.any(np.isnan(pos[:, j, :]), axis=1)
        if not bad.any():
            continue
        name = seq.skeleton.joint_names[j]
        if bad[0] or bad[-1]:
            raise GapError(
                f"joint '{name}' has missing data at a sequence boundary",
                joint=name,
            )
        t = 0
        while t < T:
            if not bad[t]:
                t += 1
                continue
            start = t
            while t < T and bad[t]:
                t += 1
            run = t - start
            if run > max_gap:
                raise GapError(
                    f"joint '{name}' missing for frames {start}..{t - 1} "
                    f"({run} > max_gap={max_gap})",
                    joint=name,
                    frames=(start, t - 1),
                )
            lo, hi = start - 1, t
            for k in range(start, t):
                frac = (k - lo) / (hi - lo)
                repaired[k, j, :] = (1 - frac) * pos[lo, j, :] + frac * pos[hi, j, :]
    return replace(seq, positions=repaired)


def _outcome(repair, seq, max_gap):
    try:
        return repair(seq, max_gap=max_gap).positions
    except GapError as e:
        return (str(e), e.joint, e.frames)


@settings(max_examples=300, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_frames=st.integers(2, 40),
    p_missing=st.sampled_from([0.0, 0.02, 0.1, 0.3]),
    run_length=st.integers(1, 9),
    max_gap=st.integers(0, 8),
    ends_missing=st.booleans(),
    inf=st.booleans(),
)
def test_repair_matches_frame_loop(seed, n_frames, p_missing, run_length, max_gap, ends_missing, inf):
    # scattered missing coordinates plus one missing run of a whole joint,
    # on coordinates of all magnitudes; the repair must equal the loop bit
    # for bit, or raise the same error
    rng = np.random.default_rng(seed)
    scale = 10.0 ** rng.integers(-3, 4)
    pos = static_pose_positions(n_frames) + rng.normal(0.0, scale, (n_frames, 13, 3))
    missing = rng.random(pos.shape) < p_missing
    start = int(rng.integers(0, n_frames))
    missing[start:start + run_length, int(rng.integers(13))] = True
    if not ends_missing:
        missing[[0, -1]] = False
    pos[missing] = np.nan
    if inf and rng.random() < 0.3:
        pos[tuple(rng.integers(s) for s in pos.shape)] = np.inf
    seq = make_sequence(pos)
    got = _outcome(validate_and_repair, seq, max_gap)
    want = _outcome(_repair_reference, seq, max_gap)
    if isinstance(want, tuple):
        assert got == want
    else:
        assert isinstance(got, np.ndarray) and np.array_equal(got, want, equal_nan=True)
        assert got.tobytes() == want.tobytes()


def test_repair_reports_the_first_joint_and_its_boundary_first():
    pos = static_pose_positions(30)
    pos[3:12, 5, 0] = np.nan  # a long run on joint 5
    pos[-1, 7, 2] = np.nan  # the last frame on joint 7
    pos[0, 9, 1] = np.nan  # the first frame on joint 9
    seq = make_sequence(pos)
    with pytest.raises(GapError) as e:
        validate_and_repair(seq, max_gap=6)
    assert (e.value.joint, e.value.frames) == (seq.skeleton.joint_names[5], (3, 11))
    pos = pos.copy()
    pos[-1, 5, 1] = np.nan  # a boundary fault outranks joint 5's long run
    with pytest.raises(GapError, match="boundary") as e:
        validate_and_repair(make_sequence(pos), max_gap=6)
    assert e.value.joint == seq.skeleton.joint_names[5]


@pytest.mark.parametrize("bad", [True, False, "1.0", "abc", [1.0], {"x": 1}])
def test_non_numeric_coordinate_rejected_with_location(tmp_path, bad):
    f = tmp_path / "seq.jsonl"

    def poison(lines):
        frame = json.loads(lines[2])
        frame[4][1] = bad
        lines[2] = json.dumps(frame)
        return lines

    _write_minimal_file(f, n_frames=3, mutate=poison)
    with pytest.raises(SequenceFormatError, match=r"numbers or null.*seq\.jsonl:3"):
        load_sequence(f)


def test_integer_coordinates_and_null_accepted(tmp_path):
    f = tmp_path / "seq.jsonl"

    def ints(lines):
        frame = json.loads(lines[1])
        frame[0] = [1, None, -2]
        lines[1] = json.dumps(frame)
        return lines

    _write_minimal_file(f, mutate=ints)
    seq = load_sequence(f)
    assert seq.positions[0, 0, 0] == 1.0 and math.isnan(seq.positions[0, 0, 1])


def test_overflowing_coordinate_rejected(tmp_path):
    f = tmp_path / "seq.jsonl"

    def huge(lines):
        lines[1] = lines[1].replace("0.0", "1" + "0" * 400, 1)
        return lines

    _write_minimal_file(f, mutate=huge)
    with pytest.raises(SequenceFormatError, match="out of range"):
        load_sequence(f)


def test_non_object_header_rejected(tmp_path):
    f = tmp_path / "seq.jsonl"
    _write_minimal_file(f, mutate=lambda lines: ["[1, 2]"] + lines[1:])
    with pytest.raises(SequenceFormatError, match="JSON object"):
        load_sequence(f)
