import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import make_sequence, static_pose_positions
from lmakit.errors import GapError, SequenceFormatError
from lmakit.sequence import (
    _read_frames,
    _read_frames_per_line,
    load_sequence,
    save_sequence,
    validate_and_repair,
)
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


@pytest.mark.parametrize("field", ["label", "group_id"])
@pytest.mark.parametrize("text", ["\r", "a\rb", "a\r\nb"])
def test_carriage_return_in_label_or_group_rejected(tmp_path, field, text):
    # every text file reads '\r' as a line end, so the feature CSV could not
    # give such a label or group id back
    f = tmp_path / "seq.jsonl"

    def set_text(lines):
        header = json.loads(lines[0])
        header[field] = text
        lines[0] = json.dumps(header)
        return lines

    _write_minimal_file(f, mutate=set_text)
    with pytest.raises(SequenceFormatError, match=rf"^{field} must not hold a carriage return.*seq\.jsonl:1\]$"):
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


def _numbered(path):
    """The (line number, text) frame lines of a sequence file, as `load_sequence` reads them."""
    lines = path.read_text(encoding="utf-8").splitlines()
    return [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line.strip()]


_COORDINATES = st.one_of(
    st.none(),
    st.integers(-(10**6), 10**6),
    st.sampled_from([10**22 + 7, -(10**22) - 3, 2**63, 2**53 + 1]),  # floats, but not int64s
    st.floats(allow_nan=True, allow_infinity=True),  # NaN and Infinity tokens too
)


@settings(max_examples=150, deadline=None)
@given(
    frames=st.lists(st.lists(st.lists(_COORDINATES, min_size=3, max_size=3), min_size=13, max_size=13),
                    min_size=2, max_size=5),
    blanks=st.lists(st.integers(1, 6), max_size=3),
    end=st.sampled_from(["\n", "\r\n"]),
)
def test_whole_list_frames_match_the_line_loop(tmp_path_factory, frames, blanks, end):
    path = tmp_path_factory.mktemp("frames") / "seq.jsonl"

    def write(lines):
        lines = lines[:1] + [json.dumps(f) for f in frames]
        for at in blanks:
            lines.insert(min(at, len(lines)), " " * (at % 2))
        return [line + end.rstrip("\n") for line in lines]

    _write_minimal_file(path, mutate=write)
    numbered = _numbered(path)
    fast = _read_frames(numbered, 13)
    loop = _read_frames_per_line(numbered, 13, path)
    assert fast is not None and fast.shape == (len(frames), 13, 3)
    assert np.array_equal(fast, loop, equal_nan=True) and fast.dtype == loop.dtype
    positions = load_sequence(path).positions
    assert np.array_equal(positions, loop, equal_nan=True)
    assert np.array_equal(np.isnan(positions), [[[v is None or v != v for v in t] for t in f] for f in frames])


def _frame_edit(edit):
    """A mutation that rewrites frame 1 (line 3) of the minimal file with `edit`."""

    def mutate(lines):
        lines[2] = edit(lines[2], json.loads(lines[2]))
        return lines

    return mutate


_DEEP = "[" * 100_000


_MALFORMED = {
    "bool": (lambda text, f: json.dumps([[True, 0, 0]] + f[1:]),
             "frame 1, joint 0: expected [x, y, z] of numbers or null"),
    "string": (lambda text, f: json.dumps(f[:4] + [[0, "1.0", 0]] + f[5:]),
               "frame 1, joint 4: expected [x, y, z] of numbers or null"),
    "nested-list": (lambda text, f: json.dumps(f[:2] + [[0, [1.0], 0]] + f[3:]),
                    "frame 1, joint 2: expected [x, y, z] of numbers or null"),
    "two-item-triple": (lambda text, f: json.dumps(f[:7] + [[0.5, 1.5]] + f[8:]),
                        "frame 1, joint 7: expected [x, y, z] of numbers or null"),
    "ragged-frame": (lambda text, f: json.dumps(f[:-1]), "frame 1 has 12 joints, expected 13"),
    "two-frames-on-a-line": (lambda text, f: text + " " + text, None),
    "400-digit-integer": (lambda text, f: json.dumps(f[:3] + [[0, 1, "X"]] + f[4:]).replace('"X"', "1" + "0" * 400),
                          "frame 1, joint 3: coordinate out of range"),
    "trailing-garbage": (lambda text, f: text + " ]", None),
    "deep-nesting": (lambda text, f: _DEEP, "bad frame JSON: nested too deeply"),
}


@pytest.mark.parametrize("edit, message", _MALFORMED.values(), ids=_MALFORMED)
def test_malformed_frames_raise_the_line_loop_message(tmp_path, edit, message):
    # each of these fails the whole-list checks, and the line loop names the
    # fault and its line as it always did
    path = tmp_path / "seq.jsonl"
    _write_minimal_file(path, n_frames=3, mutate=_frame_edit(edit))
    if message is None:  # the decoder's own message
        with pytest.raises(json.JSONDecodeError) as decode:
            json.loads(path.read_text(encoding="utf-8").split("\n")[2])
        message = f"bad frame JSON: {decode.value}"
    assert _read_frames(_numbered(path), 13) is None
    with pytest.raises(SequenceFormatError) as e:
        load_sequence(path)
    assert str(e.value) == f"{message} [{path}:3]"
    assert (e.value.path, e.value.line) == (path, 3)


def test_deeply_nested_header_is_a_format_error(tmp_path):
    path = tmp_path / "seq.jsonl"
    _write_minimal_file(path, mutate=lambda lines: [_DEEP] + lines[1:])
    with pytest.raises(SequenceFormatError, match=r"^bad header JSON: nested too deeply \[.*seq\.jsonl:1\]$"):
        load_sequence(path)
