"""Joint sequence data model and JSONL (de)serialization.

File format: line 1 is a JSON header
    {"format_version": 1, "fps": 60, "units": "meters",
     "joints": [...], "roles": {role: joint_name}, "weights": {joint_name: alpha},
     "label": ..., "group_id": ...}
and every following line is one frame: a JSON array of J [x, y, z] triplets
in meters.  NaN coordinates are encoded as null.
"""

import json
import math
from dataclasses import dataclass, field, replace
from itertools import chain

import numpy as np

from .errors import GapError, SequenceFormatError, SkeletonError
from .files import open_output, read_text
from .skeleton import SkeletonSpec, default_weight_for

FORMAT_VERSION = 1


@dataclass(frozen=True)
class JointSequence:
    """T x J x 3 joint positions (meters) sampled uniformly at `fps` Hz."""

    fps: float
    positions: np.ndarray = field(repr=False)
    skeleton: SkeletonSpec
    label: str | None = None
    group_id: str = ""

    def __post_init__(self):
        pos = np.asarray(self.positions, dtype=float)
        object.__setattr__(self, "positions", pos)
        if self.fps <= 0:
            raise SequenceFormatError(f"fps must be > 0, got {self.fps}")
        if pos.ndim != 3 or pos.shape[2] != 3:
            raise SequenceFormatError(f"positions must be T x J x 3, got {pos.shape}")
        if pos.shape[0] < 2:
            raise SequenceFormatError("T >= 2 required")
        if pos.shape[1] != self.skeleton.n_joints:
            raise SequenceFormatError(
                f"joint count {pos.shape[1]} does not match skeleton "
                f"({self.skeleton.n_joints})"
            )
        pos.setflags(write=False)

    @property
    def n_frames(self):
        return self.positions.shape[0]

    @property
    def n_joints(self):
        return self.positions.shape[1]

    @property
    def dt(self):
        return 1.0 / self.fps

    def joint(self, role):
        """T x 3 track of the joint playing `role`."""
        return self.positions[:, self.skeleton.index(role), :]

    def require_finite(self):
        if not np.all(np.isfinite(self.positions)):
            raise SequenceFormatError(
                "sequence contains NaN/Inf; run validate_and_repair first"
            )
        return self


def _is_number(v):
    """A finite JSON number; bool is an int subclass, so compare exact types."""
    try:
        return type(v) in (int, float) and math.isfinite(v)
    except OverflowError:  # an integer beyond float range
        return False


def _parse_header(obj, path):
    if not isinstance(obj, dict):
        raise SequenceFormatError("header must be a JSON object", path, 1)
    if obj.get("format_version") != FORMAT_VERSION:
        raise SequenceFormatError(
            f"unsupported format_version {obj.get('format_version')!r}", path, 1
        )
    if obj.get("units") != "meters":
        raise SequenceFormatError(
            f"units must be 'meters', got {obj.get('units')!r}", path, 1
        )
    fps = obj.get("fps")
    if not _is_number(fps) or fps <= 0:
        raise SequenceFormatError(f"fps must be a finite positive number, got {fps!r}", path, 1)
    joints = obj.get("joints")
    if not joints or not all(isinstance(j, str) for j in joints):
        raise SequenceFormatError("header must list joint names", path, 1)
    roles = obj.get("roles")
    if not isinstance(roles, dict):
        raise SequenceFormatError("header must carry a roles mapping", path, 1)
    name_to_idx = {n: i for i, n in enumerate(joints)}
    role_map = {}
    for role, name in roles.items():
        if not isinstance(name, str) or name not in name_to_idx:
            raise SequenceFormatError(
                f"role '{role}' names unknown joint '{name}'", path, 1
            )
        role_map[role] = name_to_idx[name]
    weights_in = obj.get("weights", {})
    if not isinstance(weights_in, dict) or not all(map(_is_number, weights_in.values())):
        raise SequenceFormatError("weights must map joint names to finite numbers", path, 1)
    weights = np.array(
        [float(weights_in.get(n, default_weight_for(n))) for n in joints]
    )
    try:
        skel = SkeletonSpec(tuple(joints), role_map, weights)
    except SkeletonError as e:
        raise SequenceFormatError(str(e), path, 1) from e
    label, group_id = obj.get("label"), obj.get("group_id", "")
    if not (label is None or isinstance(label, str)):
        raise SequenceFormatError(f"label must be a string or null, got {label!r}", path, 1)
    if not isinstance(group_id, str):
        raise SequenceFormatError(f"group_id must be a string, got {group_id!r}", path, 1)
    # every text file is read with '\r' as a line end, so a feature CSV cell
    # holding one, quoted or not, would not read back as written
    for name, text in (("label", label), ("group_id", group_id)):
        if text and "\r" in text:
            raise SequenceFormatError(f"{name} must not hold a carriage return, got {text!r}", path, 1)
    return fps, skel, label, group_id


def _json_line(line, what, path, lineno):
    """The JSON value of one line; malformed or too deeply nested JSON raises
    SequenceFormatError naming `path` and `lineno`."""
    try:
        return json.loads(line)
    except json.JSONDecodeError as e:
        raise SequenceFormatError(f"bad {what} JSON: {e}", path, lineno) from e
    except RecursionError as e:
        raise SequenceFormatError(f"bad {what} JSON: nested too deeply", path, lineno) from e


def load_sequence(path):
    """Parse a sequence JSONL file.

    Each non-blank line after the header is one JSON value.  `_read_frames`
    checks and converts all frames at once, with whole-list type checks; a
    file it refuses goes through `_read_frames_per_line`, which checks one
    coordinate at a time and raises SequenceFormatError naming the line of
    the first fault.  Both give the same positions from the same text."""
    lines = read_text(path).splitlines()
    if not lines:
        raise SequenceFormatError("empty file", path)
    fps, skel, label, group_id = _parse_header(_json_line(lines[0], "header", path, 1), path)
    numbered = [(lineno, line) for lineno, line in enumerate(lines[1:], start=2) if line.strip()]
    positions = _read_frames(numbered, skel.n_joints)
    if positions is None:
        positions = _read_frames_per_line(numbered, skel.n_joints, path)
    if len(positions) < 2:
        raise SequenceFormatError("T >= 2 required", path)
    return JointSequence(fps, positions, skel, label=label, group_id=group_id)


_COORDINATE_TYPES = {int, float, type(None)}  # bool is an int subclass: exact types


def _read_frames(numbered, n_joints):
    """(T, n_joints, 3) positions of the (line number, text) frame lines, or
    None unless every line is a list of n_joints [x, y, z] lists of numbers
    or nulls, none of them beyond float range."""
    try:
        rows = [json.loads(line) for _, line in numbered]
    except (json.JSONDecodeError, RecursionError):
        return None
    if not (set(map(type, rows)) <= {list} and set(map(len, rows)) <= {n_joints}):
        return None
    triples = list(chain.from_iterable(rows))
    if not (set(map(type, triples)) <= {list} and set(map(len, triples)) <= {3}):
        return None
    values = list(chain.from_iterable(triples))
    if not set(map(type, values)) <= _COORDINATE_TYPES:
        return None
    try:
        return np.array(values, dtype=float).reshape(len(rows), n_joints, 3)  # null -> NaN
    except OverflowError:  # an integer beyond float range
        return None


def _read_frames_per_line(numbered, n_joints, path):
    """(T, n_joints, 3) positions of the (line number, text) frame lines,
    checked one line and coordinate at a time; the first fault raises
    SequenceFormatError naming `path` and its line."""
    frames = []
    for lineno, line in numbered:
        row = _json_line(line, "frame", path, lineno)
        if not isinstance(row, list) or len(row) != n_joints:
            raise SequenceFormatError(
                f"frame {lineno - 2} has {len(row) if isinstance(row, list) else '?'} "
                f"joints, expected {n_joints}",
                path,
                lineno,
            )
        frame = np.empty((n_joints, 3))
        for j, trip in enumerate(row):
            if (
                not isinstance(trip, list)
                or len(trip) != 3
                or not all(type(v) in _COORDINATE_TYPES for v in trip)
            ):
                raise SequenceFormatError(
                    f"frame {lineno - 2}, joint {j}: expected [x, y, z] of numbers or null",
                    path,
                    lineno,
                )
            try:
                frame[j] = [math.nan if v is None else float(v) for v in trip]
            except OverflowError as e:
                raise SequenceFormatError(
                    f"frame {lineno - 2}, joint {j}: coordinate out of range", path, lineno
                ) from e
        frames.append(frame)
    return np.array(frames).reshape(-1, n_joints, 3)


def save_sequence(seq, path):
    """Serialize to the JSONL format; round-trips positions exactly."""
    skel = seq.skeleton
    header = {
        "format_version": FORMAT_VERSION,
        "fps": seq.fps,
        "units": "meters",
        "joints": list(skel.joint_names),
        "roles": {r: skel.joint_names[i] for r, i in skel.role_map.items()},
        "weights": {n: float(skel.joint_weights[i]) for i, n in enumerate(skel.joint_names)},
    }
    if seq.label is not None:
        header["label"] = seq.label
    if seq.group_id:
        header["group_id"] = seq.group_id
    with open_output(path) as fh:
        fh.write(json.dumps(header) + "\n")
        for frame in seq.positions:
            row = [
                [None if math.isnan(v) else v for v in joint] for joint in frame.tolist()
            ]
            fh.write(json.dumps(row) + "\n")


def validate_and_repair(seq, max_gap=6):
    """Linearly interpolate NaN runs of length <= max_gap per joint coordinate.

    Longer runs, or NaNs touching the first/last frame of a joint track, are
    unrecoverable and raise GapError.  A sequence without NaNs is returned
    unchanged.
    """
    pos = seq.positions
    if np.all(np.isfinite(pos)):
        return seq
    if np.any(np.isinf(pos)):
        raise GapError("sequence contains infinite coordinates")
    bad = np.isnan(pos).any(axis=2)  # (T, J)
    # maximal missing runs, ordered by joint and then by first frame
    edges = np.diff(np.pad(bad, ((1, 1), (0, 0))).astype(np.int8), axis=0).T
    joint, start = np.nonzero(edges == 1)
    stop = np.nonzero(edges == -1)[1]
    length = stop - start
    boundary = bad[0] | bad[-1]
    failing = boundary[joint] | (length > max_gap)
    if failing.any():
        r = int(np.argmax(failing))  # the first failing joint's first failing run
        name = seq.skeleton.joint_names[joint[r]]
        if boundary[joint[r]]:
            raise GapError(
                f"joint '{name}' has missing data at a sequence boundary",
                joint=name,
            )
        first, last = int(start[r]), int(stop[r]) - 1
        raise GapError(
            f"joint '{name}' missing for frames {first}..{last} "
            f"({length[r]} > max_gap={max_gap})",
            joint=name,
            frames=(first, last),
        )
    j, k = np.nonzero(bad.T)  # the missing frames, in the order of their runs
    run = np.repeat(np.arange(len(start)), length)
    lo, hi = start[run] - 1, stop[run]
    frac = ((k - lo) / (hi - lo))[:, None]
    repaired = pos.copy()
    repaired[k, j] = (1 - frac) * pos[lo, j] + frac * pos[hi, j]
    return replace(seq, positions=repaired)

