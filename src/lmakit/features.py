"""The 55-slot movement descriptor computed over sliding windows.

Slots are grouped into the four classic movement-analysis families:

  Body (18)   : 8 inter-joint distances, 6 joint angles, 4 initiation rates
  Effort (16) : 6 path-directness ratios, kinetic-energy mean/max,
                acceleration mean/max, 6 jerk means
  Shape (4)   : convex-hull volume statistics
  Space (17)  : kinesphere dispersion, pelvis path/curvature, per-joint
                travel, pelvis height above the floor

The layout is a frozen schema: every CSV, model and attribution refers to
slots through FEATURE_NAMES.
"""

import csv
import math
import re
from dataclasses import dataclass, field

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view

from .errors import LmaError, SchemaError
from .files import csv_cell, open_output, read_text
from .floor import flat_floor, height_above_floor
from .hull import hull_volume
from .kinematics import WindowConfig, derivative, windows
from .skeleton import OPTIONAL_ROLES

EFFORT_ROLES = ("head", "left_hand", "right_hand", "left_foot", "right_foot")
# the joints of the weighted Effort aggregates; a superset of EFFORT_ROLES,
# whose own slots read the same per-joint ratios and jerks
SELECTED_JOINTS = EFFORT_ROLES + ("pelvis",)


def skeleton_signature(skel):
    """What a skeleton changes in the features: the joint count (the hull
    takes every joint), the optional roles present (an elbow angle without
    its role uses a midarm proxy) and the Effort weights of SELECTED_JOINTS.
    Sequences of one signature give comparable feature rows."""
    return {
        "joints": skel.n_joints,
        "optional_roles": [r for r in OPTIONAL_ROLES if skel.has_role(r)],
        "weights": {r: skel.weight(r) for r in SELECTED_JOINTS},
    }


FEATURE_NAMES = (
    # Body: distances (m)
    "dist_hand_hand",
    "dist_lhand_pelvis",
    "dist_rhand_pelvis",
    "dist_ankle_ankle",
    "dist_knee_knee",
    "dist_lshoulder_lhand",
    "dist_rshoulder_rhand",
    "dist_head_pelvis",
    # Body: angles (rad)
    "angle_left_elbow",
    "angle_right_elbow",
    "angle_left_knee",
    "angle_right_knee",
    "angle_left_shoulder",
    "angle_right_shoulder",
    # Body: movement initiation rates
    "initiation_left_hand",
    "initiation_right_hand",
    "initiation_left_foot",
    "initiation_right_foot",
    # Effort: space (directness ratios)
    "effort_space_head",
    "effort_space_left_hand",
    "effort_space_right_hand",
    "effort_space_left_foot",
    "effort_space_right_foot",
    "effort_space_total",
    # Effort: weight (kinetic energy)
    "effort_weight_mean",
    "effort_weight_max",
    # Effort: time (acceleration)
    "effort_time_mean",
    "effort_time_max",
    # Effort: flow (jerk)
    "effort_flow_head",
    "effort_flow_left_hand",
    "effort_flow_right_hand",
    "effort_flow_left_foot",
    "effort_flow_right_foot",
    "effort_flow_total",
    # Shape: hull volume statistics (m^3)
    "volume_mean",
    "volume_std",
    "volume_min",
    "volume_max",
    # Space: kinesphere dispersion (m)
    "dispersion_upper_mean",
    "dispersion_upper_std",
    "dispersion_lower_mean",
    "dispersion_lower_std",
    # Space: pelvis trajectory
    "pelvis_path_length",
    "pelvis_net_displacement",
    "pelvis_path_ratio",
    "pelvis_curvature_mean",
    "pelvis_curvature_max",
    # Space: per-joint travel (m)
    "travel_head",
    "travel_left_hand",
    "travel_right_hand",
    "travel_left_foot",
    "travel_right_foot",
    # Space: pelvis height above floor (m)
    "pelvis_height_mean",
    "pelvis_height_min",
    "pelvis_height_max",
)

assert len(FEATURE_NAMES) == 55

UPPER_DISPERSION_ROLES = ("head", "left_hand", "right_hand", "left_shoulder", "right_shoulder")
LOWER_DISPERSION_ROLES = ("left_knee", "right_knee", "left_ankle", "right_ankle")

_CURVATURE_SPEED_FLOOR = 1e-9


@dataclass(frozen=True)
class LmaConfig:
    window: WindowConfig = field(default_factory=WindowConfig)
    initiation_scale: float = 1.0
    epsilon_net: float = 1e-3

    def __post_init__(self):
        for name in ("initiation_scale", "epsilon_net"):
            if not 0 < getattr(self, name) < math.inf:
                raise LmaError(f"{name} must be finite and > 0")


@dataclass(frozen=True)
class FeatureTable:
    """One row per window: the (n, 55) matrix `X` in the frozen layout, and
    each row's label (or None), group id and window start frame."""

    X: np.ndarray
    labels: tuple
    groups: tuple
    starts: np.ndarray

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        starts = np.asarray(self.starts, dtype=int)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "labels", tuple(self.labels))
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "starts", starts)
        if X.ndim != 2 or X.shape[1] != len(FEATURE_NAMES):
            raise LmaError(f"expected rows of {len(FEATURE_NAMES)} feature values, got {X.shape}")
        n = X.shape[0]
        if len(self.labels) != n or len(self.groups) != n or starts.shape != (n,):
            raise LmaError("feature rows, labels, groups and starts must agree on the row count")
        if not np.all(np.isfinite(X)):
            raise LmaError("non-finite feature value")

    def __len__(self):
        return self.X.shape[0]

    @staticmethod
    def concat(tables):
        """One table with the rows of `tables`, in order."""
        tables = list(tables)
        return FeatureTable(
            np.concatenate([np.empty((0, len(FEATURE_NAMES)))] + [t.X for t in tables]),
            [l for t in tables for l in t.labels],
            [g for t in tables for g in t.groups],
            np.concatenate([np.empty(0, dtype=int)] + [t.starts for t in tables]),
        )


def _angle_at(a, b, c):
    """Angle (rad, in [0, pi]) at vertex b for frames of points a, b, c."""
    u = a - b
    v = c - b
    nu = np.linalg.norm(u, axis=-1)
    nv = np.linalg.norm(v, axis=-1)
    denom = nu * nv
    cosang = np.zeros(denom.shape)
    ok = denom > 1e-12
    dots = np.sum(u * v, axis=-1)
    cosang[ok] = np.clip(dots[ok] / denom[ok], -1.0, 1.0)
    ang = np.arccos(cosang)
    ang[~ok] = 0.0
    return ang


class SequencePrimitives:
    """Per-frame quantities computed once per sequence and shared across
    window sizes (derivatives, distances, angles, hull volumes, ...).

    Finite coordinates can still overflow a float here (a coordinate of
    1e300, or an fps of 1e300 in the derivatives), so the quantities are
    computed with overflow ignored and any that is not finite is refused."""

    @np.errstate(over="ignore", invalid="ignore")
    def __init__(self, seq):
        seq.require_finite()
        skel = seq.skeleton
        pos = seq.positions
        dt = seq.dt
        T = seq.n_frames

        if T < 3:
            raise LmaError(f"track too short for order-2 derivative (T={T})")
        self.vel = derivative(pos, 1, dt)
        self.acc = derivative(self.vel, 1, dt)
        self.jerk = derivative(self.acc, 1, dt) if T >= 4 else np.zeros_like(pos)
        self.speed = np.linalg.norm(self.vel, axis=2)
        self.accel_mag = np.linalg.norm(self.acc, axis=2)
        self.jerk_mag = np.linalg.norm(self.jerk, axis=2)
        # frame-to-frame displacement lengths, per joint
        self.step_len = np.linalg.norm(pos[1:] - pos[:-1], axis=2)

        def track(role):
            return pos[:, skel.index(role), :]

        lh, rh = track("left_hand"), track("right_hand")
        la, ra = track("left_ankle"), track("right_ankle")
        lk, rk = track("left_knee"), track("right_knee")
        ls, rs = track("left_shoulder"), track("right_shoulder")
        head, pelvis, torso = track("head"), track("pelvis"), track("torso")

        def dist(a, b):
            return np.linalg.norm(a - b, axis=1)

        self.distances = np.column_stack(
            [
                dist(lh, rh),
                dist(lh, pelvis),
                dist(rh, pelvis),
                dist(la, ra),
                dist(lk, rk),
                dist(ls, lh),
                dist(rs, rh),
                dist(head, pelvis),
            ]
        )

        le = track("left_elbow") if skel.has_role("left_elbow") else 0.5 * (ls + lh)
        re = track("right_elbow") if skel.has_role("right_elbow") else 0.5 * (rs + rh)
        self.angles = np.column_stack(
            [
                _angle_at(ls, le, lh),
                _angle_at(rs, re, rh),
                _angle_at(pelvis, lk, la),
                _angle_at(pelvis, rk, ra),
                _angle_at(head, ls, lh),
                _angle_at(head, rs, rh),
            ]
        )

        upper = np.stack([dist(track(r), torso) for r in UPPER_DISPERSION_ROLES])
        lower = np.stack([dist(track(r), pelvis) for r in LOWER_DISPERSION_ROLES])
        self.dispersion_upper = upper.mean(axis=0)
        self.dispersion_lower = lower.mean(axis=0)

        self.volume = np.array([hull_volume(pos[t]) for t in range(T)])

        pv = self.vel[:, skel.index("pelvis"), :]
        pa = self.acc[:, skel.index("pelvis"), :]
        cross = np.cross(pv, pa)
        speed3 = np.maximum(np.linalg.norm(pv, axis=1) ** 3, _CURVATURE_SPEED_FLOOR)
        self.pelvis_curvature = np.linalg.norm(cross, axis=1) / speed3
        overflowed = [name for name, value in vars(self).items() if not np.isfinite(value).all()]
        if overflowed:
            raise LmaError(f"per-frame {', '.join(overflowed)} not finite: "
                           "coordinates or fps too large")


def _initiation_predicates(seq, role, cfg):
    """Per-frame initiation predicate: windowed displacement rate above a
    threshold scaled from the whole-sequence speed deviation.

    The look-ahead is clamped at the final frame so trailing windows stay
    defined; the last frame itself carries no predicate.
    """
    pos = seq.joint(role)
    T = pos.shape[0]
    dt = seq.dt
    w = cfg.window.w
    step_speed = np.linalg.norm(pos[1:] - pos[:-1], axis=1) / dt
    tau = cfg.initiation_scale * float(np.std(step_speed))
    t = np.arange(T - 1)
    t2 = np.minimum(t + w, T - 1)
    disp = np.linalg.norm(pos[t2] - pos[t], axis=1)
    rate = disp / ((t2 - t) * dt)
    return rate > tau  # length T-1; frame T-1 has no look-ahead


def _vector_norms(d):
    """Euclidean norm of each row, computed as `np.linalg.norm` computes one
    vector's (a dot product), so a window's value does not depend on how
    many windows share the call."""
    return np.sqrt(np.matmul(d[:, None, :], d[:, :, None])[:, 0, 0])


def _effort_space_ratios(pos, starts, w, w_inner, epsilon_net):
    """Path-to-net-displacement ratio over chords tiling each window of `w`
    frames that begins at one of `starts`."""
    k_max = (w - 1) // w_inner
    if k_max < 1:
        raise LmaError(f"window of {w} frames too short for inner stride {w_inner}")
    chord = np.linalg.norm(pos[w_inner:] - pos[:-w_inner], axis=1)
    chords = chord[starts[:, None] + w_inner * np.arange(k_max)].sum(axis=1)
    net = _vector_norms(pos[starts + k_max * w_inner] - pos[starts])
    return np.where(chords < 1e-12, 0.0, chords / np.maximum(net, epsilon_net))


def assemble_features(seq, plane=None, cfg=None, primitives=None):
    """One FeatureTable row per sliding window, in the frozen 55-slot layout.

    Every slot is reduced over all windows at once, from sliding-window views
    of the per-frame primitives.
    """
    cfg = cfg or LmaConfig()
    plane = plane or flat_floor()
    prim = primitives or SequencePrimitives(seq)
    skel = seq.skeleton
    pos = seq.positions
    T = seq.n_frames
    w, stride = cfg.window.w, cfg.window.stride
    starts = np.array([s for s, _ in windows(T, cfg.window)])

    def win(x, length=w):
        """Every window of `length` frames over x's first axis, frames last."""
        return sliding_window_view(x, length, axis=0)[::stride]

    alphas = {r: skel.weight(r) for r in SELECTED_JOINTS}
    sel_idx = [skel.index(r) for r in SELECTED_JOINTS]
    sel_alpha = np.array([alphas[r] for r in SELECTED_JOINTS])
    pelvis_idx = skel.index("pelvis")

    cols = [win(prim.distances).mean(axis=-1), win(prim.angles).mean(axis=-1)]

    # the predicates stop one frame short, so the last window may be shorter
    ends = np.minimum(starts + w, T - 1)
    for r in ("left_hand", "right_hand", "left_foot", "right_foot"):
        fired = np.concatenate([[0], np.cumsum(_initiation_predicates(seq, r, cfg))])
        cols.append((fired[ends] - fired[starts]) / (ends - starts))

    w_inner = max(2, w // 5)
    ratios = {
        r: _effort_space_ratios(seq.joint(r), starts, w, w_inner, cfg.epsilon_net)
        for r in SELECTED_JOINTS
    }
    cols += [ratios[r] for r in EFFORT_ROLES]
    cols.append(sum(alphas[r] * ratios[r] for r in SELECTED_JOINTS))

    # per-frame weighted aggregates over the selected joints
    energy = 0.5 * (sel_alpha[None, :] * prim.speed[:, sel_idx] ** 2).sum(axis=1)
    accel_sum = (sel_alpha[None, :] * prim.accel_mag[:, sel_idx]).sum(axis=1)
    for x in (energy, accel_sum):
        cols += [win(x).mean(axis=-1), win(x).max(axis=-1)]

    jerk = {r: win(prim.jerk_mag[:, skel.index(r)]).mean(axis=-1) for r in SELECTED_JOINTS}
    cols += [jerk[r] for r in EFFORT_ROLES]
    cols.append(sum(alphas[r] * jerk[r] for r in SELECTED_JOINTS))

    vol = win(prim.volume)
    cols += [vol.mean(axis=-1), vol.std(axis=-1), vol.min(axis=-1), vol.max(axis=-1)]
    for x in (prim.dispersion_upper, prim.dispersion_lower):
        cols += [win(x).mean(axis=-1), win(x).std(axis=-1)]

    path = win(prim.step_len[:, pelvis_idx], w - 1).sum(axis=-1)
    net = _vector_norms(pos[starts + w - 1, pelvis_idx] - pos[starts, pelvis_idx])
    cols += [path, net, np.where(path < 1e-12, 0.0, path / np.maximum(net, cfg.epsilon_net))]
    curv = win(prim.pelvis_curvature)
    cols += [curv.mean(axis=-1), curv.max(axis=-1)]

    travel_idx = [skel.index(r) for r in EFFORT_ROLES]
    cols.append(win(prim.step_len[:, travel_idx], w - 1).sum(axis=-1))

    h = win(height_above_floor(pos[:, pelvis_idx, :], plane))
    cols += [h.mean(axis=-1), h.min(axis=-1), h.max(axis=-1)]

    n = len(starts)
    return FeatureTable(np.column_stack(cols), (seq.label,) * n, (seq.group_id,) * n, starts)


CSV_EXTRA_COLUMNS = ("label", "group_id", "window_start")
_CSV_HEADER = ",".join(FEATURE_NAMES + CSV_EXTRA_COLUMNS)


# one line of features.csv: the 55 values, then the label, group id and start
_CSV_ROW = ",".join(["%.9g"] * len(FEATURE_NAMES) + ["%s", "%s", "%d"]) + "\n"


def write_features_csv(table, path):
    """Feature CSV: the 55 canonical names + label/group_id/window_start.

    Each row is one `%` of _CSV_ROW; each distinct label and group id is
    quoted once, as the csv module quotes it."""
    texts = [label or "" for label in table.labels]
    cells = {text: csv_cell(text) for text in {*texts, *table.groups}}
    rows = zip(table.X.tolist(), texts, table.groups, table.starts.tolist())
    with open_output(path) as fh:
        fh.write(_CSV_HEADER + "\n")
        fh.writelines(_CSV_ROW % (*x, cells[label], cells[group], start) for x, label, group, start in rows)


# Characters that send a text to the csv module alone: the quote; the
# separators \x1c-\x1f, which np.loadtxt strips around a number and float()
# does not; and NUL, which the csv module of Python 3.10 refuses.
_CSV_ONLY = '"\x00\x1c\x1d\x1e\x1f'
_STARTS = range(-(1 << 63), 1 << 63)  # a window start is an int64


def read_features_csv(path):
    """Load a feature CSV back into a FeatureTable.

    A text without quotes has one row per line, its cells between the
    commas: `_read_plain` parses all its numbers in one `np.loadtxt` call.
    Any other text, and any that `_read_plain` cannot parse or whose window
    starts overflow an int64, goes through `_read_quoted`, the csv module's
    reader, which also names the line of an error.  Both give the same table
    from the same text."""
    text = read_text(path)
    columns = None if any(c in text for c in _CSV_ONLY) else _read_plain(text)
    columns = columns or _read_quoted(text, path)
    try:
        return FeatureTable(*columns)
    except LmaError as e:
        raise SchemaError(f"{path}: {e}") from e


def _read_plain(text):
    """(X, labels, groups, starts) of a feature CSV text with no quote, or
    None unless it has the canonical header and every other non-empty line
    is 58 cells: 55 numbers that `np.loadtxt` reads, two texts and an int."""
    header, *lines = text.split("\n")
    lines = [line for line in lines if line]
    if header != _CSV_HEADER or max(map(len, lines), default=0) > csv.field_size_limit():
        return None  # the csv module refuses a cell over its size limit
    if not lines:  # np.loadtxt warns on no data
        return np.empty((0, len(FEATURE_NAMES))), (), (), ()
    # 57 commas a line on average, so np.loadtxt never gets only empty heads
    # (on which it warns)
    if text.count(",") != 57 * (1 + len(lines)):
        return None
    try:
        heads, labels, groups, starts = zip(*(line.rsplit(",", 3) for line in lines))
        X = np.loadtxt(heads, delimiter=",", comments=None, ndmin=2)
        starts = [int(s) for s in starts]
    except ValueError:  # a cell that only float() or nothing reads, or a short row
        return None
    if not (min(starts) in _STARTS and max(starts) in _STARTS):
        return None
    # n rows of 55 numbers and the comma count make 58 cells on every line
    # (np.loadtxt skips an empty head, so the row count is checked too)
    if X.shape != (len(lines), len(FEATURE_NAMES)):
        return None
    return X, [label or None for label in labels], groups, starts


def _read_quoted(text, path):
    """(X, labels, groups, starts) of any feature CSV text, read by the csv
    module; a malformed row raises SchemaError naming `path` and its line."""
    # lines with their '\n' ends, as a text file yields them: csv needs the
    # ends inside quoted cells (io.StringIO would hold 4 bytes per character)
    reader = csv.reader(re.findall(r"[^\n]*\n|[^\n]+", text))
    expected = list(FEATURE_NAMES) + list(CSV_EXTRA_COLUMNS)
    X, labels, groups, starts = [], [], [], []
    try:
        if next(reader, None) != expected:
            raise SchemaError(f"feature CSV header does not match the canonical layout: {path}")
        for row in reader:
            if not row:
                continue
            if len(row) != 58:
                raise SchemaError(
                    f"{path}:{reader.line_num}: feature CSV row has {len(row)} columns, expected 58"
                )
            try:
                X.append([float(v) for v in row[:55]])
                starts.append(int(row[57]))
            except ValueError as e:
                raise SchemaError(f"{path}:{reader.line_num}: non-numeric feature CSV cell: {e}") from e
            if starts[-1] not in _STARTS:
                raise SchemaError(
                    f"{path}:{reader.line_num}: window_start {row[57]} is outside the int64 range"
                )
            labels.append(row[55] or None)
            groups.append(row[56])
    except csv.Error as e:  # such as a cell over the csv module's field size limit
        raise SchemaError(f"{path}:{reader.line_num}: malformed feature CSV: {e}") from e
    return np.reshape(X, (-1, len(FEATURE_NAMES))), labels, groups, starts
