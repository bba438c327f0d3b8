"""Seeded benchmark inputs: JSONL sequences with gaps and a tilted-floor cloud.

The motion comes from the program's ten built-in styles (`generate_corpus`).
The benchmark then stands every body on a tilted floor line
``y = slope * z + intercept``, blanks a few short interior runs of joint
frames (written as ``null``), and writes the files itself.  Everything the
output checks need -- raw positions with their gaps, labels, group ids and
the noiseless floor line -- is kept in the returned `Corpus`.
"""

import json
import math
from dataclasses import dataclass
from pathlib import Path

import numpy as np

FPS = 60.0
PER_STYLE = 3
GAPS_PER_SEQUENCE = 2
MAX_GAP = 4  # the program repairs runs of up to 6 frames
FLOOR_POINTS = 1500
BODY_POINTS = 500
FLOOR_NOISE = 0.002  # meters, Gaussian, both signs


@dataclass(frozen=True)
class Sequence:
    path: Path
    label: str
    group_id: str
    joints: tuple
    positions: np.ndarray  # (T, J, 3), NaN where the file holds null

    @property
    def n_frames(self):
        return self.positions.shape[0]


@dataclass(frozen=True)
class Corpus:
    sequences: tuple
    cloud: Path
    slope: float
    intercept: float

    @property
    def n_frames(self):
        return sum(s.n_frames for s in self.sequences)


def _write_sequence(path, seq, positions):
    skel = seq.skeleton
    header = {
        "format_version": 1,
        "fps": FPS,
        "units": "meters",
        "joints": list(skel.joint_names),
        "roles": {r: skel.joint_names[i] for r, i in skel.role_map.items()},
        "label": seq.label,
        "group_id": seq.group_id,
    }
    with open(path, "w", encoding="utf-8", newline="\n") as fh:
        fh.write(json.dumps(header) + "\n")
        for frame in positions.tolist():
            row = [[None if math.isnan(v) else v for v in joint] for joint in frame]
            fh.write(json.dumps(row) + "\n")


def make_corpus(directory, seed, frames):
    """Write 10 styles x PER_STYLE sequences of `frames` frames plus a cloud."""
    from lmakit.synth import default_styles, generate_corpus

    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(np.random.SeedSequence([seed, 0xBE7C]))
    slope = float(rng.uniform(0.03, 0.08))
    intercept = float(rng.uniform(-0.2, 0.2))

    synth = generate_corpus(default_styles(), per_style=PER_STYLE,
                            duration=frames / FPS, fps=FPS, master_seed=seed)
    sequences = []
    for seq in synth:
        pos = np.array(seq.positions)
        pos[:, :, 1] += slope * pos[:, :, 2] + intercept
        T, J, _ = pos.shape
        for j in rng.choice(J, size=GAPS_PER_SEQUENCE, replace=False):
            run = int(rng.integers(1, MAX_GAP + 1))
            start = int(rng.integers(1, T - run))  # never touches frame 0 or T-1
            pos[start:start + run, j, :] = np.nan
        path = directory / f"{seq.group_id}.jsonl"
        _write_sequence(path, seq, pos)
        sequences.append(Sequence(path, seq.label, seq.group_id,
                                  tuple(seq.skeleton.joint_names), pos))

    x = rng.uniform(-2.0, 2.0, FLOOR_POINTS)
    z = rng.uniform(-2.0, 2.0, FLOOR_POINTS)
    floor = np.column_stack([x, slope * z + intercept + rng.normal(0.0, FLOOR_NOISE, FLOOR_POINTS), z])
    body = np.concatenate([s.positions.reshape(-1, 3) for s in sequences])
    body = body[np.isfinite(body).all(axis=1)]
    body = body[rng.choice(len(body), size=BODY_POINTS, replace=False)]
    cloud = directory / "cloud.txt"
    with open(cloud, "w", encoding="utf-8", newline="\n") as fh:
        fh.write("# tilted floor with a body above it: x y z per line, meters\n")
        for p in np.concatenate([floor, body]).tolist():
            fh.write(f"{p[0]!r} {p[1]!r} {p[2]!r}\n")
    return Corpus(tuple(sequences), cloud, slope, intercept)


def subset_csv(src, dst, max_rows):
    """Copy the header and an evenly spaced selection of at most `max_rows` rows."""
    lines = Path(src).read_text(encoding="utf-8").splitlines(keepends=True)
    rows = lines[1:]
    step = max(1, math.ceil(len(rows) / max_rows))
    picked = rows[::step]
    Path(dst).write_text(lines[0] + "".join(picked), encoding="utf-8")
    return len(picked)
