"""Output checks computed apart from the program.

Nothing here calls lmakit: CSVs and `model.json` are parsed with the
standard library, gaps are repaired with the benchmark's own linear
interpolation, hull volumes come from enumerating all facet triples, and
predictions come from walking `model.json`.  Each check raises `CheckError`
carrying its name, so the self-test can show that each one fires.
"""

import csv
import json
import math
from itertools import combinations, product
from pathlib import Path

import numpy as np

MACRO_F1_FLOOR = 0.5
SLOT_SAMPLES = 24
HEIGHT_TOL = 0.01  # meters; fitted floor against the noiseless line
REL_TOL = 2e-8  # CSVs carry 9 significant digits
N_FEATURES = 55

DISTANCE_PAIRS = {
    "dist_hand_hand": ("left_hand", "right_hand"),
    "dist_lhand_pelvis": ("left_hand", "pelvis"),
    "dist_rhand_pelvis": ("right_hand", "pelvis"),
    "dist_ankle_ankle": ("left_ankle", "right_ankle"),
    "dist_knee_knee": ("left_knee", "right_knee"),
    "dist_lshoulder_lhand": ("left_shoulder", "left_hand"),
    "dist_rshoulder_rhand": ("right_shoulder", "right_hand"),
    "dist_head_pelvis": ("head", "pelvis"),
}
TRAVEL_JOINTS = ("head", "left_hand", "right_hand", "left_foot", "right_foot")
_TRIPLES = np.array(list(combinations(range(13), 3)))  # 286 facet candidates


class CheckError(Exception):
    def __init__(self, name, message):
        super().__init__(f"{name}: {message}")
        self.name = name


def _require(ok, name, message):
    if not ok:
        raise CheckError(name, message)


def _close(a, b, rel=REL_TOL, abs_=1e-9):
    return np.abs(np.asarray(a) - np.asarray(b)) <= abs_ + rel * np.abs(np.asarray(b))


# ---------------------------------------------------------------- parsing

def read_features(path):
    """(feature names, X, labels, groups, window starts) from a feature CSV."""
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    header = rows[0]
    body = [r for r in rows[1:] if r]
    X = np.array([[float(v) for v in r[:N_FEATURES]] for r in body]).reshape(len(body), N_FEATURES)
    return (tuple(header[:N_FEATURES]), X, [r[N_FEATURES] for r in body],
            [r[N_FEATURES + 1] for r in body], [int(r[N_FEATURES + 2]) for r in body])


def tree_nodes(tree):
    """Every node of a model.json tree, parents before children."""
    stack, out = [tree], []
    while stack:
        node = stack.pop()
        out.append(node)
        if "feature" in node:
            stack.extend((node["right"], node["left"]))
    return out


def forest_proba(model, X):
    """Mean leaf class frequency over trees, routing all rows at once."""
    n_classes = len(model["class_names"])
    out = np.zeros((len(X), n_classes))
    for tree in model["trees"]:
        stack = [(tree, np.arange(len(X)))]
        while stack:
            node, idx = stack.pop()
            if len(idx) == 0:
                continue
            if "feature" not in node:
                counts = np.asarray(node["counts"], dtype=float)
                out[idx] += counts / counts.sum()
                continue
            go_left = X[idx, node["feature"]] <= node["threshold"]
            stack.append((node["left"], idx[go_left]))
            stack.append((node["right"], idx[~go_left]))
    return out / len(model["trees"])


# ---------------------------------------------------------------- extract

def repair(positions):
    """Linear interpolation over each joint's NaN frames (interior gaps only)."""
    pos = positions.copy()
    t = np.arange(len(pos))
    for j in range(pos.shape[1]):
        bad = np.isnan(pos[:, j, :]).any(axis=1)
        for c in range(3):
            pos[bad, j, c] = np.interp(t[bad], t[~bad], pos[~bad, j, c])
    return pos


def hull_volumes(frames):
    """Convex-hull volume of each (13, 3) frame from its supporting facet triples.

    Valid for points in general position, which the corpus noise provides.
    """
    a, b, c = (frames[:, _TRIPLES[:, k]] for k in range(3))
    normal = np.cross(b - a, c - a)  # (F, 286, 3)
    side = np.einsum("ftc,fpc->ftp", normal, frames) - np.einsum("ftc,ftc->ft", normal, a)[..., None]
    scale = np.ptp(frames, axis=1).max(axis=1)[:, None, None]
    tol = 1e-9 * np.linalg.norm(normal, axis=2)[..., None] * scale
    supporting = (side <= tol).all(axis=2) | (side >= -tol).all(axis=2)
    centroid = frames.mean(axis=1)[:, None, :]
    tetra = np.abs(np.einsum("ftc,ftc->ft", normal, centroid - a)) / 6.0
    return np.where(supporting, tetra, 0.0).sum(axis=1)


def check_extract(out_dir, corpus, w, stride, rng):
    names, X, labels, groups, starts = read_features(Path(out_dir) / "features.csv")
    col = {n: i for i, n in enumerate(names)}
    expected = [(s, seq.label, seq.group_id, k)
                for k, seq in enumerate(corpus.sequences)
                for s in range(0, seq.n_frames - w + 1, stride)]
    _require(len(X) == len(expected), "extract.rows", f"{len(X)} rows, expected {len(expected)}")
    _require([(s, l, g) for s, l, g, _ in expected] == list(zip(starts, labels, groups)),
             "extract.rows", "window_start/label/group_id sequence differs")
    _require(bool(np.isfinite(X).all()), "extract.finite", "non-finite feature value")

    repaired = {}
    for i in np.sort(rng.choice(len(X), size=min(SLOT_SAMPLES, len(X)), replace=False)):
        s, _, _, k = expected[i]
        seq = corpus.sequences[k]
        if k not in repaired:
            repaired[k] = repair(seq.positions)
        pos = repaired[k][s:s + w]
        jx = {n: j for j, n in enumerate(seq.joints)}
        steps = np.linalg.norm(np.diff(pos, axis=0), axis=2)
        want = {n: np.linalg.norm(pos[:, jx[p]] - pos[:, jx[q]], axis=1).mean()
                for n, (p, q) in DISTANCE_PAIRS.items()}
        want.update({f"travel_{n}": steps[:, jx[n]].sum() for n in TRAVEL_JOINTS})
        pelvis = pos[:, jx["pelvis"]]
        want["pelvis_path_length"] = steps[:, jx["pelvis"]].sum()
        want["pelvis_net_displacement"] = np.linalg.norm(pelvis[-1] - pelvis[0])
        for n, v in want.items():
            _require(bool(_close(X[i, col[n]], v)), "extract.slots",
                     f"row {i} {n}: {X[i, col[n]]:.9g} != {v:.9g}")

        heights = pelvis[:, 1] - (corpus.slope * pelvis[:, 2] + corpus.intercept)
        for n, v in (("mean", heights.mean()), ("min", heights.min()), ("max", heights.max())):
            got = X[i, col[f"pelvis_height_{n}"]]
            _require(abs(got - v) <= HEIGHT_TOL, "extract.heights",
                     f"row {i} pelvis_height_{n}: {got:.9g} vs {v:.9g} over the generating floor")

        vol = hull_volumes(pos)
        for n, v in (("mean", vol.mean()), ("std", vol.std()), ("min", vol.min()), ("max", vol.max())):
            _require(bool(_close(X[i, col[f"volume_{n}"]], v, rel=1e-6, abs_=1e-9)), "extract.volume",
                     f"row {i} volume_{n}: {X[i, col[f'volume_{n}']]:.9g} != {v:.9g}")
    return len(X)


# ---------------------------------------------------------------- train

def _depth_key(depth):
    return math.inf if depth is None else depth


def check_train(out_dir, features_csv, grid, k, reference_bytes=None):
    out_dir = Path(out_dir)
    names, X, labels, _, _ = read_features(features_csv)

    with open(out_dir / "cv_report.csv", encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))[1:]
    report = []
    for r in rows:
        folds = [float(a) for a in r[4].split(";")]
        depth = None if r[1] == "" else int(r[1])  # csv writes None as an empty cell
        report.append(((int(r[0]), depth, int(r[2])), float(r[3]), folds))
    lattice = set(product(grid["n_trees"], grid["max_depth"], grid["min_samples_leaf"]))
    _require(len(report) == len(lattice) and {p for p, _, _ in report} == lattice,
             "train.cv_report", f"rows {[p for p, _, _ in report]} do not cover the lattice")
    for p, mean, folds in report:
        _require(len(folds) == k and all(0.0 <= a <= 1.0 for a in folds), "train.cv_report",
                 f"{p}: fold accuracies {folds}")
        _require(abs(mean - float(np.mean(folds))) <= 1e-8, "train.cv_report", f"{p}: mean {mean}")

    raw = (out_dir / "model.json").read_bytes()
    model = json.loads(raw)
    params = model["params"]
    chosen = (params["n_trees"], params["max_depth"], params["min_samples_leaf"])
    best = max(report, key=lambda r: (r[1], -r[0][0], -_depth_key(r[0][1])))[0]
    _require(chosen == best, "train.tie_break", f"model has {chosen}, tie-break picks {best}")

    classes = sorted(set(labels))
    _require(model["class_names"] == classes and tuple(model["feature_names"]) == names
             and len(model["trees"]) == params["n_trees"], "train.model_walk",
             "class names, feature names or tree count differ from the input")
    for t, tree in enumerate(model["trees"]):
        _require(tree["cover"] == len(X), "train.model_walk", f"tree {t}: root cover {tree['cover']}")
        for node in tree_nodes(tree):
            if "feature" in node:
                ok = (isinstance(node["feature"], int) and 0 <= node["feature"] < N_FEATURES
                      and math.isfinite(node["threshold"])
                      and node["left"]["cover"] + node["right"]["cover"] == node["cover"])
            else:
                counts = node["counts"]
                ok = (len(counts) == len(classes) and min(counts) >= 0
                      and sum(counts) == node["cover"] >= params["min_samples_leaf"])
            _require(ok, "train.model_walk", f"tree {t}: inconsistent node {str(node)[:120]}")

    with open(out_dir / "metrics.csv", encoding="utf-8", newline="") as fh:
        macro = [r for r in csv.reader(fh) if r and r[0] == "macro"]
    _require(len(macro) == 1 and float(macro[0][3]) >= MACRO_F1_FLOOR, "train.macro_f1",
             f"macro F1 row {macro} below {MACRO_F1_FLOOR}")

    _require(reference_bytes is None or raw == reference_bytes, "train.deterministic",
             "model.json differs from an earlier run at the same seed")
    return raw


# ---------------------------------------------------------------- eval / explain

def check_eval(out_dir, model_path, features_csv):
    model = json.loads(Path(model_path).read_text(encoding="utf-8"))
    _, X, labels, _, _ = read_features(features_csv)
    classes = model["class_names"]
    y_true = np.array([classes.index(l) for l in labels])
    y_pred = np.argmax(forest_proba(model, X), axis=1)

    with open(Path(out_dir) / "metrics.csv", encoding="utf-8", newline="") as fh:
        rows = {r[0]: r for r in list(csv.reader(fh))[1:] if r}
    _require(set(rows) == set(classes) | {"macro"}, "eval.metrics", f"rows {sorted(rows)}")
    per_class = []
    for c, name in enumerate(classes):
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1 = 2 * prec * rec / (prec + rec) if prec + rec else 0.0
        per_class.append((prec, rec, f1))
        r = rows[name]
        _require(all(abs(float(r[i + 1]) - v) <= 1e-8 for i, v in enumerate((prec, rec, f1)))
                 and int(r[4]) == int(np.sum(y_true == c)), "eval.metrics",
                 f"{name}: {r[1:5]} vs precision/recall/f1 {prec, rec, f1}")
    macro = np.mean(per_class, axis=0)
    _require(all(abs(float(rows["macro"][i + 1]) - macro[i]) <= 1e-8 for i in range(3)),
             "eval.metrics", f"macro {rows['macro'][1:4]} vs {macro.tolist()}")
    return len(X)


def check_explain(out_dir, model_path, features_csv):
    model = json.loads(Path(model_path).read_text(encoding="utf-8"))
    names, X, _, _, _ = read_features(features_csv)
    classes = model["class_names"]
    n, n_c = len(X), len(classes)
    phi = np.zeros((n, n_c, N_FEATURES))
    base = np.zeros((n, n_c))
    expected = ((i, c, f) for i in range(n) for c in range(n_c) for f in range(N_FEATURES))
    with open(Path(out_dir) / "explanations.csv", encoding="utf-8", newline="") as fh:
        reader = csv.reader(fh)
        _require(next(reader) == ["instance", "class", "feature", "phi", "base"],
                 "explain.shape", "explanations.csv header")
        count = 0
        for row, (i, c, f) in zip(reader, expected):
            _require(row[:3] == [str(i), classes[c], names[f]], "explain.shape",
                     f"line {count + 2}: {row[:3]} where ({i}, {classes[c]}, {names[f]}) belongs")
            phi[i, c, f] = float(row[3])
            base[i, c] = float(row[4])
            count += 1
        _require(count == phi.size and next(reader, None) is None, "explain.shape",
                 f"{count} attribution lines, expected {phi.size}")

    proba = forest_proba(model, X)
    tol = 1e-8 * (1.0 + np.abs(phi).sum(axis=2))
    gap = np.abs(base + phi.sum(axis=2) - proba)
    _require(bool((gap <= tol).all()), "explain.local_accuracy",
             f"base + sum(phi) misses predict_proba by up to {gap.max():.3g}")

    used = {node["feature"] for tree in model["trees"] for node in tree_nodes(tree) if "feature" in node}
    unused = [f for f in range(N_FEATURES) if f not in used]
    _require(not np.any(phi[:, :, unused]), "explain.unused_zero",
             "non-zero attribution on a feature no tree splits on")
    return n
