"""Random forest classifier built from scratch (CART, Gini impurity),
plus grouped stratified k-fold CV, grid search and per-class metrics.

Trees store per-node training sample counts ("cover") so that attribution
code can weight conditional expectations without revisiting the data.
"""

import json
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field, replace
from itertools import product

import numpy as np

from .errors import LmaError, SchemaError

MODEL_FORMAT_VERSION = 1


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    y: np.ndarray  # integer class codes into class_names
    groups: tuple
    feature_names: tuple
    class_names: tuple

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=int)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "groups", tuple(self.groups))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        n = X.shape[0]
        if y.shape != (n,) or len(self.groups) != n:
            raise LmaError("X, y and groups must agree on N")
        if X.shape[1] != len(self.feature_names):
            raise LmaError("feature_names length must match X columns")
        if not np.all(np.isfinite(X)):
            raise LmaError("dataset contains non-finite features")
        if n and (y.min() < 0 or y.max() >= len(self.class_names)):
            raise LmaError("label code outside class_names")

    @staticmethod
    def from_labels(X, labels, groups, feature_names):
        class_names = tuple(sorted(set(labels)))
        code = {c: i for i, c in enumerate(class_names)}
        y = np.array([code[l] for l in labels], dtype=int)
        return Dataset(X, y, tuple(groups), tuple(feature_names), class_names)


@dataclass(frozen=True)
class ForestParams:
    n_trees: int = 100
    max_depth: int | None = None
    min_samples_leaf: int = 1
    features_per_split: int = 8
    bootstrap: bool = True
    seed: int = 0

    def __post_init__(self):
        if self.n_trees < 1:
            raise LmaError("n_trees must be >= 1")
        if self.max_depth is not None and self.max_depth < 1:
            raise LmaError("max_depth must be >= 1 or None")
        if self.min_samples_leaf < 1:
            raise LmaError("min_samples_leaf must be >= 1")
        if self.features_per_split < 1:
            raise LmaError("features_per_split must be >= 1")


def _gini_candidates(values, codes, n_classes, min_leaf):
    """Best (gini, threshold) for one feature at this node, or None.

    Thresholds are midpoints between consecutive distinct sorted values;
    ties in gini resolve to the lowest threshold.
    """
    order = np.argsort(values, kind="stable")
    v = values[order]
    c = codes[order]
    n = len(v)
    onehot = np.zeros((n, n_classes))
    onehot[np.arange(n), c] = 1.0
    left = np.cumsum(onehot, axis=0)  # left[k-1] = counts of first k samples
    total = left[-1]
    ks = np.arange(1, n)  # split size of the left side
    # splits allowed only between distinct values and obeying the leaf minimum
    valid = v[1:] > v[:-1]
    valid &= (ks >= min_leaf) & (n - ks >= min_leaf)
    if not valid.any():
        return None
    lc = left[:-1]
    rc = total[None, :] - lc
    nl = ks.astype(float)
    nr = (n - ks).astype(float)
    gini_l = 1.0 - np.sum(lc * lc, axis=1) / (nl * nl)
    gini_r = 1.0 - np.sum(rc * rc, axis=1) / (nr * nr)
    weighted = (nl * gini_l + nr * gini_r) / n
    weighted = np.where(valid, weighted, np.inf)
    k = int(np.argmin(weighted))  # argmin returns the first (lowest threshold)
    thr = 0.5 * (v[k] + v[k + 1])
    return float(weighted[k]), float(thr)


def _grow_tree(X, codes, n_classes, params, rng):
    n_features = X.shape[1]
    mtry = min(params.features_per_split, n_features)

    def leaf(idx):
        counts = np.bincount(codes[idx], minlength=n_classes)
        return {"counts": counts.tolist(), "cover": int(len(idx))}

    def build(idx, depth):
        node_codes = codes[idx]
        if (
            len(idx) < 2 * params.min_samples_leaf
            or len(np.unique(node_codes)) == 1
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            return leaf(idx)
        feats = np.sort(rng.choice(n_features, size=mtry, replace=False))
        best = None
        for f in feats:
            cand = _gini_candidates(X[idx, f], node_codes, n_classes, params.min_samples_leaf)
            if cand is None:
                continue
            gini, thr = cand
            if best is None or gini < best[0] - 1e-15:
                best = (gini, int(f), thr)
        if best is None:
            return leaf(idx)
        _, f, thr = best
        mask = X[idx, f] <= thr
        left = build(idx[mask], depth + 1)
        right = build(idx[~mask], depth + 1)
        return {
            "feature": f,
            "threshold": thr,
            "cover": int(len(idx)),
            "left": left,
            "right": right,
        }

    n = X.shape[0]
    if params.bootstrap:
        idx = np.sort(rng.integers(0, n, size=n))
    else:
        idx = np.arange(n)
    return build(idx, 0)


@dataclass(frozen=True)
class ForestModel:
    trees: tuple
    params: ForestParams
    feature_names: tuple
    class_names: tuple
    format_version: int = MODEL_FORMAT_VERSION

    @property
    def n_classes(self):
        return len(self.class_names)

    @property
    def n_features(self):
        return len(self.feature_names)

    def used_features(self):
        """Sorted distinct feature indices appearing in any split."""
        used = set()

        def walk(node):
            if "feature" in node:
                used.add(node["feature"])
                walk(node["left"])
                walk(node["right"])

        for t in self.trees:
            walk(t)
        return sorted(used)

    def to_json(self):
        payload = {
            "format_version": self.format_version,
            "params": {
                "n_trees": self.params.n_trees,
                "max_depth": self.params.max_depth,
                "min_samples_leaf": self.params.min_samples_leaf,
                "features_per_split": self.params.features_per_split,
                "bootstrap": self.params.bootstrap,
                "seed": self.params.seed,
            },
            "class_names": list(self.class_names),
            "feature_names": list(self.feature_names),
            "trees": list(self.trees),
        }
        return json.dumps(payload, sort_keys=True, separators=(",", ":"))

    def save(self, path):
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(self.to_json() + "\n")

    @staticmethod
    def load(path):
        with open(path, encoding="utf-8") as fh:
            payload = json.load(fh)
        if payload.get("format_version") != MODEL_FORMAT_VERSION:
            raise SchemaError(
                f"unknown model format_version {payload.get('format_version')!r}"
            )
        p = payload["params"]
        return ForestModel(
            trees=tuple(payload["trees"]),
            params=ForestParams(**p),
            feature_names=tuple(payload["feature_names"]),
            class_names=tuple(payload["class_names"]),
        )


def _tree_rng(seed, tree_index):
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, tree_index]))


def train(data, params, n_threads=1):
    """Fit a forest; deterministic given params.seed regardless of threads."""
    X, y = data.X, data.y
    if X.shape[0] < 2:
        raise LmaError("need at least 2 training samples")
    n_classes = len(data.class_names)

    def fit_one(i):
        return _grow_tree(X, y, n_classes, params, _tree_rng(params.seed, i))

    if n_threads > 1:
        with ThreadPoolExecutor(max_workers=n_threads) as pool:
            trees = tuple(pool.map(fit_one, range(params.n_trees)))
    else:
        trees = tuple(fit_one(i) for i in range(params.n_trees))
    return ForestModel(
        trees=trees,
        params=params,
        feature_names=data.feature_names,
        class_names=data.class_names,
    )


def _leaf_distribution(node):
    counts = np.asarray(node["counts"], dtype=float)
    total = counts.sum()
    return counts / total if total > 0 else counts


def _tree_proba(node, x):
    while "feature" in node:
        node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
    return _leaf_distribution(node)


def predict_proba(model, X):
    """Mean of per-tree leaf class frequencies; rows sum to 1."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.n_features:
        raise LmaError(f"expected {model.n_features} features, got {X.shape[1]}")
    if not np.all(np.isfinite(X)):
        raise LmaError("non-finite input to predict_proba")
    out = np.zeros((X.shape[0], model.n_classes))
    for tree in model.trees:
        for i, x in enumerate(X):
            out[i] += _tree_proba(tree, x)
    return out / len(model.trees)


def predict(model, X):
    """Argmax class codes; ties resolve to the lowest class index."""
    return np.argmax(predict_proba(model, X), axis=1)


def stratified_group_kfold(y, groups, k=3, seed=0):
    """Partition groups into k folds balancing class proportions.

    No group straddles folds.  Each group is characterised by its majority
    class; greedy assignment fills the fold currently poorest in that class.
    """
    y = np.asarray(y, dtype=int)
    groups = np.asarray(groups, dtype=object)
    uniq = sorted(set(groups.tolist()))
    n_classes = int(y.max()) + 1 if len(y) else 0
    group_class = {}
    group_size = {}
    for g in uniq:
        mask = groups == g
        counts = np.bincount(y[mask], minlength=n_classes)
        group_class[g] = int(np.argmax(counts))
        group_size[g] = int(mask.sum())
    per_class_groups = np.bincount([group_class[g] for g in uniq], minlength=n_classes)
    for c, cnt in enumerate(per_class_groups):
        if 0 < np.sum(y == c) and cnt < k:
            raise LmaError(f"class {c} present in only {cnt} groups, need >= {k}")

    rng = np.random.default_rng(seed)
    shuffled_pos = {uniq[i]: p for p, i in enumerate(rng.permutation(len(uniq)))}
    ordered = sorted(uniq, key=lambda g: (-group_size[g], shuffled_pos[g]))
    fold_class_counts = np.zeros((k, n_classes))
    fold_sizes = np.zeros(k)
    fold_of_group = {}
    for g in ordered:
        c = group_class[g]
        best = min(
            range(k),
            key=lambda f: (fold_class_counts[f, c], fold_sizes[f], f),
        )
        fold_of_group[g] = best
        fold_class_counts[best, c] += group_size[g]
        fold_sizes[best] += group_size[g]

    folds = []
    fold_idx = np.array([fold_of_group[g] for g in groups])
    for f in range(k):
        test = np.flatnonzero(fold_idx == f)
        trainset = np.flatnonzero(fold_idx != f)
        folds.append((trainset, test))
    return folds


def cross_val_accuracy(data, params, k=3, seed=0, n_threads=1):
    """Per-fold validation accuracies under grouped stratified CV."""
    folds = stratified_group_kfold(data.y, data.groups, k=k, seed=seed)
    accs = []
    for train_idx, test_idx in folds:
        sub = Dataset(
            data.X[train_idx],
            data.y[train_idx],
            tuple(data.groups[i] for i in train_idx),
            data.feature_names,
            data.class_names,
        )
        model = train(sub, params, n_threads=n_threads)
        pred = predict(model, data.X[test_idx])
        accs.append(float(np.mean(pred == data.y[test_idx])))
    return accs


def expand_grid(grid):
    """Dict of lists -> deterministic list of ForestParams lattice points."""
    keys = sorted(grid)
    points = []
    for combo in product(*(grid[k] for k in keys)):
        points.append(ForestParams(**dict(zip(keys, combo))))
    return points


def grid_search(data, grid, k=3, seed=0, n_threads=1):
    """Evaluate every lattice point; ties prefer fewer trees, then shallower."""
    if isinstance(grid, dict):
        grid = expand_grid(grid)
    if not grid:
        raise LmaError("empty parameter grid")
    report = []
    for params in grid:
        params = replace(params, seed=seed)
        accs = cross_val_accuracy(data, params, k=k, seed=seed, n_threads=n_threads)
        report.append(
            {
                "params": params,
                "fold_accuracies": accs,
                "mean_accuracy": float(np.mean(accs)),
            }
        )

    def depth_key(p):
        return np.inf if p.max_depth is None else p.max_depth

    best = max(
        report,
        key=lambda r: (
            r["mean_accuracy"],
            -r["params"].n_trees,
            -depth_key(r["params"]),
        ),
    )
    return best["params"], report


def metrics(y_true, y_pred, class_names):
    """Per-class precision/recall/F1 (+ zero-division flags) and macro means."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape:
        raise LmaError("y_true and y_pred must have equal length")
    per_class = {}
    precs, recs, f1s = [], [], []
    for c, name in enumerate(class_names):
        tp = int(np.sum((y_pred == c) & (y_true == c)))
        fp = int(np.sum((y_pred == c) & (y_true != c)))
        fn = int(np.sum((y_pred != c) & (y_true == c)))
        p_flag = (tp + fp) == 0
        r_flag = (tp + fn) == 0
        prec = 0.0 if p_flag else tp / (tp + fp)
        rec = 0.0 if r_flag else tp / (tp + fn)
        f_flag = (prec + rec) == 0
        f1 = 0.0 if f_flag else 2 * prec * rec / (prec + rec)
        per_class[name] = {
            "precision": prec,
            "recall": rec,
            "f1": f1,
            "support": int(np.sum(y_true == c)),
            "zero_division": p_flag or r_flag or f_flag,
        }
        precs.append(prec)
        recs.append(rec)
        f1s.append(f1)
    macro = {
        "precision": float(np.mean(precs)),
        "recall": float(np.mean(recs)),
        "f1": float(np.mean(f1s)),
    }
    return {"per_class": per_class, "macro": macro}
