"""References for the forest: the one-hot, one-feature-at-a-time split
search and tree grower that the batched count-rank search replaced; the
nested-dict walk that `predict_proba` replaced; the scalar
path-dependent TreeSHAP recursion (Lundberg et al. 2020, Algorithm 2) that
the row-batched `tree_shap` replaced (the last two read the model's
nested-dict trees, one row at a time); the row-batched TreeSHAP pass over
every (row, leaf) cell that the pass over distinct (leaf, followed splits)
cells replaced; the checked per-node flattening that `FlatForest.from_trees`
(one walk, then whole-list checks) replaced; and the per-group and per-class
loops that the whole-array fold assignment, group vote and metrics replaced.

The references that walk trees read the nested dicts of the saved model
(`saved_trees`), and hand-built trees become models through the load path
(`load_trees`)."""

import csv
import json
import math
from dataclasses import asdict
from types import SimpleNamespace

import numpy as np

from lmakit.errors import LmaError, SchemaError
from lmakit.forest import ForestParams, _is_int, _is_real, _model_from_payload


def saved_trees(model):
    """The nested-dict trees that `model.json` holds for `model`."""
    return json.loads(model.to_json())["trees"]


def load_trees(trees, feature_names, class_names):
    """The model of nested-dict `trees`, read as `ForestModel.load` reads a file."""
    return _model_from_payload({
        "format_version": 1,
        "params": asdict(ForestParams(n_trees=len(trees))),
        "feature_names": list(feature_names),
        "class_names": list(class_names),
        "trees": list(trees),
    })


def gini_candidates(values, codes, n_classes, min_leaf):
    """Best (gini, threshold) for one feature at this node, or None.

    Thresholds are midpoints between consecutive distinct sorted values (the
    lower one where the midpoint rounds onto the upper, so both sides keep
    their samples); ties in gini resolve to the lowest threshold.
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
    if thr >= v[k + 1]:
        thr = v[k]
    return float(weighted[k]), float(thr)


def best_split(X, idx, feats, codes, n_classes, min_leaf):
    """Best (gini, feature, threshold) over `feats` in order, or None: a later
    feature wins only if its gini is more than 1e-15 lower."""
    best = None
    for f in feats:
        cand = gini_candidates(X[idx, f], codes[idx], n_classes, min_leaf)
        if cand is None:
            continue
        gini, thr = cand
        if best is None or gini < best[0] - 1e-15:
            best = (gini, int(f), thr)
    return best


def grow_tree(X, codes, n_classes, params, rng):
    """One nested-dict tree, drawing from `rng` as `lmakit.forest._grow_tree` does."""
    n_features = X.shape[1]
    mtry = min(params.features_per_split, n_features)

    def leaf(idx):
        counts = np.bincount(codes[idx], minlength=n_classes)
        return {"counts": counts.tolist(), "cover": int(len(idx))}

    def build(idx, depth):
        if (
            len(idx) < 2 * params.min_samples_leaf
            or len(np.unique(codes[idx])) == 1
            or (params.max_depth is not None and depth >= params.max_depth)
        ):
            return leaf(idx)
        feats = np.sort(rng.choice(n_features, size=mtry, replace=False))
        best = best_split(X, idx, feats, codes, n_classes, params.min_samples_leaf)
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


def leaf_distribution(node):
    counts = np.asarray(node["counts"], dtype=float)
    total = counts.sum()
    return counts / total if total > 0 else counts


def dict_predict_proba(model, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    trees = saved_trees(model)
    out = np.zeros((X.shape[0], model.n_classes))
    for tree in trees:
        for i, x in enumerate(X):
            node = tree
            while "feature" in node:
                node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
            out[i] += leaf_distribution(node)
    return out / len(trees)


def flat_from_trees(trees, n_features, n_classes):
    """`FlatForest.from_trees` as one checked walk: every check runs at its
    node as the walk reaches it, and the first that fails raises.  Returns
    the arrays, with the leaf values and the base computed here."""
    if not trees:
        raise SchemaError("model has no trees")
    feature, threshold, left, right, cover, counts, level = ([] for _ in range(7))
    roots, seen = [], set()
    no_counts = [0] * n_classes

    def malformed(message):
        return SchemaError(f"tree {t} node {i - roots[-1]}: {message}")

    for t, tree in enumerate(trees):
        roots.append(len(feature))
        stack = [(tree, None, 0)]  # node, (child list, parent index) to link, level
        while stack:
            node, link, depth = stack.pop()
            i = len(feature)
            if link is not None:
                link[0][link[1]] = i
            if not isinstance(node, dict):
                raise malformed(f"expected a node object, got {type(node).__name__}")
            if id(node) in seen:
                raise malformed("node object reached twice; children must form a tree")
            seen.add(id(node))
            c = node.get("cover")
            # a split's threshold can round onto its upper value and leave
            # an empty child, so a leaf may cover nothing
            if not _is_int(c) or c < (1 if "feature" in node else 0):
                raise malformed(f"cover must be a non-negative integer, positive at a "
                                f"split, got {c!r}")
            cover.append(c)
            level.append(depth)
            if "feature" in node:
                f, thr = node["feature"], node.get("threshold")
                if not _is_int(f) or not 0 <= f < n_features:
                    raise malformed(f"feature index {f!r} outside 0..{n_features - 1}")
                if not _is_real(thr) or not math.isfinite(thr):
                    raise malformed(f"threshold must be a finite number, got {thr!r}")
                feature.append(f)
                threshold.append(thr)
                left.append(-1)
                right.append(-1)
                counts.append(no_counts)
                stack.append((node.get("right"), (right, i), depth + 1))
                stack.append((node.get("left"), (left, i), depth + 1))
            else:
                k = node.get("counts")
                if not (isinstance(k, list) and len(k) == n_classes
                        and (set(map(type, k)) <= {int} or all(map(_is_int, k)))):
                    raise malformed(f"a leaf needs {n_classes} integer class counts, got {k!r}")
                feature.append(-1)
                threshold.append(math.inf)
                left.append(i)
                right.append(i)
                counts.append(k)

    feature, left, right = np.array(feature), np.array(left), np.array(right)
    cover, counts = np.array(cover, dtype=float), np.array(counts, dtype=float)
    level = np.array(level)
    roots = np.array(roots)
    split = feature >= 0
    negative = (counts < 0).any(axis=1)
    unbalanced = np.where(split, cover[left] + cover[right], counts.sum(axis=1)) != cover
    for i in np.flatnonzero(negative | unbalanced)[:1]:
        t = np.searchsorted(roots, i, side="right") - 1
        what = ("class counts are negative" if negative[i] else
                f"{'child covers' if split[i] else 'class counts'} do not add up to its cover")
        raise SchemaError(f"tree {t} node {i - roots[t]}: {what}")

    value = np.zeros_like(counts)
    covered = ~split & (cover > 0)
    value[covered] = counts[covered] / cover[covered, None]
    # Cover-weighted expected value of every subtree, deepest level first.
    expected = value.copy()
    for d in range(level.max() - 1, -1, -1):
        nodes = np.flatnonzero(split & (level == d))
        cl, cr = cover[left[nodes], None], cover[right[nodes], None]
        expected[nodes] = (cl * expected[left[nodes]] + cr * expected[right[nodes]]) / (cl + cr)
    return SimpleNamespace(
        feature=feature,
        threshold=np.array(threshold, dtype=float),
        left=left,
        right=right,
        cover=cover,
        counts=counts,
        value=value,
        roots=roots,
        depth=np.maximum.reduceat(level, roots),
        # sequential sum in tree order, then the mean
        base=np.cumsum(expected[roots], axis=0)[-1] / len(roots),
    )


def _tree_expected_value(node):
    if "feature" not in node:
        return leaf_distribution(node)
    cl = node["left"]["cover"]
    cr = node["right"]["cover"]
    total = cl + cr
    return (cl * _tree_expected_value(node["left"]) + cr * _tree_expected_value(node["right"])) / total


def _tree_shap_single(tree, x, n_features, n_classes):
    """Path-dependent recursion; phi has shape (n_features, n_classes)."""
    phi = np.zeros((n_features, n_classes))

    def extend(d, z, o, w, pd, pz, po):
        d = d + [pd]
        z = z + [pz]
        o = o + [po]
        w = w + [1.0 if not w else 0.0]
        l = len(w) - 1
        for i in range(l - 1, -1, -1):
            w[i + 1] += po * w[i] * (i + 1) / (l + 1)
            w[i] = pz * w[i] * (l - i) / (l + 1)
        return d, z, o, w

    def unwind(d, z, o, w, i):
        d, z, o, w = list(d), list(z), list(o), list(w)
        l = len(w) - 1
        n = w[l]
        for j in range(l - 1, -1, -1):
            if o[i] != 0.0:
                t = w[j]
                w[j] = n * (l + 1) / ((j + 1) * o[i])
                n = t - w[j] * z[i] * (l - j) / (l + 1)
            else:
                w[j] = w[j] * (l + 1) / (z[i] * (l - j))
        del d[i], z[i], o[i]
        w.pop()
        return d, z, o, w

    def unwound_sum(z, o, w, i):
        l = len(w) - 1
        total = 0.0
        n = w[l]
        for j in range(l - 1, -1, -1):
            if o[i] != 0.0:
                t = n * (l + 1) / ((j + 1) * o[i])
                total += t
                n = w[j] - t * z[i] * (l - j) / (l + 1)
            else:
                total += w[j] * (l + 1) / (z[i] * (l - j))
        return total

    def recurse(node, d, z, o, w, pz, po, pd):
        d, z, o, w = extend(d, z, o, w, pd, pz, po)
        if "feature" not in node:
            v = leaf_distribution(node)
            for i in range(1, len(d)):
                s = unwound_sum(z, o, w, i)
                phi[d[i]] += s * (o[i] - z[i]) * v
            return
        f = node["feature"]
        if x[f] <= node["threshold"]:
            hot, cold = node["left"], node["right"]
        else:
            hot, cold = node["right"], node["left"]
        iz = io = 1.0
        k = next((i for i in range(1, len(d)) if d[i] == f), None)
        if k is not None:
            iz, io = z[k], o[k]
            d, z, o, w = unwind(d, z, o, w, k)
        cover = node["cover"]
        recurse(hot, d, z, o, w, iz * hot["cover"] / cover, io, f)
        recurse(cold, d, z, o, w, iz * cold["cover"] / cover, 0.0, f)

    recurse(tree, [], [], [], [], 1.0, 1.0, -1)
    return phi


def per_row_tree_shap(model, x):
    """(phi (n_classes, n_features), base (n_classes,)) for one row."""
    x = np.asarray(x, dtype=float)
    phi = np.zeros((model.n_features, model.n_classes))
    base = np.zeros(model.n_classes)
    trees = saved_trees(model)
    for tree in trees:
        phi += _tree_shap_single(tree, x, model.n_features, model.n_classes)
        base += _tree_expected_value(tree)
    n = len(trees)
    return (phi / n).T, base / n


def row_batched_tree_phi(paths, flat, X):
    """One tree's attributions of every row of X, shape (rows, C, used
    features), computed for every (row, leaf) cell."""
    n, (n_leaves, depth), l = len(X), paths.splits.shape, paths.zero.shape[1] - 1
    follow = (X[:, flat.feature[paths.splits]] <= flat.threshold[paths.splits]) == paths.went_left
    o = np.ones((n, n_leaves, l + 1))
    leaf = np.arange(n_leaves)
    for col in range(depth):
        o[:, leaf, paths.element_of[:, col]] *= follow[:, :, col]

    w = np.ones((n, n_leaves, 1))
    for k in range(1, l + 1):
        i = np.arange(k)
        grown = np.zeros((n, n_leaves, k + 1))
        grown[..., :k] = paths.zero[:, k, None] * w * (k - i) / (k + 1)
        grown[..., 1:] += o[..., k, None] * w * (i + 1) / (k + 1)
        w = grown

    z, o = paths.zero[:, 1:], o[..., 1:]
    z_div = np.where(z > 0, z, 1.0)
    unwound = np.zeros(o.shape)
    carry = w[..., l:]
    for j in range(l - 1, -1, -1):
        t = carry * (l + 1) / (j + 1)
        unwound += np.where(o != 0.0, t, w[..., j:j + 1] * (l + 1) / (z_div * (l - j)))
        carry = w[..., j:j + 1] - t * z * (l - j) / (l + 1)
    scaled = np.zeros((n, n_leaves, len(paths.used) + 1))
    scaled[:, leaf[:, None], paths.slots[:, 1:]] = unwound * (o - z)
    return np.matmul(flat.value[paths.leaves].T, scaled)[..., :-1]


def row_batched_tree_shap(model, X, rows_per_pass=64):
    """phi (rows, C, F) from `row_batched_tree_phi`, one tree per pass and
    the trees added in order: `tree_shap` before runs of trees."""
    flat = model.flat
    X = np.atleast_2d(np.asarray(X, dtype=float))
    phi = np.zeros((len(X), model.n_classes, model.n_features))
    for t in range(len(flat.roots)):
        paths = flat.leaf_paths(t, t + 1)
        for start in range(0, len(X), rows_per_pass):
            block = slice(start, start + rows_per_pass)
            phi[block][..., paths.used] += row_batched_tree_phi(paths, flat, X[block])
    return phi / len(flat.roots)


def write_explanations_csv_per_row(explanations, path):
    """The explanation writer before batching: one ShapExplanation per row."""
    with open(path, "w", encoding="utf-8", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(["instance", "class", "feature", "phi", "base"])
        for n, e in enumerate(explanations):
            for c, cname in enumerate(e.class_names):
                for f, fname in enumerate(e.feature_names):
                    writer.writerow([n, cname, fname, f"{e.phi[c, f]:.9g}", f"{e.base[c]:.9g}"])


# Thresholds and row values share one coarse grid, so rows often sit exactly
# on a threshold and exercise the `<=` tie rule.
GRID = np.linspace(-1.0, 1.0, 5)


def random_tree(rng, n_features, n_classes, depth, cover):
    """A random nested-dict tree whose counts and covers add up."""
    if depth == 0 or cover < 2 or rng.random() < 0.2:
        p = rng.dirichlet(np.ones(n_classes))
        return {"counts": rng.multinomial(cover, p).tolist(), "cover": cover}
    left = int(rng.integers(1, cover))
    return {
        "feature": int(rng.integers(n_features)),
        "threshold": float(rng.choice(GRID)),
        "cover": cover,
        "left": random_tree(rng, n_features, n_classes, depth - 1, left),
        "right": random_tree(rng, n_features, n_classes, depth - 1, cover - left),
    }


def random_forest(seed, n_trees, n_features, n_classes, depth):
    """(model, rows): a loaded forest of random trees and rows on the threshold grid."""
    rng = np.random.default_rng(seed)
    trees = [random_tree(rng, n_features, n_classes, depth, int(rng.integers(1, 200)))
             for _ in range(n_trees)]
    model = load_trees(trees, [f"f{i}" for i in range(n_features)],
                       [f"c{i}" for i in range(n_classes)])
    return model, rng.choice(GRID, size=(7, n_features))


def stratified_group_kfold(y, groups, k=3, seed=0):
    """Folds built with one mask per group and a dict lookup per row."""
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


def vote_by_group(y_true, y_pred, groups):
    """Majority vote per group by a list scan of the rows for each group."""
    uniq = sorted(set(groups))
    gt, gp = [], []
    for g in uniq:
        idx = [i for i, gg in enumerate(groups) if gg == g]
        gt.append(int(np.bincount([y_true[i] for i in idx]).argmax()))
        gp.append(int(np.bincount([y_pred[i] for i in idx]).argmax()))
    return np.array(gt), np.array(gp)


def metrics(y_true, y_pred, class_names):
    """Per-class precision/recall/F1 from four masks per class."""
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
