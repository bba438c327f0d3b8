"""Per-row references for the flat-array forest: the nested-dict walk that
`predict_proba` replaced, and the scalar path-dependent TreeSHAP recursion
(Lundberg et al. 2020, Algorithm 2) that the row-batched `tree_shap`
replaced.  Both read the model's nested-dict trees, one row at a time."""

import csv

import numpy as np

from lmakit.forest import ForestModel, ForestParams


def leaf_distribution(node):
    counts = np.asarray(node["counts"], dtype=float)
    total = counts.sum()
    return counts / total if total > 0 else counts


def dict_predict_proba(model, X):
    X = np.atleast_2d(np.asarray(X, dtype=float))
    out = np.zeros((X.shape[0], model.n_classes))
    for tree in model.trees:
        for i, x in enumerate(X):
            node = tree
            while "feature" in node:
                node = node["left"] if x[node["feature"]] <= node["threshold"] else node["right"]
            out[i] += leaf_distribution(node)
    return out / len(model.trees)


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
    for tree in model.trees:
        phi += _tree_shap_single(tree, x, model.n_features, model.n_classes)
        base += _tree_expected_value(tree)
    n = len(model.trees)
    return (phi / n).T, base / n


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
    """(model, rows): a forest of random trees and rows on the threshold grid."""
    rng = np.random.default_rng(seed)
    trees = tuple(random_tree(rng, n_features, n_classes, depth, int(rng.integers(1, 200)))
                  for _ in range(n_trees))
    model = ForestModel(
        trees=trees,
        params=ForestParams(n_trees=n_trees),
        feature_names=tuple(f"f{i}" for i in range(n_features)),
        class_names=tuple(f"c{i}" for i in range(n_classes)),
    )
    return model, rng.choice(GRID, size=(7, n_features))
