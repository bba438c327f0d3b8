"""Random forest classifier built from scratch (CART, Gini impurity),
plus grouped stratified k-fold CV, grid search and per-class metrics.

Trees store per-node training sample counts ("cover") so that attribution
code can weight conditional expectations without revisiting the data.  A
tree is node arrays (`FlatForest`) from growth on; nested dicts are only
`model.json`'s form, written by `ForestModel.to_json` and read by `load`.

Tree i of a forest draws from its own stream, seeded by (seed, i), so the
grid search grows each fold's trees once for the whole lattice: one
`_grow_tree` call grows tree i for every (max_depth, min_samples_leaf) pair
at once, sharing the nodes where the pairs agree, and a k-tree point is
scored from the running sum of its first k trees' leaf values, read off each
tree by `predict_proba`'s descent as it is grown.  Every fold accuracy and
prediction equals that of a separate fit of the point.
"""

import bisect
import copy
import json
import math
from dataclasses import asdict, dataclass, fields, replace
from functools import cached_property, partial
from itertools import chain, compress, product
from numbers import Integral, Real

import numpy as np

from .errors import LmaError, SchemaError
from .files import open_output, read_text

MODEL_FORMAT_VERSION = 1


def integer_codes(values):
    """(sorted distinct values, each value's index among them).  The values
    sort as Python objects, so mixed types such as str and None raise TypeError."""
    uniq, codes = np.unique(np.asarray(values, dtype=object), return_inverse=True)
    return tuple(uniq.tolist()), codes


def class_counts_by_group(y, groups):
    """Rows of each class code in each group, a (groups, classes) array with
    the groups in sorted order, and each row's group code."""
    y = np.asarray(y, dtype=int)
    uniq, g = integer_codes(groups)
    n_classes = int(y.max(initial=0)) + 1
    counts = np.bincount(g * n_classes + y, minlength=len(uniq) * n_classes)
    return counts.reshape(len(uniq), n_classes), g


@dataclass(frozen=True)
class Dataset:
    X: np.ndarray
    y: np.ndarray  # integer class codes into class_names
    groups: np.ndarray  # one group id per row, an object array
    feature_names: tuple
    class_names: tuple

    def __post_init__(self):
        X = np.asarray(self.X, dtype=float)
        y = np.asarray(self.y, dtype=int)
        object.__setattr__(self, "X", X)
        object.__setattr__(self, "y", y)
        object.__setattr__(self, "groups", np.asarray(self.groups, dtype=object))
        object.__setattr__(self, "feature_names", tuple(self.feature_names))
        object.__setattr__(self, "class_names", tuple(self.class_names))
        n = X.shape[0]
        if y.shape != (n,) or self.groups.shape != (n,):
            raise LmaError("X, y and groups must agree on N")
        if X.shape[1] != len(self.feature_names):
            raise LmaError("feature_names length must match X columns")
        if not np.all(np.isfinite(X)):
            raise LmaError("dataset contains non-finite features")
        if n and (y.min() < 0 or y.max() >= len(self.class_names)):
            raise LmaError("label code outside class_names")

    @staticmethod
    def from_labels(X, labels, groups, feature_names):
        class_names, y = integer_codes(labels)
        return Dataset(X, y, groups, feature_names, class_names)


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


def _best_split(X, idx, feats, node_codes, totals, min_leafs):
    """Best (gini, feature, threshold) over the sorted sampled features
    `feats` at the node holding rows `idx`, or None, for each leaf minimum
    in `min_leafs`, from one (feats, n) pass.

    Left of a split, the sum of squared class counts is the running sum of
    2r + 1, r being each sample's rank among the earlier samples of its
    class in value order, so every Gini value is exact.  Thresholds are
    midpoints between consecutive distinct sorted values (the lower one
    where the midpoint rounds onto the upper, so both sides keep their
    samples).  A leaf minimum m admits the splits with m to n - m samples on
    the left.  A feature's ties go to its lowest threshold; a later feature
    wins only if its gini is more than 1e-15 lower.
    """
    values = X[idx[None, :], feats[:, None]]
    # any order of equal values will do: a split between distinct values has
    # the same samples on its left whatever their order within a tie
    order = np.argsort(values, axis=1)
    rows = np.arange(len(feats))[:, None]
    v = values[rows, order]
    c = node_codes[order]
    n = len(idx)
    # splits allowed only between distinct values
    distinct = v[:, 1:] > v[:, :-1]
    if not distinct.any():
        return [None] * len(min_leafs)
    nl = np.arange(1.0, n)  # split size of the left side
    nr = n - nl
    # grouped by class, the samples' ranks are 0..total-1 within each class
    rank = np.empty(c.shape, dtype=np.intp)
    first = np.repeat(np.cumsum(totals) - totals, totals)
    rank[rows, np.argsort(c, axis=1, kind="stable")] = np.arange(n) - first
    later = totals[c] - 1 - rank
    sq_l = np.cumsum(2 * rank + 1, axis=1)[:, :-1]
    sq_r = np.cumsum(2 * later[:, ::-1] + 1, axis=1)[:, -2::-1]
    gini_l = 1.0 - sq_l / (nl * nl)
    gini_r = 1.0 - sq_r / (nr * nr)
    weighted = np.where(distinct, (nl * gini_l + nr * gini_r) / n, np.inf)

    found = {}
    for m in min_leafs:
        if m in found:
            continue
        found[m] = None
        if 2 * m > n:
            continue
        allowed = weighted[:, m - 1:n - m]
        # argmin takes each row's first, lowest, threshold
        best = None
        for i, (gini, k) in enumerate(zip(allowed.min(axis=1).tolist(),
                                          allowed.argmin(axis=1).tolist())):
            if gini != math.inf and (best is None or gini < best[0] - 1e-15):
                best = (gini, i, k + m - 1)
        if best is not None:
            gini, i, k = best
            thr = 0.5 * (v[i, k] + v[i, k + 1])
            if thr >= v[i, k + 1]:
                thr = v[i, k]
            found[m] = (gini, int(feats[i]), float(thr))
    return [found[m] for m in min_leafs]


def _grow_tree(X, codes, n_classes, features_per_split, bootstrap, variants, rng):
    """One tree for each (max_depth, min_samples_leaf) pair in `variants`,
    each equal to the tree grown for that pair alone from `rng`, as a list
    of node records in preorder (read by `FlatForest.from_records`).

    The variants that reach a node with the same rows and generator state
    share its class count, its feature draw and one split search.  Where
    some stop and others split, or their best splits differ, they part, and
    each part goes on with its own copy of the generator; a variant's right
    subtree starts from the state its left subtree left behind.
    """
    n_features = X.shape[1]
    mtry = min(features_per_split, n_features)
    # the narrowest type: numpy's stable argsort of 8- and 16-bit integers is a radix sort
    codes = codes.astype(np.min_scalar_type(n_classes))
    depth_cap = [math.inf if d is None else d for d, _ in variants]
    min_leaf = [m for _, m in variants]
    gen = [rng] * len(variants)  # the generator each variant draws from next

    def fork(part, rng):
        copied = copy.deepcopy(rng)
        for v in part:
            gen[v] = copied

    def build(idx, depth, group):
        """The subtree over rows `idx` of each variant in `group`; they hold one generator."""
        node_codes = codes[idx]
        totals = np.bincount(node_codes, minlength=n_classes)
        n = len(idx)
        grow = [v for v in group if n >= 2 * min_leaf[v] and depth < depth_cap[v]]
        leaf = [(-1, math.inf, n, totals.tolist(), depth, 0)]
        if not grow or np.count_nonzero(totals) < 2:
            return [leaf] * len(group)
        rng = gen[group[0]]
        if len(grow) < len(group):
            # the variants that stop here keep the state from before the feature draw
            fork([v for v in group if v not in grow], rng)
        feats = np.sort(rng.choice(n_features, size=mtry, replace=False))
        splits = _best_split(X, idx, feats, node_codes, totals, [min_leaf[v] for v in grow])
        if len(grow) == len(group) and splits[0] is not None and splits.count(splits[0]) == len(grow):
            return split_node(idx, depth, group, *splits[0][1:])  # the group goes on together
        parts = {}
        for v, split in zip(grow, splits):
            parts.setdefault(split, []).append(v)
        for part in list(parts.values())[1:]:
            fork(part, rng)
        nodes = {}
        for split, part in parts.items():
            if split is not None:
                nodes.update(zip(part, split_node(idx, depth, part, *split[1:])))
        return [nodes.get(v, leaf) for v in group]

    def split_node(idx, depth, part, f, thr):
        mask = X[:, f][idx] <= thr
        left = build(idx[mask], depth + 1, part)
        if len(part) == 1:
            right = build(idx[~mask], depth + 1, part)
        else:
            # the variants that the left subtrees leave on one generator grow the right one together
            on = {}
            for v in part:
                on.setdefault(id(gen[v]), []).append(v)
            by_variant = {}
            for vs in on.values():
                by_variant.update(zip(vs, build(idx[~mask], depth + 1, vs)))
            right = [by_variant[v] for v in part]
        return [[(f, thr, len(idx), [0] * n_classes, depth, len(l)), *l, *r]
                for l, r in zip(left, right)]

    n = X.shape[0]
    idx = np.sort(rng.integers(0, n, size=n)) if bootstrap else np.arange(n)
    return build(idx, 0, range(len(variants)))


def _is_int(v):
    return type(v) is int or (isinstance(v, Integral) and not isinstance(v, bool))


def _is_real(v):
    return isinstance(v, Real) and not isinstance(v, bool)


def _finite(v):
    """Whether the number `v` is finite as a float; an integer too large to
    convert is not."""
    try:
        return math.isfinite(v)
    except OverflowError:
        return False


def _all(values, types, check):
    """Whether `check` holds for every value; at C speed when every value's
    type is in `types`, all of whose values pass `check`."""
    return set(map(type, values)) <= types or all(map(check, values))


def _first_malformed(nodes, roots, n_features, n_classes):
    """SchemaError naming the first of `nodes` (trees starting at `roots`)
    that fails a node check, one node at a time in walk order."""
    seen = set()
    for i, node in enumerate(nodes):
        message = _node_fault(node, seen, n_features, n_classes)
        if message:
            t = bisect.bisect_right(roots, i) - 1
            return SchemaError(f"tree {t} node {i - roots[t]}: {message}")
    raise AssertionError("no malformed node")


def _node_fault(node, seen, n_features, n_classes):
    """What is wrong with one node of a walk that has passed the `seen` nodes, or None."""
    if not isinstance(node, dict):
        return f"expected a node object, got {type(node).__name__}"
    if id(node) in seen:
        return "node object reached twice; children must form a tree"
    seen.add(id(node))
    c = node.get("cover")
    if not _is_int(c) or c < (1 if "feature" in node else 0):
        return f"cover must be a non-negative integer, positive at a split, got {c!r}"
    if not _finite(c):
        return "cover is too large for a float"
    if "feature" in node:
        f, thr = node["feature"], node.get("threshold")
        if not _is_int(f) or not 0 <= f < n_features:
            return f"feature index {f!r} outside 0..{n_features - 1}"
        if not _is_real(thr) or not _finite(thr):
            shown = "an integer too large for a float" if _is_int(thr) else repr(thr)
            return f"threshold must be a finite number, got {shown}"
    else:
        k = node.get("counts")
        if not (isinstance(k, list) and len(k) == n_classes and all(map(_is_int, k))):
            return f"a leaf needs {n_classes} integer class counts, got {k!r}"
        if not all(map(_finite, k)):
            return "a class count is too large for a float"
    return None


@dataclass(frozen=True)
class LeafPaths:
    """The root-to-leaf paths of a run of consecutive trees, one row per
    leaf: the per-leaf tables of path-dependent TreeSHAP, which depend on the
    model only.

    ``splits[k]`` lists leaf k's ancestors from its root down, right-aligned
    and padded on the left with the leaf itself, which every row passes;
    ``went_left`` says which way the path leaves each of them.  A path's
    distinct split features are its elements.  They fill the last columns of
    ``slots`` and ``zero``, ordered by each feature's last split on the path;
    the columns before them are dummies that no split touches.  ``slots``
    indexes ``used``, the split features of all the run's trees (``len(used)``
    stands for no feature); ``zero`` is the product of the element's cover
    fractions along the path (1 for a dummy); ``element_of`` maps split
    columns to elements.
    """

    leaves: np.ndarray  # (L,)
    splits: np.ndarray  # (L, depth)
    went_left: np.ndarray  # (L, depth)
    element_of: np.ndarray  # (L, depth)
    slots: np.ndarray  # (L, elements)
    zero: np.ndarray  # (L, elements)
    used: np.ndarray  # (U,)


@dataclass(frozen=True)
class FlatForest:
    """Every tree of a forest as parallel node arrays, each tree in preorder,
    built from growth (`from_records`) or from a model file (`from_trees`).

    Node i sends rows with ``x[feature[i]] <= threshold[i]`` to ``left[i]``
    and the rest to ``right[i]``; ``cover[i]`` counts its training samples.
    A leaf has feature -1, threshold +inf and itself as both children, so a
    descent that reaches it stays there; ``counts`` holds the leaves' class
    counts (zero rows at splits).  ``roots`` and ``depth`` give each tree's
    root node and depth.  Built on first use and kept: the leaves' class
    distributions ``value``, the SHAP base ``base`` (each tree's cover-weighted
    mean leaf value, averaged over trees), ``tree_shapes`` and ``leaf_paths``.
    """

    feature: np.ndarray
    threshold: np.ndarray
    left: np.ndarray
    right: np.ndarray
    cover: np.ndarray
    counts: np.ndarray
    roots: np.ndarray
    depth: np.ndarray

    @staticmethod
    def from_records(trees):
        """The forest of `_grow_tree`'s trees, each a preorder list of
        (feature, threshold, cover, class counts, level, left subtree size)
        node records."""
        feature, threshold, cover, counts, level, left_size = map(
            np.array, zip(*chain.from_iterable(trees)))
        index, split = np.arange(len(feature)), feature >= 0
        roots = np.cumsum([0] + [len(tree) for tree in trees[:-1]])
        return FlatForest(feature, threshold, np.where(split, index + 1, index),  # preorder: left follows
                          np.where(split, index + 1 + left_size, index), cover.astype(float),
                          counts.astype(float), roots, np.maximum.reduceat(level, roots))

    @staticmethod
    def from_trees(trees, n_features, n_classes):
        """Flatten nested-dict trees, raising SchemaError on any malformed node.

        One preorder walk collects the nodes, their levels and the right
        children's parents; the node checks then run over whole lists and
        arrays.  Only when one fails does `_first_malformed` go through the
        nodes one by one to name the first bad node."""
        if not trees:
            raise SchemaError("model has no trees")
        nodes, level, right_of, roots, seen = [], [], [], [], set()
        for tree in trees:
            roots.append(len(nodes))
            stack = [(tree, -1, 0)]  # node, its parent if a right child, level
            while stack:
                node, parent, depth = stack.pop()
                i = len(nodes)
                nodes.append(node)
                right_of.append(parent)
                level.append(depth)
                if isinstance(node, dict):
                    if id(node) in seen:  # the walk must not follow a cycle
                        raise _first_malformed(nodes, roots, n_features, n_classes)
                    seen.add(id(node))
                    if "feature" in node:
                        stack.append((node.get("right"), i, depth + 1))
                        stack.append((node.get("left"), -1, depth + 1))

        if not _all(nodes, {dict}, lambda node: isinstance(node, dict)):
            raise _first_malformed(nodes, roots, n_features, n_classes)
        split = np.array(["feature" in node for node in nodes])
        covers = [node.get("cover") for node in nodes]
        splits, leaves = list(compress(nodes, split)), list(compress(nodes, ~split))
        features = [node["feature"] for node in splits]
        thresholds = [node.get("threshold") for node in splits]
        leaf_counts = [node.get("counts") for node in leaves]
        widths_ok = (_all(leaf_counts, {list}, lambda k: isinstance(k, list))
                     and set(map(len, leaf_counts)) <= {n_classes})
        all_counts = list(chain.from_iterable(leaf_counts)) if widths_ok else []
        if not (widths_ok and _all(all_counts, {int}, _is_int) and _all(covers, {int}, _is_int)
                and _all(features, {int}, _is_int)
                and 0 <= min(features, default=0) and max(features, default=0) < n_features
                and _all(thresholds, {float, int}, _is_real)):
            raise _first_malformed(nodes, roots, n_features, n_classes)
        index = np.arange(len(nodes))
        feature = np.full(len(nodes), -1)
        feature[split] = features
        threshold = np.full(len(nodes), math.inf)
        counts = np.zeros((len(nodes), n_classes))
        try:  # an integer too large for a float
            threshold[split] = thresholds
            cover = np.array(covers, dtype=float)
            counts[~split] = np.reshape(np.array(all_counts, dtype=float), (-1, n_classes))
        except OverflowError:
            raise _first_malformed(nodes, roots, n_features, n_classes) from None
        # a split's threshold can round onto its upper value and leave an
        # empty child, so a leaf may cover nothing
        if not ((cover >= split).all() and np.isfinite(threshold[split]).all()):
            raise _first_malformed(nodes, roots, n_features, n_classes)

        left, right = np.where(split, index + 1, index), index.copy()  # preorder: left follows
        right_of = np.array(right_of)
        right[right_of[right_of >= 0]] = index[right_of >= 0]
        level = np.array(level)
        roots = np.array(roots)
        negative = (counts < 0).any(axis=1)
        unbalanced = np.where(split, cover[left] + cover[right], counts.sum(axis=1)) != cover
        for i in np.flatnonzero(negative | unbalanced)[:1]:
            t = np.searchsorted(roots, i, side="right") - 1
            what = ("class counts are negative" if negative[i] else
                    f"{'child covers' if split[i] else 'class counts'} do not add up to its cover")
            raise SchemaError(f"tree {t} node {i - roots[t]}: {what}")

        return FlatForest(feature, threshold, left, right, cover, counts, roots,
                          np.maximum.reduceat(level, roots))

    @cached_property
    def value(self):
        cover = self.cover[:, None]  # splits have zero counts; an empty leaf gets zeros
        return np.divide(self.counts, cover, out=np.zeros_like(self.counts), where=cover > 0)

    @cached_property
    def base(self):
        split = self.feature >= 0
        levels, at = [], self.roots  # the splits of each level
        while len(at := at[split[at]]):
            levels.append(at)
            at = np.concatenate([self.left[at], self.right[at]])
        # Cover-weighted expected value of every subtree, deepest level first.
        expected = self.value.copy()
        for at in reversed(levels):
            cl, cr = self.cover[self.left[at], None], self.cover[self.right[at], None]
            expected[at] = (cl * expected[self.left[at]] + cr * expected[self.right[at]]) / (cl + cr)
        # sequential sum in tree order, then the mean
        return np.cumsum(expected[self.roots], axis=0)[-1] / len(self.roots)

    def leaf_values(self, X):
        """Each tree's leaf class distribution for every row of X, one tree
        at a time; all rows descend a tree together, one level per step."""
        rows = np.arange(X.shape[0])
        for root, depth in zip(self.roots, self.depth):
            node = np.full(X.shape[0], root)
            for _ in range(depth):
                go_left = X[rows, self.feature[node]] <= self.threshold[node]
                node = np.where(go_left, self.left[node], self.right[node])
            yield self.value[node]

    @cached_property
    def tree_shapes(self):
        """(leaves, splits_on): every tree's leaf count and a (trees,
        features) mask of the features it splits on."""
        tree = np.repeat(np.arange(len(self.roots)), np.diff(self.roots, append=len(self.feature)))
        splits_on = np.zeros((len(self.roots), self.feature.max() + 2), dtype=bool)
        splits_on[tree, self.feature] = True  # a leaf's -1 marks the last column
        return np.add.reduceat(self.feature < 0, self.roots), splits_on[:, :-1]

    def leaf_paths(self, first, stop):
        """`LeafPaths` of trees first .. stop - 1, built on first use and kept."""
        runs = self._leaf_path_runs
        if (first, stop) not in runs:
            hi = self.roots[stop] if stop < len(self.roots) else len(self.feature)
            runs[first, stop] = self._leaf_paths(self.roots[first], hi, self.depth[first:stop].max())
        return runs[first, stop]

    @cached_property
    def _leaf_path_runs(self):
        return {}

    def _leaf_paths(self, lo, hi, depth):
        feature, cover = self.feature, self.cover
        parent = np.full(len(feature), -1)
        split = np.flatnonzero(feature >= 0)
        parent[self.left[split]] = split
        parent[self.right[split]] = split
        in_tree = feature[lo:hi]
        used = np.unique(in_tree[in_tree >= 0])
        leaves = lo + np.flatnonzero(in_tree < 0)
        rows = np.arange(len(leaves))
        splits = np.repeat(leaves[:, None], depth, axis=1)
        went_left = np.ones(splits.shape, dtype=bool)
        child = leaves
        for col in range(depth - 1, -1, -1):
            up = parent[child]
            has = up >= 0
            splits[has, col] = up[has]
            went_left[has, col] = self.left[up[has]] == child[has]
            child = np.where(has, up, child)

        # Fold each path's splits into one element per feature, root first:
        # the zero fraction multiplies up as the recursion's does, and the
        # element moves to the end of the path at each repeat.
        f = feature[splits]
        slot = np.where(f >= 0, np.searchsorted(used, f), len(used))
        zero = np.ones((len(leaves), len(used) + 1))
        last = np.full(zero.shape, -1)
        for col in range(depth):
            k = rows[f[:, col] >= 0]
            s, u = splits[k, col], slot[k, col]
            child = np.where(went_left[k, col], self.left[s], self.right[s])
            zero[k, u] = zero[k, u] * cover[child] / cover[s]
            last[k, u] = col
        n_elements = int((last >= 0).sum(axis=1).max()) + 1
        order = np.argsort(last, axis=1, kind="stable")[:, -n_elements:]
        position = np.zeros(zero.shape, dtype=int)
        np.put_along_axis(position, order, np.arange(n_elements)[None, :], axis=1)
        return LeafPaths(
            leaves=leaves,
            splits=splits,
            went_left=went_left,
            element_of=np.take_along_axis(position, slot, axis=1),
            slots=order,
            zero=np.take_along_axis(zero, order, axis=1),
            used=used,
        )


@dataclass(frozen=True)
class ForestModel:
    flat: FlatForest
    params: ForestParams
    feature_names: tuple
    class_names: tuple

    @property
    def n_classes(self):
        return len(self.class_names)

    @property
    def n_features(self):
        return len(self.feature_names)

    def to_json(self):
        """The model file's text (format 1): each tree as nested dicts, built
        from the node arrays and written one tree at a time."""
        f = self.flat
        feature, threshold, left, right, cover, counts = (
            a.tolist() for a in (f.feature, f.threshold, f.left, f.right, f.cover, f.counts))
        dumps = partial(json.dumps, sort_keys=True, separators=(",", ":"))

        def tree(root, stop):  # a loop, not a self-referencing closure, so no cycle keeps the lists
            nodes = {}
            for i in range(stop - 1, root - 1, -1):  # children before their parent
                if feature[i] < 0:
                    nodes[i] = {"counts": list(map(int, counts[i])), "cover": int(cover[i])}
                else:
                    nodes[i] = {"feature": feature[i], "threshold": threshold[i], "cover": int(cover[i]),
                                "left": nodes[left[i]], "right": nodes[right[i]]}
            return dumps(nodes[root])

        head = dumps({"format_version": MODEL_FORMAT_VERSION, "params": asdict(self.params),
                      "class_names": list(self.class_names), "feature_names": list(self.feature_names)})
        bounds = f.roots.tolist() + [len(feature)]
        # "trees" sorts after every other key, so it closes the object
        return f'{head[:-1]},"trees":[{",".join(map(tree, bounds[:-1], bounds[1:]))}]}}'

    def save(self, path):
        with open_output(path) as fh:
            fh.write(self.to_json() + "\n")

    @staticmethod
    def load(path):
        """Read a model file; anything but a well-formed forest raises SchemaError."""
        text = read_text(path)
        try:
            payload = json.loads(text)
        except (ValueError, RecursionError) as e:
            raise SchemaError(f"{path}: not a JSON model file: {e}") from e
        try:
            return _model_from_payload(payload)
        except LmaError as e:
            raise SchemaError(f"{path}: {e}") from e


def _names(payload, key):
    names = payload.get(key)
    if not (isinstance(names, list) and names and all(isinstance(n, str) for n in names)
            and len(set(names)) == len(names)):
        raise SchemaError(f"'{key}' must be a non-empty list of distinct strings")
    return tuple(names)


def _model_from_payload(payload):
    if not isinstance(payload, dict):
        raise SchemaError("a model file holds one JSON object")
    if payload.get("format_version") != MODEL_FORMAT_VERSION:
        raise SchemaError(f"unknown model format_version {payload.get('format_version')!r}")
    p = payload.get("params")
    if not isinstance(p, dict):
        raise SchemaError("'params' must be an object")
    keys = {f.name for f in fields(ForestParams)}
    if set(p) != keys:
        raise SchemaError(f"'params' keys {sorted(p)} differ from {sorted(keys)}")
    for key, v in p.items():
        if key == "bootstrap":
            ok = isinstance(v, bool)
        else:
            ok = _is_int(v) or (key == "max_depth" and v is None)
        if not ok:
            raise SchemaError(f"params.{key} has the wrong type: {v!r}")
    params = ForestParams(**p)
    trees = payload.get("trees")
    if not isinstance(trees, list) or len(trees) != params.n_trees:
        raise SchemaError(f"'trees' must be a list of params.n_trees = {params.n_trees} trees")
    feature_names, class_names = _names(payload, "feature_names"), _names(payload, "class_names")
    flat = FlatForest.from_trees(trees, len(feature_names), len(class_names))
    return ForestModel(flat, params, feature_names, class_names)


def _tree_rng(seed, tree_index):
    return np.random.default_rng(np.random.SeedSequence([seed & 0xFFFFFFFFFFFFFFFF, tree_index]))


def train(data, params):
    """Fit a forest; tree i draws from its own stream, seeded by (params.seed, i)."""
    X, y = data.X, data.y
    if X.shape[0] < 2:
        raise LmaError("need at least 2 training samples")
    n_classes = len(data.class_names)
    variant = [(params.max_depth, params.min_samples_leaf)]
    trees = [
        _grow_tree(X, y, n_classes, params.features_per_split, params.bootstrap, variant,
                   _tree_rng(params.seed, i))[0]
        for i in range(params.n_trees)
    ]
    return ForestModel(FlatForest.from_records(trees), params, data.feature_names, data.class_names)


def predict_proba(model, X):
    """Mean of per-tree leaf class frequencies (`FlatForest.leaf_values`);
    rows sum to 1."""
    X = np.atleast_2d(np.asarray(X, dtype=float))
    if X.shape[1] != model.n_features:
        raise LmaError(f"expected {model.n_features} features, got {X.shape[1]}")
    if not np.all(np.isfinite(X)):
        raise LmaError("non-finite input to predict_proba")
    return sum(model.flat.leaf_values(X)) / len(model.flat.roots)


def predict(model, X):
    """Argmax class codes; ties resolve to the lowest class index."""
    return np.argmax(predict_proba(model, X), axis=1)


def stratified_group_kfold(y, groups, k=3, seed=0):
    """Partition groups into k folds balancing class proportions.

    No group straddles folds.  Each group is characterised by its majority
    class; greedy assignment, largest groups first, puts each in the fold
    holding the fewest rows of that class, then the fewest rows.
    """
    y = np.asarray(y, dtype=int)
    counts, g = class_counts_by_group(y, groups)
    n_groups, n_classes = counts.shape
    group_class, group_size = counts.argmax(axis=1), counts.sum(axis=1)
    per_class_groups = np.bincount(group_class, minlength=n_classes)
    short = (np.bincount(y, minlength=n_classes) > 0) & (per_class_groups < k)
    for c in np.flatnonzero(short)[:1]:
        raise LmaError(f"class {c} present in only {per_class_groups[c]} groups, need >= {k}")

    shuffled_pos = np.argsort(np.random.default_rng(seed).permutation(n_groups))
    fold_counts = np.zeros((k, n_classes), dtype=int)  # rows per (fold, majority class)
    fold_of_group = np.empty(n_groups, dtype=int)
    for i in np.lexsort((shuffled_pos, -group_size)).tolist():
        c = group_class[i]
        best = np.lexsort((fold_counts.sum(axis=1), fold_counts[:, c]))[0]
        fold_of_group[i] = best
        fold_counts[best, c] += group_size[i]

    fold = fold_of_group[g]
    return [(np.flatnonzero(fold != f), np.flatnonzero(fold == f)) for f in range(k)]


def _score_lattice(data, points, folds):
    """Each lattice point's pooled out-of-fold class predictions (row order)
    and its count of correct predictions on each fold.

    Points sharing (features_per_split, bootstrap, seed) form a family.  On
    each fold, tree i of all the family's (max_depth, min_samples_leaf)
    variants is grown by one `_grow_tree` call, up to the family's largest
    n_trees, and a point with n_trees k is scored from its variant's running
    sum of the first k trees' leaf values, which is the sum `predict_proba`
    of a k-tree model divides by k.  Each tree is scored as it is grown,
    with the descent `predict_proba` uses.
    """
    n_classes = len(data.class_names)
    predictions = [np.empty(len(data.y), dtype=int) for _ in points]
    correct = [[] for _ in points]
    families = {}  # (features_per_split, bootstrap, seed) -> {(max_depth, min_samples_leaf): [point]}
    for j, p in enumerate(points):
        family = families.setdefault((p.features_per_split, p.bootstrap, p.seed), {})
        family.setdefault((p.max_depth, p.min_samples_leaf), []).append(j)
    for train_idx, test_idx in folds:
        if len(train_idx) < 2:
            raise LmaError("need at least 2 training samples")
        X, y = data.X[train_idx], data.y[train_idx]
        X_test, y_test = data.X[test_idx], data.y[test_idx]
        for (features_per_split, bootstrap, seed), family in families.items():
            sums = np.zeros((len(family), len(test_idx), n_classes))
            n_trees = max(points[j].n_trees for members in family.values() for j in members)
            for i in range(n_trees):
                trees = FlatForest.from_records(_grow_tree(
                    X, y, n_classes, features_per_split, bootstrap, list(family), _tree_rng(seed, i)))
                for value, total, members in zip(trees.leaf_values(X_test), sums, family.values()):
                    total += value
                    for j in members:
                        if points[j].n_trees == i + 1:
                            predictions[j][test_idx] = pred = np.argmax(total / (i + 1), axis=1)
                            correct[j].append(int(np.count_nonzero(pred == y_test)))
    return predictions, correct


def cross_val_accuracy(data, params, k=3, seed=0):
    """Per-fold validation accuracies under grouped stratified CV."""
    folds = stratified_group_kfold(data.y, data.groups, k=k, seed=seed)
    correct = _score_lattice(data, [params], folds)[1][0]
    return [c / len(test_idx) for c, (_, test_idx) in zip(correct, folds)]


def expand_grid(grid):
    """Dict of lists -> deterministic list of ForestParams lattice points."""
    keys = sorted(grid)
    return [ForestParams(**dict(zip(keys, combo))) for combo in product(*(grid[k] for k in keys))]


def _best_point(points, fold_correct, fold_sizes):
    """Index of the point with the highest mean fold accuracy, each fold's
    taken exactly as correct/size; ties go to fewer trees, then shallower,
    then the earlier point."""
    # the mean times k * lcm(sizes), an integer, so that equal means tie
    scale = [math.lcm(*fold_sizes) // size for size in fold_sizes]

    def key(j):
        exact = sum(c * w for c, w in zip(fold_correct[j], scale))
        return exact, -points[j].n_trees, -(points[j].max_depth or math.inf)
    return max(range(len(points)), key=key)


def grid_search(data, grid, k=3, seed=0):
    """Evaluate every lattice point; ties prefer fewer trees, then shallower.

    Each report entry also keeps the point's pooled out-of-fold predictions
    ("predictions", class codes in row order).  Every tree is the one a
    separate fit of its point would grow.
    """
    if isinstance(grid, dict):
        grid = expand_grid(grid)
    if not grid:
        raise LmaError("empty parameter grid")
    folds = stratified_group_kfold(data.y, data.groups, k=k, seed=seed)
    sizes = [len(test_idx) for _, test_idx in folds]
    points = [replace(params, seed=seed) for params in grid]
    predictions, correct = _score_lattice(data, points, folds)
    report = []
    for params, pred, hits in zip(points, predictions, correct):
        accs = [c / size for c, size in zip(hits, sizes)]
        report.append(
            {
                "params": params,
                "fold_accuracies": accs,
                "mean_accuracy": float(np.mean(accs)),
                "predictions": pred,
            }
        )
    return points[_best_point(points, correct, sizes)], report


def metrics(y_true, y_pred, class_names):
    """Per-class precision/recall/F1 (+ zero-division flags) and macro means."""
    y_true = np.asarray(y_true, dtype=int)
    y_pred = np.asarray(y_pred, dtype=int)
    if y_true.shape != y_pred.shape:
        raise LmaError("y_true and y_pred must have equal length")
    n = len(class_names)
    if y_true.size and (min(y_true.min(), y_pred.min()) < 0 or max(y_true.max(), y_pred.max()) >= n):
        raise LmaError("label code outside class_names")
    confusion = np.bincount(y_true * n + y_pred, minlength=n * n).reshape(n, n)
    tp = np.diag(confusion)
    support, predicted = confusion.sum(axis=1), confusion.sum(axis=0)
    prec = np.divide(tp, predicted, out=np.zeros(n), where=predicted > 0)
    rec = np.divide(tp, support, out=np.zeros(n), where=support > 0)
    f1 = np.divide(2 * prec * rec, prec + rec, out=np.zeros(n), where=prec + rec > 0)
    zero_division = (predicted == 0) | (support == 0) | (prec + rec == 0)
    per_class = {
        name: {"precision": p, "recall": r, "f1": f, "support": s, "zero_division": z}
        for name, p, r, f, s, z in zip(class_names, prec.tolist(), rec.tolist(), f1.tolist(),
                                       support.tolist(), zero_division.tolist())
    }
    macro = {"precision": float(np.mean(prec)), "recall": float(np.mean(rec)),
             "f1": float(np.mean(f1))}
    return {"per_class": per_class, "macro": macro}
