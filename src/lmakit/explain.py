"""Exact per-prediction attribution for forest models.

`tree_shap` runs the polynomial-time path recursion (Lundberg et al. 2020,
Algorithm 2) over the leaf paths of runs of trees, for all rows at once,
using node covers (training sample counts) to weight conditional
expectations.  It targets the probability output, so attributions plus
the base value reproduce predict_proba exactly (local accuracy).
`write_explanations_csv` writes one line per instance, class and feature in
blocks of instances, formatting each distinct phi of a block once.
"""

from dataclasses import dataclass

import numpy as np

from .errors import LmaError
from .files import csv_cell, open_output, write_csv


@dataclass(frozen=True)
class ShapExplanation:
    """Attributions of one row (phi (n_classes, n_features), x (n_features,))
    or of many (phi (n_rows, n_classes, n_features), x (n_rows, n_features))."""

    phi: np.ndarray
    base: np.ndarray  # (n_classes,)
    x: np.ndarray
    class_names: tuple
    feature_names: tuple

    def prediction(self):
        return self.base + self.phi.sum(axis=-1)


# Path-dependent TreeSHAP (Lundberg et al. 2020, Algorithm 2) visits both
# children of every split, so the path it holds at a leaf -- each distinct
# split feature with its zero fraction z -- is the same for every row; only
# the one fractions o (1 if the row follows all of that feature's splits on
# the path, else 0) depend on the row, through the splits it follows.  With
# the paths precomputed per model (`LeafPaths`), a run of consecutive trees
# is one pass over the distinct (leaf, followed splits) cells of its rows,
# which are few: the permutation weights w are extended element by element,
# then every element is unwound from them at once, each step elementwise the
# recursion's own arithmetic (Yang 2021 precomputes all 2^depth patterns of
# each leaf; only those that occur are computed here).  Two things differ
# only in rounding: a feature split on twice enters once with its merged
# fractions, where the recursion unwinds and extends it again, and dummy
# elements (z = o = 1, which change no attribution) give every path of a run
# the same length.  The leaves of a run are summed in one product, so the
# trees' sum is rounded as that product orders it.
#
# Runs of trees are merged as GPUTreeShap merges paths (Mitchell et al.
# 2022), sized from the shapes alone: a run grows while a pass over all the
# rows of the call, rows x leaves x width cells, stays within _RUN, where the
# width is the run's union of split features plus one, or its depth if that
# is more.  One row then takes a forest of a thousand leaves in one pass,
# of two thousand in two; a large batch falls back to one tree per pass, in
# row blocks of up to _BLOCK cells.  The union widens the (rows, leaves, width)
# arrays of a pass, which is why the run bound is the smaller: at 1 << 17 it
# already added about 1 MB to the peak memory of explaining 210 rows of a
# 40-tree model, against 0.1-0.2 MB at 1 << 16.  The runs' sums are kept
# feature-major for up to _BLOCK (row, class, feature) cells at a time, and
# each such block is copied into phi.

_RUN = 1 << 16  # at most this many (row, leaf, width) cells in a pass over several trees
_BLOCK = 1 << 20  # at most this many in a pass over one tree


def _distinct_cells(follow):
    """(inverse, rep) for `follow` (rows, leaves, depth): the index of each
    (row, leaf) cell among the distinct (leaf, followed splits) pairs, and for
    each pair the flat (row, leaf) index of one cell holding it.

    The key is the leaf, then 31 split columns at a time, made dense again
    after each chunk so that it fits an int64 at any depth."""
    n, n_leaves, depth = follow.shape
    follow = follow.reshape(n * n_leaves, depth)
    cell = np.tile(np.arange(n_leaves), n)
    for start in range(0, max(depth, 1), 31):
        bits = follow[:, start:start + 31]
        cell = np.unique(cell << bits.shape[1] | bits @ (1 << np.arange(bits.shape[1])),
                         return_inverse=True)[1]
    rep = np.empty(cell.max() + 1, dtype=int)
    rep[cell] = np.arange(len(cell))  # cells of one pair are alike, so any will do
    return cell, rep


def _run_phi(paths, flat, X):
    """The summed attributions of a run of trees for every row of X,
    feature-major: shape (used features, rows, C)."""
    n, (n_leaves, depth), l = len(X), paths.splits.shape, paths.zero.shape[1] - 1
    follow = (X[:, flat.feature[paths.splits]] <= flat.threshold[paths.splits]) == paths.went_left
    inverse, rep = _distinct_cells(follow)
    leaf, cell = rep % n_leaves, np.arange(len(rep))
    follow = follow.reshape(n * n_leaves, depth)[rep]
    element_of = paths.element_of[leaf]
    o = np.ones((len(rep), l + 1))
    for col in range(depth):
        o[cell, element_of[:, col]] *= follow[:, col]

    z = paths.zero[leaf]
    w = np.ones((len(rep), 1))
    for k in range(1, l + 1):
        i = np.arange(k)
        grown = np.zeros((len(rep), k + 1))
        grown[:, :k] = z[:, k, None] * w * (k - i) / (k + 1)
        grown[:, 1:] += o[:, k, None] * w * (i + 1) / (k + 1)
        w = grown

    z, o = z[:, 1:], o[:, 1:]
    z_div = np.where(z > 0, z, 1.0)  # z = 0 only on the way to an empty leaf, whose value is 0
    unwound = np.zeros(o.shape)
    carry = w[:, l:]
    for j in range(l - 1, -1, -1):
        t = carry * (l + 1) / (j + 1)  # o is 0 or 1: the recursion's (j + 1) * o where o = 1
        unwound += np.where(o != 0.0, t, w[:, j:j + 1] * (l + 1) / (z_div * (l - j)))
        carry = w[:, j:j + 1] - t * z * (l - j) / (l + 1)
    scaled = np.zeros((len(rep), len(paths.used) + 1))
    scaled[cell[:, None], paths.slots[leaf, 1:]] = unwound * (o - z)
    scaled = scaled[inverse].reshape(n, n_leaves, len(paths.used) + 1)
    return np.matmul(flat.value[paths.leaves].T, scaled)[..., :-1].transpose(2, 0, 1)


def _runs(flat, n_rows):
    """[(first, stop, rows per pass)]: the runs of trees for `n_rows` rows."""
    leaves, splits_on = flat.tree_shapes
    runs, first = [], 0
    while first < len(leaves):
        width = np.maximum(np.logical_or.accumulate(splits_on[first:]).sum(axis=1) + 1,
                           np.maximum.accumulate(flat.depth[first:]))
        per_row = np.cumsum(leaves[first:]) * width  # nondecreasing with the run's length
        length = max(1, int(np.count_nonzero(n_rows * per_row <= _RUN)))
        runs.append((first, first + length, max(1, _BLOCK // int(per_row[length - 1]))))
        first += length
    return runs


def _parts(n, most):
    """range(n) as the fewest slices of at most `most` rows, all of one
    length but the last."""
    count = max(1, -(-n // max(1, most)))
    step = max(1, -(-n // count))
    return [slice(at, at + step) for at in range(0, n, step)]


def tree_shap(model, X):
    """Exact attribution of predict_proba across the features.

    `X` is one row or a matrix of rows; each run of trees is one pass over
    all of them, or over blocks of them for a large tree or batch.  phi has
    shape (n_classes, n_features) for one row and (n_rows, n_classes,
    n_features) for a matrix.
    """
    X = np.asarray(X, dtype=float)
    if X.ndim not in (1, 2) or X.shape[-1] != model.n_features:
        raise LmaError(f"expected rows of {model.n_features} features, got shape {X.shape}")
    if not np.all(np.isfinite(X)):
        raise LmaError("non-finite input to tree_shap")
    flat = model.flat
    rows = np.atleast_2d(X)
    runs = [(flat.leaf_paths(first, stop), step) for first, stop, step in _runs(flat, len(rows))]
    phi = np.empty((0, model.n_classes, model.n_features))
    for block in _parts(len(rows), _BLOCK // (model.n_classes * model.n_features)):
        block_rows = rows[block]
        # summed feature-major, so that a run's used features are whole rows
        total = np.zeros((model.n_features, len(block_rows), model.n_classes))
        for paths, step in runs:
            for part in _parts(len(block_rows), step):
                total[paths.used, part] += _run_phi(paths, flat, block_rows[part])
        if not len(phi):  # only now, so that the first block's passes need no room beside it
            phi = np.empty((len(rows), model.n_classes, model.n_features))
        phi[block] = total.transpose(1, 2, 0)
    phi /= len(flat.roots)
    return ShapExplanation(
        phi=phi if X.ndim == 2 else phi[0],
        base=flat.base.copy(),
        x=X,
        class_names=model.class_names,
        feature_names=model.feature_names,
    )


def _stacked(explanation):
    """phi of `explanation` as (rows, classes, features); refuses zero rows."""
    phi = explanation.phi if explanation.phi.ndim == 3 else explanation.phi[None]
    if len(phi) == 0:
        raise LmaError("no explanations to summarize")
    return phi


def mean_abs_phi(explanation):
    """Mean |phi| over instances per (class, feature), and over instances
    and classes per feature, both from one |phi|."""
    abs_phi = np.abs(_stacked(explanation))
    return abs_phi.mean(axis=0), abs_phi.mean(axis=(0, 1))


def rank_features(names, mean_abs):
    """(index, name, value) of every feature by decreasing `mean_abs`, ties
    to the lower index."""
    order = np.lexsort((np.arange(len(names)), -mean_abs))
    return [(int(i), names[i], float(mean_abs[i])) for i in order]


_LINES = 1 << 13  # at most this many lines are written from one block's distinct phi


def write_explanations_csv(explanation, path):
    """One line per instance, class and feature, written in blocks of
    instances of at most _LINES lines.

    Each instance's text is one join of a piece list in which only the
    instance number and the phi strings change: the quoted class and
    feature cells and the base values stay in place.  Memory, not speed,
    sets the block bound and the one value per `%`: larger blocks, or one
    `%` over a block split at its line ends, format faster but churn the
    heap enough that a later `explain` in the same process can set a new
    peak.
    """
    phi = _stacked(explanation)
    n, size = len(phi), phi[0].size
    classes, features = ([csv_cell(name) for name in names]
                         for names in (explanation.class_names, explanation.feature_names))
    pieces = [None] * (4 * size)  # instance, ",class,feature,", phi, ",base\n" per line
    pieces[1::4] = [f",{c},{f}," for c in classes for f in features]
    pieces[3::4] = [f",{b:.9g}\n" for b in explanation.base.tolist() for _ in features]
    bits = np.ascontiguousarray(phi, dtype=float).reshape(n, size).view(np.int64)
    step = max(1, _LINES // size)
    with open_output(path) as fh:
        fh.write("instance,class,feature,phi,base\n")
        for first in range(0, n, step):
            _write_block(fh, pieces, bits[first:first + step], first)


def _write_block(fh, pieces, bits, first):
    """Write the instances whose phi bit patterns are the rows of `bits`,
    numbered from `first`, filling `pieces` in turn; each distinct bit
    pattern (so -0.0 stays "-0") is formatted once with `%.9g`."""
    distinct, inverse = np.unique(bits, return_inverse=True)
    strings = np.array(list(map("%.9g".__mod__, distinct.view(float).tolist())), dtype=object)
    del distinct  # before the lines are joined
    for number, cells in enumerate(inverse.reshape(bits.shape), first):
        pieces[::4] = [str(number)] * bits.shape[1]
        pieces[2::4] = strings[cells].tolist()
        fh.write("".join(pieces))


def write_summary_csv(ranking, path):
    write_csv(
        path,
        ["feature", "mean_abs_phi", "rank"],
        ([name, f"{value:.9g}", rank] for rank, (_, name, value) in enumerate(ranking, start=1)),
    )
