import gc
import json
import math
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import forest_reference
from forest_reference import (
    best_split,
    dict_predict_proba,
    grow_tree,
    load_trees,
    per_row_tree_shap,
    random_forest,
    saved_trees,
)
from lmakit.errors import LmaError, SchemaError
from lmakit.forest import (
    Dataset,
    FlatForest,
    ForestModel,
    ForestParams,
    _best_point,
    _best_split,
    _grow_tree,
    _tree_rng,
    cross_val_accuracy,
    expand_grid,
    grid_search,
    metrics,
    predict,
    predict_proba,
    stratified_group_kfold,
    train,
)


def _blobs(seed=0, n_per=60, n_classes=3, n_features=6, sep=3.0):
    rng = np.random.default_rng(seed)
    X, y, groups = [], [], []
    for c in range(n_classes):
        center = np.zeros(n_features)
        center[c % n_features] = sep
        pts = rng.normal(center, 1.0, (n_per, n_features))
        X.append(pts)
        y += [f"class{c}"] * n_per
        # 6 groups per class so grouped 3-fold CV is feasible
        groups += [f"g{c}_{i % 6}" for i in range(n_per)]
    X = np.vstack(X)
    names = tuple(f"f{i}" for i in range(n_features))
    return Dataset.from_labels(X, y, groups, names)


# --- gini split search -------------------------------------------------------


def _one_feature_split(values, codes, n_classes, min_leaf):
    """(gini, threshold) of `_best_split` on the single feature `values`, or None."""
    X = np.asarray(values, dtype=float)[:, None]
    totals = np.bincount(codes, minlength=n_classes)
    best, = _best_split(X, np.arange(len(X)), np.array([0]), codes, totals, [min_leaf])
    return None if best is None else (best[0], best[2])


def test_gini_perfect_split_midpoint():
    values = np.array([0.0, 1.0, 2.0, 3.0])
    codes = np.array([0, 0, 1, 1])
    gini, thr = _one_feature_split(values, codes, 2, 1)
    assert gini == pytest.approx(0.0)
    assert thr == pytest.approx(1.5)


def test_gini_hand_computed_impurity():
    # split at 0.5: left {0}, right {0,1,1} -> weighted gini = (3/4)*(4/9)
    values = np.array([0.0, 1.0, 2.0, 3.0])
    codes = np.array([0, 0, 1, 1])
    # force the imperfect split by moving one label
    codes2 = np.array([0, 1, 1, 0])
    gini, thr = _one_feature_split(values, codes2, 2, 1)
    # candidates: k=1 -> (1/4)*0 + (3/4)*(1 - (1/9 + 4/9)) = 1/3
    #             k=2 -> (2/4)*0.5 + (2/4)*0.5 = 0.5
    #             k=3 -> symmetric to k=1 -> 1/3; tie resolves low threshold
    assert gini == pytest.approx(1.0 / 3.0)
    assert thr == pytest.approx(0.5)


def test_gini_respects_min_leaf():
    values = np.array([0.0, 1.0, 2.0, 3.0])
    codes = np.array([0, 0, 1, 1])
    gini, thr = _one_feature_split(values, codes, 2, 2)
    assert thr == pytest.approx(1.5)
    assert _one_feature_split(values, codes, 2, 3) is None


def test_gini_constant_feature_none():
    assert _one_feature_split(np.ones(6), np.array([0, 1] * 3), 2, 1) is None


def _adjacent_doubles():
    a = np.nextafter(1.0, 2.0)
    return a, np.nextafter(a, 2.0)


def test_gini_threshold_between_adjacent_doubles():
    # 0.5 * (a + b) rounds onto b, which would send every sample left
    a, b = _adjacent_doubles()
    values = np.array([a, a, b, b])
    _, thr = _one_feature_split(values, np.array([0, 0, 1, 1]), 2, 1)
    assert thr == a
    assert np.count_nonzero(values <= thr) == 2


def test_split_on_adjacent_doubles_keeps_both_children_non_empty():
    a, b = _adjacent_doubles()
    X = np.array([[a], [a], [b], [b]])
    data = Dataset.from_labels(X, ["x", "x", "y", "y"], ["g0", "g1", "g2", "g3"], ("f0",))
    params = ForestParams(n_trees=1, max_depth=1, bootstrap=False, features_per_split=1, seed=0)
    root = saved_trees(train(data, params))[0]
    assert root["left"]["cover"] == 2 and root["right"]["cover"] == 2
    assert root["left"]["counts"] == [2, 0] and root["right"]["counts"] == [0, 2]


_COARSE = (-1.0, 0.0, 0.5, 1.0, *_adjacent_doubles())


@st.composite
def _nodes(draw):
    """A node's data: coarse and adjacent-double values (ties, constant
    columns), bootstrap duplicates, and classes absent from the node."""
    n_rows = draw(st.integers(1, 30))
    n_features = draw(st.integers(1, 10))
    n_classes = draw(st.integers(1, 5))
    pool = st.sampled_from(_COARSE)
    if draw(st.booleans()):
        pool |= st.floats(-10, 10, allow_nan=False)
    X = np.array(draw(st.lists(st.lists(pool, min_size=n_features, max_size=n_features),
                               min_size=n_rows, max_size=n_rows)))
    for j in draw(st.lists(st.integers(0, n_features - 1), max_size=n_features)):
        X[:, j] = X[0, j]
    codes = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n_rows,
                                   max_size=n_rows)))
    idx = np.sort(np.array(draw(st.lists(st.integers(0, n_rows - 1), min_size=2, max_size=40))))
    feats = np.array(sorted(draw(st.sets(st.integers(0, n_features - 1), min_size=1))))
    min_leaf = draw(st.integers(1, max(1, len(idx) // 2)))
    return X, codes, n_classes, idx, feats, min_leaf


@settings(max_examples=300, deadline=None)
@given(_nodes())
def test_best_split_equals_one_hot_reference(node):
    X, codes, n_classes, idx, feats, min_leaf = node
    totals = np.bincount(codes[idx], minlength=n_classes)
    min_leafs = [min_leaf, 1, len(idx) // 2 + 1, min_leaf]
    got = _best_split(X, idx, feats, codes[idx], totals, min_leafs)
    want = [best_split(X, idx, feats, codes, n_classes, m) for m in min_leafs]
    assert got == want  # exact: gini, feature and threshold


def test_best_split_two_samples():
    X = np.array([[0.0, 5.0], [1.0, 5.0]])
    codes = np.array([1, 0])
    totals = np.bincount(codes, minlength=3)
    assert _best_split(X, np.arange(2), np.array([0, 1]), codes, totals, [1]) == [(0.0, 0, 0.5)]
    assert _best_split(X, np.arange(2), np.array([1]), codes, totals, [1]) == [None]


@pytest.mark.parametrize("params", [
    ForestParams(n_trees=3, bootstrap=False, seed=4),
    ForestParams(n_trees=3, max_depth=None, min_samples_leaf=3, seed=5),
    ForestParams(n_trees=3, max_depth=4, features_per_split=50, seed=6),
    ForestParams(n_trees=3, max_depth=None, min_samples_leaf=3, features_per_split=50,
                 bootstrap=False, seed=7),
])
def test_train_grows_the_reference_trees(params):
    data = _blobs(seed=2, sep=1.0)
    want = [grow_tree(data.X, data.y, len(data.class_names), params, _tree_rng(params.seed, i))
            for i in range(params.n_trees)]
    assert saved_trees(train(data, params)) == want


def _saved_grown(trees, n_features, n_classes):
    """The nested dicts that `model.json` holds for trees grown by `_grow_tree`."""
    model = ForestModel(FlatForest.from_records(trees), ForestParams(n_trees=len(trees)),
                        tuple(f"f{i}" for i in range(n_features)),
                        tuple(f"c{i}" for i in range(n_classes)))
    return saved_trees(model)


@st.composite
def _lattices(draw):
    """Training rows (ties, constant columns, absent classes) and a lattice of
    (max_depth, min_samples_leaf) variants, repeats allowed, for one tree."""
    n_rows = draw(st.integers(2, 60))
    n_features = draw(st.integers(1, 5))
    n_classes = draw(st.integers(1, 4))
    pool = st.sampled_from(_COARSE) | st.floats(-10, 10, allow_nan=False)
    X = np.array(draw(st.lists(st.lists(pool, min_size=n_features, max_size=n_features),
                               min_size=n_rows, max_size=n_rows)))
    codes = np.array(draw(st.lists(st.integers(0, n_classes - 1), min_size=n_rows,
                                   max_size=n_rows)))
    variants = draw(st.lists(st.tuples(st.sampled_from([None, 1, 2, 3, 5]), st.integers(1, 8)),
                             min_size=1, max_size=6))
    features_per_split = draw(st.integers(1, n_features + 1))
    return X, codes, n_classes, variants, features_per_split, draw(st.booleans())


@settings(max_examples=150, deadline=None)
@given(lattice=_lattices(), seed=st.integers(0, 2**64 - 1), tree_index=st.integers(0, 99))
def test_joint_growth_equals_separate_growth(lattice, seed, tree_index):
    X, codes, n_classes, variants, features_per_split, bootstrap = lattice
    joint = _grow_tree(X, codes, n_classes, features_per_split, bootstrap, variants,
                       _tree_rng(seed, tree_index))
    assert len(joint) == len(variants)
    for (max_depth, min_leaf), tree in zip(variants, joint):
        alone, = _grow_tree(X, codes, n_classes, features_per_split, bootstrap,
                            [(max_depth, min_leaf)], _tree_rng(seed, tree_index))
        params = ForestParams(n_trees=1, max_depth=max_depth, min_samples_leaf=min_leaf,
                              features_per_split=features_per_split, bootstrap=bootstrap)
        want = grow_tree(X, codes, n_classes, params, _tree_rng(seed, tree_index))
        assert tree == alone
        assert _saved_grown([tree], X.shape[1], n_classes) == [want]


def test_joint_growth_parts_variants_mid_tree():
    # depth caps and leaf minimums that bind at different nodes of one tree
    data = _blobs(seed=3, sep=1.0)
    variants = [(None, 1), (3, 1), (None, 6), (2, 12), (None, 1)]
    joint = _saved_grown(_grow_tree(data.X, data.y, 3, 2, True, variants, _tree_rng(9, 4)), 6, 3)
    for (max_depth, min_leaf), tree in zip(variants, joint):
        params = ForestParams(n_trees=1, max_depth=max_depth, min_samples_leaf=min_leaf,
                              features_per_split=2)
        assert tree == grow_tree(data.X, data.y, 3, params, _tree_rng(9, 4))
    assert len({json.dumps(t, sort_keys=True) for t in joint}) == 4


# --- training and prediction --------------------------------------------------


def test_separable_blobs_high_accuracy():
    data = _blobs()
    params = ForestParams(n_trees=25, max_depth=8, seed=3)
    model = train(data, params)
    acc = np.mean(predict(model, data.X) == data.y)
    assert acc > 0.98


def test_predict_proba_rows_sum_to_one():
    data = _blobs()
    model = train(data, ForestParams(n_trees=10, seed=1))
    proba = predict_proba(model, data.X[:17])
    assert proba.shape == (17, 3)
    np.testing.assert_allclose(proba.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(proba >= 0)


def test_single_stump_no_bootstrap_is_exact_cart():
    # one tree, no bootstrap, all features considered: split is the best
    # gini split of the full data; verify against a hand-checkable dataset
    X = np.array([[0.0], [1.0], [2.0], [3.0]])
    data = Dataset.from_labels(X, ["a", "a", "b", "b"], ["g0", "g1", "g2", "g3"], ("f0",))
    params = ForestParams(n_trees=1, max_depth=1, bootstrap=False, features_per_split=1, seed=0)
    model = train(data, params)
    root = saved_trees(model)[0]
    assert root["feature"] == 0
    assert root["threshold"] == pytest.approx(1.5)
    assert root["left"]["counts"] == [2, 0]
    assert root["right"]["counts"] == [0, 2]
    assert root["cover"] == 4


def test_cover_counts_consistent():
    data = _blobs(n_per=30)
    model = train(data, ForestParams(n_trees=5, max_depth=6, seed=2))

    def check(node):
        if "feature" in node:
            assert node["cover"] == node["left"]["cover"] + node["right"]["cover"]
            check(node["left"])
            check(node["right"])
        else:
            assert node["cover"] == sum(node["counts"])

    for t in saved_trees(model):
        assert t["cover"] == data.X.shape[0]  # bootstrap keeps N
        check(t)


def test_training_deterministic():
    data = _blobs()
    params = ForestParams(n_trees=12, max_depth=6, seed=7)
    assert train(data, params).to_json() == train(data, params).to_json()


def test_seed_changes_model():
    data = _blobs()
    m1 = train(data, ForestParams(n_trees=5, seed=0))
    m2 = train(data, ForestParams(n_trees=5, seed=1))
    assert m1.to_json() != m2.to_json()


def test_save_load_round_trip(tmp_path):
    data = _blobs(n_per=20)
    model = train(data, ForestParams(n_trees=4, max_depth=4, seed=5))
    path = tmp_path / "model.json"
    model.save(path)
    loaded = ForestModel.load(path)
    assert loaded.to_json() == model.to_json()
    np.testing.assert_array_equal(predict(loaded, data.X), predict(model, data.X))
    # byte-identical on re-save
    path2 = tmp_path / "model2.json"
    loaded.save(path2)
    assert path.read_bytes() == path2.read_bytes()


def test_load_of_saved_model_has_the_trained_arrays(tmp_path):
    model = train(_blobs(n_per=20, sep=1.0),
                  ForestParams(n_trees=5, max_depth=None, min_samples_leaf=2, seed=8))
    model.save(tmp_path / "model.json")
    loaded = ForestModel.load(tmp_path / "model.json")
    for name in FLAT_FIELDS:
        got, want = getattr(loaded.flat, name), getattr(model.flat, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)
    assert (loaded.params, loaded.feature_names, loaded.class_names) == (
        model.params, model.feature_names, model.class_names)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1), n_trees=st.integers(1, 4), depth=st.integers(0, 6))
def test_saved_dicts_equal_the_loaded_dicts(seed, n_trees, depth):
    # the references that walk saved dicts walk the trees they were given
    rng = np.random.default_rng(seed)
    trees = [forest_reference.random_tree(rng, 3, 2, depth, int(rng.integers(1, 200)))
             for _ in range(n_trees)]
    assert saved_trees(load_trees(trees, ("f0", "f1", "f2"), ("a", "b"))) == trees


def test_to_json_leaves_no_reference_cycle():
    # a cycle would hold the node lists until the cyclic collector ran, and
    # repeated saves then raised a process's peak memory
    model = train(_blobs(n_per=20), ForestParams(n_trees=3, max_depth=4, seed=5))
    gc.collect()
    model.to_json()
    assert gc.collect() == 0


def test_load_rejects_unknown_format(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text('{"format_version": 99}', encoding="utf-8")
    with pytest.raises(SchemaError):
        ForestModel.load(path)


def test_predict_wrong_width_rejected():
    data = _blobs(n_per=15)
    model = train(data, ForestParams(n_trees=2, seed=0))
    with pytest.raises(LmaError):
        predict(model, np.zeros((3, 99)))


def test_params_validation():
    for bad in (
        dict(n_trees=0),
        dict(max_depth=0),
        dict(min_samples_leaf=0),
        dict(features_per_split=0),
    ):
        with pytest.raises(LmaError):
            ForestParams(**bad)


# --- grouped stratified CV ------------------------------------------------------


def test_kfold_partitions_and_group_integrity():
    data = _blobs()
    folds = stratified_group_kfold(data.y, data.groups, k=3, seed=0)
    n = len(data.y)
    all_test = np.concatenate([t for _, t in folds])
    assert sorted(all_test.tolist()) == list(range(n))
    groups = np.asarray(data.groups, dtype=object)
    for train_idx, test_idx in folds:
        assert set(train_idx) & set(test_idx) == set()
        assert set(groups[train_idx]) & set(groups[test_idx]) == set()


def test_kfold_stratification_balance():
    data = _blobs()
    folds = stratified_group_kfold(data.y, data.groups, k=3, seed=0)
    for _, test_idx in folds:
        counts = np.bincount(data.y[test_idx], minlength=3)
        # 6 equal groups of 10 per class over 3 folds -> 2 groups per fold
        assert np.all(counts == 20)


def test_kfold_insufficient_groups_raises():
    y = np.array([0, 0, 1, 1])
    groups = ["a", "a", "b", "b"]
    with pytest.raises(LmaError):
        stratified_group_kfold(y, groups, k=3, seed=0)


@st.composite
def grouped_codes(draw):
    """(class codes, group ids) in shuffled row order.  Sizes of 1..4 rows tie
    often; a group's rows may mix classes and tie on its majority; some
    classes below the highest code may be absent; ids sort as strings."""
    n_classes = draw(st.integers(1, 4))
    y, groups = [], []
    for g in range(draw(st.integers(1, 16))):
        size = draw(st.integers(1, 4))
        y += draw(st.lists(st.integers(0, n_classes - 1), min_size=size, max_size=size))
        groups += [f"g{g}"] * size
    order = draw(st.permutations(range(len(y))))
    return np.array(y)[order], [groups[i] for i in order]


@settings(max_examples=300, deadline=None)
@given(rows=grouped_codes(), k=st.integers(2, 5), seed=st.integers(0, 2**32 - 1))
def test_kfold_equals_loop_reference(rows, k, seed):
    y, groups = rows

    def outcome(kfold):
        try:
            return [(tr.tolist(), te.tolist()) for tr, te in kfold(y, groups, k=k, seed=seed)]
        except LmaError as e:
            return str(e)

    assert outcome(stratified_group_kfold) == outcome(forest_reference.stratified_group_kfold)


def test_kfold_deterministic_per_seed():
    data = _blobs()
    f1 = stratified_group_kfold(data.y, data.groups, k=3, seed=4)
    f2 = stratified_group_kfold(data.y, data.groups, k=3, seed=4)
    for (a, b), (c, d) in zip(f1, f2):
        np.testing.assert_array_equal(a, c)
        np.testing.assert_array_equal(b, d)


def test_cross_val_accuracy_high_on_separable():
    data = _blobs()
    accs = cross_val_accuracy(data, ForestParams(n_trees=15, max_depth=8, seed=0), k=3)
    assert len(accs) == 3
    assert np.mean(accs) > 0.95


# --- grid search --------------------------------------------------------------


def test_expand_grid_cartesian():
    pts = expand_grid({"n_trees": [5, 10], "max_depth": [2, None]})
    assert len(pts) == 4
    combos = {(p.n_trees, p.max_depth) for p in pts}
    assert combos == {(5, 2), (5, None), (10, 2), (10, None)}


def test_grid_search_prefers_smaller_on_tie():
    data = _blobs()
    grid = {"n_trees": [5, 10], "max_depth": [8]}
    best, report = grid_search(data, grid, k=3, seed=0)
    assert len(report) == 2
    accs = {r["params"].n_trees: r["mean_accuracy"] for r in report}
    if accs[5] == accs[10]:
        assert best.n_trees == 5
    else:
        assert best.n_trees == max(accs, key=accs.get)


def test_grid_search_empty_raises():
    with pytest.raises(LmaError):
        grid_search(_blobs(n_per=20), [], k=3)


# --- metrics ----------------------------------------------------------------


def test_metrics_hand_computed():
    # classes a, b; true = a a b b, pred = a b b b
    y_true = np.array([0, 0, 1, 1])
    y_pred = np.array([0, 1, 1, 1])
    m = metrics(y_true, y_pred, ("a", "b"))
    a, b = m["per_class"]["a"], m["per_class"]["b"]
    assert a["precision"] == 1.0 and a["recall"] == 0.5
    assert a["f1"] == pytest.approx(2 / 3)
    assert b["precision"] == pytest.approx(2 / 3) and b["recall"] == 1.0
    assert b["f1"] == pytest.approx(0.8)
    assert m["macro"]["f1"] == pytest.approx((2 / 3 + 0.8) / 2)
    assert a["support"] == 2 and b["support"] == 2
    assert not a["zero_division"]


def test_metrics_zero_division_flagged():
    m = metrics(np.array([0, 0]), np.array([0, 0]), ("a", "b"))
    assert m["per_class"]["b"]["zero_division"]
    assert m["per_class"]["b"]["f1"] == 0.0


@settings(max_examples=300, deadline=None)
@given(n_classes=st.integers(1, 5), n=st.integers(0, 40), data=st.data())
def test_metrics_equal_mask_reference(n_classes, n, data):
    codes = st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)
    y_true, y_pred = np.array(data.draw(codes), dtype=int), np.array(data.draw(codes), dtype=int)
    names = tuple(f"c{i}" for i in range(n_classes))
    # json tells 1 from 1.0 and True, and prints floats exactly
    assert (json.dumps(metrics(y_true, y_pred, names))
            == json.dumps(forest_reference.metrics(y_true, y_pred, names)))


def test_metrics_rejects_codes_outside_class_names():
    with pytest.raises(LmaError, match="outside class_names"):
        metrics(np.array([0, 2]), np.array([0, 1]), ("a", "b"))
    with pytest.raises(LmaError, match="outside class_names"):
        metrics(np.array([0, 1]), np.array([-1, 1]), ("a", "b"))


def test_metrics_length_mismatch():
    with pytest.raises(LmaError):
        metrics(np.array([0]), np.array([0, 1]), ("a", "b"))


def test_dataset_validation():
    with pytest.raises(LmaError):
        Dataset(np.zeros((2, 2)), np.array([0, 5]), ("g", "g"), ("a", "b"), ("x",))
    with pytest.raises(LmaError):
        Dataset(np.array([[np.nan, 0.0]]), np.array([0]), ("g",), ("a", "b"), ("x",))


# --- flat-array forest ----------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_trees=st.integers(1, 4),
    n_features=st.integers(1, 4),
    n_classes=st.integers(1, 3),
    depth=st.integers(0, 5),
)
def test_predict_proba_equals_dict_walk(seed, n_trees, n_features, n_classes, depth):
    model, X = random_forest(seed, n_trees, n_features, n_classes, depth)
    np.testing.assert_array_equal(predict_proba(model, X), dict_predict_proba(model, X))


def test_trained_predict_proba_equals_dict_walk():
    data = _blobs()
    model = train(data, ForestParams(n_trees=10, max_depth=7, seed=4))
    np.testing.assert_array_equal(predict_proba(model, data.X), dict_predict_proba(model, data.X))


def test_flat_base_equals_per_tree_expectation():
    model, X = random_forest(5, 4, 3, 3, 5)
    np.testing.assert_array_equal(model.flat.base, per_row_tree_shap(model, X[0])[1])


def test_flat_arrays_layout():
    stump = {"feature": 1, "threshold": 0.5, "cover": 3,
             "left": {"counts": [2, 0], "cover": 2}, "right": {"counts": [0, 1], "cover": 1}}
    flat = load_trees([stump, {"counts": [2, 0], "cover": 2}], ("f0", "f1"), ("a", "b")).flat
    np.testing.assert_array_equal(flat.feature, [1, -1, -1, -1])
    np.testing.assert_array_equal(flat.left, [1, 1, 2, 3])
    np.testing.assert_array_equal(flat.right, [2, 1, 2, 3])
    np.testing.assert_array_equal(flat.roots, [0, 3])
    np.testing.assert_array_equal(flat.depth, [1, 0])
    np.testing.assert_array_equal(flat.counts, [[0, 0], [2, 0], [0, 1], [2, 0]])
    np.testing.assert_array_equal(flat.value[3], [1.0, 0.0])
    np.testing.assert_allclose(flat.base, [(2 / 3 + 1.0) / 2, (1 / 3) / 2])


def _saved_model():
    model = train(_blobs(n_per=20), ForestParams(n_trees=3, max_depth=3, seed=1))
    return json.loads(model.to_json())


@pytest.mark.parametrize("case", [
    "feature_out_of_range", "bool_feature", "nan_threshold", "negative_cover", "empty_split",
    "cover_sum", "count_sum", "negative_count", "counts_width", "child_not_object", "missing_child",
    "no_trees", "tree_count", "bad_param_type", "unknown_param", "param_range",
    "duplicate_class", "not_an_object",
])
def test_load_rejects_malformed_model(tmp_path, case):
    payload = _saved_model()
    root = payload["trees"][0]
    assert "feature" in root
    leaf = root
    while "feature" in leaf:
        leaf = leaf["left"]
    edits = {
        "feature_out_of_range": lambda: root.update(feature=6),
        "bool_feature": lambda: root.update(feature=True),
        "nan_threshold": lambda: root.update(threshold=float("nan")),
        "negative_cover": lambda: leaf.update(cover=-1),
        "empty_split": lambda: root.update(cover=0),
        "cover_sum": lambda: root.update(cover=root["cover"] + 1),
        "count_sum": lambda: leaf.update(counts=[c + 1 for c in leaf["counts"]]),
        "negative_count": lambda: leaf.update(counts=[-1] + leaf["counts"][1:]),
        "counts_width": lambda: leaf.update(counts=leaf["counts"] + [0]),
        "child_not_object": lambda: root.update(left=[1, 2]),
        "missing_child": lambda: root.pop("right"),
        "no_trees": lambda: payload.update(trees=[]),
        "tree_count": lambda: payload["trees"].pop(),
        "bad_param_type": lambda: payload["params"].update(n_trees="3"),
        "unknown_param": lambda: payload["params"].update(colour=1),
        "param_range": lambda: payload["params"].update(min_samples_leaf=0),
        "duplicate_class": lambda: payload["class_names"].__setitem__(1, payload["class_names"][0]),
        "not_an_object": lambda: None,
    }
    edits[case]()
    if case == "not_an_object":
        payload = [1, 2]
    path = tmp_path / "model.json"
    path.write_text(json.dumps(payload), encoding="utf-8")
    with pytest.raises(SchemaError, match="model.json"):
        ForestModel.load(path)


def test_shared_node_object_rejected():
    leaf = {"counts": [1, 1], "cover": 2}
    tree = {"feature": 0, "threshold": 0.0, "cover": 4, "left": leaf, "right": leaf}
    with pytest.raises(SchemaError, match="twice"):
        load_trees([tree], ("f0",), ("a", "b"))


FLAT_FIELDS = ("feature", "threshold", "left", "right", "cover", "counts", "value", "roots", "depth",
               "base")


def _flattened(flatten, trees, n_features, n_classes):
    """The arrays `flatten` builds from `trees`, or its SchemaError's text."""
    try:
        flat = flatten(trees, n_features, n_classes)
    except SchemaError as e:
        return str(e)
    return {name: getattr(flat, name) for name in FLAT_FIELDS}


def _assert_same_flattening(trees, n_features, n_classes):
    got = _flattened(FlatForest.from_trees, trees, n_features, n_classes)
    want = _flattened(forest_reference.flat_from_trees, trees, n_features, n_classes)
    if isinstance(want, str):
        assert got == want
        return
    assert not isinstance(got, str), got
    for name in FLAT_FIELDS:
        assert got[name].dtype == want[name].dtype, name
        np.testing.assert_array_equal(got[name], want[name], err_msg=name)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_trees=st.integers(1, 4),
    n_features=st.integers(1, 4),
    n_classes=st.integers(1, 3),
    depth=st.integers(0, 6),
)
def test_flattening_equals_per_node_walk(seed, n_trees, n_features, n_classes, depth):
    model, _ = random_forest(seed, n_trees, n_features, n_classes, depth)
    _assert_same_flattening(saved_trees(model), n_features, n_classes)


def test_trained_flattening_equals_per_node_walk():
    model = train(_blobs(), ForestParams(n_trees=6, max_depth=None, min_samples_leaf=2, seed=3))
    _assert_same_flattening(saved_trees(model), model.n_features, model.n_classes)


# Edits that make a node malformed, or leave it well formed in an unusual
# way (an int threshold, a float that holds an integer is still refused).
NODE_EDITS = (
    ("cover", -1), ("cover", 0), ("cover", 1.0), ("cover", True), ("cover", "3"), ("cover", None),
    ("cover", 10**30), ("feature", -1), ("feature", 99), ("feature", True), ("feature", 1.0),
    ("feature", 10**30), ("threshold", math.nan), ("threshold", math.inf), ("threshold", None),
    ("threshold", "0.5"), ("threshold", True), ("threshold", 0), ("counts", None), ("counts", (1, 1)),
    ("counts", [1]), ("counts", [1, 2, 3, 4]), ("counts", [-1, 5]), ("counts", [1.5, 1]),
    ("counts", [True, 0]), ("left", None), ("right", [1, 2]), ("left", "leaf"),
)


def _forest_nodes(trees):
    """Every node of `trees` in walk order."""
    nodes = []
    for tree in trees:
        stack = [tree]
        while stack:
            node = stack.pop()
            nodes.append(node)
            if "feature" in node:
                stack += [node["right"], node["left"]]
    return nodes


def _edit(trees, nodes, at, kind):
    node = nodes[at % len(nodes)]
    if kind < len(NODE_EDITS):
        key, value = NODE_EDITS[kind]
        node[key] = value
    elif kind == len(NODE_EDITS):
        node.pop(("cover", "threshold", "counts", "right")[at % 4], None)
    elif kind == len(NODE_EDITS) + 1:
        node["feature"], node["threshold"], node["left"], node["right"] = 0, 0.0, node, node
    elif kind == len(NODE_EDITS) + 2:
        trees[at % len(trees)] = ["not", "a", "node"]
    else:
        node["left"] = nodes[(at // 7) % len(nodes)]  # often shared, sometimes a cycle


def test_each_node_edit_raises_as_per_node_walk():
    # every edit at every node of a small forest, one at a time
    n_nodes = len(_forest_nodes(saved_trees(random_forest(2, 3, 3, 2, 4)[0])))
    for at in range(n_nodes):
        for kind in range(len(NODE_EDITS) + 4):
            trees = saved_trees(random_forest(2, 3, 3, 2, 4)[0])
            _edit(trees, _forest_nodes(trees), at, kind)
            _assert_same_flattening(tuple(trees), 3, 2)


@settings(max_examples=150, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_trees=st.integers(1, 3),
    depth=st.integers(0, 4),
    edits=st.lists(st.tuples(st.integers(0, 10**6), st.integers(0, len(NODE_EDITS) + 3)),
                   min_size=1, max_size=3),
)
def test_malformed_flattening_raises_as_per_node_walk(seed, n_trees, depth, edits):
    # the first malformed node in walk order is named, with the same words,
    # wherever in the forest the edits land
    model, _ = random_forest(seed, n_trees, 3, 2, depth)
    trees = saved_trees(model)
    nodes = _forest_nodes(trees)
    for at, kind in edits:
        _edit(trees, nodes, at, kind)
    _assert_same_flattening(tuple(trees), 3, 2)


def test_grid_search_keeps_out_of_fold_predictions():
    # every point scored as a separate `train` + `predict` of each fold would score it
    data = _blobs(n_per=30, sep=1.0)
    grid = {"n_trees": [3, 7, 1], "max_depth": [2, None], "min_samples_leaf": [1, 6],
            "features_per_split": [2, 3]}
    best, report = grid_search(data, grid, k=3, seed=2)
    assert [r["params"] for r in report] == [replace(p, seed=2) for p in expand_grid(grid)]
    folds = stratified_group_kfold(data.y, data.groups, k=3, seed=2)
    correct = []
    for entry in report:
        expected = np.empty(len(data.y), dtype=int)
        for tr, te in folds:
            sub = Dataset(data.X[tr], data.y[tr], tuple(data.groups[i] for i in tr),
                          data.feature_names, data.class_names)
            expected[te] = predict(train(sub, entry["params"]), data.X[te])
        np.testing.assert_array_equal(entry["predictions"], expected)
        accs = [float(np.mean(expected[te] == data.y[te])) for _, te in folds]
        assert entry["fold_accuracies"] == accs
        assert entry["fold_accuracies"] == cross_val_accuracy(data, entry["params"], k=3, seed=2)
        assert entry["mean_accuracy"] == float(np.mean(accs))
        correct.append([int(np.sum(expected[te] == data.y[te])) for _, te in folds])
    sizes = [len(te) for _, te in folds]
    assert best is report[_best_point([r["params"] for r in report], correct, sizes)]["params"]


def test_best_point_ranks_exact_means():
    # three 110-row folds with 306 of 330 rows right: equal means whose float
    # means differ in the last bit
    points = [ForestParams(n_trees=20, max_depth=6, min_samples_leaf=m) for m in (1, 2, 4, 8)]
    correct = [[99, 100, 105], [99, 100, 107], [100, 99, 107], [101, 99, 106]]
    sizes = [110, 110, 110]
    floats = [float(np.mean([c / s for c, s in zip(hits, sizes)])) for hits in correct]
    assert floats[3] > floats[2] and floats[1] == floats[2]
    assert _best_point(points, correct, sizes) == 1


def test_best_point_tie_rule():
    points = [ForestParams(n_trees=n, max_depth=d) for n, d in
              [(10, None), (10, 4), (5, None), (5, 8), (5, 8), (20, 2)]]
    correct = [[3, 4]] * len(points)
    assert _best_point(points, correct, [5, 5]) == 3  # fewer trees, then shallower, then first
    correct[5] = [4, 4]
    assert _best_point(points, correct, [5, 5]) == 5
