import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import brute_shap
from forest_reference import (
    load_trees,
    per_row_tree_shap,
    random_forest,
    row_batched_tree_shap,
    write_explanations_csv_per_row,
)
from lmakit import explain
from lmakit.errors import LmaError
from lmakit.explain import (
    _BLOCK,
    _RUN,
    ShapExplanation,
    _runs,
    mean_abs_phi,
    rank_features,
    tree_shap,
    write_explanations_csv,
    write_summary_csv,
)
from lmakit.forest import Dataset, ForestParams, predict_proba, train


def _small_forest(seed=0, n_trees=5, max_depth=3, n_features=6, n_per=40):
    rng = np.random.default_rng(seed)
    X, y, groups = [], [], []
    for c in range(3):
        center = np.zeros(n_features)
        center[c % n_features] = 2.5
        X.append(rng.normal(center, 1.0, (n_per, n_features)))
        y += [f"c{c}"] * n_per
        groups += [f"g{c}_{i % 4}" for i in range(n_per)]
    data = Dataset.from_labels(
        np.vstack(X), y, groups, tuple(f"f{i}" for i in range(n_features))
    )
    params = ForestParams(
        n_trees=n_trees, max_depth=max_depth, features_per_split=n_features, seed=seed
    )
    return train(data, params), data


def _hand_model(trees, n_features=2, class_names=("a", "b")):
    return load_trees(trees, [f"f{i}" for i in range(n_features)], class_names)


STUMP = {
    "feature": 0,
    "threshold": 0.5,
    "cover": 10,
    "left": {"counts": [6, 0], "cover": 6},
    "right": {"counts": [0, 4], "cover": 4},
}


def test_stump_attribution_hand_computed():
    # single split on f0, cover 6/4: base = (0.6, 0.4); x with f0 <= 0.5
    # lands in the pure left leaf, so phi_f0 = leaf - base = (0.4, -0.4)
    model = _hand_model([STUMP])
    exp = tree_shap(model, np.array([0.0, 9.9]))
    np.testing.assert_allclose(exp.base, [0.6, 0.4], atol=1e-12)
    np.testing.assert_allclose(exp.phi[:, 0], [0.4, -0.4], atol=1e-12)
    np.testing.assert_allclose(exp.phi[:, 1], 0.0, atol=1e-12)
    np.testing.assert_allclose(exp.prediction(), [1.0, 0.0], atol=1e-12)


def test_dummy_feature_gets_exact_zero():
    model = _hand_model([STUMP])
    exp = tree_shap(model, np.array([0.7, -3.0]))
    assert np.all(exp.phi[:, 1] == 0.0)


def test_symmetric_tree_splits_credit_equally():
    # two-level tree splitting on f0 then f1, all covers equal and leaves
    # arranged so both features play interchangeable roles
    leaf = lambda p: {"counts": [int(8 * p), int(8 * (1 - p))], "cover": 8}
    tree = {
        "feature": 0,
        "threshold": 0.0,
        "cover": 32,
        "left": {
            "feature": 1,
            "threshold": 0.0,
            "cover": 16,
            "left": leaf(1.0),
            "right": leaf(0.5),
        },
        "right": {
            "feature": 1,
            "threshold": 0.0,
            "cover": 16,
            "left": leaf(0.5),
            "right": leaf(0.0),
        },
    }
    model = _hand_model([tree])
    exp = tree_shap(model, np.array([-1.0, -1.0]))
    np.testing.assert_allclose(exp.phi[:, 0], exp.phi[:, 1], atol=1e-12)
    np.testing.assert_allclose(exp.prediction(), [1.0, 0.0], atol=1e-12)


@pytest.mark.parametrize("seed", range(6))
def test_matches_brute_subset_oracle(seed):
    model, data = _small_forest(seed=seed, n_trees=4, max_depth=3)
    rng = np.random.default_rng(100 + seed)
    for _ in range(3):
        x = data.X[rng.integers(0, data.X.shape[0])]
        exp = tree_shap(model, x)
        np.testing.assert_allclose(exp.phi, brute_shap(model, x), atol=1e-9)


def test_matches_conftest_oracle_single_tree():
    model, data = _small_forest(seed=3, n_trees=1, max_depth=3)
    x = data.X[7]
    np.testing.assert_allclose(tree_shap(model, x).phi, brute_shap(model, x), atol=1e-9)


@pytest.mark.parametrize("seed", range(4))
def test_local_accuracy(seed):
    model, data = _small_forest(seed=seed, n_trees=8, max_depth=4)
    for x in data.X[::17]:
        exp = tree_shap(model, x)
        np.testing.assert_allclose(
            exp.prediction(), predict_proba(model, x)[0], atol=1e-9
        )


def test_tree_shap_input_validation():
    model = _hand_model([STUMP])
    with pytest.raises(LmaError):
        tree_shap(model, np.zeros(5))
    with pytest.raises(LmaError):
        tree_shap(model, np.array([np.nan, 0.0]))


def test_missing_covers_rejected():
    bad = {
        "feature": 0,
        "threshold": 0.5,
        "left": {"counts": [1, 0], "cover": 1},
        "right": {"counts": [0, 1], "cover": 1},
    }
    with pytest.raises(LmaError, match="cover"):
        _hand_model([bad])


# --- summaries and CSV ------------------------------------------------------------


def _fake_explanation():
    """Two rows, two classes, three features."""
    phi = np.array([
        [[0.1, -0.3, 0.0], [-0.1, 0.3, 0.0]],
        [[0.2, -0.1, 0.0], [-0.2, 0.1, 0.0]],
    ])
    return ShapExplanation(
        phi=phi, base=np.array([0.5, 0.5]), x=np.zeros((2, 3)),
        class_names=("a", "b"), feature_names=("f0", "f1", "f2"),
    )


def test_summary_rank_mean_abs_ordering():
    e = _fake_explanation()
    ranking = rank_features(e.feature_names, mean_abs_phi(e)[1])
    # mean |phi|: f0 = 0.15, f1 = 0.2, f2 = 0
    assert [r[1] for r in ranking] == ["f1", "f0", "f2"]
    assert ranking[0][2] == pytest.approx(0.2)
    assert ranking[1][2] == pytest.approx(0.15)


def test_summary_rank_tie_breaks_by_index():
    names = ("f0", "f1")
    e = ShapExplanation(
        phi=np.array([[0.2, 0.2]]), base=np.array([0.5]), x=np.zeros(2),
        class_names=("a",), feature_names=names,
    )
    ranking = rank_features(names, mean_abs_phi(e)[1])
    assert [r[1] for r in ranking] == ["f0", "f1"]


def test_summary_rank_empty_raises():
    empty = ShapExplanation(
        phi=np.zeros((0, 2, 3)), base=np.array([0.5, 0.5]), x=np.zeros((0, 3)),
        class_names=("a", "b"), feature_names=("f0", "f1", "f2"),
    )
    with pytest.raises(LmaError):
        mean_abs_phi(empty)


def test_csv_writers(tmp_path):
    exp = _fake_explanation()
    p1 = tmp_path / "explanations.csv"
    p2 = tmp_path / "summary.csv"
    write_explanations_csv(exp, p1)
    write_summary_csv(rank_features(exp.feature_names, mean_abs_phi(exp)[1]), p2)
    lines = p1.read_text(encoding="utf-8").strip().split("\n")
    assert lines[0] == "instance,class,feature,phi,base"
    assert len(lines) == 1 + 2 * 2 * 3
    assert lines[1].startswith("0,a,f0,")
    assert lines[7].startswith("1,a,f0,")
    s = p2.read_text(encoding="utf-8").strip().split("\n")
    assert s[0] == "feature,mean_abs_phi,rank"
    assert s[1].split(",") == ["f1", "0.2", "1"]


# --- row-batched TreeSHAP ---------------------------------------------------------


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    n_trees=st.integers(1, 3),
    n_features=st.integers(1, 4),
    n_classes=st.integers(1, 3),
    depth=st.integers(0, 5),
)
def test_batched_matches_per_row_recursion_and_oracle(seed, n_trees, n_features, n_classes, depth):
    model, X = random_forest(seed, n_trees, n_features, n_classes, depth)
    exp = tree_shap(model, X)
    assert exp.phi.shape == (len(X), n_classes, n_features)
    np.testing.assert_allclose(exp.phi, row_batched_tree_shap(model, X), rtol=0, atol=1e-15)
    for row, phi in zip(X, exp.phi):
        ref_phi, ref_base = per_row_tree_shap(model, row)
        np.testing.assert_allclose(phi, ref_phi, rtol=0, atol=1e-15)
        np.testing.assert_array_equal(exp.base, ref_base)
        np.testing.assert_allclose(phi, brute_shap(model, row), rtol=0, atol=1e-9)
    np.testing.assert_allclose(exp.prediction(), predict_proba(model, X), rtol=0, atol=1e-12)


def _chain_tree(rng, n_splits, features=(0, 1)):
    """A chain of splits alternating between two features: each split has a
    leaf on a random side and the rest of the chain on the other."""

    def leaf():
        cover = int(rng.integers(1, 6))
        return {"counts": rng.multinomial(cover, [0.5, 0.5]).tolist(), "cover": cover}

    node = leaf()
    for k in range(n_splits):
        side = leaf()
        left, right = (side, node) if rng.random() < 0.5 else (node, side)
        node = {"feature": features[k % 2], "threshold": float(rng.uniform(-1.0, 1.0)),
                "cover": left["cover"] + right["cover"], "left": left, "right": right}
    return node


def test_deep_chain_matches_row_batched_reference_and_oracle():
    # 70 splits: a leaf's followed-split key spans three 31-column chunks,
    # and 300 rows of it take more than one pass of _BLOCK cells
    rng = np.random.default_rng(11)
    model = _hand_model([_chain_tree(rng, 70)])
    X = rng.uniform(-1.0, 1.0, size=(300, 2))
    paths = model.flat.leaf_paths(0, 1)
    assert paths.splits.shape[1] == 70
    assert len(X) * len(paths.leaves) * paths.splits.shape[1] > _BLOCK
    exp = tree_shap(model, X)
    assert np.array_equal(exp.phi, row_batched_tree_shap(model, X))
    for x, phi in zip(X, exp.phi):
        np.testing.assert_allclose(phi, brute_shap(model, x), rtol=0, atol=1e-9)
    np.testing.assert_allclose(exp.prediction(), predict_proba(model, X), rtol=0, atol=1e-9)


def test_batch_rows_equal_single_rows():
    model, data = _small_forest(seed=2, n_trees=6, max_depth=5)
    exp = tree_shap(model, data.X[:20])
    for row, phi in zip(data.X[:20], exp.phi):
        np.testing.assert_array_equal(tree_shap(model, row).phi, phi)


def _full_tree(rng, features, depth):
    """A full tree of `depth` levels, each split on a random one of `features`."""
    if depth == 0:
        cover = int(rng.integers(1, 6))
        return {"counts": rng.multinomial(cover, [0.5, 0.5]).tolist(), "cover": cover}
    left, right = (_full_tree(rng, features, depth - 1) for _ in range(2))
    return {"feature": int(rng.choice(features)), "threshold": float(rng.uniform(-1.0, 1.0)),
            "cover": left["cover"] + right["cover"], "left": left, "right": right}


def test_run_of_disjoint_trees_matches_recursion_and_oracle():
    # four trees on features {0, 1}, {2, 3}, {4, 5}, {6, 7}: a run of them
    # holds all eight, wider than any one tree; features 8 and 9 are unused
    rng = np.random.default_rng(5)
    model = _hand_model([_full_tree(rng, (2 * t, 2 * t + 1), 3) for t in range(4)], n_features=10)
    X = rng.uniform(-1.0, 1.0, size=(6, 10))
    assert [run[:2] for run in _runs(model.flat, len(X))] == [(0, 4)]
    # 32 leaves, each row 9 cells wide (8 features + 1): the run is sized by the union
    assert len(_runs(model.flat, _RUN // (32 * 9))) == 1
    assert len(_runs(model.flat, _RUN // (32 * 9) + 1)) == 2
    assert len(model.flat.leaf_paths(0, 4).used) == 8
    assert max(len(model.flat.leaf_paths(t, t + 1).used) for t in range(4)) == 2
    exp = tree_shap(model, X)
    assert np.all(exp.phi[..., 8:] == 0.0)
    for x, phi in zip(X, exp.phi):
        np.testing.assert_allclose(phi, per_row_tree_shap(model, x)[0], rtol=0, atol=1e-15)
        np.testing.assert_allclose(phi, brute_shap(model, x), rtol=0, atol=1e-9)
    np.testing.assert_allclose(exp.prediction(), predict_proba(model, X), rtol=0, atol=1e-12)


def test_one_row_makes_one_run():
    model, data = _small_forest(seed=1, n_trees=20, max_depth=6)
    assert [run[:2] for run in _runs(model.flat, 1)] == [(0, 20)]
    exp = tree_shap(model, data.X[0])
    np.testing.assert_allclose(exp.prediction(), predict_proba(model, data.X[0])[0], rtol=0, atol=1e-12)


def test_large_batch_runs_one_tree_per_pass_in_row_blocks():
    # three 70-split chains on disjoint feature pairs: 600 rows of one chain
    # exceed _RUN, and more than one _BLOCK, so each tree is its own run and
    # takes several passes; that is the row-batched reference's schedule
    rng = np.random.default_rng(12)
    model = _hand_model([_chain_tree(rng, 70, (2 * t, 2 * t + 1)) for t in range(3)], n_features=7)
    X = rng.uniform(-1.0, 1.0, size=(600, 7))
    runs = _runs(model.flat, len(X))
    assert [run[:2] for run in runs] == [(0, 1), (1, 2), (2, 3)]
    assert all(len(X) * 71 * 70 > max(_RUN, _BLOCK) and step < len(X) / 2 for _, _, step in runs)
    exp = tree_shap(model, X)
    assert np.array_equal(exp.phi, row_batched_tree_shap(model, X))
    assert np.all(exp.phi[..., 6] == 0.0)
    for x, phi in zip(X[:20], exp.phi):
        np.testing.assert_allclose(phi, per_row_tree_shap(model, x)[0], rtol=0, atol=1e-15)
    # one row alone takes all three chains in one run
    assert [run[:2] for run in _runs(model.flat, 1)] == [(0, 3)]
    np.testing.assert_allclose(tree_shap(model, X[0]).phi, exp.phi[0], rtol=0, atol=1e-15)
    np.testing.assert_allclose(exp.prediction(), predict_proba(model, X), rtol=0, atol=1e-12)


def test_batched_explanation_csv_matches_per_row_writer(tmp_path):
    model, data = _small_forest(seed=4, n_trees=3, max_depth=3)
    exp = tree_shap(model, data.X[:9])
    write_explanations_csv(exp, tmp_path / "batched.csv")
    write_explanations_csv_per_row([tree_shap(model, x) for x in data.X[:9]], tmp_path / "rows.csv")
    assert (tmp_path / "batched.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


def test_csv_quotes_names_like_csv_writer(tmp_path):
    e = ShapExplanation(
        phi=np.array([[[0.5, -0.25], [1.5, 2.0]]]), base=np.array([0.125, 0.875]),
        x=np.zeros((1, 2)), class_names=('a,"b"', "5% of %s"), feature_names=("f 0", "f\n1"),
    )
    path = tmp_path / "q.csv"
    write_explanations_csv(e, path)
    assert path.read_text(encoding="utf-8") == (
        'instance,class,feature,phi,base\n'
        '0,"a,""b""",f 0,0.5,0.125\n'
        '0,"a,""b""","f\n1",-0.25,0.125\n'
        '0,5% of %s,f 0,1.5,0.875\n'
        '0,5% of %s,"f\n1",2,0.875\n'
    )


def test_csv_quotes_each_name_like_the_per_row_writer(tmp_path):
    classes, features = ("", 'a,"b"', "5% of %s", "c\rd"), ("", "f 0", "f\n1", '"')
    rng = np.random.default_rng(3)
    rows = [ShapExplanation(phi=rng.normal(size=(4, 4)), base=np.full(4, 0.25), x=np.zeros(4),
                            class_names=classes, feature_names=features) for _ in range(2)]
    batched = ShapExplanation(phi=np.stack([r.phi for r in rows]), base=rows[0].base,
                              x=np.zeros((2, 4)), class_names=classes, feature_names=features)
    write_explanations_csv(batched, tmp_path / "batched.csv")
    write_explanations_csv_per_row(rows, tmp_path / "rows.csv")
    assert (tmp_path / "batched.csv").read_bytes() == (tmp_path / "rows.csv").read_bytes()


@pytest.mark.parametrize("lines", [1, 6, 13, 1 << 13])
def test_block_writer_matches_per_row_writer(tmp_path, monkeypatch, lines):
    # 6 lines an instance: blocks of 1, 1, 2 and all 9 instances; the pool
    # repeats values within and across blocks, and holds both zeros and two
    # bit patterns that %.9g writes alike
    monkeypatch.setattr(explain, "_LINES", lines)
    pool = np.array([0.0, -0.0, 0.1, -0.1, 1 / 3, np.nextafter(1 / 3, 1.0), 5e-324, -2.5e300])
    phi = np.random.default_rng(6).choice(pool, size=(9, 2, 3))
    phi[0, 0, :2] = phi[4, 1, 1:] = 0.0, -0.0
    names = {"class_names": ("a", 'b,"c"'), "feature_names": ("f0", "f 1", "5% of %s")}
    base = np.array([0.25, -0.0])
    rows = [ShapExplanation(phi=p, base=base, x=np.zeros(3), **names) for p in phi]
    write_explanations_csv(ShapExplanation(phi=phi, base=base, x=np.zeros((9, 3)), **names),
                           tmp_path / "blocks.csv")
    write_explanations_csv_per_row(rows, tmp_path / "rows.csv")
    text = (tmp_path / "blocks.csv").read_bytes()
    assert text == (tmp_path / "rows.csv").read_bytes()
    assert b"\n0,a,f0,0,0.25\n0,a,f 1,-0,0.25\n" in text


def test_empty_leaf_attributes_finitely():
    # a split whose threshold rounded onto its upper value leaves one child
    # covering nothing, as training can produce
    tree = {
        "feature": 0, "threshold": 0.5, "cover": 6,
        "left": {
            "feature": 1, "threshold": 0.0, "cover": 6,
            "left": {"counts": [4, 2], "cover": 6},
            "right": {"counts": [0, 0], "cover": 0},
        },
        "right": {"counts": [0, 0], "cover": 0},
    }
    model = _hand_model([tree, STUMP])
    X = np.array([[0.0, -1.0], [0.0, 1.0], [1.0, -1.0], [1.0, 1.0]])
    exp = tree_shap(model, X)
    assert np.all(np.isfinite(exp.phi))
    np.testing.assert_allclose(exp.prediction(), predict_proba(model, X), atol=1e-12)
    for x, phi in zip(X, exp.phi):
        np.testing.assert_allclose(phi, brute_shap(model, x), atol=1e-12)
