"""Acceptance gate: eight end-to-end criteria, one PASS/FAIL line each.

The verdict lines are echoed in the terminal summary (see conftest) so they
survive pytest's output capture.  Expensive artifacts (the 10-style corpus,
its per-sequence kinematic primitives and the window-feature datasets) are
built once per module and shared across criteria.
"""

import time

import numpy as np
import pytest

import conftest
from conftest import (
    brute_hull_volume,
    brute_shap,
    make_sequence,
    pair_enumeration_pinball_oracle,
    static_pose_positions,
)
from lmakit.cli import main as cli_main
from lmakit.explain import tree_shap
from lmakit.features import (
    FEATURE_NAMES,
    FeatureTable,
    LmaConfig,
    SequencePrimitives,
    assemble_features,
    _effort_space_ratios,
)
from lmakit.floor import fit_floor
from lmakit.forest import (
    Dataset,
    ForestParams,
    cross_val_accuracy,
    metrics,
    predict,
    predict_proba,
    stratified_group_kfold,
    train,
)
from lmakit.hull import hull_volume
from lmakit.kinematics import WindowConfig, derivative
from lmakit.synth import default_styles, generate_corpus

FPS = 60.0
DT = 1.0 / FPS
FOREST = ForestParams(n_trees=20, max_depth=12, seed=42)


def _verdict(num, desc, ok):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {desc}"
    conftest.ACCEPTANCE_VERDICTS.append(line)
    print(line)
    assert ok, line


@pytest.fixture(scope="module")
def timings():
    return {}


@pytest.fixture(scope="module")
def corpus(timings):
    t0 = time.time()
    seqs = generate_corpus(
        default_styles(), per_style=6, duration=20.0, fps=FPS, master_seed=42
    )
    prims = [SequencePrimitives(s) for s in seqs]
    timings["corpus"] = time.time() - t0
    return seqs, prims


@pytest.fixture(scope="module")
def datasets(corpus, timings):
    """Window-feature datasets keyed by window size (stride 5)."""
    seqs, prims = corpus
    cache = {}

    def build(w):
        if w not in cache:
            t0 = time.time()
            cfg = LmaConfig(window=WindowConfig(w=w, stride=5))
            t = FeatureTable.concat(
                assemble_features(s, cfg=cfg, primitives=p) for s, p in zip(seqs, prims)
            )
            cache[w] = Dataset.from_labels(t.X, t.labels, t.groups, FEATURE_NAMES)
            timings[f"features_w{w}"] = time.time() - t0
        return cache[w]

    return build


@pytest.fixture(scope="module")
def trained_model(datasets):
    return train(datasets(55), FOREST)


def test_criterion_1_end_to_end(datasets, timings):
    t0 = time.time()
    data = datasets(55)
    folds = stratified_group_kfold(data.y, data.groups, k=3, seed=42)
    y_true, y_pred = [], []
    for tr, te in folds:
        sub = Dataset(
            data.X[tr], data.y[tr], tuple(data.groups[i] for i in tr),
            data.feature_names, data.class_names,
        )
        model = train(sub, FOREST)
        y_true.extend(data.y[te].tolist())
        y_pred.extend(predict(model, data.X[te]).tolist())
    macro_f1 = metrics(np.array(y_true), np.array(y_pred), data.class_names)["macro"]["f1"]
    elapsed = timings["corpus"] + timings.get("features_w55", 0.0) + (time.time() - t0)
    _verdict(
        1,
        f"10-class corpus, grouped 3-fold CV at w=55: macro F1 {macro_f1:.4f} "
        f">= 0.95 in {elapsed:.0f}s (limit 300s)",
        macro_f1 >= 0.95 and elapsed <= 300.0,
    )


def test_criterion_2_window_size_trend(datasets):
    acc = {}
    for w in (5, 15, 30, 55):
        acc[w] = float(np.mean(cross_val_accuracy(datasets(w), FOREST, k=3, seed=42)))
    ok = (
        acc[55] >= acc[30]
        and acc[30] >= acc[5] - 0.02
        and acc[55] - acc[5] >= 0.05
    )
    detail = " ".join(f"acc({w})={acc[w]:.4f}" for w in (5, 15, 30, 55))
    _verdict(2, f"window sweep trend: {detail}", ok)


def test_criterion_3_shap_exactness(datasets, trained_model):
    t0 = time.time()
    ok = True
    worst = 0.0
    # 50 random small forests vs the exhaustive-subset computation
    for seed in range(50):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(80, 6))
        y = rng.integers(0, 3, 80)
        data = Dataset(X, y, tuple(f"g{i % 9}" for i in range(80)),
                       tuple(f"f{i}" for i in range(6)), ("a", "b", "c"))
        model = train(data, ForestParams(n_trees=2, max_depth=3,
                                         features_per_split=6, seed=seed))
        for x in X[rng.integers(0, 80, size=2)]:
            diff = float(np.abs(tree_shap(model, x).phi - brute_shap(model, x)).max())
            worst = max(worst, diff)
    ok &= worst <= 1e-9
    # local accuracy on 1000 instances of the corpus-trained model
    data = datasets(55)
    rng = np.random.default_rng(42)
    idx = rng.choice(data.X.shape[0], size=1000, replace=False)
    proba = predict_proba(trained_model, data.X[idx])
    worst_local = 0.0
    for row, p in zip(data.X[idx], proba):
        exp = tree_shap(trained_model, row)
        worst_local = max(worst_local, float(np.abs(exp.prediction() - p).max()))
    ok &= worst_local <= 1e-9
    elapsed = time.time() - t0
    ok &= elapsed <= 120.0
    _verdict(
        3,
        f"exact attribution: oracle gap {worst:.2e}, local-accuracy gap "
        f"{worst_local:.2e} over 1000 instances in {elapsed:.0f}s (limit 120s)",
        ok,
    )


def test_criterion_4_hull_correctness():
    worst = 0.0
    for seed in range(100):
        pts = np.random.default_rng(seed).normal(size=(30, 3))
        worst = max(worst, abs(hull_volume(pts) - brute_hull_volume(pts)))
    cube = np.array([[x, y, z] for x in (0, 1) for y in (0, 1) for z in (0, 1)], float)
    tet = np.array([[0, 0, 0], [1, 0, 0], [0, 1, 0], [0, 0, 1]], float)
    ok = worst <= 1e-9 and hull_volume(cube) == 1.0 and hull_volume(tet) == 1.0 / 6.0
    _verdict(4, f"hull vs brute-force facet oracle: max gap {worst:.2e}; "
                "cube=1, tetrahedron=1/6 exact", ok)


def test_criterion_5_quantile_regression():
    worst = 0.0
    for seed in range(50):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 201))
        d = rng.uniform(-5, 5, n)
        if seed % 2:  # floor + body mixture
            h = 0.1 * d + 0.5 + np.where(rng.random(n) < 0.4,
                                         1.0 + rng.uniform(0, 0.8, n), 0.0)
            h += rng.exponential(0.05, n)
        else:
            h = 0.3 * rng.normal() * d + rng.normal() + rng.exponential(0.4, n)
        tau = float(rng.uniform(0.05, 0.95))
        cloud = np.column_stack([np.zeros(n), h, d])
        plane = fit_floor(cloud, tau=tau)
        worst = max(worst, plane.pinball_loss - pair_enumeration_pinball_oracle(d, h, tau))
    slope_err = 0.0
    for seed in range(5):  # noiseless tilted floors
        rng = np.random.default_rng(1000 + seed)
        slope = float(rng.uniform(-0.3, 0.3))
        d = rng.uniform(0, 8, 100)
        cloud = np.column_stack([np.zeros(100), slope * d + 0.4, d])
        slope_err = max(slope_err, abs(fit_floor(cloud, tau=0.05).slope - slope))
    ok = worst <= 1e-6 and slope_err <= 1e-3
    _verdict(5, f"pinball optimality gap {worst:.2e} over 50 clouds; "
                f"noiseless slope error {slope_err:.2e}", ok)


def test_criterion_6_feature_invariants():
    cfg = LmaConfig(window=WindowConfig(w=20, stride=20))
    height_slots = {"pelvis_height_mean", "pelvis_height_min", "pelvis_height_max"}
    # rigid-motion invariance on random sequences
    drift = 0.0
    for seed in range(20):
        rng = np.random.default_rng(seed)
        pos = static_pose_positions(60) + rng.normal(0, 0.02, (60, 13, 3))
        theta = float(rng.uniform(0, 2 * np.pi))
        R = np.array([[np.cos(theta), 0, np.sin(theta)], [0, 1, 0],
                      [-np.sin(theta), 0, np.cos(theta)]])
        shift = rng.uniform(-3, 3, 3) * np.array([1.0, 0.0, 1.0])
        r1 = assemble_features(make_sequence(pos), cfg=cfg)
        r2 = assemble_features(make_sequence(pos @ R.T + shift), cfg=cfg)
        for i, name in enumerate(FEATURE_NAMES):
            if name not in height_slots:
                drift = max(drift, float(np.abs(r1.X[:, i] - r2.X[:, i]).max()))
    # effort-space chord ratio lower bound when the denominator is real
    ratio_ok = True
    rng = np.random.default_rng(99)
    for _ in range(200):
        track = np.cumsum(rng.normal(0, 0.02, (60, 3)), axis=0)
        ratio = _effort_space_ratios(track, np.array([0]), 60, 6, 1e-3)[0]
        net = np.linalg.norm(track[54] - track[0])
        if ratio != 0.0 and net >= 1e-3:
            ratio_ok &= ratio >= 1.0 - 1e-9
    # all-finite outputs over >= 1000 degenerate windows
    n_windows = 0
    finite_ok = True
    rng = np.random.default_rng(123)
    k = 0
    while n_windows < 1000:
        kind = k % 4
        k += 1
        if kind == 0:
            pos = static_pose_positions(60)
        elif kind == 1:
            pos = static_pose_positions(60)
            pos[..., 2] = 0.0
        elif kind == 2:
            ang = 2 * np.pi * np.arange(60) / 59
            loop = 0.1 * np.column_stack([np.cos(ang), np.zeros(60), np.sin(ang)])
            pos = static_pose_positions(60) + loop[:, None, :]
        else:
            pos = static_pose_positions(60)
            frozen = rng.permutation(13)[:7]  # random stationary joints
            moving = [j for j in range(13) if j not in frozen]
            pos[:, moving, :] += np.cumsum(rng.normal(0, 0.01, (60, len(moving), 3)), axis=0)
        table = assemble_features(make_sequence(pos), cfg=cfg)
        finite_ok &= bool(np.all(np.isfinite(table.X)))
        n_windows += len(table)
    ok = drift <= 1e-6 and ratio_ok and finite_ok
    _verdict(6, f"rigid-motion drift {drift:.2e}; chord ratio >= 1; "
                f"{n_windows} degenerate windows all finite", ok)


def test_criterion_7_kinematics_accuracy():
    t = np.arange(240) * DT
    lin = np.column_stack([0.7 * t, np.zeros_like(t), np.zeros_like(t)])
    lin_err = float(np.abs(derivative(lin, 1, DT)[:, 0] - 0.7).max())
    quad = np.column_stack([t**2, np.zeros_like(t), np.zeros_like(t)])
    quad_err = float(np.abs(derivative(quad, 2, DT)[2:-2, 0] - 2.0).max())
    sin_ok = True
    rel_ok = True
    for omega in (np.pi, 2 * np.pi, 4 * np.pi):
        track = np.column_stack([np.sin(omega * t), np.zeros_like(t), np.zeros_like(t)])
        v = derivative(track, 1, DT)[1:-1, 0]
        err = np.abs(v - omega * np.cos(omega * t[1:-1]))
        sin_ok &= bool(err.max() <= 1.01 * DT**2 * omega**3 / 6)
        if omega <= 2 * np.pi:
            rel_ok &= bool(err.max() / omega < 5e-3)
    ok = lin_err <= 1e-9 and quad_err <= 1e-6 and sin_ok and rel_ok
    _verdict(7, f"derivatives: linear {lin_err:.1e}, quadratic {quad_err:.1e}, "
                "sinusoid within dt^2*w^3/6 bound", ok)


def test_criterion_8_determinism(tmp_path):
    # identical CLI train runs produce byte-identical model files
    corpus_dir = tmp_path / "corpus"
    assert cli_main(["--seed", "11", "--out", str(corpus_dir), "synth",
                     "--per-style", "3", "--duration", "1.0"]) == 0
    feats = tmp_path / "feats"
    seqs = sorted(str(p) for p in corpus_dir.glob("*.jsonl"))
    assert cli_main(["--seed", "11", "--out", str(feats), "extract",
                     "--w", "30", "--stride", "15"] + seqs) == 0
    outs = []
    for name, threads in (("m1", "1"), ("m2", "1"), ("m8", "8")):
        out = tmp_path / name
        assert cli_main(["--seed", "11", "--threads", threads, "--out", str(out), "train",
                         str(feats / "features.csv"), "--n-trees", "8",
                         "--max-depth", "6", "--min-samples-leaf", "1"]) == 0
        outs.append(tuple((out / f).read_bytes() for f in ("model.json", "cv_report.csv")))
    byte_identical = outs[0] == outs[1]
    # --threads 1 vs --threads 8 agrees exactly
    thread_identical = outs[0] == outs[2]
    _verdict(8, "repeated cmd_train byte-identical; --threads 1 == --threads 8 outputs",
             byte_identical and thread_identical)
