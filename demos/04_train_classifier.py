"""Train and cross-validate the dance-style classifier end to end.

Builds a small synthetic corpus, extracts windowed descriptors, runs
grouped stratified 3-fold cross-validation (no recording straddles folds)
and prints a per-style precision/recall/F1 table.  Run:

    python3 demos/04_train_classifier.py     (about a minute)
"""

import numpy as np

from lmakit import (
    FEATURE_NAMES,
    Dataset,
    FeatureTable,
    ForestParams,
    LmaConfig,
    WindowConfig,
    assemble_features,
    default_styles,
    generate_corpus,
    metrics,
    predict,
    stratified_group_kfold,
    train,
)


def main():
    seqs = generate_corpus(default_styles(), per_style=3, duration=6.0, master_seed=42)
    cfg = LmaConfig(window=WindowConfig(w=55, stride=10))
    t = FeatureTable.concat(assemble_features(seq, cfg=cfg) for seq in seqs)
    data = Dataset.from_labels(t.X, t.labels, t.groups, FEATURE_NAMES)
    print(f"{len(seqs)} recordings -> {len(t)} windows x {len(FEATURE_NAMES)} features")

    params = ForestParams(n_trees=20, max_depth=12, seed=42)
    folds = stratified_group_kfold(data.y, data.groups, k=3, seed=42)
    y_true, y_pred = [], []
    for tr, te in folds:
        sub = Dataset(data.X[tr], data.y[tr], data.groups[tr], data.feature_names, data.class_names)
        model = train(sub, params)
        y_true.extend(data.y[te].tolist())
        y_pred.extend(predict(model, data.X[te]).tolist())

    rep = metrics(np.array(y_true), np.array(y_pred), data.class_names)
    print(f"\n{'style':12s} {'prec':>6s} {'rec':>6s} {'f1':>6s}")
    for name in data.class_names:
        m = rep["per_class"][name]
        print(f"{name:12s} {m['precision']:6.3f} {m['recall']:6.3f} {m['f1']:6.3f}")
    print(f"{'macro':12s} {rep['macro']['precision']:6.3f} "
          f"{rep['macro']['recall']:6.3f} {rep['macro']['f1']:6.3f}")


if __name__ == "__main__":
    main()
