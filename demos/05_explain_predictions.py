"""Attribute a prediction to individual movement features, exactly.

The attribution decomposes the forest's class probabilities into one
additive contribution per feature: base rate + contributions = predicted
probability, to machine precision.  Run:

    python3 demos/05_explain_predictions.py
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
    predict_proba,
    train,
    tree_shap,
)


def main():
    seqs = generate_corpus(default_styles(), per_style=3, duration=4.0, master_seed=42)
    cfg = LmaConfig(window=WindowConfig(w=55, stride=30))
    t = FeatureTable.concat(assemble_features(seq, cfg=cfg) for seq in seqs)
    data = Dataset.from_labels(t.X, t.labels, t.groups, FEATURE_NAMES)
    model = train(data, ForestParams(n_trees=15, max_depth=10, seed=0))

    # explain one "stomp" window
    i = t.labels.index("stomp")
    exp = tree_shap(model, t.X[i])
    c = list(model.class_names).index("stomp")
    proba = predict_proba(model, t.X[i])[0]
    print(f"P(stomp) = {proba[c]:.4f}; base rate = {exp.base[c]:.4f}")
    print(f"additivity gap: {abs(exp.prediction() - proba).max():.2e}\n")

    order = np.argsort(-np.abs(exp.phi[c]))[:8]
    print(f"top contributions toward 'stomp':")
    for f in order:
        print(f"  {FEATURE_NAMES[f]:28s} {exp.phi[c, f]:+.4f}")


if __name__ == "__main__":
    main()
