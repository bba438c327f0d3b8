"""Show how sliding-window length affects classification accuracy.

Short windows see only fragments of a movement motif; longer windows
capture whole phrases, so cross-validated accuracy climbs with window
size and then flattens.  Kinematic primitives are computed once per
sequence and reused across window sizes.  Run:

    python3 demos/06_window_size_sweep.py     (about two minutes)
"""

from pathlib import Path

import numpy as np

from lmakit import (
    FEATURE_NAMES,
    Dataset,
    FeatureTable,
    ForestParams,
    LmaConfig,
    SequencePrimitives,
    WindowConfig,
    assemble_features,
    cross_val_accuracy,
    default_styles,
    generate_corpus,
)
from lmakit.charts import svg_line_chart

OUT = Path("demo_out/sweep")


def main():
    OUT.mkdir(parents=True, exist_ok=True)
    seqs = generate_corpus(default_styles(), per_style=3, duration=6.0, master_seed=42)
    prims = [SequencePrimitives(s) for s in seqs]
    params = ForestParams(n_trees=20, max_depth=12, seed=42)

    sizes = [5, 15, 30, 55]
    accs = []
    for w in sizes:
        cfg = LmaConfig(window=WindowConfig(w=w, stride=10))
        t = FeatureTable.concat(
            assemble_features(seq, cfg=cfg, primitives=prim) for seq, prim in zip(seqs, prims)
        )
        data = Dataset.from_labels(t.X, t.labels, t.groups, FEATURE_NAMES)
        acc = float(np.mean(cross_val_accuracy(data, params, k=3, seed=42)))
        accs.append(acc)
        print(f"w = {w:2d} frames: accuracy {acc:.4f}")

    svg_line_chart([("accuracy", sizes, accs)], OUT / "sweep.svg",
                   xlabel="window size (frames)", ylabel="CV accuracy",
                   title="Accuracy vs sliding-window size")
    print(f"wrote {OUT / 'sweep.svg'}")


if __name__ == "__main__":
    main()
