"""Turn a motion sequence into 55-dimensional movement descriptors.

Each sliding window yields one vector covering four families: Body
(distances, angles, initiation rates), Effort (space/weight/time/flow),
Shape (convex-hull volume) and Space (dispersion, trajectory, heights).
Run:

    python3 demos/03_extract_features.py
"""

from lmakit import (
    FEATURE_NAMES,
    LmaConfig,
    WindowConfig,
    assemble_features,
    default_styles,
    generate,
)


def main():
    spec = next(s for s in default_styles() if s.name == "stomp")
    seq = generate(spec, duration=5.0, seed=1)

    cfg = LmaConfig(window=WindowConfig(w=55, stride=27))
    table = assemble_features(seq, cfg=cfg)
    print(f"{seq.n_frames} frames -> {len(table)} windows of {len(FEATURE_NAMES)} features")

    picks = [
        "dist_hand_hand",
        "initiation_left_foot",
        "effort_space_total",
        "effort_weight_mean",
        "effort_time_mean",
        "volume_mean",
        "dispersion_upper_mean",
        "pelvis_path_ratio",
    ]
    print(f"\n{'feature':26s}" + "".join(f"  win{i}" for i in range(min(4, len(table)))))
    for name in picks:
        vals = "".join(f" {v:5.2f}" for v in table.X[:4, FEATURE_NAMES.index(name)])
        print(f"{name:26s}{vals}")


if __name__ == "__main__":
    main()
