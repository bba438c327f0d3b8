"""Batch command-line pipeline.

Subcommands: extract, floor, synth, train, eval, sweep, explain, kinplot.
`main` creates the output directory, runs the command and writes a
manifest.json there recording the resolved configuration, input hashes and
seed, so runs are reproducible.

Exit codes: 0 success, 1 usage error, 2 data error, 3 internal error.
"""

import argparse
import configparser
import contextlib
import functools
import hashlib
import json
import math
import os
import sys
import time
from pathlib import Path

import numpy as np

from . import __version__

# SequencePrimitives is called through its module, so that a wrapper
# installed there (a profiler or tracer) sees every call.
from . import features
from .charts import svg_line_chart
from .errors import LmaError
from .explain import (
    mean_abs_phi,
    rank_features,
    tree_shap,
    write_explanations_csv,
    write_summary_csv,
)
from .files import read_text, write_csv, write_json
from .features import (
    FEATURE_NAMES,
    SELECTED_JOINTS,
    FeatureTable,
    LmaConfig,
    assemble_features,
    read_features_csv,
    skeleton_signature,
    write_features_csv,
)
from .floor import fit_floor, flat_floor
from .forest import (
    Dataset,
    ForestModel,
    ForestParams,
    class_counts_by_group,
    cross_val_accuracy,
    grid_search,
    integer_codes,
    metrics,
    predict,
    train,
)
from .kinematics import WindowConfig
from .sequence import load_sequence, save_sequence, validate_and_repair
from .synth import default_styles, generate_corpus


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise _UsageError(message)


def _echo(text):
    """Print a line to stdout.  A reader that closes the pipe early does not
    fail the command: stdout then goes to the null device."""
    try:
        print(text, flush=True)
    except BrokenPipeError:
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)


def _sha256(path):
    h = hashlib.sha256()
    with open(path, "rb") as fh:
        for chunk in iter(lambda: fh.read(65536), b""):
            h.update(chunk)
    return h.hexdigest()


def _load_cloud(path):
    """Point cloud file: one 'x y z' triple per line, meters."""
    pts = []
    for lineno, line in enumerate(read_text(path).split("\n"), start=1):
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        try:
            point = [float(v) for v in line.split()]
        except ValueError:
            point = []
        if len(point) != 3:
            raise LmaError(f"{path}:{lineno}: expected 'x y z' numbers")
        pts.append(point)
    return np.array(pts, dtype=float).reshape(-1, 3)


@contextlib.contextmanager
def _naming(path, note=""):
    """A refusal raised inside names the file at `path`, which the code that
    raised it does not know, and ends with `note`."""
    try:
        yield
    except LmaError as e:
        raise LmaError(f"{path}: {e}{note}") from e


def _fit_cloud(path, **kwargs):
    """`fit_floor` on the point cloud file at `path`; its errors name the file."""
    cloud = _load_cloud(path)
    with _naming(path):
        return fit_floor(cloud, **kwargs)


def _out_dir(path):
    """The output directory `path`, created with its parents if missing."""
    out = Path(path)
    try:
        out.mkdir(parents=True, exist_ok=True)
    except OSError as e:
        raise LmaError(f"{out}: cannot create the output directory: {e.strerror or e}") from e
    return out


def _write_manifest(out, command, seed, config, inputs, notes=None, **extra):
    """`extra` holds the command's own fields, such as `fps` and `diagnostics`."""
    manifest = {
        "command": command,
        "config": config,
        "inputs": {str(p): _sha256(p) for p in inputs},
        "seed": seed,
        "tool_version": __version__,
        "timestamp": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
        **extra,
    }
    if notes:
        manifest["notes"] = notes
    write_json(out / "manifest.json", manifest)


def _read_config_file(path):
    cp = configparser.ConfigParser()
    try:
        cp.read_string(read_text(path), source=path)
        return {f"{sec}.{key}": val for sec in cp.sections() for key, val in cp[sec].items()}
    except configparser.Error as e:
        raise LmaError(f"{path}: bad config file: {' '.join(str(e).split())}") from e


def _resolved(args, file_cfg, key, cast, default):
    """CLI flag > config file > default.  A file value that `cast` refuses is
    a data error naming the file and `section.key`."""
    flag = getattr(args, key.split(".")[-1].replace("-", "_"), None)
    if flag is not None:
        return flag
    if key not in file_cfg:
        return default
    raw = file_cfg[key]
    try:
        if cast is bool:
            return configparser.ConfigParser.BOOLEAN_STATES[raw.lower()]
        return cast(raw)
    except (KeyError, ValueError):
        raise LmaError(f"{args.config}: {key} = {raw!r} is not a valid {cast.__name__}") from None
    except argparse.ArgumentTypeError as e:
        raise LmaError(f"{args.config}: {key}: {e}") from None


def _lma_config(args, file_cfg, window=None):
    """The `[lma]` settings around `window`, by default the `[window]` one."""
    return LmaConfig(
        window=window or WindowConfig(
            w=_resolved(args, file_cfg, "window.w", WINDOW, 55),
            stride=_resolved(args, file_cfg, "window.stride", STRIDE, 1),
        ),
        initiation_scale=_resolved(args, file_cfg, "lma.initiation_scale", _number(float, 0, strict=True), 1.0),
        epsilon_net=_resolved(args, file_cfg, "lma.epsilon_net", _number(float, 0, strict=True), 1e-3),
    )


def _forest_settings(args, file_cfg):
    """The `[forest]` settings that have no flag, as ForestParams fields."""
    return {
        "features_per_split": _resolved(args, file_cfg, "forest.features_per_split", _number(int, 1), 8),
        "bootstrap": _resolved(args, file_cfg, "forest.bootstrap", bool, True),
    }


def _number(cast, lo, strict=False, below=math.inf):
    """argparse type: a finite `cast` value >= lo (> lo if `strict`) and < below."""

    def number(text):
        try:
            value = cast(text)
        except ValueError:
            value = math.nan  # fails every comparison
        if not ((value > lo if strict else value >= lo) and value < below):
            upper = f" and < {below}" if below < math.inf else ""
            raise argparse.ArgumentTypeError(
                f"expected a finite {cast.__name__} {'>' if strict else '>='} {lo}{upper}, got {text!r}")
        return value

    return number


WINDOW, STRIDE = _number(int, 2), _number(int, 1)  # frames
TAU = _number(float, 0, strict=True, below=1)  # quantile of the floor fit


def _depth(text):
    """argparse type: a tree depth >= 1, or `none` for no limit."""
    return None if text.lower() == "none" else _number(int, 1)(text)


def _list_of(item):
    """argparse type: a non-empty comma-separated list of `item` values."""

    def items(text):
        return [item(tok) for tok in text.split(",")]

    return items


def _refuse_mixed(paths, keys, what, advice, describe=str):
    """Refuse inputs whose `keys` differ, naming the files under each key."""
    by_key = {}
    for p, key in zip(paths, keys):
        by_key.setdefault(key, []).append(str(p))
    if len(by_key) > 1:
        listing = "; ".join(f"{describe(key)}: {', '.join(files)}" for key, files in by_key.items())
        raise LmaError(f"inputs have mixed {what} ({listing}); {advice}")


def _load_sequences(paths, max_gap=6):
    """Load and repair every sequence; refuse a set with mixed frame rates,
    because windows are counted in frames, or with mixed skeletons, whose
    features are not comparable."""
    seqs = []
    for p in paths:
        seq = load_sequence(p)  # its errors already carry [path:line]
        with _naming(p):
            seqs.append(validate_and_repair(seq, max_gap=max_gap))
    _refuse_mixed(paths, (seq.fps for seq in seqs), "frame rates", "resample them to one rate",
                  describe=lambda fps: f"{fps:g} fps")
    _refuse_mixed(paths, (json.dumps(skeleton_signature(seq.skeleton)) for seq in seqs), "skeletons",
                  "extract each skeleton on its own")
    return seqs


def _primitives(path, seq):
    """The per-frame primitives of the sequence read from `path`; a refusal names the file."""
    with _naming(path):
        return features.SequencePrimitives(seq)


def _floor_for(args, notes):
    notes["floor"] = "fitted-from-cloud" if args.cloud else "assumed-flat"
    return _fit_cloud(args.cloud, tau=args.tau) if args.cloud else flat_floor()


def cmd_extract(args, file_cfg, out):
    cfg = _lma_config(args, file_cfg)
    notes = {}
    plane = _floor_for(args, notes)
    seqs = _load_sequences(args.sequences)
    tables, degenerate = [], 0
    for path, seq in zip(args.sequences, seqs):
        prim = _primitives(path, seq)
        degenerate += int(np.count_nonzero(prim.volume == 0.0))
        with _naming(path):
            tables.append(assemble_features(seq, plane=plane, cfg=cfg, primitives=prim))
    table = FeatureTable.concat(tables)
    write_features_csv(table, out / "features.csv")
    _echo(f"wrote {len(table)} feature rows to {out / 'features.csv'}")
    return {
        "config": {
            "window": {"w": cfg.window.w, "stride": cfg.window.stride},
            "lma": {"initiation_scale": cfg.initiation_scale, "epsilon_net": cfg.epsilon_net},
            "tau": args.tau,
        },
        "inputs": list(args.sequences) + ([args.cloud] if args.cloud else []),
        "notes": notes,
        "fps": {str(p): seq.fps for p, seq in zip(args.sequences, seqs)},
        "skeleton": skeleton_signature(seqs[0].skeleton),
        "diagnostics": {"degenerate_hull_frames": degenerate},
    }


def cmd_floor(args, file_cfg, out):
    plane = _fit_cloud(args.cloud, tau=args.tau, up_axis=args.up_axis, depth_axis=args.depth_axis)
    payload = {
        "slope": plane.slope,
        "intercept": plane.intercept,
        "up_axis": plane.up_axis,
        "depth_axis": plane.depth_axis,
        "tau": plane.tau,
        "pinball_loss": plane.pinball_loss,
    }
    write_json(out / "floor.json", payload)
    _echo(f"floor: h = {plane.slope:.6g} * d + {plane.intercept:.6g} (loss {plane.pinball_loss:.6g})")
    return {"config": {"tau": args.tau}, "inputs": [args.cloud]}


def cmd_synth(args, file_cfg, out):
    specs = default_styles(noise_sigma=args.noise)
    seqs = generate_corpus(
        specs, per_style=args.per_style, duration=args.duration, fps=args.fps, master_seed=args.seed
    )
    for seq in seqs:
        save_sequence(seq, out / f"{seq.group_id}.jsonl")
    _echo(f"wrote {len(seqs)} sequences to {out}")
    config = {"per_style": args.per_style, "duration": args.duration, "fps": args.fps,
              "noise": args.noise}
    return {"config": config, "inputs": []}


def _read_rows(path, labelled):
    """The feature CSV at `path`, refused when it holds no rows, or a row
    without a label where the command needs labels."""
    table = read_features_csv(path)
    if not len(table):
        raise LmaError(f"{path}: feature CSV has no rows")
    if labelled and None in table.labels:
        raise LmaError(f"{path}: feature CSV lacks labels")
    return table


def _forest_grid(args, file_cfg):
    return {
        "n_trees": args.n_trees,
        "max_depth": args.max_depth,
        "min_samples_leaf": args.min_samples_leaf,
        **{key: [v] for key, v in _forest_settings(args, file_cfg).items()},
        "seed": [args.seed],
    }


def _report_table(rep, class_names):
    lines = [f"{'Style':24s} {'Prec.(%)':>9s} {'Rec.(%)':>9s} {'F1(%)':>9s}"]
    for name in class_names:
        m = rep["per_class"][name]
        lines.append(
            f"{name:24s} {100 * m['precision']:9.2f} {100 * m['recall']:9.2f} {100 * m['f1']:9.2f}"
        )
    mac = rep["macro"]
    lines.append(
        f"{'Average':24s} {100 * mac['precision']:9.2f} {100 * mac['recall']:9.2f} {100 * mac['f1']:9.2f}"
    )
    return "\n".join(lines)


def _write_metrics_csv(rep, class_names, path):
    rows = []
    for name in class_names:
        m = rep["per_class"][name]
        rows.append([name, f"{m['precision']:.9g}", f"{m['recall']:.9g}", f"{m['f1']:.9g}",
                     m["support"], int(m["zero_division"])])
    mac = rep["macro"]
    rows.append(["macro", f"{mac['precision']:.9g}", f"{mac['recall']:.9g}", f"{mac['f1']:.9g}",
                 sum(rep["per_class"][name]["support"] for name in class_names), ""])
    write_csv(path, ["class", "precision", "recall", "f1", "support", "zero_division"], rows)


def _vote_by_group(y_true, y_pred, groups):
    """Majority vote per group, groups in sorted order, ties to the lowest
    class; returns group-level truth/prediction arrays."""
    return tuple(class_counts_by_group(y, groups)[0].argmax(axis=1) for y in (y_true, y_pred))


def cmd_train(args, file_cfg, out):
    t = _read_rows(args.features, labelled=True)
    data = Dataset.from_labels(t.X, t.labels, t.groups, FEATURE_NAMES)
    grid = _forest_grid(args, file_cfg)
    with _naming(args.features, f" (--k {args.k})"):
        best, report = grid_search(data, grid, k=args.k, seed=args.seed)

    write_csv(
        out / "cv_report.csv",
        ["n_trees", "max_depth", "min_samples_leaf", "mean_accuracy", "fold_accuracies"],
        ([r["params"].n_trees, r["params"].max_depth, r["params"].min_samples_leaf,
          f"{r['mean_accuracy']:.9g}", ";".join(f"{a:.9g}" for a in r["fold_accuracies"])]
         for r in report),
    )

    # the best point's pooled out-of-fold predictions give the per-class report
    y_pred = next(r["predictions"] for r in report if r["params"] is best)
    if args.vote:
        yt, yp = _vote_by_group(data.y, y_pred, data.groups)
    else:
        yt, yp = data.y, y_pred
    rep = metrics(yt, yp, data.class_names)
    _echo(_report_table(rep, data.class_names))
    _write_metrics_csv(rep, data.class_names, out / "metrics.csv")

    final = train(data, best)
    final.save(out / "model.json")
    _echo(f"best params: n_trees={best.n_trees} max_depth={best.max_depth} "
          f"min_samples_leaf={best.min_samples_leaf}")
    config = {"grid": {k: [str(v) for v in vals] for k, vals in grid.items()},
              "best": {"n_trees": best.n_trees, "max_depth": best.max_depth,
                       "min_samples_leaf": best.min_samples_leaf}, "k": args.k,
              "vote": bool(args.vote)}
    return {"config": config, "inputs": [args.features]}


def _load_model(path):
    """The model at `path`, refused unless its features are the canonical layout."""
    model = ForestModel.load(path)
    if model.feature_names != FEATURE_NAMES:
        raise LmaError(f"{path}: model feature schema does not match the canonical layout")
    return model


def cmd_eval(args, file_cfg, out):
    model = _load_model(args.model)
    t = _read_rows(args.features, labelled=True)
    labels, codes = integer_codes(t.labels)
    unknown = [l for l in labels if l not in model.class_names]
    if unknown:
        raise LmaError(f"{args.features}: labels not in the model's classes: {unknown} "
                       f"(model {args.model})")
    y_true = np.array([model.class_names.index(l) for l in labels])[codes]
    y_pred = predict(model, t.X)
    if args.vote:
        y_true, y_pred = _vote_by_group(y_true, y_pred, t.groups)
    rep = metrics(y_true, y_pred, model.class_names)
    _echo(_report_table(rep, model.class_names))
    _write_metrics_csv(rep, model.class_names, out / "metrics.csv")
    return {"config": {"vote": bool(args.vote)}, "inputs": [args.model, args.features]}


def cmd_sweep(args, file_cfg, out):
    seqs = _load_sequences(args.sequences)
    notes = {}
    plane = _floor_for(args, notes)
    min_T, shortest = min((s.n_frames, str(p)) for s, p in zip(seqs, args.sequences))
    sizes = args.sizes
    if max(sizes) > min_T:
        raise LmaError(f"{shortest}: window {max(sizes)} exceeds shortest sequence ({min_T} frames)")
    cfgs = [_lma_config(args, file_cfg, WindowConfig(w=w, stride=args.stride)) for w in sizes]
    forest = _forest_settings(args, file_cfg)
    params = ForestParams(n_trees=args.n_trees, max_depth=args.max_depth,
                          min_samples_leaf=args.min_samples_leaf, seed=args.seed, **forest)
    prims = [_primitives(p, s) for p, s in zip(args.sequences, seqs)]
    results = []
    for cfg in cfgs:
        w = cfg.window.w
        t = FeatureTable.concat(
            assemble_features(seq, plane=plane, cfg=cfg, primitives=prim)
            for seq, prim in zip(seqs, prims)
        )
        data = Dataset.from_labels(t.X, t.labels, t.groups, FEATURE_NAMES)
        with _naming(", ".join(map(str, args.sequences)), f" (--k {args.k})"):
            accs = cross_val_accuracy(data, params, k=args.k, seed=args.seed)
        results.append((w, float(np.mean(accs)), float(np.std(accs))))
        _echo(f"w={w}: accuracy {np.mean(accs):.4f} +/- {np.std(accs):.4f}")
    write_csv(out / "sweep.csv", ["w", "mean_accuracy", "std_accuracy"],
              ([w, f"{m:.9g}", f"{s:.9g}"] for w, m, s in results))
    svg_line_chart(
        [("accuracy", [r[0] for r in results], [r[1] for r in results])],
        out / "sweep.svg",
        xlabel="window size (frames)",
        ylabel="CV accuracy",
        title="Accuracy vs sliding-window size",
    )
    config = {"sizes": sizes, "stride": args.stride, "k": args.k, "forest": forest,
              "lma": {key: getattr(cfgs[0], key) for key in ("initiation_scale", "epsilon_net")}}
    return {"config": config, "inputs": args.sequences, "notes": notes}


def cmd_explain(args, file_cfg, out):
    model = _load_model(args.model)
    X = _read_rows(args.features, labelled=False).X
    explanation = tree_shap(model, X)
    write_explanations_csv(explanation, out / "explanations.csv")
    by_class, overall = mean_abs_phi(explanation)
    ranking = rank_features(FEATURE_NAMES, overall)
    write_summary_csv(ranking[: args.top_k], out / "summary.csv")
    per_class = []
    for cname, mean_abs in zip(model.class_names, by_class):
        per_class += [[cname, name, f"{value:.9g}", rank] for rank, (_, name, value)
                      in enumerate(rank_features(FEATURE_NAMES, mean_abs)[: args.top_k], start=1)]
    write_csv(out / "summary_per_class.csv", ["class", "feature", "mean_abs_phi", "rank"], per_class)
    _echo(f"top {args.top_k} features:")
    for _, name, value in ranking[: args.top_k]:
        _echo(f"  {name:28s} {value:.6g}")
    return {"config": {"top_k": args.top_k}, "inputs": [args.model, args.features]}


def cmd_kinplot(args, file_cfg, out):
    seq = _load_sequences([args.sequence])[0]
    w = _resolved(args, file_cfg, "window.w", WINDOW, 55)
    if seq.n_frames < w:
        raise LmaError(f"{args.sequence}: sequence shorter than window ({seq.n_frames} < {w})")
    prim = _primitives(args.sequence, seq)
    skel = seq.skeleton
    sel = [skel.index(r) for r in SELECTED_JOINTS]
    mean_speed = prim.speed[:, sel].mean(axis=1)
    kernel = np.ones(w) / w
    curve = np.convolve(mean_speed, kernel, mode="valid")
    frames = np.arange(len(curve))
    write_csv(out / "kinematics.csv", ["frame", "velocity"],
              ([int(f), f"{v:.9g}"] for f, v in zip(frames, curve)))
    svg_line_chart(
        [(seq.label or "sequence", frames.tolist(), curve.tolist())],
        out / "kinematics.svg",
        xlabel="frame number",
        ylabel="velocity (m/s)",
        title=f"Windowed mean speed (w={w})",
    )
    return {"config": {"w": w}, "inputs": [args.sequence]}


@functools.cache  # one parser per process: building it costs more than a parse
def _build_parser():
    parser = _Parser(prog="lmakit", description=__doc__)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--threads", type=_number(int, 1), default=1, help="no effect: training is serial")
    parser.add_argument("--config", default=None)
    parser.add_argument("--out", default="out")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("extract", help="sequences -> feature CSV")
    p.add_argument("sequences", nargs="+")
    p.add_argument("--cloud", default=None, help="point cloud file (x y z per line)")
    p.add_argument("--tau", type=TAU, default=0.05)
    p.add_argument("--w", dest="w", type=WINDOW, default=None)
    p.add_argument("--stride", type=STRIDE, default=None)
    p.set_defaults(func=cmd_extract)

    p = sub.add_parser("floor", help="fit the floor plane from a point cloud")
    p.add_argument("cloud")
    p.add_argument("--tau", type=TAU, default=0.05)
    p.add_argument("--up-axis", type=int, choices=(0, 1, 2), default=1)
    p.add_argument("--depth-axis", type=int, choices=(0, 1, 2), default=2)
    p.set_defaults(func=cmd_floor)

    p = sub.add_parser("synth", help="generate the synthetic 10-style corpus")
    p.add_argument("--per-style", type=_number(int, 3), default=6)
    p.add_argument("--duration", type=_number(float, 0, strict=True), default=20.0)
    p.add_argument("--fps", type=_number(float, 0, strict=True), default=60.0)
    p.add_argument("--noise", type=_number(float, 0), default=0.005)
    p.set_defaults(func=cmd_synth)

    for name in ("train", "eval"):
        p = sub.add_parser(name, help=f"{name} a forest on a feature CSV")
        if name == "train":
            p.add_argument("features")
            p.add_argument("--n-trees", type=_list_of(_number(int, 1)), default=[50, 100, 200])
            p.add_argument("--max-depth", type=_list_of(_depth), default=[8, 12, None])
            p.add_argument("--min-samples-leaf", type=_list_of(_number(int, 1)), default=[1, 5])
            p.add_argument("--k", type=_number(int, 2), default=3)
            p.add_argument("--vote", action="store_true", help="per-video majority vote")
            p.set_defaults(func=cmd_train)
        else:
            p.add_argument("model")
            p.add_argument("features")
            p.add_argument("--vote", action="store_true")
            p.set_defaults(func=cmd_eval)

    p = sub.add_parser("sweep", help="accuracy vs window size")
    p.add_argument("sequences", nargs="+")
    p.add_argument("--sizes", type=_list_of(WINDOW), default=[5, 15, 30, 55])
    p.add_argument("--stride", type=STRIDE, default=5)
    p.add_argument("--k", type=_number(int, 2), default=3)
    p.add_argument("--cloud", default=None)
    p.add_argument("--tau", type=TAU, default=0.05)
    p.add_argument("--n-trees", type=_number(int, 1), default=30)
    p.add_argument("--max-depth", type=_depth, default=12)
    p.add_argument("--min-samples-leaf", type=_number(int, 1), default=1)
    p.set_defaults(func=cmd_sweep)

    p = sub.add_parser("explain", help="Shapley attributions for a feature CSV")
    p.add_argument("model")
    p.add_argument("features")
    p.add_argument("--top-k", type=_number(int, 1), default=10)
    p.set_defaults(func=cmd_explain)

    p = sub.add_parser("kinplot", help="windowed mean-speed curve")
    p.add_argument("sequence")
    p.add_argument("--w", dest="w", type=WINDOW, default=None)
    p.set_defaults(func=cmd_kinplot)

    return parser


def main(argv=None):
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        if args.command == "floor" and args.up_axis == args.depth_axis:
            parser.error("--up-axis and --depth-axis must differ")
        file_cfg = _read_config_file(args.config) if args.config else {}
        out = _out_dir(args.out)
        _write_manifest(out, args.command, args.seed, **args.func(args, file_cfg, out))
        return 0
    except _UsageError as e:
        print(f"usage error: {e}", file=sys.stderr)
        return 1
    except LmaError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    except Exception as e:  # pragma: no cover - defensive
        print(f"internal error: {type(e).__name__}: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
