"""Record one point of the benchmark trajectory as BENCH_<rev>.json.

Run from the repository root:

    python3 scripts/bench_trajectory.py                       # this checkout
    python3 scripts/bench_trajectory.py --checkout ../other   # another checkout

For every workload of bench/run.py it runs the benchmark as a subprocess
for 40 s once per seed 1, 2 and 3 (untraced), then once more with
--trace 1, all in the checkout.  It writes BENCH_<short-rev>.json
(BENCH_<short-rev>-dirty.json if the checkout has uncommitted changes) at
the root of the repository that holds this script.  The file holds, per
workload, the median and quartiles of every end-to-end metric over the
seeds with the summed `correct`, `attempted` and `failed` counts, and the
per-layer medians of the traced run; and, for the whole file, the
checkout's git revision, `nproc`, and the Python and numpy versions that
ran it.

It also records two standard-corpus figures of the checkout, each over 3
runs in one subprocess (`--standard-figures` prints them as JSON):
- the seconds of one 20-tree depth-12 fit on the standard-corpus features
  (10 styles x 6 sequences x 1200 frames at 60 fps, master seed 42, w=55,
  stride 5, as acceptance criterion 1 builds them);
- the seconds of `lmakit train` on the CLI default grid over the features
  of the bench `train` workload at seed 1.
"""

import argparse
import contextlib
import io
import json
import os
import platform
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("train", "explain")
SEEDS = (1, 2, 3)  # at least 3, for quartiles
SECONDS = 40.0
REPEATS = 3  # runs of each standard-corpus figure


def _git(checkout, *args):
    return subprocess.run(["git", *args], cwd=checkout, check=True, capture_output=True,
                          text=True).stdout.strip()


def _bench(checkout, workload, seed, trace):
    """The result object that bench/run.py prints as its last stdout line."""
    argv = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
            "--seconds", str(SECONDS), "--trace", str(trace)]
    print("running", " ".join(argv[1:]), file=sys.stderr, flush=True)
    run = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit(f"{' '.join(argv[1:])} exited {run.returncode}:\n{run.stderr}")
    return json.loads(run.stdout.strip().splitlines()[-1])


def _spread(values):
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": median, "q1": q1, "q3": q3, "runs": values}


def _workload(checkout, workload):
    runs = [_bench(checkout, workload, seed, 0) for seed in SEEDS]
    traced = _bench(checkout, workload, SEEDS[0], 1)
    counts = {key: sum(r[key] for r in runs + [traced]) for key in ("attempted", "failed")}
    end_to_end = {}
    for name, metric in runs[0]["metrics"].items():
        end_to_end[name] = {"unit": metric["unit"],
                            **_spread([r["metrics"][name]["value"] for r in runs])}
    return {
        "seeds": list(SEEDS),
        "correct": sum(r["correct"] is True for r in runs + [traced]),
        "runs": len(runs) + 1,
        **counts,
        "end_to_end": end_to_end,
        "per_layer": {name: {"median": m["value"], "unit": m["unit"]}
                      for name, m in traced["metrics"].items()},
    }


def _timed(fn):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter()
        fn()
        times.append(time.perf_counter() - start)
    return _spread(times)


def _standard_figures():
    """The standard-corpus figures of the lmakit under the working directory."""
    sys.path[:0] = [str(Path.cwd() / "src"), str(Path.cwd() / "bench")]
    from inputs import make_corpus
    from run import WORKLOADS as BENCH_WORKLOADS

    from lmakit.cli import main
    from lmakit.features import (FEATURE_NAMES, FeatureTable, LmaConfig, SequencePrimitives,
                                 assemble_features)
    from lmakit.forest import Dataset, ForestParams, train
    from lmakit.kinematics import WindowConfig
    from lmakit.synth import default_styles, generate_corpus

    cfg = LmaConfig(window=WindowConfig(w=55, stride=5))
    table = FeatureTable.concat(
        assemble_features(seq, cfg=cfg, primitives=SequencePrimitives(seq))
        for seq in generate_corpus(default_styles(), per_style=6, duration=20.0, fps=60.0,
                                   master_seed=42))
    data = Dataset.from_labels(table.X, table.labels, table.groups, FEATURE_NAMES)
    fit = _timed(lambda: train(data, ForestParams(n_trees=20, max_depth=12, seed=0)))

    def cli(*argv):
        if main([str(a) for a in argv]) != 0:
            sys.exit(f"lmakit {' '.join(map(str, argv))} failed")

    wl = BENCH_WORKLOADS["train"]
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()):
        corpus = make_corpus(Path(tmp, "corpus"), 1, wl.frames)
        cli("--seed", 1, "--out", f"{tmp}/extract", "extract", "--w", wl.w, "--stride", wl.stride,
            "--cloud", corpus.cloud, *(s.path for s in corpus.sequences))
        features = Path(tmp, "extract", "features.csv")
        grid = _timed(lambda: cli("--seed", 1, "--out", f"{tmp}/train", "train", features))
        grid_rows = len(features.read_text(encoding="utf-8").splitlines()) - 1
    return {"fit_20_trees_depth_12_s": {"rows": len(data.y), **fit},
            "train_default_grid_s": {"rows": grid_rows, **grid}}


def _standard(checkout):
    argv = [sys.executable, str(Path(__file__).resolve()), "--standard-figures"]
    print("running standard-corpus figures", file=sys.stderr, flush=True)
    run = subprocess.run(argv, cwd=checkout, capture_output=True, text=True)
    if run.returncode != 0:
        sys.exit(f"standard-corpus figures exited {run.returncode}:\n{run.stderr}")
    return json.loads(run.stdout)


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--checkout", type=Path, default=ROOT,
                        help="git checkout whose bench/run.py and src/ are measured")
    parser.add_argument("--standard-figures", action="store_true",
                        help="print the standard-corpus figures of the lmakit under the working "
                             "directory as JSON, and nothing else")
    args = parser.parse_args(argv)
    if args.standard_figures:
        print(json.dumps(_standard_figures()))
        return 0

    checkout = args.checkout.resolve()
    revision = _git(checkout, "rev-parse", "HEAD")
    dirty = bool(_git(checkout, "status", "--porcelain"))
    payload = {
        "revision": revision,
        "dirty": dirty,
        "nproc": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "seconds": SECONDS,
        "workloads": {w: _workload(checkout, w) for w in WORKLOADS},
        "standard_corpus": _standard(checkout),
    }
    path = ROOT / f"BENCH_{revision[:7]}{'-dirty' if dirty else ''}.json"
    path.write_text(json.dumps(payload, indent=1) + "\n", encoding="utf-8")
    print(path)
    return 0


if __name__ == "__main__":
    sys.exit(main())
