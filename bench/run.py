"""lmakit benchmark: the extract -> train -> eval -> explain chain.

Run from the repository root:

    python3 bench/run.py --workload train --seed 1 --seconds 45 --trace 0

Every run builds its inputs from --seed and drives the CLI in-process through
`lmakit.cli.main`, one CLI command per operation.  Set-up (input generation
and the stages before the workload's subject stages) is repeated for the
median `setup_s`.  Then whole rounds of the chain run for --seconds, every
command timed on its own: `wall_s` is the median time of a round's subject
stages, and each stage's rate is the median over the commands that ran it.  Sampling every
stage in every round spreads each rate over the whole run, which keeps it
steady on a machine whose speed drifts.  With --trace 1 the rounds alternate
untraced and traced and the run reports per-layer figures instead.  The last
line of stdout is one JSON object: correct, attempted, failed, metrics.
Reports go to bench-out/ at the repository root.  See bench/README.md.
"""

import argparse
import contextlib
import io
import json
import os
import resource
import shutil
import statistics
import sys
from collections import defaultdict
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter

import numpy as np

from checks import CheckError, check_eval, check_explain, check_extract, check_train
from inputs import make_corpus, subset_csv
from tracer import Tracer

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench-out"
STAGES = ("extract", "train", "eval", "explain")
SETUP_REPEATS = 3  # at least, and until SETUP_SECONDS have passed
SETUP_SECONDS = 2.0
K = 3
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 80.0, 75.0)


@dataclass(frozen=True)
class Workload:
    name: str
    subject: tuple  # stages whose time per round is wall_s
    frames: int  # per sequence; 30 sequences
    w: int
    stride: int
    grid: dict  # train lattice
    threads: int  # train --threads
    explain_rows: int  # at most this many evenly spaced rows go to explain
    # Commands per round of a stage, 1 if absent.  Short commands run several
    # times a round, so their medians rest on enough samples spread over the run.
    repeats: dict

    @property
    def upstream(self):
        return STAGES[:STAGES.index(self.subject[0])]

    def round(self):
        return [s for s in STAGES for _ in range(self.repeats.get(s, 1))]


WORKLOADS = {
    w.name: w for w in (
        Workload("train", ("train",), 40, 10, 3,
                 {"n_trees": [20], "max_depth": [6], "min_samples_leaf": [1, 2, 4, 8]}, 2, 33,
                 {"eval": 4, "explain": 3}),
        Workload("explain", ("eval", "explain"), 40, 10, 5,
                 {"n_trees": [40], "max_depth": [5], "min_samples_leaf": [1]}, 1, 10**9,
                 {"eval": 4}),
    )
}


def _csv_list(values):
    return ",".join("None" if v is None else str(v) for v in values)


class Chain:
    """Working directory, inputs and bookkeeping for one benchmark run."""

    def __init__(self, workload, seed, threads, workdir):
        self.wl = workload
        self.seed = seed
        self.threads = threads
        self.dir = Path(workdir)
        self.attempted = 0
        self.failed = 0
        self.correct = True
        self.errors = []
        self.ops = []  # (phase, stage, seconds, ok)
        self.rates = defaultdict(list)  # stage -> units per second
        self.model_bytes = None
        self.corpus = None

    def reset(self):
        shutil.rmtree(self.dir, ignore_errors=True)
        self.dir.mkdir(parents=True)

    def generate(self):
        self.corpus = make_corpus(self.dir / "corpus", self.seed, self.wl.frames)

    def _path(self, *parts):
        return str(self.dir.joinpath(*parts))

    def _prepare(self, stage):
        """argv and work units of one command; files it needs are written here, untimed."""
        wl, out = self.wl, self._path(stage)
        features, model = self._path("extract", "features.csv"), self._path("train", "model.json")
        if stage == "extract":
            argv = ["--seed", str(self.seed), "--out", out, "extract", "--w", str(wl.w),
                    "--stride", str(wl.stride), "--cloud", str(self.corpus.cloud)]
            return argv + [str(s.path) for s in self.corpus.sequences], self.corpus.n_frames
        if stage == "train":
            g = wl.grid
            argv = ["--seed", str(self.seed), "--threads", str(self.threads), "--out", out, "train",
                    features, "--n-trees", _csv_list(g["n_trees"]), "--max-depth", _csv_list(g["max_depth"]),
                    "--min-samples-leaf", _csv_list(g["min_samples_leaf"]), "--k", str(K)]
            return argv, len(g["n_trees"]) * len(g["max_depth"]) * len(g["min_samples_leaf"]) * K
        if stage == "eval":
            with open(features, encoding="utf-8") as fh:
                rows = sum(1 for _ in fh) - 1
            return ["--out", out, "eval", model, features], rows
        rows = subset_csv(features, self._path("explain_rows.csv"), wl.explain_rows)
        return ["--out", out, "explain", model, self._path("explain_rows.csv")], rows

    def _check(self, stage):
        out = self._path(stage)
        if stage == "extract":
            check_extract(out, self.corpus, self.wl.w, self.wl.stride, np.random.default_rng(self.seed))
        elif stage == "train":
            self.model_bytes = check_train(out, self._path("extract", "features.csv"),
                                           self.wl.grid, K, self.model_bytes)
        elif stage == "eval":
            check_eval(out, self._path("train", "model.json"), self._path("extract", "features.csv"))
        else:
            check_explain(out, self._path("train", "model.json"), self._path("explain_rows.csv"))

    def op(self, phase, stage):
        """Run one CLI command, check its outputs; returns its wall seconds."""
        from lmakit import cli  # found on sys.path only once main() has set it

        argv, units = self._prepare(stage)
        shutil.rmtree(self._path(stage), ignore_errors=True)
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = perf_counter()
            rc = cli.main(argv)
            seconds = perf_counter() - start
        self.attempted += 1
        ok = rc == 0
        if not ok:
            self.errors.append(f"{phase} {stage}: exit {rc}: {captured.getvalue()[-400:]}")
        else:
            try:
                self._check(stage)
            except (CheckError, ValueError, KeyError, IndexError, TypeError, OSError) as e:
                ok = self.correct = False
                self.errors.append(f"{phase} {stage}: {type(e).__name__}: {e}")
        if ok:
            self.rates[stage].append(units / seconds)
        else:
            self.failed += 1
            if phase == "setup":
                raise RuntimeError(self.errors[-1])
        self.ops.append((phase, stage, seconds, ok))
        return seconds


def _tail(values):
    """Highest ladder percentile with at least ten samples above it."""
    for p in TAIL_LADDER:
        if len(values) * (100.0 - p) / 100.0 >= 10:
            return p, float(np.percentile(values, p))
    return 50.0, float(np.percentile(values, 50))


def _layer_metrics(tracer, percentiles):
    totals, durations = tracer.self_times()
    c = tracer.counts
    hull_us = [d * 1e6 for d in durations["hull.volume"]]
    shap_ms = [d * 1e3 for d in durations["explain.tree_shap"]]
    hull_p, hull_tail = _tail(hull_us)
    shap_p, shap_tail = _tail(shap_ms)
    percentiles.update({"hull.volume_us_tail": hull_p, "explain.tree_shap_ms_tail": shap_p})
    return {
        "sequence.load_s": (totals["sequence.load"], "s"),
        "sequence.frames_loaded": (c["sequence.frames_loaded"], "count"),
        "sequence.repair_s": (totals["sequence.repair"], "s"),
        "sequence.values_repaired": (c["sequence.values_repaired"], "count"),
        "floor.fit_s": (totals["floor.fit"], "s"),
        "floor.cloud_points": (c["floor.cloud_points"], "count"),
        "kinematics.derivative_s": (totals["kinematics.derivative"], "s"),
        "kinematics.derivative_calls": (len(durations["kinematics.derivative"]), "count"),
        "hull.volume_s": (totals["hull.volume"], "s"),
        "hull.volume_calls": (len(hull_us), "count"),
        "hull.volume_us_p50": (statistics.median(hull_us), "us"),
        "hull.volume_us_tail": (hull_tail, "us"),
        "hull.zero_volume_calls": (c["hull.zero_volume_calls"], "count"),
        "features.primitives_s": (totals["features.primitives"], "s"),
        "features.assemble_s": (totals["features.assemble"], "s"),
        "features.windows_out": (c["features.windows_out"], "count"),
        "features.csv_write_s": (totals["features.csv_write"], "s"),
        "features.csv_bytes": (c["features.csv_bytes"], "bytes"),
        "features.csv_read_s": (totals["features.csv_read"], "s"),
        "forest.train_s": (totals["forest.train"], "s"),
        "forest.grid_search_s": (totals["forest.grid_search"], "s"),
        "forest.train_calls": (len(durations["forest.train"]), "count"),
        "forest.trees_grown": (c["forest.trees_grown"], "count"),
        "forest.nodes_grown": (c["forest.nodes_grown"], "count"),
        "forest.trees_per_requested_tree": (c["forest.trees_grown"] / c["forest.trees_requested"], "ratio"),
        "forest.predict_s": (totals["forest.predict"], "s"),
        "forest.rows_predicted": (c["forest.rows_predicted"], "count"),
        "forest.model_save_s": (totals["forest.model_save"], "s"),
        "forest.model_load_s": (totals["forest.model_load"], "s"),
        "forest.model_bytes": (c["forest.model_bytes"], "bytes"),
        "explain.tree_shap_s": (totals["explain.tree_shap"], "s"),
        "explain.tree_shap_calls": (len(shap_ms), "count"),
        "explain.tree_shap_ms_p50": (statistics.median(shap_ms), "ms"),
        "explain.tree_shap_ms_tail": (shap_tail, "ms"),
        "explain.csv_write_s": (totals["explain.csv_write"], "s"),
        "explain.csv_bytes": (c["explain.csv_bytes"], "bytes"),
        "cli.self_s": (totals["cli"], "s"),
    }


def run_untraced(chain, seconds, report):
    setup = []
    while len(setup) < SETUP_REPEATS or sum(setup) < SETUP_SECONDS:
        chain.reset()
        start = perf_counter()
        chain.generate()
        elapsed = perf_counter() - start
        setup.append(elapsed + sum(chain.op("setup", s) for s in chain.wl.upstream))
    walls = []
    start = perf_counter()
    while not walls or perf_counter() - start < seconds:
        times = [(s, chain.op("round", s)) for s in chain.wl.round()]
        walls.append(sum(t for s, t in times if s in chain.wl.subject))
    report.update(setup_s=setup, subject_walls=walls, rates=dict(chain.rates))
    missing = [s for s in STAGES if not chain.rates[s]]
    if missing:
        raise RuntimeError(f"no {', '.join(missing)} command succeeded")
    rate = {s: statistics.median(chain.rates[s]) for s in STAGES}
    return {
        "setup_s": (statistics.median(setup), "s"),
        "wall_s": (statistics.median(walls), "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "extract_frames_per_s": (rate["extract"], "frames/s"),
        "train_cv_fits_per_s": (rate["train"], "fits/s"),
        "eval_rows_per_s": (rate["eval"], "rows/s"),
        "explain_rows_per_s": (rate["explain"], "rows/s"),
    }


def run_traced(chain, seconds, report):
    chain.reset()
    chain.generate()
    plain, traced, passes, percentiles = [], [], [], {}
    start = perf_counter()
    while not passes or perf_counter() - start < seconds:
        plain.append(sum(chain.op("round", s) for s in chain.wl.round()))
        tracer = Tracer()
        with tracer.patched():
            traced.append(sum(chain.op("traced", s) for s in chain.wl.round()))
        layers = _layer_metrics(tracer, percentiles)
        accounted = sum(value for name, (value, unit) in layers.items() if unit == "s")
        if abs(accounted - traced[-1]) > 0.01 * traced[-1] + 0.002 * len(chain.wl.round()):
            chain.correct = False
            chain.errors.append(f"self times add to {accounted:.4f} s, traced wall {traced[-1]:.4f} s")
        passes.append(layers)
        spans = [[n, t0 - start, t1 - start, p] for n, t0, t1, p in tracer.spans]
    report.update(untraced_walls=plain, traced_walls=traced, tail_percentiles=percentiles, spans=spans)
    metrics = {name: (statistics.median(p[name][0] for p in passes), unit)
               for name, (_, unit) in passes[0].items()}
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(plain), "s")
    return metrics


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int, default=None,
                        help="override train --threads (2 on the train workload, else 1)")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "lmakit" / "__init__.py").is_file():
        print(f"error: no lmakit sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(ROOT / "src"))
    import lmakit.cli  # noqa: F401  import cost stays out of set-up timing

    OUT.mkdir(exist_ok=True)
    workload = WORKLOADS[args.workload]
    threads = workload.threads if args.threads is None else args.threads
    chain = Chain(workload, args.seed, threads, OUT / f"work-{os.getpid()}")
    report = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
              "trace": args.trace, "threads": threads}
    try:
        runner = run_traced if args.trace else run_untraced
        metrics = runner(chain, args.seconds, report)
    except RuntimeError as e:
        for line in chain.errors:
            print(line, file=sys.stderr)
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(chain.dir, ignore_errors=True)

    result = {
        "correct": chain.correct,
        "attempted": chain.attempted,
        "failed": chain.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    report.update(result=result, ops=chain.ops, errors=chain.errors)
    name = f"{args.workload}-seed{args.seed}-trace{args.trace}-threads{threads}.json"
    (OUT / name).write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    for line in chain.errors:
        print(line, file=sys.stderr)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
