"""Self-test of the benchmark's output checks and tracer.

Run from the repository root:

    python3 bench/selftest.py

It runs a small extract -> train -> eval -> explain chain through the same
code as `run.py`, so every check must pass on the program's real output.
Then, for each check, it corrupts a copy of the output and requires that
exactly that check fires.  Finally it runs one traced command and requires
that every patched function is restored afterwards.  Exits 0 on success.
"""

import csv
import json
import shutil
import sys
from pathlib import Path

import checks
import run
import tracer

SMALL = run.Workload("selftest", ("extract",), 30, 10, 5,
                     {"n_trees": [2, 3], "max_depth": [3], "min_samples_leaf": [1]}, 1, 20, {})


def edit_csv(path, change):
    with open(path, encoding="utf-8", newline="") as fh:
        rows = list(csv.reader(fh))
    change(rows)
    with open(path, "w", encoding="utf-8", newline="") as fh:
        csv.writer(fh, lineterminator="\n").writerows(rows)


def scale_column(name, factor=1.0, shift=0.0):
    def change(rows):
        c = rows[0].index(name)
        for r in rows[1:]:
            r[c] = repr(float(r[c]) * factor + shift)
    return change


def set_cell(row, col, value):
    def change(rows):
        c = rows[0].index(col) if isinstance(col, str) else col
        r = [r for r in rows if r and r[0] == row][0] if isinstance(row, str) else rows[row]
        r[c] = value
    return change


def edit_model(path, change):
    model = json.loads(Path(path).read_text(encoding="utf-8"))
    change(model)
    Path(path).write_text(json.dumps(model, sort_keys=True, separators=(",", ":")) + "\n", encoding="utf-8")


def first_leaf(node):
    while "feature" in node:
        node = node["left"]
    return node


def first_split(model):
    return next(t for t in model["trees"] if "feature" in t)


def other_n_trees(model):
    model["params"]["n_trees"] = 5 - model["params"]["n_trees"]  # the lattice holds 2 and 3


def unused_shift(chain_dir):
    """Move 1e-3 of attribution from a used feature to an unused one, sums unchanged."""
    model = json.loads((chain_dir / "train" / "model.json").read_text(encoding="utf-8"))
    used = {n["feature"] for t in model["trees"] for n in checks.tree_nodes(t) if "feature" in n}
    names = checks.read_features(chain_dir / "explain_rows.csv")[0]
    f_used, f_unused = names[min(used)], names[min(set(range(55)) - used)]

    def change(rows):
        for r in rows[1:]:
            if r[0] == "0" and r[1] == model["class_names"][0] and r[2] in (f_used, f_unused):
                r[3] = repr(float(r[3]) + (1e-3 if r[2] == f_unused else -1e-3))
    return change


def corruptions(chain):
    """(check name, stage, how to corrupt a copy of the chain's directory)."""
    feats = ("extract", "features.csv")
    model = ("train", "model.json")
    return [
        ("extract.rows", "extract", lambda d: edit_csv(d.joinpath(*feats), lambda rows: rows.pop())),
        ("extract.rows", "extract", lambda d: edit_csv(d.joinpath(*feats), set_cell(2, "window_start", "7"))),
        ("extract.finite", "extract", lambda d: edit_csv(d.joinpath(*feats), set_cell(1, 0, "nan"))),
        ("extract.slots", "extract", lambda d: edit_csv(d.joinpath(*feats), scale_column("dist_hand_hand", 1.001))),
        ("extract.slots", "extract", lambda d: edit_csv(d.joinpath(*feats), scale_column("travel_head", 1.001))),
        ("extract.slots", "extract",
         lambda d: edit_csv(d.joinpath(*feats), scale_column("pelvis_net_displacement", 1.001))),
        ("extract.heights", "extract",
         lambda d: edit_csv(d.joinpath(*feats), scale_column("pelvis_height_mean", shift=0.05))),
        ("extract.volume", "extract", lambda d: edit_csv(d.joinpath(*feats), scale_column("volume_max", 1.01))),
        ("train.cv_report", "train", lambda d: edit_csv(d / "train" / "cv_report.csv", lambda rows: rows.pop())),
        ("train.cv_report", "train",
         lambda d: edit_csv(d / "train" / "cv_report.csv", set_cell(1, "fold_accuracies", "1.5;0.5;0.5"))),
        ("train.tie_break", "train", lambda d: edit_model(d.joinpath(*model), other_n_trees)),
        ("train.model_walk", "train",
         lambda d: edit_model(d.joinpath(*model), lambda m: first_leaf(m["trees"][0])["counts"].__setitem__(0, 999))),
        ("train.model_walk", "train",
         lambda d: edit_model(d.joinpath(*model), lambda m: first_split(m).__setitem__("feature", 99))),
        ("train.model_walk", "train",
         lambda d: edit_model(d.joinpath(*model), lambda m: first_split(m)["left"].__setitem__(
             "cover", first_split(m)["left"]["cover"] + 1))),
        ("train.macro_f1", "train", lambda d: edit_csv(d / "train" / "metrics.csv", set_cell("macro", "f1", "0.1"))),
        ("train.deterministic", "train",
         lambda d: d.joinpath(*model).write_text(d.joinpath(*model).read_text(encoding="utf-8") + " ",
                                                 encoding="utf-8")),
        ("eval.metrics", "eval", lambda d: edit_csv(d / "eval" / "metrics.csv", set_cell(1, "precision", "0.123"))),
        ("eval.metrics", "eval", lambda d: edit_csv(d / "eval" / "metrics.csv", set_cell(1, "support", "999"))),
        ("explain.shape", "explain", lambda d: edit_csv(d / "explain" / "explanations.csv", lambda rows: rows.pop())),
        ("explain.local_accuracy", "explain",
         lambda d: edit_csv(d / "explain" / "explanations.csv", scale_column("phi", shift=1e-3))),
        ("explain.unused_zero", "explain",
         lambda d: edit_csv(d / "explain" / "explanations.csv", unused_shift(chain.dir))),
    ]


def check_tracer_restores(chain):
    def current():
        return [vars(tracer.resolve(module))[attr] for module, attr, _, _ in tracer.PATCHES]

    before = current()
    t = tracer.Tracer()
    with t.patched():
        chain.op("traced", "eval")
    if current() != before or not t.spans or t.spans[0][0] != "cli":
        raise AssertionError("tracer left a patch in place or recorded no cli span")


def main():
    sys.dont_write_bytecode = True
    sys.path.insert(0, str(run.ROOT / "src"))

    run.OUT.mkdir(exist_ok=True)
    chain = run.Chain(SMALL, 5, 1, run.OUT / "selftest")
    failures = []
    try:
        chain.reset()
        chain.generate()
        for stage in run.STAGES + ("train",):  # the second train checks byte-identity
            chain.op("setup", stage)
        copy = run.Chain(SMALL, chain.seed, 1, run.OUT / "selftest-copy")
        copy.corpus, copy.model_bytes = chain.corpus, chain.model_bytes
        cases = corruptions(chain)
        for name, stage, corrupt in cases:
            shutil.rmtree(copy.dir, ignore_errors=True)
            shutil.copytree(chain.dir, copy.dir)
            corrupt(copy.dir)
            try:
                copy._check(stage)
                failures.append(f"{name}: corrupted output passed")
            except checks.CheckError as e:
                if e.name != name:
                    failures.append(f"{name}: fired {e.name} instead ({e})")
        check_tracer_restores(chain)
    finally:
        shutil.rmtree(chain.dir, ignore_errors=True)
        shutil.rmtree(run.OUT / "selftest-copy", ignore_errors=True)
    for line in failures:
        print("FAIL", line)
    print(f"{len(cases) - len(failures)}/{len(cases)} corruptions caught by the intended check;"
          f" tracer restores its patches")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
