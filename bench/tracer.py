"""In-memory span tracer wrapped around the program's public functions.

`Tracer.patched()` replaces each function in `PATCHES` under the name its
caller looks up (``lmakit.features.hull_volume``, ``lmakit.cli.tree_shap``)
with a wrapper that records a span -- name, start, end, parent -- and the
counts its layer reports, and restores the originals on exit.  Untraced runs
never enter `patched()`, so they run the program as it is.

A span's self time is its duration minus its children's durations.  Spans
are recorded on the main thread only; calls made from worker threads (tree
growing inside `train`) add to counters but not to spans, so a parent's
self time never goes negative because of parallel children.  Functions that
are not wrapped are charged to the span of their caller; whatever the CLI
does between wrapped calls lands in the ``cli`` span around `lmakit.cli.main`.
"""

import contextlib
import importlib
import os
import threading
from collections import defaultdict
from time import perf_counter

import numpy as np


def _frames(args, kwargs, result):
    return {"sequence.frames_loaded": result.n_frames}


def _repaired(args, kwargs, result):
    return {"sequence.values_repaired": int(np.isnan(args[0].positions).sum())}


def _cloud(args, kwargs, result):
    return {"floor.cloud_points": len(args[0])}


def _zero_volume(args, kwargs, result):
    return {"hull.zero_volume_calls": int(result == 0.0)}


def _windows(args, kwargs, result):
    return {"features.windows_out": len(result)}


def _file_bytes(metric, position):
    def count(args, kwargs, result):
        return {metric: os.path.getsize(args[position])}
    return count


def _requested_trees(args, kwargs, result):
    grid = args[1]
    others = len(grid["max_depth"]) * len(grid["min_samples_leaf"])
    others *= len(grid["features_per_split"]) * len(grid["bootstrap"]) * len(grid["seed"])
    return {"forest.trees_requested": sum(grid["n_trees"]) * others * kwargs["k"]}


def _tree_nodes(args, kwargs, result):
    stack, nodes = [result], 0
    while stack:
        node = stack.pop()
        nodes += 1
        if "feature" in node:
            stack.extend((node["left"], node["right"]))
    return {"forest.trees_grown": 1, "forest.nodes_grown": nodes}


def _rows(args, kwargs, result):
    return {"forest.rows_predicted": len(result)}


# (module, attribute, span name for self time or None for counts only, counter)
PATCHES = (
    ("lmakit.cli", "main", "cli", None),
    ("lmakit.cli", "load_sequence", "sequence.load", _frames),
    ("lmakit.cli", "validate_and_repair", "sequence.repair", _repaired),
    ("lmakit.cli", "fit_floor", "floor.fit", _cloud),
    ("lmakit.features", "SequencePrimitives", "features.primitives", None),
    ("lmakit.features", "derivative", "kinematics.derivative", None),
    ("lmakit.features", "hull_volume", "hull.volume", _zero_volume),
    ("lmakit.cli", "assemble_features", "features.assemble", _windows),
    ("lmakit.cli", "write_features_csv", "features.csv_write", _file_bytes("features.csv_bytes", 1)),
    ("lmakit.cli", "read_features_csv", "features.csv_read", None),
    ("lmakit.cli", "grid_search", "forest.grid_search", _requested_trees),
    ("lmakit.forest", "cross_val_accuracy", "forest.grid_search", None),
    ("lmakit.cli", "train", "forest.train", None),
    ("lmakit.forest", "train", "forest.train", None),
    ("lmakit.forest", "_grow_tree", None, _tree_nodes),
    ("lmakit.cli", "predict", "forest.predict", None),
    ("lmakit.forest", "predict", "forest.predict", None),
    ("lmakit.forest", "predict_proba", "forest.predict", _rows),
    ("lmakit.forest:ForestModel", "save", "forest.model_save", _file_bytes("forest.model_bytes", 1)),
    ("lmakit.forest:ForestModel", "load", "forest.model_load", _file_bytes("forest.model_bytes", 0)),
    ("lmakit.cli", "tree_shap", "explain.tree_shap", None),
    ("lmakit.cli", "write_explanations_csv", "explain.csv_write", _file_bytes("explain.csv_bytes", 1)),
    ("lmakit.cli", "write_summary_csv", "explain.csv_write", _file_bytes("explain.csv_bytes", 1)),
)

# Reported as the largest value seen rather than a sum.
MAX_COUNTS = ("forest.model_bytes",)


def resolve(path):
    """'package.module' or 'package.module:Class' to the object to patch."""
    module, _, cls = path.partition(":")
    owner = importlib.import_module(module)
    return getattr(owner, cls) if cls else owner


class Tracer:
    def __init__(self):
        self.spans = []  # (name, start, end, parent index or -1)
        self.counts = defaultdict(int)
        self._open = []  # indices of spans not yet ended
        self._main = threading.main_thread()
        self._lock = threading.Lock()

    def _count(self, counter, args, kwargs, result):
        if counter is None:
            return
        with self._lock:
            for key, value in counter(args, kwargs, result).items():
                if key in MAX_COUNTS:
                    self.counts[key] = max(self.counts[key], value)
                else:
                    self.counts[key] += value

    def _wrap(self, fn, name, counter):
        def traced(*args, **kwargs):
            if name is None or threading.current_thread() is not self._main:
                result = fn(*args, **kwargs)
                self._count(counter, args, kwargs, result)
                return result
            index = len(self.spans)
            self.spans.append([name, perf_counter(), None, self._open[-1] if self._open else -1])
            self._open.append(index)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.spans[index][2] = perf_counter()
                self._open.pop()
            self._count(counter, args, kwargs, result)
            return result
        return traced

    @contextlib.contextmanager
    def patched(self):
        saved = []
        try:
            for module, attr, name, counter in PATCHES:
                owner = resolve(module)
                raw = vars(owner)[attr]
                saved.append((owner, attr, raw))
                if isinstance(raw, staticmethod):
                    setattr(owner, attr, staticmethod(self._wrap(raw.__func__, name, counter)))
                else:
                    setattr(owner, attr, self._wrap(raw, name, counter))
            yield self
        finally:
            for owner, attr, raw in reversed(saved):
                setattr(owner, attr, raw)

    def self_times(self):
        """Self time per span name, and per-call durations per span name."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        totals, durations = defaultdict(float), defaultdict(list)
        for (name, start, end, _), inner in zip(self.spans, child):
            totals[name] += end - start - inner
            durations[name].append(end - start)
        return totals, durations
