import contextlib
import io
import json
import os
import re
import subprocess
import sys
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from forest_reference import flat_from_trees, vote_by_group
from lmakit.cli import _build_parser, _vote_by_group, main
from lmakit.errors import SchemaError
from lmakit.features import FEATURE_NAMES
from lmakit.forest import _model_from_payload


@pytest.fixture(scope="module")
def ws(tmp_path_factory):
    """Shared workspace: tiny corpus -> features -> model, built once."""
    root = tmp_path_factory.mktemp("cli")
    corpus = root / "corpus"
    rc = main(["--seed", "7", "--out", str(corpus), "synth",
               "--per-style", "3", "--duration", "1.0", "--noise", "0.003"])
    assert rc == 0
    feats = root / "feats"
    seqs = sorted(str(p) for p in corpus.glob("*.jsonl"))
    rc = main(["--seed", "7", "--out", str(feats), "extract",
               "--w", "30", "--stride", "15"] + seqs)
    assert rc == 0
    model = root / "model"
    rc = main(["--seed", "7", "--out", str(model), "train",
               str(feats / "features.csv"),
               "--n-trees", "10", "--max-depth", "6", "--min-samples-leaf", "1"])
    assert rc == 0
    return root


def test_synth_outputs(ws):
    files = sorted((ws / "corpus").glob("*.jsonl"))
    assert len(files) == 30  # 10 styles x 3 recordings
    manifest = json.loads((ws / "corpus" / "manifest.json").read_text())
    assert manifest["command"] == "synth"
    assert manifest["seed"] == 7


def test_extract_row_count_and_manifest(ws):
    lines = (ws / "feats" / "features.csv").read_text().strip().split("\n")
    # 30 sequences x 3 windows (T=60, w=30, stride=15)
    assert len(lines) == 1 + 30 * 3
    header = lines[0].split(",")
    assert len(header) == 55 + 3
    manifest = json.loads((ws / "feats" / "manifest.json").read_text())
    assert manifest["notes"]["floor"] == "assumed-flat"
    assert len(manifest["inputs"]) == 30


def test_extract_window_count_120_frames(ws, tmp_path):
    # T=120, w=55, stride=1 -> 66 windows
    corpus2 = tmp_path / "c2"
    assert main(["--seed", "1", "--out", str(corpus2), "synth",
                 "--per-style", "3", "--duration", "2.0"]) == 0
    seq = sorted(corpus2.glob("glide_*.jsonl"))[0]
    out = tmp_path / "f2"
    assert main(["--out", str(out), "extract", "--w", "55", "--stride", "1", str(seq)]) == 0
    lines = (out / "features.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 66


def test_train_outputs(ws):
    model_dir = ws / "model"
    for name in ("model.json", "metrics.csv", "cv_report.csv", "manifest.json"):
        assert (model_dir / name).exists()
    payload = json.loads((model_dir / "model.json").read_text())
    assert payload["format_version"] == 1
    assert len(payload["class_names"]) == 10
    metrics = (model_dir / "metrics.csv").read_text().strip().split("\n")
    assert metrics[0].startswith("class,precision,recall,f1")
    assert len(metrics) == 1 + 10 + 1  # classes + macro


def test_train_deterministic(ws, tmp_path):
    out2 = tmp_path / "model2"
    rc = main(["--seed", "7", "--out", str(out2), "train",
               str(ws / "feats" / "features.csv"),
               "--n-trees", "10", "--max-depth", "6", "--min-samples-leaf", "1"])
    assert rc == 0
    assert (out2 / "model.json").read_bytes() == (ws / "model" / "model.json").read_bytes()


def test_threads_flag_does_not_change_outputs(ws, tmp_path):
    # the fixture's model was trained with the default --threads 1
    out = tmp_path / "model8"
    rc = main(["--seed", "7", "--threads", "8", "--out", str(out), "train",
               str(ws / "feats" / "features.csv"),
               "--n-trees", "10", "--max-depth", "6", "--min-samples-leaf", "1"])
    assert rc == 0
    for name in ("model.json", "cv_report.csv"):
        assert (out / name).read_bytes() == (ws / "model" / name).read_bytes()


def test_eval_on_training_features(ws, tmp_path, capsys):
    out = tmp_path / "eval"
    rc = main(["--out", str(out), "eval",
               str(ws / "model" / "model.json"), str(ws / "feats" / "features.csv")])
    assert rc == 0
    assert (out / "metrics.csv").exists()
    table = capsys.readouterr().out
    assert "Average" in table and "glide" in table


def test_explain_outputs(ws, tmp_path):
    out = tmp_path / "explain"
    rc = main(["--out", str(out), "explain",
               str(ws / "model" / "model.json"), str(ws / "feats" / "features.csv"),
               "--top-k", "5"])
    assert rc == 0
    summary = (out / "summary.csv").read_text().strip().split("\n")
    assert len(summary) == 1 + 5
    assert (out / "explanations.csv").exists()
    per_class = (out / "summary_per_class.csv").read_text().strip().split("\n")
    assert len(per_class) == 1 + 10 * 5


def test_explain_local_accuracy_via_csv(ws, tmp_path):
    # attributions + base reproduce the forest probabilities
    import csv as _csv

    from lmakit.features import read_features_csv
    from lmakit.forest import ForestModel, predict_proba

    out = tmp_path / "explain2"
    assert main(["--out", str(out), "explain",
                 str(ws / "model" / "model.json"), str(ws / "feats" / "features.csv")]) == 0
    model = ForestModel.load(ws / "model" / "model.json")
    X = read_features_csv(ws / "feats" / "features.csv").X
    sums = {}
    with open(out / "explanations.csv", encoding="utf-8") as fh:
        for row in _csv.DictReader(fh):
            key = (int(row["instance"]), row["class"])
            sums.setdefault(key, float(row["base"]))
            sums[key] += float(row["phi"])
    proba = predict_proba(model, X)
    for (i, cname), total in sums.items():
        c = model.class_names.index(cname)
        assert total == pytest.approx(proba[i, c], abs=1e-6)


def test_floor_subcommand(tmp_path):
    rng = np.random.default_rng(0)
    d = rng.uniform(0, 5, 200)
    h = 0.08 * d + 0.4 + rng.exponential(0.3, 200)
    cloud = tmp_path / "cloud.txt"
    cloud.write_text(
        "# synthetic scan\n"
        + "\n".join(f"{0.0} {hi} {di}" for hi, di in zip(h, d))
        + "\n"
    )
    out = tmp_path / "floor"
    assert main(["--out", str(out), "floor", str(cloud), "--tau", "0.1"]) == 0
    payload = json.loads((out / "floor.json").read_text())
    assert abs(payload["slope"] - 0.08) < 0.05
    assert payload["pinball_loss"] >= 0


def test_kinplot_outputs(ws, tmp_path):
    seq = sorted((ws / "corpus").glob("stomp_*.jsonl"))[0]
    out = tmp_path / "kin"
    assert main(["--out", str(out), "kinplot", "--w", "20", str(seq)]) == 0
    lines = (out / "kinematics.csv").read_text().strip().split("\n")
    assert lines[0] == "frame,velocity"
    assert len(lines) == 1 + (60 - 20 + 1)
    svg = (out / "kinematics.svg").read_text()
    assert svg.startswith("<svg") or "<svg" in svg


def test_config_file_supplies_window(ws, tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[window]\nw = 20\nstride = 20\n")
    seq = sorted((ws / "corpus").glob("arc_*.jsonl"))[0]
    out = tmp_path / "cfgout"
    assert main(["--config", str(cfg), "--out", str(out), "extract", str(seq)]) == 0
    lines = (out / "features.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 3  # T=60, w=20, stride=20


def test_flag_overrides_config(ws, tmp_path):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[window]\nw = 20\nstride = 20\n")
    seq = sorted((ws / "corpus").glob("arc_*.jsonl"))[0]
    out = tmp_path / "cfgout2"
    assert main(["--config", str(cfg), "--out", str(out), "extract",
                 "--w", "30", "--stride", "30", str(seq)]) == 0
    lines = (out / "features.csv").read_text().strip().split("\n")
    assert len(lines) == 1 + 2


# --- exit codes ------------------------------------------------------------


def test_usage_error_exit_1(capsys):
    assert main(["no-such-command"]) == 1
    assert "usage error" in capsys.readouterr().err


def test_missing_required_argument_exit_1(capsys):
    assert main(["train"]) == 1


def test_corrupt_line_reported_with_location(ws, tmp_path, capsys):
    src = sorted((ws / "corpus").glob("*.jsonl"))[0]
    lines = Path(src).read_text().split("\n")
    lines[6] = '{"broken":'
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines))
    out = tmp_path / "badout"
    assert main(["--out", str(out), "extract", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad.jsonl" in err
    assert "7" in err  # 1-based line number of the corrupt record


def test_missing_file_exit_2(tmp_path, capsys):
    out = tmp_path / "o"
    rc = main(["--out", str(out), "extract", str(tmp_path / "ghost.jsonl")])
    assert rc in (2, 3)
    assert rc == 2 or "error" in capsys.readouterr().err


def test_window_longer_than_sequence_exit_2(ws, tmp_path):
    seq = sorted((ws / "corpus").glob("*.jsonl"))[0]
    out = tmp_path / "o2"
    assert main(["--out", str(out), "extract", "--w", "999", str(seq)]) == 2


def test_extract_manifest_records_fps_and_degenerate_hulls(ws, tmp_path):
    from conftest import make_sequence, static_pose_positions
    from lmakit.sequence import save_sequence

    manifest = json.loads((ws / "feats" / "manifest.json").read_text())
    assert len(manifest["fps"]) == 30 and set(manifest["fps"].values()) == {60.0}
    assert manifest["diagnostics"] == {"degenerate_hull_frames": 0}

    flat = static_pose_positions(12)
    flat[..., 2] = 0.0  # every frame coplanar: hull volume 0
    path = tmp_path / "flat.jsonl"
    save_sequence(make_sequence(flat), path)
    out = tmp_path / "o"
    assert main(["--out", str(out), "extract", "--w", "5", str(path)]) == 0
    manifest = json.loads((out / "manifest.json").read_text())
    assert manifest["fps"] == {str(path): 60.0}
    assert manifest["diagnostics"]["degenerate_hull_frames"] == 12


@pytest.mark.parametrize("command", [["extract"], ["sweep", "--sizes", "10"]])
def test_mixed_frame_rates_exit_2(ws, tmp_path, capsys, command):
    slow = tmp_path / "slow"
    assert main(["--seed", "7", "--out", str(slow), "synth", "--per-style", "3",
                 "--duration", "1.0", "--fps", "30"]) == 0
    fast_seq = sorted((ws / "corpus").glob("*.jsonl"))[0]
    slow_seq = sorted(slow.glob("*.jsonl"))[0]
    capsys.readouterr()
    assert main(["--out", str(tmp_path / "o"), *command, str(fast_seq), str(slow_seq)]) == 2
    err = capsys.readouterr().err
    assert "mixed frame rates" in err and str(fast_seq) in err and str(slow_seq) in err


def _with_elbows(src, path):
    """A copy of the sequence file `src` with two more joints, fixed in
    place, playing the optional left_elbow and right_elbow roles."""
    header, *frames = Path(src).read_text(encoding="utf-8").split("\n")
    header = json.loads(header)
    header["joints"] += ["left_elbow", "right_elbow"]
    header["roles"].update(left_elbow="left_elbow", right_elbow="right_elbow")
    lines = [json.dumps(header)]
    lines += [json.dumps(json.loads(line) + [[0.2, 1.2, 0.0], [-0.2, 1.2, 0.0]]) for line in frames if line]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path


@pytest.mark.parametrize("command", [["extract", "--w", "10", "--stride", "5"], ["sweep", "--sizes", "10"]])
def test_mixed_skeletons_exit_2(ws, tmp_path, capsys, command):
    plain = sorted((ws / "corpus").glob("*.jsonl"))[0]
    elbows = _with_elbows(plain, tmp_path / "elbows.jsonl")
    capsys.readouterr()
    assert main(["--out", str(tmp_path / "o"), *command, str(plain), str(elbows)]) == 2
    err = capsys.readouterr().err
    assert "mixed skeletons" in err and str(plain) in err and str(elbows) in err
    assert '"joints": 13, "optional_roles": []' in err
    assert '"joints": 15, "optional_roles": ["left_elbow", "right_elbow"]' in err
    assert not (tmp_path / "o" / "features.csv").exists()


def test_extract_manifest_records_the_skeleton(ws, tmp_path):
    manifest = json.loads((ws / "feats" / "manifest.json").read_text())
    assert manifest["skeleton"] == {
        "joints": 13,
        "optional_roles": [],
        "weights": {"head": 0.8, "left_hand": 1.0, "right_hand": 1.0, "left_foot": 1.0,
                    "right_foot": 1.0, "pelvis": 0.5},
    }
    # one skeleton with elbows is one comparable set
    elbows = [_with_elbows(p, tmp_path / f"elbows-{i}.jsonl")
              for i, p in enumerate(sorted((ws / "corpus").glob("*.jsonl"))[:2])]
    out = tmp_path / "o"
    assert main(["--out", str(out), "extract", "--w", "10", "--stride", "5", *map(str, elbows)]) == 0
    skeleton = json.loads((out / "manifest.json").read_text())["skeleton"]
    assert skeleton["joints"] == 15 and skeleton["optional_roles"] == ["left_elbow", "right_elbow"]


def test_carriage_return_label_exit_2(ws, tmp_path, capsys):
    # refused on input: the feature CSV would not read such a label back
    lines = sorted((ws / "corpus").glob("*.jsonl"))[0].read_text().split("\n")
    header = json.loads(lines[0])
    header["label"] = "a\rb"
    lines[0] = json.dumps(header)
    bad = tmp_path / "cr.jsonl"
    bad.write_text("\n".join(lines))
    capsys.readouterr()
    assert main(["--out", str(tmp_path / "o"), "extract", "--w", "10", str(bad)]) == 2
    assert f"label must not hold a carriage return, got 'a\\rb' [{bad}:1]" in capsys.readouterr().err
    assert not (tmp_path / "o" / "features.csv").exists()


@pytest.mark.parametrize("line", [0, 3])
def test_deeply_nested_json_exit_2(ws, tmp_path, capsys, line):
    lines = sorted((ws / "corpus").glob("*.jsonl"))[0].read_text().split("\n")
    lines[line] = "[" * 100_000
    bad = tmp_path / "deep.jsonl"
    bad.write_text("\n".join(lines))
    assert main(["--out", str(tmp_path / "o"), "extract", "--w", "10", str(bad)]) == 2
    assert f"nested too deeply [{bad}:{line + 1}]" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["extract", "--w", "10"], ["sweep", "--sizes", "10"],
                                     ["kinplot", "--w", "10"]])
@pytest.mark.parametrize("where", ["fps", "coordinate"])
def test_overflowing_sequence_exit_2_naming_the_file(ws, tmp_path, capsys, command, where):
    # finite numbers whose derivatives and norms overflow a float are refused,
    # without a numpy warning (which would be an internal error here)
    lines = sorted((ws / "corpus").glob("*.jsonl"))[0].read_text().split("\n")
    row = 0 if where == "fps" else 4
    value = json.loads(lines[row])
    if where == "fps":
        value["fps"] = 1e300
    else:
        value[3][1] = 1e300
    lines[row] = json.dumps(value)
    bad = tmp_path / "huge.jsonl"
    bad.write_text("\n".join(lines))
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["--out", str(tmp_path / "o"), *command, str(bad)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {bad}: per-frame ")
    assert not list((tmp_path / "o").glob("*.csv"))


@pytest.mark.parametrize("coordinate", ["true", '"1.0"', '"abc"'])
def test_non_numeric_coordinate_exit_2(ws, tmp_path, capsys, coordinate):
    src = sorted((ws / "corpus").glob("*.jsonl"))[0]
    lines = Path(src).read_text().split("\n")
    frame = json.loads(lines[4])
    lines[4] = json.dumps(frame).replace(json.dumps(frame[2][0]), coordinate, 1)
    bad = tmp_path / "bad.jsonl"
    bad.write_text("\n".join(lines))
    assert main(["--out", str(tmp_path / "o"), "extract", "--w", "10", str(bad)]) == 2
    assert "bad.jsonl:5" in capsys.readouterr().err


@pytest.fixture()
def bad_csv(ws, tmp_path):
    lines = (ws / "feats" / "features.csv").read_text().split("\n")
    cells = lines[3].split(",")
    cells[7] = "n/a"
    lines[3] = ",".join(cells)
    path = tmp_path / "bad.csv"
    path.write_text("\n".join(lines))
    return path


@pytest.mark.parametrize("command", ["train", "eval", "explain"])
def test_non_numeric_feature_cell_exit_2(ws, tmp_path, capsys, bad_csv, command):
    model = str(ws / "model" / "model.json")
    argv = [str(bad_csv)] if command == "train" else [model, str(bad_csv)]
    assert main(["--out", str(tmp_path / "o"), command, *argv]) == 2
    assert "bad.csv:4" in capsys.readouterr().err


def test_eval_refuses_model_with_other_feature_schema(ws, tmp_path, capsys):
    payload = json.loads((ws / "model" / "model.json").read_text())
    payload["feature_names"][0] = "renamed"
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert main(["--out", str(out), "eval", str(model), str(ws / "feats" / "features.csv")]) == 2
    assert f"error: {model}: model feature schema" in capsys.readouterr().err


def test_explain_refuses_model_with_other_feature_schema(ws, tmp_path, capsys):
    payload = json.loads((ws / "model" / "model.json").read_text())
    payload["feature_names"][-1] = "renamed"
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    assert main(["--out", str(tmp_path / "o"), "explain", str(model),
                 str(ws / "feats" / "features.csv")]) == 2
    assert f"error: {model}: model feature schema" in capsys.readouterr().err


def test_eval_refuses_labels_outside_model_classes(ws, tmp_path, capsys):
    lines = (ws / "feats" / "features.csv").read_text().split("\n")
    cells = lines[2].split(",")
    cells[55] = "tango"
    path = tmp_path / "features.csv"
    path.write_text("\n".join([lines[0], lines[1], ",".join(cells)] + lines[3:]))
    assert main(["--out", str(tmp_path / "o"), "eval", str(ws / "model" / "model.json"), str(path)]) == 2
    assert f"error: {path}: labels not in the model's classes: ['tango']" in capsys.readouterr().err


def test_eval_names_the_model_whose_classes_lack_a_label(ws, tmp_path, capsys):
    # the labels are good but the model's class list was edited: the
    # message names both files, as either may be the wrong one
    payload = json.loads((ws / "model" / "model.json").read_text())
    payload["class_names"][0] = "tango"
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    assert main(["--out", str(tmp_path / "o"), "eval", str(model), str(ws / "feats" / "features.csv")]) == 2
    assert f"labels not in the model's classes: ['arc'] (model {model})" in capsys.readouterr().err


def test_metrics_macro_row_has_total_support(ws, tmp_path):
    import csv as _csv

    out = tmp_path / "eval"
    assert main(["--out", str(out), "eval",
                 str(ws / "model" / "model.json"), str(ws / "feats" / "features.csv")]) == 0
    with open(out / "metrics.csv", encoding="utf-8") as fh:
        rows = list(_csv.DictReader(fh))
    assert rows[-1]["class"] == "macro"
    assert int(rows[-1]["support"]) == sum(int(r["support"]) for r in rows[:-1]) == 30 * 3


def test_non_numeric_cloud_line_exit_2(tmp_path, capsys):
    cloud = tmp_path / "cloud.txt"
    cloud.write_text("0 0.1 0.2\n0 zero 0.3\n")
    assert main(["--out", str(tmp_path / "o"), "floor", str(cloud)]) == 2
    assert "cloud.txt:2" in capsys.readouterr().err


def _edit_first_split(payload, **changes):
    payload["trees"][0].update(changes)


def _edit_left_child(payload, **changes):
    payload["trees"][0]["left"].update(changes)


def _first_leaf(payload):
    node = payload["trees"][0]
    while "feature" in node:
        node = node["left"]
    return node


MALFORMED_MODELS = {
    "feature_index_99": lambda p: _edit_first_split(p, feature=99),
    "unknown_params_key": lambda p: p["params"].update(colour="red"),
    "missing_params": lambda p: p.pop("params"),
    "negative_child_cover": lambda p: _edit_left_child(p, cover=-5),
    "child_not_a_node": lambda p: _edit_first_split(p, right="leaf"),
    "negative_count": lambda p: _first_leaf(p)["counts"].__setitem__(0, -1),
    "child_covers_do_not_add_up": lambda p: _edit_first_split(p, cover=p["trees"][0]["cover"] + 1),
    "counts_wider_than_classes": lambda p: _first_leaf(p)["counts"].append(0),
}


@pytest.mark.parametrize("command", ["eval", "explain"])
@pytest.mark.parametrize("case", [*MALFORMED_MODELS, "invalid_json"])
def test_malformed_model_exit_2(ws, tmp_path, capsys, command, case):
    model = tmp_path / "model.json"
    text = (ws / "model" / "model.json").read_text()
    if case == "invalid_json":
        model.write_text(text[: len(text) // 2])
    else:
        payload = json.loads(text)
        assert "feature" in payload["trees"][0]
        MALFORMED_MODELS[case](payload)
        model.write_text(json.dumps(payload))
    out = tmp_path / "o"
    assert main(["--out", str(out), command, str(model), str(ws / "feats" / "features.csv")]) == 2
    assert str(model) in capsys.readouterr().err


@pytest.mark.parametrize("case", MALFORMED_MODELS)
def test_malformed_model_message_names_node_as_per_node_walk(ws, tmp_path, capsys, case):
    good = json.loads((ws / "model" / "model.json").read_text())
    payload = json.loads((ws / "model" / "model.json").read_text())
    MALFORMED_MODELS[case](payload)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    with pytest.raises(SchemaError) as reference:
        _model_from_payload({**payload, "trees": good["trees"]})  # the checks before the trees
        flat_from_trees(payload["trees"], len(payload["feature_names"]), len(payload["class_names"]))
    assert main(["--out", str(tmp_path / "o"), "eval", str(model), str(ws / "feats" / "features.csv")]) == 2
    assert capsys.readouterr().err == f"error: {model}: {reference.value}\n"


def _first_leaf_node(payload):
    """The preorder index of the first leaf of tree 0: its depth."""
    node, depth = payload["trees"][0], 0
    while "feature" in node:
        node, depth = node["left"], depth + 1
    return depth


# a 400-digit integer overflows a float: (edit, node it names, message)
TOO_LARGE_FOR_FLOAT = {
    "threshold": (lambda p: _edit_first_split(p, threshold=10**400), lambda p: 0,
                  "threshold must be a finite number, got an integer too large for a float"),
    "cover": (lambda p: _edit_left_child(p, cover=10**400), lambda p: 1,
              "cover is too large for a float"),
    "count": (lambda p: _first_leaf(p)["counts"].__setitem__(0, 10**400), _first_leaf_node,
              "a class count is too large for a float"),
}


@pytest.mark.parametrize("command", ["eval", "explain"])
@pytest.mark.parametrize("case", TOO_LARGE_FOR_FLOAT)
def test_model_number_too_large_for_a_float_exit_2(ws, tmp_path, capsys, command, case):
    payload = json.loads((ws / "model" / "model.json").read_text())
    edit, node, message = TOO_LARGE_FOR_FLOAT[case]
    edit(payload)
    model = tmp_path / "model.json"
    model.write_text(json.dumps(payload))
    argv = ["--out", str(tmp_path / "o"), command, str(model), str(ws / "feats" / "features.csv")]
    assert main(argv) == 2
    assert capsys.readouterr().err == f"error: {model}: tree 0 node {node(payload)}: {message}\n"


@pytest.mark.parametrize("command", ["eval", "explain"])
@pytest.mark.parametrize("quoted", [False, True])
def test_window_start_beyond_int64_exit_2(ws, tmp_path, capsys, command, quoted):
    # an unquoted text goes through np.loadtxt, a quoted one through the csv module
    lines = (ws / "feats" / "features.csv").read_text().split("\n")
    cells = lines[4].split(",")
    cells[57] = "9" * 30
    if quoted:
        cells[56] = f'"{cells[56]}"'
    lines[4] = ",".join(cells)
    path = tmp_path / "features.csv"
    path.write_text("\n".join(lines))
    assert main(["--out", str(tmp_path / "o"), command, str(ws / "model" / "model.json"), str(path)]) == 2
    assert f"{path}:5: window_start" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval", "explain"])
def test_header_only_feature_csv_exit_2(ws, tmp_path, capsys, command):
    header = (ws / "feats" / "features.csv").read_text().split("\n")[0]
    path = tmp_path / "features.csv"
    path.write_text(header + "\n")
    model = [] if command == "train" else [str(ws / "model" / "model.json")]
    assert main(["--out", str(tmp_path / "o"), command, *model, str(path)]) == 2
    assert f"{path}: feature CSV has no rows" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["train", "eval"])
def test_unlabelled_feature_csv_exit_2(ws, tmp_path, capsys, command):
    lines = (ws / "feats" / "features.csv").read_text().split("\n")
    cells = lines[1].split(",")
    cells[55] = ""
    path = tmp_path / "features.csv"
    path.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]))
    model = [] if command == "train" else [str(ws / "model" / "model.json")]
    assert main(["--out", str(tmp_path / "o"), command, *model, str(path)]) == 2
    assert f"{path}: feature CSV lacks labels" in capsys.readouterr().err


def test_oversized_feature_csv_cell_exit_2(ws, tmp_path, capsys):
    # a quoted cell beyond the csv module's 131072-character field limit
    lines = (ws / "feats" / "features.csv").read_text().split("\n")
    cells = lines[1].split(",")
    cells[56] = '"' + "g," * 70000 + '"'
    path = tmp_path / "features.csv"
    path.write_text("\n".join([lines[0], ",".join(cells)] + lines[2:]))
    assert main(["--out", str(tmp_path / "o"), "train", str(path)]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}:2: malformed feature CSV")


HOSTILE_HEADERS = {
    "string_weight": lambda h: h.update(weights={h["joints"][0]: "heavy"}),
    "weights_list": lambda h: h.update(weights=[1]),
    "role_list": lambda h: h["roles"].update(head=["a"]),
    "fps_true": lambda h: h.update(fps=True),
    "fps_nan": lambda h: h.update(fps=float("nan")),
    "fps_infinity": lambda h: h.update(fps=float("inf")),
    "label_list": lambda h: h.update(label=["x"]),
    "label_number": lambda h: h.update(label=5),
    "group_id_number": lambda h: h.update(group_id=5),
    "group_id_null": lambda h: h.update(group_id=None),
}


@pytest.mark.parametrize("case", list(HOSTILE_HEADERS))
def test_hostile_header_types_exit_2(ws, tmp_path, capsys, case):
    lines = sorted((ws / "corpus").glob("*.jsonl"))[0].read_text().split("\n")
    header = json.loads(lines[0])
    HOSTILE_HEADERS[case](header)
    path = tmp_path / "seq.jsonl"
    path.write_text("\n".join([json.dumps(header)] + lines[1:]))
    assert main(["--out", str(tmp_path / "o"), "extract", "--w", "5", str(path)]) == 2
    assert f"[{path}:1]" in capsys.readouterr().err


@pytest.mark.parametrize("command,name", [
    ("synth", None),
    ("extract", "features.csv"),
    ("extract", "manifest.json"),
    ("train", "model.json"),
    ("explain", "explanations.csv"),
    ("kinplot", "kinematics.svg"),
])
def test_output_path_holding_a_directory_exit_2(ws, tmp_path, capsys, command, name):
    feats, model = str(ws / "feats" / "features.csv"), str(ws / "model" / "model.json")
    seqs = sorted((ws / "corpus").glob("*.jsonl"))
    args = {
        "synth": ["--seed", "7", "synth", "--per-style", "3", "--duration", "1.0",
                  "--noise", "0.003"],
        "extract": ["extract", "--w", "30", "--stride", "15", str(seqs[0])],
        "train": ["train", feats, "--n-trees", "2", "--max-depth", "2"],
        "explain": ["explain", model, feats],
        "kinplot": ["kinplot", "--w", "20", str(seqs[0])],
    }[command]
    out = tmp_path / "o"
    blocked = out / (name or seqs[0].name)
    blocked.mkdir(parents=True)
    assert main(["--out", str(out), *args]) == 2
    assert capsys.readouterr().err.startswith(f"error: {blocked}: cannot write: ")


@pytest.mark.parametrize("text,message", [
    ("# a scan with no points\n# x y z\n", "needs >= 10 points"),
    ("0 0.1 0.2\n0 0.3 0.4\n0 0.2 0.9\n", "needs >= 10 points"),
    ("\n".join(f"0 {0.1 * i} 2.5" for i in range(12)), "one depth coordinate"),
], ids=["comments-only", "three-points", "one-depth"])
@pytest.mark.parametrize("command", ["floor", "extract", "sweep"])
def test_bad_cloud_names_the_file_exit_2(ws, tmp_path, capsys, command, text, message):
    cloud = tmp_path / "cloud.txt"
    cloud.write_text(text)
    seqs = sorted(str(p) for p in (ws / "corpus").glob("*.jsonl"))
    argv = {"floor": ["floor", str(cloud)],
            "extract": ["extract", "--w", "30", "--cloud", str(cloud), *seqs],
            "sweep": ["sweep", "--sizes", "30", "--cloud", str(cloud), *seqs]}[command]
    assert main(["--out", str(tmp_path / "o"), *argv]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {cloud}: ") and message in err
    assert not (tmp_path / "o" / "manifest.json").exists()


def test_kinplot_two_frame_sequence_exit_2(tmp_path, capsys):
    from conftest import make_sequence, static_pose_positions
    from lmakit.sequence import save_sequence

    path = tmp_path / "short.jsonl"
    save_sequence(make_sequence(static_pose_positions(2)), path)
    assert main(["--out", str(tmp_path / "o"), "kinplot", "--w", "2", str(path)]) == 2
    assert "too short" in capsys.readouterr().err


def test_explanations_csv_matches_per_row_writer(ws, tmp_path):
    # the CLI's batched explanations, against the per-row recursion written
    # by the per-row writer
    from forest_reference import per_row_tree_shap, write_explanations_csv_per_row
    from lmakit.explain import ShapExplanation
    from lmakit.features import read_features_csv
    from lmakit.forest import ForestModel

    out = tmp_path / "explain"
    assert main(["--out", str(out), "explain",
                 str(ws / "model" / "model.json"), str(ws / "feats" / "features.csv")]) == 0
    model = ForestModel.load(ws / "model" / "model.json")
    X = read_features_csv(ws / "feats" / "features.csv").X
    rows = []
    for x in X:
        phi, base = per_row_tree_shap(model, x)
        rows.append(ShapExplanation(phi, base, x, model.class_names, model.feature_names))
    write_explanations_csv_per_row(rows, tmp_path / "reference.csv")
    assert (out / "explanations.csv").read_bytes() == (tmp_path / "reference.csv").read_bytes()


# --- configuration files and flag ranges -------------------------------------


def test_sweep_honours_lma_and_forest_config(ws, tmp_path, monkeypatch):
    # sweep builds the same rows as extract under one config file, and fits
    # with the file's [forest] settings
    import lmakit.cli
    from lmakit.features import read_features_csv

    cfg = tmp_path / "cfg.ini"
    cfg.write_text("[lma]\nepsilon_net = 0.5\ninitiation_scale = 3\n"
                   "[forest]\nfeatures_per_split = 5\nbootstrap = false\n")
    seqs = sorted(str(p) for p in (ws / "corpus").glob("*.jsonl"))
    assert main(["--config", str(cfg), "--out", str(tmp_path / "feats"), "extract",
                 "--w", "30", "--stride", "15", *seqs]) == 0
    calls = []

    def record_cv(data, params, **kw):
        calls.append((data, params))
        return [1.0]

    monkeypatch.setattr(lmakit.cli, "cross_val_accuracy", record_cv)
    assert main(["--config", str(cfg), "--out", str(tmp_path / "sweep"), "sweep",
                 "--sizes", "30", "--stride", "15", *seqs]) == 0
    [(data, params)] = calls
    written = np.array([[float(f"{v:.9g}") for v in row] for row in data.X])
    extracted = read_features_csv(tmp_path / "feats" / "features.csv").X
    assert np.array_equal(written, extracted)
    assert not np.array_equal(extracted, read_features_csv(ws / "feats" / "features.csv").X)
    assert (params.features_per_split, params.bootstrap) == (5, False)


@pytest.mark.parametrize("command,section,key,value", [
    ("extract", "lma", "epsilon_net", "abc"),
    ("extract", "window", "w", "abc"),
    ("extract", "window", "w", "1"),
    ("extract", "window", "stride", "0"),
    ("sweep", "lma", "initiation_scale", "abc"),
    ("sweep", "forest", "features_per_split", "x"),
    ("train", "forest", "features_per_split", "x"),
    ("train", "forest", "bootstrap", "maybe"),
    ("extract", "lma", "initiation_scale", "nan"),
    ("extract", "lma", "initiation_scale", "inf"),
    ("extract", "lma", "epsilon_net", "nan"),
    ("train", "forest", "features_per_split", "0"),
])
def test_bad_config_value_exit_2(ws, tmp_path, capsys, command, section, key, value):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text(f"[{section}]\n{key} = {value}\n")
    inputs = ([str(ws / "feats" / "features.csv")] if command == "train"
              else sorted(str(p) for p in (ws / "corpus").glob("*.jsonl")))
    extra = ["--sizes", "30"] if command == "sweep" else []
    rc = main(["--config", str(cfg), "--out", str(tmp_path / "o"), command, *extra, *inputs])
    assert rc == 2
    err = capsys.readouterr().err
    assert "cfg.ini" in err and f"{section}.{key}" in err


def test_synth_frame_count_beyond_a_float_exit_2(tmp_path, capsys):
    # each flag is a finite float, but their product is not
    assert main(["--out", str(tmp_path / "o"), "synth", "--duration", "1e300", "--fps", "1e300"]) == 2
    assert "not a finite count" in capsys.readouterr().err


def test_config_without_section_header_exit_2(ws, tmp_path, capsys):
    cfg = tmp_path / "cfg.ini"
    cfg.write_text("w = 20\n")
    seq = sorted((ws / "corpus").glob("*.jsonl"))[0]
    assert main(["--config", str(cfg), "--out", str(tmp_path / "o"), "extract", str(seq)]) == 2
    assert "cfg.ini" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["train", "f.csv", "--k", "0"],
    ["train", "f.csv", "--k", "1"],
    ["sweep", "--k", "1", "s.jsonl"],
    ["explain", "m.json", "f.csv", "--top-k", "-1"],
    ["explain", "m.json", "f.csv", "--top-k", "0"],
    ["floor", "c.txt", "--up-axis", "5"],
    ["floor", "c.txt", "--depth-axis", "-1"],
    ["--threads", "0", "train", "f.csv"],
    ["train", "f.csv", "--n-trees", "none"],
    ["train", "f.csv", "--n-trees", ","],
    ["train", "f.csv", "--max-depth", "4,,8"],
    ["train", "f.csv", "--max-depth", "0"],
    ["train", "f.csv", "--min-samples-leaf", "none"],
    ["sweep", "--n-trees", "5,7", "s.jsonl"],
    ["sweep", "--max-depth", "6,none", "s.jsonl"],
    ["sweep", "--min-samples-leaf", "0", "s.jsonl"],
    ["synth", "--duration", "nan"],
    ["synth", "--duration", "0"],
    ["synth", "--fps", "inf"],
    ["synth", "--fps", "-60"],
    ["synth", "--noise", "nan"],
    ["synth", "--noise", "-0.001"],
    ["synth", "--per-style", "0"],
    ["synth", "--per-style", "2"],
    ["extract", "s.jsonl", "--tau", "nan"],
    ["extract", "s.jsonl", "--tau", "0"],
    ["sweep", "--tau", "1", "s.jsonl"],
    ["floor", "c.txt", "--tau", "2"],
    ["floor", "c.txt", "--tau", "inf"],
    ["extract", "--w", "0", "s.jsonl"],
    ["extract", "--w", "1", "s.jsonl"],
    ["extract", "--stride", "0", "s.jsonl"],
    ["sweep", "--stride", "0", "s.jsonl"],
    ["kinplot", "--w", "0", "s.jsonl"],
    ["floor", "c.txt", "--up-axis", "2", "--depth-axis", "2"],
    ["sweep", "--sizes", "none", "s.jsonl"],
    ["sweep", "--sizes", "1", "s.jsonl"],
    ["sweep", "--sizes", "5,,7", "s.jsonl"],
])
def test_out_of_range_flag_exit_1(tmp_path, capsys, argv):
    assert main(["--out", str(tmp_path / "o"), *argv]) == 1
    assert "usage error" in capsys.readouterr().err
    assert not (tmp_path / "o").exists()


def test_grid_flags_parse():
    parse = _build_parser().parse_args
    args = parse(["train", "f.csv"])
    assert (args.n_trees, args.max_depth, args.min_samples_leaf) == ([50, 100, 200], [8, 12, None], [1, 5])
    args = parse(["train", "f.csv", "--n-trees", "20", "--max-depth", "6,None",
                  "--min-samples-leaf", "1,2,4,8"])
    assert (args.n_trees, args.max_depth, args.min_samples_leaf) == ([20], [6, None], [1, 2, 4, 8])
    args = parse(["sweep", "s.jsonl"])
    assert (args.n_trees, args.max_depth, args.min_samples_leaf) == (30, 12, 1)
    args = parse(["sweep", "--n-trees", "5", "--max-depth", "none", "--min-samples-leaf", "2", "s.jsonl"])
    assert (args.n_trees, args.max_depth, args.min_samples_leaf) == (5, None, 2)


def test_cached_parser_keeps_no_state_between_commands(ws, tmp_path, capsys):
    # main builds its parser once per process; commands that share it must
    # not see each other's values, and a refused command leaves it usable
    assert _build_parser() is _build_parser()
    lines = (ws / "feats" / "features.csv").read_text().split("\n")
    two_styles = sorted({line.split(",")[55] for line in lines[1:] if line})[:2]
    small = tmp_path / "small.csv"
    small.write_text("\n".join([lines[0]] + [l for l in lines[1:] if l and l.split(",")[55] in two_styles]))
    assert main(["--out", str(tmp_path / "t"), "train", str(small)]) == 0  # the default grid
    manifest = json.loads((tmp_path / "t" / "manifest.json").read_text())
    assert manifest["config"]["grid"]["n_trees"] == ["50", "100", "200"]
    args = _build_parser().parse_args(["train", "f.csv"])
    assert (args.n_trees, args.max_depth, args.min_samples_leaf) == ([50, 100, 200], [8, 12, None], [1, 5])
    eval_argv = ["eval", str(ws / "model" / "model.json"), str(ws / "feats" / "features.csv")]
    assert main(["--out", str(tmp_path / "e"), *eval_argv, "--vote", "--n-trees", "3"]) == 1
    assert main(["--out", str(tmp_path / "e"), *eval_argv]) == 0
    assert json.loads((tmp_path / "e" / "manifest.json").read_text())["config"] == {"vote": False}
    assert "usage error" in capsys.readouterr().err


# --- per-group majority vote ------------------------------------------------------


@settings(max_examples=300, deadline=None)
@given(n_classes=st.integers(1, 4), n=st.integers(1, 30), data=st.data())
def test_vote_by_group_equals_scan_reference(n_classes, n, data):
    # few groups and classes, so groups mix classes and tie on their majority
    codes = st.lists(st.integers(0, n_classes - 1), min_size=n, max_size=n)
    y_true, y_pred = np.array(data.draw(codes)), np.array(data.draw(codes))
    groups = data.draw(st.lists(st.sampled_from(["g10", "g2", "g1", "h"]), min_size=n, max_size=n))
    got, expected = _vote_by_group(y_true, y_pred, groups), vote_by_group(y_true, y_pred, groups)
    for a, b in zip(got, expected):
        np.testing.assert_array_equal(a, b)


def _write_rows(path, rows):
    """A feature CSV with one row per (label, group, x); all 55 features are x."""
    lines = [",".join([*FEATURE_NAMES, "label", "group_id", "window_start"])]
    lines += [",".join([str(x)] * len(FEATURE_NAMES) + [label, group, str(i)])
              for i, (label, group, x) in enumerate(rows)]
    path.write_text("\n".join(lines) + "\n")


def _metrics_rows(path):
    return path.read_text().strip().split("\n")[1:]


def test_eval_vote_takes_each_groups_majority(tmp_path):
    # a stump predicts a for x = 0 and b for x = 1; group majorities (truth,
    # prediction), a tie going to a: g1 (a, a), g2 (b, b), g3 (a by tie, b),
    # g4 (b, a by tie), g5 (a, a)
    rows = [("a", "g1", 0), ("a", "g1", 0), ("b", "g1", 0),
            ("b", "g2", 1), ("b", "g2", 1), ("a", "g2", 1),
            ("a", "g3", 1), ("b", "g3", 1),
            ("b", "g4", 0), ("b", "g4", 1),
            ("a", "g5", 0)]
    _write_rows(tmp_path / "features.csv", rows)
    leaf = lambda counts: {"counts": counts, "cover": 1}  # noqa: E731
    model = {
        "format_version": 1,
        "params": {"n_trees": 1, "max_depth": None, "min_samples_leaf": 1,
                   "features_per_split": 8, "bootstrap": True, "seed": 0},
        "class_names": ["a", "b"],
        "feature_names": list(FEATURE_NAMES),
        "trees": [{"feature": 0, "threshold": 0.5, "cover": 2,
                   "left": leaf([1, 0]), "right": leaf([0, 1])}],
    }
    (tmp_path / "model.json").write_text(json.dumps(model))
    out = tmp_path / "eval"
    assert main(["--out", str(out), "eval", str(tmp_path / "model.json"),
                 str(tmp_path / "features.csv"), "--vote"]) == 0
    assert _metrics_rows(out / "metrics.csv") == [
        "a,0.666666667,0.666666667,0.666666667,3,0",
        "b,0.5,0.5,0.5,2,0",
        "macro,0.583333333,0.583333333,0.583333333,5,",
    ]
    assert json.loads((out / "manifest.json").read_text())["config"] == {"vote": True}


def test_train_vote_takes_each_groups_majority(tmp_path):
    # every feature is 0 for a and 1 for b, so out-of-fold predictions are
    # right; group majorities, a tie going to a: g1 a, g2 b, g3 a (tie), g4 b, g5 a
    rows = [("a", "g1", 0), ("a", "g1", 0), ("b", "g1", 1),
            ("b", "g2", 1), ("b", "g2", 1), ("a", "g2", 0),
            ("a", "g3", 0), ("b", "g3", 1),
            ("b", "g4", 1), ("b", "g4", 1),
            ("a", "g5", 0)]
    _write_rows(tmp_path / "features.csv", rows)
    (tmp_path / "cfg.ini").write_text("[forest]\nbootstrap = false\n")
    out = tmp_path / "train"
    assert main(["--config", str(tmp_path / "cfg.ini"), "--out", str(out), "train",
                 str(tmp_path / "features.csv"), "--n-trees", "1", "--max-depth", "2",
                 "--min-samples-leaf", "1", "--k", "2", "--vote"]) == 0
    assert _metrics_rows(out / "metrics.csv") == [
        "a,1,1,1,3,0",
        "b,1,1,1,2,0",
        "macro,1,1,1,5,",
    ]


# --- unreadable inputs and output directories ---------------------------------


def _hostile_argv(ws, kind, path):
    """argv reading the input of `kind` from `path`; every other input is good."""
    model, feats = str(ws / "model" / "model.json"), str(ws / "feats" / "features.csv")
    seq = str(sorted((ws / "corpus").glob("*.jsonl"))[0])
    return {
        "sequence": ["extract", path],
        "train-features": ["train", path],
        "eval-features": ["eval", model, path],
        "explain-features": ["explain", model, path],
        "model": ["eval", path, feats],
        "cloud": ["floor", path],
        "config": ["--config", path, "extract", seq],
    }[kind]


GOOD_INPUT = {
    "sequence": lambda ws: sorted((ws / "corpus").glob("*.jsonl"))[0].read_bytes(),
    "train-features": lambda ws: (ws / "feats" / "features.csv").read_bytes(),
    "eval-features": lambda ws: (ws / "feats" / "features.csv").read_bytes(),
    "explain-features": lambda ws: (ws / "feats" / "features.csv").read_bytes(),
    "model": lambda ws: (ws / "model" / "model.json").read_bytes(),
    "cloud": lambda ws: b"0 0.1 0.2\n0 0.3 0.4\n0 0.2 0.9\n",
    "config": lambda ws: b"[window]\nw = 20\n",
}


@pytest.mark.parametrize("fault", ["missing", "directory", "not-utf8"])
@pytest.mark.parametrize("kind", list(GOOD_INPUT))
def test_unreadable_input_exit_2(ws, tmp_path, capsys, kind, fault):
    path = tmp_path / f"input-{kind}"
    if fault == "directory":
        path.mkdir()
    elif fault == "not-utf8":
        # a Latin-1 byte inside an otherwise good file
        good = GOOD_INPUT[kind](ws)
        path.write_bytes(good[:8] + b"\xe9" + good[8:])
    assert main(["--out", str(tmp_path / "o"), *_hostile_argv(ws, kind, str(path))]) == 2
    assert capsys.readouterr().err.startswith(f"error: {path}: ")
    assert not (tmp_path / "o" / "manifest.json").exists()


# --- hostile-input fuzzing ------------------------------------------------------


def _fuzz_argv(ws, command, path):
    """argv running `command` with its mutated input at `path`."""
    model, feats = str(ws / "model" / "model.json"), str(ws / "feats" / "features.csv")
    return {
        "extract": ["extract", "--w", "10", "--stride", "10", path],
        "train": ["train", path, "--n-trees", "2", "--max-depth", "3", "--min-samples-leaf", "1"],
        "eval-features": ["eval", model, path],
        "explain-features": ["explain", model, path],
        "eval-model": ["eval", path, feats],
        "explain-model": ["explain", path, feats],
        "floor": ["floor", path],
    }[command]


FUZZ_INPUT = {
    "extract": GOOD_INPUT["sequence"],
    "train": GOOD_INPUT["train-features"],
    "eval-features": GOOD_INPUT["eval-features"],
    "explain-features": GOOD_INPUT["explain-features"],
    "eval-model": GOOD_INPUT["model"],
    "explain-model": GOOD_INPUT["model"],
    "floor": lambda ws: "".join(f"0 {0.1 * d + 0.01 * (d % 3):.3f} {d:.3f}\n" for d in np.linspace(0, 4, 40)).encode(),
}
HOSTILE_TOKENS = [b"NaN", b"Infinity", b"-Infinity", b"1e999", b"1e300", b"9" * 400,
                  b"[" * 100_000, b"\x00", b"\xff", b"\r"]
NUMBER = re.compile(rb"-?\d+(?:\.\d+)?(?:[eE][-+]?\d+)?")
MUTATION = st.one_of(
    st.tuples(st.just("flip"), st.integers(0, 1 << 16), st.integers(1, 255)),
    st.tuples(st.just("truncate"), st.integers(0, 1 << 16)),
    st.tuples(st.just("insert"), st.integers(0, 1 << 16), st.sampled_from(HOSTILE_TOKENS)),
    st.tuples(st.just("number"), st.integers(0, 1 << 16), st.sampled_from(HOSTILE_TOKENS)),
)


def _mutated(data, mutation):
    """`data` with one byte flipped, cut short, or a token inserted or put
    in place of a number; `at` is taken modulo the length."""
    op, at, *arg = mutation
    if op == "number":
        numbers = list(NUMBER.finditer(data))
        if not numbers:
            return data
        number = numbers[at % len(numbers)]
        return data[:number.start()] + arg[0] + data[number.end():]
    at %= max(len(data), 1)
    if op == "flip":
        return data[:at] + bytes([data[at] ^ arg[0]]) + data[at + 1:] if data else data
    if op == "truncate":
        return data[:at]
    return data[:at] + arg[0] + data[at:]


@settings(max_examples=500, deadline=None, suppress_health_check=[HealthCheck.too_slow])
@given(command=st.sampled_from(list(FUZZ_INPUT)), mutations=st.lists(MUTATION, min_size=1, max_size=3))
def test_hostile_input_exits_0_or_2_naming_the_file(ws, command, mutations):
    # a mutated input is either used or refused as a data error naming it;
    # it never escapes as an internal error (exit 3)
    data = FUZZ_INPUT[command](ws)
    for mutation in mutations:
        data = _mutated(data, mutation)
    path = ws / "fuzz" / f"input-{command}"
    path.parent.mkdir(exist_ok=True)
    path.write_bytes(data)
    err = io.StringIO()
    with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
        rc = main(["--out", str(ws / "fuzz" / "out"), *_fuzz_argv(ws, command, str(path))])
    assert rc in (0, 2), err.getvalue()
    assert rc == 0 or str(path) in err.getvalue(), err.getvalue()


@pytest.mark.parametrize("out", ["afile", "afile/sub"])
def test_out_naming_a_file_exit_2(tmp_path, capsys, out):
    (tmp_path / "afile").write_text("not a directory\n")
    out = tmp_path / out
    assert main(["--out", str(out), "synth", "--per-style", "3", "--duration", "0.5"]) == 2
    assert f"error: {out}: cannot create the output directory" in capsys.readouterr().err
    assert (tmp_path / "afile").read_text() == "not a directory\n"


def test_bad_header_names_the_file_once(ws, tmp_path, capsys):
    lines = sorted((ws / "corpus").glob("*.jsonl"))[0].read_text().split("\n")
    bad = tmp_path / "trunc.jsonl"
    bad.write_text("\n".join([lines[0][:20]] + lines[1:]))
    assert main(["--out", str(tmp_path / "o"), "extract", str(bad)]) == 2
    err = capsys.readouterr().err
    assert "bad header JSON" in err and f"[{bad}:1]" in err
    assert err.count("trunc.jsonl") == 1


def test_gap_error_names_the_file_once(tmp_path, capsys):
    from conftest import make_sequence, static_pose_positions
    from lmakit.sequence import save_sequence

    pos = static_pose_positions(20)
    pos[5:15, 3, :] = np.nan  # 10 frames > max_gap 6
    path = tmp_path / "gappy.jsonl"
    save_sequence(make_sequence(pos), path)
    assert main(["--out", str(tmp_path / "o"), "extract", "--w", "5", str(path)]) == 2
    err = capsys.readouterr().err
    assert err.startswith(f"error: {path}: joint ") and "frames 5..14" in err
    assert err.count("gappy.jsonl") == 1


@pytest.mark.parametrize("unbuffered", [True, False])
def test_closed_stdout_still_writes_outputs(ws, tmp_path, unbuffered):
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = str(Path(__file__).resolve().parents[1] / "src")
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    proc = subprocess.Popen(
        [sys.executable, "-m", "lmakit.cli", "--out", "m", "train", str(ws / "feats" / "features.csv"),
         "--n-trees", "5", "--max-depth", "4", "--min-samples-leaf", "1"],
        cwd=tmp_path, env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE,
    )
    proc.stdout.close()  # the reader goes away before the report table is printed
    err = proc.stderr.read().decode()
    assert proc.wait() == 0, err
    assert "internal error" not in err
    assert (tmp_path / "m" / "model.json").is_file()
    assert (tmp_path / "m" / "manifest.json").is_file()
