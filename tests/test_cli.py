import argparse
import ast
import contextlib
import csv
import importlib
import io
import json
import logging
import os
import re
import shutil
import signal
import subprocess
import sys
import tempfile
import threading
import time
from pathlib import Path

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from harlab import cli, dsp, evaluate, models, nn, storage, synth
from harlab.core import ActivityClass, CsiSample, Dataset, FeatureTensor, class_from_name
from harlab.rng import make_rng

from conftest import use_cores


def run_cli(*argv):
    return cli.main([str(a) for a in argv])


def tree_bytes(root: Path, exclude=("harlab.log",)):
    out = {}
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name not in exclude:
            out[path.relative_to(root).as_posix()] = path.read_bytes()
    return out


@pytest.fixture(scope="module")
def tiny_dataset(tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "raw"
    code = run_cli("generate", "--seed", 42, "--out", root, "--samples-per-class", 3)
    assert code == 0
    return root


@pytest.fixture(scope="module")
def tiny_pre(tiny_dataset, tmp_path_factory):
    root = tmp_path_factory.mktemp("data") / "pre"
    assert run_cli("preprocess", "--dataset", tiny_dataset, "--out", root) == 0
    return root


@pytest.fixture(scope="module")
def tiny_model(tiny_dataset, tmp_path_factory):
    run_dir = tmp_path_factory.mktemp("model")
    assert run_cli("train", "--model", "lstm", "--dataset", tiny_dataset, "--epochs", 1,
                   "--hidden", 4, "--decimate", 60, "--out", run_dir) == 0
    return run_dir / "model.json"


def scored_rows(root, split_seed=42):
    """The manifest rows of the test split `evaluate --split-seed` scores."""
    rows = storage.read_manifest(root)
    _, test_idx = evaluate.split_indices([class_from_name(r["class_name"]) for r in rows],
                                         evaluate.SplitSpec(seed=split_seed))
    return [rows[i] for i in test_idx]


def harlab_env() -> dict:
    """The environment of a `python -m harlab.cli` child that imports this checkout."""
    return {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}


def corrupt_line_5(path: Path) -> None:
    lines = path.read_text().splitlines()
    lines[4] = "abc," + lines[4].split(",", 1)[1]
    path.write_text("\r\n".join(lines) + "\r\n", newline="")


# ---------------------------------------------------------------------------
# start-up

# runpy runs the module as __main__, the way `python -m harlab.cli` does,
# then lists what the process loaded, whatever the exit.
STARTUP_SCRIPT = """
import runpy, sys
sys.argv[0] = "harlab"
try:
    runpy.run_module("harlab.cli", run_name="__main__")
finally:
    print("loaded:", *sorted(sys.modules), file=sys.stderr)
"""


@pytest.mark.parametrize("argv, code", [
    (["--help"], 0), (["train", "--help"], 0),
    (["train", "--dataset", "d", "--out", "o"], 2),  # no --model
    ([], 2),
    (["grid", "--dataset", "d", "--out", "o", "--workers", "2"], 2)],  # no such flag
    ids=["help", "train-help", "usage-error", "no-command", "grid-workers"])
def test_help_and_flag_errors_load_no_numpy_and_no_pipeline(argv, code):
    child = subprocess.run([sys.executable, "-c", STARTUP_SCRIPT, *argv], env=harlab_env(),
                           capture_output=True, text=True)
    assert child.returncode == code, child.stderr
    loaded = child.stderr.splitlines()[-1].split()[1:]
    assert "numpy" not in loaded
    assert {m for m in loaded if m.partition(".")[0] == "harlab"} <= {"harlab", "harlab.cli"}


def test_harlab_imports_only_the_standard_library_and_numpy():
    for path in sorted(Path(cli.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(), str(path))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module] if node.level == 0 else []  # relative: harlab's own
            else:
                continue
            for name in names:
                top = name.partition(".")[0]
                assert top in sys.stdlib_module_names or top in ("numpy", "harlab"), (
                    f"{path.name} imports {name}")


# ---------------------------------------------------------------------------
# generate

def test_generate_counts_and_exit(tmp_path, capsys):
    code = run_cli("generate", "--seed", 1, "--out", tmp_path / "d",
                   "--samples-per-class", 2)
    assert code == 0
    out = capsys.readouterr().out
    assert "total: 14 samples" in out
    ds = storage.load_dataset(tmp_path / "d")
    assert len(ds) == 14


def test_generate_is_deterministic(tmp_path):
    assert run_cli("generate", "--seed", 5, "--out", tmp_path / "a",
                   "--samples-per-class", 1) == 0
    assert run_cli("generate", "--seed", 5, "--out", tmp_path / "b",
                   "--samples-per-class", 1) == 0
    assert tree_bytes(tmp_path / "a") == tree_bytes(tmp_path / "b")


def test_generate_into_invalid_path_exits_1(tmp_path, capsys):
    blocker = tmp_path / "blocker"
    blocker.write_text("a file, not a directory")
    code = run_cli("generate", "--out", blocker / "sub", "--samples-per-class", 1)
    assert code == 1
    assert "I/O error" in capsys.readouterr().err


def test_generate_rejects_bad_flag_values(tmp_path, capsys):
    code = run_cli("generate", "--out", tmp_path / "d", "--samples-per-class", 0)
    assert code == 2
    assert not (tmp_path / "d").exists()  # validated before any write


def test_generate_with_an_snr_below_the_floor_exits_2_before_any_write(tmp_path, capsys):
    # used to end in an OverflowError traceback from a pool worker
    code = run_cli("generate", "--out", tmp_path / "d", "--samples-per-class", 1,
                   "--snr-db", -4000)
    assert code == 2
    assert capsys.readouterr().err == "error: snr_db must be >= -3000.0 or +inf, got -4000.0\n"
    assert not (tmp_path / "d").exists()


# ---------------------------------------------------------------------------
# preprocess / train / evaluate chain

def test_preprocess_train_evaluate_chain(tmp_path, tiny_dataset, capsys):
    pre = tmp_path / "pre"
    assert run_cli("preprocess", "--dataset", tiny_dataset, "--out", pre) == 0
    ds = storage.load_dataset(pre)
    assert ds.samples[0].values.shape == (1200, 64)
    assert ds.samples[0].lineage[-1].startswith("butterworth")

    run_dir = tmp_path / "run"
    assert run_cli("train", "--model", "lstm", "--dataset", pre, "--epochs", 2,
                   "--hidden", 8, "--decimate", 24, "--seed", 42,
                   "--out", run_dir) == 0
    model_doc = json.loads((run_dir / "model.json").read_text())
    assert model_doc["spec"]["epochs"] == 2
    assert model_doc["spec"]["lr0"] == 0.01      # flag defaults
    assert model_doc["spec"]["batch_size"] == 32
    assert model_doc["spec"]["dropout"] == 0.2
    with open(run_dir / "history.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"]
    assert len(rows) == 3  # header + one per epoch

    eval_dir = tmp_path / "eval"
    assert run_cli("evaluate", "--model-file", run_dir / "model.json",
                   "--dataset", pre, "--split-seed", 42, "--svg",
                   "--out", eval_dir) == 0
    with open(eval_dir / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["accuracy", "macro_precision", "macro_recall",
                       "macro_f1", "mean_loss"]
    with open(eval_dir / "confusion_normalized.csv", newline="") as fh:
        norm_rows = list(csv.reader(fh))[1:]
    for row in norm_rows:
        total = sum(float(v) for v in row[1:])
        assert total == 0.0 or abs(total - 1.0) < 1e-9
    assert (eval_dir / "confusion.svg").read_text().startswith("<svg")

    # idempotence: identical flags -> identical bytes
    eval_dir2 = tmp_path / "eval2"
    assert run_cli("evaluate", "--model-file", run_dir / "model.json",
                   "--dataset", pre, "--split-seed", 42, "--svg",
                   "--out", eval_dir2) == 0
    assert tree_bytes(eval_dir) == tree_bytes(eval_dir2)

    # report renders from the evaluate artifacts
    rep_dir = tmp_path / "report"
    assert run_cli("report", "--run-dir", eval_dir, "--out", rep_dir) == 0
    text = (rep_dir / "report.md").read_text()
    assert "test metrics" in text


def test_report_markdown_of_a_metrics_and_a_grid_file(tmp_path):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    storage.write_metrics_csv(evaluate.compute_metrics([0, 1, 2, 3], [0, 1, 1, 3],
                                                       [0.1, 0.2, 0.3, 0.25]),
                              run_dir / "metrics.csv")
    storage.write_grid_csv([evaluate.GridCell("lstm", 20, 0.1, 1 / 3, 0.7)],
                           run_dir / "grid.csv")
    assert run_cli("report", "--run-dir", run_dir, "--out", tmp_path / "report") == 0
    assert (tmp_path / "report" / "report.md").read_text() == (
        "# harlab run report\n\n## test metrics\n\n"
        "| accuracy | macro_precision | macro_recall | macro_f1 | mean_loss |\n"
        "|---|---|---|---|---|\n| 0.7500 | 0.3571 | 0.4286 | 0.3810 | 0.2125 |\n\n"
        "## learning rate vs. epochs\n\n"
        "| epochs = 20 | lr = 0.1 accuracy | lr = 0.1 loss |\n|---|---|---|\n"
        "| lstm | 0.3333 | 0.7000 |\n")


@pytest.mark.parametrize("name, text", [
    ("metrics.csv", ""),
    ("metrics.csv", "accuracy,macro_precision,macro_recall,macro_f1,mean_loss\r\n"
                    "abc,0.5,0.5,0.5,0.5\r\n"),
    ("grid.csv", "model,epochs,lr,accuracy,mean_loss\r\nlstm,x,0.01,0.9,0.3\r\n"),
    ("grid.csv", "model,epochs,lr,accuracy,mean_loss\r\n"),
    ("grid.csv", "model,epochs,lr,accuracy,mean_loss\r\nlstm,20,0.01,0.9,\r\n"),
    ("grid.csv", "model,epochs,lr,accuracy,mean_loss\r\nlstm,20,0.01,,0.3\r\n"),
    ("metrics.csv", "accuracy,macro_precision,macro_recall,macro_f1,mean_loss\r\n"
                    + "0" * 200_000 + ",0.5,0.5,0.5,0.5\r\n"),
    ("grid.csv", "model,epochs,lr,accuracy,mean_loss\r\n" + "x" * 200_000
                 + ",20,0.01,0.9,0.3\r\n"),
], ids=["empty_metrics", "non_numeric_accuracy", "non_integer_epochs", "header_only_grid",
        "accuracy_without_loss", "loss_without_accuracy", "metrics_cell_over_csv_limit",
        "grid_cell_over_csv_limit"])
def test_report_on_a_malformed_csv_exits_1_with_one_line(tmp_path, capsys, name, text):
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    (run_dir / name).write_text(text, newline="")
    assert run_cli("report", "--run-dir", run_dir, "--out", tmp_path / "report") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"I/O error: {run_dir / name}: ") and err.count("\n") == 1


def test_report_with_nothing_to_report_exits_2_before_any_write(tmp_path, capsys):
    # used to make --out and an empty harlab.log before finding nothing to report
    run_dir = tmp_path / "run"
    run_dir.mkdir()
    code = run_cli("report", "--run-dir", run_dir, "--out", tmp_path / "report")
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: nothing to report: no metrics.csv or grid.csv in {run_dir}\n")
    assert not (tmp_path / "report").exists()


def test_train_directly_on_raw_dataset(tmp_path, tiny_dataset):
    run_dir = tmp_path / "run-raw"
    assert run_cli("train", "--model", "cnn", "--dataset", tiny_dataset,
                   "--epochs", 1, "--decimate", 24, "--seed", 0,
                   "--out", run_dir) == 0
    assert (run_dir / "model.json").exists()


@pytest.mark.parametrize("command", ["train --model lstm", "grid"])
def test_decimate_below_1_exits_2_before_any_write(tmp_path, tiny_dataset, capsys, command):
    code = run_cli(*command.split(), "--dataset", tiny_dataset, "--decimate", 0,
                   "--out", tmp_path / "run")
    assert code == 2
    assert capsys.readouterr().err == "error: --decimate must be >= 1, got 0\n"
    assert not (tmp_path / "run").exists()


def test_grid_with_zero_hidden_size_exits_2_before_any_write(tmp_path, tiny_dataset, capsys):
    # grid used to run, mark all 12 cells failed, write a grid.csv of empty
    # scores and exit 0
    code = run_cli("grid", "--dataset", tiny_dataset, "--hidden", 0, "--decimate", 60,
                   "--out", tmp_path / "run")
    assert code == 2
    assert capsys.readouterr().err == "error: hidden_size must be >= 1, got 0\n"
    assert not (tmp_path / "run").exists()


def test_every_command_writes_only_its_log_and_outputs_under_out(tmp_path, monkeypatch):
    monkeypatch.setattr(evaluate, "GRID_EPOCHS", (1,))
    monkeypatch.setattr(evaluate, "GRID_LRS", (0.01,))
    monkeypatch.chdir(tmp_path)
    steps = [
        ("raw", ["generate", "--samples-per-class", 2]),
        ("pre", ["preprocess", "--dataset", "raw"]),
        ("run", ["train", "--model", "lstm", "--dataset", "raw", "--epochs", 1,
                 "--hidden", 4, "--decimate", 60]),
        ("eval", ["evaluate", "--model-file", "run/model.json", "--dataset", "raw"]),
        ("grid", ["grid", "--dataset", "pre", "--hidden", 4, "--decimate", 60]),
        ("report", ["report", "--run-dir", "eval"]),
    ]
    trees = {}
    for out, argv in steps:
        assert run_cli(*argv, "--out", out) == 0
        assert sorted(os.listdir()) == sorted([*trees, out])
        assert (Path(out) / "harlab.log").is_file()
        for root, tree in trees.items():  # nothing written outside this --out
            assert tree_bytes(Path(root), exclude=()) == tree, (out, root)
        trees[out] = tree_bytes(Path(out), exclude=())


def test_train_rejects_unknown_model_kind(tmp_path, tiny_dataset, capsys):
    with pytest.raises(SystemExit) as err:
        run_cli("train", "--model", "bogus", "--dataset", tiny_dataset,
                "--out", tmp_path / "x")
    assert err.value.code == 2
    assert "lstm" in capsys.readouterr().err  # argparse lists the valid kinds


def test_preprocess_with_pca_stage(tmp_path, tiny_dataset):
    pre = tmp_path / "pre-pca"
    stages = "amplitude;impute_mean;butterworth:order=1,cutoff=0.05;pca:n_components=10"
    assert run_cli("preprocess", "--dataset", tiny_dataset, "--out", pre,
                   "--stages", stages, "--fit-split-seed", 42) == 0
    ds = storage.load_dataset(pre)
    assert ds.samples[0].values.shape == (1200, 10)


def test_preprocess_with_mid_chain_pca_stage(tmp_path, tiny_dataset):
    pre = tmp_path / "pre-mid-pca"
    stages = "amplitude;impute_mean;pca:n_components=10;butterworth:order=1,cutoff=0.05"
    assert run_cli("preprocess", "--dataset", tiny_dataset, "--out", pre,
                   "--stages", stages) == 0
    ds = storage.load_dataset(pre)
    assert ds.samples[0].values.shape == (1200, 10)


def test_preprocess_rejects_unknown_stage(tmp_path, tiny_dataset, capsys):
    code = run_cli("preprocess", "--dataset", tiny_dataset,
                   "--out", tmp_path / "x", "--stages", "amplitude;stft")
    assert code == 2


@pytest.mark.parametrize("stages, message", [
    ("impute_mean", "a stage list starts with amplitude, got 'impute_mean'"),
    ("amplitude;amplitude", "amplitude comes only first in a stage list"),
], ids=["no_amplitude", "amplitude_twice"])
def test_preprocess_with_a_misordered_chain_into_an_existing_root_writes_nothing(
        tmp_path, tiny_dataset, tiny_pre, capsys, stages, message):
    # the order was checked per sample in the pool, after the root's manifest was deleted
    out = tmp_path / "pre"
    shutil.copytree(tiny_pre, out)
    before = tree_bytes(out, exclude=())
    code = run_cli("preprocess", "--dataset", tiny_dataset, "--out", out, "--stages", stages)
    assert code == 2
    assert capsys.readouterr().err == f"error: {message}\n"
    assert tree_bytes(out, exclude=()) == before


@pytest.mark.parametrize("stage, key, value, kind", [
    ("butterworth", "order", "abc", "an integer"),
    ("butterworth", "cutoff", "x", "a number"),
    ("pca", "n_components", "1e3", "an integer"),
], ids=["order", "cutoff", "n_components"])
def test_preprocess_with_unconvertible_stage_parameter_exits_2(tmp_path, tiny_dataset, capsys,
                                                               stage, key, value, kind):
    # each used to end in a ValueError traceback from int() or float()
    out = tmp_path / "x"
    code = run_cli("preprocess", "--dataset", tiny_dataset, "--out", out,
                   "--stages", f"amplitude;{stage}:{key}={value}")
    assert code == 2
    assert capsys.readouterr().err == (
        f"error: stage {stage!r} parameter {key}={value!r} is not {kind}\n")
    assert not out.exists()


def test_preprocess_with_a_butterworth_order_above_the_bound_exits_2(tmp_path, tiny_dataset,
                                                                    capsys):
    # used to end in a LinAlgError traceback from np.roots on infinite coefficients
    out = tmp_path / "x"
    code = run_cli("preprocess", "--dataset", tiny_dataset, "--out", out,
                   "--stages", "amplitude;butterworth:order=2000")
    assert code == 2
    assert capsys.readouterr().err == "error: filter order must lie in 1..100, got 2000\n"
    assert not out.exists()


def test_evaluate_missing_model_file_exits_1(tmp_path, tiny_dataset, capsys):
    code = run_cli("evaluate", "--model-file", tmp_path / "nope.json",
                   "--dataset", tiny_dataset, "--out", tmp_path / "x")
    assert code == 1


def test_evaluate_malformed_model_file_exits_1(tmp_path, tiny_dataset, capsys):
    model_file = tmp_path / "model.json"
    model_file.write_text('{"format_version": 1, "weights": {}}')  # no "spec"
    code = run_cli("evaluate", "--model-file", model_file,
                   "--dataset", tiny_dataset, "--out", tmp_path / "x")
    assert code == 1
    assert "missing key 'spec'" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["preprocess", "train", "evaluate", "grid"])
def test_empty_root_exits_1_before_any_write(tmp_path, tiny_model, capsys, command):
    # preprocess used to exit 0 and write an empty root
    empty = tmp_path / "empty"
    storage.write_dataset(empty, [], None)  # header-only manifest
    flags = {"train": ["--model", "lstm"], "evaluate": ["--model-file", tiny_model]}
    code = run_cli(command, *flags.get(command, []), "--dataset", empty,
                   "--out", tmp_path / "out")
    assert code == 1
    assert capsys.readouterr().err == f"I/O error: {empty}: dataset has no samples\n"
    assert not (tmp_path / "out").exists()


def test_train_with_zero_hidden_size_exits_2(tmp_path, tiny_dataset, capsys):
    code = run_cli("train", "--model", "lstm", "--dataset", tiny_dataset, "--hidden", 0,
                   "--out", tmp_path / "run")
    assert code == 2
    err = capsys.readouterr().err
    assert err == "error: hidden_size must be >= 1, got 0\n"
    assert not (tmp_path / "run").exists()  # validated before any write


def test_evaluate_model_file_with_zero_hidden_size_exits_1(
        tmp_path, tiny_dataset, tiny_model, capsys):
    doc = json.loads(tiny_model.read_text())
    doc["spec"]["hidden_size"] = 0
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(doc))
    code = run_cli("evaluate", "--model-file", model_file, "--dataset", tiny_dataset,
                   "--out", tmp_path / "eval")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"I/O error: {model_file}: malformed model file (hidden_size must")
    assert err.count("\n") == 1


@pytest.mark.parametrize("lr", ["nan", "inf", "-0.5", "0"])
def test_train_with_an_lr_that_is_not_finite_and_positive_exits_2(
        tmp_path, tiny_dataset, capsys, lr):
    # nan and inf used to train an epoch, then exit 2 naming only the validation
    # pass; -0.5 trained by gradient ascent and exited 0
    code = run_cli("train", "--model", "lstm", "--dataset", tiny_dataset, "--lr", lr,
                   "--epochs", 1, "--hidden", 4, "--decimate", 60, "--out", tmp_path / "run")
    assert code == 2
    assert capsys.readouterr().err == f"error: lr0 must be finite and > 0, got {float(lr)}\n"
    assert not (tmp_path / "run").exists()  # validated before any write


@pytest.mark.parametrize("lr0", [-0.5, float("nan"), True])  # True used to load as 1
def test_evaluate_model_file_with_an_lr0_that_is_not_finite_and_positive_exits_1(
        tmp_path, tiny_dataset, tiny_model, capsys, lr0):
    doc = json.loads(tiny_model.read_text())
    doc["spec"]["lr0"] = lr0
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(doc))  # nan as the JSON extension NaN
    code = run_cli("evaluate", "--model-file", model_file, "--dataset", tiny_dataset,
                   "--out", tmp_path / "eval")
    assert code == 1
    assert capsys.readouterr().err == (f"I/O error: {model_file}: malformed model file "
                                       f"(lr0 must be finite and > 0, got {lr0})\n")


@pytest.mark.parametrize("key, size", [("hidden_size", 10**9), ("n_features", 10**10)])
def test_evaluate_model_file_whose_spec_is_far_beyond_memory_exits_1(
        tmp_path, tiny_dataset, tiny_model, capsys, key, size):
    # the spec's network was built before any weight block was checked, so
    # allocating its initial weights ended in a numpy MemoryError traceback
    doc = json.loads(tiny_model.read_text())
    doc["spec"][key] = size
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(doc))
    code = run_cli("evaluate", "--model-file", model_file, "--dataset", tiny_dataset,
                   "--out", tmp_path / "eval")
    assert code == 1
    err = capsys.readouterr().err
    assert err.startswith(f"I/O error: {model_file}: malformed model file (weight block ")
    assert err.count("\n") == 1


def test_evaluate_model_file_of_a_huge_spec_with_empty_blocks_exits_1(
        tmp_path, tiny_dataset, tiny_model, capsys):
    # the value counts were checked after build, so allocating the 29.1 TiB
    # recurrent weights ended in a numpy MemoryError traceback
    h = 10**6
    doc = json.loads(tiny_model.read_text())
    doc["spec"]["hidden_size"] = h
    shapes = {"lstm.W": [4 * h, 64], "lstm.U": [4 * h, h], "lstm.b": [4 * h],
              "dense.w": [h, 7], "dense.b": [7]}
    assert sorted(shapes) == sorted(doc["weights"])
    doc["weights"] = {name: {"shape": shape, "data": []} for name, shape in shapes.items()}
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(doc))
    code = run_cli("evaluate", "--model-file", model_file, "--dataset", tiny_dataset,
                   "--out", tmp_path / "eval")
    assert code == 1
    assert capsys.readouterr().err == (
        f"I/O error: {model_file}: malformed model file (weight block 'lstm.W' has 0 "
        "values, shape (4000000, 64) needs 256000000)\n")


@pytest.mark.parametrize("key, value", [("timesteps", float("nan")), ("batch_size", 2.5),
                                        ("batch_size", float("inf")), ("timesteps", True),
                                        ("hidden_size", True), ("seed", True), ("seed", 2.5)])
def test_evaluate_model_file_with_a_size_that_is_not_an_integer_exits_1(
        tmp_path, tiny_dataset, tiny_model, capsys, key, value):
    # nan timesteps ended in a ValueError traceback from infer_decimation, a
    # fractional batch_size in a TypeError traceback from predict_probs, and a
    # fractional seed in one naming `&`; a JSON true loaded as 1, so true
    # timesteps scored a 1-step model and exited 0
    doc = json.loads(tiny_model.read_text())
    doc["spec"][key] = value
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(doc))
    code = run_cli("evaluate", "--model-file", model_file, "--dataset", tiny_dataset,
                   "--out", tmp_path / "eval")
    assert code == 1
    assert capsys.readouterr().err == (f"I/O error: {model_file}: malformed model file "
                                       f"({key} must be an integer, got {value!r})\n")


def set_every_shape_to_floats(doc):
    for block in doc["weights"].values():
        block["shape"] = [float(n) for n in block["shape"]]


# Each of these loaded and scored, because a bool passed as an int and a
# float shape compared equal to an integer one.
@pytest.mark.parametrize("edit, message", [
    (lambda doc: doc.update(format_version=True),
     "unsupported format_version True (this build reads 1)"),
    (lambda doc: doc.update(format_version=1.0),
     "unsupported format_version 1.0 (this build reads 1)"),
    (lambda doc: doc["spec"].update(dropout=False),
     "malformed model file (dropout must be in [0, 1))"),
    (set_every_shape_to_floats,
     "malformed model file (weight block 'dense.b': file has (7.0,), spec needs (7,))"),
], ids=["version-true", "version-float", "dropout-false", "float-shapes"])
def test_evaluate_model_file_with_a_json_bool_or_float_shape_exits_1(
        tmp_path, tiny_dataset, tiny_model, capsys, edit, message):
    doc = json.loads(tiny_model.read_text())
    edit(doc)
    model_file = tmp_path / "model.json"
    model_file.write_text(json.dumps(doc))
    code = run_cli("evaluate", "--model-file", model_file, "--dataset", tiny_dataset,
                   "--out", tmp_path / "eval")
    assert code == 1
    assert capsys.readouterr().err == f"I/O error: {model_file}: {message}\n"


def test_evaluate_with_a_model_of_another_feature_count_exits_2(
        tmp_path, tiny_dataset, tiny_pre, capsys):
    # a 10-feature model on a 64-feature root used to end in a broadcast
    # ValueError traceback from the input standardisation
    pca = tmp_path / "pca"
    assert run_cli("preprocess", "--dataset", tiny_dataset, "--out", pca,
                   "--stages", "amplitude;impute_mean;pca:n_components=10") == 0
    assert run_cli("train", "--model", "lstm", "--dataset", pca, "--epochs", 1,
                   "--hidden", 4, "--decimate", 60, "--out", tmp_path / "run") == 0
    capsys.readouterr()
    code = run_cli("evaluate", "--model-file", tmp_path / "run" / "model.json",
                   "--dataset", tiny_pre, "--out", tmp_path / "eval")
    assert code == 2
    assert capsys.readouterr().err == "error: input shape (20, 64) != model input (20, 10)\n"


def root_with_a_32_subcarrier_first_row(tmp_path) -> Path:
    """A raw 2-per-class root of 120-packet samples whose first sample,
    empty-0000, keeps only its first 32 subcarriers."""
    data = tmp_path / "raw"
    cfg = synth.GeneratorConfig(seed=5, samples_per_class=2, n_packets=120)
    storage.save_dataset(synth.generate_dataset(cfg), data)
    manifest = data / storage.MANIFEST_NAME
    with open(manifest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    first = rows[0]  # empty-0000, the first sample in canonical order
    assert first["sample_id"] == "empty-0000"
    first["n_subcarriers"] = "32"
    path = data / first["relative_path"]
    lines = path.read_text().splitlines()
    path.write_text("".join(",".join(line.split(",")[:64]) + "\r\n" for line in lines),
                    newline="")
    with open(manifest, "w", newline="") as fh:
        writer = csv.DictWriter(fh, storage.MANIFEST_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    return data


def test_a_32_subcarrier_row_preprocesses_and_fails_train_with_exit_2(tmp_path, capsys):
    # a sample of another width and an empty lineage used to end both commands
    # in a "ValueError: expected 64 subcarriers" traceback
    data = root_with_a_32_subcarrier_first_row(tmp_path)
    assert run_cli("preprocess", "--dataset", data, "--out", tmp_path / "pre") == 0
    assert storage.read_manifest(tmp_path / "pre")[0]["n_subcarriers"] == "32"
    capsys.readouterr()
    assert run_cli("train", "--model", "lstm", "--dataset", data, "--epochs", 1,
                   "--hidden", 4, "--out", tmp_path / "run") == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if not line.startswith("INFO ")] == [
        "error: input shape (10, 64) != model input (10, 32)"]


def test_grid_on_samples_of_mixed_width_exits_2_before_any_cell(tmp_path, capsys):
    # used to mark all 12 cells failed and exit 0 with an empty grid.csv
    data = root_with_a_32_subcarrier_first_row(tmp_path)
    capsys.readouterr()
    assert run_cli("grid", "--dataset", data, "--decimate", 12, "--hidden", 4,
                   "--out", tmp_path / "grid") == 2
    err = capsys.readouterr().err.splitlines()
    assert [line for line in err if not line.startswith("INFO ")] == [
        "error: input shape (10, 32) != model input (10, 64)"]  # empty-0000 is a test sample
    assert not (tmp_path / "grid" / "grid.csv").exists()


def test_non_finite_input_fails_train_and_evaluate_with_exit_2(
        tmp_path, tiny_pre, tiny_model, capsys):
    # evaluate used to exit 0 and write mean_loss=nan
    data = tmp_path / "data"
    shutil.copytree(tiny_pre, data)
    for path in (data / "samples").rglob("*.csv"):
        raw = path.read_bytes()
        path.write_bytes(b"nan" + raw[raw.index(b","):])
    capsys.readouterr()
    for argv, split_name in ((["train", "--model", "lstm", "--epochs", 1, "--hidden", 4,
                               "--decimate", 60], "train"),
                             (["evaluate", "--model-file", tiny_model], "test")):
        out = tmp_path / argv[0]
        assert run_cli(*argv, "--dataset", data, "--out", out) == 2, argv[0]
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if not line.startswith("INFO ")] == [
            f"error: {split_name} split: non-finite value nan at sample 0, step 0, feature 0"]
    assert not (tmp_path / "evaluate" / "metrics.csv").exists()


def test_evaluate_parses_only_the_test_split(tmp_path, tiny_dataset, tiny_model, monkeypatch):
    use_cores(monkeypatch, 1)  # jobs run in this process, where the calls are counted
    read_rows, calls = storage._read_rows, []

    def counting_read_rows(*args, **kwargs):
        calls.append(args[0])
        return read_rows(*args, **kwargs)

    monkeypatch.setattr(storage, "_read_rows", counting_read_rows)
    assert run_cli("evaluate", "--model-file", tiny_model, "--dataset", tiny_dataset,
                   "--out", tmp_path / "eval") == 0
    assert calls == [tiny_dataset / r["relative_path"] for r in scored_rows(tiny_dataset)]
    assert (len(calls), len(storage.read_manifest(tiny_dataset))) == (7, 21)


@pytest.mark.parametrize("half", ["raw", "pre"])
def test_evaluate_outputs_equal_the_library_oracle(
        tmp_path, tiny_dataset, tiny_pre, tiny_model, half):
    root = tiny_dataset if half == "raw" else tiny_pre
    out = tmp_path / "eval"
    assert run_cli("evaluate", "--model-file", tiny_model, "--dataset", root,
                   "--split-seed", 5, "--out", out) == 0
    # The oracle reads, preprocesses and decimates every sample, then splits.
    samples = storage.load_dataset(root).samples
    if half == "raw":
        samples = [dsp.run_pipeline(s, dsp.default_stages()) for s in samples]
    features = Dataset.from_samples(models.decimate_all(samples, 60))
    _, test_ds = evaluate.split(features, evaluate.SplitSpec(seed=5))
    report = evaluate.evaluate_model(storage.load_model(tiny_model), test_ds.samples)
    oracle = tmp_path / "oracle"
    oracle.mkdir()
    storage.write_metrics_csv(report, oracle / "metrics.csv")
    storage.write_confusion_csv(report.confusion, oracle / "confusion.csv")
    storage.write_confusion_csv(report.confusion_normalized, oracle / "confusion_normalized.csv")
    assert tree_bytes(out) == tree_bytes(oracle)


def test_loading_commands_read_the_manifest_once(tmp_path, tiny_dataset, monkeypatch):
    opened = []

    def counting_open(file, *args, **kwargs):
        if Path(file).name == storage.MANIFEST_NAME:
            opened.append(file)
        return open(file, *args, **kwargs)

    monkeypatch.setattr(storage, "open", counting_open, raising=False)
    run_dir = tmp_path / "run"
    assert run_cli("train", "--model", "lstm", "--dataset", tiny_dataset, "--epochs", 1,
                   "--hidden", 4, "--decimate", 60, "--out", run_dir) == 0
    assert len(opened) == 1
    assert run_cli("evaluate", "--model-file", run_dir / "model.json",
                   "--dataset", tiny_dataset, "--out", tmp_path / "eval") == 0
    assert len(opened) == 2


@pytest.mark.parametrize("field, value", [
    ("class_name", "Sitting"), ("n_packets", "1200.0"), ("n_subcarriers", ""),
    ("cells", "fewer"), ("cells", "more"),
    ("relative_path", "../outside/stolen.csv"), ("relative_path", "{tmp}/outside/stolen.csv"),
    ("seed", "x")])
def test_malformed_manifest_row_exits_1_naming_its_line(
        tmp_path, tiny_dataset, capsys, field, value):
    # field "cells" drops the row's last cell or appends one more; a
    # relative_path leaving the root names a whole sample file copied out of it
    value = value.format(tmp=tmp_path)
    run_dir = tmp_path / "run"
    assert run_cli("train", "--model", "lstm", "--dataset", tiny_dataset, "--epochs", 1,
                   "--hidden", 4, "--decimate", 60, "--out", run_dir) == 0
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    manifest = data / storage.MANIFEST_NAME
    with open(manifest, newline="") as fh:
        rows = list(csv.reader(fh))
    column = rows[0].index
    line_no = 1 + next(i for i, r in enumerate(rows) if r[column("class_name")] == "sitting")
    cells = rows[line_no - 1]
    if field == "relative_path":
        (tmp_path / "outside").mkdir()
        shutil.copy(data / cells[column(field)], tmp_path / "outside" / "stolen.csv")
    if field == "cells":
        rows[line_no - 1] = cells[:-1] if value == "fewer" else cells + ["x"]
    else:
        cells[column(field)] = value
    with open(manifest, "w", newline="") as fh:
        csv.writer(fh).writerows(rows)
    capsys.readouterr()
    for argv in (["train", "--model", "lstm", "--dataset", data, "--epochs", 1,
                  "--hidden", 4, "--decimate", 60, "--out", tmp_path / "run2"],
                 ["evaluate", "--model-file", run_dir / "model.json", "--dataset", data,
                  "--out", tmp_path / "eval"]):
        assert run_cli(*argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"I/O error: {manifest}:{line_no}: ")
        assert (f"{value} cells" if field == "cells" else repr(value)) in err
        assert err.count("\n") == 1


def test_preprocess_of_a_preprocessed_root_exits_2_naming_its_lineage(
        tmp_path, tiny_dataset, tiny_pre, capsys):
    # amplitude used to raise in the pool, after the --out root's manifest was
    # deleted; then the check read the first sample file, so a root missing
    # it exited 1 with "missing sample file"
    pre_missing_first = tmp_path / "pre"
    shutil.copytree(tiny_pre, pre_missing_first)
    (pre_missing_first / storage.read_manifest(tiny_pre)[0]["relative_path"]).unlink()
    out = tmp_path / "again"
    shutil.copytree(tiny_dataset, out)
    before = tree_bytes(out, exclude=())
    for pre in (tiny_pre, pre_missing_first):
        capsys.readouterr()
        assert run_cli("preprocess", "--dataset", pre, "--out", out) == 2
        err = capsys.readouterr().err
        assert err == ("error: amplitude needs a raw CSI sample; this one is already "
                       "preprocessed (lineage amplitude|impute_mean|"
                       "butterworth(order=1,cutoff=0.05))\n"), pre
        assert tree_bytes(out, exclude=()) == before


@pytest.mark.parametrize("command", ["preprocess", "train", "evaluate", "grid"])
def test_out_that_is_the_dataset_root_exits_2_before_any_write(
        tmp_path, tiny_dataset, tiny_model, capsys, command):
    # preprocess wrote its amplitudes over the raw sample files and exited 0;
    # train overwrote the root's config, the generator's record
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    before = tree_bytes(data, exclude=())
    out = data / "samples" / ".."  # the same directory, spelled another way
    flags = {"train": ["--model", "lstm", "--decimate", 60],
             "evaluate": ["--model-file", tiny_model], "grid": ["--decimate", 60]}
    capsys.readouterr()
    assert run_cli(command, *flags.get(command, []), "--dataset", data, "--out", out) == 2
    assert capsys.readouterr().err == (
        f"error: --out {out} is the --dataset root; write to another directory\n")
    assert tree_bytes(data, exclude=()) == before


def test_root_of_raw_and_preprocessed_rows_exits_1_naming_it(
        tmp_path, tiny_dataset, tiny_pre, tiny_model, capsys):
    # one scored raw sample replaced by its preprocessed file and manifest row
    data = tmp_path / "mixed"
    shutil.copytree(tiny_dataset, data)
    victim = scored_rows(data)[0]["sample_id"]
    manifest = data / storage.MANIFEST_NAME
    rows = {r["sample_id"]: r for r in storage.read_manifest(tiny_pre)}
    with open(manifest, newline="") as fh:
        lines = list(csv.DictReader(fh))
    for i, row in enumerate(lines):
        if row["sample_id"] == victim:
            lines[i] = rows[victim]
            shutil.copy(tiny_pre / row["relative_path"], data / row["relative_path"])
    with open(manifest, "w", newline="") as fh:
        writer = csv.DictWriter(fh, storage.MANIFEST_FIELDS)
        writer.writeheader()
        writer.writerows(lines)
    capsys.readouterr()
    for argv in (["preprocess", "--dataset", data, "--out", tmp_path / "pre"],
                 ["train", "--model", "lstm", "--dataset", data, "--epochs", 1,
                  "--hidden", 4, "--decimate", 60, "--out", tmp_path / "run"],
                 ["evaluate", "--model-file", tiny_model, "--dataset", data,
                  "--out", tmp_path / "eval"],
                 ["grid", "--dataset", data, "--decimate", 60, "--out", tmp_path / "grid"]):
        assert run_cli(*argv) == 1, argv[0]
        assert capsys.readouterr().err == (
            f"I/O error: {data}: manifest mixes raw (is_complex 1) and "
            "preprocessed (is_complex 0) samples\n"), argv[0]
        assert not Path(argv[-1]).exists(), argv[0]


@pytest.mark.parametrize("victim", ["manifest", "model"])
def test_non_utf8_byte_in_an_index_file_exits_1_naming_it(
        tmp_path, tiny_pre, tiny_model, capsys, victim):
    data = tmp_path / "data"
    shutil.copytree(tiny_pre, data)
    model_file = tmp_path / "model.json"
    shutil.copy(tiny_model, model_file)
    path = data / storage.MANIFEST_NAME if victim == "manifest" else model_file
    with open(path, "ab") as fh:
        fh.write(b"\xff")
    capsys.readouterr()
    assert run_cli("evaluate", "--model-file", model_file, "--dataset", data,
                   "--out", tmp_path / "eval") == 1
    err = capsys.readouterr().err
    assert err.startswith(f"I/O error: {path}: ")
    assert "can't decode byte 0xff" in err
    assert err.count("\n") == 1


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_whose_validation_loss_diverges_exits_2(tmp_path, tiny_dataset, capsys):
    code = run_cli("train", "--model", "lstm", "--dataset", tiny_dataset, "--lr", "1e308",
                   "--batch-size", 64, "--epochs", 2, "--hidden", 4, "--decimate", 60,
                   "--out", tmp_path / "run")
    assert code == 2
    last = capsys.readouterr().err.splitlines()[-1]
    assert last.startswith("error: training failed at epoch 1, validation: ")
    assert "non-finite" in last
    assert not (tmp_path / "run" / "model.json").exists()


# ---------------------------------------------------------------------------
# per-sample work in the worker pool

def worker_pid(_):
    return os.getpid()


def test_pool_size_follows_the_affinity_set(monkeypatch):
    monkeypatch.setattr(os, "cpu_count", lambda: 64)
    use_cores(monkeypatch, 1)
    assert evaluate.ordered_map(worker_pid, range(4)) == [os.getpid()] * 4
    use_cores(monkeypatch, 3)
    assert evaluate.ordered_map(worker_pid, range(1)) == [os.getpid()]  # capped at 1 item
    assert os.getpid() not in evaluate.ordered_map(worker_pid, range(4))
    assert evaluate.ordered_map(worker_pid, []) == []


def test_ordered_map_runs_closures_over_unpicklable_data(monkeypatch):
    use_cores(monkeypatch, 2)
    lock = threading.Lock()  # cannot be pickled

    def job(x):
        with lock:
            return x * x, os.getpid()

    results = evaluate.ordered_map(job, range(6))
    assert [r for r, _ in results] == [x * x for x in range(6)]
    assert os.getpid() not in {pid for _, pid in results}


def test_fitted_preprocess_reads_each_raw_sample_once(tmp_path, tiny_dataset, monkeypatch):
    use_cores(monkeypatch, 1)  # jobs run in this process, where the calls are counted
    read_rows, calls = storage._read_rows, []

    def counting_read_rows(*args, **kwargs):
        calls.append(args[0])
        return read_rows(*args, **kwargs)

    monkeypatch.setattr(storage, "_read_rows", counting_read_rows)
    assert run_cli("preprocess", "--dataset", tiny_dataset, "--out", tmp_path / "pre",
                   "--stages", "amplitude;impute_mean;pca:n_components=10") == 0
    assert len(calls) == len(set(calls)) == len(storage.read_manifest(tiny_dataset)) == 21


@pytest.mark.parametrize("stage", ["pca:n_components=0", "select_k_best:k=-3"])
def test_invalid_fitted_stage_exits_2_before_any_sample_is_read(
        tmp_path, tiny_dataset, monkeypatch, capsys, stage):
    use_cores(monkeypatch, 1)  # jobs run in this process, where the calls are counted
    read_rows, calls = storage._read_rows, []

    def counting_read_rows(*args, **kwargs):
        calls.append(args[0])
        return read_rows(*args, **kwargs)

    monkeypatch.setattr(storage, "_read_rows", counting_read_rows)
    assert run_cli("preprocess", "--dataset", tiny_dataset, "--out", tmp_path / "pre",
                   "--stages", f"amplitude;impute_mean;{stage}") == 2
    assert calls == []
    assert capsys.readouterr().err.startswith("error: ")
    assert not (tmp_path / "pre").exists()


def test_generate_tree_is_save_dataset_on_any_core_count(tmp_path, monkeypatch):
    cfg = synth.GeneratorConfig(seed=7, samples_per_class=2)
    storage.save_dataset(synth.generate_dataset(cfg), tmp_path / "ref")
    write_sample = storage.write_sample
    pids = tmp_path / "pids"
    pids.mkdir()

    def noting_pid(*args):
        (pids / str(os.getpid())).touch()
        return write_sample(*args)

    monkeypatch.setattr(storage, "write_sample", noting_pid)
    trees = {}
    for cores in (2, 1):
        use_cores(monkeypatch, cores)
        out = tmp_path / f"cores{cores}"
        assert run_cli("generate", "--seed", 7, "--samples-per-class", 2, "--out", out) == 0
        trees[cores] = tree_bytes(out)
        writers = {int(p.name) for p in pids.iterdir()}
        assert (os.getpid() in writers) == (cores == 1)
        assert len(writers) == cores
        shutil.rmtree(pids)
        pids.mkdir()
    assert trees[1] == trees[2]
    assert {k: v for k, v in trees[2].items() if k != "config"} == tree_bytes(tmp_path / "ref")


@pytest.mark.parametrize("stages", [
    "amplitude;impute_mean;butterworth:order=1,cutoff=0.05",
    "amplitude;impute_mean;pca:n_components=10;butterworth:order=1,cutoff=0.05"])
def test_preprocess_tree_is_in_process_pipeline_on_any_core_count(
        tmp_path, tiny_dataset, monkeypatch, stages):
    raw = storage.load_dataset(tiny_dataset)
    chain = dsp.parse_stages(stages)
    train_ds, _ = evaluate.split(raw, evaluate.SplitSpec(seed=42))
    dsp.fit_stages(chain, train_ds.samples)
    storage.save_dataset(Dataset.from_samples(
        [dsp.run_pipeline(s, chain) for s in raw.samples], seed=raw.seed), tmp_path / "ref")
    trees = {}
    for cores in (2, 1):
        use_cores(monkeypatch, cores)
        out = tmp_path / f"cores{cores}"
        assert run_cli("preprocess", "--dataset", tiny_dataset, "--out", out,
                       "--stages", stages) == 0
        trees[cores] = tree_bytes(out)
    assert trees[1] == trees[2]
    assert {k: v for k, v in trees[2].items() if k != "config"} == tree_bytes(tmp_path / "ref")


BLAS_VARS = ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS")


@pytest.fixture(scope="module")
def pre_6(tmp_path_factory):
    base = tmp_path_factory.mktemp("blas")
    assert run_cli("generate", "--seed", 42, "--samples-per-class", 6, "--out", base / "raw") == 0
    assert run_cli("preprocess", "--dataset", base / "raw", "--out", base / "pre") == 0
    return base / "pre"


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2,
                    reason="with the BLAS variables unset OpenBLAS starts one thread per "
                           "core, so on fewer than 2 cores both runs use one thread")
@pytest.mark.parametrize("argv, output", [
    (["train", "--model", "cnn", "--epochs", "3"], "model.json"),
    (["grid", "--decimate", "24", "--hidden", "20"], "grid.csv"),
], ids=["train-cnn", "grid"])
def test_output_bytes_do_not_depend_on_the_blas_thread_variables(tmp_path, pre_6, argv, output):
    # two OpenBLAS threads summed Conv1d's kernel gradient in another order
    # than one, so these bytes depended on the core count
    outputs = []
    for threads in (None, "1"):
        # built here: an in-process cli.main may have set the variables in os.environ
        env = {k: v for k, v in harlab_env().items() if k not in BLAS_VARS}
        if threads is not None:
            env.update(dict.fromkeys(BLAS_VARS, threads))
        out = tmp_path / f"threads-{threads}"
        subprocess.run([sys.executable, "-m", "harlab.cli", *argv, "--dataset", str(pre_6),
                        "--out", str(out)], env=env, check=True, capture_output=True)
        outputs.append((out / output).read_bytes())
    assert outputs[0] == outputs[1]


@pytest.mark.parametrize("cores", [2, 1])
def test_crashed_sample_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys, cores):
    use_cores(monkeypatch, cores)
    old = tmp_path / "old"
    assert run_cli("generate", "--seed", 3, "--samples-per-class", 2, "--out", old) == 0
    before = tree_bytes(old)

    def write_half(fh, rows):
        fh.write(",".join(map(repr, rows[0].tolist())) + "\r\n")
        raise OSError("disk full")

    monkeypatch.setattr(storage, "_write_rows", write_half)
    for root in (tmp_path / "new", old):
        assert run_cli("generate", "--seed", 3, "--samples-per-class", 2, "--out", root) == 1
        assert "disk full" in capsys.readouterr().err
        assert not [p for p in root.rglob(".*") if p.is_file()]  # no temp file, no .lock
    assert not (tmp_path / "new" / "manifest.csv").exists()
    assert not list((tmp_path / "new").rglob("*.csv"))
    del before["manifest.csv"]
    assert tree_bytes(old) == before  # a crashed rewrite leaves the old samples, no manifest


def test_failed_rewrite_leaves_a_root_that_no_reader_loads(tmp_path, monkeypatch, capsys):
    # the seventh sample's synthesis fails after six files of the new seed
    # were written over the old ones; the old manifest used to survive,
    # so the mixed root loaded without an error
    use_cores(monkeypatch, 1)  # jobs run in this process, in order
    root = tmp_path / "d"
    assert run_cli("generate", "--seed", 1, "--samples-per-class", 2, "--out", root) == 0
    generate_sample, calls = synth.generate_sample, []

    def fail_seventh(*args):
        calls.append(args)
        if len(calls) == 7:
            raise OSError("synthesis failed")
        return generate_sample(*args)

    monkeypatch.setattr(synth, "generate_sample", fail_seventh)
    assert run_cli("generate", "--seed", 2, "--samples-per-class", 2, "--out", root) == 1
    assert "synthesis failed" in capsys.readouterr().err
    with pytest.raises(storage.StorageError, match="manifest.csv not found"):
        storage.read_manifest(root)


def test_corrupt_sample_fails_every_loading_command_with_exit_1(
        tmp_path, tiny_dataset, monkeypatch, capsys):
    use_cores(monkeypatch, 2)
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    run_dir = tmp_path / "run"
    assert run_cli("train", "--model", "lstm", "--dataset", data, "--epochs", 1,
                   "--hidden", 4, "--decimate", 60, "--out", run_dir) == 0
    training = data / "samples" / "sitting" / "sitting-0001.csv"
    scored = data / scored_rows(data)[0]["relative_path"]  # evaluate reads only these
    commands = [
        (["train", "--model", "lstm", "--dataset", data, "--epochs", 1, "--hidden", 4,
          "--decimate", 60, "--out", tmp_path / "run2"], training),
        (["evaluate", "--model-file", run_dir / "model.json", "--dataset", data,
          "--out", tmp_path / "eval"], scored),
        (["preprocess", "--dataset", data, "--out", tmp_path / "pre"], training)]
    for argv, victim in commands:
        clean = victim.read_bytes()
        corrupt_line_5(victim)
        capsys.readouterr()
        assert run_cli(*argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert f"I/O error: {victim}:5: malformed number 'abc'" in err, argv[0]
        victim.write_bytes(clean)
    assert not (tmp_path / "pre" / "manifest.csv").exists()
    assert not (tmp_path / "pre" / ".lock").exists()


def test_corrupt_training_sample_leaves_evaluate_unchanged(
        tmp_path, tiny_dataset, tiny_model, monkeypatch):
    use_cores(monkeypatch, 2)
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    victim = data / "samples" / "sitting" / "sitting-0001.csv"
    assert victim not in {data / r["relative_path"] for r in scored_rows(data)}
    assert run_cli("evaluate", "--model-file", tiny_model, "--dataset", data,
                   "--out", tmp_path / "clean") == 0
    corrupt_line_5(victim)
    assert run_cli("evaluate", "--model-file", tiny_model, "--dataset", data,
                   "--out", tmp_path / "corrupt") == 0
    assert tree_bytes(tmp_path / "corrupt") == tree_bytes(tmp_path / "clean")


def test_worker_that_dies_exits_1_with_one_line(tmp_path, monkeypatch, capsys):
    use_cores(monkeypatch, 2)
    parent, generate_sample = os.getpid(), synth.generate_sample

    def die_in_worker(*args):
        if os.getpid() != parent:
            os._exit(3)
        return generate_sample(*args)

    monkeypatch.setattr(synth, "generate_sample", die_in_worker)
    out = tmp_path / "d"
    assert run_cli("generate", "--samples-per-class", 2, "--out", out) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: a worker process died:") and err.count("\n") == 1
    assert not (out / "manifest.csv").exists()
    assert not (out / ".lock").exists()


@pytest.mark.parametrize("value, level", [
    ("basic_format", logging.INFO), ("_styles", logging.INFO), ("loud", logging.INFO),
    ("warn", logging.WARNING), ("Fatal", logging.CRITICAL), ("debug", logging.DEBUG)])
def test_harlab_log_takes_only_level_names(tmp_path, monkeypatch, value, level):
    # basic_format and _styles name logging attributes that are no level; they
    # ended generate in a traceback after --out and harlab.log were made
    monkeypatch.setenv("HARLAB_LOG", value)
    assert run_cli("generate", "--samples-per-class", 1, "--out", tmp_path / "d") == 0
    assert logging.getLogger().level == level


def test_out_of_memory_exits_1_with_one_line(tmp_path, tiny_dataset, monkeypatch, capsys):
    # train --hidden 100000 ended in a numpy _ArrayMemoryError traceback
    def too_big(spec):
        raise MemoryError("Unable to allocate 298. GiB for an array")

    monkeypatch.setattr(models, "build", too_big)
    capsys.readouterr()
    assert run_cli("train", "--model", "lstm", "--dataset", tiny_dataset, "--epochs", 1,
                   "--hidden", 4, "--decimate", 60, "--out", tmp_path / "run") == 1
    err = capsys.readouterr().err
    assert [line for line in err.splitlines() if not line.startswith("INFO ")] == [
        "error: out of memory: Unable to allocate 298. GiB for an array"]


def test_lock_of_a_dead_writer_is_taken_over(tmp_path):
    fresh, root = tmp_path / "fresh", tmp_path / "d"
    assert run_cli("generate", "--seed", 4, "--samples-per-class", 1, "--out", fresh) == 0
    child = subprocess.Popen([sys.executable, "-c", "pass"])
    child.wait()  # reaped, so its pid names no process
    root.mkdir()
    (root / ".lock").write_text(f"{child.pid}\n")
    assert run_cli("generate", "--seed", 4, "--samples-per-class", 1, "--out", root) == 0
    assert tree_bytes(root) == tree_bytes(fresh)


@pytest.mark.parametrize("owner", ["empty", "pid 1", "parent pid"])
def test_lock_file_naming_no_holder_does_not_block_generate(tmp_path, owner):
    # an empty lock is what a writer killed before it wrote its pid leaves; a
    # live pid that holds no lock is what pid reuse (after a reboot, say) gives
    fresh, root = tmp_path / "fresh", tmp_path / "d"
    assert run_cli("generate", "--seed", 4, "--samples-per-class", 1, "--out", fresh) == 0
    root.mkdir()
    (root / ".lock").write_text({"empty": "", "pid 1": "1\n",
                                 "parent pid": f"{os.getppid()}\n"}[owner])
    assert run_cli("generate", "--seed", 4, "--samples-per-class", 1, "--out", root) == 0
    assert tree_bytes(root) == tree_bytes(fresh)


def test_writer_in_another_process_blocks_generate(tmp_path, capsys):
    root = tmp_path / "d"
    holder = subprocess.Popen(
        [sys.executable, "-c", "import sys; from harlab import storage; "
         "w = storage.DatasetWriter(sys.argv[1]); print(flush=True); sys.stdin.read()",
         str(root)], env=harlab_env(), stdin=subprocess.PIPE, stdout=subprocess.PIPE, text=True)
    try:
        assert holder.stdout.readline() == "\n"  # it holds the lock
        capsys.readouterr()
        assert run_cli("generate", "--samples-per-class", 1, "--out", root) == 1
        err = capsys.readouterr().err
        assert [line for line in err.splitlines() if not line.startswith("INFO ")] == [
            f"I/O error: dataset root is locked by another writer: {root}"]
    finally:
        holder.stdin.close()
        assert holder.wait(timeout=60) == 0
    # its lock went with it
    assert run_cli("generate", "--samples-per-class", 1, "--out", root) == 0


def test_generate_after_a_killed_generate_succeeds(tmp_path):
    fresh, root = tmp_path / "fresh", tmp_path / "d"
    argv = ["generate", "--seed", "6", "--samples-per-class", "4"]
    assert run_cli(*argv, "--out", fresh) == 0
    # its own session, so that one SIGKILL ends the command and its pool workers
    child = subprocess.Popen([sys.executable, "-m", "harlab.cli", *argv, "--out", str(root)],
                             env=harlab_env(), start_new_session=True,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(root.glob("samples/*/*.csv")) and child.poll() is None:
            assert time.monotonic() < deadline
            time.sleep(0.002)
    finally:
        os.killpg(child.pid, signal.SIGKILL)
        child.wait()
    assert child.returncode == -signal.SIGKILL
    assert not (root / "manifest.csv").exists()
    # its pool workers hold the root's lock until the kernel has ended them
    deadline = time.monotonic() + 5
    while live_session_members(child.pid) and time.monotonic() < deadline:
        time.sleep(0.002)
    assert live_session_members(child.pid) == []
    assert run_cli(*argv, "--out", root) == 0
    assert tree_bytes(root) == tree_bytes(fresh)


def live_session_members(sid: int) -> list[int]:
    """Pids of the processes of session `sid`, zombies aside, read from /proc."""
    members = []
    for stat in Path("/proc").glob("[0-9]*/stat"):
        try:
            state, _, _, session = stat.read_text().rsplit(")", 1)[1].split()[:4]
        except OSError:
            continue  # it ended while we looked
        if session == str(sid) and state != "Z":
            members.append(int(stat.parent.name))
    return members


@pytest.mark.skipif(len(os.sched_getaffinity(0)) < 2 or not Path("/proc/self/stat").exists(),
                    reason="needs a pool of 2 workers, and /proc to find them")
def test_pool_workers_die_with_a_killed_generate(tmp_path):
    # a SIGKILL of the command alone used to leave its pool workers asleep
    # under pid 1, where one caught mid-job could still write into the root
    root = tmp_path / "d"
    child = subprocess.Popen([sys.executable, "-m", "harlab.cli", "generate",
                              "--samples-per-class", "20", "--out", str(root)],
                             env=harlab_env(), start_new_session=True,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        deadline = time.monotonic() + 60
        while not list(root.glob("samples/*/*.csv")):
            assert child.poll() is None and time.monotonic() < deadline
            time.sleep(0.002)
        child.kill()  # the command only, not its session
        child.wait()
        deadline = time.monotonic() + 5
        while live_session_members(child.pid) and time.monotonic() < deadline:
            time.sleep(0.05)
        assert live_session_members(child.pid) == []
    finally:
        with contextlib.suppress(ProcessLookupError):
            os.killpg(child.pid, signal.SIGKILL)


# ---------------------------------------------------------------------------
# fuzz: evaluate on a mutated manifest

@pytest.fixture(scope="module")
def fuzz_root(tmp_path_factory):
    """A raw 2-per-class root of 120-packet samples, and a model trained on it."""
    base = tmp_path_factory.mktemp("fuzz")
    cfg = synth.GeneratorConfig(seed=3, samples_per_class=2, n_packets=120)
    storage.save_dataset(synth.generate_dataset(cfg), base / "raw")
    assert run_cli("train", "--model", "lstm", "--dataset", base / "raw", "--epochs", 1,
                   "--hidden", 4, "--out", base / "run") == 0
    return base / "raw", base / "run" / "model.json"


CELL_VALUES = st.one_of(
    st.sampled_from(["", "0", "1", "2", "-1", "64", "128", "120", "1200", "9" * 30,
                     "walk_forward", "samples/empty", "amplitude", "a|b"]),
    st.text(max_size=6))


def csv_mutations(columns):
    """Mutations for `mutated` of a CSV file with header `columns`."""
    return st.one_of(
        st.tuples(st.sampled_from(["insert", "replace"]), st.integers(0, 10**6),
                  st.integers(0, 255)),
        st.tuples(st.just("cell"), st.integers(0, 10**6), st.sampled_from(columns),
                  CELL_VALUES),
        st.tuples(st.sampled_from(["drop", "duplicate"]), st.integers(0, 10**6)))


MANIFEST_MUTATIONS = csv_mutations(storage.MANIFEST_FIELDS)


def mutated(data: bytes, mutation) -> bytes:
    """The bytes of a CSV file with a header and at least one row, with one
    byte inserted or replaced, one cell set, or one row dropped or
    duplicated; positions wrap around."""
    op, at, *arg = mutation
    if op in ("insert", "replace"):
        at %= len(data)
        return data[:at] + bytes([arg[0]]) + data[at + (op == "replace"):]
    rows = list(csv.reader(io.StringIO(data.decode(), newline="")))
    i = 1 + at % (len(rows) - 1)  # a data row, not the header
    if op == "cell":
        rows[i][rows[0].index(arg[0])] = arg[1]
    elif op == "drop":
        del rows[i]
    else:
        rows.insert(i, rows[i])
    out = io.StringIO(newline="")
    csv.writer(out).writerows(rows)
    return out.getvalue().encode()


@settings(max_examples=20, deadline=None, derandomize=True)
@example(("replace", -1, 0xFF))
@example(("cell", 0, "is_complex", "0"))
@example(("cell", 0, "n_packets", "0"))
@given(mutation=MANIFEST_MUTATIONS)
def test_evaluate_on_a_mutated_manifest_ends_in_an_exit_code(fuzz_root, mutation):
    root, model_file = fuzz_root
    with tempfile.TemporaryDirectory() as tmp:
        data = Path(tmp) / "data"
        data.mkdir()
        (data / "samples").symlink_to(root / "samples")
        manifest = (root / storage.MANIFEST_NAME).read_bytes()
        (data / storage.MANIFEST_NAME).write_bytes(mutated(manifest, mutation))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli("evaluate", "--model-file", model_file, "--dataset", data,
                           "--out", Path(tmp) / "eval")
    assert code in (0, 1, 2)
    if code:
        last = err.getvalue().split("\n")[-2]  # not splitlines: a path may hold a \x1c
        assert last.startswith("error: " if code == 2 else "I/O error: "), last


# ---------------------------------------------------------------------------
# fuzz: report on a mutated metrics.csv or grid.csv

REPORT_COLUMNS = {"metrics.csv": ["accuracy", "macro_precision", "macro_recall", "macro_f1",
                                  "mean_loss"],
                  "grid.csv": ["model", "epochs", "lr", "accuracy", "mean_loss"]}


@settings(max_examples=40, deadline=None, derandomize=True)
@example(("grid.csv", ("cell", 0, "mean_loss", "")))
@given(target=st.sampled_from(sorted(REPORT_COLUMNS)).flatmap(
    lambda name: st.tuples(st.just(name), csv_mutations(REPORT_COLUMNS[name]))))
def test_report_on_a_mutated_metrics_or_grid_file_ends_in_an_exit_code(target):
    name, mutation = target
    with tempfile.TemporaryDirectory() as tmp:
        run_dir = Path(tmp) / "run"
        run_dir.mkdir()
        storage.write_metrics_csv(evaluate.compute_metrics([0, 1, 2, 3], [0, 1, 1, 3],
                                                           [0.1, 0.2, 0.3, 0.25]),
                                  run_dir / "metrics.csv")
        storage.write_grid_csv([evaluate.GridCell("lstm", 20, 0.1, 1 / 3, 0.7),
                                evaluate.GridCell("cnn", 20, 0.1, None, None, "diverged")],
                               run_dir / "grid.csv")
        path = run_dir / name
        path.write_bytes(mutated(path.read_bytes(), mutation))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli("report", "--run-dir", run_dir, "--out", Path(tmp) / "report")
    assert code in (0, 1, 2)
    if code:
        assert err.getvalue().count("\n") == 1, err.getvalue()
        assert err.getvalue().startswith("error: " if code == 2 else "I/O error: ")


# ---------------------------------------------------------------------------
# fuzz: evaluate a model on roots of other shapes and class coverage

PAIRING_T, PAIRING_F = 4, 3


@pytest.fixture(scope="module")
def pairing_model(tmp_path_factory):
    """A 1-epoch lstm of input [4, 3], saved as a model file."""
    spec = models.ModelSpec(kind="lstm", timesteps=PAIRING_T, n_features=PAIRING_F,
                            hidden_size=4, epochs=1, seed=0)
    rng = make_rng(0, "pairing-model")
    tensors = [FeatureTensor(rng.standard_normal((PAIRING_T, PAIRING_F)), cls)
               for cls in ActivityClass for _ in range(2)]
    path = tmp_path_factory.mktemp("pairing") / "model.json"
    storage.save_model(models.train(models.build(spec), tensors, tensors), path)
    return path


def pairing_root(root, raw, n_packets, n_features, counts):
    """A root written by save_dataset: counts[c] samples of class c, raw
    complex captures or preprocessed tensors, all n_packets x n_features;
    with every count 0, which save_dataset refuses, a header-only manifest."""
    rng = make_rng(0, "pairing-root")
    samples = []
    for cls, count in zip(ActivityClass, counts):
        for _ in range(count):
            values = rng.standard_normal((n_packets, n_features, 2)) + 1.0
            if raw:
                samples.append(CsiSample(values[..., 0] + 1j * values[..., 1], cls))
            else:
                samples.append(FeatureTensor(values[..., 0], cls, ("amplitude",)))
    if samples:
        storage.save_dataset(Dataset.from_samples(samples, seed=0), root)
    else:
        storage.write_dataset(root, [], None)


@settings(max_examples=20, deadline=None, derandomize=True)
@example(raw=False, n_packets=PAIRING_T, n_features=PAIRING_F, counts=[2] * 7)
@example(raw=True, n_packets=3 * PAIRING_T, n_features=PAIRING_F, counts=[3, 2, 2, 3, 2, 2, 3])
@example(raw=False, n_packets=PAIRING_T, n_features=PAIRING_F + 1, counts=[2] * 7)
@example(raw=True, n_packets=2 * PAIRING_T + 1, n_features=PAIRING_F, counts=[2] * 7)
@example(raw=False, n_packets=1, n_features=1, counts=[0] * 7)
@example(raw=True, n_packets=1, n_features=PAIRING_F, counts=[1] * 7)
@given(raw=st.booleans(), n_packets=st.integers(1, 4 * PAIRING_T),
       n_features=st.integers(1, PAIRING_F + 2),
       counts=st.lists(st.integers(0, 3), min_size=len(ActivityClass),
                       max_size=len(ActivityClass)))
def test_evaluate_on_a_root_of_any_shape_and_coverage_ends_in_an_exit_code(
        pairing_model, raw, n_packets, n_features, counts):
    with tempfile.TemporaryDirectory() as tmp:
        pairing_root(Path(tmp) / "data", raw, n_packets, n_features, counts)
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli("evaluate", "--model-file", pairing_model,
                           "--dataset", Path(tmp) / "data", "--out", Path(tmp) / "eval")
    lines = [line for line in err.getvalue().splitlines()
             if not line.startswith(("INFO ", "WARNING "))]
    assert code in (0, 1, 2)
    if code == 0:
        assert lines == []
    else:
        assert len(lines) == 1, lines
        assert lines[0].startswith("error: " if code == 2 else "I/O error: "), lines


# ---------------------------------------------------------------------------
# fuzz: evaluate with a mutated model file

# Keys of the fuzz model's file at which every mutation below is malformed:
# a spec field with a default that equals the trained value, the history
# and whole weight data lists (a nested list of the right count loads) are
# left out.
MODEL_PATHS = [("format_version",), ("spec",), ("spec", "kind"), ("spec", "timesteps"),
               ("spec", "hidden_size"), ("weights",), ("weights", "lstm.W"),
               ("weights", "lstm.U", "shape"), ("weights", "dense.b", "data", 3),
               ("input",), ("input", "mean"), ("input", "scale", 0)]
# None drops the key, an integer nests the value in that many lists, and a
# string is the JSON text put in its place.
MODEL_OPS = st.one_of(
    st.none(), st.integers(1, 10**5),
    st.sampled_from(["null", '"x"', "[]", "{}", "[0]", "[-1, 64]", "1" + "0" * 400,
                     "-1" + "0" * 400, "NaN", "Infinity", "-Infinity"]))


def mutated_model(text: str, path, op) -> str:
    doc = json.loads(text)
    *parents, last = path
    node = doc
    for key in parents:
        node = node[key]
    if op is None:
        del node[last]
        return json.dumps(doc)
    if isinstance(op, int):  # written as text: json.dumps recurses
        op = "[" * op + json.dumps(node[last]) + "]" * op
    node[last] = "@mutated@"
    return json.dumps(doc).replace('"@mutated@"', op)


@settings(max_examples=20, deadline=None, derandomize=True)
@example(path=("spec", "timesteps"), op="NaN")
@example(path=("spec", "hidden_size"), op=None)
@example(path=("weights", "lstm.U", "shape"), op="[-1, 64]")
@example(path=("input", "mean"), op=10**5)
@given(path=st.sampled_from(MODEL_PATHS), op=MODEL_OPS)
def test_evaluate_with_a_mutated_model_file_ends_in_an_exit_code(fuzz_root, path, op):
    root, model_file = fuzz_root
    with tempfile.TemporaryDirectory() as tmp:
        mutant = Path(tmp) / "model.json"
        mutant.write_text(mutated_model(model_file.read_text(), path, op))
        err = io.StringIO()
        with contextlib.redirect_stderr(err):
            code = run_cli("evaluate", "--model-file", mutant, "--dataset", root,
                           "--out", Path(tmp) / "eval")
    lines = [line for line in err.getvalue().splitlines() if not line.startswith("INFO ")]
    assert code in (1, 2)
    assert len(lines) == 1, lines
    assert lines[0].startswith("error: " if code == 2 else "I/O error: "), lines


# ---------------------------------------------------------------------------
# gradcheck

GRADCHECKS = [("dense[none]", "1e-05"), ("lstm", "1e-04"),
              ("conv1d+maxpool+dense+softmax+ce", "1e-04"), ("dropout[train]", "1e-05"),
              ("architecture[lstm]", "1e-04"), ("architecture[cnn]", "1e-04"),
              ("architecture[lstm_cnn]", "1e-04")]


def test_gradcheck_passes_on_fresh_checkout(capsys):
    assert run_cli("gradcheck") == 0
    *checks, last = capsys.readouterr().out.splitlines()
    # the error values depend on the BLAS build, so only their format is pinned
    assert [re.fullmatch(r"(\S+ +)max_rel_err=\d\.\d{3}e[-+]\d\d  tol=(\S+)  (\S+)",
                         line).groups() for line in checks] == [
        (f"{name:<31}  ", tol, "pass") for name, tol in GRADCHECKS]
    assert last == "gradient check: all passed"


def test_gradcheck_detects_broken_backward(monkeypatch, capsys):
    original = nn.Dense.backward

    def wrong_backward(self, dy):
        dx = original(self, dy)
        self.db *= 1.01  # corrupt the bias gradient
        return dx

    monkeypatch.setattr(nn.Dense, "backward", wrong_backward)
    assert run_cli("gradcheck") != 0
    assert "FAIL" in capsys.readouterr().out


def test_gradcheck_detects_unscaled_cross_entropy_grad(monkeypatch, capsys):
    original = nn.cross_entropy_grad

    def unscaled(probs, labels):
        return original(probs, labels) * len(labels)  # drops the 1/n

    monkeypatch.setattr(nn, "cross_entropy_grad", unscaled)
    assert run_cli("gradcheck") == 1
    failed = {line.split()[0] for line in capsys.readouterr().out.splitlines()
              if line.endswith("FAIL")}
    assert failed == {"conv1d+maxpool+dense+softmax+ce", "architecture[lstm]",
                      "architecture[cnn]", "architecture[lstm_cnn]"}


# ---------------------------------------------------------------------------
# docs

def test_every_harlab_name_in_the_readme_exists():
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    names = re.findall(r"`harlab\.(\w+)\.(\w+)[^`]*`", readme)
    assert names
    missing = [f"harlab.{module}.{name}" for module, name in names
               if not hasattr(importlib.import_module(f"harlab.{module}"), name)]
    assert missing == []


def test_every_harlab_name_the_benchmark_uses_exists():
    # bench/ runs outside tier-1, so a rename or deletion it depends on
    # would otherwise show only when the benchmark runs; a traced run fails
    # at Tracer.install on a missing attribute such as storage.DatasetWriter
    owners = {"cli": cli, "dsp": dsp, "evaluate": evaluate, "models": models, "nn": nn,
              "storage": storage, "synth": synth, "Dataset": Dataset,
              "FeatureTensor": FeatureTensor}
    used = set()
    for script in ("run.py", "train_worker.py", "tracer.py", "traced_cli.py"):
        tree = ast.parse((Path(__file__).parents[1] / "bench" / script).read_text())
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and node.module.startswith("harlab"):
                used.update((node.module, alias.name) for alias in node.names)
            elif (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name)
                  and node.value.id in owners):
                used.add((node.value.id, node.attr))
    assert {owner for owner, _ in used} >= {"harlab", "harlab.core", "cli", "dsp", "Dataset",
                                            "nn"}
    missing = [f"{owner}.{name}" for owner, name in sorted(used)
               if not hasattr(owners.get(owner) or importlib.import_module(owner), name)]
    assert missing == []


def test_preprocess_default_stages_are_dsp_default_stages():
    # cli spells the default out, since it loads no numpy before parse_args
    sub = next(a for a in cli.build_parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    stages = next(a for a in sub.choices["preprocess"]._actions if a.dest == "stages")
    assert stages.default == dsp.stages_to_text(dsp.default_stages())
    assert f"(default: {stages.default})" in stages.help
