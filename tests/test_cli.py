import csv
import json
from pathlib import Path

import pytest

from harlab import cli, nn, storage


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


def test_train_directly_on_raw_dataset(tmp_path, tiny_dataset):
    run_dir = tmp_path / "run-raw"
    assert run_cli("train", "--model", "cnn", "--dataset", tiny_dataset,
                   "--epochs", 1, "--decimate", 24, "--seed", 0,
                   "--out", run_dir) == 0
    assert (run_dir / "model.json").exists()


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


def test_train_on_empty_dataset_exits_1(tmp_path, capsys):
    storage.DatasetWriter(tmp_path / "empty", seed=1).close()  # header-only manifest
    code = run_cli("train", "--model", "lstm", "--dataset", tmp_path / "empty",
                   "--out", tmp_path / "run")
    assert code == 1
    assert "dataset has no samples" in capsys.readouterr().err


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


# ---------------------------------------------------------------------------
# gradcheck

def test_gradcheck_passes_on_fresh_checkout(capsys):
    assert run_cli("gradcheck") == 0
    out = capsys.readouterr().out
    assert "all passed" in out
    assert "max_rel_err" in out


def test_gradcheck_detects_broken_backward(monkeypatch, capsys):
    original = nn.Dense.backward

    def wrong_backward(self, dy):
        dx = original(self, dy)
        self.db *= 1.01  # corrupt the bias gradient
        return dx

    monkeypatch.setattr(nn.Dense, "backward", wrong_backward)
    assert run_cli("gradcheck") != 0
    assert "FAIL" in capsys.readouterr().out
