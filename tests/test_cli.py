import csv
import json
import os
import shutil
import threading
from pathlib import Path

import pytest

from harlab import cli, dsp, evaluate, nn, storage, synth
from harlab.core import Dataset


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


@pytest.mark.parametrize("field, value", [
    ("class_name", "Sitting"), ("n_packets", "1200.0"), ("n_subcarriers", "")])
def test_malformed_manifest_row_exits_1_naming_its_line(
        tmp_path, tiny_dataset, capsys, field, value):
    run_dir = tmp_path / "run"
    assert run_cli("train", "--model", "lstm", "--dataset", tiny_dataset, "--epochs", 1,
                   "--hidden", 4, "--decimate", 60, "--out", run_dir) == 0
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    manifest = data / storage.MANIFEST_NAME
    with open(manifest, newline="") as fh:
        rows = list(csv.DictReader(fh))
    line_no = 2 + next(i for i, r in enumerate(rows) if r["class_name"] == "sitting")
    rows[line_no - 2][field] = value
    with open(manifest, "w", newline="") as fh:
        writer = csv.DictWriter(fh, fieldnames=storage.MANIFEST_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    capsys.readouterr()
    for argv in (["train", "--model", "lstm", "--dataset", data, "--epochs", 1,
                  "--hidden", 4, "--decimate", 60, "--out", tmp_path / "run2"],
                 ["evaluate", "--model-file", run_dir / "model.json", "--dataset", data,
                  "--out", tmp_path / "eval"]):
        assert run_cli(*argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert err.startswith(f"I/O error: {manifest}:{line_no}: ") and repr(value) in err
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

def use_cores(monkeypatch, n):
    """Make the sample pool see an affinity set of `n` cores."""
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


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


@pytest.mark.parametrize("cores", [2, 1])
def test_crashed_sample_write_leaves_no_partial_file(tmp_path, monkeypatch, capsys, cores):
    use_cores(monkeypatch, cores)
    old = tmp_path / "old"
    assert run_cli("generate", "--seed", 3, "--samples-per-class", 2, "--out", old) == 0
    before = tree_bytes(old)

    def write_half(fh, rows, prefix=""):
        fh.write(",".join(map(repr, rows[0].tolist())) + "\r\n")
        raise OSError("disk full")

    monkeypatch.setattr(storage, "_write_rows", write_half)
    for root in (tmp_path / "new", old):
        assert run_cli("generate", "--seed", 3, "--samples-per-class", 2, "--out", root) == 1
        assert "disk full" in capsys.readouterr().err
        assert not [p for p in root.rglob(".*") if p.is_file()]  # no temp file, no .lock
    assert not (tmp_path / "new" / "manifest.csv").exists()
    assert not list((tmp_path / "new").rglob("*.csv"))
    assert tree_bytes(old) == before  # a crashed rewrite leaves the old root whole


def test_corrupt_sample_fails_every_loading_command_with_exit_1(
        tmp_path, tiny_dataset, monkeypatch, capsys):
    use_cores(monkeypatch, 2)
    data = tmp_path / "data"
    shutil.copytree(tiny_dataset, data)
    run_dir = tmp_path / "run"
    assert run_cli("train", "--model", "lstm", "--dataset", data, "--epochs", 1,
                   "--hidden", 4, "--decimate", 60, "--out", run_dir) == 0
    victim = data / "samples" / "sitting" / "sitting-0001.csv"
    lines = victim.read_text().splitlines()
    lines[4] = "abc," + lines[4].split(",", 1)[1]
    victim.write_text("\r\n".join(lines) + "\r\n", newline="")
    capsys.readouterr()
    commands = [
        ["train", "--model", "lstm", "--dataset", data, "--epochs", 1, "--hidden", 4,
         "--decimate", 60, "--out", tmp_path / "run2"],
        ["evaluate", "--model-file", run_dir / "model.json", "--dataset", data,
         "--out", tmp_path / "eval"],
        ["preprocess", "--dataset", data, "--out", tmp_path / "pre"]]
    for argv in commands:
        assert run_cli(*argv) == 1, argv[0]
        err = capsys.readouterr().err
        assert f"I/O error: {victim}:5: malformed number 'abc'" in err, argv[0]
    assert not (tmp_path / "pre" / "manifest.csv").exists()
    assert not (tmp_path / "pre" / ".lock").exists()


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
