import csv
import hashlib
import json
import os
import re
import resource
import select
import shutil
import signal
import subprocess
import sys
import tempfile
import types
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from harlab import cli, dsp, evaluate, models, storage, synth
from harlab.core import ActivityClass, CsiSample, Dataset, FeatureTensor, class_from_name
from harlab.rng import make_rng


def small_raw_dataset(per_class=2):
    return synth.generate_dataset(
        synth.GeneratorConfig(seed=42, samples_per_class=per_class, n_packets=20))


def small_feature_dataset(per_class=2, T=10, F=64):
    rng = make_rng(0, "storage-feat")
    tensors = []
    for cls in ActivityClass:
        for _ in range(per_class):
            tensors.append(FeatureTensor(rng.standard_normal((T, F)) * 1e-3 + 0.1,
                                         int(cls), ("amplitude",)))
    return Dataset.from_samples(tensors, seed=11)


# ---------------------------------------------------------------------------
# dataset round trips

def test_complex_dataset_roundtrip_exact(tmp_path):
    ds = small_raw_dataset()
    storage.save_dataset(ds, tmp_path / "raw")
    loaded = storage.load_dataset(tmp_path / "raw")
    assert len(loaded) == len(ds)
    assert loaded.seed == 42
    for a, b in zip(ds.samples, loaded.samples):
        assert a.label is b.label
        assert a.frames.tobytes() == b.frames.tobytes()


@pytest.mark.parametrize("kind", ["raw", "preprocessed"])
def test_saving_a_loaded_root_rewrites_it_byte_for_byte(tmp_path, kind):
    root = tmp_path / "raw"
    assert cli.main(["generate", "--seed", "5", "--samples-per-class", "2",
                     "--out", str(root)]) == 0
    if kind == "preprocessed":
        raw, root = root, tmp_path / "pre"
        assert cli.main(["preprocess", "--dataset", str(raw), "--out", str(root)]) == 0

    def dataset_files(r):  # the files of the root, not of the command beside it
        return {p.relative_to(r).as_posix(): p.read_bytes() for p in sorted(r.rglob("*"))
                if p.is_file() and p.name not in ("config", "harlab.log")}

    storage.save_dataset(storage.load_dataset(root), tmp_path / "again")
    assert dataset_files(tmp_path / "again") == dataset_files(root)


def test_write_dataset_numbers_each_class_from_0000_in_sample_order(tmp_path):
    tensors = small_feature_dataset(per_class=2).samples
    samples = [tensors[2], tensors[0], tensors[3], tensors[1]]  # no_activity, empty, ...
    storage.write_dataset(tmp_path / "d", [s.label.class_name for s in samples],
                          samples.__getitem__)
    with open(tmp_path / "d" / storage.MANIFEST_NAME, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert [(r["sample_id"], r["relative_path"]) for r in rows] == [
        ("no_activity-0000", "samples/no_activity/no_activity-0000.csv"),
        ("empty-0000", "samples/empty/empty-0000.csv"),
        ("no_activity-0001", "samples/no_activity/no_activity-0001.csv"),
        ("empty-0001", "samples/empty/empty-0001.csv")]
    assert storage.load_dataset(tmp_path / "d").samples == (
        tensors[0], tensors[1], tensors[2], tensors[3])


def test_feature_dataset_roundtrip_exact(tmp_path):
    ds = small_feature_dataset()
    storage.save_dataset(ds, tmp_path / "feat")
    loaded = storage.load_dataset(tmp_path / "feat")
    for a, b in zip(ds.samples, loaded.samples):
        assert a == b  # bitwise on values, label and lineage equal


def test_a_32_subcarrier_dataset_roundtrips_with_an_empty_lineage(tmp_path):
    # the generator used to record a "subcarrier_count:32" lineage entry, which
    # the sample types' 64-column rule needed to accept the width
    ds = synth.generate_dataset(synth.GeneratorConfig(seed=42, samples_per_class=2,
                                                      n_packets=20, n_subcarriers=32))
    storage.save_dataset(ds, tmp_path / "raw")
    loaded = storage.load_dataset(tmp_path / "raw")
    assert {r["n_subcarriers"] for r in storage.read_manifest(tmp_path / "raw")} == {"32"}
    assert loaded.samples == ds.samples  # bitwise on frames, label and lineage
    assert {s.lineage for s in loaded.samples} == {()}
    assert loaded.samples[0].frames.shape == (20, 32)


def test_complex_files_have_128_columns(tmp_path):
    ds = small_raw_dataset(per_class=1)
    storage.save_dataset(ds, tmp_path / "raw")
    path = tmp_path / "raw" / "samples" / "empty" / "empty-0000.csv"
    with open(path, newline="") as fh:
        row = next(csv.reader(fh))
    assert len(row) == 128


def test_missing_manifest_error(tmp_path):
    (tmp_path / "empty").mkdir()
    with pytest.raises(storage.StorageError, match="manifest.csv not found"):
        storage.load_dataset(tmp_path / "empty")


@pytest.mark.parametrize("row, error", [
    (b"\xff", "can't decode byte 0xff"),
    (b"x" * 200_000, r"field larger than field limit")], ids=["not-utf8", "csv-error"])
def test_unreadable_manifest_raises_storage_error_naming_it(tmp_path, row, error):
    manifest = tmp_path / storage.MANIFEST_NAME
    manifest.write_bytes(",".join(storage.MANIFEST_FIELDS).encode() + b"\n" + row + b"\n")
    with pytest.raises(storage.StorageError, match=rf"^{re.escape(str(manifest))}: .*{error}"):
        storage.read_manifest(tmp_path)


def test_missing_sample_file_error_names_path(tmp_path):
    ds = small_feature_dataset(per_class=1)
    storage.save_dataset(ds, tmp_path / "d")
    victim = tmp_path / "d" / "samples" / "sitting" / "sitting-0000.csv"
    victim.unlink()
    with pytest.raises(storage.StorageError, match="sitting-0000.csv"):
        storage.load_dataset(tmp_path / "d")


def test_row_count_mismatch_error(tmp_path):
    ds = small_feature_dataset(per_class=1)
    storage.save_dataset(ds, tmp_path / "d")
    victim = tmp_path / "d" / "samples" / "empty" / "empty-0000.csv"
    lines = victim.read_text().splitlines()
    victim.write_text("\n".join(lines[:-1]) + "\n")
    with pytest.raises(storage.StorageError, match="file has 9"):
        storage.load_dataset(tmp_path / "d")


def test_malformed_number_error_names_file_and_line(tmp_path):
    ds = small_feature_dataset(per_class=1)
    storage.save_dataset(ds, tmp_path / "d")
    victim = tmp_path / "d" / "samples" / "empty" / "empty-0000.csv"
    lines = victim.read_text().splitlines()
    cells = lines[2].split(",")
    cells[3] = "not-a-number"
    lines[2] = ",".join(cells)
    victim.write_text("\n".join(lines) + "\n")
    with pytest.raises(storage.StorageError, match=r"empty-0000.csv:3.*not-a-number"):
        storage.load_dataset(tmp_path / "d")


def test_manifest_order_independence(tmp_path):
    ds = small_feature_dataset()
    storage.save_dataset(ds, tmp_path / "d")
    manifest = tmp_path / "d" / "manifest.csv"
    lines = manifest.read_text().splitlines()
    header, rows = lines[0], lines[1:]
    manifest.write_text("\n".join([header] + rows[::-1]) + "\n")
    shuffled = storage.load_dataset(tmp_path / "d")
    ordered = storage.load_dataset(tmp_path / "d")
    assert list(shuffled.samples) == list(ordered.samples)
    labels = [s.label for s in shuffled.samples]
    assert labels == sorted(labels)


@pytest.mark.parametrize("samples, error", [
    ("mixed", "manifest mixes raw (is_complex 1) and preprocessed (is_complex 0) samples"),
    ("none", "dataset has no samples")], ids=["mixed", "none"])
def test_save_dataset_that_no_reader_loads_raises_before_any_write(tmp_path, samples, error):
    # a mixed dataset used to be written whole, and then load_dataset rejected it
    root = tmp_path / "d"
    storage.save_dataset(small_feature_dataset(per_class=1), root)
    before = {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}
    dataset = Dataset.from_samples(
        small_raw_dataset(per_class=1).samples[:2] + small_feature_dataset(per_class=1).samples
        if samples == "mixed" else [], seed=3)
    with pytest.raises(storage.StorageError, match=re.escape(f"{root}: {error}")):
        storage.save_dataset(dataset, root)
    assert {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()} == before


def test_writer_lock_excludes_second_writer(tmp_path):
    with storage.DatasetWriter(tmp_path / "d"):
        with pytest.raises(storage.StorageError, match="locked"):
            storage.write_dataset(tmp_path / "d", [], None)
    # lock released after the block
    storage.write_dataset(tmp_path / "d", [], None)


@pytest.mark.skipif(not hasattr(os, "pidfd_open"), reason="needs pidfd_open to await a non-child")
def test_killed_writers_forked_child_holds_the_root_until_it_exits(tmp_path):
    # what a killed writer's pool worker does: it inherited the lock, and the
    # root stays locked after the writer has died, until the worker exits
    root = tmp_path / "d"
    hold_r, hold_w = os.pipe()  # the worker blocks on hold_r until hold_w closes
    pid_r, pid_w = os.pipe()
    writer = os.fork()
    if writer == 0:
        try:
            os.close(hold_w)
            held = storage.DatasetWriter(root)  # bound: not released before the kill
            if (worker := os.fork()) == 0:
                os.read(hold_r, 1)
            else:
                os.write(pid_w, str(worker).encode())
                os.kill(os.getpid(), signal.SIGKILL)
        finally:
            os._exit(0)
    os.close(hold_r)
    os.close(pid_w)
    try:
        worker = int(os.read(pid_r, 32))
        assert os.waitpid(writer, 0)[1] == signal.SIGKILL
        worker_fd = os.pidfd_open(worker)  # the worker is blocked, so this pid is still its
        with pytest.raises(storage.StorageError, match="locked"):
            storage.write_dataset(root, [], None)
    finally:
        os.close(hold_w)
        os.close(pid_r)
    assert select.select([worker_fd], [], [], 60)[0] == [worker_fd]  # it has exited
    os.close(worker_fd)
    storage.write_dataset(root, [], None)


def test_lock_error_names_the_root(tmp_path):
    with storage.DatasetWriter(tmp_path / "d"):
        with pytest.raises(storage.StorageError, match=re.escape(
                f"dataset root is locked by another writer: {tmp_path / 'd'}")):
            storage.write_dataset(tmp_path / "d", [], None)
    assert not (tmp_path / "d" / ".lock").exists()


@pytest.mark.parametrize("owner", ["", "not a pid", "0", "-1", "9" * 30, "\xff"])
def test_lock_file_that_no_process_holds_is_taken(tmp_path, owner):
    # the .lock of an earlier harlab: only an flock blocks, and it is removed
    (tmp_path / "d").mkdir()
    (tmp_path / "d" / ".lock").write_text(owner, encoding="latin-1")
    storage.write_dataset(tmp_path / "d", [], None)
    assert [p.name for p in (tmp_path / "d").iterdir()] == ["manifest.csv"]


def test_taking_a_lock_removes_only_this_roots_temp_files(tmp_path):
    root = tmp_path / "d"
    killed = [root / ".manifest.csv.99.tmp",
              root / "samples" / "sitting" / ".sitting-0000.csv.99.tmp"]
    # a live writer's, in a root nested inside this one
    nested = root / "inner" / "samples" / "sitting" / ".sitting-0000.csv.98.tmp"
    for path in [*killed, nested]:
        path.parent.mkdir(parents=True, exist_ok=True)
        path.write_text("0.5,")
    storage.write_dataset(root, [], None)
    assert [path.exists() for path in [*killed, nested]] == [False, False, True]


def test_writer_adds_no_file_to_the_root_it_locks(tmp_path):
    with storage.DatasetWriter(tmp_path / "d"):
        assert list((tmp_path / "d").rglob("*")) == []
    storage.write_dataset(tmp_path / "d", [], None)
    assert [p.name for p in (tmp_path / "d").iterdir()] == ["manifest.csv"]


def _one_sample_then_boom(item):
    """A write_dataset `make`: item 0 is one small sample, any other raises."""
    if item:
        raise RuntimeError("boom")
    return small_feature_dataset(per_class=1).samples[0]  # of class empty


def test_writer_block_that_raises_leaves_no_lock_and_no_manifest(tmp_path):
    with pytest.raises(RuntimeError, match="boom"):
        storage.write_dataset(tmp_path / "d", ["empty"] * 2, _one_sample_then_boom, seed=1)
    assert not (tmp_path / "d" / ".lock").exists()
    assert not (tmp_path / "d" / "manifest.csv").exists()
    storage.write_dataset(tmp_path / "d", ["empty"], _one_sample_then_boom, seed=1)
    assert len(storage.read_manifest(tmp_path / "d")) == 1


def test_write_dataset_rejects_a_sample_of_another_class_before_writing_it(tmp_path):
    with pytest.raises(ValueError, match="^sample 0 is of class 'sitting', not 'empty'$"):
        storage.write_dataset(tmp_path / "d", ["empty"],
                              lambda i: FeatureTensor(np.ones((2, 3)), ActivityClass.SITTING))
    assert [p for p in (tmp_path / "d").rglob("*") if p.is_file()] == []


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="needs /proc/self/fd")
def test_write_dataset_leaves_the_open_descriptors_as_it_found_them(tmp_path):
    # the lock's descriptor is closed, once, on every way out of write_dataset
    def open_fds():
        return sorted(os.listdir("/proc/self/fd"))

    before = open_fds()
    storage.write_dataset(tmp_path / "d", ["empty"], _one_sample_then_boom)
    assert open_fds() == before
    with pytest.raises(RuntimeError, match="boom"):
        storage.write_dataset(tmp_path / "d", ["empty"] * 2, _one_sample_then_boom)
    assert open_fds() == before
    with storage.DatasetWriter(tmp_path / "d"):
        held = open_fds()
        with pytest.raises(storage.StorageError, match="locked by another writer"):
            storage.write_dataset(tmp_path / "d", ["empty"], _one_sample_then_boom)
        assert open_fds() == held


def test_small_files_replace_atomically(tmp_path, monkeypatch):
    storage.save_dataset(small_feature_dataset(per_class=1), tmp_path / "d")
    trained, _ = _tiny_trained()
    storage.save_model(trained, tmp_path / "d" / "model.json")
    storage.write_history_csv(trained.history, tmp_path / "d" / "history.csv")
    before = {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir() if p.is_file()}
    assert sorted(before) == ["history.csv", "manifest.csv", "model.json"]  # no lock, no temp

    def crash(*args, **kwargs):
        raise OSError("disk full")

    def crash_after_header(fh):
        writer = real_writer(fh)
        return types.SimpleNamespace(writerow=writer.writerow, writerows=crash)

    def crash_after_first_chunk(self, o, _one_shot=False):
        chunks = iter(real_iterencode(self, o, _one_shot))
        yield next(chunks)
        raise OSError("disk full")

    # A crash while rewriting leaves the old file whole and no temp file; the
    # model crash comes after the first chunk of JSON is encoded, a table's
    # after its header row.  A dataset rewrite removes the old manifest
    # before its first sample file, so its crash leaves no manifest at all.
    real_iterencode = json.JSONEncoder.iterencode
    monkeypatch.setattr(json.JSONEncoder, "iterencode", crash_after_first_chunk)
    with pytest.raises(OSError, match="disk full"):
        storage.save_model(trained, tmp_path / "d" / "model.json")
    real_writer = csv.writer
    monkeypatch.setattr(csv, "writer", crash_after_header)
    with pytest.raises(OSError, match="disk full"):
        storage.write_history_csv(trained.history, tmp_path / "d" / "history.csv")
    with pytest.raises(OSError, match="disk full"):
        storage.save_dataset(small_feature_dataset(per_class=2), tmp_path / "d")
    after = {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir() if p.is_file()}
    assert after == {name: before[name] for name in ("history.csv", "model.json")}


def file_size_limited(limit, code, *args):
    """Run Python `code` in a child whose files cannot grow past `limit` bytes
    (ulimit -f): a write beyond it fails with EFBIG, as on a full disk."""
    def limit_file_size():
        hard = resource.getrlimit(resource.RLIMIT_FSIZE)[1]
        resource.setrlimit(resource.RLIMIT_FSIZE, (limit, hard))

    return subprocess.run(
        [sys.executable, "-c", code, *map(str, args)], capture_output=True, text=True,
        env={**os.environ, "PYTHONPATH": str(Path(storage.__file__).parents[1])},
        preexec_fn=limit_file_size, timeout=120)


def test_text_files_replace_atomically(tmp_path):
    # A rewrite of confusion.svg, report.md or config that fails part way
    # leaves the old file whole and no temp file.
    data, run = tmp_path / "data", tmp_path / "run"
    storage.save_dataset(small_raw_dataset(per_class=3), data)
    evaluate_argv = ["evaluate", "--model-file", run / "model.json", "--svg",
                     "--dataset", data, "--out", run]
    for argv in (["train", "--model", "lstm", "--epochs", 1, "--hidden", 4, "--decimate", 1,
                  "--dataset", data, "--out", run],
                 evaluate_argv, ["report", "--run-dir", run, "--out", run]):
        assert cli.main([str(a) for a in argv]) == 0
    before = {p.name: p.read_bytes() for p in run.iterdir() if p.name != "harlab.log"}
    run_cli = "import sys; from harlab import cli; sys.exit(cli.main(sys.argv[1:]))"
    children = {
        "confusion.svg": file_size_limited(4096, run_cli, *evaluate_argv),
        "report.md": file_size_limited(64, run_cli, "report", "--run-dir", run, "--out", run),
        "config": file_size_limited(
            64, "import sys; from harlab import storage, synth; storage.save_experiment_config("
                "sys.argv[1], generator=synth.GeneratorConfig())", run / "config")}
    for name, child in children.items():
        assert child.returncode == 1 and "File too large" in child.stderr, (name, child.stderr)
    assert {p.name: p.read_bytes() for p in run.iterdir() if p.name != "harlab.log"} == before


# ---------------------------------------------------------------------------
# sample-file codec against the csv-module reference

def reference_write(path, rows):
    """The csv.writer codec sample files were first written with."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        for row in rows:
            writer.writerow([repr(float(v)) for v in row])


def reference_read(path):
    with open(path, newline="") as fh:
        return np.array([[float(v) for v in row] for row in csv.reader(fh)],
                        dtype=np.float64)


SPECIAL_VALUES = [-0.0, 0.0, float("nan"), float("inf"), float("-inf"), 5e-324,
                  -2.5e-320, 2.2250738585072014e-308, 1.7976931348623157e308,
                  -1.7976931348623157e308, 1.0, -3.0, 1e16, 123456789.0, 0.1]


@settings(max_examples=150, deadline=None)
@given(arrays(np.float64, st.tuples(st.integers(1, 6), st.integers(1, 6)),
              elements=st.floats(width=64)))
@example(np.array(SPECIAL_VALUES).reshape(3, 5))
@example(np.array(SPECIAL_VALUES).reshape(15, 1))
def test_codec_matches_csv_reference(mat):
    with tempfile.TemporaryDirectory() as tmp:
        ref, new = Path(tmp) / "ref.csv", Path(tmp) / "new.csv"
        reference_write(ref, mat)
        with open(new, "w", newline="") as fh:
            storage._write_rows(fh, mat)
        assert new.read_bytes() == ref.read_bytes()
        loaded = storage._read_rows(new, *mat.shape[::-1])
        assert loaded.shape == mat.shape
        assert loaded.tobytes() == reference_read(ref).tobytes()
        not_nan = ~np.isnan(mat)  # NaN payloads need not survive a decimal round trip
        assert loaded[not_nan].tobytes() == mat[not_nan].tobytes()


def test_complex_sample_roundtrip_keeps_signed_zero_and_inf(tmp_path):
    parts = np.array([v for v in SPECIAL_VALUES if v == v] * 2).reshape(7, 4)
    frames = parts.view(np.complex128)  # real/imaginary pairs, -0.0 and inf included
    sample = CsiSample(frames, ActivityClass.SITTING, ("toy",))
    storage.save_dataset(Dataset.from_samples([sample]), tmp_path / "d")
    loaded = storage.load_dataset(tmp_path / "d").samples[0]
    assert loaded.frames.tobytes() == sample.frames.tobytes()


def test_golden_generate_tree(tmp_path):
    root = tmp_path / "g"
    assert cli.main(["generate", "--seed", "42", "--out", str(root),
                     "--samples-per-class", "1"]) == 0
    digest = hashlib.sha256()
    for path in sorted(root.rglob("*")):
        if path.is_file() and path.name != "harlab.log":
            digest.update(path.relative_to(root).as_posix().encode() + b"\0")
            digest.update(path.read_bytes() + b"\0")
    # Recorded from the csv.writer codec before the fast codec replaced it.
    assert digest.hexdigest() == \
        "f997b336e0f5d24439adea46257bd38e0e909b61e69f8059c9f49ea446ee5ca7"


def _corrupt(lines, how):
    """Break a 10-line, 64-column sample file; return it and the bad line."""
    if how == "blank line":
        return lines[:4] + [""] + lines[4:9], 5, "expected 64 columns, got 0"
    if how == "comment line":
        return lines[:2] + ["# a comment"] + lines[3:], 3, "expected 64 columns, got 1"
    if how == "quoted cell":
        cells = lines[6].split(",")
        cells[1] = f'"{cells[1]}"'
        return lines[:6] + [",".join(cells)] + lines[7:], 7, "malformed number"
    if how == "underscore digits":  # float() reads "1_0", the sample format does not
        cells = lines[5].split(",")
        cells[2] = "1_0"
        return lines[:5] + [",".join(cells)] + lines[6:], 6, "malformed number '1_0'"
    if how == "trailing comma":
        return lines[:3] + [lines[3] + ","] + lines[4:], 4, "expected 64 columns, got 65"
    if how == "short row":
        return lines[:8] + [lines[8].rsplit(",", 1)[0]] + lines[9:], 9, \
            "expected 64 columns, got 63"
    if how == "extra row":
        return lines + [lines[0]], 11, "manifest says 10 rows, file has 11"
    if how == "missing row":
        return lines[:9], 10, "manifest says 10 rows, file has 9"
    raise AssertionError(how)


@pytest.mark.parametrize("how", ["blank line", "comment line", "quoted cell",
                                 "underscore digits", "trailing comma", "short row",
                                 "extra row", "missing row"])
def test_malformed_sample_file_names_file_and_line(tmp_path, how):
    storage.save_dataset(small_feature_dataset(per_class=1), tmp_path / "d")
    victim = tmp_path / "d" / "samples" / "empty" / "empty-0000.csv"
    lines, line_no, message = _corrupt(victim.read_text().splitlines(), how)
    victim.write_text("\r\n".join(lines) + "\r\n", newline="")
    with pytest.raises(storage.StorageError, match=rf"empty-0000.csv:{line_no}: {message}"):
        storage.load_dataset(tmp_path / "d")


def test_non_utf8_byte_in_sample_file_names_file_and_line(tmp_path):
    storage.save_dataset(small_feature_dataset(per_class=1), tmp_path / "d")
    victim = tmp_path / "d" / "samples" / "empty" / "empty-0000.csv"
    lines = victim.read_bytes().split(b"\r\n")
    lines[2] = b"\x80" + lines[2]
    victim.write_bytes(b"\r\n".join(lines))
    with pytest.raises(storage.StorageError, match="empty-0000.csv:3: malformed number"):
        storage.load_dataset(tmp_path / "d")


def test_lf_only_sample_files_load(tmp_path):
    ds = small_feature_dataset(per_class=1)
    storage.save_dataset(ds, tmp_path / "d")
    for path in (tmp_path / "d" / "samples").rglob("*.csv"):
        path.write_bytes(path.read_bytes().replace(b"\r\n", b"\n"))
    assert list(storage.load_dataset(tmp_path / "d").samples) == list(ds.samples)


def test_empty_sample_file_reports_row_count(tmp_path):
    storage.save_dataset(small_feature_dataset(per_class=1), tmp_path / "d")
    (tmp_path / "d" / "samples" / "empty" / "empty-0000.csv").write_text("")
    with pytest.raises(storage.StorageError, match="manifest says 10 rows, file has 0"):
        storage.load_dataset(tmp_path / "d")


@pytest.fixture(scope="module")
def fuzz_dataset(tmp_path_factory):
    """A 14-sample dataset of 8x5 tensors and a model file that fits it."""
    base = tmp_path_factory.mktemp("fuzz")
    trained, tensors = _tiny_trained()
    storage.save_dataset(Dataset.from_samples(tensors, seed=1), base / "d")
    storage.save_model(trained, base / "model.json")
    return base


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_mutated_sample_file_fails_only_with_storage_error(fuzz_dataset, data):
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp) / "d"
        shutil.copytree(fuzz_dataset / "d", root)
        # evaluate reads only its test split (seed 42), so the victim is from it.
        rows = storage.read_manifest(root)
        _, test_idx = evaluate.split_indices([class_from_name(r["class_name"]) for r in rows],
                                             evaluate.SplitSpec(seed=42))
        victim = root / rows[test_idx[0]]["relative_path"]
        original = victim.read_bytes()
        start = data.draw(st.integers(0, len(original)), label="start")
        end = data.draw(st.integers(start, min(start + 12, len(original))), label="end")
        victim.write_bytes(original[:start] + data.draw(st.binary(max_size=6), label="insert")
                           + original[end:])
        try:
            loaded = storage.load_dataset(root)
        except storage.StorageError:
            expected = 1
        else:  # "1e9904..." loads as inf, a value evaluate refuses with exit 2
            expected = 0 if np.isfinite(loaded.samples[test_idx[0]].values).all() else 2
        code = cli.main(["evaluate", "--model-file", str(fuzz_dataset / "model.json"),
                         "--dataset", str(root), "--out", str(Path(tmp) / "eval")])
        assert code == expected


def test_sample_value_that_loads_as_inf_fails_evaluate_with_exit_2(fuzz_dataset, tmp_path,
                                                                   capsys):
    # a draw of the fuzz above: byte 82 of the first test-split sample file,
    # '.' -> 'e', turns 1.990496318988147 into 1e990496318988147
    root = tmp_path / "d"
    shutil.copytree(fuzz_dataset / "d", root)
    victim = root / "samples" / "empty" / "empty-0000.csv"
    original = victim.read_bytes()
    assert original[81:98] == b"1.990496318988147"
    victim.write_bytes(original[:82] + b"e" + original[83:])
    assert np.isinf(storage.load_dataset(root).samples[0].values).any()
    capsys.readouterr()
    assert cli.main(["evaluate", "--model-file", str(fuzz_dataset / "model.json"),
                     "--dataset", str(root), "--out", str(tmp_path / "eval")]) == 2
    assert "error: test split: non-finite value inf" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# model files

def _tiny_trained(kind="lstm", epochs=1):
    rng = make_rng(1, "storage-model")
    tensors = []
    for i in range(14):
        tensors.append(FeatureTensor(rng.standard_normal((8, 5)), i % 7,
                                     ("amplitude", "toy")))
    spec = models.ModelSpec(kind=kind, timesteps=8, n_features=5, hidden_size=4,
                            conv_filters=(3, 2) if kind != "lstm" else (),
                            epochs=epochs, batch_size=4, seed=9)
    return models.train(models.build(spec), tensors, tensors[:7]), tensors


def test_model_roundtrip_bitwise_predictions(tmp_path):
    trained, tensors = _tiny_trained()
    path = tmp_path / "model.json"
    storage.save_model(trained, path)
    loaded = storage.load_model(path)
    assert loaded.spec == trained.spec
    assert [h for h in loaded.history] == [h for h in trained.history]
    assert loaded.input_mean.tobytes() == trained.input_mean.tobytes()
    assert loaded.input_scale.tobytes() == trained.input_scale.tobytes()
    rng = make_rng(2, "storage-probe")
    for _ in range(20):
        x = rng.standard_normal((1, 8, 5))
        a = trained.network.forward(x)
        b = loaded.network.forward(x)
        assert a.tobytes() == b.tobytes()
        assert trained.predict_probs(x).tobytes() == loaded.predict_probs(x).tobytes()


def test_model_version_error(tmp_path):
    trained, _ = _tiny_trained()
    path = tmp_path / "model.json"
    storage.save_model(trained, path)
    doc = json.loads(path.read_text())
    doc["format_version"] = 999
    path.write_text(json.dumps(doc))
    with pytest.raises(storage.StorageError, match="format_version 999"):
        storage.load_model(path)


def test_model_weight_length_mismatch(tmp_path):
    trained, _ = _tiny_trained()
    path = tmp_path / "model.json"
    storage.save_model(trained, path)
    doc = json.loads(path.read_text())
    name = next(iter(doc["weights"]))
    doc["weights"][name]["data"] = doc["weights"][name]["data"][:-1]
    path.write_text(json.dumps(doc))
    with pytest.raises(storage.StorageError, match="values"):
        storage.load_model(path)


def test_model_file_bytes_are_json_dump_output(tmp_path):
    # save_model encodes the document a piece at a time, one top-level value or
    # weight block per string; the bytes are those of one json.dumps string
    for kind in models.KINDS:
        trained, _ = _tiny_trained(kind)
        path = tmp_path / f"{kind}.json"
        storage.save_model(trained, path)
        doc = json.loads(path.read_text())
        expected = json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n"
        assert path.read_bytes() == expected.encode(), kind


def test_model_truncated_file(tmp_path):
    trained, _ = _tiny_trained()
    path = tmp_path / "model.json"
    storage.save_model(trained, path)
    path.write_text(path.read_text()[:100])
    with pytest.raises(storage.StorageError, match="malformed"):
        storage.load_model(path)


def _malformed_model_doc(doc, how):
    if how == "top-level list":
        return [doc]
    if how == "missing spec":
        del doc["spec"]
    elif how == "unknown spec key":
        doc["spec"]["bogus"] = 1
    elif how == "weight block without shape":
        del doc["weights"][next(iter(doc["weights"]))]["shape"]
    elif how == "weights not an object":
        doc["weights"] = [1, 2]
    elif how == "non-numeric weights":
        doc["weights"][next(iter(doc["weights"]))]["data"][0] = "x"
    elif how == "bad history entry":
        doc["history"][0]["bogus"] = 0.0
    elif how == "missing input block":
        del doc["input"]
    elif how == "input length != n_features":
        doc["input"]["mean"].append(0.0)
    elif how == "zero input scale":
        doc["input"]["scale"][0] = 0.0
    elif how == "non-finite weight":
        doc["weights"]["dense.b"]["data"][0] = float("nan")
    elif how == "zero hidden size":
        doc["spec"]["hidden_size"] = 0
    elif how == "deeply nested array":  # RecursionError in the JSON decoder
        return "[" * 100000 + "]" * 100000
    elif how == "overflowing weight shape":  # 1e400 reads as inf
        doc["weights"]["dense.b"]["shape"] = ["SHAPE"]
        return json.dumps(doc).replace('"SHAPE"', "1e400")
    return doc


MALFORMED_MODELS = ["top-level list", "missing spec", "unknown spec key",
                    "weight block without shape", "weights not an object",
                    "non-numeric weights", "bad history entry", "missing input block",
                    "input length != n_features", "zero input scale", "non-finite weight",
                    "zero hidden size", "deeply nested array", "overflowing weight shape"]


@pytest.mark.parametrize("how", MALFORMED_MODELS)
def test_malformed_model_json_raises_storage_error(tmp_path, how):
    trained, _ = _tiny_trained()
    path = tmp_path / "model.json"
    storage.save_model(trained, path)
    doc = _malformed_model_doc(json.loads(path.read_text()), how)
    path.write_text(doc if isinstance(doc, str) else json.dumps(doc))
    with pytest.raises(storage.StorageError, match="model.json"):
        storage.load_model(path)


# ---------------------------------------------------------------------------
# experiment config

def test_experiment_config_roundtrip(tmp_path):
    path = tmp_path / "run" / "config"
    storage.save_experiment_config(
        path,
        generator=synth.GeneratorConfig(seed=7, samples_per_class=5, snr_db=float("inf")),
        model=models.ModelSpec(kind="lstm_cnn", timesteps=50, hidden_size=20,
                               lr0=0.1, epochs=20),
        split=evaluate.SplitSpec(train_fraction=0.8, seed=3, stratified=False),
        stages=dsp.default_stages())
    assert path.read_bytes().decode() == """\
# harlab experiment configuration
generator.seed = 7
generator.samples_per_class = 5
generator.n_packets = 1200
generator.n_subcarriers = 64
generator.snr_db = inf
generator.static_paths = 3
generator.breath_hz = 0.3
generator.walk_envelope_hz = 1.0
generator.walk_fringe_hz = 25.0
generator.transient_center_s = 1.5
generator.transient_width_s = 0.8
model.kind = lstm_cnn
model.timesteps = 50
model.n_features = 64
model.hidden_size = 20
model.conv_filters = 50,32
model.kernel_size = 3
model.pool_size = 3
model.dropout = 0.2
model.n_classes = 7
model.lr0 = 0.1
model.epochs = 20
model.batch_size = 32
model.seed = 42
split.train_fraction = 0.8
split.seed = 3
split.stratified = false
pipeline.stages = amplitude;impute_mean;butterworth:order=1,cutoff=0.05
"""


# ---------------------------------------------------------------------------
# report csvs

def test_metrics_and_grid_csv_schemas(tmp_path):
    rep = evaluate.compute_metrics([0, 1, 2], [0, 1, 1], [0.1, 0.2, 0.3])
    storage.write_metrics_csv(rep, tmp_path / "metrics.csv")
    with open(tmp_path / "metrics.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["accuracy", "macro_precision", "macro_recall",
                       "macro_f1", "mean_loss"]
    assert float(rows[1][0]) == rep.accuracy

    cells = [evaluate.GridCell("lstm", 50, 0.01, 0.9, 0.3),
             evaluate.GridCell("cnn", 20, 0.1, None, None, error="boom")]
    storage.write_grid_csv(cells, tmp_path / "grid.csv")
    with open(tmp_path / "grid.csv", newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "epochs", "lr", "accuracy", "mean_loss"]
    assert rows[2][3] == ""  # failed cell marked by empty metric fields
    back = storage.read_grid_csv(tmp_path / "grid.csv")
    assert back[0].accuracy == 0.9
    assert back[1].failed
