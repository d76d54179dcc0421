import csv
import hashlib
import json
import os
import shutil
import tempfile
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
        assert a.sample_id == b.sample_id
        assert a.label is b.label
        assert a.frames.tobytes() == b.frames.tobytes()


def test_feature_dataset_roundtrip_exact(tmp_path):
    ds = small_feature_dataset()
    storage.save_dataset(ds, tmp_path / "feat")
    loaded = storage.load_dataset(tmp_path / "feat")
    for a, b in zip(ds.samples, loaded.samples):
        assert a == b  # bitwise on values, label and lineage equal


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


def test_writer_lock_excludes_second_writer(tmp_path):
    w = storage.DatasetWriter(tmp_path / "d", seed=1)
    try:
        with pytest.raises(storage.StorageError, match="locked"):
            storage.DatasetWriter(tmp_path / "d", seed=1)
    finally:
        w.close()
    # lock released after close
    storage.DatasetWriter(tmp_path / "d", seed=1).close()


def test_lock_file_names_its_writer(tmp_path):
    w = storage.DatasetWriter(tmp_path / "d", seed=1)
    try:
        assert (tmp_path / "d" / ".lock").read_text().strip() == str(os.getpid())
        with pytest.raises(storage.StorageError, match=f"locked.*pid {os.getpid()}"):
            storage.DatasetWriter(tmp_path / "d", seed=1)
    finally:
        w.close()
    assert not (tmp_path / "d" / ".lock").exists()


def test_writer_block_that_raises_leaves_no_lock_and_no_manifest(tmp_path):
    sample = small_feature_dataset(per_class=1).samples[0]
    with pytest.raises(RuntimeError, match="boom"):
        with storage.DatasetWriter(tmp_path / "d", seed=1) as writer:
            writer.record(storage.write_sample(writer.root, sample, "empty-0000"))
            raise RuntimeError("boom")
    assert not (tmp_path / "d" / ".lock").exists()
    assert not (tmp_path / "d" / "manifest.csv").exists()
    with storage.DatasetWriter(tmp_path / "d", seed=1) as writer:
        writer.record(storage.write_sample(writer.root, sample, "empty-0000"))
    assert len(storage.read_manifest(tmp_path / "d")) == 1


def test_small_files_replace_atomically(tmp_path, monkeypatch):
    storage.save_dataset(small_feature_dataset(per_class=1), tmp_path / "d")
    trained, _ = _tiny_trained()
    storage.save_model(trained, tmp_path / "d" / "model.json")
    before = {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir() if p.is_file()}
    assert sorted(before) == ["manifest.csv", "model.json"]  # no lock, no temp files

    def crash(*args, **kwargs):
        raise OSError("disk full")

    def crash_after_first_chunk(self, o, _one_shot=False):
        chunks = iter(real_iterencode(self, o, _one_shot))
        yield next(chunks)
        raise OSError("disk full")

    # A crash while rewriting leaves the old file whole and no temp file; the
    # model crash comes after the first chunk of JSON is encoded.  A dataset
    # rewrite removes the old manifest before its first sample file, so its
    # crash leaves no manifest at all.
    real_iterencode = json.JSONEncoder.iterencode
    monkeypatch.setattr(json.JSONEncoder, "iterencode", crash_after_first_chunk)
    with pytest.raises(OSError, match="disk full"):
        storage.save_model(trained, tmp_path / "d" / "model.json")
    monkeypatch.setattr(csv.DictWriter, "writeheader", crash)
    with pytest.raises(OSError, match="disk full"):
        storage.save_dataset(small_feature_dataset(per_class=2), tmp_path / "d")
    after = {p.name: p.read_bytes() for p in (tmp_path / "d").iterdir() if p.is_file()}
    assert after == {"model.json": before["model.json"]}


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
    sample = CsiSample(frames, ActivityClass.SITTING, "sitting-0000", ("toy",))
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
            storage.load_dataset(root)
            rejected = False
        except storage.StorageError:
            rejected = True
        code = cli.main(["evaluate", "--model-file", str(fuzz_dataset / "model.json"),
                         "--dataset", str(root), "--out", str(Path(tmp) / "eval")])
        assert code == (1 if rejected else 0)


# ---------------------------------------------------------------------------
# flat export

def test_flat_export_shape_and_first_label(tmp_path):
    ds = small_feature_dataset(per_class=1, T=10)
    path = tmp_path / "flat.csv"
    storage.export_flat(ds, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert len(rows) == 70
    assert all(len(r) == 65 for r in rows)
    assert rows[0][0] == "0"  # first block is the empty class


def test_flat_reimport_labels_identical(tmp_path):
    ds = small_feature_dataset(per_class=2, T=10)
    path = tmp_path / "flat.csv"
    storage.export_flat(ds, path)
    tensors = storage.load_flat(path, n_packets=10)
    assert [t.label for t in tensors] == [s.label for s in ds.samples]
    for a, b in zip(tensors, ds.samples):
        assert a.values.tobytes() == b.values.tobytes()


def test_flat_export_matches_csv_reference(tmp_path):
    ds = small_feature_dataset(per_class=1, T=4)
    flat, ref = tmp_path / "flat.csv", tmp_path / "ref.csv"
    storage.export_flat(ds, flat)
    expected = b""
    for t in ds.samples:
        reference_write(ref, t.values)
        expected += b"".join(f"{int(t.label)},".encode() + line + b"\r\n"
                             for line in ref.read_bytes().split(b"\r\n")[:-1])
    assert flat.read_bytes() == expected


def test_flat_reimport_rejects_blank_line(tmp_path):
    ds = small_feature_dataset(per_class=1, T=4)
    path = tmp_path / "flat.csv"
    storage.export_flat(ds, path)
    lines = path.read_text().splitlines()
    path.write_text("\n".join(lines[:3] + [""] + lines[3:]) + "\n")
    with pytest.raises(storage.StorageError, match=r"flat.csv:4: expected 65 columns, got 0"):
        storage.load_flat(path, n_packets=4)


def test_flat_export_rejects_complex_samples(tmp_path):
    ds = small_raw_dataset(per_class=1)
    with pytest.raises(storage.StorageError, match="amplitude-typed"):
        storage.export_flat(ds, tmp_path / "flat.csv")


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
    cfg = storage.ExperimentConfig(
        generator=synth.GeneratorConfig(seed=7, samples_per_class=5, snr_db=float("inf")),
        model=models.ModelSpec(kind="lstm_cnn", timesteps=50, hidden_size=20,
                               lr0=0.1, epochs=20),
        split=evaluate.SplitSpec(train_fraction=0.8, seed=3, stratified=True),
        stages=dsp.default_stages(),
    )
    path = tmp_path / "config"
    storage.save_experiment_config(path, cfg)
    loaded = storage.load_experiment_config(path)
    assert loaded.generator == cfg.generator
    assert loaded.model == cfg.model
    assert loaded.split == cfg.split
    assert dsp.stages_to_text(loaded.stages) == dsp.stages_to_text(cfg.stages)


def test_experiment_config_rejects_unknown_key(tmp_path):
    path = tmp_path / "config"
    path.write_text("generator.bogus = 3\n")
    with pytest.raises(storage.StorageError, match="unknown key"):
        storage.load_experiment_config(path)


@pytest.mark.parametrize("key, value", [
    ("generator.seed", "abc"), ("model.conv_filters", "1,x"), ("split.stratified", "yes"),
], ids=["int", "int_tuple", "bool"])
def test_experiment_config_names_file_key_and_value_it_cannot_convert(tmp_path, key, value):
    # the first two used to escape as a bare ValueError from int(), with no path
    path = tmp_path / "config"
    path.write_text(f"model.kind = cnn\n{key} = {value}\n")
    with pytest.raises(storage.StorageError) as info:
        storage.load_experiment_config(path)
    assert str(info.value).startswith(f"{path}: {key} = {value!r}: ")


@pytest.mark.parametrize("text, section", [
    ("model.kind = rnn", "model"),
    ("model.kind = cnn\nmodel.hidden_size = 0", "model"),
    ("model.hidden_size = 50", "model"),
    ("generator.samples_per_class = -1", "generator"),
    ("split.train_fraction = 2", "split"),
], ids=["unknown_kind", "zero_hidden_size", "no_kind", "negative_count", "fraction_above_1"])
def test_experiment_config_names_file_and_section_of_an_invalid_section(tmp_path, text,
                                                                        section):
    # these escaped as the dataclass's own error, or a bare TypeError, with no path
    path = tmp_path / "config"
    path.write_text(text + "\n")
    with pytest.raises(storage.StorageError) as info:
        storage.load_experiment_config(path)
    assert str(info.value).startswith(f"{path}: section {section}: ")


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
