"""File formats: dataset roots with a manifest, model files, the
experiment config record, and the report CSVs.

All numeric serialization uses Python's shortest round-trip decimal
repr, so loading never loses precision.
"""
from __future__ import annotations

import collections
import contextlib
import csv
import dataclasses
import fcntl
import itertools
import json
import math
import os
from pathlib import Path

import numpy as np

from . import dsp, models
from .core import (ActivityClass, CsiSample, Dataset, FeatureTensor, Sample,
                   class_from_name)
from .evaluate import GridCell, MetricsReport, ordered_map

MANIFEST_NAME = "manifest.csv"
MANIFEST_FIELDS = ("sample_id", "class_name", "relative_path", "seed",
                   "n_packets", "n_subcarriers", "is_complex", "lineage")
MODEL_FORMAT_VERSION = 1


class StorageError(ValueError):
    """Raised on malformed or inconsistent files."""


def fmt(x: float) -> str:
    """Shortest decimal that round-trips to the exact float64 value."""
    return repr(float(x))


@contextlib.contextmanager
def _replace_on_success(path: Path, durable: bool = True):
    """Open a temp file beside `path` for writing; it replaces `path` only
    once the block finishes, so a process crash never leaves a half-written
    file.  `durable` also syncs the data and the rename to disk first, so
    that a power loss does not either."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline="") as fh:
            yield fh
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    if durable:  # make the rename itself durable
        dir_fd = os.open(path.parent, os.O_RDONLY)
        try:
            os.fsync(dir_fd)
        finally:
            os.close(dir_fd)


# ---------------------------------------------------------------------------
# Sample-file codec: one float64 matrix per CSV file, no header, comma
# separated, CRLF line ends, every value as its shortest round-trip repr.

def _write_rows(fh, rows: np.ndarray) -> None:
    """Write `rows` to a file opened with newline="".  Rows convert to
    Python floats one at a time: the whole matrix at once would hold ~7 MB
    of float objects per raw sample."""
    fh.writelines(",".join(map(repr, row.tolist())) + "\r\n" for row in rows)


def _no_blank_lines(fh):
    """Feed np.loadtxt the lines of `fh`, raising ValueError on a blank line
    or an empty file: loadtxt would skip the one silently and only warn on
    the other."""
    line = None
    for line in fh:
        if line == "\n":
            raise ValueError("blank line")
        yield line
    if line is None:
        raise ValueError("empty file")


def _read_rows(path: Path, n_cols: int, n_rows: int) -> np.ndarray:
    """Parse a sample file into a float64 matrix of the expected shape,
    bit-exact.  CRLF and LF both load."""
    try:
        with open(path) as fh:
            mat = np.loadtxt(_no_blank_lines(fh), delimiter=",", dtype=np.float64,
                             ndmin=2, comments=None)
    except ValueError:
        mat = None
    if mat is None or mat.shape != (n_rows, n_cols):
        _raise_first_defect(path, n_cols, n_rows)
    return mat


def _parses(text: str) -> bool:
    """Whether np.loadtxt reads `text` as one row of numbers."""
    if not text.strip():
        return False
    try:
        np.loadtxt([text], delimiter=",", dtype=np.float64, comments=None)
    except ValueError:
        return False
    return True


def _raise_first_defect(path: Path, n_cols: int, n_rows: int):
    """Walk a file _read_rows rejected and raise StorageError naming the
    first bad line: its column count (a blank line has 0 columns), a
    malformed number, then the row count.  Numbers are judged by the same
    np.loadtxt parser as the success path.  A byte that is not UTF-8 reads
    as U+FFFD, so it too is a malformed number."""
    with open(path, errors="replace") as fh:
        line_no = 0
        for line_no, line in enumerate(fh, start=1):
            cells = line.rstrip("\n").split(",") if line != "\n" else []
            if len(cells) != n_cols:
                raise StorageError(
                    f"{path}:{line_no}: expected {n_cols} columns, got {len(cells)}")
            if not _parses(line):
                bad = next((text for text in cells if not _parses(text)), line)
                raise StorageError(f"{path}:{line_no}: malformed number {bad!r}")
    if line_no != n_rows:
        raise StorageError(f"{path}:{min(line_no, n_rows) + 1}: manifest says "
                           f"{n_rows} rows, file has {line_no}")
    raise StorageError(f"{path}: not a matrix of numbers")


def write_sample(root: Path, sample: Sample, sample_id: str) -> dict:
    """Write samples/<class>/<sample_id>.csv under `root`, with the id and
    the lock that write_dataset gives it, and return its manifest row (all
    but the dataset seed, which write_dataset fills in).  The file gets its
    name only once it is whole; it is not synced to disk."""
    rel = Path("samples") / sample.label.class_name / f"{sample_id}.csv"
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    is_complex = isinstance(sample, CsiSample)
    # A complex sample as interleaved real/imaginary columns: complex128's own layout.
    rows = np.ascontiguousarray(sample.frames).view(np.float64) if is_complex else sample.values
    with _replace_on_success(path, durable=False) as fh:
        _write_rows(fh, rows)
    return {
        "sample_id": sample_id,
        "class_name": sample.label.class_name,
        "relative_path": rel.as_posix(),
        "n_packets": str(rows.shape[0]),
        "n_subcarriers": str(rows.shape[1] // 2 if is_complex else rows.shape[1]),
        "is_complex": "1" if is_complex else "0",
        "lineage": "|".join(sample.lineage),
    }


class DatasetWriter:
    """A dataset root's lock, which write_dataset holds while it writes the
    root.  It keeps its own name only because the benchmark's tracer reads
    it; ROADMAP item 9 folds it into write_dataset once item 19 deletes the
    tracer.

    The lock is an flock(2) on the root directory itself, which adds no
    file.  Forked pool workers inherit it; the kernel drops it when the
    holder and they have exited, however they exit.  Taking it removes the
    temp files a killed writer left beside the manifest and the sample files
    (not in a root nested inside this one), and an earlier harlab's `.lock`;
    then it removes an old manifest.csv durably, so a rewrite that fails or
    is killed leaves a root that no reader loads.  Leaving the `with` block
    releases the lock.
    """

    def __init__(self, root: Path | str):
        root = Path(root)
        root.mkdir(parents=True, exist_ok=True)
        self._fd = os.open(root, os.O_RDONLY)
        try:
            try:
                fcntl.flock(self._fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            except BlockingIOError:
                raise StorageError(
                    f"dataset root is locked by another writer: {root}") from None
            with contextlib.suppress(OSError):  # no live writer owns them now
                for stale in [*root.glob(".lock"), *root.glob(f".{MANIFEST_NAME}.*.tmp"),
                              *root.glob("samples/*/.*.tmp")]:
                    stale.unlink()
            manifest = root / MANIFEST_NAME
            if manifest.exists():  # a fresh root has none, and no entry to sync
                manifest.unlink()
                os.fsync(self._fd)
        except BaseException:
            os.close(self._fd)
            raise

    def __enter__(self) -> "DatasetWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        os.close(self._fd)


def write_dataset(root: Path | str, classes, make, seed: int | None = None) -> None:
    """Write a dataset root, one sample per job on the sample pool
    (evaluate.ordered_map): the i-th job writes `make(i)`, of class
    `classes[i]`, in its worker as `<class>-NNNN`, numbered from 0000 in
    order within its class; a sample of another class raises ValueError
    before its file is written.  This process holds the root's lock
    throughout, from the old manifest's removal to the new one's rename, and
    writes manifest.csv, rows in sample order, only after every file is
    whole.  No classes write a header-only manifest."""
    root = Path(root)
    counters = collections.defaultdict(itertools.count)
    ids = [f"{name}-{next(counters[name]):04d}" for name in classes]
    seed_cell = "" if seed is None else str(seed)

    def job(i):
        sample = make(i)
        if sample.label.class_name != classes[i]:
            raise ValueError(f"sample {i} is of class {sample.label.class_name!r}, "
                             f"not {classes[i]!r}")
        return write_sample(root, sample, ids[i])

    with DatasetWriter(root):
        rows = ordered_map(job, range(len(ids)))
        _write_table(root / MANIFEST_NAME, MANIFEST_FIELDS,
                     ([seed_cell if f == "seed" else row[f] for f in MANIFEST_FIELDS]
                      for row in rows))


def _check_whole(root: Path | str, raw: list[bool]) -> None:
    """read_manifest's rule for a whole root, given whether each sample is
    raw: at least one sample, and all raw or none."""
    if not raw:
        raise StorageError(f"{root}: dataset has no samples")
    if len(set(raw)) > 1:
        raise StorageError(f"{root}: manifest mixes raw (is_complex 1) and "
                           "preprocessed (is_complex 0) samples")


def save_dataset(dataset: Dataset, root: Path | str) -> None:
    """Write `dataset` as a dataset root (write_dataset), which names its
    samples in dataset order.  A dataset that read_manifest would reject,
    with no samples or with raw samples beside preprocessed ones, raises
    before anything is written."""
    samples = dataset.samples
    _check_whole(root, [isinstance(s, CsiSample) for s in samples])
    write_dataset(root, [s.label.class_name for s in samples], samples.__getitem__, dataset.seed)


def read_manifest(root: Path | str) -> list[dict]:
    """The manifest rows of a dataset root, in canonical sample order.  A row
    with fewer or more cells than the header, an unknown class, a non-integer
    shape or seed or a path out of the root raises StorageError naming its
    line; a byte that is not UTF-8 or a CSV syntax error, naming the file; no
    rows, or raw (is_complex 1) rows beside others, naming the root."""
    manifest = Path(root) / MANIFEST_NAME
    if not manifest.exists():
        raise StorageError(f"manifest.csv not found in {root}")
    try:
        with open(manifest, newline="") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None or set(MANIFEST_FIELDS) - set(reader.fieldnames):
                raise StorageError(f"{manifest}: missing manifest columns")
            rows = []
            for row in reader:
                try:
                    if None in row or None in row.values():
                        raise ValueError(f"{'more' if None in row else 'fewer'} cells "
                                         f"than the header's {len(reader.fieldnames)}")
                    class_from_name(row["class_name"])
                    for field in ("n_packets", "n_subcarriers"):
                        if not str(row[field]).isdecimal():
                            raise ValueError(f"{field} {row[field]!r} is not an integer")
                    if row["seed"] and not row["seed"].removeprefix("-").isdecimal():
                        raise ValueError(f"seed {row['seed']!r} is not an integer")
                    if Path(rel := row["relative_path"]).is_absolute() or ".." in Path(rel).parts:
                        raise ValueError(f"relative_path {rel!r} leaves the dataset root")
                except ValueError as exc:
                    raise StorageError(f"{manifest}:{reader.line_num}: {exc}") from None
                rows.append(row)
    except (UnicodeDecodeError, csv.Error) as exc:
        raise StorageError(f"{manifest}: {exc}") from None
    _check_whole(root, [r["is_complex"] == "1" for r in rows])
    # Canonical order regardless of manifest row order.
    rows.sort(key=lambda r: (int(class_from_name(r["class_name"])), r["sample_id"]))
    return rows


def read_sample(root: Path, row: dict) -> Sample:
    """The sample a manifest row of the dataset at `root` describes."""
    path = root / row["relative_path"]
    if not path.exists():
        raise StorageError(f"missing sample file: {path}")
    n_packets = int(row["n_packets"])
    n_sub = int(row["n_subcarriers"])
    label = class_from_name(row["class_name"])
    lineage = tuple(s for s in row["lineage"].split("|") if s)
    if row["is_complex"] == "1":
        frames = _read_rows(path, 2 * n_sub, n_packets).view(np.complex128)
        return CsiSample(frames, label, lineage)
    return FeatureTensor(_read_rows(path, n_sub, n_packets), label, lineage)


def load_dataset_seed(rows: list[dict]) -> int | None:
    """The dataset seed recorded in manifest rows, if they agree on one."""
    seeds = {r["seed"] for r in rows if r["seed"]}
    return int(next(iter(seeds))) if len(seeds) == 1 else None


def read_dataset(root: Path | str, rows: list[dict], transform=None) -> Dataset:
    """The dataset of manifest `rows` (from read_manifest), read one sample
    per job on the sample pool (evaluate.ordered_map); `transform`, if
    given, runs on each sample in the job's worker."""
    root = Path(root)

    def job(row):
        sample = read_sample(root, row)
        return sample if transform is None else transform(sample)

    return Dataset.from_samples(ordered_map(job, rows), seed=load_dataset_seed(rows))


def load_dataset(root: Path | str) -> Dataset:
    return read_dataset(root, read_manifest(root))


# ---------------------------------------------------------------------------
# Model files

def save_model(model: models.TrainedModel, path: Path | str) -> None:
    head = {
        "format_version": MODEL_FORMAT_VERSION,
        "history": [dataclasses.asdict(h) for h in model.history],
        "input": {"mean": model.input_mean.tolist(), "scale": model.input_scale.tolist()},
        "spec": dataclasses.asdict(model.spec),
    }
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    # The bytes of json.dumps(doc, sort_keys=True, separators=(",", ":")) + "\n",
    # encoded in C one head value or weight block at a time; "weights" sorts last.
    encode = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
    with _replace_on_success(path) as fh:
        fh.write("{" + ",".join(f"{encode(k)}:{encode(v)}" for k, v in sorted(head.items())))
        fh.write(',"weights":{')
        for n, (name, arr) in enumerate(sorted(model.weights.items())):
            block = {"shape": list(arr.shape), "data": arr.ravel().tolist()}
            fh.write(f"{',' if n else ''}{encode(name)}:{encode(block)}")
        fh.write("}}\n")


def load_model(path: Path | str) -> models.TrainedModel:
    path = Path(path)
    try:
        with open(path) as fh:
            doc = json.load(fh)
    except (json.JSONDecodeError, UnicodeDecodeError, RecursionError) as exc:
        raise StorageError(f"{path}: truncated or malformed model file ({exc})") from None
    if not isinstance(doc, dict):
        raise StorageError(f"{path}: model file holds a JSON {type(doc).__name__}, "
                           "not an object")
    version = doc.get("format_version")
    if type(version) is not int or version != MODEL_FORMAT_VERSION:
        raise StorageError(
            f"{path}: unsupported format_version {version!r} "
            f"(this build reads {MODEL_FORMAT_VERSION})")
    try:
        spec_doc = dict(doc["spec"])
        spec_doc["conv_filters"] = tuple(spec_doc.get("conv_filters", ()))
        spec = models.ModelSpec(**spec_doc)
        blocks = doc["weights"]
        # Judged by their shapes and values before build allocates arrays of the spec's sizes.
        shapes = models.check_weight_shapes(
            spec, {name: tuple(block["shape"]) for name, block in blocks.items()})
        data = {name: np.array(blocks[name]["data"], dtype=np.float64) for name in shapes}
        for name, shape in shapes.items():
            if data[name].size != math.prod(shape):
                raise models.ModelError(f"weight block {name!r} has {data[name].size} values, "
                                        f"shape {shape} needs {math.prod(shape)}")
            if not np.isfinite(data[name]).all():
                raise models.ModelError(f"weight block {name!r} holds non-finite values")
        net = models.build(spec)
        for name, param in net.params().items():
            param[...] = data[name].reshape(param.shape)
        history = [models.EpochStats(**h) for h in doc.get("history", [])]
        return models.TrainedModel(spec, net, doc["input"]["mean"], doc["input"]["scale"], history)
    except KeyError as exc:
        raise StorageError(f"{path}: malformed model file (missing key {exc})") from None
    except (TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise StorageError(f"{path}: malformed model file ({exc})") from None


# ---------------------------------------------------------------------------
# Experiment config record (key = value text file)

def _value_to_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def save_experiment_config(path: Path | str, generator=None, model=None, split=None,
                           stages=None) -> None:
    """Record a run's settings as "<section>.<field> = <value>" lines, one
    per field of each section given: generator (GeneratorConfig), model
    (ModelSpec), split (SplitSpec), pipeline (pipeline.stages, see
    dsp.stages_to_text).
    """
    lines = ["# harlab experiment configuration"]
    for section, obj in (("generator", generator), ("model", model), ("split", split)):
        if obj is None:
            continue
        for f in dataclasses.fields(obj):
            lines.append(f"{section}.{f.name} = {_value_to_text(getattr(obj, f.name))}")
    if stages is not None:
        lines.append(f"pipeline.stages = {dsp.stages_to_text(stages)}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with _replace_on_success(path) as fh:
        fh.write("\n".join(lines) + "\n")


# ---------------------------------------------------------------------------
# Report CSVs

def _write_table(path: Path | str, header, rows) -> None:
    """A CSV of `header` then `rows`, replacing `path` atomically and durably."""
    with _replace_on_success(Path(path)) as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)


def write_metrics_csv(report: MetricsReport, path: Path | str) -> None:
    fields = ["accuracy", "macro_precision", "macro_recall", "macro_f1", "mean_loss"]
    _write_table(path, fields, [[fmt(getattr(report, f)) for f in fields]])


def read_metrics_csv(path: Path | str) -> dict[str, float]:
    """The metrics row of a write_metrics_csv file, column name -> value."""
    try:
        with open(path, newline="") as fh:
            row = next(csv.DictReader(fh), None)
        if row is None:
            raise ValueError("no metrics row")
        return {key: float(value) for key, value in row.items()}
    except (TypeError, ValueError, csv.Error) as exc:
        raise StorageError(f"{path}: malformed metrics file ({exc})") from None


def write_confusion_csv(matrix: np.ndarray, path: Path | str) -> None:
    """One row per true class.  Cells keep the matrix's type: an integer
    matrix writes integers, a float matrix shortest round-trip decimals."""
    _write_table(path, ["true_class"] + [c.class_name for c in ActivityClass],
                 ([cls.class_name] + [str(v) for v in row]
                  for cls, row in zip(ActivityClass, np.asarray(matrix).tolist())))


def write_history_csv(history, path: Path | str) -> None:
    _write_table(path, ["epoch", "train_loss", "train_acc", "val_loss", "val_acc"],
                 ([str(i), fmt(h.train_loss), fmt(h.train_acc), fmt(h.val_loss),
                   fmt(h.val_acc)] for i, h in enumerate(history, start=1)))


def write_grid_csv(cells: list[GridCell], path: Path | str) -> None:
    """Long-format grid table; failed cells leave accuracy/loss empty."""
    _write_table(path, ["model", "epochs", "lr", "accuracy", "mean_loss"],
                 ([c.kind, str(c.epochs), fmt(c.lr),
                   "" if c.accuracy is None else fmt(c.accuracy),
                   "" if c.mean_loss is None else fmt(c.mean_loss)] for c in cells))


def read_grid_csv(path: Path | str) -> list[GridCell]:
    """The cells of a write_grid_csv file; a row fills both of accuracy and
    mean_loss, or neither for a failed cell."""
    cells = []
    try:
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                if bool(row["accuracy"]) != bool(row["mean_loss"]):
                    raise ValueError("a row fills only one of accuracy and mean_loss")
                cells.append(GridCell(
                    kind=row["model"], epochs=int(row["epochs"]), lr=float(row["lr"]),
                    accuracy=float(row["accuracy"]) if row["accuracy"] else None,
                    mean_loss=float(row["mean_loss"]) if row["mean_loss"] else None,
                    error="marked failed" if not row["accuracy"] else None))
        if not cells:
            raise ValueError("no grid rows")
    except (KeyError, TypeError, ValueError, csv.Error) as exc:  # KeyError: a missing column
        raise StorageError(f"{path}: malformed grid file ({type(exc).__name__}: {exc})") from None
    return cells
