"""File formats: dataset roots with a manifest, flat label+amplitude CSV
export, model files, experiment configs, and the report CSVs.

All numeric serialization uses Python's shortest round-trip decimal
repr, so loading never loses precision.
"""
from __future__ import annotations

import collections
import contextlib
import csv
import dataclasses
import itertools
import json
import os
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from . import dsp, models
from .core import (ActivityClass, CsiSample, Dataset, FeatureTensor, Sample,
                   class_from_name)
from .evaluate import GridCell, MetricsReport, SplitSpec, ordered_map
from .synth import GeneratorConfig

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
def _replace_on_success(path: Path, newline: str | None = None, durable: bool = True):
    """Open a temp file beside `path` for writing; it replaces `path` only
    once the block finishes, so a process crash never leaves a half-written
    file.  `durable` also syncs the data and the rename to disk first, so
    that a power loss does not either."""
    tmp = path.with_name(f".{path.name}.{os.getpid()}.tmp")
    try:
        with open(tmp, "w", newline=newline) as fh:
            yield fh
            if durable:
                fh.flush()
                os.fsync(fh.fileno())
        os.replace(tmp, path)
    finally:
        tmp.unlink(missing_ok=True)
    if durable:
        _sync_dir(path.parent)  # make the rename itself durable


def _sync_dir(path: Path) -> None:
    dir_fd = os.open(path, os.O_RDONLY)
    try:
        os.fsync(dir_fd)
    finally:
        os.close(dir_fd)


# ---------------------------------------------------------------------------
# Sample-file codec: one float64 matrix per CSV file, no header, comma
# separated, CRLF line ends, every value as its shortest round-trip repr.

def _write_rows(fh, rows: np.ndarray, prefix: str = "") -> None:
    """Write `rows` to a file opened with newline=""; `prefix` starts every
    line (export_flat's label column).  Rows convert to Python floats one
    at a time: the whole matrix at once would hold ~7 MB of float objects
    per raw sample."""
    fh.writelines(prefix + ",".join(map(repr, row.tolist())) + "\r\n" for row in rows)


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


def _read_rows(path: Path, n_cols: int | None = None,
               n_rows: int | None = None) -> np.ndarray:
    """Parse a sample file into a float64 matrix, bit-exact.  `n_cols` and
    `n_rows` are the expected shape (None: any).  CRLF and LF both load."""
    try:
        with open(path) as fh:
            mat = np.loadtxt(_no_blank_lines(fh), delimiter=",", dtype=np.float64,
                             ndmin=2, comments=None)
    except ValueError:
        mat = None
    if (mat is None or (n_cols is not None and mat.shape[1] != n_cols)
            or (n_rows is not None and mat.shape[0] != n_rows)):
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


def _raise_first_defect(path: Path, n_cols: int | None, n_rows: int | None):
    """Walk a file _read_rows rejected and raise StorageError naming the
    first bad line: its column count (a blank line has 0 columns), a
    malformed number, then the row count.  Numbers are judged by the same
    np.loadtxt parser as the success path.  A byte that is not UTF-8 reads
    as U+FFFD, so it too is a malformed number."""
    with open(path, errors="replace") as fh:
        if n_cols is None:  # flat files: the width of the first non-blank line
            n_cols = next((line.count(",") + 1 for line in fh if line != "\n"), 0)
            fh.seek(0)
        line_no = 0
        for line_no, line in enumerate(fh, start=1):
            cells = line.rstrip("\n").split(",") if line != "\n" else []
            if len(cells) != n_cols:
                raise StorageError(
                    f"{path}:{line_no}: expected {n_cols} columns, got {len(cells)}")
            if not _parses(line):
                bad = next((text for text in cells if not _parses(text)), line)
                raise StorageError(f"{path}:{line_no}: malformed number {bad!r}")
    if n_rows is not None and line_no != n_rows:
        raise StorageError(f"{path}:{min(line_no, n_rows) + 1}: manifest says "
                           f"{n_rows} rows, file has {line_no}")
    raise StorageError(f"{path}: not a matrix of numbers")


def write_sample(root: Path, sample: Sample, sample_id: str) -> dict:
    """Write one sample file under `root` and return its manifest row (all
    but the dataset seed, which DatasetWriter.record fills in).  The file
    gets its name only once it is whole; it is not synced to disk."""
    rel = Path("samples") / sample.label.class_name / f"{sample_id}.csv"
    path = root / rel
    path.parent.mkdir(parents=True, exist_ok=True)
    is_complex = isinstance(sample, CsiSample)
    # A complex sample as interleaved real/imaginary columns: complex128's own layout.
    rows = np.ascontiguousarray(sample.frames).view(np.float64) if is_complex else sample.values
    with _replace_on_success(path, newline="", durable=False) as fh:
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
    """Holds a dataset root's `.lock`, which names the writer's pid, while
    its sample files are written, then writes manifest.csv from the rows
    `record`ed, in that order.  It removes an old manifest.csv durably first,
    so a rewrite that fails or is killed leaves a root that no reader loads.

    As a context manager it closes on a clean exit and aborts, writing no
    manifest, when the block raises.
    """

    def __init__(self, root: Path | str, seed: int | None = None):
        self.root = Path(root)
        self.seed = seed
        self.root.mkdir(parents=True, exist_ok=True)
        self._lock = self.root / ".lock"
        try:
            fd = os.open(self._lock, os.O_CREAT | os.O_EXCL | os.O_WRONLY)
        except FileExistsError:
            try:
                owner = self._lock.read_text().strip() or "unknown"
            except OSError:
                owner = "unknown"
            raise StorageError(
                f"dataset root is locked by another writer (pid {owner}): {self._lock}; "
                "if that process is gone, delete the lock file") from None
        with os.fdopen(fd, "w") as fh:
            fh.write(f"{os.getpid()}\n")
        self._rows: list[dict] = []
        manifest = self.root / MANIFEST_NAME
        if manifest.exists():  # a fresh root has none, and no entry to sync
            manifest.unlink()
            _sync_dir(self.root)

    def record(self, row: dict) -> None:
        self._rows.append({**row, "seed": "" if self.seed is None else str(self.seed)})

    def __enter__(self) -> "DatasetWriter":
        return self

    def __exit__(self, exc_type, exc, tb) -> None:
        if exc_type is None:
            self.close()
        else:
            self._lock.unlink(missing_ok=True)

    def close(self) -> None:
        try:
            with _replace_on_success(self.root / MANIFEST_NAME, newline="") as fh:
                writer = csv.DictWriter(fh, fieldnames=MANIFEST_FIELDS)
                writer.writeheader()
                writer.writerows(self._rows)
        finally:
            self._lock.unlink(missing_ok=True)


def arrival_ids(class_names) -> list[str]:
    """Ids for samples that carry none of their own (FeatureTensors):
    `<class>-NNNN`, numbered within each class in arrival order."""
    counters = collections.defaultdict(itertools.count)
    return [f"{name}-{next(counters[name]):04d}" for name in class_names]


def write_dataset(root: Path | str, items, make, seed: int | None = None) -> None:
    """Write a dataset root, one sample per job on the sample pool
    (evaluate.ordered_map): `make(item)` returns a (sample, sample_id) and
    the job writes that sample's file in its worker.  This process holds
    the root's lock, records the manifest rows in item order and writes
    manifest.csv only after every sample file is whole."""
    root = Path(root)
    with DatasetWriter(root, seed) as writer:
        for row in ordered_map(lambda item: write_sample(root, *make(item)), items):
            writer.record(row)


def save_dataset(dataset: Dataset, root: Path | str) -> None:
    """Write manifest.csv plus one CSV per sample under samples/<class>/."""
    samples = dataset.samples
    new_ids = iter(arrival_ids(s.label.class_name for s in samples
                               if not isinstance(s, CsiSample)))
    ids = [s.sample_id if isinstance(s, CsiSample) else next(new_ids) for s in samples]
    write_dataset(root, range(len(samples)), lambda i: (samples[i], ids[i]), dataset.seed)


def read_manifest(root: Path | str) -> list[dict]:
    """The manifest rows of a dataset root, in canonical sample order.  A
    row with fewer or more cells than the header, an unknown class or a
    non-integer sample shape raises StorageError naming its line."""
    manifest = Path(root) / MANIFEST_NAME
    if not manifest.exists():
        raise StorageError(f"manifest.csv not found in {root}")
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
            except ValueError as exc:
                raise StorageError(f"{manifest}:{reader.line_num}: {exc}") from None
            rows.append(row)
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
        return CsiSample(frames, label, row["sample_id"], lineage)
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
# Flat label-first CSV

def export_flat(dataset: Dataset, path: Path | str) -> None:
    """One CSV: label code in column 0, then the feature columns, one row
    per timestep, samples in class-major order."""
    tensors = list(dataset.samples)
    if not tensors:
        raise StorageError("cannot export an empty dataset")
    shape = None
    for t in tensors:
        if not isinstance(t, FeatureTensor):
            raise StorageError("flat export needs amplitude-typed samples")
        if shape is None:
            shape = t.values.shape
        elif t.values.shape != shape:
            raise StorageError(f"inconsistent sample shapes {t.values.shape} vs {shape}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    with open(path, "w", newline="") as fh:
        for t in tensors:
            _write_rows(fh, t.values, prefix=f"{int(t.label)},")


def load_flat(path: Path | str, n_packets: int) -> list[FeatureTensor]:
    """Read a flat export back into per-sample tensors."""
    path = Path(path)
    mat = _read_rows(path)
    if len(mat) % n_packets:
        raise StorageError(
            f"{path}: row count {len(mat)} is not a multiple of n_packets={n_packets}")
    tensors = []
    for start in range(0, len(mat), n_packets):
        block = mat[start:start + n_packets]
        code = block[0, 0]
        if (block[:, 0] != code).any():
            raise StorageError(f"{path}: label changes inside sample block at row {start + 1}")
        if not code.is_integer():
            raise StorageError(f"{path}:{start + 1}: label {code} is not a class code")
        tensors.append(FeatureTensor(block[:, 1:], int(code), ("flat_import",)))
    return tensors


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
    except (json.JSONDecodeError, RecursionError) as exc:
        raise StorageError(f"{path}: truncated or malformed model file ({exc})") from None
    if not isinstance(doc, dict):
        raise StorageError(f"{path}: model file holds a JSON {type(doc).__name__}, "
                           "not an object")
    version = doc.get("format_version")
    if version != MODEL_FORMAT_VERSION:
        raise StorageError(
            f"{path}: unsupported format_version {version!r} "
            f"(this build reads {MODEL_FORMAT_VERSION})")
    try:
        spec_doc = dict(doc["spec"])
        spec_doc["conv_filters"] = tuple(spec_doc.get("conv_filters", ()))
        spec = models.ModelSpec(**spec_doc)
        net = models.build(spec)
        weights = {}
        for name, block in doc["weights"].items():
            shape = tuple(block["shape"])
            data = np.array(block["data"], dtype=np.float64)
            if data.size != int(np.prod(shape)):
                raise models.ModelError(
                    f"weight block {name!r} has {data.size} values, "
                    f"shape {shape} needs {int(np.prod(shape))}")
            if not np.isfinite(data).all():
                raise models.ModelError(f"weight block {name!r} holds non-finite values")
            weights[name] = data.reshape(shape)
        net.set_weights(weights)
        history = [models.EpochStats(**h) for h in doc.get("history", [])]
        mean = np.array(doc["input"]["mean"], dtype=np.float64)
        scale = np.array(doc["input"]["scale"], dtype=np.float64)
        if not (np.isfinite(mean).all() and np.isfinite(scale).all() and (scale > 0).all()):
            raise models.ModelError("input mean must be finite and input scale positive")
        return models.TrainedModel(spec, net, mean, scale, history)
    except KeyError as exc:
        raise StorageError(f"{path}: malformed model file (missing key {exc})") from None
    except (TypeError, AttributeError, ValueError, OverflowError) as exc:
        raise StorageError(f"{path}: malformed model file ({exc})") from None


# ---------------------------------------------------------------------------
# Experiment config (key = value text file)

@dataclass
class ExperimentConfig:
    generator: GeneratorConfig | None = None
    model: models.ModelSpec | None = None
    split: SplitSpec | None = None
    stages: list | None = None


def _value_to_text(value) -> str:
    if isinstance(value, bool):
        return "true" if value else "false"
    if isinstance(value, float):
        return fmt(value)
    if isinstance(value, tuple):
        return ",".join(str(v) for v in value)
    return str(value)


def save_experiment_config(path: Path | str, config: ExperimentConfig) -> None:
    """Write every configured field as a "<section>.<field> = <value>" line.

    Sections: generator (GeneratorConfig), model (ModelSpec), split
    (SplitSpec), pipeline (pipeline.stages, see dsp.parse_stages).
    """
    lines = ["# harlab experiment configuration"]
    for section, obj in (("generator", config.generator), ("model", config.model),
                         ("split", config.split)):
        if obj is None:
            continue
        for f in dataclasses.fields(obj):
            lines.append(f"{section}.{f.name} = {_value_to_text(getattr(obj, f.name))}")
    if config.stages is not None:
        lines.append(f"pipeline.stages = {dsp.stages_to_text(config.stages)}")
    path = Path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text("\n".join(lines) + "\n")


def _coerce(field: dataclasses.Field, text: str):
    if field.type in ("int", int):
        return int(text)
    if field.type in ("float", float):
        return float(text)
    if field.type in ("bool", bool):
        if text not in ("true", "false"):
            raise ValueError("must be true or false")
        return text == "true"
    if "tuple" in str(field.type):
        return tuple(int(v) for v in text.split(",") if v)
    return text


def load_experiment_config(path: Path | str) -> ExperimentConfig:
    path = Path(path)
    sections: dict[str, dict[str, str]] = {}
    for line_no, raw in enumerate(path.read_text().splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, sep, value = line.partition("=")
        if not sep or "." not in key:
            raise StorageError(f"{path}:{line_no}: expected '<section>.<field> = <value>'")
        section, _, field_name = key.strip().partition(".")
        sections.setdefault(section, {})[field_name.strip()] = value.strip()
    config = ExperimentConfig()
    for section, cls in (("generator", GeneratorConfig), ("model", models.ModelSpec),
                         ("split", SplitSpec)):
        if section not in sections:
            continue
        kwargs = {}
        by_name = {f.name: f for f in dataclasses.fields(cls)}
        for name, text in sections[section].items():
            if name not in by_name:
                raise StorageError(f"{path}: unknown key {section}.{name}")
            try:
                kwargs[name] = _coerce(by_name[name], text)
            except ValueError as exc:
                raise StorageError(f"{path}: {section}.{name} = {text!r}: {exc}") from None
        try:
            setattr(config, section, cls(**kwargs))
        except (TypeError, ValueError) as exc:  # a missing field or a value out of range
            raise StorageError(f"{path}: section {section}: {exc}") from None
    if "pipeline" in sections:
        stages_text = sections["pipeline"].get("stages")
        if stages_text is None:
            raise StorageError(f"{path}: pipeline section needs a 'stages' key")
        config.stages = dsp.parse_stages(stages_text)
    return config


# ---------------------------------------------------------------------------
# Report CSVs

def write_metrics_csv(report: MetricsReport, path: Path | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["accuracy", "macro_precision", "macro_recall",
                         "macro_f1", "mean_loss"])
        writer.writerow([fmt(report.accuracy), fmt(report.macro_precision),
                         fmt(report.macro_recall), fmt(report.macro_f1),
                         fmt(report.mean_loss)])


def read_metrics_csv(path: Path | str) -> dict[str, float]:
    """The metrics row of a write_metrics_csv file, column name -> value."""
    try:
        with open(path, newline="") as fh:
            row = next(csv.DictReader(fh), None)
        if row is None:
            raise ValueError("no metrics row")
        return {key: float(value) for key, value in row.items()}
    except (TypeError, ValueError) as exc:
        raise StorageError(f"{path}: malformed metrics file ({exc})") from None


def write_confusion_csv(matrix: np.ndarray, path: Path | str, normalized: bool) -> None:
    names = [c.class_name for c in ActivityClass]
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["true_class"] + names)
        for cls, row in zip(ActivityClass, matrix):
            values = [fmt(v) if normalized else str(int(v)) for v in row]
            writer.writerow([cls.class_name] + values)


def write_history_csv(history, path: Path | str) -> None:
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "train_loss", "train_acc", "val_loss", "val_acc"])
        for i, h in enumerate(history, start=1):
            writer.writerow([str(i), fmt(h.train_loss), fmt(h.train_acc),
                             fmt(h.val_loss), fmt(h.val_acc)])


def write_grid_csv(cells: list[GridCell], path: Path | str) -> None:
    """Long-format grid table; failed cells leave accuracy/loss empty."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["model", "epochs", "lr", "accuracy", "mean_loss"])
        for c in cells:
            writer.writerow([c.kind, str(c.epochs), fmt(c.lr),
                             "" if c.accuracy is None else fmt(c.accuracy),
                             "" if c.mean_loss is None else fmt(c.mean_loss)])


def read_grid_csv(path: Path | str) -> list[GridCell]:
    cells = []
    try:
        with open(path, newline="") as fh:
            for row in csv.DictReader(fh):
                cells.append(GridCell(
                    kind=row["model"], epochs=int(row["epochs"]), lr=float(row["lr"]),
                    accuracy=float(row["accuracy"]) if row["accuracy"] else None,
                    mean_loss=float(row["mean_loss"]) if row["mean_loss"] else None,
                    error="marked failed" if not row["accuracy"] else None))
        if not cells:
            raise ValueError("no grid rows")
    except (KeyError, TypeError, ValueError) as exc:  # KeyError: a missing column
        raise StorageError(f"{path}: malformed grid file ({type(exc).__name__}: {exc})") from None
    return cells
