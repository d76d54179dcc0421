"""Train/test splitting, classification metrics, the lr-by-epochs
hyperparameter grid experiment, and the ordered process-pool map that
runs grid cells and per-sample jobs.
"""
from __future__ import annotations

import ctypes
import multiprocessing
import os
import signal
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass

import numpy as np

from . import models, nn
from .core import ActivityClass, Dataset, N_CLASSES
from .rng import make_rng

GRID_LRS = (0.01, 0.1)
GRID_EPOCHS = (50, 20)


class EvalError(ValueError):
    """Raised on invalid splits or metric inputs."""


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.80
    seed: int = 42
    stratified: bool = True

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise EvalError(f"train_fraction must be in (0, 1), got {self.train_fraction}")


def _train_count(fraction: float, n: int) -> int:
    # Within +/-1 of fraction*n, and both splits non-empty.
    return min(max(int(round(fraction * n)), 1), n - 1)


def split_indices(labels, spec: SplitSpec) -> tuple[list[int], list[int]]:
    """Sorted train and test positions of a seeded, disjoint, exhaustive
    split of `labels` (a sequence of ActivityClass, one per sample);
    stratified per class by default."""
    rng = make_rng(spec.seed, "split")
    train_idx: list[int] = []
    test_idx: list[int] = []
    if spec.stratified:
        for cls in ActivityClass:
            members = [i for i, label in enumerate(labels) if label == cls]
            if not members:
                raise EvalError(f"class {cls.class_name} has no samples")
            if len(members) < 2:
                raise EvalError(
                    f"class {cls.class_name} has {len(members)} sample(s); "
                    "both splits need at least one")
            perm = rng.permutation(len(members))
            n_train = _train_count(spec.train_fraction, len(members))
            train_idx.extend(members[i] for i in perm[:n_train])
            test_idx.extend(members[i] for i in perm[n_train:])
    else:
        if len(labels) < 2:
            raise EvalError("need at least 2 samples to split")
        perm = rng.permutation(len(labels)).tolist()
        n_train = _train_count(spec.train_fraction, len(labels))
        train_idx, test_idx = perm[:n_train], perm[n_train:]
    return sorted(train_idx), sorted(test_idx)


def split(dataset: Dataset, spec: SplitSpec) -> tuple[Dataset, Dataset]:
    """The train and test datasets of split_indices on `dataset`'s labels."""
    samples = dataset.samples
    train_idx, test_idx = split_indices([s.label for s in samples], spec)
    return (Dataset.from_samples([samples[i] for i in train_idx], seed=dataset.seed),
            Dataset.from_samples([samples[i] for i in test_idx], seed=dataset.seed))


@dataclass(frozen=True)
class MetricsReport:
    accuracy: float
    macro_precision: float
    macro_recall: float
    macro_f1: float
    mean_loss: float
    confusion: np.ndarray             # [C, C] counts, rows = true class
    confusion_normalized: np.ndarray  # rows sum to 1 (all-zero rows stay zero)


def compute_metrics(true_labels, pred_labels, losses) -> MetricsReport:
    """Accuracy, macro precision/recall/F1, mean loss, confusion matrices.

    Per-class precision and recall define 0/0 as 0; macro averages run
    over all classes regardless of support.
    """
    true_arr = np.asarray(true_labels, dtype=np.int64)
    pred_arr = np.asarray(pred_labels, dtype=np.int64)
    loss_arr = np.asarray(losses, dtype=np.float64)
    if not (true_arr.shape == pred_arr.shape == loss_arr.shape) or true_arr.ndim != 1:
        raise EvalError(
            f"length mismatch: true {true_arr.shape}, pred {pred_arr.shape}, "
            f"losses {loss_arr.shape}")
    if true_arr.size < 1:
        raise EvalError("need at least one prediction")
    if np.any((true_arr < 0) | (true_arr >= N_CLASSES)) or \
       np.any((pred_arr < 0) | (pred_arr >= N_CLASSES)):
        raise EvalError(f"labels must lie in 0..{N_CLASSES - 1}")
    confusion = np.zeros((N_CLASSES, N_CLASSES), dtype=np.int64)
    np.add.at(confusion, (true_arr, pred_arr), 1)
    # A zero row or column sum has a zero diagonal entry: dividing it by 1 gives 0/0 := 0.
    diag = np.diag(confusion)
    row_sums = np.maximum(confusion.sum(axis=1), 1)
    precision, recall = diag / np.maximum(confusion.sum(axis=0), 1), diag / row_sums
    pr = precision + recall
    f1 = np.divide(2.0 * precision * recall, pr, out=np.zeros_like(pr), where=pr > 0)
    normalized = confusion / row_sums[:, None]
    return MetricsReport(
        accuracy=float(diag.sum() / true_arr.size),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        mean_loss=float(loss_arr.mean()),
        confusion=confusion,
        confusion_normalized=normalized,
    )


def evaluate_model(model: models.TrainedModel, tensors) -> MetricsReport:
    """Predict a sample list, unstacked, and compute its metrics report.
    A sample of another shape than the model's input or with a non-finite
    value raises ModelError naming the "test" split (models.split_inputs)."""
    xs, y = models.split_inputs(tensors, model.spec, "test")
    probs = model.predict_probs(xs)
    return compute_metrics(y, probs.argmax(axis=1), nn.sample_losses(probs, y))


# ---------------------------------------------------------------------------
# Ordered process-pool map

# The function ordered_map's workers run, set before they fork so that they
# inherit it: a job may then close over large or unpicklable data.
_JOB = None


def _run_job(item):
    return _JOB(item)


def _die_with_parent(parent: int) -> None:
    """Pool initializer: the kernel SIGKILLs this worker once the thread
    that forked it ends, so a killed command leaves no worker behind to
    finish a stale job; a worker whose parent is already gone exits.
    Fork-context workers are all forked in the first `submit`, on the
    thread that calls ordered_map, which waits for them before it returns
    (for the commands, the main thread)."""
    if sys.platform.startswith("linux"):
        prctl = ctypes.CDLL(None).prctl
        prctl.argtypes, prctl.restype = (ctypes.c_int, ctypes.c_ulong), ctypes.c_int
        prctl(1, signal.SIGKILL)  # 1: PR_SET_PDEATHSIG
    if os.getppid() != parent:
        os._exit(1)


def ordered_map(fn, items) -> list:
    """`[fn(x) for x in items]` in forked worker processes (forked: they
    inherit the loaded modules and `fn` itself, so only the items and
    results are pickled), results in input order.  One worker per core in
    this process's affinity set, which `taskset` narrows, capped at the
    item count; one worker runs the jobs in this process.
    The first job that raises cancels the pending ones and its exception
    is raised here; a worker that dies raises BrokenProcessPool."""
    global _JOB
    items = list(items)
    workers = min(len(os.sched_getaffinity(0)), len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    _JOB = fn
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"),
                               initializer=_die_with_parent, initargs=(os.getpid(),))
    try:
        return list(pool.map(_run_job, items))
    finally:
        pool.shutdown(cancel_futures=True)
        _JOB = None


# ---------------------------------------------------------------------------
# Hyperparameter grid

@dataclass(frozen=True)
class GridCell:
    kind: str
    epochs: int
    lr: float
    accuracy: float | None
    mean_loss: float | None
    error: str | None = None

    @property
    def failed(self) -> bool:
        return self.error is not None


def run_grid(dataset: Dataset, seed: int = 42, hidden_size: int = 50) -> list[GridCell]:
    """Train every (kind, epochs, lr) cell of models.KINDS x GRID_EPOCHS x
    GRID_LRS on one shared stratified split.

    Cells are independent and seeded, so results do not depend on the
    core count (one job per cell, see ordered_map); failed cells are
    marked and the run continues.  hidden_size, and the samples against
    the first (models.split_inputs), are checked before any cell starts.
    """
    train_ds, test_ds = split(dataset, SplitSpec(seed=seed))
    timesteps, n_features = train_ds.samples[0].values.shape
    first = models.ModelSpec(kind="lstm", timesteps=timesteps, n_features=n_features,
                             hidden_size=hidden_size)
    for name, ds in (("train", train_ds), ("test", test_ds)):
        models.split_inputs(ds.samples, first, name)

    def run_cell(cell_key: tuple[str, int, float]) -> GridCell:
        kind, epochs, lr = cell_key
        try:
            spec = models.ModelSpec(kind=kind, timesteps=timesteps, n_features=n_features,
                                    hidden_size=hidden_size, lr0=lr, epochs=epochs,
                                    seed=seed)
            # The test split is the validation set, so the last epoch's row scores it.
            last = models.train(models.build(spec), train_ds.samples,
                                test_ds.samples).history[-1]
            return GridCell(kind, epochs, lr, last.val_acc, last.val_loss)
        except Exception as exc:  # keep the grid running; the cell is marked
            return GridCell(kind, epochs, lr, None, None,
                            error=f"{type(exc).__name__}: {exc}")

    cells = [(kind, ep, lr) for kind in models.KINDS for ep in GRID_EPOCHS for lr in GRID_LRS]
    return ordered_map(run_cell, cells)
