"""Train/test splitting, classification metrics, the lr-by-epochs
hyperparameter grid experiment, and the ordered process-pool map that
runs grid cells and per-sample jobs.
"""
from __future__ import annotations

import multiprocessing
import os
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
    empty_classes: tuple[int, ...]    # true classes absent from the test set


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
    diag = np.diag(confusion).astype(np.float64)
    row_sums = confusion.sum(axis=1).astype(np.float64)
    col_sums = confusion.sum(axis=0).astype(np.float64)
    with np.errstate(invalid="ignore", divide="ignore"):
        precision = np.where(col_sums > 0, diag / col_sums, 0.0)
        recall = np.where(row_sums > 0, diag / row_sums, 0.0)
        pr = precision + recall
        f1 = np.where(pr > 0, 2.0 * precision * recall / np.where(pr > 0, pr, 1.0), 0.0)
        normalized = np.where(row_sums[:, None] > 0,
                              confusion / np.where(row_sums[:, None] > 0, row_sums[:, None], 1.0),
                              0.0)
    return MetricsReport(
        accuracy=float(diag.sum() / true_arr.size),
        macro_precision=float(precision.mean()),
        macro_recall=float(recall.mean()),
        macro_f1=float(f1.mean()),
        mean_loss=float(loss_arr.mean()),
        confusion=confusion,
        confusion_normalized=normalized,
        empty_classes=tuple(int(c) for c in np.flatnonzero(row_sums == 0)),
    )


def evaluate_model(model: models.TrainedModel, tensors) -> MetricsReport:
    """Predict a sample list and compute its metrics report."""
    x, y = models.stack_features(tensors)
    probs = model.predict_probs(x)
    return compute_metrics(y, probs.argmax(axis=1), nn.sample_losses(probs, y))


# ---------------------------------------------------------------------------
# Ordered process-pool map

# The function ordered_map's workers run, set before they fork so that they
# inherit it: a job may then close over large or unpicklable data.
_JOB = None


def _run_job(item):
    return _JOB(item)


def ordered_map(fn, items, workers: int | None = None) -> list:
    """`[fn(x) for x in items]` in forked worker processes (forked: they
    inherit the loaded modules and `fn` itself, so only the items and
    results are pickled), results in input order.  `workers` defaults to
    the cores in this process's affinity set, which `taskset` narrows, and
    is capped at the item count; one worker runs the jobs in this process.
    The first job that raises cancels the pending ones and its exception
    is raised here; a worker that dies raises BrokenProcessPool."""
    global _JOB
    items = list(items)
    if workers is None:
        workers = len(os.sched_getaffinity(0))
    workers = min(workers, len(items))
    if workers <= 1:
        return [fn(x) for x in items]
    _JOB = fn
    pool = ProcessPoolExecutor(workers, mp_context=multiprocessing.get_context("fork"))
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


def run_grid(dataset: Dataset, kinds=models.KINDS, lrs=GRID_LRS,
             epochs_grid=GRID_EPOCHS, seed: int = 42, workers: int | None = 1,
             hidden_size: int = 50) -> list[GridCell]:
    """Train every (kind, lr, epochs) cell on one shared stratified split.

    Cells are independent and seeded, so results do not depend on the
    worker count (None: one per core, see ordered_map); failed cells are
    marked and the run continues.
    """
    train_ds, test_ds = split(dataset, SplitSpec(seed=seed))
    timesteps, n_features = train_ds.samples[0].values.shape

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

    cells = [(kind, ep, lr) for kind in kinds for ep in epochs_grid for lr in lrs]
    return ordered_map(run_cell, cells, workers)
