import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from harlab import evaluate, models, nn
from harlab.core import ActivityClass, Dataset, FeatureTensor
from harlab.rng import make_rng


def balanced_dataset(per_class=10, T=6, F=4, rng=None):
    rng = rng or make_rng(0, "eval-data")
    tensors = []
    for cls in ActivityClass:
        for _ in range(per_class):
            values = rng.standard_normal((T, F)) + int(cls)
            tensors.append(FeatureTensor(values, int(cls), ("amplitude", "toy")))
    return Dataset.from_samples(tensors, seed=1)


# ---------------------------------------------------------------------------
# split

def test_split_700_into_560_140():
    ds = balanced_dataset(per_class=100, T=2, F=2)
    train, test = evaluate.split(ds, evaluate.SplitSpec(train_fraction=0.80, seed=42))
    assert len(train) == 560
    assert len(test) == 140
    assert all(n == 80 for n in train.class_counts.values())
    assert all(n == 20 for n in test.class_counts.values())


def test_split_deterministic():
    ds = balanced_dataset()
    a = evaluate.split(ds, evaluate.SplitSpec(seed=7))
    b = evaluate.split(ds, evaluate.SplitSpec(seed=7))
    assert list(a[0].samples) == list(b[0].samples)
    assert list(a[1].samples) == list(b[1].samples)
    c = evaluate.split(ds, evaluate.SplitSpec(seed=8))
    assert list(a[0].samples) != list(c[0].samples)


def test_split_partition_property():
    ds = balanced_dataset(per_class=7)
    train, test = evaluate.split(ds, evaluate.SplitSpec(seed=3))
    train_ids = {id(s) for s in train.samples}
    test_ids = {id(s) for s in test.samples}
    assert not train_ids & test_ids
    assert len(train_ids | test_ids) == len(ds)


def test_split_ratio_within_one_sample():
    ds = balanced_dataset(per_class=9)
    train, _ = evaluate.split(ds, evaluate.SplitSpec(train_fraction=0.8, seed=1))
    for cls, n in train.class_counts.items():
        assert abs(n - 0.8 * 9) <= 1


def test_split_rejects_singleton_class():
    tensors = [FeatureTensor(np.zeros((2, 2)), int(c), ("amplitude", "toy"))
               for c in ActivityClass] * 2
    tensors = tensors[:-1]  # walk_backward has a single sample
    ds = Dataset.from_samples(tensors)
    with pytest.raises(evaluate.EvalError):
        evaluate.split(ds, evaluate.SplitSpec(seed=1))


def test_split_rejects_bad_fraction():
    with pytest.raises(evaluate.EvalError):
        evaluate.SplitSpec(train_fraction=1.0)


def reference_split_positions(labels, spec):
    """The sample-based split that split_indices replaced, as positions."""
    rng = make_rng(spec.seed, "split")
    if spec.stratified:
        train_idx, test_idx = [], []
        for cls in ActivityClass:
            members = [i for i, label in enumerate(labels) if label is cls]
            if len(members) < 2:
                raise evaluate.EvalError(f"class {cls.class_name}")
            perm = rng.permutation(len(members))
            n_train = min(max(int(round(spec.train_fraction * len(members))), 1),
                          len(members) - 1)
            train_idx.extend(members[i] for i in perm[:n_train])
            test_idx.extend(members[i] for i in perm[n_train:])
    else:
        if len(labels) < 2:
            raise evaluate.EvalError("need at least 2 samples to split")
        perm = rng.permutation(len(labels))
        n_train = min(max(int(round(spec.train_fraction * len(labels))), 1), len(labels) - 1)
        train_idx, test_idx = list(perm[:n_train]), list(perm[n_train:])
    return sorted(train_idx), sorted(test_idx)


@settings(max_examples=150, deadline=None)
@given(counts=st.lists(st.integers(0, 7), min_size=len(ActivityClass),
                       max_size=len(ActivityClass)),
       order_seed=st.integers(0, 2**16), seed=st.integers(0, 2**32 - 1),
       stratified=st.booleans(), fraction=st.sampled_from([0.8, 0.5, 0.25]))
def test_split_indices_on_labels_is_split_on_datasets(counts, order_seed, seed, stratified,
                                                      fraction):
    labels = [cls for cls, n in zip(ActivityClass, counts) for _ in range(n)]
    labels = [labels[i] for i in make_rng(order_seed, "order").permutation(len(labels))]
    ds = Dataset.from_samples([FeatureTensor(np.full((1, 1), float(i)), int(label),
                                             ("amplitude",))
                               for i, label in enumerate(labels)], seed=3)
    spec = evaluate.SplitSpec(train_fraction=fraction, seed=seed, stratified=stratified)
    try:
        expected = reference_split_positions(labels, spec)
    except evaluate.EvalError as exc:
        for run in (lambda: evaluate.split_indices(labels, spec),
                    lambda: evaluate.split(ds, spec)):
            with pytest.raises(evaluate.EvalError, match=str(exc)):
                run()
        return
    positions = evaluate.split_indices(labels, spec)
    assert positions == expected
    assert [s.label for s in ds.samples] == labels
    for part, idx in zip(evaluate.split(ds, spec), positions):
        assert [int(s.values[0, 0]) for s in part.samples] == idx
        assert part.seed == 3


# ---------------------------------------------------------------------------
# metrics

def test_metrics_perfect_predictions():
    true = np.arange(7).repeat(3)
    losses = np.zeros(21)
    rep = evaluate.compute_metrics(true, true, losses)
    assert rep.accuracy == 1.0
    assert rep.macro_f1 == 1.0
    assert rep.macro_precision == 1.0
    assert rep.macro_recall == 1.0
    assert np.array_equal(rep.confusion, np.diag([3] * 7))


def test_metrics_degenerate_all_class_zero():
    # balanced 7-class set, everything predicted as class 0
    true = np.arange(7).repeat(4)
    pred = np.zeros_like(true)
    rep = evaluate.compute_metrics(true, pred, np.ones_like(true, dtype=float))
    assert rep.accuracy == 1.0 / 7.0
    assert rep.macro_recall == 1.0 / 7.0
    # class-0 precision is 1/7; every other class has no predictions (0/0 -> 0)
    assert rep.confusion[0, 0] == 4
    assert rep.macro_precision == (1.0 / 7.0) / 7.0
    assert rep.mean_loss == 1.0


def test_metrics_pure_function():
    rng = make_rng(1, "metrics-pure")
    true = rng.integers(0, 7, 50)
    pred = rng.integers(0, 7, 50)
    losses = rng.random(50)
    a = evaluate.compute_metrics(true, pred, losses)
    b = evaluate.compute_metrics(true, pred, losses)
    assert a.accuracy == b.accuracy
    assert np.array_equal(a.confusion, b.confusion)


def test_metrics_trace_identity_on_random_instances():
    rng = make_rng(2, "metrics-trace")
    for _ in range(1000):
        n = int(rng.integers(1, 40))
        true = rng.integers(0, 7, n)
        pred = rng.integers(0, 7, n)
        rep = evaluate.compute_metrics(true, pred, np.zeros(n))
        assert rep.accuracy == np.trace(rep.confusion) / rep.confusion.sum()


def test_metrics_normalized_rows_sum_to_one_or_zero():
    rng = make_rng(3, "metrics-norm")
    true = rng.integers(0, 3, 30)  # classes 3..6 absent
    pred = rng.integers(0, 7, 30)
    rep = evaluate.compute_metrics(true, pred, np.zeros(30))
    sums = rep.confusion_normalized.sum(axis=1)
    for cls in range(7):
        if cls in rep.empty_classes:
            assert sums[cls] == 0.0
        else:
            assert abs(sums[cls] - 1.0) < 1e-9
    assert set(rep.empty_classes) == {3, 4, 5, 6} - set()


def test_metrics_relabeling_permutation_invariance():
    rng = make_rng(4, "metrics-perm")
    true = rng.integers(0, 7, 60)
    pred = rng.integers(0, 7, 60)
    base = evaluate.compute_metrics(true, pred, np.zeros(60))
    perm = rng.permutation(7)
    rep = evaluate.compute_metrics(perm[true], perm[pred], np.zeros(60))
    assert abs(rep.macro_precision - base.macro_precision) < 1e-12
    assert abs(rep.macro_recall - base.macro_recall) < 1e-12
    assert abs(rep.macro_f1 - base.macro_f1) < 1e-12
    assert rep.accuracy == base.accuracy


def test_metrics_length_mismatch():
    with pytest.raises(evaluate.EvalError):
        evaluate.compute_metrics([0, 1], [0], [0.0, 0.0])


# ---------------------------------------------------------------------------
# grid

def _tiny_grid_dataset():
    rng = make_rng(5, "grid-data")
    tensors = []
    for cls in ActivityClass:
        for _ in range(5):
            values = rng.standard_normal((9, 4)) * 0.1 + int(cls)
            tensors.append(FeatureTensor(values, int(cls), ("amplitude", "toy")))
    return Dataset.from_samples(tensors, seed=0)


def test_grid_cardinality_and_schema():
    ds = _tiny_grid_dataset()
    cells = evaluate.run_grid(ds, kinds=("lstm",), lrs=(0.01, 0.1),
                              epochs_grid=(2, 1), seed=0, workers=1, hidden_size=4)
    assert len(cells) == 4
    assert {(c.kind, c.epochs, c.lr) for c in cells} == {
        ("lstm", 2, 0.01), ("lstm", 2, 0.1), ("lstm", 1, 0.01), ("lstm", 1, 0.1)}
    for c in cells:
        assert not c.failed
        assert 0.0 <= c.accuracy <= 1.0
        assert np.isfinite(c.mean_loss)


def test_grid_deterministic_across_runs_and_workers():
    ds = _tiny_grid_dataset()
    kwargs = dict(kinds=("lstm", "cnn"), lrs=(0.01,), epochs_grid=(1,),
                  seed=0, hidden_size=4)
    a = evaluate.run_grid(ds, workers=1, **kwargs)
    b = evaluate.run_grid(ds, workers=2, **kwargs)
    assert a == b


def test_grid_marks_failed_cell_and_continues():
    ds = _tiny_grid_dataset()
    cells = evaluate.run_grid(ds, kinds=("lstm", "bogus"), lrs=(0.01,),
                              epochs_grid=(1,), seed=0, workers=1, hidden_size=4)
    by_kind = {c.kind: c for c in cells}
    assert not by_kind["lstm"].failed
    assert by_kind["bogus"].failed
    assert by_kind["bogus"].accuracy is None
    assert "ModelError" in by_kind["bogus"].error


@pytest.mark.parametrize("kind", models.KINDS)
def test_grid_cell_scores_equal_a_fresh_prediction_on_the_test_split(kind):
    ds = _tiny_grid_dataset()
    cell, = evaluate.run_grid(ds, kinds=(kind,), lrs=(0.1,), epochs_grid=(2,), seed=0,
                              workers=1, hidden_size=4)
    train_ds, test_ds = evaluate.split(ds, evaluate.SplitSpec(seed=0))
    spec = models.ModelSpec(kind=kind, timesteps=9, n_features=4, hidden_size=4, lr0=0.1,
                            epochs=2, seed=0)
    trained = models.train(models.build(spec), train_ds.samples, test_ds.samples)
    x, y = models.stack_features(test_ds.samples)
    probs = trained.predict_probs(x)
    assert not cell.failed
    assert (cell.accuracy, cell.mean_loss) == (nn.accuracy(probs, y), nn.cross_entropy(probs, y))
