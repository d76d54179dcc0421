"""Acceptance suite: one test per release criterion, in order.

Run with `pytest tests/test_acceptance.py -v -s` to see one line per
criterion.  The heavyweight criteria (end-to-end learning, the
hyperparameter grid) run on the deterministic synthetic dataset and are
budgeted for a small desktop machine.
"""
import csv
import json
import math
import os
import time
from collections import Counter

import numpy as np

from harlab import cli, dsp, evaluate, gradcheck, models, storage, synth
from harlab.core import ActivityClass, Dataset
from harlab.rng import make_rng

PASS_LINE = "[acceptance] criterion {n} ({name}): PASS"


def _report(n, name):
    print(PASS_LINE.format(n=n, name=name), flush=True)


# ---------------------------------------------------------------------------
# 1. gradient correctness

def test_criterion_1_gradient_correctness():
    start = time.monotonic()
    results = gradcheck.run_standard_checks()
    elapsed = time.monotonic() - start
    names = {r.name for r in results}
    assert {"dense[none]", "lstm", "conv1d+maxpool+dense+softmax+ce",
            "architecture[lstm]", "architecture[cnn]",
            "architecture[lstm_cnn]"} <= names
    for r in results:
        assert r.max_rel_error < r.tolerance, f"{r.name}: {r.max_rel_error}"
    assert elapsed < 60.0, f"gradient checks took {elapsed:.1f}s"
    _report(1, "gradient correctness")


# ---------------------------------------------------------------------------
# 2. Butterworth oracle

def test_criterion_2_butterworth_oracle():
    # hand bilinear transform of H(s) = wa/(s + wa), wa = tan(pi*0.05/2)
    wa = math.tan(math.pi * 0.05 / 2.0)
    b_hand = np.array([wa / (1 + wa)] * 2)
    a_hand = np.array([1.0, (wa - 1) / (1 + wa)])
    coeffs = dsp.butter_design(1, 0.05)
    np.testing.assert_allclose(coeffs.b, b_hand, atol=1e-12)
    np.testing.assert_allclose(coeffs.a, a_hand, atol=1e-12)
    np.testing.assert_allclose(coeffs.b, [0.0729597, 0.0729597], atol=1e-6)
    np.testing.assert_allclose(coeffs.a, [1.0, -0.8540810], atol=1e-6)
    for order in (1, 2):
        for cutoff in (0.05, 0.1, 0.5):
            c = dsp.butter_design(order, cutoff)
            assert abs(c.b.sum() / c.a.sum() - 1.0) <= 1e-12
    _report(2, "Butterworth oracle")


# ---------------------------------------------------------------------------
# 3. DSP oracles

def _anova_brute(x, labels):
    classes = sorted(set(labels.tolist()))
    g, n = len(classes), x.shape[0]
    out = []
    for col in range(x.shape[1]):
        v = x[:, col]
        grand = v.mean()
        ssb = ssw = 0.0
        for c in classes:
            grp = v[labels == c]
            ssb += grp.size * (grp.mean() - grand) ** 2
            ssw += ((grp - grp.mean()) ** 2).sum()
        out.append(0.0 if ssw == 0.0 and ssb == 0.0
                   else np.inf if ssw == 0.0
                   else (ssb / (g - 1)) / (ssw / (n - g)))
    return np.array(out)


def test_criterion_3_dsp_oracles():
    rng = make_rng(3, "acceptance-dsp")
    for _ in range(120):
        n = int(rng.integers(6, 24))
        d = int(rng.integers(1, 5))
        g = int(rng.integers(2, min(n, 6)))
        labels = np.concatenate([np.arange(g), rng.integers(0, g, n - g)])
        x = rng.standard_normal((n, d)) + labels[:, None] * rng.standard_normal(d)
        np.testing.assert_allclose(dsp.anova_f_scores(x, labels),
                                   _anova_brute(x, labels), rtol=1e-9, atol=1e-9)

    x = rng.standard_normal((25, 8))
    model, scores = dsp.pca_fit_transform(x, 8)
    np.testing.assert_allclose(model.components @ model.components.T,
                               np.eye(8), atol=1e-8)
    np.testing.assert_allclose(scores @ model.components + model.mean, x, atol=1e-8)

    values = rng.standard_normal((40, 6))
    values[rng.random((40, 6)) < 0.3] = np.nan
    values[:, 0] = 1.0  # keep one fully-finite column
    from harlab.core import FeatureTensor
    out = dsp.impute_mean(FeatureTensor(values, 0, ("amplitude", "toy"))).values
    for col in range(6):
        finite = values[:, col][np.isfinite(values[:, col])]
        expect = np.where(np.isfinite(values[:, col]), values[:, col], finite.mean())
        assert np.array_equal(out[:, col], expect)
    _report(3, "DSP oracles")


# ---------------------------------------------------------------------------
# 4. determinism of the full chain

def _run_chain(base):
    raw = base / "raw"
    pre = base / "pre"
    run = base / "run"
    ev = base / "eval"
    assert cli.main(["generate", "--seed", "42", "--out", str(raw),
                     "--samples-per-class", "4"]) == 0
    assert cli.main(["preprocess", "--dataset", str(raw), "--out", str(pre)]) == 0
    assert cli.main(["train", "--model", "lstm", "--dataset", str(pre),
                     "--epochs", "2", "--decimate", "24", "--seed", "42",
                     "--out", str(run)]) == 0
    assert cli.main(["evaluate", "--model-file", str(run / "model.json"),
                     "--dataset", str(pre), "--split-seed", "42",
                     "--out", str(ev)]) == 0
    return ((run / "model.json").read_bytes(),
            (ev / "metrics.csv").read_bytes(),
            (ev / "confusion.csv").read_bytes())


def test_criterion_4_chain_determinism(tmp_path):
    first = _run_chain(tmp_path / "one")
    second = _run_chain(tmp_path / "two")
    assert first[0] == second[0], "model files differ between identical runs"
    assert first[1] == second[1], "metrics CSVs differ between identical runs"
    assert first[2] == second[2], "confusion CSVs differ between identical runs"
    _report(4, "bitwise determinism of generate/preprocess/train")


# ---------------------------------------------------------------------------
# 5. end-to-end learning on the default dataset

def _default_feature_dataset(samples_per_class=100, decimate_k=12):
    cfg = synth.GeneratorConfig(seed=42, samples_per_class=samples_per_class)
    stages = dsp.default_stages()
    tensors = [models.decimate(dsp.run_pipeline(s, stages), decimate_k)
               for s in synth.iter_samples(cfg)]
    return Dataset.from_samples(tensors, seed=42)


def test_criterion_5_end_to_end_learning():
    start = time.monotonic()
    dataset = _default_feature_dataset()
    assert len(dataset) == 700
    assert Counter(s.label for s in dataset.samples) == dict.fromkeys(ActivityClass, 100)
    train_ds, test_ds = evaluate.split(dataset, evaluate.SplitSpec(seed=42))
    assert len(test_ds) == 140
    spec = models.ModelSpec(kind="lstm", timesteps=100, n_features=64,
                            hidden_size=50, lr0=0.01, epochs=50,
                            batch_size=32, seed=42)
    trained = models.train(models.build(spec), train_ds.samples, test_ds.samples)
    report = evaluate.evaluate_model(trained, test_ds.samples)
    elapsed = time.monotonic() - start
    assert elapsed < 900.0, f"end-to-end run took {elapsed:.0f}s"
    assert report.accuracy >= 0.90, f"test accuracy {report.accuracy:.4f} < 0.90"
    # the empty class is the most separable one
    empty = int(ActivityClass.EMPTY)
    empty_recall = report.confusion[empty, empty] / report.confusion[empty].sum()
    assert empty_recall >= 0.95
    print(f"[acceptance] criterion 5 detail: accuracy={report.accuracy:.4f} "
          f"empty_recall={empty_recall:.2f} elapsed={elapsed:.0f}s", flush=True)
    _report(5, "end-to-end learning >= 0.90")


# ---------------------------------------------------------------------------
# 6. full grid trains without divergence

def test_criterion_6_grid_without_divergence(tmp_path, monkeypatch):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1})  # a pool of 2 workers
    dataset = _default_feature_dataset(samples_per_class=20)
    cells = evaluate.run_grid(dataset, seed=42)
    assert len(cells) == 12
    for c in cells:
        assert not c.failed, f"cell ({c.kind}, epochs={c.epochs}, lr={c.lr}): {c.error}"
        assert np.isfinite(c.mean_loss) and np.isfinite(c.accuracy)
    path = tmp_path / "grid.csv"
    storage.write_grid_csv(cells, path)
    with open(path, newline="") as fh:
        rows = list(csv.reader(fh))
    assert rows[0] == ["model", "epochs", "lr", "accuracy", "mean_loss"]
    assert len(rows) == 13
    kinds = {r[0] for r in rows[1:]}
    assert kinds == {"lstm", "cnn", "lstm_cnn"}
    for row in rows[1:]:
        float(row[3]), float(row[4])  # parseable metrics in every cell
    _report(6, "grid trains at every cell, schema as documented")


# ---------------------------------------------------------------------------
# 7. round trips

def test_criterion_7_round_trips(tmp_path):
    raw = synth.generate_dataset(synth.GeneratorConfig(seed=42, samples_per_class=2,
                                                       n_packets=50))
    storage.save_dataset(raw, tmp_path / "raw")
    loaded = storage.load_dataset(tmp_path / "raw")
    for a, b in zip(raw.samples, loaded.samples):
        assert a == b, "dataset round trip must be exact"

    rng = make_rng(7, "acceptance-model")
    from harlab.core import FeatureTensor
    tensors = [FeatureTensor(rng.standard_normal((10, 6)), i % 7, ("amplitude", "toy"))
               for i in range(21)]
    spec = models.ModelSpec(kind="lstm_cnn", timesteps=10, n_features=6,
                            hidden_size=4, conv_filters=(3, 2), epochs=1,
                            batch_size=4, seed=7)
    trained = models.train(models.build(spec), tensors, tensors[:7])
    storage.save_model(trained, tmp_path / "model.json")
    restored = storage.load_model(tmp_path / "model.json")
    for _ in range(100):
        x = rng.standard_normal((1, 10, 6))
        assert trained.network.forward(x).tobytes() == restored.network.forward(x).tobytes()
    _report(7, "dataset and model round trips")


# ---------------------------------------------------------------------------
# 8. metrics oracle

def test_criterion_8_metrics_oracle():
    true = np.arange(7).repeat(5)
    pred = np.zeros_like(true)
    rep = evaluate.compute_metrics(true, pred, np.zeros_like(true, dtype=float))
    assert rep.accuracy == 1.0 / 7.0
    assert rep.macro_recall == 1.0 / 7.0
    assert rep.confusion[0, 0] == 5

    rng = make_rng(8, "acceptance-metrics")
    for _ in range(1000):
        n = int(rng.integers(1, 50))
        t = rng.integers(0, 7, n)
        p = rng.integers(0, 7, n)
        r = evaluate.compute_metrics(t, p, np.zeros(n))
        assert r.accuracy == np.trace(r.confusion) / r.confusion.sum()
    _report(8, "metrics oracle")
