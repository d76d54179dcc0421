import hashlib
import warnings

import numpy as np
import pytest

from harlab import models, nn
from harlab.core import ActivityClass, FeatureTensor
from harlab.rng import make_rng


def toy_spec(kind="lstm", **over):
    base = dict(kind=kind, timesteps=12, n_features=6, hidden_size=5,
                epochs=2, batch_size=4, seed=42)
    if kind != "lstm":
        base["conv_filters"] = (4, 3)
    base.update(over)
    return models.ModelSpec(**base)


def toy_tensors(rng, n=20, T=12, F=6):
    out = []
    for i in range(n):
        code = i % 7
        values = rng.standard_normal((T, F)) + code * 0.5
        out.append(FeatureTensor(values, code, ("amplitude", "toy")))
    return out


def weight_checksum(net):
    digest = hashlib.sha256()
    for name in sorted(net.params()):
        digest.update(name.encode())
        digest.update(net.params()[name].tobytes())
    return digest.hexdigest()


# ---------------------------------------------------------------------------
# spec validation

def test_spec_rejects_unknown_kind():
    with pytest.raises(models.ModelError, match="lstm, cnn, lstm_cnn"):
        models.ModelSpec(kind="transformer")


def test_spec_fills_default_conv_filters():
    assert models.ModelSpec(kind="cnn").conv_filters == (20, 32)
    assert models.ModelSpec(kind="lstm_cnn").conv_filters == (50, 32)
    assert models.ModelSpec(kind="lstm").conv_filters == ()


def test_spec_rejects_wrong_class_count():
    with pytest.raises(models.ModelError):
        models.ModelSpec(kind="lstm", n_classes=6)


# ---------------------------------------------------------------------------
# build

def test_lstm_parameter_count_shape_arithmetic():
    # 4h(d + h) + 4h for the recurrent cell, h*C + C for the head
    spec = models.ModelSpec(kind="lstm", timesteps=100, n_features=64, hidden_size=50)
    net = models.build(spec)
    assert models.count_params(net) == 4 * 50 * (64 + 50) + 4 * 50 + 50 * 7 + 7 == 23357


def test_cnn_parameter_count_shape_arithmetic():
    spec = toy_spec("cnn")  # T=12 -> conv 10 -> conv 8 -> pool 2 -> flatten 6
    net = models.build(spec)
    expect = (4 * 3 * 6 + 4) + (3 * 3 * 4 + 3) + (2 * 3 * 7 + 7)
    assert models.count_params(net) == expect


def test_untrained_model_outputs_probability_rows():
    for kind in models.KINDS:
        net = models.build(toy_spec(kind))
        x = make_rng(0, "probe", kind).standard_normal((3, 12, 6))
        probs = net.forward(x)
        assert probs.shape == (3, 7)
        np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)


def test_same_spec_same_seed_identical_init():
    spec = toy_spec("lstm_cnn")
    assert weight_checksum(models.build(spec)) == weight_checksum(models.build(spec))
    other = toy_spec("lstm_cnn", seed=43)
    assert weight_checksum(models.build(other)) != weight_checksum(models.build(spec))


def test_built_layer_names():
    # bench/tracer.py keys the nn per-layer metrics on these names.
    expected = {"lstm": ["lstm", "select_last", "dropout", "dense"],
                "cnn": ["conv1", "conv2", "pool", "flatten", "dense"],
                "lstm_cnn": ["lstm", "conv1", "conv2", "pool", "flatten", "dense"]}
    for kind, names in expected.items():
        assert [name for name, _ in models.build(toy_spec(kind))._layers] == names


def test_build_rejects_too_short_sequences():
    with pytest.raises(models.ModelError):
        models.build(toy_spec("cnn", timesteps=6))  # 6 -> 4 -> 2 < pool


# ---------------------------------------------------------------------------
# train

def test_training_reduces_loss():
    rng = make_rng(1, "train-loss")
    tensors = toy_tensors(rng, n=28)
    spec = toy_spec("lstm", epochs=2)
    trained = models.train(models.build(spec), tensors, tensors[:7])
    assert trained.history[1].train_loss < trained.history[0].train_loss
    assert len(trained.history) == spec.epochs


def test_zero_learning_rate_freezes_weights():
    rng = make_rng(2, "train-lr0")
    tensors = toy_tensors(rng, n=14)
    spec = toy_spec("lstm", lr0=0.0, epochs=3)
    net = models.build(spec)
    before = weight_checksum(net)
    models.train(net, tensors, tensors[:7])
    assert weight_checksum(net) == before


@pytest.mark.parametrize("kind", models.KINDS)
def test_training_determinism_checksum(kind):
    rng = make_rng(3, "train-det")
    tensors = toy_tensors(rng, n=21)
    spec = toy_spec(kind, epochs=2)
    first = models.train(models.build(spec), tensors, tensors[:7])
    second = models.train(models.build(spec), tensors, tensors[:7])
    assert weight_checksum(first.network) == weight_checksum(second.network)
    assert first.history == second.history


def test_train_rejects_inconsistent_shapes():
    rng = make_rng(4, "train-shapes")
    tensors = toy_tensors(rng, n=8)
    bad = FeatureTensor(rng.standard_normal((9, 6)), 0, ("amplitude", "toy"))
    with pytest.raises(models.ModelError):
        models.train(models.build(toy_spec()), tensors + [bad], tensors[:2])


def test_train_rejects_empty_split():
    with pytest.raises(models.ModelError):
        models.train(models.build(toy_spec()), [], [])


def test_train_names_epoch_and_batch_of_non_finite_loss():
    rng = make_rng(7, "train-inf")
    tensors = toy_tensors(rng, n=14)
    values = tensors[3].values.copy()
    values[4, 2] = np.inf
    tensors[3] = FeatureTensor(values, tensors[3].label_code, ("amplitude", "toy"))
    with pytest.raises(models.ModelError,
                       match=r"^train split: non-finite value inf at sample 3, step 4, feature 2$"):
        models.train(models.build(toy_spec()), tensors, tensors[:7])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")  # overflow, then inf - inf
def test_train_names_epoch_and_batch_of_diverging_loss():
    # finite inputs, but a step of ~1e308 per update overflows the weights
    tensors = toy_tensors(make_rng(7, "train-inf"), n=14)
    with pytest.raises(models.ModelError, match=r"epoch 1, batch 2: .*non-finite"):
        models.train(models.build(toy_spec(lr0=1e308)), tensors, tensors[:7])


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_train_names_epoch_of_diverging_validation_loss():
    # one batch per epoch: its update overflows the weights, and the
    # epoch-end validation pass is the first forward to see them
    tensors = toy_tensors(make_rng(7, "train-inf"), n=14)
    with pytest.raises(models.ModelError,
                       match=r"^training failed at epoch 1, validation: .*non-finite"):
        models.train(models.build(toy_spec(lr0=1e308, batch_size=64)), tensors, tensors[:7])


@pytest.mark.parametrize("split, bad", [("train", np.nan), ("validation", -np.inf)])
def test_train_names_split_sample_step_feature_of_non_finite_input(split, bad):
    rng = make_rng(9, "train-non-finite", split)
    x, y = models.stack_features(toy_tensors(rng, n=14))
    x_val, y_val = x[:7].copy(), y[:7]
    (x if split == "train" else x_val)[5, 11, 0] = bad
    with warnings.catch_warnings():
        warnings.simplefilter("error")  # no numpy RuntimeWarning before the error
        with pytest.raises(models.ModelError,
                           match=rf"^{split} split: non-finite value {bad} "
                                 r"at sample 5, step 11, feature 0$"):
            models.train(models.build(toy_spec()), (x, y), (x_val, y_val))


def test_input_standardisation_is_fitted_on_the_training_split_only():
    rng = make_rng(8, "train-standardise")
    x, y = models.stack_features(toy_tensors(rng, n=14))
    x[..., 5] = 3.0  # a constant feature
    spec = toy_spec(epochs=1)
    trained = models.train(models.build(spec), (x, y), (x[:7], y[:7]))
    np.testing.assert_allclose(trained.input_mean, x.mean(axis=(0, 1)), rtol=1e-12)
    np.testing.assert_allclose(trained.input_scale[:5], x[..., :5].std(axis=(0, 1)),
                               rtol=1e-12)
    assert trained.input_scale[5] == 1.0
    shifted = models.train(models.build(spec), (x, y), (x[:7] + 100.0, y[:7]))
    assert np.array_equal(shifted.input_mean, trained.input_mean)
    assert np.array_equal(shifted.input_scale, trained.input_scale)


# ---------------------------------------------------------------------------
# predict

def test_predict_probs_sum_to_one_and_deterministic():
    rng = make_rng(5, "predict")
    tensors = toy_tensors(rng, n=14)
    trained = models.train(models.build(toy_spec(epochs=1)), tensors, tensors[:7])
    cls_a, probs_a = models.predict(trained, tensors[0])
    cls_b, probs_b = models.predict(trained, tensors[0])
    assert cls_a is cls_b
    assert np.array_equal(probs_a, probs_b)
    assert abs(probs_a.sum() - 1.0) < 1e-9
    assert isinstance(cls_a, ActivityClass)


def test_predict_rejects_wrong_shape():
    rng = make_rng(6, "predict-shape")
    tensors = toy_tensors(rng, n=14)
    trained = models.train(models.build(toy_spec(epochs=1)), tensors, tensors[:7])
    wrong = FeatureTensor(rng.standard_normal((5, 6)), 0, ("amplitude", "toy"))
    with pytest.raises(models.ModelError):
        models.predict(trained, wrong)


# ---------------------------------------------------------------------------
# decimation

def test_decimate_keeps_every_kth():
    values = np.arange(1200 * 2, dtype=float).reshape(1200, 2)
    ft = FeatureTensor(values, 0, ("amplitude", "toy"))
    out = models.decimate(ft, 12)
    assert out.values.shape == (100, 2)
    assert np.array_equal(out.values, values[::12])
    assert out.lineage[-1] == "decimate:12"
    # A compact copy: the full-length array is not kept alive.
    assert out.values.flags.c_contiguous
    assert not np.shares_memory(out.values, ft.values)


def test_decimate_ceil_semantics():
    ft = FeatureTensor(np.zeros((10, 3)), 0, ("amplitude", "toy"))
    assert models.decimate(ft, 3).values.shape[0] == 4  # ceil(10/3)
    assert models.decimate(ft, 1) is ft


def test_infer_decimation():
    assert models.infer_decimation(1200, 100) == 12
    assert models.infer_decimation(100, 100) == 1
    with pytest.raises(models.ModelError):
        models.infer_decimation(100, 1200)
    with pytest.raises(models.ModelError):
        models.infer_decimation(10, 7)  # ceil(10/2)=5, ceil(10/1)=10: no factor fits
