import hashlib
import tracemalloc
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


@pytest.mark.parametrize("kind, field, value", [
    ("lstm", "hidden_size", 0), ("lstm_cnn", "hidden_size", -1), ("cnn", "kernel_size", 0),
    ("cnn", "pool_size", 0), ("cnn", "conv_filters", (0, 32)),
    ("lstm_cnn", "conv_filters", (50, 0)), ("lstm", "epochs", 0), ("lstm", "batch_size", 0)])
def test_spec_rejects_sizes_below_one(kind, field, value):
    # hidden_size 0 used to reach glorot_uniform as a ZeroDivisionError
    name = "conv filter counts" if field == "conv_filters" else field
    with pytest.raises(models.ModelError, match=f"{name} .*>= 1"):
        models.ModelSpec(kind=kind, **{field: value})


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
    tensors[3] = FeatureTensor(values, tensors[3].label, ("amplitude", "toy"))
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
# the data train holds: the caller's sample arrays, one stacked batch at a time

@pytest.mark.parametrize("kind", models.KINDS)
def test_training_on_samples_equals_training_on_the_stacked_pair(kind):
    rng = make_rng(13, "samples-vs-stacked", kind)
    tensors = toy_tensors(rng, n=18)  # batches of 4, 4, 4, 4 and 2
    x, y = models.stack_features(tensors)
    spec = toy_spec(kind, epochs=3)
    on_samples = models.train(models.build(spec), tensors, tensors[:7])
    on_pair = models.train(models.build(spec), (x, y), (x[:7], y[:7]))
    assert weight_checksum(on_samples.network) == weight_checksum(on_pair.network)
    assert on_samples.history == on_pair.history
    assert on_samples.input_mean.tobytes() == on_pair.input_mean.tobytes()
    assert on_samples.input_scale.tobytes() == on_pair.input_scale.tobytes()
    assert on_samples.predict_probs(x).tobytes() == on_pair.predict_probs(x).tobytes()


@pytest.mark.parametrize("kind", models.KINDS)
def test_predict_probs_on_a_sample_list_equals_predict_probs_on_the_array(kind):
    rng = make_rng(14, "predict-list", kind)
    tensors = toy_tensors(rng, n=11)  # chunks of 4, 4 and 3
    trained = models.train(models.build(toy_spec(kind, epochs=1)), tensors, tensors[:7])
    x, _ = models.stack_features(tensors)
    want = trained.predict_probs(x).tobytes()
    assert trained.predict_probs([t.values for t in tensors]).tobytes() == want


@pytest.mark.parametrize("kind", models.KINDS)
def test_train_peak_stays_below_a_stacked_copy_of_the_training_split(kind):
    # 300 samples of [40, 16]: the stacked split is 1.5 MB; a step of 32
    # peaks at about 0.4-0.8 MB, and a stacked copy would add its 1.5 MB to that
    rng = make_rng(15, "train-peak", kind)
    tensors = toy_tensors(rng, n=300, T=40, F=16)
    spec = toy_spec(kind, timesteps=40, n_features=16, epochs=1, batch_size=32)
    stacked_bytes = 300 * 40 * 16 * 8
    net = models.build(spec)
    tracemalloc.start()
    try:
        models.train(net, tensors, tensors[:7])
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < stacked_bytes, f"traced peak {peak} B"


# ---------------------------------------------------------------------------
# the training step: no first-layer input gradient, LSTM arrays reused
#
# The oracles are the same networks doing the work the training step skips:
# a first layer that forms its input gradient, and LSTMs that allocate fresh
# gate and cell arrays on every forward.

def lstm_forward_hook(net, before):
    """Call before(layer) ahead of every forward of each Lstm in net."""
    for _, layer in net._layers:
        if isinstance(layer, nn.Lstm):
            def forward(x, train=False, rng=None, _layer=layer, _forward=layer.forward):
                before(_layer)
                return _forward(x, train, rng)
            layer.forward = forward


def drop_kept_arrays(layer):
    layer._gates = layer._cs = None


def poison_kept_arrays(layer):
    for arr in (layer._gates, layer._cs):
        if arr is not None:
            arr.fill(np.nan)


@pytest.mark.parametrize("kind", models.KINDS)
def test_backward_gradients_equal_a_first_layer_input_gradient_oracle(kind):
    spec = toy_spec(kind)
    net, oracle = models.build(spec), models.build(spec)
    assert net._layers[0][1].needs_input_grad is False
    oracle._layers[0][1].needs_input_grad = True
    rng = make_rng(10, "first-layer", kind)
    x = rng.standard_normal((5, spec.timesteps, spec.n_features))
    labels = rng.integers(0, spec.n_classes, 5)
    for model in (net, oracle):
        probs = model.forward(x, train=True, rng=make_rng(10, "dropout"))
        model.backward(nn.cross_entropy_grad(probs, labels))
    got, want = net.grads(), oracle.grads()
    assert got.keys() == want.keys()
    for name in want:
        assert np.array_equal(got[name], want[name]), name


@pytest.mark.parametrize("kind", models.KINDS)
def test_training_with_a_partial_last_batch_equals_a_fresh_allocation_oracle(kind):
    rng = make_rng(11, "reuse", kind)
    tensors = toy_tensors(rng, n=18)  # batches of 4, 4, 4, 4 and 2
    x, _ = models.stack_features(tensors)
    spec = toy_spec(kind, epochs=3)
    runs = []
    for hook in (None, poison_kept_arrays, drop_kept_arrays):
        net = models.build(spec)
        if hook:
            lstm_forward_hook(net, hook)
        trained = models.train(net, tensors, tensors[:7])
        runs.append((weight_checksum(net), trained.predict_probs(x).tobytes(), trained.history))
    assert runs[0] == runs[2]  # reused arrays against fresh ones
    assert runs[1] == runs[2]  # every entry a forward reads, it wrote first


@pytest.mark.parametrize("kind", models.KINDS)
def test_second_backward_after_one_forward_raises(kind):
    spec = toy_spec(kind)
    net = models.build(spec)
    x = make_rng(12, "twice", kind).standard_normal((3, spec.timesteps, spec.n_features))
    probs = net.forward(x, train=True, rng=make_rng(12, "dropout"))
    dlogits = nn.cross_entropy_grad(probs, np.zeros(3, dtype=np.int64))
    net.backward(dlogits)
    with pytest.raises(AttributeError):
        net.backward(dlogits)


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


def test_predict_probs_leaves_no_array_on_any_layer():
    rng = make_rng(7, "predict-caches")
    tensors = toy_tensors(rng, n=14)
    x, _ = models.stack_features(tensors)
    seen = set()
    for kind in models.KINDS:
        trained = models.train(models.build(toy_spec(kind, epochs=1)), tensors, tensors[:7])
        trained.predict_probs(x)
        for name, layer in trained.network._layers:
            seen.add(type(layer))
            kept = {id(a) for a in (*layer.params().values(), *layer.grads().values())}
            extra = [attr for attr, value in vars(layer).items()
                     if isinstance(value, np.ndarray) and id(value) not in kept]
            assert extra == [], f"{kind}.{name} keeps {extra}"
    layer_classes = {obj for obj in vars(nn).values()
                     if isinstance(obj, type) and hasattr(obj, "backward")}
    assert seen == layer_classes


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
