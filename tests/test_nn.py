import math
import tracemalloc
import warnings

import numpy as np
import pytest

from harlab import nn
from harlab.rng import make_rng


def one_sample(layer, x):
    """A sequence layer's output for one unbatched input [T, d]."""
    return layer.forward(np.asarray(x)[None])[0]


# ---------------------------------------------------------------------------
# dense

def test_dense_softmax_of_zeros_is_uniform():
    x = np.zeros((4, 5))
    w = np.zeros((5, 3))
    out = nn.softmax(nn.Dense(w, np.zeros(3)).forward(x))
    np.testing.assert_allclose(out, 1.0 / 3.0, atol=1e-15)


def test_dense_identity_map():
    x = make_rng(0, "dense-id").standard_normal((6, 4))
    out = nn.Dense(np.eye(4), np.zeros(4)).forward(x)
    np.testing.assert_allclose(out, x, atol=0)


def test_dense_shape_mismatch():
    with pytest.raises(nn.ShapeError):
        nn.Dense(np.zeros((4, 2)), np.zeros(2)).forward(np.zeros((2, 3)))


def test_softmax_rows_sum_to_one_entries_open_interval():
    rng = make_rng(1, "softmax")
    x = rng.standard_normal((50, 7)) * 5
    probs = nn.softmax(x)
    np.testing.assert_allclose(probs.sum(axis=1), 1.0, atol=1e-9)
    assert np.all(probs > 0.0)
    assert np.all(probs < 1.0)


def test_tanh_strictly_inside_unit_interval():
    x = make_rng(2, "tanh").standard_normal((100,)) * 3
    y = np.tanh(x)
    assert np.all(np.abs(y) < 1.0)


# ---------------------------------------------------------------------------
# lstm

def test_lstm_zero_params_zero_hidden():
    # gates sit at 0.5, candidate at 0, so the cell never moves
    T, d, h = 6, 5, 4
    x = make_rng(3, "lstm0").standard_normal((T, d))
    hs = one_sample(nn.Lstm(np.zeros((4 * h, d)), np.zeros((4 * h, h)), np.zeros(4 * h)), x)
    assert hs.shape == (T, h)
    assert np.all(hs == 0.0)


def test_lstm_t1_equals_single_cell_step():
    rng = make_rng(4, "lstm1")
    d, h = 5, 4
    layer = nn.Lstm.init(rng, d, h)
    x = rng.standard_normal((3, d))
    full = one_sample(layer, x)
    first = one_sample(layer, x[:1])
    np.testing.assert_allclose(full[0], first[0], atol=0)


def test_lstm_two_step_hand_recursion():
    rng = make_rng(5, "lstm2")
    d, h = 3, 2
    layer = nn.Lstm.init(rng, d, h)
    x = rng.standard_normal((2, d))
    got = one_sample(layer, x)

    def sig(v):
        return 1.0 / (1.0 + np.exp(-v))

    h_prev = np.zeros(h)
    c_prev = np.zeros(h)
    expect = []
    for t in range(2):
        pre = layer.W @ x[t] + layer.U @ h_prev + layer.b
        i, f, g, o = sig(pre[:h]), sig(pre[h:2 * h]), np.tanh(pre[2 * h:3 * h]), sig(pre[3 * h:])
        c_prev = f * c_prev + i * g
        h_prev = o * np.tanh(c_prev)
        expect.append(h_prev.copy())
    np.testing.assert_allclose(got, expect, atol=1e-12)


def clip_sigmoid(x):
    """The clipped sigmoid formula nn.sigmoid reproduces bit for bit."""
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def test_sigmoid_is_the_clip_formula_bit_for_bit():
    rng = make_rng(18, "sigmoid")
    special = np.array([0.0, -0.0, 500.0, -500.0, 710.0, -710.0, 1e308, -1e308,
                        np.inf, -np.inf, np.nan, 499.9999, -500.0001, 36.7, -745.2])
    blocks = [special, rng.standard_normal((32, 100)) * 10,
              rng.uniform(-800.0, 800.0, (32, 50)),
              np.asfortranarray(rng.standard_normal((7, 9)))[:, 1:]]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for x in blocks:
            before = x.copy()
            got = nn.sigmoid(x)
            assert got.shape == x.shape
            assert got.tobytes() == clip_sigmoid(x).tobytes()
            assert np.array_equal(x, before, equal_nan=True)
            in_place = x.copy()
            assert nn.sigmoid(in_place, out=in_place) is in_place
            assert in_place.tobytes() == got.tobytes()


def test_lstm_gates_strictly_in_unit_interval():
    rng = make_rng(6, "lstm-gates")
    layer = nn.Lstm.init(rng, 4, 3)
    layer.forward(rng.standard_normal((2, 10, 4)) * 10, train=True)
    gates = layer._gates
    h = layer.hidden_size
    for block in (gates[:, :h], gates[:, h:2 * h], gates[:, 3 * h:]):
        assert np.all(block > 0.0)
        assert np.all(block < 1.0)


def test_lstm_gate_blocks_of_a_step_are_contiguous():
    # The step loop's speed rests on each gate of one step being a single
    # contiguous [h, batch] block.
    rng = make_rng(19, "lstm-layout")
    layer = nn.Lstm.init(rng, 6, 5)
    layer.forward(rng.standard_normal((7, 13, 6)), train=True)
    h = layer.hidden_size
    for t in range(13):
        for k in range(4):
            assert layer._gates[t, k * h:(k + 1) * h].flags.c_contiguous, (t, k)


@pytest.mark.parametrize("batch", [1, 7, 32])
def test_lstm_train_and_eval_forwards_are_bit_equal(batch):
    rng = make_rng(20, "lstm-modes", batch)
    layer = nn.Lstm.init(rng, 6, 5)
    layer.b += rng.standard_normal(20)
    x = rng.standard_normal((batch, 13, 6))
    train = layer.forward(x, train=True)
    assert layer.forward(x).tobytes() == train.tobytes()


# ---------------------------------------------------------------------------
# conv / pool

def test_conv_hand_dot_product():
    x = np.array([[1.0], [2.0], [3.0]])
    kernels = np.array([[[1.0], [0.0], [-1.0]]])  # [c_out=1, k=3, c_in=1]
    out = one_sample(nn.Conv1d(kernels, np.zeros(1)), x)
    np.testing.assert_allclose(out, np.tanh([[-2.0]]), atol=0)


def test_conv_identity_kernel():
    x = make_rng(7, "conv-id").standard_normal((10, 1))
    kernels = np.array([[[1.0]]])
    out = one_sample(nn.Conv1d(kernels, np.zeros(1)), x)
    np.testing.assert_allclose(out, np.tanh(x), atol=0)


def test_conv_bias_only():
    x = make_rng(8, "conv-bias").standard_normal((6, 2))
    kernels = np.zeros((1, 3, 2))
    out = one_sample(nn.Conv1d(kernels, np.array([5.0])), x)
    assert np.all(out == np.tanh(5.0))
    assert out.shape == (4, 1)


def test_conv_rejects_short_sequence():
    with pytest.raises(nn.ShapeError):
        one_sample(nn.Conv1d(np.zeros((1, 3, 1)), np.zeros(1)), np.zeros((2, 1)))


def test_maxpool_windows_of_three():
    x = np.array([[1.0], [5.0], [2.0], [4.0], [3.0], [0.0]])
    out = one_sample(nn.MaxPool1d(3), x)
    np.testing.assert_allclose(out, [[5.0], [4.0]], atol=0)


def test_maxpool_constant_and_remainder():
    out = one_sample(nn.MaxPool1d(3), np.full((7, 2), 3.5))
    assert out.shape == (2, 2)
    assert np.all(out == 3.5)
    with pytest.raises(nn.ShapeError):
        one_sample(nn.MaxPool1d(3), np.zeros((2, 1)))


def test_maxpool_train_mode_routes_each_gradient_to_the_first_maximum():
    rng = make_rng(12, "pool-ties")
    x = rng.integers(0, 3, (4, 10, 5)).astype(np.float64)  # small integers: many ties
    layer = nn.MaxPool1d(3)
    y = layer.forward(x, train=True)
    dy = rng.standard_normal(y.shape)
    dx = layer.backward(dy)
    expected_y, expected_dx = np.empty(y.shape), np.zeros(x.shape)
    for b, t, ch in np.ndindex(y.shape):
        window = list(x[b, 3 * t:3 * t + 3, ch])
        expected_y[b, t, ch] = max(window)
        expected_dx[b, 3 * t + window.index(max(window)), ch] = dy[b, t, ch]
    assert y.tobytes() == expected_y.tobytes()
    assert dx.tobytes() == expected_dx.tobytes()
    assert y.tobytes() == layer.forward(x).tobytes()  # train and eval mode agree


@pytest.mark.parametrize("pool", [2, 3, 4])
def test_maxpool_eval_forward_is_bitwise_its_train_forward(pool):
    # at the CNN head's shape, with ties between equal values, between +0.0
    # and -0.0, and a NaN, which both modes must propagate
    rng = make_rng(pool, "pool-eval")
    x = rng.integers(-2, 3, (32, 96, 32)).astype(np.float64)
    x[(x == 0) & (rng.random(x.shape) < 0.5)] = -0.0
    x[0, 0, 0] = np.nan
    layer = nn.MaxPool1d(pool)
    y = layer.forward(x, train=True)
    assert np.isnan(y[0, 0, 0]) and np.signbit(y[y == 0]).any()
    assert layer.forward(x).tobytes() == y.tobytes()


# ---------------------------------------------------------------------------
# dropout

def test_dropout_eval_is_bitwise_identity():
    x = make_rng(9, "drop-eval").standard_normal((5, 4))
    out = nn.Dropout(0.2).forward(x, train=False)
    assert out is x


def test_dropout_p0_train_identity():
    x = make_rng(10, "drop-p0").standard_normal((5, 4))
    out = nn.Dropout(0.0).forward(x, train=True, rng=make_rng(0, "mask"))
    assert out is x


def test_dropout_preserves_mean_at_scale():
    rng = make_rng(11, "drop-mean")
    x = np.abs(rng.standard_normal(1_000_000)) + 0.5
    out = nn.Dropout(0.2).forward(x.reshape(-1, 1), train=True, rng=make_rng(1, "mask"))
    assert abs(out.mean() / x.mean() - 1.0) < 0.02


def test_dropout_rejects_bad_p():
    with pytest.raises(ValueError):
        nn.Dropout(1.0)


# ---------------------------------------------------------------------------
# select-last and the shared layer protocol

def test_select_last_forward_and_backward():
    x = np.arange(12.0).reshape(2, 3, 2)
    layer = nn.SelectLast()
    np.testing.assert_array_equal(layer.forward(x), [[4.0, 5.0], [10.0, 11.0]])
    dx = layer.backward(np.array([[1.0, 2.0], [3.0, 4.0]]))
    np.testing.assert_array_equal(dx, [[[0.0, 0.0], [0.0, 0.0], [1.0, 2.0]],
                                       [[0.0, 0.0], [0.0, 0.0], [3.0, 4.0]]])


PROTOCOL_LAYERS = {
    "Dense": lambda rng: nn.Dense.init(rng, 3, 4),
    "Lstm": lambda rng: nn.Lstm.init(rng, 3, 4),
    "Conv1d": lambda rng: nn.Conv1d.init(rng, 3, 4, 2),
    "MaxPool1d": lambda rng: nn.MaxPool1d(3),
    "Dropout": lambda rng: nn.Dropout(0.5),
    "Flatten": lambda rng: nn.Flatten(),
    "SelectLast": lambda rng: nn.SelectLast(),
}


def test_protocol_cases_cover_every_layer_class():
    layer_classes = {name for name, obj in vars(nn).items()
                     if isinstance(obj, type) and hasattr(obj, "backward")}
    assert layer_classes == set(PROTOCOL_LAYERS)


@pytest.mark.parametrize("name", sorted(PROTOCOL_LAYERS))
def test_every_layer_follows_the_protocol(name):
    rng = make_rng(13, "protocol", name)
    layer = PROTOCOL_LAYERS[name](rng)
    x = rng.standard_normal((2, 3) if name == "Dense" else (2, 6, 3))
    y = layer.forward(x, True, rng)
    assert layer.backward(np.ones_like(y)).shape == x.shape
    params, grads = layer.params(), layer.grads()
    assert params.keys() == grads.keys()
    for key, arr in params.items():
        assert grads[key].shape == arr.shape


# ---------------------------------------------------------------------------
# GEMM kernels against the loop kernels they replaced
#
# reference_lstm and reference_conv1d are the per-step LSTM and the einsum
# Conv1d that nn.Lstm and nn.Conv1d used before their arithmetic became a
# few large matrix products.  Reassociated sums may differ in the last
# bits, so agreement is judged relative to the largest entry: <= 1e-12.

ORACLE_RTOL = 1e-12


def reference_lstm(W, U, b, x, dhs):
    """Per-step LSTM forward and backward: (hs, dx, dW, dU, db)."""
    h = U.shape[1]
    batch, T, _ = x.shape
    gates_c = np.empty((T, batch, 4 * h))
    cells = np.empty((T, batch, h))
    tanh_cs = np.empty((T, batch, h))
    hs = np.empty((batch, T, h))
    h_prev = np.zeros((batch, h))
    c_prev = np.zeros((batch, h))
    for t in range(T):
        pre = x[:, t] @ W.T + h_prev @ U.T + b
        i = nn.sigmoid(pre[:, :h])
        f = nn.sigmoid(pre[:, h:2 * h])
        g = np.tanh(pre[:, 2 * h:3 * h])
        o = nn.sigmoid(pre[:, 3 * h:])
        c = f * c_prev + i * g
        tc = np.tanh(c)
        h_prev = o * tc
        gates_c[t] = np.concatenate([i, f, g, o], axis=1)
        cells[t] = c
        tanh_cs[t] = tc
        hs[:, t] = h_prev
        c_prev = c
    dW, dU, db = np.zeros_like(W), np.zeros_like(U), np.zeros_like(b)
    dx = np.empty_like(x)
    dh_next = np.zeros((batch, h))
    dc_next = np.zeros((batch, h))
    for t in range(T - 1, -1, -1):
        gates = gates_c[t]
        i, f = gates[:, :h], gates[:, h:2 * h]
        g, o = gates[:, 2 * h:3 * h], gates[:, 3 * h:]
        tc = tanh_cs[t]
        c_prev = cells[t - 1] if t > 0 else np.zeros((batch, h))
        h_prev = hs[:, t - 1] if t > 0 else np.zeros((batch, h))
        dh = dhs[:, t] + dh_next
        do = dh * tc
        dc = dc_next + dh * o * (1.0 - tc * tc)
        di = dc * g
        df = dc * c_prev
        dg = dc * i
        dpre = np.concatenate([di * i * (1.0 - i),
                               df * f * (1.0 - f),
                               dg * (1.0 - g * g),
                               do * o * (1.0 - o)], axis=1)
        dW += dpre.T @ x[:, t]
        dU += dpre.T @ h_prev
        db += dpre.sum(axis=0)
        dx[:, t] = dpre @ W
        dh_next = dpre @ U
        dc_next = dc * f
    return hs, dx, dW, dU, db


def reference_conv1d(kernels, bias, x, dy):
    """einsum tanh Conv1d over a sliding-window view: (y, dx, dkernels, dbias)."""
    k = kernels.shape[1]
    windows = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)
    z = np.einsum("btck,okc->bto", windows, kernels) + bias
    y = np.tanh(z)
    dz = dy * (1.0 - y * y)
    dkernels = np.einsum("btck,bto->okc", windows, dz)
    dbias = dz.sum(axis=(0, 1))
    dx = np.zeros(x.shape)
    t_out = dz.shape[1]
    for j in range(k):
        dx[:, j:j + t_out] += dz @ kernels[:, j, :]
    return y, dx, dkernels, dbias


def assert_matches_oracle(got, want, names):
    for name, a, b in zip(names, got, want, strict=True):
        assert a.shape == b.shape, name
        scale = np.max(np.abs(b))
        err = np.max(np.abs(a - b)) / scale if scale else np.max(np.abs(a))
        assert err <= ORACLE_RTOL, f"{name}: relative error {err:.3g}"


def forward_backward(layer, x, dy):
    y = layer.forward(x, train=True)
    dx = layer.backward(dy)
    return (y, dx, *layer.grads().values())


LSTM_ORACLE_CASES = {  # (batch, T, d, h)
    "paper": (32, 100, 64, 50),
    "one_step": (4, 1, 6, 5),
    "batch_1": (1, 9, 6, 5),
    "odd_batch_ragged_chunks": (7, 13, 6, 5),  # T not a multiple of the gradient chunk
}


@pytest.mark.parametrize("case", sorted(LSTM_ORACLE_CASES))
def test_lstm_matches_per_step_oracle(case):
    batch, T, d, h = LSTM_ORACLE_CASES[case]
    rng = make_rng(14, "lstm-oracle", case)
    layer = nn.Lstm.init(rng, d, h)
    layer.b += rng.standard_normal(4 * h) * 0.5  # every gate bias away from its init
    x = rng.standard_normal((batch, T, d))
    dhs = rng.standard_normal((batch, T, h))
    want = reference_lstm(layer.W.copy(), layer.U.copy(), layer.b.copy(), x, dhs)
    got = forward_backward(layer, x, dhs)
    assert_matches_oracle(got, want, ("hs", "dx", "dW", "dU", "db"))


def test_second_same_shape_lstm_step_allocates_less_than_its_gate_cache():
    # numpy reports its buffers to tracemalloc.  A second train step of one
    # shape refills the first step's gate and cell arrays, so what it
    # allocates (hidden states, input gradient) stays below the gates alone.
    batch, T, d, h = LSTM_ORACLE_CASES["paper"]
    rng = make_rng(17, "lstm-reuse")
    layer = nn.Lstm.init(rng, d, h)
    x = rng.standard_normal((batch, T, d))
    dhs = rng.standard_normal((batch, T, h))
    forward_backward(layer, x, dhs)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        forward_backward(layer, x, dhs)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    gate_bytes = batch * T * 4 * h * 8  # 5.12 MB
    assert peak < gate_bytes, f"second step peaked at {peak / 1e6:.2f} MB"


CONV_ORACLE_CASES = {  # (batch, T, c_in, c_out, k)
    "paper": (32, 98, 50, 50, 3),
    "k_1": (4, 10, 3, 5, 1),
    "k_equals_T": (4, 7, 3, 5, 7),
    "batch_1": (1, 12, 3, 5, 3),
}


@pytest.mark.parametrize("activation", ["tanh"])
@pytest.mark.parametrize("case", sorted(CONV_ORACLE_CASES))
def test_conv_matches_einsum_oracle(case, activation):
    batch, T, c_in, c_out, k = CONV_ORACLE_CASES[case]
    rng = make_rng(15, "conv-oracle", case, activation)
    layer = nn.Conv1d.init(rng, c_in, c_out, k)
    layer.bias += rng.standard_normal(c_out)
    x = rng.standard_normal((batch, T, c_in))
    dy = rng.standard_normal((batch, T - k + 1, c_out))
    want = reference_conv1d(layer.kernels.copy(), layer.bias.copy(), x, dy)
    got = forward_backward(layer, x, dy)
    assert_matches_oracle(got, want, ("y", "dx", "dkernels", "dbias"))


@pytest.mark.parametrize("case", sorted(CONV_ORACLE_CASES))
def test_conv_forward_matches_scipy_correlate(case):
    signal = pytest.importorskip("scipy.signal")
    batch, T, c_in, c_out, k = CONV_ORACLE_CASES[case]
    rng = make_rng(16, "conv-scipy", case)
    layer = nn.Conv1d.init(rng, c_in, c_out, k)
    layer.bias += rng.standard_normal(c_out)
    x = rng.standard_normal((batch, T, c_in))
    # A 2-D valid correlation of x[b] [T, c_in] with kernels[o] [k, c_in]
    # sums over both axes, which is the convolution's output column o.
    want = np.tanh(np.array([[signal.correlate(x[b], layer.kernels[o], mode="valid",
                                               method="direct")[:, 0] + layer.bias[o]
                              for o in range(c_out)] for b in range(batch)]).transpose(0, 2, 1))
    assert_matches_oracle([layer.forward(x)], [want], ["y"])


def test_conv_backward_allocates_three_padded_gradients_at_most():
    # At lstm_cnn's first conv the backward needs the zero-padded output
    # gradient, the input gradient it returns and one tap's product in
    # flight, each [batch, T, 50].  Separate activation-gradient temporaries
    # and a zeroed input gradient took it to four.
    batch, T, c_in, c_out, k = 32, 100, 50, 50, 3
    rng = make_rng(18, "conv-peak")
    layer = nn.Conv1d.init(rng, c_in, c_out, k)
    x = rng.standard_normal((batch, T, c_in))
    dy = rng.standard_normal(layer.forward(x, train=True).shape)
    tracemalloc.start()
    try:
        start = tracemalloc.get_traced_memory()[0]
        layer.backward(dy)
        peak = tracemalloc.get_traced_memory()[1] - start
    finally:
        tracemalloc.stop()
    padded_bytes = batch * T * c_out * 8  # 1.28 MB
    assert peak < 3.5 * padded_bytes, f"backward peaked at {peak / 1e6:.2f} MB"


# ---------------------------------------------------------------------------
# cross-entropy

def test_cross_entropy_perfect_prediction():
    probs = np.eye(3)
    assert nn.cross_entropy(probs, np.array([0, 1, 2])) == 0.0


def test_cross_entropy_half_prob_is_ln2():
    probs = np.array([[0.5, 0.5]])
    assert abs(nn.cross_entropy(probs, np.array([0])) - math.log(2)) < 1e-12


def test_cross_entropy_uniform_seven_is_ln7():
    probs = np.full((4, 7), 1.0 / 7.0)
    assert abs(nn.cross_entropy(probs, np.array([0, 3, 5, 6])) - math.log(7)) < 1e-12


def test_cross_entropy_rejects_bad_labels_and_rows():
    probs = np.full((2, 3), 1.0 / 3.0)
    with pytest.raises(ValueError):
        nn.cross_entropy(probs, np.array([0, 3]))
    with pytest.raises(ValueError):
        nn.cross_entropy(np.array([[0.9, 0.3, 0.1]]), np.array([0]))


@pytest.mark.parametrize("bad", [np.nan, np.inf])
def test_cross_entropy_rejects_non_finite_rows(bad):
    # a NaN row slips past a sum-to-1 test (nan > 1e-6 is False)
    probs = np.array([[1.0, 0.0, 0.0], [bad, bad, bad]])
    with pytest.raises(ValueError, match="non-finite"):
        nn.cross_entropy(probs, np.array([0, 1]))


def test_cross_entropy_clamps_a_zero_true_class_probability():
    loss = nn.cross_entropy(np.array([[0.0, 1.0]]), np.array([0]))
    assert loss == pytest.approx(-math.log(1e-12), rel=1e-15)


def test_cross_entropy_is_the_mean_of_sample_losses():
    rng = make_rng(5, "sample-losses")
    probs = nn.softmax(rng.standard_normal((33, 7)) * 20.0)
    probs[0] = np.eye(7)[1]  # true class 0 at probability 0: clamped
    labels = rng.integers(0, 7, 33)
    labels[0] = 0
    picked = np.clip(probs[np.arange(33), labels], nn.PROB_FLOOR, 1.0)
    losses = nn.sample_losses(probs, labels)
    assert np.array_equal(losses, -np.log(picked))
    assert losses[0] == -math.log(nn.PROB_FLOOR)
    assert nn.cross_entropy(probs, labels) == float(-np.mean(np.log(picked)))  # bit-equal


# reference_cross_entropy_grad and reference_softmax_backward are the
# two-stage head that preceded the fused gradient: d(mean CE)/d(probs),
# zero where the loss's clamp is active, then a "softmax" Dense's Jacobian.

def reference_cross_entropy_grad(probs, labels):
    n = probs.shape[0]
    picked = probs[np.arange(n), labels]
    dprobs = np.zeros_like(probs)
    live = (picked > nn.PROB_FLOOR) & (picked < 1.0)
    rows = np.arange(n)[live]
    dprobs[rows, labels[live]] = -1.0 / (n * picked[live])
    return dprobs


def reference_softmax_backward(dprobs, probs):
    return probs * (dprobs - (dprobs * probs).sum(axis=-1, keepdims=True))


def test_fused_head_gradient_matches_two_stage_oracle():
    rng = make_rng(17, "head-oracle")
    layer = nn.Dense.init(rng, 50, 7)
    layer.b += rng.standard_normal(7)
    x = rng.standard_normal((32, 50))
    labels = rng.integers(0, 7, 32)
    probs = nn.softmax(layer.forward(x, train=True))
    dx = layer.backward(nn.cross_entropy_grad(probs, labels))
    dz = reference_softmax_backward(reference_cross_entropy_grad(probs, labels), probs)
    assert_matches_oracle((dx, layer.dw, layer.db), (dz @ layer.w.T, x.T @ dz, dz.sum(axis=0)),
                          ("dx", "dw", "db"))


def test_fused_gradient_ignores_the_clamp_below_prob_floor():
    p = nn.PROB_FLOOR / 10
    probs = np.array([[p, 1.0 - p], [0.25, 0.75]])
    labels = np.array([0, 1])
    grad = nn.cross_entropy_grad(probs, labels)
    assert grad[0, 0] == -(1.0 - p) / 2
    assert grad[0, 1] == (1.0 - p) / 2
    assert not reference_cross_entropy_grad(probs, labels)[0].any()


# ---------------------------------------------------------------------------
# adam

def test_adam_first_step_moves_by_lr():
    params = {"w": np.zeros(3)}
    grads = {"w": np.ones(3)}
    state = nn.AdamState(lr0=0.01)
    nn.adam_step(params, grads, state)
    np.testing.assert_allclose(params["w"], -0.01, atol=1e-6)
    assert state.t == 1


def test_adam_zero_gradient_is_identity():
    w = make_rng(12, "adam0").standard_normal(5)
    params = {"w": w.copy()}
    state = nn.AdamState()
    for _ in range(3):
        nn.adam_step(params, {"w": np.zeros(5)}, state)
    assert np.array_equal(params["w"], w)


def test_adam_decay_schedule():
    state = nn.AdamState(lr0=0.01)
    assert state.effective_lr == 0.01
    nn.adam_step({"w": np.zeros(1)}, {"w": np.ones(1)}, state)
    assert state.effective_lr == 0.01 / (1 + nn.ADAM_DECAY * 1)


def test_adam_shape_mismatch():
    state = nn.AdamState()
    with pytest.raises(nn.ShapeError):
        nn.adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, state)
    with pytest.raises(nn.ShapeError):
        nn.adam_step({"w": np.zeros(2)}, {"v": np.zeros(2)}, state)
