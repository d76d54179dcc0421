import math

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
    out = nn.Dense(w, np.zeros(3), "softmax").forward(x)
    np.testing.assert_allclose(out, 1.0 / 3.0, atol=1e-15)


def test_dense_tanh_zero_preactivation():
    out = nn.Dense(np.zeros((3, 4)), np.zeros(4), "tanh").forward(np.zeros((2, 3)))
    assert np.all(out == 0.0)


def test_dense_identity_map():
    x = make_rng(0, "dense-id").standard_normal((6, 4))
    out = nn.Dense(np.eye(4), np.zeros(4), "none").forward(x)
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


def test_lstm_gates_strictly_in_unit_interval():
    rng = make_rng(6, "lstm-gates")
    layer = nn.Lstm.init(rng, 4, 3)
    layer.forward(rng.standard_normal((2, 10, 4)) * 10)
    gates = layer._gates
    h = layer.hidden_size
    for block in (gates[..., :h], gates[..., h:2 * h], gates[..., 3 * h:]):
        assert np.all(block > 0.0)
        assert np.all(block < 1.0)


# ---------------------------------------------------------------------------
# conv / pool

def test_conv_hand_dot_product():
    x = np.array([[1.0], [2.0], [3.0]])
    kernels = np.array([[[1.0], [0.0], [-1.0]]])  # [c_out=1, k=3, c_in=1]
    out = one_sample(nn.Conv1d(kernels, np.zeros(1)), x)
    np.testing.assert_allclose(out, [[-2.0]], atol=0)


def test_conv_identity_kernel():
    x = make_rng(7, "conv-id").standard_normal((10, 1))
    kernels = np.array([[[1.0]]])
    out = one_sample(nn.Conv1d(kernels, np.zeros(1)), x)
    np.testing.assert_allclose(out, x, atol=0)


def test_conv_bias_only():
    x = make_rng(8, "conv-bias").standard_normal((6, 2))
    kernels = np.zeros((1, 3, 2))
    out = one_sample(nn.Conv1d(kernels, np.array([5.0])), x)
    assert np.all(out == 5.0)
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
    "Dense": lambda rng: nn.Dense.init(rng, 3, 4, "tanh"),
    "Lstm": lambda rng: nn.Lstm.init(rng, 3, 4),
    "Conv1d": lambda rng: nn.Conv1d.init(rng, 3, 4, 2, "tanh"),
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
    state = nn.AdamState(lr0=0.01, decay=1e-6)
    assert state.effective_lr == 0.01
    nn.adam_step({"w": np.zeros(1)}, {"w": np.ones(1)}, state)
    assert state.effective_lr == 0.01 / (1 + 1e-6 * 1)


def test_adam_shape_mismatch():
    state = nn.AdamState()
    with pytest.raises(nn.ShapeError):
        nn.adam_step({"w": np.zeros(2)}, {"w": np.zeros(3)}, state)
    with pytest.raises(nn.ShapeError):
        nn.adam_step({"w": np.zeros(2)}, {"v": np.zeros(2)}, state)
