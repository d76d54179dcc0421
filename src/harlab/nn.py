"""Minimal from-scratch neural toolkit: dense, LSTM, 1-D conv, pooling,
dropout, last-step selection, cross-entropy, and Adam, with hand-written
backward passes.

Every layer has one protocol.  forward(x, train=False, rng=None) returns
the output for the batch x; only Dropout reads train and rng.
backward(dy) returns the gradient w.r.t. the last forward input and adds
the parameter gradients into grads().  params() and grads() map names to
arrays with the same keys and shapes ({} for parameter-free layers).

Layers operate on batched float64 arrays.  Sequence layers take
[batch, time, features]; dense takes [batch, features].  Each layer
caches what its backward pass needs on forward, so forward/backward
pairs must not interleave across calls on one layer instance.  Lstm and
Conv1d drop those caches in backward, so one backward at most follows
each forward.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_FLOOR = 1e-12


class ShapeError(ValueError):
    """Raised when array shapes disagree with a layer's parameters."""


def sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -500.0, 500.0)))


def softmax(x: np.ndarray) -> np.ndarray:
    """Row-wise stable softmax; rows sum to 1, entries strictly in (0, 1)."""
    z = x - x.max(axis=-1, keepdims=True)
    e = np.exp(z)
    return e / e.sum(axis=-1, keepdims=True)


def _activate(z: np.ndarray, activation: str) -> np.ndarray:
    if activation == "none":
        return z
    if activation == "tanh":
        return np.tanh(z)
    if activation == "softmax":
        return softmax(z)
    raise ValueError(f"unknown activation {activation!r}")


def _activation_backward(dy: np.ndarray, y: np.ndarray, activation: str) -> np.ndarray:
    if activation == "none":
        return dy
    if activation == "tanh":
        return dy * (1.0 - y * y)
    if activation == "softmax":
        return y * (dy - (dy * y).sum(axis=-1, keepdims=True))
    raise ValueError(f"unknown activation {activation!r}")


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


class Dense:
    """y = act(x @ w + b), w: [d, u], b: [u]."""

    def __init__(self, w: np.ndarray, b: np.ndarray, activation: str = "none"):
        self.w = np.asarray(w, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        if self.w.ndim != 2 or self.b.shape != (self.w.shape[1],):
            raise ShapeError(f"inconsistent dense shapes w{self.w.shape} b{self.b.shape}")
        self.activation = activation
        self.dw = np.zeros_like(self.w)
        self.db = np.zeros_like(self.b)

    @classmethod
    def init(cls, rng, d: int, u: int, activation: str = "none") -> "Dense":
        return cls(glorot_uniform(rng, (d, u), d, u), np.zeros(u), activation)

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        if x.ndim != 2 or x.shape[1] != self.w.shape[0]:
            raise ShapeError(f"dense expected [n, {self.w.shape[0]}], got {x.shape}")
        self._x = x
        self._y = _activate(x @ self.w + self.b, self.activation)
        return self._y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dz = _activation_backward(dy, self._y, self.activation)
        self.dw += self._x.T @ dz
        self.db += dz.sum(axis=0)
        return dz @ self.w.T

    def params(self):
        return {"w": self.w, "b": self.b}

    def grads(self):
        return {"w": self.dw, "b": self.db}


class Lstm:
    """Single-layer LSTM, gate order (input, forget, cell, output).

    W: [4h, d] input weights, U: [4h, h] recurrent weights, b: [4h].
    forward maps [batch, T, d] -> hidden sequence [batch, T, h] from zero
    initial hidden and cell state.
    """

    def __init__(self, W: np.ndarray, U: np.ndarray, b: np.ndarray):
        self.W = np.asarray(W, dtype=np.float64)
        self.U = np.asarray(U, dtype=np.float64)
        self.b = np.asarray(b, dtype=np.float64)
        h4 = self.W.shape[0]
        if h4 % 4 or self.U.shape != (h4, h4 // 4) or self.b.shape != (h4,):
            raise ShapeError(
                f"inconsistent LSTM shapes W{self.W.shape} U{self.U.shape} b{self.b.shape}")
        self.hidden_size = h4 // 4
        self.dW = np.zeros_like(self.W)
        self.dU = np.zeros_like(self.U)
        self.db = np.zeros_like(self.b)

    @classmethod
    def init(cls, rng, d: int, h: int) -> "Lstm":
        W = glorot_uniform(rng, (4 * h, d), d, 4 * h)
        U = glorot_uniform(rng, (4 * h, h), h, 4 * h)
        b = np.zeros(4 * h)
        b[h:2 * h] = 1.0  # forget-gate bias starts open
        return cls(W, U, b)

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        h = self.hidden_size
        if x.ndim != 3 or x.shape[2] != self.W.shape[1]:
            raise ShapeError(f"lstm expected [batch, T, {self.W.shape[1]}], got {x.shape}")
        batch, T, d = x.shape
        # The input projection of every step is one GEMM; its result is the
        # gate cache, [batch, T, 4h], which the loop turns into gate values.
        gates = (x.reshape(batch * T, d) @ self.W.T).reshape(batch, T, 4 * h)
        gates += self.b
        cs = np.zeros((batch, T + 1, h))  # cs[:, t] is the cell state before step t
        tanh_c = np.empty((batch, T, h))
        hs = np.empty((batch, T, h))
        h_prev = np.zeros((batch, h))
        U_T = np.ascontiguousarray(self.U.T)  # OpenBLAS runs a contiguous operand faster
        for t in range(T):
            pre = gates[:, t]
            pre += h_prev @ U_T
            pre[:, :2 * h] = sigmoid(pre[:, :2 * h])
            pre[:, 2 * h:3 * h] = np.tanh(pre[:, 2 * h:3 * h])
            pre[:, 3 * h:] = sigmoid(pre[:, 3 * h:])
            i, f, g, o = pre[:, :h], pre[:, h:2 * h], pre[:, 2 * h:3 * h], pre[:, 3 * h:]
            cs[:, t + 1] = c = f * cs[:, t] + i * g
            tanh_c[:, t] = tc = np.tanh(c)
            hs[:, t] = h_prev = o * tc
        self._x, self._gates, self._cs, self._tanh_c, self._hs = x, gates, cs, tanh_c, hs
        return hs

    def backward(self, dhs: np.ndarray) -> np.ndarray:
        x, gates, cs, tanh_c, hs = self._x, self._gates, self._cs, self._tanh_c, self._hs
        del self._x, self._gates, self._cs, self._tanh_c, self._hs
        batch, T, d = x.shape
        h = self.hidden_size
        dh_next = np.zeros((batch, h))
        dc_next = np.zeros((batch, h))
        for t in range(T - 1, -1, -1):
            dpre = gates[:, t]
            i, f, g, o = dpre[:, :h], dpre[:, h:2 * h], dpre[:, 2 * h:3 * h], dpre[:, 3 * h:]
            tc = tanh_c[:, t]
            dh = dhs[:, t] + dh_next
            do = dh * tc
            dc = dc_next + dh * o * (1.0 - tc * tc)
            di, df, dg = dc * g, dc * cs[:, t], dc * i
            dc_next = dc * f
            # Step t's gate values are dead from here on: its dpre takes their place.
            dpre[:, :h] = di * i * (1.0 - i)
            dpre[:, h:2 * h] = df * f * (1.0 - f)
            dpre[:, 2 * h:3 * h] = dg * (1.0 - g * g)
            dpre[:, 3 * h:] = do * o * (1.0 - o)
            dh_next = dpre @ self.U
        dpre = gates.reshape(batch * T, 4 * h)
        h_prev = tanh_c  # dead after the loop: it takes h_{t-1} for dU
        h_prev[:, 0] = 0.0
        h_prev[:, 1:] = hs[:, :-1]
        # (a.T @ dpre).T, not dpre.T @ a: OpenBLAS runs this operand order faster.
        self.dW += (x.reshape(batch * T, d).T @ dpre).T
        self.dU += (h_prev.reshape(batch * T, h).T @ dpre).T
        self.db += dpre.sum(axis=0)
        return (dpre @ self.W).reshape(x.shape)

    def params(self):
        return {"W": self.W, "U": self.U, "b": self.b}

    def grads(self):
        return {"W": self.dW, "U": self.dU, "b": self.db}


class Conv1d:
    """Valid-padding, stride-1 convolution along time.

    kernels: [c_out, k, c_in], bias: [c_out]; maps [batch, T, c_in] to
    [batch, T-k+1, c_out].
    """

    def __init__(self, kernels: np.ndarray, bias: np.ndarray, activation: str = "none"):
        self.kernels = np.asarray(kernels, dtype=np.float64)
        self.bias = np.asarray(bias, dtype=np.float64)
        if self.kernels.ndim != 3 or self.bias.shape != (self.kernels.shape[0],):
            raise ShapeError(
                f"inconsistent conv shapes kernels{self.kernels.shape} bias{self.bias.shape}")
        self.activation = activation
        self.dkernels = np.zeros_like(self.kernels)
        self.dbias = np.zeros_like(self.bias)

    @classmethod
    def init(cls, rng, c_in: int, c_out: int, k: int, activation: str = "none") -> "Conv1d":
        kernels = glorot_uniform(rng, (c_out, k, c_in), k * c_in, c_out)
        return cls(kernels, np.zeros(c_out), activation)

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        c_out, k, c_in = self.kernels.shape
        if x.ndim != 3 or x.shape[2] != c_in:
            raise ShapeError(f"conv expected [batch, T, {c_in}], got {x.shape}")
        batch, T, _ = x.shape
        if T < k:
            raise ShapeError(f"sequence length {T} shorter than kernel {k}")
        # One GEMM per tap on the flattened input, added in at a shift of j
        # rows.  Rows past t_out mix in the next sample's steps and are dropped.
        n = batch * T
        xf = x.reshape(n, c_in)
        z = xf @ self.kernels[:, 0].T
        for j in range(1, k):
            z[:n - j] += xf[j:] @ self.kernels[:, j].T
        z = z.reshape(batch, T, c_out)[:, :T - k + 1]
        z += self.bias
        self._xf, self._y = xf, _activate(z, self.activation)
        return self._y

    def backward(self, dy: np.ndarray) -> np.ndarray:
        xf, y = self._xf, self._y
        del self._xf, self._y
        dz = _activation_backward(dy, y, self.activation)
        c_out, k, c_in = self.kernels.shape
        batch, t_out, _ = dz.shape
        T, n = t_out + k - 1, xf.shape[0]
        # dz padded with zeros past t_out and flattened like the input, so
        # each tap is one GEMM on row-shifted views; the zero rows cancel
        # the cross-sample terms.
        dzf = np.zeros((batch, T, c_out))
        dzf[:, :t_out] = dz
        dzf = dzf.reshape(n, c_out)
        dxf = np.zeros_like(xf)
        for j in range(k):
            self.dkernels[:, j] += dzf[:n - j].T @ xf[j:]
            dxf[j:] += dzf[:n - j] @ self.kernels[:, j]
        self.dbias += dz.sum(axis=(0, 1))
        return dxf.reshape(batch, T, c_in)

    def params(self):
        return {"kernels": self.kernels, "bias": self.bias}

    def grads(self):
        return {"kernels": self.dkernels, "bias": self.dbias}


class ParamFree:
    """Base of the layers without parameters: params() and grads() are {}."""

    def params(self):
        return {}

    def grads(self):
        return {}


class MaxPool1d(ParamFree):
    """Non-overlapping max pooling along time; trailing remainder dropped."""

    def __init__(self, pool: int = 3):
        self.pool = pool

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        x = np.asarray(x, dtype=np.float64)
        batch, T, c = x.shape
        if T < self.pool:
            raise ShapeError(f"sequence length {T} shorter than pool {self.pool}")
        t_out = T // self.pool
        xr = x[:, :t_out * self.pool].reshape(batch, t_out, self.pool, c)
        self._argmax = xr.argmax(axis=2)
        self._x_shape = x.shape
        return xr.max(axis=2)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        batch, t_out, c = dy.shape
        dxr = np.zeros((batch, t_out, self.pool, c))
        np.put_along_axis(dxr, self._argmax[:, :, None, :], dy[:, :, None, :], axis=2)
        dx = np.zeros(self._x_shape)
        dx[:, :t_out * self.pool] = dxr.reshape(batch, t_out * self.pool, c)
        return dx


class Dropout(ParamFree):
    """Inverted dropout: zero with probability p at train time, scale
    survivors by 1/(1-p); identity in eval mode."""

    def __init__(self, p: float):
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        if not train or self.p == 0.0:
            self._mask = None
            return x
        if rng is None:
            raise ValueError("train-mode dropout needs an rng")
        self._mask = (rng.random(x.shape) >= self.p) / (1.0 - self.p)
        return x * self._mask

    def backward(self, dy: np.ndarray) -> np.ndarray:
        if self._mask is None:
            return dy
        return dy * self._mask


class Flatten(ParamFree):
    """[batch, ...] -> [batch, features]."""

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        self._shape = x.shape
        return x.reshape(x.shape[0], -1)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        return dy.reshape(self._shape)


class SelectLast(ParamFree):
    """[batch, T, h] -> [batch, h]: the hidden state of the last step."""

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        self._shape = x.shape
        return x[:, -1]

    def backward(self, dy: np.ndarray) -> np.ndarray:
        dx = np.zeros(self._shape)
        dx[:, -1] = dy
        return dx


# ---------------------------------------------------------------------------
# Loss

def cross_entropy(probs: np.ndarray, labels: np.ndarray) -> float:
    """Mean negative log-probability of the true class.

    Rows must already be probability vectors (finite, sum 1 within 1e-6);
    the picked probabilities are clamped to [1e-12, 1] before the log.
    """
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    n, n_classes = probs.shape
    if labels.shape != (n,):
        raise ShapeError(f"labels shape {labels.shape} does not match {n} rows")
    if np.any(labels < 0) or np.any(labels >= n_classes):
        raise ValueError(f"label outside [0, {n_classes})")
    if not np.isfinite(probs).all():
        raise ValueError("probs hold non-finite values")
    if np.max(np.abs(probs.sum(axis=1) - 1.0)) > 1e-6:
        raise ValueError("rows of probs must sum to 1 within 1e-6")
    picked = np.clip(probs[np.arange(n), labels], PROB_FLOOR, 1.0)
    return float(-np.mean(np.log(picked)))


def cross_entropy_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean CE)/d(probs); zero where the clamp is active."""
    probs = np.asarray(probs, dtype=np.float64)
    labels = np.asarray(labels)
    n = probs.shape[0]
    picked = probs[np.arange(n), labels]
    dprobs = np.zeros_like(probs)
    live = (picked > PROB_FLOOR) & (picked < 1.0)
    rows = np.arange(n)[live]
    dprobs[rows, labels[live]] = -1.0 / (n * picked[live])
    return dprobs


def accuracy(probs: np.ndarray, labels: np.ndarray) -> float:
    return float(np.mean(probs.argmax(axis=1) == np.asarray(labels)))


# ---------------------------------------------------------------------------
# Optimizer

@dataclass
class AdamState:
    """Adam moments plus the per-update learning-rate decay schedule.

    The effective rate on update number t (counting from 0) is
    lr0 / (1 + decay * t); bias correction uses the post-increment count.
    """

    lr0: float = 0.01
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    decay: float = 1e-6
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)

    @property
    def effective_lr(self) -> float:
        return self.lr0 / (1.0 + self.decay * self.t)


def adam_step(params: dict, grads: dict, state: AdamState) -> None:
    """One Adam update, in place on the arrays in params."""
    if set(params) != set(grads):
        raise ShapeError(f"param/grad keys differ: {sorted(set(params) ^ set(grads))}")
    lr = state.effective_lr
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    correm = 1.0 - b1 ** state.t
    correv = 1.0 - b2 ** state.t
    for name, p in params.items():
        g = grads[name]
        if g.shape != p.shape:
            raise ShapeError(f"gradient shape {g.shape} != param shape {p.shape} for {name!r}")
        if name not in state.m:
            state.m[name] = np.zeros_like(p)
            state.v[name] = np.zeros_like(p)
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        p -= lr * (m / correm) / (np.sqrt(v / correv) + state.eps)
