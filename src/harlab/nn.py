"""Minimal from-scratch neural toolkit: dense, LSTM, 1-D conv, pooling,
dropout, last-step selection, softmax cross-entropy, and Adam, with
hand-written backward passes.

Every layer has one protocol.  forward(x, train=False, rng=None) returns
the output for the batch x; only Dropout reads rng.  backward(dy) returns
the gradient w.r.t. the last train-mode forward's input and adds the
parameter gradients into grads(); Lstm and Conv1d form no input gradient
and return None when needs_input_grad is False, which models.build sets
on a network's first layer.  params() and grads() map names to arrays
with the same keys and shapes ({} for parameter-free layers).

Layers operate on batched float64 arrays.  Sequence layers take
[batch, time, features]; dense takes [batch, features].  A train-mode
forward caches what backward needs, so forward/backward pairs must not
interleave on one layer instance; an eval-mode forward keeps no array on
the layer.  Lstm and Conv1d drop their input and output caches in
backward, so one backward at most follows each train-mode forward.  Lstm
keeps its step-major, batch-last gate and cell arrays for the next
same-shape one to refill, and returns a [batch, time, h] view.

No layer applies softmax: a classifier's head emits logits, and
cross_entropy_grad() is the loss gradient w.r.t. them.
"""
from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

PROB_FLOOR = 1e-12
_GRAD_STEPS = 2  # steps per weight-gradient product in Lstm.backward; 2 ran fastest


class ShapeError(ValueError):
    """Raised when array shapes disagree with a layer's parameters."""


def sigmoid(x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    """1 / (1 + exp(-clip(x, -500, 500))) bit for bit, in one temporary or
    in out (which may be x): past x = 500, 1 + exp(-x) is 1.0 without the
    lower clip too."""
    z = np.negative(x, out=out)
    np.minimum(z, 500.0, out=z)
    np.exp(z, out=z)
    z += 1.0
    return np.reciprocal(z, out=z)


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
    raise ValueError(f"unknown activation {activation!r}")


def _activation_backward(dy: np.ndarray, y: np.ndarray, activation: str, out=None) -> np.ndarray:
    if activation == "none":
        return dy if out is None else np.positive(dy, out=out)
    if activation == "tanh":
        z = np.multiply(y, y, out=out)
        np.subtract(1.0, z, out=z)
        return np.multiply(dy, z, out=z)
    raise ValueError(f"unknown activation {activation!r}")


def glorot_uniform(rng: np.random.Generator, shape: tuple[int, ...],
                   fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, shape)


class Dense:
    """y = act(x @ w + b), w: [d, u], b: [u]; act is "none" or "tanh"."""

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
        y = _activate(x @ self.w + self.b, self.activation)
        self._x, self._y = (x, y) if train else (None, None)
        return y

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
    initial hidden and cell state, as a view of a [T + 1, h, batch] array.
    Arrays are step-major and batch-last, so each gate of a step is one
    contiguous [h, batch] block.  A train-mode forward keeps gates
    [T, 4h, batch] and cells [T + 1, h, batch] for backward, which
    recomputes tanh of each cell and turns the two into gate gradients and
    hidden states, and for the next same-shape train-mode forward to
    refill.
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
        self.needs_input_grad = True
        self._gates = self._cs = None

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
        # Refill the last train-mode forward's arrays if the shape matches; eval drops them.
        gates, cs = self._gates, self._cs
        self._gates = self._cs = None
        if not train or gates is None or gates.shape != (T, 4 * h, batch):
            gates = cs = None  # freed before the new ones are made
            gates, cs = np.empty((T, 4 * h, batch)), np.empty((T + 1, h, batch))
        # The input projection of every step is one batched GEMM; its result
        # is the gate cache, [T, 4h, batch], which the loop turns into gate
        # values.  OpenBLAS runs it faster on a contiguous [T, d, batch] copy.
        np.matmul(self.W, np.ascontiguousarray(x.transpose(1, 2, 0)), out=gates)
        gates += self.b[:, None]
        cs[0] = 0.0  # cs[t]: cell state before step t
        hs = np.empty((T + 1, h, batch))  # hs[t]: hidden state before step t
        hs[0] = 0.0
        tanh_c = np.empty((h, batch))
        for t in range(T):
            pre = gates[t]
            pre += self.U @ hs[t]
            i, f, g, o = pre[:h], pre[h:2 * h], pre[2 * h:3 * h], pre[3 * h:]
            sigmoid(pre[:2 * h], out=pre[:2 * h])
            np.tanh(g, out=g)
            sigmoid(o, out=o)
            c = np.multiply(f, cs[t], out=cs[t + 1])
            c += i * g
            np.multiply(o, np.tanh(c, out=tanh_c), out=hs[t + 1])
        if train:
            self._x, self._gates, self._cs = x, gates, cs
        return hs[1:].transpose(2, 0, 1)

    def backward(self, dhs: np.ndarray) -> np.ndarray | None:
        x, gates, cs = self._x, self._gates, self._cs
        del self._x
        batch, T, d = x.shape
        h = self.hidden_size
        dh_next = np.zeros((h, batch))
        dc_next = np.zeros((h, batch))
        tc = np.empty((h, batch))
        for t in range(T - 1, -1, -1):
            dpre = gates[t]
            i, f, g, o = dpre[:h], dpre[h:2 * h], dpre[2 * h:3 * h], dpre[3 * h:]
            np.tanh(cs[t + 1], out=tc)  # as the forward computed it, bit for bit
            dh = dhs[:, t].T + dh_next
            do = dh * tc
            dc = dc_next + dh * o * (1.0 - tc * tc)
            di, df, dg = dc * g, dc * cs[t], dc * i
            dc_next = dc * f
            # cs[t + 1] is dead from here on: it takes h_t, which dU reads after the loop.
            np.multiply(o, tc, out=cs[t + 1])
            # Step t's gate values are dead from here on: its dpre takes their place.
            np.multiply(di * i, 1.0 - i, out=i)
            np.multiply(df * f, 1.0 - f, out=f)
            np.multiply(dg, 1.0 - g * g, out=g)
            np.multiply(do * o, 1.0 - o, out=o)
            dh_next = self.U.T @ dpre
        self.db += gates.sum(axis=(0, 2))
        dx = np.empty(x.shape) if self.needs_input_grad else None
        # dW, dU and dx over a few steps at a time, from [4h, steps * batch]
        # copies of the gate gradients: a whole transposed copy would double them.
        for t0 in range(0, T, _GRAD_STEPS):
            t1 = min(t0 + _GRAD_STEPS, T)
            dpre = gates[t0:t1].transpose(1, 0, 2).reshape(4 * h, -1)
            self.dW += dpre @ x[:, t0:t1].transpose(1, 0, 2).reshape(-1, d)
            self.dU += dpre @ cs[t0:t1].transpose(0, 2, 1).reshape(-1, h)
            if dx is not None:
                dx[:, t0:t1] = (dpre.T @ self.W).reshape(t1 - t0, batch, d).transpose(1, 0, 2)
        return dx

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
        self.needs_input_grad = True

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
        y = _activate(z, self.activation)
        if train:
            self._xf, self._y = xf, y
        return y

    def backward(self, dy: np.ndarray) -> np.ndarray | None:
        xf = self._xf
        c_out, k, c_in = self.kernels.shape
        batch, t_out, _ = dy.shape
        T, n = t_out + k - 1, xf.shape[0]
        # dz padded with zeros past t_out and flattened like the input, so
        # each tap is one GEMM on row-shifted views; the zero rows cancel
        # the cross-sample terms.
        dzf = np.empty((batch, T, c_out))
        dzf[:, t_out:] = 0.0
        dz = _activation_backward(dy, self._y, self.activation, out=dzf[:, :t_out])
        del self._xf, self._y
        self.dbias += dz.sum(axis=(0, 1))
        dzf = dzf.reshape(n, c_out)
        for j in range(k):
            self.dkernels[:, j] += dzf[:n - j].T @ xf[j:]
        if not self.needs_input_grad:
            return None
        dxf = dzf @ self.kernels[:, 0]
        for j in range(1, k):
            dxf[j:] += dzf[:n - j] @ self.kernels[:, j]
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
        self._argmax, self._x_shape = (xr.argmax(axis=2), x.shape) if train else (None, None)
        return xr.max(axis=2)

    def backward(self, dy: np.ndarray) -> np.ndarray:
        batch, t_out, c = dy.shape
        dx = np.zeros(self._x_shape)
        dxr = dx[:, :t_out * self.pool].reshape(batch, t_out, self.pool, c)  # a view of dx
        np.put_along_axis(dxr, self._argmax[:, :, None, :], dy[:, :, None, :], axis=2)
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
    return float(np.mean(sample_losses(probs, labels)))


def sample_losses(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Per-row -log of the true class's probability, clamped to [PROB_FLOOR, 1]."""
    picked = np.clip(probs[np.arange(len(labels)), labels], PROB_FLOOR, 1.0)
    return -np.log(picked)


def cross_entropy_grad(probs: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """d(mean CE)/d(logits) of a softmax head, given its probabilities:
    (probs - onehot(labels)) / n.  The loss's clamp does not enter it."""
    grad = np.array(probs, dtype=np.float64)
    n = grad.shape[0]
    grad[np.arange(n), labels] -= 1.0
    grad /= n
    return grad


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
