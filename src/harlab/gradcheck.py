"""Finite-difference verification of every hand-written backward pass.

Analytic gradients are compared against central differences (step 1e-5)
parameter by parameter; the report carries the max relative error per
block.  Linear layers must agree within 1e-5, everything else within
1e-4.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import models, nn
from .rng import make_rng

FD_STEP = 1e-5
TOL_LINEAR = 1e-5
TOL_NONLINEAR = 1e-4


@dataclass(frozen=True)
class CheckResult:
    name: str
    max_rel_error: float
    tolerance: float

    @property
    def passed(self) -> bool:
        return self.max_rel_error < self.tolerance


def finite_difference(loss_fn, arr: np.ndarray, step: float = FD_STEP) -> np.ndarray:
    """Central-difference gradient of loss_fn w.r.t. every entry of arr."""
    grad = np.zeros_like(arr)
    it = np.nditer(arr, flags=["multi_index"])
    while not it.finished:
        idx = it.multi_index
        orig = arr[idx]
        arr[idx] = orig + step
        up = loss_fn()
        arr[idx] = orig - step
        down = loss_fn()
        arr[idx] = orig
        grad[idx] = (up - down) / (2.0 * step)
        it.iternext()
    return grad


def max_relative_error(analytic: np.ndarray, numeric: np.ndarray) -> float:
    denom = np.maximum(np.abs(analytic) + np.abs(numeric), 1e-8)
    return float(np.max(np.abs(analytic - numeric) / denom))


def compare_param_blocks(loss_fn, params: dict, analytic: dict) -> float:
    worst = 0.0
    for name, arr in params.items():
        numeric = finite_difference(loss_fn, arr)
        worst = max(worst, max_relative_error(analytic[name], numeric))
    return worst


def _projection_check(name: str, layer, x: np.ndarray, proj: np.ndarray,
                      tol: float) -> CheckResult:
    """One layer's parameter gradients under a fixed random projection of
    its output: a loss linear in the output, which exposes every path."""
    def loss():
        return float(np.sum(layer.forward(x, train=True) * proj))

    loss()
    for g in layer.grads().values():
        g[...] = 0.0
    layer.backward(proj)
    return CheckResult(name, compare_param_blocks(loss, layer.params(), layer.grads()), tol)


def _cross_entropy_check(name: str, net: models.Network, x: np.ndarray,
                         labels: np.ndarray, seed: int) -> CheckResult:
    """A network's parameter gradients under mean cross-entropy of its
    train-mode softmax output, the dropout mask frozen by reseeding per call."""
    def forward():
        return net.forward(x, train=True, rng=make_rng(seed, "gradcheck", "dropmask"))

    probs = forward()
    net.zero_grads()
    net.backward(nn.cross_entropy_grad(probs, labels))
    worst = compare_param_blocks(lambda: nn.cross_entropy(forward(), labels),
                                 net.params(), net.grads())
    return CheckResult(name, worst, TOL_NONLINEAR)


def check_dense(seed: int = 0, activation: str = "none") -> CheckResult:
    rng = make_rng(seed, "gradcheck", "dense", activation)
    layer = nn.Dense.init(rng, 4, 3, activation)
    x = rng.standard_normal((5, 4))
    return _projection_check(f"dense[{activation}]", layer, x,
                             rng.standard_normal((5, 3)), TOL_LINEAR)


def check_lstm(seed: int = 0, T: int = 7, d: int = 5, h: int = 4) -> CheckResult:
    rng = make_rng(seed, "gradcheck", "lstm")
    layer = nn.Lstm.init(rng, d, h)
    x = rng.standard_normal((2, T, d))
    return _projection_check("lstm", layer, x, rng.standard_normal((2, T, h)), TOL_NONLINEAR)


def check_conv_pool_dense(seed: int = 0) -> CheckResult:
    """conv1d -> maxpool -> flatten -> dense, as a Network without a spec."""
    rng = make_rng(seed, "gradcheck", "convstack")
    conv = nn.Conv1d.init(rng, 3, 4, 3, activation="tanh")
    x = rng.standard_normal((4, 12, 3))
    t_pool = (12 - 3 + 1) // 3
    net = models.Network(None, [("conv", conv), ("pool", nn.MaxPool1d(3)),
                                ("flatten", nn.Flatten()),
                                ("dense", nn.Dense.init(rng, t_pool * 4, 7))])
    return _cross_entropy_check("conv1d+maxpool+dense+softmax+ce", net, x,
                                rng.integers(0, 7, 4), seed)


def check_dropout(seed: int = 0) -> CheckResult:
    """Train-mode dropout with the mask frozen by reseeding per call."""
    rng = make_rng(seed, "gradcheck", "dropout")
    layer = nn.Dropout(0.2)
    x = rng.standard_normal((6, 5))
    proj = rng.standard_normal((6, 5))

    def loss():
        out = layer.forward(x, train=True, rng=make_rng(seed, "gradcheck", "dropmask"))
        return float(np.sum(out * proj))

    loss()
    analytic = layer.backward(proj)
    numeric = finite_difference(loss, x)
    return CheckResult("dropout[train]", max_relative_error(analytic, numeric), TOL_LINEAR)


def check_architecture(kind: str, seed: int = 0) -> CheckResult:
    spec = models.ModelSpec(kind=kind, timesteps=9, n_features=5, hidden_size=4,
                            conv_filters=(4, 3) if kind != "lstm" else (),
                            seed=seed)
    net = models.build(spec)
    rng = make_rng(seed, "gradcheck", "arch", kind)
    x = rng.standard_normal((3, spec.timesteps, spec.n_features))
    return _cross_entropy_check(f"architecture[{kind}]", net, x,
                                rng.integers(0, spec.n_classes, 3), seed)


def run_standard_checks(seed: int = 0) -> list[CheckResult]:
    """Every layer and every full architecture at toy sizes."""
    results = [
        check_dense(seed, "none"),
        check_dense(seed, "tanh"),
        check_lstm(seed),
        check_conv_pool_dense(seed),
        check_dropout(seed),
    ]
    for kind in ("lstm", "cnn", "lstm_cnn"):
        results.append(check_architecture(kind, seed))
    return results
