"""The three classifier architectures and their training loop.

Kinds:
  lstm      LSTM -> last hidden state -> dropout -> dense
  cnn       conv1d -> conv1d -> maxpool -> flatten -> dense
  lstm_cnn  LSTM (full sequence) -> conv1d -> conv1d -> maxpool -> flatten
            -> dense

Every kind ends in a dense head without activation.  Network.forward
applies softmax to the head's logits, and Network.backward takes the
gradient w.r.t. those logits, nn.cross_entropy_grad, so the softmax and
the cross-entropy are differentiated as one step.

Training is deterministic given (spec, seed, data order): weight init,
batch shuffling, and dropout masks all come from streams derived from
the spec seed.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import nn
from .core import FeatureTensor, N_CLASSES
from .rng import make_rng

KINDS = ("lstm", "cnn", "lstm_cnn")

_DEFAULT_CONV_FILTERS = {"cnn": (20, 32), "lstm_cnn": (50, 32)}


class ModelError(ValueError):
    """Raised on invalid model specifications or shape mismatches."""


def _is_int(value) -> bool:
    """An int or numpy integer, and not a bool (a JSON true or false)."""
    return isinstance(value, (int, np.integer)) and not isinstance(value, bool)


@dataclass(frozen=True)
class ModelSpec:
    """Architecture and training hyperparameters for one classifier."""

    kind: str
    timesteps: int = 100
    n_features: int = 64
    hidden_size: int = 50            # LSTM variants; candidate sizes 20 and 50
    conv_filters: tuple[int, int] = ()
    kernel_size: int = 3
    pool_size: int = 3
    dropout: float = 0.2
    n_classes: int = 7
    lr0: float = 0.01
    epochs: int = 50
    batch_size: int = 32
    seed: int = 42

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ModelError(f"unknown model kind {self.kind!r}; valid: {', '.join(KINDS)}")
        if self.kind in _DEFAULT_CONV_FILTERS and not self.conv_filters:
            object.__setattr__(self, "conv_filters", _DEFAULT_CONV_FILTERS[self.kind])
        object.__setattr__(self, "conv_filters", tuple(self.conv_filters))
        if self.n_classes != N_CLASSES:
            raise ModelError(f"n_classes must be {N_CLASSES}, got {self.n_classes}")
        for name in ("timesteps", "n_features", "hidden_size", "kernel_size", "pool_size",
                     "epochs", "batch_size", "seed"):
            value = getattr(self, name)
            if not _is_int(value):
                raise ModelError(f"{name} must be an integer, got {value!r}")
            if value < 1 and name != "seed":
                raise ModelError(f"{name} must be >= 1, got {value}")
        if self.kind != "lstm" and (len(self.conv_filters) != 2 or not all(
                _is_int(f) and f >= 1 for f in self.conv_filters)):
            raise ModelError(f"kind {self.kind!r} needs two conv filter counts >= 1, "
                             f"got {self.conv_filters}")
        if isinstance(self.dropout, bool) or not 0.0 <= self.dropout < 1.0:
            raise ModelError("dropout must be in [0, 1)")
        if isinstance(self.lr0, bool) or not (math.isfinite(self.lr0) and self.lr0 > 0):
            raise ModelError(f"lr0 must be finite and > 0, got {self.lr0}")

    @property
    def input_shape(self) -> tuple[int, int]:
        return (self.timesteps, self.n_features)


@dataclass(frozen=True)
class EpochStats:
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float


class Network:
    """An ordered stack of named layers whose last output is the logits;
    forward returns their softmax, backward takes d(loss)/d(logits)."""

    def __init__(self, spec: ModelSpec, layers: list[tuple[str, object]]):
        self.spec = spec
        self._layers = layers

    def forward(self, x: np.ndarray, train: bool = False, rng=None) -> np.ndarray:
        for _, layer in self._layers:
            x = layer.forward(x, train, rng)
        return nn.softmax(x)

    def backward(self, dlogits: np.ndarray) -> None:
        for _, layer in reversed(self._layers):
            dlogits = layer.backward(dlogits)

    def params(self) -> dict[str, np.ndarray]:
        return {f"{lname}.{pname}": arr for lname, layer in self._layers
                for pname, arr in layer.params().items()}

    def grads(self) -> dict[str, np.ndarray]:
        return {f"{lname}.{pname}": arr for lname, layer in self._layers
                for pname, arr in layer.grads().items()}

    def zero_grads(self) -> None:
        for g in self.grads().values():
            g[...] = 0.0


def _layer_plan(spec: ModelSpec) -> list[tuple[str, type, tuple]]:
    """spec's network, input first: each layer's name, nn class and the
    arguments its init takes after the rng."""
    T, d = spec.input_shape
    h, k, pool, C = spec.hidden_size, spec.kernel_size, spec.pool_size, spec.n_classes
    plan = [] if spec.kind == "cnn" else [("lstm", nn.Lstm, (d, h))]
    if spec.kind == "lstm":
        return plan + [("select_last", nn.SelectLast, ()),
                       ("dropout", nn.Dropout, (spec.dropout,)), ("dense", nn.Dense, (h, C))]
    (f1, f2), t = spec.conv_filters, T - 2 * (k - 1)
    if t < pool:
        raise ModelError(f"timesteps {T} too short for conv/pool stack")
    return plan + [("conv1", nn.Conv1d, (h if plan else d, f1, k)),
                   ("conv2", nn.Conv1d, (f1, f2, k)), ("pool", nn.MaxPool1d, (pool,)),
                   ("flatten", nn.Flatten, ()), ("dense", nn.Dense, (t // pool * f2, C))]


def build(spec: ModelSpec) -> Network:
    """Instantiate an untrained network with seeded initial weights."""
    rng = make_rng(spec.seed, "init")
    layers = [(name, cls.init(rng, *args)) for name, cls, args in _layer_plan(spec)]
    layers[0][1].needs_input_grad = False  # nothing reads the gradient of the input
    return Network(spec, layers)


def check_weight_shapes(spec: ModelSpec, shapes: dict[str, tuple]) -> dict[str, tuple]:
    """Raise ModelError unless `shapes` (block name -> shape) are those of
    build(spec)'s params(), which it returns in that order, as integers
    (so a float or bool dimension is a mismatch); allocates nothing of the
    spec's size."""
    expected = {f"{name}.{param}": shape for name, cls, args in _layer_plan(spec)
                for param, shape in cls.shapes(*args).items()}
    for name in sorted(set(shapes) | set(expected)):
        if shapes.get(name) != expected.get(name) or not all(map(_is_int, shapes[name])):
            raise ModelError(f"weight block {name!r}: file has "
                             f"{shapes.get(name, 'no block')}, spec needs "
                             f"{expected.get(name, 'no block')}")
    return expected


@dataclass
class TrainedModel:
    """A trained network, its input standardisation and its per-epoch history.

    input_mean and input_scale are per-feature vectors of length
    n_features, fitted on the training split; the network sees
    (x - input_mean) / input_scale, in training and in every prediction.
    The mean must be finite and the scale positive.
    """

    spec: ModelSpec
    network: Network
    input_mean: np.ndarray
    input_scale: np.ndarray
    history: list[EpochStats] = field(default_factory=list)

    def __post_init__(self):
        for name in ("input_mean", "input_scale"):
            vec = np.asarray(getattr(self, name), dtype=np.float64)
            if vec.shape != (self.spec.n_features,):
                raise ModelError(
                    f"{name} has shape {vec.shape}, expected ({self.spec.n_features},)")
            setattr(self, name, vec)
        if not (np.isfinite(self.input_mean).all() and np.isfinite(self.input_scale).all()
                and (self.input_scale > 0).all()):
            raise ModelError("input mean must be finite and input scale positive")

    @property
    def weights(self) -> dict[str, np.ndarray]:
        return self.network.params()

    def _standardised(self, xs) -> np.ndarray:
        """The [T, F] arrays xs stacked as one float64 array, standardised."""
        x = np.array(xs, dtype=np.float64)
        x -= self.input_mean
        x /= self.input_scale
        return x

    def predict_probs(self, x) -> np.ndarray:
        """Eval-mode probabilities [n, n_classes] of raw inputs x, an
        [n, T, F] array or a sequence of n [T, F] arrays.

        Stacks and standardises one chunk of spec.batch_size samples at a
        time, so the standardised copy and the layer caches are no larger
        than a training step's.  The samples are checked first
        (check_samples, as the "input" split): one of another shape or
        with a non-finite value raises ModelError before any is predicted.
        """
        check_samples(x, self.spec, "input")
        step = self.spec.batch_size
        probs = np.empty((len(x), self.spec.n_classes))
        for start in range(0, len(x), step):
            probs[start:start + step] = self.network.forward(
                self._standardised(x[start:start + step]))
        return probs


def stack_features(tensors) -> tuple[np.ndarray, np.ndarray]:
    """Stack FeatureTensors into (x [n, T, F], labels [n]); shapes must agree."""
    tensors = list(tensors)
    if not tensors:
        raise ModelError("empty sample list")
    shape = tensors[0].values.shape
    for t in tensors:
        if t.values.shape != shape:
            raise ModelError(f"inconsistent sample shapes {t.values.shape} vs {shape}")
    x = np.stack([t.values for t in tensors])
    y = np.array([t.label for t in tensors], dtype=np.int64)
    return x, y


def _fit_standardisation(xs) -> tuple[np.ndarray, np.ndarray]:
    """Per-feature mean and standard deviation of the [T, F] samples xs
    over every sample and step.

    Two passes, one sample at a time, so no temporary of the split's size
    is made.  A zero deviation (a constant feature) becomes 1.
    """
    count = len(xs) * xs[0].shape[0]
    mean = sum(sample.sum(axis=0) for sample in xs) / count
    var = sum(((sample - mean) ** 2).sum(axis=0) for sample in xs) / count
    scale = np.sqrt(var)
    scale[scale == 0.0] = 1.0
    return mean, scale


def check_samples(xs, spec: ModelSpec, name: str) -> None:
    """Raise ModelError at the first of the arrays xs whose shape is not
    spec.input_shape or that holds a non-finite value, which is named by
    the split `name`, the sample, the step and the feature."""
    for i, sample in enumerate(xs):
        if np.shape(sample) != spec.input_shape:
            raise ModelError(f"input shape {np.shape(sample)} != model input "
                             f"{spec.input_shape}")
        if not np.isfinite(sample).all():
            step, feature = np.argwhere(~np.isfinite(sample))[0]
            raise ModelError(f"{name} split: non-finite value {sample[step, feature]} "
                             f"at sample {i}, step {step}, feature {feature}")


def split_inputs(samples, spec: ModelSpec, name: str) -> tuple[list[np.ndarray], np.ndarray]:
    """The [T, F] arrays, kept as they are, and int labels of the split
    `name`, an iterable of FeatureTensor.  An empty split, or arrays that
    check_samples rejects, raise ModelError."""
    tensors = list(samples)
    if not tensors:
        raise ModelError(f"empty {name} split")
    xs = [t.values for t in tensors]
    check_samples(xs, spec, name)
    return xs, np.array([t.label for t in tensors], dtype=np.int64)


def train(net: Network, train_set, val_set) -> TrainedModel:
    """Mini-batch Adam training with seeded shuffling and dropout.

    train_set/val_set are iterables of FeatureTensor.  No stacked copy of
    either split is made: each batch is stacked from its shuffled samples,
    and validation runs through predict_probs one chunk at a time.  Inputs
    are standardised per feature with the mean and standard deviation of
    the training split only; the returned model keeps both vectors and
    applies them in predict_probs.  History records one row per epoch.  A
    sample of another shape than spec.input_shape, or a non-finite input
    value, raises ModelError before anything is fitted (split_inputs); a
    training batch or validation pass whose probabilities are not finite
    raises ModelError naming the epoch and the batch or "validation".
    """
    spec = net.spec
    x_train, y_train = split_inputs(train_set, spec, "train")
    x_val, y_val = split_inputs(val_set, spec, "validation")
    shuffle_rng = make_rng(spec.seed, "shuffle")
    dropout_rng = make_rng(spec.seed, "dropout")
    state = nn.AdamState(lr0=spec.lr0)
    n = len(x_train)
    model = TrainedModel(spec, net, *_fit_standardisation(x_train))
    for epoch in range(1, spec.epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        hit_sum = 0.0
        for batch, start in enumerate(range(0, n, spec.batch_size), start=1):
            idx = order[start:start + spec.batch_size]
            xb, yb = model._standardised([x_train[i] for i in idx]), y_train[idx]
            probs = net.forward(xb, train=True, rng=dropout_rng)
            try:
                loss = nn.cross_entropy(probs, yb)
            except ValueError as exc:
                raise ModelError(f"training failed at epoch {epoch}, "
                                 f"batch {batch}: {exc}") from None
            loss_sum += loss * idx.size
            hit_sum += nn.accuracy(probs, yb) * idx.size
            net.zero_grads()
            net.backward(nn.cross_entropy_grad(probs, yb))
            nn.adam_step(net.params(), net.grads(), state)
        val_probs = model.predict_probs(x_val)
        try:
            val_loss = nn.cross_entropy(val_probs, y_val)
        except ValueError as exc:
            raise ModelError(f"training failed at epoch {epoch}, validation: {exc}") from None
        model.history.append(EpochStats(
            train_loss=loss_sum / n,
            train_acc=hit_sum / n,
            val_loss=val_loss,
            val_acc=nn.accuracy(val_probs, y_val),
        ))
    return model


def decimate(x: FeatureTensor, k: int) -> FeatureTensor:
    """Keep every k-th timestep; ceil(T/k) rows survive."""
    if k < 1:
        raise ModelError(f"decimation factor must be >= 1, got {k}")
    if k == 1:
        return x
    # A copy, so the full-length array can be freed.
    return x.with_values(np.ascontiguousarray(x.values[::k]), f"decimate:{k}")


def decimate_all(tensors, k: int) -> list[FeatureTensor]:
    return [decimate(t, k) for t in tensors]


def infer_decimation(data_timesteps: int, model_timesteps: int) -> int:
    """Factor k with ceil(data/k) == model timesteps, if one exists."""
    if data_timesteps < model_timesteps:
        raise ModelError(
            f"data has {data_timesteps} timesteps but the model wants {model_timesteps}")
    k = math.ceil(data_timesteps / model_timesteps)
    if math.ceil(data_timesteps / k) != model_timesteps:
        raise ModelError(
            f"no decimation factor maps {data_timesteps} timesteps to {model_timesteps}")
    return k
