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
from .core import ActivityClass, FeatureTensor, N_CLASSES
from .rng import make_rng

KINDS = ("lstm", "cnn", "lstm_cnn")

_DEFAULT_CONV_FILTERS = {"cnn": (20, 32), "lstm_cnn": (50, 32)}


class ModelError(ValueError):
    """Raised on invalid model specifications or shape mismatches."""


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
                     "epochs", "batch_size"):
            if getattr(self, name) < 1:
                raise ModelError(f"{name} must be >= 1, got {getattr(self, name)}")
        if self.kind != "lstm" and (len(self.conv_filters) != 2 or min(self.conv_filters) < 1):
            raise ModelError(f"kind {self.kind!r} needs two conv filter counts >= 1, "
                             f"got {self.conv_filters}")
        if not 0.0 <= self.dropout < 1.0:
            raise ModelError("dropout must be in [0, 1)")

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

    def set_weights(self, weights: dict[str, np.ndarray]) -> None:
        params = self.params()
        if set(weights) != set(params):
            raise ModelError(
                f"weight names do not match spec: {sorted(set(weights) ^ set(params))}")
        for name, arr in weights.items():
            if params[name].shape != arr.shape:
                raise ModelError(
                    f"weight {name!r} has shape {arr.shape}, expected {params[name].shape}")
            params[name][...] = arr


def count_params(net: Network) -> int:
    return sum(arr.size for arr in net.params().values())


def build(spec: ModelSpec) -> Network:
    """Instantiate an untrained network with seeded initial weights."""
    rng = make_rng(spec.seed, "init")
    T, d = spec.input_shape
    k, pool, C = spec.kernel_size, spec.pool_size, spec.n_classes
    layers: list[tuple[str, object]] = []
    if spec.kind != "cnn":
        layers.append(("lstm", nn.Lstm.init(rng, d, spec.hidden_size)))
    if spec.kind == "lstm":
        layers.append(("select_last", nn.SelectLast()))
        layers.append(("dropout", nn.Dropout(spec.dropout)))
        layers.append(("dense", nn.Dense.init(rng, spec.hidden_size, C)))
    else:
        c_in, t = (d if spec.kind == "cnn" else spec.hidden_size), T
        f1, f2 = spec.conv_filters
        layers.append(("conv1", nn.Conv1d.init(rng, c_in, f1, k, "tanh")))
        t = t - k + 1
        layers.append(("conv2", nn.Conv1d.init(rng, f1, f2, k, "tanh")))
        t = t - k + 1
        if t < pool:
            raise ModelError(f"timesteps {T} too short for conv/pool stack")
        layers.append(("pool", nn.MaxPool1d(pool)))
        t = t // pool
        layers.append(("flatten", nn.Flatten()))
        layers.append(("dense", nn.Dense.init(rng, t * f2, C)))
    layers[0][1].needs_input_grad = False  # nothing reads the gradient of the input
    return Network(spec, layers)


@dataclass
class TrainedModel:
    """A trained network, its input standardisation and its per-epoch history.

    input_mean and input_scale are per-feature vectors of length
    n_features, fitted on the training split; the network sees
    (x - input_mean) / input_scale, in training and in every prediction.
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

    @property
    def weights(self) -> dict[str, np.ndarray]:
        return self.network.params()

    def predict_probs(self, x) -> np.ndarray:
        """Eval-mode probabilities [n, n_classes] of raw inputs x, an
        [n, T, F] array or a sequence of n [T, F] arrays.

        Stacks and standardises one chunk of spec.batch_size samples at a
        time, so the standardised copy and the layer caches are no larger
        than a training step's.  A chunk whose [T, F] is not the spec's
        input shape raises ModelError.
        """
        step = self.spec.batch_size
        chunks = []
        for start in range(0, len(x), step):
            xb = np.array(x[start:start + step], dtype=np.float64)
            if xb.shape[1:] != self.spec.input_shape:
                raise ModelError(f"input shape {xb.shape[1:]} != model input "
                                 f"{self.spec.input_shape}")
            xb -= self.input_mean
            xb /= self.input_scale
            chunks.append(self.network.forward(xb))
        return np.vstack(chunks)


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


def _split_samples(data, name: str, spec: ModelSpec) -> tuple[list[np.ndarray], np.ndarray]:
    """The [T, F] sample arrays and int labels of one split, checked.

    data is an iterable of FeatureTensor, whose arrays are kept as they
    are, or an (x [n, T, F], y [n]) pair, kept as views of x's rows.  An
    empty split, samples of unequal or wrong shape, and a non-finite value
    (named by sample, step and feature) raise ModelError.
    """
    if isinstance(data, tuple) and len(data) == 2 and isinstance(data[0], np.ndarray):
        xs, y = list(np.asarray(data[0], dtype=np.float64)), np.asarray(data[1])
    else:
        tensors = list(data)
        xs = [t.values for t in tensors]
        y = np.array([t.label for t in tensors], dtype=np.int64)
    if not xs:
        raise ModelError(f"empty {name} split")
    shape = xs[0].shape
    for sample in xs:
        if sample.shape != shape:
            raise ModelError(f"inconsistent sample shapes {sample.shape} vs {shape}")
    if shape != spec.input_shape:
        raise ModelError(f"{name} data shape {shape} != spec {spec.input_shape}")
    for i, sample in enumerate(xs):
        if not np.isfinite(sample).all():
            step, feature = np.argwhere(~np.isfinite(sample))[0]
            raise ModelError(f"{name} split: non-finite value {sample[step, feature]} "
                             f"at sample {i}, step {step}, feature {feature}")
    return xs, y


def train(net: Network, train_set, val_set) -> TrainedModel:
    """Mini-batch Adam training with seeded shuffling and dropout.

    train_set/val_set are iterables of FeatureTensor (or pre-stacked
    (x, y) pairs).  No stacked copy of either split is made: each batch
    is stacked from its shuffled samples, and validation runs through
    predict_probs one chunk at a time.  Inputs are standardised per
    feature with the mean and standard deviation of the training split
    only; the returned model keeps both vectors and applies them in
    predict_probs.  History records one row per epoch.  A non-finite input
    value raises ModelError naming its split, sample, step and feature,
    before anything is fitted; a training batch or validation pass whose
    probabilities are not finite raises ModelError naming the epoch and
    the batch or "validation".
    """
    spec = net.spec
    x_train, y_train = _split_samples(train_set, "train", spec)
    x_val, y_val = _split_samples(val_set, "validation", spec)
    shuffle_rng = make_rng(spec.seed, "shuffle")
    dropout_rng = make_rng(spec.seed, "dropout")
    state = nn.AdamState(lr0=spec.lr0)
    n = len(x_train)
    mean, scale = _fit_standardisation(x_train)
    model = TrainedModel(spec, net, mean, scale)
    for epoch in range(1, spec.epochs + 1):
        order = shuffle_rng.permutation(n)
        loss_sum = 0.0
        hit_sum = 0.0
        for batch, start in enumerate(range(0, n, spec.batch_size), start=1):
            idx = order[start:start + spec.batch_size]
            xb, yb = np.stack([x_train[i] for i in idx]), y_train[idx]
            xb -= mean
            xb /= scale
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


def predict(model: TrainedModel, x: FeatureTensor) -> tuple[ActivityClass, np.ndarray]:
    """Eval-mode class prediction and the full probability row."""
    probs = model.predict_probs(x.values[None])[0]
    return ActivityClass(int(probs.argmax())), probs


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
    if data_timesteps == model_timesteps:
        return 1
    if data_timesteps < model_timesteps:
        raise ModelError(
            f"data has {data_timesteps} timesteps but the model wants {model_timesteps}")
    k = math.ceil(data_timesteps / model_timesteps)
    if math.ceil(data_timesteps / k) != model_timesteps:
        raise ModelError(
            f"no decimation factor maps {data_timesteps} timesteps to {model_timesteps}")
    return k
