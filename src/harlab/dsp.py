"""Preprocessing chain: amplitude, imputation, IIR low-pass filtering,
PCA, and ANOVA-F feature selection, as composable pipeline stages.

Every stage is pure given its fitted parameters.  Fitted stages (PCA,
feature selection) must be fit on training data only before use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CsiSample, FeatureTensor


class DspError(ValueError):
    """Raised on contract violations in the preprocessing chain."""


@dataclass(frozen=True)
class FilterCoeffs:
    """Digital IIR filter in (b, a) transfer-function form, a[0] == 1."""

    b: np.ndarray
    a: np.ndarray
    label: str = "iir_filter"

    def __post_init__(self):
        b = np.asarray(self.b, dtype=np.float64)
        a = np.asarray(self.a, dtype=np.float64)
        if a.size < 1 or a[0] != 1.0:
            raise DspError("feedback coefficients must start with a[0] == 1")
        if a.size > 1 and np.max(np.abs(np.roots(a))) >= 1.0:
            raise DspError("unstable filter: poles on or outside the unit circle")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)

    @property
    def poles(self) -> np.ndarray:
        return np.roots(self.a) if self.a.size > 1 else np.empty(0, dtype=np.complex128)


@dataclass(frozen=True)
class PcaModel:
    """Fitted PCA: feature means, orthonormal components, eigenvalues."""

    mean: np.ndarray
    components: np.ndarray           # [n_components, d]
    explained_variance: np.ndarray   # descending, >= 0

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) @ self.components.T

    def inverse_transform(self, scores: np.ndarray) -> np.ndarray:
        return scores @ self.components + self.mean


@dataclass(frozen=True)
class FeatureSelection:
    """ANOVA-F scores plus the sorted indices of the k best features."""

    scores: np.ndarray
    selected: tuple[int, ...]


def amplitude(sample: CsiSample) -> FeatureTensor:
    """Per-entry modulus of the complex CSI frames."""
    return FeatureTensor(np.abs(sample.frames), sample.label, sample.lineage + ("amplitude",))


def impute_mean(x: FeatureTensor) -> FeatureTensor:
    """Replace non-finite entries with the per-column mean of the finite ones.

    A column with no finite value has no defined mean and is rejected.
    """
    values = x.values
    finite = np.isfinite(values)
    if finite.all():
        return x.with_values(values, "impute_mean")
    dead = np.flatnonzero(~finite.any(axis=0))
    if dead.size:
        raise DspError(f"column {dead[0]} has no finite values")
    out = values.copy()
    for col in np.flatnonzero(~finite.all(axis=0)):
        mask = finite[:, col]
        out[~mask, col] = values[mask, col].mean()
    return x.with_values(out, "impute_mean")


def butter_design(order: int, cutoff_norm: float) -> FilterCoeffs:
    """Digital low-pass Butterworth design, cutoff as a fraction of Nyquist.

    Analog prototype poles at w_a * exp(j*pi*(2k + n - 1)/(2n)) with
    pre-warped w_a = tan(pi * cutoff_norm / 2), mapped through the
    bilinear transform s = (1 - z^-1)/(1 + z^-1); numerator zeros at
    z = -1, gain normalised to unity at DC.
    """
    if order < 1:
        raise DspError(f"filter order must be >= 1, got {order}")
    if not 0.0 < cutoff_norm < 1.0:
        raise DspError(f"normalised cutoff must lie in (0, 1), got {cutoff_norm}")
    wa = math.tan(math.pi * cutoff_norm / 2.0)
    k = np.arange(1, order + 1)
    analog_poles = wa * np.exp(1j * math.pi * (2 * k + order - 1) / (2 * order))
    digital_poles = (1 + analog_poles) / (1 - analog_poles)
    a = np.poly(digital_poles).real
    a = a / a[0]
    b = np.poly(-np.ones(order)).real
    b = b * (a.sum() / b.sum())
    return FilterCoeffs(b, a, label=f"butterworth(order={order},cutoff={float(cutoff_norm)!r})")


def filter_coefficients_apply(coeffs: FilterCoeffs, values: np.ndarray) -> np.ndarray:
    """Causal difference equation, zero initial conditions, per column:
    y[n] = sum_i b[i] x[n-i] - sum_{j>=1} a[j] y[n-j].

    The b taps give v in shifted multiply-adds over the whole array.  Then,
    ceil(log2 n) times, both sides of a(z^s) y = v (z the one-step delay,
    s = 1 first) are multiplied by a(-z^s), which leaves a polynomial in
    z^2s; once s >= n the recursion reaches no row, and y = v.  Only
    elementwise float64 arithmetic: a column's result is the same in any
    layout.
    """
    values = np.asarray(values, dtype=np.float64)
    b, a = coeffs.b, coeffs.a
    n = values.shape[0]
    y = b[0] * values
    for i in range(1, min(b.size, n)):
        y[i:] += b[i] * values[:n - i]
    lag = 1
    while lag < n:
        a_neg = a * (-1.0) ** np.arange(a.size)
        v = y[:n - lag].copy()
        for j in range(1, min(a.size, (n - 1) // lag + 1)):  # the taps with j * lag < n
            y[j * lag:] += a_neg[j] * v[:n - j * lag]
        a = np.convolve(a, a_neg)[::2]
        lag *= 2
    return y


def filter_apply(coeffs: FilterCoeffs, x: FeatureTensor) -> FeatureTensor:
    return x.with_values(filter_coefficients_apply(coeffs, x.values), coeffs.label)


def pca_fit_transform(x: np.ndarray, n_components: int) -> tuple[PcaModel, np.ndarray]:
    """Fit PCA on rows of x and return (model, scores).

    Components are the leading eigenvectors of the sample covariance
    (divisor n-1), eigenvalues descending; each component is signed so
    its largest-magnitude entry is positive.
    """
    x = np.asarray(x, dtype=np.float64)
    n, d = x.shape
    if n < 2:
        raise DspError(f"PCA needs at least 2 rows, got {n}")
    if not 1 <= n_components <= min(n, d):
        raise DspError(f"n_components {n_components} outside 1..{min(n, d)}")
    mean = x.mean(axis=0)
    centered = x - mean
    cov = centered.T @ centered / (n - 1)
    eigvals, eigvecs = np.linalg.eigh(cov)
    order = np.argsort(eigvals)[::-1][:n_components]
    components = eigvecs[:, order].T
    explained = np.maximum(eigvals[order], 0.0)
    flip = components[np.arange(n_components), np.argmax(np.abs(components), axis=1)] < 0
    components[flip] *= -1.0
    model = PcaModel(mean, components, explained)
    return model, centered @ components.T


def anova_f_scores(x: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """One-way ANOVA F statistic per feature column.

    F = (SSB/(g-1)) / (SSW/(n-g)).  A feature that is constant within
    and across groups (SSB == SSW == 0) scores 0 so selection stays
    total; SSW == 0 with SSB > 0 scores +inf.
    """
    x = np.asarray(x, dtype=np.float64)
    labels = np.asarray(labels)
    n, _ = x.shape
    groups, inverse = np.unique(labels, return_inverse=True)
    g = groups.size
    if g < 2:
        raise DspError("ANOVA requires at least two classes")
    if n <= g:
        raise DspError(f"need more rows ({n}) than classes ({g})")
    counts = np.bincount(inverse).astype(np.float64)
    sums = np.zeros((g, x.shape[1]))
    np.add.at(sums, inverse, x)
    group_means = sums / counts[:, None]
    grand_mean = x.mean(axis=0)
    ssb = (counts[:, None] * (group_means - grand_mean) ** 2).sum(axis=0)
    ssw = ((x - group_means[inverse]) ** 2).sum(axis=0)
    msb = ssb / (g - 1)
    msw = ssw / (n - g)
    with np.errstate(divide="ignore", invalid="ignore"):
        f = msb / msw
    f[(ssw == 0) & (ssb == 0)] = 0.0
    f[(ssw == 0) & (ssb > 0)] = np.inf
    return f


def select_k_best(scores: np.ndarray, k: int) -> FeatureSelection:
    """Indices of the k largest scores; ties break toward the lower index."""
    scores = np.asarray(scores, dtype=np.float64)
    d = scores.size
    if not 1 <= k <= d:
        raise DspError(f"k={k} outside 1..{d}")
    ranked = np.argsort(-scores, kind="stable")[:k]
    return FeatureSelection(scores, tuple(sorted(int(i) for i in ranked)))


# ---------------------------------------------------------------------------
# Pipeline stages

class Stage:
    """A named transform of FeatureTensor -> FeatureTensor (the amplitude
    stage alone takes the raw CsiSample); a stage with needs_fit learns it
    from training tensors in fit() (see fit_stages)."""

    name: str
    needs_fit = False

    def apply(self, x: FeatureTensor) -> FeatureTensor:
        raise NotImplementedError


class AmplitudeStage(Stage):
    name = "amplitude"

    def apply(self, sample: CsiSample) -> FeatureTensor:
        return amplitude(sample)


class ImputeMeanStage(Stage):
    name = "impute_mean"

    def apply(self, x: FeatureTensor) -> FeatureTensor:
        return impute_mean(x)


class ButterworthStage(Stage):
    def __init__(self, order: int = 1, cutoff: float = 0.05):
        self.order = order
        self.cutoff = cutoff
        self.coeffs = butter_design(order, cutoff)
        self.name = self.coeffs.label

    def apply(self, x: FeatureTensor) -> FeatureTensor:
        return filter_apply(self.coeffs, x)


class PcaStage(Stage):
    """Feature-axis PCA projection; fit on training rows only."""

    needs_fit = True

    def __init__(self, n_components: int):
        self.n_components = n_components
        self.name = f"pca(n_components={n_components})"
        self.model: PcaModel | None = None

    def fit(self, tensors) -> "PcaStage":
        rows = np.vstack([t.values for t in tensors])
        self.model, _ = pca_fit_transform(rows, self.n_components)
        return self

    def apply(self, x: FeatureTensor) -> FeatureTensor:
        if self.model is None:
            raise DspError(f"stage {self.name} has not been fit")
        return x.with_values(self.model.transform(x.values), self.name)


class SelectKBestStage(Stage):
    """Keep the k feature columns with the best ANOVA-F scores."""

    needs_fit = True

    def __init__(self, k: int):
        self.k = k
        self.name = f"select_k_best(k={self.k})"
        self.selection: FeatureSelection | None = None

    def fit(self, tensors) -> "SelectKBestStage":
        rows = np.vstack([t.values for t in tensors])
        row_labels = np.repeat([int(t.label) for t in tensors],
                               [t.values.shape[0] for t in tensors])
        self.selection = select_k_best(anova_f_scores(rows, row_labels), self.k)
        return self

    def apply(self, x: FeatureTensor) -> FeatureTensor:
        if self.selection is None:
            raise DspError(f"stage {self.name} has not been fit")
        return x.with_values(x.values[:, list(self.selection.selected)], self.name)


def default_stages() -> list[Stage]:
    """The default deep-learning input chain: amplitude, impute, low-pass."""
    return [AmplitudeStage(), ImputeMeanStage(), ButterworthStage(1, 0.05)]


def _checked_chain(stages) -> list[Stage]:
    """The stage list; amplitude must come first and only there."""
    stages = list(stages)
    if not stages or not isinstance(stages[0], AmplitudeStage):
        raise DspError("pipeline must start with the amplitude stage")
    if any(isinstance(s, AmplitudeStage) for s in stages[1:]):
        raise DspError("amplitude stage may only appear first")
    return stages


def run_pipeline(sample: CsiSample, stages) -> FeatureTensor:
    """Apply an ordered stage list to one raw sample.

    The first stage must be the amplitude stage (it consumes the complex
    frames); amplitude may not appear again later.
    """
    x = sample
    for stage in _checked_chain(stages):
        x = stage.apply(x)
    return x


def fit_stages(stages, samples) -> None:
    """Fit each needs_fit stage, in chain order, on the raw samples as
    transformed by every stage before it.  Pass the training split only,
    so nothing leaks from held-out data."""
    tensors = samples
    for stage in _checked_chain(stages):
        if stage.needs_fit:
            tensors = list(tensors)
            stage.fit(tensors)
        tensors = map(stage.apply, tensors)


def _stage_param(stage: str, params: dict, key: str, convert, default=None):
    text = params.pop(key) if default is None else params.pop(key, default)
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise DspError(f"stage {stage!r} parameter {key}={text!r} is not {kind}") from None


def parse_stages(text: str) -> list[Stage]:
    """Parse a stage list like "amplitude;impute_mean;butterworth:order=1,cutoff=0.05".

    Stages are ';'-separated; parameters follow ':' as comma-separated
    key=value pairs.  Known stages: amplitude, impute_mean, butterworth
    (order, cutoff), pca (n_components), select_k_best (k).
    """
    stages: list[Stage] = []
    for chunk in text.split(";"):
        chunk = chunk.strip()
        if not chunk:
            continue
        name, _, params_text = chunk.partition(":")
        name = name.strip()
        params = {}
        if params_text:
            for pair in params_text.split(","):
                key, _, value = pair.partition("=")
                if not _:
                    raise DspError(f"malformed stage parameter {pair!r} in {chunk!r}")
                params[key.strip()] = value.strip()
        try:
            if name == "amplitude":
                stages.append(AmplitudeStage())
            elif name == "impute_mean":
                stages.append(ImputeMeanStage())
            elif name == "butterworth":
                stages.append(ButterworthStage(_stage_param(name, params, "order", int, 1),
                                               _stage_param(name, params, "cutoff", float, 0.05)))
            elif name == "pca":
                stages.append(PcaStage(_stage_param(name, params, "n_components", int)))
            elif name == "select_k_best":
                stages.append(SelectKBestStage(_stage_param(name, params, "k", int)))
            else:
                raise DspError(f"unknown stage {name!r}")
        except KeyError as exc:
            raise DspError(f"stage {name!r} missing parameter {exc}") from None
        if params:
            raise DspError(f"stage {name!r} got unknown parameters {sorted(params)}")
    if not stages:
        raise DspError("empty stage list")
    return stages


def stages_to_text(stages) -> str:
    parts = []
    for s in stages:
        if isinstance(s, ButterworthStage):
            parts.append(f"butterworth:order={s.order},cutoff={float(s.cutoff)!r}")
        elif isinstance(s, PcaStage):
            parts.append(f"pca:n_components={s.n_components}")
        elif isinstance(s, SelectKBestStage):
            parts.append(f"select_k_best:k={s.k}")
        else:
            parts.append(s.name)
    return ";".join(parts)
