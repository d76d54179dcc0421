"""Preprocessing chain: amplitude first, then imputation, IIR low-pass
filtering, PCA, and ANOVA-F feature selection as composable stages.

run_pipeline and fit_stages take the amplitude of each raw sample
themselves; a stage list holds only what comes after it.  Every stage is
pure given its fitted parameters.  Fitted stages (PCA, feature
selection) must be fit on training data only before use.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import CsiSample, FeatureTensor

MAX_BUTTER_ORDER = 100  # no order above 69 designs a stable filter; the design is O(order**2)


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
        if not (np.isfinite(b).all() and np.isfinite(a).all()):
            raise DspError("filter coefficients must be finite")
        if a.size < 1 or a[0] != 1.0:
            raise DspError("feedback coefficients must start with a[0] == 1")
        if a.size > 1 and np.max(np.abs(np.roots(a))) >= 1.0:
            raise DspError("unstable filter: poles on or outside the unit circle")
        object.__setattr__(self, "b", b)
        object.__setattr__(self, "a", a)


@dataclass(frozen=True)
class PcaModel:
    """Fitted PCA: the training rows' feature means and orthonormal components
    [n_components, d], leading first; transform(x) = (x - mean) @ components.T."""

    mean: np.ndarray
    components: np.ndarray

    def transform(self, x: np.ndarray) -> np.ndarray:
        return (np.asarray(x, dtype=np.float64) - self.mean) @ self.components.T


def not_raw_error(lineage: str) -> DspError:
    """The error for a sample that amplitude cannot take because it is
    already preprocessed; `lineage` is its steps joined by '|', as in the
    manifest's `lineage` cell."""
    return DspError("amplitude needs a raw CSI sample; this one is already "
                    f"preprocessed (lineage {lineage})")


def amplitude(sample: CsiSample) -> FeatureTensor:
    """Per-entry modulus of the complex CSI frames."""
    if not isinstance(sample, CsiSample):
        raise not_raw_error("|".join(sample.lineage))
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
    if not 1 <= order <= MAX_BUTTER_ORDER:
        raise DspError(f"filter order must lie in 1..{MAX_BUTTER_ORDER}, got {order}")
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
    z^2s; once s >= n the recursion reaches no row, and y = v.  Passes
    update y in place and copy the rows they read only when more than one
    tap reaches a row (never at order 1).  Only elementwise float64
    arithmetic: a column's result is the same in any layout.
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
        taps = range(1, min(a.size, (n - 1) // lag + 1))  # the taps with j * lag < n
        v = y[:n - lag] if len(taps) == 1 else y[:n - lag].copy()
        for j in taps:
            y[j * lag:] += a_neg[j] * v[:n - j * lag]
        a = np.convolve(a, a_neg)[::2]
        lag *= 2
    return y


def filter_apply(coeffs: FilterCoeffs, x: FeatureTensor) -> FeatureTensor:
    return x.with_values(filter_coefficients_apply(coeffs, x.values), coeffs.label)


def pca_fit(x: np.ndarray, n_components: int) -> PcaModel:
    """Fit PCA on rows of x; model.transform(x) gives their scores.

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
    flip = components[np.arange(n_components), np.argmax(np.abs(components), axis=1)] < 0
    components[flip] *= -1.0
    return PcaModel(mean, components)


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


def select_k_best(scores: np.ndarray, k: int) -> tuple[int, ...]:
    """The indices of the k largest scores, sorted ascending; ties break
    toward the lower index."""
    scores = np.asarray(scores, dtype=np.float64)
    d = scores.size
    if not 1 <= k <= d:
        raise DspError(f"k={k} outside 1..{d}")
    ranked = np.argsort(-scores, kind="stable")[:k]
    return tuple(sorted(int(i) for i in ranked))


# ---------------------------------------------------------------------------
# Pipeline stages

class ImputeMeanStage:
    def apply(self, x: FeatureTensor) -> FeatureTensor:
        return impute_mean(x)


class ButterworthStage:
    def __init__(self, order: int, cutoff: float):
        self.order = order
        self.cutoff = cutoff
        self.coeffs = butter_design(order, cutoff)

    def apply(self, x: FeatureTensor) -> FeatureTensor:
        return filter_apply(self.coeffs, x)


class PcaStage:
    """Feature-axis PCA projection; fit on training rows only."""

    def __init__(self, n_components: int):
        if n_components < 1:
            raise DspError(f"pca n_components must be >= 1, got {n_components}")
        self.n_components = n_components
        self.name = f"pca(n_components={n_components})"
        self.model: PcaModel | None = None

    def fit(self, tensors) -> "PcaStage":
        rows = np.vstack([t.values for t in tensors])
        self.model = pca_fit(rows, self.n_components)
        return self

    def apply(self, x: FeatureTensor) -> FeatureTensor:
        if self.model is None:
            raise DspError(f"stage {self.name} has not been fit")
        return x.with_values(self.model.transform(x.values), self.name)


class SelectKBestStage:
    """Keep the k feature columns with the best ANOVA-F scores."""

    def __init__(self, k: int):
        if k < 1:
            raise DspError(f"select_k_best k must be >= 1, got {k}")
        self.k = k
        self.name = f"select_k_best(k={self.k})"
        self.selected: tuple[int, ...] | None = None

    def fit(self, tensors) -> "SelectKBestStage":
        rows = np.vstack([t.values for t in tensors])
        row_labels = np.repeat([int(t.label) for t in tensors],
                               [t.values.shape[0] for t in tensors])
        self.selected = select_k_best(anova_f_scores(rows, row_labels), self.k)
        return self

    def apply(self, x: FeatureTensor) -> FeatureTensor:
        if self.selected is None:
            raise DspError(f"stage {self.name} has not been fit")
        return x.with_values(x.values[:, list(self.selected)], self.name)


def default_stages() -> list:
    """The default deep-learning input chain after amplitude: impute, low-pass."""
    return [ImputeMeanStage(), ButterworthStage(1, 0.05)]


def run_pipeline(sample: CsiSample, stages) -> FeatureTensor:
    """The amplitude of one raw sample, then each stage in list order."""
    x = amplitude(sample)
    for stage in stages:
        x = stage.apply(x)
    return x


def fit_stages(stages, samples) -> None:
    """Fit each stage that has fit(), in chain order, on the amplitudes of the
    raw samples as transformed by every stage before it.  Pass the
    training split only, so nothing leaks from held-out data."""
    tensors = map(amplitude, samples)
    for stage in stages:
        if hasattr(stage, "fit"):
            tensors = list(tensors)
            stage.fit(tensors)
        tensors = map(stage.apply, tensors)


# A stage is a named transform apply(FeatureTensor) -> FeatureTensor of a
# sample's amplitudes or of an earlier stage's output; a stage with a fit()
# method learns it from training tensors (see fit_stages).
# Stage name -> (class, {key: (type, default)} in stage-string order); None: required.
STAGE_KINDS = {
    "impute_mean": (ImputeMeanStage, {}),
    "butterworth": (ButterworthStage, {"order": (int, 1), "cutoff": (float, 0.05)}),
    "pca": (PcaStage, {"n_components": (int, None)}),
    "select_k_best": (SelectKBestStage, {"k": (int, None)}),
}


def _stage_param(stage: str, params: dict, key: str, convert, default):
    if default is None and key not in params:
        raise DspError(f"stage {stage!r} missing parameter {key!r}")
    text = params.pop(key, default)
    try:
        return convert(text)
    except ValueError:
        kind = "an integer" if convert is int else "a number"
        raise DspError(f"stage {stage!r} parameter {key}={text!r} is not {kind}") from None


def parse_stages(text: str) -> list:
    """Parse a stage list like "amplitude;impute_mean;butterworth:order=1,cutoff=0.05"
    into the stages after amplitude.

    Stages are ';'-separated; the first is exactly "amplitude" and it does
    not come again.  Parameters follow ':' as comma-separated key=value
    pairs.  STAGE_KINDS lists the other stages and their keys.
    """
    chunks = [chunk.strip() for chunk in text.split(";") if chunk.strip()]
    first = chunks[0] if chunks else ""
    if first != "amplitude":
        raise DspError(f"a stage list starts with amplitude, got {first!r}")
    stages = []
    for chunk in chunks[1:]:
        name, _, params_text = chunk.partition(":")
        name = name.strip()
        params = {}
        for pair in params_text.split(",") if params_text else ():
            key, _, value = pair.partition("=")
            if not _:
                raise DspError(f"malformed stage parameter {pair!r} in {chunk!r}")
            params[key.strip()] = value.strip()
        if name not in STAGE_KINDS:
            raise DspError("amplitude comes only first in a stage list" if name == "amplitude"
                           else f"unknown stage {name!r}")
        cls, keys = STAGE_KINDS[name]
        stages.append(cls(*(_stage_param(name, params, key, *spec) for key, spec in keys.items())))
        if params:
            raise DspError(f"stage {name!r} got unknown parameters {sorted(params)}")
    return stages


def stages_to_text(stages) -> str:
    """The stage string of amplitude and then `stages`; parse_stages reads it back."""
    parts = ["amplitude"]
    for s in stages:
        name, keys = next((n, k) for n, (cls, k) in STAGE_KINDS.items() if isinstance(s, cls))
        params = [f"{key}={convert(getattr(s, key))!r}" for key, (convert, _) in keys.items()]
        parts.append(f"{name}:{','.join(params)}" if params else name)
    return ";".join(parts)
