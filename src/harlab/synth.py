"""Deterministic synthetic CSI generator.

Each sample is a static frequency-selective channel plus one dynamic
reflection path whose real gain profile over time carries the class
signature, plus circularly-symmetric complex Gaussian noise:

    frames[t, k] = static[k] + profile[t] * exp(j*(angle(static[k]) + offset[k])) + noise[t, k]

The dynamic path is mostly phase-aligned with the static channel (small
per-subcarrier offsets), so the amplitude trace of every subcarrier
follows the class profile.  The noise, one standard-normal draw of (real,
imaginary) pairs, is scaled and added in place.  (seed, class, index)
fully determines a sample; see rng for the stream derivation.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import ActivityClass, CsiSample, Dataset
from .rng import make_rng

SAMPLE_RATE_HZ = 400.0
MIN_SNR_DB = -3000.0  # noise power 1e300 x the static power: still a finite float

# Dynamic-path gain amplitudes, relative to the unit mean static amplitude.
BREATH_AMP = 0.2
STEP_AMP = 0.6
BUMP_AMP = 1.1
WALK_ENVELOPE_AMP = 0.5
WALK_FRINGE_AMP = 0.2
WALK_TREND_AMP = 0.45

# Per-sample profile variation: periodic phase jitter (radians, uniform
# +/-) and transient-center jitter (seconds, uniform +/-).  Phase jitter
# is off by default: with a final-state sequence readout downstream, a
# random end-of-trace phase blurs the class signatures badly.
_PROFILE_PHASE_JITTER = 0.0
_CENTER_JITTER_S = 0.1

# Fraction of the transient width used as the leaning bump's Gaussian sigma.
_BUMP_SIGMA_FRACTION = 0.25
# Maximum per-subcarrier phase offset of the dynamic path (radians).
_PHASE_OFFSET_MAX = 0.6
# Dead-subcarrier floor, relative to the rms static amplitude.
_MIN_STATIC_FRACTION = 0.05
# Delay spread of the static paths, in subcarrier-index cycles.
_MAX_DELAY_TAPS = 8.0


class GeneratorError(ValueError):
    """Raised on invalid generator configuration or arguments."""


@dataclass(frozen=True)
class GeneratorConfig:
    """Channel-simulation parameters shared by all classes."""

    seed: int = 42
    samples_per_class: int = 100
    n_packets: int = 1200
    n_subcarriers: int = 64
    snr_db: float = 20.0
    static_paths: int = 3
    breath_hz: float = 0.3
    walk_envelope_hz: float = 1.0
    walk_fringe_hz: float = 25.0
    transient_center_s: float = 1.5
    transient_width_s: float = 0.8

    def __post_init__(self):
        if self.samples_per_class < 1:
            raise GeneratorError("samples_per_class must be >= 1")
        if self.n_packets < 1 or self.n_subcarriers < 1:
            raise GeneratorError("n_packets and n_subcarriers must be >= 1")
        if self.static_paths < 1:
            raise GeneratorError("static_paths must be >= 1")
        nyquist = SAMPLE_RATE_HZ / 2.0
        if not 0.0 < self.breath_hz < self.walk_envelope_hz < self.walk_fringe_hz < nyquist:
            raise GeneratorError(
                "need 0 < breath_hz < walk_envelope_hz < walk_fringe_hz < "
                f"{nyquist} Hz (Nyquist)")
        if not self.snr_db >= MIN_SNR_DB:  # NaN fails; +inf is the noise-off switch
            raise GeneratorError(f"snr_db must be >= {MIN_SNR_DB} or +inf, got {self.snr_db}")
        if self.transient_width_s <= 0:
            raise GeneratorError("transient_width_s must be > 0")

    @property
    def duration_s(self) -> float:
        return self.n_packets / SAMPLE_RATE_HZ


@dataclass(frozen=True)
class ChannelRealization:
    """One sample's channel draw: static gains plus dynamic-path phasing."""

    static: np.ndarray         # complex [n_subcarriers]
    phase_offsets: np.ndarray  # real [n_subcarriers]
    profile: np.ndarray        # real dynamic gain [n_packets]

    def __post_init__(self):
        if not np.all(np.abs(self.static) > 0):
            raise GeneratorError("dead subcarrier in static channel")


def _logistic(t: np.ndarray, center: float, width: float) -> np.ndarray:
    # 0 -> 1 transition of the given 10%-90% width.
    rate = 2.0 * math.log(9.0) / width
    return 1.0 / (1.0 + np.exp(-rate * (t - center)))


def class_profile(cfg: GeneratorConfig, cls: ActivityClass, t: np.ndarray, *,
                  phase: float = 0.0, center: float | None = None) -> np.ndarray:
    """Dynamic-path gain over time for one class.

    phase randomises the periodic signatures, center the transient
    midpoint; the walking trend rises for walk_forward and falls for
    walk_backward.
    """
    if center is None:
        center = cfg.transient_center_s
    duration = cfg.duration_s
    if cls is ActivityClass.EMPTY:
        return np.zeros_like(t)
    if cls is ActivityClass.NO_ACTIVITY:
        return BREATH_AMP * np.sin(2 * math.pi * cfg.breath_hz * t + phase)
    if cls is ActivityClass.SITTING:
        return -STEP_AMP * _logistic(t, center, cfg.transient_width_s)
    if cls is ActivityClass.STANDING:
        return STEP_AMP * _logistic(t, center, cfg.transient_width_s)
    if cls is ActivityClass.LEANING:
        sigma = _BUMP_SIGMA_FRACTION * cfg.transient_width_s
        return BUMP_AMP * np.exp(-0.5 * ((t - center) / sigma) ** 2)
    if cls in (ActivityClass.WALK_FORWARD, ActivityClass.WALK_BACKWARD):
        direction = 1.0 if cls is ActivityClass.WALK_FORWARD else -1.0
        envelope = WALK_ENVELOPE_AMP * np.sin(2 * math.pi * cfg.walk_envelope_hz * t + phase)
        fringe = WALK_FRINGE_AMP * np.sin(2 * math.pi * cfg.walk_fringe_hz * t + phase)
        trend = direction * WALK_TREND_AMP * (2.0 * t / duration - 1.0)
        return envelope + fringe + trend
    raise GeneratorError(f"no profile for class {cls!r}")


def _draw_static(cfg: GeneratorConfig, rng: np.random.Generator) -> np.ndarray:
    # Sum of static_paths delayed paths -> correlated frequency-selective
    # fading with Rayleigh-distributed per-subcarrier magnitudes.  The
    # sample is then normalised to unit mean amplitude, the analog of
    # receiver gain control; relative per-subcarrier fading is preserved.
    paths = cfg.static_paths
    coeffs = (rng.standard_normal(paths) + 1j * rng.standard_normal(paths))
    coeffs *= math.sqrt(1.0 / (2.0 * paths))
    delays = rng.uniform(0.0, _MAX_DELAY_TAPS, paths)
    k = np.arange(cfg.n_subcarriers)
    static = (coeffs[:, None] * np.exp(-2j * math.pi * np.outer(delays, k)
                                       / cfg.n_subcarriers)).sum(axis=0)
    amp = np.abs(static)
    floor = _MIN_STATIC_FRACTION * math.sqrt(float(np.mean(amp ** 2)))
    weak = amp < floor
    if np.any(weak):
        safe = np.where(amp > 0, amp, 1.0)
        static = np.where(weak & (amp > 0), static * (floor / safe), static)
        static = np.where(weak & (amp == 0), floor + 0j, static)
    return static / np.mean(np.abs(static))


def realize_channel(cfg: GeneratorConfig, cls: ActivityClass,
                    rng: np.random.Generator) -> ChannelRealization:
    """Draw one sample's channel and build its class profile.

    Draw order (fixed for reproducibility): static path coefficients,
    path delays, per-subcarrier phase offsets, profile phase, transient
    center jitter.
    """
    static = _draw_static(cfg, rng)
    offsets = rng.uniform(-_PHASE_OFFSET_MAX, _PHASE_OFFSET_MAX, cfg.n_subcarriers)
    phase = rng.uniform(-_PROFILE_PHASE_JITTER, _PROFILE_PHASE_JITTER)
    center = cfg.transient_center_s + rng.uniform(-_CENTER_JITTER_S, _CENTER_JITTER_S)
    t = np.arange(cfg.n_packets) / SAMPLE_RATE_HZ
    profile = class_profile(cfg, cls, t, phase=phase, center=center)
    return ChannelRealization(static, offsets, profile)


def synthesize_frames(cfg: GeneratorConfig, channel: ChannelRealization,
                      rng: np.random.Generator | None = None) -> np.ndarray:
    """Compose frames from a channel realization, adding noise unless snr is +inf."""
    ray = np.exp(1j * (np.angle(channel.static) + channel.phase_offsets))
    frames = channel.profile[:, None] * ray[None, :]
    frames += channel.static
    if math.isfinite(cfg.snr_db):
        if rng is None:
            raise GeneratorError("finite snr_db requires an rng for the noise draw")
        p_static = float(np.mean(np.abs(channel.static) ** 2))
        p_noise = p_static * 10.0 ** (-cfg.snr_db / 10.0)
        z = rng.standard_normal((cfg.n_packets, cfg.n_subcarriers, 2))
        z *= math.sqrt(p_noise / 2.0)
        frames += z.view(np.complex128)[..., 0]  # (real, imag) pairs as complex
    return frames


def generate_sample(cfg: GeneratorConfig, cls: ActivityClass, index: int) -> CsiSample:
    """Generate the index-th sample of a class, a pure function of (seed, class, index)."""
    if not 0 <= index < cfg.samples_per_class:
        raise GeneratorError(
            f"sample index {index} outside 0..{cfg.samples_per_class - 1}")
    rng = make_rng(cfg.seed, "sample", int(cls), index)
    channel = realize_channel(cfg, cls, rng)
    frames = synthesize_frames(cfg, channel, rng)
    return CsiSample(frames, cls)


def generate_dataset(cfg: GeneratorConfig) -> Dataset:
    """All classes, samples_per_class each, class-major index-minor order."""
    return Dataset.from_samples(iter_samples(cfg), seed=cfg.seed)


def iter_samples(cfg: GeneratorConfig):
    """Yield samples in canonical order without holding the whole dataset."""
    for cls in ActivityClass:
        for i in range(cfg.samples_per_class):
            yield generate_sample(cfg, cls, i)
