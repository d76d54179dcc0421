import hashlib
import math
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from harlab import synth
from harlab.core import ActivityClass
from harlab.rng import make_rng


def small_cfg(**over):
    base = dict(seed=42, samples_per_class=3)
    base.update(over)
    return synth.GeneratorConfig(**base)


# ---------------------------------------------------------------------------
# band-energy oracle (independent: plain DFT of the mean amplitude trace)

BANDS = ((0.0, 0.5), (0.5, 3.0), (3.0, 50.0))


def band_energies(trace, bands=BANDS):
    x = trace - trace.mean()
    spectrum = np.abs(np.fft.rfft(x)) ** 2
    freqs = np.fft.rfftfreq(x.size, d=1.0 / synth.SAMPLE_RATE_HZ)
    return np.array([spectrum[(freqs >= lo) & (freqs < hi)].sum() for lo, hi in bands])


def mean_amplitude_trace(sample):
    return np.abs(sample.frames).mean(axis=1)


# ---------------------------------------------------------------------------
# config validation

def test_config_rejects_bad_frequency_ordering():
    with pytest.raises(synth.GeneratorError):
        small_cfg(breath_hz=2.0, walk_envelope_hz=1.0)
    with pytest.raises(synth.GeneratorError):
        small_cfg(walk_fringe_hz=300.0)  # beyond Nyquist


def test_config_rejects_nan_and_neg_inf_snr():
    with pytest.raises(synth.GeneratorError):
        small_cfg(snr_db=float("nan"))
    with pytest.raises(synth.GeneratorError):
        small_cfg(snr_db=-math.inf)
    # +inf is the documented noise-off switch
    small_cfg(snr_db=math.inf)


def test_config_rejects_an_snr_below_the_floor():
    # -4000 dB used to overflow 10 ** (-snr_db / 10) in a pool worker
    with pytest.raises(synth.GeneratorError, match=r"^snr_db must be >= -3000.0 or \+inf"):
        small_cfg(snr_db=-3000.5)


def test_snr_at_the_floor_gives_finite_frames():
    cfg = small_cfg(snr_db=synth.MIN_SNR_DB, n_packets=8, n_subcarriers=4)
    frames = synth.generate_sample(cfg, ActivityClass.WALK_FORWARD, 0).frames
    assert np.isfinite(frames).all()
    assert np.abs(frames).max() > 1e140


def test_config_rejects_nonpositive_counts():
    with pytest.raises(synth.GeneratorError):
        small_cfg(samples_per_class=0)


# ---------------------------------------------------------------------------
# generate_sample

def test_sample_shape_and_dtype():
    s = synth.generate_sample(small_cfg(), ActivityClass.SITTING, 0)
    assert s.frames.shape == (1200, 64)
    assert s.frames.dtype == np.complex128
    assert s.label is ActivityClass.SITTING


def test_sample_determinism_bitwise():
    cfg = small_cfg()
    a = synth.generate_sample(cfg, ActivityClass.EMPTY, 0)
    b = synth.generate_sample(cfg, ActivityClass.EMPTY, 0)
    assert a == b
    assert a.frames.tobytes() == b.frames.tobytes()


def test_sample_index_out_of_range():
    cfg = small_cfg()
    with pytest.raises(synth.GeneratorError):
        synth.generate_sample(cfg, ActivityClass.EMPTY, 3)
    with pytest.raises(synth.GeneratorError):
        synth.generate_sample(cfg, ActivityClass.EMPTY, -1)


def test_empty_class_noise_free_rows_identical():
    cfg = small_cfg(snr_db=math.inf)
    s = synth.generate_sample(cfg, ActivityClass.EMPTY, 0)
    assert np.all(s.frames == s.frames[0])
    amp = np.abs(s.frames)
    # identical rows: per-subcarrier amplitude spread (and variance) is zero
    assert np.all(np.ptp(amp, axis=0) == 0.0)


def test_distinct_streams_for_distinct_keys():
    cfg = small_cfg()
    a = synth.generate_sample(cfg, ActivityClass.EMPTY, 0)
    b = synth.generate_sample(cfg, ActivityClass.EMPTY, 1)
    c = synth.generate_sample(small_cfg(seed=43), ActivityClass.EMPTY, 0)
    assert a != b
    assert a != c


def test_no_dead_subcarriers():
    cfg = small_cfg(snr_db=math.inf)
    for cls in ActivityClass:
        s = synth.generate_sample(cfg, cls, 0)
        assert np.all(np.abs(s.frames).min(axis=0) >= 0.0)
        rng = make_rng(cfg.seed, "sample", int(cls), 0)
        chan = synth.realize_channel(cfg, cls, rng)
        assert np.all(np.abs(chan.static) > 0)


def test_walk_band_energy_dominates_empty():
    cfg = small_cfg(snr_db=20.0)
    walk = synth.generate_sample(cfg, ActivityClass.WALK_FORWARD, 0)
    empty = synth.generate_sample(cfg, ActivityClass.EMPTY, 0)
    walk_band = band_energies(mean_amplitude_trace(walk))[1]
    empty_band = band_energies(mean_amplitude_trace(empty))[1]
    assert walk_band / empty_band >= 5.0


def test_walk_directions_differ_only_in_trend_sign():
    cfg = small_cfg()
    t = np.arange(cfg.n_packets) / synth.SAMPLE_RATE_HZ
    fwd = synth.class_profile(cfg, ActivityClass.WALK_FORWARD, t, phase=0.3)
    bwd = synth.class_profile(cfg, ActivityClass.WALK_BACKWARD, t, phase=0.3)
    trend = synth.WALK_TREND_AMP * (2.0 * t / cfg.duration_s - 1.0)
    np.testing.assert_allclose(fwd - bwd, 2.0 * trend, rtol=0, atol=1e-12)
    # and through one channel realization at +inf snr the two traces differ
    cfg_clean = small_cfg(snr_db=math.inf)
    rng = make_rng(0, "trend-check")
    chan = synth.realize_channel(cfg_clean, ActivityClass.WALK_FORWARD, rng)
    fwd_profile = synth.class_profile(cfg_clean, ActivityClass.WALK_FORWARD, t)
    bwd_profile = synth.class_profile(cfg_clean, ActivityClass.WALK_BACKWARD, t)
    chan_fwd = synth.ChannelRealization(chan.static, chan.phase_offsets, fwd_profile)
    chan_bwd = synth.ChannelRealization(chan.static, chan.phase_offsets, bwd_profile)
    trace_fwd = np.abs(synth.synthesize_frames(cfg_clean, chan_fwd)).mean(axis=1)
    trace_bwd = np.abs(synth.synthesize_frames(cfg_clean, chan_bwd)).mean(axis=1)
    assert not np.array_equal(trace_fwd, trace_bwd)


def test_class_profiles_have_documented_shapes():
    cfg = small_cfg(snr_db=math.inf)
    t = np.arange(cfg.n_packets) / synth.SAMPLE_RATE_HZ
    empty = synth.class_profile(cfg, ActivityClass.EMPTY, t)
    assert np.all(empty == 0.0)
    sitting = synth.class_profile(cfg, ActivityClass.SITTING, t)
    standing = synth.class_profile(cfg, ActivityClass.STANDING, t)
    assert sitting[-1] < -0.9 * synth.STEP_AMP  # settles low
    assert standing[-1] > 0.9 * synth.STEP_AMP  # settles high
    np.testing.assert_allclose(sitting, -standing, atol=1e-15)
    leaning = synth.class_profile(cfg, ActivityClass.LEANING, t)
    assert leaning.max() > 0.9 * synth.BUMP_AMP
    assert abs(leaning[0]) < 1e-6 and abs(leaning[-1]) < 1e-3  # returns to baseline


# sha256 of the frames of sample 0 of every class, in class order, at seed
# 42 and the default sizes; recorded before the noise was added in place.
FRAME_DIGESTS = {
    20.0: "b82cbf52ebccb9fe19c83a5680b72f69658f161591e99ea25106cad5bbe57a8f",
    0.0: "286192943fff19837fcb6b4601100af4a57aa5a173a676acc8b7c5238cc470f7",
    -10.0: "c651e73f5fc572d26fc08a0cf4095f1a189245ddbfa9cc8e8ad6c34bcb8d1a35",
    math.inf: "4e75490bb888797aa5951b1baf5ad16a5bb367d1854596603db8a6c5a56dd146",
}


@pytest.mark.parametrize("snr_db", sorted(FRAME_DIGESTS))
def test_frames_keep_their_recorded_bytes(snr_db):
    cfg = small_cfg(samples_per_class=1, snr_db=snr_db)
    digest = hashlib.sha256()
    for cls in ActivityClass:
        digest.update(synth.generate_sample(cfg, cls, 0).frames.tobytes())
    assert digest.hexdigest() == FRAME_DIGESTS[snr_db]


def test_sample_peak_memory_is_about_two_frames():
    # the frames and the normal draw of the same size, no complex temporaries
    cfg = small_cfg()
    synth.generate_sample(cfg, ActivityClass.WALK_FORWARD, 0)  # warm up
    tracemalloc.start()
    try:
        frames = synth.generate_sample(cfg, ActivityClass.WALK_FORWARD, 1).frames
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 2.5 * frames.nbytes


# ---------------------------------------------------------------------------
# generate_dataset

def test_dataset_counts_and_order():
    cfg = small_cfg(samples_per_class=2)
    ds = synth.generate_dataset(cfg)
    assert len(ds) == 14
    assert Counter(s.label for s in ds.samples) == dict.fromkeys(ActivityClass, 2)
    labels = [s.label for s in ds.samples]
    assert labels == sorted(labels)  # class-major order
    assert ds.samples[0] == synth.generate_sample(cfg, ActivityClass.EMPTY, 0)


def test_dataset_single_sample_per_class():
    ds = synth.generate_dataset(small_cfg(samples_per_class=1))
    assert len(ds) == 7


def test_dataset_determinism():
    cfg = small_cfg(samples_per_class=2)
    a = synth.generate_dataset(cfg)
    b = synth.generate_dataset(cfg)
    assert all(x == y for x, y in zip(a.samples, b.samples))


def test_iter_matches_generate():
    cfg = small_cfg(samples_per_class=1)
    assert list(synth.iter_samples(cfg)) == list(synth.generate_dataset(cfg).samples)


# ---------------------------------------------------------------------------
# class separability floor (nearest-centroid oracle on band energies)

def test_band_energy_centroid_classifier_floor():
    cfg = synth.GeneratorConfig(seed=42, samples_per_class=20)
    feats, labels = [], []
    for cls in ActivityClass:
        for i in range(cfg.samples_per_class):
            s = synth.generate_sample(cfg, cls, i)
            feats.append(band_energies(mean_amplitude_trace(s)))
            labels.append(int(cls))
    feats = np.array(feats)
    labels = np.array(labels)
    centroids = np.array([feats[labels == int(c)].mean(axis=0) for c in ActivityClass])
    dist = ((feats[:, None, :] - centroids[None, :, :]) ** 2).sum(axis=2)
    accuracy = float((dist.argmin(axis=1) == labels).mean())
    assert accuracy >= 0.60
