import math

import numpy as np
import pytest

from harlab import dsp
from harlab.core import ActivityClass, CsiSample, FeatureTensor
from harlab.rng import make_rng


def _csi(frames):
    return CsiSample(np.asarray(frames, dtype=np.complex128),
                     ActivityClass.SITTING, "sitting-0000")


def _ft(values, lineage=("amplitude",)):
    return FeatureTensor(np.asarray(values, dtype=np.float64), 0, lineage)


# ---------------------------------------------------------------------------
# amplitude

def test_amplitude_345_triangle():
    frames = np.full((2, 64), 3 + 4j)
    out = dsp.amplitude(_csi(frames))
    assert np.all(out.values == 5.0)
    assert out.lineage[-1] == "amplitude"


def test_amplitude_zero_and_negative_real():
    frames = np.zeros((1, 64), dtype=np.complex128)
    frames[0, 1] = -1 + 0j
    out = dsp.amplitude(_csi(frames))
    assert out.values[0, 0] == 0.0
    assert out.values[0, 1] == 1.0


# ---------------------------------------------------------------------------
# impute_mean

def test_impute_fills_column_mean():
    x = _ft(np.array([[1.0], [np.nan], [3.0]]) * np.ones((1, 64)))
    out = dsp.impute_mean(x)
    assert np.all(out.values[1] == 2.0)
    assert np.all(out.values[[0, 2]] == x.values[[0, 2]])


def test_impute_no_nan_is_bitwise_identity():
    rng = make_rng(1, "impute")
    x = _ft(rng.standard_normal((10, 64)))
    out = dsp.impute_mean(x)
    assert out.values.tobytes() == x.values.tobytes()


def test_impute_all_nan_column_error():
    values = np.ones((2, 64))
    values[:, 0] = np.nan
    with pytest.raises(dsp.DspError, match="column 0 has no finite values"):
        dsp.impute_mean(_ft(values))


def test_impute_matches_per_column_brute_force():
    rng = make_rng(7, "impute-brute")
    values = rng.standard_normal((30, 5))
    mask = rng.random((30, 5)) < 0.25
    mask[:, 2] = False
    values = np.where(mask, np.nan, values)
    out = dsp.impute_mean(_ft(values, ("amplitude", "toy"))).values
    for col in range(5):
        finite = values[:, col][np.isfinite(values[:, col])]
        expect = np.where(np.isfinite(values[:, col]), values[:, col], finite.mean())
        assert np.array_equal(out[:, col], expect)


# ---------------------------------------------------------------------------
# butter_design: hand bilinear-transform oracle

def _butter1_by_hand(cutoff):
    # H(s) = wa/(s + wa), wa = tan(pi*cutoff/2); s = (1 - z^-1)/(1 + z^-1)
    wa = math.tan(math.pi * cutoff / 2)
    b0 = wa / (1 + wa)
    a1 = (wa - 1) / (1 + wa)
    return np.array([b0, b0]), np.array([1.0, a1])


def test_butter_1_005_matches_hand_derivation():
    coeffs = dsp.butter_design(1, 0.05)
    b_ref, a_ref = _butter1_by_hand(0.05)
    np.testing.assert_allclose(coeffs.b, b_ref, rtol=0, atol=1e-12)
    np.testing.assert_allclose(coeffs.a, a_ref, rtol=0, atol=1e-12)
    # frozen reference decimals
    np.testing.assert_allclose(coeffs.b, [0.0729597, 0.0729597], atol=1e-6)
    np.testing.assert_allclose(coeffs.a, [1.0, -0.8540810], atol=1e-6)


@pytest.mark.parametrize("order", [1, 2])
@pytest.mark.parametrize("cutoff", [0.05, 0.1, 0.5])
def test_butter_unity_dc_gain(order, cutoff):
    coeffs = dsp.butter_design(order, cutoff)
    assert abs(coeffs.b.sum() / coeffs.a.sum() - 1.0) <= 1e-12


def test_butter_poles_inside_unit_circle():
    for order in (1, 2, 3, 4):
        coeffs = dsp.butter_design(order, 0.1)
        assert np.all(np.abs(coeffs.poles) < 1.0)


def test_butter_label_names_the_exact_cutoff():
    # Every harlab sample's lineage carries this label, so two filters get two labels.
    assert dsp.butter_design(2, 0.05).label == "butterworth(order=2,cutoff=0.05)"
    a, b = dsp.butter_design(2, 0.0123456789), dsp.butter_design(2, 0.01234571)
    assert a.label == "butterworth(order=2,cutoff=0.0123456789)"
    assert a.label != b.label
    lineages = {dsp.ButterworthStage(2, c).apply(_ft(np.ones((4, 64)))).lineage
                for c in (0.0123456789, 0.01234571)}
    assert len(lineages) == 2


def test_butter_rejects_bad_args():
    with pytest.raises(dsp.DspError):
        dsp.butter_design(0, 0.05)
    with pytest.raises(dsp.DspError):
        dsp.butter_design(1, 0.0)
    with pytest.raises(dsp.DspError):
        dsp.butter_design(1, 1.0)


# ---------------------------------------------------------------------------
# filter_apply: manual difference-equation recursion oracle

def test_filter_passthrough_identity():
    coeffs = dsp.FilterCoeffs(np.array([1.0]), np.array([1.0]))
    x = _ft(make_rng(3, "filt").standard_normal((50, 64)))
    out = dsp.filter_apply(coeffs, x)
    assert np.array_equal(out.values, x.values)


def test_filter_impulse_response_manual_recursion():
    coeffs = dsp.butter_design(1, 0.05)
    impulse = np.zeros((10, 64))
    impulse[0] = 1.0
    out = dsp.filter_apply(coeffs, _ft(impulse)).values[:, 0]
    b, a = coeffs.b, coeffs.a
    y0 = b[0]
    y1 = b[1] - a[1] * y0
    assert abs(out[0] - y0) < 1e-15
    assert abs(out[1] - y1) < 1e-15
    # frozen decimals from the rounded hand coefficients
    assert abs(out[0] - 0.0729597) < 5e-6
    assert abs(out[1] - 0.1352752) < 5e-6


def test_filter_matches_brute_force_recursion():
    coeffs = dsp.butter_design(2, 0.1)
    rng = make_rng(11, "filt-brute")
    x = rng.standard_normal((40, 3))
    got = dsp.filter_coefficients_apply(coeffs, x)
    b, a = coeffs.b, coeffs.a
    expect = np.zeros_like(x)
    for col in range(x.shape[1]):
        for n in range(x.shape[0]):
            acc = sum(b[i] * x[n - i, col] for i in range(len(b)) if n - i >= 0)
            acc -= sum(a[j] * expect[n - j, col] for j in range(1, len(a)) if n - j >= 0)
            expect[n, col] = acc
    np.testing.assert_allclose(got, expect, rtol=0, atol=1e-12)


def test_filter_constant_input_reaches_unity():
    coeffs = dsp.butter_design(1, 0.05)
    x = _ft(np.ones((500, 64)))
    out = dsp.filter_apply(coeffs, x)
    assert np.all(np.abs(out.values[-1] - 1.0) < 1e-6)


def test_filter_bounded_input_bounded_output():
    coeffs = dsp.butter_design(2, 0.2)
    rng = make_rng(5, "bibo")
    x = np.clip(rng.standard_normal((2000, 4)), -3, 3)
    y = dsp.filter_coefficients_apply(coeffs, x)
    assert np.all(np.isfinite(y))
    assert np.max(np.abs(y)) < 100.0


# ---------------------------------------------------------------------------
# The doubling filter against the per-step loop it replaced

def reference_filter(coeffs, values):
    """Direct-form difference equation, one time step per iteration."""
    values = np.asarray(values, dtype=np.float64)
    b, a = coeffs.b, coeffs.a
    n_steps, n_cols = values.shape
    nb, na = b.size, a.size
    xp = np.vstack([np.zeros((nb - 1, n_cols)), values]) if nb > 1 else values
    yp = np.zeros((n_steps + na - 1, n_cols))
    b_rev = b[::-1].copy()
    a_tail_rev = a[1:][::-1].copy()
    for n in range(n_steps):
        acc = b_rev @ xp[n:n + nb]
        if na > 1:
            acc -= a_tail_rev @ yp[n:n + na - 1]
        yp[n + na - 1] = acc
    return yp[na - 1:]


@pytest.mark.parametrize("cutoff", [0.01, 0.05, 0.2, 0.5, 0.9])
@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_filter_matches_the_per_step_loop(order, cutoff):
    # Poles near z = 1 make orders 3-4 at cutoff 0.01 ill-conditioned
    # for both forms.
    bound = 1e-10 if order >= 3 and cutoff == 0.01 else 1e-12
    coeffs = dsp.butter_design(order, cutoff)
    rng = make_rng(19, "filt-loop", order, str(cutoff))
    for n in (1, 2, 3, 7, 64, 1201):
        x = rng.standard_normal((n, 8))
        before = x.copy()
        got = dsp.filter_coefficients_apply(coeffs, x)
        want = reference_filter(coeffs, x)
        assert got.shape == want.shape
        err = np.max(np.abs(got - want)) / np.max(np.abs(want))
        assert err <= bound, f"n={n}: relative error {err:.3g}"
        assert np.array_equal(x, before)


@pytest.mark.parametrize("order", [1, 4])
def test_filter_result_is_independent_of_columns_and_memory_order(order):
    coeffs = dsp.butter_design(order, 0.05)
    x = make_rng(23, "filt-layout").standard_normal((1200, 64)) + 2.0
    got = dsp.filter_coefficients_apply(coeffs, x)
    fortran = dsp.filter_coefficients_apply(coeffs, np.asfortranarray(x))
    assert fortran.tobytes() == got.tobytes()
    for col in range(x.shape[1]):
        alone = dsp.filter_coefficients_apply(coeffs, x[:, col:col + 1])
        assert alone.tobytes() == got[:, col:col + 1].tobytes()


# ---------------------------------------------------------------------------
# PCA

def test_pca_collinear_points():
    x = np.array([[1, 1], [-1, -1], [2, 2], [-2, -2]], dtype=float)
    model, scores = dsp.pca_fit_transform(x, 1)
    np.testing.assert_allclose(model.components[0], [1 / math.sqrt(2)] * 2, atol=1e-12)
    # all variance on the first axis
    full_model, _ = dsp.pca_fit_transform(x, 2)
    assert full_model.explained_variance[1] < 1e-12


def test_pca_full_rank_reconstruction():
    rng = make_rng(2, "pca")
    x = rng.standard_normal((12, 5))
    model, scores = dsp.pca_fit_transform(x, 5)
    np.testing.assert_allclose(model.inverse_transform(scores), x, atol=1e-8)


def test_pca_score_covariance_matches_explained_variance():
    rng = make_rng(3, "pca-cov")
    x = rng.standard_normal((10, 4))
    model, scores = dsp.pca_fit_transform(x, 4)
    cov = scores.T @ scores / (x.shape[0] - 1)
    np.testing.assert_allclose(cov, np.diag(model.explained_variance), atol=1e-8)


def test_pca_components_orthonormal():
    rng = make_rng(4, "pca-ortho")
    x = rng.standard_normal((20, 6))
    model, _ = dsp.pca_fit_transform(x, 4)
    gram = model.components @ model.components.T
    np.testing.assert_allclose(gram, np.eye(4), atol=1e-8)


def test_pca_scores_zero_mean():
    rng = make_rng(5, "pca-mean")
    x = rng.standard_normal((15, 4)) + 3.0
    _, scores = dsp.pca_fit_transform(x, 3)
    assert np.all(np.abs(scores.mean(axis=0)) < 1e-9)


def test_pca_transform_is_stateless():
    rng = make_rng(6, "pca-pure")
    x = rng.standard_normal((9, 4))
    model, _ = dsp.pca_fit_transform(x, 2)
    once = model.transform(x[:3])
    twice = model.transform(x[:3])
    assert np.array_equal(once, twice)


def test_pca_rejects_bad_component_counts():
    x = np.zeros((4, 3))
    with pytest.raises(dsp.DspError):
        dsp.pca_fit_transform(x, 0)
    with pytest.raises(dsp.DspError):
        dsp.pca_fit_transform(x, 4)


# ---------------------------------------------------------------------------
# ANOVA F

def _anova_brute(x, labels):
    # Independent oracle: direct loops over groups and features.
    x = np.asarray(x, dtype=float)
    labels = np.asarray(labels)
    classes = sorted(set(labels.tolist()))
    g, n = len(classes), x.shape[0]
    out = []
    for col in range(x.shape[1]):
        v = x[:, col]
        grand = v.mean()
        ssb = ssw = 0.0
        for c in classes:
            grp = v[labels == c]
            ssb += grp.size * (grp.mean() - grand) ** 2
            ssw += ((grp - grp.mean()) ** 2).sum()
        if ssw == 0.0:
            out.append(0.0 if ssb == 0.0 else np.inf)
        else:
            out.append((ssb / (g - 1)) / (ssw / (n - g)))
    return np.array(out)


def test_anova_hand_example_f_13_5():
    x = np.array([[1.0], [2.0], [3.0], [4.0], [5.0], [6.0]])
    labels = np.array([0, 0, 0, 1, 1, 1])
    np.testing.assert_allclose(dsp.anova_f_scores(x, labels), [13.5], rtol=1e-12)


def test_anova_equal_means_zero_f():
    x = np.array([[1.0], [3.0], [1.0], [3.0]])
    labels = np.array([0, 0, 1, 1])
    np.testing.assert_allclose(dsp.anova_f_scores(x, labels), [0.0], atol=1e-15)


def test_anova_constant_feature_scores_zero():
    x = np.column_stack([np.ones(6), np.arange(6.0)])
    labels = np.array([0, 0, 0, 1, 1, 1])
    scores = dsp.anova_f_scores(x, labels)
    assert scores[0] == 0.0
    assert scores[1] > 0


def test_anova_permutation_invariance():
    rng = make_rng(8, "anova-perm")
    x = rng.standard_normal((12, 3))
    labels = np.array([0, 1, 2] * 4)
    perm = rng.permutation(12)
    np.testing.assert_allclose(dsp.anova_f_scores(x[perm], labels[perm]),
                               dsp.anova_f_scores(x, labels), rtol=1e-12)


def test_anova_shift_and_scale_invariance():
    rng = make_rng(9, "anova-scale")
    x = rng.standard_normal((15, 2))
    labels = rng.integers(0, 3, 15)
    base = dsp.anova_f_scores(x, labels)
    shifted = dsp.anova_f_scores(x + 7.0, labels)
    scaled = dsp.anova_f_scores(x * -2.5, labels)
    np.testing.assert_allclose(shifted, base, rtol=1e-9)
    np.testing.assert_allclose(scaled, base, rtol=1e-9)


def test_anova_matches_brute_force_on_100_random_instances():
    rng = make_rng(10, "anova-brute")
    for trial in range(100):
        n = int(rng.integers(6, 20))
        d = int(rng.integers(1, 6))
        g = int(rng.integers(2, min(n, 5)))
        labels = np.concatenate([np.arange(g), rng.integers(0, g, n - g)])
        x = rng.standard_normal((n, d)) + labels[:, None] * rng.standard_normal(d)
        got = dsp.anova_f_scores(x, labels)
        expect = _anova_brute(x, labels)
        np.testing.assert_allclose(got, expect, rtol=1e-9, atol=1e-9)


def test_anova_rejects_degenerate_inputs():
    with pytest.raises(dsp.DspError):
        dsp.anova_f_scores(np.zeros((4, 2)), np.zeros(4, dtype=int))
    with pytest.raises(dsp.DspError):
        dsp.anova_f_scores(np.zeros((3, 2)), np.array([0, 1, 2]))


# ---------------------------------------------------------------------------
# select_k_best

def test_select_top2():
    sel = dsp.select_k_best(np.array([0.1, 5.0, 3.0]), 2)
    assert sel.selected == (1, 2)


def test_select_all_is_identity():
    sel = dsp.select_k_best(np.array([3.0, 1.0, 2.0]), 3)
    assert sel.selected == (0, 1, 2)


def test_select_tie_breaks_to_lower_index():
    sel = dsp.select_k_best(np.array([2.0, 2.0, 1.0]), 1)
    assert sel.selected == (0,)


def test_select_rejects_bad_k():
    with pytest.raises(dsp.DspError):
        dsp.select_k_best(np.array([1.0]), 0)
    with pytest.raises(dsp.DspError):
        dsp.select_k_best(np.array([1.0]), 2)


def test_select_every_selected_beats_every_unselected():
    rng = make_rng(12, "select")
    for _ in range(20):
        scores = rng.random(10)
        k = int(rng.integers(1, 11))
        sel = dsp.select_k_best(scores, k)
        chosen = set(sel.selected)
        rest = [scores[i] for i in range(10) if i not in chosen]
        if rest:
            assert min(scores[i] for i in chosen) >= max(rest)


# ---------------------------------------------------------------------------
# pipeline

def _raw_sample(rng):
    frames = rng.standard_normal((30, 64)) + 1j * rng.standard_normal((30, 64))
    return CsiSample(frames, ActivityClass.LEANING, "leaning-0000")


def test_default_pipeline_shape_and_finiteness():
    rng = make_rng(13, "pipe")
    sample = _raw_sample(rng)
    out = dsp.run_pipeline(sample, dsp.default_stages())
    assert out.values.shape == (30, 64)
    assert np.isfinite(out.values).all()
    assert out.lineage == ("amplitude", "impute_mean", "butterworth(order=1,cutoff=0.05)")


def test_pipeline_with_pca_reduces_features():
    rng = make_rng(14, "pipe-pca")
    samples = [_raw_sample(rng) for _ in range(3)]
    stages = dsp.default_stages()
    pre = [dsp.run_pipeline(s, stages) for s in samples]
    pca = dsp.PcaStage(10).fit(pre)
    out = dsp.run_pipeline(samples[0], stages + [pca])
    assert out.values.shape == (30, 10)


def test_fit_stages_fits_mid_chain_stages_on_the_training_split_only():
    rng = make_rng(19, "fit-stages")
    train = [CsiSample(_raw_sample(rng).frames * (1 + i % 2), ActivityClass(i % 2),
                       f"train-{i}") for i in range(4)]
    held_out = [CsiSample(_raw_sample(rng).frames * 10, ActivityClass.LEANING, "held-out")]
    stages = dsp.parse_stages(
        "amplitude;impute_mean;pca:n_components=6;butterworth;select_k_best:k=2")
    dsp.fit_stages(stages, train)
    pca = dsp.PcaStage(6).fit([dsp.run_pipeline(s, stages[:2]) for s in train])
    assert np.array_equal(stages[2].model.mean, pca.model.mean)
    assert np.array_equal(stages[2].model.components, pca.model.components)
    every = dsp.PcaStage(6).fit([dsp.run_pipeline(s, stages[:2]) for s in train + held_out])
    assert not np.array_equal(stages[2].model.mean, every.model.mean)
    selected = dsp.SelectKBestStage(2).fit([dsp.run_pipeline(s, stages[:4]) for s in train])
    assert np.array_equal(stages[4].selection.scores, selected.selection.scores)
    assert stages[4].selection.selected == selected.selection.selected
    assert dsp.run_pipeline(held_out[0], stages).values.shape == (30, 2)


def test_pipeline_amplitude_only_equals_amplitude():
    rng = make_rng(15, "pipe-amp")
    sample = _raw_sample(rng)
    assert dsp.run_pipeline(sample, [dsp.AmplitudeStage()]) == dsp.amplitude(sample)


def test_pipeline_rejects_bad_stage_order():
    rng = make_rng(16, "pipe-order")
    sample = _raw_sample(rng)
    with pytest.raises(dsp.DspError):
        dsp.run_pipeline(sample, [dsp.ImputeMeanStage()])
    with pytest.raises(dsp.DspError):
        dsp.run_pipeline(sample, [dsp.AmplitudeStage(), dsp.AmplitudeStage()])


def test_pipeline_rejects_unfitted_stage():
    rng = make_rng(17, "pipe-unfit")
    sample = _raw_sample(rng)
    with pytest.raises(dsp.DspError, match="has not been fit"):
        dsp.run_pipeline(sample, [dsp.AmplitudeStage(), dsp.PcaStage(5)])


def test_select_stage_keeps_best_columns():
    rng = make_rng(18, "pipe-select")
    tensors = []
    for code in (0, 0, 1, 1):
        base = rng.standard_normal((20, 64))
        base[:, 7] += code * 10.0  # feature 7 carries the class signal
        tensors.append(FeatureTensor(base, code, ("amplitude",)))
    stage = dsp.SelectKBestStage(1).fit(tensors)
    assert stage.selection.selected == (7,)
    out = stage.apply(tensors[0])
    assert out.values.shape == (20, 1)


def test_parse_stages_roundtrip():
    text = "amplitude;impute_mean;butterworth:order=1,cutoff=0.05;pca:n_components=10"
    stages = dsp.parse_stages(text)
    assert [type(s) for s in stages] == [dsp.AmplitudeStage, dsp.ImputeMeanStage,
                                         dsp.ButterworthStage, dsp.PcaStage]
    assert dsp.stages_to_text(stages) == text


@pytest.mark.parametrize("cutoff", [0.05, 0.0123456789, 1 / 3, 0.1 + 0.2])
def test_stages_to_text_round_trips_the_butterworth_coefficients(cutoff):
    stage = dsp.ButterworthStage(2, cutoff)
    back = dsp.parse_stages(dsp.stages_to_text([dsp.AmplitudeStage(), stage]))[1]
    assert back.cutoff == cutoff
    assert back.coeffs.b.tobytes() == stage.coeffs.b.tobytes()
    assert back.coeffs.a.tobytes() == stage.coeffs.a.tobytes()


def test_parse_stages_rejects_unknown():
    with pytest.raises(dsp.DspError):
        dsp.parse_stages("amplitude;stft")
    with pytest.raises(dsp.DspError):
        dsp.parse_stages("butterworth:order=1,window=3")
