import copy
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import harlab
from harlab.core import ActivityClass, CsiSample, FeatureTensor, class_from_name


def test_seven_classes_contiguous_codes():
    codes = [int(c) for c in ActivityClass]
    assert codes == [0, 1, 2, 3, 4, 5, 6]


def test_class_from_name_roundtrip():
    for cls in ActivityClass:
        assert class_from_name(cls.class_name) is cls
    with pytest.raises(ValueError):
        class_from_name("jumping")


def _sample(frames=None):
    if frames is None:
        frames = np.ones((5, 64), dtype=np.complex128)
    return CsiSample(frames, ActivityClass.SITTING, "sitting-0000")


def test_csisample_shape_validation():
    with pytest.raises(ValueError):
        CsiSample(np.ones((5, 32), dtype=np.complex128), ActivityClass.EMPTY, "x")
    # non-64 widths are fine once lineage records the producing stage
    s = CsiSample(np.ones((5, 32), dtype=np.complex128), ActivityClass.EMPTY, "x",
                  ("select_k_best(k=32)",))
    assert s.frames.shape == (5, 32)


def test_csisample_immutable():
    s = _sample()
    with pytest.raises(ValueError):
        s.frames[0, 0] = 2.0


def test_deepcopy_equality_is_bitwise():
    frames = np.arange(5 * 64, dtype=np.float64).reshape(5, 64) * (1 + 1j)
    frames[0, 0] = np.nan + 1j  # NaN must still compare equal bitwise
    s = _sample(frames)
    assert copy.deepcopy(s) == s
    other = _sample(frames.copy().conj())
    assert s != other


def test_feature_tensor_label_range():
    with pytest.raises(ValueError):
        FeatureTensor(np.zeros((3, 64)), 7)


def test_feature_tensor_width_guard():
    with pytest.raises(ValueError):
        FeatureTensor(np.zeros((3, 10)), 0)
    t = FeatureTensor(np.zeros((3, 10)), 0, ("amplitude", "pca(n_components=10)"))
    assert t.values.shape == (3, 10)


def test_import_of_models_loads_no_storage_dsp_or_pool_code():
    # the package resolves its re-exports on first use, so a process that
    # trains in memory pays for no submodule it does not call
    code = "import sys, harlab.models; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(Path(harlab.__file__).parents[1])}
    loaded = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                            capture_output=True, text=True).stdout.split()
    assert [m for m in loaded if m.partition(".")[0] == "harlab"] == [
        "harlab", "harlab.core", "harlab.models", "harlab.nn", "harlab.rng"]
    assert "multiprocessing" not in loaded


def test_public_names_resolve_and_are_listed_once_in_order():
    assert [name for name in harlab.__all__ if not hasattr(harlab, name)] == []
    assert harlab.__all__ == sorted(set(harlab.__all__))


def test_both_sample_types_carry_label_and_lineage():
    raw = CsiSample(np.ones((2, 64)), ActivityClass.LEANING, "leaning-0000", ["toy"])
    tensor = FeatureTensor(np.zeros((2, 64)), 4, ["amplitude"])
    assert raw.label is tensor.label is ActivityClass.LEANING
    assert (raw.lineage, tensor.lineage) == (("toy",), ("amplitude",))
