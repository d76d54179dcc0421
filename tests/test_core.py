import copy
import os
import re
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
    return CsiSample(frames, ActivityClass.SITTING)


@pytest.mark.parametrize("width", [1, 32, 64, 114])
def test_samples_of_any_width_need_no_lineage(width):
    raw = CsiSample(np.ones((5, width), dtype=np.complex128), ActivityClass.EMPTY)
    tensor = FeatureTensor(np.zeros((3, width)), 0)
    assert (raw.frames.shape, tensor.values.shape) == ((5, width), (3, width))


@pytest.mark.parametrize("shape", [(0, 64), (5, 0), (64,), (2, 3, 4)])
def test_samples_are_non_empty_2d_matrices(shape):
    with pytest.raises(ValueError, match="non-empty 2-D matrix"):
        CsiSample(np.ones(shape, dtype=np.complex128), ActivityClass.EMPTY)
    with pytest.raises(ValueError, match="non-empty 2-D matrix"):
        FeatureTensor(np.zeros(shape), 0, ("amplitude",))


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
    raw = CsiSample(np.ones((2, 64)), ActivityClass.LEANING, ["toy"])
    tensor = FeatureTensor(np.zeros((2, 64)), 4, ["amplitude"])
    assert raw.label is tensor.label is ActivityClass.LEANING
    assert (raw.lineage, tensor.lineage) == (("toy",), ("amplitude",))


@pytest.mark.parametrize("lineage", ["amplitude", "sitting-0000", ("amplitude", "x|y"),
                                     ("amplitude", ""), ("amplitude", None)],
                         ids=["a-string", "an-old-sample-id", "separator", "empty-entry",
                              "not-a-string"])
def test_a_lineage_that_the_manifest_cannot_carry_raises_naming_it(lineage):
    # a string lineage became one entry per character, "x|y" or "" came back
    # from a saved root as other entries, and CsiSample's third argument was
    # its sample id
    for make in (FeatureTensor, CsiSample):
        with pytest.raises(ValueError, match=re.escape(repr(lineage))):
            make(np.ones((2, 3)), ActivityClass.SITTING, lineage)
