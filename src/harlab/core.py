"""Shared domain types: activity classes, CSI samples, feature tensors.

All types are immutable after construction (arrays are marked read-only),
so they can be shared freely across threads.
"""
from __future__ import annotations

import dataclasses
import enum
from dataclasses import dataclass

import numpy as np


class ActivityClass(enum.IntEnum):
    """The seven activity classes, in canonical label order.

    Codes are contiguous 0..6 and never depend on dataset file ordering.
    """

    EMPTY = 0
    NO_ACTIVITY = 1
    SITTING = 2
    STANDING = 3
    LEANING = 4
    WALK_FORWARD = 5
    WALK_BACKWARD = 6

    @property
    def class_name(self) -> str:
        return self.name.lower()


N_CLASSES = len(ActivityClass)

_BY_NAME = {c.class_name: c for c in ActivityClass}


def class_from_name(name: str) -> ActivityClass:
    try:
        return _BY_NAME[name]
    except KeyError:
        raise ValueError(f"unknown activity class name: {name!r}") from None


def _init_sample(sample, matrix: str, dtype) -> None:
    """Coerce a sample's `matrix` field to a read-only, non-empty 2-D array
    of `dtype`, its label to an ActivityClass and its lineage to a tuple of
    non-empty stage names without '|', the manifest's lineage separator."""
    arr = np.asarray(getattr(sample, matrix), dtype=dtype)
    if arr.ndim != 2 or 0 in arr.shape:
        raise ValueError(f"{matrix} must be a non-empty 2-D matrix, got shape {arr.shape}")
    arr.setflags(write=False)
    object.__setattr__(sample, matrix, arr)
    object.__setattr__(sample, "label", ActivityClass(sample.label))
    lineage = sample.lineage if isinstance(sample.lineage, str) else tuple(sample.lineage)
    if isinstance(lineage, str) or not all(type(s) is str and s and "|" not in s for s in lineage):
        raise ValueError(f"lineage must be non-empty stage names without '|', got {lineage!r}")
    object.__setattr__(sample, "lineage", lineage)


def _equal(a, b, matrix: str):
    """a == b for samples: bitwise on the `matrix` field, since determinism
    checks need exact equality, and by value on the other fields."""
    if not isinstance(b, type(a)):
        return NotImplemented
    x, y = getattr(a, matrix), getattr(b, matrix)
    return (all(getattr(a, f.name) == getattr(b, f.name)
                for f in dataclasses.fields(a) if f.name != matrix)
            and x.shape == y.shape and x.tobytes() == y.tobytes())


@dataclass(frozen=True, eq=False)
class CsiSample:
    """One complex CSI capture: n_packets x n_subcarriers channel gains."""

    frames: np.ndarray
    label: ActivityClass
    lineage: tuple[str, ...] = ()

    def __post_init__(self):
        _init_sample(self, "frames", np.complex128)

    def __eq__(self, other) -> bool:
        return _equal(self, other, "frames")


@dataclass(frozen=True, eq=False)
class FeatureTensor:
    """Real-valued preprocessed sample (timesteps x features) plus its label."""

    values: np.ndarray
    label: ActivityClass
    lineage: tuple[str, ...] = ()

    def __post_init__(self):
        _init_sample(self, "values", np.float64)

    def with_values(self, values: np.ndarray, stage: str) -> "FeatureTensor":
        return FeatureTensor(values, self.label, self.lineage + (stage,))

    def __eq__(self, other) -> bool:
        return _equal(self, other, "values")


Sample = CsiSample | FeatureTensor


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of samples, canonical order class-major."""

    samples: tuple
    seed: int | None = None

    @classmethod
    def from_samples(cls, samples, seed: int | None = None) -> "Dataset":
        return cls(tuple(samples), seed)

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)
