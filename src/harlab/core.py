"""Shared domain types: activity classes, CSI samples, feature tensors.

All types are immutable after construction (arrays are marked read-only),
so they can be shared freely across threads.
"""
from __future__ import annotations

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


def _freeze(arr: np.ndarray) -> np.ndarray:
    arr.setflags(write=False)
    return arr


@dataclass(frozen=True, eq=False)
class CsiSample:
    """One complex CSI capture: n_packets x n_subcarriers channel gains."""

    frames: np.ndarray
    label: ActivityClass
    sample_id: str
    lineage: tuple[str, ...] = ()

    def __post_init__(self):
        frames = np.asarray(self.frames, dtype=np.complex128)
        if frames.ndim != 2 or frames.shape[0] < 1:
            raise ValueError(f"frames must be a non-empty 2-D matrix, got shape {frames.shape}")
        if frames.shape[1] != 64 and not self.lineage:
            raise ValueError(
                f"expected 64 subcarriers, got {frames.shape[1]} with empty lineage")
        object.__setattr__(self, "frames", _freeze(frames))
        object.__setattr__(self, "label", ActivityClass(self.label))
        object.__setattr__(self, "lineage", tuple(self.lineage))

    @property
    def n_packets(self) -> int:
        return self.frames.shape[0]

    @property
    def n_subcarriers(self) -> int:
        return self.frames.shape[1]

    def __eq__(self, other) -> bool:
        # Bitwise on frames: equality must be exact for determinism checks.
        if not isinstance(other, CsiSample):
            return NotImplemented
        return (self.label == other.label
                and self.sample_id == other.sample_id
                and self.lineage == other.lineage
                and self.frames.shape == other.frames.shape
                and self.frames.tobytes() == other.frames.tobytes())


@dataclass(frozen=True, eq=False)
class FeatureTensor:
    """Real-valued preprocessed sample (timesteps x features) plus its label."""

    values: np.ndarray
    label: ActivityClass
    lineage: tuple[str, ...] = ()

    def __post_init__(self):
        values = np.asarray(self.values, dtype=np.float64)
        if values.ndim != 2:
            raise ValueError(f"values must be 2-D, got shape {values.shape}")
        if values.shape[1] != 64 and not self.lineage:
            raise ValueError(
                f"expected 64 features, got {values.shape[1]} with empty lineage")
        object.__setattr__(self, "values", _freeze(values))
        object.__setattr__(self, "label", ActivityClass(self.label))
        object.__setattr__(self, "lineage", tuple(self.lineage))

    @property
    def n_features(self) -> int:
        return self.values.shape[1]

    def with_values(self, values: np.ndarray, stage: str) -> "FeatureTensor":
        return FeatureTensor(values, self.label, self.lineage + (stage,))

    def __eq__(self, other) -> bool:
        if not isinstance(other, FeatureTensor):
            return NotImplemented
        return (self.label == other.label
                and self.lineage == other.lineage
                and self.values.shape == other.values.shape
                and self.values.tobytes() == other.values.tobytes())


Sample = CsiSample | FeatureTensor


@dataclass(frozen=True)
class Dataset:
    """An ordered collection of samples, canonical order class-major."""

    samples: tuple
    seed: int | None = None

    @classmethod
    def from_samples(cls, samples, seed: int | None = None) -> "Dataset":
        return cls(tuple(samples), seed)

    @property
    def class_counts(self) -> dict[ActivityClass, int]:
        counts = {c: 0 for c in ActivityClass}
        for s in self.samples:
            counts[s.label] += 1
        return counts

    def __len__(self) -> int:
        return len(self.samples)

    def __iter__(self):
        return iter(self.samples)
