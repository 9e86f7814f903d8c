"""Core data containers: datasets, noise models, and seeded random streams.

Conventions used throughout the package:
  - Feature matrices have shape (n, p), rows are observations.
  - Regression responses are float vectors of length n.
  - Classification responses take values in {-1.0, +1.0}.
"""

from __future__ import annotations

import csv
import enum
import math
from dataclasses import dataclass, field, fields
from typing import Sequence

import numpy as np

from .errors import (
    DimensionMismatch,
    InvalidLabel,
    InvalidVariance,
    NonFiniteValue,
)


class TaskKind(enum.Enum):
    REGRESSION = "regression"
    CLASSIFICATION = "classification"


@dataclass(frozen=True)
class SeedSpec:
    """Deterministic, order-independent source of random streams.

    Streams are derived with a counter-based scheme (SeedSequence spawn
    keys), so ``(master_seed, stream_id)`` plus any substream path always
    reproduces the same draws, independent of call order or parallelism.
    """

    master_seed: int
    stream_id: int = 0
    path: tuple = ()

    def rng(self, *substream: int) -> np.random.Generator:
        ss = np.random.SeedSequence(
            entropy=self.master_seed, spawn_key=(self.stream_id, *self.path, *substream)
        )
        return np.random.default_rng(ss)

    def child(self, *path: int) -> "SeedSpec":
        """Independent derived stream; children are collision-free by path."""
        return SeedSpec(self.master_seed, self.stream_id, self.path + path)


class JsonReport:
    """Base of the report dataclasses: to_json_dict maps every field, with
    nested reports as dicts, enums as their values and arrays as float lists."""

    def to_json_dict(self) -> dict:
        return {f.name: _json_value(getattr(self, f.name)) for f in fields(self)}


def _json_value(value):
    if isinstance(value, JsonReport):
        return value.to_json_dict()
    if isinstance(value, enum.Enum):
        return value.value
    if isinstance(value, np.ndarray):
        return [float(v) for v in value]
    if isinstance(value, dict):
        return {k: _json_value(v) for k, v in value.items()}
    return value


class NoiseKind(enum.Enum):
    GAUSSIAN = "gaussian"
    BOUNDED_UNIFORM = "bounded-uniform"


@dataclass(frozen=True)
class NoiseModel:
    """Mean-zero noise with a prescribed variance.

    BOUNDED_UNIFORM is uniform on [-sqrt(3 v), +sqrt(3 v)], which is bounded
    with exact variance v (the choice used for synthetic noise).
    """

    kind: NoiseKind
    variance: float

    def __post_init__(self):
        if not math.isfinite(self.variance) or self.variance < 0:
            raise InvalidVariance(f"variance must be finite and >= 0, got {self.variance}")

    @staticmethod
    def gaussian(variance: float) -> "NoiseModel":
        return NoiseModel(NoiseKind.GAUSSIAN, variance)

    @staticmethod
    def bounded_uniform(variance: float) -> "NoiseModel":
        return NoiseModel(NoiseKind.BOUNDED_UNIFORM, variance)

    @staticmethod
    def none() -> "NoiseModel":
        return NoiseModel(NoiseKind.GAUSSIAN, 0.0)


def sample_noise(model: NoiseModel, n: int, seed: SeedSpec) -> np.ndarray:
    """Draw n independent mean-zero noise values with model.variance."""
    if n < 1:
        raise ValueError(f"n must be >= 1, got {n}")
    rng = seed.rng()
    if model.variance == 0.0:
        return np.zeros(n)
    if model.kind is NoiseKind.GAUSSIAN:
        return rng.normal(0.0, math.sqrt(model.variance), size=n)
    half_width = math.sqrt(3.0 * model.variance)
    return rng.uniform(-half_width, half_width, size=n)


@dataclass(frozen=True)
class Dataset:
    """Validated supervised dataset; immutable after construction."""

    features: np.ndarray
    responses: np.ndarray
    task: TaskKind
    n: int = field(init=False)
    p: int = field(init=False)

    def __post_init__(self):
        object.__setattr__(self, "n", int(self.features.shape[0]))
        object.__setattr__(self, "p", int(self.features.shape[1]))
        self.features.setflags(write=False)
        self.responses.setflags(write=False)


def make_dataset(features, responses, task: TaskKind) -> Dataset:
    """Validate and assemble a Dataset.

    Raises DimensionMismatch, NonFiniteValue, or InvalidLabel (classification
    responses must be exactly -1 or +1).
    """
    X = np.asarray(features, dtype=float)
    y = np.asarray(responses, dtype=float)
    if X.ndim == 1:
        X = X.reshape(-1, 1)
    if X.ndim != 2:
        raise DimensionMismatch(f"features must be 2-d, got ndim={X.ndim}")
    if y.ndim != 1:
        raise DimensionMismatch(f"responses must be 1-d, got ndim={y.ndim}")
    if X.shape[0] != y.shape[0]:
        raise DimensionMismatch(
            f"features have {X.shape[0]} rows but responses have length {y.shape[0]}"
        )
    if not np.all(np.isfinite(X)):
        raise NonFiniteValue("features contain non-finite entries")
    if not np.all(np.isfinite(y)):
        raise NonFiniteValue("responses contain non-finite entries")
    if task is TaskKind.CLASSIFICATION:
        bad = ~np.isin(y, (-1.0, 1.0))
        if np.any(bad):
            raise InvalidLabel(
                f"classification responses must be in {{-1, +1}}; offending value "
                f"{y[bad][0]!r} at index {int(np.flatnonzero(bad)[0])}"
            )
    return Dataset(X.copy(), y.copy(), task)


def write_csv(dataset: Dataset, path) -> None:
    """Write a dataset as CSV with header x1,...,xp,y (labels as -1/+1 ints)."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow([f"x{j + 1}" for j in range(dataset.p)] + ["y"])
        classification = dataset.task is TaskKind.CLASSIFICATION
        for i in range(dataset.n):
            row = [repr(float(v)) for v in dataset.features[i]]
            if classification:
                row.append(str(int(dataset.responses[i])))
            else:
                row.append(repr(float(dataset.responses[i])))
            writer.writerow(row)


def read_csv(path, task: TaskKind) -> Dataset:
    """Read a dataset written by write_csv."""
    with open(path, newline="") as fh:
        reader = csv.reader(fh)
        header = next(reader)
        if not header or header[-1] != "y" or not all(
            h == f"x{j + 1}" for j, h in enumerate(header[:-1])
        ):
            raise DimensionMismatch(f"unexpected CSV header {header}")
        rows = [[float(v) for v in row] for row in reader if row]
    data = np.asarray(rows, dtype=float)
    if data.size == 0:
        raise DimensionMismatch("CSV contains no data rows")
    return make_dataset(data[:, :-1], data[:, -1], task)


def labels_from_probabilities(prob: Sequence[float], rng: np.random.Generator) -> np.ndarray:
    """Map success probabilities to {-1, +1} labels with independent draws."""
    prob = np.asarray(prob, dtype=float)
    u = rng.random(prob.shape[0])
    return np.where(u < prob, 1.0, -1.0)
