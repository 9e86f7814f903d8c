"""Two-stage synthetic data generation: features from a generator, responses
from an estimation model fitted on the original data."""

from __future__ import annotations

import enum
from dataclasses import dataclass
from typing import Optional

import numpy as np

from .datamodel import (
    Dataset,
    NoiseModel,
    SeedSpec,
    TaskKind,
    draw_responses,
    make_dataset,
)
from .densities import DensityModel
from .errors import EmptyOriginal, TaskMismatch
from .estimators import EstimatorSpec, FittedEstimator, fit_estimator


class GeneratorKind(enum.Enum):
    FROM_DENSITY = "from-density"
    RESAMPLE = "resample"


@dataclass(frozen=True)
class FeatureGeneratorSpec:
    kind: GeneratorKind
    density: Optional[DensityModel] = None

    @staticmethod
    def from_density(density: DensityModel) -> "FeatureGeneratorSpec":
        return FeatureGeneratorSpec(GeneratorKind.FROM_DENSITY, density)

    @staticmethod
    def resample() -> "FeatureGeneratorSpec":
        return FeatureGeneratorSpec(GeneratorKind.RESAMPLE)


@dataclass(frozen=True)
class SynthesisConfig:
    generator: FeatureGeneratorSpec
    estimator: EstimatorSpec
    synthetic_n: int
    noise: Optional[NoiseModel] = None  # regression only; None = residual variance

    def __post_init__(self):
        if self.synthetic_n < 1:
            raise ValueError("synthetic_n must be >= 1")


def generate_features(
    spec: FeatureGeneratorSpec, original: Dataset, n: int, seed: SeedSpec
) -> np.ndarray:
    """Synthetic features: i.i.d. draws from a fixed density (independent of
    the original features) or uniform resampling with replacement."""
    if n < 1:
        raise ValueError("n must be >= 1")
    if spec.kind is GeneratorKind.FROM_DENSITY:
        return spec.density.sample(n, seed)
    if original is None or original.n == 0:
        raise EmptyOriginal("cannot resample from an empty dataset")
    idx = seed.rng().integers(0, original.n, size=n)
    return original.features[idx].copy()


def generate_regression_responses(
    est: FittedEstimator, features: np.ndarray, noise: NoiseModel, seed: SeedSpec
) -> np.ndarray:
    if est.task is not TaskKind.REGRESSION:
        raise TaskMismatch("regression responses require a regression estimator")
    return draw_responses(TaskKind.REGRESSION, est.mean(features), noise, seed)


def generate_classification_responses(
    est: FittedEstimator, features: np.ndarray, seed: SeedSpec
) -> np.ndarray:
    if est.task is not TaskKind.CLASSIFICATION:
        raise TaskMismatch("classification responses require a classification estimator")
    return draw_responses(TaskKind.CLASSIFICATION, est.prob(features), None, seed)


def residual_variance(est: FittedEstimator, data: Dataset) -> float:
    """Sample variance of original-data residuals under the fitted estimator
    (the default synthetic-noise variance)."""
    resid = data.responses - est.mean(data.features)
    return float(np.var(resid))


def synthetic_noise(
    noise: Optional[NoiseModel], est: FittedEstimator, original: Dataset
) -> Optional[NoiseModel]:
    """The synthetic-noise law: ``noise`` when given; otherwise bounded-uniform
    noise with the residual variance of ``est`` on ``original`` for
    regression, and none for classification."""
    if noise is not None or original.task is not TaskKind.REGRESSION:
        return noise
    return NoiseModel.bounded_uniform(residual_variance(est, original))


def synthesize_dataset(config: SynthesisConfig, original: Dataset, seed: SeedSpec) -> Dataset:
    """Run the full pipeline: fit the estimator, draw synthetic features, then
    synthetic responses.  Deterministic given (config, original, seed)."""
    if original.n == 0:
        raise EmptyOriginal("original dataset is empty")
    est = fit_estimator(config.estimator, original, seed.child(1))
    return synthesize_from_fitted(est, config, original, seed)


def synthesize_from_fitted(
    est: FittedEstimator, config: SynthesisConfig, original: Dataset, seed: SeedSpec
) -> Dataset:
    """Synthesis with an already-fitted estimation model (stage 2 only)."""
    features = generate_features(config.generator, original, config.synthetic_n, seed.child(2))
    if original.task is TaskKind.REGRESSION:
        noise = synthetic_noise(config.noise, est, original)
        responses = generate_regression_responses(est, features, noise, seed.child(3))
    else:
        responses = generate_classification_responses(est, features, seed.child(3))
    return make_dataset(features, responses, original.task)
