"""Two-stage synthetic data generation: features drawn from a density,
responses from an estimation model fitted on the original data."""

from __future__ import annotations

from typing import Optional

import numpy as np

from .datamodel import Dataset, NoiseModel, SeedSpec, TaskKind, draw_responses, make_dataset
from .densities import DensityModel
from .errors import EmptyOriginal
from .estimators import EstimatorSpec, FittedEstimator, fit_estimator


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


def synthesize_from_fitted(
    est: FittedEstimator, density: DensityModel, n: int, noise: Optional[NoiseModel], seed: SeedSpec
) -> Dataset:
    """n draws from the synthetic law: features from ``density``, responses
    from ``est`` as the truth (its mean plus ``noise`` for regression, labels
    from its class probability for classification)."""
    X = density.sample(n, seed.child(2))
    return make_dataset(X, draw_responses(est.task, est(X), noise, seed.child(3)), est.task)


def synthesize_dataset(
    spec: EstimatorSpec, original: Dataset, density: DensityModel, n: int,
    noise: Optional[NoiseModel], seed: SeedSpec,
) -> Dataset:
    """Fit ``spec`` on ``original``, then draw n synthetic points; ``noise``
    None means the residual-variance rule of ``synthetic_noise``.
    Deterministic given the arguments."""
    if original.n == 0:
        raise EmptyOriginal("original dataset is empty")
    est = fit_estimator(spec, original, seed.child(1))
    return synthesize_from_fitted(est, density, n, synthetic_noise(noise, est, original), seed)
