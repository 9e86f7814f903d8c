"""Risk estimation, excess risk, the synthetic-vs-original utility metric, and
model-comparison verdicts.

Risks are expectations under the true feature distribution.  Monte-Carlo
estimates share test draws across the models being compared (common random
numbers), so the utility of a model against itself is exactly zero and the
standard error of a difference reflects the coupled draws.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass
from typing import Callable, Optional, Sequence, Union

import numpy as np
from scipy.integrate import IntegrationWarning, quad

from .datamodel import (
    JsonReport,
    NoiseModel,
    SeedSpec,
    TaskKind,
    draw_responses,
)
from .densities import DensityModel
from .erm import BasisFunctionClass, FittedModel
from .errors import Indeterminate, UnsupportedQuadrature
from .estimators import FittedEstimator

SQUARED = "squared"
ZERO_ONE = "zero-one"

Predictor = Union[FittedModel, FittedEstimator, Callable]


@dataclass(frozen=True)
class RiskEstimate(JsonReport):
    value: float
    std_error: float
    method: str  # "monte-carlo" or "quadrature-1d"
    loss: str
    n_test: int = 0


@dataclass(frozen=True)
class RiskConfig:
    """Everything needed to evaluate risks in a scenario."""

    density: DensityModel
    truth: Callable  # conditional mean (regression) or P(Z=+1|x) (classification)
    loss: str = SQUARED
    noise: Optional[NoiseModel] = None
    n_test: int = 50_000
    method: str = "monte-carlo"
    seed: SeedSpec = SeedSpec(0)

    @property
    def task(self) -> TaskKind:
        return TaskKind.REGRESSION if self.loss == SQUARED else TaskKind.CLASSIFICATION


@dataclass(frozen=True)
class UtilityReport(JsonReport):
    task: TaskKind
    risk_synthetic: RiskEstimate
    risk_original: RiskEstimate
    utility: float
    combined_std_error: float


@dataclass(frozen=True)
class ComparisonReport(JsonReport):
    """Population-optima comparison; all four risks are under the TRUE
    distribution.  Signs are declared only outside a two-standard-error dead
    band around zero."""

    risk_f1_real: RiskEstimate
    risk_f2_real: RiskEstimate
    risk_f1_synth: RiskEstimate
    risk_f2_synth: RiskEstimate
    original_sign: int
    synthetic_sign: int
    consistent: bool
    optima: dict


def _score_fn(model: Predictor, loss: str) -> Callable:
    """Normalize a predictor to a vectorized score function.

    FittedEstimator objects enter as plug-ins: the conditional mean for
    squared loss, the score eta_hat - 1/2 for zero-one loss.
    """
    if isinstance(model, FittedModel):
        return model.predict
    if isinstance(model, FittedEstimator):
        return model.mean if loss == SQUARED else (lambda X: model.prob(X) - 0.5)
    return model


def _model_knots(model: Predictor) -> tuple:
    if isinstance(model, FittedModel):
        return model.quadrature_knots()
    return ()


def _sign_pred(scores: np.ndarray) -> np.ndarray:
    return np.where(scores >= 0.0, 1.0, -1.0)


def _loss_vector(
    score: Callable, loss: str, X: np.ndarray, target: np.ndarray
) -> np.ndarray:
    s = np.asarray(score(X), dtype=float).reshape(-1)
    if loss == SQUARED:
        return (s - target) ** 2
    return (_sign_pred(s) != target).astype(float)


def _excess_vector(scores: np.ndarray, truth: np.ndarray, loss: str) -> np.ndarray:
    """Pointwise excess loss over the noise-free truth: the squared gap, or
    for zero-one loss |2 eta - 1| where the score's sign disagrees with the
    Bayes sign."""
    if loss == SQUARED:
        return (scores - truth) ** 2
    bayes = np.where(truth >= 0.5, 1.0, -1.0)
    return (_sign_pred(scores) != bayes) * np.abs(2.0 * truth - 1.0)


# Risk quadrature evaluates every integral over a density's factor on the
# same nodes: QUADPACK bisects one interval the same way whatever the model.
# The density and the truth at a node, and a basis model's feature row, do not
# depend on the fitted model, so they are kept per node in a memo keyed by
# (factor, truth, feature map).  At most _MEMO_KEYS keys are kept, each with
# at most _MEMO_NODES nodes.
_MEMO_KEYS = 32
_MEMO_NODES = 2048


@functools.lru_cache(maxsize=_MEMO_KEYS)
def _shared_memo(*key) -> dict:
    return {}


def _node_memo(*key) -> dict:
    """The node memo of ``key``, or a fresh one for this integral alone when
    a part of the key is unhashable (a plug-in FittedEstimator)."""
    try:
        return _shared_memo(*key)
    except TypeError:
        return {}


def _quadrature(model: Predictor, density: DensityModel, truth, loss: str, excess: bool) -> float:
    """One-dimensional quadrature of a predictor's pointwise loss against the
    noise-free truth (excess=False) or of its pointwise excess risk."""
    if density.dim != 1:
        raise UnsupportedQuadrature("quadrature risks require one-dimensional features")
    if loss == SQUARED:
        rule = lambda s, eta: (s - eta) ** 2
    elif excess:
        # weight |2 eta - 1| where the sign disagrees with the Bayes rule
        rule = lambda s, eta: abs(2.0 * eta - 1.0) if (s >= 0.0) != (eta >= 0.5) else 0.0
    else:
        rule = lambda s, eta: eta if s < 0.0 else 1.0 - eta

    f, fn = density.factors[0], _score_fn(model, loss)
    # a basis model scores a node by the ddot of its read-only feature row
    # with the coefficients, as its predict does for one row (for q = 1 the
    # sign of a zero score may differ, which no rule can see)
    mc = model.model_class if isinstance(model, FittedModel) else None
    basis = isinstance(mc, BasisFunctionClass)
    beta = model.coefficients if basis else None
    nodes = _node_memo(f, truth, mc.feature_map if basis else None)

    def node(x):
        pt = np.array([[x]])
        pdf, eta, dot = float(f.pdf1(x)), float(truth(pt)[0]), None
        if basis:
            row = mc.features(pt)[0]
            row.flags.writeable = False
            dot = row.dot
        return pdf, eta, dot

    def weighted(x):
        key = x if x else (x, math.copysign(1.0, x))  # 0.0 and -0.0 may evaluate apart
        hit = nodes.get(key)
        if hit is None:
            hit = node(x)
            if len(nodes) < _MEMO_NODES:
                nodes[key] = hit
        pdf, eta, dot = hit
        return pdf * rule(float(dot(beta)) if dot else float(fn(np.array([[x]]))[0]), eta)

    pts = sorted({k for k in (*f.knots(), *_model_knots(model)) if f.a < k < f.b})
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(weighted, f.a, f.b, points=pts or None, limit=200)
    return val


def estimate_risk(
    model: Predictor,
    density: DensityModel,
    truth,
    noise: Optional[NoiseModel] = None,
    loss: str = SQUARED,
    n_test: int = 50_000,
    seed: SeedSpec = SeedSpec(0),
    method: str = "monte-carlo",
) -> RiskEstimate:
    """Risk of a single predictor under (density, truth, noise).

    Monte-Carlo is unbiased with std_error = sample std / sqrt(n_test);
    one-dimensional quadrature is deterministic (std_error = 0).
    """
    cfg = RiskConfig(
        density=density, truth=truth, loss=loss, noise=noise, n_test=n_test, method=method, seed=seed
    )
    return risks_common_draws([model], cfg)[0][0]


def excess_risk(
    model: Predictor,
    density: DensityModel,
    truth,
    loss: str = SQUARED,
    method: str = "quadrature",
    n_test: int = 50_000,
    seed: SeedSpec = SeedSpec(0),
) -> float:
    """Squared loss: E[(f - mu)^2].  Zero-one: E[1{sign f != Bayes} |2 eta - 1|]."""
    if method == "quadrature":
        return _quadrature(model, density, truth, loss, excess=True)
    score = _score_fn(model, loss)
    X = density.sample(n_test, seed.child(93))
    truth_vals = np.asarray(truth(X), dtype=float).reshape(-1)
    scores = np.asarray(score(X), dtype=float).reshape(-1)
    return float(np.mean(_excess_vector(scores, truth_vals, loss)))


def _draw_test_sample(cfg: RiskConfig):
    X = cfg.density.sample(cfg.n_test, cfg.seed.child(91))
    target = draw_responses(cfg.task, cfg.truth(X), cfg.noise, cfg.seed.child(92))
    X.flags.writeable = target.flags.writeable = False
    return X, target


_last_test_sample = functools.lru_cache(maxsize=1)(_draw_test_sample)


def _test_sample(cfg: RiskConfig):
    """The Monte-Carlo test features and responses of cfg, read-only.  The
    last draw is kept, so the utilities of one unit, which share one config,
    draw once; a config with an unhashable part (a plug-in FittedEstimator
    truth) draws afresh."""
    try:
        hash(cfg)
    except TypeError:
        return _draw_test_sample(cfg)
    return _last_test_sample(cfg)


def risks_common_draws(models: Sequence[Predictor], cfg: RiskConfig):
    """Risks of several predictors on one shared test draw.

    Returns (estimates, loss_matrix); the loss matrix enables exact standard
    errors for pairwise differences.  Quadrature risks are exact and return
    no loss matrix.
    """
    if cfg.method == "quadrature":
        sigma2 = cfg.noise.variance if cfg.loss == SQUARED and cfg.noise is not None else 0.0
        ests = [
            RiskEstimate(
                _quadrature(m, cfg.density, cfg.truth, cfg.loss, excess=False) + sigma2,
                0.0,
                "quadrature-1d",
                cfg.loss,
            )
            for m in models
        ]
        return ests, None
    X, target = _test_sample(cfg)
    vectors = [_loss_vector(_score_fn(m, cfg.loss), cfg.loss, X, target) for m in models]
    ests = [
        RiskEstimate(
            float(v.mean()),
            float(v.std(ddof=1) / math.sqrt(cfg.n_test)),
            "monte-carlo",
            cfg.loss,
            cfg.n_test,
        )
        for v in vectors
    ]
    return ests, np.vstack(vectors)


def _diff_std_error(loss_matrix, i: int, j: int, cfg: RiskConfig) -> float:
    if loss_matrix is None:
        return 0.0
    d = loss_matrix[i] - loss_matrix[j]
    return float(d.std(ddof=1) / math.sqrt(cfg.n_test))


def utility_metric(
    model_synthetic: Predictor, model_original: Predictor, cfg: RiskConfig
) -> UtilityReport:
    """|risk(synthetic-trained) - risk(original-trained)| on shared test draws."""
    (est_s, est_o), loss_matrix = risks_common_draws([model_synthetic, model_original], cfg)
    combined = _diff_std_error(loss_matrix, 0, 1, cfg)
    return UtilityReport(
        task=cfg.task,
        risk_synthetic=est_s,
        risk_original=est_o,
        utility=abs(est_s.value - est_o.value),
        combined_std_error=combined,
    )


def _band_sign(diff: float, se: float) -> int:
    if abs(diff) < 2.0 * se or diff == 0.0:
        return 0
    return 1 if diff > 0 else -1


def compare_models(
    f1: FittedModel, f2: FittedModel, f1s: FittedModel, f2s: FittedModel, cfg: RiskConfig
) -> ComparisonReport:
    """Does synthetic training preserve the ranking of two model classes?

    Takes the population optima of both classes under the real law (f1, f2)
    and under the synthetic law (f1s, f2s), evaluates all four risks under
    the real law (``cfg.density``, ``cfg.truth``), and reports sign agreement
    of the two risk gaps.  Raises Indeterminate when either gap falls inside
    the two-standard-error dead band.
    """
    ests, loss_matrix = risks_common_draws([f1, f2, f1s, f2s], cfg)
    gap_orig = ests[0].value - ests[1].value
    gap_synth = ests[2].value - ests[3].value
    sign_orig = _band_sign(gap_orig, _diff_std_error(loss_matrix, 0, 1, cfg))
    sign_synth = _band_sign(gap_synth, _diff_std_error(loss_matrix, 2, 3, cfg))
    if sign_orig == 0 or sign_synth == 0:
        raise Indeterminate(
            f"risk gap inside dead band (original {gap_orig:.3g}, synthetic {gap_synth:.3g})"
        )
    return ComparisonReport(
        risk_f1_real=ests[0],
        risk_f2_real=ests[1],
        risk_f1_synth=ests[2],
        risk_f2_synth=ests[3],
        original_sign=sign_orig,
        synthetic_sign=sign_synth,
        consistent=sign_orig == sign_synth,
        optima={
            "f1_real": f1.coefficients,
            "f2_real": f2.coefficients,
            "f1_synth": f1s.coefficients,
            "f2_synth": f2s.coefficients,
        },
    )
