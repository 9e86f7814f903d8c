"""Computable decompositions of the analytic utility bounds.

Three bound families are assembled here from Monte-Carlo component estimates:
the regression bound (estimation errors + feature-fidelity coupling +
estimation-model quality), its classification analogue, and the fully
explicit linear-regression bound built from the realized noise vectors and
design matrices.  A fourth helper evaluates the excess-risk gap condition
(with its two constants) under which synthetic model comparison is provably
consistent.

Sup-norm constants are estimated as maxima over the test sample plus the
support-box corners (exact for affine predictors on a box).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .datamodel import JsonReport, NoiseModel, SeedSpec, labels_from_probabilities, sample_noise
from .densities import BoxSupport, DensityModel, chi_square_divergence
from .erm import BasisFunctionClass, FittedModel, ThresholdAbsClass
from .errors import SingularDesign
from .estimators import FittedEstimator

_TINY = 1e-12


@dataclass(frozen=True)
class RegressionScenario:
    real_density: DensityModel
    synth_density: DensityModel
    truth: Callable  # true conditional mean, vectorized over rows
    noise: NoiseModel
    mu_hat: FittedEstimator
    synth_noise: NoiseModel


@dataclass(frozen=True)
class ClassificationScenario:
    real_density: DensityModel
    synth_density: DensityModel
    truth: Callable  # true P(Z=+1|x), vectorized over rows
    eta_hat: FittedEstimator


@dataclass(frozen=True)
class FittedQuad:
    """The four downstream fits a bound needs: ERM on original data, ERM on
    synthetic data, and the two population optima (real and synthetic)."""

    on_original: FittedModel
    on_synthetic: FittedModel
    population_real: FittedModel
    population_synth: FittedModel


@dataclass(frozen=True)
class RegressionBoundReport(JsonReport):
    est_err_original: float
    est_err_synthetic: float
    chi2: float
    M: float
    upsilon1: float
    upsilon2: float
    phi_mu_hat: float
    total: float

    @property
    def vacuous(self) -> bool:
        return math.isinf(self.total)


@dataclass(frozen=True)
class ClassificationBoundReport(JsonReport):
    est_err_original: float
    est_err_synthetic: float
    chi2: float
    upsilon3: float
    eta_l2_gap: float
    c_terms: float
    phi_plugin: float
    total: float

    @property
    def vacuous(self) -> bool:
        return math.isinf(self.total)


@dataclass(frozen=True)
class LRBoundReport(JsonReport):
    t1: float  # 13 trace(eps eps' Q Lambda Q')
    t2: float  # trace(eps~ eps~' Q~ Lambda~ Q~')
    t3: float  # trace(eps eps' Q Lambda~ Q')
    chi2_term: float
    cross_term: float
    M_LR: float
    total: float


@dataclass(frozen=True)
class AssumptionCheck(JsonReport):
    d: float
    V: float
    U: float
    C_dVU: float
    K_dV: float
    lhs_reg: float
    rhs_reg: float
    lhs_cls: float
    rhs_cls: float
    holds_reg: bool
    holds_cls: bool


def _pred(model, X):
    if isinstance(model, FittedModel):
        return np.asarray(model.predict(X), dtype=float).reshape(-1)
    return np.asarray(model(X), dtype=float).reshape(-1)


def _sup_abs(model_values_fn, X: np.ndarray, support: BoxSupport) -> float:
    pts = np.vstack([X, support.corners()])
    return float(np.max(np.abs(model_values_fn(pts))))


def _coupled_total(finite_part: float, coef: float, chi2: float) -> float:
    """finite_part + coef * sqrt(chi2), treating 0 * inf as 0."""
    if math.isinf(chi2):
        return math.inf if coef > _TINY else finite_part
    return finite_part + coef * math.sqrt(chi2)


def regression_bound(
    scenario: RegressionScenario,
    fitted: FittedQuad,
    n_test: int = 50_000,
    seed: SeedSpec = SeedSpec(0),
    chi2: Optional[float] = None,
) -> RegressionBoundReport:
    """Assemble the regression utility bound from Monte-Carlo components.

    An infinite chi-square with a positive coupling coefficient yields
    total = inf (the bound is vacuous, flagged rather than failed).
    """
    X = scenario.real_density.sample(n_test, seed.child(11))
    Xs = scenario.synth_density.sample(n_test, seed.child(12))
    mu_X = np.asarray(scenario.truth(X), dtype=float).reshape(-1)
    muh_X = scenario.mu_hat.mean(X)
    muh_Xs = scenario.mu_hat.mean(Xs)
    eps = sample_noise(scenario.noise, n_test, seed.child(13)) if scenario.noise.variance else 0.0
    eps_s = (
        sample_noise(scenario.synth_noise, n_test, seed.child(14))
        if scenario.synth_noise.variance
        else 0.0
    )

    y = mu_X + eps
    ys = muh_Xs + eps_s

    def risk_real(model):
        return float(np.mean((_pred(model, X) - y) ** 2))

    def risk_synth(model):
        return float(np.mean((_pred(model, Xs) - ys) ** 2))

    est_err_original = abs(risk_real(fitted.on_original) - risk_real(fitted.population_real))
    est_err_synthetic = abs(risk_synth(fitted.on_synthetic) - risk_synth(fitted.population_synth))

    def phi_synth(model):  # excess risk against mu_hat under the synthetic law
        return float(np.mean((_pred(model, Xs) - muh_Xs) ** 2))

    def phi_real(model):  # excess risk against mu under the real law
        return float(np.mean((_pred(model, X) - mu_X) ** 2))

    upsilon1 = (
        math.sqrt(phi_synth(fitted.on_synthetic))
        + 2.0 * math.sqrt(phi_synth(fitted.population_synth))
        + math.sqrt(phi_synth(fitted.population_real))
    )
    upsilon2 = (
        math.sqrt(phi_real(fitted.on_synthetic))
        + 2.0 * math.sqrt(phi_real(fitted.population_synth))
        + math.sqrt(phi_real(fitted.population_real))
    )
    phi_mu_hat = float(np.mean((muh_X - mu_X) ** 2))

    support = scenario.real_density.support
    M = max(
        _sup_abs(scenario.mu_hat.mean, X, support),
        _sup_abs(lambda pts: _pred(fitted.on_synthetic, pts), X, support),
        _sup_abs(lambda pts: _pred(fitted.population_synth, pts), X, support),
        _sup_abs(lambda pts: _pred(fitted.population_real, pts), X, support),
    )

    if chi2 is None:
        chi2 = chi_square_divergence(scenario.real_density, scenario.synth_density)
    finite_part = (
        est_err_original
        + est_err_synthetic
        + 2.0 * upsilon2 * math.sqrt(phi_mu_hat)
        + 4.0 * phi_mu_hat
    )
    total = _coupled_total(finite_part, 2.0 * M * upsilon1, chi2)
    return RegressionBoundReport(
        est_err_original=est_err_original,
        est_err_synthetic=est_err_synthetic,
        chi2=chi2,
        M=M,
        upsilon1=upsilon1,
        upsilon2=upsilon2,
        phi_mu_hat=phi_mu_hat,
        total=total,
    )


def classification_bound(
    scenario: ClassificationScenario,
    fitted: FittedQuad,
    n_test: int = 50_000,
    seed: SeedSpec = SeedSpec(0),
    chi2: Optional[float] = None,
) -> ClassificationBoundReport:
    """Classification analogue of the regression bound."""
    X = scenario.real_density.sample(n_test, seed.child(21))
    Xs = scenario.synth_density.sample(n_test, seed.child(22))
    eta_X = np.asarray(scenario.truth(X), dtype=float).reshape(-1)
    etah_X = scenario.eta_hat.prob(X)
    etah_Xs = scenario.eta_hat.prob(Xs)
    Z = labels_from_probabilities(eta_X, seed.child(23).rng())
    Zs = labels_from_probabilities(etah_Xs, seed.child(24).rng())

    def sign(v):
        return np.where(v >= 0.0, 1.0, -1.0)

    def risk_real(model):
        return float(np.mean(sign(_pred(model, X)) != Z))

    def risk_synth(model):
        return float(np.mean(sign(_pred(model, Xs)) != Zs))

    est_err_original = abs(risk_real(fitted.on_original) - risk_real(fitted.population_real))
    est_err_synthetic = abs(risk_synth(fitted.on_synthetic) - risk_synth(fitted.population_synth))

    plug_sign_Xs = sign(etah_Xs - 0.5)
    weight_s = np.abs(2.0 * etah_Xs - 1.0)

    def phi_synth_01(model):
        return float(np.mean((sign(_pred(model, Xs)) != plug_sign_Xs) * weight_s))

    upsilon3 = (
        math.sqrt(phi_synth_01(fitted.population_real))
        + 2.0 * math.sqrt(phi_synth_01(fitted.population_synth))
        + math.sqrt(phi_synth_01(fitted.on_synthetic))
    )
    eta_l2_gap = float(math.sqrt(np.mean((etah_X - eta_X) ** 2)))

    def c_of(model):
        return float(math.sqrt(np.mean(_pred(model, X) * (etah_X - 0.5) < 0.0)))

    c_terms = c_of(fitted.population_real) + 2.0 * c_of(fitted.population_synth) + c_of(
        fitted.on_synthetic
    )

    bayes = sign(eta_X - 0.5)
    phi_plugin = float(np.mean((sign(etah_X - 0.5) != bayes) * np.abs(2.0 * eta_X - 1.0)))

    if chi2 is None:
        chi2 = chi_square_divergence(scenario.real_density, scenario.synth_density)
    finite_part = (
        est_err_original
        + est_err_synthetic
        + 2.0 * eta_l2_gap * c_terms
        + 4.0 * phi_plugin
    )
    total = _coupled_total(finite_part, upsilon3, chi2)
    return ClassificationBoundReport(
        est_err_original=est_err_original,
        est_err_synthetic=est_err_synthetic,
        chi2=chi2,
        upsilon3=upsilon3,
        eta_l2_gap=eta_l2_gap,
        c_terms=c_terms,
        phi_plugin=phi_plugin,
        total=total,
    )


def _q_transpose_vec(X: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Q' v = (X'X)^{-1} X' v, guarding against singular designs."""
    G = X.T @ X
    if np.linalg.matrix_rank(G) < G.shape[0]:
        raise SingularDesign("X'X is singular")
    return np.linalg.solve(G, X.T @ v)


def lr_explicit_bound(
    X: np.ndarray,
    X_synth: np.ndarray,
    eps: np.ndarray,
    eps_synth: np.ndarray,
    Lambda: np.ndarray,
    Lambda_synth: np.ndarray,
    chi2: float,
    Y: np.ndarray,
    Y_synth: np.ndarray,
    support: BoxSupport,
) -> LRBoundReport:
    """Fully explicit linear-regression bound from realized noise vectors.

    Uses trace(e e' Q A Q') = (Q'e)' A (Q'e) with Q = X (X'X)^{-1}; the
    sup-norm constant is the maximum of |x' beta| over the support-box
    corners, exact for linear predictors.
    """
    Lambda = np.diag(np.asarray(Lambda, dtype=float).reshape(-1))
    Lambda_synth = np.diag(np.asarray(Lambda_synth, dtype=float).reshape(-1))
    qe = _q_transpose_vec(X, eps)
    qe_s = _q_transpose_vec(X_synth, eps_synth)
    beta_hat = _q_transpose_vec(X, Y)
    beta_tilde = _q_transpose_vec(X_synth, Y_synth)

    a = float(qe @ Lambda @ qe)
    t1 = 13.0 * a
    t2 = float(qe_s @ Lambda_synth @ qe_s)
    t3 = float(qe @ Lambda_synth @ qe)

    corners = support.corners()
    M_LR = max(
        float(np.max(np.abs(corners @ beta_hat))),
        float(np.max(np.abs(corners @ beta_tilde))),
    )
    chi2_term = 2.0 * M_LR * chi2 * (math.sqrt(t2) + math.sqrt(t3))
    cross_term = math.sqrt(2.0 * t3) * math.sqrt(a)
    return LRBoundReport(
        t1=t1,
        t2=t2,
        t3=t3,
        chi2_term=chi2_term,
        cross_term=cross_term,
        M_LR=M_LR,
        total=t1 + t2 + chi2_term + cross_term,
    )


def assumption4_constants(d: float, V: float, U: float) -> tuple:
    base = d ** (1.0 / (d + 1.0)) + d ** (-d / (d + 1.0))
    c_dvu = (
        base ** ((3.0 * d + 1.0) / (2.0 * (d + 1.0)))
        * V ** ((2.0 * d + 1.0) / (2.0 * (d + 1.0) ** 2))
        * U ** ((2.0 * d + 1.0) / (d + 1.0) ** 2)
    )
    k_dv = base ** ((2.0 * d + 1.0) / (d + 1.0)) * V ** ((2.0 * d + 1.0) / (d + 1.0) ** 2)
    return c_dvu, k_dv


def assumption4_check(
    d: float,
    V: float,
    U: float,
    phi_F1: float,
    phi_F2: float,
    phi_G1: float,
    phi_G2: float,
) -> AssumptionCheck:
    """Evaluate the excess-risk gap inequalities for consistent comparison.

    Regression: C_{d,V,U}^2 phi_F2^(d^2/(d+1)^2) < phi_F1.
    Classification: K_{d,V} phi_G2^(d^2/(d+1)^2) < phi_G1.
    """
    if d <= 0 or V < 0:
        raise ValueError("need d > 0 and V >= 0")
    if min(phi_F1, phi_F2, phi_G1, phi_G2) < 0:
        raise ValueError("excess risks must be non-negative")
    c_dvu, k_dv = assumption4_constants(d, V, U)
    expo = d * d / (d + 1.0) ** 2
    lhs_reg = c_dvu**2 * phi_F2**expo
    lhs_cls = k_dv * phi_G2**expo
    return AssumptionCheck(
        d=d,
        V=V,
        U=U,
        C_dVU=c_dvu,
        K_dV=k_dv,
        lhs_reg=lhs_reg,
        rhs_reg=phi_F1,
        lhs_cls=lhs_cls,
        rhs_cls=phi_G1,
        holds_reg=bool(lhs_reg < phi_F1),
        holds_cls=bool(lhs_cls < phi_G1),
    )


def assumption4_sup_U(
    model_class,
    mu_hat: FittedEstimator,
    density: DensityModel,
    m: int = 100_000,
    seed: SeedSpec = SeedSpec(0),
) -> float:
    """sup over the class of the L2(P_X) distance to the estimation model.

    For coefficient-box basis classes the squared distance is a convex
    quadratic in the coefficients, so the supremum over the box is attained
    at a corner (moments estimated by Monte Carlo).  Threshold classes fall
    back to a parameter grid.
    """
    X = density.sample(m, seed.child(31))
    target = mu_hat.mean(X)
    if isinstance(model_class, BasisFunctionClass):
        if model_class.coefficient_box is None:
            raise ValueError("sup over an unbounded coefficient class is infinite")
        Phi = model_class.features(X)
        A = Phi.T @ Phi / m
        b = Phi.T @ target / m
        c = float(np.mean(target**2))
        lo, hi = model_class.coefficient_box
        box = BoxSupport(tuple(lo), tuple(hi))
        best = 0.0
        for corner in box.corners():
            val = float(corner @ A @ corner - 2.0 * corner @ b + c)
            best = max(best, val)
        return math.sqrt(max(best, 0.0))
    if isinstance(model_class, ThresholdAbsClass):
        grid = np.linspace(model_class.lo, model_class.hi, 256)
        a = np.abs(X[:, 0])
        best = max(float(np.mean((np.sign(a - b0) - target) ** 2)) for b0 in grid)
        return math.sqrt(best)
    raise ValueError(f"unsupported class for sup computation: {model_class!r}")
