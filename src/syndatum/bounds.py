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

from .datamodel import JsonReport, NoiseModel, SeedSpec, TaskKind, draw_responses
from .densities import BoxSupport, DensityModel, chi_square_divergence
from .erm import BasisFunctionClass, FittedModel, ThresholdAbsClass
from .errors import SingularDesign
from .estimators import FittedEstimator
from .metrics import SQUARED, ZERO_ONE, _excess_vector, _loss_vector

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


def _sup_abs(model_values_fn, X: np.ndarray, support: BoxSupport) -> float:
    pts = np.vstack([X, support.corners()])
    return float(np.max(np.abs(model_values_fn(pts))))


def _coupled_total(finite_part: float, coef: float, chi2: float) -> float:
    """finite_part + coef * sqrt(chi2), treating 0 * inf as 0."""
    if math.isinf(chi2):
        return math.inf if coef > _TINY else finite_part
    return finite_part + coef * math.sqrt(chi2)


def _estimation_errors(fitted: FittedQuad, loss: str, X, y, Xs, ys) -> tuple:
    """|risk(ERM) - risk(population optimum)| on the real draw (X, y) and on
    the synthetic draw (Xs, ys)."""

    def risk(model, X, y):
        return float(np.mean(_loss_vector(model.predict, loss, X, y)))

    return (
        abs(risk(fitted.on_original, X, y) - risk(fitted.population_real, X, y)),
        abs(risk(fitted.on_synthetic, Xs, ys) - risk(fitted.population_synth, Xs, ys)),
    )


def _excess(model: FittedModel, X: np.ndarray, truth: np.ndarray, loss: str) -> float:
    """Mean excess loss of a fitted model over the noise-free truth at X."""
    return float(np.mean(_excess_vector(model.predict(X), truth, loss)))


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
    y = draw_responses(TaskKind.REGRESSION, mu_X, scenario.noise, seed.child(13))
    ys = draw_responses(TaskKind.REGRESSION, muh_Xs, scenario.synth_noise, seed.child(14))
    est_err_original, est_err_synthetic = _estimation_errors(fitted, SQUARED, X, y, Xs, ys)

    def upsilon(X, truth):  # root excess risks against mu_hat (synthetic) or mu (real)
        def root(model):
            return math.sqrt(_excess(model, X, truth, SQUARED))

        return root(fitted.on_synthetic) + 2.0 * root(fitted.population_synth) + root(fitted.population_real)

    upsilon1, upsilon2 = upsilon(Xs, muh_Xs), upsilon(X, mu_X)
    phi_mu_hat = float(np.mean(_excess_vector(muh_X, mu_X, SQUARED)))

    support = scenario.real_density.support
    muh_sup = np.concatenate([muh_X, scenario.mu_hat.mean(support.corners())])  # mu_hat on X is muh_X
    M = max(
        float(np.max(np.abs(muh_sup))),
        *(_sup_abs(model.predict, X, support)
          for model in (fitted.on_synthetic, fitted.population_synth, fitted.population_real)),
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
    Z = draw_responses(TaskKind.CLASSIFICATION, eta_X, None, seed.child(23))
    Zs = draw_responses(TaskKind.CLASSIFICATION, etah_Xs, None, seed.child(24))
    est_err_original, est_err_synthetic = _estimation_errors(fitted, ZERO_ONE, X, Z, Xs, Zs)

    def c_of(model):  # root mass where the model's score opposes eta_hat - 1/2
        return float(math.sqrt(np.mean(model.predict(X) * (etah_X - 0.5) < 0.0)))

    def weighted(term):
        return term(fitted.population_real) + 2.0 * term(fitted.population_synth) + term(fitted.on_synthetic)

    upsilon3 = weighted(lambda model: math.sqrt(_excess(model, Xs, etah_Xs, ZERO_ONE)))
    eta_l2_gap = float(math.sqrt(np.mean(_excess_vector(etah_X, eta_X, SQUARED))))
    c_terms = weighted(c_of)
    # the plug-in classifier's excess risk: its score is eta_hat - 1/2
    phi_plugin = float(np.mean(_excess_vector(etah_X - 0.5, eta_X, ZERO_ONE)))

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
    mu_hat: Callable,
    density: DensityModel,
    m: int = 100_000,
    seed: SeedSpec = SeedSpec(0),
) -> float:
    """sup over the class of the L2(P_X) distance to the estimation model
    ``mu_hat`` (a FittedEstimator, or a truth in its place).

    For coefficient-box basis classes the squared distance is a convex
    quadratic in the coefficients, so the supremum over the box is attained
    at a corner (moments estimated by Monte Carlo).  Threshold classes fall
    back to a parameter grid.
    """
    X = density.sample(m, seed.child(31))
    target = mu_hat(X)
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
