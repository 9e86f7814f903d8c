import math

import numpy as np
import pytest

from syndatum.bounds import (
    BoundScenario,
    FittedQuad,
    assumption4_check,
    assumption4_sup_U,
    classification_bound,
    lr_explicit_bound,
    regression_bound,
)
from syndatum.datamodel import NoiseModel, SeedSpec, TaskKind, make_dataset
from syndatum.densities import (
    BoxSupport,
    DensityModel,
    PiecewiseConstant1D,
    Triangular1D,
    TruncatedNormalDiag,
    UniformBox,
    chi_square_divergence,
)
from syndatum.erm import make_model_class, population_optimum
from syndatum.errors import SingularDesign
from syndatum.estimators import EstimatorSpec, fit_estimator
from syndatum.metrics import SQUARED, ZERO_ONE, RiskConfig, utility_metric

REG = TaskKind.REGRESSION
CLS = TaskKind.CLASSIFICATION


def uniform_pm1():
    return UniformBox(BoxSupport((-1.0,), (1.0,)))


def mass_neg(alpha):
    return PiecewiseConstant1D([-1.0, 0.0, 1.0], [alpha, 1.0 - alpha])


def absval(X):
    return np.abs(X[:, 0])


def _oracle_est(fn, task):
    ds = (
        make_dataset([[0.0]], [0.0], REG)
        if task is REG
        else make_dataset([[0.0]], [1.0], CLS)
    )
    return fit_estimator(EstimatorSpec("oracle", oracle_fn=fn), ds, SeedSpec(0))


def _population_quad(model_class, real, synth, truth, seed):
    """All four fits taken at their population optima (infinite-data mode)."""
    f_star = population_optimum(model_class, real, truth, 10**5, seed.child(1))
    f_tilde_star = population_optimum(model_class, synth, truth, 10**5, seed.child(2))
    return FittedQuad(f_star, f_tilde_star, f_star, f_tilde_star)


def test_regression_bound_perfect_pipeline_vanishes():
    real = uniform_pm1()
    scenario = BoundScenario(real, real, absval, _oracle_est(absval, REG), NoiseModel.none(), NoiseModel.none())
    quad = _population_quad(make_model_class("abs", 1, REG), real, real, absval, SeedSpec(1))
    report = regression_bound(scenario, quad, n_test=20_000, seed=SeedSpec(2))
    assert report.chi2 == pytest.approx(0.0, abs=1e-8)
    assert report.total == pytest.approx(0.0, abs=1e-6)


def test_regression_bound_dominates_toy51_wrong_class():
    alpha = 0.8
    real, synth = uniform_pm1(), mass_neg(1 - alpha)
    scenario = BoundScenario(real, synth, absval, _oracle_est(absval, REG), NoiseModel.none(), NoiseModel.none())
    quad = _population_quad(make_model_class("linear", 1, REG), real, synth, absval, SeedSpec(3))
    report = regression_bound(scenario, quad, n_test=20_000, seed=SeedSpec(4))
    u_true = (2 * alpha - 1) ** 2 / 3.0
    assert report.total >= u_true
    assert report.phi_mu_hat == pytest.approx(0.0, abs=1e-10)


def test_regression_bound_correct_class_zero_despite_imperfect_fidelity():
    alpha = 0.8
    real, synth = uniform_pm1(), mass_neg(1 - alpha)
    scenario = BoundScenario(real, synth, absval, _oracle_est(absval, REG), NoiseModel.none(), NoiseModel.none())
    quad = _population_quad(make_model_class("abs", 1, REG), real, synth, absval, SeedSpec(5))
    report = regression_bound(scenario, quad, n_test=20_000, seed=SeedSpec(6))
    assert report.chi2 > 0.1
    assert report.total == pytest.approx(0.0, abs=1e-6)


def test_regression_bound_infinite_chi2_vacuous():
    real, synth = Triangular1D("increasing"), Triangular1D("decreasing")
    truth = lambda X: X[:, 0]
    scenario = BoundScenario(real, synth, truth, _oracle_est(truth, REG), NoiseModel.none(), NoiseModel.none())
    quad = _population_quad(
        make_model_class("constant", 1, REG, box=(-1.0, 1.0)), real, synth, truth, SeedSpec(7)
    )
    report = regression_bound(scenario, quad, n_test=10_000, seed=SeedSpec(8))
    assert math.isinf(report.chi2)
    assert math.isinf(report.total)


def test_classification_bound_dominates_toy_s1():
    alpha = 0.9
    eta = lambda X: (X[:, 0] > 0).astype(float)
    real, synth = mass_neg(alpha), mass_neg(1 - alpha)
    scenario = BoundScenario(real, synth, eta, _oracle_est(eta, CLS))
    quad = _population_quad(make_model_class("sign-abs", 1, CLS), real, synth, eta, SeedSpec(9))
    report = classification_bound(scenario, quad, n_test=20_000, seed=SeedSpec(10))
    assert report.total >= abs(2 * alpha - 1)


def test_classification_bound_correct_class_vanishes():
    alpha = 0.9
    eta = lambda X: (X[:, 0] > 0).astype(float)
    real, synth = mass_neg(alpha), mass_neg(1 - alpha)
    scenario = BoundScenario(real, synth, eta, _oracle_est(eta, CLS))
    quad = _population_quad(make_model_class("sign-linear", 1, CLS), real, synth, eta, SeedSpec(11))
    report = classification_bound(scenario, quad, n_test=20_000, seed=SeedSpec(12))
    assert report.total == pytest.approx(0.0, abs=1e-6)
    assert report.c_terms <= 4.0 + 1e-9


def _ols(X, Y):
    return np.linalg.solve(X.T @ X, X.T @ Y)


def test_lr_bound_zero_noise_is_zero():
    X = np.array([[1.0], [-1.0], [0.5]])
    support = BoxSupport((-1.0,), (1.0,))
    report = lr_explicit_bound(
        X, X, np.zeros(3), np.zeros(3), [1.0], [1.0], 0.5, np.ones(1), np.ones(1), support
    )
    assert report.total == pytest.approx(0.0, abs=1e-12)


def test_lr_bound_hand_linear_algebra():
    # Q' eps = 1 for X = [1; -1], eps = [1, -1]; so t1 = 13 lambda
    X = np.array([[1.0], [-1.0]])
    eps = np.array([1.0, -1.0])
    lam = 0.7
    report = lr_explicit_bound(
        X,
        X,
        eps,
        np.zeros(2),
        [lam],
        [lam],
        0.0,
        np.ones(1),
        np.ones(1),
        BoxSupport((-1.0,), (1.0,)),
    )
    assert report.t1 == pytest.approx(13.0 * lam)
    assert report.t3 == pytest.approx(lam)
    assert report.cross_term == pytest.approx(math.sqrt(2.0 * lam) * math.sqrt(lam))


def test_lr_bound_row_permutation_invariance():
    rng = SeedSpec(13).rng()
    X = rng.normal(size=(40, 2))
    eps = rng.normal(size=40)
    Y = X @ np.array([1.0, -2.0]) + eps
    perm = rng.permutation(40)
    support = BoxSupport((-4.0, -4.0), (4.0, 4.0))
    beta, beta_perm = _ols(X, Y), _ols(X[perm], Y[perm])
    base = lr_explicit_bound(
        X, X, eps, eps, [1.0, 1.0], [1.0, 1.0], 0.3, beta, beta, support
    )
    permuted = lr_explicit_bound(
        X[perm], X[perm], eps[perm], eps[perm], [1.0, 1.0], [1.0, 1.0], 0.3, beta_perm, beta_perm, support
    )
    for field in ("t1", "t2", "t3", "total"):
        assert getattr(base, field) == pytest.approx(getattr(permuted, field), rel=1e-9)


def test_lr_bound_monotone_in_chi2():
    rng = SeedSpec(14).rng()
    X = rng.normal(size=(30, 2))
    eps = rng.normal(size=30)
    Y = X @ np.array([0.5, 0.5]) + eps
    support = BoxSupport((-4.0, -4.0), (4.0, 4.0))
    totals = [
        lr_explicit_bound(X, X, eps, eps, [1.0, 1.0], [1.0, 1.0], c, _ols(X, Y), _ols(X, Y), support).total
        for c in (0.0, 0.5, 2.0)
    ]
    assert totals[0] <= totals[1] <= totals[2]


def test_lr_bound_singular_design():
    X = np.array([[1.0, 2.0], [2.0, 4.0], [3.0, 6.0]])
    with pytest.raises(SingularDesign):
        lr_explicit_bound(
            X,
            X,
            np.zeros(3),
            np.zeros(3),
            [1.0, 1.0],
            [1.0, 1.0],
            0.0,
            np.zeros(2),
            np.zeros(2),
            BoxSupport((-4.0, -4.0), (4.0, 4.0)),
        )


def test_lr_bound_dominates_on_simulated_run():
    # full synthesis run: truncated-normal real features, uniform synthetic
    seed = SeedSpec(15)
    rng = seed.rng(1)
    p, n, ns = 2, 400, 400
    support = BoxSupport((-4.0,) * p, (4.0,) * p)
    real = TruncatedNormalDiag(support, np.zeros(p), np.ones(p))
    synth = UniformBox(support)
    beta_star = np.array([1.0, -1.0])
    X = real.sample(n, seed.child(2))
    eps = rng.normal(0.0, 1.0, size=n)
    Y = X @ beta_star + eps
    beta_hat = np.linalg.solve(X.T @ X, X.T @ Y)
    Xs = synth.sample(ns, seed.child(3))
    eps_s = seed.child(4).rng().uniform(-math.sqrt(3), math.sqrt(3), size=ns)
    Ys = Xs @ beta_hat + eps_s
    beta_tilde = np.linalg.solve(Xs.T @ Xs, Xs.T @ Ys)

    Lam = real.coordinate_variances()
    Lam_s = synth.coordinate_variances()
    chi2 = chi_square_divergence(real, synth)
    report = lr_explicit_bound(X, Xs, eps, eps_s, Lam, Lam_s, chi2, beta_hat, beta_tilde, support)

    # closed-form true risks: R(beta) = (beta - beta*)' Lambda (beta - beta*) + sigma^2
    def phi(beta):
        d = beta - beta_star
        return float(d @ np.diag(Lam) @ d)

    u_r = abs(phi(beta_tilde) - phi(beta_hat))
    assert report.total >= u_r


def test_assumption4_constants():
    chk = assumption4_check(1.0, 2.0, 1.0, 1.0, 0.5, 1.0, 0.5)
    assert chk.C_dVU == pytest.approx(2.0 ** (11.0 / 8.0), rel=1e-12)
    assert chk.K_dV == pytest.approx(2.0 ** (9.0 / 4.0), rel=1e-12)


def test_assumption4_zero_phi2_always_holds():
    chk = assumption4_check(2.0, 100.0, 50.0, 0.3, 0.0, 0.3, 0.0)
    assert chk.holds_reg and chk.holds_cls


def test_assumption4_large_d_reduces_to_risk_comparison():
    d = 1e6
    chk = assumption4_check(d, 1.0, 1.0, 0.5, 0.4, 0.5, 0.4)
    assert chk.C_dVU == pytest.approx(1.0, abs=1e-3)
    assert chk.K_dV == pytest.approx(1.0, abs=1e-3)
    assert chk.lhs_reg == pytest.approx(0.4, abs=1e-3)
    assert chk.holds_reg and chk.holds_cls
    # and the inequality flips when phi2 > phi1
    chk2 = assumption4_check(d, 1.0, 1.0, 0.4, 0.5, 0.4, 0.5)
    assert not chk2.holds_reg and not chk2.holds_cls


def test_assumption4_sup_U_exact_corner_value(monkeypatch):
    # sup over {beta x : beta in [-2, 2]} of ||beta x - x|| = 3 sqrt(E x^2) = sqrt(3)
    mc = make_model_class("linear", 1, REG, box=(-2.0, 2.0))
    mu_hat = _oracle_est(lambda X: X[:, 0], REG)
    val = assumption4_sup_U(mc, mu_hat, uniform_pm1(), m=200_000, seed=SeedSpec(16))
    assert val == pytest.approx(math.sqrt(3.0), abs=0.01)

    # U is a regression constant: a classifier family has none, and an
    # unbounded class has an infinite one; both are refused before any draw
    def no_draw(*args):
        raise AssertionError("points drawn for an unsupported class")

    monkeypatch.setattr(DensityModel, "sample", no_draw)
    for model_class, match in (
        (make_model_class("threshold-abs", 1, CLS, box=(0.0, 0.5)), "unsupported class"),
        (make_model_class("linear", 1, REG), "unbounded"),
    ):
        with pytest.raises(ValueError, match=match):
            assumption4_sup_U(model_class, mu_hat, uniform_pm1(), seed=SeedSpec(16))


def test_bound_reports_serialize():
    chk = assumption4_check(1.0, 2.0, 1.0, 1.0, 0.5, 1.0, 0.5)
    blob = chk.to_json_dict()
    assert blob["holds_reg"] in (True, False)
