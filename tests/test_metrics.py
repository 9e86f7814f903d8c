import numpy as np
import pytest

from syndatum.datamodel import NoiseModel, SeedSpec, TaskKind, make_dataset
from syndatum.densities import BoxSupport, PiecewiseConstant1D, UniformBox
from syndatum.erm import fit_regression, make_model_class, population_optimum
from syndatum.errors import Indeterminate, UnsupportedQuadrature
from syndatum.estimators import EstimatorSpec, fit_estimator
from syndatum.metrics import (
    SQUARED,
    ZERO_ONE,
    RiskConfig,
    compare_models,
    estimate_risk,
    excess_risk,
    risks_common_draws,
    utility_metric,
)

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


def test_risk_equals_noise_variance_for_zero_predictor():
    est = estimate_risk(
        lambda X: np.zeros(X.shape[0]),
        uniform_pm1(),
        lambda X: np.zeros(X.shape[0]),
        noise=NoiseModel.gaussian(1.0),
        loss=SQUARED,
        n_test=50_000,
        seed=SeedSpec(1),
    )
    assert abs(est.value - 1.0) <= 3.0 * est.std_error


def test_risk_quadrature_linear_class_toy51():
    # R(beta x) = (1 + beta^2) / 3 under Unif[-1,1] with mu = |x|, no noise
    for beta in (0.0, 0.5, 1.0, -2.0):
        est = estimate_risk(
            lambda X, b=beta: b * X[:, 0],
            uniform_pm1(),
            absval,
            loss=SQUARED,
            method="quadrature",
        )
        assert est.value == pytest.approx((1.0 + beta**2) / 3.0, abs=1e-8)
        assert est.std_error == 0.0


def test_risk_zero_one_bayes_is_zero():
    # deterministic labels: eta = 1 on x > 0; the Bayes rule errs nowhere
    eta = lambda X: (X[:, 0] > 0).astype(float)
    est = estimate_risk(
        lambda X: X[:, 0],
        mass_neg(0.3),
        eta,
        loss=ZERO_ONE,
        method="quadrature",
    )
    assert est.value == pytest.approx(0.0, abs=1e-9)


def test_risk_monte_carlo_matches_quadrature():
    scenarios = [
        (lambda X: 0.7 * X[:, 0], absval, SQUARED, NoiseModel.gaussian(0.5)),
        (lambda X: X[:, 0] - 0.2, lambda X: (X[:, 0] > 0).astype(float), ZERO_ONE, None),
    ]
    for model, truth, loss, noise in scenarios:
        mc = estimate_risk(
            model, uniform_pm1(), truth, noise=noise, loss=loss, n_test=40_000, seed=SeedSpec(2)
        )
        qd = estimate_risk(model, uniform_pm1(), truth, noise=noise, loss=loss, method="quadrature")
        assert abs(mc.value - qd.value) <= 4.0 * mc.std_error


def test_risk_floor_is_noise_variance():
    rng = SeedSpec(3).rng()
    for _ in range(5):
        beta = rng.normal()
        est = estimate_risk(
            lambda X, b=beta: b * X[:, 0],
            uniform_pm1(),
            absval,
            noise=NoiseModel.gaussian(0.8),
            loss=SQUARED,
            n_test=20_000,
            seed=SeedSpec(4),
        )
        assert est.value >= 0.8 - 4.0 * est.std_error


def test_quadrature_rejects_multidimensional():
    box = UniformBox(BoxSupport((-1.0, -1.0), (1.0, 1.0)))
    with pytest.raises(UnsupportedQuadrature):
        estimate_risk(
            lambda X: X[:, 0], box, lambda X: X[:, 0], loss=SQUARED, method="quadrature"
        )


def test_excess_risk_zero_for_truth():
    assert excess_risk(absval, uniform_pm1(), absval, loss=SQUARED) == pytest.approx(0.0, abs=1e-10)


def test_excess_risk_gap_toy51_alpha_one():
    # Phi(f_tilde) - Phi(f_hat) = (2a-1)^2/3 at a=1, with f_tilde = x, f_hat = 0
    phi_tilde = excess_risk(lambda X: X[:, 0], uniform_pm1(), absval, loss=SQUARED)
    phi_hat = excess_risk(lambda X: np.zeros(X.shape[0]), uniform_pm1(), absval, loss=SQUARED)
    assert phi_tilde == pytest.approx(2.0 / 3.0, abs=1e-8)
    assert phi_tilde - phi_hat == pytest.approx(1.0 / 3.0, abs=1e-8)


def test_excess_risk_bayes_plugin_zero():
    eta = lambda X: (X[:, 0] > 0).astype(float)
    est = _oracle_est(eta, CLS)
    assert excess_risk(est, mass_neg(0.4), eta, loss=ZERO_ONE) == pytest.approx(0.0, abs=1e-9)


def test_excess_risk_never_negative():
    rng = SeedSpec(5).rng()
    for _ in range(5):
        beta = rng.normal()
        val = excess_risk(
            lambda X, b=beta: b * X[:, 0],
            uniform_pm1(),
            absval,
            loss=SQUARED,
            method="monte-carlo",
            n_test=10_000,
            seed=SeedSpec(6),
        )
        assert val >= -1e-12


def test_utility_of_model_against_itself_is_exactly_zero():
    cfg = RiskConfig(
        density=uniform_pm1(),
        truth=absval,
        loss=SQUARED,
        noise=NoiseModel.gaussian(1.0),
        n_test=5_000,
        seed=SeedSpec(7),
    )
    model = lambda X: 0.3 * X[:, 0]
    report = utility_metric(model, model, cfg)
    assert report.utility == 0.0
    assert report.combined_std_error == 0.0


def test_utility_symmetric():
    cfg = RiskConfig(
        density=uniform_pm1(),
        truth=absval,
        loss=SQUARED,
        noise=None,
        n_test=5_000,
        seed=SeedSpec(8),
    )
    a = lambda X: 0.4 * X[:, 0]
    b = lambda X: np.abs(X[:, 0])
    assert utility_metric(a, b, cfg).utility == pytest.approx(
        utility_metric(b, a, cfg).utility
    )
    assert utility_metric(a, b, cfg).utility >= 0.0


def test_utility_toy51_population_idealization():
    # U_r = (2 alpha - 1)^2 / 3 at alpha = 0.9 with population optima
    alpha = 0.9
    wrong = make_model_class("linear", 1, REG)
    f_hat = population_optimum(wrong, uniform_pm1(), absval, None, 10**5, SeedSpec(9))
    synth_density = PiecewiseConstant1D([-1.0, 0.0, 1.0], [1.0 - alpha, alpha])
    f_tilde = population_optimum(wrong, synth_density, absval, None, 10**5, SeedSpec(10))
    cfg = RiskConfig(density=uniform_pm1(), truth=absval, loss=SQUARED, method="quadrature")
    report = utility_metric(f_tilde, f_hat, cfg)
    assert report.utility == pytest.approx((2 * alpha - 1) ** 2 / 3.0, abs=0.01)


def test_utility_toy_s1():
    # U_c = |2 alpha - 1| at alpha = 0.9 (sign-abs class, step labels)
    alpha = 0.9
    eta = lambda X: (X[:, 0] > 0).astype(float)
    cls = make_model_class("sign-abs", 1, CLS)
    g_hat = population_optimum(cls, mass_neg(alpha), eta, None, 10**5, SeedSpec(11))
    g_tilde = population_optimum(cls, mass_neg(1 - alpha), eta, None, 10**5, SeedSpec(12))
    cfg = RiskConfig(density=mass_neg(alpha), truth=eta, loss=ZERO_ONE, method="quadrature")
    report = utility_metric(g_tilde, g_hat, cfg)
    assert report.utility == pytest.approx(abs(2 * alpha - 1), abs=0.01)


def test_compare_models_toy61_regression():
    alpha = 5.0 / 6.0
    identity = lambda X: X[:, 0]
    f1 = make_model_class("constant", 1, REG, box=(-0.5, 0.5))
    f2 = make_model_class("constant", 1, REG, box=(-0.25, 0.25))
    cfg = RiskConfig(
        density=mass_neg(alpha),
        truth=identity,
        loss=SQUARED,
        method="quadrature",
        seed=SeedSpec(13),
    )
    report = compare_models(
        f1, f2, mass_neg(alpha), mass_neg(1 - alpha), identity, _oracle_est(identity, REG), cfg
    )
    assert report.risk_f1_real.value == pytest.approx(2.0 / 9.0, abs=0.01)
    assert report.risk_f2_real.value == pytest.approx(0.2292, abs=0.01)
    assert report.risk_f1_synth.value == pytest.approx(2.0 / 3.0, abs=0.01)
    assert report.risk_f2_synth.value == pytest.approx(0.5625, abs=0.01)
    assert report.original_sign == -1  # F1 better on real data
    assert report.synthetic_sign == 1  # F2 better after synthetic training
    assert report.consistent is False


def test_compare_models_toy61_classification():
    alpha = 0.75
    eta = lambda X: (X[:, 0] < 0).astype(float)
    g1 = make_model_class("threshold-abs", 1, CLS, box=(0.0, 0.5))
    g2 = make_model_class("threshold-abs", 1, CLS, box=(0.25, 1.0 / 3.0))
    cfg = RiskConfig(
        density=mass_neg(alpha),
        truth=eta,
        loss=ZERO_ONE,
        method="quadrature",
        seed=SeedSpec(14),
    )
    report = compare_models(
        g1, g2, mass_neg(alpha), mass_neg(1 - alpha), eta, _oracle_est(eta, CLS), cfg
    )
    assert report.optima["f1_real"][0] == pytest.approx(0.0, abs=0.01)
    assert report.optima["f2_real"][0] == pytest.approx(0.25, abs=0.01)
    assert report.optima["f1_synth"][0] == pytest.approx(0.5, abs=0.01)
    assert report.optima["f2_synth"][0] == pytest.approx(1.0 / 3.0, abs=0.01)
    assert report.consistent is False


def test_compare_models_identical_distributions_consistent():
    # same real and synthetic law, oracle estimator: same optimization problem
    identity = lambda X: X[:, 0]
    f1 = make_model_class("constant", 1, REG, box=(-0.5, 0.5))
    f2 = make_model_class("abs", 1, REG)
    density = mass_neg(0.8)
    cfg = RiskConfig(
        density=density, truth=identity, loss=SQUARED, method="quadrature", seed=SeedSpec(15)
    )
    report = compare_models(
        f1, f2, density, density, identity, _oracle_est(identity, REG), cfg
    )
    assert report.consistent is True


def test_compare_models_indeterminate_in_dead_band():
    # identical classes: the risk gap is MC noise, inside the dead band
    identity = lambda X: X[:, 0]
    f = make_model_class("linear", 1, REG)
    cfg = RiskConfig(
        density=uniform_pm1(),
        truth=identity,
        loss=SQUARED,
        noise=NoiseModel.gaussian(1.0),
        n_test=10_000,
        method="monte-carlo",
        seed=SeedSpec(16),
    )
    with pytest.raises(Indeterminate):
        compare_models(
            f, f, uniform_pm1(), uniform_pm1(), identity, _oracle_est(identity, REG), cfg
        )


def test_utility_report_json_round_trip():
    cfg = RiskConfig(
        density=uniform_pm1(), truth=absval, loss=SQUARED, n_test=2_000, seed=SeedSpec(17)
    )
    report = utility_metric(lambda X: X[:, 0], lambda X: np.abs(X[:, 0]), cfg)
    blob = report.to_json_dict()
    assert blob["task"] == "regression"
    assert blob["utility"] == report.utility


@pytest.mark.parametrize("method", ["monte-carlo", "quadrature"])
@pytest.mark.parametrize("loss", [SQUARED, ZERO_ONE])
def test_estimate_risk_equals_common_draw_risk(method, loss):
    regression = loss == SQUARED
    truth = absval if regression else (lambda X: (X[:, 0] > 0).astype(float))
    noise = NoiseModel.gaussian(0.3) if regression else None
    model = (lambda X: 0.5 * X[:, 0]) if regression else (lambda X: X[:, 0] - 0.2)
    cfg = RiskConfig(
        density=uniform_pm1(), truth=truth, loss=loss, noise=noise, n_test=3_000,
        method=method, seed=SeedSpec(23),
    )
    single = estimate_risk(model, uniform_pm1(), truth, noise, loss, 3_000, SeedSpec(23), method)
    assert single == risks_common_draws([model], cfg)[0][0]
