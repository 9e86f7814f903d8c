import warnings

import numpy as np
import pytest
from scipy.integrate import IntegrationWarning, quad

from syndatum import metrics

from syndatum.datamodel import NoiseModel, SeedSpec, TaskKind, make_dataset
from syndatum.densities import BoxSupport, LinearTilt1D, PiecewiseConstant1D, UniformBox
from syndatum.erm import (
    BasisFunctionClass,
    SignScaleClass,
    _basis_model,
    _sign_model,
    _threshold_model,
    fit_regression,
    make_model_class,
    population_optimum,
)
from syndatum.errors import Indeterminate, UnsupportedQuadrature
from syndatum.estimators import EstimatorSpec, FittedEstimator, fit_estimator
from syndatum.harness import TruthSpec
from syndatum.metrics import (
    SQUARED,
    ZERO_ONE,
    RiskConfig,
    _model_knots,
    _quadrature,
    _score_fn,
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


def test_excess_risk_monte_carlo_matches_quadrature():
    # eta = (1 + x) / 2, so the Bayes sign is sign(x) and |2 eta - 1| = |x|;
    # the shifted threshold x - 0.3 disagrees with it on (0, 0.3)
    eta = lambda X: (1.0 + X[:, 0]) / 2.0
    shifted = lambda X: X[:, 0] - 0.3
    density, n = mass_neg(0.25), 200_000
    x = density.sample(n, SeedSpec(8))[:, 0]
    cases = (
        (ZERO_ONE, 0.75 * 0.3**2 / 2.0, np.where((x > 0.0) & (x < 0.3), x, 0.0)),
        # E[(x/2 - 0.8)^2] = 0.25 * (1/12 + 1.04) + 0.75 * (1/12 + 0.24)
        (SQUARED, 0.25 * (1 / 12 + 1.04) + 0.75 * (1 / 12 + 0.24), (x / 2.0 - 0.8) ** 2),
    )
    for loss, exact, pointwise in cases:
        quad_value = excess_risk(shifted, density, eta, loss=loss, method="quadrature")
        mc_value = excess_risk(shifted, density, eta, loss=loss, method="monte-carlo",
                               n_test=n, seed=SeedSpec(7))
        se = pointwise.std(ddof=1) / np.sqrt(n)
        assert quad_value == pytest.approx(exact, abs=1e-6)
        assert mc_value > 0.0 and abs(mc_value - quad_value) < 4.0 * se


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
    f_hat = population_optimum(wrong, uniform_pm1(), absval, 10**5, SeedSpec(9))
    synth_density = PiecewiseConstant1D([-1.0, 0.0, 1.0], [1.0 - alpha, alpha])
    f_tilde = population_optimum(wrong, synth_density, absval, 10**5, SeedSpec(10))
    cfg = RiskConfig(density=uniform_pm1(), truth=absval, loss=SQUARED, method="quadrature")
    report = utility_metric(f_tilde, f_hat, cfg)
    assert report.utility == pytest.approx((2 * alpha - 1) ** 2 / 3.0, abs=0.01)


def test_utility_toy_s1():
    # U_c = |2 alpha - 1| at alpha = 0.9 (sign-abs class, step labels)
    alpha = 0.9
    eta = lambda X: (X[:, 0] > 0).astype(float)
    cls = make_model_class("sign-abs", 1, CLS)
    g_hat = population_optimum(cls, mass_neg(alpha), eta, 10**5, SeedSpec(11))
    g_tilde = population_optimum(cls, mass_neg(1 - alpha), eta, 10**5, SeedSpec(12))
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
    report = compare_models(f1, f2, mass_neg(1 - alpha), _oracle_est(identity, REG), cfg)
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
    report = compare_models(g1, g2, mass_neg(1 - alpha), _oracle_est(eta, CLS), cfg)
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
    report = compare_models(f1, f2, density, _oracle_est(identity, REG), cfg)
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
        compare_models(f, f, uniform_pm1(), _oracle_est(identity, REG), cfg)


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


def _reference_weighted(model, density, truth, loss, excess):
    """The uncached scalar integrand: density, truth and score evaluated
    afresh at every node.  Returns (weighted integrand, factor, breakpoints).
    A plug-in estimator truth enters as its mean or probability by the loss,
    independently of FittedEstimator.__call__."""
    score = _score_fn(model, loss)
    truth_fn = truth
    if isinstance(truth, FittedEstimator):
        truth_fn = truth.mean if loss == SQUARED else truth.prob
    if loss == SQUARED:

        def integrand(x):
            pt = np.array([[x]])
            return (float(score(pt)[0]) - float(truth_fn(pt)[0])) ** 2

    elif excess:

        def integrand(x):
            pt = np.array([[x]])
            eta = float(truth_fn(pt)[0])
            return abs(2.0 * eta - 1.0) if (float(score(pt)[0]) >= 0.0) != (eta >= 0.5) else 0.0

    else:

        def integrand(x):
            pt = np.array([[x]])
            eta = float(truth_fn(pt)[0])
            return eta if float(score(pt)[0]) < 0.0 else 1.0 - eta

    f = density.factors()[0]
    pts = sorted({k for k in (*f.knots(), *_model_knots(model)) if f.a < k < f.b})
    return (lambda x: float(f.pdf1(x)) * integrand(x)), f, pts


def _reference_quadrature(model, density, truth, loss, excess):
    weighted, f, pts = _reference_weighted(model, density, truth, loss, excess)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(weighted, f.a, f.b, points=pts or None, limit=200)
    return val


def _box(lo, hi):
    return UniformBox(BoxSupport((lo,), (hi,)))


def _memo_cases():
    """(loss, models, truths): basis classes (abs has a map knot), threshold
    and sign models and plug-in estimators, against a by-value truth, a plain
    lambda and a plug-in estimator."""
    reg_models = [
        _basis_model(make_model_class(name, 1, REG), beta)
        for name, beta in (
            ("linear", [0.7]),
            ("quadratic", [0.4, -0.3]),
            ("abs", [1.2]),
            ("recip-cubic-3", [0.05, -1.5, -1.8, 0.9]),
        )
    ] + [_oracle_est(lambda X: 0.5 - X[:, 0], REG)]
    reg_truths = [
        TruthSpec("cubicmix"),
        lambda X: np.sin(3.0 * X[:, 0]),
        _oracle_est(lambda X: X[:, 0] ** 2, REG),
    ]
    cls_models = [
        _basis_model(make_model_class("logistic-linear", 1, CLS), [-1.3]),
        _basis_model(make_model_class("abs", 1, CLS), [0.8]),
        _threshold_model(make_model_class("threshold-abs", 1, CLS, box=(0.0, 2.0)), 0.9),
        _sign_model(SignScaleClass("linear"), -1.0),
        _sign_model(SignScaleClass("abs"), 1.0),
        _oracle_est(lambda X: (X[:, 0] < 1.2).astype(float), CLS),
    ]
    cls_truths = [
        TruthSpec("logistic", (2.0,)),
        lambda X: 1.0 / (1.0 + np.exp(-4.0 * (X[:, 0] - 1.0))),
        _oracle_est(lambda X: (np.abs(X[:, 0] - 0.7) < 0.5).astype(float), CLS),
    ]
    return [(SQUARED, reg_models, reg_truths), (ZERO_ONE, cls_models, cls_truths)]


def test_quadrature_memo_matches_uncached_reference():
    # Unif[0, 2] and a tilt on [0, 2] share every node, so the memo must tell
    # their pdf values apart; integrals on the two are interleaved
    shared_nodes = (_box(0.0, 2.0), LinearTilt1D(0.6))
    checked = 0
    for loss, models, truths in _memo_cases():
        for excess in (False, True):
            for truth in truths:
                for model in models:
                    for density in shared_nodes:
                        assert _quadrature(model, density, truth, loss, excess) == (
                            _reference_quadrature(model, density, truth, loss, excess)
                        )
                        checked += 1
    assert checked == 2 * 3 * 2 * (5 + 6)


def test_quadrature_memo_on_interval_ending_at_negative_zero():
    density = _box(-1.0, -0.0)
    reg_truth = lambda X: np.abs(X[:, 0]) - X[:, 0] ** 3
    cls_truth = TruthSpec("step-pos")
    for loss, model, truth in (
        (SQUARED, _basis_model(make_model_class("abs", 1, REG), [0.6]), reg_truth),
        (SQUARED, _basis_model(make_model_class("linear", 1, REG), [-0.6]), TruthSpec("abs")),
        (ZERO_ONE, _sign_model(SignScaleClass("linear"), 1.0), cls_truth),
        (ZERO_ONE, _basis_model(make_model_class("logistic-linear", 1, CLS), [2.0]), cls_truth),
    ):
        for excess in (False, True):
            assert _quadrature(model, density, truth, loss, excess) == (
                _reference_quadrature(model, density, truth, loss, excess)
            )


def test_quadrature_memo_keeps_signed_zeros_apart(monkeypatch):
    # 0.0 == -0.0, so a memo keyed on the value alone would mix them.  A truth
    # and models that see the sign of zero; the stand-in for quad evaluates
    # the integrand at 0.0 and then at -0.0, and the reverse
    truth = lambda X: 0.5 + np.copysign(0.25, X[:, 0])
    signs = BasisFunctionClass("sign", lambda X: np.copysign(1.0, X), 1, CLS)
    density = _box(-1.0, 1.0)
    for order in ((0.0, -0.0, 0.5), (-0.0, 0.0, -0.5)):
        seen = []

        def probe(func, a, b, **kwargs):
            seen.append([func(x) for x in order])
            return 0.0, 0.0

        monkeypatch.setattr(metrics, "quad", probe)
        for model in (lambda X: np.copysign(1.0, X[:, 0]), _basis_model(signs, [-1.0])):
            for excess in (False, True):
                _quadrature(model, density, truth, ZERO_ONE, excess)
                weighted, _, _ = _reference_weighted(model, density, truth, ZERO_ONE, excess)
                assert seen.pop() == [weighted(x) for x in order]
