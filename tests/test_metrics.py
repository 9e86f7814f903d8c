from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from reference import _reference_quadrature, _reference_weighted

from syndatum import erm, metrics
from syndatum.datamodel import NoiseModel, SeedSpec, TaskKind, make_dataset
from syndatum.densities import BoxSupport, LinearTilt1D, PiecewiseConstant1D, UniformBox
from syndatum.erm import (
    BasisFunctionClass,
    FittedModel,
    SignScaleClass,
    fit_regression,
    make_model_class,
    population_optimum,
)
from syndatum.errors import Indeterminate, UnsupportedQuadrature
from syndatum.estimators import EstimatorSpec, fit_estimator
from syndatum.harness import TruthSpec
from syndatum.metrics import (
    SQUARED,
    ZERO_ONE,
    RiskConfig,
    _quadrature,
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


def _compare(class1, class2, synth_density, synth_truth, cfg):
    """compare_models on the two classes' optima under the real law of cfg and
    under the synthetic law, fitted on 10**5 draws at cfg.seed.child(1..4)."""
    laws = ((cfg.density, cfg.truth), (synth_density, synth_truth))
    optima = [population_optimum(mc, density, truth, 10**5, cfg.seed.child(k))
              for k, ((density, truth), mc) in enumerate(product(laws, (class1, class2)), 1)]
    return compare_models(*optima, cfg)


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
    report = _compare(f1, f2, mass_neg(1 - alpha), _oracle_est(identity, REG), cfg)
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
    report = _compare(g1, g2, mass_neg(1 - alpha), _oracle_est(eta, CLS), cfg)
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
    report = _compare(f1, f2, density, _oracle_est(identity, REG), cfg)
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
        _compare(f, f, uniform_pm1(), _oracle_est(identity, REG), cfg)


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


def test_monte_carlo_test_sample_is_drawn_once_per_config_and_read_only():
    # the utilities of one unit share one RiskConfig, so one test sample
    cfg = RiskConfig(density=uniform_pm1(), truth=TruthSpec("abs"), noise=NoiseModel.gaussian(0.3),
                     n_test=500, seed=SeedSpec(41))
    fresh = metrics._draw_test_sample(cfg)
    models = [lambda X: 0.5 * X[:, 0], lambda X: X[:, 0] ** 2]
    with mock.patch.object(metrics, "draw_responses", wraps=metrics.draw_responses) as draws:
        first = risks_common_draws(models, cfg)[0]
        again = risks_common_draws(models[::-1], RiskConfig(**vars(cfg)))[0]
    assert draws.call_count == 1 and first == again[::-1]
    X, target = metrics._test_sample(cfg)
    assert not X.flags.writeable and not target.flags.writeable
    assert X.tobytes() == fresh[0].tobytes() and target.tobytes() == fresh[1].tobytes()
    # a plug-in estimator truth does not hash: it draws every time, as before
    plug_in = RiskConfig(density=uniform_pm1(), truth=_oracle_est(absval, REG), n_test=500, seed=SeedSpec(41))
    with mock.patch.object(metrics, "draw_responses", wraps=metrics.draw_responses) as draws:
        assert risks_common_draws(models, plug_in)[0] == risks_common_draws(models, plug_in)[0]
    assert draws.call_count == 2


def _box(lo, hi):
    return UniformBox(BoxSupport((lo,), (hi,)))


def _memo_cases():
    """(loss, models, truths): basis classes (abs has a map knot), threshold
    and sign models and plug-in estimators, against a by-value truth, a plain
    lambda and a plug-in estimator."""
    reg_models = [
        FittedModel(make_model_class(name, 1, REG), beta)
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
        FittedModel(make_model_class("logistic-linear", 1, CLS), [-1.3]),
        FittedModel(make_model_class("abs", 1, CLS), [0.8]),
        FittedModel(make_model_class("threshold-abs", 1, CLS, box=(0.0, 2.0)), [0.9]),
        FittedModel(SignScaleClass("linear"), [-1.0]),
        FittedModel(SignScaleClass("abs"), [1.0]),
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
        (SQUARED, FittedModel(make_model_class("abs", 1, REG), [0.6]), reg_truth),
        (SQUARED, FittedModel(make_model_class("linear", 1, REG), [-0.6]), TruthSpec("abs")),
        (ZERO_ONE, FittedModel(SignScaleClass("linear"), [1.0]), cls_truth),
        (ZERO_ONE, FittedModel(make_model_class("logistic-linear", 1, CLS), [2.0]), cls_truth),
    ):
        for excess in (False, True):
            assert _quadrature(model, density, truth, loss, excess) == (
                _reference_quadrature(model, density, truth, loss, excess)
            )


def _integrand(model, density, truth, loss, excess):
    """The integrand _quadrature hands to quad."""
    seen = []

    def probe(func, a, b, **kwargs):
        seen.append(func)
        return 0.0, 0.0

    with mock.patch.object(metrics, "quad", probe):
        _quadrature(model, density, truth, loss, excess)
    return seen.pop()


def test_quadrature_memo_keeps_signed_zeros_apart():
    # 0.0 == -0.0, so a memo keyed on the value alone would mix them.  A truth
    # and models that see the sign of zero; the integrand is evaluated at 0.0
    # and then at -0.0, and the reverse
    truth = lambda X: 0.5 + np.copysign(0.25, X[:, 0])
    signs = BasisFunctionClass("sign", lambda X: np.copysign(1.0, X), 1, CLS)
    density = _box(-1.0, 1.0)
    for order in ((0.0, -0.0, 0.5), (-0.0, 0.0, -0.5)):
        for model in (lambda X: np.copysign(1.0, X[:, 0]), FittedModel(signs, [-1.0])):
            for excess in (False, True):
                weighted = _integrand(model, density, truth, ZERO_ONE, excess)
                reference, _, _ = _reference_weighted(model, density, truth, ZERO_ONE, excess)
                assert [weighted(x) for x in order] == [reference(x) for x in order]


# truths that see the sign of zero, so that a memo mixing 0.0 and -0.0 shows
_SIGNED_REG = lambda X: np.copysign(1.0, X[:, 0]) - X[:, 0] ** 2
_SIGNED_CLS = lambda X: 0.5 + np.copysign(0.25, X[:, 0])
_PROPERTY_CASES = (
    (SQUARED, REG, (TruthSpec("cubicmix"), _SIGNED_REG)),
    (ZERO_ONE, CLS, (TruthSpec("logistic", (2.0,)), _SIGNED_CLS)),
)
_PROPERTY_DENSITIES = (_box(-1.0, 1.0), _box(-1.0, -0.0), _box(0.0, 2.0), LinearTilt1D(0.6), mass_neg(0.3))


@settings(max_examples=40, deadline=None)
@given(data=st.data())
def test_quadrature_integrand_matches_reference_for_every_basis_map(data):
    # every feature map of the basis table that takes one feature, with drawn
    # coefficients, one after another on one density and truth, so that a
    # memo shared across maps or blind to the sign of zero shows at some node
    loss, task, truths = data.draw(st.sampled_from(_PROPERTY_CASES))
    truth = data.draw(st.sampled_from(truths))
    density = data.draw(st.sampled_from(_PROPERTY_DENSITIES))
    excess = data.draw(st.booleans())
    f = density.factors[0]
    coef = st.floats(-4.0, 4.0, allow_subnormal=False)
    inside = st.floats(f.a, f.b, allow_subnormal=False)
    for name in erm._BASIS_TABLE:
        try:
            mc = make_model_class(name, 1, task)
        except ValueError:
            continue  # a map that reads two features
        model = FittedModel(mc, [data.draw(coef) for _ in range(mc.q)])
        nodes = [0.0, -0.0, f.a, f.b, *mc.map_knots, *data.draw(st.lists(inside, min_size=1, max_size=8))]
        nodes = [x for x in nodes if f.a <= x <= f.b]
        reference, _, _ = _reference_weighted(model, density, truth, loss, excess)
        # twice over, so that the second pass reads every node from the memo
        for order in (nodes, nodes[::-1]):
            weighted = _integrand(model, density, truth, loss, excess)
            got, want = (np.array([fn(x) for x in order]) for fn in (weighted, reference))
            assert got.tobytes() == want.tobytes(), (name, order)
        beta = model.coefficients
        for x in nodes:
            row = model.model_class.features(np.array([[x]]))[0]
            assert row.dot(beta) == model.predict(np.array([[x]]))[0], (name, x)
