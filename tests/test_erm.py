import numpy as np
import pytest

from syndatum.datamodel import NoiseModel, SeedSpec, TaskKind, make_dataset
from syndatum.densities import (
    BoxSupport,
    LinearTilt1D,
    PiecewiseConstant1D,
    TruncatedNormalDiag,
    UniformBox,
)
from syndatum.erm import (
    fit_classification,
    fit_regression,
    make_model_class,
    parse_model_class,
    population_optimum,
)
from syndatum.errors import SingularDesign, TaskMismatch

REG = TaskKind.REGRESSION
CLS = TaskKind.CLASSIFICATION


def uniform_pm1():
    return UniformBox(BoxSupport((-1.0,), (1.0,)))


def mass_neg(alpha):
    # 1-alpha on [0,1], alpha on [-1,0)
    return PiecewiseConstant1D([-1.0, 0.0, 1.0], [alpha, 1.0 - alpha])


def mass_pos(alpha):
    return PiecewiseConstant1D([-1.0, 0.0, 1.0], [1.0 - alpha, alpha])


def test_exp2_recovers_correct_model():
    rng = SeedSpec(1).rng()
    X = rng.uniform(-2, 2, size=(500, 2))
    y = np.exp(X[:, 0]) - np.exp(X[:, 1])
    model = fit_regression(make_model_class("exp2", 2, REG), make_dataset(X, y, REG))
    assert np.allclose(model.coefficients, [1.0, -1.0], atol=1e-8)


def test_fit_regression_matches_closed_form_ols():
    rng = SeedSpec(2).rng()
    for trial in range(5):
        X = rng.normal(size=(60, 3))
        y = rng.normal(size=60)
        model = fit_regression(make_model_class("linear", 3, REG), make_dataset(X, y, REG))
        beta = np.linalg.solve(X.T @ X, X.T @ y)
        assert np.allclose(model.coefficients, beta, atol=1e-8)


def test_fit_regression_duplication_invariance():
    rng = SeedSpec(3).rng()
    X = rng.uniform(-1, 1, size=(40, 1))
    y = rng.normal(size=40)
    ds = make_dataset(X, y, REG)
    ds2 = make_dataset(np.vstack([X, X]), np.concatenate([y, y]), REG)
    mc = make_model_class("quadratic", 1, REG)
    a = fit_regression(mc, ds).coefficients
    b = fit_regression(mc, ds2).coefficients
    assert np.allclose(a, b, atol=1e-10)


def test_ridge_penalty_shrinks_coefficients():
    rng = SeedSpec(12).rng()
    X = rng.uniform(-1, 1, size=(200, 1))
    y = 2.0 * X[:, 0]
    plain = fit_regression(make_model_class("linear", 1, REG), make_dataset(X, y, REG))
    ridged = fit_regression(
        make_model_class("linear", 1, REG, ridge=1.0), make_dataset(X, y, REG)
    )
    assert plain.coefficients[0] == pytest.approx(2.0, abs=1e-10)
    assert 0.0 < ridged.coefficients[0] < 2.0
    # closed form: beta = E[xy] / (E[x^2] + lambda)
    ex2 = float(np.mean(X[:, 0] ** 2))
    assert ridged.coefficients[0] == pytest.approx(2.0 * ex2 / (ex2 + 1.0), abs=1e-10)


def test_fit_regression_singular_design():
    X = np.ones((10, 1))
    mc = make_model_class("quadratic", 1, REG)  # maps to (x, x^2) = (1, 1): collinear
    with pytest.raises(SingularDesign):
        fit_regression(mc, make_dataset(X, np.ones(10), REG))


def test_box_constrained_interior_solution_exact():
    rng = SeedSpec(4).rng()
    X = rng.uniform(-1, 1, size=(200, 1))
    y = 0.3 * X[:, 0] + rng.normal(0, 0.01, size=200)
    free = fit_regression(make_model_class("linear", 1, REG), make_dataset(X, y, REG))
    boxed = fit_regression(
        make_model_class("linear", 1, REG, box=(-2.0, 2.0)), make_dataset(X, y, REG)
    )
    assert boxed.coefficients[0] == pytest.approx(free.coefficients[0], abs=1e-12)


def test_box_constrained_never_leaves_box_and_beats_random_candidates():
    rng = SeedSpec(5).rng()
    X = rng.uniform(-1, 1, size=(300, 1))
    y = 5.0 * X[:, 0] + rng.normal(0, 0.1, size=300)
    lo, hi = -0.5, 0.5
    mc = make_model_class("linear", 1, REG, box=(lo, hi))
    ds = make_dataset(X, y, REG)
    model = fit_regression(mc, ds)
    beta = model.coefficients[0]
    assert lo - 1e-12 <= beta <= hi + 1e-12
    assert beta == pytest.approx(hi)  # unconstrained optimum ~5 clips to the face

    def objective(b):
        return np.mean((b * X[:, 0] - y) ** 2)

    base = objective(beta)
    for b in rng.uniform(lo, hi, size=100):
        assert base <= objective(b) + 1e-12


def test_box_constrained_q4_projected_gradient():
    rng = SeedSpec(6).rng()
    X = rng.uniform(0.2, 2, size=(400, 1))
    mc = make_model_class("recip-cubic-3", 1, REG, box=(-0.3, 0.3))
    y = 2.0 * X[:, 0] + 1.0
    model = fit_regression(mc, make_dataset(X, y, REG))
    assert np.all(np.abs(model.coefficients) <= 0.3 + 1e-9)

    Phi = mc.features(X)

    def objective(beta):
        return np.mean((Phi @ beta - y) ** 2)

    base = objective(model.coefficients)
    for _ in range(100):
        cand = rng.uniform(-0.3, 0.3, size=4)
        assert base <= objective(cand) + 1e-8


def test_constant_class_population_optimum_toy61():
    # best constant under the real distribution at alpha = 5/6 is -1/3 in the
    # wide box and -1/4 in the narrow box; flipped under the synthetic one
    alpha = 5.0 / 6.0
    truth = lambda X: X[:, 0]
    f1 = make_model_class("constant", 1, REG, box=(-0.5, 0.5))
    f2 = make_model_class("constant", 1, REG, box=(-0.25, 0.25))
    seed = SeedSpec(7)
    m = 200_000
    real, synth = mass_neg(alpha), mass_pos(alpha)
    assert population_optimum(f1, real, truth, m, seed).coefficients[0] == pytest.approx(-1 / 3, abs=0.01)
    assert population_optimum(f2, real, truth, m, seed).coefficients[0] == pytest.approx(-1 / 4, abs=0.01)
    assert population_optimum(f1, synth, truth, m, seed).coefficients[0] == pytest.approx(1 / 3, abs=0.01)
    assert population_optimum(f2, synth, truth, m, seed).coefficients[0] == pytest.approx(1 / 4, abs=0.01)


def test_threshold_population_optima_toy61_classification():
    # with positive labels on the negative half-line, at
    # alpha = 0.75 the real optima are (0, 1/4) and the synthetic (1/2, 1/3)
    alpha = 0.75
    eta = lambda X: (X[:, 0] < 0).astype(float)
    g1 = make_model_class("threshold-abs", 1, CLS, box=(0.0, 0.5))
    g2 = make_model_class("threshold-abs", 1, CLS, box=(0.25, 1.0 / 3.0))
    seed = SeedSpec(8)
    m = 200_000
    real, synth = mass_neg(alpha), mass_pos(alpha)
    assert population_optimum(g1, real, eta, m, seed).coefficients[0] == pytest.approx(0.0, abs=0.01)
    assert population_optimum(g2, real, eta, m, seed).coefficients[0] == pytest.approx(0.25, abs=0.01)
    assert population_optimum(g1, synth, eta, m, seed).coefficients[0] == pytest.approx(0.5, abs=0.01)
    assert population_optimum(g2, synth, eta, m, seed).coefficients[0] == pytest.approx(1.0 / 3.0, abs=0.01)


def test_population_optimum_toy51():
    uniform = uniform_pm1()
    absval = lambda X: np.abs(X[:, 0])
    correct = make_model_class("abs", 1, REG)
    wrong = make_model_class("linear", 1, REG)
    seed = SeedSpec(9)
    assert population_optimum(correct, uniform, absval, 10**5, seed).coefficients[0] == pytest.approx(1.0, abs=0.01)
    assert population_optimum(wrong, uniform, absval, 10**5, seed).coefficients[0] == pytest.approx(0.0, abs=0.01)
    for alpha in (0.2, 0.75):
        tilted = PiecewiseConstant1D([-1, 0, 1], [1 - alpha, alpha])
        beta = population_optimum(wrong, tilted, absval, 10**5, seed).coefficients[0]
        assert beta == pytest.approx(2 * alpha - 1, abs=0.02)


def test_logistic_class_separable_hits_box_boundary():
    X = np.linspace(-1, 1, 50).reshape(-1, 1)
    z = np.where(X[:, 0] >= 0, 1.0, -1.0)
    mc = make_model_class("logistic-linear", 1, CLS, box=3.0)
    model = fit_classification(mc, make_dataset(X, z, CLS))
    assert abs(model.coefficients[0]) == pytest.approx(3.0, abs=1e-6)


def test_intercept_only_balanced_labels():
    mc = make_model_class("constant", 1, CLS)
    X = np.zeros((100, 1))
    z = np.array([1.0, -1.0] * 50)
    model = fit_classification(mc, make_dataset(X, z, CLS))
    assert model.coefficients[0] == pytest.approx(0.0, abs=1e-6)


def test_logistic_class_consistency_large_n():
    rng = SeedSpec(10).rng()
    beta_star = np.array([1.0, -0.5])
    X = rng.uniform(-2, 2, size=(40_000, 2))
    prob = 1.0 / (1.0 + np.exp(-X @ beta_star))
    z = np.where(rng.random(40_000) < prob, 1.0, -1.0)
    mc = make_model_class("logistic-linear", 2, CLS, box=4.0)
    model = fit_classification(mc, make_dataset(X, z, CLS))
    assert np.allclose(model.coefficients, beta_star, atol=0.06)


def test_fit_classification_duplication_invariance():
    rng = SeedSpec(11).rng()
    X = rng.uniform(-1, 1, size=(200, 1))
    z = np.where(rng.random(200) < 0.5, 1.0, -1.0)
    ds = make_dataset(X, z, CLS)
    ds2 = make_dataset(np.vstack([X, X]), np.concatenate([z, z]), CLS)
    mc = make_model_class("threshold-abs", 1, CLS, box=(0.0, 1.0))
    assert fit_classification(mc, ds).coefficients[0] == pytest.approx(
        fit_classification(mc, ds2).coefficients[0], abs=1e-9
    )


def test_task_mismatch():
    ds = make_dataset([[1.0]], [1.0], REG)
    with pytest.raises(TaskMismatch):
        fit_classification(make_model_class("linear", 1, CLS), ds)
    dc = make_dataset([[1.0]], [1.0], CLS)
    with pytest.raises(TaskMismatch):
        fit_regression(make_model_class("linear", 1, REG), dc)


def test_sign_abs_class_members():
    # all-positive labels drive the +1 member; all-negative the -1 member
    X = np.linspace(-1, 1, 20).reshape(-1, 1)
    mc = make_model_class("sign-abs", 1, CLS)
    up = fit_classification(mc, make_dataset(X, np.ones(20), CLS))
    down = fit_classification(mc, make_dataset(X, -np.ones(20), CLS))
    assert up.coefficients[0] == 1.0
    assert down.coefficients[0] == -1.0


def test_parse_model_class():
    mc = parse_model_class("constant box=-0.5,0.5", 1, REG)
    assert mc.coefficient_box is not None
    mc = parse_model_class("logistic-linear box=4", 2, CLS)
    assert mc.q == 2 and mc.coefficient_box[1][0] == 4.0
    mc = parse_model_class("threshold-abs box=0,0.5", 1, CLS)
    assert (mc.lo, mc.hi) == (0.0, 0.5)
    with pytest.raises(ValueError):
        parse_model_class("fourier", 1, REG)
    # a class takes only the parameters it reads
    for text in ("sign-abs box=1", "sign-linear ridge=0.1", "threshold-abs box=0,0.5 ridge=0.1"):
        with pytest.raises(ValueError, match="bad parameter"):
            parse_model_class(text, 1, CLS)
    # a negative ridge and empty boxes, which fit silently or fail inside a unit otherwise
    for text, task, match in (
        ("constant ridge=-1", REG, "ridge"),
        ("constant box=1,-1", REG, "box is empty"),
        ("logistic-linear box=1,-1", CLS, "box is empty"),
        ("threshold-abs box=0.5,0", CLS, "box is empty"),
        ("constant box=nan", REG, "box is empty"),
        ("logistic-linear box=nan", CLS, "box is empty"),
    ):
        with pytest.raises(ValueError, match=match):
            parse_model_class(text, 1, task)


def test_recip_cubic_bases_shapes():
    X = np.linspace(0.1, 2, 7).reshape(-1, 1)
    for name, q in [
        ("recip-cubic-0", 2),
        ("recip-cubic-1", 2),
        ("recip-cubic-2", 2),
        ("recip-cubic-3", 4),
    ]:
        mc = make_model_class(name, 1, REG)
        assert mc.features(X).shape == (7, q)
