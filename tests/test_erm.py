import pickle
import tracemalloc
import warnings

import numpy as np
import pytest
from reference import _box_problem, _solve_box_quadratic

from syndatum.datamodel import NoiseModel, SeedSpec, TaskKind, make_dataset
from syndatum.densities import (
    BoxSupport,
    LinearTilt1D,
    PiecewiseConstant1D,
    TruncatedNormalDiag,
    UniformBox,
)
from syndatum.erm import (
    _BASIS_TABLE,
    BasisFunctionClass,
    fit_classification,
    fit_downstream,
    fit_regression,
    make_model_class,
    parse_model_class,
    population_optimum,
)
from syndatum.errors import NonConvergence, NonFiniteValue, SingularDesign, TaskMismatch

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


@pytest.mark.parametrize("response, expected", [(-1e170, -1.0), (0.0, -1.0), (1e170, 2.0)],
                         ids=["b-negative", "b-zero", "b-positive"])
def test_box_fit_of_a_flat_parabola_takes_the_end_it_descends_to(response, expected):
    # features of 1e-170 square to 0, so A = 0 while b is -1, 0 or 1
    X = np.full((8, 1), 1e-170)
    y = np.full(8, response)
    mc = make_model_class("linear", 1, REG, box=(-1.0, 2.0))
    assert _box_problem(mc, X, y)[0][0, 0] == 0.0
    beta = fit_regression(mc, make_dataset(X, y, REG)).coefficients
    assert beta.tobytes() == _solve_box_quadratic(*_box_problem(mc, X, y)).tobytes()
    assert beta[0] == expected


def test_box_fit_in_a_zero_width_or_infinite_box():
    rng = SeedSpec(4).rng()
    X = rng.uniform(-1, 1, size=(200, 1))
    y = 0.3 * X[:, 0] + rng.normal(0, 0.01, size=200)
    data = make_dataset(X, y, REG)
    # box=0 is [-0.0, 0.0]: the enumeration keeps the lower end's -0.0 where
    # the clip gives the upper end's 0.0, equal as numbers
    zero = make_model_class("linear", 1, REG, box=0.0)
    assert fit_regression(zero, data).coefficients[0] == 0.0 == _solve_box_quadratic(*_box_problem(zero, X, y))[0]
    wide = make_model_class("linear", 1, REG, box=np.inf)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        beta = fit_regression(wide, data).coefficients
    with np.errstate(invalid="ignore"):  # the enumeration's objective at an infinite end
        assert beta.tobytes() == _solve_box_quadratic(*_box_problem(wide, X, y)).tobytes()
    assert beta[0] == pytest.approx(fit_regression(make_model_class("linear", 1, REG), data).coefficients[0], abs=1e-12)


def test_box_fit_fails_loudly_where_bvls_stops_short():
    # a coordinate free to move by 1e-300 stalls scipy's BVLS at beta[2] = 0,
    # reported as success; the minimizer has beta[2] = 0.2
    X = np.array([[2.0, 2.0, 2.0], [1.0, 2.0, -1.0], [-2.0, 0.0, 2.0], [2.0, 2.0, 1.0]])
    y = np.array([1.0, 2.0, 0.0, 2.0])
    mc = make_model_class("linear", 3, REG, box=((0.0, -1.0, 0.0), (1e-300, 0.0, 1.0)))
    assert _solve_box_quadratic(*_box_problem(mc, X, y))[2] == pytest.approx(0.2)
    with pytest.raises(NonConvergence, match="stopped short"):
        fit_regression(mc, make_dataset(X, y, REG))


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


@pytest.mark.parametrize("density, bound_mb", [
    (PiecewiseConstant1D([-1, 0, 1], [0.25, 0.75]), 4.0),
    (uniform_pm1(), 1.6),
], ids=["piecewise", "uniform"])
def test_population_optimum_allocates_only_what_it_keeps(density, bound_mb):
    # 100,000 draws are 0.8 MB a column.  Sampling through searchsorted and
    # fresh temporaries, then copying X and y into the dataset, peaked at
    # 5.6 MB (piecewise) and 2.4 MB (uniform); now 2.5 and 0.9 MB
    mc = make_model_class("linear", 1, REG)
    truth = lambda X: X[:, 0]
    population_optimum(mc, density, truth, 1000, SeedSpec(3))
    tracemalloc.start()
    try:
        population_optimum(mc, density, truth, 100_000, SeedSpec(3))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


def test_population_optimum_checks_its_draws():
    mc = make_model_class("linear", 1, REG)
    with pytest.raises(NonFiniteValue, match="responses"):
        population_optimum(mc, uniform_pm1(), lambda X: np.where(X[:, 0] > 0.5, np.nan, 0.0), 1000)


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


@pytest.mark.parametrize("x, stationary", [(0.0, False), (-3.0, False), (3.0, True)])
def test_logistic_class_keeps_a_failed_search_only_where_it_is_stationary(monkeypatch, x, stationary):
    # an L-BFGS-B result that reports failure is kept when its projected
    # gradient vanishes: on separable data at the box face the gradient
    # pushes against, not inside the box nor at the opposite face
    from scipy.optimize import OptimizeResult

    import syndatum.erm

    stalled = OptimizeResult(x=np.array([x]), success=False, message="stub")
    monkeypatch.setattr(syndatum.erm, "minimize", lambda *args, **kw: stalled)
    X = np.linspace(-1, 1, 50).reshape(-1, 1)
    data = make_dataset(X, np.where(X[:, 0] >= 0, 1.0, -1.0), CLS)
    mc = make_model_class("logistic-linear", 1, CLS, box=3.0)
    if stationary:
        assert fit_classification(mc, data).coefficients.tolist() == [x]
    else:
        with pytest.raises(NonConvergence, match="^logistic surrogate fit failed: stub$"):
            fit_classification(mc, data)


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
    # a ridge, which no class takes, and empty boxes, which fit silently or
    # fail inside a unit otherwise
    for text, task, match in (
        ("constant ridge=-1", REG, "bad parameter"),
        ("constant box=1,-1", REG, "box is empty"),
        ("logistic-linear box=1,-1", CLS, "box is empty"),
        ("threshold-abs box=0.5,0", CLS, "box is empty"),
        ("constant box=nan", REG, "box is empty"),
        ("logistic-linear box=nan", CLS, "box is empty"),
        ("threshold-abs box=0,inf", CLS, "finite box bounds"),
        ("threshold-abs box=-inf,1", CLS, "finite box bounds"),
    ):
        with pytest.raises(ValueError, match=match):
            parse_model_class(text, 1, task)
    # an infinite coefficient box leaves a basis fit unconstrained, which is fine
    assert parse_model_class("constant box=inf", 1, REG).coefficient_box[1][0] == np.inf


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


def test_every_class_is_as_wide_as_its_map_or_refuses_the_dimension():
    # a basis class has one coefficient per column of its map on p features;
    # the threshold and sign families have one; a class that cannot be built
    # on p features says which class it is
    rng = SeedSpec(23).rng()
    names = [*_BASIS_TABLE, "logistic-linear", "threshold-abs", "sign-abs", "sign-linear"]
    one_feature = ["abs", *(f"recip-cubic-{k}" for k in range(4)), "threshold-abs", "sign-abs", "sign-linear"]
    refused = set()
    for name in names:
        for p in range(1, 5):
            for task in (REG, CLS):
                try:
                    mc = make_model_class(name, p, task, box=(0.0, 0.5) if name == "threshold-abs" else None)
                except ValueError as exc:
                    assert name in str(exc), (name, p, task)
                    refused.add((name, p))
                    continue
                q = 1
                if isinstance(mc, BasisFunctionClass):
                    q = mc.features(np.zeros((1, p))).shape[1]
                    assert mc.q == q, (name, p, task)
                X = rng.uniform(0.0, 1.0, size=(200, p))
                y = rng.normal(size=200) if mc.task is REG else np.where(rng.random(200) < 0.5, 1.0, -1.0)
                model = fit_downstream(mc, make_dataset(X, y, mc.task))
                assert model.coefficients.shape == (q,), (name, p, task)
    assert refused == {("exp2", 1), *((name, p) for name in one_feature for p in range(2, 5))}


def test_fitted_model_pickles_and_predicts_the_same_bytes():
    # a fitted model is its class and its coefficients, one case per class kind
    rng = SeedSpec(17).rng()
    X = rng.uniform(-1.0, 1.0, size=(200, 1))
    y = X[:, 0] ** 2 + 0.1 * rng.normal(size=200)
    z = np.where(np.abs(X[:, 0]) + 0.2 * rng.normal(size=200) > 0.5, 1.0, -1.0)
    fits = [
        fit_regression(make_model_class("quadratic", 1, REG), make_dataset(X, y, REG)),
        fit_classification(make_model_class("logistic-linear", 1, CLS, box=3.0), make_dataset(X, z, CLS)),
        fit_classification(make_model_class("threshold-abs", 1, CLS, box=(0.0, 1.0)), make_dataset(X, z, CLS)),
        fit_classification(make_model_class("sign-abs", 1, CLS), make_dataset(X, z, CLS)),
    ]
    Q = np.linspace(-1.0, 1.0, 101).reshape(-1, 1)
    for model in fits:
        copy = pickle.loads(pickle.dumps(model))
        assert copy.model_class == model.model_class
        assert copy.predict(Q).tobytes() == model.predict(Q).tobytes()
        assert copy.quadrature_knots() == model.quadrature_knots()


def test_boxed_model_classes_compare_and_hash_by_value():
    # a coefficient box is a pair of float tuples, so equal classes are one set element
    a = make_model_class("linear", 2, REG, box=1.0)
    b = make_model_class("linear", 2, REG, box=1.0)
    c = make_model_class("linear", 2, REG, box=(-1.0, 2.0))
    d = parse_model_class("logistic-linear box=4", 2, CLS)
    assert a == b and hash(a) == hash(b)
    assert a.coefficient_box == ((-1.0, -1.0), (1.0, 1.0))
    assert a != c and d == parse_model_class("logistic-linear box=4", 2, CLS)
    assert len({a, b, c, d, make_model_class("linear", 2, REG, box=(-1.0, 2.0))}) == 3
