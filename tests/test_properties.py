"""Property-based checks of the core invariants."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from reference import _box_problem, _knn_reference, _quadratic_objective, _solve_box_quadratic

from syndatum.datamodel import NoiseModel, SeedSpec, TaskKind, make_dataset, sample_noise
from scipy.special import erfi, ndtr

from syndatum.densities import (
    DensityModel,
    PiecewiseConstant1D,
    TruncatedNormalDiag,
    _DENSITY_SPECS,
    chi_square_divergence,
    fidelity_tail_probability,
    lemma1_chi2_to_fidelity,
    parse_density,
)
from syndatum.erm import fit_regression, make_model_class
from syndatum.errors import RejectionBudgetExceeded
from syndatum.estimators import EstimatorSpec, fit_estimator
from syndatum.metrics import SQUARED, RiskConfig, utility_metric
from syndatum.densities import BoxSupport, UniformBox, _Piecewise1D

REG = TaskKind.REGRESSION


@settings(max_examples=25, deadline=None)
@given(var=st.floats(1e-6, 50.0), seed=st.integers(0, 2**32 - 1))
def test_bounded_uniform_support_property(var, seed):
    out = sample_noise(NoiseModel.bounded_uniform(var), 500, SeedSpec(seed))
    assert np.all(np.abs(out) <= math.sqrt(3.0 * var) + 1e-9)


@st.composite
def piecewise_pair(draw):
    k = draw(st.integers(2, 5))
    raw_p = [draw(st.floats(0.05, 1.0)) for _ in range(k)]
    raw_q = [draw(st.floats(0.05, 1.0)) for _ in range(k)]
    breaks = np.linspace(-1.0, 1.0, k + 1)
    widths = np.diff(breaks)
    hp = np.asarray(raw_p) / np.sum(np.asarray(raw_p) * widths)
    hq = np.asarray(raw_q) / np.sum(np.asarray(raw_q) * widths)
    return (
        PiecewiseConstant1D(breaks, hp),
        PiecewiseConstant1D(breaks, hq),
    )


@settings(max_examples=20, deadline=None)
@given(pair=piecewise_pair(), c1=st.floats(0.05, 20.0), c2=st.floats(0.05, 20.0))
def test_tail_probability_monotone_property(pair, c1, c2):
    p, q = pair
    lo, hi = min(c1, c2), max(c1, c2)
    assert fidelity_tail_probability(p, q, lo) >= fidelity_tail_probability(p, q, hi) - 1e-9


@settings(max_examples=20, deadline=None)
@given(pair=piecewise_pair())
def test_chi2_piecewise_matches_closed_form_property(pair):
    # chi2(p || q) = sum_i w_i hp_i^2 / hq_i - 1 over the shared segments
    p, q = pair
    (pf,), (qf,) = p.factors, q.factors
    widths = np.diff(pf.breakpoints)
    hp, hq = np.asarray(pf.heights), np.asarray(qf.heights)
    expected = float(np.sum(widths * hp**2 / hq)) - 1.0
    assert chi_square_divergence(p, q) == pytest.approx(expected, rel=1e-9)


@st.composite
def nested_uniform_pair(draw):
    """p uniform on a box inside q's uniform box, edges free to coincide, in
    1-3 dimensions; returns (p, q, closed-form chi2(p || q)).  Each side of
    p's box is a piecewise density that is 0 outside it."""
    factors, lower, upper, ratio = [], [], [], 1.0
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.floats(-5.0, 5.0))
        b = a + draw(st.floats(0.1, 10.0))
        c = a + draw(st.floats(0.0, 0.999)) * (b - a)
        d = min(b, c + draw(st.floats(1e-3, 1.0)) * (b - a))
        breaks = [a] + [c] * (c > a) + [d] * (d < b) + [b]
        heights = [1.0 / (d - c) if c <= lo and hi <= d else 0.0 for lo, hi in zip(breaks[:-1], breaks[1:])]
        factors.append(_Piecewise1D(tuple(breaks), tuple(heights)))
        lower.append(a)
        upper.append(b)
        ratio *= (b - a) / (d - c)
    return DensityModel(factors, "nested"), UniformBox(BoxSupport(tuple(lower), tuple(upper))), ratio - 1.0


@settings(max_examples=30, deadline=None)
@given(case=nested_uniform_pair())
def test_chi2_nested_uniform_boxes_match_closed_form_property(case):
    # chi2(p || q) = |q's box| / |p's box| - 1, wherever p's box sits
    p, q, expected = case
    assert chi_square_divergence(p, q) == pytest.approx(expected, rel=1e-9, abs=1e-12)


@st.composite
def trunc_normal_uniform_pair(draw):
    """A truncated normal and the uniform density on one box, 1-3 dims."""
    lower, upper, mean, var = [], [], [], []
    for _ in range(draw(st.integers(1, 3))):
        a = draw(st.floats(-5.0, 5.0))
        w = draw(st.floats(0.1, 10.0))
        lower.append(a)
        upper.append(a + w)
        mean.append(a + w * draw(st.floats(-0.5, 1.5)))
        var.append((w * draw(st.floats(0.25, 3.0))) ** 2)
    support = BoxSupport(tuple(lower), tuple(upper))
    return TruncatedNormalDiag(support, mean, var), UniformBox(support)


@settings(max_examples=30, deadline=None)
@given(pair=trunc_normal_uniform_pair())
def test_chi2_trunc_normal_vs_uniform_match_closed_form_property(pair):
    # per side of width w, with z = (x - m) / s running over [al, be] and
    # Z = Phi(be) - Phi(al):
    #   chi2(N || U) + 1 = prod w (Phi(sqrt2 be) - Phi(sqrt2 al)) / (2 sqrt(pi) s Z^2)
    #   chi2(U || N) + 1 = prod s^2 pi Z (erfi(be / sqrt2) - erfi(al / sqrt2)) / w^2
    normal, uniform = pair
    forward = backward = 1.0
    for f in normal.factors:
        s, w = math.sqrt(f.var), f.b - f.a
        al, be = (f.a - f.m) / s, (f.b - f.m) / s
        Z = ndtr(be) - ndtr(al)
        forward *= w * (ndtr(math.sqrt(2.0) * be) - ndtr(math.sqrt(2.0) * al)) / (2.0 * math.sqrt(math.pi) * s * Z**2)
        backward *= s**2 * math.pi * Z * (erfi(be / math.sqrt(2.0)) - erfi(al / math.sqrt(2.0))) / w**2
    assert chi_square_divergence(normal, uniform) == pytest.approx(forward - 1.0, rel=1e-6, abs=1e-8)
    assert chi_square_divergence(uniform, normal) == pytest.approx(backward - 1.0, rel=1e-6, abs=1e-8)


@settings(max_examples=20, deadline=None)
@given(pair=piecewise_pair())
def test_lemma1_translation_certifies_tails(pair):
    # the (max chi2 + 1, 1) level must dominate every tail probability
    p, q = pair
    V, d = lemma1_chi2_to_fidelity(
        chi_square_divergence(p, q), chi_square_divergence(q, p)
    )
    for C in (0.5, 1.0, 2.0, 5.0, 20.0):
        assert fidelity_tail_probability(p, q, C) <= V * C**-d + 1e-6


# edge values for every numeric density parameter; a list may be empty
_EDGE_VALUES = st.sampled_from(["nan", "inf", "-inf", "0", "-1", "1", "0.5", "2", "1e308", "-1e308"])


@st.composite
def density_spec(draw):
    kind = draw(st.sampled_from(sorted(_DENSITY_SPECS)))
    params = []
    for key in _DENSITY_SPECS[kind][0]:
        if key == "direction":
            value = draw(st.sampled_from(["increasing", "decreasing", "nan", ""]))
        else:
            value = ",".join(draw(st.lists(_EDGE_VALUES, max_size=3)))
        params.append(f"{key}={value}")
    return " ".join([kind, *params])


@settings(max_examples=400, deadline=None)
@given(text=density_spec())
@example(text="uniform-box lower=nan upper=1")
@example(text="uniform-box lower=-1e308 upper=1e308")  # the width overflows
@example(text="piecewise breaks=-1,0,1 heights=nan,1")
def test_parsed_density_is_proper_or_rejected_property(text):
    try:
        density = parse_density(text)
    except ValueError:
        return
    lower, upper = np.array(density.support.lower), np.array(density.support.upper)
    assert np.all(np.isfinite(lower)) and np.all(np.isfinite(upper))
    try:
        X = density.sample(64, SeedSpec(0))
    except RejectionBudgetExceeded:  # a truncated normal with too little mass to draw from
        assert density.name == "trunc-normal"
    else:
        assert np.all(np.isfinite(X)) and np.all((X >= lower) & (X <= upper))
    for f in density.factors:
        assert float(f.cdf1(f.b)) == pytest.approx(1.0, abs=1e-9)


@settings(max_examples=15, deadline=None)
@given(
    lo=st.floats(-2.0, -0.1),
    hi=st.floats(0.1, 2.0),
    seed=st.integers(0, 10_000),
)
def test_box_fit_stays_inside_box_property(lo, hi, seed):
    rng = SeedSpec(seed).rng()
    X = rng.uniform(-1, 1, size=(100, 1))
    y = rng.normal(0, 2.0, size=100) + 5.0 * X[:, 0]
    mc = make_model_class("linear", 1, REG, box=(lo, hi))
    model = fit_regression(mc, make_dataset(X, y, REG))
    assert lo - 1e-9 <= model.coefficients[0] <= hi + 1e-9


@st.composite
def one_coefficient_box_fit(draw):
    """Rows of one feature and a box placed against the fit's vertex v = b / A:
    around it, wholly below or above it, or with an end within 1e-12 of it.
    The reference keeps the first of two candidates whose objectives differ
    by under 1e-15, so |x| >= 0.1 keeps A from hiding the better end and
    |y| <= 1/2 keeps the objective's rounding under that."""
    n = draw(st.integers(2, 40))
    sign = st.sampled_from([-1.0, 1.0])
    x = np.array([draw(st.floats(0.1, 3.0)) * draw(sign) for _ in range(n)])
    y = np.array(draw(st.lists(st.floats(-0.5, 0.5), min_size=n, max_size=n)))
    v = float(x @ y / n / (x @ x / n))
    width = draw(st.floats(1e-3, 5.0))
    where = draw(st.sampled_from(["around", "below", "above", "lo", "hi"]))
    if where == "around":
        lo = v - draw(st.floats(0.0, 1.0)) * width
    elif where == "below":
        lo = v + draw(st.floats(1e-6, 5.0))
    elif where == "above":
        lo = v - draw(st.floats(1e-6, 5.0)) - width
    else:
        lo = v + draw(st.floats(-1e-12, 1e-12)) - (width if where == "hi" else 0.0)
    return x[:, None], y, lo, lo + width


@settings(max_examples=300, deadline=None)
@given(case=one_coefficient_box_fit())
def test_one_coefficient_box_fit_is_the_reference_property(case):
    # the clipped vertex picks the face the enumeration picks, to the bit
    X, y, lo, hi = case
    mc = make_model_class("linear", 1, REG, box=(lo, hi))
    got = fit_regression(mc, make_dataset(X, y, REG)).coefficients
    assert got.tobytes() == _solve_box_quadratic(*_box_problem(mc, X, y)).tobytes()


@st.composite
def boxed_design(draw):
    """2-10 coefficients of the linear class; a full, collinear, zero-column
    or all-zero design; an infinite box or one per coordinate, some of zero
    width.  A nonzero width is at least 1e-3: scipy's BVLS stops short on a
    box narrower than rounding (test_erm covers that)."""
    q = draw(st.integers(2, 10))
    n = draw(st.integers(q, 40))
    row = st.lists(st.floats(-3.0, 3.0), min_size=q, max_size=q)
    X = np.array(draw(st.lists(row, min_size=n, max_size=n)))
    y = np.array(draw(st.lists(st.floats(-10.0, 10.0), min_size=n, max_size=n)))
    kind = draw(st.sampled_from(["full", "collinear", "zero-column", "all-zero"]))
    if kind == "collinear":
        i, j = draw(st.lists(st.integers(0, q - 1), min_size=2, max_size=2, unique=True))
        X[:, i] = draw(st.floats(-2.0, 2.0)) * X[:, j]
    elif kind == "zero-column":
        X[:, draw(st.integers(0, q - 1))] = 0.0
    elif kind == "all-zero":
        X[:] = 0.0
    if draw(st.booleans()):
        return X, y, np.full(q, -np.inf), np.full(q, np.inf)
    lo = np.array(draw(st.lists(st.floats(-3.0, 1.0), min_size=q, max_size=q)))
    width = st.just(0.0) | st.floats(1e-3, 3.0)
    return X, y, lo, lo + np.array(draw(st.lists(width, min_size=q, max_size=q)))


@settings(max_examples=200, deadline=None)
@given(case=boxed_design())
def test_box_fit_meets_the_kkt_conditions_property(case):
    # BVLS is at least as good as face enumeration and FISTA, and its
    # projected gradient vanishes; an infinite box warns of nothing
    X, y, lo, hi = case
    mc = make_model_class("linear", X.shape[1], REG, box=(tuple(lo), tuple(hi)))
    with warnings.catch_warnings():
        warnings.simplefilter("error", RuntimeWarning)
        beta = fit_regression(mc, make_dataset(X, y, REG)).coefficients
    A, b, lo, hi = _box_problem(mc, X, y)
    assert np.all((lo <= beta) & (beta <= hi))
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # the reference's, on an infinite box
        ref = _solve_box_quadratic(A, b, lo, hi)
        best = np.inf if ref is None else _quadratic_objective(A, b, ref)
    if np.isfinite(best):
        assert _quadratic_objective(A, b, beta) <= best + 1e-12 * (1.0 + np.mean(y**2))
    # the gradient's own rounding grows with |A| |beta|, and a nearly null
    # direction of A can carry a coefficient of 1e8 or more
    gradient = 2.0 * (A @ beta - b)
    scale = 1.0 + np.abs(A).max() * np.abs(beta).max() + np.abs(b).max()
    assert np.max(np.abs(np.clip(beta - gradient, lo, hi) - beta)) <= 1e-8 * scale


@settings(max_examples=15, deadline=None)
@given(beta_a=st.floats(-3.0, 3.0), beta_b=st.floats(-3.0, 3.0), seed=st.integers(0, 10_000))
def test_utility_symmetry_property(beta_a, beta_b, seed):
    cfg = RiskConfig(
        density=UniformBox(BoxSupport((-1.0,), (1.0,))),
        truth=lambda X: np.abs(X[:, 0]),
        loss=SQUARED,
        n_test=2000,
        seed=SeedSpec(seed),
    )
    a = lambda X: beta_a * X[:, 0]
    b = lambda X: beta_b * X[:, 0]
    u_ab = utility_metric(a, b, cfg).utility
    u_ba = utility_metric(b, a, cfg).utility
    assert u_ab == pytest.approx(u_ba)
    assert u_ab >= 0.0


@settings(max_examples=10, deadline=None)
@given(seed=st.integers(0, 10_000), idx=st.integers(0, 19))
def test_knn_k1_interpolates_training_points_property(seed, idx):
    rng = SeedSpec(seed).rng()
    X = rng.normal(size=(20, 2))
    y = rng.normal(size=20)
    est = fit_estimator(
        EstimatorSpec("knn", k=1), make_dataset(X, y, REG), SeedSpec(0)
    )
    assert est.mean(X[idx])[0] == pytest.approx(y[idx])


@st.composite
def coarse_dataset(draw):
    """Few rows of 1-3 features on a grid of step 0.5, so that distances and
    split candidates tie often; continuous or +-1 responses; queries on and
    off the grid, with the non-finite values."""
    p = draw(st.integers(1, 3))
    n = draw(st.integers(2, 24))
    grid = st.integers(-3, 3).map(lambda v: v / 2.0)
    X = np.array(draw(st.lists(st.lists(grid, min_size=p, max_size=p), min_size=n, max_size=n)))
    if draw(st.booleans()):
        y = np.array(draw(st.lists(st.sampled_from([-1.0, 1.0]), min_size=n, max_size=n)))
    else:
        y = np.array(draw(st.lists(st.floats(-1e3, 1e3), min_size=n, max_size=n)))
    off = st.floats(-4.0, 4.0) | grid | st.sampled_from([np.inf, -np.inf, np.nan, -0.0])
    Q = np.array(draw(st.lists(st.lists(off, min_size=p, max_size=p), min_size=1, max_size=40)))
    return X, y, np.vstack([X, Q])


@settings(max_examples=60, deadline=None)
@given(data=coarse_dataset(), k=st.integers(1, 24))
def test_knn_matches_per_query_reference_property(data, k):
    from syndatum.estimators import _KNN

    X, y, Q = data
    k = min(k, X.shape[0])
    with np.errstate(invalid="ignore", over="ignore"):
        got = _KNN(X, y, k).predict(Q)
        want = _knn_reference(X, y, k, Q) if k < X.shape[0] else np.where(np.isnan(Q).any(axis=1), np.nan, y.mean())
    assert got.tobytes() == want.tobytes()


@settings(max_examples=40, deadline=None)
@given(data=coarse_dataset(), trees=st.integers(1, 4), depth=st.integers(0, 4), seed=st.integers(0, 1000))
def test_forest_matches_tree_order_walk_property(data, trees, depth, seed):
    from syndatum.estimators import _Forest

    X, y, Q = data
    forest = _Forest(X, y, trees, depth, SeedSpec(seed).rng())
    # every feature at a threshold of some tree, where the lookup side matters
    cuts = np.concatenate([t.threshold[t.feature >= 0] for t in forest.trees])
    Q = np.vstack([Q, np.repeat(cuts[:, None], X.shape[1], axis=1)])

    def walk(Q):
        out = np.zeros(Q.shape[0])
        for tree in forest.trees:
            out += tree.predict(Q)
        return out / trees

    # a short call walks the trees; one with a row per cell builds the table
    assert forest.predict(Q[:1]).tobytes() == walk(Q[:1]).tobytes()
    big = np.tile(Q, (1 + (forest._cell_count or 0) // Q.shape[0], 1))
    assert forest._steps is not None or forest._cell_count <= big.shape[0]
    assert forest.predict(big).tobytes() == walk(big).tobytes()
    assert forest.predict(Q).tobytes() == walk(Q).tobytes()
