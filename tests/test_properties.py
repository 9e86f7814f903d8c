"""Property-based checks of the core invariants."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from syndatum.datamodel import NoiseModel, SeedSpec, TaskKind, make_dataset, sample_noise
from syndatum.densities import (
    PiecewiseConstant1D,
    chi_square_divergence,
    fidelity_tail_probability,
    lemma1_chi2_to_fidelity,
)
from syndatum.erm import fit_regression, make_model_class
from syndatum.estimators import EstimatorSpec, fit_estimator, predict_mean
from syndatum.metrics import SQUARED, RiskConfig, utility_metric
from syndatum.densities import BoxSupport, UniformBox

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
    (pf,), (qf,) = p.factors(), q.factors()
    widths = np.diff(pf.breakpoints)
    hp, hq = np.asarray(pf.heights), np.asarray(qf.heights)
    expected = float(np.sum(widths * hp**2 / hq)) - 1.0
    assert chi_square_divergence(p, q) == pytest.approx(expected, rel=1e-9)


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
    assert predict_mean(est, X[idx]) == pytest.approx(y[idx])
