import hashlib
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.integrate import quad
from scipy.optimize import brentq
from scipy.stats import kstest
from reference import _piecewise_sample1_reference

from syndatum.datamodel import SeedSpec
from syndatum.densities import (
    BoxSupport,
    DensityModel,
    LinearTilt1D,
    PiecewiseConstant1D,
    Triangular1D,
    TruncatedNormalDiag,
    UniformBox,
    _Piecewise1D,
    _ratio_region_mass,
    certify_fidelity_level,
    chi_square_divergence,
    default_c_grid,
    fidelity_tail_probability,
    lemma1_chi2_to_fidelity,
    lemma1_fidelity_to_chi2_bound,
    parse_density,
)
from syndatum.errors import (
    InfiniteDivergence,
    InvalidD,
    InvalidGrid,
    RejectionBudgetExceeded,
    SupportMismatch,
)


def uniform_pm1():
    return UniformBox(BoxSupport((-1.0,), (1.0,)))


def step_density(alpha):
    # 1-alpha on [-1, 0), alpha on [0, 1]
    return PiecewiseConstant1D([-1.0, 0.0, 1.0], [1.0 - alpha, alpha])


def triangular_tail_closed_form(C):
    return (1.0 + 2.0 * C) / (1.0 + C) ** 2


# ---------------------------------------------------------------------------
# pdf
# ---------------------------------------------------------------------------


def test_pdf_uniform_height():
    assert uniform_pm1().pdf(0.3) == pytest.approx(0.5)
    assert uniform_pm1().pdf(1.7) == 0.0


def test_pdf_piecewise_two_level():
    q = step_density(0.75)
    assert q.pdf(0.5) == pytest.approx(0.75)
    assert q.pdf(-0.5) == pytest.approx(0.25)


def test_pdf_triangular():
    assert Triangular1D("increasing").pdf(0.25) == pytest.approx(0.5)
    assert Triangular1D("decreasing").pdf(0.25) == pytest.approx(1.5)


def test_densities_integrate_to_one():
    models = [
        uniform_pm1(),
        step_density(0.3),
        LinearTilt1D(0.4),
        Triangular1D("increasing"),
        TruncatedNormalDiag(BoxSupport((-2.0,), (2.0,)), [1.0], [1.0]),
    ]
    for m in models:
        f = m.factors[0]
        total, _ = quad(lambda x: float(f.pdf1(x)), f.a, f.b, points=f.knots() or None)
        assert total == pytest.approx(1.0, abs=1e-6)
        xs = np.linspace(f.a, f.b, 501)
        assert np.all(f.pdf1(xs) >= 0.0)


# ---------------------------------------------------------------------------
# sampling
# ---------------------------------------------------------------------------


def test_trunc_normal_upper_tail_keeps_its_mass():
    # both bounds ten or more standard deviations above the mean
    box = BoxSupport((0.0,), (1.0,))
    f = TruncatedNormalDiag(box, [-1.0], [0.01]).factors[0]
    assert f._mass() > 0.0
    assert math.isfinite(float(f.pdf1(0.5)))
    assert quad(lambda x: float(f.pdf1(x)), 0.0, 1.0)[0] == pytest.approx(1.0, abs=1e-9)
    cdf = f.cdf1(np.array([0.0, 0.02, 1.0]))
    assert cdf[0] == 0.0 and 0.8 < cdf[1] < 0.9 and cdf[2] == 1.0


def test_trunc_normal_without_representable_mass_is_rejected():
    # 50 standard deviations above the mean ndtr underflows to 0; at 25 the
    # mass is about 3e-138 and still usable
    box = BoxSupport((0.0,), (1.0,))
    with pytest.raises(ValueError, match="no representable mass"):
        TruncatedNormalDiag(box, [-1.0], [0.0004])
    f = TruncatedNormalDiag(box, [-1.0], [0.0016]).factors[0]
    assert 1e-139 < f._mass() < 1e-137
    assert math.isfinite(f.mean()) and 0.0 < f.mean() < 0.01
    assert math.isfinite(float(f.pdf1(0.0))) and f.cdf1(np.array([1.0]))[0] == 1.0


def test_sample_uniform_mean():
    d = UniformBox(BoxSupport((0.0,), (2.0,)))
    x = d.sample(10**5, SeedSpec(10))
    assert 0.98 <= x.mean() <= 1.02


def test_sample_trunc_normal_inside_box():
    d = TruncatedNormalDiag(BoxSupport((-2.0, -2.0), (2.0, 2.0)), [1.0, 1.0], [1.0, 1.0])
    x = d.sample(1000, SeedSpec(11))
    assert x.shape == (1000, 2)
    assert np.all((x >= -2.0) & (x <= 2.0))


def test_sample_triangular_mean():
    # E[X] = integral of x * 2x over [0,1] = 2/3
    x = Triangular1D("increasing").sample(10**6, SeedSpec(12))
    assert 0.664 <= x.mean() <= 0.670


def test_sample_marginal_means_close_to_analytic():
    d = TruncatedNormalDiag(BoxSupport((-2.0, -2.0), (2.0, 2.0)), [1.0, 0.0], [1.0, 2.0])
    n = 10**5
    x = d.sample(n, SeedSpec(13))
    for j, f in enumerate(d.factors):
        tol = 5.0 * math.sqrt(f.variance() / n)
        assert abs(x[:, j].mean() - f.mean()) <= tol


def test_sampling_deterministic():
    d = LinearTilt1D(0.3)
    a = d.sample(1000, SeedSpec(14, 2))
    b = d.sample(1000, SeedSpec(14, 2))
    assert np.array_equal(a, b)


@st.composite
def piecewise_factor(draw):
    """A piecewise-constant factor of 1 to 6 segments on drawn breakpoints,
    with zero-height segments at none, some or all of the first, a middle
    and the last position."""
    k = draw(st.integers(1, 6))
    widths = draw(st.lists(st.floats(0.01, 5.0), min_size=k, max_size=k))
    br = np.cumsum([draw(st.floats(-10.0, 10.0)), *widths])
    raw = draw(st.lists(st.floats(0.01, 1.0), min_size=k, max_size=k))
    for pos in draw(st.sets(st.sampled_from([0, k // 2, k - 1]), max_size=min(2, k - 1))):
        raw[pos] = 0.0
    heights = np.asarray(raw) / float(np.sum(np.asarray(raw) * np.diff(br)))
    return _Piecewise1D(tuple(br), tuple(heights))


@settings(max_examples=60, deadline=None)
@given(f=piecewise_factor(), seed=st.integers(0, 2**32 - 1), n=st.sampled_from([1, 2, 1000]))
def test_piecewise_sample1_matches_reference_property(f, seed, n):
    fast = f.sample1(n, np.random.default_rng(seed))
    ref = _piecewise_sample1_reference(f, n, np.random.default_rng(seed))
    assert fast.tobytes() == ref.tobytes()


class _FixedUniforms:
    """Stands in for a Generator whose random(n) returns given values."""

    def __init__(self, values):
        self.values = np.asarray(values, dtype=float)

    def random(self, n):
        assert n == self.values.size
        return self.values.copy()


@pytest.mark.parametrize("breaks, heights", [
    ([-2.0, -1.0, 0.0, 1.0, 2.0, 3.0], [0.0, 0.5, 0.0, 0.5, 0.0]),
    ([-1.0, 0.0, 1.0], [0.25, 0.75]),
    ([0.0, 0.1, 0.4, 1.0], [2.0, 0.0, 4.0 / 3.0]),
    # the masses add up to 1 - 2**-52, so the largest u lands in the zero-mass
    # end segment, whose point must be its left end, 0.0
    ([-1.75, -1.5, -1.25, -1.0, -0.75, -0.5, -0.25, 0.0, 1.0], [1.0 / 1.75] * 7 + [0.0]),
])
def test_piecewise_sample1_matches_reference_at_the_cut_points(breaks, heights):
    # u equal to a cut point of the cumulative mass lands in the segment that
    # starts there, past any zero-mass segments, as searchsorted(side="right")
    f = _Piecewise1D(tuple(breaks), tuple(heights))
    cum = np.cumsum(np.asarray(heights) * np.diff(breaks))
    u = [0.0, *cum, np.nextafter(1.0, 0.0)]
    fast = f.sample1(len(u), _FixedUniforms(u))
    with np.errstate(divide="ignore", invalid="ignore"):  # the reference divides by a zero mass
        ref = _piecewise_sample1_reference(f, len(u), _FixedUniforms(u))
    assert fast.tobytes() == ref.tobytes()
    if heights[0] == 0.0:
        assert fast[0] == breaks[1]
    if heights[-1] == 0.0:
        assert fast[-1] <= breaks[-2]


def test_rejection_budget_exceeded():
    d = TruncatedNormalDiag(BoxSupport((8.0,), (8.1,)), [0.0], [1.0])
    with pytest.raises(RejectionBudgetExceeded):
        d.sample(10, SeedSpec(15))


@pytest.mark.parametrize(
    "model",
    [
        uniform_pm1(),
        step_density(0.75),
        LinearTilt1D(0.5),
        Triangular1D("decreasing"),
        TruncatedNormalDiag(BoxSupport((-2.0,), (2.0,)), [1.0], [1.0]),
    ],
)
def test_kolmogorov_smirnov_against_analytic_cdf(model):
    x = model.sample(10**5, SeedSpec(16)).ravel()
    f = model.factors[0]
    stat = kstest(x, lambda t: np.asarray(f.cdf1(t))).statistic
    critical = 1.949 / math.sqrt(len(x))  # 0.001 significance level
    assert stat < critical


# ---------------------------------------------------------------------------
# chi-square divergence
# ---------------------------------------------------------------------------


def test_chi2_identical_is_zero():
    for m in [uniform_pm1(), Triangular1D("increasing"), LinearTilt1D(0.2)]:
        assert chi_square_divergence(m, m) == pytest.approx(0.0, abs=1e-8)


def test_chi2_uniform_vs_step_closed_form():
    # alpha (1/(2 alpha) - 1)^2 + (1-alpha)(1/(2(1-alpha)) - 1)^2 = 1/3 at alpha=3/4
    val = chi_square_divergence(uniform_pm1(), step_density(0.75))
    assert val == pytest.approx(1.0 / 3.0, abs=1e-6)


def test_chi2_triangular_pair_infinite():
    t1, t2 = Triangular1D("increasing"), Triangular1D("decreasing")
    assert math.isinf(chi_square_divergence(t1, t2))
    assert math.isinf(chi_square_divergence(t2, t1))


def test_chi2_interior_zero_detected():
    degenerate = PiecewiseConstant1D([-1.0, 0.0, 1.0], [0.0, 1.0])
    assert math.isinf(chi_square_divergence(uniform_pm1(), degenerate))


@pytest.mark.parametrize("gap", [1e-6, 1e-3])
def test_chi2_thin_zero_end_segment_detected(gap):
    # q is 0 on an end segment thinner than the interior probe's margin
    p = UniformBox(BoxSupport((0.0,), (1.0,)))
    low = PiecewiseConstant1D([0.0, gap, 1.0], [0.0, 1.0 / (1.0 - gap)])
    high = PiecewiseConstant1D([0.0, 1.0 - gap, 1.0], [1.0 / (1.0 - gap), 0.0])
    assert math.isinf(chi_square_divergence(p, low))
    assert math.isinf(chi_square_divergence(p, high))


def test_chi2_support_mismatch():
    with pytest.raises(SupportMismatch):
        chi_square_divergence(uniform_pm1(), Triangular1D("increasing"))


def test_chi2_product_identity_two_dims():
    sup = BoxSupport((-2.0, -2.0), (2.0, 2.0))
    tn = TruncatedNormalDiag(sup, [1.0, 1.0], [1.0, 1.0])
    u = UniformBox(sup)
    joint = chi_square_divergence(tn, u)
    f = tn.factors[0]
    one_d, _ = quad(lambda x: float(f.pdf1(x)) ** 2 * 4.0, -2.0, 2.0)
    expected = (1.0 + (one_d - 1.0)) ** 2 - 1.0
    assert joint == pytest.approx(expected, rel=1e-6)


def test_chi2_non_negative_across_menu():
    models = [uniform_pm1(), step_density(0.3), step_density(0.6)]
    for p in models:
        for q in models:
            assert chi_square_divergence(p, q) >= -1e-8


# ---------------------------------------------------------------------------
# fidelity tails and certificates
# ---------------------------------------------------------------------------


def test_tail_identical_above_one_is_zero():
    assert fidelity_tail_probability(uniform_pm1(), uniform_pm1(), 1.5) == 0.0


@pytest.mark.parametrize("C", [math.nan, math.inf, 0.0, -1.0])
def test_tail_rejects_threshold_that_is_not_finite_and_positive(C):
    with pytest.raises(ValueError):
        fidelity_tail_probability(Triangular1D("increasing"), Triangular1D("decreasing"), C)


def test_tail_triangular_matches_closed_form():
    t1, t2 = Triangular1D("increasing"), Triangular1D("decreasing")
    assert fidelity_tail_probability(t1, t2, 1.0) == pytest.approx(0.75, abs=1e-6)
    assert fidelity_tail_probability(t1, t2, 10.0) == pytest.approx(21.0 / 121.0, abs=1e-6)


def test_tail_triangular_full_grid_closed_form():
    t1, t2 = Triangular1D("increasing"), Triangular1D("decreasing")
    for C in default_c_grid():
        tail = fidelity_tail_probability(t1, t2, C)
        assert tail == pytest.approx(triangular_tail_closed_form(C), abs=1e-6)


def test_tail_monotone_nonincreasing_and_one_at_zero_plus():
    t1, t2 = Triangular1D("increasing"), Triangular1D("decreasing")
    grid = np.geomspace(1e-4, 100.0, 25)
    tails = [fidelity_tail_probability(t1, t2, c) for c in grid]
    assert all(tails[i] >= tails[i + 1] - 1e-9 for i in range(len(tails) - 1))
    assert tails[0] == pytest.approx(1.0, abs=1e-6)


def test_certificate_identical_v_is_one():
    cert = certify_fidelity_level(uniform_pm1(), uniform_pm1(), d=2.0)
    assert cert.V == pytest.approx(1.0, abs=1e-9)
    assert cert.worst_C == pytest.approx(1.0)
    # d = infinity facet: tails vanish for every C > 1
    for C in (1.0 + 1e-9, 2.0, 100.0):
        assert fidelity_tail_probability(uniform_pm1(), uniform_pm1(), C) == 0.0


def test_certificate_triangular_pair():
    cert = certify_fidelity_level(Triangular1D("increasing"), Triangular1D("decreasing"), d=1.0)
    assert 1.99 <= cert.V <= 2.0
    assert cert.attained_sup == cert.V


def test_certificate_satisfies_definition_inequality():
    pairs = [
        (Triangular1D("increasing"), Triangular1D("decreasing"), 1.0),
        (uniform_pm1(), step_density(0.75), 2.0),
        (LinearTilt1D(0.0), LinearTilt1D(0.5), 1.5),
    ]
    for p, q, d in pairs:
        cert = certify_fidelity_level(p, q, d=d)
        for C, tail in zip(cert.C_grid, cert.tails):
            assert tail <= cert.V * C**-d + 1e-9


def test_certificate_bounded_ratio_lemma_item2():
    # ratio of uniform to step_density(0.75) lies in [2/3, 2]
    p, q = uniform_pm1(), step_density(0.75)
    m2, m1 = 2.0, 2.0 / 3.0
    for d in (1.0, 3.0):
        cert = certify_fidelity_level(p, q, d=d)
        assert cert.V <= max(m2**d, m1**-d) + 1e-6


def test_certificate_invalid_inputs():
    with pytest.raises(InvalidGrid):
        certify_fidelity_level(uniform_pm1(), uniform_pm1(), d=1.0, C_grid=[])
    with pytest.raises(InvalidGrid):
        certify_fidelity_level(uniform_pm1(), uniform_pm1(), d=1.0, C_grid=[-1.0])
    with pytest.raises(InvalidD):
        certify_fidelity_level(uniform_pm1(), uniform_pm1(), d=0.0)
    for d in (math.nan, math.inf):
        with pytest.raises(InvalidD):
            certify_fidelity_level(uniform_pm1(), step_density(0.75), d=d)
    for grid in ([math.nan], [1.0, math.inf]):
        with pytest.raises(InvalidGrid):
            certify_fidelity_level(uniform_pm1(), step_density(0.75), d=1.0, C_grid=grid)


def test_certificate_json_shape():
    cert = certify_fidelity_level(uniform_pm1(), step_density(0.6), d=1.0)
    blob = cert.to_json_dict()
    assert set(blob) == {"d", "V", "grid"}
    assert set(blob["grid"][0]) == {"C", "tail", "bound"}


# one pair per density kind
KIND_PAIRS = {
    "trunc-normal": (
        TruncatedNormalDiag(BoxSupport((-2.0,), (2.0,)), [0.0], [1.0]),
        UniformBox(BoxSupport((-2.0,), (2.0,))),
    ),
    "tilt": (LinearTilt1D(-0.5), LinearTilt1D(0.5)),
    "triangular": (Triangular1D("increasing"), Triangular1D("decreasing")),
    # a zero-height segment: q/p is infinite on (0, 0.5)
    "piecewise": (
        PiecewiseConstant1D([-1.0, 0.0, 0.5, 1.0], [0.5, 0.0, 1.0]),
        PiecewiseConstant1D([-1.0, 0.0, 0.5, 1.0], [0.5, 0.5, 0.5]),
    ),
}


@pytest.mark.pins
@pytest.mark.parametrize(
    "kind, digest",
    [
        ("trunc-normal", "021248f2204a39e7ee91244eaf06925aaef50a01f48a83f0937a97e5458edbda"),
        ("tilt", "a038bc63bac679e58470456dc7eae8fb821f03cc9116c4d005b1831c78f8774a"),
        ("triangular", "120a0b8ef9896b5764337b19d1b674c3e8d04b1946b189eb2d1df4c1d0faedb7"),
        ("piecewise", "9b0ade447edcae0727dfd48690930f30ffa43232a9d934515966d9d924749dee"),
    ],
)
def test_certificate_bytes_pinned(kind, digest):
    """Golden pin: SHA-256 of the certificate JSON, recorded from the seeded code."""
    p, q = KIND_PAIRS[kind]
    blob = json.dumps(certify_fidelity_level(p, q, d=1.0).to_json_dict(), sort_keys=True)
    assert hashlib.sha256(blob.encode()).hexdigest() == digest


def _ratio_region_mass_scalar_reference(num, den, C):
    """The scalar-loop form of densities._ratio_region_mass, one gap call per probe point."""
    pieces = sorted(
        {num.a, num.b}
        | {k for k in num.knots() if num.a < k < num.b}
        | {k for k in den.knots() if num.a < k < num.b}
    )

    def gap(x):
        nv = float(num.pdf1(x))
        dv = float(den.pdf1(x))
        if nv <= 0.0:
            return -max(C * dv, 1e-300)
        if dv <= 0.0:
            return nv
        return nv - C * dv

    mass = 0.0
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        xs = np.linspace(lo, hi, 513)
        xs[0] = lo + (hi - lo) * 1e-12
        xs[-1] = hi - (hi - lo) * 1e-12
        signs = np.array([gap(x) for x in xs]) >= 0.0
        edges = [lo]
        for i in range(len(xs) - 1):
            if signs[i] != signs[i + 1]:
                try:
                    root = brentq(gap, xs[i], xs[i + 1], xtol=1e-14)
                except ValueError:
                    root = 0.5 * (xs[i] + xs[i + 1])
                edges.append(root)
        edges.append(hi)
        for i in range(len(edges) - 1):
            if gap(0.5 * (edges[i] + edges[i + 1])) >= 0.0:
                mass += float(num.cdf1(edges[i + 1]) - num.cdf1(edges[i]))
    return min(max(mass, 0.0), 1.0)


def test_ratio_region_mass_matches_scalar_reference():
    box = BoxSupport((-2.0,), (2.0,))
    pairs = [
        *KIND_PAIRS.values(),
        (TruncatedNormalDiag(box, [0.5], [0.5]), TruncatedNormalDiag(box, [-0.3], [2.0])),
    ]
    for p, q in pairs:
        for num, den in ((p.factors[0], q.factors[0]), (q.factors[0], p.factors[0])):
            for C in (0.3, 1.0, 2.5):
                assert _ratio_region_mass(num, den, C) == _ratio_region_mass_scalar_reference(num, den, C)


def test_tail_probability_tilt_closed_form():
    # p = Unif(0, 2), q has density (alpha (x - 1) + 1) / 2; both ratio regions are intervals
    alpha = 0.5
    p, q = LinearTilt1D(0.0), LinearTilt1D(alpha)
    cdf_q = lambda x: alpha * x * x / 4.0 + (1.0 - alpha) * x / 2.0
    for C in default_c_grid():
        x_p = np.clip(1.0 + (1.0 / C - 1.0) / alpha, 0.0, 2.0)
        x_q = np.clip(1.0 + (C - 1.0) / alpha, 0.0, 2.0)
        expected = max(x_p / 2.0, 1.0 - cdf_q(x_q))
        assert fidelity_tail_probability(p, q, C) == pytest.approx(expected, abs=1e-12)


# ---------------------------------------------------------------------------
# Lemma translations
# ---------------------------------------------------------------------------


def test_lemma1_chi2_to_fidelity():
    assert lemma1_chi2_to_fidelity(0.0, 0.0) == (1.0, 1.0)
    assert lemma1_chi2_to_fidelity(1.0 / 3.0, 1.0 / 3.0) == (4.0 / 3.0, 1.0)
    assert lemma1_chi2_to_fidelity(2.0, 5.0) == (6.0, 1.0)
    with pytest.raises(InfiniteDivergence):
        lemma1_chi2_to_fidelity(math.inf, 1.0)


def test_lemma1_fidelity_to_chi2_bound():
    assert lemma1_fidelity_to_chi2_bound(1.0, 2.0, 1.0) == pytest.approx(4.0)
    assert lemma1_fidelity_to_chi2_bound(2.0, 3.0, 2.0) == pytest.approx(1.0 + 4.0 / 3.0)
    with pytest.raises(InvalidD):
        lemma1_fidelity_to_chi2_bound(1.0, 1.0, 2.0)


@settings(max_examples=30, deadline=None)
@given(
    v=st.floats(0.1, 50.0),
    d=st.floats(1.1, 6.0),
    c=st.floats(1.0, 100.0),
)
def test_lemma1_bound_consistent_with_certified_pairs(v, d, c):
    val = lemma1_fidelity_to_chi2_bound(v, d, c)
    assert val >= (c - 1.0) ** 2


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------


def test_parse_density_variants():
    d = parse_density("uniform-box lower=-2,-2 upper=2,2")
    assert d.dim == 2 and d.pdf((0.0, 0.0)) == pytest.approx(1.0 / 16.0)
    d = parse_density("trunc-normal lower=-2 upper=2 mean=1 var=1")
    assert d.dim == 1
    d = parse_density("piecewise breaks=-1,0,1 heights=0.25,0.75")
    assert d.pdf(0.5) == pytest.approx(0.75)
    d = parse_density("tilt alpha=0.5")
    assert d.pdf(2.0) == pytest.approx(0.75)
    d = parse_density("triangular direction=decreasing")
    assert d.pdf(0.0) == pytest.approx(2.0)
    with pytest.raises(ValueError):
        parse_density("banana radius=1")


def test_densities_compare_and_hash_by_their_factors():
    # built separately from the same parameters, by constructor or by spec
    pairs = [
        (uniform_pm1(), parse_density("uniform-box lower=-1 upper=1")),
        (TruncatedNormalDiag(BoxSupport((-2.0, -2.0), (2.0, 2.0)), [1.0, 1.0], [1.0, 1.0]),
         parse_density("trunc-normal lower=-2,-2 upper=2,2 mean=1,1 var=1,1")),
        (PiecewiseConstant1D([-1.0, 0.0, 1.0], [0.25, 0.75]),
         parse_density("piecewise breaks=-1,0,1 heights=0.25,0.75")),
        (LinearTilt1D(0.4), LinearTilt1D(0.4)),
        (Triangular1D("increasing"), parse_density("triangular direction=increasing")),
    ]
    for p, q in pairs:
        assert p is not q and p == q and hash(p) == hash(q)
        assert len({p, q}) == 1
    # the name is a label, not part of the value
    assert DensityModel(uniform_pm1().factors, "other") == uniform_pm1()
    assert len({p for pair in pairs for p in pair}) == len(pairs)
    assert LinearTilt1D(0.4) != LinearTilt1D(0.2)
    assert Triangular1D("increasing") != Triangular1D("decreasing")
