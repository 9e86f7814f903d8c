"""Feature distributions with exact densities, sampling, chi-square divergence,
and (V,d)-fidelity certification.

All densities here are products of one-dimensional factors over a box support
(one-dimensional models are the single-factor case).  That structure gives
exact marginal moments, exact CDFs for sampling checks, and lets the
chi-square divergence of a pair factorize as ``chi2 + 1 = prod(chi2_i + 1)``.
"""

from __future__ import annotations

import functools
import math
import warnings
from dataclasses import dataclass, field
from typing import List

import numpy as np
from scipy.integrate import IntegrationWarning, quad
from scipy.optimize import brentq
from scipy.special import ndtr

from .datamodel import SeedSpec, parse_spec
from .errors import (
    InfiniteDivergence,
    InvalidD,
    InvalidGrid,
    RejectionBudgetExceeded,
    SupportMismatch,
    UnsupportedQuadrature,
)

_MIN_ACCEPTANCE = 1e-4


@dataclass(frozen=True)
class BoxSupport:
    """Axis-aligned box with finite bounds; lower[i] < upper[i] for every
    coordinate."""

    lower: tuple
    upper: tuple

    def __post_init__(self):
        lo = tuple(float(v) for v in self.lower)
        hi = tuple(float(v) for v in self.upper)
        if len(lo) != len(hi):
            raise ValueError("lower and upper must have equal length")
        # written so that a NaN bound fails it; an infinite width fails too
        if not all(0.0 < u - l < math.inf for l, u in zip(lo, hi)):
            raise ValueError(f"need finite lower < upper and a finite width coordinatewise, got {lo} vs {hi}")
        object.__setattr__(self, "lower", lo)
        object.__setattr__(self, "upper", hi)

    @property
    def dim(self) -> int:
        return len(self.lower)

    def corners(self) -> np.ndarray:
        """All 2^p corner points, shape (2^p, p)."""
        p = self.dim
        out = np.empty((2**p, p))
        for j in range(p):
            block = 2**j
            col = np.tile(np.repeat([self.lower[j], self.upper[j]], block), 2 ** (p - j - 1))
            out[:, j] = col
        return out



# ---------------------------------------------------------------------------
# One-dimensional factors
# ---------------------------------------------------------------------------


class Marginal1D:
    """One-dimensional factor on [a, b]: pdf1, cdf1, mean, variance and
    sample1(n, rng)."""

    a: float
    b: float

    def knots(self) -> List[float]:
        """Interior points where the pdf is non-smooth."""
        return []


@dataclass(frozen=True)
class _Uniform1D(Marginal1D):
    a: float
    b: float

    def pdf1(self, x):
        x = np.asarray(x, dtype=float)
        return np.where((x >= self.a) & (x <= self.b), 1.0 / (self.b - self.a), 0.0)

    def cdf1(self, x):
        x = np.asarray(x, dtype=float)
        return np.clip((x - self.a) / (self.b - self.a), 0.0, 1.0)

    def mean(self):
        return 0.5 * (self.a + self.b)

    def variance(self):
        return (self.b - self.a) ** 2 / 12.0

    def sample1(self, n, rng):
        return rng.uniform(self.a, self.b, size=n)


@dataclass(frozen=True)
class _TruncNormal1D(Marginal1D):
    a: float
    b: float
    m: float
    var: float

    def __post_init__(self):
        if self.var <= 0:
            raise ValueError("variance must be positive")
        # far enough into a tail, ndtr underflows and the density has no scale
        if not self._mass() >= np.finfo(float).tiny:
            raise ValueError(f"truncated normal N({self.m}, {self.var}) has no representable mass on "
                             f"[{self.a}, {self.b}]")

    @property
    def _s(self):
        return math.sqrt(self.var)

    def _std_bounds(self):
        return (self.a - self.m) / self._s, (self.b - self.m) / self._s

    def _mass(self):
        alpha, beta = self._std_bounds()
        if alpha > 0.0:
            # both bounds in the upper tail: ndtr(beta) - ndtr(alpha) cancels
            return float(ndtr(-alpha) - ndtr(-beta))
        return float(ndtr(beta) - ndtr(alpha))

    def pdf1(self, x):
        x = np.asarray(x, dtype=float)
        z = (x - self.m) / self._s
        raw = np.exp(-0.5 * z * z) / (self._s * math.sqrt(2 * math.pi) * self._mass())
        return np.where((x >= self.a) & (x <= self.b), raw, 0.0)

    def cdf1(self, x):
        x = np.asarray(x, dtype=float)
        alpha, _ = self._std_bounds()
        z = (x - self.m) / self._s
        below = ndtr(-alpha) - ndtr(-z) if alpha > 0.0 else ndtr(z) - ndtr(alpha)
        val = below / self._mass()
        return np.clip(val, 0.0, 1.0)

    def mean(self):
        alpha, beta = self._std_bounds()
        z = self._mass()
        phi = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
        return self.m + self._s * (phi(alpha) - phi(beta)) / z

    def variance(self):
        alpha, beta = self._std_bounds()
        z = self._mass()
        phi = lambda t: math.exp(-0.5 * t * t) / math.sqrt(2 * math.pi)
        delta = (phi(alpha) - phi(beta)) / z
        return self.var * (1.0 + (alpha * phi(alpha) - beta * phi(beta)) / z - delta**2)

    def sample1(self, n, rng):
        accept = self._mass()
        if accept < _MIN_ACCEPTANCE:
            raise RejectionBudgetExceeded(
                f"truncated-normal acceptance rate {accept:.2e} below {_MIN_ACCEPTANCE}"
            )
        out = np.empty(n)
        got = 0
        while got < n:
            batch = max(int((n - got) / accept * 1.2) + 16, 16)
            draws = rng.normal(self.m, self._s, size=batch)
            keep = draws[(draws >= self.a) & (draws <= self.b)]
            take = min(n - got, keep.shape[0])
            out[got : got + take] = keep[:take]
            got += take
        return out


@dataclass(frozen=True)
class _Piecewise1D(Marginal1D):
    breakpoints: tuple
    heights: tuple

    def __post_init__(self):
        br = tuple(float(v) for v in self.breakpoints)
        hs = tuple(float(v) for v in self.heights)
        if len(br) != len(hs) + 1:
            raise ValueError("need len(breakpoints) == len(heights) + 1")
        if any(br[i] >= br[i + 1] for i in range(len(hs))):
            raise ValueError("breakpoints must be strictly increasing")
        # both tests are written so that a NaN height or breakpoint fails them
        if not all(h >= 0 for h in hs):
            raise ValueError("heights must be non-negative")
        total = sum(h * (br[i + 1] - br[i]) for i, h in enumerate(hs))
        if not abs(total - 1.0) <= 1e-9:
            raise ValueError(f"segment probabilities sum to {total}, expected 1")
        object.__setattr__(self, "breakpoints", br)
        object.__setattr__(self, "heights", hs)

    @property
    def a(self):
        return self.breakpoints[0]

    @property
    def b(self):
        return self.breakpoints[-1]

    def pdf1(self, x):
        x = np.asarray(x, dtype=float)
        idx = np.clip(np.searchsorted(self.breakpoints, x, side="right") - 1, 0, len(self.heights) - 1)
        vals = np.asarray(self.heights)[idx]
        return np.where((x >= self.a) & (x <= self.b), vals, 0.0)

    def cdf1(self, x):
        x = np.asarray(x, dtype=float)
        br = np.asarray(self.breakpoints)
        hs = np.asarray(self.heights)
        cum = np.concatenate([[0.0], np.cumsum(hs * np.diff(br))])
        idx = np.clip(np.searchsorted(br, x, side="right") - 1, 0, len(hs) - 1)
        val = cum[idx] + hs[idx] * (np.clip(x, self.a, self.b) - br[idx])
        return np.clip(val, 0.0, 1.0)

    def mean(self):
        br = np.asarray(self.breakpoints)
        hs = np.asarray(self.heights)
        return float(np.sum(hs * (br[1:] ** 2 - br[:-1] ** 2) / 2.0))

    def variance(self):
        br = np.asarray(self.breakpoints)
        hs = np.asarray(self.heights)
        ex2 = float(np.sum(hs * (br[1:] ** 3 - br[:-1] ** 3) / 3.0))
        return ex2 - self.mean() ** 2

    def knots(self):
        return list(self.breakpoints[1:-1])

    def sample1(self, n, rng):
        """Inverse CDF: a uniform u picks the segment by cumulative mass, then
        a point uniformly within it.  The segment is the number of cut points
        ``cum[:-1]`` at or below u, which is ``searchsorted(cum, u,
        side="right")`` clipped to the last segment; a tie goes to the segment
        above.  The point is ``(u - prev) / mass * width + left end``, with the
        fraction 0 in a zero-mass segment, computed in place in one buffer."""
        br = np.asarray(self.breakpoints)
        width = np.diff(br)
        masses = np.asarray(self.heights) * width
        cum = np.cumsum(masses)
        u = rng.random(n)
        idx = np.zeros(n, dtype=np.intp)
        for c in cum[:-1]:
            idx += u >= c
        buf = np.concatenate([[0.0], cum]).take(idx)
        u -= buf
        # idx is in range, so mode="clip" changes nothing; it spares the
        # copy that take buffers its out= through under the default mode
        masses.take(idx, out=buf, mode="clip")
        np.divide(u, buf, out=u, where=buf > 0)
        u[buf <= 0] = 0.0
        u *= width.take(idx, out=buf, mode="clip")
        u += br.take(idx, out=buf, mode="clip")
        return u


@dataclass(frozen=True)
class _LinearTilt1D(Marginal1D):
    """Density (alpha*(x-1) + 1) / 2 on [0, 2]; alpha = 0 is Unif(0, 2)."""

    alpha: float

    def __post_init__(self):
        if not -1.0 <= self.alpha <= 1.0:
            raise ValueError("tilt slope must lie in [-1, 1] for a valid density")

    a: float = field(default=0.0, init=False)
    b: float = field(default=2.0, init=False)

    def pdf1(self, x):
        x = np.asarray(x, dtype=float)
        raw = (self.alpha * (x - 1.0) + 1.0) / 2.0
        return np.where((x >= 0.0) & (x <= 2.0), raw, 0.0)

    def cdf1(self, x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 2.0)
        return self.alpha * x * x / 4.0 + (1.0 - self.alpha) * x / 2.0

    def mean(self):
        return 1.0 + self.alpha / 3.0

    def variance(self):
        return 1.0 / 3.0 - self.alpha**2 / 9.0

    def sample1(self, n, rng):
        u = rng.random(n)
        if self.alpha == 0.0:
            return 2.0 * u
        # solve alpha x^2/4 + (1-alpha) x/2 = u for x in [0, 2]
        aa = self.alpha / 4.0
        bb = (1.0 - self.alpha) / 2.0
        return (-bb + np.sqrt(bb * bb + 4.0 * aa * u)) / (2.0 * aa)


@dataclass(frozen=True)
class _Triangular1D(Marginal1D):
    """Density 2x (increasing) or 2-2x (decreasing) on [0, 1]."""

    increasing: bool

    a: float = field(default=0.0, init=False)
    b: float = field(default=1.0, init=False)

    def pdf1(self, x):
        x = np.asarray(x, dtype=float)
        raw = 2.0 * x if self.increasing else 2.0 - 2.0 * x
        return np.where((x >= 0.0) & (x <= 1.0), raw, 0.0)

    def cdf1(self, x):
        x = np.clip(np.asarray(x, dtype=float), 0.0, 1.0)
        return x * x if self.increasing else 1.0 - (1.0 - x) ** 2

    def mean(self):
        return 2.0 / 3.0 if self.increasing else 1.0 / 3.0

    def variance(self):
        return 1.0 / 18.0

    def sample1(self, n, rng):
        u = rng.random(n)
        return np.sqrt(u) if self.increasing else 1.0 - np.sqrt(1.0 - u)


# ---------------------------------------------------------------------------
# Product densities over a box
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class DensityModel:
    """Product density over a box support, built from 1-d factors.  Two
    densities are equal, and hash equal, when their factors are."""

    factors: tuple
    name: str = field(compare=False)
    support: BoxSupport = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        object.__setattr__(self, "factors", tuple(self.factors))
        object.__setattr__(self, "support", BoxSupport(tuple(f.a for f in self.factors),
                                                       tuple(f.b for f in self.factors)))

    @property
    def dim(self) -> int:
        return len(self.factors)

    def pdf(self, x):
        """Density at a point (shape (p,)) or at rows of a matrix (n, p).

        One-dimensional models also accept scalars and 1-d arrays of points.
        """
        x = np.asarray(x, dtype=float)
        if self.dim == 1:
            scalar = x.ndim == 0
            pts = np.atleast_1d(x.reshape(-1))
            out = self.factors[0].pdf1(pts)
            return float(out[0]) if scalar else out
        single = x.ndim == 1
        X = np.atleast_2d(x)
        if X.shape[1] != self.dim:
            raise ValueError(f"expected points of dimension {self.dim}, got {X.shape[1]}")
        out = np.ones(X.shape[0])
        for j, f in enumerate(self.factors):
            out *= f.pdf1(X[:, j])
        return float(out[0]) if single else out

    def sample(self, n: int, seed: SeedSpec) -> np.ndarray:
        """Draw n rows; every row lies inside the support box."""
        if n < 1:
            raise ValueError("n must be >= 1")
        rng = seed.rng()
        if self.dim == 1:
            return self.factors[0].sample1(n, rng).reshape(n, 1)
        out = np.empty((n, self.dim))
        for j, f in enumerate(self.factors):
            out[:, j] = f.sample1(n, rng)
        return out

    def coordinate_variances(self) -> np.ndarray:
        return np.array([f.variance() for f in self.factors])


def UniformBox(support: BoxSupport) -> DensityModel:
    factors = [_Uniform1D(a, b) for a, b in zip(support.lower, support.upper)]
    return DensityModel(factors, "uniform-box")


def TruncatedNormalDiag(support: BoxSupport, mean, variances) -> DensityModel:
    mean = np.asarray(mean, dtype=float)
    variances = np.asarray(variances, dtype=float)
    if mean.shape[0] != support.dim or variances.shape[0] != support.dim:
        raise ValueError("mean and variances must match the support dimension")
    factors = [
        _TruncNormal1D(a, b, m, v)
        for a, b, m, v in zip(support.lower, support.upper, mean, variances)
    ]
    return DensityModel(factors, "trunc-normal")


def PiecewiseConstant1D(breakpoints, heights) -> DensityModel:
    return DensityModel([_Piecewise1D(tuple(breakpoints), tuple(heights))], "piecewise")


def LinearTilt1D(alpha: float) -> DensityModel:
    return DensityModel([_LinearTilt1D(alpha)], "tilt")


def Triangular1D(direction: str) -> DensityModel:
    if direction not in ("increasing", "decreasing"):
        raise ValueError("direction must be 'increasing' or 'decreasing'")
    return DensityModel([_Triangular1D(direction == "increasing")], "triangular")


def _check_compatible(p: DensityModel, q: DensityModel):
    if p.dim != q.dim:
        raise SupportMismatch(f"dimension mismatch: {p.dim} vs {q.dim}")
    if not (
        np.allclose(p.support.lower, q.support.lower)
        and np.allclose(p.support.upper, q.support.upper)
    ):
        raise SupportMismatch(
            f"supports differ: {p.support.lower}-{p.support.upper} vs "
            f"{q.support.lower}-{q.support.upper}"
        )


# ---------------------------------------------------------------------------
# chi-square divergence
# ---------------------------------------------------------------------------


def _quad_ratio(pf: Marginal1D, qf: Marginal1D, lo: float, hi: float) -> float:
    """Integral of p^2/q over [lo, hi] (integrand taken as 0 where p = 0)."""

    def integrand(x):
        pv = float(pf.pdf1(x))
        if pv == 0.0:
            return 0.0
        qv = float(qf.pdf1(x))
        if qv <= 0.0:
            return 0.0  # divergence handled separately by the detection rules
        return pv * pv / qv

    pts = [k for k in set(pf.knots()) | set(qf.knots()) if lo < k < hi]
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", IntegrationWarning)
        val, _ = quad(integrand, lo, hi, points=sorted(pts) or None, limit=200)
    return val


# factors compare by value; a sweep asks for the same few pairs again and
# again (each bound of each unit); a pool worker inherits this cache only
# under the fork start method, and otherwise fills its own
@functools.lru_cache(maxsize=128)
def _chi2_1d(pf: Marginal1D, qf: Marginal1D) -> float:
    a, b = pf.a, pf.b
    width = b - a
    # interior zeros of q where p has mass make the divergence infinite
    probe = np.linspace(a + 1e-9 * width, b - 1e-9 * width, 4097)
    probe = np.unique(np.concatenate([probe, np.asarray(pf.knots() + qf.knots(), dtype=float)]))
    pv = pf.pdf1(probe)
    qv = qf.pdf1(probe)
    interior = (probe > a + 1e-6 * width) & (probe < b - 1e-6 * width)
    # a segment between knots, ends included, thinner than the probe spacing
    # shows its zero only at its midpoint
    edges = np.unique(np.clip([a, b, *pf.knots(), *qf.knots()], a, b))
    mids = 0.5 * (edges[:-1] + edges[1:])
    if np.any(interior & (qv <= 1e-300) & (pv > 1e-12)) or np.any(
        (qf.pdf1(mids) <= 1e-300) & (pf.pdf1(mids) > 1e-12)
    ):
        return math.inf

    # every density here is bounded and continuous up to its ends, so p^2/q
    # can only blow up at an end where q is 0.  There, refine toward the
    # boundary; a running integral that keeps doubling across three
    # refinements signals a divergent boundary layer (eps0 must be wide
    # enough that the base integral is small relative to any divergent layer,
    # else log-divergence never doubles).  Elsewhere the test would misread
    # p's mass inside the outer layer as a divergence
    if min(float(qf.pdf1(a)), float(qf.pdf1(b))) <= 0.0:
        eps0 = width * 0.05
        running = []
        for k in range(9):
            eps = eps0 * 4.0**-k
            running.append(_quad_ratio(pf, qf, a + eps, b - eps))
        for k in range(len(running) - 3):
            base = max(running[k], 1e-12)
            if running[k + 3] > 2.0 * base:
                return math.inf

    value = _quad_ratio(pf, qf, a, b) - 1.0
    return max(value, 0.0)


def chi_square_divergence(p: DensityModel, q: DensityModel) -> float:
    """chi^2(p || q) = integral of q (p/q - 1)^2; may be math.inf.

    Both densities must share the same box support.  Multidimensional inputs
    must be product densities (all models here are), in which case
    ``chi2 + 1 = prod_i (chi2_i + 1)`` over coordinates.
    """
    _check_compatible(p, q)
    log_one_plus = 0.0
    for pf, qf in zip(p.factors, q.factors):
        ci = _chi2_1d(pf, qf)
        if math.isinf(ci):
            return math.inf
        log_one_plus += math.log1p(ci)
    return math.expm1(log_one_plus)


# ---------------------------------------------------------------------------
# (V,d)-fidelity level
# ---------------------------------------------------------------------------


def _ratio_region_mass(num: Marginal1D, den: Marginal1D, C: float) -> float:
    """Mass under `num` of the region {x : num(x)/den(x) >= C}."""
    pieces = sorted(
        {num.a, num.b}
        | {k for k in num.knots() if num.a < k < num.b}
        | {k for k in den.knots() if num.a < k < num.b}
    )

    def gap(x):
        # elementwise; >= 0 exactly where the ratio is >= C (with num > 0
        # required), and +num where den = 0 (ratio = +inf)
        nv = num.pdf1(x)
        dv = den.pdf1(x)
        return np.where(nv <= 0.0, -np.maximum(C * dv, 1e-300), np.where(dv <= 0.0, nv, nv - C * dv))

    mass = 0.0
    for lo, hi in zip(pieces[:-1], pieces[1:]):
        xs = np.linspace(lo, hi, 513)
        # evaluate slightly inside to dodge boundary pdf zeros
        xs[0] = lo + (hi - lo) * 1e-12
        xs[-1] = hi - (hi - lo) * 1e-12
        signs = gap(xs) >= 0.0
        # locate boundaries of the in-region set within this piece
        edges = [lo]
        for i in np.flatnonzero(signs[:-1] != signs[1:]):
            try:
                root = brentq(lambda x: float(gap(x)), xs[i], xs[i + 1], xtol=1e-14)
            except ValueError:
                root = 0.5 * (xs[i] + xs[i + 1])
            edges.append(root)
        edges.append(hi)
        for i in range(len(edges) - 1):
            mid = 0.5 * (edges[i] + edges[i + 1])
            if gap(mid) >= 0.0:
                mass += float(num.cdf1(edges[i + 1]) - num.cdf1(edges[i]))
    return min(max(mass, 0.0), 1.0)


def fidelity_tail_probability(p: DensityModel, q: DensityModel, C: float) -> float:
    """max of P_p(p/q >= C) and P_q(q/p >= C) for a finite threshold C > 0."""
    if not (math.isfinite(C) and C > 0):
        raise ValueError("C must be finite and positive")
    _check_compatible(p, q)
    if p == q:
        return 1.0 if C <= 1.0 else 0.0
    if p.dim != 1:
        raise UnsupportedQuadrature(
            "ratio-region quadrature is implemented for one-dimensional densities"
        )
    (pf,), (qf,) = p.factors, q.factors
    return max(_ratio_region_mass(pf, qf, C), _ratio_region_mass(qf, pf, C))


@dataclass(frozen=True)
class FidelityCertificate:
    """Grid-restricted (V,d)-fidelity certificate.

    V is the smallest constant such that both directional ratio-tail
    probabilities are bounded by V * C^-d at every grid threshold; the
    supremum is taken over the finite grid only, which the serialized
    form documents explicitly.
    """

    d: float
    V: float
    C_grid: tuple
    tails: tuple
    worst_C: float
    attained_sup: float

    def bound_at(self, C: float) -> float:
        return self.V * C**-self.d

    def to_json_dict(self) -> dict:
        return {
            "d": self.d,
            "V": self.V,
            "grid": [
                {"C": c, "tail": t, "bound": self.bound_at(c)}
                for c, t in zip(self.C_grid, self.tails)
            ],
        }


def default_c_grid() -> np.ndarray:
    """64 log-spaced levels C from 1e-2 to 1e4."""
    exponents = np.linspace(-2.0, 4.0, 64)
    exponents[np.abs(exponents) < 1e-12] = 0.0
    return 10.0**exponents


def certify_fidelity_level(
    p: DensityModel, q: DensityModel, d: float, C_grid=None
) -> FidelityCertificate:
    """Certify the minimal grid-restricted V for a given decay exponent d."""
    if not (math.isfinite(d) and d > 0):
        raise InvalidD(f"d must be finite and positive, got {d}")
    if C_grid is None:
        C_grid = default_c_grid()
    C_grid = np.asarray(C_grid, dtype=float)
    if C_grid.size == 0 or not np.all(np.isfinite(C_grid) & (C_grid > 0)):
        raise InvalidGrid("C_grid must be non-empty, finite and strictly positive")
    tails = np.array([fidelity_tail_probability(p, q, c) for c in C_grid])
    scores = C_grid**d * tails
    i = int(np.argmax(scores))
    V = float(scores[i])
    return FidelityCertificate(
        d=float(d),
        V=V,
        C_grid=tuple(float(c) for c in C_grid),
        tails=tuple(float(t) for t in tails),
        worst_C=float(C_grid[i]),
        attained_sup=V,
    )


def lemma1_chi2_to_fidelity(chi2_pq: float, chi2_qp: float) -> tuple:
    """Finite chi-square divergences in both directions give a (max+1, 1) level."""
    if math.isinf(chi2_pq) or math.isinf(chi2_qp):
        raise InfiniteDivergence("both divergences must be finite")
    if chi2_pq < 0 or chi2_qp < 0:
        raise ValueError("chi-square divergences must be non-negative")
    return (max(chi2_pq, chi2_qp) + 1.0, 1.0)


def lemma1_fidelity_to_chi2_bound(V: float, d: float, C: float) -> float:
    """Upper bound on max of the two chi-square divergences from a (V,d) level.

    Valid for d > 1 and any C >= 1; the bound is (C-1)^2 + V 2^d / (C^{d-1} (2^{d-1}-1)).
    """
    if d <= 1:
        raise InvalidD(f"d must exceed 1, got {d}")
    if C < 1:
        raise ValueError("C must be >= 1")
    return (C - 1.0) ** 2 + V * 2.0**d / (C ** (d - 1.0)) / (2.0 ** (d - 1.0) - 1.0)


# ---------------------------------------------------------------------------
# Config-format parsing
# ---------------------------------------------------------------------------


def _floats(text: str) -> List[float]:
    return [float(v) for v in text.split(",")]


def _box(lower: str, upper: str) -> BoxSupport:
    return BoxSupport(tuple(_floats(lower)), tuple(_floats(upper)))


# variant -> (its keys, every one required; constructor taking their values)
_DENSITY_SPECS = {
    "uniform-box": (("lower", "upper"), lambda lo, hi: UniformBox(_box(lo, hi))),
    "trunc-normal": (
        ("lower", "upper", "mean", "var"),
        lambda lo, hi, mean, var: TruncatedNormalDiag(_box(lo, hi), _floats(mean), _floats(var)),
    ),
    "piecewise": (("breaks", "heights"), lambda b, h: PiecewiseConstant1D(_floats(b), _floats(h))),
    "tilt": (("alpha",), lambda alpha: LinearTilt1D(float(alpha))),
    "triangular": (("direction",), Triangular1D),
}


def parse_density(text: str) -> DensityModel:
    """Parse a density spec string: variant name followed by key=value pairs.

    Examples::

        uniform-box lower=-2,-2 upper=2,2
        trunc-normal lower=-4,-4 upper=4,4 mean=0,0 var=1,1
        piecewise breaks=-1,0,1 heights=0.25,0.75
        tilt alpha=0.3
        triangular direction=increasing
    """
    kind = (text.split() or [""])[0]
    if kind not in _DENSITY_SPECS:
        raise ValueError(f"unknown density variant {kind!r}")
    keys, build = _DENSITY_SPECS[kind]
    _, args = parse_spec(text, keys)
    missing = [k for k in keys if k not in args]
    if missing:
        raise ValueError(f"{kind} requires {', '.join(f'{k}=' for k in missing)}")
    return build(*(args[k] for k in keys))
