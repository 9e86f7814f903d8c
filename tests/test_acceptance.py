"""Acceptance suite: every criterion runs at its stated tolerance and prints
one PASS/FAIL line (run with ``pytest -s tests/test_acceptance.py`` to see
them while running)."""

import math
import time

import numpy as np
import pytest
from reference import _rows_sha

from syndatum.densities import (
    PiecewiseConstant1D,
    Triangular1D,
    BoxSupport,
    UniformBox,
    certify_fidelity_level,
    chi_square_divergence,
    default_c_grid,
    fidelity_tail_probability,
)
from syndatum.harness import run_builtin, summarize

WORKERS = 2
TOY_ALPHAS = (0.1, 0.3, 0.5, 0.75, 0.9)
# golden pins: SHA-256 of each builtin's rows.csv at the scale its criterion runs
ROWS_SHA = {
    "fig3": "e6979b6c649af6dc5b8475f1ae81f0d9a85edfb66c1f8b2caf957275099cb0c9",
    "fig4": "2fee98de0ccf6351cef7b854bac3d583918646adac4ae08a3bbe9a0a67d618a7",
    "figS1-linear": "1445e9cff67e9585506640c5c2adefbb54d08746158725b9ad222439a68e7243",
    "figS1-logistic": "46a210ce891aca31baafbc5e91cb0f1392f91a19ec59b06c98247eb58a986a39",
    "bound-suite": "3473a3a4d9983ff09220faba4d0971450fee4f3f1460e3a8aed9d5b1b3eae3e2",
}


def _report(criterion: str, ok: bool, detail: str):
    print(f"\n[{'PASS' if ok else 'FAIL'}] {criterion}: {detail}")
    assert ok, f"{criterion}: {detail}"


def _means(rows, metric):
    out = {}
    for g in summarize([r for r in rows if r.metric_name == metric]):
        out[(g["scenario"], g["n"], g["estimator"], g["model_class"])] = g["mean"]
    return out


def _timed(fn, *args, **kwargs):
    t0 = time.time()
    result = fn(*args, **kwargs)
    return result, time.time() - t0


def test_criterion_1_toy51_closed_form_regression_utility():
    rows, elapsed = _timed(run_builtin, "toy-5.1")
    errors = []
    for alpha in TOY_ALPHAS:
        (value,) = [
            r.value
            for r in rows
            if r.scenario == f"toy-5.1[alpha={alpha:g}]" and r.metric_name == "utility"
        ]
        expected = (2.0 * alpha - 1.0) ** 2 / 3.0
        errors.append(abs(value - expected))
    ok = max(errors) <= 0.01 and elapsed < 30.0
    _report(
        "criterion 1 (toy-5.1 vs (2a-1)^2/3)",
        ok,
        f"max |U - closed form| = {max(errors):.4f} (tol 0.01), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_2_toy_s1_closed_form_classification_utility():
    rows, elapsed = _timed(run_builtin, "toy-S.1")
    errors = []
    for alpha in TOY_ALPHAS:
        (value,) = [
            r.value
            for r in rows
            if r.scenario == f"toy-S.1[alpha={alpha:g}]" and r.metric_name == "utility"
        ]
        errors.append(abs(value - abs(2.0 * alpha - 1.0)))
    ok = max(errors) <= 0.02 and elapsed < 30.0
    _report(
        "criterion 2 (toy-S.1 vs |2a-1|)",
        ok,
        f"max |U - closed form| = {max(errors):.4f} (tol 0.02), {elapsed:.1f}s (< 30s)",
    )


def test_criterion_3_toy61_inconsistent_comparison():
    rows, elapsed = _timed(run_builtin, "toy-6.1")

    def val(scenario, model_class, metric):
        (v,) = [
            r.value
            for r in rows
            if r.scenario == scenario and r.model_class == model_class and r.metric_name == metric
        ]
        return v

    reg = "toy-6.1-regression"
    cls = "toy-6.1-classification"
    checks = {
        "reg coef_real F1": (val(reg, "F1", "coef_real"), -1.0 / 3.0),
        "reg coef_real F2": (val(reg, "F2", "coef_real"), -0.25),
        "reg coef_synth F1": (val(reg, "F1", "coef_synth"), 1.0 / 3.0),
        "reg coef_synth F2": (val(reg, "F2", "coef_synth"), 0.25),
        "cls coef_real G1": (val(cls, "G1", "coef_real"), 0.0),
        "cls coef_real G2": (val(cls, "G2", "coef_real"), 0.25),
        "cls coef_synth G1": (val(cls, "G1", "coef_synth"), 0.5),
        "cls coef_synth G2": (val(cls, "G2", "coef_synth"), 1.0 / 3.0),
    }
    worst = max(abs(got - want) for got, want in checks.values())
    inconsistent = (
        val(reg, "pair", "consistent") == 0.0 and val(cls, "pair", "consistent") == 0.0
    )
    ok = worst <= 0.01 and inconsistent and elapsed < 60.0
    _report(
        "criterion 3 (toy-6.1 optima and inconsistency)",
        ok,
        f"max optimum error = {worst:.4f} (tol 0.01), consistent=False both: {inconsistent}, "
        f"{elapsed:.1f}s (< 60s)",
    )


def test_criterion_4_fidelity_numerics():
    t0 = time.time()
    uniform = UniformBox(BoxSupport((-1.0,), (1.0,)))
    step = PiecewiseConstant1D([-1.0, 0.0, 1.0], [0.25, 0.75])
    chi2 = chi_square_divergence(uniform, step)
    tri_inc, tri_dec = Triangular1D("increasing"), Triangular1D("decreasing")
    tri_chi2 = chi_square_divergence(tri_inc, tri_dec)
    cert = certify_fidelity_level(tri_inc, tri_dec, d=1.0)
    grid = default_c_grid()
    tail_err = max(
        abs(fidelity_tail_probability(tri_inc, tri_dec, C) - (1 + 2 * C) / (1 + C) ** 2)
        for C in grid
    )
    elapsed = time.time() - t0
    ok = (
        abs(chi2 - 1.0 / 3.0) <= 1e-6
        and math.isinf(tri_chi2)
        and 1.99 <= cert.V <= 2.00
        and tail_err <= 1e-6
        and elapsed < 10.0
    )
    _report(
        "criterion 4 (fidelity numerics)",
        ok,
        f"chi2 err {abs(chi2 - 1/3):.2e}, triangular chi2 inf: {math.isinf(tri_chi2)}, "
        f"V = {cert.V:.4f} in [1.99, 2], max tail err {tail_err:.2e}, {elapsed:.1f}s (< 10s)",
    )


@pytest.fixture(scope="module")
def fig3_rows():
    return _timed(run_builtin, "fig3", scale=4, workers=WORKERS)


@pytest.fixture(scope="module")
def fig4_rows():
    return _timed(run_builtin, "fig4", scale=4, workers=WORKERS)


@pytest.mark.pins
@pytest.mark.slow
def test_criterion_5_fig3_convergence_trend(fig3_rows, tmp_path):
    rows, elapsed = fig3_rows
    means = _means(rows, "utility")
    ns = sorted({k[1] for k in means})
    estimators = ("knn", "rf", "mlp", "oracle")
    classes = ("linear", "quadratic", "exp2")
    ratio_fail = []
    for e in estimators:
        for c in classes:
            first = means[("fig3", ns[0], e, c)]
            last = means[("fig3", ns[-1], e, c)]
            if not last <= 0.6 * first:
                ratio_fail.append((e, c, last / first))
    oracle_best_classes = sum(
        all(
            means[("fig3", n, "oracle", c)] <= min(means[("fig3", n, e, c)] for e in estimators[:3])
            for n in ns
        )
        for c in classes
    )
    ok = not ratio_fail and oracle_best_classes >= 2 and elapsed < 15 * 60
    _report(
        "criterion 5 (fig3 trend)",
        ok,
        f"all largest-n/smallest-n ratios <= 0.6: {not ratio_fail} {ratio_fail or ''}, "
        f"oracle lowest everywhere for {oracle_best_classes}/3 classes (need >= 2), "
        f"{elapsed:.0f}s (< 900s)",
    )
    assert _rows_sha(rows, tmp_path) == ROWS_SHA["fig3"]


@pytest.mark.pins
@pytest.mark.slow
def test_criterion_6_fig4_plateau(fig4_rows, tmp_path):
    rows, elapsed = fig4_rows
    means = _means(rows, "utility")
    ns = sorted({k[1] for k in means})
    top = ns[-1]
    f1 = means[("fig4", top, "oracle", "linear")]
    f2 = means[("fig4", top, "oracle", "quadratic")]
    f3 = means[("fig4", top, "oracle", "exp2")]
    correct_small = f3 < 0.2 * f1 and f3 < 0.2 * f2
    plateau = []
    for c in ("linear", "quadratic"):
        a = means[("fig4", ns[-2], "oracle", c)]
        b = means[("fig4", ns[-1], "oracle", c)]
        plateau.append(abs(a - b) / max(a, b))
    ok = correct_small and max(plateau) < 0.25 and elapsed < 15 * 60
    _report(
        "criterion 6 (fig4 plateau)",
        ok,
        f"F3 = {f3:.4f} vs 0.2*F1 = {0.2 * f1:.4f}, 0.2*F2 = {0.2 * f2:.4f}; "
        f"plateau rel diffs {['%.3f' % p for p in plateau]} (< 0.25), {elapsed:.0f}s (< 900s)",
    )
    assert _rows_sha(rows, tmp_path) == ROWS_SHA["fig4"]


def test_criterion_7_fig5_sign_structure():
    rows, elapsed = _timed(run_builtin, "fig5", scale=2, workers=WORKERS)
    classes = ("recip-cubic-0", "recip-cubic-1", "recip-cubic-2", "recip-cubic-3")

    # paired per-replication synthetic-vs-real risk differences at alpha = 0
    scen0 = "fig5[alpha=0.0]"
    within = []
    for c in classes:
        synth = {
            r.replication: r.value
            for r in rows
            if r.scenario == scen0 and r.model_class == c and r.metric_name == "risk_synth_trained"
        }
        real = {
            r.replication: r.value
            for r in rows
            if r.scenario == scen0 and r.model_class == c and r.metric_name == "risk_real_trained"
        }
        diffs = np.array([synth[k] - real[k] for k in sorted(synth)])
        se = diffs.std(ddof=1) / math.sqrt(len(diffs))
        within.append(abs(diffs.mean()) <= 3.0 * max(se, 1e-15))

    means = _means(rows, "risk_synth_trained")
    alphas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5]
    n_val = sorted({k[1] for k in means})[0]

    def mean_at(alpha, c):
        return means[(f"fig5[alpha={alpha:.1f}]", n_val, "oracle", c)]

    f3_lowest = all(
        mean_at(a, "recip-cubic-3") <= min(mean_at(a, c) for c in classes[:3]) for a in alphas
    )
    flip = (mean_at(0.0, "recip-cubic-1") < mean_at(0.0, "recip-cubic-0")) and (
        mean_at(0.5, "recip-cubic-1") > mean_at(0.5, "recip-cubic-0")
    )
    ok = all(within) and f3_lowest and flip and elapsed < 10 * 60
    _report(
        "criterion 7 (fig5 sign structure)",
        ok,
        f"alpha=0 synth==real within 3se: {within}, F3 lowest at every alpha: {f3_lowest}, "
        f"F1-vs-F0 flip at alpha=0.5: {flip}, {elapsed:.0f}s (< 600s)",
    )


@pytest.mark.pins
def test_criterion_8_bound_dominance_suite(tmp_path):
    rows, elapsed = _timed(run_builtin, "bound-suite")
    cases = {}
    for r in rows:
        cases.setdefault(r.scenario, {})[r.metric_name] = r.value
    assert len(cases) == 50
    violations = [
        name for name, c in cases.items()
        if not (c["bound_total"] + 4.0 * c["utility_std_error"] >= c["utility"])
    ]
    finite = all(math.isfinite(c["chi2"]) for c in cases.values())
    ok = not violations and finite and elapsed < 20 * 60
    _report(
        "criterion 8 (bound dominance, 50 scenarios)",
        ok,
        f"violations: {violations}, all chi2 finite: {finite}, {elapsed:.0f}s (< 1200s)",
    )
    assert _rows_sha(rows, tmp_path) == ROWS_SHA["bound-suite"]


@pytest.mark.pins
def test_criterion_9_figs1_convergence(tmp_path):
    t0 = time.time()
    results, digests = {}, {}
    for name in ("figS1-linear", "figS1-logistic"):
        rows = run_builtin(name, scale=2, workers=WORKERS)
        digests[name] = _rows_sha(rows, tmp_path)
        means = _means(rows, "utility")
        ns = sorted({k[1] for k in means})
        seq = [means[(name, n, rows[0].estimator, rows[0].model_class)] for n in ns]
        results[name] = seq
    elapsed = time.time() - t0
    ok = True
    details = []
    for name, seq in results.items():
        decreasing = all(a > b for a, b in zip(seq, seq[1:]))
        halved = seq[-1] < 0.5 * seq[0]
        ok = ok and decreasing and halved
        details.append(f"{name}: {'->'.join('%.4f' % v for v in seq)} dec={decreasing} half={halved}")
    ok = ok and elapsed < 20 * 60
    _report(
        "criterion 9 (figS1 convergence)", ok, "; ".join(details) + f", {elapsed:.0f}s (< 1200s)"
    )
    assert digests == {name: ROWS_SHA[name] for name in digests}


def test_criterion_10_consistency_validation():
    rows, elapsed = _timed(run_builtin, "consistency")
    value = {r.metric_name: r.value for r in rows}
    holds, consistent = value["assumption4_holds"] == 1.0, value["consistent_count"]
    ok = holds and consistent >= 95 and elapsed < 10 * 60
    _report(
        "criterion 10 (consistent comparison under the gap condition)",
        ok,
        f"assumption holds: {holds}, consistent {consistent:.0f}/{value['replications']:.0f} (need >= 95), "
        f"{elapsed:.0f}s (< 600s)",
    )
