"""Scenario configs, the replication engine, builtin experiment
reproductions, summaries, and CSV/JSON emission.

Builtins (run_builtin):
  fig3 / fig4       utility-vs-n sweeps with perfect / imperfect fidelity
  fig5              model-comparison risks under a tilted synthetic density
  figS1-linear      linear-regression utility convergence, imperfect fidelity
  figS1-logistic    logistic analogue
  toy-5.1           closed-form regression utility (population-optima mode)
  toy-S.1           closed-form classification utility
  toy-6.1           inconsistent model comparison (regression + classification)
  fidelity-fig2     triangular-pair tail probabilities and the V/C bound
  bound-suite       utility-bound dominance across 50 seeded scenarios
  consistency       consistent-comparison validation replications

Every builtin accepts a --scale factor that divides sample sizes,
replication counts, and test sizes for desk-scale runs.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass, fields, replace
from functools import cache, partial
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .bounds import (
    ClassificationScenario,
    FittedQuad,
    RegressionScenario,
    assumption4_check,
    assumption4_sup_U,
    classification_bound,
    lr_explicit_bound,
    regression_bound,
)
from .datamodel import (
    Dataset,
    NoiseModel,
    SeedSpec,
    TaskKind,
    labels_from_probabilities,
    make_dataset,
    sample_noise,
)
from .densities import (
    BoxSupport,
    DensityModel,
    LinearTilt1D,
    PiecewiseConstant1D,
    Triangular1D,
    TruncatedNormalDiag,
    UniformBox,
    certify_fidelity_level,
    chi_square_divergence,
    default_c_grid,
    fidelity_tail_probability,
    parse_density,
)
from .erm import fit_classification, fit_regression, make_model_class, parse_model_class, population_optimum
from .errors import ConfigError, SyndatumError, UnknownBuiltin
from .estimators import EstimatorSpec, fit_estimator, parse_estimator
from .metrics import (
    SQUARED,
    ZERO_ONE,
    RiskConfig,
    compare_models,
    excess_risk,
    utility_metric,
)
from .synthesis import (
    FeatureGeneratorSpec,
    SynthesisConfig,
    residual_variance,
    synthesize_from_fitted,
)

DEFAULT_MASTER_SEED = 20230517


# ---------------------------------------------------------------------------
# Truth registry (named so configs stay picklable)
# ---------------------------------------------------------------------------


def _truth_abs(X, beta):
    return np.abs(X[:, 0])


def _truth_identity(X, beta):
    return X[:, 0]


def _truth_expdiff(X, beta):
    return np.exp(X[:, 0]) - np.exp(X[:, 1])


def _truth_cubicmix(X, beta):
    x = X[:, 0]
    return 1.0 / (x + 0.1) - 2.0 * x - 2.0 * x**2 + x**3


def _truth_linear(X, beta):
    return X @ np.asarray(beta)


def _truth_logistic(X, beta):
    m = X @ np.asarray(beta)
    return 1.0 / (1.0 + np.exp(-m))


def _truth_step_pos(X, beta):
    return (X[:, 0] > 0).astype(float)


def _truth_step_neg(X, beta):
    return (X[:, 0] < 0).astype(float)


_TRUTHS = {
    "abs": _truth_abs,
    "identity": _truth_identity,
    "expdiff": _truth_expdiff,
    "cubicmix": _truth_cubicmix,
    "linear": _truth_linear,
    "logistic": _truth_logistic,
    "step-pos": _truth_step_pos,
    "step-neg": _truth_step_neg,
}


@dataclass(frozen=True)
class TruthSpec:
    """Named true regression/probability function, with optional coefficients."""

    name: str
    beta: Optional[tuple] = None

    def __post_init__(self):
        if self.name not in _TRUTHS:
            raise ConfigError(f"unknown truth {self.name!r}")

    def resolve(self) -> Callable:
        fn = _TRUTHS[self.name]
        beta = self.beta

        def call(X):
            return fn(np.atleast_2d(np.asarray(X, dtype=float)), beta)

        return call


def parse_truth(text: str) -> TruthSpec:
    parts = text.split()
    beta = None
    for item in parts[1:]:
        key, val = item.split("=", 1)
        if key != "beta":
            raise ConfigError(f"unknown truth parameter {key!r}")
        beta = tuple(float(v) for v in val.split(","))
    return TruthSpec(parts[0], beta)


def parse_noise(text: str) -> Optional[NoiseModel]:
    """``gaussian var=1``, ``bounded-uniform var=2``, ``none``, or ``default``
    (None: synthetic noise falls back to the residual-variance rule)."""
    text = text.strip()
    if text == "default":
        return None
    if text == "none":
        return NoiseModel.none()
    parts = text.split()
    kv = dict(item.split("=", 1) for item in parts[1:])
    var = float(kv.get("var", "1"))
    if parts[0] == "gaussian":
        return NoiseModel.gaussian(var)
    if parts[0] == "bounded-uniform":
        return NoiseModel.bounded_uniform(var)
    raise ConfigError(f"unknown noise model {parts[0]!r}")


# ---------------------------------------------------------------------------
# Scenario configuration and result rows
# ---------------------------------------------------------------------------


OUTPUT_NAMES = ("utility", "bound", "comparison", "fidelity")


@dataclass(frozen=True)
class ScenarioConfig:
    name: str
    task: TaskKind
    real_density: DensityModel
    synth_density: DensityModel
    truth: TruthSpec
    noise: NoiseModel
    estimators: tuple
    model_classes: tuple
    n_grid: tuple
    replications: int
    n_test: int
    master_seed: int
    synth_noise: Optional[NoiseModel] = None  # None = residual-variance default
    synthetic_n_rule: str = "equal"
    outputs: tuple = ("utility",)
    risk_method: str = "monte-carlo"

    def __post_init__(self):
        if not self.n_grid or list(self.n_grid) != sorted(self.n_grid):
            raise ConfigError("n_grid must be non-empty and ascending")
        if self.replications < 1:
            raise ConfigError("replications must be >= 1")
        unknown = sorted(set(self.outputs) - set(OUTPUT_NAMES))
        if unknown:
            raise ConfigError(f"unknown outputs {unknown}; choose from {OUTPUT_NAMES}")
        if "comparison" in self.outputs and len(self.model_classes) != 2:
            raise ConfigError("outputs 'comparison' requires exactly two model_classes")
        rule, _, size = self.synthetic_n_rule.partition(":")
        if self.synthetic_n_rule != "equal" and not (rule == "fixed" and size.isdigit() and int(size) > 0):
            raise ConfigError(
                f"synthetic_n_rule must be equal or fixed:<int >= 1>, got {self.synthetic_n_rule!r}"
            )
        if self.risk_method not in ("monte-carlo", "quadrature"):
            raise ConfigError(f"risk_method must be monte-carlo or quadrature, got {self.risk_method!r}")
        if self.risk_method == "quadrature" and self.real_density.dim != 1:
            raise ConfigError("risk_method quadrature requires a one-dimensional real_density")
        try:
            for text in self.estimators:
                parse_estimator(text)
            for text in self.model_classes:
                parse_model_class(text, self.real_density.dim, self.task)
        except ValueError as exc:
            raise ConfigError(f"{text!r}: {exc}") from exc

    def synthetic_n(self, n: int) -> int:
        if self.synthetic_n_rule == "equal":
            return n
        return int(self.synthetic_n_rule.split(":", 1)[1])


@dataclass(frozen=True)
class ResultRow:
    scenario: str
    n: int
    replication: int
    estimator: str
    model_class: str
    metric_name: str
    value: float
    std_error: float
    error: str = ""


ROW_COLUMNS = (
    "scenario",
    "n",
    "replication",
    "estimator",
    "model_class",
    "metric_name",
    "value",
    "std_error",
    "error",
)


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if math.isnan(value):
        return "nan"
    return repr(float(value))


def write_rows_csv(rows: Sequence[ResultRow], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(ROW_COLUMNS) + "\n")
        for r in rows:
            # keep the schema flat: error text must not carry separators
            err = r.error.replace(",", ";").replace("\n", " ")
            fh.write(
                f"{r.scenario},{r.n},{r.replication},{r.estimator},{r.model_class},"
                f"{r.metric_name},{_fmt(r.value)},{_fmt(r.std_error)},{err}\n"
            )


def _sort_rows(rows: List[ResultRow]) -> List[ResultRow]:
    return sorted(
        rows,
        key=lambda r: (r.scenario, r.n, r.replication, r.estimator, r.model_class, r.metric_name),
    )


def summarize(rows: Sequence[ResultRow]) -> List[dict]:
    """Mean and normal-approximation 95% confidence halfwidth per
    (scenario, n, estimator, model_class, metric) over replications."""
    groups = {}
    for r in rows:
        key = (r.scenario, r.n, r.estimator, r.model_class, r.metric_name)
        groups.setdefault(key, []).append(r)
    out = []
    for key in sorted(groups):
        vals = [r.value for r in groups[key] if not r.error and not math.isnan(r.value)]
        if not vals:
            warnings.warn(f"group {key} has no valid rows; omitted from summary")
            continue
        arr = np.asarray(vals)
        ci = 1.96 * arr.std(ddof=1) / math.sqrt(len(arr)) if len(arr) > 1 else 0.0
        out.append(
            {
                "scenario": key[0],
                "n": key[1],
                "estimator": key[2],
                "model_class": key[3],
                "metric": key[4],
                "mean": float(arr.mean()),
                "ci95": float(ci),
                "count": len(arr),
            }
        )
    return out


# ---------------------------------------------------------------------------
# Replication engine
# ---------------------------------------------------------------------------


def _draw_original(config: ScenarioConfig, n: int, seed: SeedSpec) -> Dataset:
    X = config.real_density.sample(n, seed.child(1))
    truth = config.truth.resolve()
    if config.task is TaskKind.REGRESSION:
        y = np.asarray(truth(X), dtype=float)
        if config.noise.variance > 0:
            y = y + sample_noise(config.noise, n, seed.child(2))
        return make_dataset(X, y, TaskKind.REGRESSION)
    z = labels_from_probabilities(np.asarray(truth(X), dtype=float), seed.child(2).rng())
    return make_dataset(X, z, TaskKind.CLASSIFICATION)


def _fitted_estimator(truth: TruthSpec, text: str, data: Dataset, seed: SeedSpec) -> "FittedEstimator":
    """Parse an estimator entry and fit it on ``data``; an oracle wraps the
    truth."""
    spec = parse_estimator(text)
    if spec.kind == "oracle":
        spec = replace(spec, oracle_fn=truth.resolve())
    return fit_estimator(spec, data, seed)


def _fit_downstream(model_class, data: Dataset):
    if data.task is TaskKind.REGRESSION:
        return fit_regression(model_class, data)
    return fit_classification(model_class, data)


def _error_row(name, n, rep, est_name, class_name, metric, exc) -> ResultRow:
    return ResultRow(name, n, rep, est_name, class_name, metric, float("nan"), float("nan"),
                     f"{type(exc).__name__}: {exc}")


# The pipeline stages below are shared by sweep units, the bound suite and the
# CLI.  Each caller passes its own SeedSpec streams, whose layout pins its
# seeded outputs.


def _risk_config(config: ScenarioConfig, seed: SeedSpec) -> RiskConfig:
    regression = config.task is TaskKind.REGRESSION
    return RiskConfig(
        density=config.real_density,
        truth=config.truth.resolve(),
        loss=SQUARED if regression else ZERO_ONE,
        noise=config.noise if regression else None,
        n_test=config.n_test,
        method=config.risk_method,
        seed=seed,
    )


def _synthesize(config: ScenarioConfig, est, original: Dataset, seed: SeedSpec):
    """Synthesize from the fitted estimation model.  Returns (synthetic
    dataset, residual variance), the variance being None unless the
    default synthetic noise of a regression scenario needed it."""
    noise, rv = config.synth_noise, None
    if noise is None and config.task is TaskKind.REGRESSION:
        rv = residual_variance(est, original)
        noise = NoiseModel.bounded_uniform(rv)
    syn_cfg = SynthesisConfig(
        generator=FeatureGeneratorSpec.from_density(config.synth_density),
        estimator=EstimatorSpec(est.kind),  # unused: the estimator is already fitted
        synthetic_n=config.synthetic_n(original.n),
        noise=noise,
    )
    return synthesize_from_fitted(est, syn_cfg, original, seed), rv


def _bound_report(config: ScenarioConfig, mc, est, rv: Optional[float], f_orig, f_synth,
                  seeds: Tuple[SeedSpec, SeedSpec, SeedSpec], chi2: Optional[float] = None):
    """The task's analytic utility bound.  ``rv`` is the residual variance
    from _synthesize; ``seeds`` feed the real and the synthetic population
    optima and the bound's own risk draws; ``chi2`` (None = compute) lets a
    sweep share one divergence across its units."""
    star_seed, tilde_seed, bound_seed = seeds
    truth = config.truth.resolve()
    f_star = population_optimum(mc, config.real_density, truth, None, 100_000, star_seed)
    if config.task is TaskKind.REGRESSION:
        f_tilde_star = population_optimum(
            mc, config.synth_density, est.mean, None, 100_000, tilde_seed
        )
        synth_noise = config.synth_noise or NoiseModel.bounded_uniform(max(rv, 1e-12))
        scenario = RegressionScenario(
            config.real_density, config.synth_density, truth, config.noise, est, synth_noise
        )
        return regression_bound(
            scenario, FittedQuad(f_orig, f_synth, f_star, f_tilde_star),
            n_test=config.n_test, seed=bound_seed, chi2=chi2,
        )
    f_tilde_star = population_optimum(mc, config.synth_density, est.prob, None, 100_000, tilde_seed)
    scenario = ClassificationScenario(config.real_density, config.synth_density, truth, est)
    return classification_bound(
        scenario, FittedQuad(f_orig, f_synth, f_star, f_tilde_star),
        n_test=config.n_test, seed=bound_seed, chi2=chi2,
    )


def _lr_case(real: DensityModel, synth: DensityModel, beta, noise: NoiseModel,
             synth_noise: NoiseModel, n: int, ns: int, seed: SeedSpec):
    """Explicit linear-regression bound: OLS on n real draws, synthetic
    responses from the fitted coefficients on ns synthetic features.
    Returns (report, chi2, beta_hat, beta_tilde)."""
    X = real.sample(n, seed.child(1))
    eps = sample_noise(noise, n, seed.child(2))
    Y = X @ np.asarray(beta) + eps
    beta_hat = np.linalg.solve(X.T @ X, X.T @ Y)
    Xs = synth.sample(ns, seed.child(3))
    eps_s = sample_noise(synth_noise, ns, seed.child(4))
    Ys = Xs @ beta_hat + eps_s
    beta_tilde = np.linalg.solve(Xs.T @ Xs, Xs.T @ Ys)
    chi2 = chi_square_divergence(real, synth)
    report = lr_explicit_bound(
        X, Xs, eps, eps_s, real.coordinate_variances(), synth.coordinate_variances(),
        chi2, Y, Ys, real.support,
    )
    return report, chi2, beta_hat, beta_tilde


def _compare(config: ScenarioConfig, est, risk_seed: SeedSpec):
    """Model comparison of the two model classes under the fitted estimator."""
    dim = config.real_density.dim
    c1, c2 = (parse_model_class(text, dim, config.task) for text in config.model_classes)
    return compare_models(
        c1, c2, config.real_density, config.synth_density, config.truth.resolve(), est,
        _risk_config(config, risk_seed),
    )


def _comparison_rows(name, n, rep, est_name, labels, report) -> List[ResultRow]:
    return [
        ResultRow(name, n, rep, est_name, "pair", "consistent", float(report.consistent), 0.0),
        ResultRow(name, n, rep, est_name, labels[0], "risk_real",
                  report.risk_f1_real.value, report.risk_f1_real.std_error),
        ResultRow(name, n, rep, est_name, labels[1], "risk_real",
                  report.risk_f2_real.value, report.risk_f2_real.std_error),
        ResultRow(name, n, rep, est_name, labels[0], "risk_synth_opt",
                  report.risk_f1_synth.value, report.risk_f1_synth.std_error),
        ResultRow(name, n, rep, est_name, labels[1], "risk_synth_opt",
                  report.risk_f2_synth.value, report.risk_f2_synth.std_error),
    ]


def _run_unit(config: ScenarioConfig, n_index: int, rep: int, chi2: Optional[float]) -> List[ResultRow]:
    n = config.n_grid[n_index]
    base = SeedSpec(config.master_seed, rep).child(n_index)
    cfg = _risk_config(config, base.child(3))
    original = _draw_original(config, n, base)
    rows: List[ResultRow] = []

    # one fit per estimator, shared by the comparison and the synthesis
    @cache
    def fitted(ei):
        return _fitted_estimator(config.truth, config.estimators[ei], original, base.child(4, ei))

    if "comparison" in config.outputs:
        est_name = config.estimators[0].split()[0]
        try:
            report = _compare(config, fitted(0), base.child(8))
            labels = tuple(text.split()[0] for text in config.model_classes)
            rows.extend(_comparison_rows(config.name, n, rep, est_name, labels, report))
        except SyndatumError as exc:
            rows.append(_error_row(config.name, n, rep, est_name, "pair", "consistent", exc))

    # ERM is deterministic, so one original-data fit per class serves every
    # estimator
    @cache
    def fit_original(class_text):
        mc = parse_model_class(class_text, original.p, config.task)
        return mc, _fit_downstream(mc, original)

    for ei, est_text in enumerate(config.estimators):
        est_name = est_text.split()[0]
        try:
            # common random numbers across estimators: same synthetic feature
            # and noise draws, so utilities differ only through the fitted
            # estimation model
            est = fitted(ei)
            synthetic, rv = _synthesize(config, est, original, base.child(5))
        except SyndatumError as exc:
            rows.extend(
                _error_row(config.name, n, rep, est_name, text.split()[0], "utility", exc)
                for text in config.model_classes
            )
            continue
        for class_text in config.model_classes:
            row = partial(ResultRow, config.name, n, rep, est_name, class_text.split()[0])
            try:
                mc, f_orig = fit_original(class_text)
                f_synth = _fit_downstream(mc, synthetic)
                report = utility_metric(f_synth, f_orig, cfg)
            except SyndatumError as exc:
                rows.append(_error_row(*row.args, "utility", exc))
                continue
            rows.append(row("utility", report.utility, report.combined_std_error))
            rows.append(row("risk_synth_trained", report.risk_synthetic.value,
                            report.risk_synthetic.std_error))
            rows.append(row("risk_real_trained", report.risk_original.value,
                            report.risk_original.std_error))
            if "bound" in config.outputs:
                try:
                    bound = _bound_report(
                        config, mc, est, rv, f_orig, f_synth,
                        (base.child(6, ei), base.child(7, ei), base.child(9, ei)), chi2,
                    )
                except SyndatumError as exc:
                    rows.append(_error_row(*row.args, "bound_total", exc))
                    continue
                rows.extend(row(f"bound_{key}", value, 0.0)
                            for key, value in bound.to_json_dict().items())
    return rows


def _unit_star(args):
    return _run_unit(*args)


def run_scenario(config: ScenarioConfig, workers: int = 1) -> List[ResultRow]:
    """Execute the full (n, replication) sweep.

    Rows are deterministic given master_seed: replication r uses stream r, so
    dropping or reordering replications never changes other rows.  Workers
    parallelize units; output order is schedule-independent.
    """
    rows: List[ResultRow] = []
    # once per scenario: the chi-square divergence (shared by every unit's
    # bound; NaN if it fails) and the fidelity rows
    chi2 = None
    if "bound" in config.outputs or "fidelity" in config.outputs:
        try:
            chi2 = chi_square_divergence(config.real_density, config.synth_density)
            chi2_row = ResultRow(config.name, 0, 0, "", "", "chi2", chi2, 0.0)
        except SyndatumError as exc:
            chi2 = float("nan")
            chi2_row = _error_row(config.name, 0, 0, "", "", "chi2", exc)
    if "fidelity" in config.outputs:
        rows.append(chi2_row)
        try:
            cert = certify_fidelity_level(config.real_density, config.synth_density, d=1.0)
            rows.append(ResultRow(config.name, 0, 0, "", "", "fidelity_V@d=1", cert.V, 0.0))
        except SyndatumError as exc:
            rows.append(_error_row(config.name, 0, 0, "", "", "fidelity_V@d=1", exc))
    units = [
        (config, ni, rep, chi2)
        for ni in range(len(config.n_grid))
        for rep in range(config.replications)
    ]
    if workers > 1 and len(units) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for result in pool.map(_unit_star, units, chunksize=1):
                rows.extend(result)
    else:
        for unit in units:
            rows.extend(_unit_star(unit))
    return _sort_rows(rows)


# ---------------------------------------------------------------------------
# Builtin experiments
# ---------------------------------------------------------------------------


def _scaled(values, scale, minimum=1):
    return tuple(max(minimum, v // scale) for v in values)


def _fig34_config(name: str, scale: int, master_seed: int) -> ScenarioConfig:
    support = BoxSupport((-2.0, -2.0), (2.0, 2.0))
    real = TruncatedNormalDiag(support, [1.0, 1.0], [1.0, 1.0])
    synth = real if name == "fig3" else UniformBox(support)
    return ScenarioConfig(
        name=name,
        task=TaskKind.REGRESSION,
        real_density=real,
        synth_density=synth,
        truth=TruthSpec("expdiff"),
        noise=NoiseModel.gaussian(1.0),
        estimators=("knn", "rf", "mlp", "oracle"),
        model_classes=("linear", "quadratic", "exp2"),
        n_grid=_scaled((2000, 4000, 8000, 16000, 32000), scale),
        replications=max(1, 100 // scale),
        n_test=max(1000, 50_000 // scale),
        master_seed=master_seed,
    )


def _run_fig5(scale: int, master_seed: int, workers: int) -> List[ResultRow]:
    rows: List[ResultRow] = []
    n = max(1, 10_000 // scale)
    reps = max(1, 100 // scale)
    for ai, alpha in enumerate((0.0, 0.1, 0.2, 0.3, 0.4, 0.5)):
        # the tilt level alpha ranges over [0, 1/2] for a valid density
        # alpha (x-1) + 1/2 on [0, 2]; LinearTilt1D(s) has pdf (s (x-1) + 1) / 2,
        # so the slope passed in is 2 alpha
        config = ScenarioConfig(
            name=f"fig5[alpha={alpha:.1f}]",
            task=TaskKind.REGRESSION,
            real_density=UniformBox(BoxSupport((0.0,), (2.0,))),
            synth_density=LinearTilt1D(2.0 * alpha),
            truth=TruthSpec("cubicmix"),
            noise=NoiseModel.none(),
            synth_noise=NoiseModel.none(),  # perfect estimation model
            estimators=("oracle",),
            model_classes=(
                "recip-cubic-0",
                "recip-cubic-1",
                "recip-cubic-2",
                "recip-cubic-3",
            ),
            n_grid=(n,),
            replications=reps,
            n_test=max(1000, 50_000 // scale),
            master_seed=master_seed + ai,
            risk_method="quadrature",
        )
        rows.extend(run_scenario(config, workers=workers))
    return _sort_rows(rows)


_FIGS1_BETA = (1.0, -1.0, 0.5, -0.5)


def _figs1_config(name: str, scale: int, master_seed: int) -> ScenarioConfig:
    support = BoxSupport((-4.0,) * 4, (4.0,) * 4)
    replications = 100 if scale == 2 else max(1, 500 // scale)
    common = dict(
        real_density=TruncatedNormalDiag(support, np.zeros(4), np.ones(4)),
        synth_density=UniformBox(support),
        n_grid=_scaled((200, 400, 800, 1600), scale),
        replications=replications,
        n_test=max(1000, 50_000 // scale),
        master_seed=master_seed,
    )
    if name == "figS1-linear":
        return ScenarioConfig(
            name=name,
            task=TaskKind.REGRESSION,
            truth=TruthSpec("linear", _FIGS1_BETA),
            noise=NoiseModel.gaussian(1.0),
            synth_noise=NoiseModel.bounded_uniform(1.0),
            estimators=("ols",),
            model_classes=("linear",),
            **common,
        )
    return ScenarioConfig(
        name=name,
        task=TaskKind.CLASSIFICATION,
        truth=TruthSpec("logistic", _FIGS1_BETA),
        noise=NoiseModel.none(),
        estimators=("logistic box=4",),
        model_classes=("logistic-linear box=4",),
        **common,
    )


def _uniform_pm1() -> DensityModel:
    return UniformBox(BoxSupport((-1.0,), (1.0,)))


def _mass_pos(alpha: float) -> DensityModel:
    return PiecewiseConstant1D([-1.0, 0.0, 1.0], [1.0 - alpha, alpha])


def _mass_neg(alpha: float) -> DensityModel:
    return PiecewiseConstant1D([-1.0, 0.0, 1.0], [alpha, 1.0 - alpha])


_TOY_ALPHAS = (0.1, 0.3, 0.5, 0.75, 0.9)
_TOY_M = 200_000


def _run_toy51(master_seed: int) -> List[ResultRow]:
    rows = []
    truth = TruthSpec("abs").resolve()
    wrong = make_model_class("linear", 1, TaskKind.REGRESSION)
    for ai, alpha in enumerate(_TOY_ALPHAS):
        seed = SeedSpec(master_seed, ai)
        f_hat = population_optimum(wrong, _uniform_pm1(), truth, None, _TOY_M, seed.child(1))
        f_tilde = population_optimum(wrong, _mass_pos(alpha), truth, None, _TOY_M, seed.child(2))
        cfg = RiskConfig(density=_uniform_pm1(), truth=truth, loss=SQUARED, method="quadrature")
        report = utility_metric(f_tilde, f_hat, cfg)
        name = f"toy-5.1[alpha={alpha:g}]"
        rows.append(ResultRow(name, 0, 0, "oracle", "linear", "utility", report.utility, 0.0))
        rows.append(
            ResultRow(name, 0, 0, "oracle", "linear", "coef_synth", float(f_tilde.coefficients[0]), 0.0)
        )
    return _sort_rows(rows)


def _run_toy_s1(master_seed: int) -> List[ResultRow]:
    rows = []
    truth = TruthSpec("step-pos").resolve()
    cls = make_model_class("sign-abs", 1, TaskKind.CLASSIFICATION)
    for ai, alpha in enumerate(_TOY_ALPHAS):
        seed = SeedSpec(master_seed, ai)
        real, synth = _mass_neg(alpha), _mass_neg(1.0 - alpha)
        g_hat = population_optimum(cls, real, truth, None, _TOY_M, seed.child(1))
        g_tilde = population_optimum(cls, synth, truth, None, _TOY_M, seed.child(2))
        cfg = RiskConfig(density=real, truth=truth, loss=ZERO_ONE, method="quadrature")
        report = utility_metric(g_tilde, g_hat, cfg)
        name = f"toy-S.1[alpha={alpha:g}]"
        rows.append(ResultRow(name, 0, 0, "oracle", "sign-abs", "utility", report.utility, 0.0))
    return _sort_rows(rows)


def _oracle_estimator(truth_spec: TruthSpec, task: TaskKind) -> "FittedEstimator":
    # the oracle ignores its training data; +1 is a valid response for either task
    data = make_dataset([[0.0]], [1.0], task)
    return _fitted_estimator(truth_spec, "oracle", data, SeedSpec(0))


def _toy61_part(name, alpha, truth_spec, task, class_name, boxes, labels, seed) -> List[ResultRow]:
    real, synth = _mass_neg(alpha), _mass_neg(1 - alpha)
    classes = [make_model_class(class_name, 1, task, box=box) for box in boxes]
    cfg = RiskConfig(
        density=real,
        truth=truth_spec.resolve(),
        loss=SQUARED if task is TaskKind.REGRESSION else ZERO_ONE,
        method="quadrature",
        population_m=_TOY_M,
        seed=seed,
    )
    report = compare_models(
        *classes, real, synth, truth_spec.resolve(), _oracle_estimator(truth_spec, task), cfg
    )
    rows = _comparison_rows(name, 0, 0, "oracle", labels, report)
    for which in ("real", "synth"):
        rows.extend(
            ResultRow(name, 0, 0, "oracle", label, f"coef_{which}",
                      float(report.optima[f"{key}_{which}"][0]), 0.0)
            for key, label in zip(("f1", "f2"), labels)
        )
    return rows


def _run_toy61(master_seed: int) -> List[ResultRow]:
    # regression part, alpha = 5/6
    rows = _toy61_part(
        "toy-6.1-regression", 5.0 / 6.0, TruthSpec("identity"), TaskKind.REGRESSION,
        "constant", ((-0.5, 0.5), (-0.25, 0.25)), ("F1", "F2"), SeedSpec(master_seed, 1),
    )
    # classification part, alpha = 3/4; positive labels sit on the negative
    # half-line, so the real-distribution risk increases in the threshold and
    # the synthetic one decreases, flipping the fitted thresholds
    rows += _toy61_part(
        "toy-6.1-classification", 0.75, TruthSpec("step-neg"), TaskKind.CLASSIFICATION,
        "threshold-abs", ((0.0, 0.5), (0.25, 1.0 / 3.0)), ("G1", "G2"), SeedSpec(master_seed, 2),
    )
    return _sort_rows(rows)


def _run_fidelity_fig2(master_seed: int) -> List[ResultRow]:
    p, q = Triangular1D("increasing"), Triangular1D("decreasing")
    rows = []
    for i, C in enumerate(default_c_grid()):
        tail = fidelity_tail_probability(p, q, C)
        rows.append(ResultRow("fidelity-fig2", 0, i, "", "triangular", "C", float(C), 0.0))
        rows.append(ResultRow("fidelity-fig2", 0, i, "", "triangular", "tail_prob", tail, 0.0))
        rows.append(
            ResultRow("fidelity-fig2", 0, i, "", "triangular", "vc_bound", 2.0 / float(C), 0.0)
        )
    return rows


# ---------------------------------------------------------------------------
# Bound-dominance suite: regression, classification, and explicit-LR bounds
# ---------------------------------------------------------------------------


def _suite_table(task: TaskKind):
    """(seed stream offset, estimators, [(real, synth, truth, model classes)])."""
    if task is TaskKind.REGRESSION:
        box2 = BoxSupport((-2.0, -2.0), (2.0, 2.0))
        classes_2d = ("linear", "quadratic", "exp2")
        classes_1d = ("linear", "abs", "quadratic")
        return 1000, ("oracle", "ols", "knn", "rf", "mlp"), [
            (TruncatedNormalDiag(box2, [1.0, 1.0], [1.0, 1.0]), UniformBox(box2),
             TruthSpec("expdiff"), classes_2d),
            (UniformBox(box2), TruncatedNormalDiag(box2, [0.0, 0.0], [1.0, 1.0]),
             TruthSpec("expdiff"), classes_2d),
            (_uniform_pm1(), _mass_pos(0.7), TruthSpec("abs"), classes_1d),
            (_mass_neg(0.3), _mass_neg(0.65), TruthSpec("identity"), classes_1d),
            (LinearTilt1D(0.0), LinearTilt1D(0.4), TruthSpec("cubicmix"),
             ("recip-cubic-0", "recip-cubic-2", "recip-cubic-3")),
        ]
    classes = ("sign-linear", "sign-abs", "threshold-abs box=0,0.5", "logistic-linear box=3")
    return 2000, ("oracle", "logistic", "knn"), [
        (_mass_neg(0.75), _mass_neg(0.25), TruthSpec("step-pos"), classes),
        (_uniform_pm1(), _mass_pos(0.65), TruthSpec("logistic", (2.0,)), classes),
        (_mass_neg(0.4), _mass_neg(0.7), TruthSpec("logistic", (1.5,)), classes),
    ]


def _suite_case(task: TaskKind, i: int, master_seed: int) -> dict:
    offset, estimators, pairs = _suite_table(task)
    real, synth, truth, classes = pairs[i % len(pairs)]
    est_text = estimators[(i + i // len(pairs)) % len(estimators)]
    class_text = classes[(i // len(pairs)) % len(classes)]
    n = (400, 800)[i % 2]
    regression = task is TaskKind.REGRESSION
    noise_var = (0.25, 1.0)[(i // 2) % 2]
    config = ScenarioConfig(
        name=f"bound-{'reg' if regression else 'cls'}-{i:02d}",
        task=task,
        real_density=real,
        synth_density=synth,
        truth=truth,
        noise=NoiseModel.gaussian(noise_var) if regression else NoiseModel.none(),
        synth_noise=NoiseModel.bounded_uniform(noise_var) if regression else None,
        estimators=(est_text,),
        model_classes=(class_text,),
        n_grid=(n,),
        replications=1,
        n_test=20_000,
        master_seed=master_seed,
    )
    seed = SeedSpec(master_seed, offset + i)
    original = _draw_original(config, n, seed.child(1))
    est = _fitted_estimator(truth, est_text, original, seed.child(2))
    synthetic, rv = _synthesize(config, est, original, seed.child(3))
    mc = parse_model_class(class_text, original.p, task)
    f_hat, f_tilde = _fit_downstream(mc, original), _fit_downstream(mc, synthetic)
    u_report = utility_metric(f_tilde, f_hat, _risk_config(config, seed.child(6)))
    bound = _bound_report(
        config, mc, est, rv, f_hat, f_tilde, (seed.child(4), seed.child(5), seed.child(7))
    )
    return {
        "kind": task.value,
        "name": config.name,
        "estimator": est_text,
        "model_class": class_text,
        "u": u_report.utility,
        "u_se": u_report.combined_std_error,
        "total": bound.total,
        "chi2": bound.chi2,
    }


def _suite_lr_case(i: int, master_seed: int) -> dict:
    seed = SeedSpec(master_seed, 3000 + i)
    p = (1, 2, 4)[i % 3]
    half = (2.0, 4.0)[i % 2]
    support = BoxSupport((-half,) * p, (half,) * p)
    real = TruncatedNormalDiag(support, np.zeros(p), np.full(p, (1.0, 0.5)[(i // 2) % 2]))
    beta_star = seed.rng(0).uniform(-1.5, 1.5, size=p)
    report, chi2, beta_hat, beta_tilde = _lr_case(
        real,
        UniformBox(support),
        beta_star,
        NoiseModel.gaussian((0.25, 1.0)[i % 2]),
        NoiseModel.bounded_uniform((0.25, 1.0)[(i // 2) % 2]),
        n=(200, 500)[(i // 3) % 2],
        ns=(200, 500)[i % 2],
        seed=seed,
    )
    Lam = real.coordinate_variances()

    def phi(beta):
        d = beta - beta_star
        return float(np.sum(Lam * d * d))

    return {
        "kind": "linear-regression",
        "name": f"bound-lr-{i:02d}",
        "estimator": "ols",
        "model_class": "linear",
        "u": abs(phi(beta_tilde) - phi(beta_hat)),
        "u_se": 0.0,  # closed-form risks under the diagonal moment matrix
        "total": report.total,
        "chi2": chi2,
    }


def run_bound_suite(master_seed: int = DEFAULT_MASTER_SEED) -> List[dict]:
    """50 seeded scenarios with finite chi-square: 20 regression, 15
    classification, 15 explicit linear-regression bounds."""
    return (
        [_suite_case(TaskKind.REGRESSION, i, master_seed) for i in range(20)]
        + [_suite_case(TaskKind.CLASSIFICATION, i, master_seed) for i in range(15)]
        + [_suite_lr_case(i, master_seed) for i in range(15)]
    )


def _run_bound_suite_rows(master_seed: int) -> List[ResultRow]:
    metrics = (("u", "utility"), ("u_se", "utility_std_error"), ("total", "bound_total"), ("chi2", "chi2"))
    rows = [
        ResultRow(case["name"], 0, idx, case["estimator"], case["model_class"], metric,
                  float(case[key]), 0.0)
        for idx, case in enumerate(run_bound_suite(master_seed))
        for key, metric in metrics
    ]
    return _sort_rows(rows)


# ---------------------------------------------------------------------------
# Consistent-comparison validation under the excess-risk gap condition
# ---------------------------------------------------------------------------


def run_consistency_validation(
    replications: int = 100, master_seed: int = DEFAULT_MASTER_SEED
) -> dict:
    """Scenario where the gap condition holds (correct second class, so its
    excess risk vanishes): consistent comparison should hold in nearly every
    replication."""
    real = _uniform_pm1()
    synth = _mass_pos(0.75)
    truth_spec = TruthSpec("identity")
    truth = truth_spec.resolve()
    f1 = make_model_class("constant", 1, TaskKind.REGRESSION, box=(-1.0, 1.0))
    f2 = make_model_class("linear", 1, TaskKind.REGRESSION, box=(-2.0, 2.0))
    mu_hat = _oracle_estimator(truth_spec, TaskKind.REGRESSION)

    cert = certify_fidelity_level(real, synth, d=2.0)
    U = assumption4_sup_U(f2, mu_hat, real, m=200_000, seed=SeedSpec(master_seed, 4001))
    phi_f1 = excess_risk(
        lambda X: np.zeros(X.shape[0]), real, truth, loss=SQUARED, method="quadrature"
    )
    phi_f2 = 0.0  # correct specification: the class contains the truth
    check = assumption4_check(cert.d, cert.V, U, phi_f1, phi_f2, phi_f1, phi_f2)

    consistent = 0
    indeterminate = 0
    for rep in range(replications):
        cfg = RiskConfig(
            density=real,
            truth=truth,
            loss=SQUARED,
            noise=NoiseModel.gaussian(0.25),
            method="quadrature",
            population_m=100_000,
            seed=SeedSpec(master_seed, 4100 + rep),
        )
        try:
            report = compare_models(f1, f2, real, synth, truth, mu_hat, cfg)
            consistent += int(report.consistent)
        except SyndatumError:
            indeterminate += 1
    return {
        "assumption_check": check,
        "replications": replications,
        "consistent": consistent,
        "indeterminate": indeterminate,
    }


def _run_consistency_rows(master_seed: int) -> List[ResultRow]:
    result = run_consistency_validation(master_seed=master_seed)
    chk = result["assumption_check"]
    return [
        ResultRow("consistency", 0, 0, "oracle", "pair", "assumption4_holds", float(chk.holds_reg), 0.0),
        ResultRow("consistency", 0, 0, "oracle", "pair", "consistent_count", float(result["consistent"]), 0.0),
        ResultRow("consistency", 0, 0, "oracle", "pair", "replications", float(result["replications"]), 0.0),
    ]


# ---------------------------------------------------------------------------
# Builtin dispatch
# ---------------------------------------------------------------------------

def _sweep(make_config, name):
    return lambda scale, seed, workers: run_scenario(make_config(name, scale, seed), workers=workers)


# name -> runner(scale, master_seed, workers)
_BUILTINS = {
    "fig3": _sweep(_fig34_config, "fig3"),
    "fig4": _sweep(_fig34_config, "fig4"),
    "fig5": _run_fig5,
    "figS1-linear": _sweep(_figs1_config, "figS1-linear"),
    "figS1-logistic": _sweep(_figs1_config, "figS1-logistic"),
    "toy-5.1": lambda scale, seed, workers: _run_toy51(seed),
    "toy-S.1": lambda scale, seed, workers: _run_toy_s1(seed),
    "toy-6.1": lambda scale, seed, workers: _run_toy61(seed),
    "fidelity-fig2": lambda scale, seed, workers: _run_fidelity_fig2(seed),
    "bound-suite": lambda scale, seed, workers: _run_bound_suite_rows(seed),
    "consistency": lambda scale, seed, workers: _run_consistency_rows(seed),
}
BUILTIN_NAMES = tuple(_BUILTINS)


def run_builtin(
    name: str,
    scale: int = 1,
    master_seed: int = DEFAULT_MASTER_SEED,
    workers: int = 1,
) -> List[ResultRow]:
    """Run a preconfigured experiment; see the module docstring for the menu."""
    if scale < 1:
        raise ConfigError("scale must be >= 1")
    if name not in _BUILTINS:
        raise UnknownBuiltin(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")
    return _BUILTINS[name](scale, master_seed, workers)


def default_workers() -> int:
    env = os.environ.get("SYNDATUM_WORKERS")
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ConfigError(f"SYNDATUM_WORKERS must be an integer, got {env!r}")
    return 1


# ---------------------------------------------------------------------------
# Config files: one INI section per scenario, flat key=value entries
# ---------------------------------------------------------------------------

_CONFIG_KEYS = {f.name for f in fields(ScenarioConfig)} - {"name"}

_CONFIG_DEFAULTS = {
    "noise": "none",
    "synth_noise": "default",
    "estimators": "oracle",
    "synthetic_n_rule": "equal",
    "replications": "1",
    "n_test": "20000",
    "master_seed": str(DEFAULT_MASTER_SEED),
    "outputs": "utility",
    "risk_method": "monte-carlo",
}


def load_scenarios(path) -> List[ScenarioConfig]:
    """Parse scenario configs from an INI-style file.

    Example section::

        [my-sweep]
        task = regression
        real_density = trunc-normal lower=-2,-2 upper=2,2 mean=1,1 var=1,1
        synth_density = uniform-box lower=-2,-2 upper=2,2
        truth = expdiff
        noise = gaussian var=1
        estimators = knn, oracle
        model_classes = linear; quadratic; exp2
        n_grid = 500, 1000
        replications = 4
        n_test = 5000
        master_seed = 7

    ``model_classes`` entries are semicolon-separated because class specs may
    contain commas (e.g. ``constant box=-0.5,0.5``).
    """
    import configparser

    parser = configparser.ConfigParser()
    read = parser.read(path)
    if not read:
        raise ConfigError(f"cannot read config file {path}")
    configs = []
    for section in parser.sections():
        raw = dict(parser[section])
        unknown = set(raw) - _CONFIG_KEYS
        if unknown:
            raise ConfigError(f"[{section}] has unknown keys {sorted(unknown)}")
        missing = _CONFIG_KEYS - set(_CONFIG_DEFAULTS) - set(raw)
        if missing:
            raise ConfigError(f"[{section}] is missing required keys {sorted(missing)}")
        merged = {**_CONFIG_DEFAULTS, **raw}
        task_text = merged["task"].strip().lower()
        if task_text not in ("regression", "classification"):
            raise ConfigError(f"[{section}] task must be regression or classification")
        task = TaskKind.REGRESSION if task_text == "regression" else TaskKind.CLASSIFICATION
        try:
            config = ScenarioConfig(
                name=section,
                task=task,
                real_density=parse_density(merged["real_density"]),
                synth_density=parse_density(merged["synth_density"]),
                truth=parse_truth(merged["truth"]),
                noise=parse_noise(merged["noise"]) or NoiseModel.none(),
                synth_noise=parse_noise(merged["synth_noise"]),
                estimators=tuple(s.strip() for s in merged["estimators"].split(",") if s.strip()),
                model_classes=tuple(s.strip() for s in merged["model_classes"].split(";") if s.strip()),
                n_grid=tuple(int(v) for v in merged["n_grid"].split(",")),
                synthetic_n_rule=merged["synthetic_n_rule"].strip(),
                replications=int(merged["replications"]),
                n_test=int(merged["n_test"]),
                master_seed=int(merged["master_seed"]),
                outputs=tuple(s.strip() for s in merged["outputs"].split(",") if s.strip()),
                risk_method=merged["risk_method"].strip(),
            )
        except (ValueError, SyndatumError) as exc:
            if isinstance(exc, ConfigError):
                raise
            raise ConfigError(f"[{section}] invalid configuration: {exc}") from exc
        configs.append(config)
    if not configs:
        raise ConfigError(f"config file {path} defines no scenarios")
    return configs
