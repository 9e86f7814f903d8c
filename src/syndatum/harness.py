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

The five sweeps (fig3 to figS1-logistic) take --workers and a --scale factor
that divides sizes and replication counts; the six fixed builtins take neither.
"""

from __future__ import annotations

import math
import os
import warnings
from concurrent.futures import ProcessPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from functools import partial
from itertools import chain, product
from typing import List, Optional, Sequence

import numpy as np

from .bounds import (
    BoundScenario,
    FittedQuad,
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
    draw_responses,
    make_dataset,
    parse_spec,
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
    _check_compatible,
    certify_fidelity_level,
    chi_square_divergence,
    default_c_grid,
    fidelity_tail_probability,
    parse_density,
)
from .erm import fit_downstream, make_model_class, parse_model_class, population_optimum
from .errors import ConfigError, SupportMismatch, SyndatumError, UnknownBuiltin
from .estimators import fit_estimator, parse_estimator
from .metrics import (
    SQUARED,
    ZERO_ONE,
    RiskConfig,
    compare_models,
    excess_risk,
    utility_metric,
)
from .synthesis import synthesize_from_fitted, synthetic_noise

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

    def __call__(self, X) -> np.ndarray:
        # truths hash by value, so risk quadrature shares its memo across units
        return _TRUTHS[self.name](np.atleast_2d(np.asarray(X, dtype=float)), self.beta)


def parse_truth(text: str) -> TruthSpec:
    name, params = parse_spec(text, ("beta",))
    beta = tuple(float(v) for v in params["beta"].split(",")) if "beta" in params else None
    return TruthSpec(name, beta)


def parse_noise(text: str) -> Optional[NoiseModel]:
    """``gaussian var=1``, ``bounded-uniform var=2``, ``none``, or ``default``
    (None: synthetic noise falls back to the residual-variance rule)."""
    text = text.strip()
    if text == "default":
        return None
    if text == "none":
        return NoiseModel.none()
    kind, params = parse_spec(text, ("var",))
    var = float(params.get("var", "1"))
    if kind == "gaussian":
        return NoiseModel.gaussian(var)
    if kind == "bounded-uniform":
        return NoiseModel.bounded_uniform(var)
    raise ConfigError(f"unknown noise model {kind!r}")


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
    model_classes: tuple
    n_grid: tuple
    noise: NoiseModel = NoiseModel.none()
    estimators: tuple = ("oracle",)
    replications: int = 1
    n_test: int = 20_000
    master_seed: int = DEFAULT_MASTER_SEED
    synth_noise: Optional[NoiseModel] = None  # None = residual-variance default
    synthetic_n_rule: str = "equal"
    outputs: tuple = ("utility",)
    risk_method: str = "monte-carlo"
    # resolved once from the text fields above: the EstimatorSpecs, each
    # oracle bound to the truth, and the model classes on real_density.dim
    estimator_specs: tuple = field(init=False, repr=False, compare=False)
    classes: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if set(self.name) & set(',"\r\n'):
            raise ConfigError(f"scenario name {self.name!r} must not contain a comma, a double quote or a "
                              f"line break (rows.csv writes it unquoted)")
        if self.noise is None:
            raise ConfigError("noise has no default; default is for synth_noise only")
        # a repeated n would give two units rows with the same keys
        if not self.n_grid or any(a >= b for a, b in zip(self.n_grid, self.n_grid[1:])) or self.n_grid[0] < 1:
            raise ConfigError(f"n_grid must be non-empty, strictly ascending and >= 1, got {self.n_grid}")
        if self.replications < 1 or self.n_test < 2:
            raise ConfigError(f"replications must be >= 1 and n_test >= 2 (a standard error needs two "
                              f"test rows), got {self.replications} and {self.n_test}")
        if not self.estimators or not self.model_classes:
            raise ConfigError("estimators and model_classes must each name at least one entry")
        if self.master_seed < 0:
            raise ConfigError(f"master_seed must be >= 0, got {self.master_seed}")
        unknown = sorted(set(self.outputs) - set(OUTPUT_NAMES))
        if unknown:
            raise ConfigError(f"unknown outputs {unknown}; choose from {OUTPUT_NAMES}")
        if "comparison" in self.outputs and len(self.model_classes) != 2:
            raise ConfigError("outputs 'comparison' requires exactly two model_classes")
        if "fidelity" in self.outputs and self.real_density.dim != 1:
            raise ConfigError("outputs 'fidelity' requires a one-dimensional real_density")
        rule, _, size = self.synthetic_n_rule.partition(":")
        if self.synthetic_n_rule != "equal" and not (rule == "fixed" and size.isdecimal() and int(size) > 0):
            raise ConfigError(
                f"synthetic_n_rule must be equal or fixed:<int >= 1>, got {self.synthetic_n_rule!r}"
            )
        if self.risk_method not in ("monte-carlo", "quadrature"):
            raise ConfigError(f"risk_method must be monte-carlo or quadrature, got {self.risk_method!r}")
        if self.risk_method == "quadrature" and self.real_density.dim != 1:
            raise ConfigError("risk_method quadrature requires a one-dimensional real_density")
        specs, classes = [], []
        try:
            for text in self.estimators:
                spec = parse_estimator(text)
                specs.append(replace(spec, oracle_fn=self.truth) if spec.kind == "oracle" else spec)
            for text in self.model_classes:
                classes.append(parse_model_class(text, self.real_density.dim, self.task))
        except ValueError as exc:
            raise ConfigError(f"{text!r}: {exc}") from exc
        try:
            at_zero = self.truth(np.zeros((1, self.real_density.dim)))
            finite = at_zero.shape == (1,) and bool(np.isfinite(at_zero[0]))
        except (ValueError, TypeError, IndexError):
            finite = False
        if not finite:
            raise ConfigError(f"truth {self.truth.name!r} with beta {self.truth.beta} does not give one "
                              f"finite value on a zero row of the {self.real_density.dim}-d real_density")
        # a synth_density of another dimension never fits; the chi-square bound
        # and the fidelity level also need it on the real support
        if self.synth_density.dim != self.real_density.dim or {"bound", "fidelity"} & set(self.outputs):
            try:
                _check_compatible(self.real_density, self.synth_density)
            except SupportMismatch as exc:
                raise ConfigError(f"synth_density does not fit real_density: {exc}") from exc
        object.__setattr__(self, "estimator_specs", tuple(specs))
        object.__setattr__(self, "classes", tuple(classes))

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


def _fmt(value: float) -> str:
    if math.isinf(value):
        return "inf" if value > 0 else "-inf"
    if math.isnan(value):
        return "nan"
    return repr(float(value))


def write_rows_csv(rows: Sequence[ResultRow], path) -> None:
    with open(path, "w", newline="") as fh:
        fh.write(",".join(f.name for f in fields(ResultRow)) + "\n")
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


@np.errstate(invalid="ignore")  # an infinite value has a nan halfwidth
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
    y = draw_responses(config.task, config.truth(X), config.noise, seed.child(2))
    return make_dataset(X, y, config.task)


def _error_row(name, n, rep, est_name, class_name, metric, exc) -> ResultRow:
    return ResultRow(name, n, rep, est_name, class_name, metric, float("nan"), float("nan"),
                     f"{type(exc).__name__}: {exc}")


def _risk_config(config: ScenarioConfig, seed: SeedSpec) -> RiskConfig:
    regression = config.task is TaskKind.REGRESSION
    return RiskConfig(
        density=config.real_density,
        truth=config.truth,
        loss=SQUARED if regression else ZERO_ONE,
        noise=config.noise if regression else None,
        n_test=config.n_test,
        method=config.risk_method,
        seed=seed,
    )


# Seed layouts: the child path of a unit's SeedSpec that feeds each stage,
# _EI standing for the estimator index.  A layout pins its callers' seeded
# outputs.  Sweeps and the single-draw commands use SWEEP_SEEDS on
# SeedSpec(master_seed, rep).child(n_index) (_sweep_unit), the bound suite
# SUITE_SEEDS on SeedSpec(master_seed, 1000 | 2000 + case).  star and tilde
# feed the real and the synthetic population optima of the bound and the
# comparison, bound the bound's own risk draws.  synth takes no _EI: common
# random numbers across estimators, so utilities differ only through the
# fitted estimation model.  star takes none either: the real-law optimum
# does not depend on the estimator, so a unit fits it once per class.
_EI = "ei"
SWEEP_SEEDS = dict(draw=(), risk=(3,), fit=(4, _EI), synth=(5,), star=(6,), tilde=(7, _EI),
                   bound=(9, _EI))
SUITE_SEEDS = dict(draw=(1,), fit=(2,), synth=(3,), star=(4,), tilde=(5,), risk=(6,), bound=(7,))


def _stage(method):
    """Run a unit stage at most once per arguments; a stage that failed
    raises its exception again instead of running again."""

    def once(unit, *args):
        key = (method.__name__, *args)
        if key not in unit.done:
            try:
                unit.done[key] = method(unit, *args)
            except Exception as exc:
                unit.done[key] = exc
        if isinstance(unit.done[key], Exception):
            raise unit.done[key]
        return unit.done[key]

    return once


class _Unit:
    """One draw of n points and everything computed from it: the estimation
    model fits, the synthetic data, the downstream ERM fits, the utilities,
    the bounds and the model comparison.  Each stage runs on demand with the
    seed ``layout`` gives it."""

    def __init__(self, config: ScenarioConfig, n: int, seed: SeedSpec, layout: dict):
        self.config, self.n, self.seed, self.layout = config, n, seed, layout
        self.done = {}

    def _seed(self, stage: str, ei: int = 0) -> SeedSpec:
        return self.seed.child(*(ei if k == _EI else k for k in self.layout[stage]))

    @_stage
    def original(self) -> Dataset:
        return _draw_original(self.config, self.n, self._seed("draw"))

    @_stage
    def fitted(self, ei: int):
        return fit_estimator(self.config.estimator_specs[ei], self.original(), self._seed("fit", ei))

    @_stage
    def synthetic(self, ei: int):
        """(synthetic dataset, synthetic noise model), the model None for
        classification."""
        config, est = self.config, self.fitted(ei)
        noise = synthetic_noise(config.synth_noise, est, self.original())
        return synthesize_from_fitted(est, config.synth_density, config.synthetic_n(self.n), noise,
                                      self._seed("synth")), noise

    @_stage
    def erm(self, ei: Optional[int], ci: int):
        """ERM of class ci on the synthetic data of estimator ei, or on the
        original data when ei is None."""
        data = self.original() if ei is None else self.synthetic(ei)[0]
        return fit_downstream(self.config.classes[ci], data)

    @_stage
    def optimum(self, ei: Optional[int], ci: int):
        """Population optimum of class ci under the synthetic law of estimator
        ei, or under the real law when ei is None."""
        config = self.config
        density, truth, seed = ((config.real_density, config.truth, self._seed("star")) if ei is None
                                else (config.synth_density, self.fitted(ei), self._seed("tilde", ei)))
        return population_optimum(config.classes[ci], density, truth, 100_000, seed)

    @_stage
    def utility(self, ei: int, ci: int):
        # the original-data fit goes first, so its failure is the one reported
        f_orig = self.erm(None, ci)
        return utility_metric(self.erm(ei, ci), f_orig, _risk_config(self.config, self._seed("risk")))

    @_stage
    def bound(self, ei: int, ci: int):
        """The task's analytic utility bound, assuming the synthetic noise the
        synthesis used."""
        config = self.config
        fitted = FittedQuad(self.erm(None, ci), self.erm(ei, ci),
                            self.optimum(None, ci), self.optimum(ei, ci))
        scenario = BoundScenario(config.real_density, config.synth_density, config.truth, self.fitted(ei),
                                 config.noise, self.synthetic(ei)[1])
        assemble = regression_bound if config.task is TaskKind.REGRESSION else classification_bound
        return assemble(scenario, fitted, n_test=config.n_test, seed=self._seed("bound", ei))

    @_stage
    def comparison(self):
        """The two classes' optima under the real law and under estimator 0's
        synthetic law, ranked on the utilities' risk draws."""
        optima = [self.optimum(ei, ci) for ei in (None, 0) for ci in (0, 1)]
        return compare_models(*optima, _risk_config(self.config, self._seed("risk")))


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
        chi2, beta_hat, beta_tilde, real.support,
    )
    return report, chi2, beta_hat, beta_tilde


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


def _sweep_unit(config: ScenarioConfig, n_index: int, rep: int) -> _Unit:
    """The unit of replication rep at n_grid[n_index] (an index >= 0)."""
    return _Unit(config, config.n_grid[n_index], SeedSpec(config.master_seed, rep).child(n_index),
                 SWEEP_SEEDS)


def _run_unit(config: ScenarioConfig, n_index: int, rep: int) -> List[ResultRow]:
    unit = _sweep_unit(config, n_index, rep)
    n = unit.n
    rows: List[ResultRow] = []
    # any exception, a numpy LinAlgError as well as a SyndatumError, becomes a
    # row error, so one failing unit does not end the sweep
    if "comparison" in config.outputs:
        est_name = config.estimator_specs[0].kind
        try:
            labels = tuple(mc.name for mc in config.classes)
            rows.extend(_comparison_rows(config.name, n, rep, est_name, labels, unit.comparison()))
        except Exception as exc:
            rows.append(_error_row(config.name, n, rep, est_name, "pair", "consistent", exc))

    for ei, spec in enumerate(config.estimator_specs):
        for ci, mc in enumerate(config.classes):
            row = partial(ResultRow, config.name, n, rep, spec.kind, mc.name)
            try:
                report = unit.utility(ei, ci)
            except Exception as exc:
                rows.append(_error_row(*row.args, "utility", exc))
                continue
            rows.append(row("utility", report.utility, report.combined_std_error))
            rows.append(row("risk_synth_trained", report.risk_synthetic.value,
                            report.risk_synthetic.std_error))
            rows.append(row("risk_real_trained", report.risk_original.value,
                            report.risk_original.std_error))
            if "bound" in config.outputs:
                try:
                    bound = unit.bound(ei, ci)
                except Exception as exc:
                    rows.append(_error_row(*row.args, "bound_total", exc))
                    continue
                rows.extend(row(f"bound_{key}", value, 0.0)
                            for key, value in bound.to_json_dict().items())
    return rows


def run_scenario(*configs: ScenarioConfig, workers: int = 1) -> List[ResultRow]:
    """Execute the full (n, replication) sweep of every config in one pass.

    Rows are deterministic given master_seed: replication r uses stream r, so
    dropping or reordering replications never changes other rows.  All units
    run in one pass, largest n first (so the longest do not start last), equal
    n in config and grid order.  Rows come sorted per config, configs in order.
    """
    rows, units = [], []
    for config in configs:
        # once per scenario, before any unit runs: the fidelity rows and the
        # chi-square divergence, whose per-factor cache every in-process
        # unit's bound then reads (a pool worker inherits it only under fork)
        if "bound" in config.outputs or "fidelity" in config.outputs:
            chi2 = chi_square_divergence(config.real_density, config.synth_density)
        if "fidelity" in config.outputs:
            cert = certify_fidelity_level(config.real_density, config.synth_density, d=1.0)
            rows += [ResultRow(config.name, 0, 0, "", "", "chi2", chi2, 0.0),
                     ResultRow(config.name, 0, 0, "", "", "fidelity_V@d=1", cert.V, 0.0)]
        units += [(config, ni, rep)
                  for ni, rep in product(range(len(config.n_grid)), range(config.replications))]
    args = zip(*sorted(units, key=lambda unit: -unit[0].n_grid[unit[1]]))
    if workers > 1 and len(units) > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            rows.extend(chain.from_iterable(pool.map(_run_unit, *args, chunksize=1)))
    else:
        rows.extend(chain.from_iterable(map(_run_unit, *args)))
    rank = {config.name: i for i, config in enumerate(configs)}
    return sorted(_sort_rows(rows), key=lambda row: rank[row.scenario])


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


def _fig5_configs(scale: int, master_seed: int) -> List[ScenarioConfig]:
    n = max(1, 10_000 // scale)
    # the tilt level alpha ranges over [0, 1/2] for a valid density
    # alpha (x-1) + 1/2 on [0, 2]; LinearTilt1D(s) has pdf (s (x-1) + 1) / 2,
    # so the slope passed in is 2 alpha
    return [
        ScenarioConfig(
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
            replications=max(1, 100 // scale),
            n_test=max(1000, 50_000 // scale),
            master_seed=master_seed + ai,
            risk_method="quadrature",
        )
        for ai, alpha in enumerate((0.0, 0.1, 0.2, 0.3, 0.4, 0.5))
    ]


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


def _toy_utility_rows(label, truth, mc, densities, master_seed, coef_synth=False) -> List[ResultRow]:
    """The utility of the population optima of ``mc`` on the (real, synth)
    pair ``densities(alpha)`` at each toy alpha, by quadrature; with
    ``coef_synth``, also the synthetic optimum's first coefficient."""
    rows = []
    loss = SQUARED if mc.task is TaskKind.REGRESSION else ZERO_ONE
    for ai, alpha in enumerate(_TOY_ALPHAS):
        seed = SeedSpec(master_seed, ai)
        real, synth = densities(alpha)
        fit_real = population_optimum(mc, real, truth, _TOY_M, seed.child(1))
        fit_synth = population_optimum(mc, synth, truth, _TOY_M, seed.child(2))
        report = utility_metric(fit_synth, fit_real, RiskConfig(density=real, truth=truth, loss=loss,
                                                                method="quadrature"))
        row = partial(ResultRow, f"{label}[alpha={alpha:g}]", 0, 0, "oracle", mc.name)
        rows.append(row("utility", report.utility, 0.0))
        if coef_synth:
            rows.append(row("coef_synth", float(fit_synth.coefficients[0]), 0.0))
    return rows


def _run_toy51(master_seed: int) -> List[ResultRow]:
    return _toy_utility_rows("toy-5.1", TruthSpec("abs"), make_model_class("linear", 1, TaskKind.REGRESSION),
                             lambda alpha: (_uniform_pm1(), _mass_pos(alpha)), master_seed, coef_synth=True)


def _run_toy_s1(master_seed: int) -> List[ResultRow]:
    return _toy_utility_rows("toy-S.1", TruthSpec("step-pos"),
                             make_model_class("sign-abs", 1, TaskKind.CLASSIFICATION),
                             lambda alpha: (_mass_neg(alpha), _mass_neg(1.0 - alpha)), master_seed)


def _comparison_optima(classes, real, synth, truth, m, seed):
    """Population optima of two classes, (real f1, real f2, synth f1, synth
    f2) at seed children 1-4, every one fitted on m draws."""
    return [population_optimum(mc, law, truth, m, seed.child(k))
            for k, (law, mc) in enumerate(product((real, synth), classes), 1)]


def _toy61_part(name, alpha, truth, task, class_name, boxes, labels, seed) -> List[ResultRow]:
    real, synth = _mass_neg(alpha), _mass_neg(1 - alpha)
    classes = [make_model_class(class_name, 1, task, box=box) for box in boxes]
    cfg = RiskConfig(
        density=real,
        truth=truth,
        loss=SQUARED if task is TaskKind.REGRESSION else ZERO_ONE,
        method="quadrature",
        seed=seed,
    )
    report = compare_models(*_comparison_optima(classes, real, synth, truth, _TOY_M, seed), cfg)
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
    return rows


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


def _suite_rows(name, estimator, model_class, utility, utility_se, bound_total, chi2) -> List[ResultRow]:
    values = {"utility": utility, "utility_std_error": utility_se, "bound_total": bound_total, "chi2": chi2}
    return [ResultRow(name, 0, 0, estimator, model_class, metric, float(v), 0.0)
            for metric, v in values.items()]


def _suite_case(task: TaskKind, i: int, master_seed: int) -> List[ResultRow]:
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
        master_seed=master_seed,
    )
    unit = _Unit(config, n, SeedSpec(master_seed, offset + i), SUITE_SEEDS)
    bound, u_report = unit.bound(0, 0), unit.utility(0, 0)
    return _suite_rows(config.name, est_text, class_text, u_report.utility, u_report.combined_std_error,
                       bound.total, bound.chi2)


def _suite_lr_case(i: int, master_seed: int) -> List[ResultRow]:
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

    # the risks are closed forms under the diagonal moment matrix: no std error
    return _suite_rows(f"bound-lr-{i:02d}", "ols", "linear", abs(phi(beta_tilde) - phi(beta_hat)), 0.0,
                       report.total, chi2)


def _run_bound_suite(master_seed: int) -> List[ResultRow]:
    """50 seeded scenarios with finite chi-square: 20 regression, 15
    classification, 15 explicit linear-regression bounds; a case's
    replication is its index."""
    cases = chain(
        (_suite_case(TaskKind.REGRESSION, i, master_seed) for i in range(20)),
        (_suite_case(TaskKind.CLASSIFICATION, i, master_seed) for i in range(15)),
        (_suite_lr_case(i, master_seed) for i in range(15)),
    )
    return [replace(row, replication=idx) for idx, rows in enumerate(cases) for row in rows]


# ---------------------------------------------------------------------------
# Consistent-comparison validation under the excess-risk gap condition
# ---------------------------------------------------------------------------

_CONSISTENCY_REPLICATIONS = 100


def _run_consistency(master_seed: int) -> List[ResultRow]:
    """Scenario where the gap condition holds (correct second class, so its
    excess risk vanishes): consistent comparison should hold in nearly every
    replication."""
    real = _uniform_pm1()
    synth = _mass_pos(0.75)
    truth = TruthSpec("identity")
    f1 = make_model_class("constant", 1, TaskKind.REGRESSION, box=(-1.0, 1.0))
    f2 = make_model_class("linear", 1, TaskKind.REGRESSION, box=(-2.0, 2.0))

    cert = certify_fidelity_level(real, synth, d=2.0)
    U = assumption4_sup_U(f2, truth, real, m=200_000, seed=SeedSpec(master_seed, 4001))
    phi_f1 = excess_risk(
        lambda X: np.zeros(X.shape[0]), real, truth, loss=SQUARED, method="quadrature"
    )
    phi_f2 = 0.0  # correct specification: the class contains the truth
    check = assumption4_check(cert.d, cert.V, U, phi_f1, phi_f2, phi_f1, phi_f2)

    consistent = 0
    for rep in range(_CONSISTENCY_REPLICATIONS):
        cfg = RiskConfig(
            density=real,
            truth=truth,
            loss=SQUARED,
            noise=NoiseModel.gaussian(0.25),
            method="quadrature",
            seed=SeedSpec(master_seed, 4100 + rep),
        )
        try:
            optima = _comparison_optima((f1, f2), real, synth, truth, 100_000, cfg.seed)
            consistent += int(compare_models(*optima, cfg).consistent)
        except SyndatumError:
            pass  # an indeterminate comparison does not count as consistent
    values = {"assumption4_holds": check.holds_reg, "consistent_count": consistent,
              "replications": _CONSISTENCY_REPLICATIONS}
    return [ResultRow("consistency", 0, 0, "oracle", "pair", metric, float(v), 0.0)
            for metric, v in values.items()]


# ---------------------------------------------------------------------------
# Builtin dispatch
# ---------------------------------------------------------------------------

# sweeps: name -> configs(scale, master_seed), run through run_scenario
_SWEEPS = {
    "fig3": lambda scale, seed: [_fig34_config("fig3", scale, seed)],
    "fig4": lambda scale, seed: [_fig34_config("fig4", scale, seed)],
    "fig5": _fig5_configs,
    "figS1-linear": lambda scale, seed: [_figs1_config("figS1-linear", scale, seed)],
    "figS1-logistic": lambda scale, seed: [_figs1_config("figS1-logistic", scale, seed)],
}
# fixed builtins take neither a scale nor workers: name -> rows(master_seed)
_FIXED = {
    "toy-5.1": _run_toy51,
    "toy-S.1": _run_toy_s1,
    "toy-6.1": _run_toy61,
    "fidelity-fig2": _run_fidelity_fig2,
    "bound-suite": _run_bound_suite,
    "consistency": _run_consistency,
}
BUILTIN_NAMES = (*_SWEEPS, *_FIXED)


def run_builtin(
    name: str,
    scale: int = 1,
    master_seed: int = DEFAULT_MASTER_SEED,
    workers: int = 1,
) -> List[ResultRow]:
    """Run a preconfigured experiment; see the module docstring for the menu."""
    if scale < 1:
        raise ConfigError("scale must be >= 1")
    if master_seed < 0:
        raise ConfigError(f"master_seed must be >= 0, got {master_seed}")
    if name in _SWEEPS:
        try:
            configs = _SWEEPS[name](scale, master_seed)
        except ConfigError as exc:  # a scale so large that it collapses the n grid
            raise ConfigError(f"{name} --scale {scale}: {exc}") from None
        return run_scenario(*configs, workers=workers)
    if name in _FIXED:
        return _sort_rows(_FIXED[name](master_seed))
    raise UnknownBuiltin(f"unknown builtin {name!r}; choose from {BUILTIN_NAMES}")


def default_workers() -> int:
    """SYNDATUM_WORKERS; unset and 0 mean 1."""
    env = os.environ.get("SYNDATUM_WORKERS") or "0"
    try:
        workers = int(env)
    except ValueError:
        workers = -1
    if workers < 0:
        raise ConfigError(f"SYNDATUM_WORKERS must be an integer >= 0, got {env!r}")
    return max(1, workers)


# ---------------------------------------------------------------------------
# Config files: one INI section per scenario, flat key=value entries
# ---------------------------------------------------------------------------

def _parse_task(text: str) -> TaskKind:
    try:
        return TaskKind(text.strip().lower())
    except ValueError:
        raise ConfigError(f"must be regression or classification, got {text.strip()!r}") from None


def _entries(sep: str):
    return lambda text: tuple(s.strip() for s in text.split(sep) if s.strip())


# config key -> parser of its text; an omitted key takes the ScenarioConfig default
_CONFIG_PARSERS = {
    "task": _parse_task,
    "real_density": parse_density,
    "synth_density": parse_density,
    "truth": parse_truth,
    "model_classes": _entries(";"),
    "n_grid": lambda text: tuple(int(v) for v in text.split(",")),
    "noise": parse_noise,
    "estimators": _entries(","),
    "replications": int,
    "n_test": int,
    "master_seed": int,
    "synth_noise": parse_noise,
    "synthetic_n_rule": str.strip,
    "outputs": _entries(","),
    "risk_method": str.strip,
}
_REQUIRED = {f.name for f in fields(ScenarioConfig) if f.init and f.default is MISSING} - {"name"}


def _parse_key(key: str, text: str):
    try:
        return _CONFIG_PARSERS[key](text)
    except (ValueError, SyndatumError) as exc:
        raise ConfigError(f"{key}: {exc}") from exc


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
    try:
        if not parser.read(path):
            raise ConfigError(f"cannot read config file {path}")
        sections = {section: dict(parser[section]) for section in parser.sections()}
    except configparser.Error as exc:
        raise ConfigError(f"cannot parse config file {path}: {exc}") from exc
    configs = []
    for section, raw in sections.items():
        try:
            unknown, missing = set(raw) - set(_CONFIG_PARSERS), _REQUIRED - set(raw)
            if unknown:
                raise ConfigError(f"has unknown keys {sorted(unknown)}")
            if missing:
                raise ConfigError(f"is missing required keys {sorted(missing)}")
            configs.append(ScenarioConfig(name=section, **{k: _parse_key(k, v) for k, v in raw.items()}))
        except (ValueError, SyndatumError) as exc:
            raise ConfigError(f"[{section}] {exc}") from exc
    if not configs:
        raise ConfigError(f"config file {path} defines no scenarios")
    return configs
