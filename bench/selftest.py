"""Self-test of the benchmark's tracing, on a minimal-size run.

    python3 bench/selftest.py

Runs a small config sweep (every estimator kind, bounds, fidelity, a
2-worker pool) twice with tracing on, and checks three things:
  1. the wrappers produce the named spans of every layer;
  2. span counts, count metrics and output rows repeat exactly;
  3. the layer self times cover the traced wall_s: harness.other_s, the
     time outside every span, is under 1% of it, and no self time is
     negative.
Exits 0 when all hold, 1 otherwise.
"""

import shutil
import sys
import tempfile
import time
from pathlib import Path

from common import OUT
from run import Runner
from spans import metric_unit

CONFIG = """\
[selftest-reg]
task = regression
real_density = uniform-box lower=-1 upper=1
synth_density = piecewise breaks=-1,0,1 heights=0.4,0.6
truth = abs
noise = gaussian var=0.25
estimators = knn, rf, mlp, ols
model_classes = linear; abs
n_grid = 60, 120
replications = 2
n_test = 2000
outputs = utility, fidelity

[selftest-bound]
task = regression
real_density = uniform-box lower=-1 upper=1
synth_density = piecewise breaks=-1,0,1 heights=0.4,0.6
truth = abs
noise = gaussian var=0.25
estimators = ols
model_classes = abs
n_grid = 100
n_test = 2000
outputs = utility, bound
risk_method = quadrature

[selftest-cls]
task = classification
real_density = uniform-box lower=-1 upper=1
synth_density = piecewise breaks=-1,0,1 heights=0.4,0.6
truth = logistic beta=2
estimators = logistic
model_classes = sign-linear
n_grid = 100
n_test = 2000
outputs = utility, bound
"""

NAMED_SPANS = (
    "harness.pool_unit",
    "harness.run_scenario",
    "harness.write_rows_csv",
    "cli._write_json",
    "estimators.fit_estimator",
    "estimators.predict",
    "synthesis.synthesize_from_fitted",
    "erm.fit_regression",
    "erm.fit_classification",
    "erm.population_optimum",
    "metrics.utility_metric",
    "bounds.regression_bound",
    "bounds.classification_bound",
    "densities.chi_square_divergence",
    "densities.certify_fidelity_level",
    "densities.sample",
    "datamodel.make_dataset",
)
NONZERO = (
    "estimators.fit_calls.knn",
    "estimators.fit_calls.rf",
    "estimators.fit_calls.mlp",
    "estimators.fit_calls.ols",
    "estimators.fit_calls.logistic",
    "estimators.mlp_epochs",
    "estimators.predict_rows.ols",
    "metrics.quad_calls",
    "densities.quad_calls",
    "densities.sample_rows",
    "synthesis.rows",
    "harness.worker_util",
)
# the largest share of traced wall_s that harness.other_s may take
OTHER_SHARE = 0.01


def _traced_run(config):
    scratch = tempfile.mkdtemp(prefix="selftest-", dir=OUT)
    try:
        commands = [["experiment", "--config", str(config), "--workers", "2"]]
        runner = Runner(commands, 2, {}, scratch, time.monotonic() + 300)
        rep = runner.launch(trace=True)
    finally:
        shutil.rmtree(scratch, ignore_errors=True)
    if rep["exit_codes"] != [0]:
        raise SystemExit(f"selftest run exited {rep['exit_codes']}")
    return rep, runner.digests


def main():
    OUT.mkdir(exist_ok=True)
    config = Path(tempfile.mkdtemp(prefix="selftest-cfg-", dir=OUT)) / "selftest.ini"
    config.write_text(CONFIG)
    try:
        (first, rows1), (second, rows2) = _traced_run(config), _traced_run(config)
    finally:
        shutil.rmtree(config.parent, ignore_errors=True)
    problems = []

    missing = [name for name in NAMED_SPANS if not first["span_counts"].get(name)]
    if missing:
        problems.append(f"named spans missing: {missing}")
    zero = [name for name in NONZERO if not first["layers"][name]]
    if zero:
        problems.append(f"metrics that should be non-zero: {zero}")

    if first["span_counts"] != second["span_counts"]:
        problems.append("span counts differ between two traced runs")
    counts = [n for n in first["layers"] if metric_unit(n) == "count"]
    differ = [n for n in counts if first["layers"][n] != second["layers"][n]]
    if differ:
        problems.append(f"count metrics differ between two traced runs: {differ}")
    if rows1 != rows2:
        problems.append("output rows differ between two traced runs")

    for rep in (first, second):
        selfs, other = rep["layer_self_s"], rep["layers"]["harness.other_s"]
        if other > OTHER_SHARE * rep["wall_s"]:
            problems.append(f"harness.other_s = {other:.4f} s is over {OTHER_SHARE:.0%} of wall_s {rep['wall_s']:.4f} s")
        if min(selfs.values()) < -1e-9 or other < 0:
            problems.append(f"negative self time: {selfs}, other_s {other!r}")

    for problem in problems:
        print(f"FAIL {problem}")
    print(f"{'FAIL' if problems else 'ok'}: {sum(first['span_counts'].values())} spans, "
          f"{len(rows1)} units, wall {first['wall_s']:.2f} s")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
