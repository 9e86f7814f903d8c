"""In-memory span tracing of syndatum's layers for the benchmark's traced pass.

install() rebinds every public function of each syndatum module, in every
syndatum module that binds it, to a wrapper that records a span: name,
start, end and parent span.  Nested calls therefore become child spans
(population_optimum -> est.mean -> fit_regression).  A few more boundaries
are wrapped by hand: the estimators' returned mean/prob callables, density
sampling, the summary.json writer, the pool that runs harness units, and
scipy's quad as called by densities and metrics (a call count only).
Per-point callables that quadrature evaluates are never wrapped.

Spans stay in memory until the run ends; layer_metrics() reduces them to
the benchmark's per-layer metrics.  A span's self time is its duration
minus the time its children cover; its layer is the module it is named by.
"""

import collections
import functools
import importlib
import inspect
import itertools
import sys
from time import perf_counter

LAYERS = ("datamodel", "densities", "estimators", "synthesis", "erm", "metrics", "bounds", "harness", "cli")
# the benchmark times cli.main itself; time outside every span is harness.other_s
_UNTRACED = {("cli", "main")}

RISK = {"metrics.estimate_risk", "metrics.excess_risk", "metrics.risks_common_draws"}
FIDELITY = {"densities.certify_fidelity_level", "densities.fidelity_tail_probability"}
ERM_FIT = {"erm.fit_regression", "erm.fit_classification"}
SYNTH = {"synthesis.synthesize_from_fitted", "synthesis.synthesize_dataset"}
WRITE = {"harness.write_rows_csv", "cli._write_json"}

# the tracer of this process, which pool workers reach through _unit_call
_ACTIVE = None


class Tracer:
    """Spans are lists [name, start, end, parent index or -1, key, amount];
    key and amount annotate a span, e.g. estimator kind and rows predicted."""

    def __init__(self):
        self.spans = []
        self.stack = []
        self.counts = collections.Counter()
        self.worker_spans = []  # one span list per unit run in a pool worker
        self.worker_counts = collections.Counter()

    def wrap(self, name, fn, annotate=None):
        spans = self.spans

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self.stack
            span = [name, 0.0, 0.0, stack[-1] if stack else -1, None, 0]
            stack.append(len(spans))
            spans.append(span)
            span[1] = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                span[2] = perf_counter()
                stack.pop()
            if annotate is not None:
                span[4], span[5] = annotate(args, result)
            return result

        return traced

    def counter(self, name, fn):
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            counts[name] += 1
            return fn(*args, **kwargs)

        return counted


def _fit_info(args, est):
    return est.kind, est.fitted_params.get("epochs_run", 0)


def _predict_info(args, result):
    X = args[1]
    return args[0].kind, (len(X) if getattr(X, "ndim", 2) == 2 else 1)


def _sample_info(args, X):
    return None, len(X)


def _synth_info(args, data):
    return None, data.n


def _rebind(namespaces, old, new):
    for ns in namespaces:
        for attr, value in list(vars(ns).items()):
            if value is old:
                setattr(ns, attr, new)


def install(tracer):
    """Wrap syndatum's layer boundaries so that calls record into `tracer`."""
    global _ACTIVE
    mods = {layer: importlib.import_module(f"syndatum.{layer}") for layer in LAYERS}
    namespaces = [*mods.values(), sys.modules["syndatum"]]
    annotate = {
        "estimators.fit_estimator": _fit_info,
        "synthesis.synthesize_from_fitted": _synth_info,
        "synthesis.synthesize_dataset": _synth_info,
    }
    for layer, mod in mods.items():
        for name, fn in list(vars(mod).items()):
            if (
                name.startswith("_")
                or not inspect.isfunction(fn)
                or fn.__module__ != mod.__name__
                or (layer, name) in _UNTRACED
            ):
                continue
            span = f"{layer}.{name}"
            _rebind(namespaces, fn, tracer.wrap(span, fn, annotate.get(span)))
    # summary.json is written by a private helper; the self-test fails if it goes
    cli = mods["cli"]
    _rebind(namespaces, cli._write_json, tracer.wrap("cli._write_json", cli._write_json))
    est_cls = mods["estimators"].FittedEstimator
    for method in ("mean", "prob"):
        setattr(est_cls, method, tracer.wrap("estimators.predict", getattr(est_cls, method), _predict_info))
    density_cls = mods["densities"].DensityModel
    density_cls.sample = tracer.wrap("densities.sample", density_cls.sample, _sample_info)
    for layer in ("densities", "metrics"):
        mods[layer].quad = tracer.counter(f"{layer}.quad_calls", mods[layer].quad)
    mods["harness"].ProcessPoolExecutor = _traced_pool(tracer, mods["harness"].ProcessPoolExecutor)
    _ACTIVE = tracer


def _traced_pool(tracer, base):
    class TracedPool(base):
        """Runs each mapped unit under _unit_call and keeps the spans it returns."""

        def map(self, fn, *iterables, **kwargs):
            units = super().map(_unit_call, itertools.repeat(fn), *iterables, **kwargs)
            for result, spans, counts in units:
                tracer.worker_spans.append(spans)
                tracer.worker_counts.update(counts)
                yield result

    return TracedPool


def _unit_call(fn, *args):
    """Run one pool unit in a worker; return its result with the spans and
    counts it recorded, so the parent process can collect them."""
    tracer = _ACTIVE
    if tracer is None:  # a worker that was not forked from the traced process
        import syndatum.cli  # noqa: F401

        install(tracer := Tracer())
    start, counts, stack = len(tracer.spans), tracer.counts.copy(), tracer.stack
    tracer.stack = []
    try:
        result = tracer.wrap("harness.pool_unit", fn)(*args)
    finally:
        tracer.stack = stack
    spans = [
        [name, t0, t1, parent - start if parent >= 0 else -1, key, amount]
        for name, t0, t1, parent, key, amount in tracer.spans[start:]
    ]
    del tracer.spans[start:]
    return result, spans, tracer.counts - counts


def metric_unit(name):
    """Unit of a per-layer metric, from its name."""
    if name.endswith("_s") or "_s." in name:
        return "s"
    if name.endswith(("_frac", "_util")):
        return "frac"
    return "count"


def self_times(spans):
    own = [s[2] - s[1] for s in spans]
    for s in spans:
        if s[3] >= 0:
            own[s[3]] -= s[2] - s[1]
    return own


def _outermost(spans, names):
    """Spans named in `names` with no ancestor named in `names`."""
    out = []
    for s in spans:
        if s[0] in names:
            parent = s[3]
            while parent >= 0 and spans[parent][0] not in names:
                parent = spans[parent][3]
            if parent < 0:
                out.append(s)
    return out


def layer_self_times(spans):
    totals = collections.Counter()
    for s, own in zip(spans, self_times(spans)):
        totals[s[0].split(".", 1)[0]] += own
    return totals


def span_counts(tracer):
    counts = collections.Counter(s[0] for s in tracer.spans)
    for spans in tracer.worker_spans:
        counts.update(s[0] for s in spans)
    return counts


def layer_metrics(tracer, wall_s, worker_cpu_s, workers):
    """Per-layer metrics of one traced run of the workload's commands.

    Time and count metrics sum over the benchmark process and its pool
    workers; harness.other_s is the benchmark process's traced wall time
    outside every span."""
    lists = [tracer.spans, *tracer.worker_spans]
    counts = tracer.counts + tracer.worker_counts
    m = {}

    def outer(names, key):
        return [s for sp in lists for s in _outermost(sp, names) if key in (None, s[4])]

    def dur(names, key=None):
        return sum(s[2] - s[1] for s in outer(names, key))

    def calls(names, key=None):
        return len(outer(names, key))

    def amount(names, key=None):
        return sum(s[5] for s in outer(names, key))

    selfs = collections.Counter()
    for sp in lists:
        selfs.update(layer_self_times(sp))
    fit, predict = {"estimators.fit_estimator"}, {"estimators.predict"}
    for kind in importlib.import_module("syndatum.estimators").ESTIMATOR_KINDS:
        m[f"estimators.fit_s.{kind}"] = dur(fit, kind)
        m[f"estimators.fit_calls.{kind}"] = calls(fit, kind)
        m[f"estimators.predict_s.{kind}"] = dur(predict, kind)
        m[f"estimators.predict_rows.{kind}"] = amount(predict, kind)
    m["estimators.mlp_epochs"] = amount(fit, "mlp")
    m["erm.fit_s"] = dur(ERM_FIT)
    m["erm.fit_calls"] = calls(ERM_FIT)
    m["erm.population_optimum_s"] = dur({"erm.population_optimum"})
    m["erm.population_optimum_calls"] = calls({"erm.population_optimum"})
    m["metrics.risk_s"] = selfs["metrics"]
    m["metrics.risk_calls"] = calls(RISK)
    m["metrics.quad_calls"] = counts["metrics.quad_calls"]
    m["bounds.self_s"] = selfs["bounds"]
    m["bounds.calls"] = calls({s[0] for sp in lists for s in sp if s[0].startswith("bounds.")})
    m["densities.fidelity_s"] = dur(FIDELITY)
    m["densities.fidelity_calls"] = calls(FIDELITY)
    m["densities.chi2_s"] = dur({"densities.chi_square_divergence"})
    m["densities.chi2_calls"] = calls({"densities.chi_square_divergence"})
    m["densities.quad_calls"] = counts["densities.quad_calls"]
    m["densities.sample_s"] = dur({"densities.sample"})
    m["densities.sample_rows"] = amount({"densities.sample"})
    m["synthesis.self_s"] = selfs["synthesis"]
    m["synthesis.rows"] = amount(SYNTH)
    m["harness.worker_util"] = worker_cpu_s / (workers * wall_s)
    m["harness.other_s"] = wall_s - sum(s[2] - s[1] for s in tracer.spans if s[3] < 0)
    m["cli.write_s"] = dur(WRITE)
    return m
