"""One benchmark process: import syndatum, then run the given `syndatum`
commands in order through syndatum.cli.main and write what was measured as
JSON to --result.

    python3 bench/rep.py --commands JSON --out DIR --t0 T --result FILE
                         [--trace] [--probe] [--workers W]

--t0 is time.monotonic() in the launching process just before it started
this one, so setup_s covers interpreter start and imports.  --probe stops
after setup.  --trace installs the span wrappers of spans.py before the
first command and adds the per-layer metrics.  Run it with the environment
of common.pinned_env(), which must be set before numpy is imported.
"""

import argparse
import json
import os
import resource
import sys
import time
from pathlib import Path


def _cpu(usage):
    return usage.ru_utime + usage.ru_stime


def main(argv=None):
    parser = argparse.ArgumentParser(prog="rep.py")
    parser.add_argument("--commands", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--t0", type=float, required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args(argv)
    commands = json.loads(args.commands)

    from common import SRC

    sys.path.insert(0, str(SRC))
    import syndatum.cli

    tracer = None
    if args.trace:
        import spans

        tracer = spans.Tracer()
        spans.install(tracer)
    result = {"setup_s": time.monotonic() - args.t0}
    if not args.probe:
        self0, kids0 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
        codes, outs = [], []
        start = time.perf_counter()
        for cmd in commands:
            out = os.path.join(args.out, cmd[1])
            codes.append(syndatum.cli.main([*cmd, "--out", out]))
            outs.append(out)
        wall = time.perf_counter() - start
        self1, kids1 = resource.getrusage(resource.RUSAGE_SELF), resource.getrusage(resource.RUSAGE_CHILDREN)
        worker_cpu = _cpu(kids1) - _cpu(kids0)
        result.update(
            wall_s=wall,
            cpu_s=_cpu(self1) - _cpu(self0) + worker_cpu,
            worker_cpu_s=worker_cpu,
            rss_mb=self1.ru_maxrss / 1024,
            worker_rss_mb=kids1.ru_maxrss / 1024,
            exit_codes=codes,
            outs=outs,
        )
        if tracer is not None:
            result["layers"] = spans.layer_metrics(tracer, wall, worker_cpu, args.workers)
            result["layer_self_s"] = dict(spans.layer_self_times(tracer.spans))
            result["span_counts"] = dict(spans.span_counts(tracer))
    result["versions"] = _versions()
    Path(args.result).write_text(json.dumps(result))
    return 0


def _versions():
    import numpy
    import scipy

    blas = numpy.show_config(mode="dicts").get("Build Dependencies", {}).get("blas", {})
    return {
        "python": sys.version.split()[0],
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }


if __name__ == "__main__":
    sys.exit(main())
