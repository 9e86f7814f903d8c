"""Run the benchmark over several seeds and write a BENCH_<tag>.json result set.

    python3 bench/baseline.py --tag TAG

For each workload, runs `run.py --trace 0` once per seed 0-9, with the
run_seconds of BENCHMARK.json, and `run.py --trace 1` twice on seed 0.
It writes bench/BENCH_TAG.json.  For every metric it records the values,
their median and quartiles, and the spread (q3 - q1) / median that the
benchmark's bounds are checked against.  Traced runs of one seed must give
identical counts.
"""

import argparse
import json
import statistics
import subprocess
import sys

from common import BENCH, ROOT
from spans import metric_unit

SEEDS = list(range(10))
TRACE_RUNS = 2


def _run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=200,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed} trace {trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["run_record"], json.loads(lines[-1])


def _stats(values):
    q1, median, q3 = statistics.quantiles(values, n=4)
    return {
        "median": median,
        "q1": q1,
        "q3": q3,
        "spread": (q3 - q1) / median,
        "values": values,
    }


def main(argv=None):
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(prog="baseline.py")
    parser.add_argument("--tag", required=True)
    args = parser.parse_args(argv)
    seconds = spec["run_seconds"]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    result = {"tag": args.tag, "run_seconds": seconds, "seeds": SEEDS, "workloads": {}}
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in SEEDS:
            record, res = _run(workload, seed, seconds, 0)
            runs.append({"record": record, "result": res})
            print(f"{workload} seed {seed}: " + " ".join(
                f"{k}={v['value']:.4g}" for k, v in res["metrics"].items()), flush=True)
        summary = {}
        for name in runs[0]["result"]["metrics"]:
            stats = _stats([r["result"]["metrics"][name]["value"] for r in runs])
            stats["bound"] = bounds.get(name)
            summary[name] = stats
        traced = [_run(workload, SEEDS[0], seconds, 1) for _ in range(TRACE_RUNS)]
        layers = traced[0][1]["metrics"]
        counts_repeat = all(
            t[1]["metrics"][n]["value"] == layers[n]["value"]
            for t in traced for n in layers if metric_unit(n) == "count"
        )
        result["workloads"][workload] = {
            "correct": all(r["result"]["correct"] for r in runs + [{"result": t[1]} for t in traced]),
            "summary": summary,
            "traced": {"seed": SEEDS[0], "counts_repeat": counts_repeat, "runs": [t[1]["metrics"] for t in traced],
                       "record": traced[0][0]},
            "runs": runs,
        }
        print(f"{workload}: " + " ".join(
            f"{k} median={s['median']:.4g} spread={s['spread']:.3%}" for k, s in summary.items()
        ) + f" counts_repeat={counts_repeat}", flush=True)
    with open(BENCH / f"BENCH_{args.tag}.json", "w") as fh:
        json.dump(result, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
