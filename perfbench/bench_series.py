"""Run the benchmark repeatedly and write a BENCH_*.json summary.

    python3 perfbench/bench_series.py --out perfbench/BENCH_baseline.json [--first-seed 10]

For each workload: ten untraced runs of `run.py`, one per seed from
`--first-seed` on, then one traced run.  The summary keeps every run's end-to-end values, and per
metric the median, the quartiles (as `statistics.quantiles(values, n=4)`
gives them) and the spread (q3 - q1) / median, next to the bound in
BENCHMARK.json.  Compare two summaries only when they come from the same
host.
"""

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys

import run

RUNS = 10


def one_run(workload, seed, seconds, trace):
    out = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, check=True, timeout=600,
    )
    lines = out.stdout.decode().strip().splitlines()
    env = json.loads(lines[-2])["env"]
    return env, json.loads(lines[-1])


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def summarize(results, bench):
    out = {}
    for metric in bench["end_to_end"]:
        name = metric["name"]
        values = [r["metrics"][name]["value"] for r in results]
        q1, _, q3 = statistics.quantiles(values, n=4)
        med = statistics.median(values)
        out[name] = {
            "unit": metric["unit"], "bound": metric["bound"], "median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "values": values,
        }
    return out


def main(argv=None):
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--out", required=True)
    ap.add_argument("--first-seed", type=int, default=10)
    args = ap.parse_args(argv)
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    seconds = bench["run_seconds"]
    report = {"cpu_model": cpu_model(), "run_seconds": seconds, "workloads": {}}
    for workload in run.WORKLOADS:
        results = []
        for seed in range(args.first_seed, args.first_seed + RUNS):
            env, res = one_run(workload, seed, seconds, 0)
            results.append(res)
            print(workload, seed, json.dumps(res), flush=True)
        env, traced = one_run(workload, args.first_seed, seconds, 1)
        report["env"] = {k: v for k, v in env.items() if k not in ("workload", "seed", "trace")}
        report["workloads"][workload] = {
            "seeds": [args.first_seed, args.first_seed + RUNS - 1],
            "all_correct": all(r["correct"] for r in results) and traced["correct"],
            "end_to_end": summarize(results, bench),
            "per_layer": {k: v["value"] for k, v in traced["metrics"].items()},
        }
    with open(args.out, "w") as fh:
        json.dump(report, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
