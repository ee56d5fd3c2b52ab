"""Run the benchmark over several seeds and summarise each metric.

    python3 bench/spread.py --seeds 1-10 [--trace 1] [--out FILE]

Run from the repository root.  Each run is a fresh `bench/run.py` process
with the workloads and `run_seconds` of BENCHMARK.json; runs are sequential.  For every workload and metric this prints the median,
the quartiles (`statistics.quantiles(values, n=4)`) and the spread, which is
the distance between the quartiles as a share of the median.  `--out` writes
every run's result line, detail line and the summary as one JSON file, the
form in which baselines under bench/results are kept.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)


def parse_seeds(text: str) -> list[int]:
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds += range(int(lo), int(hi or lo) + 1)
    return seeds


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"{workload} seed {seed} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def summarise(runs: list[dict]) -> dict:
    out = {}
    for name in runs[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in runs]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        out[name] = {
            "unit": runs[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0,
            "values": values,
        }
    return out


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}

    seconds = spec["run_seconds"]
    doc = {"seconds": seconds, "trace": args.trace, "workloads": {}}
    ok = True
    for workload in (w["name"] for w in spec["workloads"]):
        runs = []
        for seed in parse_seeds(args.seeds):
            run = run_once(workload, seed, seconds, args.trace)
            ok &= run["correct"]
            runs.append(run)
            print(f"{workload} seed {seed}: correct={run['correct']} "
                  f"ops={run['attempted']} failed={run['failed']}", file=sys.stderr)
        summary = summarise(runs)
        doc["workloads"][workload] = {"summary": summary, "runs": runs}
        for name, s in summary.items():
            bound = bounds.get(name)
            flag = "" if bound is None or s["spread"] < bound / 3 else "  <-- spread >= bound/3"
            print(f"{workload:20s} {name:38s} median {s['median']:12.6g} {s['unit']:6s} "
                  f"spread {s['spread']:.4f}{flag}")
            print("    " + " ".join(f"{v:.5g}" for v in s["values"]))
    if args.out:
        with open(args.out, "w") as fh:
            json.dump(doc, fh, indent=1, sort_keys=True)
            fh.write("\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
