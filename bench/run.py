"""qhyper benchmark: time to verdict on seeded workloads, plus a traced run.

    python3 bench/run.py --workload suite-exact --seed 1 --seconds 20 --trace 0

Run from the repository root.  The process imports qhyper from `src/`, makes
the workload's ops from the seed, runs them one after another (a closed loop
with one caller), checks every verdict, and prints a detail line followed by
one JSON result line.  `--trace 0` reports the end-to-end metrics; `--trace 1`
runs the same ops traced and then untraced and reports the per-layer metrics.
See bench/README.md for the workloads, metrics and the layer-to-metric map.
"""

from __future__ import annotations

import argparse
import bisect
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import workloads  # noqa: E402
from coldstart import PROBE_NOMINAL_S, import_qhyper, speed_probe  # noqa: E402
from tracer import Tracer  # noqa: E402

#: Cold processes that each repeat the set-up; setup_s is their median.
SETUP_SAMPLES = 7

PROBE_WINDOW_S = 0.5

#: After each op the speed probe runs repeatedly, for about this share of the
#: op's time (at least once, at most PROBES_MAX times), so that a long op is
#: scaled by more samples of the machine's speed than a short one.
PROBE_SHARE = 0.01
PROBES_MAX = 20

#: Numeric suites' ids, for the per-suite time metrics.
NUMERIC_SUITES = tuple(workloads.NUMERIC_POOL)


def setup_sample(workload: str, seed: int, rounds: int) -> float:
    """Scaled set-up time of a fresh interpreter, from before `import qhyper`."""
    out = subprocess.run(
        [sys.executable, os.path.join(HERE, "coldstart.py"), workload, str(seed), str(rounds)],
        capture_output=True, text=True, check=True, timeout=120,
    )
    return float(out.stdout.strip().splitlines()[-1])


def run_ops(qhyper, ops, check):
    """Run every op in order, with speed probes before the first op and after each.

    Each op's output goes into `check` (a `workloads.OutputCheck`) as soon as
    the op ends.  Returns the results, with scaled latencies and without
    outputs, and the probes' seconds.
    """
    probes, spans, results = [(time.perf_counter(), speed_probe())], [], []
    for op in ops:
        start = time.perf_counter()
        res = workloads.run_op(qhyper, op)
        end = time.perf_counter()
        spans.append((start, end))
        for _ in range(min(PROBES_MAX, max(1, round(PROBE_SHARE * (end - start) / PROBE_NOMINAL_S)))):
            probes.append((time.perf_counter(), speed_probe()))
        check.add(res)
        results.append(res)
    scale_latencies(results, spans, probes)
    return results, [seconds for _, seconds in probes]


def scale_latencies(results, spans, probes) -> None:
    """Set each result's `scaled` latency: its measured latency at nominal speed.

    The machine's speed during an op is the median of the probes that started
    within PROBE_WINDOW_S, or half the op's length if that is more, of the
    op's (start, end) span, relative to PROBE_NOMINAL_S.  No probe runs inside
    an op, so a long op is judged by the probes over a stretch as long as
    itself on either side.  The probes just before and after always qualify.
    """
    starts = [t for t, _ in probes]
    for res, (start, end) in zip(results, spans):
        margin = max(PROBE_WINDOW_S, (end - start) / 2)
        lo = bisect.bisect_left(starts, start - margin)
        hi = bisect.bisect_right(starts, end + margin)
        res.scaled = res.seconds * PROBE_NOMINAL_S / statistics.median(
            seconds for _, seconds in probes[lo:hi]
        )


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) at the highest percentile with >= 10 ops above it."""
    ordered = sorted(latencies)
    idx = max(0, len(ordered) - 11)
    return ordered[idx], 100.0 * (idx + 1) / len(ordered)


def end_to_end(results, setup_samples) -> dict:
    lat = [r.scaled for r in results]
    failed = sum(r.failed for r in results)
    return {
        "setup_s": (statistics.median(setup_samples), "s"),
        "wall_s": (sum(lat), "s"),
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail(lat)[0] * 1e3, "ms"),
        "pass_frac": ((len(results) - failed) / len(results), "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }


def per_layer(tracer: Tracer, results, untraced_results, out_bytes: int) -> dict:
    m = {}

    def timed(key, *fields):
        for f in fields:
            if f == "calls":
                m[f"{key}.calls"] = (tracer.calls(key), "count")
            else:
                m[f"{key}.self_s"] = (tracer.self_s(key), "s")

    c = tracer.counts
    qpoch_calls = tracer.calls("scalars.qpoch")
    timed("scalars.qpoch", "calls", "self_s")
    m["scalars.qpoch.n_total"] = (c["qpoch_n_total"], "count")
    m["scalars.qpoch.repeat_frac"] = (c["qpoch_repeats"] / qpoch_calls if qpoch_calls else 0.0, "ratio")
    timed("scalars.qbinom", "calls", "self_s")
    timed("scalars.qpoch_inf", "calls", "self_s")
    m["scalars.qpoch_inf.factors"] = (c["qpoch_inf_factors"], "count")
    m["scalars.qpoch_inf.max_bits"] = (c["qpoch_inf_max_bits"], "bits")
    timed("series.TruncSeries.mul", "calls", "self_s")
    timed("series.TruncSeries.inverse", "calls", "self_s")
    euler = ("series.euler_product_series", "series.euler_inverse_series")
    m["series.euler.calls"] = (sum(tracer.calls(k) for k in euler), "count")
    m["series.euler.self_s"] = (sum(tracer.self_s(k) for k in euler), "s")
    for name in ("psi_general", "asc_psi", "W_coeff", "cauchy_P"):
        timed(f"families.{name}", "calls", "self_s")
    for name in ("op_apply_poly", "theta_basis"):
        timed(f"operators.{name}", "calls", "self_s")
    timed("hyper.rphis_numeric", "calls", "self_s")
    timed("hyper.phi_term", "calls")
    timed("hyper.rphis_series_in_t", "calls", "self_s")
    timed("reductions.check_item", "calls", "self_s")
    timed("verify.truncated_sum", "calls", "self_s")
    m["verify.truncated_sum.terms"] = (c["truncated_sum_terms"], "count")
    timed("verify.resample", "calls")
    m["verify.resample.rejections"] = (c["resample_rejections"], "count")
    suite_totals = dict.fromkeys(workloads.EXACT_SUITES + NUMERIC_SUITES, 0.0)
    for r in untraced_results:
        if isinstance(r.op, workloads.SuiteOp):
            suite_totals[r.op.suite] += r.scaled
    for sid in sorted(suite_totals):
        m[f"verify.suite.{sid}.total_s"] = (suite_totals[sid], "s")
    timed("cli.main", "calls", "self_s")
    m["cli.main.out_bytes"] = (out_bytes, "bytes")
    for layer, (calls, self_s) in tracer.layer_totals().items():
        m[f"layer.{layer}.calls"] = (calls, "count")
        m[f"layer.{layer}.self_s"] = (self_s, "s")
    traced_wall = sum(r.scaled for r in results)
    m["trace.overhead_frac"] = (traced_wall / sum(r.scaled for r in untraced_results) - 1, "ratio")
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    rounds = workloads.rounds_for(args.workload, args.seconds)
    qhyper = import_qhyper()
    ops = workloads.make_ops(args.workload, args.seed, rounds)
    check = workloads.OutputCheck(args.workload)

    if args.trace:
        # traced pass first, so the per-layer counts see a cold process
        tracer = Tracer(qhyper)
        tracer.install()
        try:
            results, probes = run_ops(qhyper, ops, check)
        finally:
            tracer.uninstall()
        reference_check = workloads.OutputCheck(args.workload)
        reference, _ = run_ops(qhyper, ops, reference_check)
        metrics = per_layer(tracer, results, reference, check.out_bytes)
        hashes = {"untraced": reference_check.digest(), "traced": check.digest()}
        failed = [a.failed or b.failed for a, b in zip(results, reference)]
        mismatches = check.mismatches + reference_check.mismatches
    else:
        results, probes = run_ops(qhyper, ops, check)
        setup_samples = [setup_sample(args.workload, args.seed, rounds) for _ in range(SETUP_SAMPLES)]
        metrics = end_to_end(results, setup_samples)
        hashes = {"untraced": check.digest()}
        failed = [r.failed for r in results]
        mismatches = check.mismatches

    errors = [f"{r.op}: {r.error}" for r in results if r.failed] + mismatches
    correct = not errors and not any(failed) and len(set(hashes.values())) == 1
    if not correct:
        print(f"benchmark run INCORRECT: {sum(failed)} of {len(ops)} ops failed, "
              f"{len(errors)} errors, hashes {hashes}", file=sys.stderr)
        for line in errors[:20]:
            print("  " + line, file=sys.stderr)
    detail = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": len(ops),
        "rounds": rounds,
        "tail_percentile": tail([r.scaled for r in results])[1],
        "measured_wall_s": sum(r.seconds for r in results),
        "measured_op_p50_ms": statistics.median(r.seconds for r in results) * 1e3,
        "measured_op_tail_ms": tail([r.seconds for r in results])[0] * 1e3,
        "probe_median_ms": statistics.median(probes) * 1e3,
        "fail_frac": sum(failed) / len(ops),
        "output_sha256": hashes,
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "cores": os.cpu_count(),
        "machine": platform.machine(),
    }
    print(json.dumps({"detail": detail}, sort_keys=True))
    print(json.dumps({
        "correct": correct,
        "attempted": len(ops),
        "failed": sum(failed),
        "metrics": {name: {"value": v, "unit": u} for name, (v, u) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
