"""Tests of the benchmark itself: inputs, tracer wiring and failure counting."""

from __future__ import annotations

import os
import sys
from fractions import Fraction

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(os.path.dirname(HERE), "src"))

import qhyper  # noqa: E402
import qhyper.cli  # noqa: E402,F401
import run as bench_run  # noqa: E402
import workloads  # noqa: E402
from qhyper import families, scalars  # noqa: E402
from qhyper.verify import SUITES  # noqa: E402
from tracer import Tracer  # noqa: E402


def test_ops_are_a_function_of_the_seed():
    for workload in workloads.WORKLOADS:
        assert workloads.make_ops(workload, 7, 2) == workloads.make_ops(workload, 7, 2)
        assert workloads.make_ops(workload, 7, 2) != workloads.make_ops(workload, 8, 2)
    # the numeric pool is fixed: another seed only reorders it
    a = workloads.make_ops("suite-numeric-deep", 7, 2)
    b = workloads.make_ops("suite-numeric-deep", 8, 2)
    assert sorted(a, key=repr) == sorted(b, key=repr)


def test_tracer_sees_calls_through_every_binding():
    pt = families.FamilyPoint(Fraction(1, 2), Fraction(-1, 3), Fraction(2), 6)
    pv = families.ParamVector((Fraction(1, 3),), (Fraction(1, 5),))
    q = Fraction(1, 3)
    expected = families.psi_general(pt, pv, q)
    originals = (scalars.qpoch, families.qpoch, families.qbinom, qhyper.psi_general)
    tracer = Tracer(qhyper)
    tracer.install()
    try:
        assert families.qpoch is not originals[1]
        value = qhyper.psi_general(pt, pv, q)
    finally:
        tracer.uninstall()
    assert value == expected
    assert tracer.calls("families.psi_general") == 1
    assert tracer.calls("scalars.qbinom") == 7
    assert tracer.calls("scalars.qpoch") > 0
    assert 0 < tracer.counts["qpoch_repeats"] < tracer.calls("scalars.qpoch")
    assert tracer.self_s("families.psi_general") > 0
    assert (scalars.qpoch, families.qpoch, families.qbinom, qhyper.psi_general) == originals


def test_tracer_counts_qpoch_inf_factors():
    a, q, eps = Fraction(2, 3), Fraction(1, 2), Fraction(1, 1000)
    factors, aq = 0, a
    while abs(aq) >= eps:
        factors, aq = factors + 1, aq * q
    expected = scalars.qpoch_inf(a, q, eps)
    tracer = Tracer(qhyper)
    tracer.install()
    try:
        value = qhyper.qpoch_inf(a, q, eps)
    finally:
        tracer.uninstall()
    assert value == expected
    assert tracer.counts["qpoch_inf_factors"] == factors == 10
    assert tracer.counts["qpoch_inf_max_bits"] == max(value.numerator.bit_length(),
                                                      value.denominator.bit_length())


def test_failed_and_errored_trials_count_against_pass_frac(monkeypatch):
    def boom(rng, config):
        raise ValueError("not a sampler error")

    def sampler_exhausted(rng, config):
        raise RuntimeError("100 consecutive sample rejections")

    ok = workloads.SuiteOp("euler-pair", 1)
    monkeypatch.setattr(SUITES["cauchy-gf"], "runner", boom)
    monkeypatch.setattr(SUITES["shift-identity"], "runner", sampler_exhausted)
    ops = [ok, workloads.SuiteOp("cauchy-gf", 1), workloads.SuiteOp("shift-identity", 1)]
    results, _ = bench_run.run_ops(qhyper, ops, workloads.OutputCheck("suite-exact"))
    assert [r.failed for r in results] == [False, True, True]
    assert "not a sampler error" in results[1].error  # escaped run_suite
    assert results[2].error.startswith("errored")  # an errored report row
    metrics = bench_run.end_to_end(results, [0.1])
    assert metrics["pass_frac"][0] == 1 / 3


def test_cli_identity_checks_catch_a_wrong_coefficient():
    ops = [op for op in workloads.make_ops("cli-interactive", 3, 1)
           if op.argv[1] in ("euler", "euler-inv", "gf-psi-lhs", "gf-psi-rhs")]
    check = workloads.OutputCheck("cli-interactive")
    results, _ = bench_run.run_ops(qhyper, ops, check)
    assert check.mismatches == [] and check.out_bytes > 0
    assert all(r.output is None for r in results)  # outputs are not kept

    results = [workloads.run_op(qhyper, op) for op in ops]
    code, out = results[0].output
    lines = out.splitlines()
    lines[1] = lines[1].split("\t")[0] + "\t1/7"
    results[0].output = (code, "\n".join(lines) + "\n")
    check = workloads.OutputCheck("cli-interactive")
    for res in results:
        check.add(res)
    assert len(check.mismatches) == 1


def test_latencies_are_scaled_by_the_probes_around_them():
    nominal = bench_run.PROBE_NOMINAL_S
    results = [workloads.OpResult(None, 0.5, False, []) for _ in range(3)]
    spans = [(10.0, 10.5), (10.5, 11.0), (20.0, 20.5)]
    probes = [(9.9, 2 * nominal), (10.5, 2 * nominal), (11.0, 100 * nominal),
              (11.1, 2 * nominal), (19.9, 4 * nominal), (20.5, 4 * nominal)]
    bench_run.scale_latencies(results, spans, probes)
    # the ops at 10 s ran at half speed; one outlying probe does not move a median
    assert [r.scaled for r in results] == [0.25, 0.25, 0.125]
