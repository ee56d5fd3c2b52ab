"""End-to-end acceptance checks for the identity-verification engine.

Each test prints a one-line verdict so the run log doubles as an
acceptance report.
"""

import hashlib
import json
import random
import time
from fractions import Fraction as F
from functools import lru_cache

import pytest

from qhyper.cli import main
from qhyper.families import cauchy_P
from qhyper.operators import CauchyPoly, theta_basis, theta_pointwise_power
from qhyper.verify import SUITES, RunConfig, run_suite

FORMAL_SUITES = sorted(s for s, d in SUITES.items() if d.mode == "formal")
EXACT_SUITES = sorted(s for s, d in SUITES.items() if d.mode == "exact")
NUMERIC_SUITES = sorted(s for s, d in SUITES.items() if d.mode == "numeric")


def _verdict(label, ok):
    print(f"acceptance {label}: {'PASS' if ok else 'FAIL'}")
    assert ok, label


@lru_cache(maxsize=None)
def _numeric_reports(epsilon_bits):
    config = RunConfig(trials=10, order=12, epsilon_bits=epsilon_bits, seed=42)
    out = {}
    for sid in NUMERIC_SUITES:
        out[sid] = run_suite(sid, config)
    return out


def test_criterion_1_formal_suites_vanish_identically():
    config = RunConfig(trials=10, order=12, seed=42)
    start = time.monotonic()
    reports = []
    for sid in FORMAL_SUITES:
        reports.extend(run_suite(sid, config))
    elapsed = time.monotonic() - start
    ok = (
        reports
        and all(r.passed and r.deviation == 0 for r in reports)
        and elapsed < 120
    )
    _verdict(
        f"1 (formal, {len(reports)} reports, {elapsed:.1f}s)", ok
    )


def test_criterion_2_terminating_summations_exact():
    config = RunConfig(trials=10, order=20, seed=42)
    reports = run_suite("chu-vandermonde-II6", config)
    reports += run_suite("chu-vandermonde-II7", config)
    ok = all(r.passed and r.deviation == 0 for r in reports) and len(reports) == 20
    _verdict("2 (terminating summations)", ok)


def test_criterion_3_numeric_suites_within_tolerance():
    start = time.monotonic()
    reports = _numeric_reports(80)
    elapsed = time.monotonic() - start
    flat = [r for reps in reports.values() for r in reps]
    ok = (
        len(flat) >= 10 * len(NUMERIC_SUITES)
        and all(r.passed for r in flat)
        and elapsed < 180
    )
    _verdict(f"3 (numeric, {len(flat)} reports, {elapsed:.1f}s)", ok)


def test_criterion_4_operator_powers_agree_pointwise():
    q = F(1, 2)
    rng = random.Random(424242)
    points = []
    while len(points) < 20:
        x0 = F(rng.randint(-40, 40), rng.randint(1, 40))
        y0 = F(rng.randint(-40, 40), rng.randint(1, 40))
        if x0 == 0 or y0 == 0:
            continue
        # the nested quotient rule divides by x q^-i - y q^j; reject any
        # point with x0/y0 on the q-power grid
        if any(x0 - y0 * q**m == 0 for m in range(-20, 21)):
            continue
        points.append((x0, y0))
    ok = True
    for x0, y0 in points:
        for n in range(9):
            f = lambda x, y, n=n: cauchy_P(n, y, x, q)
            for k in range(n + 1):
                lhs = theta_pointwise_power(f, k, q)(x0, y0)
                rhs = theta_basis(CauchyPoly.basis(n), k, q).evaluate(x0, y0, q)
                ok = ok and lhs == rhs
    _verdict("4 (operator powers, 20 points)", ok)


def test_criterion_5_reduction_catalogue_definitive():
    reports = run_suite("remark2", RunConfig(trials=10, seed=42))
    by_item = {}
    for r in reports:
        by_item.setdefault(r.id, []).append(r)
    ok = len(by_item) == 11 and all(
        r.passed and r.deviation == 0 for r in reports
    )
    # items 1, 2, 3, 5 hold under the stated substitutions
    for i in (1, 2, 5):
        ok = ok and all("corrected" not in r.notes for r in by_item[f"remark2:item{i:02d}"])
    ok = ok and all(
        "substitution-list" in r.notes for r in by_item["remark2:item03"]
    )
    # the rest carry a definitive corrected reading with its residual
    for i in (4, 6, 7, 8, 9, 10, 11):
        ok = ok and all(r.notes for r in by_item[f"remark2:item{i:02d}"])
    _verdict("5 (reduction catalogue)", ok)


def test_criterion_6_reports_reproducible(tmp_path, capsys):
    paths = [tmp_path / "run1.json", tmp_path / "run2.json"]
    for p in paths:
        code = main(
            ["check", "--suite", "all", "--seed", "42", "--report-path", str(p)]
        )
        assert code == 0
    capsys.readouterr()
    raw = [p.read_bytes() for p in paths]
    doc = json.loads(raw[0])
    ok = raw[0] == raw[1] and len(doc["reports"]) > 400
    _verdict(f"6 (reproducibility, {len(doc['reports'])} reports)", ok)


def test_criterion_7_numeric_verdicts_stable_under_deeper_truncation():
    base = _numeric_reports(80)
    deep = _numeric_reports(160)
    ok = True
    bound = F(1, 1 << 39)
    for sid in NUMERIC_SUITES:
        a, b = base[sid], deep[sid]
        ok = ok and len(a) == len(b)
        for ra, rb in zip(a, b):
            ok = ok and (ra.id, ra.trial) == (rb.id, rb.trial)
            ok = ok and ra.passed == rb.passed
            ok = ok and abs(ra.deviation - rb.deviation) < bound
    _verdict("7 (truncation stability)", ok)


def row_digest(reports):
    """sha256 of (id, seed, trial, pass, deviation in hex, notes) per row;
    hex has no digit limit, so a deep deviation needs no str() of its own."""
    h = hashlib.sha256()
    for r in reports:
        d = r.deviation
        h.update(repr((r.id, r.seed, r.trial, r.passed, hex(d.numerator), hex(d.denominator),
                       r.notes)).encode())
    return h.hexdigest()


NUMERIC_ROW_DIGESTS = {
    80: "48bdb19d343026a8da711d96c4c7aa68a9decf953fdf890fa8400d4128bee131",
    160: "37a350c3a2298e06cd172cdd8240dbab1058474b7b96185c32ef90c692a2202f",
}


def test_numeric_report_oracle():
    """Every numeric row of criteria 3 and 7, deviation included: a faster
    numeric path must leave each one byte-identical."""
    ok = all(
        row_digest(r for sid in NUMERIC_SUITES for r in _numeric_reports(bits)[sid]) == digest
        for bits, digest in NUMERIC_ROW_DIGESTS.items()
    )
    _verdict("numeric report oracle", ok)


THM4_LOW_EPS_DIGESTS = {
    8: "30a118d46a96eca9c8636618c867b7d07b856bca47e8654efcaa2f62e4d17379",
    16: "02751196e7c3e2d848d9b3de7cba8894a0ee717d7708941bf845e19bf8008be1",
    24: "40b303086887f6c546ce09afb5955e6b4e550270f130070d6320ace93eeb485c",
}


@pytest.mark.parametrize("bits", sorted(THM4_LOW_EPS_DIGESTS))
def test_thm4_rows_at_low_eps(bits):
    """At 8 and 16 bits |x t q^{1-n}| < eps for small n, where qpoch_inf
    stops before its first factor, so the stepped (x t q^{1-n};q)_inf ratio
    takes a factor of 1 there; the digests are the rows got by walking both
    products afresh for every n."""
    reports = run_suite("thm4-transform", RunConfig(trials=2, epsilon_bits=bits, seed=7))
    assert row_digest(reports) == THM4_LOW_EPS_DIGESTS[bits]
