"""Verification engine: samplers, truncation control, suite execution."""

import hashlib
import json
import math
import random
import types
from fractions import Fraction as F

import pytest

from qhyper import families, hyper, operators, scalars, verify
from qhyper.families import ParamVector
from qhyper.hyper import DivergentSeriesError, rphis_series_in_t
from qhyper.scalars import check_magnitude, qpoch, qpoch_inf, qpow, vanishing_index
from qhyper.series import (
    TruncSeries,
    euler_inverse_series,
    euler_product_series,
    qpoch_poly_series,
)
from qhyper.verify import (
    RunConfig,
    SUITES,
    derive_seed,
    list_suites,
    rand_in,
    rand_pv,
    rand_q,
    rand_rat,
    rand_small,
    rand_tiny,
    run_suite,
    truncated_sum,
    vanishes,
)


def test_run_config_validation():
    RunConfig()
    with pytest.raises(ValueError):
        RunConfig(order=0)
    with pytest.raises(ValueError):
        RunConfig(order=65)
    with pytest.raises(ValueError):
        RunConfig(trials=0)
    with pytest.raises(ValueError):
        RunConfig(format="xml")
    with pytest.raises(ValueError):
        RunConfig(epsilon_bits=0)
    with pytest.raises(ValueError):
        RunConfig(epsilon_bits=1025)
    assert RunConfig(epsilon_bits=10).eps == F(1, 1024)
    for field, value in [
        ("order", 2.5), ("trials", 1.5), ("seed", "abc"), ("seed", 1.5),
        ("epsilon_bits", True), ("trials", None), ("suite", 5), ("format", 3),
        ("report_path", 1),
    ]:
        with pytest.raises(TypeError, match=field):
            RunConfig(**{field: value})
    assert RunConfig(report_path=None, seed=-3).report_path is None


def test_derive_seed_stable_and_distinct():
    assert derive_seed(42, "euler-pair", 0) == derive_seed(42, "euler-pair", 0)
    assert derive_seed(42, "euler-pair", 0) != derive_seed(42, "euler-pair", 1)
    assert derive_seed(42, "euler-pair", 0) != derive_seed(43, "euler-pair", 0)
    assert derive_seed(42, "a", 0) != derive_seed(42, "b", 0)


def test_samplers_respect_ranges():
    rng = random.Random(11)
    for _ in range(200):
        q = rand_q(rng)
        assert F(1, 4) <= q <= F(3, 4)
        v = rand_in(rng, F(1, 16), F(15, 16), signed=True)
        assert F(1, 16) <= abs(v) <= F(15, 16)
        s = rand_small(rng)
        assert F(1, 64) <= s <= F(1, 40)
        t = rand_tiny(rng, signed=True)
        assert F(1, 4096) <= abs(t) <= F(1, 1600)
        r = rand_rat(rng)
        assert r != 0 and abs(r.numerator) <= 64 and r.denominator <= 64


def fraction_rand_in(rng, lo, hi, signed=False):
    """The sampler as it was first written: a Fraction per draw."""
    for _ in range(20000):
        v = F(rng.randint(1, 64), rng.randint(1, 64))
        if lo <= v <= hi:
            if signed and rng.random() < 0.5:
                v = -v
            return v
    raise RuntimeError("sampler failed to hit the requested range")


@pytest.mark.parametrize("lo, hi", [
    (F(1, 4), F(3, 4)), (F(2, 5), F(2, 3)), (verify.SMALL_LO, verify.SMALL_HI),
    (F(1, 8), F(1, 2)), (F(1, 16), F(1, 4)), (F(1, 16), F(15, 16)),
])
@pytest.mark.parametrize("signed", [False, True])
def test_rand_in_draws_what_the_fraction_loop_draws(lo, hi, signed):
    for seed in range(4):
        rng, ref = random.Random(seed), random.Random(seed)
        for _ in range(60):
            v = rand_in(rng, lo, hi, signed=signed)
            assert type(v) is F and v == fraction_rand_in(ref, lo, hi, signed=signed)
            assert rng.getstate() == ref.getstate()


def test_rand_pv_keeps_lower_parameters_inside_unit_disc():
    rng = random.Random(5)
    for _ in range(50):
        pv = rand_pv(rng, 3, 3)
        assert all(abs(b) < 1 and b != 1 for b in pv.lower)


def test_vanishes():
    """c = q^{-m} for m <= 120 vanishes, at q = 1/2 from c = 1 to c = 2^120,
    and nothing else does: not 2^121, nor q^m, nor -q^{-m}."""
    q = F(1, 2)
    assert vanishes(F(1), q) and vanishes(F(8), q) and vanishes(F(2**120), q)
    assert not any(vanishes(c, q) for c in (F(1, 8), F(3), F(-8), F(2**121), F(1, 3), F(1, 2)))
    assert vanishing_index(F(2**120), q, 120) == 120
    assert vanishing_index(F(2**121), q, 120) is None
    assert vanishing_index(F(2**121), q, 121) == 121


def full_walk_vanishing_index(c, q, limit=120):
    return next((m for m in range(limit + 1) if c * q**m == 1), None)


def test_vanishing_index_gives_the_full_walks_answer():
    """The walk that stops once |c q^m| is past 1 answers as the walk over
    every m <= 120, on negative q, |q| > 1, q = 0, +-1 and c = 0, 1, -1;
    `vanishes` is whether it finds an m."""
    rng = random.Random(26)
    qs = [F(1, 2), F(-2, 3), F(63, 64), F(-1, 9), F(3, 2), F(-5, 2), F(0), F(1), F(-1)]
    qs += [verify.rand_rat(rng) for _ in range(6)]
    for q in qs:
        cs = [F(0), F(1), F(-1), F(2), -q]
        cs += [sign / q**m for m in (1, 2, 7, 8, 9, 119, 120, 121) if q for sign in (1, -1)]
        cs += [verify.rand_rat(rng) for _ in range(6)]
        for c in cs:
            m = vanishing_index(c, q, 120)
            assert m == full_walk_vanishing_index(c, q), (c, q)
            if c:
                assert vanishes(c, q) == (m is not None), (c, q)
        assert vanishing_index(F(0), q, 120) is None


def frozen_theta_eigen_ok(d):
    """theta-eigen's hand-written grid predicate: no point (x0 q^{-1-i},
    y0 q^j), i, j < 5, of the pointwise divided difference is singular."""
    for i in range(5):
        for j in range(5):
            if d["x0"] * qpow(d["q"], -1 - i) == d["y0"] * d["q"] ** j:
                return False
    return True


def test_theta_eigen_declares_what_its_grid_check_rejected(monkeypatch):
    """The declared factor q y0/x0 rejects exactly the draws the grid check
    rejected, on 20,000 draws of theta-eigen's own sampler."""
    captured = []

    def capture(rng, draw, ok):
        captured.append((draw, ok))
        raise RuntimeError("sampler captured")

    monkeypatch.setattr(verify, "resample", capture)
    run_suite("theta-eigen", RunConfig(trials=1, seed=3))
    ((draw, ok),) = captured
    rejected = 0
    for _ in range(20_000):
        d = draw()
        accepted = ok(d)
        assert accepted == frozen_theta_eigen_ok(d), d
        rejected += not accepted
    assert rejected > 10


def test_truncated_sum_geometric():
    total = truncated_sum(lambda k: F(1, 2**k), F(1, 1 << 30))
    # stops once two consecutive terms < eps; the dropped tail is below 2^-29
    assert total.gap(2) < F(1, 1 << 29)


def test_truncated_sum_aborts_on_regrowth():
    def term(k):
        return F(2**k) if k > 12 else F(1, 4**k)

    with pytest.raises(DivergentSeriesError):
        truncated_sum(term, F(1, 1 << 200))


def test_truncated_sum_budget_exhaustion(monkeypatch):
    monkeypatch.setattr(hyper, "MAX_TERMS", 50)
    with pytest.raises(DivergentSeriesError):
        truncated_sum(lambda k: F(1), F(1, 2))


def test_bit_cap_does_not_depend_on_the_run(monkeypatch):
    def runner(rng, config):
        check_magnitude(F((1 << (1 << 17)) - 1))
        return [("lemma2-psi", F(0), 1, "")]

    monkeypatch.setattr(SUITES["lemma2-psi"], "runner", runner)
    [row] = run_suite("lemma2-psi", RunConfig(trials=1, epsilon_bits=160))
    assert not row.passed
    assert row.notes == "errored: rational exceeds 65536 bits (num 131072b / den 1b)"


def test_run_suite_unknown_id():
    with pytest.raises(KeyError):
        run_suite("nosuch", RunConfig())


def test_list_suites_ends_with_all():
    ids = list_suites()
    assert ids[-1] == "all"
    assert "euler-pair" in ids and "thm3-bilinear" in ids
    assert ids[:-1] == sorted(ids[:-1])


def test_run_suite_deterministic():
    config = RunConfig(trials=2)
    a = run_suite("cauchy-gf", config)
    b = run_suite("cauchy-gf", config)
    assert [r.to_json_dict() for r in a] == [r.to_json_dict() for r in b]


def test_run_suite_reports_sorted():
    config = RunConfig(trials=3)
    reports = run_suite("lemma1-c", config)
    keys = [(r.id, r.trial) for r in reports]
    assert keys == sorted(keys)


def test_every_registered_suite_runs_one_trial():
    config = RunConfig(trials=1, epsilon_bits=80)
    for suite_id in SUITES:
        reports = run_suite(suite_id, config)
        assert reports, suite_id
        assert all(r.passed for r in reports), (suite_id, [r.notes for r in reports])


def test_seed_changes_samples_not_verdicts():
    a = run_suite("gf-psi", RunConfig(trials=1, seed=1))
    b = run_suite("gf-psi", RunConfig(trials=1, seed=2))
    assert a[0].notes != b[0].notes
    assert a[0].passed and b[0].passed


def test_one_pass_rule_for_every_mode(monkeypatch):
    """A row passes when deviation <= tol * scale: tol is 0 in formal and
    exact mode and the config's numeric_tol, min(2^-40, 2^-(B - 16)) at
    B = epsilon_bits, in numeric mode."""
    tols = {b: RunConfig(epsilon_bits=b).numeric_tol for b in (1, 16, 40, 56, 57, 80, 160, 1024)}
    assert tols == {b: F(1, 1 << max(40, b - 16)) for b in tols}
    config = RunConfig(trials=1)
    tol = config.numeric_tol
    rows = [
        ("zero", F(0), F(1), ""),
        ("at-tol", tol * 4, F(4), ""),
        ("above-tol", tol * 4 + F(1, 1 << 200), F(4), ""),
    ]
    verdicts = {}
    for sid in ("euler-pair", "shift-identity", "lemma2-psi"):
        monkeypatch.setattr(SUITES[sid], "runner", lambda rng, config: rows)
        reports = run_suite(sid, config)
        verdicts[SUITES[sid].mode] = {r.id: r.passed for r in reports}
    assert verdicts["formal"] == verdicts["exact"] == {
        "zero": True, "at-tol": False, "above-tol": False
    }
    assert verdicts["numeric"] == {"zero": True, "at-tol": True, "above-tol": False}


def test_formal_and_exact_report_oracle():
    """The sha256 of every formal and exact row at seed 42: a refactor of the
    suites must leave each verdict, deviation and note byte-identical."""
    rows = [
        r.to_json_dict()
        for sid in sorted(SUITES)
        if SUITES[sid].mode != "numeric"
        for r in run_suite(sid, RunConfig(trials=2, seed=42))
    ]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert len(rows) == 76
    assert digest == "4582116c64cd07b2e52d84dbbf9ff2d781b38e9cf4fc5eca807e5aeb2d6b7663"


@pytest.mark.parametrize("suite_id", ["cor1-bilinear-hahn", "thm3-bilinear", "thm4-transform"])
def test_each_product_and_phi_is_computed_once_per_trial(monkeypatch, suite_id):
    """The bilinear cross-checks reuse the (c;q)_inf balls and the rphis
    balls their trial already has (a quotient is a product of those balls,
    read from the trial's memo)."""
    calls = {"qpoch_inf_ball": [], "rphis_ball": []}

    def recording(name):
        original = getattr(verify, name)

        def record(*args):
            calls[name].append(tuple(tuple(a) if isinstance(a, list) else a for a in args))
            return original(*args)

        return record

    for name in calls:
        monkeypatch.setattr(verify, name, recording(name))
    rows = run_suite(suite_id, RunConfig(trials=1, seed=3))
    assert all(r.passed for r in rows)
    for name, made in calls.items():
        assert made and len(made) == len(set(made)), name


@pytest.mark.parametrize("suite_id", ["cor1-bilinear-hahn", "thm3-bilinear", "thm4-transform"])
def test_each_rphis_coefficient_is_formed_once_per_trial(monkeypatch, suite_id):
    """A trial keeps one coefficient row per parameter vector: every rphis it
    sums, at whatever argument, reads c_k from that trial's phi_row(pv, q, 1),
    which forms each c_k once, and rphis_ball makes no row of its own."""
    made = []
    original = verify.phi_row

    def record(pv, q, z):
        made.append((pv, q, z))
        return original(pv, q, z)

    def forbidden(*args):
        raise AssertionError("rphis_ball made a row of its own")

    monkeypatch.setattr(verify, "phi_row", record)
    monkeypatch.setattr(hyper, "phi_row", forbidden)
    for seed in range(3):
        made.clear()
        rows = run_suite(suite_id, RunConfig(trials=1, seed=seed))
        assert all(r.passed for r in rows)
        assert made and len(made) == len(set(made)), seed
        assert {z for *_, z in made} == {1}


def test_cor1_cross_check_is_given_the_bilinear_prefactor(monkeypatch):
    """Corollary 1's cross-check reads its Theorem 3 prefactor from the
    trial's quotient memo, a ball that holds the quotient of the exact
    partial products, and returns the same ball as on a fresh trial."""
    made = []
    original = verify._thm3_rhs

    def record(trial, *args):
        value = original(trial, *args)
        made.append((trial, args, trial.quotient.cache_info(), value))
        return value

    monkeypatch.setattr(verify, "_thm3_rhs", record)
    rows = run_suite("cor1-bilinear-hahn", RunConfig(trials=3, seed=5))
    assert all(r.passed for r in rows) and len(made) == 3
    for trial, args, quotients, shared in made:
        assert (quotients.hits, quotients.currsize) == (1, 1)
        alpha, x, u, v, z, t, pv = args
        q, eps = trial.q, trial.eps

        def pinf(c):
            return qpoch_inf(c, q, eps)

        pref = trial.quotient((q / x, u * x * t * q), (alpha * q, v * x * t * q))
        plain = pinf(q / x) * pinf(u * x * t * q) / (pinf(alpha * q) * pinf(v * x * t * q))
        assert plain in pref
        own = original(verify._Trial(q, eps), *args)
        assert (own.mid, own.rad, own.prec) == (shared.mid, shared.rad, shared.prec)


def test_numeric_suites_reach_the_primitives_through_their_trial():
    """No numeric suite, nor the bilinear left side or the Theorem 3 right
    side, names a numeric primitive: each reads it through its `_Trial`."""
    primitives = {"qpoch_inf_ball", "truncated_sum", "rphis_ball", "qpoch_inf", "_sum_ball"}
    runners = [s.runner for s in SUITES.values() if s.mode == "numeric"]
    assert len(runners) == 5

    def codes(code):
        yield code
        for const in code.co_consts:
            if isinstance(const, types.CodeType):
                yield from codes(const)

    for fn in (*runners, verify._thm3_rhs, verify._bilinear_lhs):
        for code in codes(fn.__code__):
            assert not primitives & set(code.co_names), code.co_name


#: The c of each (c;q)_inf a trial walks, in the order of the expressions
#: of its right side; s is the trial's sample.  Corollary 1's cross-check and
#: Theorem 4's bilinear cross-check read (u x t q) and (v x t q) from the
#: trial's memo, so they walk nothing again.
WALK_ORDER = {
    "thm2-rogers": lambda s: [s["x"] * s["omega"], s["t"] / s["omega"], s["y"] * s["omega"]],
    "lemma2-psi": lambda s: [s["x"] * s["t"] * s["q"], s["lam"] * s["x"] * s["t"] * s["q"]],
    "thm3-bilinear": lambda s: [
        s["q"] / s["x"],
        s["u"] * s["x"] * s["t"] * s["q"],
        s["alpha"] * s["q"],
        s["v"] * s["x"] * s["t"] * s["q"],
    ],
    "cor1-bilinear-hahn": lambda s: [
        s["q"] / s["x"],
        s["x"] * s["y"] * s["t"] * s["q"],
        s["alpha"] * s["q"],
        s["a"] * s["x"] * s["y"] * s["t"] * s["q"],
        s["x"] * s["t"] * s["q"],
    ],
    "thm4-transform": lambda s: [
        s["x"] * s["t"] * s["q"],
        s["x"] * s["lam"] * s["t"] * s["q"],
        s["q"] / s["x"],
        s["alpha"] * s["q"],
    ],
}


@pytest.mark.parametrize("suite_id", sorted(WALK_ORDER))
def test_products_are_walked_in_the_order_of_the_right_side(monkeypatch, suite_id):
    samples, walked = [], []
    resample, qpoch_inf_ball = verify.resample, verify.qpoch_inf_ball

    def recording_resample(*args):
        samples.append(resample(*args))
        return samples[-1]

    def recording_qpoch_inf_ball(c, q, eps):
        walked.append((c, q, eps))
        return qpoch_inf_ball(c, q, eps)

    monkeypatch.setattr(verify, "resample", recording_resample)
    monkeypatch.setattr(verify, "qpoch_inf_ball", recording_qpoch_inf_ball)
    for seed in range(3):
        samples.clear()
        walked.clear()
        config = RunConfig(trials=1, seed=seed)
        assert all(r.passed for r in run_suite(suite_id, config))
        (s,) = samples
        assert walked == [(c, s["q"], config.eps) for c in WALK_ORDER[suite_id](s)], seed


def test_thm2_gap_does_not_follow_eps(monkeypatch):
    """Theorem 2's two sides differ by a gap that deeper truncation does not
    shrink once |t/omega| is about 2^-11 rather than 2^-27.

    The suite's own sampler draws t/omega as a product of five `rand_small`
    draws; widening that band to [1/5, 1/4] is the only change.  The gap
    (about 2^-46.3) is far above eps at 80 and at 160 bits, and the same at
    both, so it is a property of the single-sum side, not of the truncation.
    The numeric tol follows epsilon_bits (2^-64 at 80 bits, 2^-144 at 160),
    so the row fails at both: the negative control of the one-term reading.
    """
    monkeypatch.setattr(
        verify, "rand_small", lambda rng, signed=False: rand_in(rng, F(1, 5), F(1, 4), signed)
    )
    gaps = []
    for bits in (80, 160):
        (row,) = run_suite("thm2-rogers", RunConfig(trials=1, seed=42, epsilon_bits=bits))
        assert not row.passed and row.deviation > F(1, 1 << 80), bits
        gaps.append(math.log2(row.deviation.numerator) - math.log2(row.deviation.denominator))
    assert abs(gaps[0] - gaps[1]) < 0.01, gaps


def test_formal_and_exact_rows_at_order_20():
    """The sha256 of every formal and exact row at order 20, pinned before
    the operator row, the extended-GF terms and the series inverse were
    hoisted, so those hoists are guarded past order 12 too."""
    rows = [
        r.to_json_dict()
        for sid in sorted(SUITES)
        if SUITES[sid].mode != "numeric"
        for r in run_suite(sid, RunConfig(order=20, trials=1, seed=42))
    ]
    digest = hashlib.sha256(json.dumps(rows, sort_keys=True).encode()).hexdigest()
    assert len(rows) == 38
    assert digest == "4b42be6f8fb7cc57ff0b5a44779a19543d9ef3c3afae47f7600bfcb87a9c476a"


def fresh_extended_gf_rhs(pv, x0, y0, z, q, k, N):
    """t^k times the extended-generating-function right side, every j-term
    formed afresh for this k."""
    acc = TruncSeries.constant(F(0), N)
    qk = qpow(q, -k)
    for j in range(k + 1):
        coeff = qpoch(qk, q, j) * q**j / qpoch(q, q, j)
        term = (
            qpoch_poly_series(y0, q, j, N)
            * qpoch_poly_series(x0, q, j, N).inverse()
            * rphis_series_in_t(pv, q, z * q**j, N)
        ).scale(coeff)
        acc = acc + term
    ratio = euler_product_series(x0, q, N) * euler_inverse_series(y0, q, N)
    return ratio * acc


@pytest.mark.parametrize("order", [1, 7, 20])
def test_extended_gf_rhs_equals_a_fresh_build_for_every_k(order):
    """Seeded (r, s) in 0..3 and q of both signs; k is asked out of order, so
    the shared j-terms are formed at whichever k first reaches them."""
    rng = random.Random(order)
    for r in range(4):
        for s_ in range(4):
            if order == 20 and (r + s_) % 3:
                continue
            pv = rand_pv(rng, r, s_)
            q = rand_q(rng) * rng.choice((1, -1))
            x0, y0, z = (verify.rand_rat(rng, 8) for _ in range(3))
            rhs = verify._extended_gf_rhs(pv, x0, y0, z, q, order)
            for k in rng.sample(range(4), 4):
                want = fresh_extended_gf_rhs(pv, x0, y0, z, q, k, order).coeffs
                assert rhs(k).coeffs == want, (r, s_, k)


#: A lower parameter q^-m at q = 1/2 and the note of the errored lemma1-c row:
#: (b;q)_k vanishes from k = m + 1, and the k-shifted basis series has degrees
#: k..N+k, so the row errors whether m + 1 is inside the order or past it.
VANISHING_NOTES = {
    3: "errored: lower parameter 8 gives (8;q)_4 = 0",
    13: "errored: lower parameter 8192 gives (8192;q)_14 = 0",
    14: "errored: lower parameter 16384 gives (16384;q)_15 = 0",
}


def vanishing_operator_sample(m):
    pv = ParamVector((F(1, 3), F(-2, 5)), (F(3, 7), F(2**m)))
    return {"pv": pv, "q": F(1, 2), "x0": F(3, 4), "y0": F(-2, 5), "z": F(2, 7)}


@pytest.mark.parametrize("m", sorted(VANISHING_NOTES))
def test_lemma1_c_errors_on_a_vanishing_lower_parameter_with_the_same_note(monkeypatch, m):
    monkeypatch.setattr(verify, "_operator_sample", lambda rng: vanishing_operator_sample(m))
    [row] = run_suite("lemma1-c", RunConfig(trials=1, seed=42))
    assert (row.id, row.passed, row.deviation) == ("lemma1-c", False, None)
    assert row.notes == VANISHING_NOTES[m]


def test_lemma1_c_forms_each_operator_coefficient_and_j_term_once(monkeypatch):
    """One trial applies the operator once, to the basis P_0..P_{N+3} that
    the four shifted basis series of degrees k..N+k span, so the operator's
    row is made once and coefficient j of it is formed once for all four k;
    each (y0 t;q)_j / (x0 t;q)_j rphis(z q^j t) is formed once for all four k.
    Every coefficient is then formed by that row or by the four j-terms' rphis
    rows, which stop at the order, each once, and no row reads W_j
    (`W_coeff`)."""
    logs = {name: [] for name in (
        "phi_row", "check_magnitude", "W_coeff", "qpoch_poly_series", "rphis_series_in_t"
    )}

    def recording(module, name):
        original = getattr(module, name)

        def record(*args):
            logs[name].append(args)
            return original(*args)

        monkeypatch.setattr(module, name, record)

    recording(operators, "phi_row")
    recording(hyper, "check_magnitude")
    recording(families, "W_coeff")
    recording(verify, "qpoch_poly_series")
    recording(verify, "rphis_series_in_t")
    N = 12
    rows = run_suite("lemma1-c", RunConfig(trials=1, seed=3, order=N))
    assert len(rows) == 4 and all(r.passed for r in rows)
    assert len(logs["phi_row"]) == 1
    # a row checks each coefficient it forms past c_0 = 1 against the cap
    assert len(logs["check_magnitude"]) == (N + 3) + 4 * N
    assert logs["W_coeff"] == []
    for name in ("qpoch_poly_series", "rphis_series_in_t"):
        assert len(logs[name]) == len(set(logs[name])), name
    assert len(logs["rphis_series_in_t"]) == 4 and len(logs["qpoch_poly_series"]) == 8


NUMERIC_SUITES = sorted(sid for sid, sdef in SUITES.items() if sdef.mode == "numeric")


@pytest.mark.parametrize("suite_id", NUMERIC_SUITES)
def test_numeric_samplers_rule_out_every_zero_divisor(monkeypatch, suite_id):
    """Every divisor a numeric trial reaches is a factor its sampler declares
    to `avoiding`, is q, or is a lower parameter of a `rand_pv` (|b| < 1): the
    c of each (c;q)_n that `qpow` raises to -1, of each (c;q)_inf ball that a
    ball is divided by, and each lower parameter of a `phi_row`.  Each declared
    factor is reached too, but for thm4's numerator 1/(x t).  No declared c
    reaches |q|^-121 in 200 samples, so `vanishes`' walk to m = 120 leaves no
    larger m."""
    declared, reached, balls, last_qpoch = [], set(), {}, [None, None]
    resample, qpoch, qpow = verify.resample, verify.qpoch, verify.qpow

    def first_sample(rng, draw, ok):
        declared.append((resample(rng, draw, ok), ok.factors))
        raise RuntimeError("sample recorded")

    with monkeypatch.context() as m:
        m.setattr(verify, "resample", first_sample)
        run_suite(suite_id, RunConfig(trials=200, seed=11))
    assert len(declared) == 200
    for s, factors in declared:
        assert all(abs(c * s["q"] ** 121) < 1 for c in factors(**s)), s
    qpoch_inf_ball, phi_row, divide = verify.qpoch_inf_ball, verify.phi_row, scalars.Ball.__truediv__

    def spy_resample(rng, draw, ok):
        sample = resample(rng, draw, ok)
        declared.append((sample, set(ok.factors(**sample))))
        return sample

    def spy_qpoch(a, q, n):
        last_qpoch[:] = a, qpoch(a, q, n)
        return last_qpoch[1]

    def spy_qpow(x, e):
        if e == -1 and x is last_qpoch[1]:
            reached.add(last_qpoch[0])
        return qpow(x, e)

    def spy_qpoch_inf_ball(c, q, eps):
        ball = qpoch_inf_ball(c, q, eps)
        balls[id(ball)] = c, ball
        return ball

    def spy_divide(ball, other):
        if id(other) in balls:
            reached.add(balls[id(other)][0])
        return divide(ball, other)

    def spy_phi_row(pv, q, z):
        reached.update(pv.lower)
        return phi_row(pv, q, z)

    for name, spy in [("resample", spy_resample), ("qpoch", spy_qpoch), ("qpow", spy_qpow),
                      ("qpoch_inf_ball", spy_qpoch_inf_ball), ("phi_row", spy_phi_row)]:
        monkeypatch.setattr(verify, name, spy)
    monkeypatch.setattr(scalars.Ball, "__truediv__", spy_divide)
    for seed in range(3):
        declared.clear()
        reached.clear()
        assert all(r.passed for r in run_suite(suite_id, RunConfig(trials=1, seed=seed)))
        ((s, factors),) = declared
        lower = set(s["pv"].lower) if "pv" in s else set()
        assert all(abs(b) < 1 for b in lower)
        assert reached - factors - lower - {s["q"]} == set(), (seed, s)
        numerators = {1 / (s["x"] * s["t"])} if suite_id == "thm4-transform" else set()
        assert factors - reached == numerators, (seed, s)


def test_thm4_redraws_x_a_power_of_q(monkeypatch):
    """Trial 507 at seed 42 first draws q = 1/2, x = 1/64, where the
    cross-check's (q/x;q)_6 vanishes.  thm4's sampler rejects x = q^m, as
    thm3's and cor1's do, so the trial gives its two rows."""
    seed = derive_seed(42, "thm4-transform", 507)
    monkeypatch.setattr(verify, "derive_seed", lambda master, suite_id, trial: seed)
    rows = run_suite("thm4-transform", RunConfig(trials=1, epsilon_bits=160))
    assert sorted(row.id for row in rows) == ["thm4-transform:conclusion", "thm4-transform:premise"]
    assert all(row.passed for row in rows), [row.notes for row in rows]


@pytest.mark.parametrize("q", [F(1, 2), F(-2, 3), F(5, 7), F(-1, 9), F(3, 2)])
def test_asc_psi_recurrence_equals_the_defining_sum(q):
    """The three-term recurrence gives the very Fraction of the defining sum
    `families.asc_psi`, whether the n are asked for rising or n = 40 first."""
    rng = random.Random(repr(q))
    cases = [(verify.rand_rat(rng), verify.rand_rat(rng)) for _ in range(3)]
    cases += [(F(0), verify.rand_rat(rng)), (verify.rand_rat(rng), F(0)), (F(1), F(-3, 5))]
    for a, x in cases:
        want = [families.asc_psi(n, a, x, q) for n in range(41)]
        rising, top_first = verify._asc_psi_sweep(a, x, q), verify._asc_psi_sweep(a, x, q)
        assert top_first(40) == want[40], (a, x)
        for n in range(41):
            for got in (rising(n), top_first(n)):
                assert (type(got), got.numerator, got.denominator) == (
                    F, want[n].numerator, want[n].denominator
                ), (a, x, n)


@pytest.mark.parametrize("q", [F(1, 2), F(-2, 3), F(5, 7), F(-1, 9), F(3, 2)])
def test_rogers_szego_recurrence_equals_the_defining_sum(q):
    """Theorem 2's inner sum over n <= m of t^n omega^(m-n) / ((q;q)_n
    (q;q)_{m-n}) is h_m(t, omega) / (q;q)_m, and the Rogers-Szego polynomial
    h_m(t, omega) is omega^m psi_m^{(0)}(t/omega | 1/q), read from
    `_asc_psi_sweep` as the suite reads it."""
    rng = random.Random(str(q))
    for _ in range(3):
        t, omega = (verify.rand_rat(rng) for _ in range(2))
        psi = verify._asc_psi_sweep(0, t / omega, 1 / q)
        for m in rng.sample(range(41), 41):
            want = sum(
                (t**n * omega ** (m - n) / (qpoch(q, q, n) * qpoch(q, q, m - n)) for n in range(m + 1)),
                F(0),
            )
            assert omega**m * psi(m) / qpoch(q, q, m) == want, (t, omega, m)


@pytest.mark.parametrize(
    "suite_id", ["lemma2-psi", "thm3-bilinear", "cor1-bilinear-hahn", "thm4-transform"]
)
def test_a_zero_divisor_qpoch_still_ends_as_the_errored_row(monkeypatch, suite_id):
    """With (q;q)_2 patched to 0, the outer sum's divisor 1/(q;q)_2 raises
    ZeroDivisionError('Fraction(1, 0)'), as 1 / Fraction(0) does, and the
    trial becomes the same errored row."""
    real = verify.qpoch

    def qpoch(a, q, n):
        return F(0) if a == q and n == 2 else real(a, q, n)

    monkeypatch.setattr(verify, "qpoch", qpoch)
    (row,) = verify.run_suite(suite_id, RunConfig(trials=1, seed=3, epsilon_bits=80))
    assert (row.passed, row.deviation, row.notes) == (False, None, "errored: Fraction(1, 0)")


@pytest.mark.parametrize("q", [F(1, 2), F(-2, 3), F(5, 9)])
def test_thm4_B_reads_the_closed_form_of_its_factors(q):
    """(q^{-k};q)_n q^{nk} / (q;q)_k is (-1)^n q^{binom(n,2)} / (q;q)_{k-n}
    for k >= n (Gasper-Rahman (I.10)), the same Fraction."""
    for n in range(12):
        for k in range(n, n + 15):
            old = qpoch(qpow(q, -k), q, n) * qpow(q, n * k) / qpoch(q, q, k)
            assert old == (-1) ** n * qpow(q, n * (n - 1) // 2) / qpoch(q, q, k - n)
