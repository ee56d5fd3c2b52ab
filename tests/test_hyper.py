"""Basic hypergeometric series: terminating, formal, numeric regimes."""

import random
import re
from fractions import Fraction as F
from itertools import chain, count, islice, repeat
from math import prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhyper import hyper
from qhyper.families import ParamVector, VanishingPochhammerError, W_coeff, bracket_factor
from qhyper.hyper import (
    DivergentSeriesError,
    phi_row,
    rphis_ball,
    rphis_series_in_t,
    rphis_terminating,
    terminating_index,
)
from qhyper.scalars import Ball, ScalarOverflowError, qpoch, qpoch_inf_ball, qpow


def mid(ball):
    """The midpoint of a ball as an exact rational."""
    return F(ball.mid, 1 << ball.prec)


def phi_term(k, pv, q, z):
    """Term k of rPhis[a; b; q; z], W_k z^k / (q;q)_k times the bracket power,
    as the plain defining product: the reference `phi_row` is tested against."""
    return W_coeff(k, pv, q) * z**k / qpoch(q, q, k) * bracket_factor(k, q, pv.bracket_exponent)


def test_phi_term_k0_is_one():
    pv = ParamVector((F(1, 2),), (F(1, 3),))
    assert phi_term(0, pv, F(1, 2), F(7)) == phi_row(pv, F(1, 2), F(7))(0) == 1


def test_phi_term_sign_bracket():
    # r = s: exponent 1, term 1 carries a factor -z
    pv = ParamVector((F(0),), (F(0),))
    q = F(1, 2)
    assert phi_term(1, pv, q, F(1, 3)) == phi_row(pv, q, F(1, 3))(1) == -F(1, 3) / qpoch(q, q, 1)


def row_outcomes(fn, kmax):
    """fn(k) for k = 0..kmax in order, as (type, value), up to and including
    the first error, as (type, message).  A plain ZeroDivisionError keeps only
    its type: phi_term's is Fraction's message for its division by
    (q;q)_k = 0, a quotient the row never forms."""
    out = []
    for k in range(kmax + 1):
        try:
            value = fn(k)
        except ArithmeticError as exc:
            out.append((type(exc),) if type(exc) is ZeroDivisionError else (type(exc), str(exc)))
            break
        out.append((type(value), value))
    return out


def phi_row_cases():
    """Seeded (pv, q, z): r, s <= 3 with zero parameters, a terminating upper
    q^-m, a vanishing lower q^-m, q of both signs and q = -1, z = 0, z < 0
    and an int z."""
    rng = random.Random(27)

    def rat(bound):
        return F(rng.randint(-bound, bound), rng.randint(1, bound))

    for q in (F(1, 2), F(-2, 3), F(5, 3), F(-1)):
        for z in (F(2, 3), F(-7, 5), F(0), 1):
            for r in range(4):
                s = rng.randint(0, 3)
                upper = [rat(5) for _ in range(r)]
                lower = [rat(5) for _ in range(s)]
                yield ParamVector(upper, lower), q, z
                yield ParamVector(upper[:1] + [F(0)], [F(0)] + lower[:1]), q, z
                yield ParamVector(upper + [qpow(q, -rng.randint(0, 6))], lower), q, z
                yield ParamVector(upper, lower + [qpow(q, -rng.randint(0, 6))]), q, z


def test_phi_row_equals_phi_term():
    """The row's c_k, asked for in order to k = 40, has phi_term's value and
    type, and the row raises phi_term's first error at the same k."""
    errors = set()
    for pv, q, z in phi_row_cases():
        want = row_outcomes(lambda k: phi_term(k, pv, q, z), 40)
        assert row_outcomes(phi_row(pv, q, z), 40) == want, (pv, q, z)
        errors.add(want[-1][0])
    assert errors == {F, VanishingPochhammerError, ZeroDivisionError}


def test_phi_row_forms_each_coefficient_once(monkeypatch):
    """Asking again, or out of order, reads the memo: each c_k, k >= 1, is
    checked against the cap once, when it is formed."""
    checked = []
    monkeypatch.setattr(hyper, "check_magnitude", lambda c: checked.append(c) or c)
    pv, q = ParamVector((F(1, 3), F(-2, 5)), (F(3, 7),)), F(1, 2)
    row = phi_row(pv, q, F(-3, 5))
    values = [row(k) for k in (12, 3, 12, 0)] + [row(k) for k in range(14)]
    assert values[:4] == [phi_term(k, pv, q, F(-3, 5)) for k in (12, 3, 12, 0)]
    assert checked == values[5:]


def test_phi_row_caps_the_coefficient_it_keeps():
    """With a = 3^-5000 at q = 63/64, c_9 passes the 2^16-bit cap; the row
    raises on it, and again when asked once more."""
    pv = ParamVector((F(2, 3), F(1, 3**5000)), (F(2, 5),))
    row = phi_row(pv, F(63, 64), F(2, 3))
    assert row(8).numerator.bit_length() < 1 << 16
    for _ in range(2):
        with pytest.raises(ScalarOverflowError, match=r"\(num 71674b / den 71650b\)$"):
            row(24)


def test_terminating_index():
    q = F(1, 2)
    pv = ParamVector((qpow(q, -3), F(1, 5)), (F(1, 7),))
    assert terminating_index(pv, q) == 3
    assert terminating_index(ParamVector((F(1, 5),), ()), q) is None
    # a = 1 terminates immediately (n = 0)
    assert terminating_index(ParamVector((F(1),), ()), q) == 0


def test_rphis_terminating_needs_terminating_parameter():
    with pytest.raises(ValueError):
        rphis_terminating(ParamVector((F(1, 3),), ()), F(1, 2), F(1))


def test_chu_vandermonde_closed_forms():
    # 2Phi1[q^-n, a; c; q; q] = (c/a;q)_n a^n / (c;q)_n
    q, a, c = F(1, 2), F(3), F(1, 5)
    for n in range(8):
        pv = ParamVector((qpow(q, -n), a), (c,))
        lhs = rphis_terminating(pv, q, q)
        assert lhs == qpoch(c / a, q, n) * a**n / qpoch(c, q, n)
        # the companion evaluation at argument c q^n / a
        lhs2 = rphis_terminating(pv, q, c * q**n / a)
        assert lhs2 == qpoch(c / a, q, n) / qpoch(c, q, n)


def test_series_in_t_matches_numeric_at_point():
    pv = ParamVector((F(1, 3),), (F(1, 7),))
    q, c, t0 = F(1, 2), F(2, 5), F(1, 4)
    eps = F(1, 1 << 120)
    series = rphis_series_in_t(pv, q, c, 40)
    value = sum(coeff * t0**k for k, coeff in enumerate(series.coeffs))
    assert rphis_ball(pv, q, c * t0, eps).gap(value) < F(1, 1 << 60)


def test_numeric_terminating_shortcut():
    q = F(1, 2)
    pv = ParamVector((qpow(q, -2), F(5)), (F(1, 3),))
    z = F(9, 7)  # |z| > 1 is fine when the series terminates
    assert rphis_terminating(pv, q, z) in rphis_ball(pv, q, z, F(1, 1 << 40))


def test_terminating_numeric_sum_walks_once(monkeypatch):
    q, z = F(1, 2), F(1, 5)
    pv = ParamVector((qpow(q, -30), F(1, 3), F(2, 5)), (F(1, 7), F(3, 11)))
    expected = rphis_terminating(pv, q, z)
    walks = []
    walk = hyper.terminating_index
    monkeypatch.setattr(hyper, "terminating_index", lambda *args: walks.append(args) or walk(*args))
    assert expected in rphis_ball(pv, q, z, F(1, 1 << 40))
    assert len(walks) == 1


def test_numeric_divergence_guards():
    q, eps = F(1, 2), F(1, 1 << 40)
    with pytest.raises(DivergentSeriesError):
        rphis_ball(ParamVector((F(1, 3), F(1, 5)), ()), q, F(1, 2), eps)
    with pytest.raises(DivergentSeriesError):
        rphis_ball(ParamVector((F(1, 3),), ()), q, F(3, 2), eps)
    # a non-terminating series has no tail bound unless 0 < |q| < 1
    for q in (F(3, 2), F(-1), F(1)):
        with pytest.raises(ValueError):
            rphis_ball(ParamVector((F(1, 3),), ()), q, F(1, 2), eps)


def rise_and_fall(k):
    """2^k up to k = 50, then 2^(100-k): a convergent series whose terms rise
    2^42 past the term at TAIL_KMIN, with sum 2^51 - 1 + 2^50."""
    return F(2) ** (k if k <= 50 else 100 - k)


def test_sum_ball_regrowth_guard_only_without_a_ratio():
    """Without a ratio the rise reads as regrowth; with a ratio bound the
    kernel sums on, and the tail it adds brings the true sum into the ball
    (every partial sum is exact, and below the true sum)."""
    eps = F(1, 1 << 40)
    with pytest.raises(DivergentSeriesError, match="regrew"):
        hyper._sum_ball(map(rise_and_fall, count()), eps)
    total = hyper._sum_ball(
        map(rise_and_fall, count()), eps, ratio=lambda k: F(1, 2) if k > 50 else F(2)
    )
    assert 2**51 - 1 + 2**50 in total


@pytest.mark.parametrize("rho", [None, F(1), F(3, 2)])
def test_sum_ball_stops_only_on_a_ratio_below_one(monkeypatch, rho):
    """Zero terms are small from k = 0, so a ratio of 1/2 stops the sum at
    TAIL_KMIN; a ratio that is None or >= 1 never does, and the sum raises
    once the MAX_TERMS read at call time runs out."""
    eps, seen = F(1, 1 << 40), []

    def zero(k):
        seen.append(k)
        return F(0)

    assert hyper._sum_ball(map(zero, count()), eps, ratio=lambda k: F(1, 2)).mid == 0
    assert seen == list(range(hyper.TAIL_KMIN + 1))
    monkeypatch.setattr(hyper, "MAX_TERMS", 40)
    seen.clear()
    with pytest.raises(DivergentSeriesError, match="no two consecutive"):
        hyper._sum_ball(map(zero, count()), eps, ratio=lambda k: rho)
    assert seen == list(range(40))


#: Exact factors for a tuple term: ints from -64 to 64 (0 among them), and
#: pairs n/g, 6g/d whose unreduced product shares the factor g and a 2 or 3.
EXACT_FACTORS = st.lists(
    st.one_of(
        st.integers(-64, 64).map(lambda n: (n,)),
        st.tuples(
            st.integers(-(1 << 80), 1 << 80), st.integers(1, 1 << 80), st.integers(1, 1 << 40)
        ).map(lambda t: (F(t[0], t[2]), F(6 * t[2], t[1]))),
    ),
    min_size=1,
    max_size=5,
).map(lambda groups: tuple(f for group in groups for f in group))


def one_term_ball(term, prec):
    """The ball `_sum_ball` makes of `term` as its only nonzero term, at
    precision prec = ball_precision(2^-(prec - 64))."""
    eps = F(1, 1 << (prec - 64))
    return hyper._sum_ball(chain([term], repeat(0)), eps, kmin=1)


@settings(max_examples=200, deadline=None)
@given(
    EXACT_FACTORS,
    st.integers(-(1 << 700), 1 << 700),
    st.integers(0, 1 << 600),
    st.sampled_from([64, 224, 600]),
)
def test_sum_ball_rounds_a_factor_tuple_once(factors, mid, rad, prec):
    """A tuple of exact factors enters its ball as the Fraction product does,
    and a tuple ending in a ball gives that product times the ball: the
    unreduced integer products round as the reduced ones."""
    product = prod(factors, start=F(1))
    got, want = one_term_ball(factors, prec), Ball.of(product, prec)
    assert (got.mid, got.rad, got.prec) == (want.mid, want.rad, want.prec)
    ball = Ball(mid, rad, prec)
    got, want = one_term_ball(factors + (ball,), prec), product * ball
    assert (got.mid, got.rad, got.prec) == (want.mid, want.rad, want.prec)


def test_numeric_q_binomial_theorem():
    # 1Phi0[a;;q;z] = (az;q)_inf / (z;q)_inf
    q, a, z = F(1, 2), F(1, 3), F(2, 5)
    eps = F(1, 1 << 120)
    lhs = rphis_ball(ParamVector((a,), ()), q, z, eps)
    rhs = qpoch_inf_ball(a * z, q, eps) / qpoch_inf_ball(z, q, eps)
    assert lhs.gap(rhs) < F(1, 1 << 80)


def test_stability_under_smaller_eps():
    pv = ParamVector((F(1, 3),), (F(1, 7),))
    q, z = F(1, 2), F(1, 4)
    v1 = rphis_ball(pv, q, z, F(1, 1 << 80))
    v2 = rphis_ball(pv, q, z, F(1, 1 << 160))
    assert abs(mid(v1) - mid(v2)) < F(1, 1 << 78)
    # both balls hold the true value, so they overlap
    assert abs(mid(v1) - mid(v2)) <= F(v1.rad, 1 << v1.prec) + F(v2.rad, 1 << v2.prec)


def old_terminating_index(pv, q, limit=512):
    """The full walk over a q^n, n = 0..limit, as a reference."""
    best = None
    for a in pv.upper:
        if a == 0:
            continue
        p = a
        for n in range(limit + 1):
            if p == 1:
                if best is None or n < best:
                    best = n
                break
            p *= q
    return best


@pytest.mark.parametrize("q", [F(1, 2), F(-2, 3), F(3, 2), F(-5, 2), F(-1)])
def test_terminating_index_agrees_with_full_walk(q):
    rng = random.Random(11)
    cases = [ParamVector((qpow(q, -n),), ()) for n in range(41)]
    cases.append(ParamVector((qpow(q, -600),), ()))  # beyond the walk's limit
    for _ in range(40):
        upper = [F(rng.randint(-60, 60), rng.randint(1, 60)) for _ in range(rng.randint(1, 3))]
        cases.append(ParamVector(upper, ()))
        cases.append(ParamVector(upper + [qpow(q, -rng.randint(0, 40))], ()))
    for pv in cases:
        assert terminating_index(pv, q) == old_terminating_index(pv, q)
    assert terminating_index(ParamVector((qpow(q, -600),), ()), q) is (None if abs(q) != 1 else 0)


def exact_partial_sum(pv, q, z, eps):
    """The exact partial sum of rPhis, up to the first k >= TAIL_KMIN where
    two consecutive terms have abs(term) < eps."""
    n = terminating_index(pv, q)
    if n is not None:
        return sum((phi_term(k, pv, q, z) for k in range(n + 1)), F(0))
    if pv.r > pv.s + 1 or (pv.r == pv.s + 1 and abs(z) >= 1):
        raise DivergentSeriesError("divergent")
    acc, prev_small = F(0), False
    for k in range(hyper.MAX_TERMS):
        term = phi_term(k, pv, q, z)
        acc += term
        small = abs(term) < eps
        if k >= hyper.TAIL_KMIN and small and prev_small:
            return acc
        prev_small = small
    raise DivergentSeriesError("no two consecutive small terms within bounds")


def rphis_cases():
    """Seeded (pv, q, z, eps): terminating, r = s+1 and r <= s series, a zero
    argument (every term past the first is 0), and eps equal to a term."""
    rng = random.Random(13)

    def rat(bound):
        return F(rng.randint(-bound, bound), rng.randint(1, bound))

    cases = []
    for _ in range(60):
        q = F(rng.randint(1, 7), 8) * rng.choice((1, -1))
        s = rng.randint(0, 2)
        r = rng.randint(0, s + 1)
        pv = ParamVector(tuple(rat(9) for _ in range(r)), tuple(rat(9) / 10 for _ in range(s)))
        z = rat(9) / 10 if r == s + 1 else rat(9)
        eps = F(1, 1 << rng.choice((8, 40, 80)))
        cases.append((pv, q, z, eps))
        terminating = ParamVector(pv.upper + (qpow(q, -rng.randint(0, 6)),), pv.lower)
        cases.append((terminating, q, z, eps))
        cases.append((pv, q, F(0), eps))
        k = hyper.TAIL_KMIN + rng.randint(0, 3)
        cases.append((pv, q, z, abs(phi_term(k, pv, q, z)) or eps))
    return cases


def test_rphis_ball_midpoint_is_within_eps_of_the_exact_partial_sum():
    """The ball may sum a few terms past the exact partial sum's stop, until
    its tail bound holds."""
    for pv, q, z, eps in rphis_cases():
        ref = exact_partial_sum(pv, q, z, eps)
        value = mid(rphis_ball(pv, q, z, eps))
        assert abs(value - ref) <= 2 * eps * max(1, abs(ref)), (pv, q, z, eps)


def frozen_ratio_bound(pv, q, z, k):
    """The ratio bound as it was formed in `Fraction`s, one call per k."""
    Q = abs(q) ** k
    bound = abs(z) * Q**pv.bracket_exponent / (1 - abs(q) * Q)
    for a in pv.upper:
        bound *= 1 + abs(a) * Q
    for b in pv.lower:
        if abs(b) * Q >= 1:
            return None
        bound /= 1 - abs(b) * Q
    return bound


def frozen_rphis_ball(pv, q, z, eps):
    """`rphis_ball` with the ratio bound of `frozen_ratio_bound`."""
    p = hyper.ball_precision(eps)
    terms = hyper._row_balls(hyper.phi_row(pv, q, 1), z, p)
    n = terminating_index(pv, q)
    if n is not None:
        return sum(islice(terms, n + 1), Ball(0, 0, p))
    hyper._require_convergent(pv, z)
    return hyper._sum_ball(terms, eps, ratio=lambda k: frozen_ratio_bound(pv, q, z, k))


def ratio_bound_cases():
    """Seeded (pv, q, z) with r <= s+1 and e = 1+s-r in 0..3, q of both signs,
    z = 0 among them, lower parameters up to 2^30 that leave no bound for the
    first 20 and more k, and lower parameters q^-m, where |b| |q|^k = 1 at
    k = m."""
    rng = random.Random(30)

    def rat(bound):
        return F(rng.randint(-bound, bound), rng.randint(1, bound))

    cases = []
    for i in range(120):
        q = F(rng.randint(1, 15), 16) * rng.choice((1, -1))
        s = rng.randint(0, 3)
        r = rng.randint(max(0, s - 2), s + 1)
        lower = [rat(9) / 10 for _ in range(s)]
        if s and i % 3 == 0:
            lower[0] = F(rng.randint(1 << 20, 1 << 30), rng.randint(1, 7)) * rng.choice((1, -1))
        elif s and i % 7 == 1:
            lower[-1] = qpow(q, -rng.randint(1, 30))
        z = F(0) if i % 5 == 0 else rat(9) / 10
        cases.append((ParamVector(tuple(rat(9) for _ in range(r)), tuple(lower)), q, z))
    return cases


def test_ratio_bounds_equal_the_fraction_bound_at_every_k():
    """The stepped int bound is the Fraction bound at each k it is asked for,
    in rising order with repeats and gaps, None included."""
    nones = exponents = 0
    for pv, q, z in ratio_bound_cases():
        bound = hyper._ratio_bounds(pv, q, z)
        rng = random.Random(str((pv, q, z)))
        k = 0
        while k < 120:
            want = frozen_ratio_bound(pv, q, z, k)
            assert bound(k) == want, (pv, q, z, k)
            assert type(bound(k)) is type(want)
            nones += want is None and k >= 20
            k += rng.choice((0, 1, 1, 2, 7))
        exponents |= 1 << pv.bracket_exponent
    assert nones > 100 and exponents == 0b1111


def test_ratio_bounds_refuse_a_falling_k():
    bound = hyper._ratio_bounds(ParamVector((F(1, 3),), ()), F(1, 2), F(1, 2))
    bound(5)
    with pytest.raises(ValueError, match="k=4 after k=5"):
        bound(4)


def test_rphis_ball_equals_the_sum_with_the_fraction_bound():
    """About 200 seeded sums, terminating ones among them, give the frozen
    sum's (mid, rad, prec): the bound stops each sum at the same term and
    adds the same tail."""
    rng = random.Random(31)
    cases = [(pv, q, z, F(1, 1 << rng.choice((8, 40, 160)))) for pv, q, z in ratio_bound_cases()]
    for pv, q, z, eps in cases[:40]:
        cases.append((ParamVector(pv.upper + (qpow(q, -rng.randint(0, 6)),), pv.lower), q, z, eps))
    cases += [c for c in rphis_cases() if c[0].r <= c[0].s + 1][:60]
    summed = 0
    for pv, q, z, eps in cases:
        try:
            want = frozen_rphis_ball(pv, q, z, eps)
        except (DivergentSeriesError, VanishingPochhammerError, ScalarOverflowError) as exc:
            with pytest.raises(type(exc), match=re.escape(str(exc))):
                rphis_ball(pv, q, z, eps)
            continue
        got = rphis_ball(pv, q, z, eps)
        assert (got.mid, got.rad, got.prec) == (want.mid, want.rad, want.prec), (pv, q, z, eps)
        summed += 1
    assert len(cases) >= 200 and summed >= 180
