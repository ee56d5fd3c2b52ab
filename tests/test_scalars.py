"""Scalar layer: q-Pochhammer symbols, q-binomials, the shift identity."""

import random
from fractions import Fraction as F
from math import gcd, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhyper import families, scalars
from qhyper.scalars import (
    Ball,
    RootOfUnityError,
    ScalarOverflowError,
    binom2,
    check_magnitude,
    max_deviation,
    qbinom,
    qpoch,
    qpoch_inf,
    qpoch_inf_ball,
    qpoch_shift,
    qpow,
)

rationals = st.fractions(
    min_value=-4, max_value=4, max_denominator=32
)
bases = st.fractions(min_value=F(1, 8), max_value=F(7, 8), max_denominator=32).filter(
    lambda q: q != 0
)


def test_qpoch_small_values():
    q = F(1, 2)
    assert qpoch(q, q, 0) == 1
    assert qpoch(q, q, 1) == F(1, 2)
    assert qpoch(q, q, 2) == F(1, 2) * F(3, 4)
    assert qpoch(F(2), F(1, 2), 1) == -1
    assert qpoch(F(0), F(1, 2), 5) == 1


def test_qpoch_rejects_negative_n():
    with pytest.raises(ValueError):
        qpoch(F(1), F(1, 2), -1)
    qpoch(F(1, 3), F(1, 2), 6)  # a filled table does not change that
    with pytest.raises(ValueError):
        qpoch(F(1, 3), F(1, 2), -1)


@given(a=rationals, q=bases, n=st.integers(0, 12), m=st.integers(0, 6))
@settings(max_examples=60, deadline=None)
def test_qpoch_concatenation(a, q, n, m):
    # (a;q)_{n+m} = (a;q)_n (a q^n;q)_m
    assert qpoch(a, q, n + m) == qpoch(a, q, n) * qpoch(a * q**n, q, m)


def test_qbinom_derived_value():
    # [2 1]_q = 1 + q, at q = 1/2 that is 3/2
    assert qbinom(2, 1, F(1, 2)) == F(3, 2)


def test_qbinom_out_of_range_is_zero():
    assert qbinom(3, -1, F(1, 2)) == 0
    assert qbinom(3, 4, F(1, 2)) == 0


@given(q=bases, n=st.integers(0, 10), k=st.integers(0, 10))
@settings(max_examples=60, deadline=None)
def test_qbinom_symmetry_and_pascal(q, n, k):
    assert qbinom(n, k, q) == qbinom(n, n - k, q)
    if 1 <= k <= n:
        # q-Pascal rule
        assert qbinom(n, k, q) == qbinom(n - 1, k - 1, q) + q**k * qbinom(n - 1, k, q)


def test_shift_identity_derived_value():
    # n=1, a=2, q=1/2: lhs = 1 - 2*2 = -3, rhs = (1 - 1/4)(-2)(2) = -3
    lhs, rhs = qpoch_shift(F(2), F(1, 2), 1)
    assert lhs == -3
    assert rhs == -3


@given(a=rationals.filter(lambda a: a != 0), q=bases, n=st.integers(0, 10))
@settings(max_examples=80, deadline=None)
def test_shift_identity_always_balances(a, q, n):
    lhs, rhs = qpoch_shift(a, q, n)
    assert lhs == rhs


def test_shift_identity_rejects_zero_a():
    with pytest.raises(ValueError):
        qpoch_shift(F(0), F(1, 2), 3)


def test_qpoch_inf_telescoping():
    # qpoch_inf(a)/qpoch_inf(a q^n) approximates (a;q)_n
    a, q, n = F(1, 3), F(1, 2), 4
    eps = F(1, 1 << 80)
    ratio = qpoch_inf(a, q, eps) / qpoch_inf(a * q**n, q, eps)
    assert abs(ratio - qpoch(a, q, n)) < F(1, 1 << 60)


def test_qpoch_inf_stabilizes_under_smaller_eps():
    a, q = F(2, 3), F(1, 2)
    v1 = qpoch_inf(a, q, F(1, 1 << 80))
    v2 = qpoch_inf(a, q, F(1, 1 << 160))
    assert abs(v1 - v2) < F(4, 1 << 80)


def test_qpoch_inf_cap_follows_its_own_eps():
    # at eps = 2^-160 the 382-factor partial product passes MAX_SCALAR_BITS;
    # its cap is max(MAX_SCALAR_BITS, 4096 * 160) bits, whichever run calls it
    a, q, eps = F(1, 3), F(3, 4), F(1, 1 << 160)
    plain, aq = F(1), a
    while abs(aq) >= eps:
        plain, aq = plain * (1 - aq), aq * q
    value = qpoch_inf(a, q, eps)
    assert value == plain
    assert value.denominator.bit_length() > scalars.MAX_SCALAR_BITS
    with pytest.raises(ScalarOverflowError):
        check_magnitude(value)


def test_qpoch_inf_requires_contracting_q():
    with pytest.raises(ValueError):
        qpoch_inf(F(1, 2), F(2), F(1, 1 << 20))


def walked_qpoch_inf(a, q, eps):
    """The plain walk: a Fraction product, checked once per factor."""
    b = eps.denominator.bit_length() - eps.numerator.bit_length()
    limit = max(scalars.MAX_SCALAR_BITS, 4096 * b)
    result, aq = F(1), a
    while abs(aq) >= eps:
        result *= 1 - aq
        aq *= q
        scalars.check_magnitude(result, limit)
    return result


def qpoch_inf_calls():
    """A seeded mix of (a, q, eps), led by the edge cases."""
    q = F(-2, 3)
    calls = [
        (F(0), F(1, 2), F(1, 1 << 20)),  # a = 0
        (3, q, F(1, 1 << 40)),  # int a, |a| >= 1, negative q
        (q**-3, q, F(1, 1 << 40)),  # a = q^-3: the factor 1 - a q^3 is 0
        (F(1, 1 << 30), F(1, 2), F(1, 1 << 20)),  # eps > |a|: no factor
        (F(1, 3), F(-(1 << 30) + 1, 1 << 30), F(1, 1 << 8)),  # crosses the cap
        (F(12, 5), F(10, 21), F(1, 1 << 80)),  # primes of a and q cancel
    ]
    rng = random.Random(9)
    for _ in range(150):
        m = rng.choice((4, 64, 1 << 20))
        q = F(rng.randint(1, m - 1), m) * rng.choice((1, -1))
        a = rng.choice((F(rng.randint(-m, m), rng.randint(1, m)), rng.randint(-3, 3)))
        calls.append((a, q, F(rng.randint(1, 3), 1 << rng.choice((1, 8, 16, 24)))))
    return calls


def test_qpoch_inf_checks_the_products_of_the_plain_walk(monkeypatch):
    """Same value, hash and overflow message, and one magnitude check per
    factor on the same reduced partial products."""
    checked = []

    def recording_check(x, limit):
        checked.append((x.numerator, x.denominator))
        return check_magnitude(x, limit)

    monkeypatch.setattr(scalars, "check_magnitude", recording_check)
    overflows = 0
    for a, q, eps in qpoch_inf_calls():
        try:
            expected = walked_qpoch_inf(a, q, eps)
        except ScalarOverflowError as exc:
            expected = exc
        walked, checked[:] = checked[:], []
        if isinstance(expected, ScalarOverflowError):
            overflows += 1
            with pytest.raises(ScalarOverflowError) as raised:
                qpoch_inf(a, q, eps)
            assert str(raised.value) == str(expected)
        else:
            value = qpoch_inf(a, q, eps)
            assert type(value) is F and value == expected, (a, q, eps)
            assert (value.numerator, value.denominator) == (expected.numerator, expected.denominator)
            assert hash(value) == hash(expected)
        assert checked == walked, (a, q, eps)
        checked.clear()
    assert overflows > 0


def test_qpoch_inf_edge_values():
    calls = qpoch_inf_calls()
    assert qpoch_inf(*calls[0]) == 1
    assert qpoch_inf(*calls[2]) == 0 and qpoch_inf(*calls[2]).denominator == 1
    assert qpoch_inf(*calls[3]) == 1


def test_coprime_fraction_is_the_normalized_fraction():
    for n, d in ((0, 1), (1, 1), (-7, 12), (3, 1 << 200), ((1 << 300) + 1, 3**150)):
        x = scalars._coprime_fraction(n, d)
        assert type(x) is F
        assert x == F(n, d) and hash(x) == hash(F(n, d)) and str(x) == str(F(n, d))
        assert x + 1 == F(n + d, d)


def is_smooth(d, s):
    """True when every prime of d divides s."""
    g = gcd(d, s)
    while g > 1:
        d //= g
        g = gcd(d, g)
    return d == 1


def qpoch_inf_values():
    """(value, den(a) den(q)) for every call of `qpoch_inf_calls` that does
    not overflow."""
    values = []
    for a, q, eps in qpoch_inf_calls():
        try:
            values.append((qpoch_inf(a, q, eps), F(a).denominator * q.denominator))
        except ScalarOverflowError:
            pass
    return values


def test_qpoch_inf_denominators_use_only_primes_of_a_and_q():
    values = qpoch_inf_values()
    assert len(values) > 100
    for value, s in values:
        assert is_smooth(value.denominator, s), (value, s)


def fraction_chain(top, bottom):
    return prod(top, start=F(1)) / prod(bottom, start=F(1))


def test_qpoch_inf_ball_holds_the_partial_product_and_the_limit():
    """The ball holds the product taken 40 bits deeper, which is within
    about 2^-40 eps of the true value, and, when eps <= (1 - |q|)/2 makes it walk the
    same factors, qpoch_inf's partial product, with a radius near eps; a
    zero factor gives the exact 0."""
    same_walks = 0
    for a, q, eps in qpoch_inf_calls():
        try:
            partial = qpoch_inf(a, q, eps)
            deep = qpoch_inf(a, q, eps / (1 << 40))
        except ScalarOverflowError:
            continue
        ball = qpoch_inf_ball(F(a), q, eps)
        assert ball.prec == scalars.ball_precision(eps)
        assert deep in ball, (a, q, eps)
        if eps <= (1 - abs(q)) / 2:
            same_walks += 1
            assert partial in ball, (a, q, eps)
            assert F(ball.rad, 1 << ball.prec) <= 8 * eps * max(1, abs(partial)) / (1 - abs(q))
    assert same_walks > 50
    zero = qpoch_inf_ball(F(-2, 3) ** -3, F(-2, 3), F(1, 1 << 40))
    assert (zero.mid, zero.rad) == (0, 0)
    with pytest.raises(ValueError):
        qpoch_inf_ball(F(1, 2), F(2), F(1, 1 << 20))


def frozen_qpoch_inf_ball(a, q, eps):
    """qpoch_inf_ball as it was when its walk made two Balls per factor."""
    p = scalars.ball_precision(eps)
    one = 1 << p
    nq, dq = q.numerator, q.denominator
    ne, de = eps.numerator, eps.denominator
    gap = dq - abs(nq)
    num, den = a.numerator, a.denominator
    y = Ball.of(a, p)
    value = Ball(one, 0, p)
    while abs(num) * de >= ne * den or 2 * abs(num) * dq > den * gap:
        if num == den:
            return Ball(0, 0, p)
        value = value * Ball(one - y.mid, y.rad, p)
        num, den = num * nq, den * dq
        y = y._scaled(nq, dq)
    bound = abs(value.mid) + value.rad
    return Ball(value.mid, value.rad - (-bound * 2 * abs(num) * dq // (den * gap)), p)


def test_qpoch_inf_ball_equals_the_ball_operations_walk():
    """The walk on plain ints gives the (mid, rad, prec) that the walk by
    Ball products gives: negative a and q, q = 63/64, a factor a q^k = 1,
    and eps = 1/2, where the walk goes on past eps until sigma <= 1/2."""
    q = F(-2, 3)
    calls = [
        (q**-3, q, F(1, 1 << 40)),
        (F(63, 64) ** -5, F(63, 64), F(1, 2)),
        (F(-7, 3), F(63, 64), F(1, 2)),
        (F(5, 2), F(-63, 64), F(1, 1 << 100)),
        (F(0), F(1, 2), F(1, 2)),
    ]
    rng = random.Random(24)
    for _ in range(200):
        m = rng.randint(2, 64)
        q = F(rng.randint(1, m - 1), m) * rng.choice((1, -1))
        a = F(rng.randint(-3 * m, 3 * m), rng.randint(1, m))
        eps = F(1, 2) if rng.random() < 0.25 else F(rng.randint(1, 3), 1 << rng.choice((8, 40, 200)))
        calls.append((a, q, eps))
    zeros = 0
    for a, q, eps in calls:
        ball, frozen = qpoch_inf_ball(a, q, eps), frozen_qpoch_inf_ball(a, q, eps)
        assert (ball.mid, ball.rad, ball.prec) == (frozen.mid, frozen.rad, frozen.prec), (a, q, eps)
        zeros += ball.mid == ball.rad == 0
    assert zeros >= 2


@settings(max_examples=300, deadline=None)
@given(
    st.integers(min_value=-(1 << 300), max_value=1 << 300),
    st.integers(min_value=1, max_value=1 << 300),
    st.integers(min_value=1, max_value=1 << 200),
    st.sampled_from([64, 224, 600]),
)
def test_ball_of_an_unreduced_ratio_is_the_ball_of_the_fraction(n, d, g, prec):
    """Ball.of_ratio(n g, d g) is Ball.of(n / d): the common factor g moves
    neither the floor nor whether the remainder is 0."""
    ball, want = Ball.of_ratio(n * g, d * g, prec), Ball.of(F(n, d), prec)
    assert (ball.mid, ball.rad, ball.prec) == (want.mid, want.rad, want.prec)
    zero = Ball.of_ratio(0, d * g, prec)
    assert (zero.mid, zero.rad) == (0, 0)


def test_ball_precision_is_64_bits_below_eps():
    for eps, bits in ((F(1, 1 << 80), 80), (F(3, 8), 2), (F(1, 3), 2), (F(1), 0), (F(5), 0)):
        assert scalars.ball_precision(eps) == bits + 64
        assert F(1, 1 << bits) <= eps


def random_ball(rng, prec):
    """A ball of random midpoint and radius, and an exact point inside it."""
    mid = rng.randint(-(1 << (prec + 8)), 1 << (prec + 8))
    rad = rng.choice((0, 1, rng.randint(0, 1 << (prec - 4))))
    point = F(mid * (1 << 20) + rng.randint(-rad << 20, rad << 20), 1 << (prec + 20))
    return Ball(mid, rad, prec), point


def test_ball_operations_hold_the_exact_results():
    """Every operation, on balls and on exact int and Fraction operands on
    the side it takes them, gives a ball that holds the result on points of
    its operands."""
    rng = random.Random(12)
    prec = 72
    for _ in range(400):
        (x, px), (y, py) = random_ball(rng, prec), random_ball(rng, prec)
        r = F(rng.randint(-10**6, 10**6), rng.randint(1, 10**6)) or F(1)
        n = rng.randint(-9, 9) or 1
        assert px in x and py in y
        cases = [(x + y, px + py), (x * y, px * py), (x + r, px + r),
                 (x * r, px * r), (n * x, n * px), (x / r, px / r), (x / n, px / n)]
        if abs(y.mid) > y.rad:
            cases += [(x / y, px / py)]
        else:
            with pytest.raises(ZeroDivisionError):
                x / y
        for ball, exact in cases:
            assert type(ball) is Ball and ball.prec == prec and ball.rad >= 0
            assert exact in ball, (ball, exact)
        assert x.gap(y) >= abs(px - py) and x.abs_lower() <= abs(px)
    with pytest.raises(ZeroDivisionError):
        Ball(5, 5, prec) / Ball(-3, 4, prec)
    with pytest.raises(ZeroDivisionError):
        Ball(5, 5, prec) / F(0)
    with pytest.raises(ValueError):
        Ball(5, 5, prec) + Ball(5, 5, prec + 1)


def test_ball_quotient_holds_the_fraction_chain_on_qpoch_inf_values():
    """A quotient of (c;q)_inf balls, formed the way a numeric trial forms
    it, holds the Fraction quotient of the exact partial products."""
    rng = random.Random(3)
    calls = [c for c in qpoch_inf_calls() if abs(c[1]) < F(15, 16) and c[2] <= F(1, 256)]
    zeros = 0
    for shape in ((2, 2), (3, 2), (1, 1)):
        for _ in range(60):
            picks = rng.sample(calls, sum(shape))
            eps = min(c[2] for c in picks)
            top = [(F(a), q) for a, q, _ in picks[: shape[0]]]
            bottom = [(F(a), q) for a, q, _ in picks[shape[0]:]]
            try:
                exact = [[qpoch_inf(a, q, eps) for a, q in side] for side in (top, bottom)]
            except ScalarOverflowError:
                continue
            balls = [[qpoch_inf_ball(a, q, eps) for a, q in side] for side in (top, bottom)]
            value = balls[0][0]
            for b in balls[0][1:]:
                value = value * b
            if 0 in exact[1]:
                zeros += 1
                with pytest.raises(ZeroDivisionError):
                    for b in balls[1]:
                        value = value / b
                continue
            for b in balls[1]:
                value = value / b
            assert fraction_chain(*exact) in value
    assert zeros > 0


def test_qpow_negative_exponent():
    assert qpow(F(1, 2), -3) == 8
    assert qpow(F(2, 3), 2) == F(4, 9)


def old_qpow(q, e):
    """qpow as it was: a negative power as the quotient 1 / q**-e."""
    return q**e if e >= 0 else F(1) / q ** (-e)


def outcome_of(fn, *args):
    try:
        value = fn(*args)
    except ZeroDivisionError as exc:
        return type(exc), str(exc)
    return type(value), value


@pytest.mark.parametrize("q", [F(7, 5), F(-3, 8), F(1, 1), 3, -2, 1, F(0), 0])
def test_qpow_gives_the_quotients_value_and_type(q):
    """The same value and type as 1 / q**-e over e in -60..60, for Fraction
    and int q of both signs; at q = 0 the same ZeroDivisionError message."""
    for e in range(-60, 61):
        assert outcome_of(qpow, q, e) == outcome_of(old_qpow, q, e), e
    if q == 0:
        assert outcome_of(qpow, q, -2) == (ZeroDivisionError, "Fraction(1, 0)")


def test_binom2():
    assert [binom2(n) for n in range(6)] == [0, 0, 1, 3, 6, 10]


def test_check_magnitude_overflow():
    big = F(1 << 200, 3)
    with pytest.raises(ScalarOverflowError):
        check_magnitude(big, limit=100)
    assert check_magnitude(big) == big  # default cap is far larger


def test_max_deviation_is_largest_gap_and_zero_when_empty():
    assert max_deviation([]) == 0
    assert max_deviation([(F(1), F(1)), (F(1, 2), F(-1)), (F(0), F(1))]) == F(3, 2)


# -- the prefix table behind qpoch --------------------------------------------


def plain_qpoch(a, q, n):
    result = F(1)
    for k in range(n):
        result *= 1 - a * q**k
    return result


def _bits(x):
    return x.numerator.bit_length() + x.denominator.bit_length() + scalars._QPOCH_ENTRY_BITS


def assert_total_is_the_charge():
    """The running total charges every rational the store holds: the values
    and next factor of each prefix table, and the values of each q-binomial
    row kept on it."""
    assert scalars._qpoch_bits == sum(
        sum(map(_bits, values)) + _bits(next_factor)
        + sum(sum(map(_bits, row)) for row in (rows or {}).values())
        for values, next_factor, _, rows in scalars._QPOCH_TABLES.values()
    )


def assert_checked_counts_stop_at_the_cap():
    """A prefix table's checked count covers only entries under the cap; a
    q-binomial row is whole, and hangs on a (q;q) table whose checked count
    covers (q;q)_n."""
    cap = scalars.MAX_SCALAR_BITS
    for key, (values, next_factor, checked, rows) in scalars._QPOCH_TABLES.items():
        assert checked <= len(values)
        assert all(v.numerator.bit_length() <= cap and v.denominator.bit_length() <= cap
                   for v in values[:checked]), key
        if rows is not None:
            assert len(key) == 4 and key[:2] == key[2:] and rows, key
        for n, row in (rows or {}).items():
            assert len(row) == n + 1 and checked > n, (key, n)


def assert_qbinom_rows_are_the_quotients():
    """Every q-binomial row in the store, read from the (q;q) tables, equals
    the Fraction quotients."""
    rows = [(n, F(key[2], key[3]), row) for key, (_, _, _, by_n) in scalars._QPOCH_TABLES.items()
            for n, row in (by_n or {}).items()]
    for n, q, row in rows:
        assert row == [divided_qbinom(n, k, q) for k in range(n + 1)], (n, q)
        assert all(type(v) is F for v in row)
    return len(rows)


def table_key(x, y, q):
    key = (F(y).numerator, F(y).denominator, q.numerator, q.denominator)
    return key if x == 1 else key + (F(x).numerator, F(x).denominator)


@pytest.fixture
def watched_tables(monkeypatch):
    """Check the store's one rule on every new entry and every prefix-table
    fetch: a read or an extension keeps every entry; a new key is added,
    after all entries are dropped if the total was past the budget, so the
    entry in use is never dropped; the table in use ends at full length; the
    total is the charge of what is held; no checked count passes an
    over-cap entry.  The value is the list of keys that arrived over
    budget."""
    store, fetch, clears = scalars._store, scalars._prefix_table, []

    def watched_store(key, entry, bits):
        before, total = list(scalars._QPOCH_TABLES), scalars._qpoch_bits
        assert key not in before
        value = store(key, entry, bits)
        after = list(scalars._QPOCH_TABLES)
        if total > scalars._QPOCH_BUDGET_BITS:
            assert after == [key]
            clears.append(key)
        else:
            assert after == before + [key]
        assert scalars._QPOCH_TABLES[key] is entry
        return value

    def watched_fetch(x, y, q, n):
        key, before = table_key(x, y, q), list(scalars._QPOCH_TABLES)
        table = fetch(x, y, q, n)
        after = list(scalars._QPOCH_TABLES)
        if key in before:
            assert after == before
        else:
            assert after[-1] == key
        assert scalars._QPOCH_TABLES[key] is table and len(table[0]) > n
        assert_total_is_the_charge()
        assert_checked_counts_stop_at_the_cap()
        return table

    monkeypatch.setattr(scalars, "_store", watched_store)
    monkeypatch.setattr(scalars, "_prefix_table", watched_fetch)
    return clears


def qpoch_calls():
    """A shuffled mix of (a, q, n): int a, negative q, |q| > 1, n = 0, and
    short reads of tables that longer calls built."""
    args = [(a, q, n)
            for a in (F(2), 3, -1, F(-5, 7), F(1, 3))
            for q in (F(1, 2), F(-2, 3), F(5, 2), F(-7, 3))
            for n in (0, 1, 4, 23)]
    random.Random(7).shuffle(args)
    return args


def test_qpoch_table_equals_plain_product(empty_tables, watched_tables, monkeypatch):
    monkeypatch.setattr(scalars, "_QPOCH_BUDGET_BITS", 1 << 17)  # holds a few tables
    built, rebuilds = set(), 0
    for a, q, n in qpoch_calls():
        key = table_key(1, a, q)
        rebuilds += key in built and key not in scalars._QPOCH_TABLES
        assert qpoch(a, q, n) == plain_qpoch(a, q, n)
        built.add(key)
    assert watched_tables and rebuilds > 0


def test_qpoch_table_is_a_pure_memo(empty_tables):
    kept = [qpoch(a, q, n) for a, q, n in qpoch_calls()]
    rebuilt = []
    for a, q, n in qpoch_calls():
        empty_tables()
        rebuilt.append(qpoch(a, q, n))
    assert rebuilt == kept
    assert all(type(v) is F for v in kept)


def test_qbinom_root_of_unity_from_a_filled_table(empty_tables):
    q = F(-1)
    assert qpoch(q, q, 5) == 0  # the q = -1 table now holds (q;q)_2 = 0
    assert qpoch(q, q, 1) == 2
    with pytest.raises(RootOfUnityError):
        qbinom(4, 2, q)


def test_qpoch_overflow_verdict_does_not_depend_on_the_table(empty_tables):
    q, n = F(1, 1 << 600), 15  # (q;q)_15 has a 72000-bit denominator
    with pytest.raises(ScalarOverflowError):
        qpoch(q, q, n)
    value = scalars._QPOCH_TABLES[(1, 1 << 600, 1, 1 << 600)][0][n]
    assert value == plain_qpoch(q, q, n)
    assert value.denominator.bit_length() > scalars.MAX_SCALAR_BITS
    with pytest.raises(ScalarOverflowError):
        qpoch(q, q, n)
    assert qpoch(q, q, 2) == plain_qpoch(q, q, 2)


def test_checked_count_stops_at_the_first_entry_past_the_cap(empty_tables):
    """With q = 2^-600 and a = q^-16, (a;q)_k passes the cap for k <= 9,
    is past it for 10 <= k <= 16 and is 0 from k = 17 on, and so is
    P_k(x, x a) = x^k (a;q)_k at x = 2/3.  A reader made on an empty store
    forms entries up to the first past the cap, and the checked count stops
    there, at 10; every read at or past it is checked again, so an over-cap
    entry raises on every read, through `qpoch` and `cauchy_P` alike, and a 0
    after it is returned.  A reader that reaches past the count is
    `_prefix_value` per k; one that does not is the table's own list."""
    q = F(1, 1 << 600)
    a = q**-16
    for x, read in ((1, lambda k: qpoch(a, q, k)),
                    (F(2, 3), lambda k: families.cauchy_P(k, F(2, 3), F(2, 3) * a, q))):
        y = x * a
        partial = scalars._prefix_reader(x, y, q, 20)
        table = scalars._QPOCH_TABLES[table_key(x, y, q)]
        assert (len(table[0]), table[2]) == (11, 10)
        assert read(20) == 0
        assert table[2] == 10
        assert_checked_counts_stop_at_the_cap()
        for _ in range(2):
            with pytest.raises(ScalarOverflowError):
                read(12)
            assert read(9) == plain_cauchy_P(9, x, y, q) and read(17) == 0
        assert table[2] == 10
        assert scalars._prefix_reader(x, y, q, 9).__self__ is table[0]
        assert getattr(partial, "__self__", None) is not table[0]
        assert [partial(k) for k in (0, 9, 17, 20)] == [read(k) for k in (0, 9, 17, 20)]
        for k in (10, 16):
            with pytest.raises(ScalarOverflowError):
                partial(k)


def test_asc_psi_keeps_its_tables_at_full_length(empty_tables):
    """At the CLI's largest degree the (q;q) table, with the row [128 k]_q on
    it, and the (a;1/q) table of asc_psi are each past the budget.  The sum
    extends the (q;q) table a shorter sum made and hangs the row on it, then
    fetches the (a;1/q) table, whose arrival drops the (q;q) table together
    with its row; the (a;1/q) table stays whole, and a second call, which
    makes the (q;q) table and its row again, ends with the same store and
    value."""
    q, a, x = F(63, 64), F(5, 7), F(3, 4)
    families.asc_psi(16, F(1, 7), x, q)
    value = families.asc_psi(128, a, x, q)
    tables, bits = scalars._QPOCH_TABLES, scalars._qpoch_bits
    assert list(tables) == [table_key(1, a, 1 / q)]
    assert all(len(values) == 129 and rows is None for values, _, _, rows in tables.values())
    assert bits > scalars._QPOCH_BUDGET_BITS
    assert_total_is_the_charge()
    assert families.asc_psi(128, a, x, q) == value and scalars._qpoch_bits == bits
    assert list(tables) == [table_key(1, a, 1 / q)]


# -- the Cauchy products P_n(x, y) share the tables ---------------------------


def plain_cauchy_P(n, x, y, q):
    result = F(1)
    for j in range(n):
        result *= x - y * q**j
    return result


def cauchy_P_calls():
    """A shuffled mix of (n, x, y, q): x = 0, y = 0, x = y, x = 1, int
    arguments, negative q, |q| > 1, n = 0, and short reads of tables that
    longer calls built."""
    points = [(F(0), F(2, 3)), (F(-5, 7), F(0)), (F(3, 4), F(3, 4)), (F(1), F(-2, 5)),
              (1, 3), (-2, F(1, 3)), (F(7, 2), -1)]
    args = [(n, x, y, q)
            for x, y in points
            for q in (F(1, 2), F(-2, 3), F(5, 2), F(-7, 3))
            for n in (0, 1, 4, 23)]
    random.Random(8).shuffle(args)
    return args


def test_cauchy_P_table_equals_plain_product(empty_tables, watched_tables, monkeypatch):
    monkeypatch.setattr(scalars, "_QPOCH_BUDGET_BITS", 1 << 17)  # holds a few tables
    built, rebuilds = set(), 0
    for n, x, y, q in cauchy_P_calls():
        key = table_key(x, y, q)
        rebuilds += key in built and key not in scalars._QPOCH_TABLES
        value = families.cauchy_P(n, x, y, q)
        assert type(value) is F and value == plain_cauchy_P(n, x, y, q), (n, x, y, q)
        if n > 0:
            built.add(key)
    assert watched_tables and rebuilds > 0


def test_cauchy_P_table_is_a_pure_memo(empty_tables):
    kept = [families.cauchy_P(*args) for args in cauchy_P_calls()]
    rebuilt = []
    for args in cauchy_P_calls():
        empty_tables()
        rebuilt.append(families.cauchy_P(*args))
    assert rebuilt == kept


def test_cauchy_P_at_x_1_reads_the_qpoch_table(empty_tables):
    a, q = F(-3, 5), F(2, 7)
    assert qpoch(a, q, 9) == plain_qpoch(a, q, 9)
    assert list(scalars._QPOCH_TABLES) == [(-3, 5, 2, 7)]
    for n in range(10):
        assert families.cauchy_P(n, F(1), a, q) == qpoch(a, q, n)
    assert list(scalars._QPOCH_TABLES) == [(-3, 5, 2, 7)]


def frozen_prefix_extension(table, x, q, n):
    """The `Fraction` loop that extends a prefix table [values, y q^m,
    checked] to hold P_n, as `_prefix_table` did before it stepped on ints;
    the bits it charges."""
    values = table[0]
    if n < len(values):
        return 0
    result, yq, checked = values[-1], table[1], table[2]
    cap = scalars.MAX_SCALAR_BITS
    bits = -yq.numerator.bit_length() - yq.denominator.bit_length()
    for _ in range(len(values), n + 1):
        result *= x - yq
        yq *= q
        nb, db = result.numerator.bit_length(), result.denominator.bit_length()
        if checked == len(values) and nb <= cap and db <= cap:
            checked += 1
        values.append(result)
        bits += scalars._QPOCH_ENTRY_BITS + nb + db
    table[1], table[2] = yq, checked
    return bits + yq.numerator.bit_length() + yq.denominator.bit_length()


@pytest.mark.parametrize("x, y, q", [
    (1, F(-3, 5), F(2, 7)),  # x = 1: (a;q)_n
    (1, 3, -2),  # int y and q, |q| > 1
    (F(2, 3), F(-5, 4), F(-7, 9)),  # negative q
    (F(-9, 2), F(6, 5), F(5, 3)),
    (F(2, 3), 0, F(1, 2)),  # y = 0: P_n = x^n
    (F(3, 4), F(3, 4) * 2**5, F(1, 2)),  # y q^5 = x: every entry from P_6 on is 0
    (3, 24, F(1, 2)),  # int x and y, y q^3 = x
    (1, F(1, 3**5000), F(63, 64)),  # entries pass the cap from P_9 on
])
def test_prefix_table_extension_equals_the_fraction_loop(empty_tables, x, y, q):
    """Extended in steps, a table holds the frozen loop's entries, next
    factor y q^m and checked count, and charges the same bits."""
    table = scalars._prefix_table(x, y, q, 0)
    frozen = [list(table[0]), table[1], table[2]]
    for n in (1, 3, 4, 12, 30):
        before = scalars._qpoch_bits
        assert scalars._prefix_table(x, y, q, n) is table
        assert scalars._qpoch_bits - before == frozen_prefix_extension(frozen, x, q, n), n
        assert [(type(v), v.numerator, v.denominator) for v in table[0]] == [
            (F, v.numerator, v.denominator) for v in frozen[0]
        ], n
        assert (table[1].numerator, table[1].denominator, table[2]) == (
            frozen[1].numerator, frozen[1].denominator, frozen[2]
        ), n
    zeros = [m for m in range(31) if y * F(q) ** m == x]
    if zeros:
        assert table[0][zeros[0] + 1:] == [0] * (30 - zeros[0])
    if y == F(1, 3**5000):
        assert table[2] == 9


def test_cauchy_P_of_nonpositive_degree_is_one_and_builds_no_table(empty_tables):
    for n in (0, -1, -4):
        value = families.cauchy_P(n, F(2), F(3), F(1, 2))
        assert type(value) is F and value == 1
    assert scalars._QPOCH_TABLES == {}


def test_tables_keep_one_rule_over_a_mixed_sweep(empty_tables, watched_tables, monkeypatch):
    monkeypatch.setattr(scalars, "_QPOCH_BUDGET_BITS", 1 << 17)
    pv = families.ParamVector((F(1, 3), F(-2)), (F(2, 5),))
    rng = random.Random(3)
    calls = [lambda a=a, q=q, n=n: qpoch(a, q, n) for a, q, n in qpoch_calls()]
    calls += [lambda args=args: families.cauchy_P(*args) for args in cauchy_P_calls()]
    for n in range(0, 24, 3):
        x, y, z = (F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        calls.append(lambda pt=families.FamilyPoint(x, y, z, n), q=F(rng.randint(1, 8), 9):
                     families.psi_general(pt, pv, q))
    for n in range(0, 24, 2):
        a, x, y, z = (F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(4))
        q = F(rng.randint(1, 8), 9) * rng.choice((1, -1))
        calls.append(lambda args=(n, a, x, y, q): families.hahn2_phi(*args))
        calls.append(lambda args=(n, pv, x, y, z, q): families.v_poly(*args))
    rng.shuffle(calls)
    for call in calls:
        call()
    # which kinds of table survive the last clear depends on the shuffle, so
    # a table past the budget makes the next arrival clear the store, and a
    # last sum at a new q then forms a (q;q) table with a q-binomial row on
    # it, an (a;q) table and a Cauchy table
    qpoch(F(1, 3), F(5, 11), 128)
    families.gen_hahn(5, F(2, 5), F(-1, 2), F(1, 3), F(3, 4), F(5, 11))
    assert watched_tables
    assert {len(key) for key in scalars._QPOCH_TABLES} == {4, 6}
    assert_checked_counts_stop_at_the_cap()
    assert assert_qbinom_rows_are_the_quotients() > 0


def test_each_n_and_q_has_one_qbinom_row(empty_tables, monkeypatch):
    """psi_general at the CLI's largest degree reads [128 k]_q through
    `qbinom` per k, while its (q;q) table and the row on it are past the
    budget.  The row is formed once, no read in the sum evicts it, and every
    later `qbinom` and `_qbinom_reader` read returns an entry of that one
    list."""
    formed, row_of = [], scalars._qbinom_row

    def counted(n, q):
        row = row_of(n, q)
        if all(row is not seen for seen in formed):
            formed.append(row)
        return row

    monkeypatch.setattr(scalars, "_qbinom_row", counted)
    q = F(63, 64)
    pt = families.FamilyPoint(F(3, 4), F(-2, 3), F(1, 5), 128)
    pv = families.ParamVector((F(2, 3), F(-5, 6)), (F(1, 7),))
    families.psi_general(pt, pv, q)
    assert scalars._qpoch_bits > scalars._QPOCH_BUDGET_BITS
    [row] = formed
    assert len(row) == 129
    reader = scalars._qbinom_reader(128, q)
    for k in range(129):
        assert qbinom(128, k, q) is row[k] and reader(k) is row[k], k
    assert formed == [row]


# -- q-binomials by exact division ----------------------------------------------


def divided_qbinom(n, k, q):
    """The q-binomial as a quotient of Fractions, in the same call order."""
    if k < 0 or k > n:
        return F(0)
    den = qpoch(q, q, k) * qpoch(q, q, n - k)
    if den == 0:
        raise RootOfUnityError(f"(q;q)_k vanished for q = {q}")
    return qpoch(q, q, n) / den


def test_qbinom_equals_the_fraction_quotient():
    qs = [F(1, 2), F(-2, 3), F(7, 3), F(-5, 2), 3, -2, F(1, 9), F(-1, 2), 0]
    for q in qs:
        for n in (0, 1, 2, 7, 19, 40):
            for k in range(-1, n + 2):
                got, want = qbinom(n, k, q), divided_qbinom(n, k, q)
                assert type(got) is F
                assert got == want
                assert (got.numerator, got.denominator) == (want.numerator, want.denominator)
                assert hash(got) == hash(want) and str(got) == str(want)


def test_qbinom_at_minus_one_is_a_root_of_unity(empty_tables):
    with pytest.raises(RootOfUnityError):
        qbinom(4, 2, -1)
    assert qbinom(2, 1, -1) == divided_qbinom(2, 1, -1) == 0  # 1 + q, with (q;q)_2 = 0 on top
    # the reader's fetch does not raise past a vanishing (q;q)_2, and reads
    # `qbinom`'s value or error per k; no row is formed
    read = scalars._qbinom_reader(2, F(-1))
    assert read(1) == 0
    for k in (0, 2):
        with pytest.raises(RootOfUnityError):
            read(k)
    assert scalars._QPOCH_TABLES[(-1, 1, -1, 1)][3] is None


def overflow_message(fn, *args):
    with pytest.raises(ScalarOverflowError) as info:
        fn(*args)
    return str(info.value)


def test_qbinom_overflow_is_raised_by_the_same_symbol(empty_tables):
    # (q;q)_m has a 20m(m+1)/2-bit denominator: past the cap from m = 81 on
    q = F(1, 10**6)
    for n, k in ((120, 90), (120, 30), (100, 2), (90, 85)):
        want = overflow_message(divided_qbinom, n, k, q)
        empty_tables()
        assert overflow_message(qbinom, n, k, q) == want
    assert qbinom(60, 20, q) == divided_qbinom(60, 20, q)


# -- the exact sum-of-products kernel -------------------------------------------


big_ints = st.integers(min_value=-(1 << 300), max_value=1 << 300)
factors = st.one_of(
    big_ints,
    st.builds(F, big_ints, st.integers(min_value=1, max_value=1 << 300)),
    st.sampled_from([0, F(0), 1, -1, F(1, 2), F(-3, 4)]),
)


@given(terms=st.lists(st.lists(factors, max_size=6).map(tuple), max_size=12))
@settings(max_examples=200, deadline=None)
def test_sum_of_products_equals_the_fraction_sum(terms):
    got = scalars._sum_of_products(iter(terms))
    want = sum((prod(term, start=F(1)) for term in terms), F(0))
    assert type(got) is F
    assert (got.numerator, got.denominator) == (want.numerator, want.denominator)


@given(terms=st.lists(st.lists(big_ints, max_size=5).map(tuple), max_size=8))
@settings(max_examples=60, deadline=None)
def test_sum_of_products_of_ints_is_a_fraction(terms):
    got = scalars._sum_of_products(terms)
    assert type(got) is F
    assert got == sum(prod(term) for term in terms)
    assert got.denominator == 1


def test_sum_of_products_of_nothing_is_fraction_zero():
    for terms in ([], (), iter([])):
        got = scalars._sum_of_products(terms)
        assert type(got) is F and got == 0 and got.denominator == 1
    # an empty term is the empty product, 1
    assert scalars._sum_of_products([(), (F(1, 3),)]) == F(4, 3)
