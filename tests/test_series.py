"""Truncated power series over exact rationals."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhyper.operators import CauchyPoly
from qhyper.scalars import MAX_SCALAR_BITS, ScalarOverflowError, check_magnitude
from qhyper.series import (
    TruncSeries,
    cauchy_ratio_series,
    euler_inverse_series,
    euler_product_series,
    max_abs_deviation,
    qpoch_poly_series,
)

coeff = st.fractions(min_value=-3, max_value=3, max_denominator=16)


def test_constant_and_one():
    s = TruncSeries.one(4)
    assert s.coeffs == [F(1), F(0), F(0), F(0), F(0)]
    assert s.order == 4
    assert TruncSeries.constant(F(2, 3), 2).coeffs == [F(2, 3), F(0), F(0)]


def test_empty_series_rejected():
    with pytest.raises(ValueError):
        TruncSeries([])


def test_mul_truncates_to_common_order():
    a = TruncSeries([F(1), F(1)])
    b = TruncSeries([F(1), F(2), F(3), F(4)])
    assert (a * b).order == 1
    assert (a * b).coeffs == [F(1), F(3)]


def test_shift_pads_and_drops():
    s = TruncSeries([F(1), F(2), F(3)])
    assert s.shift(1).coeffs == [F(0), F(1), F(2)]
    assert s.shift(5).coeffs == [F(0), F(0), F(0)]
    assert s.shift(0) is s


def test_eval_horner():
    s = TruncSeries([F(1), F(2), F(3)])
    assert s.eval_horner(F(1, 2)) == 1 + 1 + F(3, 4)


@given(st.lists(coeff, min_size=1, max_size=13))
@settings(max_examples=60, deadline=None)
def test_inverse_is_right_inverse(coeffs):
    if coeffs[0] == 0:
        coeffs[0] = F(1)
    s = TruncSeries(coeffs)
    prod = s * s.inverse()
    assert prod == TruncSeries.one(s.order)


def test_inverse_needs_unit():
    with pytest.raises(ZeroDivisionError):
        TruncSeries([F(0), F(1)]).inverse()


@given(a=st.lists(coeff, min_size=1, max_size=8), b=st.lists(coeff, min_size=1, max_size=8))
@settings(max_examples=60, deadline=None)
def test_mul_commutes(a, b):
    assert TruncSeries(a) * TruncSeries(b) == TruncSeries(b) * TruncSeries(a)


def test_euler_pair_reciprocal():
    q, c, N = F(1, 3), F(2, 5), 12
    prod = euler_product_series(c, q, N) * euler_inverse_series(c, q, N)
    assert prod == TruncSeries.one(N)


def test_euler_at_zero_argument():
    s = euler_product_series(F(0), F(1, 2), 4)
    assert s.coeffs == [F(1), F(0), F(0), F(0), F(0)]


def test_cauchy_ratio_equals_product_form():
    # (yt;q)_inf / (xt;q)_inf assembled two ways
    x, y, q, N = F(1, 2), F(-1, 3), F(1, 4), 10
    direct = cauchy_ratio_series(x, y, q, N)
    assembled = euler_product_series(y, q, N) * euler_inverse_series(x, q, N)
    assert max_abs_deviation(direct, assembled) == 0


def test_qpoch_poly_series_telescopes():
    # (at;q)_{j+1} = (at;q)_j * (1 - a q^j t), also once j passes the order
    a, q = F(3, 7), F(1, 2)
    for N in (0, 2, 8):
        assert qpoch_poly_series(a, q, 0, N) == TruncSeries.one(N)
        for j in range(5):
            lhs = qpoch_poly_series(a, q, j + 1, N)
            step = TruncSeries([F(1), -a * q**j] + [F(0)] * (N - 1))
            assert lhs.order == N
            assert lhs == qpoch_poly_series(a, q, j, N) * step


def test_max_abs_deviation_picks_largest():
    f = TruncSeries([F(0), F(1), F(5)])
    g = TruncSeries([F(0), F(2), F(3)])
    assert max_abs_deviation(f, g) == 2


# -- products over one common denominator ---------------------------------------


def convolved(a, b):
    """The product's coefficients as a plain Fraction convolution, each checked
    in index order."""
    n = min(len(a), len(b)) - 1
    out = []
    for i in range(n + 1):
        acc = F(0)
        for j in range(i + 1):
            acc += a[j] * b[i - j]
        out.append(check_magnitude(acc))
    return out


def seeded_coeffs(rng, length):
    """A mix of zeros, ints, negative entries and Fractions with large and
    unrelated denominators."""
    picks = (
        lambda: 0,
        lambda: rng.randint(-9, 9),
        lambda: F(rng.randint(-99, 99), rng.randint(1, 99)),
        lambda: F(rng.getrandbits(90) - (1 << 89), rng.getrandbits(70) + 1),
    )
    return [rng.choice(picks)() for _ in range(length)]


def test_mul_equals_the_plain_fraction_convolution():
    rng = random.Random(11)
    for _ in range(200):
        a = seeded_coeffs(rng, rng.randint(1, 14))
        b = seeded_coeffs(rng, rng.randint(1, 14))
        got = (TruncSeries(a) * TruncSeries(b)).coeffs
        want = convolved(a, b)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert type(g) is F
            assert (g.numerator, g.denominator) == (w.numerator, w.denominator)
    assert (TruncSeries([2, -3]) * TruncSeries([5, 7, 1])).coeffs == [10, -1]


def test_mul_overflow_has_the_message_and_index_of_the_plain_convolution():
    # coefficient 2 holds big^2, past the cap; coefficients 0 and 1 do not
    big = F((1 << (MAX_SCALAR_BITS // 2 + 100)) + 1, 3)
    a, b = [F(1), big, F(1, 2)], [F(-1, 5), big, F(7)]
    with pytest.raises(ScalarOverflowError) as want:
        convolved(a, b)
    with pytest.raises(ScalarOverflowError) as got:
        TruncSeries(a) * TruncSeries(b)
    assert str(got.value) == str(want.value)
    assert (TruncSeries(a[:2]) * TruncSeries(b[:2])).coeffs == convolved(a[:2], b[:2])


def test_mul_needs_rational_coefficients():
    poly = TruncSeries([CauchyPoly.basis(0), CauchyPoly.basis(1)])
    with pytest.raises(TypeError):
        poly * TruncSeries.one(1)
    with pytest.raises(TypeError):
        TruncSeries.one(1) * poly


# -- the inverse on integer numerators ------------------------------------------


def fraction_inverse(coeffs):
    """The inverse as a Fraction loop: one reduction per addition."""
    inv0 = F(1) / coeffs[0]
    out = [inv0]
    for n in range(1, len(coeffs)):
        acc = F(0)
        for j in range(1, n + 1):
            acc += coeffs[j] * out[n - j]
        out.append(-inv0 * acc)
    return out


def test_inverse_equals_the_fraction_loop():
    """Orders 0, 1, 7 and 20; negative and non-unit constant terms, ints,
    zeros, large unrelated denominators and the (a t;q)_j polynomials the
    suites invert, at q of both signs."""
    rng = random.Random(23)
    cases = [[F(-3, 4)], [2], [F(-1), F(1, 3)], [5, 0, -2]]
    for order in (0, 1, 7, 20):
        for _ in range(12):
            coeffs = seeded_coeffs(rng, order + 1)
            coeffs[0] = rng.choice((F(-7, 3), -1, 2, F(5, 9), F(rng.getrandbits(80) + 1, 7)))
            cases.append(coeffs)
        for q in (F(1, 2), F(-2, 3), F(3, 7), F(-1, 5)):
            for j in (0, 1, 3, order):
                cases.append(qpoch_poly_series(F(-5, 6), q, j, order).coeffs)
    for coeffs in cases:
        got = TruncSeries(coeffs).inverse().coeffs
        want = fraction_inverse(coeffs)
        assert len(got) == len(want)
        for g, w in zip(got, want):
            assert type(g) is F
            assert (g.numerator, g.denominator) == (w.numerator, w.denominator)


def test_inverse_of_a_zero_constant_term_raises_before_any_work():
    for coeffs in ([F(0)], [0, F(1, 2), F(3)], [F(0), CauchyPoly.basis(1)]):
        with pytest.raises(ZeroDivisionError, match="^series has zero constant term$"):
            TruncSeries(coeffs).inverse()


def test_inverse_checks_the_magnitude_of_each_coefficient():
    # coefficient n of 1/(1 - c t) is c^n: c^2 is past the cap, c is not
    c = F(1, (1 << (MAX_SCALAR_BITS // 2 + 100)) + 1)
    assert TruncSeries([F(1), -c]).inverse().coeffs == [F(1), c]
    with pytest.raises(ScalarOverflowError) as got:
        TruncSeries([F(1), -c, F(0)]).inverse()
    with pytest.raises(ScalarOverflowError) as want:
        check_magnitude(c**2)
    assert str(got.value) == str(want.value)
