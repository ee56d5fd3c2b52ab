"""Truncated power series over exact rationals."""

import random
from fractions import Fraction as F
from math import lcm, prod

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhyper.families import ParamVector
from qhyper.hyper import rphis_series_in_t
from qhyper.operators import CauchyPoly
from qhyper.scalars import MAX_SCALAR_BITS, ScalarOverflowError, check_magnitude
from qhyper.series import (
    TruncSeries,
    _Running,
    cauchy_ratio_series,
    euler_inverse_series,
    euler_product_series,
    max_abs_deviation,
    qpoch_poly_series,
)

coeff = st.fractions(min_value=-3, max_value=3, max_denominator=16)


def _grown(steps):
    """c_k = n_k / (d_0 d_1 ... d_k): each denominator a multiple of the one
    before, as in the (q;q)_k-divided series the suites multiply."""
    return [F(n, prod(d for _, d in steps[: k + 1])) for k, (n, _) in enumerate(steps)]


growing = st.lists(
    st.tuples(st.integers(-40, 40), st.integers(1, 12)), min_size=1, max_size=25
).map(_grown)
series_coeffs = st.one_of(st.lists(coeff, min_size=1, max_size=25), growing)


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


@given(series_coeffs)
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


@given(a=series_coeffs, b=series_coeffs)
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


# -- running denominators against the frozen common-denominator kernels ---------


def frozen_common_denominator(coeffs):
    """Integer numerators over the lcm of every denominator of the series, as
    products and inverses were formed before running denominators."""
    try:
        d = lcm(*(c.denominator for c in coeffs))
    except AttributeError:
        raise TypeError("a series product needs rational coefficients") from None
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def frozen_mul(x, y):
    n = min(len(x), len(y)) - 1
    a, da = frozen_common_denominator(x[: n + 1])
    b, db = frozen_common_denominator(y[: n + 1])
    den = da * db
    out = []
    for i in range(n + 1):
        acc = a[0] * b[i]
        for j in range(1, i + 1):
            acc += a[j] * b[i - j]
        out.append(check_magnitude(F(acc, den)))
    return out


def frozen_inverse(coeffs):
    if coeffs[0] == 0:
        raise ZeroDivisionError("series has zero constant term")
    a, d = frozen_common_denominator(coeffs)
    a0 = a[0]
    scaled = [a[j] * a0 ** (j - 1) for j in range(1, len(a))]
    w, den = [1], a0
    out = [check_magnitude(F(d, den))]
    for n in range(1, len(coeffs)):
        acc = 0
        for j in range(1, n + 1):
            acc -= scaled[j - 1] * w[n - j]
        w.append(acc)
        den *= a0
        out.append(check_magnitude(F(d * acc, den)))
    return out


def running_mul(x, y):
    return (TruncSeries(x) * TruncSeries(y)).coeffs


def running_inverse(coeffs):
    return TruncSeries(coeffs).inverse().coeffs


def outcome(kernel, *args):
    """Each coefficient's type, numerator and denominator, or the type and
    message of the error the kernel raised."""
    try:
        return [(type(c), c.numerator, c.denominator) for c in kernel(*args)]
    except (ArithmeticError, TypeError) as exc:
        return type(exc), str(exc)


def spread_coeffs(rng, length):
    """seeded_coeffs, or a series whose denominators grow along it, with its
    first 0 to 3 coefficients set to 0."""
    if rng.random() < 0.5:
        coeffs = seeded_coeffs(rng, length)
    else:
        coeffs = _grown([(rng.randint(-99, 99), rng.randint(1, 60)) for _ in range(length)])
    zeros = min(rng.choice((0, 0, 1, 3)), length)
    return [0] * zeros + coeffs[zeros:]


def cli_shapes():
    """The factors of the CLI's gf-psi-rhs at order 24: (xt;q)_inf (yt;q)_inf^-1
    and a rPhis series in zt with s - r = 3 lower parameters |b| < 1."""
    rng = random.Random(7001)
    rat = lambda: F(rng.choice((1, -1)) * rng.randint(1, 8), rng.randint(1, 8))
    for _ in range(4):
        q = F(rng.randint(13, 21), 32)
        x, y, z = rat(), rat(), rat()
        lower = [F(rng.choice((1, -1)) * rng.randint(1, 7), 8) for _ in range(3)]
        ratio = (euler_product_series(x, q, 24), euler_inverse_series(y, q, 24))
        yield ratio[0].coeffs, ratio[1].coeffs
        phi = rphis_series_in_t(ParamVector((), lower), q, z, 24)
        yield (ratio[0] * ratio[1]).coeffs, phi.coeffs


def test_mul_equals_the_common_denominator_kernel():
    """Ints, zeros, negative entries, leading zeros, growing denominators,
    factors of different orders and the CLI's gf-psi-rhs products."""
    rng = random.Random(37)
    cases = [
        (spread_coeffs(rng, rng.randint(1, 25)), spread_coeffs(rng, rng.randint(1, 25)))
        for _ in range(150)
    ]
    cases += list(cli_shapes())
    for a, b in cases:
        want = outcome(frozen_mul, a, b)
        assert isinstance(want, list)
        assert outcome(running_mul, a, b) == want


def test_inverse_equals_the_common_denominator_kernel():
    rng = random.Random(41)
    cases = []
    for _ in range(80):
        coeffs = spread_coeffs(rng, rng.randint(1, 25))
        if coeffs[0] == 0:
            coeffs[0] = rng.choice((F(-7, 3), -1, 2, F(5, 9), F(rng.getrandbits(80) + 1, 7)))
        cases.append(coeffs)
    cases += [b for _, b in cli_shapes()]  # 1/(yt;q)_inf and the rPhis series
    for coeffs in cases:
        want = outcome(frozen_inverse, coeffs)
        assert isinstance(want, list)
        assert outcome(running_inverse, coeffs) == want


def first_failing_order(kernel, *series):
    """The smallest order at which the kernel raises on the truncated series."""
    for n in range(min(map(len, series))):
        if not isinstance(outcome(kernel, *(s[: n + 1] for s in series)), list):
            return n
    return None


def test_overflow_raises_at_the_index_and_with_the_message_of_the_frozen_kernels():
    # product: coefficient 3 holds big^2 and is past the cap, 0..2 are not;
    # inverse of 1 - c t: coefficient 2 is c^2, past the cap
    big = F((1 << (MAX_SCALAR_BITS // 2 + 100)) + 1, 3)
    a, b = [F(1), F(1, 2), big, F(3), F(1)], [F(-1, 5), big, F(7), F(2), F(1)]
    c = F(1, (1 << (MAX_SCALAR_BITS // 2 + 100)) + 1)
    inv = [F(1), -c, F(0), F(1, 3)]
    assert first_failing_order(frozen_mul, a, b) == 3
    assert first_failing_order(frozen_inverse, inv) == 2
    for n in range(len(a)):
        assert outcome(running_mul, a[: n + 1], b[: n + 1]) == outcome(
            frozen_mul, a[: n + 1], b[: n + 1]
        )
        assert outcome(running_mul, b[: n + 1], a[: n + 1]) == outcome(
            frozen_mul, b[: n + 1], a[: n + 1]
        )
    for n in range(len(inv)):
        assert outcome(running_inverse, inv[: n + 1]) == outcome(frozen_inverse, inv[: n + 1])
    assert outcome(running_mul, a, b)[0] is ScalarOverflowError


def test_a_non_rational_coefficient_raises_before_any_overflow():
    big = F((1 << (MAX_SCALAR_BITS // 2 + 100)) + 1, 3)
    a, b = [F(1), big, F(1, 2), CauchyPoly.basis(1)], [F(-1, 5), big, F(7), F(1)]
    c = F(1, (1 << (MAX_SCALAR_BITS // 2 + 100)) + 1)
    want = (TypeError, "a series product needs rational coefficients")
    for x, y in ((a, b), (b, a)):
        assert outcome(frozen_mul, x, y) == want
        assert outcome(running_mul, x, y) == want
    inv = [F(1), -c, F(0), CauchyPoly.basis(1)]
    assert outcome(frozen_inverse, inv) == want
    assert outcome(running_inverse, inv) == want


def test_a_zero_constant_term_raises_in_the_inverse_as_before():
    want = (ZeroDivisionError, "series has zero constant term")
    for coeffs in ([0], [F(0), F(1, 2)], [0, CauchyPoly.basis(1)], [F(0)] * 30):
        assert outcome(frozen_inverse, coeffs) == want
        assert outcome(running_inverse, coeffs) == want


def test_running_numerators_hold_each_prefix_over_its_lcm():
    rng = random.Random(43)
    for _ in range(60):
        coeffs = [F(c) for c in spread_coeffs(rng, rng.randint(1, 25))]
        run = _Running()
        for i, c in enumerate(coeffs):
            run.append(c.numerator, c.denominator)
            assert run.den == lcm(*(x.denominator for x in coeffs[: i + 1]))
            assert all(type(n) is int for n in run.nums)
            assert [F(n, run.den) for n in run.nums] == coeffs[: i + 1]
