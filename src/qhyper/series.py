"""Truncated formal power series in one variable over an exact coefficient ring.

Coefficients are either Fraction scalars or CauchyPoly values (see operators).
Sums, scaling and shifts take either kind; a product or an inverse needs
rational (Fraction or int) coefficients and raises TypeError on any other.

Both work on integer numerators over running denominators (`_Running`):
when output coefficient i is formed, the coefficients c_0..c_i of each factor
sit over L_i = lcm(den c_0..c_i), so its convolution runs at the width of
the first i+1 coefficients, not at that of the whole series.  That matters
because the denominators of the series divided by (q;q)_k grow with k (in
bits, about quadratically), and the CLI expands them to order
`cli.MAX_ORDER` = 64.  Each output coefficient is reduced once and checked
against the bit cap in index order.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import islice
from math import gcd
from operator import mul

from .families import cauchy_P
from .scalars import Rat, _prefix_reader, binom2, check_magnitude, max_deviation


class TruncSeries:
    """Power series truncated at t^N: coeffs[n] is the coefficient of t^n."""

    __slots__ = ("coeffs",)

    def __init__(self, coeffs):
        self.coeffs = list(coeffs)
        if not self.coeffs:
            raise ValueError("series needs at least the constant coefficient")

    @property
    def order(self) -> int:
        return len(self.coeffs) - 1

    @classmethod
    def constant(cls, value, order: int) -> "TruncSeries":
        zero = value * 0
        return cls([value] + [zero] * order)

    @classmethod
    def one(cls, order: int) -> "TruncSeries":
        return cls.constant(Fraction(1), order)

    def _common(self, other: "TruncSeries") -> int:
        return min(self.order, other.order)

    def __add__(self, other: "TruncSeries") -> "TruncSeries":
        n = self._common(other)
        return TruncSeries([self.coeffs[i] + other.coeffs[i] for i in range(n + 1)])

    def scale(self, factor) -> "TruncSeries":
        return TruncSeries([c * factor for c in self.coeffs])

    def __mul__(self, other: "TruncSeries") -> "TruncSeries":
        """The product mod t^{N+1}, N the smaller order.

        Coefficient i is sum_j a_j b_{i-j} over La_i Lb_i, the running
        denominators of a_0..a_i and b_0..b_i: one convolution of integer
        numerators, reduced once.
        """
        n = self._common(other)
        a = _rational(self.coeffs[: n + 1])
        b = _rational(other.coeffs[: n + 1])
        ra, rb = _Running(), _Running()
        out = []
        for i in range(n + 1):
            ra.append(*a[i])
            rb.append(*b[i])
            acc = sum(map(mul, ra.nums, reversed(rb.nums)))
            out.append(check_magnitude(Fraction(acc, ra.den * rb.den)))
        return TruncSeries(out)

    def shift(self, k: int) -> "TruncSeries":
        """Multiply by t^k, keeping the truncation order."""
        if k == 0:
            return self
        zero = self.coeffs[0] * 0
        kept = self.coeffs[: max(self.order + 1 - k, 0)]
        return TruncSeries([zero] * min(k, self.order + 1) + kept)

    def inverse(self) -> "TruncSeries":
        """Multiplicative inverse mod t^{N+1}; needs a nonzero constant term.

        Coefficient n is b_n = -(sum_{j=1..n} a_j b_{n-j}) / a_0.  With
        a_0..a_n over their running denominator La and b_0..b_{n-1} over
        theirs, Lb, the sum is S / (La Lb) for an integer S, and
        b_n = -S / (Lb A_0), where A_0 = a_0 La is the stored numerator of
        a_0.  Each b_n is reduced once, checked against the bit cap and
        appended to its own running list as it is formed.
        """
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("series has zero constant term")
        a = _rational(self.coeffs)
        ra, rb = _Running(), _Running()
        ra.append(*a[0])
        out = [check_magnitude(Fraction(ra.den, ra.nums[0]))]
        rb.append(out[0].numerator, out[0].denominator)
        for n in range(1, len(a)):
            ra.append(*a[n])
            acc = sum(map(mul, islice(ra.nums, 1, None), reversed(rb.nums)))
            c = check_magnitude(Fraction(-acc, rb.den * ra.nums[0]))
            out.append(c)
            rb.append(c.numerator, c.denominator)
        return TruncSeries(out)

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = self._common(other)
        return all(self.coeffs[i] == other.coeffs[i] for i in range(n + 1))

    def __repr__(self) -> str:
        return f"TruncSeries({self.coeffs!r})"


def _rational(coeffs) -> list[tuple[int, int]]:
    """(numerator, denominator) of each coefficient.  All are read before any
    product is formed, so a non-rational one raises before any bit-cap check."""
    try:
        return [(c.numerator, c.denominator) for c in coeffs]
    except AttributeError:
        raise TypeError("a series product needs rational coefficients") from None


class _Running:
    """The integer numerators of c_0..c_i over L = lcm(den c_0..c_i).

    `append(n, d)` extends the list by one coefficient n/d.  When d does not
    divide L, L and every stored numerator are multiplied by d / gcd(L, d).
    """

    __slots__ = ("nums", "den")

    def __init__(self):
        self.nums: list[int] = []
        self.den = 1

    def append(self, n: int, d: int) -> None:
        den = self.den
        if den % d:
            g, r = divmod(d, den)
            if r:
                g = d // gcd(den, d)
            self.nums = [x * g for x in self.nums]
            self.den = den = den * g
        self.nums.append(n * (den // d))


def max_abs_deviation(f: TruncSeries, g: TruncSeries) -> Rat:
    """Largest |coefficient difference| over the common truncation order."""
    return max_deviation(zip(f.coeffs, g.coeffs))


def q_exp_series(f, q: Rat, order: int) -> TruncSeries:
    """sum_n f(n) t^n / (q;q)_n, truncated at t^order; (q;q)_n is read from
    the row fetched once, after f(n), as a read per n would be.  Each
    coefficient is checked against the bit cap as it is formed, so a series
    past the cap stops at its first such coefficient."""
    qq = _prefix_reader(1, q, q, order)
    return TruncSeries([check_magnitude(f(n) / qq(n)) for n in range(order + 1)])


def euler_product_series(c: Rat, q: Rat, order: int) -> TruncSeries:
    """(ct;q)_inf as a series in t: coefficient of t^k is
    (-1)^k q^{binom(k,2)} c^k / (q;q)_k."""
    return q_exp_series(lambda k: (-1) ** k * q ** binom2(k) * c**k, q, order)


def euler_inverse_series(c: Rat, q: Rat, order: int) -> TruncSeries:
    """1/(ct;q)_inf as a series in t: coefficient of t^k is c^k / (q;q)_k."""
    return q_exp_series(lambda k: c**k, q, order)


def cauchy_ratio_series(x: Rat, y: Rat, q: Rat, order: int) -> TruncSeries:
    """(yt;q)_inf / (xt;q)_inf: coefficient of t^n is P_n(x,y)/(q;q)_n."""
    return q_exp_series(lambda n: cauchy_P(n, x, y, q), q, order)


def qpoch_poly_series(a: Rat, q: Rat, j: int, order: int) -> TruncSeries:
    """(at;q)_j as a polynomial in t, embedded as a truncated series.

    Multiplying by the factor (1 - a q^m t) updates the coefficients in place,
    highest index first: c_i <- c_i - a q^m c_{i-1}.
    """
    c = [Fraction(1)] + [Fraction(0)] * order
    aq = a
    for m in range(j):
        for i in range(min(m + 1, order), 0, -1):
            c[i] = check_magnitude(c[i] - aq * c[i - 1])
        aq *= q
    return TruncSeries(c)
