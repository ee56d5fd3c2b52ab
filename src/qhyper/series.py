"""Truncated formal power series in one variable over an exact coefficient ring.

Coefficients are either Fraction scalars or CauchyPoly values (see operators).
Sums, scaling and shifts take either kind; a product needs rational (Fraction
or int) coefficients and raises TypeError on any other.  It brings each factor
to one common denominator and convolves the integer numerators, an O(N^2)
convolution that is ample at the orders used here (N <= 32) and reduces each
output coefficient once instead of once per Fraction addition.  The inverse
works on the same integer numerators.
"""

from __future__ import annotations

from fractions import Fraction
from math import lcm

from .families import cauchy_P
from .scalars import Rat, _qpoch_reader, binom2, check_magnitude, max_deviation


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
        n = self._common(other)
        a, da = _over_common_denominator(self.coeffs[: n + 1])
        b, db = _over_common_denominator(other.coeffs[: n + 1])
        den = da * db
        out = []
        for i in range(n + 1):
            acc = a[0] * b[i]
            for j in range(1, i + 1):
                acc += a[j] * b[i - j]
            out.append(check_magnitude(Fraction(acc, den)))
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

        With the coefficients a_j / d over one denominator, coefficient n of
        the inverse is d w_n / a_0^{n+1}, where w_0 = 1 and
        w_n = -sum_{j=1..n} a_j a_0^{j-1} w_{n-j} are integers: each output
        coefficient is reduced once and checked against the bit cap.
        """
        if self.coeffs[0] == 0:
            raise ZeroDivisionError("series has zero constant term")
        a, d = _over_common_denominator(self.coeffs)
        a0 = a[0]
        scaled = [a[j] * a0 ** (j - 1) for j in range(1, len(a))]
        w, den = [1], a0
        out = [check_magnitude(Fraction(d, den))]
        for n in range(1, self.order + 1):
            acc = 0
            for j in range(1, n + 1):
                acc -= scaled[j - 1] * w[n - j]
            w.append(acc)
            den *= a0
            out.append(check_magnitude(Fraction(d * acc, den)))
        return TruncSeries(out)

    def eval_horner(self, t0: Rat) -> Rat:
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * t0 + c
        return acc

    def __eq__(self, other) -> bool:
        if not isinstance(other, TruncSeries):
            return NotImplemented
        n = self._common(other)
        return all(self.coeffs[i] == other.coeffs[i] for i in range(n + 1))

    def __repr__(self) -> str:
        return f"TruncSeries({self.coeffs!r})"


def _over_common_denominator(coeffs) -> tuple[list[int], int]:
    """Integer numerators of rational coefficients over their least common
    denominator d, and d."""
    try:
        d = lcm(*(c.denominator for c in coeffs))
    except AttributeError:
        raise TypeError("a series product needs rational coefficients") from None
    return [c.numerator * (d // c.denominator) for c in coeffs], d


def max_abs_deviation(f: TruncSeries, g: TruncSeries) -> Rat:
    """Largest |coefficient difference| over the common truncation order."""
    return max_deviation(zip(f.coeffs, g.coeffs))


def q_exp_series(f, q: Rat, order: int) -> TruncSeries:
    """sum_n f(n) t^n / (q;q)_n, truncated at t^order; (q;q)_n is read from
    the row fetched once, after f(n), as a read per n would be."""
    qq = _qpoch_reader(q, q, order)
    return TruncSeries([f(n) / qq(n) for n in range(order + 1)])


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
