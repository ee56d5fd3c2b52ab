"""Exact rational scalars, q-Pochhammer symbols and q-binomial coefficients.

The exact arithmetic is over `fractions.Fraction` and never rounds.  Its
only "tolerance" is the truncation-stopping threshold of the infinite
q-Pochhammer product, which still returns an exact rational (the partial
product).  The one type that rounds, `Ball`, carries every rounding in its
radius.

The products P_n(x, y) = prod_{j<n} (x - y q^j) are read through one
capped read, `_prefix_value`: `qpoch` serves (a;q)_n = P_n(1, a), and
`families.cauchy_P` the Cauchy polynomials, from a prefix table that holds
P_0..P_m and is extended only when a larger n is asked for.  An extension
steps on ints, one factor at a time, and takes no gcd of two large integers
(`_times`).  A table counts its leading entries within the bit-length cap as
it makes them, so each is checked once, and an entry past the cap is
checked, and raises, on every read, whatever x is.  The q-binomial rows
[n 0..n]_q are formed in one place, `_qbinom_row`, and live on the (q;q)
table of q.  Tables live as long as the process; when a new one is about
to be made and the charge (stored bits plus a fixed overhead per rational)
is past the budget, all are dropped, rows with their table.  So the store
passes its budget only by the growth of the tables in use since the last
new one, which the CLI's `MAX_DEGREE` and `MAX_ORDER` bound.  The store
cannot change a result: each entry is the exact value the plain loop forms.

A finite sum over k fetches its rows once, at its top, and reads [n k]_q,
(a;q)_k and P_{n-k} by index (`_qbinom_reader`, `_prefix_reader`).  A fetch
never raises.  A row that holds an entry the sum could not read without an
error is not handed out: the sum then reads `qbinom` or `_prefix_value` per
k, so each error is raised at the same k, with the same message, as by a sum
that reads every factor afresh.

Where (c;q)_n vanishes is decided by one walk, `vanishing_index`: the least
m with c q^m = 1, on int pairs.  The samplers' rejection rule
(`verify.vanishes`) and the last term of a terminating rPhis
(`hyper.terminating_index`) both read it.

Every finite sum of products (each family sum, Psi_n, a terminating rPhis)
goes through `_sum_of_products`.  `Fraction` reduces after every product and
every sum, two gcds each; the kernel multiplies each term's numerators and
denominators as ints, adds the term over one running denominator with one
gcd, and reduces the total once.

Every magnitude check applies the fixed cap `MAX_SCALAR_BITS` unless its
caller passes another.  Only `qpoch_inf` does: it works out a larger cap from
its own eps, so no check depends on which run is in progress.

The numeric suites do not use `qpoch_inf`'s exact partial products.  They
read (a;q)_inf as a `Ball` from `qpoch_inf_ball`: a fixed-point midpoint and
radius on the grid 2^-p, p = b + `GUARD_BITS` for eps = 2^-b, whose radius
covers every rounding and the dropped tail (a q^K;q)_inf - 1, so the ball
holds both the partial product and the true infinite product.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd
from typing import Callable, Iterable

Rat = Fraction

#: Bit-length cap on numerators/denominators.  Exact rational pipelines can
#: blow up instead of thrash; fail loudly when they do.
MAX_SCALAR_BITS = 1 << 16


class ScalarOverflowError(ArithmeticError):
    """Numerator or denominator exceeded the bit-length cap."""


class RootOfUnityError(ValueError):
    """q is (too close to) a root of unity: some (q;q)_k would vanish."""


def check_magnitude(x: Rat, limit: int = MAX_SCALAR_BITS) -> Rat:
    if x.numerator.bit_length() > limit or x.denominator.bit_length() > limit:
        raise ScalarOverflowError(
            f"rational exceeds {limit} bits "
            f"(num {x.numerator.bit_length()}b / den {x.denominator.bit_length()}b)"
        )
    return x


def binom2(n: int) -> int:
    """n choose 2, the ubiquitous q-exponent."""
    return n * (n - 1) // 2


def _height(r: Rat) -> int:
    """h(r): the larger bit length of r's numerator and denominator."""
    return max(r.numerator.bit_length(), r.denominator.bit_length())


def _prefix_bits(n: int, x: Rat, y: Rat, q: Rat) -> int:
    """n (h(x) + h(y) + 1) + binom(n,2) h(q), a bound on the bit lengths of
    the numerator and the denominator of P_n(x, y) = prod_{j<n} (x - y q^j).

    Over the common denominator x_d y_d q_d^j, the factor x - y q^j has a
    denominator of at most h(x) + h(y) + j h(q) bits and a numerator of at
    most one bit more; reducing the product only shortens it.
    """
    return n * (_height(x) + _height(y) + 1) + binom2(n) * _height(q)


def qpow(q: Rat, e: int) -> Rat:
    """q**e for a possibly negative integer exponent.

    A negative power is `Fraction`'s own: it inverts q**-e without a gcd.
    An int q is made a Fraction first; a Fraction is used as it is.
    """
    if e >= 0:
        return q**e
    return (q if isinstance(q, Fraction) else Fraction(q)) ** e


def max_deviation(pairs: Iterable[tuple[Rat, Rat]]) -> Rat:
    """Largest |lhs - rhs| over (lhs, rhs) pairs; 0 when there are none."""
    return max((abs(lhs - rhs) for lhs, rhs in pairs), default=Fraction(0))


#: The store of exact prefix tables.  A prefix table is
#: [[P_0, ..., P_m], y q^m, c, rows]: the products of `_prefix_table`, the
#: next factor's y q^m, the count c of leading entries within the cap of
#: `check_magnitude`, kept by `_prefix_table` as it appends (`_prefix_value`
#: checks only the rest), and the dict n -> [[n 0]_q, ..., [n n]_q] of
#: `_qbinom_row`, None until it puts a row on the (q;q) table of q.  Its key
#: is (y.numerator, y.denominator, q.numerator, q.denominator), then
#: (x.numerator, x.denominator) when x != 1, so (a;q)_n = P_n(1, a) keeps the
#: key of (a, q); it also fits int arguments and hashes faster than a
#: Fraction.  `_qpoch_bits` charges every stored rational, q-binomial rows
#: included, its numerator and denominator bits plus `_QPOCH_ENTRY_BITS` of
#: object overhead.
_QPOCH_TABLES: dict[tuple[int, ...], list] = {}
_QPOCH_BUDGET_BITS = 1 << 22
_QPOCH_ENTRY_BITS = 1024
_qpoch_bits = 0


def _charge(x: Rat) -> int:
    return _QPOCH_ENTRY_BITS + x.numerator.bit_length() + x.denominator.bit_length()


def _store(key: tuple[int, ...], entry: list, bits: int) -> list:
    """Add a new entry to the store, charged `bits`, after dropping every
    entry if the charge is past 2^22 bits.  This is the store's one rule, so
    the entry in use is never dropped."""
    global _qpoch_bits
    if _qpoch_bits > _QPOCH_BUDGET_BITS:
        _QPOCH_TABLES.clear()
        _qpoch_bits = 0
    _QPOCH_TABLES[key] = entry
    _qpoch_bits += bits
    return entry


def _prefix_table(x: Rat, y: Rat, q: Rat, n: int) -> list:
    """The store entry of P(x, y) = prod_j (x - y q^j), holding P_0..P_n.

    The table holds P_0..P_m and the next y q^m; a call with n > m extends it
    by the factors the plain loop would multiply.  So each value is the same
    whether it was read or rebuilt.  The extension works on ints: P_m and
    y q^m are coprime pairs, each factor x - y q^m is reduced with one gcd
    of its small ints and folded in by `_times`, and y q^m is stepped by q
    with the cross gcds of two coprime pairs, so no gcd of the growing
    product is taken.  A zero factor gives 0/1.  The extension also moves the
    table's checked count over each new entry within the cap, from the bit
    lengths it charges, and stops the count at the first entry past the cap.
    """
    global _qpoch_bits
    key = (y.numerator, y.denominator, q.numerator, q.denominator)
    if x != 1:
        key += (x.numerator, x.denominator)
    table = _QPOCH_TABLES.get(key)
    if table is None:
        one = Fraction(1)
        table = _store(key, [[one], y, 1, None], _charge(one) + _charge(y))
    values = table[0]
    if n >= len(values):
        last, yq, checked = values[-1], table[1], table[2]
        pn, pd = last.numerator, last.denominator
        yn, yd = yq.numerator, yq.denominator
        xn, xd = x.numerator, x.denominator
        qn, qd = q.numerator, q.denominator
        bits = -yn.bit_length() - yd.bit_length()
        for _ in range(len(values), n + 1):
            pn, pd = _times(pn, pd, xn * yd - yn * xd, xd * yd)
            g, h = gcd(yn, qd), gcd(qn, yd)
            yn, yd = yn // g * (qn // h), yd // h * (qd // g)
            nb, db = pn.bit_length(), pd.bit_length()
            if checked == len(values) and nb <= MAX_SCALAR_BITS and db <= MAX_SCALAR_BITS:
                checked += 1
            values.append(_coprime_fraction(pn, pd))
            bits += _QPOCH_ENTRY_BITS + nb + db
        table[1], table[2] = _coprime_fraction(yn, yd), checked
        _qpoch_bits += bits + yn.bit_length() + yd.bit_length()
    return table


def _prefix_value(x: Rat, y: Rat, q: Rat, n: int) -> Rat:
    """P_n(x, y) = prod_{j<n} (x - y q^j), read from or added to its prefix
    table.  An entry under the table's checked count is returned as it is,
    and any other is checked on every read, so neither the value nor an
    overflow depends on what the tables hold."""
    table = _prefix_table(x, y, q, n)
    value = table[0][n]
    return value if n < table[2] else check_magnitude(value)


def _prefix_reader(x: Rat, y: Rat, q: Rat, n: int) -> Callable[[int], Rat]:
    """k -> P_k(x, y) for 0 <= k <= n, fetched once by a sum over k.

    It is the table's own list when the checked count covers P_0..P_n, and
    `_prefix_value` per k otherwise, so an entry past the cap raises at the k
    where the sum reads it, after every factor read before it.  The fetch
    itself never raises.  It extends the table one entry at a time while the
    count covers the whole table, so it forms no entry past the first that
    would raise.
    """
    table = _prefix_table(x, y, q, 0)
    values = table[0]
    while table[2] == len(values) <= n:
        _prefix_table(x, y, q, len(values))
    if table[2] > n:
        return values.__getitem__
    return lambda k: _prefix_value(x, y, q, k)


def qpoch(a: Rat, q: Rat, n: int) -> Rat:
    """Finite q-shifted factorial (a;q)_n = prod_{k<n} (1 - a q^k), which is
    P_n(1, a) (`_prefix_value`)."""
    if n < 0:
        raise ValueError("n must be nonnegative")
    return _prefix_value(1, a, q, n)


def vanishing_index(c: Rat, q: Rat, limit: int) -> int | None:
    """The least m in 0..limit with c q^m = 1, or None: (c;q)_n = 0 exactly
    for n > m, and (c;q)_inf = 0 (Gasper-Rahman 1.2).

    The walk keeps c q^m as an unreduced num/den with den > 0 and compares
    integers, with no gcd.  It stops early once |c q^m| lies on the same side
    of 1 as |q| != 1: from there |c q^m| only moves away from 1.
    """
    nq, dq = q.numerator, q.denominator
    early, contracting = abs(nq) != dq, abs(nq) < dq
    num, den = c.numerator, c.denominator
    for m in range(limit + 1):
        if num == den:
            return m
        if early and (abs(num) < den) == contracting:
            return None
        num, den = num * nq, den * dq
    return None


def _sum_of_products(terms: Iterable[tuple]) -> Rat:
    """The Fraction sum over terms of prod(term), each term a tuple of int or
    Fraction factors; Fraction(0) when there are none.  It is the same
    Fraction that `acc += a * b * c` ends with, reduced once at the end."""
    num, den = 0, 1
    for term in terms:
        n = d = 1
        for f in term:
            n *= f.numerator
            d *= f.denominator
        if d == den:
            num += n
        elif n:
            g = gcd(den, d)
            num = num * (d // g) + n * (den // g)
            den *= d // g
    return Fraction(num, den)


def _coprime_fraction(n: int, d: int) -> Rat:
    """The Fraction n/d for coprime n and d > 0, built without a gcd.

    This is what `Fraction._from_coprime_ints` does from Python 3.12 on; it
    gives the same value, hash and str as Fraction(n, d).
    """
    x = object.__new__(Fraction)
    x._numerator = n
    x._denominator = d
    return x


def _times(n: int, d: int, u: int, w: int) -> tuple[int, int]:
    """(n', d') with n'/d' = (n/d)(u/w) in lowest terms and d' > 0, for
    coprime n, d > 0 and any u, w != 0.

    u/w is reduced with one gcd of its small ints and folded in by the cross
    gcds gcd(n, w) and gcd(u, d), so no gcd of the product is taken.  A zero
    u gives (0, 1).
    """
    g = gcd(u, w)
    if w < 0:
        g = -g
    if g != 1:
        u, w = u // g, w // g
    g = gcd(n, w)
    if g > 1:
        n, w = n // g, w // g
    g = gcd(u, d)
    if g > 1:
        u, d = u // g, d // g
    return n * u, d * w


def qpoch_inf(a: Rat, q: Rat, eps: Rat) -> Rat:
    """Partial product for (a;q)_inf, truncated once |a q^K| < eps.

    Exact rational partial product; the dropped tail is O(|a| |q|^K / (1-|q|)).
    A smaller eps legitimately needs more factors, and the partial product
    carries O(K^2) bits, so each factor is checked against a cap of
    max(MAX_SCALAR_BITS, 4096 b) bits for eps about 2^-b.

    The partial product is formed without `Fraction` arithmetic, which would
    take two gcds of the growing product per factor.  With a = na/da and
    q = nq/dq, a q^k is kept reduced from the parts of na and da that no
    power of q has cancelled yet, so each factor 1 - a q^k = u/w comes
    reduced.  Every prime of w, and so of the product's denominator d,
    divides s = da dq.  The product is kept as coprime n/d together with
    `smooth`, the part of n made of primes of s, so gcd(n, w) =
    gcd(smooth, w) and gcd(u, d) = gcd(u_smooth, d) for the part u_smooth of
    u made of primes of s; the second is taken only when u_smooth > 1.  Each
    factor is then checked on the same reduced partial product as plain
    `Fraction` arithmetic forms.
    """
    if not 0 < abs(q) < 1:
        raise ValueError("qpoch_inf requires 0 < |q| < 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    b = eps.denominator.bit_length() - eps.numerator.bit_length()
    limit = max(MAX_SCALAR_BITS, 4096 * b)
    nq, dq = q.numerator, q.denominator
    ne, de = eps.numerator, eps.denominator
    num, den = a.numerator, a.denominator  # a q^k = num/den, reduced
    rest_num, rest_den = num, den  # the parts of num and den that came from a
    s = den * dq
    n, d, smooth = 1, 1, 1
    while abs(num) * de >= ne * den:
        u, w = den - num, den
        g = gcd(smooth, w)
        if g > 1:
            n, smooth, w = n // g, smooth // g, w // g
        if u:
            r = u  # u = u_smooth * r with r free of the primes of s
            g = gcd(r, s)
            while g > 1:
                r //= g
                g = gcd(r, g)
            u_smooth = u // r
            if u_smooth > 1:
                g = gcd(u_smooth, d)
                if g > 1:
                    d, u, u_smooth = d // g, u // g, u_smooth // g
        else:  # a q^k = 1: the product is 0/1 from here on
            u_smooth, d = 0, 1
        n, d, smooth = n * u, d * w, smooth * u_smooth
        check_magnitude(_coprime_fraction(n, d), limit)
        g, h = gcd(rest_num, dq), gcd(nq, rest_den)
        rest_num, rest_den = rest_num // g, rest_den // h
        num, den = num // g * (nq // h), den // h * (dq // g)
    return _coprime_fraction(n, d)


#: Bits of working precision that a ball carries below its threshold eps.
GUARD_BITS = 64


def ball_precision(eps: Rat) -> int:
    """p = b + GUARD_BITS for the least b >= 0 with 2^-b <= eps."""
    b = max(0, eps.denominator.bit_length() - eps.numerator.bit_length())
    if eps.numerator << b < eps.denominator:
        b += 1
    return b + GUARD_BITS


def _mul_mid_rad(m1: int, r1: int, m2: int, r2: int, p: int) -> tuple[int, int]:
    """(mid, rad) of the product of the p-bit balls (m1, r1) and (m2, r2)."""
    product = m1 * m2
    err = abs(m1) * r2 + r1 * abs(m2) + r1 * r2
    rounded = 1 if product & ((1 << p) - 1) else 0
    return product >> p, -(-err >> p) + rounded


def _scaled_mid_rad(mid: int, rad: int, n: int, d: int) -> tuple[int, int]:
    """(mid, rad) of the ball (mid, rad) times n/d, for d > 0."""
    mid, rest = divmod(mid * n, d)
    return mid, -(-rad * abs(n) // d) + (1 if rest else 0)


class Ball:
    """The real interval [(mid - rad) 2^-prec, (mid + rad) 2^-prec].

    A midpoint-radius ball on a fixed-point grid, Arb's model (F. Johansson,
    IEEE Trans. Comput. 2017) on Python ints: mid and rad are ints, rad >= 0,
    and no float is involved.  Every operation returns a ball that holds the
    result of the operation on any points of its operands, so a value
    computed through balls lies in its ball whatever rounding happened on the
    way.  Balls of one precision mix with int and Fraction operands, which
    stay exact: x * ball scales the midpoint and radius by x and rounds once.
    The exact operand goes on the right of + and /; no sum needs a minus.
    A ball is read through `in`, `gap` and `abs_lower`, or through its mid
    and rad as the stopping tests of the sums do; it defines no `<`.
    """

    __slots__ = ("mid", "rad", "prec")

    def __init__(self, mid: int, rad: int, prec: int):
        self.mid, self.rad, self.prec = mid, rad, prec

    @classmethod
    def of(cls, x, prec: int) -> Ball:
        """The ball of an exact rational x (a ball is returned as it is)."""
        if isinstance(x, Ball):
            return x
        return cls.of_ratio(x.numerator, x.denominator, prec)

    @classmethod
    def of_ratio(cls, n: int, d: int, prec: int) -> Ball:
        """The ball of n/d for ints n and d > 0, in lowest terms or not.

        A common factor g leaves the floor of n 2^prec / d as it is and
        multiplies the remainder by g, so the ball is the one of the reduced
        rational, and no gcd is taken.
        """
        mid, rest = divmod(n << prec, d)
        return cls(mid, 1 if rest else 0, prec)

    def _other(self, x) -> Ball | None:
        if isinstance(x, Ball):
            if x.prec != self.prec:
                raise ValueError("balls of different precision")
            return x
        if isinstance(x, (int, Fraction)):
            return Ball.of(x, self.prec)
        return None

    def __add__(self, x):
        x = self._other(x)
        if x is None:
            return NotImplemented
        return Ball(self.mid + x.mid, self.rad + x.rad, self.prec)

    def _scaled(self, n: int, d: int) -> Ball:
        """The ball times n/d, for d > 0."""
        return Ball(*_scaled_mid_rad(self.mid, self.rad, n, d), self.prec)

    def __mul__(self, x):
        if isinstance(x, (int, Fraction)):
            return self._scaled(x.numerator, x.denominator)
        if not isinstance(x, Ball):
            return NotImplemented
        x = self._other(x)
        p = self.prec
        return Ball(*_mul_mid_rad(self.mid, self.rad, x.mid, x.rad, p), p)

    __rmul__ = __mul__

    def __truediv__(self, x):
        if isinstance(x, (int, Fraction)):
            n, d = x.numerator, x.denominator
            if n == 0:
                raise ZeroDivisionError("ball division by zero")
            return self._scaled(d, n) if n > 0 else self._scaled(-d, -n)
        if not isinstance(x, Ball):
            return NotImplemented
        x = self._other(x)
        # |X/Y - m/n| <= (r |n| + |m| s) / ((|n| - s) |n|) for X in m +- r,
        # Y in n +- s, |n| > s
        a, s, p = abs(x.mid), x.rad, self.prec
        if a <= s:
            raise ZeroDivisionError("ball division by a ball that holds 0")
        mid, rest = divmod(self.mid << p, x.mid)
        err = (self.rad * a + abs(self.mid) * s) << p
        return Ball(mid, -(-err // ((a - s) * a)) + (1 if rest else 0), p)

    def __contains__(self, x) -> bool:
        """Whether the exact rational x lies in the ball."""
        n, d = x.numerator, x.denominator
        return abs((n << self.prec) - self.mid * d) <= self.rad * d

    def gap(self, other: Ball) -> Rat:
        """The largest |x - y| for x in this ball and y in other, a dyadic
        rational."""
        other = self._other(other)
        return Fraction(abs(self.mid - other.mid) + self.rad + other.rad, 1 << self.prec)

    def abs_lower(self) -> Rat:
        """The smallest |x| for x in the ball, a dyadic rational."""
        return Fraction(max(0, abs(self.mid) - self.rad), 1 << self.prec)

    def __repr__(self):
        return f"Ball({self.mid}, {self.rad}, {self.prec})"


def qpoch_inf_ball(a: Rat, q: Rat, eps: Rat) -> Ball:
    """(a;q)_inf as a ball at precision `ball_precision(eps)`.

    It multiplies the factors 1 - a q^k that `qpoch_inf` multiplies, those with
    |a q^k| >= eps, each as a ball product on p-bit integers: a q^k is itself
    a ball, stepped by one multiply-and-floor by the small integers of q.  The
    walk keeps the midpoints and radii of the product and of a q^k as plain
    ints and rounds them inline, by the integer operations of
    `_mul_mid_rad` and `_scaled_mid_rad` that `Ball.__mul__` and
    `Ball._scaled` call, so it gives the ball those operations give with no
    ball and no helper call per factor; a test walks the same factors by
    `Ball` products and keeps the two equal.  The walk
    goes on past eps, should eps be that large, until sigma = |a q^K| /
    (1 - |q|) <= 1/2.  Then |(a q^K;q)_inf - 1| <= exp(sigma) - 1 <= 2 sigma,
    and the radius grows by 2 sigma times the partial product's bound, so
    the ball holds the partial product and the true value alike.  A factor
    a q^k = 1, found on exact integers, makes the ball the exact 0.
    """
    if not 0 < abs(q) < 1:
        raise ValueError("qpoch_inf requires 0 < |q| < 1")
    if eps <= 0:
        raise ValueError("eps must be positive")
    p = ball_precision(eps)
    one = 1 << p
    nq, dq = q.numerator, q.denominator
    ne, de = eps.numerator, eps.denominator
    anq, mask = abs(nq), one - 1
    gap = dq - anq  # 1 - |q| = gap / dq
    num, den = a.numerator, a.denominator  # a q^k = num/den, not reduced
    y = Ball.of(a, p)
    y_mid, y_rad = y.mid, y.rad  # the ball of a q^k
    mid, rad = one, 0  # the ball of the partial product
    while abs(num) * de >= ne * den or 2 * abs(num) * dq > den * gap:
        if num == den:
            return Ball(0, 0, p)
        # times the factor 1 - a q^k, the ball (f, y_rad): `_mul_mid_rad`
        f = one - y_mid
        product = mid * f
        err = abs(mid) * y_rad + rad * abs(f) + rad * y_rad
        mid, rad = product >> p, -(-err >> p) + (1 if product & mask else 0)
        num, den = num * nq, den * dq
        # a q^{k+1} = a q^k times nq/dq: `_scaled_mid_rad`
        y_mid, rest = divmod(y_mid * nq, dq)
        y_rad = -(-y_rad * anq // dq) + (1 if rest else 0)
    # the dropped tail: |P - P_K| <= |P_K| 2 sigma, sigma = |num| dq / (den gap)
    bound = abs(mid) + rad
    return Ball(mid, rad - (-bound * 2 * abs(num) * dq // (den * gap)), p)


def _qbinom_row(n: int, q: Rat) -> list:
    """[[n 0]_q, ..., [n n]_q] for (q;q)_n != 0, by the ratio step of
    `qbinom`; kept on the (q;q) table of q, charged and dropped with it."""
    global _qpoch_bits
    table = _prefix_table(1, q, q, n)
    rows = table[3] = table[3] or {}
    if n not in rows:
        a, b, N = q.numerator, q.denominator, 1
        rows[n] = row = []
        for k in range(n):
            row.append(_coprime_fraction(N, b ** (k * (n - k))))
            N = N * (b ** (n - k) - a ** (n - k)) // (b ** (k + 1) - a ** (k + 1))
        row.append(_coprime_fraction(N, 1))
        _qpoch_bits += sum(map(_charge, row))
    return rows[n]


def _qbinom_reader(n: int, q: Rat) -> Callable[[int], Rat]:
    """k -> [n k]_q for 0 <= k <= n, fetched once by a sum over k.

    It is the list of `_qbinom_row` when the (q;q) table's checked count
    covers (q;q)_0..(q;q)_n and (q;q)_n is not 0, so that no read would
    raise.  Otherwise the reader is `qbinom` per k, which raises at the k
    where the sum reads it.  The fetch itself never raises.
    """
    if n >= 0:
        table = _prefix_table(1, q, q, n)
        if table[2] > n and table[0][n] != 0:
            return _qbinom_row(n, q).__getitem__
    return lambda k: qbinom(n, k, q)


def qbinom(n: int, k: int, q: Rat) -> Rat:
    """Gaussian binomial [n k]_q; 0 when k is out of 0..n.

    It reads (q;q)_k, (q;q)_{n-k} and (q;q)_n, in that order, each checked
    against the cap, and raises `RootOfUnityError` if one of the first two
    is 0.  The value is 0 if (q;q)_n is 0, and else entry k of
    `_qbinom_row`, stepped by [n k+1]_q = [n k]_q (1 - q^{n-k}) / (1 -
    q^{k+1}) (Gasper-Rahman, section 1.3) on integers: with q = a/b reduced,
    b > 0, N_k = b^{k(n-k)} [n k]_q steps as N_{k+1} = N_k (b^{n-k} -
    a^{n-k}) / (b^{k+1} - a^{k+1}), whose divisor (q;q)_n != 0 keeps from 0.
    [n k]_q is a monic integer polynomial in q of degree k(n-k), so N_k is
    an integer and the division is exact; N_k is a^{k(n-k)} mod b, so prime
    to b, and N_k / b^{k(n-k)} is in lowest terms.  (q;q)_m is prod_{j<=m} (b^j - a^j) / b^binom(m+1,2) in lowest
    terms, and no nonzero b^j - a^j is below 1 in size, so the bit lengths
    of (q;q)_m do not fall with m: a (q;q)_n within the cap has every
    (q;q)_m within it, and the whole row can be formed.
    """
    if k < 0 or k > n:
        return Fraction(0)
    low, high = qpoch(q, q, k), qpoch(q, q, n - k)
    if low == 0 or high == 0:
        raise RootOfUnityError(f"(q;q)_k vanished for q = {q}")
    if qpoch(q, q, n) == 0:
        return Fraction(0)
    return _qbinom_row(n, q)[k]


def qpoch_shift(a: Rat, q: Rat, n: int) -> tuple[Rat, Rat]:
    """Both sides of the shift identity for (a q^{-n}; q)_n.

    Returns (lhs, rhs) where lhs = (a q^{-n};q)_n and
    rhs = (q/a;q)_n (-a)^n q^{-n - binom(n,2)}; the two are equal.
    """
    if a == 0:
        raise ValueError("a must be nonzero (q/a appears on the right side)")
    lhs = qpoch(a * qpow(q, -n), q, n)
    rhs = qpoch(q / a, q, n) * (-a) ** n * qpow(q, -n - binom2(n))
    return lhs, rhs
