"""Basic hypergeometric series in three regimes.

terminating-exact, formal series in t, and convergent-numeric with a
documented geometric tail rule.  All three read their coefficients from one
row, `phi_row`, and so does the operator series of `operators`, whose
coefficient k is the row's at -z; so the sign convention cannot drift: term k
carries [(-1)^k q^{binom(k,2)}]^{1+s-r}.  The row steps each coefficient to
the next by the series' exact term ratio; the tests keep the plain defining
product of a term as the reference that the row is checked against.  The
convergent sum comes as a ball (`rphis_ball`) that holds the partial sum and
the true value: its radius adds a proven bound on the dropped tail to every
rounding.  Its kernel, `_sum_ball`, also sums the outer sums of the numeric
suites, without a tail.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import count, islice

from .families import ParamVector, VanishingPochhammerError
from .scalars import (
    Ball,
    Rat,
    _scaled_mid_rad,
    _sum_of_products,
    ball_precision,
    check_magnitude,
    vanishing_index,
)
from .series import TruncSeries

#: Numeric truncation: stop at the first k >= TAIL_KMIN with two consecutive
#: terms below threshold, within MAX_TERMS terms.  The double check guards
#: against accidental zeros.  `_sum_ball` holds this rule for every numeric sum.
TAIL_KMIN = 8
MAX_TERMS = 10_000

#: The largest n of an upper parameter q^{-n} that `terminating_index` finds.
TERMINATING_LIMIT = 512


class DivergentSeriesError(ArithmeticError):
    """Non-terminating series with r > s+1, or no tail decay within bounds.

    Raised by `_sum_ball`, and so by `rphis_ball` and `verify.truncated_sum`:
    the terms of an outer sum can also regrow before they reach eps.
    """


def phi_row(pv: ParamVector, q: Rat, z: Rat):
    """The memoised row k -> c_k of rPhis[a; b; q; z], term k being
    c_k = W_k z^k / (q;q)_k [(-1)^k q^{binom(k,2)}]^{1+s-r}.

    c_0 = 1, and c_{k+1} = c_k rho_k with the exact term ratio
    rho_k = z (-q^k)^{1+s-r} prod(1 - a q^k) / (prod(1 - b q^k) (1 - q^{k+1})).
    With q^k = Q/R, each factor 1 - c q^k is (den(c) R - num(c) Q) / (den(c) R)
    and the powers of R cancel, so rho_k is one quotient of small ints, reduced
    with one gcd, and c_k rho_k is one `Fraction` product, whose gcds pair
    c_k with a part of rho_k.  The lower factors are tested first, as in
    `families.W_coeff`: a zero one raises the same VanishingPochhammerError.
    A zero 1 - q^{k+1} (q = 1 or -1), or q^k = 0 under a negative exponent,
    divides by zero.  The row never forms (a;q)_k, so the magnitude cap
    applies to each c_k it keeps.  Each c_k is formed once, when first asked
    for.  Besides these sums and the operator series, the weights of the
    numeric outer sums in `verify` are such rows: a term c_k z^k read at its
    own z, such as the 0phi0 term (-1)^k q^{binom(k+1,2)} t^k / (q;q)_k at
    z = q t.
    """
    e = pv.bracket_exponent
    nq, dq = q.numerator, q.denominator
    upper = [(a.numerator, a.denominator) for a in pv.upper]
    lower = [(b, b.numerator, b.denominator) for b in pv.lower]
    top, bottom = z.numerator * dq, z.denominator
    for _, _, bd in lower:
        top *= bd
    for _, ad in upper:
        bottom *= ad
    coeffs = [Fraction(1)]
    Q = R = 1  # q^k = Q/R for the last k in coeffs

    def row(k: int) -> Rat:
        nonlocal Q, R
        while len(coeffs) <= k:
            num, den = top, bottom * (dq * R - nq * Q)
            for b, bn, bd in lower:
                f = bd * R - bn * Q
                if not f:
                    raise VanishingPochhammerError(
                        f"lower parameter {b} gives ({b};q)_{len(coeffs)} = 0"
                    )
                den *= f
            for an, ad in upper:
                num *= ad * R - an * Q
            if e >= 0:
                num *= (-Q) ** e
            else:
                den *= (-Q) ** -e
            coeffs.append(check_magnitude(coeffs[-1] * Fraction(num, den)))
            Q, R = Q * nq, R * dq
        return coeffs[k]

    return row


def terminating_index(pv: ParamVector, q: Rat) -> int | None:
    """Smallest n <= TERMINATING_LIMIT with some nonzero upper parameter equal
    to q^{-n}, if any: the least `vanishing_index` over them."""
    found = (vanishing_index(a, q, TERMINATING_LIMIT) for a in pv.upper if a != 0)
    return min((n for n in found if n is not None), default=None)


def rphis_terminating(pv: ParamVector, q: Rat, z: Rat) -> Rat:
    """Exact finite sum when some upper parameter is q^{-n}."""
    n = terminating_index(pv, q)
    if n is None:
        raise ValueError("no upper parameter of the form q^{-n}")
    row = phi_row(pv, q, z)
    return _sum_of_products((row(k),) for k in range(n + 1))


def rphis_series_in_t(pv: ParamVector, q: Rat, c: Rat, order: int) -> TruncSeries:
    """rPhis[a; b; q; c t] as a truncated series in t."""
    row = phi_row(pv, q, c)
    return TruncSeries([row(k) for k in range(order + 1)])


def _require_convergent(pv: ParamVector, z: Rat) -> None:
    if pv.r > pv.s + 1:
        raise DivergentSeriesError(f"divergent series: r={pv.r} > s+1={pv.s + 1}")
    if pv.r == pv.s + 1 and abs(z) >= 1:
        raise DivergentSeriesError(f"r = s+1 needs |z| < 1, got |z| = {abs(z)}")


def _ratio_bounds(pv: ParamVector, q: Rat, z: Rat):
    """The function k -> a bound on |term j+1 / term j| over every j >= k, or
    None when the lower parameters leave none, built once per sum.

    The ratio is prod(1 - a q^j) / prod(1 - b q^j) * z / (1 - q^{j+1}) *
    (-q^j)^e, e = 1+s-r >= 0, and |q^j| <= Q = |q|^k for 0 < |q| < 1 bounds
    each factor: by 1 + |a| Q above, by 1 - |b| Q and 1 - |q| Q below.  The
    function keeps Q as the int pair N/D = |num q|^k / den(q)^k and steps it
    forward from the k it was last asked for, so k must not decrease.  A
    lower parameter b = b_n/b_d leaves no bound when b_d D <= |b_n| N.
    Otherwise each factor is an int quotient, such as 1 - |b| Q =
    (b_d D - |b_n| N) / (b_d D), and in the bound |z| Q^e / (1 - |q| Q) *
    prod(1 + |a| Q) / prod(1 - |b| Q) the powers of D cancel, as e = 1+s-r:
    it is one int numerator over one int denominator, reduced once into a
    Fraction.
    """
    e = pv.bracket_exponent
    nq, dq = abs(q.numerator), q.denominator
    upper = [(abs(a.numerator), a.denominator) for a in pv.upper]
    lower = [(abs(b.numerator), b.denominator) for b in pv.lower]
    top, bottom = abs(z.numerator), z.denominator
    for _, bd in lower:
        top *= bd
    for _, ad in upper:
        bottom *= ad
    last, N, D = 0, 1, 1  # Q = N/D = |q|^last

    def bound(k: int) -> Rat | None:
        nonlocal last, N, D
        if k < last:
            raise ValueError(f"ratio bound asked for k={k} after k={last}")
        N, D, last = N * nq ** (k - last), D * dq ** (k - last), k
        den = bottom * (dq * D - nq * N)
        for bn, bd in lower:
            f = bd * D - bn * N
            if f <= 0:
                return None
            den *= f
        num = top * N**e * dq
        for an, ad in upper:
            num *= ad * D + an * N
        return Fraction(num, den)

    return bound


def _tuple_ball(factors: tuple, p: int) -> Ball:
    """The ball at precision p of the product of `factors`, exact ints and
    Fractions that may end in one ball, with one rounding."""
    n = d = 1
    ball = factors[-1] if isinstance(factors[-1], Ball) else None
    for f in factors[:-1] if ball else factors:
        n *= f.numerator
        d *= f.denominator
    if ball is None:
        return Ball.of_ratio(n, d, p)
    return Ball(*_scaled_mid_rad(ball.mid, ball.rad, n, d), ball.prec)


def _sum_ball(terms, eps: Rat, kmin: int = TAIL_KMIN, ratio=None) -> Ball:
    """Sum the iterator `terms`, term k for k = 0, 1, ..., as a ball at
    precision `ball_precision(eps)`.

    No term past the last one summed is pulled from `terms`.  A term is a ball of
    that precision, an exact rational, or a tuple of exact int or Fraction
    factors, the last of which may be such a ball.  A tuple's numerators and
    denominators are multiplied as ints and rounded once (`_tuple_ball`); a
    common factor changes neither rounding, so its ball is the ball of the
    reduced product.  A term is small when its ball's upper bound is below
    eps.  The sum stops at the first k >= kmin where
    terms k - 1 and k are both small, and raises DivergentSeriesError if
    MAX_TERMS terms pass first.  With `ratio`, which
    maps k to a bound rho on |term j+1 / term j| over every j >= k or to None,
    it stops there only when rho < 1 and adds |term k| rho / (1 - rho), a
    bound on the dropped tail, to the radius: the ball holds the true value.
    ratio is read only at such k, so at rising k, as the stepped bound of
    `_ratio_bounds` needs.
    A convergent series may rise far above its first terms, so there is no
    regrowth test then.  Without `ratio` the ball holds the partial sum only,
    and the sum raises once a term's lower bound passes 2^40 times the peak,
    the largest upper bound up to kmin: the terms regrew.
    """
    p = ball_precision(eps)
    small_below = eps.numerator << p  # |x| < eps when |x| 2^p den(eps) is below this
    acc = Ball(0, 0, p)
    prev_small = False
    peak = 1 << p
    for k, t in zip(range(MAX_TERMS), terms):
        t = _tuple_ball(t, p) if type(t) is tuple else Ball.of(t, p)
        acc = acc + t
        upper = abs(t.mid) + t.rad
        if k <= kmin and upper > peak:
            peak = upper
        small = upper * eps.denominator < small_below
        if k >= kmin and small and prev_small:
            if ratio is None:
                return acc
            rho = ratio(k)
            if rho is not None and rho < 1:
                top, bottom = rho.numerator, rho.denominator
                return Ball(acc.mid, acc.rad - (-upper * top // (bottom - top)), p)
        if ratio is None and k >= kmin and abs(t.mid) - t.rad > peak << 40:
            raise DivergentSeriesError(f"terms regrew without reaching eps at k={k}")
        prev_small = small
    raise DivergentSeriesError("no two consecutive small terms within bounds")


def _row_balls(row, z: Rat, p: int):
    """Yield the ball of c_k z^k, k = 0, 1, ..., with c_k = row(k).

    Term k enters its ball as the unreduced quotient num(c_k) num(z)^k over
    den(c_k) den(z)^k (`Ball.of_ratio`), with the powers of z stepped once
    per term: no gcd is taken, and the ball is that of the reduced term.
    row(k) is read only when term k is asked for, so an error in it raises
    at the same k as in the plain sum.
    """
    zn, zd = z.numerator, z.denominator
    n = d = 1
    for k in count():
        c = row(k)
        yield Ball.of_ratio(c.numerator * n, c.denominator * d, p)
        n, d = n * zn, d * zd


def rphis_ball(pv: ParamVector, q: Rat, z: Rat, eps: Rat, row) -> Ball:
    """rPhis[a; b; q; z] as a ball at precision `ball_precision(eps)`.

    Term k is c_k z^k, c_k read from `row`, the function k -> c_k of
    `phi_row(pv, q, 1)`, so a caller that sums one pv at many z passes one
    row for all of them (a numeric trial does).  Each term is rounded into
    its ball by `_row_balls`.  A terminating series is summed to its last
    nonzero term.  Otherwise, with r <= s+1,
    |z| < 1 when r = s+1, and 0 < |q| < 1, `_sum_ball` sums it with the ratio
    bound `_ratio_bounds(pv, q, z)`, made once for the sum and read at rising
    k, so the ball holds the partial sum and the true value.
    """
    p = ball_precision(eps)
    terms = _row_balls(row, z, p)
    n = terminating_index(pv, q)
    if n is not None:
        return sum(islice(terms, n + 1), Ball(0, 0, p))
    _require_convergent(pv, z)
    if not 0 < abs(q) < 1:
        raise ValueError("the tail bound needs 0 < |q| < 1")
    return _sum_ball(terms, eps, ratio=_ratio_bounds(pv, q, z))
