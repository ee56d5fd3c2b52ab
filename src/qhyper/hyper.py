"""Basic hypergeometric series in three regimes.

terminating-exact, formal series in t, and convergent-numeric with a
documented geometric tail rule.  All three share one term generator, mirroring
the operator definition, so the sign convention cannot drift: term k carries
[(-1)^k q^{binom(k,2)}]^{1+s-r}.  The convergent sum comes as a ball
(`rphis_ball`) that holds the partial sum and the true value: its radius
adds a proven bound on the dropped tail to every rounding.
"""

from __future__ import annotations

from fractions import Fraction

from .families import ParamVector, W_coeff, bracket_factor
from .scalars import Ball, Rat, ball_precision, qpoch
from .series import TruncSeries

#: Numeric truncation: stop at the first k >= TAIL_KMIN with two consecutive
#: terms below threshold, within MAX_TERMS terms.  The double check guards
#: against accidental zeros.  `verify.truncated_sum` stops by the same rule.
TAIL_KMIN = 8
MAX_TERMS = 10_000


class DivergentSeriesError(ArithmeticError):
    """Non-terminating series with r > s+1, or no tail decay within bounds.

    Raised by `rphis_ball` and by `verify.truncated_sum`, whose terms can
    also regrow before they reach eps.
    """


def phi_term(k: int, pv: ParamVector, q: Rat, z: Rat) -> Rat:
    """Term k of rPhis[a; b; q; z]."""
    return (
        W_coeff(k, pv, q)
        * z**k
        / qpoch(q, q, k)
        * bracket_factor(k, q, pv.bracket_exponent)
    )


def terminating_index(pv: ParamVector, q: Rat, limit: int = 512) -> int | None:
    """Smallest n <= limit with some upper parameter equal to q^{-n}, if any.

    The walk over a q^n stops early once |a q^n| lies on the same side of 1
    as |q|: from there |a q^n| only moves away from 1.
    """
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
            if abs(q) != 1 and (abs(p) < 1) == (abs(q) < 1):
                break
            p *= q
    return best


def rphis_terminating(pv: ParamVector, q: Rat, z: Rat) -> Rat:
    """Exact finite sum when some upper parameter is q^{-n}."""
    n = terminating_index(pv, q)
    if n is None:
        raise ValueError("no upper parameter of the form q^{-n}")
    return sum((phi_term(k, pv, q, z) for k in range(n + 1)), Fraction(0))


def rphis_series_in_t(pv: ParamVector, q: Rat, c: Rat, order: int) -> TruncSeries:
    """rPhis[a; b; q; c t] as a truncated series in t."""
    return TruncSeries([phi_term(k, pv, q, c) for k in range(order + 1)])


def _require_convergent(pv: ParamVector, z: Rat) -> None:
    if pv.r > pv.s + 1:
        raise DivergentSeriesError(f"divergent series: r={pv.r} > s+1={pv.s + 1}")
    if pv.r == pv.s + 1 and abs(z) >= 1:
        raise DivergentSeriesError(f"r = s+1 needs |z| < 1, got |z| = {abs(z)}")


def _ratio_bound(pv: ParamVector, q: Rat, z: Rat, k: int) -> Rat | None:
    """A bound on |term j+1 / term j| over every j >= k, or None when the
    lower parameters leave none.

    The ratio is prod(1 - a q^j) / prod(1 - b q^j) * z / (1 - q^{j+1}) *
    (-q^j)^{1+s-r}, and |q^j| <= Q = |q|^k for 0 < |q| < 1 bounds each
    factor: by 1 + |a| Q above, by 1 - |b| Q and 1 - |q| Q below.
    """
    Q = abs(q) ** k
    bound = abs(z) * Q**pv.bracket_exponent / (1 - abs(q) * Q)
    for a in pv.upper:
        bound *= 1 + abs(a) * Q
    for b in pv.lower:
        if abs(b) * Q >= 1:
            return None
        bound /= 1 - abs(b) * Q
    return bound


def rphis_ball(pv: ParamVector, q: Rat, z: Rat, eps: Rat) -> Ball:
    """rPhis[a; b; q; z] as a ball at precision `ball_precision(eps)`.

    It sums the balls of the exact terms `phi_term(k)`.  A terminating series
    is summed to its last nonzero term.  Otherwise, with r <= s+1, |z| < 1
    when r = s+1, and 0 < |q| < 1, it stops at the first k >= TAIL_KMIN
    where the upper bounds of the balls of terms k - 1 and k are both below
    eps and `_ratio_bound` gives some rho < 1 from k on.  It then adds
    |term k| rho / (1 - rho), which bounds the dropped tail, to the radius:
    the ball holds the partial sum and the true value.
    """
    p = ball_precision(eps)
    n = terminating_index(pv, q)
    if n is not None:
        return sum((Ball.of(phi_term(k, pv, q, z), p) for k in range(n + 1)), Ball(0, 0, p))
    _require_convergent(pv, z)
    if not 0 < abs(q) < 1:
        raise ValueError("the tail bound needs 0 < |q| < 1")
    small_below = eps.numerator << p  # |x| < eps when |x| 2^p den(eps) is below this
    acc = Ball(0, 0, p)
    prev_small = False
    for k in range(MAX_TERMS):
        term = Ball.of(phi_term(k, pv, q, z), p)
        acc = acc + term
        upper = abs(term.mid) + term.rad
        small = upper * eps.denominator < small_below
        if k >= TAIL_KMIN and small and prev_small:
            rho = _ratio_bound(pv, q, z, k)
            if rho is not None and rho < 1:
                top, bottom = rho.numerator, rho.denominator
                return Ball(acc.mid, acc.rad - (-upper * top // (bottom - top)), p)
        prev_small = small
    raise DivergentSeriesError("no two consecutive small terms within bounds")
