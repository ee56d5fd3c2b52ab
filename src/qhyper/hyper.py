"""Basic hypergeometric series in three regimes.

terminating-exact, formal series in t, and convergent-numeric with a
documented geometric tail rule.  All three share one term generator, mirroring
the operator definition, so the sign convention cannot drift: term k carries
[(-1)^k q^{binom(k,2)}]^{1+s-r}.
"""

from __future__ import annotations

from fractions import Fraction

from .families import ParamVector, W_coeff, bracket_factor
from .scalars import Rat, _exceeds, qpoch
from .series import TruncSeries

#: Numeric truncation: stop at the first k >= TAIL_KMIN with two consecutive
#: terms below threshold, within MAX_TERMS terms.  The double check guards
#: against accidental zeros.  `verify.truncated_sum` stops by the same rule.
TAIL_KMIN = 8
MAX_TERMS = 10_000


class DivergentSeriesError(ArithmeticError):
    """Non-terminating series with r > s+1, or no tail decay within bounds.

    Raised by `rphis_numeric` and by `verify.truncated_sum`, whose terms can
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


def _finite_sum(pv: ParamVector, q: Rat, z: Rat, n: int) -> Rat:
    """Terms k = 0..n of rPhis[a; b; q; z], summed exactly."""
    return sum((phi_term(k, pv, q, z) for k in range(n + 1)), Fraction(0))


def rphis_terminating(pv: ParamVector, q: Rat, z: Rat) -> Rat:
    """Exact finite sum when some upper parameter is q^{-n}."""
    n = terminating_index(pv, q)
    if n is None:
        raise ValueError("no upper parameter of the form q^{-n}")
    return _finite_sum(pv, q, z, n)


def rphis_series_in_t(pv: ParamVector, q: Rat, c: Rat, order: int) -> TruncSeries:
    """rPhis[a; b; q; c t] as a truncated series in t."""
    return TruncSeries([phi_term(k, pv, q, c) for k in range(order + 1)])


def rphis_numeric(pv: ParamVector, q: Rat, z: Rat, eps: Rat) -> Rat:
    """Truncated partial sum of a convergent (or terminating) rPhis.

    Terminating series are summed exactly.  Otherwise requires r <= s+1, and
    |z| < 1 when r = s+1; stops once two consecutive terms fall below eps.
    """
    n = terminating_index(pv, q)
    if n is not None:
        return _finite_sum(pv, q, z, n)
    if pv.r > pv.s + 1:
        raise DivergentSeriesError(f"divergent series: r={pv.r} > s+1={pv.s + 1}")
    if pv.r == pv.s + 1 and abs(z) >= 1:
        raise DivergentSeriesError(f"r = s+1 needs |z| < 1, got |z| = {abs(z)}")
    acc = Fraction(0)
    prev_small = False
    for k in range(MAX_TERMS):
        term = phi_term(k, pv, q, z)
        acc += term
        small = _exceeds(eps, abs(term))
        if k >= TAIL_KMIN and small and prev_small:
            return acc
        prev_small = small
    raise DivergentSeriesError("no two consecutive small terms within bounds")
