"""An independent oracle for the numeric primitives: mpmath.

mpmath evaluates (a;q)_inf (`qp`) and rPhis (`qhyper`, with the same
[(-1)^k q^binom(k,2)]^{1+s-r} convention) by its own code, in binary floating
point at p + 64 bits for a ball precision p.  `qhyper` does not stop on a
series whose terms become exactly 0, so a terminating rPhis is the defining
finite sum over mpmath's finite `qp`.  The exact partial products of
`qpoch_inf` must agree with it up to their truncation, and every ball that a
numeric trial reads (pinf, quotient and the `rphis_ball` values) must hold
its value.  The parameters are a seeded mix: negative q, |q| near 1, a
factor (c q^m = 1) that makes the product 0, and a terminating upper
parameter q^-m.  The finite primitives `qpoch`, `qbinom` and `cauchy_P`, the
factors of every exact family sum, are checked against mpmath's finite `qp`
on the same kind of mix, with |q| > 1 as well.
"""

import random
from fractions import Fraction as F
from math import prod

import pytest

mpmath = pytest.importorskip("mpmath")

from qhyper.families import ParamVector, cauchy_P  # noqa: E402
from qhyper.hyper import terminating_index  # noqa: E402
from qhyper.scalars import ball_precision, qbinom, qpoch, qpoch_inf  # noqa: E402
from qhyper.verify import _Trial  # noqa: E402


def mp(x):
    return mpmath.mpf(x.numerator) / x.denominator


def exact(x):
    sign, man, exp, _ = x._mpf_  # x = (-1)^sign man 2^exp
    return (-1) ** sign * F(man) * F(2) ** exp


def qp(c, q):
    return exact(mpmath.qp(mp(c), mp(q)))


def qhyper(pv, q, z, m=None):
    """rPhis at z; m is the last nonzero term of a terminating series."""
    a_s, b_s, q, z = [mp(a) for a in pv.upper], [mp(b) for b in pv.lower], mp(q), mp(z)
    if m is None:
        return exact(mpmath.qhyper(a_s, b_s, q, z))
    e = 1 + len(b_s) - len(a_s)
    return exact(mpmath.fsum(
        mpmath.fprod(mpmath.qp(a, q, k) for a in a_s) / mpmath.fprod(mpmath.qp(b, q, k) for b in b_s)
        * ((-1) ** k * q ** (k * (k - 1) // 2)) ** e * z**k / mpmath.qp(q, q, k)
        for k in range(m + 1)
    ))


def holds(ball, value):
    """value lies in the ball, up to mpmath's own rounding at p + 64 bits."""
    slack = max(1, abs(value)) / F(1 << (ball.prec + 32))
    return abs(value - F(ball.mid, 1 << ball.prec)) <= F(ball.rad, 1 << ball.prec) + slack


def rand_rat(rng, m=9):
    return F(rng.randint(1, m), rng.randint(1, m)) * rng.choice((1, -1))


def rand_pv(rng, q):
    """Upper and lower parameters with r <= s+1 and lower ones inside the
    unit disc; now and then the first upper parameter is q^-m, which ends
    the series at term m."""
    s = rng.randint(0, 2)
    upper = [rand_rat(rng) for _ in range(rng.randint(0, s + 1))]
    if upper and rng.random() < 0.3:
        upper[0] = q ** -rng.randint(0, 6)
    lower = [rand_rat(rng) / 10 for _ in range(s)]
    return ParamVector(tuple(upper), tuple(lower))


#: (q, epsilon_bits): negative q, and |q| near 1.  The exact partial
#: products of qpoch_inf stay inside their bit cap for |q| <= 7/8 at 24 bits;
#: the balls take |q| = 31/32 at 80 bits.
EXACT_BASES = [(F(-2, 3), 80), (F(1, 2), 160), (F(3, 5), 80), (F(-7, 8), 24)]
BALL_BASES = EXACT_BASES + [(F(31, 32), 80), (F(-15, 16), 80)]


def oracle_cases(bases):
    rng = random.Random(2024)
    for q, bits in bases:
        eps = F(1, 1 << bits)
        cs = [rand_rat(rng) for _ in range(4)] + [q ** -rng.randint(0, 4)]
        pvs = []
        for _ in range(4):
            pv = rand_pv(rng, q)
            pvs.append((pv, terminating_index(pv, q), rand_rat(rng, 4) / 5))
        yield q, eps, cs, pvs


def test_exact_primitives_agree_with_mpmath():
    """qpoch_inf agrees with qp to 2^-(b-8) relative for eps = 2^-b."""
    zeros = 0
    for q, eps, cs, _ in oracle_cases(EXACT_BASES):
        tol = eps * 256
        with mpmath.workprec(ball_precision(eps) + 64):
            for c in cs:
                value, ref = qpoch_inf(c, q, eps), qp(c, q)
                assert abs(value - ref) <= tol * max(1, abs(ref)), (c, q)
                zeros += value == 0
    assert zeros >= 2


def test_every_ball_of_a_trial_holds_the_mpmath_value():
    """pinf, quotient and phi of a numeric trial hold qp, the quotient of the
    qp values and qhyper."""
    rng = random.Random(7)
    terminating = 0
    for q, eps, cs, pvs in oracle_cases(BALL_BASES):
        trial = _Trial(q, eps)
        with mpmath.workprec(ball_precision(eps) + 64):
            refs = {c: qp(c, q) for c in cs}
            for c in cs:
                assert holds(trial.pinf(c), refs[c]), (c, q)
            for _ in range(4):
                top = tuple(rng.sample(cs, rng.randint(1, 3)))
                bottom = tuple(c for c in rng.sample(cs, 2) if trial.pinf(c).rad)
                ref = F(1)
                for c in top:
                    ref *= refs[c]
                for c in bottom:
                    ref /= refs[c]
                assert holds(trial.quotient(top, bottom), ref), (top, bottom, q)
            for pv, m, z in pvs:
                assert holds(trial.phi(pv, z), qhyper(pv, q, z, m)), (pv.upper, pv.lower, q, z)
                terminating += m is not None
    assert terminating > 0


#: Bases for the finite primitives: negative q, q near 1, and |q| > 1.
FINITE_BASES = [F(-2, 3), F(63, 64), F(-15, 16), F(3, 2), F(-7, 4), F(1, 3)]
FINITE_TOL = F(1, 1 << (200 - 8))


def agrees_with_qp(value, a, q, n, times=1):
    """value = times (a;q)_n, against mpmath's finite qp, a product of the
    1 - a q^j in binary floating point: to 2^-192 relative, or, where some
    a q^j is 1, value is the exact 0 and the mpmath value is 0 up to rounding
    on the scale |times| prod(1 + |a q^j|)."""
    ref = exact(mp(times) * mpmath.qp(mp(a), mp(q), n))
    if any(a * q**j == 1 for j in range(n)):
        scale = abs(times) * prod(1 + abs(a * q**j) for j in range(n))
        return value == 0 and type(value) is F and abs(ref) <= FINITE_TOL * scale
    return abs(value - ref) <= FINITE_TOL * abs(ref)


def test_finite_primitives_agree_with_mpmath():
    """qpoch, qbinom and cauchy_P = x^n (y/x;q)_n against mpmath at 200 + 64
    bits, with a factor a q^m = 1 in every base."""
    rng = random.Random(2026)
    zeros = 0
    with mpmath.workprec(200 + 64):
        for q in FINITE_BASES:
            cases = [(rng.randint(0, 24), rand_rat(rng), rand_rat(rng), rand_rat(rng))
                     for _ in range(6)]
            m, x = rng.randint(0, 8), rand_rat(rng)
            cases.append((m + rng.randint(1, 6), q**-m, x, x * q**-m))
            for n, a, x, y in cases:
                assert agrees_with_qp(qpoch(a, q, n), a, q, n), (a, q, n)
                assert agrees_with_qp(cauchy_P(n, x, y, q), y / x, q, n, x**n), (x, y, q, n)
                zeros += qpoch(a, q, n) == 0
                k, mq = rng.randint(0, n), mp(q)
                ref = exact(mpmath.qp(mq, mq, n) / (mpmath.qp(mq, mq, k) * mpmath.qp(mq, mq, n - k)))
                assert abs(qbinom(n, k, q) - ref) <= FINITE_TOL * abs(ref), (n, k, q)
    assert zeros >= len(FINITE_BASES)
