"""All polynomial families, evaluated exactly at rational arguments.

Each family is implemented directly from its own defining sum, never derived
from the general polynomial, so that reduction tests compare independent
implementations.  Only the arithmetic is shared: each sum fetches the rows of
its factors [n k]_q, (a;q)_k = P_k(1, a) and P_{n-k}(x, y) once, at its top
(`_qbinom_reader`, `_prefix_reader`), reads them by index in the order of its
defining sum, and hands the terms to `scalars._sum_of_products`.  Every
(a;q)_k and P_{n-k} is capped, whatever its x.  A row that would hold an
entry past the bit cap is read per k instead, so every error is raised at
the same (n, k), with the same message, as by a sum that forms each factor
afresh.  `psi_sweep` reads [n k]_q through `qbinom` per k and the others
through `_qbinom_reader`: both read the one row of `scalars._qbinom_row`.
The sums of W_k = (a_1..a_r;q)_k / (b_1..b_s;q)_k (`psi_sweep`, `sa_phi`,
`sa_psi`, `v_poly`) read it from `_W_row`, which steps it by one
small-integer ratio per k while no (c;q)_k can pass the bit cap, and reads
`W_coeff` past that.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from .scalars import (
    MAX_SCALAR_BITS,
    Rat,
    _coprime_fraction,
    _height,
    _prefix_bits,
    _prefix_reader,
    _prefix_value,
    _qbinom_reader,
    _sum_of_products,
    _times,
    binom2,
    qbinom,
    qpoch,
    qpow,
)


class VanishingPochhammerError(ZeroDivisionError):
    """A lower-parameter Pochhammer symbol vanished inside a denominator."""


@dataclass(frozen=True)
class ParamVector:
    """Upper parameters (a_1..a_r) and lower parameters (b_1..b_s)."""

    upper: tuple = ()
    lower: tuple = ()

    def __init__(self, upper: Sequence[Rat] = (), lower: Sequence[Rat] = ()):
        object.__setattr__(self, "upper", tuple(upper))
        object.__setattr__(self, "lower", tuple(lower))

    @property
    def r(self) -> int:
        return len(self.upper)

    @property
    def s(self) -> int:
        return len(self.lower)

    @property
    def bracket_exponent(self) -> int:
        return 1 + self.s - self.r


@dataclass(frozen=True)
class FamilyPoint:
    x: Rat
    y: Rat
    z: Rat
    n: int


def cauchy_P(n: int, x: Rat, y: Rat, q: Rat) -> Rat:
    """Cauchy polynomial P_n(x,y) = (x-y)(x-qy)...(x-q^{n-1}y); 1 for n <= 0.

    The product is `scalars._prefix_value`, capped as (a;q)_n is, and read
    from, or added to, its prefix table, so the P_{n-k} of one sum over k
    cost n factors in all.
    """
    return Fraction(1) if n <= 0 else _prefix_value(x, y, q, n)


def W_coeff(k: int, pv: ParamVector, q: Rat) -> Rat:
    """W_k = (a_1..a_r;q)_k / (b_1..b_s;q)_k, formed afresh.

    It reads (b;q)_k for every lower parameter, raising on a zero one, and
    then (a;q)_k for every upper one, multiplies their numerators and
    denominators as ints and reduces the quotient once.  The family sums
    read W_k from `_W_row`, which falls back on this past its bit bound.
    """
    num = den = 1
    for b in pv.lower:
        p = qpoch(b, q, k)
        if p == 0:
            raise VanishingPochhammerError(
                f"lower parameter {b} gives ({b};q)_{k} = 0"
            )
        num, den = num * p.denominator, den * p.numerator
    for a in pv.upper:
        p = qpoch(a, q, k)
        num, den = num * p.numerator, den * p.denominator
    return Fraction(num, den)


def _W_row(pv: ParamVector, q: Rat) -> Callable[[int], Rat]:
    """k -> W_k = `W_coeff(k, pv, q)`, stepped by one small-integer ratio.

    W_0 = 1 and W_{k+1} = W_k prod(1 - a q^k) / prod(1 - b q^k).  With
    q^k = Q/R, each factor 1 - c q^k is (den(c) R - num(c) Q) / (den(c) R),
    so the ratio is one quotient of small ints, folded into W_k by `_times`.
    The row steps only while `_prefix_bits` shows that no (c;q)_k of the
    vector can pass `MAX_SCALAR_BITS`, so that no read of `W_coeff` could
    raise an overflow there; from the first k past that bound it reads
    `W_coeff(k)`, which raises as a sum that forms W_k afresh.  The lower
    factors are tested first, and a zero one hands the read to `W_coeff(k)`,
    which raises its own VanishingPochhammerError.  W_k itself is not
    capped, as `W_coeff` does not cap it.  Each W_k is formed once, when
    first asked for.
    """
    nq, dq = q.numerator, q.denominator
    upper = [(a.numerator, a.denominator) for a in pv.upper]
    lower = [(b.numerator, b.denominator) for b in pv.lower]
    widest = max(pv.upper + pv.lower, key=_height, default=0)
    top = bottom = 1  # prod den(b) / prod den(a), with R^(s-r) below
    for _, bd in lower:
        top *= bd
    for _, ad in upper:
        bottom *= ad
    shift = len(lower) - len(upper)
    values = [Fraction(1)]
    Q = R = 1  # q^k = Q/R for k = len(values) - 1

    def row(k: int) -> Rat:
        nonlocal Q, R
        if k >= len(values) and _prefix_bits(k, 1, widest, q) > MAX_SCALAR_BITS:
            return W_coeff(k, pv, q)
        while len(values) <= k:
            num, den = top, bottom
            for bn, bd in lower:
                f = bd * R - bn * Q
                if not f:
                    return W_coeff(k, pv, q)
                den *= f
            for an, ad in upper:
                num *= ad * R - an * Q
            if shift >= 0:
                num *= R**shift
            else:
                den *= R**-shift
            last = values[-1]
            values.append(_coprime_fraction(*_times(last.numerator, last.denominator, num, den)))
            Q, R = Q * nq, R * dq
        return values[k]

    return row


def bracket_factor(k: int, q: Rat, exponent: int) -> Rat:
    """[(-1)^k q^{binom(k,2)}]^exponent; exponent may be negative."""
    sign = -1 if (k % 2 == 1 and exponent % 2 == 1) else 1
    return sign * qpow(q, binom2(k) * exponent)


def psi_sweep(x: Rat, y: Rat, z: Rat, pv: ParamVector, q: Rat) -> Callable[[int], Rat]:
    """n -> Psi_n(x, y, z), the generalized q-hypergeometric polynomial.

    Psi_n = (-1)^n q^{-binom(n,2)} sum_k [n k]_q bracket^{1+s-r} W_k
    P_{n-k}(y,x) z^k.

    The factor bracket_k W_k z^k does not depend on n, so the returned
    function keeps a row of them for as long as it lives, shared by every n
    it is asked for, with W_k read from one `_W_row`.  Entry k is formed at
    the point of the sum where the row first reaches it, right after
    [n k]_q, so an error of W_k is raised at the same (n, k) as by a sum
    that forms every term afresh.
    Each Psi_n reads P_0..P_n(y, x), capped, from the reader fetched at its
    top, and [n k]_q through `qbinom` per k, from the one row of its n.
    """
    e = pv.bracket_exponent
    W = _W_row(pv, q)
    row: list[Rat] = []

    def term(n: int, k: int, P: Callable[[int], Rat]) -> tuple:
        binom = qbinom(n, k, q)
        if k == len(row):
            row.append(bracket_factor(k, q, e) * W(k) * z**k)
        return binom, row[k], P(n - k)

    def psi(n: int) -> Rat:
        P = _prefix_reader(y, x, q, n)
        acc = _sum_of_products(term(n, k, P) for k in range(n + 1))
        return (-1) ** n * qpow(q, -binom2(n)) * acc

    return psi


def psi_general(pt: FamilyPoint, pv: ParamVector, q: Rat) -> Rat:
    """The generalized q-hypergeometric polynomial Psi_n at one point; see
    `psi_sweep`, which serves many n of one (x, y, z) from one row."""
    return psi_sweep(pt.x, pt.y, pt.z, pv, q)(pt.n)


def asc_phi(n: int, a: Rat, x: Rat, q: Rat) -> Rat:
    """Hahn / Al-Salam-Carlitz phi_n^{(a)}(x|q)."""
    binom, A = _qbinom_reader(n, q), _prefix_reader(1, a, q, n)
    return _sum_of_products((binom(k), A(k), x**k) for k in range(n + 1))


def asc_psi(n: int, a: Rat, x: Rat, q: Rat) -> Rat:
    """Hahn / Al-Salam-Carlitz psi_n^{(a)}(x|q).

    Its factor (a q^{1-k};q)_k = prod_{i<k} (1 - a q^{-i}) is read as
    (a;q^{-1})_k, so every k reads the one prefix table of (a, 1/q).
    """
    qinv = qpow(q, -1)
    binom, A = _qbinom_reader(n, q), _prefix_reader(1, a, qinv, n)
    return _sum_of_products((binom(k), qpow(q, k * (k - n)), A(k), x**k) for k in range(n + 1))


def cao_phi3(n: int, a: Rat, b: Rat, c: Rat, x: Rat, y: Rat, q: Rat) -> Rat:
    """Three-parameter generalized Al-Salam-Carlitz phi_n^{(a,b,c)}(x,y|q)."""
    binom, A, B, C = _qbinom_reader(n, q), *(_prefix_reader(1, p, q, n) for p in (a, b, c))

    def term(k: int) -> tuple:
        ck = C(k)
        if ck == 0:
            raise VanishingPochhammerError(f"(c;q)_{k} = 0 for c = {c}")
        return binom(k), A(k), B(k), 1 / ck, x**k, y ** (n - k)

    return _sum_of_products(term(k) for k in range(n + 1))


def cao_psi3(n: int, a: Rat, b: Rat, c: Rat, x: Rat, y: Rat, q: Rat) -> Rat:
    """Three-parameter generalized Al-Salam-Carlitz psi_n^{(a,b,c)}(x,y|q)."""
    binom, A, B, C = _qbinom_reader(n, q), *(_prefix_reader(1, p, q, n) for p in (a, b, c))

    def term(k: int) -> tuple:
        ck = C(k)
        if ck == 0:
            raise VanishingPochhammerError(f"(c;q)_{k} = 0 for c = {c}")
        return (binom(k), (-1) ** k, qpow(q, binom2(k + 1) - n * k),
                A(k), B(k), 1 / ck, x**k, y ** (n - k))

    return _sum_of_products(term(k) for k in range(n + 1))


def ext_phi5(n, a, b, c, d, e, x, y, q) -> Rat:
    """Five-parameter extension phi_n with upper (a,b,c) and lower (d,e)."""
    binom, A, B, C, D, E = (
        _qbinom_reader(n, q), *(_prefix_reader(1, p, q, n) for p in (a, b, c, d, e))
    )

    def term(k: int) -> tuple:
        dk, ek = D(k), E(k)
        if dk == 0 or ek == 0:
            raise VanishingPochhammerError(f"(d,e;q)_{k} = 0")
        return binom(k), A(k), B(k), C(k), 1 / dk, 1 / ek, x ** (n - k), y**k

    return _sum_of_products(term(k) for k in range(n + 1))


def ext_psi5(n, a, b, c, d, e, x, y, q) -> Rat:
    """Five-parameter extension psi_n, carrying (-1)^k q^{k(k-n)}."""
    binom, A, B, C, D, E = (
        _qbinom_reader(n, q), *(_prefix_reader(1, p, q, n) for p in (a, b, c, d, e))
    )

    def term(k: int) -> tuple:
        dk, ek = D(k), E(k)
        if dk == 0 or ek == 0:
            raise VanishingPochhammerError(f"(d,e;q)_{k} = 0")
        return (binom(k), (-1) ** k, qpow(q, k * (k - n)),
                A(k), B(k), C(k), 1 / dk, 1 / ek, x ** (n - k), y**k)

    return _sum_of_products(term(k) for k in range(n + 1))


def _require_sa_arity(pv: ParamVector) -> None:
    if pv.r != pv.s + 1:
        raise ValueError(
            f"family needs |upper| = |lower| + 1, got {pv.r} and {pv.s}"
        )


def sa_phi(n: int, pv: ParamVector, x: Rat, y: Rat, q: Rat) -> Rat:
    """Multi-parameter phi_n^{(a,b)}(x,y|q) with r+1 upper / r lower."""
    _require_sa_arity(pv)
    binom, W = _qbinom_reader(n, q), _W_row(pv, q)
    return _sum_of_products((binom(k), W(k), x**k, y ** (n - k)) for k in range(n + 1))


def sa_psi(n: int, pv: ParamVector, x: Rat, y: Rat, q: Rat) -> Rat:
    """Multi-parameter psi_n^{(a,b)}(x,y|q), carrying q^{binom(k+1,2)-nk}."""
    _require_sa_arity(pv)
    binom, W = _qbinom_reader(n, q), _W_row(pv, q)
    return _sum_of_products(
        (binom(k), W(k), qpow(q, binom2(k + 1) - n * k), x**k, y ** (n - k))
        for k in range(n + 1)
    )


def v_poly(n: int, pv: ParamVector, x: Rat, y: Rat, z: Rat, q: Rat) -> Rat:
    """V_n^{(a,c)}(x,y,z|q) = sum_k [n k]_q W_k P_{n-k}(x,y) z^k."""
    binom, W, P = _qbinom_reader(n, q), _W_row(pv, q), _prefix_reader(x, y, q, n)
    return _sum_of_products((binom(k), W(k), P(n - k), z**k) for k in range(n + 1))


def gen_hahn(n: int, x: Rat, y: Rat, a: Rat, b: Rat, q: Rat) -> Rat:
    """Generalized Hahn polynomial h_n(x,y,a,b|q) =
    sum_k [n k]_q (a;q)_k P_{n-k}(x,y) b^k."""
    binom, A, P = _qbinom_reader(n, q), _prefix_reader(1, a, q, n), _prefix_reader(x, y, q, n)
    return _sum_of_products((binom(k), A(k), P(n - k), b**k) for k in range(n + 1))


def hahn2_phi(n: int, a: Rat, x: Rat, y: Rat, q: Rat) -> Rat:
    """Bivariate (second) Hahn phi_n^{(a)}(x,y|q) = sum [n k]_q (a;q)_k x^k y^{n-k}."""
    binom, A = _qbinom_reader(n, q), _prefix_reader(1, a, q, n)
    return _sum_of_products((binom(k), A(k), x**k, y ** (n - k)) for k in range(n + 1))


def hahn2_psi(n: int, a: Rat, x: Rat, y: Rat, q: Rat) -> Rat:
    """Bivariate (second) Hahn psi_n^{(a)}(x,y|q), homogenizing the
    one-variable psi with y-powers; (a q^{1-k};q)_k is read as (a;q^{-1})_k,
    as in `asc_psi`."""
    qinv = qpow(q, -1)
    binom, A = _qbinom_reader(n, q), _prefix_reader(1, a, qinv, n)
    return _sum_of_products(
        (binom(k), qpow(q, k * (k - n)), A(k), x**k, y ** (n - k)) for k in range(n + 1)
    )
