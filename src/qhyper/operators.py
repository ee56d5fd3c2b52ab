"""The homogeneous q-difference operator and its hypergeometric series.

The operator is represented intrinsically on the Cauchy basis P_m(y,x), where
it acts by degree-lowering; the pointwise divided-difference definition is
kept as an independent cross-check oracle.  The operator series' coefficient
k is c_k of `hyper.phi_row(pv, q, -z)`, the term of the rphis at -z (Lemma 1),
so the operator and the series share one coefficient row; each application
makes that row once and reads it for every basis element.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Callable

from .families import ParamVector, cauchy_P
from .hyper import phi_row
from .scalars import Rat, _prefix_reader, _sum_of_products, qpoch
from .series import TruncSeries


class CauchyPoly:
    """Finite linear combination sum_m c_m P_m(y,x) with exact coefficients.

    Supports the linear operations the operator calculus needs: sums and
    multiples by a scalar.  A general product of two basis elements is not
    itself a basis element, and nothing in this library requires
    re-expanding one, so multiplication is only defined against scalars.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: dict[int, Rat] | None = None):
        self.coeffs = {m: c for m, c in (coeffs or {}).items() if c != 0}

    @classmethod
    def basis(cls, m: int, coeff: Rat = Fraction(1)) -> "CauchyPoly":
        return cls({m: coeff})

    @property
    def degree(self) -> int:
        return max(self.coeffs, default=0)

    def __add__(self, other):
        if not isinstance(other, CauchyPoly):
            return NotImplemented
        out = dict(self.coeffs)
        for m, c in other.coeffs.items():
            out[m] = out.get(m, Fraction(0)) + c
        return CauchyPoly(out)

    def __mul__(self, scalar):
        if isinstance(scalar, CauchyPoly):
            raise TypeError(
                "product of two Cauchy-basis polynomials is not basis-closed"
            )
        if scalar == 0:
            return CauchyPoly()
        return CauchyPoly({m: c * scalar for m, c in self.coeffs.items()})

    __rmul__ = __mul__

    def __eq__(self, other):
        if isinstance(other, CauchyPoly):
            return self.coeffs == other.coeffs
        if other == 0:
            return not self.coeffs
        return NotImplemented

    def evaluate(self, x0: Rat, y0: Rat, q: Rat) -> Rat:
        """Evaluate at rational (x0, y0); basis element m is P_m(y0, x0)."""
        return _sum_of_products((c, cauchy_P(m, y0, x0, q)) for m, c in self.coeffs.items())

    def __repr__(self):
        return f"CauchyPoly({self.coeffs!r})"


def theta_basis(f: CauchyPoly, k: int, q: Rat) -> CauchyPoly:
    """k-fold operator action on the basis:
    Theta^k P_n(y,x) = (-1)^k (q;q)_n/(q;q)_{n-k} P_{n-k}(y,x);
    basis terms of degree < k are annihilated.  (q;q)_m and (q;q)_{m-k} are
    read from the row of (q;q) fetched once."""
    out: dict[int, Rat] = {}
    qq = _prefix_reader(1, q, q, f.degree)
    for m, c in f.coeffs.items():
        if m >= k:
            out[m - k] = c * ((-1) ** k * qq(m) / qq(m - k))
    return CauchyPoly(out)


def theta_pointwise(
    f: Callable[[Rat, Rat], Rat], x0: Rat, y0: Rat, q: Rat
) -> Rat:
    """Divided difference [f(x/q, y) - f(x, qy)] / (x/q - y) at a point."""
    den = x0 / q - y0
    if den == 0:
        raise ZeroDivisionError(f"singular point: x0/q = y0 = {y0}")
    return (f(x0 / q, y0) - f(x0, q * y0)) / den


def theta_pointwise_power(
    f: Callable[[Rat, Rat], Rat], k: int, q: Rat
) -> Callable[[Rat, Rat], Rat]:
    """k-fold nesting of the pointwise divided difference."""
    g = f
    for _ in range(k):
        g = (lambda h: lambda x, y: theta_pointwise(h, x, y, q))(g)
    return g


def _apply_row(coeff: Callable[[int], Rat], f: CauchyPoly, q: Rat) -> CauchyPoly:
    """sum_k coeff(k) Theta^k f, asking coeff for k = 0..deg f in order.
    Theta is nilpotent on each basis element, so the sum is finite."""
    result = CauchyPoly()
    for k in range(f.degree + 1):
        c = coeff(k)
        if c != 0:
            result = result + theta_basis(f, k, q) * c
    return result


def op_apply_series(pv: ParamVector, z: Rat, F: TruncSeries, q: Rat) -> TruncSeries:
    """Apply the hypergeometric operator series
    sum_k W_k (-z Theta)^k / (q;q)_k [(-1)^k q^{binom(k,2)}]^{1+s-r}
    termwise to a series with CauchyPoly coefficients.  Coefficient k is c_k
    of `phi_row(pv, q, -z)`, the rphis term at -z, and every coefficient of
    F reads that one row."""
    coeff = phi_row(pv, q, -z)
    return TruncSeries([_apply_row(coeff, c, q) for c in F.coeffs])


def shifted_cauchy_series(k: int, order: int, q: Rat) -> TruncSeries:
    """Series with t-coefficient n equal to P_{n+k}(y,x)/(q;q)_n: the
    index-shifted product P_k(y,x)(xt;q)_inf / ((xt;q)_k (yt;q)_inf).  At
    k = 0 it is (xt;q)_inf/(yt;q)_inf in the Cauchy basis."""
    return TruncSeries(
        [
            CauchyPoly.basis(n + k, Fraction(1) / qpoch(q, q, n))
            for n in range(order + 1)
        ]
    )


def evaluate_series(F: TruncSeries, x0: Rat, y0: Rat, q: Rat) -> TruncSeries:
    """Evaluate every CauchyPoly coefficient at (x0, y0)."""
    return TruncSeries([c.evaluate(x0, y0, q) for c in F.coeffs])
