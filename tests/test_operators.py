"""The homogeneous q-difference operator on the Cauchy basis."""

import random
from fractions import Fraction as F

import pytest

from qhyper.families import (
    FamilyPoint,
    ParamVector,
    VanishingPochhammerError,
    W_coeff,
    bracket_factor,
    cauchy_P,
    psi_general,
)
from qhyper.operators import (
    CauchyPoly,
    evaluate_series,
    op_apply_series,
    shifted_cauchy_series,
    theta_basis,
    theta_pointwise,
    theta_pointwise_power,
)
from qhyper.scalars import binom2, qpoch, qpow
from qhyper.series import (
    TruncSeries,
    euler_inverse_series,
    euler_product_series,
    max_abs_deviation,
)


def test_cauchy_poly_linear_ops():
    a = CauchyPoly.basis(2, F(3)) + CauchyPoly.basis(0, F(1))
    assert a.coeffs == {2: F(3), 0: F(1)}
    assert (a * F(2)).coeffs == {2: F(6), 0: F(2)}
    assert (F(0) * a) == 0
    assert a.degree == 2


def test_cauchy_poly_product_not_closed():
    with pytest.raises(TypeError):
        CauchyPoly.basis(1) * CauchyPoly.basis(2)


def test_cauchy_poly_evaluate_uses_swapped_arguments():
    # basis element m evaluates as P_m(y0, x0)
    q = F(1, 2)
    f = CauchyPoly.basis(3, F(2))
    assert f.evaluate(F(1, 3), F(2), q) == 2 * cauchy_P(3, F(2), F(1, 3), q)


def test_theta_basis_degree_lowering():
    q = F(1, 3)
    f = CauchyPoly.basis(4)
    g = theta_basis(f, 1, q)
    assert g.coeffs == {3: -qpoch(q, q, 4) / qpoch(q, q, 3)}
    assert theta_basis(f, 5, q) == 0


def test_theta_pointwise_matches_basis_route():
    # the spec's fixed point: P_2 at (1/3, 2), q = 1/2
    q, x0, y0 = F(1, 2), F(1, 3), F(2)
    f = lambda x, y: cauchy_P(2, y, x, q)
    direct = theta_pointwise(f, x0, y0, q)
    via_basis = theta_basis(CauchyPoly.basis(2), 1, q).evaluate(x0, y0, q)
    assert direct == via_basis


def test_theta_pointwise_singular_point():
    q = F(1, 2)
    with pytest.raises(ZeroDivisionError):
        theta_pointwise(lambda x, y: x, F(1), F(2), q)


def test_theta_cross_validation_exhaustive():
    # basis rule vs nested pointwise quotients, n <= 8, k <= n
    q, x0, y0 = F(2, 5), F(3, 7), F(-1, 3)
    for n in range(9):
        f = lambda x, y, n=n: cauchy_P(n, y, x, q)
        for k in range(n + 1):
            lhs = theta_pointwise_power(f, k, q)(x0, y0)
            rhs = theta_basis(CauchyPoly.basis(n), k, q).evaluate(x0, y0, q)
            assert lhs == rhs


def apply_to_one(pv, z, f, q):
    """The operator applied to one CauchyPoly, as a one-coefficient series."""
    return op_apply_series(pv, z, TruncSeries([f]), q).coeffs[0]


def test_operator_on_a_scaled_basis_element_is_psi_general():
    """Lemma 1(a): the operator maps (-1)^n q^{-binom(n,2)} P_n(y,x) to Psi_n."""
    pv = ParamVector((F(1, 2), F(-1, 3)), (F(1, 5),))
    q, z = F(1, 2), F(2, 7)
    x0, y0 = F(3, 4), F(-2, 5)
    for n in range(7):
        f = CauchyPoly.basis(n, (-1) ** n * qpow(q, -binom2(n)))
        applied = apply_to_one(pv, z, f, q)
        assert applied.evaluate(x0, y0, q) == psi_general(
            FamilyPoint(x0, y0, z, n), pv, q
        )


def test_cauchy_basis_series_evaluates_to_product_ratio():
    q, x0, y0, N = F(1, 3), F(1, 2), F(2, 7), 10
    evaluated = evaluate_series(shifted_cauchy_series(0, N, q), x0, y0, q)
    ratio = euler_product_series(x0, q, N) * euler_inverse_series(y0, q, N)
    assert max_abs_deviation(evaluated, ratio) == 0


def test_shifted_cauchy_series_telescopes():
    # P_{n+k}(y,x) = P_k(y,x) P_n(y, q^k x), so evaluating the k-shifted
    # series gives P_k(y0,x0) (q^k x0 t;q)_inf / (y0 t;q)_inf
    q, x0, y0, N, k = F(1, 2), F(2, 3), F(1, 5), 10, 3
    evaluated = evaluate_series(shifted_cauchy_series(k, N, q), x0, y0, q)
    expected = (
        euler_product_series(x0 * q**k, q, N) * euler_inverse_series(y0, q, N)
    ).scale(cauchy_P(k, y0, x0, q))
    assert max_abs_deviation(evaluated, expected) == 0


def test_op_apply_series_is_termwise():
    pv = ParamVector((F(1, 2),), ())
    q, z, N = F(1, 2), F(1, 3), 6
    F_series = shifted_cauchy_series(0, N, q)
    applied = op_apply_series(pv, z, F_series, q)
    for n in range(N + 1):
        assert applied.coeffs[n] == apply_to_one(pv, z, F_series.coeffs[n], q)


def inline_op_apply_poly(pv, z, f, q):
    """The operator with its coefficient written out inline, as it was before
    it read `phi_term` at -z."""
    e = pv.bracket_exponent
    result = CauchyPoly()
    for k in range(f.degree + 1):
        coeff = W_coeff(k, pv, q) * (-z) ** k / qpoch(q, q, k) * bracket_factor(k, q, e)
        if coeff != 0:
            result = result + theta_basis(f, k, q) * coeff
    return result


def seeded_operator_cases(rng, order):
    """(pv, z, q, series) over (r, s) in 0..3 and q of both signs: the basis
    series, a shifted one and random combinations of three basis elements."""
    for r in range(4):
        for s in range(4):
            pv = ParamVector(
                [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(r)],
                [F(rng.choice((-1, 1)) * rng.randint(1, 8), 9) for _ in range(s)],
            )
            q = rng.choice((F(1, 2), F(-2, 3), F(3, 5), F(-1, 4)))
            z = F(rng.randint(-9, 9), rng.randint(1, 9))
            mixed = TruncSeries(
                CauchyPoly({rng.randint(0, n + 1): F(rng.randint(-5, 5), 3) for _ in range(3)})
                for n in range(order + 1)
            )
            for series in (
                shifted_cauchy_series(0, order, q),
                shifted_cauchy_series(rng.randint(0, 3), order, q),
                mixed,
            ):
                yield pv, z, q, series


@pytest.mark.parametrize("order", [1, 7, 20])
def test_op_apply_series_equals_the_inline_coefficient_formula(order):
    rng = random.Random(order)
    for pv, z, q, series in seeded_operator_cases(rng, order):
        applied = op_apply_series(pv, z, series, q)
        assert len(applied.coeffs) == order + 1
        for c, got in zip(series.coeffs, applied.coeffs):
            want = inline_op_apply_poly(pv, z, c, q)
            assert got == want
            if c is series.coeffs[-1]:
                assert apply_to_one(pv, z, c, q) == want


def raised(fn, *args):
    with pytest.raises(VanishingPochhammerError) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("m", [0, 3, 11, 13])
def test_a_vanishing_lower_parameter_raises_as_the_inline_formula_does(m):
    """b = q^-m makes (b;q)_k vanish from k = m + 1: the shared row raises at
    the first basis element of that degree, with the same k in its message."""
    q, z = F(-1, 2), F(2, 7)
    pv = ParamVector((F(1, 3),), (F(3, 5), qpow(q, -m)))
    series = shifted_cauchy_series(2, 12, q)
    message = raised(lambda: [inline_op_apply_poly(pv, z, c, q) for c in series.coeffs])
    assert message == f"lower parameter {qpow(q, -m)} gives ({qpow(q, -m)};q)_{m + 1} = 0"
    assert raised(op_apply_series, pv, z, series, q) == message
    assert raised(apply_to_one, pv, z, series.coeffs[-1], q) == message
