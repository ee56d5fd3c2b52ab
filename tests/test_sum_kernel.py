"""Every finite exact sum of products goes through `scalars._sum_of_products`.

Each converted sum is checked against a frozen copy of the loop it replaced,
which accumulates `acc += a * b * c` in `Fraction`s: same value, same type,
and the same error with the same message at the same (n, k).
"""

import random
from fractions import Fraction as F

import pytest

from qhyper import families, hyper, reductions, scalars
from qhyper.families import (
    FamilyPoint,
    ParamVector,
    VanishingPochhammerError,
    W_coeff,
    bracket_factor,
    cauchy_P,
)
from qhyper.hyper import terminating_index
from qhyper.scalars import ScalarOverflowError, binom2, qbinom, qpoch, qpow

# -- frozen copies of the accumulation loops ---------------------------------


def frozen_qpoch_product(params, q, k):
    """(a_1,...,a_r;q)_k as the Fraction product of the single symbols; 1
    when there are none."""
    result = F(1)
    for a in params:
        result *= qpoch(a, q, k)
    return result


def frozen_psi_sweep(x, y, z, pv, q):
    e = pv.bracket_exponent
    row = []

    def psi(n):
        acc = F(0)
        for k in range(n + 1):
            binom = qbinom(n, k, q)
            if k == len(row):
                row.append(bracket_factor(k, q, e) * frozen_W_coeff(k, pv, q) * z**k)
            acc += binom * row[k] * cauchy_P(n - k, y, x, q)
        return (-1) ** n * qpow(q, -binom2(n)) * acc

    return psi


def frozen_psi_general(pt, pv, q):
    return frozen_psi_sweep(pt.x, pt.y, pt.z, pv, q)(pt.n)


def frozen_asc_phi(n, a, x, q):
    return sum((qbinom(n, k, q) * qpoch(a, q, k) * x**k for k in range(n + 1)), F(0))


def frozen_asc_psi(n, a, x, q):
    qinv = qpow(q, -1)
    acc = F(0)
    for k in range(n + 1):
        acc += qbinom(n, k, q) * qpow(q, k * (k - n)) * qpoch(a, qinv, k) * x**k
    return acc


def frozen_cao_phi3(n, a, b, c, x, y, q):
    acc = F(0)
    for k in range(n + 1):
        ck = qpoch(c, q, k)
        if ck == 0:
            raise VanishingPochhammerError(f"(c;q)_{k} = 0 for c = {c}")
        acc += qbinom(n, k, q) * qpoch(a, q, k) * qpoch(b, q, k) / ck * x**k * y ** (n - k)
    return acc


def frozen_cao_psi3(n, a, b, c, x, y, q):
    acc = F(0)
    for k in range(n + 1):
        ck = qpoch(c, q, k)
        if ck == 0:
            raise VanishingPochhammerError(f"(c;q)_{k} = 0 for c = {c}")
        acc += (
            qbinom(n, k, q) * (-1) ** k * qpow(q, binom2(k + 1) - n * k)
            * qpoch(a, q, k) * qpoch(b, q, k) / ck * x**k * y ** (n - k)
        )
    return acc


def frozen_ext_phi5(n, a, b, c, d, e, x, y, q):
    acc = F(0)
    for k in range(n + 1):
        den = qpoch(d, q, k) * qpoch(e, q, k)
        if den == 0:
            raise VanishingPochhammerError(f"(d,e;q)_{k} = 0")
        acc += qbinom(n, k, q) * frozen_qpoch_product((a, b, c), q, k) / den * x ** (n - k) * y**k
    return acc


def frozen_ext_psi5(n, a, b, c, d, e, x, y, q):
    acc = F(0)
    for k in range(n + 1):
        den = qpoch(d, q, k) * qpoch(e, q, k)
        if den == 0:
            raise VanishingPochhammerError(f"(d,e;q)_{k} = 0")
        acc += (
            qbinom(n, k, q) * (-1) ** k * qpow(q, k * (k - n))
            * frozen_qpoch_product((a, b, c), q, k) / den * x ** (n - k) * y**k
        )
    return acc


def frozen_sa_phi(n, pv, x, y, q):
    acc = F(0)
    for k in range(n + 1):
        acc += qbinom(n, k, q) * frozen_W_coeff(k, pv, q) * x**k * y ** (n - k)
    return acc


def frozen_sa_psi(n, pv, x, y, q):
    acc = F(0)
    for k in range(n + 1):
        acc += (
            qbinom(n, k, q) * frozen_W_coeff(k, pv, q) * qpow(q, binom2(k + 1) - n * k)
            * x**k * y ** (n - k)
        )
    return acc


def frozen_v_poly(n, pv, x, y, z, q):
    acc = F(0)
    for k in range(n + 1):
        acc += qbinom(n, k, q) * frozen_W_coeff(k, pv, q) * cauchy_P(n - k, x, y, q) * z**k
    return acc


def frozen_gen_hahn(n, x, y, a, b, q):
    acc = F(0)
    for k in range(n + 1):
        acc += qbinom(n, k, q) * qpoch(a, q, k) * cauchy_P(n - k, x, y, q) * b**k
    return acc


def frozen_hahn2_phi(n, a, x, y, q):
    acc = F(0)
    for k in range(n + 1):
        acc += qbinom(n, k, q) * qpoch(a, q, k) * x**k * y ** (n - k)
    return acc


def frozen_hahn2_psi(n, a, x, y, q):
    qinv = qpow(q, -1)
    acc = F(0)
    for k in range(n + 1):
        acc += qbinom(n, k, q) * qpow(q, k * (k - n)) * qpoch(a, qinv, k) * x**k * y ** (n - k)
    return acc


def frozen_trivariate_F(n, x, y, z, q):
    acc = F(0)
    for k in range(n + 1):
        acc += qbinom(n, k, q) * (-1) ** k * q ** binom2(k) * z**k * cauchy_P(n - k, y, x, q)
    return (-1) ** n * qpow(q, -binom2(n)) * acc


def frozen_W_coeff(k, pv, q):
    den = F(1)
    for b in pv.lower:
        p = qpoch(b, q, k)
        if p == 0:
            raise VanishingPochhammerError(f"lower parameter {b} gives ({b};q)_{k} = 0")
        den *= p
    return frozen_qpoch_product(pv.upper, q, k) / den


def frozen_phi_term(k, pv, q, z):
    return (
        frozen_W_coeff(k, pv, q) * z**k / qpoch(q, q, k) * bracket_factor(k, q, pv.bracket_exponent)
    )


def frozen_rphis_terminating(pv, q, z):
    n = terminating_index(pv, q)
    return sum((frozen_phi_term(k, pv, q, z) for k in range(n + 1)), F(0))


# -- the converted sums against their frozen copies ---------------------------


def _args(n, p, q):
    """name -> (converted function, frozen copy, arguments) at one point."""
    a, b, c, d, e, x, y, z = p
    sa = ParamVector((a, b), (c,))
    return {
        "asc_phi": (families.asc_phi, frozen_asc_phi, (n, a, x, q)),
        "asc_psi": (families.asc_psi, frozen_asc_psi, (n, a, x, q)),
        "cao_phi3": (families.cao_phi3, frozen_cao_phi3, (n, a, b, c, x, y, q)),
        "cao_psi3": (families.cao_psi3, frozen_cao_psi3, (n, a, b, c, x, y, q)),
        "ext_phi5": (families.ext_phi5, frozen_ext_phi5, (n, a, b, c, d, e, x, y, q)),
        "ext_psi5": (families.ext_psi5, frozen_ext_psi5, (n, a, b, c, d, e, x, y, q)),
        "sa_phi": (families.sa_phi, frozen_sa_phi, (n, sa, x, y, q)),
        "sa_psi": (families.sa_psi, frozen_sa_psi, (n, sa, x, y, q)),
        "v_poly": (families.v_poly, frozen_v_poly, (n, sa, x, y, z, q)),
        "gen_hahn": (families.gen_hahn, frozen_gen_hahn, (n, x, y, a, b, q)),
        "hahn2_phi": (families.hahn2_phi, frozen_hahn2_phi, (n, a, x, y, q)),
        "hahn2_psi": (families.hahn2_psi, frozen_hahn2_psi, (n, a, x, y, q)),
        "trivariate_F": (reductions._trivariate_F, frozen_trivariate_F, (n, x, y, z, q)),
    }


def _points(rng):
    """(a, b, c, d, e, x, y, z): generic rationals; ints with z = 1, as
    remark2 item 11 passes; and zero parameters, as remark2's readings use."""
    r = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(8)]
    return [
        tuple(r),
        (2, -3, 5, 7, -4, 3, -2, 1),
        (0, 0, 0, 0, 0, *r[5:]),
        (r[0], 0, r[2], 0, r[4], r[5], 0, r[7]),
    ]


def outcome(fn, *args):
    """The value and its type, or the type and message of what was raised."""
    try:
        value = fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return type(value), value


QS = [F(1, 2), F(-2, 3), F(3, 2)]
NS = [0, 1, 7, 20, 30]


@pytest.mark.parametrize("q", QS)
def test_every_family_sum_equals_its_frozen_loop(q):
    rng = random.Random(str(q))
    values = 0
    for p in _points(rng):
        for n in NS:
            for name, (fn, frozen, args) in _args(n, p, q).items():
                want = outcome(frozen, *args)
                assert outcome(fn, *args) == want, (name, n, p)
                values += want[0] is F
    assert values >= 200


@pytest.mark.parametrize("q", QS)
def test_psi_sweep_equals_its_frozen_loop(q):
    rng = random.Random(repr(q))
    for a, b, c, d, e, x, y, z in _points(rng):
        for pv in (ParamVector((a, b, c), (d, e)), ParamVector(), ParamVector((a,), (0,))):
            psi, frozen = families.psi_sweep(x, y, z, pv, q), frozen_psi_sweep(x, y, z, pv, q)
            for n in NS + [7, 3]:
                assert outcome(psi, n) == outcome(frozen, n), (n, pv, x, y, z)


@pytest.mark.parametrize("q", QS)
def test_rphis_terminating_equals_its_frozen_sum(q):
    rng = random.Random(str(q))
    for a, b, c, d, e, x, y, z in _points(rng):
        for m in NS:
            for pv in (ParamVector((q**-m, a, b), (c, d)), ParamVector((0, q**-m), (0,))):
                want = outcome(frozen_rphis_terminating, pv, q, z)
                assert outcome(hyper.rphis_terminating, pv, q, z) == want, (m, pv, z)


# -- the same errors with the same messages -----------------------------------


def raised(error, fn, *args):
    with pytest.raises(error) as info:
        fn(*args)
    return str(info.value)


@pytest.mark.parametrize("m, cao, ext, lower", [
    (0, "(c;q)_1 = 0 for c = 1", "(d,e;q)_1 = 0", "lower parameter 1 gives (1;q)_1 = 0"),
    (3, "(c;q)_4 = 0 for c = 8", "(d,e;q)_4 = 0", "lower parameter 8 gives (8;q)_4 = 0"),
    (7, "(c;q)_8 = 0 for c = 128", "(d,e;q)_8 = 0", "lower parameter 128 gives (128;q)_8 = 0"),
])
def test_a_vanishing_lower_parameter_raises_the_same_message(m, cao, ext, lower):
    """c = q^-m makes (c;q)_k vanish from k = m + 1 on."""
    q = F(1, 2)
    c, n = q**-m, m + 3
    a, b, e, x, y, z = F(1, 3), F(-2, 5), F(3, 7), F(2, 3), F(-5, 4), F(1, 6)
    sa = ParamVector((a, b), (c,))
    cases = [
        (families.cao_phi3, frozen_cao_phi3, (n, a, b, c, x, y, q), cao),
        (families.cao_psi3, frozen_cao_psi3, (n, a, b, c, x, y, q), cao),
        (families.ext_phi5, frozen_ext_phi5, (n, a, b, F(2), c, e, x, y, q), ext),
        (families.ext_psi5, frozen_ext_psi5, (n, a, b, F(2), c, e, x, y, q), ext),
        (families.sa_phi, frozen_sa_phi, (n, sa, x, y, q), lower),
        (families.v_poly, frozen_v_poly, (n, sa, x, y, z, q), lower),
    ]
    for fn, frozen, args, message in cases:
        assert raised(VanishingPochhammerError, frozen, *args) == message
        assert raised(VanishingPochhammerError, fn, *args) == message
    pt = FamilyPoint(x, y, z, n)
    assert raised(VanishingPochhammerError, families.psi_general, pt, sa, q) == lower


def test_an_oversized_pochhammer_raises_the_same_overflow(empty_tables):
    """(a;q)_k with a = 3^-5000 at q = 63/64 passes the 2^16-bit cap at
    k = 9, partway through the sum, while every [100 k]_q stays below it."""
    q, a, x, y = F(63, 64), F(1, 3**5000), F(2, 3), F(5, 7)
    message = "rational exceeds 65536 bits (num 71421b / den 71421b)"
    for fn, frozen, args in (
        (families.asc_phi, frozen_asc_phi, (100, a, x, q)),
        (families.hahn2_phi, frozen_hahn2_phi, (100, a, x, y, q)),
    ):
        assert raised(ScalarOverflowError, frozen, *args) == message
        empty_tables()
        assert raised(ScalarOverflowError, fn, *args) == message


# -- W_k, reduced once ----------------------------------------------------------


def coefficient_outcomes(pv, q, ks):
    """Pairs of outcomes of W_coeff and its frozen copy over ks."""
    return [(outcome(W_coeff, k, pv, q), outcome(frozen_W_coeff, k, pv, q)) for k in ks]


@pytest.mark.parametrize("q", QS)
def test_W_coeff_equals_its_frozen_product(q):
    rng = random.Random(str(q))
    values = 0
    for a, b, c, d, e, x, y, z in _points(rng):
        for pv in (
            ParamVector((a, b, c), (d, e)),
            ParamVector((a,), (0, e)),
            ParamVector(),
            ParamVector((), (d, e, F(1, 3))),
        ):
            for got, want in coefficient_outcomes(pv, q, range(13)):
                assert got == want, pv
                values += want[0] is F
    assert values >= 200


def test_W_coeff_raises_the_frozen_errors():
    """A lower parameter q^-3 vanishes at k = 4 with the same message."""
    q = F(1, 2)
    pv = ParamVector((F(1, 3), F(-2, 5)), (F(3, 7), q**-3))
    pairs = coefficient_outcomes(pv, q, range(8))
    assert all(got == want for got, want in pairs)
    assert pairs[4][0] == (VanishingPochhammerError, "lower parameter 8 gives (8;q)_4 = 0")


def test_W_coeff_raises_the_frozen_overflow(empty_tables):
    """(a;q)_k with a = 3^-5000 at q = 63/64 passes the 2^16-bit cap at
    k = 9; a lower parameter q^-10 is read first and vanishes from k = 11."""
    q, a = F(63, 64), F(1, 3**5000)
    message = "rational exceeds 65536 bits (num 71421b / den 71421b)"
    for pv in (ParamVector((F(1, 3), a), (F(2, 5),)), ParamVector((a,), (F(2, 5), q**-10))):
        want = [w for _, w in coefficient_outcomes(pv, q, range(13))]
        empty_tables()
        got = [g for g, _ in coefficient_outcomes(pv, q, range(13))]
        assert got == want, pv
        assert (ScalarOverflowError, message) in want
    assert want[-1][0] is VanishingPochhammerError


# -- which factor raises first when two fail at different k ---------------------


def precedence_cases():
    """(name, converted function, frozen copy, arguments, error type): sums in
    which two factors fail, at different k or in one term.  Rows are fetched
    at the top of each sum, so a fetch that raised, or checked an entry the
    sum never reaches, would raise the later error first."""
    big = F(1, 3**5000)  # (big;q)_k passes the 2^16-bit cap at k = 9 for q = 63/64
    q, x, y, z, b = F(63, 64), F(2, 3), F(5, 7), F(1, 6), F(-2, 5)
    tiny = F(1, 10**6)  # (tiny;tiny)_100 is past the cap, (big;tiny)_k from k = 9
    cases = [
        ("hahn2_phi", families.hahn2_phi, frozen_hahn2_phi, (100, big, x, y, tiny),
         ScalarOverflowError),
        ("asc_phi", families.asc_phi, frozen_asc_phi, (100, big, x, tiny), ScalarOverflowError),
    ]
    # c = q^-2 vanishes from k = 3 on, before the overflow; q^-8 from k = 9 on, in the
    # term of the overflow, whose lower factors are read first; q^-11 from k = 12 on, after it
    for c, error in (
        (q**-2, VanishingPochhammerError),
        (q**-8, VanishingPochhammerError),
        (q**-11, ScalarOverflowError),
    ):
        sa = ParamVector((big, b), (c,))
        cases += [
            ("cao_phi3", families.cao_phi3, frozen_cao_phi3, (14, big, b, c, x, y, q), error),
            ("cao_psi3", families.cao_psi3, frozen_cao_psi3, (14, big, b, c, x, y, q), error),
            ("ext_phi5", families.ext_phi5, frozen_ext_phi5, (14, big, b, x, c, y, x, y, q), error),
            ("sa_phi", families.sa_phi, frozen_sa_phi, (14, sa, x, y, q), error),
            ("sa_psi", families.sa_psi, frozen_sa_psi, (14, sa, x, y, q), error),
            ("v_poly", families.v_poly, frozen_v_poly, (14, sa, x, y, z, q), error),
            ("psi_general", families.psi_general, frozen_psi_general,
             (FamilyPoint(x, y, z, 14), sa, q), error),
        ]
    return cases


@pytest.mark.parametrize("budget", [None, 1 << 12])
def test_the_first_failing_factor_raises_as_in_the_frozen_loop(empty_tables, monkeypatch, budget):
    """Each case raises the frozen loop's error, type and message, from
    empty tables; with a 2^12-bit budget the store is also cleared mid-sum."""
    if budget is not None:
        monkeypatch.setattr(scalars, "_QPOCH_BUDGET_BITS", budget)
    messages = set()
    for name, fn, frozen, args, error in precedence_cases():
        empty_tables()
        want = raised(error, frozen, *args)
        empty_tables()
        assert raised(error, fn, *args) == want, name
        messages.add(want)
    assert "rational exceeds 65536 bits (num 100655b / den 100655b)" in messages
    assert any(m.startswith("(c;q)_3 = 0") for m in messages)
    assert any(m.startswith("lower parameter") and m.endswith(";q)_3 = 0") for m in messages)
