"""Polynomial families: closed forms, degree bounds, cross-family relations."""

import random
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from qhyper import cli, families, scalars
from qhyper.families import (
    FamilyPoint,
    ParamVector,
    VanishingPochhammerError,
    asc_phi,
    asc_psi,
    cao_phi3,
    cao_psi3,
    cauchy_P,
    gen_hahn,
    bracket_factor,
    hahn2_phi,
    hahn2_psi,
    psi_general,
    psi_sweep,
    sa_phi,
    sa_psi,
    v_poly,
)
from qhyper.scalars import binom2, qbinom, qpoch, qpow
from qhyper.verify import psi_gf_lhs

rat = st.fractions(min_value=-3, max_value=3, max_denominator=16)
base = st.fractions(min_value=F(1, 8), max_value=F(3, 4), max_denominator=16)


def test_cauchy_P_values():
    # P_2(x,y) = (x-y)(x-qy): at (1, 1/2, 1/3) that is (1/2)(5/6) = 5/12
    assert cauchy_P(2, F(1), F(1, 2), F(1, 3)) == F(5, 12)
    assert cauchy_P(0, F(7), F(9), F(1, 2)) == 1


@given(x=rat, q=base, n=st.integers(0, 8))
@settings(max_examples=40, deadline=None)
def test_cauchy_P_degenerate_second_argument(x, q, n):
    assert cauchy_P(n, x, F(0), q) == x**n


def test_param_vector_arity():
    pv = ParamVector((F(1), F(2)), (F(3),))
    assert (pv.r, pv.s, pv.bracket_exponent) == (2, 1, 0)
    assert ParamVector().bracket_exponent == 1


def test_psi_general_n0_is_one():
    pv = ParamVector((F(1, 2),), (F(1, 3),))
    assert psi_general(FamilyPoint(F(2), F(5), F(-3), 0), pv, F(1, 2)) == 1


def test_psi_general_n1_closed_form():
    # with empty parameter vectors the n=1 value is x - y + z
    pt = FamilyPoint(F(2), F(1), F(3), 1)
    assert psi_general(pt, ParamVector(), F(1, 2)) == 4


def test_asc_psi_n1_closed_form():
    # psi_1^{(a)}(x) = 1 + (1-a) x
    a, x, q = F(1, 3), F(2, 5), F(1, 2)
    assert asc_psi(1, a, x, q) == 1 + (1 - a) * x


@given(a=rat, x=rat, q=base, n=st.integers(0, 7))
@settings(max_examples=40, deadline=None)
def test_asc_phi_at_zero_x(a, x, q, n):
    assert asc_phi(n, a, F(0), q) == 1
    # a = 0 reduces phi to the Rogers-Szego-like binomial sum
    assert asc_phi(n, F(0), x, q) == sum(
        qbinom(n, k, q) * x**k for k in range(n + 1)
    )


def test_three_parameter_family_reduction():
    # the one-parameter psi family embeds in the three-parameter one via
    # (a,b,c,x,y) -> (1/a, 0, 0, a*x, 1); the substitution printed with
    # x unscaled does not reproduce it
    a, x, q = F(2, 7), F(3, 5), F(1, 2)
    for n in range(7):
        assert cao_psi3(n, 1 / a, F(0), F(0), a * x, F(1), q) == asc_psi(n, a, x, q)
    stated = [cao_psi3(n, 1 / a, F(0), F(0), x, F(1), q) for n in range(7)]
    direct = [asc_psi(n, a, x, q) for n in range(7)]
    assert stated != direct


def test_three_parameter_phi_reduction():
    # the phi embedding is direct: (a,b,c,x,y) -> (a, 0, 0, x, 1)
    a, x, q = F(2, 7), F(3, 5), F(1, 2)
    for n in range(7):
        assert cao_phi3(n, a, F(0), F(0), x, F(1), q) == asc_phi(n, a, x, q)


def test_vanishing_lower_parameter_raises():
    with pytest.raises(VanishingPochhammerError):
        cao_phi3(3, F(1, 2), F(1, 3), F(1), F(1), F(1), F(1, 2))
    pv = ParamVector((), (F(1),))
    with pytest.raises(VanishingPochhammerError):
        psi_general(FamilyPoint(F(1), F(2), F(3), 2), pv, F(1, 2))


def test_sa_families_require_arity():
    pv = ParamVector((F(1, 2),), (F(1, 3),))
    with pytest.raises(ValueError):
        sa_phi(2, pv, F(1), F(1), F(1, 2))
    ok = ParamVector((F(1, 2), F(1, 5)), (F(1, 3),))
    sa_phi(2, ok, F(1), F(1), F(1, 2))
    sa_psi(2, ok, F(1), F(1), F(1, 2))


def test_gen_hahn_matches_defining_sum():
    x, y, a, b, q = F(1, 2), F(1, 3), F(2, 5), F(-1, 4), F(1, 2)
    for n in range(6):
        expected = sum(
            qbinom(n, k, q) * qpoch(a, q, k) * cauchy_P(n - k, x, y, q) * b**k
            for k in range(n + 1)
        )
        assert gen_hahn(n, x, y, a, b, q) == expected


def _z_degree(values):
    """Degree of the polynomial interpolating values at consecutive integers,
    found by successive finite differencing."""
    diffs = list(values)
    order = 0
    while diffs and any(d != 0 for d in diffs):
        diffs = [b - a for a, b in zip(diffs, diffs[1:])]
        order += 1
    return order - 1


def test_psi_general_z_degree():
    # as a polynomial in z the degree is exactly n when W_n != 0
    pv = ParamVector((F(1, 3),), (F(1, 5),))
    q = F(1, 2)
    for n in range(6):
        vals = [
            psi_general(FamilyPoint(F(2), F(3), F(i), n), pv, q)
            for i in range(n + 3)
        ]
        assert _z_degree(vals) == n


def test_v_poly_n1():
    pv = ParamVector((F(1, 2),), ())
    x, y, z, q = F(2), F(1), F(3), F(1, 2)
    # V_1 = P_1(x,y) + (a;q)_1 z = (x - y) + (1 - a) z
    assert v_poly(1, pv, x, y, z, q) == (x - y) + (1 - F(1, 2)) * z


# -- Psi_n swept by n ---------------------------------------------------------


def summed_psi(pt, pv, q):
    """Psi_n from its defining sum, every term formed afresh."""
    n, x, y, z = pt.n, pt.x, pt.y, pt.z
    e = pv.bracket_exponent
    acc = F(0)
    for k in range(n + 1):
        acc += (
            qbinom(n, k, q)
            * bracket_factor(k, q, e)
            * families.W_coeff(k, pv, q)
            * cauchy_P(n - k, y, x, q)
            * z**k
        )
    return (-1) ** n * qpow(q, -binom2(n)) * acc


def outcome(fn, *args):
    """The value of fn(*args), or the type and message of what it raised."""
    try:
        return fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)


def test_psi_sweep_equals_the_defining_sum_in_any_order():
    q = F(2, 5)
    cases = [
        (F(1, 2), F(-1, 3), F(2), ParamVector((F(1, 3),), (F(1, 5),))),
        (F(3), F(2, 7), F(-5, 4), ParamVector((F(1, 3), F(-2), F(3, 4)), ())),  # r > s+1
        (F(1, 2), F(2), F(0), ParamVector((F(1, 3),), (F(-1, 5), F(2, 3)))),  # z = 0
        # bracket exponents 3 and -2, from zero parameters: (0;q)_k = 1
        (F(-1, 2), F(3, 5), F(7, 3), ParamVector((F(1, 4),), (F(1, 6), F(0), F(0)))),
        (F(-1, 2), F(3, 5), F(7, 3), ParamVector((F(1, 4), F(0), F(0), F(0)), (F(1, 6),))),
    ]
    for x, y, z, pv in cases:
        psi = psi_sweep(x, y, z, pv, q)
        for n in (5, 2, 7, 0, 7, 1, 9):
            assert psi(n) == summed_psi(FamilyPoint(x, y, z, n), pv, q)
            assert psi_general(FamilyPoint(x, y, z, n), pv, q) == psi(n)
    assert psi_sweep(F(2), F(5), F(-3), ParamVector(), q)(0) == 1


def test_psi_sweep_raises_a_vanishing_lower_parameter_at_the_same_n():
    # b = q^-3 gives (b;q)_k = 0 from k = 4 on, so Psi_n fails from n = 4 on
    q = F(1, 2)
    pv = ParamVector((F(1, 3),), (q**-3,))
    x, y, z = F(1), F(2), F(1, 4)
    psi = psi_sweep(x, y, z, pv, q)
    for n in (2, 5, 3, 4, 0, 6):
        want = outcome(summed_psi, FamilyPoint(x, y, z, n), pv, q)
        assert outcome(psi, n) == want
        assert outcome(psi_general, FamilyPoint(x, y, z, n), pv, q) == want
    assert outcome(psi, 4) == (
        VanishingPochhammerError, "lower parameter 8 gives (8;q)_4 = 0"
    )


def frozen_hahn2_psi(n, a, x, y, q):
    """hahn2_psi as it was written with a base a q^{1-k} for every k; at
    y = 1 it is asc_psi."""
    return sum(
        (qbinom(n, k, q) * qpow(q, k * (k - n)) * qpoch(a * qpow(q, 1 - k), q, k)
         * x**k * y ** (n - k) for k in range(n + 1)),
        F(0),
    )


def test_asc_and_hahn2_psi_read_one_table(empty_tables):
    rng = random.Random(12)
    for _ in range(40):
        q = F(rng.randint(1, 15), 16) * rng.choice((1, -1))
        x, y = F(rng.randint(-9, 9), rng.randint(1, 9)), F(rng.randint(-9, 9), rng.randint(1, 9))
        n = rng.randint(0, 12)
        # a = q^j makes the factor 1 - a q^{-j} of every k > j exactly 0
        for a in (F(rng.randint(-9, 9), rng.randint(1, 9)), q ** rng.randint(0, n)):
            assert asc_psi(n, a, x, q) == frozen_hahn2_psi(n, a, x, 1, q)
            assert hahn2_psi(n, a, x, y, q) == frozen_hahn2_psi(n, a, x, y, q)
    for fn, args in ((asc_psi, ()), (hahn2_psi, (F(-2, 5),))):
        empty_tables()
        fn(30, F(5, 7), F(3, 4), *args, F(2, 3))
        # the q-binomial row of n = 30, the (q;q) table it was divided from
        # and the (a;1/q) table, each whole
        tables = scalars._QPOCH_TABLES
        assert len(tables) <= 3 and all(len(values) == 31 for values, _, _ in tables.values())


# -- q <-> 1/q symmetries between independent sums ----------------------------


def inversion_cases(seed):
    """40 seeded (n, a, x, y, q) with n <= 14 and |q| != 1, q != 0."""
    rng = random.Random(seed)
    cases = []
    while len(cases) < 40:
        q = F(rng.randint(1, 12), rng.randint(1, 12)) * rng.choice((1, -1))
        if abs(q) == 1:
            continue
        a, x, y = (F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(3))
        if rng.random() < 0.25:
            a = q ** rng.randint(-3, 3)  # (a;q)_k or (a;1/q)_k vanishes from some k on
        cases.append((rng.randint(0, 14), a, x, y, q))
    return cases


def test_asc_psi_is_asc_phi_at_the_inverse_base(empty_tables):
    """psi_n^{(a)}(x|q) = phi_n^{(a)}(x|1/q), since [n k]_{1/q} = q^{k(k-n)}
    [n k]_q; each side is formed from empty tables."""
    for n, a, x, _, q in inversion_cases(21):
        empty_tables()
        left = asc_psi(n, a, x, q)
        empty_tables()
        assert left == asc_phi(n, a, x, 1 / q), (n, a, x, q)


def test_hahn2_psi_is_hahn2_phi_at_the_inverse_base(empty_tables):
    for n, a, x, y, q in inversion_cases(22):
        empty_tables()
        left = hahn2_psi(n, a, x, y, q)
        empty_tables()
        assert left == hahn2_phi(n, a, x, y, 1 / q), (n, a, x, y, q)


def test_cauchy_P_at_the_inverse_base_swaps_its_arguments(empty_tables):
    """P_n(x, y; 1/q) = (-1)^n q^{-binom(n,2)} P_n(y, x; q)."""
    for n, _, x, y, q in inversion_cases(23):
        empty_tables()
        left = cauchy_P(n, x, y, 1 / q)
        empty_tables()
        assert left == (-1) ** n * qpow(q, -binom2(n)) * cauchy_P(n, y, x, q), (n, x, y, q)


def test_psi_gf_lhs_forms_each_W_once(monkeypatch):
    """One sweep makes one W row and reads each W_k from it once, in order;
    under the bit bound the row steps and never forms W_k afresh."""
    rows, reads, fresh = [], [], []
    W_row, W_coeff = families._W_row, families.W_coeff

    def counted_row(pv, q):
        rows.append((pv, q))
        row = W_row(pv, q)

        def read(k):
            reads.append(k)
            return row(k)

        return read

    def counted(k, pv, q):
        fresh.append(k)
        return W_coeff(k, pv, q)

    monkeypatch.setattr(families, "_W_row", counted_row)
    monkeypatch.setattr(families, "W_coeff", counted)
    pv = ParamVector((F(1, 3), F(-2, 5)), (F(3, 7),))
    psi_gf_lhs(pv, F(1, 2), F(-1, 3), F(2), F(1, 3), 24)
    assert len(rows) == 1
    assert reads == list(range(25))
    assert fresh == []


def W_outcome(fn, *args):
    """The value with its type and lowest terms, or the type and message of
    what was raised."""
    try:
        value = fn(*args)
    except ArithmeticError as exc:
        return type(exc), str(exc)
    return type(value), value.numerator, value.denominator


def W_row_cases():
    """Seeded (pv, q): q of both signs and |q| > 1, int and zero parameters,
    and lower parameters q^-m that vanish from k = m + 1 on."""
    rng = random.Random(32)
    cases = []
    for q in (F(1, 2), F(-2, 3), F(3, 2), F(-5, 3), 3, -2, F(7, 9)):
        for r, s in ((0, 0), (1, 0), (0, 2), (2, 1), (3, 2), (1, 3)):
            upper = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(r)]
            lower = [F(rng.randint(-9, 9), rng.randint(1, 9)) for _ in range(s)]
            cases.append((ParamVector(upper, lower), q))
        cases.append((ParamVector((2, 0, F(1, 3)), (-3, 5)), q))
        # q^-9 vanishes from k = 10, q^-4 from k = 5: the second raises first
        cases.append((ParamVector((F(1, 3), F(-2, 5)), (F(q) ** -9, F(q) ** -4, F(2, 7))), q))
        cases.append((ParamVector((F(q) ** -6,), (F(3, 7),)), q))
    return cases


def test_W_row_equals_W_coeff_at_every_k():
    """Read in order and out of order, the row gives W_coeff's value, or its
    error type and message, at every k <= 60."""
    rng = random.Random(7)
    errors = values = 0
    for pv, q in W_row_cases():
        want = [W_outcome(families.W_coeff, k, pv, q) for k in range(61)]
        row = families._W_row(pv, q)
        assert [W_outcome(row, k) for k in range(61)] == want, (pv, q)
        ks = list(range(61))
        rng.shuffle(ks)
        row = families._W_row(pv, q)
        assert [W_outcome(row, k) for k in ks] == [want[k] for k in ks], (pv, q)
        errors += sum(w[0] is VanishingPochhammerError for w in want)
        values += sum(w[0] is F for w in want)
    assert errors > 300 and values > 3000


@pytest.mark.parametrize("a, q, switch, overflow", [
    (F(1, 3**5000), F(63, 64), 9, 9),  # the bound and (a;q)_k pass the cap at one k
    (F(1, 2**7276), F(1, 2), 9, 10),  # the bound passes it first: W_9 is read afresh
])
def test_W_row_reads_W_coeff_past_its_bound(monkeypatch, empty_tables, a, q, switch, overflow):
    """The row steps while no (c;q)_k can pass the cap and reads W_coeff from
    the first k past the bound, with equal values across the switch and the
    same ScalarOverflowError message from the k where (a;q)_k passes it."""
    fresh, W_coeff = [], families.W_coeff

    def counted(k, pv, q):
        fresh.append(k)
        return W_coeff(k, pv, q)

    pv = ParamVector((a, F(-2, 5)), (F(2, 7),))
    want = [W_outcome(W_coeff, k, pv, q) for k in range(14)]
    monkeypatch.setattr(families, "W_coeff", counted)
    empty_tables()
    row = families._W_row(pv, q)
    assert [W_outcome(row, k) for k in range(14)] == want
    assert fresh == list(range(switch, 14))
    assert [w[0] for w in want].index(scalars.ScalarOverflowError) == overflow
    assert scalars._prefix_bits(switch - 1, 1, a, q) <= scalars.MAX_SCALAR_BITS
    assert scalars._prefix_bits(switch, 1, a, q) > scalars.MAX_SCALAR_BITS


@pytest.mark.parametrize("argv", [
    ["eval", "Psi", "--n", "5"],
    ["expand", "gf-psi-lhs", "--order", "6"],
])
def test_cli_reports_a_vanishing_lower_parameter(capsys, argv):
    point = ["--a", "1/3", "--b", "8", "--x", "1", "--y", "2", "--z", "1/4", "--q", "1/2"]
    assert cli.main(argv + point) == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "error: lower parameter 8 gives (8;q)_4 = 0\n"
