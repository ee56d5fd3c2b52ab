"""Identity-checking engine: samplers, formal and numeric comparison, and the
catalog of all verified identities as executable suites.

Formal suites compare truncated series coefficientwise over exact rationals,
exact suites compare closed forms at finitely many points, and numeric suites
compare balls (`scalars.Ball`: an integer midpoint and radius on the grid
2^-p, p = epsilon_bits + 64) with a geometric truncation rule.  Every suite
returns plain (id, deviation, scale, notes) rows, and one rule, applied in
`run_suite` alone, turns a row into a verdict: the row passes when
deviation <= tol * scale, with tol = 0 in formal and exact mode (the deviation
must vanish) and tol = min(2^-40, 2^-(B - 16)) at B = epsilon_bits in numeric
mode (`RunConfig.numeric_tol`).  In formal and exact mode the deviation is the
exact |lhs - rhs| and scale is 1; in numeric mode the deviation is the upper
bound |m_l - m_r| + r_l + r_r of |lhs - rhs| over the two balls and scale =
max(1, |m_l| - r_l), the lower bound of |lhs|, both dyadic rationals.

A numeric trial reads its primitives through one `_Trial(q, eps)`: the
(c;q)_inf values, their quotients and the numeric rphis values, each formed
once per trial and shared by the cross-checks, and the outer sums
(`truncated_sum`), which run the kernel of `rphis_ball`, `hyper._sum_ball`,
without its ratio bound, and raise the same `DivergentSeriesError`, which a
trial reports as errored.  An outer term is a tuple of its exact factors
(psi_n^{(a)} from its recurrence, `qpoch`, `psi_sweep`, q-powers, a divisor
as `qpow(x, -1)`), ending in the one ball it meets, if any; the arguments
that stay fixed over a sum are formed once, before it.  The kernel multiplies
the factors' numerators and denominators as ints and rounds the term into its
ball once, with no gcd.  The rphis coefficients c_k, the terms of rphis at
z = 1, come from one `phi_row` per parameter vector and trial, each stepped
from the last by the exact term ratio, and each term c_k z^k goes into its
ball straight from its unreduced integer quotient.  A ball's radius covers
every rounding, the tails of the (c;q)_inf products and the tails of the
rphis sums, so each ball holds the true value of its part.  It does not
cover the truncation of the outer sums, whose terms decay and then regrow
for the asymptotic series: those keep the two-small-terms rule.  A numeric pass therefore says that the
upper bound on |lhs - rhs| is at most tol times the lower bound of the scale,
up to that outer truncation: B - 16 bits relative for B >= 56, and 40 bits
below that.  Every exact value is checked against the fixed `MAX_SCALAR_BITS`;
a ball carries about p bits plus those of its magnitude and needs no cap.

Several of the bilinear series (the ones pairing the degree-lowering
polynomial family with the one-parameter psi family) are asymptotic rather
than classically convergent: their terms first decay below any threshold and
eventually regrow.  The samplers for those suites draw deliberately small
parameter magnitudes so the decaying regime reaches the truncation threshold
with room to spare; the comparison then lands far inside the tolerance.

Samples are drawn by rejection under one rule, `vanishes`: (c;q)_n and
(c;q)_inf are 0 exactly when c = q^{-m}, which the one walk
`scalars.vanishing_index` decides.  Each suite declares to `avoiding` the c
of every factor its formula divides by, as the formula writes it (q/x,
1/(v x t), alpha q for (alpha q;q)_inf, q y0/x0 for theta-eigen's grid),
and any other condition it needs (Theorem 3's u != v); only the |c| < 1
bands of the Cao and q-Chu-Vandermonde samplers are not factors.  No
sampler draws a 0, and each band keeps its sums convergent, so no suite
tests for either.
"""

from __future__ import annotations

import functools
import hashlib
import random
from dataclasses import dataclass
from fractions import Fraction
from itertools import count
from typing import Callable

from . import reductions
from .families import (
    ParamVector,
    asc_phi,
    cao_phi3,
    cao_psi3,
    cauchy_P,
    psi_sweep,
    v_poly,
)
from .hyper import (
    TAIL_KMIN,
    DivergentSeriesError,
    _sum_ball,
    phi_row,
    rphis_ball,
    rphis_series_in_t,
    rphis_terminating,
)
from .operators import (
    CauchyPoly,
    evaluate_series,
    op_apply_series,
    shifted_cauchy_series,
    theta_basis,
    theta_pointwise_power,
)
from .report import IdentityReport, sort_reports
from .scalars import (
    Ball,
    Rat,
    ScalarOverflowError,
    binom2,
    max_deviation,
    qpoch,
    qpoch_inf_ball,
    qpoch_shift,
    qpow,
    vanishing_index,
)
from .series import (
    TruncSeries,
    euler_inverse_series,
    euler_product_series,
    max_abs_deviation,
    q_exp_series,
    qpoch_poly_series,
)

@dataclass
class RunConfig:
    suite: str = "all"
    trials: int = 10
    order: int = 12
    epsilon_bits: int = 80
    seed: int = 42
    report_path: str | None = None
    format: str = "json"

    def __post_init__(self):
        for name in ("trials", "order", "epsilon_bits", "seed"):
            value = getattr(self, name)
            if isinstance(value, bool) or not isinstance(value, int):
                raise TypeError(f"{name} must be an integer, got {value!r}")
        for name in ("suite", "format", "report_path"):
            value = getattr(self, name)
            if not (isinstance(value, str) or name == "report_path" and value is None):
                raise TypeError(f"{name} must be a string, got {value!r}")
        if not 1 <= self.order <= 64:
            raise ValueError("order must be in 1..64")
        if not 1 <= self.trials <= 10_000:
            raise ValueError("trials must be in 1..10000")
        if not 1 <= self.epsilon_bits <= 1024:
            raise ValueError("epsilon_bits must be in 1..1024")
        if self.format not in ("json", "tsv", "human"):
            raise ValueError(f"unknown format {self.format!r}")

    @property
    def eps(self) -> Fraction:
        return Fraction(1, 1 << self.epsilon_bits)

    @property
    def numeric_tol(self) -> Fraction:
        """min(2^-40, 2^-(B - 16)) at B = epsilon_bits: a true row lands within
        about 8 bits of 2^-B, so 16 bits of slack keep it inside."""
        return Fraction(1, 1 << max(40, self.epsilon_bits - 16))


# ---------------------------------------------------------------------------
# sampling


def derive_seed(master: int, suite_id: str, trial: int) -> int:
    digest = hashlib.sha256(f"{master}|{suite_id}|{trial}".encode()).digest()
    return int.from_bytes(digest[:8], "big")


def rand_rat(rng: random.Random, max_abs: int = 64) -> Fraction:
    """Signed rational with numerator and denominator bounded by max_abs."""
    num = rng.randint(1, max_abs)
    den = rng.randint(1, max_abs)
    sign = rng.choice((1, -1))
    return Fraction(sign * num, den)


def rand_in(rng: random.Random, lo: Fraction, hi: Fraction, signed=False) -> Fraction:
    """Rational with |value| in [lo, hi], numerator/denominator <= 64."""
    # narrow bands like [1/64, 1/40] hit only ~0.6% of num/den pairs, so
    # give the rejection loop a generous budget, and test lo <= num/den <= hi
    # on integer cross-products: a Fraction is built only for a hit.  Each of
    # num and den is drawn as randint(1, 64) draws it, 7 random bits redrawn
    # while they reach 64, plus 1, so the values and the state of rng are
    # those of randint
    lo_num, lo_den, hi_num, hi_den = lo.numerator, lo.denominator, hi.numerator, hi.denominator
    getrandbits = rng.getrandbits
    for _ in range(20000):
        num = getrandbits(7)
        while num >= 64:
            num = getrandbits(7)
        den = getrandbits(7)
        while den >= 64:
            den = getrandbits(7)
        num, den = num + 1, den + 1
        if lo_num * den <= num * lo_den and num * hi_den <= hi_num * den:
            v = Fraction(num, den)
            if signed and rng.random() < 0.5:
                v = -v
            return v
    raise RuntimeError("sampler failed to hit the requested range")


def rand_q(rng: random.Random) -> Fraction:
    """Base q in (1/4, 3/4), away from 0 and 1."""
    return rand_in(rng, Fraction(1, 4), Fraction(3, 4))


def rand_q_asym(rng: random.Random) -> Fraction:
    """Base for asymptotic suites: moderate, so q^{-binom(n,2)} regrowth is
    slow relative to the forced geometric decay."""
    return rand_in(rng, Fraction(2, 5), Fraction(2, 3))


#: Magnitude band for the parameters driving asymptotic-series decay.
SMALL_LO = Fraction(1, 64)
SMALL_HI = Fraction(1, 40)


def rand_small(rng: random.Random, signed=False) -> Fraction:
    return rand_in(rng, SMALL_LO, SMALL_HI, signed=signed)


def rand_tiny(rng: random.Random, signed=False) -> Fraction:
    """Product of two small draws: used for the variable t of the asymptotic
    bilinear sums, whose dip depth grows with the total magnitude budget."""
    v = rand_small(rng) * rand_small(rng)
    if signed and rng.random() < 0.5:
        v = -v
    return v


VANISH_LIMIT = 120  # the largest m of c = q^{-m} that `vanishes` tests


def vanishes(c: Fraction, q: Fraction) -> bool:
    """True when c = q^{-m}, 0 <= m <= VANISH_LIMIT, where (c;q)_n = 0 for n > m
    and (c;q)_inf = 0 (`scalars.vanishing_index`)."""
    return vanishing_index(c, q, VANISH_LIMIT) is not None


def avoiding(factors: Callable[..., tuple], keep: Callable[..., bool] = lambda **_: True):
    """`resample`'s ok for a formula that divides by (c;q)_n or (c;q)_inf for each
    c of factors(**sample) and needs keep(**sample); a test reads ok.factors."""

    def ok(sample: dict) -> bool:
        return not any(vanishes(c, sample["q"]) for c in factors(**sample)) and keep(**sample)

    ok.factors = factors
    return ok


def rand_pv(rng: random.Random, r: int, s: int) -> ParamVector:
    upper = tuple(rand_rat(rng, 8) for _ in range(r))
    lower = []
    while len(lower) < s:
        b = rand_rat(rng, 8)
        if abs(b) == 1:
            continue
        if abs(b) > 1:
            b = 1 / b  # keep |b| < 1 so (b;q)_k cannot vanish
        lower.append(b)
    return ParamVector(upper, tuple(lower))


def sample_reduction_params(rng: random.Random) -> tuple[dict, Rat]:
    """Generic rational parameters for the reduction checks, whose lower
    parameters are c, d and e.  As |c| <= 64 and q is in [1/4, 3/4], c = q^{-m}
    needs den(q)^m <= 64, so m <= 6, below N_MAX and VANISH_LIMIT alike."""
    q = rand_q(rng)
    ok = avoiding(lambda c, d, e, **_: (c, d, e), keep=lambda x, y, **_: x != y)
    sample = resample(rng, lambda: {"q": q, **{k: rand_rat(rng) for k in "abcdexyz"}}, ok)
    del sample["q"]
    return sample, q


def resample(rng: random.Random, draw: Callable[[], dict], ok: Callable[[dict], bool]) -> dict:
    for _ in range(100):
        sample = draw()
        if ok(sample):
            return sample
    raise RuntimeError("100 consecutive sample rejections")


# ---------------------------------------------------------------------------
# numeric summation


def truncated_sum(term_fn, eps: Fraction, kmin: int = TAIL_KMIN) -> Ball:
    """Sum term_fn(k), k = 0, 1, ..., as a ball at `ball_precision(eps)` until
    two consecutive terms drop below eps: `hyper._sum_ball` over
    map(term_fn, count()) without a ratio bound, under the name and the
    `term_fn` argument that `bench/tracer.py` times and counts.

    A term is a ball of that precision, an exact rational, or a tuple of
    exact factors that may end in such a ball, rounded once.  Raises
    DivergentSeriesError when the terms regrow hopelessly or the term budget
    runs out; used for the outer sums of the numeric suites.  The ball holds
    the partial sum; the terms not summed are not in its radius.
    """
    return _sum_ball(map(term_fn, count()), eps, kmin)


# ---------------------------------------------------------------------------
# suite infrastructure


@dataclass
class Suite:
    mode: str  # formal | exact | numeric
    runner: Callable[[random.Random, RunConfig], list[tuple[str, Fraction, Fraction, str]]]
    # runner returns (identity_id, deviation, scale, notes) rows


SUITES: dict[str, Suite] = {}


def suite(id: str, mode: str):
    def register(fn):
        SUITES[id] = Suite(mode, fn)
        return fn

    return register


def _formal_result(id: str, lhs: TruncSeries, rhs: TruncSeries, notes: str = ""):
    dev = max_abs_deviation(lhs, rhs)
    return (id, dev, Fraction(1), notes)


def _scalar_ratio(x0: Rat, y0: Rat, q: Rat, order: int) -> TruncSeries:
    """(x0 t;q)_inf / (y0 t;q)_inf as a scalar series."""
    return euler_product_series(x0, q, order) * euler_inverse_series(y0, q, order)


# ---------------------------------------------------------------------------
# formal suites


@suite("shift-identity", "exact")
def run_shift_identity(rng, config):
    a, q = rand_rat(rng), rand_q(rng)
    dev = max_deviation(qpoch_shift(a, q, n) for n in range(21))
    return [("shift-identity", dev, Fraction(1), f"a={a} q={q} n<=20")]


@suite("euler-pair", "formal")
def run_euler_pair(rng, config):
    q = rand_q(rng)
    c = rand_rat(rng)
    N = config.order
    prod = euler_product_series(c, q, N) * euler_inverse_series(c, q, N)
    return [_formal_result("euler-pair", prod, TruncSeries.one(N), f"c={c} q={q}")]


@suite("q-binomial-theorem", "formal")
def run_qbt(rng, config):
    q = rand_q(rng)
    a = rand_rat(rng)
    N = config.order
    lhs = rphis_series_in_t(ParamVector((a,), ()), q, Fraction(1), N)
    rhs = _scalar_ratio(a, Fraction(1), q, N)
    return [_formal_result("q-binomial-theorem", lhs, rhs, f"a={a} q={q}")]


@suite("cauchy-gf", "formal")
def run_cauchy_gf(rng, config):
    q = rand_q(rng)
    x, y = rand_rat(rng), rand_rat(rng)
    N = config.order
    lhs = q_exp_series(lambda n: cauchy_P(n, x, y, q), q, N)
    rhs = _scalar_ratio(y, x, q, N)
    return [_formal_result("cauchy-gf", lhs, rhs, f"x={x} y={y} q={q}")]


@suite("cauchy-sa-gf", "formal")
def run_cauchy_sa_gf(rng, config):
    q, x, y, lam = rand_q(rng), rand_rat(rng), rand_rat(rng), rand_rat(rng)
    N = config.order
    lhs = q_exp_series(lambda n: cauchy_P(n, x, y, q) * qpoch(lam, q, n), q, N)
    rhs = rphis_series_in_t(ParamVector((lam, y / x), (Fraction(0),)), q, x, N)
    return [_formal_result("cauchy-sa-gf", lhs, rhs, f"x={x} y={y} lam={lam} q={q}")]


def _cao_sample(rng):
    def draw():
        return {
            "q": rand_q(rng),
            "a": rand_rat(rng, 8),
            "b": rand_rat(rng, 8),
            "c": rand_rat(rng, 8),
            "x": rand_rat(rng, 8),
            "y": rand_rat(rng, 8),
        }

    return resample(rng, draw, lambda d: abs(d["c"]) < 1)


def _cao_gf_suite(id: str, family, weight, factor):
    """The generating function of a three-parameter Cao family: lhs weights
    family(n)/(q;q)_n by weight(n, q), rhs is factor(y t) times a 2-phi-1."""

    @suite(id, "formal")
    def run(rng, config):
        s = _cao_sample(rng)
        q, N = s["q"], config.order
        a, b, c, x, y = s["a"], s["b"], s["c"], s["x"], s["y"]
        lhs = q_exp_series(lambda n: family(n, a, b, c, x, y, q) * weight(n, q), q, N)
        rhs = factor(y, q, N) * rphis_series_in_t(ParamVector((a, b), (c,)), q, x, N)
        return [
            _formal_result(
                id,
                lhs,
                rhs,
                "orientation forced by the family definition: product factor in y,"
                " series argument in x",
            )
        ]

    return run


run_cao_gf_phi = _cao_gf_suite("cao-gf-phi", cao_phi3, lambda n, q: 1, euler_inverse_series)
run_cao_gf_psi = _cao_gf_suite(
    "cao-gf-psi", cao_psi3, lambda n, q: (-1) ** n * q ** binom2(n), euler_product_series
)


@suite("v-gf", "formal")
def run_v_gf(rng, config):
    r = rng.randint(1, 3)
    pv = rand_pv(rng, r, r - 1)
    q = rand_q(rng)
    x, y, z = rand_rat(rng, 8), rand_rat(rng, 8), rand_rat(rng, 8)
    N = config.order
    lhs = q_exp_series(lambda n: v_poly(n, pv, x, y, z, q), q, N)
    rhs = psi_gf_rhs(pv, y, x, z, q, N)
    return [_formal_result("v-gf", lhs, rhs, f"r={r} u={r - 1}")]


def psi_gf_lhs(pv, x, y, z, q, N) -> TruncSeries:
    """sum_n Psi_n(x,y,z) (-1)^n q^{binom(n,2)} t^n / (q;q)_n to order N."""
    psi = psi_sweep(x, y, z, pv, q)
    return q_exp_series(lambda n: psi(n) * (-1) ** n * q ** binom2(n), q, N)


def psi_gf_rhs(pv, x, y, z, q, N) -> TruncSeries:
    """(x t;q)_inf / (y t;q)_inf times the r-phi-s series in z t, to order N."""
    return _scalar_ratio(x, y, q, N) * rphis_series_in_t(pv, q, z, N)


@suite("gf-psi", "formal")
def run_gf_psi(rng, config):
    r, s_ = rng.randint(0, 3), rng.randint(0, 3)
    pv = rand_pv(rng, r, s_)
    q = rand_q(rng)
    x, y, z = rand_rat(rng, 8), rand_rat(rng, 8), rand_rat(rng, 8)
    N = config.order
    lhs = psi_gf_lhs(pv, x, y, z, q, N)
    rhs = psi_gf_rhs(pv, x, y, z, q, N)
    return [_formal_result("gf-psi", lhs, rhs, f"r={r} s={s_}")]


def _operator_sample(rng):
    r, s_ = rng.randint(0, 3), rng.randint(0, 3)
    return {
        "pv": rand_pv(rng, r, s_),
        "q": rand_q(rng),
        "x0": rand_rat(rng, 8),
        "y0": rand_rat(rng, 8),
        "z": rand_rat(rng, 8),
    }


@suite("lemma1-a", "exact")
def run_lemma1_a(rng, config):
    s = _operator_sample(rng)
    pv, q, x0, y0, z = s["pv"], s["q"], s["x0"], s["y0"], s["z"]
    psi = psi_sweep(x0, y0, z, pv, q)
    basis = TruncSeries(CauchyPoly.basis(n, (-1) ** n * qpow(q, -binom2(n))) for n in range(9))
    applied = op_apply_series(pv, z, basis, q)
    dev = max_deviation((applied.coeffs[n].evaluate(x0, y0, q), psi(n)) for n in range(9))
    return [("lemma1-a", dev, Fraction(1), f"r={pv.r} s={pv.s} n<=8")]


@suite("lemma1-b", "formal")
def run_lemma1_b(rng, config):
    s = _operator_sample(rng)
    pv, q, x0, y0, z = s["pv"], s["q"], s["x0"], s["y0"], s["z"]
    N = config.order
    lhs = evaluate_series(op_apply_series(pv, z, shifted_cauchy_series(0, N, q), q), x0, y0, q)
    rhs = psi_gf_rhs(pv, x0, y0, z, q, N)
    return [_formal_result("lemma1-b", lhs, rhs, f"r={pv.r} s={pv.s}")]


def _extended_gf_rhs(pv, x0, y0, z, q, N) -> Callable[[int], TruncSeries]:
    """k -> t^k times the extended-generating-function right side.

    Its j-term (y0 t;q)_j / (x0 t;q)_j rphis(z q^j t) does not depend on k, so
    the returned function keeps each one, formed where a sum first reaches it.
    """
    ratio = _scalar_ratio(x0, y0, q, N)
    terms: list[TruncSeries] = []

    def rhs(k):
        acc = TruncSeries.constant(Fraction(0), N)
        qk = qpow(q, -k)
        for j in range(k + 1):
            coeff = qpoch(qk, q, j) * q**j / qpoch(q, q, j)
            if j == len(terms):
                terms.append(
                    qpoch_poly_series(y0, q, j, N)
                    * qpoch_poly_series(x0, q, j, N).inverse()
                    * rphis_series_in_t(pv, q, z * q**j, N)
                )
            acc = acc + terms[j].scale(coeff)
        return ratio * acc

    return rhs


@suite("lemma1-c", "formal")
def run_lemma1_c(rng, config):
    s = _operator_sample(rng)
    pv, q, x0, y0, z = s["pv"], s["q"], s["x0"], s["y0"], s["z"]
    N = config.order
    rhs = _extended_gf_rhs(pv, x0, y0, z, q, N)
    # the four shifted series span P_0..P_{N+3}: apply the operator to each
    # P_m once, evaluate it, and read every series through these images by
    # linearity
    basis = TruncSeries([CauchyPoly.basis(m) for m in range(N + 4)])
    image = evaluate_series(op_apply_series(pv, z, basis, q), x0, y0, q).coeffs
    out = []
    for k in range(4):
        lhs = TruncSeries(
            [
                sum((c * image[m] for m, c in f.coeffs.items()), Fraction(0))
                for f in shifted_cauchy_series(k, N, q).coeffs
            ]
        ).shift(k)
        out.append(_formal_result(f"lemma1-c:k{k}", lhs, rhs(k), f"r={pv.r} s={pv.s}"))
    return out


@suite("thm1-extended-gf", "formal")
def run_thm1(rng, config):
    s = _operator_sample(rng)
    pv, q, x0, y0, z = s["pv"], s["q"], s["x0"], s["y0"], s["z"]
    N = config.order
    psi = psi_sweep(x0, y0, z, pv, q)
    rhs = _extended_gf_rhs(pv, x0, y0, z, q, N)
    out = []
    for k in range(4):
        # t^k times sum_j Psi_{j+k} (-1)^{j+k} q^{binom(j+k,2)} t^j / (q;q)_j,
        # whose terms past t^N are never computed
        lhs = TruncSeries.constant(Fraction(0), N)
        if k <= N:
            tail = q_exp_series(
                lambda j: psi(j + k)
                * (-1) ** (j + k)
                * q ** binom2(j + k),
                q,
                N - k,
            )
            lhs = TruncSeries(lhs.coeffs[:k] + tail.coeffs)
        out.append(
            _formal_result(f"thm1-extended-gf:k{k}", lhs, rhs(k), f"r={pv.r} s={pv.s}")
        )
    return out


@suite("theta-eigen", "formal")
def run_theta_eigen(rng, config):
    def draw():
        return {"q": rand_q(rng), "x0": rand_rat(rng, 8), "y0": rand_rat(rng, 8)}

    # the pointwise divided difference divides by x0 q^{-1-i} - y0 q^j =
    # x0 q^{-1-i} (1 - (q y0/x0) q^{i+j}), i, j < 5: one is 0 exactly when
    # (q y0/x0;q)_9 is.  `vanishes` rejects up to m = 120, but y0/x0 =
    # q^{-m-1} needs den(q)^{m+1} <= 64, so m >= 9 never occurs
    s = resample(rng, draw, avoiding(lambda q, x0, y0, **_: (q * y0 / x0,)))
    q, x0, y0 = s["q"], s["x0"], s["y0"]
    N = config.order
    F = shifted_cauchy_series(0, N, q)
    out = []
    for k in range(4):
        applied = TruncSeries([theta_basis(c, k, q) for c in F.coeffs])
        lhs = evaluate_series(applied, x0, y0, q)
        rhs = evaluate_series(F, x0, y0, q).shift(k).scale(Fraction((-1) ** k))
        out.append(_formal_result(f"theta-eigen:k{k}", lhs, rhs, ""))
    # independent oracle: the nested pointwise divided difference must agree
    # with the closed-form basis action
    dev = max_deviation(
        (
            theta_pointwise_power(lambda x, y, n=n: cauchy_P(n, y, x, q), k, q)(x0, y0),
            theta_basis(CauchyPoly.basis(n), k, q).evaluate(x0, y0, q),
        )
        for n in range(5)
        for k in range(4)
    )
    out.append(("theta-eigen:pointwise", dev, Fraction(1), "n<=4 k<=3"))
    return out


@suite("lemma2-phi", "formal")
def run_lemma2_phi(rng, config):
    q, alpha, lam, x = rand_q(rng), rand_rat(rng, 8), rand_rat(rng, 8), rand_rat(rng, 8)
    N = config.order
    lhs = q_exp_series(lambda n: asc_phi(n, alpha, x, q) * qpoch(lam, q, n), q, N)
    # (lam t;q)_inf/(t;q)_inf times the 2-phi-1 whose lower parameter is the
    # t-dependent lam*t; each series term carries its own polynomial inverse.
    phi = TruncSeries.constant(Fraction(0), N)
    for k in range(N + 1):
        coeff = qpoch(lam, q, k) * qpoch(alpha, q, k) * x**k / qpoch(q, q, k)
        phi = phi + qpoch_poly_series(lam, q, k, N).inverse().scale(coeff).shift(k)
    rhs = _scalar_ratio(lam, Fraction(1), q, N) * phi
    return [_formal_result("lemma2-phi", lhs, rhs, f"alpha={alpha} lam={lam} x={x}")]


# ---------------------------------------------------------------------------
# exact suites: q-Chu-Vandermonde


def _chu_sample(rng):
    def draw():
        return {"q": rand_q(rng), "a": rand_rat(rng, 8), "c": rand_rat(rng, 8)}

    s = resample(rng, draw, lambda d: abs(d["c"]) < 1)
    return s["q"], s["a"], s["c"]


@suite("chu-vandermonde-II6", "exact")
def run_chu_ii6(rng, config):
    q, a, c = _chu_sample(rng)
    dev = max_deviation(
        (
            rphis_terminating(ParamVector((qpow(q, -n), a), (c,)), q, q),
            qpoch(c / a, q, n) * a**n / qpoch(c, q, n),
        )
        for n in range(21)
    )
    return [("chu-vandermonde-II6", dev, Fraction(1), f"a={a} c={c} n<=20")]


@suite("chu-vandermonde-II7", "exact")
def run_chu_ii7(rng, config):
    q, a, c = _chu_sample(rng)
    dev = max_deviation(
        (
            rphis_terminating(ParamVector((qpow(q, -n), a), (c,)), q, c * q**n / a),
            qpoch(c / a, q, n) / qpoch(c, q, n),
        )
        for n in range(21)
    )
    return [("chu-vandermonde-II7", dev, Fraction(1), f"a={a} c={c} n<=20")]


# ---------------------------------------------------------------------------
# numeric suites


def _numeric_result(id: str, lhs: Ball, rhs: Ball, notes: str = ""):
    """The row of two balls: the upper bound of |lhs - rhs| over them, and
    the scale max(1, lower bound of |lhs|)."""
    return (id, lhs.gap(rhs), max(Fraction(1), lhs.abs_lower()), notes)


class _Trial:
    """The numeric primitives of one trial at base q and threshold eps.

    Each member returns a `Ball` at precision p = `ball_precision(eps)`, that
    is epsilon_bits + 64.  pinf(c) is (c;q)_inf from `qpoch_inf_ball`,
    quotient(top, bottom) the product of pinf over the tuple top divided by
    the same over bottom (top walked first), phi(pv, w) the rphis of pv at w
    from `rphis_ball`; each is memoised, so a cross-check reads what its
    trial already has, and the ball of each holds its true value.  The
    suites sum one pv at a new w for each n (Theorem 3's
    rphis(pv; x z t q^{1-n}), and the same shape in Theorems 2 and 4), so
    phi hands `rphis_ball` one coefficient row per pv, `phi_row(pv, q, 1)`,
    which memoises itself: each c_k is formed where a sum first reaches it,
    and once per trial.  psi(a, x) is the memoised `_asc_psi_sweep` of
    (a, x), so the sums of one trial share each psi_n.  sum(term, kmin) is
    `truncated_sum` at eps, the same kernel without a ratio bound: its ball
    holds the partial sum, not the dropped terms; a term may be a tuple of
    exact factors that ends in a ball (`_sum_ball`).

    The primitives are looked up in this module when called, so a wrapper
    installed on it sees every call; the memos close over locals, not over
    the trial, so the values go when the trial does.
    """

    def __init__(self, q: Fraction, eps: Fraction):
        self.q, self.eps = q, eps
        pinf = self.pinf = functools.cache(lambda c: qpoch_inf_ball(c, q, eps))

        @functools.cache
        def quotient(top, bottom):
            value = pinf(top[0])
            for c in top[1:]:
                value = value * pinf(c)
            for c in bottom:
                value = value / pinf(c)
            return value

        self.quotient = quotient
        row = functools.cache(lambda pv: phi_row(pv, q, 1))
        self.phi = functools.cache(lambda pv, w: rphis_ball(pv, q, w, eps, row(pv)))
        self.psi = functools.cache(lambda a, x: _asc_psi_sweep(a, x, q))

    def sum(self, term, kmin: int = TAIL_KMIN) -> Ball:
        return truncated_sum(term, self.eps, kmin)


def _asc_psi_sweep(a: Rat, x: Rat, q: Rat) -> Callable[[int], Rat]:
    """n -> psi_n^{(a)}(x|q), the Fraction `families.asc_psi` gives.

    The generating function (a x t;q)_inf / ((t;q)_inf (x t;q)_inf) of
    phi_n^{(a)}(x|q), read at q^{-1} (Koekoek-Lesky-Swarttouw), gives
    psi_0 = 1, psi_1 = 1 + x - a x and psi_n = (1 + x - a x q^{1-n})
    psi_{n-1} - x (1 - q^{1-n}) psi_{n-2}.  The returned function keeps the
    psi_n it has formed.
    """
    one_x, ax = 1 + x, a * x
    psi = [Fraction(1), one_x - ax]

    def value(n):
        while len(psi) <= n:
            p = qpow(q, 1 - len(psi))
            psi.append((one_x - ax * p) * psi[-1] - x * (1 - p) * psi[-2])
        return psi[n]

    return value


@suite("thm2-rogers", "numeric")
def run_thm2(rng, config):
    def draw():
        r = rng.randint(0, 2)
        s_ = rng.randint(r - 1 if r else 0, 2)
        omega = rand_in(rng, Fraction(1, 8), Fraction(1, 2))
        # The single sum is one term of the two-term identity LHS = S(omega, t)
        # + S(t, omega) (ROADMAP item 2): the row compares LHS with S(omega, t)
        # alone, and passes only because |t/omega| ~ 2^-27 keeps the missing
        # S(t, omega) below the tolerance.
        ratio = Fraction(1)
        for _ in range(5):
            ratio *= rand_small(rng)
        return {
            "pv": rand_pv(rng, r, s_),
            "q": rand_q_asym(rng),
            "x": rand_in(rng, Fraction(1, 16), Fraction(1, 4), signed=True),
            "y": rand_in(rng, Fraction(1, 16), Fraction(1, 4), signed=True),
            "z": rand_in(rng, Fraction(1, 16), Fraction(1, 4), signed=True),
            "omega": omega,
            "t": omega * ratio * rng.choice((1, -1)),
        }

    # (t/omega;q)_inf, (y omega;q)_inf, (q omega/t;q)_k and (x omega;q)_k
    ok = avoiding(lambda q, x, y, omega, t, **_: (t / omega, y * omega, q * omega / t, x * omega))
    s = resample(rng, draw, ok)
    pv, q, x, y, z = s["pv"], s["q"], s["x"], s["y"], s["z"]
    t, omega = s["t"], s["omega"]
    trial = _Trial(q, config.eps)
    psi = psi_sweep(x, y, z, pv, q)
    # the inner sum is h_m(t, omega) / (q;q)_m, with the Rogers-Szego
    # polynomial h_m(t, omega) = omega^m psi_m^{(0)}(t/omega | 1/q)
    rogers_szego = _asc_psi_sweep(0, t / omega, 1 / q)

    def lhs_term(m):
        return (
            rogers_szego(m), omega**m, qpow(qpoch(q, q, m), -1), psi(m), (-1) ** m, q ** binom2(m)
        )

    lhs = trial.sum(lhs_term)
    pref = trial.quotient((x * omega,), (t / omega, y * omega))
    yw, qwt, xw, zw = y * omega, q * omega / t, x * omega, z * omega

    def rhs_term(k):
        qk = q**k
        return (
            qpoch(yw, q, k),
            qk,
            qpow(qpoch(qwt, q, k), -1),
            qpow(qpoch(xw, q, k), -1),
            qpow(qpoch(q, q, k), -1),
            trial.phi(pv, zw * qk),
        )

    rhs = pref * trial.sum(rhs_term)
    return [_numeric_result("thm2-rogers", lhs, rhs, f"r={pv.r} s={pv.s}")]


@suite("lemma2-psi", "numeric")
def run_lemma2_psi(rng, config):
    def draw():
        return {
            "q": rand_q_asym(rng),
            "alpha": rand_small(rng, signed=True),
            "x": rand_small(rng, signed=True),
            "lam": rand_small(rng, signed=True),
            "t": rand_tiny(rng, signed=True),
        }

    # (lam x t q;q)_inf and the lower parameter 1/(lam x t)
    ok = avoiding(lambda q, lam, x, t, **_: (lam * x * t * q, 1 / (lam * x * t)))
    s = resample(rng, draw, ok)
    q, alpha, x, lam, t = s["q"], s["alpha"], s["x"], s["lam"], s["t"]
    trial = _Trial(q, config.eps)
    psi = trial.psi(alpha, x)
    inv_lam, ltq = 1 / lam, lam * t * q

    def lhs_term(n):
        return psi(n), qpoch(inv_lam, q, n), ltq**n, qpow(qpoch(q, q, n), -1)

    lhs = trial.sum(lhs_term)
    pv = ParamVector((inv_lam, 1 / (alpha * x)), (1 / (lam * x * t),))
    rhs = trial.pinf(x * t * q) / trial.pinf(lam * x * t * q) * trial.phi(pv, alpha * q)
    return [_numeric_result("lemma2-psi", lhs, rhs)]


def _bilinear_lhs(trial, alpha, x, t, other):
    """sum_n psi_n^{(alpha)}(x) other(n) (-1)^n q^{binom(n+1,2)} t^n / (q;q)_n,
    the left side of the bilinear theorem, of its corollary and of (5.2)."""
    q, psi = trial.q, trial.psi(alpha, x)
    return trial.sum(
        lambda n: (psi(n), other(n), (-1) ** n, q ** binom2(n + 1), t**n, qpow(qpoch(q, q, n), -1))
    )


def _thm3_rhs(trial, alpha, x, u, v, z, t, pv):
    """Right side of the bilinear theorem, whose rphis has parameters pv."""
    q = trial.q
    pref = trial.quotient((q / x, u * x * t * q), (alpha * q, v * x * t * q))
    # the n-sum's upper (a1, a2) and lower (b1, b2) Pochhammer arguments
    a1, a2, b1, b2 = 1 / (alpha * x), 1 / (u * x * t), q / x, 1 / (v * x * t)
    c, xzt = alpha * u * q / v, x * z * t

    def term(n):
        return (
            (-1) ** n,
            q ** binom2(n),
            qpoch(a1, q, n),
            qpoch(a2, q, n),
            qpow(qpoch(b1, q, n), -1),
            qpow(qpoch(b2, q, n), -1),
            qpow(qpoch(q, q, n), -1),
            c**n,
            trial.phi(pv, xzt * qpow(q, 1 - n)),
        )

    return pref * trial.sum(term)


@suite("thm3-bilinear", "numeric")
def run_thm3(rng, config):
    def draw():
        s_ = rng.randint(0, 3)
        r = rng.randint(0, s_)
        return {
            "pv": rand_pv(rng, r, s_),
            "q": rand_q_asym(rng),
            "alpha": rand_small(rng, signed=True),
            "x": rand_small(rng, signed=True),
            "u": rand_small(rng, signed=True),
            "v": rand_small(rng, signed=True),
            "t": rand_tiny(rng, signed=True),
            "z": rand_in(rng, Fraction(1, 8), Fraction(1, 2), signed=True),
        }

    # (alpha q;q)_inf, (v x t q;q)_inf, (q/x;q)_n and (1/(v x t);q)_n
    ok = avoiding(
        lambda q, alpha, x, v, t, **_: (alpha * q, v * x * t * q, q / x, 1 / (v * x * t)),
        keep=lambda u, v, **_: u != v,
    )
    s = resample(rng, draw, ok)
    pv, q = s["pv"], s["q"]
    alpha, x, u, v, t, z = s["alpha"], s["x"], s["u"], s["v"], s["t"], s["z"]
    trial = _Trial(q, config.eps)
    lhs = _bilinear_lhs(trial, alpha, x, t, psi_sweep(u, v, z, pv, q))
    rhs = _thm3_rhs(trial, alpha, x, u, v, z, t, pv)
    return [_numeric_result("thm3-bilinear", lhs, rhs, f"r={pv.r} s={pv.s}")]


@suite("cor1-bilinear-hahn", "numeric")
def run_cor1(rng, config):
    def draw():
        return {
            "q": rand_q_asym(rng),
            "alpha": rand_small(rng, signed=True),
            "a": rand_in(rng, Fraction(1, 8), Fraction(1, 2), signed=True),
            "x": rand_small(rng, signed=True),
            "y": rand_small(rng, signed=True),
            "t": rand_tiny(rng, signed=True),
        }

    # (alpha q;q)_inf, (a x y t q;q)_inf, (q/x;q)_n and (1/(a x y t);q)_n
    ok = avoiding(lambda q, alpha, a, x, y, t, **_: (
        alpha * q, a * x * y * t * q, q / x, 1 / (a * x * y * t)))
    s = resample(rng, draw, ok)
    q, alpha, a, x, y, t = s["q"], s["alpha"], s["a"], s["x"], s["y"], s["t"]
    trial = _Trial(q, config.eps)
    lhs = _bilinear_lhs(trial, alpha, x, t, trial.psi(a, y))
    xytq, axytq = x * y * t * q, a * x * y * t * q
    # the bilinear theorem's prefactor at u = y, v = a y, times (x t q;q)_inf
    pref = trial.quotient((q / x, xytq), (alpha * q, axytq)) * trial.pinf(x * t * q)
    pv = ParamVector(
        (1 / (alpha * x), 1 / (x * y * t), 1 / (x * t)),
        (q / x, 1 / (a * x * y * t)),
    )
    rhs = pref * trial.phi(pv, alpha * x * t * q / a)

    # cross-check against the bilinear theorem under the stated
    # specialization u=y, v=a*y, z=1, empty parameter lists
    thm3_rhs = _thm3_rhs(trial, alpha, x, y, a * y, Fraction(1), t, ParamVector())
    dev_cross = lhs.gap(thm3_rhs)
    r = _numeric_result(
        "cor1-bilinear-hahn", lhs, rhs, f"cross-check deviation {float(dev_cross):.3e}"
    )
    return [r]


@suite("thm4-transform", "numeric")
def run_thm4(rng, config):
    def draw():
        s_ = rng.randint(0, 2)
        r = rng.randint(0, s_)
        return {
            "pv": rand_pv(rng, r, s_),
            "q": rand_q_asym(rng),
            "alpha": rand_small(rng, signed=True),
            "x": rand_small(rng, signed=True),
            "lam": rand_small(rng, signed=True),
            "t": rand_tiny(rng, signed=True),
            "z": rand_in(rng, Fraction(1, 8), Fraction(1, 2), signed=True),
        }

    # (alpha q;q)_inf, (x lam t q;q)_inf, (q/x;q)_n, (1/(x lam t);q)_n, and the
    # numerator (1/(x t);q)_n: not a divisor, rejected so every pinned sample stays
    ok = avoiding(lambda q, alpha, x, lam, t, **_: (
        alpha * q, x * lam * t * q, q / x, 1 / (x * lam * t), 1 / (x * t)))
    s = resample(rng, draw, ok)
    pv, q = s["pv"], s["q"]
    alpha, x, lam, t, z = s["alpha"], s["x"], s["lam"], s["t"], s["z"]
    trial = _Trial(q, config.eps)
    u, v = Fraction(1), lam
    psi = trial.psi(alpha, x)

    qt, inv_ax, aq, xzt = q * t, 1 / (alpha * x), alpha * q, x * z * t

    def A(n):
        return psi(n), qt**n, qpow(qpoch(q, q, n), -1)

    @functools.cache
    def B(n):
        """B(n) of the transformational identity's instantiation, the sum over
        k >= n of (1/(alpha x);q)_k (alpha q)^k / (q;q)_k times
        (q^{-k};q)_n q^{nk} / (q;q)_n: (q^{-k};q)_n vanishes below k = n, and
        (q^{-k};q)_n q^{nk} / (q;q)_k = (-1)^n q^{binom(n,2)} / (q;q)_{k-n}
        (Gasper-Rahman (I.10)), the same rational."""
        c = (-1) ** n * q ** binom2(n) * qpow(qpoch(q, q, n), -1)

        def term(j):
            k = n + j
            return qpoch(inv_ax, q, k), aq**k, c, qpow(qpoch(q, q, j), -1)

        return trial.sum(term, kmin=4)

    xut, xvt = x * u * t, x * v * t
    # (x u t q^{1-n};q)_inf / (x v t q^{1-n};q)_inf = base * ratio(n), where
    # ratio(n) steps up exactly from 1 by (c;q)_inf = (1 - c) (cq;q)_inf: the
    # radius of base then widens each sum once, not each of its terms
    base = trial.pinf(xut * q) / trial.pinf(xvt * q)
    ratios = [Fraction(1)]

    def ratio(n):
        while len(ratios) <= n:
            p = qpow(q, 1 - len(ratios))
            ratios.append(ratios[-1] * (1 - xut * p) / (1 - xvt * p))
        return ratios[n]

    # (5.1): the A/B relationship itself
    lhs1 = trial.sum(lambda n: A(n) + (cauchy_P(n, v, u, q),))
    rhs1 = base * trial.sum(lambda n: (ratio(n), B(n)), kmin=4)

    # (5.2): the transformed identity; q^{binom(n,2)} (q t)^n = q^{binom(n+1,2)} t^n
    lhs2 = _bilinear_lhs(trial, alpha, x, t, psi_sweep(u, v, z, pv, q))
    rhs2 = base * trial.sum(lambda n: B(n) * ratio(n) * trial.phi(pv, xzt * qpow(q, 1 - n)), kmin=4)

    # the transformed identity must reproduce the bilinear theorem
    thm3_rhs = _thm3_rhs(trial, alpha, x, u, v, z, t, pv)
    dev_cross = lhs2.gap(thm3_rhs)

    out = [
        _numeric_result("thm4-transform:premise", lhs1, rhs1),
        _numeric_result(
            "thm4-transform:conclusion",
            lhs2,
            rhs2,
            f"bilinear cross-check deviation {float(dev_cross):.3e}",
        ),
    ]
    return out


# ---------------------------------------------------------------------------
# reduction suite


@suite("remark2", "exact")
def run_remark2(rng, config):
    sample, q = sample_reduction_params(rng)
    return [reductions.check_item(item, sample, q) for item in range(1, 12)]


# ---------------------------------------------------------------------------
# execution


def run_suite(suite_id: str, config: RunConfig) -> list[IdentityReport]:
    """The reports of every trial of suite `suite_id`, or of every suite for
    "all", ordered by (id, trial).  A trial that raises one of the errors
    below gives the errored row (suite_id, None, None, "errored: ..."),
    which does not pass; an unknown id raises KeyError."""
    reports: list[IdentityReport] = []
    for sid in sorted(SUITES) if suite_id == "all" else [suite_id]:
        sdef = SUITES[sid]
        tol = config.numeric_tol if sdef.mode == "numeric" else 0
        for trial in range(config.trials):
            seed = derive_seed(config.seed, sid, trial)
            try:
                rows = sdef.runner(random.Random(seed), config)
            except (DivergentSeriesError, ScalarOverflowError, ZeroDivisionError,
                    RuntimeError) as exc:
                rows = [(sid, None, None, f"errored: {exc}")]
            for identity_id, dev, scale, notes in rows:
                passed = dev is not None and dev <= tol * scale
                reports.append(
                    IdentityReport(identity_id, sdef.mode, seed, trial, passed, dev, notes)
                )
    return sort_reports(reports)


def list_suites() -> list[str]:
    return sorted(SUITES) + ["all"]
