"""Seeded workloads of the qhyper benchmark and the code that runs one op.

An op is one unit a user waits on: one single-trial `run_suite` call for the
suite workloads, one `qhyper.cli.main` call for `cli-interactive`.  Every op
list is a pure function of (workload, seed, rounds); qhyper itself is only
imported by the caller, so generating inputs costs nothing measurable.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import random
from dataclasses import dataclass
from fractions import Fraction
from time import perf_counter

#: The formal and exact suites.  The benchmark names them itself so that its
#: inputs do not follow a change to the program's suite registry.
EXACT_SUITES = (
    "cao-gf-phi", "cao-gf-psi", "cauchy-gf", "cauchy-sa-gf",
    "chu-vandermonde-II6", "chu-vandermonde-II7", "euler-pair", "gf-psi",
    "lemma1-a", "lemma1-b", "lemma1-c", "lemma2-phi", "q-binomial-theorem",
    "remark2", "shift-identity", "theta-eigen", "thm1-extended-gf", "v-gf",
)

#: Ops per round of `suite-numeric-deep`.  Per-trial cost at 160 bits spans
#: 25x within one suite (thm4-transform: 0.7-18 s), far too wide to average
#: out in one run, so these trials are a fixed pool (run seeds 0, 1, 2, ...)
#: and the workload seed only sets their order.  The counts fall as a
#: suite's mean trial cost in the seed-commit baseline rises (0.09, 0.27,
#: 0.8, 1.4 and 2.6 s, in the order below), so that every suite takes 14-37%
#: of `wall_s`: no suite dominates the time, and the cheap suites supply the
#: op count that op_p50 and op_tail need.  Equal trials per suite, as
#: `qhyper check` runs them, would give thm4 and thm2 78% of `wall_s` and a
#: 30 s run only about 30 ops, with its tail cut near the 65th percentile.
NUMERIC_POOL = {
    "lemma2-psi": 12,
    "thm3-bilinear": 4,
    "cor1-bilinear-hahn": 2,
    "thm2-rogers": 1,
    "thm4-transform": 1,
}

#: Seconds one round takes at the seed commit (Python 3.11, 2 cores).  A run
#: of S seconds does round(S / ROUND_SECONDS) rounds, so every commit does the
#: same work for the same arguments and `wall_s` is a time to a fixed verdict.
ROUND_SECONDS = {
    "suite-exact": 1.3,
    "suite-numeric-deep": 7.0,
    "cli-interactive": 0.5,
}

WORKLOADS = tuple(ROUND_SECONDS)

NUMERIC_EPSILON_BITS = 160
SUITE_ORDER = 12


@dataclass(frozen=True)
class SuiteOp:
    suite: str
    seed: int
    epsilon_bits: int = 80


@dataclass(frozen=True)
class CliOp:
    argv: tuple


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds / ROUND_SECONDS[workload]))


def make_ops(workload: str, seed: int, rounds: int) -> list:
    rng = random.Random(f"{workload}|{seed}")
    ops: list = []
    if workload == "suite-exact":
        for _ in range(rounds):
            order = list(EXACT_SUITES)
            rng.shuffle(order)
            ops += [SuiteOp(sid, rng.getrandbits(32)) for sid in order]
    elif workload == "suite-numeric-deep":
        for sid, per_round in NUMERIC_POOL.items():
            ops += [
                SuiteOp(sid, pool_seed, NUMERIC_EPSILON_BITS)
                for pool_seed in range(per_round * rounds)
            ]
        rng.shuffle(ops)
    elif workload == "cli-interactive":
        for _ in range(rounds):
            round_ops = _cli_round(rng)
            rng.shuffle(round_ops)
            ops += round_ops
    else:
        raise ValueError(f"unknown workload {workload!r}")
    return ops


# ---------------------------------------------------------------------------
# cli-interactive inputs, drawn like the suite samplers draw theirs


def _rat(rng: random.Random, bound: int = 8) -> Fraction:
    return Fraction(rng.choice((1, -1)) * rng.randint(1, bound), rng.randint(1, bound))


def _q(rng: random.Random) -> Fraction:
    """Base in [2/5, 2/3], the band of the asymptotic suites."""
    while True:
        v = Fraction(rng.randint(1, 64), rng.randint(1, 64))
        if Fraction(2, 5) <= v <= Fraction(2, 3):
            return v


def _lower(rng: random.Random) -> Fraction:
    """Lower parameter with |b| < 1, so no (b;q)_k vanishes for 0 < q < 1."""
    while True:
        b = _rat(rng)
        if abs(b) != 1:
            return b if abs(b) < 1 else 1 / b


def _csv(values) -> str:
    return ",".join(str(v) for v in values)


def _cli_round(rng: random.Random) -> list[CliOp]:
    """Every `eval` family and every `expand` target once.

    Degrees and orders sit well above the suites' 12.  The degree stays at
    most 30: with q in [2/5, 2/3] the psi-type families then stay inside the
    float range that `eval` prints the value in.
    """
    n = f"--n={rng.randint(20, 30)}"
    order = "--order=24"
    q = f"--q={_q(rng)}"
    # r <= s+1, the convergence condition the numeric samplers impose: with
    # r > s+1, Psi carries q^{-(r-s)binom(n,2)} and its value leaves the float range
    s = rng.randint(0, 3)
    r = rng.randint(0, min(3, s + 1))
    pv = (f"--a={_csv(_rat(rng) for _ in range(r))}", f"--b={_csv(_lower(rng) for _ in range(s))}")
    r_sa = rng.randint(1, 3)
    sa_pv = (
        f"--a={_csv(_rat(rng) for _ in range(r_sa))}",
        f"--b={_csv(_lower(rng) for _ in range(r_sa - 1))}",
    )
    x, y, z, c = (str(_rat(rng)) for _ in range(4))
    a1, a2, a3 = (str(_rat(rng)) for _ in range(3))
    low1, low2 = str(_lower(rng)), str(_lower(rng))
    xy = (f"--x={x}", f"--y={y}")
    xyz = xy + (f"--z={z}",)
    three = (f"--a1={a1}", f"--a2={a2}", f"--a3={low1}")
    five = (f"--a1={a1}", f"--a2={a2}", f"--a3={a3}", f"--a4={low1}", f"--a5={low2}")
    argvs = [
        ("eval", "P", n, q, *xy),
        ("eval", "phi_asc", n, q, f"--a1={a1}", f"--x={x}"),
        ("eval", "psi_asc", n, q, f"--a1={a1}", f"--x={x}"),
        ("eval", "cao_phi3", n, q, *three, *xy),
        ("eval", "cao_psi3", n, q, *three, *xy),
        ("eval", "ext_phi5", n, q, *five, *xy),
        ("eval", "ext_psi5", n, q, *five, *xy),
        ("eval", "sa_phi", n, q, *sa_pv, *xy),
        ("eval", "sa_psi", n, q, *sa_pv, *xy),
        ("eval", "V", n, q, *pv, *xyz),
        ("eval", "Psi", n, q, *pv, *xyz),
        ("expand", "euler", order, q, f"--c={c}"),
        ("expand", "euler-inv", order, q, f"--c={c}"),
        ("expand", "cauchy-ratio", order, q, *xy),
        ("expand", "rphis-t", order, q, *pv, f"--c={c}"),
        ("expand", "gf-psi-lhs", order, q, *pv, *xyz),
        ("expand", "gf-psi-rhs", order, q, *pv, *xyz),
    ]
    return [CliOp(argv) for argv in argvs]


# ---------------------------------------------------------------------------
# running ops


@dataclass
class OpResult:
    op: object
    seconds: float
    failed: bool
    output: object  # list of IdentityReport, or (exit code, stdout)
    error: str = ""
    scaled: float = 0.0  # `seconds` at nominal machine speed, set by the runner


def run_op(qhyper, op) -> OpResult:
    """Run one op through the public API, looked up at call time so that an
    installed tracer sees the call."""
    if isinstance(op, SuiteOp):
        config = qhyper.RunConfig(
            trials=1, seed=op.seed, order=SUITE_ORDER, epsilon_bits=op.epsilon_bits
        )
        t0 = perf_counter()
        try:
            reports = qhyper.run_suite(op.suite, config)
        except Exception as exc:  # an errored trial is a failed op, not a crash
            return OpResult(op, perf_counter() - t0, True, [], repr(exc))
        dt = perf_counter() - t0
        notes = [r.notes or "verdict failed" for r in reports if not r.passed]
        error = "; ".join(notes) if reports else "no report"
        return OpResult(op, dt, bool(notes) or not reports, reports, error)
    buf = io.StringIO()
    t0 = perf_counter()
    try:
        with contextlib.redirect_stdout(buf), contextlib.redirect_stderr(io.StringIO()):
            code = qhyper.cli.main(list(op.argv))
    except SystemExit as exc:  # argparse usage errors exit instead of returning
        code = exc.code
    except Exception as exc:
        return OpResult(op, perf_counter() - t0, True, (None, buf.getvalue()), repr(exc))
    dt = perf_counter() - t0
    return OpResult(op, dt, code != 0, (code, buf.getvalue()))


class OutputCheck:
    """Hashes each op's output as it completes and checks the CLI identities.

    `add` drops the op's output once it is taken in, so a run holds no output
    but the serialized report rows and the `expand` outputs whose partner has
    not run yet, and `peak_rss_mb` stays the program's own.

    The hash is what a later commit must reproduce on the same seed.
    suite-exact: every report row, exactly as serialized, sorted.
    suite-numeric-deep: (id, seed, trial, pass) only, sorted, since a change
    of arithmetic may move the deviations of a numeric pass.
    cli-interactive: argv, exit code and stdout of each call, in call order.

    The CLI identities: `expand euler` times `expand euler-inv` at the same
    (c, q, order) is 1, and `expand gf-psi-lhs` equals `expand gf-psi-rhs` at
    the same arguments (the generating function of the general polynomial).
    """

    PAIRS = {"euler": "euler-inv", "euler-inv": "euler",
             "gf-psi-lhs": "gf-psi-rhs", "gf-psi-rhs": "gf-psi-lhs"}

    def __init__(self, workload: str):
        self.workload = workload
        self.mismatches: list[str] = []
        self.out_bytes = 0
        self._rows: list[str] = []
        self._cli = hashlib.sha256()
        self._unpaired: dict = {}  # argv[1:] -> coefficients

    def add(self, res: OpResult) -> None:
        if isinstance(res.op, CliOp):
            code, out = res.output
            self.out_bytes += len(out.encode())
            self._cli.update(json.dumps([list(res.op.argv), code, out]).encode() + b"\n")
            if res.op.argv[1] in self.PAIRS and code == 0:
                self._pair(res.op.argv[1:], out)
        else:
            for rep in res.output:
                if self.workload == "suite-numeric-deep":
                    # not to_json_dict: a deviation's numerator can pass the
                    # int-to-str digit limit at 160 bits
                    row = {"id": rep.id, "seed": rep.seed, "trial": rep.trial, "pass": rep.passed}
                else:
                    row = rep.to_json_dict()
                self._rows.append(json.dumps(row, sort_keys=True))
        res.output = None

    def _pair(self, key: tuple, out: str) -> None:
        coeffs = [Fraction(line.split("\t")[1]) for line in out.splitlines()]
        target, rest = key[0], key[1:]
        partner = self._unpaired.pop((self.PAIRS.get(target),) + rest, None)
        if partner is None:
            self._unpaired[key] = coeffs
        elif target.startswith("euler"):
            prod = [sum(coeffs[j] * partner[n - j] for j in range(n + 1)) for n in range(len(coeffs))]
            if prod != [1] + [0] * (len(coeffs) - 1):
                self.mismatches.append(f"euler * euler-inv != 1 for {rest}")
        elif coeffs != partner:
            self.mismatches.append(f"gf-psi-lhs != gf-psi-rhs for {rest}")

    def digest(self) -> str:
        if self.workload == "cli-interactive":
            return self._cli.hexdigest()
        h = hashlib.sha256()
        for line in sorted(self._rows):
            h.update(line.encode() + b"\n")
        return h.hexdigest()
