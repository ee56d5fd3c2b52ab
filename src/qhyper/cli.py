"""Command-line front end: run identity suites, evaluate polynomial families,
and expand generating functions, emitting machine-readable reports."""

from __future__ import annotations

import argparse
import functools
import json
import math
import os
import sys
from fractions import Fraction

from .families import (
    FamilyPoint,
    ParamVector,
    VanishingPochhammerError,
    asc_phi,
    asc_psi,
    cao_phi3,
    cao_psi3,
    cauchy_P,
    ext_phi5,
    ext_psi5,
    psi_general,
    sa_phi,
    sa_psi,
    v_poly,
)
from .hyper import DivergentSeriesError, rphis_series_in_t
from .report import TSV_FIELDS, IdentityReport, _any_int_digits
from .scalars import (
    MAX_SCALAR_BITS,
    RootOfUnityError,
    ScalarOverflowError,
    _height,
    _prefix_bits,
)
from .series import (
    cauchy_ratio_series,
    euler_inverse_series,
    euler_product_series,
)
from .verify import RunConfig, list_suites, psi_gf_lhs, psi_gf_rhs, run_suite

EXIT_OK = 0
EXIT_FAIL = 1
EXIT_USAGE = 2

#: Largest `eval --n` and `expand --order`: Psi with r=2, s=1, q=1/2 takes
#: about 1 s at n=128 and ten times that at n=256.
MAX_DEGREE = 128
MAX_ORDER = 64

#: Errors of the user's input that end in exit 2 and a one-line message.
USAGE_ERRORS = (
    OSError,
    RootOfUnityError,
    VanishingPochhammerError,
    ScalarOverflowError,
    DivergentSeriesError,
)


class CliError(Exception):
    pass


def parse_rat(text: str) -> Fraction:
    """The rational `text` spells for `Fraction`, with a numerator and a
    denominator of at most `MAX_SCALAR_BITS` bits.

    A decimal exponent e with |e| > len(text) + MAX_SCALAR_BITS / 3 and a
    nonzero mantissa puts 10^(|e| - len(text)) into the numerator or the
    denominator, more bits than the cap, so it is refused before `Fraction`
    forms that power.
    """
    mantissa, _, exponent = text.lower().partition("e")
    try:
        huge = abs(int(exponent or 0)) > len(text) + MAX_SCALAR_BITS // 3 and any(
            c in "123456789" for c in mantissa
        )
        value = None if huge else Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise CliError(f"not a rational: {text!r} ({exc})")
    if huge or _height(value) > MAX_SCALAR_BITS:
        shown = text if len(text) <= 40 else text[:37] + "..."
        raise CliError(f"rational {shown!r} exceeds {MAX_SCALAR_BITS} bits")
    return value


def parse_q(text: str) -> Fraction:
    """The base q; 0 and the roots of unity 1 and -1 are rejected."""
    q = parse_rat(text)
    if q in (0, 1, -1):
        raise CliError(f"q must not be 0, 1 or -1, got {text!r}")
    return q


def _bounded(name: str, value: int, hi: int) -> int:
    if not 0 <= value <= hi:
        raise CliError(f"--{name} must be in 0..{hi}, got {value}")
    return value


def _rat_list(text: str) -> tuple[Fraction, ...]:
    text = text.strip()
    if not text:
        return ()
    return tuple(parse_rat(p) for p in text.split(","))


# ---------------------------------------------------------------------------
# check


def _load_config(args) -> RunConfig:
    base: dict = {}
    if args.config:
        with open(args.config) as fh:
            try:
                base = json.load(fh)
            except json.JSONDecodeError as exc:
                raise CliError(f"config {args.config}: {exc}")
        if not isinstance(base, dict):
            raise CliError(f"config {args.config}: not a JSON object")
        unknown = set(base) - set(RunConfig.__dataclass_fields__)
        if unknown:
            raise CliError(f"unknown config keys: {sorted(unknown)}")
    env_seed = os.environ.get("QHYPER_SEED")
    if env_seed is not None:
        try:
            base["seed"] = int(env_seed)
        except ValueError:
            raise CliError(f"QHYPER_SEED is not an integer: {env_seed!r}")
    # explicit flags take precedence over config file and environment
    for name in ("suite", "trials", "order", "epsilon_bits", "seed", "report_path", "format"):
        value = getattr(args, name, None)
        if value is not None:
            base[name] = value
    try:
        return RunConfig(**base)
    except (TypeError, ValueError) as exc:
        raise CliError(str(exc))


def _render_json(config: RunConfig, reports: list[IdentityReport]) -> str:
    doc = {
        "suite": config.suite,
        "config": {
            "trials": config.trials,
            "order": config.order,
            "epsilon_bits": config.epsilon_bits,
            "seed": config.seed,
            "format": config.format,
        },
        "reports": [r.to_json_dict() for r in reports],
    }
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def _render_tsv(config: RunConfig, reports: list[IdentityReport]) -> str:
    lines = ["\t".join(TSV_FIELDS)]
    for r in reports:
        d = r.to_json_dict()
        lines.append("\t".join("-" if d[f] is None else str(d[f]) for f in TSV_FIELDS))
    return "\n".join(lines) + "\n"


def _render_human(config: RunConfig, reports: list[IdentityReport]) -> str:
    width = max((len(r.id) for r in reports), default=8)
    lines = [f"suite {config.suite}: {len(reports)} checks"]
    for r in reports:
        glyph = "ok " if r.passed else "FAIL"
        dev = r.deviation
        dev = "-" if dev is None else "0" if dev == 0 else f"~2^{float(_log2(dev)):.1f}"
        note = f"  {r.notes}" if r.notes else ""
        lines.append(f"  {glyph} {r.id:<{width}} trial {r.trial:>2} dev {dev}{note}")
    passed = sum(r.passed for r in reports)
    lines.append(f"{passed}/{len(reports)} passed")
    return "\n".join(lines) + "\n"


def _log2(x: Fraction) -> float:
    return math.log2(x.numerator) - math.log2(x.denominator)


def cmd_check(args) -> int:
    config = _load_config(args)
    if config.suite not in list_suites():
        print(
            f"unknown suite {config.suite!r}; available: {', '.join(list_suites())}",
            file=sys.stderr,
        )
        return EXIT_USAGE
    reports = run_suite(config.suite, config)
    renderer = {"json": _render_json, "tsv": _render_tsv, "human": _render_human}
    text = renderer[config.format](config, reports)
    if config.report_path:
        with open(config.report_path, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return EXIT_OK if all(r.passed for r in reports) else EXIT_FAIL


# ---------------------------------------------------------------------------
# eval and expand


def _pv_from_args(args) -> ParamVector:
    upper = _rat_list(args.a)
    lower = _rat_list(args.b)
    if args.r is not None and len(upper) != args.r:
        raise CliError(f"--r {args.r} but {len(upper)} upper parameters given")
    if args.s is not None and len(lower) != args.s:
        raise CliError(f"--s {args.s} but {len(lower)} lower parameters given")
    return ParamVector(upper, lower)


def _sa_params(pv: ParamVector, family: str) -> ParamVector:
    if pv.r != pv.s + 1:
        raise CliError(f"family {family!r} needs one more upper than lower parameter")
    return pv


def _euler_bits(N: int, c: Fraction, q: Fraction) -> int:
    """A bound on the bits of c^k q^{C(k,2)}, k <= N: those of (c;q)_N."""
    return _prefix_bits(N, 1, c, q)


#: One table per subcommand: each `eval` family and each `expand` target maps
#: to (function, flags, bound).  The function is called as function(n,
#: *values, q), n being `--n` or `--order`, with the value of each flag of
#: `flags` in that order: "a" gives the parameter vector of --a and --b
#: (held to --r and --s), any other flag its rational.  A bound, called the
#: same way, is the bit count (`_prefix_bits`) of the largest exact product
#: the function forms; past MAX_SCALAR_BITS the call is refused before it
#: is made, so no long table is formed only for its last entry to raise.
#: The lambdas look each function up when called, so a rebinding (as the
#: benchmark's tracer makes) is seen.
EVAL_FAMILIES = {
    "P": (lambda *v: cauchy_P(*v), ("x", "y"), _prefix_bits),
    "phi_asc": (lambda *v: asc_phi(*v), ("a1", "x"), None),
    "psi_asc": (lambda *v: asc_psi(*v), ("a1", "x"), None),
    "cao_phi3": (lambda *v: cao_phi3(*v), ("a1", "a2", "a3", "x", "y"), None),
    "cao_psi3": (lambda *v: cao_psi3(*v), ("a1", "a2", "a3", "x", "y"), None),
    "ext_phi5": (lambda *v: ext_phi5(*v), ("a1", "a2", "a3", "a4", "a5", "x", "y"), None),
    "ext_psi5": (lambda *v: ext_psi5(*v), ("a1", "a2", "a3", "a4", "a5", "x", "y"), None),
    "sa_phi": (lambda n, pv, *v: sa_phi(n, _sa_params(pv, "sa_phi"), *v), ("a", "x", "y"), None),
    "sa_psi": (lambda n, pv, *v: sa_psi(n, _sa_params(pv, "sa_psi"), *v), ("a", "x", "y"), None),
    "V": (lambda *v: v_poly(*v), ("a", "x", "y", "z"), None),
    "Psi": (
        lambda n, x, y, z, pv, q: psi_general(FamilyPoint(x, y, z, n), pv, q),
        ("x", "y", "z", "a"),
        None,
    ),
}
EXPAND_TARGETS = {
    "cauchy-ratio": (lambda N, x, y, q: cauchy_ratio_series(x, y, q, N), ("x", "y"), _prefix_bits),
    "euler": (lambda N, c, q: euler_product_series(c, q, N), ("c",), _euler_bits),
    "euler-inv": (lambda N, c, q: euler_inverse_series(c, q, N), ("c",), _euler_bits),
    "rphis-t": (lambda N, pv, c, q: rphis_series_in_t(pv, q, c, N), ("a", "c"), None),
    "gf-psi-lhs": (lambda N, *v: psi_gf_lhs(*v, N), ("a", "x", "y", "z"), None),
    "gf-psi-rhs": (lambda N, *v: psi_gf_rhs(*v, N), ("a", "x", "y", "z"), None),
}


def _compute(table: dict, key: str, what: str, label: str, args, n: int, q: Fraction):
    """The function of table[key] at n, q and its flags' values; `what`
    names the family or target when a flag is missing, `label` the product
    when the bound is past the cap."""
    fn, flags, bound = table[key]
    values = [_pv_from_args(args) if f == "a" else _require(args, f, what) for f in flags]
    if bound is not None and (bits := bound(n, *values, q)) > MAX_SCALAR_BITS:
        raise CliError(f"{label} may need {bits} bits, past the cap of {MAX_SCALAR_BITS}")
    return fn(n, *values, q)


def _require(args, name: str, what: str) -> Fraction:
    """The rational of flag --name, which `what` (a family or target) needs."""
    value = getattr(args, name, None)
    if value is None:
        raise CliError(f"{what} needs --{name}")
    return parse_rat(value)


def cmd_eval(args) -> int:
    q = parse_q(args.q)
    n = _bounded("n", args.n, MAX_DEGREE)
    family = args.family
    value = _compute(EVAL_FAMILIES, family, f"family {family!r}", f"{family}_{n}", args, n, q)
    try:
        approx = f" = {float(value):.12g}"
    except OverflowError:  # outside the float range: the exact value only
        approx = ""
    print(f"{value.numerator}/{value.denominator}{approx}")
    return EXIT_OK


def cmd_expand(args) -> int:
    q = parse_q(args.q)
    N = _bounded("order", args.order, MAX_ORDER)
    target = args.target
    series = _compute(
        EXPAND_TARGETS, target, f"target {target!r}", f"t^{N} of {target}", args, N, q
    )
    for k, c in enumerate(series.coeffs):
        print(f"t^{k}\t{c.numerator}/{c.denominator}")
    return EXIT_OK


# ---------------------------------------------------------------------------
# parser


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The parser of every subcommand, built once per process: parsing leaves
    it unchanged, and each parse makes a fresh namespace.  It holds no
    command function, so rebinding one (as a tracer does) is seen by the
    next call of `main`."""
    parser = argparse.ArgumentParser(
        prog="qhyper",
        description="exact q-hypergeometric polynomial toolkit and identity checker",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    check = sub.add_parser(
        "check",
        help="run identity-verification suites",
        description="Run identity suites.  A formal or exact row passes when its two sides are"
        " equal; a numeric row passes when the proven upper bound on |lhs - rhs| is at most"
        " tol times max(1, a lower bound on |lhs|), with tol = min(2^-40, 2^-(B - 16)) at"
        " B = --epsilon-bits, up to the truncation of the outer sums.",
    )
    check.add_argument("--suite", default=None, help="suite id or 'all'")
    check.add_argument("--trials", type=int, default=None)
    check.add_argument("--order", type=int, default=None, help="series truncation order N")
    check.add_argument(
        "--epsilon-bits", dest="epsilon_bits", type=int, default=None,
        help="numeric precision B in 1..1024 (default 80): sums run to 2^-B",
    )
    check.add_argument("--seed", type=int, default=None)
    check.add_argument("--report-path", dest="report_path", default=None)
    check.add_argument("--format", choices=("json", "tsv", "human"), default=None)
    check.add_argument("--config", default=None, help="JSON file with RunConfig fields")

    evalp = sub.add_parser(
        "eval",
        help="evaluate one polynomial family exactly",
        description="Evaluate one polynomial family exactly.  Every rational argument, and"
        " every (a;q)_k, P_{n-k}(x, y) and [n k]_q a family reads, is capped at"
        f" {MAX_SCALAR_BITS} bits; P exits 2 before forming its product when"
        " n (h(x) + h(y) + 1) + C(n,2) h(q), with h the larger bit length of a rational's"
        " numerator and denominator, passes that cap.  The sums themselves are not capped.",
    )
    evalp.add_argument("family", choices=EVAL_FAMILIES)
    evalp.add_argument("--n", type=int, required=True)
    evalp.add_argument("--q", required=True)
    expand = sub.add_parser("expand", help="print series coefficients t^0..t^N")
    expand.add_argument("target", choices=EXPAND_TARGETS)
    expand.add_argument("--order", type=int, default=12)
    expand.add_argument("--q", required=True)
    for p in (evalp, expand):
        for name in ("x", "y", "z", "c", "a1", "a2", "a3", "a4", "a5"):
            p.add_argument(f"--{name}", default=None)
        p.add_argument("--a", default="", help="comma-separated upper parameters")
        p.add_argument("--b", default="", help="comma-separated lower parameters")
        p.add_argument("--r", type=int, default=None, help="expected upper arity")
        p.add_argument("--s", type=int, default=None, help="expected lower arity")

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    command = {"check": cmd_check, "eval": cmd_eval, "expand": cmd_expand}[args.command]
    with _any_int_digits():
        try:
            return command(args)
        except (CliError, *USAGE_ERRORS) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
