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
# eval


def _pv_from_args(args) -> ParamVector:
    upper = _rat_list(args.a)
    lower = _rat_list(args.b)
    if args.r is not None and len(upper) != args.r:
        raise CliError(f"--r {args.r} but {len(upper)} upper parameters given")
    if args.s is not None and len(lower) != args.s:
        raise CliError(f"--s {args.s} but {len(lower)} lower parameters given")
    return ParamVector(upper, lower)


def cmd_eval(args) -> int:
    q = parse_q(args.q)
    n = _bounded("n", args.n, MAX_DEGREE)
    family = args.family
    need = lambda name: _require(args, name, f"family {family!r}")
    if family == "P":
        x, y = need("x"), need("y")
        # `cauchy_P` is uncapped, so bound the bits of P_n here
        bits = _prefix_bits(n, x, y, q)
        if bits > MAX_SCALAR_BITS:
            raise CliError(f"P_{n} may need {bits} bits, past the cap of {MAX_SCALAR_BITS}")
        value = cauchy_P(n, x, y, q)
    elif family == "phi_asc":
        value = asc_phi(n, need("a1"), need("x"), q)
    elif family == "psi_asc":
        value = asc_psi(n, need("a1"), need("x"), q)
    elif family in ("cao_phi3", "cao_psi3"):
        fn = cao_phi3 if family == "cao_phi3" else cao_psi3
        value = fn(n, need("a1"), need("a2"), need("a3"), need("x"), need("y"), q)
    elif family in ("ext_phi5", "ext_psi5"):
        fn = ext_phi5 if family == "ext_phi5" else ext_psi5
        value = fn(
            n, need("a1"), need("a2"), need("a3"), need("a4"), need("a5"),
            need("x"), need("y"), q,
        )
    elif family in ("sa_phi", "sa_psi"):
        fn = sa_phi if family == "sa_phi" else sa_psi
        pv = _pv_from_args(args)
        if pv.r != pv.s + 1:
            raise CliError(f"family {family!r} needs one more upper than lower parameter")
        value = fn(n, pv, need("x"), need("y"), q)
    elif family == "V":
        value = v_poly(n, _pv_from_args(args), need("x"), need("y"), need("z"), q)
    else:  # "Psi"; the parser's choices admit no other family
        value = psi_general(
            FamilyPoint(need("x"), need("y"), need("z"), n), _pv_from_args(args), q
        )
    try:
        approx = f" = {float(value):.12g}"
    except OverflowError:  # outside the float range: the exact value only
        approx = ""
    print(f"{value.numerator}/{value.denominator}{approx}")
    return EXIT_OK


def _require(args, name: str, what: str) -> Fraction:
    """The rational of flag --name, which `what` (a family or target) needs."""
    value = getattr(args, name, None)
    if value is None:
        raise CliError(f"{what} needs --{name}")
    return parse_rat(value)


# ---------------------------------------------------------------------------
# expand


def cmd_expand(args) -> int:
    q = parse_q(args.q)
    N = _bounded("order", args.order, MAX_ORDER)
    target = args.target
    need = lambda name: _require(args, name, f"target {target!r}")
    if target == "euler":
        series = euler_product_series(need("c"), q, N)
    elif target == "euler-inv":
        series = euler_inverse_series(need("c"), q, N)
    elif target == "cauchy-ratio":
        series = cauchy_ratio_series(need("x"), need("y"), q, N)
    elif target == "rphis-t":
        series = rphis_series_in_t(_pv_from_args(args), q, need("c"), N)
    else:  # "gf-psi-lhs" or "gf-psi-rhs"; the parser's choices admit no other
        fn = psi_gf_lhs if target == "gf-psi-lhs" else psi_gf_rhs
        series = fn(_pv_from_args(args), need("x"), need("y"), need("z"), q, N)
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

    shared_params = {
        "--x": "x",
        "--y": "y",
        "--z": "z",
        "--c": "c",
        "--a1": "a1",
        "--a2": "a2",
        "--a3": "a3",
        "--a4": "a4",
        "--a5": "a5",
    }

    evalp = sub.add_parser(
        "eval",
        help="evaluate one polynomial family exactly",
        description="Evaluate one polynomial family exactly.  Every rational argument and"
        f" value is capped at {MAX_SCALAR_BITS} bits; P exits 2 when n (h(x) + h(y) + 1)"
        " + C(n,2) h(q), with h the larger bit length of a rational's numerator and"
        " denominator, passes that cap.",
    )
    evalp.add_argument(
        "family",
        choices=(
            "P", "phi_asc", "psi_asc", "cao_phi3", "cao_psi3",
            "ext_phi5", "ext_psi5", "sa_phi", "sa_psi", "V", "Psi",
        ),
    )
    evalp.add_argument("--n", type=int, required=True)
    evalp.add_argument("--q", required=True)
    for flag, dest in shared_params.items():
        evalp.add_argument(flag, dest=dest, default=None)
    evalp.add_argument("--a", default="", help="comma-separated upper parameters")
    evalp.add_argument("--b", default="", help="comma-separated lower parameters")
    evalp.add_argument("--r", type=int, default=None, help="expected upper arity")
    evalp.add_argument("--s", type=int, default=None, help="expected lower arity")

    expand = sub.add_parser("expand", help="print series coefficients t^0..t^N")
    expand.add_argument(
        "target",
        choices=("cauchy-ratio", "euler", "euler-inv", "rphis-t", "gf-psi-lhs", "gf-psi-rhs"),
    )
    expand.add_argument("--order", type=int, default=12)
    expand.add_argument("--q", required=True)
    for flag, dest in shared_params.items():
        expand.add_argument(flag, dest=dest, default=None)
    expand.add_argument("--a", default="", help="comma-separated upper parameters")
    expand.add_argument("--b", default="", help="comma-separated lower parameters")
    expand.add_argument("--r", type=int, default=None)
    expand.add_argument("--s", type=int, default=None)

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
