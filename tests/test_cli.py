"""CLI: subcommands, exit codes, report formats, determinism."""

import argparse
import ast
import json
import os
import pathlib
import subprocess
import sys
import time
import types
from fractions import Fraction

import pytest

from qhyper import cli
from qhyper.cli import EXIT_FAIL, EXIT_OK, EXIT_USAGE, build_parser, main
from qhyper.hyper import DivergentSeriesError
from qhyper.report import _any_int_digits
from qhyper.verify import SUITES, RunConfig, run_suite

REPORT_FIELDS = {"id", "mode", "seed", "trial", "pass", "deviation_num", "deviation_den", "notes"}


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_check_passing_suite(capsys):
    code, out, _ = run(
        ["check", "--suite", "euler-pair", "--trials", "3", "--seed", "7"], capsys
    )
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["suite"] == "euler-pair"
    assert len(doc["reports"]) == 3
    for rep in doc["reports"]:
        assert set(rep) == REPORT_FIELDS
        assert rep["pass"] is True
        assert rep["deviation_num"] == "0"
        assert rep["deviation_den"] == "1"


def test_check_unknown_suite(capsys):
    code, _, err = run(["check", "--suite", "nosuch"], capsys)
    assert code == EXIT_USAGE
    assert "nosuch" in err and "euler-pair" in err


def test_check_propagates_a_key_error_from_a_suite(monkeypatch):
    """Only an unknown suite name exits 2: a KeyError raised inside a runner
    is a fault of the suite, and `check` lets it through."""

    def faulty(rng, config):
        raise KeyError("missing")

    monkeypatch.setattr(SUITES["euler-pair"], "runner", faulty)
    for suite in ("euler-pair", "all"):
        with pytest.raises(KeyError, match="missing"):
            main(["check", "--suite", suite, "--trials", "1"])


def test_check_remark2_reports_residuals(capsys):
    code, out, _ = run(
        ["check", "--suite", "remark2", "--trials", "1", "--format", "json"], capsys
    )
    assert code in (EXIT_OK, EXIT_FAIL)
    doc = json.loads(out)
    ids = {r["id"] for r in doc["reports"]}
    assert ids == {f"remark2:item{i:02d}" for i in range(1, 12)}


def test_check_byte_identical_reports(tmp_path, capsys):
    paths = [tmp_path / "a.json", tmp_path / "b.json"]
    for p in paths:
        code, _, _ = run(
            [
                "check", "--suite", "remark2", "--trials", "2", "--seed", "42",
                "--report-path", str(p),
            ],
            capsys,
        )
        assert code == EXIT_OK
    assert paths[0].read_bytes() == paths[1].read_bytes()


def test_check_tsv_format(capsys):
    code, out, _ = run(
        ["check", "--suite", "shift-identity", "--trials", "2", "--format", "tsv"],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0].split("\t") == [
        "id", "mode", "seed", "trial", "pass", "deviation_num", "deviation_den", "notes"
    ]
    assert len(lines) == 3


def test_check_human_format(capsys):
    code, out, _ = run(
        ["check", "--suite", "shift-identity", "--trials", "1", "--format", "human"],
        capsys,
    )
    assert code == EXIT_OK
    assert "1/1 passed" in out


def test_env_seed_override(capsys, monkeypatch):
    code, out_default, _ = run(
        ["check", "--suite", "euler-pair", "--trials", "1"], capsys
    )
    monkeypatch.setenv("QHYPER_SEED", "99")
    code, out_env, _ = run(["check", "--suite", "euler-pair", "--trials", "1"], capsys)
    assert json.loads(out_default)["config"]["seed"] == 42
    assert json.loads(out_env)["config"]["seed"] == 99
    # explicit flag beats the environment
    code, out_flag, _ = run(
        ["check", "--suite", "euler-pair", "--trials", "1", "--seed", "7"], capsys
    )
    assert json.loads(out_flag)["config"]["seed"] == 7


def test_config_file(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "euler-pair", "trials": 2, "seed": 5}))
    code, out, _ = run(["check", "--config", str(cfg)], capsys)
    assert code == EXIT_OK
    doc = json.loads(out)
    assert doc["suite"] == "euler-pair"
    assert doc["config"]["trials"] == 2
    assert doc["config"]["seed"] == 5


def test_config_file_unknown_key(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"suite": "euler-pair", "bogus": 1}))
    code, _, err = run(["check", "--config", str(cfg)], capsys)
    assert code == EXIT_USAGE
    assert "bogus" in err


def test_eval_cauchy_polynomial(capsys):
    code, out, _ = run(
        ["eval", "P", "--n", "2", "--x", "1", "--y", "1/2", "--q", "1/3"], capsys
    )
    assert code == EXIT_OK
    assert out == "5/12 = 0.416666666667\n"


def test_eval_psi_trivial_and_n1(capsys):
    code, out, _ = run(
        [
            "eval", "Psi", "--n", "0", "--r", "0", "--s", "0",
            "--x", "2", "--y", "1", "--z", "3", "--q", "1/2",
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert out.startswith("1/1 ")
    code, out, _ = run(
        [
            "eval", "Psi", "--n", "1", "--r", "0", "--s", "0",
            "--x", "2", "--y", "1", "--z", "3", "--q", "1/2",
        ],
        capsys,
    )
    assert code == EXIT_OK
    assert out.startswith("4/1 ")


def test_eval_with_parameter_vectors(capsys):
    code, out, _ = run(
        [
            "eval", "Psi", "--n", "2", "--a", "1/2,1/3", "--b", "1/5",
            "--x", "1", "--y", "2", "--z", "1/4", "--q", "1/2",
        ],
        capsys,
    )
    assert code == EXIT_OK


def test_eval_arity_mismatch(capsys):
    code, _, err = run(
        [
            "eval", "Psi", "--n", "1", "--r", "2", "--a", "1/2",
            "--x", "1", "--y", "1", "--z", "1", "--q", "1/2",
        ],
        capsys,
    )
    assert code == EXIT_USAGE
    assert "upper" in err


def test_eval_missing_argument(capsys):
    code, _, err = run(["eval", "P", "--n", "2", "--x", "1", "--q", "1/3"], capsys)
    assert code == EXIT_USAGE
    assert "--y" in err


def test_expand_euler_zero(capsys):
    code, out, _ = run(
        ["expand", "euler", "--c", "0", "--order", "4", "--q", "1/2"], capsys
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "t^0\t1/1"
    assert all(line.endswith("\t0/1") for line in lines[1:])
    assert len(lines) == 5


def test_expand_cauchy_ratio_hand_value(capsys):
    # (yt;q)_inf/(xt;q)_inf = 1 + (x-y) t + P_2(x,y)/(q;q)_2 t^2 + ...
    code, out, _ = run(
        [
            "expand", "cauchy-ratio", "--x", "1/2", "--y", "1/3",
            "--q", "1/4", "--order", "2",
        ],
        capsys,
    )
    assert code == EXIT_OK
    lines = out.strip().split("\n")
    assert lines[0] == "t^0\t1/1"
    assert lines[1] == "t^1\t2/9"  # (1/2 - 1/3)/(1 - 1/4)
    # P_2(1/2,1/3)/( (3/4)(15/16) ) = (1/6)(5/12)/(45/64) = 8/81
    assert lines[2] == "t^2\t8/81"


def test_expand_gf_psi_sides_agree(capsys):
    flags = [
        "--a", "1/2,1/5", "--b", "1/7", "--x", "1/3", "--y", "1/4",
        "--z", "2/5", "--q", "1/2", "--order", "8",
    ]
    code, lhs, _ = run(["expand", "gf-psi-lhs", *flags], capsys)
    assert code == EXIT_OK
    code, rhs, _ = run(["expand", "gf-psi-rhs", *flags], capsys)
    assert code == EXIT_OK
    assert lhs == rhs


def test_expand_rphis_past_the_cap_is_one_error_line(capsys):
    """(a;q)_k with a = 3^-5000 at q = 63/64 carries about 7,900 bits per
    factor, so the rphis row's c_9 passes the 2^16-bit cap."""
    code, out, err = run(
        ["expand", "rphis-t", "--order", "24", "--q", "63/64", f"--a=2/3,1/{3**5000}",
         "--b=2/5", "--c=2/3"],
        capsys,
    )
    assert (code, out) == (EXIT_USAGE, "")
    assert err == "error: rational exceeds 65536 bits (num 71674b / den 71650b)\n"


PQ = ["--x", "1", "--y", "1/2"]

#: JSON files with one RunConfig field of the wrong type each.
CONFIGS = pathlib.Path(__file__).parent / "configs"


def bad_config(name):
    return ["check", "--config", str(CONFIGS / f"{name}.json"), "--suite", "euler-pair"]


#: `expand` targets whose exact products would reach 4M bits; each once ran
#: past 60 s and printed megabytes
HUGE_EXPANDS = [
    ["expand", "cauchy-ratio", "--x", "1e18900", "--y", "2", "--order", "64", "--q", "1/2"],
    ["expand", "euler", "--c", "1e18900", "--order", "64", "--q", "1/2"],
    ["expand", "euler-inv", "--c", "1e18900", "--order", "64", "--q", "1/2"],
]

#: Sums that read P_{n-k}(x, y) or Euler coefficients past the cap at a huge
#: x; each once ran for seconds or past 30 s, or printed 150 KB and more
HUGE_SUMS = [
    ["expand", "gf-psi-lhs", "--x", "1e18900", "--y", "2", "--z", "1", "--order", "64",
     "--q", "1/2"],
    ["expand", "gf-psi-rhs", "--x", "1e18900", "--y", "2", "--z", "1", "--order", "64",
     "--q", "1/2"],
    ["eval", "V", "--n", "30", "--q", "1/2", "--x", "1e5000", "--y", "2", "--z", "1",
     "--a", "1/3", "--b", "1/5"],
    ["eval", "Psi", "--n", "30", "--q", "1/2", "--x", "1e5000", "--y", "2", "--z", "1",
     "--a", "1/3", "--b", "1/5"],
]

#: (label, argv, environment, exit code) of inputs that once ended in a
#: traceback or a silent value
CLI_EDGE_CASES = [
    ("root-of-unity",
     ["eval", "phi_asc", "--n", "3", "--a1", "1/2", "--x", "1", "--q", "1"], {}, EXIT_USAGE),
    ("vanishing-lower",
     ["eval", "Psi", "--n", "3", "--b", "1", "--x", "1", "--y", "2", "--z", "1", "--q", "1/2"],
     {}, EXIT_USAGE),
    ("expand-q-1", ["expand", "euler", "--c", "1", "--q", "1"], {}, EXIT_USAGE),
    ("order-negative",
     ["expand", "euler", "--c", "1", "--q", "1/2", "--order", "-2"], {}, EXIT_USAGE),
    ("order-65",
     ["expand", "euler", "--c", "1", "--q", "1/2", "--order", "65"], {}, EXIT_USAGE),
    ("missing-config", ["check", "--config", "/missing.json"], {}, EXIT_USAGE),
    ("epsilon-bits",
     ["check", "--suite", "euler-pair", "--epsilon-bits", "100000000"], {}, EXIT_USAGE),
    ("env-seed", ["check", "--suite", "euler-pair"], {"QHYPER_SEED": "seven"}, EXIT_USAGE),
    ("q-0", ["eval", "P", "--n", "2", *PQ, "--q", "0"], {}, EXIT_USAGE),
    ("q-minus-1", ["eval", "P", "--n", "2", *PQ, "--q=-1"], {}, EXIT_USAGE),
    ("n-negative", ["eval", "P", "--n", "-3", *PQ, "--q", "1/3"], {}, EXIT_USAGE),
    ("n-129", ["eval", "P", "--n", "129", *PQ, "--q", "1/3"], {}, EXIT_USAGE),
    ("sa-arity",
     ["eval", "sa_phi", "--n", "2", "--a", "1/2", "--b", "1/3", *PQ, "--q", "1/3"],
     {}, EXIT_USAGE),
    ("float-overflow",
     ["eval", "Psi", "--n", "64", "--q", "1/2", "--a", "1/3,2/5", "--b", "1/7",
      "--x", "1", "--y", "2", "--z", "3"],
     {}, EXIT_OK),
    ("expand-euler-no-c", ["expand", "euler", "--q", "1/2"], {}, EXIT_USAGE),
    ("expand-euler-inv-no-c", ["expand", "euler-inv", "--q", "1/2"], {}, EXIT_USAGE),
    ("expand-cauchy-ratio-no-y",
     ["expand", "cauchy-ratio", "--q", "1/2", "--x", "1"], {}, EXIT_USAGE),
    ("expand-rphis-t-no-c", ["expand", "rphis-t", "--q", "1/2", "--a", "1/3"], {}, EXIT_USAGE),
    ("expand-gf-psi-lhs-no-z",
     ["expand", "gf-psi-lhs", "--q", "1/2", "--x", "1", "--y", "2"], {}, EXIT_USAGE),
    ("expand-gf-psi-rhs-no-x",
     ["expand", "gf-psi-rhs", "--q", "1/2", "--y", "2", "--z", "3"], {}, EXIT_USAGE),
    ("config-order-float", bad_config("order-float"), {}, EXIT_USAGE),
    ("config-trials-float", bad_config("trials-float"), {}, EXIT_USAGE),
    ("config-report-path-int", bad_config("report-path-int"), {}, EXIT_USAGE),
    ("config-seed-str", bad_config("seed-str"), {}, EXIT_USAGE),
    ("config-seed-float", bad_config("seed-float"), {}, EXIT_USAGE),
    ("config-epsilon-bits-bool", bad_config("epsilon-bits-bool"), {}, EXIT_USAGE),
    ("config-suite-int", ["check", "--config", str(CONFIGS / "suite-int.json")], {}, EXIT_USAGE),
    ("config-format-int", bad_config("format-int"), {}, EXIT_USAGE),
    ("x-1e999999", ["eval", "P", "--n", "3", "--q", "1/2", "--x", "1e999999", "--y", "2"],
     {}, EXIT_USAGE),
    ("x-1e100000", ["eval", "P", "--n", "3", "--q", "1/2", "--x", "1e100000", "--y", "2"],
     {}, EXIT_USAGE),
    ("x-1e-30000", ["eval", "P", "--n", "3", "--q", "1/2", "--x", "1e-30000", "--y", "2"],
     {}, EXIT_USAGE),
    ("q-past-the-cap", ["eval", "P", "--n", "3", *PQ, "--q=1/" + "9" * 20000], {}, EXIT_USAGE),
    *[(f"expand-{argv[1]}-1e18900", argv, {}, EXIT_USAGE) for argv in HUGE_EXPANDS],
    *[(f"{argv[0]}-{argv[1]}-{argv[argv.index('--x') + 1]}", argv, {}, EXIT_USAGE)
      for argv in HUGE_SUMS],
]


@pytest.mark.parametrize(
    "argv, env, expected", [c[1:] for c in CLI_EDGE_CASES], ids=[c[0] for c in CLI_EDGE_CASES],
)
def test_cli_edge_cases_keep_the_exit_code_contract(argv, env, expected, capsys, monkeypatch):
    for name, value in env.items():
        monkeypatch.setenv(name, value)
    code, out, err = run(argv, capsys)
    assert code == expected
    if expected == EXIT_USAGE:
        assert out == ""
        assert err.startswith("error: ") and err.count("\n") == 1
    else:  # a value outside the float range is printed exactly, without " = "
        assert err == ""
        assert " = " not in out and abs(Fraction(out.strip())) > 1e308


def test_eval_P_refuses_a_product_past_the_bit_cap_before_forming_it(capsys):
    """P_n(x, y) has at most n (h(x) + h(y) + 1) + C(n,2) h(q) bits, h the
    larger bit length of numerator and denominator.  At q = 1/2, y = 2 and
    n = 128 that bound is 128 (h(x) + 3) + 16256: h(x) = 382 reaches the cap
    of 65536 and is evaluated, h(x) = 383 and x = 1e5000 exit 2 at once."""
    argv = ["eval", "P", "--n", "128", "--q", "1/2", "--y", "2", "--x"]
    code, out, err = run(argv + [str(2**381)], capsys)
    assert (code, err) == (EXIT_OK, "")
    with _any_int_digits():
        value = Fraction(out.split(" ")[0])
    assert max(value.numerator.bit_length(), value.denominator.bit_length()) <= 65536
    for x in (str(2**382), "1e5000"):
        start = time.perf_counter()
        code, out, err = run(argv + [x], capsys)
        assert time.perf_counter() - start < 1, x
        assert (code, out) == (EXIT_USAGE, "") and err.count("\n") == 1, x
        assert err.startswith("error: P_128 may need ") and err.endswith("past the cap of 65536\n")


def test_expand_refuses_a_product_past_the_bit_cap_before_forming_it(capsys):
    """cauchy-ratio forms P_k(x, y) and the Euler pair c^k q^{C(k,2)}, k <= N,
    bounded as `eval P` bounds P_N(x, y) and (c;q)_N = P_N(1, c).  At q = 1/2,
    y = 2 and N = 64 the bound is 64 (h + 3) + 4032, h = h(x) or h(c) - 1, so
    h = 958 reaches the cap of 65536 and is expanded, and h = 959 exits 2 at
    once."""
    for argv in HUGE_EXPANDS:
        flag = argv.index("1e18900")
        e = 957 + (argv[1] != "cauchy-ratio")  # the largest x or c = 2^e with h = 958
        for value, expected in ((2**e, EXIT_OK), (2 ** (e + 1), EXIT_USAGE), ("1e18900", EXIT_USAGE)):
            start = time.perf_counter()
            code, out, err = run(argv[:flag] + [str(value)] + argv[flag + 1:], capsys)
            assert code == expected and time.perf_counter() - start < 1, (argv[1], value)
            if expected == EXIT_USAGE:
                assert out == "" and err.count("\n") == 1
                assert err.startswith(f"error: t^64 of {argv[1]} may need ")
                assert err.endswith("past the cap of 65536\n")


def test_a_sum_past_the_cap_stops_at_its_first_such_factor(capsys):
    """Every P_{n-k}(x, y) a sum reads, and every Euler coefficient of a
    series, is checked against the cap where it is formed, so each of these
    exits 2 with one line within a second."""
    for argv in HUGE_SUMS:
        start = time.perf_counter()
        code, out, err = run(argv, capsys)
        assert time.perf_counter() - start < 1, argv
        assert (code, out) == (EXIT_USAGE, "") and err.count("\n") == 1, argv
        assert err.startswith("error: rational exceeds 65536 bits "), argv


def test_each_subcommand_reads_its_choices_and_flags_from_one_table():
    """The choices of `eval` and `expand` are the keys of their tables, in
    order, and every flag a table entry reads is an option of its
    subcommand: "a", the parameter vector, with --b, --r and --s."""
    [subparsers] = [a for a in build_parser()._actions if isinstance(a, argparse._SubParsersAction)]
    for command, table in (("eval", cli.EVAL_FAMILIES), ("expand", cli.EXPAND_TARGETS)):
        actions = subparsers.choices[command]._actions
        [choices] = [a.choices for a in actions if a.choices and not a.option_strings]
        assert list(choices) == list(table), command
        options = {s for a in actions for s in a.option_strings}
        for key, (_, flags, _) in table.items():
            pv = {"--b", "--r", "--s"} if "a" in flags else set()
            assert {f"--{f}" for f in flags} | pv <= options, (command, key)


def test_importing_qhyper_keeps_the_int_digit_limit():
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    script = (
        "import sys; before = sys.get_int_max_str_digits(); "
        "import qhyper, qhyper.cli; print(sys.get_int_max_str_digits() == before)"
    )
    env = dict(os.environ, PYTHONPATH=src)
    out = subprocess.run([sys.executable, "-c", script], env=env, capture_output=True,
                         text=True, check=True)
    assert out.stdout.strip() == "True"



def test_python_m_qhyper_runs_the_cli():
    """`python -m qhyper` is `qhyper.cli.main`, with its exit code."""
    src = os.path.join(os.path.dirname(__file__), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src)

    def run(*argv):
        return subprocess.run([sys.executable, "-m", "qhyper", "check", "--suite", "euler-pair",
                               *argv], env=env, capture_output=True, text=True)

    ok = run("--trials", "1")
    assert ok.returncode == 0 and ok.stderr == ""
    assert json.loads(ok.stdout)["reports"][0]["pass"] is True
    bad = run("--order", "0")
    assert (bad.returncode, bad.stdout, bad.stderr) == (2, "", "error: order must be in 1..64\n")

def test_public_api_is_exactly_all():
    """Every name in `qhyper.__all__` resolves, once; every public name of
    the package is in it; and the only rphis sums left are the terminating,
    formal and ball ones (the ball one stays in `qhyper.hyper`)."""
    import qhyper
    from qhyper import hyper

    names = qhyper.__all__
    assert len(names) == len(set(names))
    assert all(hasattr(qhyper, name) for name in names)
    public = {
        name
        for name, value in vars(qhyper).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    }
    assert public == set(names)
    assert sorted(n for n in names if n.startswith("rphis_")) == [
        "rphis_series_in_t",
        "rphis_terminating",
    ]
    assert sorted(n for n in vars(hyper) if n.startswith("rphis_")) == [
        "rphis_ball",
        "rphis_series_in_t",
        "rphis_terminating",
    ]


def test_no_module_imports_a_name_it_does_not_use():
    """The unused-import check, as no linter is installed: every name that a
    module of the package imports at module level, other than from
    __future__, is read in it as a name.  `__init__` only re-exports, and
    `test_public_api_is_exactly_all` checks those."""
    unused = []
    for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py")):
        if path.name == "__init__.py":
            continue
        tree = ast.parse(path.read_text())
        names = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        for node in tree.body:
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            if isinstance(node, (ast.Import, ast.ImportFrom)):
                for alias in node.names:
                    bound = alias.asname or alias.name.split(".")[0]
                    if bound not in names:
                        unused.append(f"{path.name}: {bound}")
    assert unused == []


def test_every_module_level_function_is_read_exported_or_a_suite():
    """The orphaned-function check: every function defined at module level in
    the package is read somewhere in it (as a name or an attribute), is in
    `qhyper.__all__`, or is registered by `@suite`; and every name in
    `qhyper.__all__` is read somewhere in the package.  The exception is the
    export `qpoch_inf`, which only the benchmark's tests read."""
    import qhyper

    unread_exports = {"qpoch_inf"}
    trees = {
        path.name: ast.parse(path.read_text())
        for path in sorted(pathlib.Path(cli.__file__).parent.glob("*.py"))
    }
    read = set()
    for tree in trees.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)

    def is_suite(fn):
        return any(isinstance(d, ast.Call) and getattr(d.func, "id", None) == "suite"
                   for d in fn.decorator_list)

    orphans = [
        f"{name}: {node.name}"
        for name, tree in trees.items()
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
        and node.name not in read | set(qhyper.__all__)
        and not is_suite(node)
    ]
    assert orphans == []
    assert sorted(set(qhyper.__all__) - read - unread_exports) == []


def test_errored_row_has_no_deviation(capsys, monkeypatch):
    """An errored row is not read as exact agreement: JSON writes null for
    its deviation, TSV and human output write -, and the check exits 1."""

    def diverges(rng, config):
        raise DivergentSeriesError("terms regrew without reaching eps at k=9")

    monkeypatch.setattr(SUITES["lemma2-psi"], "runner", diverges)
    argv = ["check", "--suite", "lemma2-psi", "--trials", "1", "--format"]
    code, out, _ = run(argv + ["json"], capsys)
    assert code == EXIT_FAIL
    rep = json.loads(out)["reports"][0]
    assert rep["pass"] is False and rep["notes"].startswith("errored: terms regrew")
    assert rep["deviation_num"] is None and rep["deviation_den"] is None
    code, out, _ = run(argv + ["tsv"], capsys)
    assert code == EXIT_FAIL
    header, row = (line.split("\t") for line in out.splitlines())
    row = dict(zip(header, row))
    assert row["deviation_num"] == row["deviation_den"] == "-"
    code, out, _ = run(argv + ["human"], capsys)
    assert code == EXIT_FAIL
    assert " dev -  errored: terms regrew" in out and "dev 0" not in out


def test_check_json_renders_deviations_of_any_length(capsys, monkeypatch):
    huge = Fraction(10**70000 - 1)
    monkeypatch.setattr(
        SUITES["euler-pair"], "runner", lambda rng, config: [("euler-pair", huge, 1, "")]
    )
    before = sys.get_int_max_str_digits()
    code, out, _ = run(["check", "--suite", "euler-pair", "--trials", "1",
                        "--format", "json"], capsys)
    assert code == EXIT_FAIL
    assert json.loads(out)["reports"][0]["deviation_num"] == "9" * 70000
    assert sys.get_int_max_str_digits() == before


def test_report_json_dict_renders_deviations_of_any_length(capsys, monkeypatch):
    """A numeric row whose deviation has more than 4300 digits serialises
    outside the CLI as well, and equals the row that `check --format json`
    prints.  A ball deviation has about epsilon_bits + 64 bits, so the row
    is given one of 14,300 bits."""
    deep = Fraction(1, 3**9100)
    monkeypatch.setattr(
        SUITES["lemma2-psi"], "runner", lambda rng, config: [("lemma2-psi", deep, 1, "")]
    )
    before = sys.get_int_max_str_digits()
    report = run_suite("lemma2-psi", RunConfig(trials=1, epsilon_bits=160))[0]
    assert report.deviation.denominator.bit_length() > 14300  # over 4300 digits
    row = report.to_json_dict()
    assert sys.get_int_max_str_digits() == before
    code, out, _ = run(["check", "--suite", "lemma2-psi", "--trials", "1",
                        "--epsilon-bits", "160", "--format", "json"], capsys)
    assert code == EXIT_OK
    assert json.loads(out)["reports"][0] == row
    assert sys.get_int_max_str_digits() == before


def test_parser_is_built_once_and_calls_the_command_bound_now(capsys, monkeypatch):
    assert build_parser() is build_parser()
    seen = []
    monkeypatch.setattr(cli, "cmd_eval", lambda args: seen.append(args.family) or EXIT_FAIL)
    assert main(["eval", "P", "--n", "1", "--q", "1/2"]) == EXIT_FAIL
    assert seen == ["P"]
    monkeypatch.undo()
    code, out, _ = run(["eval", "P", "--n", "1", "--x", "2", "--y", "1", "--q", "1/2"], capsys)
    assert (code, out) == (EXIT_OK, "1/1 = 1\n")


CACHED_PARSER_ARGV = [
    ["eval", "Psi", "--n", "6", "--q", "1/2", "--a", "1/3,2/5", "--b", "1/7",
     "--x", "1", "--y", "2", "--z", "3"],
    ["expand", "euler", "--c", "2/3", "--q", "1/3", "--order", "5"],
    ["eval", "P", "--n", "2", "--x", "1", "--y", "1/2", "--q", "0"],
    ["eval", "V", "--n", "4", "--q", "2/5", "--x", "1/2", "--y", "3", "--z", "-1",
     "--a", "1/2,1/3", "--b", "1/5"],
    ["eval", "nosuch", "--n", "2", "--q", "1/3"],
    ["expand", "gf-psi-lhs", "--q", "1/2", "--a", "1/3", "--x", "1", "--y", "2",
     "--z", "1/5", "--order", "6"],
    ["eval", "P", "--n", "3", "--x", "2", "--y", "1/3", "--q", "-2/3"],
    ["expand", "euler", "--q", "1/3", "--order", "two"],
]


def interleaved_run(capsys):
    results = []
    for argv in CACHED_PARSER_ARGV:
        try:
            code = main(argv)
        except SystemExit as exc:
            code = ("SystemExit", exc.code)
        captured = capsys.readouterr()
        results.append((code, captured.out, captured.err))
    return results


def test_cached_parser_gives_what_a_fresh_parser_gives(capsys, monkeypatch):
    cached = interleaved_run(capsys)
    monkeypatch.setattr(cli, "build_parser", cli.build_parser.__wrapped__)
    fresh = interleaved_run(capsys)
    assert cached == fresh
    codes = [c for c, _, _ in cached]
    assert EXIT_OK in codes and EXIT_USAGE in codes and ("SystemExit", 2) in codes
