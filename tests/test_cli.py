"""CLI exit codes, report formats, and JSON/CSV cross-format consistency."""

import csv
import io
import json
import math
import os
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from ffcount import algebra, apinterval, asym, characters, cli, exactcount
from ffcount.algebra import FieldSpec, Poly, parse_poly
from ffcount.apinterval import APQuery, IntervalQuery, ap_enumerate, interval_enumerate
from ffcount.errors import OutsideProvenRangeError, UndefinedMainTermError
from ffcount.exactcount import (
    brute_force_count,
    euler_product_squarefree,
    max_omega,
    omega_mean_exact,
)


def run_cli(capsys, argv):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_count_matches_brute_force(capsys):
    code, out, _ = run_cli(capsys, ["count", "--q", "2", "--n", "8", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["rows"] == [{"n": 8, "k": 2, "count": "60"}]
    assert int(payload["rows"][0]["count"]) == brute_force_count(FieldSpec(2), 8, 2)


def test_count_all_mode_row_sum(capsys):
    code, out, _ = run_cli(capsys, ["count", "--q", "3", "--n", "4", "--mode", "all"])
    assert code == 0
    payload = json.loads(out)
    assert sum(int(r["count"]) for r in payload["rows"]) == 3 ** 4


def test_count_at_degree_zero_and_factor_count_zero(capsys):
    # the table builders need K >= 1 even when every queried column is k = 0
    for mode in ("squarefree", "all"):
        for argv, want in ((["--n", "0"], [(0, 0, "1")]),
                           (["--n", "0", "--k", "0:2"], [(0, 0, "1"), (0, 1, "0"), (0, 2, "0")]),
                           (["--n", "5", "--k", "0"], [(5, 0, "0")])):
            code, out, err = run_cli(capsys, ["count", "--q", "2", "--mode", mode, *argv])
            assert code == 0, err
            rows = json.loads(out)["rows"]
            assert [(r["n"], r["k"], r["count"]) for r in rows] == want


def test_interval_at_degree_two_past_two_factors_has_no_main_term(capsys):
    # the main term divides by log(n-1), which is 0 at n = 2
    for q in ("2", "3"):
        for k in ("3", "4"):
            code, out, err = run_cli(
                capsys, ["interval", "--q", q, "--g", "1,1,1", "--h", "1", "--k", k])
            assert code == 0, err
            payload = json.loads(out)
            assert payload["exact"] == payload["char_path"] == "0"
            assert payload["main_term_lnAbs"] is None
            assert payload["in_proven_range"] is False


def test_every_small_query_exits_0_with_agreeing_paths(capsys):
    queries = [["count", "--q", "2", "--mode", mode, "--n", str(n), "--k", str(k)]
               for mode in ("squarefree", "all") for n in range(4) for k in range(6)]
    queries += [["ap", "--q", "2", "--d", "1,1", "--g", "1", "--n", str(n), "--k", str(k)]
                for n in range(4) for k in range(6)]
    queries += [["interval", "--q", q, "--g", ",".join(["1"] * (n + 1)),
                 "--h", str(h), "--k", str(k)]
                for q in ("2", "3") for n in range(1, 4) for h in range(n) for k in range(6)]
    failed = []
    for argv in queries:
        code, out, _ = run_cli(capsys, argv)
        payload = json.loads(out) if code == 0 else {}
        if code != 0 or payload.get("exact") != payload.get("char_path"):
            failed.append((argv, code))
    assert failed == []


def test_cli_import_loads_the_layers_and_no_boilerplate_modules():
    # every command starts a fresh interpreter and pays for what this loads;
    # the layers a command may not call are registered here but run on first use
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys; sys.path.insert(0, sys.argv[1]); import ffcount.cli; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert loaded.isdisjoint({"dataclasses", "inspect", "typing", "tempfile", "csv"})
    layers = ("algebra", "apinterval", "asym", "characters", "exactcount")
    assert {f"ffcount.{m}" for m in layers} <= loaded


_LAYERS_RUN = """
import contextlib, io, os, sys
ran = set()
sys.addaudithook(lambda event, args: event == "exec" and ran.add(
    getattr(args[0], "co_filename", "")))
sys.path.insert(0, sys.argv[1])
from ffcount import cli
with contextlib.redirect_stdout(io.StringIO()):
    code = cli.main(sys.argv[2:])
names = {os.path.basename(f)[:-3] for f in ran
         if os.path.basename(os.path.dirname(f)) == "ffcount"}
print(code, "fractions" in sys.modules,
      *[m for m in ("algebra", "characters", "apinterval", "asym") if m in names])
"""

_LAYERS_BY_COMMAND = [
    (["count", "--q", "2", "--n", "10"], [], False),
    (["omega-stats", "--q", "2", "--n", "5"], [], True),
    (["compare", "--q", "2", "--n", "10", "--k", "2"], ["asym"], False),
    (["asym", "--q", "2", "--n", "10", "--k", "2"], ["asym"], False),
    (["qlimit", "--q", "2", "--n", "5", "--k", "2"], ["asym"], True),
    (["weil", "--q", "3", "--d", "1,0,1"], ["algebra", "characters"], False),
    (["ap", "--q", "3", "--d", "0,1", "--g", "1", "--n", "4", "--k", "2"],
     ["algebra", "characters", "apinterval", "asym"], False),
    (["interval", "--q", "2", "--g", "1,0,0,0,1", "--h", "2", "--k", "2"],
     ["algebra", "characters", "apinterval", "asym"], False),
]


@pytest.mark.parametrize("argv, layers, fractions", _LAYERS_BY_COMMAND,
                         ids=[argv[0] for argv, _, _ in _LAYERS_BY_COMMAND])
def test_each_command_runs_only_the_layers_it_calls(argv, layers, fractions):
    # a fresh interpreter per command, as every command runs; the audit hook
    # sees each module body that runs, and fractions only where one is built
    src = os.path.dirname(os.path.dirname(cli.__file__))
    proc = subprocess.run([sys.executable, "-S", "-c", _LAYERS_RUN, src, *argv],
                          capture_output=True, text=True, timeout=60, check=True)
    code, frac, *ran = proc.stdout.split()
    assert (code, frac == "True", ran) == ("0", fractions, layers)


@pytest.mark.parametrize("imports", [
    "import ffcount.cli\nfrom ffcount.apinterval import ap_series",
    "import ffcount.apinterval\nimport ffcount.cli",
], ids=["cli-first", "apinterval-first"])
def test_lazy_layers_are_the_modules_every_import_finds(imports):
    # whichever comes first, the CLI and the library share one module per
    # layer, so there is one unit-group cache
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = f"""
import sys
sys.path.insert(0, sys.argv[1])
{imports}
import ffcount
from ffcount import apinterval, characters, cli
from ffcount.algebra import FieldSpec, parse_poly
assert cli.apinterval is sys.modules["ffcount.apinterval"] is ffcount.apinterval is apinterval
assert cli.characters is sys.modules["ffcount.characters"] is characters
d = parse_poly(FieldSpec(3), "1,0,1")
assert cli.characters.unit_group(d) is apinterval.unit_group(d)
print(characters.unit_group.cache_info().currsize)
"""
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    assert proc.stdout.split() == ["1"]


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["count", "--q", "2", "--n", "3", "--bogus"])
    assert code == 2


def test_missing_subcommand_exits_2(capsys):
    assert run_cli(capsys, [])[0] == 2


_ONE_PER_COMMAND = (
    "count --q 2 --n 5",
    "asym --q 2 --n 10 --k 2",
    "compare --q 2 --n 10 --k 2",
    "ap --q 3 --d 0,1 --g 1 --n 4 --k 2",
    "interval --q 2 --g 1,0,0,0,1 --h 2 --k 2",
    "weil --q 3 --d 1,0,1",
    "omega-stats --q 2 --n 6",
    "qlimit --n 5 --k 2",
    "selftest",
)


def test_parser_with_only_the_invoked_command_answers_as_the_full_one(monkeypatch, capsys):
    # main fills in the flags of argv[0] alone; help, usage errors and
    # reports must not tell it from the parser with every command filled in
    names = [argv.split()[0] for argv in _ONE_PER_COMMAND]
    argvs = [["--help"], ["bogus"], [], ["count", "--q", "2", "--n", "3", "--bogus"]]
    argvs += [[name, "--help"] for name in names] + [a.split() for a in _ONE_PER_COMMAND]
    full = cli._build_parser
    for argv in argvs:
        got = run_cli(capsys, argv)
        with monkeypatch.context() as m:
            m.setattr(cli, "_build_parser", lambda *_: full())
            want = run_cli(capsys, argv)
        assert got == want, argv
        assert got[0] == (2 if argv in argvs[1:4] else 0), argv  # the usage errors
    assert len(names) == len(set(names)) == len(cli._COMMANDS)


def test_malformed_poly_echoes_token(capsys):
    code, _, err = run_cli(capsys, ["weil", "--q", "3", "--d", "1,,1"])
    assert code == 2
    assert "1,,1" in err


def test_budget_flag_exits_3(capsys):
    code, out, _ = run_cli(capsys, ["count", "--q", "2", "--n", "50", "--budget", "64"])
    assert (code, out) == (3, "")
    assert run_cli(capsys, ["count", "--q", "2", "--n", "3", "--budget", "0"])[0] == 3


@pytest.mark.parametrize("argv", [
    ["count", "--q", "2", "--n", "3", "--budget", "-1"],
    ["ap", "--q", "3", "--d", "0,1", "--g", "1", "--n", "4", "--k", "2", "--budget", "-5"],
], ids=["count", "ap"])
def test_negative_budget_flag_exits_2(capsys, argv):
    code, out, err = run_cli(capsys, argv)
    assert (code, out) == (2, "") and "argument --budget" in err, err


def test_negative_budget_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("FFCOUNT_BUDGET_BYTES", "-1")
    code, out, err = run_cli(capsys, ["count", "--q", "2", "--n", "3"])
    assert (code, out) == (2, "") and "FFCOUNT_BUDGET_BYTES is negative" in err, err


def test_budget_env_exits_3(monkeypatch, capsys):
    monkeypatch.setenv("FFCOUNT_BUDGET_BYTES", "64")
    code, _, _ = run_cli(capsys, ["count", "--q", "2", "--n", "50"])
    assert code == 3


def test_budget_is_offered_only_where_a_table_is_built(capsys):
    # a 64-byte cap refuses the table of each of the five table commands;
    # the other four build none, so --budget is a usage error there
    tables = (["count", "--q", "2", "--n", "50"],
              ["compare", "--q", "2", "--n", "50", "--k", "2"],
              ["omega-stats", "--q", "2", "--n", "50"],
              ["ap", "--q", "2", "--d", "0,0,0,1", "--g", "1", "--n", "10", "--k", "2"],
              ["interval", "--q", "2", "--g", "1" + ",0" * 9 + ",1", "--h", "3", "--k", "2"])
    for argv in tables:
        assert run_cli(capsys, argv + ["--budget", "64"])[0] == 3, argv
    for argv in (["asym", "--q", "2", "--n", "10", "--k", "2"],
                 ["qlimit", "--q", "2", "--n", "10", "--k", "2"],
                 ["weil", "--q", "3", "--d", "1,0,1"],
                 ["selftest"]):
        code, _, err = run_cli(capsys, argv + ["--budget", "64"])
        assert code == 2 and "--budget" in err, argv


def test_malformed_budget_env_exits_2(monkeypatch, capsys):
    monkeypatch.setenv("FFCOUNT_BUDGET_BYTES", "abc")
    code, _, err = run_cli(capsys, ["count", "--q", "2", "--n", "5"])
    assert code == 2
    assert "FFCOUNT_BUDGET_BYTES is not an integer" in err


def test_counts_zero_by_degree_need_no_table(capsys):
    # a 10-byte budget admits no table, so only the counts that are zero
    # by degree alone (k = 0, or k past max_omega) can be answered
    n, cap = 10, max_omega(2, 10)
    base = {"ap": ["ap", "--q", "2", "--d", "0,0,0,1", "--g", "1", "--n", str(n)],
            "interval": ["interval", "--q", "2", "--g", "1" + ",0" * (n - 1) + ",1",
                         "--h", "3"]}
    for argv in base.values():
        for k in [0, *range(cap + 1, n + 1)]:
            code, out, err = run_cli(capsys, argv + ["--k", str(k), "--budget", "10"])
            assert code == 0, (argv, k, err)
            payload = json.loads(out)
            assert payload["exact"] == payload["char_path"] == "0"
        assert run_cli(capsys, argv + ["--k", "2", "--budget", "10"])[0] == 3


def test_corrupt_squarefree_row_exits_4(monkeypatch, capsys):
    # the all-factors table checks that each degree sums to q^n; one more
    # squarefree polynomial of degree 3 breaks that from degree 3 on
    build = exactcount.euler_product_squarefree

    def corrupt(*args, **kwargs):
        series = build(*args, **kwargs)
        series.rows[3] += 1
        return series

    monkeypatch.setattr(exactcount, "euler_product_squarefree", corrupt)
    code, out, err = run_cli(capsys, ["count", "--q", "2", "--n", "5", "--mode", "all"])
    assert (code, out) == (4, "") and "degree 3 does not sum to q^n" in err, err


def test_dual_path_mismatch_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(apinterval, "pi_k_ap_chars", lambda qy: -1)
    code, out, err = run_cli(
        capsys, ["ap", "--q", "3", "--d", "0,1", "--g", "1", "--n", "4", "--k", "2"])
    assert (code, out) == (4, "")  # nothing is written before the report is done
    assert "disagree" in err


def test_main_term_errors_are_told_apart_by_type(monkeypatch, capsys):
    # the override type takes the override path whatever its message says,
    # the undefined type reports no main term, also from the override retry,
    # and any other ValueError exits 2 even when its message asks for override
    argv = ["ap", "--q", "2", "--d", "1,1,1", "--g", "1", "--n", "6", "--k", "2"]

    def term_giving(plain, overridden):
        def term(n, k, d, cfg, override=False):
            got = overridden if override else plain
            if isinstance(got, Exception):
                raise got
            return got
        return term

    outside = OutsideProvenRangeError("no words to match")
    undefined = UndefinedMainTermError("no words to match")
    for plain, overridden, code, main_ln in (
            (outside, 1.5, 0, 1.5),
            (outside, undefined, 0, None),
            (undefined, 1.5, 0, None),
            (ValueError("outside the proven range; pass override"), 1.5, 2, None)):
        monkeypatch.setattr(asym, "main_term_thm2", term_giving(plain, overridden))
        got, out, _ = run_cli(capsys, argv)
        assert got == code, (plain, overridden)
        if code == 0:
            payload = json.loads(out)
            assert payload["main_term_lnAbs"] == main_ln
            assert payload["in_proven_range"] is False


def test_field_flag_conflict(capsys):
    # every command names its field by --q alone: --p and --e are no flags
    for args in _ONE_PER_COMMAND:
        for flag in ("--p", "--e"):
            argv = args.split() + [flag, "2"]
            code, out, err = run_cli(capsys, argv)
            assert (code, out) == (2, ""), argv
            assert f"unrecognized arguments: {flag} 2" in err, argv


def test_modulus_exits_2_on_table_commands(capsys):
    # only the commands that write polynomials down model F_q by a modulus
    for args in ("count --q 4 --n 3", "compare --q 4 --n 10 --k 2", "omega-stats --q 4 --n 6",
                 "asym --q 4 --n 10 --k 2", "qlimit --q 4 --n 5 --k 2", "qlimit --n 5 --k 2"):
        argv = args.split() + ["--modulus", "1,1,1"]
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert "unrecognized arguments: --modulus 1,1,1" in err, argv


def test_modulus_selects_the_model_of_the_field(capsys):
    # X^2 + 2X + 2 over F_3 and X^3 + X^2 + 1 over F_2 are not the default
    # moduli; the counts and the Weil report do not depend on the model
    assert algebra.default_modulus(3, 2) != (2, 2, 1)
    assert algebra.default_modulus(2, 3) != (1, 0, 1, 1)
    code, out, _ = run_cli(capsys, ["ap", "--q", "9", "--modulus", "2,2,1", "--d", "0,0,1",
                                    "--g", "1", "--n", "4", "--k", "2"])
    want = {"command": "ap", "q": 9, "d": "0/0,0/0,1/0", "g": "1/0", "n": 4, "k": 2,
            "exact": "50", "char_path": "50", "paths_agree": True,
            "main_term_lnAbs": 3.392162142881349, "in_proven_range": False}
    assert (code, out) == (0, json.dumps(want, indent=2) + "\n")
    weil = ["weil", "--q", "8", "--d", "1,1"]
    code, out, _ = run_cli(capsys, weil + ["--modulus", "1,0,1,1"])
    assert (code, out) == run_cli(capsys, weil)[:2] and code == 0


@pytest.mark.parametrize("argv, code, message", [
    (["weil", "--q", "4", "--modulus", "1,1,3", "--d", "0,1"], 2, "coefficient 3 outside [0, 2)"),
    (["weil", "--q", "4", "--modulus", "1,1,-1", "--d", "0,1"], 2, "outside [0, 2)"),
    (["weil", "--q", "4", "--modulus", "1,0,1", "--d", "0,1"], 2, "not irreducible"),
    (["weil", "--q", "4", "--modulus", "1,1", "--d", "0,1"], 2, "degree e = 2"),
    (["weil", "--q", "3", "--modulus", "1,1", "--d", "0,1"], 2, "only meaningful for e > 1"),
    (["ap", "--q", "4", "--modulus", "1,x,1", "--d", "0,1", "--g", "1", "--n", "2", "--k", "1"],
     2, "--modulus: cannot parse '1,x,1'"),
    (["weil", "--q", "128", "--modulus", "1,0,0,0,0,0,0,1", "--d", "0,1"], 3,
     "extension field size 128 exceeds the table limit 64"),
], ids=["coefficient", "negative", "reducible", "degree", "prime-field", "parse", "limit"])
def test_modulus_is_checked_by_the_field_commands(capsys, argv, code, message):
    # X^7 + 1 is reducible over F_2, but F_128 is refused before it is read
    got, out, err = run_cli(capsys, argv)
    assert (got, out) == (code, "") and err.startswith("ffcount: ") and message in err, err


def test_prime_power_shorthand(capsys):
    code, out, _ = run_cli(capsys, ["count", "--q", "4", "--n", "3", "--k", "1"])
    assert code == 0
    # (4^3 - 4) / 3 irreducible cubics over F_4
    assert json.loads(out)["rows"][0]["count"] == "20"


def test_q_not_prime_power(capsys):
    assert run_cli(capsys, ["count", "--q", "6", "--n", "3"])[0] == 2


def test_prime_power_check_is_fast_on_large_fields(capsys):
    # exact integer roots and Miller-Rabin, not trial division up to sqrt(q)
    t0 = time.monotonic()
    code, out, _ = run_cli(capsys, ["count", "--q", "1000000000000000003", "--n", "2"])
    assert code == 0 and time.monotonic() - t0 < 2
    assert json.loads(out)["q"] == 10**18 + 3
    # 3^20: count needs only the integer q, weil the field's tables
    assert run_cli(capsys, ["count", "--q", "3486784401", "--n", "2"])[0] == 0
    assert run_cli(capsys, ["weil", "--q", "3486784401", "--d", "0,1"])[0] == 3
    assert run_cli(capsys, ["count", "--q", "100", "--n", "2"])[0] == 2
    assert cli._prime_power(2**100) == (2, 100)
    # past the proven range of the Miller-Rabin bases: a usage error
    code, _, err = run_cli(capsys, ["count", "--q", str(10**25 + 13), "--n", "2"])
    assert code == 2 and "3.3e24" in err


def test_commands_that_need_only_q_build_no_field_tables(capsys):
    # past the extension-table limit of 64, count and the analytic
    # commands still run; the group commands keep the limit and exit 3
    code, out, _ = run_cli(capsys, ["count", "--q", "128", "--n", "6"])
    assert code == 0
    rows = json.loads(out)["rows"]
    assert [int(r["count"]) for r in rows] == list(euler_product_squarefree(128, 6).row(6))
    for argv in (["asym", "--q", "128", "--n", "10", "--k", "2"],
                 ["compare", "--q", "128", "--n", "6", "--k", "2"],
                 ["omega-stats", "--q", "128", "--n", "4"],
                 ["qlimit", "--q", "128", "--n", "5", "--k", "2"]):
        code, out, _ = run_cli(capsys, argv)
        assert code == 0 and json.loads(out)["q"] == 128, argv
    for argv in (["ap", "--q", "128", "--d", "0,1", "--g", "1", "--n", "3", "--k", "1"],
                 ["interval", "--q", "128", "--g", "0,1", "--h", "0", "--k", "1"],
                 ["weil", "--q", "128", "--d", "0,1"]):
        assert run_cli(capsys, argv)[0] == 3, argv


BIG_P = 10**24 + 7  # prime, below the proven range of the Miller-Rabin bases


@pytest.mark.parametrize("argv, code, message", [
    (["count", "--q", str(BIG_P**13), "--n", "2"], 3, "600-bit coefficient cap"),
    (["qlimit", "--q", str(BIG_P**13), "--n", "3", "--k", "2"], 0, ""),
    (["asym", "--q", str(BIG_P**13), "--n", "3", "--k", "2"], 2,
     f"q = {BIG_P**13} exceeds the double range"),
    (["ap", "--q", str(BIG_P**13), "--d", "0,1", "--g", "1", "--n", "3", "--k", "1"], 3,
     "exceeds the table limit 64"),
], ids=["count", "qlimit", "asym", "ap"])
def test_large_extension_degrees_search_no_default_modulus(capsys, argv, code, message):
    # (10^24 + 7)^13: a default modulus would be searched for among p^13
    # monics, so the commands that need only q must not look for one, and
    # the field commands must refuse the field before they do
    t0 = time.monotonic()
    got, out, err = run_cli(capsys, argv)
    assert time.monotonic() - t0 < 10
    assert got == code and message in err
    assert "Traceback" not in err and (out == "") == (code != 0)


# an irreducible of degree 42 over F_2: its unit group of order 2^42 - 1
# is refused before any irreducible of degree up to 21 is listed
D42 = "1,1,0,0,1,1,1,1,0,1,1,1,1,0,0,1,1,1,0,0,1,0,1,1,1,0,0,1,1,0,1,1,0,0,0,1,0,1,0,0,1,0,1"


# one case per fixed cap a command reaches within seconds: unit group
# order, coefficient bits, extension size and table bytes (the only one a
# flag sets); the enumeration cap has a library test in test_algebra
@pytest.mark.parametrize("argv, message", [
    (["ap", "--q", "2", "--d", ",".join(["0"] * 18 + ["1"]), "--g", "1", "--n", "20",
      "--k", "2"], "unit group order 131072 exceeds budget 100000"),
    (["ap", "--q", "2", "--d", D42, "--g", "1", "--n", "3", "--k", "1"],
     "unit group order 4398046511103 exceeds budget 100000"),
    (["weil", "--q", "2", "--d", D42], "unit group order 4398046511103 exceeds budget 100000"),
    (["count", "--q", "2", "--n", "601"], "exceeds the 600-bit coefficient cap"),
    (["weil", "--q", "128", "--d", "0,1"], "extension field size 128 exceeds the table limit 64"),
    (["count", "--q", "2", "--n", "50", "--budget", "64"], "exceeds the budget 64"),
    (["ap", "--q", "3", "--d", "0,1", "--g", "1", "--n", "12", "--k", "2", "--budget", "64"],
     "group series of estimated size 2788 bytes exceeds the budget 64"),
], ids=["group-order", "group-order-irreducible-ap", "group-order-irreducible-weil", "bits",
         "extension", "bytes", "class-table-bytes"])
def test_every_fixed_cap_exits_3_naming_it(capsys, argv, message):
    t0 = time.monotonic()
    code, out, err = run_cli(capsys, argv)
    assert time.monotonic() - t0 < 10
    assert (code, out) == (3, "")
    assert err.startswith("ffcount: budget exceeded: ") and message in err, err


X18 = ",".join(["0"] * 18 + ["1"])  # X^18: a unit group of order 2^17, past its cap


@pytest.mark.parametrize("args, count", [
    (f"ap --q 2 --d {X18} --g 1 --n 5 --k 0", "0"),
    (f"ap --q 2 --d {X18} --g 1 --n 3 --k 9", "0"),
    (f"ap --q 2 --d {X18} --g 1 --n 0 --k 0", "1"),
    ("interval --q 2 --g " + ",".join(["1"] + ["0"] * 19 + ["1"]) + " --h 1 --k 0", "0"),
], ids=["k-0", "k-past-max-omega", "degree-0", "interval-order-2^18"])
def test_count_zero_by_degree_builds_no_group_past_its_cap(capsys, args, count):
    # neither path builds the unit group when no term is live, so such a
    # count answers at every group size; the degree-0 one is the empty product
    code, out, err = run_cli(capsys, args.split())
    assert code == 0, err
    payload = json.loads(out)
    assert (payload["exact"], payload["char_path"], payload["paths_agree"]) == (count, count, True)


def test_qlimit_computes_its_sum_once(monkeypatch, capsys):
    calls = []
    real = asym.qlimit_sum

    def counted(n, k):
        calls.append((n, k))
        return real(n, k)

    monkeypatch.setattr(asym, "qlimit_sum", counted)
    code, out, _ = run_cli(capsys, ["qlimit", "--q", "101", "--n", "50", "--k", "3"])
    assert code == 0 and "count_lnAbs" in json.loads(out)
    assert calls == [(50, 3)]


def test_huge_q_is_refused_before_its_power_is_built(capsys):
    # 2^100000 has more bits than the 600-bit cap allows at N = 1, so q^N
    # is never built; its 30,103 digits need the int-to-str limit lifted
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        t0 = time.monotonic()
        code, out, err = run_cli(capsys, ["count", "--q", str(2**100000), "--n", "1"])
        elapsed = time.monotonic() - t0
    finally:
        sys.set_int_max_str_digits(limit)
    assert elapsed < 2
    assert (code, out) == (3, "") and "600-bit coefficient cap" in err, err


@pytest.mark.parametrize("argv, code", [
    ("asym --q 2 --n 10 --k 300 --override", 2),
    ("asym --q 2 --n 10 --k 400 --override", 2),
    ("compare --q 2 --n 10 --k 300 --A 1000", 2),
    ("compare --q 2 --n 10 --k 400 --A 1000", 2),
    ("ap --q 3 --d 0,1 --g 1 --n 4 --k 300", 0),
    ("interval --q 2 --g 1,0,0,0,1 --h 2 --k 1000", 0),
])
def test_main_term_outside_the_double_range(capsys, argv, code):
    # G(r) underflows to 0 near r = 130 and the Lanczos gamma overflows past
    # r = 141: asym and compare refuse the term, ap and interval report null
    got, out, err = run_cli(capsys, argv.split())
    assert got == code, err
    if code == 2:
        assert out == "" and "main term is outside the double range" in err, err
    else:
        payload = json.loads(out)
        assert payload["main_term_lnAbs"] is None
        assert payload["in_proven_range"] is False


@pytest.mark.parametrize("A", ["inf", "1e308", "1e200", "nan", "1"])
def test_A_outside_its_range_exits_2_naming_A(capsys, A):
    for argv in (["asym", "--q", "2", "--n", "10", "--k", "2"],
                 ["compare", "--q", "2", "--n", "10", "--k", "2"],
                 ["ap", "--q", "3", "--d", "0,1", "--g", "1", "--n", "4", "--k", "2"],
                 ["interval", "--q", "2", "--g", "1,0,0,0,1", "--h", "2", "--k", "2"]):
        code, out, err = run_cli(capsys, argv + ["--A", A])
        assert (code, out) == (2, ""), argv
        assert err.startswith("ffcount: A must satisfy"), err


def test_range_parser():
    assert cli._parse_range("8", "x") == [8]
    assert cli._parse_range("1:3", "x") == [1, 2, 3]
    assert cli._parse_range("5:5", "x") == [5]
    assert cli._parse_range("50:400:x2", "x") == [50, 100, 200, 400]
    assert cli._parse_range("3:20:x3", "x") == [3, 9]
    with pytest.raises(cli.UsageError):
        cli._parse_range("4:2", "x")
    with pytest.raises(cli.UsageError):
        cli._parse_range("1:8:2", "x")
    with pytest.raises(cli.UsageError):
        cli._parse_range("a", "x")


def _csv_view(payload, columns, path):
    """The CSV rows a report's payload should give, as values: the chains of
    nested items along path, flattened level by level, each column read from
    the innermost item of its chain that has it, or from its _float twin."""
    chains = [[payload]]
    for key in path:
        chains = [chain + [item] for chain in chains for item in chain[-1][key]]
    rows = []
    for chain in chains:
        row = []
        for col in columns:
            holder = [item for item in chain if col in item][-1]
            row.append(holder.get(col + "_float", holder[col]))
        rows.append(row)
    return rows


def _csv_text(v):
    """A CSV cell as the report contract spells it."""
    if v is None:
        return ""
    if isinstance(v, bool):
        return json.dumps(v)
    if isinstance(v, list):
        return ";".join(_csv_text(x) for x in v)
    return repr(v) if isinstance(v, float) else str(v)


# each command: an argv, its CSV columns and the nested lists its rows come from
_CSV_CASES = {
    "count": (["count", "--q", "2", "--n", "119:120", "--k", "0:2"],
              ["q", "n", "k", "count"], ["rows"]),
    "asym": (["asym", "--q", "2", "--n", "10:20:x2", "--k", "1:2"],
             ["q", "n", "k", "main_term_lnAbs"], ["rows"]),
    "compare": (["compare", "--q", "2", "--n", "10:20:x2", "--k", "1:2", "--A", "2"],
                ["q", "n", "k", "exact", "main_term_lnAbs", "ratio", "normalized_error"],
                ["rows"]),
    "ap": (["ap", "--q", "2", "--d", "0,0,0,1", "--g", "1", "--n", "10", "--k", "9"],
           ["q", "d", "g", "n", "k", "exact", "char_path", "main_term_lnAbs",
            "in_proven_range"], []),
    "interval": (["interval", "--q", "2", "--g", "0,0,0,0,0,0,1", "--h", "3", "--k", "2"],
                 ["q", "g", "n", "h", "k", "exact", "char_path", "main_term_lnAbs",
                  "in_proven_range"], []),
    "weil": (["weil", "--q", "2", "--d", "0,0,0,0,1"],
             ["q", "d", "exponents", "re", "im", "modulus", "class", "degree_deficit", "ok"],
             ["characters", "inverse_roots"]),
    "omega-stats": (["omega-stats", "--q", "3", "--n", "1:4"],
                    ["q", "n", "mean", "variance"], ["rows"]),
    "qlimit": (["qlimit", "--n", "5", "--k", "2", "--q", "101"],
               ["n", "k", "sum", "q", "count_lnAbs"], []),
    "selftest": (["selftest"], ["name", "ok"], ["checks"]),
}


@pytest.mark.parametrize("command", _CSV_CASES)
def test_csv_cells_match_json(capsys, command):
    # every CSV cell is the JSON value in the report's literal spelling: a
    # decimal string verbatim, and parsing as JSON to the number it carries
    # (the _float twin where there is one), a list joined with ";"
    argv, columns, path = _CSV_CASES[command]
    code, jout, _ = run_cli(capsys, argv)
    assert code == 0
    code, cout, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0
    header, *lines = list(csv.reader(io.StringIO(cout)))
    assert header == columns
    want = _csv_view(json.loads(jout), columns, path)
    assert len(lines) == len(want) > 0
    for cells, values in zip(lines, want):
        assert len(cells) == len(values)
        for cell, v in zip(cells, values):
            if v is None:
                assert cell == ""
            elif isinstance(v, str):
                assert cell == v
                if v.isdigit():
                    assert json.loads(cell) == int(v)
            elif isinstance(v, list):
                assert [json.loads(x) for x in cell.split(";")] == v
            else:
                assert json.loads(cell) == v
    if command == "compare":
        assert len(lines) == 4


def test_csv_big_count_cell_roundtrips(capsys):
    argv = ["count", "--q", "2", "--n", "120", "--k", "1"]
    _, jout, _ = run_cli(capsys, argv)
    _, cout, _ = run_cli(capsys, argv + ["--format", "csv"])
    want = int(json.loads(jout)["rows"][0]["count"])
    cell = cout.strip().split("\n")[1].split(",")[3]
    assert want > 2 ** 53
    assert json.loads(cell) == want


def test_reports_byte_identical(capsys):
    argv = ["weil", "--q", "3", "--d", "1,0,1"]
    _, first, _ = run_cli(capsys, argv)
    _, second, _ = run_cli(capsys, argv)
    assert first == second


def test_out_writes_file_and_cleans_up(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, ["qlimit", "--n", "5", "--k", "2", "--out", str(target)])
    assert code == 0
    assert out == ""
    payload = json.loads(target.read_text())
    assert payload["sum"] == "25/12"
    assert os.listdir(tmp_path) == ["report.json"]


with open(os.path.join(os.path.dirname(__file__), "golden", "cases.json"),
          encoding="utf-8") as _fh:
    _GOLDEN_ARGVS = [case["argv"] for case in json.load(_fh)]

_BIG_ALL = ["count", "--q", "5", "--n", "232:258", "--mode", "all"]


def _one_string_report(argv):
    """The report rendered whole, as the CLI once built it before writing:
    json.dumps with indent 2 and a newline, or one CSV buffer."""
    args = cli._build_parser().parse_args(argv)
    report = cli._COMMANDS[args.command][0](args)
    if args.format == "json":
        return json.dumps(report.payload, indent=2) + "\n"
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(report.columns)
    for row in _csv_view(report.payload, report.columns, report.path):
        w.writerow([_csv_text(v) for v in row])
    return buf.getvalue()


@pytest.mark.parametrize("argv", _GOLDEN_ARGVS + [_BIG_ALL, _BIG_ALL + ["--format", "csv"]],
                         ids=lambda argv: " ".join(argv))
def test_reports_written_in_batches_equal_the_whole_text(tmp_path, capsys, argv):
    code, out, _ = run_cli(capsys, argv)
    target = tmp_path / "report"
    assert run_cli(capsys, [*argv, "--out", str(target)])[:2] == (code, "")
    assert code == 0
    assert out.encode() == target.read_bytes() == _one_string_report(argv).encode()


def test_json_report_is_written_a_batch_of_chunks_at_a_time(monkeypatch, capsys):
    # the order-242 weil report: about 188 KB in about 25,000 encoder chunks
    argv = ["weil", "--q", "3", "--d", "2,0,2,2,0,1"]
    writes = []

    class Counting(io.StringIO):
        def write(self, text):
            writes.append(text)
            return super().write(text)

    monkeypatch.setattr(sys, "stdout", Counting())
    assert cli.main(argv) == 0
    monkeypatch.undo()
    args = cli._build_parser().parse_args(argv)
    payload = cli._COMMANDS["weil"][0](args).payload
    chunks = sum(1 for _ in json.JSONEncoder(indent=2).iterencode(payload))
    assert chunks > cli._BATCH
    assert 1 < len(writes) <= math.ceil(chunks / cli._BATCH) + 1
    assert "".join(writes) == json.dumps(payload, indent=2) + "\n"


def test_out_to_an_unwritable_target_exits_2(tmp_path, capsys):
    # a missing directory, and a directory in the target's place
    (tmp_path / "taken").mkdir()
    for target in (tmp_path / "missing" / "x.json", tmp_path / "taken"):
        code, out, err = run_cli(
            capsys, ["count", "--q", "2", "--n", "3", "--out", str(target)])
        assert (code, out) == (2, "")
        assert err.startswith("ffcount: --out: ") and err.count("\n") == 1
        assert os.listdir(tmp_path) == ["taken"]  # no temporary file left


def test_weil_example(capsys):
    code, out, _ = run_cli(capsys, ["weil", "--q", "3", "--d", "1,0,1"])
    assert code == 0
    payload = json.loads(out)
    assert len(payload["characters"]) == 7
    assert payload["all_ok"] is True
    for ch in payload["characters"]:
        assert ch["ok"] is True
        for root in ch["inverse_roots"]:
            assert root["class"] in ("1", "sqrt_q")


def test_weil_tol_outside_range_exits_2(capsys):
    # every comparison with NaN is false, so a NaN tol would pass every root;
    # X + 1 over F_2 has a unit group of order 1 and so no character to check
    for q, d in (("3", "1,0,1"), ("2", "1,1")):
        for tol in ("nan", "inf", "-1"):
            code, out, err = run_cli(capsys, ["weil", "--q", q, "--d", d, "--tol", tol])
            assert (code, out) == (2, ""), (d, tol)
            assert err.startswith("ffcount: tol must satisfy")


def test_ap_schema_and_value(capsys):
    code, out, _ = run_cli(
        capsys, ["ap", "--q", "3", "--d", "0,1", "--g", "1", "--n", "6", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    for key in ("exact", "char_path", "main_term_lnAbs", "in_proven_range"):
        assert key in payload
    f3 = FieldSpec(3)
    qy = APQuery(6, 2, parse_poly(f3, "1"), parse_poly(f3, "0,1"))
    assert int(payload["exact"]) == ap_enumerate(qy)
    assert payload["char_path"] == payload["exact"]
    assert payload["paths_agree"] is True
    assert payload["in_proven_range"] is False


def test_ap_factors_its_modulus_once(capsys):
    # the unit group, phi(d) and the main term's G_d all read the prime
    # degrees of d, which one distinct-degree factorization supplies
    algebra.prime_degrees.cache_clear()
    characters.unit_group.cache_clear()
    argv = ["ap", "--q", "3", "--d", "1,1,1,0,1", "--g", "1,0,0,1", "--n", "8", "--k", "2"]
    assert run_cli(capsys, argv)[0] == 0
    info = algebra.prime_degrees.cache_info()
    assert info.misses == 1 and info.hits >= 2, info


def test_ap_method_flag_same_report(capsys):
    base = ["ap", "--q", "3", "--d", "0,1", "--g", "1", "--n", "5", "--k", "2"]
    reports = []
    for method in ("auto", "class"):
        code, out, _ = run_cli(capsys, base + ["--method", method])
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]
    # enumeration is no production path: direct is not a choice
    code, out, err = run_cli(capsys, base + ["--method", "direct"])
    assert (code, out) == (2, "")
    assert "argument --method: invalid choice:" in err and "direct" in err, err
    choices = err.split("choose from", 1)[1]
    assert "auto" in choices and "class" in choices, err


def test_ap_auto_method_does_not_exit_3_past_the_sieve_budget(capsys):
    # the sieve for 3^14 monics is over the budget, so auto must not pick it
    base = ["ap", "--q", "3", "--d", "1,1", "--g", "1", "--n", "14", "--k", "3"]
    reports = []
    for extra in ([], ["--method", "class"]):
        code, out, _ = run_cli(capsys, base + extra)
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]
    assert json.loads(reports[0])["exact"] == "396430"


def test_ap_on_a_unit_group_of_order_2047(capsys):
    # d is irreducible of degree 11 over F_2; no |G| x |G| table is built
    base = ["ap", "--q", "2", "--d", "1,0,0,0,0,0,0,0,0,1,0,1", "--g", "1,0,1,1,1",
            "--n", "4", "--k", "2"]
    reports = []
    for extra in ([], ["--method", "class"]):
        code, out, _ = run_cli(capsys, base + extra)
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]
    f2 = FieldSpec(2)
    qy = APQuery(4, 2, parse_poly(f2, "1,0,1,1,1"), parse_poly(f2, base[4]))
    assert json.loads(reports[0])["exact"] == "1" == str(ap_enumerate(qy))


def test_interval_sweeps_each_character_once(monkeypatch, capsys):
    # over F_4 the interval has 2(q-1) = 6 progression terms mod X^2,
    # which share one twisted series per character of the order-12 group;
    # q^n = 4^4 needs a single prime
    calls = []
    real = apinterval.twisted_series

    def counted(c, *args, **kwargs):
        calls.append(c)
        return real(c, *args, **kwargs)

    monkeypatch.setattr(apinterval, "twisted_series", counted)
    code, out, _ = run_cli(
        capsys, ["interval", "--q", "4", "--g", "1,0/1,1,0,1", "--h", "2", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["char_path"] == payload["exact"]
    assert len(calls) == len(set(calls)) == 12


@pytest.mark.parametrize("argv", [
    ["ap", "--q", "5", "--d", "1,1", "--g", "1", "--n", "445", "--k", "1"],
    ["interval", "--q", "2", "--g", ",".join(["0"] * 1040 + ["1"]), "--h", "1039",
     "--k", "1"],
], ids=["ap", "interval"])
def test_character_path_past_the_float_range_keeps_the_exit_codes(argv):
    # q^n is past the double range; the character path is exact mod
    # word-size primes, so it must agree with the exact count and exit 0
    src = os.path.dirname(os.path.dirname(cli.__file__))
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-m", "ffcount", *argv],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr
    payload = json.loads(proc.stdout)
    assert payload["char_path"] == payload["exact"]
    assert payload["paths_agree"] is True


@pytest.mark.parametrize("n", [45, 60, 120])
def test_deep_ap_counts_pass_the_exact_character_check(capsys, n):
    # counts past 2^40 once failed the float character path with exit 4
    code, out, err = run_cli(
        capsys, ["ap", "--q", "2", "--d", "1,1,1", "--g", "1", "--n", str(n), "--k", "3"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["char_path"] == payload["exact"]
    assert int(payload["exact"]) > 2**40


def test_interval_matches_enumeration(capsys):
    code, out, _ = run_cli(
        capsys,
        ["interval", "--q", "2", "--g", "0,0,0,0,0,0,1", "--h", "3", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    qy = IntervalQuery(6, 2, Poly.x(FieldSpec(2), 6), 3)
    assert int(payload["exact"]) == interval_enumerate(qy) == 4
    assert payload["char_path"] == "4"
    assert payload["in_proven_range"] is False


def test_omega_stats_mean_and_csv(capsys):
    code, out, _ = run_cli(capsys, ["omega-stats", "--q", "2", "--n", "6"])
    assert code == 0
    row = json.loads(out)["rows"][0]
    assert row["mean"] == str(omega_mean_exact(2, 6))
    code, cout, _ = run_cli(
        capsys, ["omega-stats", "--q", "2", "--n", "6", "--format", "csv"])
    cells = cout.strip().split("\n")[1].split(",")
    assert json.loads(cells[2]) == row["mean_float"]
    assert json.loads(cells[3]) == row["variance_float"]


def test_qlimit_with_field(capsys):
    code, out, _ = run_cli(capsys, ["qlimit", "--n", "5", "--k", "2", "--q", "101"])
    assert code == 0
    payload = json.loads(out)
    assert payload["sum"] == "25/12"
    assert payload["q"] == 101
    assert payload["count_lnAbs"] > 0


def test_qlimit_answers_at_every_k(capsys):
    # the exact sum is one Stirling row, with no recursion depth in k
    code, out, err = run_cli(capsys, ["qlimit", "--n", "496", "--k", "496"])
    assert code == 0, err
    assert json.loads(out)["sum"] == "1"
    # past the double range the exact sum is still reported, its float is null
    code, out, err = run_cli(capsys, ["qlimit", "--n", "2000", "--k", "1000"])
    assert code == 0, err
    payload = json.loads(out)
    assert payload["sum_float"] is None
    assert Fraction(payload["sum"]) > 2 ** 1024


def test_interval_takes_its_degree_from_g(capsys):
    argv = ["interval", "--q", "2", "--g", "1,0,1", "--h", "1", "--k", "1"]
    code, out, err = run_cli(capsys, argv)
    assert code == 0, err
    assert json.loads(out)["n"] == 2
    code, _, err = run_cli(capsys, argv + ["--n", "2"])
    assert code == 2
    assert "unrecognized arguments: --n 2" in err


def test_selftest_all_green(capsys):
    code, out, _ = run_cli(capsys, ["selftest"])
    assert code == 0
    payload = json.loads(out)
    assert payload["ok"] is True
    assert all(c["ok"] for c in payload["checks"])
    assert len(payload["checks"]) == 8


def test_asym_range_guard_and_override(capsys):
    code, _, _ = run_cli(capsys, ["asym", "--q", "2", "--n", "10", "--k", "9"])
    assert code == 2
    code, out, _ = run_cli(
        capsys, ["asym", "--q", "2", "--n", "10", "--k", "9", "--override"])
    assert code == 0
    assert json.loads(out)["rows"][0]["k"] == 9


def test_asym_outside_the_proven_range_names_the_override_flag(capsys):
    # the library asks for its keyword; the CLI names its own flag
    code, out, err = run_cli(capsys, ["asym", "--q", "2", "--n", "10", "--k", "300"])
    assert (code, out) == (2, "")
    assert err == ("ffcount: n = 10, k = 300 is outside k <= A*log n; "
                   "pass --override to evaluate anyway\n")


def test_compare_outside_the_proven_range_names_its_flags(capsys):
    # compare has no override: the row comes back in range through --A or --k
    code, out, err = run_cli(capsys, ["compare", "--q", "2", "--n", "10", "--k", "9"])
    assert (code, out) == (2, "")
    assert err == ("ffcount: the row n = 10, k = 9 is outside k <= A*log n; "
                   "raise --A or lower --k\n")
