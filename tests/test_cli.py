"""CLI exit codes, report formats, and JSON/CSV cross-format consistency."""

import json
import os
import subprocess
import sys
import time

import pytest

from ffcount import algebra, apinterval, characters, cli
from ffcount.algebra import FieldSpec, Poly, parse_poly
from ffcount.apinterval import APQuery, IntervalQuery, ap_enumerate, interval_enumerate
from ffcount.asym import Magnitude
from ffcount.errors import OutsideProvenRangeError, UndefinedMainTermError
from ffcount.exactcount import brute_force_count, max_omega, omega_mean_exact


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
    # every command starts a fresh interpreter and pays for what this loads
    src = os.path.dirname(os.path.dirname(cli.__file__))
    code = "import sys; sys.path.insert(0, sys.argv[1]); import ffcount.cli; print(*sys.modules)"
    proc = subprocess.run([sys.executable, "-S", "-c", code, src],
                          capture_output=True, text=True, timeout=60, check=True)
    loaded = set(proc.stdout.split())
    assert loaded.isdisjoint({"dataclasses", "inspect", "typing", "tempfile", "csv"})
    layers = ("algebra", "apinterval", "asym", "characters", "exactcount")
    assert {f"ffcount.{m}" for m in layers} <= loaded


def test_unknown_flag_exits_2(capsys):
    code, _, _ = run_cli(capsys, ["count", "--q", "2", "--n", "3", "--bogus"])
    assert code == 2


def test_missing_subcommand_exits_2(capsys):
    assert run_cli(capsys, [])[0] == 2


def test_malformed_poly_echoes_token(capsys):
    code, _, err = run_cli(capsys, ["weil", "--q", "3", "--d", "1,,1"])
    assert code == 2
    assert "1,,1" in err


def test_budget_flag_exits_3(capsys):
    code, _, _ = run_cli(capsys, ["count", "--q", "2", "--n", "50", "--budget", "64"])
    assert code == 3


def test_budget_env_exits_3(monkeypatch, capsys):
    monkeypatch.setenv("FFCOUNT_BUDGET_BYTES", "64")
    code, _, _ = run_cli(capsys, ["count", "--q", "2", "--n", "50"])
    assert code == 3


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


def test_dual_path_mismatch_exits_4(monkeypatch, capsys):
    monkeypatch.setattr(cli, "pi_k_ap_chars", lambda qy: -1)
    code, _, err = run_cli(
        capsys, ["ap", "--q", "3", "--d", "0,1", "--g", "1", "--n", "4", "--k", "2"])
    assert code == 4
    assert "disagree" in err


def test_main_term_errors_are_told_apart_by_type(monkeypatch, capsys):
    # the override type takes the override path whatever its message says,
    # the undefined type reports no main term, and any other ValueError
    # exits 2 even when its message asks for override
    argv = ["ap", "--q", "2", "--d", "1,1,1", "--g", "1", "--n", "6", "--k", "2"]

    def raising(exc):
        def term(n, k, d, cfg, override=False):
            if override and isinstance(exc, OutsideProvenRangeError):
                return Magnitude.from_ln(1.5)
            raise exc
        return term

    for exc, code, main_ln in ((OutsideProvenRangeError("no words to match"), 0, 1.5),
                               (UndefinedMainTermError("no words to match"), 0, None),
                               (ValueError("outside the proven range; pass override"), 2, None)):
        monkeypatch.setattr(cli, "main_term_thm2", raising(exc))
        got, out, _ = run_cli(capsys, argv)
        assert got == code, exc
        if code == 0:
            payload = json.loads(out)
            assert payload["main_term_lnAbs"] == main_ln
            assert payload["in_proven_range"] is False


def test_field_flag_conflict(capsys):
    assert run_cli(capsys, ["count", "--q", "2", "--p", "2", "--n", "3"])[0] == 2


def test_extension_flags_without_p_exit_2(capsys):
    # --e and --modulus refine --p; --q picks its own modulus, and qlimit
    # runs without a field, so neither may drop them silently
    for argv in (["count", "--q", "4", "--n", "3", "--e", "3"],
                 ["count", "--q", "4", "--n", "3", "--modulus", "1,1,1"],
                 ["qlimit", "--n", "5", "--k", "2", "--e", "3"]):
        code, out, err = run_cli(capsys, argv)
        assert (code, out) == (2, ""), argv
        assert err.startswith("ffcount: ")


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
    assert run_cli(capsys, ["count", "--q", "3486784401", "--n", "2"])[0] == 3  # 3^20
    assert run_cli(capsys, ["count", "--q", "100", "--n", "2"])[0] == 2
    assert cli._prime_power(2**100) == (2, 100)
    # past the proven range of the Miller-Rabin bases: a usage error
    code, _, err = run_cli(capsys, ["count", "--q", str(10**25 + 13), "--n", "2"])
    assert code == 2 and "3.3e24" in err


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


def test_compare_csv_cells_match_json(capsys):
    argv = ["compare", "--q", "2", "--n", "10:20:x2", "--k", "1:2", "--A", "2"]
    code, jout, _ = run_cli(capsys, argv)
    assert code == 0
    code, cout, _ = run_cli(capsys, argv + ["--format", "csv"])
    assert code == 0
    lines = cout.strip().split("\n")
    assert lines[0] == "q,n,k,exact,main_term_lnAbs,ratio,normalized_error"
    payload = json.loads(jout)
    assert len(lines) - 1 == len(payload["rows"]) == 4
    for line, row in zip(lines[1:], payload["rows"]):
        cells = line.split(",")
        assert json.loads(cells[1]) == row["n"]
        assert json.loads(cells[2]) == row["k"]
        assert json.loads(cells[3]) == int(row["exact"])
        assert json.loads(cells[4]) == row["main_term_lnAbs"]
        assert json.loads(cells[5]) == row["ratio"]
        assert json.loads(cells[6]) == row["normalized_error"]


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


def test_ap_method_flag_same_report(capsys):
    base = ["ap", "--q", "3", "--d", "0,1", "--g", "1", "--n", "5", "--k", "2"]
    reports = []
    for method in ("direct", "class"):
        code, out, _ = run_cli(capsys, base + ["--method", method])
        assert code == 0
        reports.append(out)
    assert reports[0] == reports[1]


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


def test_default_ap_method_does_not_sieve(monkeypatch, capsys):
    # the README example: 3^12 monics fit the sieve budget, but the class
    # counts come from the Newton recurrence alone
    def refuse(*args, **kwargs):
        raise RuntimeError("the production path enumerated irreducibles")

    monkeypatch.setattr(algebra, "enumerate_irreducibles", refuse)
    monkeypatch.setattr(characters, "enumerate_irreducibles", refuse)
    characters.unit_group.cache_clear()  # no class counts cached by earlier tests
    code, out, _ = run_cli(
        capsys, ["ap", "--q", "3", "--d", "0,1", "--g", "1", "--n", "12", "--k", "2"])
    assert code == 0
    payload = json.loads(out)
    assert payload["exact"] == payload["char_path"] == "51770"


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
