"""Golden reports: stdout bytes and exit codes of fixed CLI invocations.

golden/cases.json names each case and its argv; golden/<name>.out holds
the report it must print.  The reports were recorded before the
duplicated production paths (global and class-wise Euler products, the
class-count method choice, the interval reduction) were merged, so they
pin the behavioural contract across refactors: the same argument list
must give the same bytes and the same exit code.
"""

import json
import os

import pytest

from ffcount import algebra, characters, cli

GOLDEN = os.path.join(os.path.dirname(__file__), "golden")

with open(os.path.join(GOLDEN, "cases.json"), encoding="utf-8") as _fh:
    CASES = json.load(_fh)


@pytest.mark.parametrize("case", CASES, ids=[c["name"] for c in CASES])
def test_golden_report(case, capsys):
    code = cli.main(case["argv"])
    out = capsys.readouterr().out
    with open(os.path.join(GOLDEN, case["name"] + ".out"), "rb") as fh:
        expected = fh.read()
    assert code == case["exit_code"]
    assert out.encode("utf-8") == expected


PROGRESSION_CASES = [c for c in CASES if c["argv"][0] in ("ap", "interval", "weil")]


@pytest.mark.parametrize("case", PROGRESSION_CASES, ids=[c["name"] for c in PROGRESSION_CASES])
def test_no_command_sieves(case, capsys, monkeypatch):
    # a modulus is factored by distinct-degree factorization and the class
    # counts come from the Newton recurrence, so no report lists
    # irreducibles: the sieve behind enumerate_irreducibles and factor_stats
    # raises, and every report keeps its golden bytes
    def refuse(*args, **kwargs):
        raise RuntimeError("the production path enumerated irreducibles")

    monkeypatch.setattr(algebra, "_irreducible_coeff_table", refuse)
    characters.unit_group.cache_clear()  # no group factored by earlier tests
    test_golden_report(case, capsys)
