"""Checks of ffcount reports against closed forms, oracles and each other.

Run outside the timed loop.  A Checker sees every report of one
repetition; besides checking each report on its own, it requires every
count that two reports share, (q, mode, n, k), to agree, and every main
term that `compare` and `asym` share to be the same float.

Closed forms are computed here, independently of the library.  The
enumeration oracles (brute_force_tables, ap_enumerate, interval_enumerate)
come from the library and run only where they enumerate at most
ORACLE_CAP polynomials.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache

from workloads import field_of

ORACLE_CAP = 4096


def _mobius(n: int) -> int:
    out, p = 1, 2
    while p * p <= n:
        if n % p == 0:
            n //= p
            if n % p == 0:
                return 0
            out = -out
        p += 1
    return -out if n > 1 else out


@lru_cache(maxsize=None)
def irreducibles(q: int, n: int) -> int:
    """Number of monic irreducibles of degree n over F_q (Gauss's formula)."""
    return sum(_mobius(n // d) * q ** d for d in range(1, n + 1) if n % d == 0) // n


@lru_cache(maxsize=None)
def _brute(q: int, n: int):
    from ffcount.exactcount import brute_force_tables
    return brute_force_tables(field_of(q), n)


class Checker:
    """Checks the reports of one repetition.

    problems lists (id, what is wrong) for reports that contradict a closed
    form, an oracle or another report.  disagreeing holds the ids of
    reports whose own character path differs from their exact count while
    claiming agreement: the float path's known defect, a failed operation
    rather than a wrong count.
    """

    def __init__(self):
        self.shared: dict[tuple, object] = {}
        self.problems: list[tuple[str, str]] = []
        self.disagreeing: set[str] = set()

    def check(self, cmd, text: str) -> None:
        try:
            rep = json.loads(text)
            getattr(self, "_" + cmd.sub.replace("-", "_"))(cmd, rep)
        except (ValueError, KeyError, TypeError) as exc:
            self._fail(cmd, f"unreadable report: {type(exc).__name__}: {exc}")

    def _fail(self, cmd, msg: str) -> None:
        self.problems.append((cmd.cid, f"{' '.join(cmd.argv)[:120]}: {msg}"))

    def _share(self, cmd, key: tuple, value) -> None:
        old = self.shared.setdefault(key, value)
        if old != value:
            self._fail(cmd, f"{key} is {value}, another report says {old}")

    def _count_rows(self, cmd, q: int, mode: str, rows, full: bool) -> None:
        table: dict[int, dict[int, int]] = {}
        for r in rows:
            n, k, c = r["n"], r["k"], int(r.get("count", r.get("exact")))
            table.setdefault(n, {})[k] = c
            self._share(cmd, ("count", q, mode, n, k), c)
        for n, row in table.items():
            if n >= 1 and 1 in row:
                want = irreducibles(q, n) if mode == "squarefree" else sum(
                    irreducibles(q, d) for d in range(1, n + 1) if n % d == 0)
                if row[1] != want:
                    self._fail(cmd, f"n={n} k=1 count {row[1]}, expected {want}")
            if 0 in row and row[0] != int(n == 0):
                self._fail(cmd, f"n={n} k=0 count {row[0]}")
            if full and n >= 1:
                want = q ** n if mode == "all" else (q if n == 1 else q ** n - q ** (n - 1))
                if sum(row.values()) != want:
                    self._fail(cmd, f"n={n} row sums to {sum(row.values())}, expected {want}")
            if n >= 1 and q ** n <= ORACLE_CAP:
                sq, al = _brute(q, n)
                ref = sq if mode == "squarefree" else al
                for k, c in row.items():
                    want = ref[k] if k < len(ref) else 0
                    if c != want:
                        self._fail(cmd, f"n={n} k={k} count {c}, enumeration gives {want}")

    def _count(self, cmd, rep) -> None:
        self._count_rows(cmd, rep["q"], rep["mode"], rep["rows"], cmd.opt("k") is None)

    def _compare(self, cmd, rep) -> None:
        q = rep["q"]
        self._count_rows(cmd, q, "squarefree", rep["rows"], False)
        for r in rep["rows"]:
            exact, ml = int(r["exact"]), r["main_term_lnAbs"]
            self._share(cmd, ("main1", q, rep["A"], r["n"], r["k"]), ml)
            want = math.exp(math.log(exact) - ml) if exact else 0.0
            if not math.isclose(r["ratio"], want, rel_tol=1e-9):
                self._fail(cmd, f"n={r['n']} k={r['k']} ratio {r['ratio']}, expected {want}")

    def _asym(self, cmd, rep) -> None:
        for r in rep["rows"]:
            if not math.isfinite(r["main_term_lnAbs"]):
                self._fail(cmd, f"n={r['n']} k={r['k']} main term is not finite")
            self._share(cmd, ("main1", rep["q"], rep["A"], r["n"], r["k"]), r["main_term_lnAbs"])

    def _omega_stats(self, cmd, rep) -> None:
        q = rep["q"]
        for r in rep["rows"]:
            n = r["n"]
            want = sum(Fraction(irreducibles(q, d), q ** d) for d in range(1, n + 1))
            if Fraction(r["mean"]) != want or r["mean_float"] != float(want):
                self._fail(cmd, f"n={n} mean {r['mean']}, expected {want}")
            if Fraction(r["variance"]) < 0:
                self._fail(cmd, f"n={n} negative variance {r['variance']}")

    def _dual(self, cmd, rep) -> None:
        if rep["exact"] != rep["char_path"] or rep["paths_agree"] is not True:
            self.disagreeing.add(cmd.cid)

    def _ap(self, cmd, rep) -> None:
        self._dual(cmd, rep)
        q, n, k = rep["q"], rep["n"], rep["k"]
        if q ** n <= ORACLE_CAP:
            from ffcount.algebra import parse_poly
            from ffcount.apinterval import APQuery, ap_enumerate
            fld = field_of(q)
            qy = APQuery(n, k, parse_poly(fld, rep["g"]), parse_poly(fld, rep["d"]))
            want = ap_enumerate(qy)
            if int(rep["exact"]) != want:
                self._fail(cmd, f"count {rep['exact']}, enumeration gives {want}")

    def _interval(self, cmd, rep) -> None:
        self._dual(cmd, rep)
        q, n, h, k = rep["q"], rep["n"], rep["h"], rep["k"]
        if q ** (h + 1) <= ORACLE_CAP:
            from ffcount.algebra import parse_poly
            from ffcount.apinterval import IntervalQuery, interval_enumerate
            qy = IntervalQuery(n, k, parse_poly(field_of(q), rep["g"]), h)
            want = interval_enumerate(qy)
            if int(rep["exact"]) != want:
                self._fail(cmd, f"count {rep['exact']}, enumeration gives {want}")

    def _weil(self, cmd, rep) -> None:
        from ffcount.algebra import parse_poly, phi_poly
        q = rep["q"]
        d = parse_poly(field_of(q), rep["d"])
        chars = rep["characters"]
        if len(chars) != phi_poly(d) - 1:
            self._fail(cmd, f"{len(chars)} non-principal characters, expected {phi_poly(d) - 1}")
        ok = True
        for ch in chars:
            if len(ch["inverse_roots"]) != d.degree - 1 - ch["degree_deficit"]:
                self._fail(cmd, f"character {ch['exponents']}: wrong number of inverse roots")
            for root in ch["inverse_roots"]:
                mod = math.hypot(root["re"], root["im"])
                dist = min(abs(mod - 1.0), abs(mod - math.sqrt(q)))
                ok = ok and dist <= 1e-6 and math.isclose(mod, root["modulus"], rel_tol=1e-12)
        if not ok or rep["all_ok"] is not True:
            self._fail(cmd, "an inverse root modulus is neither 1 nor sqrt(q)")
