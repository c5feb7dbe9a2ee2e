"""Command line front end emitting deterministic JSON and CSV reports.

Representation conventions used throughout this module:

* Polynomial arguments are comma-separated base-10 coefficients ascending
  in degree ("1,0,1" is 1 + X^2); over an extension field each coefficient
  is a slash-separated vector over the prime subfield.  Reports echo
  polynomials in the same format.
* Every command names its field by --q, a prime power p^e, checked by its
  exact roots alone.  Only ap, interval and weil write polynomials down,
  so only they take --modulus M, which models F_q as F_p[t]/(M) when
  e > 1; without it they pick the default modulus.
* Integer ranges: "8" is a single point, "2:8" is inclusive with step 1,
  "50:400:x2" is geometric with integer factor 2, capped at the upper
  endpoint.
* Counts can exceed 2**53, so JSON carries them as decimal strings.  CSV
  cells are bare literals; every numeric CSV cell parses as JSON to the
  number the JSON report carries (big counts via their decimal strings).
* A command builds only the JSON payload; the CSV report is a view of it.
  The report's columns are the CSV header, and its path names the nested
  lists whose innermost items are the rows (an empty path: one row, read
  from the payload itself).  A cell is read from the innermost item on
  the path that has the column's key; if a "<key>_float" key sits beside
  it, the cell takes that value instead, and a list cell is joined with
  ";".
* Reports are byte-identical across repeated identical invocations: keys
  are inserted in fixed order, floats print via repr, rows are ordered by
  parameter tuple, and nothing reads the clock.  The table commands
  honor FFCOUNT_BUDGET_BYTES and the --budget override; a negative
  budget from either is a usage error.
* --out writes to a temporary file in the destination directory and
  renames it over the target, so readers never see a partial report; a
  target that cannot be written is a usage error and leaves no temp file.
* Each command runs only the layers it calls, since every command is a
  fresh interpreter that compiles what it runs: ``algebra``,
  ``characters``, ``apinterval`` and ``asym`` are lazy modules, run on
  first attribute access.  ``count`` and ``omega-stats`` run none of them;
  ``compare``, ``asym`` and ``qlimit`` run ``asym``; ``weil`` runs
  ``algebra`` and ``characters``; ``ap``, ``interval`` and ``selftest``
  run all four.  Only ``exactcount`` is imported eagerly: every
  command calls it (``max_omega``, Miller-Rabin for --q), and it holds the
  integer helpers, so the global counts need no polynomial layer.
  ``fractions`` is imported only where a Fraction is built:
  ``omega-stats``, ``qlimit`` and ``selftest``.

Exit codes: 0 success, 2 usage error, 3 budget exceeded, 4 consistency
failure (the exact and character counts of ap or interval differ, or a
selftest check failed).
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from collections import namedtuple
from importlib.util import LazyLoader, find_spec, module_from_spec
from itertools import chain, islice

from .errors import (
    BudgetExceededError,
    ConsistencyError,
    OutsideProvenRangeError,
    RootFindingError,
    UndefinedMainTermError,
)
from .exactcount import (
    _is_prime_mr,
    brute_force_count,
    cauchy_extract,
    euler_product_allfactors,
    euler_product_squarefree,
    max_omega,
    omega_mean_exact,
    omega_moments,
)


def _lazy(name: str):
    """The ffcount module `name`, registered now and run on its first attribute
    access; the module itself when it is already imported."""
    fullname = f"{__package__}.{name}"
    module = sys.modules.get(fullname)
    if module is None:
        spec = find_spec(fullname)
        spec.loader = LazyLoader(spec.loader)
        module = module_from_spec(spec)
        sys.modules[fullname] = module
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return module


algebra = _lazy("algebra")
characters = _lazy("characters")
apinterval = _lazy("apinterval")
asym = _lazy("asym")

__all__ = ["UsageError", "main"]

_BATCH = 4096  # report pieces per write: JSON encoder chunks or CSV lines


class UsageError(Exception):
    """Bad flag combinations or malformed argument values; exit code 2."""


class Report(namedtuple("Report", "payload columns path exit_code", defaults=((), 0))):
    """A command's result: the JSON payload, the CSV columns and row path, the exit code."""

    __slots__ = ()


def _parse_range(text: str, what: str) -> list[int]:
    parts = text.split(":")
    try:
        if len(parts) == 1:
            return [int(parts[0])]
        lo, hi = int(parts[0]), int(parts[1])
        if len(parts) == 2:
            if hi < lo:
                raise UsageError(f"{what}: empty range {text!r}")
            return list(range(lo, hi + 1))
        if len(parts) == 3:
            step = parts[2]
            if not step.startswith("x"):
                raise UsageError(f"{what}: step must look like x2, got {step!r}")
            fac = int(step[1:])
            if fac < 2 or lo < 1 or hi < lo:
                raise UsageError(f"{what}: bad geometric range {text!r}")
            out = []
            v = lo
            while v <= hi:
                out.append(v)
                v *= fac
            return out
    except ValueError:
        raise UsageError(f"{what}: cannot parse {text!r}") from None
    raise UsageError(f"{what}: cannot parse {text!r}")


def _int_root(n: int, e: int) -> int:
    """floor(n ** (1/e)) in integers for n >= 1, by Newton's method from above."""
    r = 1 << -(-n.bit_length() // e)
    while True:
        s = ((e - 1) * r + n // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def _prime_power(q: int) -> tuple[int, int]:
    """(p, e) with p prime and p^e = q, from the exact e-th roots of q.

    Primality is the Miller-Rabin test, which raises ValueError (a usage
    error) for a root at or above its proven bound of 3.3e24.
    """
    if q > 1:
        for e in range(q.bit_length() - 1, 0, -1):
            p = _int_root(q, e)
            if p**e == q and _is_prime_mr(p):
                return p, e
    raise UsageError(f"--q {q} is not a prime power")


def _q_arg(args) -> int | None:
    """--q, checked to be a prime power; None when it is not given."""
    if args.q is not None:
        _prime_power(args.q)
    return args.q


def _field(args) -> algebra.FieldSpec:
    """F_q for the commands that write polynomials down: F_p[t]/(M) for the
    --modulus M when it is given, else for the default modulus."""
    p, e = _prime_power(args.q)
    mod = None
    if args.modulus is not None:
        try:
            mod = tuple(int(c) for c in args.modulus.split(","))
        except ValueError:
            raise UsageError(f"--modulus: cannot parse {args.modulus!r}") from None
    return algebra.field(p, e, mod)


def _poly_arg(fld: algebra.FieldSpec, text: str, what: str) -> algebra.Poly:
    try:
        return algebra.parse_poly(fld, text)
    except ValueError as exc:
        raise UsageError(f"--{what}: bad polynomial {text!r} ({exc})") from None


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    if isinstance(v, list):
        return ";".join(map(_cell, v))
    return str(v)


def _csv_rows(items: tuple, path: tuple, columns: tuple):
    """The CSV rows below items, the chain of nested report items from the
    innermost out to the payload, along the rest of the row path; each row
    holds its columns' values, read by the rule of the module docstring."""
    if path:
        for item in items[0][path[0]]:
            yield from _csv_rows((item, *items), path[1:], columns)
    else:
        holders = [next(i for i in items if key in i) for key in columns]
        yield [h.get(key + "_float", h[key]) for h, key in zip(holders, columns)]


def _batches(report: Report, fmt: str):
    """The report's text a batch of _BATCH pieces (JSON encoder chunks or CSV
    lines) at a time, so that the whole text never exists at once."""
    if fmt == "json":
        pieces, tail = json.JSONEncoder(indent=2).iterencode(report.payload), ("\n",)
    else:
        import csv  # only CSV reports pay for the import

        # writerow returns what its file's write returns: here, the line itself
        w = csv.writer(argparse.Namespace(write=str), lineterminator="\n")
        rows = chain((report.columns,),
                     _csv_rows((report.payload,), report.path, report.columns))
        pieces, tail = (w.writerow([_cell(v) for v in row]) for row in rows), ()
    return chain(map("".join, iter(lambda: list(islice(pieces, _BATCH)), [])), tail)


def _emit(batches, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.writelines(batches)
        return
    import tempfile  # only --out pays for the import

    target = os.path.abspath(out_path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".ffcount-")
        with os.fdopen(fd, "w") as fh:
            fh.writelines(batches)
        os.replace(tmp, target)
    except OSError as exc:
        raise UsageError(f"--out: cannot write {out_path}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def cmd_count(args) -> Report:
    q = _q_arg(args)
    nrange = _parse_range(args.n, "--n")
    if min(nrange) < 0:
        raise UsageError("--n: degrees must be nonnegative")
    N = max(nrange)
    cap = max_omega(q, N) if N >= 1 else 0
    krange = _parse_range(args.k, "--k") if args.k else list(range(cap + 1))
    if min(krange) < 0:
        raise UsageError("--k: factor counts must be nonnegative")
    K = max(1, min(max(krange), cap))  # the builders need K >= 1
    build = euler_product_squarefree if args.mode == "squarefree" else euler_product_allfactors
    series = build(q, max(N, 1), K, budget=args.budget)
    payload = {
        "command": "count",
        "q": q,
        "mode": args.mode,
        "rows": [{"n": n, "k": k, "count": str(series.cell(n, k))}
                 for n in nrange for k in krange],
    }
    return Report(payload, ("q", "n", "k", "count"), ("rows",))


def cmd_asym(args) -> Report:
    q = _q_arg(args)
    cfg = asym.AnalyticConfig(A=args.A)
    nrange = _parse_range(args.n, "--n")
    krange = _parse_range(args.k, "--k")
    rows = []
    for n in nrange:
        for k in krange:
            try:
                m = asym.main_term_thm1(q, n, k, cfg, override=args.override)
            except OutsideProvenRangeError:
                raise UsageError(f"n = {n}, k = {k} is outside k <= A*log n; "
                                 "pass --override to evaluate anyway") from None
            rows.append({"n": n, "k": k, "main_term_lnAbs": m})
    payload = {"command": "asym", "q": q, "A": args.A, "rows": rows}
    return Report(payload, ("q", "n", "k", "main_term_lnAbs"), ("rows",))


def cmd_compare(args) -> Report:
    q = _q_arg(args)
    cfg = asym.AnalyticConfig(A=args.A)
    nrange = _parse_range(args.n, "--n")
    krange = _parse_range(args.k, "--k")
    if min(nrange) < 2 or min(krange) < 1:
        raise UsageError("compare needs n >= 2 and k >= 1")
    N = max(nrange)
    K = min(max(krange), max_omega(q, N))
    series = euler_product_squarefree(q, N, K, budget=args.budget)
    rows = []
    for n in nrange:
        for k in krange:
            exact = series.cell(n, k)
            try:  # one G(r) serves both columns
                core = asym._thm1(q, n, k, cfg, False)
            except OutsideProvenRangeError:
                raise UsageError(f"the row n = {n}, k = {k} is outside k <= A*log n; "
                                 "raise --A or lower --k") from None
            m = asym._main_term(*core)
            rows.append({"n": n, "k": k, "exact": str(exact), "main_term_lnAbs": m,
                         "ratio": asym.ratio_to_main(exact, m),
                         "normalized_error": asym._normalized_error(exact, n, k, *core)})
    payload = {"command": "compare", "q": q, "A": args.A, "rows": rows}
    return Report(
        payload,
        ("q", "n", "k", "exact", "main_term_lnAbs", "ratio", "normalized_error"),
        ("rows",))


def _dual_path_report(label, qy, exact, chars, term, payload) -> Report:
    """Finish an ap or interval report: the character-path check, the main
    term (evaluated with override outside its proven range, null where it
    is undefined) and the report tail.  chars(qy) and term(override=...)
    are the command's own.  The CSV row is every payload field but the
    command and paths_agree, which a written report always has true.
    """
    char_path = chars(qy)
    if char_path != exact:
        raise ConsistencyError(
            f"{label} paths disagree: exact {exact}, characters {char_path}")
    main_ln = None
    in_range = False
    if qy.n >= 2 and qy.k >= 1:
        try:  # the override retry, too, may find the term undefined
            try:
                main_ln = term()
                in_range = True
            except OutsideProvenRangeError:
                main_ln = term(override=True)
        except UndefinedMainTermError:
            pass
    payload.update(exact=str(exact), char_path=str(char_path), paths_agree=True,
                   main_term_lnAbs=main_ln, in_proven_range=in_range)
    return Report(payload, tuple(k for k in payload if k not in ("command", "paths_agree")))


def cmd_ap(args) -> Report:
    fld = _field(args)
    q = fld.q
    cfg = asym.AnalyticConfig(A=args.A)
    d = _poly_arg(fld, args.d, "d")
    g = _poly_arg(fld, args.g, "g")
    n, k = args.n, args.k
    qy = apinterval.APQuery(n, k, g, d)
    exact = apinterval.pi_k_ap_exact(qy, budget=args.budget)
    payload = {"command": "ap", "q": q, "d": d.text(), "g": g.text(), "n": n, "k": k}
    return _dual_path_report(
        "progression", qy, exact, apinterval.pi_k_ap_chars,
        lambda **kw: asym.main_term_thm2(n, k, d, cfg, **kw), payload)


def cmd_interval(args) -> Report:
    fld = _field(args)
    q = fld.q
    cfg = asym.AnalyticConfig(A=args.A)
    g = _poly_arg(fld, args.g, "g")
    n, k, h = g.degree, args.k, args.h
    qy = apinterval.IntervalQuery(n, k, g, h)
    exact = apinterval.pi_k_interval_exact(qy, budget=args.budget)
    payload = {"command": "interval", "q": q, "g": g.text(), "n": n, "h": h, "k": k}
    return _dual_path_report(
        "interval", qy, exact, apinterval.pi_k_interval_chars,
        lambda **kw: asym.main_term_thm3(q, n, k, h, cfg, **kw), payload)


def cmd_weil(args) -> Report:
    fld = _field(args)
    d = _poly_arg(fld, args.d, "d")
    # also on an order-1 group, which has no character to check
    characters._check_tol(args.tol)
    group = characters.unit_group(d)
    reports = [characters.weil_check(group, c, tol=args.tol) for c in range(1, group.order)]
    payload = {
        "command": "weil",
        "q": fld.q,
        "d": d.text(),
        "characters": reports,
        "all_ok": all(rep["ok"] for rep in reports),
        "coefficient_convention": characters.L_COEFF_NOTE,
    }
    columns = ("q", "d", "exponents", "re", "im", "modulus", "class", "degree_deficit", "ok")
    return Report(payload, columns, ("characters", "inverse_roots"))


def cmd_omega_stats(args) -> Report:
    q = _q_arg(args)
    nrange = _parse_range(args.n, "--n")
    if min(nrange) < 1:
        raise UsageError("--n: omega-stats needs n >= 1")
    N = max(nrange)
    series = euler_product_allfactors(q, N, max_omega(q, N), budget=args.budget)
    rows = []
    for n in nrange:
        mom = omega_moments(series, n)
        check = omega_mean_exact(q, n)
        if mom.mean != check:
            raise ConsistencyError(
                f"mean mismatch at n = {n}: table {mom.mean}, direct sum {check}")
        rows.append({
            "n": n,
            "mean": str(mom.mean),
            "mean_float": float(mom.mean),
            "variance": str(mom.variance),
            "variance_float": float(mom.variance),
        })
    payload = {"command": "omega-stats", "q": q, "rows": rows}
    return Report(payload, ("q", "n", "mean", "variance"), ("rows",))


def cmd_qlimit(args) -> Report:
    q = _q_arg(args)
    n, k = args.n, args.k
    s = asym.qlimit_sum(n, k)
    payload = {"command": "qlimit", "n": n, "k": k, "sum": str(s)}
    try:
        payload["sum_float"] = float(s)
    except OverflowError:  # past the double range only the exact sum is a number
        payload["sum_float"] = None
    columns = ("n", "k", "sum")
    if q is not None:
        payload["q"] = q
        payload["count_lnAbs"] = asym.qlimit_count(q, n, k, s)
        columns += ("q", "count_lnAbs")
    return Report(payload, columns)


def _selftest_checks():
    f2 = algebra.FieldSpec(2)
    f3 = algebra.FieldSpec(3)

    def global_vs_brute():
        series = euler_product_squarefree(2, 5)
        return all(
            series.row(n)[k] == brute_force_count(f2, n, k)
            for n in range(6) for k in range(max_omega(2, 5) + 1))

    def global_identities():
        N = 40
        sq = euler_product_squarefree(2, N)
        al = euler_product_allfactors(2, N)
        ok = all(sum(al.row(n)) == 2 ** n for n in range(1, N + 1))
        return ok and all(
            sum(sq.row(n)) == 2 ** n - 2 ** (n - 1) for n in range(2, N + 1))

    def special_values():
        ok = abs(asym.euler_F(1.0, 2) - 0.5) < 1e-10
        ok = ok and abs(asym.bigG(0.0, 2) - 1.0) < 1e-10
        ok = ok and abs(asym.bigH(0.0, 2) - 1.0) < 1e-10
        g45 = asym.gamma_real(4.5)
        return ok and abs(g45 - 3.5 * asym.gamma_real(3.5)) < 1e-12 * g45

    def weil_mod_x2_plus_1():
        group = characters.unit_group(algebra.parse_poly(f3, "1,0,1"))
        return group.order == 8 and all(
            characters.weil_check(group, c)["ok"] for c in range(1, group.order))

    def progression_paths():
        qy = apinterval.APQuery(4, 2, algebra.parse_poly(f3, "1"), algebra.parse_poly(f3, "0,1"))
        exact = apinterval.pi_k_ap_exact(qy)
        if exact != apinterval.ap_enumerate(qy):
            return False
        return apinterval.pi_k_ap_chars(qy) == exact

    def interval_involution():
        g = algebra.Poly.x(f2, 5)
        for h in range(5):
            for k in range(1, 6):
                qy = apinterval.IntervalQuery(5, k, g, h)
                if apinterval.pi_k_interval_exact(qy) != apinterval.interval_enumerate(qy):
                    return False
        return True

    def qlimit_harmonic():
        from fractions import Fraction  # only the selftest pays for the import

        return asym.qlimit_sum(5, 2) == Fraction(25, 12)

    def cauchy_roundtrip():
        series = euler_product_squarefree(2, 8, 2)
        exact = series.row(8)[2]
        approx = cauchy_extract(series, 8, 2, M=64)
        return abs(approx - exact) <= 1e-6 * max(1, exact)

    return [
        ("global_vs_brute", global_vs_brute),
        ("global_identities", global_identities),
        ("special_values", special_values),
        ("weil_mod_x2_plus_1", weil_mod_x2_plus_1),
        ("progression_paths", progression_paths),
        ("interval_involution", interval_involution),
        ("qlimit_harmonic", qlimit_harmonic),
        ("cauchy_roundtrip", cauchy_roundtrip),
    ]


def cmd_selftest(args) -> Report:
    checks = []
    for name, fn in _selftest_checks():
        try:
            checks.append({"name": name, "ok": bool(fn())})
        except Exception as exc:  # a crashed check is a failed check
            checks.append({"name": name, "ok": False,
                           "detail": f"{type(exc).__name__}: {exc}"})
    all_ok = all(check["ok"] for check in checks)
    payload = {"command": "selftest", "checks": checks, "ok": all_ok}
    return Report(payload, ("name", "ok"), ("checks",), exit_code=0 if all_ok else 4)


# each command's function and help, in the order that --help lists them
_COMMANDS = {
    "count": (cmd_count, "exact factor-count tables"),
    "asym": (cmd_asym, "predicted main terms in log space"),
    "compare": (cmd_compare, "exact counts against predictions"),
    "ap": (cmd_ap, "progression count, dual path"),
    "interval": (cmd_interval, "short interval count, dual path"),
    "weil": (cmd_weil, "L-polynomial inverse root moduli"),
    "omega-stats": (cmd_omega_stats, "moments of the factor count"),
    "qlimit": (cmd_qlimit, "large-q limit of the k-factor count"),
    "selftest": (cmd_selftest, "fast cross-module invariant suite"),
}


def _byte_count(text: str) -> int:
    """A --budget value: a whole number of bytes, at least 0; argparse names
    the flag when it refuses one."""
    try:
        budget = int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
    if budget < 0:
        raise argparse.ArgumentTypeError(f"a byte count must be >= 0, got {budget}")
    return budget


def _add_arguments(p, command: str) -> None:
    """The flags of one subcommand."""
    if command != "selftest":
        p.add_argument("--q", type=int, required=command != "qlimit",
                       help="field size, a prime power")
    if command in ("ap", "interval", "weil"):  # the commands that read polynomials
        p.add_argument("--modulus", help="F_q as F_p[t]/(M): M's coefficients over F_p, "
                                         "comma separated; a default M when omitted")
    if command == "count":
        p.add_argument("--n", required=True, help="degree or degree range")
        p.add_argument("--k", help="factor count or range; all columns when omitted")
        p.add_argument("--mode", choices=("squarefree", "all"), default="squarefree")
    elif command == "asym":
        p.add_argument("--n", required=True)
        p.add_argument("--k", required=True)
        p.add_argument("--A", type=float, default=2.0)
        p.add_argument("--override", action="store_true",
                       help="evaluate outside the proven k range")
    elif command == "compare":
        p.add_argument("--n", required=True)
        p.add_argument("--k", required=True)
        p.add_argument("--A", type=float, default=2.0)
    elif command == "ap":
        p.add_argument("--d", required=True, help="modulus polynomial")
        p.add_argument("--g", required=True, help="residue polynomial")
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--A", type=float, default=2.0)
        p.add_argument("--method", choices=("auto", "class"), default="auto",
                       help="irreducible class counts: both choices run the Newton "
                            "recurrence")
    elif command == "interval":
        p.add_argument("--g", required=True, help="monic center polynomial")
        p.add_argument("--h", type=int, required=True, help="radius degree")
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--A", type=float, default=2.0)
    elif command == "weil":
        p.add_argument("--d", required=True, help="modulus polynomial")
        p.add_argument("--tol", type=float, default=1e-6)
    elif command == "omega-stats":
        p.add_argument("--n", required=True)
    elif command == "qlimit":
        p.add_argument("--n", type=int, required=True)
        p.add_argument("--k", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report to this path atomically")
    if command in ("count", "compare", "ap", "interval", "omega-stats"):  # the table builders
        p.add_argument("--budget", type=_byte_count, default=None,
                       help="memory cap in bytes for the table builders")


def _build_parser(command: str | None = None) -> argparse.ArgumentParser:
    """Every subcommand, with the flags of command only (of all when None)."""
    parser = argparse.ArgumentParser(
        prog="ffcount",
        description="Counts of monic polynomials over F_q by number of "
                    "distinct irreducible factors, with asymptotic checks.")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, (_, text) in _COMMANDS.items():
        p = sub.add_parser(name, help=text)
        if command in (None, name):
            _add_arguments(p, name)
    return parser


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _build_parser(argv[0] if argv else "").parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        report = _COMMANDS[args.command][0](args)
        _emit(_batches(report, args.format), args.out)
        return report.exit_code
    except (UsageError, ValueError) as exc:
        print(f"ffcount: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"ffcount: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ConsistencyError, RootFindingError) as exc:
        print(f"ffcount: consistency failure: {exc}", file=sys.stderr)
        return 4

