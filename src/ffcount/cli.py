"""Command line front end emitting deterministic JSON and CSV reports.

Representation conventions used throughout this module:

* Polynomial arguments are comma-separated base-10 coefficients ascending
  in degree ("1,0,1" is 1 + X^2); over an extension field each coefficient
  is a slash-separated vector over the prime subfield.  Reports echo
  polynomials in the same format.
* The field comes from --q <prime power> or from --p with optional --e
  and --modulus; ap, interval and weil pick the default modulus when the
  exponent exceeds 1 and none is given.  --q with any of --p, --e,
  --modulus, or --e or --modulus without --p, is a usage error.
* Integer ranges: "8" is a single point, "2:8" is inclusive with step 1,
  "50:400:x2" is geometric with integer factor 2, capped at the upper
  endpoint.
* Counts can exceed 2**53, so JSON carries them as decimal strings.  CSV
  cells are bare literals; every numeric CSV cell parses as JSON to the
  number the JSON report carries (big counts via their decimal strings).
* Reports are byte-identical across repeated identical invocations: keys
  are inserted in fixed order, floats print via repr, rows are ordered by
  parameter tuple, and nothing reads the clock.  The table commands
  honor FFCOUNT_BUDGET_BYTES and the --budget override.
* --out writes to a temporary file in the destination directory and
  renames it over the target, so readers never see a partial report; a
  target that cannot be written is a usage error and leaves no temp file.
* Each command runs only the layers it calls, since every command is a
  fresh interpreter that compiles what it runs: ``characters``,
  ``apinterval`` and ``asym`` are lazy modules, run on first attribute
  access.  ``count`` and ``omega-stats`` run none of them; ``compare``,
  ``asym`` and ``qlimit`` run ``asym``; ``weil`` runs ``characters``;
  ``ap``, ``interval`` and ``selftest`` run all three.  ``algebra`` and
  ``exactcount`` are imported eagerly, because every command calls them
  (field and q parsing, ``max_omega``), so deferring them would save no
  command anything.  ``fractions`` is imported only where a Fraction is
  built: ``omega-stats``, ``qlimit`` and ``selftest``.

Exit codes: 0 success, 2 usage error, 3 budget exceeded, 4 consistency
failure (the exact and character counts of ap or interval differ, or a
selftest check failed).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import sys
from collections import namedtuple
from importlib.util import LazyLoader, find_spec, module_from_spec

from .algebra import FieldSpec, Poly, _field_modulus, _is_prime_mr, field, parse_poly
from .errors import (
    BudgetExceededError,
    ConsistencyError,
    OutsideProvenRangeError,
    RootFindingError,
    UndefinedMainTermError,
)
from .exactcount import (
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


characters = _lazy("characters")
apinterval = _lazy("apinterval")
asym = _lazy("asym")

__all__ = ["UsageError", "main"]


class UsageError(Exception):
    """Bad flag combinations or malformed argument values; exit code 2."""


class Report(namedtuple("Report", "payload header rows exit_code", defaults=((), 0))):
    """A command's result: the JSON payload, the CSV header and rows, the exit code."""

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


def _field_args(args, required: bool = True) -> tuple | None:
    """(p, e, modulus) from the field flags, the modulus None unless
    --modulus gives it; None when no field is given and none is required."""
    mod = None
    if args.q is not None:
        if (args.p, args.e, args.modulus) != (None, None, None):
            raise UsageError("--q cannot be combined with --p, --e or --modulus")
        p, e = _prime_power(args.q)
    elif args.p is not None:
        p, e = args.p, args.e if args.e is not None else 1
        if args.modulus is not None:
            try:
                mod = tuple(int(c) for c in args.modulus.split(","))
            except ValueError:
                raise UsageError(f"--modulus: cannot parse {args.modulus!r}") from None
    elif args.e is not None or args.modulus is not None:
        raise UsageError("--e and --modulus need --p")
    elif required:
        raise UsageError("a field is required: pass --q or --p")
    else:
        return None
    return p, e, mod


def _q_from_args(args, required: bool = True) -> int | None:
    """q for the commands whose recurrences need only the integer: the field
    flags are checked as a FieldSpec checks them, but no default modulus is
    searched for and no tables are built, so their size limit does not apply."""
    spec = _field_args(args, required)
    if spec is None:
        return None
    _field_modulus(*spec)
    return spec[0] ** spec[1]


def _poly_arg(fld: FieldSpec, text: str, what: str) -> Poly:
    try:
        return parse_poly(fld, text)
    except ValueError as exc:
        raise UsageError(f"--{what}: bad polynomial {text!r} ({exc})") from None


def _cell(v) -> str:
    if v is None:
        return ""
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, float):
        return repr(v)
    return str(v)


def _render(report: Report, fmt: str) -> str:
    if fmt == "json":
        return json.dumps(report.payload, indent=2) + "\n"
    import csv  # only CSV reports pay for the import

    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(report.header)
    for row in report.rows:
        w.writerow([_cell(v) for v in row])
    return buf.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path is None:
        sys.stdout.write(text)
        return
    import tempfile  # only --out pays for the import

    target = os.path.abspath(out_path)
    tmp = None
    try:
        fd, tmp = tempfile.mkstemp(dir=os.path.dirname(target), prefix=".ffcount-")
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, target)
    except OSError as exc:
        raise UsageError(f"--out: cannot write {out_path}: {exc.strerror or exc}") from None
    finally:
        if tmp is not None and os.path.exists(tmp):
            os.unlink(tmp)


def cmd_count(args) -> Report:
    q = _q_from_args(args)
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
    rows = []
    for n in nrange:
        table = series.row(n)
        for k in krange:
            count = table[k] if k <= K else 0
            rows.append((q, n, k, count))
    payload = {
        "command": "count",
        "q": q,
        "mode": args.mode,
        "rows": [{"n": n, "k": k, "count": str(c)} for _, n, k, c in rows],
    }
    return Report(payload, ("q", "n", "k", "count"), rows)


def cmd_asym(args) -> Report:
    q = _q_from_args(args)
    cfg = asym.AnalyticConfig(A=args.A)
    nrange = _parse_range(args.n, "--n")
    krange = _parse_range(args.k, "--k")
    rows = []
    for n in nrange:
        for k in krange:
            rows.append((q, n, k, asym.main_term_thm1(q, n, k, cfg, override=args.override)))
    payload = {
        "command": "asym",
        "q": q,
        "A": args.A,
        "rows": [{"n": n, "k": k, "main_term_lnAbs": v} for _, n, k, v in rows],
    }
    return Report(payload, ("q", "n", "k", "main_term_lnAbs"), rows)


def cmd_compare(args) -> Report:
    q = _q_from_args(args)
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
        table = series.row(n)
        for k in krange:
            exact = table[k] if k <= K else 0
            core = asym._thm1(q, n, k, cfg, False)  # one G(r) serves both columns
            m = asym._main_term(*core)
            rows.append((q, n, k, exact, m,
                         asym.ratio_to_main(exact, m),
                         asym._normalized_error(exact, n, k, *core)))
    payload = {
        "command": "compare",
        "q": q,
        "A": args.A,
        "rows": [
            {"n": n, "k": k, "exact": str(e), "main_term_lnAbs": ml,
             "ratio": r, "normalized_error": ne}
            for _, n, k, e, ml, r, ne in rows
        ],
    }
    return Report(
        payload,
        ("q", "n", "k", "exact", "main_term_lnAbs", "ratio", "normalized_error"),
        rows)


def _dual_path_report(label, qy, exact, chars, term, payload, header, row) -> Report:
    """Finish an ap or interval report: the character-path check, the main
    term (evaluated with override outside its proven range, null where it
    is undefined) and the report tail.  chars(qy) and term(override=...)
    are the command's own.
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
    header += ("exact", "char_path", "main_term_lnAbs", "in_proven_range")
    return Report(payload, header, [row + (exact, char_path, main_ln, in_range)])


def cmd_ap(args) -> Report:
    fld = field(*_field_args(args))
    q = fld.q
    cfg = asym.AnalyticConfig(A=args.A)
    d = _poly_arg(fld, args.d, "d")
    g = _poly_arg(fld, args.g, "g")
    n, k = args.n, args.k
    qy = apinterval.APQuery(n, k, g, d)
    exact = apinterval.pi_k_ap_exact(qy, budget=args.budget, method=args.method)
    payload = {"command": "ap", "q": q, "d": d.text(), "g": g.text(), "n": n, "k": k}
    return _dual_path_report(
        "progression", qy, exact, apinterval.pi_k_ap_chars,
        lambda **kw: asym.main_term_thm2(n, k, d, cfg, **kw),
        payload, ("q", "d", "g", "n", "k"), (q, d.text(), g.text(), n, k))


def cmd_interval(args) -> Report:
    fld = field(*_field_args(args))
    q = fld.q
    cfg = asym.AnalyticConfig(A=args.A)
    g = _poly_arg(fld, args.g, "g")
    n = args.n if args.n is not None else g.degree
    k, h = args.k, args.h
    qy = apinterval.IntervalQuery(n, k, g, h)
    exact = apinterval.pi_k_interval_exact(qy, budget=args.budget)
    payload = {"command": "interval", "q": q, "g": g.text(), "n": n, "h": h, "k": k}
    return _dual_path_report(
        "interval", qy, exact, apinterval.pi_k_interval_chars,
        lambda **kw: asym.main_term_thm3(q, n, k, h, cfg, **kw),
        payload, ("q", "g", "n", "h", "k"), (q, g.text(), n, h, k))


def cmd_weil(args) -> Report:
    fld = field(*_field_args(args))
    d = _poly_arg(fld, args.d, "d")
    # also on an order-1 group, which has no character to check
    characters._check_tol(args.tol)
    group = characters.unit_group(d)
    reports = []
    rows = []
    all_ok = True
    for c in range(1, group.order):
        rep = characters.weil_check(group, c, tol=args.tol)
        all_ok = all_ok and rep["ok"]
        reports.append({
            "exponents": rep["exponents"],
            "degree_deficit": rep["degree_deficit"],
            "ok": rep["ok"],
            "inverse_roots": rep["inverse_roots"],
        })
        exps = ";".join(str(e) for e in rep["exponents"])
        for root in rep["inverse_roots"]:
            rows.append((fld.q, d.text(), exps, root["re"], root["im"],
                         root["modulus"], root["class"],
                         rep["degree_deficit"], rep["ok"]))
    payload = {
        "command": "weil",
        "q": fld.q,
        "d": d.text(),
        "characters": reports,
        "all_ok": all_ok,
        "coefficient_convention": characters.L_COEFF_NOTE,
    }
    header = ("q", "d", "exponents", "re", "im", "modulus", "class",
              "degree_deficit", "ok")
    return Report(payload, header, rows)


def cmd_omega_stats(args) -> Report:
    q = _q_from_args(args)
    nrange = _parse_range(args.n, "--n")
    if min(nrange) < 1:
        raise UsageError("--n: omega-stats needs n >= 1")
    N = max(nrange)
    series = euler_product_allfactors(q, N, max_omega(q, N), budget=args.budget)
    rows = []
    jrows = []
    for n in nrange:
        mom = omega_moments(series, n)
        check = omega_mean_exact(q, n)
        if mom.mean != check:
            raise ConsistencyError(
                f"mean mismatch at n = {n}: table {mom.mean}, direct sum {check}")
        rows.append((q, n, float(mom.mean), float(mom.variance)))
        jrows.append({
            "n": n,
            "mean": str(mom.mean),
            "mean_float": float(mom.mean),
            "variance": str(mom.variance),
            "variance_float": float(mom.variance),
        })
    payload = {"command": "omega-stats", "q": q, "rows": jrows}
    return Report(payload, ("q", "n", "mean", "variance"), rows)


def cmd_qlimit(args) -> Report:
    q = _q_from_args(args, required=False)
    n, k = args.n, args.k
    s = asym.qlimit_sum(n, k)
    payload = {
        "command": "qlimit",
        "n": n,
        "k": k,
        "sum": str(s),
        "sum_float": float(s),
    }
    row = [n, k, float(s)]
    header = ["n", "k", "sum"]
    if q is not None:
        ln_count = asym.qlimit_count(q, n, k)
        payload["q"] = q
        payload["count_lnAbs"] = ln_count
        header += ["q", "count_lnAbs"]
        row += [q, ln_count]
    return Report(payload, tuple(header), [tuple(row)])


def _selftest_checks():
    f2 = FieldSpec(2)
    f3 = FieldSpec(3)

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
        group = characters.unit_group(parse_poly(f3, "1,0,1"))
        return group.order == 8 and all(
            characters.weil_check(group, c)["ok"] for c in range(1, group.order))

    def progression_paths():
        qy = apinterval.APQuery(4, 2, parse_poly(f3, "1"), parse_poly(f3, "0,1"))
        exact = apinterval.pi_k_ap_exact(qy)
        if exact != apinterval.ap_enumerate(qy):
            return False
        return apinterval.pi_k_ap_chars(qy) == exact

    def interval_involution():
        g = Poly.x(f2, 5)
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
    rows = []
    all_ok = True
    for name, fn in _selftest_checks():
        try:
            ok = bool(fn())
            entry = {"name": name, "ok": ok}
        except Exception as exc:  # a crashed check is a failed check
            ok = False
            entry = {"name": name, "ok": False,
                     "detail": f"{type(exc).__name__}: {exc}"}
        checks.append(entry)
        rows.append((name, ok))
        all_ok = all_ok and ok
    payload = {"command": "selftest", "checks": checks, "ok": all_ok}
    return Report(payload, ("name", "ok"), rows, exit_code=0 if all_ok else 4)


_DISPATCH = {
    "count": cmd_count,
    "asym": cmd_asym,
    "compare": cmd_compare,
    "ap": cmd_ap,
    "interval": cmd_interval,
    "weil": cmd_weil,
    "omega-stats": cmd_omega_stats,
    "qlimit": cmd_qlimit,
    "selftest": cmd_selftest,
}


def _add_common(p, with_field=True, builds_table=False):
    if with_field:
        p.add_argument("--q", type=int, help="field size, a prime power")
        p.add_argument("--p", type=int, help="field characteristic")
        p.add_argument("--e", type=int, help="extension degree over F_p")
        p.add_argument("--modulus", help="defining modulus coefficients, comma separated")
    p.add_argument("--format", choices=("json", "csv"), default="json")
    p.add_argument("--out", help="write the report to this path atomically")
    if builds_table:
        p.add_argument("--budget", type=int, default=None,
                       help="memory cap in bytes for the table builders")


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ffcount",
        description="Counts of monic polynomials over F_q by number of "
                    "distinct irreducible factors, with asymptotic checks.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("count", help="exact factor-count tables")
    p.add_argument("--n", required=True, help="degree or degree range")
    p.add_argument("--k", help="factor count or range; all columns when omitted")
    p.add_argument("--mode", choices=("squarefree", "all"), default="squarefree")
    _add_common(p, builds_table=True)

    p = sub.add_parser("asym", help="predicted main terms in log space")
    p.add_argument("--n", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--A", type=float, default=2.0)
    p.add_argument("--override", action="store_true",
                   help="evaluate outside the proven k range")
    _add_common(p)

    p = sub.add_parser("compare", help="exact counts against predictions")
    p.add_argument("--n", required=True)
    p.add_argument("--k", required=True)
    p.add_argument("--A", type=float, default=2.0)
    _add_common(p, builds_table=True)

    p = sub.add_parser("ap", help="progression count, dual path")
    p.add_argument("--d", required=True, help="modulus polynomial")
    p.add_argument("--g", required=True, help="residue polynomial")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--A", type=float, default=2.0)
    p.add_argument("--method", choices=("auto", "direct", "class"), default="auto",
                   help="irreducible class counts: class (Newton recurrence; auto "
                        "is the same) or direct (enumeration, the test oracle)")
    _add_common(p, builds_table=True)

    p = sub.add_parser("interval", help="short interval count, dual path")
    p.add_argument("--g", required=True, help="monic center polynomial")
    p.add_argument("--n", type=int, help="degree; defaults to deg g")
    p.add_argument("--h", type=int, required=True, help="radius degree")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--A", type=float, default=2.0)
    _add_common(p, builds_table=True)

    p = sub.add_parser("weil", help="L-polynomial inverse root moduli")
    p.add_argument("--d", required=True, help="modulus polynomial")
    p.add_argument("--tol", type=float, default=1e-6)
    _add_common(p)

    p = sub.add_parser("omega-stats", help="moments of the factor count")
    p.add_argument("--n", required=True)
    _add_common(p, builds_table=True)

    p = sub.add_parser("qlimit", help="large-q limit of the k-factor count")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    _add_common(p)

    p = sub.add_parser("selftest", help="fast cross-module invariant suite")
    _add_common(p, with_field=False)

    return parser


def main(argv=None) -> int:
    try:
        args = _build_parser().parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 2
    try:
        report = _DISPATCH[args.command](args)
        _emit(_render(report, args.format), args.out)
        return report.exit_code
    except UsageError as exc:
        print(f"ffcount: {exc}", file=sys.stderr)
        return 2
    except ValueError as exc:
        print(f"ffcount: {exc}", file=sys.stderr)
        return 2
    except BudgetExceededError as exc:
        print(f"ffcount: budget exceeded: {exc}", file=sys.stderr)
        return 3
    except (ConsistencyError, RootFindingError) as exc:
        print(f"ffcount: consistency failure: {exc}", file=sys.stderr)
        return 4

