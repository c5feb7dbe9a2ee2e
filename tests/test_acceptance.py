"""Acceptance gate: one test per criterion, one PASS/FAIL line each.

Each test prints "ACCEPTANCE <num> <label>: PASS|FAIL" and then asserts,
so the verdict survives in captured output when a criterion goes red.
Criterion 3 is expected to fail: the measured normalized error grows
toward its limiting constant across the sweep instead of shrinking, so
the non-increase clause (and for k = 3 the 1.5x cap) does not hold.
"""

import math
import time
from fractions import Fraction
from itertools import product

from ffcount.algebra import (
    FieldSpec,
    Poly,
    default_modulus,
    enumerate_monics,
    factor_stats,
    phi_poly,
)
from ffcount.apinterval import (
    APQuery,
    IntervalQuery,
    ap_series,
    pi_k_ap_chars,
    pi_k_ap_exact,
    pi_k_interval_exact,
)
from ffcount.asym import (
    bigG,
    bigH,
    dz_asymptotic_ratio,
    euler_F,
    gamma_real,
    qlimit_sum,
    thm1_normalized_error,
)
from ffcount.characters import unit_group, weil_check
from ffcount.exactcount import (
    brute_force_tables,
    cauchy_extract,
    euler_product_allfactors,
    euler_product_squarefree,
    max_omega,
    omega_mean_exact,
    omega_moments,
)


def _report(num: int, label: str, ok: bool, extra: str = ""):
    line = f"ACCEPTANCE {num:02d} {label}: {'PASS' if ok else 'FAIL'}"
    if extra:
        line = f"{line} ({extra})"
    print(line)
    assert ok, line


def test_criterion_01_exactness():
    t0 = time.monotonic()
    ok = True
    for q, nmax in ((2, 8), (3, 8), (5, 6)):
        fld = FieldSpec(q)
        sq = euler_product_squarefree(q, nmax)
        al = euler_product_allfactors(q, nmax)
        for n in range(nmax + 1):
            bsq, bal = brute_force_tables(fld, n)
            for k in range(n + 1):
                got_sq = sq.row(n)[k] if k <= sq.K else 0
                got_al = al.row(n)[k] if k <= al.K else 0
                ok = ok and got_sq == bsq[k] and got_al == bal[k]
    elapsed = time.monotonic() - t0
    _report(1, "exact tables vs enumeration", ok and elapsed < 60,
            f"{elapsed:.1f}s")


def test_criterion_02_global_identities(q2_tables):
    t0 = time.monotonic()
    sq, al = q2_tables.squarefree, q2_tables.allfactors
    ok = all(sum(al.row(n)) == 2 ** n for n in range(401))
    ok = ok and all(
        sum(sq.row(n)) == 2 ** n - 2 ** (n - 1) for n in range(2, 401))
    elapsed = time.monotonic() - t0 + q2_tables.build_seconds
    _report(2, "row sums hit the full monic counts", ok and elapsed < 120,
            f"{elapsed:.1f}s incl. build")


def test_criterion_03_prediction_error_rate(q2_tables):
    sq = q2_tables.squarefree
    details = []
    ok = True
    for k in (1, 2, 3):
        errs = [thm1_normalized_error(sq.row(n)[k], 2, n, k)
                for n in (50, 100, 200, 400)]
        noninc = all(errs[i + 1] <= errs[i] + 1e-12 for i in range(3))
        capped = errs[-1] <= 1.5 * errs[0]
        ok = ok and noninc and capped
        details.append(f"k={k} noninc={noninc} capped={capped} "
                       f"errs={['%.3e' % e for e in errs]}")
    _report(3, "normalized error non-increasing over the sweep", ok,
            "; ".join(details))


def test_criterion_04_closed_form_analytics():
    ok = True
    for q in (2, 3, 5, 9):
        ok = ok and abs(euler_F(1.0, q) - (1 - 1 / q)) <= 1e-10
        ok = ok and abs(bigG(0.0, q) - 1.0) <= 1e-10
        ok = ok and abs(bigH(0.0, q) - 1.0) <= 1e-10
    for j in range(1, 201):
        x = j * 0.05
        lhs = gamma_real(x + 1.0)
        ok = ok and abs(lhs - x * gamma_real(x)) <= 1e-12 * abs(lhs)
    _report(4, "special values and functional equation", ok)


def test_criterion_05_weighted_total_rate():
    # half-integer lattice over |z| <= 2, nonpositive integers excluded
    grid = []
    steps = [x / 2 for x in range(-4, 5)]
    for re in steps:
        for im in steps:
            z = complex(re, im)
            if abs(z) > 2:
                continue
            if z.imag == 0 and z.real <= 0 and z.real == int(z.real):
                continue
            grid.append(z)
    C = max(50 * abs(dz_asymptotic_ratio(50, z) - 1) for z in grid)
    ok = all(
        n * abs(dz_asymptotic_ratio(n, z) - 1) <= C
        for n in range(51, 501) for z in grid)
    _report(5, "ratio error within C/n through n=500", ok,
            f"C={C:.3f} fitted at n=50 over {len(grid)} grid points")


def test_criterion_06_root_moduli():
    t0 = time.monotonic()
    ok = True
    checked = 0
    for p, e in ((2, 1), (3, 1), (2, 2)):
        fld = FieldSpec(p) if e == 1 else FieldSpec(p, e, default_modulus(p, e))
        for deg in range(1, 4):
            for d in enumerate_monics(fld, deg):
                if phi_poly(d) == 1:
                    continue
                group = unit_group(d)
                for c in range(1, group.order):
                    checked += 1
                    ok = ok and weil_check(group, c, tol=1e-6)["ok"]
    elapsed = time.monotonic() - t0
    _report(6, "inverse-root moduli in {1, sqrt q}", ok and elapsed < 60,
            f"{checked} characters, {elapsed:.1f}s")


def test_criterion_07_progression_triple_path():
    ok = True
    for q in (2, 3):
        fld = FieldSpec(q)
        stats = {
            n: [(f, factor_stats(f)) for f in enumerate_monics(fld, n)]
            for n in range(9)
        }
        for deg in (1, 2):
            for d in enumerate_monics(fld, deg):
                group = unit_group(d)
                series = ap_series(d, 8)
                for g in group.elements:
                    for n in range(9):
                        want = {}
                        for f, st in stats[n]:
                            if st.squarefree and f % d == g:
                                want[st.omega] = want.get(st.omega, 0) + 1
                        for k in range(max_omega(q, 8) + 1):
                            qy = APQuery(n, k, g, d)
                            exact = pi_k_ap_exact(qy, series=series)
                            ok = ok and exact == want.get(k, 0)
                            ok = ok and abs(pi_k_ap_chars(qy) - exact) <= 1e-6
    _report(7, "enumeration, table, and character paths agree", ok)


def test_criterion_08_interval_reduction(q2_tables):
    fld = FieldSpec(2)
    sq = q2_tables.squarefree
    ok = True
    for n in range(1, 9):
        for h in range(n):
            shared = ap_series(Poly.x(fld, n - h), n)
            totals = {}
            for tail in product(range(2), repeat=n - 1 - h):
                g = Poly(fld, [0] * (h + 1) + list(tail) + [1])
                want = {}
                for code in range(2 ** (h + 1)):
                    st = factor_stats(
                        g + Poly(fld, [(code >> i) & 1 for i in range(h + 1)]))
                    if st.squarefree:
                        want[st.omega] = want.get(st.omega, 0) + 1
                for k in range(1, max_omega(2, n) + 1):
                    got = pi_k_interval_exact(
                        IntervalQuery(n, k, g, h), series=shared)
                    ok = ok and got == want.get(k, 0)
                    totals[k] = totals.get(k, 0) + got
            # canonical centers partition all monics of degree n
            for k in range(1, max_omega(2, n) + 1):
                ok = ok and totals[k] == sq.row(n)[k]
    _report(8, "involution equals enumeration and partitions the total", ok)


def test_criterion_09_large_q_limit():
    ok = True
    details = []
    n = 5
    for k in (2, 3):
        S = qlimit_sum(n, k)
        gaps = []
        for q in (101, 1009, 10007):
            pk = euler_product_squarefree(q, n, k).row(n)[k]
            gap = abs(Fraction(pk * n * math.factorial(k - 1))
                      / (Fraction(q) ** n * S) - 1)
            gaps.append(gap)
        strict = gaps[0] > gaps[1] > gaps[2]
        cprime = gaps[0] * 101 / (k * n)
        bound = all(
            g <= cprime * k * n / q for g, q in zip(gaps, (101, 1009, 10007)))
        ok = ok and strict and bound
        details.append(f"k={k} gaps={['%.3e' % float(g) for g in gaps]}")
    _report(9, "relative gap shrinks like kn/q", ok, "; ".join(details))


def test_criterion_10_contour_extraction():
    series = euler_product_squarefree(2, 10, 2)
    exact = series.row(10)[2]
    err = {M: abs(cauchy_extract(series, 10, 2, M=M) - exact)
           for M in (64, 128, 256)}
    ok = err[256] <= 1e-6 * exact
    # the quadrature is already exact to float precision at M=64, so the
    # halving clause is checked against a 1e-12 relative floor
    halved = err[128] <= err[64] / 2 or (
        err[64] <= 1e-12 * exact and err[128] <= 1e-12 * exact)
    _report(10, "contour integral reproduces the table", ok and halved,
            f"rel err at M=256: {err[256] / exact:.2e}")


def test_criterion_11_factor_count_moments(q2_tables):
    al = q2_tables.allfactors
    ok = all(
        omega_moments(al, n).mean == omega_mean_exact(2, n)
        for n in range(1, 201))
    mean200 = float(omega_moments(al, 200).mean)
    drift = abs(mean200 / math.log(200) - 1)
    _report(11, "mean factor count matches and tracks log n",
            ok and drift <= 0.15, f"mean/log n - 1 = {drift:.3f}")
