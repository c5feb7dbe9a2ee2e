from __future__ import annotations

import math
import tracemalloc
from fractions import Fraction
from operator import mul

import pytest

from ffcount import exactcount
from ffcount.algebra import Poly, default_modulus, field, irreducible_count
from ffcount.apinterval import ap_series
from ffcount.asym import main_term_thm1
from ffcount.errors import BudgetExceededError
from ffcount.exactcount import (
    brute_force_count,
    brute_force_tables,
    cauchy_extract,
    euler_product_allfactors,
    euler_product_squarefree,
    max_omega,
    omega_mean_exact,
    omega_moments,
    rising_factorial_over_factorial,
    slot_bits,
)

F2 = field(2)
F3 = field(3)
FIELDS = {
    2: F2,
    3: F3,
    4: field(2, 2, default_modulus(2, 2)),
    5: field(5),
    9: field(3, 2, default_modulus(3, 2)),
}


def _row_shift_expand(row):
    # Polynomial substitution w -> z - 1, ascending coefficient lists.
    out = []
    for c in reversed(list(row)):
        nxt = [0] * (len(out) + 1)
        for i, v in enumerate(out):
            nxt[i + 1] += v
            nxt[i] -= v
        nxt[0] += c
        out = nxt
    return out if out else [0]


def test_squarefree_series_hand_values_q2():
    s = euler_product_squarefree(2, 4, 4)
    assert s.cell(0, 0) == 1
    assert s.cell(1, 1) == 2
    assert s.cell(2, 1) == 1  # only X^2+X+1 is squarefree irreducible of degree 2
    assert s.cell(2, 2) == 1  # X(X+1)
    assert s.cell(2, 0) == 0


@pytest.mark.parametrize("table", ["BiSeries", "GroupSeries"])
def test_a_table_reads_only_what_its_truncation_holds(table):
    # degree 10 over F_2 at K = 2: 156 squarefree monics have 3 distinct
    # factors, and max_omega(2, 10) = 5, so k = 3 is hidden, not zero; the
    # class table mod X + 1, whose one class has index 0, reads the same way
    if table == "BiSeries":
        read = euler_product_squarefree(2, 10, 2).cell
    else:
        series = ap_series(Poly(F2, [1, 1]), 10, 2)
        read = lambda n, k: series.count(0, n, k)
    assert euler_product_squarefree(2, 10, 3).cell(10, 3) == 156
    with pytest.raises(ValueError, match="k = 3 exceeds the truncation K = 2"):
        read(10, 3)
    with pytest.raises(ValueError, match=r"degree -1 outside \[0, 10\]"):
        read(-1, 1)
    with pytest.raises(ValueError, match=r"degree 11 outside \[0, 10\]"):
        read(11, 1)
    with pytest.raises(ValueError, match="k must be nonnegative"):
        read(3, -1)
    assert max_omega(2, 3) == 2 and read(3, 5) == 0


def test_allfactors_series_hand_values_q2():
    a = euler_product_allfactors(2, 4, 4)
    assert a.cell(2, 1) == 3  # X^2, (X+1)^2, X^2+X+1
    assert a.cell(2, 2) == 1


def test_row_sums_exact():
    for q in (2, 3):
        N = 30
        K = max_omega(q, N)
        s = euler_product_squarefree(q, N, K)
        a = euler_product_allfactors(q, N, K)
        for n in range(N + 1):
            assert sum(a.row(n)) == q**n
            if n >= 2:
                assert sum(s.row(n)) == q**n - q ** (n - 1)
        assert sum(s.row(0)) == 1 and sum(s.row(1)) == q


def test_series_against_enumeration_small():
    for fld, nmax in ((F2, 6), (F3, 5)):
        q = fld.q
        s = euler_product_squarefree(q, nmax, nmax)
        a = euler_product_allfactors(q, nmax, nmax)
        for n in range(nmax + 1):
            sq, al = brute_force_tables(fld, n)
            for k in range(n + 1):
                assert s.cell(n, k) == sq[k], (q, n, k)
                assert a.cell(n, k) == al[k], (q, n, k)


@pytest.mark.parametrize(
    "q, N, K",
    [(2, 80, None), (3, 70, None), (4, 60, None), (5, 50, None), (9, 40, None), (2, 598, 6)],
)
def test_squarefree_series_against_class_tables_mod_x(q, N, K):
    # a squarefree monic is coprime to X, or X times a squarefree monic
    # coprime to X with one factor and one degree less; the class kernel's
    # tables mod X count those, with no use of the global recurrence
    K = max_omega(q, N) if K is None else K
    s = euler_product_squarefree(q, N, K)
    coprime = ap_series(Poly.x(FIELDS[q], 1), N, K)
    units = range(coprime.group.order)
    for n in range(N + 1):
        for k in range(K + 1):
            expected = sum(coprime.count(u, n, k) for u in units)
            if n and k:
                expected += sum(coprime.count(u, n - 1, k - 1) for u in units)
            assert s.cell(n, k) == expected, (q, n, k)


@pytest.mark.parametrize("q, N", [(2, 590), (3, 372), (5, 255), (9, 186)])
def test_allfactors_shift_against_list_oracle(q, N):
    # the packed Horner shift against the coefficient-list substitution
    full = max_omega(q, N)
    sf = euler_product_squarefree(q, N, full)
    al = euler_product_allfactors(q, N, full)
    running = [0] * (full + 1)
    for n in range(N + 1):
        running = [q * r + c for r, c in zip(running, sf.row(n))]
        assert list(al.row(n)) == _row_shift_expand(running), (q, n)


def _uncapped_rows(weights, q, N, K, slot, finish, lanes=(), ratio=0):
    """The log-derivative kernel before it stopped at max_omega(q, n): every
    z^m up to min(n, K) is summed and the total is masked to K+1 slots."""
    mask = (1 << (K + 1) * slot) - 1
    low = mask >> slot
    geo = {s: [0] * s for lane in lanes[1:] for _, s in lane}
    rows, tops = [1 & low], [1 >> K * slot]
    for n in range(1, N + 1):
        for s, g in geo.items():
            if s <= n:
                g[n % s] = ratio * (rows[n - s] + g[n % s])
        total = 0
        for m in range(1, min(n, K) + 1):
            part = sum(map(mul, weights[m][n // m:0:-1], rows[n % m:n - m + 1:m]))
            for sign, s in lanes[m] if lanes else ():
                part = part + geo[s][n % s] if sign > 0 else part - geo[s][n % s]
            total += part << m * slot
        row = finish(n, total & mask)
        rows.append(row & low)
        tops.append(row >> K * slot)
    return rows, tops


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_kernel_stopped_at_max_omega_matches_the_uncapped_loop(monkeypatch, q):
    # near the 600-bit cap, in both modes: the squarefree table that the
    # all-factors build reads (recorded before it drops its rows) and the
    # all-factors table itself
    N = int(600 / math.log2(q) + 1e-9)
    real = exactcount.euler_product_squarefree
    tables = []

    def recorded(*args, **kwargs):
        s = real(*args, **kwargs)
        tables.append((s.K, s.slot, list(s.rows), list(s.tops)))
        return s

    monkeypatch.setattr(exactcount, "euler_product_squarefree", recorded)
    al = euler_product_allfactors(q, N)
    monkeypatch.setattr(exactcount, "_log_derivative_rows", _uncapped_rows)
    ref = euler_product_allfactors(q, N)
    assert tables[0] == tables[1] and tables[0][0] == max_omega(q, N)
    assert (al.rows, al.tops) == (ref.rows, ref.tops)


@pytest.mark.parametrize("build, args, bound", [
    (euler_product_squarefree, (3, 327, 76), 2_000_000),
    (euler_product_allfactors, (5, 258), 1_600_000),
], ids=["squarefree", "allfactors"])
def test_table_memory_stays_packed(build, args, bound):
    # each table is held once, packed: 1.3 and 1.4 MB here, where unpacked
    # cells and a second copy of the table peaked at 2.8 MB each; the
    # all-factors build drops each squarefree row once it has read it, and
    # keeping those rows would peak at 1.8 MB
    tracemalloc.start()
    try:
        build(*args)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound, peak


@pytest.mark.parametrize("call", [
    lambda: irreducible_count(2.7, 3),
    lambda: euler_product_squarefree(2.7, 5),
    lambda: main_term_thm1(2.5, 50, 2),
    lambda: irreducible_count("3", 2),
], ids=["irreducible_count-float", "squarefree-float", "thm1-float", "irreducible_count-str"])
def test_q_is_an_int_or_an_error(call):
    # a float or a string q is refused, not rounded to another field
    with pytest.raises(ValueError, match="q must be an int"):
        call()


def test_tables_default_to_every_column_a_degree_can_fill():
    for q, N in ((2, 1), (2, 30), (5, 12)):
        assert euler_product_squarefree(q, N).K == max_omega(q, N)
        assert euler_product_allfactors(q, N).K == max_omega(q, N)
    assert ap_series(Poly.x(F3, 1), 12).K == max_omega(3, 12)


@pytest.mark.parametrize("q, N", [(2, 600), (4, 300), (8, 200), (3, 378), (9, 189)])
def test_coefficient_cap_is_q_to_the_N_at_most_2_to_the_600(q, N):
    # q = 2, 4, 8 reach 2^600 exactly at N, which the cap still accepts
    assert q**N <= 2**600 < q ** (N + 1)
    exactcount._check_series_budget(q, N, 1, None)
    with pytest.raises(BudgetExceededError, match="600-bit coefficient cap"):
        exactcount._check_series_budget(q, N + 1, 1, None)


def test_coefficient_cap_refuses_a_huge_q_before_its_power():
    # q^N would have 10^11 bits; the bit length of q alone refuses it
    with pytest.raises(BudgetExceededError, match="600-bit coefficient cap"):
        exactcount._check_series_budget(2**100000, 10**6, 1, None)


def test_brute_force_count_modes():
    assert brute_force_count(F2, 2, 1, "squarefree") == 1
    assert brute_force_count(F2, 2, 1, "all") == 3
    with pytest.raises(ValueError):
        brute_force_count(F2, 2, 1, "weighted")


def test_series_budget_guards():
    with pytest.raises(BudgetExceededError):
        euler_product_squarefree(2, 700, 4)
    with pytest.raises(BudgetExceededError):
        euler_product_squarefree(2, 200, 40, budget=1000)
    # the estimate counts the recurrence's slots, which also hold n F_n
    narrow = 201 * 41 * slot_bits(2, 200) // 8 + 201 * 64
    with pytest.raises(BudgetExceededError):
        euler_product_squarefree(2, 200, 40, budget=narrow)
    with pytest.raises(ValueError):
        euler_product_squarefree(2, 0, 1)


def test_max_omega_matches_enumeration():
    for fld in (F2, F3):
        for n in range(1, 7):
            _, al = brute_force_tables(fld, n)
            attained = max(k for k, c in enumerate(al) if c)
            assert attained <= max_omega(fld.q, n)
        # the greedy bound is attained at degrees where the greedy packing is exact
    assert max_omega(2, 2) == 2
    assert max_omega(2, 3) == 2
    assert max_omega(2, 4) == 3  # X(X+1)(X^2+X+1)


def test_cauchy_extract_reproduces_counts():
    s = euler_product_squarefree(2, 10, 10)
    for k in (1, 2, 3):
        exact = s.cell(10, k)
        got = cauchy_extract(s, 10, k, M=256)
        assert abs(got - exact) <= 1e-6 * exact


def test_cauchy_extract_radius_free_within_tolerance():
    s = euler_product_squarefree(2, 10, 10)
    exact = s.cell(10, 2)
    for r in (0.2, 0.5, 1.0):
        got = cauchy_extract(s, 10, 2, r=r, M=256)
        assert abs(got - exact) <= 1e-6 * exact


def test_cauchy_extract_validation():
    s = euler_product_squarefree(2, 10, 10)
    with pytest.raises(ValueError):
        cauchy_extract(s, 10, 2, r=0.0)
    with pytest.raises(ValueError):
        cauchy_extract(s, 11, 2)
    with pytest.raises(ValueError):
        cauchy_extract(s, 10, 2, M=32)


def test_omega_moments_hand_values():
    a = euler_product_allfactors(2, 4, 4)
    m2 = omega_moments(a, 2)
    assert m2.mean == Fraction(5, 4)
    assert m2.histogram == {1: 3, 2: 1}
    m1 = omega_moments(a, 1)
    assert m1.mean == 1 and m1.variance == 0


def test_omega_mean_matches_closed_form():
    q = 2
    N = 60
    a = euler_product_allfactors(q, N, max_omega(q, N))
    for n in range(1, N + 1):
        assert omega_moments(a, n).mean == omega_mean_exact(q, n)


def test_omega_moments_rejects_truncated_series():
    a = euler_product_allfactors(2, 30, 3)
    with pytest.raises(ValueError):
        omega_moments(a, 30)


def test_rising_factorial_helper():
    assert rising_factorial_over_factorial(0, 5.0) == 1.0
    assert abs(rising_factorial_over_factorial(3, 1.0) - 1.0) < 1e-15
