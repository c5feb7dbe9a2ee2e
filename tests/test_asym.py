from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest

from ffcount import asym
from ffcount.algebra import Poly, factor_stats, field, parse_poly, phi_poly
from ffcount.asym import (
    AnalyticConfig,
    _thm3,
    admissible_range,
    bigG,
    bigGd,
    bigH,
    dz_asymptotic_ratio,
    euler_F,
    gamma_complex,
    gamma_real,
    ln_exact,
    main_term_thm1,
    main_term_thm2,
    main_term_thm3,
    qlimit_count,
    qlimit_sum,
    ratio_to_main,
    thm3_normalized_error,
    truncation_depth,
)
from ffcount.errors import UndefinedMainTermError

F2 = field(2)
F3 = field(3)


def test_gamma_classical_values():
    assert abs(gamma_real(1.0) - 1.0) <= 1e-14
    assert abs(gamma_real(2.0) - 1.0) <= 1e-14
    assert abs(gamma_real(0.5) - math.sqrt(math.pi)) <= 1e-13


def test_gamma_matches_stdlib_oracle():
    x = 0.05
    while x <= 12.0:
        ref = math.gamma(x)
        assert abs(gamma_real(x) - ref) <= 1e-12 * abs(ref), x
        x += 0.05


def test_gamma_functional_equation():
    for i in range(1, 101):
        x = i / 10
        lhs = gamma_real(x + 1)
        rhs = x * gamma_real(x)
        assert abs(lhs - rhs) <= 1e-12 * abs(rhs), x


def test_gamma_complex_and_reflection():
    # classical value of gamma at 1+i
    ref = 0.49801566811835604 - 0.15494982830181069j
    assert abs(gamma_complex(1 + 1j) - ref) <= 1e-12
    for z in (-0.5 + 0.3j, -1.7, 0.2 - 2j):
        zc = complex(z)
        lhs = gamma_complex(zc) * gamma_complex(1 - zc)
        rhs = math.pi / cmath.sin(math.pi * zc)
        assert abs(lhs - rhs) <= 1e-10 * abs(rhs), z


def test_gamma_domain_errors():
    with pytest.raises(ValueError):
        gamma_real(0.0)
    with pytest.raises(ValueError):
        gamma_real(-1.5)
    for bad in (0, -1, -6):
        with pytest.raises(ValueError):
            gamma_complex(complex(bad))


def test_euler_product_at_zero_and_one():
    for q in (2, 3, 5, 9):
        assert abs(euler_F(0.0, q) - 1.0) <= 1e-14
        assert abs(euler_F(1.0, q) - (1 - 1 / q)) <= 1e-10
    assert abs(euler_F(1.0, 2) - 0.5) <= 1e-10


def test_euler_product_truncation_stability(monkeypatch):
    # the tail past the default depth is certified below TAIL_TOL: a
    # tolerance q^5 times smaller, five degrees deeper, moves no value more
    grid = [complex(re, im)
            for re in (-1.9, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
            for im in (-1.5, 0.0, 0.7, 1.9)
            if abs(complex(re, im)) <= 2.0]
    for q in (2, 3, 5, 9):
        D0 = truncation_depth(q, None, 2.0)
        default = [euler_F(z, q) for z in grid]
        monkeypatch.setattr(asym, "TAIL_TOL", asym.TAIL_TOL * q ** -5)
        assert truncation_depth(q, None, 2.0) == D0 + 5
        for z, shallow in zip(grid, default):
            assert abs(shallow - euler_F(z, q)) <= 1e-12
        monkeypatch.undo()


def test_euler_product_flags_local_zero():
    with pytest.raises(ValueError):
        euler_F(-2.0, 2)
    with pytest.raises(ValueError):
        euler_F(complex(-3.0), 3)


def test_euler_product_conjugate_symmetry():
    z = 1.2 + 0.8j
    assert abs(euler_F(z.conjugate(), 3) - euler_F(z, 3).conjugate()) <= 1e-14


def test_truncation_depth_controls(monkeypatch):
    monkeypatch.setattr(asym, "TAIL_TOL", 1e-6)
    loose = truncation_depth(2)
    monkeypatch.setattr(asym, "TAIL_TOL", 1e-14)
    tight = truncation_depth(2)
    assert tight > loose >= 1
    assert truncation_depth(2, AnalyticConfig(A=1e6)) > tight


def test_q_past_the_double_range_is_a_value_error_naming_q():
    # (10^24 + 7)^13 is about 1e312: float(q) would overflow
    q = (10**24 + 7) ** 13
    for call in (lambda: euler_F(0.5, q), lambda: truncation_depth(q),
                 lambda: main_term_thm1(q, 3, 2), lambda: bigH(0.5, q),
                 lambda: main_term_thm3(q, 10, 2, 9),
                 lambda: thm3_normalized_error(1, q, 10, 2, 9)):
        with pytest.raises(ValueError, match=f"q = {q} exceeds the double range"):
            call()
    # log space only, no float of q
    want = 3 * math.log(q) - math.log(3) + math.log(1.5)
    assert abs(qlimit_count(q, 3, 2, qlimit_sum(3, 2)) - want) <= 1e-9


def test_g_and_h_normalization_at_zero():
    for q in (2, 3, 5, 9):
        assert abs(bigG(0.0, q) - 1.0) <= 1e-12
        assert abs(bigH(0.0, q) - 1.0) <= 1e-12
        assert abs(bigG(1.0, q) - (1 - 1 / q)) <= 1e-10
    for txt in ("0,1", "0,0,1", "1,0,1"):
        d = parse_poly(F3, txt)
        assert abs(bigGd(0.0, d) - 1.0) <= 1e-12


def test_divisor_corrected_g_hand_value():
    for q in (2, 3, 5):
        fld = field(q)
        got = bigGd(1.0, Poly.x(fld))
        want = (1 - 1 / q) / (1 + 1 / q)
        assert abs(got - want) <= 1e-10, q


def test_divisor_correction_ignores_multiplicity():
    x = Poly.x(F3)
    assert bigGd(0.7, x * x) == bigGd(0.7, x)
    with pytest.raises(ValueError):
        bigGd(0.5, Poly.one(F3))


def test_main_term_thm1_prime_case():
    m = main_term_thm1(2, 100, 1)
    assert abs(math.exp(m) / (2**100 / 100) - 1.0) <= 1e-12
    assert abs(ratio_to_main(2**100, m) - 100.0) <= 1e-10


def test_main_term_thm1_range_guard():
    with pytest.raises(ValueError):
        main_term_thm1(2, 50, 30)
    assert math.isfinite(main_term_thm1(2, 50, 30, override=True))


def test_main_term_thm2_hand_value():
    d = Poly.x(F3)
    m = main_term_thm2(50, 1, d, override=True)
    assert abs(math.exp(m) / (3**50 / (2 * 50)) - 1.0) <= 1e-12


def test_main_term_thm2_prefactor_identity_exact():
    # phi(d) = q^deg(d) * prod over distinct p | d of (1 - q^-deg p)
    for txt in ("0,1", "0,0,1", "1,0,1"):
        d = parse_poly(F3, txt)
        q = 3
        prod = Fraction(1)
        for p, _ in factor_stats(d).factors:
            prod *= 1 - Fraction(1, q ** (len(p.coeffs) - 1))
        assert Fraction(phi_poly(d)) == q ** d.degree * prod


def test_main_term_thm2_range_guard():
    with pytest.raises(ValueError):
        main_term_thm2(100, 2, Poly.x(F2))


def test_main_term_thm3_prime_case_and_terms():
    m = main_term_thm3(2, 50, 1, 30, override=True)
    assert abs(math.exp(m) / (2**31 / 50) - 1.0) <= 1e-12
    ln_unit, brackets = _thm3(2, 50, 1, 30, None, override=True)
    assert len(brackets) == 1  # k = 1: no second bracket
    assert abs(ln_unit + math.log(brackets[0]) - m) <= 1e-14
    ln_unit, (first, second) = _thm3(2, 50, 2, 30, None, override=True)
    assert 0 < second < first
    total = main_term_thm3(2, 50, 2, 30, override=True)
    assert abs(ln_unit + math.log(first + second) - total) <= 1e-13


def test_main_term_thm3_degenerate_full_interval_allowed():
    # h = n-1 needs no override regardless of the proven bound
    assert math.isfinite(main_term_thm3(2, 10, 2, 9))


def test_main_term_thm3_domain_errors():
    with pytest.raises(ValueError):
        main_term_thm3(2, 10, 2, 10, override=True)
    with pytest.raises(ValueError):
        main_term_thm3(2, 10, 2, -1, override=True)
    with pytest.raises(ValueError):
        main_term_thm3(2, 100, 2, 80)  # below proven range, no override


def test_thm3_at_degree_two_past_two_factors_is_a_value_error():
    # the second part is evaluated at (k-2)/log(n-1), and log(1) = 0
    for k in (3, 4):
        for h in (0, 1):
            with pytest.raises(ValueError, match="undefined"):
                main_term_thm3(2, 2, k, h, override=True)
            with pytest.raises(ValueError, match="undefined"):
                thm3_normalized_error(0, 3, 2, k, h)
    _, brackets = _thm3(2, 2, 2, 1, None, override=False)
    assert len(brackets) == 2 and min(brackets) > 0
    assert thm3_normalized_error(1, 2, 2, 2, 1) >= 0


def test_admissible_range_hand_values():
    assert admissible_range(2, 100, 2.0, "thm2_m") is None
    assert admissible_range(1024, 100, 2.0, "thm2_m") == 25
    assert admissible_range(2, 100, 2.0, "thm3_h") is None
    got = admissible_range(1024, 100, 2.0, "thm3_h")
    assert got is not None and got <= 99
    c = (1 + math.log(2)) / math.log(1024)
    assert got == math.ceil((0.5 + c) * 101)


def test_admissible_range_validation():
    with pytest.raises(ValueError):
        admissible_range(2, 100, 2.0, "elsewhere")
    with pytest.raises(ValueError):
        admissible_range(2, 1, 2.0, "thm2_m")
    with pytest.raises(ValueError):
        admissible_range(2, 100, 1.0, "thm2_m")


def test_qlimit_sum_hand_values():
    assert qlimit_sum(5, 2) == Fraction(25, 12)
    assert qlimit_sum(4, 3) == Fraction(2)
    assert qlimit_sum(5, 3) == Fraction(35, 12)
    for n in (1, 3, 9):
        assert qlimit_sum(n, 1) == 1
    with pytest.raises(ValueError):
        qlimit_sum(3, 4)
    with pytest.raises(ValueError):
        qlimit_sum(3, 0)


def _harmonic_rows(n):
    # the harmonic recurrence over compositions, for j, r < n:
    # S_0 = 1, S_j(r) = sum_{m=1}^{r} S_(j-1)(r-m)/m, and S_j(r) = qlimit_sum(r+1, j+1)
    rows = [[Fraction(1)] * n]
    for _ in range(1, n):
        prev = rows[-1]
        rows.append([sum((prev[r - m] / m for m in range(1, r + 1)), Fraction(0))
                     for r in range(n)])
    return rows


def test_qlimit_sum_matches_the_harmonic_recurrence():
    rows = _harmonic_rows(60)
    for n in range(1, 61):
        for k in range(1, n + 1):
            assert qlimit_sum(n, k) == rows[k - 1][n - 1], (n, k)


def test_qlimit_sum_closed_values_at_large_n():
    harmonic = sum((Fraction(1, m) for m in range(1, 3000)), Fraction(0))
    assert qlimit_sum(3000, 2) == harmonic
    assert qlimit_sum(1000, 1000) == 1


def test_qlimit_count_magnitude():
    m = qlimit_count(101, 5, 2, qlimit_sum(5, 2))
    want = 101**5 / 5 * (25 / 12)
    assert abs(math.exp(m) / want - 1.0) <= 1e-12


def test_qlimit_sum_approaches_log_power():
    # with k=2 the inner sum is a harmonic number, close to log n
    s = float(qlimit_sum(400, 2))
    assert abs(s / math.log(400) - 1.0) <= 0.2


def test_ratio_to_main_big_integers():
    ln_main = 300 * math.log(10)
    assert abs(ratio_to_main(10**300, ln_main) - 1.0) <= 1e-9
    assert abs(ratio_to_main(Fraction(10**400, 10**100), ln_main) - 1.0) <= 1e-9
    assert ratio_to_main(0, ln_main) == 0.0
    with pytest.raises(ValueError):
        ratio_to_main(-5, ln_main)


def test_main_term_outside_the_double_range_is_undefined():
    # G(r) underflows to 0 near r = 130; the Lanczos gamma overflows past 141
    x = Poly.x(F3)
    for call in (lambda: main_term_thm1(2, 10, 300, override=True),
                 lambda: main_term_thm1(2, 10, 400, override=True),
                 lambda: main_term_thm2(4, 300, x, override=True),
                 lambda: main_term_thm3(2, 4, 1000, 2, override=True),
                 lambda: thm3_normalized_error(0, 2, 4, 1000, 2)):
        with pytest.raises(UndefinedMainTermError, match="outside the double range"):
            call()


def test_ln_exact_inputs():
    assert abs(ln_exact(2**800) - 800 * math.log(2)) <= 1e-9 * 800
    assert abs(ln_exact(Fraction(1, 4)) + math.log(4)) <= 1e-12
    with pytest.raises(ValueError):
        ln_exact(0)
    with pytest.raises(ValueError):
        ln_exact(Fraction(-1, 2))


def test_dz_asymptotic_ratio_hand_values():
    # at z=1 the weighted total is exactly its limit; at z=2 the ratio is 1+1/n
    for n in (2, 10, 77):
        assert abs(dz_asymptotic_ratio(n, 1.0) - 1.0) <= 1e-12
        assert abs(dz_asymptotic_ratio(n, 2.0) - (1 + 1 / n)) <= 1e-12
    with pytest.raises(ValueError):
        dz_asymptotic_ratio(10, 0.0)
    with pytest.raises(ValueError):
        dz_asymptotic_ratio(10, -2.0)


def test_analytic_config_validation():
    assert AnalyticConfig._fields == ("A",)
    for bad in (1.0, 1e101, float("nan")):
        with pytest.raises(ValueError):
            AnalyticConfig(A=bad)
