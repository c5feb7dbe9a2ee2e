from __future__ import annotations

import cmath
import math
from fractions import Fraction

import pytest

from ffcount.algebra import Poly, factor_stats, field, phi_poly
from ffcount.asym import (
    AnalyticConfig,
    Magnitude,
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
    main_term_thm3_terms,
    qlimit_count,
    qlimit_sum,
    ratio_to_main,
    thm3_normalized_error,
    truncation_depth,
)

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


def test_euler_product_truncation_stability():
    cfg = AnalyticConfig()
    grid = [complex(re, im)
            for re in (-1.9, -1.0, -0.5, 0.0, 0.5, 1.0, 2.0)
            for im in (-1.5, 0.0, 0.7, 1.9)
            if abs(complex(re, im)) <= 2.0]
    for q in (2, 3, 5, 9):
        D0 = truncation_depth(q, cfg, 2.0)
        shallow = AnalyticConfig(D=D0)
        deep = AnalyticConfig(D=D0 + 5)
        for z in grid:
            assert abs(euler_F(z, q, shallow) - euler_F(z, q, deep)) <= 1e-12


def test_euler_product_flags_local_zero():
    with pytest.raises(ValueError):
        euler_F(-2.0, 2)
    with pytest.raises(ValueError):
        euler_F(complex(-3.0), 3)


def test_euler_product_conjugate_symmetry():
    z = 1.2 + 0.8j
    assert abs(euler_F(z.conjugate(), 3) - euler_F(z, 3).conjugate()) <= 1e-14


def test_truncation_depth_controls():
    cfg = AnalyticConfig(D=7)
    assert truncation_depth(2, cfg) == 7
    loose = truncation_depth(2, AnalyticConfig(tail_tol=1e-6))
    tight = truncation_depth(2, AnalyticConfig(tail_tol=1e-14))
    assert tight > loose >= 1


def test_g_and_h_normalization_at_zero():
    for q in (2, 3, 5, 9):
        assert abs(bigG(0.0, q) - 1.0) <= 1e-12
        assert abs(bigH(0.0, q) - 1.0) <= 1e-12
        assert abs(bigG(1.0, q) - (1 - 1 / q)) <= 1e-10
    for txt in ("0,1", "0,0,1", "1,0,1"):
        d = Poly.parse(F3, txt)
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
    assert m.sign == 1
    assert abs(math.exp(m.ln_abs) / (2**100 / 100) - 1.0) <= 1e-12
    assert abs(ratio_to_main(2**100, m) - 100.0) <= 1e-10


def test_main_term_thm1_range_guard():
    with pytest.raises(ValueError):
        main_term_thm1(2, 50, 30)
    m = main_term_thm1(2, 50, 30, override=True)
    assert m.sign == 1


def test_main_term_thm2_hand_value():
    d = Poly.x(F3)
    m = main_term_thm2(50, 1, d, override=True)
    assert abs(math.exp(m.ln_abs) / (3**50 / (2 * 50)) - 1.0) <= 1e-12


def test_main_term_thm2_forms_agree():
    for txt in ("0,1", "0,0,1", "1,0,1"):
        d = Poly.parse(F3, txt)
        for k in (1, 2, 3):
            a = main_term_thm2(30, k, d, form="phi", override=True)
            b = main_term_thm2(30, k, d, form="remark", override=True)
            assert a.sign == b.sign == 1
            assert abs(a.ln_abs - b.ln_abs) <= 1e-12
    with pytest.raises(ValueError):
        main_term_thm2(30, 2, Poly.x(F3), form="other", override=True)


def test_main_term_thm2_prefactor_identity_exact():
    # phi(d) = q^deg(d) * prod over distinct p | d of (1 - q^-deg p)
    for txt in ("0,1", "0,0,1", "1,0,1"):
        d = Poly.parse(F3, txt)
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
    assert abs(math.exp(m.ln_abs) / (2**31 / 50) - 1.0) <= 1e-12
    first, second = main_term_thm3_terms(2, 50, 1, 30, override=True)
    assert second.sign == 0
    assert abs(first.ln_abs - m.ln_abs) <= 1e-14
    f2, s2 = main_term_thm3_terms(2, 50, 2, 30, override=True)
    assert s2.sign == 1
    total = main_term_thm3(2, 50, 2, 30, override=True)
    assert abs((f2 + s2).ln_abs - total.ln_abs) <= 1e-14


def test_main_term_thm3_degenerate_full_interval_allowed():
    # h = n-1 needs no override regardless of the proven bound
    m = main_term_thm3(2, 10, 2, 9)
    assert m.sign == 1


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
                main_term_thm3_terms(2, 2, k, h, override=True)
            with pytest.raises(ValueError, match="undefined"):
                thm3_normalized_error(0, 3, 2, k, h)
    first, second = main_term_thm3_terms(2, 2, 2, 1)
    assert first.sign == second.sign == 1
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


def test_qlimit_count_magnitude():
    m = qlimit_count(101, 5, 2)
    want = 101**5 / 5 * (25 / 12)
    assert m.sign == 1
    assert abs(math.exp(m.ln_abs) / want - 1.0) <= 1e-12


def test_qlimit_sum_approaches_log_power():
    # with k=2 the inner sum is a harmonic number, close to log n
    s = float(qlimit_sum(400, 2))
    assert abs(s / math.log(400) - 1.0) <= 0.2


def test_magnitude_arithmetic():
    a = Magnitude.from_float(3.0)
    b = Magnitude.from_float(-2.0)
    assert abs((a * b).to_float() + 6.0) <= 1e-12
    assert abs((a / b).to_float() + 1.5) <= 1e-12
    assert abs((a + b).to_float() - 1.0) <= 1e-12
    assert abs((a - b).to_float() - 5.0) <= 1e-12
    assert (a - a).sign == 0
    assert (-a).sign == -1
    z = Magnitude.zero()
    assert abs((a + z).to_float() - 3.0) <= 1e-12
    assert (a * z).sign == 0
    with pytest.raises(ZeroDivisionError):
        a / z


def test_magnitude_from_big_exact():
    m = Magnitude.from_exact(10**400)
    assert abs(m.ln_abs - 400 * math.log(10)) <= 1e-9 * m.ln_abs
    f = Magnitude.from_exact(Fraction(-3, 7))
    assert f.sign == -1
    assert abs(f.ln_abs - math.log(3 / 7)) <= 1e-12
    assert Magnitude.from_exact(0).sign == 0


def test_ratio_to_main_big_integers():
    main = Magnitude.from_ln(300 * math.log(10))
    assert abs(ratio_to_main(10**300, main) - 1.0) <= 1e-9
    assert ratio_to_main(0, main) == 0.0
    with pytest.raises(ValueError):
        ratio_to_main(5, Magnitude.zero())


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
    with pytest.raises(ValueError):
        AnalyticConfig(A=1.0)
    with pytest.raises(ValueError):
        AnalyticConfig(D=0)
    with pytest.raises(ValueError):
        AnalyticConfig(tail_tol=0.0)
