from __future__ import annotations

import random

import pytest

from ffcount import algebra
from ffcount.algebra import (
    NEG_INF,
    _is_prime_mr,
    FieldSpec,
    Poly,
    default_modulus,
    enumerate_irreducibles,
    enumerate_monics,
    factor_stats,
    field,
    format_poly,
    involute,
    irreducible_count,
    is_irreducible,
    parse_poly,
    phi_poly,
    poly_gcd,
    prime_degrees,
)
from ffcount.errors import BudgetExceededError

F2 = field(2)
F3 = field(3)
F4 = field(2, 2, (1, 1, 1))
F5 = field(5)
F9 = field(3, 2)


def _p(f, text):
    return parse_poly(f, text)


def test_divrem_hand_case_over_f3():
    f = _p(F3, "1,0,1")  # X^2 + 1
    g = _p(F3, "1,1")  # X + 1
    q, r = divmod(f, g)
    assert q == _p(F3, "2,1")  # X + 2
    assert r == _p(F3, "2")  # 2
    assert q * g + r == f


def test_gcd_hand_case_over_f2():
    f = _p(F2, "1,0,1")  # X^2 + 1 = (X+1)^2
    g = _p(F2, "1,1")
    assert poly_gcd(f, g) == _p(F2, "1,1")


def test_gcd_is_monic_and_divides_both():
    rng = random.Random(7)
    for fld in (F2, F3, F5):
        for _ in range(200):
            f = Poly(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(1, 7))])
            g = Poly(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(1, 7))])
            if f.is_zero and g.is_zero:
                continue
            d = poly_gcd(f, g)
            assert d.is_monic
            if not f.is_zero:
                assert (f % d).is_zero
            if not g.is_zero:
                assert (g % d).is_zero


def test_gcd_of_two_zeros_rejected():
    z = Poly.zero(F2)
    with pytest.raises(ValueError):
        poly_gcd(z, z)


def test_zero_polynomial_degree_is_sentinel():
    z = Poly.zero(F3)
    assert z.degree == NEG_INF
    assert z.degree < 0
    assert not isinstance(z.degree, int)
    assert Poly.one(F3).degree == 0


def test_divrem_contract_random_pairs():
    rng = random.Random(20260815)
    for fld in (F2, F3, F4, F5):
        for _ in range(2500):
            f = Poly(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(0, 9))])
            g = Poly(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(1, 6))])
            if g.is_zero:
                continue
            q, r = divmod(f, g)
            assert q * g + r == f
            assert r.degree < g.degree


def test_division_by_zero_rejected():
    with pytest.raises(ZeroDivisionError):
        divmod(_p(F2, "1,1"), Poly.zero(F2))


def test_field_mismatch_rejected():
    with pytest.raises(ValueError):
        _p(F2, "1,1") + _p(F3, "1,1")


def test_extension_field_f4_arithmetic():
    # F_4 = F_2[t]/(t^2+t+1); codes: 0, 1, 2 = t, 3 = t+1.
    assert F4.mul(2, 2) == 3  # t^2 = t + 1
    assert F4.mul(2, 3) == 1  # t(t+1) = t^2 + t = 1
    assert F4.inv(2) == 3
    assert F4.add(2, 3) == 1
    for a in range(1, 4):
        assert F4.mul(a, F4.inv(a)) == 1


def test_extension_field_requires_irreducible_modulus():
    with pytest.raises(ValueError):
        FieldSpec(2, 2, (1, 0, 1))  # X^2 + 1 = (X+1)^2 over F_2
    with pytest.raises(ValueError):
        FieldSpec(2, 2, None)
    # a coefficient outside [0, p) is refused, not reduced to X^2 + X + 1
    for modulus, bad in (((1, 1, 3), 3), ((1, 1, -1), -1), ((1, 3, 1), 3)):
        with pytest.raises(ValueError, match=rf"coefficient {bad} outside \[0, 2\)"):
            FieldSpec(2, 2, modulus)


def test_default_modulus_is_irreducible():
    for p, e in ((2, 2), (2, 3), (3, 2), (5, 2)):
        m = default_modulus(p, e)
        assert is_irreducible(Poly(field(p), m))
        assert len(m) == e + 1


def test_default_modulus_refuses_a_field_past_the_table_limit():
    # the search would walk p^e monics; (10^24 + 7)^13 must fail at once
    for p, e in ((2, 7), (10**24 + 7, 13)):
        with pytest.raises(BudgetExceededError, match="exceeds the table limit 64"):
            default_modulus(p, e)
    assert default_modulus(2, 6) == (1, 1, 0, 0, 0, 0, 1)


def test_poly_text_round_trip():
    rng = random.Random(11)
    for fld in (F2, F3, F4, F5):
        for _ in range(100):
            f = Poly(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(0, 6))])
            assert parse_poly(fld, format_poly(f)) == f
    assert format_poly(Poly.zero(F2)) == "0"
    assert parse_poly(F4, "1/0,0/1") == Poly(F4, [1, 2])


def test_irreducible_count_hand_values():
    assert irreducible_count(2, 1) == 2
    assert irreducible_count(2, 4) == 3
    assert irreducible_count(3, 2) == 3
    assert irreducible_count(F4, 1) == 4


def test_irreducible_count_gauss_identity():
    for q in (2, 3, 5):
        for n in range(1, 31):
            total = sum(d * irreducible_count(q, d) for d in range(1, n + 1) if n % d == 0)
            assert total == q**n


def test_irreducible_count_matches_enumeration():
    for fld in (F2, F3, F4):
        for n in range(1, 6 if fld.q < 4 else 5):
            assert len(enumerate_irreducibles(fld, n)) == irreducible_count(fld.q, n)


def test_enumerate_monics_order_and_count():
    polys = list(enumerate_monics(F3, 2))
    assert len(polys) == 9
    assert polys[0] == _p(F3, "0,0,1")  # X^2 first
    assert polys[1] == _p(F3, "1,0,1")  # constant coefficient varies fastest
    assert polys[3] == _p(F3, "0,1,1")
    assert len(set(polys)) == 9
    assert all(f.is_monic and f.degree == 2 for f in polys)


def test_enumerate_monics_budget():
    with pytest.raises(BudgetExceededError):
        list(enumerate_monics(F2, 30))


def test_enumerate_irreducibles_refuses_past_the_budget_before_it_sieves():
    # the 2^21 monics of degree 21 are over the budget: the refusal comes
    # first, so no table is cached, of degree 21 or of the degrees below
    cached = set(algebra._IRR_TABLES)
    with pytest.raises(BudgetExceededError,
                       match="degree 21 over F_2 exceeds the budget 2000000"):
        enumerate_irreducibles(FieldSpec(2), 21)
    assert set(algebra._IRR_TABLES) == cached
    assert all(n != 21 for _, n in cached)


def _irreducible_by_trial_division(f):
    # the oracle: no monic divisor of degree 1 to deg(f) / 2
    return all(not (f % g).is_zero
               for d in range(1, f.degree // 2 + 1)
               for g in enumerate_monics(f.field, d))


def test_is_irreducible_routes_agree():
    for fld, top in ((F2, 5), (F3, 5), (F4, 4), (F9, 3)):
        for n in range(2, top + 1):
            for f in enumerate_monics(fld, n):
                assert is_irreducible(f) == _irreducible_by_trial_division(f), f


def test_prime_degrees_match_the_trial_division_oracle():
    # distinct-degree factorization against factor_stats' sieve-backed
    # trial division, on every monic up to the given degree
    for fld, top in ((F2, 9), (F3, 5), (F4, 3), (F5, 3), (F9, 3)):
        for n in range(top + 1):
            for f in enumerate_monics(fld, n):
                want = sorted(p.degree for p, _ in factor_stats(f).factors)
                assert prime_degrees(f) == tuple(want), f


def test_is_irreducible_known_cases():
    assert is_irreducible(_p(F2, "1,1,1"))  # X^2+X+1
    assert not is_irreducible(_p(F2, "1,0,1"))  # (X+1)^2
    assert is_irreducible(_p(F3, "1,0,1"))  # X^2+1 over F_3
    assert not is_irreducible(_p(F3, "2,0,1"))  # X^2+2 = (X+1)(X+2)
    with pytest.raises(ValueError):
        is_irreducible(Poly.one(F2))
    with pytest.raises(ValueError):
        is_irreducible(_p(F3, "1,2"))  # not monic


def test_factor_stats_hand_cases():
    st = factor_stats(_p(F2, "0,1,1"))  # X^2+X = X(X+1)
    assert st.omega == 2 and st.mu == 1 and st.squarefree
    assert {p.text() for p, _ in st.factors} == {"0,1", "1,1"}

    st = factor_stats(_p(F2, "1,0,1"))  # (X+1)^2
    assert st.omega == 1 and st.mu == 0 and not st.squarefree

    st = factor_stats(Poly.one(F2))
    assert st.omega == 0 and st.mu == 1 and st.squarefree and st.factors == ()


def test_factor_stats_reconstructs_input():
    for fld in (F2, F3):
        for n in range(1, 7):
            for f in enumerate_monics(fld, n):
                st = factor_stats(f)
                prod = Poly.one(fld)
                for p, m in st.factors:
                    assert is_irreducible(p)
                    for _ in range(m):
                        prod = prod * p
                assert prod == f
                assert st.omega == len(st.factors)


def test_squarefree_matches_derivative_gcd():
    for fld in (F2, F3):
        for n in range(1, 7):
            for f in enumerate_monics(fld, n):
                st = factor_stats(f)
                g = poly_gcd(f, f.derivative()) if not f.derivative().is_zero else f
                # gcd(f, f') is constant exactly when f is squarefree; when
                # f' = 0 (a p-th power) f is certainly not squarefree.
                if f.derivative().is_zero:
                    assert not st.squarefree
                else:
                    assert st.squarefree == (g.degree == 0)


def test_involution_hand_and_invariants():
    f = _p(F2, "0,0,1")  # X^2
    assert involute(f) == Poly.one(F2)
    with pytest.raises(ValueError):
        involute(Poly.zero(F2))
    for fld in (F2, F3):
        for n in range(1, 6):
            for f in enumerate_monics(fld, n):
                fs = involute(f)
                if f.coeffs[0] != 0:
                    assert involute(fs) == f
                    sf = factor_stats(f)
                    # normalize to monic before comparing factor data
                    ss = factor_stats(fs.monic())
                    assert sf.omega == ss.omega
                    assert sf.mu == ss.mu


def test_involution_multiplicative():
    rng = random.Random(3)
    for _ in range(300):
        fld = (F2, F3)[rng.randrange(2)]
        f = Poly(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(1, 6))])
        g = Poly(fld, [rng.randrange(fld.q) for _ in range(rng.randrange(1, 6))])
        if f.is_zero or g.is_zero:
            continue
        assert involute(f * g) == involute(f) * involute(g)


def test_degree_difference_matches_reversed_congruence():
    # deg(f - g) <= h for monic f, g of degree n is the same constraint as
    # involute(f) == involute(g) modulo X^(n-h).
    for n in range(1, 7):
        monics = list(enumerate_monics(F2, n))
        for f in monics:
            fs = involute(f)
            for g in monics:
                gs = involute(g)
                for h in range(0, n + 1):
                    lhs = (f - g).degree <= h
                    if h == n:
                        rhs = True
                    else:
                        xr = Poly.x(F2, n - h)
                        rhs = ((fs - gs) % xr).is_zero
                    assert lhs == rhs, (f.text(), g.text(), h)


def test_phi_poly_hand_values():
    assert phi_poly(Poly.x(F2)) == 1
    assert phi_poly(Poly.x(F2, 2)) == 2
    assert phi_poly(_p(F3, "0,1")) == 2
    assert phi_poly(_p(F3, "1,0,1")) == 8  # irreducible quadratic: 3^2 - 1
    assert phi_poly(_p(F3, "0,0,1")) == 6  # X^2: 9 - 3


def test_scale_and_monic():
    f = _p(F3, "1,2")
    assert f.scale(2) == _p(F3, "2,1")
    g = _p(F3, "2,2")
    assert g.monic() == _p(F3, "1,1")
    with pytest.raises(ValueError):
        f.scale(3)


def _is_prime_int(n: int) -> bool:
    """Trial division, about sqrt(n) steps: the oracle of _is_prime_mr."""
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    f = 3
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


def test_miller_rabin_matches_trial_division_and_rejects_strong_pseudoprimes():
    assert all(_is_prime_mr(n) == _is_prime_int(n) for n in range(10**5))
    # strong pseudoprimes to the bases 2, 3, 5, 7 and to every prime base
    # up to 23; only the later bases expose them
    assert not _is_prime_mr(3215031751)
    assert not _is_prime_mr(3825123056546413051)
    # the Mersenne prime 2^61 - 1 and the largest prime below 2^62
    assert _is_prime_mr(2**61 - 1)
    assert _is_prime_mr(2**62 - 57)
    assert not any(_is_prime_mr(2**62 - j) for j in range(1, 57))
    with pytest.raises(ValueError):
        _is_prime_mr(2**82)
