from __future__ import annotations

import cmath
import math
import random
import tracemalloc
from collections import Counter
from fractions import Fraction
from functools import lru_cache

import pytest

from ffcount.algebra import (
    Poly,
    _is_prime_mr,
    enumerate_irreducibles,
    enumerate_monics,
    factor_stats,
    field,
    irreducible_count,
    parse_poly,
    phi_poly,
    poly_gcd,
)
from ffcount import characters as characters_module
from ffcount.characters import (
    DEFAULT_GROUP_BUDGET,
    CharacterSums,
    UnitGroup,
    l_polynomial,
    root_of_unity,
    twisted_series,
    unit_group,
    weil_check,
    word_primes,
)
from ffcount.cli import main
from ffcount.errors import BudgetExceededError, ConsistencyError

F2 = field(2)
F3 = field(3)
F4 = field(2, 2, (1, 1, 1))
F5 = field(5)


def _p(f, text):
    return parse_poly(f, text)


# -- unit group construction ----------------------------------------------------


def test_group_mod_x_is_scalars():
    for fld, q in ((F2, 2), (F3, 3), (F5, 5), (F4, 4)):
        g = unit_group(Poly.x(fld))
        assert g.order == q - 1
        # residues mod X are the nonzero constants
        assert sorted(e.coeffs for e in g.elements) == [(c,) for c in range(1, q)]
        if q > 2:
            assert len(g.structure) == 1
            assert g.structure[0][1] == q - 1


def test_group_mod_x2_over_f2():
    g = unit_group(_p(F2, "0,0,1"))
    assert g.order == 2
    assert sorted(e.text() for e in g.elements) == ["1", "1,1"]
    assert g.structure[0][0] == _p(F2, "1,1")
    assert g.structure[0][1] == 2


def test_group_mod_x2_plus_1_over_f3_is_cyclic_8():
    g = unit_group(_p(F3, "1,0,1"))
    assert g.order == 8
    assert len(g.structure) == 1
    assert g.structure[0][1] == 8
    assert g.exponent == 8


def test_group_mod_x3_over_f2_is_cyclic_4():
    g = unit_group(_p(F2, "0,0,0,1"))
    assert g.order == 4
    assert [n for _, n in g.structure] == [4]


def test_group_mod_x_times_x_plus_1_over_f3():
    # units mod X(X+1) split as units mod X times units mod X+1
    g = unit_group(_p(F3, "0,2,1"))
    assert g.order == 4
    assert sorted(n for _, n in g.structure) == [2, 2]
    assert g.exponent == 2


def test_group_order_matches_phi_and_local_factors():
    for fld, d_text in ((F2, "1,1,1"), (F3, "0,0,1"), (F3, "2,0,1"), (F4, "1,1")):
        d = _p(fld, d_text)
        g = unit_group(d)
        assert g.order == phi_poly(d)
        q, m = g.q, d.degree
        acc = Fraction(q**m)
        for p, _ in factor_stats(d).factors:
            acc *= 1 - Fraction(1, q**p.degree)
        assert g.order == acc


def test_group_multiplication_and_inverse():
    # the group law runs on discrete-log indices; polynomial multiply-and-
    # reduce is the reference on a cyclic group (irreducible modulus), a
    # non-cyclic one (X^4 over F_2 is Z4 x Z2), a modulus with a repeated
    # factor ((X+1)^2 (X+2) over F_3) and one over F_4
    cases = ((F3, "1,0,1", [8]), (F2, "0,0,0,0,1", [4, 2]),
             (F3, "2,2,1,1", [6, 2]), (F4, "1,0,1", [6, 2]))
    for fld, d_text, orders in cases:
        g = unit_group(_p(fld, d_text))
        assert [n for _, n in g.structure] == orders
        one = Poly.one(fld)
        els = g.elements
        for i in range(g.order):
            shift = g.translation(i)
            for j in range(g.order):
                prod = (els[i] * els[j]) % g.d
                assert els[g.mul(i, j)] == prod
                assert els[shift[j]] == prod
            assert (els[i] * els[g.power_map(-1)[i]]) % g.d == one
            power, first_one = one, None
            for t in range(g.order + 2):
                assert els[g.power_map(t)[i]] == power
                if t and power == one and first_one is None:
                    first_one = t
                power = (power * els[i]) % g.d
            assert g.element_order(i) == first_one
        assert els[0] == one and g.power_map(5)[0] == 0


def test_basis_with_wrong_generator_order_is_rejected(monkeypatch):
    d = _p(F2, "0,0,0,1")
    # 1+X and 1+X^2 regenerate all four units mod X^3 as a product of two
    # spans of size 2, but 1+X has order 4, so index arithmetic on that
    # basis would claim (1+X)^2 = 1
    good = UnitGroup(d)
    assert good.elements[1] == _p(F2, "1,1")
    assert good.elements[2] == _p(F2, "1,0,1")
    monkeypatch.setattr(UnitGroup, "_extract_basis",
                        staticmethod(lambda *args: [(1, 2), (2, 2)]))
    with pytest.raises(ConsistencyError, match="order 2"):
        UnitGroup(d)


def test_dlog_regenerates_elements():
    g = unit_group(_p(F3, "0,2,1"))
    for idx in range(g.order):
        vec = g.dlog(idx)
        acc = 0
        for (gen, _), t in zip(g.structure, vec):
            acc = g.mul(acc, g.power_map(t)[g.index_of(gen)])
        assert acc == idx


# X^m, prime powers, products of distinct and repeated factors, and F_4
_NUMBERING_CASES = (
    (F2, "0,0,0,0,1"), (F2, "0,0,0,0,0,1"), (F2, "1,1,1,1"), (F2, "0,0,1,1"),
    (F2, "1,0,1,0,1"), (F3, "0,0,0,1"), (F3, "2,2,1,1"), (F3, "1,0,1"),
    (F3, "0,2,0,1"), (F3, "1,0,2,0,1"), (F5, "0,0,1"), (F4, "1,0,1"),
)

# the basis is found over the residues in enumeration order, so it is the
# same whatever numbering the indices use
_PINNED_STRUCTURES = {
    (2, "0,0,0,0,1"): [("1,1", 4), ("1,0,1,1", 2)],
    (3, "0,2,0,1"): [("2", 2), ("1,0,1", 2), ("2,1,1", 2)],
    (4, "1,0,1"): [("0/1,1/0", 6), ("0/0,1/0", 2)],
}


@pytest.mark.parametrize("fld,d_text", _NUMBERING_CASES)
def test_an_element_index_is_the_mixed_radix_code_of_its_dlog(fld, d_text):
    g = UnitGroup(_p(fld, d_text))
    els, one = g.elements, Poly.one(fld)
    orders = [n for _, n in g.structure]
    pinned = _PINNED_STRUCTURES.get((fld.q, d_text))
    if pinned is not None:
        assert [(gen.text(), n) for gen, n in g.structure] == pinned
    gen_powers = []  # gen_powers[i][t] = g_i^t as a polynomial
    for gen, n in g.structure:
        row = [one]
        for _ in range(n - 1):
            row.append(row[-1] * gen % g.d)
        gen_powers.append(row)
    for c in range(g.order):
        digits, rest = [], c
        for n in reversed(orders):
            rest, t = divmod(rest, n)
            digits.insert(0, t)
        assert g.dlog(c) == tuple(digits)
        prod = one
        for row, t in zip(gen_powers, digits):
            prod = prod * row[t] % g.d
        assert els[c] == prod and g.index_of(prod) == c
    assert els[0] == one
    for a in range(g.order):
        shift = g.translation(a)
        assert all(els[shift[v]] == els[v] * els[a] % g.d for v in range(g.order))
    powers = list(els)  # powers[c] = els[c]^r, r = 1, 2, ...
    for r in range(1, g.exponent + 2):
        pm = g.power_map(r)
        assert all(els[pm[c]] == powers[c] for c in range(g.order)), r
        powers = [x * y % g.d for x, y in zip(powers, els)]
    assert g.power_map(0) == [0] * g.order
    assert g.power_map(-1) == g.power_map(g.exponent - 1)
    for residues in g.monic_residues:
        assert list(residues) == sorted(residues)


# the unit groups behind the golden weil, ap and interval reports (an
# interval of radius h about a degree-n center reads the group mod X^(n-h))
# and behind the order-512 and order-2047 CI steps: their bases, which
# number every class of those reports, as (generator, order)
_REPORT_STRUCTURES = [
    ((3, 1), "0,1", [("2", 2)]),
    ((3, 1), "1,0,1", [("1,1", 8)]),
    ((2, 1), "1,1,0,1", [("0,1", 7)]),
    ((5, 1), "2,0,1", [("1,1", 24)]),
    ((2, 1), "0,0,0,0,1", [("1,1", 4), ("1,0,1,1", 2)]),
    ((3, 1), "0,0,0,1", [("2,1", 6), ("1,1", 3)]),
    ((2, 2), "0,0,1", [("0/1,1/0", 6), ("1/0,1/0", 2)]),
    ((5, 1), "0,0,1", [("2,1", 20)]),
    ((2, 1), "0,0,0,0,0,0,0,0,0,0,1",
     [("1,1", 16), ("1,0,0,1,1,0,0,1,1", 4), ("1,0,0,0,0,1,1,0,0,1", 2),
      ("1,0,0,0,0,1,0,1,0,1", 2), ("1,0,0,0,0,1,1,1,1", 2)]),
    ((2, 1), "1,0,0,0,0,0,0,0,0,1,0,1", [("0,1", 2047)]),
]


@pytest.mark.parametrize("pe,d_text,structure", _REPORT_STRUCTURES,
                         ids=[f"q{p ** e}-{d}" for (p, e), d, _ in _REPORT_STRUCTURES])
def test_the_basis_behind_each_report_is_pinned(pe, d_text, structure):
    g = unit_group(_p(field(*pe), d_text))
    assert [(gen.text(), n) for gen, n in g.structure] == structure


def test_index_of_rejects_non_coprime_and_wrong_field():
    g = unit_group(_p(F2, "0,0,1"))
    with pytest.raises(ValueError):
        g.index_of(Poly.x(F2))
    with pytest.raises(ValueError):
        g.index_of(_p(F2, "0,0,1,1"))  # X^3 + X^2 = X^2 (X + 1), shares X
    with pytest.raises(ValueError):
        g.index_of(Poly.one(F3))
    # zero, the modulus and its multiples are not units
    for f in (Poly.zero(F2), _p(F2, "0,0,1"), _p(F2, "0,0,1") * _p(F2, "1,1")):
        with pytest.raises(ValueError):
            g.index_of(f)
    # reduction mod d happens before the coprimality check
    assert g.index_of(_p(F2, "1,0,1")) == g.index_of(Poly.one(F2))


def test_group_budget_guard():
    with pytest.raises(BudgetExceededError):
        UnitGroup(Poly.x(F5, 8))
    assert UnitGroup(Poly.x(F5, 2)).order == 20


def test_group_rejects_bad_modulus():
    with pytest.raises(ValueError):
        UnitGroup(Poly.one(F2))
    with pytest.raises(ValueError):
        UnitGroup(_p(F3, "1,2"))  # not monic


# -- characters -----------------------------------------------------------------


# Groups with one axis and with several: X^2 + 1 over F_3 (cyclic 8),
# X(X + 2) over F_3, X^3 over F_2 (cyclic 4), X^4 over F_2 (axes 4 x 2)
# and X^3 over F_3 (axes 6 x 3)
_CHAR_MODULI = ((F3, "1,0,1"), (F3, "0,2,1"), (F2, "0,0,0,1"), (F2, "0,0,0,0,1"),
                (F3, "0,0,0,1"))


def _value_rows(g):
    """_char_exponents of every element: rows[u][c] is character c on u."""
    return [characters_module._char_exponents(g, g.dlog(u)) for u in range(g.order)]


def test_character_count_and_principal_first(char_value):
    # index c runs over range(order); c = 0 is 1 on every element, and the
    # value rows of distinct indices differ, so there are order characters
    for fld, d_text in ((F2, "0,0,1"), (F3, "1,0,1"), (F3, "0,2,1"), (F4, "1,1"),
                        (F2, "0,0,0,0,1")):
        g = unit_group(_p(fld, d_text))
        table = {tuple(char_value(g, c, u) for u in range(g.order)) for c in range(g.order)}
        assert len(table) == g.order
        assert all(char_value(g, 0, u) == 0 for u in range(g.order))
        assert all(any(char_value(g, c, u) for u in range(g.order))
                   for c in range(1, g.order))


def test_character_values_unitary_and_multiplicative(char_value):
    # values are E-th roots of unity, so exponents mod E, and they add
    # mod E on products of polynomials, for every character at once
    rng = random.Random(11)
    for fld, d_text in _CHAR_MODULI:
        g = unit_group(_p(fld, d_text))
        E = g.exponent
        for _ in range(20):
            i = rng.randrange(g.order)
            j = rng.randrange(g.order)
            ei = characters_module._char_exponents(g, g.dlog(i))
            ej = characters_module._char_exponents(g, g.dlog(j))
            assert len(ei) == g.order
            assert all(0 <= e < E for e in ei + ej)
            assert ei == [char_value(g, c, i) for c in range(g.order)]
            prod = g.index_of(g.elements[i] * g.elements[j])
            assert characters_module._char_exponents(g, g.dlog(prod)) == [
                (a + b) % E for a, b in zip(ei, ej)]


def test_character_index_validation():
    g = unit_group(_p(F3, "1,0,1"))
    for c in (g.order, -1, 10**6):
        with pytest.raises(ValueError):
            l_polynomial(g, c)
        with pytest.raises(ValueError):
            weil_check(g, c)
    for tol in (float("nan"), float("inf"), -1.0):
        with pytest.raises(ValueError):
            weil_check(g, 1, tol=tol)
    assert weil_check(g, 1, tol=0.0)["q"] == 3


def test_orthogonality_over_group_exact(char_value):
    # sum over the group of chi is 0 for non-principal chi, order for principal,
    # established with the dense cyclotomic reduction, no float tolerance
    for fld, d_text in _CHAR_MODULI:
        g = unit_group(_p(fld, d_text))
        rows = _value_rows(g)
        for c in range(g.order):
            counts = [0] * g.exponent
            for u in range(g.order):
                assert rows[u][c] == char_value(g, c, u)
                counts[rows[u][c]] += 1
            if c == 0:
                assert counts[0] == g.order
            else:
                assert _dense_zero_test(counts, g.exponent)


def test_orthogonality_over_characters():
    # sum over characters of chi(f) conj(chi(h)) picks out f = h mod d
    # (exact: the exponents of chi(f) conj(chi(h)) are differences mod E)
    for fld, d_text in _CHAR_MODULI:
        g = unit_group(_p(fld, d_text))
        E = g.exponent
        rows = _value_rows(g)
        for i in range(g.order):
            for j in range(g.order):
                counts = [0] * E
                for a, b in zip(rows[i], rows[j]):
                    counts[(a - b) % E] += 1
                if i == j:
                    assert counts[0] == g.order
                else:
                    assert _dense_zero_test(counts, E)


# -- exact zero tests for sums of roots of unity ---------------------------------


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending."""
    if n < 1:
        raise ValueError("n must be positive")
    # (x^n - 1) divided by the product of lower cyclotomics, exactly
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        div = cyclotomic_polynomial(d)
        out = [0] * (len(num) - len(div) + 1)
        rem = list(num)
        for i in range(len(out) - 1, -1, -1):
            c = rem[i + len(div) - 1]
            out[i] = c
            if c:
                for j, dc in enumerate(div):
                    rem[i + j] -= c * dc
        assert all(v == 0 for v in rem[: len(div) - 1])
        num = out
    return tuple(num)


def _dense_zero_test(counts, order):
    """Does sum counts[e] zeta^e vanish, zeta = e^(2 pi i/order)?  The test
    oracle: Phi_order divides the count polynomial folded mod x^order - 1."""
    rem = [0] * order
    for e, c in enumerate(counts):
        rem[e % order] += c
    cyc = cyclotomic_polynomial(order)
    deg = len(cyc) - 1
    for i in range(order - 1, deg - 1, -1):
        c = rem[i]
        if c:
            for j, dc in enumerate(cyc):
                rem[i - deg + j] -= c * dc
    return not any(rem[:deg])


def _fp_orbit_zero_test(counts, order):
    """The F_P orbit rule that fixes L-degrees, on one sum of roots of unity:
    with P the first word prime for the order and P > sum |counts|, the sum
    vanishes exactly when its image under zeta -> w^a vanishes mod P for
    every a prime to the order.  It reads only the nonzero counts."""
    P = next(word_primes(order))
    assert P > sum(map(abs, counts))
    w = root_of_unity(order, P)
    folded = Counter()
    for e, c in enumerate(counts):
        if c:
            folded[e % order] += c
    powers = [pow(w, e, P) for e in range(order)]
    return all(sum(c * powers[a * e % order] for e, c in folded.items()) % P == 0
               for a in range(1, order + 1) if math.gcd(a, order) == 1)


def _short_zero(P, t):
    """The shortest (a, b) with a + b t = 0 mod P, by Lagrange reduction; for
    t^2 = -1 mod P it has a^2 + b^2 = P."""
    def norm(v):
        return v[0] * v[0] + v[1] * v[1]

    u, v = sorted([(P, 0), (-t, 1)], key=norm, reverse=True)
    while norm(u) > norm(v):
        k = (2 * (u[0] * v[0] + u[1] * v[1]) + norm(v)) // (2 * norm(v))
        u, v = v, (u[0] - k * v[0], u[1] - k * v[1])
    return u


def test_cyclotomic_polynomials_hand_values():
    assert cyclotomic_polynomial(1) == (-1, 1)
    assert cyclotomic_polynomial(2) == (1, 1)
    assert cyclotomic_polynomial(3) == (1, 1, 1)
    assert cyclotomic_polynomial(4) == (1, 0, 1)
    assert cyclotomic_polynomial(6) == (1, -1, 1)
    assert cyclotomic_polynomial(8) == (1, 0, 0, 0, 1)
    assert cyclotomic_polynomial(12) == (1, 0, -1, 0, 1)
    with pytest.raises(ValueError):
        cyclotomic_polynomial(0)


def test_root_unity_sum_zero_test():
    for zero_test in (_dense_zero_test, _fp_orbit_zero_test):
        assert zero_test([1, 1, 1, 1], 4) is True  # 1+i-1-i
        assert zero_test([2, 1, 1, 1], 4) is False
        assert zero_test([0, 0, 0, 0], 4) is True
        assert zero_test([1, 0, 1, 0, 1, 0], 6) is True  # 1+z^2+z^4, z=e^(pi i/3)
        assert zero_test([5], 1) is False
        # sums congruent mod the order fold together: z^5 = z for order 4
        assert zero_test([1, 1, 1, 1, 0, 1], 4) is False
    # one embedding is not a zero test: a + b i with a + b w = 0 mod P
    # reads nonzero only under the conjugate embedding i -> w^3 = -w
    P = next(word_primes(4))
    w = root_of_unity(4, P)
    a, b = _short_zero(P, w)
    assert (a + b * w) % P == 0 and (a - b * w) % P != 0
    assert _fp_orbit_zero_test([a, b], 4) is _dense_zero_test([a, b], 4) is False


@pytest.mark.parametrize("order", [*range(1, 65), 242, 511, 2047, 4092])
def test_sparse_zero_test_matches_the_dense_reduction(order):
    # the sparse zero test is the F_P orbit rule
    rng = random.Random(order)
    cyc = cyclotomic_polynomial(order)
    for _ in range(2):
        # random counts, some longer than the order so that they fold
        counts = [rng.randrange(-2, 3) * rng.randrange(2) for _ in range(order + rng.randrange(3))]
        assert _fp_orbit_zero_test(counts, order) is _dense_zero_test(counts, order)
        # a constructed zero: a few shifted multiples of Phi_order, folded
        zero = [0] * (2 * order)
        for _ in range(3):
            shift, scale = rng.randrange(order), rng.randrange(1, 10**12)
            for j, c in enumerate(cyc):
                zero[shift + j] += scale * c
        assert _fp_orbit_zero_test(zero, order) is _dense_zero_test(zero, order) is True
        # one more root of unity makes it nonzero
        zero[rng.randrange(2 * order)] += 1
        assert _fp_orbit_zero_test(zero, order) is _dense_zero_test(zero, order) is False


# -- L-polynomials ---------------------------------------------------------------


def _value_on(g, c, f, char_value):
    """Character c on the polynomial f, or None when f is not a unit mod d."""
    try:
        return char_value(g, c, g.index_of(f))
    except ValueError:
        return None


def test_l_polynomial_mod_x2_over_f2_is_one_minus_t():
    g = unit_group(_p(F2, "0,0,1"))
    lp = l_polynomial(g, 1)
    assert lp.exponents == (1,)
    assert lp.effective_degree == 1
    assert abs(lp.coeffs[0] - 1) == 0
    assert abs(lp.coeffs[1] + 1) < 1e-12
    assert len(lp.inverse_roots) == 1
    assert abs(lp.inverse_roots[0] - 1) < 1e-10
    assert lp.residual <= 1e-10


def test_l_polynomial_rejects_principal():
    g = unit_group(_p(F2, "0,0,1"))
    with pytest.raises(ValueError):
        l_polynomial(g, 0)


def _dense_value(counts, E):
    """sum of counts[e] e^(2 pi i e/E), walked over every slot in ascending e."""
    acc = 0j
    for e, n in enumerate(counts):
        if n:
            acc += n * cmath.exp(2j * math.pi * e / E)
    return acc


def test_l_constant_coefficient_is_one_and_degree_bound(char_value):
    for d in (_p(F3, "1,0,1"), _p(F2, "0,0,0,1"), _p(F3, "0,2,1"), _p(F2, "0,0,0,0,1"),
              _p(F3, "0,0,0,1")):
        g = unit_group(d)
        rows, degrees = characters_module._l_coefficients(g)
        for c in range(1, g.order):
            lp = l_polynomial(g, c)
            assert lp.coeffs == rows[c] and lp.effective_degree == degrees[c]
            assert lp.coeffs[0] == 1
            assert len(lp.coeffs) == g.m
            assert lp.effective_degree <= g.m - 1
            assert len(lp.inverse_roots) == lp.effective_degree
            # c_j is chi summed over the monics of degree j: the value of
            # their root-of-unity counts, to the bit, and the degree is the
            # top j at which the dense reduction finds them nonzero
            top = 0
            for j in range(g.m):
                counts = [0] * g.exponent
                for f in enumerate_monics(d.field, j):
                    e = _value_on(g, c, f, char_value)
                    if e is not None:
                        counts[e] += 1
                assert lp.coeffs[j] == _dense_value(counts, g.exponent)
                if not _dense_zero_test(counts, g.exponent):
                    top = j
            assert lp.effective_degree == top


def test_character_sums_vanish_at_and_above_modulus_degree(char_value):
    g = unit_group(_p(F3, "1,0,1"))
    for c in range(1, g.order):
        for n in (g.m, g.m + 1):
            counts = [0] * g.exponent
            for f in enumerate_monics(F3, n):
                e = _value_on(g, c, f, char_value)
                if e is not None:
                    counts[e] += 1
            assert _dense_zero_test(counts, g.exponent)


def test_l_polynomial_conjugate_symmetry(char_value):
    # the coefficients of conj(chi) are those of chi, conjugated
    for d in (_p(F3, "1,0,1"), _p(F2, "0,0,0,0,1")):
        g = unit_group(d)
        E = g.exponent
        values = [[char_value(g, c, u) for u in range(g.order)] for c in range(g.order)]
        rows, degrees = characters_module._l_coefficients(g)
        for c in range(1, g.order):
            bar = values.index([-e % E for e in values[c]])
            assert degrees[c] == degrees[bar]
            for x, y in zip(rows[c], rows[bar]):
                assert abs(x.conjugate() - y) < 1e-12
            a, b = l_polynomial(g, c), l_polynomial(g, bar)
            assert a.effective_degree == b.effective_degree
            for x, y in zip(a.coeffs, b.coeffs):
                assert abs(x.conjugate() - y) < 1e-12


# moduli for the L-degree rule, with the total degree deficit of their characters
_DEGREE_CASES = [
    (F2, "0,0,0,0,0,0,0,0,0,0,1", 502),  # X^10
    (F2, "0,0,0,0,0,0,0,0,0,0,0,0,1", 2036),  # X^12, order 2048
    (F3, "0,0,0,0,1", 23),  # X^4
    (F5, "0,0,0,1", 22),  # X^3
    (F4, "0,0,0,1", 13),  # X^3
    (F2, "0,0,0,1,1,1", 7),  # X^3 (X^2 + X + 1)
    (F5, "0,0,1,1", 15),  # X^2 (X + 1)
    (F2, "1,0,1,0,1", 4),  # (X^2 + X + 1)^2
    (F3, "2,0,1,1,0,1", 0),
    (F2, "1,1,0,1,0,0,0,1", 0),  # X^7 + X^3 + X + 1
]


def _dense_degrees(g):
    """Each non-principal character's L-degree by the dense reduction, by index."""
    E = g.exponent
    out = [None]
    for c in range(1, g.order):
        values = characters_module._char_exponents(g, g.dlog(c))
        for j in range(g.m - 1, -1, -1):
            counts = [0] * E
            for u in g.monic_residues[j]:
                counts[values[u]] += 1
            if not _dense_zero_test(counts, E):
                break
        out.append(j)
    return out


@pytest.mark.parametrize("fld,d_text,deficit", _DEGREE_CASES)
def test_l_degree_matches_the_dense_reduction_on_every_character(fld, d_text, deficit):
    g = unit_group(_p(fld, d_text))
    _, degrees = characters_module._l_coefficients(g)
    assert degrees == _dense_degrees(g)
    assert sum(g.m - 1 - degree for degree in degrees[1:]) == deficit
    # the degree is constant on each Galois orbit {chi^a : gcd(a, ord chi) = 1}
    for c in range(1, g.order):
        n = g.element_order(c)
        assert all(degrees[g.power_map(a)[c]] == degrees[c]
                   for a in range(2, n) if math.gcd(a, n) == 1)


def test_a_zero_under_one_embedding_is_overruled_by_a_conjugate(monkeypatch):
    # The top coefficient of L(T, chi) is, up to sign, the product of its
    # inverse roots, which have absolute value 1 or sqrt(q) under every
    # embedding (Weil), so its norm is a power of p and no word prime reads
    # it as zero.  So the test builds such a zero.  On a fresh group mod X^2 + 1 over F_3
    # (cyclic of order 8) with P = 97, the degree-1 residues are replaced
    # by a multiset whose sum under a character chi of order 4 is a + b i,
    # with a + b w^2 = 0 mod P: chi reads zero there, chi^3 does not, and
    # a + b i is not zero, so both have degree 1.
    g = UnitGroup(_p(F3, "1,0,1"))
    E, P = g.exponent, 97
    monkeypatch.setattr(characters_module, "word_primes", lambda E: iter([P]))
    w = root_of_unity(E, P)
    chi = next(c for c in range(1, g.order) if g.element_order(c) == 4)
    chi3 = g.mul(chi, g.mul(chi, chi))
    values = characters_module._char_exponents(g, g.dlog(chi))
    one, i, minus_one, minus_i = (values.index(k * E // 4) for k in range(4))
    a, b = _short_zero(P, pow(w, E // 4, P))
    row = [one if a > 0 else minus_one] * abs(a) + [i if b > 0 else minus_i] * abs(b)
    g.monic_residues = (g.monic_residues[0], tuple(row))

    def reading(c):
        vals = characters_module._char_exponents(g, g.dlog(c))
        return sum(pow(w, vals[u], P) for u in row) % P

    assert reading(chi) == 0 and reading(chi3) != 0
    _, degrees = characters_module._l_coefficients(g)
    assert degrees == _dense_degrees(g)
    assert degrees[chi] == degrees[chi3] == 1


def test_l_degrees_need_a_prime_above_q_to_the_m_minus_1(monkeypatch, capsys):
    # mod X^6 over F_2, E = 8: the prime 17 = 1 (mod 8) does not exceed
    # q^(m-1) = 32, so it cannot certify a zero coefficient
    g = unit_group(_p(F2, "0,0,0,0,0,0,1"))
    small = next(P for P in range(g.exponent + 1, g.q ** (g.m - 1) + 1, g.exponent)
                 if _is_prime_mr(P))
    monkeypatch.setattr(characters_module, "word_primes", lambda E: iter([small]))
    characters_module._l_coefficients.cache_clear()
    with pytest.raises(ConsistencyError):
        l_polynomial(g, 1)
    assert main(["weil", "--q", "2", "--d", "0,0,0,0,0,0,1"]) == 4
    assert "consistency failure" in capsys.readouterr().err


# cyclic groups, X^m and mixed factorizations for the per-orbit counts
_ORBIT_MODULI = [
    (F2, "1,1,0,0,0,0,0,1"),  # X^7 + X + 1, cyclic of order 127
    (F3, "2,0,1,1,0,1"),  # cyclic of order 242
    (F2, "0,0,0,0,0,0,0,0,0,0,1"),  # X^10
    (F4, "0,0,0,1"),  # X^3
    (F3, "0,0,0,0,1"),  # X^4
    (F2, "0,0,0,1,1,1"),  # X^3 (X^2 + X + 1)
    (F5, "0,0,1,1"),  # X^2 (X + 1)
    (F2, "1,0,1,0,1"),  # (X^2 + X + 1)^2
    (F3, "0,2,1"),  # X (X + 2)
]


def _galois_orbit(g, c):
    n = g.element_order(c)
    return {g.power_map(a)[c] for a in range(1, n) if math.gcd(a, n) == 1}


@pytest.mark.parametrize("fld,d_text", _ORBIT_MODULI)
def test_orbit_counts_partition_the_characters_and_count_every_member(fld, d_text):
    g = unit_group(_p(fld, d_text))
    E = g.exponent
    seen = Counter()
    for rows, members in characters_module._orbit_counts(g):
        c, a1 = members[0]
        assert a1 == 1 and c == min(_galois_orbit(g, c))
        assert {x for x, _ in members} == _galois_orbit(g, c)
        assert len(rows) == g.m
        for x, a in members:
            seen[x] += 1
            assert x == g.power_map(a)[c]
            values = characters_module._char_exponents(g, g.dlog(x))
            for j, residues in enumerate(g.monic_residues):
                remapped = {a * e % E: n for e, n in rows[j]}
                assert len(remapped) == len(rows[j])
                assert remapped == Counter(values[u] for u in residues), (x, j)
    assert seen == Counter(range(1, g.order))


def test_value_exponents_are_counted_once_per_galois_orbit(monkeypatch):
    # weil and the prime sums of two primes read one count per orbit
    calls = []
    real = characters_module._char_exponents

    def counting(group, vec):
        calls.append(vec)
        return real(group, vec)

    monkeypatch.setattr(characters_module, "_char_exponents", counting)
    g = UnitGroup(_p(F3, "0,0,0,0,1"))  # fresh, so no cache holds its counts
    for c in range(1, g.order):
        weil_check(g, c)
    primes = word_primes(g.exponent)
    for P in (next(primes), next(primes)):
        CharacterSums(g, 8, P)
    orbits = {frozenset(_galois_orbit(g, c)) for c in range(1, g.order)}
    assert len(calls) == len(orbits) < g.order - 1


def test_weil_check_all_nonprincipal_small_moduli():
    # every monic modulus of degree <= 3 over F_2, F_3, F_4
    for fld in (F2, F3, F4):
        for m in (1, 2, 3):
            for d in enumerate_monics(fld, m):
                if phi_poly(d) == 1:
                    continue
                g = unit_group(d)
                for c in range(1, g.order):
                    rep = weil_check(g, c, tol=1e-6)
                    assert rep["ok"], (fld.q, d.text(), c, rep)
                    assert rep["degree_deficit"] >= 0
                    for r in rep["inverse_roots"]:
                        assert r["class"] in ("1", "sqrt_q")


def test_weil_report_shape():
    g = unit_group(_p(F3, "1,0,1"))
    rep = weil_check(g, 1)
    assert rep["q"] == 3
    assert rep["modulus"] == "1,0,1"
    assert rep["exponents"] == [1]
    assert set(rep) >= {"exponents", "inverse_roots", "degree_deficit", "ok"}
    r = rep["inverse_roots"][0]
    assert abs(complex(r["re"], r["im"])) == pytest.approx(r["modulus"])


# -- twisted counts --------------------------------------------------------------


def test_twisted_series_principal_matches_coprime_squarefree_counts(char_value):
    # every character, the principal one included, against the sum of
    # chi(f) over the enumerated squarefree monics with k factors, in F_P
    for d in (_p(F3, "1,0,1"), _p(F2, "0,0,0,1")):
        by_shape = {}
        for n in range(7):
            for f in enumerate_monics(d.field, n):
                st = factor_stats(f)
                if st.squarefree:
                    by_shape.setdefault((n, st.omega), []).append(f)
        group = unit_group(d)
        P = next(word_primes(group.exponent))
        sums = CharacterSums(group, 6, P)
        for c in range(group.order):
            rows = twisted_series(c, sums, 6)
            for n in range(7):
                for k in range(7):
                    exps = (_value_on(group, c, f, char_value)
                            for f in by_shape.get((n, k), ()))
                    direct = sum(sums.powers[e] for e in exps if e is not None) % P
                    assert rows[n][k] == direct, (d.text(), c, n, k)


def test_character_prime_sums_match_enumerated_irreducibles(char_value):
    # t P_chi(t) = t * sum of chi(p) over irreducibles of degree t not dividing d
    for d in (_p(F2, "0,0,0,1"), _p(F3, "1,1,0,1"), _p(F4, "1,0,1"), _p(F2, "0,1,1,0,1")):
        group = unit_group(d)
        P = next(word_primes(group.exponent))
        sums = CharacterSums(group, 6, P)
        for c in range(group.order):
            for t in range(1, 7):
                exps = (_value_on(group, c, p, char_value)
                        for p in enumerate_irreducibles(d.field, t))
                direct = t * sum(sums.powers[e] for e in exps if e is not None) % P
                assert sums.weights[t][c] == direct, (d.text(), c, t)


def _weights_by_residue(group, N, P):
    """CharacterSums' weights with c_j(chi) mod P summed residue by residue
    over monic_residues[j] for every character at once: the oracle of the
    per-orbit counts."""
    E, order = group.exponent, group.order
    w = root_of_unity(E, P)
    powers = [pow(w, e, P) for e in range(E)]
    J = min(group.m - 1, N)
    coeffs = [None]
    for j in range(1, J + 1):
        acc = [0] * order
        for u in group.monic_residues[j]:
            vals = characters_module._char_exponents(group, group.dlog(u))
            acc = [x + powers[e] for x, e in zip(acc, vals)]
        coeffs.append([x % P for x in acc])
    psi = [None]
    for n in range(1, N + 1):
        acc = [n * x for x in coeffs[n]] if n <= J else [0] * order
        for j in range(1, min(n - 1, J) + 1):
            acc = [x - y * z for x, y, z in zip(acc, coeffs[j], psi[n - j])]
        psi.append([x % P for x in acc])
    bad = [p.degree for p, _ in factor_stats(group.d).factors]
    for n in range(1, N + 1):
        psi[n][0] = (pow(group.q, n, P) - sum(b for b in bad if n % b == 0)) % P
    weights = [None]
    for t in range(1, N + 1):
        acc = psi[t]
        for e in range(1, t):
            if t % e == 0:
                pm = group.power_map(t // e)
                acc = [x - weights[e][pm[c]] for c, x in enumerate(acc)]
        weights.append([x % P for x in acc])
    return weights


@pytest.mark.parametrize("fld,d_text,N", [
    (F2, "0,0,0,1", 6), (F3, "0,0,1", 6), (F2, "1,0,1,0,1", 6), (F3, "1,2,1", 6),
    (F2, "0,1,1,0,1", 6), (F3, "0,1,1", 6), (F4, "1,0,1", 6), (F5, "2,0,1", 6),
    (F3, "1,1,0,1", 6), (F2, "0,0,0,0,0,0,0,0,0,0,1", 12)])
def test_character_sums_match_the_per_residue_loop(fld, d_text, N):
    group = unit_group(_p(fld, d_text))
    P = next(word_primes(group.exponent))
    assert CharacterSums(group, N, P).weights == _weights_by_residue(group, N, P)


def test_word_primes_carry_a_root_of_unity_of_exact_order():
    for E in [*range(1, 41), 242, 511, 4092]:
        primes = word_primes(E)
        for P in (next(primes), next(primes)):
            assert P < 2**62 and (P - 1) % E == 0 and _is_prime_mr(P)
            w = root_of_unity(E, P)
            assert pow(w, E, P) == 1
            if E <= 40:
                assert len({pow(w, i, P) for i in range(E)}) == E
            assert all(pow(w, E // ell, P) != 1 for ell in (2, 3, 5, 7, 11, 31, 73)
                       if E % ell == 0)
    with pytest.raises(ValueError):
        root_of_unity(4, 7)


def test_auto_method_avoids_a_sieve_past_the_enumeration_budget():
    # about 4e5 irreducibles of degree <= 14 over F_3 are under the cap,
    # but the sieve behind them walks 3^14 monics, over the budget
    d = _p(F3, "1,1")
    auto = UnitGroup(d).irreducible_classes(14)
    assert auto == UnitGroup(d).irreducible_classes(14, method="class")


def test_direct_method_refuses_past_the_enumeration_budget_before_it_sieves(monkeypatch):
    # 2^21 monics of degree 21 are over the budget; the degrees below it
    # fit, so walking up from degree 1 would sieve all of them first
    asked = []
    real = characters_module.enumerate_irreducibles

    def recorded(fld, n):
        asked.append(n)
        return real(fld, n)

    monkeypatch.setattr(characters_module, "enumerate_irreducibles", recorded)
    g = UnitGroup(_p(F2, "0,1"))
    with pytest.raises(BudgetExceededError, match="degree 21 over F_2 exceeds the budget"):
        g.irreducible_classes(21, method="direct")
    assert asked == [21]
    # the Newton recurrence needs no sieve: the one class holds them all
    assert g.irreducible_classes(21)[21] == {0: irreducible_count(2, 21)}


def test_monic_residues_are_the_monic_units_by_degree():
    for fld, d_text in ((F2, "0,1,0,1"), (F3, "0,0,1"), (F4, "1,0,1"), (F5, "2,0,1")):
        d = _p(fld, d_text)
        g = UnitGroup(d)
        assert len(g.monic_residues) == g.m
        for j in range(g.m):
            want = sorted(g.index_of(f) for f in enumerate_monics(fld, j)
                          if poly_gcd(f, d).degree == 0)
            assert list(g.monic_residues[j]) == want


def test_newton_class_counts_memory_stays_linear_in_the_group_order():
    # d irreducible of degree 11 over F_2: order 2047, and N = m reaches
    # every monic residue; a table of translations would hold about
    # |G|^2 / 2 entries (about 38 MB here), the rows kept per degree
    # about N |G|
    g = unit_group(_p(F2, "1,0,0,0,0,0,0,0,0,1,0,1"))
    assert g.order == 2047
    N = g.m
    tracemalloc.start()
    try:
        counts = characters_module._newton_class_counts(g, N)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 128 * (N + 1) * g.order
    assert counts == UnitGroup(g.d).irreducible_classes(N, method="direct")


def test_irreducible_classes_partition_totals():
    from ffcount.algebra import irreducible_count

    g = unit_group(_p(F3, "1,0,1"))
    classes = g.irreducible_classes(5)
    for n in range(1, 6):
        in_units = sum(classes[n].values())
        # irreducibles dividing d are the only ones excluded
        excluded = sum(1 for p, _ in factor_stats(g.d).factors if p.degree == n)
        assert in_units + excluded == irreducible_count(3, n)
