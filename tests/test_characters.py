from __future__ import annotations

import random
import tracemalloc
from fractions import Fraction

import pytest

from ffcount.algebra import (
    Poly,
    _is_prime_mr,
    enumerate_irreducibles,
    enumerate_monics,
    factor_stats,
    field,
    parse_poly,
    phi_poly,
    poly_gcd,
)
from ffcount import characters as characters_module
from ffcount.characters import (
    DEFAULT_GROUP_BUDGET,
    CharacterSums,
    UnitGroup,
    cyclotomic_polynomial,
    l_polynomial,
    root_of_unity,
    root_unity_sum_is_zero,
    twisted_series,
    unit_group,
    weil_check,
    word_primes,
)
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
            assert (els[i] * els[g.pow(i, -1)]) % g.d == one
            power, first_one = one, None
            for t in range(g.order + 2):
                assert els[g.pow(i, t)] == power
                if t and power == one and first_one is None:
                    first_one = t
                power = (power * els[i]) % g.d
            assert g.element_order(i) == first_one
        assert g.pow(g.identity_index, 5) == g.identity_index


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
        acc = g.identity_index
        for (gen, _), t in zip(g.structure, vec):
            acc = g.mul(acc, g.pow(g.index_of(gen), t))
        assert acc == idx


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
        UnitGroup(Poly.x(F5, 8), budget=1000)
    assert UnitGroup(Poly.x(F5, 2), budget=1000).order == 20


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
    # established with the exact root-of-unity zero test, no float tolerance
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
                assert root_unity_sum_is_zero(counts, g.exponent)


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
                    assert root_unity_sum_is_zero(counts, E)


# -- cyclotomic reduction helpers ----------------------------------------------


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
    assert root_unity_sum_is_zero([1, 1, 1, 1], 4) is True  # 1+i-1-i
    assert root_unity_sum_is_zero([2, 1, 1, 1], 4) is False
    assert root_unity_sum_is_zero([0, 0, 0, 0], 4) is True
    assert root_unity_sum_is_zero([1, 0, 1, 0, 1, 0], 6) is True  # 1+z^2+z^4, z=e^(pi i/3)
    assert root_unity_sum_is_zero([5], 1) is False
    # sums congruent mod the order fold together: z^5 = z for order 4
    assert root_unity_sum_is_zero([1, 1, 1, 1, 0, 1], 4) is False


def _dense_zero_test(counts, order):
    """The reduction modulo the dense cyclotomic polynomial, as the oracle."""
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


@pytest.mark.parametrize("order", [*range(1, 65), 242, 511, 2047, 4092])
def test_sparse_zero_test_matches_the_dense_reduction(order):
    rng = random.Random(order)
    cyc = cyclotomic_polynomial(order)
    for _ in range(2):
        # random counts, some longer than the order so that they fold
        counts = [rng.randrange(-2, 3) * rng.randrange(2) for _ in range(order + rng.randrange(3))]
        assert root_unity_sum_is_zero(counts, order) is _dense_zero_test(counts, order)
        # a constructed zero: a few shifted multiples of Phi_order, folded
        zero = [0] * (2 * order)
        for _ in range(3):
            shift, scale = rng.randrange(order), rng.randrange(1, 10**12)
            for j, c in enumerate(cyc):
                zero[shift + j] += scale * c
        assert root_unity_sum_is_zero(zero, order) is _dense_zero_test(zero, order) is True
        # one more root of unity makes it nonzero
        zero[rng.randrange(2 * order)] += 1
        assert root_unity_sum_is_zero(zero, order) is _dense_zero_test(zero, order) is False


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


def test_l_constant_coefficient_is_one_and_degree_bound(char_value):
    for d in (_p(F3, "1,0,1"), _p(F2, "0,0,0,1"), _p(F3, "0,2,1"), _p(F2, "0,0,0,0,1"),
              _p(F3, "0,0,0,1")):
        g = unit_group(d)
        for c in range(1, g.order):
            lp = l_polynomial(g, c)
            rows = characters_module._l_coefficient_counts(g, c)
            assert lp.coeffs[0] == 1
            assert len(lp.coeffs) == len(rows) == g.m
            assert lp.effective_degree <= g.m - 1
            assert len(lp.inverse_roots) == lp.effective_degree
            # c_j is chi summed over the monics of degree j: the same
            # root-of-unity counts, and the coefficient is their value
            for j in range(g.m):
                counts = [0] * g.exponent
                for f in enumerate_monics(d.field, j):
                    e = _value_on(g, c, f, char_value)
                    if e is not None:
                        counts[e] += 1
                assert rows[j] == counts
                assert lp.coeffs[j] == characters_module._counts_to_complex(
                    counts, g.exponent)
            top = max(j for j in range(g.m)
                      if not root_unity_sum_is_zero(rows[j], g.exponent))
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
            assert root_unity_sum_is_zero(counts, g.exponent)


def test_l_polynomial_conjugate_symmetry(char_value):
    # the counts of conj(chi) are those of chi with exponents negated mod E
    for d in (_p(F3, "1,0,1"), _p(F2, "0,0,0,0,1")):
        g = unit_group(d)
        E = g.exponent
        values = [[char_value(g, c, u) for u in range(g.order)] for c in range(g.order)]
        for c in range(1, g.order):
            bar = values.index([-e % E for e in values[c]])
            for a_row, b_row in zip(characters_module._l_coefficient_counts(g, c),
                                    characters_module._l_coefficient_counts(g, bar)):
                assert b_row == [a_row[-e % E] for e in range(E)]
            a, b = l_polynomial(g, c), l_polynomial(g, bar)
            assert a.effective_degree == b.effective_degree
            for x, y in zip(a.coeffs, b.coeffs):
                assert abs(x.conjugate() - y) < 1e-12


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


def test_monic_residues_are_the_monic_units_by_degree():
    for fld, d_text in ((F2, "0,1,0,1"), (F3, "0,0,1"), (F4, "1,0,1"), (F5, "2,0,1")):
        d = _p(fld, d_text)
        g = UnitGroup(d)
        assert len(g.monic_residues) == g.m
        for j in range(g.m):
            want = sorted(g.index_of(f) for f in enumerate_monics(fld, j)
                          if poly_gcd(f, d).degree == 0)
            assert list(g.monic_residues[j]) == want


def test_class_counts_fill_only_missing_degrees(monkeypatch):
    g = UnitGroup(_p(F3, "1,0,1"))
    low = g.irreducible_classes(3)
    calls = []
    real = characters_module._newton_class_counts

    def counted(group, N):
        calls.append(N)
        return real(group, N)

    monkeypatch.setattr(characters_module, "_newton_class_counts", counted)
    assert g.irreducible_classes(2) == {n: low[n] for n in (1, 2)}
    assert calls == []
    high = g.irreducible_classes(5)
    assert calls == [5]
    assert {n: high[n] for n in (1, 2, 3)} == low
    assert high == UnitGroup(g.d).irreducible_classes(5, method="direct")


def test_direct_method_neither_reads_nor_fills_the_class_cache():
    # "direct" is the oracle of the Newton recurrence, so it must not
    # answer from the recurrence's cache or seed it
    g = UnitGroup(_p(F3, "1,0,1"))
    direct = g.irreducible_classes(5, method="direct")
    assert g._class_counts == {}
    newton = g.irreducible_classes(5)
    assert newton == direct
    g._class_counts[3] = {}
    assert g.irreducible_classes(5, method="direct") == direct


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
