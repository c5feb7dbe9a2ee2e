from __future__ import annotations

import random
import tracemalloc

import pytest

from ffcount.algebra import (
    Poly,
    default_modulus,
    enumerate_monics,
    factor_stats,
    field,
    irreducible_count,
    parse_poly,
    phi_poly,
)
from ffcount import apinterval
from ffcount.apinterval import (
    APQuery,
    GroupSeries,
    IntervalQuery,
    ap_enumerate,
    ap_series,
    interval_enumerate,
    pi_k_ap_chars,
    pi_k_ap_exact,
    pi_k_interval_chars,
    pi_k_interval_exact,
)
from ffcount.asym import thm2_normalized_error, thm3_normalized_error
from ffcount.characters import (
    CharacterSums,
    UnitGroup,
    twisted_series,
    unit_group,
    word_primes,
)
from ffcount.errors import BudgetExceededError
from ffcount.exactcount import euler_product_squarefree, slot_bits

F2 = field(2)
F3 = field(3)
F4 = field(2, 2, default_modulus(2, 2))
F5 = field(5)
F9 = field(3, 2, default_modulus(3, 2))


def _p(f, text):
    return parse_poly(f, text)


_FACTORED = {}


def _factored_monics(fld, N):
    """All monic f with deg <= N as (f, deg, k or None if not squarefree)."""
    key = (fld.key, N)
    if key not in _FACTORED:
        out = []
        for n in range(N + 1):
            for f in enumerate_monics(fld, n):
                st = factor_stats(f)
                out.append((f, n, st.omega if st.squarefree else None))
        _FACTORED[key] = out
    return _FACTORED[key]


def _bucket(fld, d, N):
    """counts[(residue coeffs, n, k)] over coprime squarefree monics."""
    counts = {}
    for f, n, k in _factored_monics(fld, N):
        if k is None:
            continue
        from ffcount.algebra import poly_gcd

        if poly_gcd(f, d).degree != 0:
            continue
        key = ((f % d).coeffs, n, k)
        counts[key] = counts.get(key, 0) + 1
    return counts


# -- series construction ---------------------------------------------------------


def _total(s, n, k):
    """Count of degree n with k factors, summed over every unit class."""
    return sum(s.count(u, n, k) for u in range(s.group.order))


def test_series_row_zero_and_zero_above_degree():
    s = ap_series(_p(F3, "0,1"), 5)
    assert s.count(Poly.one(F3), 0, 0) == 1
    assert _total(s, 0, 0) == 1
    for n in range(6):
        for k in range(n + 1, s.K + 1):
            assert _total(s, n, k) == 0


def test_direct_and_class_methods_agree(direct_classes, monkeypatch):
    # the table built from the Newton class counts equals the table built
    # from the enumerated irreducibles bucketed by residue
    for fld, d_text, N in (
        (F2, "0,1", 6),
        (F2, "0,0,1", 6),
        (F2, "0,0,0,1", 6),
        (F3, "0,1", 6),
        (F3, "1,0,1", 6),
        (F3, "0,2,1", 6),
        (F4, "0/1,1,1", 6),  # irreducible quadratic over F_4
        (F4, "0,0,0,1", 6),  # X^3, an interval modulus
        (F5, "2,0,1", 6),  # irreducible quadratic over F_5
        (F5, "1,2,1", 6),  # (X + 1)^2, a repeated factor
        (F9, "0,0,1", 4),  # X^2 over F_9
        (F2, "0,1,0,1", 6),  # X (X + 1)^2
        (F2, "0,0,0,0,1", 7),  # X^4
        (F3, "0,0,0,1", 6),  # X^3
    ):
        d = _p(fld, d_text)
        newton = ap_series(d, N)
        with monkeypatch.context() as m:
            m.setattr(UnitGroup, "irreducible_classes", direct_classes)
            direct = ap_series(d, N)
        assert direct.rows == newton.rows, (fld.q, d_text)


def test_series_single_factor_row_totals():
    # row k=1 counts irreducibles coprime to d of each degree
    for fld, d_text in ((F2, "0,0,1"), (F3, "0,1")):
        d = _p(fld, d_text)
        s = ap_series(d, 6)
        for n in range(1, 7):
            excluded = sum(1 for p, _ in factor_stats(d).factors if p.degree == n)
            assert _total(s, n, 1) == irreducible_count(fld.q, n) - excluded


def test_series_totals_match_global_squarefree_counts_for_prime_modulus():
    # for d = X + 1 over F_2 the only lost factor is X + 1 itself
    d = _p(F2, "1,1")
    s = ap_series(d, 7)
    bucket = _bucket(F2, d, 7)
    for n in range(8):
        for k in range(min(n, s.K) + 1):
            want = sum(v for (rc, bn, bk), v in bucket.items() if bn == n and bk == k)
            assert _total(s, n, k) == want


def test_series_validation_and_budget():
    d = _p(F3, "0,1")
    with pytest.raises(ValueError):
        ap_series(d, 0)
    with pytest.raises(BudgetExceededError):
        ap_series(d, 30, budget=100)


def test_series_count_bounds():
    s = ap_series(_p(F2, "0,1"), 4, K=2)
    with pytest.raises(ValueError):
        s.count(Poly.one(F2), 5, 1)
    with pytest.raises(ValueError):
        s.count(Poly.one(F2), -1, 0)
    # k beyond K but provably impossible in degree n is an exact zero
    assert s.count(Poly.one(F2), 2, 40) == 0
    # k beyond K that a wider table could answer is refused
    with pytest.raises(ValueError):
        s.count(Poly.one(F2), 4, 3)
    with pytest.raises(ValueError):
        s.count(Poly.x(F2), 2, 1)  # not coprime


def test_series_count_checks_an_integer_class():
    # a class given by index must be one of 0..order-1; -1 must not wrap
    # around to the last class, nor an index past the row read as zero
    s = ap_series(_p(F3, "1,0,1"), 4, K=2)
    assert s.group.order == 8
    for c in range(8):
        assert s.count(c, 3, 1) == s.count(s.group.elements[c], 3, 1)
    for c in (-1, 8, 100):
        with pytest.raises(ValueError, match="class index"):
            s.count(c, 3, 1)


# -- progression counts -----------------------------------------------------------


def test_triple_path_agreement_all_small_moduli():
    # enumeration, group-algebra table, and character sum agree for every
    # monic modulus of degree <= 2, every coprime residue, n <= 8
    for fld in (F2, F3):
        for m in (1, 2):
            for d in enumerate_monics(fld, m):
                bucket = _bucket(fld, d, 8)
                s = ap_series(d, 8)
                group = s.group
                for gi in range(group.order):
                    g = group.elements[gi]
                    for n in range(9):
                        for k in range(n + 1):
                            qy = APQuery(n, k, g, d)
                            want = bucket.get((g.coeffs, n, k), 0)
                            assert pi_k_ap_exact(qy, series=s) == want
                            assert pi_k_ap_chars(qy) == want


def test_ap_exact_matches_brute_force_oracle():
    d = _p(F3, "1,0,1")
    rng = random.Random(3)
    s = ap_series(d, 6)
    for _ in range(25):
        n = rng.randrange(7)
        k = rng.randrange(n + 1) if n else 0
        g = s.group.elements[rng.randrange(s.group.order)]
        qy = APQuery(n, k, g, d)
        assert pi_k_ap_exact(qy, series=s) == ap_enumerate(qy)


def test_hand_case_single_irreducible_quadratic():
    # over F_3 the rootless monic quadratics are X^2+1, X^2+X+2, X^2+2X+2;
    # only X^2+1 has constant term 1
    d = _p(F3, "0,1")
    assert pi_k_ap_exact(APQuery(2, 1, Poly.one(F3), d)) == 1
    total = sum(
        pi_k_ap_exact(APQuery(2, 1, Poly(F3, [c]), d)) for c in (1, 2)
    )
    assert total == 3


def test_degenerate_degree_below_modulus():
    # n < deg d: the progression contains at most the residue itself
    d = _p(F2, "0,0,0,1")
    s = ap_series(d, 2)
    for gi in range(s.group.order):
        g = s.group.elements[gi]
        for n in range(3):
            for k in range(n + 1):
                st = factor_stats(g) if g.degree == n else None
                want = int(
                    g.is_monic
                    and g.degree == n
                    and st is not None
                    and st.squarefree
                    and st.omega == k
                )
                assert pi_k_ap_exact(APQuery(n, k, g, d), series=s) == want
    assert pi_k_ap_exact(APQuery(0, 0, Poly.one(F2), d)) == 1


def test_residue_sum_closure():
    d = _p(F3, "1,0,1")
    s = ap_series(d, 7)
    sf = euler_product_squarefree(3, 7)
    for n in range(1, 8):
        for k in range(min(n, s.K) + 1):
            over_residues = sum(
                pi_k_ap_exact(APQuery(n, k, s.group.elements[gi], d), series=s)
                for gi in range(s.group.order)
            )
            # d = X^2+1 is irreducible, so non-coprime means divisible by it
            divisible = sum(
                1
                for f, fn, fk in _factored_monics(F3, 7)
                if fn == n and fk == k and (f % d).is_zero
            )
            assert over_residues == sf.cell(n, k) - divisible


def test_principal_character_retains_coprime_totals():
    d = _p(F3, "1,0,1")
    g = unit_group(d)
    s = ap_series(d, 6)
    P = next(word_primes(g.exponent))
    series = twisted_series(0, CharacterSums(g, 6, P), s.K)
    for n in range(7):
        for k in range(min(n, s.K) + 1):
            assert series.cell(n, k) == _total(s, n, k) % P


def test_twisted_series_matches_the_class_tables_for_every_character(char_value):
    # the one log-derivative kernel, run mod P on the character sums, against
    # the class kernel's integer tables: F_chi[n][k] = sum_u chi(u) count(u, n, k).
    # At N = 40, K = 8 and P near 2^62 a row's sums of products pass 2^124,
    # so a slot without its bits(N K) headroom would carry into the next
    N, K = 40, 8
    for d in (_p(F2, "1,1,0,1"), _p(F2, "0,0,0,1"), _p(F3, "1,0,1")):
        g = unit_group(d)
        s = ap_series(d, N, K)
        P = next(word_primes(g.exponent))
        sums = CharacterSums(g, N, P)
        for c in range(g.order):
            vals = [sums.powers[char_value(g, c, u)] for u in range(g.order)]
            series = twisted_series(c, sums, K)
            for n in range(N + 1):
                for k in range(K + 1):
                    want = sum(v * s.count(u, n, k) for u, v in enumerate(vals)) % P
                    assert series.cell(n, k) == want, (d.text(), c, n, k)


def test_character_path_combines_several_primes_by_crt(monkeypatch):
    # q^n = 2^70 is past one word-size prime, so the sum needs two of them
    d = _p(F2, "1,1,0,1")
    drawn = []
    real = apinterval.word_primes

    def counted(E):
        for P in real(E):
            drawn.append(P)
            yield P

    monkeypatch.setattr(apinterval, "word_primes", counted)
    s = ap_series(d, 70, 3)
    for gi in range(s.group.order):
        for k in (1, 3):
            qy = APQuery(70, k, s.group.elements[gi], d)
            drawn.clear()
            assert pi_k_ap_chars(qy) == pi_k_ap_exact(qy, series=s)
            assert len(drawn) == 2


def test_character_path_reads_no_class_counts(monkeypatch):
    # X^m, prime powers and mixed factorizations, over F_2, F_3, F_4, F_5:
    # every residue, against the exact tables built before the class counts
    # are cut off
    moduli = [(F2, "0,0,0,1"), (F3, "0,0,1"), (F2, "1,0,1,0,1"), (F3, "1,2,1"),
              (F2, "0,1,1,0,1"), (F3, "0,1,1"), (F4, "1,0,1"), (F5, "2,0,1"),
              (F3, "1,1,0,1")]
    want = {}
    for fld, text in moduli:
        d = _p(fld, text)
        s = ap_series(d, 6, 3)
        for gi in range(s.group.order):
            for n in range(7):
                for k in range(min(n, 3) + 1):
                    want[(text, fld.q, gi, n, k)] = s.count(gi, n, k)
    centers = [Poly.x(F2, 8), _p(F2, "1,1,0,1,0,0,0,0,1"), _p(F3, "2,0,1,1,0,1")]
    intervals = {(g.text(), h, k): pi_k_interval_exact(IntervalQuery(g.degree, k, g, h))
                 for g in centers for h in (2, 4) for k in (1, 2, 3)}

    def refuse(self, *args, **kwargs):
        raise RuntimeError("the character path read the class counts")

    monkeypatch.setattr(UnitGroup, "irreducible_classes", refuse)
    for fld, text in moduli:
        d = _p(fld, text)
        group = unit_group(d)
        for gi in range(group.order):
            for n in range(7):
                for k in range(min(n, 3) + 1):
                    qy = APQuery(n, k, group.elements[gi], d)
                    assert pi_k_ap_chars(qy) == want[(text, fld.q, gi, n, k)]
    for g in centers:
        for h in (2, 4):
            for k in (1, 2, 3):
                got = pi_k_interval_chars(IntervalQuery(g.degree, k, g, h))
                assert got == intervals[(g.text(), h, k)]


def test_ap_query_validation():
    d = _p(F3, "0,1")
    with pytest.raises(ValueError):
        APQuery(3, 1, Poly.x(F3), d)  # gcd(X, X) = X
    with pytest.raises(ValueError):
        APQuery(3, 1, Poly.zero(F3), d)
    with pytest.raises(ValueError):
        APQuery(-1, 0, Poly.one(F3), d)
    with pytest.raises(ValueError):
        APQuery(3, 1, Poly.one(F2), d)  # field mismatch
    with pytest.raises(ValueError):
        APQuery(3, 1, Poly.one(F3), _p(F3, "2,2"))  # modulus not monic


def test_table_options_are_keyword_only():
    # series and budget are easy to swap by position, so neither count
    # takes them so
    d = _p(F3, "0,1")
    with pytest.raises(TypeError):
        pi_k_ap_exact(APQuery(4, 2, Poly.one(F3), d), ap_series(d, 4))
    with pytest.raises(TypeError):
        pi_k_interval_exact(IntervalQuery(4, 2, Poly.x(F2, 4), 2), 1 << 20)


def test_prebuilt_series_is_checked():
    d = _p(F3, "0,1")
    s = ap_series(d, 4)
    with pytest.raises(ValueError):
        pi_k_ap_exact(APQuery(5, 1, Poly.one(F3), d), series=s)
    with pytest.raises(ValueError):
        pi_k_ap_exact(APQuery(3, 1, Poly.one(F3), _p(F3, "1,1")), series=s)


# -- interval counts ---------------------------------------------------------------


def test_interval_matches_enumeration_q2():
    rng = random.Random(5)
    for n in range(1, 9):
        centers = {Poly.x(F2, n)}
        if n <= 6:
            for _ in range(2):
                centers.add(Poly(F2, [rng.randrange(2) for _ in range(n)] + [1]))
        for g in centers:
            for h in range(n):
                for k in range(n + 1):
                    qy = IntervalQuery(n, k, g, h)
                    assert pi_k_interval_exact(qy) == interval_enumerate(qy)


def test_interval_frozen_value():
    qy = IntervalQuery(6, 2, Poly.x(F2, 6), 3)
    assert pi_k_interval_exact(qy) == 4
    assert interval_enumerate(qy) == 4


def test_full_interval_recovers_global_counts():
    for fld in (F2, F3):
        sf = euler_product_squarefree(fld.q, 7)
        for n in range(1, 8):
            g = Poly.x(fld, n)
            for k in range(1, n + 1):
                assert pi_k_interval_exact(IntervalQuery(n, k, g, n - 1)) == sf.cell(n, k)


def test_interval_partition_recovers_global_counts():
    # canonical centers: monic, coefficients of X^j zeroed for j <= h
    sf = euler_product_squarefree(2, 6)
    n, h = 6, 3
    for k in (1, 2, 3):
        total = 0
        for code in range(2 ** (n - h - 1)):
            cs = [0] * (h + 1)
            v = code
            for _ in range(h + 1, n):
                cs.append(v % 2)
                v //= 2
            cs.append(1)
            total += pi_k_interval_exact(IntervalQuery(n, k, Poly(F2, cs), h))
        assert total == sf.cell(n, k)


def test_interval_k_zero_and_k_above_n():
    assert pi_k_interval_exact(IntervalQuery(4, 0, Poly.x(F2, 4), 2)) == 0
    assert pi_k_interval_exact(IntervalQuery(4, 5, Poly.x(F2, 4), 2)) == 0


def test_interval_prebuilt_series():
    n, h = 6, 2
    shared = ap_series(Poly.x(F2, n - h), n)
    for k in range(1, 5):
        for code in (0, 9, 15):
            cs = [0] * h + [code & 1, (code >> 1) & 1, (code >> 2) & 1, 0]
            cs = cs[:n] + [1]
            g = Poly(F2, cs)
            qy = IntervalQuery(n, k, g, h)
            assert pi_k_interval_exact(qy, series=shared) == pi_k_interval_exact(qy)
    with pytest.raises(ValueError):
        pi_k_interval_exact(IntervalQuery(6, 2, Poly.x(F2, 6), 3), series=shared)
    short = ap_series(Poly.x(F2, n - h), n - 1)
    with pytest.raises(ValueError):
        pi_k_interval_exact(IntervalQuery(6, 2, Poly.x(F2, 6), 2), series=short)


def test_interval_query_validation():
    with pytest.raises(ValueError):
        IntervalQuery(4, 1, Poly.x(F2, 4), 4)  # h = n
    with pytest.raises(ValueError):
        IntervalQuery(4, 1, Poly.x(F2, 4), -1)
    with pytest.raises(ValueError):
        IntervalQuery(4, 1, Poly.x(F2, 3), 2)  # degree mismatch
    with pytest.raises(ValueError):
        IntervalQuery(4, 1, _p(F3, "0,0,0,0,2"), 2)  # not monic
    with pytest.raises(ValueError):
        IntervalQuery(4, -1, Poly.x(F2, 4), 2)


def test_interval_enumeration_budget_guard():
    with pytest.raises(BudgetExceededError):
        interval_enumerate(IntervalQuery(30, 2, Poly.x(F2, 30), 25))


# -- rate sweeps against the predicted main terms ---------------------------------


def test_progression_rate_sweep_q2():
    # the scaled error approaches its limiting constant from below, so the
    # sweep checks boundedness: tiny for k = 1, below 1/2 for k = 2
    d = _p(F2, "0,1")
    g = Poly.one(F2)
    for k, cap in ((1, 1e-5), (2, 0.45)):
        vals = []
        for n in (50, 100, 200, 400):
            s = ap_series(d, n, K=k)
            cnt = pi_k_ap_exact(APQuery(n, k, g, d), series=s)
            vals.append(thm2_normalized_error(cnt, n, k, d))
        assert all(v <= cap for v in vals), (k, vals)


def test_interval_rate_sweep_q2():
    for k, cap in ((1, 1e-5), (2, 0.45)):
        vals = []
        for n in (50, 100, 200, 400):
            cnt = pi_k_interval_exact(IntervalQuery(n, k, Poly.x(F2, n), n - 2))
            vals.append(thm3_normalized_error(cnt, 2, n, k, n - 2))
        assert all(v <= cap for v in vals), (k, vals)


# -- the class kernel against the loop it replaced ----------------------------------


def _reference_class_rows(classes, N, K, slot, group):
    """The per-class loop the packed kernel replaced: rows[v][n] packs the
    K+1 slots of T^n in class v, one small update per (degree, class, n, v)."""
    order = group.order
    mask = (1 << (K + 1) * slot) - 1
    rows = [[0] * (N + 1) for _ in range(order)]
    rows[0][0] = 1
    for dp in range(1, N + 1):
        for c, cnt in sorted(classes.get(dp, {}).items()):
            jmax = min(N // dp, K)
            binom = [1]
            for j in range(1, jmax + 1):
                binom.append(binom[-1] * (cnt - j + 1) // j)
            # class v * c^(-j) feeds slot j of class v, from degree n - dp*j
            inverse = group.power_map(-1)[c]
            src = list(range(order))
            feeds = [[] for _ in range(order)]
            for j in range(1, jmax + 1):
                src = [group.mul(u, inverse) for u in src]
                for v in range(order):
                    feeds[v].append((rows[src[v]], dp * j, j * slot, binom[j]))
            for n in range(N, dp - 1, -1):
                for row, feed in zip(rows, feeds):
                    acc = row[n]
                    for srow, back, shift, b in feed:
                        if back > n:
                            break
                        acc += b * (srow[n - back] << shift)
                    row[n] = acc & mask
    return rows


_KERNEL_SHAPES = (
    # cyclic: order 20 (X^2 over F_5), 63 and 80 (irreducible moduli)
    (F5, "0,0,1", 12, 8),
    (F2, "1,1,0,0,0,0,1", 12, 3),
    (F3, "2,1,0,0,1", 9, 2),
    # several axes: X^5 and X^6 over F_2, X^4 over F_3, X^2 over F_4, X^10 over F_2
    (F2, "0,0,0,0,0,1", 16, 4),
    (F2, "0,0,0,0,0,0,1", 14, 1),
    (F3, "0,0,0,0,1", 10, 3),
    (F4, "0,0,1", 12, 5),
    (F2, "0,0,0,0,0,0,0,0,0,0,1", 12, 3),
    # repeated factors: X (X+1)^2 over F_2, (X+1)^2 (X+2) over F_3; X^2 over F_9
    (F2, "0,1,0,1", 18, 8),
    (F3, "2,2,1,1", 12, 6),
    (F9, "0,0,1", 7, 7),
    # the one-element group
    (F2, "0,1", 24, 6),
    # at N = 1 every factor is placed directly; at N = 2 and 3 degree N/2
    # still rotates and degree (N+1)/2 is placed; at K = 0 nothing is placed
    (F3, "2,1,0,0,1", 1, 1),
    (F2, "0,0,0,0,0,1", 2, 2),
    (F5, "0,0,1", 3, 3),
    (F3, "2,2,1,1", 3, 2),
    (F2, "0,1,0,1", 9, 0),
)


def test_class_kernel_matches_the_per_class_loop():
    short_counts = 0  # classes with fewer irreducibles than factors of z taken
    for fld, d_text, N, K in _KERNEL_SHAPES:
        d = _p(fld, d_text)
        s = ap_series(d, N, K)
        classes = s.group.irreducible_classes(N)
        ref = _reference_class_rows(classes, N, K, s.slot, s.group)
        smask = (1 << s.slot) - 1
        for v in range(s.group.order):
            for n in range(N + 1):
                for k in range(K + 1):
                    want = (ref[v][n] >> k * s.slot) & smask
                    assert s.count(v, n, k) == want, (fld.q, d_text, v, n, k)
        short_counts += sum(cnt < min(K, N // dp)
                            for dp, by in classes.items() for cnt in by.values())
    assert short_counts


@pytest.mark.parametrize("fld,d_text,N", [
    pytest.param(F2, "1,1,0,0,0,0,1", 12, id="cyclic-63"),
    pytest.param(F2, "0,0,0,0,0,1", 9, id="three-axes-16"),
    pytest.param(F3, "2,2,1,1", 8, id="repeated-factor-18"),
])
def test_class_kernel_builds_each_class_masks_once(monkeypatch, fld, d_text, N):
    # only classes with an irreducible of degree <= N/2 rotate the table;
    # the factors of higher degree are placed without a rotation
    built = []
    real = apinterval._rotation
    monkeypatch.setattr(apinterval, "_rotation",
                        lambda vec, *rest: built.append(vec) or real(vec, *rest))
    s = ap_series(_p(fld, d_text), N, 3)
    classes = s.group.irreducible_classes(N)
    lower = {c for dp in range(1, N // 2 + 1) for c in classes.get(dp, {})}
    upper = {c for dp in range(N // 2 + 1, N + 1) for c in classes.get(dp, {})}
    assert lower & upper  # some class has factors on both sides of N/2
    assert sorted(built) == sorted(s.group.dlog(c) for c in lower)


def test_class_kernel_memory_stays_within_its_estimate():
    # the order-2047 modulus of the CLI test and X^10, the order-512 interval
    # modulus.  ap_series refuses a budget below its estimate, so the kernel's
    # peak must pass with the budget at the peak and fail one byte below it,
    # and 32 tables' worth must be enough
    for d_text, N, K in (("1,0,0,0,0,0,0,0,0,1,0,1", 11, 2),
                         ("0,0,0,0,0,0,0,0,0,0,1", 12, 3)):
        d = _p(F2, d_text)
        group = unit_group(d)
        counts = group.irreducible_classes(N)
        slot = slot_bits(2, N)
        table = (N + 1) * group.order * (K + 1) * slot // 8
        tracemalloc.start()
        try:
            apinterval._class_product(group, counts, N, K, slot)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 32 * table, (group.order, peak, table)
        ap_series(d, N, K, budget=32 * table)
        with pytest.raises(BudgetExceededError):
            ap_series(d, N, K, budget=peak - 1)
