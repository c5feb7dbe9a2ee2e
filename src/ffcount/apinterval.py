"""Exact factor-count tables refined by residue class, and interval counts.

Representation conventions used throughout this module:

* A GroupSeries answers count(u, n, k) = number of squarefree monic
  polynomials of degree n with exactly k distinct irreducible factors,
  all coprime to d, lying in the unit class u.  Row 0 is the empty
  product: count(identity, 0, 0) = 1.
* Tables are built by _class_product, the class kernel, on the unit
  group mod d as one big integer: the count of T^n z^k in class v sits in
  a slot of slot_bits(q, N) bits at bit n B + v W + k slot, with
  W = (K+1) slot and B = |G| W, v the index of the class; a GroupSeries
  keeps its degree rows.  Every slot value is a genuine count bounded by
  q^N, so no slot ever carries into its neighbor.
* The kernel multiplies out the product over irreducibles p not dividing
  d of (1 + z T^deg(p) e_[p]), e_[p] the basis vector of the class of p.
  Two factors of degree above N/2 multiply past T^N, so each of those is
  placed directly as its term z T^deg(p) e_[p]; the lower degrees are
  multiplied in class by class with exact binomial weights, since
  irreducibles of equal degree and class contribute identically, with
  one set of rotation masks per class.  Multiplying by e_c rotates
  every block of a row along each axis of the group (two shifts and a
  mask per axis).  Class sizes come from a Newton recurrence on the
  class-refined zeta coefficients followed by exact prime-power
  inversion; bucketing enumerated irreducibles ("direct") is its oracle.
* Interval counts reduce to progression counts through coefficient
  reversal: monic f of degree n with f(0) = a corresponds to the monic
  polynomial a^{-1} f* where f*(X) = X^n f(1/X), and the condition
  deg(f - g) <= h becomes a congruence modulo X^(n-h).  Polynomials with
  f(0) = 0 are handled by stripping one factor of X, which lowers the
  degree and factor count by one.  interval_progressions is the one place
  that builds these terms; the exact and the character paths both sum
  over them.
* Both paths keep only the live terms (g, n, k): a count is zero by
  degree alone unless n = k = 0 or 1 <= k <= max_omega(q, n).  Such zero
  counts are reported without building a table, so they never exceed a
  budget, and the table or the twisted series is built just deep enough
  for the live terms: N the largest live n, K the largest live k.
* The character path is exact and independent of the tables: for each
  word-size prime P = 1 (mod E) it sums conj(chi(g)) F_chi[n][k] over
  the characters in F_P, where F_chi is the twisted series that
  characters builds from L-polynomials alone, and CRT over as many
  primes as the largest possible count needs returns the integer.
"""

from __future__ import annotations

from collections import namedtuple

from .algebra import (
    Poly,
    enumerate_monics,
    factor_stats,
    involute,
    poly_gcd,
)
from .characters import CharacterSums, twisted_series, unit_group, word_primes
from .errors import BudgetExceededError, ConsistencyError
from .exactcount import byte_budget, max_omega, slot_bits

__all__ = [
    "APQuery",
    "GroupSeries",
    "IntervalQuery",
    "ap_enumerate",
    "ap_series",
    "interval_enumerate",
    "interval_progressions",
    "pi_k_ap_chars",
    "pi_k_ap_exact",
    "pi_k_interval_chars",
    "pi_k_interval_exact",
]

class APQuery(namedtuple("APQuery", "n k g d")):
    """Progression query: degree n, factor count k, residue g modulo d."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, g: Poly, d: Poly):
        if not d.is_monic or d.degree < 1:
            raise ValueError("modulus must be monic of degree >= 1")
        if n < 0 or k < 0:
            raise ValueError("n and k must be nonnegative")
        if g.field.key != d.field.key:
            raise ValueError("g and d must share a field")
        if poly_gcd(g, d).degree != 0:
            raise ValueError("g is not coprime to the modulus")
        return super().__new__(cls, n, k, g, d)


class IntervalQuery(namedtuple("IntervalQuery", "n k g h")):
    """Interval query: monic center g of degree n, radius degree h."""

    __slots__ = ()

    def __new__(cls, n: int, k: int, g: Poly, h: int):
        if not g.is_monic or g.degree != n:
            raise ValueError("g must be monic of degree n")
        if k < 0:
            raise ValueError("k must be nonnegative")
        if not 0 <= h <= n - 1:
            raise ValueError("h must satisfy 0 <= h <= n - 1")
        return super().__new__(cls, n, k, g, h)


class GroupSeries:
    """Per-unit-class squarefree factor-count tables modulo a polynomial,
    as the class kernel's packed degree rows."""

    __slots__ = ("group", "N", "K", "slot", "rows")

    def __init__(self, group, N: int, K: int, slot: int, rows):
        self.group = group
        self.N = N
        self.K = K
        self.slot = slot
        self.rows = rows

    def count(self, g, n: int, k: int) -> int:
        if not 0 <= n <= self.N:
            raise ValueError(f"degree {n} outside [0, {self.N}]")
        if k < 0:
            raise ValueError("k must be nonnegative")
        if k > self.K:
            # beyond the truncation; only safe to answer when provably zero
            if k > max_omega(self.group.q, n):
                return 0
            raise ValueError(f"k = {k} exceeds the truncation K = {self.K}")
        if not isinstance(g, int):
            g = self.group.index_of(g)
        elif not 0 <= g < self.group.order:
            raise ValueError(f"class index {g} is not in 0..{self.group.order - 1}")
        return (self.rows[n] >> (g * (self.K + 1) + k) * self.slot) & ((1 << self.slot) - 1)


def ap_series(d: Poly, N: int, K: int | None = None, method: str = "auto",
              budget: int | None = None) -> GroupSeries:
    """GroupSeries of squarefree coprime counts refined by residue class mod d.

    Class sizes come from the Newton recurrence ("class", or "auto", which
    is the same); "direct" buckets enumerated irreducibles by residue and
    serves as the test oracle.
    """
    group = unit_group(d)
    if N < 1:
        raise ValueError("N must be >= 1")
    q = group.q
    if K is None:
        K = min(N, max_omega(q, N))
    if K < 0:
        raise ValueError("K must be nonnegative")
    K = min(K, N)
    slot = slot_bits(q, N)
    # the kernel's peak: a rotation mask per axis of the group and a dozen
    # tables (the trunc mask, the table itself and transient copies of it)
    estimated = (len(group.structure) + 12) * (N + 1) * group.order * (K + 1) * slot // 8
    limit = byte_budget() if budget is None else budget
    if estimated > limit:
        raise BudgetExceededError(
            f"group series of estimated size {estimated} bytes exceeds the budget {limit}")
    counts = group.irreducible_classes(N, method=method)
    packed = _class_product(group, counts, N, K, slot)
    B = group.order * (K + 1) * slot
    row = (1 << B) - 1
    return GroupSeries(group, N, K, slot, [(packed >> n * B) & row for n in range(N + 1)])


def _tile(pattern: int, period: int, count: int) -> int:
    """count >= 1 copies of pattern, period bits apart, by doubling."""
    if count == 1:
        return pattern
    half = _tile(pattern, period, count // 2)
    out = half | half << count // 2 * period
    return out | pattern << (count - 1) * period if count & 1 else out


def _rotation(vec, axes, height: int):
    """Multiplication by the class with dlog vector vec, as (mask, up, down)
    per axis it moves: within each period of an axis, the blocks whose digit
    stays below n once vec's digit is added go up, the others wrap down."""
    return [(_tile((1 << (n - a) * s) - 1, n * s, height // (n * s)), a * s, (n - a) * s)
            for a, (n, s) in zip(vec, axes) if a]


def _rotate(x: int, rotation) -> int:
    for mask, up, down in rotation:
        lo = x & mask
        x = lo << up | (x ^ lo) >> down
    return x


def _class_product(group, classes, N: int, K: int, slot: int) -> int:
    """The product over (deg, c) of (1 + z T^deg e_c)^classes[deg][c], where
    classes[deg] maps a class index to its number of irreducibles of degree
    deg, cut at T^N and z^K and packed into one integer (see the module notes).
    """
    W = (K + 1) * slot
    axes, B = [], W  # (order, bit stride) per axis; the last axis is innermost
    for _, n in reversed(group.structure):
        axes.insert(0, (n, B))
        B *= n
    # slots 0..K-1 of every block: slot K only feeds slots past K
    low = _tile((1 << K * slot) - 1, W, group.order * (N + 1))
    # two factors with 2 deg > N multiply past T^N, so each only adds its
    # term cnt z T^deg e_c (slot 1 of block c in row deg): place those
    # directly, before any rotation; at K = 0 there is no slot for them
    Q = 1  # T^0 z^0 in the identity class, index 0
    by_class: dict[int, list[tuple[int, int]]] = {}
    for dp in range(1, N + 1):
        for c, cnt in classes.get(dp, {}).items():
            if 2 * dp <= N:
                by_class.setdefault(c, []).append((dp, cnt))
            elif K:
                Q += cnt << dp * B + c * W + slot
    for c, factors in sorted(by_class.items()):
        rotation = None  # drop one class's masks before building the next
        rotation = _rotation(group.dlog(c), axes, N * B)
        for dp, cnt in factors:
            # term j is C(cnt, j) z^j T^(dp j) e_c^j times the table before
            # this factor, cut to degree N - dp j
            src, b = Q, 1
            for j in range(1, min(K, N // dp, cnt) + 1):
                src = _rotate(src & (low >> dp * j * B), rotation) << slot
                b = b * (cnt - j + 1) // j
                Q += b * src << dp * j * B
    return Q


def _live_terms(q: int, terms):
    """The live terms (g, n, k), those whose count is not zero by degree
    alone (see the module notes), and the depth (N, K) of a table that
    holds them: their largest n and k, both 0 when no term is live."""
    live = [(g, n, k) for g, n, k in terms if n == k == 0 or 1 <= k <= max_omega(q, n)]
    N = max((n for _, n, _ in live), default=0)
    K = max((k for _, _, k in live), default=0)
    return live, N, K


def _table_sum(d: Poly, terms, series: GroupSeries | None, budget: int | None,
               method: str = "auto") -> int:
    """Sum of the progression counts of the terms (g, n, k) mod d, read
    from series (checked to be mod d and deep enough) or from a new table
    just deep enough for the live terms; degree-0 terms need no table."""
    live, N, K = _live_terms(d.field.q, terms)
    if N == 0:  # only the empty product is left, and it lies in the class 1
        one = Poly.one(d.field)
        return sum(g % d == one for g, _, _ in live)
    if series is None:
        series = ap_series(d, N, K, method=method, budget=budget)
    elif series.group.d != d:
        raise ValueError("series was built for a different modulus")
    elif series.N < N:
        raise ValueError("series truncation is below the queried degree")
    return sum(series.count(g, n, k) for g, n, k in live)


def pi_k_ap_exact(qy: APQuery, series: GroupSeries | None = None,
                  budget: int | None = None, method: str = "auto") -> int:
    """Exact count of squarefree f in the progression g mod d, deg n, k factors."""
    return _table_sum(qy.d, ((qy.g, qy.n, qy.k),), series, budget, method)


def pi_k_ap_chars(qy: APQuery) -> int:
    """The same progression count assembled from all characters mod d.

    Sums conj(chi(g)) times the character-twisted count over the dual
    group, exactly: in F_P for word-size primes P, combined by CRT.
    """
    return _char_sweep(qy.d, ((qy.g, qy.n, qy.k),))


def _char_sweep(d: Poly, terms) -> int:
    """Sum of the character-assembled counts of the terms (g, n, k) mod d.

    Per prime P, one twisted series per character, deep enough for every
    live term, serves all of them: the sum is |G|^(-1) sum over chi and
    terms of conj(chi(g)) F_chi[n][k] mod P.  Primes are added until their
    product exceeds the largest possible sum, so the CRT value is exact.
    """
    group = unit_group(d)
    live, N, K = _live_terms(group.q, terms)
    if not live:
        return 0
    gvecs = [group.dlog(group.index_of(g)) for g, _, _ in live]
    # each term counts monics of degree at most N
    bound = len(live) * group.q ** N
    total, modulus = 0, 1
    for P in word_primes(group.exponent):
        sums = CharacterSums(group, N, P)
        conj = [sums.conjugate_values(vec) for vec in gvecs]
        acc = 0
        for c in range(group.order):
            rows = twisted_series(c, sums, K)
            for vals, (_, n, k) in zip(conj, live):
                acc += vals[c] * rows[n][k]
        r = acc * pow(group.order, -1, P) % P
        total += modulus * ((r - total) * pow(modulus, -1, P) % P)
        modulus *= P
        if modulus > bound:
            return total
    raise ConsistencyError("ran out of word-size primes for the character sum")


def interval_progressions(qy: IntervalQuery):
    """The modulus X^(n-h) and the progression terms of an interval count.

    Returns (d, terms): the interval count is the sum over the 2(q-1)
    terms (r, n', k') of the progression counts of degree n', k' factors,
    residue r mod d.  Terms come in pairs per nonzero constant term a:
    (a^-1 g* mod d, n, k) and, stripping a factor X, (same, n-1, k-1).
    """
    n, k, g = qy.n, qy.k, qy.g
    fld = g.field
    d = Poly.x(fld, n - qy.h)
    gstar = involute(g)
    terms = []
    for a in range(1, fld.q):
        r = gstar.scale(fld.inv(a)) % d
        terms.append((r, n, k))
        terms.append((r, n - 1, k - 1))
    return d, tuple(terms)


def pi_k_interval_exact(qy: IntervalQuery, budget: int | None = None,
                        series: GroupSeries | None = None) -> int:
    """Exact count of squarefree f with deg(f - g) <= h and k factors.

    Sums the progression table mod X^(n-h) over interval_progressions.  A
    prebuilt series for that modulus can be passed in when many centers
    share one interval shape.
    """
    return _table_sum(*interval_progressions(qy), series, budget)


def pi_k_interval_chars(qy: IntervalQuery) -> int:
    """The interval count assembled from the characters mod X^(n-h).

    One character sweep serves all terms of interval_progressions.
    """
    return _char_sweep(*interval_progressions(qy))


def ap_enumerate(qy: APQuery) -> int:
    """Brute-force progression count; the oracle for pi_k_ap_exact."""
    r = qy.g % qy.d
    total = 0
    for f in enumerate_monics(qy.d.field, qy.n):
        if f % qy.d == r:
            st = factor_stats(f)
            if st.squarefree and st.omega == qy.k:
                total += 1
    return total


def interval_enumerate(qy: IntervalQuery) -> int:
    """Brute-force interval count; the oracle for pi_k_interval_exact.  f - g
    runs over the monics of degree h + 1 without their leading 1."""
    fld = qy.g.field
    total = 0
    for m in enumerate_monics(fld, qy.h + 1):
        f = qy.g + Poly(fld, m.coeffs[:-1])
        st = factor_stats(f)
        if st.squarefree and st.omega == qy.k:
            total += 1
    return total
