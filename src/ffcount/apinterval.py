"""Exact factor-count tables refined by residue class, and interval counts.

Representation conventions used throughout this module:

* A GroupSeries stores, for every unit residue u modulo d, the table
  coeff[u][n][k] = number of squarefree monic polynomials of degree n with
  exactly k distinct irreducible factors, all coprime to d, lying in the
  class u.  Row 0 is the empty product: coeff[identity][0][0] = 1.
* Tables are built by exactcount.euler_product_packed, the class kernel,
  on the unit group mod d: one packed big integer per (unit, degree) with
  (K+1) slots of slot_bits(q, N) bits; every slot value is a genuine count
  bounded by q^N, so no slot ever carries into its neighbor.  The global
  tables of exactcount and the twisted series of characters come from
  the log-derivative kernel and share only the row packing with this one.
* The kernel multiplies out the product over irreducibles p not dividing
  d of (1 + z T^deg(p) e_[p]) where e_[p] is the basis vector of the class
  of p.  Irreducibles with equal degree and equal residue class contribute
  identically, so the product is taken class by class with exact binomial
  weights.  Class sizes come from a Newton recurrence on the class-refined
  zeta coefficients followed by exact prime-power inversion; bucketing
  enumerated irreducibles ("direct") stays as its oracle.
* Interval counts reduce to progression counts through coefficient
  reversal: monic f of degree n with f(0) = a corresponds to the monic
  polynomial a^{-1} f* where f*(X) = X^n f(1/X), and the condition
  deg(f - g) <= h becomes a congruence modulo X^(n-h).  Polynomials with
  f(0) = 0 are handled by stripping one factor of X, which lowers the
  degree and factor count by one.  interval_progressions is the one place
  that builds these terms; the exact and the character paths both sum
  over them.
* The character path is exact and independent of the tables: for each
  word-size prime P = 1 (mod E) it sums conj(chi(g)) F_chi[n][k] over
  the characters in F_P, where F_chi is the twisted series that
  characters builds from L-polynomials alone, and CRT over as many
  primes as the largest possible count needs returns the integer.
"""

from __future__ import annotations

from dataclasses import dataclass

from .algebra import (
    Poly,
    enumerate_monics,
    factor_stats,
    involute,
    poly_gcd,
)
from .characters import CharacterSums, twisted_series, unit_group, word_primes
from .errors import BudgetExceededError, ConsistencyError
from .exactcount import byte_budget, euler_product_packed, max_omega, slot_bits

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

@dataclass(frozen=True)
class APQuery:
    """Progression query: degree n, factor count k, residue g modulo d."""

    n: int
    k: int
    g: Poly
    d: Poly

    def __post_init__(self):
        if not self.d.is_monic or self.d.degree < 1:
            raise ValueError("modulus must be monic of degree >= 1")
        if self.n < 0 or self.k < 0:
            raise ValueError("n and k must be nonnegative")
        if self.g.field.key != self.d.field.key:
            raise ValueError("g and d must share a field")
        if poly_gcd(self.g, self.d).degree != 0:
            raise ValueError("g is not coprime to the modulus")


@dataclass(frozen=True)
class IntervalQuery:
    """Interval query: monic center g of degree n, radius degree h."""

    n: int
    k: int
    g: Poly
    h: int

    def __post_init__(self):
        if not self.g.is_monic or self.g.degree != self.n:
            raise ValueError("g must be monic of degree n")
        if self.k < 0:
            raise ValueError("k must be nonnegative")
        if not 0 <= self.h <= self.n - 1:
            raise ValueError("h must satisfy 0 <= h <= n - 1")


class GroupSeries:
    """Per-unit-class squarefree factor-count tables modulo a polynomial."""

    __slots__ = ("group", "N", "K", "coeff")

    def __init__(self, group, N: int, K: int, coeff):
        self.group = group
        self.N = N
        self.K = K
        self.coeff = coeff

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
        idx = g if isinstance(g, int) else self.group.index_of(g)
        return self.coeff[idx][n][k]


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
    estimated = group.order * (N + 1) * ((K + 1) * slot // 8 + 64)
    limit = byte_budget() if budget is None else budget
    if estimated > limit:
        raise BudgetExceededError(
            f"group series of estimated size {estimated} bytes exceeds the budget {limit}")
    counts = group.irreducible_classes(N, method=method)
    rows = euler_product_packed(counts, N, K, slot, group)
    smask = (1 << slot) - 1
    coeff = {
        u: tuple(
            tuple((rows[u][n] >> (k * slot)) & smask for k in range(K + 1))
            for n in range(N + 1))
        for u in range(group.order)
    }
    return GroupSeries(group, N, K, coeff)


def pi_k_ap_exact(qy: APQuery, series: GroupSeries | None = None,
                  budget: int | None = None) -> int:
    """Exact count of squarefree f in the progression g mod d, deg n, k factors."""
    n, k = qy.n, qy.k
    if k > n:
        return 0
    if n == 0:
        return int(k == 0 and (qy.g % qy.d) == Poly.one(qy.d.field))
    if series is None:
        K = max(1, min(k, max_omega(qy.d.field.q, n)))
        series = ap_series(qy.d, n, K, budget=budget)
    else:
        if series.group.d != qy.d:
            raise ValueError("series was built for a different modulus")
        if series.N < n:
            raise ValueError("series truncation is below the queried degree")
    return series.count(qy.g, n, k)


def pi_k_ap_chars(qy: APQuery) -> int:
    """The same progression count assembled from all characters mod d.

    Sums conj(chi(g)) times the character-twisted count over the dual
    group, exactly: in F_P for word-size primes P, combined by CRT.
    """
    return _char_sweep(qy.d, ((qy.g, qy.n, qy.k),))


def _char_sweep(d: Poly, terms) -> int:
    """Sum of the character-assembled counts of the terms (g, n, k) mod d.

    Per prime P, one twisted series per character, deep enough for every
    term, serves all of them: the sum is |G|^(-1) sum over chi and terms
    of conj(chi(g)) F_chi[n][k] mod P.  Primes are added until their
    product exceeds the largest possible sum, so the CRT value is exact.
    """
    group = unit_group(d)
    # a count that is zero by its degree is left out of the sweep
    live = [(g, n, k) for g, n, k in terms
            if k <= n and (n == 0 or k <= max_omega(group.q, n))]
    if not live:
        return 0
    N = max(n for _, n, _ in live)
    # only columns up to the largest k are read, so truncating there is safe
    K = max(max(1, k) if n >= 1 else 0 for _, n, k in live)
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
    n, k = qy.n, qy.k
    if k == 0 or k > n:
        return 0
    d, terms = interval_progressions(qy)
    if series is None:
        K = max(1, min(k, max_omega(d.field.q, n)))
        series = ap_series(d, n, K, budget=budget)
    else:
        if series.group.d != d:
            raise ValueError("series was built for a different modulus")
        if series.N < n:
            raise ValueError("series truncation is below the queried degree")
    return sum(series.count(r, tn, tk) for r, tn, tk in terms)


def pi_k_interval_chars(qy: IntervalQuery) -> int:
    """The interval count assembled from the characters mod X^(n-h).

    One character sweep serves all terms of interval_progressions.
    """
    if qy.k == 0:
        return 0
    d, terms = interval_progressions(qy)
    return _char_sweep(d, terms)


def ap_enumerate(qy: APQuery, budget: int | None = None) -> int:
    """Brute-force progression count; the oracle for pi_k_ap_exact."""
    r = qy.g % qy.d
    total = 0
    for f in enumerate_monics(qy.d.field, qy.n, budget):
        if f % qy.d == r:
            st = factor_stats(f)
            if st.squarefree and st.omega == qy.k:
                total += 1
    return total


def interval_enumerate(qy: IntervalQuery, budget: int | None = None) -> int:
    """Brute-force interval count; the oracle for pi_k_interval_exact."""
    fld = qy.g.field
    q = fld.q
    cap = 2_000_000 if budget is None else budget
    if q ** (qy.h + 1) > cap:
        raise BudgetExceededError(
            f"interval of size {q ** (qy.h + 1)} exceeds the enumeration cap {cap}")
    total = 0
    for code in range(q ** (qy.h + 1)):
        cs = []
        v = code
        for _ in range(qy.h + 1):
            cs.append(v % q)
            v //= q
        f = qy.g + Poly(fld, cs)
        st = factor_stats(f)
        if st.squarefree and st.omega == qy.k:
            total += 1
    return total
