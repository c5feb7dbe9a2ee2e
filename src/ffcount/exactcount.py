"""Exact counts of monic polynomials by number of distinct irreducible factors.

The central object is a truncated bivariate series in T (tracking degree)
and z (tracking the distinct-factor count).  The squarefree generating
series is the Euler product over irreducibles of (1 + z T^deg p), grouped
by degree class d into local factors (1 + z T^d)^Pi(d), where Pi(d) is the
number of monic irreducibles of degree d.  Coefficients are arbitrary
precision integers; exactness is the point of this module.

Build strategy: since log F = sum_t Pi(t) sum_m (-1)^(m-1) z^m T^(mt) / m,

    n F_n = sum_{m <= K} (-1)^(m-1) z^m sum_{t <= n/m} a_m(t) F_{n-mt}

with a_m(t) = t Pi(t); a_m(t) = t P_(chi^m)(t) gives the series twisted
by a character chi.  One kernel, _log_derivative_rows, runs it for both
euler_product_squarefree and characters.twisted_series (mod a prime P).
Each T-row is one big integer with a fixed bit stride per z-slot, so z^m
is a shift by m slots and each inner sum is a pass of scalar-times-row
products.  Globally, since t Pi(t) = sum over d r = t of mu(r) q^d, the
part of those sums with a short stride m r is a geometric sum of rows,
kept up to date row by row, and the scalars left in the products are
small.  Every slot of n F_n lies in [0, 2^slot) and is zero past
max_omega(q, n), so the kernel stops there and masking the signed total
to the slots up to it is exact; the masked row divides exactly by n.
Tables stay packed from the kernel to the report: a BiSeries keeps slots
0..K-1 of each degree as one integer and slot K beside it.
The class kernel of apinterval, which builds the progression tables,
packs its slots the same way but keeps the whole table, every degree and
every residue class, in one integer.  Both kinds of table read a count by
one rule, _table_holds: a degree outside [0, N] or a negative k is an
error, and a k past the cut K reads 0 only above max_omega(q, n), since
a deeper table could hold any other count the cut hides.  Both refuse to
build past the memory budget by one rule, _check_budget.

The all-factors series (every monic polynomial, counted by distinct
irreducible factors with multiplicity ignored) is obtained from the
squarefree series through an exact identity: the local factor
(1 - T^d + z T^d)/(1 - T^d) equals (1 + (z-1) T^d) / (1 - T^d), so the
full product is the squarefree series evaluated at z - 1, convolved with
the geometric series sum_n q^n T^n, and re-expanded around z.  The
re-expansion is one packed Horner evaluation at X - 1, X = 2^slot, per
row: the all-factor counts lie in [0, q^n], so they are its base-X digits.

The integer number theory lives here too, since it needs no polynomial:
the irreducible count Pi(d), the Mobius function, integer factorization
and the Miller-Rabin test.  The global tables use only q and Pi, so this
module imports ``algebra`` only inside the enumeration oracle; q is an
int throughout.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from functools import lru_cache
from operator import mul

from .errors import BudgetExceededError, ConsistencyError

DEFAULT_BITS_CAP = 600
DEFAULT_BYTE_BUDGET = 1 << 30
# strides s whose sums sum_d q^d F_{n-sd} the squarefree recurrence updates
# instead of recomputing; they hold _LANES (_LANES + 1) / 2 packed rows
_LANES = 8


# -- integer number theory --------------------------------------------------------

# Miller-Rabin with the first 13 prime bases is exact below this bound
# (Sorenson and Webster); the character path's primes are below 2^62
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)
_MR_EXACT_BELOW = 3317044064679887385961981


def _is_prime_mr(n: int) -> bool:
    """Deterministic Miller-Rabin test for n below 3.3e24."""
    if n >= _MR_EXACT_BELOW:
        raise ValueError("the Miller-Rabin bases are only proven below 3.3e24")
    if n < 2:
        return False
    for a in _MR_BASES:
        if n % a == 0:
            return n == a
    d, s = n - 1, 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _int_factorization(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def _mobius_int(n: int) -> int:
    fac = _int_factorization(n)
    if any(a > 1 for a in fac.values()):
        return 0
    return -1 if len(fac) % 2 else 1


def _coerce_q(q) -> int:
    """The field size q, checked: an int of at least 2."""
    if not isinstance(q, int):
        raise ValueError(f"q must be an int, not {type(q).__name__}")
    if q < 2:
        raise ValueError("q must be at least 2")
    return q


@lru_cache(maxsize=None)
def irreducible_count(q, n: int) -> int:
    """Number of monic irreducibles of degree n over F_q (q an int)."""
    q = _coerce_q(q)
    if n < 1:
        raise ValueError("degree must be >= 1")
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius_int(n // d) * q**d
    if total % n:
        raise ConsistencyError(f"Mobius sum for degree {n} over F_{q} is not divisible by {n}")
    return total // n


# -- packed series ----------------------------------------------------------------


def byte_budget() -> int:
    """Memory budget in bytes; FFCOUNT_BUDGET_BYTES overrides the default."""
    raw = os.environ.get("FFCOUNT_BUDGET_BYTES")
    if raw is None:
        return DEFAULT_BYTE_BUDGET
    try:
        budget = int(raw)
    except ValueError:
        raise ValueError(f"FFCOUNT_BUDGET_BYTES is not an integer: {raw!r}") from None
    if budget < 0:
        raise ValueError(f"FFCOUNT_BUDGET_BYTES is negative: {raw!r}")
    return budget


def slot_bits(q: int, n: int) -> int:
    """A bit width that holds any count bounded by q**n, with carry headroom."""
    return max(8, math.ceil(n * math.log2(q))) + 2


@lru_cache(maxsize=None)
def max_omega(q: int, n: int) -> int:
    """Largest possible number of distinct irreducible factors in degree <= n.

    Greedy: distinct irreducibles of the smallest degrees pack the most
    factors into a fixed degree budget.
    """
    if n < 0:
        raise ValueError("degree must be >= 0")
    remaining = n
    k = 0
    d = 1
    while remaining >= d:
        take = min(irreducible_count(q, d), remaining // d)
        k += take
        remaining -= take * d
        if take < irreducible_count(q, d):
            break
        d += 1
    return k


def _table_holds(q: int, N: int, K: int, n: int, k: int) -> bool:
    """Whether a table cut at T^N and z^K holds the count of T^n z^k.

    False for a k past K above max_omega(q, n), a count zero by degree
    alone; any other read outside the table is a ValueError.
    """
    if not 0 <= n <= N:
        raise ValueError(f"degree {n} outside [0, {N}]")
    if k < 0:
        raise ValueError("k must be nonnegative")
    if k <= K:
        return True
    if k > max_omega(q, n):
        return False
    raise ValueError(f"k = {k} exceeds the truncation K = {K}")


def _check_budget(what: str, estimated: int, budget: int | None) -> None:
    """Refuse a table of an estimated size in bytes above budget, or above
    byte_budget() when budget is None; what names the table."""
    limit = byte_budget() if budget is None else budget
    if estimated > limit:
        raise BudgetExceededError(
            f"{what} of estimated size {estimated} bytes exceeds the budget {limit}")


class BiSeries(namedtuple("BiSeries", "q N K slot rows tops")):
    """Truncated series with nonnegative integer coefficients, kept packed.

    The count attached to T^n z^k, n <= N, lies in slot k, k < K, of
    rows[n], one integer with slot bits per slot, and tops[n] is the count
    of z^K.  row(n) unpacks one row, cell(n, k) reads one count, as
    _table_holds allows.
    """

    __slots__ = ()

    def cell(self, n: int, k: int) -> int:
        if not _table_holds(self.q, self.N, self.K, n, k):
            return 0
        return self.tops[n] if k == self.K else self.rows[n] >> k * self.slot & (1 << self.slot) - 1

    def row(self, n: int) -> tuple:
        return tuple([self.cell(n, k) for k in range(self.K + 1)])


def _check_series_budget(q: int, N: int, K: int, budget: int | None) -> int:
    if N < 1 or K < 1:
        raise ValueError("N and K must be >= 1")
    # q^N > 2^cap, in integers; a q of more than cap/N + 1 bits is past the
    # cap before its power is built, so no power passes 2^(cap + N)
    if N * (q.bit_length() - 1) > DEFAULT_BITS_CAP or q**N > 1 << DEFAULT_BITS_CAP:
        raise BudgetExceededError(
            f"series truncation N = {N} over F_q exceeds the {DEFAULT_BITS_CAP}-bit "
            f"coefficient cap: q^N > 2^{DEFAULT_BITS_CAP}")
    # the recurrence packs n F_n, up to N q^N, into each slot
    slot = slot_bits(q, N) + N.bit_length()
    _check_budget("series", (N + 1) * (K + 1) * slot // 8 + (N + 1) * 64, budget)
    return slot


def _log_derivative_rows(weights, q: int, N: int, K: int, slot: int, finish,
                         lanes=(), ratio: int = 0) -> tuple[list[int], list[int]]:
    """Rows of n F_n = sum_m z^m (sum_t weights[m][t] F_(n-mt) + sum of sign
    G_s(n) over (sign, s) in lanes[m]), G_s(n) = sum_d ratio^d F_(n-sd);
    signs are folded in.  finish(n, total) turns n F_n, packed in K+1 slots
    of slot bits, into the packed F_n.  Returns (rows, tops): slots 0..K-1
    of each F_n packed, and its slot K."""
    low = (1 << K * slot) - 1  # slot K of a row only feeds slots past K, so rows drop it
    geo = {s: [0] * s for lane in lanes[1:] for _, s in lane}  # geo[s][n % s] is G_s(n)
    rows, tops = [1 & low], [1 >> K * slot]  # F_0 = 1
    for n in range(1, N + 1):
        for s, g in geo.items():
            if s <= n:
                g[n % s] = ratio * (rows[n - s] + g[n % s])
        # a term z^m with m past max_omega(q, n) reaches only slots that are
        # zero in n F_n (mod P too), so it is dropped and those slots masked
        top = min(K, max_omega(q, n))
        total = 0
        for m in range(1, top + 1):
            # smallest row first: each addition costs the size of the running total
            part = sum(map(mul, weights[m][n // m:0:-1], rows[n % m:n - m + 1:m]))
            for sign, s in lanes[m] if lanes else ():
                part = part + geo[s][n % s] if sign > 0 else part - geo[s][n % s]
            total += part << m * slot
        row = finish(n, total & (1 << (top + 1) * slot) - 1)
        rows.append(row & low)
        tops.append(row >> K * slot)
    return rows, tops


def euler_product_squarefree(
    q,
    N: int,
    K: int | None = None,
    *,
    budget: int | None = None,
) -> BiSeries:
    """Counts of squarefree monic polynomials by degree and distinct-factor count.

    Row n, column k is the number of squarefree monic polynomials of degree
    n over F_q with exactly k distinct monic irreducible factors.  K
    defaults to max_omega(q, N), every column a degree-N monic can fill.
    """
    q = _coerce_q(q)
    if K is None:
        K = max_omega(q, N)
    slot = _check_series_budget(q, N, K, budget)
    # t Pi(t) = sum over d r = t of mu(r) q^d.  In the z^m sum, the terms
    # with m r <= L add up to mu(r) G_mr(n), where G_s(n) = sum_d q^d F_{n-sd};
    # the others weigh single rows, weights[m][t]
    L = min(N, _LANES)
    mu = [0] + [_mobius_int(r) for r in range(1, N + 1)]
    qpow = [q**d for d in range(N + 1)]
    weights, lanes = [None], [None]
    for m in range(1, K + 1):
        sign = 1 if m & 1 else -1
        w = [0] * (N // m + 1)
        for r in range(L // m + 1, N // m + 1):
            if mu[r]:
                for d in range(1, N // (m * r) + 1):
                    w[d * r] += sign * mu[r] * qpow[d]
        weights.append(w)
        lanes.append([(sign * mu[r], m * r) for r in range(1, L // m + 1) if mu[r]])

    def finish(n, total):
        row, rem = divmod(total, n)
        if rem:
            raise ConsistencyError(f"squarefree recurrence is not integral at degree {n}")
        return row

    return BiSeries(q, N, K, slot, *_log_derivative_rows(weights, q, N, K, slot, finish, lanes, q))


def euler_product_allfactors(
    q,
    N: int,
    K: int | None = None,
    *,
    budget: int | None = None,
) -> BiSeries:
    """Counts of all monic polynomials by degree and distinct-factor count.

    Row n, column k is the number of monic polynomials of degree n over F_q
    with exactly k distinct monic irreducible factors (multiplicities do not
    add to k).  With K at least max_omega(q, n), row n sums to q^n; K
    defaults to max_omega(q, N).
    """
    q = _coerce_q(q)
    if K is None:
        K = max_omega(q, N)
    if N < 1 or K < 1:
        raise ValueError("N and K must be >= 1")
    full = max_omega(q, N)
    sf = euler_product_squarefree(q, N, max(1, full), budget=budget)
    # q-geometric partial sums of squarefree rows, packed as sf packs them:
    # slot k stays below (n+1) q^n, so no slot carries
    running, top, wide = 0, sf.K * sf.slot, (1 << sf.slot) - 1
    slot = slot_bits(q, N)
    slot_mask, low = (1 << slot) - 1, (1 << K * slot) - 1
    rows, tops = [], []
    for n in range(N + 1):
        running = q * running + (sf.rows[n] | sf.tops[n] << top)
        sf.rows[n] = None  # each squarefree row is read once
        packed = 0  # running row at z - 1, evaluated at z = 2^slot
        for s in range(top, -1, -sf.slot):
            packed = (packed << slot) - packed + (running >> s & wide)
        # a negative or oversized count would carry across slots
        if sum(packed >> s & slot_mask for s in range(0, (max(K, full) + 1) * slot, slot)) != q**n:
            raise ConsistencyError(
                f"degree {n} does not sum to q^n after the basis change; series is corrupt")
        rows.append(packed & low)
        tops.append(packed >> K * slot & slot_mask)
    return BiSeries(q, N, K, slot, rows, tops)


def rising_factorial_over_factorial(n: int, z: complex) -> complex:
    """binom(n + z - 1, n) evaluated in floating point: prod (z+j)/(1+j)."""
    acc = complex(1.0)
    for j in range(n):
        acc *= (z + j) / (1 + j)
    return acc


# -- enumeration oracle ----------------------------------------------------------


def brute_force_tables(field: FieldSpec, n: int):
    """Counts by distinct-factor count from direct enumeration of M_n.

    Returns (squarefree_counts, all_counts), each a list indexed by k.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    from .algebra import enumerate_monics, factor_stats  # the oracle alone needs polynomials

    size = n + 1
    sq = [0] * size
    al = [0] * size
    for f in enumerate_monics(field, n):
        st = factor_stats(f)
        al[st.omega] += 1
        if st.squarefree:
            sq[st.omega] += 1
    return sq, al


def brute_force_count(field: FieldSpec, n: int, k: int, mode: str = "squarefree") -> int:
    """Enumeration-based count; mode is "squarefree" or "all"."""
    if mode not in ("squarefree", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    if k < 0:
        raise ValueError("k must be >= 0")
    sq, al = brute_force_tables(field, n)
    table = sq if mode == "squarefree" else al
    return table[k] if k < len(table) else 0


# -- contour extraction -----------------------------------------------------------


def cauchy_extract(series: BiSeries, n: int, k: int, r: float | None = None, M: int = 256) -> float:
    """Recover coeff[n][k] from the z-polynomial row by trapezoid quadrature.

    Averages row_n(r e^(i theta)) r^(-k) e^(-i k theta) over M equispaced
    angles.  The integrand is a trigonometric polynomial, so the error is
    pure aliasing plus floating-point rounding; it at least halves when M
    doubles until the rounding floor is reached.
    """
    if k < 0 or k > series.K:
        raise ValueError(f"column {k} outside series range")
    if M < 64:
        raise ValueError("M must be >= 64")
    if r is None:
        r = (k - 1) / math.log(n) if k >= 2 and n >= 2 else 0.25
    if r == 0:
        raise ValueError("contour radius must be nonzero")
    row = [float(c) for c in series.row(n)]
    total = 0j
    for m in range(M):
        theta = 2.0 * math.pi * m / M
        z = complex(r * math.cos(theta), r * math.sin(theta))
        acc = 0j
        for c in reversed(row):
            acc = acc * z + c
        total += acc * complex(math.cos(k * theta), -math.sin(k * theta))
    return (total.real / M) * r ** (-k)


# -- distribution of the factor-count statistic -----------------------------------


class OmegaMoments(namedtuple("OmegaMoments", "mean variance histogram")):
    """Exact mean and variance (Fractions) of the factor count, and its
    histogram as a dict from factor count to number of monics."""

    __slots__ = ()


def omega_moments(series: BiSeries, n: int) -> OmegaMoments:
    """Exact mean and variance of the distinct-factor count over all of M_n.

    The series must come from euler_product_allfactors with K large enough
    to hold every attainable factor count for degree n.
    """
    row = series.row(n)
    if series.K < max_omega(series.q, n):
        raise ValueError("series z-truncation is too small to cover degree n")
    total = sum(row)
    if total != series.q**n:
        raise ValueError("row does not sum to q^n; series is not an all-factors table")
    from fractions import Fraction  # only the moment commands pay for the import

    mean = Fraction(sum(k * c for k, c in enumerate(row)), total)
    second = Fraction(sum(k * k * c for k, c in enumerate(row)), total)
    histogram = {k: c for k, c in enumerate(row) if c}
    return OmegaMoments(mean=mean, variance=second - mean * mean, histogram=histogram)


def omega_mean_exact(q, n: int) -> Fraction:
    """Closed form for the mean factor count: sum over d <= n of Pi(d) q^(-d)."""
    q = _coerce_q(q)
    if n < 0:
        raise ValueError("n must be >= 0")
    from fractions import Fraction  # only the moment commands pay for the import

    return sum(
        (Fraction(irreducible_count(q, d), q**d) for d in range(1, n + 1)),
        Fraction(0),
    )
