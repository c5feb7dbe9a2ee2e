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
small.  Every slot of n F_n lies in [0, 2^slot), so masking the signed
total to K+1 slots is exact and the masked row divides exactly by n.
The class kernel of apinterval, which builds the progression tables,
packs its slots the same way but keeps the whole table, every degree and
every residue class, in one integer.

The all-factors series (every monic polynomial, counted by distinct
irreducible factors with multiplicity ignored) is obtained from the
squarefree series through an exact identity: the local factor
(1 - T^d + z T^d)/(1 - T^d) equals (1 + (z-1) T^d) / (1 - T^d), so the
full product is the squarefree series evaluated at z - 1, convolved with
the geometric series sum_n q^n T^n, and re-expanded around z.  The
re-expansion is one packed Horner evaluation at X - 1, X = 2^slot, per
row: the all-factor counts lie in [0, q^n], so they are its base-X digits.
"""

from __future__ import annotations

import math
import os
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache
from operator import mul

from .algebra import FieldSpec, _mobius_int, enumerate_monics, factor_stats, irreducible_count
from .errors import BudgetExceededError, ConsistencyError

DEFAULT_K_CAP = 40
DEFAULT_BITS_CAP = 600
DEFAULT_BYTE_BUDGET = 1 << 30
# strides s whose sums sum_d q^d F_{n-sd} the squarefree recurrence updates
# instead of recomputing; they hold _LANES (_LANES + 1) / 2 packed rows
_LANES = 8


def byte_budget() -> int:
    """Memory budget in bytes; FFCOUNT_BUDGET_BYTES overrides the default."""
    raw = os.environ.get("FFCOUNT_BUDGET_BYTES")
    if raw is None:
        return DEFAULT_BYTE_BUDGET
    try:
        return int(raw)
    except ValueError:
        raise ValueError(f"FFCOUNT_BUDGET_BYTES is not an integer: {raw!r}") from None


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


def _coerce_q(q) -> int:
    if isinstance(q, FieldSpec):
        return q.q
    q = int(q)
    if q < 2:
        raise ValueError("q must be at least 2")
    return q


class BiSeries:
    """Truncated series with integer (or exact rational) coefficients.

    coeff[n][k] is the count attached to T^n z^k; the table is rectangular
    with dimensions (N+1) x (K+1) and is immutable after construction.
    """

    __slots__ = ("q", "N", "K", "coeff")

    def __init__(self, q: int, N: int, K: int, coeff):
        rows = tuple(tuple(row) for row in coeff)
        if len(rows) != N + 1 or any(len(r) != K + 1 for r in rows):
            raise ValueError("coefficient table must be (N+1) x (K+1)")
        self.q = q
        self.N = N
        self.K = K
        self.coeff = rows

    def row(self, n: int) -> tuple:
        if not 0 <= n <= self.N:
            raise ValueError(f"row {n} outside [0, {self.N}]")
        return self.coeff[n]


def _check_series_budget(q: int, N: int, K: int, bits_cap: int, budget: int | None) -> int:
    if N < 1 or K < 1:
        raise ValueError("N and K must be >= 1")
    if N * math.log2(q) > bits_cap + 1e-9:
        raise BudgetExceededError(
            f"series truncation N = {N} over F_{q} exceeds the {bits_cap}-bit coefficient cap"
        )
    # the recurrence packs n F_n, up to N q^N, into each slot
    slot = slot_bits(q, N) + N.bit_length()
    estimated = (N + 1) * (K + 1) * slot // 8 + (N + 1) * 64
    limit = byte_budget() if budget is None else budget
    if estimated > limit:
        raise BudgetExceededError(
            f"series of estimated size {estimated} bytes exceeds the budget {limit}"
        )
    return slot


def _log_derivative_rows(weights, N: int, K: int, slot: int, finish,
                         lanes=(), ratio: int = 0) -> list[tuple[int, ...]]:
    """Rows [n][k] of n F_n = sum_m z^m (sum_t weights[m][t] F_(n-mt) + sum of
    sign G_s(n) over (sign, s) in lanes[m]), G_s(n) = sum_d ratio^d F_(n-sd);
    signs are folded in.  finish(n, total) turns n F_n, packed in K+1 slots
    of slot bits, into the packed F_n."""
    mask = (1 << (K + 1) * slot) - 1
    low = mask >> slot  # slot K of a row only feeds slots past K, so rows drop it
    smask, offsets = (1 << slot) - 1, range(0, (K + 1) * slot, slot)
    geo = {s: [0] * s for lane in lanes[1:] for _, s in lane}  # geo[s][n % s] is G_s(n)
    rows, out = [1], [(1,) + (0,) * K]
    for n in range(1, N + 1):
        for s, g in geo.items():
            if s <= n:
                g[n % s] = ratio * (rows[n - s] + g[n % s])
        total = 0
        for m in range(1, min(n, K) + 1):
            part = sum(map(mul, weights[m][1:n // m + 1], rows[n - m::-m]))
            for sign, s in lanes[m] if lanes else ():
                part = part + geo[s][n % s] if sign > 0 else part - geo[s][n % s]
            total += part << m * slot
        row = finish(n, total & mask)
        rows.append(row & low)
        out.append(tuple([(row >> s) & smask for s in offsets]))
    return out


def euler_product_squarefree(
    q,
    N: int,
    K: int | None = None,
    *,
    bits_cap: int = DEFAULT_BITS_CAP,
    budget: int | None = None,
) -> BiSeries:
    """Counts of squarefree monic polynomials by degree and distinct-factor count.

    Row n, column k is the number of squarefree monic polynomials of degree
    n over F_q with exactly k distinct monic irreducible factors.
    """
    q = _coerce_q(q)
    if K is None:
        K = min(N, DEFAULT_K_CAP)
    slot = _check_series_budget(q, N, K, bits_cap, budget)
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

    return BiSeries(q, N, K, _log_derivative_rows(weights, N, K, slot, finish, lanes, q))


def euler_product_allfactors(
    q,
    N: int,
    K: int | None = None,
    *,
    bits_cap: int = DEFAULT_BITS_CAP,
    budget: int | None = None,
) -> BiSeries:
    """Counts of all monic polynomials by degree and distinct-factor count.

    Row n, column k is the number of monic polynomials of degree n over F_q
    with exactly k distinct monic irreducible factors (multiplicities do not
    add to k).  With K at least max_omega(q, n), row n sums to q^n.
    """
    q = _coerce_q(q)
    if K is None:
        K = min(N, DEFAULT_K_CAP)
    if N < 1 or K < 1:
        raise ValueError("N and K must be >= 1")
    full = max_omega(q, N)
    sf = euler_product_squarefree(q, N, max(1, full), bits_cap=bits_cap, budget=budget)
    slot = slot_bits(q, N)
    slot_mask = (1 << slot) - 1
    width = max(K, full) + 1
    coeff = []
    running = [0] * (full + 1)  # q-geometric partial sums of squarefree rows
    for n in range(N + 1):
        packed = 0  # running row at z - 1, evaluated at z = 2^slot
        for k in range(full, -1, -1):
            running[k] = q * running[k] + sf.coeff[n][k]
            packed = (packed << slot) - packed + running[k]
        row = [(packed >> (k * slot)) & slot_mask for k in range(width)]
        # a negative or oversized count would carry across slots
        if sum(row) != q**n:
            raise AssertionError("negative count after basis change; series is corrupt")
        coeff.append(row[:K + 1])
    return BiSeries(q, N, K, coeff)


def rising_factorial_over_factorial(n: int, z: complex) -> complex:
    """binom(n + z - 1, n) evaluated in floating point: prod (z+j)/(1+j)."""
    acc = complex(1.0)
    for j in range(n):
        acc *= (z + j) / (1 + j)
    return acc


# -- enumeration oracle ----------------------------------------------------------


def brute_force_tables(field: FieldSpec, n: int, budget: int | None = None):
    """Counts by distinct-factor count from direct enumeration of M_n.

    Returns (squarefree_counts, all_counts), each a list indexed by k.
    """
    if n < 0:
        raise ValueError("n must be >= 0")
    size = n + 1
    sq = [0] * size
    al = [0] * size
    for f in enumerate_monics(field, n, budget):
        st = factor_stats(f)
        al[st.omega] += 1
        if st.squarefree:
            sq[st.omega] += 1
    return sq, al


def brute_force_count(
    field: FieldSpec, n: int, k: int, mode: str = "squarefree", budget: int | None = None
) -> int:
    """Enumeration-based count; mode is "squarefree" or "all"."""
    if mode not in ("squarefree", "all"):
        raise ValueError(f"unknown mode {mode!r}")
    if k < 0:
        raise ValueError("k must be >= 0")
    sq, al = brute_force_tables(field, n, budget)
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
    if not 0 <= n <= series.N:
        raise ValueError(f"row {n} outside series range")
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
    if not 0 <= n <= series.N:
        raise ValueError(f"degree {n} outside series range")
    if series.K < max_omega(series.q, n):
        raise ValueError("series z-truncation is too small to cover degree n")
    row = series.row(n)
    total = sum(row)
    if total != series.q**n:
        raise ValueError("row does not sum to q^n; series is not an all-factors table")
    mean = Fraction(sum(k * c for k, c in enumerate(row)), total)
    second = Fraction(sum(k * k * c for k, c in enumerate(row)), total)
    histogram = {k: c for k, c in enumerate(row) if c}
    return OmegaMoments(mean=mean, variance=second - mean * mean, histogram=histogram)


def omega_mean_exact(q, n: int) -> Fraction:
    """Closed form for the mean factor count: sum over d <= n of Pi(d) q^(-d)."""
    q = _coerce_q(q)
    if n < 0:
        raise ValueError("n must be >= 0")
    return sum(
        (Fraction(irreducible_count(q, d), q**d) for d in range(1, n + 1)),
        Fraction(0),
    )
