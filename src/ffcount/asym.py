"""Log-space evaluation of the predicted leading terms and their ingredients.

Representation conventions used throughout this module:

* A main term is returned as a float, the natural log of the predicted
  count: the counts grow like q**n / n, which overflows a double long
  before the sweep ranges end, so every product here is an addition of
  logs.  A term whose bracket underflows to 0 or overflows a double has no
  log and raises UndefinedMainTermError.
* Each theorem is stated once, in a core (``_thm1``, ``_thm2``, ``_thm3``)
  that checks its arguments and, unless override is set, the proven range,
  and returns ``(ln_unit, brackets)``: the log of the unit, such as
  q**n/n (log n)**(k-1)/(k-1)! for Theorem 1, and the positive values whose
  sum it multiplies.  The main term and the normalized error both read it.
* ``AnalyticConfig`` holds the uniformity bound ``A``: predictions are only
  claimed for arguments of size up to A.
* Infinite products over irreducibles are grouped by degree d and evaluated
  as sums of ``count(d) * local_log_term(d)``.  The combined local term at
  degree d is O(a**2 * q**(-2d)) for argument bound a, so after multiplying
  by count(d) <= q**d the tail past depth D is at most
  (a**2 + a) * q**(-D) / (q - 1); the depth is the least D that makes that
  bound at most TAIL_TOL, with q**D >= 2a, which keeps every log argument
  away from 0.
* Big integers and Fractions are moved into log space via ``ln_exact``,
  which never round-trips through a fixed-width float.
* The q -> infinity limit is exact: ``qlimit_sum(n, k)`` is
  (k-1)! c(n, k) / (n-1)!, with c(n, k) the number of permutations of n
  things with k cycles, read from one row of unsigned Stirling numbers of
  the first kind (the cycle count of a random permutation: Arratia,
  Barbour and Tavare, Logarithmic Combinatorial Structures, EMS 2003).

The gamma function is a fixed-coefficient Lanczos approximation (g=607/128,
15 terms), accurate well past the 1e-12 contract on (0, 12] and usable on
the complex plane away from the nonpositive-integer poles.
"""

from __future__ import annotations

import cmath
import math
import sys
from collections import namedtuple

from .errors import OutsideProvenRangeError, UndefinedMainTermError
from .exactcount import _coerce_q, irreducible_count, rising_factorial_over_factorial

__all__ = [
    "AnalyticConfig",
    "DEFAULT_CONFIG",
    "TAIL_TOL",
    "admissible_range",
    "bigG",
    "bigGd",
    "bigH",
    "dz_asymptotic_ratio",
    "euler_F",
    "gamma_complex",
    "gamma_real",
    "ln_exact",
    "main_term_thm1",
    "main_term_thm2",
    "main_term_thm3",
    "qlimit_count",
    "qlimit_sum",
    "ratio_to_main",
    "thm1_normalized_error",
    "thm2_normalized_error",
    "thm3_normalized_error",
    "truncation_depth",
]

TAIL_TOL = 1e-12  # certified bound on the Euler product's dropped tail


def ln_exact(x) -> float:
    """Natural log of a positive int, Fraction, or float without overflow."""
    if x <= 0:
        raise ValueError("ln_exact requires a positive value")
    if isinstance(x, (int, float)):
        return math.log(x)
    return math.log(x.numerator) - math.log(x.denominator)


def ratio_to_main(value, ln_main: float) -> float:
    """Exact nonnegative integer (or Fraction) over exp(ln_main), as a float."""
    if value == 0:
        return 0.0
    return math.exp(ln_exact(value) - ln_main)


class AnalyticConfig(namedtuple("AnalyticConfig", "A")):
    """Uniformity bound A of the proven ranges."""

    __slots__ = ()

    def __new__(cls, A: float = 2.0):
        # the truncation depth grows like 2 log_q A, and past A ~ 1e147 the
        # irreducible count at that depth overflows a double over F_2
        if not 1 < A <= 1e100:
            raise ValueError(f"A must satisfy 1 < A <= 1e100, got {A!r}")
        return super().__new__(cls, A)


DEFAULT_CONFIG = AnalyticConfig()


def _float_q(q) -> int:
    """q as an int that converts to a double, which the Euler product and H need."""
    q = _coerce_q(q)
    if q > sys.float_info.max:
        raise ValueError(f"q = {q} exceeds the double range of the Euler product")
    return q


def truncation_depth(q, cfg: AnalyticConfig | None = None, bound: float | None = None) -> int:
    """Euler-product depth whose dropped tail is below TAIL_TOL.

    The per-degree combined log term is at most (a^2+a) q^(-2d) once
    q^d >= 2a, so the tail past D is under (a^2+a) q^(-D)/(q-1).
    """
    cfg = cfg or DEFAULT_CONFIG
    q = _float_q(q)
    a = max(cfg.A, bound if bound is not None else 0.0)
    lq = math.log(q)
    d_small = math.ceil(math.log(2 * a) / lq)
    tail_target = TAIL_TOL * (q - 1) / (a * a + a)
    d_tail = math.ceil(-math.log(tail_target) / lq)
    return max(d_small, d_tail, 1)


def _local_log_term(zc: complex, w: float, a: float) -> complex:
    """log(1 + z w) + z log(1 - w), safe against cancellation for small w.

    The linear terms cancel exactly, so for small w the direct difference of
    two logs keeps only rounding noise of size eps, which the degree-d
    irreducible count (about 1/w) would blow up.  The series in w starts at
    w^2 and is used whenever it converges fast; the direct form is kept for
    the handful of low degrees where w is large and the count is tiny.
    """
    if (a + 1) * w >= 0.25:
        return cmath.log(1 + zc * w) + zc * math.log1p(-w)
    acc = 0j
    wj = w * w
    zj = zc * zc
    aj = a * a
    sign = -1.0
    target = 1e-19 * w
    for j in range(2, 300):
        acc += wj * (sign * zj - zc) / j
        # individual terms can vanish incidentally (e.g. odd j at z = 1),
        # so stop on the certified envelope, not on the term itself
        if wj * (aj + a) / j <= target:
            break
        wj *= w
        zj *= zc
        aj *= a
        sign = -sign
    return acc


def _like(z, out: complex):
    """out for a complex z, its real part for a real z."""
    return out if isinstance(z, complex) else out.real


def euler_F(z, q, cfg: AnalyticConfig | None = None):
    """Product over irreducibles of (1 + z q^-deg)(1 - q^-deg)^z, truncated.

    Returns a float for real z, a complex for complex z.
    """
    cfg = cfg or DEFAULT_CONFIG
    q = _coerce_q(q)
    zc = complex(z)
    a = max(abs(zc), 1.0)
    depth = truncation_depth(q, cfg, abs(zc))
    acc = 0j
    for d in range(1, depth + 1):
        w = float(q) ** (-d)
        if zc * w == -1:
            raise ValueError("z = -q^%d is a zero of a local factor" % d)
        acc += irreducible_count(q, d) * _local_log_term(zc, w, a)
    return _like(z, cmath.exp(acc))


_LANCZOS_G = 607.0 / 128.0
_LANCZOS_COEFFS = (
    0.99999999999999709182,
    57.156235665862923517,
    -59.597960355475491248,
    14.136097974741747174,
    -0.49191381609762019978,
    0.33994649984811888699e-4,
    0.46523628927048575665e-4,
    -0.98374475304879564677e-4,
    0.15808870322491248884e-3,
    -0.21026444172410488319e-3,
    0.21743961811521264320e-3,
    -0.16431810653676389022e-3,
    0.84418223983852743293e-4,
    -0.26190838401581408670e-4,
    0.36899182659531622704e-5,
)


def gamma_complex(z) -> complex:
    """Lanczos gamma on the complex plane, reflection for Re z < 1/2."""
    z = complex(z)
    if z.imag == 0 and z.real <= 0 and z.real == int(z.real):
        raise ValueError("gamma pole at nonpositive integer %r" % z.real)
    if z.real < 0.5:
        return math.pi / (cmath.sin(math.pi * z) * gamma_complex(1 - z))
    zz = z - 1
    series = _LANCZOS_COEFFS[0]
    for i in range(1, len(_LANCZOS_COEFFS)):
        series += _LANCZOS_COEFFS[i] / (zz + i)
    t = zz + _LANCZOS_G + 0.5
    return math.sqrt(2 * math.pi) * t ** (zz + 0.5) * cmath.exp(-t) * series


def gamma_real(x: float) -> float:
    if not x > 0:
        raise ValueError("gamma_real requires x > 0")
    return gamma_complex(complex(x)).real


def bigG(z, q, cfg: AnalyticConfig | None = None):
    """euler_F(z) / gamma(1 + z)."""
    return _like(z, euler_F(complex(z), q, cfg) / gamma_complex(1 + complex(z)))


def bigGd(z, d: Poly, cfg: AnalyticConfig | None = None):
    """bigG corrected by the distinct irreducible divisors of the modulus d."""
    if d.degree < 1:
        raise ValueError("modulus must be nonconstant")
    from .algebra import prime_degrees  # only Theorem 2 factors a polynomial

    q = d.field.q
    zc = complex(z)
    corr = 1 + 0j
    for b in prime_degrees(d):
        loc = 1 + zc * float(q) ** -b
        if loc == 0:
            raise ValueError("z cancels a correction factor of the modulus")
        corr *= loc
    return _like(z, bigG(zc, q, cfg) / corr)


def bigH(z, q, cfg: AnalyticConfig | None = None):
    """q/(q+z) times bigG(z)."""
    q = _float_q(q)
    zc = complex(z)
    if q + zc == 0:
        raise ValueError("z = -q is a pole of the interval factor")
    return _like(z, q / (q + zc) * bigG(zc, q, cfg))


def dz_asymptotic_ratio(n: int, z) -> complex:
    """Weighted total D_z(n) divided by its predicted limit q^n n^(z-1)/gamma(z).

    The q^n factors cancel exactly, so the ratio is q-free; it tends to 1
    like 1 + O(1/n) away from the nonpositive integers (where D_z vanishes).
    """
    if n < 1:
        raise ValueError("n must be at least 1")
    zc = complex(z)
    if zc.imag == 0 and zc.real <= 0 and zc.real == int(zc.real):
        raise ValueError("ratio undefined at nonpositive integer z")
    return (rising_factorial_over_factorial(n, zc) * gamma_complex(zc)
            * cmath.exp(-(zc - 1) * math.log(n)))


def _ln_k_prefactor(n: int, k: int) -> float:
    # ln of (log n)^(k-1) / (k-1)!
    return (k - 1) * math.log(math.log(n)) - math.log(math.factorial(k - 1))


def _check_nk(n: int, k: int):
    if n < 2:
        raise ValueError("n must be at least 2")
    if k < 1:
        raise ValueError("k must be at least 1")


def _bracket(fn, z, *args) -> float:
    """fn(z, *args), a bracket of a main term; its gamma and Euler factors
    overflow a double for large z, and then the term is undefined."""
    try:
        return fn(z, *args)
    except OverflowError:
        raise UndefinedMainTermError(
            f"the main term is outside the double range at r = {z!r}") from None


def _thm1(q, n: int, k: int, cfg: AnalyticConfig | None, override: bool):
    """Theorem 1, global: unit q^n/n (log n)^(k-1)/(k-1)!, bracket G(r)."""
    cfg = cfg or DEFAULT_CONFIG
    q = _coerce_q(q)
    _check_nk(n, k)
    if k > cfg.A * math.log(n) and not override:
        raise OutsideProvenRangeError("k exceeds A*log n; pass override=True to evaluate anyway")
    ln_unit = n * math.log(q) - math.log(n) + _ln_k_prefactor(n, k)
    return ln_unit, (_bracket(bigG, (k - 1) / math.log(n), q, cfg),)


def _thm2(n: int, k: int, d: Poly, cfg: AnalyticConfig | None, override: bool):
    """Theorem 2, f = g mod d for any unit residue g: Theorem 1's unit over
    phi(d), bracket G_d(r).

    The equivalent prefactor q^(n - deg d) prod over p | d of
    (1 - q^-deg p)^-1 is the same number as q^n / phi(d).
    """
    cfg = cfg or DEFAULT_CONFIG
    _check_nk(n, k)
    if d.degree < 1:
        raise ValueError("modulus must be nonconstant")
    q = d.field.q
    if not override:
        bound = admissible_range(q, n, cfg.A, "thm2_m")
        if bound is None or d.degree > bound:
            raise OutsideProvenRangeError(
                "modulus degree outside the proven range; pass override=True")
    from .algebra import phi_poly  # only Theorem 2 factors a polynomial

    ln_unit = _ln_k_prefactor(n, k) - math.log(n) + n * math.log(q) - ln_exact(phi_poly(d))
    return ln_unit, (_bracket(bigGd, (k - 1) / math.log(n), d, cfg),)


def _thm3(q, n: int, k: int, h: int, cfg: AnalyticConfig | None, override: bool):
    """Theorem 3, degree-n monics within distance-degree h of a center: unit
    q^(h+1)/n (log n)^(k-1)/(k-1)!, brackets H(r1) and (k-1)/(q log n) H(r2).

    The first bracket tracks interval members whose distance from the center
    has full degree h; the second, lower-order one covers the rest.  For
    k = 1 the second coefficient is zero and its H value is never evaluated.
    """
    cfg = cfg or DEFAULT_CONFIG
    q = _coerce_q(q)
    _check_nk(n, k)
    if n == 2 and k >= 3:  # the second bracket is evaluated at (k-2)/log(n-1)
        raise UndefinedMainTermError("the interval main term is undefined at n = 2 for k >= 3")
    if h < 0 or h >= n:
        raise ValueError("h must satisfy 0 <= h <= n-1")
    if h < n - 1 and not override:
        bound = admissible_range(q, n, cfg.A, "thm3_h")
        if bound is None or h < bound:
            raise OutsideProvenRangeError("h below the proven range; pass override=True")
    ln_unit = (h + 1) * math.log(q) - math.log(n) + _ln_k_prefactor(n, k)
    brackets = (_bracket(bigH, (k - 1) / math.log(n), q, cfg),)
    if k > 1:
        r2 = 0.0 if k == 2 else (k - 2) / math.log(n - 1)
        brackets += ((k - 1) / (q * math.log(n)) * _bracket(bigH, r2, q, cfg),)
    return ln_unit, brackets


def _main_term(ln_unit: float, brackets: tuple[float, ...]) -> float:
    """ln(exp(ln_unit) * sum(brackets)), each smaller log added to the larger."""
    if not all(0 < b < math.inf for b in brackets):
        raise UndefinedMainTermError("the main term is outside the double range")
    *rest, ln = sorted(ln_unit + math.log(b) for b in brackets)
    for lo in rest:
        ln += math.log1p(math.exp(lo - ln))
    return ln


def _normalized_error(count: int, n: int, k: int, ln_unit: float,
                      brackets: tuple[float, ...]) -> float:
    """|count / unit - sum(brackets)| * (log n)^2 / k.

    The prediction's relative error is O(k / (log n)^2), so this quantity
    should stay bounded and non-increasing along doubling sweeps in n.
    """
    return abs(ratio_to_main(count, ln_unit) - sum(brackets)) * math.log(n) ** 2 / k


def main_term_thm1(q, n: int, k: int, cfg: AnalyticConfig | None = None,
                   override: bool = False) -> float:
    """Log of the predicted count of monic squarefree degree-n polynomials with k factors."""
    return _main_term(*_thm1(q, n, k, cfg, override))


def main_term_thm2(n: int, k: int, d: Poly, cfg: AnalyticConfig | None = None,
                   override: bool = False) -> float:
    """Log of the predicted count in the progression f = g mod d, any unit residue g."""
    return _main_term(*_thm2(n, k, d, cfg, override))


def main_term_thm3(q, n: int, k: int, h: int, cfg: AnalyticConfig | None = None,
                   override: bool = False) -> float:
    """Log of the predicted count of degree-n monics within distance-degree h of a center."""
    return _main_term(*_thm3(q, n, k, h, cfg, override))


def thm1_normalized_error(count: int, q, n: int, k: int,
                          cfg: AnalyticConfig | None = None) -> float:
    """Theorem 1's normalized error of an exact count, at any k."""
    return _normalized_error(count, n, k, *_thm1(q, n, k, cfg, override=True))


def thm2_normalized_error(count: int, n: int, k: int, d: Poly,
                          cfg: AnalyticConfig | None = None) -> float:
    """Theorem 2's normalized error of a progression count, at any modulus degree."""
    return _normalized_error(count, n, k, *_thm2(n, k, d, cfg, override=True))


def thm3_normalized_error(count: int, q, n: int, k: int, h: int,
                          cfg: AnalyticConfig | None = None) -> float:
    """Theorem 3's normalized error of an interval count, at any h."""
    return _normalized_error(count, n, k, *_thm3(q, n, k, h, cfg, override=True))


def admissible_range(q, n: int, A: float, mode: str) -> int | None:
    """Proven parameter range for the progression and interval predictions.

    mode "thm2_m": largest admissible modulus degree, or None when the range
    is empty.  mode "thm3_h": smallest admissible interval radius degree, or
    None when even h = n-1 misses the bound (the h = n-1 full interval is
    always meaningful regardless, since every degree-n monic is within
    distance degree n-1 of the center).
    """
    q = _coerce_q(q)
    if n < 2:
        raise ValueError("n must be at least 2")
    if not A > 1:
        raise ValueError("A must exceed 1")
    c = (1 + math.log(1 + A / 2)) / math.log(q)
    if mode == "thm2_m":
        bound = (0.5 - c) * n
        m = math.floor(bound)
        return m if m >= 1 else None
    if mode == "thm3_h":
        lo = math.ceil((0.5 + c) * (n + 1))
        return lo if lo <= n - 1 else None
    raise ValueError("mode must be 'thm2_m' or 'thm3_h'")


def qlimit_sum(n: int, k: int) -> Fraction:
    """The large-q limit S(n, k) = (k-1)! c(n, k) / (n-1)!, exactly.

    S(n, k) sums prod 1/m_i over the compositions m_1 + ... + m_(k-1) of at
    most n-1; it is (k-1)!/(n-1)! times the unsigned Stirling number c(n, k),
    the number of permutations of n things with k cycles (Arratia, Barbour
    and Tavare, Logarithmic Combinatorial Structures, EMS 2003).  c(n, k) is
    read from one row c(r, 0..k), updated n times by
    c(r+1, j) = c(r, j-1) + r c(r, j).
    """
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k:
        raise ValueError("n must be at least k")
    from fractions import Fraction  # only the qlimit sums pay for the import

    row = [1] + [0] * k
    for r in range(n):
        row = [0] + [row[j - 1] + r * row[j] for j in range(1, k + 1)]
    return Fraction(math.factorial(k - 1) * row[k], math.factorial(n - 1))


def qlimit_count(q, n: int, k: int, s) -> float:
    """Log of the large-q approximate count (q^n/n) * s / (k-1)!, for s the
    exact sum qlimit_sum(n, k), which the caller has already computed."""
    q = _coerce_q(q)
    ln_val = n * math.log(q) - math.log(n) - math.log(math.factorial(k - 1))
    return ln_exact(s) + ln_val
