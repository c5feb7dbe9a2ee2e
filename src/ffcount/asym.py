"""Log-space evaluation of the predicted leading terms and their ingredients.

Representation conventions used throughout this module:

* A ``Magnitude`` carries a quantity as ``(sign, ln_abs)`` with ``sign`` in
  {-1, 0, +1} and ``ln_abs`` the natural log of the absolute value.  The
  predicted counts grow like q**n / n, which overflows a double long before
  the sweep ranges end, so every product here is an addition of logs.  The
  sign is tracked separately so the two-part short-interval term can be
  combined by signed log-sum-exp.
* ``AnalyticConfig`` holds the uniformity bound ``A`` (predictions are only
  claimed for arguments of size up to A), an optional explicit Euler-product
  truncation degree ``D``, and the certified tail tolerance used to pick a
  depth automatically when ``D`` is None.
* Infinite products over irreducibles are grouped by degree d and evaluated
  as sums of ``count(d) * local_log_term(d)``.  The combined local term at
  degree d is O(a**2 * q**(-2d)) for argument bound a, so after multiplying
  by count(d) <= q**d the tail past depth D is at most
  (a**2 + a) * q**(-D) / (q - 1); the automatic depth makes that bound, and
  the additional constraint q**D >= 2a keeps every log argument away from 0.
* Big integers and Fractions are moved into log space via ``ln_exact``,
  which never round-trips through a fixed-width float.

The gamma function is a fixed-coefficient Lanczos approximation (g=607/128,
15 terms), accurate well past the 1e-12 contract on (0, 12] and usable on
the complex plane away from the nonpositive-integer poles.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from fractions import Fraction
from functools import lru_cache

from .algebra import Poly, factor_stats, irreducible_count, phi_poly
from .errors import OutsideProvenRangeError, UndefinedMainTermError
from .exactcount import _coerce_q, rising_factorial_over_factorial

__all__ = [
    "AnalyticConfig",
    "DEFAULT_CONFIG",
    "Magnitude",
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
    "main_term_thm3_terms",
    "qlimit_count",
    "qlimit_sum",
    "ratio_to_main",
    "thm1_normalized_error",
    "thm2_normalized_error",
    "thm3_normalized_error",
    "truncation_depth",
]


def ln_exact(x) -> float:
    """Natural log of a positive int, Fraction, or float without overflow."""
    if isinstance(x, Fraction):
        if x <= 0:
            raise ValueError("ln_exact requires a positive value")
        return math.log(x.numerator) - math.log(x.denominator)
    if x <= 0:
        raise ValueError("ln_exact requires a positive value")
    return math.log(x)


class Magnitude(namedtuple("Magnitude", "sign ln_abs")):
    """Signed quantity stored as (sign, natural log of absolute value)."""

    __slots__ = ()

    @classmethod
    def zero(cls) -> "Magnitude":
        return cls(0, float("-inf"))

    @classmethod
    def from_float(cls, x: float) -> "Magnitude":
        if x == 0:
            return cls.zero()
        return cls(1 if x > 0 else -1, math.log(abs(x)))

    @classmethod
    def from_exact(cls, x) -> "Magnitude":
        if x == 0:
            return cls.zero()
        sign = 1 if x > 0 else -1
        return cls(sign, ln_exact(abs(x)))

    @classmethod
    def from_ln(cls, ln_abs: float, sign: int = 1) -> "Magnitude":
        if sign not in (-1, 0, 1):
            raise ValueError("sign must be -1, 0, or 1")
        if sign == 0:
            return cls.zero()
        return cls(sign, float(ln_abs))

    def __mul__(self, other: "Magnitude") -> "Magnitude":
        if self.sign == 0 or other.sign == 0:
            return Magnitude.zero()
        return Magnitude(self.sign * other.sign, self.ln_abs + other.ln_abs)

    def __truediv__(self, other: "Magnitude") -> "Magnitude":
        if other.sign == 0:
            raise ZeroDivisionError("division by zero Magnitude")
        if self.sign == 0:
            return Magnitude.zero()
        return Magnitude(self.sign * other.sign, self.ln_abs - other.ln_abs)

    def __neg__(self) -> "Magnitude":
        return Magnitude(-self.sign, self.ln_abs)

    def __add__(self, other: "Magnitude") -> "Magnitude":
        if self.sign == 0:
            return other
        if other.sign == 0:
            return self
        hi, lo = (self, other) if self.ln_abs >= other.ln_abs else (other, self)
        diff = lo.ln_abs - hi.ln_abs
        if self.sign == other.sign:
            return Magnitude(hi.sign, hi.ln_abs + math.log1p(math.exp(diff)))
        if diff == 0:
            return Magnitude.zero()
        return Magnitude(hi.sign, hi.ln_abs + math.log1p(-math.exp(diff)))

    def __sub__(self, other: "Magnitude") -> "Magnitude":
        return self + (-other)


def ratio_to_main(value, main: Magnitude) -> float:
    """Exact integer (or Fraction) divided by a positive Magnitude, as a float."""
    if main.sign <= 0:
        raise ValueError("ratio_to_main requires a positive main term")
    if value == 0:
        return 0.0
    if value < 0:
        raise ValueError("ratio_to_main requires a nonnegative exact value")
    return math.exp(ln_exact(value) - main.ln_abs)


class AnalyticConfig(namedtuple("AnalyticConfig", "A D tail_tol")):
    """Uniformity bound, optional truncation depth, certified tail tolerance."""

    __slots__ = ()

    def __new__(cls, A: float = 2.0, D: int | None = None, tail_tol: float = 1e-12):
        if not A > 1:
            raise ValueError("A must exceed 1")
        if D is not None and D < 1:
            raise ValueError("D must be at least 1")
        if not tail_tol > 0:
            raise ValueError("tail_tol must be positive")
        return super().__new__(cls, A, D, tail_tol)


DEFAULT_CONFIG = AnalyticConfig()


def truncation_depth(q, cfg: AnalyticConfig | None = None, bound: float | None = None) -> int:
    """Euler-product depth whose dropped tail is below cfg.tail_tol.

    The per-degree combined log term is at most (a^2+a) q^(-2d) once
    q^d >= 2a, so the tail past D is under (a^2+a) q^(-D)/(q-1).
    """
    cfg = cfg or DEFAULT_CONFIG
    if cfg.D is not None:
        return cfg.D
    q = _coerce_q(q)
    a = max(cfg.A, bound if bound is not None else 0.0)
    lq = math.log(q)
    d_small = math.ceil(math.log(2 * a) / lq)
    tail_target = cfg.tail_tol * (q - 1) / (a * a + a)
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
    out = cmath.exp(acc)
    if isinstance(z, complex):
        return out
    return out.real


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
    out = euler_F(complex(z), q, cfg) / gamma_complex(1 + complex(z))
    if isinstance(z, complex):
        return out
    return out.real


def bigGd(z, d: Poly, cfg: AnalyticConfig | None = None):
    """bigG corrected by the distinct irreducible divisors of the modulus d."""
    if d.degree < 1:
        raise ValueError("modulus must be nonconstant")
    q = d.field.q
    zc = complex(z)
    corr = 1 + 0j
    for p, _mult in factor_stats(d).factors:
        w = float(q) ** (-(len(p.coeffs) - 1))
        loc = 1 + zc * w
        if loc == 0:
            raise ValueError("z cancels a correction factor of the modulus")
        corr *= loc
    out = bigG(zc, q, cfg) / corr
    if isinstance(z, complex):
        return out
    return out.real


def bigH(z, q, cfg: AnalyticConfig | None = None):
    """q/(q+z) times bigG(z)."""
    q = _coerce_q(q)
    zc = complex(z)
    if q + zc == 0:
        raise ValueError("z = -q is a pole of the interval factor")
    out = q / (q + zc) * bigG(zc, q, cfg)
    if isinstance(z, complex):
        return out
    return out.real


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


def main_term_thm1(q, n: int, k: int, cfg: AnalyticConfig | None = None,
                   override: bool = False) -> Magnitude:
    """Predicted count of monic squarefree degree-n polynomials with k factors."""
    cfg = cfg or DEFAULT_CONFIG
    q = _coerce_q(q)
    _check_nk(n, k)
    if k > cfg.A * math.log(n) and not override:
        raise OutsideProvenRangeError("k exceeds A*log n; pass override=True to evaluate anyway")
    r = (k - 1) / math.log(n)
    g = bigG(r, q, cfg)
    ln_val = n * math.log(q) - math.log(n) + _ln_k_prefactor(n, k)
    return Magnitude.from_float(g) * Magnitude.from_ln(ln_val)


def main_term_thm2(n: int, k: int, d: Poly, cfg: AnalyticConfig | None = None,
                   form: str = "phi", override: bool = False) -> Magnitude:
    """Predicted count in the progression f = g mod d, any unit residue g.

    form "phi" divides by the unit group order; form "remark" uses the
    equivalent prefactor prod over p | d of (1 - q^-deg p)^-1 times
    q^(n - deg d).  The two agree identically.
    """
    cfg = cfg or DEFAULT_CONFIG
    _check_nk(n, k)
    if d.degree < 1:
        raise ValueError("modulus must be nonconstant")
    q = d.field.q
    m = d.degree
    if not override:
        bound = admissible_range(q, n, cfg.A, "thm2_m")
        if bound is None or m > bound:
            raise OutsideProvenRangeError(
                "modulus degree outside the proven range; pass override=True")
    r = (k - 1) / math.log(n)
    gd = bigGd(r, d, cfg)
    base = _ln_k_prefactor(n, k) - math.log(n)
    if form == "phi":
        ln_val = base + n * math.log(q) - ln_exact(phi_poly(d))
    elif form == "remark":
        corr = 0.0
        for p, _mult in factor_stats(d).factors:
            corr -= math.log1p(-float(q) ** (-(len(p.coeffs) - 1)))
        ln_val = base + (n - m) * math.log(q) + corr
    else:
        raise ValueError("form must be 'phi' or 'remark'")
    return Magnitude.from_float(gd) * Magnitude.from_ln(ln_val)


def _thm3_check(q: int, n: int, k: int, h: int, cfg: AnalyticConfig, override: bool):
    _check_nk(n, k)
    if n == 2 and k >= 3:  # the second part is evaluated at (k-2)/log(n-1)
        raise UndefinedMainTermError("the interval main term is undefined at n = 2 for k >= 3")
    if h < 0 or h >= n:
        raise ValueError("h must satisfy 0 <= h <= n-1")
    if h == n - 1 or override:
        return
    bound = admissible_range(q, n, cfg.A, "thm3_h")
    if bound is None or h < bound:
        raise OutsideProvenRangeError("h below the proven range; pass override=True")


def main_term_thm3_terms(q, n: int, k: int, h: int,
                         cfg: AnalyticConfig | None = None,
                         override: bool = False) -> tuple[Magnitude, Magnitude]:
    """The two parts of the short-interval prediction.

    The first part tracks interval members whose distance from the center
    has full degree h; the second, lower-order part covers the rest.  For
    k = 1 the second coefficient is zero and its H value is never evaluated.
    """
    cfg = cfg or DEFAULT_CONFIG
    q = _coerce_q(q)
    _thm3_check(q, n, k, h, cfg, override)
    ln_pre = (h + 1) * math.log(q) - math.log(n) + _ln_k_prefactor(n, k)
    pre = Magnitude.from_ln(ln_pre)
    r1 = (k - 1) / math.log(n)
    first = pre * Magnitude.from_float(bigH(r1, q, cfg))
    if k == 1:
        return first, Magnitude.zero()
    r2 = 0.0 if k == 2 else (k - 2) / math.log(n - 1)
    coef = (k - 1) / (q * math.log(n))
    second = pre * Magnitude.from_float(coef * bigH(r2, q, cfg))
    return first, second


def main_term_thm3(q, n: int, k: int, h: int, cfg: AnalyticConfig | None = None,
                   override: bool = False) -> Magnitude:
    """Predicted count of degree-n monics within distance-degree h of a center."""
    first, second = main_term_thm3_terms(q, n, k, h, cfg, override)
    return first + second


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


@lru_cache(maxsize=None)
def _qlimit_row(j: int, n: int) -> tuple[Fraction, ...]:
    # S_j(r) for r = 0..n: S_0 = 1; S_j(r) = sum_{m=1}^{r} S_{j-1}(r-m)/m
    if j == 0:
        return (Fraction(1),) * (n + 1)
    prev = _qlimit_row(j - 1, n)
    out = [Fraction(0)] * (n + 1)
    for r in range(1, n + 1):
        s = Fraction(0)
        for m in range(1, r + 1):
            s += prev[r - m] / m
        out[r] = s
    return tuple(out)


def qlimit_sum(n: int, k: int) -> Fraction:
    """Exact harmonic-convolution sum over compositions of at most n-1 parts."""
    if k < 1:
        raise ValueError("k must be at least 1")
    if n < k:
        raise ValueError("n must be at least k")
    return _qlimit_row(k - 1, n - 1)[n - 1]


def qlimit_count(q, n: int, k: int) -> Magnitude:
    """Large-q approximate count (q^n/n) * qlimit_sum / (k-1)!."""
    q = _coerce_q(q)
    s = qlimit_sum(n, k)
    ln_val = n * math.log(q) - math.log(n) - math.log(math.factorial(k - 1))
    return Magnitude.from_exact(s) * Magnitude.from_ln(ln_val)


def _observed(count: int, ln_main_unit: float) -> float:
    if count == 0:
        return 0.0
    return math.exp(ln_exact(count) - ln_main_unit)


def thm1_normalized_error(count: int, q, n: int, k: int,
                          cfg: AnalyticConfig | None = None) -> float:
    """|count / unit-main-term - G(r)| * (log n)^2 / k.

    The prediction's relative error is O(k / (log n)^2), so this quantity
    should stay bounded and non-increasing along doubling sweeps in n.
    """
    cfg = cfg or DEFAULT_CONFIG
    q = _coerce_q(q)
    r = (k - 1) / math.log(n)
    ln_unit = n * math.log(q) - math.log(n) + _ln_k_prefactor(n, k)
    obs = _observed(count, ln_unit)
    return abs(obs - bigG(r, q, cfg)) * math.log(n) ** 2 / k


def thm2_normalized_error(count: int, n: int, k: int, d: Poly,
                          cfg: AnalyticConfig | None = None) -> float:
    """Progression analogue of thm1_normalized_error, scaled by phi(d)."""
    cfg = cfg or DEFAULT_CONFIG
    q = d.field.q
    r = (k - 1) / math.log(n)
    ln_unit = (n * math.log(q) - ln_exact(phi_poly(d)) - math.log(n)
               + _ln_k_prefactor(n, k))
    obs = _observed(count, ln_unit)
    return abs(obs - bigGd(r, d, cfg)) * math.log(n) ** 2 / k


def thm3_normalized_error(count: int, q, n: int, k: int, h: int,
                          cfg: AnalyticConfig | None = None) -> float:
    """Interval analogue: observed bracket versus the two-term H bracket."""
    cfg = cfg or DEFAULT_CONFIG
    q = _coerce_q(q)
    _thm3_check(q, n, k, h, cfg, override=True)
    ln_unit = (h + 1) * math.log(q) - math.log(n) + _ln_k_prefactor(n, k)
    obs = _observed(count, ln_unit)
    bracket = bigH((k - 1) / math.log(n), q, cfg)
    if k > 1:
        r2 = 0.0 if k == 2 else (k - 2) / math.log(n - 1)
        bracket += (k - 1) / (q * math.log(n)) * bigH(r2, q, cfg)
    return abs(obs - bracket) * math.log(n) ** 2 / k
