"""Arithmetic for polynomials over small finite fields.

Field elements are canonical integers in [0, q).  For a prime field
(e = 1) the integer is the residue itself.  For an extension field
F_{p^e} the integer encodes the coefficient vector of the residue
polynomial in the generator: value = sum(c_i * p**i) with c_i in
[0, p).  Extension arithmetic is schoolbook reduction modulo an
explicit irreducible modulus and is backed by full multiplication
tables, which keeps q <= 64 for e > 1.

Polynomials are immutable.  Coefficients are stored ascending
(constant term first) with no trailing zeros, so the zero polynomial
has an empty coefficient tuple.  Its degree is the float sentinel
NEG_INF rather than -1, which keeps it out of silent integer
arithmetic while still comparing correctly against real degrees.

Enumeration of monic polynomials of degree n is lexicographic with
the constant coefficient varying fastest: index i maps to the base-q
digits of i as the n lower coefficients, plus the leading 1.

Irreducibility has one test, Rabin's Frobenius-power criterion, which
is polynomial in the degree and log q at every size.

Everything here is a pure function over immutable values.  The
per-field irreducible tables are filled once on first use and then
only read, so sharing between threads needs no coordination.

Text format for a polynomial: comma-separated base-10 coefficients,
ascending, e.g. "1,0,1,1" is 1 + X^2 + X^3.  Over an extension field
each coefficient is a slash-separated F_p vector, e.g. "1/0,0/1".
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache

from .errors import BudgetExceededError

NEG_INF = float("-inf")

DEFAULT_ENUM_BUDGET = 2_000_000

_EXTENSION_Q_LIMIT = 64


def _is_prime_int(n: int) -> bool:
    """Trial division, about sqrt(n) steps: the test oracle of _is_prime_mr."""
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


class FieldSpec:
    """A finite field F_{p^e} with canonical integer element encoding."""

    __slots__ = ("p", "e", "q", "modulus", "_mul_t", "_inv_t", "_neg_t")

    def __init__(self, p: int, e: int = 1, modulus: tuple[int, ...] | None = None):
        if not _is_prime_mr(p):
            raise ValueError(f"p = {p} is not prime")
        if e < 1:
            raise ValueError("extension degree e must be >= 1")
        self.p = p
        self.e = e
        self.q = p**e
        if e == 1:
            if modulus is not None:
                raise ValueError("modulus is only meaningful for e > 1")
            self.modulus = None
            self._mul_t = None
            self._inv_t = None
            self._neg_t = None
        else:
            if self.q > _EXTENSION_Q_LIMIT:
                raise BudgetExceededError(
                    f"extension field size {self.q} exceeds the table limit {_EXTENSION_Q_LIMIT}"
                )
            if modulus is None:
                raise ValueError("an explicit irreducible modulus is required for e > 1")
            modulus = tuple(int(c) % p for c in modulus)
            while modulus and modulus[-1] == 0:
                modulus = modulus[:-1]
            if len(modulus) != e + 1:
                raise ValueError(f"modulus must have degree e = {e}")
            if modulus[-1] != 1:
                raise ValueError("modulus must be monic")
            base = FieldSpec(p)
            if not is_irreducible(Poly(base, modulus)):
                raise ValueError("modulus is not irreducible over F_p")
            self.modulus = modulus
            self._build_tables()

    @property
    def key(self) -> tuple:
        return (self.p, self.e, self.modulus)

    def __eq__(self, other) -> bool:
        return isinstance(other, FieldSpec) and self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        if self.e == 1:
            return f"FieldSpec(p={self.p})"
        return f"FieldSpec(p={self.p}, e={self.e}, modulus={self.modulus})"

    # -- element arithmetic on integer codes ---------------------------------

    def _vec(self, a: int) -> list[int]:
        p = self.p
        out = []
        for _ in range(self.e):
            a, r = divmod(a, p)
            out.append(r)
        return out

    def _val(self, vec) -> int:
        out = 0
        for c in reversed(vec):
            out = out * self.p + c
        return out

    def _build_tables(self) -> None:
        p, e, q = self.p, self.e, self.q
        mod = self.modulus
        mul_t = [0] * (q * q)
        for a in range(q):
            va = self._vec(a)
            for b in range(a, q):
                vb = self._vec(b)
                prod = [0] * (2 * e - 1)
                for i, ca in enumerate(va):
                    if ca:
                        for j, cb in enumerate(vb):
                            prod[i + j] = (prod[i + j] + ca * cb) % p
                for i in range(2 * e - 2, e - 1, -1):
                    c = prod[i]
                    if c:
                        prod[i] = 0
                        for j in range(e):
                            prod[i - e + j] = (prod[i - e + j] - c * mod[j]) % p
                v = self._val(prod[:e])
                mul_t[a * q + b] = v
                mul_t[b * q + a] = v
        self._mul_t = mul_t
        inv_t = [0] * q
        for a in range(1, q):
            for b in range(1, q):
                if mul_t[a * q + b] == 1:
                    inv_t[a] = b
                    break
            else:
                raise ValueError("modulus is not irreducible (non-invertible element)")
        self._inv_t = inv_t
        self._neg_t = [self._val([(-c) % p for c in self._vec(a)]) for a in range(q)]

    def add(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a + b) % self.p
        p = self.p
        return self._val([(x + y) % p for x, y in zip(self._vec(a), self._vec(b))])

    def sub(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a - b) % self.p
        p = self.p
        return self._val([(x - y) % p for x, y in zip(self._vec(a), self._vec(b))])

    def mul(self, a: int, b: int) -> int:
        if self.e == 1:
            return (a * b) % self.p
        return self._mul_t[a * self.q + b]

    def inv(self, a: int) -> int:
        if a == 0:
            raise ZeroDivisionError("inverse of zero field element")
        if self.e == 1:
            return pow(a, self.p - 2, self.p)
        return self._inv_t[a]

    def embed_int(self, n: int) -> int:
        """Image of the rational integer n in the prime subfield."""
        return n % self.p


@lru_cache(maxsize=None)
def _field_cached(p: int, e: int, modulus: tuple[int, ...] | None) -> FieldSpec:
    return FieldSpec(p, e, modulus)


def field(p: int, e: int = 1, modulus=None) -> FieldSpec:
    """Construct (and cache) a field spec; modulus may be any coefficient iterable."""
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
    return _field_cached(p, e, modulus)


def default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree e over F_p."""
    base = field(p)
    for idx in range(p**e):
        coeffs = _monic_coeffs_from_index(base, e, idx)
        if is_irreducible(Poly(base, coeffs)):
            return coeffs
    raise ValueError("no irreducible modulus found")  # unreachable for e >= 1


# -- coefficient-tuple helpers -----------------------------------------------


def _trim(cs: list[int]) -> tuple[int, ...]:
    n = len(cs)
    while n and cs[n - 1] == 0:
        n -= 1
    return tuple(cs[:n])


def _padd(f: FieldSpec, a: tuple, b: tuple) -> tuple:
    if len(a) < len(b):
        a, b = b, a
    out = list(a)
    if f.e == 1:
        p = f.p
        for i, c in enumerate(b):
            out[i] = (out[i] + c) % p
    else:
        add = f.add
        for i, c in enumerate(b):
            out[i] = add(out[i], c)
    return _trim(out)


def _psub(f: FieldSpec, a: tuple, b: tuple) -> tuple:
    out = list(a) + [0] * (len(b) - len(a))
    if f.e == 1:
        p = f.p
        for i, c in enumerate(b):
            out[i] = (out[i] - c) % p
    else:
        sub = f.sub
        for i, c in enumerate(b):
            out[i] = sub(out[i], c)
    return _trim(out)


def _pneg(f: FieldSpec, a: tuple) -> tuple:
    if f.e == 1:
        p = f.p
        return tuple((-c) % p for c in a)
    return tuple(f._neg_t[c] for c in a)


def _pmul(f: FieldSpec, a: tuple, b: tuple) -> tuple:
    if not a or not b:
        return ()
    out = [0] * (len(a) + len(b) - 1)
    if f.e == 1:
        p = f.p
        for i, ca in enumerate(a):
            if ca:
                for j, cb in enumerate(b):
                    out[i + j] = (out[i + j] + ca * cb) % p
    else:
        mul_t = f._mul_t
        q = f.q
        for i, ca in enumerate(a):
            if ca:
                row = ca * q
                for j, cb in enumerate(b):
                    if cb:
                        out[i + j] = f.add(out[i + j], mul_t[row + cb])
    return _trim(out)


def _pscale(f: FieldSpec, a: tuple, c: int) -> tuple:
    if c == 0:
        return ()
    if f.e == 1:
        p = f.p
        return _trim([(x * c) % p for x in a])
    return _trim([f.mul(x, c) for x in a])


def _pdivrem(f: FieldSpec, a: tuple, b: tuple) -> tuple[tuple, tuple]:
    if not b:
        raise ZeroDivisionError("division by the zero polynomial")
    if len(a) < len(b):
        return (), a
    db = len(b) - 1
    inv_lead = f.inv(b[-1])
    rem = list(a)
    quo = [0] * (len(a) - db)
    if f.e == 1:
        p = f.p
        for i in range(len(a) - 1, db - 1, -1):
            c = rem[i]
            if c:
                c = (c * inv_lead) % p
                quo[i - db] = c
                for j in range(db + 1):
                    rem[i - db + j] = (rem[i - db + j] - c * b[j]) % p
    else:
        mul = f.mul
        sub = f.sub
        for i in range(len(a) - 1, db - 1, -1):
            c = rem[i]
            if c:
                c = mul(c, inv_lead)
                quo[i - db] = c
                for j in range(db + 1):
                    if b[j]:
                        rem[i - db + j] = sub(rem[i - db + j], mul(c, b[j]))
    return _trim(quo), _trim(rem[:db])


def _pmod(f: FieldSpec, a: tuple, b: tuple) -> tuple:
    return _pdivrem(f, a, b)[1]


def _pmonic(f: FieldSpec, a: tuple) -> tuple:
    if not a:
        raise ValueError("cannot normalize the zero polynomial")
    if a[-1] == 1:
        return a
    return _pscale(f, a, f.inv(a[-1]))


def _pgcd(f: FieldSpec, a: tuple, b: tuple) -> tuple:
    while b:
        a, b = b, _pmod(f, a, b)
    return _pmonic(f, a) if a else ()


def _ppow_mod(f: FieldSpec, base: tuple, exp: int, mod: tuple) -> tuple:
    result = (1,)
    base = _pmod(f, base, mod)
    while exp:
        if exp & 1:
            result = _pmod(f, _pmul(f, result, base), mod)
        base = _pmod(f, _pmul(f, base, base), mod)
        exp >>= 1
    return result


# -- Poly ----------------------------------------------------------------------


class Poly:
    """An immutable polynomial over a FieldSpec, coefficients ascending."""

    __slots__ = ("field", "coeffs")

    def __init__(self, field: FieldSpec, coeffs):
        cs = [int(c) for c in coeffs]
        for c in cs:
            if not 0 <= c < field.q:
                raise ValueError(f"coefficient {c} outside [0, {field.q})")
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", _trim(cs))

    def __setattr__(self, name, value):
        raise AttributeError("Poly is immutable")

    @classmethod
    def _raw(cls, field: FieldSpec, coeffs: tuple) -> "Poly":
        self = object.__new__(cls)
        object.__setattr__(self, "field", field)
        object.__setattr__(self, "coeffs", coeffs)
        return self

    @classmethod
    def zero(cls, field: FieldSpec) -> "Poly":
        return cls._raw(field, ())

    @classmethod
    def one(cls, field: FieldSpec) -> "Poly":
        return cls._raw(field, (1,))

    @classmethod
    def x(cls, field: FieldSpec, power: int = 1) -> "Poly":
        return cls._raw(field, (0,) * power + (1,))

    @property
    def degree(self):
        """Degree as an int, or NEG_INF for the zero polynomial."""
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def _check_same_field(self, other: "Poly") -> None:
        if self.field.key != other.field.key:
            raise ValueError("polynomials over different fields")

    def __add__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        return Poly._raw(self.field, _padd(self.field, self.coeffs, other.coeffs))

    def __sub__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        return Poly._raw(self.field, _psub(self.field, self.coeffs, other.coeffs))

    def __neg__(self) -> "Poly":
        return Poly._raw(self.field, _pneg(self.field, self.coeffs))

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        return Poly._raw(self.field, _pmul(self.field, self.coeffs, other.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check_same_field(other)
        q, r = _pdivrem(self.field, self.coeffs, other.coeffs)
        return Poly._raw(self.field, q), Poly._raw(self.field, r)

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def scale(self, c: int) -> "Poly":
        if not 0 <= c < self.field.q:
            raise ValueError(f"scalar {c} outside [0, {self.field.q})")
        return Poly._raw(self.field, _pscale(self.field, self.coeffs, c))

    def monic(self) -> "Poly":
        return Poly._raw(self.field, _pmonic(self.field, self.coeffs))

    def derivative(self) -> "Poly":
        f = self.field
        out = []
        for i in range(1, len(self.coeffs)):
            out.append(f.mul(self.coeffs[i], f.embed_int(i)))
        return Poly._raw(f, _trim(out))

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Poly)
            and self.field.key == other.field.key
            and self.coeffs == other.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.field.key, self.coeffs))

    def text(self) -> str:
        return format_poly(self)

    def __repr__(self) -> str:
        return f"Poly('{self.text()}', q={self.field.q})"


def parse_poly(field: FieldSpec, text: str) -> Poly:
    """Parse the comma-separated (slash-vector for e > 1) text format."""
    text = text.strip()
    if text == "":
        raise ValueError("empty polynomial text")
    coeffs = []
    for part in text.split(","):
        part = part.strip()
        if field.e == 1:
            v = int(part)
            if not 0 <= v < field.p:
                raise ValueError(f"coefficient {v} outside [0, {field.p})")
            coeffs.append(v)
        else:
            digits = [int(t) for t in part.split("/")]
            if len(digits) > field.e:
                raise ValueError("coefficient vector longer than extension degree")
            digits += [0] * (field.e - len(digits))
            for dgt in digits:
                if not 0 <= dgt < field.p:
                    raise ValueError(f"vector entry {dgt} outside [0, {field.p})")
            coeffs.append(field._val(digits))
    return Poly(field, coeffs)


def format_poly(f: Poly) -> str:
    """Inverse of parse_poly; the zero polynomial renders as '0'."""
    fld = f.field
    cs = f.coeffs if f.coeffs else (0,)
    if fld.e == 1:
        return ",".join(str(c) for c in cs)
    return ",".join("/".join(str(d) for d in fld._vec(c)) for c in cs)


# -- named operations ----------------------------------------------------------


def poly_gcd(f: Poly, g: Poly) -> Poly:
    """Monic greatest common divisor."""
    f._check_same_field(g)
    if f.is_zero and g.is_zero:
        raise ValueError("gcd of two zero polynomials is undefined")
    return Poly._raw(f.field, _pgcd(f.field, f.coeffs, g.coeffs))


def involute(f: Poly) -> Poly:
    """Coefficient reversal X^deg(f) * f(1/X); undefined for the zero polynomial."""
    if f.is_zero:
        raise ValueError("involution of the zero polynomial is undefined")
    return Poly._raw(f.field, _trim(list(reversed(f.coeffs))))


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


@lru_cache(maxsize=None)
def irreducible_count(q, n: int) -> int:
    """Number of monic irreducibles of degree n over F_q (q an integer or FieldSpec)."""
    if isinstance(q, FieldSpec):
        q = q.q
    if n < 1:
        raise ValueError("degree must be >= 1")
    total = 0
    for d in range(1, n + 1):
        if n % d == 0:
            total += _mobius_int(n // d) * q**d
    assert total % n == 0
    return total // n


def _monic_coeffs_from_index(field: FieldSpec, n: int, idx: int) -> tuple[int, ...]:
    q = field.q
    out = []
    for _ in range(n):
        idx, r = divmod(idx, q)
        out.append(r)
    out.append(1)
    return tuple(out)


def _monic_index(field: FieldSpec, coeffs: tuple) -> int:
    q = field.q
    idx = 0
    for c in reversed(coeffs[:-1]):
        idx = idx * q + c
    return idx


def enumerate_monics(field: FieldSpec, n: int, budget: int | None = None) -> Iterator[Poly]:
    """Yield all monic polynomials of degree n in lexicographic order."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    limit = DEFAULT_ENUM_BUDGET if budget is None else budget
    if field.q**n > limit:
        raise BudgetExceededError(
            f"enumerating {field.q}**{n} monic polynomials exceeds the budget {limit}"
        )
    if n == 0:
        yield Poly.one(field)
        return
    for idx in range(field.q**n):
        yield Poly._raw(field, _monic_coeffs_from_index(field, n, idx))


# Irreducible coefficient tables, keyed by (field key, degree); write-once.
_IRR_TABLES: dict[tuple, tuple[tuple[int, ...], ...]] = {}


def _irreducible_coeff_table(field: FieldSpec, n: int, budget: int | None = None) -> tuple:
    key = (field.key, n)
    cached = _IRR_TABLES.get(key)
    if cached is not None:
        return cached
    limit = DEFAULT_ENUM_BUDGET if budget is None else budget
    q = field.q
    if q**n > limit:
        raise BudgetExceededError(
            f"irreducible table for degree {n} over F_{q} exceeds the budget {limit}"
        )
    if n == 1:
        table = tuple(_monic_coeffs_from_index(field, 1, i) for i in range(q))
    else:
        sieve = bytearray(q**n)
        for d in range(1, n // 2 + 1):
            lower = _irreducible_coeff_table(field, d, limit)
            for pc in lower:
                for idx in range(q ** (n - d)):
                    other = _monic_coeffs_from_index(field, n - d, idx)
                    prod = _pmul(field, pc, other)
                    sieve[_monic_index(field, prod)] = 1
        table = tuple(
            _monic_coeffs_from_index(field, n, i) for i in range(q**n) if not sieve[i]
        )
    count = irreducible_count(q, n)
    if len(table) != count:
        raise AssertionError(
            f"sieve found {len(table)} irreducibles of degree {n}, expected {count}"
        )
    _IRR_TABLES[key] = table
    return table


def enumerate_irreducibles(field: FieldSpec, n: int, budget: int | None = None) -> tuple[Poly, ...]:
    """All monic irreducibles of degree n, lexicographic, cached per field."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return tuple(Poly._raw(field, cs) for cs in _irreducible_coeff_table(field, n, budget))


def is_irreducible(f: Poly) -> bool:
    """Irreducibility of a monic polynomial of degree >= 1 (Rabin's test).

    f of degree n is irreducible iff X^(q^n) == X mod f and, for every
    prime l dividing n, gcd(X^(q^(n/l)) - X, f) is constant; the cost is
    polynomial in n log q at every size.
    """
    if not f.is_monic:
        raise ValueError("irreducibility test expects a monic polynomial")
    n = len(f.coeffs) - 1
    if n < 1:
        raise ValueError("irreducibility test expects degree >= 1")
    if n == 1:
        return True
    field, cs = f.field, f.coeffs
    x = (0, 1)
    for ell in _int_factorization(n):
        h = _ppow_mod(field, x, field.q ** (n // ell), cs)
        if len(_pgcd(field, _psub(field, h, x), cs)) != 1:
            return False
    return _psub(field, _ppow_mod(field, x, field.q**n, cs), x) == ()


class FactorStats(namedtuple("FactorStats", "omega mu squarefree factors")):
    """Factorization summary: distinct-factor count omega, Mobius value mu,
    squarefree flag, and the factors as a tuple of (Poly, multiplicity)."""

    __slots__ = ()


def factor_stats(f: Poly, budget: int | None = None) -> FactorStats:
    """Full factorization of a monic polynomial by cached-table trial division."""
    if not f.is_monic:
        raise ValueError("factor_stats expects a monic polynomial")
    field = f.field
    rem = f.coeffs
    factors: list[tuple[Poly, int]] = []
    d = 1
    while 2 * d <= len(rem) - 1:
        for pc in _irreducible_coeff_table(field, d, budget):
            if 2 * d > len(rem) - 1:
                break
            mult = 0
            while True:
                quo, r = _pdivrem(field, rem, pc)
                if r:
                    break
                rem = quo
                mult += 1
            if mult:
                factors.append((Poly._raw(field, pc), mult))
        d += 1
    if len(rem) > 1:
        factors.append((Poly._raw(field, rem), 1))
    omega = len(factors)
    squarefree = all(m == 1 for _, m in factors)
    mu = (-1) ** omega if squarefree else 0
    return FactorStats(omega=omega, mu=mu, squarefree=squarefree, factors=tuple(factors))


def phi_poly(d: Poly) -> int:
    """Order of the unit group modulo d: prod over p^a || d of (q^(a deg p) - q^((a-1) deg p))."""
    if not d.is_monic or d.degree < 1:
        raise ValueError("phi_poly expects a monic modulus of degree >= 1")
    q = d.field.q
    out = 1
    for p, a in factor_stats(d).factors:
        dp = len(p.coeffs) - 1
        out *= q ** (a * dp) - q ** ((a - 1) * dp)
    return out
