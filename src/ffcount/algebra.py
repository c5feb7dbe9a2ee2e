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

Irreducibility, the modulus check and phi_poly read one routine,
distinct-degree factorization (prime_degrees), polynomial in the degree
and log q; the irreducible sieve serves only the enumeration oracles.
Square-and-multiply (_power) is written once, here: prime_degrees
raises X to the q-th power with it, and characters raises unit-group
elements with it.  A unit group's order is phi_poly(d).

Everything here is a pure function over immutable values.  The
per-field irreducible tables and the prime degrees of each polynomial
are filled once on first use and then only read, so sharing between
threads needs no coordination.

Text format for a polynomial: comma-separated base-10 coefficients,
ascending, e.g. "1,0,1,1" is 1 + X^2 + X^3.  Over an extension field
each coefficient is a slash-separated F_p vector, e.g. "1/0,0/1".
"""

from __future__ import annotations

from collections import namedtuple
from collections.abc import Iterator
from functools import lru_cache

from .errors import BudgetExceededError, ConsistencyError
from .exactcount import _is_prime_mr, irreducible_count

NEG_INF = float("-inf")

DEFAULT_ENUM_BUDGET = 2_000_000

_EXTENSION_Q_LIMIT = 64


def _field_modulus(p: int, e: int, modulus, limit: int | None = None):
    """The modulus of F_(p^e), once p is checked prime, e >= 1 and a given
    modulus monic irreducible of degree e over F_p with coefficients in
    [0, p); None for e = 1 or when none is given.  With a limit, a larger
    extension field is refused before its modulus is read."""
    if not _is_prime_mr(p):
        raise ValueError(f"p = {p} is not prime")
    if e < 1:
        raise ValueError("extension degree e must be >= 1")
    if e == 1:
        if modulus is not None:
            raise ValueError("modulus is only meaningful for e > 1")
        return None
    if limit is not None and p**e > limit:
        raise BudgetExceededError(
            f"extension field size {p**e} exceeds the table limit {limit}")
    if modulus is None:
        return None
    f = Poly(FieldSpec(p), modulus)  # names a coefficient outside [0, p)
    if f.degree != e:
        raise ValueError(f"modulus must have degree e = {e}")
    if not f.is_monic:
        raise ValueError("modulus must be monic")
    if not is_irreducible(f):
        raise ValueError("modulus is not irreducible over F_p")
    return f.coeffs


class FieldSpec:
    """A finite field F_{p^e} with canonical integer element encoding."""

    __slots__ = ("p", "e", "q", "modulus", "_mul_t", "_inv_t")

    def __init__(self, p: int, e: int = 1, modulus: tuple[int, ...] | None = None):
        self.modulus = _field_modulus(p, e, modulus, _EXTENSION_Q_LIMIT)
        if e > 1 and self.modulus is None:
            raise ValueError("an explicit irreducible modulus is required for e > 1")
        self.p, self.e, self.q = p, e, p**e
        self._mul_t = self._inv_t = None
        if e > 1:
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


@lru_cache(maxsize=None)
def _field_cached(p: int, e: int, modulus: tuple[int, ...] | None) -> FieldSpec:
    return FieldSpec(p, e, modulus)


def field(p: int, e: int = 1, modulus=None) -> FieldSpec:
    """Construct (and cache) a field spec; modulus may be any coefficient
    iterable, and for e > 1 defaults to default_modulus(p, e)."""
    if modulus is not None:
        modulus = tuple(int(c) for c in modulus)
    elif e != 1:
        modulus = default_modulus(p, e)
    return _field_cached(p, e, modulus)


def default_modulus(p: int, e: int) -> tuple[int, ...]:
    """Lexicographically least monic irreducible of degree e over F_p; a
    field past the table limit is refused before the search of p^e monics."""
    _field_modulus(p, e, None, _EXTENSION_Q_LIMIT)
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


def _power(mul, identity, x, t: int):
    """x^t for t >= 0 by square-and-multiply under the group law mul."""
    acc = identity
    while t:
        if t & 1:
            acc = mul(acc, x)
        x = mul(x, x)
        t >>= 1
    return acc


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

    def __mul__(self, other: "Poly") -> "Poly":
        self._check_same_field(other)
        return Poly._raw(self.field, _pmul(self.field, self.coeffs, other.coeffs))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        self._check_same_field(other)
        q, r = _pdivrem(self.field, self.coeffs, other.coeffs)
        return Poly._raw(self.field, q), Poly._raw(self.field, r)

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
            out.append(f.mul(self.coeffs[i], i % f.p))
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


def enumerate_monics(field: FieldSpec, n: int) -> Iterator[Poly]:
    """Yield all monic polynomials of degree n in lexicographic order."""
    if n < 0:
        raise ValueError("degree must be >= 0")
    if field.q**n > DEFAULT_ENUM_BUDGET:
        raise BudgetExceededError(
            f"enumerating {field.q}**{n} monic polynomials exceeds the budget "
            f"{DEFAULT_ENUM_BUDGET}")
    if n == 0:
        yield Poly.one(field)
        return
    for idx in range(field.q**n):
        yield Poly._raw(field, _monic_coeffs_from_index(field, n, idx))


# Irreducible coefficient tables, keyed by (field key, degree); write-once.
_IRR_TABLES: dict[tuple, tuple[tuple[int, ...], ...]] = {}


def _irreducible_coeff_table(field: FieldSpec, n: int) -> tuple:
    key = (field.key, n)
    cached = _IRR_TABLES.get(key)
    if cached is not None:
        return cached
    q = field.q
    if q**n > DEFAULT_ENUM_BUDGET:
        raise BudgetExceededError(
            f"irreducible table for degree {n} over F_{q} exceeds the budget "
            f"{DEFAULT_ENUM_BUDGET}")
    if n == 1:
        table = tuple(_monic_coeffs_from_index(field, 1, i) for i in range(q))
    else:
        sieve = bytearray(q**n)
        for d in range(1, n // 2 + 1):
            lower = _irreducible_coeff_table(field, d)
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
        raise ConsistencyError(
            f"sieve found {len(table)} irreducibles of degree {n}, expected {count}"
        )
    _IRR_TABLES[key] = table
    return table


def enumerate_irreducibles(field: FieldSpec, n: int) -> tuple[Poly, ...]:
    """All monic irreducibles of degree n, lexicographic, cached per field."""
    if n < 1:
        raise ValueError("degree must be >= 1")
    return tuple(Poly._raw(field, cs) for cs in _irreducible_coeff_table(field, n))


@lru_cache(maxsize=None)
def prime_degrees(f: Poly) -> tuple[int, ...]:
    """Ascending degrees of the distinct irreducible factors of a nonzero f,
    by distinct-degree factorization: step i takes h = X^(q^i) mod r, and
    g = gcd(h - X, r) is the product of the factors of degree i, those of
    lower degree being gone; r loses each with all its multiplicity.  A
    remainder of degree below 2(i + 1) is irreducible.  Cached per f, so
    the unit group, phi(d) and the main term of a modulus factor it once."""
    field, r = f.field, f.coeffs
    x = h = (0, 1)
    degrees, i = [], 0
    while len(r) - 1 >= 2 * (i + 1):
        i += 1
        h = _power(lambda a, b: _pmod(field, _pmul(field, a, b), r), (1,), h, field.q)
        g = _pgcd(field, _psub(field, h, x), r)
        degrees += [i] * ((len(g) - 1) // i)
        while len(g) > 1:
            r = _pdivrem(field, r, g)[0]
            g = _pgcd(field, g, r)
    if len(r) > 1:
        degrees.append(len(r) - 1)
    return tuple(degrees)


def is_irreducible(f: Poly) -> bool:
    """Irreducibility of a monic f of degree >= 1: prime_degrees(f) == (deg f,)."""
    if not f.is_monic:
        raise ValueError("irreducibility test expects a monic polynomial")
    n = len(f.coeffs) - 1
    if n < 1:
        raise ValueError("irreducibility test expects degree >= 1")
    return prime_degrees(f) == (n,)


class FactorStats(namedtuple("FactorStats", "omega mu squarefree factors")):
    """Factorization summary: distinct-factor count omega, Mobius value mu,
    squarefree flag, and the factors as a tuple of (Poly, multiplicity)."""

    __slots__ = ()


def factor_stats(f: Poly) -> FactorStats:
    """Full factorization of a monic polynomial by cached-table trial division."""
    if not f.is_monic:
        raise ValueError("factor_stats expects a monic polynomial")
    field = f.field
    rem = f.coeffs
    factors: list[tuple[Poly, int]] = []
    d = 1
    while 2 * d <= len(rem) - 1:
        for pc in _irreducible_coeff_table(field, d):
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
    """Order of the unit group modulo d: q^deg d prod over primes p | d of (1 - q^-deg p)."""
    if not d.is_monic or d.degree < 1:
        raise ValueError("modulus must be monic of degree >= 1")
    q, degrees = d.field.q, prime_degrees(d)
    out = q ** (d.degree - sum(degrees))
    for b in degrees:
        out *= q**b - 1
    return out
