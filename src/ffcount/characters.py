"""Unit groups modulo a polynomial, their characters, and L-polynomials.

The module also builds the exact character path that apinterval sums:
the prime sums of every character and, through the log-derivative kernel
of exactcount, the character-twisted squarefree series, in F_P for
word-size primes P.  It reads only the monic residues and the
discrete-log table of the group, never the irreducible class counts
behind apinterval's tables, so the two paths check each other.

Representation conventions used throughout this module:

* A unit group element is a canonical representative: the residue of degree
  < deg(d) coprime to the modulus d, stored as a Poly and addressed by its
  dense index in enumeration order.  Elements need not be monic; constants
  other than 0 are units.
* The group structure is a basis: a list of (generator, order) pairs whose
  cyclic spans form an internal direct product.  It is found by picking a
  maximal-order element, passing to the quotient, recursing, and lifting
  each quotient generator v by a power of the chosen u so its order is
  preserved (v^m lands in <u> as u^t with m | t, so v u^(-t/m) works).
  Construction validates itself by checking g_i^(n_i) = 1 for every
  generator and regenerating all elements from the basis, which doubles
  as the discrete-log table.
* Group arithmetic runs on indices.  Once the basis is validated, mul,
  pow and element_order add, scale or inspect discrete-log vectors
  modulo the basis orders and look the result up by its mixed-radix code
  (the position of the vector in lexicographic order); translation gives
  v -> v * u for all v at once as one shift of every vector.  Polynomial
  multiply-and-reduce runs only during construction, before the table
  exists.
* A character is named by its index c, the mixed-radix code of its
  exponent vector e against the basis, so characters and elements share
  one order: c's vector is the dlog of the element whose code is c, and
  c = 0 is principal.  Its value on the element with dlog t is zeta_E
  raised to sum_i e_i t_i E/n_i, a pairing symmetric in e and t.
  Values stay exact: integers modulo the group exponent E, or residues
  mod a prime P = 1 (mod E), where zeta_E maps to a fixed element of
  exact order E.  Exact zero tests for sums of roots of unity ask whether
  the E-th cyclotomic polynomial divides the integer count polynomial, so
  orthogonality checks carry no float tolerance at all.
* L-polynomial coefficients are indexed from degree 0 with c_0 = 1 (the
  single degree-0 monic, value 1 under every character); the coefficient
  list runs to degree m-1 and the effective degree is found by the exact
  zero test above.  Inverse roots come from a deterministic simultaneous
  (Durand-Kerner) iteration on the reversed polynomial.
"""

from __future__ import annotations

import cmath
import math
from collections import namedtuple
from functools import lru_cache
from operator import add, mul, sub

from .algebra import (
    Poly,
    enumerate_irreducibles,
    factor_stats,
    irreducible_count,
    phi_poly,
    poly_gcd,
    _int_factorization,
    _is_prime_mr,
    _monic_coeffs_from_index,
)
from .errors import BudgetExceededError, ConsistencyError, RootFindingError
from .exactcount import _log_derivative_rows

__all__ = [
    "CharacterSums",
    "DEFAULT_GROUP_BUDGET",
    "LPoly",
    "UnitGroup",
    "cyclotomic_polynomial",
    "l_polynomial",
    "root_of_unity",
    "root_unity_sum_is_zero",
    "twisted_series",
    "unit_group",
    "weil_check",
    "word_primes",
]

DEFAULT_GROUP_BUDGET = 100_000

L_COEFF_NOTE = "coefficients indexed from degree 0; constant coefficient is 1"


@lru_cache(maxsize=None)
def cyclotomic_polynomial(n: int) -> tuple[int, ...]:
    """Integer coefficients of the n-th cyclotomic polynomial, ascending.

    The dense reduction modulo this polynomial is the test oracle of
    root_unity_sum_is_zero.
    """
    if n < 1:
        raise ValueError("n must be positive")
    # (x^n - 1) divided by the product of lower cyclotomics, exactly
    num = [-1] + [0] * (n - 1) + [1]
    for d in range(1, n):
        if n % d:
            continue
        div = cyclotomic_polynomial(d)
        out = [0] * (len(num) - len(div) + 1)
        rem = list(num)
        for i in range(len(out) - 1, -1, -1):
            c = rem[i + len(div) - 1]
            out[i] = c
            if c:
                for j, dc in enumerate(div):
                    rem[i + j] -= c * dc
        assert all(v == 0 for v in rem[: len(div) - 1])
        num = out
    return tuple(num)


def root_unity_sum_is_zero(counts, order: int) -> bool:
    """Exact test: does sum of counts[e] * zeta^e vanish, zeta = e^(2pi i/order)?

    The sum vanishes exactly when Phi_order divides the count polynomial C,
    folded modulo x^order - 1.  With r the radical of order and t = order/r,
    Phi_order(x) = Phi_r(x^t) and Phi_r = prod over d | r of
    (x^d - 1)^mu(r/d), so Phi_order divides C exactly when the binomials
    x^(dt) - 1 with mu = +1 divide C times those with mu = -1.  x^s - 1
    divides a polynomial exactly when each of its residue classes of
    exponents mod s sums to zero, and the quotient's coefficients are the
    suffix sums of those classes.  Each step costs O(order), so the test
    is linear in order for a fixed number of prime factors.
    """
    poly = [0] * order
    for e, c in enumerate(counts):
        poly[e % order] += c
    primes = list(_int_factorization(order))
    t = order // math.prod(primes)
    binomials = [(t, (-1) ** len(primes))]  # (d t, mu(r/d)) for each d | r
    for p in primes:
        binomials += [(s * p, -mu) for s, mu in binomials]
    for s, mu in binomials:
        if mu < 0:
            poly = [a - b for a, b in zip([0] * s + poly, poly + [0] * s)]
    for s, mu in binomials:
        if mu > 0:
            for i in range(len(poly) - s - 1, -1, -1):
                poly[i] += poly[i + s]
            if any(poly[:s]):
                return False
            del poly[:s]
    return True


def _power(mul, identity, x, t: int):
    """x^t for t >= 0 by square-and-multiply under the group law mul."""
    acc = identity
    while t:
        if t & 1:
            acc = mul(acc, x)
        x = mul(x, x)
        t >>= 1
    return acc


class UnitGroup:
    """Multiplicative group of residues coprime to a monic modulus."""

    def __init__(self, d: Poly, budget: int | None = None):
        if not d.is_monic or d.degree < 1:
            raise ValueError("modulus must be monic of degree >= 1")
        self.d = d
        self.field = d.field
        self.q = d.field.q
        self.m = d.degree
        self.order = phi_poly(d)
        limit = DEFAULT_GROUP_BUDGET if budget is None else budget
        if self.order > limit:
            raise BudgetExceededError(
                "unit group order %d exceeds budget %d" % (self.order, limit))
        elems = []
        index: dict[tuple, int] = {}
        for f in self._residues():
            if f.is_zero:
                continue
            g = poly_gcd(f, d)
            if g.degree == 0:
                index[f.coeffs] = len(elems)
                elems.append(f)
        assert len(elems) == self.order
        self.elements: tuple[Poly, ...] = tuple(elems)
        self._index = index
        # monic_residues[j]: indices of the monic units of degree j < m,
        # which are exactly the monic polynomials of degree j coprime to d
        by_degree: list[list[int]] = [[] for _ in range(self.m)]
        for i, f in enumerate(elems):
            if f.is_monic:
                by_degree[f.degree].append(i)
        self.monic_residues = tuple(tuple(r) for r in by_degree)
        self.identity_index = index[(1,)]
        self.structure: tuple[tuple[Poly, int], ...] = ()
        self._build_structure()
        self.exponent = 1
        for _, n in self.structure:
            self.exponent = math.lcm(self.exponent, n)
        self._class_counts: dict[int, dict[int, dict[int, int]]] = {}

    def _residues(self):
        # the monic degree-m expansion of each code without its leading 1
        for code in range(self.q**self.m):
            yield Poly(self.field, _monic_coeffs_from_index(self.field, self.m, code)[:-1])

    def index_of(self, f: Poly) -> int:
        """Index of the residue class of f; rejects non-coprime f."""
        if f.field.key != self.field.key:
            raise ValueError("field mismatch")
        r = f % self.d
        idx = self._index.get(r.coeffs)
        if idx is None:
            raise ValueError("polynomial is not coprime to the modulus")
        return idx

    def mul(self, i: int, j: int) -> int:
        code = 0
        for a, b, n in zip(self._dlog[i], self._dlog[j], self._orders):
            code = code * n + (a + b) % n
        return self._by_code[code]

    def pow(self, i: int, t: int) -> int:
        code = 0
        for a, n in zip(self._dlog[i], self._orders):
            code = code * n + a * t % n
        return self._by_code[code]

    def element_order(self, i: int) -> int:
        e = 1
        for a, n in zip(self._dlog[i], self._orders):
            e = math.lcm(e, n // math.gcd(a, n))
        return e

    def translation(self, i: int) -> list[int]:
        """The map v -> v * i on all indices, as one shift of every dlog vector."""
        shifted = [0]
        for a, n in zip(self._dlog[i], self._orders):
            digits = [(s + a) % n for s in range(n)]
            shifted = [c * n + s for c in shifted for s in digits]
        by_code = self._by_code
        return [by_code[shifted[c]] for c in self.code]

    def dlog(self, i: int) -> tuple[int, ...]:
        """Exponent vector of element i against the basis."""
        return self._dlog[i]

    def _poly_mul(self, i: int, j: int) -> int:
        r = (self.elements[i] * self.elements[j]) % self.d
        return self._index[r.coeffs]

    def _build_structure(self):
        one = self.identity_index
        basis = self._extract_basis(list(range(self.order)), self._poly_mul,
                                    one, self.order)
        self.structure = tuple((self.elements[i], n) for i, n in basis)
        # index arithmetic adds dlog vectors modulo the basis orders, which
        # is sound only if g_i^(n_i) = 1 for every generator and the basis
        # regenerates the group bijectively; check both with polynomials
        for gi, n in basis:
            if _power(self._poly_mul, one, gi, n) != one:
                raise ConsistencyError(
                    f"unit group basis generator does not have order {n}")
        # regenerate the whole group from the basis; this validates the
        # direct-product property and fills the discrete-log table, and the
        # position of an element in this lexicographic order of exponent
        # vectors is the mixed-radix code that index arithmetic looks up
        combos = [(one, ())]
        for gi, n in basis:
            nxt = []
            for start, vec in combos:
                cur = start
                for t in range(n):
                    nxt.append((cur, vec + (t,)))
                    if t < n - 1:
                        cur = self._poly_mul(cur, gi)
            combos = nxt
        dlog: list = [None] * self.order
        code = [0] * self.order
        for c, (idx, vec) in enumerate(combos):
            if dlog[idx] is not None:
                raise ConsistencyError("unit group basis is not independent")
            dlog[idx] = vec
            code[idx] = c
        if len(combos) != self.order:
            raise ConsistencyError("unit group basis does not span the group")
        self._orders = tuple(n for _, n in basis)
        self._by_code = [idx for idx, _ in combos]
        self.code = code  # code[i]: the mixed-radix position of element i
        self._dlog = dlog

    @staticmethod
    def _extract_basis(elements, mul, identity, size):
        """Basis of an abelian group given by element list and multiplication.

        Returns [(element, order), ...] whose cyclic factors direct-product
        to the whole group, largest order first.
        """
        if size == 1:
            return []

        def order_of(x):
            e = size
            for p in _int_factorization(size):
                while e % p == 0:
                    if _power(mul, identity, x, e // p) != identity:
                        break
                    e //= p
            return e

        best, best_ord = identity, 1
        for x in elements:
            o = order_of(x)
            if o > best_ord:
                best, best_ord = x, o
                if o == size:
                    break
        if best_ord == size:
            return [(best, best_ord)]
        # label cosets of <best>
        powers = [identity]
        for _ in range(best_ord - 1):
            powers.append(mul(powers[-1], best))
        coset: dict[object, int] = {}
        reps = []
        for x in elements:
            if x in coset:
                continue
            cid = len(reps)
            reps.append(x)
            for p in powers:
                coset[mul(x, p)] = cid
        qsize = size // best_ord
        assert len(reps) == qsize

        def qmul(a, b):
            return coset[mul(reps[a], reps[b])]

        qid = coset[identity]
        sub = UnitGroup._extract_basis(list(range(qsize)), qmul, qid, qsize)
        out = [(best, best_ord)]
        for qgen, n in sub:
            v = reps[qgen]
            # v^n lies in <best> as best^t with n | t; correct by best^(-t/n)
            tpow = powers.index(_power(mul, identity, v, n))
            assert tpow % n == 0
            shift = (-(tpow // n)) % best_ord
            adj = v
            for _ in range(shift):
                adj = mul(adj, best)
            out.append((adj, n))
        return out

    def irreducible_classes(self, max_degree: int, budget: int | None = None,
                            method: str = "class"):
        """Per-degree counts of irreducibles by unit class, {deg: {idx: count}}.

        Irreducibles dividing the modulus are excluded (their residues are
        not units).  method "class" (or "auto", the same) uses the Newton
        recurrence on the class-refined zeta coefficients, cached per degree
        (only missing degrees are computed).  "direct" reduces every
        enumerated irreducible; it is the test oracle of the recurrence, so
        it neither reads nor fills that cache.
        """
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        if method not in ("auto", "direct", "class"):
            raise ValueError(f"unknown method {method!r}")
        if method == "direct":
            out: dict[int, dict[int, int]] = {}
            for n in range(1, max_degree + 1):
                counts: dict[int, int] = {}
                for p in enumerate_irreducibles(self.field, n, budget):
                    r = p % self.d
                    idx = self._index.get(r.coeffs)
                    if idx is not None:
                        counts[idx] = counts.get(idx, 0) + 1
                out[n] = counts
            return out
        missing = [n for n in range(1, max_degree + 1)
                   if n not in self._class_counts]
        if missing:
            newton = _newton_class_counts(self, max_degree)
            for n in missing:
                self._class_counts[n] = newton[n]
        return {n: dict(self._class_counts[n]) for n in range(1, max_degree + 1)}


def _newton_class_counts(group: UnitGroup, N: int):
    """Irreducible counts per (degree, unit class) without enumeration.

    Works on the class-refined coefficients z_n of the zeta function
    restricted to polynomials coprime to d: z_n[u] is q^(n-m) for n >= m
    and, below that, the indicator of the monic residues of degree n
    (group.monic_residues[n]).  The recurrence n z_n = sum_j w_j * z_(n-j)
    (convolution over the group) yields the prime-power vectors w_n, and
    exact prime-power inversion recovers the per-class prime counts.
    """
    order = group.order
    q, m = group.q, group.m
    qpow = [1]
    for _ in range(N):
        qpow.append(qpow[-1] * q)
    excluded: dict[int, int] = {}
    for p, _ in factor_stats(group.d).factors:
        excluded[p.degree] = excluded.get(p.degree, 0) + 1
    w: list[list[int] | None] = [None] * (N + 1)
    wsum = [0] * (N + 1)
    cvec: list[list[int] | None] = [None] * (N + 1)
    powmaps: dict[int, list[int]] = {}
    counts: dict[int, dict[int, int]] = {}
    for n in range(1, N + 1):
        if n >= m:
            acc = [n * qpow[n - m]] * order
        else:
            acc = [0] * order
            for v in group.monic_residues[n]:
                acc[v] = n
        for j in range(1, n):
            nj = n - j
            if nj >= m:
                # z_(n-j) is constant across classes, so the convolution
                # collapses to a constant shift by the total weight of w_j
                c = qpow[nj - m] * wsum[j]
                if c:
                    acc = [a - c for a in acc]
            else:
                # z_(n-j) is the indicator of the monic residues of degree
                # n-j, so w_j * z_(n-j) sums wu over the products u * v;
                # translate by each entry of the shorter list and walk the
                # longer one, keeping memory at one row of the group
                wj = [(u, wu) for u, wu in enumerate(w[j]) if wu]
                zj = [(v, 1) for v in group.monic_residues[nj]]
                outer, inner = (wj, zj) if len(wj) <= len(zj) else (zj, wj)
                for a, ca in outer:
                    row = group.translation(a)
                    for b, cb in inner:
                        acc[row[b]] -= ca * cb
        w[n] = acc
        wsum[n] = sum(acc)
        sub = [0] * order
        for j in range(2, n + 1):
            if n % j:
                continue
            t = n // j
            ct = cvec[t]
            pm = powmaps.get(j)
            if pm is None:
                pm = [group.pow(x, j) for x in range(order)]
                powmaps[j] = pm
            for x in range(order):
                if ct[x]:
                    sub[pm[x]] += t * ct[x]
        cn = []
        for u in range(order):
            val = acc[u] - sub[u]
            if val % n:
                raise ConsistencyError(
                    f"class-count inversion is not integral at degree {n}")
            cn.append(val // n)
        cvec[n] = cn
        if sum(cn) + excluded.get(n, 0) != irreducible_count(q, n):
            raise ConsistencyError(
                f"class counts at degree {n} do not sum to the prime count")
        counts[n] = {u: c for u, c in enumerate(cn) if c}
    return counts


@lru_cache(maxsize=None)
def unit_group(d: Poly, budget: int | None = None) -> UnitGroup:
    return UnitGroup(d, budget)


def _find_roots(coeffs: list[complex]) -> tuple[tuple[complex, ...], float]:
    """Roots of a monic complex polynomial by simultaneous iteration.

    coeffs are ascending with coeffs[-1] == 1.  Deterministic seeds on a
    spiral; returns (roots, residual).
    """
    deg = len(coeffs) - 1
    if deg == 0:
        return (), 0.0
    seed = 0.4 + 0.9j
    xs = [seed**i for i in range(deg)]

    def val(x):
        acc = 0j
        for c in reversed(coeffs):
            acc = acc * x + c
        return acc

    for _ in range(200):
        moved = 0.0
        for i in range(deg):
            num = val(xs[i])
            den = 1 + 0j
            for j in range(deg):
                if j != i:
                    den *= xs[i] - xs[j]
            if den == 0:
                den = 1e-30
            delta = num / den
            xs[i] -= delta
            moved = max(moved, abs(delta))
        if moved <= 1e-14:
            break
    residual = max((abs(val(x)) for x in xs), default=0.0)
    return tuple(xs), residual


class LPoly(namedtuple("LPoly", "exponents coeffs effective_degree inverse_roots residual")):
    """Dirichlet L-polynomial data for a non-principal character: its exponent
    vector, the complex coefficients c_0..c_(m-1), the effective degree, the
    inverse roots and the root-finding residual."""

    __slots__ = ()


def _l_coefficient_counts(group: UnitGroup, c: int) -> list[list[int]]:
    """Character c summed over the monics of each degree j < m, as root-of-unity counts.

    Monics not coprime to d have value 0, so only the monic residues count.
    """
    values = _char_exponents(group, group.dlog(group._by_code[c]))
    code = group.code
    rows = []
    for residues in group.monic_residues:
        counts = [0] * group.exponent
        for idx in residues:
            counts[values[code[idx]]] += 1
        rows.append(counts)
    return rows


@lru_cache(maxsize=None)
def _unit_roots(E: int) -> tuple[complex, ...]:
    """exp(2 pi i e / E) for e = 0..E-1, as _counts_to_complex weighs them."""
    return tuple(cmath.exp(2j * math.pi * e / E) for e in range(E))


def _counts_to_complex(counts: list[int], E: int) -> complex:
    acc = 0j
    for c, z in zip(counts, _unit_roots(E)):
        if c:
            acc += c * z
    return acc


def l_polynomial(group: UnitGroup, c: int) -> LPoly:
    """Coefficients and inverse roots of L(T, chi) for the character of index c > 0."""
    if not 0 < c < group.order:
        raise ValueError(f"character index {c} is not in 1..{group.order - 1}")
    E = group.exponent
    count_rows = _l_coefficient_counts(group, c)
    coeffs = tuple(_counts_to_complex(row, E) for row in count_rows)
    eff = 0
    for j in range(group.m - 1, -1, -1):
        if not root_unity_sum_is_zero(count_rows[j], E):
            eff = j
            break
    # inverse roots are the zeros of the reversed polynomial
    # y^eff + c_1 y^(eff-1) + ... + c_eff  (c_0 = 1 keeps it monic)
    rev = [coeffs[eff - i] for i in range(eff + 1)]
    roots, residual = _find_roots(rev)
    if residual > 1e-10:
        raise RootFindingError("inverse-root iteration stalled", residual)
    return LPoly(group.dlog(group._by_code[c]), coeffs, eff, roots, residual)


def _check_tol(tol: float) -> None:
    """Reject a weil tolerance outside 0 <= tol < inf; a NaN would pass every root."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must satisfy 0 <= tol < inf, got {tol!r}")


def weil_check(group: UnitGroup, c: int, tol: float = 1e-6) -> dict:
    """Classify inverse-root moduli of L(T, chi) against {1, sqrt(q)}, chi of index c.

    Returns a report dict; "ok" is True when every root modulus is within
    tol (0 <= tol < inf) of one of the two predicted values.  Missing
    degree (effective degree below m-1) is reported as degree_deficit
    rather than as zero roots.
    """
    _check_tol(tol)
    lp = l_polynomial(group, c)
    rt_q = math.sqrt(group.q)
    roots = []
    ok = True
    for a in lp.inverse_roots:
        mod = abs(a)
        dist1 = abs(mod - 1.0)
        distq = abs(mod - rt_q)
        cls = "1" if dist1 <= distq else "sqrt_q"
        if min(dist1, distq) > tol:
            ok = False
        roots.append({"re": a.real, "im": a.imag, "modulus": mod, "class": cls})
    return {
        "q": group.q,
        "modulus": group.d.text(),
        "exponents": list(lp.exponents),
        "inverse_roots": roots,
        "degree_deficit": (group.m - 1) - lp.effective_degree,
        "ok": ok,
        "coefficient_convention": L_COEFF_NOTE,
    }


def word_primes(E: int):
    """Primes P below 2^62 with P = 1 (mod E), largest first."""
    k = (2**62 - 2) // E
    while k > 0:
        P = 1 + k * E
        if _is_prime_mr(P):
            yield P
        k -= 1


def root_of_unity(E: int, P: int) -> int:
    """The first a^((P-1)/E), a = 2, 3, ..., of exact order E modulo the prime P."""
    if (P - 1) % E:
        raise ValueError("P - 1 is not a multiple of E")
    ells = _int_factorization(E)
    for a in range(2, P):
        w = pow(a, (P - 1) // E, P)
        if all(pow(w, E // ell, P) != 1 for ell in ells):
            return w
    raise ValueError("no element of order E modulo P")


def _char_exponents(group: UnitGroup, vec) -> list[int]:
    """Value exponents, modulo E, of the element with dlog vector vec under
    every character, by index; by symmetry, with vec a character's
    exponent vector, that character's value exponents by element code."""
    E = group.exponent
    out = [0]
    for t, (_, n) in zip(vec, group.structure):
        step = [e * t * (E // n) % E for e in range(n)]
        out = [(v + s) % E for v in out for s in step]
    return out


def _char_power_map(group: UnitGroup, r: int) -> list[int]:
    """Index of chi^r for every character index chi."""
    out = [0]
    for _, n in group.structure:
        out = [c * n + e * r % n for c in out for e in range(n)]
    return out


class CharacterSums:
    """Degree-weighted prime sums of every character mod d, in F_P, to degree N.

    P is a prime with P = 1 (mod E), E the group exponent, and
    powers[e] = w^e for the root_of_unity w of order E mod P; sending
    zeta_E to w maps Z[zeta_E] onto F_P, so every entry is the image of an
    exact algebraic integer.  A character is addressed by its index c, the
    mixed-radix code of its exponent vector.  weights[t][c] = t * P_chi(t) mod P,
    where P_chi(t) sums chi over the monic irreducibles of degree t not
    dividing d.  It is built without the irreducibles or class counts:

    1. chi(u) = w^(value exponent), from the dlog vector of u.
    2. L(T, chi) has coefficients c_j = sum of chi over monic_residues[j]
       for j < m, and none above m - 1 when chi is not principal.
    3. psi(n) = n c_n - sum_(0<j<n) c_j psi(n-j) is the T^n coefficient
       of T L'/L, the sum of deg(p) chi(p)^r over prime powers p^r of
       degree n.  For the principal character, L = Z(T) prod_(p|d) (1 -
       T^deg p) and psi(n) = q^n - sum of deg p over p | d with deg p | n.
    4. t P_chi(t) = psi_chi(t) - sum over e | t, e < t of e P_(chi^(t/e))(e).
    """

    __slots__ = ("group", "N", "P", "powers", "inverses", "weights", "_maps")

    def __init__(self, group: UnitGroup, N: int, P: int):
        E, order = group.exponent, group.order
        self.group, self.N, self.P = group, N, P
        root = root_of_unity(E, P)
        powers = [1]
        for _ in range(E - 1):
            powers.append(powers[-1] * root % P)
        self.powers = powers
        self.inverses = [0] + [pow(n, -1, P) for n in range(1, N + 1)]
        self._maps: dict[int, list[int]] = {}
        J = min(group.m - 1, N)
        coeffs: list = [None]
        for j in range(1, J + 1):
            acc = [0] * order
            for u in group.monic_residues[j]:
                vals = map(powers.__getitem__, _char_exponents(group, group.dlog(u)))
                acc = list(map(add, acc, vals))
            coeffs.append([x % P for x in acc])
        psi: list = [None]
        for n in range(1, N + 1):
            acc = [n * x for x in coeffs[n]] if n <= J else [0] * order
            for j in range(1, min(n - 1, J) + 1):
                acc = list(map(sub, acc, map(mul, coeffs[j], psi[n - j])))
            psi.append([x % P for x in acc])
        # index 0 is the principal character
        bad = [p.degree for p, _ in factor_stats(group.d).factors]
        for n in range(1, N + 1):
            psi[n][0] = (pow(group.q, n, P) - sum(b for b in bad if n % b == 0)) % P
        divisors: list[list[int]] = [[] for _ in range(N + 1)]
        for e in range(1, N // 2 + 1):
            for t in range(2 * e, N + 1, e):
                divisors[t].append(e)
        weights: list = [None]
        for t in range(1, N + 1):
            acc = psi[t]
            for e in divisors[t]:
                acc = list(map(sub, acc, map(weights[e].__getitem__, self.power_map(t // e))))
            weights.append([x % P for x in acc])
        self.weights = weights

    def power_map(self, r: int) -> list[int]:
        """The index of chi^r for every character index."""
        r %= self.group.exponent
        pm = self._maps.get(r)
        if pm is None:
            pm = self._maps[r] = _char_power_map(self.group, r)
        return pm

    def conjugate_values(self, vec) -> list[int]:
        """conj(chi)(u) mod P for every character, u given by its dlog vector."""
        E, powers = self.group.exponent, self.powers
        return [powers[-e % E] for e in _char_exponents(self.group, vec)]


def twisted_series(c: int, sums: CharacterSums, K: int):
    """Rows [n][k], n <= sums.N and k <= K, of the twisted squarefree series mod P.

    The series of character c is the product over irreducibles p not
    dividing d of (1 + z chi(p) T^deg p), and exactcount's kernel runs its
    log-derivative recurrence n F_n = sum_m (-1)^(m-1) z^m sum_t t
    P_(chi^m)(t) F_(n-mt) on rows packed mod P.  A slot of 2 bits(P) +
    bits(N K) bits holds a row's sums of products of residues, so no slot
    carries into the next before the finish reduces it.
    """
    N, P, inverses = sums.N, sums.P, sums.inverses
    weights = [None]
    for m in range(1, K + 1):
        cm = sums.power_map(m)[c]
        a = [0] + [w[cm] for w in sums.weights[1:N // m + 1]]
        weights.append(a if m & 1 else [-x % P for x in a])
    slot = 2 * P.bit_length() + (N * K).bit_length()
    smask = (1 << slot) - 1
    shifts = range(K * slot, 0, -slot)  # slot 0 is zero past row 0

    def finish(n, total):
        inv, row = inverses[n], 0
        for s in shifts:
            row = (row | ((total >> s) & smask) * inv % P) << slot
        return row

    return tuple(_log_derivative_rows(weights, N, K, slot, finish))
