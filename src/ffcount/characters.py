"""Unit groups modulo a polynomial, their characters, and L-polynomials.

The module also builds the exact character path that apinterval sums:
the prime sums of every character and, through the log-derivative kernel
of exactcount, the character-twisted squarefree series, in F_P for
word-size primes P.  It reads only the monic residues and the
discrete-log table of the group, never the irreducible class counts
behind apinterval's tables, so the two paths check each other.

Representation conventions used throughout this module:

* A unit group element is a canonical representative: the residue of degree
  < deg(d) coprime to the modulus d, stored as a Poly.  Elements need not
  be monic; constants other than 0 are units.
* The group structure is a basis: a list of (generator, order) pairs whose
  cyclic spans form an internal direct product.  It is found over the
  residues in enumeration order by picking a maximal-order element,
  passing to the quotient, recursing, and lifting each quotient generator
  v by a power of the chosen u so its order is preserved (v^m lands in
  <u> as u^t with m | t, so v u^(-t/m) works).  Construction validates
  itself by checking g_i^(n_i) = 1 for every generator and regenerating
  all elements from the basis, which doubles as the discrete-log table.
* The elements are then renumbered once: an element's index is the
  mixed-radix code of its dlog vector (its position in lexicographic
  order), so the identity is 0.  Group arithmetic runs on indices: mul,
  element_order and power_map (x -> x^r) add, scale or inspect dlog
  vectors modulo the basis orders, the last for all indices at once.
  Polynomial multiply-and-reduce runs only during construction.
* Z[G] products run on vectors packed one slot per element in code
  order: multiplying by the element with dlog vector a rotates each axis
  by a's digit, two shifts and a mask per axis (_rotation, _rotate).  The
  Newton class counts here and apinterval's class kernel share it.
* A character is named by its index c, the mixed-radix code of its
  exponent vector e against the basis, so characters and elements share
  one numbering: c's vector is the dlog of element c, c = 0 is principal,
  and power_map(r) sends chi to chi^r too.  Its value on the element with
  dlog t is zeta_E raised to sum_i e_i t_i E/n_i, symmetric in e and t.
  Values stay exact: integers modulo the group exponent E, or residues
  mod a prime P = 1 (mod E), where zeta_E maps to a fixed element of
  exact order E.  F_P is the one exact arithmetic of the module.
* L-polynomial coefficients c_j(chi), chi summed over monic_residues[j],
  come from one count of value exponents per Galois orbit {chi^a}
  (_orbit_counts), which feeds both weil's L-polynomials and the F_P prime
  sums.  They are indexed from degree 0 with c_0 = 1 (the single degree-0
  monic, value 1 under every character) and run to degree m-1.  The
  effective degree is exact by the F_P orbit rule: with P > q^(m-1),
  c_j(chi) = 0 exactly when c_j(chi^a) = 0 mod P for every a prime to the
  order of chi, so the degree of L(T, chi) is the largest j at which some
  member of the orbit is nonzero mod P (proof at _l_coefficients).
  Inverse roots come from a deterministic simultaneous (Durand-Kerner)
  iteration on the reversed polynomial.
"""

from __future__ import annotations

import cmath
import math
from collections import Counter, namedtuple
from functools import lru_cache
from operator import mul, sub

from .algebra import Poly, _monic_coeffs_from_index, _power, phi_poly, poly_gcd, prime_degrees
from .errors import BudgetExceededError, ConsistencyError, RootFindingError
from .exactcount import (BiSeries, _int_factorization, _is_prime_mr, _log_derivative_rows,
                         irreducible_count)

__all__ = [
    "CharacterSums",
    "DEFAULT_GROUP_BUDGET",
    "LPoly",
    "UnitGroup",
    "l_polynomial",
    "root_of_unity",
    "twisted_series",
    "unit_group",
    "weil_check",
    "word_primes",
]

DEFAULT_GROUP_BUDGET = 100_000

L_COEFF_NOTE = "coefficients indexed from degree 0; constant coefficient is 1"


class UnitGroup:
    """Multiplicative group of residues coprime to a monic modulus."""

    def __init__(self, d: Poly):
        self.order = phi_poly(d)  # which checks d
        self.d = d
        self.field = d.field
        self.q = d.field.q
        self.m = d.degree
        self.prime_degrees = prime_degrees(d)
        if self.order > DEFAULT_GROUP_BUDGET:
            raise BudgetExceededError("unit group order %d exceeds budget %d"
                                      % (self.order, DEFAULT_GROUP_BUDGET))
        elems = []
        index: dict[tuple, int] = {}
        for f in self._residues():
            if f.is_zero:
                continue
            g = poly_gcd(f, d)
            if g.degree == 0:
                index[f.coeffs] = len(elems)
                elems.append(f)
        if len(elems) != self.order:
            raise ConsistencyError(
                f"{len(elems)} units modulo {d.text()}, but phi(d) = {self.order}")
        self.elements: tuple[Poly, ...] = tuple(elems)
        self._index = index
        self._build_structure()
        # monic_residues[j]: indices of the monic units of degree j < m,
        # which are exactly the monic polynomials of degree j coprime to d
        by_degree: list[list[int]] = [[] for _ in range(self.m)]
        for i, f in enumerate(self.elements):
            if f.is_monic:
                by_degree[f.degree].append(i)
        self.monic_residues = tuple(tuple(r) for r in by_degree)
        self.exponent = math.lcm(*self._orders)
        self._power_maps: dict[int, list[int]] = {}

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
        return code

    def power_map(self, r: int) -> list[int]:
        """The map x -> x^r on all indices, and so chi -> chi^r on characters."""
        r %= self.exponent
        out = self._power_maps.get(r)
        if out is None:
            out = [0]
            for n in self._orders:
                out = [c * n + e * r % n for c in out for e in range(n)]
            self._power_maps[r] = out
        return out

    def element_order(self, i: int) -> int:
        e = 1
        for a, n in zip(self._dlog[i], self._orders):
            e = math.lcm(e, n // math.gcd(a, n))
        return e

    def dlog(self, i: int) -> tuple[int, ...]:
        """Exponent vector of element i against the basis."""
        return self._dlog[i]

    def _poly_mul(self, i: int, j: int) -> int:
        r = (self.elements[i] * self.elements[j]) % self.d
        return self._index[r.coeffs]

    def _build_structure(self):
        one = self._index[(1,)]
        basis = self._extract_basis(list(range(self.order)), self._poly_mul,
                                    one, self.order)
        self.structure: tuple[tuple[Poly, int], ...] = tuple(
            (self.elements[i], n) for i, n in basis)
        # index arithmetic adds dlog vectors modulo the basis orders, which
        # is sound only if g_i^(n_i) = 1 for every generator and the basis
        # regenerates the group bijectively; check both with polynomials
        for gi, n in basis:
            if _power(self._poly_mul, one, gi, n) != one:
                raise ConsistencyError(
                    f"unit group basis generator does not have order {n}")
        # regenerate the whole group from the basis, in lexicographic order
        # of exponent vectors; this validates the direct-product property
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
        if len({idx for idx, _ in combos}) != len(combos):
            raise ConsistencyError("unit group basis is not independent")
        if len(combos) != self.order:
            raise ConsistencyError("unit group basis does not span the group")
        # renumber once: index c is now the element whose dlog digits spell
        # c in mixed radix, so the identity is 0 and arithmetic needs no table
        self.elements = tuple(self.elements[idx] for idx, _ in combos)
        self._index = {f.coeffs: c for c, f in enumerate(self.elements)}
        self._dlog = [vec for _, vec in combos]
        self._orders = tuple(n for _, n in basis)

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
        if len(reps) != qsize:
            raise ConsistencyError(f"{len(reps)} cosets of an order-{best_ord} subgroup, "
                                   f"expected {qsize}")

        def qmul(a, b):
            return coset[mul(reps[a], reps[b])]

        qid = coset[identity]
        sub = UnitGroup._extract_basis(list(range(qsize)), qmul, qid, qsize)
        out = [(best, best_ord)]
        for qgen, n in sub:
            v = reps[qgen]
            # v^n lies in <best> as best^t with n | t; correct by best^(-t/n)
            tpow = powers.index(_power(mul, identity, v, n))
            if tpow % n:
                raise ConsistencyError(f"v^{n} is best^{tpow}, and {n} does not divide {tpow}")
            out.append((mul(v, powers[-(tpow // n) % best_ord]), n))
        return out

    def irreducible_classes(self, max_degree: int):
        """Per-degree counts of irreducibles by unit class, {deg: {idx: count}}.

        Irreducibles dividing the modulus are excluded (their residues are
        not units).  The counts come from the Newton recurrence on the
        class-refined zeta coefficients, without enumeration; the tests
        check them against enumerated irreducibles bucketed by residue.
        """
        if max_degree < 0:
            raise ValueError("max_degree must be nonnegative")
        return _newton_class_counts(self, max_degree)


def _tile(pattern: int, period: int, count: int) -> int:
    """count >= 1 copies of pattern, period bits apart, by doubling."""
    if count == 1:
        return pattern
    half = _tile(pattern, period, count // 2)
    out = half | half << count // 2 * period
    return out | pattern << (count - 1) * period if count & 1 else out


def _axes(group: UnitGroup, stride: int):
    """[order, bit stride, comb, digit, mask] per axis, the last innermost, for a
    block of stride bits per element in code order; comb has a 1 per period."""
    block, axes = group.order * stride, []
    for n in reversed(group._orders):
        axes.insert(0, [n, stride, _tile(1, n * stride, block // (n * stride)), 0, 0])
        stride *= n
    return axes


def _rotation(vec, axes, height: int):
    """Multiplication by the class with dlog vector vec, as (mask, up, down)
    per axis it moves: within each period of an axis, the blocks whose digit
    stays below n once vec's digit is added go up, the others wrap down."""
    block = axes[0][0] * axes[0][1] if axes else height
    for a, axis in zip(vec, axes):
        if a and a != axis[3]:  # a mask changes only with its axis's digit
            n, s, comb = axis[:3]
            axis[3:] = a, _tile((comb << (n - a) * s) - comb, block, height // block)
    return [(mask, a * s, (n - a) * s) for a, (n, s, _, _, mask) in zip(vec, axes) if a]


def _rotate(x: int, rotation) -> int:
    for mask, up, down in rotation:
        lo = x & mask
        x = lo << up | (x ^ lo) >> down
    return x


def _newton_class_counts(group: UnitGroup, N: int):
    """Irreducible counts per (degree, unit class) without enumeration.

    Works on the class-refined coefficients z_n of the zeta function
    restricted to polynomials coprime to d: z_n[u] is q^(n-m) for n >= m
    and, below that, the indicator of the monic residues of degree n
    (group.monic_residues[n]).  The recurrence n z_n = sum_j w_j * z_(n-j)
    (convolution over the group) yields the prime-power vectors w_n, and
    exact prime-power inversion recovers the per-class prime counts.
    Vectors over the group are packed one slot per element in code order,
    so the product by an element is the rotation of the class kernel; every
    slot holds a value in [0, N q^N], so none borrows or carries.
    """
    order, q, m = group.order, group.q, group.m
    qpow = [q**i for i in range(N + 1)]
    excluded = Counter(group.prime_degrees)
    slot = (N * qpow[N]).bit_length() + 1
    smask, height, axes = (1 << slot) - 1, order * slot, _axes(group, slot)
    ones = _tile(1, slot, order)
    z = [sum(1 << v * slot for v in residues) for residues in group.monic_residues]
    widest = max(map(len, group.monic_residues))
    w: list = [None] * (N + 1)  # (packed w_j, its nonzero (u, w_j[u]))
    wsum = [0] * (N + 1)
    cvec: list[list[int] | None] = [None] * (N + 1)
    counts: dict[int, dict[int, int]] = {}
    for n in range(1, N + 1):
        # z_(n-j) is constant across classes for n - j >= m, so those terms
        # collapse to one shift by the total weights of the w_j
        shift = sum(qpow[n - j - m] * wsum[j] for j in range(1, n - m + 1))
        conv = 0
        for j in range(max(1, n - m + 1), n):
            # z_(n-j) is the indicator of the monic residues of degree n-j:
            # rotate one side by each element of the shorter other side
            packed, support = w[j]
            residues = group.monic_residues[n - j]
            if support is not None and len(support) <= len(residues):
                conv += sum(a * _rotate(z[n - j], _rotation(group.dlog(u), axes, height))
                            for u, a in support)
            else:
                conv += sum(_rotate(packed, _rotation(group.dlog(v), axes, height))
                            for v in residues)
        acc = n * (z[n] if n < m else qpow[n - m] * ones) - shift * ones - conv
        wn = [acc >> s & smask for s in range(0, height, slot)]
        support = [(u, a) for u, a in enumerate(wn) if a]
        # a support wider than every residue set is never the shorter side
        w[n] = acc, support if len(support) <= widest else None
        wsum[n] = sum(wn)
        sub = [0] * order
        for j in range(2, n + 1):
            if n % j:
                continue
            t = n // j
            ct = cvec[t]
            pm = group.power_map(j)
            for x in range(order):
                if ct[x]:
                    sub[pm[x]] += t * ct[x]
        cn = []
        for u in range(order):
            val = wn[u] - sub[u]
            if val % n:
                raise ConsistencyError(
                    f"class-count inversion is not integral at degree {n}")
            cn.append(val // n)
        cvec[n] = cn
        if sum(cn) + excluded[n] != irreducible_count(q, n):
            raise ConsistencyError(
                f"class counts at degree {n} do not sum to the prime count")
        counts[n] = {u: c for u, c in enumerate(cn) if c}
    return counts


@lru_cache(maxsize=None)
def unit_group(d: Poly) -> UnitGroup:
    return UnitGroup(d)


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


@lru_cache(maxsize=None)
def _orbit_counts(group: UnitGroup):
    """Each Galois orbit {chi^a : gcd(a, ord chi) = 1} of the non-principal
    characters, walked once from its least index chi, as (rows, members):
    rows[j], j < m, counts chi's value exponents over monic_residues[j] as
    (e, n) items, and members holds the pairs (index of chi^a, a).  chi^a
    takes a e mod E where chi takes e, injectively on chi's exponents (the
    multiples of E / ord chi), so chi's items with e sent to a e count every
    member exactly.  These counts are the one source of c_j(chi)."""
    seen = [False] * group.order
    orbits = []
    for c in range(1, group.order):
        if seen[c]:
            continue
        values = _char_exponents(group, group.dlog(c))
        rows = [tuple(Counter(map(values.__getitem__, residues)).items())
                for residues in group.monic_residues]
        n, x, members = group.element_order(c), c, []
        for a in range(1, n):
            if math.gcd(a, n) == 1:
                members.append((x, a))
                seen[x] = True
            x = group.mul(x, c)
        orbits.append((rows, members))
    return orbits


def _fp_coefficient(items, a: int, powers: list[int], P: int) -> int:
    """c_j(chi^a) mod P from chi's (e, n) counts at degree j; powers[e] = w^e."""
    E = len(powers)
    return sum([n * powers[a * e % E] for e, n in items]) % P


@lru_cache(maxsize=None)
def _l_coefficients(group: UnitGroup):
    """Complex coefficients c_0..c_(m-1) of L(T, chi) and its degree, by character index.

    c_j sums chi over monic_residues[j]; monics not coprime to d have
    value 0.  Both come from the per-orbit counts of _orbit_counts: each
    member's remapped counts are evaluated at zeta_E = e^(2 pi i/E), adding
    n * zeta^e in ascending e, for the complex c_j, and at zeta_E = w, the
    root_of_unity modulo the first word prime P, for the degree.  Index 0,
    the principal character, has neither.

    The degree is exact.  Let chi have order n, so alpha = c_j(chi) lies in
    Z[zeta_n], and its Galois conjugates sigma_a(alpha), gcd(a, n) = 1, are
    the c_j(chi^a).  P = 1 (mod n) splits completely in Z[zeta_n]: the
    primes above it are the kernels of the maps zeta_n -> w^(aE/n), and
    their product is P Z[zeta_n].  If c_j(chi^a) = 0 mod P for every a,
    alpha lies in all of them, so alpha = P beta with beta integral.  A
    nonzero beta has a norm of absolute value at least 1, so the norm of
    alpha would be at least P^phi(n); but each conjugate is a sum of at
    most q^j roots of unity, so that norm is at most q^(j phi(n)), less
    than P^phi(n) once P > q^j.  Hence alpha = 0 (Washington, GTM 83,
    ch. 2).  An exact zero is zero mod P too, so the degree of L(T, chi)
    (Rosen, GTM 210, ch. 4), the largest j with c_j(chi) != 0, is the
    largest j at which some member of the orbit {chi^a} is nonzero mod P,
    and P > q^(m-1) serves every j < m.
    """
    E, order = group.exponent, group.order
    P = next(word_primes(E))
    if P <= group.q ** (group.m - 1):
        raise ConsistencyError(
            f"prime {P} does not exceed q^(m-1) = {group.q ** (group.m - 1)}, "
            "so it cannot fix the L-polynomial degrees")
    w = root_of_unity(E, P)
    powers = [pow(w, e, P) for e in range(E)]
    zetas = [cmath.exp(2j * math.pi * e / E) for e in range(E)]
    coeffs, degrees = [None] * order, [None] * order
    for rows, members in _orbit_counts(group):
        # the top degree at which some member is nonzero mod P; c_0 = 1
        degree = next((j for j in range(group.m - 1, 0, -1)
                       if any(_fp_coefficient(rows[j], a, powers, P) for _, a in members)), 0)
        for x, a in members:
            degrees[x] = degree
            row = []
            for items in rows:
                # an explicit loop: sum() adds floats with compensation from
                # Python 3.12 on, which would move the last bits
                acc = 0j
                for e, n in sorted([(a * e % E, n) for e, n in items]):
                    acc += n * zetas[e]
                row.append(acc)
            coeffs[x] = tuple(row)
    return coeffs, degrees


def l_polynomial(group: UnitGroup, c: int) -> LPoly:
    """Coefficients and inverse roots of L(T, chi) for the character of index c > 0."""
    if not 0 < c < group.order:
        raise ValueError(f"character index {c} is not in 1..{group.order - 1}")
    rows, degrees = _l_coefficients(group)
    coeffs, eff = rows[c], degrees[c]
    # inverse roots are the zeros of the reversed polynomial
    # y^eff + c_1 y^(eff-1) + ... + c_eff  (c_0 = 1 keeps it monic)
    rev = [coeffs[eff - i] for i in range(eff + 1)]
    roots, residual = _find_roots(rev)
    if residual > 1e-10:
        raise RootFindingError("inverse-root iteration stalled", residual)
    return LPoly(group.dlog(c), coeffs, eff, roots, residual)


def _check_tol(tol: float) -> None:
    """Reject a weil tolerance outside 0 <= tol < inf; a NaN would pass every root."""
    if not 0 <= tol < math.inf:
        raise ValueError(f"tol must satisfy 0 <= tol < inf, got {tol!r}")


def weil_check(group: UnitGroup, c: int, tol: float = 1e-6) -> dict:
    """Classify inverse-root moduli of L(T, chi) against {1, sqrt(q)}, chi of index c.

    Returns chi's entry of the weil report: exponents, degree_deficit, ok
    and inverse_roots.  "ok" is True when every root modulus is within
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
        "exponents": list(lp.exponents),
        "degree_deficit": (group.m - 1) - lp.effective_degree,
        "ok": ok,
        "inverse_roots": roots,
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
    exponent vector, that character's value exponents by element index."""
    E = group.exponent
    out = [0]
    for t, (_, n) in zip(vec, group.structure):
        step = [e * t * (E // n) % E for e in range(n)]
        out = [(v + s) % E for v in out for s in step]
    return out


class CharacterSums:
    """Degree-weighted prime sums of every character mod d, in F_P, to degree N.

    P is a prime with P = 1 (mod E), E the group exponent, and
    powers[e] = w^e for the root_of_unity w of order E mod P; sending
    zeta_E to w maps Z[zeta_E] onto F_P, so every entry is the image of an
    exact algebraic integer.  A character is addressed by its index c, as
    elements are.  weights[t][c] = t * P_chi(t) mod P,
    where P_chi(t) sums chi over the monic irreducibles of degree t not
    dividing d.  It is built without the irreducibles or class counts:

    1. chi(u) = w^(value exponent), from the dlog vector of u.
    2. L(T, chi) has coefficients c_j = sum of chi over monic_residues[j]
       for j < m, read from the value-exponent counts of chi's Galois orbit
       (_orbit_counts), and none above m - 1 when chi is not principal.
    3. psi(n) = n c_n - sum_(0<j<n) c_j psi(n-j) is the T^n coefficient
       of T L'/L, the sum of deg(p) chi(p)^r over prime powers p^r of
       degree n.  For the principal character, L = Z(T) prod_(p|d) (1 -
       T^deg p), so psi(n) = q^n - sum of the group.prime_degrees b | n.
    4. t P_chi(t) = psi_chi(t) - sum over e | t, e < t of e P_(chi^(t/e))(e).
    """

    __slots__ = ("group", "N", "P", "powers", "inverses", "weights")

    def __init__(self, group: UnitGroup, N: int, P: int):
        E, order = group.exponent, group.order
        self.group, self.N, self.P = group, N, P
        root = root_of_unity(E, P)
        powers = [pow(root, e, P) for e in range(E)]
        self.powers = powers
        self.inverses = [0] + [pow(n, -1, P) for n in range(1, N + 1)]
        J = min(group.m - 1, N)
        # coeffs[j][x] = c_j(chi_x) mod P; the principal entry is never read
        coeffs: list = [None] + [[0] * order for _ in range(J)]
        for rows, members in _orbit_counts(group):
            for x, a in members:
                for j in range(1, J + 1):
                    coeffs[j][x] = _fp_coefficient(rows[j], a, powers, P)
        psi: list = [None]
        for n in range(1, N + 1):
            acc = [n * x for x in coeffs[n]] if n <= J else [0] * order
            for j in range(1, min(n - 1, J) + 1):
                acc = list(map(sub, acc, map(mul, coeffs[j], psi[n - j])))
            psi.append([x % P for x in acc])
        # index 0 is the principal character
        bad = group.prime_degrees
        for n in range(1, N + 1):
            psi[n][0] = (pow(group.q, n, P) - sum(b for b in bad if n % b == 0)) % P
        weights: list = [None]
        for t in range(1, N + 1):
            acc = psi[t]
            for e in range(1, t // 2 + 1):
                if t % e == 0:
                    acc = list(map(sub, acc, map(weights[e].__getitem__, group.power_map(t // e))))
            weights.append([x % P for x in acc])
        self.weights = weights

    def conjugate_values(self, vec) -> list[int]:
        """conj(chi)(u) mod P for every character, u given by its dlog vector."""
        E, powers = self.group.exponent, self.powers
        return [powers[-e % E] for e in _char_exponents(self.group, vec)]


def twisted_series(c: int, sums: CharacterSums, K: int) -> BiSeries:
    """The twisted squarefree series mod P to T^sums.N and z^K, packed.

    The series of character c is the product over irreducibles p not
    dividing d of (1 + z chi(p) T^deg p), and exactcount's kernel runs its
    log-derivative recurrence n F_n = sum_m (-1)^(m-1) z^m sum_t t
    P_(chi^m)(t) F_(n-mt) on rows packed mod P.  A slot of 2 bits(P) +
    bits(N K) bits holds a row's sums of products of residues, so no slot
    carries into the next before the finish reduces it.
    """
    q, N, P, inverses = sums.group.q, sums.N, sums.P, sums.inverses
    weights = [None]
    for m in range(1, K + 1):
        cm = sums.group.power_map(m)[c]
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

    return BiSeries(q, N, K, slot, *_log_derivative_rows(weights, q, N, K, slot, finish))
