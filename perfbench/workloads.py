"""Seeded generator of ffcount command lists, one list per workload.

Every workload is a fixed list of command *shapes*: the subcommand, the
field size and the sizes that set the cost (degree, truncation, modulus
degree, group order).  The seed draws everything inside a shape: the
moduli, residues and centres, the reported degree and factor-count
ranges, and the order of the commands.  Runs with different seeds are
therefore comparable in cost while never repeating the same inputs.

Every argv this module produces satisfies the CLI's preconditions, so no
command exits 2.  The deep-n `ap` queries of `ap_mix` are the exception
to "exits 0": at this version they hit the float character path's
false-failure defect and exit 4, and they are kept so that the failure
count shows it.

Each workload list also holds the same small probe tier, which touches
every traced function, so every per-layer metric is measured on every
workload.
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass

from ffcount.algebra import FieldSpec, Poly, default_modulus, is_irreducible, poly_gcd

WORKLOADS = ("tables", "ap_mix", "large_group")

# the squarefree series refuses N * log2(q) above this many bits
BITS_CAP = 600


@dataclass(frozen=True)
class Command:
    """One generated CLI invocation: its id and the argv after `ffcount`."""

    cid: str
    argv: tuple[str, ...]

    @property
    def sub(self) -> str:
        return self.argv[0]

    def opt(self, name: str) -> str | None:
        """Value of --name in argv, or None."""
        flag = "--" + name
        for i, a in enumerate(self.argv[:-1]):
            if a == flag:
                return self.argv[i + 1]
        return None


def field_of(q: int) -> FieldSpec:
    """F_q, with the CLI's default modulus when q is not prime."""
    for p in (2, 3, 5, 7):
        e = round(math.log(q, p))
        if p ** e == q:
            return FieldSpec(p) if e == 1 else FieldSpec(p, e, default_modulus(p, e))
    raise ValueError(f"unsupported q {q}")


def _fmt(fld: FieldSpec, coeffs) -> str:
    """Coefficients (integer element codes) in the CLI's polynomial format."""
    if fld.e == 1:
        return ",".join(str(c) for c in coeffs)
    return ",".join("/".join(str(d) for d in fld._vec(c)) for c in coeffs)


def _monic(rng: random.Random, fld: FieldSpec, n: int, unit_const: bool = False):
    cs = [rng.randrange(fld.q) for _ in range(n)] + [1]
    if unit_const and cs[0] == 0:
        cs[0] = rng.randrange(1, fld.q)
    return cs


def _irreducible(rng: random.Random, fld: FieldSpec, m: int):
    while True:
        cs = _monic(rng, fld, m, unit_const=True)
        if is_irreducible(Poly(fld, cs)):
            return cs


def _unit(rng: random.Random, fld: FieldSpec, d) -> list[int]:
    """A residue of degree < deg d coprime to d."""
    dp = Poly(fld, d)
    while True:
        cs = [rng.randrange(fld.q) for _ in range(len(d) - 1)]
        g = Poly(fld, cs)
        if not g.is_zero and poly_gcd(g, dp).degree == 0:
            return cs


def _cap(q: int) -> int:
    return int(BITS_CAP / math.log2(q) + 1e-9)


def _a(*parts) -> tuple[str, ...]:
    return tuple(str(p) for p in parts)


def _ap(rng, q: int, m: int, n: int, k: int, irreducible: bool = False, method=None):
    fld = field_of(q)
    d = _irreducible(rng, fld, m) if irreducible else _monic(rng, fld, m)
    g = _unit(rng, fld, d)
    argv = _a("ap", "--q", q, "--d", _fmt(fld, d), "--g", _fmt(fld, g), "--n", n, "--k", k)
    return argv + (("--method", method) if method else ())


def _interval(rng, q: int, n: int, h: int, k: int):
    fld = field_of(q)
    g = _monic(rng, fld, n)
    return _a("interval", "--q", q, "--g", _fmt(fld, g), "--h", h, "--k", k)


def _weil(rng, q: int, m: int, irreducible: bool = True):
    fld = field_of(q)
    d = _irreducible(rng, fld, m) if irreducible else _monic(rng, fld, m)
    return _a("weil", "--q", q, "--d", _fmt(fld, d))


def _geo_top(rng, top_lo: int, top_hi: int, steps: int) -> str:
    """A doubling range lo:lo*2^steps:x2 with lo*2^steps at most a value
    drawn from [top_lo, top_hi] and within 2^steps of it."""
    top = rng.randint(top_lo, top_hi)
    lo = top >> steps
    return f"{lo}:{lo << steps}:x2"


def _probe(rng: random.Random) -> list[tuple[str, ...]]:
    """Five small commands that together touch every traced function.

    Their smallest degrees are within reach of the enumeration oracles.
    """
    q = rng.choice((2, 3))
    return [
        _a("compare", "--q", q, "--n", f"{rng.randint(4, 5)}:{ {2: 128, 3: 80}[q] }:x2",
           "--k", "1:2"),
        _a("omega-stats", "--q", rng.choice((2, 3, 5)), "--n", _geo_top(rng, 40, 64, 3)),
        _ap(rng, 3, 2, rng.randint(4, 6), rng.randint(1, 3)),
        _interval(rng, 2, 10, 5, rng.randint(1, 3)),
        _weil(rng, 3, 2, irreducible=False),
    ]


def _tables(rng: random.Random) -> list[tuple[str, ...]]:
    """Global tables up to the 600-bit coefficient cap, every q in the set."""
    def top(q, lo, hi):
        return rng.randint(int(lo * _cap(q)), int(hi * _cap(q)))

    # the four heaviest, of about equal cost so that p90 falls among them:
    # q = 2 at the cap truncated in k within the proven range k <= 2 log n,
    # full squarefree tables (every k column) for q = 3, 4, and all-factor
    # tables for q = 5
    n2 = top(2, 0.98, 1.0)
    out = [_a("count", "--q", 2, "--n", f"{n2 - rng.randint(2, 6)}:{n2}", "--k", "1:6")]
    out.append(_a("count", "--q", 3, "--n", str(top(3, 0.86, 0.87))))
    out.append(_a("count", "--q", 4, "--n", str(top(4, 0.9, 0.91))))
    out.append(_a("count", "--q", 5, "--n", f"{top(5, 0.9, 0.9)}:{top(5, 0.99, 1.0)}",
                  "--mode", "all"))
    # a table small enough to check against enumeration row by row
    q = rng.choice((2, 3))
    out.append(_a("count", "--q", q, "--n", f"1:{ {2: 10, 3: 6}[q] }"))
    for q in (7, 8, 9):
        out.append(_a("count", "--q", q, "--n", str(top(q, 0.48, 0.5))))
    # all-factor tables (every k column) and their moments
    out.append(_a("count", "--q", 9, "--n", f"{top(9, 0.4, 0.4)}:{top(9, 0.42, 0.45)}",
                  "--mode", "all"))
    out.append(_a("omega-stats", "--q", 7, "--n", _geo_top(rng, 85, 95, 3)))
    # exact against predicted, doubling sweeps up to the cap
    for q in (3, 4, 5, 8):
        out.append(_a("compare", "--q", q, "--n", _geo_top(rng, top(q, 0.9, 0.9), _cap(q), 3),
                      "--k", f"1:{rng.randint(3, 5)}"))
    for q in (2, 9):
        out.append(_a("asym", "--q", q, "--n", _geo_top(rng, top(q, 0.9, 0.9), _cap(q), 3),
                      "--k", f"1:{rng.randint(3, 6)}"))
    return out


def _ap_mix(rng: random.Random) -> list[tuple[str, ...]]:
    """Default-method progressions below the auto cap, deep-n ones and weil.

    With the probe tier the list holds 18 commands: p90 falls between the
    16th and 17th cheapest, among the four q=2 n=14 sieves of equal cost,
    and p50 between the 9th and 10th, among the two q=5 queries and the two
    failing deep-n ones, which cost about the same.
    """
    out = []
    # `auto` picks the direct sieve here; the sieve cost is set by q**n,
    # not by the modulus degree.  k is fixed at q=5, where it sets the cost
    # of the queries p50 falls among
    for q, n, m in ((2, 14, 1), (2, 14, 2), (2, 14, 3), (2, 14, 3), (3, 9, 1), (3, 9, 2)):
        out.append(_ap(rng, q, m, n, rng.randint(1, 3)))
    for m in (1, 2):
        out.append(_ap(rng, 5, m, 6, 3))
    # deep n on irreducible cubic moduli: `auto` picks the class method;
    # n <= 34 passes, n >= 46 hits the float character-path defect (exit 4).
    # n is fixed because the cost grows with it
    for n in (32, 50, 50):
        out.append(_ap(rng, 2, 3, n, 3, irreducible=True))
    # weil on irreducible moduli: group order q**m - 1, reports of 140-190 KB
    for q, m in ((2, 7), (3, 5)):
        out.append(_weil(rng, q, m))
    return out


def _large_group(rng: random.Random) -> list[tuple[str, ...]]:
    """Unit groups past the enumeration cap: intervals and class-method ap.

    With the probe tier the list holds 15 commands, and the latency
    percentiles sit inside groups of commands of about equal cost: p50 at
    the 8th cheapest, among three order-16 intervals, an order-18 one and
    an order-63 progression at n = 8, and p90 among the three heaviest.  A
    percentile that falls on the step between two costs jumps with the
    noise.
    """
    out = []
    # interval modulus X^(n-h) with group order q^(m-1)(q-1); n is past
    # the cap, so `auto` picks the class method and the sieve stays idle.
    # Orders 12, 16 (three times), 18 and 20 ...
    for q, n, h, k in ((4, 13, 11, 2), *[(2, 25, 20, 1)] * 3, (3, 16, 13, 2), (5, 11, 9, 2)):
        out.append(_interval(rng, q, n, h, k))
    # ... class-method progressions on irreducible moduli of group order 63 ...
    out.append(_ap(rng, 2, 6, 8, 2, irreducible=True, method="class"))
    # ... and the three heaviest, of about equal cost: order 32, 80 and 63
    out.append(_interval(rng, 2, 25, 19, 1))
    out.append(_ap(rng, 3, 4, 8, 2, irreducible=True, method="class"))
    out.append(_ap(rng, 2, 6, 12, 3, irreducible=True, method="class"))
    return out


_LISTS = {"tables": _tables, "ap_mix": _ap_mix, "large_group": _large_group}


def generate(workload: str, seed: int) -> list[Command]:
    """The command list of one repetition of `workload` for `seed`."""
    if workload not in _LISTS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{seed}")
    argvs = _LISTS[workload](rng) + _probe(rng)
    rng.shuffle(argvs)
    return [Command(f"{workload}-{i:02d}", argv) for i, argv in enumerate(argvs)]
