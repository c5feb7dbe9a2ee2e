"""Shared session fixtures: the large q = 2 tables reused across suites,
and the test oracles of the character values and the irreducible class counts."""

import time
from collections import Counter
from dataclasses import dataclass

import pytest

from ffcount.algebra import enumerate_irreducibles
from ffcount.exactcount import (
    BiSeries,
    euler_product_allfactors,
    euler_product_squarefree,
    max_omega,
)


@dataclass(frozen=True)
class Q2Tables:
    squarefree: BiSeries
    allfactors: BiSeries
    build_seconds: float


@pytest.fixture(scope="session")
def q2_tables():
    t0 = time.monotonic()
    K = max_omega(2, 400)
    sq = euler_product_squarefree(2, 400, K)
    al = euler_product_allfactors(2, 400, K)
    return Q2Tables(sq, al, time.monotonic() - t0)


def _char_value(group, c, u):
    """Value exponent mod E of character c on element u, by the definition.

    c's exponent vector is the mixed-radix expansion of c against the basis
    orders, first axis most significant; the value is sum e_i t_i (E / n_i)
    with t the dlog vector of u.  Production pairs them in _char_exponents.
    """
    orders = [n for _, n in group.structure]
    exps = []
    for n in reversed(orders):
        c, e = divmod(c, n)
        exps.append(e)
    exps.reverse()
    E = group.exponent
    return sum(e * t * (E // n) for e, t, n in zip(exps, group.dlog(u), orders)) % E


@pytest.fixture(scope="session")
def char_value():
    """The test oracle for a character's value, independent of _char_exponents."""
    return _char_value


def _direct_classes(group, max_degree):
    """{deg: {idx: count}} as UnitGroup.irreducible_classes gives it, by
    reducing every enumerated irreducible of degree 1..max_degree mod d;
    those dividing d have no unit class and are left out."""
    out = {}
    for n in range(1, max_degree + 1):
        counts = Counter(group._index.get((p % group.d).coeffs)
                         for p in enumerate_irreducibles(group.field, n))
        counts.pop(None, None)
        out[n] = dict(counts)
    return out


@pytest.fixture(scope="session")
def direct_classes():
    """The test oracle for the class counts, independent of the Newton recurrence."""
    return _direct_classes
