"""The library's immutable records: construction, validation, equality, hashing."""

from fractions import Fraction

import pytest

from ffcount.algebra import FactorStats, FieldSpec, parse_poly
from ffcount.apinterval import APQuery, IntervalQuery
from ffcount.asym import AnalyticConfig
from ffcount.characters import LPoly
from ffcount.cli import Report
from ffcount.exactcount import OmegaMoments

F2 = FieldSpec(2)
F3 = FieldSpec(3)
X = parse_poly(F3, "0,1")
ONE = parse_poly(F3, "1")
X5 = parse_poly(F3, "1,0,0,0,0,1")

# (record, every field by name in order, the defaults, field changes that
# the constructor rejects with ValueError)
RECORDS = [
    (FactorStats, {"omega": 1, "mu": -1, "squarefree": True, "factors": ((X, 1),)}, {}, []),
    (APQuery, {"n": 4, "k": 2, "g": ONE, "d": X}, {}, [
        {"n": -1}, {"k": -1}, {"g": X}, {"d": ONE}, {"d": parse_poly(F3, "0,2")},
        {"g": parse_poly(F2, "1")}]),
    (IntervalQuery, {"n": 5, "k": 1, "g": X5, "h": 2}, {}, [
        {"n": 4}, {"k": -1}, {"h": -1}, {"h": 5}, {"g": parse_poly(F3, "1,0,0,0,0,2")}]),
    (AnalyticConfig, {"A": 3.0}, {"A": 2.0}, [{"A": 1.0}, {"A": float("nan")}, {"A": 1e101}]),
    (OmegaMoments, {"mean": Fraction(3, 2), "variance": Fraction(1, 4),
                    "histogram": {1: 2, 2: 2}}, {}, []),
    (LPoly, {"exponents": (1,), "coeffs": (1, 1j), "effective_degree": 1,
             "inverse_roots": (1j,), "residual": 0.0}, {}, []),
    (Report, {"payload": {"command": "x"}, "columns": ("a",), "path": ("rows",), "exit_code": 4},
     {"path": (), "exit_code": 0}, []),
]


@pytest.mark.parametrize("cls, values, defaults, rejected", RECORDS,
                         ids=[r[0].__name__ for r in RECORDS])
def test_record_contract(cls, values, defaults, rejected):
    rec = cls(*values.values())
    assert rec == cls(**values)
    assert all(getattr(rec, name) == v for name, v in values.items())
    # the fields without a default, by position, take the defaults for the rest
    required = [v for name, v in values.items() if name not in defaults]
    assert cls(*required) == cls(**{**values, **defaults})
    for change in rejected:
        with pytest.raises(ValueError):
            cls(**{**values, **change})
    for name in (*values, "extra"):
        with pytest.raises(AttributeError):
            setattr(rec, name, 0)
    # equality and hashing go by field
    second = list(values)[min(1, len(values) - 1)]  # the first of a one-field record
    assert rec != cls(**{**values, second: values[second] * 2})
    try:
        expected = hash(tuple(values.values()))
    except TypeError:  # a dict field: unhashable, as the record must be
        with pytest.raises(TypeError):
            hash(rec)
    else:
        assert hash(rec) == hash(cls(**values)) == expected
