"""The library's records, against the frozen dataclasses they replaced.

Each record is a typing.NamedTuple or, when it validates on construction, a
circle._Frozen.  The oracle is a twin built here with
dataclasses.make_dataclass(name, fields, frozen=True): the records must
print, hash and compare as their twins do, so no repr, set order or dict
order that reaches output moves, no field may be assigned, and copy, deepcopy
and pickle give back an equal record, as they did for the twins."""

import copy
import dataclasses
import os
import pathlib
import pickle
import subprocess
import sys
from fractions import Fraction as F

import pytest

import plcircle
from plcircle import (CBRank, CirclePoint, Edge, ExoticParams, FiniteVector,
                      FixedSet, GroupPresentation, GrowthParams, Leaf, Limit,
                      Obstruction, PLHomeo, RotNumResult, Success,
                      SymbolicSet, Truncated, from_lift_vertices, rotation)

P, Q = CirclePoint(F(1, 2)), CirclePoint(F(1, 3))
STD = from_lift_vertices([(0, 0), (F(1, 2), F(1, 4)), (1, 1)])
R = rotation(F(1, 3))
S1, S2 = SymbolicSet((Leaf(P),)), SymbolicSet((Leaf(P), Leaf(Q)))
E1 = Edge(P, "a", 1, Q, F(2))
E2 = Edge(Q, "a", -1, P, F(1, 2))

# each record's fields in order, each with two values: the record built
# from the first values, then once with each field switched to its second
RECORDS = [
    (CirclePoint, {"value": (F(1, 2), F(1, 3))}),
    (PLHomeo, {"verts": (STD.verts, R.verts)}),
    (ExoticParams, {"A": (F(4), F(6)), "lam": (F(2), F(3))}),
    (FiniteVector, {"entries": (((P, F(2)),), ((Q, F(2)),))}),
    (GrowthParams, {"component": ((P, Q), (Q, P)), "c0": (0.5, 1.5),
                    "c1": (-0.5, 2.0), "mu": (1.0, 3.0), "beta": (0.25, 0.5),
                    "analyzed_inverse": (False, True)}),
    (FixedSet, {"full": (False, True), "points": ((P,), (Q,)), "arcs": ((), ((P, Q),))}),
    (RotNumResult, {"exact": (F(1, 2), None), "lo": (None, F(1, 3)),
                    "hi": (None, F(2, 3)), "depth": (0, 7)}),
    (Leaf, {"point": (P, Q)}),
    (Limit, {"apex": (P, Q), "child": (S1, S2), "direction": ("left", "right"),
             "ratio": (F(1, 2), F(1, 3))}),
    (SymbolicSet, {"nodes": (S1.nodes, S2.nodes)}),
    (CBRank, {"rank": (1, 2), "top_finite_set_size": (1, 3), "chain": ((1, 0), (2, 1, 0))}),
    (GroupPresentation, {"generators": ((("a", STD),), (("a", STD), ("b", R)))}),
    (Edge, {"source": (P, Q), "gen": ("a", "b"), "sign": (1, -1), "target": (Q, P),
            "weight": (F(2), F(1, 2))}),
    (Obstruction, {"cycle": ((E1, E2), (E1,)), "found": (F(2), F(3))}),
    (Success, {"phi": (STD, R), "conjugated": ((("a", R),), (("a", STD),))}),
    (Truncated, {"escaping": ((P,), (P, Q))}),
]


def _plhomeo_hash(h):
    # PLHomeo hashes the ints of its vertices, not the Fractions: the hash
    # it defined explicitly, which the frozen dataclass kept
    return hash(tuple((x.numerator, x.denominator, y.numerator, y.denominator)
                      for x, y in h.verts))


def _samples(fields):
    base = {name: values[0] for name, values in fields.items()}
    yield base
    for name, values in fields.items():
        yield {**base, name: values[1]}


@pytest.mark.parametrize("cls, fields", RECORDS, ids=[cls.__name__ for cls, _ in RECORDS])
def test_records_match_frozen_dataclass_twins(cls, fields):
    namespace = {"__hash__": _plhomeo_hash} if cls is PLHomeo else {}
    twin = dataclasses.make_dataclass(cls.__name__, list(fields), frozen=True,
                                      namespace=namespace)
    records = [cls(**values) for values in _samples(fields)]
    # the twins hold the values the records stored, after any conversion
    twins = [twin(*(getattr(r, name) for name in fields)) for r in records]
    for r, t in zip(records, twins):
        assert cls(*(getattr(r, name) for name in fields)) == r
        assert repr(r) == repr(t)
        assert hash(r) == hash(t)
        for name in fields:
            with pytest.raises(AttributeError):
                setattr(r, name, getattr(r, name))
        for clone in (copy.copy, copy.deepcopy, lambda x: pickle.loads(pickle.dumps(x))):
            c = clone(r)
            assert type(c) is cls and c == r and repr(c) == repr(r) and hash(c) == hash(r)
    assert [[a == b for b in records] for a in records] == \
        [[a == b for b in twins] for a in twins]


def test_cold_start_imports_neither_dataclasses_nor_inspect():
    # a fresh interpreter, with no site packages, imports the CLI only
    src = pathlib.Path(plcircle.__file__).resolve().parent.parent
    code = ("import sys, plcircle.cli; "
            "print(sorted({'dataclasses', 'inspect'} & set(sys.modules)))")
    out = subprocess.run([sys.executable, "-S", "-c", code], capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": str(src)}, check=True).stdout
    assert out == "[]\n"
