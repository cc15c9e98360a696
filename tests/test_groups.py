"""Named test groups, each held once in fixtures/groups/, with the answers
the library gives on them.

The answers pinned here are today's; a change that gives a better one (a
certificate in place of None or an obstruction, say) updates it here."""

import pathlib
from fractions import Fraction as F

import pytest

from plcircle import detect_finite_orbit, identity, rotation_number, smooth_group
from plcircle.circle import reduce_mod1
from plcircle.io import group_from_json, load_json

GROUPS = pathlib.Path(__file__).resolve().parent.parent / "fixtures" / "groups"


def load(name):
    return group_from_json(load_json(str(GROUPS / f"{name}.json")))


def word(*maps):
    """The word XY... read as X.compose(Y)...: Y acts first."""
    w = identity()
    for m in maps:
        w = w.compose(m)
    return w


def commutator(x, y):
    return word(x, y, x.inverse(), y.inverse())


@pytest.fixture(scope="module")
def thompson_t():
    return load("thompson_t")


@pytest.fixture(scope="module")
def thompson_f():
    return load("thompson_f")


def test_thompson_f_is_t_without_c(thompson_t, thompson_f):
    assert thompson_f.generators == thompson_t.generators[:2]


def test_thompson_t_relations(thompson_t):
    # Cannon, Floyd and Parry, L'Enseignement Math. 42 (1996), Thm 5.7
    A, B, C = (g for _, g in thompson_t.generators)
    Ai = A.inverse()
    X2 = word(Ai, B, A)
    C2 = word(Ai, C, B)
    C3 = word(Ai, Ai, C, B, B)
    ABi = word(A, B.inverse())
    assert C.lift_eval(0) == F(3, 4)
    assert commutator(ABi, X2).is_identity
    assert commutator(ABi, word(Ai, Ai, B, A, A)).is_identity
    assert C == word(B, C2)
    assert word(C2, X2) == word(B, C3)
    assert word(C, A) == word(C2, C2)
    assert word(C, C, C).is_identity


@pytest.mark.parametrize("name", ["thompson_t", "thompson_f"])
def test_thompson_smooth_is_an_obstruction(name):
    assert smooth_group(load(name)).kind == "obstruction"


def test_thompson_t_finite_orbit_search_finds_none(thompson_t):
    assert detect_finite_orbit(thompson_t, 4) is None


def test_thompson_f_finite_orbit_is_zero(thompson_f):
    assert detect_finite_orbit(thompson_f, 4) == (reduce_mod1(0),)


def test_thompson_t_rotation_numbers(thompson_t):
    rhos = {name: rotation_number(g) for name, g in thompson_t.generators}
    assert all(r.is_exact for r in rhos.values())
    assert {name: r.exact for name, r in rhos.items()} == {
        "A": 0, "B": 0, "C": F(2, 3)}
