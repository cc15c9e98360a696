"""Named test groups, each held once in fixtures/groups/, with the answers
the library gives on them.

The answers pinned here are today's; a change that gives a better one (a
certificate in place of None or an obstruction, say) updates it here."""

import pathlib
from fractions import Fraction as F

import pytest

from plcircle import (ExoticParams, PLHomeo, RotNumResult, detect_finite_orbit,
                      exotic_element, identity, random_pl, rotation,
                      rotation_number, smooth_group)
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


@pytest.fixture(scope="module")
def exotic_pair():
    return load("exotic_pair")


@pytest.fixture(scope="module")
def cyclic_third():
    return load("cyclic_third")


def test_exotic_pair_multiplies_to_the_identity(exotic_pair):
    # on the exotic circle S_6, x ~ 6x, so multiplying by 2 and then by 3 is 1
    (_, a), (_, b) = exotic_pair.generators
    assert a == exotic_element(ExoticParams(F(6), F(2)))
    assert b == exotic_element(ExoticParams(F(6), F(3)))
    assert word(a, b).is_identity


def test_exotic_pair_smooth_is_truncated(exotic_pair):
    assert smooth_group(exotic_pair).kind == "truncated"


def test_exotic_pair_finite_orbit_search_composes_no_word(exotic_pair, monkeypatch):
    # both rotation numbers are read in closed form, and neither is p/q
    # with q <= max_orbit, so no word is built
    def no_word(self, other):
        raise AssertionError("the search composed a word")

    monkeypatch.setattr(PLHomeo, "compose", no_word)
    assert detect_finite_orbit(exotic_pair, 4) is None


def test_exotic_pair_rotation_numbers(exotic_pair):
    # log 2 / log 6 and log 3 / log 6, which sum to 1
    assert [rotation_number(g) for _, g in exotic_pair.generators] == [
        RotNumResult(lo=F(306, 791), hi=F(53, 137), depth=16),
        RotNumResult(lo=F(84, 137), hi=F(485, 791), depth=16)]


def test_cyclic_third_is_a_hidden_rotation_and_its_square(cyclic_third):
    phi = random_pl(3, 4, 32)
    g = word(phi, rotation(F(1, 3)), phi.inverse())
    assert cyclic_third.generators == (("g", g), ("g2", word(g, g)))


def test_cyclic_third_smooths_to_its_rotations(cyclic_third):
    outcome = smooth_group(cyclic_third)
    assert outcome.kind == "success"
    assert dict(outcome.conjugated) == {"g": rotation(F(1, 3)), "g2": rotation(F(2, 3))}


@pytest.mark.parametrize("max_period", [2, 6])  # 6: the CLI's default
def test_cyclic_third_finite_orbit(cyclic_third, max_period):
    assert detect_finite_orbit(cyclic_third, max_period) == tuple(
        map(reduce_mod1, (0, F(74939, 112437), F(1663, 1911))))


def test_cyclic_third_rotation_numbers(cyclic_third):
    assert [rotation_number(g) for _, g in cyclic_third.generators] == [
        RotNumResult(exact=F(1, 3)), RotNumResult(exact=F(2, 3))]
