import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcircle import (ExoticParams, exotic_element, fixed_points,
                      from_lift_vertices, identity, random_pl, reduce_mod1,
                      rotation, rotation_number, semiconjugacy_table)

STD = from_lift_vertices([(0, 0), (F(1, 2), F(1, 4)), (1, 1)])


def test_fixed_points_identity_full():
    assert fixed_points(identity()).full


def test_fixed_points_rotation_empty():
    assert fixed_points(rotation(F(1, 3))).is_empty


def test_fixed_points_standard():
    fs = fixed_points(STD)
    assert fs.points == (reduce_mod1(0),)
    assert fs.arcs == () and not fs.full


def test_fixed_points_arc():
    # identity on [0, 1/4], a kink in between
    h = from_lift_vertices([(0, 0), (F(1, 4), F(1, 4)), (F(1, 2), F(5, 16)), (1, 1)])
    fs = fixed_points(h)
    assert (reduce_mod1(0), reduce_mod1(F(1, 4))) in fs.arcs


def test_rotation_number_of_rotations():
    for q in range(1, 12):
        for p in range(q):
            if math.gcd(p, q) == 1:
                r = rotation_number(rotation(F(p, q)), max_q=12)
                assert r.is_exact and r.exact == F(p, q)


def test_rotation_number_exotic_half():
    g = exotic_element(ExoticParams(F(4), F(2)))
    assert g.iterate(2) == identity()
    r = rotation_number(g, max_q=4)
    assert r.is_exact and r.exact == F(1, 2)


@given(st.builds(random_pl, seed=st.integers(0, 10**6), k=st.just(3),
                 denom_bound=st.just(16)))
@settings(max_examples=25, deadline=None)
def test_rotation_number_conjugacy_invariance(phi):
    h = phi.compose(rotation(F(1, 3))).compose(phi.inverse())
    r = rotation_number(h, max_q=4)
    assert r.is_exact and r.exact == F(1, 3)


def test_rotation_number_power_identity():
    h = rotation(F(2, 7))
    r1 = rotation_number(h, max_q=8).exact
    r3 = rotation_number(h.iterate(3), max_q=8).exact
    assert r3 == (3 * r1) % 1


def test_rotation_number_zero_iff_fixed_point():
    assert rotation_number(STD, max_q=3).exact == 0
    r = rotation_number(rotation(F(1, 3)), max_q=2, depth=8)
    assert not r.is_exact or r.exact != 0


def test_bracket_refinement():
    # an exotic element with lambda = 2, A = 5 has irrational rotation number
    g = exotic_element(ExoticParams(F(5), F(2)))
    r = rotation_number(g, max_q=8, depth=10)
    assert not r.is_exact
    assert r.lo < r.hi
    # Farey neighbours: hi - lo = 1/(den(lo) * den(hi))
    assert r.hi - r.lo == F(1, r.lo.denominator * r.hi.denominator)
    wider = rotation_number(g, max_q=8, depth=5)
    assert r.hi - r.lo < wider.hi - wider.lo


@pytest.mark.parametrize("A, lam, exact", [
    (6, 2, None), (6, 3, None), (7, 2, None), (10, 3, None),
    (8, 2, F(1, 3)), (9, 3, F(1, 2)),
])
def test_exotic_rotation_number_closed_form(A, lam, exact):
    # rho(exotic(A, lam)) = log lam / log A, so p/q < rho exactly when
    # A^p < lam^q, and rho = p/q exactly when lam^q = A^p: integer tests only
    r = rotation_number(exotic_element(ExoticParams(F(A), F(lam))), depth=16)
    if exact is not None:
        assert r.is_exact and r.exact == exact
        assert lam ** exact.denominator == A ** exact.numerator
        return
    assert not r.is_exact
    a, b = r.lo.numerator, r.lo.denominator
    c, d = r.hi.numerator, r.hi.denominator
    assert A ** a < lam ** b and lam ** d < A ** c
    assert b * c - a * d == 1
    # no p/q with q <= max_q is the rotation number, so a bracket is right
    assert all(lam ** q != A ** p for q in range(1, 33) for p in range(q + 1))


def test_semiconjugacy_rejects_fixed_points():
    with pytest.raises(ValueError):
        semiconjugacy_table(STD, 10, 10)


def test_semiconjugacy_rotation_is_identity():
    n_iter = 89
    table = semiconjugacy_table(rotation(F(34, 89)), 50, n_iter)
    for p, v in table:
        assert abs(v - float(p.value)) <= 1.0 / n_iter + 1.0 / 50
    vals = [v for _, v in table]
    assert vals == sorted(vals)


def test_semiconjugacy_equivariance_residual():
    g = exotic_element(ExoticParams(F(5), F(2)))
    n_iter = 4000
    n_samples = 200
    table = semiconjugacy_table(g, n_samples, n_iter)
    lookup = {p: v for p, v in table}
    rho = rotation_number(g, max_q=8, depth=20)
    rho_mid = float(rho.lo + rho.hi) / 2
    for p, v in table:
        img = g.eval(p)
        # degree-1 interpolation at the nearest sample below the image
        j = int(float(img.value) * n_samples)
        w = lookup[reduce_mod1(F(j, n_samples))]
        residual = (w - v - rho_mid) % 1.0
        residual = min(residual, 1.0 - residual)
        assert residual <= 5 / math.sqrt(n_iter) + 1.0 / n_samples
