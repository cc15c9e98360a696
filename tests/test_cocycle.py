import bisect
import functools
import math
import operator
from fractions import Fraction as F

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from plcircle import (CirclePoint, ExoticParams, FiniteVector, GrowthParams,
                      PLHomeo, affine_apply, breakpoint_growth, exotic_element,
                      fixed_points, from_lift_vertices, growth_params,
                      growth_sequences, identity, jump_cocycle, l2_norm_sq,
                      orbit_norm_seq, random_pl, reduce_mod1, rotation,
                      rotation_number)
from plcircle import circle, cocycle, homeo, rotnum
from plcircle.circle import frac_mod1

STD = from_lift_vertices([(0, 0), (F(1, 2), F(1, 4)), (1, 1)])
# a PL conjugate of R(1/4) whose four breakpoints each map onto the next
CYCLE = PLHomeo([("0/1", "1/8"), ("1/8", "1/2"), ("1/2", "5/8"), ("5/8", "1/1"),
                 ("1/1", "9/8")])

random_maps = st.builds(random_pl,
                        seed=st.integers(0, 10**6),
                        k=st.integers(0, 5),
                        denom_bound=st.just(32))

vec_entries = st.dictionaries(
    st.fractions(min_value=0, max_value=F(31, 32), max_denominator=32).map(reduce_mod1),
    st.fractions(min_value=F(1, 7), max_value=7, max_denominator=24).filter(lambda v: v != 1),
    max_size=4)
vectors = vec_entries.map(FiniteVector.from_dict)


def conjugate(phi, g):
    return phi.compose(g).compose(phi.inverse())


def fixing_zero(h):
    """h followed by the rotation taking h(0) back to 0, so 0 is fixed."""
    return rotation(-h.eval(reduce_mod1(0)).value).compose(h)


# half of the maps fix 0, so growth_params reaches both of its branches
half_fixing_zero = st.tuples(random_maps, st.booleans()).map(
    lambda t: fixing_zero(t[0]) if t[1] else t[0])


@st.composite
def fixed_arc_maps(draw):
    """A map on the grid 1/n that is the identity on the arc [a, b], with
    vertices (c, d), (d, c) or (c, (c + d) / 2), (d, d) beyond it, the last
    a second fixed arc from d on; the shift s may carry an arc past 1."""
    n = draw(st.integers(4, 40))
    a, b, c, d = sorted(draw(st.lists(st.integers(0, n - 1), min_size=4,
                                      max_size=4, unique=True)))
    kinks = draw(st.sampled_from([[(c, d)], [(d, c)], [(c, c + (d - c) // 2), (d, d)]]))
    s = draw(st.integers(0, n - 1))
    return PLHomeo([(F((x + s) % n, n), F((y + s) % n, n))
                    for x, y in [(a, a), (b, b)] + kinks])


# the identity on [3/4, 5/4], contracting on (1/4, 3/4): the fixed arc
# wraps past 1, so the support component's end is no later than its start
WRAPPED_ARC = PLHomeo([(F(1, 4), F(1, 4)), (F(1, 2), F(3, 8)), (F(3, 4), F(3, 4))])


def telescoped_product(h):
    """Independent oracle: multiply D+/D- around the circle."""
    prod = F(1)
    for p in h.breakpoints:
        left, right = h.left_right_slopes(p)
        prod *= right / left
    return prod


def test_jump_cocycle_examples():
    assert jump_cocycle(rotation(F(1, 3))) == FiniteVector.empty()
    jv = jump_cocycle(STD)
    assert dict(jv.entries) == {reduce_mod1(0): F(1, 3), reduce_mod1(F(1, 2)): F(3)}


@given(random_maps)
@settings(max_examples=60, deadline=None)
def test_inverse_cocycle_identity(h):
    hinv = h.inverse()
    jv = jump_cocycle(h)
    assert jv == FiniteVector.from_dict({p: h.jump(p) for p in h.breakpoints})
    jvi = jump_cocycle(hinv)
    for x in {p for p, _ in jvi.entries} | {h.eval(p) for p, _ in jv.entries}:
        assert jvi.value_at(x) == 1 / jv.value_at(hinv.eval(x))


@given(random_maps, random_maps)
@settings(max_examples=60, deadline=None)
def test_chain_rule_exact(g, h):
    gh = g.compose(h)
    jgh = jump_cocycle(gh)
    jg, jh = jump_cocycle(g), jump_cocycle(h)
    candidates = ({p for p, _ in jh.entries + jgh.entries}
                  | {h.eval_inverse(p) for p, _ in jg.entries})
    for x in candidates:
        assert jgh.value_at(x) == jg.value_at(h.eval(x)) * jh.value_at(x)


@given(random_maps)
@settings(max_examples=100, deadline=None)
def test_product_one(h):
    assert jump_cocycle(h).product() == 1
    assert telescoped_product(h) == 1


def test_affine_apply_trivial():
    v = FiniteVector.from_dict({reduce_mod1(F(1, 3)): F(2)})
    assert affine_apply(identity(), v) == v
    assert affine_apply(STD, FiniteVector.empty()) == jump_cocycle(STD.inverse())


@given(random_maps, random_maps, vectors)
@settings(max_examples=60, deadline=None)
def test_affine_homomorphism(g, h, v):
    assert affine_apply(g, affine_apply(h, v)) == affine_apply(g.compose(h), v)


@given(random_maps, vectors, vectors)
@settings(max_examples=60, deadline=None)
def test_affine_isometry(h, u, v):
    before = l2_norm_sq(u.quotient(v))
    after = l2_norm_sq(affine_apply(h, u).quotient(affine_apply(h, v)))
    assert abs(after - before) <= 1e-9 * (1 + before)


def test_l2_norm_examples():
    assert l2_norm_sq(FiniteVector.empty()) == 0
    v = FiniteVector.from_dict({reduce_mod1(0): F(2)})
    assert abs(l2_norm_sq(v) - math.log(2) ** 2) < 1e-12
    w = FiniteVector.from_dict({reduce_mod1(F(1, 2)): F(2)})
    assert l2_norm_sq(v) == l2_norm_sq(w)


def test_finite_vector_prunes_ones():
    v = FiniteVector.from_dict({reduce_mod1(0): F(1), reduce_mod1(F(1, 2)): F(3)})
    assert v.entries == ((reduce_mod1(F(1, 2)), F(3)),)
    with pytest.raises(ValueError):
        FiniteVector(((reduce_mod1(0), F(1)),))


def test_finite_vector_rejects_support_not_strictly_increasing():
    # a repeated point: a dict and value_at would keep one of the two
    # values while product multiplied both
    with pytest.raises(ValueError, match="strictly increasing"):
        FiniteVector(((CirclePoint(F(1, 4)), F(2)), (CirclePoint(F(1, 4)), F(1, 2))))
    with pytest.raises(ValueError, match="strictly increasing"):
        FiniteVector(((CirclePoint(F(1, 2)), F(2)), (CirclePoint(F(1, 4)), F(1, 2))))
    v = FiniteVector(((CirclePoint(F(1, 4)), F(2)), (CirclePoint(F(1, 2)), F(1, 2))))
    assert v == FiniteVector.from_dict(dict(v.entries))


@pytest.mark.parametrize("value", [F(0), F(-1, 2), 0, -3, F(-10 ** 4500)])
def test_finite_vector_rejects_non_positive_values(value):
    # a 4,501-digit value is past the int-to-string limit, and the message
    # quotes only its first 40 characters
    with pytest.raises(ValueError, match="^non-positive value .{1,43} at 1/4$"):
        FiniteVector(((CirclePoint(F(1, 4)), value),))


def composition_growth(f, N):
    """Oracle: breakpoint count of f^n, with f^n built by composition."""
    out = []
    cur = f
    for n in range(N):
        out.append(len(cur.breakpoints))
        if n + 1 < N:
            cur = f.compose(cur)
    return out


def affine_orbit_norms(f, N):
    """Oracle: squared norms of the zero vector moved N times by f."""
    out = []
    v = FiniteVector.empty()
    for _ in range(N):
        v = affine_apply(f, v)
        out.append(l2_norm_sq(v))
    return out


def vertex_slopes(h):
    """The slope of each piece of h, from the differences of its vertices."""
    v = h.verts + ((h.verts[0][0] + 1, h.verts[0][1] + 1),)
    return [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(v, v[1:])]


def oracle_growth_sequences(f, N):
    """growth_sequences over Fractions: the heads advance by lift_eval and
    frac_mod1, and the support is a sorted list of Fractions searched by
    bisect, which compares them by cross-multiplying.  Returns M and the
    norms, then the support after step N."""
    s = vertex_slopes(f)
    jumps = [] if f.is_rotation else [(frac_mod1(y), s[i - 1] / s[i])
                                      for i, (_, y) in enumerate(f.verts)]
    heads = [x for x, _ in jumps]
    weights = [w for _, w in jumps]
    pts, vals, sqs = [], [], []
    M, norms = [], []
    for _ in range(N):
        for i, (x, w) in enumerate(zip(heads, weights)):
            j = bisect.bisect_left(pts, x)
            if j < len(pts) and pts[j] == x:
                v = vals[j] * w
                if v == 1:
                    del pts[j], vals[j], sqs[j]
                else:
                    vals[j] = v
                    sqs[j] = _log(v) ** 2
            else:
                pts.insert(j, x)
                vals.insert(j, w)
                sqs.insert(j, _log(w) ** 2)
            heads[i] = frac_mod1(f.lift_eval(x))
        M.append(len(pts))
        norms.append(functools.reduce(operator.add, sqs, 0))
    return M, norms, pts


def assert_same_sequences(got, want):
    # equal counts, and bit-identical floats (int 0 for an empty support)
    assert got[0] == want[0]
    assert list(map(repr, got[1])) == list(map(repr, want[1]))


def assert_matches_oracles(f, N):
    M, norms = growth_sequences(f, N)
    want = oracle_growth_sequences(f, N)
    assert_same_sequences((M, norms), want)
    assert M == composition_growth(f, N)
    want = affine_orbit_norms(f, N)
    # bit-identical floats, and int 0 for an empty support as l2_norm_sq gives
    assert norms == want
    assert list(map(repr, norms)) == list(map(repr, want))
    assert breakpoint_growth(f, N) == M
    assert orbit_norm_seq(f, N) == norms


@given(random_maps, st.integers(1, 15))
@settings(max_examples=40, deadline=None)
def test_growth_sequences_match_oracles(f, N):
    assert_matches_oracles(f, N)


@pytest.mark.parametrize("f, N", [
    (STD, 60),
    (exotic_element(ExoticParams(F(6), F(2))), 100),
    # heads of period 2 land again and again on points already in the support
    (exotic_element(ExoticParams(F(4), F(2))), 20),
    (rotation(F(3, 8)), 12),
], ids=["std", "exotic_6_2", "exotic_4_2", "rotation"])
def test_growth_sequences_fixed_cases(f, N):
    assert_matches_oracles(f, N)


def test_growth_sequences_rejects_empty_range():
    with pytest.raises(ValueError):
        growth_sequences(STD, 0)


@pytest.mark.parametrize("N", [2.5, True, "3", None])
def test_growth_sequences_rejects_non_int_range(N):
    for fn in (growth_sequences, breakpoint_growth, orbit_norm_seq):
        with pytest.raises(ValueError, match=f"N must be an int, not {N!r}"):
            fn(STD, N)


def test_growth_sequences_match_oracle_on_real_ties():
    # the orbits of this map's four heads converge on attracting fixed
    # points, where they come within 2^-64 of each other
    f = random_pl(5, 4, 32)
    want = oracle_growth_sequences(f, 400)
    support = want[2]
    assert min(b - a for a, b in zip(support, support[1:])) < F(1, 2**64)
    assert_same_sequences(growth_sequences(f, 400), want)


def test_growth_sequences_reduces_no_fraction(monkeypatch):
    # heads are integer pairs stepped by _advance, the support is searched
    # on integer keys, and its values are integer pairs: no lift_eval, no
    # frac_mod1, no Fraction comparison, product or quotient
    maps = [STD, exotic_element(ExoticParams(F(6), F(2))), fixing_zero(random_pl(3, 4, 32)),
            CYCLE]
    want = [oracle_growth_sequences(f, 60) for f in maps]

    def forbidden(*args):
        raise AssertionError("growth_sequences used a Fraction path")

    monkeypatch.setattr(PLHomeo, "lift_eval", forbidden)
    for mod in (circle, homeo, cocycle):
        if hasattr(mod, "frac_mod1"):
            monkeypatch.setattr(mod, "frac_mod1", forbidden)
    for op in ("__lt__", "__le__", "__gt__", "__ge__", "__eq__",
               "__mul__", "__rmul__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(F, op, forbidden)
    for f, w in zip(maps, want):
        assert_same_sequences(growth_sequences(f, 60), w)


# -- one orbit per chain of heads ------------------------------------------
#
# Head i follows the orbit of y_i = f(x_i).  When y_i = x_j mod 1, head j
# is head i one step on, so growth_sequences steps one orbit per chain of
# breakpoints and none for a cycle of them.

chained_maps = st.one_of(
    st.builds(lambda s, k, alpha: conjugate(random_pl(s, k, 32), rotation(alpha)),
              st.integers(0, 10**6), st.integers(2, 6),
              st.fractions(0, 1, max_denominator=12).filter(lambda a: a < 1)),
    st.builds(lambda s, k, g: conjugate(random_pl(s, k, 32), g),
              st.integers(0, 10**6), st.integers(2, 4),
              # lambda = 1 + j/2 in (1, A)
              st.integers(2, 6).flatmap(lambda A: st.integers(1, 2 * A - 3).map(
                  lambda j: exotic_element(ExoticParams(F(A), 1 + F(j, 2)))))))


@given(chained_maps, st.integers(1, 12))
@example(STD, 20)  # a chain of one beside a fixed breakpoint, a cycle of one
@example(CYCLE, 12)
@example(conjugate(random_pl(3, 4, 32), rotation(F(2, 5))), 12)
@settings(max_examples=60, deadline=None)
def test_growth_sequences_match_oracle_on_chains_and_cycles(f, N):
    assert_same_sequences(growth_sequences(f, N), oracle_growth_sequences(f, N))


@pytest.mark.parametrize("f, N, steps", [
    (STD, 60, 59),  # 118 with one orbit per head
    # 198: one chain of two, whose second point is read off its vertices
    (exotic_element(ExoticParams(F(6), F(2))), 100, 99),
    (CYCLE, 50, 0),  # 196: one cycle of four
    (random_pl(5, 4, 32), 60, 236),  # no chain: one orbit per head
], ids=["std", "exotic_6_2", "cycle", "chain_free"])
def test_growth_sequences_step_one_orbit_per_chain(monkeypatch, f, N, steps):
    # a map of its own: the maps above keep the orbits other tests stepped
    f = PLHomeo(f.verts)
    want = oracle_growth_sequences(f, N)
    step, calls = PLHomeo._advance, []

    def counting_step(self, n, d):
        calls.append((n, d))
        return step(self, n, d)

    monkeypatch.setattr(PLHomeo, "_advance", counting_step)
    got = growth_sequences(f, N)
    assert len(calls) == steps
    assert_same_sequences(got, want)


def test_orbit_norms_rotation_zero():
    assert orbit_norm_seq(rotation(F(1, 7)), 10) == [0.0] * 10


def test_breakpoint_growth_rotation():
    assert breakpoint_growth(rotation(F(2, 5)), 10) == [0] * 10


def test_growth_params_standard_example():
    gp = growth_params(STD)
    start, end = gp.component
    assert start == end == reduce_mod1(0)  # the circle punctured at 0
    assert abs(gp.c0 - math.log(F(1, 2))) < 1e-12
    assert abs(gp.c1 - math.log(F(3, 2))) < 1e-12
    assert abs(gp.mu - math.log(3)) < 1e-12
    assert abs(gp.beta - math.log(3)) < 1e-12
    assert not gp.analyzed_inverse


def test_growth_params_expanding_uses_inverse():
    gp_inv = growth_params(STD.inverse())
    assert gp_inv.analyzed_inverse


def test_growth_params_errors():
    with pytest.raises(ValueError):
        growth_params(rotation(F(1, 3)))
    with pytest.raises(ValueError):
        growth_params(identity())


def test_growth_bound_chain():
    gp = growth_params(STD)
    rate = (gp.c1 - gp.c0) / gp.mu
    growth = breakpoint_growth(STD, 40)
    norms = orbit_norm_seq(STD, 40)
    for n, (m, ns) in enumerate(zip(growth, norms), start=1):
        assert m >= n * rate - 1e-12
        assert ns >= m * gp.beta ** 2 - 1e-9
    assert growth == sorted(growth)


def test_exotic_orbit_norms_bounded():
    g = exotic_element(ExoticParams(F(4), F(2)))
    norms = orbit_norm_seq(g, 50)
    assert max(norms) <= 2 * math.log(4) ** 2 + 1e-9
    growth = breakpoint_growth(g, 50)
    assert max(growth) <= 2


# -- oracles that build h^-1 -----------------------------------------------

def oracle_affine_apply(h, v):
    """The action with h^-1 built: v(h^-1(x)) * J(h^-1, x) on every candidate x."""
    hinv = h.inverse()
    jv = jump_cocycle(hinv)
    candidates = {h.eval(p) for p, _ in v.entries}
    candidates.update(p for p, _ in jv.entries)
    d = {x: v.value_at(hinv.eval(x)) * jv.value_at(x) for x in candidates}
    return FiniteVector.from_dict(d)


def _log(q):
    return math.log(q.numerator) - math.log(q.denominator)


def oracle_contracting_component(f):
    """A component (x0, x1) of the open support on which f(y) < y, or None."""
    fs = fixed_points(f)
    if fs.full or (not fs.points and not fs.arcs):
        return None
    comps = [(p.value, p.value) for p in fs.points]
    comps += [(a.value, b.value + (1 if b.value < a.value else 0)) for a, b in fs.arcs]
    comps.sort()
    n = len(comps)
    for i in range(n):
        a = comps[i][1]
        b = comps[(i + 1) % n][0] + (1 if i + 1 == n else 0)
        if b == a:
            continue
        mid = (a + b) / 2
        fm = f.lift_eval(mid)
        fm -= math.floor(fm - a)
        if fm < mid:
            return CirclePoint(a - math.floor(a)), CirclePoint(b - math.floor(b))
    return None


def oracle_growth_params(f):
    """growth_params with f^-1 built and analyzed when f contracts nowhere."""
    if f.is_identity:
        raise ValueError("identity map has no support component")
    fs = fixed_points(f)
    if fs.full:
        raise ValueError("identity map has no support component")
    if not fs.points and not fs.arcs:
        raise ValueError("map has no fixed point")
    analyzed_inverse = False
    g = f
    comp = oracle_contracting_component(g)
    if comp is None:
        g = f.inverse()
        analyzed_inverse = True
        comp = oracle_contracting_component(g)
    if comp is None:
        raise ValueError("no contracting support component found")
    slopes = vertex_slopes(g)
    xs = [x for x, _ in g.verts]
    right_slope_at_x0 = slopes[bisect.bisect_right(xs, comp[0].value) - 1]
    left_slope_at_x1 = slopes[bisect.bisect_left(xs, comp[1].value) - 1]
    superset = {F(1)}
    for p in g.breakpoints:
        superset |= {s * g.jump(p) for s in superset}
    logs = [abs(_log(s)) for s in superset if s != 1]
    if not logs:
        raise ValueError("map has no breakpoints")
    return GrowthParams(
        component=comp,
        c0=_log(right_slope_at_x0),
        c1=_log(left_slope_at_x1),
        mu=max(logs),
        beta=min(logs),
        analyzed_inverse=analyzed_inverse,
    )


def params_outcome(fn, f):
    """The fields of fn(f), floats as bits, or its error message."""
    try:
        gp = fn(f)
    except ValueError as exc:
        return "error", str(exc)
    return (gp.component, gp.c0.hex(), gp.c1.hex(), gp.mu.hex(), gp.beta.hex(),
            gp.analyzed_inverse)


@given(st.one_of(half_fixing_zero, fixed_arc_maps()), vectors)
@example(STD, FiniteVector.empty())
@example(STD.inverse(), FiniteVector.empty())  # the inverse branch
@example(WRAPPED_ARC, FiniteVector.empty())
@example(WRAPPED_ARC.inverse(), FiniteVector.empty())
@settings(max_examples=150, deadline=None)
def test_inverse_read_off_h_matches_oracles(h, v):
    assert affine_apply(h, v) == oracle_affine_apply(h, v)
    assert params_outcome(growth_params, h) == params_outcome(oracle_growth_params, h)


def test_cocycle_builds_no_inverse(monkeypatch):
    # J(h^-1) and the inverse branch of growth_params are read off h, and
    # every cocycle reader takes J from the map's one jump tuple
    std_inv = STD.inverse()  # built before inverse is patched
    v = FiniteVector.from_dict({reduce_mod1(F(1, 3)): F(2), reduce_mod1(F(1, 2)): F(5)})
    want_apply = oracle_affine_apply(STD, v)
    want_params = [params_outcome(oracle_growth_params, f) for f in (STD, std_inv)]
    want_growth = growth_sequences(STD, 12)
    want_jumps = FiniteVector.from_dict({p: STD.jump(p) for p in STD.breakpoints})
    calls = []

    def no_inverse(self):
        raise AssertionError("built an inverse")

    def no_jump(self, p):
        raise AssertionError("called the per-point jump")

    def counted_fixed_points(f):
        calls.append(f)
        return fixed_points(f)

    monkeypatch.setattr(PLHomeo, "inverse", no_inverse)
    monkeypatch.setattr(PLHomeo, "jump", no_jump)
    monkeypatch.setattr(cocycle, "fixed_points", counted_fixed_points)
    assert jump_cocycle(STD) == want_jumps
    assert affine_apply(STD, v) == want_apply
    assert growth_sequences(STD, 12) == want_growth
    for f, want in zip((STD, std_inv), want_params):
        calls.clear()
        assert params_outcome(growth_params, f) == want
        assert calls == [f]
    assert growth_params(std_inv).analyzed_inverse


def test_growth_params_reduces_no_fraction(monkeypatch):
    # the components are ordered on integer keys, each midpoint is one
    # kernel step and one comparison of ints, and the slopes are rows of
    # ints: no lift_eval, no Fraction slope, order, sum, product or floor
    # (equality is no arithmetic: fixed_points sorts its points by it)
    maps = [STD, STD.inverse(), WRAPPED_ARC, WRAPPED_ARC.inverse(),
            fixing_zero(random_pl(3, 4, 32)), fixing_zero(random_pl(8, 6, 64)).inverse()]
    want = [params_outcome(oracle_growth_params, f) for f in maps]

    def forbidden(*args):
        raise AssertionError("growth_params used a Fraction path")

    for name in ("lift_eval", "left_right_slopes"):
        monkeypatch.setattr(PLHomeo, name, forbidden)
    for mod in (circle, homeo, cocycle):
        if hasattr(mod, "frac_mod1"):
            monkeypatch.setattr(mod, "frac_mod1", forbidden)
    for op in ("__lt__", "__le__", "__gt__", "__ge__", "__add__", "__radd__", "__sub__",
               "__rsub__", "__mul__", "__rmul__", "__truediv__", "__rtruediv__",
               "__floordiv__", "__mod__", "__neg__", "__floor__"):
        monkeypatch.setattr(F, op, forbidden)
    for f, w in zip(maps, want):
        assert params_outcome(growth_params, f) == w


# -- readers of one map share its breakpoint orbits ------------------------
#
# rotation_number and growth_sequences read the map's one chain list,
# PLHomeo._chains, which rotnum._head_orbit extends in place, so a call may
# find a head's orbit stepped further than it reads.  Each call must give
# what it gives on a fresh map, whatever ran on the map before it, and a
# call made again steps no breakpoint orbit.

SHARED_MAPS = ([random_pl(s, 1 + s % 6, 32) for s in range(10)]
               + [fixing_zero(random_pl(s, 2 + s % 4, 32)) for s in range(4)]
               + [conjugate(random_pl(s, 3, 32), rotation(F(s + 1, 9))) for s in range(3)]
               + [conjugate(random_pl(1, 2, 16), exotic_element(ExoticParams(F(5), F(2)))),
                  exotic_element(ExoticParams(F(6), F(2))), STD, CYCLE, WRAPPED_ARC])

READERS = {
    "rotation_number": rotation_number,
    "rotation_number_2000": lambda f: rotation_number(f, max_q=2000),
    "growth_40": lambda f: growth_sequences(f, 40),
    "growth_7": lambda f: growth_sequences(f, 7),
    "growth_params": lambda f: params_outcome(growth_params, f),
}


def counted_advance(call, f):
    """call(f) and the pairs of the _advance calls it made."""
    step, calls = PLHomeo._advance, []

    def counting_step(self, n, d):
        calls.append((n, d))
        return step(self, n, d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PLHomeo, "_advance", counting_step)
        return call(f), calls


@pytest.mark.parametrize("h", SHARED_MAPS)
def test_readers_of_one_map_share_its_orbit_prefix(monkeypatch, h):
    # growth_sequences keys exactly the points it reads, however far the
    # orbits run: the number of points each _order_keys call gets is part
    # of a call's result here
    keyed, order_keys = [], cocycle._order_keys
    monkeypatch.setattr(cocycle, "_order_keys",
                        lambda pairs: keyed.append(len(pairs)) or order_keys(pairs))

    def read(name, f):
        keyed.clear()
        return repr(READERS[name](f)), keyed[:]

    names = list(READERS)
    want = {name: read(name, PLHomeo(h.verts)) for name in names}
    orders = [names[i:] + names[:i] for i in range(len(names))] + [names[::-1]]
    for order in orders:
        f = PLHomeo(h.verts)
        for name in order:
            assert read(name, f) == want[name], (order, name)
        # again: growth_sequences steps nothing, and rotation_number steps
        # only the orbit of 0, which it does not keep
        for name in order:
            lengths = [len(pairs) for *_, pairs, _ in f._chains]
            got, calls = counted_advance(lambda f: read(name, f), f)
            assert got == want[name], (order, name)
            assert [len(pairs) for *_, pairs, _ in f._chains] == lengths
            if name.startswith("growth_"):
                assert calls == [] or name == "growth_params"
            elif calls:
                orbit = [(0, 1)]
                while len(orbit) < len(calls):
                    orbit.append(rotnum._lift_iterate(f, orbit[-1], 1))
                assert calls == orbit, name


def oracle_subset_products(values):
    """growth_params' subset products over Fractions, the body they replaced,
    kept here verbatim."""
    prods = {F(1)}
    for v in values:
        prods |= {p * v for p in prods}
        if len(prods) > cocycle._MAX_SUBSET_PRODUCTS:
            raise ValueError(f"more than {cocycle._MAX_SUBSET_PRODUCTS} subset products "
                             "of the jumps")
    return frozenset(prods)


@given(st.builds(lambda s, k: fixing_zero(random_pl(s, k, 32)),
                 st.integers(0, 10**6), st.integers(2, 12)))
@example(STD)
@example(STD.inverse())
@settings(max_examples=60, deadline=None)
def test_growth_params_match_fraction_subset_products(f):
    # the integer pairs are the Fractions' own, so mu and beta, and the
    # whole result, print as they did
    assume(not f.is_identity)
    prods = oracle_subset_products(f._jumps)
    assert cocycle._subset_products(f._jumps) == {(p.numerator, p.denominator)
                                                  for p in prods}
    logs = [abs(_log(p)) for p in prods if p != 1]
    gp = growth_params(f)
    assert repr(gp) == repr(gp._replace(mu=max(logs), beta=min(logs)))


def test_subset_products_stop_at_the_limit(monkeypatch):
    monkeypatch.setattr(cocycle, "_MAX_SUBSET_PRODUCTS", 8)
    assert len(cocycle._subset_products(map(F, [2, 3, 5]))) == 8
    with pytest.raises(ValueError, match="more than 8 subset products"):
        cocycle._subset_products(map(F, [2, 3, 5, 7]))


def test_growth_params_rejects_too_many_subset_products():
    f = fixing_zero(random_pl(3, 22, 512))
    assert len(f.breakpoints) == 22 and not fixed_points(f).is_empty
    with pytest.raises(ValueError, match=f"more than {cocycle._MAX_SUBSET_PRODUCTS} "):
        growth_params(f)
