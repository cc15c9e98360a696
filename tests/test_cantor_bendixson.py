"""Symbolic countable closed sets, their derivatives, and rank computation.

The brute-force oracle works on realized point sets: a point of a finite
realization approximates an accumulation point of the ideal set iff its
nearest-neighbour distance keeps shrinking as the realization depth grows.
The validation oracle realizes every point of a set, as validate_realization
did before it realized only the siblings whose arcs meet.  The rank oracle
iterates cb_derivative, as cb_rank did before it read node heights.
"""

import sys
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from plcircle import (CBRank, Leaf, Limit, SymbolicSet, cb_derivative,
                      cb_rank, nested_limit, realize, reduce_mod1,
                      validate_realization)
from plcircle.cantor_bendixson import MAX_REALIZED_POINTS
from plcircle.io import symbolic_set_from_json, symbolic_set_to_json


def structural_rank(S: SymbolicSet) -> int:
    """Independent rank oracle by structural recursion: leaves count 1, a
    limit node counts one more than its child set."""
    best = 0
    for node in S.nodes:
        if isinstance(node, Leaf):
            best = max(best, 1)
        else:
            best = max(best, 1 + structural_rank(node.child))
    return best


def leaves(*xs):
    return SymbolicSet(tuple(Leaf(reduce_mod1(F(x))) for x in xs))


def test_rank_empty():
    assert cb_rank(SymbolicSet(())).rank == 0


def test_rank_finite():
    r = cb_rank(leaves(F(0), F(1, 3), F(2, 3)))
    assert r.rank == 1 and r.top_finite_set_size == 3


def test_rank_single_limit():
    S = nested_limit(reduce_mod1(F(1, 2)), 1)
    r = cb_rank(S)
    assert r.rank == 2 and r.top_finite_set_size == 1


def test_rank_nested():
    for k in range(1, 6):
        S = nested_limit(reduce_mod1(0), k)
        assert cb_rank(S).rank == k + 1
        assert structural_rank(S) == k + 1


def test_derivative_drops_leaves():
    S = SymbolicSet((Leaf(reduce_mod1(0)),
                     Limit(reduce_mod1(F(1, 2)),
                           SymbolicSet((Leaf(reduce_mod1(0)),)),
                           "left", F(1, 4))))
    D = cb_derivative(S)
    assert len(D.nodes) == 1
    assert isinstance(D.nodes[0], Leaf)
    assert D.nodes[0].point == reduce_mod1(F(1, 2))


def test_derivative_chain_lengths():
    S = nested_limit(reduce_mod1(F(1, 7)), 3)
    r = cb_rank(S)
    assert r.chain == (1, 1, 1, 1, 0)   # S, S', S'', S''', empty
    assert len(r.chain) == r.rank + 1


def test_realization_distinct_and_validates():
    for k in range(1, 5):
        S = nested_limit(reduce_mod1(F(1, 3)), k)
        validate_realization(S)
        pts = realize(S, 3)
        assert len(pts) == len(set(pts))


def _limit_at_one_eighth():
    # apex 1/8, ratio 1/2, right side, child {0}: copy n of the child lies at
    # 1/8 + 2^-(n+1) + 2^-(n+1)/4, so the first at 1/8 + 1/4 + 1/16 = 7/16
    return Limit(reduce_mod1(F(1, 8)), leaves(0), "right", F(1, 2))


@pytest.mark.parametrize("S", [
    pytest.param(leaves(F(1, 2), F(1, 2)), id="equal_leaves"),
    pytest.param(SymbolicSet((Leaf(reduce_mod1(F(1, 8))), _limit_at_one_eighth())),
                 id="leaf_at_apex"),
    pytest.param(SymbolicSet((_limit_at_one_eighth(), Leaf(reduce_mod1(F(7, 16))))),
                 id="leaf_at_first_copy"),
])
def test_validate_rejects_colliding_points(S):
    with pytest.raises(ValueError, match="^realized points collide at depth 3$"):
        validate_realization(S)


@pytest.mark.parametrize("apex, direction, leaf", [
    # ratio 1/2, child {0}: the first copy lies 5/16 from the apex, past 0
    pytest.param(F(15, 16), "right", F(1, 4), id="right_past_one"),
    pytest.param(F(1, 16), "left", F(3, 4), id="left_past_zero"),
])
def test_validate_rejects_collision_across_zero(apex, direction, leaf):
    node = Limit(reduce_mod1(apex), leaves(0), direction, F(1, 2))
    with pytest.raises(ValueError, match="^realized points collide at depth 3$"):
        validate_realization(SymbolicSet((node, Leaf(reduce_mod1(leaf)))))


@pytest.mark.parametrize("ratio", [0.5, "1/2"])
def test_limit_ratio_is_exact(ratio):
    node = Limit(reduce_mod1(F(1, 8)), leaves(0), "right", ratio)
    assert type(node.ratio) is F and node.ratio == F(1, 2)
    assert node == _limit_at_one_eighth()


def test_limit_rejects_ratio_string_out_of_range():
    with pytest.raises(ValueError, match=r"^ratio must lie in \(0, 1\), got 3/2$"):
        Limit(reduce_mod1(0), leaves(0), "right", "3/2")


@pytest.mark.parametrize("k", [10, 11, 12, 100])
def test_validate_nested_limits_realizing_no_point(k):
    # 3^(k+1)/2 points at depth 3, past the cap from k = 11 on, but each node
    # list holds one node, so nothing is realized
    S = nested_limit(reduce_mod1(F(1, 3)), k)
    validate_realization(S)
    assert cb_rank(S).rank == k + 1


def test_validate_rejects_oversized_meeting_siblings():
    # two towers of 10 limits, 88,573 points each, whose arcs meet at 1/64
    S = SymbolicSet(nested_limit(reduce_mod1(0), 10).nodes
                    + nested_limit(reduce_mod1(F(1, 64)), 10).nodes)
    with pytest.raises(ValueError, match=f"^siblings whose arcs meet realize 177146 "
                                         f"points at depth 3, more than the limit of "
                                         f"{MAX_REALIZED_POINTS}$"):
        validate_realization(S)


# ------------------------------------------------ realizing validation oracle

def oracle_validate_realization(S: SymbolicSet) -> None:
    """Count every point at depth 3, refuse past the cap, then realize them
    all and compare: the check as it was before arcs."""
    depth, total = 3, 0

    def count(node) -> int:
        if isinstance(node, Leaf):
            return 1
        per_copy = sum(count(c) for c in node.child.nodes)
        return 1 + depth * per_copy

    for node in S.nodes:
        total += count(node)
    if total > MAX_REALIZED_POINTS:
        raise ValueError(f"set realizes {total} points at depth {depth}, "
                         f"more than the limit of {MAX_REALIZED_POINTS}")
    if len(realize(S, depth)) != total:
        raise ValueError(f"realized points collide at depth {depth}")


# a few 1/64 either side of 0, so that arcs wrap past it
NEAR_ZERO = st.fractions(F(-1, 16), F(1, 16), max_denominator=192).map(reduce_mod1)


@st.composite
def symbolic_sets(draw, levels=3):
    """Lists of up to four siblings at distinct points, both directions,
    ratios up to 9/10, nested up to `levels` deep; a quarter of the lists
    get one more leaf on a point of a sibling's depth-1 realization: an equal
    leaf, its apex or a point of its first copy."""
    nodes = []
    for point in draw(st.lists(NEAR_ZERO, min_size=1, max_size=4, unique=True)):
        if levels > 1 and draw(st.booleans()):
            nodes.append(Limit(point, draw(symbolic_sets(levels - 1)),
                               draw(st.sampled_from(["left", "right"])),
                               draw(st.fractions(F(1, 16), F(9, 10), max_denominator=16))))
        else:
            nodes.append(Leaf(point))
    if draw(st.integers(0, 3)) == 0:
        sibling = SymbolicSet((draw(st.sampled_from(nodes)),))
        point = draw(st.sampled_from(sorted(realize(sibling, 1))))
        nodes.insert(draw(st.integers(0, len(nodes))), Leaf(reduce_mod1(point)))
    return SymbolicSet(tuple(nodes))


def _verdict(check, S):
    try:
        check(S)
    except ValueError as exc:
        return str(exc)
    return None


@given(symbolic_sets())
@settings(max_examples=150, deadline=None)
def test_validate_agrees_with_realizing_oracle(S):
    assert _verdict(validate_realization, S) == _verdict(oracle_validate_realization, S)


# -------------------------------------------------- brute-force rank oracle

def _accumulation_points(S, depth):
    """Points of realize(S, depth) whose nearest-neighbour gap still shrinks
    two levels deeper; isolated points have a stable gap."""
    def gaps(pts):
        vals = sorted(pts)
        out = {}
        n = len(vals)
        for i, v in enumerate(vals):
            lo = abs(v - vals[i - 1]) if i else 1 + vals[0] - vals[-1]
            hi = abs(vals[(i + 1) % n] - v) if i + 1 < n else 1 + vals[0] - vals[-1]
            out[v] = min(lo, hi) if n > 1 else F(1)
        return out
    shallow = gaps(realize(S, depth))
    deep = gaps(realize(S, depth + 2))
    return {v for v in shallow if v in deep and deep[v] < shallow[v]}


def brute_rank(S, depth=4, max_iter=8):
    """Iterate the oracle derivative on realized sets until nothing survives."""
    pts = set(realize(S, depth))
    rank = 0
    while pts:
        rank += 1
        acc = _accumulation_points(S, depth)
        pts = pts & acc
        if not pts:
            break
        # survivors form the realization of the symbolic derivative
        S = cb_derivative(S)
        pts = set(realize(S, depth))
        if rank > max_iter:
            raise AssertionError("oracle failed to terminate")
    return rank


def test_rank_matches_brute_force_nested():
    for k in range(0, 5):
        if k == 0:
            S = leaves(F(1, 2))
        else:
            S = nested_limit(reduce_mod1(F(1, 2)), k)
        assert cb_rank(S).rank == brute_rank(S)


def test_rank_matches_brute_force_mixed():
    S = SymbolicSet((
        Leaf(reduce_mod1(F(1, 8))),
        Limit(reduce_mod1(F(1, 2)), SymbolicSet((Leaf(reduce_mod1(0)),)),
              "left", F(1, 4)),
        Limit(reduce_mod1(F(3, 4)),
              SymbolicSet((Limit(reduce_mod1(0),
                                 SymbolicSet((Leaf(reduce_mod1(0)),)),
                                 "right", F(1, 4)),)),
              "right", F(1, 4)),
    ))
    assert cb_rank(S).rank == 3
    assert cb_rank(S).rank == brute_rank(S)


# ------------------------------------------------ derivative-iterating oracle

def oracle_cb_rank(S: SymbolicSet) -> CBRank:
    """Test oracle: cb_rank as it was before it read heights, iterating
    cb_derivative until the set is empty."""
    cur = S
    last_size = 0
    chain = []
    while cur.nodes:
        chain.append(len(cur.nodes))
        last_size = len({node.point.value if isinstance(node, Leaf) else node.apex.value
                         for node in cur.nodes})
        cur = cb_derivative(cur)
    chain.append(0)
    return CBRank(rank=len(chain) - 1, top_finite_set_size=last_size,
                  chain=tuple(chain))


@given(symbolic_sets(4))
@settings(max_examples=300, deadline=None)
def test_rank_matches_derivative_oracle(S):
    assert cb_rank(S) == oracle_cb_rank(S)


def test_rank_matches_derivative_oracle_on_mixed_heights():
    # top-level nodes of heights 0, 1 and three of 2, two of them at one apex
    # from either side: three nodes at the top, at two points
    p = [reduce_mod1(F(n, 8)) for n in range(8)]
    S = SymbolicSet((Leaf(p[1]), nested_limit(p[2], 1).nodes[0],
                     nested_limit(p[3], 2).nodes[0], nested_limit(p[5], 2).nodes[0],
                     Limit(p[5], nested_limit(p[5], 1), "left", F(1, 4))))
    assert cb_rank(S) == oracle_cb_rank(S) == CBRank(rank=3, top_finite_set_size=2,
                                                     chain=(5, 4, 3, 0))
    assert cb_rank(SymbolicSet(())) == oracle_cb_rank(SymbolicSet(())) == CBRank(0, 0, (0,))


def test_rank_builds_no_limit(monkeypatch):
    # the chain is read off heights: no derivative, so no Limit, is built
    S = nested_limit(reduce_mod1(F(1, 3)), 300)

    def refuse(self):
        raise AssertionError("cb_rank built a Limit")

    monkeypatch.setattr(Limit, "__post_init__", refuse)
    r = cb_rank(S)
    assert (r.rank, r.top_finite_set_size, r.chain) == (301, 1, (1,) * 301 + (0,))


def test_nest_deeper_than_the_recursion_limit_validates_and_ranks():
    # both walks keep their own stack, so the depth is bounded by memory alone
    assert sys.getrecursionlimit() < 2000
    S = nested_limit(reduce_mod1(F(1, 3)), 2000)
    validate_realization(S)
    r = cb_rank(S)
    assert (r.rank, r.top_finite_set_size, r.chain) == (2001, 1, (1,) * 2001 + (0,))


# ---------------------------------------------------------------- json i/o

def test_symbolic_json_roundtrip():
    # a three-fold left-sided tower of ratio 1/3, which nested_limit does not build
    apex = reduce_mod1(F(2, 5))
    S = SymbolicSet((Leaf(apex),))
    for _ in range(3):
        S = SymbolicSet((Limit(apex, S, "left", F(1, 3)),))
    blob = symbolic_set_to_json(S)
    assert symbolic_set_from_json(blob) == S


@given(st.integers(1, 5), st.fractions(min_value=F(0), max_value=F(99, 100)))
@settings(max_examples=30, deadline=None)
def test_structural_equals_iterative_rank(k, apex):
    S = nested_limit(reduce_mod1(apex), k)
    assert structural_rank(S) == cb_rank(S).rank == k + 1
