"""Symbolic countable compact subsets of the circle and their
Cantor-Bendixson derivatives and (finite) ranks.

A set is a finite tree: leaves are isolated rational points, limit nodes
are an apex point together with ratio-scaled copies of a child set placed
in nested punctured one-sided neighbourhoods converging to the apex.  Only
finite ranks are representable; transfinite towers are out of scope.
"""
from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import FrozenSet, List, Tuple, Union

from .circle import CirclePoint, _check_ints, _quote, frac_mod1

LEFT = "left"
RIGHT = "right"

# validate_realization refuses sets with more realized points than this,
# since it builds every one of them in exact arithmetic
MAX_REALIZED_POINTS = 10 ** 5


@dataclass(frozen=True)
class Leaf:
    point: CirclePoint


@dataclass(frozen=True)
class Limit:
    apex: CirclePoint
    child: "SymbolicSet"
    direction: str
    ratio: Fraction

    def __post_init__(self):
        if self.direction not in (LEFT, RIGHT):
            raise ValueError("direction must be 'left' or 'right', "
                             f"got {_quote(self.direction, repr)}")
        if not 0 < self.ratio < 1:
            raise ValueError(f"ratio must lie in (0, 1), got {_quote(self.ratio)}")
        if not self.child.nodes:
            raise ValueError("limit node requires a nonempty child set")


Node = Union[Leaf, Limit]


@dataclass(frozen=True)
class SymbolicSet:
    nodes: Tuple[Node, ...]


def realize(S: SymbolicSet, depth: int) -> FrozenSet[Fraction]:
    """Realized points at finite depth: each limit node contributes its apex
    and `depth` scaled copies of its child, each placed in the middle half
    of the slot (ratio^{n+1}, ratio^n] on the chosen side of the apex."""
    _check_ints(0, depth=depth)
    pts = set()
    for node in S.nodes:
        if isinstance(node, Leaf):
            pts.add(node.point.value)
        else:
            pts.add(node.apex.value)
            child_pts = realize(node.child, depth)
            r = node.ratio
            sign = 1 if node.direction == RIGHT else -1
            for n in range(1, depth + 1):
                low = r ** (n + 1)
                width = r ** n - low
                for t in child_pts:
                    off = low + width * (1 + 2 * t) / 4
                    pts.add(frac_mod1(node.apex.value + sign * off))
    return frozenset(pts)


def validate_realization(S: SymbolicSet) -> None:
    """Check that all constituents realize pairwise distinct points at depth
    3 (beyond it, the ratio bounds keep copies disjoint).  Sets realizing
    more than MAX_REALIZED_POINTS points are rejected unrealized."""
    depth, total = 3, 0

    def count(node: Node) -> int:
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


def cb_derivative(S: SymbolicSet) -> SymbolicSet:
    """Accumulation points: leaves are dropped, limit nodes keep their apex
    over the derived child (collapsing to a leaf when the child derives to
    the empty set)."""
    nodes: List[Node] = []
    for node in S.nodes:
        if isinstance(node, Leaf):
            continue
        child = cb_derivative(node.child)
        if not child.nodes:
            nodes.append(Leaf(node.apex))
        else:
            nodes.append(Limit(node.apex, child, node.direction, node.ratio))
    return SymbolicSet(tuple(nodes))


@dataclass(frozen=True)
class CBRank:
    rank: int
    top_finite_set_size: int
    chain: Tuple[int, ...]  # node counts of S, S', S'', ..., ending with 0


def cb_rank(S: SymbolicSet) -> CBRank:
    """Iterate the derivative until empty; the rank is the iteration count
    and the last nonempty derivative is a finite set whose size is reported."""
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


def nested_limit(apex: CirclePoint, k: int) -> SymbolicSet:
    """A k-fold nested limit tree of rank k + 1, of ratio 1/4, right-sided."""
    _check_ints(0, k=k)
    S = SymbolicSet((Leaf(apex),))
    for _ in range(k):
        S = SymbolicSet((Limit(apex, S, RIGHT, Fraction(1, 4)),))
    return S
