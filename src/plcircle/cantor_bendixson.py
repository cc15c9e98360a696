"""Symbolic countable compact subsets of the circle and their
Cantor-Bendixson derivatives and (finite) ranks.

A set is a finite tree: leaves are isolated rational points, limit nodes
are an apex point together with ratio-scaled copies of a child set placed
in nested punctured one-sided neighbourhoods converging to the apex.  Only
finite ranks are representable; transfinite towers are out of scope.

A limit node's copies are injective affine images of its child in three
disjoint ranges of offsets from the apex, so its points are distinct
whenever its child's are: points can only collide between siblings of one
node list.  validate_realization therefore realizes only the siblings whose
arcs meet, and its cost is linear in the tree everywhere else.
"""
from __future__ import annotations

from fractions import Fraction
from itertools import accumulate
from typing import FrozenSet, List, NamedTuple, Set, Tuple, Union

from .circle import CirclePoint, _Frozen, _check_ints, _exact, _order_keys, _quote, frac_mod1

LEFT = "left"
RIGHT = "right"

# validate_realization refuses a group of siblings whose arcs meet when they
# realize more points than this together, since it builds every one of them
# in exact arithmetic; the rest of the tree is never realized
MAX_REALIZED_POINTS = 10 ** 5


class Leaf(NamedTuple):
    point: CirclePoint


class Limit(_Frozen):
    __slots__ = _fields = ("apex", "child", "direction", "ratio")

    def __init__(self, apex: CirclePoint, child: SymbolicSet, direction: str,
                 ratio: Fraction):
        if not isinstance(ratio, Fraction):  # so no float reaches the arcs
            ratio = _exact(Fraction, ratio)
        self._init(apex, child, direction, ratio)

    def __post_init__(self):
        if self.direction not in (LEFT, RIGHT):
            raise ValueError("direction must be 'left' or 'right', "
                             f"got {_quote(self.direction, repr)}")
        if not 0 < self.ratio < 1:
            raise ValueError(f"ratio must lie in (0, 1), got {_quote(self.ratio)}")
        if not self.child.nodes:
            raise ValueError("limit node requires a nonempty child set")


Node = Union[Leaf, Limit]


class SymbolicSet(NamedTuple):
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


def _arcs(node: Node) -> Tuple[Tuple[Fraction, Fraction], ...]:
    """Closed arcs [lo, hi] within [0, 1] holding every realized point of the
    node: a leaf's point, or a limit node's apex and its first copy's reach
    r^2 + 3(r - r^2)/4 on its side, split in two where it passes 0."""
    if isinstance(node, Leaf):
        p = node.point.value
        return ((p, p),)
    r, a = node.ratio, node.apex.value
    reach = r * r + 3 * (r - r * r) / 4
    lo, hi = (a, a + reach) if node.direction == RIGHT else (a - reach, a)
    if 0 <= lo and hi <= 1:
        return ((lo, hi),)
    return ((frac_mod1(lo), 1), (0, frac_mod1(hi)))


def _meeting_groups(nodes: Tuple[Node, ...]) -> List[Set[int]]:
    """The indices of the nodes, grouped by chains of meeting arcs, so two
    nodes whose arcs meet share a group; only groups of two or more.  The
    arcs are swept in the order of their integer keys, not of Fractions."""
    owners, ends = [], []
    for i, node in enumerate(nodes):
        for arc in _arcs(node):
            owners.append(i)
            ends.extend((q.numerator, q.denominator) for q in arc)
    keys = _order_keys(ends)
    groups: List[Set[int]] = []
    end = None
    for lo, hi, i in sorted(zip(keys[::2], keys[1::2], owners)):
        if groups and lo <= end:
            groups[-1].add(i)
            end = max(end, hi)
        else:
            groups.append({i})
            end = hi
    return [group for group in groups if len(group) > 1]


def validate_realization(S: SymbolicSet) -> None:
    """Check that all constituents realize pairwise distinct points at depth
    3 (beyond it, the ratio bounds keep copies disjoint).  Each node list is
    checked after its children's, in one post-order walk with a stack of its
    own, so no nesting depth meets the recursion limit: only its siblings
    whose arcs meet are realized, together, and a group realizing more than
    MAX_REALIZED_POINTS points is rejected unrealized."""
    depth = 3
    stack = [(S.nodes, [])]  # a node list, and the sizes of its nodes so far
    while stack:
        nodes, sizes = stack[-1]
        if len(sizes) < len(nodes):
            node = nodes[len(sizes)]
            if isinstance(node, Leaf):
                sizes.append(1)
            else:
                stack.append((node.child.nodes, []))
            continue
        for group in _meeting_groups(nodes) if len(nodes) > 1 else ():
            total = sum(sizes[i] for i in group)
            if total > MAX_REALIZED_POINTS:
                raise ValueError(f"siblings whose arcs meet realize {total} points at "
                                 f"depth {depth}, more than the limit of "
                                 f"{MAX_REALIZED_POINTS}")
            if len(realize(SymbolicSet(tuple(nodes[i] for i in group)), depth)) != total:
                raise ValueError(f"realized points collide at depth {depth}")
        stack.pop()
        if stack:  # the limit node over this list: its apex and depth copies
            stack[-1][1].append(1 + depth * sum(sizes))


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


class CBRank(NamedTuple):
    rank: int
    top_finite_set_size: int
    chain: Tuple[int, ...]  # node counts of S, S', S'', ..., ending with 0


def _height(node: Node) -> int:
    """The depth of the node's deepest leaf, read off one level walk: as
    every limit node's child is nonempty, this is 0 for a leaf and 1 + the
    greatest height among a limit node's child's nodes."""
    height, level = -1, [node]
    while level:
        height += 1
        level = [n for m in level if isinstance(m, Limit) for n in m.child.nodes]
    return height


def cb_rank(S: SymbolicSet) -> CBRank:
    """The derivative chain read off one walk of the tree, with no derivative
    built: S^(k) has one node for each top-level node of height >= k.

    By induction on the height h: cb_derivative drops a leaf (h = 0) and
    keeps a limit node (h >= 1) over the derivative of its child, whose
    nodes have greatest height h - 1: as a leaf when that derivative is
    empty (h = 1), else as a limit node of height h - 1.  So a node of
    height h keeps one node in S^(k) exactly for k <= h, a leaf at its apex
    or point in S^(h).  The rank is 1 + the greatest height, 0 for the empty
    set, and the top finite set S^(rank - 1) holds the apexes and points of
    the top-level nodes of that height."""
    heights = [_height(node) for node in S.nodes]
    top = max(heights, default=-1)
    counts = [0] * (top + 2)
    for h in heights:
        counts[h] += 1
    chain = list(accumulate(reversed(counts)))[::-1]  # ends with counts[top + 1] = 0
    last = {(node.point if isinstance(node, Leaf) else node.apex).value
            for node, h in zip(S.nodes, heights) if h == top}
    return CBRank(rank=top + 1, top_finite_set_size=len(last), chain=tuple(chain))


def nested_limit(apex: CirclePoint, k: int) -> SymbolicSet:
    """A k-fold nested limit tree of rank k + 1, of ratio 1/4, right-sided."""
    _check_ints(0, k=k)
    S = SymbolicSet((Leaf(apex),))
    for _ in range(k):
        S = SymbolicSet((Limit(apex, S, RIGHT, Fraction(1, 4)),))
    return S
