"""Breakpoint-orbit machinery: commensuration defects, orbit graphs, the
multiplicative coboundary problem over them, conjugator synthesis, and the
full conjugation pipeline turning a group of PL maps into rotations.

The constraint solved over an orbit graph is a_y = J(g, y) * a_{g(y)} for
every generator edge, where J is the derivative jump.  A product-one
solution is realized as the jump vector of a PL conjugator phi, and then
phi g phi^{-1} has no breakpoints, hence is a rotation.
"""
from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass
from fractions import Fraction
from typing import ClassVar, Dict, List, Optional, Tuple, Union

from .circle import CirclePoint, frac_mod1
from .cocycle import FiniteVector
from .homeo import PLHomeo, identity
from .rotnum import fixed_points


@dataclass(frozen=True)
class GroupPresentation:
    """A finite named generating set of PL circle homeomorphisms."""

    generators: Tuple[Tuple[str, PLHomeo], ...]

    def __post_init__(self):
        if not self.generators:
            raise ValueError("presentation needs at least one generator")
        names = [n for n, _ in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")

    @classmethod
    def from_dict(cls, d) -> "GroupPresentation":
        return cls(tuple(d.items()))


def commensuration_defect(g: PLHomeo) -> int:
    """|BP(g)| + |BP(g^{-1})|: the size of the symmetric difference of the
    trivial commensurated section and its translate."""
    return len(g.breakpoints) + len(g.inverse().breakpoints)


@dataclass(frozen=True)
class Edge:
    source: CirclePoint
    gen: str
    sign: int           # +1 for the generator, -1 for its inverse
    target: CirclePoint
    weight: Fraction    # jump of the (signed) generator at the source

    def reverse(self) -> "Edge":
        """The same step walked backwards; its jump is 1/weight (chain rule)."""
        return Edge(self.target, self.gen, -self.sign, self.source, 1 / self.weight)


@dataclass(frozen=True)
class OrbitGraph:
    """Every vertex is expanded: `edges` holds its out-edge for each generator
    and each inverse, so the reverse of every edge is an out-edge of its
    target.  In a truncated graph some edges lead to `escaping` points."""

    vertices: Tuple[CirclePoint, ...]
    edges: Tuple[Edge, ...]
    closed: bool
    seed: Tuple[CirclePoint, ...]
    escaping: Tuple[CirclePoint, ...] = ()


def build_orbit_graph(G: GroupPresentation, max_vertices: int = 4096) -> OrbitGraph:
    """Breadth-first closure of the union of generator breakpoints under all
    generators and inverses, cut off at max_vertices."""
    seed = sorted({p for _, g in G.generators for p in g.breakpoints})
    if max_vertices < len(seed):
        raise ValueError("max_vertices smaller than the seed")
    maps = []
    for name, g in G.generators:
        maps.append((name, 1, g))
        maps.append((name, -1, g.inverse()))
    visited = set(seed)
    order = list(seed)
    queue = deque(seed)
    edges: List[Edge] = []
    escaping = set()
    closed = True
    while queue:
        v = queue.popleft()
        for name, sign, g in maps:
            w = g.eval(v)
            edges.append(Edge(v, name, sign, w, g.jump(v)))
            if w not in visited:
                if len(visited) >= max_vertices:
                    closed = False
                    escaping.add(w)
                else:
                    visited.add(w)
                    order.append(w)
                    queue.append(w)
    return OrbitGraph(tuple(order), tuple(edges), closed, tuple(seed),
                      tuple(sorted(escaping)))


@dataclass(frozen=True)
class Obstruction:
    """An exactly inconsistent cycle: a closed walk, each edge listed in the
    direction it is walked, whose weights multiply to `found`, not 1."""

    kind: ClassVar[str] = "obstruction"
    cycle: Tuple[Edge, ...]
    expected: Fraction
    found: Fraction


@dataclass(frozen=True)
class SynthesisInfeasible:
    """Consistent cocycle, but no rational component rescaling reaches a
    product-one assignment (a component-size-th root would be needed)."""

    kind: ClassVar[str] = "infeasible"
    total_product: Fraction
    component_sizes: Tuple[int, ...]


def _nth_root(q: Fraction, n: int) -> Optional[Fraction]:
    """Exact positive rational n-th root of q, or None."""
    def iroot(m: int) -> Optional[int]:
        if n == 1:
            return m
        r = 1 << -(-m.bit_length() // n)  # upper bound on the root
        while True:
            nr = ((n - 1) * r + m // r ** (n - 1)) // n
            if nr >= r:
                break
            r = nr
        return r if r ** n == m else None
    a = iroot(q.numerator)
    b = iroot(q.denominator)
    if a is None or b is None or a == 0:
        return None
    return Fraction(a, b)


def solve_coboundary(graph: OrbitGraph):
    """Solve a_y = J(g, y) * a_{g(y)} over a closed orbit graph.

    Returns a product-one FiniteVector, an Obstruction carrying an
    inconsistent cycle, or SynthesisInfeasible if no rational rescaling
    can normalize the product.
    """
    if not graph.closed:
        raise ValueError("cannot solve a truncated orbit graph")
    sol = _potentials(graph)
    if isinstance(sol, Obstruction):
        return sol
    a, components = sol
    total = Fraction(1)
    for v in graph.vertices:
        total *= a[v]
    if total != 1:
        # scaling component c by t multiplies the total by t^{|c|}; the
        # reachable correction factors are exactly the g-th powers for
        # g = gcd of the component sizes (Bezout on the exponents)
        sizes = [len(c) for c in components]
        g = 0
        for n in sizes:
            g = math.gcd(g, n)
        t = _nth_root(1 / total, g)
        if t is None:
            return SynthesisInfeasible(total_product=total,
                                       component_sizes=tuple(sizes))
        for comp, c in zip(components, _gcd_coefficients(sizes)):
            if c:
                scale = t ** c
                for v in comp:
                    a[v] *= scale
    return FiniteVector.from_dict(a)


def _gcd_coefficients(sizes: List[int]) -> List[int]:
    """Integers c_i with sum(c_i * sizes[i]) == gcd(sizes)."""
    coeffs = [0] * len(sizes)
    g = 0
    for i, n in enumerate(sizes):
        if g == 0:
            g, coeffs[i] = n, 1
            continue
        gg, x, y = _ext_gcd(g, n)
        for j in range(i):
            coeffs[j] *= x
        coeffs[i] = y
        g = gg
    return coeffs


def _ext_gcd(a: int, b: int):
    if b == 0:
        return a, 1, 0
    g, x, y = _ext_gcd(b, a % b)
    return g, y, x - (a // b) * y


def _potentials(graph: OrbitGraph):
    """One breadth-first pass over out-edges from the first vertex of each
    component, setting a_{g(y)} = a_y / w on tree edges and checking every
    other edge between vertices when it is met.  Returns the Obstruction of
    the first inconsistent edge, or the potentials (1 at each component's
    first vertex) and the components in discovery order."""
    out: Dict[CirclePoint, List[Edge]] = {v: [] for v in graph.vertices}
    for e in graph.edges:
        out[e.source].append(e)
    a: Dict[CirclePoint, Fraction] = {}
    parent: Dict[CirclePoint, Edge] = {}
    components: List[List[CirclePoint]] = []
    for root in graph.vertices:
        if root in a:
            continue
        a[root] = Fraction(1)
        comp = [root]
        for v in comp:  # comp grows in breadth-first order as it is read
            for e in out[v]:
                t = e.target
                if t not in out:
                    continue  # an escaping point of a truncated graph
                if t not in a:
                    a[t] = a[v] / e.weight
                    parent[t] = e
                    comp.append(t)
                elif a[v] != e.weight * a[t]:
                    return Obstruction(cycle=_closed_walk(e, parent),
                                       expected=Fraction(1),
                                       found=e.weight * a[t] / a[v])
        components.append(comp)
    return a, components


def _closed_walk(e: Edge, parent: Dict[CirclePoint, Edge]) -> Tuple[Edge, ...]:
    """The closing edge e, then the tree path up from its target to the
    lowest common ancestor (tree edges reversed), then down to its source."""
    def path_up(v):
        out = []
        while v in parent:
            out.append(parent[v])
            v = parent[v].source
        return out
    up = path_up(e.target)
    down = path_up(e.source)
    while up and down and up[-1] == down[-1]:
        up.pop()
        down.pop()
    return (e, *(t.reverse() for t in up), *reversed(down))


def synthesize_conjugator(a: FiniteVector) -> PLHomeo:
    """The canonical PL map whose jump vector is exactly a.

    Requires the product of values to be 1 (every PL circle homeomorphism
    has jump product 1).  The result fixes the smallest support point.
    """
    if not a.entries:
        return identity()
    if a.product() != 1:
        raise ValueError("assignment product differs from 1; no PL map realizes it")
    pts = [p.value for p, _ in a.entries]
    jumps = [v for _, v in a.entries]
    m = len(pts)
    # cumulative jump products: slope on the arc after pts[i] is sigma * u[i]
    u = []
    cur = Fraction(1)
    for j in jumps:
        cur *= j
        u.append(cur)
    lengths = [pts[i + 1] - pts[i] for i in range(m - 1)] + [pts[0] + 1 - pts[m - 1]]
    sigma = 1 / sum(ui * li for ui, li in zip(u, lengths))
    ys = [pts[0]]
    for i in range(m - 1):
        ys.append(ys[-1] + sigma * u[i] * lengths[i])
    pairs = [(x, frac_mod1(y)) for x, y in zip(pts, ys)]
    return PLHomeo(pairs)


def detect_finite_orbit(G: GroupPresentation, max_period: int,
                        max_orbit: int = 512, max_words: int = 2000
                        ) -> Optional[Tuple[CirclePoint, ...]]:
    """Exact search for a finite orbit of the group.

    Candidate points are fixed points of words of length at most max_period
    in the generators and their inverses; each candidate's orbit is closed
    under the generators up to max_orbit points.  Returns a finite orbit or
    None if nothing is found within the budget.
    """
    if max_period < 1:
        raise ValueError("max_period must be positive")
    maps = []
    for _, g in G.generators:
        maps.append(g)
        maps.append(g.inverse())
    seen = {identity()}
    frontier = [identity()]
    candidates: List[CirclePoint] = []
    identity_word_seen = False
    for _ in range(max_period):
        nxt = []
        for w in frontier:
            for g in maps:
                gw = g.compose(w)
                if gw.is_identity:
                    identity_word_seen = True
                if gw in seen:
                    continue
                seen.add(gw)
                nxt.append(gw)
                fs = fixed_points(gw)
                if fs.full:
                    identity_word_seen = True
                candidates.extend(fs.points)
                for s, t in fs.arcs:
                    candidates.extend((s, t))
            if len(seen) > max_words:
                break
        frontier = nxt
        if not frontier or len(seen) > max_words:
            break
    # a nontrivial word equal to the identity fixes everything; any point
    # is then a candidate for a finite group orbit
    if identity_word_seen:
        candidates.append(CirclePoint(Fraction(0)))
    tried = set()
    for p in candidates:
        if p in tried:
            continue
        tried.add(p)
        orbit = {p}
        queue = deque([p])
        bounded = True
        while queue and bounded:
            v = queue.popleft()
            for g in maps:
                w = g.eval(v)
                if w not in orbit:
                    if len(orbit) >= max_orbit:
                        bounded = False
                        break
                    orbit.add(w)
                    queue.append(w)
        if bounded:
            return tuple(sorted(orbit))
    return None


@dataclass(frozen=True)
class Success:
    """phi conjugates every generator to a rotation, listed by name."""

    kind: ClassVar[str] = "success"
    phi: PLHomeo
    conjugated: Tuple[Tuple[str, PLHomeo], ...]


@dataclass(frozen=True)
class Truncated:
    """The orbit graph reached max_vertices with no inconsistent cycle
    inside; `escaping` are the points it did not take in."""

    kind: ClassVar[str] = "truncated"
    escaping: Tuple[CirclePoint, ...]


def smooth_group(G: GroupPresentation, max_vertices: int = 4096
                 ) -> Union[Success, Obstruction, SynthesisInfeasible, Truncated]:
    """Full pipeline: orbit graph, coboundary solve, conjugator synthesis.

    On success every conjugated generator has an empty breakpoint set, so it
    is structurally a rotation.  A finite orbit is not searched for here; a
    finite orbit and a solvable cocycle can coexist (use detect_finite_orbit
    separately).
    """
    graph = build_orbit_graph(G, max_vertices)
    if not graph.closed:
        # a truncated graph is never solved, but an inconsistent cycle inside
        # the explored part already certifies unsolvability (e.g. a jump at a
        # fixed breakpoint forces a bad self-loop)
        sol = _potentials(graph)
        return sol if isinstance(sol, Obstruction) else Truncated(graph.escaping)
    sol = solve_coboundary(graph)
    if isinstance(sol, (Obstruction, SynthesisInfeasible)):
        return sol
    phi = synthesize_conjugator(sol)
    phi_inv = phi.inverse()
    conjugated = []
    for name, g in G.generators:
        c = phi.compose(g).compose(phi_inv)
        assert not c.breakpoints, (
            "conjugate retains breakpoints after a successful solve; "
            "this indicates a bug in the solver or synthesis")
        conjugated.append((name, c))
    return Success(phi=phi, conjugated=tuple(conjugated))
