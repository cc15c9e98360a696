"""Breakpoint-orbit machinery: commensuration defects, the multiplicative
coboundary problem over the orbit graph of the generator breakpoints,
conjugator synthesis, and the conjugation pipeline turning a group of PL
maps into rotations.

The constraint solved over the orbit graph is a_y = J(g, y) * a_{g(y)} for
every generator edge, where J is the derivative jump.  The graph is a flat
table of integer target ids with the few jumps other than 1 beside it; a
reverse step's jump is the forward one's pair swapped.  One pass in
discovery order fills the table and checks each edge as it fills it, in
potential trees merged as a weighted union-find.  The potentials are
interned integer pairs in lowest terms, so only those edges do
arithmetic, in integers, and Fractions are built only for the results.  A
product-one solution is realized as the jump vector of a PL conjugator phi;
by the chain rule phi g phi^{-1} then has no breakpoints, so it is the
rotation by phi(g(y)) - phi(y) for any y.  From the potentials to the
result all stays in integers: phi's vertices and, with y = x_0 the
smallest support point, which phi fixes, every angle phi(g(x_0)) - x_0
come from one set of prefix sums (_conjugator), with no map composed or
evaluated.
"""
from __future__ import annotations

import math
from bisect import bisect_right
from fractions import Fraction
from typing import Dict, List, NamedTuple, Optional, Tuple, Union

from .circle import CirclePoint, _Frozen, _check_ints, _coprime, _order_keys
from .cocycle import FiniteVector
from .homeo import _ONE, PLHomeo, _lowest, identity, rotation
from .rotnum import _log_ratio, fixed_points, rotation_number


class GroupPresentation(_Frozen):
    """A finite named generating set of PL circle homeomorphisms."""

    __slots__ = _fields = ("generators",)

    def __init__(self, generators: Tuple[Tuple[str, PLHomeo], ...]):
        self._init(generators)

    def __post_init__(self):
        if not self.generators:
            raise ValueError("presentation needs at least one generator")
        names = [n for n, _ in self.generators]
        if len(set(names)) != len(names):
            raise ValueError("generator names must be unique")


def commensuration_defect(g: PLHomeo) -> int:
    """|BP(g)| + |BP(g^{-1})|: the size of the symmetric difference of the
    trivial commensurated section and its translate.  BP(g^{-1}) = g(BP(g)),
    so both terms are |BP(g)|."""
    return 2 * len(g.breakpoints)


class Edge(NamedTuple):
    source: CirclePoint
    gen: str
    sign: int           # +1 for the generator, -1 for its inverse
    target: CirclePoint
    weight: Fraction    # jump of the (signed) generator at the source

    def reverse(self) -> "Edge":
        """The same step walked backwards; its jump is 1/weight (chain rule)."""
        return Edge(self.target, self.gen, -self.sign, self.source, 1 / self.weight)


def _signed_generators(G: GroupPresentation) -> List[Tuple[Tuple[str, int], PLHomeo]]:
    """Each generator, labelled (name, 1), then its inverse, (name, -1)."""
    return [((name, sign), g if sign == 1 else g.inverse())
            for name, g in G.generators for sign in (1, -1)]


class _Orbits:
    """An orbit graph explored on demand.  Points get int ids in breadth-first
    discovery order from the sorted seed, whether _solve's pass or expand
    steps the slots, and are held as the (numerator, denominator) pair, in
    lowest terms, that interns them; a point becomes a Fraction, with no
    gcd, only in results.  Ids from max_vertices on are escaping points.
    Edges are one flat table: out[v*K + k] is map k's target at vertex v,
    and `jumps` holds the jumps other than 1 under the same index, each
    read off its map at the breakpoint index the kernel returns.  The maps
    come in (g, g^{-1}) pairs, so a step u -> t of map k fills t's slot
    k ^ 1 with u, jump 1/w by the chain rule, the pair of w swapped: each
    step is evaluated once.  Each map's kernel and jump tuple are bound
    once, in `steps`."""

    def __init__(self, seed, maps, max_vertices: int):
        self.maps, self.max_vertices = maps, max_vertices
        self.steps = [(g._advance, g._jumps) for _, g in maps]
        # a point's first occurrence in the seed gives its id
        self.pts = list(dict.fromkeys(seed))
        self.ids: Dict[Tuple[int, int], int] = {x: v for v, x in enumerate(self.pts)}
        self.out: List[Optional[int]] = [None] * (len(self.pts) * len(maps))
        self.jumps: Dict[int, Fraction] = {}
        self.expanded = 0  # the ids below it have every slot filled
        self.n_seed = len(self.pts)
        if self.n_seed > max_vertices:
            raise ValueError(f"max_vertices {max_vertices} is below the "
                             f"{self.n_seed} distinct generator breakpoints")

    def expand(self, v: int) -> None:
        """Fill the slots of the vertices up to the interned id v, in order."""
        out, jumps, pts, ids, steps = self.out, self.jumps, self.pts, self.ids, self.steps
        K, top = len(steps), self.max_vertices
        for u in range(self.expanded, v + 1):
            n, d = pts[u]
            for k, (step, map_jumps) in enumerate(steps):
                i = u * K + k
                if out[i] is None:
                    n2, d2, j = step(n, d)
                    key = (n2 % d2, d2)
                    t = ids.get(key)
                    if t is None:  # a new point
                        t = ids[key] = len(pts)
                        pts.append(key)
                        out += [None] * K
                    out[i] = t
                    if j >= 0:
                        w = jumps[i] = map_jumps[j]
                    if u < t < top:
                        out[t * K + (k ^ 1)] = u
                        if j >= 0:
                            jumps[t * K + (k ^ 1)] = _coprime(w.denominator, w.numerator)
            self.expanded = u + 1

    def point(self, v: int) -> CirclePoint:
        return CirclePoint(_coprime(*self.pts[v]))

    def in_order(self, ids) -> List[int]:
        """The ids, a list or range, sorted by their points' position in [0, 1)."""
        keys = _order_keys([self.pts[v] for v in ids])
        return [v for _, v in sorted(zip(keys, ids))]

    def edge(self, i: int) -> Edge:
        (gen, sign), _ = self.maps[i % len(self.maps)]
        v, t = i // len(self.maps), self.out[i]
        return Edge(self.point(v), gen, sign, self.point(t), self.jumps.get(i, _ONE))


class Obstruction(NamedTuple):
    """An exactly inconsistent cycle: a closed walk, each edge listed in the
    direction it is walked, whose weights multiply to `found`, not 1."""

    kind = "obstruction"
    expected = Fraction(1)
    cycle: Tuple[Edge, ...]
    found: Fraction


def _iroot(m: int, n: int) -> int:
    """The integer n-th root of m > 0, rounded down.  smooth_group's proof
    shows it exact where _solve takes it, on the numerator and denominator
    of a lowest-terms N-th power; an inexact one would fail _conjugator's
    product check."""
    r = 1 << -(-m.bit_length() // n)  # upper bound on the root
    while (nr := ((n - 1) * r + m // r ** (n - 1)) // n) < r:
        r = nr
    return r


def _scaled(x, p: int, q: int, root: int, interned):
    """The interned potential of root's tree worth x's value times p/q."""
    p, q = x[0] * p, x[1] * q
    g = math.gcd(p, q)
    y = (p // g, q // g, root)
    return interned.setdefault(y, y)


def _solve(o: _Orbits):
    """The one orbit pass, in id (discovery) order: each vertex below the
    budget has its empty slots stepped as _Orbits.expand steps them, and
    each edge, a_{g(y)} = a_y / w, is checked as it is filled, its reverse
    slot with it.  Potentials are a weighted union-find (Tarjan 1975):
    interned (numerator, denominator, root) triples, a value in lowest terms
    and its tree, so a unit edge copies a_y and is checked by identity, and
    only a jump n/d computes, a_y times d/n in two products and one gcd.  A
    vertex with no potential when expanded (only a seed) roots a tree at 1;
    an edge between trees rescales the younger one, of the larger root id,
    into the older one's frame, so each component ends in the frame of its
    smallest id, as the breadth-first sweep leaves it.  An edge
    inconsistent within a tree hands the table to _obstruction, since which
    cycle is met first depends on the order.  Else Truncated, or the
    support ids in circle order, each with its value pair, the product
    brought to 1 by scaling the component of the largest root."""
    out, jumps, pts, ids, steps = o.out, o.jumps, o.pts, o.ids, o.steps
    K, top = len(steps), o.max_vertices
    a, interned = [None] * len(pts), {}  # each vertex's potential; one object per value
    members: Dict[int, List[int]] = {}  # each tree, by its root
    for u, (n, d) in zip(range(top), pts):  # pts grows as it is read
        au = a[u]
        if au is None:  # a seed no earlier vertex reaches
            au = (1, 1, u)
            a[u] = interned[au] = au
            members[u] = [u]
        tree = members[au[2]]
        for k, (step, map_jumps) in enumerate(steps):
            i = u * K + k
            if out[i] is not None:
                continue  # filled, and checked, with its reverse step
            n2, d2, j = step(n, d)
            key = (n2 % d2, d2)
            t = ids.get(key)
            if t is None:  # a new point
                t = ids[key] = len(pts)
                pts.append(key)
                out += [None] * K
                a.append(None)
            out[i] = t
            want = au
            if j >= 0:
                w = jumps[i] = map_jumps[j]
                want = _scaled(au, w.denominator, w.numerator, au[2], interned)
                if u < t < top:
                    jumps[t * K + (k ^ 1)] = _coprime(w.denominator, w.numerator)
            if t >= top:
                continue  # an escaping point
            if u < t:
                out[t * K + (k ^ 1)] = u
            at = a[t]
            if at is None:
                a[t] = want
                tree.append(t)
            elif at is not want:
                if at[2] == au[2]:
                    o.expanded = u
                    return _obstruction(o)
                # t's potential in the older tree (x) and in the younger (y)
                x, y = (want, at) if au[2] < at[2] else (at, want)
                for v in members[y[2]]:
                    a[v] = _scaled(a[v], x[0] * y[1], x[1] * y[0], x[2], interned)
                members[x[2]] += members.pop(y[2])
                au = a[u]
                tree = members[au[2]]
    o.expanded = min(len(pts), top)
    if len(pts) > top:
        return Truncated(tuple(map(o.point, o.in_order(range(top, len(pts))))))
    ys = [y for y in a if y[0] != y[1]]
    p, q = math.prod(y[0] for y in ys), math.prod(y[1] for y in ys)
    if p != q:
        # Every component has the same size N (see smooth_group), and q/p
        # is an N-th power: scaling one component by its root r/s, the
        # roots of q/p's lowest terms, multiplies the product by q/p
        comp = members[max(members)]
        g = math.gcd(p, q)
        r, s = _iroot(q // g, len(comp)), _iroot(p // g, len(comp))
        for v in comp:
            a[v] = _scaled(a[v], r, s, a[v][2], interned)
    return [(v, a[v][:2]) for v in o.in_order([v for v, y in enumerate(a) if y[0] != y[1]])]


def _obstruction(o: _Orbits) -> Obstruction:
    """The breadth-first sweep's certificate for a table _solve found
    inconsistent: from each root in id order, tree edges set a_{g(y)} =
    a_y / w (1 at a root), each vertex expanded, on from where the pass
    stopped, just before its edges are read; the first inconsistent other
    edge closes the cycle."""
    out, jumps, K, top = o.out, o.jumps, len(o.maps), o.max_vertices
    one = (1, 1, 0)
    a, parent, interned = {}, {}, {one: one}  # parent: each tree edge's slot
    for root in range(o.n_seed):  # every vertex is reached from a seed
        if root in a:
            continue
        a[root] = one
        comp = [root]
        for v in comp:  # comp grows in breadth-first order as it is read
            if v >= o.expanded:
                o.expand(v)
            av = a[v]
            for i in range(v * K, v * K + K):
                t = out[i]
                if t >= top:
                    continue  # an escaping point
                want = av
                if i in jumps:
                    w = jumps[i]
                    want = _scaled(av, w.denominator, w.numerator, 0, interned)
                at = a.get(t)
                if at is None:
                    a[t] = want
                    parent[t] = i
                    comp.append(t)
                elif at is not want:
                    return Obstruction(cycle=_closed_walk(o, i, parent),
                                       found=Fraction(at[0] * want[1], at[1] * want[0]))
    raise AssertionError("_solve met an inconsistent edge; the sweep must too")


def _closed_walk(o: _Orbits, i: int, parent) -> Tuple[Edge, ...]:
    """The closing edge in slot i, the tree path up from its target to the
    lowest common ancestor (tree edges reversed), then down to its source."""
    def path_up(u):
        ups = []
        while u in parent:
            ups.append(u)
            u = parent[u] // len(o.maps)
        return ups
    up, down = path_up(o.out[i]), path_up(i // len(o.maps))
    while up and down and up[-1] == down[-1]:
        up.pop()
        down.pop()
    return (o.edge(i), *(o.edge(parent[u]).reverse() for u in up),
            *(o.edge(parent[u]) for u in reversed(down)))


def _conjugator(pts, vals):
    """synthesize_conjugator in integers: pts the support points (n_i, d_i)
    in [0, 1), strictly increasing, and vals their values (p_i, q_i), each
    pair in lowest terms and no value 1.  Returns phi's vertices and
    `angle`, phi(t) - x_0 for t = n / d in [0, 1), read off the same sums.

    L is the lcm of the d_i, X_i = x_i L and D_i = X_{i+1} - X_i, closing
    at X_0 + L.  The cumulative products (p_i, q_i) of the values, each in
    lowest terms, are u_i = U_i / Q over one denominator Q, U_i = p_i Q /
    q_i, and the slope after x_i is proportional to u_i.  With N_i = sum_{l
    < i} U_l D_l and T = N_m, phi lifts [x_0, x_0 + 1) onto itself, fixes
    x_0 and sends u on piece i to x_0 + (N_i + U_i (u L - X_i)) / (L T):
    vertex x_i goes to Y_i / (L T), Y_i = X_0 T + N_i L, put in lowest
    terms by one gcd.  No value is 1, so every x_i is a true breakpoint
    and the vertices are already canonical."""
    L = math.lcm(*(d for _, d in pts))
    X = [n * (L // d) for n, d in pts]
    D = [b - a for a, b in zip(X, X[1:] + [X[0] + L])]
    us = []
    p = q = 1
    for vp, vq in vals:
        p, q = p * vp, q * vq
        g = math.gcd(p, q)
        p, q = p // g, q // g
        us.append((p, q))
    if p != q:
        raise ValueError("assignment product differs from 1; no PL map realizes it")
    Q = math.lcm(*(q for _, q in us))
    U = [p * (Q // q) for p, q in us]
    N = [0]
    for u, dx in zip(U, D):
        N.append(N[-1] + u * dx)
    T = N.pop()
    LT = L * T
    verts = tuple((_coprime(n, d), _coprime(*_lowest(X[0] * T + s * L, LT)))
                  for (n, d), s in zip(pts, N))

    def angle(n, d):
        # t = n / d lifted into [x_0, x_0 + 1), on the grid: t L = nL / d
        nL = n * L
        if nL < X[0] * d:
            nL += d * L
        i = bisect_right(X, nL // d) - 1
        return _coprime(*_lowest(N[i] * d + U[i] * (nL - X[i] * d), T * d))

    return verts, angle


def synthesize_conjugator(a: FiniteVector) -> PLHomeo:
    """The canonical PL map whose jump vector is exactly a.

    Requires the support points strictly increasing and the product of
    values to be 1 (every PL circle homeomorphism has jump product 1).  The
    result fixes the smallest support point x_0.  Its vertices come from
    the integer core _conjugator, on the lowest-terms pairs of a's points
    and values; it has no table until it is first evaluated
    (PLHomeo._table)."""
    if not a.entries:
        return identity()
    verts, _ = _conjugator([(p.value.numerator, p.value.denominator) for p, _ in a.entries],
                           [(v.numerator, v.denominator) for _, v in a.entries])
    return PLHomeo._of_canonical(verts)


def _word_candidates(signed, max_period: int, max_words: int = 2000):
    """Fixed points of each new word of length <= max_period, in word order;
    then 0 if some word is the identity, as 0 stands for its fixed points.

    Only reduced words are composed: the empty word is None and matches no
    letter, a word of length 1 is the generator itself, and a letter
    followed by its own inverse (slot k ^ 1 of the word's first letter k)
    is skipped, as it equals the word's tail, which is already seen.  Each
    new word is hashed once, by the ints of its vertex pairs (PLHomeo's
    hash), and its fixed points are solved on integer gaps (fixed_points).
    The identity is seen from the start, so some word is the identity
    exactly when a generator is, or when the search reaches length 2, where
    g^-1 g is skipped."""
    seen = {identity()}
    frontier = [(None, -2)]  # (word, slot of its first letter)
    for length in range(max_period):  # the length of the words in frontier
        nxt = []
        for w, first in frontier:
            for k, (_, g) in enumerate(signed):
                if k == first ^ 1:
                    continue
                gw = g if w is None else g.compose(w)
                size = len(seen)
                seen.add(gw)
                if len(seen) == size:
                    continue
                nxt.append((gw, k))
                fs = fixed_points(gw)
                yield from fs.points
                yield from (p for arc in fs.arcs for p in arc)
            if len(seen) > max_words:
                break
        frontier = nxt
        if not frontier or len(seen) > max_words:
            break
    if length or any(g.is_identity for _, g in signed):
        yield CirclePoint(Fraction(0))


def detect_finite_orbit(G: GroupPresentation, max_period: int,
                        max_orbit: int = 512
                        ) -> Optional[Tuple[CirclePoint, ...]]:
    """Exact search for a finite orbit of the group.

    Candidates are the fixed points of words of length <= max_period in the
    generators and their inverses, tried in word order as each word is found,
    with 0 last when a word is the identity.  The trivial word g^-1 g is, so
    every search that reaches length 2 tries 0 last, whatever the group.
    Only reduced words are composed, each new word is hashed once, by its
    integer pairs, and the words stop past 2000.  Each candidate's orbit is
    closed under the generators up to max_orbit points; the first that
    closes is returned, or None if none closes within the budget.

    A finite orbit is a union of periodic orbits of each generator, of q
    points each when its rotation number is p/q in lowest terms.  So when a
    generator's rotation number is read with no orbit (a rotation, or a map
    in rotnum._log_ratio's class, such as an exotic element) and is no p/q
    with q <= max_orbit, there is none within the budget, and no word is
    composed.
    """
    _check_ints(1, max_period=max_period, max_orbit=max_orbit)
    for _, g in G.generators:
        if g.is_rotation or _log_ratio(g) is not None:
            rho = rotation_number(g, max_q=max_orbit, depth=1)
            if not rho.is_exact or rho.exact.denominator > max_orbit:
                return None
    signed = _signed_generators(G)
    # keys of the points of closures that passed max_orbit, tried candidates
    # included: closing any of them again cannot succeed
    cut_off = set()
    for p in _word_candidates(signed, max_period):
        key = (p.value.numerator, p.value.denominator)
        if key in cut_off:
            continue
        o = _Orbits([key], signed, max_orbit)
        while o.expanded < len(o.pts) <= max_orbit:
            o.expand(o.expanded)
        if len(o.pts) <= max_orbit:
            return tuple(map(o.point, o.in_order(range(len(o.pts)))))
        cut_off.update(o.ids)
    return None


class Success(NamedTuple):
    """phi conjugates every generator to a rotation, listed by name."""

    kind = "success"
    phi: PLHomeo
    conjugated: Tuple[Tuple[str, PLHomeo], ...]


class Truncated(NamedTuple):
    """The orbit graph reached max_vertices with no inconsistent cycle
    inside; `escaping` are the points it did not take in."""

    kind = "truncated"
    escaping: Tuple[CirclePoint, ...]


def smooth_group(G: GroupPresentation, max_vertices: int = 4096
                 ) -> Union[Success, Obstruction, Truncated]:
    """Full pipeline: orbit graph, coboundary solve, conjugator synthesis.

    One pass in discovery order (_solve) evaluates and checks each edge
    once and stops at the first inconsistent one; the breadth-first sweep
    then reports its cycle, which certifies unsolvability even in a
    truncated graph.  Finite orbits are not searched for (see
    detect_finite_orbit).

    On success phi and each conjugate come from the potentials in integers
    (_conjugator), with no composition and no evaluation.  Let V
    be the closed vertex set and a the product-one solution, supported in V;
    phi = synthesize_conjugator(a) has jump vector exactly a (criterion 09).
    For every generator g and every x, by the chain rule,
        J(phi g phi^{-1}, phi(x)) = J(phi, g(x)) * J(g, x) / J(phi, x).
    V holds BP(g) and is closed under g and g^{-1}.  For x in V the right
    side is a(g(x)) * J(g, x) / a(x) = 1: the pass checks every edge as it
    fills it, and rescaling a tree or a component by a constant keeps the
    edges inside it.  For x off V, g(x) is off V too and every factor
    is 1.  So phi g phi^{-1} has no breakpoint: it is the rotation by
    phi(g(y)) - phi(y), for any y.  Take y = x_0, the smallest support
    point: phi fixes it, and g(x_0) is x_0's target in g's slot of the
    orbit table, so the angle is phi(g(x_0)) - x_0, read off the sums phi
    was built from.  (With no support every generator is a rotation, and
    phi is the identity.)

    The product-one rescale needs no other outcome.  Let the pass close
    with no inconsistent edge, so a_y = J(g, y) a_{g(y)} on every edge.
    Each w in G permutes the finite set V, so some power w^n fixes V
    pointwise.  BP(w^n) lies in V, and telescoping along w^n gives
    J(w^n, y) = a_y / a_{w^n(y)} = 1 there: w^n has no breakpoint and
    a fixed point, so it is the identity.  (V is empty only when every
    generator is a rotation, and then nothing is rescaled.)  A nontrivial
    circle homeomorphism of finite order has no fixed point, so G acts
    freely; with a finite orbit, G is finite of order N and every orbit
    has N points.  Each component of the pass is one G-orbit, so all have
    size N.  A finite group acting freely on the circle is cyclic (Ghys,
    "Groups acting on the circle", 2001).  If h generates it and its lift
    has H^N = id + k, then psi(x) = (1/N) sum_{i<N} (H^i(x) - i k / N) is
    PL with rational data and conjugates G into rotations.  By the chain
    rule its jump vector b solves the same equations: b = t_c a on each
    component c, with t_c rational, and b is a constant b_O on each G-orbit
    O off V.  With P the product of a, 1 = prod b = P (prod_c t_c
    prod_O b_O)^N, so 1/P is the N-th power of a rational."""
    _check_ints(0, max_vertices=max_vertices)
    # every generator's breakpoints as int pairs, put in circle order by key
    bps = [(x.numerator, x.denominator) for _, g in G.generators
           if len(g.verts) > 1 for x, _ in g.verts]
    o = _Orbits([x for _, x in sorted(zip(_order_keys(bps), bps))],
                _signed_generators(G), max_vertices)
    sol = _solve(o)
    if not isinstance(sol, list):
        return sol
    if not sol:  # every generator is a rotation
        return Success(phi=identity(), conjugated=G.generators)
    verts, angle = _conjugator([o.pts[v] for v, _ in sol], [y for _, y in sol])
    x0 = sol[0][0] * len(o.maps)  # the slots of x_0; generator k's is x0 + 2k
    return Success(phi=PLHomeo._of_canonical(verts), conjugated=tuple(
        (name, rotation(angle(*o.pts[o.out[x0 + 2 * k]])))
        for k, (name, _) in enumerate(G.generators)))
