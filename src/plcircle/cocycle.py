"""Derivative-jump cocycle, the induced affine isometric action on finitely
supported vectors, and breakpoint-growth / orbit-norm experiments.

Jumps are stored multiplicatively as exact positive rationals; logarithms
enter only when a norm is computed.  The additive coordinate of a vector
at x is log of the stored value, so the zero vector is the empty map.

growth_sequences follows the orbit of the zero vector in integers: its
heads read breakpoint orbits off the map's one chain list (PLHomeo._chains,
extended in place by rotnum._head_orbit, so a later call, or
rotation_number, on the same map steps none of them again), its support is
searched by bisect on the exact integer keys of circle._order_keys, and its
values are lowest-terms pairs.  growth_params also runs in integers: its
fixed components are ordered by their keys, each support arc is tested at
its midpoint by one kernel step, and its constants are logs of ints.  Only
the norms and the constants leave the integers.
"""
from __future__ import annotations

import functools
import math
import operator
from bisect import bisect_left
from fractions import Fraction
from math import gcd, log
from typing import Dict, List, NamedTuple, Tuple

from .circle import CirclePoint, _Frozen, _check_ints, _coprime, _order_keys, _quote
from .homeo import PLHomeo
from .rotnum import _head_orbit, fixed_points


class FiniteVector(_Frozen):
    """Positive rationals at strictly increasing CirclePoints, value 1 pruned."""

    __slots__ = _fields = ("entries",)

    def __init__(self, entries: Tuple[Tuple[CirclePoint, Fraction], ...]):
        self._init(entries)

    def __post_init__(self):
        # compared in integers: Fraction's comparisons would double the cost
        for p, v in self.entries:
            if v.numerator <= 0:
                raise ValueError(f"non-positive value {_quote(v)} at {_quote(p.value)}")
            if v.numerator == v.denominator:
                raise ValueError(f"trivial value 1 stored at {_quote(p.value)}")
        for (p, _), (q, _) in zip(self.entries, self.entries[1:]):
            a, b = p.value, q.value
            if a.numerator * b.denominator >= b.numerator * a.denominator:
                raise ValueError("support points are not strictly increasing "
                                 f"at {_quote(b)}")

    @classmethod
    def from_dict(cls, d: Dict[CirclePoint, Fraction]) -> "FiniteVector":
        return cls(tuple(sorted(((p, Fraction(v)) for p, v in d.items() if v != 1),
                                key=lambda e: e[0].value)))

    @classmethod
    def empty(cls) -> "FiniteVector":
        return cls(())

    def value_at(self, p: CirclePoint) -> Fraction:
        return next((v for q, v in self.entries if q == p), Fraction(1))

    def quotient(self, other: "FiniteVector") -> "FiniteVector":
        """Pointwise multiplicative quotient self / other (additive difference)."""
        d = dict(self.entries)
        for p, v in other.entries:
            d[p] = d.get(p, Fraction(1)) / v
        return FiniteVector.from_dict(d)

    def product(self) -> Fraction:
        return math.prod((v for _, v in self.entries), start=Fraction(1))


def jump_cocycle(h: PLHomeo) -> FiniteVector:
    """Jump vector of h: support BP(h), value D+h(x)/D-h(x).  Its values
    multiply to 1 by telescoping of the one-sided slopes around the circle."""
    return FiniteVector(tuple(zip(h.breakpoints, h._jumps)))


def affine_apply(h: PLHomeo, v: FiniteVector) -> FiniteVector:
    """Affine isometric action: new value at x is v(h^{-1}(x)) * jump(h^{-1}, x).
    So v(p) moves to h(p), and 1/J(h, b) multiplies into h(b) for b in BP(h)."""
    d = {h.eval(p): w for p, w in v.entries}
    for (_, _, r, t), j in zip(h._quads, h._jumps):
        x = CirclePoint(_coprime(r % t, t))
        d[x] = d.get(x, 1) / j
    return FiniteVector.from_dict(d)


def _log(q: Fraction) -> float:
    return log(q.numerator) - log(q.denominator)


def l2_norm_sq(v: FiniteVector) -> float:
    """Squared l2 norm of the additive coordinates: sum of (log value)^2,
    added left to right (from 3.12 on, sum() compensates float sums)."""
    return functools.reduce(operator.add, (_log(val) ** 2 for _, val in v.entries), 0)


def growth_sequences(f: PLHomeo, N: int) -> Tuple[List[int], List[float]]:
    """Breakpoint counts M_n of f^n and squared orbit norms ||rho(f^n) 0||^2
    for n = 1..N, in one exact incremental pass.

    rho(f^n) 0 = J(f^-n) = rho(f^(n-1)) 0 * (f^(n-1))_* J(f^-1), so step n
    multiplies the jump of f^-1 at each y_i = f(x_i), read off f, into the
    point f^(n-1)(y_i).  A canonical map's breakpoints are the support of
    its jump vector, and |supp J(f^n)| = |supp J(f^-n)|, so M_n is the
    support size.  These k heads read one orbit per chain of l breakpoints,
    points 1..c of it, c = l for a cycle and N + l - 1 otherwise, 1..l off
    the vertices (PLHomeo._chains), the rest stepped (rotnum._head_orbit)
    unless an earlier reader of f stepped them: member s is at point (s + t)
    mod c after t steps.  Exactly c points are read, as the shared orbit may
    run further.  Heads sit on distinct points at every t, so their order
    is free.

    The pass runs in integers.  The orbit points, lowest-terms pairs (n, d)
    with 0 <= n < d, are keyed together by _order_keys, so each point has
    one exact int key.  The support is a list of those keys in ascending
    order, aligned with lists of the values, lowest-terms pairs, and their
    squared logs, and a point is found by one bisect on its key.  A weight
    1/J(f, x_i) is the pair (J.denominator, J.numerator), so a hit costs two
    products and a gcd, a value of 1 is n == d, and a log reads the ints a
    Fraction would hold.  Each norm is summed left to right over ascending
    points, exactly as l2_norm_sq does."""
    _check_ints(1, N=N)
    pts, heads = [], []
    for chain in f._chains:
        members, cycle = chain[:2]
        b, c = len(pts), len(members) if cycle else N + len(members) - 1
        pts += _head_orbit(f, chain, c)[0][1:c + 1]
        for s, i in enumerate(members):
            # J(f^-1, y_i) = 1/J(f, x_i) in lowest terms, and its squared log
            J = f._jumps[i]
            n, d = J.denominator, J.numerator
            heads.append((b, s, c, n, d, (log(n) - log(d)) ** 2))
    keys = _order_keys(pts)
    support, vals, sqs = [], [], []  # ascending keys, values, squared logs
    M, norms = [], []
    for t in range(N):
        for b, s, c, wn, wd, wsq in heads:
            key = keys[b + (s + t) % c]
            j = bisect_left(support, key)
            if j < len(support) and support[j] == key:
                n, d = vals[j]
                n, d = n * wn, d * wd
                if n == d:
                    del support[j], vals[j], sqs[j]
                else:
                    g = gcd(n, d)
                    n, d = n // g, d // g
                    vals[j] = n, d
                    sqs[j] = (log(n) - log(d)) ** 2
            else:
                support.insert(j, key)
                vals.insert(j, (wn, wd))
                sqs.insert(j, wsq)
        M.append(len(support))
        norms.append(functools.reduce(operator.add, sqs, 0))
    return M, norms


def orbit_norm_seq(f: PLHomeo, N: int) -> List[float]:
    """Entry n-1 is ||rho(f^n) 0||^2; see growth_sequences."""
    return growth_sequences(f, N)[1]


def breakpoint_growth(f: PLHomeo, N: int) -> List[int]:
    """Entry n-1 is the breakpoint count of the canonical form of f^n."""
    return growth_sequences(f, N)[0]


class GrowthParams(NamedTuple):
    """Constants controlling the linear breakpoint-growth lower bound
    for a map contracting on a component of its open support."""

    # open arc (start, end); start == end is the circle punctured at start
    component: Tuple[CirclePoint, CirclePoint]
    c0: float                      # log of the right slope at the left endpoint
    c1: float                      # log of the left slope at the right endpoint
    mu: float                      # max |log s| over subset products s != 1
    beta: float                    # min |log s| over subset products s != 1
    analyzed_inverse: bool         # True if the bound was derived from f^{-1}


# Cap on the subset products: their number doubles with each breakpoint,
# and 2^15 of them keep growth_params under a second.
_MAX_SUBSET_PRODUCTS = 1 << 15


def _subset_products(values) -> set:
    """The distinct products of the subsets of the positive rationals
    `values`, as lowest-terms pairs (n, d)."""
    prods = {(1, 1)}
    for v in values:
        a, b = v.numerator, v.denominator
        new = set()
        for n, d in prods:
            n, d = n * a, d * b
            g = gcd(n, d)
            new.add((n // g, d // g))
        prods |= new
        if len(prods) > _MAX_SUBSET_PRODUCTS:
            raise ValueError(f"more than {_MAX_SUBSET_PRODUCTS} subset products "
                             "of the jumps")
    return prods


def growth_params(f: PLHomeo) -> GrowthParams:
    """Derive the growth constants from the first component of the open
    support on which f contracts, or else on which f^{-1} does; requires a
    fixed point and f != identity.  f^{-1} is read off f: it has f's fixed
    set, contracts where f expands, has the reciprocal one-sided slopes at a
    fixed point, and has f's subset products, which are closed under
    reciprocals because all jumps multiply to 1.

    It runs on ints.  The closed fixed components are put in cyclic order by
    the _order_keys of their ends, and the open support components (a, b)
    lie between them, from each end to the next start, none empty as the
    components are maximal, b lifted by 1 when it is not past a (the last
    one, or the circle punctured at a point).  f
    maps (a, b) to itself, so it contracts there exactly when F(m) moved
    into [a, a + 1) by an integer lies below the midpoint m: one _advance
    and one comparison of ints.  c0 and c1 are the logs of the one-sided
    slopes alpha_i / gamma_i of _table's rows, each reduced by one gcd as a
    Fraction holds it, so each float is the one _log gives."""
    if f.is_identity:
        raise ValueError("identity map has no support component")
    fs = fixed_points(f)
    if fs.is_empty:
        raise ValueError("map has no fixed point")
    ends = [(p, p) for p in fs.points] + list(fs.arcs)
    keys = _order_keys([(x.value.numerator, x.value.denominator) for e in ends for x in e])
    comps = sorted(zip(keys[::2], keys[1::2], ends), key=operator.itemgetter(0))
    support = [(a, b, kb <= ka) for (_, ka, (_, a)), (kb, _, (b, _))
               in zip(comps, comps[1:] + comps[:1])]
    for a, b, wrap in support:
        an, ad = a.value.numerator, a.value.denominator
        bn, bd = b.value.numerator, b.value.denominator
        if wrap:
            bn += bd
        n, d = an * bd + bn * ad, 2 * ad * bd
        g = gcd(n, d)
        n, d = n // g, d // g  # the midpoint, in lowest terms
        p, q, _ = f._advance(n, d)
        k = (p * ad - an * q) // (q * ad)  # floor(F(m) - a)
        if (p - k * q) * d < n * q:
            analyzed_inverse = False
            break
    else:
        (a, b, _), analyzed_inverse = support[0], True
    (a0, _, e0), (a1, _, e1) = f._rows_at(a)[1], f._rows_at(b)[0]
    g0, g1 = gcd(a0, e0), gcd(a1, e1)
    c0 = log(a0 // g0) - log(e0 // g0)  # log of the right slope at a
    c1 = log(a1 // g1) - log(e1 // g1)  # log of the left slope at b
    if analyzed_inverse:
        c0, c1 = -c0, -c1
    logs = [abs(log(n) - log(d)) for n, d in _subset_products(f._jumps) if n != d]
    return GrowthParams((a, b), c0, c1, max(logs), min(logs), analyzed_inverse)
