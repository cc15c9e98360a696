"""Exact fixed-point solving and rotation numbers for PL circle maps.

Fixed sets are read off the vertex gaps g_i = y_i - x_i of the lift F: as
F - id is affine between vertices and spans less than 1, ceil(min g_i) is
the one integer it can take, and one in-order pass over the pieces finds
its zeros.

The rotation number comes from one Stern-Brocot descent.  A mediant p/q
with q <= max_q is tested at every point at once, exactly, on the orbits of
the breakpoints, so a periodic orbit anywhere gives the exact answer.
Beyond max_q only the orbit of 0 is followed: integer enclosures of it
(interval arithmetic on ints scaled by L 2^b, L the lcm of the map's x
denominators) decide each sign, and the exact orbit every sign they leave
open, equality included, so no float decides an answer.  Exact orbits are
int pairs stepped by PLHomeo._step; the enclosures step both bounds at once
over a piece table pre-scaled once from PLHomeo._table, with one piece
lookup shared by both bounds unless they lie in different pieces.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .circle import CirclePoint, _check_ints, frac_mod1
from .homeo import PLHomeo


@dataclass(frozen=True)
class FixedSet:
    """Exact solution set of h(x) = x, as maximal components.

    Points, then arcs, each in lift order from x_0, the base vertex; an arc
    that wraps past x_0 + 1 is listed first."""

    full: bool
    points: Tuple[CirclePoint, ...]
    arcs: Tuple[Tuple[CirclePoint, CirclePoint], ...]  # closed arcs [start, end]

    @property
    def is_empty(self) -> bool:
        return not (self.full or self.points or self.arcs)


def fixed_points(h: PLHomeo) -> FixedSet:
    """Solve h(x) = x exactly from the vertex gaps g_i = y_i - x_i.

    F - id is affine between vertices and spans less than 1 over a period,
    so c = ceil(min g_i) is the only integer it can take, and none when
    c > max g_i.  One in-order pass over the pieces [x_i, x_{i+1}] adds the
    zeros of F - id - c, merged with the last interval: the whole piece when
    both ends are 0, its left vertex when only that end is, the interpolated
    zero when the signs differ.  An arc ending at x_0 + 1 is then joined
    onto the first interval."""
    gaps = [y - x for x, y in h.verts]
    c = math.ceil(min(gaps))
    if c > max(gaps):
        return FixedSet(False, (), ())
    if len(gaps) == 1:  # a single vertex with gap c: the identity
        return FixedSet(True, (), ())
    xs = h._xs + [h._xs[0] + 1]
    d = [g - c for g in gaps + gaps[:1]]
    merged: List[List[Fraction]] = []  # closed, in lift coords
    for a, b, da, db in zip(xs, xs[1:], d, d[1:]):
        if da == 0:
            iv = [a, b if db == 0 else a]
        elif da * db < 0:
            x = a + da * (b - a) / (da - db)
            iv = [x, x]
        else:
            continue
        if merged and iv[0] == merged[-1][1]:
            merged[-1][1] = iv[1]
        else:
            merged.append(iv)
    if merged[-1][1] == xs[-1]:
        merged[0][0] = merged.pop()[0] - 1
    points = tuple(CirclePoint(frac_mod1(a)) for a, b in merged if a == b)
    arcs = tuple((CirclePoint(frac_mod1(a)), CirclePoint(frac_mod1(b)))
                 for a, b in merged if a != b)
    return FixedSet(False, points, arcs)


@dataclass(frozen=True)
class RotNumResult:
    """Either an exact rational rotation number or a Farey bracket."""

    exact: Optional[Fraction] = None
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    depth: int = 0

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def __str__(self):
        if self.is_exact:
            return f"{self.exact.numerator}/{self.exact.denominator} (exact)"
        return f"[{self.lo}, {self.hi}] after {self.depth} refinements"


def _lift_iterate(h: PLHomeo, t: Tuple[int, int], n: int) -> Tuple[int, int]:
    """F^n(t), with t and the result (numerator, denominator) pairs."""
    for _ in range(n):
        t = h._step(*t)[:2]
    return t


# Bits of the integer enclosure; a sign it leaves open is decided by the
# exact orbit.
_BITS = 64


class _Enclosure:
    """Integer bounds lo <= L 2^b F^n(0) <= hi on the lift orbit of 0, on
    the grid 1 / (L 2^b) with L the lcm of h's x denominators.

    F is increasing, so flooring each step keeps a lower bound and ceiling
    it an upper one.  The grid 1 / 2^b lies on this one, so the bounds are
    never looser than bounds scaled by 2^b alone.  PLHomeo._table is read
    once into one tuple (X_{i+1}, a_i L, b_i L 2^b, e_i) per piece i: for
    T = L 2^b (u + m), with u in piece i and m the winding, L 2^b F(T / (L
    2^b)) = (a_i L (T - s) + b_i L 2^b) / e_i + s, s = m L 2^b.  As hi >=
    lo, hi lies in lo's piece unless floor(hi / 2^b) reaches X_{i+1} + m L:
    a step looks up lo's piece and winding, and hi's only then."""

    def __init__(self, h: PLHomeo, b: int):
        L, X, A, B, E = h._table
        self.b, self.L, self.X, self.scale = b, L, X, L << b
        self.pieces = [(x, a * L, c * L << b, e)
                       for x, a, c, e in zip(X[1:] + [X[0] + L], A, B, E)]
        self.n = self.lo = self.hi = 0

    def at(self, q: int) -> Tuple[int, int]:
        """(lo, hi) at n = q; q never decreases between calls."""
        b, L, X, pieces, scale = self.b, self.L, self.X, self.pieces, self.scale
        x0, bisect_right = X[0], bisect.bisect_right
        lo, hi = self.lo, self.hi
        for _ in range(q - self.n):
            f = lo >> b  # floor(u L) + m L
            m = (f - x0) // L
            mL = m * L
            x_next, a, c, e = pieces[bisect_right(X, f - mL) - 1]
            s = m * scale
            lo = (a * (lo - s) + c) // e + s
            f = hi >> b
            if f - mL >= x_next:
                m = (f - x0) // L
                x_next, a, c, e = pieces[bisect_right(X, f - m * L) - 1]
                s = m * scale
            hi = s - (a * (s - hi) - c) // e
        self.n, self.lo, self.hi = q, lo, hi
        return lo, hi


def rotation_number(h: PLHomeo, max_q: int = 32, depth: int = 16) -> RotNumResult:
    """Exact rotation number when it is p/q with q <= max_q or the search
    meets it, otherwise a Farey bracket refined `depth` times.

    One Stern-Brocot descent on the lift F shifted by w = floor(F(0)): the
    mediant p/q becomes the lower end when g = F^q - id - p - wq is positive
    everywhere, the upper end when it is negative everywhere, and else the
    exact answer (a periodic orbit).  For q <= max_q the gaps g(c) at the
    breakpoints c of F decide this for every x: g keeps its sign along
    F-orbits and breaks only on the backward orbits of the c, so a zero of
    g that no c shares lies inside an affine piece of g whose two ends,
    and so two of the c, have opposite signs.  The descent goes on past
    `depth` while q <= max_q, as a p/q between Farey neighbours has q at
    least the sum of theirs, and returns the bracket of step `depth`.  For
    q > max_q only x = 0 is tested: integer enclosures of its orbit decide
    each sign and the exact orbit those they leave open, so no float decides
    an answer."""
    _check_ints(1, max_q=max_q, depth=depth)
    # q = 1, never a mediant: F - id is affine between breakpoints, so h fixes
    # a point when an integer lies between the least and greatest gap F(c) - c
    gaps = [y - c for c, y in h.verts]
    if math.ceil(min(gaps)) <= max(gaps):
        return RotNumResult(exact=Fraction(0))
    orbits = [[(c.numerator, c.denominator), (y.numerator, y.denominator)]
              for c, y in h.verts]  # the breakpoints' exact lift orbits
    enc = None  # built when q first passes max_q
    n, t = 1, h._step(0, 1)[:2]  # the exact orbit of 0, t = F^n(0)
    # F(0) is no integer, as 0 is not fixed, so F's translation number lies
    # in [w, w + 1]: the search brackets that of F - w, which is rho mod 1
    w = t[0] // t[1]
    lo, hi = Fraction(0), Fraction(1)
    for step in itertools.count():
        p = lo.numerator + hi.numerator
        q = lo.denominator + hi.denominator
        if step == depth:
            bracket = RotNumResult(lo=lo, hi=hi, depth=depth)
        if step >= depth and q > max_q:
            return bracket
        target = p + w * q
        if q <= max_q:
            for orbit in orbits:
                while len(orbit) <= q:
                    orbit.append(h._step(*orbit[-1])[:2])
            # F^q(c) - c - target, each times its positive denominator
            gaps = [y * e - (c + target * e) * d
                    for (c, e), (y, d) in ((o[0], o[q]) for o in orbits)]
            sign = (min(gaps) > 0) - (max(gaps) < 0)
        else:
            if enc is None:
                enc = _Enclosure(h, _BITS)
            lower, upper = enc.at(q)
            scaled = target * enc.scale
            sign = (lower > scaled) - (upper < scaled)
            if not sign:
                t, n = _lift_iterate(h, t, q - n), q
                sign = (t[0] > target * t[1]) - (t[0] < target * t[1])
        if sign > 0:
            lo = Fraction(p, q)
        elif sign < 0:
            hi = Fraction(p, q)
        else:
            return RotNumResult(exact=Fraction(p, q))
