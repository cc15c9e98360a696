"""Exact fixed-point solving and rotation numbers for PL circle maps.

The rotation number comes from one Stern-Brocot descent.  A mediant p/q
with q <= max_q is tested at every point at once, exactly, on the orbits of
the breakpoints, so a periodic orbit anywhere gives the exact answer.
Beyond max_q only the orbit of 0 is followed: integer enclosures of it
(interval arithmetic on ints scaled by 2^b) decide each sign, and the exact
orbit every sign they leave open, equality included, so no float decides an
answer.  Exact orbits are int pairs stepped by PLHomeo._step; the
enclosures read PLHomeo._table.  The semi-conjugacy table is explicitly
numeric, with stated tolerances.
"""
from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .circle import CirclePoint, frac_mod1
from .homeo import PLHomeo


@dataclass(frozen=True)
class FixedSet:
    """Exact solution set of h(x) = x, as maximal components."""

    full: bool
    points: Tuple[CirclePoint, ...]
    arcs: Tuple[Tuple[CirclePoint, CirclePoint], ...]  # closed arcs [start, end]

    @property
    def is_empty(self) -> bool:
        return not (self.full or self.points or self.arcs)


def fixed_points(h: PLHomeo) -> FixedSet:
    """Solve h(x) = x exactly, piece by piece, merging adjacent components."""
    xs = h._xs + [h._xs[0] + 1]
    ys = h._ys + [h._ys[0] + 1]
    intervals: List[Tuple[Fraction, Fraction]] = []  # closed, in lift coords
    for i, s in enumerate(h.slopes):
        a, b = xs[i], xs[i + 1]
        da = ys[i] - a
        db = ys[i + 1] - b
        if s == 1:
            if da == math.floor(da):
                intervals.append((a, b))
            continue
        lo, hi = min(da, db), max(da, db)
        for c in range(math.ceil(lo), math.floor(hi) + 1):
            # solve ys[i] + s (x - a) = x + c
            x = (c - ys[i] + s * a) / (s - 1)
            if a <= x <= b:
                intervals.append((x, x))
    if not intervals:
        return FixedSet(False, (), ())
    intervals.sort()
    merged = [list(intervals[0])]
    for a, b in intervals[1:]:
        if a <= merged[-1][1]:
            merged[-1][1] = max(merged[-1][1], b)
        else:
            merged.append([a, b])
    # wrap-around merge: the last component may touch the first, one period up
    if len(merged) > 1 and merged[0][0] + 1 <= merged[-1][1]:
        merged[0][0] = merged[-1][0] - 1
        merged[0][1] = max(merged[0][1], merged[-1][1] - 1)
        merged.pop()
    if merged[0][1] - merged[0][0] >= 1:
        return FixedSet(True, (), ())
    points = []
    arcs = []
    for a, b in merged:
        pa = CirclePoint(frac_mod1(a))
        pb = CirclePoint(frac_mod1(b))
        if a == b:
            points.append(pa)
        else:
            arcs.append((pa, pb))
    return FixedSet(False, tuple(points), tuple(arcs))


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
    """Integer bounds lo <= 2^b F^n(0) <= hi on the lift orbit of 0.

    F is increasing, so flooring each step keeps a lower bound and ceiling
    it an upper one.  Each step reads h's integer table, PLHomeo._table."""

    def __init__(self, h: PLHomeo, b: int):
        self.b, self.table = b, h._table
        self.n = self.lo = self.hi = 0

    def at(self, q: int) -> Tuple[int, int]:
        """(lo, hi) at n = q; q never decreases between calls.  As in _step,
        t / 2^b = u + m and 2^b F(t / 2^b) = 2^b (a_i u L + b_i) / e_i + m 2^b."""
        b, (L, X, A, B, E) = self.b, self.table
        lo, hi = self.lo, self.hi
        for _ in range(q - self.n):
            tL = lo * L
            f = tL >> b
            m = (f - X[0]) // L
            i = bisect.bisect_right(X, f - m * L) - 1
            lo = (A[i] * (tL - (m * L << b)) + (B[i] << b)) // E[i] + (m << b)
            tL = hi * L
            f = tL >> b
            m = (f - X[0]) // L
            i = bisect.bisect_right(X, f - m * L) - 1
            hi = -(-(A[i] * (tL - (m * L << b)) + (B[i] << b)) // E[i]) + (m << b)
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
    if max_q < 1 or depth < 1:
        raise ValueError("max_q and depth must be positive")
    # q = 1, never a mediant: F - id is affine between breakpoints, so h fixes
    # a point when an integer lies between the least and greatest gap F(c) - c
    gaps = [y - c for c, y in h.verts]
    if math.ceil(min(gaps)) <= max(gaps):
        return RotNumResult(exact=Fraction(0))
    orbits = [[(c.numerator, c.denominator), (y.numerator, y.denominator)]
              for c, y in h.verts]  # the breakpoints' exact lift orbits
    enc = _Enclosure(h, _BITS)
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
            lower, upper = enc.at(q)
            sign = (lower > target << enc.b) - (upper < target << enc.b)
            if not sign:
                t, n = _lift_iterate(h, t, q - n), q
                sign = (t[0] > target * t[1]) - (t[0] < target * t[1])
        if sign > 0:
            lo = Fraction(p, q)
        elif sign < 0:
            hi = Fraction(p, q)
        else:
            return RotNumResult(exact=Fraction(p, q))


def semiconjugacy_table(h: PLHomeo, n_samples: int, n_iter: int
                        ) -> List[Tuple[CirclePoint, float]]:
    """Numeric approximation of the semi-conjugacy to a rotation, as the
    empirical distribution function of the orbit of 0.

    The table is weakly increasing with values in [0, 1]; it is a numeric
    demonstration, not a certified object.
    """
    if n_samples < 1 or n_iter < 1:
        raise ValueError("n_samples and n_iter must be positive")
    if not fixed_points(h).is_empty:
        raise ValueError("semi-conjugacy degenerates for maps with a fixed point")
    xs = [float(x) for x in h._xs]
    ys = [float(y) for y in h._ys]
    slopes = [float(s) for s in h.slopes]

    def eval_f(u: float) -> float:
        m = math.floor(u - xs[0])
        u -= m
        i = bisect.bisect_right(xs, u) - 1
        return (ys[i] + slopes[i] * (u - xs[i]) + m) % 1.0

    orbit = []
    t = 0.0
    for _ in range(n_iter):
        orbit.append(t)
        t = eval_f(t)
    orbit.sort()
    table = []
    for j in range(n_samples):
        x = Fraction(j, n_samples)
        count = bisect.bisect_left(orbit, float(x))
        table.append((CirclePoint(x), count / n_iter))
    return table
