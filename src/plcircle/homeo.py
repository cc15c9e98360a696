"""Canonical orientation-preserving piecewise linear circle homeomorphisms.

A map is stored by the vertices of one period of its lift graph: pairs
(x_i, y_i) with x_0 in [0,1), x strictly increasing over less than one
period, y_0 in [0,1), y strictly increasing, and an implicit closing
vertex (x_0 + 1, y_0 + 1).  Canonical form: every stored vertex is a
genuine breakpoint (adjacent slopes differ cyclically) and the base
vertex is the smallest breakpoint; rotations are stored as the single
vertex (0, alpha).  Input is canonicalized in integers: each coordinate is
read as a (numerator, denominator) pair, a documented "p/q" string by
circle._ints' two int() calls, and reduced over the lcms L and M of its x
and y denominators, L then shrunk by one gcd to the kept vertices, with a
Fraction built only for each kept vertex.  Evaluation runs on an integer
table, which each map gets once from whoever built it: a point's piece is
found on the common grid, L and the x_i L, and each piece is one row in
lowest terms, F(u) = (alpha_i u + beta_i) / gamma_i, built from its own two
vertices by one formula, _layout, so a row has the bits of its piece, not
of L.  The constructor and rotation call it on their own integers, a
composite or a conjugator on first use (_table), and the inverse moves the
rows of the map it inverts.  One kernel, _advance, steps pairs in lowest
terms and returns the index of the breakpoint it hit, not its jump, and
builds no Fraction: the orbit passes, compose, which reads the two vertex
lists with one step per breakpoint, and eval, lift_eval and jump, which
pass a Fraction's own pair, all call it, and a result becomes a Fraction
with no gcd (circle._coprime).
"""
from __future__ import annotations

import math
import random
from bisect import bisect_left, bisect_right
from fractions import Fraction
from functools import cached_property
from math import gcd
from typing import List, Tuple

from .circle import (CirclePoint, _Frozen, _check_ints, _coprime, _exact, _ints, _order_keys,
                     _quote, frac_mod1)

Vertex = Tuple[Fraction, Fraction]
_ONE = Fraction(1)


class InvalidHomeoError(ValueError):
    """Data does not define a canonical PL circle homeomorphism."""


def _pair(q) -> Tuple[int, int]:
    """q as an integer pair (n, d), d > 0, not always in lowest terms: _ints'
    two for a str of the documented form "p/q" with q nonzero, a Fraction's
    or an int's own, else those of Fraction(q) of any size;
    InvalidHomeoError when q is no finite rational.  A str is tested first,
    by its exact type: isinstance against the two goes through ABCMeta."""
    if type(q) is str:
        pq = _ints(q)
        if pq and pq[1]:
            return pq
    elif isinstance(q, (Fraction, int)):
        return q.numerator, q.denominator
    try:
        q = _exact(Fraction, q)
    except (TypeError, ValueError, OverflowError, ZeroDivisionError):
        raise InvalidHomeoError(f"vertex coordinate {_quote(q, repr)} is not "
                                "a rational number") from None
    return q.numerator, q.denominator


def _layout(L: int, X: List[int], P: List[Tuple[int, int, int, int]]):
    """The integer table of the lift vertices (p_i / q_i, r_i / t_i), given
    as the quadruples P_i = (p_i, q_i, r_i, t_i) of their lowest terms, with
    p_i / q_i = X_i / L: L, the X_i, and piece i as its row (alpha_i,
    beta_i, gamma_i), F(u) = (alpha_i u + beta_i) / gamma_i on the lift, in
    lowest terms, gcd(alpha_i, beta_i, gamma_i) = 1.  Each row comes from
    its piece's own two vertices, the last closing at (x_0 + 1, y_0 + 1):
    with the next vertex p'/q', r'/t', F(u) = (D_y q q' u + r t' D_x - D_y p
    q') / (D_x t t') for D_x = p' q - p q' and D_y = r' t - r t', reduced by
    one gcd of integers of the vertices' size, not of L's."""
    p, q, r, t = P[0]
    closing = (p + q, q, r + t, t)
    rows = []
    for (p, q, r, t), (p1, q1, r1, t1) in zip(P, P[1:] + [closing]):
        dx, dy = p1 * q - p * q1, r1 * t - r * t1
        a, b, c = dy * q * q1, r * t1 * dx - dy * p * q1, dx * t * t1
        g = gcd(a, b, c)
        rows.append((a // g, b // g, c // g))
    return L, X, rows


def _lowest(n: int, d: int) -> Tuple[int, int]:
    """n/d, d > 0, in lowest terms by one gcd of the two ints."""
    g = gcd(n, d)
    return n // g, d // g


def _canonical(pairs):
    """Canonicalize vertex pairs, in circle or lift coordinates, into lift
    vertices, returned with their integer table (see PLHomeo._table).

    Merges vertices where the slope does not change and rebases at the
    smallest breakpoint; a map with no breakpoint collapses to a rotation.
    Works in integers: each coordinate is read as an integer pair (n, d) by
    _pair, so a "p/q" string costs two int() calls and no Fraction; with L
    and M the lcms of the input x and y denominators, vertex (x, y) mod 1
    is (X / L, Y / M) for integers X in [0, L) and Y in [0, M), and slopes
    are compared by cross-multiplying integer differences.  The pairs need
    not be in lowest terms, and a dropped vertex's denominators count in L:
    one gcd(L, *X) over the kept vertices shrinks L to the lcm of the kept x
    denominators, which makes the grid the one the vertices alone give.
    Each kept coordinate is put in lowest terms by one gcd of its two ints,
    and the Fractions and the rows (_layout) are built from those.
    """
    pairs = [(_pair(x), _pair(y)) for x, y in pairs]
    if not pairs:
        raise InvalidHomeoError("at least one vertex is required")
    L = math.lcm(*(d for (_, d), _ in pairs))
    M = math.lcm(*(d for _, (_, d) in pairs))
    pts = sorted({(n * (L // d) % L, m * (M // e) % M) for (n, d), (m, e) in pairs})
    X = [p[0] for p in pts]
    Y = [p[1] for p in pts]
    if len(set(X)) != len(X):
        raise InvalidHomeoError("two vertices share the same x coordinate")
    if len(set(Y)) != len(Y):
        raise InvalidHomeoError("two vertices share the same image (map not injective)")
    ylift = [y + M if y < Y[0] else y for y in Y]
    if any(a >= b for a, b in zip(ylift, ylift[1:])):
        raise InvalidHomeoError(
            "vertex images are not in matching cyclic order "
            "(map is not an orientation-preserving homeomorphism)")
    dx = [b - a for a, b in zip(X, X[1:] + [X[0] + L])]
    dy = [b - a for a, b in zip(ylift, ylift[1:] + [ylift[0] + M])]
    # slope i is (dy_i L) / (dx_i M), and every dx_i is positive
    keep = [i for i in range(len(X)) if dy[i - 1] * dx[i] != dy[i] * dx[i - 1]]
    if not keep:
        # constant slope around the circle forces slope 1: a rotation, kept
        # as its one vertex (0, y_0 - x_0 mod 1) on the grid 1 / (L M)
        X, Y, M, keep = [0], [(Y[0] * L - X[0] * M) % (L * M)], L * M, [0]
    base = Y[keep[0]]
    X = [X[i] for i in keep]
    Y = [Y[i] + M if Y[i] < base else Y[i] for i in keep]
    g = gcd(L, *X)
    if g != 1:
        L, X = L // g, [x // g for x in X]
    P = [_lowest(x, L) + _lowest(y, M) for x, y in zip(X, Y)]
    return (tuple((_coprime(p, q), _coprime(r, t)) for p, q, r, t in P),
            _layout(L, X, P))


class PLHomeo(_Frozen):
    """Orientation-preserving PL circle homeomorphism in canonical form.

    The constructor canonicalizes input: it takes vertex pairs in circle or
    lift coordinates and stores their canonical form, raising
    InvalidHomeoError when they do not define a homeomorphism.  Maps the
    library derives from canonical maps are built in canonical form
    directly, through _of_canonical: `inverse` (swapping coordinates merges
    nothing, as the slopes invert), `compose` (from the two vertex lists, it
    keeps the cuts whose chain-rule jump is not 1), `rotation` and
    `synthesize_conjugator` (its support points are sorted, distinct, and
    all true breakpoints); inverse and rotation pass their tables.

    Two maps are equal when their vertices are.  Canonical vertices are
    Fractions in lowest terms, so equal maps have the same ints, and both
    __eq__ and __hash__ read those ints, not Fraction hashes or Fraction
    comparisons, in place of _Frozen's.  A map has no __slots__: its table,
    jumps, inverse and breakpoint chains are kept in its __dict__, each built
    once; the chains hold the head orbits its readers have stepped, so a
    map keeps those positions for as long as it lives."""

    _fields = ("verts",)

    def __init__(self, verts: Tuple[Vertex, ...]):
        self._init(verts)

    def __post_init__(self):
        verts, table = _canonical(self.verts)
        object.__setattr__(self, "verts", verts)
        object.__setattr__(self, "_table", table)  # where the cached property keeps it

    def _key(self) -> List[Tuple[int, int, int, int]]:
        # the two slots of each Fraction, as circle._coprime sets them: a read
        # of the .numerator property costs more than comparing the ints
        return [(x._numerator, x._denominator, y._numerator, y._denominator)
                for x, y in self.verts]

    def __eq__(self, other) -> bool:
        if not isinstance(other, PLHomeo):
            return NotImplemented
        return self._key() == other._key()

    def __hash__(self) -> int:
        return hash(tuple(self._key()))

    @classmethod
    def _of_canonical(cls, verts: Tuple[Vertex, ...], table=None) -> "PLHomeo":
        """The map with these vertices, which must already be in canonical
        form, as a tuple of (Fraction, Fraction) tuples, and with their
        integer table when the builder has it; nothing is checked."""
        h = object.__new__(cls)
        object.__setattr__(h, "verts", verts)
        if table is not None:
            object.__setattr__(h, "_table", table)
        return h

    # -- structure ---------------------------------------------------------

    @cached_property
    def _jumps(self) -> Tuple[Fraction, ...]:
        """J(h, x_i) = s_i / s_{i-1}, with s_i = alpha_i / gamma_i the slope
        of row i, in vertex order, so that the index _advance returns at x_i
        reads J(h, x_i); empty for a rotation.  Built on first use: the
        orbit pass binds it once per map, and rotation_number never reads it."""
        R = self._table[2]
        return tuple(Fraction(a * R[i - 1][2], R[i - 1][0] * c)
                     for i, (a, _, c) in enumerate(R)) if len(R) > 1 else ()

    @cached_property
    def _chains(self) -> List[Tuple[List[int], bool, List[Tuple[int, int]], List[int]]]:
        """The breakpoints split into chains and cycles, each as (members,
        cycle, pairs, winds): its indices in order, True for a cycle, and its
        head's orbit F^t(x_head) = r_t/d_t + w_t as lists of lowest-terms
        (r_t, d_t), 0 <= r_t < d_t, and windings w_t, read here to position
        len(members) off the ints of _key: F maps x_m + w to y_m + w, m =
        members[t - 1].  With succ(i) = j when y_i = x_j mod 1, each
        breakpoint has at most one predecessor (the map is injective), so succ
        splits them into chains, from a breakpoint with no predecessor to one
        with no successor, by their first index, then cycles, each from its
        smallest index; a fixed breakpoint is a cycle of one, and a rotation
        has neither.  F^t(x_(members[s])) = F^(s+t)(x_head) - w_s, so the
        head's orbit serves every member.

        Built once per map: rotnum._head_orbit extends a head's orbit in
        place, so every reader (rotation_number's certificate and descent,
        cocycle.growth_sequences) reads the one prefix, each position stepped
        once, and the map keeps the prefix its readers stepped for as long
        as it lives."""
        if self.is_rotation:
            return []
        key = self._key()
        index = {(p, q): j for j, (p, q, _, _) in enumerate(key)}
        succ = [index.get((r % t, t)) for _, _, r, t in key]
        starts = set(range(len(succ))).difference(succ)
        chains, seen = [], set()
        for i in sorted(starts) + list(range(len(succ))):
            if i not in seen:
                members, pairs, winds = [], [key[i][:2]], [0]
                while i is not None and i not in seen:
                    seen.add(i)
                    members.append(i)
                    i = succ[i]
                for m in members:
                    w, r = divmod(key[m][2], key[m][3])
                    pairs.append((r, key[m][3]))
                    winds.append(winds[-1] + w)
                # a chain ends at no successor, a cycle back at its first index
                chains.append((members, i is not None, pairs, winds))
        return chains

    @property
    def breakpoints(self) -> Tuple[CirclePoint, ...]:
        # every x_i lies in [x_0, 1): a smaller one would be the base
        return tuple(CirclePoint(x) for x, _ in self.verts) if len(self.verts) > 1 else ()

    @property
    def is_identity(self) -> bool:
        # a rotation has one vertex, (0, rho); the identity is rho = 0
        return len(self.verts) == 1 and not self.verts[0][1]

    @property
    def is_rotation(self) -> bool:
        return len(self.verts) == 1

    # -- evaluation --------------------------------------------------------

    def lift_eval(self, t: Fraction) -> Fraction:
        """Evaluate the canonical lift (the one with value of x_0 in [0,1))."""
        return _coprime(*self._advance(t.numerator, t.denominator)[:2])

    def lift_eval_inverse(self, t: Fraction) -> Fraction:
        """F^{-1}(t) for the canonical lift F: the canonical lift G of h^{-1}
        minus the integer G(y_0) - x_0, which is 0 or 1."""
        inv, (x0, y0) = self.inverse(), self.verts[0]
        return inv.lift_eval(t) - (inv.lift_eval(y0) - x0)

    def eval(self, p: CirclePoint) -> CirclePoint:
        n, d, _ = self._advance(p.value.numerator, p.value.denominator)
        return CirclePoint(_coprime(n % d, d))

    def eval_inverse(self, p: CirclePoint) -> CirclePoint:
        return self.inverse().eval(p)

    def left_right_slopes(self, p: CirclePoint) -> Tuple[Fraction, Fraction]:
        """Exact (left derivative, right derivative) at p, each a row's
        alpha_i / gamma_i."""
        (a, _, c), (a1, _, c1) = self._rows_at(p)
        return Fraction(a, c), Fraction(a1, c1)

    def _rows_at(self, p: CirclePoint) -> Tuple[Tuple[int, int, int], Tuple[int, int, int]]:
        """The rows (alpha_i, beta_i, gamma_i) of _table left and right of p:
        the same row twice at a point that is no vertex."""
        L, X, R = self._table
        f, r = divmod(p.value.numerator * L, p.value.denominator)  # p L = f + r/d
        i = bisect_right(X, f) - 1  # -1: p < x_0, the last piece
        j = i - 1 if r == 0 and f == X[i] else i
        return R[j], R[i]

    def jump(self, p: CirclePoint) -> Fraction:
        """Derivative jump D+h(p) / D-h(p); equals 1 off the breakpoints."""
        j = self._advance(p.value.numerator, p.value.denominator)[2]
        return self._jumps[j] if j >= 0 else _ONE

    @cached_property
    def _table(self):
        """One period in integers: L the lcm of the vertex x denominators,
        X_i = x_i L, the grid a point's piece is found on, and piece i as its
        row in lowest terms, F(u) = (alpha_i u + beta_i) / gamma_i (_layout),
        read by _advance and rotnum's enclosures.  Whoever builds a map
        stores it here once; this body serves compose's maps and the
        conjugators of synthesize_conjugator and smooth_group alone.  The
        finite-orbit search hashes and solves most words of its last length
        but evaluates none, and eager tables made it 20% slower; a
        conjugator's angles are read off its synthesis sums, and its rows
        cost about a quarter of the synthesis."""
        P = [(x.numerator, x.denominator, y.numerator, y.denominator)
             for x, y in self.verts]
        L = math.lcm(*(q for _, q, _, _ in P))
        return _layout(L, [p * (L // q) for p, q, _, _ in P], P)

    def _advance(self, n: int, d: int) -> Tuple[int, int, int]:
        """The one exact forward evaluation, the orbit kernel: (n', d', j),
        with n'/d' = F(n/d) in lowest terms for the canonical lift F and j
        the index of the breakpoint n/d is, or -1, for n/d in lowest terms
        with d > 0.  u = n/d - m, for the winding m, lies in [x_0, x_0 + 1);
        F(n/d) = F(u) + m; n/d is breakpoint i when u = x_i (a rotation's
        vertex is none), and _jumps[j] is then the jump there.  No Fraction
        is built: the orbit callers read n' and d' alone.

        The piece is found on the common grid: f = floor(u L) and a bisect
        of the X_i.  On piece i, F(u) = p / q with p = alpha_i n' + beta_i d
        and q = gamma_i d, where n' = n - m d is prime to d.  gcd(p, q)
        divides K_i = alpha_i gamma_i, for any integer form of the piece:
        for a prime l, if l^v(d) divides alpha_i then v_l(q) <= v_l(K_i);
        otherwise l divides d but not n', so v_l(p) = v_l(alpha_i) because
        v_l(alpha_i n') = v_l(alpha_i) < v_l(d) <= v_l(beta_i d).  So
        gcd(p, q) = gcd(K_i, p, q), which costs a remainder of each big
        number by the small K_i in place of a gcd quadratic in their bits.
        q exceeds K_i exactly when d > alpha_i; below that the plain gcd(p,
        q) is cheaper.  The row is in lowest terms, so K_i has the bits of
        the piece's own vertices, not of L."""
        L, X, R = self._table
        f, r = divmod(n * L, d)  # f = floor(n/d * L)
        m = (f - X[0]) // L
        if m:
            f -= m * L
            n -= m * d
        i = bisect_right(X, f) - 1
        a, b, c = R[i]
        p, q = a * n + b * d, c * d
        g = gcd(a * c, p, q) if d > a else gcd(p, q)
        if g != 1:
            p, q = p // g, q // g
        j = i if r == 0 and f == X[i] and len(X) > 1 else -1
        return (p + m * q if m else p), q, j

    # -- group operations --------------------------------------------------

    def compose(self, other: "PLHomeo") -> "PLHomeo":
        """self o other, from the two vertex lists with one _advance per
        breakpoint.  With G the canonical lift of other, the lift F o G breaks
        only at the cuts BP(other) and other^{-1}(BP(self)).  At a vertex
        (x_j, y_j) of other, one step of self at y_j gives F(y_j) and the
        chain-rule jump J(other, x_j) J(self, y_j); the cut is kept when that
        is not 1.  At a breakpoint (u_i, v_i) of self, one step of other's
        inverse gives the preimage c; unless c is a breakpoint of other, the
        value there is v_i moved by an integer and the jump J(self, u_i) is
        not 1.  The kept cuts are ordered as integer pairs and the lifted
        values shifted by one floor; every cut and value is a lowest-terms
        pair from _advance, or a vertex moved by an integer, so each becomes
        a Fraction with no gcd."""
        fv, gv = self.verts, other.verts
        if len(fv) == len(gv) == 1:
            return rotation(fv[0][1] + gv[0][1])
        cuts = []  # (cut, numerator, denominator of the lifted value)
        for (x, y), Jg in zip(gv, other._jumps):
            n, d, j = self._advance(y.numerator, y.denominator)
            Jf = self._jumps[j] if j >= 0 else _ONE
            # jumps are in lowest terms: Jg Jf = 1 exactly when they are reciprocal
            if Jg.numerator != Jf.denominator or Jg.denominator != Jf.numerator:
                cuts.append((x, n, d))
        if len(fv) > 1:
            # the inverse's canonical lift is G^{-1} + s, with s = 1 when a
            # vertex image of other is >= 1.  (For a rotation by alpha > 0 it
            # is G^{-1} + 1 too, but then every cut comes from this loop and
            # the shift by one floor drops the common integer.)
            s = gv[-1][1] >= 1
            inv = other.inverse()
            for u, v in fv:
                p, q, j = inv._advance(u.numerator, u.denominator)
                if j < 0:  # u is no image of a breakpoint of other
                    # c = G^{-1}(u) mod 1, and F(G(c)) = v + s - floor(p/q)
                    w = s - p // q
                    cuts.append((_coprime(p % q, q), v.numerator + w * v.denominator,
                                 v.denominator))
        if not cuts:  # every cut cancelled, and the first loop ran
            return rotation(Fraction(n, d) - x)
        keys = _order_keys([(c.numerator, c.denominator) for c, _, _ in cuts])
        cuts = [cut for _, cut in sorted(zip(keys, cuts))]  # the keys are distinct
        m = cuts[0][1] // cuts[0][2]
        return PLHomeo._of_canonical(tuple(
            (c, _coprime(n - m * d, d)) for c, n, d in cuts))

    def inverse(self) -> "PLHomeo":
        """h^{-1}, built once per map: swap the coordinates and rebase at the
        first vertex whose image is at least 1, so that the smallest
        breakpoint of the inverse comes first; BP(h^{-1}) = h(BP(h)) and the
        slopes invert, so nothing merges."""
        return self._inverse

    @cached_property
    def _inverse(self) -> "PLHomeo":
        """h^{-1} from h's integers, on one path: with M the lcm of the y
        denominators, Y_i = y_i M, s = 1 when an image is at least 1 and j
        the first such vertex (0 when s = 0), vertex i of h gives vertex i -
        j mod k: (y_i - s, x_i) from j on and (y_i, x_i + 1) before, each
        moved by an integer as an integer pair, and the grid is M with the
        Y_i moved alike.  The canonical lift of h^{-1} is G(v) = F^{-1}(v +
        s), so row i of h, F(u) = (alpha u + beta) / gamma, gives G(v) =
        (gamma v + gamma s - beta) / alpha from j on and, as F(u + 1) = F(u)
        + 1, G(v) = (gamma v + alpha - beta) / alpha before: each moves beta
        by a multiple of gamma or alpha, which keeps the row in lowest
        terms with no gcd.  The x_i lie in [x_0, 1), else a smaller would be
        the base."""
        verts = self.verts
        if len(verts) == 1:
            return rotation(-verts[0][1])
        M = math.lcm(*(y.denominator for _, y in verts))
        Y = [y.numerator * (M // y.denominator) for _, y in verts]
        s = Y[-1] >= M
        j = bisect_left(Y, M) if s else 0
        verts = (tuple((_coprime(y.numerator - s * y.denominator, y.denominator), x)
                       for x, y in verts[j:])
                 + tuple((y, _coprime(x.numerator + x.denominator, x.denominator))
                         for x, y in verts[:j]))
        R = self._table[2]
        rows = ([(c, c * s - b, a) for a, b, c in R[j:]]
                + [(c, a - b, a) for a, b, c in R[:j]])
        return PLHomeo._of_canonical(verts, (M, [y - s * M for y in Y[j:]] + Y[:j], rows))

    def iterate(self, n: int) -> "PLHomeo":
        """n-th iterate (negative n iterates the inverse), by sequential composition."""
        if n == 0:
            return identity()
        base = self if n > 0 else self.inverse()
        result = base
        for _ in range(abs(n) - 1):
            result = result.compose(base)
        return result


def from_lift_vertices(pairs) -> PLHomeo:
    """Build a canonical map from lift vertices, closing vertex optional
    (it reduces mod 1 to the base vertex)."""
    return PLHomeo(pairs)


def rotation(alpha) -> PLHomeo:
    """The rotation x -> x + alpha mod 1, with its one-piece table."""
    alpha = frac_mod1(alpha)
    P = [(0, 1, alpha.numerator, alpha.denominator)]
    return PLHomeo._of_canonical(((Fraction(0), alpha),), _layout(1, [0], P))


def identity() -> PLHomeo:
    return rotation(0)


class ExoticParams(_Frozen):
    """Parameters (A, lambda) of an element of the exotic circle S_A."""

    __slots__ = _fields = ("A", "lam")

    def __init__(self, A: Fraction, lam: Fraction):
        self._init(_exact(Fraction, A), _exact(Fraction, lam))

    def __post_init__(self):
        if not self.A > 1:
            raise ValueError(f"modulus A must exceed 1, got {_quote(self.A)}")
        if not 1 < self.lam < self.A:
            raise ValueError("lambda must lie strictly between 1 and A, "
                             f"got {_quote(self.lam)}")


def exotic_element(e: ExoticParams) -> PLHomeo:
    """Multiplication by lambda on [1/(A-1), A/(A-1)] with wrap x ~ Ax,
    translated to standard circle coordinates.

    The result has two pieces of slopes lambda and lambda/A, with
    breakpoint jumps 1/A and A.
    """
    A, lam = e.A, e.lam
    y0 = (lam - 1) / (A - 1)
    xstar = (A - lam) / (lam * (A - 1))
    return PLHomeo(((0, y0), (xstar, 0)))


def random_pl(seed: int, k: int, denom_bound: int) -> PLHomeo:
    """Deterministic pseudo-random canonical map with at most k breakpoints
    and all vertex coordinates with denominators at most denom_bound."""
    _check_ints(0, k=k)
    _check_ints(1, denom_bound=denom_bound)
    if k > denom_bound:
        # there are 1 + sum(totient(q), q = 2..denom_bound) such rationals
        # in [0, 1), never fewer than denom_bound (0 and the 1/q)
        tot = list(range(denom_bound + 1))
        for p in range(2, denom_bound + 1):
            if tot[p] == p:  # p is prime
                for m in range(p, denom_bound + 1, p):
                    tot[m] -= tot[m] // p
        available = 1 + sum(tot[2:])
        if k > available:
            raise ValueError(f"{_quote(k)} breakpoints need {_quote(k)} distinct "
                             f"rationals in [0, 1), but only {available} have "
                             f"denominator at most {denom_bound}")
    rng = random.Random(seed)

    def rand_frac() -> Fraction:
        q = rng.randint(1, denom_bound)
        return Fraction(rng.randrange(q), q)

    def distinct(n):
        vals = set()
        while len(vals) < n:
            vals.add(rand_frac())
        return sorted(vals)

    if k == 0:
        return rotation(rand_frac())
    xs = distinct(k)
    ys = distinct(k)
    r = rng.randrange(k)
    pairs = [(xs[i], ys[(i + r) % k]) for i in range(k)]
    return PLHomeo(pairs)
