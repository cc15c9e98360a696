"""Exact fixed-point solving and rotation numbers for PL circle maps.

Fixed sets are read off the vertex gaps g_i = y_i - x_i of the lift F, each
held as the integer pair of its own vertex, with no common denominator: as
F - id is affine between vertices and spans less than 1, ceil(min g_i) is
the one integer it can take, the signs of the gaps less it are integer
signs, and one in-order pass over the pieces finds its zeros, building a
Fraction only for an interpolated zero.

The rotation number comes from one Stern-Brocot descent, which asks one
sign function per map about each p/q.  Outside the closed form below, p/q
with q <= max_q is tested at every point at once, exactly, on the orbits of
the chain heads, so a periodic orbit anywhere gives the exact answer:
PLHomeo._chains, built once per map, reads each head's orbit off the
vertices as far as its chain's members, and _head_orbit steps it on in
place, so this module and cocycle.growth_sequences read one prefix per map
and no position is stepped twice.  The heads are read one at a time, each
orbit extended only when its gap is read, and the first zero gap or pair
of opposite gaps ends the test.
Beyond max_q only the orbit of 0 is followed: integer enclosures of it
(_Enclosure) decide each sign, and the exact orbit every sign they leave
open, equality included, so no float decides an answer.  Both run on ints:
exact orbits are lowest-terms pairs stepped by the kernel PLHomeo._advance,
which builds no Fraction and no jump vector, and the enclosures step both
bounds over one piece table pre-scaled from PLHomeo._table.  The descent's
Farey mediants are in lowest terms, and become Fractions with no gcd.

Before the descent one periodic breakpoint orbit may settle it
(_periodic): a cycle of at most max_q breakpoints, read off the vertices,
or, when every chain's jump product is 1, as on a map of finite order
(a PL conjugate of a rational rotation) whose breakpoint orbits hold one
chain each, the first chain's head, walked until its first return mod 1.
A return after t <= max_q steps, t least, with winding W gives rho = (W
mod t)/t, the p/t the descent would meet, in at most t steps where the
descent extends every head to each mediant before p/t.  A map with a chain
of one breakpoint, as a generic map has, walks nothing.  The descent reads
the same chain list, so it steps no walked position again, and neither
does a later call on the same map.

Two kinds of map follow no orbit.  A rotation returns its angle.  A map
with two breakpoints, one mapped onto the other, such as an exotic element,
has an invariant density 1 / |x + b|, so its rotation number is ln s_1 /
ln A in closed form (_log_ratio): each sign of the same descent compares
q ln s_1 with p ln A through integer enclosures of the two logs, an atanh
series with floored terms and a proved tail bound, and the signs they leave
open, equality included, through s_1^q and A^p compared exactly.
"""
from __future__ import annotations

import bisect
import itertools
import math
from fractions import Fraction
from typing import Callable, List, NamedTuple, Optional, Tuple

from .circle import CirclePoint, _check_ints, _coprime, _exact
from .homeo import PLHomeo


class FixedSet(NamedTuple):
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
    """Solve h(x) = x exactly from the vertex gaps g_i = y_i - x_i, each the
    integer pair (n_i, e_i) = (y_n x_d - x_n y_d, x_d y_d) of its own vertex.

    F - id is affine between vertices and spans less than 1 over a period,
    so c = ceil(min g_i) = min ceil(n_i / e_i) is the only integer it can
    take, and none when n_i < c e_i for every i.  F - id - c has the sign of
    s_i = n_i - c e_i at x_i, as e_i > 0.  One in-order pass over the pieces
    [x_i, x_{i+1}], x_k = x_0 + 1 and s_k = s_0, adds the zeros of F - id - c,
    merged with the last interval when that ended on a whole piece: the
    whole piece when both ends are 0, its left vertex when only that end is,
    and when the signs differ the interpolated zero (x_i v + x_{i+1} u) /
    (u + v), u = |s_i| e_{i+1} and v = |s_{i+1}| e_i, the one Fraction built,
    in lowest terms mod 1.  A last piece that is whole ends at x_0 + 1, and
    its interval is joined onto the first one, which starts at x_0.  So
    every end is a vertex x_i, in [0, 1), or an interpolated zero."""
    verts = h.verts
    N, E = [], []
    for x, y in verts:
        xd, yd = x.denominator, y.denominator
        N.append(y.numerator * xd - x.numerator * yd)
        E.append(xd * yd)
    c = min(-(-n // e) for n, e in zip(N, E))
    S = [n - c * e for n, e in zip(N, E)]
    if max(S) < 0:
        return FixedSet(False, (), ())
    k = len(verts)
    if k == 1:  # a single vertex with gap c: the identity
        return FixedSet(True, (), ())
    merged: List[List[Fraction]] = []  # closed, [start, end]
    whole = False  # the last interval ends on a whole piece, at x_i
    for i, ((a, _), sa) in enumerate(zip(verts, S)):
        j = i + 1 - k  # i + 1 as a negative index: 0 for the last piece
        sb = S[j]
        if sa == 0:
            b = a if sb else verts[j][0]
            if whole:
                merged[-1][1] = b
            else:
                merged.append([a, b])
            whole = not sb
            continue
        if sb and (sa < 0) != (sb < 0):
            b = verts[j][0]
            bn, bd, ad = b.numerator, b.denominator, a.denominator
            if j == 0:
                bn += bd  # x_0 + 1
            u, v = abs(sa) * E[j], abs(sb) * E[i]
            n, d = a.numerator * bd * v + bn * ad * u, ad * bd * (u + v)
            g = math.gcd(n, d)
            x = _coprime(n // g % (d // g), d // g)
            merged.append([x, x])
        whole = False
    if whole:
        merged[0][0] = merged.pop()[0]
    points = tuple(CirclePoint(a) for a, b in merged if a == b)
    arcs = tuple((CirclePoint(a), CirclePoint(b)) for a, b in merged if a != b)
    return FixedSet(False, points, arcs)


class RotNumResult(NamedTuple):
    """Either an exact rational rotation number or a Farey bracket."""

    exact: Optional[Fraction] = None
    lo: Optional[Fraction] = None
    hi: Optional[Fraction] = None
    depth: int = 0

    @property
    def is_exact(self) -> bool:
        return self.exact is not None

    def __str__(self):  # of any size, as io.format_rational
        return _exact(lambda r: f"{r.exact.numerator}/{r.exact.denominator} (exact)"
                      if r.is_exact else f"[{r.lo}, {r.hi}] after {r.depth} refinements",
                      self)


def _lift_iterate(h: PLHomeo, t: Tuple[int, int], n: int) -> Tuple[int, int]:
    """F^n(t), with t and the result (numerator, denominator) pairs."""
    for _ in range(n):
        t = h._advance(*t)[:2]
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
    once into one tuple (X_{i+1}, alpha_i, beta_i L 2^b, gamma_i) per piece
    i, from its row F(u) = (alpha_i u + beta_i) / gamma_i: for T = L 2^b (u
    + m), with u in piece i and m the winding, L 2^b F(T / (L 2^b)) =
    (alpha_i (T - s) + beta_i L 2^b) / gamma_i + s, s = m L 2^b.  As hi >=
    lo, hi lies in lo's piece unless floor(hi / 2^b) reaches X_{i+1} + m L:
    a step looks up lo's piece and winding, and hi's only then."""

    def __init__(self, h: PLHomeo, b: int):
        L, X, R = h._table
        self.b, self.L, self.X, self.scale = b, L, X, L << b
        self.pieces = [(x, a, c * L << b, e)
                       for x, (a, c, e) in zip(X[1:] + [X[0] + L], R)]
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


def _atanh(u: int, v: int, w: int) -> Tuple[int, int]:
    """Integers lo <= 2^w atanh(u/v) <= hi, for 0 <= u/v <= 1/3.

    Term k of atanh z = sum z^(2k+1) / (2k+1) is floored twice: 2^w z^(2k+1)
    as P_k = floor(P_(k-1) u^2 / v^2), P_0 = floor(2^w u / v), which leaves
    0 <= 2^w z^(2k+1) - P_k < 1 + z^2 + z^4 + ... <= 9/8, and then
    floor(P_k / (2k+1)), which falls short of the term by less than 3.  So
    the sum S of the N terms before the first P_N = 0 lies within 3N below
    theirs, and as 2^w z^(2N+1) < 9/8 the rest of the series adds at most
    (9/8) / (1 - z^2) <= 81/64 < 2."""
    u2, v2 = u * u, v * v
    P = (u << w) // v
    S = n = 0
    while P:
        S += P // (2 * n + 1)
        P = P * u2 // v2
        n += 1
    return S, S + 3 * n + 2


def _ln(x: Fraction, w: int) -> Tuple[int, int]:
    """Integers lo <= 2^w ln x <= hi for a rational x > 0, with no float: x =
    2^k m, k the bit length difference of x's numerator and denominator, so
    m lies in (1/2, 2), and ln x = 2 atanh((m - 1)/(m + 1)) + 2k atanh(1/3),
    each |atanh| argument at most 1/3."""
    n, d = x.numerator, x.denominator
    k = n.bit_length() - d.bit_length()
    n, d = (n, d << k) if k >= 0 else (n << -k, d)
    lo, hi = _atanh(abs(n - d), n + d, w)
    if n < d:
        lo, hi = -hi, -lo
    lo2, hi2 = _atanh(1, 3, w)
    a, b = k * lo2, k * hi2  # bounds of 2^w k atanh(1/3), swapped when k < 0
    return 2 * (lo + min(a, b)), 2 * (hi + max(a, b))


class _LogRatio:
    """Signs of rho - p/q for rho = ln s / ln A, s and A positive rationals
    with A != 1: that of q ln s - p ln A, flipped when A < 1.

    Each sign is read off integer enclosures of 2^w ln s and 2^w ln A, at a
    precision w that grows with the bits of q (w is raised, and the logs
    computed again, only when q outgrows it), or, when the enclosures leave
    it open, off s^q and A^p compared exactly, equality included."""

    def __init__(self, s: Fraction, A: Fraction):
        self.s, self.A, self.w = s, A, 0

    def sign(self, p: int, q: int) -> int:
        """The sign of rho - p/q, for integers p, q >= 0."""
        sign = self.enclosed(p, q)
        if not sign:
            x, y = self.s ** q, self.A ** p
            sign = (x > y) - (x < y)
        return sign if self.A > 1 else -sign

    def enclosed(self, p: int, q: int) -> int:
        """The sign of q ln s - p ln A as the enclosures give it, 0 when they
        leave it open.  w is the power of 2 at or above 2 bits(q) + 64.
        Each enclosure is under 2w (1 + |k|) units of 2^-w wide, k the
        binary exponent _ln splits off, so with p <= q the sign stays open
        only at rho = p/q, or where a partial quotient of rho next to p/q
        exceeds about |ln A| 2^64 / (4w (1 + |k|))."""
        need = 2 * q.bit_length() + 64
        if need > self.w:
            self.w = 1 << (need - 1).bit_length()
            self.ln_s, self.ln_A = _ln(self.s, self.w), _ln(self.A, self.w)
        (s_lo, s_hi), (A_lo, A_hi) = self.ln_s, self.ln_A
        return (q * s_lo > p * A_hi) - (q * s_hi < p * A_lo)


def _log_ratio(h: PLHomeo) -> Optional[_LogRatio]:
    """rho(h) mod 1 = ln s_1 / ln A in closed form, for h with exactly two
    breakpoints c_1, c_2 and h(c_2) = c_1 mod 1 under either labelling, with
    s_1 the slope on the arc [c_1, c_2], s_2 the other one and A = s_1 / s_2;
    None for any other h.

    Rotate c_1 to 0 and let l = c_2 - c_1.  Then h is x -> 1 - s_1 (l - x)
    on [0, l] and x -> s_2 (x - l) on [l, 1], mod 1, with s_1 l + s_2 (1 - l)
    = 1.  With b = (1 - s_1 l) / (s_1 - 1) = s_2 l / (1 - s_2), each branch
    multiplies x + b by its slope: 1 - s_1 (l - x) + b = s_1 (x + b) and
    s_2 (x - l) + b = s_2 (x + b).  So the density 1 / |x + b| is invariant.
    It is positive on [0, 1]: b > 0 when s_1 > 1, b < -1 when s_1 < 1, and
    s_1 = 1 would force s_2 = 1, no breakpoint.  Its measure of [a, c] is
    |ln((c + b) / (a + b))|, and (1 + b) / (l + b) = s_1, b / (l + b) = s_2.
    Its normalized distribution function conjugates h to the rotation by
    rho, so rho mod 1 is the measure of [l, h(l)] = [l, 1] over that of
    [0, 1]: |ln s_1| / |ln A| = ln s_1 / ln A, in (0, 1), as s_1 and 1 / s_2
    lie on the same side of 1.  Minakawa's exotic elements are the case
    s_1 = lambda, A > 1 (Herman, Publ. Math. IHES 49, 1979; Ghys and
    Sergiescu, 1987)."""
    if len(h.verts) != 2:
        return None
    (x0, y0), (x1, y1) = h.verts
    s = (y1 - y0) / (x1 - x0)  # on [x0, x1]
    t = (y0 + 1 - y1) / (x0 + 1 - x1)  # on [x1, x0 + 1]
    if (y1 - x0).denominator == 1:  # h(x1) = x0
        return _LogRatio(s, s / t)
    if (y0 - x1).denominator == 1:  # h(x0) = x1
        return _LogRatio(t, t / s)
    return None


def _head_orbit(h: PLHomeo, chain, n: int) -> Tuple[List[Tuple[int, int]], List[int]]:
    """The head orbit of a chain of h._chains, F^t(x_head) = r_t/d_t + w_t,
    at least up to t = n, as its lists of lowest-terms (r_t, d_t), 0 <= r_t
    < d_t, and windings w_t, extended in place past the positions already
    read or stepped: the one loop that steps breakpoint orbits, one
    _advance per position, and none for a position some earlier reader of
    the same map stepped.  The lists may run past n."""
    *_, pairs, winds = chain
    step, (r, d), w = h._advance, pairs[-1], winds[-1]
    for _ in range(n + 1 - len(pairs)):
        r, d, _ = step(r, d)
        w, r = w + r // d, r % d
        pairs.append((r, d))
        winds.append(w)
    return pairs, winds


def _orbit_sign(h: PLHomeo, chains, max_q: int) -> Callable[[int, int], int]:
    """rotation_number's sign function for h outside _log_ratio's class:
    that of g = F^q - id - p - wq, w = floor(F(0)), if g has one sign, else
    0 (a periodic orbit).  F - id spans less than 1 and takes F(0) in [w,
    w + 1), so h fixes a point exactly when g vanishes at 0/1 or 1/1.  For
    q <= max_q the gaps g(c) at the breakpoints c decide g at every x: g
    keeps its sign along F-orbits and breaks only on the backward orbits of
    the c, so a zero of g that no c shares lies inside an affine piece of g
    whose two ends, and so two of the c, have opposite signs.  A chain
    member's gap has its head's sign, so only the heads' orbits are read.
    They are read one at a time, each extended to q only when its gap is
    read: a zero gap, or a gap of the other sign than one before it, is a
    periodic orbit and returns 0 at once, and the common sign is returned
    once every head agrees.  So the sign is (min(gaps) > 0) - (max(gaps) <
    0) over all the heads, and no orbit is stepped further than that reads
    it.  Past max_q x = 0 alone is tested."""
    enc = None  # built when q first passes max_q
    n, t = 1, h._advance(0, 1)[:2]  # the exact orbit of 0, t = F^n(0)
    w = t[0] // t[1]

    def sign(p: int, q: int) -> int:
        nonlocal enc, n, t
        target = p + w * q
        if q <= max_q:
            s = 0  # the sign of every gap read so far
            for chain in chains:
                *_, ps, ws = chain
                if len(ps) <= q:
                    _head_orbit(h, chain, q)
                # F^q(c) - c - target times d e, for F^q(c) = r/d + v and c = c/e
                (c, e), (r, d) = ps[0], ps[q]
                g = (r + (ws[q] - target) * d) * e - c * d
                if not g or s and (g > 0) != (s > 0):
                    return 0  # a periodic orbit
                s = 1 if g > 0 else -1
            return s
        if enc is None:
            enc = _Enclosure(h, _BITS)
        lower, upper = enc.at(q)
        scaled = target * enc.scale
        if not lower <= scaled <= upper:
            return 1 if lower > scaled else -1
        t, n = _lift_iterate(h, t, q - n), q
        return (t[0] > target * t[1]) - (t[0] < target * t[1])

    return sign


def _periodic(h: PLHomeo, chains, max_q: int) -> Optional[Fraction]:
    """rho(h) mod 1 off one breakpoint orbit of least period t <= max_q in
    chains = h._chains, or None: the first cycle of at most max_q
    breakpoints, whose positions h._chains read, or else, when every chain's
    jump product is 1, the first chain's head, walked until its first return
    mod 1, or max_q, in place, so the descent reads the walk with no step.

    A point c with F^t(c) = c + W, t least, has translation number W/t, and
    t is the denominator of rho in lowest terms.  So rho = 0 when t = 1.
    For t >= 2 h fixes no point, so F - id - w, w = floor(F(0)), never
    takes the value 0 or 1; as it takes F(0) - w in [0, 1) at 0, it lies in
    (0, 1), and so does its mean along the orbit, W/t - w, the descent's
    rho: (W mod t)/t.

    The gate multiplies J(h, x_m) = s_m / s_(m-1), s_i = alpha_i / gamma_i
    the slope of row i of _table, over a chain's members m, as two integer
    products.  By the chain rule the jump of h^q at a head is the product
    of h's jumps along q steps of its orbit, and a period of that orbit
    passes no breakpoint but its own chain's members when it holds no
    other chain.  So when h^q = id, such a chain has product 1.  A chain of
    one breakpoint never has, so a map with one walks nothing.  The gate
    only spares the walk: an answer is exact whichever orbit gives it."""
    chain = next((c for c in chains if c[1] and len(c[0]) <= max_q), None)
    if chain is None:
        R = h._table[2]
        for members, *_ in chains:
            n = d = 1
            for m in members:
                (a, _, e), (a0, _, e0) = R[m], R[m - 1]
                n, d = n * a * e0, d * a0 * e
            if n != d:
                return None
        chain = chains[0]
    for t in range(1, max_q + 1):
        pairs, winds = _head_orbit(h, chain, t)
        if pairs[t] == pairs[0]:
            return _coprime(winds[t] % t, t)
    return None


def rotation_number(h: PLHomeo, max_q: int = 32, depth: int = 16) -> RotNumResult:
    """Exact rotation number when it is p/q with q <= max_q or the search
    meets it, otherwise a Farey bracket refined `depth` times.

    The Stern-Brocot descent asks one sign function, of rho(h) mod 1 - p/q,
    about 0/1 and 1/1, where a 0 is a fixed point, then about each mediant
    p/q: the lower end when positive, the upper when negative, else exact.
    It goes on past `depth` while q <= max_q, as a p/q between Farey
    neighbours has q at least the sum of theirs.

    Before it, a map outside _log_ratio's class tries _periodic, a
    certificate from one breakpoint orbit: least period t <= max_q gives
    rho = p/t exactly, and that is what the descent returns.  Every mediant
    on the Stern-Brocot path to p/t has a denominator below t <= max_q, so
    the descent does not stop at `depth` before p/t.  Its sign at each of
    them is not 0, as rho is none of them, and at p/t it is 0 (at 0/1 or
    1/1, a fixed point, when t = 1)."""
    _check_ints(1, max_q=max_q, depth=depth)
    if h.is_rotation:  # its one vertex is (0, rho)
        return RotNumResult(exact=h.verts[0][1])
    logs = _log_ratio(h)
    if logs is not None:
        sign = logs.sign
    else:
        chains = h._chains
        exact = _periodic(h, chains, max_q)
        if exact is not None:
            return RotNumResult(exact=exact)
        sign = _orbit_sign(h, chains, max_q)
    if not (sign(0, 1) and sign(1, 1)):
        return RotNumResult(exact=Fraction(0))
    lo, hi = Fraction(0), Fraction(1)
    for step in itertools.count():
        p = lo.numerator + hi.numerator
        q = lo.denominator + hi.denominator
        if step == depth:
            bracket = RotNumResult(lo=lo, hi=hi, depth=depth)
        if step >= depth and q > max_q:
            return bracket
        s = sign(p, q)
        # Farey neighbours: hi.numerator lo.denominator - lo.numerator
        # hi.denominator = 1 stays true, so the mediant is in lowest terms
        if s > 0:
            lo = _coprime(p, q)
        elif s < 0:
            hi = _coprime(p, q)
        else:
            return RotNumResult(exact=_coprime(p, q))
