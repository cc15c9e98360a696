"""Canonical orientation-preserving piecewise linear circle homeomorphisms.

A map is stored by the vertices of one period of its lift graph: pairs
(x_i, y_i) with x_0 in [0,1), x strictly increasing over less than one
period, y_0 in [0,1), y strictly increasing, and an implicit closing
vertex (x_0 + 1, y_0 + 1).  Canonical form: every stored vertex is a
genuine breakpoint (adjacent slopes differ cyclically) and the base
vertex is the smallest breakpoint; rotations are stored as the single
vertex (0, alpha).
"""
from __future__ import annotations

import bisect
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from typing import Sequence, Tuple

from .circle import CirclePoint, frac_mod1

Vertex = Tuple[Fraction, Fraction]
_ONE = Fraction(1)


class InvalidHomeoError(ValueError):
    """Data does not define a canonical PL circle homeomorphism."""


def _lift_cyclic(values: Sequence[Fraction]):
    """Lift circle values (first taken as base) to an increasing sequence."""
    base = values[0]
    out = [base]
    for v in values[1:]:
        out.append(v + 1 if v < base else v)
    for a, b in zip(out, out[1:]):
        if not a < b:
            raise InvalidHomeoError(
                "vertex images are not in matching cyclic order "
                "(map is not an orientation-preserving homeomorphism)")
    return out


def _canonical(pairs) -> Tuple[Vertex, ...]:
    """Canonicalize vertex pairs, in circle or lift coordinates, into lift
    vertices.

    Merges vertices where the slope does not change and rebases at the
    smallest breakpoint; a map with no breakpoint collapses to a rotation.
    """
    pairs = sorted({(frac_mod1(x), frac_mod1(y)) for x, y in pairs})
    if not pairs:
        raise InvalidHomeoError("at least one vertex is required")
    xs = [p[0] for p in pairs]
    ys = [p[1] for p in pairs]
    if len(set(xs)) != len(xs):
        raise InvalidHomeoError("two vertices share the same x coordinate")
    if len(set(ys)) != len(ys):
        raise InvalidHomeoError("two vertices share the same image (map not injective)")
    ylift = _lift_cyclic(ys)
    k = len(pairs)
    ext_x = xs + [xs[0] + 1]
    ext_y = ylift + [ylift[0] + 1]
    slopes = [(ext_y[i + 1] - ext_y[i]) / (ext_x[i + 1] - ext_x[i]) for i in range(k)]
    keep = [i for i in range(k) if slopes[i - 1] != slopes[i]]
    if not keep:
        # constant slope around the circle forces slope 1: a rotation
        return ((Fraction(0), frac_mod1(ys[0] - xs[0])),)
    kxs = [xs[i] for i in keep]
    kys = _lift_cyclic([ys[i] for i in keep])
    return tuple(zip(kxs, kys))


@dataclass(frozen=True)
class PLHomeo:
    """Orientation-preserving PL circle homeomorphism in canonical form.

    The constructor takes vertex pairs in circle or lift coordinates and
    stores their canonical form, raising InvalidHomeoError when they do not
    define a homeomorphism; every map is built through it."""

    verts: Tuple[Vertex, ...]

    def __post_init__(self):
        object.__setattr__(self, "verts", _canonical(self.verts))

    # -- structure ---------------------------------------------------------

    @cached_property
    def _xs(self):
        return [p[0] for p in self.verts]

    @cached_property
    def _ys(self):
        return [p[1] for p in self.verts]

    @cached_property
    def slopes(self) -> Tuple[Fraction, ...]:
        xs = [p[0] for p in self.verts] + [self.verts[0][0] + 1]
        ys = [p[1] for p in self.verts] + [self.verts[0][1] + 1]
        return tuple((ys[i + 1] - ys[i]) / (xs[i + 1] - xs[i])
                     for i in range(len(self.verts)))

    @property
    def breakpoints(self) -> Tuple[CirclePoint, ...]:
        if len(self.verts) == 1:
            return ()
        return tuple(CirclePoint(frac_mod1(x)) for x in self._xs)

    @property
    def is_identity(self) -> bool:
        return self.verts == ((Fraction(0), Fraction(0)),)

    @property
    def is_rotation(self) -> bool:
        return len(self.verts) == 1

    @property
    def rotation_amount(self) -> Fraction:
        if not self.is_rotation:
            raise ValueError("not a rotation")
        return self.verts[0][1]

    # -- evaluation --------------------------------------------------------

    def _locate(self, t: Fraction) -> Tuple[int, Fraction, int]:
        """(i, u, m): t = u + m with m an integer and x_i <= u < x_{i+1}."""
        m = math.floor(t - self._xs[0])
        u = t - m if m else t
        return bisect.bisect_right(self._xs, u) - 1, u, m

    def lift_eval(self, t: Fraction) -> Fraction:
        """Evaluate the canonical lift (the one with value of x_0 in [0,1))."""
        i, u, m = self._locate(t)
        y = self._ys[i] + self.slopes[i] * (u - self._xs[i])
        return y + m if m else y

    def lift_eval_inverse(self, t: Fraction) -> Fraction:
        y0 = self._ys[0]
        m = math.floor(t - y0)
        u = t - m if m else t
        i = bisect.bisect_right(self._ys, u) - 1
        x = self._xs[i] + (u - self._ys[i]) / self.slopes[i]
        return x + m if m else x

    def eval(self, p: CirclePoint) -> CirclePoint:
        return CirclePoint(frac_mod1(self.lift_eval(p.value)))

    def eval_inverse(self, p: CirclePoint) -> CirclePoint:
        return CirclePoint(frac_mod1(self.lift_eval_inverse(p.value)))

    def left_right_slopes(self, p: CirclePoint) -> Tuple[Fraction, Fraction]:
        """Exact (left derivative, right derivative) at p."""
        i, u, _ = self._locate(p.value)
        if u == self._xs[i]:
            return self.slopes[i - 1], self.slopes[i]
        return self.slopes[i], self.slopes[i]

    def jump(self, p: CirclePoint) -> Fraction:
        """Derivative jump D+h(p) / D-h(p); equals 1 off the breakpoints."""
        left, right = self.left_right_slopes(p)
        return right / left

    @cached_property
    def _table(self):
        """One period in integers: L the lcm of the breakpoint denominators,
        X_i = x_i * L, piece i is y = (a_i * u + b_i) / D, J_i the jump at x_i."""
        xs, s = self._xs, self.slopes
        L = math.lcm(*(x.denominator for x in xs))
        X = [x.numerator * (L // x.denominator) for x in xs]
        cs = [y - si * x for x, y, si in zip(xs, self._ys, s)]
        D = math.lcm(*(q.denominator for q in (*s, *cs)))
        A = [q.numerator * (D // q.denominator) for q in s]
        B = [q.numerator * (D // q.denominator) for q in cs]
        J = [s[i] / s[i - 1] for i in range(len(s))]
        return L, X, A, B, D, J

    def _step(self, n: int, d: int) -> Tuple[int, int, Fraction]:
        """Eval and jump at the circle point n/d, given in lowest terms, in
        integers: (n', d', J) with n'/d' the image in lowest terms."""
        L, X, A, B, D, J = self._table
        f, r = divmod(n * L, d)  # f = floor(u * L)
        if f < X[0]:  # u = n/d + 1 lies in the lift period [x_0, x_0 + 1)
            n += d
            f += L
        i = bisect.bisect_right(X, f) - 1
        p, q = A[i] * n + B[i] * d, D * d
        g = math.gcd(p, q)
        p, q = p // g, q // g
        return (p - q if p >= q else p), q, (J[i] if r == 0 and f == X[i] else _ONE)

    # -- group operations --------------------------------------------------

    def compose(self, other: "PLHomeo") -> "PLHomeo":
        """self o other, canonicalized."""
        cuts = {frac_mod1(x) for x in other._xs}
        cuts.update(frac_mod1(other.lift_eval_inverse(frac_mod1(x)))
                    for x in self._xs)
        pairs = [(c, frac_mod1(self.lift_eval(frac_mod1(other.lift_eval(c)))))
                 for c in cuts]
        return PLHomeo(pairs)

    def inverse(self) -> "PLHomeo":
        pairs = [(frac_mod1(y), frac_mod1(x)) for x, y in self.verts]
        return PLHomeo(pairs)

    def iterate(self, n: int) -> "PLHomeo":
        """n-th iterate (negative n iterates the inverse), by sequential composition."""
        if n == 0:
            return identity()
        base = self if n > 0 else self.inverse()
        result = base
        for _ in range(abs(n) - 1):
            result = base.compose(result)
        return result


def from_lift_vertices(pairs) -> PLHomeo:
    """Build a canonical map from lift vertices, closing vertex optional
    (it reduces mod 1 to the base vertex)."""
    return PLHomeo(pairs)


def rotation(alpha) -> PLHomeo:
    """The rotation x -> x + alpha mod 1."""
    return PLHomeo(((0, alpha),))


def identity() -> PLHomeo:
    return rotation(0)


@dataclass(frozen=True)
class ExoticParams:
    """Parameters (A, lambda) of an element of the exotic circle S_A."""

    A: Fraction
    lam: Fraction

    def __post_init__(self):
        object.__setattr__(self, "A", Fraction(self.A))
        object.__setattr__(self, "lam", Fraction(self.lam))
        if not self.A > 1:
            raise ValueError(f"modulus A must exceed 1, got {self.A}")
        if not 1 < self.lam < self.A:
            raise ValueError(f"lambda must lie strictly between 1 and A, got {self.lam}")


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
    if k < 0:
        raise ValueError("k must be non-negative")
    if denom_bound < 1:
        raise ValueError("denom_bound must be positive")
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
            raise ValueError(f"{k} breakpoints need {k} distinct rationals in "
                             f"[0, 1), but only {available} have denominator "
                             f"at most {denom_bound}")
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
