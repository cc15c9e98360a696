import bisect
import decimal
import itertools
import math
from collections import Counter
from fractions import Fraction as F
from types import SimpleNamespace

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plcircle import (ExoticParams, PLHomeo, RotNumResult, exotic_element,
                      fixed_points, from_lift_vertices, identity, random_pl,
                      reduce_mod1, rotation, rotation_number)
from plcircle import rotnum
from plcircle.circle import CirclePoint, frac_mod1
from plcircle.rotnum import FixedSet

STD = from_lift_vertices([(0, 0), (F(1, 2), F(1, 4)), (1, 1)])
BITS = rotnum._BITS


def oracle_fixed_points(h):
    """Test oracle: the earlier solver of h(x) = x.  Each piece is solved in
    Fraction arithmetic for every integer between the gaps at its ends;
    the intervals found are sorted, then merged in a second pass."""
    xs = [x for x, _ in h.verts] + [h.verts[0][0] + 1]
    ys = [y for _, y in h.verts] + [h.verts[0][1] + 1]
    intervals = []  # closed, in lift coords
    for i in range(len(h.verts)):
        a, b = xs[i], xs[i + 1]
        s = (ys[i + 1] - ys[i]) / (b - a)
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


def restart_rotation_number(h, max_q=32, depth=16):
    """Test oracle: rotation_number with the Farey phase as a restart loop,
    each mediant p/q compared, after the shift by w = floor(F(0)), with
    F^q(0) computed afresh in exact arithmetic.  A rotation returns its
    angle."""
    if h.is_rotation:
        return RotNumResult(exact=h.lift_eval(F(0)) % 1)
    power = h
    for q in range(1, max_q + 1):
        fs = fixed_points(power)
        if not fs.is_empty:
            if fs.full:
                u = F(0)
            elif fs.points:
                u = fs.points[0].value
            else:
                u = fs.arcs[0][0].value
            t = u
            for _ in range(q):
                t = h.lift_eval(t)
            return RotNumResult(exact=F(int(t - u), q) % 1)
        if q < max_q:
            power = power.compose(h)
    w = math.floor(h.lift_eval(F(0)))
    lo, hi = F(0), F(1)
    for _ in range(depth):
        p = lo.numerator + hi.numerator
        q = lo.denominator + hi.denominator
        t = F(0)
        for _ in range(q):
            t = h.lift_eval(t)
        if t > p + w * q:
            lo = F(p, q)
        elif t < p + w * q:
            hi = F(p, q)
        else:
            return RotNumResult(exact=F(p, q) % 1)
    return RotNumResult(lo=lo, hi=hi, depth=depth)


def count_sign_tests(mp, bits):
    """Set the enclosure precision to `bits`.  Returns a Counter of the
    enclosure reads, keyed "enclosure", and of the exact orbit extensions,
    keyed "exact": one per sign test the enclosure leaves open, in a map
    with no periodic point of period <= max_q."""
    mp.setattr(rotnum, "_BITS", bits)
    counts = Counter()
    at, lift_iterate = rotnum._Enclosure.at, rotnum._lift_iterate

    def counted_at(self, q):
        counts["enclosure"] += 1
        return at(self, q)

    def counted_lift_iterate(h, t, n):
        counts["exact"] += 1
        return lift_iterate(h, t, n)

    mp.setattr(rotnum._Enclosure, "at", counted_at)
    mp.setattr(rotnum, "_lift_iterate", counted_lift_iterate)
    return counts


def oracle_enclosure(h, b, steps):
    """Test oracle: the enclosure with each bound stepped on its own, on
    the grid 1 / 2^b.  Returns the bounds lo <= 2^b F^n(0) <= hi for
    n = 1..steps; each step looks up the piece of lo and of hi in
    PLHomeo._table, and evaluates its row F(u) = (alpha u + beta) / gamma at
    u = t / 2^b - m."""
    L, X, R = h._table
    lo = hi = 0
    bounds = []
    for _ in range(steps):
        f = lo * L >> b
        m = (f - X[0]) // L
        a, c, e = R[bisect.bisect_right(X, f - m * L) - 1]
        lo = (a * (lo - (m << b)) + (c << b)) // e + (m << b)
        f = hi * L >> b
        m = (f - X[0]) // L
        a, c, e = R[bisect.bisect_right(X, f - m * L) - 1]
        hi = -(-(a * (hi - (m << b)) + (c << b)) // e) + (m << b)
        bounds.append((lo, hi))
    return bounds


def check_enclosure(h, bits, steps=300):
    """Step rotnum._Enclosure at `bits` through n = 1..steps, checking
    oracle_lo L <= lo <= L 2^b F^n(0) <= hi <= oracle_hi L with the exact
    orbit from _lift_iterate.  Returns the number of second piece lookups,
    those made for hi beyond the one per step for lo."""
    lookups = []

    def counted_bisect_right(xs, x):
        lookups.append(x)
        return bisect.bisect_right(xs, x)

    L = h._table[0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rotnum, "bisect", SimpleNamespace(bisect_right=counted_bisect_right))
        enc = rotnum._Enclosure(h, bits)
        assert enc.scale == L << bits
        t = (0, 1)
        for n, (oracle_lo, oracle_hi) in enumerate(oracle_enclosure(h, bits, steps), 1):
            lo, hi = enc.at(n)
            t = rotnum._lift_iterate(h, t, 1)
            assert oracle_lo * L <= lo
            assert lo * t[1] <= (L << bits) * t[0] <= hi * t[1]
            assert hi <= oracle_hi * L
    return len(lookups) - steps


# a rotation number p/q with q beyond max_q = 4 and within the Farey depth 16,
# so the bracket search meets the mediant p/q and an exact equality
hidden_rotations = st.integers(5, 13).flatmap(lambda q: st.sampled_from(
    [F(p, q) for p in range(1, q) if math.gcd(p, q) == 1]))

# integer (A, lambda) with 1 < lambda < A: rotation number log lambda / log A
exotic_pairs = st.integers(3, 12).flatmap(
    lambda A: st.tuples(st.just(A), st.integers(2, A - 1)))


# slopes 2, 1 and 1/2: its conjugates of dyadic rotations have dyadic orbits,
# and its conjugates of two-breakpoint maps have more breakpoints
DYADIC_PHI = PLHomeo([(0, 0), (F(1, 4), F(1, 2)), (F(1, 2), F(3, 4))])


def dyadic_conjugate(g):
    return DYADIC_PHI.compose(g).compose(DYADIC_PHI.inverse())


def conjugate_exotic(seed, pair):
    A, lam = pair
    phi = random_pl(seed, 3, 16)
    return phi.compose(exotic_element(ExoticParams(F(A), F(lam)))).compose(phi.inverse())


def test_fixed_points_identity_full():
    assert fixed_points(identity()).full


def test_fixed_points_rotation_empty():
    assert fixed_points(rotation(F(1, 3))).is_empty


def test_fixed_points_standard():
    fs = fixed_points(STD)
    assert fs.points == (reduce_mod1(0),)
    assert fs.arcs == () and not fs.full


def test_fixed_points_arc():
    # identity on [0, 1/4], a kink in between
    h = from_lift_vertices([(0, 0), (F(1, 4), F(1, 4)), (F(1, 2), F(5, 16)), (1, 1)])
    fs = fixed_points(h)
    assert (reduce_mod1(0), reduce_mod1(F(1, 4))) in fs.arcs


def fixing_vertex(h, i):
    """h followed by the rotation taking h(x_i) back to x_i, a map that
    fixes x_i, with i taken mod the vertex count."""
    x = h.verts[i % len(h.verts)][0]
    return rotation(x - h.lift_eval(x)).compose(h)


@st.composite
def diagonal_arc_maps(draw):
    """A map on the grid 1/n that is the identity on one arc [a, b] and has
    vertices (c, d), (d, c) or both beyond it; the shift s may carry the arc
    past x_0 + 1."""
    n = draw(st.integers(4, 40))
    a, b, c, d = sorted(draw(st.lists(st.integers(0, n - 1), min_size=4,
                                      max_size=4, unique=True)))
    kinks = draw(st.sampled_from([[(c, d)], [(d, c)], [(c, c + (d - c) // 2), (d, d)]]))
    s = draw(st.integers(0, n - 1))
    return PLHomeo([(F((x + s) % n, n), F((y + s) % n, n))
                    for x, y in [(a, a), (b, b)] + kinks])


exotic_maps = exotic_pairs.map(lambda p: exotic_element(ExoticParams(F(p[0]), F(p[1]))))

fixed_set_maps = st.one_of(
    st.builds(random_pl, st.integers(0, 10**6), st.integers(0, 8),
              st.sampled_from([6, 32, 512])),
    st.builds(fixing_vertex, st.builds(random_pl, st.integers(0, 10**6),
                                       st.integers(0, 8), st.just(32)),
              st.integers(0, 8)),
    exotic_maps,
    st.builds(fixing_vertex, exotic_maps, st.integers(0, 1)),
    diagonal_arc_maps(),
    st.fractions(0, 1, max_denominator=64).map(rotation),
    st.just(identity()))


# identity on [3/4, 5/4] with x_0 = 1/4: the arc wraps past x_0 + 1
@example(PLHomeo([(F(1, 4), F(1, 4)), (F(1, 2), F(5, 16)), (F(3, 4), F(3, 4))]))
@example(STD)
@example(identity())
@given(fixed_set_maps)
@settings(max_examples=300, deadline=None)
def test_fixed_points_match_the_piecewise_oracle(h):
    assert fixed_points(h) == oracle_fixed_points(h)


def test_fixed_points_match_the_piecewise_oracle_on_a_seeded_sweep():
    # 2,500 seeded random_pl maps, each also rotated to fix a vertex and
    # composed with STD on either side: 10,000 maps
    nonempty = 0
    for seed in range(2500):
        h = random_pl(seed, seed % 9, (6, 32, 512)[seed % 3])
        for f in (h, fixing_vertex(h, seed), h.compose(STD), STD.compose(h)):
            fs = fixed_points(f)
            assert fs == oracle_fixed_points(f), f.verts
            nonempty += not fs.is_empty
    assert nonempty > 5000


def test_rotation_number_of_rotations():
    for q in range(1, 12):
        for p in range(q):
            if math.gcd(p, q) == 1:
                r = rotation_number(rotation(F(p, q)), max_q=12)
                assert r.is_exact and r.exact == F(p, q)


def test_rotation_number_exotic_half():
    g = exotic_element(ExoticParams(F(4), F(2)))
    assert g.iterate(2) == identity()
    r = rotation_number(g, max_q=4)
    assert r.is_exact and r.exact == F(1, 2)


@given(st.builds(random_pl, seed=st.integers(0, 10**6), k=st.just(3),
                 denom_bound=st.just(16)))
@settings(max_examples=25, deadline=None)
def test_rotation_number_conjugacy_invariance(phi):
    h = phi.compose(rotation(F(1, 3))).compose(phi.inverse())
    r = rotation_number(h, max_q=4)
    assert r.is_exact and r.exact == F(1, 3)


def test_rotation_number_power_identity():
    h = rotation(F(2, 7))
    r1 = rotation_number(h, max_q=8).exact
    r3 = rotation_number(h.iterate(3), max_q=8).exact
    assert r3 == (3 * r1) % 1


def test_rotation_number_zero_iff_fixed_point():
    assert rotation_number(STD, max_q=3).exact == 0
    r = rotation_number(rotation(F(1, 3)), max_q=2, depth=8)
    assert not r.is_exact or r.exact != 0


@given(seed=st.integers(0, 10**6), k=st.integers(0, 6), fix_zero=st.booleans())
# w = floor(F(0)) is -1 and 0, and F - id takes w + 1 alone: the test at 1/1
# finds these fixed points, the test at 0/1 none
@example(seed=1, k=3, fix_zero=False)  # F(0) = -526/13175
@example(seed=2, k=3, fix_zero=False)  # F(0) = 2/3
@settings(max_examples=100, deadline=None)
def test_zero_rotation_number_iff_fixed_point(seed, k, fix_zero):
    # q = 1 is settled by the gap signs at 0/1 and 1/1; fixed_points is the
    # oracle
    h = random_pl(seed, k, 32)
    if fix_zero:
        h = rotation(-h.eval(reduce_mod1(0)).value).compose(h)
    assert (rotation_number(h, depth=4).exact == 0) == (not fixed_points(h).is_empty)


def test_bracket_refinement():
    # an exotic element with lambda = 2, A = 5 has irrational rotation number
    g = exotic_element(ExoticParams(F(5), F(2)))
    r = rotation_number(g, max_q=8, depth=10)
    assert not r.is_exact
    assert r.lo < r.hi
    # Farey neighbours: hi - lo = 1/(den(lo) * den(hi))
    assert r.hi - r.lo == F(1, r.lo.denominator * r.hi.denominator)
    wider = rotation_number(g, max_q=8, depth=5)
    assert r.hi - r.lo < wider.hi - wider.lo


@pytest.mark.parametrize("bits", [BITS, 1])
@given(seed=st.integers(0, 10**6), alpha=hidden_rotations)
@settings(max_examples=15, deadline=None)
def test_farey_phase_matches_restart_oracle_on_hidden_rotations(bits, seed, alpha):
    phi = random_pl(seed, 3, 16)
    h = phi.compose(rotation(alpha)).compose(phi.inverse())
    want = restart_rotation_number(h, max_q=4)
    assert want == RotNumResult(exact=alpha)
    with pytest.MonkeyPatch.context() as mp:
        counts = count_sign_tests(mp, bits)
        assert rotation_number(h, max_q=4) == want
    # equality is never decided by an enclosure
    assert counts["exact"] >= 1


@pytest.mark.parametrize("bits", [BITS, 1])
@given(seed=st.integers(0, 10**6), pair=exotic_pairs, depth=st.integers(1, 18))
@settings(max_examples=25, deadline=None)
def test_farey_phase_matches_restart_oracle_on_exotic_pairs(bits, seed, pair, depth):
    # a PL conjugate: exotic elements themselves take the closed form
    h = conjugate_exotic(seed, pair)
    want = restart_rotation_number(h, max_q=6, depth=depth)
    with pytest.MonkeyPatch.context() as mp:
        count_sign_tests(mp, bits)
        assert rotation_number(h, max_q=6, depth=depth) == want


@given(seed=st.integers(0, 10**6), pair=exotic_pairs)
@example(seed=47, pair=(10, 7))  # F(0) < 0
@settings(max_examples=25, deadline=None)
def test_conjugated_exotic_bracket_closed_form(seed, pair):
    # a conjugate's canonical lift may have F(0) < 0 and a negative
    # translation number; the bracket is still of rho mod 1 =
    # log lam / log A, checked with integers only
    A, lam = pair
    h = conjugate_exotic(seed, pair)
    r = rotation_number(h, max_q=6, depth=12)
    assert r == restart_rotation_number(h, max_q=6, depth=12)
    if r.is_exact:
        assert lam ** r.exact.denominator == A ** r.exact.numerator
        return
    a, b = r.lo.numerator, r.lo.denominator
    c, d = r.hi.numerator, r.hi.denominator
    assert A ** a < lam ** b and lam ** d < A ** c


def _conjugate_rotation(seed, alpha):
    phi = random_pl(seed, 3, 16)
    return phi.compose(rotation(alpha)).compose(phi.inverse())


def test_rotation_number_of_lift_below_zero():
    h = _conjugate_rotation(37244, F(7, 8))
    assert h.lift_eval(F(0)) < 0
    assert str(rotation_number(h, max_q=4)) == "7/8 (exact)"


@pytest.mark.parametrize("make, kwargs, want", [
    # exact beyond max_q: breakpoint orbits, enclosure and the orbit of 0
    (lambda: _conjugate_rotation(5, F(5, 7)), {"max_q": 4}, "5/7 (exact)"),
    # the enclosure decides every sign past q = 32
    (lambda: dyadic_conjugate(exotic_element(ExoticParams(F(6), F(2)))),
     {"depth": 24}, "[4296/11105, 665/1719] after 24 refinements"),
    # a canonical lift with F(0) < 0, as in test_rotation_number_of_lift_below_zero
    (lambda: _conjugate_rotation(37244, F(7, 8)), {"max_q": 4}, "7/8 (exact)"),
])
def test_rotation_number_never_calls_lift_eval(monkeypatch, make, kwargs, want):
    # every evaluation goes through the integer kernel: PLHomeo._advance, or
    # PLHomeo._table for the enclosure
    h = make()

    def forbidden(self, t):
        raise AssertionError("rotation_number called lift_eval")

    monkeypatch.setattr(PLHomeo, "lift_eval", forbidden)
    assert str(rotation_number(h, **kwargs)) == want


@pytest.mark.parametrize("alpha", [F(7, 40), F(3, 16)])
def test_rotation_number_exact_beyond_max_q(monkeypatch, alpha):
    # the orbit of 0 under a dyadic conjugate of R(3/16) is dyadic, so its
    # enclosures are exact and equality meets lower = upper = p 2^b; for
    # both angles the exact orbit decides the one sign at p/q = alpha alone
    h = dyadic_conjugate(rotation(alpha))
    want = restart_rotation_number(h, max_q=8)
    counts = count_sign_tests(monkeypatch, BITS)
    r = rotation_number(h, max_q=8)
    assert r == want
    assert str(r) == f"{alpha} (exact)"
    assert counts["exact"] == 1


def test_rotation_number_of_a_rotation_is_its_angle():
    # no descent: at depth 16 it would stop at [0, 1/17]
    for alpha in (F(0), F(1, 3), F(109, 9500)):
        r = rotation_number(rotation(alpha), max_q=1, depth=1)
        assert r == RotNumResult(exact=alpha)


def two_break_map(l, s1, a):
    """The map with breakpoints a and a + l, slope s1 on [a, a + l] and
    a + l taken to a: rho = log s1 / log(s1 / s2), s2 the other slope."""
    return PLHomeo([(a, a + 1 - s1 * l), (a + l, a + 1)])


# the class rotnum._log_ratio takes: exotic elements, their inverses and
# rotation conjugates, and two-breakpoint maps with s1 < 1
two_break_maps = st.one_of(
    exotic_maps,
    exotic_maps.map(PLHomeo.inverse),
    st.builds(lambda e, a: rotation(a).compose(e).compose(rotation(-a)),
              exotic_maps, st.fractions(0, 1, max_denominator=64)),
    st.builds(two_break_map, st.integers(1, 31).map(lambda i: F(i, 32)),
              st.tuples(st.integers(1, 11), st.integers(2, 12)).filter(
                  lambda t: t[0] < t[1]).map(lambda t: F(*t)),
              st.fractions(0, 1, max_denominator=64)))


# s1 = 1/2 and A = s1 / s2 = 1/8: rho = 1/3
@example(h=two_break_map(F(6, 7), F(1, 2), F(0)), max_q=2, depth=4)
@example(h=exotic_element(ExoticParams(F(4), F(2))).inverse(), max_q=1, depth=1)
@pytest.mark.parametrize("log_bounds", ["enclosures", "open"])
@given(h=two_break_maps, max_q=st.integers(1, 12), depth=st.integers(1, 14))
@settings(max_examples=60, deadline=None)
def test_closed_form_matches_restart_oracle(log_bounds, h, max_q, depth):
    # the closed form gives every sign: no orbit enclosure, no exact orbit
    assert rotnum._log_ratio(h) is not None
    want = restart_rotation_number(h, max_q=max_q, depth=depth)
    with pytest.MonkeyPatch.context() as mp:
        counts = count_sign_tests(mp, BITS)
        if log_bounds == "open":
            # bounds that leave every sign open, for s^q and A^p to decide
            mp.setattr(rotnum, "_ln", lambda x, w: (-1 << 2 * w, 1 << 2 * w))
        assert rotation_number(h, max_q=max_q, depth=depth) == want
    assert not counts


@given(h=st.one_of(two_break_maps, st.builds(random_pl, st.integers(0, 10**6), st.just(2),
                                              st.sampled_from((3, 4, 8, 32)))))
@settings(max_examples=300, deadline=None)
def test_log_ratio_takes_the_maps_with_one_breakpoint_onto_the_other(h):
    # the class, read in Fractions: two breakpoints, one mapped onto the
    # other, with s the slope after the one that is the image
    logs = rotnum._log_ratio(h)
    if len(h.verts) != 2:
        assert logs is None
        return
    (x0, y0), (x1, y1) = h.verts
    s, t = (y1 - y0) / (x1 - x0), (y0 + 1 - y1) / (x0 + 1 - x1)
    if (y1 - x0).denominator == 1:
        assert (logs.s, logs.A) == (s, s / t)
    elif (y0 - x1).denominator == 1:
        assert (logs.s, logs.A) == (t, t / s)
    else:
        assert logs is None


@given(h=two_break_maps, qs=st.lists(st.integers(1, 5000), min_size=1, max_size=6))
@settings(max_examples=40, deadline=None)
def test_enclosed_signs_match_exact_powers(h, qs):
    # q ln s - p ln A against s^q - A^p, for p next to q rho, where the two
    # logs' enclosures must be tightest (a float only picks those p), and
    # at 0 and q; one _LogRatio serves every q, raising its precision as q
    # grows
    logs = rotnum._log_ratio(h)
    s, A = logs.s, logs.A
    for q in sorted(qs):
        p0 = round(q * math.log(s) / math.log(A))
        for p in {0, q, p0 - 1, p0, p0 + 1} & set(range(q + 1)):
            x, y = s ** q, A ** p
            exact = (x > y) - (x < y)
            assert logs.enclosed(p, q) == exact
            assert logs.sign(p, q) == (exact if A > 1 else -exact)


def decimal_ln(x):
    """ln x for a positive Fraction, correctly rounded to the context."""
    return decimal.Decimal(x.numerator).ln() - decimal.Decimal(x.denominator).ln()


@pytest.mark.parametrize("A, lam", [(6, 2), (10, 3), (7, 5)])
def test_enclosed_signs_raise_their_precision_with_q(A, lam):
    # q = 1 sets w = 128; the convergents p/q of rho with q past 2^64 have
    # |q ln s - p ln A| below what enclosures at w = 128 can separate, so
    # the same _LogRatio must raise w and compute both logs again, and then
    # decide every sign as decimal's logs, to 300 digits, give it
    logs = rotnum._log_ratio(exotic_element(ExoticParams(F(A), F(lam))))
    with decimal.localcontext() as ctx:
        ctx.prec = 300
        ln_s, ln_A = decimal_ln(logs.s), decimal_ln(logs.A)
        rho = ln_s / ln_A
        assert logs.enclosed(0, 1) == (ln_s > 0) - (ln_s < 0)
        assert logs.w == 128
        (p0, q0), (p, q), x, far = (0, 1), (1, 0), rho, 0
        while q < 1 << 100:
            a = int(x)
            (p0, q0), (p, q), x = (p, q), (a * p + p0, a * q + q0), 1 / (x - a)
            if q > 1 << 64:
                want = q * ln_s - p * ln_A
                assert logs.enclosed(p, q) == (want > 0) - (want < 0) != 0
                far += 1
    assert far and logs.w >= 256


@given(n=st.integers(1, 10**40), d=st.integers(1, 10**40),
       w=st.sampled_from([64, 128, 1024]))
@example(n=1, d=1, w=64)
@example(n=2, d=1, w=64)
# atanh's argument is 1/(2^71 + 1): its first floored term is 0 already,
# and only the tail bound lifts hi above 2^64 ln x
@example(n=2 ** 70 + 1, d=2 ** 70, w=64)
@settings(max_examples=200, deadline=None)
def test_ln_enclosure_contains_decimal_ln(n, d, w):
    # decimal's ln is correctly rounded, here to 400 digits: an oracle
    # independent of the atanh series
    x = F(n, d)
    with decimal.localcontext() as ctx:
        ctx.prec = 400
        exact = decimal.Decimal(x.numerator).ln() - decimal.Decimal(x.denominator).ln()
        lo, hi = rotnum._ln(x, w)
        assert decimal.Decimal(lo) <= exact * 2 ** w <= decimal.Decimal(hi)
    # the width _LogRatio.enclosed counts on
    k = abs(x.numerator.bit_length() - x.denominator.bit_length())
    assert hi - lo < 2 * w * (1 + k)


def test_rational_rotation_number_past_max_q():
    # log 4 / log 32 = 2/5: q = 5 > max_q, met by s1^5 = A^2 exactly
    h = exotic_element(ExoticParams(F(32), F(4)))
    want = RotNumResult(exact=F(2, 5))
    assert rotation_number(h, max_q=2) == restart_rotation_number(h, max_q=2) == want


def test_exotic_bracket_at_depth_60():
    # the orbit descent takes about 25 s here, stepping the orbit of 0 to
    # q = 31,243,955
    r = rotation_number(exotic_element(ExoticParams(F(5), F(2))), depth=60)
    assert str(r) == "[1936274/4495889, 13456039/31243955] after 60 refinements"
    assert r.hi.numerator * r.lo.denominator - r.lo.numerator * r.hi.denominator == 1


@pytest.mark.parametrize("bits", [BITS, 16, 1])
def test_exotic_bracket_at_each_precision(monkeypatch, bits):
    # a PL conjugate of exotic(6, 2): the element itself takes the closed form
    h = dyadic_conjugate(exotic_element(ExoticParams(F(6), F(2))))
    want = restart_rotation_number(h, depth=21)
    counts = count_sign_tests(monkeypatch, bits)
    r = rotation_number(h, depth=21)
    assert r == want and not r.is_exact
    # mediants 1/2 ... 12/31 have q <= max_q = 32 and are tested exactly on
    # the breakpoint orbits; the other 14 read the enclosure
    assert counts["enclosure"] == 14
    if bits == BITS:
        assert counts["exact"] == 0
    elif bits == 16:
        # the enclosure decides some tests and the exact orbit the rest
        assert 0 < counts["exact"] < 14
    else:
        assert counts["exact"] == 14


@pytest.mark.parametrize("bits", [BITS, 1])
@given(seed=st.integers(0, 10**6), k=st.integers(1, 5),
       max_q=st.integers(1, 16), depth=st.integers(1, 16))
@example(seed=3, k=4, max_q=24, depth=16)  # rho = 13/23
@example(seed=4, k=5, max_q=3, depth=1)  # rho = 1/3, met past depth
@settings(max_examples=100, deadline=None)
def test_descent_matches_restart_oracle_on_random_maps(bits, seed, k, max_q, depth):
    # a rational rotation number p/q is often carried by a periodic orbit
    # that misses 0; then only the test over every x finds it
    h = random_pl(seed, k, 32)
    want = restart_rotation_number(h, max_q=max_q, depth=depth)
    with pytest.MonkeyPatch.context() as mp:
        count_sign_tests(mp, bits)
        assert rotation_number(h, max_q=max_q, depth=depth) == want


# random maps (k = 0 and 1 give rotations), exotic elements and their
# conjugates
enclosure_maps = st.one_of(
    st.builds(random_pl, seed=st.integers(0, 10**6), k=st.integers(0, 6),
              denom_bound=st.just(32)),
    exotic_pairs.map(lambda p: exotic_element(ExoticParams(F(p[0]), F(p[1])))),
    st.builds(conjugate_exotic, seed=st.integers(0, 10**6), pair=exotic_pairs))


@pytest.mark.parametrize("bits", [BITS, 1])
@given(h=enclosure_maps)
@example(h=conjugate_exotic(47, (10, 7)))  # F(0) < 0
@settings(max_examples=30, deadline=None)
def test_enclosure_lies_inside_the_coarse_oracle(bits, h):
    # grid 1 / 2^b lies on grid 1 / (L 2^b), so each step's floor and
    # ceiling can only tighten the oracle's bounds
    check_enclosure(h, bits)


@pytest.mark.parametrize("make, bits", [
    # the orbit of 0 meets an integer, where the piece wraps, at n = 3
    (lambda: rotation(F(1, 3)), BITS),
    # the orbit of 0 converges to the fixed breakpoint 1/2 from below, so
    # the bounds come to lie on both sides of it
    (lambda: random_pl(171, 3, 32), BITS),
    # the bounds spread over several pieces
    (lambda: exotic_element(ExoticParams(F(6), F(2))), 1),
])
def test_enclosure_looks_up_a_second_piece(make, bits):
    assert check_enclosure(make(), bits) >= 1


@pytest.mark.parametrize("kwargs", [
    {"depth": 2.5}, {"depth": F(5, 2)}, {"depth": True}, {"max_q": 4.0},
    {"max_q": False}, {"max_q": "8"},
])
def test_rotation_number_rejects_non_int_arguments(kwargs):
    (name, value), = kwargs.items()
    with pytest.raises(ValueError, match=f"^{name} must be an int"):
        rotation_number(rotation(F(1, 3)), **kwargs)


def gap_signs(h, q, js):
    """For each p in 1..q-1, the sign of g = F^q - id - p - wq over the
    points F^-j(c), j in js, c a breakpoint of F: 0 when g vanishes or
    changes sign on them."""
    w = math.floor(h.lift_eval(F(0)))
    gaps = []
    for c, _ in h.verts:
        fwd, bwd = [c], [c]
        for _ in range(q):
            fwd.append(h.lift_eval(fwd[-1]))
            bwd.append(h.lift_eval_inverse(bwd[-1]))
        gaps += [fwd[q - j] - bwd[j] for j in js]
    return [(min(gaps) > p + w * q) - (max(gaps) < p + w * q) for p in range(1, q)]


@given(seed=st.integers(0, 10**6), k=st.integers(1, 6), q=st.integers(2, 12))
@example(seed=3, k=4, q=23)  # rho = 13/23
@settings(max_examples=60, deadline=None)
def test_breakpoints_of_the_map_decide_every_sign(seed, k, q):
    # the F^-j(c), j < q, are the breakpoints of F^q, where the PL map g is
    # extreme, so they give its sign everywhere; rotation_number reads the
    # gaps F^q(c) - c at j = 0 alone
    h = random_pl(seed, k, 32)
    assert gap_signs(h, q, [0]) == gap_signs(h, q, range(q))


@pytest.mark.parametrize("seed, k, rho", [(3, 4, F(13, 23)), (4, 5, F(1, 3))])
def test_exact_where_zero_is_not_periodic(seed, k, rho):
    h = random_pl(seed, k, 32)
    assert rotation_number(h) == RotNumResult(exact=rho)
    t = F(0)
    for _ in range(rho.denominator):
        t = h.lift_eval(t)
    assert t != math.floor(t)


def test_exact_on_a_semistable_orbit_through_one_breakpoint():
    # {0, 1/2} is the only periodic orbit, and F^2 - id - 1 >= 0 touches 0
    # there alone: the gap at the breakpoint 0 is 0, the other four positive
    h = from_lift_vertices([(0, F(1, 2)), (F(1, 8), F(11, 16)), (F(3, 8), F(7, 8)),
                            (F(5, 8), F(9, 8)), (F(7, 8), F(23, 16))])
    assert fixed_points(h.compose(h)).points == (reduce_mod1(0), reduce_mod1(F(1, 2)))
    assert gap_signs(h, 2, [0]) == [0]
    want = RotNumResult(exact=F(1, 2))
    assert rotation_number(h) == restart_rotation_number(h) == want


def test_exact_past_depth():
    # the descent goes on past depth while q <= max_q, so a rational
    # rotation number within max_q is exact at any depth
    phi = random_pl(3, 4, 32)
    h = phi.compose(rotation(F(1, 32))).compose(phi.inverse())
    assert rotation_number(h, depth=1) == RotNumResult(exact=F(1, 32))
    assert restart_rotation_number(h, depth=1) == RotNumResult(exact=F(1, 32))
    # and the bracket returned is the one of step depth
    h = phi.compose(rotation(F(1, 33))).compose(phi.inverse())
    r = rotation_number(h, max_q=32, depth=1)
    assert r == RotNumResult(lo=F(0), hi=F(1, 2), depth=1)
    assert r == restart_rotation_number(h, max_q=32, depth=1)


@pytest.mark.parametrize("alpha", [F(3, 8), None])
def test_rotation_number_composes_no_power(monkeypatch, alpha):
    g = rotation(alpha) if alpha else exotic_element(ExoticParams(F(6), F(2)))
    phi = random_pl(21, 8, 64)
    h = phi.compose(g).compose(phi.inverse())
    want = restart_rotation_number(h)
    fixed_point_calls = []

    def no_compose(self, other):
        raise AssertionError("rotation_number composed two maps")

    def counted_fixed_points(f):
        fixed_point_calls.append(f)
        return fixed_points(f)

    monkeypatch.setattr(PLHomeo, "compose", no_compose)
    monkeypatch.setattr(rotnum, "fixed_points", counted_fixed_points)
    assert rotation_number(h) == want
    assert fixed_point_calls == []


@pytest.mark.parametrize("A, lam, exact", [
    (6, 2, None), (6, 3, None), (7, 2, None), (10, 3, None),
    (8, 2, F(1, 3)), (9, 3, F(1, 2)),
])
def test_exotic_rotation_number_closed_form(A, lam, exact):
    # rho(exotic(A, lam)) = log lam / log A, so p/q < rho exactly when
    # A^p < lam^q, and rho = p/q exactly when lam^q = A^p: integer tests only
    r = rotation_number(exotic_element(ExoticParams(F(A), F(lam))), depth=16)
    if exact is not None:
        assert r.is_exact and r.exact == exact
        assert lam ** exact.denominator == A ** exact.numerator
        return
    assert not r.is_exact
    a, b = r.lo.numerator, r.lo.denominator
    c, d = r.hi.numerator, r.hi.denominator
    assert A ** a < lam ** b and lam ** d < A ** c
    assert b * c - a * d == 1
    # no p/q with q <= max_q is the rotation number, so a bracket is right
    assert all(lam ** q != A ** p for q in range(1, 33) for p in range(q + 1))


# -- one orbit per chain of breakpoints, against the body it replaced -------
#
# _orbit_sign reads one lift orbit per chain of breakpoints, each the image
# of the one before mod 1: PLHomeo._chains reads the chain's own members off
# the vertices, and _head_orbit steps the rest.  Its oracle is the body before
# chains, kept here verbatim but for its kernel, now _advance: it steps the
# orbit of every breakpoint.

def oracle_orbit_sign(h, max_q):
    """rotation_number's sign function for h outside _log_ratio's class:
    that of g = F^q - id - p - wq, w = floor(F(0)), if g has one sign, else
    0 (a periodic orbit).  For q <= max_q the gaps g(c) at every breakpoint
    c decide g at every x; past max_q x = 0 alone is tested."""
    orbits = [[(c.numerator, c.denominator), (y.numerator, y.denominator)]
              for c, y in h.verts]  # the breakpoints' exact lift orbits
    enc = None  # built when q first passes max_q
    n, t = 1, h._advance(0, 1)[:2]  # the exact orbit of 0, t = F^n(0)
    w = t[0] // t[1]

    def sign(p, q):
        nonlocal enc, n, t
        target = p + w * q
        if q <= max_q:
            for orbit in orbits:
                while len(orbit) <= q:
                    orbit.append(h._advance(*orbit[-1])[:2])
            # F^q(c) - c - target, each times its positive denominator
            gaps = [y * e - (c + target * e) * d
                    for (c, e), (y, d) in ((o[0], o[q]) for o in orbits)]
            return (min(gaps) > 0) - (max(gaps) < 0)
        if enc is None:
            enc = rotnum._Enclosure(h, rotnum._BITS)
        lower, upper = enc.at(q)
        scaled = target * enc.scale
        if not lower <= scaled <= upper:
            return 1 if lower > scaled else -1
        t, n = rotnum._lift_iterate(h, t, q - n), q
        return (t[0] > target * t[1]) - (t[0] < target * t[1])

    return sign


# _orbit_sign as it was before it read the heads one at a time, kept here
# verbatim but for the module prefixes and the chains it is given, which
# _periodic may have walked: every head is extended to q before any gap is
# read, and the sign is the min/max test over all the gaps.  The
# one-at-a-time loop must return what it returns, with no more steps.

def held_orbit_sign(h, chains, max_q):
    """rotation_number's sign function for h outside _log_ratio's class:
    that of g = F^q - id - p - wq, w = floor(F(0)), if g has one sign, else
    0 (a periodic orbit).  F - id spans less than 1 and takes F(0) in [w,
    w + 1), so h fixes a point exactly when g vanishes at 0/1 or 1/1.  For
    q <= max_q the gaps g(c) at the breakpoints c decide g at every x: g
    keeps its sign along F-orbits and breaks only on the backward orbits of
    the c, so a zero of g that no c shares lies inside an affine piece of g
    whose two ends, and so two of the c, have opposite signs.  A chain
    member's gap has its head's sign, so only the heads' orbits are read,
    extended when q passes them.  Past max_q x = 0 alone is tested."""
    enc = None  # built when q first passes max_q
    n, t = 1, h._advance(0, 1)[:2]  # the exact orbit of 0, t = F^n(0)
    w = t[0] // t[1]

    def sign(p: int, q: int) -> int:
        nonlocal enc, n, t
        target = p + w * q
        if q <= max_q:
            for chain in chains:  # no step where a head reaches q
                rotnum._head_orbit(h, chain, q)
            # F^q(c) - c - target times d e, for F^q(c) = r/d + v and c = c/e
            gaps = [(r + (v - target) * d) * e - c * d for (c, e), (r, d), v in
                    ((ps[0], ps[q], ws[q]) for *_, ps, ws in chains)]
            return (min(gaps) > 0) - (max(gaps) < 0)
        if enc is None:
            enc = rotnum._Enclosure(h, rotnum._BITS)
        lower, upper = enc.at(q)
        scaled = target * enc.scale
        if not lower <= scaled <= upper:
            return 1 if lower > scaled else -1
        t, n = rotnum._lift_iterate(h, t, q - n), q
        return (t[0] > target * t[1]) - (t[0] < target * t[1])

    return sign


def conjugate(phi, g):
    return phi.compose(g).compose(phi.inverse())


# phi_0 R(1/4) phi_0^-1 has its 4 breakpoints in one cycle: each is the
# image of the one before
ONE_CYCLE = conjugate(PLHomeo([(0, 0), (F(1, 4), F(1, 8)), (F(1, 2), F(1, 2)),
                               (F(3, 4), F(5, 8))]), rotation(F(1, 4)))
# the search workload's median map: 16 breakpoints in 8 chains
MEDIAN = conjugate(random_pl(21, 8, 64), rotation(F(3, 8)))
CHAIN_FREE = [random_pl(3, 4, 32), random_pl(4, 5, 32), random_pl(11, 6, 64)]
CHAINED = ([conjugate(random_pl(s, k, 64), rotation(alpha))
            for s, k, alpha in [(1, 2, F(1, 2)), (2, 3, F(1, 3)), (3, 4, F(3, 8)),
                                (4, 5, F(2, 5)), (5, 6, F(5, 13)), (6, 7, F(7, 33)),
                                (7, 8, F(1, 5)), (21, 8, F(3, 8))]]
           + [ONE_CYCLE]
           + [dyadic_conjugate(exotic_element(ExoticParams(F(A), F(lam))))
              for A, lam in [(4, 2), (6, 2), (7, 3)]])


def fresh(h):
    """A map equal to h whose chain list no reader has stepped yet: h's
    own list is shared by every call on h, and keeps what they stepped."""
    return PLHomeo(h.verts)


def shapes(h):
    """Each chain of h as (members, cycle), its head orbit left out."""
    return [chain[:2] for chain in h._chains]


def test_chain_heads_of_known_maps():
    (members, cycle), = shapes(ONE_CYCLE)
    assert len(ONE_CYCLE.verts) == 4 and sorted(members) == [0, 1, 2, 3] and cycle
    assert len(MEDIAN.verts) == 16 and len(MEDIAN._chains) == 8
    # 0 is fixed: a cycle of one, after the chain of the breakpoint 1/2
    assert shapes(STD) == [([1], False), ([0], True)]
    for h in CHAINED:
        assert len(h._chains) < len(h.verts)
    for h in CHAIN_FREE:
        assert shapes(h) == [([i], False) for i in range(len(h.verts))]
    assert rotation(F(1, 3))._chains == rotation(0)._chains == []
    for h in CHAINED + CHAIN_FREE + [STD]:
        x = [(v.numerator, v.denominator) for v, _ in h.verts]
        y = [(v.numerator % v.denominator, v.denominator) for _, v in h.verts]
        chains = fresh(h)._chains
        assert sorted(i for members, *_ in chains for i in members) == list(range(len(x)))
        for members, cycle, pairs, winds in chains:
            # a new chain holds its head and its members' images: position
            # t is y_m mod 1, m = members[t - 1], and its winding is the sum
            # of the floors of the ys before it
            assert pairs == [x[members[0]]] + [y[m] for m in members]
            floors = [h.verts[m][1].numerator // h.verts[m][1].denominator for m in members]
            assert winds == list(itertools.accumulate([0] + floors))
            # each member is the image of the one before mod 1; a cycle's
            # first is the image of its last, and a chain's first is no image
            assert all(y[i] == x[j] for i, j in zip(members, members[1:]))
            assert (y[members[-1]] in x) == cycle
            assert (x[members[0]] == y[members[-1]]) if cycle else x[members[0]] not in y


@pytest.mark.parametrize("h", CHAINED + CHAIN_FREE + [STD])
def test_chain_heads_give_every_sign_all_breakpoints_give(h):
    max_q = 32
    sign, want = rotnum._orbit_sign(h, h._chains, max_q), oracle_orbit_sign(h, max_q)
    for q in range(1, max_q + 1):
        for p in range(q + 1):
            assert sign(p, q) == want(p, q), (p, q)


def oracle_lift_eval(h, t):
    """F(t) for the canonical lift F, by Fraction arithmetic on the vertices."""
    m = math.floor(t - h.verts[0][0])
    v = h.verts + ((h.verts[0][0] + 1, h.verts[0][1] + 1),)
    i = bisect.bisect_right([x for x, _ in v], t - m) - 1
    (x0, y0), (x1, y1) = v[i], v[i + 1]
    return y0 + (y1 - y0) / (x1 - x0) * (t - m - x0) + m


@pytest.mark.parametrize("h", CHAINED + CHAIN_FREE + [STD])
def test_head_orbit_matches_fraction_oracle(h):
    # positions up to a chain's length are read off the vertices, the rest
    # stepped: every one must be F^t(x_head), in lowest terms with 0 <= r < d
    h = fresh(h)
    for chain in h._chains:
        pairs, winds = rotnum._head_orbit(h, chain, 40)
        assert len(pairs) == len(winds) == 41
        t = h.verts[chain[0][0]][0]
        for (r, d), w in zip(pairs, winds):
            assert 0 <= r < d and math.gcd(r, d) == 1
            assert F(r, d) + w == t
            t = oracle_lift_eval(h, t)


def counted_rotation_number(h, max_q, depth, sign=None):
    """rotation_number(h, max_q, depth), with _orbit_sign replaced by `sign`
    when given, and the number of _advance calls it made; `sign` is given
    the chains _periodic read."""
    step, calls = PLHomeo._advance, [0]

    def counting_step(self, n, d):
        calls[0] += 1
        return step(self, n, d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PLHomeo, "_advance", counting_step)
        if sign is not None:
            mp.setattr(rotnum, "_orbit_sign", sign)
        return rotation_number(h, max_q=max_q, depth=depth), calls[0]


# c.json of CI's console-script job: no periodic orbit, and every chain's
# jump product is 1
C_JSON = dyadic_conjugate(exotic_element(ExoticParams(F(6), F(2))))


@pytest.mark.parametrize("h, rho, steps", [
    # every chain's jump product is 1, so the first head is walked to its
    # first return: positions 1 and 2 are its chain's members, read off
    # the vertices, and 3 to 8 are stepped (28 by the descent alone, which
    # extends the other heads too, 49 with the heads held to one length and
    # 113 with one orbit per breakpoint)
    (MEDIAN, RotNumResult(exact=F(3, 8)), 6),
    # a cycle of 4 is read off the vertices, with no step (1 by the descent
    # alone, for F(0), and 13 with one orbit per breakpoint)
    (ONE_CYCLE, RotNumResult(exact=F(1, 4)), 0),
    # no chain, one orbit per breakpoint: 89 with the heads held to one
    # length, as the signs of opposite heads end a read early
    (random_pl(3, 4, 32), RotNumResult(exact=F(13, 23)), 75),
    # three chains of two pass the gate: the walk steps the first head from
    # position 3 to 32 with no return (30), then the descent steps F(0)
    # once and the other two heads to position 31 (58), reads the walked
    # head with no step, and past max_q the enclosures decide every sign
    # (118 when the descent built its own chains and stepped the first head
    # again)
    (C_JSON, RotNumResult(lo=F(306, 791), hi=F(53, 137), depth=16), 89),
])
def test_rotation_number_steps_one_orbit_per_chain(h, rho, steps):
    assert counted_rotation_number(fresh(h), 32, 16) == (rho, steps)


@pytest.mark.parametrize("h", [random_pl(3, 4, 32), C_JSON])
def test_rotation_number_reads_the_chains_once(h):
    # _periodic and the descent read the map's one chain list, whether the
    # gate fails (a chain of one) or passes with no return within max_q
    f, read = fresh(h), []
    periodic, orbit_sign = rotnum._periodic, rotnum._orbit_sign
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(rotnum, "_periodic", lambda f, chains, max_q:
                   read.append(chains) or periodic(f, chains, max_q))
        mp.setattr(rotnum, "_orbit_sign", lambda f, chains, max_q:
                   read.append(chains) or orbit_sign(f, chains, max_q))
        rotation_number(f)
    assert len(read) == 2 and read[0] is read[1] is f._chains
    assert rotnum._periodic(f, f._chains, 32) is None
    assert gate_passes(f) == (h is C_JSON)


@pytest.mark.parametrize("h", [MEDIAN, ONE_CYCLE, STD, random_pl(3, 4, 32),
                               random_pl(5, 5, 32)])
def test_rotation_number_builds_no_jump(h):
    # the orbit kernel returns the index of a breakpoint it hits, so no
    # orbit it steps, each from a breakpoint, builds the jump vector; a map
    # read from strings, as io reads one, is fresh
    fresh = PLHomeo([(str(x), str(y)) for x, y in h.verts])
    assert rotation_number(fresh) == rotation_number(h)
    assert "_jumps" not in vars(fresh)


@pytest.fixture(scope="module")
def sweep():
    """Seeded random maps, PL conjugates of rotations, STD and ONE_CYCLE."""
    return ([random_pl(s, 1 + s % 6, 32) for s in range(1000)]
            + [conjugate(random_pl(s, 2 + s % 7, 64), rotation(F(s % q, q)))
               for s, q in zip(range(300), itertools.cycle(range(2, 20)))]
            + [STD, ONE_CYCLE])


@pytest.mark.parametrize("max_q, depth", [(32, 16), (8, 24)])
def test_heads_read_one_at_a_time_match_the_held_oracle(sweep, max_q, depth):
    # each sign is the min/max test over every head, so the descent is the
    # same; a read that stops early steps no head further than before
    fewer = 0
    for h in sweep:
        # each side steps its own map: a second call on h would read the
        # orbits the first one stepped
        got, steps = counted_rotation_number(fresh(h), max_q, depth)
        want, held_steps = counted_rotation_number(fresh(h), max_q, depth, held_orbit_sign)
        assert got == want, h
        assert steps <= held_steps, h
        fewer += steps < held_steps
    assert fewer


# -- the periodic-orbit certificate, against the descent it precedes --------
#
# rotation_number first tries rotnum._periodic: one breakpoint orbit of least
# period t <= max_q gives rho exactly.  Its oracle is rotation_number as it
# was before, kept here verbatim but for the module prefixes and F(p, q) in
# place of _coprime: the descent alone, which must return the same result
# for every (h, max_q, depth).

def descent_rotation_number(h, max_q=32, depth=16):
    """Exact rotation number when it is p/q with q <= max_q or the search
    meets it, otherwise a Farey bracket refined `depth` times.

    The Stern-Brocot descent asks one sign function, of rho(h) mod 1 - p/q,
    about 0/1 and 1/1, where a 0 is a fixed point, then about each mediant
    p/q: the lower end when positive, the upper when negative, else exact.
    It goes on past `depth` while q <= max_q, as a p/q between Farey
    neighbours has q at least the sum of theirs."""
    rotnum._check_ints(1, max_q=max_q, depth=depth)
    if h.is_rotation:  # its one vertex is (0, rho)
        return RotNumResult(exact=h.verts[0][1])
    logs = rotnum._log_ratio(h)
    sign = rotnum._orbit_sign(h, h._chains, max_q) if logs is None else logs.sign
    if not (sign(0, 1) and sign(1, 1)):
        return RotNumResult(exact=F(0))
    lo, hi = F(0), F(1)
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
            lo = F(p, q)
        elif s < 0:
            hi = F(p, q)
        else:
            return RotNumResult(exact=F(p, q))


def gate_passes(h):
    """Every chain's product of the jumps J(h, x_m), read from _jumps."""
    return all(math.prod(h._jumps[m] for m in members) == 1
               for members, *_ in h._chains)


def check_certificate(h, rho):
    """rho = p/t must be read off a chain's head c, iterated in Fractions:
    F^t(c) = c + W with W = p mod t, and F^s(c) - c no integer for
    0 < s < t."""
    t = rho.denominator
    for members, *_ in h._chains:
        c = x = h.verts[members[0]][0]
        for s in range(1, t + 1):
            x = oracle_lift_eval(h, x)
            if (x - c).denominator == 1:
                break
        if s == t and (x - c).denominator == 1:
            assert (x - c).numerator % t == rho.numerator
            return
    raise AssertionError(f"no head of period {t}")


@pytest.fixture(scope="module")
def certificate_sweep(sweep):
    """The sweep above, conjugates of R(p/q) for q up to 40, so that some
    periods exceed every max_q tested, and DYADIC_PHI-conjugates of
    exotic elements, which pass the gate but have no periodic orbit, or,
    for exotic(4, 2), one of period 2."""
    return (sweep
            + [conjugate(random_pl(q * 97 + s, 2 + (q + s) % 5, 32), rotation(F(p, q)))
               for q in range(2, 41) for s, p in enumerate(
                   [p for p in range(1, q) if math.gcd(p, q) == 1][:3])]
            + [dyadic_conjugate(exotic_element(ExoticParams(F(A), F(lam))))
               for A, lam in [(4, 2), (5, 2), (6, 2), (7, 3), (10, 3)]])


def counted_steps(f, h, max_q, depth):
    """f(h, max_q, depth) and the number of _advance calls it made."""
    step, calls = PLHomeo._advance, [0]

    def counting_step(self, n, d):
        calls[0] += 1
        return step(self, n, d)

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(PLHomeo, "_advance", counting_step)
        return f(h, max_q, depth), calls[0]


@pytest.mark.parametrize("max_q, depth", [(32, 16), (8, 24), (4, 1)])
def test_periodic_certificate_matches_the_descent_oracle(certificate_sweep, max_q, depth):
    kinds = Counter()
    for h in certificate_sweep:
        got, steps = counted_steps(rotation_number, fresh(h), max_q, depth)
        want, descent_steps = counted_steps(descent_rotation_number, fresh(h), max_q, depth)
        assert got == want, h
        if h.is_rotation or rotnum._log_ratio(h) is not None:
            continue  # no orbit is read
        rho = rotnum._periodic(h, h._chains, max_q)
        if rho is not None:
            assert got == RotNumResult(exact=rho), h
            check_certificate(h, rho)
            assert steps <= descent_steps, h
            kinds["zero"] += rho == 0
            kinds["cycle"] += steps == 0
            kinds["certified"] += 1
        elif gate_passes(h):
            # the first head is walked to max_q, which the descent may not
            # reach, and the descent reads that walk with no step
            assert steps <= descent_steps + max_q, h
            kinds["gated"] += 1
            # a period of 5 past max_q = 4 ends in the descent's bracket
            kinds["period 5"] += (rotnum._periodic(h, h._chains, 5) is not None
                                  and not got.is_exact)
        else:
            # a map with a chain of one breakpoint walks nothing
            assert steps == descent_steps, h
            kinds["open"] += 1
    assert kinds["zero"] and kinds["cycle"] and kinds["certified"] > 100
    assert kinds["gated"] and kinds["open"] > 700
    assert kinds["period 5"] if max_q == 4 else not kinds["period 5"]
