import copy
import math
import pathlib
import pickle
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plcircle import (ExoticParams, FiniteVector, GroupPresentation, InvalidHomeoError,
                      PLHomeo, exotic_element, from_lift_vertices, homeo, identity,
                      jump_cocycle, random_pl, reduce_mod1, rotation, smooth_group,
                      synthesize_conjugator)
from plcircle import smoothing
from plcircle.circle import CirclePoint, frac_mod1

STD = from_lift_vertices([(0, 0), (F(1, 2), F(1, 4)), (1, 1)])

random_maps = st.builds(random_pl,
                        seed=st.integers(0, 10**6),
                        k=st.integers(0, 5),
                        denom_bound=st.just(32))


def assert_canonical(verts):
    """Independent oracle for the canonical form: lift vertices based in
    [0, 1)^2, strictly increasing over less than one period, positive
    slopes, every vertex a genuine breakpoint, rotations based at 0."""
    assert verts, "empty vertex list"
    xs = [p[0] for p in verts]
    ys = [p[1] for p in verts]
    assert all(isinstance(q, F) for q in xs + ys), "coordinates not Fractions"
    assert 0 <= xs[0] < 1, "base x coordinate not in [0, 1)"
    assert 0 <= ys[0] < 1, "base y coordinate not in [0, 1)"
    assert all(a < b for a, b in zip(xs, xs[1:])), "x not strictly increasing"
    assert all(a < b for a, b in zip(ys, ys[1:])), "y not strictly increasing"
    assert xs[-1] < xs[0] + 1, "x coordinates span a full period or more"
    assert ys[-1] < ys[0] + 1, "y coordinates span a full period or more"
    cx, cy = xs + [xs[0] + 1], ys + [ys[0] + 1]
    slopes = [(cy[i + 1] - cy[i]) / (cx[i + 1] - cx[i]) for i in range(len(xs))]
    assert all(s > 0 for s in slopes), "non-positive slope"
    if len(verts) == 1:
        assert xs[0] == 0, "rotation must be based at 0"
    else:
        for i in range(len(verts)):
            assert slopes[i - 1] != slopes[i], f"removable vertex at x={xs[i]}"


def assert_fixed_point(h):
    """h is canonical, and the constructor returns it unchanged."""
    assert_canonical(h.verts)
    assert PLHomeo(h.verts).verts == h.verts


def interpolate(verts_closed, x):
    """Independent pointwise oracle: direct affine interpolation on the lift."""
    for (x1, y1), (x2, y2) in zip(verts_closed, verts_closed[1:]):
        if x1 <= x <= x2:
            return y1 + (y2 - y1) * (x - x1) / (x2 - x1)
    raise AssertionError("x outside lift period")


def sample_points(n):
    return [reduce_mod1(F(i, n)) for i in range(n)]


def test_eval_examples():
    assert identity().eval(reduce_mod1(F(1, 3))) == reduce_mod1(F(1, 3))
    assert rotation(F(1, 4)).eval(reduce_mod1(F(7, 8))) == reduce_mod1(F(1, 8))
    assert STD.eval(reduce_mod1(F(1, 4))) == reduce_mod1(F(1, 8))
    assert STD.eval(reduce_mod1(F(3, 4))) == reduce_mod1(F(5, 8))


def test_eval_matches_interpolation_oracle():
    closed = list(STD.verts) + [(STD.verts[0][0] + 1, STD.verts[0][1] + 1)]
    for p in sample_points(101):
        x = p.value if p.value >= closed[0][0] else p.value + 1
        assert STD.eval(p).value == interpolate(closed, x) % 1


def test_compose_trivial():
    assert STD.compose(STD.inverse()) == identity()
    assert rotation(F(1, 3)).compose(rotation(F(1, 3))) == rotation(F(2, 3))


def test_compose_pointwise_oracle():
    g = random_pl(3, 2, 16)
    h = random_pl(4, 2, 16)
    gh = g.compose(h)
    for p in sample_points(1000):
        assert gh.eval(p) == g.eval(h.eval(p))


def test_inverse_examples():
    assert identity().inverse() == identity()
    assert rotation(F(2, 7)).inverse() == rotation(F(5, 7))
    for p in sample_points(1000):
        assert STD.inverse().eval(STD.eval(p)) == p


def test_iterate_examples():
    assert STD.iterate(0) == identity()
    assert rotation(F(1, 5)).iterate(5) == identity()
    f3 = STD.iterate(3)
    for p in sample_points(1000):
        assert f3.eval(p) == STD.eval(STD.eval(STD.eval(p)))


def test_iterate_negative():
    assert STD.iterate(-2) == STD.inverse().iterate(2)
    assert STD.iterate(3).compose(STD.iterate(-3)) == identity()


def test_left_right_slopes():
    assert identity().left_right_slopes(reduce_mod1(F(1, 3))) == (1, 1)
    assert STD.left_right_slopes(reduce_mod1(F(1, 2))) == (F(1, 2), F(3, 2))
    assert STD.left_right_slopes(reduce_mod1(F(1, 4))) == (F(1, 2), F(1, 2))


def test_rotation_basics():
    assert rotation(0) == identity()
    assert rotation(F(1, 2)).eval(reduce_mod1(F(3, 4))) == reduce_mod1(F(1, 4))
    assert rotation(F(1, 3)).breakpoints == ()


def test_exotic_element():
    g = exotic_element(ExoticParams(F(4), F(2)))
    assert sorted(g.left_right_slopes(g.breakpoints[0])) == [F(1, 2), F(2)]
    assert len(g.breakpoints) == 2
    g2 = exotic_element(ExoticParams(F(9), F(3)))
    assert sorted(g2.left_right_slopes(g2.breakpoints[0])) == [F(1, 3), F(3)]
    with pytest.raises(ValueError):
        ExoticParams(F(4), F(1))
    with pytest.raises(ValueError):
        ExoticParams(F(4), F(5))


def test_exotic_iterates_breakpoint_bound():
    g = exotic_element(ExoticParams(F(4), F(2)))
    cur = g
    for _ in range(20):
        cur = g.compose(cur)
        assert len(cur.breakpoints) <= 2


def test_random_pl_determinism_and_validity():
    assert random_pl(1, 0, 8).is_rotation
    assert random_pl(7, 4, 64) == random_pl(7, 4, 64)
    h = random_pl(7, 4, 64)
    assert len(h.breakpoints) <= 4
    assert_fixed_point(h)


@pytest.mark.parametrize("k", [3, 10 ** 4500], ids=["k3", "k_past_the_digit_limit"])
def test_random_pl_rejects_more_breakpoints_than_rationals(k):
    # only 0 and 1/2 have denominator at most 2; a k past the int-to-string
    # digit limit is quoted by its first 40 digits
    with pytest.raises(ValueError, match=r"^[0-9]{1,40}(\.\.\.)? breakpoints need "
                                         r".* but only 2 have denominator at most 2$"):
        random_pl(1, k, 2)


@given(random_maps)
@settings(max_examples=50, deadline=None)
def test_group_inverse_law(h):
    assert h.compose(h.inverse()) == identity()
    assert h.inverse().compose(h) == identity()


@given(random_maps, random_maps, random_maps)
@settings(max_examples=30, deadline=None)
def test_associativity(f, g, h):
    assert f.compose(g).compose(h) == f.compose(g.compose(h))


@given(random_maps, random_maps)
@settings(max_examples=50, deadline=None)
def test_breakpoint_subadditivity(g, h):
    assert len(g.compose(h).breakpoints) <= len(g.breakpoints) + len(h.breakpoints)


def test_canonical_rejects_bad_data():
    with pytest.raises(InvalidHomeoError):
        from_lift_vertices([(0, 0), (F(1, 2), F(1, 4)), (F(3, 4), F(1, 8)), (1, 1)])
    with pytest.raises(InvalidHomeoError, match="not injective"):
        PLHomeo(((F(0), F(0)), (F(1, 2), F(0))))
    with pytest.raises(InvalidHomeoError, match="at least one vertex"):
        PLHomeo(())
    # the constructor normalizes data that is valid but not canonical
    assert PLHomeo(((F(1, 2), F(0)),)) == rotation(F(1, 2))  # rotation based off 0
    assert PLHomeo(((0, 0), (F(1, 2), F(1, 2)))) == identity()  # removable vertex


lift_vertex_lists = st.lists(
    st.tuples(st.fractions(-2, 2, max_denominator=8),
              st.fractions(-2, 2, max_denominator=8)),
    min_size=1, max_size=5)


@given(random_maps, random_maps, lift_vertex_lists,
       st.integers(3, 12), st.fractions(0, 1, max_denominator=16))
@settings(max_examples=60, deadline=None)
def test_library_maps_are_canonical(g, h, verts, A, t):
    """Every constructor path of the library yields the canonical form,
    which the constructor then leaves unchanged."""
    for f in (g, h, g.compose(h), g.inverse(), synthesize_conjugator(jump_cocycle(g)),
              rotation(t), rotation(-A * t)):
        assert_fixed_point(f)
    lam = 1 + (A - 1) * t
    if 1 < lam < A:
        assert_fixed_point(exotic_element(ExoticParams(A, lam)))
    try:
        f = from_lift_vertices(verts)
    except InvalidHomeoError:
        return
    assert_fixed_point(f)
    for x, y in verts:
        assert f.eval(reduce_mod1(x)) == reduce_mod1(y)


def test_removable_breakpoints_merge():
    h = from_lift_vertices([(0, 0), (F(1, 4), F(1, 4)), (1, 1)])
    assert h == identity()


# -- the Fraction canonicalization, as an oracle for the integer one --------

def oracle_lift_cyclic(values):
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


def oracle_canonical(pairs):
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
    ylift = oracle_lift_cyclic(ys)
    k = len(pairs)
    ext_x = xs + [xs[0] + 1]
    ext_y = ylift + [ylift[0] + 1]
    slopes = [(ext_y[i + 1] - ext_y[i]) / (ext_x[i + 1] - ext_x[i]) for i in range(k)]
    keep = [i for i in range(k) if slopes[i - 1] != slopes[i]]
    if not keep:
        # constant slope around the circle forces slope 1: a rotation
        return ((F(0), frac_mod1(ys[0] - xs[0])),)
    kxs = [xs[i] for i in keep]
    kys = oracle_lift_cyclic([ys[i] for i in keep])
    return tuple(zip(kxs, kys))


def canonical_outcome(fn, pairs):
    """The canonical vertices fn gives for pairs, or its error type and message."""
    try:
        return fn(pairs)
    except Exception as exc:  # any error, with its message, must match the oracle's
        return type(exc), str(exc)


def _as_form(q, form):
    """q as a Fraction, a string (lowest terms or not) or, if integral, an int."""
    if form == 1:
        return str(q)
    if form == 2:
        return f"{3 * q.numerator}/{3 * q.denominator}"
    if form == 3 and q.denominator == 1:
        return int(q)
    return q


@st.composite
def vertex_inputs(draw):
    """(pairs, expected): vertex pairs in mixed coordinate forms, and the
    map they must define, or None when only the oracle decides."""
    kind = draw(st.sampled_from(["random", "subdivided", "rotation", "repeated",
                                 "shared_x", "shared_y", "swapped"]))
    expected = None
    if kind == "random":
        pairs = draw(st.lists(st.tuples(st.fractions(-3, 3, max_denominator=12),
                                        st.fractions(-3, 3, max_denominator=12)),
                              max_size=6))
    elif kind == "rotation":
        alpha = draw(st.fractions(-2, 2, max_denominator=16))
        xs = draw(st.lists(st.fractions(0, 1, max_denominator=16), min_size=1,
                           max_size=5, unique=True))
        pairs = [(x, x + alpha) for x in xs if x < 1]
        expected = rotation(alpha) if pairs else None
    else:
        h = random_pl(draw(st.integers(0, 10**6)), draw(st.integers(1, 5)), 32)
        pairs = list(h.verts)
        closing = (pairs[0][0] + 1, pairs[0][1] + 1)
        n = len(pairs)
        if kind == "subdivided":
            closed = pairs + [closing]
            pairs = [v for (xa, ya), (xb, yb) in zip(closed, closed[1:])
                     for v in ((xa, ya), ((xa + xb) / 2, (ya + yb) / 2))]
            expected = h
        elif kind == "repeated":
            pairs += [pairs[draw(st.integers(0, n - 1))], closing]
            expected = h
        elif n > 1:
            i, j = draw(st.permutations(range(n)))[:2]
            (xi, yi), (xj, yj) = pairs[i], pairs[j]
            if kind == "shared_x":
                pairs[j] = (xi, yj)
            elif kind == "shared_y":
                pairs[j] = (xj, yi)
            else:
                pairs[i], pairs[j] = (xi, yj), (xj, yi)
    # lift coordinates: shift each vertex by integers, in any order
    shifts = draw(st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)),
                           min_size=len(pairs), max_size=len(pairs)))
    pairs = [(x + m, y + n) for (x, y), (m, n) in zip(pairs, shifts)]
    pairs = draw(st.permutations(pairs))
    forms = draw(st.lists(st.integers(0, 3), min_size=2 * len(pairs),
                          max_size=2 * len(pairs)))
    return [(_as_form(x, forms[2 * i]), _as_form(y, forms[2 * i + 1]))
            for i, (x, y) in enumerate(pairs)], expected


def _lazy_verts(pairs):
    """PLHomeo(pairs).verts, built from the stored quadruples on this read;
    an AssertionError, when they were built before, differs from the oracle."""
    h = PLHomeo(pairs)
    assert "verts" not in vars(h)
    return h.verts


@given(vertex_inputs())
@settings(max_examples=400, deadline=None)
def test_integer_canonicalization_matches_fraction_oracle(case):
    pairs, expected = case
    want = canonical_outcome(oracle_canonical, pairs)
    got = canonical_outcome(_lazy_verts, pairs)
    assert got == want
    if expected is not None:
        assert got == expected.verts


def test_canonicalization_reduces_no_fraction(monkeypatch):
    # every coordinate is reduced mod 1 as an integer numerator over the
    # lcm of its denominators; no Fraction is reduced
    h = random_pl(11, 5, 32)
    g = exotic_element(ExoticParams(F(4), F(2)))
    shifted = [(x + i, y - 2 * i) for i, (x, y) in enumerate(h.verts)]
    closed = list(h.verts) + [(h.verts[0][0] + 1, h.verts[0][1] + 1)]
    subdivided = [v for (xa, ya), (xb, yb) in zip(closed, closed[1:])
                  for v in ((xa, ya), ((xa + xb) / 2, (ya + yb) / 2))]
    half = rotation(F(1, 2))

    def forbidden(q):
        raise AssertionError("canonicalization reduced a Fraction mod 1")

    monkeypatch.setattr(homeo, "frac_mod1", forbidden)
    assert PLHomeo(shifted) == h
    assert exotic_element(ExoticParams(F(4), F(2))) == g
    assert PLHomeo(subdivided) == h
    assert PLHomeo([(F(1, 3), F(5, 6)), (F(2, 3), F(7, 6))]) == half


@pytest.mark.parametrize("bad, shown", [(float("inf"), "inf"), (float("nan"), "nan"),
                                        (None, "None")])
def test_non_rational_coordinate_is_invalid(bad, shown):
    for pairs in ([(bad, 0), (F(1, 2), F(1, 4))], [(0, 0), (F(1, 2), bad)]):
        with pytest.raises(InvalidHomeoError, match=f"coordinate {shown} is not a rational"):
            PLHomeo(pairs)


# a "p/q" string of io's documented form is read by two int() calls; any
# other string still goes through Fraction, so every string gives the map,
# or the InvalidHomeoError message, that reading each coordinate as a
# Fraction of any size gives
# values past the digit limit, 1/8 and 9/777...7 mod 1, on which both pairs
# below give a map
PAST_THE_LIMIT = ["7" * 5000 + "/8", "9/" + "7" * 5000]
COORDINATE_STRINGS = [
    "1/2", "2/4", "+1/2", "-1/2", "01/2", "-7/4", " 1/2", "1/2 ", "1/0", "0/0",
    "-0/00", "+0005/0", "1 /2", "1/-2", "1/+2", "0.5", "1e-3", "1_0/3", "",
    "/2", "1/", "\u0663/4",
    *(pytest.param(s, id=id) for s, id in zip(
        PAST_THE_LIMIT, ["5000-digit-numerator", "5000-digit-denominator"])),
]


def lifted_fraction(q):
    """Fraction(q) with Python's int/string digit limit (3.10.7 on) lifted,
    or the InvalidHomeoError a coordinate that is no rational gives."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        return F(q)
    except (ValueError, ZeroDivisionError):
        raise InvalidHomeoError(f"vertex coordinate {q!r} is not a rational number") from None
    finally:
        sys.set_int_max_str_digits(limit)


@pytest.mark.parametrize("s", COORDINATE_STRINGS)
def test_string_coordinates_read_as_their_fractions(s):
    def via_fractions(pairs):
        return PLHomeo([(lifted_fraction(x), lifted_fraction(y)) for x, y in pairs]).verts

    for pairs in ([(0, 0), (s, "1/3"), ("3/4", "5/6")],
                  [(0, 0), ("1/3", s), ("3/4", "7/8")]):
        want = canonical_outcome(via_fractions, pairs)
        assert canonical_outcome(lambda p: PLHomeo(p).verts, pairs) == want
        if s in PAST_THE_LIMIT:  # in x and in y, the value gives a map
            assert isinstance(want[0][0], F)


def test_p_over_q_strings_build_no_fraction(monkeypatch):
    # the search workload's median map, from the "p/q" strings io writes
    phi = random_pl(21, 8, 64)
    h = phi.compose(rotation(F(3, 8))).compose(phi.inverse())
    strings = [(f"{x.numerator}/{x.denominator}", f"{y.numerator}/{y.denominator}")
               for x, y in h.verts]
    exact = homeo._exact  # _pair's Fraction fallback

    def no_string(convert, q):
        assert not isinstance(q, str), f"{q!r} was read as a Fraction"
        return exact(convert, q)

    monkeypatch.setattr(homeo, "_exact", no_string)
    assert PLHomeo(strings) == h
    # signs, leading zeros and pairs not in lowest terms take the same path
    assert PLHomeo([("0", "-2/3"), ("+2/4", "05/6")]) == rotation(F(1, 3))


# -- the integer table, against an oracle in Fractions ---------------------
#
# The constructor and rotation build their rows from their own vertices,
# through _layout, and the inverse moves the rows of the map it inverts.
# Their oracle reads each piece's slope and intercept off the vertices in
# Fraction arithmetic: the row of a piece is unique.

def oracle_table(h):
    """One period: L the lcm of the vertex x denominators, X_i = x_i L, and
    piece i, of slope s and intercept c on the lift, as its unique row in
    lowest terms, gamma = lcm(den s, den c), alpha = s gamma, beta = c
    gamma."""
    L = math.lcm(*(x.denominator for x, _ in h.verts))
    X = [x.numerator * (L // x.denominator) for x, _ in h.verts]
    v = h.verts + ((h.verts[0][0] + 1, h.verts[0][1] + 1),)
    rows = []
    for (x0, y0), (x1, y1) in zip(v, v[1:]):
        s = (y1 - y0) / (x1 - x0)
        c = y0 - s * x0
        gamma = math.lcm(s.denominator, c.denominator)
        rows.append((int(s * gamma), int(c * gamma), gamma))
    return L, X, rows


@given(vertex_inputs())
@settings(max_examples=400, deadline=None)
@example(([("0", "0"), ("1/4", "2/16"), ("2/4", "1/4")], None))  # collinear 1/4
@example(([("0", "1/3"), ("1/3", "1")], None))  # exotic(4, 2): an image of exactly 1
@example(([("1/3", "1/2"), ("2/3", "3/4")], None))  # no image at or past 1
@example(([("0", "2/5")], None))  # a rotation
def test_stored_tables_match_oracle(case):
    # dropped vertices and pairs not in lowest terms grow the input lcms;
    # the table kept must still be the one the kept vertices give
    pairs, _ = case
    try:
        h = PLHomeo(pairs)
    except InvalidHomeoError:
        return
    inv = h.inverse()  # its vertices are checked in test_smoothing.py
    for f in (h, inv, inv.inverse()):  # each builder stores its table
        assert "_table" in vars(f) and vars(f)["_table"] == oracle_table(f)
    assert inv.inverse() == h


@pytest.mark.parametrize("seed, k", [(1, 40), (2, 120), (3, 200)])
def test_tables_of_incommensurable_maps_match_oracle(seed, k):
    # denominators up to 10**9: L has thousands of bits, each row those of
    # its piece; the inverse moves h's rows, and a composite builds its own
    h = random_pl(seed, k, 10**9)
    inv = h.inverse()
    square = h.compose(h)
    for f in (h, inv, inv.inverse(), square):
        assert f._table == oracle_table(f)


@st.composite
def product_one_vectors(draw):
    """Finite vectors of product 1 on up to 8 points of denominator <= 64."""
    xs = draw(st.lists(st.fractions(0, 1, max_denominator=64).filter(lambda x: x < 1),
                       min_size=1, max_size=8, unique=True))
    vals = [draw(st.fractions(F(1, 9), 9, max_denominator=9).filter(lambda v: v > 0))
            for _ in xs[1:]]
    vals.append(1 / math.prod(vals, start=F(1)))
    return FiniteVector.from_dict({reduce_mod1(x): v for x, v in zip(xs, vals)})


@given(st.one_of(random_maps.map(jump_cocycle), product_one_vectors()))
@settings(max_examples=300, deadline=None)
def test_synthesized_tables_match_oracle(a):
    # synthesize_conjugator stores no table: the first evaluation builds it
    phi = synthesize_conjugator(a)
    if a.entries:
        assert "_table" not in vars(phi)
        assert phi._table == oracle_table(phi)


@pytest.mark.parametrize("seed", range(6))
def test_smoothing_conjugator_tables_match_oracle(seed):
    # the conjugators smooth_group synthesizes from _solve's potentials
    # store no table: the first evaluation builds it
    phi = random_pl(seed, 4, 32)
    G = GroupPresentation(tuple((f"g{i}", phi.compose(rotation(a)).compose(phi.inverse()))
                                for i, a in enumerate((F(1, 3), F(1, 5)))))
    outcome = smooth_group(G)
    assert outcome.kind == "success" and not outcome.phi.is_rotation
    assert "_table" not in vars(outcome.phi)
    assert outcome.phi._table == oracle_table(outcome.phi)


def test_smoothing_success_steps_and_lays_out_nothing(monkeypatch):
    # the 616-vertex hidden rotations, whose conjugator has 159 breakpoints:
    # after the pass, phi's vertices and the angles are read off integer
    # sums, with no kernel step, no point or vector built, and no rows laid
    # out but each conjugate rotation's one
    phi = random_pl(21, 8, 64)
    G = GroupPresentation(tuple((f"g{i}", phi.compose(rotation(a)).compose(phi.inverse()))
                                for i, a in enumerate((F(1, 7), F(2, 11)))))
    after, pieces = [], []
    counts = {name: [0, 0] for name in ("step", "CirclePoint", "FiniteVector")}
    solve = smoothing._solve

    def marking_solve(o):
        out = solve(o)
        after.append(o)
        return out

    def counting(name, f):
        def wrapper(*args):
            counts[name][bool(after)] += 1
            return f(*args)
        return wrapper

    layout = homeo._layout

    def recording_layout(L, X, P):
        if after:
            pieces.append(len(X))
        return layout(L, X, P)

    monkeypatch.setattr(smoothing, "_solve", marking_solve)
    monkeypatch.setattr(homeo, "_layout", recording_layout)
    monkeypatch.setattr(PLHomeo, "_advance", counting("step", PLHomeo._advance))
    for cls in (CirclePoint, FiniteVector):
        monkeypatch.setattr(cls, "__post_init__", counting(cls.__name__, cls.__post_init__))
    outcome = smooth_group(G)
    assert outcome.kind == "success" and len(after[0].pts) == 616
    # the pass steps 1,232 times, and the seed is read off the vertices as
    # int pairs: no point is built before the pass or after it
    assert counts["step"] == [1232, 0]
    assert counts["CirclePoint"] == [0, 0]
    assert counts["FiniteVector"] == [0, 0]
    assert pieces == [1, 1]
    assert len(outcome.phi.verts) == 159
    assert "_table" not in vars(outcome.phi)
    monkeypatch.undo()
    assert outcome.phi._table == oracle_table(outcome.phi)


# -- compose, against the body it replaced ---------------------------------
#
# compose reads the two vertex lists with one _advance per breakpoint.  Its
# oracle is the body before that, kept here verbatim but for its kernel, now
# _advance: it sorts the cuts BP(other) and other^{-1}(BP(self)) and steps
# both maps at each one.

def oracle_compose(self, other):
    """self o other.  Its breakpoints lie among the cuts BP(other) and
    other^{-1}(BP(self)), sorted once; a cut c is kept when the chain-rule
    jump J(self, other(c)) J(other, c) is not 1, and the kept lifted
    images are shifted by one floor."""
    # the preimages are cyclically sorted: at most three sorted runs
    inv = other.inverse()
    cuts = sorted([frac_mod1(inv.lift_eval(x)) for x, _ in self.verts]
                  + [x for x, _ in other.verts])
    verts = []
    last = None
    for c in cuts:
        if c == last:
            continue
        last = c
        n, d, j1 = other._advance(c.numerator, c.denominator)
        n, d, j2 = self._advance(n, d)
        J1 = other._jumps[j1] if j1 >= 0 else F(1)
        J2 = self._jumps[j2] if j2 >= 0 else F(1)
        # jumps are in lowest terms: J1 J2 = 1 exactly when they are reciprocal
        if J1.numerator != J2.denominator or J1.denominator != J2.numerator:
            verts.append((c, n, d))
    if not verts:
        return rotation(F(n, d) - last)
    m = verts[0][1] // verts[0][2]
    return PLHomeo._of_canonical(tuple(
        (c.numerator, c.denominator, n - m * d, d) for c, n, d in verts))


def _squared_jumps(g):
    """A map with the breakpoints of g and each jump squared."""
    return synthesize_conjugator(FiniteVector(
        tuple((p, v * v) for p, v in jump_cocycle(g).entries)))


def _compose_cases(f, g):
    """(self, other) pairs: both orders, h o h^-1 and h^-1 o h (every cut
    coincides and the result is the identity), h o h, and two pairs in which
    other maps each of its breakpoints onto a breakpoint of self, with jumps
    that cancel (f o g^-1 after g is f) and with jumps that do not."""
    cases = [(f, g), (g, f), (f, f), (g, g)]
    for h in (f, g):
        cases += [(h, h.inverse()), (h.inverse(), h)]
    cases += [(oracle_compose(f, g.inverse()), g),
              (oracle_compose(_squared_jumps(g), g.inverse()), g)]
    return cases


compose_maps = st.one_of(
    st.builds(random_pl, st.integers(0, 10**6), st.integers(0, 6),
              st.sampled_from((4, 8, 64, 2**16, 2**32))),
    st.fractions(0, 1, max_denominator=64).filter(lambda t: t < 1).map(rotation),
    st.integers(2, 9).flatmap(lambda A: st.integers(1, 2 * A - 3).map(
        lambda j: exotic_element(ExoticParams(F(A), 1 + F(j, 2))))))


@given(compose_maps, compose_maps)
@settings(max_examples=200, deadline=None)
@example(STD, STD)
@example(rotation(F(1, 3)), rotation(F(2, 3)))
@example(STD, rotation(F(1, 4)))
@example(rotation(F(1, 4)), STD)
def test_compose_matches_cut_sorting_oracle(f, g):
    for a, b in _compose_cases(f, g):
        assert a.compose(b).verts == oracle_compose(a, b).verts
    for h in (f, g):
        assert h.compose(h.inverse()) == h.inverse().compose(h) == identity()


def test_compose_oracle_cases_cover_each_branch():
    # other with a vertex image >= 1 (its inverse's lift is G^-1 + 1) and
    # without, and breakpoints of other mapped onto breakpoints of self with
    # jumps that cancel and do not
    s_values, coinciding = set(), set()
    for seed in range(60):
        f, g = random_pl(seed, seed % 7, (8, 64, 2**32)[seed % 3]), random_pl(seed + 1, 3, 16)
        for a, b in _compose_cases(f, g) + [(f, rotation(F(seed % 5, 5)))]:
            assert a.compose(b).verts == oracle_compose(a, b).verts
            if a.is_rotation or b.is_rotation:
                continue
            s_values.add(b.verts[-1][1] >= 1)
            for p, J in zip(b.breakpoints, b._jumps):
                Ja = a.jump(b.eval(p))
                if Ja != 1:
                    coinciding.add(Ja * J == 1)
    assert s_values == coinciding == {False, True}


def test_compose_steps_once_per_breakpoint(monkeypatch):
    maps = [STD, STD.inverse(), rotation(F(2, 5)), identity(),
            exotic_element(ExoticParams(F(4), F(2))),
            *(random_pl(seed, seed % 7, 64) for seed in range(12))]
    step, calls = PLHomeo._advance, []

    def counting_step(self, n, d):
        calls.append(self)
        return step(self, n, d)

    monkeypatch.setattr(PLHomeo, "_advance", counting_step)
    for f in maps:
        for g in maps:
            del calls[:]
            f.compose(g)
            assert len(calls) == len(f.breakpoints) + len(g.breakpoints)


# ---------------------------------------------------------- hash contract
# PLHomeo hashes over the ints of its vertex pairs: every way of building one
# map must give an equal map with an equal hash, or a set of words would keep
# one map twice

def test_equal_maps_hash_equal_along_every_path():
    h = PLHomeo([("0", "2/6"), ("1/4", "22/48"), ("2/4", "14/24"), ("6/8", "23/24")])
    built = {
        "fractions and ints": PLHomeo([(0, F(1, 3)), (F(1, 4), F(11, 24)),
                                       (F(1, 2), F(7, 12)), (F(3, 4), F(23, 24))]),
        "lift coordinates": from_lift_vertices([
            (1, F(4, 3)), (F(5, 4), F(35, 24)), (F(3, 2), F(19, 12)),
            (F(7, 4), F(47, 24)), (2, F(7, 3))]),
        "circle coordinates, shuffled": PLHomeo([
            (F(3, 4), F(23, 24)), (F(1, 4), F(11, 24)), (F(1, 2), F(7, 12)),
            (F(0), F(1, 3))]),
        "inverse of the inverse": h.inverse().inverse(),
        "composed after the identity": h.compose(identity()),
        "composed before the identity": identity().compose(h),
    }
    for path, g in built.items():
        assert g == h, path
        assert hash(g) == hash(h), path
    assert len({h, *built.values()}) == 1
    r = rotation(F(1, 3)).compose(rotation(F(2, 3)))
    assert r == identity() and hash(r) == hash(identity())
    assert len({r, identity(), PLHomeo([(0, 0)]), rotation(1)}) == 1


def test_maps_differ_when_any_int_of_their_vertices_does():
    # STD and g share their x pairs, and differ in one y pair
    g = PLHomeo([(0, 0), (F(1, 2), F(1, 3))])
    assert [x for x, _ in g.verts] == [x for x, _ in STD.verts] == [0, F(1, 2)]
    assert g != STD and not g == STD and len({g, STD}) == 2
    assert rotation(F(1, 3)) != rotation(F(1, 4)) != identity()
    assert STD != STD.compose(STD) and g == PLHomeo([("0", "0"), ("2/4", "2/6")])
    # another type is not equal, and its own __eq__ is asked
    assert STD != STD.verts and STD != 0 and STD.__eq__(STD.verts) is NotImplemented
    assert identity().is_identity and rotation(1).is_identity
    assert not rotation(F(1, 3)).is_identity and not STD.is_identity


# ------------------------------------------------- lowest-terms quadruples
# A map stores its vertices as the lowest-terms integer quadruples (x_n,
# x_d, y_n, y_d) of _quads, and builds the Fractions of `verts` on its
# first read alone: reading them must change nothing a caller sees, and the
# library's own paths must never read them.

RECORD_BUILDERS = {
    "constructor": lambda: random_pl(3, 4, 32),
    "compose": lambda: random_pl(4, 3, 32).compose(random_pl(5, 4, 32)),
    "inverse": lambda: random_pl(6, 5, 64).inverse(),
    "rotation": lambda: rotation(F(2, 7)),
    "composed rotations": lambda: rotation(F(1, 3)).compose(rotation(F(1, 2))),
    "conjugator": lambda: synthesize_conjugator(jump_cocycle(random_pl(7, 4, 32))),
}


def _seen(x):
    """What a caller sees of x: for a map, itself, its vertices and its hash."""
    return (x, x.verts, hash(x)) if isinstance(x, PLHomeo) else x


@pytest.mark.parametrize("build", RECORD_BUILDERS.values(), ids=list(RECORD_BUILDERS))
def test_maps_agree_whether_or_not_their_vertices_were_read(build):
    read = build()
    verts = read.verts
    assert "verts" in vars(read) and read.verts is verts  # built once
    assert verts == oracle_canonical(verts)
    for op in (repr, copy.copy, copy.deepcopy, lambda h: pickle.loads(pickle.dumps(h)),
               hash, lambda h: h == read, lambda h: read == h, lambda h: len({h, read})):
        fresh = build()
        assert "verts" not in vars(fresh)
        assert _seen(op(fresh)) == _seen(op(read))
    fresh = build()
    assert fresh._quads == tuple((x.numerator, x.denominator, y.numerator, y.denominator)
                                 for x, y in verts)
    assert all(type(n) is int for q in fresh._quads for n in q)
    assert "verts" not in vars(fresh)


@pytest.mark.parametrize("build", [
    *RECORD_BUILDERS.values(),
    lambda: random_pl(5, 300, 10**9).compose(random_pl(6, 300, 10**9))],
    ids=[*RECORD_BUILDERS, "600-vertex composite"])
def test_copies_build_no_vertex_fraction(build):
    # copy, deepcopy and pickle carry the quadruples alone: neither the
    # source nor the copy builds `verts`, and the copy is equal, with the
    # same hash, and evaluates as the source does
    h = build()
    for op in (copy.copy, copy.deepcopy, lambda m: pickle.loads(pickle.dumps(m))):
        c = op(h)
        assert type(c) is PLHomeo and c._quads == h._quads
        assert c == h and hash(c) == hash(h)
        assert "verts" not in vars(c) and "verts" not in vars(h)
        assert c.lift_eval(F(1, 3)) == h.lift_eval(F(1, 3))


def test_library_paths_read_no_vertex_fraction(monkeypatch):
    # no input map, and no map the five paths build, holds `verts`, and no
    # Fraction is built in homeo, where every vertex is handled: compose and
    # inverse build none, and the other paths build them for points,
    # slopes, obstruction weights and rotation numbers
    from plcircle import io, rotation_number
    built, makers = [], []
    of_canonical, post_init, new = PLHomeo._of_canonical, PLHomeo.__post_init__, F.__new__

    def recording_of_canonical(cls, quads, table=None):
        built.append(of_canonical(quads, table))
        return built[-1]

    def recording_post_init(self):
        post_init(self)
        built.append(self)

    def recording_new(cls, *args, **kwargs):
        # the first caller past Fraction's own operators, or homeo when it
        # is on the stack, as when it calls circle.frac_mod1
        frame = sys._getframe(1)
        while frame.f_code.co_filename == new.__code__.co_filename:
            frame = frame.f_back
        makers.append(frame.f_code.co_filename)
        while frame and frame.f_code.co_filename != homeo.__file__:
            frame = frame.f_back
        if frame:
            makers.append(homeo.__file__)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(PLHomeo, "_of_canonical", classmethod(recording_of_canonical))
    monkeypatch.setattr(PLHomeo, "__post_init__", recording_post_init)
    monkeypatch.setattr(F, "__new__", recording_new)
    # the inputs, built apart: random_pl and exotic_element make their
    # input vertices as Fractions
    G = io.group_from_json(io.load_json(
        str(pathlib.Path(__file__).parent.parent / "fixtures" / "conjugated_rotations.json")))
    f, g, h = random_pl(3, 6, 64), random_pl(4, 5, 64), random_pl(5, 5, 64)
    e = exotic_element(ExoticParams(F(6), F(2)))
    std = from_lift_vertices([(0, 0), (F(1, 2), F(1, 4)), (1, 1)])
    r, s = rotation(F(1, 3)), rotation(F(2, 3))
    inputs = [f, g, h, e, std, r, s, *(m for _, m in G.generators)]
    paths = {
        "compose": lambda: (f.compose(g), g.compose(f), f.compose(f.inverse()), r.compose(s)),
        "inverse": lambda: (h.inverse(), r.inverse()),
        "detect_finite_orbit": lambda: smoothing.detect_finite_orbit(G, max_period=2),
        "rotation_number": lambda: [rotation_number(m) for m in (f, e, s)],
        "smooth_group": lambda: (smooth_group(G), smooth_group(GroupPresentation((("f", std),)))),
    }
    for path, run in paths.items():
        makers.clear()
        run()
        assert not [m for m in built + inputs if "verts" in vars(m)], path
        assert homeo.__file__ not in makers, path
        if path in ("compose", "inverse"):
            assert not makers, path
    assert len(built) > len(inputs)
