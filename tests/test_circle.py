import contextlib
import itertools
import math
import re
import sys
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from plcircle import (ExoticParams, GroupPresentation, detect_finite_orbit,
                      growth_sequences, nested_limit, random_pl, realize,
                      reduce_mod1, rotation, rotation_number, smooth_group)
from plcircle.circle import CirclePoint, _coprime, _order_keys, frac_mod1

fracs = st.fractions(min_value=-10, max_value=10, max_denominator=97)


def test_reduce_mod1_examples():
    assert reduce_mod1(F(5, 3)).value == F(2, 3)
    assert reduce_mod1(F(-1, 4)).value == F(3, 4)
    assert reduce_mod1(0).value == 0


@given(fracs, st.integers(min_value=-5, max_value=5))
def test_reduce_mod1_periodic(q, n):
    assert reduce_mod1(q + n) == reduce_mod1(q)


def test_circle_point_coerces_its_value():
    assert type(CirclePoint(0).value) is F and CirclePoint(0).value == F(0)


def _check_range(x):
    if 0 <= x < 1:  # oracle: the range tested in Fraction comparisons
        assert CirclePoint(x).value == x
        return
    with pytest.raises(ValueError) as info:
        CirclePoint(x)
    msg = str(info.value)
    assert msg.startswith("circle coordinate ") and msg.endswith(" not in [0, 1)")
    # one line, with the coordinate clipped by _quote to 40 characters and "..."
    assert "\n" not in msg and len(msg) <= len("circle coordinate  not in [0, 1)") + 43


@given(st.fractions())
@example(F(1))
@example(F(-1, 2))
def test_circle_point_accepts_exactly_the_unit_interval(x):
    _check_range(x)


# hypothesis shows every explicit example with repr(), which a 5,001-digit
# int refuses under Python's digit limit, so these two are pytest cases
@pytest.mark.parametrize("offset", [-1, 1], ids=["below_one", "above_one"])
def test_circle_point_range_past_the_digit_limit(offset):
    _check_range(F(10**5000 + offset, 10**5000))


@given(st.one_of(fracs, st.integers(min_value=-5, max_value=5)))
def test_frac_mod1_is_a_fraction_in_unit_interval(q):
    r = frac_mod1(q)
    assert type(r) is F
    assert r == F(q) - math.floor(q) and 0 <= r < 1


@contextlib.contextmanager
def no_digit_limit():
    """Python's int/string digit limit (3.10.7 on) lifted inside the block."""
    limit = sys.get_int_max_str_digits()
    sys.set_int_max_str_digits(0)
    try:
        yield
    finally:
        sys.set_int_max_str_digits(limit)


def outcome(fn, *args):
    """fn(*args), or its error type and message."""
    try:
        return fn(*args)
    except Exception as exc:
        return type(exc), str(exc)


# documented "p/q" strings past the digit limit, 4,300 digits by default
PAST_THE_LIMIT = {"numerator": "7" * 5000 + "/9", "denominator": "9/" + "7" * 5000}


@pytest.mark.parametrize("s", PAST_THE_LIMIT.values(), ids=PAST_THE_LIMIT)
def test_entry_points_read_strings_past_the_digit_limit(s):
    # each entry point reads s as the Fraction read with the limit lifted:
    # the same value, or the same rejection of that value
    with no_digit_limit():
        q = F(s)
    r = q - math.floor(q)
    assert frac_mod1(s) == r
    assert reduce_mod1(s).value == r
    assert rotation(s).verts == ((0, r),)
    calls = [(CirclePoint, s), (ExoticParams, s, "3/2"), (ExoticParams, "2", s)]
    want = [outcome(fn, *(q if a is s else F(a) for a in args)) for fn, *args in calls]
    assert [outcome(fn, *args) for fn, *args in calls] == want
    assert not any("Exceeds the limit" in o[1] for o in want if isinstance(o, tuple))


def convergents(terms):
    """The continued-fraction convergents of [0; terms...] as pairs (p, q):
    consecutive p/q and p'/q' differ by exactly 1/(q q'), as little as two
    points with those denominators can."""
    out = []
    p, q, p_, q_ = 0, 1, 1, 0  # the convergent [0] and the one before it
    for a in terms:
        p, q, p_, q_ = a * p + p_, a * q + q_, p, q
        out.append((p % q, q))
    return out


@st.composite
def close_pairs(draw):
    """Lowest-terms pairs (n, d) of points of [0, 1): convergents of a random
    number, some other points, and repeats."""
    pairs = convergents(draw(st.lists(st.integers(1, 2**16), min_size=1, max_size=30)))
    pairs += [(x.numerator, x.denominator) for x in draw(st.lists(
        st.fractions(min_value=0, max_value=1, max_denominator=2**80).map(frac_mod1),
        max_size=6))]
    return pairs + draw(st.lists(st.sampled_from(pairs), max_size=4))


# 1/3 twice, and a point 3^-51 < 2^-80 above it
@example([(1, 3), (3**50 + 1, 3**51), (1, 3)])
# the last two are 1/(q q') < 2^-64 apart
@example(convergents([2] + [3] * 30)[-2:])
@given(close_pairs())
def test_order_keys_order_points_as_fractions(pairs):
    keys = _order_keys(pairs)
    xs = [F(n, d) for n, d in pairs]
    for (k, x), (l, y) in itertools.product(zip(keys, xs), repeat=2):
        assert (k < l) == (x < y) and (k == l) == (x == y)


GROUP = GroupPresentation((("r", rotation(F(1, 3))),))


# each budget argument: its name, its least accepted value, and a call that
# takes it and ends at once when given that value
BUDGETS = [
    pytest.param("max_vertices", 0, lambda v: smooth_group(GROUP, v), id="max_vertices"),
    pytest.param("max_period", 1, lambda v: detect_finite_orbit(GROUP, v), id="max_period"),
    pytest.param("max_orbit", 1, lambda v: detect_finite_orbit(GROUP, 2, max_orbit=v),
                 id="max_orbit"),
    pytest.param("k", 0, lambda v: random_pl(1, v, 32), id="random_pl_k"),
    pytest.param("denom_bound", 1, lambda v: random_pl(1, 1, v), id="denom_bound"),
    pytest.param("k", 0, lambda v: nested_limit(reduce_mod1(0), v), id="nested_limit_k"),
    pytest.param("max_q", 1, lambda v: rotation_number(rotation(F(1, 3)), max_q=v),
                 id="max_q"),
    pytest.param("depth", 1, lambda v: rotation_number(rotation(F(1, 3)), depth=v),
                 id="depth"),
    pytest.param("N", 1, lambda v: growth_sequences(rotation(F(1, 3)), v), id="N"),
    pytest.param("depth", 0, lambda v: realize(nested_limit(reduce_mod1(0), 2), v),
                 id="realize_depth"),
]


@pytest.mark.parametrize("value", [2.5, True, "64"])
@pytest.mark.parametrize("name, least, call", BUDGETS)
def test_budget_arguments_reject_non_ints(name, least, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be an int, not {re.escape(repr(value))}$"):
        call(value)


@pytest.mark.parametrize("name, least, call", BUDGETS)
def test_budget_arguments_reject_values_below_their_bound(name, least, call):
    with pytest.raises(ValueError, match=f"^{name} must be at least {least}, not {least - 1}$"):
        call(least - 1)
    call(least)


# -- a Fraction from a pair already in lowest terms -------------------------

def assert_same_fraction(n, d):
    """_coprime(n, d) is Fraction(n, d), for n/d in lowest terms, d > 0."""
    got, want = _coprime(n, d), F(n, d)
    assert type(got) is F
    assert (got.numerator, got.denominator) == (n, d)
    assert got == want and hash(got) == hash(want)
    # mixed with Fractions, ints and itself, under arithmetic and order
    other = F(3, 7)
    for op in (lambda a: a + other, lambda a: a * other, lambda a: a - 1,
               lambda a: a * a, lambda a: -a, lambda a: abs(a), lambda a: a // 1,
               lambda a: a % 1, lambda a: a < other, lambda a: a == want,
               lambda a: {a: 1}[want], lambda a: a ** 2):
        assert op(got) == op(want)
    if n:
        assert 1 / got == 1 / want


@given(st.integers(-2**400, 2**400), st.integers(1, 2**400))
@example(0, 5)
@example(-7, 1)
@example(-(2**400) + 1, 2**400)
def test_coprime_is_the_fraction_of_a_reduced_pair(n, d):
    g = math.gcd(n, d)
    assert_same_fraction(n // g, d // g)


def test_coprime_of_a_5000_digit_pair():
    # past the int/string digit limit: both numbers have 5,000 digits
    n, d = 3 ** 10478, 2 ** 16609
    assert all(10 ** 4999 <= k < 10 ** 5000 for k in (n, d))
    assert_same_fraction(n, d)
    assert_same_fraction(-n, d)
    assert_same_fraction(0, 1)
