import itertools
import math
import re
from fractions import Fraction as F

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from plcircle import (GroupPresentation, detect_finite_orbit, nested_limit,
                      random_pl, reduce_mod1, rotation, semiconjugacy_table,
                      smooth_group)
from plcircle.circle import _order_keys, frac_mod1

fracs = st.fractions(min_value=-10, max_value=10, max_denominator=97)


def test_reduce_mod1_examples():
    assert reduce_mod1(F(5, 3)).value == F(2, 3)
    assert reduce_mod1(F(-1, 4)).value == F(3, 4)
    assert reduce_mod1(0).value == 0


@given(fracs, st.integers(min_value=-5, max_value=5))
def test_reduce_mod1_periodic(q, n):
    assert reduce_mod1(q + n) == reduce_mod1(q)


@given(st.one_of(fracs, st.integers(min_value=-5, max_value=5)))
def test_frac_mod1_is_a_fraction_in_unit_interval(q):
    r = frac_mod1(q)
    assert type(r) is F
    assert r == F(q) - math.floor(q) and 0 <= r < 1


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


@pytest.mark.parametrize("value", [2.5, True, "64"])
@pytest.mark.parametrize("name, call", [
    ("max_vertices", lambda v: smooth_group(GROUP, v)),
    ("max_period", lambda v: detect_finite_orbit(GROUP, v)),
    ("max_orbit", lambda v: detect_finite_orbit(GROUP, 2, max_orbit=v)),
    ("max_words", lambda v: detect_finite_orbit(GROUP, 2, max_words=v)),
    ("n_samples", lambda v: semiconjugacy_table(rotation(F(1, 3)), v, 3)),
    ("n_iter", lambda v: semiconjugacy_table(rotation(F(1, 3)), 3, v)),
    ("k", lambda v: random_pl(1, v, 32)),
    ("denom_bound", lambda v: random_pl(1, 3, v)),
    ("k", lambda v: nested_limit(reduce_mod1(0), v)),
], ids=["max_vertices", "max_period", "max_orbit", "max_words", "n_samples",
        "n_iter", "random_pl_k", "denom_bound", "nested_limit_k"])
def test_budget_arguments_reject_non_ints(name, call, value):
    with pytest.raises(ValueError, match=f"^{name} must be an int, not {re.escape(repr(value))}$"):
        call(value)
