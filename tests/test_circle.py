import math
from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from plcircle import reduce_mod1
from plcircle.circle import frac_mod1

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
