from fractions import Fraction as F

from hypothesis import given
from hypothesis import strategies as st

from plcircle import reduce_mod1

fracs = st.fractions(min_value=-10, max_value=10, max_denominator=97)


def test_reduce_mod1_examples():
    assert reduce_mod1(F(5, 3)).value == F(2, 3)
    assert reduce_mod1(F(-1, 4)).value == F(3, 4)
    assert reduce_mod1(0).value == 0


@given(fracs, st.integers(min_value=-5, max_value=5))
def test_reduce_mod1_periodic(q, n):
    assert reduce_mod1(q + n) == reduce_mod1(q)
