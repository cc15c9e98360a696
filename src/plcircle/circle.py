"""Exact rational arithmetic on the circle R/Z: points and reduction mod 1.

Everything in this module is pure and exact; no floating point is used.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Union

RationalLike = Union[Fraction, int]


def frac_mod1(q: RationalLike) -> Fraction:
    """Return q - floor(q) as an exact Fraction in [0, 1)."""
    if not isinstance(q, Fraction):
        q = Fraction(q)
    f = math.floor(q)
    return q - f if f else q


@dataclass(frozen=True, order=True)
class CirclePoint:
    """A point of R/Z with an exact rational coordinate in [0, 1)."""

    value: Fraction

    def __post_init__(self):
        if not isinstance(self.value, Fraction):
            object.__setattr__(self, "value", Fraction(self.value))
        if not 0 <= self.value < 1:
            raise ValueError(f"circle coordinate {self.value} not in [0, 1)")

    def __sub__(self, other: "CirclePoint") -> Fraction:
        """Positively oriented displacement from other to self, in [0, 1)."""
        return frac_mod1(self.value - other.value)

    def __str__(self):
        return str(self.value)


def reduce_mod1(q: RationalLike) -> CirclePoint:
    """Project an arbitrary rational to the circle."""
    return CirclePoint(frac_mod1(q))
