"""Exact rational arithmetic on the circle R/Z: points, reduction mod 1, the
one exact order of points held as integer pairs (n, d), the one Fraction
built from a pair already in lowest terms (_coprime), the one reader of
the documented form "p/q" of a rational string (_ints), the one rule for
values past Python's int/string digit limit (_exact), and the one way a
value of any size is quoted in an error message; and _Frozen, the base of
the library's records that validate on construction.

Everything in this module is exact; no floating point is used.
"""
from __future__ import annotations

import math
import re
import sys
from fractions import Fraction
from typing import List, Optional, Sequence, Tuple, Union

RationalLike = Union[Fraction, int]

# a rational's documented form "p/q", q optional, matched by _ints alone:
# Fraction would also take decimals and exponents, and "1e-10000000" takes
# seconds to expand
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def _exact(convert, arg):
    """convert(arg) past Python's int/string digit limit (3.10.7 on) too: on a
    ValueError the call runs again with the limit lifted for it alone, so a
    ValueError with another cause is raised again by that second call."""
    try:
        return convert(arg)
    except ValueError:
        limit = sys.get_int_max_str_digits()
        sys.set_int_max_str_digits(0)
        try:
            return convert(arg)
        finally:
            sys.set_int_max_str_digits(limit)


def _ints(s: str) -> Optional[Tuple[int, int]]:
    """The two ints (p, q) of any size of a string of the documented form
    "p/q", q = 1 when left out, else None; q may be 0, for each caller to
    reject in its own words.  _exact runs only once an int() call raises."""
    m = _RATIONAL.fullmatch(s)
    if not m:
        return None
    try:
        return int(m[1]), int(m[2] or 1)
    except ValueError:  # past the int/string digit limit
        return _exact(lambda g: (int(g[1]), int(g[2] or 1)), m)


def _quote(value, convert=str) -> str:
    """convert(value) of any size, clipped to 40 characters for a message."""
    text = _exact(convert, value)
    return text if len(text) <= 40 else text[:40] + "..."


def _coprime(n: int, d: int) -> Fraction:
    """Fraction(n, d) for a pair proved to be in lowest terms with d > 0, with
    no gcd: the two slots every Fraction holds, set as Fraction's own
    _from_coprime_ints (3.12 on) sets them.  Fraction(n, d) takes gcd(n, d)
    again, quadratic in the bits of the pair."""
    q = object.__new__(Fraction)
    q._numerator, q._denominator = n, d
    return q


def frac_mod1(q: RationalLike) -> Fraction:
    """Return q - floor(q) as an exact Fraction in [0, 1)."""
    if not isinstance(q, Fraction):
        q = _exact(Fraction, q)
    f = math.floor(q)
    return q - f if f else q


class _Frozen:
    """A validating record: __init__ converts its arguments and passes them,
    in _fields order, to _init, which sets them and calls __post_init__.
    No field can be assigned after.  repr, == and hash read the fields in
    order, as a frozen dataclass's do: hash(r) = hash(tuple of r's fields).
    copy, deepcopy and pickle call __init__ again with the fields, but
    PLHomeo's __reduce__ rebuilds a map from its _quads, with no check."""

    __slots__ = ()
    _fields: Tuple[str, ...] = ()  # every subclass's __slots__ too, but PLHomeo's

    def _init(self, *values) -> None:
        for name, value in zip(self._fields, values):
            object.__setattr__(self, name, value)
        self.__post_init__()

    def _values(self) -> tuple:
        return tuple(map(self.__getattribute__, self._fields))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._values() == other._values()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._values())

    def __repr__(self) -> str:
        return "{}({})".format(type(self).__qualname__, ", ".join(
            f"{name}={value!r}" for name, value in zip(self._fields, self._values())))

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self):
        return type(self), self._values()


class CirclePoint(_Frozen):
    """A point of R/Z with an exact coordinate n/d in [0, 1): 0 <= n < d."""

    __slots__ = _fields = ("value",)

    def __init__(self, value: Fraction):
        self._init(value if isinstance(value, Fraction) else _exact(Fraction, value))

    def __post_init__(self):
        if not 0 <= self.value.numerator < self.value.denominator:
            raise ValueError(f"circle coordinate {_quote(self.value)} not in [0, 1)")


def reduce_mod1(q: RationalLike) -> CirclePoint:
    """Project an arbitrary rational to the circle."""
    return CirclePoint(frac_mod1(q))


def _order_keys(pairs: Sequence[Tuple[int, int]]) -> List[int]:
    """Integer keys ordering the points n/d of the pairs (n, d), d > 0, exactly
    as the points are ordered: n * K // d, with K the largest d squared.  Two
    distinct points differ by at least 1/K, so their keys differ too."""
    K = max((d for _, d in pairs), default=1) ** 2
    return [n * K // d for n, d in pairs]


def _check_ints(least: int, **budgets) -> None:
    """The one check of a budget argument: reject each one, by keyword, that
    is not an int, is a bool, or is below `least`."""
    for name, value in budgets.items():
        if not isinstance(value, int) or isinstance(value, bool):
            raise ValueError(f"{name} must be an int, not {_quote(value, repr)}")
        if value < least:
            raise ValueError(f"{name} must be at least {least}, not {_quote(value)}")
