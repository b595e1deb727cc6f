"""Integers extended by a single negative infinity.

Several counting functions here take the value "no polytope qualifies",
which must compare below every integer, survive max() unchanged, and
absorb addition.  Floats are not acceptable carriers (they compare equal
to large ints inexactly and leak into exact arithmetic), so the sentinel
is its own type.
"""

from __future__ import annotations

from typing import Iterable, Union


class NegInfinity:
    """The unique value below every int.  Compare, max and add freely."""

    __slots__ = ()
    _instance = None

    def __new__(cls) -> "NegInfinity":
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "NEG_INF"

    def __eq__(self, other: object) -> bool:
        return other is self

    def __hash__(self) -> int:
        return hash("qhelly.NEG_INF")

    # NEG_INF is strictly below every int; int's reflected comparisons
    # delegate here, so int-on-the-left works too.
    def __lt__(self, other: object) -> bool:
        if isinstance(other, (int, NegInfinity)):
            return other is not self
        return NotImplemented

    def __le__(self, other: object) -> bool:
        if isinstance(other, (int, NegInfinity)):
            return True
        return NotImplemented

    def __gt__(self, other: object) -> bool:
        if isinstance(other, (int, NegInfinity)):
            return False
        return NotImplemented

    def __ge__(self, other: object) -> bool:
        if isinstance(other, (int, NegInfinity)):
            return other is self
        return NotImplemented

    def __add__(self, other: object) -> "NegInfinity":
        if isinstance(other, (int, NegInfinity)):
            return self
        return NotImplemented

    __radd__ = __add__

    def __sub__(self, other: object) -> "NegInfinity":
        if isinstance(other, int):
            return self
        return NotImplemented

    def __neg__(self) -> "NegInfinity":
        raise ArithmeticError("positive infinity is not representable")


NEG_INF = NegInfinity()

ExtInt = Union[int, NegInfinity]


def is_finite(value: ExtInt) -> bool:
    return isinstance(value, int)


def ext_max(values: Iterable[ExtInt]) -> ExtInt:
    """max() with NEG_INF as the identity; empty input yields NEG_INF."""
    best: ExtInt = NEG_INF
    for v in values:
        if best < v:
            best = v
    return best


def to_json(value: ExtInt):
    """JSON carrier: null encodes NEG_INF."""
    return value if isinstance(value, int) else None


def to_csv(value: ExtInt) -> str:
    """CSV carrier: the literal token -inf encodes NEG_INF."""
    return str(value) if isinstance(value, int) else "-inf"
