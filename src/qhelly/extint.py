"""Integers extended by a single negative infinity, and shared integer helpers.

Several counting functions here take the value "no polytope qualifies",
which must compare below every integer, survive max() unchanged, and
absorb addition.  Floats are not acceptable carriers (they compare equal
to large ints inexactly and leak into exact arithmetic), so the sentinel
is its own type.  c_from_g (the stepwise c recursion of the site and
planar profiles) and integer_root (the exact root of the witnesses and
the constant chains) live here too, so each command loads only its layers.
"""

from __future__ import annotations

from typing import Iterable, Sequence, Union


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


def c_from_g(g: Sequence[ExtInt], site_size: int, k_max: int) -> tuple:
    """Stepwise recursion: c[0] = g[0], c[k] = max(c[k-1] - 1, g[k]).

    Beyond the site size no configuration qualifies, so c drops to
    NEG_INF there regardless of the recursion value.
    """
    out: list[ExtInt] = []
    for k in range(k_max + 1):
        if k > site_size:
            out.append(NEG_INF)
            continue
        gk = g[k] if k < len(g) else NEG_INF
        if k == 0:
            out.append(gk)
        else:
            prev = out[-1]
            step = prev - 1 if is_finite(prev) else NEG_INF
            out.append(ext_max((step, gk)))
    return tuple(out)


def integer_root(value: int, degree: int) -> int:
    """Largest r >= 0 with r**degree <= value, by integer Newton iteration.

    The iteration starts at 2**ceil(bits / degree), above the root, and
    each step x -> ((degree - 1) x + value // x**(degree - 1)) // degree
    stays at or above the root (by the AM-GM inequality) and falls while
    x**degree > value, so the first step that does not fall starts from
    the root.  Floating point is never consulted, so perfect-power
    boundaries are exact for arbitrarily large integers.
    """
    if degree < 1:
        raise ValueError("root degree must be a positive integer")
    if value < 0:
        raise ValueError("integer_root expects a nonnegative value")
    if value in (0, 1) or degree == 1:
        return value
    x = 1 << -(-value.bit_length() // degree)
    while (y := ((degree - 1) * x + value // x ** (degree - 1)) // degree) < x:
        x = y
    return x
