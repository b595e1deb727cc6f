"""The profile record and values, and the integer helpers that two
layers share.

g(S, k) has no value at a k that no polytope with vertices in S reaches,
and c(S, k) none beyond the size of S.  Such a value is None, which
to_csv writes as -inf and json as null; None is below every int in the
c recursion.  Profile (the one record of the site and planar profiles),
c_from_g (their stepwise c recursion) and integer_root (the exact root
of the witnesses and the constant chains) live here, so each command
loads only its layers.
"""

from __future__ import annotations

from typing import NamedTuple, Optional, Sequence


class Profile(NamedTuple):
    """g and c of a site S for k = 0..k_max, with a witness per k.

    g[k] and c[k] are Optional[int], as above.  witnesses[k] is the
    vertex tuple of a polytope with vertices in S that attains g[k], or
    None where g[k] is None.  drops are the k at which g falls by one,
    for Z^2 only (None for a finite site), and findings name the checks
    of the profile that failed.
    """

    label: str
    k_max: int
    g: tuple
    c: tuple
    witnesses: tuple
    drops: Optional[tuple] = None
    findings: tuple = ()


def to_csv(value: Optional[int]) -> str:
    """CSV carrier: the literal token -inf encodes None."""
    return "-inf" if value is None else str(value)


def c_from_g(g: Sequence[Optional[int]], site_size: int) -> tuple:
    """Stepwise recursion: c[0] = g[0], c[k] = max(c[k-1] - 1, g[k]),
    where None is below every int, for k = 0..len(g) - 1.

    Beyond the site size no configuration qualifies, so c is None there
    regardless of the recursion value.
    """
    out: list = []
    step = None
    for k, gk in enumerate(g):
        if k > site_size:
            out.append(None)
            continue
        ck = max((v for v in (step, gk) if v is not None), default=None)
        out.append(ck)
        step = None if ck is None else ck - 1
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
