"""Oracles for g/c profiles that the tests hold the library against.

c_direct maximizes |S intersect P| - k over the enumerated closed sets,
and unrolled_c is the closed form of the stepwise c-recursion: two c
routes beside engine.c_from_g.  consistency_findings lists the
identities every profile must satisfy.  A value is None where no
polytope qualifies; ext_max is max() with None below every int.
"""

from __future__ import annotations

from typing import Iterable, Optional, Sequence

from qhelly.engine import enumerate_convex_subsets
from qhelly.lattice import FiniteSite


def ext_max(values: Iterable[Optional[int]]) -> Optional[int]:
    """max() over the values that are not None; None when there are none."""
    return max((v for v in values if v is not None), default=None)


def c_direct(site: FiniteSite, k_max: Optional[int] = None) -> tuple:
    """Direct maximization of |S intersect P| - k over qualifying configurations.

    A configuration with t site points and v vertices qualifies for every
    k in [t - v, t]; independent of the stepwise route.
    """
    if k_max is None:
        k_max = len(site.points)
    out: list = [None] * (k_max + 1)
    for closed, verts in enumerate_convex_subsets(site).items():
        total = closed.bit_count()
        lo = total - verts.bit_count()
        for k in range(lo, min(total, k_max) + 1):
            if out[k] is None or out[k] < total - k:
                out[k] = total - k
    return tuple(out)


def unrolled_c(g: Sequence[Optional[int]], site_size: int, k_max: int) -> tuple:
    """Closed form of the stepwise recursion: c[k] = max_{l<=k} (g[l] + l - k)."""
    out: list = []
    for k in range(k_max + 1):
        if k > site_size:
            out.append(None)
            continue
        cands = [g[line] + line - k for line in range(min(k, len(g) - 1) + 1)
                 if g[line] is not None]
        out.append(ext_max(cands))
    return tuple(out)


def consistency_findings(profile) -> list[str]:
    """Structural identities that should hold for every profile."""
    findings = []
    for j in range(1, profile.k_max + 2):
        if ext_max(profile.c[:j]) != ext_max(profile.g[:j]):
            findings.append(
                f"running maxima of c and g diverge at prefix length {j}"
            )
    for k in range(profile.k_max + 1):
        ck, gk = profile.c[k], profile.g[k]
        if gk is not None and gk > ck:
            findings.append(f"g exceeds c at k={k}")
        if ck is not None and ck > ext_max(profile.g[: k + 1]):
            findings.append(f"c exceeds the running max of g at k={k}")
    return findings
