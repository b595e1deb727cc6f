"""Counting-function profiles over finite sites.

Two quantities are computed for a finite site S and each k:

  g(S, k): the largest vertex count of a polytope whose vertices lie in S
           and which contains exactly k points of S that are not vertices;
  c(S, k): the largest N such that some polytope P with vertices in S has
           |S intersect P| - k = N while at most k of those points are in
           the configuration's nonvertex positions (equivalently, the
           quantitative Helly-type constant of S at level k).

Both come from one enumeration of the closed subsets C = S intersect
conv C.  The site is indexed once and a subset is an int bitmask (bit i
is site.points[i]); the enumeration keeps a dict from each closed set to
the mask of its hull's vertices, so totals and vertex counts are
popcounts.  Closing V(C) + p is an AND of memoized halfspace masks of
the site, one per facet of its hull (two per affine-hull equation when
the hull is degenerate).  The work queue carries each new closed set
with the hull vertices of the step that first reached it, so the hull
of a closed set is never rebuilt.  In a planar site whose V(C) spans the plane, p
lies strictly outside the polygon of C, so the hull of V(C) + p is C's
vertex cycle with the chain of edges visible from p spliced out
(beneath-beyond); other closed sets and sites outside Z^2 hull V(C) + p
anew.  Only the winning witnesses are hulled again.

c comes from the stepwise recursion over the g profile (c_from_g).  The
tests hold it against a second, independent route: direct maximization
over the enumerated closed sets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from typing import Optional, Sequence

from .errors import BudgetExceededError
from .extint import NEG_INF, ExtInt, ext_max, is_finite
from .lattice import (
    FiniteSite,
    _facets_from_cycle_2d,
    _splice_cycle_2d,
    convex_hull,
    site_mask,
)

_DEFAULT_STATE_BUDGET = 2_000_000
_SITE_SIZE_LIMIT = 30


def enumerate_convex_subsets(
    site: FiniteSite, *, max_states: int = _DEFAULT_STATE_BUDGET
) -> dict:
    """All nonempty closed subsets of the site (C = S intersect conv C).

    Subsets are bitmasks over the site (bit i is site.points[i]).  The
    result maps each closed set to the mask of its hull's vertices, in
    (size, sorted point tuple) order.

    Growth rule: a closed set C is extended only by a point p
    lexicographically above its maximum, and S intersect conv(V(C) + p)
    is the new closed set, where V(C) is the vertex set of C; it equals
    the closure of C + p, because V(C) + p and C + p have the same hull.
    Every closed set is reachable this way (remove the lexicographic
    maximum, which is always a vertex; the closure of the remainder plus
    that point restores the set), so the enumeration is complete without
    revisiting permutations.  The closure is the AND of the site's
    halfspace masks of the hull of V(C) + p.  The hull that first
    reaches a closed set gives its vertex mask, and its vertices travel
    with the set in the queue.  In a planar site they are the
    counterclockwise cycle of C, and when it spans the plane each hull is
    that cycle with p spliced in (p is not in the closed set C, so it
    lies strictly outside its polygon); a point, a segment and every
    site outside Z^2 take a new convex_hull per point.
    """
    if len(site) > _SITE_SIZE_LIMIT:
        raise BudgetExceededError(
            f"site has {len(site)} points; closed subsets can approach "
            f"2^{len(site)}, refuse beyond {_SITE_SIZE_LIMIT}"
        )
    points, index = site.points, site.index
    planar = site.dim == 2
    found = {1 << i: 1 << i for i in range(len(points))}
    queue = deque((1 << i, (p,)) for i, p in enumerate(points))
    while queue:
        cur, verts = queue.popleft()
        for j in range(cur.bit_length(), len(points)):
            if planar and len(verts) >= 3:
                # points[j] is outside the closed set, so strictly outside
                # its polygon: splice it into the cycle, no new hull
                hull = _splice_cycle_2d(verts, points[j])
                new = site.cut_mask(_facets_from_cycle_2d(hull))
            else:
                poly = convex_hull(verts + (points[j],))
                hull = poly.vertices
                new = site_mask(poly, site)
            if new not in found:
                vmask = 0
                for v in hull:
                    vmask |= 1 << index[v]
                found[new] = vmask
                if len(found) > max_states:
                    raise BudgetExceededError(
                        f"more than {max_states} closed subsets; raise max_states"
                    )
                queue.append((new, hull))
    order = sorted(found, key=lambda m: (m.bit_count(), site.points_of(m)))
    return {m: found[m] for m in order}


@dataclass(frozen=True)
class SiteProfile:
    """g and c values of a finite site for k = 0..k_max, plus witnesses.

    witnesses[k] is the vertex tuple of a polytope attaining g[k] (None
    when g[k] is NEG_INF).
    """

    label: str
    ambient_dim: int
    site_size: int
    k_max: int
    g: tuple
    c: tuple
    witnesses: tuple

    def __post_init__(self) -> None:
        assert len(self.g) == len(self.c) == len(self.witnesses) == self.k_max + 1


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


def g_profile(
    site: FiniteSite,
    k_max: Optional[int] = None,
    *,
    label: Optional[str] = None,
    max_states: int = _DEFAULT_STATE_BUDGET,
) -> SiteProfile:
    """Profile of g (and c via the stepwise route) for k = 0..k_max.

    The witness of g[k] is the first closed set in enumeration order with
    the largest vertex count; only the k_max + 1 witnesses are hulled
    again, to give their vertices in polytope order.
    """
    if k_max is None:
        k_max = len(site)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    g: list[ExtInt] = [NEG_INF] * (k_max + 1)
    best: list = [None] * (k_max + 1)
    for closed, verts in enumerate_convex_subsets(site, max_states=max_states).items():
        nvert = verts.bit_count()
        k = closed.bit_count() - nvert
        if k <= k_max and g[k] < nvert:
            g[k] = nvert
            best[k] = closed
    wit: list = [None] * (k_max + 1)
    for k, closed in enumerate(best):
        if closed is not None:
            poly = convex_hull(site.points_of(closed))
            assert site_mask(poly, site) == closed and len(poly.vertices) == g[k]
            wit[k] = poly.vertices
    return SiteProfile(
        label=label or site.describe(),
        ambient_dim=site.dim,
        site_size=len(site),
        k_max=k_max,
        g=tuple(g),
        c=c_from_g(g, len(site), k_max),
        witnesses=tuple(wit),
    )


# ---------------------------------------------------------------------------
# bound audit


@dataclass(frozen=True)
class BoundCheck:
    k: int
    name: str
    bound: int
    value: ExtInt
    satisfied: bool
    equality: bool


@dataclass(frozen=True)
class BoundReport:
    label: str
    ambient_dim: int
    h: ExtInt
    checks: tuple

    @property
    def all_satisfied(self) -> bool:
        return all(ch.satisfied for ch in self.checks)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def audit_bounds(
    label: str,
    ambient_dim: int,
    c_values: Sequence[ExtInt],
) -> BoundReport:
    """Check c against the known upper bounds.

    paired_step: floor((k+1)/2) * (h-2) + h, valid whenever h >= 2;
    linear:      (k+1) * h;
    two_thirds:  ceil(2(k+1)/3) * (2^n - 2) + 2,
    power:       (k+2)^n.
    NEG_INF values satisfy everything vacuously.
    """
    h = c_values[0]
    checks: list[BoundCheck] = []
    n = ambient_dim
    for k, val in enumerate(c_values):
        entries: list[tuple[str, int]] = []
        if is_finite(h):
            if h >= 2:
                entries.append(("paired_step", ((k + 1) // 2) * (h - 2) + h))
            entries.append(("linear", (k + 1) * h))
        entries.append(("two_thirds", _ceil_div(2 * (k + 1), 3) * (2 ** n - 2) + 2))
        entries.append(("power", (k + 2) ** n))
        for name, bound in entries:
            ok = (not is_finite(val)) or val <= bound
            eq = is_finite(val) and val == bound
            checks.append(BoundCheck(k, name, bound, val, ok, eq))
    return BoundReport(label=label, ambient_dim=n, h=h, checks=tuple(checks))
