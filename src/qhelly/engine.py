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
popcounts.  The work queue carries each new closed set with the hull
that the step first reaching it made (an index cycle, a facet list or a
polytope), so the hull of a closed set is never rebuilt.

A site of affine dimension at most 2 (a planar site, or a flat one in
Z^n read on the coordinates the hull code keeps) is enumerated on
indices alone.  One table holds, for each ordered pair of points, the
mask of the site on or left of the line through them.  A hull is a
point, a segment or a counterclockwise cycle of indices; its closed set
is the AND of its edges' line masks, and a point p outside a polygon is
spliced into its cycle in place of the chain of edges that see p
(beneath-beyond), with no hull and no facet built.

A site of affine dimension 3, read the same way, carries each closed
set of affine dimension 3 with its facets (primitive normal, offset,
vertex mask, halfspace mask).  A point p outside is added by
beneath-beyond (Preparata & Hong 1977): the facets that see p go, one
whose plane holds p gets the 2-D hull of its vertices plus p, and a
triangle joins p to each horizon edge.  The closed set is the AND of
the facets' halfspace masks.  A polygon plus a point off its plane is a
pyramid.  A closed set of lower dimension, and any set of a site of
affine dimension 4 or 5, hulls V(C) + p anew and closes it by ANDing
the site's memoized halfspace masks, one per facet (two per affine-hull
equation when the hull is degenerate).  Only the winning witnesses are
hulled again, in the site's own coordinates.

c comes from the stepwise recursion over the g profile (c_from_g).  The
tests hold it against a second, independent route: direct maximization
over the enumerated closed sets.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass
from itertools import accumulate
from math import gcd
from operator import and_
from typing import Optional, Sequence

from .errors import BudgetExceededError
from .extint import NEG_INF, ExtInt, ext_max, is_finite
from .lattice import (
    FiniteSite,
    LatticePolytope,
    _affinely_independent_subset,
    _dot,
    _hull_cycle_2d,
    _kept_coordinates,
    convex_hull,
    site_mask,
)

_DEFAULT_STATE_BUDGET = 2_000_000
_SITE_SIZE_LIMIT = 30


def check_site_size(size: int) -> None:
    """Refuse a site of more than _SITE_SIZE_LIMIT points, before any work."""
    if size > _SITE_SIZE_LIMIT:
        raise BudgetExceededError(
            f"site has {size} points; closed subsets can approach "
            f"2^{size}, refuse beyond {_SITE_SIZE_LIMIT}"
        )


def _budget_error(max_states: int) -> BudgetExceededError:
    return BudgetExceededError(f"more than {max_states} closed subsets; raise max_states")


def _line_masks(xy: Sequence[tuple]) -> list:
    """left[a*n + b]: the mask of the points on or left of the directed line
    from xy[a] to xy[b] (every point when a == b)."""
    n = len(xy)
    full = (1 << n) - 1
    left = [full] * (n * n)
    for a, (ax, ay) in enumerate(xy):
        for b in range(a + 1, n):
            dx, dy = xy[b][0] - ax, xy[b][1] - ay
            on = right = 0
            for q, (qx, qy) in enumerate(xy):
                cross = dx * (qy - ay) - dy * (qx - ax)
                if cross <= 0:
                    if cross:
                        right |= 1 << q
                    else:
                        on |= 1 << q
            left[a * n + b] = full ^ right
            left[b * n + a] = right | on
    return left


def _seen_chain(back: Sequence[int], j: int) -> tuple[int, int]:
    """The edges s..t-1 of a counterclockwise index cycle that see point j.

    Edge e runs from cycle[e] to cycle[e + 1], cyclically, and back[e] is
    the line mask on or right of it; an edge sees j when j is on or right
    of its line.  j must lie strictly outside the polygon and above its
    vertices in index (lexicographic) order.  The edges that see j then
    form one chain, which cannot hold both edges at cycle[0]: that vertex
    is the least of cycle + j, so it stays a vertex.  Hence 0 <= s < t <=
    len(cycle), and the hull cycle of cycle + j, still from cycle[0], is
    cycle[:s + 1] + (j,) + cycle[t:]: j takes the place of the chain's
    inner vertices.  A vertex on the segment from j to its neighbour sees
    j along both of its edges, so it is dropped, as convex_hull drops it.
    """
    sees = [e for e, mask in enumerate(back) if mask >> j & 1]
    return sees[0], sees[-1] + 1


def _planar_closed_sets(xy: Sequence[tuple], max_states: int) -> dict:
    """Closed sets of a planar site, by index cycles on its line masks.

    A queue entry is a closed set, its hull's vertex cycle, and the line
    masks of the cycle's edges: edge e runs from cycle[e] to cycle[e + 1]
    (cyclically), fwd[e] is the mask on or left of it and back[e] the mask
    on or right of it.  For a point or a segment both lists are empty.
    """
    n = len(xy)
    full = (1 << n) - 1
    left = _line_masks(xy)
    found = {1 << i: 1 << i for i in range(n)}
    queue = deque((1 << i, (i,), [], []) for i in range(n))
    while queue:
        cur, hull, fwd, back = queue.popleft()
        if fwd:
            # head[s]: the AND over edges 0..s-1, tail[t]: over edges t..
            head = [full, *accumulate(fwd, and_)]
            tail = [*accumulate(reversed(fwd), and_)][::-1] + [full]
        for j in range(cur.bit_length(), n):
            if fwd:
                # j is not in the closed set, so strictly outside its polygon
                s, t = _seen_chain(back, j)
                a, b = hull[s], hull[t % len(hull)]
                into, out = left[a * n + j], left[j * n + b]
                new = head[s] & tail[t] & into & out
                if new in found:
                    continue
                cycle = hull[: s + 1] + (j,) + hull[t:]
                new_fwd = fwd[:s] + [into, out] + fwd[t:]
                new_back = back[:s] + [left[j * n + a], left[b * n + j]] + back[t:]
            else:
                # a point a is the segment (a, a), whose line masks are full
                a, b = hull[0], hull[-1]
                if (left[a * n + b] & left[b * n + a]) >> j & 1:
                    # collinear site points are monotone in index order
                    new = left[a * n + j] & left[j * n + a] & ((2 << j) - (1 << a))
                    if new in found:
                        continue
                    cycle, new_fwd, new_back = (a, j), [], []
                else:
                    cycle = (a, b, j) if left[a * n + b] >> j & 1 else (a, j, b)
                    ring = cycle[1:] + cycle[:1]
                    new_fwd = [left[v * n + w] for v, w in zip(cycle, ring)]
                    new = new_fwd[0] & new_fwd[1] & new_fwd[2]
                    if new in found:
                        continue
                    new_back = [left[w * n + v] for v, w in zip(cycle, ring)]
            vmask = 0
            for v in cycle:
                vmask |= 1 << v
            found[new] = vmask
            if len(found) > max_states:
                raise _budget_error(max_states)
            queue.append((new, cycle, new_fwd, new_back))
    return found


def _lowest(mask: int) -> int:
    """The index of the lowest set bit of a nonzero mask."""
    return (mask & -mask).bit_length() - 1


def _cone_facet(site: FiniteSite, j: int, edge: int, inner: int) -> tuple:
    """The facet through point j and the hull edge whose two vertex bits
    are edge, as (normal, offset, vertex mask, halfspace mask).

    The lowest vertex of the mask inner outside edge must lie off that
    plane; the primitive normal is oriented so that it lies beneath.
    """
    points = site.points
    x, y, z = points[j]
    ax, ay, az = points[_lowest(edge)]
    bx, by, bz = points[edge.bit_length() - 1]
    ax, ay, az, bx, by, bz = ax - x, ay - y, az - z, bx - x, by - y, bz - z
    nx, ny, nz = ay * bz - az * by, az * bx - ax * bz, ax * by - ay * bx
    g = gcd(nx, ny, nz)
    normal = (nx // g, ny // g, nz // g)
    offset = normal[0] * x + normal[1] * y + normal[2] * z
    if _dot(normal, points[_lowest(inner & ~edge)]) > offset:
        normal, offset = (-normal[0], -normal[1], -normal[2]), -offset
    return normal, offset, edge | 1 << j, site.halfspace_mask(normal, offset)


def _plane_vertices(points: Sequence[tuple], normal: tuple, mask: int) -> int:
    """The mask of the hull vertices of the points of mask, which lie in
    one plane with this normal: a 2-D hull after dropping a coordinate
    on which the normal is nonzero, which maps the plane one to one."""
    drop = 0 if normal[0] else 1 if normal[1] else 2
    bit_of = {}
    for i in range(mask.bit_length()):
        if mask >> i & 1:
            p = points[i]
            bit_of[p[:drop] + p[drop + 1 :]] = 1 << i
    vmask = 0
    for q in _hull_cycle_2d(bit_of):
        vmask |= bit_of[q]
    return vmask


def _pyramid(site: FiniteSite, poly: LatticePolytope, base: tuple, j: int) -> tuple:
    """The closed set and facets of the pyramid over a polygon of the
    site, with apex j off the polygon's plane normal . x = offset: the
    base plus one triangle per edge (a facet of the polygon in its plane).
    """
    normal, offset = base
    if _dot(normal, site.points[j]) > offset:
        normal, offset = tuple(-x for x in normal), -offset
    index = site.index
    vmask = 0
    for v in poly.vertices:
        vmask |= 1 << index[v]
    facets = [(normal, offset, vmask, site.halfspace_mask(normal, offset))]
    closed = facets[0][3]
    for h, c in poly.facets:
        edge = 0
        for v in poly.vertices:
            if _dot(h, v) == c:
                edge |= 1 << index[v]
        facets.append(_cone_facet(site, j, edge, vmask))
        closed &= facets[-1][3]
    return closed, facets


def _beneath_beyond(site: FiniteSite, facets: list, j: int, found: dict) -> tuple:
    """The closed set and facets of the hull of a full-dimensional hull,
    given by its facets, plus point j outside it; the facets are None
    when the closed set is in found already.

    Facets that see j (normal . p > offset) are dropped; one whose plane
    holds j gets the 2-D hull of its vertices plus j; and a facet is
    added through j and each horizon edge, where a seen facet meets a
    facet beneath j.  Two facets of a 3-D polytope share an edge exactly
    when their vertex masks share 2 bits.  A horizon edge on a facet
    whose plane holds j adds no facet: the triangle lies in that plane.
    """
    points = site.points
    x, y, z = points[j]
    closed = (1 << len(points)) - 1
    seen, beneath, level = [], [], []
    for f in facets:
        (a, b, c), offset, _, hmask = f
        side = a * x + b * y + c * z - offset
        if side > 0:
            seen.append(f)
        else:
            closed &= hmask
            (beneath if side else level).append(f)
    new_facets = beneath[:]
    for f in seen:
        for g in beneath:
            edge = f[2] & g[2]
            if edge.bit_count() == 2:
                new_facets.append(_cone_facet(site, j, edge, g[2]))
                closed &= new_facets[-1][3]
    if closed in found:
        return closed, None
    for normal, offset, vmask, hmask in level:
        vmask = _plane_vertices(points, normal, vmask | 1 << j)
        new_facets.append((normal, offset, vmask, hmask))
    return closed, new_facets


def _solid_closed_sets(site: FiniteSite, max_states: int) -> dict:
    """Closed sets of a site in Z^3 of affine dimension 3, by beneath-beyond.

    A queue entry is a closed set and its hull, while that has affine
    dimension at most 2, or else its facets, each as (primitive normal,
    offset, mask of the hull vertices on it, mask of the site points
    beneath it).  A closed set is the AND of its facets' halfspace
    masks, and its vertex mask the OR of their vertex masks.  A point,
    segment or polygon plus a point in its affine hull is hulled anew; a
    polygon plus a point off its plane is a pyramid.
    """
    points, index = site.points, site.index
    found = {1 << i: 1 << i for i in range(len(points))}
    queue = deque((1 << i, convex_hull((p,)), None) for i, p in enumerate(points))
    while queue:
        cur, poly, facets = queue.popleft()
        if facets is None and poly.affine_dim == 2:
            (base,) = poly.equalities
        for j in range(cur.bit_length(), len(points)):
            hull = None
            if facets is not None:
                new, new_facets = _beneath_beyond(site, facets, j, found)
            elif poly.affine_dim == 2 and _dot(base[0], points[j]) != base[1]:
                new, new_facets = _pyramid(site, poly, base, j)
            else:
                hull, new_facets = convex_hull(poly.vertices + (points[j],)), None
                new = site_mask(hull, site)
            if new in found:
                continue
            vmask = 0
            if hull is None:
                for f in new_facets:
                    vmask |= f[2]
            else:
                for v in hull.vertices:
                    vmask |= 1 << index[v]
            found[new] = vmask
            if len(found) > max_states:
                raise _budget_error(max_states)
            queue.append((new, hull, new_facets))
    return found


def _closed_sets_by_hulls(site: FiniteSite, max_states: int) -> dict:
    """Closed sets of a site of any dimension, by a new hull per extension."""
    points, index = site.points, site.index
    found = {1 << i: 1 << i for i in range(len(points))}
    queue = deque((1 << i, (p,)) for i, p in enumerate(points))
    while queue:
        cur, verts = queue.popleft()
        for j in range(cur.bit_length(), len(points)):
            poly = convex_hull(verts + (points[j],))
            new = site_mask(poly, site)
            if new not in found:
                vmask = 0
                for v in poly.vertices:
                    vmask |= 1 << index[v]
                found[new] = vmask
                if len(found) > max_states:
                    raise _budget_error(max_states)
                queue.append((new, poly.vertices))
    return found


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
    revisiting permutations.  The step that first reaches a closed set
    gives its vertex mask, and its vertices travel with it in the queue.

    A site of affine dimension at most 2 is read on the coordinates
    _kept_coordinates keeps, which map it one to one and in order, and is
    enumerated on indices alone: V(C) is a point, a segment or a
    counterclockwise index cycle from its lexicographic minimum, and a
    closed set is the AND of the line masks of its edges (_line_masks,
    built once per site).  p is not in C, so it lies strictly outside
    C's polygon: its hull cycle is C's with the chain of edges that see
    p spliced out, and no hull is built.  A point plus p is a segment;
    a segment plus p is a longer segment or a triangle.

    A site of affine dimension 3 is read the same way on three
    coordinates.  A closed set of affine dimension 3 travels with its
    facets, and p is added by beneath-beyond (_beneath_beyond): no hull
    is built.  A polygon plus a point off its plane is a pyramid
    (_pyramid).  A closed set of lower dimension there, and any closed
    set of a site of affine dimension 4 or 5, hulls V(C) + p anew and
    closes it with the site's halfspace masks.
    """
    check_site_size(len(site))
    points = site.points
    base = _affinely_independent_subset(points, site.dim)
    if len(base) <= 3:
        kept = _kept_coordinates(base)
        # a point or a line gets a zero second coordinate: one collinear site
        pad = (0,) * (2 - len(kept))
        xy = [tuple(p[i] for i in kept) + pad for p in points]
        found = _planar_closed_sets(xy, max_states)
    elif len(base) == 4:
        if site.dim > 3:
            kept = _kept_coordinates(base)
            site = FiniteSite.of(tuple(p[i] for i in kept) for p in points)
        found = _solid_closed_sets(site, max_states)
    else:
        found = _closed_sets_by_hulls(site, max_states)
    # bit i is the i-th point in lexicographic order, so sorted point tuples
    # of one size compare as their index tuples: the one holding the lower
    # first differing index is smaller, and the complement's binary digits,
    # read from bit 0 up, compare the same way
    digits = f"0{len(points)}b"
    full = (1 << len(points)) - 1
    order = sorted(found, key=lambda m: format(full ^ m, digits)[::-1])
    order.sort(key=int.bit_count)
    return {m: found[m] for m in order}


@dataclass(frozen=True)
class SiteProfile:
    """g and c values of a finite site for k = 0..k_max, plus witnesses.

    witnesses[k] is the vertex tuple of a polytope attaining g[k] (None
    when g[k] is NEG_INF).
    """

    label: str
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
    return BoundReport(label=label, h=h, checks=tuple(checks))
