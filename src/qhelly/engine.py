"""Counting-function profiles over finite sites.

Two quantities are computed for a finite site S and each k:

  g(S, k): the largest vertex count of a polytope whose vertices lie in S
           and which contains exactly k points of S that are not vertices;
  c(S, k): the largest N such that some polytope P with vertices in S has
           |S intersect P| - k = N while at most k of those points are in
           the configuration's nonvertex positions (equivalently, the
           quantitative Helly-type constant of S at level k).

Both come from one enumeration of the closed subsets C = S intersect
conv C, as bitmasks over the indexed site (bit i is site.points[i]).
The closed sets form a tree, a set's parent being the set less its
greatest point, so each is reached once.  Each of the two kernels is a
generator whose work stack carries each closed set with its hull, as
masks and facets, so no hull is built while enumerating; it yields each
set with its vertex mask as it pops it.  One collector keeps the pairs
in a dict, whose totals and vertex counts are popcounts, and holds them
to the state budget.  A site is read on the coordinates that
lattice._affine_base keeps, on which it is full-dimensional.

A site of affine dimension at most 2 is enumerated on indices alone,
with one table of line masks for the ordered pairs of points.  A hull is
a counterclockwise index cycle from its least point; a new point p is
spliced in place of the chain of edges that see it (beneath-beyond),
and the new closed set is the AND of the edges' line masks.

A site of affine dimension 3 to 5 carries each closed set with the
integer equalities of its affine hull and its facets relative to that
hull (primitive normal, offset, vertex mask, halfspace mask), and the
closed set is the AND of their masks.  A point off the affine hull makes
a pyramid; a point in it is added by beneath-beyond (Seidel 1981), with
new facets by the double-description step (Fukuda & Prodon 1996), and
the old vertices that stay are those on a facet beneath it (_extend).
g_profile folds over the collected dict and picks each witness as it
goes; only the winning witnesses are hulled, in the site's own
coordinates.

c comes from the stepwise recursion over the g profile
(extint.c_from_g).  g[k] is None where no closed set has k nonvertex
points, and c[k] is None where k exceeds the site's size.  The tests
hold c against a second, independent route: direct maximization over
the enumerated closed sets.
"""

from __future__ import annotations

from itertools import accumulate
from math import gcd
from operator import and_
from typing import Iterator, NamedTuple, Optional, Sequence

from .errors import BudgetExceededError, UnsupportedDimensionError
from .extint import Profile, c_from_g
from .lattice import (
    _HULL_DIM_LIMIT,
    FiniteSite,
    _affine_base,
    _dot,
    convex_hull,
    site_mask,
)

_STATE_BUDGET = 2_000_000
_SITE_SIZE_LIMIT = 30


def check_site_size(size: int) -> None:
    """Refuse a site of more than _SITE_SIZE_LIMIT points, before any work."""
    if size > _SITE_SIZE_LIMIT:
        raise BudgetExceededError(
            f"site has {size} points; closed subsets can approach "
            f"2^{size}, refuse beyond {_SITE_SIZE_LIMIT}"
        )


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
    of its line.  j must lie outside the closed set and above its
    vertices in index (lexicographic) order.  The edges that see j then
    form one chain, which holds both edges at cycle[0] only when they are
    all the edges, of a point or a segment: cycle[0] is the least of
    cycle + j, so it stays a vertex.  Hence 0 <= s < t <=
    len(cycle), and the hull cycle of cycle + j, still from cycle[0], is
    cycle[:s + 1] + (j,) + cycle[t:]: j takes the place of the chain's
    inner vertices.  A vertex on the segment from j to its neighbour sees
    j along both of its edges, so it is dropped, as convex_hull drops it.
    """
    sees = [e for e, mask in enumerate(back) if mask >> j & 1]
    return sees[0], sees[-1] + 1


def _planar_closed_sets(xy: Sequence[tuple]) -> Iterator[tuple[int, int]]:
    """Closed sets of a planar site, by index cycles on its line masks;
    yields each with its vertex mask once, as it is popped.

    A stack entry is a closed set, its vertex mask, its hull's vertex
    cycle, and the line masks of the cycle's edges: edge e runs from
    cycle[e] to cycle[e + 1] (cyclically), fwd[e] is the mask on or left
    of it and back[e] the mask on or right of it.  A point i is the
    one-edge cycle (i,), with full masks.
    """
    n = len(xy)
    full = (1 << n) - 1
    left = _line_masks(xy)
    stack = [(1 << i, 1 << i, (i,), [full], [full]) for i in range(n)]
    while stack:
        cur, vmask, hull, fwd, back = stack.pop()
        yield cur, vmask
        # head[s]: the AND over edges 0..s-1, tail[t]: over edges t..
        head = [full, *accumulate(fwd, and_)]
        tail = [*accumulate(reversed(fwd), and_)][::-1] + [full]
        for j in range(cur.bit_length(), n):
            # the child is kept only when it is closed itself
            target = cur | 1 << j
            s, t = _seen_chain(back, j)
            a, b = hull[s], hull[t % len(hull)]
            into, out = left[a * n + j], left[j * n + b]
            closed = head[s] & tail[t] & into & out
            if len(hull) < 3:
                # a segment's line masks leave its whole line; the closed
                # set lies between indices hull[0] and j
                closed &= (2 << j) - (1 << hull[0])
            if closed != target:
                continue
            cycle = hull[: s + 1] + (j,) + hull[t:]
            new_fwd = fwd[:s] + [into, out] + fwd[t:]
            new_back = back[:s] + [left[j * n + a], left[b * n + j]] + back[t:]
            new_vmask = 0
            for v in cycle:
                new_vmask |= 1 << v
            stack.append((target, new_vmask, cycle, new_fwd, new_back))


def _hyperplane(normal: list, offset: int) -> tuple:
    """(normal, offset) with the normal made primitive; the hyperplane holds
    a lattice point, so the gcd divides the offset too."""
    g = gcd(*normal)
    return tuple(a // g for a in normal), offset // g


def _plane_mask(site: FiniteSite, normal: tuple, offset: int) -> int:
    """The mask of the site points on the hyperplane normal . x = offset."""
    flip = tuple(-a for a in normal)
    return site.halfspace_mask(normal, offset) & site.halfspace_mask(flip, -offset)


def _extend(
    site: FiniteSite, eqs: tuple, facets: list, vmask: int, j: int, target: int
) -> Optional[tuple]:
    """The equalities, facets and vertex mask of the hull of a closed set C
    plus point j outside it, when the site points in that hull are target
    (C + j in the enumeration); None when they are not.

    The affine hull of C is cut out by the integer equalities eqs, as
    (normal, offset) pairs; facets are C's facets relative to that hull,
    as (primitive normal, offset, vertex mask, halfspace mask) meaning
    normal . x <= offset, and vmask is the mask of C's vertices.

    A point p off the affine hull makes a pyramid: with e the first
    equality and s = e . p - e0 != 0, the base facet is b = -sign(s) e,
    an old facet f becomes |s| f - (f0 - f . p) b, which holds p, and an
    other equality e' becomes s e' - (e' . p - e'0) e; a lone point gets
    the one new facet -b through p.  A point in the affine hull is added
    by beneath-beyond: a facet F that sees p goes, and with an adjacent
    facet G beneath p gives the facet (f . p - f0) g - (g . p - g0) f
    through their ridge and p.  F and G of an r-polytope are adjacent
    when their vertex masks share r - 1 bits, so that F & G is a face of
    dimension at least min(r - 2, 2), and, for r >= 5, no third facet's
    vertex mask holds the shared ones.  The vertices of conv(C + p) are p
    and, for a pyramid, all of C's; for beneath-beyond, those on a facet
    beneath p, and a facet whose hyperplane holds p keeps p and those of
    its old vertices: a vertex of C is a vertex of conv(C + p) exactly
    when some facet through it has p beneath it (Grunbaum, Convex
    Polytopes, 5.2.1).  A vertex v on no such facet lies between p and
    the point v - e (p - v) of conv C, for a small e > 0.
    """
    p, d, bit = site.points[j], site.dim, 1 << j
    mask_of = site.halfspace_mask
    closed = (1 << len(site.points)) - 1
    for k, (e, e0) in enumerate(eqs):
        s = _dot(e, p) - e0
        if s:
            b, b0 = (tuple(-a for a in e), -e0) if s > 0 else (e, e0)
            new_eqs = []
            for f, f0 in eqs[:k] + eqs[k + 1 :]:
                t = _dot(f, p) - f0
                new_eqs.append(_hyperplane([s * x - t * y for x, y in zip(f, e)], s * f0 - t * e0))
                closed &= _plane_mask(site, *new_eqs[-1])
            new_facets = [(b, b0, vmask, mask_of(b, b0))]
            s = abs(s)
            for f, f0, fv, _ in facets:
                t = f0 - _dot(f, p)
                h = _hyperplane([s * x - t * y for x, y in zip(f, b)], s * f0 - t * b0)
                new_facets.append((*h, fv | bit, mask_of(*h)))
            if not facets:
                h = tuple(-a for a in b), -_dot(b, p)
                new_facets.append((*h, bit, mask_of(*h)))
            for f in new_facets:
                closed &= f[3]
            return (tuple(new_eqs), new_facets, vmask | bit) if closed == target else None
    for e, e0 in eqs:
        closed &= _plane_mask(site, e, e0)
    r = d - len(eqs)
    seen, beneath, level = [], [], []
    for f in facets:
        side = _dot(f[0], p) - f[1]
        if side > 0:
            seen.append((f, side))
        else:
            closed &= f[3]
            if side:
                beneath.append((f, side))
            else:
                level.append(f)
    new_facets = [g for g, _ in beneath]
    for (f, f0, fv, _), fs in seen:
        for (g, g0, gv, _), gs in beneath:
            ridge = fv & gv
            if ridge.bit_count() < r - 1:
                continue
            if r > 4 and sum((h[2] & ridge) == ridge for h in facets) > 2:
                continue
            h = _hyperplane([fs * y - gs * x for x, y in zip(f, g)], fs * g0 - gs * f0)
            new_facets.append((*h, ridge | bit, mask_of(*h)))
            closed &= new_facets[-1][3]
    if closed != target:
        return None
    # the vertices of C that stay vertices are those on a facet beneath p
    keep = 0
    for g, _ in beneath:
        keep |= g[2]
    new_facets += [(f, f0, fv & keep | bit, hmask) for f, f0, fv, hmask in level]
    return eqs, new_facets, keep | bit


def _closed_sets(site: FiniteSite) -> Iterator[tuple[int, int]]:
    """Closed sets of a full-dimensional site in Z^d, d = 3..5, by _extend;
    yields each with its vertex mask once, as it is popped.

    A stack entry is a closed set, the equalities of its affine hull, its
    facets relative to that hull and its vertex mask; a singleton starts
    with the d unit equalities and no facets.
    """
    points, d = site.points, site.dim
    units = [tuple(int(a == b) for b in range(d)) for a in range(d)]
    stack = [(1 << i, tuple(zip(units, p)), [], 1 << i) for i, p in enumerate(points)]
    while stack:
        cur, eqs, facets, vmask = stack.pop()
        yield cur, vmask
        for j in range(cur.bit_length(), len(points)):
            target = cur | 1 << j
            step = _extend(site, eqs, facets, vmask, j, target)
            if step is not None:
                stack.append((target, *step))


def enumerate_convex_subsets(site: FiniteSite) -> dict:
    """All nonempty closed subsets of the site (C = S intersect conv C).

    Subsets are bitmasks over the site (bit i is site.points[i]).  The
    result maps each closed set to the mask of its hull's vertices, in
    no promised order.

    Tree rule: a closed set C is extended only by a point p
    lexicographically above its maximum, and the child C + p is kept
    only when it is closed: S intersect conv(V(C) + p), where V(C) is
    the vertex set of C, is C + p itself.  Every closed set C' but a
    singleton is reached exactly once this way, from C' less its greatest
    point p: p is a vertex of conv C', so conv(C' - p) holds no site point
    outside C' - p, which is therefore closed (orderly generation with a
    canonical parent; Read, Every one a winner, 1978).  So no step looks
    up the sets found before it: each set's hull and vertex mask travel
    with it on a kernel's stack, and the kernel yields the set and its
    vertex mask once, when it pops it.  This function only collects the
    pairs, and refuses a site with more than _STATE_BUDGET closed sets.

    A site is read on the coordinates _affine_base keeps with its affine
    base, which map it one to one and in order.  A site of affine
    dimension at most 2 is enumerated on indices alone: V(C) is a
    counterclockwise index cycle from its lexicographic minimum, and a
    closed set is the AND of the line masks of its edges (_line_masks,
    built once per site).  p is not in C, so it lies outside C's hull:
    its hull cycle is C's with the chain of edges that see p spliced out.
    A point is a one-edge cycle and a segment a two-edge one, so the same
    splice makes a point plus p a segment, and a segment plus p a longer
    segment or a triangle.  Collinear site points are monotone in index
    order, so a point's or a segment's closed set is cut to the indices
    from C's least to p.

    A site of affine dimension 3 to 5 carries each closed set with the
    equalities of its affine hull and its facets relative to that hull;
    p makes a pyramid over C when it is off C's affine hull, and is
    added by beneath-beyond when it is in it (_extend).  Neither path
    builds a hull.
    """
    check_site_size(len(site))
    points = site.points
    base, kept = _affine_base(points)
    d = len(base) - 1
    if d > _HULL_DIM_LIMIT:
        # the scan stopped at its cap; with points left, d only bounds below
        least = "at least " if d < site.dim and base[-1] != points[-1] else ""
        raise UnsupportedDimensionError(
            f"closed sets are enumerated up to affine dimension {_HULL_DIM_LIMIT}, "
            f"got {least}{d}"
        )
    if len(base) <= 3:
        # a point or a line gets a zero second coordinate: one collinear site
        pad = (0,) * (2 - len(kept))
        pairs = _planar_closed_sets([tuple(p[i] for i in kept) + pad for p in points])
    else:
        if len(kept) < site.dim:
            site = FiniteSite.of(tuple(p[i] for i in kept) for p in points)
        pairs = _closed_sets(site)
    found: dict = {}
    for closed, vmask in pairs:
        found[closed] = vmask
        if len(found) > _STATE_BUDGET:
            raise BudgetExceededError(
                f"more than {_STATE_BUDGET} closed subsets; use a smaller site, such as a smaller box"
            )
    return found


def g_profile(
    site: FiniteSite,
    k_max: Optional[int] = None,
    *,
    label: Optional[str] = None,
) -> Profile:
    """Profile of g (and c via the stepwise route) for k = 0..k_max.

    One fold over the closed sets, in any order, keeps per k the largest
    vertex count and, among the sets that attain it, the least sorted
    point tuple: the witness of g[k] is the first such set in (size,
    sorted point tuple) order.  Only the k_max + 1 winners are hulled
    again, and witnesses[k] is the vertex tuple of that hull, in polytope
    order (None where g[k] is None).
    """
    if k_max is None:
        k_max = len(site)
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    # 0 stands for "no closed set yet": every closed set has a vertex
    g = [0] * (k_max + 1)
    best: list = [None] * (k_max + 1)
    for closed, verts in enumerate_convex_subsets(site).items():
        nvert = verts.bit_count()
        k = closed.bit_count() - nvert
        # a tie has the same size; bit i is the i-th point in lexicographic
        # order, so the lesser sorted point tuple holds the lowest bit of the two
        # masks' difference
        if k <= k_max and (
            g[k] < nvert or (g[k] == nvert and (d := closed ^ best[k]) & -d & closed)
        ):
            g[k] = nvert
            best[k] = closed
    wit: list = [None] * (k_max + 1)
    for k, closed in enumerate(best):
        if closed is not None:
            poly = convex_hull(site.points_of(closed))
            assert site_mask(poly, site) == closed and len(poly.vertices) == g[k]
            wit[k] = poly.vertices
    g_vals = tuple(v or None for v in g)
    c_vals = c_from_g(g_vals, len(site))
    return Profile(label or site.describe(), k_max, g_vals, c_vals, tuple(wit))


# ---------------------------------------------------------------------------
# bound audit


class BoundCheck(NamedTuple):
    k: int
    name: str
    bound: int
    value: Optional[int]
    satisfied: bool
    equality: bool


class BoundReport(NamedTuple):
    h: Optional[int]
    checks: tuple

    @property
    def all_satisfied(self) -> bool:
        return all(ch.satisfied for ch in self.checks)


def _ceil_div(a: int, b: int) -> int:
    return -(-a // b)


def audit_bounds(ambient_dim: int, c_values: Sequence[Optional[int]]) -> BoundReport:
    """Check c against the known upper bounds.

    paired_step: floor((k+1)/2) * (h-2) + h, valid whenever h >= 2;
    linear:      (k+1) * h;
    two_thirds:  ceil(2(k+1)/3) * (2^n - 2) + 2,
    power:       (k+2)^n.
    None values satisfy everything vacuously.
    """
    h = c_values[0]
    checks: list[BoundCheck] = []
    n = ambient_dim
    for k, val in enumerate(c_values):
        entries: list[tuple[str, int]] = []
        if h is not None:
            if h >= 2:
                entries.append(("paired_step", ((k + 1) // 2) * (h - 2) + h))
            entries.append(("linear", (k + 1) * h))
        entries.append(("two_thirds", _ceil_div(2 * (k + 1), 3) * (2 ** n - 2) + 2))
        entries.append(("power", (k + 2) ** n))
        for name, bound in entries:
            ok = val is None or val <= bound
            eq = val == bound
            checks.append(BoundCheck(k, name, bound, val, ok, eq))
    return BoundReport(h=h, checks=tuple(checks))
