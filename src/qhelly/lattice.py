"""Exact lattice geometry: hulls, finite sites, point censuses, canonical forms.

All arithmetic is exact integer arithmetic; a point whose coordinate is
not an integer is refused, not truncated.  Convex hulls are supported for
affine dimension up to 5: dimensions 0-2 directly, 3-5 by a fraction-free
double description on the polar dual, started from the dual simplex of
an affinely independent base, whose incidences are int bitmasks: its
edges and the primal vertices are found by ANDs of them, with no rank
computed (_dd_hull).  convex_hull sorts the points and picks
that base, with the coordinates to keep, in one row-echelon pass
(_affine_base), which also gives the affine dimension.  Full-dimensional
inputs are hulled as they are; an input of lower affine dimension d is
projected, with its base, onto the d kept coordinates, on which its
affine hull is one to one and keeps its lexicographic order, hulled
there, and its facets are lifted by zeros in the dropped coordinates, so
facet data is always integral.
Over the integer lattice, the points of a full-dimensional
polytope are counted and listed by exact row intervals of the last
coordinate, one per point of the box of the others.  census also
counts a point, and a segment from a to b as its gcd(b - a) + 1 lattice
points; it refuses every other degenerate polytope, and
lattice_points_in refuses every degenerate one.
A planar canonical form is the least of the 2v anchored images of a
vertex cycle; rotating calipers find each image's top vertex, and its
least x is read off its left chain (_anchored_leads), so an image is
built, or walked, only when its least x ties.  One calipers pass yields
the images whose least x is at most a running bound, which drops to the
least x of each image it yields, and skips every edge whose two images
an area bound, from the cycle's doubled area, puts above the bound,
before their maps are made.  The canonical form starts the bound at 0,
the anchor's x.  The load-time check (is_canonical_cycle_2d) starts it
at the stored cycle's least x, so it skips, without making a tuple of
it, every image whose least x exceeds that, and never walks the
identity image, which equals the cycle.
"""

from __future__ import annotations

import itertools
from math import gcd
from operator import mul
from typing import Iterable, Iterator, NamedTuple, Sequence

from .errors import DegenerateInputError, UnsupportedDimensionError

Point = tuple  # tuple[int, ...]

_HULL_DIM_LIMIT = 5


# ---------------------------------------------------------------------------
# small exact linear algebra


def _xgcd(a: int, b: int) -> tuple[int, int, int]:
    """g, x, y with a*x + b*y = g = gcd(a, b) >= 0."""
    old_r, r = a, b
    old_s, s = 1, 0
    old_t, t = 0, 1
    while r:
        q = old_r // r
        old_r, r = r, old_r - q * r
        old_s, s = s, old_s - q * s
        old_t, t = t, old_t - q * t
    if old_r < 0:
        old_r, old_s, old_t = -old_r, -old_s, -old_t
    return old_r, old_s, old_t


def _dot(u: Sequence, v: Sequence):
    return sum(map(mul, u, v))


def _sub(u: Sequence, v: Sequence) -> tuple:
    return tuple(a - b for a, b in zip(u, v))


def _bits(mask: int) -> Iterator[int]:
    """The indices of the set bits of a nonnegative int, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def integer_kernel_basis(rows: Sequence[Sequence[int]], n: int) -> list[tuple[int, ...]]:
    """Basis of {x in Z^n : rows * x = 0}.

    Column reduction by unimodular operations; the result generates the
    full (saturated) kernel lattice.
    """
    m = len(rows)
    a_cols = [[rows[r][j] for r in range(m)] for j in range(n)]
    u_cols = [[1 if i == j else 0 for i in range(n)] for j in range(n)]
    free = list(range(n))
    for r in range(m):
        active = [j for j in free if a_cols[j][r] != 0]
        while len(active) > 1:
            j1, j2 = active[0], active[1]
            a1, a2 = a_cols[j1][r], a_cols[j2][r]
            g, x, y = _xgcd(a1, a2)
            p, q = a2 // g, a1 // g
            c1a, c2a = a_cols[j1], a_cols[j2]
            a_cols[j1] = [x * u + y * v for u, v in zip(c1a, c2a)]
            a_cols[j2] = [-p * u + q * v for u, v in zip(c1a, c2a)]
            c1u, c2u = u_cols[j1], u_cols[j2]
            u_cols[j1] = [x * u + y * v for u, v in zip(c1u, c2u)]
            u_cols[j2] = [-p * u + q * v for u, v in zip(c1u, c2u)]
            active.pop(1)
        if active:
            free.remove(active[0])
    return [tuple(u_cols[j]) for j in free]


# ---------------------------------------------------------------------------
# sites


def _sorted_lattice_points(points: Iterable[Point]) -> list[Point]:
    """The distinct points as sorted tuples of ints.  A coordinate whose
    value is not an integer is refused, not truncated."""
    out = set()
    for p in points:
        p = tuple(p)
        q = tuple(int(x) for x in p)
        if q != p:
            raise ValueError(f"point {p} has a coordinate that is not an integer")
        out.add(q)
    return sorted(out)


class FiniteSite(NamedTuple):
    """A finite set of lattice points, stored sorted and deduplicated.

    A subset of the site is also an int bitmask: bit i stands for
    points[i].  Its size is len(site.points): a site is a tuple of its
    two fields, so len(site) is 2.
    """

    points: tuple
    dim: int

    @classmethod
    def of(cls, points: Iterable[Point]) -> "FiniteSite":
        pts = _sorted_lattice_points(points)
        if not pts:
            raise ValueError("a site must contain at least one point")
        dims = {len(p) for p in pts}
        if len(dims) != 1:
            raise ValueError("mixed point dimensions in site")
        return cls(points=tuple(pts), dim=dims.pop())

    @classmethod
    def grid(cls, *sizes: int) -> "FiniteSite":
        """The box {0..s1-1} x ... x {0..sd-1}."""
        if not sizes or any(s < 1 for s in sizes):
            raise ValueError("grid sizes must be positive")
        return cls.of(itertools.product(*(range(s) for s in sizes)))

    def points_of(self, mask: int) -> tuple:
        """The site points of a bitmask, lexicographically sorted."""
        return tuple(self.points[i] for i in range(mask.bit_length()) if mask >> i & 1)

    def describe(self) -> str:
        return f"finite site, {len(self.points)} points in Z^{self.dim}"


# ---------------------------------------------------------------------------
# census record


class PointCensus(NamedTuple):
    """Counts of the lattice points of a polytope.

    total = vertex + nonvertex and nonvertex = interior + boundary hold
    by construction; interior means ambient interior.
    """

    total: int
    vertex: int
    nonvertex: int
    interior: int
    boundary: int


# ---------------------------------------------------------------------------
# polytope


class LatticePolytope(NamedTuple):
    """Convex hull of finitely many lattice points, with exact facet data.

    vertices: canonical order (counterclockwise from the lexicographic
    minimum when the polytope is full-dimensional in ambient Z^2, sorted
    lexicographically otherwise).  facets: (normal, offset) pairs with
    primitive integer normals, meaning normal . x <= offset; for inputs
    of lower affine dimension the facets cut the affine hull.
    equalities: (normal, offset) pairs whose equations cut out the affine
    hull; empty when full-dimensional, otherwise the normals are a basis
    of the integer kernel of the vertex differences.
    """

    vertices: tuple
    facets: tuple
    ambient_dim: int
    affine_dim: int
    equalities: tuple

    @property
    def is_full_dimensional(self) -> bool:
        return self.affine_dim == self.ambient_dim

    def bounding_box(self) -> tuple[tuple[int, int], ...]:
        lo = tuple(min(v[i] for v in self.vertices) for i in range(self.ambient_dim))
        hi = tuple(max(v[i] for v in self.vertices) for i in range(self.ambient_dim))
        return tuple(zip(lo, hi))


# ---------------------------------------------------------------------------
# hulls


def _hull_cycle_2d(points: Sequence[Point]) -> tuple:
    """Counterclockwise vertex cycle starting at the lexicographic minimum.

    Monotone chain; strictly convex turns only, so collinear interior
    points never survive.  A rational polygon is hulled as integer points
    over a common denominator (census.maximal_membership).
    """
    pts = sorted(set(points))

    def cross(o, a, b):
        return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])

    lower: list = []
    for p in pts:
        while len(lower) >= 2 and cross(lower[-2], lower[-1], p) <= 0:
            lower.pop()
        lower.append(p)
    upper: list = []
    for p in reversed(pts):
        while len(upper) >= 2 and cross(upper[-2], upper[-1], p) <= 0:
            upper.pop()
        upper.append(p)
    return tuple(lower[:-1] + upper[:-1])


def _edge_facets(cycle: Sequence[Point]) -> list[tuple]:
    """The facet (normal, offset) of each edge of a counterclockwise lattice
    polygon cycle, edge i running from cycle[i] to cycle[i + 1]: the
    primitive outward normal, with normal . x <= offset on the polygon."""
    facets = []
    for (ax, ay), (bx, by) in zip(cycle, cycle[1:] + cycle[:1]):
        g = gcd(bx - ax, by - ay)
        nx, ny = (by - ay) // g, (ax - bx) // g
        facets.append(((nx, ny), nx * ax + ny * ay))
    return facets


def _hull_1d(points: Sequence[Point]) -> tuple[tuple, tuple]:
    """The two ends of two or more points in Z^1 and their facets; convex_hull
    projects a degenerate input to Z^d first, so only Z^1 gets here."""
    (lo,), (hi,) = min(points), max(points)
    return ((lo,), (hi,)), (((-1,), -lo), ((1,), hi))


def _affine_base(points: Iterable[Point]) -> tuple[list[Point], list[int]]:
    """An affinely independent base of the points, taken greedily in
    order, and the coordinates on which its directions have full rank.

    One fraction-free row-echelon pass: a point joins the base when its
    difference from the first point stays nonzero after reduction by the
    rows kept so far, in order of their leading coordinates, which are
    the greedy full-rank coordinates (the pivot columns).  Each coordinate
    left out is an affine function of kept ones before it on the base's
    affine hull, so dropping it keeps that hull one to one and in
    lexicographic order.  The pass stops at min(n, _HULL_DIM_LIMIT + 1) + 1
    points in Z^n: past that, a base only bounds the dimension below.
    """
    it = iter(points)
    o = next(it)
    base = [o]
    cap = min(len(o), _HULL_DIM_LIMIT + 1)
    rows: dict[int, list] = {}  # leading coordinate -> row
    for p in it:
        v = [a - b for a, b in zip(p, o)]
        for lead, row in sorted(rows.items()):
            if f := v[lead]:
                v = [row[lead] * a - f * b for a, b in zip(v, row)]
        lead = next((i for i, a in enumerate(v) if a), None)
        if lead is not None:
            g = gcd(*v)
            rows[lead] = [a // g for a in v]
            base.append(p)
            if len(base) > cap:
                break
    return base, sorted(rows)


def _dd_hull(pts: Sequence[Point], base: Sequence[Point]) -> tuple[tuple, tuple]:
    """Full-dimensional hull in Z^d, d in {3,4,5}, by polar double description.

    pts are distinct and lexicographically sorted, so the vertices come
    out sorted, and base is an affinely independent subset of d + 1 of
    them.  The dual polytope {y : (p - c) . y <= 1 for every input p},
    with c the centroid of base, is cut out one constraint
    at a time (Fukuda & Prodon, "Double description method revisited",
    1996), starting from the dual of the base simplex: its vertex opposite
    base point j is tight at the d other base constraints.  The arithmetic
    is fraction free: each dual vertex is a primitive integer vector
    (Y, w) with w > 0 standing for y = Y / w.  A new vertex on the edge
    from an inner vertex i to an outer vertex o is vals[o] (Y_i, w_i) -
    vals[i] (Y_o, w_o) over its gcd, and its tight set is
    (t_i & t_o) | {new}: a constraint tight strictly inside the edge is
    tight at both of its ends.

    Incidences are int bitmasks.  Each dual vertex has a bit of its own,
    never reused, and its tight set is a mask over input indices; at[i]
    is the mask of the vertices ever tight at input i, and live that of
    the current ones.  The dual polytope is bounded at every step, so
    each of its faces is the hull of its vertices and is fixed by them:
    - Edge test: the smallest face holding i and o is cut out by
      t_i & t_o, and its vertices are live & AND of at[c] over c in it;
      i and o span an edge iff those are the two alone.  Two vertices
      on an edge share at least d - 1 constraints, so only such pairs
      are tested, and only inner vertices that share a constraint with
      o are paired with it.
    - Vertex meet: each final dual vertex is a primal facet and its
      tight set the inputs on it; the AND of the tight sets of the
      facets through a point is the inputs on the smallest face that
      holds it; a face that is not a point has two vertices, both
      inputs, so the point is a vertex iff that AND is the point alone.
    """
    q = len(base)
    d = q - 1
    centroid_q = tuple(sum(p[i] for p in base) for i in range(d))  # q * centroid

    # Dual halfspaces: (p - c) . y <= 1, scaled integral: omega . y <= q.
    omegas = [tuple(q * p[i] - centroid_q[i] for i in range(d)) for p in pts]

    # The vertex opposite base point j spans the kernel of the rows
    # (omega_i, -q), i != j; any d base omegas are independent, so w != 0.
    base_ids = [pts.index(p) for p in base]
    at = [0] * len(pts)
    verts: dict[int, tuple[tuple, int, int]] = {}  # bit -> (Y, w, tight)
    for j in base_ids:
        tight = [i for i in base_ids if i != j]
        (yw,) = integer_kernel_basis([omegas[i] + (-q,) for i in tight], q)
        if yw[-1] < 0:
            yw = tuple(-x for x in yw)
        bit = 1 << len(verts)
        verts[bit] = (yw[:-1], yw[-1], sum(1 << i for i in tight))
        for i in tight:
            at[i] |= bit
    live = (1 << q) - 1
    fresh = 1 << q

    for new_idx, omega in enumerate(omegas):
        if new_idx in base_ids:
            continue
        new = 1 << new_idx
        outs = []
        for bit, (y, w, tight) in verts.items():
            val = sum(map(mul, omega, y)) - q * w
            if val > 0:
                outs.append((bit, val))
            elif val == 0:
                verts[bit] = (y, w, tight | new)
                at[new_idx] |= bit
        if not outs:
            continue
        out_mask = sum(bit for bit, _ in outs)
        ins = live & ~(out_mask | at[new_idx])
        made = []
        for obit, vo in outs:
            yo, wo, to = verts[obit]
            near = 0
            for i in _bits(to):
                near |= at[i]
            near &= ins
            while near:
                ibit = near & -near
                near ^= ibit
                yi, wi, ti = verts[ibit]
                common = ti & to
                if common.bit_count() < d - 1:
                    continue
                pair = ibit | obit
                face = live
                for i in _bits(common):
                    face &= at[i]
                    if face == pair:
                        break
                else:
                    continue
                vi = sum(map(mul, omega, yi)) - q * wi
                y = [vo * a - vi * b for a, b in zip(yi, yo)]
                w = vo * wi - vi * wo
                g = gcd(w, *y)
                made.append((tuple(x // g for x in y), w // g, common | new))
        for bit, _ in outs:
            del verts[bit]
        live &= ~out_mask
        for vertex in made:
            verts[fresh] = vertex
            for i in _bits(vertex[2]):
                at[i] |= fresh
            live |= fresh
            fresh <<= 1

    # Each dual vertex is a primal facet: Y . (q x - q c) <= q w.
    facets = set()
    meet = [-1] * len(pts)  # -1 has every bit set
    for y, w, tight in verts.values():
        n_raw = tuple(q * coord for coord in y)
        off = _dot(y, centroid_q) + q * w
        g = gcd(*n_raw)
        assert g and off % g == 0, "facet hyperplane must be integral"
        facets.add((tuple(x // g for x in n_raw), off // g))
        for i in _bits(tight):
            meet[i] &= tight
    facet_list = sorted(facets)
    for n, c in facet_list:
        assert max([sum(map(mul, n, p)) for p in pts]) <= c, "hull excludes an input"
    vertices = tuple(p for i, p in enumerate(pts) if meet[i] == 1 << i)
    return vertices, tuple(facet_list)


def _hull_full_dim(points: Sequence[Point], base: Sequence[Point]) -> tuple[tuple, tuple]:
    """Vertices and facets of distinct, sorted points of full affine
    dimension d in Z^d, given an affinely independent base of d + 1 of
    them; the vertices are sorted, except for the 2-D cycle."""
    d = len(base) - 1
    if d == 0:
        return tuple(base), ()
    if d == 1:
        return _hull_1d(points)
    if d == 2:
        cycle = _hull_cycle_2d(points)
        return cycle, tuple(sorted(_edge_facets(cycle)))
    return _dd_hull(points, base)


def check_hull_dimension(d: int) -> None:
    """Refuse an affine dimension above _HULL_DIM_LIMIT, which exact hulls
    do not reach."""
    if d > _HULL_DIM_LIMIT:
        raise UnsupportedDimensionError(
            f"exact hulls support affine dimension <= {_HULL_DIM_LIMIT}, got {d}"
        )


def convex_hull(points: Iterable[Point]) -> LatticePolytope:
    """Exact convex hull of lattice points (affine dimension up to 5)."""
    pts = _sorted_lattice_points(points)
    if not pts:
        raise ValueError("hull of an empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("mixed point dimensions")

    base, kept = _affine_base(pts)
    d = len(base) - 1
    if _HULL_DIM_LIMIT < d < n and base[-1] != pts[-1]:
        # the scan stopped at its cap with points left
        raise UnsupportedDimensionError(
            f"exact hulls support affine dimension <= {_HULL_DIM_LIMIT}, got at least {d}"
        )
    check_hull_dimension(d)
    if d == n:
        return LatticePolytope(*_hull_full_dim(pts, base), n, n, ())

    # Degenerate: dropping the coordinates that _affine_base leaves
    # out maps the affine hull one to one onto Q^d and its lattice points
    # into Z^d, so the base stays a base there, the hull there has the
    # same vertices, and a facet m . x_R <= c of it is the facet of the
    # input with normal m at the kept positions.
    lift = {tuple(p[i] for i in kept): p for p in pts}
    sub_base = [tuple(p[i] for i in kept) for p in base]
    sub_vertices, sub_facets = _hull_full_dim(list(lift), sub_base)
    vertices = tuple(sorted(lift[u] for u in sub_vertices))
    facets = []
    for m, c in sub_facets:
        normal = [0] * n
        for i, x in zip(kept, m):
            normal[i] = x
        facets.append((tuple(normal), c))
    v0 = vertices[0]
    basis = integer_kernel_basis([_sub(v, v0) for v in vertices[1:]], n)
    equalities = tuple((m, _dot(m, v0)) for m in basis)
    return LatticePolytope(vertices, tuple(sorted(facets)), n, d, equalities)


# ---------------------------------------------------------------------------
# point enumeration, census


def _row_intervals(box: Sequence[tuple], facets: Iterable[tuple]) -> Iterator[tuple]:
    """Rows of the integer box in Z^n, n >= 1, cut by the integral
    halfspaces normal . x <= offset in facets, as exact intervals.

    box holds a (lo, hi) range per coordinate.  Yields (x', lo, hi, slo,
    shi) for each point x' of the box over the first n - 1 coordinates
    whose row meets the cut, in lexicographic order: the row holds x' + (z,)
    for lo <= z <= hi, strictly inside every halfspace for slo <= z <= shi.
    A facet h . x' + a z <= c bounds z by the floor or ceiling of
    (c - h . x') / a, or for a = 0 drops the row or puts all of it on the
    facet.
    """
    *prefix_box, (z_lo, z_hi) = box
    facets = [(normal[:-1], normal[-1], offset) for normal, offset in facets]
    for prefix in itertools.product(*(range(lo, hi + 1) for lo, hi in prefix_box)):
        lo, hi = slo, shi = z_lo, z_hi
        for h, a, c in facets:
            r = c - sum(map(mul, h, prefix))
            if a > 0:
                hi = min(hi, r // a)
                shi = min(shi, (r - 1) // a)
            elif a < 0:
                lo = max(lo, -(r // -a))
                slo = max(slo, -((r - 1) // -a))
            elif r < 0:
                break
            elif r == 0:
                shi = slo - 1
        else:
            if lo <= hi:
                yield prefix, lo, hi, slo, shi


def lattice_points_in(polytope: LatticePolytope) -> tuple:
    """All lattice points of a full-dimensional polytope, lexicographically sorted."""
    if not polytope.is_full_dimensional:
        raise DegenerateInputError(
            f"lattice points are listed for full-dimensional polytopes only, got "
            f"affine dimension {polytope.affine_dim} in Z^{polytope.ambient_dim}"
        )
    return tuple(
        prefix + (z,)
        for prefix, lo, hi, _, _ in _row_intervals(polytope.bounding_box(), polytope.facets)
        for z in range(lo, hi + 1)
    )


def census(polytope: LatticePolytope) -> PointCensus:
    """Classify the integer points of a polytope.

    interior counts ambient-interior points, so it is zero whenever the
    polytope is not full-dimensional.  A full-dimensional polytope is
    counted by row intervals, and vertex counts the hull vertices found
    inside their rows' intervals.  A point is one vertex, and a segment
    from a to b holds gcd(b - a) + 1 points, two of them vertices; any
    other degenerate polytope raises DegenerateInputError.
    """
    if polytope.affine_dim == 0:
        total = vertex = 1
        interior = 0
    elif polytope.is_full_dimensional:
        by_row: dict = {}
        for v in polytope.vertices:
            by_row.setdefault(v[:-1], []).append(v[-1])
        total = vertex = interior = 0
        # vertices lie on facets, so the strict intervals hold no vertex
        for prefix, lo, hi, slo, shi in _row_intervals(polytope.bounding_box(), polytope.facets):
            total += hi - lo + 1
            interior += max(0, shi - slo + 1)
            vertex += sum(1 for z in by_row.get(prefix, ()) if lo <= z <= hi)
    elif polytope.affine_dim == 1:
        a, b = polytope.vertices
        total = gcd(*_sub(b, a)) + 1
        vertex = 2
        interior = 0
    else:
        raise DegenerateInputError(
            f"census counts points, segments and full-dimensional polytopes, got "
            f"affine dimension {polytope.affine_dim} in Z^{polytope.ambient_dim}"
        )
    nonvertex = total - vertex
    return PointCensus(
        total=total,
        vertex=vertex,
        nonvertex=nonvertex,
        interior=interior,
        boundary=nonvertex - interior,
    )


# ---------------------------------------------------------------------------
# canonical form in the plane


def _anchored_leads(cycle: Sequence[Point], twice_area: int, bound: int) -> Iterator[tuple]:
    """The 2v normalized images of a counterclockwise vertex cycle, each
    given by its least x and its lead (lex-min) vertex, not built.

    Anchored at edge i from o to n, with primitive direction p and
    lattice length g, a det-1 map sends the edge onto the positive
    x-axis: it keeps the height h(v) = p x (v - o) and takes x to
    u(v) = (a, b).(v - o), where a p_x + b p_y = 1.  The reversed
    traversal, anchored at n and reflected across the edge, has the same
    height and x = g - u.  A shear then puts the first vertex of greatest
    height met from the anchor at an x in [0, h), whatever Bezout pair
    (a, b) it starts from.  That top vertex only moves forward as i does
    (rotating calipers, Toussaint 1983).  At most two vertices are top, j
    and jr = j + 1, when the top edge is parallel to the anchor edge; the
    forward image shears j, the reversed one jr.

    The vertices met between the anchor and the top lie right of the
    chord joining them, at x > 0, so the least x (at most the anchor's
    0) lies on the left chain: jr..i for the forward image, i+1..j for
    the reversed one.  Heights fall strictly along a left chain and its
    edges turn from pointing left to pointing right, so x falls, stays
    put on at most one vertical edge, then rises.  The least x is found
    by walking the chain from the anchor while x falls; of two vertices
    at the least x the lead is the lower one.

    Yields (least x, lead, step, A, B, C, D, E, F): vertex k of the image
    cycle read from its lead is cycle[lead + k * step], mapped to
    (A x + B y + C, D x + E y + F).  An image is yielded only when its
    least x is at most a running bound, which starts at bound and drops
    to the least x of each image yielded.  So the yielded least x never
    rises, and every image at the least x of all is yielded if that x is
    at most bound.

    twice_area, the doubled area 2A of the cycle itself, skips an edge
    whose two images both have their least x above the bound before its
    Bezout pair and shear are made.  In either image the anchor edge
    runs from (0, 0) to (g, 0), the polygon lies in 0 <= y <= H, the top
    vertex T is at (x_t, H) with 0 <= x_t < H, and the lead L = (x_L,
    y_L) has x_L <= 0.  The triangle (0, 0), (g, 0), T has doubled area
    g H; the triangle L, (0, 0), T has doubled area -x_L H + y_L x_t >=
    -x_L H.  They lie in the polygon on opposite sides of the line from
    (0, 0) to T, so 2A >= H (g - x_L).  An image with x_L <= bound thus
    has 2A >= H (g - bound), and the edge is skipped when H (g - bound)
    > 2A.  A twice_area below the true one could skip an image whose
    least x is at most the bound; a larger one only skips less.
    """
    m = len(cycle)
    X = [x for x, _ in cycle] * 2
    Y = [y for _, y in cycle] * 2
    j = 1
    for i in range(m):
        ox, oy, nx, ny = X[i], Y[i], X[i + 1], Y[i + 1]
        g = gcd(nx - ox, ny - oy)
        px, py = (nx - ox) // g, (ny - oy) // g
        top = px * Y[j] - py * X[j]
        while (nxt := px * Y[j + 1] - py * X[j + 1]) > top:
            j, top = j + 1, nxt
        jr = j + 1 if nxt == top else j
        f = py * ox - px * oy
        top += f
        if top * (g - bound) > twice_area:
            continue
        if py:
            a = pow(px, -1, abs(py))
            b = (1 - a * px) // py
        else:
            a, b = px, 0
        s = -((a * (X[j] - ox) + b * (Y[j] - oy)) // top)
        A, B = a - s * py, b + s * px
        C = -A * ox - B * oy
        # back from the anchor o, at x = 0; the lower of a tie is met first
        low, k = 0, i + m
        while k > jr and (x := A * X[k - 1] + B * Y[k - 1] + C) < low:
            low, k = x, k - 1
        if low <= bound:
            bound = low
            yield low, k % m, 1, A, B, C, -py, px, f
        s = -((g - a * (X[jr] - ox) - b * (Y[jr] - oy)) // top)
        A, B = -a - s * py, -b + s * px
        C = g - A * ox - B * oy
        # on from the anchor n, at x = 0; the lower of a tie is met first
        low, k = 0, i + 1
        while k < j and (x := A * X[k + 1] + B * Y[k + 1] + C) < low:
            low, k = x, k + 1
        if low <= bound:
            bound = low
            yield low, k % m, -1, A, B, C, -py, px, f


def canonical_form_2d(cycle: Sequence[Point], twice_area: int) -> tuple:
    """Canonical vertex cycle under unimodular (det +-1) maps and translations.

    cycle is the counterclockwise vertex cycle of a lattice polygon, such
    as convex_hull(points).vertices, from any of its vertices, and
    twice_area its doubled area.  Two polygons are equivalent iff their
    canonical cycles are equal.  The canonical cycle is the least, over
    every anchored directed edge and both orientations, of the
    shear-normalized image (_anchored_leads) read from its lex-min
    vertex, so it is a hull cycle as well; only the images at the least x
    of all are built.  The running bound starts at 0, the anchor's x,
    which no image's least x exceeds, so the calipers pass skips every
    edge whose two images the area bound puts above the least x found so
    far, and the last image yielded is at the least x of all.  A
    twice_area below the true one could skip the least image; a larger
    one only skips less.
    """
    if len(cycle) < 3:
        raise DegenerateInputError("canonical form needs a full-dimensional polygon in Z^2")
    images = list(_anchored_leads(cycle, twice_area, 0))
    least = images[-1][0]
    best = None
    for low, lead, step, A, B, C, D, E, F in images:
        if low == least:
            seq = cycle[lead:] + cycle[:lead] if step > 0 else cycle[lead::-1] + cycle[:lead:-1]
            cand = tuple((A * x + B * y + C, D * x + E * y + F) for x, y in seq)
            if best is None or cand < best:
                best = cand
    return best


def is_canonical_cycle_2d(cycle: tuple, twice_area: int) -> bool:
    """Whether a hull cycle is its own canonical form.

    cycle must be a counterclockwise polygon cycle from its lex-min
    vertex, as _hull_cycle_2d returns it, and twice_area its own doubled
    area; the answer is that of canonical_form_2d(cycle, twice_area) ==
    cycle.  No image is built: one whose least x (read off its left
    chain) exceeds cycle[0][0] is larger, and _anchored_leads, with its
    running bound started there, drops it, skipping every edge whose
    images the area bound rules out; one whose least x is below it is
    smaller, and the check returns at the first such image, before the
    running bound has moved; only a tie walks the image from its lead
    vertex on, up to the first difference.  The identity image
    (lead 0, step 1, the map (x, y)) equals the cycle and is accepted
    without a walk.  A twice_area below the true one could skip a smaller
    image and accept a non-canonical cycle; a larger one only skips less.
    The census load takes it from the Pick pass that has just accepted
    the cycle as a hull.
    """
    m = len(cycle)
    x0 = cycle[0][0]
    found = False
    for low, k, step, A, B, C, D, E, F in _anchored_leads(cycle, twice_area, x0):
        if low < x0:
            return False
        if (k, step, A, B, C, D, E, F) == (0, 1, 1, 0, 0, 0, 1, 0):
            found = True
            continue
        for sx, sy in cycle:
            x, y = cycle[k]
            x, y = A * x + B * y + C, D * x + E * y + F
            if x != sx or y != sy:
                if x < sx or (x == sx and y < sy):
                    return False
                break
            k = (k + step) % m
        else:
            found = True
    return found
