"""Scans and small solvers that the tests use as oracles for exact point
counts, membership, closures, closed sets of a site, affine charts,
lattice width, the planar canonical form, the doubled area of a vertex
cycle, a polygon less one vertex and the lattice points of a rational
segment.

Each point scan tests every lattice point of a bounding box against
every inequality, with no interval arithmetic, so it is slow but plainly
right.  A closure over Z^n is the box scan of a hull; one over a finite
site is the site mask of the hull.  The width search tries every
primitive direction in a box that Cramer's rule proves large enough.
The anchored images are built in full, every vertex of every one,
without the calipers, the left-chain bound or the area bound of
lattice._anchored_leads.
The closed sets of a finite site are grown with one convex_hull per
extension, where the engine carries facets or line masks.  A polygon
less one vertex is the whole hull of the box scan of the vertex's
triangle and the other vertices, where the census descent splices in
one chain.  The segment oracle works in Fractions, where the package
scales to integers.  An affine base and the coordinates to keep are
chosen greedily by the rank of every candidate, from scratch, where the
package reduces each candidate once against an echelon form.  Ranks
are Bareiss eliminations (rational_rank), and the double description
oracle (rank_dd_hull) tests each pair of dual vertices for an edge by
the rank of their common constraints and each point for a vertex by
the rank of the facets through it, where the package compares
incidence bitmasks.
"""

from __future__ import annotations

import itertools
from fractions import Fraction
from math import ceil, floor, gcd, lcm
from operator import mul
from typing import Iterator, Optional, Sequence

from qhelly.engine import site_mask
from qhelly.lattice import (
    Point,
    _hull_cycle_2d,
    _xgcd,
    convex_hull,
    integer_kernel_basis,
)


def rational_rank(rows: Sequence[Sequence[int]]) -> int:
    """Rank over Q of a small integer matrix given as rows.

    Fraction-free (Bareiss) elimination: every entry stays an integer
    minor of the input, and each division by the previous pivot is exact.
    """
    mat = [list(row) for row in rows]
    ncols = len(mat[0]) if mat else 0
    rank = 0
    prev = 1
    for col in range(ncols):
        pivot = None
        for r in range(rank, len(mat)):
            if mat[r][col]:
                pivot = r
                break
        if pivot is None:
            continue
        mat[rank], mat[pivot] = mat[pivot], mat[rank]
        top = mat[rank]
        p = top[col]
        for r in range(rank + 1, len(mat)):
            f = mat[r][col]
            mat[r] = [(p * x - f * y) // prev for x, y in zip(mat[r], top)]
        prev = p
        rank += 1
        if rank == len(mat):
            break
    return rank


def solve_rational(rows: Sequence[Sequence], rhs: Sequence) -> Optional[list[Fraction]]:
    """One exact solution of rows * x = rhs, or None if inconsistent.

    Gauss-Jordan elimination over Q; free variables are set to zero.
    """
    m = len(rows)
    n = len(rows[0]) if m else 0
    aug = [[Fraction(x) for x in rows[r]] + [Fraction(rhs[r])] for r in range(m)]
    pivots: list[tuple[int, int]] = []
    row = 0
    for col in range(n):
        pr = None
        for r in range(row, m):
            if aug[r][col]:
                pr = r
                break
        if pr is None:
            continue
        aug[row], aug[pr] = aug[pr], aug[row]
        inv = 1 / aug[row][col]
        aug[row] = [x * inv for x in aug[row]]
        for r in range(m):
            if r != row and aug[r][col]:
                f = aug[r][col]
                aug[r] = [x - f * y for x, y in zip(aug[r], aug[row])]
        pivots.append((row, col))
        row += 1
        if row == m:
            break
    for r in range(row, m):
        if aug[r][n]:
            return None
    x = [Fraction(0)] * n
    for r, c in pivots:
        x[c] = aug[r][n]
    return x


def saturated_direction_basis(points: Sequence[Point]) -> list[tuple[int, ...]]:
    """Integer basis of the saturated lattice spanned by point differences.

    Saturation matters: every lattice point of the affine hull must have
    integer coordinates in this basis.  Obtained as the kernel of the
    kernel (both computed over Z, hence saturated).
    """
    n, p0 = len(points[0]), points[0]
    diffs = [tuple(a - b for a, b in zip(p, p0)) for p in points[1:]]
    diffs = [d for d in diffs if any(d)]
    if not diffs:
        return []
    return integer_kernel_basis(integer_kernel_basis(diffs, n), n)


def contains(polytope, p) -> bool:
    """Exact membership; for a degenerate polytope the affine hull counts."""
    return all(
        sum(a * x for a, x in zip(n, p)) == c for n, c in polytope.equalities
    ) and all(sum(a * x for a, x in zip(n, p)) <= c for n, c in polytope.facets)


def closure(points, site=None) -> tuple:
    """The lattice points in the hull of the given points, sorted: those
    of a finite site, or with no site those of Z^n, by box_points."""
    hull = convex_hull(points)
    if site is None:
        return tuple(box_points(hull)[0])
    return site.points_of(site_mask(hull, site))


def closed_sets_by_hulls(site) -> dict:
    """The closed sets of a site of any affine dimension up to 5, each
    mapped to the mask of its hull's vertices, with one exact hull per
    extension: conv(V(C) + p), closed by site_mask, for every point p
    above C's greatest.

    It keeps the dedup-dict rule, a route the engine no longer shares: a
    closure is kept the first time it is reached, whether or not it is
    C + p, and later reaches are looked up and skipped.  The dict is in
    the order the sets were found, which need not be the enumeration's:
    compare the two as mappings."""
    points = site.points
    index = {p: i for i, p in enumerate(points)}
    found = {1 << i: 1 << i for i in range(len(points))}
    queue = [(1 << i, (p,)) for i, p in enumerate(points)]
    while queue:
        cur, verts = queue.pop()
        for j in range(cur.bit_length(), len(points)):
            poly = convex_hull(verts + (points[j],))
            new = site_mask(poly, site)
            if new not in found:
                vmask = 0
                for v in poly.vertices:
                    vmask |= 1 << index[v]
                found[new] = vmask
                queue.append((new, poly.vertices))
    return found


def box_points(polytope) -> tuple[list, list]:
    """Lattice points of a polytope by a scan of its bounding box, and
    those of them strictly inside every facet.

    A degenerate polytope also has to meet its affine-hull equations, so
    its strict points are its relative-interior points.
    """
    out = []
    strict = []
    box = polytope.bounding_box()
    for p in itertools.product(*(range(lo, hi + 1) for lo, hi in box)):
        if any(sum(a * x for a, x in zip(n, p)) != c for n, c in polytope.equalities):
            continue
        on_facet = False
        for n, c in polytope.facets:
            value = sum(a * x for a, x in zip(n, p))
            if value > c:
                break
            if value == c:
                on_facet = True
        else:
            out.append(p)
            if not on_facet:
                strict.append(p)
    return out, strict


def box_census(polytope) -> tuple[int, int, int, int, int]:
    """(total, vertex, nonvertex, interior, boundary) from box_points."""
    pts, strict = box_points(polytope)
    vset = set(polytope.vertices)
    vertex = sum(1 for p in pts if p in vset)
    interior = 0
    if polytope.is_full_dimensional:
        interior = sum(1 for p in strict if p not in vset)
    nonvertex = len(pts) - vertex
    return (len(pts), vertex, nonvertex, interior, nonvertex - interior)


def census_tuple(counts) -> tuple[int, int, int, int, int]:
    """A lattice.PointCensus as the tuple box_census returns."""
    return (counts.total, counts.vertex, counts.nonvertex, counts.interior, counts.boundary)


def strict_interior_cell_scan(cycle) -> tuple:
    """Lattice points strictly left of every edge of a ccw rational cycle,
    by testing each edge at each cell of the bounding box."""
    xs = [p[0] for p in cycle]
    ys = [p[1] for p in cycle]
    edges = [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]
    out = []
    for x in range(floor(min(xs)) + 1, ceil(max(xs))):
        for y in range(floor(min(ys)) + 1, ceil(max(ys))):
            if all(
                (bx - ax) * (y - ay) - (by - ay) * (x - ax) > 0
                for (ax, ay), (bx, by) in edges
            ):
                out.append((x, y))
    return tuple(out)


def edge_relint_lattice_point(A: tuple, B: tuple):
    """Some lattice point strictly between rational points A and B, or None.

    In Fractions: the segment's line a x + b y = c, with (a, b) primitive,
    holds a lattice point only if c is an integer; its lattice points are
    z0 + t (-b, a), and t is bounded by the segment parameter s in (0, 1).
    """
    dx = B[0] - A[0]
    dy = B[1] - A[1]
    scale = lcm(Fraction(dy).denominator, Fraction(dx).denominator)
    a = int(dy * scale)
    b = int(-dx * scale)
    g = gcd(abs(a), abs(b))
    a //= g
    b //= g
    c = a * A[0] + b * A[1]
    if Fraction(c).denominator != 1:
        return None
    c = int(c)
    _, u, v = _xgcd(a, b)
    z0 = (u * c, v * c)
    ux, uy = -b, a
    dd = dx * dx + dy * dy
    s0 = Fraction((z0[0] - A[0]) * dx + (z0[1] - A[1]) * dy, 1) / dd
    slope = Fraction(ux * dx + uy * dy, 1) / dd
    if slope > 0:
        t_lo, t_hi = -s0 / slope, (1 - s0) / slope
    else:
        t_lo, t_hi = (1 - s0) / slope, -s0 / slope
    t = floor(t_lo) + 1
    if t > ceil(t_hi) - 1:
        return None
    return (z0[0] + t * ux, z0[1] + t * uy)


def lattice_width_2d(poly) -> int:
    """Minimal extent of a primitive linear functional over the polygon.

    A direction u = (p, q) of width at most best has |u . d| <= best for
    every difference d of two vertices.  Cramer's rule on any two
    independent differences d1, d2 turns this into
    |p| <= best * (|d1y| + |d2y|) / |det| and
    |q| <= best * (|d1x| + |d2x|) / |det|, so any spanning pair bounds
    the search.  The pair with the largest |det| is the best conditioned
    and keeps that box small.
    """
    verts = poly.vertices
    if poly.affine_dim < 2:
        return 0
    x0, y0 = verts[0]
    diffs = [(x - x0, y - y0) for x, y in verts[1:]]
    det, d1, d2 = max(
        (abs(d1[0] * d2[1] - d1[1] * d2[0]), d1, d2)
        for d1, d2 in itertools.combinations(diffs, 2)
    )
    assert det > 0

    def width(u: tuple) -> int:
        vals = [u[0] * x + u[1] * y for x, y in verts]
        return max(vals) - min(vals)

    best = min(width((1, 0)), width((0, 1)))
    # any direction beating the current best satisfies |u . d1| <= best
    # and |u . d2| <= best, which confines (p, q) to a finite box
    while True:
        improved = False
        pb = (best * (abs(d1[1]) + abs(d2[1]))) // det + 1
        qb = (best * (abs(d1[0]) + abs(d2[0]))) // det + 1
        for q in range(0, qb + 1):
            for p in range(-pb, pb + 1):
                if q == 0 and p <= 0:
                    continue
                if gcd(abs(p), q) != 1:
                    continue
                if abs(p * d1[0] + q * d1[1]) > best or abs(p * d2[0] + q * d2[1]) > best:
                    continue
                w = width((p, q))
                if w < best:
                    best = w
                    improved = True
        if not improved:
            return best


def twice_area(cycle) -> int:
    """The doubled area of a counterclockwise vertex cycle, by the shoelace."""
    return sum(px * qy - qx * py for (px, py), (qx, qy) in zip(cycle[-1:] + cycle[:-1], cycle))


def _anchored_images(cycle: Sequence[Point]) -> Iterator[tuple[list, list]]:
    """The 2v normalized images of a counterclockwise vertex cycle.

    For every anchored directed edge, in both orientations, yields the x
    and the y coordinates of the image vertices in cycle order from the
    anchor: a det-1 map sends the edge onto the positive x-axis, a
    reversed traversal is reflected across it, and a shear puts the first
    vertex of greatest height h at an x in [0, h).
    """
    m = len(cycle)
    for reverse in (False, True):
        seq_base = cycle[::-1] if reverse else cycle
        for start in range(m):
            seq = seq_base[start:] + seq_base[:start]
            (ox, oy), (nx, ny) = seq[0], seq[1]
            g, a, b = _xgcd(nx - ox, ny - oy)
            px, py = (nx - ox) // g, (ny - oy) // g
            # rows (a, b) and (-py, px) form a det-1 map sending the edge
            # direction to (1, 0); a reversed traversal is clockwise, so
            # reflect across the x-axis to restore counterclockwise order.
            c, d = (py, -px) if reverse else (-py, px)
            t = c * ox + d * oy
            ys = [c * x + d * y - t for x, y in seq]
            ymax = max(ys)
            assert ymax > 0 and min(ys) >= 0
            # shear the first vertex at height ymax into [0, ymax)
            vx, vy = seq[ys.index(ymax)]
            shear = -((a * (vx - ox) + b * (vy - oy)) // ymax)
            a += shear * c
            b += shear * d
            t = a * ox + b * oy
            yield [a * x + b * y - t for x, y in seq], ys


def _drop_vertex(cycle: tuple, j: int) -> tuple:
    """Hull cycle of the lattice points of a polygon other than vertex j.

    They are the other vertices and the lattice points of the triangle
    that vertex j spans with its two neighbours.
    """
    (ux, uy), (vx, vy), (wx, wy) = cycle[j - 1], cycle[j], cycle[(j + 1) % len(cycle)]
    points = [p for k, p in enumerate(cycle) if k != j]
    for x in range(min(ux, vx, wx), max(ux, vx, wx) + 1):
        for y in range(min(uy, vy, wy), max(uy, vy, wy) + 1):
            if (
                (vx - ux) * (y - uy) >= (vy - uy) * (x - ux)
                and (wx - vx) * (y - vy) >= (wy - vy) * (x - vx)
                and (ux - wx) * (y - wy) >= (uy - wy) * (x - wx)
                and (x, y) != (vx, vy)
            ):
                points.append((x, y))
    return _hull_cycle_2d(points)


def _affinely_independent_subset(points: Sequence[Point], d: int) -> list[Point]:
    """The first point, then each point whose difference from it raises the
    rational rank of the differences chosen so far, up to d + 1 points."""
    chosen = [points[0]]
    diffs: list = []
    for p in points[1:]:
        cand = diffs + [tuple(a - b for a, b in zip(p, chosen[0]))]
        if rational_rank(cand) > len(diffs):
            diffs = cand
            chosen.append(p)
            if len(chosen) == d + 1:
                break
    return chosen


def _kept_coordinates(base: Sequence[Point]) -> list[int]:
    """The coordinates, taken greedily in order, on which the directions
    of an affinely independent base have full rank."""
    diffs = [tuple(a - b for a, b in zip(p, base[0])) for p in base[1:]]
    kept: list[int] = []
    for i in range(len(base[0])):
        if rational_rank([[row[j] for j in kept + [i]] for row in diffs]) > len(kept):
            kept.append(i)
    return kept


def rank_dd_hull(pts: Sequence[Point], base: Sequence[Point]) -> tuple[tuple, tuple]:
    """Vertices and facets of distinct, sorted points of full affine
    dimension d in Z^d, d in {3,4,5}, given an affinely independent base
    of d + 1 of them, by the same polar double description as
    lattice._dd_hull, with tight sets as frozensets and rank tests.

    An inner and an outer dual vertex span an edge iff their common
    constraints have rank d - 1; a point is a vertex iff the facets
    through it have rank d.
    """
    q = len(base)
    d = q - 1
    centroid_q = tuple(sum(p[i] for p in base) for i in range(d))
    omegas = [tuple(q * p[i] - centroid_q[i] for i in range(d)) for p in pts]
    base_ids = [pts.index(p) for p in base]
    verts: list[tuple[tuple, int, frozenset]] = []
    for j in base_ids:
        tight = [i for i in base_ids if i != j]
        (yw,) = integer_kernel_basis([omegas[i] + (-q,) for i in tight], q)
        if yw[-1] < 0:
            yw = tuple(-x for x in yw)
        verts.append((yw[:-1], yw[-1], frozenset(tight)))

    for new_idx, omega in enumerate(omegas):
        if new_idx in base_ids:
            continue
        vals = [sum(map(mul, omega, y)) - q * w for y, w, _ in verts]
        ins = [i for i, v in enumerate(vals) if v < 0]
        outs = [i for i, v in enumerate(vals) if v > 0]
        ons = [i for i, v in enumerate(vals) if v == 0]
        new_verts: dict[tuple, frozenset] = {}
        for i in ins:
            yi, wi, ti = verts[i]
            for o in outs:
                yo, wo, to = verts[o]
                common = ti & to
                if len(common) < d - 1 or rational_rank([omegas[c] for c in common]) != d - 1:
                    continue
                vi, vo = vals[i], vals[o]
                y = [vo * a - vi * b for a, b in zip(yi, yo)]
                w = vo * wi - vi * wo
                g = gcd(w, *y)
                new_verts[(tuple(x // g for x in y), w // g)] = common | {new_idx}
        kept = [verts[i] for i in ins]
        kept += [(y, w, tight | {new_idx}) for y, w, tight in (verts[i] for i in ons)]
        kept += [(y, w, tight) for (y, w), tight in new_verts.items()]
        verts = kept

    facets = set()
    for y, w, _ in verts:
        n_raw = tuple(q * coord for coord in y)
        off = sum(map(mul, y, centroid_q)) + q * w
        g = gcd(*n_raw)
        assert g and off % g == 0, "facet hyperplane must be integral"
        facets.add((tuple(x // g for x in n_raw), off // g))
    facet_list = sorted(facets)
    vertices = []
    for p in pts:
        tightn = []
        for n, c in facet_list:
            value = sum(map(mul, n, p))
            assert value <= c, "hull excludes an input"
            if value == c:
                tightn.append(n)
        if len(tightn) >= d and rational_rank(tightn) == d:
            vertices.append(p)
    return tuple(vertices), tuple(facet_list)
