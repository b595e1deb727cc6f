"""Cell-by-cell scans that the tests use as oracles for exact point counts.

Each scan tests every lattice point of a bounding box against every
inequality, with no interval arithmetic, so it is slow but plainly right.
"""

from __future__ import annotations

import itertools
from math import ceil, floor


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


def box_census(polytope, *, relative: bool = False) -> tuple[int, int, int, int, int]:
    """(total, vertex, nonvertex, interior, boundary) from box_points."""
    pts, strict = box_points(polytope)
    vset = set(polytope.vertices)
    vertex = sum(1 for p in pts if p in vset)
    interior = 0
    if relative or polytope.is_full_dimensional:
        interior = sum(1 for p in strict if p not in vset)
    nonvertex = len(pts) - vertex
    return (len(pts), vertex, nonvertex, interior, nonvertex - interior)


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
