"""Power-set oracle for the g and c profiles of finite box sites.

Written apart from qhelly and importing nothing from it.  A polytope
with vertices in a site S is the hull of a vertex set V in convex
position (no point of V lies in the hull of the others), and every
subset of such a V is again in convex position.  The oracle therefore
walks the power set of S in index order, pruning a branch as soon as
its set leaves convex position, and counts the site points in each
hull:

    g(S, k) = max |V| over V with |S n conv V| - |V| = k
    c(S, k) = max |S n conv V| - k over V with |S n conv V| - |V| <= k <= |S n conv V|

The plane uses a monotone-chain hull; other dimensions use an exact
Caratheodory test over affinely independent subsets, which is slow but
only meets sites of a few points.

Rebuild the stored reference used by the `sites` workload with

    python3 benchmarks/oracle.py
"""

from __future__ import annotations

import itertools
import json
import sys
from fractions import Fraction
from pathlib import Path

REFERENCE = Path(__file__).resolve().parent / "data" / "sites_reference.json"

# the sites of the `sites` workload, with the k_max each is profiled to
SITES = (("5x4", 20), ("2x2x2", 8), ("3x3x1", 9))


def grid_points(dims: str) -> list[tuple[int, ...]]:
    sizes = [int(part) for part in dims.split("x")]
    return sorted(itertools.product(*(range(s) for s in sizes)))


def _cross(o, a, b) -> int:
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _strict_hull_2d(pts: list) -> list:
    """Counterclockwise hull cycle without collinear boundary points."""
    pts = sorted(pts)
    if len(pts) <= 2:
        return pts

    def chain(seq):
        out = []
        for p in seq:
            while len(out) >= 2 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower, upper = chain(pts), chain(reversed(pts))
    return lower[:-1] + upper[:-1]


def _in_cycle_2d(p, cycle: list) -> bool:
    if len(cycle) == 1:
        return p == cycle[0]
    if len(cycle) == 2:
        a, b = cycle
        return (
            _cross(a, b, p) == 0
            and min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
        )
    return all(_cross(cycle[i], cycle[(i + 1) % len(cycle)], p) >= 0 for i in range(len(cycle)))


def _barycentric(p, simplex) -> bool:
    """True when p lies in the hull of an affinely independent simplex."""
    u0 = simplex[0]
    cols = [[Fraction(u[i] - u0[i]) for u in simplex[1:]] for i in range(len(p))]
    rhs = [Fraction(p[i] - u0[i]) for i in range(len(p))]
    rows = [row + [r] for row, r in zip(cols, rhs)]
    m = len(simplex) - 1
    pivots = []
    r = 0
    for col in range(m):
        piv = next((i for i in range(r, len(rows)) if rows[i][col] != 0), None)
        if piv is None:
            return False  # affinely dependent: a smaller simplex covers it
        rows[r], rows[piv] = rows[piv], rows[r]
        lead = rows[r][col]
        rows[r] = [x / lead for x in rows[r]]
        for i in range(len(rows)):
            if i != r and rows[i][col] != 0:
                f = rows[i][col]
                rows[i] = [x - f * y for x, y in zip(rows[i], rows[r])]
        pivots.append(r)
        r += 1
    if any(row[m] != 0 for row in rows[r:]):
        return False  # p is off the simplex's affine hull
    lam = [rows[i][m] for i in pivots]
    return all(x >= 0 for x in lam) and sum(lam) <= 1


def in_hull(p, pts: list) -> bool:
    dim = len(p)
    for size in range(1, min(len(pts), dim + 1) + 1):
        for simplex in itertools.combinations(pts, size):
            if _barycentric(p, simplex):
                return True
    return False


def convex_configurations(points: list):
    """Yield (points in conv V, |V|) for every nonempty V in convex position."""
    planar = len(points[0]) == 2

    def in_convex_position(vs: list) -> bool:
        if planar:
            return len(_strict_hull_2d(vs)) == len(vs)
        return not any(in_hull(v, vs[:i] + vs[i + 1:]) for i, v in enumerate(vs))

    def inside(vs: list) -> int:
        if planar:
            cycle = _strict_hull_2d(vs)
            return sum(1 for p in points if _in_cycle_2d(p, cycle))
        return sum(1 for p in points if in_hull(p, vs))

    stack = [([points[i]], i) for i in range(len(points))]
    while stack:
        vs, last = stack.pop()
        yield inside(vs), len(vs)
        for j in range(last + 1, len(points)):
            grown = vs + [points[j]]
            if in_convex_position(grown):
                stack.append((grown, j))


def profile(points: list, k_max: int) -> tuple[list, list]:
    """g and c for k = 0..k_max, with None for minus infinity."""
    g = [None] * (k_max + 1)
    c = [None] * (k_max + 1)
    for total, nvert in convex_configurations(points):
        k = total - nvert
        if k <= k_max and (g[k] is None or g[k] < nvert):
            g[k] = nvert
        for kk in range(k, min(total, k_max) + 1):
            if c[kk] is None or c[kk] < total - kk:
                c[kk] = total - kk
    return g, c


def build_reference() -> dict:
    out = {}
    for dims, k_max in SITES:
        g, c = profile(grid_points(dims), k_max)
        out[dims] = {"k_max": k_max, "g": g, "c": c}
    return out


if __name__ == "__main__":
    REFERENCE.write_text(json.dumps(build_reference(), indent=1) + "\n")
    sys.stdout.write(f"wrote {REFERENCE}\n")
