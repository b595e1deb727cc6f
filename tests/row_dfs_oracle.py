"""The row DFS that first built the polygon census, kept as a second
route for the tests to hold the census enumerator against.

Every equivalence class (unimodular maps + translations) of lattice
polygons with lattice width >= 2 has a placement whose vertical extent h
is at most census.max_height(i) and whose rows y = 0..h are nonempty
integer intervals [a_j, b_j] with |a_j|, |b_j| <= census.certified_box_bound(i).
The DFS below walks rows bottom-up, keeps the exact left/right hull
chains, and prunes with necessary conditions only, so no valid
completion is ever cut:

  - ceil/floor consistency: each recorded row must remain exactly the
    lattice slice of the growing hull (left boundaries only move left as
    rows are added, so a violation is permanent);
  - convexity steps a' >= 2a - a_prev - 1, b' <= 2b - b_prev + 1;
  - a_j <= h - 1 and b_j >= 0 (boundary values interpolate the anchored
    end rows);
  - middle rows have at most i_max + 2 points, end rows at most
    2 i_max + 7 (each interior row point besides its endpoints is an
    interior point of the polygon);
  - the interior count of the partial hull is monotone, so interior
    budget overruns prune.

Translation is fixed by a_0 = 0, the shear by a_h in [0, h-1].  Leaves
are hulled, their row-arithmetic interior count is re-checked against
Pick's formula, and they are deduplicated through the canonical form.
Serial, and slow: interior counts up to 5 take a few seconds.
"""

from __future__ import annotations

from typing import Optional, Sequence

from qhelly.census import (
    CensusClass,
    _has_width_two,
    _hull_pick_counts,
    certified_box_bound,
    max_height,
)
from qhelly.lattice import _hull_cycle_2d, canonical_form_2d


def _chain_eval(chain: Sequence[tuple], m: int) -> tuple[int, int]:
    """Value of the piecewise-linear chain at height m, as (num, den)."""
    for idx in range(len(chain) - 1):
        (m1, x1), (m2, x2) = chain[idx], chain[idx + 1]
        if m1 <= m <= m2:
            return (x1 * (m2 - m1) + (x2 - x1) * (m - m1), m2 - m1)
    m1, x1 = chain[-1]
    assert m == m1
    return (x1, 1)


def _count_open(lnum: int, lden: int, rnum: int, rden: int) -> int:
    """Integers z with lnum/lden < z < rnum/rden (positive denominators)."""
    lo = lnum // lden + 1
    hi = -((-rnum) // rden) - 1
    return hi - lo + 1 if hi >= lo else 0


def _row_consistent(rows: Sequence[tuple], lchain, rchain, m: int) -> bool:
    a, b = rows[m]
    lnum, lden = _chain_eval(lchain, m)
    if not ((a - 1) * lden < lnum <= a * lden):
        return False
    rnum, rden = _chain_eval(rchain, m)
    return b * rden <= rnum < (b + 1) * rden


def _row_interior(rows: Sequence[tuple], lchain, rchain, m: int) -> int:
    lnum, lden = _chain_eval(lchain, m)
    rnum, rden = _chain_eval(rchain, m)
    return _count_open(lnum, lden, rnum, rden)


def _push_left(chain: list, m: int, x: int) -> int:
    """Append (m, x) to the lower-convex chain; return height of the last
    surviving vertex before the new point (start of the rebuilt span)."""
    while len(chain) >= 2:
        (m1, x1), (m2, x2) = chain[-2], chain[-1]
        # pop the middle vertex when it is not strictly below the chord
        if (x2 - x1) * (m - m1) >= (x - x1) * (m2 - m1):
            chain.pop()
        else:
            break
    start = chain[-1][0]
    chain.append((m, x))
    return start


def _push_right(chain: list, m: int, x: int) -> int:
    while len(chain) >= 2:
        (m1, x1), (m2, x2) = chain[-2], chain[-1]
        # pop when not strictly above the chord
        if (x2 - x1) * (m - m1) <= (x - x1) * (m2 - m1):
            chain.pop()
        else:
            break
    start = chain[-1][0]
    chain.append((m, x))
    return start


def _enumerate_rows(i_max: int, h: int, b0: int, window: int, out: list) -> None:
    """DFS over row interval stacks for one (height, bottom width) shard.

    Appends raw leaves (tuples of rows) with exact partial interior count
    <= i_max to out as (rows, interior) pairs.  All row endpoints are
    confined to [-window, window].
    """
    mid_cap = i_max + 2
    end_cap = 2 * i_max + 7

    rows = [(0, b0)]
    lchain = [(0, 0)]
    rchain = [(0, b0)]
    contrib = [0]

    def place(j: int, a: int, b: int, total: int) -> None:
        # j = height of the new row; chains/contrib reflect rows[0..j-1]
        lsave = list(lchain)
        rsave = list(rchain)
        rows.append((a, b))
        contrib.append(0)
        lstart = _push_left(lchain, j, a)
        rstart = _push_right(rchain, j, b)
        ok = True
        affected = set(range(lstart + 1, j)) | set(range(rstart + 1, j))
        affected.add(j - 1)
        affected.discard(0)
        for m in affected:
            if not _row_consistent(rows, lchain, rchain, m):
                ok = False
                break
        csave = {m: contrib[m] for m in affected}
        if ok:
            new_total = total
            for m in affected:
                c = _row_interior(rows, lchain, rchain, m)
                new_total += c - contrib[m]
                contrib[m] = c
            if new_total <= i_max:
                if j == h:
                    out.append((tuple(rows), new_total))
                else:
                    extend(j, new_total)
        rows.pop()
        contrib.pop()
        for m, c in csave.items():
            contrib[m] = c
        lchain[:] = lsave
        rchain[:] = rsave

    def extend(j: int, total: int) -> None:
        a_j, b_j = rows[j]
        if j >= 1:
            a_prev, b_prev = rows[j - 1]
            a_lo = 2 * a_j - a_prev - 1
            b_hi = 2 * b_j - b_prev + 1
        else:
            a_lo = -window
            b_hi = window
        nxt = j + 1
        if nxt == h:
            a_lo = max(a_lo, 0)
            a_hi = h - 1
            cap = end_cap
        else:
            a_lo = max(a_lo, -window)
            a_hi = h - 1
            cap = mid_cap
        b_hi_clip = min(b_hi, window)
        for a in range(a_lo, a_hi + 1):
            top = min(b_hi_clip, a + cap - 1)
            for b in range(max(a, 0), top + 1):
                place(nxt, a, b, total)

    extend(0, 0)


def _leaf_to_class(rows: Sequence[tuple], interior: int) -> Optional[CensusClass]:
    """Validate one raw leaf: hull, the row arithmetic's interior count
    against Pick's formula, and lattice width >= 2."""
    pts = set()
    for m, (a, b) in enumerate(rows):
        pts.add((a, m))
        pts.add((b, m))
    cycle = _hull_cycle_2d(pts)
    if len(cycle) < 3:
        return None
    pick_interior, boundary = _hull_pick_counts(cycle)
    assert pick_interior == interior, "row arithmetic disagrees with Pick's formula"
    canon = canonical_form_2d(cycle, 2 * interior + boundary + len(cycle) - 2)
    if not _has_width_two(interior, canon):
        return None
    return CensusClass(vertices=canon, interior=interior, boundary=boundary)


def _shard_worker(args: tuple) -> list:
    i_max, h, b0, window = args
    raw: list = []
    _enumerate_rows(i_max, h, b0, window, raw)
    out = []
    handled: set = set()
    for rows, interior in raw:
        cls = _leaf_to_class(rows, interior)
        if cls is None or cls.vertices in handled:
            continue
        handled.add(cls.vertices)
        out.append(cls)
    return out


def row_dfs_classes(i_max: int) -> dict[int, tuple]:
    """All width->=2 classes with interior count <= i_max, keyed by count,
    each bucket sorted as census.enumerate_polygon_classes sorts it."""
    window = certified_box_bound(i_max)
    results: dict[tuple, CensusClass] = {}
    for h in range(2, max_height(i_max) + 1):
        for b0 in range(0, 2 * i_max + 7):
            for cls in _shard_worker((i_max, h, b0, window)):
                results.setdefault(cls.vertices, cls)
    buckets: dict[int, list] = {i: [] for i in range(i_max + 1)}
    for cls in results.values():
        buckets[cls.interior].append(cls)
    return {
        i: tuple(sorted(bucket, key=CensusClass.key))
        for i, bucket in buckets.items()
    }
