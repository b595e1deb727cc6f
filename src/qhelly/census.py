"""Census of planar lattice polygons by interior point count, and the
derived counting profile of the full planar lattice.

Enumeration (Castryck, Moving out the edges of a lattice polygon, 2012):
classes under unimodular maps and translations are built bucket by
bucket, bucket i holding the classes with i interior points, each from
top polygons that contain every class of one family up to equivalence:

  - i = 0: 2 Delta alone (see the width rule below);
  - i = 1: the three maximal polygons with one interior point;
  - interior points collinear (i >= 2): after a unimodular map they are
    (1,1)..(i,1), the polygon lies in the strip 0 <= y <= 2, and its
    hull of rows [a, b] on y = 0, a in {0, 1}, and [0, d] on y = 2 with
    b + d in {2i+1, 2i+2}, with or without (0,1) and (i+1,1), is a top;
  - interior hull Q = conv(int P) two-dimensional: Q has exactly i
    lattice points, so it is a class of a lower bucket with total i or
    a width-1 trapezoid, and P lies in Q^(-1), the polygon bounded by
    the edge lines of Q moved out by lattice distance 1 (Koelman).
    Q^(-1) is the top, when its vertices are lattice points.

From each distinct top hull one vertex is dropped at a time (the hull
of the remaining lattice points) while Pick's formula still gives i, so
every polygon of the family below the top is reached; classes are
deduplicated by canonical form and only new ones descended from.  A
drop changes only the chain between the vertex's neighbours, where the
hull of the other lattice points of the triangle they span with it is
spliced in (_vertex_drop); row intervals scan a smaller triangle at the
vertex, only when Pick counts interior points in it.  The child's
doubled area and boundary count follow from the parent's and that
chain, so a child with another interior count is never built, and the
canonical form uses the doubled area to skip edges.  conv(int P) is a
unimodular invariant, so the families share no class and their shards
run independently.  Pick's formula (shoelace area and edge gcds) gives
each top its counts, and the same O(v) edge pass validates every class
loaded from the cache.  A loaded class is not re-canonicalized: its
stored cycle is checked to be no larger than any of its 2v anchored
images and equal to one of them, and the doubled area from that edge
pass lets the check skip every edge whose two images an area bound
puts above the stored cycle's least x.  The tests hold the enumeration
against the row search that first wrote the census files.

Lattice width needs no search.  A polygon with an interior lattice point
has width >= 2: width 1 would put it in a strip a <= u.x <= a + 1, whose
open inside holds no lattice point.  Without interior points the only
class of width >= 2 is 2 Delta = conv{(0,0), (2,0), (0,2)} (Arkinstall
1980; Rabinowitz 1989).  So a polygon has width >= 2 exactly when it has
an interior point or its canonical form is 2 Delta.

Width-1 polygons (trapezoids between two adjacent lattice lines) are
excluded from the stored census: there are infinitely many per nonvertex
count but they contribute vertex count 4 for every k >= 0, which
profile code adds back analytically.

The store builds every missing interior count in one enumeration pass up
to the largest of them, then saves each count's file atomically in
increasing order.
"""

from __future__ import annotations

import gc
import os
import re
from contextlib import suppress
from math import gcd, isqrt, lcm
from pathlib import Path
from typing import Iterable, NamedTuple, Optional, Sequence

from .errors import (
    BudgetExceededError,
    CacheCorruptError,
    CacheError,
    CacheIncompleteError,
    CacheMissingError,
    DegenerateInputError,
    GuardRadiusError,
)
from .extint import Profile, c_from_g
from .lattice import (
    LatticePolytope,
    _edge_facets,
    _hull_cycle_2d,
    _row_intervals,
    _xgcd,
    canonical_form_2d,
    is_canonical_cycle_2d,
    lattice_points_in,
)

CACHE_ENV_VAR = "QHELLY_CACHE_DIR"
_CACHE_VERSION = "polygon-census v1"


def max_height(i_max: int) -> int:
    """ceil(sqrt((16 i + 20) / 3)) + 1 for i = i_max, exactly.

    A class with i interior points has lattice width at most
    sqrt((16 i + 20) / 3) (Scott's b <= 2i + 7 and Pick give A <= 2i + 5/2,
    against A >= 3w^2/8); with one unit of headroom this is the height of
    the row search that first certified the census, and it enters the
    box= value of the census file header.
    """
    num = 16 * i_max + 20
    s = isqrt(num // 3)
    while 3 * s * s < num:
        s += 1
    return s + 1


def certified_box_bound(i_max: int) -> int:
    """The box= value written in the header of census file i_max.

    It is the horizontal window, 2 i + 2 max_height(i) + 10, within which
    the row search that first certified the census placed every class.
    The census files keep it so their bytes stay as they were, and
    CensusStore.is_complete accepts a file only when its box is at least
    this value.
    """
    return 2 * i_max + 2 * max_height(i_max) + 10


# ---------------------------------------------------------------------------
# class record


class CensusClass(NamedTuple):
    """A lattice polygon, by its vertices and its interior and non-vertex
    boundary point counts.

    A census class holds the canonical form of its unimodular class; the
    width-1 trapezoids of the planar profile hold a fixed embedding.
    """

    vertices: tuple
    interior: int
    boundary: int

    @property
    def vertex_count(self) -> int:
        return len(self.vertices)

    @property
    def nonvertex(self) -> int:
        return self.interior + self.boundary

    @property
    def total(self) -> int:
        return self.vertex_count + self.nonvertex

    def key(self) -> tuple:
        return (self.vertex_count, self.vertices)


# canonical form of 2 Delta, the only width->=2 class without interior points
_DOUBLED_TRIANGLE = ((0, 0), (2, 0), (0, 2))


def _has_width_two(interior: int, canon: tuple) -> bool:
    """Lattice width >= 2 of a polygon, from its interior count and
    canonical form (see the module docstring)."""
    return interior >= 1 or canon == _DOUBLED_TRIANGLE


# ---------------------------------------------------------------------------
# enumeration by moving out the edges


def _hull_pick_counts(cycle: Sequence[tuple]) -> Optional[tuple[int, int]]:
    """Interior and non-vertex boundary lattice point counts of a hull
    cycle, by Pick's formula, or None when the vertex cycle is not the
    one _hull_cycle_2d gives for its points.

    One pass over the edges does both.  The cycle is a hull cycle when it
    starts at its lex-min vertex, every turn is strictly left and the
    edge directions wind exactly once; a closed path with these turns and
    one winding is a strictly convex polygon traversed counterclockwise.
    A strict left turn is less than a half turn, so the direction enters
    the upper half-plane (dy > 0, or dy = 0 < dx) from the lower one once
    per winding.  2A is the shoelace sum and the boundary holds
    B = sum of gcd(dx, dy) over the edges, so I = (2A - B + 2) / 2 exactly.
    """
    if len(cycle) < 3 or min(cycle) != cycle[0]:
        return None
    (px, py), (qx, qy) = cycle[-2], cycle[-1]
    dx, dy = qx - px, qy - py
    lower = dy < 0 or (dy == 0 and dx < 0)
    windings = twice_area = b = 0
    for x, y in cycle:
        ex, ey = x - qx, y - qy
        if dx * ey - dy * ex <= 0:
            return None
        below = ey < 0 or (ey == 0 and ex < 0)
        if lower and not below:
            windings += 1
        twice_area += qx * y - x * qy
        b += gcd(ex, ey)
        dx, dy, lower = ex, ey, below
        qx, qy = x, y
    if windings != 1:
        return None
    return (twice_area - b + 2) // 2, b - len(cycle)


# the three maximal polygons with one interior point
_REFLEXIVE_TOPS = (
    ((-1, -1), (2, -1), (-1, 2)),
    ((-1, -1), (1, -1), (1, 1), (-1, 1)),
    ((-1, -1), (3, -1), (-1, 1)),
)


def _collinear_tops(i: int) -> Sequence:
    """The tops of the polygons whose i >= 1 interior points are collinear.

    At i = 1 they are the three maximal polygons with one interior point.
    For i >= 2 they are point sets in the strip 0 <= y <= 2 (see the
    module docstring); a hull with another interior count is dropped by
    the Pick check of _descend.
    """
    if i == 1:
        return _REFLEXIVE_TOPS
    tops = []
    for a in (0, 1):
        for s in (2 * i + 1, 2 * i + 2):
            for b in range(a, s + 1):
                rows = [(a, 0), (b, 0), (0, 2), (s - b, 2)]
                for extra in ((), ((0, 1),), ((i + 1, 1),), ((0, 1), (i + 1, 1))):
                    tops.append(rows + list(extra))
    return tops


def _moved_out(q: tuple) -> Optional[tuple]:
    """Q^(-1): the edge lines of the polygon Q, each moved out by lattice
    distance 1, as a hull cycle, or None when it is no lattice polygon
    with one edge per edge of Q.

    Every intersection of consecutive moved lines must be integral and
    satisfy every moved half-plane.
    """
    lines = [(nx, ny, c + 1) for (nx, ny), c in _edge_facets(q)]
    points = []
    (ax, ay, ac) = lines[-1]
    for bx, by, bc in lines:
        det = ax * by - ay * bx
        x, xr = divmod(ac * by - bc * ay, det)
        y, yr = divmod(ax * bc - bx * ac, det)
        if xr or yr or any(nx * x + ny * y > c for nx, ny, c in lines):
            return None
        points.append((x, y))
        ax, ay, ac = bx, by, bc
    return _hull_cycle_2d(points)


def _vertex_drop(cycle: tuple, j: int, twice_area: int, boundary: int) -> tuple:
    """(2A', B', chain) for the polygon cycle with vertex j dropped: the
    hull of its lattice points other than that vertex.

    twice_area and boundary are the cycle's doubled area 2A and boundary
    lattice point count B.  Only the part inside the triangle T that
    vertex v = cycle[j] spans with its neighbours u and w changes: chain
    is the u..w chain, counterclockwise, of the hull of the lattice
    points of T other than v.  It replaces u, v, w; u and w stay
    vertices, since the turn at each only grows.

    Let p1 and p2 be the lattice points next to v on its edges from u and
    to w, whose lattice lengths are g1 and g2.  T is the union of the
    quadrilateral u, p1, p2, w, which lies in the hull, and the triangle
    t = (p1, v, p2), whose edges at v are primitive.  So the chain is u,
    the p1..p2 chain of the hull of p1, p2 and the interior points of t,
    then w, with p1 = u or p2 = w left out.  By Pick, t has
    (det(v - u, w - u) / (g1 g2) - gcd(p2 - p1)) / 2 interior points, and
    they are scanned by row intervals only when there are any.

    So 2A' = 2A - det(v - u, w - u) + the doubled area between the chord
    uw and the chain, and B' = B - g1 - g2 + the chain's gcds, before any
    child cycle is made (_splice).  When the cycle is a triangle and the
    chain its chord uw, the child is the segment uw, with 2A' = 0.
    """
    u, v, w = cycle[j - 1], cycle[j], cycle[(j + 1) % len(cycle)]
    (ux, uy), (vx, vy), (wx, wy) = u, v, w
    det = (vx - ux) * (wy - uy) - (vy - uy) * (wx - ux)
    g1, g2 = gcd(vx - ux, vy - uy), gcd(wx - vx, wy - vy)
    p1 = (vx - (vx - ux) // g1, vy - (vy - uy) // g1)
    p2 = (vx + (wx - vx) // g2, vy + (wy - vy) // g2)
    (ax, ay), (bx, by) = p1, p2
    inner = (p1, p2)
    if det // (g1 * g2) > gcd(bx - ax, by - ay):
        # the edge facets of the counterclockwise triangle t
        facets = _edge_facets((p1, v, p2))
        # t's interior points lie strictly inside its bounding box
        box = (
            (min(ax, vx, bx) + 1, max(ax, vx, bx) - 1),
            (min(ay, vy, by) + 1, max(ay, vy, by) - 1),
        )
        points = [p1, p2]
        for (x,), _, _, slo, shi in _row_intervals(box, facets):
            if slo <= shi:
                points += ((x, slo), (x, shi))
        hull = _hull_cycle_2d(points)
        k = hull.index(p1)
        hull = hull[k:] + hull[:k]
        inner = hull[: hull.index(p2) + 1]
    # p1 = u exactly when g1 = 1, and p2 = w when g2 = 1
    chain = (u,) * (g1 > 1) + inner + (w,) * (g2 > 1)
    twice_area -= det
    boundary -= g1 + g2
    px, py = u
    for qx, qy in chain[1:]:
        twice_area += (px - ux) * (qy - uy) - (py - uy) * (qx - ux)
        boundary += gcd(qx - px, qy - py)
        px, py = qx, qy
    return twice_area, boundary, chain


def _splice(cycle: tuple, j: int, chain: tuple) -> tuple:
    """The cycle with vertex j replaced by the inner points of chain, from
    its successor on; canonical_form_2d reads a cycle from any vertex."""
    return cycle[j + 1 :] + cycle[:j] + chain[1:-1]


def _descend(shard: tuple) -> list:
    """Every class with i >= 1 interior points inside one of the top
    polygons.

    From each distinct top hull, one vertex is dropped at a time
    (_vertex_drop: the hull of the remaining lattice points, spliced in
    locally) while Pick's formula on the child's counts, taken from the
    parent's and the new chain, still gives i; a child with another count
    is never built, and a segment child has count 1 - gcd <= 0.  Classes
    are deduplicated by canonical form, which the doubled area speeds up,
    and only new ones are descended from, since an equivalence maps the
    descendants of one polygon onto those of the other.  2A and B are
    unimodular invariants, so each class takes its counts from the child
    it was first reached as.
    """
    i, tops = shard
    found: dict = {}
    stack = []
    for cycle in dict.fromkeys(map(_hull_cycle_2d, tops)):
        counts = _hull_pick_counts(cycle)
        if counts is not None and counts[0] == i:
            boundary = counts[1] + len(cycle)
            # Pick: 2A = 2I + B - 2
            stack.append((cycle, 2 * i + boundary - 2, boundary))
    while stack:
        cycle, twice_area, boundary = stack.pop()
        canon = canonical_form_2d(cycle, twice_area)
        if canon in found:
            continue
        found[canon] = CensusClass(vertices=canon, interior=i, boundary=boundary - len(canon))
        for j in range(len(canon)):
            area, b, chain = _vertex_drop(canon, j, twice_area, boundary)
            # Pick: 2I = 2A - B + 2
            if area - b + 2 == 2 * i:
                stack.append((_splice(canon, j, chain), area, b))
    return list(found.values())


def _moved_out_shards(i: int, lower: dict) -> list:
    """The shards of bucket i whose interior points span the plane, one
    per candidate interior hull Q.

    Q has exactly i lattice points, so it is a stored class of a lower
    bucket with total i or a width-1 trapezoid.  Every polygon whose
    interior hull is Q lies in Q^(-1) (Koelman), and Q is kept only when
    Q^(-1) is a lattice polygon.  conv(int P) is invariant, so shards of
    inequivalent Qs share no class.
    """
    qs = [cls.vertices for bucket in lower.values() for cls in bucket if cls.total == i]
    if i >= 3:
        # rows of m and i - m points; at i = 2 they only span a segment
        qs.extend(
            _hull_cycle_2d([(0, 0), (m - 1, 0), (0, 1), (i - m - 1, 1)])
            for m in range(1, i // 2 + 1)
        )
    tops = (_moved_out(q) for q in qs)
    return [(i, [top]) for top in tops if top is not None]


def _build(i_max: int, mapper) -> dict[int, tuple]:
    """Buckets 0..i_max; mapper runs _descend over a list of shards and
    yields the results in order.

    The collinear shards need no lower bucket, and the moved-out shards
    of bucket i need only the buckets up to i - 3 (a class with total i
    has at most i - 3 interior points), so each is mapped as soon as it
    can be.
    """
    buckets = {0: (CensusClass(vertices=_DOUBLED_TRIANGLE, interior=0, boundary=3),)}
    collinear = mapper(_descend, [(i, _collinear_tops(i)) for i in range(1, i_max + 1)])
    moved = {
        i: mapper(_descend, _moved_out_shards(i, buckets)) for i in range(1, min(i_max, 3) + 1)
    }
    for i in range(1, i_max + 1):
        parts = [next(collinear), *moved.pop(i)]
        buckets[i] = tuple(sorted((cls for part in parts for cls in part), key=CensusClass.key))
        if i + 3 <= i_max:
            moved[i + 3] = mapper(_descend, _moved_out_shards(i + 3, buckets))
    return buckets


def _start_worker(collect: bool) -> None:
    """Move a new pool worker onto one CPU of its allowed set (chosen by
    its process id), then free it; and freeze the objects it inherited.

    A forked worker starts on the CPU of the process that forked it.  On a
    2-vCPU virtual machine whose second CPU had idled, all four workers
    were seen to share one CPU for about 1.3 s, most of a build up to
    interior 8; one forced move spreads them from the start, and restoring
    the allowed set leaves them free to migrate.

    A worker shares the parent's pages until it writes them, and a full
    collection writes the header of every tracked object it walks.  The
    worker is forked with the collector off; it freezes what it
    inherited, so that its collections, back on if the caller had them
    on, walk only what it made itself.
    """
    if hasattr(os, "sched_setaffinity"):
        allowed = sorted(os.sched_getaffinity(0))
        os.sched_setaffinity(0, {allowed[os.getpid() % len(allowed)]})
        os.sched_setaffinity(0, allowed)
    gc.freeze()
    if collect:
        gc.enable()


def enumerate_polygon_classes(i_max: int, *, threads: int = 1) -> dict[int, tuple]:
    """All width->=2 classes with interior count <= i_max, keyed by count.

    Bucket i is built from the buckets below it; with threads > 1 the
    shards of all buckets run on one process pool kept for the whole
    build.  The result is the same for any thread count.  No collection
    runs in this process while the pool lives: one would write every
    tracked object's header, copying each page the workers still share.
    """
    if i_max < 0:
        raise ValueError("interior bound must be nonnegative")
    if threads > 1:
        from concurrent.futures import ProcessPoolExecutor

        enabled = gc.isenabled()
        gc.disable()
        try:
            with ProcessPoolExecutor(
                max_workers=threads, initializer=_start_worker, initargs=(enabled,)
            ) as pool:
                return _build(i_max, pool.map)
        finally:
            if enabled:
                gc.enable()
    return _build(i_max, map)


# ---------------------------------------------------------------------------
# persistent cache


class CensusFile(NamedTuple):
    """One persisted census shard: all classes with a fixed interior count."""

    interior: int
    box: int
    complete: bool
    classes: tuple

    def render(self) -> str:
        flag = 1 if self.complete else 0
        lines = [f"{_CACHE_VERSION} interior={self.interior} box={self.box} complete={flag}"]
        for cls in self.classes:
            coords = " ".join(f"{x} {y}" for x, y in cls.vertices)
            lines.append(f"{cls.vertex_count} {coords}")
        lines.append(f"count={len(self.classes)}")
        return "\n".join(lines) + "\n"


# counts are written as render writes them: decimal, no sign, no leading zero
_DECIMAL = r"(?:0|[1-9][0-9]*)"
_HEADER_RE = re.compile(
    rf"\Apolygon-census (?P<version>\S+) interior=(?P<interior>{_DECIMAL}) "
    rf"box=(?P<box>{_DECIMAL}) complete=(?P<complete>[01])\Z"
)
_TRAILER_RE = re.compile(rf"\Acount=(?P<count>{_DECIMAL})\Z")
# a vertex count, then coordinates as str() writes them: no "+", "-0", "05"
_CLASS_LINE_RE = re.compile(rf"\A{_DECIMAL}(?: (?:0|-?[1-9][0-9]*))*\Z")


def _parse_header(line: str) -> tuple[int, int, bool]:
    """(interior, box, complete) from a census header line."""
    m = _HEADER_RE.match(line)
    if m is None:
        raise CacheCorruptError(f"malformed census header: {line!r}")
    if f"polygon-census {m.group('version')}" != _CACHE_VERSION:
        raise CacheCorruptError(
            f"census format version {m.group('version')!r} is not supported"
        )
    try:
        return int(m.group("interior")), int(m.group("box")), m.group("complete") == "1"
    except ValueError as exc:  # more digits than int() reads
        raise CacheCorruptError(f"malformed census header: {exc}") from None


def parse_census_file(text: str) -> CensusFile:
    """Inverse of CensusFile.render; every class is revalidated.

    Validation checks that each stored cycle is its own convex hull and
    its own canonical form (checked against its anchored images, not
    recomputed), that Pick's formula over its edges gives the
    header's interior count, that it has lattice width >= 2 (an interior
    point, or the class 2 Delta), and that the classes are sorted and
    distinct, so a loaded cache carries the same guarantees as a freshly
    enumerated one.  A failing class is reported by the first of these
    checks it fails, in that order.  Each class line costs one tokenize
    pass, one edge pass for the hull and Pick checks (_hull_pick_counts)
    and one calipers pass for the canonical check, which skips the edges
    that the doubled area from the Pick counts rules out and never walks
    the identity image.
    """
    lines = text.split("\n")
    if not lines or lines[-1] != "":
        raise CacheCorruptError("census file does not end with a newline")
    lines.pop()
    if not lines:
        raise CacheCorruptError("census file is empty")
    interior, box, complete = _parse_header(lines[0])
    if not lines[-1].startswith("count="):
        raise CacheCorruptError("census file has no count trailer")
    trailer = _TRAILER_RE.match(lines[-1])
    if trailer is None:
        raise CacheCorruptError(f"malformed count trailer: {lines[-1]!r}")
    body = lines[1:-1]
    classes = []
    # one try for the whole file: int() refuses a number of more digits
    # than sys.get_int_max_str_digits() with a ValueError
    try:
        count = int(trailer.group("count"))
        if count != len(body):
            raise CacheCorruptError(
                f"count trailer says {count} classes, file holds {len(body)}"
            )
        for line in body:
            # int() also takes "+5", "05", "0_5" and a trailing "\r"; the line
            # must be spelled exactly as render spells its numbers
            if _CLASS_LINE_RE.match(line) is None:
                raise CacheCorruptError(f"malformed census line: {line!r}")
            nums = map(int, line.split(" "))
            size = next(nums)
            # the regex allows one space between numbers, none around them
            if line.count(" ") != 2 * size or size < 3:
                raise CacheCorruptError(f"malformed census line: {line!r}")
            classes.append(_class_from_vertices(tuple(zip(nums, nums)), interior))
    except ValueError as exc:
        raise CacheCorruptError(f"malformed census file: {exc}") from None
    keys = [cls.key() for cls in classes]
    if any(a >= b for a, b in zip(keys, keys[1:])):
        raise CacheCorruptError("census classes are not sorted and distinct")
    return CensusFile(interior=interior, box=box, complete=complete, classes=tuple(classes))


def _class_from_vertices(verts: tuple, interior: int) -> CensusClass:
    counts = _hull_pick_counts(verts)
    if counts is None:
        raise CacheCorruptError(f"stored vertices are not a polygon hull: {verts}")
    pick_interior, boundary = counts
    # Pick: 2A = 2I + B - 2, with B the boundary's non-vertex and vertex points
    if not is_canonical_cycle_2d(verts, 2 * pick_interior + boundary + len(verts) - 2):
        raise CacheCorruptError(f"stored vertices are not in canonical form: {verts}")
    if pick_interior != interior:
        raise CacheCorruptError(
            f"stored polygon has {pick_interior} interior points, header says {interior}"
        )
    # a hull with no interior point other than 2 Delta has width exactly 1
    if not _has_width_two(interior, verts):
        raise CacheCorruptError(f"stored polygon has lattice width 1: {verts}")
    return CensusClass(vertices=verts, interior=interior, boundary=boundary)


def _path_error(path: Path, exc: OSError) -> CacheError:
    """The cache error for an OS failure on a cache path other than absence."""
    return CacheError(f"census cache path {path} is unusable: {exc.strerror or exc}")


class CensusStore:
    """Directory of per-interior-count census files.

    Files are written atomically (temp file then rename), so a crashed
    run never leaves a truncated final file and finished interior counts
    are reused when a larger run is restarted.
    """

    def __init__(self, directory: Optional[str | Path] = None):
        # the one rule for an unset directory, which the cli's usage
        # error rests on: an empty value is unset.  pathlib makes Path("")
        # equal to Path("."), so neither Path counts as given; the string
        # "." still names the current directory
        if isinstance(directory, Path) and directory == Path(""):
            directory = None
        directory = directory or os.environ.get(CACHE_ENV_VAR) or None
        if directory is None:
            raise ValueError(
                f"no cache directory given and {CACHE_ENV_VAR} is not set"
            )
        self.directory = Path(directory)

    def path(self, i: int) -> Path:
        return self.directory / f"interior_{i:02d}.census"

    def save(self, file: CensusFile) -> Path:
        target = self.path(file.interior)
        tmp = target.with_name(target.name + f".tmp{os.getpid()}")
        try:
            self.directory.mkdir(parents=True, exist_ok=True)
            tmp.write_text(file.render(), encoding="ascii")
            os.replace(tmp, target)
        except OSError as exc:
            # only this process's own temporary file: another writer's may be live
            with suppress(OSError):
                tmp.unlink(missing_ok=True)
            raise _path_error(target, exc) from exc
        return target

    def load(self, i: int) -> CensusFile:
        path = self.path(i)
        try:
            # a non-ASCII byte decodes to U+FFFD, which no census line accepts
            text = path.read_text(encoding="ascii", errors="replace")
        except FileNotFoundError:
            raise CacheMissingError(f"no census file for interior count {i}: {path}") from None
        except OSError as exc:
            raise _path_error(path, exc) from exc
        try:
            file = parse_census_file(text)
        except CacheCorruptError as exc:
            raise CacheCorruptError(f"{path}: {exc}") from exc
        if file.interior != i:
            raise CacheCorruptError(
                f"{path} holds interior count {file.interior}, expected {i}"
            )
        return file

    def is_complete(self, i: int) -> bool:
        """True when a certified-complete file exists for i.

        Reads only the header line; the body is validated when the file
        is loaded.
        """
        path = self.path(i)
        try:
            with path.open(encoding="ascii", errors="replace") as fh:
                header = fh.readline()
        except FileNotFoundError:
            return False
        except OSError as exc:
            raise _path_error(path, exc) from exc
        try:
            interior, box, complete = _parse_header(header.removesuffix("\n"))
        except CacheCorruptError as exc:
            raise CacheCorruptError(f"{path}: {exc}") from exc
        if interior != i:
            raise CacheCorruptError(f"{path} holds interior count {interior}, expected {i}")
        return complete and box >= certified_box_bound(i)

    def missing(self, k_max: int) -> tuple:
        return tuple(i for i in range(k_max + 1) if not self.is_complete(i))

    def ensure(self, k_max: int, *, threads: int = 1) -> tuple:
        """Enumerate and persist every missing interior count up to k_max.

        One enumeration pass up to the largest missing count yields every
        missing count; each is then saved atomically, in increasing order.
        Counts already complete are neither rebuilt nor rewritten, so a
        run killed during the pass or between saves resumes from the
        files already saved.
        """
        missing = self.missing(k_max)
        if not missing:
            return ()
        buckets = enumerate_polygon_classes(max(missing), threads=threads)
        for i in missing:
            self.save(
                CensusFile(
                    interior=i,
                    box=certified_box_bound(i),
                    complete=True,
                    classes=buckets[i],
                )
            )
        return missing


# ---------------------------------------------------------------------------
# the counting profile of the planar lattice


def width1_trapezoid(k: int) -> CensusClass:
    """A trapezoid between two adjacent lattice lines with k non-vertex
    points, all on its long edge.

    Width-1 polygons form infinitely many classes per interior count, so
    they are kept out of the cache; for every k >= 0 the family reaches
    vertex count 4 with exactly k non-vertex points and never more.
    """
    if k < 0:
        raise ValueError("non-vertex count must be nonnegative")
    if k == 0:
        verts = ((0, 0), (1, 0), (1, 1), (0, 1))
    else:
        verts = ((0, 0), (k + 1, 0), (1, 1), (0, 1))
    return CensusClass(vertices=verts, interior=0, boundary=k)


def _require_complete(store: CensusStore, k_max: int) -> None:
    missing = store.missing(k_max)
    if missing:
        raise CacheIncompleteError(
            "census cache is incomplete for interior counts "
            + ", ".join(str(i) for i in missing)
        )


def c_z2_profile(k_max: int, store: CensusStore) -> Profile:
    """Counting profile of the planar lattice through k_max.

    g[k] is the largest vertex count among the classes with k non-vertex
    points, and witnesses[k] the vertex tuple of the first class in key
    order that attains it; the width-1 trapezoid's vertices stand in when
    no class reaches 4 vertices.  A polygon with k non-vertex points has
    at most k interior points, so the files 0..k_max decide every value,
    and one pass over them fills the table.
    c follows the stepwise recursion of extint.c_from_g; no k exceeds the
    size of the infinite site Z^2, so k_max serves as the size bound.

    Any k with c[k] != g[k] would separate the two quantities, which no
    known example does, so it is reported as a finding instead of being
    silently accepted; the same goes for a g step dropping by more than
    1, which would indicate an incomplete census.
    """
    if k_max < 0:
        raise ValueError("k_max must be nonnegative")
    _require_complete(store, k_max)
    best: list = [None] * (k_max + 1)
    for i in range(k_max + 1):
        for cls in store.load(i).classes:
            k = cls.nonvertex
            # most vertices first, then the least vertex tuple
            if k <= k_max and (
                best[k] is None
                or (-cls.vertex_count, cls.vertices) < (-best[k].vertex_count, best[k].vertices)
            ):
                best[k] = cls
    witnesses = tuple(
        (cls if cls is not None and cls.vertex_count >= 4 else width1_trapezoid(k)).vertices
        for k, cls in enumerate(best)
    )
    g_vals = tuple(map(len, witnesses))
    c_vals = c_from_g(g_vals, k_max)
    findings = []
    for k in range(1, k_max + 1):
        if c_vals[k] != g_vals[k]:
            findings.append(
                f"c({k}) = {c_vals[k]} exceeds g({k}) = {g_vals[k]}: "
                "vertex maximizers do not explain the Helly value at this k"
            )
        if g_vals[k] < g_vals[k - 1] - 1:
            findings.append(
                f"g({k}) = {g_vals[k]} is more than one below g({k - 1}) = "
                f"{g_vals[k - 1]}; the census is likely incomplete"
            )
    drops = tuple(k for k in range(1, k_max + 1) if g_vals[k] == g_vals[k - 1] - 1)
    return Profile("Z^2", k_max, g_vals, c_vals, witnesses, drops, tuple(findings))


# ---------------------------------------------------------------------------
# maximality of rational polygons


_SCAN_BUDGET = 1 << 22


def _edge_relint_lattice_point(A: tuple, B: tuple, scale: int):
    """Some lattice point strictly between A / scale and B / scale, or None.

    With B - A = g (p, q) for a primitive (p, q), the lattice points of the
    line, if it has any, are z0 + t (p, q); scaled, they sit at A + u (p, q)
    with u = u0 + t scale, and the open segment is 0 < u < g.
    """
    ax, ay = A
    dx, dy = B[0] - ax, B[1] - ay
    g = gcd(dx, dy)
    p, q = dx // g, dy // g
    c, rem = divmod(q * ax - p * ay, scale)
    if rem:
        return None  # q x - p y is not an integer on the line
    _, s, r = _xgcd(q, -p)
    zx, zy = s * c, r * c
    u0 = (scale * zx - ax) // p if p else (scale * zy - ay) // q
    u = u0 % scale or scale
    if u >= g:
        return None
    t = (u - u0) // scale
    return (zx + t * p, zy + t * q)


def _strict_interior_lattice_points(cycle: Sequence[tuple], scale: int) -> tuple:
    """Lattice points strictly inside a convex ccw cycle of integer points
    over the common denominator scale, by columns."""
    xs = [p[0] for p in cycle]
    ys = [p[1] for p in cycle]
    x_lo, x_hi = min(xs) // scale + 1, -(-max(xs) // scale) - 1
    y_lo, y_hi = min(ys) // scale + 1, -(-max(ys) // scale) - 1
    if x_hi < x_lo or y_hi < y_lo:
        return ()
    cells = (x_hi - x_lo + 1) * (y_hi - y_lo + 1)
    if cells > _SCAN_BUDGET:
        raise BudgetExceededError(
            f"lattice scan over {cells} cells exceeds the budget {_SCAN_BUDGET}"
        )
    # (x, y) strictly inside the edge facet n . X <= c of the integer
    # cycle: n . (scale x, scale y) < c
    facets = [((scale * nx, scale * ny), c) for (nx, ny), c in _edge_facets(cycle)]
    return tuple(
        (x, y)
        for (x,), _, _, slo, shi in _row_intervals(((x_lo, x_hi), (y_lo, y_hi)), facets)
        for y in range(slo, shi + 1)
    )


class MembershipReport(NamedTuple):
    """Outcome of the two-part maximality test for a rational polygon."""

    k: int
    interior_count: int
    facet_count: int
    facets_missing_lattice_point: tuple

    @property
    def is_member(self) -> bool:
        return self.interior_count == self.k and not self.facets_missing_lattice_point


def maximal_membership(points: Iterable[tuple], k: int, scale: int = 1) -> MembershipReport:
    """Test whether the polygon with vertices (X / scale, Y / scale), over
    integer points (X, Y), is inclusion-maximal among convex sets with
    exactly k interior lattice points.

    Maximality holds exactly when the interior lattice count is k and the
    relative interior of every edge contains a lattice point.  facet_count
    is the number of edges of the hull of the points.  k = 0 is refused:
    maximal sets without interior points can be unbounded, so no polygon
    test applies.
    """
    if k < 1:
        raise ValueError("maximality test supports k >= 1 only")
    if scale < 1:
        raise ValueError("the scale of a rational polygon must be positive")
    cycle = _hull_cycle_2d(points)
    m = len(cycle)
    if m < 3:
        raise DegenerateInputError("maximality test needs a 2-dimensional polygon")
    interior = _strict_interior_lattice_points(cycle, scale)
    missing = tuple(
        i for i in range(m) if _edge_relint_lattice_point(cycle[i], cycle[(i + 1) % m], scale) is None
    )
    return MembershipReport(k, len(interior), m, missing)


class ExpansionResult(NamedTuple):
    """A rational polygon grown around an integral polygon, and its test.

    facets[i] is the (normal, offset) pair of the line normal . x = offset
    through input vertex i, and the polygon is where every normal . x is at
    most its offset.
    """

    facets: tuple
    rounds: int
    report: MembershipReport


_EXPAND_OP_GUARD = 512


def expand_to_maximal(polytope: LatticePolytope, k: int) -> ExpansionResult:
    """Grow an integral polygon with k non-vertex points into a maximal
    polygon with exactly k interior lattice points, one facet per vertex.

    Facet i is the line through vertex V_i with normal n_{i-1} + mu_i n_i
    (adjacent edge normals, integer weight mu_i >= 1), which keeps V_i in
    the relative interior of its facet and every non-vertex point of the
    input strictly inside, whatever the weights.  Two weight moves refine
    the seed: when consecutive facet normals stop turning strictly left
    (the polygon would degenerate or unbound), every mu doubles, which
    restores the turning since the quadratic mu-term of each determinant
    has positive coefficient; a stray interior lattice point, always
    outside the input, is cut by doubling the mu of its most violated
    input edge, and stays cut because weights never decrease.  Consecutive
    facets i and i + 1 meet at a vertex with denominator their determinant,
    so the vertex cycle is kept as integers over the lcm of the
    determinants.  The result's report is the maximality test of the grown
    polygon; a polygon that fails it is returned all the same, for the
    caller to report.
    """
    if k < 1:
        raise ValueError("expansion supports k >= 1 only")
    if polytope.ambient_dim != 2 or polytope.affine_dim != 2:
        raise DegenerateInputError("expansion needs a full-dimensional polygon in the plane")
    verts = polytope.vertices
    keep = set(lattice_points_in(polytope)) - set(verts)
    if len(keep) != k:
        raise ValueError(
            f"polygon has {len(keep)} non-vertex points, expansion asked for {k}"
        )
    m = len(verts)
    # edge i runs from vertex i to vertex i + 1
    normals, offsets = zip(*_edge_facets(verts))
    mu = [1] * m
    rounds = 0

    def build():
        # each facet with the next, and the determinant of their normals
        facets = []
        for i, (vx, vy) in enumerate(verts):
            prev = normals[i - 1]
            cur = normals[i]
            a = (prev[0] + mu[i] * cur[0], prev[1] + mu[i] * cur[1])
            facets.append((a, a[0] * vx + a[1] * vy))
        pairs = list(zip(facets, facets[1:] + facets[:1]))
        return pairs, [a[0] * b[1] - a[1] * b[0] for (a, _), (b, _) in pairs]

    while True:
        pairs, dets = build()
        while min(dets) <= 0:
            for i in range(m):
                mu[i] *= 2
            rounds += 1
            if rounds > _EXPAND_OP_GUARD:
                raise GuardRadiusError(
                    "expansion weights grew past the guard while restoring "
                    "the facet normal fan"
                )
            pairs, dets = build()
        scale = lcm(*dets)
        cycle = []
        for ((a, ga), (b, gb)), det in zip(pairs, dets):
            f = scale // det
            cycle.append((f * (ga * b[1] - gb * a[1]), f * (a[0] * gb - b[0] * ga)))
        try:
            interior = _strict_interior_lattice_points(cycle, scale)
        except BudgetExceededError as exc:
            raise GuardRadiusError(
                f"expansion escaped the guard region after {rounds} rounds: {exc}"
            ) from None
        strays = sorted(set(interior) - keep)
        if not strays:
            break
        rounds += 1
        if rounds > _EXPAND_OP_GUARD:
            raise GuardRadiusError(
                f"expansion still has stray lattice points after {rounds} rounds: "
                f"{strays[:5]}"
            )
        z = strays[0]
        worst = max(
            range(m),
            key=lambda e: (normals[e][0] * z[0] + normals[e][1] * z[1] - offsets[e], -e),
        )
        violation = (
            normals[worst][0] * z[0] + normals[worst][1] * z[1] - offsets[worst]
        )
        assert violation > 0, "stray lattice point inside the input polygon"
        mu[worst] *= 2
    facets = tuple(facet for facet, _ in pairs)
    return ExpansionResult(facets, rounds, maximal_membership(cycle, k, scale))
