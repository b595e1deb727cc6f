"""Standalone property suites.

Five families of randomized or exhaustive invariants that hold for
every valid input: closure idempotence, canonical-form invariance
under unimodular maps, census self-consistency, byte-exact cache
round trips, and output determinism across thread counts.
"""

from __future__ import annotations

import json
import random

from qhelly.census import parse_census_file
from qhelly.cli import main
from qhelly.lattice import (
    FiniteSite,
    canonical_form_2d,
    census,
    convex_hull,
)
from scan_oracles import closure, twice_area

# ---------------------------------------------------------------------------
# closure idempotence


def _random_point_sets(rng, dim, count, spread):
    for _ in range(count):
        size = rng.randint(1, 9)
        yield [
            tuple(rng.randint(-spread, spread) for _ in range(dim))
            for _ in range(size)
        ]


def test_closure_idempotent_on_planar_lattice():
    rng = random.Random(424243)
    for pts in _random_point_sets(rng, dim=2, count=200, spread=6):
        once = closure(pts)
        assert set(pts) <= set(once)
        assert closure(once) == once


def test_closure_idempotent_in_three_dimensions():
    rng = random.Random(90210)
    for pts in _random_point_sets(rng, dim=3, count=60, spread=3):
        once = closure(pts)
        assert closure(once) == once


def test_closure_idempotent_on_finite_sites():
    rng = random.Random(171717)
    site = FiniteSite.grid(4, 4)
    pool = list(site.points)
    for _ in range(120):
        pts = rng.sample(pool, rng.randint(1, 6))
        once = closure(pts, site)
        assert set(pts) <= set(once) <= set(pool)
        assert closure(once, site) == once


def test_closure_is_monotone():
    # enlarging the generating set never shrinks the closure
    rng = random.Random(5150)
    for pts in _random_point_sets(rng, dim=2, count=100, spread=5):
        extra = pts + [(rng.randint(-5, 5), rng.randint(-5, 5))]
        assert set(closure(pts)) <= set(closure(extra))


# ---------------------------------------------------------------------------
# canonical form is a unimodular invariant


def _random_unimodular_image(rng, points):
    """Apply a random det +-1 integer map plus translation."""
    a, b, c, d = 1, 0, 0, 1
    for _ in range(4):
        m = rng.randint(-3, 3)
        if rng.random() < 0.5:
            a, b = a + m * c, b + m * d
        else:
            c, d = c + m * a, d + m * b
    if rng.random() < 0.5:
        a, b, c, d = c, d, a, b  # swap rows: determinant flips to -1
    tx, ty = rng.randint(-9, 9), rng.randint(-9, 9)
    return [(a * x + b * y + tx, c * x + d * y + ty) for x, y in points]


BASE_POLYGONS = [
    [(0, 0), (1, 0), (0, 1)],
    [(0, 0), (2, 0), (0, 2)],
    [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)],
    [(0, 0), (3, 0), (3, 1), (0, 1)],
    [(0, 0), (2, 0), (3, 2), (1, 3)],
    [(0, 0), (4, 1), (3, 4), (-1, 2)],
    [(0, 0), (5, 0), (0, 5)],
    [(0, 0), (2, 1), (1, 2)],
]


def test_canonical_form_unimodular_invariance_thousand_transforms():
    rng = random.Random(313131)
    cycles = [convex_hull(p).vertices for p in BASE_POLYGONS]
    canon = [canonical_form_2d(c, twice_area(c)) for c in cycles]
    for trial in range(1000):
        idx = trial % len(BASE_POLYGONS)
        image = _random_unimodular_image(rng, BASE_POLYGONS[idx])
        cycle = convex_hull(image).vertices
        assert canonical_form_2d(cycle, twice_area(cycle)) == canon[idx]


def test_canonical_form_is_itself_canonical():
    rng = random.Random(616161)
    for base in BASE_POLYGONS:
        cycle = convex_hull(base).vertices
        fixed = canonical_form_2d(cycle, twice_area(cycle))
        assert canonical_form_2d(convex_hull(fixed).vertices, twice_area(fixed)) == fixed
        image = _random_unimodular_image(rng, fixed)
        cycle = convex_hull(image).vertices
        assert canonical_form_2d(cycle, twice_area(cycle)) == fixed


def test_canonical_form_separates_inequivalent_polygons():
    # unit triangle vs doubled triangle differ in lattice point count
    small = canonical_form_2d(convex_hull([(0, 0), (1, 0), (0, 1)]).vertices, 1)
    doubled = canonical_form_2d(convex_hull([(0, 0), (2, 0), (0, 2)]).vertices, 4)
    assert small != doubled


# ---------------------------------------------------------------------------
# census self-consistency


def test_cached_classes_recount_exactly(small_cache):
    for i in range(4):
        shard = small_cache.load(i)
        assert shard.interior == i
        for cls in shard.classes:
            hull = convex_hull(cls.vertices)
            counts = census(hull)
            assert counts.vertex == cls.vertex_count == len(cls.vertices)
            assert counts.interior == i == cls.interior
            assert counts.boundary == cls.boundary
            assert counts.nonvertex == cls.nonvertex
            assert counts.total == counts.vertex + counts.nonvertex


def test_cached_classes_are_stored_in_canonical_form(small_cache):
    for i in range(4):
        for cls in small_cache.load(i).classes:
            cycle = convex_hull(cls.vertices).vertices
            assert canonical_form_2d(cycle, twice_area(cycle)) == cls.vertices


def test_cached_classes_are_distinct_and_sorted(small_cache):
    # shards order classes by vertex count, then vertex tuple
    for i in range(4):
        classes = small_cache.load(i).classes
        keys = [(cls.vertex_count, cls.vertices) for cls in classes]
        assert keys == sorted(keys)
        assert len(set(keys)) == len(keys)


def test_point_census_identities_on_random_polytopes():
    rng = random.Random(778899)
    for pts in _random_point_sets(rng, dim=2, count=150, spread=5):
        hull = convex_hull(pts)
        counts = census(hull)
        assert counts.total == counts.vertex + counts.nonvertex
        assert counts.nonvertex == counts.interior + counts.boundary
        assert counts.vertex == len(hull.vertices)


# ---------------------------------------------------------------------------
# cache round trip


def test_cache_files_round_trip_byte_exact(small_cache):
    for i in range(6):
        text = small_cache.path(i).read_text()
        assert parse_census_file(text).render() == text
        assert text.endswith("\n") and not text.endswith("\n\n")


# ---------------------------------------------------------------------------
# output determinism across thread counts


def test_census_outputs_identical_for_one_and_four_threads(tmp_path, capsys):
    outputs = {}
    for threads in ("1", "4"):
        cache = tmp_path / f"cache-t{threads}"
        cache.mkdir()
        blobs = []
        for fmt in ("csv", "json", "svg"):
            code = main(
                ["census", "--k", "4", "--cache", str(cache), "--threads", threads,
                 "--format", fmt]
            )
            captured = capsys.readouterr()
            assert code == 0
            blobs.append(captured.out)
        outputs[threads] = blobs
    assert outputs["1"] == outputs["4"]
    doc = json.loads(outputs["1"][1])
    assert doc["c"] == [4, 6, 6, 6, 8]


def test_grid_output_independent_of_invocation_order(capsys):
    def snap():
        code = main(["grid", "--dims", "3x3", "--kmax", "5", "--format", "json"])
        out = capsys.readouterr().out
        assert code == 0
        return out

    first = snap()
    main(["grid", "--dims", "2x2", "--kmax", "3", "--format", "csv"])
    capsys.readouterr()
    assert snap() == first
