"""Engine: closed-subset enumeration, g/c profiles, bounds.

The 3x3 grid values (g, c, the hexagonal witness) were verified by hand
before freezing.  The 4x3 values were derived here, cross-checked by
the two independent routes, and then frozen as regressions.
"""

from __future__ import annotations

import itertools
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qhelly import engine
from qhelly.engine import (
    _extend,
    _halfspace_memo,
    _line_masks,
    _seen_chain,
    audit_bounds,
    c_from_g,
    enumerate_convex_subsets,
    g_profile,
    halfspace_mask,
    site_mask,
)
from qhelly.errors import BudgetExceededError, UnsupportedDimensionError
from qhelly.lattice import FiniteSite, _affine_base, convex_hull
from profile_oracles import c_direct, consistency_findings, ext_max, unrolled_c
from scan_oracles import closed_sets_by_hulls, closure, contains


def signed_permutation_group(site: FiniteSite) -> list:
    """Oracle: the point permutations of every signed coordinate permutation
    that, followed by a translation, maps the site onto itself, by brute
    force on the coordinates the enumeration reads (those _affine_base
    keeps, which map the site one to one)."""
    _, kept = _affine_base(site.points)
    coords = [tuple(p[i] for i in kept) for p in site.points]
    index = {p: i for i, p in enumerate(coords)}
    group = []
    for axes in itertools.permutations(range(len(kept))):
        for signs in itertools.product((1, -1), repeat=len(kept)):
            image = [tuple(s * p[a] for a, s in zip(axes, signs)) for p in coords]
            # a translation keeps lexicographic order, so it takes least to least
            shift = [a - b for a, b in zip(min(coords), min(image))]
            moved = [tuple(a + b for a, b in zip(p, shift)) for p in image]
            if all(p in index for p in moved):
                group.append([index[p] for p in moved])
    return group


def mask_image(perm: list, mask: int) -> int:
    """The image of a mask under a permutation of the point indices."""
    return sum(1 << perm[i] for i in range(len(perm)) if mask >> i & 1)


def expand_orbits(site: FiniteSite, found: dict) -> dict:
    """The enumeration's closed sets, one per orbit, expanded to every image
    of each under signed_permutation_group, each mapped to the image of
    its vertex mask; the images of one set come out in the group's order."""
    group = signed_permutation_group(site)
    return {
        mask_image(perm, closed): mask_image(perm, verts)
        for closed, verts in found.items()
        for perm in group
    }


def brute_closed_subsets(site: FiniteSite) -> set:
    """Oracle: filter the full power set by closure-fixed-point."""
    out = set()
    pts = site.points
    for r in range(1, len(pts) + 1):
        for sub in itertools.combinations(pts, r):
            if closure(sub, site) == sub:
                out.add(sub)
    return out


def closed_tuples(site: FiniteSite) -> list:
    """The enumerated closed sets, orbits expanded, as point tuples, in the
    order the enumeration found them.

    Also checks each vertex mask against the hull of its closed set.
    """
    out = []
    for closed, verts in expand_orbits(site, enumerate_convex_subsets(site)).items():
        sub = site.points_of(closed)
        assert site.points_of(verts) == tuple(sorted(convex_hull(sub).vertices))
        out.append(sub)
    return out


@pytest.mark.parametrize(
    "site",
    [
        FiniteSite.grid(2, 2),
        FiniteSite.grid(3, 3),
        FiniteSite.of([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1), (1, 1)]),
        FiniteSite.of([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    ],
)
def test_enumeration_matches_power_set_oracle(site):
    assert set(closed_tuples(site)) == brute_closed_subsets(site)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=1, max_size=9),
    st.booleans(),
)
@example([(2, 1)], False)  # one point
@example([(0, 3), (2, 0)], True)  # two points
@example([(x, 1) for x in range(6)], False)  # six points on a row
@example([(0, 0), (1, 1), (3, 3), (2, 2)], True)  # a diagonal line
@example([(0, 2), (1, 2), (2, 2), (3, 2), (1, 0)], False)  # a line and a point off it
# a polygon with collinear runs along two of its edges
@example([(0, 0), (1, 0), (2, 0), (3, 0), (0, 1), (0, 2), (0, 3), (1, 1), (2, 1)], True)
def test_enumeration_matches_power_set_oracle_on_random_sites_in_z2(coords, flat):
    # flat: the same points on the lattice plane z = x + 2y - 1 of Z^3
    points = [(a, b, a + 2 * b - 1) for a, b in coords] if flat else coords
    site = FiniteSite.of(points)
    assert set(closed_tuples(site)) == brute_closed_subsets(site)
    assert expand_orbits(site, enumerate_convex_subsets(site)) == closed_sets_by_hulls(site)


@settings(max_examples=25, deadline=None)
@given(st.lists(st.tuples(*[st.integers(-1, 1)] * 3), min_size=1, max_size=9))
def test_enumeration_matches_power_set_oracle_on_random_sites_in_z3(points):
    site = FiniteSite.of(points)
    assert set(closed_tuples(site)) == brute_closed_subsets(site)


def test_enumeration_is_deterministic():
    site = FiniteSite.grid(3, 2)
    subs = closed_tuples(site)
    assert subs == closed_tuples(site)
    assert enumerate_convex_subsets(site) == enumerate_convex_subsets(site)


def test_budget_guard(monkeypatch):
    big = FiniteSite.grid(6, 6)  # 36 points
    # refused by its size, before the table of line masks is built
    monkeypatch.setattr(engine, "_line_masks", None)
    with pytest.raises(BudgetExceededError, match="site has 36 points"):
        enumerate_convex_subsets(big)


@pytest.mark.parametrize("dims", [(3, 3, 1), (3, 3, 1, 1), (1, 3, 3), (3, 1, 3)])
def test_flat_grid_enumerates_as_its_plane_without_hulls(monkeypatch, dims):
    plane = list(enumerate_convex_subsets(FiniteSite.grid(3, 3)).items())
    monkeypatch.setattr(engine, "convex_hull", None)
    assert list(enumerate_convex_subsets(FiniteSite.grid(*dims)).items()) == plane


def test_grid_6x4_closed_set_count():
    site = FiniteSite.grid(6, 4)
    assert len(expand_orbits(site, enumerate_convex_subsets(site))) == 24777


_SQUARE = [(0, 0), (2, 0), (2, 2), (0, 2)]


@st.composite
def _points_and_later_point(draw):
    """Points in [0, 6]^2 and a point p whose x is at least theirs, so that
    p is lexicographically above them all except, maybe, at a tie in x."""
    points = draw(
        st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=12)
    )
    return points, (draw(st.integers(max(points)[0], 9)), draw(st.integers(-3, 9)))


@settings(max_examples=300, deadline=None)
@given(
    _points_and_later_point(),
    st.lists(st.tuples(st.integers(-3, 9), st.integers(-3, 9)), max_size=8),
)
@example((_SQUARE, (3, 0)), [])  # on an edge's line, past its end
@example((_SQUARE, (3, 2)), [])  # on an edge's line, before its start
@example(([(0, 0), (2, 1), (1, 2), (0, 2)], (4, 2)), [])  # on the lines of two edges
@example((_SQUARE, (3, 1)), [(1, 1), (4, 1), (3, 3)])  # sees one edge
@example(([(0, 3), (3, 0), (3, 2), (2, 4)], (6, 9)), [])  # sees every edge but one
def test_splice_is_the_hull_of_cycle_plus_point(points_and_p, extra):
    # in the enumeration p comes after every vertex of the closed set's
    # cycle, so cycle[0] stays first and the cycle is not rotated
    points, p = points_and_p
    cycle = convex_hull(points).vertices
    assume(len(cycle) >= 3 and p > max(cycle))
    # the lexicographic maximum of a polygon is a vertex, so p is outside it
    assert not contains(convex_hull(cycle), p)
    site = FiniteSite.of(points + [p] + extra)
    index = {q: i for i, q in enumerate(site.points)}
    n, j = len(site.points), index[p]
    left = _line_masks(site.points)
    hull = tuple(index[v] for v in cycle)
    ring = hull[1:] + hull[:1]
    s, t = _seen_chain([left[w * n + v] for v, w in zip(hull, ring)], j)
    spliced = hull[: s + 1] + (j,) + hull[t:]
    expected = convex_hull(cycle + (p,))
    assert spliced[0] == hull[0]
    assert tuple(site.points[i] for i in spliced) == expected.vertices
    closed = (1 << n) - 1
    for v, w in zip(spliced, spliced[1:] + spliced[:1]):
        closed &= left[v * n + w]
    assert closed == site_mask(expected, site)


@pytest.mark.parametrize("dims", [(2, 2, 2), (3, 2, 2), (2, 2, 3)])
def test_solid_grid_matches_the_hull_per_step_path(dims):
    site = FiniteSite.grid(*dims)
    assert expand_orbits(site, enumerate_convex_subsets(site)) == closed_sets_by_hulls(site)


_CORNER = [(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0)]


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-1, 1)] * 3), min_size=4, max_size=11)
    | st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=4, max_size=11)
)
# (1, 1, 0) is a vertex until (2, 1, 0), in the plane of the base, puts it inside
@example([(0, 0, 0), (0, 2, 0), (1, 1, 0), (1, 1, 1), (2, 1, 0)])
@example([(0, 0, 0), (0, 1, 0), (1, 0, 0), (1, 1, 0), (2, 1, 1)])  # a pyramid over a square
@example(_CORNER + [(2, 0, 0)])  # on the line of an edge, past (1, 0, 0)
def test_solid_sites_match_the_hull_per_step_path(points):
    site = FiniteSite.of(points)
    assert expand_orbits(site, enumerate_convex_subsets(site)) == closed_sets_by_hulls(site)


def test_solid_site_in_z4_enumerates_as_its_projection():
    # 2x1x2x2 is 2x2x2 on the coordinates 0, 2 and 3, point for point
    site = FiniteSite.grid(2, 1, 2, 2)
    found = enumerate_convex_subsets(site)
    assert list(found.items()) == list(enumerate_convex_subsets(FiniteSite.grid(2, 2, 2)).items())
    assert expand_orbits(site, found) == closed_sets_by_hulls(site)


_SIMPLEX_4 = [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1)]
_SITE_4 = _SIMPLEX_4 + [(1, 1, 1, 1), (1, 1, 0, 0), (2, 1, 1, 0)]


def test_four_dimensional_site_matches_power_set_oracle():
    site = FiniteSite.of(_SITE_4)
    assert set(closed_tuples(site)) == brute_closed_subsets(site)


@settings(max_examples=40, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-1, 1)] * 4), min_size=5, max_size=9)
    | st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=5, max_size=9)
)
@example(_SITE_4)
@example(_SIMPLEX_4 + [(2, 0, 0, 0), (1, 1, 0, 0)])  # on an edge's line; a 2-face grows
@example(_SIMPLEX_4 + [(1, 1, 1, -1)])  # beyond one facet only
def test_four_dimensional_sites_match_the_hull_per_step_path(points):
    site = FiniteSite.of(points)
    assert expand_orbits(site, enumerate_convex_subsets(site)) == closed_sets_by_hulls(site)


_SIMPLEX_5 = [tuple(int(i == j) for j in range(5)) for i in range(-1, 5)]


@settings(max_examples=25, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(-1, 1)] * 5), min_size=6, max_size=8)
    | st.lists(st.tuples(*[st.integers(0, 2)] * 5), min_size=6, max_size=8)
)
@example(_SIMPLEX_5 + [(1, 1, 1, 1, 1), (1, 1, 0, 0, 0)])
@example(_SIMPLEX_5 + [(1, 1, 0, 0, -1), (2, 0, 0, 0, 0)])
def test_five_dimensional_sites_match_the_hull_per_step_path(points):
    site = FiniteSite.of(points)
    assert expand_orbits(site, enumerate_convex_subsets(site)) == closed_sets_by_hulls(site)


def test_six_dimensional_site_is_refused():
    # as convex_hull refuses it, which the witnesses of g need
    simplex = [tuple(int(i == j) for j in range(6)) for i in range(-1, 6)]
    with pytest.raises(UnsupportedDimensionError, match="affine dimension 5, got 6"):
        enumerate_convex_subsets(FiniteSite.of(simplex))


def test_site_beyond_the_base_scan_is_refused_with_a_lower_bound():
    # a 7-simplex in Z^7: the base scan stops at 7 points, with one left
    simplex = [tuple(int(i == j) for j in range(7)) for i in range(-1, 7)]
    with pytest.raises(UnsupportedDimensionError, match="affine dimension 5, got at least 6$"):
        enumerate_convex_subsets(FiniteSite.of(simplex))


@pytest.mark.parametrize(
    "points",
    [
        FiniteSite.grid(3, 2, 2).points,
        _SITE_4,
        FiniteSite.grid(2, 2, 1, 2).points,  # a 3-D site in Z^4
        _SIMPLEX_5 + [(1, 1, 1, 1, 1), (1, 1, 0, 0, 0)],
    ],
)
def test_each_solid_closed_set_is_reached_once(monkeypatch, points):
    # every step that _extend accepts yields a new closed set
    site = FiniteSite.of(points)
    accepted = []

    def counted(*args):
        step = _extend(*args)
        if step is not None:
            accepted.append(args[-1])
        return step

    monkeypatch.setattr(engine, "_extend", counted)
    found = enumerate_convex_subsets(site)
    # each set but a singleton comes from one accepted step, and the orbits
    # of the singletons kept hold every point
    assert sorted(accepted) == sorted(closed for closed in found if closed.bit_count() > 1)
    expanded = expand_orbits(site, found)
    assert sum(closed.bit_count() == 1 for closed in expanded) == len(site.points)


class CountingBudget:
    """A state budget that is never exceeded and counts the checks against
    it, one per closed set the collector keeps."""

    def __init__(self) -> None:
        self.checks = 0

    def __lt__(self, written: int) -> bool:
        self.checks += 1
        return False


@pytest.mark.parametrize(
    "points",
    [
        FiniteSite.grid(5, 4).points,
        [(x, 1) for x in range(6)],  # six points on a row
        FiniteSite.grid(2, 1, 2, 2).points,  # a 3-D site in Z^4
        FiniteSite.grid(3, 2, 2).points,
    ],
)
def test_collector_sees_each_closed_set_once(monkeypatch, points):
    # each kernel yields a closed set once, singletons included
    site = FiniteSite.of(points)
    budget = CountingBudget()
    monkeypatch.setattr(engine, "_STATE_BUDGET", budget)
    found = enumerate_convex_subsets(site)
    assert budget.checks == len(found)


def test_grid_2x2x2x2_has_every_subset_closed_and_each_its_own_vertex_set():
    site = FiniteSite.grid(2, 2, 2, 2)
    found = expand_orbits(site, enumerate_convex_subsets(site))
    assert len(found) == 2**16 - 1
    assert all(closed == vertices for closed, vertices in found.items())


@pytest.mark.parametrize(
    "site",
    [
        FiniteSite.of([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1), (1, 1)]),
        FiniteSite.of(FiniteSite.grid(3, 3).points[1:]),  # a box less a corner
        FiniteSite.of(_SITE_4),
        FiniteSite.of([(0, 0, 0), (1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, 1)]),
    ],
)
def test_a_site_that_is_no_box_enumerates_every_closed_set(site):
    assert enumerate_convex_subsets(site) == closed_sets_by_hulls(site)


@pytest.mark.parametrize(
    "dims, group",
    [((6, 4), 4), ((5, 5), 8), ((6, 1), 2), ((3, 2, 2), 16), ((2, 2, 2), 48), ((2, 2, 2, 2), 384)],
)
def test_orbit_sizes_are_the_orbits_under_signed_permutations(dims, group):
    # the kernels read a full-dimensional box on its own coordinates
    site = FiniteSite.grid(*dims)
    kernel = engine._planar_closed_sets if len(dims) == 2 else engine._closed_sets
    reps = list(kernel(site.points if len(dims) == 2 else site))
    perms = signed_permutation_group(site)
    assert len({tuple(p) for p in perms}) == len(perms) == group
    for closed, _, size in reps:
        orbit = {mask_image(perm, closed) for perm in perms}
        assert size == len(orbit) and closed == min(orbit, key=site.points_of)
    expanded = expand_orbits(site, enumerate_convex_subsets(site))
    assert sum(size for *_, size in reps) == len(expanded)


def test_state_budget_counts_every_member_of_each_orbit(monkeypatch):
    # 5x4 has 9,101 closed sets in 2,349 orbits
    site = FiniteSite.grid(5, 4)
    monkeypatch.setattr(engine, "_STATE_BUDGET", 9100)
    with pytest.raises(BudgetExceededError, match="^more than 9100 closed subsets; use a"):
        enumerate_convex_subsets(site)
    monkeypatch.setattr(engine, "_STATE_BUDGET", 9101)
    assert len(expand_orbits(site, enumerate_convex_subsets(site))) == 9101


@pytest.mark.parametrize(
    "points",
    [
        FiniteSite.grid(3, 2, 2).points,
        FiniteSite.grid(2, 2, 1, 2).points,  # a 3-D site in Z^4
        _SITE_4,
        _SIMPLEX_5 + [(1, 1, 1, 1, 1), (1, 1, 0, 0, 0)],
    ],
)
def test_sites_of_affine_dimension_3_to_5_enumerate_without_hulls(monkeypatch, points):
    site = FiniteSite.of(points)
    expected = list(enumerate_convex_subsets(site).items())
    monkeypatch.setattr(engine, "convex_hull", None)
    monkeypatch.setattr(engine, "site_mask", None)
    assert list(enumerate_convex_subsets(site).items()) == expected


def carried_facets(site: FiniteSite, poly) -> list:
    """The facets of a hull as the enumeration carries them, relative to
    its affine hull: (normal, offset, vertex mask, halfspace mask)."""
    index = {p: i for i, p in enumerate(site.points)}
    out = []
    for normal, offset in poly.facets:
        vmask = 0
        for v in poly.vertices:
            if sum(a * x for a, x in zip(normal, v)) == offset:
                vmask |= 1 << index[v]
        out.append((normal, offset, vmask, halfspace_mask(site.points, normal, offset)))
    return sorted(out)


def one_step(site: FiniteSite, poly, p) -> tuple:
    """_extend from the carried data of a hull of site points, by point p:
    the equalities, facets and vertex mask of the hull plus p.

    The hull's closed set C is the site in it.  _extend refuses the
    enumeration's target C + p exactly when the hull of C + p holds a
    site point outside C + p, and it accepts the site in that hull."""
    index = {q: i for i, q in enumerate(site.points)}
    vmask = 0
    for v in poly.vertices:
        vmask |= 1 << index[v]
    facets = carried_facets(site, poly)
    j = index[p]
    closed = site_mask(convex_hull(poly.vertices + (p,)), site)
    child = site_mask(poly, site) | 1 << j
    mask_of = _halfspace_memo(site.points)
    refused = _extend(site, mask_of, poly.equalities, facets, vmask, j, child) is None
    assert refused == (closed != child)
    step = _extend(site, mask_of, poly.equalities, facets, vmask, j, closed)
    assert step is not None
    assert site.points_of(step[2]) == tuple(sorted(convex_hull(poly.vertices + (p,)).vertices))
    return step


_TETRA = [(0, 0, 0), (0, 2, 0), (1, 1, 0), (1, 1, 1)]
_CUBE_4 = list(itertools.product((0, 1), repeat=4))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(0, 3)] * 3), min_size=4, max_size=10),
    st.tuples(*[st.integers(-2, 5)] * 3),
    st.lists(st.tuples(*[st.integers(-2, 5)] * 3), max_size=6),
)
@example(_TETRA, (2, 1, 0), [])  # in the plane of a facet, turns (1, 1, 0) into a nonvertex
@example(_TETRA, (1, 1, -1), [(1, 1, 2)])  # on the line of the edge below (1, 1, 1)
@example(_CORNER, (2, 0, 0), [(3, 0, 0)])  # on the line of an edge, past (1, 0, 0)
@example(_CORNER, (1, 1, 1), [(0, 1, 1)])  # sees one facet only
@example(_CORNER, (-1, -1, -1), [])  # sees every facet but one
def test_beneath_beyond_is_the_hull_of_facets_plus_point(points, p, extra):
    poly = convex_hull(points)
    assume(poly.affine_dim == 3 and not contains(poly, p))
    site = FiniteSite.of(points + [p] + extra)
    eqs, facets, _ = one_step(site, poly, p)
    expected = convex_hull(poly.vertices + (p,))
    assert eqs == ()
    assert sorted(facets) == carried_facets(site, expected)


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 3), st.integers(0, 3)), min_size=3, max_size=8),
    st.tuples(st.integers(-1, 1), st.integers(-1, 1)),
    st.tuples(*[st.integers(-2, 5)] * 3),
    st.lists(st.tuples(*[st.integers(-2, 5)] * 3), max_size=6),
)
@example([(0, 0), (0, 1), (1, 0), (1, 1)], (0, 0), (2, 1, 2), [])  # over a square
def test_pyramid_is_the_hull_of_polygon_plus_apex(coords, slope, p, extra):
    # the polygon lies in the plane z = u x + v y + 1
    u, v = slope
    points = [(a, b, u * a + v * b + 1) for a, b in coords]
    poly = convex_hull(points)
    assume(poly.affine_dim == 2 and not contains(poly, p))
    (base,) = poly.equalities
    assume(sum(a * x for a, x in zip(base[0], p)) != base[1])
    site = FiniteSite.of(points + [p] + extra)
    eqs, facets, _ = one_step(site, poly, p)
    expected = convex_hull(poly.vertices + (p,))
    assert eqs == ()
    assert sorted(facets) == carried_facets(site, expected)


def check_one_step(points: list, p: tuple, extra: list) -> None:
    """One _extend step from the hull of points by p, against convex_hull:
    the closed set, the vertex mask, equalities that hold on the new hull,
    one fewer per dimension gained, and, for a full-dimensional hull, the
    facets themselves."""
    poly = convex_hull(points)
    assume(not contains(poly, p))
    site = FiniteSite.of(points + [p] + extra)
    eqs, facets, _ = one_step(site, poly, p)
    expected = convex_hull(poly.vertices + (p,))
    vmask = 0
    for f in facets:
        vmask |= f[2]
    assert site.points_of(vmask) == expected.vertices
    assert len(eqs) == site.dim - expected.affine_dim
    for normal, offset in eqs:
        assert all(sum(a * x for a, x in zip(normal, v)) == offset for v in expected.vertices)
    if expected.is_full_dimensional:
        assert sorted(facets) == carried_facets(site, expected)


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(0, 2)] * 4), min_size=1, max_size=8),
    st.tuples(*[st.integers(-1, 3)] * 4),
    st.lists(st.tuples(*[st.integers(-1, 3)] * 4), max_size=4),
)
@example([(0, 0, 0, 0)], (1, 2, 0, 0), [(2, 4, 0, 0)])  # a point, then a segment
@example([(0, 0, 0, 0), (2, 0, 0, 0)], (3, 0, 0, 0), [(1, 0, 0, 0)])  # along the line
@example([(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0)], (2, 2, 0, 0), [(1, 1, 0, 0)])
@example(_SIMPLEX_4, (1, 1, 1, 1), [])
@example(_SIMPLEX_4, (2, 0, 0, 0), [])  # on the line of an edge
# in the hyperplanes of the facets x3, x4 >= 0; each old vertex is on the
# facet x1 >= 0 or x2 >= 0 too, beneath p, and stays
@example(_SIMPLEX_4, (1, 1, 0, 0), [])
# in the hyperplanes of x2, x3, x4 >= 0: (1, 1, 0, 0) is on x2 <= 1 too,
# beneath p, and stays; (1, 0, 0, 0) is on them and on x1 <= 1 only, which
# sees p, and goes
@example(_CUBE_4, (2, 0, 0, 0), [])
def test_extend_is_the_hull_of_a_closed_set_in_z4_plus_point(points, p, extra):
    # every affine dimension of a closed set in Z^4, from a point up
    check_one_step(points, p, extra)


_CUBE_5 = list(itertools.product((0, 1), repeat=5))


@settings(max_examples=150, deadline=None)
@given(
    st.lists(st.sampled_from(_CUBE_5), min_size=6, max_size=16, unique=True),
    st.tuples(*[st.integers(-1, 2)] * 5),
)
# a seen and a beneath facet share a square 2-face of this 0/1 polytope,
# four vertices, which is no ridge: a third facet holds it too
@example(
    [
        (0, 0, 0, 0, 0), (0, 0, 0, 1, 1), (0, 0, 1, 1, 1), (0, 1, 0, 0, 0),
        (0, 1, 1, 1, 0), (1, 0, 0, 1, 0), (1, 0, 0, 1, 1), (1, 0, 1, 1, 0),
        (1, 0, 1, 1, 1), (1, 1, 0, 0, 0), (1, 1, 0, 1, 1), (1, 1, 1, 0, 1),
    ],
    (1, -1, -1, -1, -1),
)
def test_extend_is_the_hull_of_a_01_polytope_in_z5_plus_point(points, p):
    check_one_step(points, p, [])


def test_state_budget_guard(monkeypatch):
    # 3x3 has 9 singletons and 2x2x2 has 8, with many more closed sets than 10
    monkeypatch.setattr(engine, "_STATE_BUDGET", 10)
    for site in (FiniteSite.grid(3, 3), FiniteSite.grid(2, 2, 2)):
        with pytest.raises(BudgetExceededError, match="^more than 10 closed subsets; use a"):
            enumerate_convex_subsets(site)
        with pytest.raises(BudgetExceededError):
            g_profile(site)


def test_grid_3x3_profile():
    prof = g_profile(FiniteSite.grid(3, 3), 5)
    assert prof.g == (4, 6, 5, 5, None, 4)
    assert prof.c == (4, 6, 5, 5, 4, 4)
    # the 6-vertex witness at k=1 is the hexagon class
    assert len(prof.witnesses[1]) == 6
    assert prof.witnesses[4] is None


def test_grid_2x2_profile():
    prof = g_profile(FiniteSite.grid(2, 2))
    assert prof.g == (4, None, None, None, None)
    assert prof.c == (4, 3, 2, 1, 0)


def test_cube_profile():
    site = FiniteSite.of(itertools.product((0, 1), repeat=3))
    prof = g_profile(site)
    assert prof.g[0] == 8
    assert all(prof.g[k] is None for k in range(1, 9))
    assert prof.c == tuple(8 - k for k in range(9))


def test_grid_3x2x2_profile_regression():
    # frozen from the enumeration before closed sets became bitmasks
    prof = g_profile(FiniteSite.grid(3, 2, 2))
    assert prof.g == (8, 8, 8, 8, 8) + (None,) * 8
    assert prof.c == (8, 8, 8, 8, 8, 7, 6, 5, 4, 3, 2, 1, 0)
    low = ((0, 0, 0), (0, 0, 1), (0, 1, 0), (0, 1, 1))
    assert prof.witnesses == (
        low + ((1, 0, 0), (1, 0, 1), (1, 1, 0), (1, 1, 1)),
        low + ((1, 0, 1), (1, 1, 0), (1, 1, 1), (2, 0, 0)),
        low + ((1, 1, 0), (1, 1, 1), (2, 0, 0), (2, 0, 1)),
        low + ((1, 1, 1), (2, 0, 0), (2, 0, 1), (2, 1, 0)),
        low + ((2, 0, 0), (2, 0, 1), (2, 1, 0), (2, 1, 1)),
    ) + (None,) * 8


def test_grid_3x3x2_profile_matches_the_direct_route():
    # the golden grid/3x3x2_k18.csv; g and c as first computed by a new
    # hull per extension
    site = FiniteSite.grid(3, 3, 2)
    prof = g_profile(site, 18)
    assert prof.g == (8, 10, 12, 11, 11, 10, 10, 9, 9, None, 8) + (None,) * 8
    assert prof.c == (8, 10, 12, 11, 11, 10, 10, 9, 9, 8, 8, 7, 6, 5, 4, 3, 2, 1, 0)
    assert c_direct(site, 18) == prof.c


def test_grid_5x4_profile_regression():
    # frozen from the enumeration that hulled every (closed set, point) pair
    prof = g_profile(FiniteSite.grid(5, 4), 20)
    assert prof.g == (4, 6, 6, 6, 8, 7, 8, 8, 8, 7, 7, 6, 6, 5, 5, None, 4) + (None,) * 4
    assert prof.c == (4, 6, 6, 6, 8, 7, 8, 8, 8, 7, 7, 6, 6, 5, 5, 4, 4, 3, 2, 1, 0)
    assert prof.witnesses == (
        ((0, 0), (1, 0), (1, 1), (0, 1)),
        ((0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)),
        ((0, 0), (1, 0), (2, 1), (2, 2), (1, 3), (0, 1)),
        ((0, 0), (1, 0), (2, 1), (2, 2), (1, 3), (0, 2)),
        ((0, 0), (1, 0), (3, 1), (4, 2), (4, 3), (3, 3), (1, 2), (0, 1)),
        ((0, 0), (1, 0), (3, 1), (3, 2), (2, 3), (1, 3), (0, 2)),
        ((0, 1), (1, 0), (2, 0), (4, 1), (4, 2), (2, 3), (1, 3), (0, 2)),
        ((0, 1), (1, 0), (3, 0), (4, 1), (4, 2), (2, 3), (1, 3), (0, 2)),
        ((0, 1), (1, 0), (3, 0), (4, 1), (4, 2), (3, 3), (1, 3), (0, 2)),
        ((0, 0), (3, 0), (4, 1), (4, 2), (2, 3), (1, 3), (0, 2)),
        ((0, 0), (3, 0), (4, 1), (4, 2), (3, 3), (1, 3), (0, 2)),
        ((0, 0), (3, 0), (4, 1), (4, 2), (2, 3), (0, 3)),
        ((0, 0), (3, 0), (4, 1), (4, 2), (3, 3), (0, 3)),
        ((0, 0), (4, 0), (4, 1), (3, 3), (0, 3)),
        ((0, 0), (4, 0), (4, 2), (3, 3), (0, 3)),
        None,
        ((0, 0), (4, 0), (4, 3), (0, 3)),
    ) + (None,) * 4


@pytest.mark.parametrize(
    "site",
    [
        FiniteSite.grid(3, 3),
        FiniteSite.grid(2, 2, 2),
        FiniteSite.of([(0, 0), (3, 0), (1, 1), (2, 1), (0, 2), (3, 2), (1, 3)]),
        FiniteSite.of([(0, 0, 0), (2, 0, 0), (0, 2, 0), (1, 1, 0), (0, 0, 2), (1, 1, 1)]),
    ],
)
def test_witness_is_least_closed_set_attaining_g(site):
    # oracle: the power-set closed sets in (size, point tuple) order; the
    # witness of g[k] is the first one with k nonvertex points and the
    # largest vertex count
    prof = g_profile(site)
    first: dict = {}
    for sub in sorted(brute_closed_subsets(site), key=lambda s: (len(s), s)):
        vertices = convex_hull(sub).vertices
        k = len(sub) - len(vertices)
        if k not in first or len(vertices) > len(first[k]):
            first[k] = vertices
    for k in range(prof.k_max + 1):
        if k in first:
            assert prof.g[k] == len(first[k])
            assert prof.witnesses[k] == first[k]
        else:
            assert prof.g[k] is None and prof.witnesses[k] is None


@settings(max_examples=60, deadline=None)
@given(
    st.lists(st.tuples(*[st.integers(0, 3)] * 2), min_size=3, max_size=14)
    | st.lists(st.tuples(*[st.integers(-1, 1)] * 3), min_size=4, max_size=11)
    | st.lists(st.tuples(*[st.integers(0, 2)] * 3), min_size=4, max_size=11)
    | st.lists(st.tuples(*[st.integers(-1, 1)] * 4), min_size=5, max_size=9)
)
# the enumeration reaches ((2, 0), (2, 1)) before ((0, 0), (0, 1))
@example(FiniteSite.grid(3, 2).points)
def test_fold_picks_the_first_witness_in_size_and_point_order(points):
    # oracle: the hull-per-step closed sets sorted by (size, point tuple);
    # the witness of g[k] is the first one with the largest vertex count
    site = FiniteSite.of(points)
    items = sorted(
        closed_sets_by_hulls(site).items(),
        key=lambda item: (item[0].bit_count(), site.points_of(item[0])),
    )
    first: dict = {}
    for closed, verts in items:
        k = closed.bit_count() - verts.bit_count()
        if k not in first or verts.bit_count() > first[k].bit_count():
            first[k] = verts
    prof = g_profile(site)
    for k in range(prof.k_max + 1):
        if k in first:
            assert prof.g[k] == first[k].bit_count()
            assert tuple(sorted(prof.witnesses[k])) == site.points_of(first[k])
        else:
            assert prof.g[k] is None and prof.witnesses[k] is None


@pytest.mark.parametrize("dims", [(3, 3), (5, 4), (3, 2, 2)])
def test_profile_ignores_the_order_of_the_closed_sets(monkeypatch, dims):
    # the fold's tie rule, not the order of the mapping, picks each witness
    site = FiniteSite.grid(*dims)
    expected = g_profile(site)
    items = list(enumerate_convex_subsets(site).items())
    shuffled = items[:]
    random.Random(len(items)).shuffle(shuffled)
    for order in (items[::-1], shuffled):
        monkeypatch.setattr(engine, "enumerate_convex_subsets", lambda _, order=order: dict(order))
        assert g_profile(site) == expected


def test_grid_4x3_profile_regression():
    prof = g_profile(FiniteSite.grid(4, 3))
    assert prof.g == (4, 6, 6, 6, 6, 5, 5, None, 4, None, None, None, None)
    assert prof.c == (4, 6, 6, 6, 6, 5, 5, 4, 4, 3, 2, 1, 0)


@pytest.mark.parametrize(
    "site",
    [
        FiniteSite.grid(2, 2),
        FiniteSite.grid(3, 3),
        FiniteSite.grid(4, 3),
        FiniteSite.of(itertools.product((0, 1), repeat=3)),
    ],
)
def test_two_routes_agree_everywhere(site):
    prof = g_profile(site)
    assert c_direct(site) == prof.c
    assert unrolled_c(prof.g, len(site.points), prof.k_max) == prof.c


def test_sandwich_invariant():
    # g[k] <= c[k] <= max(g[0..k]) wherever the sides are finite
    for site in (FiniteSite.grid(3, 3), FiniteSite.grid(4, 3)):
        prof = g_profile(site)
        for k in range(prof.k_max + 1):
            if prof.g[k] is not None:
                assert prof.g[k] <= prof.c[k]
            if prof.c[k] is not None:
                assert prof.c[k] <= ext_max(prof.g[: k + 1])
        assert consistency_findings(prof) == []


def test_c_is_neg_inf_exactly_beyond_site_size():
    site = FiniteSite.grid(2, 2)
    prof = g_profile(site, 7)
    for k in range(8):
        assert (prof.c[k] is not None) == (k <= 4)


def test_c_from_g_handles_neg_inf_runs():
    g = (4, None, 5, None)
    assert c_from_g(g, 10) == (4, 3, 5, 4)


def test_audit_bounds_grid():
    prof = g_profile(FiniteSite.grid(3, 3), 5)
    report = audit_bounds(2, prof.c)
    assert report.all_satisfied
    assert report.h == 4
    # the paired_step bound is tight at k = 1: floor(2/2)*(4-2)+4 = 6
    tight = [ch for ch in report.checks if ch.name == "paired_step" and ch.k == 1]
    assert tight and tight[0].equality


def test_audit_bounds_lattice_mode_values():
    # known planar lattice values: the two_thirds bound is met with
    # equality at k = 0, 1, 2 and is strict afterwards
    c_vals = (4, 6, 6, 6, 8)
    report = audit_bounds(2, c_vals)
    assert report.all_satisfied
    for ch in report.checks:
        if ch.name == "two_thirds":
            assert ch.equality == (ch.k in (0, 1, 2))


def test_profiles_of_random_subsites_stay_consistent():
    rng = random.Random(20260815)
    base = FiniteSite.grid(3, 3).points
    for _ in range(8):
        pts = rng.sample(base, rng.randint(3, 7))
        site = FiniteSite.of(pts)
        prof = g_profile(site)
        assert c_direct(site) == prof.c
        assert consistency_findings(prof) == []
