"""Lattice core: hulls, censuses, closures, canonical forms.

Expected values were fixed by hand computation or by the independent
brute-force oracles defined at the top of this file (Caratheodory
membership, supporting-hyperplane vertex detection) before being frozen.
Point counts are also checked against the box scan of scan_oracles.py.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qhelly.errors import DegenerateInputError, SiteMembershipError, UnsupportedDimensionError
from qhelly.lattice import (
    FiniteSite,
    Z_LATTICE,
    _facets_from_cycle_2d,
    _splice_cycle_2d,
    canonical_form_2d,
    census,
    closure,
    convex_hull,
    integer_kernel_basis,
    lattice_points_in,
    primitive,
    rational_rank,
    saturated_direction_basis,
    solve_rational,
)
from scan_oracles import box_census, box_points


# --- independent oracles ----------------------------------------------------


def caratheodory_member(p, points, dim):
    """p in conv(points), by exhausting affinely independent subsets.

    Affine independence makes the barycentric solution unique, so a
    negative weight really means "outside this simplex".
    """
    p = tuple(p)
    pts = [q for q in points if tuple(q) != p]
    for k in range(1, dim + 2):
        for sub in itertools.combinations(pts, k):
            if k > 1:
                diffs = [tuple(a - b for a, b in zip(q, sub[0])) for q in sub[1:]]
                if rational_rank(diffs) != k - 1:
                    continue
            rows = [[Fraction(sub[j][i]) for j in range(k)] for i in range(dim)]
            rows.append([Fraction(1)] * k)
            rhs = [Fraction(x) for x in p] + [Fraction(1)]
            sol = solve_rational(rows, rhs)
            if sol is not None and all(weight >= 0 for weight in sol):
                return True
    return False


def brute_vertices(points, dim):
    """Vertex set via Caratheodory: p is a vertex iff p not in conv(rest)."""
    return {p for p in points if not caratheodory_member(p, points, dim)}


def leibniz_det(m):
    """Determinant by the permutation expansion."""
    total = 0
    for perm in itertools.permutations(range(len(m))):
        inversions = sum(1 for i, j in itertools.combinations(perm, 2) if i > j)
        term = -1 if inversions % 2 else 1
        for row, col in enumerate(perm):
            term *= m[row][col]
        total += term
    return total


def brute_rank(rows):
    """Largest r such that some r x r minor is nonzero."""
    if not rows:
        return 0
    ncols = len(rows[0])
    for r in range(min(len(rows), ncols), 0, -1):
        for rs in itertools.combinations(range(len(rows)), r):
            for cs in itertools.combinations(range(ncols), r):
                if leibniz_det([[rows[i][j] for j in cs] for i in rs]):
                    return r
    return 0


def brute_facets(points, dim):
    """Facets as supporting hyperplanes through d affinely independent points.

    The normal of the hyperplane through a d-subset is the generalized
    cross product of its difference vectors; a supporting one meets the
    hull in dimension d - 1, hence in a facet, and every facet arises so.
    """
    out = set()
    for sub in itertools.combinations(points, dim):
        diffs = [tuple(a - b for a, b in zip(q, sub[0])) for q in sub[1:]]
        normal = [
            (-1) ** i * leibniz_det([row[:i] + row[i + 1:] for row in diffs])
            for i in range(dim)
        ]
        if not any(normal):
            continue
        normal = primitive(normal)
        offset = sum(a * b for a, b in zip(normal, sub[0]))
        values = [sum(a * b for a, b in zip(normal, p)) for p in points]
        if all(v <= offset for v in values):
            out.add((normal, offset))
        elif all(v >= offset for v in values):
            out.add((tuple(-x for x in normal), -offset))
    return out


# --- linear algebra helpers -------------------------------------------------


def test_primitive_and_rank():
    assert primitive((4, -6)) == (2, -3)
    assert primitive((0, 0, 5)) == (0, 0, 1)
    assert rational_rank([(1, 2), (2, 4)]) == 1
    assert rational_rank([(1, 0, 0), (0, 1, 0), (1, 1, 0)]) == 2


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda ncols: st.lists(
            st.lists(st.integers(-3, 3), min_size=ncols, max_size=ncols),
            min_size=1,
            max_size=5,
        )
    )
)
def test_rational_rank_is_largest_nonzero_minor(rows):
    assert rational_rank(rows) == brute_rank(rows)


def test_integer_kernel_is_saturated():
    # kernel of (2, 4) over Z is generated by (2, -1), not (4, -2)
    basis = integer_kernel_basis([(2, 4)], 2)
    assert len(basis) == 1
    assert primitive(basis[0]) == basis[0]
    x, y = basis[0]
    assert 2 * x + 4 * y == 0


def test_saturated_direction_basis():
    # points on the even sublattice of a line: saturation must still give
    # integer coordinates for every lattice point of the affine hull
    basis = saturated_direction_basis([(0, 0), (2, 2), (4, 4)])
    assert len(basis) == 1
    assert basis[0] in ((1, 1), (-1, -1))


# --- 2D hulls and censuses --------------------------------------------------


def test_square_hull_and_census():
    P = convex_hull([(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)])
    assert P.vertices == ((0, 0), (2, 0), (2, 2), (0, 2))
    assert P.facet_count() == 4
    assert census(P, Z_LATTICE).as_tuple() == (9, 4, 5, 1, 4)


def test_triangle_census():
    P = convex_hull([(0, 0), (2, 0), (0, 2)])
    assert census(P, Z_LATTICE).as_tuple() == (6, 3, 3, 0, 3)


def test_segment_census_is_ambient():
    P = convex_hull([(0, 0), (3, 0)])
    assert P.affine_dim == 1
    # ambient interior of a segment in the plane is empty
    assert census(P, Z_LATTICE).as_tuple() == (4, 2, 2, 0, 2)
    # relative interior holds the two middle points
    assert census(P, Z_LATTICE, relative=True).as_tuple() == (4, 2, 2, 2, 0)


def test_hexagon_census():
    P = convex_hull([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])
    assert len(P.vertices) == 6
    assert census(P, Z_LATTICE).as_tuple() == (7, 6, 1, 1, 0)


def test_collinear_points_are_not_vertices():
    P = convex_hull([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2), (1, 2)])
    assert P.vertices == ((0, 0), (2, 0), (2, 2), (0, 2))


_KITE = ((0, 0), (6, 0), (4, 1), (2, 1))


@settings(max_examples=300, deadline=None)
@given(
    st.lists(st.tuples(st.integers(0, 6), st.integers(0, 6)), min_size=3, max_size=12),
    st.tuples(st.integers(-3, 9), st.integers(-3, 9)),
)
@example([(0, 0), (2, 0), (2, 2), (0, 2)], (3, 0))  # on an edge's line, past its end
@example([(0, 0), (2, 0), (2, 2), (0, 2)], (-1, 0))  # on an edge's line, before its start
@example([(0, 0), (4, 0), (3, 1), (1, 1)], (2, 2))  # on the lines of two edges
@example([(0, 0), (2, 0), (2, 2), (0, 2)], (1, -1))  # sees one edge
@example(list(_KITE), (3, 3))  # sees every edge but (0, 0) -> (6, 0)
@example(list(_KITE), (-2, 4))  # sees every edge but one, and becomes the lex-min vertex
def test_splice_is_the_hull_of_cycle_plus_point(points, p):
    cycle = convex_hull(points).vertices
    assume(len(cycle) >= 3 and not convex_hull(cycle).contains(p))
    hull = convex_hull(cycle + (p,))
    spliced = _splice_cycle_2d(cycle, p)
    assert spliced == hull.vertices
    assert _facets_from_cycle_2d(spliced) == hull.facets


# --- higher dimensions ------------------------------------------------------


def test_cube_hull_3d():
    P = convex_hull(itertools.product((0, 1), repeat=3))
    assert len(P.vertices) == 8
    assert P.facet_count() == 6
    assert census(P, Z_LATTICE).as_tuple() == (8, 8, 0, 0, 0)


def test_octahedron_hull():
    P = convex_hull(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    assert len(P.vertices) == 6
    assert P.facet_count() == 8
    assert census(P, Z_LATTICE).as_tuple() == (7, 6, 1, 1, 0)


@pytest.mark.parametrize("n,verts,facets", [(2, 6, 6), (3, 14, 12), (4, 30, 20), (5, 62, 30)])
def test_fused_cubes_counts(n, verts, facets):
    pts = sorted(
        set(itertools.product((-1, 0), repeat=n)) | set(itertools.product((0, 1), repeat=n))
    )
    P = convex_hull(pts)
    assert len(P.vertices) == verts
    assert P.facet_count() == facets
    cen = census(P, Z_LATTICE)
    assert (cen.vertex, cen.nonvertex, cen.interior) == (verts, 1, 1)


def test_dd_hull_matches_brute_vertices():
    rng = random.Random(20260815)
    for trial in range(25):
        dim = rng.choice((3, 4))
        pts = sorted(
            {
                tuple(rng.randint(-3, 3) for _ in range(dim))
                for _ in range(rng.randint(dim + 2, dim + 7))
            }
        )
        if rational_rank([tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]) < dim:
            continue
        P = convex_hull(pts)
        assert set(P.vertices) == brute_vertices(pts, dim)
        assert set(P.facets) == brute_facets(pts, dim)
        for p in pts:
            assert P.contains(p)


def test_dd_hull_matches_brute_vertices_in_5d():
    rng = random.Random(20261018)
    checked = 0
    while checked < 6:
        pts = sorted(
            {tuple(rng.randint(-2, 2) for _ in range(5)) for _ in range(rng.randint(7, 9))}
        )
        if rational_rank([tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]) < 5:
            continue
        P = convex_hull(pts)
        assert set(P.vertices) == brute_vertices(pts, 5)
        assert set(P.facets) == brute_facets(pts, 5)
        checked += 1


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_full_dimensional_hull_matches_the_basis_route(n):
    # the same points on the lattice hyperplane x_{n+1} = 0 of Z^{n+1} are
    # hulled in the coordinates of a saturated basis and lifted back
    rng = random.Random(20261018 + n)
    checked = 0
    while checked < 5:
        pts = sorted(
            {tuple(rng.randint(-2, 2) for _ in range(n)) for _ in range(rng.randint(n + 1, n + 4))}
        )
        if len(saturated_direction_basis(pts)) < n:
            continue
        P = convex_hull(pts)
        flat = convex_hull([p + (0,) for p in pts])
        assert (P.ambient_dim, P.affine_dim, flat.affine_dim) == (n, n, n)
        assert sorted(P.vertices) == [v[:-1] for v in flat.vertices]
        assert all(normal[-1] == 0 for normal, _ in flat.facets)
        assert P.facets == tuple(sorted((normal[:-1], c) for normal, c in flat.facets))
        assert P.equalities == ()
        checked += 1


def test_hull_dimension_limit():
    simplex = [tuple(0 for _ in range(6))] + [
        tuple(1 if i == j else 0 for i in range(6)) for j in range(6)
    ]
    with pytest.raises(UnsupportedDimensionError):
        convex_hull(simplex)


def test_degenerate_hull_in_ambient_3d():
    P = convex_hull([(0, 0, 0), (2, 0, 2), (0, 2, 2), (1, 1, 2)])
    assert P.affine_dim == 2
    assert set(P.vertices) == {(0, 0, 0), (2, 0, 2), (0, 2, 2)}
    assert census(P, Z_LATTICE).as_tuple() == (6, 3, 3, 0, 3)
    # scaled copy gains a relative-interior point
    Q = convex_hull([(0, 0, 0), (3, 0, 3), (0, 3, 3)])
    assert census(Q, Z_LATTICE, relative=True).interior == 1


# --- point enumeration and closure ------------------------------------------


def test_lattice_points_sorted_and_exact():
    P = convex_hull([(0, 0), (3, 0), (0, 3)])
    pts = lattice_points_in(P, Z_LATTICE)
    assert pts == tuple(sorted(pts))
    assert len(pts) == 10


def _assert_matches_box_scan(P):
    assert lattice_points_in(P, Z_LATTICE) == tuple(box_points(P)[0])
    for relative in (False, True):
        assert census(P, Z_LATTICE, relative=relative).as_tuple() == box_census(
            P, relative=relative
        )


def test_row_intervals_agree_with_box_scan():
    _assert_matches_box_scan(convex_hull([(0, 0), (17, 3), (5, 19), (-4, 7)]))


@settings(max_examples=80, deadline=None)
@given(
    st.integers(1, 4).flatmap(
        lambda d: st.lists(
            st.tuples(*[st.integers(-4 if d < 4 else -2, 4 if d < 4 else 2)] * d),
            min_size=d + 1,
            max_size=d + 5,
        )
    )
)
def test_full_dimensional_counts_match_box_scan(points):
    P = convex_hull(points)
    assume(P.is_full_dimensional)
    _assert_matches_box_scan(P)


@settings(max_examples=60, deadline=None)
@given(
    st.tuples(*[st.integers(-4, 4)] * 3),
    st.lists(st.tuples(*[st.integers(-2, 2)] * 3), min_size=1, max_size=2),
    st.lists(st.tuples(st.integers(-2, 2), st.integers(-2, 2)), min_size=2, max_size=6),
)
def test_lattice_planes_and_lines_in_z3_match_box_scan(base, directions, weights):
    # integer combinations of one or two directions: a line or a plane
    points = [
        tuple(b + sum(w * d[i] for w, d in zip(ws, directions)) for i, b in enumerate(base))
        for ws in weights
    ]
    P = convex_hull(points)
    assume(1 <= P.affine_dim < 3)
    _assert_matches_box_scan(P)


def test_closure_on_finite_site():
    site = FiniteSite.grid(3, 3)
    assert closure([(0, 0), (2, 2)], site) == ((0, 0), (1, 1), (2, 2))
    assert closure([(0, 0), (2, 0), (0, 2)], site) == (
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
    )
    with pytest.raises(SiteMembershipError):
        closure([(0, 0), (5, 5)], site)


def test_closure_against_power_set_definition():
    # closure really is hull-then-intersect: cross-check via Caratheodory
    site = FiniteSite.grid(3, 3)
    rng = random.Random(99)
    for _ in range(30):
        sub = rng.sample(site.points, rng.randint(1, 5))
        cl = set(closure(sub, site))
        want = {p for p in site.points if caratheodory_member(p, sub, 2) or p in sub}
        assert cl == want


# --- canonical form ----------------------------------------------------------


def unimodular_images(pts, rng, count):
    for _ in range(count):
        m = [[1, 0], [0, 1]]
        for _ in range(rng.randint(1, 6)):
            r = rng.random()
            if r < 0.4:
                q = rng.randint(-3, 3)
                m = [[m[0][0], m[0][0] * q + m[0][1]], [m[1][0], m[1][0] * q + m[1][1]]]
            elif r < 0.8:
                q = rng.randint(-3, 3)
                m = [[m[0][0] + q * m[0][1], m[0][1]], [m[1][0] + q * m[1][1], m[1][1]]]
            elif r < 0.9:
                m = [[m[0][1], m[0][0]], [m[1][1], m[1][0]]]
            else:
                m = [[m[0][0], -m[0][1]], [m[1][0], -m[1][1]]]
        t = (rng.randint(-7, 7), rng.randint(-7, 7))
        yield [
            (m[0][0] * x + m[0][1] * y + t[0], m[1][0] * x + m[1][1] * y + t[1])
            for x, y in pts
        ]


def test_canonical_form_invariance_sample():
    rng = random.Random(4)
    hexagon = [(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)]
    base = canonical_form_2d(convex_hull(hexagon))
    for img in unimodular_images(hexagon, rng, 60):
        assert canonical_form_2d(convex_hull(img)) == base


def test_canonical_form_separates():
    a = canonical_form_2d(convex_hull([(0, 0), (1, 0), (0, 1)]))
    b = canonical_form_2d(convex_hull([(0, 0), (2, 0), (0, 2)]))
    c = canonical_form_2d(convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)]))
    assert len({a, b, c}) == 3


def test_canonical_form_needs_full_dimension():
    with pytest.raises(DegenerateInputError):
        canonical_form_2d(convex_hull([(0, 0), (4, 0)]))


def test_canonical_form_is_a_fixed_point():
    P = convex_hull([(0, 0), (4, 1), (3, 3), (1, 2)])
    cf = canonical_form_2d(P)
    assert canonical_form_2d(convex_hull(cf)) == cf
