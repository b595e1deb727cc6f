"""Lattice core: hulls, censuses, site masks, canonical forms.

Expected values were fixed by hand computation or by the independent
brute-force oracles defined at the top of this file (Caratheodory
membership, supporting-hyperplane vertex detection) before being frozen.
Point counts are also checked against the box scan of scan_oracles.py.
"""

from __future__ import annotations

import itertools
import random
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from qhelly import lattice
from qhelly.errors import DegenerateInputError, UnsupportedDimensionError
from qhelly.lattice import (
    FiniteSite,
    LatticePolytope,
    _affine_base,
    _edge_facets,
    canonical_form_2d,
    census,
    convex_hull,
    integer_kernel_basis,
    lattice_points_in,
)
from scan_oracles import (
    _affinely_independent_subset,
    _kept_coordinates,
    box_census,
    box_points,
    census_tuple,
    closure,
    contains,
    rank_dd_hull,
    rational_rank,
    saturated_direction_basis,
    solve_rational,
    twice_area,
)


# --- independent oracles ----------------------------------------------------


def primitive(v):
    """v divided by the gcd of its entries; v must be nonzero."""
    return tuple(x // gcd(*v) for x in v)


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


def basis_route_hull(points):
    """The hull of lattice points, hulled in saturated affine coordinates.

    The points are written in a saturated basis B of their direction
    lattice, hulled there in Z^d, and each facet m . u <= c is lifted to
    the primitive multiple of the solution x of B^T x = m with the free
    variables at zero.
    """
    pts = sorted(set(points))
    n, p0 = len(pts[0]), pts[0]
    basis = saturated_direction_basis(pts)
    rows = [[b[i] for b in basis] for i in range(n)]
    lift = {}
    for p in pts:
        sol = solve_rational(rows, [a - b for a, b in zip(p, p0)])
        assert all(x.denominator == 1 for x in sol), "saturation gives integer coordinates"
        lift[tuple(int(x) for x in sol)] = p
    inner = convex_hull(lift)
    facets = set()
    for m, c in inner.facets:
        sol = solve_rational(basis, m)
        denom = lcm(*(x.denominator for x in sol))
        normal = [int(x * denom) for x in sol]
        offset = sum(a * b for a, b in zip(normal, p0)) + denom * c
        g = gcd(*normal)
        assert offset % g == 0, "a facet of a lattice polytope is a lattice hyperplane"
        facets.add((tuple(x // g for x in normal), offset // g))
    vertices = tuple(sorted(lift[u] for u in inner.vertices))
    # the affine-hull equations: an integer kernel basis of the vertex differences
    v0 = vertices[0]
    kernel = integer_kernel_basis([[a - b for a, b in zip(v, v0)] for v in vertices[1:]], n)
    equalities = tuple((m, sum(a * b for a, b in zip(m, v0))) for m in kernel)
    return LatticePolytope(vertices, tuple(sorted(facets)), n, len(basis), equalities)


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
    assert len(P.facets) == 4
    assert census_tuple(census(P)) == (9, 4, 5, 1, 4)


def test_triangle_census():
    P = convex_hull([(0, 0), (2, 0), (0, 2)])
    assert census_tuple(census(P)) == (6, 3, 3, 0, 3)


def test_segment_census_is_ambient():
    P = convex_hull([(0, 0), (3, 0)])
    assert P.affine_dim == 1
    # ambient interior of a segment in the plane is empty
    assert census_tuple(census(P)) == (4, 2, 2, 0, 2)


def test_hexagon_census():
    P = convex_hull([(0, 0), (1, 0), (2, 1), (2, 2), (1, 2), (0, 1)])
    assert len(P.vertices) == 6
    assert census_tuple(census(P)) == (7, 6, 1, 1, 0)


def test_collinear_points_are_not_vertices():
    P = convex_hull([(0, 0), (1, 0), (2, 0), (2, 2), (0, 2), (1, 2)])
    assert P.vertices == ((0, 0), (2, 0), (2, 2), (0, 2))


@settings(max_examples=150, deadline=None)
@given(st.lists(st.tuples(st.integers(-4, 4), st.integers(-4, 4)), min_size=3, max_size=9))
@example([(0, 0), (4, 0), (0, 6)])  # edges of lattice length 4, 2 and 2
def test_edge_facets_are_the_supporting_lines_in_cycle_order(points):
    cycle = convex_hull(points).vertices
    assume(len(cycle) >= 3)
    facets = _edge_facets(cycle)
    assert set(facets) == brute_facets(sorted(set(points)), 2)
    assert len(facets) == len(cycle)
    # facet i holds edge i, from vertex i to vertex i + 1
    for ((nx, ny), c), a, b in zip(facets, cycle, cycle[1:] + cycle[:1]):
        assert nx * a[0] + ny * a[1] == c == nx * b[0] + ny * b[1]


# --- higher dimensions ------------------------------------------------------


def test_cube_hull_3d():
    P = convex_hull(itertools.product((0, 1), repeat=3))
    assert len(P.vertices) == 8
    assert len(P.facets) == 6
    assert census_tuple(census(P)) == (8, 8, 0, 0, 0)


def test_octahedron_hull():
    P = convex_hull(
        [(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, -1, 0), (0, 0, 1), (0, 0, -1)]
    )
    assert len(P.vertices) == 6
    assert len(P.facets) == 8
    assert census_tuple(census(P)) == (7, 6, 1, 1, 0)


@pytest.mark.parametrize("n,verts,facets", [(2, 6, 6), (3, 14, 12), (4, 30, 20), (5, 62, 30)])
def test_fused_cubes_counts(n, verts, facets):
    pts = sorted(
        set(itertools.product((-1, 0), repeat=n)) | set(itertools.product((0, 1), repeat=n))
    )
    P = convex_hull(pts)
    assert len(P.vertices) == verts
    assert len(P.facets) == facets
    cen = census(P)
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
            assert contains(P, p)


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


def test_hull_refuses_a_coordinate_that_is_not_an_integer():
    with pytest.raises(ValueError, match=r"point \(2\.7, 0\) has a coordinate that is not"):
        convex_hull([(0, 0), (2.7, 0), (0, 1.9)])
    with pytest.raises(ValueError, match="Fraction"):
        convex_hull([(0, 0), (Fraction(5, 2), 0), (0, 1)])
    # integral values of any type are accepted as their ints
    assert convex_hull([(0.0, 0), (Fraction(4, 2), 0), (0, 1.0)]) == convex_hull(
        [(0, 0), (2, 0), (0, 1)]
    )


def test_site_refuses_a_coordinate_that_is_not_an_integer():
    with pytest.raises(ValueError, match=r"point \(1, 0\.5\) has a coordinate that is not"):
        FiniteSite.of([(0, 0), (1, 0.5)])
    with pytest.raises(ValueError, match="Fraction"):
        FiniteSite.of([(0, 0), (Fraction(5, 2), 1)])
    assert FiniteSite.of([(0.0, Fraction(3, 3)), (1, 0)]) == FiniteSite.of([(0, 1), (1, 0)])


@st.composite
def flat_lattice_points(draw):
    """Integer combinations of d < n random directions in Z^n, n <= 6."""
    n = draw(st.integers(1, 6))
    d = draw(st.integers(0, n - 1))
    base = draw(st.tuples(*[st.integers(-4, 4)] * n))
    directions = [draw(st.tuples(*[st.integers(-3, 3)] * n)) for _ in range(d)]
    weights = draw(
        st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=d + 5)
    )
    return [
        tuple(b + sum(w * v[i] for w, v in zip(ws, directions)) for i, b in enumerate(base))
        for ws in weights
    ]


@settings(max_examples=300, deadline=None)
@given(flat_lattice_points())
@example([(0, 0, 0), (2, 0, 2), (0, 2, 2), (1, 1, 2)])  # a plane off the coordinate axes
@example([(0, 0, 0), (2, 4, 6), (4, 8, 12)])  # a line through an even sublattice
@example([(0, 0, 0, 0), (0, 2, 1, 0), (0, 0, 3, 1), (0, 3, 3, 1)])  # x_1 = 0 and more
def test_degenerate_hull_matches_the_basis_route(points):
    P = convex_hull(points)
    Q = basis_route_hull(points)
    assert P == Q
    assert P.equalities == Q.equalities
    assert len(P.equalities) == P.ambient_dim - P.affine_dim
    assert all(
        sum(a * b for a, b in zip(normal, p)) == offset
        for normal, offset in P.equalities
        for p in points
    )


@pytest.mark.parametrize("n", [6, 7])
def test_six_dimensional_hulls_raise_on_both_routes(n):
    simplex = [(0,) * n] + [tuple(int(i == j) for i in range(n)) for j in range(6)]
    messages = []
    for route in (convex_hull, basis_route_hull):
        with pytest.raises(UnsupportedDimensionError) as raised:
            route(simplex)
        messages.append(str(raised.value))
    assert messages[0] == messages[1] == "exact hulls support affine dimension <= 5, got 6"


def test_hull_refuses_a_high_dimension_after_a_short_scan(monkeypatch):
    # the sorted 0/1 cube in Z^16 holds e_16, e_15, e_14, ... at the indices
    # 1, 2, 4, ..., so the base reaches 7 points at the 33rd point
    read = []
    scan = lattice._affine_base

    def counted(points):
        for p in points:
            read.append(p)
            yield p

    monkeypatch.setattr(lattice, "_affine_base", lambda points: scan(counted(points)))
    with pytest.raises(UnsupportedDimensionError) as raised:
        convex_hull(itertools.product((0, 1), repeat=16))
    assert str(raised.value) == "exact hulls support affine dimension <= 5, got at least 6"
    assert len(read) == 33


@st.composite
def lattice_flats(draw):
    """Sorted distinct points on a flat of dimension 0..6 in Z^1..Z^7."""
    n = draw(st.integers(1, 7))
    d = draw(st.integers(0, min(n, 6)))
    base = draw(st.tuples(*[st.integers(-4, 4)] * n))
    directions = [draw(st.tuples(*[st.integers(-3, 3)] * n)) for _ in range(d)]
    weights = draw(st.lists(st.tuples(*[st.integers(-2, 2)] * d), min_size=1, max_size=d + 6))
    return sorted(
        {
            tuple(b + sum(w * v[i] for w, v in zip(ws, directions)) for i, b in enumerate(base))
            for ws in weights
        }
    )


@settings(max_examples=400, deadline=None)
@given(lattice_flats())
@example([(0, 0, 0), (0, 0, 1), (0, 1, 0), (1, 0, 0), (1, 1, 1)])  # a full base, then more
@example([(0, 0, 0, 0), (0, 0, 3, 6), (1, 2, 0, 0), (2, 4, 3, 6)])  # a plane on x_1, x_3
@example([tuple(int(i == j) for j in range(7)) for i in range(8)])  # 8 points in Z^7
def test_affine_base_is_the_greedy_rank_scan(points):
    base = _affinely_independent_subset(points, min(len(points[0]), 6))
    assert _affine_base(points) == (base, _kept_coordinates(base))


def _assert_hull_matches_brute(pts, dim):
    P = convex_hull(pts)
    assert set(P.vertices) == brute_vertices(pts, dim)
    assert set(P.facets) == brute_facets(pts, dim)


@pytest.mark.parametrize(
    "values,dim,count",
    [((0, 1, 2), 3, 25), ((0, 1, 2), 4, 6), ((0, 1), 5, 4)],
)
def test_dd_hull_matches_brute_on_grid_subsets(values, dim, count):
    # many coplanar points: dual vertices with more than d tight constraints
    rng = random.Random(20261018 + dim)
    grid = list(itertools.product(values, repeat=dim))
    checked = 0
    while checked < count:
        pts = sorted(rng.sample(grid, rng.randint(dim + 2, dim + 6)))
        if rational_rank([tuple(a - b for a, b in zip(p, pts[0])) for p in pts[1:]]) < dim:
            continue
        _assert_hull_matches_brute(pts, dim)
        checked += 1


@pytest.mark.parametrize(
    "pts",
    [
        # three collinear points (1, 2, t, 0)
        [(0, 2, 1, 2), (0, 2, 2, 0), (1, 1, 1, 2), (1, 2, 0, 0),
         (1, 2, 1, 0), (1, 2, 2, 0), (2, 0, 2, 1), (2, 1, 1, 2)],
        [(0, 0, 1, 0, 0), (0, 0, 1, 0, 1), (0, 1, 1, 1, 0), (0, 1, 1, 1, 1), (1, 0, 1, 0, 0),
         (1, 0, 1, 1, 1), (1, 1, 0, 0, 1), (1, 1, 0, 1, 0), (1, 1, 1, 0, 1)],
    ],
)
def test_dd_hull_pairs_only_adjacent_dual_vertices(pts):
    # d - 1 points on a (d - 3)-flat are d - 1 dual constraints of rank
    # d - 2: two dual vertices tight at all of them need not share an edge
    _assert_hull_matches_brute(pts, len(pts[0]))


@st.composite
def dd_inputs(draw):
    """Distinct sorted points in Z^3..Z^5: random ones, or a subset of the
    box {0, 1, 2}^n, whose coplanar points make many dual constraints
    meet at one dual vertex."""
    n = draw(st.integers(3, 5))
    lo, hi = draw(st.sampled_from([(-4, 4), (0, 2)]))
    cells = st.tuples(*[st.integers(lo, hi)] * n)
    return sorted(set(draw(st.lists(cells, min_size=n + 2, max_size=n + 9))))


@settings(max_examples=250, deadline=None)
@given(dd_inputs())
@example([(0, 2, 1, 2), (0, 2, 2, 0), (1, 1, 1, 2), (1, 2, 0, 0),
          (1, 2, 1, 0), (1, 2, 2, 0), (2, 0, 2, 1), (2, 1, 1, 2)])
@example(sorted(itertools.product((0, 1, 2), repeat=3)))  # 27 points, 6 facets
def test_dd_hull_matches_the_rank_oracle(pts):
    # the incidence masks find the same edges and vertices as the ranks
    base, _ = _affine_base(pts)
    assume(len(base) == len(pts[0]) + 1)
    P = convex_hull(pts)
    assert (P.vertices, P.facets) == rank_dd_hull(pts, base)


def test_degenerate_hull_in_ambient_3d():
    P = convex_hull([(0, 0, 0), (2, 0, 2), (0, 2, 2), (1, 1, 2)])
    assert P.affine_dim == 2
    assert set(P.vertices) == {(0, 0, 0), (2, 0, 2), (0, 2, 2)}
    # census counts points, segments and full-dimensional polytopes only
    with pytest.raises(DegenerateInputError, match=r"affine dimension 2 in Z\^3"):
        census(P)
    assert box_census(P) == (6, 3, 3, 0, 3)


@settings(max_examples=200, deadline=None)
@given(
    st.integers(1, 6).flatmap(
        lambda n: st.tuples(
            st.tuples(*[st.integers(-5, 5)] * n), st.tuples(*[st.integers(-6, 6)] * n)
        )
    )
)
@example(((0, 0, 0), (4, 8, 12)))  # a line through an even sublattice
@example(((1, 2, 3, 4, 5, 6), (-5, 2, 7, 4, 5, 2)))
def test_segment_census_counts_its_points_by_parameter(ends):
    # a lattice point a + t (b - a) of the segment has t = j / L, with L
    # the largest coordinate step, so the steps j whose point is integral
    # are its points
    a, b = ends
    step = [y - x for x, y in zip(a, b)]
    assume(any(step))
    P = convex_hull([a, b])
    L = max(abs(d) for d in step)
    total = sum(1 for j in range(L + 1) if all(d * j % L == 0 for d in step))
    # only in Z^1 is a segment full-dimensional, with an interior
    interior = total - 2 if len(a) == 1 else 0
    assert census_tuple(census(P)) == (total, 2, total - 2, interior, total - 2 - interior)


def test_lattice_points_in_refuses_degenerate_polytopes():
    for points, d in [
        ([(1, 1)], 0),
        ([(0, 0), (2, 2)], 1),
        ([(0, 0, 0), (2, 0, 2), (0, 2, 2)], 2),
    ]:
        P = convex_hull(points)
        with pytest.raises(DegenerateInputError, match=f"affine dimension {d} in Z"):
            lattice_points_in(P)


# --- point enumeration and closure ------------------------------------------


def test_lattice_points_sorted_and_exact():
    P = convex_hull([(0, 0), (3, 0), (0, 3)])
    pts = lattice_points_in(P)
    assert pts == tuple(sorted(pts))
    assert len(pts) == 10


def _assert_matches_box_scan(P):
    assert lattice_points_in(P) == tuple(box_points(P)[0])
    assert census_tuple(census(P)) == box_census(P)


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
@example((0, 0, 0), [(2, 4, 6)], [(0, 0), (1, 0), (2, 0)])  # a line through an even sublattice
def test_lattice_planes_and_lines_in_z3_match_box_scan(base, directions, weights):
    # integer combinations of one or two directions: a line or a plane
    points = [
        tuple(b + sum(w * d[i] for w, d in zip(ws, directions)) for i, b in enumerate(base))
        for ws in weights
    ]
    P = convex_hull(points)
    assume(1 <= P.affine_dim < 3)
    if P.affine_dim == 1:
        assert census_tuple(census(P)) == box_census(P)
    else:
        with pytest.raises(DegenerateInputError, match=r"affine dimension 2 in Z\^3"):
            census(P)


def test_closure_on_finite_site():
    site = FiniteSite.grid(3, 3)
    assert closure([(0, 0), (2, 2)], site) == ((0, 0), (1, 1), (2, 2))
    assert closure([(0, 0), (2, 0), (0, 2)], site) == (
        (0, 0), (0, 1), (0, 2), (1, 0), (1, 1), (2, 0),
    )


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
    cycle = convex_hull(hexagon).vertices
    base = canonical_form_2d(cycle, twice_area(cycle))
    for img in unimodular_images(hexagon, rng, 60):
        cycle = convex_hull(img).vertices
        assert canonical_form_2d(cycle, twice_area(cycle)) == base


def test_canonical_form_separates():
    a = canonical_form_2d(convex_hull([(0, 0), (1, 0), (0, 1)]).vertices, 1)
    b = canonical_form_2d(convex_hull([(0, 0), (2, 0), (0, 2)]).vertices, 4)
    c = canonical_form_2d(convex_hull([(0, 0), (1, 0), (0, 1), (1, 1)]).vertices, 2)
    assert len({a, b, c}) == 3


def test_canonical_form_needs_full_dimension():
    with pytest.raises(DegenerateInputError):
        canonical_form_2d(convex_hull([(0, 0), (4, 0)]).vertices, 0)


def test_canonical_form_is_a_fixed_point():
    P = convex_hull([(0, 0), (4, 1), (3, 3), (1, 2)])
    area = twice_area(P.vertices)
    cf = canonical_form_2d(P.vertices, area)
    assert canonical_form_2d(convex_hull(cf).vertices, area) == cf
