"""Tests for the explicit witness constructions."""

from __future__ import annotations

import random
from itertools import product

import pytest

from qhelly import witnesses
from qhelly.engine import enumerate_convex_subsets
from qhelly.errors import UnsupportedDimensionError
from qhelly.lattice import FiniteSite, census
from qhelly.witnesses import (
    ConstructionRecipe,
    _nonvertex_count,
    _parabolic_body,
    integer_root,
    lower_bound_witness,
    tight_recipe,
    tight_recipes,
    tight_witness,
    verify_witness,
)
from scan_oracles import census_tuple


def test_integer_root_exact_at_power_boundaries():
    assert integer_root(0, 4) == 0
    assert integer_root(1, 9) == 1
    assert integer_root(26, 1) == 26
    for base in (2, 3, 7, 10, 12345, 10**6 + 3):
        for degree in (2, 3, 5, 11):
            power = base**degree
            assert integer_root(power, degree) == base
            assert integer_root(power - 1, degree) == base - 1
            assert integer_root(power + 1, degree) == base


def _bisected_root(value: int, degree: int) -> int:
    """Largest r >= 0 with r**degree <= value, by integer bisection."""
    if value in (0, 1) or degree == 1:
        return value
    hi = 1
    while hi**degree <= value:
        hi *= 2
    lo = hi // 2
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if mid**degree <= value:
            lo = mid
        else:
            hi = mid
    return lo


def test_integer_root_matches_bisection_near_large_powers():
    # values of up to about 4,500 bits, as large as those that
    # `constants --n-range 2..12` roots at its default precision
    rng = random.Random(14)
    for degree in range(2, 21):
        for bits in (1, 2, 7, 64, 65, 4500 // degree):
            r = rng.getrandbits(bits) | 1 << (bits - 1)
            for value in (r**degree - 1, r**degree, r**degree + 1):
                assert integer_root(value, degree) == _bisected_root(value, degree)
            assert integer_root(r**degree, degree) == r


def test_integer_root_rejects_bad_arguments():
    with pytest.raises(ValueError):
        integer_root(-1, 2)
    with pytest.raises(ValueError):
        integer_root(5, 0)


def test_nonvertex_count_matches_direct_summation_over_the_columns():
    # the column over x holds s - 1 + 2(n-1)t^2 - 2|x|^2 nonvertex points
    for n in range(2, 5):
        for t in range(0, 21):
            for s in (1, 2, 7):
                direct = sum(
                    s - 1 + 2 * (n - 1) * t * t - 2 * sum(v * v for v in x)
                    for x in product(range(1, t + 1), repeat=n - 1)
                )
                assert _nonvertex_count(n, t, s) == direct


# ---------------------------------------------------------------------------
# small-k family


def test_recipe_counts_follow_the_known_extremes():
    for n in range(2, 7):
        expected = [
            (2**n, 0),
            (2 ** (n + 1) - 2, 1),
            (2 ** (n + 1) - 2, 2),
            (2 ** (n + 1) - 2, 3),
            (2 ** (n + 1), 4),
        ]
        got = [(r.expected_vertices, r.expected_nonvertex) for r in tight_recipes(n)]
        assert got == expected


def test_recipe_validation():
    with pytest.raises(ValueError):
        tight_recipe(3, 5)
    with pytest.raises(UnsupportedDimensionError):
        tight_recipe(1, 1)
    with pytest.raises(ValueError):
        ConstructionRecipe("prism_spike", 3, 5, 14, 2)
    with pytest.raises(ValueError):
        ConstructionRecipe("cube", 3, 2, 8, 0)
    with pytest.raises(ValueError):
        ConstructionRecipe("pyramid", 3, None, 8, 0)


def test_fused_cubes_in_the_plane_is_the_hexagon():
    polytope = tight_witness(tight_recipe(2, 1))
    assert set(polytope.vertices) == {(-1, -1), (0, -1), (1, 0), (1, 1), (0, 1), (-1, 0)}
    counts = census(polytope)
    assert census_tuple(counts) == (7, 6, 1, 1, 0)


def test_double_spike_in_the_plane():
    polytope = tight_witness(tight_recipe(2, 4))
    counts = census(polytope)
    assert counts.vertex == 8 and counts.nonvertex == 4


def test_prism_spike_three_dimensional_counts():
    polytope = tight_witness(tight_recipe(3, 2))
    counts = census(polytope)
    assert counts.vertex == 14 and counts.nonvertex == 2


def test_every_recipe_verifies_up_to_dimension_five():
    for n in range(2, 6):
        for recipe in tight_recipes(n):
            report = verify_witness(recipe)
            assert report.ok, (recipe.label, report.findings)
            assert report.actual_vertices == recipe.expected_vertices
            assert report.actual_nonvertex == recipe.expected_nonvertex


@pytest.mark.parametrize("n, k", [(2, 0), (2, 1), (2, 2), (2, 3), (2, 4), (3, 0), (4, 0)])
def test_theorem4_bodies_are_closed_sets_of_their_boxes(monkeypatch, n, k):
    # the bodies whose bounding box holds at most 26 points: the least
    # closed set of the box that holds the construction points is the
    # body's, and the engine's vertex mask gives its counts, with no hull
    # and no recount
    recipe = tight_recipe(n, k)
    # tight_witness hands its construction points to convex_hull; sorting
    # them instead builds no hull
    monkeypatch.setattr(witnesses, "convex_hull", sorted)
    points = tight_witness(recipe)
    box = FiniteSite.of(product(*(range(min(c), max(c) + 1) for c in zip(*points))))
    assert len(box) <= 26
    want = sum(1 << box.points.index(p) for p in points)
    sets = enumerate_convex_subsets(box)
    body = min((c for c in sets if c & want == want), key=int.bit_count)
    vertices = sets[body].bit_count()
    assert (vertices, body.bit_count() - vertices) == (
        recipe.expected_vertices,
        recipe.expected_nonvertex,
    )


def test_verify_rejects_a_corrupted_recipe():
    # the unit square claimed to have the fused hexagon's counts
    square = tight_recipe(2, 0)
    bad = ConstructionRecipe(square.kind, square.n, square.spike, 6, 1)
    report = verify_witness(bad)
    assert not report.ok and len(report.findings) == 2
    assert report.actual_vertices == 4 and report.expected_vertices == 6
    assert report.actual_nonvertex == 0 and report.expected_nonvertex == 1


# ---------------------------------------------------------------------------
# large-k family


def test_parabolic_witness_frozen_examples():
    # exact parameter values for the planar construction
    for k, t, s, k_prime in [
        (32, 2, 14, 32),
        (100, 2, 48, 100),
        (500, 5, 73, 500),
        (10**4, 13, 558, 9997),
    ]:
        w = lower_bound_witness(2, k)
        assert (w.t, w.s, w.k_prime) == (t, s, k_prime)
        assert w.predicted_vertices == 2 * t and w.bound == t
        assert verify_witness(w).realized


def test_parabolic_witness_explicit_vertices_at_k_32():
    w = lower_bound_witness(2, 32)
    assert set(_parabolic_body(w).vertices) == {(1, -3), (1, 17), (2, 0), (2, 14)}
    report = verify_witness(w)
    assert report.ok and report.total_points == 36


def test_parabolic_witness_degenerate_below_2n():
    for n, k in [(2, 0), (2, 3), (3, 5), (4, 7), (5, 9)]:
        w = lower_bound_witness(n, k)
        assert w.degenerate and w.bound == 1 and w.k_prime == 0
        assert verify_witness(w).ok


def test_parabolic_witness_rejects_bad_arguments():
    with pytest.raises(UnsupportedDimensionError):
        lower_bound_witness(1, 50)
    with pytest.raises(ValueError):
        lower_bound_witness(2, -1)


def test_parabolic_formula_invariants_sampled():
    rng = random.Random(175321)
    for n in (2, 3):
        for _ in range(100):
            k = rng.randint(2 * n, 10**5)
            w = lower_bound_witness(n, k)
            cells = w.t ** (n - 1)
            assert 2 * n * w.t ** (n + 1) <= k < 2 * n * (w.t + 1) ** (n + 1)
            assert w.k_prime <= k and 0 <= w.k - w.k_prime <= cells
            assert w.predicted_vertices == 2 * cells and w.bound == cells


def test_parabolic_realizations_match_formulas_sampled():
    rng = random.Random(481516)
    for _ in range(12):
        k = rng.randint(4, 10**4)
        w = lower_bound_witness(2, k)
        report = verify_witness(w)
        assert report.ok, (k, report.findings)
        assert report.actual_vertices == 2 * w.t
        assert report.actual_nonvertex == w.k_prime


@pytest.mark.parametrize("n, k", [(2, 171_500), (2, 10**6), (3, 169_500)])
def test_large_parabolic_witnesses_realize_and_verify(n, k):
    # boxes of 2 * 10^5 to 1.2 * 10^6 cells, inside the realisation budget
    w = lower_bound_witness(n, k)
    assert w.predicted_vertices == 2 * w.t ** (n - 1)
    report = verify_witness(w)
    assert report.ok and report.realized, report.findings
    assert report.actual_vertices == w.predicted_vertices
    assert report.actual_nonvertex == w.k_prime


def test_width_one_columns_realize_too():
    # 4 <= k < 32 keeps t = 1: a single column, realised as a segment
    w = lower_bound_witness(2, 20)
    assert w.t == 1 and w.predicted_vertices == 2 and w.bound == 1
    assert w.k_prime == 20 and verify_witness(w).ok


def test_corrupted_cap_height_is_reported_not_raised():
    w = lower_bound_witness(2, 32)
    bad = w._replace(s=w.s + 1)
    report = verify_witness(bad)
    assert not report.ok
    # the recount lands exactly t^(n-1) above the stored claim
    assert report.actual_nonvertex == bad.k_prime + bad.t
    assert any("not maximal" not in f for f in report.findings)


def test_corrupted_bound_is_reported():
    w = lower_bound_witness(3, 1000)
    bad = w._replace(bound=w.bound + 1)
    report = verify_witness(bad)
    assert not report.ok and any("bound" in f for f in report.findings)


def test_verify_rejects_unknown_objects():
    with pytest.raises(TypeError):
        verify_witness(object())


def test_witness_construction_is_deterministic():
    assert lower_bound_witness(2, 777) == lower_bound_witness(2, 777)
    r = tight_recipe(3, 4)
    assert tight_witness(r).vertices == tight_witness(r).vertices
