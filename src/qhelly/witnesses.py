"""Explicit witness polytopes for vertex maximisation over Z^n.

Two families live here.  The small-k family realises, in every
dimension n >= 2, polytopes whose censuses attain the known extreme
vertex counts for 0..4 nonvertex points: the unit cube (2^n vertices,
no nonvertex point), the fused double cube conv([-1,0]^n u [0,1]^n)
with 2^(n+1)-2 vertices around a single interior point, prism spikes
that stretch the fused cube to carry two or three nonvertex points at
the same vertex count, and the double spike with 2^(n+1) vertices over
exactly four nonvertex points.

The large-k family is a parabolic cap construction.  Over the grid
[1,t]^(n-1) two integer paraboloid sheets are glued,

    l(x) = sum(x_i^2 - t^2)        (lower sheet, convex)
    u(x) = s + sum(t^2 - x_i^2)    (upper sheet, concave)

so that every grid column contributes its two endpoints as vertices
and everything between them is a nonvertex point.  With t the largest
integer satisfying 2n * t^(n+1) <= k and s pushed as high as the
nonvertex budget k allows, the polytope has exactly 2 * t^(n-1)
vertices and k' <= k nonvertex points with k - k' < t^(n-1), which
certifies a lower bound of t^(n-1) for the quantitative Helly number
at parameter k.

Both families are records of parameters only: tight_recipe gives a
recipe and lower_bound_witness the parabolic t, s and k'.  All
arithmetic is exact integer arithmetic.  verify_witness is the one
place where a witness is hulled and counted: it builds the polytope
once (tight_witness, or the parabolic body within the box budget) and
recounts every lattice point geometrically instead of trusting the
sheet formulas or the recipe arithmetic.
"""

from __future__ import annotations

from itertools import product
from typing import NamedTuple, Optional, Union

from .errors import FrozenRecord, UnsupportedDimensionError
from .extint import integer_root
from .lattice import LatticePolytope, census, check_hull_dimension, convex_hull

__all__ = [
    "ConstructionRecipe",
    "LowerBoundWitness",
    "WitnessReport",
    "integer_root",
    "lower_bound_witness",
    "tight_recipe",
    "tight_recipes",
    "tight_witness",
    "verify_witness",
]

# A parabolic body is built and recounted only when its bounding box
# holds at most this many lattice points; beyond that only the
# closed-form invariants are checked.  The recount's cost grows with the
# grid columns, not the box, so the budget only fixes which k realise.
_REALIZE_BOX_BUDGET = 10**7

_TIGHT_KINDS = ("cube", "fused_cubes", "prism_spike", "double_spike")


# ---------------------------------------------------------------------------
# small-k family


class ConstructionRecipe(FrozenRecord):
    """Blueprint for one member of the small-k witness family.

    kind is one of "cube", "fused_cubes", "prism_spike", "double_spike";
    spike is the interior run length of a prism spike (2 or 3) and None
    for the other kinds.  The expected census counts are part of the
    recipe so a verifier can hold the construction to them.
    """

    __slots__ = ("kind", "n", "spike", "expected_vertices", "expected_nonvertex")

    def __init__(
        self,
        kind: str,
        n: int,
        spike: Optional[int],
        expected_vertices: int,
        expected_nonvertex: int,
    ) -> None:
        if kind not in _TIGHT_KINDS:
            raise ValueError(f"unknown construction kind {kind!r}")
        if kind == "prism_spike":
            if spike not in (2, 3):
                raise ValueError("prism_spike requires spike in {2, 3}")
        elif spike is not None:
            raise ValueError(f"{kind} does not take a spike length")
        min_n = 1 if kind == "cube" else 2
        if n < min_n:
            raise UnsupportedDimensionError(f"{kind} needs dimension >= {min_n}, got {n}")
        values = (kind, n, spike, expected_vertices, expected_nonvertex)
        for name, value in zip(self.__slots__, values):
            object.__setattr__(self, name, value)

    @property
    def label(self) -> str:
        if self.kind == "prism_spike":
            return f"prism_spike(n={self.n}, spike={self.spike})"
        return f"{self.kind}(n={self.n})"


def tight_recipe(n: int, k: int) -> ConstructionRecipe:
    """Recipe whose polytope attains the extreme vertex count at k nonvertex points.

    The family covers k in 0..4: counts are (2^n, 0) for the cube,
    (2^(n+1)-2, k) for k in {1, 2, 3} and (2^(n+1), 4) for the double
    spike.
    """
    if n < 2:
        raise UnsupportedDimensionError("the witness family needs dimension >= 2")
    if k == 0:
        return ConstructionRecipe("cube", n, None, 2**n, 0)
    if k == 1:
        return ConstructionRecipe("fused_cubes", n, None, 2 ** (n + 1) - 2, 1)
    if k in (2, 3):
        return ConstructionRecipe("prism_spike", n, k, 2 ** (n + 1) - 2, k)
    if k == 4:
        return ConstructionRecipe("double_spike", n, None, 2 ** (n + 1), 4)
    raise ValueError("the small-k witness family covers k in 0..4 only")


def tight_recipes(n: int) -> tuple[ConstructionRecipe, ...]:
    """All five recipes for dimension n, in order of nonvertex count."""
    return tuple(tight_recipe(n, k) for k in range(5))


def _cube_points(n: int) -> list[tuple[int, ...]]:
    return [tuple(p) for p in product((0, 1), repeat=n)]


def _fused_cube_points(n: int) -> list[tuple[int, ...]]:
    # corners of [-1,0]^n and of [0,1]^n; conv of the union fuses the
    # cubes across the shared corner at the origin
    pts = {tuple(p) for p in product((-1, 0), repeat=n)}
    pts.update(tuple(p) for p in product((0, 1), repeat=n))
    return sorted(pts)


def _prism_spike_points(n: int, spike: int) -> list[tuple[int, ...]]:
    # fused double cube one dimension down, extruded to a unit prism,
    # with a spike segment through the shared corner reaching spike
    # levels above the prism and one below
    base = _fused_cube_points(n - 1)
    pts = {p + (z,) for p in base for z in (0, 1)}
    origin = (0,) * (n - 1)
    pts.add(origin + (-1,))
    pts.add(origin + (spike,))
    return sorted(pts)


def _double_spike_points(n: int) -> list[tuple[int, ...]]:
    # a spike-2 prism one dimension down, extruded, with two parallel
    # spikes so that both spike columns contribute top and bottom
    # vertices while their middle levels stay nonvertex
    core = _prism_spike_points(n - 1, 2)
    pts = {p + (z,) for p in core for z in (0, 1)}
    for last in (0, 1):
        column = (0,) * (n - 2) + (last,)
        pts.add(column + (-1,))
        pts.add(column + (2,))
    return sorted(pts)


def tight_witness(recipe: ConstructionRecipe) -> LatticePolytope:
    """The polytope of a recipe: the convex hull of its construction points.

    The hull is not counted here; verify_witness holds it to the
    recipe's expected vertex and nonvertex counts.  Every body of the
    family holds [0,1]^n, so its affine dimension is n, and a dimension
    beyond exact hulls is refused before any point is built.
    """
    check_hull_dimension(recipe.n)
    if recipe.kind == "cube":
        points = _cube_points(recipe.n)
    elif recipe.kind == "fused_cubes":
        points = _fused_cube_points(recipe.n)
    elif recipe.kind == "prism_spike":
        assert recipe.spike is not None
        points = _prism_spike_points(recipe.n, recipe.spike)
    else:
        points = _double_spike_points(recipe.n)
    return convex_hull(points)


# ---------------------------------------------------------------------------
# large-k family


def _nonvertex_count(n: int, t: int, s: int) -> int:
    # columns hold u - l - 1 = s - 1 + 2(n-1)t^2 - 2|x|^2 nonvertex
    # points each; summed over the grid this collapses to
    # (s - 1 + (n-1)(4t^2-3t-1)/3) * t^(n-1)
    triple = (n - 1) * (4 * t * t - 3 * t - 1) * t ** (n - 1)
    assert triple % 3 == 0, "cap-volume term must be divisible by 3"
    return (s - 1) * t ** (n - 1) + triple // 3


class LowerBoundWitness(NamedTuple):
    """Certificate that 2*t^(n-1) vertices can pen in at most k nonvertex points.

    t is the largest integer with 2n * t^(n+1) <= k and s the largest
    cap height whose nonvertex count k_prime stays within k.  The
    recorded bound t^(n-1) follows from trading the k - k_prime unused
    nonvertex slots against vertices one for one.  The record holds the
    construction's parameters only; verify_witness builds the body and
    recounts it.
    """

    n: int
    k: int
    t: int
    s: int
    k_prime: int
    predicted_vertices: int
    bound: int
    degenerate: bool


def _parabolic_endpoints(n: int, t: int, s: int) -> list[tuple[int, ...]]:
    # every lattice point of the body lies on the vertical segment
    # between its column's endpoints l(x) and u(x), so the hull of the
    # endpoints is the hull of the whole body
    shift = (n - 1) * t * t
    pts = []
    for x in product(range(1, t + 1), repeat=n - 1):
        q = sum(v * v for v in x)
        pts.append(x + (q - shift,))
        pts.append(x + (s + shift - q,))
    return pts


def _parabolic_body(witness: LowerBoundWitness) -> Optional[LatticePolytope]:
    """The witness's polytope, or None when its box is beyond the budget.

    A degenerate witness stands for the unit segment.  Otherwise the
    bounding box has t^(n-1) grid columns, with heights spanning
    [l(1..1), u(1..1)].
    """
    n, t, s = witness.n, witness.t, witness.s
    if witness.degenerate:
        return convex_hull([(0,) * n, (1,) + (0,) * (n - 1)])
    if t ** (n - 1) * (s + 2 * (n - 1) * (t * t - 1) + 1) > _REALIZE_BOX_BUDGET:
        return None
    return convex_hull(_parabolic_endpoints(n, t, s))


def lower_bound_witness(n: int, k: int) -> LowerBoundWitness:
    """Parameters of the parabolic witness for dimension n and nonvertex budget k.

    For k < 2n the construction degenerates and a unit segment stands in
    for it, carrying the trivial bound 1.  Otherwise t, s and k_prime
    are computed exactly and s is cross-checked to be maximal.
    """
    if n < 2:
        raise UnsupportedDimensionError("the parabolic construction needs dimension >= 2")
    if k < 0:
        raise ValueError("nonvertex budget k must be nonnegative")

    if k < 2 * n:
        return LowerBoundWitness(
            n=n,
            k=k,
            t=0,
            s=0,
            k_prime=0,
            predicted_vertices=2,
            bound=1,
            degenerate=True,
        )

    t = integer_root(k // (2 * n), n + 1)
    assert t >= 1 and 2 * n * t ** (n + 1) <= k < 2 * n * (t + 1) ** (n + 1)
    cells = t ** (n - 1)
    # solve (s - 1) * t^(n-1) + cap_volume <= k for the largest integer s
    cap_volume = _nonvertex_count(n, t, 1)
    s = (k - cap_volume) // cells + 1
    assert s >= 1, "the cap volume alone must fit the nonvertex budget"
    k_prime = _nonvertex_count(n, t, s)
    # maximality: raising s by one must overshoot the budget
    assert k_prime <= k < _nonvertex_count(n, t, s + 1)
    return LowerBoundWitness(
        n=n,
        k=k,
        t=t,
        s=s,
        k_prime=k_prime,
        predicted_vertices=2 * cells,
        bound=cells,
        degenerate=False,
    )


# ---------------------------------------------------------------------------
# verification


class WitnessReport(NamedTuple):
    """Outcome of an independent recount of a witness's census.

    findings lists every discrepancy in plain language; an empty tuple
    means the witness checks out.  Counts are None when the witness's
    box is beyond the budget and no recount was made.
    """

    label: str
    expected_vertices: int
    expected_nonvertex: int
    actual_vertices: Optional[int]
    actual_nonvertex: Optional[int]
    total_points: Optional[int]
    realized: bool
    findings: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return not self.findings


def _recount(
    label: str,
    polytope: LatticePolytope,
    expected_vertices: int,
    expected_nonvertex: int,
    findings: list[str],
) -> WitnessReport:
    counts = census(polytope)
    if counts.vertex != expected_vertices:
        findings.append(
            f"recounted {counts.vertex} vertices where {expected_vertices} were claimed"
        )
    if counts.nonvertex != expected_nonvertex:
        findings.append(
            f"recounted {counts.nonvertex} nonvertex points where "
            f"{expected_nonvertex} were claimed"
        )
    return WitnessReport(
        label=label,
        expected_vertices=expected_vertices,
        expected_nonvertex=expected_nonvertex,
        actual_vertices=counts.vertex,
        actual_nonvertex=counts.nonvertex,
        total_points=counts.total,
        realized=True,
        findings=tuple(findings),
    )


def _lower_bound_findings(witness: LowerBoundWitness) -> list[str]:
    """Every claim of the witness that its sheet formulas contradict."""
    n, k, t, s = witness.n, witness.k, witness.t, witness.s
    findings: list[str] = []
    if witness.degenerate:
        if k >= 2 * n:
            findings.append(f"witness flagged degenerate although k = {k} >= 2n")
        if witness.bound != 1 or witness.k_prime != 0:
            findings.append("degenerate witness must carry bound 1 and k_prime 0")
        return findings

    if k < 2 * n:
        findings.append(f"k = {k} < 2n admits no parabolic witness, yet none was flagged")
    if t < 1 or not (2 * n * t ** (n + 1) <= k < 2 * n * (t + 1) ** (n + 1)):
        findings.append(f"t = {t} is not the largest integer with 2n*t^(n+1) <= k")
    cells = t ** (n - 1)
    formula_k_prime = _nonvertex_count(n, t, s)
    if witness.k_prime != formula_k_prime:
        findings.append(
            f"stored k_prime = {witness.k_prime} disagrees with the sheet formulas, "
            f"which give {formula_k_prime}"
        )
    if formula_k_prime > k:
        findings.append(f"cap height s = {s} overshoots the nonvertex budget")
    if _nonvertex_count(n, t, s + 1) <= k:
        findings.append(f"cap height s = {s} is not maximal; s + 1 still fits the budget")
    if witness.predicted_vertices != 2 * cells:
        findings.append(
            f"predicted vertex count {witness.predicted_vertices} is not 2*t^(n-1) = {2 * cells}"
        )
    if witness.bound != cells:
        findings.append(f"recorded bound {witness.bound} is not t^(n-1) = {cells}")
    if not (0 <= k - formula_k_prime <= cells):
        findings.append("budget slack k - k_prime escapes [0, t^(n-1)]")
    return findings


def verify_witness(witness: Union[LowerBoundWitness, ConstructionRecipe]) -> WitnessReport:
    """Build a witness's polytope, recount its census and report every discrepancy.

    The recount never trusts the sheet formulas or recipe arithmetic: the
    hull is built from the stored parameters, its lattice points are
    counted row by row from the facet inequalities, a hull vertex counts
    only if found in its row, and the resulting counts are compared
    against the witness's claims.  A parabolic witness is first checked
    against its sheet formulas, and its recount is skipped when its box
    is beyond the budget.  Mismatches come back as report findings, not
    exceptions, so corrupted witnesses can be inspected.
    """
    if isinstance(witness, ConstructionRecipe):
        label = witness.label
        expected = (witness.expected_vertices, witness.expected_nonvertex)
        findings: list[str] = []
        polytope = tight_witness(witness)
    elif isinstance(witness, LowerBoundWitness):
        label = f"parabolic(n={witness.n}, k={witness.k})"
        expected = (witness.predicted_vertices, witness.k_prime)
        findings = _lower_bound_findings(witness)
        polytope = _parabolic_body(witness)
    else:
        raise TypeError(f"cannot verify object of type {type(witness).__name__}")
    if polytope is None:
        return WitnessReport(
            label=label,
            expected_vertices=expected[0],
            expected_nonvertex=expected[1],
            actual_vertices=None,
            actual_nonvertex=None,
            total_points=None,
            realized=False,
            findings=tuple(findings),
        )
    return _recount(label, polytope, *expected, findings)
