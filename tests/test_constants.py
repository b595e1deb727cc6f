"""Tests for the certified enclosure layer and the constant-chain checks."""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Optional

import pytest

from qhelly.census import CensusStore
from qhelly.constants import (
    MAX_PRECISION,
    Enclosure,
    _certify,
    andrews_constants,
    certify_constant_estimates,
    certify_growth_chain,
    certified_ge,
    certified_le,
    gamma_half,
    machin_pi,
)
from qhelly.errors import DegenerateInputError

# 33-digit brackets around known transcendental values
PI_LO = Fraction(3141592653589793238462643383279502, 10**33)
PI_HI = Fraction(3141592653589793238462643383279503, 10**33)


def width(enclosure: Enclosure) -> Fraction:
    return enclosure.hi - enclosure.lo


def is_point(enclosure: Enclosure) -> bool:
    return enclosure.lo == enclosure.hi


def encloses(outer: Enclosure, inner: Enclosure) -> bool:
    return outer.lo <= inner.lo and inner.hi <= outer.hi


def contains(enclosure: Enclosure, value: Fraction) -> bool:
    return enclosure.lo <= value <= enclosure.hi


def relative_width(enclosure: Enclosure) -> Fraction:
    scale = min(abs(enclosure.lo), abs(enclosure.hi))
    return width(enclosure) if scale == 0 else width(enclosure) / scale


def test_pi_enclosure_brackets_the_true_value():
    pi = machin_pi()
    assert PI_LO < pi.lo <= pi.hi < PI_HI
    assert width(pi) <= Fraction(1, 2**180)


def test_pi_refinement_is_monotone():
    coarse = machin_pi(64)
    for precision in (128, 256, 512):
        fine = machin_pi(precision)
        assert encloses(coarse, fine)
        coarse = fine


def test_gamma_half_even_arguments_are_exact_factorials():
    for n, value in [(2, 1), (4, 1), (6, 2), (8, 6), (10, 24)]:
        enclosure = gamma_half(n)
        assert is_point(enclosure) and enclosure.lo == value


def test_gamma_half_odd_arguments():
    # Gamma(1/2) = sqrt(pi), Gamma(3/2) = sqrt(pi)/2, Gamma(5/2) = 3 sqrt(pi)/4
    for n, lo, hi in [
        (1, "1.772453850905516", "1.772453850905517"),
        (3, "0.886226925452758", "0.886226925452759"),
        (5, "1.329340388179137", "1.329340388179138"),
    ]:
        enclosure = gamma_half(n)
        assert Fraction(lo) < enclosure.lo <= enclosure.hi < Fraction(hi)
    with pytest.raises(ValueError):
        gamma_half(0)


def test_enclosure_rejects_floats_and_inverted_bounds():
    with pytest.raises(TypeError):
        Enclosure.point(0.5)
    with pytest.raises(ValueError):
        Enclosure(Fraction(2), Fraction(1))


def test_enclosure_arithmetic_contains_exact_results():
    rng = random.Random(995511)
    for _ in range(10**4):
        a = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        b = Fraction(rng.randint(-50, 50), rng.randint(1, 30))
        pad_a = Fraction(rng.randint(0, 3), 97)
        pad_b = Fraction(rng.randint(0, 3), 89)
        ea = Enclosure(a - pad_a, a + pad_a)
        eb = Enclosure(b - pad_b, b + pad_b)
        assert contains(ea + eb, a + b)
        assert contains(ea - eb, a - b)
        assert contains(ea * eb, a * b)
        if eb.lo > 0 or eb.hi < 0:
            assert contains(ea / eb, a / b)
        exponent = rng.randint(0, 4)
        assert contains(ea.pow_int(exponent), a**exponent)


def test_pow_int_interval_endpoints():
    straddle = Enclosure(Fraction(-2), Fraction(3))
    assert straddle.pow_int(2) == Enclosure(Fraction(0), Fraction(9))
    assert straddle.pow_int(3) == Enclosure(Fraction(-8), Fraction(27))
    negative = Enclosure(Fraction(-3), Fraction(-1))
    assert negative.pow_int(2) == Enclosure(Fraction(1), Fraction(9))
    assert straddle.pow_int(0) == Enclosure.point(1)
    positive = Enclosure(Fraction(1, 2), Fraction(2))
    assert positive.pow_int(-1) == Enclosure(Fraction(1, 2), Fraction(2))


def test_division_by_interval_containing_zero_raises():
    with pytest.raises(ZeroDivisionError):
        Enclosure.point(1) / Enclosure(Fraction(-1), Fraction(1))


def test_root_soundness_and_exact_hits():
    rng = random.Random(331144)
    for _ in range(300):
        x = Fraction(rng.randint(1, 9999), rng.randint(1, 99))
        degree = rng.choice((2, 3, 5))
        enclosure = Enclosure.point(x).root(degree, 96)
        assert enclosure.lo**degree <= x <= enclosure.hi**degree
        finer = Enclosure.point(x).root(degree, 192)
        assert encloses(enclosure, finer)
    # dyadic-rational roots are detected exactly
    assert is_point(Enclosure.point(Fraction(9, 4)).root(2))
    assert Enclosure.point(Fraction(9, 4)).root(2).lo == Fraction(3, 2)


def test_rational_power_reduction_and_negatives():
    quarter_inverse = Enclosure.point(4).power(-1, 2)
    assert is_point(quarter_inverse) and quarter_inverse.lo == Fraction(1, 2)
    # exponent 2/4 reduces to 1/2
    assert Enclosure.point(9).power(2, 4).lo == 3
    with pytest.raises(ValueError):
        Enclosure(Fraction(-1), Fraction(1)).power(1, 2)
    with pytest.raises(ValueError):
        Enclosure.point(2).power(1, 0)


def test_comparisons_are_three_valued():
    low = Enclosure(Fraction(1), Fraction(2))
    high = Enclosure(Fraction(3), Fraction(4))
    assert certified_le(low, high) is True
    assert certified_le(high, low) is False
    assert certified_ge(high, low) is True
    pi = machin_pi()
    assert certified_le(pi, pi) is None  # overlapping intervals never certify


def test_planar_constants_match_closed_forms():
    report = andrews_constants(2)
    assert is_point(report.xi) and report.xi.lo == Fraction(1, 8)
    # c1(2) = sqrt(3)/4, kappa'(2) = 2/sqrt(2 pi)
    assert Fraction("0.433012701892") < report.c1.lo <= report.c1.hi < Fraction(
        "0.433012701893"
    )
    assert Fraction("0.797884560802") < report.kappa_prime.lo
    assert report.kappa_prime.hi < Fraction("0.797884560803")
    assert all(flag is True for _, flag in report.verdicts())


def test_constant_estimates_certify_through_dimension_twelve():
    certificate = certify_constant_estimates()
    assert certificate.ok
    assert not certificate.failures and not certificate.undecided
    assert [r.n for r in certificate.reports] == list(range(2, 13))
    for report in certificate.reports:
        assert relative_width(report.alpha_required) <= Fraction(1, 10**10)
        assert report.xi_bounded and report.c1_bounded
        assert report.kappa_prime_bounded and report.alpha_bounded


def test_growth_chain_certifies_through_dimension_eight():
    certificate = certify_growth_chain()
    assert certificate.ok
    assert [r.n for r in certificate.reports] == list(range(2, 9))
    planar = certificate.reports[0]
    # (2*2^(5/2)+1)*(3^5+2) ~ 3016.8585822513, against 6*8*6^5 and 6^10
    assert Fraction("3016.858582251") < planar.lhs.lo
    assert planar.lhs.hi < Fraction("3016.858582252")
    assert planar.mid_integer == 373248 and planar.budget == 60466176
    assert planar.verdicts() == (("first_ok", True), ("second_ok", True), ("third_ok", True))
    two_phi_plus_one = Enclosure.point(2) * planar.phi + Enclosure.point(1)
    assert Fraction("12.313708498984") < two_phi_plus_one.lo
    assert two_phi_plus_one.hi < Fraction("12.313708498985")


@dataclass(frozen=True)
class _StubReport:
    n: int
    precision: int
    flag: Optional[bool]

    def verdicts(self):
        return (("flag", self.flag),)


def test_certify_doubles_precision_up_to_the_cap():
    # n = 2 is decided from 1024 bits on, n = 3 never
    def evaluate(n, precision):
        return _StubReport(n, precision, True if n == 2 and precision >= 1024 else None)

    certificate = _certify(evaluate, [2, 3], 192)
    assert [r.precision for r in certificate.reports] == [1536, MAX_PRECISION]
    assert certificate.undecided == ((3, "flag"),)
    assert not certificate.ok and not certificate.failures


def test_certify_records_a_failed_verdict_without_doubling_the_precision():
    # n = 3 fails at once; a failure is decided, so its precision stays
    def evaluate(n, precision):
        return _StubReport(n, precision, n != 3)

    certificate = _certify(evaluate, [2, 3], 192)
    assert [r.precision for r in certificate.reports] == [192, 192]
    assert certificate.failures == ((3, "flag"),)
    assert not certificate.ok and not certificate.undecided


def undecided(report) -> list[str]:
    return [name for name, flag in report.verdicts() if flag is None]


def test_low_precision_leaves_the_powers_of_a_zero_enclosure_undecided():
    # at 64 bits kappa' of n = 10 rounds down to 0, and kappa of n = 9
    report = andrews_constants(10, precision=64)
    assert report.kappa_prime.lo == 0
    assert report.kappa is None and report.alpha_required is None
    assert undecided(report) == ["kappa_prime_bounded", "alpha_bounded"]
    report = andrews_constants(9, precision=64)
    assert report.kappa.lo <= 0 and report.alpha_required is None
    assert undecided(report) == ["alpha_bounded"]
    assert certify_constant_estimates([9, 10], precision=64).ok


def test_precision_and_dimension_validation():
    with pytest.raises(ValueError):
        andrews_constants(2, precision=32)
    with pytest.raises(ValueError):
        andrews_constants(1)
    with pytest.raises(ValueError):
        certify_growth_chain([1])


# ---------------------------------------------------------------------------
# empirical sweep of the vertex bound over the polygon census


def polygon_area_2d(cycle) -> Fraction:
    """Area of a polygon given as a vertex cycle, by the shoelace formula."""
    twice = 0
    n = len(cycle)
    for i in range(n):
        x1, y1 = cycle[i]
        x2, y2 = cycle[(i + 1) % n]
        twice += x1 * y2 - x2 * y1
    return abs(Fraction(twice, 2))


@dataclass(frozen=True)
class EmpiricalReport:
    """Result of sweeping the planar vertex bound over cached census classes.

    The bound vert^3 <= alpha(2)^3 * area is checked with exact
    shoelace areas; cubing both sides avoids any root extraction.
    ratio_peak is the largest vert^3/area encountered, a measure of how
    loose the bound runs in the plane.
    """

    interior_max: int
    classes_checked: int
    ok: bool
    ratio_peak: Fraction
    peak_class: tuple
    violations: tuple

    @property
    def budget(self) -> int:
        """The cubed planar vertex constant alpha(2)^3 = 6^24."""
        return 6**24


def andrews_empirical(store: CensusStore, interior_max: int) -> EmpiricalReport:
    """Check vert(P)^3 <= (6^8)^3 * area(P) over every cached polygon class.

    The census cache must cover interior counts 0..interior_max.  The
    comparison is exact: areas come from the rational shoelace formula
    and both sides stay integers after clearing denominators.
    """
    if interior_max < 0:
        raise DegenerateInputError("interior_max must be nonnegative")
    alpha_cubed = (3 * 2) ** (4 * 2 * 3)
    checked = 0
    ratio_peak = Fraction(0)
    peak_class: tuple = ()
    violations = []
    for i in range(interior_max + 1):
        for cls in store.load(i).classes:
            area = polygon_area_2d(cls.vertices)
            cubed = cls.vertex_count**3
            if cubed > alpha_cubed * area:
                violations.append(cls.vertices)
            ratio = cubed / area
            if ratio > ratio_peak:
                ratio_peak = ratio
                peak_class = cls.vertices
            checked += 1
    return EmpiricalReport(
        interior_max=interior_max,
        classes_checked=checked,
        ok=not violations,
        ratio_peak=ratio_peak,
        peak_class=peak_class,
        violations=tuple(violations),
    )


def test_empirical_vertex_bound_on_a_small_cache(tmp_path):
    store = CensusStore(tmp_path)
    store.ensure(1)
    report = andrews_empirical(store, 1)
    assert report.ok and report.classes_checked == 17
    assert not report.violations
    # the peak ratio belongs to the hexagon: 6^3 / 3
    assert report.ratio_peak == 72
    assert len(report.peak_class) == 6
    assert polygon_area_2d(report.peak_class) == 3
