"""Certified rational enclosures for the constant chains of the bounds.

The lower- and upper-bound arguments for quantitative Helly numbers
over Z^n lean on a handful of numeric constants: the volume constant
chain descending from Andrews' vertex bound (xi, c_1, kappa', gamma,
kappa and the derived alpha), the flatness growth term phi(n) =
n^(5/2), and the growth budget beta(n) = (3n)^(5n).  Every inequality
between them that the arguments rely on is certified here with
outward-rounded interval arithmetic over exact rationals: an Enclosure
holds two Fractions known to bracket the true value, pi comes from a
Machin-style alternating series whose partial sums bracket it, Gamma
at half-integers reduces to factorials and sqrt(pi), and fractional
powers use integer-root bisection on scaled numerators.  No floating
point participates in any certification path.

Comparisons are three-valued: an inequality passes only when the
intervals separate, fails only when they separate the other way, and
is otherwise inconclusive, which triggers precision doubling up to a
cap rather than a false certificate.
"""

from __future__ import annotations

from fractions import Fraction
from functools import lru_cache
from math import factorial, gcd
from typing import Iterable, NamedTuple, Optional

from .errors import FrozenRecord
from .extint import integer_root

__all__ = [
    "AndrewsReport",
    "Certificate",
    "ChainLinkReport",
    "Enclosure",
    "andrews_constants",
    "certify_constant_estimates",
    "certify_growth_chain",
    "gamma_half",
    "machin_pi",
]

DEFAULT_PRECISION = 192
MAX_PRECISION = 8192
MIN_PRECISION = 64


def _as_fraction(value) -> Fraction:
    if isinstance(value, float):
        raise TypeError("floats are not allowed in certification paths")
    return Fraction(value)


class Enclosure(FrozenRecord):
    """A closed rational interval guaranteed to contain the true value.

    All operations round outward, so enclosures compose: any chain of
    arithmetic on enclosures yields an enclosure of the exact result.
    """

    __slots__ = ("lo", "hi")

    def __init__(self, lo: Fraction, hi: Fraction) -> None:
        if not (isinstance(lo, Fraction) and isinstance(hi, Fraction)):
            lo, hi = _as_fraction(lo), _as_fraction(hi)
        if lo > hi:
            raise ValueError("enclosure bounds are inverted")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    def __eq__(self, other: object) -> bool:
        return type(other) is Enclosure and (self.lo, self.hi) == (other.lo, other.hi)

    def __hash__(self) -> int:
        return hash((self.lo, self.hi))

    @staticmethod
    def point(value) -> "Enclosure":
        value = _as_fraction(value)
        return Enclosure(value, value)

    def __add__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Enclosure") -> "Enclosure":
        return Enclosure(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other: "Enclosure") -> "Enclosure":
        products = (
            self.lo * other.lo,
            self.lo * other.hi,
            self.hi * other.lo,
            self.hi * other.hi,
        )
        return Enclosure(min(products), max(products))

    def __truediv__(self, other: "Enclosure") -> "Enclosure":
        if other.lo <= 0 <= other.hi:
            raise ZeroDivisionError("division by an enclosure containing zero")
        quotients = (
            self.lo / other.lo,
            self.lo / other.hi,
            self.hi / other.lo,
            self.hi / other.hi,
        )
        return Enclosure(min(quotients), max(quotients))

    def pow_int(self, exponent: int) -> "Enclosure":
        """Integer power, exact (no rounding beyond the input interval)."""
        if exponent == 0:
            return Enclosure.point(1)
        if exponent < 0:
            return Enclosure.point(1) / self.pow_int(-exponent)
        if self.lo >= 0:
            return Enclosure(self.lo**exponent, self.hi**exponent)
        if self.hi <= 0:
            lo, hi = self.lo**exponent, self.hi**exponent
            return Enclosure(min(lo, hi), max(lo, hi))
        # interval straddles zero
        if exponent % 2:
            return Enclosure(self.lo**exponent, self.hi**exponent)
        return Enclosure(Fraction(0), max(self.lo**exponent, self.hi**exponent))

    def root(self, degree: int, precision: int = DEFAULT_PRECISION) -> "Enclosure":
        """Outward-rounded degree-th root of a nonnegative enclosure.

        Bounds land on the grid of multiples of 2^-precision, found by
        integer bisection on scaled numerators; refining the precision
        can only shrink the interval.
        """
        if degree < 1:
            raise ValueError("root degree must be positive")
        if degree == 1:
            return self
        if self.lo < 0:
            raise ValueError("root of an enclosure reaching below zero")
        scale = 1 << precision
        power = scale**degree
        lo_root = integer_root(self.lo.numerator * power // self.lo.denominator, degree)
        hi_scaled = self.hi.numerator * power
        hi_root = integer_root(hi_scaled // self.hi.denominator, degree)
        if hi_root**degree * self.hi.denominator != hi_scaled:
            hi_root += 1
        return Enclosure(Fraction(lo_root, scale), Fraction(hi_root, scale))

    def power(self, p: int, q: int, precision: int = DEFAULT_PRECISION) -> "Enclosure":
        """Rational power x^(p/q) for a positive enclosure, outward-rounded."""
        if q < 1:
            raise ValueError("power denominator must be positive")
        shrink = gcd(abs(p), q)
        if shrink > 1:
            p, q = p // shrink, q // shrink
        if q == 1:
            return self.pow_int(p)
        if self.lo <= 0:
            raise ValueError("fractional powers need a strictly positive enclosure")
        return self.pow_int(p).root(q, precision)

    def __repr__(self) -> str:
        return f"Enclosure({self.lo!r}, {self.hi!r})"


# ---------------------------------------------------------------------------
# three-valued comparison


def certified_le(a: Enclosure, b: Enclosure) -> Optional[bool]:
    """True / False when the intervals separate, None when they overlap."""
    if a.hi <= b.lo:
        return True
    if a.lo > b.hi:
        return False
    return None


def certified_ge(a: Enclosure, b: Enclosure) -> Optional[bool]:
    return certified_le(b, a)


# ---------------------------------------------------------------------------
# pi and Gamma at half-integers


def _atan_inverse(m: int, precision: int) -> Enclosure:
    # arctan(1/m) by its alternating series; consecutive partial sums
    # bracket the limit since the terms decrease strictly
    cutoff = Fraction(1, 1 << (precision + 8))
    total = Fraction(0)
    previous = None
    j = 0
    while True:
        term = Fraction(1, (2 * j + 1) * m ** (2 * j + 1))
        previous = total
        total = total - term if j % 2 else total + term
        if term <= cutoff and j > 0:
            break
        j += 1
    return Enclosure(min(previous, total), max(previous, total))


@lru_cache(maxsize=None)
def machin_pi(precision: int = DEFAULT_PRECISION) -> Enclosure:
    """Certified enclosure of pi via 16*arctan(1/5) - 4*arctan(1/239)."""
    sixteen = Enclosure.point(16)
    four = Enclosure.point(4)
    return sixteen * _atan_inverse(5, precision) - four * _atan_inverse(239, precision)


def _double_factorial(m: int) -> int:
    # (-1)!! = 1 by convention
    result = 1
    while m > 1:
        result *= m
        m -= 2
    return result


def gamma_half(n: int, precision: int = DEFAULT_PRECISION) -> Enclosure:
    """Enclosure of Gamma(n/2) for a positive integer n.

    Even n is an exact factorial; odd n reduces to a double factorial
    times sqrt(pi), the only transcendental ingredient.
    """
    if n < 1:
        raise ValueError("gamma_half needs a positive integer argument")
    if n % 2 == 0:
        return Enclosure.point(factorial(n // 2 - 1))
    sqrt_pi = machin_pi(precision).root(2, precision)
    scale = Enclosure.point(Fraction(_double_factorial(n - 2), 2 ** ((n - 1) // 2)))
    return scale * sqrt_pi


# ---------------------------------------------------------------------------
# verdicts and certification


class Certificate(NamedTuple):
    """Aggregated verdicts of one chain over a range of dimensions."""

    reports: tuple
    failures: tuple[tuple[int, str], ...]
    undecided: tuple[tuple[int, str], ...]

    @property
    def ok(self) -> bool:
        return not self.failures and not self.undecided


def _certify(evaluate, n_values: Iterable[int], precision: int) -> Certificate:
    """Run evaluate(n, precision) for each n, doubling the working precision
    up to MAX_PRECISION while a verdict is inconclusive; the last report
    counts either way, and what is still undecided is never a pass."""
    reports = []
    for n in n_values:
        report = evaluate(n, precision)
        p = precision
        while p < MAX_PRECISION and any(flag is None for _, flag in report.verdicts()):
            p = min(2 * p, MAX_PRECISION)
            report = evaluate(n, p)
        reports.append(report)
    verdicts = [(r.n, name, flag) for r in reports for name, flag in r.verdicts()]
    return Certificate(
        reports=tuple(reports),
        failures=tuple((n, name) for n, name, flag in verdicts if flag is False),
        undecided=tuple((n, name) for n, name, flag in verdicts if flag is None),
    )


# ---------------------------------------------------------------------------
# the volume-constant chain


def _xi(n: int, precision: int) -> Enclosure:
    base = Enclosure.point(Fraction(factorial(n), n ** (2 * n)))
    tail = Enclosure.point(factorial(n - 1))
    lead = Enclosure.point((n - 1) ** (2 * n))
    return lead * base.power(1, n - 1, precision) * tail.power(1, n - 1, precision)


def _c1(n: int, precision: int) -> Enclosure:
    lead = Enclosure.point(Fraction(1, factorial(n)))
    sqrt_np1 = Enclosure.point(n + 1).root(2, precision)
    # ((n-2)!/sqrt(n))^(n/(n-1)) split into a rational power and a
    # certified root of n
    core = Enclosure.point(factorial(n - 2)).power(n, n - 1, precision)
    denom = Enclosure.point(n).power(n, 2 * (n - 1), precision)
    return lead * sqrt_np1 * core / denom


def _kappa_prime(n: int, xi: Enclosure, precision: int) -> Enclosure:
    body = Enclosure.point(factorial(n)) * xi
    left = body.power(-(n - 1), n, precision)
    surface = (
        Enclosure.point(2)
        * machin_pi(precision).power(n, 2, precision)
        / gamma_half(n, precision)
    )
    return left * surface.power(-1, n, precision)


def andrews_constants(n: int, precision: int = DEFAULT_PRECISION) -> "AndrewsReport":
    """Evaluate the volume-constant chain for dimension n with certificates.

    Every constant comes back as an enclosure; the four estimate flags
    are True/False only when certified by interval separation and None
    when the requested precision cannot decide them.
    """
    if n < 2:
        raise ValueError("the constant chain starts at dimension 2")
    if precision < MIN_PRECISION:
        raise ValueError(f"precision below {MIN_PRECISION} bits cannot certify anything")

    xi = _xi(n, precision)
    c1 = _c1(n, precision)
    kappa_prime = _kappa_prime(n, xi, precision)
    gamma = Enclosure.point(Fraction(1, n**n)) * c1
    # at low precision the enclosure of kappa' or of kappa can reach 0,
    # where the fractional powers below are undefined: kappa and alpha
    # are then undecided at this precision, and _certify doubles it
    kappa = alpha_required = alpha_bounded = None
    if kappa_prime.lo > 0:
        kappa = (
            Enclosure.point(Fraction(1, 2 * 3**n))
            * gamma
            * kappa_prime.power(n, n - 1, precision)
        )
    if kappa is not None and kappa.lo > 0:
        alpha_required = kappa.power(-(n - 1), n + 1, precision)
        alpha_bounded = certified_le(alpha_required, Enclosure.point((3 * n) ** (4 * n)))

    return AndrewsReport(
        n=n,
        precision=precision,
        xi=xi,
        c1=c1,
        kappa_prime=kappa_prime,
        kappa=kappa,
        alpha_required=alpha_required,
        xi_bounded=certified_le(xi, Enclosure.point(n ** (2 * n))),
        c1_bounded=certified_ge(c1, Enclosure.point(Fraction(1, n * n))),
        kappa_prime_bounded=certified_ge(
            kappa_prime, Enclosure.point(Fraction(1, 8 * n ** (3 * n)))
        ),
        alpha_bounded=alpha_bounded,
    )


class AndrewsReport(NamedTuple):
    """Constant-chain enclosures for one dimension, with estimate verdicts.

    A verdict of None means the precision used could not separate the
    intervals; it is never silently promoted to a pass.  kappa and
    alpha_required are None when the enclosures they are powers of reach
    0, and alpha_bounded is None with them.
    """

    n: int
    precision: int
    xi: Enclosure
    c1: Enclosure
    kappa_prime: Enclosure
    kappa: Optional[Enclosure]
    alpha_required: Optional[Enclosure]
    xi_bounded: Optional[bool]
    c1_bounded: Optional[bool]
    kappa_prime_bounded: Optional[bool]
    alpha_bounded: Optional[bool]

    def verdicts(self) -> tuple[tuple[str, Optional[bool]], ...]:
        """The four estimate flags, the last four fields, by name."""
        return tuple(zip(self._fields[-4:], self[-4:]))


def certify_constant_estimates(
    n_values: Optional[Iterable[int]] = None,
    *,
    precision: int = DEFAULT_PRECISION,
) -> Certificate:
    """Certify the four closing estimates of the volume-constant chain.

    For each dimension (default 2..12) the checks are: xi(n) <= n^(2n),
    c_1(n) >= 1/n^2, kappa'(n) >= 1/(8 n^(3n)) and the derived vertex
    constant alpha_required(n) <= (3n)^(4n).  Inconclusive comparisons
    trigger precision doubling; anything still undecided at the cap is
    reported as undecided, never as a pass.
    """
    if n_values is None:
        n_values = range(2, 13)
    return _certify(andrews_constants, n_values, precision)


# ---------------------------------------------------------------------------
# the growth chain of the upper-bound recursion


class ChainLinkReport(NamedTuple):
    """Verdicts for the three links of the growth-budget chain at one n.

    The chain bounds (2*phi(n)+1)*(beta(n-1)+2^(n-1)) through the
    midpoint 6*phi(n)*beta(n-1) and the integer 6n^3*(3n)^(5n-5) by the
    budget (3n)^(5n).
    """

    n: int
    precision: int
    phi: Enclosure
    lhs: Enclosure
    mid_integer: int
    budget: int
    first_ok: Optional[bool]
    second_ok: Optional[bool]
    third_ok: Optional[bool]

    def verdicts(self) -> tuple[tuple[str, Optional[bool]], ...]:
        """The three link flags, the last three fields, by name."""
        return tuple(zip(self._fields[-3:], self[-3:]))


def _chain_links(n: int, precision: int) -> ChainLinkReport:
    if n < 2:
        raise ValueError("the growth chain starts at dimension 2")
    phi = Enclosure.point(n).power(5, 2, precision)
    beta_prev = (3 * (n - 1)) ** (5 * (n - 1))
    lhs = (Enclosure.point(2) * phi + Enclosure.point(1)) * Enclosure.point(
        beta_prev + 2 ** (n - 1)
    )
    mid = Enclosure.point(6 * beta_prev) * phi
    mid_integer = 6 * n**3 * (3 * n) ** (5 * n - 5)
    budget = (3 * n) ** (5 * n)
    return ChainLinkReport(
        n=n,
        precision=precision,
        phi=phi,
        lhs=lhs,
        mid_integer=mid_integer,
        budget=budget,
        first_ok=certified_le(lhs, mid),
        second_ok=certified_le(mid, Enclosure.point(mid_integer)),
        third_ok=mid_integer <= budget,
    )


def certify_growth_chain(
    n_values: Optional[Iterable[int]] = None,
    *,
    precision: int = DEFAULT_PRECISION,
) -> Certificate:
    """Certify the three-link growth chain for each dimension (default 2..8).

    The first link absorbs the flatness prefactor 2*phi(n)+1 and the
    carried 2^(n-1) into 6*phi(n)*beta(n-1); the second trades phi(n)
    for n^3 and beta(n-1) for (3n)^(5n-5); the third is pure integer
    arithmetic.  Each link is certified separately.
    """
    if n_values is None:
        n_values = range(2, 9)
    return _certify(_chain_links, n_values, precision)
