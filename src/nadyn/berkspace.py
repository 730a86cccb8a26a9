"""Geometry of the Berkovich tree over K.

Type II points are disks D(a, r^s) stored as a canonical centre (Laurent
expansion truncated strictly below the exponent) plus the rational radius
exponent s, so equal points have equal representations.  The hyperbolic
metric, wedge points, segment parametrisation and directions all reduce to
valuation comparisons of centres.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import OutOfRange, Record, SamePoint
from .redux import RationalMapK, chart_lift
from .respoly import FiniteClass, InfinityClass, INFINITY
from .scalars import KScalar, K_ZERO


class ClassicalInfinity:
    """The classical point infinity of P^1(K)."""

    def __repr__(self):
        return "inf"


CLASSICAL_INF = ClassicalInfinity()


class TypeIIPoint(Record):
    """The disk D(center, r^exponent); the Gauss point is (0, 0)."""

    __slots__ = ("center", "exponent")

    def __init__(self, center: KScalar, exponent):
        exponent = Fraction(exponent)
        object.__setattr__(self, "center", center.truncated_below(exponent))
        object.__setattr__(self, "exponent", exponent)

    def __repr__(self):
        return f"TypeIIPoint(a={self.center.to_str()}, s={self.exponent})"


GAUSS = TypeIIPoint(K_ZERO, Fraction(0))


def chart(point: TypeIIPoint) -> RationalMapK:
    """Canonical chart w -> t^s*w + a, the degree-1 map sending the Gauss point to the point."""
    return RationalMapK(chart_lift(point.center, point.exponent))


def _join_exponent(p1: TypeIIPoint, p2: TypeIIPoint) -> Fraction:
    return min(p1.exponent, p2.exponent, (p1.center - p2.center).ord())


def rho(p1: TypeIIPoint, p2: TypeIIPoint) -> Fraction:
    """Hyperbolic distance in ord units."""
    m = _join_exponent(p1, p2)
    return (p1.exponent - m) + (p2.exponent - m)


def wedge(p1: TypeIIPoint, p2: TypeIIPoint, base: TypeIIPoint = GAUSS) -> TypeIIPoint:
    """Median of the tree triple: the point where [base,p1] and [base,p2] split."""
    tau = (rho(base, p1) + rho(base, p2) - rho(p1, p2)) / 2
    return path_point(base, p1, tau)


def path_point(start: TypeIIPoint, end: TypeIIPoint, tau) -> TypeIIPoint:
    """The unique point of [start, end] at distance tau from start."""
    tau = Fraction(tau)
    total = rho(start, end)
    if tau < 0 or tau > total:
        raise OutOfRange(f"parameter {tau} outside [0, {total}]")
    m = _join_exponent(start, end)
    up = start.exponent - m
    if tau <= up:
        return TypeIIPoint(start.center, start.exponent - tau)
    return TypeIIPoint(end.center, m + (tau - up))


def direction_toward(point: TypeIIPoint, target):
    """The class of the direction at the point containing the target, in
    the canonical chart: a direction at a type II point is its class.

    The target may be a type II point, a classical point of K, or the
    classical infinity.
    """
    if target is CLASSICAL_INF:
        return INFINITY
    if isinstance(target, TypeIIPoint):
        if target == point:
            raise SamePoint("no direction from a point toward itself")
        if target.exponent <= point.exponent:
            return INFINITY
        target = target.center
    elif not isinstance(target, KScalar):
        raise TypeError(f"unsupported target {target!r}")
    centre_gap = target - point.center
    if centre_gap.ord() < point.exponent:
        return INFINITY
    value = (centre_gap / KScalar.t_power(point.exponent)).residue()
    return FiniteClass(value)


def step_into(point: TypeIIPoint, cls, h: Fraction) -> TypeIIPoint:
    """The point at distance h from the point along a direction class."""
    h = Fraction(h)
    if h <= 0:
        raise OutOfRange("step must be positive")
    if isinstance(cls, InfinityClass):
        return TypeIIPoint(point.center, point.exponent - h)
    if isinstance(cls, FiniteClass):
        centre = point.center + KScalar.from_rational(cls.value) * KScalar.t_power(point.exponent)
        return TypeIIPoint(centre, point.exponent + h)
    raise TypeError(f"cannot step along class {cls!r}")
