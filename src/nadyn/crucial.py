"""Resultant functions on the tree, the slope oracle, and the minimum locus.

ordRes is the t-adic valuation of the Sylvester resultant of a minimal lift
of the chart conjugate; hypRes is its affine renormalisation vanishing at the
Gauss point.  On each ray s -> xi_{a,s} from a centre a, ordRes has a closed
form read off the Taylor shift of the map's lift at a (redux.ray): with
v_j = ord T_j(P - aQ)(a) and w_j = ord T_j(Q)(a),

    ordRes(xi_{a,s}) = ordRes(Gauss) + (d^2 + d) s
                       - 2d min_j min(v_j + j s, w_j + (j + 1) s),

an affine term minus 2d times a min of affine pieces (Rumely, "The minimal
resultant locus", 2015).  hypRes reads the ray alone; only ordRes itself
takes the valuation of the Sylvester determinant at the Gauss point, by
u-adic elimination, never the exact determinant.  Descent along the minimum
locus steps exactly to the first breakpoint of that min.  Slopes along
directions come from two independent routes: the reduction-theoretic formula
(depth and fixedness of the direction) and the closed form itself, whose
one-sided derivative along a rational class is read off the active piece of
least slope on the ray at the class's centre.  A third, fully geometric
evaluation integrates pullback masses along the path from the Gauss point:
phi is composed with charts once per segment, and each probe is a rescaling.
"""

from __future__ import annotations

import enum
from fractions import Fraction
from functools import lru_cache
from math import floor, lcm

from .berkspace import GAUSS, TypeIIPoint, rho, step_into
from .errors import BreakpointUnresolved, DegreeTooLow, IrrationalDirection, Record
from .polys import QPoly, simplest_in
from .respoly import (
    FactorClass,
    FiniteClass,
    InfinityClass,
    INFINITY,
    depth_at,
    divisor_classes,
)
from .redux import (
    IntrinsicReduction,
    Lift,
    RationalMapK,
    _fixes_class,
    chart_lift,
    compose_lifts,
    conjugate_lift,
    intrinsic_data,
    ord_res_of_lift,
    ray,
    reduce_lift,
)
from .lifts import rescaled
from .scalars import KScalar

_MAX_DESCENT_STEPS = 1000
_ZERO = FiniteClass(Fraction(0))


class Verdict(enum.Enum):
    UNSTABLE = "unstable"
    SEMISTABLE_NOT_STABLE = "semistable"
    STABLE = "stable"


class SlopeReport(Record):
    __slots__ = ("cls", "dep", "fixed", "rhs")


class MinLocusResult(Record):
    __slots__ = ("minimizer", "min_hyp_res", "unique", "verdict", "trail", "zero_slope_classes")


def ord_res_for_chart(phi: RationalMapK, m: RationalMapK) -> Fraction:
    """ordRes of the conjugate m^(-1) . phi . m by a degree-1 map m, in t-units."""
    return ord_res_of_lift(conjugate_lift(m.lift, phi.lift))


def _rise(phi: RationalMapK, point: TypeIIPoint) -> Fraction:
    """ordRes(point) - ordRes(Gauss): 0 at Gauss, as stored lifts have minimal valuation 0."""
    d, s = phi.degree, point.exponent
    low = min(alpha + m * s for alpha, m in ray(phi.lift, point.center).pieces)
    return (d * d + d) * s - 2 * d * low


def ord_res(phi: RationalMapK, point: TypeIIPoint) -> Fraction:
    """The resultant function at a type II point, in t-units."""
    return ord_res_of_lift(phi.lift) + _rise(phi, point)


def hyp_res(phi: RationalMapK, point: TypeIIPoint) -> Fraction:
    """Normalised resultant function, vanishing at the Gauss point."""
    d = phi.degree
    if d < 2:
        raise DegreeTooLow("hypRes needs a map of degree >= 2")
    return _rise(phi, point) / (2 * d * (d - 1))


# -- slopes --------------------------------------------------------------------


def _rhs_value(d: int, dep: int, fixed: bool) -> Fraction:
    bonus = Fraction(d - 1, 2) if fixed else Fraction(d + 1, 2)
    return (bonus - dep) / (d - 1)


def slope_rhs(phi: RationalMapK, point: TypeIIPoint, cls) -> SlopeReport:
    """Reduction-theoretic slope of hypRes along the direction class cls at the point."""
    info = intrinsic_data(phi, point)
    dep = depth_at(info.depths, cls)
    fixed = _fixes_class(info, cls)
    return SlopeReport(cls, dep, fixed, _rhs_value(phi.degree, dep, fixed))


# classes the slope table lists even when they carry no depth
_SLOPE_TABLE_EXTRAS = (FiniteClass(Fraction(0)), FiniteClass(Fraction(1)), INFINITY)


def _slope_table(phi: RationalMapK, point: TypeIIPoint) -> list[SlopeReport]:
    """slope_rhs along every class of positive depth, then along 0, 1 and
    infinity where they are missing, all read off one reduction."""
    info = intrinsic_data(phi, point)
    rows = class_slope_data(info)
    listed = [cls for cls, _, _ in rows]
    rows += [(cls, 0, _fixes_class(info, cls)) for cls in _SLOPE_TABLE_EXTRAS if cls not in listed]
    d = phi.degree
    return [SlopeReport(cls, dep, fixed, _rhs_value(d, dep, fixed)) for cls, dep, fixed in rows]


def _ray_slope(phi: RationalMapK, point: TypeIIPoint, cls) -> tuple[Fraction, list[Fraction]]:
    """One-sided slope of hypRes along a rational class, and the distances
    to the crossings of its active piece ahead; the least is the next kink.

    The class is a ray from a centre: a + c*t^s with s rising for the class
    c, a with s falling for infinity.  In x = +-s along it every piece
    alpha + m*s of the closed form is affine in x, the active piece of least
    slope m0 gives the slope (+-(d+1) - 2*m0) / (2(d-1)), and only pieces of
    smaller slope can cross it ahead.
    """
    d, s = phi.degree, point.exponent
    if isinstance(cls, InfinityClass):
        center, sign = point.center, -1
    else:
        center, sign = point.center + KScalar.from_rational(cls.value) * KScalar.t_power(s), 1
    pieces = [(alpha, sign * m) for alpha, m in ray(phi.lift, center).pieces]
    x = sign * s
    low = min(alpha + m * x for alpha, m in pieces)
    alpha0, m0 = min(((alpha, m) for alpha, m in pieces if alpha + m * x == low), key=lambda p: p[1])
    kinks = [(alpha - alpha0) / (m0 - m) - x for alpha, m in pieces if m < m0]
    return Fraction(sign * (d + 1) - 2 * m0, 2 * (d - 1)), kinks


def slope_measured(phi: RationalMapK, point: TypeIIPoint, cls) -> Fraction:
    """One-sided derivative of hypRes along the direction class cls at the
    point, read off the closed form on the ray."""
    if isinstance(cls, FactorClass):
        raise IrrationalDirection("measured slopes need a rational direction")
    if not isinstance(cls, (FiniteClass, InfinityClass)):
        raise TypeError(f"unsupported direction class {cls!r}")
    if phi.degree < 2:
        raise DegreeTooLow("hypRes needs a map of degree >= 2")
    return _ray_slope(phi, point, cls)[0]


# -- direction class inventory --------------------------------------------------


def class_slope_data(info: IntrinsicReduction) -> list[tuple[object, int, bool]]:
    """(class, per-root depth, fixed) for every class of positive depth.

    Parts whose roots mix fixed and moved directions are split by the GCD
    with the tangent's fixed-point form n - z*d, so the flag is well defined
    on each entry; when the point moves the split is plain.
    """
    refine = QPoly.zero()
    if info.fixes_point:
        refine = info.tilde_num - QPoly.x() * info.tilde_den
    return [(cls, i, _fixes_class(info, cls)) for cls, i in divisor_classes(info.depths, refine)]


def _verdict(data: list[tuple[object, int, bool]], d: int) -> Verdict:
    """GIT verdict from the class_slope_data rows at a point."""
    max_all = max((dep for _, dep, _ in data), default=0)
    max_fixed = max((dep for _, dep, fixed in data if fixed), default=0)
    semistable = max_all <= Fraction(d + 1, 2) and max_fixed < Fraction(d, 2)
    if not semistable:
        return Verdict.UNSTABLE
    stable = max_all <= Fraction(d, 2) and max_fixed < Fraction(d - 1, 2)
    return Verdict.STABLE if stable else Verdict.SEMISTABLE_NOT_STABLE


def semistability(phi: RationalMapK, point: TypeIIPoint) -> Verdict:
    """GIT verdict on the reduced coefficient point, by the depth inequalities."""
    return _verdict(class_slope_data(intrinsic_data(phi, point)), phi.degree)


# -- breakpoint machinery --------------------------------------------------------


def _denominator_bound(phi: RationalMapK, point: TypeIIPoint) -> int:
    """Bound on breakpoint denominators: ord-equalities of finitely many
    coefficient monomials with integer slope spread at most 4d."""
    d = phi.degree
    level = lcm(point.center.level, point.exponent.denominator, phi.lift.level)
    return lcm(*range(1, 4 * d + 1)) * level


def _probe_mass(lift: Lift, sigma: Fraction, cls) -> int:
    """Depth in the class of the lift's map after w -> t^sigma w: the mass of
    phi^* delta_gauss on that class's component at the probe (by contravariance)."""
    return depth_at(reduce_lift(rescaled(lift, sigma, 0)).depths, cls)


def _alone(cut: Fraction, lo: Fraction, hi: Fraction, dmax: int) -> bool:
    """Whether cut is the only rational of denominator <= dmax in (lo, hi]."""
    if simplest_in(lo, cut, False, False).denominator <= dmax:
        return False
    return cut == hi or simplest_in(cut, hi, False, True).denominator > dmax


def _step_integral(value, total: Fraction, v_lo, v_hi, dmax: int) -> Fraction:
    """Integral over [0, total] of a non-increasing, right-continuous step
    function with breakpoints on (1/dmax)Z (see _denominator_bound), given
    its value v_lo at 0 and its left limit v_hi at total.

    A jump lies in (lo, hi].  An interval with no lattice point is not
    isolated; one whose only rational of denominator <= dmax is a lattice
    point has the jump there, certified by one probe unless it is hi.  Any
    other interval splits at the simplest rational of its middle half (small
    levels), and a jump left of a split is first sought by one probe at the
    lattice point below it.  A split keeps at most 3/4 of an interval, and
    one shorter than 1/dmax^2 holds at most one rational of denominator <=
    dmax, so the splits nest at most log_{4/3}(total * dmax^2) + 1 deep:
    thousands far from the Gauss point, hence the explicit stack.
    """
    integral = Fraction(0)
    stack = [(Fraction(0), total, v_lo, v_hi)]
    while stack:
        lo, hi, a, b = stack.pop()
        if a == b:
            integral += a * (hi - lo)
            continue
        n = floor(hi * dmax)  # n/dmax is the last lattice point in (lo, hi]
        if n <= lo * dmax:
            raise BreakpointUnresolved(f"breakpoint not isolated at denominator bound {dmax}")
        cut = Fraction(n, dmax)
        if n - 1 <= lo * dmax and _alone(cut, lo, hi, dmax):
            if cut != hi and value(cut) != b:
                raise BreakpointUnresolved(f"snapped breakpoint {cut} failed certification")
            integral += a * (cut - lo) + b * (hi - cut)
            continue
        quarter = (hi - lo) / 4
        mid = simplest_in(lo + quarter, hi - quarter)
        vm = value(mid)
        stack.append((mid, hi, vm, b))
        below = mid - Fraction(1, dmax)
        if a != vm and dmax % mid.denominator == 0 and below > lo:
            vb = value(below)  # no lattice point lies in (below, mid)
            integral += vb * (mid - below)
            stack.append((lo, below, a, vb))
        else:
            stack.append((lo, mid, a, vm))
    return integral


def _path_probes(phi: RationalMapK, point: TypeIIPoint, total: Fraction):
    """hyp_res_direct's step functions of tau on [gauss, point], of length
    total: the mass beyond the probe, whether it lies before the wedge; and
    phi_m, phi after the point's chart.  The path rises to the join xi_{0,m}
    and falls to xi_{c,s}.  A probe on the rise is xi_{0,-tau}, chart
    t^(-tau) w, the point in its class infinity; one on the fall is
    xi_{c,sigma}, chart c + t^sigma w, a translate of the canonical chart
    that puts the point in class 0.  Each probe rescales one composite per
    segment: phi or phi(c + w) on the right for the mass, and phi_m or
    phi_m - c on the left for the wedge (by t^(-sigma)).
    """
    c, s = point.center, point.exponent
    up = (total - s) / 2  # the rise, -m
    phi_c = phi.lift if c.is_zero else compose_lifts(phi.lift, chart_lift(c, 0))
    phi_m = rescaled(phi_c, s, 0)
    psi = phi_m if c.is_zero else compose_lifts(chart_lift(-c, 0), phi_m)

    def probe(tau: Fraction, rise: Lift, fall: Lift) -> tuple:
        return (rise, -tau, INFINITY) if tau < up else (fall, tau + s - total, _ZERO)

    def mass(tau: Fraction) -> int:
        return _probe_mass(*probe(tau, phi.lift, phi_c))

    def before_wedge(tau: Fraction) -> int:
        lift, sigma, cls = probe(tau, phi_m, psi)
        return int(reduce_lift(rescaled(lift, 0, sigma)).image_class == cls)

    return mass, before_wedge, phi_m


def hyp_res_direct(phi: RationalMapK, point: TypeIIPoint) -> Fraction:
    """Evaluate hypRes geometrically: distance, wedge, and path-mass terms.

    Both terms integrate step functions along [gauss, point]: the pullback
    mass beyond the probe, and the indicator that the probe lies before the
    wedge of the image of the point with the point.  Each probe rescales one
    composite of phi with charts per segment of the path (_path_probes), so
    the route is independent of the Sylvester one: it never reads the ray.
    """
    if point == GAUSS:
        return Fraction(0)
    d = phi.degree
    total = rho(GAUSS, point)
    dmax = _denominator_bound(phi, point)
    mass, before_wedge, phi_m = _path_probes(phi, point, total)
    # left limit at the far end: d less the mass toward gauss, in class 0 iff the path only rises
    toward_gauss = _ZERO if total == -point.exponent else INFINITY
    v_hi = d - depth_at(reduce_lift(phi_m).depths, toward_gauss)
    integral = _step_integral(mass, total, mass(Fraction(0)), v_hi, dmax)

    info = intrinsic_data(phi, point)
    if info.fixes_point or info.image_class != toward_gauss:
        wedge = total  # the wedge is the point itself
    else:
        wedge = _step_integral(before_wedge, total, before_wedge(Fraction(0)), 0, dmax)
    return total / 2 + (total - wedge - integral) / (d - 1)


# -- the minimum locus -----------------------------------------------------------


def min_locus(phi: RationalMapK, start: TypeIIPoint = GAUSS) -> MinLocusResult:
    """Descend hypRes from the start point to its minimum locus.

    By convexity there is at most one descending direction per point; the
    step to the next kink is the exact first breakpoint of the closed form
    of ordRes on the ray along that direction.  The descending class is
    always rational: a factor class of degree k >= 2 and per-root depth dep
    has k*dep <= deg H, which a negative slope rules out.  The descent is
    cached per (lift, start).
    """
    return _descent(phi.lift, start)


@lru_cache(maxsize=512)
def _descent(lift: Lift, start: TypeIIPoint) -> MinLocusResult:
    phi = RationalMapK(lift)
    d = phi.degree
    point = start
    trail = []
    for _ in range(_MAX_DESCENT_STEPS):
        data = class_slope_data(intrinsic_data(phi, point))
        slopes = [(cls, _rhs_value(d, dep, fixed)) for cls, dep, fixed in data]
        negatives = [(cls, rhs) for cls, rhs in slopes if rhs < 0]
        if not negatives:
            break
        if len(negatives) > 1:
            raise AssertionError("convexity violation: several descending directions")
        cls, sigma = negatives[0]
        slope, kinks = _ray_slope(phi, point, cls)
        if slope != sigma:
            raise AssertionError("closed-form slope disagrees with the depth formula")
        if not kinks:
            raise AssertionError("descent ray has no breakpoint")
        step = min(kinks)
        trail.append((point, cls, step))
        point = step_into(point, cls, step)
    else:
        raise AssertionError("descent did not terminate")
    verdict = _verdict(data, d)
    if verdict is Verdict.UNSTABLE:
        raise AssertionError("descent terminated at an unstable point")
    return MinLocusResult(
        minimizer=point,
        min_hyp_res=hyp_res(phi, point),
        unique=verdict is Verdict.STABLE,
        verdict=verdict,
        trail=tuple(trail),
        zero_slope_classes=tuple(cls for cls, rhs in slopes if rhs == 0),
    )
