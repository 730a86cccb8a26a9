"""Normalised depth-divisor sequences of iterates and their limits.

Each level n produces an atomic probability measure on the direction space
at the point (plus a possible point mass when the iterate fixes the point);
consecutive levels are compared in exact total variation over a common
coprime refinement of the direction classes.  The limit is predicted only in
the potential-good-reduction case, where it is a Dirac mass.
"""

from __future__ import annotations

from fractions import Fraction

from .berkspace import TypeIIPoint, direction_toward
from .errors import Record, TotallyInvariantPoint
from .polys import QPoly, coprime_basis
from .respoly import FactorClass, FiniteClass, InfinityClass, class_degree, sorted_classes
from .redux import (
    RationalMapK,
    chart_conjugate_lift,
    check_iteration_cap,
    compose_lifts,
    intrinsic_data,
    reduce_lift,
)
from .crucial import min_locus


class DirectionMeasure(Record):
    """Atomic measure on the direction space, plus a mass at the point itself."""

    __slots__ = ("atoms", "point_mass")
    _defaults = (Fraction(0),)


class ConvergenceReport(Record):
    __slots__ = ("levels", "measures", "tv_steps", "predicted", "match")  # match is None without a prediction


def totally_invariant(phi: RationalMapK, point: TypeIIPoint) -> bool:
    """Whether the point is totally invariant (good reduction of the conjugate)."""
    return intrinsic_data(phi, point).totally_invariant


def _measure_from_intrinsic(info, d: int, n: int) -> DirectionMeasure:
    scale = Fraction(1, d**n)
    atoms = [(cls, i * class_degree(cls) * scale) for cls, i in sorted_classes(info.depths)]
    point_mass = info.tilde_degree * scale if info.fixes_point else Fraction(0)
    return DirectionMeasure(tuple(atoms), point_mass)


def level_measures(phi: RationalMapK, point: TypeIIPoint, n_max: int) -> list[DirectionMeasure]:
    """Depth measures of the first n_max iterates at the point.

    The chart conjugate psi of phi is lifted once; the n-th iterate of phi at
    the point is the n-th iterate of psi at the Gauss point, and each level
    composes psi with the previous level's lift.  The reduction at the point
    is the level-1 reduction.
    """
    if n_max < 1:
        raise ValueError("n_max must be at least 1")
    info = intrinsic_data(phi, point)
    if info.totally_invariant:
        raise TotallyInvariantPoint(
            "the point is totally invariant; the sequence hypothesis fails"
        )
    d = phi.degree
    for n in range(2, n_max + 1):
        check_iteration_cap(d, n)  # the first level past the cap, before any work
    measures = [_measure_from_intrinsic(info, d, 1)]
    base = current = chart_conjugate_lift(phi.lift, point) if n_max > 1 else None  # only levels 2.. read it
    for n in range(2, n_max + 1):
        current = compose_lifts(base, current)
        measures.append(_measure_from_intrinsic(reduce_lift(current), d, n))
    return measures


def depth_sequence(phi: RationalMapK, point: TypeIIPoint, n_max: int = 4) -> ConvergenceReport:
    """Depth measures of the first n_max iterates at the point, with TV steps."""
    measures = level_measures(phi, point, n_max)
    tv_steps = tuple(
        tv_distance(measures[k], measures[k + 1]) for k in range(len(measures) - 1)
    )
    predicted = predicted_limit(phi, point)
    match = None
    if predicted is not None:
        match = tv_distance(measures[-1], predicted) == 0
    return ConvergenceReport(
        levels=tuple(range(1, n_max + 1)),
        measures=tuple(measures),
        tv_steps=tv_steps,
        predicted=predicted,
        match=match,
    )


def predicted_limit(phi: RationalMapK, point: TypeIIPoint) -> DirectionMeasure | None:
    """Dirac prediction in the potential-good-reduction case, else None.

    When the minimizer of the resultant function has good reduction, the
    equilibrium measure is the Dirac mass there, and its pushforward to the
    direction space at the point is the atom toward the minimizer.
    """
    if totally_invariant(phi, point):
        raise TotallyInvariantPoint("no limit prediction at a totally invariant point")
    minimizer = min_locus(phi).minimizer
    if not totally_invariant(phi, minimizer):
        return None
    return DirectionMeasure(((direction_toward(point, minimizer), Fraction(1)),))


def _class_poly(cls) -> QPoly:
    return QPoly.from_coeffs([-cls.value, 1]) if isinstance(cls, FiniteClass) else cls.poly


def _mass_on(atoms: list[tuple[object, Fraction, QPoly]], q: QPoly) -> Fraction:
    """Mass on the roots of a basis polynomial; an atom's mass is equal per root."""
    total = Fraction(0)
    for cls, mass, p in atoms:
        if isinstance(cls, FiniteClass):
            if q.eval(cls.value) == 0:
                total += mass
        else:
            total += mass * q.gcd(p).degree / p.degree
    return total


def tv_distance(m1: DirectionMeasure, m2: DirectionMeasure) -> Fraction:
    """Exact total variation distance over the common class refinement.

    Infinity, and a rational value that no factor class of either measure
    has as a root, compare by key; only the other atoms are refined over a
    coprime basis of their class polynomials.
    """
    factors = [cls.poly for m in (m1, m2) for cls, _ in m.atoms if isinstance(cls, FactorClass)]
    keyed, refined = ({}, {}), ([], [])
    for measure, mass_of, rest in zip((m1, m2), keyed, refined):
        for cls, mass in measure.atoms:
            apart = isinstance(cls, FiniteClass) and all(p.eval(cls.value) for p in factors)
            if apart or isinstance(cls, InfinityClass):
                mass_of[cls] = mass_of[cls] + mass if cls in mass_of else mass
            else:
                rest.append((cls, mass, _class_poly(cls)))
    spread = abs(m1.point_mass - m2.point_mass)
    for cls in keyed[0].keys() | keyed[1].keys():
        spread += abs(keyed[0].get(cls, 0) - keyed[1].get(cls, 0))
    for q in coprime_basis([p for _, _, p in refined[0] + refined[1]]):
        spread += abs(_mass_on(refined[0], q) - _mass_on(refined[1], q))
    return Fraction(spread, 2)
