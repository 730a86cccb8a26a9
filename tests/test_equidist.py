import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from nadyn import (
    DirectionMeasure,
    FactorClass,
    FiniteClass,
    GAUSS,
    INFINITY,
    IterationCapExceeded,
    NadynError,
    QPoly,
    TotallyInvariantPoint,
    depth_sequence,
    min_locus,
    parse_map,
    parse_point,
    predicted_limit,
    totally_invariant,
    tv_distance,
)
import nadyn.crucial
import nadyn.equidist
import nadyn.redux
from nadyn.equidist import level_measures
from conftest import (
    clear_caches,
    count_calls,
    descent_points,
    measure_total,
    rand_map,
    rand_point,
    reference_tv_distance,
)

Z2 = parse_map("z^2")
TZ2 = parse_map("t*z^2")
TZ21T = parse_map("(t*z^2+1)/t")
Z2TZ = parse_map("(z^2-t)/z")
HALF_DOWN = parse_point("a=0;s=-1/2")


def dirac(cls):
    return DirectionMeasure(((cls, Fraction(1)),))


def test_totally_invariant_examples():
    assert totally_invariant(Z2, GAUSS)
    assert not totally_invariant(TZ2, GAUSS)
    assert not totally_invariant(TZ21T, HALF_DOWN)


def test_depth_sequence_tz2():
    report = depth_sequence(TZ2, GAUSS, 4)
    assert report.levels == (1, 2, 3, 4)
    for measure in report.measures:
        assert measure.atoms == ((INFINITY, Fraction(1)),)
        assert measure.point_mass == 0
    assert report.tv_steps == (0, 0, 0)
    assert report.predicted == dirac(INFINITY)
    assert report.match is True


def test_depth_sequence_circle_class():
    report = depth_sequence(TZ21T, HALF_DOWN, 2)
    circle = FactorClass(QPoly.from_coeffs([1, 0, 1]))
    for measure in report.measures:
        assert measure.atoms == ((circle, Fraction(1)),)
    assert report.tv_steps == (0,)
    assert report.predicted is None
    assert report.match is None


def test_depth_sequence_rejects_totally_invariant():
    with pytest.raises(TotallyInvariantPoint):
        depth_sequence(Z2, GAUSS, 2)


def test_predicted_limit_examples():
    assert predicted_limit(TZ2, GAUSS) == dirac(INFINITY)
    assert predicted_limit(Z2TZ, GAUSS) == dirac(FiniteClass(Fraction(0)))
    # minimizer of (tz^2+1)/t does not have good reduction
    assert predicted_limit(TZ21T, GAUSS) is None


def test_predicted_limit_rejects_totally_invariant():
    with pytest.raises(TotallyInvariantPoint):
        predicted_limit(Z2, GAUSS)


def test_tv_distance_examples():
    assert tv_distance(dirac(INFINITY), dirac(INFINITY)) == 0
    assert tv_distance(dirac(INFINITY), dirac(FiniteClass(Fraction(0)))) == 1
    m1 = DirectionMeasure(((INFINITY, Fraction(3, 4)), (FiniteClass(Fraction(0)), Fraction(1, 4))))
    m2 = DirectionMeasure(((INFINITY, Fraction(1, 2)), (FiniteClass(Fraction(0)), Fraction(1, 2))))
    assert tv_distance(m1, m2) == Fraction(1, 4)


def test_tv_distance_refines_factor_classes():
    # z(z-1) against its halves: the refinement splits the class evenly
    pair = FactorClass(QPoly.from_coeffs([0, -1, 1]))
    m1 = dirac(pair)
    m2 = DirectionMeasure(
        ((FiniteClass(Fraction(0)), Fraction(1, 2)), (FiniteClass(Fraction(1)), Fraction(1, 2)))
    )
    assert tv_distance(m1, m2) == 0
    m3 = DirectionMeasure(
        ((FiniteClass(Fraction(0)), Fraction(1)),)
    )
    assert tv_distance(m1, m3) == Fraction(1, 2)


# finite values, infinity and factor classes; z^2 - z and z^2 - 1 have
# rational roots, so a finite atom can sit inside a factor class
_TV_CLASSES = st.sampled_from(
    [INFINITY]
    + [FiniteClass(Fraction(v)) for v in (0, 1, -1, Fraction(1, 2), 2)]
    + [FactorClass(QPoly.from_coeffs(c)) for c in ([0, -1, 1], [-1, 0, 1], [1, 0, 1], [-2, 0, 1], [1, 1, 1])]
)


def _unit_fractions(max_denominator: int):
    """p/q in [0, 1] with q <= max_denominator, drawn as a pair of bounded
    ints: far cheaper to draw than st.fractions, with the same values."""
    pairs = st.tuples(st.integers(0, max_denominator), st.integers(1, max_denominator))
    return pairs.map(lambda pq: Fraction(pq[0] % (pq[1] + 1), pq[1]))


_TV_MEASURES = st.builds(
    lambda atoms, point_mass: DirectionMeasure(tuple(atoms), point_mass),
    st.lists(st.tuples(_TV_CLASSES, _unit_fractions(12)), max_size=5),
    _unit_fractions(6),
)


@settings(max_examples=300, deadline=None)
@given(m1=_TV_MEASURES, m2=_TV_MEASURES)
def test_tv_distance_matches_the_coprime_basis_route(m1, m2):
    # rational atoms compare by key unless a factor class has them as a root
    distance = tv_distance(m1, m2)
    assert type(distance) is Fraction
    assert distance == reference_tv_distance(m1, m2)


def test_mass_bookkeeping_random():
    rng = random.Random(71)
    checked = 0
    while checked < 200:
        phi = rand_map(rng)
        point = rand_point(rng)
        if totally_invariant(phi, point):
            continue
        report = depth_sequence(phi, point, 2)
        for measure in report.measures:
            assert measure_total(measure) == 1
        checked += 1


def test_predicted_limit_matches_sequence_on_corpus():
    # tz^2 reaches its predicted limit from level 1 on
    predicted = predicted_limit(TZ2, GAUSS)
    report = depth_sequence(TZ2, GAUSS, 3)
    assert predicted is not None
    for measure in report.measures:
        assert tv_distance(measure, predicted) == 0
    # (z^2-t)/z fixes the Gauss point with local degree 1, so the point mass
    # decays like 1/2^n toward the predicted Dirac mass
    predicted = predicted_limit(Z2TZ, GAUSS)
    report = depth_sequence(Z2TZ, GAUSS, 3)
    for n, measure in zip(report.levels, report.measures):
        assert measure.point_mass == Fraction(1, 2**n)
        assert tv_distance(measure, predicted) == Fraction(1, 2**n)


def test_tv_steps_are_probability_gaps():
    rng = random.Random(72)
    checked = 0
    while checked < 40:
        phi = rand_map(rng)
        point = rand_point(rng)
        if totally_invariant(phi, point):
            continue
        report = depth_sequence(phi, point, 2)
        for step in report.tv_steps:
            assert 0 <= step <= 1
        checked += 1


def test_depth_sequence_cap_fires_before_any_level_is_computed(monkeypatch):
    levels = count_calls(monkeypatch, "compose_lifts", nadyn.equidist)
    loci = count_calls(monkeypatch, "min_locus", nadyn.equidist)
    with pytest.raises(IterationCapExceeded, match=r"degree 2\^13 exceeds cap 4096"):
        depth_sequence(TZ2, GAUSS, 10**6)
    assert not levels and not loci


# -- one reduction per point, and the error order -----------------------------


def test_depth_sequence_reduces_each_point_once(monkeypatch):
    # one reduction per distinct point: the point itself, which is also
    # level 1, and the points of one descent, whose last reduction says
    # whether the minimizer has good reduction
    cases = [(TZ2, GAUSS, 3), (TZ21T, HALF_DOWN, 2), (TZ21T, GAUSS, 2), (Z2TZ, GAUSS, 1)]
    loci = count_calls(monkeypatch, "min_locus", nadyn.equidist)
    levels = count_calls(monkeypatch, "reduce_lift", nadyn.equidist)
    steps_taken = count_calls(monkeypatch, "_ray_slope", nadyn.crucial)
    for phi, point, n_max in cases:
        clear_caches()
        loci.clear()
        levels.clear()
        steps_taken.clear()
        depth_sequence(phi, point, n_max)
        reductions = nadyn.redux._reduction.cache_info().misses
        steps = sum(steps_taken.values())
        locus = min_locus(phi)
        assert reductions == len({point} | descent_points(locus))
        assert steps == len(locus.trail)  # one descent: one closed-form slope per step
        assert loci == {"nadyn.equidist": 1}
        assert levels["nadyn.equidist"] == n_max - 1


def test_one_level_rescales_nothing(monkeypatch):
    # the chart conjugate is read from level 2 on; at n_max = 1 no lift of it
    # is built, so no rescaling runs at a point off the Gauss point
    phi = parse_map("(z^2+t)/(1+t*z)+1/t")
    rescalings = count_calls(monkeypatch, "rescaled", nadyn.redux, nadyn.crucial)
    for text in ["a=1;s=1", "a=0;s=1/2", "a=t;s=-1"]:
        clear_caches()
        rescalings.clear()
        report = depth_sequence(phi, parse_point(text), 1)
        assert report.levels == (1,) and not rescalings
        depth_sequence(phi, parse_point(text), 2)
        assert rescalings == {"nadyn.redux": 1}  # level 2 reads one chart conjugate


def test_depth_sequence_checks_total_invariance_before_the_cap(monkeypatch):
    loci = count_calls(monkeypatch, "min_locus", nadyn.equidist)
    with pytest.raises(TotallyInvariantPoint):
        depth_sequence(Z2, GAUSS, 10**6)
    assert not loci


def test_depth_sequence_descends_after_the_measures(monkeypatch):
    # no corpus map makes min_locus raise, so a stub stands in for one that does
    levels = count_calls(monkeypatch, "reduce_lift", nadyn.equidist)
    seen = []

    class LocusFailed(NadynError):
        pass

    def failing_locus(phi):
        seen.append(levels["nadyn.equidist"])
        raise LocusFailed("descending direction is irrational")

    monkeypatch.setattr(nadyn.equidist, "min_locus", failing_locus)
    with pytest.raises(LocusFailed):
        depth_sequence(TZ21T, GAUSS, 3)
    assert seen == [2]  # levels 2 and 3 were reduced first
    with pytest.raises(LocusFailed):
        predicted_limit(TZ21T, GAUSS)


def test_level_measures_need_a_level():
    with pytest.raises(ValueError, match="n_max must be at least 1"):
        level_measures(parse_map("(t*z^2+1)/t"), GAUSS, 0)
