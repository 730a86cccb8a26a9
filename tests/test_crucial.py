import json
import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nadyn.crucial
import nadyn.redux

from nadyn import (
    BreakpointUnresolved,
    DegreeTooLow,
    FactorClass,
    FiniteClass,
    GAUSS,
    INFINITY,
    IrrationalDirection,
    QPoly,
    Verdict,
    chart,
    compose,
    conjugate,
    degeneration_report,
    depth_sequence,
    direction_toward,
    hyp_res,
    hyp_res_direct,
    intrinsic_data,
    iterate,
    min_locus,
    ord_res,
    ord_res_for_chart,
    parse_map,
    parse_point,
    semistability,
    slope_measured,
    slope_rhs,
    step_into,
)
from nadyn.cli import main
from nadyn.berkspace import TypeIIPoint, rho
from nadyn.crucial import (
    _denominator_bound,
    _path_probes,
    _ray_slope,
    _rhs_value,
    _rise,
    _slope_table,
    _step_integral,
    class_slope_data,
)
from nadyn.redux import _fixes_class, make_map
from nadyn.respoly import class_degree, depth_at
from nadyn.scalars import KScalar
from conftest import (
    clear_caches,
    count_calls,
    rand_laurent_point,
    rand_map,
    rand_point,
    rand_unit_mobius,
    reference_before_wedge,
    reference_probe_mass,
    reference_ray_slope,
    reference_rise,
)

Z2 = parse_map("z^2")
TZ2 = parse_map("t*z^2")
TZ21T = parse_map("(t*z^2+1)/t")
Z2TZ = parse_map("(z^2-t)/z")
HALF_DOWN = parse_point("a=0;s=-1/2")
ONE_DOWN = parse_point("a=0;s=-1")


def test_ord_res_golden_values():
    assert ord_res(Z2, GAUSS) == 0
    assert ord_res(TZ2, GAUSS) == 2
    assert ord_res(TZ21T, GAUSS) == 4
    assert ord_res(Z2TZ, GAUSS) == 1
    assert ord_res(TZ21T, HALF_DOWN) == 1


def test_hyp_res_examples():
    assert hyp_res(TZ2, GAUSS) == 0
    assert hyp_res(TZ2, ONE_DOWN) == Fraction(-1, 2)
    assert hyp_res(TZ21T, HALF_DOWN) == Fraction(-3, 4)


def test_slope_rhs_examples():
    r = slope_rhs(TZ2, GAUSS, INFINITY)
    assert (r.dep, r.fixed, r.rhs) == (2, False, Fraction(-1, 2))
    r = slope_rhs(Z2TZ, GAUSS, FiniteClass(Fraction(0)))
    assert (r.dep, r.fixed, r.rhs) == (1, True, Fraction(-1, 2))
    r = slope_rhs(Z2, GAUSS, FiniteClass(Fraction(0)))
    assert (r.dep, r.fixed, r.rhs) == (0, True, Fraction(1, 2))


def test_slope_rhs_resolves_toward_classes():
    r = slope_rhs(TZ2, GAUSS, direction_toward(GAUSS, ONE_DOWN))
    assert r.cls == INFINITY
    assert r == slope_rhs(TZ2, GAUSS, INFINITY)


def test_slope_measured_examples():
    assert slope_measured(TZ2, GAUSS, INFINITY) == Fraction(-1, 2)
    assert slope_measured(TZ21T, GAUSS, INFINITY) == Fraction(-3, 2)
    assert slope_measured(Z2, GAUSS, FiniteClass(Fraction(1))) == Fraction(1, 2)


def test_slope_measured_along_toward_class():
    cls = direction_toward(GAUSS, ONE_DOWN)
    assert slope_measured(TZ2, GAUSS, cls) == Fraction(-1, 2)


def test_slope_measured_refuses_degree_one_and_non_class_directions():
    with pytest.raises(DegreeTooLow, match="^hypRes needs a map of degree >= 2$"):
        slope_measured(parse_map("t*z"), GAUSS, INFINITY)
    with pytest.raises(TypeError, match="^unsupported direction class 'inf'$"):
        slope_measured(TZ2, GAUSS, "inf")


# A point 10^-8 above the kink at s = -1/2: the slope is read off the ray
# however close the kink lies.
NEAR_KINK = ["slope", "--map", "(t*z^2+1)/t", "--point", "a=0;s=-49999999/100000000"]


@pytest.mark.parametrize("flags", [["--direction", "inf"], []], ids=["inf", "table"])
def test_slope_measured_next_to_a_kink(capsys, monkeypatch, flags):
    monkeypatch.setenv("NADYN_LEVEL_CAP", "100000000")
    assert main([*NEAR_KINK, *flags]) == 0
    out = json.loads(capsys.readouterr().out)
    rows = out["slopes"] if "slopes" in out else [out]
    assert rows[0]["class"] == "inf" and rows[0]["rhs"] == "-3/2"
    assert all(row["measured"] == row["rhs"] for row in rows)


def test_slope_measured_rejects_factor_classes():
    with pytest.raises(IrrationalDirection):
        slope_measured(TZ21T, HALF_DOWN, FactorClass(QPoly.from_coeffs([1, 0, 1])))


def test_hyp_res_direct_examples():
    assert hyp_res_direct(TZ2, ONE_DOWN) == Fraction(-1, 2)
    assert hyp_res_direct(Z2TZ, GAUSS) == 0
    assert hyp_res_direct(TZ21T, HALF_DOWN) == Fraction(-3, 4)


def test_hyp_res_direct_agrees_with_resultant_route(corpus, corpus_points):
    for phi in corpus.values():
        for point in corpus_points.values():
            assert hyp_res_direct(phi, point) == hyp_res(phi, point)


def test_min_locus_golden():
    r = min_locus(TZ2)
    assert r.minimizer == ONE_DOWN
    assert r.min_hyp_res == Fraction(-1, 2)
    assert r.verdict is Verdict.STABLE and r.unique

    r = min_locus(TZ21T)
    assert r.minimizer == HALF_DOWN
    assert r.min_hyp_res == Fraction(-3, 4)
    assert r.verdict is Verdict.STABLE

    r = min_locus(Z2TZ)
    assert r.minimizer == parse_point("a=0;s=1/2")
    # the descent slope is -1/2 over distance 1/2
    assert r.min_hyp_res == Fraction(-1, 4)
    assert r.verdict is Verdict.STABLE

    r = min_locus(Z2)
    assert r.minimizer == GAUSS and r.min_hyp_res == 0
    assert r.verdict is Verdict.STABLE


def test_hyp_res_direct_agrees_on_random_maps():
    rng = random.Random(65)
    for _ in range(20):
        phi = rand_map(rng)
        point = rand_point(rng)
        assert hyp_res_direct(phi, point) == hyp_res(phi, point)


def test_min_locus_custom_start():
    r = min_locus(TZ2, start=parse_point("a=0;s=-2"))
    assert r.minimizer == ONE_DOWN
    assert r.min_hyp_res == Fraction(-1, 2)


def test_semistability_examples():
    assert semistability(TZ2, GAUSS) is Verdict.UNSTABLE
    assert semistability(TZ21T, HALF_DOWN) is Verdict.STABLE
    assert semistability(Z2, GAUSS) is Verdict.STABLE


def test_semistable_not_stable_segment():
    # depth 1 at both fixed directions 0 and infinity with identity tangent:
    # the minimum is attained along a segment through the Gauss point
    phi = parse_map("(t + z^2 + t*z^3)/(z + t*z^3)")
    assert semistability(phi, GAUSS) is Verdict.SEMISTABLE_NOT_STABLE
    r = min_locus(phi)
    assert r.minimizer == GAUSS
    assert r.verdict is Verdict.SEMISTABLE_NOT_STABLE
    assert not r.unique
    assert set(r.zero_slope_classes) == {INFINITY, FiniteClass(Fraction(0))}


def test_slope_identity_on_corpus(corpus, corpus_points):
    for phi in corpus.values():
        for point in corpus_points.values():
            info = intrinsic_data(phi, point)
            classes = [
                cls
                for cls, _, _ in class_slope_data(info)
                if not isinstance(cls, FactorClass)
            ]
            for extra in (FiniteClass(Fraction(0)), FiniteClass(Fraction(1)), INFINITY):
                if extra not in classes:
                    classes.append(extra)
            for cls in classes:
                assert slope_measured(phi, point, cls) == slope_rhs(phi, point, cls).rhs


def test_pgl2_integral_invariance(corpus):
    rng = random.Random(61)
    for phi in corpus.values():
        for _ in range(20):
            point = rand_point(rng)
            m = chart(point)
            u = rand_unit_mobius(rng)
            assert ord_res_for_chart(phi, compose(m, u)) == ord_res(phi, point)


def test_convexity_at_most_one_negative_direction():
    rng = random.Random(62)
    checked = 0
    while checked < 200:
        phi = rand_map(rng)
        point = rand_point(rng)
        info = intrinsic_data(phi, point)
        d = phi.degree
        negatives = [
            cls
            for cls, dep, fixed in class_slope_data(info)
            if (Fraction(d - 1, 2) if fixed else Fraction(d + 1, 2)) < dep
        ]
        assert len(negatives) <= 1
        checked += 1


def test_slope_quantization():
    rng = random.Random(63)
    checked = 0
    while checked < 200:
        phi = rand_map(rng, degree=rng.choice([2, 3]))
        point = rand_point(rng)
        info = intrinsic_data(phi, point)
        d = phi.degree
        unit = Fraction(1, 2 * (d - 1))
        for cls, dep, fixed in class_slope_data(info):
            rhs = slope_rhs(phi, point, cls).rhs
            assert (rhs / unit).denominator == 1
            checked += 1


def test_descent_is_monotone(corpus):
    for phi in corpus.values():
        r = min_locus(phi)
        values = [hyp_res(phi, pt) for pt, _, _ in r.trail] + [r.min_hyp_res]
        assert all(a > b for a, b in zip(values, values[1:]))


def test_minimum_never_unstable():
    rng = random.Random(64)
    for _ in range(25):
        phi = rand_map(rng)
        r = min_locus(phi)
        assert semistability(phi, r.minimizer) is not Verdict.UNSTABLE
        assert r.unique == (r.verdict is Verdict.STABLE)


# The closed form of ordRes on rays against the per-point Sylvester route,
# which conjugates by the chart as a general Mobius map.


def _sylvester_hyp_res(phi, point):
    d = phi.degree
    return (ord_res_for_chart(phi, chart(point)) - ord_res_for_chart(phi, chart(GAUSS))) / (2 * d * (d - 1))


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_closed_form_ord_res_matches_the_sylvester_route(seed):
    rng = random.Random(seed)
    phi = rand_map(rng, degree=rng.choice([2, 3]))
    point = rand_laurent_point(rng)
    assert ord_res(phi, point) == ord_res_for_chart(phi, chart(point))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_hyp_res_is_the_sylvester_rise_over_2d_d_minus_1(seed):
    rng = random.Random(seed)
    phi = rand_map(rng, degree=rng.choice([2, 3]))
    point = rand_laurent_point(rng)
    d = phi.degree
    rise = ord_res_for_chart(phi, chart(point)) - ord_res_for_chart(phi, chart(GAUSS))
    assert 2 * d * (d - 1) * hyp_res(phi, point) == rise


def test_hyp_res_vanishes_at_gauss_on_rescaled_and_composed_maps():
    rng = random.Random(12)
    for _ in range(12):
        phi = rand_map(rng, degree=rng.choice([2, 3]))
        psi = rand_map(rng, degree=2)
        c = KScalar.from_rational(Fraction(rng.choice([-3, 2, 5]), rng.choice([1, 7])))
        scale = c * KScalar.t_power(rng.randint(-3, 3))
        maps = [
            make_map([x * scale for x in phi.num], [x * scale for x in phi.den]),
            compose(phi, psi),
            compose(psi, phi),
            iterate(psi, 2),
            conjugate(chart(rand_laurent_point(rng)), phi),
        ]
        for chi in maps:
            assert hyp_res(chi, GAUSS) == 0


def test_only_ord_res_takes_the_sylvester_determinant(monkeypatch):
    point = parse_point("a=1;s=1/2")
    clear_caches()
    dets = count_calls(monkeypatch, "ord_res_of_lift", nadyn.crucial, nadyn.redux)
    hyp_res(TZ21T, point)
    slope_measured(TZ21T, point, INFINITY)
    min_locus(TZ21T)
    depth_sequence(TZ21T, GAUSS, 2)
    degeneration_report(TZ21T, [1e-3], 3)
    assert sum(dets.values()) == 0
    ord_res(TZ21T, point)
    assert dets == {"nadyn.crucial": 1}


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_descent_steps_end_exactly_at_kinks(seed):
    rng = random.Random(seed)
    phi = rand_map(rng, degree=rng.choice([2, 3]))
    result = min_locus(phi, rand_laurent_point(rng))
    assert not any(isinstance(cls, FactorClass) for _, cls, _ in result.trail)
    for point, cls, step in result.trail:
        sigma = slope_rhs(phi, point, cls).rhs
        base = _sylvester_hyp_res(phi, point)
        for h in (step / 64, step / 2, step, step * 4 / 3):
            value = _sylvester_hyp_res(phi, step_into(point, cls, h))
            if h <= step:
                assert value == base + sigma * h
            else:
                assert value > base + sigma * h


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ray_slope_and_first_kink_match_the_sylvester_route(seed):
    rng = random.Random(seed)
    phi = rand_map(rng, degree=rng.choice([2, 3]))
    point = rand_laurent_point(rng)
    base = _sylvester_hyp_res(phi, point)
    # every class of positive depth, then 0, 1 and infinity
    for cls in (row.cls for row in _slope_table(phi, point)):
        if isinstance(cls, FactorClass):
            continue
        slope, kinks = _ray_slope(phi, point, cls)
        h = min(kinks, default=Fraction(1))
        assert _sylvester_hyp_res(phi, step_into(point, cls, h)) == base + slope * h
        if kinks:
            assert _sylvester_hyp_res(phi, step_into(point, cls, h * 4 / 3)) > base + slope * h * 4 / 3


# A descending direction is never a factor class: a class of degree k >= 2
# and per-root depth dep has k*dep <= deg H, while a negative slope needs
# dep > (d+1)/2 on a moved class (k*dep > d >= deg H) or dep > (d-1)/2 on a
# fixed one (the point is then fixed, so deg H <= d-1 < k*dep).  Factor
# classes turn up at the Gauss point for about one random map in twelve.


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_no_descending_factor_class(seed):
    rng = random.Random(seed)
    phi = rand_map(rng, degree=rng.choice([2, 3]))
    for point in (GAUSS, rand_laurent_point(rng)):
        for cls, dep, fixed in class_slope_data(intrinsic_data(phi, point)):
            if _rhs_value(phi.degree, dep, fixed) < 0:
                assert not isinstance(cls, FactorClass)


# The direction-class splitter.  One map is known to cut a squarefree part
# of its depth divisor along the tangent's fixed-point form: at the Gauss
# point H = z^4 - z^2 - 2, and the tangent fixes the roots of z^2 + 1 but
# moves those of z^2 - 2.

MIXED = "((z^2+1)*(z^2-2)*(z^2+z+1)+t)/((z^2+1)*(z^2-2)+t*z^6)"


@pytest.mark.parametrize(
    "extra, code, stdout",
    [
        (
            ["depths"],
            0,
            '{"parts": [{"poly": "z^4 - z^2 - 2", "multiplicity": 1}], "inf_mult": 0, "deg_h": 4, '
            '"classes": [{"class": "factor", "poly": "z^4 - z^2 - 2", "depth": 1}]}\n',
        ),
        (
            ["slope"],
            0,
            '{"slopes": [{"class": "factor", "poly": "z^2 + 1", "dep": 1, "fixed": true, "rhs": "3/10", '
            '"measured": null}, {"class": "factor", "poly": "z^2 - 2", "dep": 1, "fixed": false, '
            '"rhs": "1/2", "measured": null}, {"class": "finite", "value": "0/1", "dep": 0, '
            '"fixed": false, "rhs": "7/10", "measured": "7/10"}, {"class": "finite", "value": "1/1", '
            '"dep": 0, "fixed": false, "rhs": "7/10", "measured": "7/10"}, {"class": "inf", "dep": 0, '
            '"fixed": true, "rhs": "1/2", "measured": "1/2"}]}\n',
        ),
        (
            ["slope", "--direction", "factor=z^4-z^2-2"],
            2,
            '{"error": "class z^4 - z^2 - 2 mixes fixed and moved directions", '
            '"type": "AmbiguousClass"}\n',
        ),
        (
            ["slope", "--direction", "factor=z^2+1"],
            0,
            '{"class": "factor", "poly": "z^2 + 1", "dep": 1, "fixed": true, "rhs": "3/10", '
            '"measured": null}\n',
        ),
    ],
    ids=["depths", "slope", "slope-mixed-class", "slope-fixed-half"],
)
def test_mixed_class_is_split_along_the_fixed_point_form(capsys, extra, code, stdout):
    verb, *flags = extra
    assert main([verb, "--map", MIXED, "--point", "gauss", *flags]) == code
    out = capsys.readouterr()
    assert (out.out, out.err) == (stdout, "")


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_class_slope_data_rows_agree_with_depth_and_fixedness(seed):
    rng = random.Random(seed)
    phi = rand_map(rng, degree=rng.choice([2, 3]))
    info = intrinsic_data(phi, rand_laurent_point(rng))
    rows = class_slope_data(info)
    for cls, dep, fixed in rows:
        assert dep == depth_at(info.depths, cls)
        assert fixed == _fixes_class(info, cls)
    assert sum(class_degree(cls) * dep for cls, dep, _ in rows) == info.depths.total_degree


# _step_integral on synthetic non-increasing, right-continuous step functions:
# steps is a list of (breakpoint, value from there on), the first at 0.


def _step_function(steps, total):
    probes = []

    def value(tau):
        assert 0 < tau < total, f"probe at {tau} outside (0, total)"
        probes.append(tau)
        return [v for x, v in steps if x <= tau][-1]

    return value, probes


def _integral(steps, total, dmax):
    value, probes = _step_function(steps, total)
    left_limit = [v for x, v in steps if x < total][-1]
    return _step_integral(value, total, steps[0][1], left_limit, dmax), probes


def test_step_integral_jump_at_a_dyadic_midpoint():
    steps = [(0, 2), (Fraction(1, 2), 0)]
    result, probes = _integral(steps, Fraction(1), 2)
    assert result == 1
    assert probes == [Fraction(1, 2)]  # the snap at the midpoint needs no certificate
    # on a fine lattice, one probe at the lattice point below pins the jump
    result, probes = _integral(steps, Fraction(1), 10**6)
    assert result == 1
    assert probes == [Fraction(1, 2), Fraction(1, 2) - Fraction(1, 10**6)]


def test_step_integral_jump_at_total_is_left_out():
    # the far end enters through its left limit, so a jump there is invisible
    total = Fraction(1)
    result, probes = _integral([(0, 2), (Fraction(1, 3), 1), (total, 0)], total, 3)
    assert result == Fraction(2, 3) + Fraction(2, 3)


def test_step_integral_splits_two_jumps():
    steps = [(0, 2), (Fraction(1, 3), 1), (Fraction(2, 3), 0)]
    result, probes = _integral(steps, Fraction(1), 3)
    assert result == 1
    # the split at 1/2 sees the jump at 1/3 left of it; the split at 2/3 is
    # itself the second jump
    assert probes[0] == Fraction(1, 2)
    assert sorted(probes) == [Fraction(1, 3), Fraction(1, 2), Fraction(2, 3)]


def test_step_integral_constant_makes_no_probe():
    result, probes = _integral([(0, 3)], Fraction(7, 4), 5)
    assert result == Fraction(21, 4)
    assert probes == []


def test_step_integral_rejects_an_uncertified_snap():
    # the only candidate of denominator 1 in (0, 3/2] is 1, but the jump is at 5/4
    with pytest.raises(BreakpointUnresolved, match="certification"):
        _integral([(0, 1), (Fraction(5, 4), 0)], Fraction(3, 2), 1)


def test_step_integral_gives_up_at_the_depth_cap():
    # a jump at sqrt(2) is never isolated among denominators up to 10^80
    def value(tau):
        return 1 if tau * tau < 2 else 0

    with pytest.raises(BreakpointUnresolved, match="not isolated"):
        _step_integral(value, Fraction(2), 1, 0, 10**80)


def test_hyp_res_direct_pins_simple_breakpoints_at_high_level():
    # a degree-3 map at a level-15 point: the wedge sits at the corner 5/3 of
    # the path, which dyadic bisection of [0, 77/15] approached only past the
    # hard level cap
    phi = parse_map(
        "(((3*t^2 + 2)/(t^3 - 4*t))*z^3 + ((-3*t^2 + 4)/(t^2 - 4))*z^2 + (-2*t^2/(t^2 - 4))*z)"
        "/((-3*t/(t^2 - 4))*z^3 + (4/(t^3 - 4*t))*z + 1)"
    )
    point = parse_point("a=3/2*t^(-5/3);s=9/5")
    assert hyp_res_direct(phi, point) == hyp_res(phi, point) == Fraction(43, 10)


def test_hyp_res_direct_isolates_breakpoints_far_from_gauss():
    # the path is about 10^300 long, so isolating its breakpoints takes
    # about 2,400 levels of splits, and its probes carry u^(10^300)
    phi = parse_map("(t*z^2+1)/t")
    point = parse_point("a=2*t^(-2/3) - t;s=1e300")
    start = time.perf_counter()
    assert hyp_res_direct(phi, point) == hyp_res(phi, point)
    assert time.perf_counter() - start < 5


# Rumely's characterisation of the type II minimal locus: hypRes is minimal
# exactly where the reduction is semistable, and a stable point is the
# unique minimizer.  Both hypRes routes are checked at each point.


@settings(max_examples=400, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_minimal_locus_is_the_semistable_locus(seed):
    rng = random.Random(seed)
    phi = rand_map(rng, degree=rng.choice([2, 3]))
    locus = min_locus(phi)
    for point in (rand_point(rng), rand_laurent_point(rng), locus.minimizer, GAUSS):
        value = hyp_res(phi, point)
        assert hyp_res_direct(phi, point) == value
        assert value >= locus.min_hyp_res
        verdict = semistability(phi, point)
        assert (value == locus.min_hyp_res) == (verdict is not Verdict.UNSTABLE)
        if verdict is Verdict.STABLE:
            assert locus.unique and locus.minimizer == point


# hyp_res_direct composes phi with charts once per segment of [gauss, point]
# and reads every probe off a rescaling; the per-probe composites it replaced
# are the oracle.  rand_point gives paths that only rise (s < 0) or only
# fall (s > 0, ord c >= 0), and with rand_laurent_point (levels 1-3) paths
# that rise to the join and fall (ord c < 0).


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_segment_probes_match_the_per_probe_composites(seed):
    rng = random.Random(seed)
    phi = rand_map(rng, degree=rng.choice([2, 3]))
    point = rand_point(rng) if rng.random() < 0.5 else rand_laurent_point(rng)
    if point == GAUSS:
        return
    total = rho(GAUSS, point)
    up = -min(0, point.exponent, point.center.ord())  # the join is at distance up
    mass, before_wedge, _ = _path_probes(phi, point, total)
    for tau in {Fraction(0), up, total * Fraction(rng.randint(1, 99), 100)} - {total}:
        assert mass(tau) == reference_probe_mass(phi, point, tau), tau
        assert before_wedge(tau) == reference_before_wedge(phi, point, tau), tau


def test_hyp_res_direct_reads_the_ray_only_through_the_reduction_at_the_point(monkeypatch):
    # the two hypRes routes stay independent: no probe reads the ray or its
    # Taylor shift; only intrinsic_data at the point itself does
    phi = parse_map("1/t + (z - 1/t)^2/t^3")
    point = parse_point("a=1/t;s=2")
    rays = count_calls(monkeypatch, "ray", nadyn.redux, nadyn.crucial)
    shifts = count_calls(monkeypatch, "taylor_shift", nadyn.redux)
    clear_caches()
    assert hyp_res_direct(phi, point) == -3
    assert rays == {"nadyn.redux": 1} and shifts == {"nadyn.redux": 1}


def test_reductions_and_path_probes_build_no_rescaled_lift(monkeypatch):
    # the reduction at a point and every probe read their rescaling off a
    # lift's lowest terms; only phi_m, built once per path, is a rescaled lift
    phi = parse_map("1/t + (z - 1/t)^2/t^3")
    point = parse_point("a=1/t;s=2")
    mass, before_wedge, _ = _path_probes(phi, point, rho(GAUSS, point))
    calls = count_calls(monkeypatch, "rescaled", nadyn.redux, nadyn.crucial)
    clear_caches()
    intrinsic_data(phi, point)
    for tau in (0, Fraction(1, 2), 1, 3, Fraction(7, 2)):
        assert mass(tau) == reference_probe_mass(phi, point, tau)
        assert before_wedge(tau) == reference_before_wedge(phi, point, tau)
    assert calls == {}


# the closed form of ordRes on a ray runs on integer pieces over the ray's
# level; the Fraction route it replaced is the oracle, value and type


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_closed_form_on_integer_pieces_matches_the_fraction_route(seed):
    rng = random.Random(seed)
    phi = rand_map(rng, rng.randint(2, 5))
    point = rand_point(rng) if rng.random() < 0.5 else rand_laurent_point(rng)
    rise, want = _rise(phi, point), reference_rise(phi, point)
    assert (rise, type(rise)) == (want, type(want))
    value = Fraction(rng.randint(-3, 3), rng.randint(1, 3))
    for cls in (INFINITY, FiniteClass(Fraction(0)), FiniteClass(value)):
        slope, kinks = _ray_slope(phi, point, cls)
        want_slope, want_kinks = reference_ray_slope(phi, point, cls)
        assert (slope, kinks) == (want_slope, want_kinks)
        assert all(type(k) is Fraction for k in [slope, *kinks])


def test_segment_probes_follow_an_image_above_the_point():
    # phi moves xi_{1/t,2} up its own branch to xi_{1/t,1}, past the join
    # xi_{0,-1}: the image lies in the class infinity of every probe on the
    # rise, but in class 0 after the translation by -1/t
    phi = parse_map("1/t + (z - 1/t)^2/t^3")
    point = parse_point("a=1/t;s=2")
    _, before_wedge, _ = _path_probes(phi, point, rho(GAUSS, point))
    assert [before_wedge(tau) for tau in (0, Fraction(1, 2), 1, 3, Fraction(7, 2))] == [1, 1, 1, 0, 0]
    assert hyp_res_direct(phi, point) == hyp_res(phi, point) == -3


def _zero_slope_classes(phi, point) -> list:
    d = phi.degree
    return [cls for cls, dep, fixed in class_slope_data(intrinsic_data(phi, point)) if _rhs_value(d, dep, fixed) == 0]


def _walk_minimal_segment(phi, start, cls, minimum) -> TypeIIPoint:
    """Follow the minimal segment from start into the class, kink by kink,
    checking every kink and midpoint on the way; return the far end."""
    point = start
    while True:
        slope, kinks = _ray_slope(phi, point, cls)
        assert slope == 0 and kinks
        step = min(kinks)
        for h in (step / 2, step):
            inside = step_into(point, cls, h)
            assert hyp_res(phi, inside) == minimum == hyp_res_direct(phi, inside)
            assert semistability(phi, inside) is not Verdict.UNSTABLE
        back = direction_toward(inside, point)
        point = inside
        ahead = [c for c in _zero_slope_classes(phi, point) if c != back]
        if not ahead:
            return point
        (cls,) = ahead  # a segment does not branch
        assert not isinstance(cls, FactorClass)


def test_minimal_segments_are_semistable_to_their_ends():
    # Rumely's minimal locus is a point or a segment; a random map of degree
    # 3 has a segment about one time in three, and of degree 2 or 4 none in
    # hundreds (at degree 5, 1/dmax would pass the hard level cap).  Walk it
    # from the minimizer along each zero-slope class, then step 1/dmax off
    # each end along every class without zero slope there
    rng = random.Random(13)
    segments = 0
    while segments < 120:
        phi = rand_map(rng, degree=3)
        locus = min_locus(phi)
        if not locus.zero_slope_classes:
            continue
        segments += 1
        assert len(locus.zero_slope_classes) <= 2
        assert not any(isinstance(cls, FactorClass) for cls in locus.zero_slope_classes)
        ends = [_walk_minimal_segment(phi, locus.minimizer, cls, locus.min_hyp_res) for cls in locus.zero_slope_classes]
        if len(ends) == 1:
            ends.append(locus.minimizer)
        assert ends[0] != ends[1]
        for end in ends:
            dmax = _denominator_bound(phi, end)
            flat = _zero_slope_classes(phi, end)
            assert len(flat) == 1
            for cls in {INFINITY, FiniteClass(Fraction(0)), FiniteClass(Fraction(1))} - set(flat):
                past = step_into(end, cls, Fraction(1, dmax))
                assert hyp_res(phi, past) > locus.min_hyp_res
                assert semistability(phi, past) is Verdict.UNSTABLE
