"""Acceptance gate: one test per criterion, exact values, stated budgets.

Every expected value below was computed with an independent oracle first:
hand Sylvester determinants, reduced-pair GCDs, disk geometry, and the exact
recursion for preimage moduli of the sampled families.
"""

import cmath
import random
import time
from fractions import Fraction

import pytest

from nadyn import (
    FactorClass,
    FiniteClass,
    GAUSS,
    INFINITY,
    TotallyInvariantPoint,
    Verdict,
    chart,
    chordal,
    compose,
    depth_sequence,
    hyp_res,
    hyp_res_direct,
    intrinsic_data,
    min_locus,
    ord_res,
    ord_res_for_chart,
    parse_map,
    parse_point,
    pullback_sample,
    semistability,
    slope_measured,
    slope_rhs,
    specialize,
    tv_distance,
)
from nadyn.crucial import class_slope_data
from nadyn.degeneration import INF_C, auto_hypothesis
from nadyn.polys import QPoly
from nadyn.respoly import HomogeneousForm, squarefree_decomposition
from conftest import (
    CORPUS_SOURCES,
    POINT_SOURCES,
    rand_integral_scalar,
    rand_map,
    rand_point,
    rand_scalar,
    rand_unit_mobius,
)

CORPUS = {src: parse_map(src) for src in CORPUS_SOURCES}
POINTS = {src: parse_point(src) for src in POINT_SOURCES}


def _report(name, ok=True):
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}")
    assert ok


def test_criterion_1_slope_identity():
    start = time.monotonic()
    cases = 0
    for phi in CORPUS.values():
        for point in POINTS.values():
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
                cases += 1
    elapsed = time.monotonic() - start
    assert elapsed < 10.0, f"criterion 1 took {elapsed:.1f}s"
    assert cases >= 90
    _report(f"1 (slope identity, {cases} cases, {elapsed:.2f}s)")


def test_criterion_2_golden_ord_res():
    golden = {"z^2": 0, "t*z^2": 2, "(t*z^2+1)/t": 4, "(z^2-t)/z": 1}
    for src, expected in golden.items():
        assert ord_res(CORPUS[src], GAUSS) == expected
    _report("2 (golden ordRes values at the Gauss point)")


def test_criterion_3_min_locus():
    start = time.monotonic()
    # (z^2-t)/z: the stated oracle is the drop of ordRes from 1 to 0 over
    # distance 1/2, so the minimum value is (0-1)/4 = -1/4
    golden = [
        ("t*z^2", "a=0;s=-1", Fraction(-1, 2)),
        ("(t*z^2+1)/t", "a=0;s=-1/2", Fraction(-3, 4)),
        ("(z^2-t)/z", "a=0;s=1/2", Fraction(-1, 4)),
        ("z^2", "gauss", Fraction(0)),
    ]
    for src, minimizer, value in golden:
        result = min_locus(CORPUS[src])
        assert result.minimizer == parse_point(minimizer), src
        assert result.min_hyp_res == value, src
        assert result.verdict is Verdict.STABLE, src
    elapsed = time.monotonic() - start
    assert elapsed < 5.0, f"criterion 3 took {elapsed:.1f}s"
    _report(f"3 (minimum loci, {elapsed:.2f}s)")


def test_criterion_4_dual_hyp_res():
    for phi in CORPUS.values():
        for point in POINTS.values():
            assert hyp_res_direct(phi, point) == hyp_res(phi, point)
    # the flagship path integral: mass 2 on (0, 1/2) and 0 on (1/2, 1); the
    # path only rises, so the probe at tau is xi_{0,-tau} and the point lies
    # in its class infinity
    from nadyn.crucial import _probe_mass

    phi = CORPUS["t*z^2"]
    target = parse_point("a=0;s=-1")
    assert hyp_res_direct(phi, target) == Fraction(-1, 2)
    for tau, expected in [(Fraction(1, 4), 2), (Fraction(3, 4), 0)]:
        assert _probe_mass(phi.lift, -tau, INFINITY) == expected
    _report("4 (dual hypRes evaluation, exact agreement)")


def test_criterion_5_verdicts_match_minimum_membership():
    d_checked = 0
    for src, phi in CORPUS.items():
        d = phi.degree
        for point in POINTS.values():
            verdict = semistability(phi, point)
            negatives = [
                cls
                for cls, dep, fixed in class_slope_data(intrinsic_data(phi, point))
                if (Fraction(d - 1, 2) if fixed else Fraction(d + 1, 2)) < dep
            ]
            assert (verdict is not Verdict.UNSTABLE) == (not negatives), (src, point)
            if verdict is Verdict.STABLE:
                locus = min_locus(phi)
                assert locus.unique and locus.minimizer == point
            d_checked += 1
    assert d_checked == 30
    _report("5 (verdicts match minimum membership on all corpus points)")


def test_criterion_6_depth_sequence_limits():
    report = depth_sequence(CORPUS["t*z^2"], GAUSS, 4)
    for measure in report.measures:
        assert measure.atoms == ((INFINITY, Fraction(1)),)
        assert measure.point_mass == 0
    assert report.tv_steps == (0, 0, 0)
    assert report.predicted is not None and report.match is True
    assert tv_distance(report.measures[-1], report.predicted) == 0

    circle = FactorClass(QPoly.from_coeffs([1, 0, 1]))
    report = depth_sequence(CORPUS["(t*z^2+1)/t"], parse_point("a=0;s=-1/2"), 2)
    for measure in report.measures:
        assert measure.atoms == ((circle, Fraction(1)),)
        assert measure.point_mass == 0
    assert report.tv_steps == (0,)

    with pytest.raises(TotallyInvariantPoint):
        depth_sequence(CORPUS["z^2"], GAUSS, 2)
    _report("6 (depth sequence limits)")


def test_criterion_7a_mass_conservation():
    rng = random.Random(101)
    for _ in range(200):
        phi = rand_map(rng)
        point = rand_point(rng)
        info = intrinsic_data(phi, point)
        local = info.tilde_degree if info.fixes_point else 0
        assert info.depths.total_degree + local == phi.degree
    _report("7a (mass conservation, 200 random cases)")


def test_criterion_7b_ultrametric_and_residue_laws():
    rng = random.Random(102)
    for _ in range(200):
        x, y = rand_scalar(rng, allow_zero=True), rand_scalar(rng, allow_zero=True)
        assert (x + y).ord() >= min(x.ord(), y.ord())
        if x.ord() != y.ord():
            assert (x + y).ord() == min(x.ord(), y.ord())
    for _ in range(200):
        x, y = rand_integral_scalar(rng), rand_integral_scalar(rng)
        assert (x + y).residue() == x.residue() + y.residue()
        assert (x * y).residue() == x.residue() * y.residue()
    _report("7b (ultrametric and residue morphism laws, 200 random cases)")


def test_criterion_7c_squarefree_reconstruction():
    rng = random.Random(103)
    checked = 0
    while checked < 200:
        polys = []
        for _ in range(rng.randint(1, 2)):
            p = QPoly.from_coeffs([rng.randint(-3, 3) for _ in range(rng.randint(2, 4))])
            if p.degree >= 1 and p.gcd(p.derivative()).degree == 0:
                polys.append(p.monic())
        if not polys or (len(polys) == 2 and polys[0].gcd(polys[1]).degree > 0):
            continue
        dehom = QPoly.one()
        for i, p in enumerate(polys, start=1):
            dehom = dehom * p ** rng.randint(1, 3)
        inf_mult = rng.randint(0, 2)
        h = HomogeneousForm(dehom.degree + inf_mult, dehom)
        divisor = squarefree_decomposition(h)
        acc = QPoly.one()
        for s, i in divisor.parts:
            acc = acc * s**i
        assert acc == dehom.monic()
        assert divisor.inf_mult == inf_mult
        checked += 1
    _report("7c (squarefree reconstruction, 200 random cases)")


def test_criterion_7d_pgl2_invariance():
    rng = random.Random(104)
    for phi in CORPUS.values():
        for _ in range(20):
            point = rand_point(rng)
            base = chart(point)
            unit = rand_unit_mobius(rng)
            assert ord_res_for_chart(phi, compose(base, unit)) == ord_res(phi, point)
    _report("7d (PGL(2, K°) invariance, 20 unit conjugations per map)")


def test_criterion_7e_convexity():
    rng = random.Random(105)
    for _ in range(200):
        phi = rand_map(rng)
        point = rand_point(rng)
        d = phi.degree
        negatives = [
            cls
            for cls, dep, fixed in class_slope_data(intrinsic_data(phi, point))
            if (Fraction(d - 1, 2) if fixed else Fraction(d + 1, 2)) < dep
        ]
        assert len(negatives) <= 1
    _report("7e (convexity: at most one descending direction, 200 cases)")


def test_criterion_7f_slope_quantization():
    rng = random.Random(106)
    checked = 0
    while checked < 200:
        phi = rand_map(rng)
        point = rand_point(rng)
        unit = Fraction(1, 2 * (phi.degree - 1))
        for cls, dep, fixed in class_slope_data(intrinsic_data(phi, point)):
            rhs = slope_rhs(phi, point, cls).rhs
            assert (rhs / unit).denominator == 1
            checked += 1
    _report("7f (slope quantization, 200 random classes)")


def test_criterion_8_degeneration():
    start = time.monotonic()
    z0 = 1 + 1j / 3

    phi = CORPUS["t*z^2"]
    hypothesis = auto_hypothesis(phi)
    assert hypothesis.atoms == ((INFINITY, Fraction(1)),)
    sample = pullback_sample(specialize(phi, 1e-3), z0, 12)
    mass_inf = sum(1 for p in sample if chordal(p, INF_C) <= 0.1) / len(sample)
    assert mass_inf >= 0.99

    phi = CORPUS["(t*z^2+1)/t"]
    hypothesis = auto_hypothesis(phi)
    assert hypothesis.atoms == ((INFINITY, Fraction(1)),)
    sample = pullback_sample(specialize(phi, 1e-4), z0, 12)
    mass_far = sum(1 for p in sample if cmath.isinf(p) or abs(p) > 10) / len(sample)
    assert mass_far >= 0.99

    elapsed = time.monotonic() - start
    assert elapsed < 60.0, f"criterion 8 took {elapsed:.1f}s"
    _report(f"8 (degeneration sampling gates, {elapsed:.2f}s)")
