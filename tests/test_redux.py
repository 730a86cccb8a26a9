import random
import time
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

import nadyn.polys
import nadyn.redux
from nadyn import (
    DegenerateMap,
    FactorClass,
    FiniteClass,
    GAUSS,
    INFINITY,
    IterationCapExceeded,
    KScalar,
    LevelCapExceeded,
    TypeIIPoint,
    chart,
    compose,
    conjugate,
    depth_sequence,
    hyp_res,
    hyp_res_direct,
    intrinsic_data,
    iterate,
    min_locus,
    ord_res,
    ord_res_for_chart,
    parse_map,
    parse_point,
    reduction_at,
    slope_rhs,
)
from nadyn.polys import QPoly
from nadyn.lifts import Lift
from nadyn.redux import (
    RationalMapK,
    chart_conjugate_lift,
    compose_lifts,
    _shift_out,
    _sylvester_det,
    _sylvester_val,
    chart_lift,
    conjugate_lift,
    make_map,
    ray,
    reduce_lift,
    sylvester_resultant,
)
from nadyn.respoly import divisor_classes, split_classes
from conftest import (
    CORPUS_SOURCES,
    chart_by_scalars,
    clear_caches,
    count_calls,
    minimal_lift,
    mobius,
    rand_laurent_point,
    rand_map,
    rand_point,
    rand_unit_mobius,
    reference_divisor_classes,
    reference_reduce_lift,
    reference_split_classes,
    rescaled_reference_reduce_lift,
    typed,
    typed_reduction,
)

Z2 = parse_map("z^2")
TZ2 = parse_map("t*z^2")
TZ21T = parse_map("(t*z^2+1)/t")
Z2TZ = parse_map("(z^2-t)/z")


def scal(v):
    return KScalar.from_rational(v)


def test_make_map_examples():
    phi = make_map([scal(0), scal(0), KScalar.t_power(1)], [scal(1), scal(0), scal(0)])
    assert phi.degree == 2
    assert phi == TZ2
    with pytest.raises(DegenerateMap):
        make_map([scal(1), scal(0), scal(1)], [scal(1), scal(0), scal(1)])


def test_make_map_rejects_degree_drop():
    # padded degree-1 map has a common projective root at infinity
    with pytest.raises(DegenerateMap):
        make_map([scal(0), scal(1), scal(0)], [scal(1), scal(0), scal(0)])


def test_compose_and_iterate_examples():
    assert iterate(TZ2, 2) == parse_map("t^3*z^4")
    assert iterate(TZ2, 1) == TZ2
    assert compose(Z2, Z2) == parse_map("z^4")
    assert compose(TZ2, Z2TZ).degree == 4


def test_iterate_cap():
    with pytest.raises(IterationCapExceeded):
        iterate(Z2, 13)


def test_conjugate_examples():
    m = mobius(KScalar.t_power(-1), scal(0), scal(0), scal(1))
    assert conjugate(m, TZ2) == Z2
    ident = mobius(scal(1), scal(0), scal(0), scal(1))
    assert conjugate(ident, Z2TZ) == Z2TZ
    mu = mobius(KScalar.t_power(Fraction(1, 2)), scal(0), scal(0), scal(1))
    assert conjugate(mu, Z2TZ) == parse_map("(z^2-1)/z")


def test_a_mobius_map_can_be_written_in_the_map_grammar():
    m = parse_map("t*z + 1")
    assert m == mobius(KScalar.t_power(1), scal(1), scal(0), scal(1))
    for text in CORPUS_SOURCES:
        phi = parse_map(text)
        assert conjugate(m, phi) == conjugate(mobius(KScalar.t_power(1), scal(1), scal(0), scal(1)), phi)


def test_conjugating_by_a_map_of_degree_other_than_1_is_refused():
    m = parse_map("z^2 + t")
    with pytest.raises(ValueError, match="a Mobius map has degree 1"):
        conjugate(m, TZ2)
    with pytest.raises(ValueError, match="a Mobius map has degree 1"):
        ord_res_for_chart(TZ2, m)


def test_conjugate_preserves_degree_and_resultant_nonzero():
    rng = random.Random(51)
    for _ in range(50):
        phi = rand_map(rng)
        m = rand_unit_mobius(rng)
        psi = conjugate(m, phi)
        assert psi.degree == phi.degree
        assert not sylvester_resultant(psi.den, psi.num).is_zero


def test_minimal_lift_examples():
    num, den = minimal_lift(TZ2)
    assert min(c.ord() for c in num + den if not c.is_zero) == 0
    num, den = minimal_lift(TZ21T)
    assert [c.ord() for c in num] == [0, float("inf"), 1]
    # common content is removed
    scaled = make_map(
        [c * KScalar.t_power(2) for c in TZ2.num],
        [c * KScalar.t_power(2) for c in TZ2.den],
    )
    n1, d1 = minimal_lift(scaled)
    n0, d0 = minimal_lift(TZ2)
    assert (n1, d1) == (n0, d0)


def test_minimal_lift_property():
    rng = random.Random(52)
    for _ in range(200):
        phi = rand_map(rng)
        num, den = minimal_lift(phi)
        ords = [c.ord() for c in num + den if not c.is_zero]
        assert min(ords) == 0


def test_reduce_lift_examples():
    red = reduce_lift(TZ2.lift)
    assert red.h.degree == 2 and red.h.inf_mult == 2
    assert red.tilde_degree == 0 and not red.fixes_point
    assert red.image_class == FiniteClass(Fraction(0))

    red = reduce_lift(Z2.lift)
    assert red.h.degree == 0 and red.totally_invariant
    assert red.tilde_degree == 2 and red.fixes_point
    assert red.tilde_num.to_str("z") == "z^2"
    assert red.image_class is None

    red = reduce_lift(Z2TZ.lift)
    assert red.h.degree == 1 and not red.totally_invariant
    assert red.h.dehom.to_str("z") == "z"
    assert red.tilde_degree == 1
    # the tangent map is the identity
    assert red.tilde_num.to_str("z") == "z" and red.tilde_den.to_str("z") == "1"


def test_depths_are_built_on_first_use_and_kept():
    red = reduce_lift(Z2TZ.lift)  # a fresh record: reduction_at shares cached ones
    assert "depths" not in vars(red)
    assert red.depths is red.depths
    assert [(s.to_str("z"), i) for s, i in red.depths.parts] == [("z", 1)]
    # the cached divisor is no field: records of equal fields stay equal
    assert red == reduce_lift(Z2TZ.lift) == reduction_at(Z2TZ, GAUSS)


def _assert_reduces_as_the_reference(lift):
    info = reduce_lift(lift)
    assert typed_reduction(info) == typed_reduction(reference_reduce_lift(lift))
    fixed = info.tilde_num - QPoly.x() * info.tilde_den
    for refine in (QPoly.zero(), fixed):
        got = divisor_classes(info.depths, refine)
        want = reference_divisor_classes(info.depths, refine)
        assert [(typed(cls), i) for cls, i in got] == [(typed(cls), i) for cls, i in want]
    for s, _ in info.depths.parts:
        assert [typed(c) for c in split_classes(s)] == [typed(c) for c in reference_split_classes(s)]
    return info


@settings(max_examples=100, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reduction_matches_the_rational_route(seed):
    # every field, type for type, of random lifts, their chart conjugates and
    # their composites; level 3 only in degree 2, where it stays small
    rng = random.Random(seed)
    degree = rng.choice([2, 3, 4])
    phi = rand_map(rng, degree)
    point = rand_point(rng) if rng.random() < 0.5 else rand_laurent_point(rng)
    base = chart_conjugate_lift(phi.lift, point)
    level = base
    for lift in (phi.lift, base):
        _assert_reduces_as_the_reference(lift)
    for _ in range(2 if degree == 2 else 1):
        level = compose_lifts(base, level)
        _assert_reduces_as_the_reference(level)


# reduce_lift reads a rescaling w -> t^(-left) F(t^right w) off the lift's
# lowest terms; the lift that lifts.rescaled builds, reduced as before, is
# the oracle.  The lifts are stored maps of degree 2-5, their rays at random
# centres and level-2 composites; the rescalings have denominators 1-6 and
# values up to 10^3, and (s, s) is a chart rescaling whose denominator does
# not divide the ray's level.


def _rand_shift(rng: random.Random) -> Fraction:
    return Fraction(rng.randint(-1000, 1000), rng.randint(1, 6))


@settings(max_examples=150, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_reduce_lift_reads_a_rescaling_as_the_rescaled_lift_reduces(seed):
    rng = random.Random(seed)
    degree = rng.randint(2, 5)
    phi = rand_map(rng, degree)
    point = rand_point(rng) if rng.random() < 0.5 else rand_laurent_point(rng)
    centred = ray(phi.lift, point.center).lift
    lifts = [phi.lift, centred]
    if degree <= 3:
        base = chart_conjugate_lift(phi.lift, point)
        lifts.append(compose_lifts(base, base))
    q = rng.choice([q for q in range(2, 7) if centred.level % q])
    s = Fraction(rng.randint(-12, 12) * q + rng.choice([1, -1]), q)
    for lift in lifts:
        for right, left in ((_rand_shift(rng), 0), (0, _rand_shift(rng)), (_rand_shift(rng), _rand_shift(rng)), (s, s)):
            want = rescaled_reference_reduce_lift(lift, right, left)
            assert typed_reduction(reduce_lift(lift, right, left)) == typed_reduction(want), (right, left)


def test_reduce_lift_keeps_the_level_cap_of_the_rescaled_lift():
    # lcm(1, 10^8 + 7) passes HARD_LEVEL_CAP; the error and its text are the
    # ones lifts.rescaled raises while it changes level
    lift = TZ21T.lift
    message = r"^internal level 100000007 exceeds hard cap$"
    for right, left in ((Fraction(1, 10**8 + 7), 0), (0, Fraction(3, 10**8 + 7))):
        with pytest.raises(LevelCapExceeded, match=message):
            rescaled_reference_reduce_lift(lift, right, left)
        with pytest.raises(LevelCapExceeded, match=message):
            reduce_lift(lift, right, left)


def _low(lift) -> int:
    """The lowest coefficient of the pivot, the first nonzero entry of den + num."""
    return next(p for p in lift.den + lift.num if p).terms[0][1]


_Z = QPoly.x()


@pytest.mark.parametrize("text, feature", [
    ("t*z^2/(z^2+1)", lambda lift, info: not info.reduced_num.dehom and info.image_class == FiniteClass(0)),
    ("(z^2+1)/t", lambda lift, info: not info.reduced_den.dehom and info.image_class == INFINITY),
    ("(z^2+1+t)/(2*z^2+2+t*z)", lambda lift, info: _low(lift) == 2 and info.image_class == FiniteClass(Fraction(1, 2))),
    ("(z^2+5)/(3+z)", lambda lift, info: _low(lift) == 3 and info.totally_invariant),
    ("((2*z+1)*(z+1))/((2*z+1)*(z-1)+t)", lambda lift, info: info.h.dehom == _Z + QPoly.monomial(0, Fraction(1, 2))),
    (
        "((3*z+2)^2*(2*z-1)*(z+1))/((3*z+2)^2*(2*z-1)*z+t)",
        lambda lift, info: info.h.dehom == (_Z + QPoly.monomial(0, Fraction(2, 3))) ** 2 * (_Z - QPoly.monomial(0, Fraction(1, 2))),
    ),
    (  # a Fraction root beside a factor class: deflation makes Fraction(2)
        "((2*z-1)*(z^2+2)*(z+1))/((2*z-1)*(z^2+2)*z+t)",
        lambda lift, info: [c for s, _ in info.depths.parts for c in split_classes(s)]
        == [FiniteClass(Fraction(1, 2)), FactorClass(QPoly.from_coeffs([2, 0, 1]))],
    ),
])
def test_crafted_reductions_match_the_rational_route(text, feature):
    # zero residues, constant reductions at a finite and at the infinite
    # class, pivots whose low coefficient is not a unit, and GCD forms with
    # Fraction coefficients and Fraction roots; then the same at level 2 and
    # at a chart
    lift = parse_map(text).lift
    assert feature(lift, _assert_reduces_as_the_reference(lift))
    _assert_reduces_as_the_reference(compose_lifts(lift, lift))
    _assert_reduces_as_the_reference(chart_conjugate_lift(lift, parse_point("a=1;s=-1/2")))


def test_the_residue_side_stays_on_integer_residues(monkeypatch):
    # the reduction, the Yun split of H and the plain class split of a
    # level-2 lift from the iterates workload: H = (z + 3/7)(z + 2)^2 has
    # Fraction coefficients, so only homogeneous_gcd, H's primitive integer
    # multiple and Yun's gcds may clear denominators; no operand is made
    # primitive twice, and the quotients by H make none of their own
    phi = parse_map("(-9*z^2 - 21*z + (-6 + 3*t))/(-6*z^2 - 15*z + (-6 + 3*t))")
    base = chart_conjugate_lift(phi.lift, GAUSS)
    lift = compose_lifts(base, base)
    calls = count_calls(monkeypatch, "_primitive", nadyn.polys, nadyn.redux)
    info = reduce_lift(lift)
    after_reduction = calls.total()
    parts = info.depths.parts
    after_yun = calls.total()
    classes = divisor_classes(info.depths, QPoly.zero())
    assert [(s.to_str("z"), i) for s, i in parts] == [("z + 3/7", 1), ("z + 2", 2)]
    assert classes == [(FiniteClass(Fraction(-3, 7)), 1), (FiniteClass(-2), 2)]
    counts = (after_reduction, after_yun - after_reduction, calls.total() - after_yun)
    assert all(n <= bound for n, bound in zip(counts, (4, 6, 0))), counts


def test_intrinsic_data_examples():
    info = intrinsic_data(TZ2, GAUSS)
    assert not info.fixes_point
    assert info.image_class == FiniteClass(Fraction(0))
    assert info.depths.inf_mult == 2
    assert not info.totally_invariant

    info = intrinsic_data(Z2, GAUSS)
    assert info.fixes_point and info.tilde_degree == 2
    assert info.depths.parts == () and info.depths.inf_mult == 0
    assert info.totally_invariant

    info = intrinsic_data(TZ21T, parse_point("a=0;s=-1/2"))
    assert not info.fixes_point
    assert info.image_class == INFINITY
    assert [(s.to_str("z"), i) for s, i in info.depths.parts] == [("z^2 + 1", 1)]
    assert not info.totally_invariant


def test_slope_rhs_depth_examples():
    assert slope_rhs(TZ2, GAUSS, INFINITY).dep == 2
    assert slope_rhs(TZ2, GAUSS, FiniteClass(Fraction(5))).dep == 0
    assert slope_rhs(Z2TZ, GAUSS, FiniteClass(Fraction(0))).dep == 1


def test_slope_rhs_fixed_examples():
    assert slope_rhs(Z2TZ, GAUSS, FiniteClass(Fraction(0))).fixed
    assert not slope_rhs(TZ2, GAUSS, INFINITY).fixed
    assert slope_rhs(Z2, GAUSS, FiniteClass(Fraction(1))).fixed
    assert slope_rhs(Z2, GAUSS, INFINITY).fixed
    assert not slope_rhs(Z2, GAUSS, FiniteClass(Fraction(2))).fixed


def test_mass_conservation():
    rng = random.Random(53)
    for _ in range(200):
        phi = rand_map(rng, degree=rng.choice([2, 2, 3]))
        point = rand_point(rng)
        info = intrinsic_data(phi, point)
        local = info.tilde_degree if info.fixes_point else 0
        assert info.depths.total_degree + local == phi.degree


def test_chart_invariance_of_reduction_shape():
    # composing the chart with a unit matrix permutes direction classes only:
    # deg H and the multiset of (class degree, multiplicity) are invariant,
    # with the infinity class counted as a degree-1 class
    rng = random.Random(54)

    def shape(phi, m):
        red = reduce_lift(conjugate(m, phi).lift)
        d = red.depths
        bag = sorted((s.degree, i) for s, i in d.parts)
        if d.inf_mult:
            bag = sorted(bag + [(1, d.inf_mult)])
        return red.h.degree, bag

    corpus = [Z2, TZ2, TZ21T, Z2TZ]
    for phi in corpus:
        for k in range(20):
            point = rand_point(rng)
            m = chart(point)
            u = rand_unit_mobius(rng)
            assert shape(phi, m) == shape(phi, compose(m, u))


def test_iteration_consistency_of_total_invariance():
    rng = random.Random(55)
    from nadyn import totally_invariant

    for phi in [Z2, parse_map("z^2+t"), parse_map("(z^2+t)/(1+t*z)")]:
        assert totally_invariant(phi, GAUSS)
        for n in (2, 3):
            assert totally_invariant(iterate(phi, n), GAUSS)
    # also under random unit conjugations
    for k in range(20):
        u = rand_unit_mobius(rng)
        psi = conjugate(u, Z2)
        assert totally_invariant(psi, GAUSS)
        assert totally_invariant(iterate(psi, 2), GAUSS)


# -- lifts against the normalised-scalar route --------------------------------------


def _kz_mul(p, q):
    out = [KScalar.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        for j, b in enumerate(q):
            out[i + j] = out[i + j] + a * b
    return out


def _reference_reduction(phi, m):
    """Residues of m^(-1) . phi . m by scalar arithmetic: conjugate, divide by
    the pivot, scale by the minimal t-power, reduce each coefficient."""
    d = phi.degree
    (m_b, m_a), (m_d, m_c) = m.num, m.den
    num, den = [KScalar.zero()] * (d + 1), [KScalar.zero()] * (d + 1)
    for i in range(d + 1):
        blend = [KScalar.one()]
        for k in range(d):
            blend = _kz_mul(blend, [m_b, m_a] if k < i else [m_d, m_c])
        num = [x + phi.num[i] * y for x, y in zip(num, blend)]
        den = [x + phi.den[i] * y for x, y in zip(den, blend)]
    # m^(-1) = (d*w - b)/(-c*w + a), read projectively from the pivot-normalised view of m
    num, den = (
        [m_d * x - m_b * y for x, y in zip(num, den)],
        [m_a * y - m_c * x for x, y in zip(num, den)],
    )
    pivot = next(c for c in den + num if not c.is_zero)
    coeffs = [c / pivot for c in num + den]
    shift = KScalar.t_power(-min(c.ord() for c in coeffs if not c.is_zero))
    residues = [(c * shift).residue() for c in coeffs]
    return residues[: d + 1], residues[d + 1 :]


def _rescaled(phi, factor):
    """The same projective map stored as another lift: phi's lift times a
    polynomial factor in t, brought to _shift_out form."""
    lift = phi.lift
    f_num, f_den = factor.at_level(lift.level)
    assert f_den == QPoly.one()
    num = [p * f_num for p in lift.num]
    den = [p * f_num for p in lift.den]
    return RationalMapK(_shift_out(lift.level, num, den))


def test_lift_route_matches_scalar_route_and_ignores_the_representative():
    rng = random.Random(56)
    one_plus_t = KScalar.one() + KScalar.t_power(1)
    for k in range(20):
        phi = rand_map(rng, degree=rng.choice([2, 2, 3]))
        # k = 0: a point of exponent 0 that is not the Gauss point
        point = rand_point(rng) if k else TypeIIPoint(KScalar.t_power(-1), 0)
        m = chart(point)
        u = rand_unit_mobius(rng)
        q = Fraction(rng.choice([-3, -1, 2, 5]), rng.choice([1, 2, 7]))
        c = KScalar.from_rational(q)
        monomial = c * KScalar.t_power(rng.randint(-3, 3))
        # _shift_out removes a monomial factor up to sign, so these leave a different lift
        factors = [one_plus_t, c * one_plus_t, KScalar.from_rational(-abs(q))]
        red = reduction_at(phi, point)
        info = intrinsic_data(phi, point)
        assert red == reduce_lift(conjugate(m, phi).lift)
        assert (red.reduced_num.coeffs(), red.reduced_den.coeffs()) == _reference_reduction(phi, m)
        assert info == red
        ordres = ord_res(phi, point)
        num_l, den_l = minimal_lift(conjugate(m, phi))
        assert ordres == sylvester_resultant(den_l, num_l).ord()
        if k < 6:
            # ordRes does not see a unit matrix after the chart (on a few maps
            # only: with a unit matrix the Sylvester determinants get large)
            assert ord_res_for_chart(_rescaled(phi, rng.choice(factors)), compose(m, u)) == ordres
        rescaled = [_rescaled(phi, factor) for factor in factors]
        for psi in rescaled:
            assert psi.lift != phi.lift
            assert psi == phi and hash(psi) == hash(phi)
        # scalar vectors from outside, times a monomial, come back as phi
        by_scalars = make_map([x * monomial for x in phi.num], [x * monomial for x in phi.den])
        assert by_scalars == phi
        for psi in rescaled + [by_scalars]:
            assert reduce_lift(psi.lift) == reduce_lift(phi.lift)
            assert reduction_at(psi, point) == red
            assert intrinsic_data(psi, point) == info
            assert ord_res(psi, point) == ordres
            assert conjugate(m, psi) == conjugate(m, phi)


def test_chart_lift_is_the_lift_of_the_chart():
    rng = random.Random(57)
    points = [GAUSS, TypeIIPoint(KScalar.t_power(-1), 0), TypeIIPoint(KScalar.t_power(-3), Fraction(-5, 2))]
    for point in points + [rand_point(rng) for _ in range(40)]:
        assert chart_lift(point.center, point.exponent) == chart_by_scalars(point).lift == chart(point).lift
        m = chart(point)
        assert m.degree == 1
        assert (m.num, m.den) == ((point.center, KScalar.t_power(point.exponent)), (KScalar.one(), KScalar.zero()))


@pytest.mark.parametrize(
    "text, point",
    [
        ("(t*z^2+1)/t", "a=1;s=1"),
        # a coefficient with a denominator that is not a power of t
        ("((1/2/t^2)*z^2 + (-1/t/(t^2 + 1)))/((-1/2)*z^2 + (-3/t^2))", "a=0;s=1"),
    ],
)
def test_parsed_maps_never_rebuild_a_lift_from_scalars(monkeypatch, text, point):
    def refuse(*args):
        raise AssertionError("a lift was rebuilt from KScalar coefficients")

    monkeypatch.setattr(nadyn.redux, "_cleared_vector", refuse)
    clear_caches()  # a cached answer would hide a rebuild
    phi = parse_map(text)
    xi = parse_point(point)
    hyp_res(phi, xi)
    hyp_res_direct(phi, xi)
    min_locus(phi)
    reduction_at(phi, xi)
    intrinsic_data(phi, xi)
    depth_sequence(phi, xi, 3)


@settings(max_examples=60, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_ray_reduction_matches_the_mobius_route(seed):
    rng = random.Random(seed)
    phi = rand_map(rng, degree=rng.choice([2, 3]))
    point = rand_laurent_point(rng)
    expected = reduce_lift(conjugate_lift(chart_by_scalars(point).lift, phi.lift))
    assert reduction_at(phi, point) == expected


def test_dense_coefficients_parse_fast():
    start = time.perf_counter()
    phi = parse_map("(z+1/(2^45+2^45*t))^8")
    assert phi.degree == 8
    assert time.perf_counter() - start < 1.0


def _times_monomial(lift, c: int, k: int):
    """The lift with every entry times c*t^k."""
    scale = QPoly.monomial(k * lift.level, c)
    return Lift(lift.level, tuple(p * scale for p in lift.num), tuple(p * scale for p in lift.den))


@settings(max_examples=30, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_sylvester_val_is_the_valuation_of_the_exact_determinant(seed):
    rng = random.Random(seed)
    lift = rand_map(rng, degree=rng.randint(2, 4)).lift
    c = rng.choice([1, -3, 2**70 + 1])
    lifts = [
        lift,
        _times_monomial(lift, c, rng.randint(0, 3)),
        conjugate_lift(rand_unit_mobius(rng).lift, lift),
    ]
    for lf in lifts:
        assert _sylvester_val(lf.den, lf.num) == _sylvester_det(lf.den, lf.num).val


@pytest.mark.parametrize(
    "lift",
    [
        # valuation 64 at degree 8: the precision u^m is raised twice
        iterate(TZ21T, 3).lift,
        iterate(parse_map("(z^2+t)/(1+t*z)+1/t"), 3).lift,
        parse_map("(t^(1/3)*z^3+z+t^(2/3))/(z^2+t^(1/2))").lift,  # level 6
    ],
)
def test_sylvester_val_on_deep_iterates_and_a_fine_level(lift):
    assert _sylvester_val(lift.den, lift.num) == _sylvester_det(lift.den, lift.num).val


def test_sylvester_val_keeps_coefficients_small():
    # without dividing each new row by its content this took about a minute;
    # at t = 0 the pair is z^32 + 1 over 2*z^7 + 3 with no common root, and
    # the numerator does not vanish at infinity, so the valuation is 0
    lift = parse_map("((1+t)*z^32+t*z^5+1)/(t*z^31+(2+t^2)*z^7+3)").lift
    start = time.perf_counter()
    assert _sylvester_val(lift.den, lift.num) == 0
    assert time.perf_counter() - start < 1.0


def test_sylvester_val_refuses_a_vanishing_determinant():
    # (z - t^9)(z + 1) over (z - t^9)(t*z + 2): the precision doubles past
    # the determinant's degree bound, then the zero resultant is reported
    u = QPoly.x()
    root = u**9
    den = (-root, QPoly.one() - root, QPoly.one())
    num = (root.scale(-2), QPoly.from_coeffs([2]) - root * u, u)
    assert _sylvester_det(den, num).is_zero
    with pytest.raises(AssertionError, match="resultant vanished"):
        _sylvester_val(den, num)


def test_validation_falls_back_to_the_exact_determinant(monkeypatch):
    calls = []
    exact = nadyn.redux._sylvester_det

    def counted(den, num):
        calls.append(len(den) - 1)
        return exact(den, num)

    monkeypatch.setattr(nadyn.redux, "_sylvester_det", counted)
    # certified by the modular check alone
    parse_map("z^2/(z - t + 1)")
    assert calls == []
    # the resultant (t - u0)^2 vanishes at the check point, so the exact
    # determinant decides, and the map is valid
    phi = parse_map(f"z^2/(z - t + {nadyn.redux._CHECK_U})")
    assert phi.degree == 2 and calls == [2]
    for text in ["(z^2+1)/(z^2+1)", "z^2/z", "(z^2-t)/(z-t^(1/2))", "(t*z^3+z)/(t*z^2+1)"]:
        with pytest.raises(DegenerateMap):
            parse_map(text)
