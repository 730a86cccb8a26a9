"""The exact kernel: coefficient normal form, integer lifts, and a sympy oracle.

sympy is used only here, as an independent reference; nadyn never imports it.
The lift products of nadyn.lifts are checked against the route they
replaced, one QPoly per u-polynomial product, which is kept here only.
"""

import random
import time
from fractions import Fraction
from math import gcd, lcm

import pytest
from hypothesis import given, settings, strategies as st

from nadyn import KScalar, parse_map
from nadyn import lifts
from nadyn.lifts import Lift, _at_level, _common_level, frozen, parsed_lift
from nadyn.polys import (
    QPoly,
    _primitive_gcd,
    primitive_parts,
    qdiv,
    rational_roots,
    squarefree_parts,
)
from nadyn.redux import _sylvester_det, _sylvester_val, chart_lift, compose_lifts, conjugate_lift, ray
from conftest import rand_laurent_point, rand_map, rand_unit_mobius


def _normal(c) -> bool:
    return type(c) is int or (type(c) is Fraction and c.denominator > 1)


def _all_normal(p: QPoly) -> bool:
    return all(_normal(c) for _, c in p.terms)


def _rand_coeff(rng: random.Random, big: bool = False):
    """An int or a Fraction; some Fractions are integral on purpose."""
    top = 10**15 if big else 6
    kind = rng.random()
    if kind < 0.5:
        return rng.randint(-top, top)
    if kind < 0.6:
        return Fraction(rng.randint(-top, top))
    return Fraction(rng.randint(-top, top), rng.randint(1, 5))


def _rand_poly(rng: random.Random, max_deg: int = 5, big: bool = False) -> QPoly:
    return QPoly.from_coeffs([_rand_coeff(rng, big) for _ in range(rng.randint(0, max_deg + 1))])


# -- coefficient normal form ---------------------------------------------------

_coeffs = st.one_of(
    st.integers(-(10**20), 10**20),
    st.integers(-(10**20), 10**20).map(Fraction),
    st.fractions(max_denominator=50),
)
_polys = st.lists(st.tuples(st.integers(0, 8), _coeffs), max_size=6).map(QPoly)


@settings(max_examples=150, deadline=None)
@given(_polys, _polys, _coeffs)
def test_no_coefficient_is_ever_a_float(a, b, c):
    results = [a, b, a + b, a - b, -a, a * b, a.derivative(), a.monic(), a.gcd(b), a.scale(c)]
    if b:
        results += list(divmod(a, b))
        results.append((a * b).exact_div(b))
    for p in results:
        assert _all_normal(p), p.terms
    for value in (a.eval(c), a.coeff(0), qdiv(c, 3), qdiv(3, 4), qdiv(4, 2)):
        assert _normal(value), value


@settings(max_examples=100, deadline=None)
@given(st.lists(st.tuples(st.integers(0, 8), st.integers(-(10**20), 10**20)), max_size=6))
def test_fraction_n_builds_the_same_poly_as_n(terms):
    from_int = QPoly(terms)
    from_frac = QPoly((e, Fraction(c)) for e, c in terms)
    assert from_frac == from_int
    assert hash(from_frac) == hash(from_int)
    assert from_frac.terms == from_int.terms
    assert all(type(c) is int for _, c in from_frac.terms)
    assert from_frac.to_str("z") == from_int.to_str("z")


def test_qdiv_is_exact():
    assert qdiv(6, 3) == 2 and type(qdiv(6, 3)) is int
    assert qdiv(-6, 4) == Fraction(-3, 2)
    three = qdiv(Fraction(3, 2), Fraction(1, 2))
    assert three == 3 and type(three) is int
    assert qdiv(10**40 + 1, 10**40 + 1) == 1
    with pytest.raises(ZeroDivisionError):
        qdiv(1, 0)


def test_one_term_exact_div_matches_long_division():
    rng = random.Random(41)
    for _ in range(300):
        a = _rand_poly(rng, 6)
        k = rng.randint(0, 3)
        m = QPoly.monomial(k, _rand_coeff(rng) or 1)
        quotient = (a * m).exact_div(m)
        assert quotient == a
        assert quotient == divmod(a * m, m)[0]
    with pytest.raises(ValueError):
        QPoly.from_coeffs([1, 1]).exact_div(QPoly.monomial(1, 2))


def test_primitive_parts():
    x = QPoly.x()
    a = QPoly.from_coeffs([Fraction(1, 2), Fraction(-3, 4)]).shifted(2)
    b = QPoly.from_coeffs([Fraction(5, 6)]).shifted(3)
    pa, pb = primitive_parts([a, b], 2)
    assert pa == QPoly.from_coeffs([6, -9]) and pb == QPoly.from_coeffs([0, 10])
    # one positive factor: ratios and signs kept
    assert qdiv(pa.coeff(0), pb.coeff(1)) == qdiv(a.coeff(2), b.coeff(3))
    four_x, minus_six = x.scale(4), QPoly.monomial(0, -6)
    assert primitive_parts([four_x, minus_six]) == [x.scale(2), QPoly.monomial(0, -3)]
    assert primitive_parts([QPoly.zero()]) == [QPoly.zero()]


def test_rational_roots_with_large_constant_terms():
    x = QPoly.x()

    def lin(a, b):  # b*x - a, zero a/b
        return x.scale(b) - QPoly.monomial(0, a)

    quad = x * x + QPoly.monomial(0, 10**13 + 7)  # no real roots
    cubic = x * x * x - QPoly.monomial(0, 2)  # one irrational real root
    p = lin(10**13 + 1, 1) * lin(-(10**15 + 37), 3) * lin(7, 10**12) * quad * cubic
    expected = [10**13 + 1, Fraction(-(10**15 + 37), 3), Fraction(7, 10**12)]
    assert rational_roots(p) == sorted(expected)
    # close roots and repeated roots
    q = lin(10**13, 1) * lin(10**13 + 1, 1) ** 2 * lin(1, 10**13)
    assert rational_roots(q.shifted(2)) == [0, Fraction(1, 10**13), 10**13, 10**13 + 1]


# -- the integer route of gcd, exact_div and Yun ------------------------------------
#
# The reference is Euclid over Q with Fraction remainders, the route these
# functions took before they ran on primitive integer polynomials; divmod
# still is long division over Q.


def _euclid_gcd(a: QPoly, b: QPoly) -> QPoly:
    while not b.is_zero:
        a, b = b, (a % b).monic()
    return a.monic()


def _euclid_exact_div(a: QPoly, b: QPoly) -> QPoly:
    q, r = divmod(a, b)
    if not r.is_zero:
        raise ValueError("division is not exact")
    return q


def _euclid_squarefree_parts(p: QPoly) -> list[tuple[QPoly, int]]:
    p = p.monic()
    out = []
    g = _euclid_gcd(p, p.derivative())
    w = _euclid_exact_div(p, g)
    i = 1
    while w.degree > 0:
        y = _euclid_gcd(w, g)
        s = _euclid_exact_div(w, y)
        if s.degree > 0:
            out.append((s.monic(), i))
        w = y
        g = _euclid_exact_div(g, y)
        i += 1
    return out


def _typed(p: QPoly) -> tuple:
    """Terms with the type of every coefficient, so int 3 and Fraction 3 differ."""
    return tuple((e, type(c), c) for e, c in p.terms)


_big = st.integers(-(2**80), 2**80)
# the values of st.fractions(max_denominator=12), drawn as an int pair: its
# flatmap over the denominator made the draws most of these tests' time
_small_den = st.builds(Fraction, st.integers(), st.integers(1, 12))
_big_den = st.builds(Fraction, _big, st.integers(1, 2**70))
_kernel_coeffs = st.one_of(st.integers(-6, 6), _big, _small_den, _big_den)
_kernel_polys = st.one_of(
    st.just(QPoly.zero()),
    _kernel_coeffs.map(lambda c: QPoly.monomial(0, c)),  # constants, zero included
    st.lists(st.tuples(st.integers(0, 6), _kernel_coeffs), min_size=1, max_size=5).map(QPoly),
)


@settings(max_examples=250, deadline=None)
@given(_kernel_polys, _kernel_polys, _kernel_polys)
def test_integer_route_matches_euclid_over_q(a, b, c):
    # a common factor c makes the gcd nontrivial; negated operands give
    # negative leading coefficients
    for x, y in ((a, b), (a * c, b * c), (-(a * c), b * c * c), (a, QPoly.zero())):
        assert _typed(x.gcd(y)) == _typed(_euclid_gcd(x, y))
        assert _typed(y.gcd(x)) == _typed(_euclid_gcd(y, x))
    if c:
        for x in (a * c, -(a * c) * c, a):
            try:
                expected = _euclid_exact_div(x, c)
            except ValueError:
                with pytest.raises(ValueError):
                    x.exact_div(c)
            else:
                assert _typed(x.exact_div(c)) == _typed(expected)
    p = a * c * c * b * b * b
    if p:
        got = squarefree_parts(p)
        want = _euclid_squarefree_parts(p)
        assert [(_typed(s), i) for s, i in got] == [(_typed(s), i) for s, i in want]
    with pytest.raises(ZeroDivisionError):
        a.exact_div(QPoly.zero())


_divisors = st.lists(
    st.tuples(st.integers(0, 6), _kernel_coeffs.filter(bool)), min_size=2, max_size=4, unique_by=lambda t: t[0]
).map(QPoly)


def _monic_pair(n: int, lower: list) -> tuple:
    """x^n plus the lower terms as drawn (ints and Fractions), and x^n plus
    their numerators: every example gets a monic integer divisor."""
    numerators = [(e, Fraction(c).numerator) for e, c in lower]
    return tuple(QPoly([(n, 1)] + [(e % n, c) for e, c in terms]) for terms in (lower, numerators))


_monic_divisors = st.builds(
    _monic_pair,
    st.integers(1, 6),
    st.lists(st.tuples(st.integers(0, 5), _kernel_coeffs.filter(bool)), min_size=1, max_size=3),
)


@settings(max_examples=200, deadline=None)
@given(_kernel_polys, _divisors, _kernel_polys, _monic_divisors)
def test_exact_div_is_the_divmod_quotient_or_refuses(a, b, r, monic):
    # divmod and both paths of exact_div share one long division; a multiple
    # of the divisor must come back as the divmod quotient, anything with a
    # remainder must be refused, whatever the coefficients' denominators.
    # A monic divisor with integer coefficients takes the direct path, one
    # with Fraction coefficients the path through primitive integer parts
    for d in (b, *monic):
        for x in (a * d, a * d + r, a):
            q, rest = divmod(x, d)
            if rest:
                with pytest.raises(ValueError, match="^division is not exact$"):
                    x.exact_div(d)
            else:
                assert _typed(x.exact_div(d)) == _typed(q)


def test_gcd_of_huge_coefficients_and_negative_leads():
    x = QPoly.x()
    big = 2**64 + 13
    f = x.scale(big) - QPoly.monomial(0, 3)  # zero 3/big
    a = f * (x * x + QPoly.monomial(0, 1)).scale(-(2**70))
    b = f * f * (x - QPoly.monomial(0, Fraction(1, big)))
    assert a.gcd(b) == f.monic() == _euclid_gcd(a, b)
    assert a.gcd(b).terms == ((0, Fraction(-3, big)), (1, 1))
    assert squarefree_parts(b) == _euclid_squarefree_parts(b)
    assert (b * a).exact_div(-a) == -b


def test_primitive_gcd_is_primitive_over_z():
    # the integer gcd is divided by its content, over any scaling of the inputs
    x = QPoly.x()
    f = x.scale(6) + QPoly.monomial(0, 4)  # content 2
    a = (f * (x + QPoly.one())).scale(Fraction(15, 7))
    b = (f * f * (x - QPoly.one())).scale(-9)
    g = _primitive_gcd(a.terms, b.terms)
    assert all(type(c) is int for _, c in g)
    assert gcd(*(c for _, c in g)) == 1
    assert abs(g[-1][1]) == 3 and g[-1][0] == 1


def _best_ms(fn, repeats: int = 5) -> float:
    best = float("inf")
    for _ in range(repeats):
        start = time.perf_counter()
        fn()
        best = min(best, time.perf_counter() - start)
    return 1000 * best


def test_gcd_stays_sparse_on_huge_exponents():
    # a gcd in u whose degree is large must cost what its terms cost; a
    # route over dense coefficient lists would take far longer than 10 ms
    one = QPoly.one()
    plus = QPoly.monomial(400_000) + one
    minus = QPoly.monomial(400_000) - one
    half = QPoly.monomial(200_000) - one
    assert plus.gcd(half) == one
    assert minus.gcd(half) == half
    assert _best_ms(lambda: plus.gcd(half)) < 10
    assert _best_ms(lambda: minus.gcd(half)) < 10


# -- integer lifts --------------------------------------------------------------

_LIFT_MAPS = [
    "z^2",
    "(t*z^2+1)/t",
    "(z^2/2 + t/3)/(z/5 + 1)",
    "(3*z^2+z+1)/((2+t)*z^2+z+2+t)",
    "(z^2+t)/(1+t*z)+1/t",
    "((z-10000000000001)*(z-1))/(t*z^2+z-10000000000001)",
    "(2*z^3 + t^(1/2)*z)/(6*z^2 + 4)",
]


def _assert_integer_primitive(lift):
    entries = [c for p in lift.num + lift.den for _, c in p.terms]
    assert entries and all(type(c) is int for c in entries)
    assert gcd(*entries) == 1
    assert min(p.val for p in lift.num + lift.den if p) == 0


def test_lifts_are_primitive_over_z():
    rng = random.Random(43)
    for text in _LIFT_MAPS:
        lift = parse_map(text).lift
        _assert_integer_primitive(lift)
        _assert_integer_primitive(compose_lifts(lift, lift))
        m = rand_unit_mobius(rng).lift
        _assert_integer_primitive(m)
        _assert_integer_primitive(conjugate_lift(m, lift))


# -- the QPoly reference route of lift products ---------------------------------


def _ref_zmul(p, q) -> list:
    out = [QPoly.zero()] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out[i + j] = out[i + j] + a * b
    return out


def _ref_shift_out(level, num, den) -> Lift:
    polys = [*num, *den]
    k = min((p.val for p in polys if p), default=0)
    polys = primitive_parts(polys, k)
    return Lift(level, tuple(polys[: len(num)]), tuple(polys[len(num) :]))


def _ref_compose(outer: Lift, inner: Lift) -> Lift:
    outer, inner = _common_level(outer, inner)
    d = len(outer.num) - 1
    p_pows, q_pows = [[QPoly.one()]], [[QPoly.one()]]
    for _ in range(d):
        p_pows.append(_ref_zmul(p_pows[-1], inner.num))
        q_pows.append(_ref_zmul(q_pows[-1], inner.den))
    size = d * (len(inner.num) - 1) + 1
    num, den = [QPoly.zero()] * size, [QPoly.zero()] * size
    for i in range(d + 1):
        for k, c in enumerate(_ref_zmul(p_pows[i], q_pows[d - i])):
            num[k] = num[k] + outer.num[i] * c
            den[k] = den[k] + outer.den[i] * c
    return _ref_shift_out(outer.level, num, den)


def _ref_ray_lift(lift: Lift, center: KScalar) -> Lift:
    """The Taylor shift of the lift at the centre A/B, scaled by powers of B."""
    level = lcm(lift.level, center.level)
    lift, (a_num, a_den) = _at_level(lift, level), center.at_level(level)
    d = len(lift.num) - 1
    k = a_den.val
    scale = lcm(*(Fraction(c).denominator for _, c in a_num.terms))
    big_a = a_num.scale(scale)

    def times_b(p, m):
        return p.scale(scale**m).shifted(k * m)

    def shift(c):
        c = list(c)
        for i in range(d):
            for j in range(d - 1, i - 1, -1):
                c[j] = c[j] + big_a * c[j + 1]
        return [times_b(x, j) for j, x in enumerate(c)]

    num = [times_b(times_b(p, 1) - big_a * q, d - i) for i, (p, q) in enumerate(zip(lift.num, lift.den))]
    den = [times_b(q, d + 1 - i) for i, q in enumerate(lift.den)]
    return Lift(level, tuple(shift(num)), tuple(shift(den)))


# the parser's values on this route: Lifts with trimmed num and den
def _ref_trim(coeffs) -> tuple:
    coeffs = list(coeffs)
    while len(coeffs) > 1 and not coeffs[-1]:
        coeffs.pop()
    return tuple(coeffs)


def _ref_add(a: Lift, b: Lift) -> Lift:
    a, b = _common_level(a, b)
    if a.den == b.den:
        num, other, den = a.num, b.num, a.den
    else:
        num, other, den = _ref_zmul(a.num, b.den), _ref_zmul(b.num, a.den), _ref_zmul(a.den, b.den)
    size = max(len(num), len(other))
    num = [p + q for p, q in zip(_padded(num, size), _padded(other, size))]
    return Lift(a.level, _ref_trim(num), tuple(den))


def _ref_mul(a: Lift, b: Lift) -> Lift:
    a, b = _common_level(a, b)
    return Lift(a.level, _ref_trim(_ref_zmul(a.num, b.num)), tuple(_ref_zmul(a.den, b.den)))


def _ref_power(base: Lift, n: int) -> Lift:
    result = Lift(1, (QPoly.one(),), (QPoly.one(),))
    for _ in range(n):
        result = _ref_mul(result, base)
    return result


def _padded(polys, size) -> tuple:
    return tuple(polys) + (QPoly.zero(),) * (size - len(polys))


def _as_parsed(value: Lift) -> tuple:
    return value.level, *([dict(p.terms) for p in polys] for polys in (value.num, value.den))


def _same_value(parsed: tuple, value: Lift) -> bool:
    num, den = frozen(parsed)
    size = max(len(num), len(value.num), len(value.den))
    return (parsed[0], _padded(num, size), _padded(den, size)) == (
        value.level,
        _padded(value.num, size),
        _padded(value.den, size),
    )


def _wild_lift(rng: random.Random, level: int, big: int) -> Lift:
    """A rand_map lift at the given level, each entry times +-big * u^k with
    k up to 10^6: the arithmetic needs no valid map."""
    lift = rand_map(rng, degree=rng.choice([1, 2, 3])).lift

    def wild(p):
        return QPoly((e + rng.randint(0, 10**6), c * rng.choice([-big, big])) for e, c in p.terms)

    return Lift(level, tuple(map(wild, lift.num)), tuple(map(wild, lift.den)))


def _assert_int_entries(lift: Lift):
    assert all(type(c) is int for p in lift.num + lift.den for _, c in p.terms)


@settings(max_examples=60, deadline=None)
@given(
    seed=st.integers(0, 2**32 - 1),
    levels=st.tuples(st.integers(1, 64), st.integers(1, 64)),
    big=st.integers(2**64, 2**80),
)
def test_lift_kernel_matches_the_qpoly_route(seed, levels, big):
    rng = random.Random(seed)
    a, b = (_wild_lift(rng, level, big) for level in levels)
    composed = compose_lifts(a, b)
    assert composed == _ref_compose(a, b)
    _assert_int_entries(composed)
    center = rand_laurent_point(rng).center
    shifted = ray(a, center).lift
    assert shifted == _ref_ray_lift(a, center)
    _assert_int_entries(shifted)
    # the parser's arithmetic, on values whose num and den are trimmed
    va, vb = (Lift(x.level, _ref_trim(x.num), _ref_trim(x.den)) for x in (a, b))
    same_den = Lift(va.level, vb.num, va.den)
    ea, eb, es = map(_as_parsed, (va, vb, same_den))
    assert _same_value(lifts.mul(ea, eb), _ref_mul(va, vb))
    assert _same_value(lifts.add(ea, eb), _ref_add(va, vb))
    assert _same_value(lifts.add(ea, es), _ref_add(va, same_den))
    assert _same_value(lifts.neg(ea), Lift(va.level, tuple(-p for p in va.num), va.den))
    n = rng.randint(0, 3)
    assert _same_value(lifts.power(ea, n), _ref_power(va, n))
    # the one-pass stored lift is the shift-out lift at its smallest level
    stored = parsed_lift(ea)
    assert _at_level(stored, ea[0]) == _ref_shift_out(ea[0], *frozen(ea))
    assert gcd(stored.level, *(e for p in stored.num + stored.den for e, _ in p.terms)) == 1
    _assert_int_entries(stored)


def test_monomial_products_match_the_generic_route_in_fresh_dicts():
    a = (2, [{}, {3: -5}], [{1: 7}])  # -5*u^3*z / (7*u) at level 2
    b = (2, [{}, {}, {1: 2}], [{0: -3}])

    def generic(x, y):
        return x[0], *(lifts._trim(lifts._addmul([], p, q)) for p, q in zip(x[1:], y[1:]))

    cases = [(lifts.mul(a, b), generic(a, b)), (lifts.power(a, 3), generic(generic(a, a), a)), (lifts.power(b, 1), b)]
    inputs = {id(x) for v in (a, b) for part in v[1:] for x in part}
    for value, expected in cases:
        assert value == expected
        entries = [id(x) for part in value[1:] for x in part]
        assert len(set(entries)) == len(entries) and not inputs & set(entries)


def test_compose_stays_sparse_on_huge_exponents():
    # a chart at s = 10^70 puts u^(10^70) into the lift; a dense route in u
    # could not hold it, and the composite must cost what its terms cost
    lift = parse_map("(t*z^2+1)/t").lift
    chart = chart_lift(KScalar.t_power(-1), Fraction(10**70))
    composed = compose_lifts(lift, chart)
    assert max(p.degree for p in composed.num + composed.den) >= 10**70
    assert _best_ms(lambda: compose_lifts(lift, chart)) < 10


# -- sympy oracle -----------------------------------------------------------------


def _sym(sympy, p: QPoly, var):
    expr = sum(sympy.Rational(c.numerator, c.denominator) * var**e for e, c in p.terms)
    return sympy.Poly(expr, var, domain="QQ")


def _from_sym(sympy, poly) -> QPoly:
    return QPoly((e, Fraction(int(c.p), int(c.q))) for (e,), c in poly.terms())


def test_kernel_matches_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(47)
    for _ in range(150):
        a, b = _rand_poly(rng), _rand_poly(rng, 4)
        sa, sb = _sym(sympy, a, x), _sym(sympy, b, x)
        assert a * b == _from_sym(sympy, sa * sb)
        assert a.gcd(b) == _from_sym(sympy, sympy.gcd(sa, sb))
        if b:
            q, r = divmod(a, b)
            sq, sr = sympy.div(sa, sb)
            assert (q, r) == (_from_sym(sympy, sq), _from_sym(sympy, sr))


def test_squarefree_parts_and_rational_roots_match_sympy():
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(53)
    for _ in range(80):
        # products of linear factors with big or small roots and of random
        # factors of degree 1 to 3, some repeated
        p = QPoly.one()
        for _ in range(rng.randint(1, 4)):
            if rng.random() < 0.5:
                root = _rand_coeff(rng, big=rng.random() < 0.5)
                factor = QPoly.from_coeffs([-root, 1]).scale(_rand_coeff(rng) or 1)
            else:
                factor = QPoly.zero()
                while factor.degree < 1:
                    factor = _rand_poly(rng, 3, big=rng.random() < 0.3)
            p = p * factor ** rng.randint(1, 2)
        sp = _sym(sympy, p, x)
        _, factors = sympy.sqf_list(sp)
        expected = {(_from_sym(sympy, f).monic(), i) for f, i in factors if f.degree() > 0}
        assert set(squarefree_parts(p)) == expected
        _, irreducible = sympy.factor_list(sp)
        roots = sorted(
            _from_sym(sympy, f).monic().coeff(0) * -1 for f, _ in irreducible if f.degree() == 1
        )
        assert rational_roots(p) == roots


def _rand_fraction(rng: random.Random):
    return Fraction(rng.randint(-(10**12), 10**12), rng.randint(1, 10**9))


def _rand_fraction_poly(rng: random.Random, max_deg: int) -> QPoly:
    return QPoly.from_coeffs([_rand_fraction(rng) for _ in range(rng.randint(1, max_deg + 1))])


def test_fraction_heavy_kernel_matches_sympy():
    # every coefficient a Fraction with a large denominator, a common factor
    # so that the gcd is nontrivial, and repeated factors for Yun
    sympy = pytest.importorskip("sympy")
    x = sympy.Symbol("x")
    rng = random.Random(61)
    for _ in range(60):
        common = _rand_fraction_poly(rng, 2)
        a = common * _rand_fraction_poly(rng, 3)
        b = common * _rand_fraction_poly(rng, 2)
        sa, sb = _sym(sympy, a, x), _sym(sympy, b, x)
        assert a.gcd(b) == _from_sym(sympy, sympy.gcd(sa, sb))
        if b:
            sq, sr = sympy.div(sa, sb)
            assert divmod(a, b) == (_from_sym(sympy, sq), _from_sym(sympy, sr))
            assert (a * b).exact_div(b) == a
        p = a * b * b
        if p.degree > 0:
            _, factors = sympy.sqf_list(_sym(sympy, p, x))
            expected = {(_from_sym(sympy, f).monic(), i) for f, i in factors if f.degree() > 0}
            assert set(squarefree_parts(p)) == expected


def _rand_u_poly(rng: random.Random) -> QPoly:
    return QPoly((rng.randint(0, 3), _rand_coeff(rng)) for _ in range(rng.randint(1, 3)))


def test_sylvester_det_matches_sympy_resultant():
    sympy = pytest.importorskip("sympy")
    z, u = sympy.symbols("z u")
    rng = random.Random(59)
    for _ in range(40):
        d = rng.randint(1, 3)
        den = [_rand_u_poly(rng) for _ in range(d + 1)]
        num = [_rand_u_poly(rng) for _ in range(d + 1)]
        if not den[-1] or not num[-1]:
            continue  # the formal degree must be the true degree for sympy

        def zpoly(coeffs):
            return sum(_sym(sympy, c, u).as_expr() * z**i for i, c in enumerate(coeffs))

        res = sympy.Poly(sympy.resultant(zpoly(den), zpoly(num), z), u, domain="QQ")
        assert _sylvester_det(tuple(den), tuple(num)) == _from_sym(sympy, res)
        if not res.is_zero:
            # the valuation route works over Z[u]: clear the denominators,
            # which scales the determinant by a constant
            common = lcm(*(c.denominator for p in den + num for _, c in p.terms))
            ints = [p.scale(common) for p in den + num]
            assert _sylvester_val(tuple(ints[: d + 1]), tuple(ints[d + 1 :])) == min(e for (e,), _ in res.terms())
