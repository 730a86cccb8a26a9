import cmath
import math
import random
import re
import sys
from collections import Counter
from fractions import Fraction

import pytest

from nadyn import (
    GAUSS,
    DegenerateMap,
    DegreeTooHigh,
    KScalar,
    ParseError,
    PowerTooLarge,
    QPoly,
    RootFindingFailed,
    TypeIIPoint,
    direction_toward,
    parse_map,
    parse_point,
    path_point,
)
from nadyn import lifts
from nadyn.degeneration import ABERTH_MAX_ITER, INF_C, _LEADING_CUTOFF, _above_bound, _div, _join, _mul
from nadyn.equidist import _class_poly, _mass_on
from nadyn.lifts import neg, z_degree
from nadyn.parsing import MAX_LITERAL_DIGITS, MAX_MAP_DEGREE, MAX_POWER_BITS, MAX_POWER_TERMS, _capped, _inverse
from nadyn.polys import coprime_basis, qdiv, rational_roots
from nadyn.redux import (
    _CHECK_P,
    _CHECK_U,
    IntrinsicReduction,
    _inverse_lift,
    _sylvester_rows,
    chart_lift,
    compose_lifts,
    make_map,
    ray,
    reduce_lift,
)
from nadyn.respoly import (
    INFINITY,
    FactorClass,
    FiniteClass,
    HomogeneousForm,
    InfinityClass,
    depth_at,
    homogeneous_gcd,
)

CORPUS_SOURCES = ["z^2", "t*z^2", "(t*z^2+1)/t", "(z^2-t)/z", "z^2+t"]
POINT_SOURCES = ["gauss", "a=0;s=1/2", "a=0;s=-1/2", "a=0;s=1", "a=0;s=-1", "a=1;s=1"]


@pytest.fixture(scope="session")
def corpus():
    return {src: parse_map(src) for src in CORPUS_SOURCES}


@pytest.fixture(scope="session")
def corpus_points():
    return {src: parse_point(src) for src in POINT_SOURCES}


def rand_scalar(rng: random.Random, min_exp=-2, max_exp=3, allow_zero=False) -> KScalar:
    """Random Laurent polynomial in t with small integer coefficients."""
    while True:
        terms = {}
        for _ in range(rng.randint(0, 3)):
            e = rng.randint(min_exp, max_exp)
            c = rng.randint(-3, 3)
            if c:
                terms[e] = terms.get(e, 0) + c
        if terms:
            low = min(terms)
            shift = -low if low < 0 else 0
            poly = QPoly((e + shift, c) for e, c in terms.items())
            den = QPoly.monomial(shift) if shift else QPoly.one()
            value = KScalar(poly, den)
        else:
            value = KScalar.zero()
        if allow_zero or not value.is_zero:
            return value


def rand_integral_scalar(rng: random.Random) -> KScalar:
    return rand_scalar(rng, min_exp=0, max_exp=3)


def minimal_lift(phi) -> tuple[tuple[KScalar, ...], tuple[KScalar, ...]]:
    """Scale the coefficient pair so all entries are integral, one a unit:
    every entry of the stored lift over the pivot, the first nonzero entry of
    den + num, times the power of u that makes the pivot a unit."""
    lift = phi.lift
    pivot = next(p for p in lift.den + lift.num if p)
    scale = QPoly.monomial(pivot.val)
    return tuple(tuple(KScalar(p * scale, pivot, lift.level) for p in part) for part in (lift.num, lift.den))


def rand_map(rng: random.Random, degree=2):
    for _ in range(100):
        num = [rand_scalar(rng, -1, 2, allow_zero=True) for _ in range(degree + 1)]
        den = [rand_scalar(rng, -1, 2, allow_zero=True) for _ in range(degree + 1)]
        try:
            return make_map(num, den)
        except (DegenerateMap, ValueError):
            continue
    raise AssertionError("could not build a random map")


def rand_point(rng: random.Random) -> TypeIIPoint:
    centers = [
        KScalar.zero(),
        KScalar.one(),
        KScalar.t_power(1),
        KScalar.one() + KScalar.t_power(1),
        KScalar.from_rational(2),
        KScalar.t_power(-1),
    ]
    s = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
    return TypeIIPoint(rng.choice(centers), s)


def rand_laurent_point(rng: random.Random) -> TypeIIPoint:
    """Random type II point: a Laurent-polynomial centre at level 1-3, of any
    valuation, and an exponent with denominator up to 6."""
    level = rng.randint(1, 3)
    terms = {}
    for _ in range(rng.randint(0, 3)):
        e = rng.randint(-2 * level, 3 * level)
        terms[e] = terms.get(e, 0) + Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
    shift = max(0, -min(terms, default=0))
    center = KScalar(QPoly((e + shift, c) for e, c in terms.items()), QPoly.monomial(shift), level)
    return TypeIIPoint(center, Fraction(rng.randint(-12, 12), rng.randint(1, 6)))


def mobius(a: KScalar, b: KScalar, c: KScalar, d: KScalar):
    """The degree-1 map w -> (a*w + b)/(c*w + d), built from scalars by
    clearing their denominators (the make_map route)."""
    return make_map((b, a), (d, c))


def chart_by_scalars(point: TypeIIPoint):
    """The canonical chart w -> t^s*w + a of the point, built from scalars."""
    return mobius(KScalar.t_power(point.exponent), point.center, KScalar.zero(), KScalar.one())


def rand_unit_mobius(rng: random.Random):
    while True:
        entries = [rand_integral_scalar(rng) if rng.random() < 0.8 else KScalar.zero() for _ in range(4)]
        a, b, c, d = entries
        det = a * d - b * c
        if not det.is_zero and det.ord() == 0:
            return mobius(a, b, c, d)


def measure_total(measure) -> Fraction:
    """Total mass of a DirectionMeasure: its atoms plus the point mass."""
    return sum((m for _, m in measure.atoms), measure.point_mass)


def count_calls(monkeypatch, name: str, *modules) -> Counter:
    """Wrap the function each module binds to `name`; count calls per module."""
    counts: Counter = Counter()
    for module in modules:

        def counted(*args, _fn=getattr(module, name), _key=module.__name__, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def swept_caches() -> set:
    """The program's caches: the values with a cache_clear in nadyn.* modules,
    collected as bench/run.py collects them."""
    return {
        value
        for name, module in sys.modules.items()
        if name.startswith("nadyn.")
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    }


def clear_caches() -> None:
    """Clear every program cache, as the benchmark does before each query."""
    for cache in swept_caches():
        cache.cache_clear()


def descent_points(locus) -> set:
    """The points a descent reduces at: the start of every step and the minimizer."""
    return {locus.minimizer, *(point for point, _, _ in locus.trail)}


# -- hyp_res_direct's probes as it built them before it composed phi with
# charts once per segment of the path: each probe composes phi with the
# probe's own canonical chart, kept as the oracle of the differential test.


def _reference_probe(point: TypeIIPoint, tau: Fraction):
    """The probe at distance tau on [gauss, point], its canonical chart and
    the class of the point there."""
    probe = path_point(GAUSS, point, tau)
    return chart_lift(probe.center, probe.exponent), direction_toward(probe, point)


def reference_probe_mass(phi, point: TypeIIPoint, tau: Fraction) -> int:
    """Mass of phi^* delta_gauss on the component of the probe toward the
    point: the depth of phi . N at the Gauss point, N the probe's chart."""
    chart, cls = _reference_probe(point, tau)
    return depth_at(reduce_lift(compose_lifts(phi.lift, chart)).depths, cls)


def reference_before_wedge(phi, point: TypeIIPoint, tau: Fraction) -> int:
    """Whether the probe lies before the wedge of phi(point) with the point:
    the reduction of N^(-1) . phi . M, M the point's chart, is constant at
    the class of the point."""
    chart, cls = _reference_probe(point, tau)
    phi_m = compose_lifts(phi.lift, chart_lift(point.center, point.exponent))
    red = reduce_lift(compose_lifts(_inverse_lift(chart), phi_m))
    return int(not red.fixes_point and red.image_class == cls)


def reference_tv_distance(m1, m2) -> Fraction:
    """Total variation distance as tv_distance computed it before it compared
    rational atoms by key: every atom off infinity, finite ones included,
    goes through one coprime basis of the class polynomials."""

    def finite_atoms(measure):
        return [(cls, mass, _class_poly(cls)) for cls, mass in measure.atoms if not isinstance(cls, InfinityClass)]

    def at_infinity(measure):
        return sum((mass for cls, mass in measure.atoms if isinstance(cls, InfinityClass)), Fraction(0))

    atoms1, atoms2 = finite_atoms(m1), finite_atoms(m2)
    spread = abs(m1.point_mass - m2.point_mass) + abs(at_infinity(m1) - at_infinity(m2))
    for q in coprime_basis([p for _, _, p in atoms1 + atoms2]):
        spread += abs(_mass_on(atoms1, q) - _mass_on(atoms2, q))
    return spread / 2


# -- reduce_lift, split_classes and divisor_classes as they stood before the residue side ran
# on integers: the residues P_i(0) divided by the pivot's low coefficient
# first, every quotient through QPoly.exact_div, and the classes of a piece
# from rational_roots, each root divided out in turn, the plain split
# included.  Kept as the oracles of the differential test.


def reference_reduce_lift(lift) -> IntrinsicReduction:
    d = len(lift.num) - 1
    pivot = next(p for p in lift.den + lift.num if p)
    low = pivot.terms[0][1]
    hat_num = HomogeneousForm.from_coeffs(d, [qdiv(p.coeff(0), low) for p in lift.num])
    hat_den = HomogeneousForm.from_coeffs(d, [qdiv(p.coeff(0), low) for p in lift.den])
    h = homogeneous_gcd(hat_num, hat_den)
    qn = hat_num.dehom.exact_div(h.dehom)
    qd = hat_den.dehom.exact_div(h.dehom)
    tilde_degree = d - h.degree
    image_class = None
    if tilde_degree == 0:
        cn = qn.coeff(0)
        cd = qd.coeff(0)
        image_class = FiniteClass(qdiv(cn, cd)) if cd else INFINITY
    return IntrinsicReduction(
        reduced_num=hat_num,
        reduced_den=hat_den,
        h=h,
        tilde_num=qn,
        tilde_den=qd,
        tilde_degree=tilde_degree,
        image_class=image_class,
    )


def reference_split_classes(poly: QPoly) -> list:
    out = []
    rem = poly
    for r in rational_roots(poly):
        out.append(FiniteClass(r))
        rem = rem.exact_div(QPoly.from_coeffs([-r, 1]))
    if rem.degree >= 2:
        out.append(FactorClass(rem.monic()))
    return out


def reference_divisor_classes(divisor, refine: QPoly) -> list:
    out = [(INFINITY, divisor.inf_mult)] if divisor.inf_mult else []
    for s, i in divisor.parts:
        g = s.gcd(refine)
        for piece in (g, s.exact_div(g)):
            if piece.degree > 0:
                out += [(cls, i) for cls in reference_split_classes(piece)]
    return out


# -- reduce_lift, _rise and _ray_slope as they stood before the reduction read
# a rescaling off the lift's lowest terms and the ray's pieces became
# integers: the rescaled lift built whole by lifts.rescaled and its residues
# P_i(0), each quotient by H through QPoly.exact_div, and the closed form on
# Fraction pieces.  Kept as the oracles of the differential tests.


def rescaled_reference_reduce_lift(lift, right=0, left=0) -> IntrinsicReduction:
    lift = lifts.rescaled(lift, Fraction(right), Fraction(left))
    d = len(lift.num) - 1
    low = next(p for p in lift.den + lift.num if p).terms[0][1]
    int_num, int_den = (
        HomogeneousForm(d, QPoly._of_terms(tuple((i, c) for i, p in enumerate(part) if (c := p.coeff(0)))))
        for part in (lift.num, lift.den)
    )

    def over(p: QPoly) -> QPoly:
        return p if low == 1 else QPoly._of_terms(tuple((e, qdiv(c, low)) for e, c in p.terms))

    h = homogeneous_gcd(int_num, int_den)
    qn = int_num.dehom.exact_div(h.dehom)
    qd = int_den.dehom.exact_div(h.dehom)
    tilde_degree = d - h.degree
    image_class = None
    if tilde_degree == 0:
        cn, cd = qn.coeff(0), qd.coeff(0)
        image_class = FiniteClass(qdiv(cn, cd)) if cd else INFINITY
    return IntrinsicReduction(
        reduced_num=HomogeneousForm(d, over(int_num.dehom)),
        reduced_den=HomogeneousForm(d, over(int_den.dehom)),
        h=h,
        tilde_num=over(qn),
        tilde_den=over(qd),
        tilde_degree=tilde_degree,
        image_class=image_class,
    )


def _fraction_pieces(lift, center) -> list:
    """The ray's pieces (alpha, m) with alpha in t-units, a Fraction."""
    r = ray(lift, center)
    return [(Fraction(v, r.lift.level), m) for v, m in r.pieces]


def reference_rise(phi, point: TypeIIPoint) -> Fraction:
    d, s = phi.degree, point.exponent
    low = min(alpha + m * s for alpha, m in _fraction_pieces(phi.lift, point.center))
    return (d * d + d) * s - 2 * d * low


def reference_ray_slope(phi, point: TypeIIPoint, cls) -> tuple:
    d, s = phi.degree, point.exponent
    if isinstance(cls, InfinityClass):
        center, sign = point.center, -1
    else:
        center, sign = point.center + KScalar.from_rational(cls.value) * KScalar.t_power(s), 1
    pieces = [(alpha, sign * m) for alpha, m in _fraction_pieces(phi.lift, center)]
    x = sign * s
    low = min(alpha + m * x for alpha, m in pieces)
    alpha0, m0 = min(((alpha, m) for alpha, m in pieces if alpha + m * x == low), key=lambda p: p[1])
    kinks = [(alpha - alpha0) / (m0 - m) - x for alpha, m in pieces if m < m0]
    return Fraction(sign * (d + 1) - 2 * m0, 2 * (d - 1)), kinks


def typed(value):
    """A value with the type of every rational in it, so that int 3 and
    Fraction 3 differ: QPolys, forms, direction classes, ints and None."""
    if isinstance(value, QPoly):
        return tuple((e, type(c), c) for e, c in value.terms)
    if isinstance(value, HomogeneousForm):
        return value.degree, typed(value.dehom)
    if isinstance(value, FiniteClass):
        return FiniteClass, type(value.value), value.value
    if isinstance(value, FactorClass):
        return FactorClass, typed(value.poly)
    if value is None or isinstance(value, (int, InfinityClass)):
        return type(value), value
    raise TypeError(f"no typed view of {value!r}")


def typed_reduction(info: IntrinsicReduction) -> dict:
    """Every field of the record, typed."""
    return {name: typed(getattr(info, name)) for name in IntrinsicReduction.__slots__ if name != "__dict__"}


# -- the recursive-descent parser that nadyn.parsing replaced with its flat
# evaluator, kept as the oracle of the differential test.  It runs on the
# generic product route of nadyn.lifts (_common, _addmul, _trim), so it
# checks the direct monomial products and the numerator merge as well, and
# its power caps scan every coefficient.

_REF_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_]+)|([-+*/^()])|(\S))")


def _ref_tokenize(text: str):
    tokens = []
    for m in _REF_TOKEN_RE.finditer(text):
        digits, name, op, other = m.groups()
        if digits:
            if len(digits) > MAX_LITERAL_DIGITS:
                raise ParseError(
                    f"integer literal of {len(digits)} digits exceeds {MAX_LITERAL_DIGITS} digits",
                    m.start(1),
                )
            tokens.append(("int", int(digits), m.start(1)))
        elif name:
            tokens.append(("name", name, m.start(2)))
        elif op:
            tokens.append(("op", op, m.start(3)))
        else:
            raise ParseError(f"unexpected character {other!r}", m.start(4))
    tokens.append(("end", None, len(text)))
    return tokens


def _ref_t_power(q: Fraction) -> tuple:
    e = q.numerator
    return q.denominator, [{max(e, 0): 1}], [{max(-e, 0): 1}]


def _ref_add(a: tuple, b: tuple) -> tuple:
    level, an, ad, bn, bd = lifts._common(a, b)
    if ad == bd:
        return level, lifts._trim(lifts._addmul([dict(x) for x in an], bn, [{0: 1}])), ad
    num = lifts._addmul(lifts._addmul([], an, bd), bn, ad)
    return level, lifts._trim(num), lifts._trim(lifts._addmul([], ad, bd))


def _ref_mul(a: tuple, b: tuple) -> tuple:
    level, an, ad, bn, bd = lifts._common(a, b)
    return level, lifts._trim(lifts._addmul([], an, bn)), lifts._trim(lifts._addmul([], ad, bd))


def _ref_span(part: list) -> int:
    exponents = [e for x in part for e in x]
    return max(exponents) - min(exponents) if exponents else 0


def _ref_power(base: tuple, n: int) -> tuple:
    degree = z_degree(base)
    if degree and n * degree > MAX_MAP_DEGREE:
        first = (MAX_MAP_DEGREE // degree + 1) * degree
        raise DegreeTooHigh(f"expression reaches degree {first} in z, cap is {MAX_MAP_DEGREE}")
    span = max(_ref_span(base[1]), _ref_span(base[2]))
    bits = max(abs(c).bit_length() for part in base[1:] for x in part for c in x.values())
    if n * span * (n * degree + 1) > MAX_POWER_TERMS or n * bits > MAX_POWER_BITS:
        raise PowerTooLarge(
            f"power ^{n} exceeds the caps of {MAX_POWER_TERMS} terms"
            f" and {MAX_POWER_BITS} coefficient bits"
        )
    result = (1, [{0: 1}], [{0: 1}])
    while n:
        if n & 1:
            result = _ref_mul(result, base)
        n >>= 1
        if n:
            base = _ref_mul(base, base)
    return result


class _ReferenceParser:
    def __init__(self, text: str, allow_z: bool):
        self.tokens = _ref_tokenize(text)
        self.i = 0
        self.allow_z = allow_z

    def peek(self):
        return self.tokens[self.i]

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol):
        kind, value, pos = self.peek()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", pos)
        self.advance()

    def parse(self) -> tuple:
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return value

    def expr(self) -> tuple:
        value = self.term()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.advance()
                rhs = self.term()
                value = _capped(_ref_add(value, rhs if op == "+" else neg(rhs)))
            else:
                return value

    def term(self) -> tuple:
        value = self.factor()
        while True:
            kind, op, pos = self.peek()
            if kind == "op" and op in "*/":
                self.advance()
                rhs = self.factor()
                value = _capped(_ref_mul(value, rhs if op == "*" else _inverse(rhs, pos)))
            else:
                return value

    def factor(self) -> tuple:
        kind, op, _ = self.peek()
        if kind == "op" and op in "+-":
            self.advance()
            value = self.factor()
            return neg(value) if op == "-" else value
        return self.power()

    def power(self) -> tuple:
        base = self.atom()
        kind, op, pos = self.peek()
        if kind != "op" or op != "^":
            return base
        self.advance()
        exponent = self._exponent()
        if exponent.denominator == 1:
            n = exponent.numerator
            if n < 0:
                base, n = _inverse(base, pos), -n
            return _ref_power(base, n)
        if z_degree(base):
            raise ParseError("fractional exponent on a non-scalar base", pos)
        level, (num,), (den,) = base
        if len(num) != 1 or list(num.values()) != list(den.values()):
            raise ParseError("fractional exponent needs a bare power of t", pos)
        (a,), (b,) = num, den
        return _ref_t_power(Fraction(a - b, level) * exponent)

    def _sign(self) -> int:
        kind, value, _ = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            return -1 if value == "-" else 1
        return 1

    def _exponent(self) -> Fraction:
        sign = self._sign()
        kind, value, pos = self.advance()
        if kind == "int":
            return Fraction(sign * value)
        if kind == "op" and value == "(":
            inner = self._signed_rational()
            self.expect_op(")")
            return sign * inner
        raise ParseError("expected an integer or parenthesised exponent", pos)

    def _signed_rational(self) -> Fraction:
        sign = self._sign()
        kind, numerator, pos = self.advance()
        if kind != "int":
            raise ParseError("expected a rational exponent", pos)
        kind, value, _ = self.peek()
        if kind != "op" or value != "/":
            return Fraction(sign * numerator)
        self.advance()
        kind, value, pos = self.advance()
        if kind != "int":
            raise ParseError("expected a denominator", pos)
        if value == 0:
            raise ParseError("zero denominator in an exponent", pos)
        return Fraction(sign * numerator, value)

    def atom(self) -> tuple:
        kind, value, pos = self.advance()
        if kind == "int":
            return 1, [{0: value} if value else {}], [{0: 1}]
        if kind == "name":
            if value == "t":
                return 1, [{1: 1}], [{0: 1}]
            if value == "z":
                if not self.allow_z:
                    raise ParseError("the variable z is not allowed here", pos)
                return 1, [{}, {0: 1}], [{0: 1}]
            raise ParseError(f"unknown name {value!r}", pos)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a value", pos)


def reference_parse(text: str, allow_z: bool) -> tuple:
    """The parsed value (level, num, den) as the recursive-descent parser gave it."""
    return _ReferenceParser(text, allow_z).parse()


# -- the validity certificate as it stood before the resultant at the check
# point was decided by a Euclidean gcd over F_p: Gaussian elimination of the
# 2d x 2d Sylvester matrix modulo _CHECK_P, one pow per term and one inverse
# per pivot.  Kept as the oracle of the differential test.


def reference_resultant_certified(lift) -> bool:
    values = [
        sum(c * pow(_CHECK_U, e, _CHECK_P) for e, c in p.terms) % _CHECK_P
        for p in lift.den + lift.num
    ]
    d = len(lift.den) - 1
    rows = _sylvester_rows(values[: d + 1], values[d + 1 :], 0)
    n = len(rows)
    for k in range(n):
        swap = next((r for r in range(k, n) if rows[r][k]), None)
        if swap is None:
            return False
        rows[k], rows[swap] = rows[swap], rows[k]
        inv = pow(rows[k][k], -1, _CHECK_P)
        for i in range(k + 1, n):
            f = rows[i][k] * inv % _CHECK_P
            if f:
                rows[i] = [(x - f * y) % _CHECK_P for x, y in zip(rows[i], rows[k])]
    return True


# -- the pullback level solver as it stood before the coefficients of a level
# were built in one complex buffer and tested by squared moduli, and before
# Aberth iteration held its roots as contiguous rows; kept as the oracle of
# the differential test.  Every root must match it bit for bit.


def _ref_horner(cr, ci, zr, zi):
    import numpy as np
    accr, acci = np.zeros_like(zr), np.zeros_like(zr)
    for k in range(cr.shape[1] - 1, -1, -1):
        pr, pi = _mul(accr, acci, zr, zi)
        accr = pr + cr[:, k]
        acci = pi + ci[:, k]
    return accr, acci


def _ref_aberth(coeffs):
    import numpy as np
    m, e = coeffs.shape[0], coeffs.shape[1] - 1
    mr, mi = _div(coeffs.real, coeffs.imag, coeffs.real[:, -1:], coeffs.imag[:, -1:])
    am = np.hypot(mr, mi)
    radius = am[:, 0]
    for k in range(1, e):
        radius = np.where(am[:, k] > radius, am[:, k], radius)
    radius = 1.0 + radius
    zr, zi = np.empty((m, e)), np.empty((m, e))
    for k in range(e):
        s = cmath.exp(2j * math.pi * (k / e) + 0.4j)
        zr[:, k] = radius * s.real - 0.0 * s.imag
        zi[:, k] = radius * s.imag + 0.0 * s.real
    steps = np.arange(1.0, e + 1.0)
    dr, di = _mul(mr[:, 1:], mi[:, 1:], steps, 0.0)

    roots_r, roots_i = np.empty((m, e)), np.empty((m, e))
    live = np.arange(m)
    for _ in range(ABERTH_MAX_ITER):
        pending = np.zeros(live.size, dtype=bool)
        for j in range(e):
            z_r, z_i = zr[:, j].copy(), zi[:, j].copy()
            pr, pi = _ref_horner(mr, mi, z_r, z_i)
            az = np.hypot(z_r, z_i)
            pending |= _above_bound(am, np.where(az > 1.0, az, 1.0), np.hypot(pr, pi))
            qr, qi = _ref_horner(dr, di, z_r, z_i)
            flat = (qr == 0) & (qi == 0)
            nr, ni = _div(pr, pi, qr, qi)
            rr, ri = np.zeros_like(z_r), np.zeros_like(z_r)
            for k in range(e):
                if k == j:
                    continue
                xr = z_r - zr[:, k]
                xi = z_i - zi[:, k]
                same = (xr == 0) & (xi == 0)
                xr = np.where(same, 1e-14 * (1 + az), xr)
                xi = np.where(same, 0.0, xi)
                ur, ui = _div(1.0, 0.0, xr, xi)
                rr = rr + ur
                ri = ri + ui
            pr, pi = _mul(nr, ni, rr, ri)
            den_r, den_i = 1.0 - pr, 0.0 - pi
            stuck = (den_r == 0) & (den_i == 0)
            ur, ui = _div(nr, ni, np.where(stuck, 1e-14, den_r), np.where(stuck, 0.0, den_i))
            nudge_r, nudge_i = _mul(z_r, z_i, 1 + 1e-8, 0.0)
            zr[:, j] = np.where(flat, nudge_r + 1e-8, z_r - ur)
            zi[:, j] = np.where(flat, nudge_i + 0.0, z_i - ui)
            pending |= flat
        done = ~pending
        roots_r[live[done]] = zr[done]
        roots_i[live[done]] = zi[done]
        if done.all():
            return _join(roots_r, roots_i), np.zeros(m, dtype=bool)
        live, zr, zi = live[pending], zr[pending], zi[pending]
        mr, mi, am, dr, di = mr[pending], mi[pending], am[pending], dr[pending], di[pending]
    failed = np.zeros(m, dtype=bool)
    failed[live] = True
    return _join(roots_r, roots_i), failed


def _ref_quadratic(c0, c1, c2):
    import numpy as np
    p, q = c1 / c2, c0 / c2
    s = np.sqrt(p * p / 4 - q)
    s = np.where(p.real * s.real + p.imag * s.imag < 0, -s, s)
    r1 = -(p / 2 + s)
    zero = r1 == 0  # then p = q = 0 and both roots are 0
    r2 = np.where(zero, 0j, q / np.where(zero, 1, r1))
    return np.stack([r1, r2], axis=1)


def _ref_solve(cr, ci):
    if len(cr) == 2:
        return _join(*_div(-cr[0], -ci[0], cr[1], ci[1]))[:, None], None
    c = _join(cr, ci)
    if len(cr) == 3:
        return _ref_quadratic(*c), None
    return _ref_aberth(c.T)


def reference_preimages(num, den, ws, level):
    """The preimages of one pullback level, as _preimages computed them with
    the hypot cutoff test on every level."""
    import numpy as np
    d = num.shape[0] - 1
    wr, wi = ws.real, ws.imag
    br, bi = den.real[:, :, None], den.imag[:, :, None]
    pr, pi = _mul(wr, wi, br, bi)
    cr, ci = num.real[:, :, None] - pr, num.imag[:, :, None] - pi
    at_inf = np.isinf(wr) | np.isinf(wi)
    if at_inf.any():
        cr, ci = np.where(at_inf, br, cr), np.where(at_inf, bi, ci)
    cr, ci, ws = cr.reshape(d + 1, -1), ci.reshape(d + 1, -1), ws.ravel()
    size = np.hypot(cr, ci)
    top = size[0]
    for k in range(1, d + 1):
        top = np.where(size[k] > top, size[k], top)
    if d and not (size[d] <= _LEADING_CUTOFF * top).any():  # a constant map has no roots
        roots, failed = _ref_solve(cr, ci)
        if failed is not None and failed.any():
            raise RootFindingFailed(level, complex(ws[np.argmax(failed)]))
        return roots.ravel()
    # effective degree: the highest coefficient above the cutoff
    eff = np.zeros(ws.size, dtype=int)
    for k in range(1, d + 1):
        eff = np.where(size[k] <= _LEADING_CUTOFF * top, eff, k)
    failed = top == 0.0
    out = np.full((ws.size, d), INF_C)
    for e in range(1, d + 1):
        rows = np.flatnonzero(eff == e)
        if rows.size == 0:
            continue
        roots, bad = _ref_solve(cr[: e + 1, rows], ci[: e + 1, rows])
        if bad is not None:
            failed[rows[bad]] = True
        out[rows, :e] = roots
    if failed.any():
        raise RootFindingFailed(level, complex(ws[np.argmax(failed)]))
    return out.ravel()
