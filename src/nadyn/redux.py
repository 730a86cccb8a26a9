"""Rational maps over K: composition, conjugation, reductions, depths.

A map is stored as one lift: numerator and denominator coefficient vectors
of equal length d+1 in Z[u], u = t^(1/N), in _shift_out form (minimal
valuation 0, integer content 1; a common factor in u of positive degree
stays).  Validity means the degree-d homogeneous pair has nonzero
resultant; map_from_lift checks it once, by the Sylvester determinant at
one integer u modulo one prime, and only when that vanishes by the exact
(Bareiss) determinant, its one use at run time.  ordRes (ord_res_of_lift)
takes only the determinant's u-adic valuation (_sylvester_val).  Products
of lifts live in nadyn.lifts; they, that valuation and the determinant run
on ints alone.  The parser builds lifts directly, and make_map clears the
denominators of scalar vectors from outside.
Composition, conjugation, reduction and ordRes are projective invariants,
so they run on lifts, and charts are lifted straight from (t^s, a).  The
pivot-normalised KScalar vectors num/den are a view derived on demand, for
printing, specialisation and projective equality.  The intrinsic reduction
at a type II point (IntrinsicReduction) is read off the cached ray at the
centre by scaling (reduce_lift shifts the ray's lowest terms by powers of
t^s; no conjugate lift is built), and cached per (lift, point).
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property, lru_cache
from math import gcd, lcm
from typing import NamedTuple

from .errors import AmbiguousClass, DegenerateMap, DegreeTooLow, IterationCapExceeded, LevelCapExceeded, Record
from .lifts import Lift, _at_level, _shift_out, compose_lifts, rescaled, taylor_shift
from .polys import QPoly, _long_division, _primitive, qdiv
from .respoly import (
    DepthDivisor,
    FactorClass,
    FiniteClass,
    HomogeneousForm,
    InfinityClass,
    INFINITY,
    homogeneous_gcd,
    squarefree_decomposition,
)
from .scalars import HARD_LEVEL_CAP, KScalar
# nadyn.berkspace imports this module, so its TypeIIPoint is named in annotations only

ITERATION_CAP = 4096

# map_from_lift decides the resultant at u = _CHECK_U modulo the prime
# _CHECK_P before it takes the exact determinant.
_CHECK_P = 2**61 - 1
_CHECK_U = 1009


class RationalMapK(Record):
    """phi(z) = sum(num[i] z^i) / sum(den[i] z^i), genuinely of this degree.

    The one stored form is the lift (_shift_out output).  num and den are the
    pivot-normalised KScalar view of it, built on first use; equality and
    hashing compare views, so they are projective.
    """

    __slots__ = ("lift", "__dict__")

    @property
    def degree(self) -> int:
        return len(self.lift.num) - 1

    @cached_property
    def _view(self) -> tuple[tuple[KScalar, ...], tuple[KScalar, ...]]:
        return _normalised(self.lift)

    @property
    def num(self) -> tuple[KScalar, ...]:
        return self._view[0]

    @property
    def den(self) -> tuple[KScalar, ...]:
        return self._view[1]

    def __eq__(self, other):
        if not isinstance(other, RationalMapK):
            return NotImplemented
        return self._view == other._view

    def __hash__(self):
        return hash(self._view)

    def __repr__(self):
        from .parsing import map_str

        return f"RationalMapK({map_str(self)})"


def _bareiss_det(mat: list[list[QPoly]]) -> QPoly:
    """Fraction-free determinant over Q[u]: only exact divisions occur."""
    n = len(mat)
    sign = 1
    prev = QPoly.one()
    for k in range(n - 1):
        if mat[k][k].is_zero:
            swap = next((r for r in range(k + 1, n) if mat[r][k]), None)
            if swap is None:
                return QPoly.zero()
            mat[k], mat[swap] = mat[swap], mat[k]
            sign = -sign
        pivot = mat[k][k]
        for i in range(k + 1, n):
            head = mat[i][k]
            for j in range(k + 1, n):
                val = mat[i][j] * pivot - head * mat[k][j]
                mat[i][j] = val.exact_div(prev)
            mat[i][k] = QPoly.zero()
        prev = pivot
    det = mat[n - 1][n - 1]
    return -det if sign < 0 else det


def _sylvester_rows(den, num, zero) -> list[list]:
    """The 2d x 2d Sylvester matrix of a polynomial pair given by coefficients."""
    d = len(den) - 1
    rows = []
    for source in (den, num):
        for k in range(d):
            row = [zero] * (2 * d)
            for j in range(d + 1):
                row[k + j] = source[d - j]
            rows.append(row)
    return rows


def _sylvester_det(den: tuple[QPoly, ...], num: tuple[QPoly, ...]) -> QPoly:
    """Determinant of the 2d x 2d Sylvester matrix of a polynomial pair."""
    return _bareiss_det(_sylvester_rows(den, num, QPoly.zero()))


def _cross(unit: dict, a: dict, head: dict, b: dict, m: int) -> dict:
    """unit * a - head * b modulo u^m, on exponent -> int dicts."""
    acc: dict = {}
    for p, q, sign in ((unit, a, 1), (head, b, -1)):
        for e1, c1 in p.items():
            for e2, c2 in q.items():
                if e1 + e2 < m:
                    acc[e1 + e2] = acc.get(e1 + e2, 0) + sign * c1 * c2
    return {e: x for e, x in acc.items() if x}


def _sylvester_val(den: tuple[QPoly, ...], num: tuple[QPoly, ...]) -> int:
    """val_u of the Sylvester determinant of a pair over Z[u], without forming
    it: elimination over Z[u]/(u^m), m = 4, 8, 16, ... (Caruso, Roe and Vaccon,
    "p-adic stability in linear algebra", 2015).  A pivot of least valuation v
    makes row_i <- (pivot/u^v) row_i - (head/u^v) row_k keep precision u^m, and
    pivot/u^v is a unit, so val(det) sums the pivots' v.  det has u-degree at
    most 2d times any entry's, so a block vanishing past that proves it zero.
    """
    d = len(den) - 1
    bound, m = 2 * d * max(p.degree for p in den + num), 4
    while True:
        entries = [{e: c for e, c in p.terms if e < m} for p in den + num]
        mat, total = _sylvester_rows(entries[: d + 1], entries[d + 1 :], {}), 0
        while mat:
            # least valuation, then fewest nonzeros in the column (least fill)
            counts = [sum(1 for row in mat if row[j]) for j in range(len(mat))]
            nonzero = ((min(x), counts[j], i, j) for i, row in enumerate(mat) for j, x in enumerate(row) if x)
            best = min(nonzero, default=None)
            if best is None:
                break
            v, _, k, c = best
            total += v
            pivot_row = mat.pop(k)
            unit = {e - v: x for e, x in pivot_row.pop(c).items()}
            for i, row in enumerate(mat):
                head = {e - v: x for e, x in row.pop(c).items()}
                if head:  # divide the new row by its integer content
                    new = [_cross(unit, a, head, b, m) for a, b in zip(row, pivot_row)]
                    g = gcd(*(x for p in new for x in p.values()))
                    mat[i] = [{e: x // g for e, x in p.items()} for p in new]
        else:
            return total
        if m > bound:
            raise AssertionError("resultant vanished on a valid map")
        m *= 2


def _cleared_vector(coeffs: tuple[KScalar, ...], level: int):
    """Common-denominator form: polynomial entries and the common denominator."""
    pairs = [c.at_level(level) for c in coeffs]
    common = QPoly.one()
    for _, den in pairs:
        if den != common:
            common = common * den.exact_div(common.gcd(den))
    return [num * common.exact_div(den) for num, den in pairs], common


def sylvester_resultant(den: tuple[KScalar, ...], num: tuple[KScalar, ...]) -> KScalar:
    """Resultant of the degree-d homogeneous pair (2d x 2d Sylvester matrix)."""
    d = len(den) - 1
    level = lcm(*(c.level for c in den + num))
    polys, common = _cleared_vector(den + num, level)
    det = _sylvester_det(polys[: d + 1], polys[d + 1 :])
    # the resultant is d-homogeneous in each coefficient row
    return KScalar(det, common ** (2 * d), level)


def make_map(num, den) -> RationalMapK:
    """Validate and build a map from coefficient vectors of equal length."""
    num = tuple(num)
    den = tuple(den)
    if len(num) != len(den):
        raise ValueError("numerator and denominator vectors must have equal length")
    if len(num) < 2:
        raise ValueError("a rational map needs degree at least 1")
    return map_from_lift(_lift(num, den))


def _resultant_certified(lift: Lift) -> bool:
    """Whether the Sylvester determinant of a lift over Z[u] (_shift_out
    output, so every coefficient is an int) is nonzero at u = _CHECK_U
    modulo the prime _CHECK_P, which proves it nonzero over Z[u].  That value
    is the resultant of the pair's reductions over F_p, which vanishes exactly
    when both leading coefficients do or the two polynomials have a
    nonconstant gcd, so Euclid decides it (G. E. Collins, J. ACM 18, 1971)."""
    polys = lift.den + lift.num
    powers = {e: pow(_CHECK_U, e, _CHECK_P) for e in {e for p in polys for e, _ in p.terms}}
    values = [sum([c * powers[e] for e, c in p.terms]) % _CHECK_P for p in reversed(polys)]
    g, f = values[: len(lift.num)], values[len(lift.num) :]  # highest coefficient first
    f, g = (f, g) if f[0] else (g, f)
    if not f[0]:  # both leading coefficients vanish: a common root at infinity
        return False
    while True:  # f has a nonzero head; f <- g[0]^k f - q g, the remainder up to a unit
        while g and not g[0]:
            del g[0]
        if not g:
            return len(f) == 1
        lead, n = g[0], len(g)
        for i in range(len(f) - n + 1):
            for j in range(i + 1, len(f)):
                f[j] = (lead * f[j] - f[i] * g[j - i]) % _CHECK_P if j - i < n else lead * f[j] % _CHECK_P
        f, g = g, f[len(f) - n + 1 :]


def map_from_lift(lift: Lift) -> RationalMapK:
    """Validate a lift of _shift_out form (nonzero resultant) and wrap it.

    The modular check certifies almost every valid map at once; only when it
    cannot does the exact determinant over Z[u] decide.
    """
    if not _resultant_certified(lift) and _sylvester_det(lift.den, lift.num).is_zero:
        raise DegenerateMap("coefficient pair has zero resultant")
    return RationalMapK(lift)


# -- lifts: one representative over Q[u] ------------------------------------------


def _lift(num: tuple[KScalar, ...], den: tuple[KScalar, ...]) -> Lift:
    level = lcm(*(c.level for c in den + num))
    polys, _ = _cleared_vector(den + num, level)
    return _shift_out(level, polys[len(den) :], polys[: len(den)])


def chart_lift(a: KScalar, s: Fraction) -> Lift:
    """Lift of the chart w -> t^s*w + a (a point's canonical chart at its centre and exponent).

    The centre a is a Laurent polynomial u^(-k) * A(u), so clearing needs
    only a power of u.
    """
    level = lcm(a.level, s.denominator)
    e = int(s * level)
    a_num, a_den = a.at_level(level)
    k = a_den.degree  # a_den is the monic monomial u^k
    m = max(k, -e)
    num = (a_num.shifted(m - k), QPoly.monomial(e + m))
    return _shift_out(level, num, (QPoly.monomial(m), QPoly.zero()))


def _inverse_lift(m: Lift) -> Lift:
    # projective inverse (d*w - b)/(-c*w + a) of w -> (a*w + b)/(c*w + d)
    if len(m.num) != 2:
        raise ValueError("a Mobius map has degree 1")
    (b, a), (d, c) = m.num, m.den
    return Lift(m.level, (-b, d), (a, -c))


def conjugate_lift(m: Lift, lift: Lift) -> Lift:
    """Lift of m^(-1) . phi . m from the lifts of m and phi."""
    return compose_lifts(_inverse_lift(m), compose_lifts(lift, m))


class Ray(NamedTuple):
    """The Taylor shift of a map's lift P/Q at a centre a = A/B, B = D*u^k.

    lift.num[j] = B^(d+1) T_j(P - aQ)(a) and lift.den[j] = B^(d+1) T_j(Q)(a)
    in Z[u], T_j the j-th Taylor coefficient.  Up to the common factor
    B^(d+1), the chart conjugate at xi_{a,s} has numerator coefficients
    t^(js) lift.num[j] and denominator coefficients t^((j+1)s) lift.den[j].
    pieces lists integer pairs (v, m), one per slope m, with alpha =
    v / lift.level the least ord in t-units of T_j(P - aQ)(a) for j = m and
    of T_j(Q)(a) for j = m - 1, so that the least ord of a coefficient of
    the chart conjugate is min(alpha + m*s) over the pieces.
    """

    lift: Lift
    pieces: tuple[tuple[int, int], ...]


@lru_cache(maxsize=512)
def ray(lift: Lift, center: KScalar) -> Ray:
    """The ray of the map's lift from a Laurent-polynomial centre (see
    lifts.taylor_shift)."""
    level = lcm(lift.level, center.level)
    lift, k = _at_level(lift, level), 0
    if not center.is_zero:
        lift, k = taylor_shift(lift, center)
    low: dict[int, int] = {}  # slope m -> least val of num[m] and den[m - 1]
    for m, p in [*enumerate(lift.num), *enumerate(lift.den, 1)]:
        if p and (m not in low or p.val < low[m]):
            low[m] = p.val
    offset = k * len(lift.num)
    return Ray(lift, tuple((v - offset, m) for m, v in sorted(low.items())))


def chart_conjugate_lift(lift: Lift, point: TypeIIPoint) -> Lift:
    """Lift of the conjugate of the map by the canonical chart of the point:
    the ray at the point's centre, R, rescaled to w -> t^(-s) R(t^s w)."""
    if point.exponent == 0 and point.center.is_zero:
        return lift  # the chart of the Gauss point is the identity
    return rescaled(ray(lift, point.center).lift, point.exponent, point.exponent)


def _normalised(lift: Lift):
    """The KScalar view of a lift: every coefficient over the pivot, the
    first nonzero entry of den + num."""
    pivot = next(p for p in lift.den + lift.num if p)
    num = tuple(KScalar(p, pivot, lift.level) for p in lift.num)
    den = tuple(KScalar(p, pivot, lift.level) for p in lift.den)
    return num, den


def ord_res_of_lift(lift: Lift) -> Fraction:
    """Valuation of the resultant of a minimal lift, in t-units."""
    return Fraction(_sylvester_val(lift.den, lift.num), lift.level)


def check_iteration_cap(d: int, n: int) -> None:
    if d**n > ITERATION_CAP:
        raise IterationCapExceeded(f"degree {d}^{n} exceeds cap {ITERATION_CAP}")


def compose(outer: RationalMapK, inner: RationalMapK) -> RationalMapK:
    """outer after inner; the degree multiplies and no revalidation is needed."""
    return RationalMapK(compose_lifts(outer.lift, inner.lift))


def iterate(phi: RationalMapK, n: int) -> RationalMapK:
    """n-fold composition of the map with itself."""
    if n < 1:
        raise ValueError("iteration count must be positive")
    check_iteration_cap(phi.degree, n)
    lift = phi.lift
    for _ in range(n - 1):
        lift = compose_lifts(phi.lift, lift)
    return phi if n == 1 else RationalMapK(lift)


def precompose(phi: RationalMapK, m: RationalMapK) -> RationalMapK:
    """phi after the degree-1 map m (substitution on the source side)."""
    return compose(phi, m)


def postcompose(m: RationalMapK, phi: RationalMapK) -> RationalMapK:
    """The degree-1 map m after phi (linear combination on the value side)."""
    return compose(m, phi)


def conjugate(m: RationalMapK, phi: RationalMapK) -> RationalMapK:
    """Exact coefficients of m^(-1) . phi . m for a degree-1 map m; the
    degree is preserved."""
    return RationalMapK(conjugate_lift(m.lift, phi.lift))


class IntrinsicReduction(Record):
    """Intrinsic reduction of a map at a type II point: the reduction of the
    lift of its chart conjugate.

    The reduced pair has GCD form h; the quotient pair tilde_num/tilde_den
    is the tangent map when tilde_degree >= 1, and otherwise a constant
    naming the image direction image_class.  depths, the squarefree
    decomposition of h, is built on first use.
    """

    __slots__ = ("reduced_num", "reduced_den", "h", "tilde_num", "tilde_den", "tilde_degree", "image_class", "__dict__")

    @property
    def fixes_point(self) -> bool:
        return self.tilde_degree >= 1

    @property
    def totally_invariant(self) -> bool:
        return self.h.degree == 0

    @cached_property
    def depths(self) -> DepthDivisor:
        return squarefree_decomposition(self.h)


def reduce_lift(lift: Lift, right=0, left=0) -> IntrinsicReduction:
    """Reduced pair, GCD form H, and the reduced map num/H over den/H of
    w -> t^(-left) F(t^right w), F the lift's map, read off the lift itself.

    Rescaling shifts all terms of entry j by one amount, j*right less left
    on the numerator, so in integer exponents over lcm(level, denominators)
    the residues are the lowest terms of the entries of least shifted ord.
    H is the same for any scaling of the pair: it and the quotients by its
    primitive integer multiple come from those integers, each coefficient
    scaled once over the pivot's lowest (the first nonzero of den + num).
    """
    level = lcm(lift.level, right.denominator, left.denominator)
    if level != lift.level and level > HARD_LEVEL_CAP:
        raise LevelCapExceeded(f"internal level {level} exceeds hard cap")
    m = level // lift.level
    r, l = (level // x.denominator * x.numerator for x in (right, left))
    lows = [[(j, p.terms[0][0] * m + j * r - shift, p.terms[0][1]) for j, p in enumerate(part) if p]
            for part, shift in ((lift.num, l), (lift.den, 0))]
    v, d = min(e for part in lows for _, e, _ in part), len(lift.num) - 1
    int_num, int_den = (HomogeneousForm(d, QPoly._of_terms(tuple((j, c) for j, e, c in part if e == v))) for part in lows)
    low = next(p for p in lift.den + lift.num if p).terms[0][1]

    def over(terms: tuple, k=1) -> QPoly:  # the terms times k/low
        return QPoly._of_terms(terms if k == low else tuple((e, qdiv(c * k, low)) for e, c in terms))

    h = homogeneous_gcd(int_num, int_den)
    prim = _primitive(h.dehom.terms)[0]  # the integer multiple of H of content 1, lc(prim) > 0
    qn, qd = (over(_long_division(f.dehom.terms, prim)[0], prim[-1][1]) for f in (int_num, int_den))
    tilde_degree = d - h.degree
    image_class = None
    if tilde_degree == 0:  # qn and qd are constants
        image_class = FiniteClass(qdiv(qn.coeff(0), qd.coeff(0))) if qd else INFINITY
    return IntrinsicReduction(
        reduced_num=HomogeneousForm(d, over(int_num.dehom.terms)),
        reduced_den=HomogeneousForm(d, over(int_den.dehom.terms)),
        h=h,
        tilde_num=qn,
        tilde_den=qd,
        tilde_degree=tilde_degree,
        image_class=image_class,
    )


@lru_cache(maxsize=512)
def _reduction(lift: Lift, point: TypeIIPoint) -> IntrinsicReduction:
    s = point.exponent  # the chart conjugate, read off the ray at the centre
    return reduce_lift(ray(lift, point.center).lift if s or not point.center.is_zero else lift, s, s)


def reduction_at(phi: RationalMapK, point: TypeIIPoint) -> IntrinsicReduction:
    """Reduction of the conjugate of the map by the chart of the point."""
    return _reduction(phi.lift, point)


def intrinsic_data(phi: RationalMapK, point: TypeIIPoint) -> IntrinsicReduction:
    """Conjugate to the canonical chart and reduce; degree 2 and up only."""
    if phi.degree < 2:
        raise DegreeTooLow("intrinsic data needs a map of degree >= 2")
    return _reduction(phi.lift, point)


def _fixes_class(info: IntrinsicReduction, cls) -> bool:
    """Whether the intrinsic reduction maps every direction of the class to itself."""
    if not info.fixes_point:
        image = info.image_class
        if isinstance(cls, FactorClass):
            if isinstance(image, FiniteClass) and cls.poly.eval(image.value) == 0:
                raise AmbiguousClass(
                    "image direction lies inside the factor class; refine it"
                )
            return False
        return cls == image
    n_poly, d_poly = info.tilde_num, info.tilde_den
    if isinstance(cls, InfinityClass):
        return d_poly.degree < info.tilde_degree
    if isinstance(cls, FiniteClass):
        c = cls.value
        return n_poly.eval(c) == c * d_poly.eval(c)
    if isinstance(cls, FactorClass):
        # gcd(poly, 0) is the monic poly itself: the identity fixes every class
        g = cls.poly.gcd(n_poly - QPoly.x() * d_poly)
        if g.degree == 0:
            return False
        if g.degree == cls.poly.degree:
            return True
        raise AmbiguousClass(
            f"class {cls.poly.to_str('z')} mixes fixed and moved directions"
        )
    raise TypeError(f"unsupported direction class {cls!r}")
