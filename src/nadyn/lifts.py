"""Lift arithmetic: polynomials in z with coefficients in Z[u], t = u^level.

Every product of lifts runs here: the parser's sums, its products and powers
past monomials, composition (so conjugation and iteration), the Taylor shift
of redux.ray, rescalings by powers of t, level changes and _shift_out.  A
polynomial in z is a list of dicts, one per power of z, from powers of u to
ints, so u stays sparse (a chart at s = 10^70 puts u^(10^70) into a lift);
a finished Lift's entries are QPolys, built once for a parsed map
(parsed_lift) and rebuilt by _shift_out when it divides out u^k or a content.
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm
from typing import NamedTuple

from .errors import LevelCapExceeded
from .polys import QPoly, primitive_parts
from .scalars import HARD_LEVEL_CAP, KScalar

_ONE = [{0: 1}]  # 1 as a polynomial in z


class Lift(NamedTuple):
    """Coefficients num[i], den[i] in Q[u], t = u^level, of one map (a Mobius
    map has degree 1) up to a common scalar.  A stored lift is _shift_out output:
    coefficients in Z[u], minimal valuation 0, integer content 1."""

    level: int
    num: tuple[QPoly, ...]
    den: tuple[QPoly, ...]


# -- products: a polynomial in z is a list of dicts, one per power of z -------


def _addmul(acc: list, p: list, q: list) -> list:
    """acc += p * q, acc extended as far as p * q reaches."""
    if len(acc) < len(p) + len(q) - 1:
        acc.extend({} for _ in range(len(p) + len(q) - 1 - len(acc)))
    for i, a in enumerate(p):
        if a:
            for j, b in enumerate(q):
                if b:
                    out = acc[i + j]
                    get = out.get
                    for e1, c1 in a.items():
                        for e2, c2 in b.items():
                            e = e1 + e2
                            out[e] = get(e, 0) + c1 * c2
    return acc


def _mul(p: list, q: list) -> list:
    if len(q[-1]) == 1 and (len(q) == 1 or not any(q[:-1])):
        p, q = q, p
    if len(p[-1]) == 1 and (len(p) == 1 or not any(p[:-1])):  # c * u^e * z^i scales and shifts
        ((e, c),) = p[-1].items()
        return [{} for _ in p[1:]] + [{e + e2: c * c2 for e2, c2 in x.items()} for x in q]
    return _addmul([], p, q)


def _stretch(p: list, m: int) -> list:
    """p(u^m)."""
    return p if m == 1 else [{e * m: c for e, c in x.items()} for x in p]


def _substitute(parts: list[list[dict]], p: list, q: list) -> list[list]:
    """For each coefficient list c in parts (all of length d + 1), the sum of
    c[i] * p^i * q^(d-i): each product p^i * q^(d-i) is formed once, and the
    small coefficients multiply it last."""
    d = len(parts[0]) - 1
    p_pows, q_pows = [_ONE], [_ONE]
    for _ in range(d):
        p_pows.append(_mul(p_pows[-1], p))
        q_pows.append(_mul(q_pows[-1], q))
    size = d * (max(len(p), len(q)) - 1) + 1
    out = [[{} for _ in range(size)] for _ in parts]
    for i in range(d + 1):
        if any(c[i] for c in parts):
            product = _mul(p_pows[i], q_pows[d - i])
            for acc, c in zip(out, parts):
                if c[i]:
                    _addmul(acc, [c[i]], product)
    return out


# -- conversions -----------------------------------------------------------------


def _dicts(polys) -> list[dict]:
    return [dict(p.terms) for p in polys]


def _shift_out(level: int, num, den) -> Lift:
    """The lift over Z[u] with content 1: the common power of u divided out,
    rational denominators cleared and the integer content divided out."""
    polys = [*num, *den]
    k = min((p.val for p in polys if p), default=0)
    polys = primitive_parts(polys, k)
    return Lift(level, tuple(polys[: len(num)]), tuple(polys[len(num) :]))


def _at_level(lift: Lift, level: int) -> Lift:
    if level == lift.level:
        return lift
    if level > HARD_LEVEL_CAP:
        raise LevelCapExceeded(f"internal level {level} exceeds hard cap")
    m = level // lift.level
    return Lift(level, tuple(p.stretched(m) for p in lift.num), tuple(p.stretched(m) for p in lift.den))


def _common_level(a: Lift, b: Lift) -> tuple[Lift, Lift]:
    level = lcm(a.level, b.level)
    return _at_level(a, level), _at_level(b, level)


# -- maps --------------------------------------------------------------------------


def compose_lifts(outer: Lift, inner: Lift) -> Lift:
    """Lift of outer after inner: sum of outer_i * p^i * q^(d-i) over Z[u]."""
    outer, inner = _common_level(outer, inner)
    parts = _substitute([_dicts(outer.num), _dicts(outer.den)], _dicts(inner.num), _dicts(inner.den))
    return _shift_out(outer.level, *([QPoly._build(x) for x in part] for part in parts))


def rescaled(lift: Lift, right: Fraction, left: Fraction) -> Lift:
    """Lift of w -> t^(-left) F(t^right w), F the lift's map."""
    level = lcm(lift.level, right.denominator, left.denominator)
    lift = _at_level(lift, level)
    r, l = right.numerator * level // right.denominator, left.numerator * level // left.denominator
    base = min(0, (len(lift.num) - 1) * r) + min(0, -l)  # keeps every exponent nonnegative
    num = [p.shifted(j * r - l - base) for j, p in enumerate(lift.num)]
    den = [q.shifted(j * r - base) for j, q in enumerate(lift.den)]
    return _shift_out(level, num, den)


def taylor_shift(lift: Lift, a: KScalar) -> tuple[Lift, int]:
    """The lift of redux.Ray at a centre a = A/B, B = scale * u^k, whose
    level divides the lift's, and k.  Its entries are the coefficients of
    the sums of B^(d-i) (B P_i - A Q_i) (Bz + A)^i and B^(d+1-i) Q_i (Bz + A)^i,
    so all the work stays in Z[u]."""
    a_num, a_den = a.at_level(lift.level)
    k = a_den.val  # a_den is the monic monomial u^k
    scale = lcm(*(c.denominator for _, c in a_num.terms))
    big_a = {e: int(c * scale) for e, c in a_num.terms}
    d = len(lift.num) - 1

    def times_b(x: dict, m: int) -> dict:
        s, shift = scale**m, k * m
        return {e + shift: c * s for e, c in x.items()}

    minus_a = [{e: -c for e, c in big_a.items()}]
    num, den = [], []
    for i, (p, q) in enumerate(zip(lift.num, lift.den)):
        q = dict(q.terms)
        num.append(times_b(_addmul([times_b(dict(p.terms), 1)], minus_a, [q])[0], d - i))
        den.append(times_b(q, d + 1 - i))
    parts = _substitute([num, den], [big_a, {k: scale}], _ONE)
    return Lift(lift.level, *(tuple(map(QPoly._build, part)) for part in parts)), k


# -- the parser's values: (level, num, den), num and den polynomials in z as
# above, with no zero entry and no zero leading coefficient in z -------------


def _trim(p: list) -> list:
    p = [x if all(x.values()) else {e: c for e, c in x.items() if c} for x in p]
    while len(p) > 1 and not p[-1]:
        p.pop()
    return p


def _common(a: tuple, b: tuple) -> tuple:
    """The level of a and b together, and their num and den at that level."""
    if a[0] == b[0]:
        return (*a, *b[1:])
    level = lcm(a[0], b[0])
    return level, *(_stretch(p, level // v[0]) for v in (a, b) for p in v[1:])


def z_degree(value: tuple) -> int:
    return max(len(value[1]), len(value[2])) - 1


def add(a: tuple, b: tuple) -> tuple:
    level, an, ad, bn, bd = _common(a, b)
    if ad == bd:  # the numerators merge per power of z
        num = [dict(x) for x in an] + [{} for _ in bn[len(an) :]]
        for x, y in zip(num, bn):
            for e, c in y.items():
                x[e] = x.get(e, 0) + c
        return level, _trim(num), ad
    return level, _trim(_addmul(_mul(an, bd), bn, ad)), _trim(_mul(ad, bd))


def neg(a: tuple) -> tuple:
    return a[0], [{e: -c for e, c in x.items()} for x in a[1]], a[2]


def mul(a: tuple, b: tuple) -> tuple:
    level, an, ad, bn, bd = _common(a, b)
    return level, _trim(_mul(an, bn)), _trim(_mul(ad, bd))


def power(base: tuple, n: int) -> tuple:
    """base^n by repeated squaring."""
    result = (1, [{0: 1}], [{0: 1}])
    while n:
        if n & 1:
            result = mul(result, base)
        n >>= 1
        if n:
            base = mul(base, base)
    return result


def parsed_lift(value: tuple) -> Lift:
    """The stored lift of a parsed value, each QPoly built once: the common
    power of u and the integer content divided out, and the level and every
    exponent divided by their gcd, so the lift sits at its smallest level."""
    level, *parts = value
    parts = [p + [{}] * (z_degree(value) + 1 - len(p)) for p in parts]
    entries = [x for p in parts for x in p if x]
    k = min(map(min, entries))
    g = gcd(*[c for x in entries for c in x.values()])
    h = gcd(level, *[e - k for x in entries for e in x])
    terms = [[tuple(sorted([((e - k) // h, c // g) for e, c in x.items()])) for x in p] for p in parts]
    return Lift(level // h, *(tuple(map(QPoly._of_terms, p)) for p in terms))


def frozen(value: tuple) -> tuple[tuple[QPoly, ...], tuple[QPoly, ...]]:
    """num and den as coefficient vectors in z over Z[u], of equal length."""
    size = z_degree(value) + 1
    return tuple(tuple(QPoly._build(x) for x in p + [{}] * (size - len(p))) for p in value[1:])
