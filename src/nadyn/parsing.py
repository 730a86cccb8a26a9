"""Expression grammar for maps, points and directions, plus printers.

Scalars are rational expressions in t (integer powers, or rational powers of
the bare t for fractional radii); maps are rational expressions in z with
scalar coefficients.  Printing and parsing round-trip: parse(print(x)) == x.

A flat evaluator, one frame per precedence level (expr, term, and a factor
that reads signs, an atom and its exponent), parses an expression straight
into a lift over Z[u], t = u^N: monomials as integer tuples, anything a sum
meets in the int form of nadyn.lifts.  parse_map builds the stored lift in
one pass at its smallest level, checks that level against NADYN_LEVEL_CAP
and leaves validation to redux.map_from_lift.  Division by zero, including
a negative power of zero, and a zero denominator in an exponent are
ParseErrors with a position.  A degree in z above
MAX_MAP_DEGREE is a DegreeTooHigh as soon as a product or sum reaches it,
before the Sylvester check, whose cost grows as the cube of the degree; an
integer power is computed once it is known to stay under the size caps.
"""

from __future__ import annotations

import re
from fractions import Fraction
from math import lcm

from .berkspace import GAUSS, TypeIIPoint, direction_toward
from .errors import DegenerateMap, DegreeTooHigh, LevelCapExceeded, OutputTooLarge, ParseError, PowerTooLarge
from .polys import QPoly, num_str, power_str, qdiv, sum_str
from .respoly import FactorClass, FiniteClass, InfinityClass, INFINITY
from . import lifts
from .lifts import frozen, neg as _neg, parsed_lift, z_degree
from .redux import RationalMapK, map_from_lift
from .scalars import KScalar, K_ONE, level_cap

# The Sylvester determinant of a degree-d map is a 2d x 2d Bareiss
# determinant over Z[u], taken once per map for ordRes at the Gauss point:
# degree 32 takes about 0.3 s (2-core VM, Python 3.11.7)
MAX_MAP_DEGREE = 32

# Caps on an integer power ^n of a base of degree D in z, checked before any
# product.  MAX_POWER_TERMS bounds n times the span of the exponents in u of
# the base's numerator or denominator (zero for a monomial), times the n*D + 1
# coefficients in z of the result; MAX_POWER_BITS bounds n times the base's
# largest coefficient bit length.  Validating the map costs more than the
# power: z^2 + (1/(15+15*t))^80 parses in 0.45 s, and z^2 + (1+t)^80,
# z^2 + t^400 and z^2 + 2^200 in under 0.1 s (2-core VM, Python 3.11.7).
MAX_POWER_TERMS = 80
MAX_POWER_BITS = 400

# CPython converts at most 4300 decimal digits with int() by default; a
# rational literal's numerator and denominator are held to the same cap
MAX_LITERAL_DIGITS = 4300
_LITERAL_BOUND = 10**MAX_LITERAL_DIGITS

# the exponent of a decimal rational literal, after its E
_EXPONENT_RE = re.compile(r"[-+]?(\d+(?:_\d+)*)")

_TOKEN_RE = re.compile(r"(\s*)(?:(\d+)|([A-Za-z_]+)|([-+*/^()])|(\S))")


def _tokenize(text: str):
    tokens, pos = [], 0
    for space, digits, name, op, other in _TOKEN_RE.findall(text):
        pos += len(space)  # a token's position skips the whitespace before it
        if op:
            tokens.append(("op", op, pos))
        elif digits:
            if len(digits) > MAX_LITERAL_DIGITS:
                raise ParseError(f"integer literal of {len(digits)} digits exceeds {MAX_LITERAL_DIGITS} digits", pos)
            tokens.append(("int", int(digits), pos))
        elif name:
            tokens.append(("name", name, pos))
        else:
            raise ParseError(f"unexpected character {other!r}", pos)
        pos += len(op or digits or name)
    tokens.append(("end", None, len(text)))
    return tokens


# A parsed value is (level, num, den) in the int form and arithmetic of
# nadyn.lifts, or a monomial c*u^e*z^i / (g*u^f), t = u^level, carried as the
# int tuple (level, c, e, i, g, f); c = 0 is zero over g*u^f, with e = i = 0.


def _value(x: tuple) -> tuple:
    """The (level, num, den) form of a parsed value."""
    return x if len(x) == 3 else (x[0], [{}] * x[3] + [{x[2]: x[1]} if x[1] else {}], [{x[5]: x[4]}])


def _monomial(value: tuple) -> tuple | None:
    """The tuple (level, c, e, i, g, f) of a value c*u^e*z^i / (g*u^f), else None."""
    level, num, den = value
    if len(den) == 1 == len(den[0]) == len(num[-1]) and not any(num[:-1]):
        ((e, c),), ((f, g),) = num[-1].items(), den[0].items()
        return level, c, e, len(num) - 1, g, f


def _capped(value: tuple) -> tuple:
    degree = value[3] if len(value) == 6 else z_degree(value)
    if degree > MAX_MAP_DEGREE:
        raise DegreeTooHigh(f"expression reaches degree {degree} in z, cap is {MAX_MAP_DEGREE}")
    return value


def _mul(a: tuple, b: tuple) -> tuple:
    if len(a) == 6 == len(b):  # two monomials: the product term by term
        level = lcm(a[0], b[0])
        ma, mb = level // a[0], level // b[0]
        c, den = a[1] * b[1], (a[4] * b[4], a[5] * ma + b[5] * mb)
        return _capped((level, c, a[2] * ma + b[2] * mb, a[3] + b[3], *den) if c else (level, 0, 0, 0, *den))
    return _capped(lifts.mul(_value(a), _value(b)))


def _inverse(value: tuple, pos: int) -> tuple:
    if not value[1] if len(value) == 6 else not value[1][0] and len(value[1]) == 1:  # c = 0, or num = [{}]
        raise ParseError("division by zero", pos)
    if len(value) == 6 and not value[3]:  # a monomial in t alone: (level, g, f, 0, c, e)
        return value[0], *value[4:], 0, *value[1:3]
    level, num, den = _value(value)
    return level, den, num


def _power(base: tuple, n: int) -> tuple:
    """base^n, once the caps are checked before any product."""
    mono = len(base) == 6
    degree = base[3] if mono else z_degree(base)
    if degree and n * degree > MAX_MAP_DEGREE:
        # the degree that n successive products would reach first
        first = (MAX_MAP_DEGREE // degree + 1) * degree
        raise DegreeTooHigh(f"expression reaches degree {first} in z, cap is {MAX_MAP_DEGREE}")
    if mono:  # c*u^e*z^i / (g*u^f) spans one power of u
        span, bits = 0, max(base[1].bit_length(), base[4].bit_length())
    else:  # num and den are raised separately: each one's span in u counts
        span = max(max(es) - min(es) if es else 0 for es in ([e for x in p for e in x] for p in base[1:]))
        bits = max(abs(c).bit_length() for part in base[1:] for x in part for c in x.values())
    if n * span * (n * degree + 1) > MAX_POWER_TERMS or n * bits > MAX_POWER_BITS:
        raise PowerTooLarge(f"power ^{n} exceeds the caps of {MAX_POWER_TERMS} terms and {MAX_POWER_BITS} coefficient bits")
    if mono:
        level, c, e, i, g, f = base
        return (level, c**n, e * n, i * n, g**n, f * n) if n else (1, 1, 0, 0, 1, 0)
    return lifts.power(base, n)


class _Parser:
    def __init__(self, text: str, allow_z: bool):
        self.tokens = _tokenize(text)
        self.i = 0
        self.allow_z = allow_z

    def advance(self):
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect_op(self, symbol):
        kind, value, pos = self.advance()
        if kind != "op" or value != symbol:
            raise ParseError(f"expected {symbol!r}", pos)

    def parse(self) -> tuple:
        value = self.expr()
        kind, _, pos = self.tokens[self.i]
        if kind != "end":
            raise ParseError("trailing input", pos)
        return _value(value)

    def expr(self) -> tuple:
        tokens = self.tokens
        value = self.term()
        while True:
            kind, op, _ = tokens[self.i]
            if kind != "op" or op not in "+-":
                return value
            self.i += 1
            rhs = self.term()
            value = _capped(lifts.add(_value(value), _value(rhs) if op == "+" else _neg(_value(rhs))))

    def term(self) -> tuple:
        tokens = self.tokens
        value = self.factor()
        while True:
            kind, op, pos = tokens[self.i]
            if kind != "op" or op not in "*/":
                return value
            self.i += 1
            rhs = self.factor()
            value = _mul(value, rhs if op == "*" else _inverse(rhs, pos))

    def factor(self) -> tuple:
        """Signs, an atom and an optional ^exponent; a sign applies after
        the power, so -z^2 is -(z^2)."""
        tokens = self.tokens
        negate = False
        kind, value, pos = tokens[self.i]
        while kind == "op" and value in "+-":
            negate ^= value == "-"
            self.i += 1
            kind, value, pos = tokens[self.i]
        self.i += 1
        if kind == "int":
            base = 1, value, 0, 0, 1, 0
        elif kind == "name" and value == "t":
            base = 1, 1, 1, 0, 1, 0
        elif kind == "name" and value == "z":
            if not self.allow_z:
                raise ParseError("the variable z is not allowed here", pos)
            base = 1, 1, 0, 1, 1, 0
        elif kind == "name":
            raise ParseError(f"unknown name {value!r}", pos)
        elif kind == "op" and value == "(":
            base = self.expr()
            self.expect_op(")")
        else:
            raise ParseError("expected a value", pos)
        kind, op, pos = tokens[self.i]
        if kind == "op" and op == "^":
            self.i += 1
            exponent = self._exponent()
            if exponent.denominator == 1:
                n = exponent.numerator
                if n < 0:
                    base, n = _inverse(base, pos), -n
                base = _power(base, n)
            else:
                # fractional exponents only on exact powers of t: c*u^a / (c*u^b)
                m = base if len(base) == 6 else _monomial(base)
                if m[3] if m else z_degree(base):
                    raise ParseError("fractional exponent on a non-scalar base", pos)
                if not m or m[1] != m[4]:
                    raise ParseError("fractional exponent needs a bare power of t", pos)
                q = Fraction(m[2] - m[5], m[0]) * exponent
                base = q.denominator, 1, max(q.numerator, 0), 0, 1, max(-q.numerator, 0)
        return base if not negate else (base[0], -base[1], *base[2:]) if len(base) == 6 else _neg(base)

    def _sign(self) -> int:
        kind, value, _ = self.tokens[self.i]
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
        kind, value, _ = self.tokens[self.i]
        if kind != "op" or value != "/":
            return Fraction(sign * numerator)
        self.advance()
        kind, value, pos = self.advance()
        if kind != "int":
            raise ParseError("expected a denominator", pos)
        if value == 0:
            raise ParseError("zero denominator in an exponent", pos)
        return Fraction(sign * numerator, value)


def _level_str(level: int) -> str:
    # a level past the digits the interpreter prints is named by its size
    try:
        return num_str(level)
    except OutputTooLarge:
        return f"of {level.bit_length()} bits"


def parse_scalar(text: str) -> KScalar:
    value = _Parser(text, allow_z=False).parse()
    (num,), (den,) = frozen(value)
    return KScalar(num, den, value[0])


def parse_map(text: str) -> RationalMapK:
    """Parse a rational expression in z into a validated map."""
    value = _Parser(text, allow_z=True).parse()
    if not z_degree(value):
        raise DegenerateMap("expression does not depend on z")
    lift = parsed_lift(value)
    cap = level_cap()
    if lift.level > cap:
        raise LevelCapExceeded(f"map needs level {_level_str(lift.level)}, cap is {cap}")
    return map_from_lift(lift)


def parse_rational(text: str) -> Fraction:
    """A rational as Fraction reads it ("-3/4", "0.5", "1e2"), with numerator
    and denominator of at most MAX_LITERAL_DIGITS digits.

    Fraction builds 10^|exponent| before it reduces, so an exponent past
    MAX_LITERAL_DIGITS plus the length of the rest of the text, which puts a
    nonzero value over the cap, is refused before that power is built.
    """
    literal = text.strip().replace(" ", "").upper()
    mantissa, marker, exponent = literal.partition("E")
    match = _EXPONENT_RE.fullmatch(exponent)
    huge = False
    if marker and match:
        digits = match.group(1).replace("_", "").lstrip("0")
        # ten digits or more exceed the bound for any mantissa int() reads
        huge = len(digits) > 9 or int(digits or 0) > MAX_LITERAL_DIGITS + len(mantissa)
    try:
        value = Fraction(mantissa + "E0" if huge else literal)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {text!r}") from exc
    if huge and value or max(abs(value.numerator), value.denominator) >= _LITERAL_BOUND:
        raise ParseError(f"rational {text!r} exceeds {MAX_LITERAL_DIGITS} digits")
    return value


def parse_point(text: str) -> TypeIIPoint:
    text = text.strip()
    if text == "gauss":
        return GAUSS
    center = None
    exponent = None
    for piece in text.split(";"):
        piece = piece.strip()
        if piece.startswith("a="):
            center = parse_scalar(piece[2:])
        elif piece.startswith("s="):
            exponent = parse_rational(piece[2:])
        elif piece:
            raise ParseError(f"unknown point component {piece!r}")
    if center is None or exponent is None:
        raise ParseError("point literal needs a=<scalar>;s=<rational>")
    cap = level_cap()
    needed = lcm(exponent.denominator, center.level)  # the centre's smallest level, before truncation
    if needed > cap:
        raise LevelCapExceeded(f"point needs level {_level_str(needed)}, cap is {cap}")
    return TypeIIPoint(center, exponent)


def parse_direction_class(text: str, at: TypeIIPoint):
    """The class that a direction literal names at the base point at; a
    toward:<point> literal is resolved there."""
    text = text.strip()
    if text == "inf":
        return INFINITY
    if text.startswith("res="):
        return FiniteClass(parse_rational(text[4:]))
    if text.startswith("factor="):
        poly = _parse_residue_poly(text[7:])
        if poly.degree < 1:
            raise ParseError("factor class needs positive degree")
        if poly.gcd(poly.derivative()).degree > 0:
            raise ParseError("factor class must be squarefree")
        poly = poly.monic()
        if poly.degree == 1:
            return FiniteClass(-poly.coeff(0))
        return FactorClass(poly)
    if text.startswith("toward:"):
        return direction_toward(at, parse_point(text[7:]))
    raise ParseError(f"unknown direction literal {text!r}")


def _parse_residue_poly(text: str) -> QPoly:
    value = _Parser(text, allow_z=True).parse()
    if len(value[2]) > 1:
        raise ParseError("factor polynomials cannot have z in a denominator")
    num, (den, *_) = frozen(value)
    coeffs = []
    for c in num:
        # c/den is rational exactly when c is a rational multiple of den
        q = qdiv(c.leading, den.leading) if c else 0
        if c != den.scale(q):
            raise ParseError("factor polynomials need rational coefficients")
        coeffs.append(q)
    return QPoly.from_coeffs(coeffs)


# -- printers -----------------------------------------------------------------


def frac_str(q: Fraction) -> str:
    q = Fraction(q)
    return f"{num_str(q.numerator)}/{num_str(q.denominator)}"


def _coeff_wrap(s: str) -> str:
    return f"({s})" if (" " in s or "/" in s) else s


def _zpoly_str(coeffs) -> str:
    return sum_str(
        (_coeff_wrap(c.to_str()), power_str("z", i) if i else "")
        for i, c in reversed(list(enumerate(coeffs)))
        if not c.is_zero
    )


def map_str(phi: RationalMapK) -> str:
    num_s = _zpoly_str(phi.num)
    den = list(phi.den)
    if all(c.is_zero for c in den[1:]) and den[0] == K_ONE:
        return num_s
    den_s = _zpoly_str(phi.den)
    return f"({num_s})/({den_s})"


def point_str(point: TypeIIPoint) -> str:
    if point == GAUSS:
        return "gauss"
    return f"a={point.center.to_str()};s={num_str(point.exponent)}"


def class_str(cls) -> str:
    if isinstance(cls, InfinityClass):
        return "inf"
    if isinstance(cls, FiniteClass):
        return f"res={num_str(cls.value)}"
    if isinstance(cls, FactorClass):
        return f"factor={cls.poly.to_str('z')}"
    raise TypeError(f"cannot print class {cls!r}")


def class_json(cls) -> dict:
    if isinstance(cls, InfinityClass):
        return {"class": "inf"}
    if isinstance(cls, FiniteClass):
        return {"class": "finite", "value": frac_str(cls.value)}
    if isinstance(cls, FactorClass):
        return {"class": "factor", "poly": cls.poly.to_str("z")}
    raise TypeError(f"cannot serialise class {cls!r}")


def class_from_json(obj: dict):
    kind = obj.get("class")
    if kind == "inf":
        return INFINITY
    if kind == "finite" and isinstance(obj["value"], str):
        return FiniteClass(parse_rational(obj["value"]))
    if kind == "factor" and isinstance(obj["poly"], str):
        return parse_direction_class(f"factor={obj['poly']}", GAUSS)
    if kind in ("finite", "factor"):
        raise TypeError(f"a {kind} class needs its field as a string")
    raise ParseError(f"unknown class kind {kind!r}")
