"""Expression grammar for maps, points and directions, plus printers.

Scalars are rational expressions in t (integer powers, or rational powers of
the bare t for fractional radii); maps are rational expressions in z with
scalar coefficients.  Printing and parsing round-trip: parse(print(x)) == x.
"""

from __future__ import annotations

import re
from fractions import Fraction
from itertools import zip_longest
from math import gcd

from .berkspace import GAUSS, TowardClass, TypeIIPoint
from .errors import DegenerateMap, LevelCapExceeded, ParseError
from .polys import QPoly
from .respoly import FactorClass, FiniteClass, InfinityClass, INFINITY
from .redux import RationalMapK, make_map
from .scalars import KScalar, K_ONE, K_ZERO, level_cap

_TOKEN_RE = re.compile(r"\s*(?:(\d+)|([A-Za-z_]+)|(\^|\+|\-|\*|/|\(|\)))")


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if not m or m.end() == pos:
            if text[pos:].strip():
                raise ParseError(f"unexpected character {text[pos]!r}", pos)
            break
        if m.group(1):
            tokens.append(("int", int(m.group(1)), pos))
        elif m.group(2):
            tokens.append(("name", m.group(2), pos))
        else:
            tokens.append(("op", m.group(3), pos))
        pos = m.end()
    tokens.append(("end", None, len(text)))
    return tokens


class _RatZ:
    """Rational function in z over K, as numerator/denominator lists."""

    __slots__ = ("num", "den")

    def __init__(self, num, den):
        self.num = _trim(num)
        self.den = _trim(den)
        if len(self.den) == 1 and self.den[0].is_zero:
            raise ZeroDivisionError("division by zero in a map expression")

    @classmethod
    def scalar(cls, value: KScalar):
        return cls([value], [K_ONE])

    @property
    def is_scalar(self) -> bool:
        return len(self.num) == 1 and len(self.den) == 1

    def scalar_value(self) -> KScalar:
        return self.num[0] / self.den[0]

    def __add__(self, other):
        return _RatZ(
            _padd(_pmul(self.num, other.den), _pmul(other.num, self.den)),
            _pmul(self.den, other.den),
        )

    def __sub__(self, other):
        return self + (-other)

    def __neg__(self):
        return _RatZ([-c for c in self.num], self.den)

    def __mul__(self, other):
        return _RatZ(_pmul(self.num, other.num), _pmul(self.den, other.den))

    def __truediv__(self, other):
        return _RatZ(_pmul(self.num, other.den), _pmul(self.den, other.num))


def _trim(coeffs):
    coeffs = list(coeffs)
    while len(coeffs) > 1 and coeffs[-1].is_zero:
        coeffs.pop()
    return coeffs


def _padd(p, q):
    return [a + b for a, b in zip_longest(p, q, fillvalue=K_ZERO)]


def _pmul(p, q):
    out = [K_ZERO] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if a.is_zero:
            continue
        for j, b in enumerate(q):
            if b.is_zero:
                continue
            out[i + j] = out[i + j] + a * b
    return out


class _Parser:
    def __init__(self, text: str, allow_z: bool):
        self.text = text
        self.tokens = _tokenize(text)
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

    def parse(self) -> _RatZ:
        value = self.expr()
        kind, _, pos = self.peek()
        if kind != "end":
            raise ParseError("trailing input", pos)
        return value

    def expr(self) -> _RatZ:
        value = self.term()
        while True:
            kind, op, _ = self.peek()
            if kind == "op" and op in "+-":
                self.advance()
                rhs = self.term()
                value = value + rhs if op == "+" else value - rhs
            else:
                return value

    def term(self) -> _RatZ:
        value = self.factor()
        while True:
            kind, op, pos = self.peek()
            if kind == "op" and op in "*/":
                self.advance()
                rhs = self.factor()
                try:
                    value = value * rhs if op == "*" else value / rhs
                except ZeroDivisionError:
                    raise ParseError("division by zero", pos) from None
            else:
                return value

    def factor(self) -> _RatZ:
        kind, op, _ = self.peek()
        if kind == "op" and op in "+-":
            self.advance()
            value = self.factor()
            return -value if op == "-" else value
        return self.power()

    def power(self) -> _RatZ:
        base = self.atom()
        kind, op, pos = self.peek()
        if kind != "op" or op != "^":
            return base
        self.advance()
        exponent = self._exponent()
        if exponent.denominator == 1:
            n = exponent.numerator
            if n >= 0:
                result = _RatZ.scalar(K_ONE)
                for _ in range(n):
                    result = result * base
                return result
            inv = _RatZ(base.den, base.num)
            result = _RatZ.scalar(K_ONE)
            for _ in range(-n):
                result = result * inv
            return result
        # fractional exponents only on exact powers of t
        if not base.is_scalar:
            raise ParseError("fractional exponent on a non-scalar base", pos)
        value = base.scalar_value()
        o = value.ord()
        if value.is_zero or value != KScalar.t_power(o):
            raise ParseError("fractional exponent needs a bare power of t", pos)
        return _RatZ.scalar(KScalar.t_power(o * exponent))

    def _exponent(self) -> Fraction:
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
            kind, value, pos = self.peek()
        if kind == "int":
            self.advance()
            return Fraction(sign * value)
        if kind == "op" and value == "(":
            self.advance()
            inner = self._signed_rational()
            self.expect_op(")")
            return sign * inner
        raise ParseError("expected an integer or parenthesised exponent", pos)

    def _signed_rational(self) -> Fraction:
        sign = 1
        kind, value, pos = self.peek()
        if kind == "op" and value in "+-":
            self.advance()
            sign = -1 if value == "-" else 1
            kind, value, pos = self.peek()
        if kind != "int":
            raise ParseError("expected a rational exponent", pos)
        self.advance()
        numerator = value
        kind, value, _ = self.peek()
        if kind == "op" and value == "/":
            self.advance()
            kind, value, pos = self.peek()
            if kind != "int":
                raise ParseError("expected a denominator", pos)
            self.advance()
            return Fraction(sign * numerator, value)
        return Fraction(sign * numerator)

    def atom(self) -> _RatZ:
        kind, value, pos = self.advance()
        if kind == "int":
            return _RatZ.scalar(KScalar.from_rational(value))
        if kind == "name":
            if value == "t":
                return _RatZ.scalar(KScalar.t_power(1))
            if value == "z":
                if not self.allow_z:
                    raise ParseError("the variable z is not allowed here", pos)
                return _RatZ([K_ZERO, K_ONE], [K_ONE])
            raise ParseError(f"unknown name {value!r}", pos)
        if kind == "op" and value == "(":
            inner = self.expr()
            self.expect_op(")")
            return inner
        raise ParseError("expected a value", pos)


def parse_scalar(text: str) -> KScalar:
    value = _Parser(text, allow_z=False).parse()
    return value.scalar_value()


def parse_map(text: str) -> RationalMapK:
    """Parse a rational expression in z into a validated map."""
    value = _Parser(text, allow_z=True).parse()
    num, den = value.num, value.den
    size = max(len(num), len(den))
    if size < 2:
        raise DegenerateMap("expression does not depend on z")
    num = num + [K_ZERO] * (size - len(num))
    den = den + [K_ZERO] * (size - len(den))
    return make_map(num, den)


def parse_rational(text: str) -> Fraction:
    try:
        return Fraction(text.strip().replace(" ", ""))
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"invalid rational {text!r}") from exc


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
    needed = exponent.denominator * center.level // gcd(exponent.denominator, center.level)
    if needed > cap:
        raise LevelCapExceeded(f"point needs level {needed}, cap is {cap}")
    return TypeIIPoint(center, exponent)


def parse_direction_class(text: str):
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
        return TowardClass(parse_point(text[7:]))
    raise ParseError(f"unknown direction literal {text!r}")


def _parse_residue_poly(text: str) -> QPoly:
    value = _Parser(text, allow_z=True).parse()
    if len(value.den) != 1:
        raise ParseError("factor polynomials cannot have z in a denominator")
    den = value.den[0]
    coeffs = []
    for c in value.num:
        scalar = c / den
        if scalar.level != 1 or scalar.den.degree > 0 or scalar.num.degree > 0:
            raise ParseError("factor polynomials need rational coefficients")
        coeffs.append(scalar.num.coeff(0))
    return QPoly.from_coeffs(coeffs)


# -- printers -----------------------------------------------------------------


def frac_str(q: Fraction) -> str:
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"


def _coeff_wrap(s: str) -> str:
    return f"({s})" if (" " in s or "/" in s) else s


def _zpoly_str(coeffs) -> str:
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c.is_zero:
            continue
        if i == 0:
            body = _coeff_wrap(c.to_str())
        else:
            pw = "z" if i == 1 else f"z^{i}"
            if c == K_ONE:
                body = pw
            elif c == -K_ONE:
                body = f"-{pw}"
            else:
                body = f"{_coeff_wrap(c.to_str())}*{pw}"
        parts.append(body)
    if not parts:
        return "0"
    out = parts[0]
    for body in parts[1:]:
        out += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
    return out


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
    return f"a={point.center.to_str()};s={point.exponent}"


def class_str(cls) -> str:
    if isinstance(cls, InfinityClass):
        return "inf"
    if isinstance(cls, FiniteClass):
        return f"res={cls.value}"
    if isinstance(cls, FactorClass):
        return f"factor={cls.poly.to_str('z')}"
    if isinstance(cls, TowardClass):
        return f"toward:{point_str(cls.target)}"
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
    if kind == "finite":
        return FiniteClass(parse_rational(obj["value"]))
    if kind == "factor":
        return parse_direction_class(f"factor={obj['poly']}")
    raise ParseError(f"unknown class kind {kind!r}")
