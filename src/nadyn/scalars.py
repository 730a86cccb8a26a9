"""Exact arithmetic in K = Q(t^(1/N)) with the t-adic valuation.

A scalar is a reduced fraction num/den of polynomials in the uniformizer u,
together with its smallest level N, t = u^N.  All valuations (``ord``) are
reported in t-units, so they are rationals with denominator dividing N.
The absolute value |x| = r^ord(x) is never materialised; everything is kept
in ord units.
"""

from __future__ import annotations

import os
from fractions import Fraction
from math import gcd as _int_gcd
from math import ceil, inf

from .errors import LevelCapExceeded, SeriesCapExceeded
from .polys import QPoly, num_str, power_str, qdiv, sum_str

DEFAULT_LEVEL_CAP = 64

# Absolute guard for internally generated levels (path probes, bisection);
# the user-facing cap only applies to parsed input.
HARD_LEVEL_CAP = 10**8

# Series coefficients KScalar.truncated_below computes for a centre that is
# not a Laurent polynomial, such as 1/(1+t); each one costs a pass over the
# denominator, on coefficients that grow with the index
MAX_SERIES_TERMS = 256


def level_cap() -> int:
    """User-facing level cap; NADYN_LEVEL_CAP overrides the default."""
    raw = os.environ.get("NADYN_LEVEL_CAP")
    if raw is None:
        return DEFAULT_LEVEL_CAP
    try:
        cap = int(raw)
    except ValueError as exc:
        raise LevelCapExceeded(f"invalid NADYN_LEVEL_CAP value {raw!r}") from exc
    return cap


class ResidueInfinity:
    """The point at infinity of the residue projective line."""

    def __repr__(self):
        return "inf"


RES_INF = ResidueInfinity()


class KScalar:
    """Element of Q(t^(1/N)), reduced, with monic denominator, stored at its
    smallest level N (zero at level 1), so equal scalars have equal fields."""

    __slots__ = ("num", "den", "level")

    def __init__(self, num: QPoly, den: QPoly = QPoly.one(), level: int = 1):
        if den.is_zero:
            raise ZeroDivisionError("scalar with zero denominator")
        if level < 1:
            raise ValueError("level must be a positive integer")
        if not num.is_zero:
            if len(den.terms) == 1 or len(num.terms) == 1:
                # the gcd is a monomial: shift out the common power of u
                k = min(num.val, den.val)
                if k:
                    num = num.shifted(-k)
                    den = den.shifted(-k)
            else:
                g = num.gcd(den)
                if g.degree > 0:
                    num = num.exact_div(g)
                    den = den.exact_div(g)
            lead = den.leading
            if lead != 1:
                inv = qdiv(1, lead)
                num = num.scale(inv)
                den = den.scale(inv)
            if level > 1:
                # the smallest level: divide the level and every exponent by their gcd
                g = _int_gcd(level, *(e for e, _ in num.terms), *(e for e, _ in den.terms))
                if g > 1:
                    num = QPoly._of_terms(tuple((e // g, c) for e, c in num.terms))
                    den = QPoly._of_terms(tuple((e // g, c) for e, c in den.terms))
                    level //= g
        else:
            den = QPoly.one()
            level = 1
        self.num = num
        self.den = den
        self.level = level

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "KScalar":
        return cls(QPoly.zero())

    @classmethod
    def one(cls) -> "KScalar":
        return cls(QPoly.one())

    @classmethod
    def from_rational(cls, value) -> "KScalar":
        return cls(QPoly([(0, Fraction(value))]))

    @classmethod
    def t_power(cls, exponent) -> "KScalar":
        """The monomial t^exponent; fractional exponents raise the level."""
        q = Fraction(exponent)
        n = q.denominator
        e = q.numerator
        if e >= 0:
            return cls(QPoly.monomial(e), QPoly.one(), n)
        return cls(QPoly.one(), QPoly.monomial(-e), n)

    # -- representation ----------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return self.num.is_zero

    def at_level(self, target: int) -> tuple[QPoly, QPoly]:
        """num and den read at a level that the stored one divides."""
        if target == self.level:
            return self.num, self.den
        if target % self.level:
            raise ValueError(f"level {target} is not a multiple of {self.level}")
        if target > HARD_LEVEL_CAP:
            raise LevelCapExceeded(f"internal level {target} exceeds hard cap")
        m = target // self.level
        return self.num.stretched(m), self.den.stretched(m)

    def _unify(self, other: "KScalar"):
        """(num, den) of both scalars at their least common level, and that level."""
        if self.level == other.level:
            return self.num, self.den, other.num, other.den, self.level
        level = self.level * other.level // _int_gcd(self.level, other.level)
        return (*self.at_level(level), *other.at_level(level), level)

    def __eq__(self, other):
        if not isinstance(other, KScalar):
            return NotImplemented
        return self.num == other.num and self.den == other.den and self.level == other.level

    def __hash__(self):
        return hash((self.num, self.den, self.level))

    def __repr__(self):
        return f"KScalar({self.to_str()})"

    # -- field operations ----------------------------------------------------

    def __add__(self, other: "KScalar") -> "KScalar":
        an, ad, bn, bd, n = self._unify(other)
        return KScalar(an * bd + bn * ad, ad * bd, n)

    def __sub__(self, other: "KScalar") -> "KScalar":
        an, ad, bn, bd, n = self._unify(other)
        return KScalar(an * bd - bn * ad, ad * bd, n)

    def __neg__(self) -> "KScalar":
        # negation keeps the exponents, so the stored level stays minimal
        out = object.__new__(KScalar)
        out.num, out.den, out.level = -self.num, self.den, self.level
        return out

    def __mul__(self, other: "KScalar") -> "KScalar":
        an, ad, bn, bd, n = self._unify(other)
        return KScalar(an * bn, ad * bd, n)

    def __truediv__(self, other: "KScalar") -> "KScalar":
        if other.is_zero:
            raise ZeroDivisionError("scalar division by zero")
        an, ad, bn, bd, n = self._unify(other)
        return KScalar(an * bd, ad * bn, n)

    # -- valuation and residue ---------------------------------------------

    def ord(self):
        """t-adic valuation in t-units; +inf for zero."""
        if self.num.is_zero:
            return inf
        return Fraction(self.num.val - self.den.val, self.level)

    def residue(self):
        """Image in the residue field k = Q, extended by inf off K°."""
        o = self.ord()
        if o is inf or o > 0:
            return Fraction(0)
        if o < 0:
            return RES_INF
        return qdiv(self.num.coeff(0), self.den.coeff(0))

    def truncated_below(self, bound: Fraction) -> "KScalar":
        """Laurent expansion truncated to t-exponents strictly below bound.

        The result is a Laurent polynomial in u; this is what makes type II
        centres canonical.  A Laurent polynomial keeps its own terms below
        the bound; any other scalar expands as a series, of at most
        MAX_SERIES_TERMS coefficients at its stored level, and the result is
        stored at its own smallest level.
        """
        if self.is_zero:
            return self
        bound = Fraction(bound)
        num, den, n = self.num, self.den, self.level
        a = den.val
        if len(den.terms) == 1:
            # the denominator is the monic monomial u^a
            terms = [(e - a, c) for e, c in num.terms if e - a < bound * n]
        else:
            shift = num.val - a
            # series coefficients c_j of (num/u^val) / (den/u^a), exponents shift+j
            count = max(0, ceil(bound * n - shift))
            if count > MAX_SERIES_TERMS:
                raise SeriesCapExceeded(f"centre {self.to_str()} needs over {MAX_SERIES_TERMS} series coefficients")
            numt = num.shifted(-num.val)
            dent = den.shifted(-a)
            d0 = dent.coeff(0)
            coeffs: list[Fraction] = []
            for j in range(count):
                s = numt.coeff(j)
                for e, c in dent.terms:
                    if e == 0:
                        continue
                    if e > j:
                        break
                    s -= c * coeffs[j - e]
                coeffs.append(qdiv(s, d0))
            terms = [(shift + j, c) for j, c in enumerate(coeffs) if c]
        if not terms:
            return KScalar.zero()
        low = min(0, min(e for e, _ in terms))
        poly = QPoly((e - low, c) for e, c in terms)
        return KScalar(poly, QPoly.monomial(-low), n)

    # -- numerics ------------------------------------------------------------

    def eval_parts(self, t0: complex) -> tuple[complex, complex]:
        """Numerator and denominator evaluated at u0 = t0^(1/level)
        (principal branch); the stored level is the smallest one."""
        u0 = complex(t0) if self.level == 1 else complex(t0) ** (1.0 / self.level)
        return self.num.eval_complex(u0), self.den.eval_complex(u0)

    # -- printing ------------------------------------------------------------

    def to_str(self) -> str:
        num_s = _laurent_str(self.num, self.level)
        if self.den.degree == 0 and self.den.coeff(0) == 1:
            return num_s
        den_s = _laurent_str(self.den, self.level)
        if " " in num_s:
            num_s = f"({num_s})"
        if " " in den_s or "*" in den_s:
            den_s = f"({den_s})"
        return f"{num_s}/{den_s}"


def _laurent_str(p: QPoly, level: int) -> str:
    return sum_str((num_str(c), power_str("t", Fraction(e, level)) if e else "") for e, c in reversed(p.terms))


T = KScalar.t_power(1)
K_ZERO = KScalar.zero()
K_ONE = KScalar.one()
