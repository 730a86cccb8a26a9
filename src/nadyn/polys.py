"""Sparse exact univariate polynomials over Q.

This is the shared low-level layer: numerators and denominators of scalars
(polynomials in the uniformizer u) live here, and so do the residue-side
polynomials in the tangent variable.  The entries of a lift are QPolys too,
but their products run in nadyn.lifts, on ints, and the result entries
become QPolys.  Exponents can get large when probing points with
fine radii, hence the sparse representation.

Coefficients have one normal form: an integral coefficient is a plain int,
any other is a Fraction with denominator greater than 1, and none is ever a
float.  Fraction(3) == 3 with equal hashes and str, so the normal form
changes no comparison and no printed output; it lets integer polynomials
(the lifts of redux, which are primitive over Z[u]) multiply, divide and
take Bareiss determinants on ints alone.  Every division of coefficients
gives int // int when the division is exact, else a Fraction (qdiv).

gcd, exact_div and squarefree_parts work on primitive integer polynomials:
Fraction coefficients are cleared first, and a quotient or a monic gcd
takes its Fractions back only at the end.  A monic integer divisor needs no
clearing, and Yun's operands stay primitive term tuples from start to end.
Their results are those of Euclid over Q, term for term.  One long division
serves divmod and exact_div.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as _int_gcd
from math import lcm as _int_lcm

from .errors import OutputTooLarge


def _as_coeff(c):
    """A rational coefficient in normal form: int if integral, else Fraction."""
    if c.__class__ is int:
        return c
    if isinstance(c, Fraction):
        return c.numerator if c.denominator == 1 else c
    if isinstance(c, int):
        return int(c)
    raise TypeError(f"rational coefficient expected, got {type(c).__name__}")


def qdiv(a, b):
    """Exact quotient a/b of two coefficients, in normal form."""
    if a.__class__ is int and b.__class__ is int:
        q, r = divmod(a, b)
        return Fraction(a, b) if r else q
    q = a / b
    return q.numerator if q.denominator == 1 else q


def _terms(acc: dict) -> tuple:
    """Sorted nonzero terms of an exponent -> coefficient dict, in normal form."""
    return tuple(
        sorted(
            (e, c.numerator if c.__class__ is Fraction and c.denominator == 1 else c)
            for e, c in acc.items()
            if c
        )
    )


def num_str(c) -> str:
    """str(c) for an int or a Fraction.  CPython converts at most
    sys.get_int_max_str_digits() decimal digits; past that the value is an
    OutputTooLarge instead of a ValueError."""
    try:
        return str(c)
    except ValueError as exc:
        limit = sys.get_int_max_str_digits()
        raise OutputTooLarge(f"a value to print exceeds {limit} decimal digits") from exc


def power_str(var: str, e) -> str:
    """The power var^e for a rational e != 0; a fractional e is parenthesised."""
    if e == 1:
        return var
    return f"{var}^{num_str(e)}" if e.denominator == 1 else f"{var}^({num_str(e)})"


def sum_str(terms) -> str:
    """A sparse sum from (coefficient text, power text) pairs, leading term
    first.  An empty power text marks the constant term; a unit coefficient
    is dropped before a power, and negative terms join with " - "."""
    out = ""
    for c, pw in terms:
        if not pw:
            body = c
        elif c == "1":
            body = pw
        elif c == "-1":
            body = f"-{pw}"
        else:
            body = f"{c}*{pw}"
        if not out:
            out = body
        elif body.startswith("-"):
            out += f" - {body[1:]}"
        else:
            out += f" + {body}"
    return out or "0"


class QPoly:
    """Polynomial over Q stored as sorted (exponent, coefficient) pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc: dict = {}
        for e, c in terms:
            c = _as_coeff(c)
            if c:
                e = int(e)
                acc[e] = acc.get(e, 0) + c
        object.__setattr__(self, "terms", _terms(acc))

    # -- constructors ------------------------------------------------------

    @classmethod
    def zero(cls) -> "QPoly":
        return _QP_ZERO

    @classmethod
    def one(cls) -> "QPoly":
        return _QP_ONE

    @classmethod
    def x(cls) -> "QPoly":
        return _QP_X

    @classmethod
    def monomial(cls, exponent: int, coeff=1) -> "QPoly":
        return cls([(exponent, coeff)])

    @classmethod
    def from_coeffs(cls, coeffs) -> "QPoly":
        """Build from an ascending dense coefficient list."""
        return cls(enumerate(coeffs))

    # -- structure ---------------------------------------------------------

    @property
    def is_zero(self) -> bool:
        return not self.terms

    @property
    def degree(self) -> int:
        """Degree; -1 for the zero polynomial."""
        return self.terms[-1][0] if self.terms else -1

    @property
    def val(self) -> int:
        """Order of vanishing at 0 (minimum exponent); undefined for zero."""
        if not self.terms:
            raise ValueError("valuation of the zero polynomial")
        return self.terms[0][0]

    @property
    def leading(self):
        if not self.terms:
            raise ValueError("leading coefficient of the zero polynomial")
        return self.terms[-1][1]

    def coeff(self, exponent: int):
        for e, c in self.terms:
            if e == exponent:
                return c
            if e > exponent:
                break
        return 0

    def coeff_list(self) -> list:
        """Dense ascending coefficients, length degree+1 (empty for zero)."""
        out = [0] * (self.degree + 1)
        for e, c in self.terms:
            out[e] = c
        return out

    def __bool__(self):
        return bool(self.terms)

    def __eq__(self, other):
        return isinstance(other, QPoly) and self.terms == other.terms

    def __hash__(self):
        return hash(self.terms)

    def __repr__(self):
        return f"QPoly({self.to_str('x')})"

    # -- arithmetic ----------------------------------------------------------

    @staticmethod
    def _of_terms(terms: tuple) -> "QPoly":
        """Wrap terms that are already sorted, nonzero and in normal form."""
        p = object.__new__(QPoly)
        object.__setattr__(p, "terms", terms)
        return p

    @staticmethod
    def _build(acc: dict) -> "QPoly":
        return QPoly._of_terms(_terms(acc))

    def __add__(self, other: "QPoly") -> "QPoly":
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) + c
        return QPoly._build(acc)

    def __sub__(self, other: "QPoly") -> "QPoly":
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, 0) - c
        return QPoly._build(acc)

    def __neg__(self) -> "QPoly":
        return QPoly._of_terms(tuple((e, -c) for e, c in self.terms))

    def __mul__(self, other: "QPoly") -> "QPoly":
        if not self.terms or not other.terms:
            return _QP_ZERO
        acc: dict = {}
        get = acc.get
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                acc[e] = get(e, 0) + c1 * c2
        return QPoly._build(acc)

    def scale(self, c) -> "QPoly":
        c = _as_coeff(c)
        if not c:
            return _QP_ZERO
        return QPoly._build({e: c0 * c for e, c0 in self.terms})

    def shifted(self, k: int) -> "QPoly":
        """Multiply by x^k (k may be negative if the valuation allows)."""
        if not self.terms:
            return self
        if k < 0 and self.val < -k:
            raise ValueError("negative shift below valuation")
        return QPoly._of_terms(tuple((e + k, c) for e, c in self.terms))

    def stretched(self, m: int) -> "QPoly":
        """p(x^m) for a positive integer m."""
        return QPoly._of_terms(tuple((e * m, c) for e, c in self.terms))

    def __pow__(self, n: int) -> "QPoly":
        if n < 0:
            raise ValueError("negative power of a polynomial")
        result = _QP_ONE
        base = self
        while n:
            if n & 1:
                result = result * base
            base = base * base
            n >>= 1
        return result

    def __divmod__(self, other: "QPoly"):
        if other.is_zero:
            raise ZeroDivisionError("polynomial division by zero")
        q, r = _long_division(self.terms, other.terms)
        return QPoly._of_terms(q), QPoly._build(r)

    def __mod__(self, other: "QPoly") -> "QPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "QPoly") -> "QPoly":
        if len(other.terms) == 1:
            # a one-term divisor c*x^k divides term by term
            ((k, c),) = other.terms
            if self.terms and self.terms[0][0] < k:
                raise ValueError("division is not exact")
            return QPoly._of_terms(tuple((e - k, qdiv(a, c)) for e, a in self.terms))
        if not other.terms:
            raise ZeroDivisionError("polynomial division by zero")
        if not self.terms:
            return self
        # self = (ga/da) A and other = (gb/db) B with A, B primitive integer:
        # the quotient is A/B, integral by Gauss's lemma, times ga db/(da gb).
        # A monic integer divisor divides directly: its quotient is in normal form
        monic = other.terms[-1][1] == 1 and all(c.__class__ is int for _, c in other.terms)
        a, ga, da = (self.terms, 1, 1) if monic else _primitive(self.terms)
        b, gb, db = (other.terms, 1, 1) if monic else _primitive(other.terms)
        q, r = _long_division(a, b)
        if any(r.values()):
            raise ValueError("division is not exact")
        num, den = ga * db, da * gb
        k = _int_gcd(num, den)
        if k != num or k != den:
            num, den = num // k, den // k
            q = tuple((e, qdiv(c * num, den)) for e, c in q)
        return QPoly._of_terms(q)

    def monic(self) -> "QPoly":
        if self.is_zero:
            return self
        lead = self.leading
        if lead == 1:
            return self
        return QPoly._of_terms(tuple((e, qdiv(c, lead)) for e, c in self.terms))

    def gcd(self, other: "QPoly") -> "QPoly":
        """Monic greatest common divisor; gcd(0, q) = monic q.

        The work runs on primitive integer polynomials (_primitive_gcd) and
        one monic() ends it; the monic gcd is unique, so this is the same
        QPoly that Euclid over Q gives.
        """
        if not self.terms or not other.terms:
            return (other if not self.terms else self).monic()
        return QPoly._of_terms(_primitive_gcd(self.terms, other.terms)).monic()

    def derivative(self) -> "QPoly":
        return QPoly._build({e - 1: c * e for e, c in self.terms if e})

    def eval(self, x):
        """Exact value at a rational x, in normal form."""
        x = _as_coeff(x)
        return _as_coeff(sum(c * x**e for e, c in self.terms))

    def eval_complex(self, z: complex) -> complex:
        return sum(complex(c) * z**e for e, c in self.terms) if self.terms else 0j

    # -- printing ------------------------------------------------------------

    def to_str(self, var: str = "t") -> str:
        return sum_str((num_str(c), power_str(var, e) if e else "") for e, c in reversed(self.terms))


_QP_ZERO = QPoly()
_QP_ONE = QPoly([(0, 1)])
_QP_X = QPoly([(1, 1)])


# -- the integer route of gcd, exact_div and Yun ---------------------------------
#
# Collins's primitive PRS and Gauss's lemma, kept sparse: the operands are
# term tuples of integer polynomials, and no list of length degree + 1 is
# built, so polynomials in u with large exponents cost what their terms cost.


def _primitive(terms, shift: int = 0) -> tuple:
    """(P, g, den) for a nonzero p: p = (g/den) * x^shift * P, where P holds
    the integer terms of content 1."""
    den = 1
    for _, c in terms:
        if c.__class__ is Fraction:
            den = _int_lcm(den, c.denominator)
    if den != 1:
        terms = [(e, c.numerator * (den // c.denominator)) for e, c in terms]
    g = _int_gcd(*(c for _, c in terms))
    if g != 1 or shift:
        terms = [(e - shift, c // g) for e, c in terms]
    return tuple(terms), g, den


def _long_division(a: tuple, b: tuple) -> tuple:
    """Long division of the terms a by the nonzero terms b: the quotient's
    terms, ascending, and the remainder as an exponent -> coefficient dict.
    Leading exponents come from a max-heap; each is pushed and popped once.
    An exact coefficient quotient stays an int, so integer operands with an
    integral quotient (Gauss's lemma) build no Fraction."""
    if b == ((0, 1),):
        return a, {}
    *lower, (bdeg, blead) = b
    r = dict(a)
    heap = [-e for e in r]
    heapify(heap)
    q = []
    while heap and -heap[0] >= bdeg:
        e = -heappop(heap)
        c = r.pop(e)
        if not c:
            continue
        k = e - bdeg
        f = c // blead if not c % blead else qdiv(c, blead)
        q.append((k, f))
        for ej, cj in lower:
            if k + ej not in r:
                heappush(heap, -(k + ej))
            r[k + ej] = r.get(k + ej, 0) - f * cj
    return tuple(reversed(q)), r


def _pseudo_remainder(a: tuple, b: tuple) -> tuple:
    """Primitive part of a pseudo-remainder of a by b, both integer, divided
    by the power of x it carries (empty when b divides a).

    Each elimination step scales the remainder by lc(b)/gcd(c, lc(b)) for
    the leading coefficient c it cancels, not by lc(b) for every degree of
    the quotient.  Leading exponents come from a max-heap, as in divmod.
    """
    *lower, (bdeg, blead) = b
    r = dict(a)
    heap = [-e for e in r]
    heapify(heap)
    while heap and -heap[0] >= bdeg:
        e = -heappop(heap)
        c = r.pop(e)
        if not c:
            continue
        g = _int_gcd(c, blead)
        f, m = c // g, blead // g
        if m != 1:
            for k in r:
                r[k] *= m
        k = e - bdeg
        for ej, cj in lower:
            if k + ej not in r:
                heappush(heap, -(k + ej))
            r[k + ej] = r.get(k + ej, 0) - f * cj
    rest = sorted((e, c) for e, c in r.items() if c)
    return _primitive(rest, rest[0][0])[0] if rest else ()


def _primitive_gcd(a: tuple, b: tuple) -> tuple:
    """Integer terms of a primitive gcd of two nonzero polynomials, up to sign.

    The power of x is split off first.  Each remainder is divided by the
    power of x it carries: the divisor before it has a nonzero constant term,
    so that power is prime to the gcd.
    """
    v = min(a[0][0], b[0][0])
    if len(a) == 1 or len(b) == 1:
        return ((v, 1),)  # a monomial operand leaves x^v alone
    a, b = _primitive(a, a[0][0])[0], _primitive(b, b[0][0])[0]
    if a[-1][0] < b[-1][0]:
        a, b = b, a
    while b[-1][0] > 0:
        r = _pseudo_remainder(a, b)
        if not r:
            return tuple((e + v, c) for e, c in b) if v else b
        a, b = b, r
    return ((v, 1),)


def squarefree_parts(p: QPoly) -> list[tuple[QPoly, int]]:
    """Yun decomposition of p: monic S_i with p = lc * prod S_i^i.

    Only parts of positive degree are returned; valid in characteristic 0.
    Yun runs on the term tuples of primitive integer polynomials: its gcds
    are primitive, so by Gauss's lemma every quotient is an integer
    polynomial, primitive again, and each part is made monic once.
    """
    if p.is_zero:
        raise ValueError("squarefree decomposition of zero")
    if p.degree < 1:
        return []
    p = _primitive(p.terms)[0]
    out = []
    g = _primitive_gcd(p, tuple((e - 1, c * e) for e, c in p if e))
    w = _long_division(p, g)[0]
    i = 1
    while w[-1][0] > 0:
        y = _primitive_gcd(w, g)
        s = _long_division(w, y)[0]
        if s[-1][0] > 0:
            out.append((QPoly._of_terms(s).monic(), i))
        w = y
        g = _long_division(g, y)[0]
        i += 1
    return out


def coprime_basis(polys) -> list[QPoly]:
    """Pairwise-coprime monic refinement of a family of squarefree polys."""
    basis: list[QPoly] = []
    for f in polys:
        f = f.monic()
        refined: list[QPoly] = []
        for b in basis:
            if f.degree <= 0:
                refined.append(b)
                continue
            g = f.gcd(b)
            if g.degree == 0:
                refined.append(b)
                continue
            refined.append(g)
            rest = b.exact_div(g).monic()
            if rest.degree > 0:
                refined.append(rest)
            f = f.exact_div(g).monic()
        if f.degree > 0:
            refined.append(f)
        seen = set()
        basis = []
        for b in refined:
            if b not in seen:
                seen.add(b)
                basis.append(b)
    return sorted(basis, key=lambda b: (b.degree, b.terms))


def primitive_parts(polys, shift: int = 0) -> list[QPoly]:
    """The polynomials divided by x^shift and by one positive rational, so
    that every coefficient is an int and all of them together have gcd 1.

    A positive divisor keeps every sign; all-zero input comes back unscaled.
    """
    polys = list(polys)
    joint = tuple(t for p in polys for t in p.terms)
    if not joint:
        return polys
    scaled, g, den = _primitive(joint, shift)
    if g == 1 and den == 1 and not shift:
        return polys
    out, i = [], 0
    for p in polys:
        out.append(QPoly._of_terms(scaled[i : i + len(p.terms)]))
        i += len(p.terms)
    return out


def _scaled_value(coeffs: list[int], h: int, powers: list[int]) -> int:
    """b^m * f(h/b) for the dense integer f of degree m, powers[j] = b^j."""
    m = len(coeffs) - 1
    acc = 0
    for i in range(m, -1, -1):
        acc = acc * h + coeffs[i] * powers[m - i]
    return acc


def _sturm_roots(q: QPoly) -> list:
    """Rational zeros of a squarefree integer polynomial of degree >= 2.

    Every rational zero is k/L, L = |lc q| (rational root theorem), and the
    points h/(2L) with h odd lie between these candidates and are never
    zeros.  On that grid, starting beyond the Cauchy bound, a Sturm sequence
    counts the real zeros of each interval; an interval with one zero is
    halved by the sign of q alone (the zero is simple), one with more by the
    Sturm counts, until it holds a single candidate, which is tested exactly.
    """
    seq = [q, q.derivative()]
    while seq[-1].degree > 0:
        seq.append(primitive_parts([-(seq[-2] % seq[-1])])[0])
    dense = [p.coeff_list() for p in seq]
    lead = abs(q.leading)
    powers = [1]
    for _ in range(q.degree):
        powers.append(powers[-1] * 2 * lead)

    def changes(h: int) -> int:
        count, last = 0, 0
        for coeffs in dense:
            v = _scaled_value(coeffs, h, powers)
            if v:
                if last and (v > 0) != (last > 0):
                    count += 1
                last = v
        return count

    bound = 2 + max(abs(c) for c in dense[0][:-1]) // lead  # beyond every zero
    lo, hi = -2 * lead * bound - 1, 2 * lead * bound + 1
    roots = []
    stack = [(lo, hi, changes(lo), changes(hi))]
    while stack:
        lo, hi, v_lo, v_hi = stack.pop()
        if v_lo == v_hi:
            continue
        if v_lo - v_hi == 1:
            positive = _scaled_value(dense[0], lo, powers) > 0
            while hi - lo > 2:
                mid = lo + 2 * ((hi - lo) // 4)
                if (_scaled_value(dense[0], mid, powers) > 0) == positive:
                    lo = mid
                else:
                    hi = mid
        if hi - lo == 2:
            candidate = Fraction((lo + 1) // 2, lead)
            if q.eval(candidate) == 0:
                roots.append(_as_coeff(candidate))
            continue
        mid = lo + 2 * ((hi - lo) // 4)
        v_mid = changes(mid)
        stack.append((lo, mid, v_lo, v_mid))
        stack.append((mid, hi, v_mid, v_hi))
    return roots


def _squarefree_roots(p: QPoly) -> list:
    """The rational zeros of a nonzero squarefree p, ascending: zero, the
    zero of a linear part, or the Sturm search of _sturm_roots."""
    roots = []
    if p.val > 0:
        roots.append(0)
        p = p.shifted(-p.val)
    if p.degree == 1:
        roots.append(qdiv(-p.coeff(0), p.leading))
    elif p.degree > 1:
        roots += _sturm_roots(primitive_parts([p])[0])
    return sorted(roots)


def rational_roots(p: QPoly) -> list:
    """All rational zeros of p (without multiplicity), ascending, exact for
    coefficients of any size: those of the squarefree part of p."""
    if p.is_zero:
        raise ValueError("rational roots of the zero polynomial")
    if p.degree > 0:
        g = p.gcd(p.derivative())
        if g.degree > 0:
            p = p.exact_div(g)
    return _squarefree_roots(p)


def simplest_in(lo: Fraction, hi: Fraction, incl_lo: bool = True, incl_hi: bool = True) -> Fraction:
    """Rational with the smallest denominator in the interval from lo to hi."""
    lo, hi = Fraction(_as_coeff(lo)), Fraction(_as_coeff(hi))
    if lo > hi or (lo == hi and not (incl_lo and incl_hi)):
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    if hi < 0 or (hi == 0 and not incl_hi):
        return -simplest_in(-hi, -lo, incl_hi, incl_lo)
    if lo < 0 or (lo == 0 and incl_lo):
        return Fraction(0)
    # now 0 <= lo < hi with lo excluded only if lo == 0
    n_lo = lo.numerator // lo.denominator + 1 if (lo.denominator > 1 or not incl_lo) else lo.numerator
    n_hi = hi.numerator // hi.denominator if (hi.denominator > 1 or incl_hi) else hi.numerator - 1
    if n_lo <= n_hi:
        return Fraction(n_lo)
    a = lo.numerator // lo.denominator
    if lo == a:
        # lo integer, necessarily excluded: interval is (a, hi]/(a, hi)
        q = 1 / (hi - a)
        n = q.numerator // q.denominator
        if q.denominator > 1 or not incl_hi:
            n += 1
        return a + Fraction(1, n)
    # recurse on the inverted fractional parts; bounds and inclusivity swap
    inner = simplest_in(1 / (hi - a), 1 / (lo - a), incl_hi, incl_lo)
    return a + 1 / inner
