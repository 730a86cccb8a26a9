"""Sparse exact univariate polynomials over Q.

This is the shared low-level layer: numerators and denominators of scalars
(polynomials in the uniformizer u) live here, and so do the residue-side
polynomials in the tangent variable.  Exponents can get large when probing
points with fine radii, hence the sparse representation.
"""

from __future__ import annotations

from fractions import Fraction
from heapq import heapify, heappop, heappush
from math import gcd as _int_gcd


def _as_frac(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    if isinstance(c, int):
        return Fraction(c)
    raise TypeError(f"rational coefficient expected, got {type(c).__name__}")


class QPoly:
    """Polynomial over Q stored as sorted (exponent, coefficient) pairs."""

    __slots__ = ("terms",)

    def __init__(self, terms=()):
        acc: dict[int, Fraction] = {}
        for e, c in terms:
            c = _as_frac(c)
            if c:
                e = int(e)
                s = acc.get(e, _ZERO_FRAC) + c
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        object.__setattr__(self, "terms", tuple(sorted(acc.items())))

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
    def leading(self) -> Fraction:
        if not self.terms:
            raise ValueError("leading coefficient of the zero polynomial")
        return self.terms[-1][1]

    def coeff(self, exponent: int) -> Fraction:
        for e, c in self.terms:
            if e == exponent:
                return c
            if e > exponent:
                break
        return _ZERO_FRAC

    def coeff_list(self) -> list[Fraction]:
        """Dense ascending coefficients, length degree+1 (empty for zero)."""
        out = [_ZERO_FRAC] * (self.degree + 1)
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
    def _build(acc: dict) -> "QPoly":
        p = object.__new__(QPoly)
        object.__setattr__(p, "terms", tuple(sorted((e, c) for e, c in acc.items() if c)))
        return p

    def __add__(self, other: "QPoly") -> "QPoly":
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, _ZERO_FRAC) + c
        return QPoly._build(acc)

    def __sub__(self, other: "QPoly") -> "QPoly":
        acc = dict(self.terms)
        for e, c in other.terms:
            acc[e] = acc.get(e, _ZERO_FRAC) - c
        return QPoly._build(acc)

    def __neg__(self) -> "QPoly":
        return QPoly._build({e: -c for e, c in self.terms})

    def __mul__(self, other: "QPoly") -> "QPoly":
        if not self.terms or not other.terms:
            return _QP_ZERO
        acc: dict[int, Fraction] = {}
        for e1, c1 in self.terms:
            for e2, c2 in other.terms:
                e = e1 + e2
                s = acc.get(e, _ZERO_FRAC) + c1 * c2
                if s:
                    acc[e] = s
                elif e in acc:
                    del acc[e]
        p = object.__new__(QPoly)
        object.__setattr__(p, "terms", tuple(sorted(acc.items())))
        return p

    def scale(self, c) -> "QPoly":
        c = _as_frac(c)
        if not c:
            return _QP_ZERO
        return QPoly._build({e: c0 * c for e, c0 in self.terms})

    def shifted(self, k: int) -> "QPoly":
        """Multiply by x^k (k may be negative if the valuation allows)."""
        if not self.terms:
            return self
        if k < 0 and self.val < -k:
            raise ValueError("negative shift below valuation")
        return QPoly._build({e + k: c for e, c in self.terms})

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
        # long division on a dict of remainder terms, leading exponents taken
        # from a max-heap; every exponent is pushed once and popped once
        *lower, (ddeg, dlead) = other.terms
        r = dict(self.terms)
        heap = [-e for e in r]
        heapify(heap)
        q: dict[int, Fraction] = {}
        while heap and -heap[0] >= ddeg:
            e = -heappop(heap)
            c = r.pop(e)
            if not c:
                continue
            k = e - ddeg
            q[k] = f = c / dlead
            for ej, cj in lower:
                if k + ej not in r:
                    heappush(heap, -(k + ej))
                r[k + ej] = r.get(k + ej, _ZERO_FRAC) - f * cj
        return QPoly._build(q), QPoly._build(r)

    def __mod__(self, other: "QPoly") -> "QPoly":
        return divmod(self, other)[1]

    def exact_div(self, other: "QPoly") -> "QPoly":
        q, r = divmod(self, other)
        if not r.is_zero:
            raise ValueError("division is not exact")
        return q

    def monic(self) -> "QPoly":
        if self.is_zero:
            return self
        lead = self.leading
        if lead == 1:
            return self
        return QPoly._build({e: c / lead for e, c in self.terms})

    def gcd(self, other: "QPoly") -> "QPoly":
        """Monic greatest common divisor; gcd(0, q) = monic q."""
        a, b = self, other
        while not b.is_zero:
            a, b = b, (a % b).monic()
        return a.monic()

    def derivative(self) -> "QPoly":
        return QPoly._build({e - 1: c * e for e, c in self.terms if e})

    def eval(self, x: Fraction) -> Fraction:
        x = _as_frac(x)
        return sum((c * x**e for e, c in self.terms), _ZERO_FRAC)

    def eval_complex(self, z: complex) -> complex:
        return sum(complex(c) * z**e for e, c in self.terms) if self.terms else 0j

    # -- printing ------------------------------------------------------------

    def to_str(self, var: str = "t") -> str:
        if not self.terms:
            return "0"
        parts = []
        for e, c in reversed(self.terms):
            if e == 0:
                body = str(c)
            else:
                pw = var if e == 1 else f"{var}^{e}"
                if c == 1:
                    body = pw
                elif c == -1:
                    body = f"-{pw}"
                else:
                    body = f"{c}*{pw}"
            parts.append(body)
        out = parts[0]
        for body in parts[1:]:
            out += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
        return out


_ZERO_FRAC = Fraction(0)
_QP_ZERO = QPoly()
_QP_ONE = QPoly([(0, 1)])
_QP_X = QPoly([(1, 1)])


def squarefree_parts(p: QPoly) -> list[tuple[QPoly, int]]:
    """Yun decomposition of p: monic S_i with p = lc * prod S_i^i.

    Only parts of positive degree are returned; valid in characteristic 0.
    """
    if p.is_zero:
        raise ValueError("squarefree decomposition of zero")
    p = p.monic()
    out = []
    g = p.gcd(p.derivative())
    w = p.exact_div(g)
    i = 1
    while w.degree > 0:
        y = w.gcd(g)
        s = w.exact_div(y)
        if s.degree > 0:
            out.append((s.monic(), i))
        w = y
        g = g.exact_div(y)
        i += 1
    return out


def coprime_basis(polys) -> list[QPoly]:
    """Pairwise-coprime monic refinement of a family of squarefree polys."""
    basis: list[QPoly] = []
    for f in polys:
        f = f.monic()
        if f.degree <= 0:
            continue
        refined: list[QPoly] = []
        for b in basis:
            if f.degree == 0:
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


def _divisors(n: int) -> list[int]:
    n = abs(n)
    if n == 0:
        raise ValueError("divisors of zero")
    if n > 10**12:
        raise ValueError("constant term too large for rational root extraction")
    small, large = [], []
    i = 1
    while i * i <= n:
        if n % i == 0:
            small.append(i)
            if i * i != n:
                large.append(n // i)
        i += 1
    return small + large[::-1]


def rational_roots(p: QPoly) -> list[Fraction]:
    """All rational zeros of p (without multiplicity), ascending."""
    if p.is_zero:
        raise ValueError("rational roots of the zero polynomial")
    roots = set()
    if p.val > 0:
        roots.add(_ZERO_FRAC)
        p = p.shifted(-p.val)
    if p.degree > 0:
        den_lcm = 1
        for _, c in p.terms:
            den_lcm = den_lcm * c.denominator // _int_gcd(den_lcm, c.denominator)
        q = p.scale(den_lcm)
        c0 = int(q.coeff(0))
        lead = int(q.leading)
        for a in _divisors(c0):
            for b in _divisors(lead):
                if _int_gcd(a, b) != 1:
                    continue
                cand = Fraction(a, b)
                if q.eval(cand) == 0:
                    roots.add(cand)
                if q.eval(-cand) == 0:
                    roots.add(-cand)
    return sorted(roots)


def simplest_in(lo: Fraction, hi: Fraction, incl_lo: bool = True, incl_hi: bool = True) -> Fraction:
    """Rational with the smallest denominator in the interval from lo to hi."""
    lo, hi = _as_frac(lo), _as_frac(hi)
    if lo > hi or (lo == hi and not (incl_lo and incl_hi)):
        raise ValueError("empty interval")
    if lo == hi:
        return lo
    if hi < 0 or (hi == 0 and not incl_hi):
        return -simplest_in(-hi, -lo, incl_hi, incl_lo)
    if lo < 0 or (lo == 0 and incl_lo):
        return _ZERO_FRAC
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
