"""Polynomial algebra over the residue field k = Q.

Homogeneous pairs, their GCD form H, squarefree decompositions, and depth
lookups for direction classes.  Classes defined by irreducible factors are
handled through GCD splitting, so no factorisation into irreducibles is ever
needed: squarefree over Q stays squarefree over the algebraic closure.  One
splitter, divisor_classes, cuts a depth divisor into direction classes,
optionally along the zero set of a second polynomial; sorted_classes lists
the plain split in class_sort_key order, as reports print it.  A squarefree
piece gives its rational roots directly, and synthetic division leaves the
factor class.
"""

from __future__ import annotations

from fractions import Fraction

from .errors import AmbiguousClass, BothFormsZero, Record
from .polys import QPoly, _squarefree_roots, squarefree_parts


class HomogeneousForm:
    """Homogeneous form sum c_i X0^(d-i) X1^i of declared degree d.

    Stored as the declared degree plus the dehomogenisation p(z) = sum c_i z^i;
    the multiplicity of the root at infinity [0:1] is d - deg p.
    """

    __slots__ = ("degree", "dehom")

    def __init__(self, degree: int, dehom: QPoly):
        if degree < 0:
            raise ValueError("negative form degree")
        if dehom.degree > degree:
            raise ValueError("dehomogenised degree exceeds declared degree")
        self.degree = degree
        self.dehom = dehom

    @classmethod
    def from_coeffs(cls, degree: int, coeffs) -> "HomogeneousForm":
        coeffs = list(coeffs)
        if len(coeffs) != degree + 1:
            raise ValueError("coefficient list must have length degree + 1")
        return cls(degree, QPoly.from_coeffs(coeffs))

    @property
    def is_zero(self) -> bool:
        return self.dehom.is_zero

    @property
    def inf_mult(self) -> int:
        """Multiplicity of [0:1]; meaningless for the zero form."""
        return self.degree - self.dehom.degree

    def coeffs(self) -> list[Fraction]:
        out = self.dehom.coeff_list()
        out += [0] * (self.degree + 1 - len(out))
        return out

    def monic(self) -> "HomogeneousForm":
        return HomogeneousForm(self.degree, self.dehom.monic())

    def __eq__(self, other):
        return (
            isinstance(other, HomogeneousForm)
            and self.degree == other.degree
            and self.dehom == other.dehom
        )

    def __hash__(self):
        return hash((self.degree, self.dehom))

    def __repr__(self):
        return f"HomogeneousForm(deg={self.degree}, {self.dehom.to_str('z')})"


# -- direction classes -------------------------------------------------------


class FiniteClass(Record):
    """Direction indexed by a rational residue value (a Fraction)."""

    __slots__ = ("value",)

    def __repr__(self):
        return f"FiniteClass({self.value})"


class InfinityClass(Record):
    """The direction indexed by infinity in the residue projective line."""

    __slots__ = ()

    def __repr__(self):
        return "InfinityClass()"


INFINITY = InfinityClass()


class FactorClass(Record):
    """Galois-stable packet of directions: roots of a monic squarefree QPoly."""

    __slots__ = ("poly",)

    def __init__(self, poly: QPoly):
        if poly.degree < 2:
            raise ValueError("factor classes need degree >= 2")
        if poly.leading != 1:
            raise ValueError("factor classes must be monic")
        object.__setattr__(self, "poly", poly)

    def __repr__(self):
        return f"FactorClass({self.poly.to_str('z')})"


def class_sort_key(cls):
    """Deterministic ordering: infinity, then finite values, then factors."""
    if isinstance(cls, InfinityClass):
        return (0,)
    if isinstance(cls, FiniteClass):
        return (1, cls.value)
    return (2, cls.poly.degree, cls.poly.terms)


# -- depth divisors -----------------------------------------------------------


class DepthDivisor(Record):
    """Root multiplicities of H: squarefree parts plus the infinity count."""

    __slots__ = ("parts", "inf_mult")

    @property
    def total_degree(self) -> int:
        return sum(i * s.degree for s, i in self.parts) + self.inf_mult


def homogeneous_gcd(f: HomogeneousForm, g: HomogeneousForm) -> HomogeneousForm:
    """Monic GCD of two equal-degree forms, with GCD(0, a) = a."""
    if f.degree != g.degree:
        raise ValueError("forms must have equal degree")
    if f.is_zero and g.is_zero:
        raise BothFormsZero("GCD of two zero forms")
    if f.is_zero:
        return g.monic()
    if g.is_zero:
        return f.monic()
    inf = min(f.inf_mult, g.inf_mult)
    core = f.dehom.gcd(g.dehom)
    return HomogeneousForm(inf + core.degree, core)


def squarefree_decomposition(h: HomogeneousForm) -> DepthDivisor:
    """Read off all root multiplicities of h without factoring."""
    if h.is_zero:
        raise ValueError("squarefree decomposition of the zero form")
    parts = tuple(squarefree_parts(h.dehom))
    return DepthDivisor(parts=parts, inf_mult=h.inf_mult)


def depth_at(divisor: DepthDivisor, cls) -> int:
    """Per-root depth of a direction class in the divisor."""
    if isinstance(cls, InfinityClass):
        return divisor.inf_mult
    if isinstance(cls, FiniteClass):
        for s, i in divisor.parts:
            if s.eval(cls.value) == 0:
                return i
        return 0
    if isinstance(cls, FactorClass):
        p = cls.poly
        hit = None
        for s, i in divisor.parts:
            g = s.gcd(p)
            if g.degree == 0:
                continue
            if g.degree == p.degree and hit is None:
                hit = i
            else:
                raise AmbiguousClass(
                    f"class {p.to_str('z')} straddles parts of the divisor"
                )
        return hit if hit is not None else 0
    raise TypeError(f"unsupported direction class {cls!r}")


def split_classes(poly: QPoly) -> list:
    """Classes of a squarefree polynomial: one finite class per rational root,
    then one factor class for what is left (all linear factors are rational):
    the cofactor of the roots by synthetic division, made monic once."""
    roots = _squarefree_roots(poly)
    out = [FiniteClass(r) for r in roots]
    if poly.degree - len(roots) >= 2:
        rem = poly.coeff_list()
        for r in roots:
            for k in range(len(rem) - 2, -1, -1):
                rem[k] += r * rem[k + 1]
            del rem[0]  # the remainder, zero
        out.append(FactorClass(QPoly.from_coeffs(rem).monic()))
    return out


def class_degree(cls) -> int:
    """Number of directions in the class."""
    return cls.poly.degree if isinstance(cls, FactorClass) else 1


def divisor_classes(divisor: DepthDivisor, refine: QPoly) -> list[tuple[object, int]]:
    """Split the divisor into atomic classes with their per-root depths.

    Lists infinity first when it carries depth, then, in divisor order, each
    squarefree part cut into its GCD with refine and the cofactor, each
    piece split by split_classes.  A class then lies wholly inside or wholly
    outside the zero set of refine; refine = 0 gives the plain split.
    """
    out = [(INFINITY, divisor.inf_mult)] if divisor.inf_mult else []
    for s, i in divisor.parts:
        g = s.gcd(refine) if refine else s
        for piece in (g, s.exact_div(g)) if refine else (g,):
            if piece.degree > 0:
                out += [(cls, i) for cls in split_classes(piece)]
    return out


def sorted_classes(divisor: DepthDivisor) -> list[tuple[object, int]]:
    """The plain split of the divisor, in class_sort_key order."""
    return sorted(divisor_classes(divisor, QPoly.zero()), key=lambda row: class_sort_key(row[0]))
