import random
from fractions import Fraction

import pytest

from nadyn import (
    AmbiguousClass,
    BothFormsZero,
    FactorClass,
    FiniteClass,
    GAUSS,
    HomogeneousForm,
    INFINITY,
    InfinityClass,
    QPoly,
    class_str,
    depth_at,
    direction_toward,
    homogeneous_gcd,
    squarefree_decomposition,
    step_into,
)
from nadyn.parsing import class_json
from nadyn.respoly import DepthDivisor, class_degree, divisor_classes


def form(degree, *coeffs):
    return HomogeneousForm.from_coeffs(degree, [Fraction(c) for c in coeffs])


X0_SQ = form(2, 1, 0, 0)          # X0^2
CIRCLE = form(2, 1, 0, 1)         # X0^2 + X1^2
ZERO2 = form(2, 0, 0, 0)


def test_gcd_with_zero_form():
    # reduced pair of tz^2 is (0, X0^2)
    assert homogeneous_gcd(ZERO2, X0_SQ) == X0_SQ
    # reduced pair of (w^2+1)/u is (X0^2+X1^2, 0)
    assert homogeneous_gcd(CIRCLE, ZERO2) == CIRCLE


def test_gcd_of_monomial_forms():
    # reduced pair of (z^2-t)/z is (X1^2, X0 X1)
    f = form(2, 0, 0, 1)
    g = form(2, 0, 1, 0)
    assert homogeneous_gcd(f, g) == form(1, 0, 1)


def test_gcd_both_zero_raises():
    with pytest.raises(BothFormsZero):
        homogeneous_gcd(ZERO2, ZERO2)


def test_gcd_is_monic_in_x1():
    f = form(2, 2, 0, 2)
    g = form(2, 0, 0, 4)
    h = homogeneous_gcd(f, f)
    assert h.dehom.leading == 1
    assert homogeneous_gcd(g, g).dehom == QPoly.monomial(2)


def test_squarefree_decomposition_examples():
    d = squarefree_decomposition(X0_SQ)
    assert d.parts == () and d.inf_mult == 2

    sq = form(4, 1, 0, 2, 0, 1)  # (X0^2 + X1^2)^2
    d = squarefree_decomposition(sq)
    assert d.inf_mult == 0
    assert [(s.to_str("z"), i) for s, i in d.parts] == [("z^2 + 1", 2)]

    d = squarefree_decomposition(form(1, 0, 1))  # X1
    assert d.inf_mult == 0
    assert [(s.to_str("z"), i) for s, i in d.parts] == [("z", 1)]


def test_depth_at_examples():
    d = squarefree_decomposition(X0_SQ)
    assert depth_at(d, INFINITY) == 2
    assert depth_at(d, FiniteClass(Fraction(0))) == 0
    sq = squarefree_decomposition(form(4, 1, 0, 2, 0, 1))
    assert depth_at(sq, FactorClass(QPoly.from_coeffs([1, 0, 1]))) == 2


def test_depth_at_ambiguous_class():
    divisor = DepthDivisor(
        parts=((QPoly.from_coeffs([0, 1]), 1), (QPoly.from_coeffs([-1, 1]), 2)),
        inf_mult=0,
    )
    straddle = FactorClass(QPoly.from_coeffs([0, -1, 1]))  # z(z-1)
    with pytest.raises(AmbiguousClass):
        depth_at(divisor, straddle)


@pytest.mark.parametrize(
    "consume, message",
    [
        (lambda x: depth_at(squarefree_decomposition(X0_SQ), x), "unsupported direction class"),
        (class_str, "cannot print class"),
        (class_json, "cannot serialise class"),
        (lambda x: step_into(GAUSS, x, Fraction(1)), "cannot step along class"),
        (lambda x: direction_toward(GAUSS, x), "unsupported target"),
    ],
    ids=["depth_at", "class_str", "class_json", "step_into", "direction_toward"],
)
def test_class_consumers_refuse_a_non_class(consume, message):
    # the text of a class is not a class (nor a target point)
    with pytest.raises(TypeError, match=f"^{message} 'inf'$"):
        consume("inf")


def _random_squarefree(rng):
    while True:
        p = QPoly.from_coeffs([rng.randint(-3, 3) for _ in range(rng.randint(2, 4))])
        if p.degree < 1:
            continue
        p = p.monic()
        if p.gcd(p.derivative()).degree == 0:
            return p


def test_squarefree_reconstruction_random():
    rng = random.Random(31)
    checked = 0
    while checked < 200:
        s1 = _random_squarefree(rng)
        s2 = _random_squarefree(rng)
        if s1.gcd(s2).degree > 0:
            continue
        inf_mult = rng.randint(0, 2)
        e1, e2 = rng.randint(1, 3), rng.randint(1, 3)
        dehom = (s1**e1) * (s2**e2)
        h = HomogeneousForm(dehom.degree + inf_mult, dehom)
        d = squarefree_decomposition(h)
        acc = QPoly.one()
        for s, i in d.parts:
            acc = acc * s**i
        assert acc == dehom.monic()
        assert d.inf_mult == inf_mult
        assert d.total_degree == h.degree
        checked += 1


def test_depth_matches_division_oracle():
    # per-root depth of a rational direction equals the number of times
    # (z - c) divides the dehomogenised form
    rng = random.Random(32)
    for _ in range(200):
        coeffs = [rng.randint(-2, 2) for _ in range(rng.randint(2, 9))]
        p = QPoly.from_coeffs(coeffs)
        if p.is_zero:
            continue
        h = HomogeneousForm(p.degree + rng.randint(0, 2), p)
        d = squarefree_decomposition(h)
        c = Fraction(rng.randint(-2, 2))
        count = 0
        probe = p
        lin = QPoly.from_coeffs([-c, 1])
        while not probe.is_zero and (probe % lin).is_zero:
            probe = probe.exact_div(lin)
            count += 1
        assert depth_at(d, FiniteClass(c)) == count


def test_divisor_classes_examples():
    # X0 * X1 * (X1 - X0) * (X1^2 + X0^2): infinity, then the part's classes in order
    h = HomogeneousForm(5, QPoly.from_coeffs([0, 1, 0, 1]) * QPoly.from_coeffs([-1, 1]))
    d = squarefree_decomposition(h)
    plain = divisor_classes(d, QPoly.zero())
    assert [(repr(cls), i) for cls, i in plain] == [
        ("InfinityClass()", 1),
        ("FiniteClass(0)", 1),
        ("FiniteClass(1)", 1),
        ("FactorClass(z^2 + 1)", 1),
    ]
    # cut along the zero set of z - 1: its root comes first within the part
    cut = divisor_classes(d, QPoly.from_coeffs([-1, 1]))
    assert [repr(cls) for cls, _ in cut] == [
        "InfinityClass()",
        "FiniteClass(1)",
        "FiniteClass(0)",
        "FactorClass(z^2 + 1)",
    ]
    # a factor class splits when refine holds only some of its roots
    quartic = squarefree_decomposition(HomogeneousForm(4, QPoly.from_coeffs([-2, 0, -1, 0, 1])))
    assert [repr(cls) for cls, _ in divisor_classes(quartic, QPoly.zero())] == [
        "FactorClass(z^4 - z^2 - 2)"
    ]
    assert [repr(cls) for cls, _ in divisor_classes(quartic, QPoly.from_coeffs([1, 0, 1]))] == [
        "FactorClass(z^2 + 1)",
        "FactorClass(z^2 - 2)",
    ]


def _class_poly(cls):
    return cls.poly if isinstance(cls, FactorClass) else QPoly.from_coeffs([-cls.value, 1])


def test_divisor_classes_masses_and_refinement():
    rng = random.Random(33)
    for _ in range(100):
        p1 = QPoly.from_coeffs([rng.randint(-2, 2) for _ in range(rng.randint(2, 6))])
        p2 = QPoly.from_coeffs([rng.randint(-2, 2) for _ in range(rng.randint(1, 6))])
        if p1.is_zero:
            continue
        h = HomogeneousForm(p1.degree + rng.randint(0, 2), p1)
        d = squarefree_decomposition(h)
        rows = divisor_classes(d, p2)
        assert sum(class_degree(cls) * i for cls, i in rows) == h.degree
        for cls, i in rows:
            assert depth_at(d, cls) == i
            if not isinstance(cls, InfinityClass):
                # every class lies wholly inside or wholly outside the zero set of p2
                q = _class_poly(cls)
                assert q.gcd(p2).degree in (0, q.degree)
