import random
from fractions import Fraction

import pytest

from nadyn import (
    CLASSICAL_INF,
    FiniteClass,
    GAUSS,
    INFINITY,
    KScalar,
    OutOfRange,
    SamePoint,
    TypeIIPoint,
    chart,
    direction_toward,
    parse_point,
    parse_scalar,
    path_point,
    rho,
    step_into,
    wedge,
)
from conftest import rand_laurent_point, rand_point, rand_scalar


def test_chart_examples():
    m = chart(GAUSS)
    assert m.num[1] == KScalar.one() and m.num[0] == KScalar.zero()
    m = chart(parse_point("a=0;s=-1"))
    assert m.num[1] == KScalar.t_power(-1)
    m = chart(parse_point("a=0;s=-1/2"))
    assert m.num[1] == KScalar.t_power(Fraction(-1, 2))
    assert m.num[1].level == 2


def test_rho_examples():
    assert rho(GAUSS, parse_point("a=0;s=-1")) == 1
    # D(0, r) and D(t, r) are the same disk
    assert rho(parse_point("a=0;s=1"), parse_point("a=t;s=1")) == 0
    assert parse_point("a=0;s=1") == parse_point("a=t;s=1")
    assert rho(parse_point("a=0;s=1"), parse_point("a=1;s=1")) == 2


def test_rho_is_a_metric():
    rng = random.Random(41)
    for _ in range(200):
        p1, p2 = rand_point(rng), rand_point(rng)
        assert rho(p1, p2) == rho(p2, p1)
        assert rho(p1, p2) >= 0
        assert (rho(p1, p2) == 0) == (p1 == p2)


def test_point_equality_matches_disk_equality():
    rng = random.Random(42)
    for _ in range(200):
        a = rand_scalar(rng, allow_zero=True)
        b = rand_scalar(rng, allow_zero=True)
        s = Fraction(rng.randint(-3, 3), rng.choice([1, 2]))
        same = (a - b).ord() >= s
        assert (TypeIIPoint(a, s) == TypeIIPoint(b, s)) == same


def test_wedge_examples():
    assert wedge(parse_point("a=0;s=1"), parse_point("a=1;s=1")) == GAUSS
    p = parse_point("a=1;s=2")
    assert wedge(p, p, GAUSS) == p
    assert wedge(parse_point("a=0;s=-1"), parse_point("a=0;s=-1/2")) == parse_point(
        "a=0;s=-1/2"
    )


def test_wedge_gromov_product():
    rng = random.Random(43)
    for _ in range(200):
        p1, p2, base = rand_point(rng), rand_point(rng), rand_point(rng)
        w = wedge(p1, p2, base)
        assert rho(base, w) == (rho(base, p1) + rho(base, p2) - rho(p1, p2)) / 2
        # the wedge point lies on all three segments
        assert rho(base, w) + rho(w, p1) == rho(base, p1)
        assert rho(base, w) + rho(w, p2) == rho(base, p2)
        assert rho(p1, w) + rho(w, p2) == rho(p1, p2)


def test_path_point_examples():
    assert path_point(GAUSS, parse_point("a=0;s=-1"), Fraction(1, 2)) == parse_point(
        "a=0;s=-1/2"
    )
    p, q = parse_point("a=1;s=2"), parse_point("a=0;s=-1")
    assert path_point(p, q, 0) == p
    assert path_point(parse_point("a=0;s=1"), parse_point("a=1;s=1"), 1) == GAUSS


def test_path_point_out_of_range():
    with pytest.raises(OutOfRange):
        path_point(GAUSS, parse_point("a=0;s=1"), 2)


def test_path_point_triangle_additivity():
    rng = random.Random(44)
    for _ in range(200):
        p1, p2 = rand_point(rng), rand_point(rng)
        total = rho(p1, p2)
        if total == 0:
            continue
        tau = Fraction(rng.randint(0, 8), 8) * total
        mid = path_point(p1, p2, tau)
        assert rho(p1, mid) == tau
        assert rho(p1, mid) + rho(mid, p2) == total


def test_direction_toward_examples():
    assert direction_toward(GAUSS, KScalar.zero()) == FiniteClass(Fraction(0))
    assert direction_toward(GAUSS, parse_point("a=0;s=-1")) == INFINITY
    # from the bigger disk, the Gauss point sits in the residue-zero direction
    assert direction_toward(parse_point("a=0;s=-1"), GAUSS) == FiniteClass(Fraction(0))
    assert direction_toward(GAUSS, CLASSICAL_INF) == INFINITY
    assert direction_toward(GAUSS, parse_scalar("2 + t")) == FiniteClass(Fraction(2))


def test_direction_toward_returns_the_class_stepped_into():
    # a direction at a point is its class: stepping any distance h > 0 along
    # a rational class lands in that class, whatever the centre looks like
    rng = random.Random(46)
    for k in range(400):
        point = rand_point(rng) if k % 2 else rand_laurent_point(rng)
        value = Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        cls = INFINITY if rng.random() < 0.25 else FiniteClass(value)
        h = Fraction(rng.randint(1, 12), rng.randint(1, 6))
        assert direction_toward(point, step_into(point, cls, h)) == cls


def test_direction_toward_same_point():
    with pytest.raises(SamePoint):
        direction_toward(GAUSS, TypeIIPoint(KScalar.zero(), Fraction(0)))


def test_direction_separates_path():
    # directions toward the two endpoints of a segment differ at interior points
    rng = random.Random(45)
    for _ in range(100):
        p1, p2 = rand_point(rng), rand_point(rng)
        total = rho(p1, p2)
        if total == 0:
            continue
        mid = path_point(p1, p2, Fraction(total, 2))
        if mid in (p1, p2):
            continue
        d1 = direction_toward(mid, p1)
        d2 = direction_toward(mid, p2)
        assert d1 != d2


@pytest.mark.parametrize("h", [0, Fraction(-1, 2)])
def test_step_into_needs_a_positive_step(h):
    with pytest.raises(OutOfRange):
        step_into(GAUSS, INFINITY, h)
