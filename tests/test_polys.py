import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from nadyn.polys import (
    QPoly,
    coprime_basis,
    power_str,
    rational_roots,
    simplest_in,
    squarefree_parts,
    sum_str,
)


def _poly(*coeffs):
    return QPoly.from_coeffs([Fraction(c) for c in coeffs])


def test_divmod_is_exact():
    rng = random.Random(21)
    for _ in range(200):
        a = QPoly.from_coeffs([rng.randint(-4, 4) for _ in range(rng.randint(1, 6))])
        b = QPoly.from_coeffs([rng.randint(-4, 4) for _ in range(rng.randint(1, 4))])
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.is_zero or r.degree < b.degree


def test_gcd_divides_both():
    rng = random.Random(22)
    for _ in range(200):
        a = QPoly.from_coeffs([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
        b = QPoly.from_coeffs([rng.randint(-3, 3) for _ in range(rng.randint(1, 5))])
        g = a.gcd(b)
        if g.is_zero:
            assert a.is_zero and b.is_zero
            continue
        assert (a % g).is_zero
        assert (b % g).is_zero


def test_squarefree_parts_reconstruct():
    p = _poly(-1, 0, 1) * _poly(-1, 0, 1) * _poly(2, 1)
    parts = squarefree_parts(p)
    acc = QPoly.one()
    for s, i in parts:
        acc = acc * s**i
    assert acc == p.monic()
    assert sorted(i for _, i in parts) == [1, 2]


def test_rational_roots():
    p = _poly(0, 1) * _poly(-3, 1) * _poly(1, 2) * _poly(1, 0, 1)
    assert rational_roots(p) == [Fraction(-1, 2), Fraction(0), Fraction(3)]


def test_coprime_basis_refines():
    x = QPoly.x()
    a = x * (x - QPoly.one())
    b = x
    basis = coprime_basis([a.monic(), b.monic()])
    assert sorted(q.to_str("z") for q in basis) == ["z", "z - 1"]


def test_simplest_in_basics():
    assert simplest_in(Fraction(3, 8), Fraction(5, 8)) == Fraction(1, 2)
    assert simplest_in(Fraction(1), Fraction(2)) == 1
    assert simplest_in(Fraction(-1, 3), Fraction(1, 5)) == 0
    assert simplest_in(Fraction(-5, 7), Fraction(-1, 2)) == Fraction(-1, 2)


def test_simplest_in_is_minimal_denominator():
    rng = random.Random(23)
    for _ in range(300):
        a = Fraction(rng.randint(-40, 40), rng.randint(1, 17))
        b = a + Fraction(rng.randint(1, 10), rng.randint(1, 23))
        best = simplest_in(a, b)
        assert a <= best <= b
        # nothing simpler in the interval
        for q in range(1, best.denominator):
            lo_n = -(-a.numerator * q // a.denominator)  # ceil(a*q)
            assert lo_n > b * q, (a, b, best, q)


_fractions = st.fractions(min_value=-20, max_value=20, max_denominator=40)


@given(lo=_fractions, width=st.fractions(min_value=0, max_value=3, max_denominator=40))
def test_simplest_in_agrees_with_a_search_by_denominator(lo, width):
    # the least denominator, and among those the numerator nearest 0
    hi = lo + width
    for q in range(1, 41):
        inside = range(-(-lo.numerator * q // lo.denominator), hi.numerator * q // hi.denominator + 1)
        if inside:
            want = Fraction(min(inside, key=abs), q)
            break
    assert simplest_in(lo, hi) == want


def test_simplest_in_of_a_point_and_of_an_empty_interval():
    assert simplest_in(Fraction(-7, 3), Fraction(-7, 3)) == Fraction(-7, 3)
    assert simplest_in(Fraction(0), Fraction(0)) == 0
    with pytest.raises(ValueError, match="empty"):
        simplest_in(Fraction(1, 2), Fraction(1, 3))


def test_sparse_sum_printer():
    assert sum_str([]) == "0"
    assert sum_str([("1", "z^2"), ("-1", "z"), ("3", "")]) == "z^2 - z + 3"
    assert sum_str([("-2", "t"), ("1/2", "")]) == "-2*t + 1/2"
    assert sum_str([("(1 + t)", "z"), ("-t", "")]) == "(1 + t)*z - t"
    assert sum_str([("1", "")]) == "1"
    assert [power_str("t", e) for e in (1, 3, Fraction(2), Fraction(-1, 2))] == ["t", "t^3", "t^2", "t^(-1/2)"]
    assert QPoly.from_coeffs([Fraction(1, 2), -1, 0, 1]).to_str("z") == "z^3 - z + 1/2"


def test_divmod_identity_on_random_sparse_polys():
    rng = random.Random(31)

    def rand_poly(max_exp, max_terms):
        return QPoly(
            (rng.randint(0, max_exp), Fraction(rng.randint(-5, 5), rng.randint(1, 4)))
            for _ in range(rng.randint(0, max_terms))
        )

    for _ in range(300):
        a, b = rand_poly(12, 6), rand_poly(6, 4)
        if b.is_zero:
            continue
        q, r = divmod(a, b)
        assert q * b + r == a
        assert r.degree < b.degree
