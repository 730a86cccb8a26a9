import random
from fractions import Fraction
from math import gcd, inf

import pytest

from nadyn import (
    KScalar,
    LevelCapExceeded,
    QPoly,
    RES_INF,
    SeriesCapExceeded,
    parse_map,
    parse_point,
    parse_scalar,
)
from nadyn.scalars import HARD_LEVEL_CAP, MAX_SERIES_TERMS
from conftest import rand_integral_scalar, rand_scalar


def _finer(x: KScalar, m: int) -> KScalar:
    """x rebuilt through the constructor at m times its level."""
    n = x.level * m
    return KScalar(*x.at_level(n), n)


def _fields(x: KScalar):
    return x.num, x.den, x.level


def _level_is_minimal(x: KScalar) -> bool:
    return gcd(x.level, *(e for e, _ in x.num.terms + x.den.terms)) == 1


def test_ord_examples():
    assert parse_scalar("t^2 + t^3").ord() == 2
    assert parse_scalar("1/t").ord() == -1
    assert KScalar.zero().ord() == inf


def test_ord_fractional_levels():
    x = KScalar.t_power(Fraction(1, 2))
    assert x.level == 2
    assert x.ord() == Fraction(1, 2)
    assert (x * x).ord() == 1


def test_residue_examples():
    assert parse_scalar("1 + t").residue() == 1
    assert parse_scalar("1/t").residue() is RES_INF
    assert parse_scalar("(2*t + 3*t^2)/t").residue() == 2


def test_residue_of_strictly_positive_ord():
    assert parse_scalar("t^2 + t^5").residue() == 0


def test_finer_level_constructor_examples():
    x = _finer(KScalar.t_power(1), 2)
    assert x.ord() == 1
    y = _finer(parse_scalar("1 + t"), 3)
    assert y == parse_scalar("1 + t")


def test_every_scalar_is_stored_at_its_smallest_level():
    assert parse_scalar("t^(1/2)*t^(1/2)").level == 1
    assert parse_point("a=0*t^(1/60);s=7/2").center.level == 1
    x = parse_scalar("1+t^(1/3)")
    assert (x + -x).level == 1
    assert _fields(KScalar(QPoly.monomial(4), QPoly.monomial(2), 6)) == _fields(KScalar.t_power(Fraction(1, 3)))


def test_negation_keeps_the_smallest_level():
    x = parse_scalar("1+t^(1/3)")
    assert _fields(-x) == _fields(KScalar(-x.num, x.den, 3))
    assert _fields(-parse_scalar("t^(1/2)*t^(1/2)")) == _fields(KScalar.from_rational(-1) * KScalar.t_power(1))


def test_results_stay_at_their_smallest_level():
    rng = random.Random(17)

    def rand_root_scalar():
        # a Laurent polynomial in t times a fractional power of t, plus another
        n = rng.choice([1, 2, 3, 4, 6])
        power = KScalar.t_power(Fraction(rng.randint(-3, 3), n))
        return rand_scalar(rng) * power + rand_scalar(rng, allow_zero=True)

    for _ in range(150):
        x, y = rand_root_scalar(), rand_root_scalar()
        results = [x + y, x - y, x * y, x / y, -x, x + -x, (x + y) - y]
        results += [x.truncated_below(Fraction(rng.randint(-6, 12), rng.choice([1, 2, 3]))) for _ in range(2)]
        assert all(_level_is_minimal(r) for r in results)
        for r in results:
            for m in (2, 3):
                again = _finer(r, m)
                assert _fields(again) == _fields(r)
                assert hash(again) == hash(r)


def test_ultrametric_inequality():
    rng = random.Random(11)
    for _ in range(250):
        x = rand_scalar(rng, allow_zero=True)
        y = rand_scalar(rng, allow_zero=True)
        ox, oy = x.ord(), y.ord()
        osum = (x + y).ord()
        assert osum >= min(ox, oy)
        if ox != oy:
            assert osum == min(ox, oy)


def test_ord_is_multiplicative():
    rng = random.Random(12)
    for _ in range(250):
        x = rand_scalar(rng)
        y = rand_scalar(rng)
        assert (x * y).ord() == x.ord() + y.ord()


def test_residue_is_ring_morphism_on_integers():
    rng = random.Random(13)
    for _ in range(250):
        x = rand_integral_scalar(rng)
        y = rand_integral_scalar(rng)
        assert (x + y).residue() == x.residue() + y.residue()
        assert (x * y).residue() == x.residue() * y.residue()


def test_finer_level_constructor_commutes_with_arithmetic():
    rng = random.Random(14)
    for _ in range(200):
        x = rand_scalar(rng)
        y = rand_scalar(rng)
        assert _finer(x + y, 2) == _finer(x, 2) + _finer(y, 2)
        assert _finer(x * y, 3) == _finer(x, 3) * _finer(y, 3)
        assert _finer(x, 2).ord() == x.ord()


def test_equality_is_level_independent():
    x = parse_scalar("1 + t")
    assert _finer(x, 4) == x
    assert hash(_finer(x, 4)) == hash(x)


def test_field_axioms_spot():
    rng = random.Random(15)
    for _ in range(100):
        x, y, z = (rand_scalar(rng) for _ in range(3))
        assert (x + y) * z == x * z + y * z
        assert x / y * y == x


def test_truncation_canonicalises_centres():
    x = parse_scalar("1 + t + t^3")
    assert x.truncated_below(Fraction(2)) == parse_scalar("1 + t")
    assert x.truncated_below(Fraction(1)) == parse_scalar("1")
    assert x.truncated_below(Fraction(-1)) == KScalar.zero()
    # rational functions expand as series before truncation
    y = parse_scalar("1/(1-t)")
    assert y.truncated_below(Fraction(3)) == parse_scalar("1 + t + t^2")


def test_truncation_reads_laurent_terms_and_caps_series():
    # a Laurent polynomial keeps its own terms, however high the bound
    x = parse_scalar("1/t + 2 + t^5")
    assert x.truncated_below(Fraction(10**4000)) == x
    assert x.truncated_below(Fraction(5)) == parse_scalar("1/t + 2")
    y = parse_scalar("1/(1-t)")
    assert y.truncated_below(Fraction(MAX_SERIES_TERMS)).num.degree == MAX_SERIES_TERMS - 1
    with pytest.raises(SeriesCapExceeded):
        y.truncated_below(Fraction(MAX_SERIES_TERMS + 1))


def test_scalar_printing_round_trip():
    rng = random.Random(16)
    for _ in range(100):
        x = rand_scalar(rng, allow_zero=True)
        assert parse_scalar(x.to_str()) == x
    assert parse_scalar(KScalar.t_power(Fraction(-1, 2)).to_str()) == KScalar.t_power(
        Fraction(-1, 2)
    )


def test_reprs_print_the_smallest_level():
    assert repr(parse_point("a=t^(1/2)*t^(1/2);s=2")) == "TypeIIPoint(a=t, s=2)"
    assert repr(parse_scalar("t^(1/2)*t^(1/2) + t^(2/6)")) == "KScalar(t + t^(1/3))"
    assert repr(parse_map("(t^(1/2)*t^(1/2)*z^2+1)/t")) == "RationalMapK(z^2 + (1/t))"


def test_at_level_reads_only_multiples_within_the_hard_cap():
    x = parse_scalar("t^(1/2)")
    with pytest.raises(ValueError, match="level 3 is not a multiple of 2"):
        x.at_level(3)
    with pytest.raises(LevelCapExceeded):
        x.at_level(2 * HARD_LEVEL_CAP)
