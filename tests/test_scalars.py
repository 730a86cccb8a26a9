import random
from fractions import Fraction
from math import inf

import pytest

from nadyn import (
    KScalar,
    LevelCapExceeded,
    RES_INF,
    SeriesCapExceeded,
    ord_of,
    parse_scalar,
    residue,
)
from nadyn.scalars import MAX_SERIES_TERMS
from conftest import base_change, rand_integral_scalar, rand_scalar


def test_ord_examples():
    assert ord_of(parse_scalar("t^2 + t^3")) == 2
    assert ord_of(parse_scalar("1/t")) == -1
    assert ord_of(KScalar.zero()) == inf


def test_ord_fractional_levels():
    x = KScalar.t_power(Fraction(1, 2))
    assert x.level == 2
    assert ord_of(x) == Fraction(1, 2)
    assert ord_of(x * x) == 1


def test_residue_examples():
    assert residue(parse_scalar("1 + t")) == 1
    assert residue(parse_scalar("1/t")) is RES_INF
    assert residue(parse_scalar("(2*t + 3*t^2)/t")) == 2


def test_residue_of_strictly_positive_ord():
    assert residue(parse_scalar("t^2 + t^5")) == 0


def test_base_change_examples():
    x = base_change(KScalar.t_power(1), 2)
    assert x.level == 2
    assert ord_of(x) == 1
    y = base_change(parse_scalar("1 + t"), 3)
    assert y.level == 3
    assert y == parse_scalar("1 + t")


def test_base_change_cap():
    with pytest.raises(LevelCapExceeded):
        base_change(KScalar.t_power(1), 128)


def test_base_change_cap_env_override(monkeypatch):
    monkeypatch.setenv("NADYN_LEVEL_CAP", "256")
    x = base_change(KScalar.t_power(1), 128)
    assert x.level == 128


def test_ultrametric_inequality():
    rng = random.Random(11)
    for _ in range(250):
        x = rand_scalar(rng, allow_zero=True)
        y = rand_scalar(rng, allow_zero=True)
        ox, oy = ord_of(x), ord_of(y)
        osum = ord_of(x + y)
        assert osum >= min(ox, oy)
        if ox != oy:
            assert osum == min(ox, oy)


def test_ord_is_multiplicative():
    rng = random.Random(12)
    for _ in range(250):
        x = rand_scalar(rng)
        y = rand_scalar(rng)
        assert ord_of(x * y) == ord_of(x) + ord_of(y)


def test_residue_is_ring_morphism_on_integers():
    rng = random.Random(13)
    for _ in range(250):
        x = rand_integral_scalar(rng)
        y = rand_integral_scalar(rng)
        assert residue(x + y) == residue(x) + residue(y)
        assert residue(x * y) == residue(x) * residue(y)


def test_base_change_commutes_with_arithmetic():
    rng = random.Random(14)
    for _ in range(200):
        x = rand_scalar(rng)
        y = rand_scalar(rng)
        assert base_change(x + y, 2) == base_change(x, 2) + base_change(y, 2)
        assert base_change(x * y, 3) == base_change(x, 3) * base_change(y, 3)
        assert ord_of(base_change(x, 2)) == ord_of(x)


def test_equality_is_level_independent():
    x = parse_scalar("1 + t")
    assert base_change(x, 4) == x
    assert hash(base_change(x, 4)) == hash(x)


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
