import random
import sys
from collections import Counter
from fractions import Fraction

import pytest

from nadyn import (
    DegenerateMap,
    KScalar,
    LevelCapExceeded,
    QPoly,
    TypeIIPoint,
    parse_map,
    parse_point,
)
from nadyn.redux import make_map
from nadyn.scalars import level_cap

CORPUS_SOURCES = ["z^2", "t*z^2", "(t*z^2+1)/t", "(z^2-t)/z", "z^2+t"]
POINT_SOURCES = ["gauss", "a=0;s=1/2", "a=0;s=-1/2", "a=0;s=1", "a=0;s=-1", "a=1;s=1"]


@pytest.fixture(scope="session")
def corpus():
    return {src: parse_map(src) for src in CORPUS_SOURCES}


@pytest.fixture(scope="session")
def corpus_points():
    return {src: parse_point(src) for src in POINT_SOURCES}


def rand_scalar(rng: random.Random, min_exp=-2, max_exp=3, allow_zero=False) -> KScalar:
    """Random Laurent polynomial in t with small integer coefficients."""
    while True:
        terms = {}
        for _ in range(rng.randint(0, 3)):
            e = rng.randint(min_exp, max_exp)
            c = rng.randint(-3, 3)
            if c:
                terms[e] = terms.get(e, 0) + c
        if terms:
            low = min(terms)
            shift = -low if low < 0 else 0
            poly = QPoly((e + shift, c) for e, c in terms.items())
            den = QPoly.monomial(shift) if shift else QPoly.one()
            value = KScalar(poly, den)
        else:
            value = KScalar.zero()
        if allow_zero or not value.is_zero:
            return value


def rand_integral_scalar(rng: random.Random) -> KScalar:
    return rand_scalar(rng, min_exp=0, max_exp=3)


def base_change(x: KScalar, m: int) -> KScalar:
    """Replace the uniformizer u by a root of order m: level N -> N*m, held
    to the user-facing level cap."""
    if m < 1:
        raise ValueError("base change order must be a positive integer")
    target = x.level * m
    cap = level_cap()
    if target > cap:
        raise LevelCapExceeded(f"level {target} exceeds cap {cap}")
    return x.with_level(target)


def minimal_lift(phi) -> tuple[tuple[KScalar, ...], tuple[KScalar, ...]]:
    """Scale the coefficient pair so all entries are integral, one a unit:
    every entry of the stored lift over the pivot, the first nonzero entry of
    den + num, times the power of u that makes the pivot a unit."""
    lift = phi.lift
    pivot = next(p for p in lift.den + lift.num if p)
    scale = QPoly.monomial(pivot.val)
    return tuple(tuple(KScalar(p * scale, pivot, lift.level) for p in part) for part in (lift.num, lift.den))


def rand_map(rng: random.Random, degree=2):
    for _ in range(100):
        num = [rand_scalar(rng, -1, 2, allow_zero=True) for _ in range(degree + 1)]
        den = [rand_scalar(rng, -1, 2, allow_zero=True) for _ in range(degree + 1)]
        try:
            return make_map(num, den)
        except (DegenerateMap, ValueError):
            continue
    raise AssertionError("could not build a random map")


def rand_point(rng: random.Random) -> TypeIIPoint:
    centers = [
        KScalar.zero(),
        KScalar.one(),
        KScalar.t_power(1),
        KScalar.one() + KScalar.t_power(1),
        KScalar.from_rational(2),
        KScalar.t_power(-1),
    ]
    s = Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))
    return TypeIIPoint(rng.choice(centers), s)


def rand_laurent_point(rng: random.Random) -> TypeIIPoint:
    """Random type II point: a Laurent-polynomial centre at level 1-3, of any
    valuation, and an exponent with denominator up to 6."""
    level = rng.randint(1, 3)
    terms = {}
    for _ in range(rng.randint(0, 3)):
        e = rng.randint(-2 * level, 3 * level)
        terms[e] = terms.get(e, 0) + Fraction(rng.randint(-3, 3), rng.choice([1, 1, 2, 3]))
    shift = max(0, -min(terms, default=0))
    center = KScalar(QPoly((e + shift, c) for e, c in terms.items()), QPoly.monomial(shift), level)
    return TypeIIPoint(center, Fraction(rng.randint(-12, 12), rng.randint(1, 6)))


def mobius(a: KScalar, b: KScalar, c: KScalar, d: KScalar):
    """The degree-1 map w -> (a*w + b)/(c*w + d), built from scalars by
    clearing their denominators (the make_map route)."""
    return make_map((b, a), (d, c))


def chart_by_scalars(point: TypeIIPoint):
    """The canonical chart w -> t^s*w + a of the point, built from scalars."""
    return mobius(KScalar.t_power(point.exponent), point.center, KScalar.zero(), KScalar.one())


def rand_unit_mobius(rng: random.Random):
    while True:
        entries = [rand_integral_scalar(rng) if rng.random() < 0.8 else KScalar.zero() for _ in range(4)]
        a, b, c, d = entries
        det = a * d - b * c
        if not det.is_zero and det.ord() == 0:
            return mobius(a, b, c, d)


def measure_total(measure) -> Fraction:
    """Total mass of a DirectionMeasure: its atoms plus the point mass."""
    return sum((m for _, m in measure.atoms), measure.point_mass)


def count_calls(monkeypatch, name: str, *modules) -> Counter:
    """Wrap the function each module binds to `name`; count calls per module."""
    counts: Counter = Counter()
    for module in modules:

        def counted(*args, _fn=getattr(module, name), _key=module.__name__, **kwargs):
            counts[_key] += 1
            return _fn(*args, **kwargs)

        monkeypatch.setattr(module, name, counted)
    return counts


def swept_caches() -> set:
    """The program's caches: the values with a cache_clear in nadyn.* modules,
    collected as bench/run.py collects them."""
    return {
        value
        for name, module in sys.modules.items()
        if name.startswith("nadyn.")
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    }


def clear_caches() -> None:
    """Clear every program cache, as the benchmark does before each query."""
    for cache in swept_caches():
        cache.cache_clear()


def descent_points(locus) -> set:
    """The points a descent reduces at: the start of every step and the minimizer."""
    return {locus.minimizer, *(point for point, _, _ in locus.trail)}
