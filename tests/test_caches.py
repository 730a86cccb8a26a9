"""The program's caches: which exist, and that a cached answer is a fresh one.

Reductions at a point are cached per (lift, point) and descents per
(lift, start), beside the Taylor-shifted rays.  ordRes at the Gauss point
is not cached: only ordRes itself takes that determinant, once per call.
The benchmark and tests/test_workload_digests.py clear every cache before
each query by collecting the ``cache_clear`` callables of ``nadyn.*``
modules, so a cache that escapes that sweep would make a query depend on
the ones before it.
"""

import random

import pytest
from hypothesis import given, settings, strategies as st

import nadyn.cli  # noqa: F401  (loads every module the benchmark loads)
from nadyn import DegreeTooLow, GAUSS, intrinsic_data, min_locus, parse_map, parse_point, reduction_at
from nadyn.crucial import _descent
from nadyn.redux import _reduction, chart_conjugate_lift, ray, reduce_lift
from conftest import clear_caches, rand_laurent_point, rand_map, swept_caches


def test_the_sweep_finds_exactly_the_known_caches():
    assert swept_caches() == {ray, _reduction, _descent}


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_cached_reduction_equals_a_fresh_one(seed):
    rng = random.Random(seed)
    phi = rand_map(rng, degree=rng.choice([2, 3]))
    point = rand_laurent_point(rng)
    info = intrinsic_data(phi, point)
    assert info == reduce_lift(chart_conjugate_lift(phi.lift, point))
    assert intrinsic_data(phi, point) is info
    assert reduction_at(phi, point) is info


def test_degree_one_is_refused_before_the_lookup():
    _reduction.cache_clear()
    with pytest.raises(DegreeTooLow):
        intrinsic_data(parse_map("z/t"), GAUSS)
    assert _reduction.cache_info().misses == 0
    reduction_at(parse_map("z/t"), GAUSS)
    assert _reduction.cache_info().misses == 1


@settings(max_examples=20, deadline=None)
@given(seed=st.integers(0, 2**32 - 1))
def test_min_locus_is_the_same_after_cache_clear(seed):
    rng = random.Random(seed)
    phi = rand_map(rng, degree=rng.choice([2, 3]))
    start = rand_laurent_point(rng)
    first = min_locus(phi, start)
    assert min_locus(phi, start) is first
    clear_caches()
    again = min_locus(phi, start)
    assert again == first and again is not first


def test_a_cached_ray_does_not_depend_on_how_an_equal_point_was_written():
    lift = parse_map("(t*z^2+1)/t").lift
    plain, finer = parse_point("a=t;s=2"), parse_point("a=t^(1/2)*t^(1/2);s=2")
    clear_caches()
    fresh, fresh_ray = chart_conjugate_lift(lift, plain), ray(lift, plain.center)
    assert fresh.level == 1
    clear_caches()
    chart_conjugate_lift(lift, finer)
    assert chart_conjugate_lift(lift, plain) == fresh
    assert ray(lift, plain.center) == fresh_ray
