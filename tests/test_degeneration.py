import cmath
import hashlib
import math
import random

import numpy as np
import pytest

from nadyn import (
    CoefficientPole,
    ComplexMap,
    GAUSS,
    IllConditioned,
    INF_C,
    NadynError,
    RootFindingFailed,
    SampleCapExceeded,
    TotallyInvariantPoint,
    chordal,
    degeneration_report,
    min_locus,
    parse_map,
    predicted_limit,
    pullback_sample,
    specialize,
)
import nadyn.crucial
import nadyn.degeneration
import nadyn.equidist
import nadyn.redux
from nadyn.degeneration import (
    ABERTH_TOL,
    SAMPLE_ANCHOR,
    SAMPLE_CAP,
    _above_bound,
    _ball_masks,
    _preimages,
    _pullback,
    _sample_with_reanchor,
    aberth_roots,
    auto_hypothesis,
)
from conftest import clear_caches, count_calls, descent_points, rand_map, reference_preimages

Z2 = parse_map("z^2")
TZ2 = parse_map("t*z^2")
TZ21T = parse_map("(t*z^2+1)/t")


def _poly_from_roots(roots):
    coeffs = [1 + 0j]
    for r in roots:
        coeffs = [0j] + coeffs
        for i in range(len(coeffs) - 1):
            coeffs[i] -= r * coeffs[i + 1]
    return coeffs


def test_specialize_examples():
    g = specialize(TZ2, 0.001)
    assert g.num == (0, 0, 0.001) and g.den == (1, 0, 0)
    g = specialize(parse_map("(z^2-t)/z"), 0.01)
    assert g.num == (-0.01, 0, 1) and g.den == (0, 1, 0)
    with pytest.raises(CoefficientPole):
        specialize(parse_map("(1/(1-t))*z^2"), 1.0)
    with pytest.raises(CoefficientPole):
        specialize(parse_map("(1/(1-2*t))*z^2"), 0.5)


_HALF_LEVEL = "(t^(1/2)*z^2 + (1+t)*z + t^(3/2))/(t^(1/2)*z + t)"


@pytest.mark.parametrize(
    "other",
    [
        "(z^2 + (1+t)/t^(1/2)*z + t)/(z + t^(1/2))",
        f"({_HALF_LEVEL})*t^(1/3)/t^(1/3)",
        f"({_HALF_LEVEL})*(1+t^(1/2))/(1+t^(1/2))",
    ],
)
@pytest.mark.parametrize("t0", [1e-3, 0.3 + 0.1j])
def test_specialize_is_independent_of_the_representative(other, t0):
    # the same projective map written so that t is stored as u^2, or at level 6
    assert specialize(parse_map(other), t0) == specialize(parse_map(_HALF_LEVEL), t0)


def test_specialize_checks_poles_at_the_uniformizer():
    # at t = 1/16 the uniformizer t^(1/2) is 1/4: 1/16 is no pole, 1/4 is one
    g = specialize(parse_map("z^2 + 1/(t^(1/2) - 1/16)"), 0.0625)
    assert g.num == (16 / 3, 0, 1) and g.den == (1, 0, 0)
    with pytest.raises(CoefficientPole):
        specialize(parse_map("z^2 + 1/(t^(1/2) - 1/4)"), 0.0625)
    # one denominator polynomial, u - 1/4, at levels 2 and 1: at t = 1/4 it
    # vanishes only as t - 1/4, so the pole check is per level
    with pytest.raises(CoefficientPole, match=r"^coefficient 1/\(t - 1/4\) has a pole"):
        specialize(parse_map("z^2 + z/(t - 1/4) + 1/(t^(1/2) - 1/4)"), 0.25)


def test_specialize_ill_conditioned():
    # the leading numerator coefficient vanishes exactly at t = 1/1000
    phi = parse_map("((1 - 1000*t)*z^2 + z)/1")
    with pytest.raises(IllConditioned):
        specialize(phi, 0.001)


def test_specialised_maps_keep_the_pivot_coefficient_one():
    # the conditioning test's scale max|c| is at least 1 because the pivot of
    # the normalised coefficients specialises to exactly 1
    rng = random.Random(5)
    for _ in range(60):
        gmap = specialize(rand_map(rng, rng.choice([2, 3])), 1e-3)
        assert any(c == 1 + 0j for c in gmap.num + gmap.den)


def test_aberth_finds_roots_with_residual_bound():
    rng = random.Random(81)
    for _ in range(50):
        roots = [complex(rng.uniform(-2, 2), rng.uniform(-2, 2)) for _ in range(rng.randint(1, 5))]
        found = aberth_roots(_poly_from_roots(roots))
        assert len(found) == len(roots)
        for r in roots:
            assert min(abs(r - f) for f in found) < 1e-6


def test_pullback_roots_of_unity():
    g = specialize(Z2, 0.3)
    points = pullback_sample(g, 1 + 0j, 10)
    assert len(points) == 1024
    assert max(abs(abs(p) - 1) for p in points) < 1e-9


def test_pullback_small_leading_coefficient_growth():
    g = ComplexMap((0, 0, 0.001), (1, 0, 0))
    points = pullback_sample(g, 1 + 0j, 12)
    escaped = sum(1 for p in points if abs(p) > 10)
    assert escaped / len(points) >= 0.99


def test_pullback_multiplicity_conservation():
    rng = random.Random(82)
    for _ in range(10):
        num = tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(3))
        den = (1 + 0j, 0j, 0j)
        g = ComplexMap(num, den)
        n = rng.randint(1, 6)
        assert len(pullback_sample(g, 1 + 1j / 3, n)) == 2**n


def test_pullback_preimages_of_infinity_pad_in():
    # (z^2+z)/(z^2+1) sends infinity to 1 simply: one preimage of the start
    # value 1 is infinity, the other is the root of z - 1
    g = ComplexMap((0j, 1 + 0j, 1 + 0j), (1 + 0j, 0j, 1 + 0j))
    pts = pullback_sample(g, 1 + 0j, 1)
    assert sum(1 for p in pts if cmath.isinf(p)) == 1
    assert any(abs(p - 1) < 1e-9 for p in pts)


def test_atom_estimate_examples():
    near_inf = np.array([complex(50, k) for k in range(100)])
    (mass,) = _ball_masks(near_inf, [INF_C], 0.1).mean(axis=1)
    assert mass == 1.0

    circle = np.array([cmath.exp(2j * cmath.pi * k / 1024) for k in range(1024)])
    (mass,) = _ball_masks(circle, [0j], 0.1).mean(axis=1)
    assert mass == 0.0

    sym = np.array([1 + 1j, -1 - 1j, 1.1 + 1j, -1.1 - 1j])
    up, down = _ball_masks(sym, [1 + 1j, -1 - 1j], 0.1).mean(axis=1)
    assert up == down


def test_chordal_metric():
    assert chordal(0j, INF_C) == 1.0
    assert chordal(INF_C, INF_C) == 0.0
    assert abs(chordal(0j, 1 + 0j) - 1 / cmath.sqrt(2).real) < 1e-15
    # the 0.1-ball around infinity is |z| > sqrt(99) ~ 9.95
    assert chordal(complex(9.9, 0), INF_C) > 0.1 > chordal(complex(10, 0), INF_C)
    # moduli past 1.34e154 cannot be squared; the inversion z -> 1/z is an
    # isometry, and a point beyond 1e154 is at distance 1 from one within
    # 1e-154 of 0 to the last bit
    huge = complex(1.5e308, 1.5e308)
    assert chordal(1e200 + 0j, 0j) == chordal(0j, 1e200 + 0j) == 1.0
    assert chordal(1e200 + 0j, INF_C) == chordal(INF_C, 1e200 + 0j) == 1e-200
    assert chordal(1e200 + 0j, 2e200 + 0j) == chordal(1e-200 + 0j, 5e-201 + 0j)
    assert chordal(1e200 + 0j, -1e-200 + 0j) == chordal(huge, 5e-324 + 0j) == 1.0
    assert chordal(huge, huge) == 0.0 and 0 <= chordal(huge, -huge) < 1e-300
    assert chordal(1e160 + 0j, 3 + 4j) == pytest.approx(1 / math.sqrt(26), rel=1e-15)


def test_chordal_is_subnormal_not_zero_near_the_float_maximum():
    # 1 / p is 0 in CPython when both parts of p are near the float maximum;
    # the distances are subnormal, here against a 50-digit mpmath reference
    p = complex(1.7e308, 1.7e308)
    to_infinity = 4.1594516540385149990816419141920157240910118405479e-309
    to_antipode = 8.3189033080770299981632838283840314481820236810958e-309
    assert chordal(p, INF_C) == chordal(INF_C, p) == pytest.approx(to_infinity, rel=1e-13, abs=0)
    assert chordal(p, -p) == chordal(-p, p) == pytest.approx(to_antipode, rel=1e-13, abs=0)


def test_ball_masks_equal_chordal_for_targets_too_large_to_square():
    points = np.array([INF_C, 0j, 1e3 + 0j, 1e200 + 0j, 1e201 + 0j, -1e200 + 0j, complex(math.nan, 0.0)])
    for tg in (1e200 + 0j, -1e300j):
        for eps in (0.1, 1e-200, 1e-201):
            masks = _ball_masks(points, [tg, INF_C], eps)
            assert masks.tolist() == [[chordal(p, t) <= eps for p in points.tolist()] for t in (tg, INF_C)]


def test_degeneration_report_rejects_good_reduction():
    with pytest.raises(TotallyInvariantPoint):
        degeneration_report(Z2, [1e-3], 4)


@pytest.mark.parametrize(
    "t_values, n, eps, message",
    [
        ([1e-3], 0, 0.1, "at least one pullback level is needed"),
        ([1e-3], 3, 0.0, "eps must be positive"),
        ([], 3, 0.1, "at least one parameter value is needed"),
    ],
    ids=["n=0", "eps=0", "no t"],
)
def test_degeneration_report_validates_its_arguments(t_values, n, eps, message):
    with pytest.raises(ValueError, match=message):
        degeneration_report(TZ21T, t_values, n, eps=eps)


def test_report_counts_a_point_in_two_balls_toward_both_atoms():
    # the auto hypothesis has finite atoms at -2 and -7/4, closer than 2 * eps
    phi = parse_map("((4*t + 6*t^2)*z^2 + 10*t*z + 4*t)/(2*t*z^2 + 10*t*z + (12*t + 4*t^2))")
    t0, n, eps = 1e-2, 4, 0.1
    rows = degeneration_report(phi, [t0], n, eps=eps).sampled[0]["rows"]
    targets = [target for row in rows for target in row["targets"]]
    assert targets == [-2, -1.75] and chordal(*targets) < 2 * eps
    sample = pullback_sample(specialize(phi, t0), SAMPLE_ANCHOR, n)
    masks = _ball_masks(sample, targets, eps)
    assert (masks[0] & masks[1]).any()
    for row in rows:
        assert row["sampled"] == _ball_masks(sample, row["targets"], eps).mean()


def test_degeneration_report_tz2():
    report = degeneration_report(TZ2, [1e-3], 10)
    (row,) = report.sampled[0]["rows"]
    assert str(row["cls"]) == "InfinityClass()"
    assert row["sampled"] >= 0.99
    assert report.max_discrepancy <= 0.01


def test_scale_robustness_on_corpus():
    # halving eps or adding a level moves corpus masses by less than 0.05
    g = specialize(TZ21T, 1e-4)
    base = pullback_sample(g, 1 + 1j / 3, 8)
    finer = pullback_sample(g, 1 + 1j / 3, 9)
    for eps in (0.1, 0.05):
        m_base = sum(1 for p in base if chordal(p, INF_C) <= eps) / len(base)
        m_fine = sum(1 for p in finer if chordal(p, INF_C) <= eps) / len(finer)
        assert abs(m_base - m_fine) < 0.05


def test_symmetric_masses():
    # odd family: preimages of a symmetric start set under z^2 - c come in pairs
    g = ComplexMap((-1 + 0j, 0j, 1 + 0j), (1 + 0j, 0j, 0j))
    pts = pullback_sample(g, 2 + 0j, 8)
    plus = sum(1 for p in pts if not cmath.isinf(p) and p.real > 0) / len(pts)
    minus = sum(1 for p in pts if not cmath.isinf(p) and p.real < 0) / len(pts)
    assert abs(plus - minus) < 0.02


def test_degeneration_report_reduces_each_point_once(monkeypatch):
    # TZ2 has a Dirac prediction; TZ21T falls back to the level-2 depth
    # measure, whose reduction at the Gauss point is a cache hit and which
    # descends no second time
    loci = count_calls(monkeypatch, "min_locus", nadyn.equidist)
    for phi, expected_loci in ((TZ2, 1), (TZ21T, 1)):
        clear_caches()
        loci.clear()
        degeneration_report(phi, [1e-3], 3)
        reductions = nadyn.redux._reduction.cache_info().misses
        descents = nadyn.crucial._descent.cache_info().misses
        assert reductions == len({GAUSS} | descent_points(min_locus(phi)))
        assert descents == 1
        assert loci == {"nadyn.equidist": expected_loci}
    assert degeneration_report(TZ21T, [1e-3], 1).predicted == auto_hypothesis(TZ21T).atoms


def test_degeneration_report_descends_before_sampling(monkeypatch):
    samples = count_calls(monkeypatch, "_pullback", nadyn.degeneration)
    degeneration_report(TZ21T, [1e-3, 1e-4], 3)
    assert samples == {"nadyn.degeneration": 1}  # one batch for both t-values
    samples.clear()
    clear_caches()

    class LocusFailed(NadynError):
        pass

    def failing_locus(phi):
        raise LocusFailed("descending direction is irrational")

    monkeypatch.setattr(nadyn.equidist, "min_locus", failing_locus)
    with pytest.raises(TotallyInvariantPoint):
        degeneration_report(Z2, [1e-3], 3)
    with pytest.raises(LocusFailed):
        degeneration_report(TZ21T, [1e-3], 3)
    assert not samples


def test_cross_validation_with_prediction():
    predicted = predicted_limit(TZ2, GAUSS)
    report = degeneration_report(TZ2, [1e-2, 1e-3], 10, hypothesis=predicted)
    assert report.max_discrepancy < 0.05


def _scalar_aberth(coeffs, tol=1e-12, max_iter=500):
    # the Aberth iteration in CPython scalar arithmetic, one root at a time
    e = len(coeffs) - 1
    monic = [c / coeffs[-1] for c in coeffs]
    radius = 1.0 + max(abs(c) for c in monic[:-1])
    roots = [radius * cmath.exp(2j * math.pi * (k / e) + 0.4j) for k in range(e)]
    deriv = [monic[i] * i for i in range(1, e + 1)]

    def horner(cs, z):
        acc = 0j
        for c in reversed(cs):
            acc = acc * z + c
        return acc

    for _ in range(max_iter):
        converged = True
        for j in range(e):
            z = roots[j]
            pz = horner(monic, z)
            if abs(pz) > tol * sum(abs(c) * max(1.0, abs(z)) ** i for i, c in enumerate(monic)):
                converged = False
            dz = horner(deriv, z)
            if dz == 0:
                roots[j] = z * (1 + 1e-8) + 1e-8
                converged = False
                continue
            newton = pz / dz
            rep = 0j
            for k in range(e):
                if k != j:
                    diff = z - roots[k]
                    rep += 1.0 / (diff if diff != 0 else 1e-14 * (1 + abs(z)))
            denom = 1.0 - newton * rep
            roots[j] = z - newton / (denom if denom != 0 else 1e-14)
        if converged:
            return roots
    raise AssertionError("scalar Aberth did not converge")


def test_batched_aberth_is_bitwise_the_scalar_iteration():
    # the batch replays CPython's complex arithmetic, so factor-class targets
    # and degree >= 3 preimages do not move in the last bit
    rng = random.Random(83)
    for _ in range(60):
        e = rng.randint(2, 5)
        coeffs = [
            complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10 ** rng.uniform(-4, 4) for _ in range(e + 1)
        ]
        assert aberth_roots(coeffs) == _scalar_aberth(coeffs)
    for roots in ([1j, 1j, 2], [0.5, 0.5, -1, 3j], [0, 0, 0]):
        coeffs = _poly_from_roots(roots)
        assert aberth_roots(coeffs) == _scalar_aberth(coeffs)


def _oracle_pullback(gmap, z0, n):
    # one aberth_roots call per preimage, with the sampler's truncation rule
    d = gmap.degree
    points = [complex(z0)]
    for _ in range(n):
        nxt = []
        for w in points:
            if cmath.isinf(w):
                coeffs = [complex(a) for a in gmap.den]
            else:
                coeffs = [b - w * a for b, a in zip(gmap.num, gmap.den)]
            top = max(abs(c) for c in coeffs)
            e = d
            while e > 0 and abs(coeffs[e]) <= 1e-13 * top:
                e -= 1
            nxt.extend(aberth_roots(coeffs[: e + 1]) + [INF_C] * (d - e))
        points = nxt
    return points


def _assert_same_multiset(batch, oracle, tol=1e-9):
    batch = [complex(p) for p in batch]
    assert len(batch) == len(oracle)
    assert sum(map(cmath.isinf, batch)) == sum(map(cmath.isinf, oracle))
    left = np.array([p for p in batch if not cmath.isinf(p)])
    for p in oracle:
        if cmath.isinf(p):
            continue
        gaps = np.abs(left - p)
        k = int(np.argmin(gaps))
        assert gaps[k] <= tol * max(1.0, abs(p)), (p, left[k])
        left = np.delete(left, k)


def _random_coeffs(rng, count):
    return tuple(complex(rng.uniform(-1, 1), rng.uniform(-1, 1)) for _ in range(count))


def test_batched_pullback_matches_per_point_oracle():
    rng = random.Random(84)
    cases = []
    for d in (2, 3, 4):
        for _ in range(3):
            cases.append(ComplexMap(_random_coeffs(rng, d + 1), _random_coeffs(rng, d + 1)))
            # a denominator of lower degree: a pole at infinity
            cases.append(ComplexMap(_random_coeffs(rng, d + 1), _random_coeffs(rng, d) + (0j,)))
    for g in cases:
        n = {2: 5, 3: 3, 4: 2}[g.degree]
        _assert_same_multiset(pullback_sample(g, 1 + 1j / 3, n), _oracle_pullback(g, 1 + 1j / 3, n))


def test_batched_pullback_truncation_and_double_root():
    # the start value 2 is the image of infinity, so the first row loses its
    # leading coefficient exactly and one preimage is padded in at infinity
    for d in (2, 3, 4):
        g = ComplexMap((0.5 + 0j,) * d + (2 + 0j,), (1j,) + (0j,) * (d - 1) + (1 + 0j,))
        assert sum(1 for p in pullback_sample(g, 2 + 0j, 1) if cmath.isinf(p)) == 1
        for n in (1, 3):
            _assert_same_multiset(pullback_sample(g, 2 + 0j, n), _oracle_pullback(g, 2 + 0j, n))
        # a polynomial map: every preimage row of infinity is truncated to degree 0
        poly = ComplexMap(g.num, (1 + 0j,) + (0j,) * d)
        assert all(cmath.isinf(p) for p in pullback_sample(poly, INF_C, 2))
        _assert_same_multiset(pullback_sample(poly, INF_C, 2), _oracle_pullback(poly, INF_C, 2))
    # z^3 - 2 z^2 + z = z (z - 1)^2: the preimages of 0 include a double root
    g = ComplexMap((0j, 1 + 0j, -2 + 0j, 1 + 0j), (1 + 0j, 0j, 0j, 0j))
    pts = pullback_sample(g, 0j, 2)
    assert sum(1 for p in pts if abs(p - 1) < 1e-6) == 2
    _assert_same_multiset(pts, _oracle_pullback(g, 0j, 2))


def _digest_cases():
    rng = random.Random(86)
    for d, n in ((1, 6), (2, 8), (3, 5), (4, 4)):
        yield f"d{d}", ComplexMap(_random_coeffs(rng, d + 1), _random_coeffs(rng, d + 1)), 1 + 1j / 3, n
        # a denominator of lower degree: a pole at infinity
        yield f"d{d} pole", ComplexMap(_random_coeffs(rng, d + 1), _random_coeffs(rng, d) + (0j,)), 1 + 1j / 3, n
    for d in (2, 3, 4):
        g = ComplexMap((0.5 + 0j,) * d + (2 + 0j,), (1j,) + (0j,) * (d - 1) + (1 + 0j,))
        yield f"d{d} from 2", g, 2 + 0j, 3
        yield f"d{d} polynomial", ComplexMap(g.num, (1 + 0j,) + (0j,) * d), INF_C, 2
    # infinity is fixed and simple: from level 2 on, the row of infinity is
    # truncated and every other row of the level keeps its degree
    for d in (2, 3):
        g = ComplexMap(_random_coeffs(rng, d + 1), _random_coeffs(rng, d) + (0j,))
        yield f"d{d} mixed", g, INF_C, 4
    yield "double root", ComplexMap((0j, 1 + 0j, -2 + 0j, 1 + 0j), (1 + 0j, 0j, 0j, 0j)), 0j, 3
    yield "(t*z^2+1)/t", specialize(TZ21T, 1e-3), SAMPLE_ANCHOR, 12


# SHA-256 prefixes of pullback_sample(...).tobytes(), recorded from the
# sampler that solved every level on gathered (rows, d + 1) arrays
_SAMPLE_DIGESTS = {
    "d1": "c2f47409d216f53e",
    "d1 pole": "0e45233b44bd1870",
    "d2": "d4015d2975f8e3fa",
    "d2 pole": "759d5ea023f246aa",
    "d3": "1ec071c09cc92434",
    "d3 pole": "1edef4fdbbd4a647",
    "d4": "ea3af8aeee67711c",
    "d4 pole": "744900ac9482119a",
    "d2 from 2": "da03e515746f1805",
    "d2 polynomial": "a94c2110d5ea2cb5",
    "d3 from 2": "ac029da0858a404c",
    "d3 polynomial": "c78586a0e0077286",
    "d4 from 2": "2cd79d6bc6a2c092",
    "d4 polynomial": "4212d7ba31026aed",
    "d2 mixed": "a2ae9c8495b5bd69",
    "d3 mixed": "1d33ef060fc957c9",
    "double root": "b61c6702065f7838",
    "(t*z^2+1)/t": "644dfb25b9f0db91",
}


def test_pullback_samples_are_bit_stable():
    # the oracle comparisons allow 1e-9, so they miss a last-bit or an
    # ordering change; these digests see both
    digests = {
        name: hashlib.sha256(pullback_sample(g, z0, n).tobytes()).hexdigest()[:16]
        for name, g, z0, n in _digest_cases()
    }
    assert digests == _SAMPLE_DIGESTS


def _assert_level_matches_reference(num, den, ws, level=7):
    # bit for bit, or the same RootFindingFailed (level, target)
    with np.errstate(all="ignore"):
        try:
            expected = reference_preimages(num, den, ws, level)
        except RootFindingFailed as exc:
            with pytest.raises(RootFindingFailed) as err:
                _preimages(num, den, ws, level)
            assert err.value.level == exc.level
            assert np.complex128(err.value.target).tobytes() == np.complex128(exc.target).tobytes()
            return
        got = _preimages(num, den, ws, level)
    assert got.tobytes() == expected.tobytes()


def _random_level(rng, d, maps, targets, scale=1.0):
    def gauss(*shape):
        return (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) * 10.0 ** rng.uniform(-2, 2, shape)

    return gauss(d + 1, maps) * scale, gauss(d + 1, maps) * scale, gauss(maps, targets)


def _near(x, ulps):
    for _ in range(abs(ulps)):
        x = math.nextafter(x, math.inf if ulps > 0 else 0.0)
    return x


def test_preimages_match_the_hypot_reference_on_random_levels():
    # every batch length from 1 to 40, and 4096, for the tails of numpy's
    # vector loops; Aberth iteration (d >= 3) runs real ufuncs only
    rng = np.random.default_rng(87)
    for d in (1, 2, 3, 4):
        for size in list(range(1, 41)) + [4096] if d <= 2 else (1, 2, 5, 8, 17, 33):
            maps = 2 if size % 2 == 0 and rng.random() < 0.5 else 1
            _assert_level_matches_reference(*_random_level(rng, d, maps, size // maps))


def test_preimages_match_the_hypot_reference_at_the_cutoffs():
    # den = z^d and num_d = 0, so row w is num_0 + ... + num_(d-1) z^(d-1) - w z^d
    # with |c_0| = top and |c_d| = |w| exactly: leading ratios of 1e-13 and
    # 1e-12 (where the squared test hands over to hypot) plus or minus a few ulps
    rng = np.random.default_rng(88)
    for d in (1, 2, 3, 4):
        for top in (1.0, 3.0e7, 2.0**-300) if d <= 2 else (1.0,):
            num = np.zeros((d + 1, 1), dtype=complex)
            num[0] = top
            num[1:d] = rng.uniform(-0.5, 0.5, (d - 1, 1)) * top
            den = np.zeros((d + 1, 1), dtype=complex)
            den[d] = 1.0
            edges = [_near(ratio * top, k) for ratio in (1e-13, 1e-12) for k in range(-3, 4)]
            ws = np.array([[w * unit for w in edges for unit in (1, -1, 1j)]])
            _assert_level_matches_reference(num, den, ws)
            # one row on an edge among regular rows
            for w in edges if d <= 2 else ():
                mixed = np.full((1, 9), 0.5 * top + 0j)
                mixed[0, rng.integers(9)] = w
                _assert_level_matches_reference(num, den, mixed)


def test_preimages_match_the_hypot_reference_past_the_float_range():
    rng = np.random.default_rng(89)
    huge = 2.0**512  # the square of anything larger overflows
    scales = [_near(huge, k) for k in (-2, 0, 2)] + [2.0**511, 1e154, 1e-154, 1e-160, 1e-250, 1e-300, 5e-324]
    for d in (1, 2, 3):
        for scale in scales:
            for size in (1, 7, 33) if d <= 2 else (7,):
                _assert_level_matches_reference(*_random_level(rng, d, 1, size, scale))
        # targets near 2^512 with coefficients near 1
        num, den, ws = _random_level(rng, d, 1, 16)
        _assert_level_matches_reference(num, den, ws / np.abs(ws) * huge)


def test_preimages_match_the_hypot_reference_on_signed_zeros():
    # small exact parts give zero and signed-zero parts all through the closed
    # form (p * p / 4 is no product by 0.25 there), and rows c_0 = c_1 = 0
    # whose two quadratic roots are 0
    rng = np.random.default_rng(93)
    parts = np.array([0.0, -0.0, 1.0, -1.0, 0.5, -2.0])

    def exact(*shape):
        values = np.empty(shape, dtype=complex)
        values.real, values.imag = rng.choice(parts, shape), rng.choice(parts, shape)
        return values

    for d in (1, 2, 3):
        for _ in range(40 if d <= 2 else 8):
            _assert_level_matches_reference(exact(d + 1, 2), exact(d + 1, 2), exact(2, 8))
    # at w = 2 the row is z^2: num and den agree on the two low terms
    num, den = np.array([[2.0], [2.0], [1.0]], dtype=complex), np.array([[1.0], [1.0], [0.0]], dtype=complex)
    _assert_level_matches_reference(num, den, np.array([[2.0, -0.0, 2.0 + 0j, 1j]]))
    with np.errstate(all="ignore"):
        assert _preimages(num, den, np.array([[2.0 + 0j]]), 1).tolist() == [0j, 0j]

def test_preimages_match_the_hypot_reference_on_inf_and_nan():
    rng = np.random.default_rng(90)
    # numpy's add and multiply can give a NaN of either sign when both
    # operands are NaN, depending on stride and position, so NaNs of both
    # signs go in, several to a batch
    specials = [math.inf, -math.inf, math.nan, -math.nan, complex(math.inf, math.nan), complex(1.0, -math.inf)]
    specials += [complex(-math.nan, math.nan), complex(math.nan, -math.inf)]
    for d in (1, 2, 3):
        for special in specials:
            for where in ("num", "den", "ws"):
                num, den, ws = _random_level(rng, d, 2, 5)
                target = {"num": num, "den": den, "ws": ws}[where]
                target.flat[rng.integers(target.size, size=3)] = special
                _assert_level_matches_reference(num, den, ws)
        # targets at infinity: their rows are the denominator
        num, den, ws = _random_level(rng, d, 2, 6)
        ws[0, 1], ws[1, 4] = INF_C, complex(math.nan, math.inf)
        _assert_level_matches_reference(num, den, ws)
        den[d] = 0.0  # ... which then loses its leading coefficient
        _assert_level_matches_reference(num, den, ws)


def test_regular_levels_and_ball_masks_never_call_hypot(monkeypatch):
    # libm hypot is left to levels where a leading coefficient is near the
    # cutoff or a square leaves the float range; none of these levels is one
    calls = []
    hypot = np.hypot
    monkeypatch.setattr(np, "hypot", lambda *args, **kwargs: calls.append(args) or hypot(*args, **kwargs))
    points = pullback_sample(specialize(TZ21T, 1e-3), SAMPLE_ANCHOR, 12)
    _ball_masks(points, [INF_C, 0j, -2 + 0j], 0.1)
    assert len(points) == 2**12 and not calls


def test_pullback_all_zero_row_fails_with_level_and_target():
    # num = 2 den, so the preimage row of w = 2 vanishes identically
    g = ComplexMap((2 + 0j, 0j, 2 + 0j), (1 + 0j, 0j, 1 + 0j))
    with pytest.raises(RootFindingFailed) as err:
        pullback_sample(g, 2 + 0j, 1)
    assert (err.value.level, err.value.target) == (1, 2 + 0j)
    # in a batch the rows of 1 and 3 keep their degree while those of 2
    # have none: the error names the level and the first failing target
    num, den = np.array([g.num]).T, np.array([g.den]).T
    with pytest.raises(RootFindingFailed) as err:
        _preimages(num, den, np.array([[1 + 0j, 2 + 0j, 3 + 0j, 2 + 0j]]), 3)
    assert (err.value.level, err.value.target) == (3, 2 + 0j)


def test_straight_path_failure_names_the_level_and_the_first_failing_target(monkeypatch):
    # every row of these cubics keeps degree 3, so Aberth failures are
    # raised from the straight path rather than the effective-degree gather
    monkeypatch.setattr(nadyn.degeneration, "ABERTH_MAX_ITER", 1)
    with pytest.raises(RootFindingFailed) as err:
        pullback_sample(specialize(parse_map("(z^3+t)/t"), 1e-2), SAMPLE_ANCHOR, 1)
    assert (err.value.level, err.value.target) == (1, SAMPLE_ANCHOR)

    # at five sweeps both maps solve level 1, and of the six level-2 targets
    # only the last of the second map fails when solved alone
    monkeypatch.setattr(nadyn.degeneration, "ABERTH_MAX_ITER", 5)
    gmaps = [specialize(parse_map(src), 0.1) for src in ("(z^3+t)/t", "(z^3+t*z+t)/t")]
    level_one = _pullback(gmaps, SAMPLE_ANCHOR, 1)

    def fails_alone(gmap, w):
        try:
            _pullback([gmap], w, 1)
        except RootFindingFailed:
            return True
        return False

    alone = [[fails_alone(g, w) for w in row] for g, row in zip(gmaps, level_one)]
    assert alone == [[False, False, False], [False, False, True]]
    with pytest.raises(RootFindingFailed) as err:
        _pullback(gmaps, SAMPLE_ANCHOR, 2)
    assert (err.value.level, err.value.target) == (2, level_one[1, 2])


def test_reanchor_samples_at_the_next_anchor_and_raises_the_last_error(monkeypatch):
    gmap = specialize(TZ21T, 1e-3)
    real = nadyn.degeneration._pullback
    anchors = []

    def first_fails(gmaps, anchor, n):
        anchors.append(anchor)
        if len(anchors) == 1:
            raise RootFindingFailed(0, anchor)
        return real(gmaps, anchor, n)

    monkeypatch.setattr(nadyn.degeneration, "_pullback", first_fails)
    sample = _sample_with_reanchor([gmap], 3)
    assert anchors == [SAMPLE_ANCHOR, SAMPLE_ANCHOR * (1 + 1e-3) + 1e-3j]
    assert sample.tolist() == real([gmap], anchors[1], 3).tolist()

    errors = []

    def all_fail(gmaps, anchor, n):
        errors.append(RootFindingFailed(len(errors), anchor))
        raise errors[-1]

    monkeypatch.setattr(nadyn.degeneration, "_pullback", all_fail)
    with pytest.raises(RootFindingFailed) as err:
        _sample_with_reanchor([gmap], 3)
    assert len(errors) == 4 and err.value is errors[-1]


def test_batched_maps_sample_bitwise_as_each_map_alone():
    rng = random.Random(87)
    for d, n in ((1, 6), (2, 6), (3, 4), (4, 3)):
        for size in range(1, 6):
            gmaps = []
            for i in range(size):
                den = _random_coeffs(rng, d + 1)
                # every other map has a pole at infinity: from infinity its rows
                # are gathered by effective degree, those of the others are not
                gmaps.append(ComplexMap(_random_coeffs(rng, d + 1), den[:d] + (0j,) if i % 2 else den))
            for z0 in (1 + 1j / 3, INF_C):
                batch = _pullback(gmaps, z0, n)
                assert batch.shape == (size, d**n)
                for row, g in zip(batch, gmaps):
                    assert row.tobytes() == pullback_sample(g, z0, n).tobytes()


def test_a_failing_map_is_redone_alone_and_moves_no_other_sample():
    rng = random.Random(88)
    others = [ComplexMap(_random_coeffs(rng, 3), _random_coeffs(rng, 3)) for _ in range(2)]
    # num = SAMPLE_ANCHOR den, so the first preimage row of the anchor vanishes identically
    bad = ComplexMap((SAMPLE_ANCHOR, 0j, SAMPLE_ANCHOR), (1 + 0j, 0j, 1 + 0j))
    batch = [others[0], bad, others[1]]
    with pytest.raises(RootFindingFailed) as alone:
        pullback_sample(bad, SAMPLE_ANCHOR, 4)
    with pytest.raises(RootFindingFailed) as err:
        _pullback(batch, SAMPLE_ANCHOR, 4)
    assert (err.value.level, err.value.target) == (alone.value.level, alone.value.target) == (1, SAMPLE_ANCHOR)
    rows = _sample_with_reanchor(batch, 4)
    for row, g in zip(rows[::2], others):
        assert row.tobytes() == pullback_sample(g, SAMPLE_ANCHOR, 4).tobytes()
    assert rows[1].tobytes() == pullback_sample(bad, SAMPLE_ANCHOR * (1 + 1e-3) + 1e-3j, 4).tobytes()


def test_report_raises_a_sampling_failure_before_a_later_pole(monkeypatch):
    # t = 0 cannot be specialised; the t-value before it is sampled first and
    # fails at all four anchors
    errors = []

    def all_fail(gmaps, anchor, n):
        errors.append(RootFindingFailed(1, anchor))
        raise errors[-1]

    monkeypatch.setattr(nadyn.degeneration, "_pullback", all_fail)
    with pytest.raises(RootFindingFailed) as err:
        degeneration_report(TZ21T, [1e-3, 0], 3)
    assert len(errors) == 4 and err.value is errors[-1]
    with pytest.raises(CoefficientPole):
        degeneration_report(TZ21T, [0, 1e-3], 3)
    assert len(errors) == 4


def test_report_samples_at_most_the_cap_per_batch(monkeypatch):
    sizes = []
    real = nadyn.degeneration._pullback

    def counted(gmaps, z0, n):
        sizes.append(len(gmaps) * gmaps[0].degree ** n)
        return real(gmaps, z0, n)

    monkeypatch.setattr(nadyn.degeneration, "_pullback", counted)
    t_values = [(k + 1) * 1e-4 for k in range(40)]
    report = degeneration_report(TZ21T, t_values, 14)
    assert [entry["t"] for entry in report.sampled] == t_values
    assert max(sizes) <= SAMPLE_CAP and sum(sizes) == 40 * 2**14


def test_aberth_roots_past_the_sweep_cap_is_typed(monkeypatch):
    monkeypatch.setattr(nadyn.degeneration, "ABERTH_MAX_ITER", 1)
    with pytest.raises(RootFindingFailed, match="^root finding failed at pullback level 0 for target 24.0$"):
        aberth_roots([-6, 11, -6, 1])


def test_above_bound_decides_rows_on_the_bound_by_the_scalar_formula():
    # numpy's power and libm's pow can differ in the last bit, so a row that
    # sits on the vector bound may lie above or below the scalar one, and a
    # row on the scalar bound may lie above the vector one
    rng = np.random.default_rng(1)
    am = rng.random((1000, 6)) * 10
    mz = rng.random(1000) * 3 + 0.5
    acc = np.zeros_like(mz)
    for i in range(am.shape[1]):
        acc = acc + am[:, i] * np.power(mz, i)
    scalar = [ABERTH_TOL * sum(float(a) * float(m) ** i for i, a in enumerate(row)) for row, m in zip(am, mz)]
    for apz in (ABERTH_TOL * acc, np.array(scalar)):
        assert _above_bound(am, mz, apz).tolist() == [p > s for p, s in zip(apz.tolist(), scalar)]


def test_pullback_sample_cap_is_typed():
    g = ComplexMap((0j, 0j, 1 + 0j), (1 + 0j, 0j, 0j))
    assert len(pullback_sample(g, 1 + 0j, 16)) == 2**16
    with pytest.raises(SampleCapExceeded):
        pullback_sample(g, 1 + 0j, 17)
    with pytest.raises(SampleCapExceeded):
        pullback_sample(g, 1 + 0j, 10**9)


def test_ball_masks_equal_chordal():
    rng = random.Random(85)
    edge = math.sqrt(99)  # chordal(z, inf) = 0.1 exactly on |z| = sqrt(99)
    near0 = 0.1 / math.sqrt(1 - 0.01)  # chordal(z, 0) = 0.1 on |z| = near0
    points = [INF_C, complex(math.inf, 1.0), complex(math.nan, 0.0), 0j]
    for _ in range(300):
        points.append(complex(rng.gauss(0, 1), rng.gauss(0, 1)) * 10 ** rng.uniform(-3, 3))
    for radius in (edge, near0):
        for k in range(60):
            r = radius
            for _ in range(k % 7 - 3):
                r = math.nextafter(r, math.inf)
            for _ in range(3 - k % 7):
                r = math.nextafter(r, 0.0)
            points.append(cmath.rect(r, 2 * math.pi * rng.random()))
            points.append(complex(r, 0.0) * (1j ** k))
    # moduli a few ulps from 2^512, where |z|^2 overflows, and subnormal ones
    for k in range(-4, 5):
        r = _near(2.0**512, k)
        points += [complex(r, 0.0), complex(0.0, -r), cmath.rect(r, 2 * math.pi * rng.random())]
        points += [complex(5e-324 * (k + 5), 0.0), complex(-3e-310, 1e-310 * k), cmath.rect(2e-308, k)]
    targets = [INF_C, 0j, 1 + 1j, complex(-3.5, 0.25)]
    for eps in (0.1, 0.05, 0.3, chordal(complex(2.0**512, 0.0), INF_C)):
        masks = _ball_masks(np.array(points), targets, eps)
        for k, tg in enumerate(targets):
            assert masks[k].tolist() == [chordal(p, tg) <= eps for p in points]


def test_complex_abs_is_within_four_ulps_of_hypot():
    # _ball_masks takes |z| from numpy's complex abs, not libm hypot; its
    # relative 1e-12 band sends every close call to chordal, which rests on
    # this bound, over the whole exponent range, subnormals and overflow included
    rng = np.random.default_rng(92)
    size = 200_000
    exp_re = rng.integers(-1080, 1025, size)
    exp_im = np.where(rng.random(size) < 0.5, exp_re + rng.integers(-60, 61, size), rng.integers(-1080, 1025, size))
    with np.errstate(all="ignore"):
        re = np.ldexp(rng.uniform(-2.0, 2.0, size), exp_re)
        im = np.ldexp(rng.uniform(-2.0, 2.0, size), exp_im)
        re[:1000], im[1000:2000] = 0.0, 0.0
        absolute, hypot = np.abs(re + 1j * im), np.hypot(re, im)
    assert np.array_equal(np.isinf(absolute), np.isinf(hypot))
    assert np.abs(absolute.view(np.int64) - hypot.view(np.int64)).max() <= 4


def test_ball_masks_exact_on_the_edge():
    # radii where squaring by a product lands one ulp past libm's pow; with
    # eps set to each point's own chordal distance, only an exact replay of
    # chordal counts the point as inside
    edge_points = []
    x = math.sqrt(99)
    while len(edge_points) < 5:
        x = math.nextafter(x, math.inf)
        if 1.0 / math.sqrt(1.0 + x * x) > chordal(complex(x, 0.0), INF_C):
            edge_points.append(complex(x, 0.0))
    for p in edge_points:
        eps = chordal(p, INF_C)
        for tg in (INF_C, 0.25 + 0j):
            mask = _ball_masks(np.array(edge_points), [tg], eps)[0]
            assert mask.tolist() == [chordal(q, tg) <= eps for q in edge_points]
