"""Floating-point degeneration checks for families over Q(t).

A family is specialised at small complex t, the maximal entropy measure of
the specialisation is sampled by iterated pullback of a generic point, and
the sampled atom masses are compared with the non-archimedean prediction.
Distances on the complex projective line are chordal with diameter 1, so the
ball of radius 0.1 around infinity is {|z| > sqrt(99)}.

Sampling is level-batched: the d^(k-1) targets of level k of every t in a
batch are solved as one numpy batch on the contiguous rows of one complex
coefficient buffer (gathered by degree only where a leading coefficient
vanishes; squared moduli clear a level far from that cutoff, hypot decides
near it), linear rows directly, quadratic rows by the stable closed form,
higher degrees by Aberth iteration across all rows; each root is bit-identical
to the one found for that t alone.  A report samples its t-values in order, in
batches of at most SAMPLE_CAP points.  Ball hits are counted with array masks;
chordal is total on finite floats.  A report needs n >= 1 levels and eps > 0;
a sample past SAMPLE_CAP points raises SampleCapExceeded.  Each function that
uses numpy imports it itself, so the exact solver never loads numpy.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .berkspace import GAUSS
from .errors import (
    CoefficientPole,
    IllConditioned,
    NadynError,
    RootFindingFailed,
    SampleCapExceeded,
    TotallyInvariantPoint,
)
from .scalars import KScalar
from .respoly import FactorClass, FiniteClass, InfinityClass
from .redux import RationalMapK, _sylvester_rows
from .equidist import DirectionMeasure, level_measures, predicted_limit, totally_invariant

INF_C = complex(math.inf, 0.0)

SAMPLE_ANCHOR = 1 + 1j / 3
ABERTH_TOL = 1e-12
ABERTH_MAX_ITER = 500
SAMPLE_CAP = 2**16
_LEADING_CUTOFF = 1e-13


def chordal(z: complex, w: complex) -> float:
    """Chordal metric on P^1(C), normalised to diameter 1."""
    zi, wi = cmath.isinf(z), cmath.isinf(w)
    if zi and wi:
        return 0.0
    try:
        if zi or wi:
            return 1.0 / math.sqrt(1.0 + abs(w if zi else z) ** 2)
        return abs(z - w) / (math.sqrt(1.0 + abs(z) ** 2) * math.sqrt(1.0 + abs(w) ** 2))
    except OverflowError:
        # a modulus too large to square: write large points p as 1/a; with h(x) = sqrt(1 + |x|^2),
        # chordal(1/a, 1/b) = |a - b| / (h(a) h(b)) and chordal(1/a, w) = |1 - a w| / (h(a) h(w));
        # 1 / p is 0 when both parts of p are near the float maximum, and 0.5 / (0.5 p) is not
        big = [cmath.isinf(p) or max(abs(p.real), abs(p.imag)) >= 1 for p in (z, w)]
        a, b = (0j if cmath.isinf(p) else (1 / p or 0.5 / (0.5 * p)) if flip else p for p, flip in zip((z, w), big))
        gap = abs(a - b) if big[0] == big[1] else abs(1 - a * b)
        return gap / (math.sqrt(1.0 + abs(a) ** 2) * math.sqrt(1.0 + abs(b) ** 2))


@dataclass(frozen=True)
class ComplexMap:
    num: tuple[complex, ...]
    den: tuple[complex, ...]

    @property
    def degree(self) -> int:
        return len(self.num) - 1


@dataclass(frozen=True)
class DegenerationReport:
    t_values: tuple[complex, ...]
    predicted: tuple[tuple[object, Fraction], ...]
    sampled: tuple[dict, ...]  # one {"t", "rows"} dict per t, a row per atom
    max_discrepancy: float


def specialize(phi: RationalMapK, t0: complex) -> ComplexMap:
    """Evaluate the coefficients at t = t0 (principal branch for roots)."""
    t0 = complex(t0)
    if t0 == 0:
        raise CoefficientPole("specialisation needs t != 0")
    if abs(t0) >= 1:
        raise CoefficientPole("specialisation needs |t| < 1")
    num, den, poles = [], [], {}  # (c.den, c.level) -> whether it vanishes at t0
    for coeff, out in ((phi.num, num), (phi.den, den)):
        for c in coeff:
            try:
                n_val, d_val = c.eval_parts(t0)
                if (c.den, c.level) not in poles:
                    poles[c.den, c.level] = _vanishes(c, t0, d_val)
                if poles[c.den, c.level]:
                    raise CoefficientPole(f"coefficient {c.to_str()} has a pole at t = {t0}")
                value = n_val / d_val
            except (OverflowError, ZeroDivisionError):
                value = math.inf
            if not cmath.isfinite(value):  # complex division overflows without raising
                raise IllConditioned(f"coefficient {c.to_str()} leaves the float range at t = {t0}")
            out.append(value)
    gmap = ComplexMap(tuple(num), tuple(den))
    _check_conditioning(gmap, t0)
    return gmap


def _vanishes(c: KScalar, t0: complex, value: complex) -> bool:
    """Whether the denominator of c vanishes at u0 = t0^(1/level); value is
    its float value there.  Exact for real t0 at (smallest) level 1."""
    den, level = c.den, c.level
    if level == 1 and t0.imag == 0:
        return den.eval(Fraction(t0.real)) == 0
    u0 = abs(t0) if level == 1 else abs(t0) ** (1.0 / level)
    scale = sum(abs(complex(a)) * u0**e for e, a in den.terms)
    return abs(value) <= 1e-14 * scale


def _check_conditioning(gmap: ComplexMap, t0: complex) -> None:
    """Raise IllConditioned when the float resultant is negligible next to
    the coefficients: |det| <= 1e-250 * scale^(2d), homogeneous of degree 2d
    in them.  The pivot coefficient specialises to exactly 1, so scale >= 1."""
    import numpy as np
    d = gmap.degree
    m = np.array(_sylvester_rows(gmap.den, gmap.num, 0j), dtype=complex)
    with np.errstate(all="ignore"):
        det = complex(np.linalg.det(m))
    scale = max(abs(c) for c in gmap.num + gmap.den)
    try:
        vanishes = not cmath.isfinite(det) or abs(det) <= 1e-250 * scale ** (2 * d)
    except OverflowError:  # coefficients too large for a float resultant
        vanishes = True
    if vanishes:
        raise IllConditioned(f"specialised resultant vanishes at t = {t0}")


# CPython's scalar complex arithmetic, replayed on (real, imag) float arrays.
# numpy's complex multiply, divide and abs round differently in the last bit
# (fused and vectorised loops), which would make a batched root differ from
# the same root found one row at a time.


def _mul(ar, ai, br, bi):
    """Complex product as CPython computes it."""
    return ar * br - ai * bi, ar * bi + ai * br


def _div(ar, ai, br, bi):
    """Complex quotient as CPython computes it (Smith's method)."""
    import numpy as np
    by_real = np.abs(br) >= np.abs(bi)
    ratio = np.where(by_real, bi / br, br / bi)
    denom = np.where(by_real, br + bi * ratio, br * ratio + bi)
    re = np.where(by_real, ar + ai * ratio, ar * ratio + ai) / denom
    im = np.where(by_real, ai - ar * ratio, ai * ratio - ar) / denom
    return re, im


def _horner(cr, ci, zr, zi):
    """Columns of coefficients (constant term in row 0) evaluated at one z per column."""
    import numpy as np
    accr, acci = np.zeros_like(zr), np.zeros_like(zr)
    for k in range(len(cr) - 1, -1, -1):
        pr, pi = _mul(accr, acci, zr, zi)
        accr = pr + cr[k]
        acci = pi + ci[k]
    return accr, acci


def _join(re: np.ndarray, im: np.ndarray) -> np.ndarray:
    out = re.astype(complex)
    out.imag = im
    return out


def _above_bound(am: np.ndarray, mz: np.ndarray, apz: np.ndarray) -> np.ndarray:
    """Per row, whether |p(z)| > ABERTH_TOL * sum_i |c_i| max(1, |z|)^i.

    CPython takes the powers with libm pow, numpy with its own loops, and the
    two can differ in the last bit; rows within a relative 1e-12 of the bound
    are decided by the scalar formula.
    """
    import numpy as np
    acc = np.zeros_like(mz)
    for i in range(am.shape[1]):
        acc = acc + am[:, i] * np.power(mz, i)
    bound = ABERTH_TOL * acc
    above = apz > bound
    for r in np.flatnonzero(np.abs(apz - bound) <= 1e-12 * bound):
        m = float(mz[r])
        exact = ABERTH_TOL * sum(float(a) * m**i for i, a in enumerate(am[r]))
        above[r] = apz[r] > exact
    return above


def _aberth(coeffs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Aberth iteration on every column of an (e + 1, m) coefficient array, e >= 2.

    Column by column this is the scalar method: start points on the circle of
    radius 1 + max |c_i / c_e| with phase 0.4, Gauss-Seidel sweeps over the
    roots in a fixed order, and a column stops after the first sweep in which
    every root met its residual bound.  Root k of every column is row k of
    contiguous (e, m) arrays.  Returns the (m, e) roots and the mask of
    columns that had not stopped after ABERTH_MAX_ITER sweeps.
    """
    import numpy as np
    e, m = coeffs.shape[0] - 1, coeffs.shape[1]
    mr, mi = _div(coeffs.real, coeffs.imag, coeffs.real[-1], coeffs.imag[-1])
    am = np.hypot(mr, mi)
    radius = am[0]
    for k in range(1, e):
        radius = np.where(am[k] > radius, am[k], radius)
    radius = 1.0 + radius
    zr, zi = np.empty((e, m)), np.empty((e, m))
    for k in range(e):
        s = cmath.exp(2j * math.pi * (k / e) + 0.4j)
        zr[k] = radius * s.real - 0.0 * s.imag
        zi[k] = radius * s.imag + 0.0 * s.real
    steps = np.arange(1.0, e + 1.0)[:, None]
    dr, di = _mul(mr[1:], mi[1:], steps, 0.0)

    roots_r, roots_i = np.empty((e, m)), np.empty((e, m))
    live = np.arange(m)
    for _ in range(ABERTH_MAX_ITER):
        pending = np.zeros(live.size, dtype=bool)
        for j in range(e):
            z_r, z_i = zr[j], zi[j]  # read before row j is overwritten below
            pr, pi = _horner(mr, mi, z_r, z_i)
            az = np.hypot(z_r, z_i)
            pending |= _above_bound(am.T, np.where(az > 1.0, az, 1.0), np.hypot(pr, pi))
            qr, qi = _horner(dr, di, z_r, z_i)
            flat = (qr == 0) & (qi == 0)
            nr, ni = _div(pr, pi, qr, qi)
            rr, ri = np.zeros_like(z_r), np.zeros_like(z_r)
            for k in range(e):
                if k == j:
                    continue
                xr = z_r - zr[k]
                xi = z_i - zi[k]
                same = (xr == 0) & (xi == 0)
                xr = np.where(same, 1e-14 * (1 + az), xr)
                xi = np.where(same, 0.0, xi)
                ur, ui = _div(1.0, 0.0, xr, xi)
                rr = rr + ur
                ri = ri + ui
            pr, pi = _mul(nr, ni, rr, ri)
            den_r, den_i = 1.0 - pr, 0.0 - pi
            stuck = (den_r == 0) & (den_i == 0)
            ur, ui = _div(nr, ni, np.where(stuck, 1e-14, den_r), np.where(stuck, 0.0, den_i))
            nudge_r, nudge_i = _mul(z_r, z_i, 1 + 1e-8, 0.0)
            zr[j] = np.where(flat, nudge_r + 1e-8, z_r - ur)
            zi[j] = np.where(flat, nudge_i + 0.0, z_i - ui)
            pending |= flat
        if pending.all():
            continue
        done, keep = np.flatnonzero(~pending), np.flatnonzero(pending)
        roots_r[:, live[done]] = zr[:, done]
        roots_i[:, live[done]] = zi[:, done]
        if keep.size == 0:
            return _join(roots_r, roots_i).T, np.zeros(m, dtype=bool)
        live = live[keep]
        zr, zi, mr, mi, am, dr, di = (a.take(keep, axis=1) for a in (zr, zi, mr, mi, am, dr, di))
    failed = np.zeros(m, dtype=bool)
    failed[live] = True
    return _join(roots_r, roots_i).T, failed


def _quadratic(c: np.ndarray) -> np.ndarray:
    """The (m, 2) roots of the columns c[0] + c[1] z + c[2] z^2 of a contiguous (3, m) complex array, in place
    by the stable closed form; add and multiply, which can pick a NaN's sign by stride, see contiguous arrays."""
    import numpy as np
    p, q = c[1] / c[2], c[0] / c[2]
    s = p * p
    s /= 4
    s -= q
    np.sqrt(s, out=s)
    np.negative(s, out=s, where=p.real * s.real + p.imag * s.imag < 0)
    r1 = p / 2
    np.negative(np.add(r1, s, out=r1), out=r1)
    roots = np.empty((c.shape[1], 2), dtype=complex)
    roots[:, 0] = r1
    np.divide(q, r1, out=roots[:, 1])
    roots[r1 == 0, 1] = 0  # then p = q = 0 and both roots are 0
    return roots


def aberth_roots(coeffs: list[complex]) -> list[complex]:
    """All roots of a complex polynomial by simultaneous Aberth iteration.

    Deterministic: initial points on a scaled circle with a fixed phase, and
    a fixed sequential update order.  This is the one-row case of the
    batched iteration the pullback sampler runs.
    """
    import numpy as np
    e = len(coeffs) - 1
    if e < 1:
        return []
    if e == 1:
        return [-coeffs[0] / coeffs[1]]
    with np.errstate(all="ignore"):
        roots, failed = _aberth(np.array(coeffs, dtype=complex)[:, None])
    if failed[0]:
        raise RootFindingFailed(0, sum(abs(c / coeffs[-1]) for c in coeffs))
    return roots[0].tolist()


def _solve(c: np.ndarray) -> tuple[np.ndarray, np.ndarray | None]:
    """The (m, e) roots of the columns sum_k c[k] z^k of a contiguous (e + 1, m)
    complex array, and the mask of columns where Aberth iteration failed (None for e < 3)."""
    if len(c) == 2:
        return _join(*_div(-c[0].real, -c[0].imag, c[1].real, c[1].imag))[:, None], None
    if len(c) == 3:
        return _quadratic(c), None
    return _aberth(c)


def _preimages(num: np.ndarray, den: np.ndarray, ws: np.ndarray, level: int) -> np.ndarray:
    """The d preimages of every w in ws under G maps, with multiplicity and in
    the order of ws, map by map; preimages at infinity are padded in where
    leading coefficients vanish.  Map g is column g of the (d + 1, G) arrays num
    and den, and its targets are row g of the (G, m) array ws.  Coefficient k
    of the rows num - w den is row k of a contiguous (d + 1, G m) complex array.
    A level where every row keeps degree d is solved straight from it;
    otherwise rows are gathered by effective degree."""
    import numpy as np
    d = num.shape[0] - 1
    pr, pi = _mul(ws.real, ws.imag, den.real[:, :, None], den.imag[:, :, None])
    c = np.empty(pr.shape, dtype=complex)
    np.subtract(num.real[:, :, None], pr, out=c.real)
    np.subtract(num.imag[:, :, None], pi, out=c.imag)
    np.copyto(c, den[:, :, None], where=np.isinf(ws))
    c, ws = c.reshape(d + 1, -1), ws.ravel()
    # |c_d| > 1e-12 max |c_k|, far from the cutoff, where no square is NaN or
    # inf and none that matters is subnormal; other levels take the hypot test
    sq = c.real * c.real + c.imag * c.imag
    top = sq.max(axis=0)
    straight = d and ((sq[d] > 1e-24 * top) & (top > 1e-250)).all()
    if not straight:
        size = np.hypot(c.real, c.imag)
        top = size[0]
        for k in range(1, d + 1):
            top = np.where(size[k] > top, size[k], top)
        straight = d and not (size[d] <= _LEADING_CUTOFF * top).any()  # a constant map has no roots
    if straight:
        roots, failed = _solve(c)
        if failed is not None and failed.any():
            raise RootFindingFailed(level, complex(ws[np.argmax(failed)]))
        return roots.ravel()
    # effective degree: the highest coefficient above the cutoff
    eff = np.zeros(ws.size, dtype=int)
    for k in range(1, d + 1):
        eff = np.where(size[k] <= _LEADING_CUTOFF * top, eff, k)
    failed = top == 0.0
    out = np.full((ws.size, d), INF_C)
    for e in range(1, d + 1):
        rows = np.flatnonzero(eff == e)
        if rows.size == 0:
            continue
        roots, bad = _solve(c[: e + 1, rows])
        if bad is not None:
            failed[rows[bad]] = True
        out[rows, :e] = roots
    if failed.any():
        raise RootFindingFailed(level, complex(ws[np.argmax(failed)]))
    return out.ravel()


def _pullback(gmaps: list[ComplexMap], z0: complex, n: int) -> np.ndarray:
    """Row g holds the d^n n-th preimages of z0 under gmaps[g], as for
    pullback_sample; the maps share a degree d, and each level is solved as
    one batch for all of them."""
    import numpy as np
    d = gmaps[0].degree
    if d ** min(n, SAMPLE_CAP.bit_length()) > SAMPLE_CAP:  # for d >= 2, d^17 > SAMPLE_CAP = 2^16
        raise SampleCapExceeded(f"sample size {d}^{n} exceeds cap {SAMPLE_CAP}")
    # C order, so that the (d + 1, G, m) rows of each level reshape without a copy
    num, den = np.array([(g.num, g.den) for g in gmaps], dtype=complex).transpose(1, 2, 0).copy()
    points = np.full((len(gmaps), 1), complex(z0))
    with np.errstate(all="ignore"):
        for level in range(1, n + 1):
            points = _preimages(num, den, points, level).reshape(len(gmaps), -1)
    return points


def pullback_sample(gmap: ComplexMap, z0: complex, n: int) -> np.ndarray:
    """The multiset of d^n n-th preimages of z0 under the map, as a 1-D
    complex array; each level is solved as one batch."""
    return _pullback([gmap], z0, n)[0]


def _sample_with_reanchor(gmaps: list[ComplexMap], n: int, k: int = 0) -> np.ndarray:
    """_pullback from the k-th of four anchors.  Exceptional-orbit collisions
    show up as root-finding failures: a failing batch is redone map by map, so
    one map's failure never moves another's sample, and a failing map moves on
    to the next anchor; at the last one, its error is raised."""
    import numpy as np
    try:
        return _pullback(gmaps, SAMPLE_ANCHOR * (1 + k * 1e-3) + k * 1e-3j, n)
    except RootFindingFailed:
        if len(gmaps) == 1 and k == 3:
            raise
    if len(gmaps) > 1:
        return np.concatenate([_sample_with_reanchor([g], n) for g in gmaps])
    return _sample_with_reanchor(gmaps, n, k + 1)


def _ball_masks(points: np.ndarray, targets: list[complex], eps: float) -> np.ndarray:
    """masks[k, i] is chordal(points[i], targets[k]) <= eps, exactly.

    The chordal value is replayed on arrays: |z| by numpy's complex abs,
    then sqrt(1 + |z|^2), with the cases at infinity.  numpy's abs can differ
    from CPython's libm hypot, and CPython squares with libm pow, which can
    differ from a product, each by a few ulps; so values within a relative
    1e-12 of eps, and finite points or targets too large to square, are
    decided by chordal itself.
    """
    import numpy as np
    p_inf = np.isinf(points)
    masks = np.empty((len(targets), points.size), dtype=bool)
    with np.errstate(all="ignore"):
        ap = np.abs(points)
        sp = np.sqrt(1.0 + ap * ap)
        huge = np.isinf(sp) & ~p_inf
        for k, tg in enumerate(targets):
            if cmath.isinf(tg):
                dist = np.where(p_inf, 0.0, 1.0 / sp)
            else:
                try:
                    st = math.sqrt(1.0 + abs(tg) ** 2)
                except OverflowError:  # a target too large to square
                    masks[k] = [chordal(p, tg) <= eps for p in points.tolist()]
                    continue
                dist = np.where(p_inf, 1.0 / st, np.abs(points - tg) / (sp * st))
            masks[k] = dist <= eps
            for i in np.flatnonzero((np.abs(dist - eps) <= 1e-12 * eps) | huge):
                masks[k, i] = chordal(complex(points[i]), tg) <= eps
    return masks


def _class_targets(cls) -> list[complex]:
    if isinstance(cls, InfinityClass):
        return [INF_C]
    if isinstance(cls, FiniteClass):
        try:
            return [complex(cls.value)]
        except OverflowError:
            raise IllConditioned(f"hypothesis value {cls.value} leaves the float range") from None
    if isinstance(cls, FactorClass):
        return aberth_roots([complex(c) for c in cls.poly.coeff_list()])
    raise TypeError(f"cannot place class {cls!r} in the complex plane")


def auto_hypothesis(phi: RationalMapK) -> DirectionMeasure:
    """Predicted direction measure at the Gauss point.

    The exact Dirac prediction is used when available; otherwise the level-2
    depth measure stands in for the limit.
    """
    return predicted_limit(phi, GAUSS) or level_measures(phi, GAUSS, 2)[-1]


def degeneration_report(
    phi: RationalMapK,
    t_values,
    n: int,
    hypothesis: DirectionMeasure | None = None,
    eps: float = 0.1,
) -> DegenerationReport:
    """Sample the maximal entropy measures and compare with the prediction.
    Targets closer than 2 * eps are not refused: a sample point inside two
    balls counts toward both atoms."""
    if n < 1:
        raise ValueError("at least one pullback level is needed")
    if eps <= 0:
        raise ValueError("eps must be positive")
    if totally_invariant(phi, GAUSS):
        raise TotallyInvariantPoint(
            "the family has good reduction at the Gauss point; the comparison "
            "needs a point whose preimage is larger"
        )
    if hypothesis is None:
        hypothesis = auto_hypothesis(phi)
    t_values = tuple(complex(t) for t in t_values)
    if not t_values:
        raise ValueError("at least one parameter value is needed")
    atoms = [(cls, mass) for cls, mass in hypothesis.atoms]
    atom_targets = [_class_targets(cls) for cls, _ in atoms]
    gmaps, failure = [], None  # a t-value's specialisation error waits until those before it are sampled
    try:  # extend keeps the maps it appended before the raise
        gmaps.extend(specialize(phi, t0) for t0 in t_values)
    except NadynError as exc:
        failure = exc
    # batches of at most SAMPLE_CAP points, as in _pullback's cap check
    step = max(1, SAMPLE_CAP // phi.degree ** min(n, SAMPLE_CAP.bit_length()))
    per_t = []
    for start in range(0, len(gmaps), step):
        points = _sample_with_reanchor(gmaps[start : start + step], n)
        size = points.shape[1]
        counts = []
        for targets in atom_targets:
            masks = _ball_masks(points.ravel(), targets, eps).reshape(len(targets), *points.shape)
            counts.append((masks.any(axis=0).sum(axis=1), masks.sum(axis=2)))
        for g, t0 in enumerate(t_values[start : start + len(points)]):
            rows = [
                {"cls": cls, "predicted": mass, "sampled": int(union[g]) / size,
                 "per_target": [int(h) / size for h in hits[:, g]], "targets": targets}
                for (cls, mass), targets, (union, hits) in zip(atoms, atom_targets, counts)
            ]
            per_t.append({"t": t0, "rows": rows})
    if failure is not None:
        raise failure
    closest = min(per_t, key=lambda entry: abs(entry["t"]))["rows"]
    max_disc = max((abs(row["sampled"] - float(row["predicted"])) for row in closest), default=0.0)
    return DegenerationReport(t_values, tuple(atoms), tuple(per_t), max_disc)
