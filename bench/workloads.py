"""Seeded workload generator for the nadyn benchmark.

Each workload is a list of argv lists for the ``nadyn`` command, written in
the documented input grammar only.  The same seed always gives a
byte-identical list (see ``serialize``).  The generator imports nothing from
``nadyn``: the program under test sees only the generated strings.

How the seed is used.  The cost of one query moves by a factor of 20
between maps of the same shape: lists of 60 ``equidist`` queries drawn
freely from a seed took between 5.4 s and 7.9 s depending on the seed, far
more than any bound a benchmark can hold.  Conjugating each map by z -> -z
instead still moved single queries by up to 15%, enough to move the tail.
So every workload has a fixed catalogue of maps, points and directions,
drawn once from a constant seed, and the run's seed only chooses how each
map is written: numerator and denominator are both multiplied by c * t^k,
with c and k drawn per map.  That is the same projective map, which
``make_map`` normalises to the same representation before any work on it,
so every seed gives different input strings, the same answers and the same
work past parsing.

Why these workloads (each one stresses a different part of the solver):

``tree``
    minlocus, hypres --direct, slope (all classes and one direction),
    depths, reduce and semistable on degree-2 and degree-3 maps at
    catalogued points.  Many small exact operations through ``crucial`` and
    ``redux.conjugate``/``sylvester_resultant``: hypRes probes, affine-reach
    bisection and path-mass bisection.  No iteration, no floats.  One map in
    six (``NM_EVERY``) has a coefficient with a non-monomial denominator in
    t, printed the way ``map_str`` prints it; such maps make parsing and
    canonicalisation far more expensive and form the latency tail.  They
    are all of degree 2: a degree-3 map of that kind costs several times
    more than any other.
``iterates``
    equidist --point gauss on degree-2 maps with bad reduction at the Gauss
    point by construction (num and den share the residue factor (z - a)
    modulo t), with a fixed 4:1 mix of --nmax 2 and --nmax 3.  Few
    compositions of maps with fast-growing coefficients: the same exact
    layers as ``tree`` but with a few large operands instead of many small
    ones.
``degcheck``
    degcheck --t 1e-3,1e-4 --n 12 on bad-reduction degree-2 maps.  The time
    goes to the floating-point pullback sampler (``aberth_roots``); the exact
    layers take a small share.  Float-side changes show here and
    exact-kernel changes should not.

Each list is short enough that a run goes through it several times (one
pass takes about 6 s on ``tree`` and ``iterates`` and 13 s on ``degcheck``),
so a query's latency is a median over its passes.

Inputs that the generator knows to end in a traceback today are not
dropped: ``defect_probes`` emits them (``slope --direction toward:...``) so
the runner checks and reports them beside the timed workload.
"""

from __future__ import annotations

import json
import random
from fractions import Fraction

WORKLOADS = ("tree", "iterates", "degcheck")

TREE_MAPS = 30  # 7 queries per map
NM_EVERY = 6  # one tree map in six has a non-monomial coefficient denominator
ITERATES_QUERIES = 60
DEGCHECK_QUERIES = 24

# A map is non-degenerate iff its Sylvester resultant is a nonzero element
# of Q(t).  The resultant is a polynomial in the coefficients, so a nonzero
# value at one rational t certifies it; a zero there only rejects a candidate.
_T0 = Fraction(3, 7)

_COEFFS = [Fraction(c) for c in (1, -1, 2, -2, 3, "1/2", "-1/2")]
_CENTERS = [Fraction(c) for c in (1, -1, 2, "1/2")]
_EXPONENTS = [Fraction(s) for s in ("1/2", "-1/2", 1, -1, 2, -2, "1/3", "3/2", "-3/2", "2/3")]
_HALF_EXPONENTS = [s for s in _EXPONENTS if s.denominator <= 2]
_RESIDUES = ["0", "1", "-1", "2", "1/2", "-1/2"]
# (numerator, denominator) nonzero-coefficient counts, cycled over tree maps
_TREE_TERMS = [(2, 1), (2, 2), (3, 1), (1, 2), (2, 2)]
_FACTORS = ["z^2 + 1", "z^2 - 2", "z^2 + z + 1", "z^2 - z - 1", "z^3 - 2"]
# c in the c * t^k that multiplies num and den of a catalogue map
_SCALES = [Fraction(c) for c in (1, -1, 2, -2, 3, -3, "1/2", "-1/3")]


def _frac_text(c: Fraction) -> str:
    return str(c.numerator) if c.denominator == 1 else f"{c.numerator}/{c.denominator}"


def _monomial_text(c: Fraction, e: int) -> str:
    """c * t^e, printed as map_str prints Laurent monomials."""
    if e == 0:
        return _frac_text(c)
    tp = "t" if abs(e) == 1 else f"t^{abs(e)}"
    if e > 0:
        if c == 1:
            return tp
        if c == -1:
            return f"-{tp}"
        return f"{_frac_text(c)}*{tp}"
    return f"{_frac_text(c)}/{tp}"


class _Coeff:
    """A coefficient in Q(t): its value at _T0, and ``text(c, k)``, the text of c * t^k times it."""

    __slots__ = ("text", "value")

    def __init__(self, text, value: Fraction):
        self.text = text
        self.value = value


def _monomial(c: Fraction, e: int) -> _Coeff:
    return _Coeff(lambda s, k: _monomial_text(s * c, e + k), c * _T0**e)


def _binomial(c0: Fraction, c1: Fraction) -> _Coeff:
    """c0 + c1 * t, either part possibly zero."""

    def text(s: Fraction, k: int) -> str:
        if not c1:
            return _monomial_text(s * c0, k)
        if not c0:
            return _monomial_text(s * c1, k + 1)
        tail = _monomial_text(s * c1, k + 1)
        sign = "-" if tail.startswith("-") else "+"
        return f"{_monomial_text(s * c0, k)} {sign} {tail.lstrip('-')}"

    return _Coeff(text, c0 + c1 * _T0)


def _non_monomial(rng: random.Random) -> _Coeff:
    """c * t^e / (t + k) or c / (k*t^2 + 1): a denominator that is not a power of t."""
    c = Fraction(rng.choice([1, 2, -1]))
    if rng.random() < 0.5:
        e = rng.choice([0, 1])
        k = rng.choice([1, 2, 3, -2])
        sign = "+" if k > 0 else "-"
        return _Coeff(lambda s, j: f"{_monomial_text(s * c, e + j)}/(t {sign} {abs(k)})",
                      c * _T0**e / (_T0 + k))
    k = rng.choice([1, 2])
    lead = "t^2" if k == 1 else f"{k}*t^2"
    return _Coeff(lambda s, j: f"{_monomial_text(s * c, j)}/({lead} + 1)", c / (k * _T0**2 + 1))


def _zpoly_text(coeffs: list[_Coeff | None], scale: Fraction = Fraction(1), shift: int = 0) -> str:
    parts = []
    for i in range(len(coeffs) - 1, -1, -1):
        c = coeffs[i]
        if c is None:
            continue
        text = c.text(scale, shift)
        body = f"({text})" if (" " in text or "/" in text) else text
        if i:
            pw = "z" if i == 1 else f"z^{i}"
            if text == "1":
                body = pw
            elif text == "-1":
                body = f"-{pw}"
            else:
                body = f"{body}*{pw}"
        parts.append(body)
    out = parts[0]
    for body in parts[1:]:
        out += f" - {body[1:]}" if body.startswith("-") else f" + {body}"
    return out


def _det(mat: list[list[Fraction]]) -> Fraction:
    mat = [row[:] for row in mat]
    n = len(mat)
    det = Fraction(1)
    for col in range(n):
        pivot = next((r for r in range(col, n) if mat[r][col]), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            mat[col], mat[pivot] = mat[pivot], mat[col]
            det = -det
        det *= mat[col][col]
        for r in range(col + 1, n):
            f = mat[r][col] / mat[col][col]
            if f:
                for k in range(col, n):
                    mat[r][k] -= f * mat[col][k]
    return det


def _resultant_at_t0(num: list[_Coeff | None], den: list[_Coeff | None]) -> Fraction:
    d = len(num) - 1
    a = [c.value if c else Fraction(0) for c in den]
    b = [c.value if c else Fraction(0) for c in num]
    rows = []
    for poly in (a, b):
        for k in range(d):
            row = [Fraction(0)] * (2 * d)
            for i in range(d + 1):
                row[k + d - i] = poly[i]
            rows.append(row)
    return _det(rows)


class _Map:
    """num/den coefficient lists (low to high) of a non-degenerate map."""

    __slots__ = ("num", "den")

    def __init__(self, num: list[_Coeff | None], den: list[_Coeff | None]):
        self.num = num
        self.den = den

    def text(self, scale: Fraction = Fraction(1), shift: int = 0) -> str:
        """The map with num and den both multiplied by scale * t^shift."""
        num = _zpoly_text(self.num, scale, shift)
        den = _zpoly_text(self.den, scale, shift)
        return num if den == "1" else f"({num})/({den})"


def _random_map(rng: random.Random, degree: int, terms: tuple[int, int], non_monomial: bool) -> _Map:
    """A map with exactly terms[0] nonzero numerator and terms[1] denominator coefficients."""
    while True:
        num = [None] * (degree + 1)
        den = [None] * (degree + 1)
        lead = rng.choice((num, den))
        lead[degree] = _monomial(rng.choice(_COEFFS), rng.choice([-1, 0, 1]))
        for coeffs, count in zip((num, den), terms):
            free = [i for i in range(degree + 1) if coeffs[i] is None]
            for i in rng.sample(free, count - (degree + 1 - len(free))):
                coeffs[i] = _monomial(rng.choice(_COEFFS), rng.choice([-1, 0, 1, 2]))
        if non_monomial:
            i = rng.choice([i for i in range(degree + 1) if num[i] is not None])
            num[i] = _non_monomial(rng)
        if _resultant_at_t0(num, den) != 0:
            return _Map(num, den)


def _bad_reduction_map(rng: random.Random, slot: int) -> _Map:
    """A degree-2 map whose num and den share the residue factor (z - a) mod t.

    Each of num and den gets one term c*t that separates them over K; its
    position is fixed by the slot, c is random.  Terms in t^2 are left out:
    with them the cost of one equidist query spreads over more than a
    factor of 10 between maps, and the few dearest maps would set a list's total.
    """
    positions = (slot % 3, (slot // 3) % 3)
    while True:
        a = rng.choice([0, 1, -1, 2, -2])

        def times_factor(b1: int, b0: int) -> list[Fraction]:
            # (z - a) * (b1 z + b0), coefficients low to high
            return [Fraction(-a * b0), Fraction(b0 - a * b1), Fraction(b1)]

        num = times_factor(rng.choice([1, 2, -1, 3]), rng.choice([1, -1, 2, 3, -3]))
        den = times_factor(rng.choice([0, 1, 2, -1]), rng.choice([1, 2, -1, 3]))
        pair = []
        for coeffs, i in zip((num, den), positions):
            t_coeffs = [Fraction(0)] * 3
            t_coeffs[i] = Fraction(rng.choice([1, -1, 2, 3]))
            pair.append([_binomial(c0, c1) if (c0 or c1) else None
                         for c0, c1 in zip(coeffs, t_coeffs)])
        num_row, den_row = pair
        if num_row[2] is None and den_row[2] is None:
            continue
        if _resultant_at_t0(num_row, den_row) != 0:
            return _Map(num_row, den_row)


def _random_point(rng: random.Random, kind: int) -> str:
    """gauss, or a disk a=<centre>;s=<exponent> of a kind fixed by the caller.

    Exponents with denominator 3 (a level-3 uniformizer) go only with
    rational centres, and centres c*t^e only with e = 1: at a point far out
    like a=3/t;s=3/2, one slope query on a degree-3 map runs for seconds, and
    a list holding one of those has its tail set by that single query.
    """
    if kind == 0:
        return "gauss"
    if kind == 1:
        return f"a=0;s={_frac_text(rng.choice(_EXPONENTS))}"
    if kind == 2:
        return f"a={_frac_text(rng.choice(_CENTERS))};s={_frac_text(rng.choice(_EXPONENTS))}"
    return f"a={_monomial_text(rng.choice(_COEFFS), 1)};s={_frac_text(rng.choice(_HALF_EXPONENTS))}"


def _random_direction(rng: random.Random, kind: int) -> str:
    if kind == 0:
        return "inf"
    if kind == 1:
        return f"res={rng.choice(_RESIDUES)}"
    return f"factor={rng.choice(_FACTORS)}"


def _rescaled(rng: random.Random, phi: _Map) -> str:
    """phi with num and den multiplied by a c * t^k drawn from the run's seed."""
    return phi.text(rng.choice(_SCALES), rng.choice([-1, 0, 1]))


def _catalogue_rng(workload: str) -> random.Random:
    return random.Random(f"catalogue:{workload}")


def _tree(rng: random.Random) -> list[list[str]]:
    cat = _catalogue_rng("tree")
    queries = []
    for k in range(TREE_MAPS):
        degree = 3 if k % 3 == 2 else 2
        terms = _TREE_TERMS[k % len(_TREE_TERMS)]
        phi = _random_map(cat, degree, terms, non_monomial=(k % NM_EVERY == 1))
        point = _random_point(cat, k % 4)
        direction = _random_direction(cat, k % 3)
        m = _rescaled(rng, phi)
        queries += [
            ["minlocus", "--map", m],
            ["hypres", "--map", m, "--point", point, "--direct"],
            ["slope", "--map", m, "--point", point],
            ["slope", "--map", m, "--point", point, "--direction", direction],
            ["depths", "--map", m, "--point", point],
            ["reduce", "--map", m, "--point", point],
            ["semistable", "--map", m, "--point", point],
        ]
    return queries


def _iterates(rng: random.Random) -> list[list[str]]:
    cat = _catalogue_rng("iterates")
    queries = []
    for k in range(ITERATES_QUERIES):
        phi = _rescaled(rng, _bad_reduction_map(cat, k))
        nmax = "3" if k % 5 == 4 else "2"
        queries.append(["equidist", "--map", phi, "--point", "gauss", "--nmax", nmax])
    return queries


def _degcheck(rng: random.Random) -> list[list[str]]:
    cat = _catalogue_rng("degcheck")
    return [
        ["degcheck", "--map", _rescaled(rng, _bad_reduction_map(cat, k)),
         "--t", "1e-3,1e-4", "--n", "12"]
        for k in range(DEGCHECK_QUERIES)
    ]


_GENERATORS = {"tree": _tree, "iterates": _iterates, "degcheck": _degcheck}


def generate(workload: str, seed: int) -> list[list[str]]:
    """The workload's query list for this seed."""
    if workload not in _GENERATORS:
        raise ValueError(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")
    return _GENERATORS[workload](random.Random(f"{workload}:{seed}"))


def defect_probes(seed: int) -> list[list[str]]:
    """Queries in the grammar that currently end in a traceback.

    ``slope --direction toward:<point>`` cannot serialise its class.  They are
    checked and reported on their own, outside the timed loop.
    """
    rng = random.Random(f"probes:{seed}")
    out = []
    for k in range(3):
        phi = _random_map(rng, 2, (2, 2), non_monomial=False).text()
        target = _random_point(rng, 1 + k % 3)
        out.append(["slope", "--map", phi, "--point", "gauss", "--direction", f"toward:{target}"])
    return out


def serialize(queries: list[list[str]]) -> bytes:
    """Canonical bytes of a query list, for comparing two generations."""
    return json.dumps(queries, separators=(",", ":")).encode()
