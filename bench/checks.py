"""Output checker for benchmark queries, run outside the timed region.

A query fails on exit 1, on a traceback, on an exit-2 error type that is
not expected for its verb, or on a broken invariant:

* hypres --direct: hyp_res == hyp_res_direct (paper criterion 4);
* slope: rhs == measured wherever measured is not null;
* minlocus: the verdict is not unstable;
* equidist: each level's masses sum to 1 and every TV step is >= 0;
* degcheck: every mass lies in [0, 1].
"""

from __future__ import annotations

import json
from fractions import Fraction

# Domain errors that are a correct answer for the verb rather than a defect:
# an irrational descent direction is out of scope, and a totally invariant
# point has no depth-sequence hypothesis to test.
EXPECTED_ERRORS = {
    "minlocus": {"NeedsExtension"},
    "equidist": {"NeedsExtension", "TotallyInvariantPoint"},
    "degcheck": {"NeedsExtension", "TotallyInvariantPoint"},
}


def _check_hypres(out: dict, argv: list[str]) -> str | None:
    if "--direct" in argv and Fraction(out["hyp_res"]) != Fraction(out["hyp_res_direct"]):
        return f"hyp_res {out['hyp_res']} != hyp_res_direct {out['hyp_res_direct']}"
    return None


def _check_slope(out: dict, argv: list[str]) -> str | None:
    for row in out.get("slopes", [out]):
        if row["measured"] is not None and Fraction(row["measured"]) != Fraction(row["rhs"]):
            return f"slope rhs {row['rhs']} != measured {row['measured']}"
    return None


def _check_minlocus(out: dict, argv: list[str]) -> str | None:
    if out["verdict"] == "unstable":
        return "minimizer verdict is unstable"
    return None


def _check_equidist(out: dict, argv: list[str]) -> str | None:
    for level in out["levels"]:
        total = Fraction(level["point_mass"]) + sum(Fraction(a["mass"]) for a in level["atoms"])
        if total != 1:
            return f"level {level['n']} masses sum to {total}"
    if any(Fraction(tv) < 0 for tv in out["tv"]):
        return "negative TV step"
    return None


def _check_degcheck(out: dict, argv: list[str]) -> str | None:
    for entry in out["per_t"]:
        for row in entry["masses"]:
            for value in [row["predicted"], row["sampled"], *row["per_target"]]:
                if not 0.0 <= float(value) <= 1.0:
                    return f"mass {value} outside [0, 1] at t={entry['t']}"
    return None


_INVARIANTS = {
    "hypres": _check_hypres,
    "slope": _check_slope,
    "minlocus": _check_minlocus,
    "equidist": _check_equidist,
    "degcheck": _check_degcheck,
}


def check(argv: list[str], code: int | None, stdout: str, tb: str | None) -> str | None:
    """Why the query failed, or None when its output is acceptable."""
    verb = argv[0]
    if tb is not None:
        return f"traceback: {tb.strip().splitlines()[-1]}"
    if code == 1:
        return "exit 1"
    if code not in (0, 2):
        return f"exit {code}"
    try:
        out = json.loads(stdout)
    except json.JSONDecodeError:
        return "stdout is not one JSON document"
    if code == 2:
        kind = out.get("type")
        if kind not in EXPECTED_ERRORS.get(verb, set()):
            return f"unexpected {kind} for {verb}: {out.get('error')}"
        return None
    invariant = _INVARIANTS.get(verb)
    try:
        return invariant(out, argv) if invariant else None
    except (KeyError, TypeError, ValueError, ZeroDivisionError) as exc:
        return f"malformed {verb} output: {exc!r}"
