"""Command line front end: one verb per solver operation, JSON out.

Exact rationals are printed as "p/q" strings so reports are bit-stable;
only degcheck reports floating point numbers (12 significant digits).
Exit codes: 0 success, 1 usage or syntax errors, 2 domain errors.
main parses each input once, the map before the verb's point, and hands
both to the verb's handler; with both malformed, the map's error shows.
One argparse parser, built at import, serves every main call in a process:
parse_args keeps no state, and help is sized when it is printed.
"""

from __future__ import annotations

import argparse
import cmath
import json
import math
import sys

from .errors import IrrationalDirection, NadynError, ParseError
from .respoly import sorted_classes
from .redux import intrinsic_data, reduction_at
from .crucial import (
    _slope_table,
    hyp_res,
    hyp_res_direct,
    min_locus,
    ord_res,
    semistability,
    slope_measured,
    slope_rhs,
)
from .equidist import DirectionMeasure, depth_sequence
from .degeneration import degeneration_report
from .parsing import (
    class_from_json,
    class_json,
    frac_str,
    map_str,
    parse_direction_class,
    parse_map,
    parse_point,
    parse_rational,
    point_str,
)


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        self.print_usage(sys.stderr)
        print(f"error: {message}", file=sys.stderr)
        raise SystemExit(1)


def _fmt_float(x: float) -> str:
    return format(x, ".12g")


def _fmt_complex(z: complex) -> str:
    if abs(z.real) == float("inf"):
        return "inf"
    return f"{_fmt_float(z.real)}{'+' if z.imag >= 0 else '-'}{_fmt_float(abs(z.imag))}j"


def _point_json(point) -> dict:
    return {"a": point.center.to_str(), "s": frac_str(point.exponent)}


def _divisor_json(divisor) -> dict:
    return {
        "parts": [
            {"poly": s.to_str("z"), "multiplicity": i} for s, i in divisor.parts
        ],
        "inf_mult": divisor.inf_mult,
        "deg_h": divisor.total_degree,
    }


def _measure_json(measure) -> dict:
    return {
        "atoms": [
            {**class_json(cls), "mass": frac_str(mass)} for cls, mass in measure.atoms
        ],
        "point_mass": frac_str(measure.point_mass),
    }


def _slope_json(phi, point, report) -> dict:
    try:
        measured = slope_measured(phi, point, report.cls)
    except IrrationalDirection:
        measured = None
    return {
        **class_json(report.cls),
        "dep": report.dep,
        "fixed": report.fixed,
        "rhs": frac_str(report.rhs),
        "measured": frac_str(measured) if measured is not None else None,
    }


def _reduced_map_json(red, key: str) -> dict:
    """The reduced map under key when the reduction fixes the point, else
    the image class; reports put it last."""
    if red.fixes_point:
        return {key: {"num": red.tilde_num.to_str("z"), "den": red.tilde_den.to_str("z")}}
    return {"image": class_json(red.image_class)}


def _cmd_reduce(args, phi, point) -> dict:
    red = reduction_at(phi, point)
    return {
        "map": map_str(phi),
        "point": point_str(point),
        "reduced_num": [frac_str(c) for c in red.reduced_num.coeffs()],
        "reduced_den": [frac_str(c) for c in red.reduced_den.coeffs()],
        "h": red.h.dehom.to_str("z"),
        "h_inf_mult": red.h.inf_mult,
        "deg_h": red.h.degree,
        "tilde_degree": red.tilde_degree,
        **_reduced_map_json(red, "tilde"),
    }


def _cmd_depths(args, phi, point) -> dict:
    info = intrinsic_data(phi, point)
    out = _divisor_json(info.depths)
    out["classes"] = [{**class_json(cls), "depth": dep} for cls, dep in sorted_classes(info.depths)]
    return out


def _cmd_intrinsic(args, phi, point) -> dict:
    info = intrinsic_data(phi, point)
    return {
        "fixes_point": info.fixes_point,
        "local_degree": info.tilde_degree if info.fixes_point else None,
        "totally_invariant": info.totally_invariant,
        "depths": _divisor_json(info.depths),
        **_reduced_map_json(info, "tangent"),
    }


def _cmd_ordres(args, phi, point) -> dict:
    return {"ord_res": frac_str(ord_res(phi, point))}


def _cmd_hypres(args, phi, point) -> dict:
    out = {
        "ord_res": frac_str(ord_res(phi, point)),
        "hyp_res": frac_str(hyp_res(phi, point)),
    }
    if args.direct:
        out["hyp_res_direct"] = frac_str(hyp_res_direct(phi, point))
    return out


def _cmd_slope(args, phi, point) -> dict:
    if args.direction is not None:
        return _slope_json(phi, point, slope_rhs(phi, point, parse_direction_class(args.direction, point)))
    return {"slopes": [_slope_json(phi, point, report) for report in _slope_table(phi, point)]}


def _cmd_minlocus(args, phi, start) -> dict:
    result = min_locus(phi, start)
    return {
        "minimizer": _point_json(result.minimizer),
        "min_hyp_res": frac_str(result.min_hyp_res),
        "ord_res": frac_str(ord_res(phi, result.minimizer)),
        "verdict": result.verdict.value,
        "unique": result.unique,
        "trail": [
            {**_point_json(pt), "class": class_json(cls), "step": frac_str(step)}
            for pt, cls, step in result.trail
        ],
        "zero_slope": [class_json(cls) for cls in result.zero_slope_classes],
    }


def _cmd_semistable(args, phi, point) -> dict:
    return {"verdict": semistability(phi, point).value}


def _cmd_equidist(args, phi, point) -> dict:
    report = depth_sequence(phi, point, args.nmax)
    levels = [
        {"n": n, **_measure_json(measure)}
        for n, measure in zip(report.levels, report.measures)
    ]
    return {
        "levels": levels,
        "tv": [frac_str(t) for t in report.tv_steps],
        "predicted": _measure_json(report.predicted) if report.predicted else "unknown",
        "match": report.match if report.match is not None else "n/a",
    }


def _parse_t_values(text: str) -> list[complex]:
    values = []
    for part in text.split(","):
        if not part.strip():
            continue
        try:
            value = complex(part)
        except ValueError as exc:
            raise ParseError(f"--t value {part.strip()!r} is not a complex number") from exc
        if cmath.isnan(value):
            raise ParseError(f"--t value {part.strip()!r} is not a number")
        values.append(value)
    if not values:
        raise ParseError("--t needs at least one parameter value")
    return values


def _parse_hypothesis(text: str) -> DirectionMeasure:
    try:
        atoms = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ParseError(f"hypothesis is not valid JSON: {exc}") from exc
    if not isinstance(atoms, list) or not all(
        isinstance(atom, dict) and isinstance(atom.get("mass"), str) for atom in atoms
    ):
        raise ParseError('hypothesis must be a JSON list of {"class": ..., "mass": "p/q"} objects')
    parsed = []
    for atom in atoms:
        try:
            cls = class_from_json(atom)
        except (KeyError, TypeError) as exc:
            raise ParseError(f"hypothesis atom {atom!r} is incomplete or mistyped") from exc
        mass = parse_rational(atom["mass"])
        if not 0 <= mass <= 1:
            raise ParseError(f"hypothesis mass {atom['mass']!r} is not in [0, 1]")
        parsed.append((cls, mass))
    return DirectionMeasure(tuple(parsed))


def _positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"needs an integer >= 1, got {text!r}")
    return value


def _positive_float(text: str) -> float:
    value = float(text)
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"needs a finite number > 0, got {text!r}")
    return value


def _cmd_degcheck(args, phi, _) -> dict:
    t_values = _parse_t_values(args.t)
    hypothesis = None if args.hypothesis == "auto" else _parse_hypothesis(args.hypothesis)
    report = degeneration_report(phi, t_values, args.n, hypothesis=hypothesis, eps=args.eps)
    per_t = [{"t": _fmt_complex(entry["t"]), "masses": [
        {
            **class_json(row["cls"]),
            "predicted": _fmt_float(float(row["predicted"])),
            "sampled": _fmt_float(row["sampled"]),
            "per_target": [_fmt_float(m) for m in row["per_target"]],
            "targets": [_fmt_complex(tg) for tg in row["targets"]],
        }
        for row in entry["rows"]
    ]} for entry in report.sampled]
    return {
        "t": [_fmt_complex(t) for t in report.t_values],
        "per_t": per_t,
        "max_discrepancy": _fmt_float(report.max_discrepancy),
    }


# verb -> (handler, the argument that holds its point or None, extra
# flags); every verb takes --map and --pretty
_VERBS = {
    "reduce": (_cmd_reduce, "point", ()),
    "depths": (_cmd_depths, "point", ()),
    "intrinsic": (_cmd_intrinsic, "point", ()),
    "ordres": (_cmd_ordres, "point", ()),
    "hypres": (_cmd_hypres, "point", (("--direct", {"action": "store_true"}),)),
    "slope": (_cmd_slope, "point", (("--direction", {}),)),
    "minlocus": (_cmd_minlocus, "start", (("--start", {"default": "gauss"}),)),
    "semistable": (_cmd_semistable, "point", ()),
    "equidist": (_cmd_equidist, "point", (("--nmax", {"type": _positive_int, "default": 4}),)),
    "degcheck": (
        _cmd_degcheck,
        None,
        (
            ("--t", {"required": True}),
            ("--n", {"type": _positive_int, "default": 12}),
            ("--eps", {"type": _positive_float, "default": 0.1}),
            ("--hypothesis", {"default": "auto"}),
        ),
    ),
}


def build_parser() -> argparse.ArgumentParser:
    """The CLI parser with every verb's sub-parser; main reuses _PARSER."""
    parser = _Parser(prog="nadyn", description="exact non-archimedean dynamics solver")
    sub = parser.add_subparsers(dest="verb", required=True)
    for name, (_, point, extra) in _VERBS.items():
        p = sub.add_parser(name)
        p.add_argument("--map", required=True)
        if point == "point":  # --start of minlocus is among its extra flags
            p.add_argument("--point", default="gauss")
        p.add_argument("--pretty", action="store_true")
        for flag, kwargs in extra:
            p.add_argument(flag, **kwargs)
    return parser


_PARSER = build_parser()


def main(argv=None) -> int:
    try:
        args = _PARSER.parse_args(argv)  # None reads sys.argv[1:]
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else 1
    fn, point = _VERBS[args.verb][:2]
    try:
        phi = parse_map(args.map)
        out = fn(args, phi, parse_point(getattr(args, point)) if point else None)
    except ParseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except NadynError as exc:
        print(json.dumps({"error": str(exc), "type": type(exc).__name__}))
        return 2
    indent = 2 if args.pretty else None
    print(json.dumps(out, indent=indent))
    return 0


if __name__ == "__main__":
    sys.exit(main())
