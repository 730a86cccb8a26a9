"""Span tracer for the nadyn benchmark's traced run.

The tracer wraps public functions of each solver layer from outside the
program: every binding of a wrapped function in any ``nadyn`` module is
replaced (``from .x import y`` copies the reference into the importing
module), and methods are replaced on their class.  Each call records a span
(name, start, end, parent span, query id) and adds to the call count and
self time of its function.  Self time is span time minus the time of its
child spans.
"""

from __future__ import annotations

import functools
import json
import sys
from collections import Counter, defaultdict
from contextlib import contextmanager
from math import gcd
from time import perf_counter

# metric group -> (module, attribute paths).  A group's count and self time
# are the sums over its functions.
LAYERS: dict[str, tuple[str, tuple[str, ...]]] = {
    "parsing.parse_map": ("nadyn.parsing", ("parse_map",)),
    "parsing.parse_point": ("nadyn.parsing", ("parse_point",)),
    "cli.main": ("nadyn.cli", ("main",)),
    "scalars.arith": (
        "nadyn.scalars",
        ("KScalar.__add__", "KScalar.__sub__", "KScalar.__mul__", "KScalar.__truediv__"),
    ),
    "polys.mul": ("nadyn.polys", ("QPoly.__mul__",)),
    "polys.divmod": ("nadyn.polys", ("QPoly.__divmod__",)),
    "polys.gcd": ("nadyn.polys", ("QPoly.gcd",)),
    "polys.rational_roots": ("nadyn.polys", ("rational_roots",)),
    "respoly.squarefree_decomposition": ("nadyn.respoly", ("squarefree_decomposition",)),
    "respoly.homogeneous_gcd": ("nadyn.respoly", ("homogeneous_gcd",)),
    "berkspace": (
        "nadyn.berkspace",
        ("chart", "step_into", "path_point", "direction_toward", "rho", "wedge"),
    ),
    "redux.compose": ("nadyn.redux", ("compose", "iterate")),
    "redux.conjugate": ("nadyn.redux", ("precompose", "postcompose", "conjugate")),
    "redux.sylvester_resultant": ("nadyn.redux", ("sylvester_resultant",)),
    "redux.make_map": ("nadyn.redux", ("make_map",)),
    "redux.intrinsic_data": ("nadyn.redux", ("intrinsic_data",)),
    "crucial.hyp_res": ("nadyn.crucial", ("hyp_res",)),
    "crucial.hyp_res_direct": ("nadyn.crucial", ("hyp_res_direct",)),
    "crucial.min_locus": ("nadyn.crucial", ("min_locus",)),
    "crucial.slope_measured": ("nadyn.crucial", ("slope_measured",)),
    "equidist.depth_sequence": ("nadyn.equidist", ("depth_sequence",)),
    "equidist.predicted_limit": ("nadyn.equidist", ("predicted_limit",)),
    "equidist.tv_distance": ("nadyn.equidist", ("tv_distance",)),
    "degeneration.specialize": ("nadyn.degeneration", ("specialize",)),
    "degeneration.pullback_sample": ("nadyn.degeneration", ("pullback_sample",)),
    "degeneration.aberth_roots": ("nadyn.degeneration", ("aberth_roots",)),
    "degeneration.report": ("nadyn.degeneration", ("degeneration_report",)),
}

# groups whose returned maps feed redux.max_coeff_bits and redux.max_level
_MAP_PRODUCERS = {"redux.compose", "redux.conjugate", "redux.make_map"}

SPAN_CAP = 100_000


def _resolve(module: str, path: str):
    owner = sys.modules[module]
    *outer, name = path.split(".")
    for part in outer:
        owner = getattr(owner, part)
    return owner, name


def layer_functions():
    """(key, group, owner, attribute, function) for every wrapped function."""
    for group, (module, paths) in LAYERS.items():
        for path in paths:
            owner, name = _resolve(module, path)
            yield f"{module}.{path}", group, owner, name, owner.__dict__[name]


def _map_size(phi) -> tuple[int, int]:
    """(largest numerator or denominator bit length, largest level) of a map.

    A scalar may carry a multiple of its level; the level counted is the
    smallest N with the scalar in Q(t^(1/N)).
    """
    bits = 0
    level = 1
    for c in phi.num + phi.den:
        g = c.level
        for poly in (c.num, c.den):
            for e, q in poly.terms:
                g = gcd(g, e)
                bits = max(bits, q.numerator.bit_length(), q.denominator.bit_length())
        level = max(level, c.level // g)
    return bits, level


class Tracer:
    """Collects spans, call counts and self times of the wrapped functions."""

    def __init__(self):
        self.query_id = -1
        self.calls: Counter[str] = Counter()
        self.self_s: defaultdict[str, float] = defaultdict(float)
        # time inside the outermost call of each group: inclusive of callees
        self.inclusive_s: defaultdict[str, float] = defaultdict(float)
        self._open: Counter[str] = Counter()
        self.names: dict[str, str] = {}  # function key -> group
        self.spans: list[tuple] = []
        self.spans_dropped = 0
        self._stack: list[list] = []
        self._next_id = 0
        self.max_coeff_bits = 0
        self.max_level = 0
        self.descent_steps = 0
        self.descent_depth = 0
        self.hyp_res_in_descent = 0
        self.points_sampled = 0

    # -- recording ----------------------------------------------------------

    def _wrap(self, key: str, group: str, fn):
        tracer = self
        on_return = self._return_hook(group)
        in_descent = group == "crucial.min_locus"
        is_probe = group == "crucial.hyp_res"

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tracer._stack
            span_id = tracer._next_id
            tracer._next_id = span_id + 1
            parent = stack[-1] if stack else None
            frame = [0.0, span_id]  # child time, span id
            stack.append(frame)
            if in_descent:
                tracer.descent_depth += 1
            if is_probe and tracer.descent_depth:
                tracer.hyp_res_in_descent += 1
            tracer._open[group] += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                if in_descent:
                    tracer.descent_depth -= 1
                dur = end - start
                tracer._open[group] -= 1
                if not tracer._open[group]:
                    tracer.inclusive_s[group] += dur
                tracer.calls[key] += 1
                tracer.self_s[key] += dur - frame[0]
                if parent is not None:
                    parent[0] += dur
                if len(tracer.spans) < SPAN_CAP:
                    tracer.spans.append(
                        (span_id, key, start, end, parent[1] if parent else None, tracer.query_id)
                    )
                else:
                    tracer.spans_dropped += 1
            if on_return is not None:
                on_return(result)
            return result

        return traced

    def _return_hook(self, group: str):
        if group in _MAP_PRODUCERS:

            def record_map(phi):
                bits, level = _map_size(phi)
                self.max_coeff_bits = max(self.max_coeff_bits, bits)
                self.max_level = max(self.max_level, level)

            return record_map
        if group == "crucial.min_locus":

            def record_descent(result):
                self.descent_steps += len(result.trail)

            return record_descent
        if group == "degeneration.pullback_sample":

            def record_points(points):
                self.points_sampled += len(points)

            return record_points
        return None

    # -- installation -------------------------------------------------------

    @contextmanager
    def installed(self):
        """Wrap every layer function for the duration of the block."""
        modules = [m for name, m in list(sys.modules.items())
                   if name == "nadyn" or name.startswith("nadyn.")]
        undo = []
        try:
            for key, group, owner, name, fn in layer_functions():
                self.names[key] = group
                wrapper = self._wrap(key, group, fn)
                if isinstance(owner, type):
                    setattr(owner, name, wrapper)
                    undo.append((owner, name, fn))
                    continue
                for mod in modules:
                    for attr, value in list(vars(mod).items()):
                        if value is fn:
                            setattr(mod, attr, wrapper)
                            undo.append((mod, attr, fn))
            yield self
        finally:
            for owner, name, fn in reversed(undo):
                setattr(owner, name, fn)

    # -- results ------------------------------------------------------------

    def group_calls(self, group: str) -> int:
        return sum(n for key, n in self.calls.items() if self.names[key] == group)

    def group_self_s(self, group: str) -> float:
        return sum(s for key, s in self.self_s.items() if self.names[key] == group)

    def exact_counts(self) -> dict[str, int]:
        """Counts that must repeat exactly between runs of the same code."""
        out = {f"{group}.calls": self.group_calls(group) for group in LAYERS}
        out.update(
            {
                "redux.max_coeff_bits": self.max_coeff_bits,
                "redux.max_level": self.max_level,
                "crucial.descent_steps": self.descent_steps,
                "degeneration.points_sampled": self.points_sampled,
            }
        )
        return out

    def layer_self_s(self) -> dict[str, float]:
        return {f"{group}.self_s": self.group_self_s(group) for group in LAYERS}

    def write_spans(self, path) -> None:
        with open(path, "w") as fh:
            for span_id, key, start, end, parent, query in self.spans:
                fh.write(
                    json.dumps(
                        {"id": span_id, "name": key, "start": start, "end": end,
                         "parent": parent, "query": query}
                    )
                )
                fh.write("\n")
