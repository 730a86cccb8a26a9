"""Identity of every stored lift, not only of the printed invariants.

A lift is one representative of a projective map, and most outputs are
invariant under scaling it, so a change in a lift's sign or scale would show
only where it happens to move a printed value.  This pins the lifts
themselves: one SHA-256 per workload and seed over ``parse_map(m).lift`` of
every distinct ``--map`` of ``bench/workloads.py`` (keyed by seed, then
workload), and one over the level lifts of the ``equidist`` case
``(z^2+t)/(1+t*z)+1/t`` at ``a=0;s=1`` up to level 5, as ``depth_sequence``
composes them.  Each entry is written with its type, so an int that turns
into an equal Fraction changes the digest too.

Re-record ``tests/data/lift_digests.json`` (only when a lift change is
intended) with

    PYTHONPATH=src python tests/test_lift_digests.py --record
"""

import hashlib
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "lift_digests.json"
SEEDS = (1, 2, 3)
EQUIDIST_MAP, EQUIDIST_POINT, EQUIDIST_LEVELS = "(z^2+t)/(1+t*z)+1/t", "a=0;s=1", 5

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

from nadyn import parse_map, parse_point  # noqa: E402
from nadyn.redux import chart_conjugate_lift, compose_lifts  # noqa: E402


def _lift_record(lift) -> list:
    def entries(polys):
        return [[[e, type(c).__name__, str(c)] for e, c in p.terms] for p in polys]

    return [lift.level, entries(lift.num), entries(lift.den)]


def _digest(records) -> str:
    h = hashlib.sha256()
    for record in records:
        h.update(json.dumps(record, separators=(",", ":")).encode() + b"\n")
    return h.hexdigest()


def workload_lift_digest(name: str, seed: int) -> str:
    maps = []
    for argv in workloads.generate(name, seed):
        text = argv[argv.index("--map") + 1]
        if text not in maps:
            maps.append(text)
    return _digest([text, _lift_record(parse_map(text).lift)] for text in maps)


def equidist_lift_digest() -> str:
    base = current = chart_conjugate_lift(parse_map(EQUIDIST_MAP).lift, parse_point(EQUIDIST_POINT))
    records = [_lift_record(base)]
    for _ in range(EQUIDIST_LEVELS - 1):
        current = compose_lifts(base, current)
        records.append(_lift_record(current))
    return _digest(records)


def all_digests() -> dict:
    digests = {
        str(seed): {name: workload_lift_digest(name, seed) for name in workloads.WORKLOADS}
        for seed in SEEDS
    }
    digests["equidist"] = equidist_lift_digest()
    return digests


@pytest.mark.parametrize(
    "name, seed", [(name, seed) for seed in SEEDS for name in workloads.WORKLOADS]
)
def test_workload_lifts_are_identical(name, seed):
    recorded = json.loads(DIGESTS.read_text())
    assert workload_lift_digest(name, seed) == recorded[str(seed)][name]


def test_equidist_level_lifts_are_identical():
    assert equidist_lift_digest() == json.loads(DIGESTS.read_text())["equidist"]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    DIGESTS.write_text(json.dumps(all_digests(), indent=2) + "\n")
