"""Byte-identity of every benchmark query's output.

Runs the query lists of ``bench/workloads.py`` at seeds 1 and 2 in-process
through ``nadyn.cli.main`` and compares one SHA-256 per workload and seed,
over each query's (argv, stdout, stderr, exit code), with
``tests/data/workload_digests.json`` (keyed by seed, then workload).
Program caches are cleared before every query, as the benchmark does.

Re-record the file (only when an output change is intended) with

    PYTHONPATH=src python tests/test_workload_digests.py --record
"""

import contextlib
import hashlib
import io
import json
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = ROOT / "tests" / "data" / "workload_digests.json"
SEEDS = (1, 2)

sys.path.insert(0, str(ROOT / "bench"))
import workloads  # noqa: E402

import nadyn.cli  # noqa: E402


def _caches():
    return [
        value
        for name, module in sys.modules.items()
        if name.startswith("nadyn.")
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    ]


def workload_digest(name: str, seed: int) -> str:
    caches = _caches()
    h = hashlib.sha256()
    for argv in workloads.generate(name, seed):
        for cache in caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = nadyn.cli.main(argv)
        record = [argv, out.getvalue(), err.getvalue(), code]
        h.update(json.dumps(record, separators=(",", ":")).encode() + b"\n")
    return h.hexdigest()


# seed-1 ids stay the bare workload names they had before seed 2 was added
@pytest.mark.parametrize(
    "name, seed",
    [
        pytest.param(name, seed, id=name if seed == 1 else f"{name}-seed{seed}")
        for seed in SEEDS
        for name in workloads.WORKLOADS
    ],
)
def test_workload_outputs_are_byte_identical(name, seed):
    recorded = json.loads(DIGESTS.read_text())
    assert workload_digest(name, seed) == recorded[str(seed)][name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    digests = {
        str(seed): {name: workload_digest(name, seed) for name in workloads.WORKLOADS}
        for seed in SEEDS
    }
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
