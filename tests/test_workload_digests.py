"""Byte-identity of every benchmark query's output.

Runs the seed-1 query lists of ``bench/workloads.py`` in-process through
``nadyn.cli.main`` and compares one SHA-256 per workload, over each query's
(argv, stdout, stderr, exit code), with ``tests/data/workload_digests.json``.
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
SEED = 1

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


def workload_digest(name: str) -> str:
    caches = _caches()
    h = hashlib.sha256()
    for argv in workloads.generate(name, SEED):
        for cache in caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = nadyn.cli.main(argv)
        record = [argv, out.getvalue(), err.getvalue(), code]
        h.update(json.dumps(record, separators=(",", ":")).encode() + b"\n")
    return h.hexdigest()


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_outputs_are_byte_identical(name):
    recorded = json.loads(DIGESTS.read_text())
    assert workload_digest(name) == recorded[name]


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        raise SystemExit(__doc__)
    digests = {name: workload_digest(name) for name in workloads.WORKLOADS}
    DIGESTS.write_text(json.dumps(digests, indent=2) + "\n")
