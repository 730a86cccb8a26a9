"""What a fresh interpreter loads: numpy only for the float sampler, and
never ``dataclasses`` or the source tools it imports.

Only ``degcheck`` uses numpy, and ``nadyn.degeneration`` imports it inside
the functions that need it, so a fresh process that answers an exact query
never loads it.  Each test runs in a subprocess, because this one has
imported numpy long ago.  The third test pins what the benchmark reads of
the package: its cache sweep and its tracer's table of wrapped functions.
The last runs the ``python -m nadyn.cli`` entry point against in-process
``main``.
"""

import contextlib
import io
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from nadyn.cli import main

ROOT = Path(__file__).resolve().parent.parent


def _run(script: str, *args: str) -> dict:
    """Run script with args in a fresh interpreter on this checkout; its last
    stdout line is a JSON object."""
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-c", script, *args],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


_EXACT_THEN_FLOAT = """
import contextlib, io, json, sys
import nadyn, nadyn.cli

MAP = "(t*z^2+1)/t"

def run(*argv):
    with contextlib.redirect_stdout(io.StringIO()):
        return nadyn.cli.main(list(argv))

seen = {"codes": {}}
for verb, *rest in (["minlocus"], ["reduce"], ["slope"], ["equidist", "--nmax", "2"]):
    seen["codes"][verb] = run(verb, "--map", MAP, *rest)
seen["numpy_after_exact"] = "numpy" in sys.modules
seen["degeneration_loaded"] = "nadyn.degeneration" in sys.modules
seen["degcheck"] = run("degcheck", "--map", MAP, "--t", "1e-3", "--n", "4")
seen["numpy_after_degcheck"] = "numpy" in sys.modules
print(json.dumps(seen))
"""


def test_exact_verbs_run_without_numpy_and_degcheck_loads_it():
    seen = _run(_EXACT_THEN_FLOAT)
    assert seen["codes"] == {"minlocus": 0, "reduce": 0, "slope": 0, "equidist": 0}
    assert seen["numpy_after_exact"] is False
    assert seen["degeneration_loaded"] is True
    assert seen["degcheck"] == 0
    assert seen["numpy_after_degcheck"] is True


# importing dataclasses loads the other four, about 10 ms of a fresh start
_HEAVY = ("dataclasses", "inspect", "ast", "dis", "tokenize")

_LOADED_BY = """
import contextlib, io, json, runpy, sys
code = None
if sys.argv[1:]:  # run as python -m nadyn.cli runs
    with contextlib.redirect_stdout(io.StringIO()):
        try:
            runpy.run_module("nadyn.cli", run_name="__main__", alter_sys=True)
        except SystemExit as done:
            code = done.code
else:
    import nadyn
print(json.dumps({"code": code, "heavy": sorted(set(sys.modules) & set(%r))}))
""" % (_HEAVY,)


@pytest.mark.parametrize(
    "argv, code", [([], None), (["minlocus", "--map", "(t*z^2+1)/t"], 0)], ids=["import", "minlocus"]
)
def test_fresh_start_up_loads_no_dataclasses_or_source_tools(argv, code):
    assert _run(_LOADED_BY, *argv) == {"code": code, "heavy": []}


_BENCH_CONTRACT = """
import json, sys
sys.path.insert(0, sys.argv[1])
import run, tracer

_, caches = run.load_cli()
from nadyn.redux import _reduction, ray

wanted = {f"{module}.{path}" for module, paths in tracer.LAYERS.values() for path in paths}
found = {key for key, *_ in tracer.layer_functions()}
print(json.dumps({
    "caches_are_known": set(caches) == {ray, _reduction},
    "numpy": "numpy" in sys.modules,
    "unresolved": sorted(wanted - found),
}))
"""


def test_benchmark_sweep_and_tracer_resolve_without_numpy():
    """bench/run.py's cache sweep and bench/tracer.py's layer table, as the
    benchmark runs them: the sweep finds exactly the program's caches without
    importing anything, and every traced function resolves."""
    seen = _run(_BENCH_CONTRACT, str(ROOT / "bench"))
    assert seen == {"caches_are_known": True, "numpy": False, "unresolved": []}


@pytest.mark.parametrize(
    "argv, code",
    [
        (["reduce", "--map", "(z^2-t)/z"], 0),
        (["reduce"], 1),  # the pinned usage error
        (["depths", "--map", "z/t"], 2),  # DegreeTooLow
    ],
)
def test_module_entry_point_matches_main(monkeypatch, argv, code):
    monkeypatch.setenv("COLUMNS", "80")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    done = subprocess.run(
        [sys.executable, "-m", "nadyn.cli", *argv],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=path),
        timeout=120,
    )
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        assert main(argv) == code
    assert (done.returncode, done.stdout, done.stderr) == (code, out.getvalue(), err.getvalue())
