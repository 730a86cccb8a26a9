#!/usr/bin/env python3
"""nadyn benchmark: seeded CLI workloads run as a closed loop.

    python3 bench/run.py --workload tree --seed 1 --seconds 30 --trace 0

Each query is one ``nadyn`` CLI invocation, run in this process through
``nadyn.cli.main(argv)`` with stdout captured.  One client sends the next
query only when the previous one has returned, as a CLI user does.  Program
caches are cleared before every query, so each behaves like a fresh
invocation.  The list is run from the top, then again, until ``--seconds``
have passed; the first pass always completes.  Every output is checked
outside the timed region.  Each latency is corrected to a reference CPU
speed, measured by the reference slices of ``speed.py`` that run after
every query, because the speed of a shared host drifts in phases longer
than a run; ``info.uncorrected`` keeps the wall-clock figures.

``--trace 0`` prints the end-to-end metrics; ``--trace 1`` runs the list
once untraced and once under the span tracer and prints the per-layer
metrics with the tracing overhead.  ``--workload all`` runs every workload
in turn.  The last line of stdout is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import os

# pin BLAS/OpenMP pools before numpy is imported (by nadyn.degeneration)
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS"):
    os.environ[_var] = "1"

import argparse
import contextlib
import hashlib
import io
import json
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"
sys.path.insert(0, str(BENCH_DIR))

import checks  # noqa: E402
import workloads  # noqa: E402
from speed import SpeedProbe  # noqa: E402
from tracer import LAYERS, Tracer  # noqa: E402

IMPORT_REPEATS = 9
GENERATE_REPEATS = 5
SETUP_SLICES = 20  # reference slices that correct each timed set-up step
WARMUP_QUERIES = 3
TAIL_BEYOND = 10  # the tail percentile leaves this many queries above it

END_TO_END_UNITS = {
    "setup_s": "s",
    "queries_per_s": "1/s",
    "query_p50_ms": "ms",
    "query_tail_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_cli():
    """Import nadyn from this checkout's sources, never from elsewhere."""
    if not (SRC / "nadyn" / "__init__.py").is_file():
        raise SystemExit(f"error: no nadyn sources under {SRC}")
    sys.path.insert(0, str(SRC))
    import nadyn
    import nadyn.cli

    if Path(nadyn.__file__).resolve().parent != SRC / "nadyn":
        raise SystemExit(f"error: imported nadyn from {nadyn.__file__}, not {SRC}")
    caches = [
        value
        for name, module in sys.modules.items()
        if name.startswith("nadyn.")
        for value in vars(module).values()
        if callable(getattr(value, "cache_clear", None))
    ]
    return nadyn.cli, caches


class QueryRunner:
    """Runs one CLI query in-process and captures what a shell would see."""

    def __init__(self, cli, caches):
        self.cli = cli
        self.caches = caches

    def __call__(self, argv: list[str]):
        for cache in self.caches:
            cache.cache_clear()
        out, err = io.StringIO(), io.StringIO()
        tb = None
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            start = time.perf_counter()
            try:
                code = self.cli.main(argv)
            except Exception:  # a traceback is an outcome to check, not a crash
                code = None
                tb = traceback.format_exc()
            latency = time.perf_counter() - start
        return latency, code, out.getvalue(), tb


# Run in a fresh interpreter: time ``import nadyn``, then time reference
# slices (imported only after nadyn, so nothing nadyn needs is preloaded)
# and print the import time corrected to the reference speed.
_IMPORT_PROBE = """
import sys, time
start = time.perf_counter()
import nadyn
elapsed = time.perf_counter() - start
sys.path.insert(0, sys.argv[1])
from speed import SpeedProbe
probe = SpeedProbe()
probe.sample(int(sys.argv[2]))
print(elapsed * probe.run_factor())
"""


def measure_setup(workload: str, seed: int, probe: SpeedProbe) -> float:
    """Median fresh-interpreter ``import nadyn`` plus median list generation.

    Both are corrected to the reference speed: the import by reference slices
    run right after it in the same interpreter, list generation by slices run
    around it in this one.
    """
    env = dict(os.environ, PYTHONPATH=str(SRC))
    imports = []
    for _ in range(IMPORT_REPEATS):
        out = subprocess.run([sys.executable, "-c", _IMPORT_PROBE, str(BENCH_DIR), str(SETUP_SLICES)],
                             env=env, cwd=ROOT, check=True, timeout=60, capture_output=True, text=True)
        imports.append(float(out.stdout))
    gens = []
    for _ in range(GENERATE_REPEATS):
        probe.sample(SETUP_SLICES)
        start = time.perf_counter()
        workloads.generate(workload, seed)
        elapsed = time.perf_counter() - start
        probe.sample(SETUP_SLICES)
        gens.append(elapsed * probe.factor_at(start + elapsed / 2))
    return statistics.median(imports) + statistics.median(gens)


def code_id() -> str:
    """Digest of the solver and benchmark sources, to recognise one commit."""
    h = hashlib.sha256()
    for path in sorted([*SRC.rglob("*.py"), *BENCH_DIR.glob("*.py")]):
        h.update(str(path.relative_to(ROOT)).encode())
        h.update(path.read_bytes())
    return h.hexdigest()[:16]


def outputs_digest(results) -> str:
    h = hashlib.sha256()
    for _, code, stdout, tb in results:
        h.update(f"{code}\n{stdout}\n{tb is not None}\n".encode())
    return h.hexdigest()


def compare_with_record(name: str, values: dict) -> list[str]:
    """Keys whose value differs from an earlier run of the same code and input."""
    path = OUT_DIR / f"{name}.json"
    if path.is_file():
        before = json.loads(path.read_text())
        return sorted(k for k in set(before) | set(values) if before.get(k) != values.get(k))
    OUT_DIR.mkdir(exist_ok=True)
    path.write_text(json.dumps(values, sort_keys=True))
    return []


def check_pass(queries, results) -> list[str | None]:
    return [checks.check(argv, code, stdout, tb)
            for argv, (_, code, stdout, tb) in zip(queries, results)]


def tail(latencies: list[float]) -> tuple[float, float]:
    """(value, percentile) of the highest percentile with TAIL_BEYOND samples above it."""
    ordered = sorted(latencies)
    n = len(ordered)
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def run_probes(run, seed: int) -> dict:
    probes = workloads.defect_probes(seed)
    reasons = [checks.check(argv, *run(argv)[1:]) for argv in probes]
    return {"attempted": len(probes), "failed": sum(r is not None for r in reasons),
            "reasons": sorted({r for r in reasons if r})}


def end_to_end(workload: str, seed: int, seconds: float, run) -> dict:
    probe = SpeedProbe()
    setup_s = measure_setup(workload, seed, probe)
    queries = workloads.generate(workload, seed)
    for argv in queries[:WARMUP_QUERIES]:
        run(argv)
        probe.sample()

    n = len(queries)
    timed = [[] for _ in queries]  # (start, raw latency) of each run of each query
    first = []
    repeats_differ = 0
    deadline = time.perf_counter() + seconds
    i = 0
    while i < n or time.perf_counter() < deadline:
        k = i % n
        start = time.perf_counter()
        result = run(queries[k])
        probe.sample()
        timed[k].append((start, result[0]))
        if i < n:
            first.append(result)
        elif result[1:] != first[k][1:]:
            repeats_differ += 1
        i += 1
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    reasons = check_pass(queries, first)
    failed = sum(len(timed[k]) for k, r in enumerate(reasons) if r) + repeats_differ
    raw = [statistics.median(lat for _, lat in runs) for runs in timed]
    per_query = [statistics.median(lat * probe.factor_at(t + lat / 2) for t, lat in runs)
                 for runs in timed]
    tail_s, tail_pct = tail(per_query)
    digest = outputs_digest(first)
    changed = compare_with_record(f"digest-{code_id()}-{workload}-{seed}", {"digest": digest})
    metrics = {
        "setup_s": setup_s,
        "queries_per_s": n / sum(per_query),
        "query_p50_ms": 1000.0 * statistics.median(per_query),
        "query_tail_ms": 1000.0 * tail_s,
        "peak_rss_mb": rss_mb,
    }
    info = {
        "workload": workload,
        "seed": seed,
        "queries": n,
        "executions": i,
        "passes": round(i / n, 3),
        "tail_percentile": round(tail_pct, 3),
        "tail_samples": n,
        "speed_factor": probe.run_factor(),
        "uncorrected": {
            "queries_per_s": n / sum(raw),
            "query_p50_ms": 1000.0 * statistics.median(raw),
            "query_tail_ms": 1000.0 * tail(raw)[0],
        },
        "failed_frac": failed / i,
        "failures": sorted({r for r in reasons if r}),
        "repeats_differ": repeats_differ,
        "stdout_sha256": digest,
        "digest_changed_since_last_run": bool(changed),
        "defect_probes": run_probes(run, seed),
    }
    return {
        "correct": failed == 0 and not changed,
        "attempted": i,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit}
                    for name, unit in END_TO_END_UNITS.items()},
        "info": info,
    }


def per_layer(workload: str, seed: int, run) -> dict:
    queries = workloads.generate(workload, seed)
    for argv in queries[:WARMUP_QUERIES]:
        run(argv)
    plain = [run(argv) for argv in queries]
    tracer = Tracer()
    traced = []
    with tracer.installed():
        for qid, argv in enumerate(queries):
            tracer.query_id = qid
            traced.append(run(argv))
    untraced_s = sum(r[0] for r in plain)
    traced_s = sum(r[0] for r in traced)

    reasons = check_pass(queries, plain) + check_pass(queries, traced)
    differ = sum(a[1:] != b[1:] for a, b in zip(plain, traced))
    failed = sum(r is not None for r in reasons) + differ
    exact = tracer.exact_counts()
    changed = compare_with_record(f"counts-{code_id()}-{workload}-{seed}", exact)

    OUT_DIR.mkdir(exist_ok=True)
    spans_path = OUT_DIR / f"spans-{workload}-{seed}.jsonl"
    tracer.write_spans(spans_path)

    descent = exact["crucial.descent_steps"]
    pulls = exact["degeneration.pullback_sample.calls"]
    specs = exact["degeneration.specialize.calls"]
    values = {**exact, **tracer.layer_self_s()}
    values["crucial.hyp_res_per_step"] = tracer.hyp_res_in_descent / descent if descent else 0.0
    values["degeneration.reanchor_ratio"] = pulls / specs if specs else 0.0
    values["trace.overhead_s"] = traced_s - untraced_s
    values["trace.overhead_frac"] = (traced_s - untraced_s) / untraced_s
    values["trace.untraced_s"] = untraced_s

    shares = sorted(((s, k) for k, s in tracer.layer_self_s().items()), reverse=True)
    info = {
        "workload": workload,
        "seed": seed,
        "queries": len(queries),
        "spans_file": str(spans_path.relative_to(ROOT)),
        "spans_recorded": len(tracer.spans),
        "spans_dropped": tracer.spans_dropped,
        "exact_counts_changed_since_last_run": changed,
        "self_time_share": {k: round(s / traced_s, 4) for s, k in shares if s > 0},
        "inclusive_share": {g: round(s / traced_s, 4) for g, s in
                            sorted(tracer.inclusive_s.items(), key=lambda kv: -kv[1])},
        "failures": sorted({r for r in reasons if r}),
    }
    return {
        "correct": failed == 0,
        "attempted": 2 * len(queries),
        "failed": failed,
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in per_layer_units().items()},
        "info": info,
    }


def per_layer_units() -> dict[str, str]:
    units = {}
    for group in LAYERS:
        units[f"{group}.calls"] = "count"
        units[f"{group}.self_s"] = "s"
    units.update({
        "redux.max_coeff_bits": "bits",
        "redux.max_level": "count",
        "crucial.descent_steps": "count",
        "crucial.hyp_res_per_step": "ratio",
        "degeneration.points_sampled": "count",
        "degeneration.reanchor_ratio": "ratio",
        "trace.overhead_s": "s",
        "trace.overhead_frac": "ratio",
        "trace.untraced_s": "s",
    })
    return units


def environment() -> dict:
    return {"python": platform.python_version(), "cores": os.cpu_count(),
            "machine": platform.machine()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=[*workloads.WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=36.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    cli, caches = load_cli()
    run = QueryRunner(cli, caches)
    names = workloads.WORKLOADS if args.workload == "all" else (args.workload,)
    reports = {}
    for name in names:
        if args.trace:
            report = per_layer(name, args.seed, run)
        else:
            report = end_to_end(name, args.seed, args.seconds, run)
        reports[name] = report
        print(json.dumps({"info": {**report["info"], **environment()}}))
        for metric, m in report["metrics"].items():
            print(f"{name:>9} {metric:<42} {m['value']:>14.6g} {m['unit']}")

    if len(reports) == 1:
        metrics = reports[names[0]]["metrics"]
    else:
        metrics = {f"{name}.{metric}": m for name, r in reports.items()
                   for metric, m in r["metrics"].items()}
    print(json.dumps({
        "correct": all(r["correct"] for r in reports.values()),
        "attempted": sum(r["attempted"] for r in reports.values()),
        "failed": sum(r["failed"] for r in reports.values()),
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
