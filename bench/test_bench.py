"""Tests of the benchmark's workload generator, output checker and tracer."""

import cProfile
import pstats
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import checks  # noqa: E402
import run  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402
from tracer import Tracer, layer_functions  # noqa: E402

VERBS = {"minlocus", "hypres", "slope", "depths", "reduce", "semistable", "equidist", "degcheck"}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_same_seed_gives_byte_identical_list(name):
    first = workloads.serialize(workloads.generate(name, 7))
    assert first == workloads.serialize(workloads.generate(name, 7))
    assert first != workloads.serialize(workloads.generate(name, 8))
    assert {argv[0] for argv in workloads.generate(name, 7)} <= VERBS


@pytest.mark.parametrize("name", ["tree", "iterates"])
def test_rescaled_maps_give_the_same_answers(name):
    """The seed only rescales num and den together: the outputs do not depend on it."""
    runner = run.QueryRunner(*run.load_cli())
    first, second = (workloads.generate(name, seed)[:14] for seed in (3, 4))
    assert first != second
    for a, b in zip(first, second):
        assert runner(a)[1:] == runner(b)[1:], (a, b)


def test_speed_probe_scales_by_nearby_slices():
    probe = speed.SpeedProbe()
    probe.times = [0.1 * i for i in range(5)] + [10 + 0.1 * i for i in range(5)]
    probe.slices = [speed.REFERENCE_S] * 5 + [2 * speed.REFERENCE_S] * 5
    assert probe.factor_at(0.2) == 1.0
    assert probe.factor_at(10.2) == 0.5
    assert probe.factor_at(5.0) == pytest.approx(2 / 3)  # none within the window: nearest ones
    probe.sample(2)
    assert len(probe.slices) == 12 and all(s > 0 for s in probe.slices[-2:])


def test_checker_flags_failures_and_broken_invariants():
    argv = ["hypres", "--map", "t*z^2", "--point", "a=0;s=-1/2", "--direct"]
    good = '{"ord_res": "1/1", "hyp_res": "-1/4", "hyp_res_direct": "-1/4"}'
    assert checks.check(argv, 0, good, None) is None
    assert checks.check(argv, 0, good.replace('direct": "-1/4"', 'direct": "1/4"'), None)
    slope = '{"class": "inf", "dep": 2, "fixed": false, "rhs": "-1/2", "measured": "%s"}'
    assert checks.check(["slope"], 0, slope % "-1/2", None) is None
    assert checks.check(["slope"], 0, slope % "1/2", None)
    assert checks.check(["minlocus"], 0, '{"verdict": "unstable"}', None)
    assert checks.check(["minlocus"], 2, '{"error": "e", "type": "NeedsExtension"}', None) is None
    assert checks.check(["slope"], 2, '{"error": "e", "type": "NeedsExtension"}', None)
    assert checks.check(["reduce"], 1, "", None)
    assert checks.check(["slope"], None, "", "Traceback\nTypeError: boom\n")
    level = '{"levels": [{"n": 1, "atoms": [{"class": "inf", "mass": "%s"}], "point_mass": "0/1"}], "tv": []}'
    assert checks.check(["equidist"], 0, level % "1/1", None) is None
    assert checks.check(["equidist"], 0, level % "1/2", None)
    masses = '{"per_t": [{"t": "0.001", "masses": [{"predicted": "1", "sampled": "%s", "per_target": []}]}]}'
    assert checks.check(["degcheck"], 0, masses % "0.5", None) is None
    assert checks.check(["degcheck"], 0, masses % "1.5", None)


# one query per workload: the first hypres --direct of tree, the first
# --nmax 2 equidist and the first degcheck
_PROFILED = {"tree": 1, "iterates": 0, "degcheck": 0}


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_tracer_counts_equal_cprofile_ncalls(name):
    runner = run.QueryRunner(*run.load_cli())
    argv = workloads.generate(name, 1)[_PROFILED[name]]

    profiler = cProfile.Profile()
    profiler.enable()
    assert runner(argv)[1] == 0
    profiler.disable()
    ncalls = {key[:3]: value[1] for key, value in pstats.Stats(profiler).stats.items()}

    tracers = [Tracer(), Tracer()]
    for tracer in tracers:
        with tracer.installed():
            assert runner(argv)[1] == 0
    for key, _, _, _, fn in layer_functions():
        code = fn.__code__
        expected = ncalls.get((code.co_filename, code.co_firstlineno, code.co_name), 0)
        assert tracers[0].calls[key] == expected, key
    assert tracers[0].exact_counts() == tracers[1].exact_counts()
