"""Tests of the traced-run mechanics, on one untraced and two traced passes of grids-out.

    python3 -m pytest perfbench/test_trace.py

grids-out reaches every exactly repeated count: symbolic diff, evaluate and
compile calls, compiled-callable calls, RK4 steps, CSV bytes and sampled
points (the bracket check of `noether ... --solution run`).
"""

import importlib
import inspect
import shutil
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import harness  # noqa: E402
import workloads  # noqa: E402
from tracer import EXACT_COUNTS, LAYERS, Tracer, layer_metrics, layer_self_seconds  # noqa: E402


@pytest.fixture(scope="module")
def passes():
    work = harness.REPO / ".perfbench" / "test_trace"
    shutil.rmtree(work, ignore_errors=True)
    workload = workloads.build("grids-out", 1, harness.REPO, work / "models")
    runner = harness.Runner(workload, work)
    untraced = runner.run_pass()
    traced = []
    for count_nodes in (False, True):
        tracer = Tracer(count_nodes=count_nodes)
        with tracer:
            traced.append((runner.run_pass(tracer), tracer))
    return untraced, traced


def test_counts_repeat_exactly(passes):
    _, traced = passes
    first, second = (layer_metrics(tracer) for _, tracer in traced)
    for key in EXACT_COUNTS:
        assert first[key] > 0, key
        assert first[key] == second[key], key


def test_traced_reports_are_byte_identical(passes):
    untraced, traced = passes
    assert not untraced.failures
    for result, _ in traced:
        assert result.failures == []
        assert result.digests == untraced.digests


def test_self_times_sum_to_the_pass_wall(passes):
    _, traced = passes
    result, tracer = traced[0]
    per_layer = layer_self_seconds(tracer)
    assert set(per_layer) <= set(LAYERS)
    assert min(per_layer.values()) >= 0.0
    assert sum(per_layer.values()) == pytest.approx(result.wall, rel=1e-3, abs=1e-3)


def test_uninstall_restores_every_binding(passes):
    for name, module in list(sys.modules.items()):
        if name == "ksfield" or name.startswith("ksfield."):
            for attr, value in vars(module).items():
                assert not hasattr(value, "__wrapped__"), f"{name}.{attr}"
    solver = importlib.import_module("ksfield.solver")
    for cls in (solver.SolutionGrid, solver.CurrentTrace):
        assert inspect.getmodule(cls.to_csv) is solver
        assert not hasattr(cls.to_csv, "__wrapped__")
