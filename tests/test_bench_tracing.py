"""The benchmark's tracer still fits the package it wraps.

``perfbench/spans.py`` wraps package functions found by name and reads
their arguments by name, so a rename breaks only traced benchmark runs.
These tests install the tracer, unchanged and imported by path, around
small operations of both workload kinds.
"""

import importlib.util
import pathlib

import pytest

from ptcontrol import cli
from ptcontrol.control import ReducedSystem

SPANS = pathlib.Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_module():
    spec = importlib.util.spec_from_file_location("perfbench_spans", SPANS)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _operation(tmp_path, name):
    """A small run of either workload kind: a solve, or a study of a variant."""
    if name == "solve":
        return lambda: cli.run_solve(cli.StudyConfig(
            variant="variational", level_min=2, level_max=2, lower=-0.2, upper=0.2,
            out=str(tmp_path / "solve.txt")))
    return lambda: cli.run_study(cli.StudyConfig(
        variant=name, level_min=2, level_max=3, lower=-0.2, upper=0.2,
        out=str(tmp_path / f"{name}.csv")))


@pytest.mark.parametrize("name", ("solve",) + cli.VARIANTS)
def test_tracer_wraps_the_package(tmp_path, monkeypatch, name):
    # untraced first, counting the residual evaluations, then traced: the
    # tracer's count must be the same and its wrappers gone afterwards
    operation = _operation(tmp_path, name)
    evaluations = []
    evaluate = ReducedSystem.evaluate

    def counted(system, c):
        evaluations.append(c)
        return evaluate(system, c)

    with monkeypatch.context() as patch:
        patch.setattr(ReducedSystem, "evaluate", counted)
        operation()
    tracer = _spans_module().Tracer()
    with tracer.installed(name):
        operation()
    assert ReducedSystem.evaluate is evaluate
    metrics = tracer.layer_metrics(name)
    assert metrics["control.residual_evals"] == len(evaluations)
    assert metrics["cli.self_s"] > 0.0 and metrics["cli.bytes_written"] > 0
    if name != "greens":
        assert len(evaluations) > 0
