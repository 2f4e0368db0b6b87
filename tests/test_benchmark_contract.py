"""The benchmark (perfbench/workloads.py) drives the package through its
public outputs and checks invariants on them. One operation of each
workload must run with no broken invariant, so an API change that would
make the benchmark report incorrect outputs fails here first."""

import importlib
import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
MODULES = ("toyworld", "phases", "scores", "sampling", "grpo", "trainer",
           "traces", "analysis", "allocation", "verify")


def load(name, monkeypatch):
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, name, module)
    spec.loader.exec_module(module)
    return module


@pytest.mark.parametrize("workload", ["train_pcm_64", "train_vanilla_64",
                                      "analyze_traces", "verify_suite"])
def test_one_operation_keeps_every_invariant(workload, tmp_path, monkeypatch):
    load("tracing", monkeypatch)  # workloads.py imports it by this name
    workloads = load("workloads", monkeypatch)
    mods = SimpleNamespace(**{m: importlib.import_module(f"chunkmask.{m}") for m in MODULES})
    work = workloads.WORKLOADS[workload]()
    result = workloads.Result()
    work.prepare(mods, 0, tmp_path)
    try:
        work.op(0, result)
    finally:
        work.close()
    assert result.violations == []
