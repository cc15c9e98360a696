"""One round of every benchmark workload (`perfbench/workloads.py`), each task
checked by the workload's own exact gate.  The benchmark calls the library
by name and reads attributes of its answers, so removing or renaming one it
uses fails here as well as in the benchmark run."""
import importlib.util
import pathlib
import sys

import pytest

import plcircle
import plcircle.cli  # noqa: F401  build_cli reads plcircle.cli and plcircle.io
import plcircle.io  # noqa: F401

REPO = pathlib.Path(__file__).resolve().parent.parent


def _load_workloads():
    spec = importlib.util.spec_from_file_location(
        "perfbench_workloads", REPO / "perfbench" / "workloads.py")
    workloads = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = workloads  # its dataclass looks the module up
    spec.loader.exec_module(workloads)
    return workloads


WORKLOADS = _load_workloads()


@pytest.mark.parametrize("workload", sorted(WORKLOADS.BUILDERS))
def test_one_round_passes_its_gate(tmp_path, workload):
    (tasks,) = WORKLOADS.BUILDERS[workload](plcircle, 1, str(tmp_path), 1)
    assert tasks
    failed = [(t.kind, msg) for t in tasks if (msg := t.check(t.run())) is not None]
    assert failed == []
