"""The traced benchmark run (`perfbench/run.py --trace 1`) wraps plcircle
functions and PLHomeo methods by name.  This test installs its tracer on one
small task, so removing or renaming a wrapped name fails here as well."""
import importlib.util
import pathlib
import time

import plcircle
from plcircle import cli, io

REPO = pathlib.Path(__file__).resolve().parent.parent
FIXTURES = REPO / "fixtures"


def _load_spans():
    spec = importlib.util.spec_from_file_location(
        "perfbench_spans", REPO / "perfbench" / "spans.py")
    spans = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(spans)
    return spans


def test_tracer_counts_wrapped_layers(capsys):
    spans = _load_spans()
    tracer = spans.Tracer(Exception, time.perf_counter)
    tracer.install()
    try:
        tracer.begin_task(0)
        g = plcircle.random_pl(3, 2, 16)
        assert g.compose(g.inverse()) == plcircle.identity()
        group = io.group_from_json(io.load_json(str(FIXTURES / "conjugated_rotations.json")))
        assert plcircle.smooth_group(group).kind == "success"
        assert cli.main(["cb-rank", str(FIXTURES / "two_level_tree.json")]) == 0
        tracer.end_task()
        layers = tracer.per_layer([1.0])
    finally:
        tracer.uninstall()
    capsys.readouterr()
    # the test's own compose above; smooth_group reads its rotations off phi
    assert layers["homeo.compose.calls"] == 1
    assert layers["homeo.construct.calls"] > 0
    assert layers["cantor_bendixson.cb_rank.calls"] == 1
    assert layers["circle.CirclePoint.constructed"] > 0
    assert layers["cli.exit.0"] == 1
