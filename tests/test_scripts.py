"""Smoke tests: each experiment script runs end to end and writes its CSV."""
import csv
import os
import pathlib
import subprocess
import sys

REPO = pathlib.Path(__file__).resolve().parent.parent


def run_script(name, *args):
    path = os.pathsep.join(filter(None, [str(REPO / "src"),
                                         os.environ.get("PYTHONPATH")]))
    env = dict(os.environ, PYTHONPATH=path)
    return subprocess.run([sys.executable, str(REPO / "scripts" / name), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_growth_experiment():
    r = run_script("growth_experiment.py", "-N", "30")
    assert r.returncode == 0, r.stderr
    rows = list(csv.reader(r.stdout.splitlines()))
    assert rows[0] == ["n", "M_n", "norm_sq", "count_bound", "norm_bound"]
    assert [int(row[0]) for row in rows[1:]] == list(range(1, 31))
    for _, m, norm, count_bound, norm_bound in rows[1:]:
        assert int(m) >= float(count_bound) - 1e-12
        assert float(norm) >= float(norm_bound) - 1e-9


def test_exotic_boundedness():
    r = run_script("exotic_boundedness.py", "-N", "50", "--every", "10")
    assert r.returncode == 0, r.stderr
    rows = [line for line in r.stdout.splitlines() if not line.startswith("#")]
    assert rows[0] == "n,breakpoints,distinct_jumps,norm_sq"
    assert [int(row.split(",")[0]) for row in rows[1:]] == [1, 10, 20, 30, 40, 50]


def test_smoothing_demo():
    r = run_script("smoothing_demo.py", "--seed", "7")
    assert r.returncode == 0, r.stderr
    assert r.stdout.count('"kind": "success"') == 1
    assert r.stdout.count('"kind": "obstruction"') == 1
