#!/usr/bin/env python3
"""Layered benchmark of plcircle.

    python3 perfbench/run.py --workload growth --seed 1 --seconds 15 --trace 0

runs one workload in this process as a closed loop: one client, one thread,
the next task starting when the previous one ends.  It runs the number of
whole rounds of tasks that took `--seconds` reference seconds (below) when
the benchmark was written, so every run does the same work, checks every
answer and prints the end-to-end metrics, then, as its last line, one JSON
object with `correct`, `attempted`, `failed` and `metrics`.  `correct` is
true when no task of the timed loop failed (a wrong answer, an exception or
a deadline overrun); otherwise the run exits with code 1.  Failed tasks are
left out of the latency metrics.

`--trace 1` instead runs a fixed batch of the workload twice, untraced and
then with every public plcircle function wrapped in a span (see spans.py),
and prints the per-layer metrics.  The batch does not depend on timing, so
two traced runs of one seed give identical counts.

`--workload all` runs every workload, each in a fresh process, and prints
one table.  `--selftest` makes two traced runs of each workload and fails
unless their per-layer counts are identical.

Times are in reference seconds.  On a shared host the CPU speed can swing
by 2x within a fraction of a second with the load of its neighbours, so a
fixed computation that does not use plcircle is timed every SAMPLE_EVERY_S
of CPU time, from a SIGPROF handler, between tasks and inside them.  Each
measured duration leaves out the time spent in that computation and is
multiplied by REF_SECONDS / (the mean duration of the reference from just
before to just after it).  A reference second is a second on a host where
the reference takes REF_SECONDS; raw durations are printed beside the
metrics.

Seeds: 1 is the default; 2 is held out for confirming claimed gains.
"""
from __future__ import annotations

import argparse
import bisect
import contextlib
import importlib
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile
from fractions import Fraction
from time import perf_counter

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

import spans  # noqa: E402
import workloads  # noqa: E402

DEFAULT_SEED = 1
HELDOUT_SEED = 2
WORKLOADS = ("growth", "smooth", "search", "cli")
SETUP_REPEATS = 9

# Rounds of distinct inputs generated per run, cycled by the timed loop;
# task time of one round in reference seconds at the commit that introduced
# the benchmark; rounds in the traced batch.
POOL_ROUNDS = {"growth": 8, "smooth": 2, "search": 8, "cli": 4}
ROUND_REF_S = {"growth": 0.66, "smooth": 6.5, "search": 0.65, "cli": 0.32}
TRACE_ROUNDS = {"growth": 4, "smooth": 2, "search": 4, "cli": 4}

REF_SECONDS = 0.005
SAMPLE_EVERY_S = 0.05
WALL_CAP = 3
# a fixed six-breakpoint map iterated by the benchmark's own evaluator
REF_VERTS = (("3/32", "8/57"), ("1/7", "5/28"), ("5/8", "1/5"), ("9/14", "11/36"),
             ("2/3", "13/28"), ("3/4", "1/1"))

END_TO_END = (("setup_s", "s"), ("tasks_per_s", "1/s"), ("task_s.p50", "s"),
              ("task_s.tail", "s"), ("peak_rss_mb", "MB"))


class DeadlineExceeded(BaseException):
    """Raised in a task that outlives its deadline.  A BaseException, so that
    the program's own `except ValueError` or `except Exception` cannot
    swallow it."""


@contextlib.contextmanager
def deadline(seconds: float):
    def on_alarm(signum, frame):
        raise DeadlineExceeded()
    previous = signal.signal(signal.SIGALRM, on_alarm)
    signal.setitimer(signal.ITIMER_REAL, seconds)
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


# -- reference time ----------------------------------------------------------

def reference_keys() -> list:
    """300 rationals of growing size, as met along the orbits in smooth."""
    keys = []
    x = Fraction(1, 3)
    for i in range(300):
        x = workloads.pl_eval(REF_VERTS, x) if i % 30 else Fraction(i + 1, 7919)
        keys.append(x)
    return keys


def reference_work(keys: list) -> int:
    """A fixed computation with no plcircle code: exact PL evaluation, which
    has the small working set of growth and search, then a dict of
    rationals built and probed, which has the large one of smooth."""
    x = Fraction(1, 3)
    for _ in range(40):
        x = workloads.pl_eval(REF_VERTS, x)
    index = {k: i for i, k in enumerate(keys)}
    return sum(index[k] for k in keys)


class Clock:
    """Tracks the host's speed with the reference computation, measured
    once at start and then every SAMPLE_EVERY_S of CPU time by a SIGPROF
    handler.  `now` is perf_counter less the time spent measuring, so the
    durations taken from it leave the measurements out."""

    def __init__(self):
        self.times = []
        self.refs = []
        self.paused = 0.0
        self.measuring = False
        self.keys = reference_keys()
        reference_work(self.keys)
        self.measure()
        signal.signal(signal.SIGPROF, lambda signum, frame: self.measure())
        signal.setitimer(signal.ITIMER_PROF, SAMPLE_EVERY_S, SAMPLE_EVERY_S)

    def stop(self) -> None:
        signal.setitimer(signal.ITIMER_PROF, 0)
        signal.signal(signal.SIGPROF, signal.SIG_DFL)

    def now(self) -> float:
        return perf_counter() - self.paused

    def measure(self) -> None:
        """Time the reference once; kept with the `now` at which it ended."""
        if self.measuring:
            return
        self.measuring = True
        t0 = perf_counter()
        try:
            reference_work(self.keys)
        finally:
            t1 = perf_counter()
            self.paused += t1 - t0
            self.measuring = False
        self.refs.append(t1 - t0)
        self.times.append(self.now())

    def scale(self, start: float, end: float) -> float:
        """REF_SECONDS over the mean reference duration from the last
        measurement before `start` to the first one after `end`."""
        i = max(bisect.bisect_right(self.times, start) - 1, 0)
        j = bisect.bisect_left(self.times, end, lo=i)
        window = self.refs[i:j + 1]
        return REF_SECONDS * len(window) / sum(window)


# -- set-up ------------------------------------------------------------------

def import_plcircle():
    """Import plcircle from this checkout's source tree, dropping any copy
    already imported so that the import is timed in full."""
    for name in [m for m in sys.modules if m == "plcircle" or m.startswith("plcircle.")]:
        del sys.modules[name]
    P = importlib.import_module("plcircle")
    importlib.import_module("plcircle.io")
    importlib.import_module("plcircle.cli")
    if os.path.dirname(os.path.abspath(P.__file__)) != os.path.join(SRC, "plcircle"):
        raise ImportError(f"plcircle imported from {P.__file__}, not from {SRC}")
    return P


def set_up(workload: str, seed: int, workdir: str, clock: Clock):
    """Import plcircle and generate the inputs SETUP_REPEATS times; the
    median of the times is setup_s and the last set of inputs is used."""
    times = []
    for _ in range(SETUP_REPEATS):
        clock.measure()
        t0 = clock.now()
        P = import_plcircle()
        rounds = workloads.BUILDERS[workload](P, seed, workdir, POOL_ROUNDS[workload])
        t1 = clock.now()
        clock.measure()
        times.append((t1 - t0) * clock.scale(t0, t1))
    return P, rounds, statistics.median(times)


# -- running tasks -----------------------------------------------------------

class Outcomes:
    """Raw duration, start and outcome of every task attempted.  Durations
    in reference seconds come from `finish`, once the reference has been
    measured after the last task.  A task fails on a wrong answer, an
    exception or a deadline overrun."""

    def __init__(self, clock: Clock):
        self.clock = clock
        self.raw = []
        self.starts = []
        self.ok = []
        self.latencies = []
        self.scales = []
        self.attempted = 0
        self.failed = 0
        self.wrong = 0
        self.messages = []

    def execute(self, task, tracer=None, task_id=0) -> None:
        self.attempted += 1
        failure = None
        out = None
        t0 = self.clock.now()
        try:
            with deadline(task.deadline_s):
                if tracer is not None:
                    tracer.begin_task(task_id)
                try:
                    out = task.run()
                finally:
                    if tracer is not None:
                        tracer.end_task()
        except DeadlineExceeded:
            failure = f"deadline of {task.deadline_s} s exceeded"
        except Exception as exc:
            failure = f"{type(exc).__name__}: {str(exc)[:200]}"
        self.raw.append(self.clock.now() - t0)
        self.starts.append(t0)
        if failure is None:
            try:
                failure = task.check(out)
            except Exception as exc:
                failure = f"answer unreadable: {type(exc).__name__}: {exc}"
            if failure is not None:
                self.wrong += 1
        self.ok.append(failure is None)
        if failure is not None:
            self.failed += 1
            self.messages.append(f"{task.kind}: {failure}")

    def finish(self) -> "Outcomes":
        self.clock.measure()
        self.scales = [self.clock.scale(t0, t0 + raw)
                       for t0, raw in zip(self.starts, self.raw)]
        self.latencies = [raw * k for raw, k in zip(self.raw, self.scales)]
        return self

    def completed(self, values):
        """The entries of `values` (one per task) of tasks that did not fail."""
        return [v for v, ok in zip(values, self.ok) if ok]


def timed_loop(workload: str, rounds, seconds: float, clock: Clock) -> Outcomes:
    """The number of whole rounds that costs `seconds` reference seconds
    at ROUND_REF_S per round, so that every run of a workload does the same
    work; a run stops early once it has taken WALL_CAP times `seconds` of
    wall time."""
    res = Outcomes(clock)
    count = max(1, round(seconds / ROUND_REF_S[workload]))
    t0 = perf_counter()
    for done in range(count):
        for task in rounds[done % len(rounds)]:
            res.execute(task)
        if perf_counter() - t0 > WALL_CAP * seconds:
            break
    return res.finish()


def tail(latencies):
    """Latency at the highest percentile with at least ten tasks beyond it,
    with that percentile and the task count."""
    xs = sorted(latencies)
    n = len(xs)
    if n <= 10:
        return xs[-1], 100.0, n
    return xs[n - 11], 100.0 * (n - 10) / n, n


# -- reporting ---------------------------------------------------------------

def machine() -> dict:
    cpu = platform.processor() or platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = "unknown (not a git checkout)"
    if os.path.isdir(os.path.join(ROOT, ".git")):
        try:
            commit = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, text=True,
                                    capture_output=True, timeout=30).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            pass
    return {"commit": commit, "python": platform.python_version(),
            "nproc": os.cpu_count(), "cpu": cpu}


def report(result: dict, extra: dict) -> None:
    for name, m in result["metrics"].items():
        note = extra.get(name, "")
        print(f"{name:48s} {m['value']!r:>24} {m['unit']:6s} {note}")
    print(json.dumps(result))


def run_workload(workload: str, seed: int, seconds: float, trace: bool) -> int:
    if not os.path.isfile(os.path.join(SRC, "plcircle", "__init__.py")):
        print(f"error: no plcircle source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    workdir = tempfile.mkdtemp(prefix=".perfbench-", dir=ROOT)
    clock = Clock()
    try:
        P, rounds, setup_s = set_up(workload, seed, workdir, clock)
        probes = workloads.defect_probes(P, workdir) if workload == "cli" else []
        print("# " + json.dumps({"workload": workload, "seed": seed,
                                 "heldout_seed": HELDOUT_SEED, "trace": int(trace),
                                 **machine()}))
        if trace:
            return traced_run(workload, rounds, probes, clock)
        res = timed_loop(workload, rounds, seconds, clock)
        # failed tasks count against the answer gate and stay out of the
        # latencies; their time still counts in the timed wall time
        loop_failed = res.failed
        lat, raw = res.completed(res.latencies), res.completed(res.raw)
        if not lat:
            for msg in res.messages[:20]:
                print(f"# FAIL {msg}", file=sys.stderr)
            print(f"error: all {res.attempted} tasks failed", file=sys.stderr)
            return 1
        tail_s, tail_pct, n = tail(lat)
        timed_s, timed_raw_s = sum(res.latencies), sum(res.raw)
        metrics = {
            "setup_s": setup_s,
            "tasks_per_s": n / timed_s,
            "task_s.p50": statistics.median(lat),
            "task_s.tail": tail_s,
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        }
        # the defect probes run once, outside the timed loop: they count in
        # `failed` but not in the answer gate
        for task in probes:
            res.execute(task)
        res.finish()
        for msg in res.messages[:20]:
            print(f"# FAIL {msg}", file=sys.stderr)
        extra = {
            "setup_s": f"median of {SETUP_REPEATS} imports and input generations",
            "tasks_per_s": f"{n} tasks in {timed_s:.3f} s; "
                           f"raw {n / timed_raw_s:.6g} /s",
            "task_s.p50": f"raw {statistics.median(raw):.6g} s",
            "task_s.tail": f"p{tail_pct:.2f} of {n} tasks, {10 if n > 10 else 0} beyond it; "
                           f"raw {tail(raw)[0]:.6g} s",
        }
        print(f"# reference: {len(clock.refs)} measurements, host speed "
              f"{REF_SECONDS / statistics.median(clock.refs):.3f} of reference (median)")
        print(f"{'fail_frac':48s} {res.failed / res.attempted!r:>24} {'ratio':6s} "
              f"{res.failed} of {res.attempted} attempted, {res.wrong} wrong answers, "
              f"{loop_failed} failed in the timed loop")
        correct = loop_failed == 0
        report({"correct": correct, "attempted": res.attempted,
                "failed": res.failed,
                "metrics": {k: {"value": metrics[k], "unit": u} for k, u in END_TO_END}},
               extra)
        return 0 if correct else 1
    finally:
        clock.stop()
        shutil.rmtree(workdir, ignore_errors=True)


def traced_run(workload: str, rounds, probes, clock: Clock) -> int:
    """The first TRACE_ROUNDS rounds, untraced and then traced."""
    batch = [t for r in rounds[:TRACE_ROUNDS[workload]] for t in r]
    plain = Outcomes(clock)
    for task in batch:
        plain.execute(task)
    plain.finish()
    tracer = spans.Tracer(DeadlineExceeded, clock.now)
    tracer.install()
    try:
        res = Outcomes(clock)
        for i, task in enumerate(batch):
            res.execute(task, tracer, i)
        batch_failed = res.failed
        for i, task in enumerate(probes, start=len(batch)):
            res.execute(task, tracer, i)
    finally:
        tracer.uninstall()
    res.finish()
    for msg in res.messages[:20]:
        print(f"# FAIL {msg}", file=sys.stderr)
    values = tracer.per_layer(res.scales)
    untraced_s = sum(plain.latencies)
    traced_s = sum(res.latencies[:len(batch)])
    values["trace.overhead_frac"] = traced_s / untraced_s - 1
    extra = {"trace.overhead_frac": f"{traced_s:.3f} s traced / {untraced_s:.3f} s untraced, "
                                    f"{len(batch)} tasks, {len(tracer.names)} spans"}
    correct = batch_failed == 0 and plain.failed == 0
    report({"correct": correct, "attempted": res.attempted, "failed": res.failed,
            "metrics": {k: {"value": values[k], "unit": u} for k, u in spans.PER_LAYER}},
           extra)
    return 0 if correct else 1


# -- several processes -------------------------------------------------------

def child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    proc = subprocess.run([sys.executable, os.path.abspath(__file__), "--workload", workload,
                           "--seed", str(seed), "--seconds", str(seconds),
                           "--trace", str(trace)],
                          cwd=ROOT, capture_output=True, text=True, timeout=900)
    sys.stderr.write(proc.stderr)
    # exit 1 with a result line is a run whose answers failed the gate
    lines = proc.stdout.strip().splitlines()
    if proc.returncode not in (0, 1) or not lines or not lines[-1].startswith("{"):
        raise RuntimeError(f"{workload} exited with {proc.returncode}")
    return json.loads(lines[-1])


def run_all(seed: int, seconds: float, trace: int) -> int:
    results = {w: child(w, seed, seconds, trace) for w in WORKLOADS}
    names = [n for n, _ in (spans.PER_LAYER if trace else END_TO_END)]
    print(f"{'metric':48s} {'unit':6s}" + "".join(f"{w:>14s}" for w in WORKLOADS))
    rows = [(n, results[WORKLOADS[0]]["metrics"][n]["unit"],
             [results[w]["metrics"][n]["value"] for w in WORKLOADS]) for n in names]
    rows.append(("fail_frac", "ratio",
                 [results[w]["failed"] / results[w]["attempted"] for w in WORKLOADS]))
    for n, unit, vals in rows:
        print(f"{n:48s} {unit:6s}" + "".join(f"{v:14.6g}" for v in vals))
    print("correct: " + " ".join(f"{w}={results[w]['correct']}" for w in WORKLOADS))
    return 0 if all(r["correct"] for r in results.values()) else 1


def self_test(selected, seed: int) -> int:
    """Two traced runs of each workload must give identical per-layer counts."""
    failed = []
    for w in selected:
        a, b = (child(w, seed, 1, 1) for _ in range(2))
        differ = [name for name, unit in spans.PER_LAYER
                  if unit != "s" and name != "trace.overhead_frac"
                  and a["metrics"][name]["value"] != b["metrics"][name]["value"]]
        for name in differ:
            print(f"{w}: {name} differs: {a['metrics'][name]['value']} "
                  f"vs {b['metrics'][name]['value']}")
        print(f"{w}: per-layer counts {'DIFFER' if differ else 'identical'}")
        failed += differ
    return 1 if failed else 0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=WORKLOADS + ("all",))
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=15.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--selftest", action="store_true",
                    help="check that two traced runs give identical per-layer counts")
    args = ap.parse_args(argv)
    if args.selftest:
        chosen = WORKLOADS if args.workload in (None, "all") else (args.workload,)
        return self_test(chosen, args.seed)
    if args.workload is None:
        ap.error("--workload is required")
    if args.workload == "all":
        return run_all(args.seed, args.seconds, args.trace)
    return run_workload(args.workload, args.seed, args.seconds, bool(args.trace))


if __name__ == "__main__":
    sys.exit(main())
