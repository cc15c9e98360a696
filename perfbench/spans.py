"""In-memory span tracing of plcircle, installed from outside the package.

`Tracer.install` replaces the public functions of every plcircle module, and
the public methods of `PLHomeo`, with wrappers that record one span per call:
name, start, end, parent span and task id.  Every module attribute that
refers to an original function is redirected, so calls made through
`from .x import f` bindings are traced too.  `uninstall` restores the
originals.  Nothing under the package's source tree is edited.

A call nested directly inside a span of the same name is folded into it, so
a recursive function and the `eval`/`lift_eval` family count only their
outermost call.  A span's self time is its duration minus the time its
child spans cover; the program is single-threaded, so children never
overlap.
"""
from __future__ import annotations

import functools
import importlib

MODULES = ("circle", "homeo", "cocycle", "rotnum", "smoothing",
           "cantor_bendixson", "io", "cli")

# Leaf arithmetic called once per rational: a span would cost more than the
# call it measures.  Their time stays in the caller's self time.
UNTRACED = {"circle.frac_mod1", "circle.reduce_mod1",
            "io.parse_rational", "io.format_rational"}

# PLHomeo methods: span name per method.  Methods sharing a name are one
# layer operation, counted at its outermost call.
PLHOMEO_METHODS = {
    "__post_init__": "homeo.construct",
    "compose": "homeo.compose",
    "inverse": "homeo.inverse",
    "iterate": "homeo.iterate",
    "eval": "homeo.eval",
    "eval_inverse": "homeo.eval",
    "lift_eval": "homeo.eval",
    "lift_eval_inverse": "homeo.eval",
    "jump": "homeo.jump",
    "left_right_slopes": "homeo.jump",
}

SECONDS = "s"

# The per-layer metrics the traced run reports, with their units.  Every
# metric is reported for every workload; a layer a workload does not reach
# reads 0.
PER_LAYER = [
    ("homeo.compose.calls", "count"), ("homeo.compose.self_s", SECONDS),
    ("homeo.compose.bp_out_max", "count"), ("homeo.compose.denom_bits_max", "bits"),
    ("homeo.inverse.calls", "count"), ("homeo.inverse.self_s", SECONDS),
    ("homeo.eval.calls", "count"), ("homeo.eval.self_s", SECONDS),
    ("homeo.jump.calls", "count"), ("homeo.jump.self_s", SECONDS),
    ("homeo.construct.calls", "count"), ("homeo.construct.self_s", SECONDS),
    ("circle.CirclePoint.constructed", "count"),
    ("cocycle.affine_apply.calls", "count"), ("cocycle.affine_apply.self_s", SECONDS),
    ("cocycle.affine_apply.support_max", "count"),
    ("cocycle.jump_cocycle.calls", "count"), ("cocycle.jump_cocycle.self_s", SECONDS),
    ("cocycle.breakpoint_growth.self_s", SECONDS),
    ("cocycle.orbit_norm_seq.self_s", SECONDS),
    ("cocycle.growth_params.self_s", SECONDS),
    ("rotnum.fixed_points.calls", "count"), ("rotnum.fixed_points.self_s", SECONDS),
    ("rotnum.rotation_number.calls", "count"),
    ("rotnum.rotation_number.self_s", SECONDS),
    ("rotnum.rotation_number.exact_frac", "ratio"),
    ("smoothing.build_orbit_graph.calls", "count"),
    ("smoothing.build_orbit_graph.self_s", SECONDS),
    ("smoothing.build_orbit_graph.vertices", "count"),
    ("smoothing.build_orbit_graph.edges", "count"),
    ("smoothing.build_orbit_graph.new_vertex_frac", "ratio"),
    ("smoothing.solve_coboundary.calls", "count"),
    ("smoothing.solve_coboundary.self_s", SECONDS),
    ("smoothing.synthesize_conjugator.calls", "count"),
    ("smoothing.synthesize_conjugator.self_s", SECONDS),
    ("smoothing.smooth_group.self_s", SECONDS),
    ("smoothing.smooth_group.outcome.success", "count"),
    ("smoothing.smooth_group.outcome.obstruction", "count"),
    ("smoothing.smooth_group.outcome.truncated", "count"),
    ("smoothing.detect_finite_orbit.calls", "count"),
    ("smoothing.detect_finite_orbit.self_s", SECONDS),
    ("smoothing.detect_finite_orbit.compose_calls", "count"),
    ("cantor_bendixson.cb_rank.calls", "count"),
    ("cantor_bendixson.cb_rank.self_s", SECONDS),
    ("cantor_bendixson.validate_realization.self_s", SECONDS),
    ("cantor_bendixson.derivative_chain.self_s", SECONDS),
    ("io.load_json.self_s", SECONDS),
    ("io.element_from_json.calls", "count"), ("io.element_from_json.self_s", SECONDS),
    ("io.group_from_json.self_s", SECONDS),
    ("io.symbolic_set_from_json.self_s", SECONDS),
    ("io.element_to_json.self_s", SECONDS),
    ("io.outcome_to_json.self_s", SECONDS),
    ("io.rejects", "count"),
    ("cli.main.calls", "count"), ("cli.main.self_s", SECONDS),
    ("cli.exit.0", "count"), ("cli.exit.1", "count"), ("cli.exit.2", "count"),
    ("cli.uncaught", "count"), ("cli.deadline", "count"),
    ("trace.overhead_frac", "ratio"),
]


def _denom_bits(h) -> int:
    return max(max(x.denominator.bit_length(), y.denominator.bit_length())
               for x, y in h.verts)


class Tracer:
    """Span recorder for one process.  Spans live in parallel lists indexed
    by span id; a parent id is always smaller than its child's.  Span times
    come from `now`, the benchmark's clock, which leaves out the time it
    spends measuring the host's speed."""

    def __init__(self, deadline_exc: type, now):
        self.deadline_exc = deadline_exc
        self.now = now
        self.names: list = []
        self.starts: list = []
        self.ends: list = []
        self.parents: list = []
        self.tasks: list = []
        self.stack: list = []
        self.task_id = -1
        self.enabled = False
        self.counts: dict = {}
        self._restore: list = []

    # -- recording -------------------------------------------------------

    def begin_task(self, task_id: int) -> None:
        self.task_id = task_id
        self.stack.clear()
        self.enabled = True

    def end_task(self) -> None:
        self.enabled = False
        self.stack.clear()

    def _bump(self, key: str, by: int = 1) -> None:
        self.counts[key] = self.counts.get(key, 0) + by

    def _max(self, key: str, value: int) -> None:
        if value > self.counts.get(key, 0):
            self.counts[key] = value

    def _wrap(self, fn, name: str, observe=None):
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = tr.stack
            if not tr.enabled or (stack and tr.names[stack[-1]] == name):
                return fn(*args, **kwargs)
            sid = len(tr.names)
            tr.names.append(name)
            tr.parents.append(stack[-1] if stack else -1)
            tr.tasks.append(tr.task_id)
            tr.ends.append(0.0)
            stack.append(sid)
            tr.starts.append(tr.now())
            try:
                out = fn(*args, **kwargs)
            except BaseException as exc:
                tr.ends[sid] = tr.now()
                del stack[stack.index(sid):]
                if observe is not None:
                    observe(sid, None, exc)
                raise
            tr.ends[sid] = tr.now()
            stack.pop()
            if observe is not None:
                observe(sid, out, None)
            return out
        return traced

    def _count_only(self, fn, key: str):
        tr = self

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if tr.enabled:
                tr.counts[key] = tr.counts.get(key, 0) + 1
            return fn(*args, **kwargs)
        return counted

    # -- cost drivers read from returned objects --------------------------

    def _observers(self) -> dict:
        def compose(sid, out, exc):
            if out is not None:
                # a rotation is stored as one vertex and has no breakpoint
                verts = len(out.verts)
                self._max("homeo.compose.bp_out_max", verts if verts > 1 else 0)
                self._max("homeo.compose.denom_bits_max", _denom_bits(out))

        def affine_apply(sid, out, exc):
            if out is not None:
                self._max("cocycle.affine_apply.support_max", len(out.entries))

        def rotation_number(sid, out, exc):
            if out is not None and out.is_exact:
                self._bump("rotnum.rotation_number.exact")

        def build_orbit_graph(sid, out, exc):
            if out is not None:
                self._bump("smoothing.build_orbit_graph.vertices", len(out.vertices))
                self._bump("smoothing.build_orbit_graph.edges", len(out.edges))
                self._bump("smoothing.build_orbit_graph.added",
                           len(out.vertices) - len(out.seed))

        def smooth_group(sid, out, exc):
            if out is not None:
                self._bump(f"smoothing.smooth_group.outcome.{out.kind}")

        def io_boundary(sid, out, exc):
            parent = self.parents[sid]
            if (exc is not None and type(exc).__name__ == "FormatError"
                    and (parent < 0 or not self.names[parent].startswith("io."))):
                self._bump("io.rejects")

        def cli_main(sid, out, exc):
            if exc is None:
                self._bump(f"cli.exit.{out}")
            elif isinstance(exc, SystemExit):
                self._bump(f"cli.exit.{exc.code}")
            elif isinstance(exc, self.deadline_exc):
                self._bump("cli.deadline")
            else:
                self._bump("cli.uncaught")

        return {"homeo.compose": compose, "cocycle.affine_apply": affine_apply,
                "rotnum.rotation_number": rotation_number,
                "smoothing.build_orbit_graph": build_orbit_graph,
                "smoothing.smooth_group": smooth_group, "cli.main": cli_main,
                "io.*": io_boundary}

    # -- installing ------------------------------------------------------

    def install(self, package: str = "plcircle") -> None:
        """Wrap every public function of the package's modules and redirect
        all references to them."""
        observers = self._observers()
        mods = {m: importlib.import_module(f"{package}.{m}") for m in MODULES}
        replace = {}
        for short, mod in mods.items():
            for attr, obj in list(vars(mod).items()):
                name = f"{short}.{attr}"
                if (attr.startswith("_") or name in UNTRACED
                        or not callable(obj) or isinstance(obj, type)
                        or getattr(obj, "__module__", None) != mod.__name__):
                    continue
                observe = observers.get(name)
                if observe is None and short == "io":
                    observe = observers["io.*"]
                replace[id(obj)] = (obj, self._wrap(obj, name, observe))
        all_mods = [importlib.import_module(package), *mods.values()]
        for mod in all_mods:
            for attr, obj in list(vars(mod).items()):
                hit = replace.get(id(obj))
                if hit is not None and hit[0] is obj:
                    self._restore.append((mod, attr, obj))
                    setattr(mod, attr, hit[1])
        PLHomeo = mods["homeo"].PLHomeo
        for attr, name in PLHOMEO_METHODS.items():
            orig = PLHomeo.__dict__[attr]
            self._restore.append((PLHomeo, attr, orig))
            setattr(PLHomeo, attr, self._wrap(orig, name, observers.get(name)))
        CirclePoint = mods["circle"].CirclePoint
        orig = CirclePoint.__dict__["__post_init__"]
        self._restore.append((CirclePoint, "__post_init__", orig))
        CirclePoint.__post_init__ = self._count_only(
            orig, "circle.CirclePoint.constructed")

    def uninstall(self) -> None:
        for owner, attr, orig in reversed(self._restore):
            setattr(owner, attr, orig)
        self._restore.clear()

    # -- aggregation -----------------------------------------------------

    def per_layer(self, scales) -> dict:
        """Calls and self time per span name, plus the counted cost drivers.
        A span's times are multiplied by scales[its task id]."""
        n = len(self.names)
        names, parents = self.names, self.parents
        dur = [(e - s) * scales[t] for s, e, t in zip(self.starts, self.ends, self.tasks)]
        child = [0.0] * n
        under_graph = [False] * n
        under_search = [False] * n
        calls: dict = {}
        self_s: dict = {}
        for i in range(n):
            p = parents[i]
            if p >= 0:
                child[p] += dur[i]
                under_graph[i] = under_graph[p] or names[p] == "smoothing.build_orbit_graph"
                under_search[i] = (under_search[p]
                                   or names[p] == "smoothing.detect_finite_orbit")
        graph_evals = search_composes = 0
        for i in range(n):
            name = names[i]
            calls[name] = calls.get(name, 0) + 1
            self_s[name] = self_s.get(name, 0.0) + dur[i] - child[i]
            if under_graph[i] and name == "homeo.eval":
                graph_evals += 1
            if under_search[i] and name == "homeo.compose":
                search_composes += 1
        c = self.counts
        out = {}
        for metric, unit in PER_LAYER:
            base, _, leaf = metric.rpartition(".")
            if leaf == "calls":
                value = calls.get(base, 0)
            elif leaf == "self_s":
                value = self_s.get(base, 0.0)
            else:
                value = c.get(metric, 0)
            out[metric] = value
        rn_calls = calls.get("rotnum.rotation_number", 0)
        out["rotnum.rotation_number.exact_frac"] = (
            c.get("rotnum.rotation_number.exact", 0) / rn_calls if rn_calls else 0.0)
        out["smoothing.build_orbit_graph.new_vertex_frac"] = (
            c.get("smoothing.build_orbit_graph.added", 0) / graph_evals
            if graph_evals else 0.0)
        out["smoothing.detect_finite_orbit.compose_calls"] = search_composes
        return out
