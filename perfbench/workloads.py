"""Seeded inputs, tasks and exact answer checks for the four workloads.

A workload is built as a list of rounds; a round is a fixed mix of tasks, and
a run executes whole rounds, so every run sees the same mix.  Inputs are
generated here from the seed, during set-up, as plain data: vertex strings,
exotic parameters or JSON files.  Each task builds its maps from that data
inside the timed call, so no cached value of one task reaches another.

Every check is exact and holds for any seed.  Where a check needs map
values it uses `pl_eval`, an evaluator written here from the lift vertices,
not the library's own.
"""
from __future__ import annotations

import contextlib
import hashlib
import io
import json
import math
import os
import random
from dataclasses import dataclass
from fractions import Fraction as F
from typing import Callable, List, Optional, Sequence, Tuple

Verts = Tuple[Tuple[str, str], ...]

STD: Verts = (("0/1", "0/1"), ("1/2", "1/4"))

# Conjugator and rotations of the hidden-rotations case of the baseline
# table: with R(3/13) its orbit graph overflows the default 4096 vertices;
# without it the graph closes at 616 vertices.
HIDDEN_PHI = (21, 8, 64)
HIDDEN_ROTATIONS = (F(1, 7), F(2, 11), F(3, 13))

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
FIXTURE_DIGESTS = os.path.join(ROOT, "perfbench", "cli_digests.json")


@dataclass
class Task:
    kind: str
    run: Callable[[], object]
    check: Callable[[object], Optional[str]]   # None when the answer is right
    deadline_s: float


def fmt(q: F) -> str:
    return f"{q.numerator}/{q.denominator}"


def verts_of(h) -> Verts:
    return tuple((fmt(x), fmt(y)) for x, y in h.verts)


# -- an evaluator independent of the library ---------------------------------

def pl_eval(verts: Sequence[Tuple[str, str]], x: F) -> F:
    """Value at x in [0, 1) of the circle map with these lift vertices (one
    period, closing vertex implied)."""
    xs = [F(a) for a, _ in verts]
    ys = [F(b) for _, b in verts]
    xs.append(xs[0] + 1)
    ys.append(ys[0] + 1)
    u = x - math.floor(x)
    if u < xs[0]:
        u += 1
    for i in range(len(xs) - 1):
        if xs[i] <= u < xs[i + 1]:
            y = ys[i] + (ys[i + 1] - ys[i]) * (u - xs[i]) / (xs[i + 1] - xs[i])
            return y - math.floor(y)
    raise AssertionError("lift vertices do not cover a period")


def json_verts(doc) -> Verts:
    """Lift vertices of an element JSON document, without the closing vertex."""
    if "rotation" in doc:
        return (("0/1", doc["rotation"]),)
    return tuple(tuple(v) for v in doc["vertices"][:-1])


def orbit_closed(gens: Sequence[Verts], orbit) -> Optional[str]:
    """A finite set mapped into itself by each generator is mapped onto
    itself, so it is closed under the inverses too."""
    pts = {F(p) for p in orbit}
    for v in gens:
        for p in pts:
            if pl_eval(v, p) not in pts:
                return f"orbit not closed: {fmt(p)} leaves it"
    return None


def irrational_exotic_pair(rng: random.Random, max_lam: int = 11) -> Tuple[int, int]:
    """Integers 1 < lam < A, lam <= max_lam, with log lam / log A irrational,
    that is, with no relation lam^q == A^p."""
    while True:
        A = rng.randint(5, 12)
        lam = rng.randint(2, min(A - 1, max_lam))
        if not any(lam ** q == A ** p for q in range(1, 8) for p in range(1, q)):
            return A, lam


def hyperbolic_map(P, rng: random.Random):
    """A seeded random_pl map (4 breakpoints, denominators <= 32) with a
    contracting component whose endpoint slopes give c0 < 0 < c1."""
    while True:
        f = P.random_pl(rng.randrange(1 << 30), 4, 32)
        try:
            gp = P.growth_params(f)
        except ValueError:
            continue
        if gp.c0 < 0 < gp.c1:
            return f, gp


def conjugate(P, phi, alpha: F):
    return phi.compose(P.rotation(alpha)).compose(phi.inverse())


def random_coprime(rng: random.Random, q: int) -> F:
    while True:
        p = rng.randrange(1, q)
        if math.gcd(p, q) == 1:
            return F(p, q)


# -- growth --------------------------------------------------------------------

def _spot_check(P, f, n: int, M, norms) -> Optional[str]:
    """rho(f^n)0 = J(f^-n): its support size is M_n and its norm is the
    orbit norm."""
    finv = f.inverse()
    power = finv
    for _ in range(n - 1):
        power = finv.compose(power)
    J = P.jump_cocycle(power)
    if M[n - 1] != len(J.entries):
        return f"M_{n} = {M[n - 1]} but |supp J(f^-{n})| = {len(J.entries)}"
    ref = P.l2_norm_sq(J)
    if abs(ref - norms[n - 1]) > 1e-9 * max(abs(ref), abs(norms[n - 1])):
        return f"norm_{n} = {norms[n - 1]!r} but |J(f^-{n})|^2 = {ref!r}"
    return None


def _growth_task(P, kind: str, build: Callable, N: int, spot: int,
                 log_A: Optional[float]) -> Task:
    def run():
        f = build()
        M = P.breakpoint_growth(f, N)
        norms = P.orbit_norm_seq(f, N)
        try:
            gp = P.growth_params(f)
        except ValueError as exc:
            gp = exc
        return f, M, norms, gp

    def check(out) -> Optional[str]:
        f, M, norms, gp = out
        if len(M) != N or len(norms) != N:
            return "sequence length differs from N"
        if log_A is None:
            # criterion 04: linear growth and the norm lower bound
            if isinstance(gp, Exception):
                return f"growth_params failed on a hyperbolic map: {gp}"
            if not (gp.c0 < 0 < gp.c1 and gp.mu > 0 and gp.beta > 0):
                return "growth constants out of range"
            for n in range(1, N + 1):
                if M[n - 1] < n * (gp.c1 - gp.c0) / gp.mu - 1e-12:
                    return f"M_{n} = {M[n - 1]} below the linear bound"
                if norms[n - 1] < M[n - 1] * gp.beta ** 2 - 1e-9:
                    return f"norm_{n} below M_n * beta^2"
        else:
            # criterion 05: an exotic element has no fixed point, at most
            # two breakpoints, and a bounded orbit
            if not isinstance(gp, ValueError):
                return "growth_params accepted an exotic element"
            if max(M) > 2:
                return f"exotic iterate with {max(M)} breakpoints"
            if max(norms) > 2 * log_A ** 2 + 1e-9:
                return "exotic orbit norm above 2 log^2 A"
        return _spot_check(P, f, spot, M, norms)

    return Task(kind, run, check, 60.0)


def build_growth(P, seed: int, workdir: str, rounds: int) -> List[List[Task]]:
    """Per round: four seeded hyperbolic maps at N=12, two seeded exotic
    elements at N=80, and STD at N=20, at N=24 four times and at N=40.

    STD at N=24 costs about the middle of the seeded tasks and holds the
    workload's median task; STD at N=40 is the slowest task and sets
    task_s.tail at every seed."""
    rng = random.Random(seed)
    std = lambda: P.from_lift_vertices(STD)
    out = []
    for _ in range(rounds):
        tasks = [_growth_task(P, "growth.std_n40", std, 40, rng.randint(1, 8), None),
                 _growth_task(P, "growth.std_n20", std, 20, rng.randint(1, 8), None)]
        tasks += [_growth_task(P, "growth.std_n24", std, 24, rng.randint(1, 8), None)
                  for _ in range(4)]
        for _ in range(4):
            v = verts_of(hyperbolic_map(P, rng)[0])
            tasks.append(_growth_task(P, "growth.hyperbolic",
                                      lambda v=v: P.from_lift_vertices(v),
                                      12, rng.randint(1, 6), None))
        for _ in range(2):
            A, lam = irrational_exotic_pair(rng)
            tasks.append(_growth_task(
                P, "growth.exotic",
                lambda A=A, lam=lam: P.exotic_element(P.ExoticParams(F(A), F(lam))),
                80, rng.randint(1, 80), math.log(A)))
        rng.shuffle(tasks)
        out.append(tasks)
    return out


# -- smooth --------------------------------------------------------------------

def _group(P, gens):
    return P.GroupPresentation(tuple((name, P.from_lift_vertices(v))
                                     for name, v in gens))


def _smooth_task(P, label: str, kind: str, gens, rotations=None) -> Task:
    def run():
        return P.smooth_group(_group(P, gens))

    def check(o) -> Optional[str]:
        if o.kind != kind:
            return f"expected {kind}, got {o.kind}"
        if kind == "success":
            conj = dict(o.conjugated)
            for name, alpha in rotations.items():
                if conj[name].verts != ((F(0), alpha),):
                    return f"generator {name} not conjugated to R({alpha})"
        elif kind == "obstruction":
            prod = F(1)
            for e in o.cycle:
                prod *= e.weight if e.sign == 1 else 1 / e.weight
            if not (o.expected == 1 and prod == o.found != 1):
                return "obstruction cycle weight differs from the reported one"
        elif not o.escaping:
            return "truncated result without escaping points"
        return None

    return Task(f"smooth.{kind}.{label}", run, check, 60.0)


def _hidden_rotations(P, phi, alphas):
    gens = tuple((f"g{i}", verts_of(conjugate(P, phi, a)))
                 for i, a in enumerate(alphas))
    return gens, {f"g{i}": a for i, a in enumerate(alphas)}


# Rotation sets of the seeded success groups, from the cheapest orbit graph
# (at most 24 vertices) to the largest (about 300), with their counts per
# round, and the copies per round of the two fixed success groups.  The
# fixture group costs more than the cheapest seeded groups and less than
# the others, and these counts put the workload's median task inside it;
# the 616-vertex group is the slowest success.
SUCCESS_ROTATIONS = (((F(1, 2), F(1, 3)), 14), ((F(1, 2), F(1, 3), F(1, 5)), 4),
                     ((F(1, 7), F(2, 11)), 4))
FIXTURE_GROUP_COPIES = 14
HIDDEN2_COPIES = 8


def _fixture_group():
    """The conjugated-rotations fixture, R(1/3) and R(1/5) under one
    conjugator, as vertex strings."""
    with open(os.path.join(ROOT, "fixtures", "conjugated_rotations.json")) as fh:
        doc = json.load(fh)
    gens = tuple((name, json_verts(el)) for name, el in doc["generators"].items())
    return gens, {"a": F(1, 3), "b": F(1, 5)}


def build_smooth(P, seed: int, workdir: str, rounds: int) -> List[List[Task]]:
    """Per round: 22 seeded hidden-rotation groups, 14 copies of the fixture
    group and eight of the fixed 616-vertex group, all ending in success, and
    two groups that overflow max_vertices: one ends in obstruction, one
    truncated.  Even rounds take STD (obstruction) and a seeded exotic
    element of irrational rotation number (truncated); odd rounds a seeded
    conjugate of STD (obstruction) and the three-rotation hidden group
    (truncated), so each round has one fixed and one seeded overflowing
    group.

    The fixed groups hold the median and the tail task, so that p50 and
    tail do not depend on which seeded groups a seed draws."""
    rng = random.Random(seed)
    fixture = _fixture_group()
    hidden_phi = P.random_pl(*HIDDEN_PHI)
    hidden2 = _hidden_rotations(P, hidden_phi, HIDDEN_ROTATIONS[:2])
    hidden3, _ = _hidden_rotations(P, hidden_phi, HIDDEN_ROTATIONS)
    std = P.from_lift_vertices(STD)
    out = []
    for r in range(rounds):
        tasks = []
        for alphas, count in SUCCESS_ROTATIONS:
            for _ in range(count):
                phi = P.random_pl(rng.randrange(1 << 30), 4, 32)
                label = "seeded_" + "_".join(str(a.denominator) for a in alphas)
                tasks.append(_smooth_task(P, label, "success",
                                          *_hidden_rotations(P, phi, alphas)))
        if r % 2 == 0:
            obstruction = _smooth_task(P, "std", "obstruction", (("f", STD),))
            # lam <= 3 keeps this orbit graph's memory (6-8 MB at 4096
            # vertices, against up to 12 MB for larger lam) below that of the
            # fixed three-rotation group, so a fixed input sets peak_rss_mb
            A, lam = irrational_exotic_pair(rng, max_lam=3)
            e = P.exotic_element(P.ExoticParams(F(A), F(lam)))
            truncated = _smooth_task(P, "exotic", "truncated", (("e", verts_of(e)),))
        else:
            phi = P.random_pl(rng.randrange(1 << 30), 2, 16)
            h = phi.compose(std).compose(phi.inverse())
            obstruction = _smooth_task(P, "conjugated_std", "obstruction", (("f", verts_of(h)),))
            truncated = _smooth_task(P, "hidden3", "truncated", hidden3)
        tasks += [_smooth_task(P, "fixture", "success", *fixture)] * FIXTURE_GROUP_COPIES
        tasks += [_smooth_task(P, "hidden2", "success", *hidden2)] * HIDDEN2_COPIES
        tasks += [obstruction, truncated]
        rng.shuffle(tasks)
        out.append(tasks)
    return out


# -- search --------------------------------------------------------------------

def _rotnum_exotic_task(P, A: int, lam: int, depth: int = 16) -> Task:
    def run():
        return P.rotation_number(P.exotic_element(P.ExoticParams(F(A), F(lam))),
                                 depth=depth)

    def check(r) -> Optional[str]:
        # rho = log lam / log A, so p/q < rho exactly when A^p < lam^q
        if r.is_exact:
            return f"exact answer {r.exact} for an irrational rotation number"
        if r.depth != depth:
            return f"bracket after {r.depth} refinements, asked for {depth}"
        lo, hi = r.lo, r.hi
        if not (A ** lo.numerator < lam ** lo.denominator
                and lam ** hi.denominator < A ** hi.numerator):
            return f"bracket [{lo}, {hi}] misses log {lam} / log {A}"
        if hi.numerator * lo.denominator - lo.numerator * hi.denominator != 1:
            return f"[{lo}, {hi}] are not Farey neighbours"
        return None

    return Task(f"search.rotnum_exotic_d{depth}", run, check, 60.0)


def _rotnum_conj_task(P, v: Verts, alpha: F) -> Task:
    def run():
        return P.rotation_number(P.from_lift_vertices(v))

    def check(r) -> Optional[str]:
        if not (r.is_exact and r.exact == alpha):
            return f"rotation number {r} of a conjugate of R({alpha})"
        return None

    return Task("search.rotnum_conjugate", run, check, 60.0)


def _finite_orbit_task(P, kind: str, gens, max_period: int, exists: bool) -> Task:
    def run():
        return P.detect_finite_orbit(_group(P, gens), max_period)

    def check(orbit) -> Optional[str]:
        if orbit is None:
            return "no finite orbit found where one exists" if exists else None
        if not exists:
            return "finite orbit reported for a group with an irrational element"
        return orbit_closed([v for _, v in gens], [p.value for p in orbit])

    return Task(f"search.{kind}", run, check, 60.0)


MEDIAN_ROTATION = F(3, 8)
MEDIAN_COPIES = 8


def build_search(P, seed: int, workdir: str, rounds: int) -> List[List[Task]]:
    """Per round: four cheap seeded searches (a conjugated R(p/q) with
    q <= 8 twice; a hyperbolic map, whose fixed point is a finite orbit;
    conjugated R(1/2), R(1/3), with an orbit of 6 points); eight copies of
    the rotation number of the baseline conjugator applied to R(3/8); and
    six costlier ones (conjugated R(p/q) with 17 <= q <= 32 twice, two
    exotic elements of irrational rotation number, and an exotic element
    with a rotation, which has no finite orbit), plus the baseline's
    exotic(6, 2) bracketed to depth 21.

    The fixed R(3/8) task costs more than the cheap searches and less than
    the costly ones, and holds the workload's median task; the depth-21
    bracket is the slowest task and sets task_s.tail at every seed."""
    rng = random.Random(seed)
    median_task = _rotnum_conj_task(
        P, verts_of(conjugate(P, P.random_pl(*HIDDEN_PHI), MEDIAN_ROTATION)), MEDIAN_ROTATION)
    out = []
    for _ in range(rounds):
        tasks = [median_task] * MEDIAN_COPIES
        for q_range in ((2, 8), (2, 8), (17, 32), (17, 32)):
            phi = P.random_pl(rng.randrange(1 << 30), 3, 32)
            alpha = random_coprime(rng, rng.randint(*q_range))
            tasks.append(_rotnum_conj_task(P, verts_of(conjugate(P, phi, alpha)), alpha))
        phi = P.random_pl(rng.randrange(1 << 30), 3, 32)
        gens, _ = _hidden_rotations(P, phi, (F(1, 2), F(1, 3)))
        tasks.append(_finite_orbit_task(P, "finite_orbit", gens, 2, True))
        f, _ = hyperbolic_map(P, rng)
        tasks.append(_finite_orbit_task(P, "fixed_point", (("f", verts_of(f)),), 2, True))
        A, lam = irrational_exotic_pair(rng)
        e = P.exotic_element(P.ExoticParams(F(A), F(lam)))
        gens = (("e", verts_of(e)), ("r", (("0/1", fmt(random_coprime(rng, rng.randint(2, 9)))),)))
        tasks.append(_finite_orbit_task(P, "no_finite_orbit", gens, 2, False))
        tasks += [_rotnum_exotic_task(P, *irrational_exotic_pair(rng)) for _ in range(2)]
        tasks.append(_rotnum_exotic_task(P, 6, 2, depth=21))
        rng.shuffle(tasks)
        out.append(tasks)
    return out


# -- cli -----------------------------------------------------------------------

def call_cli(P, argv: List[str]):
    """One in-process call of the CLI: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = P.cli.main(argv)
        except SystemExit as exc:
            code = exc.code
    return code, out.getvalue(), err.getvalue()


def _cli_task(P, kind: str, argv: List[str], exit_code: int,
              check_out: Optional[Callable[[str, str], Optional[str]]] = None,
              deadline_s: float = 10.0) -> Task:
    def check(res) -> Optional[str]:
        code, out, err = res
        if code != exit_code:
            return f"{' '.join(argv)}: exit {code}, expected {exit_code}"
        if exit_code == 2 and out:
            return f"{' '.join(argv)}: output on a rejected request"
        return check_out(out, err) if check_out else None

    return Task(f"cli.{kind}", lambda: call_cli(P, argv), check, deadline_s)


def _one_error_line(out: str, err: str) -> Optional[str]:
    if not (err.startswith("error: ") and err.count("\n") == 1):
        return f"rejection is not one 'error:' line: {err[:200]!r}"
    return None


def _digest_check(sha: str):
    def check(out: str, err: str) -> Optional[str]:
        got = hashlib.sha256(out.encode()).hexdigest()
        return None if got == sha else f"stdout digest {got[:12]} != {sha[:12]}"
    return check


def fixture_requests():
    """Requests on the repository fixtures, with their recorded exit code,
    stdout digest and whether the request is marked as the tail task."""
    with open(FIXTURE_DIGESTS) as fh:
        recorded = json.load(fh)
    fx = lambda name: os.path.join(ROOT, "fixtures", name)
    for entry in recorded:
        argv = [fx(a[len("fixtures/"):]) if a.startswith("fixtures/") else a
                for a in entry["argv"]]
        yield argv, entry["exit"], entry["sha256"], entry.get("tail", False)


def _write(workdir: str, name: str, doc) -> str:
    path = os.path.join(workdir, name)
    with open(path, "w") as fh:
        fh.write(doc if isinstance(doc, str) else json.dumps(doc))
    return path


def _generated_requests(P, rng: random.Random, workdir: str, r: int):
    """Seeded inputs with answers checked exactly or by round trip."""
    pio = P.io
    k = rng.randint(2, 6)
    h = P.random_pl(rng.randrange(1 << 30), k, 64)
    while h.is_rotation:
        h = P.random_pl(rng.randrange(1 << 30), k, 64)
    g = P.random_pl(rng.randrange(1 << 30), rng.randint(1, 6), 64)
    h_doc, g_doc = pio.element_to_json(h), pio.element_to_json(g)
    hv, gv = json_verts(h_doc), json_verts(g_doc)
    elem = _write(workdir, f"r{r}_h.json", h_doc)
    elem2 = _write(workdir, f"r{r}_g.json", g_doc)

    def show_json(out, err):
        return None if json.loads(out) == h_doc else "show --format json round trip differs"

    def show_table(out, err):
        jumps = [F(line.split(": ")[1]) for line in out.splitlines()
                 if line.startswith("  jump at ")]
        if f"breakpoints: {len(hv)}" not in out or len(jumps) != len(hv):
            return "breakpoint count differs from the vertex count"
        return None if math.prod(jumps) == 1 else "jump product differs from 1"

    x = F(rng.randrange(1000), 1000)

    def evaluate(out, err):
        want = fmt(pl_eval(hv, x))
        return None if out.strip() == want else f"eval gave {out.strip()}, want {want}"

    def compose(out, err):
        cv = json_verts(json.loads(out))
        pts = {F(a) for a, _ in cv + gv} | {F(i, 97) for i in range(97)}
        for p in pts:
            if pl_eval(cv, p) != pl_eval(hv, pl_eval(gv, p)):
                return f"composite differs from h(g(x)) at {fmt(p)}"
        return None

    rk, rb = rng.randint(1, 6), rng.choice((16, 32, 64))

    def random_elem(out, err):
        v = json.loads(out).get("vertices")
        if v is None:
            return None
        xs = [F(a) for a, _ in v]
        ys = [F(b) for _, b in v]
        if len(v) - 1 > rk or any(q.denominator > rb for q in xs + ys):
            return "random element exceeds its breakpoint or denominator bound"
        if not (all(a < b for a, b in zip(xs, xs[1:]))
                and all(a < b for a, b in zip(ys, ys[1:]))
                and (xs[-1], ys[-1]) == (xs[0] + 1, ys[0] + 1)):
            return "random element is not a canonical lift"
        return None

    A, lam = irrational_exotic_pair(rng)

    def exotic(out, err):
        v = json.loads(out)["vertices"]
        slopes = {(F(v[i + 1][1]) - F(v[i][1])) / (F(v[i + 1][0]) - F(v[i][0]))
                  for i in range(len(v) - 1)}
        return None if slopes == {F(lam), F(lam, A)} else f"exotic slopes {slopes}"

    phi = P.random_pl(rng.randrange(1 << 30), 3, 32)
    alpha = random_coprime(rng, rng.randint(2, 16))
    conj = _write(workdir, f"r{r}_conj.json", pio.element_to_json(conjugate(P, phi, alpha)))
    alphas = (F(1, 2), F(1, 3)) if r % 2 else (F(1, 3), F(1, 4))
    gens, rots = _hidden_rotations(P, phi, alphas)
    group_doc = {"generators": {n: pio.element_to_json(P.from_lift_vertices(v))
                                for n, v in gens}}
    group = _write(workdir, f"r{r}_group.json", group_doc)

    def smooth(out, err):
        want = {n: {"rotation": fmt(a)} for n, a in rots.items()}
        doc = json.loads(out)
        return None if doc["kind"] == "success" and doc["conjugated"] == want else \
            "smooth did not recover the hidden rotations"

    def finite_orbit(out, err):
        orbit = json.loads(out)["finite_orbit"]
        return orbit_closed([json_verts(d) for d in group_doc["generators"].values()], orbit)

    f, gp = hyperbolic_map(P, rng)
    hyp = _write(workdir, f"r{r}_hyp.json", pio.element_to_json(f))
    N = 8

    def orbit_norms(out, err):
        lines = out.splitlines()
        head = json.loads(lines[0][2:])["growth_params"]
        rate = (head["c1"] - head["c0"]) / head["mu"]
        rows = [line.split(",") for line in lines[2:]]
        if lines[1] != "n,M_n,norm_sq,bound" or len(rows) != N:
            return "orbit-norms table malformed"
        for n, (sn, m, norm, bound) in enumerate(rows, start=1):
            if int(sn) != n or float(bound) != n * rate:
                return "orbit-norms row index or bound wrong"
            if int(m) < n * rate - 1e-12 or float(norm) < int(m) * head["beta"] ** 2 - 1e-9:
                return f"orbit-norms row {n} breaks the growth bounds"
        return None

    def growth(out, err):
        lines = out.splitlines()
        rows = [line.split(",") for line in lines[1:]]
        if lines[0] != "n,M_n" or len(rows) != N or int(rows[0][1]) != len(f.verts):
            return "breakpoint-growth table malformed"
        for n, (sn, m) in enumerate(rows, start=1):
            if int(sn) != n or int(m) < n * (gp.c1 - gp.c0) / gp.mu - 1e-12:
                return f"breakpoint-growth row {n} below the linear bound"
        return None

    depth = rng.randint(1, 4)
    apex = fmt(F(rng.randrange(64), 64))
    nested = _write(workdir, f"r{r}_nested.json",
                    pio.symbolic_set_to_json(P.nested_limit(P.reduce_mod1(F(apex)), depth)))
    want_rank = (f"rank {depth + 1}\ntop finite set size 1\n"
                 f"derivative chain sizes: {' '.join(['1'] * (depth + 1))} 0\n")

    return [
        ("show_json", ["show", elem, "--format", "json"], 0, show_json),
        ("show", ["show", elem], 0, show_table),
        ("eval", ["eval", elem, fmt(x)], 0, evaluate),
        ("compose", ["compose", elem, elem2], 0, compose),
        ("random", ["random", "--seed", str(rng.randrange(10 ** 6)), "-k", str(rk),
                    "--denom-bound", str(rb)], 0, random_elem),
        ("exotic", ["exotic", str(A), str(lam)], 0, exotic),
        ("commensuration", ["commensuration", elem], 0,
         lambda out, err: None if out.strip() == str(2 * len(hv)) else "wrong defect"),
        ("rotnum", ["rotnum", conj], 0,
         lambda out, err: None if out.strip() == f"{fmt(alpha)} (exact)" else
         f"rotnum gave {out.strip()}, want {fmt(alpha)}"),
        ("orbit_norms", ["orbit-norms", hyp, "-N", str(N)], 0, orbit_norms),
        ("breakpoint_growth", ["breakpoint-growth", hyp, "-N", str(N)], 0, growth),
        ("smooth", ["smooth", group], 0, smooth),
        ("finite_orbit", ["finite-orbit", group, "--max-period", "2"], 0, finite_orbit),
        ("cb_rank", ["cb-rank", nested], 0,
         lambda out, err: None if out == want_rank else f"cb-rank output {out!r}"),
    ]


def _outcome_requests(P, rng: random.Random, workdir: str, r: int):
    """Inputs whose answer is a reported mathematical outcome (exit 1)."""
    A, lam = irrational_exotic_pair(rng)
    exotic = {"exotic": {"A": f"{A}/1", "lambda": f"{lam}/1"}}
    rot = {"rotation": fmt(random_coprime(rng, rng.randint(2, 9)))}
    none = _write(workdir, f"r{r}_none.json", {"generators": {"e": exotic, "r": rot}})
    single = _write(workdir, f"r{r}_exotic.json", {"generators": {"e": exotic}})

    def no_orbit(out, err):
        return None if json.loads(out) == {"finite_orbit": None} else "finite orbit claimed"

    def truncated(out, err):
        doc = json.loads(out)
        return None if doc["kind"] == "truncated" and doc["escaping"] else "not truncated"

    return [
        ("no_finite_orbit", ["finite-orbit", none, "--max-period", "1"], 1, no_orbit),
        ("truncated", ["smooth", single, "--max-vertices", str(rng.randint(20, 60))],
         1, truncated),
    ]


def _malformed_requests(rng: random.Random, workdir: str, r: int):
    """Malformed input files and arguments: each must be rejected with exit 2
    and one error line (argument errors print argparse usage instead)."""
    n = rng.randint(1, 9)
    files = {
        "syntax": '{"vertices": [["0/1", "0/1"],' * n,
        "two_kinds": json.dumps({"rotation": f"1/{n + 1}",
                                 "exotic": {"A": "4/1", "lambda": "2/1"}}),
        "not_injective": json.dumps({"vertices": [["0/1", "0/1"], [f"1/{n + 1}", "0/1"],
                                                  ["1/1", "1/1"]]}),
        "zero_denominator": json.dumps({"rotation": f"{n}/0"}),
        "empty_group": json.dumps({"generators": {}}),
        "bad_ratio": json.dumps([{"limit": {"apex": "0/1", "child": [{"leaf": "0/1"}],
                                            "direction": "right", "ratio": f"{n + 1}/1"}}]),
        "valid": json.dumps({"rotation": f"1/{n + 1}"}),
    }
    p = {name: _write(workdir, f"r{r}_bad_{name}.json", doc) for name, doc in files.items()}
    one = _one_error_line
    return [
        ("bad_syntax", ["show", p["syntax"]], 2, one),
        ("bad_missing_file", ["eval", os.path.join(workdir, f"r{r}_absent.json"), "0"], 2, one),
        ("bad_two_kinds", ["show", p["two_kinds"]], 2, one),
        ("bad_not_injective", ["commensuration", p["not_injective"]], 2, one),
        ("bad_zero_denominator", ["rotnum", p["zero_denominator"]], 2, one),
        ("bad_empty_group", ["smooth", p["empty_group"]], 2, one),
        ("bad_ratio", ["cb-rank", p["bad_ratio"]], 2, one),
        ("bad_exotic", ["exotic", str(n + 1), str(n + 2)], 2, one),
        ("bad_point", ["eval", p["valid"], "x"], 2, one),
        ("bad_arguments", ["rotnum"], 2, None),
    ]


def build_cli(P, seed: int, workdir: str, rounds: int) -> List[List[Task]]:
    """Per round: every fixture request, thirteen requests on seeded inputs,
    two seeded requests with a domain outcome and ten malformed requests;
    in even rounds also the fixture request marked `"tail": true` in
    cli_digests.json (`orbit-norms` on STD with N=30), the slowest request,
    which sets task_s.tail at every seed."""
    rng = random.Random(seed)
    fixtures, slowest = [], []
    for argv, code, sha, is_tail in fixture_requests():
        kind = "fixture_slowest" if is_tail else f"fixture.{argv[0]}"
        (slowest if is_tail else fixtures).append(
            _cli_task(P, kind, argv, code, _digest_check(sha)))
    out = []
    for r in range(rounds):
        tasks = fixtures + (slowest if r % 2 == 0 else [])
        for kind, argv, code, chk in (_generated_requests(P, rng, workdir, r)
                                      + _outcome_requests(P, rng, workdir, r)
                                      + _malformed_requests(rng, workdir, r)):
            tasks.append(_cli_task(P, kind, argv, code, chk))
        out.append(tasks)
    return out


def _nested_json(depth: int) -> str:
    """A symbolic set nested `depth` limits deep, as JSON text (too deep for
    json.dumps)."""
    head = '[{"limit": {"apex": "0/1", "direction": "right", "ratio": "1/4", "child": '
    return head * depth + '[{"leaf": "0/1"}]' + "}}]" * depth


def defect_probes(P, workdir: str) -> List[Task]:
    """The two known CLI defects, as requests that must be rejected with
    exit 2: a random element with more breakpoints than rationals of bounded
    denominator (loops forever today, so it runs under a short deadline) and
    a symbolic set nested 600 deep (a RecursionError today)."""
    deep = _write(workdir, "deep.json", _nested_json(600))
    return [
        _cli_task(P, "defect_random_hang", ["random", "--seed", "1", "-k", "3",
                                            "--denom-bound", "2"], 2, _one_error_line,
                  deadline_s=1.0),
        _cli_task(P, "defect_deep_nesting", ["cb-rank", deep], 2, _one_error_line),
    ]


BUILDERS = {"growth": build_growth, "smooth": build_smooth,
            "search": build_search, "cli": build_cli}
