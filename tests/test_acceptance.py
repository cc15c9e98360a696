"""End-to-end acceptance suite.

Each test covers one numbered criterion, enforces its tolerance and runtime
budget, and prints a single PASS/FAIL line.  Everything else in tests/ is
developer-facing; this file is the release gate.
"""

import math
import random
import time
from fractions import Fraction as F

import pytest

from plcircle import (ExoticParams, FiniteVector, GroupPresentation, Leaf,
                      SymbolicSet, affine_apply, breakpoint_growth, cb_rank,
                      exotic_element, from_lift_vertices, growth_params,
                      identity, jump_cocycle, l2_norm_sq, nested_limit,
                      orbit_norm_seq, random_pl, realize, reduce_mod1,
                      rotation, rotation_number, smooth_group,
                      synthesize_conjugator)

STD = from_lift_vertices([(0, 0), (F(1, 2), F(1, 4)), (1, 1)])


def _report(n, label, ok):
    print(f"\n[criterion {n:2d}] {'PASS' if ok else 'FAIL'}  {label}")
    assert ok


class Budget:
    def __init__(self, seconds):
        self.limit = seconds
        self.t0 = time.monotonic()

    def check(self):
        return time.monotonic() - self.t0 <= self.limit


def test_criterion_01_chain_rule():
    budget = Budget(10)
    ok = True
    for seed in range(500):
        g = random_pl(2 * seed, 1 + (seed % 6), 64)
        h = random_pl(2 * seed + 1, 1 + ((seed // 6) % 6), 64)
        gh = g.compose(h)
        points = set(g.breakpoints) | set(h.breakpoints) | set(gh.breakpoints)
        points |= {h.eval_inverse(p) for p in g.breakpoints}
        for x in points:
            if gh.jump(x) != g.jump(h.eval(x)) * h.jump(x):
                ok = False
    ok = ok and budget.check()
    _report(1, "exact cocycle chain rule on 500 random pairs, <= 10 s", ok)


def test_criterion_02_product_one():
    ok = True
    for seed in range(1000):
        h = random_pl(seed, seed % 7, 64)
        if jump_cocycle(h).product() != 1:
            ok = False
    _report(2, "jump product equals 1 for 1000 random elements", ok)


def _rand_vector(rng):
    entries = {}
    for _ in range(rng.randint(1, 5)):
        p = reduce_mod1(F(rng.randint(0, 63), 64))
        v = F(rng.randint(1, 8), rng.randint(1, 8))
        if v != 1:
            entries[p] = v
    return FiniteVector.from_dict(entries)


def test_criterion_03_homomorphism_isometry():
    rng = random.Random(12)
    ok = True
    for trial in range(200):
        g = random_pl(3000 + trial, rng.randint(0, 4), 32)
        h = random_pl(7000 + trial, rng.randint(0, 4), 32)
        v = _rand_vector(rng)
        lhs = affine_apply(g, affine_apply(h, v))
        rhs = affine_apply(g.compose(h), v)
        if lhs != rhs:
            ok = False
        moved = affine_apply(g, v)
        a, b = l2_norm_sq(moved.quotient(jump_cocycle(g.inverse()))), l2_norm_sq(v)
        # isometry of the affine action: |rho(g)v - rho(g)0| = |v|
        denom = max(abs(a), abs(b), 1.0)
        if abs(a - b) / denom > 1e-9:
            ok = False
    _report(3, "affine action is a homomorphism and an isometry (200 triples)",
            ok)


def test_criterion_04_linear_growth():
    budget = Budget(30)
    gp = growth_params(STD)
    c0, c1, mu, beta = gp.c0, gp.c1, gp.mu, gp.beta
    ok = c0 < 0 < c1 and mu > 0 and beta > 0
    N = 200
    growth = breakpoint_growth(STD, N)
    norms = orbit_norm_seq(STD, N)
    for n in range(1, N + 1):
        m = growth[n - 1]
        if m < n * (c1 - c0) / mu - 1e-12:
            ok = False
        if norms[n - 1] < m * beta * beta - 1e-9:
            ok = False
    ok = ok and growth[-1] > 10 * growth[0] and norms[-1] > 10 * norms[0]
    ok = ok and budget.check()
    _report(4, "linear breakpoint growth and norm lower bound up to n=200, "
               "<= 30 s", ok)


def test_criterion_05_exotic_boundedness():
    budget = Budget(20)
    ok = True
    for A, lam in ((4, 2), (9, 3)):
        g = exotic_element(ExoticParams(F(A), F(lam)))
        jumps = set()
        bound = 0.0
        power = identity()
        vec = FiniteVector.empty()
        for n in range(1, 1001):
            power = power.compose(g)
            vec = affine_apply(g, vec)
            if len(power.breakpoints) > 2:
                ok = False
            for _, v in jump_cocycle(power).entries:
                jumps.add(v)
            bound = max(bound, l2_norm_sq(vec))
        if len(jumps) > 3:
            ok = False
        if bound > 2 * math.log(A) ** 2 + 1e-9:
            ok = False
    ok = ok and budget.check()
    _report(5, "exotic one-parameter elements stay bounded over 1000 iterates, "
               "<= 20 s", ok)


def test_criterion_06_rotation_numbers():
    ok = True
    for q in range(1, 31):
        for p in range(q):
            if math.gcd(p, q) != 1:
                continue
            r = rotation_number(rotation(F(p, q)), max_q=30)
            if not (r.is_exact and r.exact == F(p, q)):
                ok = False
    g = exotic_element(ExoticParams(F(4), F(2)))
    ok = ok and g.iterate(2) == identity()
    r = rotation_number(g, max_q=4)
    ok = ok and r.is_exact and r.exact == F(1, 2)
    for seed in range(50):
        phi = random_pl(seed, 3, 32)
        h = phi.compose(rotation(F(1, 3))).compose(phi.inverse())
        r = rotation_number(h, max_q=4)
        if not (r.is_exact and r.exact == F(1, 3)):
            ok = False
    _report(6, "rotation numbers: rationals q<=30, exotic = 1/2, "
               "conjugacy invariance", ok)


def test_criterion_07_smoothing_roundtrip():
    budget = Budget(10)
    ok = True
    for seed in range(20):
        phi0 = random_pl(seed, 4, 32)
        gens = GroupPresentation(tuple(
            (name, phi0.compose(rotation(a)).compose(phi0.inverse()))
            for name, a in (("a", F(1, 3)), ("b", F(1, 5)))))
        outcome = smooth_group(gens)
        if outcome.kind != "success":
            ok = False
            continue
        conj = dict(outcome.conjugated)
        if conj["a"] != rotation(F(1, 3)) or conj["b"] != rotation(F(1, 5)):
            ok = False
    ok = ok and budget.check()
    _report(7, "smoothing roundtrip recovers both rotations for 20 seeds, "
               "<= 10 s", ok)


def test_criterion_08_obstruction():
    outcome = smooth_group(GroupPresentation((("f", STD),)))
    ok = outcome.kind == "obstruction"
    if ok:
        # a closed walk: each step's weight is the jump of the step as walked
        cyc = outcome.cycle
        ok = all(a.target == b.source for a, b in zip(cyc, cyc[1:] + cyc[:1]))
        prod = F(1)
        for e in cyc:
            prod *= e.weight
        ok = ok and prod == outcome.found != 1 and outcome.expected == 1
    _report(8, "jump at a fixed point yields an exact cycle obstruction", ok)


def test_criterion_09_synthesis_roundtrip():
    rng = random.Random(99)
    ok = True
    done = 0
    while done < 200:
        k = rng.randint(1, 7)
        pts = rng.sample([F(i, 128) for i in range(128)], k + 1)
        vals = []
        prod = F(1)
        for _ in range(k):
            v = F(rng.randint(1, 12), rng.randint(1, 12))
            vals.append(v)
            prod *= v
        vals.append(1 / prod)
        a = FiniteVector.from_dict(
            {reduce_mod1(p): v for p, v in zip(pts, vals) if v != 1})
        if a.product() != 1 or len(a.entries) > 8:
            continue
        done += 1
        if jump_cocycle(synthesize_conjugator(a)) != a:
            ok = False
    _report(9, "200 product-one assignments realized exactly as conjugator "
               "jumps", ok)


def _is_accumulation(S, depth=4):
    def gaps(pts):
        vals = sorted(pts)
        n = len(vals)
        out = {}
        for i, v in enumerate(vals):
            prev = vals[i - 1] if i else vals[-1] - 1
            nxt = vals[i + 1] if i + 1 < n else vals[0] + 1
            out[v] = min(v - prev, nxt - v) if n > 1 else F(1)
        return out
    g1, g2 = gaps(realize(S, depth)), gaps(realize(S, depth + 2))
    return {v for v in g1 if v in g2 and g2[v] < g1[v]}


def _brute_rank(S, depth=4):
    rank = 0
    while set(realize(S, depth)):
        rank += 1
        from plcircle import cb_derivative
        if not (_is_accumulation(S, depth) & set(realize(S, depth))):
            break
        S = cb_derivative(S)
    return rank


def test_criterion_10_cantor_bendixson():
    ok = True
    finite = SymbolicSet(tuple(Leaf(reduce_mod1(F(i, 7))) for i in range(5)))
    ok = ok and cb_rank(finite).rank == 1 == _brute_rank(finite)
    one = nested_limit(reduce_mod1(F(1, 2)), 1)
    ok = ok and cb_rank(one).rank == 2 == _brute_rank(one)
    for k in range(1, 6):
        S = nested_limit(reduce_mod1(F(1, 3)), k)
        r = cb_rank(S).rank
        if r != k + 1 or r != _brute_rank(S):
            ok = False
    _report(10, "Cantor-Bendixson ranks match the brute-force oracle for "
                "k <= 5", ok)
