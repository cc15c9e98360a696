"""Orbit graphs, the coboundary solver, and the full smoothing pipeline."""

import bisect
import itertools
import json
import math
import operator
import pathlib
import random
from collections import Counter, deque, namedtuple
from fractions import Fraction as F

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from plcircle import (Edge, FiniteVector, GroupPresentation, Obstruction,
                      PLHomeo, Success, Truncated,
                      commensuration_defect, detect_finite_orbit,
                      exotic_element, ExoticParams, fixed_points,
                      from_lift_vertices, identity, jump_cocycle, random_pl,
                      reduce_mod1, rotation, smooth_group,
                      synthesize_conjugator)
from plcircle import homeo, smoothing
from plcircle.circle import CirclePoint, frac_mod1
from plcircle.io import group_from_json, load_json, outcome_to_json
from plcircle.smoothing import _Orbits

FIXTURES = pathlib.Path(__file__).resolve().parent.parent / "fixtures"

STD = from_lift_vertices([(0, 0), (F(1, 2), F(1, 4)), (1, 1)])


def pres(*gens):
    return GroupPresentation(tuple((f"g{i}", g) for i, g in enumerate(gens)))


@pytest.mark.parametrize("generators, message", [
    ((), "presentation needs at least one generator"),
    ((("a", STD), ("a", rotation(F(1, 3)))), "generator names must be unique"),
], ids=["empty", "repeated_name"])
def test_presentation_rejects_by_name(generators, message):
    with pytest.raises(ValueError, match=message):
        GroupPresentation(generators)


def test_defect_rotation_zero():
    assert commensuration_defect(rotation(F(1, 3))) == 0


def test_defect_standard():
    assert commensuration_defect(STD) == 4


def test_defect_exotic():
    g = exotic_element(ExoticParams(F(4), F(2)))
    assert commensuration_defect(g) == 4


@given(st.integers(0, 10**6), st.integers(1, 8), st.integers(8, 64))
@settings(max_examples=100, deadline=None)
def test_defect_matches_inverse_breakpoints(seed, k, denom_bound):
    # oracle: count the breakpoints of the inverse instead of g(BP(g))
    g = random_pl(seed, k, denom_bound)
    assert commensuration_defect(g) == len(g.breakpoints) + len(g.inverse().breakpoints)


# ------------------------------------------------------------ coboundary solve

def test_solve_single_conjugated_rotation_roundtrip():
    phi = random_pl(11, 4, 32)
    g = phi.compose(rotation(F(1, 3))).compose(phi.inverse())
    outcome = smooth_group(pres(g))
    assert outcome.kind == "success"
    a = jump_cocycle(outcome.phi)
    # coboundary equation a(y) = J(g, y) * a(g y) at every vertex of the graph
    for y in bfs_orbit_graph(pres(g), 4096).vertices:
        assert a.value_at(y) == g.jump(y) * a.value_at(g.eval(y))
    assert a.product() == 1


def test_solve_obstruction_self_loop():
    # jump at a fixed point: a(0) = J(0) * a(0) forces J(0) = 1, but J(0) = 1/3
    outcome = smooth_group(pres(STD))
    assert outcome.kind == "obstruction"
    assert outcome.expected == 1
    assert outcome.found == F(1, 3)
    assert outcome.cycle[0].source == outcome.cycle[-1].target == reduce_mod1(0)


# ------------------------------------------------------------------- synthesis

def test_synthesize_standard_assignment():
    a = FiniteVector.from_dict({reduce_mod1(0): F(1, 3), reduce_mod1(F(1, 2)): F(3)})
    psi = synthesize_conjugator(a)
    assert jump_cocycle(psi) == a


def test_synthesize_three_points():
    a = FiniteVector.from_dict({
        reduce_mod1(0): F(2),
        reduce_mod1(F(1, 4)): F(3),
        reduce_mod1(F(1, 2)): F(1, 6),
    })
    psi = synthesize_conjugator(a)
    assert jump_cocycle(psi) == a


def test_synthesize_rejects_bad_product():
    # the cumulative product of the values must end at 1, reduced or not
    for values in ((F(2),), (F(2), F(1, 3)), (F(4), F(1, 2), F(1, 3)),
                   (F(1, 2), F(3, 2), F(2, 3))):
        a = FiniteVector.from_dict({reduce_mod1(F(i, 4)): v for i, v in enumerate(values)})
        with pytest.raises(ValueError, match="assignment product differs from 1"):
            synthesize_conjugator(a)


@pytest.mark.parametrize("entries", [
    ((F(1, 2), F(2)), (F(1, 4), F(1, 2))),  # unsorted
    ((F(1, 4), F(2)), (F(1, 4), F(1, 2))),  # a repeated point
    ((F(0), F(3)), (F(1, 2), F(1, 6)), (F(1, 3), F(2))),
], ids=["unsorted", "repeated", "unsorted_three"])
def test_synthesize_rejects_support_not_strictly_increasing(entries):
    # a conjugator built from these entries in the given order would realize
    # another vector; FiniteVector rejects them before one can be asked for
    with pytest.raises(ValueError, match="strictly increasing"):
        synthesize_conjugator(FiniteVector(tuple((CirclePoint(x), v) for x, v in entries)))


def test_synthesize_roundtrip_many():
    import random
    rng = random.Random(5)
    for trial in range(50):
        k = rng.randint(1, 7)
        pts = sorted(rng.sample([F(i, 64) for i in range(64)], k + 1))
        vals = []
        prod = F(1)
        for _ in range(k):
            v = F(rng.randint(1, 9), rng.randint(1, 9))
            if v == 1:
                v = F(2)
            vals.append(v)
            prod *= v
        vals.append(1 / prod)
        a = FiniteVector.from_dict({
            reduce_mod1(p): v for p, v in zip(pts, vals) if v != 1})
        if a.product() != 1:
            continue
        psi = synthesize_conjugator(a)
        assert jump_cocycle(psi) == a


# ---------------------------------------------------------- the success tail
#
# smooth_group reads phi's vertices and every conjugate's angle off the
# integer sums of smoothing._conjugator.  The oracle is the tail it
# replaced, kept here verbatim: the support as a FiniteVector, phi from the
# public synthesize_conjugator, and each angle phi(g(0)) - phi(0) by
# lift_eval, which evaluates phi on its table.

def oracle_tail_smooth(G, max_vertices):
    seed = sorted(p.value for _, g in G.generators for p in g.breakpoints)
    o = _Orbits([(x.numerator, x.denominator) for x in seed],
                smoothing._signed_generators(G), max_vertices)
    sol = smoothing._solve(o)
    if not isinstance(sol, list):
        return sol
    phi = synthesize_conjugator(FiniteVector(tuple((o.point(v), F(*y)) for v, y in sol)))
    phi_zero = phi.lift_eval(F(0))
    return Success(phi=phi, conjugated=tuple(
        (name, rotation(phi.lift_eval(g.lift_eval(F(0))) - phi_zero))
        for name, g in G.generators))


def _periodic_conjugate(alpha):
    """R(1/4) beside a conjugate of R(alpha) by a map that commutes with
    R(1/4)."""
    psi = PLHomeo([(F(i, 8), F(i // 2, 4) + (i % 2) * F(1, 16)) for i in range(8)])
    return GroupPresentation((("a", rotation(F(1, 4))),
                              ("b", _conjugate(psi, rotation(alpha)))))


def _tail_groups():
    """500 seeded groups, most of them successes: conjugates of one or two
    rotations, single rotations and seeded maps; then an identity and a
    rotation each beside a conjugated rotation."""
    for s in range(300):
        phi = random_pl(s, 1 + s % 5, 32)
        alphas = [F(1, 2 + s % 5)] + [F(s % 3 + 1, 7)] * (s % 2)
        yield pres(*(_conjugate(phi, rotation(a)) for a in alphas))
    for s in range(100):
        yield pres(rotation(F(s % 11, 11)))
    for s in range(100):
        yield pres(random_pl(s, 2, 8))
    for s in range(8):
        yield pres(identity(), _conjugate(random_pl(s, 3, 16), rotation(F(2, 5))))
        yield _periodic_conjugate(F(1 + s % 3, 4 + s))


def test_success_tail_matches_fraction_oracle():
    kinds, lifted = Counter(), 0
    for G in (pres(_conjugate(random_pl(46, 2, 32), rotation(F(1, 3)))), *_tail_groups()):
        got, want = smooth_group(G, 512), oracle_tail_smooth(G, 512)
        assert got.kind == want.kind
        kinds[got.kind] += 1
        if got.kind != "success":
            assert got == want
            continue
        assert_same_verts(got.phi, want.phi)
        assert got.conjugated == want.conjugated
        if not got.phi.is_rotation:  # the lift of g(x_0) below x_0
            x0 = got.phi.verts[0][0]
            lifted += sum(g.eval(CirclePoint(x0)).value < x0 for _, g in G.generators)
    assert kinds["success"] >= 400 and kinds["truncated"] and kinds["obstruction"]
    assert lifted >= 3


# ---------------------------------------------------------------- finite orbit

def test_finite_orbit_rotation():
    orbit = detect_finite_orbit(pres(rotation(F(1, 3))), 4)
    assert orbit is not None
    assert set(orbit) == {reduce_mod1(F(p, 3)) for p in range(3)}


def test_finite_orbit_fixed_point():
    orbit = detect_finite_orbit(pres(STD), 4)
    assert orbit == (reduce_mod1(0),)


def _count_composes(monkeypatch):
    """The list that records every PLHomeo.compose call from now on."""
    compose, composed = PLHomeo.compose, []

    def counting_compose(self, other):
        composed.append(self)
        return compose(self, other)

    monkeypatch.setattr(PLHomeo, "compose", counting_compose)
    return composed


def test_finite_orbit_closes_each_candidate_as_found(monkeypatch):
    # STD fixes 0, the first candidate of the first word, STD itself: no
    # word is composed (the whole enumeration to length 6 composes 9)
    composed = _count_composes(monkeypatch)
    assert detect_finite_orbit(pres(STD), 6) == (reduce_mod1(0),)
    assert len(composed) == 0


def test_finite_orbit_exotic_period_two():
    g = exotic_element(ExoticParams(F(4), F(2)))
    orbit = detect_finite_orbit(pres(g), 4)
    assert orbit is not None and len(orbit) == 2


def _spy_closures(monkeypatch):
    """The list that records each orbit closure detect_finite_orbit makes
    from now on, as (candidate pair, kernel steps), each step (map,
    source, circle image).  A closure's steps are those made between the
    search's taking its candidate from _word_candidates and asking for the
    next, so the words' compositions and fixed points, made inside
    _word_candidates, are not counted; a candidate skipped with no step
    is dropped."""
    step, word_candidates = PLHomeo._advance, smoothing._word_candidates
    closures, active = [], []

    def counting_step(self, n, d):
        out = step(self, n, d)
        if active:
            active[-1].append((self, (n, d), (out[0] % out[1], out[1])))
        return out

    def spied(*args):
        for p in word_candidates(*args):
            steps = []
            closures.append(((p.value.numerator, p.value.denominator), steps))
            active.append(steps)
            try:
                yield p
            finally:  # also when the search returns, and closes the generator
                active.pop()
            if not steps:
                closures.pop()

    monkeypatch.setattr(PLHomeo, "_advance", counting_step)
    monkeypatch.setattr(smoothing, "_word_candidates", spied)
    return closures


def test_finite_orbit_none_for_irrational_type():
    g = exotic_element(ExoticParams(F(5), F(2)))
    assert detect_finite_orbit(pres(g), 6) is None


def test_finite_orbit_tries_zero_after_the_trivial_word(monkeypatch):
    # no word of length 1 has a fixed point; at length 2 the trivial word
    # g^-1 g is the identity, so 0 is tried after the words' fixed points.
    # The maps are PL conjugates of exotic(6, 2) and R(1/3), whose rotation
    # numbers would end the search before any word
    phi = random_pl(3, 2, 16)
    G = pres(_conjugate(phi, exotic_element(ExoticParams(F(6), F(2)))),
             _conjugate(phi, rotation(F(1, 3))))
    closures = _spy_closures(monkeypatch)
    assert detect_finite_orbit(G, 1) is None
    assert closures == []
    assert detect_finite_orbit(G, 2) is None
    assert len(closures) > 1 and closures[-1][0] == (0, 1)


def test_finite_orbit_tries_zero_for_an_identity_generator():
    # at max_period 1 no word of length 2 is reached, so 0 is tried only
    # when a generator is the identity; g, a PL conjugate of R(1/3), has
    # no fixed point, and the orbit of 0 has 3 points
    phi = random_pl(3, 2, 16)
    g = _conjugate(phi, rotation(F(1, 3)))
    assert detect_finite_orbit(pres(g), 1) is None
    assert detect_finite_orbit(pres(g, identity()), 1) == tuple(
        reduce_mod1(x) for x in (0, F(1, 12), F(5, 12)))


def _generator_maps(G):
    maps = []
    for _, g in G.generators:
        maps.append(g)
        maps.append(g.inverse())
    return maps


def oracle_search(G, max_period, max_words=2000):
    """The fixed points of every new word of length <= max_period, in word
    order, repeats included, then 0 if some word is the identity; and the
    length index, from 0, at which the word budget broke the search, or
    None."""
    maps = _generator_maps(G)
    seen = {identity()}
    frontier = [identity()]
    candidates = []
    identity_word_seen = False
    broke_at = None
    for length in range(max_period):
        nxt = []
        for w in frontier:
            for g in maps:
                gw = g.compose(w)
                if gw.is_identity:
                    identity_word_seen = True
                if gw in seen:
                    continue
                seen.add(gw)
                nxt.append(gw)
                fs = fixed_points(gw)
                if fs.full:
                    identity_word_seen = True
                candidates.extend(fs.points)
                for s, t in fs.arcs:
                    candidates.extend((s, t))
            if len(seen) > max_words:
                broke_at = length
                break
        frontier = nxt
        if not frontier or len(seen) > max_words:
            break
    if identity_word_seen:
        candidates.append(reduce_mod1(0))
    return candidates, broke_at


def _ball(G, radius):
    """Every element of G that a word of length <= radius gives."""
    maps = _generator_maps(G)
    ball = {identity()}
    for _ in range(radius):
        ball |= {g.compose(w) for w in ball for g in maps}
    return ball


def bfs_detect_finite_orbit(G, max_period, max_orbit=512, max_words=2000):
    """Test oracle: the finite-orbit search with each candidate's orbit
    closed by its own breadth-first search over CirclePoint sets."""
    maps = _generator_maps(G)
    tried = set()
    for p in oracle_search(G, max_period, max_words)[0]:
        if p in tried:
            continue
        tried.add(p)
        orbit = {p}
        queue = deque([p])
        bounded = True
        while queue and bounded:
            v = queue.popleft()
            for g in maps:
                w = g.eval(v)
                if w not in orbit:
                    if len(orbit) >= max_orbit:
                        bounded = False
                        break
                    orbit.add(w)
                    queue.append(w)
        if bounded:
            return tuple(sorted(orbit, key=lambda p: p.value))
    return None


def _finite_orbit_group(seed):
    """A group with a finite orbit of 1 to 6 points, or a pair of random
    maps, which usually has none."""
    phi = random_pl(seed, 2, 16)
    kind = seed % 4
    if kind == 0:
        return pres(_conjugate(phi, rotation(F(1, 2 + seed % 5))))
    if kind == 1:
        return pres(*(_conjugate(phi, rotation(a)) for a in (F(1, 2), F(1, 3))))
    if kind == 2:
        return pres(_conjugate(phi, STD))
    return pres(random_pl(seed, 2, 16), random_pl(seed + 500, 1, 16))


FINITE_ORBIT_BUDGETS = (1, 2, 3, 5, 8)


@pytest.mark.parametrize("seed", range(16))
def test_reduced_words_change_no_candidate(seed):
    # the search composes reduced words only, letters compared as maps, and
    # the oracle every word.  Where the word budget breaks the oracle's
    # search, the same candidates come in the same order.  Elsewhere the
    # last length solves one word per letter cycle: the candidates are a
    # subsequence of the oracle's, and each one dropped is g(p) for a kept
    # candidate p before it and a word g shorter than max_period, so it
    # lies on p's orbit
    G = _finite_orbit_group(seed)
    signed = smoothing._signed_generators(G)
    for max_period in (1, 2, 3):
        ball = _ball(G, max_period - 1)
        for max_words in (0, 1, 3, 20, 2000):
            got = list(smoothing._word_candidates(signed, max_period, max_words))
            want, broke_at = oracle_search(G, max_period, max_words)
            if broke_at is not None:
                assert got == want
                continue
            kept = []
            for x in want:
                if len(kept) < len(got) and got[len(kept)] == x:
                    kept.append(x)
                else:
                    assert any(g.eval(p) == x for p in kept for g in ball)
            assert kept == got


def test_finite_orbit_composes_reduced_words_only(monkeypatch):
    # two generators a, b: the 4 words of length 1 are the signed
    # generators, and of the 12 reduced words of length 2, the last, one
    # per letter cycle up to rotation and inversion is composed: aa, ab, aB
    # and bb stand for {aa, AA}, {ab, ba, AB, BA}, {aB, Ba, Ab, bA} and
    # {bb, BB}
    G = group_from_json(load_json(str(FIXTURES / "conjugated_rotations.json")))
    composed = _count_composes(monkeypatch)
    assert len(detect_finite_orbit(G, 2)) == 15
    assert len(composed) == 4


def test_finite_orbit_composes_one_word_per_cycle_at_period_six(monkeypatch):
    # without the cycle rule the search composes 1,452 words of lengths 2
    # to 6, 972 of them of length 6; with it, the same 480 of lengths 2 to
    # 5 and 186 of length 6.  The pair has no finite orbit to find
    G = pres(STD, random_pl(3, 4, 32))
    composed = _count_composes(monkeypatch)
    assert detect_finite_orbit(G, 6) is None
    assert len(composed) == 666


def _involution_groups(seed):
    """Four pairs whose first generator is an involution, its own inverse:
    a finite cyclic group of order 6, and three infinite groups."""
    phi = random_pl(seed, 2, 16)
    half = _conjugate(phi, rotation(F(1, 2)))
    return [pres(half, _conjugate(phi, rotation(F(1, 3)))),
            pres(half, random_pl(seed + 700, 2, 16)),
            pres(half, _conjugate(phi, STD)),
            pres(exotic_element(ExoticParams(F(4), F(2))).inverse(), random_pl(seed, 1, 8))]


def test_finite_orbit_composes_an_involution_once(monkeypatch):
    # a = phi R(1/2) phi^-1 is one letter, so the length-1 words are a, b
    # and B; of length 2, aa is skipped as g^-1 g is, ab stands for ba, aB
    # and Ba, and bb for BB: 2 compositions for the 9 reduced words that
    # extend the three.  No word has a fixed point, and 0's orbit has 6
    # points
    G = _involution_groups(0)[0]
    composed = _count_composes(monkeypatch)
    assert len(detect_finite_orbit(G, 2)) == 6
    assert len(composed) == 2


@pytest.mark.parametrize("seed", range(4))
def test_finite_orbit_with_an_involution_matches_bfs_oracle(seed, monkeypatch):
    # the search equals the oracle, which composes every word, at periods 1
    # to 4, also under word budgets that break the search on its last length
    word_candidates = smoothing._word_candidates
    broke_on_last = 0
    for G in _involution_groups(seed):
        for max_period in (1, 2, 3, 4):
            for max_words in (2000, 5, 9):
                broke_at = oracle_search(G, max_period, max_words)[1]
                broke_on_last += broke_at == max_period - 1
                monkeypatch.setattr(smoothing, "_word_candidates",
                                    lambda signed, p, m=max_words: word_candidates(signed, p, m))
                for max_orbit in (2, 8, 64):
                    assert (detect_finite_orbit(G, max_period, max_orbit=max_orbit)
                            == bfs_detect_finite_orbit(G, max_period, max_orbit, max_words))
    assert broke_on_last >= 4


@pytest.mark.parametrize("seed", range(16))
def test_finite_orbit_matches_bfs_oracle(seed):
    # small max_orbit budgets cut some candidate orbits off
    G = _finite_orbit_group(seed)
    for max_orbit in FINITE_ORBIT_BUDGETS:
        assert (detect_finite_orbit(G, 2, max_orbit=max_orbit)
                == bfs_detect_finite_orbit(G, 2, max_orbit=max_orbit))


def test_finite_orbit_after_a_cut_off_candidate():
    # a fixes 0, 1/4 and 3/4 and pushes 1/2 towards 3/4; with R(1/2) the
    # first candidate, 0, has an infinite orbit and the next, 1/4, a finite one
    a = from_lift_vertices([(0, 0), (F(1, 8), F(1, 32)), (F(1, 4), F(1, 4)),
                            (F(1, 2), F(5, 8)), (F(3, 4), F(3, 4)),
                            (F(7, 8), F(15, 16))])
    G = GroupPresentation((("a", a), ("b", rotation(F(1, 2)))))
    want = (reduce_mod1(F(1, 4)), reduce_mod1(F(3, 4)))
    for max_orbit in FINITE_ORBIT_BUDGETS[1:]:
        assert detect_finite_orbit(G, 1, max_orbit=max_orbit) == want
        assert bfs_detect_finite_orbit(G, 1, max_orbit=max_orbit) == want
    assert detect_finite_orbit(G, 1, max_orbit=1) is None


@pytest.mark.parametrize("gens, period", [
    ((exotic_element(ExoticParams(F(6), F(2))), rotation(F(1, 3))), None),
    ((exotic_element(ExoticParams(F(4), F(2))).inverse(),), 2),
    ((rotation(F(3, 5)), STD), 5),
])
def test_finite_orbit_ruled_out_by_a_rotation_number(gens, period, monkeypatch):
    # a rotation or an exotic element (or its inverse) whose rotation number
    # is no p/q with q <= max_orbit leaves no finite orbit, and the search
    # then composes no word; period None stands for an irrational one.
    # Otherwise the word search runs, though it may compose nothing: the
    # involution exotic(4, 2)^-1 is its own inverse, and its square is
    # skipped as g^-1 g is
    G = pres(*gens)
    word_candidates = smoothing._word_candidates
    for max_orbit in FINITE_ORBIT_BUDGETS:
        searches = []

        def spied(*args):
            searches.append(args)
            return word_candidates(*args)

        monkeypatch.setattr(smoothing, "_word_candidates", spied)
        composed = _count_composes(monkeypatch)
        got = detect_finite_orbit(G, 2, max_orbit=max_orbit)
        monkeypatch.undo()
        assert got == bfs_detect_finite_orbit(G, 2, max_orbit=max_orbit)
        ruled_out = period is None or max_orbit < period
        assert (searches == []) == ruled_out
        if ruled_out:
            assert composed == []


def test_finite_orbit_oracle_cases_reach_the_cut_off():
    # some group must have an orbit that the smallest budgets cut off
    found = [[bfs_detect_finite_orbit(_finite_orbit_group(seed), 2, max_orbit=m)
              for m in FINITE_ORBIT_BUDGETS] for seed in range(16)]
    assert any(r[0] is None and r[-1] is not None for r in found)


def test_finite_orbit_skips_candidates_on_cut_off_orbits(monkeypatch):
    # of this pair's 11 distinct candidates, 4 lie on orbits that an earlier
    # closure cut off at max_orbit
    G = pres(STD, random_pl(0, 4, 32))
    closures = _spy_closures(monkeypatch)
    got = detect_finite_orbit(G, 2, max_orbit=8)
    assert got == bfs_detect_finite_orbit(G, 2, max_orbit=8)
    assert len(set(oracle_search(G, 2)[0])) == 11
    assert len(closures) == 7
    # no closure starts on a point an earlier closure reached
    reached = set()
    for key, steps in closures:
        assert key not in reached
        reached |= {x for _, x, _ in steps} | {y for _, _, y in steps}


def test_finite_orbit_rejects_empty_budgets():
    for max_period, max_orbit in ((0, 512), (4, 0)):
        with pytest.raises(ValueError):
            detect_finite_orbit(pres(STD), max_period, max_orbit=max_orbit)


# -------------------------------------------------------------- full pipeline

def test_smooth_rotations_only():
    outcome = smooth_group(pres(rotation(F(1, 3)), rotation(F(1, 5))))
    assert outcome.kind == "success"
    assert outcome.phi == identity()


def test_smooth_conjugated_rotation_pair():
    phi0 = random_pl(21, 4, 32)
    gens = [phi0.compose(rotation(a)).compose(phi0.inverse())
            for a in (F(1, 3), F(1, 5))]
    outcome = smooth_group(pres(*gens))
    assert outcome.kind == "success"
    back = [outcome.phi.compose(g).compose(outcome.phi.inverse()) for g in gens]
    assert all(h.breakpoints == () for h in back)
    assert back[0] == rotation(F(1, 3))
    assert back[1] == rotation(F(1, 5))


@pytest.mark.parametrize("make", [
    lambda: group_from_json(load_json(str(FIXTURES / "conjugated_rotations.json"))),
    lambda: _hidden_rotations(0)], ids=["fixture", "hidden_rotations"])
def test_smooth_group_composes_nothing(monkeypatch, make):
    # each conjugate is read off phi; the only maps inverted are the
    # generators, whose inverses step the orbit graph
    G = make()
    inverse, inverted = PLHomeo.inverse, []

    def compose(self, other):
        raise AssertionError("smooth_group composed two maps")

    def recording_inverse(self):
        inverted.append(self)
        return inverse(self)

    monkeypatch.setattr(PLHomeo, "compose", compose)
    monkeypatch.setattr(PLHomeo, "inverse", recording_inverse)
    assert smooth_group(G).kind == "success"
    assert inverted == [g for _, g in G.generators]


@pytest.mark.parametrize("make", [
    lambda: group_from_json(load_json(str(FIXTURES / "conjugated_rotations.json"))),
    lambda: _hidden_rotations(0)], ids=["fixture", "hidden_rotations"])
def test_smooth_group_canonicalizes_nothing(monkeypatch, make):
    # input is canonicalized when it is built; every map derived from it
    # (inverses, composites, rotations, the conjugator) is built in
    # canonical form directly
    G, H = make(), _two_generators(7)
    (_, g), (_, h) = H.generators
    orbit = detect_finite_orbit(H, 3, max_orbit=16)
    assert orbit is not None

    def forbidden(pairs):
        raise AssertionError("a derived map was canonicalized")

    monkeypatch.setattr(homeo, "_canonical", forbidden)
    assert smooth_group(G).kind == "success"
    assert g.compose(h).compose(h.inverse()) == g
    assert g.inverse().compose(g) == identity()
    assert rotation(F(-7, 3)).verts == ((F(0), F(2, 3)),)
    assert detect_finite_orbit(H, 3, max_orbit=16) == orbit


rotation_angles = st.tuples(st.integers(0, 6), st.integers(1, 7)).map(
    lambda t: F(t[0] % t[1], t[1]))


@given(st.integers(0, 10**6), st.integers(1, 4),
       st.lists(rotation_angles, min_size=1, max_size=2))
@settings(max_examples=40, deadline=None)
def test_conjugates_match_composition_oracle(seed, k, amounts):
    G = pres(*(_conjugate(random_pl(seed, k, 32), rotation(a)) for a in amounts))
    outcome = smooth_group(G)
    assert outcome.kind == "success"
    phi, phi_inv = outcome.phi, outcome.phi.inverse()
    assert [name for name, _ in outcome.conjugated] == [name for name, _ in G.generators]
    for (_, g), (_, c) in zip(G.generators, outcome.conjugated):
        assert phi.compose(g).compose(phi_inv) == c


def _assert_closed_walk(outcome, gens):
    """The cycle chains head to tail, each edge is a genuine signed-generator
    step with its jump as weight, and the weights multiply to `found`."""
    cycle = outcome.cycle
    prod = F(1)
    for i, e in enumerate(cycle):
        assert e.target == cycle[(i + 1) % len(cycle)].source
        g = gens[e.gen] if e.sign == 1 else gens[e.gen].inverse()
        assert g.eval(e.source) == e.target
        assert g.jump(e.source) == e.weight
        prod *= e.weight
    assert prod == outcome.found != outcome.expected == 1


def test_smooth_obstruction_reports_cycle():
    outcome = smooth_group(pres(STD))
    assert outcome.kind == "obstruction"
    _assert_closed_walk(outcome, {"g0": STD})


def test_smooth_obstruction_cycles_are_closed_walks():
    # seeded pairs whose obstruction cycles include tree paths walked
    # against their edges' direction
    multi_edge = 0
    for seed in range(30):
        gens = {"a": random_pl(seed, 3, 8), "b": random_pl(seed + 1000, 2, 6)}
        outcome = smooth_group(GroupPresentation(tuple(gens.items())),
                               max_vertices=128)
        if outcome.kind == "obstruction":
            _assert_closed_walk(outcome, gens)
            multi_edge += len(outcome.cycle) > 1
    assert multi_edge >= 5


def test_outcome_to_json_each_kind():
    zero = reduce_mod1(0)
    cases = [
        (Success(phi=identity(), conjugated=(("r", rotation(F(1, 3))),)),
         {"kind": "success", "phi": {"rotation": "0/1"},
          "conjugated": {"r": {"rotation": "1/3"}}}),
        (Obstruction(cycle=(Edge(zero, "f", -1, zero, F(3)),), found=F(3)),
         {"kind": "obstruction",
          "cycle": [{"source": "0/1", "generator": "f^-1", "target": "0/1",
                     "weight": "3/1"}],
          "expected": "1/1", "found": "3/1"}),
        (Truncated(escaping=(reduce_mod1(F(1, 8)),)),
         {"kind": "truncated", "escaping": ["1/8"]}),
    ]
    for outcome, want in cases:
        got = outcome_to_json(outcome)
        assert got == want and list(got) == list(want)


def test_smooth_conjugated_exotic_succeeds():
    g = exotic_element(ExoticParams(F(4), F(2)))
    phi0 = random_pl(2, 2, 16)
    h = phi0.compose(g).compose(phi0.inverse())
    outcome = smooth_group(pres(h))
    assert outcome.kind == "success"
    assert outcome.conjugated == (("g0", rotation(F(1, 2))),)


# ------------------------------------------------------- two-pass oracle
#
# An independent two-pass pipeline: build the whole orbit graph with
# CirclePoint-keyed sets, then run one breadth-first potentials pass over
# Edge objects, then normalize.  smooth_group's one on-demand pass must give
# byte-identical successes and truncations.  An obstruction is the pass's
# own certificate, and its oracle is oracle_pass_certificate on the same
# Fraction graph.

OracleGraph = namedtuple("OracleGraph", "vertices edges closed escaping")


def bfs_orbit_graph(G, max_vertices):
    seed = sorted({p for _, g in G.generators for p in g.breakpoints},
                  key=lambda p: p.value)
    maps = [m for name, g in G.generators
            for m in ((name, 1, g), (name, -1, g.inverse()))]
    visited, order, queue = set(seed), list(seed), deque(seed)
    edges, escaping = [], set()
    while queue:
        v = queue.popleft()
        for name, sign, g in maps:
            w = g.eval(v)
            edges.append(Edge(v, name, sign, w, g.jump(v)))
            if w not in visited:
                if len(visited) >= max_vertices:
                    escaping.add(w)
                else:
                    visited.add(w)
                    order.append(w)
                    queue.append(w)
    return OracleGraph(tuple(order), tuple(edges), not escaping,
                       tuple(sorted(escaping, key=lambda p: p.value)))


def oracle_potentials(graph):
    out = {v: [] for v in graph.vertices}
    for e in graph.edges:
        out[e.source].append(e)
    a, parent, components = {}, {}, []
    for root in graph.vertices:
        if root in a:
            continue
        a[root] = F(1)
        comp = [root]
        for v in comp:
            for e in out[v]:
                t = e.target
                if t not in out:
                    continue
                if t not in a:
                    a[t] = a[v] / e.weight
                    parent[t] = e
                    comp.append(t)
                elif a[v] != e.weight * a[t]:
                    def path_up(u):
                        path = []
                        while u in parent:
                            path.append(parent[u])
                            u = parent[u].source
                        return path
                    up, down = path_up(e.target), path_up(e.source)
                    while up and down and up[-1] == down[-1]:
                        up.pop()
                        down.pop()
                    cycle = (e, *(t.reverse() for t in up), *reversed(down))
                    return Obstruction(cycle, e.weight * a[t] / a[v])
        components.append(comp)
    return a, components


# component sizes: any, all equal, and each dividing the next (in any order)
size_lists = st.one_of(
    st.lists(st.integers(1, 60), min_size=1, max_size=6),
    st.tuples(st.integers(1, 60), st.integers(1, 6)).map(lambda t: [t[0]] * t[1]),
    st.lists(st.integers(1, 5), min_size=1, max_size=6).map(
        lambda ks: list(itertools.accumulate(ks, operator.mul))).flatmap(st.permutations))


def oracle_nth_root(q, n):
    """Exact positive rational n-th root of q, or None."""
    def iroot(m):
        r = 1 << -(-m.bit_length() // n)  # upper bound on the root
        while (nr := ((n - 1) * r + m // r ** (n - 1)) // n) < r:
            r = nr
        return r if r ** n == m else None
    a, b = iroot(q.numerator), iroot(q.denominator)
    return None if a is None or b is None else F(a, b)


def oracle_gcd_coefficients(sizes):
    """Integers c_i with sum(c_i * sizes[i]) == gcd(sizes), one Bezout step
    per size n: x g + y n = h = gcd(g, n), x = (g/h)^-1 mod n/h, 0 if n = h."""
    coeffs, g = [], 0
    for n in sizes:
        h = math.gcd(g, n)
        x = pow(g // h, -1, n // h)
        coeffs = [c * x for c in coeffs] + [(h - x * g) // n]
        g = h
    return coeffs


@given(size_lists)
@example([7])
@example([6, 6, 6])
@example([2, 4, 12])
@example([12, 4, 2])
@settings(max_examples=200, deadline=None)
def test_gcd_coefficients_combine_to_the_gcd(sizes):
    coeffs = oracle_gcd_coefficients(sizes)
    assert len(coeffs) == len(sizes)
    assert sum(c * n for c, n in zip(coeffs, sizes)) == math.gcd(*sizes)


def oracle_solve(graph):
    """The potentials, rescaled to product one over any component sizes:
    scaling component c by t multiplies the total by t^{|c|}, so the
    reachable factors are the g-th powers for g = gcd of the sizes.  None
    when 1/total is no g-th power, which smooth_group's proof rules out on
    the graph of a group of PL maps."""
    sol = oracle_potentials(graph)
    if isinstance(sol, Obstruction):
        return sol
    a, components = sol
    total = F(1)
    for v in graph.vertices:
        total *= a[v]
    if total != 1:
        sizes = [len(c) for c in components]
        t = oracle_nth_root(1 / total, math.gcd(*sizes))
        if t is None:
            return None
        for comp, c in zip(components, oracle_gcd_coefficients(sizes)):
            for v in comp:
                a[v] *= t ** c
    return FiniteVector.from_dict(a)


def two_pass_smooth(G, max_vertices=4096):
    graph = bfs_orbit_graph(G, max_vertices)
    if not graph.closed:
        sol = oracle_potentials(graph)
        return sol if isinstance(sol, Obstruction) else Truncated(graph.escaping)
    sol = oracle_solve(graph)
    if sol is None or isinstance(sol, Obstruction):
        return sol
    phi = synthesize_conjugator(sol)
    return Success(phi, tuple((name, phi.compose(g).compose(phi.inverse()))
                              for name, g in G.generators))


def oracle_pass_certificate(G, max_vertices):
    """The obstruction the pass reports, read off bfs_orbit_graph: the
    first edge in id and slot order that closes a cycle of product other
    than 1 over the edges checked before it, then the shortest walk from its
    target back to its source over those edges, breadth-first in slot
    order; None if no edge does.  An edge is checked unless its reverse
    already was, and a checked edge's reverse, the graph's own edge, can be
    walked too.  No potential is kept: each edge is tested by the product
    of the cycle it closes."""
    graph = bfs_orbit_graph(G, max_vertices)
    inside, out, checked = set(graph.vertices), {}, set()
    for e in graph.edges:
        out.setdefault(e.source, []).append(e)
    for e in graph.edges:
        key, rev = (e.source, e.gen, e.sign), (e.target, e.gen, -e.sign)
        if e.target not in inside or key in checked:
            continue
        parent, queue = {e.target: None}, deque([e.target])
        while queue and e.source not in parent:
            for f in out[queue.popleft()]:
                fkey = (f.source, f.gen, f.sign)
                if (fkey in checked and fkey not in (key, rev)
                        and f.target in inside and f.target not in parent):
                    parent[f.target] = f
                    queue.append(f.target)
        if e.source in parent:
            walk, v = [], e.source
            while parent[v] is not None:
                walk.append(parent[v])
                v = parent[v].source
            cycle = (e, *reversed(walk))
            found = math.prod(f.weight for f in cycle)
            if found != 1:
                return Obstruction(cycle, found)
        checked |= {key, rev}
    return None


def _conjugate(phi, g):
    return phi.compose(g).compose(phi.inverse())


def _hidden_rotations(seed):
    phi = random_pl(seed, 4, 32)
    return pres(*(_conjugate(phi, rotation(a)) for a in (F(1, 3), F(1, 5))))


def _std_conjugate(seed):
    return pres(_conjugate(random_pl(seed, 2, 16), STD))


def _exotic(seed):
    # log 2 / log A is irrational: the orbit graph is infinite
    return pres(exotic_element(ExoticParams(F((5, 6, 7, 10)[seed]), F(2))))


def _two_generators(seed):
    return GroupPresentation((("a", random_pl(seed, 3, 8)),
                              ("b", random_pl(seed + 1000, 2, 6))))


def _exotic_pair(seed):
    # {exotic(6, 2), exotic(6, 3)}: its escaping points at 1,024 vertices
    # reach 317-bit denominators, past every row's alpha_i of either map
    return group_from_json(load_json(str(FIXTURES / "groups" / "exotic_pair.json")))


ORACLE_CASES = (
    [("hidden_rotations", _hidden_rotations, s, 4096, "success") for s in range(4)]
    + [("std_conjugate", _std_conjugate, s, 128, "obstruction") for s in range(4)]
    + [("exotic", _exotic, s, 48, "truncated") for s in range(4)]
    + [("two_generators", _two_generators, s, 40, None) for s in range(12)]
    + [("exotic_pair", _exotic_pair, 0, 1024, "truncated")])


@pytest.mark.parametrize("family, make, seed, max_vertices, kind", ORACLE_CASES,
                         ids=[f"{c[0]}-{c[2]}" for c in ORACLE_CASES])
def test_smooth_group_matches_two_pass_oracle(family, make, seed, max_vertices, kind):
    G = make(seed)
    got = smooth_group(G, max_vertices)
    want = two_pass_smooth(G, max_vertices)
    if kind is not None:
        assert want.kind == kind
    if want.kind == "obstruction":
        want = oracle_pass_certificate(G, max_vertices)
    assert (json.dumps(outcome_to_json(got)) == json.dumps(outcome_to_json(want)))


def test_oracle_cases_cover_cut_off_components():
    # expansion order matters where several seeds start components of a
    # graph cut off at max_vertices: some case must have one
    many = 0
    for family, make, seed, max_vertices, _ in ORACLE_CASES:
        graph = bfs_orbit_graph(make(seed), max_vertices)
        sol = oracle_potentials(graph)
        if not graph.closed and not isinstance(sol, Obstruction):
            many += len(sol[1]) > 1
    assert many >= 1


# ------------------------------------------- discovery order against sweep order
#
# smooth_group's pass checks each edge as it fills it, in discovery order,
# and holds the potentials in trees it merges, the younger one (of the
# larger root id) rescaled into the older one; two_pass_smooth solves in
# the breadth-first sweep order the pass replaced.  An obstruction is the
# edge the pass stopped at and a walk back over the slots it filled, so
# its oracle is oracle_pass_certificate, not the sweep's cycle.

def oracle_merges(graph):
    """[source, target]: how many merges of the discovery-order pass take
    the younger tree to be the source's, and the target's.  An unweighted
    union-find over the graph's edges, by source in discovery order, then
    by map; a source that no earlier edge reaches roots its own tree."""
    index = {v: n for n, v in enumerate(graph.vertices)}
    root, merges = {}, [0, 0]

    def find(v):
        while root[v] != v:
            v = root[v]
        return v

    for e in graph.edges:
        if e.target not in index:
            continue  # an escaping point
        s, t = index[e.source], index[e.target]
        root.setdefault(s, s)
        if t not in root:
            root[t] = find(s)
            continue
        rs, rt = find(s), find(t)
        if rs != rt:
            merges[rs < rt] += 1
            root[max(rs, rt)] = min(rs, rt)
    return merges


def _several_seed_groups():
    """Seeded groups whose components often hold several seeds, each with
    its budget: conjugates of rotations, seeded pairs of map families, and
    pairs of small random maps."""
    for seed in range(100):
        yield _seeded_hidden_rotations(seed), 512
        yield pres(*_seeded_pair(seed)), 64
        yield _two_generators(seed), 40


def test_discovery_order_pass_matches_sweep_order_oracle(monkeypatch):
    # successes and truncations byte-identical to the sweep's; an
    # obstruction byte-identical to the pass-rule oracle, which starts at
    # the edge the pass stopped at, also where the sweep reports another
    # cycle or walks it the other way
    stops = []
    obstruction = smoothing._obstruction

    def recording(o, i, found):
        out = obstruction(o, i, found)
        x = out.cycle[0].source.value
        stops.append((i // len(o.maps), o.ids[(x.numerator, x.denominator)]))
        return out

    monkeypatch.setattr(smoothing, "_obstruction", recording)
    kinds, merges, other_cycle = Counter(), [0, 0], 0
    for G, max_vertices in _several_seed_groups():
        got = smooth_group(G, max_vertices)
        want = two_pass_smooth(G, max_vertices)
        if want.kind == "obstruction":
            sweep = json.dumps(outcome_to_json(want))
            want = oracle_pass_certificate(G, max_vertices)
            other_cycle += sweep != json.dumps(outcome_to_json(want))
        assert json.dumps(outcome_to_json(got)) == json.dumps(outcome_to_json(want))
        kinds[got.kind] += 1
        if got.kind != "obstruction":  # the pass made every merge
            merges = [m + n for m, n in zip(merges, oracle_merges(bfs_orbit_graph(G, max_vertices)))]
    assert min(kinds[k] for k in ("success", "obstruction", "truncated")) >= 80
    assert merges[0] >= 20 and merges[1] >= 5
    assert all(stop == start for stop, start in stops) and other_cycle >= 10
    # CI's pair3 group: the pass stops at vertex 10, where its cycle starts;
    # the sweep's cycle, the same six edges, started at vertex 1
    stops.clear()
    assert smooth_group(_two_generators(3), 40).kind == "obstruction"
    assert stops == [(10, 10)]


def _seeded_hidden_rotations(seed):
    """One to three rational rotations conjugated by one random PL map."""
    rng = random.Random(seed)
    phi = random_pl(rng.randrange(10**6), rng.randint(1, 4), rng.choice((8, 32)))
    alphas = []
    for _ in range(rng.randint(1, 3)):
        q = rng.randint(1, 6)
        alphas.append(F(rng.randrange(q), q))
    return pres(*(_conjugate(phi, rotation(a)) for a in alphas))


def test_closed_consistent_passes_have_equal_orbits_and_an_exact_root():
    # smooth_group's proof: when the pass closes with no inconsistent edge,
    # every component is a G-orbit of one size N and 1/P is an N-th power,
    # so scaling one component reaches product one.  At 64 vertices 96 of
    # the 400 seeded-pair groups close, the largest at 50 vertices; a
    # budget of 512 closes 2 more at ten times the cost
    groups = [(_seeded_hidden_rotations(seed), 512) for seed in range(120)]
    for seed in range(200):
        g, h = _seeded_pair(seed)
        groups += [(pres(g, h), 64), (pres(g), 64)]
    rescaled, several = 0, 0
    for G, max_vertices in groups:
        graph = bfs_orbit_graph(G, max_vertices)
        sol = oracle_potentials(graph) if graph.closed else None
        if sol is None or isinstance(sol, Obstruction):
            continue
        a, components = sol
        sizes = {len(c) for c in components}
        assert len(sizes) <= 1
        total = math.prod(a.values())
        if total != 1:
            (n,) = sizes
            assert oracle_nth_root(1 / total, n) is not None
            rescaled += 1
            several += len(components) > 1
    assert rescaled >= 40 and several >= 30


def test_orbit_pass_does_no_fraction_arithmetic(monkeypatch):
    # the 616-vertex hidden-rotations group: 64 of its 2,464 edge slots carry
    # a jump other than 1.  Potentials are interned integer pairs, a reverse
    # jump is the forward one's pair swapped, and the rescale and the
    # support are taken in integers: Fractions are only built, for results
    phi = random_pl(21, 8, 64)
    G = pres(*(_conjugate(phi, rotation(a)) for a in (F(1, 7), F(2, 11))))
    ops, inside, passes = Counter(), [], []
    for op in ("__truediv__", "__rtruediv__", "__mul__", "__rmul__", "__eq__"):
        def counting(self, other, _op=op, _f=getattr(F, op)):
            ops[_op] += bool(inside)
            return _f(self, other)
        monkeypatch.setattr(F, op, counting)
    solve = smoothing._solve

    def counting_solve(o):
        passes.append(o)
        inside.append(o)
        try:
            return solve(o)
        finally:
            inside.pop()

    monkeypatch.setattr(smoothing, "_solve", counting_solve)
    assert smooth_group(G).kind == "success"
    (o,) = passes
    assert (len(o.pts), len(o.out), len(o.jumps)) == (616, 2464, 64)
    assert sum(ops.values()) == 0, ops


def test_smooth_stops_at_first_inconsistent_edge():
    # STD's self-loop at 0 is the first edge the pass reads; at a budget of
    # a million vertices the whole graph would take minutes to expand
    outcome = smooth_group(pres(STD), max_vertices=10**6)
    zero = reduce_mod1(0)
    assert outcome == Obstruction(cycle=(Edge(zero, "g0", 1, zero, F(1, 3)),),
                                  found=F(1, 3))


def test_obstruction_steps_no_map_after_the_pass(monkeypatch):
    # conjugated STD: the pass meets a jump of 1/3 at the fixed point
    # 55/96, the fifth seed, after 8 kernel steps, and reports that
    # self-loop with no further step, at any budget; the breadth-first
    # sweep stepped on until it filled the budget
    G = _std_conjugate(1)
    steps, at_stop = [], []
    step, obstruction = PLHomeo._advance, smoothing._obstruction

    def counting_step(self, n, d):
        steps.append((n, d))
        return step(self, n, d)

    def recording(o, i, found):
        at_stop.append(len(steps))
        return obstruction(o, i, found)

    monkeypatch.setattr(PLHomeo, "_advance", counting_step)
    monkeypatch.setattr(smoothing, "_obstruction", recording)
    x = reduce_mod1(F(55, 96))
    for max_vertices in (4096, 10**6):
        steps.clear()
        at_stop.clear()
        outcome = smooth_group(G, max_vertices)
        assert outcome == Obstruction(cycle=(Edge(x, "g0", 1, x, F(1, 3)),), found=F(1, 3))
        assert at_stop == [len(steps)] == [8]


def test_vertex_budget_below_seed_is_rejected():
    # STD has two breakpoints, so the seed needs two vertices
    with pytest.raises(ValueError, match="^max_vertices 1 is below the 2 distinct "
                                         "generator breakpoints$"):
        smooth_group(pres(STD), max_vertices=1)
    assert smooth_group(pres(STD), max_vertices=2).kind == "obstruction"


# ------------------------------------------------------ integer orbit kernel
#
# PLHomeo._advance is the one exact forward evaluation, on pairs in lowest
# terms: the orbit pass, rotation_number, growth_sequences, compose, and
# lift_eval, eval and jump, on a Fraction's own pair, all call it.  Its
# oracle is the Fraction evaluation it replaced, _locate and the lift_eval
# body, kept here verbatim.

def oracle_locate(g, t):
    """(i, u, m): t = u + m with m an integer and x_i <= u < x_{i+1}."""
    m = math.floor(t - g.verts[0][0])
    u = t - m if m else t
    return bisect.bisect_right([x for x, _ in g.verts], u) - 1, u, m


def vertex_slopes(g):
    """The slope of each piece of g, from the differences of its vertices."""
    v = g.verts + ((g.verts[0][0] + 1, g.verts[0][1] + 1),)
    return [(y1 - y0) / (x1 - x0) for (x0, y0), (x1, y1) in zip(v, v[1:])]


def oracle_lift_eval(g, t):
    """Evaluate the canonical lift (the one with value of x_0 in [0,1))."""
    i, u, m = oracle_locate(g, t)
    x, y = g.verts[i]
    y += vertex_slopes(g)[i] * (u - x)
    return y + m if m else y


def oracle_jump(g, t):
    """The jump at t, from one oracle_locate: D+g(t) / D-g(t)."""
    i, u, _ = oracle_locate(g, t)
    s = vertex_slopes(g)
    return s[i] / s[i - 1] if u == g.verts[i][0] else F(1)


def eval_jump(g, x):
    """The circle coordinate of the image of x, and the jump at x."""
    return oracle_lift_eval(g, x) % 1, oracle_jump(g, x)


@st.composite
def _exotic_params(draw):
    A = draw(st.integers(2, 12))
    q = draw(st.integers(2, 5))
    # lam = (q + 1 + m) / q lies in [1 + 1/q, A - 1/q]
    m = draw(st.integers(0, (A - 1) * q - 2))
    return ExoticParams(F(A), F(q + 1 + m, q))


kernel_maps = st.one_of(
    st.builds(random_pl, st.integers(0, 10**6), st.integers(0, 8),
              st.integers(8, 512)),
    rotation_angles.map(rotation),
    _exotic_params().map(exotic_element),
    # conjugates with their smallest breakpoint off 0
    st.builds(lambda seed, k, g: _conjugate(random_pl(seed, k, 16), g),
              st.integers(0, 10**6), st.integers(1, 3),
              st.one_of(st.just(STD), _exotic_params().map(exotic_element)))
    .filter(lambda g: g.verts[0][0] > 0))

circle_rationals = st.integers(1, 2**40).flatmap(
    lambda d: st.integers(0, d - 1).map(lambda n: F(n, d)))


@given(kernel_maps, st.integers(2, 2**40), st.lists(circle_rationals, max_size=4),
       st.lists(st.integers(-10**6, 10**6), max_size=3))
@settings(max_examples=300, deadline=None)
def test_kernel_matches_fraction_oracle(g, below, rationals, windings):
    # breakpoints, 0, a point just below x_0 (it wraps into the lift
    # period), a point just above each vertex (x_i < t < x_i + 1/L, so
    # floor(t L) = x_i L) and random rationals, each moved by -2..2 and by
    # random windings: the kernel returns the lift, not its circle coordinate
    x0 = g.verts[0][0]
    L = math.lcm(*(x.denominator for x, _ in g.verts))
    # the index at breakpoint i is i, and a rotation's vertex is none
    assert [g._advance(x.numerator, x.denominator)[2] for x, _ in g.verts] == (
        list(range(len(g.verts))) if len(g.verts) > 1 else [-1])
    points = [F(0), *(p.value for p in g.breakpoints), (x0 - F(1, below)) % 1,
              *((x + F(1, below * L)) % 1 for x, _ in g.verts), *rationals]
    for x in points:
        p = CirclePoint(x)
        jump = oracle_jump(g, x)
        assert g.jump(p) == jump
        assert g.eval(p) == CirclePoint(oracle_lift_eval(g, x) % 1)
        for m in (-2, -1, 0, 1, 2, *windings):
            t = x + m
            y = oracle_lift_eval(g, t)
            n, d, j = g._advance(t.numerator, t.denominator)
            assert (n, d) == (y.numerator, y.denominator)
            # an index exactly where the jump is not 1, and it reads that jump
            assert (j >= 0) == (jump != 1)
            assert j < 0 or g._jumps[j] == jump
            assert g.lift_eval(t) == y


def test_kernel_long_orbits_match_fraction_oracle():
    # 300 steps from 0 and from each breakpoint of exotic(6, 2), exotic(6,
    # 3), STD and a hyperbolic random_pl (its contracting component gives
    # growth_params c0 < 0 < c1), and of their inverses.  The denominators
    # outgrow every row's alpha_i, so the gcd is taken against alpha_i
    # gamma_i, and every step must still be the oracle's value in lowest terms
    maps = [exotic_element(ExoticParams(F(6), F(2))),
            exotic_element(ExoticParams(F(6), F(3))), STD, random_pl(9, 4, 32)]
    ends = []
    for g in maps + [g.inverse() for g in maps]:
        top = max(a for a, _, _ in g._table[2])
        gated = 0  # steps from a d past every alpha_i
        for x in [F(0), *(p.value for p in g.breakpoints)]:
            t = (x.numerator, x.denominator)
            for _ in range(300):
                gated += t[1] > top
                y = oracle_lift_eval(g, F(*t))
                t = g._advance(*t)[:2]
                assert t == (y.numerator, y.denominator)
                assert math.gcd(*t) == 1
            ends.append(t[1])
        assert gated > 0
    assert max(ends) > 2**200


# reduced rationals of up to 400 bits, so d > alpha_i on most maps
wide_rationals = st.integers(1, 2**400).flatmap(
    lambda d: st.integers(-2 * d, 3 * d).map(lambda n: F(n, d)))


@given(kernel_maps, st.lists(wide_rationals, min_size=1, max_size=4))
@settings(max_examples=200, deadline=None)
def test_kernel_matches_fraction_oracle_on_wide_input(g, points):
    for t in points:
        n, d, j = g._advance(t.numerator, t.denominator)
        y = oracle_lift_eval(g, t)
        assert (n, d) == (y.numerator, y.denominator)
        # an index exactly where the jump is not 1, and it reads that jump
        jump = oracle_jump(g, t)
        assert (j >= 0) == (jump != 1)
        assert j < 0 or g._jumps[j] == jump


@pytest.mark.parametrize("seed, k", [(1, 40), (2, 80), (3, 120), (4, 160), (5, 200)])
def test_kernel_matches_fraction_oracle_on_incommensurable_denominators(seed, k):
    # vertex denominators up to 10**9 with no common factor: L grows with
    # the vertex count, to thousands of bits at k = 200, while each row is
    # built from its piece's own two vertices and keeps their size
    g = random_pl(seed, k, 10**9)
    L, _, rows = g._table
    assert L.bit_length() > 30 * k // 2
    assert max(abs(v).bit_length() for row in rows for v in row) <= 4 * 30 + 4
    top, gated = max(a for a, _, _ in rows), 0  # gated: steps from a d past every alpha_i
    rng = random.Random(seed)
    starts = [F(0), *(p.value for p in g.breakpoints),
              *(F(rng.randrange(-3 * d, 3 * d), d)
                for d in (rng.randrange(1, 2**rng.randrange(1, 400)) for _ in range(20)))]
    for x in starts:
        t = (x.numerator, x.denominator)
        for _ in range(3):  # a short orbit: its denominators outgrow every alpha_i
            gated += t[1] > top
            y = oracle_lift_eval(g, F(*t))
            n, d, j = g._advance(*t)
            assert (n, d) == (y.numerator, y.denominator)
            jump = oracle_jump(g, F(*t))
            assert (j >= 0) == (jump != 1)
            assert j < 0 or g._jumps[j] == jump
            t = (n, d)
    assert gated > len(starts)


def _count_steps(monkeypatch):
    """Record (map, source, circle image) of every kernel call made inside
    the orbit pass (smoothing._solve); calls elsewhere, such as phi.eval on
    a success, are not counted."""
    step, calls, inside = PLHomeo._advance, [], []

    def counting_step(self, n, d):
        out = step(self, n, d)
        if inside:
            calls.append((self, (n, d), (out[0] % out[1], out[1])))
        return out

    def marking(f):
        def marked(*args):
            inside.append(f)
            try:
                return f(*args)
            finally:
                inside.pop()
        return marked

    monkeypatch.setattr(PLHomeo, "_advance", counting_step)
    monkeypatch.setattr(smoothing, "_solve", marking(smoothing._solve))
    return calls


def test_smooth_group_evaluates_each_step_once(monkeypatch):
    # 231 vertices under two generators: 462 steps, each met twice, as g at
    # x and as g^-1 at g(x)
    phi = random_pl(7, 4, 32)
    G = pres(*(_conjugate(phi, rotation(a)) for a in (F(1, 7), F(2, 11))))
    assert len(bfs_orbit_graph(G, 4096).vertices) == 231
    calls = _count_steps(monkeypatch)
    assert smooth_group(G).kind == "success"
    assert len(calls) == 462


@pytest.mark.parametrize("seed", range(16))
def test_finite_orbit_closures_evaluate_no_step_backwards(monkeypatch, seed):
    # a closure steps each generator, never an inverse, once at each point
    # it takes in, in breadth-first order: a closing orbit of m points
    # costs m |G| steps, and one cut off past max_orbit stops after the
    # point whose images took it past.  At max_orbit 8 the rotation of
    # seeds 7 and 15 rules every orbit out before any closure
    G = _finite_orbit_group(seed)
    gens = [g for _, g in G.generators]
    made = 0
    for max_orbit in (8, 512):
        closures = _spy_closures(monkeypatch)
        got = detect_finite_orbit(G, 2, max_orbit=max_orbit)
        monkeypatch.undo()
        made += len(closures)
        for i, (key, steps) in enumerate(closures):
            assert all(any(g is h for h in gens) for g, _, _ in steps)
            order = [key]  # the points in the order the closure met them
            for _, _, y in steps:
                if y not in order:
                    order.append(y)
            sources = [x for _, x, _ in steps]
            assert sources == [x for x in order[:len(steps) // len(gens)] for _ in gens]
            assert [g for g, _, _ in steps] == gens * (len(steps) // len(gens))
            if got is not None and i == len(closures) - 1:
                assert sorted(order) == sorted((p.value.numerator, p.value.denominator)
                                               for p in got)
                assert len(steps) == len(got) * len(gens)
            else:
                met = {key} | {y for _, _, y in steps[:-len(gens)]}
                assert len(met) <= max_orbit < len(order)
    assert made


class FractionOrbits(_Orbits):
    """The orbit pass before the integer kernel, as a test oracle: every
    step is evaluated by the Fraction oracle.  In `steps` it has the
    kernel's shape, (n, d) -> (n', d', j), j indexing the jumps other than
    1 in the order they are met, for smoothing._solve to read.  pts holds
    each point's pair, as _Orbits does."""

    def __init__(self, seed, maps, max_vertices):
        self.maps, self.max_vertices = maps, max_vertices
        self.steps = [self._oracle_step(g) for _, g in maps]
        self.pts, self.ids, self.out, self.jumps = [], {}, [], {}
        for x in seed:
            self._intern(F(*x))
        if len(self.pts) > max_vertices:
            raise ValueError("max_vertices smaller than the seed")

    @staticmethod
    def _oracle_step(g):
        met = []

        def step(n, d):
            y, w = eval_jump(g, F(n, d))
            if w == 1:
                return y.numerator, y.denominator, -1
            met.append(w)
            return y.numerator, y.denominator, len(met) - 1

        return step, met

    def _intern(self, x):
        key = (x.numerator, x.denominator)
        v = self.ids.get(key)
        if v is None:
            v = self.ids[key] = len(self.pts)
            self.pts.append(key)
            self.out += [None] * len(self.maps)
        return v

    def point(self, v):
        return CirclePoint(F(*self.pts[v]))

    def in_order(self, ids):
        return sorted(ids, key=lambda v: F(*self.pts[v]))


def _kind_groups(kind, seed):
    """Seeded small groups whose smoothing mostly ends in `kind`, with a
    vertex budget."""
    rng = random.Random(seed)
    if kind == "success":
        phi = random_pl(seed, rng.randint(1, 4), rng.choice((8, 16, 32)))
        qs = rng.sample(range(2, 8), rng.randint(1, 2))
        return pres(*(_conjugate(phi, rotation(F(rng.randrange(1, q), q)))
                      for q in qs)), 4096
    if kind == "obstruction":
        if seed % 2:
            return pres(_conjugate(random_pl(seed, rng.randint(1, 3), 16), STD)), 64
        return _two_generators(seed), rng.choice((8, 20, 40))
    A, lam = rng.choice((5, 6, 7, 10)), rng.choice((2, 3))
    e = exotic_element(ExoticParams(F(A), F(lam)))
    return pres(_conjugate(random_pl(seed, rng.randint(1, 3), 16), e)), rng.choice((16, 32))


@pytest.mark.parametrize("kind", ["success", "obstruction", "truncated"])
def test_orbit_pass_matches_fraction_oracle(monkeypatch, kind):
    # 150 seeded groups of each outcome kind: byte-identical smoothing
    # outcomes, and the finite orbits of the breadth-first oracle
    compared = backward = orbits = 0
    for seed in range(400):
        G, max_vertices = _kind_groups(kind, seed)
        got = smooth_group(G, max_vertices)
        if got.kind != kind:
            continue
        orbit = detect_finite_orbit(G, 1, max_orbit=16)
        assert orbit == bfs_detect_finite_orbit(G, 1, max_orbit=16)
        orbits += orbit is not None
        with monkeypatch.context() as m:
            m.setattr(smoothing, "_Orbits", FractionOrbits)
            want = smooth_group(G, max_vertices)
        assert json.dumps(outcome_to_json(got)) == json.dumps(outcome_to_json(want))
        if kind == "obstruction":
            backward += any(e.sign == -1 for e in got.cycle)
        compared += 1
        if compared == 150:
            break
    assert compared == 150
    if kind == "obstruction":  # the other kinds' generators fix no point
        assert backward >= 10 and orbits >= 10


def test_seed_matches_sorted_fraction_seed(monkeypatch):
    # smooth_group orders the generators' vertex pairs by their int keys;
    # the oracle is the seed it replaced, BP(g) as points sorted as
    # Fractions, duplicates shared across generators kept in place
    seeds = []

    class SeedOrbits(_Orbits):
        def __init__(self, seed, *args):
            seeds.append(list(seed))
            super().__init__(seed, *args)

    monkeypatch.setattr(smoothing, "_Orbits", SeedOrbits)
    shared = 0
    for seed in range(60):
        rng = random.Random(seed)
        g = random_pl(seed, rng.randint(1, 4), 8)
        # r o g breaks where g does; a second map on the same small grid
        # meets g's breakpoints by chance
        G = pres(g, rotation(F(rng.randrange(1, 5), 5)).compose(g),
                 random_pl(seed + 100, rng.randint(0, 4), 8))
        smooth_group(G, 64)
        want = sorted(p.value for _, h in G.generators for p in h.breakpoints)
        assert seeds[-1] == [(x.numerator, x.denominator) for x in want]
        shared += len(want) > len(set(want))
    assert shared >= 30  # most groups share breakpoints


# ------------------------------------------------------ trusted construction
#
# inverse, compose and synthesize_conjugator build their results in
# canonical form directly, and every backward evaluation steps the cached
# inverse through the integer kernel.  Their oracles are the bodies they
# replaced, kept here verbatim: they build the vertex pairs and canonicalize
# them through the constructor, and evaluate F^{-1} by Fraction arithmetic.

def oracle_lift_eval_inverse(self, t):
    """F^{-1}(t) for the canonical lift F, by Fraction arithmetic."""
    y0 = self.verts[0][1]
    m = math.floor(t - y0)
    u = t - m if m else t
    i = bisect.bisect_right([y for _, y in self.verts], u) - 1
    x, y = self.verts[i]
    x += (u - y) / vertex_slopes(self)[i]
    return x + m if m else x


def oracle_eval_inverse(self, p):
    return CirclePoint(frac_mod1(oracle_lift_eval_inverse(self, p.value)))


def oracle_compose(self, other):
    """self o other, canonicalized."""
    cuts = {frac_mod1(x) for x, _ in other.verts}
    cuts.update(frac_mod1(oracle_lift_eval_inverse(other, frac_mod1(x)))
                for x, _ in self.verts)
    pairs = [(c, frac_mod1(self.lift_eval(frac_mod1(other.lift_eval(c)))))
             for c in cuts]
    return PLHomeo(pairs)


def oracle_inverse(self):
    pairs = [(frac_mod1(y), frac_mod1(x)) for x, y in self.verts]
    return PLHomeo(pairs)


def oracle_synthesize_conjugator(a):
    """The canonical PL map whose jump vector is exactly a.

    Requires the product of values to be 1 (every PL circle homeomorphism
    has jump product 1).  The result fixes the smallest support point.
    """
    if not a.entries:
        return identity()
    if a.product() != 1:
        raise ValueError("assignment product differs from 1; no PL map realizes it")
    pts = [p.value for p, _ in a.entries]
    jumps = [v for _, v in a.entries]
    m = len(pts)
    # cumulative jump products: slope on the arc after pts[i] is sigma * u[i]
    u = []
    cur = F(1)
    for j in jumps:
        cur *= j
        u.append(cur)
    lengths = [pts[i + 1] - pts[i] for i in range(m - 1)] + [pts[0] + 1 - pts[m - 1]]
    sigma = 1 / sum(ui * li for ui, li in zip(u, lengths))
    ys = [pts[0]]
    for i in range(m - 1):
        ys.append(ys[-1] + sigma * u[i] * lengths[i])
    pairs = [(x, frac_mod1(y)) for x, y in zip(pts, ys)]
    return PLHomeo(pairs)


def assert_same_verts(got, want):
    """Equal vertices, held as a tuple of (Fraction, Fraction) tuples, as
    the constructor holds them: equality and hashing of maps rely on it."""
    assert got.verts == want.verts
    assert type(got.verts) is tuple
    for v in got.verts:
        assert type(v) is tuple and len(v) == 2
        assert all(type(q) is F for q in v)
    assert hash(got) == hash(want)


derived_maps = st.one_of(
    kernel_maps,
    # canonical lifts with F(0) < 0
    st.builds(random_pl, st.integers(0, 10**6), st.integers(1, 8),
              st.integers(8, 64)).filter(lambda g: g.lift_eval(F(0)) < 0))


@given(derived_maps, derived_maps, circle_rationals)
@settings(max_examples=300, deadline=None)
def test_derived_maps_match_canonicalizing_oracles(g, h, alpha):
    for f in (g, h):
        assert_same_verts(f.inverse(), oracle_inverse(f))
        a = jump_cocycle(f)
        assert_same_verts(synthesize_conjugator(a), oracle_synthesize_conjugator(a))
    assert_same_verts(g.compose(h), oracle_compose(g, h))
    assert_same_verts(h.compose(g), oracle_compose(h, g))
    assert_same_verts(g.compose(g.inverse()), identity())
    assert_same_verts(rotation(alpha - 2), PLHomeo(((0, alpha),)))


def test_derived_maps_oracle_covers_lifts_below_zero():
    g = _conjugate(random_pl(37244, 3, 16), rotation(F(7, 8)))
    assert g.lift_eval(F(0)) < 0
    for f in (g, g.inverse(), STD):
        assert_same_verts(f.inverse(), oracle_inverse(f))
        assert_same_verts(f.compose(g), oracle_compose(f, g))
        assert_same_verts(g.compose(f), oracle_compose(g, f))


# rotations (the identity too), exotic elements, random maps and composites
inverse_maps = st.one_of(
    kernel_maps,
    st.builds(lambda s, k, t: random_pl(s, k, 32).compose(random_pl(s + 1, k, 32))
              .compose(rotation(t)),
              st.integers(0, 10**6), st.integers(1, 4), circle_rationals),
    st.just(identity()))


@given(inverse_maps, st.lists(circle_rationals, max_size=3))
@settings(max_examples=300, deadline=None)
def test_lift_eval_inverse_matches_fraction_oracle(g, rationals):
    # every vertex image, 0 and random rationals, at windings -3..3
    for y in (*(y for _, y in g.verts), F(0), *rationals):
        for m in range(-3, 4):
            t = y + m
            x = oracle_lift_eval_inverse(g, t)
            assert g.lift_eval_inverse(t) == x
            assert g.lift_eval(x) == t
        p = CirclePoint(y % 1)
        assert g.eval_inverse(p) == oracle_eval_inverse(g, p)


def _seeded_pair(seed):
    """One of 4 x 4 pairs of map families: random, rotation, exotic,
    composite."""
    rng = random.Random(seed)

    def make(kind):
        if kind == 0:
            return random_pl(rng.randrange(10**6), rng.randint(1, 8), rng.choice((8, 32, 128)))
        if kind == 1:
            q = rng.randint(1, 12)
            return rotation(F(rng.randrange(q), q))
        if kind == 2:
            A = rng.randint(2, 9)  # lam = 1 + j/2 lies in (1, A)
            return exotic_element(ExoticParams(F(A), 1 + F(rng.randint(1, 2 * A - 3), 2)))
        return _conjugate(random_pl(rng.randrange(10**6), rng.randint(1, 3), 16),
                          random_pl(rng.randrange(10**6), rng.randint(1, 4), 32))

    return make(seed % 4), make(seed // 4 % 4)


def test_eval_inverse_and_compose_match_oracles_on_seeded_pairs():
    for seed in range(240):
        g, h = _seeded_pair(seed)
        assert_same_verts(g.compose(h), oracle_compose(g, h))
        assert_same_verts(h.compose(g), oracle_compose(h, g))
        for p in (*g.breakpoints, *h.breakpoints, CirclePoint(F(seed % 7, 7))):
            assert g.eval_inverse(p) == oracle_eval_inverse(g, p)
            assert h.eval_inverse(p) == oracle_eval_inverse(h, p)


def test_compose_calls_no_lift_eval_inverse(monkeypatch):
    pairs = [_seeded_pair(seed) for seed in range(32)]
    want = [(oracle_compose(g, h), oracle_compose(h, g)) for g, h in pairs]

    def forbidden(self, t):
        raise AssertionError("compose called lift_eval_inverse")

    monkeypatch.setattr(PLHomeo, "lift_eval_inverse", forbidden)
    for (g, h), (gh, hg) in zip(pairs, want):
        assert_same_verts(g.compose(h), gh)
        assert_same_verts(h.compose(g), hg)


def test_inverse_is_built_once():
    g = random_pl(5, 4, 32)
    assert g.inverse() is g.inverse()
    assert g.inverse().inverse() == g
