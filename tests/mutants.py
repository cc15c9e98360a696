"""Committed mutants of the library's fast paths, each with the tests that
must kill it.

Run from the repository root:

    python tests/mutants.py            # every mutant, one process each
    python tests/mutants.py NAME       # one mutant

A mutant replaces one piece of text, which must occur exactly once, in the
source of one function, compiles the function again in its module's
namespace and installs it before pytest collects the tests.  Its tests then
run with -x, with hypothesis derandomized and not shrinking, and must fail.
An equivalent mutant computes what the original computes on every input, so
no test can kill it: it stays here with its proof, and is only checked to
still apply.  A surviving mutant that is not equivalent is a gap in the
oracles: mend it with a test, never by editing the mutant away.

Tier-1 does not collect this file: its name matches no test_*.py.
"""
from __future__ import annotations

import __future__
import importlib
import inspect
import pathlib
import subprocess
import sys
import textwrap
from dataclasses import dataclass
from typing import Optional, Tuple

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent
KERNEL = ("tests/test_smoothing.py::test_kernel_matches_fraction_oracle",
          "tests/test_smoothing.py::test_kernel_long_orbits_match_fraction_oracle",
          "tests/test_smoothing.py::test_kernel_matches_fraction_oracle_on_wide_input")
CHAIN_SIGNS = "tests/test_rotnum.py::test_chain_heads_give_every_sign_all_breakpoints_give"
CHAIN_SHAPES = "tests/test_rotnum.py::test_chain_heads_of_known_maps"
STEPS = "tests/test_rotnum.py::test_rotation_number_steps_one_orbit_per_chain"
CB = "tests/test_cantor_bendixson.py::"
ARC_ORACLE = CB + "test_validate_agrees_with_realizing_oracle"
FIXED = ("tests/test_rotnum.py::test_fixed_points_standard",
         "tests/test_rotnum.py::test_fixed_points_match_the_piecewise_oracle",
         "tests/test_rotnum.py::test_fixed_points_match_the_piecewise_oracle_on_a_seeded_sweep")
HASH = "tests/test_homeo.py::test_equal_maps_hash_equal_along_every_path"
SM = "tests/test_smoothing.py::"
ORBIT_ORACLES = (SM + "test_orbit_pass_matches_fraction_oracle",
                 SM + "test_smooth_group_matches_two_pass_oracle")
SWEEP_ORDER = SM + "test_discovery_order_pass_matches_sweep_order_oracle"
TABLES = "tests/test_homeo.py::test_stored_tables_match_oracle"
ENCLOSURE = "tests/test_rotnum.py::test_enclosure_lies_inside_the_coarse_oracle"
CERTIFICATE = "tests/test_rotnum.py::test_periodic_certificate_matches_the_descent_oracle"
TAIL = SM + "test_success_tail_matches_fraction_oracle"
COMPOSE = ("tests/test_homeo.py::test_compose_matches_cut_sorting_oracle",
           "tests/test_homeo.py::test_compose_oracle_cases_cover_each_branch")
RECORDS = "tests/test_records.py::test_records_match_frozen_dataclass_twins"
DISPATCH = "tests/test_cli.py::test_dispatch_matches_the_root_parser"
SHARED = "tests/test_cocycle.py::test_readers_of_one_map_share_its_orbit_prefix"
PARAMS = ("tests/test_cocycle.py::test_inverse_read_off_h_matches_oracles",
          "tests/test_cocycle.py::test_growth_params_reduces_no_fraction")


@dataclass(frozen=True)
class Mutant:
    name: str
    module: str  # under plcircle
    function: str  # a module function, or Class.method
    old: str
    new: str
    tests: Tuple[str, ...]  # pytest node ids, of which one must fail
    equivalent: Optional[str] = None  # the proof that no input tells it apart


MUTANTS = [
    Mutant("table-without-gcd-shrink", "homeo", "_canonical",
           "g = gcd(L, *X)", "g = 1", (TABLES,)),
    # each row in lowest terms, from its piece's own two vertices
    Mutant("row-left-unreduced", "homeo", "_layout",
           "g = gcd(a, b, c)", "g = 1", (TABLES,)),
    # the inverse's rows: h's rows swapped, beta negated and moved by
    # gamma s from j on and by alpha, x lifted by 1, before j
    Mutant("inverse-row-beta-sign", "homeo", "PLHomeo._inverse",
           "(c, c * s - b, a)", "(c, c * s + b, a)", (TABLES,)),
    Mutant("inverse-row-unshifted", "homeo", "PLHomeo._inverse",
           "(c, c * s - b, a)", "(c, -b, a)", (TABLES,)),
    Mutant("inverse-x-unlifted", "homeo", "PLHomeo._inverse",
           "(c, a - b, a)", "(c, -b, a)", (TABLES,)),
    Mutant("inverse-row-shifted-by-gamma", "homeo", "PLHomeo._inverse",
           "(c, a - b, a)", "(c, c - b, a)", (TABLES,)),
    Mutant("inverse-y-unshifted", "homeo", "PLHomeo._inverse",
           "[y - s * M for y in Y[j:]]", "Y[j:]", (TABLES,)),
    # vertices and table stay consistent, but the base is no longer the
    # smallest breakpoint once an image is exactly 1
    Mutant("inverse-base-past-an-image-of-1", "homeo", "PLHomeo._inverse",
           "bisect_left(Y, M)", "bisect_right(Y, M)",
           (TABLES, "tests/test_smoothing.py::test_derived_maps_match_canonicalizing_oracles")),
    Mutant("rotation-table-swapped", "homeo", "rotation",
           "1, alpha.numerator,", "1, alpha.denominator - alpha.numerator,", (TABLES,)),
    # a map with no breakpoint goes on as the one vertex (0, y_0 - x_0 mod 1)
    Mutant("canonical-rotation-angle-negated", "homeo", "_canonical",
           "[(Y[0] * L - X[0] * M) % (L * M)]", "[(X[0] * M - Y[0] * L) % (L * M)]",
           (TABLES, "tests/test_homeo.py::test_library_maps_are_canonical")),
    Mutant("hit-without-r-zero", "homeo", "PLHomeo._advance",
           "j = i if r == 0 and f == X[i]", "j = i if f == X[i]", KERNEL),
    Mutant("K-without-alpha", "homeo", "PLHomeo._advance",
           "gcd(a * c, p, q)", "gcd(c, p, q)", KERNEL),
    Mutant("jump-of-the-piece-before", "homeo", "PLHomeo._advance",
           "j = i if r == 0", "j = i - 1 if r == 0", KERNEL),
    Mutant("gate-d-at-least-alpha", "homeo", "PLHomeo._advance",
           "if d > a else", "if d >= a else", KERNEL,
           equivalent="at d = alpha_i, q = gamma_i d = alpha_i gamma_i = K_i, so "
                      "gcd(K_i, p, q) = gcd(p, q): both branches take the same gcd"),
    # the enclosure's rows on the grid 1 / (L 2^b): beta_i scaled by L 2^b
    Mutant("enclosure-beta-unscaled-by-L", "rotnum", "_Enclosure.__init__",
           "c * L << b", "c << b", (ENCLOSURE,)),
    # a cut is dropped only when the two jumps are reciprocal
    Mutant("compose-cut-kept-when-both-halves-differ", "homeo", "PLHomeo.compose",
           "Jg.numerator != Jf.denominator or Jg.denominator != Jf.numerator",
           "Jg.numerator != Jf.denominator and Jg.denominator != Jf.numerator", COMPOSE),
    # an open chain has no member past its last: its next position is stepped
    Mutant("head-orbit-reads-past-the-chain", "homeo", "PLHomeo._chains",
           "for m in members:", "for m in members + members[:1]:",
           (CHAIN_SIGNS, "tests/test_cocycle.py::"
                         "test_growth_sequences_match_oracle_on_chains_and_cycles")),
    Mutant("head-orbit-read-drops-winding", "homeo", "PLHomeo._chains",
           "winds.append(winds[-1] + w)", "winds.append(w)", (CHAIN_SIGNS,)),
    # equal values, one more step per chain: the step counts tell
    Mutant("head-orbit-reads-one-short", "homeo", "PLHomeo._chains",
           "for m in members:", "for m in members[:-1]:",
           (STEPS, "tests/test_cocycle.py::test_growth_sequences_step_one_orbit_per_chain")),
    # _orbit_sign reads the heads one at a time: a zero gap, or a gap of the
    # other sign than one before it, is a periodic orbit, and a head is
    # extended to position q before its gap is read
    Mutant("orbit-sign-reads-on-past-a-zero-gap", "rotnum", "_orbit_sign",
           "if not g or s and", "if s and", (CHAIN_SIGNS,)),
    Mutant("orbit-sign-returns-the-last-head", "rotnum", "_orbit_sign",
           "if not g or s and (g > 0) != (s > 0):", "if not g:", (CHAIN_SIGNS,)),
    Mutant("orbit-sign-head-one-short", "rotnum", "_orbit_sign",
           "if len(ps) <= q:", "if len(ps) < q:", (CHAIN_SIGNS, STEPS)),
    # _periodic: a first return after t <= max_q steps with winding W
    # gives rho = (W mod t)/t, 0 when t = 1, the walk stops at max_q, and
    # only a map whose chains all have jump product 1 walks its first head
    Mutant("periodic-walk-one-step-past-max-q", "rotnum", "_periodic",
           "range(1, max_q + 1)", "range(1, max_q + 2)", (CERTIFICATE,)),
    Mutant("periodic-winding-off-by-one", "rotnum", "_periodic",
           "winds[t] % t", "(winds[t] + 1) % t", (CERTIFICATE,)),
    Mutant("periodic-return-at-one-read-as-one", "rotnum", "_periodic",
           "winds[t] % t", "(winds[t] - 1) % t + 1", (CERTIFICATE,)),
    Mutant("periodic-gate-inverted", "rotnum", "_periodic",
           "if n != d:", "if n == d:", (STEPS, CERTIFICATE)),
    # _periodic and the descent read the map's one chain list, so the
    # descent reads the head the walk stepped with no step
    Mutant("descent-builds-its-own-chains", "rotnum", "rotation_number",
           "_orbit_sign(h, chains, max_q)", "_orbit_sign(h, PLHomeo._chains.func(h), max_q)",
           (STEPS, "tests/test_rotnum.py::test_rotation_number_reads_the_chains_once")),
    # a map builds its chain list once, and every reader extends that one
    # prefix; a reader takes exactly the positions it needs from it
    Mutant("chains-cache-bypassed", "homeo", "PLHomeo._chains",
           "@cached_property", "@property", (SHARED,)),
    Mutant("growth-reads-the-whole-shared-orbit", "cocycle", "growth_sequences",
           "[0][1:c + 1]", "[0][1:]", (SHARED,)),
    # a q past the precision's reach raises w and computes both logs again
    Mutant("log-ratio-keeps-its-first-precision", "rotnum", "_LogRatio.enclosed",
           "if need > self.w:", "if not self.w:",
           ("tests/test_rotnum.py::test_enclosed_signs_raise_their_precision_with_q",)),
    # the series past its last nonzero floored term adds less than 2
    Mutant("atanh-without-the-tail-bound", "rotnum", "_atanh",
           "S + 3 * n + 2", "S + 3 * n",
           ("tests/test_rotnum.py::test_ln_enclosure_contains_decimal_ln",)),
    # succ maps each y_i mod 1 onto an x_j; a cycle closes on its own head
    Mutant("chains-successor-in-lift-coordinates", "homeo", "PLHomeo._chains",
           "index.get((r % t, t))", "index.get((r, t))", (CHAIN_SHAPES, STEPS)),
    Mutant("chains-cycle-flag-inverted", "homeo", "PLHomeo._chains",
           "chains.append((members, i is not None,", "chains.append((members, i is None,",
           (CHAIN_SHAPES, "tests/test_cocycle.py::"
                          "test_growth_sequences_match_oracle_on_chains_and_cycles")),
    # a limit node's arc must hold its apex and all of its first copy
    Mutant("arc-reach-without-first-copy", "cantor_bendixson", "_arcs",
           "reach = r * r + 3 * (r - r * r) / 4", "reach = r * r",
           (CB + "test_validate_rejects_colliding_points", ARC_ORACLE)),
    Mutant("arc-on-the-wrong-side", "cantor_bendixson", "_arcs",
           "if node.direction == RIGHT", "if node.direction == LEFT",
           (CB + "test_validate_rejects_colliding_points", ARC_ORACLE)),
    Mutant("arc-not-split-at-zero", "cantor_bendixson", "_arcs",
           "if 0 <= lo and hi <= 1:", "if True:",
           (CB + "test_validate_rejects_collision_across_zero", ARC_ORACLE)),
    # c must be the least ceiling of the gaps, the one integer F - id can take
    Mutant("fixed-points-floor-of-the-gaps", "rotnum", "fixed_points",
           "c = min(-(-n // e) for", "c = min(n // e for", FIXED),
    Mutant("fixed-points-empty-at-a-zero-gap", "rotnum", "fixed_points",
           "if max(S) < 0:", "if max(S) <= 0:", FIXED),
    # the zero of a piece weighs each end by the other end's denominator
    Mutant("fixed-points-crossing-one-denominator", "rotnum", "fixed_points",
           "u, v = abs(sa) * E[j]", "u, v = abs(sa) * E[i]", FIXED),
    Mutant("rank-leaf-at-height-one", "cantor_bendixson", "_height",
           "height, level = -1, [node]", "height, level = 0, [node]",
           (CB + "test_rank_finite", CB + "test_rank_matches_derivative_oracle")),
    # equal maps built apart must hash equal; only the contract test builds
    # the same map twice and compares the hashes
    Mutant("hash-of-the-object", "homeo", "PLHomeo.__hash__",
           "tuple(self._key())", "tuple(self._key() + [id(self)])", (HASH,)),
    Mutant("hash-without-y", "homeo", "PLHomeo.__hash__",
           "tuple(self._key())", "tuple(k[:2] for k in self._key())", (HASH,),
           equivalent="a hash only picks a bucket, and __eq__ decides: equal maps "
                      "have equal vertices, so equal x pairs and equal hashes"),
    # __eq__ reads the ints __hash__ reads, the y pairs too
    Mutant("eq-without-y", "homeo", "PLHomeo.__eq__",
           "self._key() == other._key()",
           "[k[:2] for k in self._key()] == [k[:2] for k in other._key()]",
           ("tests/test_homeo.py::test_maps_differ_when_any_int_of_their_vertices_does",)),
    # the orbit pass: a reverse step's jump is the forward one inverted, a
    # jump edge divides the potential by the jump, and the rescale
    # multiplies by the whole root
    Mutant("reverse-jump-not-inverted", "smoothing", "_Orbits.expand",
           "_coprime(w.denominator, w.numerator)", "w", ORBIT_ORACLES),
    Mutant("pass-reverse-jump-not-inverted", "smoothing", "_solve",
           "_coprime(w.denominator, w.numerator)", "w", ORBIT_ORACLES),
    Mutant("potential-times-the-jump", "smoothing", "_solve",
           "_scaled(au, w.denominator, w.numerator,", "_scaled(au, w.numerator, w.denominator,",
           ORBIT_ORACLES),
    Mutant("sweep-potential-times-the-jump", "smoothing", "_obstruction",
           "_scaled(av, w.denominator, w.numerator,", "_scaled(av, w.numerator, w.denominator,",
           ORBIT_ORACLES),
    Mutant("rescale-by-the-root-numerator-only", "smoothing", "_solve",
           "_scaled(a[v], r, s,", "_scaled(a[v], r, 1,", ORBIT_ORACLES),
    # an edge between two trees rescales the younger one, of the larger
    # root id, by t's potential in the older frame over the younger, so a
    # component ends in the frame of its smallest id; the product-one
    # rescale goes to the component of the largest root, and an
    # inconsistent edge hands the table to the sweep for its cycle
    Mutant("merge-the-older-tree-into-the-younger", "smoothing", "_solve",
           "if au[2] < at[2] else", "if au[2] > at[2] else", (SWEEP_ORDER, *ORBIT_ORACLES)),
    Mutant("merge-factor-inverted", "smoothing", "_solve",
           "x[0] * y[1], x[1] * y[0]", "x[1] * y[0], x[0] * y[1]", (SWEEP_ORDER, *ORBIT_ORACLES)),
    Mutant("rescale-the-smallest-root-component", "smoothing", "_solve",
           "members[max(members)]", "members[min(members)]", (SWEEP_ORDER, *ORBIT_ORACLES)),
    Mutant("obstruction-from-the-pass-edge", "smoothing", "_solve",
           "return _obstruction(o)",
           "return Obstruction((o.edge(i),), Fraction(at[0] * want[1], at[1] * want[0]))",
           (SWEEP_ORDER, *ORBIT_ORACLES)),
    # Newton's iteration descends to the root only from above it
    Mutant("root-bound-one-bit-short", "smoothing", "_iroot",
           "r = 1 << -(-m.bit_length() // n)", "r = 1 << -(-m.bit_length() // n) - 1",
           (SWEEP_ORDER, *ORBIT_ORACLES, TAIL)),
    # points 1/(K + 1) apart share a key when K is only the largest d
    Mutant("order-keys-by-the-largest-d", "circle", "_order_keys",
           "default=1) ** 2", "default=1)",
           ("tests/test_circle.py::test_order_keys_order_points_as_fractions",
            *ORBIT_ORACLES)),
    # the last piece of the conjugator ends at x_0 + 1, a full turn on
    Mutant("conjugator-closes-at-x0", "smoothing", "_conjugator",
           "X[1:] + [X[0] + L]", "X[1:] + [X[0]]",
           (SM + "test_synthesize_roundtrip_many",
            SM + "test_derived_maps_match_canonicalizing_oracles")),
    # each angle is phi(g(x_0)) - x_0: g's slot, g(x_0) lifted into [x_0,
    # x_0 + 1), its piece the last X_i at or below it, the offset scaled by
    # the piece's slope U_i
    Mutant("angle-from-the-inverse-slot", "smoothing", "smooth_group",
           "x0 + 2 * k]", "x0 + 2 * k + 1]", (TAIL,)),
    Mutant("angle-without-the-lift", "smoothing", "_conjugator",
           "nL += d * L", "nL += 0", (TAIL,)),
    # bisect_left(X, f) is bisect_right(X, f - 1) on ints
    Mutant("angle-piece-by-bisect-left", "smoothing", "_conjugator",
           "bisect_right(X, nL // d)", "bisect_right(X, nL // d - 1)", (TAIL,)),
    Mutant("angle-offset-not-times-slope", "smoothing", "_conjugator",
           "U[i] * (nL - X[i] * d)", "(nL - X[i] * d)", (TAIL,)),
    # slopes dy_i / dx_i are compared by cross-multiplying
    Mutant("canonical-slopes-not-cross-multiplied", "homeo", "_canonical",
           "dy[i - 1] * dx[i] != dy[i] * dx[i - 1]", "dy[i - 1] * dx[i - 1] != dy[i] * dx[i]",
           ("tests/test_homeo.py::test_removable_breakpoints_merge",
            "tests/test_homeo.py::test_integer_canonicalization_matches_fraction_oracle")),
    # the records print, hash and compare as frozen dataclasses did: a
    # record hashes the tuple of its fields, so a point the 1-tuple of its
    # value, == reads every field (Limit's ratio is its last), and each
    # __init__ validates through _init, which calls __post_init__
    Mutant("record-hash-of-the-bare-first-field", "circle", "_Frozen.__hash__",
           "hash(self._values())", "hash(self._values()[0])", (RECORDS,)),
    Mutant("record-eq-without-the-last-field", "circle", "_Frozen.__eq__",
           "self._values() == other._values()",
           "self._values()[:-1] == other._values()[:-1]", (RECORDS,)),
    Mutant("init-without-post-init", "circle", "_Frozen._init",
           "self.__post_init__()", "pass",
           (CB + "test_limit_rejects_ratio_string_out_of_range",
            "tests/test_circle.py::test_circle_point_accepts_exactly_the_unit_interval")),
    # member s of a chain is at point (s + t) mod c after t steps
    Mutant("growth-head-one-step-ahead", "cocycle", "growth_sequences",
           "keys[b + (s + t) % c]", "keys[b + (s + t + 1) % c]",
           ("tests/test_cocycle.py::test_growth_sequences_match_oracles",)),
    # growth_params on ints: a slope is logged in lowest terms, as a
    # Fraction holds it, f contracts on (a, b) when F(m) moved into [a, a +
    # 1) lies below the midpoint m, and b is lifted past a when it is not
    # already past it
    Mutant("growth-params-slope-row-unreduced", "cocycle", "growth_params",
           "g0, g1 = gcd(a0, e0), gcd(a1, e1)", "g0, g1 = 1, 1", PARAMS),
    Mutant("growth-params-midpoint-comparison-flipped", "cocycle", "growth_params",
           "(p - k * q) * d < n * q", "(p - k * q) * d > n * q", PARAMS),
    Mutant("growth-params-wrap-dropped", "cocycle", "growth_params",
           "bn += bd", "bn += 0", PARAMS),
    # a request that starts with a command's name goes to that command's
    # parser without the name; any other goes to the root parser
    Mutant("dispatch-passes-the-command-word", "cli", "main",
           "command.parse_args(argv[1:])", "command.parse_args(argv)", (DISPATCH,)),
    Mutant("dispatch-without-root-fallback", "cli", "main",
           "ap.commands.get(argv[0])", "ap.commands[argv[0]]", (DISPATCH,)),
    # the jump at x_i is _jumps[i], as jump_cocycle pairs them
    Mutant("show-jump-at-next-vertex", "cli", "cmd_show",
           "zip(h.verts, h._jumps)", "zip(h.verts[1:], h._jumps)",
           ("tests/test_cli.py::test_show_prints_the_jump_cocycle",
            "tests/test_cli.py::test_fixture_requests_match_recorded_digests")),
]


def install(m: Mutant) -> None:
    """Compile m's function with its text replaced, and put it in place of
    the original in its module or class."""
    module = importlib.import_module(f"plcircle.{m.module}")
    owner, _, name = m.function.rpartition(".")
    owner = getattr(module, owner) if owner else module
    func = vars(owner)[name]
    func = getattr(func, "func", func)  # a cached_property's function
    source = textwrap.dedent(inspect.getsource(func))
    if source.count(m.old) != 1:
        raise SystemExit(f"{m.name}: {m.old!r} is not in {m.function} exactly once")
    code = compile(source.replace(m.old, m.new), inspect.getsourcefile(func), "exec",
                   flags=__future__.annotations.compiler_flag, dont_inherit=True)
    namespace: dict = {}
    exec(code, vars(module), namespace)
    mutant = namespace[name]
    setattr(owner, name, mutant)
    package = importlib.import_module("plcircle")
    if vars(package).get(name) is func:  # the package re-exports it
        setattr(package, name, mutant)
    if hasattr(mutant, "__set_name__"):  # setattr does not call it
        mutant.__set_name__(owner, name)


class _Install:
    """pytest plugin: install the mutant before any test module is imported,
    with hypothesis derandomized, stopping at the first failing example."""

    def __init__(self, m: Mutant):
        self.m = m

    def pytest_configure(self, config):
        from hypothesis import Phase, settings
        settings.register_profile("mutants", derandomize=True, database=None,
                                  phases=[Phase.explicit, Phase.generate])
        settings.load_profile("mutants")
        install(self.m)


def run_one(m: Mutant) -> int:
    """pytest's exit code for m's tests with m installed."""
    return pytest.main(["-x", "-q", "-p", "no:cacheprovider", *m.tests],
                       plugins=[_Install(m)])


def main(argv) -> int:
    sys.path.insert(0, str(ROOT / "src"))
    by_name = {m.name: m for m in MUTANTS}
    if argv:
        return run_one(by_name[argv[0]])
    survivors = 0
    for m in MUTANTS:
        if m.equivalent:
            # it must still apply, or its proof speaks of code that is gone
            install(m)
            print(f"{m.name}: equivalent, {m.equivalent}")
            continue
        code = subprocess.run([sys.executable, __file__, m.name], cwd=ROOT,
                              capture_output=True, text=True).returncode
        killed = code == pytest.ExitCode.TESTS_FAILED
        print(f"{m.name}: {'killed' if killed else f'NOT killed (pytest exit {code})'}")
        survivors += not killed
    return 1 if survivors else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
