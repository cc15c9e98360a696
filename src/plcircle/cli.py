"""Batch command line front end.

Exit codes: 0 success, 1 reported domain outcome (obstruction, truncated,
no finite orbit found within the budget), 2 malformed input, invariant
violation or exhausted memory.  Identical inputs and seeds give identical
output.
"""
from __future__ import annotations

import argparse
import functools
import json
import os
import re
import sys

from . import cantor_bendixson as cb
from . import io
from .circle import CirclePoint, _quote, frac_mod1
from .cocycle import growth_params, growth_sequences, jump_cocycle
from .homeo import ExoticParams, exotic_element, random_pl
from .rotnum import rotation_number
from .smoothing import commensuration_defect, detect_finite_orbit, smooth_group


def _write_element(h, path):
    doc = json.dumps(io.element_to_json(h), indent=2)
    if not path:
        print(doc)
        return
    try:
        with open(path, "w") as fh:
            fh.write(doc + "\n")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def cmd_show(args):
    h = io.element_from_json(io.load_json(args.element))
    if args.format == "json":
        _write_element(h, None)
        return 0
    print("vertices (lift):")
    for x, y in h.verts:
        print(f"  {io.format_rational(x)} -> {io.format_rational(y)}")
    print(f"breakpoints: {len(h.breakpoints)}")
    for p, v in jump_cocycle(h).entries:
        print(f"  jump at {io.format_rational(p.value)}: {io.format_rational(v)}")
    return 0


def cmd_eval(args):
    h = io.element_from_json(io.load_json(args.element))
    p = CirclePoint(frac_mod1(io.parse_rational(args.point)))
    print(io.format_rational(h.eval(p).value))
    return 0


def cmd_compose(args):
    g = io.element_from_json(io.load_json(args.left))
    h = io.element_from_json(io.load_json(args.right))
    _write_element(g.compose(h), args.output)
    return 0


def cmd_exotic(args):
    h = exotic_element(ExoticParams(io.parse_rational(args.A),
                                    io.parse_rational(args.lam)))
    _write_element(h, args.output)
    return 0


def cmd_random(args):
    _write_element(random_pl(args.seed, args.breakpoints, args.denom_bound),
                   args.output)
    return 0


def cmd_commensuration(args):
    h = io.element_from_json(io.load_json(args.element))
    print(commensuration_defect(h))
    return 0


def cmd_rotnum(args):
    h = io.element_from_json(io.load_json(args.element))
    print(rotation_number(h, max_q=args.max_q, depth=args.depth))
    return 0


def _growth_header(f):
    try:
        gp = growth_params(f)
        return {
            "component": [io.format_rational(gp.component[0].value),
                          io.format_rational(gp.component[1].value)],
            "c0": gp.c0, "c1": gp.c1, "mu": gp.mu, "beta": gp.beta,
            "analyzed_inverse": gp.analyzed_inverse,
        }, (gp.c1 - gp.c0) / gp.mu
    except ValueError:
        return None, 0.0


def cmd_orbit_norms(args):
    f = io.element_from_json(io.load_json(args.element))
    growth, norms = growth_sequences(f, args.N)  # rejects a bad N before any output
    header, rate = _growth_header(f)
    print("# " + json.dumps({"growth_params": header}))
    print("n,M_n,norm_sq,bound")
    for n, (m, ns) in enumerate(zip(growth, norms), start=1):
        print(f"{n},{m},{ns!r},{(n * rate)!r}")
    return 0


def cmd_breakpoint_counts(args):
    f = io.element_from_json(io.load_json(args.element))
    growth = growth_sequences(f, args.N)[0]  # rejects a bad N before any output
    print("n,M_n")
    for n, m in enumerate(growth, start=1):
        print(f"{n},{m}")
    return 0


def cmd_smooth(args):
    G = io.group_from_json(io.load_json(args.group))
    outcome = smooth_group(G, max_vertices=args.max_vertices)
    print(json.dumps(io.outcome_to_json(outcome), indent=2))
    return 0 if outcome.kind == "success" else 1


def cmd_finite_orbit(args):
    G = io.group_from_json(io.load_json(args.group))
    orbit = detect_finite_orbit(G, max_period=args.max_period)
    if orbit is None:
        print(json.dumps({"finite_orbit": None}))
        return 1
    print(json.dumps({"finite_orbit":
                      [io.format_rational(p.value) for p in orbit]}))
    return 0


def cmd_cb_rank(args):
    S = io.symbolic_set_from_json(io.load_json(args.set))
    cb.validate_realization(S)
    r = cb.cb_rank(S)
    print(f"rank {r.rank}")
    print(f"top finite set size {r.top_finite_set_size}")
    print("derivative chain sizes: "
          + " ".join(str(n) for n in r.chain))
    return 0


def _int(text):
    """argparse's type=int, except that a value past Python's int-from-string
    digit limit (3.10.7 on) is called too large, not an invalid int."""
    try:
        return int(text)
    except ValueError:
        if re.fullmatch(r"[+-]?[0-9]+", text):
            raise argparse.ArgumentTypeError(
                f"value too large: {_quote(text)} has more than "
                f"{sys.get_int_max_str_digits()} digits") from None
        raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None


class _Parser(argparse.ArgumentParser):  # its subparsers are _Parsers too
    def error(self, message):  # main reports it in one line, with exit 2
        # argparse quotes the offending value in full: clip each long word,
        # as io clips rejected input
        raise ValueError(re.sub(r"\S{41,}", lambda m: _quote(m[0]), message))


@functools.cache  # built on first use; parse_args returns a fresh Namespace
def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(
        prog="plcircle",
        description="Exact dynamics of piecewise linear circle homeomorphisms")
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("show", help="print an element's canonical data")
    p.add_argument("element")
    p.add_argument("--format", choices=["table", "json"], default="table")
    p.set_defaults(func=cmd_show)

    p = sub.add_parser("eval", help="evaluate an element at a point")
    p.add_argument("element")
    p.add_argument("point")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("compose", help="compose two elements (left o right)")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_compose)

    p = sub.add_parser("exotic", help="construct an exotic-circle element")
    p.add_argument("A")
    p.add_argument("lam", metavar="lambda")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_exotic)

    p = sub.add_parser("random", help="seeded random element")
    p.add_argument("--seed", type=_int, required=True)
    p.add_argument("-k", "--breakpoints", type=_int, default=4)
    p.add_argument("--denom-bound", type=_int, default=64)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_random)

    p = sub.add_parser("commensuration", help="commensuration defect of an element")
    p.add_argument("element")
    p.set_defaults(func=cmd_commensuration)

    p = sub.add_parser("rotnum", help="rotation number (exact or bracketed)")
    p.add_argument("element")
    p.add_argument("--max-q", type=_int, default=32)
    p.add_argument("--depth", type=_int, default=16)
    p.set_defaults(func=cmd_rotnum)

    p = sub.add_parser("orbit-norms",
                       help="CSV of breakpoint counts and orbit norms of iterates")
    p.add_argument("element")
    p.add_argument("-N", type=_int, default=50)
    p.set_defaults(func=cmd_orbit_norms)

    p = sub.add_parser("breakpoint-growth", help="CSV of breakpoint counts")
    p.add_argument("element")
    p.add_argument("-N", type=_int, default=50)
    p.set_defaults(func=cmd_breakpoint_counts)

    p = sub.add_parser("smooth", help="run the conjugation pipeline on a group")
    p.add_argument("group")
    p.add_argument("--max-vertices", type=_int, default=4096)
    p.set_defaults(func=cmd_smooth)

    p = sub.add_parser("finite-orbit", help="search for a finite group orbit")
    p.add_argument("group")
    p.add_argument("--max-period", type=_int, default=6)
    p.set_defaults(func=cmd_finite_orbit)

    p = sub.add_parser("cb-rank", help="Cantor-Bendixson rank of a symbolic set")
    p.add_argument("set")
    p.set_defaults(func=cmd_cb_rank)

    return ap


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # a reader gone after the last write fails here
        return code
    except OSError as exc:
        # stdout failed (`plcircle ... | head`, or a full device): send the
        # unwritten output to devnull so the flush at exit is silent
        if sys.stdout is sys.__stdout__:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        if isinstance(exc, BrokenPipeError):
            print("error: output closed before it was complete", file=sys.stderr)
        else:
            print(f"error: cannot write output: {exc.strerror}", file=sys.stderr)
        return 2
    except ValueError as exc:  # io.FormatError too; a line break shows as \n
        print("error:", "\\n".join(str(exc).splitlines()), file=sys.stderr)
        return 2
    except RecursionError:
        print("error: input nested too deeply", file=sys.stderr)
        return 2
    except MemoryError:
        print("error: out of memory", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
