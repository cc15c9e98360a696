"""JSON (de)serialization for elements, groups, outcomes and symbolic sets.
Rationals travel as "p/q" strings in canonical lowest terms with positive
denominator."""
from __future__ import annotations

import json
from collections import Counter
from fractions import Fraction
from typing import Any, Dict

from . import cantor_bendixson as cb
from .circle import CirclePoint, _exact, _ints, _quote, frac_mod1
from .homeo import ExoticParams, PLHomeo, exotic_element, rotation
from .smoothing import Edge, GroupPresentation


class FormatError(ValueError):
    """Malformed or invariant-violating input file."""


def parse_rational(s) -> Fraction:
    """A JSON integer or a "p/q" string (q optional) as an exact Fraction,
    built from the two ints the documented form holds (circle._ints)."""
    if isinstance(s, str):
        pq = _ints(s)
        if pq is None:
            raise FormatError(f"not a rational: {_quote(s, repr)} (expected p/q)")
        try:
            return Fraction(*pq)
        except ZeroDivisionError as exc:
            raise FormatError(f"not a rational: {_quote(s, repr)} "
                              f"({_quote(exc)})") from None
    if isinstance(s, int) and not isinstance(s, bool):
        return Fraction(s)
    raise FormatError(f"rational expected, got {type(s).__name__}: {_quote(s, repr)}")


def format_rational(q: Fraction) -> str:
    """q as "p/q" of any size, past Python's int-to-string digit limit too."""
    return _exact(lambda r: f"{r.numerator}/{r.denominator}", Fraction(q))


def element_from_json(obj) -> PLHomeo:
    """Parse an element; rejects non-homeomorphisms with a diagnostic naming
    the violated invariant."""
    if not isinstance(obj, dict):
        raise FormatError("element must be a JSON object")
    keys = {"vertices", "rotation", "exotic"} & obj.keys()
    if len(keys) != 1:
        raise FormatError(
            'element needs exactly one of the keys "vertices", "rotation", "exotic"')
    try:
        if "rotation" in obj:
            return rotation(parse_rational(obj["rotation"]))
        if "exotic" in obj:
            e = obj["exotic"]
            if not isinstance(e, dict) or set(e) != {"A", "lambda"}:
                raise FormatError('field "exotic" must be {"A": ..., "lambda": ...}')
            return exotic_element(ExoticParams(parse_rational(e["A"]),
                                               parse_rational(e["lambda"])))
        verts = obj["vertices"]
        if (not isinstance(verts, list)
                or not all(isinstance(p, list) and len(p) == 2 for p in verts)):
            raise FormatError('field "vertices" must be a list of [x, y] pairs')
        return PLHomeo([(parse_rational(x), parse_rational(y)) for x, y in verts])
    except ValueError as exc:
        if isinstance(exc, FormatError):
            raise
        raise FormatError(f"invalid element: {exc}") from None


def element_to_json(h: PLHomeo) -> Dict[str, Any]:
    if h.is_rotation:
        return {"rotation": format_rational(h.verts[0][1])}
    verts = [[format_rational(x), format_rational(y)] for x, y in h.verts]
    x0, y0 = h.verts[0]
    verts.append([format_rational(x0 + 1), format_rational(y0 + 1)])
    return {"vertices": verts}


def group_from_json(obj) -> GroupPresentation:
    if not isinstance(obj, dict) or "generators" not in obj:
        raise FormatError('group file must be {"generators": {...}}')
    gens = obj["generators"]
    if not isinstance(gens, dict) or not gens:
        raise FormatError('field "generators" must be a nonempty object')
    items = []
    for name, el in gens.items():
        try:
            items.append((name, element_from_json(el)))
        except FormatError as exc:
            raise FormatError(f"generator {_quote(json.dumps(name, ensure_ascii=False))}: "
                              f"{exc}") from None
    return GroupPresentation(tuple(items))


def _edge_to_json(e: Edge) -> Dict[str, Any]:
    return {
        "source": format_rational(e.source.value),
        "generator": e.gen + ("" if e.sign > 0 else "^-1"),
        "target": format_rational(e.target.value),
        "weight": format_rational(e.weight),
    }


def outcome_to_json(o) -> Dict[str, Any]:
    """A smooth_group result as a JSON object tagged by its kind."""
    out: Dict[str, Any] = {"kind": o.kind}
    if o.kind == "success":
        out["phi"] = element_to_json(o.phi)
        out["conjugated"] = {name: element_to_json(g) for name, g in o.conjugated}
    elif o.kind == "obstruction":
        out["cycle"] = [_edge_to_json(e) for e in o.cycle]
        out["expected"] = format_rational(o.expected)
        out["found"] = format_rational(o.found)
    elif o.kind == "truncated":
        out["escaping"] = [format_rational(p.value) for p in o.escaping]
    return out


def symbolic_set_from_json(obj) -> cb.SymbolicSet:
    if not isinstance(obj, list):
        raise FormatError("symbolic set must be a JSON list of nodes")

    def node(o):
        if not isinstance(o, dict) or len(o) != 1:
            raise FormatError('node must be {"leaf": ...} or {"limit": {...}}')
        if "leaf" in o:
            return cb.Leaf(CirclePoint(frac_mod1(parse_rational(o["leaf"]))))
        if "limit" in o:
            d = o["limit"]
            required = {"apex", "child", "direction", "ratio"}
            if not isinstance(d, dict) or not required <= d.keys():
                raise FormatError(f'limit node requires fields {sorted(required)}')
            try:
                return cb.Limit(
                    apex=CirclePoint(frac_mod1(parse_rational(d["apex"]))),
                    child=symbolic_set_from_json(d["child"]),
                    direction=d["direction"],
                    ratio=parse_rational(d["ratio"]),
                )
            except ValueError as exc:
                if isinstance(exc, FormatError):
                    raise
                raise FormatError(f"invalid limit node: {exc}") from None
        raise FormatError(f"unknown node tag in {sorted(o)}")

    return cb.SymbolicSet(tuple(node(o) for o in obj))


def symbolic_set_to_json(S: cb.SymbolicSet):
    def node(n):
        if isinstance(n, cb.Leaf):
            return {"leaf": format_rational(n.point.value)}
        return {"limit": {
            "apex": format_rational(n.apex.value),
            "child": symbolic_set_to_json(n.child),
            "direction": n.direction,
            "ratio": format_rational(n.ratio),
        }}
    return [node(n) for n in S.nodes]


def _object(pairs) -> Dict[str, Any]:
    """A JSON object as a dict, rejecting a repeated key (json keeps the last)."""
    obj = dict(pairs)
    if len(obj) < len(pairs):
        key = next(k for k, n in Counter(k for k, _ in pairs).items() if n > 1)
        raise FormatError(f"repeated key {_quote(json.dumps(key, ensure_ascii=False))}")
    return obj


def load_json(path: str):
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=_object,
                             parse_int=lambda digits: _exact(int, digits))
    except OSError as exc:
        raise FormatError(f"cannot read {path}: {exc.strerror}") from None
    except UnicodeDecodeError as exc:
        raise FormatError(f"{path}: not UTF-8 at byte {exc.start}") from None
    except json.JSONDecodeError as exc:
        raise FormatError(f"{path}: malformed JSON at line {exc.lineno}, "
                          f"column {exc.colno}: {exc.msg}") from None
    except FormatError as exc:
        raise FormatError(f"{path}: {exc}") from None
