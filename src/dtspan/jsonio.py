"""JSON and DOT serialization with canonical rational strings.

Every rational is written as str(Fraction): an integer string or "p/q" in
lowest terms with positive denominator.  ``dumps`` is a one-pass writer: it
walks the report once, converting rationals, distances and points as it
meets them, and its text is byte-identical to ``json.dumps(obj, indent=2)``
of the converted report (strings go through the same C escaper,
``json.encoder.encode_basestring_ascii``).  On input every rational goes
through ``metrics.as_fraction``, which rejects floats and bools, so a round
trip through JSON never loses exactness.  A string is read once: one match
of the "p/q" pattern, then its numerator and denominator as two ints.
``distance_from_json`` reads every entry before ``validate_distance``
checks the shape, the diagonal and the signs, so a bad entry is reported
ahead of a short row.  A rational too long for ``str`` (past
Python's int-to-string digit limit) is ``OutputWriteError``.
"""

from __future__ import annotations

import sys
from fractions import Fraction
from json.encoder import encode_basestring_ascii as _quote
from typing import Dict, List, Sequence

from .complexes import PolyComplex, SkeletonGraph
from .errors import DomainError
from .flow import Network, network
from .geometry import ExtPoint
from .metrics import DirectedDistance, _shown, as_fraction, validate_distance
from .trees import OrientedTree, Realization, SplitTerm

# -- rationals -----------------------------------------------------------------


def fraction_to_str(x: Fraction) -> str:
    """The canonical string; a numerator or denominator past Python's
    int-to-string digit limit is ``OutputWriteError``."""
    try:
        return str(x)
    except ValueError:
        raise DomainError(
            "OutputWriteError",
            f"a rational has more than {sys.get_int_max_str_digits()} digits",
        ) from None


def _expect(obj, key, kind, where):
    if not isinstance(obj, dict) or key not in obj:
        raise DomainError("InputParseError", f"{where}: missing field {_shown(key)}")
    value = obj[key]
    if kind is not None and not isinstance(value, kind):
        raise DomainError("InputParseError", f"{where}: field {_shown(key)} has the wrong type")
    return value


def _names(obj, key, where) -> list:
    """A list of string names: points and subtrees name them as JSON object keys."""
    value = _expect(obj, key, list, where)
    if not all(isinstance(v, str) for v in value):
        raise DomainError("InputParseError", f"{where}: field {_shown(key)} must be a list of strings")
    return value


# -- distance matrices ---------------------------------------------------------


def distance_to_json(mu: DirectedDistance) -> dict:
    return {
        "labels": list(mu.labels),
        "matrix": [[fraction_to_str(v) for v in row] for row in mu.entries],
    }


def distance_from_json(obj) -> DirectedDistance:
    matrix = _expect(obj, "matrix", list, "distance")
    labels = None if obj.get("labels") is None else _names(obj, "labels", "distance")
    rows = []
    for row in matrix:
        if not isinstance(row, list):
            raise DomainError("InputParseError", "distance: matrix rows must be lists")
        rows.append([as_fraction(v) for v in row])
    return validate_distance(rows, labels)


# -- points --------------------------------------------------------------------


def point_to_json(p: ExtPoint) -> dict:
    labels = p.ground.labels
    return {
        "col": {labels[i]: fraction_to_str(v) for i, v in enumerate(p.col)},
        "row": {labels[i]: fraction_to_str(v) for i, v in enumerate(p.row)},
    }


def point_from_json(mu: DirectedDistance, obj) -> ExtPoint:
    col = _expect(obj, "col", dict, "point")
    row = _expect(obj, "row", dict, "point")
    labels = mu.labels
    for side, name in ((col, "col"), (row, "row")):
        if set(side) != set(labels):
            raise DomainError("InputParseError", f"point: {name} must assign every label exactly once")
    return ExtPoint(
        mu.ground,
        tuple([as_fraction(col[s]) for s in labels]),
        tuple([as_fraction(row[s]) for s in labels]),
    )


# -- networks ------------------------------------------------------------------


def network_to_json(net: Network) -> dict:
    return {
        "vertices": list(net.vertices),
        "edges": [{"tail": t, "head": h, "cap": c} for t, h, c in net.edges],
        "terminals": list(net.terminals),
    }


def network_from_json(obj) -> Network:
    vertices = _names(obj, "vertices", "network")
    edges = _expect(obj, "edges", list, "network")
    terminals = _names(obj, "terminals", "network")
    triples = []
    for e in edges:
        tail = _expect(e, "tail", str, "network edge")
        head = _expect(e, "head", str, "network edge")
        cap = _expect(e, "cap", int, "network edge")
        if isinstance(cap, bool):
            raise DomainError("InputParseError", "network edge: cap must be an integer")
        triples.append((tail, head, cap))
    return network(vertices, triples, terminals)


# -- realizations --------------------------------------------------------------


def realization_to_json(r: Realization) -> dict:
    return {
        "vertices": list(r.tree.vertices),
        "edges": [
            {"tail": t, "head": h, "length": fraction_to_str(w)} for t, h, w in r.tree.arcs
        ],
        "terminals": list(r.terminals),
        "subtrees": {s: list(sub) for s, sub in zip(r.terminals, r.subtrees)},
    }


def realization_from_json(obj) -> Realization:
    vertices = _names(obj, "vertices", "realization")
    edges = _expect(obj, "edges", list, "realization")
    terminals = _names(obj, "terminals", "realization")
    subtrees = _expect(obj, "subtrees", dict, "realization")
    arcs = []
    for e in edges:
        tail = _expect(e, "tail", str, "realization edge")
        head = _expect(e, "head", str, "realization edge")
        length = as_fraction(_expect(e, "length", None, "realization edge"))
        arcs.append((tail, head, length))
    tree = OrientedTree(tuple(vertices), tuple(arcs))
    if set(subtrees) != set(terminals):
        raise DomainError("InputParseError", "realization: one subtree per terminal")
    subs = tuple(tuple(_names(subtrees, s, "realization subtrees")) for s in terminals)
    return Realization(tree, tuple(terminals), subs)


def splits_to_json(terms: Sequence[SplitTerm]) -> list:
    return [
        {
            "side_a": list(term.side_a),
            "side_b": list(term.side_b),
            "coeff": fraction_to_str(term.coeff),
        }
        for term in terms
    ]


# -- complexes and skeletons -----------------------------------------------------


def complex_to_json(comp: PolyComplex) -> dict:
    return {
        "which": comp.which,
        "labels": list(comp.ground_labels),
        "dim": comp.dim,
        "vertices": [point_to_json(p) for p in comp.vertices],
        "faces": [
            {
                "dim": f.dim,
                "vertices": list(f.vertex_ids),
                "tight_pairs": [
                    [comp.ground_labels[s], comp.ground_labels[t]] for s, t in f.edges
                ],
            }
            for f in comp.faces
        ],
        "maximal_faces": comp.maximal_faces(),
    }


def skeleton_to_json(skel: SkeletonGraph) -> dict:
    return {
        "vertices": [point_to_json(p) for p in skel.vertices],
        "arcs": [
            {"tail": i, "head": j, "length": fraction_to_str(w)} for i, j, w in skel.arcs
        ],
    }


# -- DOT -----------------------------------------------------------------------

_PALETTE = (
    "#e6194b", "#3cb44b", "#4363d8", "#f58231", "#911eb4",
    "#46f0f0", "#f032e6", "#bcf60c", "#fabebe", "#008080",
)


def skeleton_to_dot(skel: SkeletonGraph) -> str:
    lines = ["digraph skeleton {"]
    for i in range(len(skel.vertices)):
        lines.append(f'  v{i} [label="v{i}"];')
    for i, j, w in skel.arcs:
        lines.append(f'  v{i} -> v{j} [label="{fraction_to_str(w)}"];')
    lines.append("}")
    return "\n".join(lines)


def realization_to_dot(r: Realization) -> str:
    colors: Dict[str, List[str]] = {v: [] for v in r.tree.vertices}
    for k, sub in enumerate(r.subtrees):
        for v in sub:
            colors[v].append(_PALETTE[k % len(_PALETTE)])
    lines = ["digraph realization {", "  node [style=filled];"]
    for v in r.tree.vertices:
        hosted = [s for s, sub in zip(r.terminals, r.subtrees) if v in sub]
        label = v if not hosted else f"{v}\\n{{{','.join(hosted)}}}"
        fill = colors[v][0] if colors[v] else "#dddddd"
        lines.append(f'  "{v}" [label="{label}", fillcolor="{fill}"];')
    for t, h, w in r.tree.arcs:
        lines.append(f'  "{t}" -> "{h}" [label="{fraction_to_str(w)}"];')
    lines.append("}")
    return "\n".join(lines)


# -- the writer -----------------------------------------------------------------


def dumps(obj) -> str:
    """``json.dumps(obj, indent=2)`` byte for byte, written in one pass.

    ``obj`` is a report: dicts with string keys, lists, tuples, strings,
    ints, bools and None, with ``Fraction``, ``DirectedDistance`` and
    ``ExtPoint`` values written as ``fraction_to_str``, ``distance_to_json``
    and ``point_to_json`` give them.  Anything else is ``TypeError``.
    """
    out: List[str] = []
    _write(obj, out.append, "\n")
    return "".join(out)


def _write(x, put, nl: str) -> None:
    """Append the text of x to the output through put; nl is the newline
    and indentation of x's own line."""
    if isinstance(x, str):
        put(_quote(x))
    elif isinstance(x, dict):
        if not x:
            put("{}")
            return
        inner = nl + "  "
        sep = "{" + inner
        for k, v in x.items():
            if not isinstance(k, str):
                raise TypeError(f"keys must be str, not {type(k).__name__}")
            put(sep + _quote(k) + ": ")
            _write(v, put, inner)
            sep = "," + inner
        put(nl + "}")
    elif isinstance(x, (list, tuple)):
        if not x:
            put("[]")
            return
        inner = nl + "  "
        sep = "[" + inner
        for v in x:
            put(sep)
            _write(v, put, inner)
            sep = "," + inner
        put(nl + "]")
    elif x is None:
        put("null")
    elif x is True:
        put("true")
    elif x is False:
        put("false")
    elif isinstance(x, int):
        put(int.__repr__(x))
    elif isinstance(x, Fraction):
        put(_quote(fraction_to_str(x)))
    elif isinstance(x, ExtPoint):
        _write(point_to_json(x), put, nl)
    elif isinstance(x, DirectedDistance):
        _write(distance_to_json(x), put, nl)
    else:
        raise TypeError(f"Object of type {type(x).__name__} is not JSON serializable")
