"""Command-line front-end.

One subcommand per pipeline stage; JSON in, JSON out (stdout or --out),
DOT on the side where a graph structure is available.  Exit codes:
0 success, 1 domain error, 2 usage error; both failures write a
machine-readable error object on stdout.
"""

from __future__ import annotations

import argparse
import json
import sys
from fractions import Fraction
from functools import lru_cache

from . import jsonio
from .complexes import enumerate_qplus, enumerate_section, enumerate_tight_span, skeleton_graph
from .errors import DomainError
from .flow import dual_metric_lp, max_multiflow, verify_minmax
from .geometry import (
    classify_membership,
    dinf,
    geodesic_polyline,
    retract_to_qplus,
    retract_to_section,
    retract_to_tight_span,
)
from .metrics import CONDITIONS, _search, _shown, check_directed_tree_metric, is_metric
from .rank import dim_tight_span_witness, tropical_rank_witness
from .trees import (
    evaluate_realization,
    realize_directed_tree_metric,
    realize_path,
    realize_tree,
    recombine_splits,
    split_decomposition,
    splits_pairwise_compatible,
)

COMPLEXES = {
    "tightspan": enumerate_tight_span,
    "qplus": enumerate_qplus,
    "section": enumerate_section,
}

# condition -> (verdict key, largest-size key); the search is metrics.CONDITIONS'
CHECK_KEYS = {"path": ("path_condition", "dim_tight_span"), "tree": ("tree_condition", "tropical_rank")}


def _load(path: str):
    """Parse a JSON file.  Bad UTF-8, bad JSON, an integer literal past
    Python's digit limit and nesting past the recursion limit are all
    ``ValueError`` or ``RecursionError``, and all ``InputParseError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise DomainError("InputParseError", f"cannot read {path}: {exc}")
    except (ValueError, RecursionError) as exc:
        raise DomainError("InputParseError", f"{path}: {exc}")


def _write(path: str, text: str) -> None:
    try:
        with open(path, "w") as fh:
            fh.write(text + "\n")
    except OSError as exc:
        raise DomainError("OutputWriteError", f"cannot write {path}: {exc}")


def _emit(obj, args) -> None:
    text = jsonio.dumps(obj)
    if getattr(args, "out", None):
        _write(args.out, text)
    else:
        print(text)


def _write_dot(text: str, args) -> None:
    if getattr(args, "dot", None):
        _write(args.dot, text)


def _witness_json(witness):
    if witness is None:
        return None
    rows, cols, matching = witness
    return {
        "rows": list(rows),
        "cols": list(cols),
        "matching": [[a, b] for a, b in matching],
    }


def _cmd_validate(args) -> dict:
    mu = jsonio.distance_from_json(_load(args.matrix))
    return {"labels": list(mu.labels), "n": mu.n, "metric": is_metric(mu)}


def _cmd_check(args) -> dict:
    mu = jsonio.distance_from_json(_load(args.matrix))
    if args.condition in CONDITIONS:
        holds, top = CHECK_KEYS[args.condition]
        # one search gives the verdict, the violator and the dimension or rank
        k, _, violator = _search(mu, *CONDITIONS[args.condition])
        return {holds: violator is None, "violator": None if violator is None else [mu.labels[i] for i in violator], top: k}
    return {"directed_tree_metric": check_directed_tree_metric(mu)}


def _cmd_rank(args) -> dict:
    mu = jsonio.distance_from_json(_load(args.matrix))
    k, witness = tropical_rank_witness(mu)
    return {"tropical_rank": k, "witness": _witness_json(witness)}


def _cmd_dim(args) -> dict:
    mu = jsonio.distance_from_json(_load(args.matrix))
    k, witness = dim_tight_span_witness(mu)
    return {"dim_tight_span": k, "witness": _witness_json(witness)}


def _cmd_complex(args) -> dict:
    mu = jsonio.distance_from_json(_load(args.matrix))
    comp = COMPLEXES[args.command](mu)
    return jsonio.complex_to_json(comp)


def _cmd_skeleton(args) -> dict:
    mu = jsonio.distance_from_json(_load(args.matrix))
    skel = skeleton_graph(COMPLEXES[args.of](mu))
    _write_dot(jsonio.skeleton_to_dot(skel), args)
    return jsonio.skeleton_to_json(skel)


def _cmd_realize(args) -> dict:
    mu = jsonio.distance_from_json(_load(args.matrix))
    builder = {
        "path": realize_path,
        "tree": realize_tree,
        "dtm": realize_directed_tree_metric,
    }[args.kind]
    r = builder(mu)
    _write_dot(jsonio.realization_to_dot(r), args)
    out = jsonio.realization_to_json(r)
    out["evaluates_back"] = evaluate_realization(r).entries == mu.entries
    return out


def _cmd_retract(args) -> dict:
    mu = jsonio.distance_from_json(_load(args.matrix))
    p = jsonio.point_from_json(mu, _load(args.point))
    if args.target == "tightspan":
        q = retract_to_tight_span(mu, p)
    elif args.target == "qplus":
        q = retract_to_qplus(mu, retract_to_tight_span(mu, p))
    else:
        q = retract_to_section(mu, retract_to_qplus(mu, retract_to_tight_span(mu, p)))
    out = jsonio.point_to_json(q)
    out["membership"] = classify_membership(mu, q).value
    return out


def _cmd_geodesic(args) -> dict:
    mu = jsonio.distance_from_json(_load(args.matrix))
    p = jsonio.point_from_json(mu, _load(args.p))
    q = jsonio.point_from_json(mu, _load(args.q))
    pts = geodesic_polyline(mu, p, q, args.k)
    total = sum((dinf(a, b) for a, b in zip(pts, pts[1:])), Fraction(0))
    return {
        "points": [jsonio.point_to_json(x) for x in pts],
        "total_length": total,
        "dinf": dinf(p, q),
    }


def _cmd_flow(args) -> dict:
    net = jsonio.network_from_json(_load(args.network))
    mu = jsonio.distance_from_json(_load(args.matrix))
    if args.action == "max":
        value, flow = max_multiflow(net, mu)
        return {
            "value": value,
            "paths": [
                {"path": list(p), "value": lam}
                for p, lam in zip(flow.paths, flow.values)
            ],
        }
    if args.action == "dual":
        value, ext = dual_metric_lp(net, mu)
        return {"value": value, "extension": ext.d}
    return verify_minmax(net, mu, args.mode)


def _cmd_decompose(args) -> dict:
    r = jsonio.realization_from_json(_load(args.realization))
    terms = split_decomposition(r)
    mu = evaluate_realization(r)
    back = recombine_splits(terms, mu.labels)
    return {
        "terms": jsonio.splits_to_json(terms),
        "recombines": back.entries == mu.entries,
        "compatible": splits_pairwise_compatible(terms),
    }


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are ``DomainError("UsageError")``,
    reported by ``main`` like every other failure, not argparse's exit."""

    def error(self, message):
        raise DomainError("UsageError", message)


@lru_cache(maxsize=None)
def _parser() -> argparse.ArgumentParser:
    """The argument parser, built once per process; parsing leaves it unchanged."""
    ap = _Parser(
        prog="dtspan",
        description="Directed tight spans, tropical polytopes, and oriented-tree realizations.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    def add(name, fn, **kw):
        p = sub.add_parser(name, **kw)
        p.set_defaults(fn=fn)
        p.add_argument("--out", help="write JSON here instead of stdout")
        return p

    p = add("validate", _cmd_validate, help="validate a distance matrix")
    p.add_argument("matrix")

    p = add("check", _cmd_check, help="run a realizability condition checker")
    p.add_argument("condition", choices=["path", "tree", "dtm"])
    p.add_argument("matrix")

    p = add("rank", _cmd_rank, help="tropical rank with matching witness")
    p.add_argument("matrix")

    p = add("dim", _cmd_dim, help="tight-span dimension with matching witness")
    p.add_argument("matrix")

    for name in COMPLEXES:
        p = add(name, _cmd_complex, help=f"enumerate the {name} complex")
        p.add_argument("matrix")

    p = add("skeleton", _cmd_skeleton, help="oriented skeleton of a 1-dimensional complex")
    p.add_argument("matrix")
    p.add_argument("--of", choices=list(COMPLEXES), default="section")
    p.add_argument("--dot", help="also write a DOT file here")

    p = add("realize", _cmd_realize, help="construct an oriented-tree realization")
    p.add_argument("kind", choices=["path", "tree", "dtm"])
    p.add_argument("matrix")
    p.add_argument("--dot", help="also write a DOT file here")

    p = add("retract", _cmd_retract, help="retract a point onto a complex")
    p.add_argument("matrix")
    p.add_argument("point")
    p.add_argument("--target", choices=["tightspan", "qplus", "section"], default="tightspan")

    p = add("geodesic", _cmd_geodesic, help="sample a geodesic polyline")
    p.add_argument("matrix")
    p.add_argument("p")
    p.add_argument("q")
    p.add_argument("--k", type=int, default=8)

    p = add("flow", _cmd_flow, help="multiflow LP, dual metric LP, or full verification")
    p.add_argument("action", choices=["max", "dual", "verify"])
    p.add_argument("network")
    p.add_argument("matrix")
    p.add_argument("--mode", choices=["T", "Q"], default="T")

    p = add("decompose", _cmd_decompose, help="split decomposition of a singleton realization")
    p.add_argument("realization")

    return ap


def _parse(argv):
    """The parsed arguments.  A usage error quotes every argument it echoes
    through ``_shown``, whole or after the ``=`` of an option, so a huge
    argument gives a short message."""
    try:
        return _parser().parse_args(argv)
    except DomainError as exc:
        message = exc.message
        for arg in sorted(argv, key=len, reverse=True):
            for part in (arg, arg.partition("=")[2]):
                if len(repr(part)) > 40:
                    message = message.replace(repr(part), _shown(part)).replace(part, _shown(part))
        raise DomainError(exc.code, message) from None


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    try:
        args = _parse(argv)
        _emit(args.fn(args), args)
    except DomainError as exc:
        print(jsonio.dumps(exc.to_json()))
        return 2 if exc.code == "UsageError" else 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
