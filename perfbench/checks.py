"""Output checks that use only the input and the program's output JSON.

Nothing here imports the program: every identity is recomputed from the
definitions, so a wrong answer cannot be confirmed by the code that made it.
Each check raises ``CheckFailed`` with a short reason.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

import gen

F0 = Fraction(0)


class CheckFailed(Exception):
    pass


def require(cond: bool, reason: str) -> None:
    if not cond:
        raise CheckFailed(reason)


def frac(v) -> Fraction:
    require(isinstance(v, (str, int)) and not isinstance(v, bool), f"not an exact rational: {v!r}")
    return Fraction(v)


def matrix_of(obj, names: Sequence[str]) -> List[List[Fraction]]:
    """Distance JSON reordered to the given labels."""
    pos = {s: i for i, s in enumerate(obj["labels"])}
    require(set(pos) == set(names), "distance labels differ")
    m = obj["matrix"]
    return [[frac(m[pos[s]][pos[t]]) for t in names] for s in names]


def point_of(obj, names: Sequence[str]) -> gen.Point:
    return [frac(obj["col"][s]) for s in names], [frac(obj["row"][s]) for s in names]


def expect_error(rc: int, out, code: str) -> None:
    require(rc == 1, f"expected exit 1 with {code}, got {rc}")
    require(isinstance(out, dict) and out.get("error", {}).get("code") == code, f"expected error {code}")


# -- points and complexes ------------------------------------------------------


def tight(mu, p: gen.Point) -> Tuple[List[bool], List[bool]]:
    """Which columns and rows are covered by a tight coupling at p."""
    col, row = p
    n = len(mu)
    tc, tr = [False] * n, [False] * n
    for s in range(n):
        for t in range(n):
            if col[s] + row[t] == mu[s][t]:
                tc[s] = tr[t] = True
    return tc, tr


def check_in_p(mu, p: gen.Point, what: str) -> None:
    col, row = p
    n = len(mu)
    require(all(x >= 0 for x in col + row), f"{what}: negative coordinate")
    require(
        all(col[s] + row[t] >= mu[s][t] for s in range(n) for t in range(n)),
        f"{what}: violates a coupling",
    )


def check_in_t(mu, p: gen.Point, what: str) -> None:
    """In P, and every positive coordinate is covered by a tight coupling."""
    check_in_p(mu, p, what)
    tc, tr = tight(mu, p)
    col, row = p
    require(
        all(tc[s] or col[s] == 0 for s in range(len(mu)))
        and all(tr[t] or row[t] == 0 for t in range(len(mu))),
        f"{what}: a positive coordinate is not tight",
    )


def check_in_qplus(mu, p: gen.Point, what: str) -> None:
    """In T, with every coordinate covered by a tight coupling."""
    check_in_t(mu, p, what)
    tc, tr = tight(mu, p)
    require(all(tc) and all(tr), f"{what}: not in Q+")


def check_complex(out, mu, names, which: str) -> int:
    """Vertices lie where the complex says; returns the largest face dimension."""
    require(out["which"] == which, f"expected complex {which}")
    check_vertex = {"T": check_in_t, "Qplus": check_in_qplus, "Section": check_in_qplus}[which]
    verts = [point_of(v, names) for v in out["vertices"]]
    for k, p in enumerate(verts):
        check_vertex(mu, p, f"{which} vertex {k}")
        if which == "Section":
            require(min(p[1]) == 0, f"section vertex {k}: no zero row coordinate")
    top = max((f["dim"] for f in out["faces"]), default=0)
    require(out["dim"] == top, f"{which}: dim field disagrees with the faces")
    for f in out["faces"]:
        require(f["vertices"] and all(0 <= i < len(verts) for i in f["vertices"]), "face vertex index")
        require(f["dim"] < len(f["vertices"]), "face has too few vertices for its dimension")
    return top


def dinf(p: gen.Point, q: gen.Point) -> Fraction:
    """Directed sup-distance: column increase from p to q, row increase back."""
    return max(
        max(b - a for a, b in zip(p[0], q[0])),
        max(a - b for a, b in zip(p[1], q[1])),
        F0,
    )


def check_witness(out, key: str) -> int:
    """Matching witness of a dimension or rank answer is a k x k bijection."""
    k = out[key]
    require(isinstance(k, int) and k >= 0, f"{key} is not a count")
    w = out["witness"]
    if k == 0:
        require(w is None, f"{key} 0 carries a witness")
        return k
    rows, cols, matching = w["rows"], w["cols"], w["matching"]
    require(len(rows) == len(cols) == len(matching) == k, f"{key} witness has the wrong size")
    require(
        sorted(a for a, _ in matching) == sorted(rows) and sorted(b for _, b in matching) == sorted(cols),
        f"{key} witness is not a matching of its rows and columns",
    )
    return k


# -- realizations ----------------------------------------------------------------


def realization_matrix(out, names: Sequence[str]) -> List[List[Fraction]]:
    """Oriented-tree distances of a realization JSON, in label order."""
    arcs = [(e["tail"], e["head"], frac(e["length"])) for e in out["edges"]]
    require(all(w > 0 for _, _, w in arcs), "realization arc with nonpositive length")
    require(len(arcs) == len(out["vertices"]) - 1, "realization is not a tree")
    subtrees = [out["subtrees"][s] for s in names]
    return gen.realization_distances(out["vertices"], arcs, subtrees)


def check_realization(out, mu, names, kind: str) -> None:
    require(out["evaluates_back"] is True, "realization does not evaluate back")
    require(realization_matrix(out, names) == mu, "realization distances differ from the input")
    indeg: Dict[str, int] = {}
    outdeg: Dict[str, int] = {}
    for e in out["edges"]:
        outdeg[e["tail"]] = outdeg.get(e["tail"], 0) + 1
        indeg[e["head"]] = indeg.get(e["head"], 0) + 1
    if kind == "path":
        require(max(list(indeg.values()) + list(outdeg.values()) + [0]) <= 1, "path realization is not a path")
    if kind == "dtm":
        require(all(len(out["subtrees"][s]) == 1 for s in names), "dtm realization subtree is not a vertex")


def check_splits(out, mu, names) -> None:
    require(out["recombines"] is True and out["compatible"] is True, "split flags")
    pos = {s: i for i, s in enumerate(names)}
    n = len(names)
    total = [[F0] * n for _ in range(n)]
    for term in out["terms"]:
        c = frac(term["coeff"])
        require(c >= 0, "negative split coefficient")
        for a in term["side_a"]:
            for b in term["side_b"]:
                total[pos[a]][pos[b]] += c
    require(total == mu, "splits do not recombine to the input")


# -- flows ----------------------------------------------------------------------


def check_path_flow(paths, net: gen.Network, mu, names) -> Fraction:
    """Path values are feasible; returns the mu-weighted total."""
    verts, caps, terminals = net
    pos = {s: i for i, s in enumerate(names)}
    load: Dict[Tuple[str, str], Fraction] = {}
    total = F0
    for item in paths:
        path, lam = item["path"], frac(item["value"])
        require(lam >= 0, "negative path value")
        require(len(set(path)) == len(path) >= 2, "path revisits a vertex")
        require(path[0] in pos and path[-1] in pos and path[0] != path[-1], "path does not join two terminals")
        for e in zip(path, path[1:]):
            require(e in caps, f"path uses a missing edge {e}")
            load[e] = load.get(e, F0) + lam
        total += lam * mu[pos[path[0]]][pos[path[-1]]]
    require(all(v <= caps[e] for e, v in load.items()), "flow exceeds a capacity")
    return total


def check_extension(obj, net: gen.Network, mu, names) -> Fraction:
    """A metric on the network agreeing with mu; returns its capacity objective."""
    verts, caps, _ = net
    d = matrix_of(obj, verts)
    require(gen.is_metric(d), "extension is not a directed metric")
    idx = {v: i for i, v in enumerate(verts)}
    for i, s in enumerate(names):
        for j, t in enumerate(names):
            require(d[idx[s]][idx[t]] == mu[i][j], "extension differs from mu on the terminals")
    return sum((c * d[idx[t]][idx[h]] for (t, h), c in caps.items()), F0)


def check_cycles(cycles, net: gen.Network) -> None:
    """The cycles add up to the capacity vector."""
    _, caps, _ = net
    used: Dict[Tuple[str, str], int] = {}
    for cyc in cycles:
        for e in zip(cyc, cyc[1:] + cyc[:1]):
            used[e] = used.get(e, 0) + 1
    require(used == caps, "cycle decomposition does not cover the capacities")
