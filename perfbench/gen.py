"""Seeded input generators for the benchmark.

Everything here is written from the definitions alone and imports nothing
from the program or its tests, so a change to either cannot silently change
the inputs.  Rationals are ``fractions.Fraction``; the ``*_json`` functions
turn them into the canonical strings the program reads.
"""

from __future__ import annotations

import random
from fractions import Fraction
from typing import Dict, List, Sequence, Tuple

F0 = Fraction(0)

Matrix = List[List[Fraction]]


def labels(n: int, prefix: str = "s") -> List[str]:
    return [f"{prefix}{i}" for i in range(n)]


# -- distances -----------------------------------------------------------------


def random_distance(rng: random.Random, n: int, top: int = 6, zeros: float = 0.15, den: int = 3) -> Matrix:
    """Nonnegative matrix with zero diagonal; off-diagonal zeros allowed."""
    return [
        [
            F0 if i == j or rng.random() < zeros else Fraction(rng.randint(1, top), rng.randint(1, den))
            for j in range(n)
        ]
        for i in range(n)
    ]


def metric_closure(e: Matrix) -> Matrix:
    """Shortest-path closure; the result satisfies every triangle inequality."""
    n = len(e)
    d = [row[:] for row in e]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if d[i][k] + d[k][j] < d[i][j]:
                    d[i][j] = d[i][k] + d[k][j]
    return d


def random_metric(rng: random.Random, n: int, top: int = 6, zeros: float = 0.0, den: int = 3) -> Matrix:
    return metric_closure(random_distance(rng, n, top, zeros, den))


def is_metric(e: Matrix) -> bool:
    n = len(e)
    return all(
        e[x][y] + e[y][z] >= e[x][z] for x in range(n) for y in range(n) for z in range(n)
    )


# -- points of P and of the tight span -------------------------------------------

Point = Tuple[List[Fraction], List[Fraction]]


def random_p_point(rng: random.Random, mu: Matrix, top: int = 4) -> Point:
    """Free nonnegative columns; rows lifted above every coupling plus slack."""
    n = len(mu)
    col = [Fraction(rng.randint(0, top), rng.randint(1, 2)) for _ in range(n)]
    row = [
        max(max(mu[s][t] - col[s] for s in range(n)), F0)
        + Fraction(rng.randint(0, top), rng.randint(1, 2))
        for t in range(n)
    ]
    return col, row


def lower_to_tight_span(mu: Matrix, p: Point) -> Point:
    """Lower every column, then every row, to the least feasible value.

    Each positive column is then tight against some row.  Lowering a row
    never goes below a value that a tight column pair needs, so those pairs
    stay tight, and every positive row ends tight too: the result is a
    minimal point of P, that is, a point of the tight span.
    """
    n = len(mu)
    row = list(p[1])
    col = [max(max(mu[s][t] - row[t] for t in range(n)), F0) for s in range(n)]
    row = [max(max(mu[s][t] - col[s] for s in range(n)), F0) for t in range(n)]
    return col, row


# -- oriented-tree realizations ----------------------------------------------------


class Realization:
    """Oriented tree with positive arc lengths and one subtree per terminal."""

    def __init__(self, vertices, arcs, terminals, subtrees):
        self.vertices: List[str] = vertices
        self.arcs: List[Tuple[str, str, Fraction]] = arcs
        self.terminals: List[str] = terminals
        self.subtrees: List[List[str]] = subtrees

    def distances(self) -> Matrix:
        return realization_distances(self.vertices, self.arcs, self.subtrees)


def random_realization(rng: random.Random, kind: str, n: int) -> Realization:
    """directed_path: a directed path, one vertex per terminal.
    path_subtrees: a directed path, one interval per terminal.
    singleton: any oriented tree, one vertex per terminal."""
    names = labels(n, "u")

    def length() -> Fraction:
        return Fraction(rng.randint(1, 8), rng.randint(1, 4))

    if kind == "singleton":
        arcs = []
        for i in range(1, n):
            parent = names[rng.randrange(i)]
            if rng.random() < 0.5:
                arcs.append((parent, names[i], length()))
            else:
                arcs.append((names[i], parent, length()))
    else:
        arcs = [(names[i], names[i + 1], length()) for i in range(n - 1)]
    if kind == "path_subtrees":
        subtrees = []
        for _ in range(n):
            lo = rng.randrange(n)
            hi = rng.randrange(lo, n)
            subtrees.append(names[lo : hi + 1])
    else:
        subtrees = [[names[rng.randrange(n)]] for _ in range(n)]
    return Realization(names, arcs, labels(n), subtrees)


def tree_distances(vertices: Sequence[str], arcs) -> Dict[str, Dict[str, Fraction]]:
    """All-pairs oriented distance: forward arc lengths on the unique path."""
    adj: Dict[str, List[Tuple[str, Fraction]]] = {v: [] for v in vertices}
    for tail, head, w in arcs:
        adj[tail].append((head, w))
        adj[head].append((tail, F0))
    out = {}
    for x in vertices:
        dist = {x: F0}
        stack = [x]
        while stack:
            v = stack.pop()
            for w, step in adj[v]:
                if w not in dist:
                    dist[w] = dist[v] + step
                    stack.append(w)
        out[x] = dist
    return out


def realization_distances(vertices, arcs, subtrees) -> Matrix:
    """Shortest oriented tree distance between each ordered pair of subtrees."""
    d = tree_distances(vertices, arcs)
    k = len(subtrees)
    return [
        [F0 if i == j else min(d[x][y] for x in subtrees[i] for y in subtrees[j]) for j in range(k)]
        for i in range(k)
    ]


# -- networks --------------------------------------------------------------------

Network = Tuple[List[str], Dict[Tuple[str, str], int], List[str]]


def random_network(rng: random.Random, nv: int, nterm: int, edge_prob: float, maxcap: int = 3) -> Network:
    verts = labels(nv, "v")
    caps = {
        (t, h): rng.randint(1, maxcap)
        for t in verts
        for h in verts
        if t != h and rng.random() < edge_prob
    }
    return verts, caps, sorted(rng.sample(verts, nterm))


def random_eulerian_network(rng: random.Random, nv: int, nterm: int, ncycles: int = 3) -> Network:
    """A sum of directed cycles, so every vertex is capacity-balanced."""
    verts = labels(nv, "v")
    caps: Dict[Tuple[str, str], int] = {}
    for _ in range(ncycles):
        cyc = rng.sample(verts, rng.randint(2, nv))
        mult = rng.randint(1, 2)
        for a, b in zip(cyc, cyc[1:] + cyc[:1]):
            caps[(a, b)] = caps.get((a, b), 0) + mult
    return verts, caps, sorted(rng.sample(verts, nterm))


def count_s_paths(net: Network) -> int:
    """Vertex-simple directed paths joining two distinct terminals."""
    verts, caps, terminals = net
    out: Dict[str, List[str]] = {v: [] for v in verts}
    for t, h in caps:
        out[t].append(h)
    terms = set(terminals)

    def walk(start: str, here: str, used: set) -> int:
        found = 0
        for nxt in out[here]:
            if nxt not in used:
                found += nxt in terms and nxt != start
                used.add(nxt)
                found += walk(start, nxt, used)
                used.discard(nxt)
        return found

    return sum(walk(s, s, {s}) for s in terms)


# -- JSON -----------------------------------------------------------------------


def distance_json(mu: Matrix, names: Sequence[str]) -> dict:
    return {"labels": list(names), "matrix": [[str(v) for v in row] for row in mu]}


def point_json(p: Point, names: Sequence[str]) -> dict:
    col, row = p
    return {
        "col": {s: str(v) for s, v in zip(names, col)},
        "row": {s: str(v) for s, v in zip(names, row)},
    }


def network_json(net: Network) -> dict:
    verts, caps, terminals = net
    return {
        "vertices": list(verts),
        "edges": [{"tail": t, "head": h, "cap": c} for (t, h), c in sorted(caps.items())],
        "terminals": list(terminals),
    }


def realization_json(r: Realization) -> dict:
    return {
        "vertices": list(r.vertices),
        "edges": [{"tail": t, "head": h, "length": str(w)} for t, h, w in r.arcs],
        "terminals": list(r.terminals),
        "subtrees": {s: list(sub) for s, sub in zip(r.terminals, r.subtrees)},
    }
