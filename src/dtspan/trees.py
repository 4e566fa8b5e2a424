"""Oriented trees, subtree realizations, and split decompositions.

A realization carries an oriented tree with positive edge lengths and one
connected subgraph F_s per terminal; the realized distance between two
terminals is the shortest oriented tree distance from F_s to F_t, where
only forward edges on the unique underlying path contribute.  Evaluation
walks once out of each F_s.  F_s is connected, so the tree path from F_s to
any vertex v leaves F_s once, at the member x nearest v, and the path from
any other member runs through x; lengths are nonnegative, so that path is
the shortest, and the walk reaches v by exactly that path.  The entry
(s, t) is then the least length the walk carried to a vertex of F_t.

The constructive directions all run through the skeleton of a
one-dimensional complex: the tight span itself when its dimension is at
most one (the tree then collapses to a directed path), or the canonical
balanced section when the tropical rank is at most two (each F_s then
collapses to a directed path inside an oriented tree).  Directed tree
metrics get single-vertex subtrees.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Set, Tuple

from .complexes import PolyComplex, enumerate_section, enumerate_tight_span, skeleton_graph
from .errors import DomainError, certify
from .metrics import (
    DirectedDistance,
    _shown,
    as_fraction,
    check_directed_tree_metric,
    check_path_condition,
    check_tree_condition,
    distance_from_entries,
)

F0 = Fraction(0)
F1 = Fraction(1)

KINDS = ("directed_path", "path_subtrees", "singleton")


@dataclass(frozen=True)
class OrientedTree:
    """Directed graph whose underlying undirected graph is a tree.

    Arcs are (tail, head, length) with nonnegative rational lengths;
    realizations additionally insist on strictly positive lengths.
    """

    vertices: Tuple[str, ...]
    arcs: Tuple[Tuple[str, str, Fraction], ...]

    def __post_init__(self):
        if not self.vertices:
            raise DomainError("NotATree", "a tree needs at least one vertex")
        if len(set(self.vertices)) != len(self.vertices):
            raise DomainError("NotATree", "duplicate vertex name")
        vs = set(self.vertices)
        object.__setattr__(self, "arcs", tuple((tail, head, as_fraction(length)) for tail, head, length in self.arcs))
        for tail, head, length in self.arcs:
            if tail not in vs:
                raise DomainError("UnknownVertex", f"arc tail {_shown(tail)}")
            if head not in vs:
                raise DomainError("UnknownVertex", f"arc head {_shown(head)}")
            if tail == head:
                raise DomainError("NotATree", f"self-loop at {_shown(tail)}")
            if length < 0:
                raise DomainError("NegativeEntry", f"arc {_shown(tail)}->{_shown(head)} has negative length")
        if len(self.arcs) != len(self.vertices) - 1:
            raise DomainError("NotATree", "edge count must be vertex count minus one")
        # built once and kept in __dict__, outside the fields, so equality
        # and hashing ignore it; every walk reads it
        adj: Dict[str, List[Tuple[str, Fraction, bool]]] = {v: [] for v in self.vertices}
        for tail, head, length in self.arcs:
            adj[tail].append((head, length, True))
            adj[head].append((tail, length, False))
        self.__dict__["_adj"] = adj
        if _walk(self, self.vertices[:1], vs).keys() != vs:
            raise DomainError("NotATree", "underlying graph is disconnected")

    def path_steps(self, x: str, y: str) -> List[Tuple[Fraction, bool]]:
        """(length, traversed forward?) per edge along the unique x..y path."""
        vs = set(self.vertices)
        if x not in vs:
            raise DomainError("UnknownVertex", _shown(x))
        if y not in vs:
            raise DomainError("UnknownVertex", _shown(y))
        prev = _walk(self, (x,), vs)
        steps = []
        v = y
        while v != x:
            v, length, forward = prev[v]
            steps.append((length, forward))
        steps.reverse()
        return steps


def tree_distance(tree: OrientedTree, x: str, y: str) -> Fraction:
    """Sum of forward-oriented edge lengths on the unique path from x to y."""
    return sum((length for length, forward in tree.path_steps(x, y) if forward), F0)


def _walk(
    tree: OrientedTree, starts: Sequence[str], allowed: Set[str]
) -> Dict[str, Optional[Tuple[str, Fraction, bool]]]:
    """Depth-first search from the starts through the vertices in allowed.
    Maps each vertex reached to (previous vertex, length, traversed
    forward?) of the edge it was reached by, and each start to None.  A
    vertex comes after the vertex it was reached from."""
    adj = tree._adj
    prev: Dict[str, Optional[Tuple[str, Fraction, bool]]] = dict.fromkeys(starts)
    stack = list(starts)
    while stack:
        v = stack.pop()
        for w, length, forward in adj[v]:
            if w in allowed and w not in prev:
                prev[w] = (v, length, forward)
                stack.append(w)
    return prev


def is_directed_path(tree: OrientedTree) -> bool:
    """True when every vertex has at most one entering and one leaving arc."""
    return _induced_directed_path(tree, tree.vertices)


@dataclass(frozen=True)
class Realization:
    """Oriented tree plus a connected subgraph F_s per terminal."""

    tree: OrientedTree
    terminals: Tuple[str, ...]
    subtrees: Tuple[Tuple[str, ...], ...]

    def __post_init__(self):
        if len(self.terminals) != len(self.subtrees):
            raise DomainError("LengthMismatch", "one subtree per terminal required")
        if len(set(self.terminals)) != len(self.terminals):
            raise DomainError("DuplicateLabel", "terminal names must be distinct")
        for _, _, length in self.tree.arcs:
            if length <= 0:
                raise DomainError("NonpositiveLength", "realization edges need positive length")
        vs = set(self.tree.vertices)
        for s, sub in zip(self.terminals, self.subtrees):
            if not sub:
                raise DomainError("EmptySubtree", f"terminal {_shown(s)} has an empty subtree")
            for v in sub:
                if v not in vs:
                    raise DomainError("UnknownVertex", f"subtree of {_shown(s)} uses {_shown(v)}")
            inside = set(sub)
            if len(inside) != len(sub):
                raise DomainError("DuplicateLabel", f"subtree of {_shown(s)} repeats a vertex")
            if _walk(self.tree, sub[:1], inside).keys() != inside:
                raise DomainError("DisconnectedSubtree", f"subtree of {_shown(s)} is not connected")

    def subtree_of(self, s: str) -> Tuple[str, ...]:
        return self.subtrees[self.terminals.index(s)]


def _induced_directed_path(tree: OrientedTree, sub: Sequence[str]) -> bool:
    inside = set(sub)
    indeg = {v: 0 for v in sub}
    outdeg = {v: 0 for v in sub}
    for tail, head, _ in tree.arcs:
        if tail in inside and head in inside:
            outdeg[tail] += 1
            indeg[head] += 1
    return all(indeg[v] <= 1 and outdeg[v] <= 1 for v in sub)


def evaluate_realization(r: Realization) -> DirectedDistance:
    """Matrix of shortest oriented distances between subtree pairs: one walk
    out of each F_s carries the forward length along its parent links, and
    entry (s, t) is the least length over F_t.  The walk leaves F_s at the
    member nearest each vertex, which is exact (module docstring)."""
    everywhere = set(r.tree.vertices)
    entries = []
    for sub in r.subtrees:
        reach = dict.fromkeys(sub, F0)
        for v, step in _walk(r.tree, sub, everywhere).items():
            if step is not None:
                u, length, forward = step
                reach[v] = reach[u] + length if forward else reach[u]
        entries.append([min([reach[v] for v in other]) for other in r.subtrees])
    return distance_from_entries(entries, r.terminals)


# -- skeleton to realization ---------------------------------------------------


def _realization_from_complex(mu: DirectedDistance, comp: PolyComplex) -> Realization:
    skel = skeleton_graph(comp)
    names = tuple(f"v{i}" for i in range(len(skel.vertices)))
    arcs = tuple((names[i], names[j], length) for i, j, length in skel.arcs)
    tree = OrientedTree(names, arcs)
    subtrees = []
    for s in range(mu.n):
        member = tuple(
            names[i]
            for i, p in enumerate(skel.vertices)
            if p.col[s] == 0 and p.row[s] == 0
        )
        certify(bool(member), f"no skeleton vertex carries terminal {mu.labels[s]}")
        subtrees.append(member)
    return Realization(tree, mu.labels, tuple(subtrees))


def realize_path(mu: DirectedDistance) -> Realization:
    """Directed-path realization, from the skeleton of the tight span."""
    if not check_path_condition(mu)[0]:
        raise DomainError("DimensionTooHigh", "tight span dimension exceeds 1")
    r = _realization_from_complex(mu, enumerate_tight_span(mu))
    certify(is_directed_path(r.tree), "skeleton of a 1-dimensional tight span must be a directed path")
    return r


def realize_tree(mu: DirectedDistance) -> Realization:
    """Oriented-tree realization with directed-path subtrees, from the canonical section."""
    if not check_tree_condition(mu)[0]:
        raise DomainError("RankTooHigh", "tropical rank exceeds 2")
    r = _realization_from_complex(mu, enumerate_section(mu))
    for sub in r.subtrees:
        certify(_induced_directed_path(r.tree, sub), "terminal subtree must be a directed path")
    return r


def realize_directed_tree_metric(mu: DirectedDistance) -> Realization:
    """Single-vertex realization of a directed tree metric.

    For a directed tree metric every terminal's locus in the complex is a
    single point, so the section-skeleton construction lands on singleton
    subtrees on its own; that collapse is certified rather than arranged.
    """
    if not check_directed_tree_metric(mu):
        raise DomainError("NotDirectedTreeMetric", "directed tree metric conditions fail")
    r = _realization_from_complex(mu, enumerate_section(mu))
    for s, sub in zip(r.terminals, r.subtrees):
        certify(len(sub) == 1, f"terminal {_shown(s)} should occupy a single vertex")
    return r


# -- split decomposition -------------------------------------------------------


@dataclass(frozen=True)
class SplitTerm:
    """Weighted ordered bipartition (A, B) of the terminal set.

    Contributes coeff to mu(s, t) exactly when s lies in A and t in B.
    """

    side_a: Tuple[str, ...]
    side_b: Tuple[str, ...]
    coeff: Fraction

    def __post_init__(self):
        if not self.side_a or not self.side_b:
            raise DomainError("EmptySplitSide", "both sides of a split must be nonempty")
        if set(self.side_a) & set(self.side_b):
            raise DomainError("DuplicateLabel", "split sides must be disjoint")
        object.__setattr__(self, "coeff", as_fraction(self.coeff))
        if self.coeff < 0:
            raise DomainError("NegativeEntry", "split coefficient must be nonnegative")

    def value(self, s: str, t: str) -> Fraction:
        return self.coeff if s in self.side_a and t in self.side_b else F0


def split_decomposition(r: Realization) -> List[SplitTerm]:
    """One split per tree edge: tail-side terminals versus head-side terminals.

    Edges with all terminals on one side contribute nothing and are dropped.
    """
    for s, sub in zip(r.terminals, r.subtrees):
        if len(sub) != 1:
            raise DomainError("NonSingletonSubtrees", f"terminal {_shown(s)} occupies {len(sub)} vertices")
    at = {s: sub[0] for s, sub in zip(r.terminals, r.subtrees)}
    terms = []
    for tail, head, length in r.tree.arcs:
        tail_side = _walk(r.tree, (tail,), set(r.tree.vertices) - {head})
        side_a = tuple(s for s in r.terminals if at[s] in tail_side)
        side_b = tuple(s for s in r.terminals if at[s] not in tail_side)
        if side_a and side_b:
            terms.append(SplitTerm(side_a, side_b, length))
    return terms


def recombine_splits(terms: Sequence[SplitTerm], labels: Sequence[str]) -> DirectedDistance:
    """Sum of the weighted split distances, as a directed distance matrix."""
    n = len(labels)
    entries = [
        [sum((term.value(labels[i], labels[j]) for term in terms), F0) for j in range(n)]
        for i in range(n)
    ]
    return distance_from_entries(entries, labels)


def splits_pairwise_compatible(terms: Sequence[SplitTerm]) -> bool:
    """Each two (unordered) splits must have one of the four corners empty."""
    for i in range(len(terms)):
        for j in range(i + 1, len(terms)):
            a1, b1 = set(terms[i].side_a), set(terms[i].side_b)
            a2, b2 = set(terms[j].side_a), set(terms[j].side_b)
            if all((a1 & a2, a1 & b2, b1 & a2, b1 & b2)):
                return False
    return True


# -- seeded generator ----------------------------------------------------------


def random_realization(kind: str, n: int, seed: int) -> Realization:
    """Deterministic random realization of one of the three round-trip classes.

    directed_path: directed path, single-vertex subtrees.
    path_subtrees: directed path, interval subtrees.
    singleton:     arbitrary oriented tree, single-vertex subtrees.
    """
    if kind not in KINDS:
        raise DomainError("UsageError", f"kind must be one of {KINDS}")
    if n < 1:
        raise DomainError("UsageError", "need at least one terminal")
    rng = random.Random(f"{kind}/{n}/{seed}")
    terminals = tuple(f"s{i}" for i in range(n))
    names = tuple(f"u{i}" for i in range(n))

    def length() -> Fraction:
        return Fraction(rng.randint(1, 8), rng.randint(1, 4))

    if kind in ("directed_path", "path_subtrees"):
        arcs = tuple((names[i], names[i + 1], length()) for i in range(n - 1))
        tree = OrientedTree(names, arcs)
        if kind == "directed_path":
            subtrees = tuple((names[rng.randrange(n)],) for _ in range(n))
        else:
            subtrees = []
            for _ in range(n):
                lo = rng.randrange(n)
                hi = rng.randrange(lo, n)
                subtrees.append(tuple(names[lo : hi + 1]))
            subtrees = tuple(subtrees)
        return Realization(tree, terminals, subtrees)

    arcs = []
    for i in range(1, n):
        parent = names[rng.randrange(i)]
        if rng.random() < 0.5:
            arcs.append((parent, names[i], length()))
        else:
            arcs.append((names[i], parent, length()))
    tree = OrientedTree(names, tuple(arcs))
    subtrees = tuple((names[rng.randrange(n)],) for _ in range(n))
    return Realization(tree, terminals, subtrees)
