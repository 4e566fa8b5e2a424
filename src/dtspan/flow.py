"""Multiflow maximization and its metric-extension dual, exactly.

The primal packs flow onto directed paths between distinct terminals,
weighted by the terminal distance; the dual minimizes the capacity-weighted
total length of a directed metric on the whole vertex set that extends the
terminal distance.  The primal is solved as an exact path LP.  The dual
optimum is built from that LP's optimal duals, one length per edge: the
shortest-path metric under those lengths plus the terminal distance.  Weak
duality certifies it: the result must be a metric, agree with the terminal
distance, and cost exactly the maximum.  The verification routines
additionally realize the dual optimum inside the tight span (tight
extensions) or inside the tropical polytope's balanced section (cyclically
tight extensions, Eulerian networks).
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import DomainError, certify
from .geometry import (
    ExtPoint,
    Fiber,
    _known,
    canonical_points,
    canonical_section_membership,
    dinf,
    in_qplus,
    in_tight_span,
    is_balanced,
    retract_to_qplus,
    retract_to_section,
    retract_to_tight_span,
)
from .lp import LinearProgram, solve
from .metrics import DirectedDistance, _shown, cycle_length, distance_from_entries, is_metric, scaled_entries

F0 = Fraction(0)

PATH_ENUM_CAP = 10


@dataclass(frozen=True)
class Network:
    """Directed network with integer capacities and a terminal set.

    Parallel edges are merged by summing their capacities at construction;
    self-loops are rejected.
    """

    vertices: Tuple[str, ...]
    edges: Tuple[Tuple[str, str, int], ...]
    terminals: Tuple[str, ...]

    def __post_init__(self):
        if len(set(self.vertices)) != len(self.vertices):
            raise DomainError("InvalidNetwork", "duplicate vertex name")
        vs = set(self.vertices)
        seen = set()
        for tail, head, cap in self.edges:
            if tail not in vs or head not in vs:
                raise DomainError("InvalidNetwork", f"edge {_shown(tail)}->{_shown(head)} uses unknown vertex")
            if tail == head:
                raise DomainError("InvalidNetwork", f"self-loop at {_shown(tail)}")
            _check_capacity(cap)
            if (tail, head) in seen:
                raise DomainError("InvalidNetwork", f"unmerged parallel edge {_shown(tail)}->{_shown(head)}")
            seen.add((tail, head))
        if len(self.terminals) < 2:
            raise DomainError("InvalidNetwork", "need at least two terminals")
        if len(set(self.terminals)) != len(self.terminals):
            raise DomainError("InvalidNetwork", "duplicate terminal")
        for s in self.terminals:
            if s not in vs:
                raise DomainError("InvalidNetwork", f"terminal {_shown(s)} is not a vertex")


def _check_capacity(cap) -> None:
    # a bool is an int to Python, but True is no capacity
    if isinstance(cap, bool) or not isinstance(cap, int) or cap < 0:
        raise DomainError("InvalidNetwork", "capacities must be nonnegative integers")


def network(vertices, edges, terminals) -> Network:
    """Build a network, merging parallel edges by capacity sum."""
    merged: Dict[Tuple[str, str], int] = {}  # in first-seen order
    for tail, head, cap in edges:
        _check_capacity(cap)
        merged[(tail, head)] = merged.get((tail, head), 0) + cap
    return Network(tuple(vertices), tuple((t, h, cap) for (t, h), cap in merged.items()), tuple(terminals))


@dataclass(frozen=True)
class Multiflow:
    """Path flow: one nonnegative value per S-path."""

    paths: Tuple[Tuple[str, ...], ...]
    values: Tuple[Fraction, ...]

    def respects_capacities(self, net: Network) -> bool:
        load: Dict[Tuple[str, str], Fraction] = {}
        for path, lam in zip(self.paths, self.values):
            if lam < 0:
                return False
            for a, b in zip(path, path[1:]):
                load[(a, b)] = load.get((a, b), F0) + lam
        return all(load.get((t, h), F0) <= c for t, h, c in net.edges)


def enumerate_s_paths(net: Network) -> List[Tuple[str, ...]]:
    """All vertex-simple directed paths joining two distinct terminals.

    Intermediate vertices may be terminals; a path just may not revisit
    a vertex.
    """
    if len(net.vertices) > PATH_ENUM_CAP:
        raise DomainError("NetworkTooLarge", f"|V|={len(net.vertices)} exceeds cap {PATH_ENUM_CAP}")
    out: Dict[str, List[str]] = {v: [] for v in net.vertices}
    for tail, head, _ in net.edges:
        out[tail].append(head)
    for v in out:
        out[v].sort()
    terminals = set(net.terminals)
    paths: List[Tuple[str, ...]] = []
    # depth first over simple prefixes; an explicit stack rather than a
    # recursive closure, which would be a reference cycle holding every path
    # until the next full garbage collection
    for s in terminals:
        stack = [(s,)]
        while stack:
            prefix = stack.pop()
            for nxt in out[prefix[-1]]:
                if nxt in prefix:
                    continue
                path = prefix + (nxt,)
                if nxt in terminals and nxt != s:
                    paths.append(path)
                stack.append(path)
    paths.sort()
    return paths


def _require_terminal_match(net: Network, mu: DirectedDistance) -> None:
    if set(net.terminals) != set(mu.labels):
        raise DomainError("GroundSetMismatch", "network terminals must carry the distance labels")


def _path_lp(net: Network, mu: DirectedDistance) -> Tuple[Fraction, Multiflow, Tuple[Fraction, ...]]:
    """Solve the path LP once: its value, an optimal flow, and the optimal
    duals of the capacity rows, read as edge lengths in ``net.edges`` order."""
    paths = enumerate_s_paths(net)
    if not paths:
        return F0, Multiflow((), ()), (F0,) * len(net.edges)
    # one row per edge, one column per path: int 1 where the path steps along the edge
    row_of = {(tail, head): i for i, (tail, head, _) in enumerate(net.edges)}
    rows = [[0] * len(paths) for _ in net.edges]
    for j, path in enumerate(paths):
        for step in zip(path, path[1:]):
            rows[row_of[step]][j] = 1
    # tuples from lists, not from generators: CPython grows the latter by
    # resizing, which over many solves parks memory in its tuple free lists
    objective = tuple([mu.value(path[0], path[-1]) for path in paths])
    rhs = tuple([c for _, _, c in net.edges])
    sol = solve(LinearProgram(objective, tuple([tuple(row) for row in rows]), rhs))
    certify(sol.status == "optimal", "path LP is feasible (zero flow) and capacity-bounded")
    kept = [(path, lam) for path, lam in zip(paths, sol.x) if lam > 0]
    flow = Multiflow(tuple([p for p, _ in kept]), tuple([l for _, l in kept]))
    certify(flow.respects_capacities(net), "path LP flow exceeds a capacity")
    return sol.value, flow, sol.duals


def max_multiflow(net: Network, mu: DirectedDistance) -> Tuple[Fraction, Multiflow]:
    """Maximize the mu-weighted total flow over all S-path packings."""
    _require_terminal_match(net, mu)
    value, flow, _ = _path_lp(net, mu)
    return value, flow


@dataclass(frozen=True)
class MetricExtension:
    """Directed metric on the network vertices agreeing with mu on terminals."""

    mu: DirectedDistance
    d: DirectedDistance

    def __post_init__(self):
        if not set(self.mu.labels) <= set(self.d.labels):
            raise DomainError("NotAnExtension", "extension must cover all terminals")
        if not is_metric(self.d):
            raise DomainError("NotAnExtension", "extension must be a directed metric")
        for s in self.mu.labels:
            for t in self.mu.labels:
                if self.d.value(s, t) != self.mu.value(s, t):
                    raise DomainError(
                        "NotAnExtension",
                        f"boundary value at ({_shown(s)},{_shown(t)}) differs from mu",
                    )

    def point_of(self, x: str) -> ExtPoint:
        """The canonical image d_x in the ambient coordinate space of mu,
        with its integer form over d's L."""
        index = self.d.ground.index_of
        i, idx = index(x), [index(s) for s in self.mu.labels]
        e, (scale, m) = self.d.entries, scaled_entries(self.d)
        p = ExtPoint(self.mu.ground, tuple([e[s][i] for s in idx]), tuple([e[i][t] for t in idx]))
        return _known(p, scale, [m[s][i] for s in idx], [m[i][t] for t in idx])


def _as_extension(mu: DirectedDistance, d: Union[MetricExtension, DirectedDistance]) -> MetricExtension:
    if isinstance(d, MetricExtension):
        if d.mu.labels != mu.labels or d.mu.entries != mu.entries:
            raise DomainError("NotAnExtension", "extension was built for a different distance")
        return d
    return MetricExtension(mu, d)


def _shortest_path_extension(
    net: Network, mu: DirectedDistance, lengths: Sequence[Fraction]
) -> DirectedDistance:
    """Shortest-path distances on the network vertices under the edge lengths,
    with one extra arc s -> t of length mu(s, t) per ordered terminal pair.

    Exact Floyd-Warshall; None stands for an unreachable pair until the end,
    when every such pair gets the largest finite distance, which keeps all
    triangle inequalities.
    """
    verts = net.vertices
    index = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    dist: List[List[Optional[Fraction]]] = [
        [F0 if i == j else None for j in range(n)] for i in range(n)
    ]

    def relax(i: int, j: int, length: Fraction) -> None:
        if dist[i][j] is None or length < dist[i][j]:
            dist[i][j] = length

    for (tail, head, _), y in zip(net.edges, lengths):
        relax(index[tail], index[head], y)
    for s in mu.labels:
        for t in mu.labels:
            if s != t:
                relax(index[s], index[t], mu.value(s, t))
    for k in range(n):
        for i in range(n):
            if dist[i][k] is None:
                continue
            for j in range(n):
                if dist[k][j] is not None:
                    relax(i, j, dist[i][k] + dist[k][j])
    top = max(v for row in dist for v in row if v is not None)
    return distance_from_entries([[top if v is None else v for v in row] for row in dist], verts)


def _certified_extension(
    net: Network, mu: DirectedDistance, max_val: Fraction, lengths: Sequence[Fraction]
) -> Tuple[Fraction, MetricExtension]:
    """The minimum side, built from the path LP's optimal edge lengths.

    Dual feasibility (every S-path is at least as long as mu between its
    ends) and mu's triangle inequality make the shortest-path distances agree
    with mu on the terminals, and each edge is no longer than its length, so
    the capacity objective is at most c . y = max.  Weak duality then makes
    both sides optimal.  The checks below re-prove all of it on the result.
    """
    d = _shortest_path_extension(net, mu, lengths)
    try:
        ext = MetricExtension(mu, d)
    except DomainError as err:
        raise DomainError(
            "InternalCertificate", f"path LP duals give no extension of mu: {err.message}"
        ) from None
    objective = network_objective(net, ext.d)
    certify(objective == max_val, "extension objective differs from the multiflow maximum")
    return objective, ext


def dual_metric_lp(net: Network, mu: DirectedDistance) -> Tuple[Fraction, MetricExtension]:
    """Minimize capacity-weighted total length over metric extensions of mu.

    The minimizer is built from the optimal duals of the path LP, not by a
    second LP, and is certified optimal by weak duality.
    """
    _require_terminal_match(net, mu)
    if not is_metric(mu):
        raise DomainError("NotAMetric", "the dual LP ranges over extensions of a metric")
    value, _, lengths = _path_lp(net, mu)
    return _certified_extension(net, mu, value, lengths)


def network_objective(net: Network, d: DirectedDistance) -> Fraction:
    return sum((Fraction(c) * d.value(tail, head) for tail, head, c in net.edges), F0)


# -- tightness ------------------------------------------------------------------


def is_tight_extension(mu: DirectedDistance, d) -> bool:
    """Does x -> d_x isometrically embed the extension into the tight span?"""
    ext = _as_extension(mu, d)
    points = {x: ext.point_of(x) for x in ext.d.labels}
    for p in points.values():
        if not in_tight_span(mu, p):
            return False
    for x in ext.d.labels:
        for y in ext.d.labels:
            if x != y and dinf(points[x], points[y]) != ext.d.value(x, y):
                return False
    return True


def tighten_extension(mu: DirectedDistance, d) -> MetricExtension:
    """Pull the extension onto the tight span in one certified sweep.

    The sweep maps x to the retraction of d_x and reads distances back; the
    result never exceeds the input anywhere, so the capacity objective never
    grows.  Terminals stay at mu_s, and for p in T, dinf(mu_s, p) = p(s^c)
    and dinf(p, mu_t) = p(t^r), so each retracted point is the image of x
    under the new extension, which is therefore tight.
    """
    ext = _as_extension(mu, d)
    labels = ext.d.labels
    points = [retract_to_tight_span(mu, ext.point_of(x)) for x in labels]
    entries = [
        [dinf(points[i], points[j]) if i != j else F0 for j in range(len(labels))]
        for i in range(len(labels))
    ]
    tight = MetricExtension(mu, distance_from_entries(entries, labels))
    certify(is_tight_extension(mu, tight), "tightened extension is not tight")
    return tight


def is_cyclically_tight_extension(mu: DirectedDistance, d) -> bool:
    """Tight, lands in the nonnegative tropical part, and is balanced."""
    ext = _as_extension(mu, d)
    if not is_tight_extension(mu, ext):
        return False
    points = [ext.point_of(x) for x in ext.d.labels]
    if not all(in_qplus(mu, p) for p in points):
        return False
    ok, _ = is_balanced(points)
    return ok


# -- Eulerian decomposition ------------------------------------------------------


def is_eulerian(net: Network) -> bool:
    balance: Dict[str, int] = {v: 0 for v in net.vertices}
    for tail, head, c in net.edges:
        balance[tail] += c
        balance[head] -= c
    return all(b == 0 for b in balance.values())


def eulerian_decompose(net: Network) -> Optional[List[Tuple[str, ...]]]:
    """Write the capacity vector as a sum of directed-cycle characteristic vectors.

    Returns None when some vertex is unbalanced.
    """
    if not is_eulerian(net):
        return None
    residual: Dict[Tuple[str, str], int] = {
        (tail, head): c for tail, head, c in net.edges if c > 0
    }
    cycles: List[Tuple[str, ...]] = []
    while residual:
        start = min(residual)[0]
        walk = [start]
        position = {start: 0}
        while True:
            here = walk[-1]
            nxt = min(h for (t, h) in residual if t == here)
            if nxt in position:
                cycle = tuple(walk[position[nxt]:])
                break
            position[nxt] = len(walk)
            walk.append(nxt)
        pivot = cycle.index(min(cycle))
        cycle = cycle[pivot:] + cycle[:pivot]
        step = min(residual[e] for e in _cycle_edges(cycle))
        for e in _cycle_edges(cycle):
            residual[e] -= step
            if residual[e] == 0:
                del residual[e]
        cycles.extend([cycle] * step)
    return cycles


def _cycle_edges(cycle: Tuple[str, ...]) -> List[Tuple[str, str]]:
    return [(cycle[i], cycle[(i + 1) % len(cycle)]) for i in range(len(cycle))]


# -- end-to-end verification -----------------------------------------------------


def verify_minmax(net: Network, mu: DirectedDistance, mode: str = "T") -> dict:
    """Check the exact min-max relation and realize the dual optimum geometrically.

    Mode T realizes the tightened dual optimum inside the tight span; mode Q
    requires an Eulerian network and realizes it inside the canonical balanced
    section, fiber-anchored at the terminals.
    """
    if mode not in ("T", "Q"):
        raise DomainError("UsageError", "mode must be T or Q")
    if not is_metric(mu):
        raise DomainError("NotAMetric", "verification assumes a directed metric")
    cycles = None
    if mode == "Q":
        cycles = eulerian_decompose(net)
        if cycles is None:
            raise DomainError("NotEulerian", "mode Q needs capacity-balanced vertices")

    _require_terminal_match(net, mu)
    max_val, flow, lengths = _path_lp(net, mu)
    min_val, ext = _certified_extension(net, mu, max_val, lengths)
    report = {
        "mode": mode,
        "max": max_val,
        "min": min_val,
        "equal": True,
        "flow_paths": [
            {"path": list(p), "value": lam} for p, lam in zip(flow.paths, flow.values)
        ],
        "extension": ext.d,
    }

    if mode == "T":
        tight = tighten_extension(mu, ext)
        tight_objective = network_objective(net, tight.d)
        certify(tight_objective == min_val, "tightening changed the objective")
        for s in mu.labels:
            certify(tight.point_of(s) == canonical_points(mu, s)[0], "terminals must map to mu_s")
        report["tight_objective"] = tight_objective
        report["tight_extension"] = tight.d
        return report

    total = sum((cycle_length(ext.d, cyc) for cyc in cycles), F0)
    certify(total == min_val, "cycle decomposition must cover the objective")
    rho = {}
    for x in ext.d.labels:
        p = retract_to_tight_span(mu, ext.point_of(x))
        p = retract_to_qplus(mu, p)
        rho[x] = retract_to_section(mu, p)
    certify(
        all(canonical_section_membership(mu, p) for p in rho.values()),
        "retraction left the canonical section",
    )
    ok, _ = is_balanced(list(rho.values()))
    certify(ok, "a section-valued family must be balanced")
    for s in mu.labels:
        certify(Fiber(rho[s]) == Fiber(canonical_points(mu, s)[0]), "terminal fibers must anchor at mu_s")
    report["cycles"] = cycles
    report["cycle_total"] = total
    report["balanced"] = True
    return report
