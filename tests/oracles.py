"""Independent brute-force oracles and shared random generators.

Everything here trades time for obviousness: vertices come from solving
every square constraint subsystem, affine rank from plain Gaussian
elimination, the metric-extension minimum from the full triangle LP,
matching uniqueness from listing every matching (also inside the top-down
rank/dimension search), and the sextuple condition from all n**6 index
tuples.  None of it touches the double-description, matching, simplex or
dual-length code, so agreement between the two routes is meaningful
evidence.  Several routes are the library's former
implementations, kept as they were: ``zero_set_extreme_rays`` works in
Fractions and recomputes every zero set on every round, and
``witness_tight_span`` checks each candidate face at the average of its
vertices; comparing the library with them checks its integer arithmetic
and its bookkeeping of zero and binding sets as bitmasks.
``filtered_subcomplex`` is the library's former route to Q+ and the
canonical section: filter the faces of T with set tests on their tight
couplings and zero rows, then renumber the vertices the kept faces use,
where the library tests binding masks before any vertex or face is built;
``pairwise_maximal_faces`` compares every pair of faces, where the library
compares each face only with the faces after it.  ``unpruned_complex`` is
the library's former face assembly: it closes the kept vertices' masks
under every meet, filters the closure with the complex's test at the end,
orders the vertices by their Fraction keys and builds every field of a
face eagerly, where the library tests each new meet once, goes on only
from the kept ones, orders the vertices on their integer rays and reads a
face's fields off its mask.
``sweep_retract_to_tight_span`` and ``sweep_retract_to_qplus`` move one
``retract_ray`` step at a time (the library's former ray step); comparing
them with the closed-form retractions checks every step length.
``subset_order_sweep`` is the library's former Q+ sweep: it visits every
nonempty proper subset in (size, lex) order and skips the zero steps,
where the library steps on the zero-slack sets alone;
``fraction_retract_to_qplus`` runs it on Fractions.
``binding_mask`` recomputes a vertex's binding set from Fraction sums,
where the library reads it off double description's zero set;
``set_membership`` and ``set_tight_edges`` are the library's former
membership test and equality graph over sets (a feasibility scan, a
second scan for tight couplings, then the uncovered columns and rows as
sets), where the library reads one binding mask per point;
``set_components`` is the library's former component search over sets,
where it now searches 2n-bit adjacency masks; ``json_dumps`` is the
library's former writer, ``to_jsonable`` followed by CPython's
``json.dumps(indent=2)``, against which the one-pass writer is compared
byte for byte.  ``fraction_str_as_fraction`` is the library's former
rational parser: the same regex gate, then ``Fraction(str)``, which matches
the string against its own larger grammar again, where the library reads
the numerator and denominator as two ints.
``recomputed_pricing_solve`` is the library's former general two-phase
simplex (any row sense, any sign of right-hand side, max or min, over a
``GeneralProgram``) and recomputes every reduced cost on every iteration.
It solves the triangle LP, which therefore shares no code with the
library's packing simplex, and comparing it with ``solve`` on packing
programs checks that the all-slack start and the objective row kept in
the tableau price exactly as the recomputation does.
``hungarian_search_unique`` is the library's former rank/dimension
search: one integer Hungarian and one alternating-cycle test per minor,
and the witness's matching from ``max_matching``, where the library now
answers every minor from one memoized recursion; it calls the library's
Hungarian and cycle test, which the recursion does not use.
``fraction_is_metric``, ``fraction_path_condition`` and
``fraction_directed_tree_metric`` are the library's former scans over the
Fraction entries; comparing them with the scans over the integer matrix
L * mu checks the scaling.
``fraction_membership``, ``fraction_dinf``,
``fraction_retract_to_tight_span``, ``fraction_retract_to_qplus``,
``fraction_section_shift``, ``fraction_canonical_points``,
``fraction_geodesic_polyline`` and ``fraction_point_of`` are the library's
former point kernels, run on the Fraction fields; the library now runs
them on integer forms over one common denominator, so comparing the two
checks the scaling and the integer forms the library hands to the points
it builds.
``pairwise_evaluate_realization`` is the library's former evaluation of a
realization: the least forward length over every vertex pair of F_s x F_t,
one tree path per pair, where the library walks once out of each F_s.  Its
paths come from a recursive search over the arc list, so it shares no code
with the library's walk.  ``pointwise_recombine_splits`` is the library's
former recombination: every term's value at every entry, where the
library adds each term's coefficient to the block it covers.
"""

import json
import random
import re
from dataclasses import dataclass, replace
from fractions import Fraction
from itertools import combinations, permutations, product
from typing import Dict, FrozenSet, List, Optional, Sequence, Set, Tuple

from dtspan import (
    DirectedDistance,
    DomainError,
    ExtPoint,
    GroundSet,
    MatchingInstance,
    Membership,
    MetricExtension,
    classify_membership,
    distance_from_entries,
    equality_graph,
    evaluate_realization,
    in_tight_span,
    max_matching,
    point,
    random_realization,
    retract_to_qplus,
    retract_to_tight_span,
    validate_distance,
)
from dtspan import complexes
from dtspan.complexes import PolyComplex, _vertex, _vertex_rays
from dtspan.errors import certify
from dtspan.jsonio import distance_to_json, fraction_to_str, point_to_json
from dtspan.lp import OPTIMAL, UNBOUNDED, LPSolution
from dtspan.metrics import _shown, scaled_entries
from dtspan.rank import _has_alternating_cycle, _hungarian_max
from dtspan.geometry import _mask_edges, _sides, free_components
from dtspan.trees import KINDS

F0 = Fraction(0)
F1 = Fraction(1)


# -- exact linear algebra ------------------------------------------------------


def solve_square(a: Sequence[Sequence[Fraction]], b: Sequence[Fraction]) -> Optional[List[Fraction]]:
    """Solve a x = b by Gaussian elimination; None when singular."""
    n = len(a)
    m = [list(row) + [rhs] for row, rhs in zip(a, b)]
    for col in range(n):
        pivot = next((r for r in range(col, n) if m[r][col] != 0), None)
        if pivot is None:
            return None
        m[col], m[pivot] = m[pivot], m[col]
        inv = m[col][col]
        m[col] = [x / inv for x in m[col]]
        for r in range(n):
            if r != col and m[r][col] != 0:
                f = m[r][col]
                m[r] = [x - f * y for x, y in zip(m[r], m[col])]
    return [m[r][n] for r in range(n)]


def matrix_rank(rows: Sequence[Sequence[Fraction]]) -> int:
    m = [list(r) for r in rows]
    if not m:
        return 0
    rank = 0
    for c in range(len(m[0])):
        pivot = next((i for i in range(rank, len(m)) if m[i][c] != 0), None)
        if pivot is None:
            continue
        m[rank], m[pivot] = m[pivot], m[rank]
        inv = m[rank][c]
        m[rank] = [x / inv for x in m[rank]]
        for i in range(len(m)):
            if i != rank and m[i][c] != 0:
                f = m[i][c]
                m[i] = [x - f * y for x, y in zip(m[i], m[rank])]
        rank += 1
        if rank == len(m):
            break
    return rank


def affine_rank(points: Sequence[ExtPoint]) -> int:
    """Dimension of the affine hull of the given points."""
    if len(points) <= 1:
        return 0
    base = points[0].coords()
    return matrix_rank([
        tuple(a - b for a, b in zip(p.coords(), base)) for p in points[1:]
    ])


# -- vertex enumeration by basis subsystems --------------------------------------


def p_constraints(mu: DirectedDistance) -> List[Tuple[List[Fraction], Fraction]]:
    """All (row, rhs) pairs of P: nonnegativity then couplings, row . x >= rhs."""
    n = mu.n
    out = []
    for i in range(2 * n):
        row = [F0] * (2 * n)
        row[i] = F1
        out.append((row, F0))
    for s in range(n):
        for t in range(n):
            row = [F0] * (2 * n)
            row[s] = F1
            row[n + t] = F1
            out.append((row, mu.entries[s][t]))
    return out


def vertex_oracle(mu: DirectedDistance) -> List[ExtPoint]:
    """Vertices of P by solving every square subsystem.  Exponential in n."""
    cons = p_constraints(mu)
    dim = 2 * mu.n
    found = {}
    for subset in combinations(range(len(cons)), dim):
        x = solve_square([cons[i][0] for i in subset], [cons[i][1] for i in subset])
        if x is None:
            continue
        if all(sum(r * v for r, v in zip(row, x)) >= rhs for row, rhs in cons):
            found[tuple(x)] = None
    pts = [point(mu, x[: mu.n], x[mu.n :]) for x in found]
    pts.sort(key=lambda p: p.key())
    return pts


# -- double description and face assembly, the witness route ---------------------


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum(x * y for x, y in zip(a, b))


def _normalize_ray(r: Tuple[Fraction, ...]) -> Tuple[Fraction, ...]:
    for x in r:
        if x != 0:
            return tuple(y / x for y in r)
    raise DomainError("InternalCertificate", "zero ray")


def zero_set_extreme_rays(dim: int, rows: List[Tuple[Fraction, ...]]) -> List[Tuple[Fraction, ...]]:
    """Extreme rays of {x >= 0, rows . x >= 0} by double description that
    recomputes every ray's zero set against all processed constraints on
    every round."""
    rays: List[Tuple[Fraction, ...]] = []
    for i in range(dim):
        unit = [F0] * dim
        unit[i] = F1
        rays.append(tuple(unit))
    done: List[Tuple[Fraction, ...]] = []
    for i in range(dim):
        unit = [F0] * dim
        unit[i] = F1
        done.append(tuple(unit))

    def zero_set(r: Tuple[Fraction, ...]) -> FrozenSet[int]:
        return frozenset(k for k, row in enumerate(done) if _dot(row, r) == 0)

    for a in rows:
        vals = [_dot(a, r) for r in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        zer = [i for i, v in enumerate(vals) if v == 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        if not neg:
            done.append(a)
            continue
        zsets = [zero_set(r) for r in rays]
        keep = [rays[i] for i in pos + zer]
        new: List[Tuple[Fraction, ...]] = []
        for ip in pos:
            for ineg in neg:
                meet = zsets[ip] & zsets[ineg]
                adjacent = True
                for k, z in enumerate(zsets):
                    if k == ip or k == ineg:
                        continue
                    if meet <= z:
                        adjacent = False
                        break
                if not adjacent:
                    continue
                combo = tuple(
                    vals[ip] * rn - vals[ineg] * rp
                    for rp, rn in zip(rays[ip], rays[ineg])
                )
                new.append(_normalize_ray(combo))
        done.append(a)
        merged: Dict[Tuple[Fraction, ...], None] = {}
        for r in keep + new:
            merged.setdefault(r, None)
        rays = list(merged.keys())
    return rays


def zero_set_polyhedron_vertices(mu: DirectedDistance) -> List[ExtPoint]:
    """All vertices of P, via the homogenization cone in R^(2n+1)."""
    n = mu.n
    dim = 2 * n + 1
    rows = []
    for s in range(n):
        for t in range(n):
            row = [F0] * dim
            row[s] = F1
            row[n + t] = F1
            row[2 * n] = -mu.entries[s][t]
            rows.append(tuple(row))
    verts = []
    for r in zero_set_extreme_rays(dim, rows):
        if r[-1] != 0:
            scaled = tuple(x / r[-1] for x in r[:-1])
            verts.append(ExtPoint(mu.ground, scaled[:n], scaled[n:]))
    verts.sort(key=lambda p: p.key())
    return verts


def binding_mask(mu: DirectedDistance, p: ExtPoint) -> int:
    """Zero coordinates and tight couplings of p as a bitmask, from sums and
    comparisons of Fractions: zero column s is bit s, zero row t bit n + t,
    coupling (s, t) bit 2n + 1 + s*n + t."""
    n, e = mu.n, mu.entries
    b = 0
    for s, x in enumerate(p.col):
        if x == 0:
            b |= 1 << s
        for t, y in enumerate(p.row):
            if x + y == e[s][t]:
                b |= 1 << (2 * n + 1 + s * n + t)
    for t, y in enumerate(p.row):
        if y == 0:
            b |= 1 << (n + t)
    return b


def set_components(n: int, edges) -> List[Tuple[FrozenSet[int], FrozenSet[int]]]:
    """Connected components of the bipartite graph on columns and rows with
    the given (s, t) edges, by a stack search over sets, as (column set, row
    set); isolated vertices appear as singletons."""
    adj_c = {s: set() for s in range(n)}
    adj_r = {t: set() for t in range(n)}
    for s, t in edges:
        adj_c[s].add(t)
        adj_r[t].add(s)
    seen_c, seen_r = set(), set()
    comps = []
    for start in range(n):
        for side in ("c", "r"):
            if side == "c" and start in seen_c:
                continue
            if side == "r" and start in seen_r:
                continue
            cols, rows = set(), set()
            stack = [(side, start)]
            while stack:
                kind, v = stack.pop()
                if kind == "c":
                    if v in cols:
                        continue
                    cols.add(v)
                    seen_c.add(v)
                    stack.extend(("r", t) for t in adj_c[v])
                else:
                    if v in rows:
                        continue
                    rows.add(v)
                    seen_r.add(v)
                    stack.extend(("c", s) for s in adj_r[v])
            comps.append((frozenset(cols), frozenset(rows)))
    return comps


def set_free_components(n: int, edges, zero_cols, zero_rows):
    """The components of ``set_components`` touching no zero coordinate, as
    sorted (column tuple, row tuple) pairs in sorted order."""
    free = [
        (tuple(sorted(cols)), tuple(sorted(rows)))
        for cols, rows in set_components(n, edges)
        if cols.isdisjoint(zero_cols) and rows.isdisjoint(zero_rows)
    ]
    free.sort()
    return free


def _check_ground(mu: DirectedDistance, p: ExtPoint):
    if mu.ground != p.ground:
        raise DomainError("GroundSetMismatch", "point and distance ground sets differ")


def _in_pi(mu: DirectedDistance, p: ExtPoint) -> bool:
    n = mu.n
    return all(
        p.col[s] + p.row[t] >= mu.entries[s][t] for s in range(n) for t in range(n)
    )


def _nonneg(p: ExtPoint) -> bool:
    return all(x >= 0 for x in p.coords())


def set_tight_edges(mu: DirectedDistance, p: ExtPoint) -> FrozenSet[Tuple[int, int]]:
    n = mu.n
    return frozenset(
        (s, t)
        for s in range(n)
        for t in range(n)
        if p.col[s] + p.row[t] == mu.entries[s][t]
    )


def set_membership(mu: DirectedDistance, p: ExtPoint) -> Membership:
    """Where p sits relative to Pi, P, T, Q+, over sets: the couplings are
    scanned for feasibility and again for tightness, and the columns and
    rows no tight coupling covers are collected as sets."""
    _check_ground(mu, p)
    if not _in_pi(mu, p):
        return Membership.OUTSIDE
    edges = set_tight_edges(mu, p)
    iso_c = set(range(mu.n)) - {s for s, _ in edges}
    iso_r = set(range(mu.n)) - {t for _, t in edges}
    fully_covered = not iso_c and not iso_r
    if _nonneg(p):
        if fully_covered:
            return Membership.QPLUS
        if all(p.col[s] == 0 for s in iso_c) and all(p.row[t] == 0 for t in iso_r):
            return Membership.T_NOT_QPLUS
        return Membership.P_NOT_T
    if fully_covered:
        return Membership.Q_NOT_NONNEG
    return Membership.PI_ONLY


def _binding(mu: DirectedDistance, p: ExtPoint) -> FrozenSet:
    items = {("e",) + e for e in equality_graph(mu, p).edges}
    items.update(("zc", s) for s in range(mu.n) if p.col[s] == 0)
    items.update(("zr", t) for t in range(mu.n) if p.row[t] == 0)
    return frozenset(items)


def _average(ground, pts: Sequence[ExtPoint]) -> ExtPoint:
    m = Fraction(1, len(pts))
    col = tuple(sum((p.col[i] for p in pts), F0) * m for i in range(ground.n))
    row = tuple(sum((p.row[i] for p in pts), F0) * m for i in range(ground.n))
    return ExtPoint(ground, col, row)


def _is_minimal_in_p(mu: DirectedDistance, p: ExtPoint) -> bool:
    return classify_membership(mu, p) in (Membership.T_NOT_QPLUS, Membership.QPLUS)


def _face_from_witness(mu: DirectedDistance, ids: Tuple[int, ...], witness: ExtPoint):
    edges = tuple(sorted(equality_graph(mu, witness).edges))
    zc = tuple(s for s in range(mu.n) if witness.col[s] == 0)
    zr = tuple(t for t in range(mu.n) if witness.row[t] == 0)
    free = []
    for cols, rows in set_components(mu.n, edges):
        if any(witness.col[s] == 0 for s in cols) or any(witness.row[t] == 0 for t in rows):
            continue
        free.append((tuple(sorted(cols)), tuple(sorted(rows))))
    free.sort()
    return (ids, len(free), edges, zc, zr, tuple(free))


def witness_tight_span(mu: DirectedDistance):
    """Vertices and faces of T, each candidate face checked at the average
    of its vertices.  Faces are (vertex_ids, dim, edges, zero_cols,
    zero_rows, directions) tuples."""
    all_vertices = zero_set_polyhedron_vertices(mu)
    vertices = [p for p in all_vertices if _is_minimal_in_p(mu, p)]
    bindings = [_binding(mu, p) for p in vertices]

    candidates = set(bindings)
    frontier = set(bindings)
    while frontier:
        nxt = set()
        for b in frontier:
            for b2 in bindings:
                meet = b & b2
                if meet not in candidates:
                    nxt.add(meet)
        candidates |= nxt
        frontier = nxt

    faces = []
    seen = set()
    for b in candidates:
        ids = tuple(i for i, vb in enumerate(bindings) if vb >= b)
        if not ids or ids in seen:
            continue
        witness = _average(mu.ground, [vertices[i] for i in ids])
        if _binding(mu, witness) != b:
            continue
        if not _is_minimal_in_p(mu, witness):
            continue
        seen.add(ids)
        faces.append(_face_from_witness(mu, ids, witness))
    faces.sort(key=lambda f: (f[1], f[0]))
    return vertices, faces


def filtered_subcomplex(t: PolyComplex, which: str) -> PolyComplex:
    """Q+ ("Qplus") or the canonical section ("Section") cut out of the
    complex T by filtering its faces: keep those whose tight couplings touch
    every column and every row, and for the section also some zero row; then
    keep the vertices the kept faces use, renumbered in T's order."""
    n = len(t.ground_labels)
    keep = [
        f
        for f in t.faces
        if {s for s, _ in f.edges} == set(range(n))
        and {r for _, r in f.edges} == set(range(n))
        and (which == "Qplus" or f.zero_rows)
    ]
    used = sorted({i for f in keep for i in f.vertex_ids})
    renumber = {old: new for new, old in enumerate(used)}
    faces = tuple(replace(f, vertex_ids=tuple(renumber[i] for i in f.vertex_ids)) for f in keep)
    return PolyComplex(which, t.ground_labels, tuple(t.vertices[i] for i in used), faces)


def pairwise_maximal_faces(complex_: PolyComplex) -> List[int]:
    """Faces whose vertex set lies in no other face's, by comparing every
    pair of faces."""
    vs = [frozenset(f.vertex_ids) for f in complex_.faces]
    return [i for i, a in enumerate(vs) if not any(i != j and a < b for j, b in enumerate(vs))]


@dataclass(frozen=True)
class EagerFace:
    """A face with every field built when the face is."""

    vertex_ids: Tuple[int, ...]
    dim: int
    edges: Tuple[Tuple[int, int], ...]
    zero_cols: Tuple[int, ...]
    zero_rows: Tuple[int, ...]
    directions: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]


COMPLEX_TESTS = {"T": complexes._in_t, "Qplus": complexes._in_qplus, "Section": complexes._in_section}


def unpruned_complex(mu: DirectedDistance, which: str) -> PolyComplex:
    """T ("T"), Q+ ("Qplus") or the canonical section ("Section"): the kept
    vertices sorted by their Fraction keys, the full meet closure of their
    binding masks, then the masks that pass the complex's test, each built
    into an ``EagerFace``."""
    keep = COMPLEX_TESTS[which]
    n = mu.n
    scale, rays = _vertex_rays(mu)
    found = sorted(((_vertex(mu, scale, r), b) for r, b in rays if keep(n, b)), key=lambda pb: pb[0].key())
    vertices = [p for p, _ in found]
    bindings = [b for _, b in found]

    candidates = set(bindings)
    frontier = set(bindings)
    while frontier:
        nxt = set()
        for b in frontier:
            for b2 in bindings:
                meet = b & b2
                if meet not in candidates:
                    nxt.add(meet)
        candidates |= nxt
        frontier = nxt

    faces = []
    for b in candidates:
        if not keep(n, b):
            continue
        free = free_components(n, b)
        zc, zr = _sides(n, b)
        ids = tuple(i for i, vb in enumerate(bindings) if vb & b == b)
        faces.append(EagerFace(ids, len(free), _mask_edges(n, b), zc, zr, tuple(free)))
    faces.sort(key=lambda f: (f.dim, f.vertex_ids))
    return PolyComplex(which, mu.labels, tuple(vertices), tuple(faces))


# -- retractions by ray steps ------------------------------------------------------


def retract_ray(
    mu: DirectedDistance, p: ExtPoint, v: ExtPoint, amax: Optional[Fraction] = None
) -> ExtPoint:
    """Move from p along v as far as P allows, capped at amax.

    With amax None the direction must hit a constraint eventually, which is
    guaranteed when v has a negative component.
    """
    _check_ground(mu, p)
    if not (_in_pi(mu, p) and _nonneg(p)):
        raise DomainError("NotInP", "ray retraction starts from a point of P")
    bounds: List[Fraction] = []
    n = mu.n
    for i, (x, d) in enumerate(zip(p.coords(), v.coords())):
        if d < 0:
            bounds.append(x / -d)
    for s in range(n):
        for t in range(n):
            delta = v.col[s] + v.row[t]
            if delta < 0:
                slack = p.col[s] + p.row[t] - mu.entries[s][t]
                bounds.append(slack / -delta)
    if not bounds and amax is None:
        raise DomainError("UnboundedDirection", "direction never leaves P and no cap given")
    eps = min(bounds) if bounds else amax
    if amax is not None and amax < eps:
        eps = amax
    return p.add_scaled(v, eps)



def _unit(ground: GroundSet, side: str, index: int, sign: int) -> ExtPoint:
    n = ground.n
    col = [F0] * n
    row = [F0] * n
    if side == "c":
        col[index] = Fraction(sign)
    else:
        row[index] = Fraction(sign)
    return ExtPoint(ground, tuple(col), tuple(row))


def sweep_retract_to_tight_span(mu: DirectedDistance, p: ExtPoint) -> ExtPoint:
    """Nonexpansive retraction of P onto the tight span.

    For each element, last label first, drop the row coordinate as far as
    possible and then the column coordinate.  A coordinate stops at zero or
    when a coupling becomes tight; tight couplings never loosen again, so a
    single sweep lands in T.
    """
    _check_ground(mu, p)
    if not (_in_pi(mu, p) and _nonneg(p)):
        raise DomainError("NotInP", "retraction is defined on P")
    g = mu.ground
    for i in reversed(range(mu.n)):
        p = retract_ray(mu, p, _unit(g, "r", i, -1))
        p = retract_ray(mu, p, _unit(g, "c", i, -1))
    return p


def _proper_subsets(n: int) -> List[Tuple[int, ...]]:
    """Nonempty proper subsets of range(n), by cardinality then lexicographic,
    so that no subset precedes one of its supersets."""
    out = []
    for k in range(1, n):
        out.extend(combinations(range(n), k))
    return out


def _subset_direction(ground: GroundSet, subset: Tuple[int, ...], side: str) -> ExtPoint:
    n = ground.n
    inside = set(subset)
    one = Fraction(1)
    if side == "c":
        col = tuple(one if s in inside else F0 for s in range(n))
        row = tuple(Fraction(-1) for _ in range(n))
    else:
        col = tuple(Fraction(-1) for _ in range(n))
        row = tuple(one if t in inside else F0 for t in range(n))
    return ExtPoint(ground, col, row)


def sweep_retract_to_qplus(mu: DirectedDistance, p: ExtPoint) -> ExtPoint:
    """Cyclically nonexpansive retraction of the tight span onto Q+.

    Sweeps the column directions (+1 on a subset of columns, -1 on all rows)
    over all nonempty proper subsets in inclusion-compatible order, then the
    symmetric row directions.  Fixes Q+ pointwise.
    """
    _check_ground(mu, p)
    if not in_tight_span(mu, p):
        raise DomainError("NotInTightSpan", "retraction onto Q+ starts from the tight span")
    subsets = _proper_subsets(mu.n)
    for a in subsets:
        p = retract_ray(mu, p, _subset_direction(mu.ground, a, "c"))
    for a in subsets:
        p = retract_ray(mu, p, _subset_direction(mu.ground, a, "r"))
    return p


# -- the Fraction kernels ------------------------------------------------------------

# The library's former point kernels, run on the Fraction fields where the
# library now runs on integer forms over one common denominator.


def fraction_membership(mu: DirectedDistance, p: ExtPoint) -> Tuple[Membership, Optional[int]]:
    """Where p sits, with its binding mask (None outside Pi), from one pass
    over the couplings in Fractions."""
    _check_ground(mu, p)
    n = mu.n
    b, bit = 0, 1 << (2 * n + 1)
    for x, es in zip(p.col, mu.entries):
        for y, m in zip(p.row, es):
            v = x + y
            if v == m:
                b |= bit
            elif v < m:
                return Membership.OUTSIDE, None
            bit <<= 1
    for i, x in enumerate(p.coords()):
        if x == 0:
            b |= 1 << i
    tight, all_rows = b >> (2 * n + 1), (1 << n) - 1
    cols = rows = 0
    for s in range(n):
        covered = tight >> (s * n) & all_rows
        if covered:
            cols |= 1 << s
        rows |= covered
    uncovered = (cols | rows << n) ^ ((1 << (2 * n)) - 1)
    if _nonneg(p):
        if not uncovered:
            return Membership.QPLUS, b
        if not uncovered & ~b:
            return Membership.T_NOT_QPLUS, b
        return Membership.P_NOT_T, b
    return (Membership.PI_ONLY if uncovered else Membership.Q_NOT_NONNEG), b


_FRACTION_T = (Membership.T_NOT_QPLUS, Membership.QPLUS)


def fraction_dinf(p: ExtPoint, q: ExtPoint) -> Fraction:
    """Directed sup-distance: column increase from p to q, row increase back."""
    if p.ground != q.ground:
        raise DomainError("GroundSetMismatch", "points live over different ground sets")
    up = max(max(b - a for a, b in zip(p.col, q.col)), F0)
    back = max(max(b - a for a, b in zip(q.row, p.row)), F0)
    return max(up, back)


def fraction_canonical_points(mu: DirectedDistance, s) -> Tuple[ExtPoint, ExtPoint, ExtPoint]:
    i = mu.ground.index_of(s)
    n, e = mu.n, mu.entries
    col = tuple(e[t][i] for t in range(n))
    row = tuple(e[i][t] for t in range(n))
    in_row = tuple(max(e[u][t] - e[u][i] for u in range(n)) for t in range(n))
    out_col = tuple(max(e[t][u] - e[i][u] for u in range(n)) for t in range(n))
    g = mu.ground
    return ExtPoint(g, col, row), ExtPoint(g, col, in_row), ExtPoint(g, out_col, row)


def fraction_retract_to_tight_span(mu: DirectedDistance, p: ExtPoint) -> ExtPoint:
    """The closed-form sweep: for each element, last label first, row i drops
    to max(0, max_s mu(s, i) - col[s]) and then column i to
    max(0, max_t mu(i, t) - row[t])."""
    if fraction_membership(mu, p)[0] is Membership.OUTSIDE or not _nonneg(p):
        raise DomainError("NotInP", "retraction is defined on P")
    n, e = mu.n, mu.entries
    col, row = list(p.col), list(p.row)
    for i in reversed(range(n)):
        row[i] = max(F0, max(e[s][i] - col[s] for s in range(n)))
        col[i] = max(F0, max(e[i][t] - row[t] for t in range(n)))
    out = ExtPoint(p.ground, tuple(col), tuple(row))
    certify(fraction_membership(mu, out)[0] in _FRACTION_T, "retraction left the tight span")
    return out


def subset_order_sweep(up: List, down: List, slack: List) -> None:
    """The Q+ sweep over every nonempty proper subset of the up coordinates
    in ``_proper_subsets`` order, on ints or Fractions: each step moves +1 on
    the subset and -1 on every down coordinate, as long as the least down
    coordinate and the least slack outside the subset allow, and a zero
    step is skipped."""
    low = min(down)
    for a in _proper_subsets(len(up)):
        if low == 0:
            break
        step = min([low] + [slack[u] for u in range(len(up)) if u not in a])
        if step == 0:
            continue
        low -= step
        for u in range(len(up)):
            if u in a:
                up[u] += step
            else:
                slack[u] -= step
        for v in range(len(down)):
            down[v] -= step


def fraction_retract_to_qplus(mu: DirectedDistance, p: ExtPoint) -> ExtPoint:
    """The two subset sweeps, columns then rows, each step as long as the
    least down coordinate and the least slack outside the subset allow."""
    if fraction_membership(mu, p)[0] not in _FRACTION_T:
        raise DomainError("NotInTightSpan", "retraction onto Q+ starts from the tight span")
    n, e = mu.n, mu.entries
    col, row = list(p.col), list(p.row)
    subset_order_sweep(col, row, [min(col[s] + row[t] - e[s][t] for t in range(n)) for s in range(n)])
    subset_order_sweep(row, col, [min(col[s] + row[t] - e[s][t] for s in range(n)) for t in range(n)])
    out = ExtPoint(p.ground, tuple(col), tuple(row))
    certify(fraction_membership(mu, out)[0] is Membership.QPLUS, "retraction left Q+")
    return out


def fraction_section_shift(p: ExtPoint) -> ExtPoint:
    return p.fiber_shift(min(p.row))


def fraction_geodesic_polyline(mu: DirectedDistance, p: ExtPoint, q: ExtPoint, k: int) -> List[ExtPoint]:
    """Retract p + (i/k)(q - p), i = 0..k, into the tight span."""
    for x in (p, q):
        if fraction_membership(mu, x)[0] not in _FRACTION_T:
            raise DomainError("NotInTightSpan", "geodesics run between tight span points")
    diff = ExtPoint(
        p.ground,
        tuple(b - a for a, b in zip(p.col, q.col)),
        tuple(b - a for a, b in zip(p.row, q.row)),
    )
    return [fraction_retract_to_tight_span(mu, p.add_scaled(diff, Fraction(i, k))) for i in range(k + 1)]


def fraction_point_of(ext: MetricExtension, x: str) -> ExtPoint:
    col = tuple(ext.d.value(s, x) for s in ext.mu.labels)
    row = tuple(ext.d.value(x, t) for t in ext.mu.labels)
    return ExtPoint(ext.mu.ground, col, row)


# -- matchings and the tree condition --------------------------------------------

_PERM3 = tuple(permutations(range(3)))


def brute_force_unique(instance: MatchingInstance, mode: str = "MT") -> bool:
    """Enumerate every matching.  Exponential; keep k small."""
    k = instance.k
    w = instance.weights
    arrangements = []
    if mode == "MT":
        arrangements.append(((), ()))  # empty matching
        for size in range(1, k + 1):
            for rows in combinations(range(k), size):
                for cols in permutations(range(k), size):
                    arrangements.append((rows, cols))
    else:
        for cols in permutations(range(k)):
            arrangements.append((tuple(range(k)), cols))
    best = None
    count = 0
    for rows, cols in arrangements:
        val = sum(w[i][j] for i, j in zip(rows, cols))
        if best is None or val > best:
            best, count = val, 1
        elif val == best:
            count += 1
    return count == 1


def search_unique_top_down(mu: DirectedDistance, mode: str):
    """Largest k with a unique k x k minor, scanning k = n, n-1, ... down.

    Uniqueness by listing every matching.  A unique optimum of either mode
    is a perfect matching (with nonnegative weights, an unmatched row and
    column could be matched at no loss), so the witness's matching is the
    best permutation of the minor.
    """
    n = mu.n
    for k in range(n, 0, -1):
        for a in combinations(range(n), k):
            for b in combinations(range(n), k):
                inst = MatchingInstance.from_distance(mu, a, b)
                if brute_force_unique(inst, mode):
                    best = max(
                        permutations(range(k)),
                        key=lambda p: sum(inst.weights[i][p[i]] for i in range(k)),
                    )
                    return k, (a, b, tuple((a[i], b[best[i]]) for i in range(k)))
    return 0, None


def _unique(w: Sequence[Sequence], mode: str) -> bool:
    """Whether the optimum of the given mode on the square matrix w is
    attained exactly once (see ``is_unique_optimum``)."""
    row_to_col, u, v = _hungarian_max(w)
    k = len(w)
    if mode == "MT" and any(w[i][row_to_col[i]] == 0 for i in range(k)):
        return False
    tight = [[u[i] + v[j] == w[i][j] for j in range(k)] for i in range(k)]
    return not _has_alternating_cycle(tight, row_to_col)


def _first_unique_minor(
    m: Sequence[Sequence[int]], k: int, mode: str
) -> Optional[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """(rows, cols) of the first k x k minor of m, in lexicographic order,
    with a unique optimum."""
    subsets = list(combinations(range(len(m)), k))
    for a in subsets:
        rows = [m[i] for i in a]
        for b in subsets:
            if _unique([[r[j] for j in b] for r in rows], mode):
                return a, b
    return None


def hungarian_search_unique(mu: DirectedDistance, mode: str):
    """Largest k with a unique k x k minor, bottom-up, one integer Hungarian
    and one alternating-cycle search per minor; the witness's matching
    comes from ``max_matching`` on the Fraction minor."""
    _, m = scaled_entries(mu)
    found = None
    for k in range(1, mu.n + 1):
        minor = _first_unique_minor(m, k, mode)
        if minor is None:
            break
        found = minor
    if found is None:
        return 0, None
    inst = MatchingInstance.from_distance(mu, *found)
    _, pairs = max_matching(inst, mode="PMT")
    return inst.k, (inst.rows, inst.cols, tuple(pairs))


def fraction_is_metric(mu: DirectedDistance) -> bool:
    """All ordered triangle inequalities mu(x,y) + mu(y,z) >= mu(x,z)."""
    n, e = mu.n, mu.entries
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if e[x][y] + e[y][z] < e[x][z]:
                    return False
    return True


def fraction_path_condition(mu: DirectedDistance) -> Tuple[bool, Optional[Tuple[int, int, int, int]]]:
    """Quadruple condition equivalent to the tight span being at most a segment.

    For every (s,t,u,v), with repeats allowed:
        mu(s,u) + mu(t,v) <= max{mu(s,v) + mu(t,u), mu(s,u), mu(s,v), mu(t,u), mu(t,v)}
    Returns (True, None) or (False, first violating quadruple).
    """
    e = mu.entries
    for s, t, u, v in product(range(mu.n), repeat=4):
        lhs = e[s][u] + e[t][v]
        rhs = max(e[s][v] + e[t][u], e[s][u], e[s][v], e[t][u], e[t][v])
        if lhs > rhs:
            return False, (s, t, u, v)
    return True, None


def fraction_directed_tree_metric(mu: DirectedDistance) -> bool:
    """Test whether a directed metric is a directed tree metric.

    Two parts, both necessary and together sufficient:
    (i)  the symmetrization mu + mu^T satisfies the four-point condition;
    (ii) for every triple, both cyclic orders have the same total length.
    """
    if not fraction_is_metric(mu):
        raise DomainError("NotAMetric", "directed tree metrics are defined for metrics only")
    n, e = mu.n, mu.entries
    sig = [[e[i][j] + e[j][i] for j in range(n)] for i in range(n)]
    for s, t, u, v in product(range(n), repeat=4):
        if sig[s][t] + sig[u][v] > max(sig[s][u] + sig[t][v], sig[s][v] + sig[t][u]):
            return False
    for x, y, z in product(range(n), repeat=3):
        if e[x][y] + e[y][z] + e[z][x] != e[z][y] + e[y][x] + e[x][z]:
            return False
    return True


def sextuple_scan(mu: DirectedDistance) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """The tree condition over all n**6 tuples, repeats included, in lex order."""
    e = mu.entries
    for x, y, z, u, v, w in product(range(mu.n), repeat=6):
        rows = (x, y, z)
        cols = (u, v, w)
        lhs = e[x][u] + e[y][v] + e[z][w]
        best = max(
            e[rows[0]][cols[p[0]]] + e[rows[1]][cols[p[1]]] + e[rows[2]][cols[p[2]]]
            for p in _PERM3[1:]
        )
        if lhs > best:
            return False, (x, y, z, u, v, w)
    return True, None


# -- realizations, one tree path per vertex pair -------------------------------------


def _forward_length(arcs, x: str, y: str) -> Fraction:
    """Sum of the forward arc lengths on the unique x..y path, searched
    recursively over the arc list."""

    def search(v: str, came_from: Optional[str]) -> Optional[Fraction]:
        if v == y:
            return F0
        for tail, head, length in arcs:
            if v not in (tail, head) or came_from in (tail, head):
                continue
            forward = tail == v
            rest = search(head if forward else tail, v)
            if rest is not None:
                return rest + length if forward else rest
        return None

    return search(x, None)


def pairwise_evaluate_realization(r) -> DirectedDistance:
    """The library's former ``evaluate_realization``: entry (s, t) is the
    least forward length over the vertex pairs of F_s x F_t."""
    k = len(r.terminals)
    entries = [
        [
            F0 if i == j else min(_forward_length(r.tree.arcs, x, y) for x in r.subtrees[i] for y in r.subtrees[j])
            for j in range(k)
        ]
        for i in range(k)
    ]
    return distance_from_entries(entries, r.terminals)


def pointwise_recombine_splits(terms, labels: Sequence[str]) -> DirectedDistance:
    """Sum of the weighted split distances, each entry summed over every
    term's value there."""
    n = len(labels)
    entries = [
        [sum((term.value(labels[i], labels[j]) for term in terms), F0) for j in range(n)]
        for i in range(n)
    ]
    return distance_from_entries(entries, labels)


# -- random generators -----------------------------------------------------------


def random_distance(rng, n: int, top: int = 6, zeros: float = 0.15, den: int = 3) -> DirectedDistance:
    """Entries p/q with p in 1..top and q in 1..den; den=1 gives integers."""
    entries = [
        [
            F0
            if i == j or rng.random() < zeros
            else Fraction(rng.randint(1, top), rng.randint(1, den))
            for j in range(n)
        ]
        for i in range(n)
    ]
    return validate_distance(entries)


def scan_cases(seed: int, count: int = 200):
    """Seeded distances on n = 1..5 for pinning a scan against its oracle.

    Four kinds in turn: integer entries in 0..3 (many ties), integer entries
    in 0..6, rational entries, and distances of random oriented-tree
    realizations (tropical rank at most two, so the tree condition holds).
    """
    rng = random.Random(seed)
    for i in range(count):
        n = rng.randint(1, 5)
        kind = i % 4
        if kind == 0:
            yield random_distance(rng, n, top=3, zeros=0.3, den=1)
        elif kind == 1:
            yield random_distance(rng, n, den=1)
        elif kind == 2:
            yield random_distance(rng, n)
        else:
            shape = rng.choice(KINDS)
            yield evaluate_realization(random_realization(shape, n, rng.randrange(10**6)))


def random_metric(rng, n: int, top: int = 6, zeros: float = 0.0, den: int = 3) -> DirectedDistance:
    """Shortest-path closure of a random distance, hence a directed metric."""
    e = [
        [
            F0
            if i == j or rng.random() < zeros
            else Fraction(rng.randint(1, top), rng.randint(1, den))
            for j in range(n)
        ]
        for i in range(n)
    ]
    for k in range(n):
        for i in range(n):
            for j in range(n):
                if e[i][k] + e[k][j] < e[i][j]:
                    e[i][j] = e[i][k] + e[k][j]
    return validate_distance(e)


def random_p_point(rng, mu: DirectedDistance, top: int = 4) -> ExtPoint:
    """Point of P: free columns, rows lifted above every coupling."""
    n = mu.n
    col = [Fraction(rng.randint(0, top), rng.randint(1, 2)) for _ in range(n)]
    row = []
    for t in range(n):
        base = max(max(mu.entries[s][t] - col[s] for s in range(n)), F0)
        row.append(base + Fraction(rng.randint(0, top), rng.randint(1, 2)))
    return point(mu, col, row)


def random_t_point(rng, mu: DirectedDistance) -> ExtPoint:
    return retract_to_tight_span(mu, random_p_point(rng, mu))


def random_qplus_point(rng, mu: DirectedDistance) -> ExtPoint:
    return retract_to_qplus(mu, random_t_point(rng, mu))


def random_q_point(rng, mu: DirectedDistance) -> ExtPoint:
    """Point of Q, shifted off the canonical section in either direction."""
    shift = Fraction(rng.randint(-6, 6), rng.randint(1, 2))
    return random_qplus_point(rng, mu).fiber_shift(shift)


def random_points_of_every_class(rng, mu: DirectedDistance) -> List[ExtPoint]:
    """Points of P, T, Q+ and Q from the generators above, each followed by
    two moves off it: a shift along the all-ones line that makes the first
    column negative (Pi, or Q, outside the orthant; couplings unchanged)
    and a column lowered past its loosest coupling (outside Pi)."""
    out = []
    for p in (
        random_p_point(rng, mu),
        random_t_point(rng, mu),
        random_qplus_point(rng, mu),
        random_q_point(rng, mu),
    ):
        s = rng.randrange(mu.n)
        slack = min(p.col[s] + p.row[t] - mu.entries[s][t] for t in range(mu.n))
        col = list(p.col)
        col[s] -= slack + Fraction(1, rng.randint(1, 3))
        out += [p, p.fiber_shift(-p.col[0] - 1), ExtPoint(mu.ground, tuple(col), p.row)]
    return out


# -- network generators ----------------------------------------------------------


def random_network(rng, nv: int, nterm: int, edge_prob: float = 0.6, maxcap: int = 3):
    """Random capacitated digraph with nterm of its vertices as terminals."""
    from dtspan import network

    verts = tuple(f"v{i}" for i in range(nv))
    edges = []
    for t in verts:
        for h in verts:
            if t != h and rng.random() < edge_prob:
                edges.append((t, h, rng.randint(1, maxcap)))
    return network(verts, edges, rng.sample(verts, nterm))


def random_eulerian_network(rng, nv: int, nterm: int, ncycles: int = 3):
    """Capacity-balanced by construction: a sum of directed cycles."""
    from dtspan import network

    verts = [f"v{i}" for i in range(nv)]
    edges = []
    for _ in range(ncycles):
        k = rng.randint(2, nv)
        cyc = rng.sample(verts, k)
        mult = rng.randint(1, 2)
        for i in range(k):
            edges.append((cyc[i], cyc[(i + 1) % k], mult))
    return network(verts, edges, rng.sample(verts, nterm))


# -- the metric-extension minimum as its own LP -----------------------------------


def triangle_metric_lp(net, mu: DirectedDistance) -> Tuple[Fraction, MetricExtension]:
    """Minimize capacity-weighted length over metric extensions of mu directly.

    One variable per ordered vertex pair, one row per ordered triangle, and
    equality rows pinning the terminal pairs to mu, solved by the two-phase
    ``recomputed_pricing_solve``.  It shares no code with the library,
    which builds the minimum from the path LP's duals instead.
    """
    verts = net.vertices
    pairs = [(x, y) for x in verts for y in verts if x != y]
    index = {pair: k for k, pair in enumerate(pairs)}
    nvar = len(pairs)

    objective = [F0] * nvar
    for tail, head, c in net.edges:
        objective[index[(tail, head)]] += Fraction(c)

    rows, senses, rhs = [], [], []
    for x in verts:
        for y in verts:
            for z in verts:
                if len({x, y, z}) < 3:
                    continue
                row = [F0] * nvar
                row[index[(x, y)]] += 1
                row[index[(y, z)]] += 1
                row[index[(x, z)]] -= 1
                rows.append(tuple(row))
                senses.append(">=")
                rhs.append(F0)
    for s in mu.labels:
        for t in mu.labels:
            if s == t:
                continue
            row = [F0] * nvar
            row[index[(s, t)]] = Fraction(1)
            rows.append(tuple(row))
            senses.append("==")
            rhs.append(mu.value(s, t))

    lp = GeneralProgram(tuple(objective), tuple(rows), tuple(senses), tuple(rhs), maximize=False)
    sol = recomputed_pricing_solve(lp)
    certify(sol.status == OPTIMAL, "the shortest-path extension makes the triangle LP feasible")
    entries = [
        [sol.x[index[(x, y)]] if x != y else F0 for y in verts]
        for x in verts
    ]
    ext = MetricExtension(mu, distance_from_entries(entries, verts))
    return sol.value, ext


# -- the two-phase simplex with recomputed pricing ---------------------------------

SENSES = ("<=", ">=", "==")
INFEASIBLE = "infeasible"


@dataclass(frozen=True)
class GeneralProgram:
    """Any sense per row, any sign of right-hand side, max or min."""

    objective: Tuple[Fraction, ...]
    rows: Tuple[Tuple[Fraction, ...], ...]
    senses: Tuple[str, ...]
    rhs: Tuple[Fraction, ...]
    maximize: bool = True

    def __post_init__(self):
        n = len(self.objective)
        if not (len(self.rows) == len(self.senses) == len(self.rhs)):
            raise DomainError("MalformedLP", "row, sense, and rhs counts differ")
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise DomainError("MalformedLP", f"row {i} has width {len(row)}, expected {n}")
        for s in self.senses:
            if s not in SENSES:
                raise DomainError("MalformedLP", f"unknown sense {s!r}")

    @property
    def nvars(self) -> int:
        return len(self.objective)


def general_certificate_ok(lp: GeneralProgram, sol: LPSolution) -> bool:
    """Full optimality certificate by direct substitution."""
    if sol.status != OPTIMAL or sol.x is None or sol.duals is None:
        return False
    x, y = sol.x, sol.duals
    if len(x) != lp.nvars or len(y) != len(lp.rows):
        return False
    if any(v < 0 for v in x):
        return False
    for row, sense, b in zip(lp.rows, lp.senses, lp.rhs):
        lhs = sum((a * v for a, v in zip(row, x) if a and v), F0)
        if sense == "<=" and lhs > b:
            return False
        if sense == ">=" and lhs < b:
            return False
        if sense == "==" and lhs != b:
            return False
    for yi, sense in zip(y, lp.senses):
        if sense == "==":
            continue
        want_nonneg = (sense == "<=") == lp.maximize
        if want_nonneg and yi < 0:
            return False
        if not want_nonneg and yi > 0:
            return False
    for j in range(lp.nvars):
        pulled = sum((yi * row[j] for yi, row in zip(y, lp.rows) if yi and row[j]), F0)
        if lp.maximize and pulled < lp.objective[j]:
            return False
        if not lp.maximize and pulled > lp.objective[j]:
            return False
    primal = sum((c * v for c, v in zip(lp.objective, x) if c and v), F0)
    dual = sum((b * yi for b, yi in zip(lp.rhs, y) if b and yi), F0)
    return primal == sol.value and primal == dual


def recomputed_pricing_solve(lp: GeneralProgram) -> LPSolution:
    """The library's former two-phase ``solve``: every reduced cost recomputed
    per iteration.  Duals follow the library's sign conventions: for a
    maximization A^T y >= c with y >= 0 on <= rows and y <= 0 on >= rows;
    for a minimization A^T y <= c with the signs mirrored; equality rows
    carry free duals.  Either way b . y equals the optimal objective."""
    intc = lp.objective if lp.maximize else tuple(-c for c in lp.objective)
    rows: List[Tuple[Fraction, ...]] = []
    senses: List[str] = []
    rhs: List[Fraction] = []
    flips: List[int] = []
    for row, sense, b in zip(lp.rows, lp.senses, lp.rhs):
        if b < 0:
            rows.append(tuple(-a for a in row))
            senses.append({"<=": ">=", ">=": "<=", "==": "=="}[sense])
            rhs.append(-b)
            flips.append(-1)
        else:
            rows.append(row)
            senses.append(sense)
            rhs.append(b)
            flips.append(1)

    m, n = len(rows), lp.nvars
    logical: List[int] = []
    artificial_of: dict = {}
    ncols = n
    for i in range(m):
        if senses[i] in ("<=", ">="):
            logical.append(ncols)
            ncols += 1
        else:
            logical.append(-1)
    for i in range(m):
        if senses[i] in (">=", "=="):
            artificial_of[i] = ncols
            ncols += 1

    tab = [[F0] * (ncols + 1) for _ in range(m)]
    basis: List[int] = []
    rowid: List[int] = list(range(m))
    for i in range(m):
        for j in range(n):
            tab[i][j] = rows[i][j]
        if senses[i] == "<=":
            tab[i][logical[i]] = F1
        elif senses[i] == ">=":
            tab[i][logical[i]] = -F1
        if i in artificial_of:
            tab[i][artificial_of[i]] = F1
        tab[i][ncols] = rhs[i]
        basis.append(logical[i] if senses[i] == "<=" else artificial_of[i])
    art_cols: Set[int] = set(artificial_of.values())
    enterable = [j for j in range(ncols) if j not in art_cols]

    def pivot(r: int, c: int) -> None:
        piv = tab[r][c]
        tab[r] = [v / piv for v in tab[r]]
        for i in range(len(tab)):
            if i != r and tab[i][c] != 0:
                f = tab[i][c]
                tab[i] = [a - f * b for a, b in zip(tab[i], tab[r])]
        basis[r] = c

    def reduced(cost: Sequence[Fraction], j: int) -> Fraction:
        z = sum(cost[basis[i]] * tab[i][j] for i in range(len(tab)))
        return z - cost[j]

    def run(cost: Sequence[Fraction]) -> str:
        while True:
            enter = -1
            for j in enterable:
                if reduced(cost, j) < 0:
                    enter = j
                    break
            if enter < 0:
                return OPTIMAL
            leave, best = -1, None
            for i in range(len(tab)):
                if tab[i][enter] > 0:
                    ratio = tab[i][-1] / tab[i][enter]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best, leave = ratio, i
            if leave < 0:
                return UNBOUNDED
            pivot(leave, enter)

    if art_cols:
        cost1 = [F0] * ncols
        for c in art_cols:
            cost1[c] = -F1
        status1 = run(cost1)
        certify(status1 == OPTIMAL, "phase 1 is bounded by construction")
        if sum(cost1[basis[i]] * tab[i][-1] for i in range(len(tab))) != 0:
            return LPSolution(INFEASIBLE)
        for i in sorted(range(len(tab)), reverse=True):
            if basis[i] not in art_cols:
                continue
            target = next((j for j in enterable if tab[i][j] != 0), None)
            if target is None:
                # redundant original row; its dual multiplier stays zero
                del tab[i]
                del basis[i]
                del rowid[i]
            else:
                pivot(i, target)

    cost2 = [F0] * ncols
    for j in range(n):
        cost2[j] = intc[j]
    if run(cost2) == UNBOUNDED:
        return LPSolution(UNBOUNDED)

    x = [F0] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
    value_int = sum(intc[j] * x[j] for j in range(n))

    duals = [F0] * m
    for pos, i in enumerate(rowid):
        col = logical[i] if logical[i] >= 0 else artificial_of[i]
        r = reduced(cost2, col)
        duals[i] = -r if senses[i] == ">=" else r
    outer = 1 if lp.maximize else -1
    final_duals = tuple(outer * flips[i] * duals[i] for i in range(m))

    sol = LPSolution(
        OPTIMAL,
        tuple(x),
        value_int if lp.maximize else -value_int,
        final_duals,
    )
    certify(general_certificate_ok(lp, sol), "simplex returned an uncertified optimum")
    return sol


# -- JSON ------------------------------------------------------------------------


def to_jsonable(value):
    """Recursively convert report structures into plain JSON values."""
    if isinstance(value, Fraction):
        return fraction_to_str(value)
    if isinstance(value, DirectedDistance):
        return distance_to_json(value)
    if isinstance(value, ExtPoint):
        return point_to_json(value)
    if isinstance(value, dict):
        return {k: to_jsonable(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [to_jsonable(v) for v in value]
    return value


def json_dumps(value) -> str:
    """The library's former writer: convert, then CPython's own encoder."""
    return json.dumps(to_jsonable(value), indent=2)


_FORMER_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def fraction_str_as_fraction(x) -> Fraction:
    """The library's former ``as_fraction``: the regex gate, then ``Fraction(x)``."""
    if isinstance(x, (bool, float)):
        raise DomainError("InputParseError", f"exact rational required, got {x!r}")
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, str) and _FORMER_RATIONAL.fullmatch(x):
        try:
            return Fraction(x)
        except (ValueError, ZeroDivisionError):
            raise DomainError("InputParseError", f"not a rational: {_shown(x)}") from None
    raise DomainError("InputParseError", f"not a rational: {_shown(x)}")
