"""Enumeration of the tight span and its subcomplexes as polyhedral complexes.

The polyhedron P (couplings plus the nonnegative orthant) is pointed, and
the minimal set T is a finite union of bounded faces of P, so the whole
complex is determined by the vertices of P that are minimal points.  The
pipeline:

1. enumerate the vertices of P exactly, by incremental double description
   on the homogenization cone (all arithmetic in Fractions), each ray
   carrying the set of constraints tight on it;
2. keep the vertices whose binding set (tight couplings plus zero
   coordinates) is minimal: every column or row that no tight coupling
   covers is a zero coordinate;
3. read the faces of T off binding sets: a face's binding set is the
   intersection of its vertices' binding sets, so the candidates are the
   intersection closure of the vertex bindings.  Each candidate is the
   binding set of the average of the vertices above it, so it is a face of
   T exactly when it passes the same minimality test, and its vertices,
   tight couplings, zero coordinates, dimension and directions all come
   from the binding set alone;
4. subcomplexes are filters of T: Q+ keeps the faces whose tight couplings
   cover every column and row; the canonical section keeps the Q+ faces on
   which some row coordinate vanishes identically.

Face dimension is the number of components of the tight-coupling graph free
of zero coordinates, cross-checked in the tests against the affine rank of
the vertex set.  Everything is ordered canonically so output is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from typing import FrozenSet, List, Sequence, Tuple

from .errors import DomainError, certify
from .geometry import EqualityGraph, ExtPoint, _tight_edges, dinf
from .metrics import DirectedDistance

F0 = Fraction(0)
F1 = Fraction(1)

ENUM_CAP = 5


# -- double description -------------------------------------------------------


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum(x * y for x, y in zip(a, b))


def _normalize_ray(r: Tuple[Fraction, ...]) -> Tuple[Fraction, ...]:
    for x in r:
        if x != 0:
            return tuple(y / x for y in r)
    raise DomainError("InternalCertificate", "zero ray")


Ray = Tuple[Tuple[Fraction, ...], FrozenSet[int]]


def _extreme_rays(dim: int, rows: List[Tuple[Fraction, ...]]) -> List[Ray]:
    """Extreme rays of {x >= 0, rows . x >= 0} by incremental double description.

    Each ray comes with its zero set: the indices of the constraints
    processed so far that are tight on it, the orthant facets x_i >= 0 being
    0..dim-1 and row k being dim + k.  A kept ray gains the current row when
    it is zero there; a new ray, a positive combination of an adjacent pair,
    is tight exactly where both are, plus the current row.  The cone is
    pointed (it sits in the orthant), so the combinatorial adjacency test
    over these zero sets is sound.
    """
    rays: List[Ray] = []
    for i in range(dim):
        unit = [F0] * dim
        unit[i] = F1
        rays.append((tuple(unit), frozenset(range(dim)) - {i}))
    for c, a in enumerate(rows, dim):
        vals = [_dot(a, r) for r, _ in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zsets = [z for _, z in rays]
        new: List[Ray] = []
        for ip in pos:
            for ineg in neg:
                meet = zsets[ip] & zsets[ineg]
                if any(meet <= z for k, z in enumerate(zsets) if k != ip and k != ineg):
                    continue
                combo = tuple(
                    vals[ip] * rn - vals[ineg] * rp
                    for rp, rn in zip(rays[ip][0], rays[ineg][0])
                )
                new.append((_normalize_ray(combo), meet | {c}))
        kept = [(r, z | {c} if v == 0 else z) for (r, z), v in zip(rays, vals) if v >= 0]
        rays = kept + new
    return rays


def polyhedron_vertices(mu: DirectedDistance) -> List[ExtPoint]:
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
    for r, _ in _extreme_rays(dim, rows):
        if r[-1] != 0:
            scaled = tuple(x / r[-1] for x in r[:-1])
            verts.append(ExtPoint(mu.ground, scaled[:n], scaled[n:]))
    verts.sort(key=lambda p: p.key())
    return verts


# -- face assembly ------------------------------------------------------------


@dataclass(frozen=True)
class Face:
    """Closed face of the complex, described combinatorially.

    vertex_ids index into the complex vertex list; edges is the equality
    graph at relative-interior points; zero_cols/zero_rows the coordinates
    vanishing on the whole face; directions the free equality-graph
    components spanning the face, one per dimension.
    """

    vertex_ids: Tuple[int, ...]
    dim: int
    edges: Tuple[Tuple[int, int], ...]
    zero_cols: Tuple[int, ...]
    zero_rows: Tuple[int, ...]
    directions: Tuple[Tuple[Tuple[int, ...], Tuple[int, ...]], ...]


@dataclass(frozen=True)
class PolyComplex:
    which: str  # "T" | "Qplus" | "Section"
    ground_labels: Tuple[str, ...]
    vertices: Tuple[ExtPoint, ...]
    faces: Tuple[Face, ...]

    @property
    def dim(self) -> int:
        return max((f.dim for f in self.faces), default=0)

    def maximal_faces(self) -> List[int]:
        vs = [frozenset(f.vertex_ids) for f in self.faces]
        return [
            i
            for i, a in enumerate(vs)
            if not any(i != j and a < b for j, b in enumerate(vs))
        ]

    def subcomplex_elements(self, element: int) -> List[int]:
        """Faces on which both coordinates of the element vanish."""
        return [
            i
            for i, f in enumerate(self.faces)
            if element in f.zero_cols and element in f.zero_rows
        ]


def _binding(mu: DirectedDistance, p: ExtPoint) -> FrozenSet:
    items = {("e",) + e for e in _tight_edges(mu, p)}
    items.update(("zc", s) for s in range(mu.n) if p.col[s] == 0)
    items.update(("zr", t) for t in range(mu.n) if p.row[t] == 0)
    return frozenset(items)


def _parts(n: int, b: FrozenSet) -> Tuple[EqualityGraph, FrozenSet[int], FrozenSet[int]]:
    """The tight-coupling graph, zero columns and zero rows of a binding set."""
    k = EqualityGraph(n, frozenset(x[1:] for x in b if x[0] == "e"))
    zc = frozenset(x[1] for x in b if x[0] == "zc")
    zr = frozenset(x[1] for x in b if x[0] == "zr")
    return k, zc, zr


def _is_minimal(n: int, b: FrozenSet) -> bool:
    """Whether the points of P with binding set b lie in T: every column and
    row that no tight coupling covers is a zero coordinate."""
    k, zc, zr = _parts(n, b)
    return k.isolated_cols() <= zc and k.isolated_rows() <= zr


def _face(n: int, ids: Tuple[int, ...], b: FrozenSet) -> Face:
    k, zc, zr = _parts(n, b)
    free = k.free_components(zc, zr)
    edges = tuple(sorted(k.edges))
    return Face(ids, len(free), edges, tuple(sorted(zc)), tuple(sorted(zr)), tuple(free))


def enumerate_tight_span(mu: DirectedDistance) -> PolyComplex:
    """The directed tight span as a finite polyhedral complex."""
    if mu.n > ENUM_CAP:
        raise DomainError("GroundSetTooLarge", f"n={mu.n} exceeds enumeration cap {ENUM_CAP}")
    vertices, bindings = [], []
    for p in polyhedron_vertices(mu):
        b = _binding(mu, p)
        if _is_minimal(mu.n, b):
            vertices.append(p)
            bindings.append(b)

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

    faces = [
        _face(mu.n, tuple(i for i, vb in enumerate(bindings) if vb >= b), b)
        for b in candidates
        if _is_minimal(mu.n, b)
    ]
    faces.sort(key=lambda f: (f.dim, f.vertex_ids))
    return PolyComplex("T", mu.labels, tuple(vertices), tuple(faces))


def _in_qplus(n: int, f: Face) -> bool:
    k = EqualityGraph(n, frozenset(f.edges))
    return not k.isolated_cols() and not k.isolated_rows()


def _restrict(parent: PolyComplex, keep: List[Face], which: str) -> PolyComplex:
    used = sorted({i for f in keep for i in f.vertex_ids})
    remap = {old: new for new, old in enumerate(used)}
    faces = tuple(replace(f, vertex_ids=tuple(remap[i] for i in f.vertex_ids)) for f in keep)
    vertices = tuple(parent.vertices[i] for i in used)
    return PolyComplex(which, parent.ground_labels, vertices, faces)


def enumerate_qplus(mu: DirectedDistance) -> PolyComplex:
    """The subcomplex of minimal elements of the coupling polyhedron in the orthant."""
    t = enumerate_tight_span(mu)
    return _restrict(t, [f for f in t.faces if _in_qplus(mu.n, f)], "Qplus")


def enumerate_section(mu: DirectedDistance) -> PolyComplex:
    """The canonical balanced section: Q+ faces with an identically zero row."""
    t = enumerate_tight_span(mu)
    return _restrict(t, [f for f in t.faces if _in_qplus(mu.n, f) and f.zero_rows], "Section")


# -- skeleton -----------------------------------------------------------------


@dataclass(frozen=True)
class SkeletonGraph:
    """Oriented weighted graph on the vertices of a one-dimensional complex."""

    vertices: Tuple[ExtPoint, ...]
    arcs: Tuple[Tuple[int, int, Fraction], ...]  # (tail, head, length)


def skeleton_graph(complex_: PolyComplex) -> SkeletonGraph:
    """Orient each 1-face toward its reachable endpoint.

    On every 1-face exactly one of the two directed distances between the
    endpoints vanishes; the arc runs the other way with that positive length.
    """
    if complex_.dim > 1:
        raise DomainError("DimensionTooHigh", f"skeleton needs dim <= 1, got {complex_.dim}")
    arcs = []
    for f in complex_.faces:
        if f.dim != 1:
            continue
        certify(len(f.vertex_ids) == 2, "1-face with vertex count != 2")
        i, j = f.vertex_ids
        fwd = dinf(complex_.vertices[i], complex_.vertices[j])
        bwd = dinf(complex_.vertices[j], complex_.vertices[i])
        if fwd > 0 and bwd == 0:
            arcs.append((i, j, fwd))
        elif bwd > 0 and fwd == 0:
            arcs.append((j, i, bwd))
        else:
            raise DomainError("InternalCertificate", f"1-face with distances {fwd}, {bwd}; expected one zero")
    arcs.sort()
    return SkeletonGraph(complex_.vertices, tuple(arcs))
