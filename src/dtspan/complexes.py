"""Enumeration of the tight span and its subcomplexes as polyhedral complexes.

The polyhedron P (couplings plus the nonnegative orthant) is pointed, and
the minimal set T is a finite union of bounded faces of P, so the whole
complex is determined by the vertices of P that are minimal points.  The
pipeline:

1. enumerate the vertices of P exactly, by incremental double description
   on the homogenization cone (all arithmetic in Fractions);
2. keep the vertices whose equality graph covers every positive coordinate;
3. assemble faces from binding sets: every face's binding set is the
   intersection of its vertices' binding sets, so candidates come from the
   intersection closure, and a candidate is accepted when the average of its
   vertices realizes exactly that binding set and is itself a minimal point;
4. subcomplexes: Q+ keeps the faces whose relative interior has no isolated
   equality-graph vertex; the canonical section keeps the Q+ faces on which
   some row coordinate vanishes identically.

Face dimension is the number of equality-graph components free of zero
coordinates, cross-checked downstream against the affine rank of the vertex
set.  Everything is ordered canonically so output is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import Dict, FrozenSet, List, Optional, Sequence, Tuple

from .errors import DomainError, certify
from .geometry import EqualityGraph, ExtPoint, Membership, _tight_edges, classify_membership
from .metrics import DirectedDistance

F0 = Fraction(0)
F1 = Fraction(1)

DEFAULT_CAP = 5


# -- double description -------------------------------------------------------


def _dot(a: Sequence[Fraction], b: Sequence[Fraction]) -> Fraction:
    return sum(x * y for x, y in zip(a, b))


def _normalize_ray(r: Tuple[Fraction, ...]) -> Tuple[Fraction, ...]:
    for x in r:
        if x != 0:
            return tuple(y / x for y in r)
    raise DomainError("InternalCertificate", "zero ray")


def _extreme_rays(dim: int, rows: List[Tuple[Fraction, ...]]) -> List[Tuple[Fraction, ...]]:
    """Extreme rays of {x >= 0, rows . x >= 0} by incremental double description.

    The cone is pointed (it sits in the orthant), so the combinatorial
    adjacency test over the constraints processed so far is sound.
    """
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
    for r in _extreme_rays(dim, rows):
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
    bounded: bool = True


@dataclass(frozen=True)
class PolyComplex:
    which: str  # "T" | "Qplus" | "Section"
    ground_labels: Tuple[str, ...]
    vertices: Tuple[ExtPoint, ...]
    faces: Tuple[Face, ...]

    @property
    def dim(self) -> int:
        return max((f.dim for f in self.faces), default=0)

    def incidence(self) -> List[Tuple[int, int]]:
        """(i, j) pairs with face i a proper subface of face j."""
        out = []
        vs = [frozenset(f.vertex_ids) for f in self.faces]
        for i, a in enumerate(vs):
            for j, b in enumerate(vs):
                if i != j and a < b:
                    out.append((i, j))
        return out

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


def _average(ground, pts: Sequence[ExtPoint]) -> ExtPoint:
    m = Fraction(1, len(pts))
    col = tuple(sum((p.col[i] for p in pts), F0) * m for i in range(ground.n))
    row = tuple(sum((p.row[i] for p in pts), F0) * m for i in range(ground.n))
    return ExtPoint(ground, col, row)


def _is_minimal_in_p(mu: DirectedDistance, p: ExtPoint) -> bool:
    return classify_membership(mu, p) in (Membership.T_NOT_QPLUS, Membership.QPLUS)


def _face_from_witness(mu: DirectedDistance, ids: Tuple[int, ...], witness: ExtPoint) -> Face:
    edges = tuple(sorted(_tight_edges(mu, witness)))
    zc = tuple(s for s in range(mu.n) if witness.col[s] == 0)
    zr = tuple(t for t in range(mu.n) if witness.row[t] == 0)
    k = EqualityGraph(mu.n, frozenset(edges))
    free = []
    for cols, rows in k.components():
        if any(witness.col[s] == 0 for s in cols) or any(witness.row[t] == 0 for t in rows):
            continue
        free.append((tuple(sorted(cols)), tuple(sorted(rows))))
    free.sort()
    return Face(ids, len(free), edges, zc, zr, tuple(free), True)


def enumerate_tight_span(mu: DirectedDistance, cap: int = DEFAULT_CAP) -> PolyComplex:
    """The directed tight span as a finite polyhedral complex."""
    if mu.n > cap:
        raise DomainError("GroundSetTooLarge", f"n={mu.n} exceeds enumeration cap {cap}")
    all_vertices = polyhedron_vertices(mu)
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
    faces.sort(key=lambda f: (f.dim, f.vertex_ids))
    return PolyComplex("T", mu.labels, tuple(vertices), tuple(faces))


def _restrict(parent: PolyComplex, keep: List[Face], which: str) -> PolyComplex:
    used = sorted({i for f in keep for i in f.vertex_ids})
    remap = {old: new for new, old in enumerate(used)}
    faces = tuple(
        Face(
            tuple(remap[i] for i in f.vertex_ids),
            f.dim,
            f.edges,
            f.zero_cols,
            f.zero_rows,
            f.directions,
            f.bounded,
        )
        for f in keep
    )
    vertices = tuple(parent.vertices[i] for i in used)
    return PolyComplex(which, parent.ground_labels, vertices, faces)


def enumerate_qplus(mu: DirectedDistance, cap: int = DEFAULT_CAP) -> PolyComplex:
    """The subcomplex of minimal elements of the coupling polyhedron in the orthant."""
    t = enumerate_tight_span(mu, cap)
    n = len(t.ground_labels)
    keep = []
    for f in t.faces:
        k = EqualityGraph(n, frozenset(f.edges))
        if not k.isolated_cols() and not k.isolated_rows():
            keep.append(f)
    keep.sort(key=lambda f: (f.dim, f.vertex_ids))
    return _restrict(t, keep, "Qplus")


def enumerate_section(mu: DirectedDistance, cap: int = DEFAULT_CAP) -> PolyComplex:
    """The canonical balanced section: Q+ faces with an identically zero row."""
    q = enumerate_qplus(mu, cap)
    keep = [f for f in q.faces if f.zero_rows]
    keep.sort(key=lambda f: (f.dim, f.vertex_ids))
    return _restrict(q, keep, "Section")


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
    from .geometry import dinf

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
