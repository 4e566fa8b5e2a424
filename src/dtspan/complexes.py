"""Enumeration of the tight span and its subcomplexes as polyhedral complexes.

The polyhedron P (couplings plus the nonnegative orthant) is pointed, and
the minimal set T is a finite union of bounded faces of P, so the whole
complex is determined by the vertices of P that are minimal points.  The
pipeline:

1. enumerate the vertices of P exactly, by incremental double description
   on the homogenization cone over the integers: mu is scaled by the least
   common multiple of its denominators, rays are primitive integer vectors,
   and each ray carries the set of constraints tight on it as a bitmask;
   Fractions appear only when the vertices are written out;
2. take each vertex's binding set (zero coordinates and tight couplings)
   from double description itself: it is the ray's zero set with the
   homogenizing bit 2n cleared, so no coordinate is summed or compared.
   The bit layout is the binding mask that ``geometry`` defines and reads
   at single points.  Each complex is cut out of P by a test on binding
   masks, built from ``geometry._uncovered`` (the columns and rows that no
   tight coupling covers): T keeps the masks whose uncovered coordinates
   are all zero coordinates, Q+ those with none uncovered, and the
   canonical section the Q+ masks with a zero row.  The test runs on the
   vertices first, and only the kept ones are written out as Fractions;
3. read the faces off binding sets: a face's binding set is the
   intersection of its vertices' binding sets, so the candidates are the
   intersection closure of the kept vertices' bitmasks.  Each candidate is
   the binding set of the average of the vertices above it, so it is a
   face of the complex exactly when it passes the same test, and its
   vertices, tight couplings, zero coordinates, dimension and directions
   all come from the bitmask alone.  Each test holds on every mask
   containing one it holds on, so a kept face's vertices are all kept:
   closing over them alone finds every kept face, with the vertex and face
   order of T restricted, and no face outside the complex is built.

Face dimension is the number of components of the tight-coupling graph free
of zero coordinates (``geometry.free_components`` on the binding mask),
cross-checked in the tests against the affine rank of the vertex set.
Everything is ordered canonically so output is byte-stable.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import Callable, List, Sequence, Tuple

from .errors import DomainError, certify
from .geometry import ExtPoint, _mask_edges, _point, _sides, _uncovered, dinf, free_components
from .metrics import DirectedDistance, scaled_entries

ENUM_CAP = 5


# -- double description -------------------------------------------------------


Ray = Tuple[List[int], int]


def _extreme_rays(m: Sequence[Sequence[int]]) -> List[Ray]:
    """Extreme rays of {x >= 0, x_s + x_(n+t) >= m[s][t] x_2n} in R^(2n+1)
    by incremental double description over the integers.

    Each ray is a primitive integer vector with its zero set as a bitmask:
    the constraints processed so far that are tight on it, the orthant facets
    x_i >= 0 being bits 0..2n and coupling (s, t) bit 2n + 1 + s*n + t.  A
    kept ray gains the current bit when it is zero there; a new ray, a
    positive combination of an adjacent pair, is tight exactly where both
    are, plus the current bit.  The cone is pointed (it sits in the orthant)
    and full-dimensional, so two rays are adjacent exactly when no third
    ray's zero set contains their common one, which needs at least 2n - 1
    common members.
    """
    n = len(m)
    dim = 2 * n + 1
    full = (1 << dim) - 1
    rays: List[Ray] = []
    for i in range(dim):
        unit = [0] * dim
        unit[i] = 1
        rays.append((unit, full ^ (1 << i)))
    for c, (s, t) in enumerate(((s, t) for s in range(n) for t in range(n)), dim):
        bit = 1 << c
        mst = m[s][t]
        vals = [r[s] + r[n + t] - mst * r[-1] for r, _ in rays]
        pos = [i for i, v in enumerate(vals) if v > 0]
        neg = [i for i, v in enumerate(vals) if v < 0]
        zsets = [z for _, z in rays]
        new: List[Ray] = []
        for ip in pos:
            zp = zsets[ip]
            for ineg in neg:
                meet = zp & zsets[ineg]
                if meet.bit_count() < dim - 2:
                    continue
                if any(meet & z == meet for k, z in enumerate(zsets) if k != ip and k != ineg):
                    continue
                a, b = vals[ip], -vals[ineg]
                combo = [a * rn + b * rp for rp, rn in zip(rays[ip][0], rays[ineg][0])]
                g = gcd(*combo)
                certify(g != 0, "zero ray")
                new.append(([x // g for x in combo], meet | bit))
        kept = [(r, z | bit if v == 0 else z) for (r, z), v in zip(rays, vals) if v >= 0]
        rays = kept + new
    return rays


def _vertex_rays(mu: DirectedDistance) -> Tuple[int, List[Ray]]:
    """(L, the rays of the cone over L * mu that are vertices of P), each ray
    with its binding mask: its zero set with the homogenizing bit 2n
    cleared, which is the layout of ``geometry._edge_bit``."""
    scale, m = scaled_entries(mu)
    off = ~(1 << (2 * mu.n))
    return scale, [(r, z & off) for r, z in _extreme_rays(m) if r[-1] != 0]


def _vertex(mu: DirectedDistance, scale: int, r: List[int]) -> ExtPoint:
    """The vertex of P on ray r: r[:2n] / (L * r[-1]), with that integer
    form."""
    n = mu.n
    return _point(mu.ground, r[-1] * scale, r[:n], r[n:-1])


def polyhedron_vertices(mu: DirectedDistance) -> List[ExtPoint]:
    """All vertices of P, via the homogenization cone in R^(2n+1).

    The cone is built on L * mu, L the least common multiple of the entries'
    denominators, so every ray is an integer vector; the vertex of P on ray r
    is r[:2n] / (L * r[-1]).
    """
    scale, rays = _vertex_rays(mu)
    return sorted((_vertex(mu, scale, r) for r, _ in rays), key=ExtPoint.key)


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
        # faces are sorted by (dim, vertex_ids) and a face lies only in faces
        # of higher dimension, so only the faces after it can contain it
        vs = [frozenset(f.vertex_ids) for f in self.faces]
        return [i for i, a in enumerate(vs) if not any(a < b for b in vs[i + 1 :])]

    def subcomplex_elements(self, element: int) -> List[int]:
        """Faces on which both coordinates of the element vanish."""
        return [
            i
            for i, f in enumerate(self.faces)
            if element in f.zero_cols and element in f.zero_rows
        ]


def _face(n: int, ids: Tuple[int, ...], b: int) -> Face:
    zc, zr = _sides(n, b)
    free = free_components(n, b)
    return Face(ids, len(free), _mask_edges(n, b), zc, zr, tuple(free))


def _complex(mu: DirectedDistance, which: str, keep: Callable[[int, int], bool]) -> PolyComplex:
    """The faces of T whose binding masks pass keep(n, b), a test that holds
    on every mask containing one it holds on (steps 2 and 3 above)."""
    if mu.n > ENUM_CAP:
        raise DomainError("GroundSetTooLarge", f"n={mu.n} exceeds enumeration cap {ENUM_CAP}")
    n = mu.n
    scale, rays = _vertex_rays(mu)
    found = sorted(
        ((_vertex(mu, scale, r), b) for r, b in rays if keep(n, b)), key=lambda pb: pb[0].key()
    )
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

    faces = [
        _face(n, tuple([i for i, vb in enumerate(bindings) if vb & b == b]), b)
        for b in candidates
        if keep(n, b)
    ]
    faces.sort(key=lambda f: (f.dim, f.vertex_ids))
    return PolyComplex(which, mu.labels, tuple(vertices), tuple(faces))


def enumerate_tight_span(mu: DirectedDistance) -> PolyComplex:
    """The directed tight span as a finite polyhedral complex: every column
    and row that no tight coupling covers is a zero coordinate."""
    return _complex(mu, "T", lambda n, b: not _uncovered(n, b) & ~b)


def enumerate_qplus(mu: DirectedDistance) -> PolyComplex:
    """The subcomplex of minimal elements of the coupling polyhedron in the
    orthant: tight couplings cover every column and row."""
    return _complex(mu, "Qplus", lambda n, b: not _uncovered(n, b))


def enumerate_section(mu: DirectedDistance) -> PolyComplex:
    """The canonical balanced section: Q+ faces with an identically zero row."""
    return _complex(mu, "Section", lambda n, b: not _uncovered(n, b) and (b >> n & ((1 << n) - 1)) != 0)


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
