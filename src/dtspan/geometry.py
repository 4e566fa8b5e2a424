"""Geometry of directed tight spans.

Points live in R^(2n): a column part indexed by the ground set and a row part
indexed by a second copy of it.  The coupling constraints

    p(s^c) + p(t^r) >= mu(s, t)        for all s, t

carve out the polyhedron Pi; intersecting with the nonnegative orthant gives
P.  The directed tight span T is the set of points of P that cannot be
decreased coordinatewise inside P, and Q is the analogous minimal set of Pi.
Q+ = Q intersected with the orthant is a subcomplex of T.  Everything here is
exact: coordinates are Fractions, comparisons are equalities.

Main tools:

- dinf_plus / dinf: the asymmetric sup-distances making T a directed metric
  space;
- binding masks: one integer per point holding its zero coordinates and
  tight couplings (zero column s at bit s, zero row t at bit n + t,
  coupling (s, t) at bit 2n + 1 + s*n + t), read in one pass over the
  couplings.  The layout is the constraint numbering of double
  description, so ``complexes`` reads the faces of T from the same masks;
- equality_graph: the bipartite graph of tight couplings at a point, which
  governs minimality and local dimension; its components are searched over
  2n-bit adjacency masks;
- classify_membership: where a point sits relative to Pi, P, T, Q+, from
  the columns and rows its mask leaves uncovered: T needs each of them to
  be a zero coordinate, Q+ needs none;
- canonical_points: the distance rows/columns of an element and the two
  one-sided minimal representatives, all landing in T when expected;
- the two nonexpansive retractions (P onto T, T onto Q+) as closed-form
  coordinate updates: each step's length is read off the coordinates and
  the coupling slacks directly, and each result is certified in T or Q+;
- balance of point sets, balanced sections of Q over the tropical quotient,
  and the interval-based extension of a balanced set to further fibers;
- geodesic_polyline: exact geodesics through pointwise retraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from itertools import combinations
from typing import Iterable, List, Optional, Sequence, Tuple

from .errors import DomainError, certify
from .metrics import DirectedDistance, Element, GroundSet

F0 = Fraction(0)


class Membership(Enum):
    OUTSIDE = "outside"
    PI_ONLY = "Pi_only"
    P_NOT_T = "P_not_T"
    T_NOT_QPLUS = "T_not_Qplus"
    QPLUS = "Qplus"
    Q_NOT_NONNEG = "Q_not_nonneg"


@dataclass(frozen=True)
class ExtPoint:
    """Rational vector with a column part and a row part over a ground set."""

    ground: GroundSet
    col: Tuple[Fraction, ...]
    row: Tuple[Fraction, ...]

    def __post_init__(self):
        n = self.ground.n
        if len(self.col) != n or len(self.row) != n:
            raise DomainError(
                "LengthMismatch",
                f"point parts have lengths {len(self.col)}/{len(self.row)}, expected {n}/{n}",
            )

    @property
    def n(self) -> int:
        return self.ground.n

    def coords(self) -> Tuple[Fraction, ...]:
        return self.col + self.row

    def add_scaled(self, v: "ExtPoint", t: Fraction) -> "ExtPoint":
        return ExtPoint(
            self.ground,
            tuple(a + t * b for a, b in zip(self.col, v.col)),
            tuple(a + t * b for a, b in zip(self.row, v.row)),
        )

    def fiber_shift(self, t: Fraction) -> "ExtPoint":
        """Translate along the all-ones line: +t on columns, -t on rows."""
        return ExtPoint(
            self.ground,
            tuple(a + t for a in self.col),
            tuple(a - t for a in self.row),
        )

    def key(self) -> Tuple[Tuple[Fraction, ...], Tuple[Fraction, ...]]:
        return (self.col, self.row)


def point(mu_or_ground, col, row) -> ExtPoint:
    ground = mu_or_ground.ground if isinstance(mu_or_ground, DirectedDistance) else mu_or_ground
    return ExtPoint(ground, tuple(Fraction(c) for c in col), tuple(Fraction(r) for r in row))


@dataclass(frozen=True)
class Fiber:
    """A point of Q modulo translation along the all-ones line.

    Two fibers are equal when their representatives differ by a multiple of
    (+1 columns, -1 rows); the canonical representative shifts the minimum
    row coordinate to zero.
    """

    representative: ExtPoint

    def canonical(self) -> ExtPoint:
        return self.representative.fiber_shift(min(self.representative.row))

    def __eq__(self, other) -> bool:
        if not isinstance(other, Fiber):
            return NotImplemented
        return self.canonical().key() == other.canonical().key()

    def __hash__(self) -> int:
        return hash(self.canonical().key())


@dataclass(frozen=True)
class EqualityGraph:
    """Bipartite graph on column and row copies; edges are tight couplings."""

    n: int
    edges: frozenset  # pairs (s, t): column s joined to row t

    def isolated_cols(self) -> frozenset:
        covered = {s for s, _ in self.edges}
        return frozenset(s for s in range(self.n) if s not in covered)

    def isolated_rows(self) -> frozenset:
        covered = {t for _, t in self.edges}
        return frozenset(t for t in range(self.n) if t not in covered)

    def _mask(self) -> int:
        """The edges as a binding mask without zero coordinates."""
        return sum(_edge_bit(self.n, s, t) for s, t in self.edges)

    def components(self) -> List[Tuple[frozenset, frozenset]]:
        """Connected components as (column set, row set), isolated vertices
        appearing as singletons.  Deterministic order: components holding a
        column by their smallest column, then the isolated rows by index."""
        sides = [_sides(self.n, c) for c in _component_masks(self.n, self._mask())]
        return [(frozenset(cols), frozenset(rows)) for cols, rows in sides]

    def free_components(
        self, zero_cols: Iterable[int], zero_rows: Iterable[int]
    ) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
        """Components touching no zero coordinate, as sorted (column tuple,
        row tuple) pairs in sorted order.  On a face of T these span the
        face, one direction (+1 on the columns, -1 on the rows) each."""
        n, zc, zr = self.n, set(zero_cols), set(zero_rows)
        zero = sum(1 << i for i in range(n) if i in zc)
        zero |= sum(1 << (n + i) for i in range(n) if i in zr)
        return free_components(n, self._mask() | zero)


# -- binding masks -------------------------------------------------------------


def _edge_bit(n: int, s: int, t: int) -> int:
    """Bit of tight coupling (s, t) in a binding mask.  Zero column s is bit
    s, zero row t bit n + t, and coupling (s, t) bit 2n + 1 + s*n + t: the
    numbers double description gives the constraints of P, bit 2n (the
    homogenizing coordinate) left clear."""
    return 1 << (2 * n + 1 + s * n + t)


def _binding_mask(mu: DirectedDistance, p: ExtPoint) -> Optional[int]:
    """The zero coordinates and tight couplings of p, from one pass over the
    couplings; None when p violates a coupling, that is, lies outside Pi."""
    b, bit = 0, _edge_bit(mu.n, 0, 0)
    for x, es in zip(p.col, mu.entries):
        for y, m in zip(p.row, es):
            v = x + y
            if v == m:
                b |= bit
            elif v < m:
                return None
            bit <<= 1
    for i, x in enumerate(p.coords()):
        if x == 0:
            b |= 1 << i
    return b


def _uncovered(n: int, b: int) -> int:
    """The columns and rows that no tight coupling of binding mask b covers,
    laid out like its zero coordinates.  A point of P is in T when these are
    all zero coordinates, and in Q+ when there are none."""
    tight, all_rows = b >> (2 * n + 1), (1 << n) - 1
    cols = rows = 0
    for s in range(n):
        covered = tight >> (s * n) & all_rows
        if covered:
            cols |= 1 << s
        rows |= covered
    return (cols | rows << n) ^ ((1 << (2 * n)) - 1)


def _mask_edges(n: int, b: int) -> Tuple[Tuple[int, int], ...]:
    """The tight couplings (s, t) of binding mask b, in order."""
    tight = b >> (2 * n + 1)
    return tuple(divmod(i, n) for i in range(n * n) if tight >> i & 1)


def _component_masks(n: int, b: int) -> List[int]:
    """Connected components of the tight couplings of binding mask b, as
    2n-bit masks laid out like its zero coordinates, in the order of their
    lowest bits."""
    adj, tight = [0] * (2 * n), b >> (2 * n + 1)
    while tight:
        low = tight & -tight
        s, t = divmod(low.bit_length() - 1, n)
        adj[s] |= 1 << (n + t)
        adj[n + t] |= 1 << s
        tight ^= low
    comps = []
    left = (1 << (2 * n)) - 1
    while left:
        comp = frontier = left & -left
        while frontier:
            reach = 0
            while frontier:
                v = frontier & -frontier
                reach |= adj[v.bit_length() - 1]
                frontier ^= v
            frontier = reach & ~comp
            comp |= frontier
        comps.append(comp)
        left &= ~comp
    return comps


def free_components(n: int, b: int) -> List[Tuple[Tuple[int, ...], Tuple[int, ...]]]:
    """The components of ``_component_masks(n, b)`` touching none of b's zero
    coordinates, as sorted (column tuple, row tuple) pairs in sorted order.
    The one reading of directions behind ``EqualityGraph``,
    ``face_dimension`` and the faces of ``complexes``."""
    free = [_sides(n, c) for c in _component_masks(n, b) if not c & b]
    free.sort()
    return free


def _sides(n: int, c: int) -> Tuple[Tuple[int, ...], Tuple[int, ...]]:
    """The columns and the rows among the low 2n bits of a mask: the members
    of a component, or the zero coordinates of a binding mask."""
    return tuple(s for s in range(n) if c >> s & 1), tuple(t for t in range(n) if c >> (n + t) & 1)


# -- distances ---------------------------------------------------------------


def dinf_plus(p: Sequence[Fraction], q: Sequence[Fraction]) -> Fraction:
    """One-sided sup-distance: largest positive part of q - p."""
    if len(p) != len(q):
        raise DomainError("LengthMismatch", f"vector lengths {len(p)} vs {len(q)}")
    if len(p) == 0:
        raise DomainError("LengthMismatch", "vectors must be nonempty")
    return max(max(b - a for a, b in zip(p, q)), F0)


def dinf(p: ExtPoint, q: ExtPoint) -> Fraction:
    """Directed sup-distance: column increase from p to q, row increase back."""
    if p.ground != q.ground:
        raise DomainError("GroundSetMismatch", "points live over different ground sets")
    return max(dinf_plus(p.col, q.col), dinf_plus(q.row, p.row))


def norm_pair(p: ExtPoint) -> Fraction:
    """dinf(0, p) + dinf(p, 0) written as a norm of the coordinate vector."""
    up = max(max(max(x, F0) for x in p.col), max(max(-x, F0) for x in p.row))
    dn = max(max(max(-x, F0) for x in p.col), max(max(x, F0) for x in p.row))
    return up + dn


# -- membership --------------------------------------------------------------


def _nonneg(p: ExtPoint) -> bool:
    return all(x >= 0 for x in p.coords())


def equality_graph(mu: DirectedDistance, p: ExtPoint) -> EqualityGraph:
    """Tight couplings at p; p must satisfy all coupling constraints."""
    _check_ground(mu, p)
    b = _binding_mask(mu, p)
    if b is None:
        raise DomainError("NotInPolyhedron", "point violates a coupling constraint")
    return EqualityGraph(mu.n, frozenset(_mask_edges(mu.n, b)))


def _check_ground(mu: DirectedDistance, p: ExtPoint):
    if mu.ground != p.ground:
        raise DomainError("GroundSetMismatch", "point and distance ground sets differ")


def classify_membership(mu: DirectedDistance, p: ExtPoint) -> Membership:
    """Exact location of p relative to Pi, P, T, Q+.

    Minimality in P needs every positive coordinate covered by a tight
    coupling; minimality in Pi needs every coordinate covered.
    """
    _check_ground(mu, p)
    return _membership(mu, p)[0]


def _membership(mu: DirectedDistance, p: ExtPoint) -> Tuple[Membership, Optional[int]]:
    """Where p sits, with its binding mask (None outside Pi)."""
    b = _binding_mask(mu, p)
    if b is None:
        return Membership.OUTSIDE, b
    uncovered = _uncovered(mu.n, b)
    if _nonneg(p):
        if not uncovered:
            return Membership.QPLUS, b
        if not uncovered & ~b:
            return Membership.T_NOT_QPLUS, b
        return Membership.P_NOT_T, b
    return (Membership.PI_ONLY if uncovered else Membership.Q_NOT_NONNEG), b


_IN_T = (Membership.T_NOT_QPLUS, Membership.QPLUS)


def in_tight_span(mu: DirectedDistance, p: ExtPoint) -> bool:
    return classify_membership(mu, p) in _IN_T


def in_qplus(mu: DirectedDistance, p: ExtPoint) -> bool:
    return classify_membership(mu, p) is Membership.QPLUS


# -- canonical points --------------------------------------------------------


def canonical_points(mu: DirectedDistance, s: Element) -> Tuple[ExtPoint, ExtPoint, ExtPoint]:
    """The distance point of s and its two one-sided minimal companions.

    Returns (mu_s, mu_s_in, mu_s_out) where

        mu_s(t^c)     = mu(t, s)                 mu_s(t^r)     = mu(s, t)
        mu_s_in(t^c)  = mu(t, s)                 mu_s_in(t^r)  = max_u mu(u,t) - mu(u,s)
        mu_s_out(t^c) = max_u mu(t,u) - mu(s,u)  mu_s_out(t^r) = mu(s, t)

    The in/out variants always land in the tight span with both s-coordinates
    zero; for a directed metric all three coincide.
    """
    i = mu.ground.index_of(s)
    n, e = mu.n, mu.entries
    col = tuple(e[t][i] for t in range(n))
    row = tuple(e[i][t] for t in range(n))
    in_row = tuple(max(e[u][t] - e[u][i] for u in range(n)) for t in range(n))
    out_col = tuple(max(e[t][u] - e[i][u] for u in range(n)) for t in range(n))
    g = mu.ground
    return (
        ExtPoint(g, col, row),
        ExtPoint(g, col, in_row),
        ExtPoint(g, out_col, row),
    )


# -- local dimension ---------------------------------------------------------


def face_dimension(mu: DirectedDistance, p: ExtPoint):
    """Dimension of the face of T containing p in its relative interior.

    Equals the number of connected components of the equality graph touching
    no zero coordinate of p; each such component contributes the direction
    (+1 on its columns, -1 on its rows).  Returns (dim, directions) with
    directions a list of (column tuple, row tuple) index pairs.
    """
    _check_ground(mu, p)
    where, b = _membership(mu, p)
    if where not in _IN_T:
        raise DomainError("NotInTightSpan", "face dimension is defined on the tight span")
    free = free_components(mu.n, b)
    return len(free), free


# -- retractions -------------------------------------------------------------


def retract_to_tight_span(mu: DirectedDistance, p: ExtPoint) -> ExtPoint:
    """Nonexpansive retraction of P onto the tight span.

    For each element, last label first, drop the row coordinate as far as
    possible and then the column coordinate.  A coordinate stops at zero or
    when a coupling becomes tight, so row i drops to
    max(0, max_s mu(s, i) - col[s]) and column i to
    max(0, max_t mu(i, t) - row[t]); tight couplings never loosen again, so a
    single sweep lands in T.
    """
    _check_ground(mu, p)
    if _binding_mask(mu, p) is None or not _nonneg(p):
        raise DomainError("NotInP", "retraction is defined on P")
    n, e = mu.n, mu.entries
    col, row = list(p.col), list(p.row)
    for i in reversed(range(n)):
        row[i] = max(F0, max(e[s][i] - col[s] for s in range(n)))
        col[i] = max(F0, max(e[i][t] - row[t] for t in range(n)))
    out = ExtPoint(p.ground, tuple(col), tuple(row))
    certify(_membership(mu, out)[0] in _IN_T, "retraction left the tight span")
    return out


def _proper_subsets(n: int) -> List[Tuple[int, ...]]:
    """Nonempty proper subsets of range(n), by cardinality then lexicographic,
    so that no subset precedes one of its supersets."""
    out = []
    for k in range(1, n):
        out.extend(combinations(range(n), k))
    return out


def _subset_sweep(up: List[Fraction], down: List[Fraction], slack: List[Fraction]) -> None:
    """Move along +1 on a subset of the up coordinates and -1 on every down
    coordinate, for each subset in turn, as far as P allows.

    slack[u] is the least slack of the couplings of up coordinate u.  A step
    on A stops when a down coordinate reaches zero or a coupling of an up
    coordinate outside A becomes tight; those slacks and the least down
    coordinate fall by the step, the others stay.
    """
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


def retract_to_qplus(mu: DirectedDistance, p: ExtPoint) -> ExtPoint:
    """Cyclically nonexpansive retraction of the tight span onto Q+.

    Sweeps the column directions (+1 on a subset of columns, -1 on all rows)
    over all nonempty proper subsets in inclusion-compatible order, then the
    symmetric row directions, each step as far as P allows.  Fixes Q+
    pointwise.
    """
    _check_ground(mu, p)
    if not in_tight_span(mu, p):
        raise DomainError("NotInTightSpan", "retraction onto Q+ starts from the tight span")
    n, e = mu.n, mu.entries
    col, row = list(p.col), list(p.row)
    _subset_sweep(col, row, [min(col[s] + row[t] - e[s][t] for t in range(n)) for s in range(n)])
    _subset_sweep(row, col, [min(col[s] + row[t] - e[s][t] for s in range(n)) for t in range(n)])
    out = ExtPoint(p.ground, tuple(col), tuple(row))
    certify(_membership(mu, out)[0] is Membership.QPLUS, "retraction left Q+")
    return out


# -- balance and sections ----------------------------------------------------


def _strictly_less(a: Sequence[Fraction], b: Sequence[Fraction]) -> bool:
    return all(x < y for x, y in zip(a, b))


def is_balanced(points: Sequence[ExtPoint]):
    """No point strictly dominated by another on columns, none on rows.

    Returns (True, None) or (False, (i, j)) for the first ordered index pair
    with points[i]^c < points[j]^c or points[i]^r < points[j]^r.
    """
    pts = list(points)
    for i, p in enumerate(pts):
        for j, q in enumerate(pts):
            if i == j:
                continue
            if p.ground != q.ground:
                raise DomainError("GroundSetMismatch", "balance needs a common ground set")
            if _strictly_less(p.col, q.col) or _strictly_less(p.row, q.row):
                return False, (i, j)
    return True, None


def _require_in_q(mu: DirectedDistance, p: ExtPoint):
    if classify_membership(mu, p) not in (Membership.QPLUS, Membership.Q_NOT_NONNEG):
        raise DomainError("NotInQ", "point is not a minimal element of the coupling polyhedron")


def retract_to_section(mu: DirectedDistance, p: ExtPoint, anchors: Optional[Sequence[ExtPoint]] = None) -> ExtPoint:
    """Representative of p's fiber on a balanced section of Q.

    Without anchors this is the canonical section: shift so the minimum row
    coordinate is zero.  With anchors (a balanced subset of Q), the fiber is
    met in the interval of translates balanced against every anchor, and the
    lower endpoint is returned; anchors on p's own fiber pin the answer.
    """
    _require_in_q(mu, p)
    if anchors is None:
        return p.fiber_shift(min(p.row))
    return extend_to_balanced_section(mu, anchors, [Fiber(p)])[0]


def canonical_section_membership(mu: DirectedDistance, p: ExtPoint) -> bool:
    """Member of Q+ whose minimum row coordinate is zero."""
    return classify_membership(mu, p) is Membership.QPLUS and min(p.row) == 0


@dataclass
class BalanceInterval:
    """Closed interval of fiber translates, endpoints None for unbounded."""

    lower: Optional[Fraction] = None
    upper: Optional[Fraction] = None

    def intersect(self, lo: Optional[Fraction], hi: Optional[Fraction]) -> "BalanceInterval":
        lower = self.lower if lo is None else (lo if self.lower is None else max(self.lower, lo))
        upper = self.upper if hi is None else (hi if self.upper is None else min(self.upper, hi))
        return BalanceInterval(lower, upper)

    def is_empty(self) -> bool:
        return self.lower is not None and self.upper is not None and self.lower > self.upper


def extend_to_balanced_section(
    mu: DirectedDistance, anchors: Sequence[ExtPoint], queries: Sequence[Fiber]
) -> List[ExtPoint]:
    """Extend a balanced subset of Q across the queried fibers.

    Each query contributes the translate interval [min, max] of (q - p)^c per
    current anchor q; the intersection is never empty (a Helly property of
    intervals), and the lower endpoint is chosen.  When every anchor lies in
    Q+, answers are kept in Q+ as well.  Answers join the anchor set
    immediately, so the returned points are mutually balanced too.
    """
    current = list(anchors)
    for q in current:
        _require_in_q(mu, q)
    ok, pair = is_balanced(current)
    if not ok:
        raise DomainError("NotBalanced", f"anchor pair {pair} is unbalanced")
    qplus_mode = all(classify_membership(mu, q) is Membership.QPLUS for q in current)
    answers: List[ExtPoint] = []
    for fiber in queries:
        p0 = fiber.representative
        _require_in_q(mu, p0)
        interval = BalanceInterval()
        for q in current:
            diffs = [qc - pc for pc, qc in zip(p0.col, q.col)]
            interval = interval.intersect(min(diffs), max(diffs))
        if qplus_mode:
            interval = interval.intersect(max(-c for c in p0.col), min(p0.row))
        if interval.is_empty() or interval.lower is None:
            raise DomainError("EmptyIntersection", "no balanced representative on the fiber")
        ans = p0.fiber_shift(interval.lower)
        answers.append(ans)
        current.append(ans)
    return answers


# -- geodesics ---------------------------------------------------------------


def geodesic_polyline(mu: DirectedDistance, p: ExtPoint, q: ExtPoint, k: int) -> List[ExtPoint]:
    """Retract the segment from p to q back into the tight span.

    Returns k+1 points; consecutive dinf lengths always sum to dinf(p, q)
    exactly, for every k >= 1.
    """
    if k < 1:
        raise DomainError("UsageError", "k must be at least 1")
    for x in (p, q):
        if not in_tight_span(mu, x):
            raise DomainError("NotInTightSpan", "geodesics run between tight span points")
    diff = ExtPoint(
        p.ground,
        tuple(b - a for a, b in zip(p.col, q.col)),
        tuple(b - a for a, b in zip(p.row, q.row)),
    )
    out = []
    for i in range(k + 1):
        x = p.add_scaled(diff, Fraction(i, k))
        out.append(retract_to_tight_span(mu, x))
    return out
