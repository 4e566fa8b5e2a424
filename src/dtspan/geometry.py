"""Geometry of directed tight spans.

Points live in R^(2n): a column part indexed by the ground set and a row part
indexed by a second copy of it.  The coupling constraints

    p(s^c) + p(t^r) >= mu(s, t)        for all s, t

carve out the polyhedron Pi; intersecting with the nonnegative orthant gives
P.  The directed tight span T is the set of points of P that cannot be
decreased coordinatewise inside P, and Q is the analogous minimal set of Pi.
Q+ = Q intersected with the orthant is a subcomplex of T.  Everything here is
exact, and comparisons are equalities.  Points and distances keep their
Fraction fields, but membership, the retractions, dinf, the section shift,
canonical_points and geodesics only add, subtract, take max and compare, so
they run on integer forms: (L, L * mu) for a distance and (D, D * col,
D * row) for a point, D any common denominator, each built on first use and
kept on the object.  A kernel scales its inputs to one common denominator
(one lcm per call) and builds Fractions only for the values it returns;
each point it returns carries its integer form.

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
  the coupling slacks directly, and each result is certified in T or Q+.
  Of the subset directions onto Q+, only the zero-slack sets move, so that
  sweep takes at most n steps a side;
- balance of point sets, balanced sections of Q over the tropical quotient,
  and the interval-based extension of a balanced set to further fibers;
- geodesic_polyline: exact geodesics through pointwise retraction.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from fractions import Fraction
from math import lcm
from typing import List, Optional, Sequence, Tuple

from .errors import DomainError, certify
from .metrics import DirectedDistance, Element, GroundSet, as_fraction, lcm_scaled, scaled_entries

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
    return ExtPoint(ground, tuple([as_fraction(c) for c in col]), tuple([as_fraction(r) for r in row]))


@dataclass(frozen=True)
class Fiber:
    """A point of Q modulo translation along the all-ones line.

    Two fibers are equal when their representatives differ by a multiple of
    (+1 columns, -1 rows); the canonical representative shifts the minimum
    row coordinate to zero.
    """

    representative: ExtPoint

    def canonical(self) -> ExtPoint:
        return _section_shift(self.representative)

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
        return frozenset(_sides(self.n, _uncovered(self.n, self._mask()))[0])

    def isolated_rows(self) -> frozenset:
        return frozenset(_sides(self.n, _uncovered(self.n, self._mask()))[1])

    def _mask(self) -> int:
        """The edges as a binding mask without zero coordinates."""
        return sum(_edge_bit(self.n, s, t) for s, t in self.edges)

    def components(self) -> List[Tuple[frozenset, frozenset]]:
        """Connected components as (column set, row set), isolated vertices
        appearing as singletons.  Deterministic order: components holding a
        column by their smallest column, then the isolated rows by index."""
        sides = [_sides(self.n, c) for c in _component_masks(self.n, self._mask())]
        return [(frozenset(cols), frozenset(rows)) for cols, rows in sides]


# -- integer forms -------------------------------------------------------------


def _times(xs: Tuple[int, ...], f: int) -> Tuple[int, ...]:
    return xs if f == 1 else tuple([x * f for x in xs])


def _matrix_times(m: Tuple[Tuple[int, ...], ...], f: int) -> Tuple[Tuple[int, ...], ...]:
    return m if f == 1 else tuple([_times(r, f) for r in m])


def _form(p: ExtPoint) -> Tuple[int, Tuple[int, ...], Tuple[int, ...]]:
    """(D, D * col, D * row) for a common denominator D: built on first use
    unless the point came with it (``_known``), and kept in the point's
    ``__dict__``, outside its fields, so equality and hashing ignore it."""
    form = p.__dict__.get("_scaled")
    if form is None:
        d, xs = lcm_scaled(p.col + p.row)
        form = p.__dict__["_scaled"] = d, tuple(xs[: p.n]), tuple(xs[p.n :])
    return form


def _known(p: ExtPoint, d: int, col: Sequence[int], row: Sequence[int]) -> ExtPoint:
    """p with its integer form (d, d * p.col, d * p.row) put in place, so that
    no kernel rescans its Fractions."""
    p.__dict__["_scaled"] = (d, tuple(col), tuple(row))
    return p


def _point(ground: GroundSet, d: int, col: Sequence[int], row: Sequence[int]) -> ExtPoint:
    """The point (col / d, row / d), built with its integer form."""
    return _known(
        ExtPoint(ground, tuple([Fraction(x, d) for x in col]), tuple([Fraction(x, d) for x in row])),
        d,
        col,
        row,
    )


def _common(mu: DirectedDistance, p: ExtPoint):
    """(M, M * mu, M * p.col, M * p.row) as integers, M = lcm(L, D) for the
    integer forms (L, L * mu) and (D, D * col, D * row)."""
    scale, m = scaled_entries(mu)
    d, col, row = _form(p)
    if d == scale:
        return d, m, col, row
    big = lcm(scale, d)
    return big, _matrix_times(m, big // scale), _times(col, big // d), _times(row, big // d)


def _nonneg(col: Sequence[int], row: Sequence[int]) -> bool:
    return min(col) >= 0 and min(row) >= 0


# -- binding masks -------------------------------------------------------------


def _edge_bit(n: int, s: int, t: int) -> int:
    """Bit of tight coupling (s, t) in a binding mask.  Zero column s is bit
    s, zero row t bit n + t, and coupling (s, t) bit 2n + 1 + s*n + t: the
    numbers double description gives the constraints of P, bit 2n (the
    homogenizing coordinate) left clear."""
    return 1 << (2 * n + 1 + s * n + t)


def _mask(m: Sequence[Sequence[int]], col: Sequence[int], row: Sequence[int]) -> Optional[int]:
    """The zero coordinates and tight couplings of the point (col, row) under
    the distance m, all three over one denominator, from one pass over the
    couplings; None when the point violates a coupling, that is, lies
    outside Pi."""
    n = len(col)
    b, bit = 0, _edge_bit(n, 0, 0)
    for x, es in zip(col, m):
        for y, v in zip(row, es):
            w = x + y
            if w == v:
                b |= bit
            elif w < v:
                return None
            bit <<= 1
    for i, x in enumerate(col):
        if not x:
            b |= 1 << i
    for i, y in enumerate(row, n):
        if not y:
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
    return tuple([divmod(i, n) for i in range(n * n) if tight >> i & 1])


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
    return tuple([s for s in range(n) if c >> s & 1]), tuple([t for t in range(n) if c >> (n + t) & 1])


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
    (d, pc, pr), (dq, qc, qr) = _form(p), _form(q)
    if dq != d:
        big = lcm(d, dq)
        pc, pr = _times(pc, big // d), _times(pr, big // d)
        qc, qr = _times(qc, big // dq), _times(qr, big // dq)
        d = big
    up = max([b - a for a, b in zip(pc, qc)] + [a - b for a, b in zip(pr, qr)])
    return Fraction(max(up, 0), d)


def norm_pair(p: ExtPoint) -> Fraction:
    """dinf(0, p) + dinf(p, 0) written as a norm of the coordinate vector."""
    up = max(max(max(x, F0) for x in p.col), max(max(-x, F0) for x in p.row))
    dn = max(max(max(-x, F0) for x in p.col), max(max(x, F0) for x in p.row))
    return up + dn


# -- membership --------------------------------------------------------------


def equality_graph(mu: DirectedDistance, p: ExtPoint) -> EqualityGraph:
    """Tight couplings at p; p must satisfy all coupling constraints."""
    _check_ground(mu, p)
    b = _mask(*_common(mu, p)[1:])
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
    return _where(*_common(mu, p)[1:])


def _where(m: Sequence[Sequence[int]], col: Sequence[int], row: Sequence[int]) -> Tuple[Membership, Optional[int]]:
    """``_membership`` of the point (col, row) under m, all over one
    denominator."""
    b = _mask(m, col, row)
    if b is None:
        return Membership.OUTSIDE, b
    uncovered = _uncovered(len(col), b)
    if _nonneg(col, row):
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
    scale, m = scaled_entries(mu)
    col, row = [r[i] for r in m], m[i]
    in_row = [max([r[t] - r[i] for r in m]) for t in range(mu.n)]
    out_col = [max([a - b for a, b in zip(r, row)]) for r in m]
    g = mu.ground
    return (
        _point(g, scale, col, row),
        _point(g, scale, col, in_row),
        _point(g, scale, out_col, row),
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
    d, m, col, row = _common(mu, p)
    if _mask(m, col, row) is None or not _nonneg(col, row):
        raise DomainError("NotInP", "retraction is defined on P")
    return _point(p.ground, d, *_into_tight_span(m, col, row))


def _lower(m: Sequence[Sequence[int]], col: Sequence[int], row: Sequence[int]) -> Tuple[List[int], List[int]]:
    """The sweep of ``retract_to_tight_span`` on integers over one
    denominator."""
    col, row = list(col), list(row)
    for i in reversed(range(len(col))):
        row[i] = max(0, max([r[i] - x for r, x in zip(m, col)]))
        col[i] = max(0, max([v - y for v, y in zip(m[i], row)]))
    return col, row


def _into_tight_span(m: Sequence[Sequence[int]], col: Sequence[int], row: Sequence[int]) -> Tuple[List[int], List[int]]:
    """``_lower`` with its result certified in T."""
    col, row = _lower(m, col, row)
    certify(_where(m, col, row)[0] in _IN_T, "retraction left the tight span")
    return col, row


def _subset_sweep(up: List[int], down: List[int], slack: List[int]) -> None:
    """Move along +1 on a proper subset of the up coordinates and -1 on every
    down coordinate, for each subset in turn, as far as P allows.

    slack[u] is the least slack of the couplings of up coordinate u.  A step
    on A stops when a down coordinate reaches zero or a coupling of an up
    coordinate outside A becomes tight; those slacks and the least down
    coordinate fall by the step, the others stay.  So a step moves exactly
    when A holds Z, the up coordinates of zero slack, and after it either
    the least down coordinate is zero or Z has grown past A.  Of the
    nonempty proper subsets in (size, lex) order, the ones that move are
    therefore Z ({0} while Z is empty) and then each grown Z in turn, until
    the least down coordinate is zero or Z holds every up coordinate: at
    most n steps.
    """
    n, low = len(up), min(down)
    a = {u for u in range(n) if not slack[u]} or {0}
    while low and len(a) < n:
        step = min([low] + [slack[u] for u in range(n) if u not in a])
        low -= step
        for u in range(n):
            if u in a:
                up[u] += step
            else:
                slack[u] -= step
        for v in range(len(down)):
            down[v] -= step
        a = {u for u in range(n) if not slack[u]}


def retract_to_qplus(mu: DirectedDistance, p: ExtPoint) -> ExtPoint:
    """Cyclically nonexpansive retraction of the tight span onto Q+.

    Sweeps the column directions (+1 on a subset of columns, -1 on all rows)
    over all nonempty proper subsets in inclusion-compatible order, then the
    symmetric row directions, each step as far as P allows.  Only the
    zero-slack sets move (``_subset_sweep``), so each sweep steps on those
    alone, at most n times.  Fixes Q+ pointwise.
    """
    _check_ground(mu, p)
    if not in_tight_span(mu, p):
        raise DomainError("NotInTightSpan", "retraction onto Q+ starts from the tight span")
    d, m, col, row = _common(mu, p)
    col, row = list(col), list(row)
    _subset_sweep(col, row, [min([x + y - v for y, v in zip(row, r)]) for x, r in zip(col, m)])
    _subset_sweep(row, col, [min([x + y - r[t] for x, r in zip(col, m)]) for t, y in enumerate(row)])
    certify(_where(m, col, row)[0] is Membership.QPLUS, "retraction left Q+")
    return _point(p.ground, d, col, row)


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
        return _section_shift(p)
    return extend_to_balanced_section(mu, anchors, [Fiber(p)])[0]


def _section_shift(p: ExtPoint) -> ExtPoint:
    """The translate of p along its fiber whose least row coordinate is 0."""
    d, col, row = _form(p)
    t = min(row)
    return _point(p.ground, d, [x + t for x in col], [y - t for y in row])


def canonical_section_membership(mu: DirectedDistance, p: ExtPoint) -> bool:
    """Member of Q+ whose minimum row coordinate is zero."""
    return classify_membership(mu, p) is Membership.QPLUS and min(p.row) == 0


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
        # current is empty only without anchors, where qplus_mode holds, so
        # lows and highs are never empty
        lows, highs = [], []
        if qplus_mode:
            lows.append(max(-c for c in p0.col))
            highs.append(min(p0.row))
        for q in current:
            diffs = [qc - pc for pc, qc in zip(p0.col, q.col)]
            lows.append(min(diffs))
            highs.append(max(diffs))
        lower = max(lows)
        if lower > min(highs):
            raise DomainError("EmptyIntersection", "no balanced representative on the fiber")
        ans = p0.fiber_shift(lower)
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
    # over d = k * lcm(L, D_p, D_q) every point p + (i/k)(q - p) is integral
    scale, m = scaled_entries(mu)
    (dp, pc, pr), (dq, qc, qr) = _form(p), _form(q)
    base = lcm(scale, dp, dq)
    d = k * base
    m = _matrix_times(m, d // scale)
    pb, qb = _times(pc + pr, base // dp), _times(qc + qr, base // dq)
    n, out = mu.n, []
    for i in range(k + 1):
        x = [k * a + i * (b - a) for a, b in zip(pb, qb)]
        out.append(_point(p.ground, d, *_into_tight_span(m, x[:n], x[n:])))
    return out
