"""Dimension and tropical rank through bipartite matchings.

The dimension of the tight span and the tropical rank of a directed distance
are both read off from maximum-weight matchings on square submatrices:

- tropical rank is the largest k for which some k x k submatrix has its
  best perfect matching attained uniquely (mode PMT);
- the tight span has dimension >= k exactly when some k x k submatrix has
  its best matching over *all* matchings (empty included) attained uniquely,
  and by a perfect one (mode MT).

Since entries are nonnegative the two optimum values agree on every
submatrix; only the uniqueness question differs, by ties with smaller
matchings, i.e. zero-weight edges in the optimum.

The search for the minors with a unique optimum is ``metrics._search``,
which also decides the path and tree conditions.  Here it runs to the
largest size K with one, and the witness is the first unique K x K minor,
as a top-down scan would find it, with its matching.

The exact Hungarian algorithm and the alternating-cycle test on its
equality subgraph stay for the per-instance API, ``max_matching`` and
``is_unique_optimum``, which answer one instance of any size in polynomial
time.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Sequence, Tuple

from .errors import DomainError
from .metrics import DirectedDistance, Element, _search, as_fraction


@dataclass(frozen=True)
class MatchingInstance:
    """Complete bipartite instance w[i][j] = mu(rows[i], cols[j])."""

    rows: Tuple[int, ...]
    cols: Tuple[int, ...]
    weights: Tuple[Tuple[Fraction, ...], ...]

    def __post_init__(self):
        k = len(self.rows)
        if k < 1 or len(self.cols) != k:
            raise DomainError("NonSquare", "matching instances are square and nonempty")
        if len(self.weights) != k or any(len(r) != k for r in self.weights):
            raise DomainError("NonSquare", "weight matrix shape mismatch")
        object.__setattr__(self, "weights", tuple(tuple(as_fraction(w) for w in r) for r in self.weights))
        if any(w < 0 for r in self.weights for w in r):
            raise DomainError("NegativeEntry", "matching weights must be nonnegative")

    @property
    def k(self) -> int:
        return len(self.rows)

    @classmethod
    def from_distance(cls, mu: DirectedDistance, a: Sequence[Element], b: Sequence[Element]) -> "MatchingInstance":
        rows = tuple(mu.ground.index_of(x) for x in a)
        cols = tuple(mu.ground.index_of(x) for x in b)
        if len(set(rows)) != len(rows) or len(set(cols)) != len(cols):
            raise DomainError("DuplicateLabel", "subsets must consist of distinct elements")
        w = tuple(tuple(mu.entries[i][j] for j in cols) for i in rows)
        return cls(rows, cols, w)


def _hungarian_max(w: Sequence[Sequence]):
    """Maximum-weight perfect matching on a square matrix, exact.

    Returns (row_to_col, u, v) with feasible potentials u[i] + v[j] >= w[i][j]
    tight on the matching, which certifies optimality.  Only additions,
    subtractions and comparisons are used, so integer weights stay integers
    and Fraction weights stay exact.
    """
    k = len(w)
    u = [max(row) for row in w]
    v = [0] * k
    row_to_col = [-1] * k
    col_to_row = [-1] * k
    for root in range(k):
        in_tree_rows = [root]
        in_tree_cols = [False] * k
        # slack[j]: smallest reduced cost from a tree row to column j
        slack = [u[root] + v[j] - w[root][j] for j in range(k)]
        slack_row = [root] * k
        while True:
            delta = None
            jstar = -1
            for j in range(k):
                if in_tree_cols[j]:
                    continue
                if delta is None or slack[j] < delta:
                    delta = slack[j]
                    jstar = j
            if delta > 0:
                for i in in_tree_rows:
                    u[i] -= delta
                for j in range(k):
                    if in_tree_cols[j]:
                        v[j] += delta
                    else:
                        slack[j] -= delta
            in_tree_cols[jstar] = True
            if col_to_row[jstar] == -1:
                # augment along the alternating path ending at jstar
                j = jstar
                while True:
                    i = slack_row[j]
                    col_to_row[j] = i
                    row_to_col[i], j = j, row_to_col[i]
                    if j == -1:
                        break
                break
            i2 = col_to_row[jstar]
            in_tree_rows.append(i2)
            for j in range(k):
                if not in_tree_cols[j]:
                    s2 = u[i2] + v[j] - w[i2][j]
                    if s2 < slack[j]:
                        slack[j] = s2
                        slack_row[j] = i2
    return row_to_col, u, v


def _has_alternating_cycle(tight: List[List[bool]], row_to_col: List[int]) -> bool:
    """Directed cycle mixing matched and tight unmatched edges.

    Arcs: column -> its matched row, row -> every other tight column.  A cycle
    yields a second optimal perfect matching and vice versa.
    """
    k = len(row_to_col)
    adj: List[List[int]] = [[] for _ in range(2 * k)]  # rows 0..k-1, cols k..2k-1
    for i in range(k):
        for j in range(k):
            if tight[i][j] and row_to_col[i] != j:
                adj[i].append(k + j)
    for i in range(k):
        adj[k + row_to_col[i]].append(i)
    color = [0] * (2 * k)  # 0 new, 1 active, 2 done
    for start in range(2 * k):
        if color[start]:
            continue
        stack = [(start, iter(adj[start]))]
        color[start] = 1
        while stack:
            node, it = stack[-1]
            advanced = False
            for nxt in it:
                if color[nxt] == 1:
                    return True
                if color[nxt] == 0:
                    color[nxt] = 1
                    stack.append((nxt, iter(adj[nxt])))
                    advanced = True
                    break
            if not advanced:
                color[node] = 2
                stack.pop()
    return False


def max_matching(instance: MatchingInstance, mode: str = "MT"):
    """Optimal matching value and one attaining matching.

    mode "PMT": perfect matchings only.  mode "MT": all matchings including
    the empty one; the value coincides (weights are nonnegative) and the
    returned matching drops zero-weight edges.
    Returns (value, [(row element, col element), ...]).
    """
    if mode not in ("MT", "PMT"):
        raise DomainError("UsageError", f"unknown matching mode {mode!r}")
    row_to_col, _, _ = _hungarian_max(instance.weights)
    value = sum(instance.weights[i][row_to_col[i]] for i in range(instance.k))
    pairs = []
    for i in range(instance.k):
        j = row_to_col[i]
        if mode == "MT" and instance.weights[i][j] == 0:
            continue
        pairs.append((instance.rows[i], instance.cols[j]))
    pairs.sort()
    return value, pairs


def is_unique_optimum(instance: MatchingInstance, mode: str = "MT") -> bool:
    """Whether the optimum of the given mode is attained exactly once.

    PMT: no alternating cycle in the equality subgraph of an optimal dual.
    MT: additionally, the optimal perfect matching uses no zero-weight edge,
    since dropping one would tie with a smaller matching.
    """
    if mode not in ("MT", "PMT"):
        raise DomainError("UsageError", f"unknown matching mode {mode!r}")
    w = instance.weights
    k = instance.k
    row_to_col, u, v = _hungarian_max(w)
    if mode == "MT" and any(w[i][row_to_col[i]] == 0 for i in range(k)):
        return False
    tight = [[u[i] + v[j] == w[i][j] for j in range(k)] for i in range(k)]
    return not _has_alternating_cycle(tight, row_to_col)


def dim_tight_span_witness(mu: DirectedDistance):
    """(dim, certificate) where the certificate is (rows, cols, matching)."""
    return _search(mu, "MT")[:2]


def dim_tight_span(mu: DirectedDistance) -> int:
    """Dimension of the tight span of mu as a polyhedral complex."""
    return dim_tight_span_witness(mu)[0]


def tropical_rank_witness(mu: DirectedDistance):
    """(rank, certificate); rank is 1 + the dimension of the tropical span."""
    return _search(mu, "PMT")[:2]


def tropical_rank(mu: DirectedDistance) -> int:
    return tropical_rank_witness(mu)[0]
