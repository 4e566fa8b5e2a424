"""Dimension and tropical rank through bipartite matchings.

The dimension of the tight span and the tropical rank of a directed distance
are both read off from maximum-weight matchings on square submatrices:

- tropical rank is the largest k for which some k x k submatrix has its
  best perfect matching attained uniquely;
- the tight span has dimension >= k exactly when some k x k submatrix has
  its best matching over *all* matchings (empty included) attained uniquely,
  and by a perfect one.

Since entries are nonnegative the two optimum values agree on every
submatrix; only the uniqueness question differs, by ties with smaller
matchings, i.e. zero-weight edges in the optimum.

The search runs on the integer matrix m = L * mu (``metrics.scaled_entries``,
L the least common multiple of the denominators): scaling by L > 0 keeps
every comparison and every tie.  One memoized recursion answers every minor
of one search.  For a row mask A and a column mask B with |A| = |B|, expand
along the highest row r of A:

    opt(A, B) = max over j in B of opt(A - r, B - j) + m[r][j],

with opt(empty, empty) = 0.  The optima of (A, B) are exactly the optima of
the sub-minors at the maximizing columns, each extended by (r, j).  So the
optimum of (A, B) is unique when exactly one column j attains the maximum
and the optimum of (A - r, B - j) is unique; in MT mode m[r][j] > 0 is
needed too, since dropping a zero-weight edge ties with a smaller matching.
Expanding along the highest row keeps the row masks of A's states to the
prefixes of A, so a search visits at most C(2n, n) states (A, B), with O(k)
work each, and neighbouring minors share their sub-minors.  The memo lives
for one search.  The witness matching is read off the memo by following
the unique maximizing column from the top row down.

The exact Hungarian algorithm and the alternating-cycle test on its
equality subgraph stay for the per-instance API, ``max_matching`` and
``is_unique_optimum``, which answer one instance of any size in polynomial
time.

Both uniqueness notions are closed downward.  If a (k+1) x (k+1) minor has
a unique optimum M of either kind, deleting one edge e of M with its row and
column leaves a k x k minor whose unique optimum of the same kind is M - e:
a rival N there would make N + e a rival of M.  So the sizes with a unique
minor form an interval 1..K, and the search runs bottom-up: sizes k = 1, 2,
... in turn, each scanned in lexicographic order of (rows, cols) until its
first hit, stopping at the first size with none.  The witness is the first
hit at size K, the same minor a top-down scan would return.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from typing import List, Sequence, Tuple

from .errors import DomainError
from .metrics import DirectedDistance, Element, scaled_entries


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


def _minor_optima(m: Sequence[Sequence[int]], mode: str):
    """optimum(A, B) -> (value, unique) for the minor of the integer matrix m
    on row mask A and column mask B, |A| = |B| (see the module docstring).

    States are memoized under (A << n) | B for the life of the returned
    function.
    """
    n = len(m)
    positive = mode == "MT"
    memo = {0: (0, True)}

    def expand(a: int, b: int):
        r = a.bit_length() - 1
        rest = a ^ (1 << r)
        base = rest << n
        row = m[r]
        best, unique = -1, False
        c = b
        while c:
            low = c & -c
            c ^= low
            # a stored pair is a nonempty tuple, so never falsy
            value, sub_unique = memo.get(base | b ^ low) or expand(rest, b ^ low)
            w = row[low.bit_length() - 1]
            value += w
            if value > best:
                best, unique = value, sub_unique and (w > 0 or not positive)
            elif value == best:
                unique = False
        memo[(a << n) | b] = got = (best, unique)
        return got

    def optimum(a: int, b: int):
        return memo.get((a << n) | b) or expand(a, b)

    return optimum


def _search_unique(mu: DirectedDistance, mode: str):
    """Largest k with a unique k x k minor, bottom-up (see the module docstring)."""
    _, m = scaled_entries(mu)
    optimum = _minor_optima(m, mode)
    found = None
    for k in range(1, mu.n + 1):
        subsets = [(s, sum(1 << i for i in s)) for s in combinations(range(mu.n), k)]
        hit = next(((a, b) for a in subsets for b in subsets if optimum(a[1], b[1])[1]), None)
        if hit is None:
            break
        found = hit
    if found is None:
        return 0, None
    (rows, a), (cols, b) = found
    # the unique optimum: at each row, from the top down, the one column
    # whose sub-minor attains the minor's value
    pairs = []
    while a:
        value = optimum(a, b)[0]
        r = a.bit_length() - 1
        a ^= 1 << r
        j = next(j for j in cols if b >> j & 1 and optimum(a, b ^ (1 << j))[0] + m[r][j] == value)
        b ^= 1 << j
        pairs.append((r, j))
    pairs.sort()
    return len(rows), (rows, cols, tuple(pairs))


def dim_tight_span_witness(mu: DirectedDistance):
    """(dim, certificate) where the certificate is (rows, cols, matching)."""
    return _search_unique(mu, "MT")


def dim_tight_span(mu: DirectedDistance) -> int:
    """Dimension of the tight span of mu as a polyhedral complex."""
    return dim_tight_span_witness(mu)[0]


def tropical_rank_witness(mu: DirectedDistance):
    """(rank, certificate); rank is 1 + the dimension of the tropical span."""
    return _search_unique(mu, "PMT")


def tropical_rank(mu: DirectedDistance) -> int:
    return tropical_rank_witness(mu)[0]
