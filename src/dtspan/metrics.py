"""Directed distances on finite ground sets.

A directed distance is a square matrix of nonnegative rationals with zero
diagonal; symmetry is not assumed, and neither is the triangle inequality
unless the matrix is a directed metric.  This module holds the matrix types
plus the scalar-level machinery built on them:

- validation and the directed triangle-inequality test,
- cycle lengths and congruence of two distances by a potential,
- the search for the square minors whose best matching is attained once,
- the quadruple condition characterizing one-dimensional tight spans and
  the sextuple condition characterizing tropical rank at most two, both
  read off that search,
- the two-part test for metrics realizable on an oriented tree with
  single-vertex subtrees.

All witnesses returned by the condition checkers are the lexicographically
smallest violating index tuples, so results are reproducible bit for bit.

The triangle test, the minor search and the condition checkers only add and
compare entries, never divide, so they run on the integer matrix m = L * mu
from ``scaled_entries`` (L the least common multiple of the denominators).
Scaling by L > 0 keeps every comparison and every tie, so the verdicts and
witnesses are those of the rational matrix.  A distance builds (L, L * mu)
once, on first use, and keeps it; ``complexes``, ``rank`` and ``geometry``
read the same form, and it and ``lp`` scale through ``lcm_scaled``.

The minor search counts a minor's perfect matchings in mode PMT and all of
its matchings, the empty one included, in mode MT.  The path condition
fails where a 2 x 2 minor has a unique MT optimum (dim T >= 2), the tree
condition where a 3 x 3 minor has a unique PMT optimum (tropical rank
>= 3); ``CONDITIONS`` holds both pairs.  One memoized recursion answers
every minor of one search.  For a row mask A and a column mask B with
|A| = |B|, expand along the highest row r of A:

    opt(A, B) = max over j in B of opt(A - r, B - j) + m[r][j],

with opt(empty, empty) = 0.  The optima of (A, B) are exactly the optima of
the sub-minors at the maximizing columns, each extended by (r, j).  So the
optimum of (A, B) is unique when exactly one column j attains the maximum
and the optimum of (A - r, B - j) is unique; in MT mode m[r][j] > 0 is
needed too, since dropping a zero-weight edge ties with a smaller matching.
Expanding along the highest row keeps the row masks of A's states to the
prefixes of A, so a search visits at most C(2n, n) states (A, B), with O(k)
work each, and neighbouring minors share their sub-minors.  The memo lives
for one search, and no closure refers to itself, so it is freed when the
search returns.  A unique optimum is read off the memo by following the
unique maximizing column from the top row down.

Both uniqueness notions are closed downward.  If a (k+1) x (k+1) minor has
a unique optimum M of either kind, deleting one edge e of M with its row and
column leaves a k x k minor whose unique optimum of the same kind is M - e:
a rival N there would make N + e a rival of M.  So the sizes with a unique
minor form an interval 1..K, and the search runs bottom-up: sizes k = 1, 2,
... in turn, each scanned in lexicographic order of (rows, cols), stopping
at the first size with none.  ``_search`` is that loop, for ``rank``, the
checkers and ``cli check`` alike.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction
from itertools import chain, combinations, product, takewhile
from math import lcm
from typing import Dict, List, Optional, Sequence, Tuple, Union

from .errors import DomainError

Element = Union[str, int]
# A potential maps ground-set labels to rationals; used for congruence.
Potential = Dict[str, Fraction]
# A cyclic sequence of elements; consecutive pairs plus the wrap-around pair
# are the steps of the cycle.
CyclicSequence = Tuple[Element, ...]

@dataclass(frozen=True)
class GroundSet:
    """Ordered finite set of distinct labels."""

    labels: Tuple[str, ...]

    def __post_init__(self):
        if len(self.labels) < 1:
            raise DomainError("NonSquare", "ground set must have at least one element")
        # an int label would read as an index in ``index_of``
        if not all(isinstance(x, str) for x in self.labels):
            raise DomainError("InputParseError", f"labels must be strings: {_shown(self.labels)}")
        if len(set(self.labels)) != len(self.labels):
            raise DomainError("DuplicateLabel", f"duplicate labels in {_shown(self.labels)}")

    @property
    def n(self) -> int:
        return len(self.labels)

    def index_of(self, element: Element) -> int:
        """Resolve a label or integer index to an index.

        Bools are neither, as in ``as_fraction``: ``True`` never reads as 1.
        """
        if isinstance(element, bool):
            raise DomainError("UnknownElement", f"element {_shown(element)} not in ground set")
        if isinstance(element, int):
            if not 0 <= element < self.n:
                raise DomainError("IndexOutOfRange", f"index {element} out of range for n={self.n}")
            return element
        try:
            return self.labels.index(element)
        except ValueError:
            raise DomainError("UnknownElement", f"element {_shown(element)} not in ground set") from None


@dataclass(frozen=True)
class DirectedDistance:
    """Nonnegative rational matrix with zero diagonal over a ground set."""

    ground: GroundSet
    entries: Tuple[Tuple[Fraction, ...], ...]

    @property
    def n(self) -> int:
        return self.ground.n

    @property
    def labels(self) -> Tuple[str, ...]:
        return self.ground.labels

    def value(self, s: Element, t: Element) -> Fraction:
        return self.entries[self.ground.index_of(s)][self.ground.index_of(t)]

    def transpose(self) -> "DirectedDistance":
        n = self.n
        return DirectedDistance(
            self.ground,
            tuple([tuple([self.entries[j][i] for j in range(n)]) for i in range(n)]),
        )

    def restrict(self, elements: Sequence[Element]) -> "DirectedDistance":
        """Principal submatrix on the given elements, in the given order."""
        idx = [self.ground.index_of(e) for e in elements]
        ground = GroundSet(tuple([self.labels[i] for i in idx]))
        return DirectedDistance(
            ground, tuple([tuple([self.entries[i][j] for j in idx]) for i in idx])
        )


_RATIONAL = re.compile(r"-?[0-9]+(/[0-9]+)?")


def as_fraction(x) -> Fraction:
    """The one rational parser: an int, a Fraction or a "p/q" string.

    Floats are rejected so no rounding can sneak in, and bools are rejected
    so that ``True`` never reads as 1.  A Fraction is returned as it is.  A
    string must be an optionally negative integer, optionally over a nonzero
    natural denominator, with nothing around it: one match of ``_RATIONAL``
    rejects decimals, exponents, underscores, spaces and non-ASCII digits
    before any arithmetic, and the string is then read as ``Fraction(int(p),
    int(q))`` (``Fraction(int(p))`` without a denominator).  A zero
    denominator, or digits past Python's int-to-string limit, are
    ``InputParseError``, as is everything else.
    """
    if type(x) is Fraction:
        return x
    if isinstance(x, str):
        if _RATIONAL.fullmatch(x):
            p, _, q = x.partition("/")
            try:
                return Fraction(int(p), int(q)) if q else Fraction(int(p))
            except (ValueError, ZeroDivisionError):
                pass
    elif isinstance(x, (bool, float)):
        raise DomainError("InputParseError", f"exact rational required, got {x!r}")
    elif isinstance(x, Fraction):
        return x
    elif isinstance(x, int):
        return Fraction(x)
    raise DomainError("InputParseError", f"not a rational: {_shown(x)}")


def _shown(x) -> str:
    """repr(x), cut to its first 40 characters plus its length when longer,
    so that an error message never echoes a huge input whole."""
    r = repr(x)
    return r if len(r) <= 40 else f"{r[:40]}... ({len(r)} characters)"


def validate_distance(matrix: Sequence[Sequence], labels: Optional[Sequence[str]] = None) -> DirectedDistance:
    """Build a DirectedDistance, rejecting malformed input.

    Checks squareness, nonnegativity, and zero diagonal.  Labels default to
    x0, x1, ... when not given.
    """
    n = len(matrix)
    if n == 0:
        raise DomainError("NonSquare", "empty matrix")
    rows = []
    for i, row in enumerate(matrix):
        if len(row) != n:
            raise DomainError("NonSquare", f"row {i} has length {len(row)}, expected {n}")
        rows.append(tuple([as_fraction(x) for x in row]))
    # denominators are positive, so the numerators carry the signs
    for i, row in enumerate(rows):
        if row[i].numerator:
            raise DomainError("NonzeroDiagonal", f"entry ({i},{i}) is {_shown(str(row[i]))}, expected 0")
        for j, x in enumerate(row):
            if x.numerator < 0:
                raise DomainError("NegativeEntry", f"entry ({i},{j}) is {_shown(str(x))}")
    if labels is None:
        labels = tuple(f"x{i}" for i in range(n))
    ground = GroundSet(tuple(labels))
    if ground.n != n:
        raise DomainError("NonSquare", f"{ground.n} labels for a {n}x{n} matrix")
    return DirectedDistance(ground, tuple(rows))


def distance_from_entries(entries, labels=None) -> DirectedDistance:
    """Shorthand used throughout the tests."""
    return validate_distance(entries, labels)


def lcm_scaled(values: Sequence[Fraction]) -> Tuple[int, List[int]]:
    """(L, L * values): L is the least common multiple of the values'
    denominators, so every scaled value is an integer.  The one scaler of
    the integer routes in ``metrics``, ``complexes``, ``rank`` and ``lp``."""
    scale = lcm(*[x.denominator for x in values])
    if scale == 1:
        return 1, [x.numerator for x in values]
    return scale, [x.numerator * (scale // x.denominator) for x in values]


def scaled_entries(mu: DirectedDistance) -> Tuple[int, Tuple[Tuple[int, ...], ...]]:
    """(L, L * mu) row by row, with one L for the whole matrix: the integer
    form of mu, built on first use and kept in its ``__dict__``, outside its
    fields, so equality and hashing ignore it, and every checker, ``rank``,
    ``complexes`` and ``geometry`` share one scan of the denominators."""
    form = mu.__dict__.get("_scaled")
    if form is None:
        n = mu.n
        scale, flat = lcm_scaled([x for row in mu.entries for x in row])
        form = mu.__dict__["_scaled"] = scale, tuple([tuple(flat[i : i + n]) for i in range(0, n * n, n)])
    return form


def is_metric(mu: DirectedDistance) -> bool:
    """All ordered triangle inequalities mu(x,y) + mu(y,z) >= mu(x,z)."""
    n = mu.n
    _, e = scaled_entries(mu)
    for x in range(n):
        for y in range(n):
            for z in range(n):
                if e[x][y] + e[y][z] < e[x][z]:
                    return False
    return True


def cycle_length(d: DirectedDistance, cycle: Sequence[Element]) -> Fraction:
    """Sum of d along consecutive steps of the cycle, wrap-around included."""
    if len(cycle) < 1:
        raise DomainError("IndexOutOfRange", "cycle must have at least one point")
    idx = [d.ground.index_of(c) for c in cycle]
    total = Fraction(0)
    for a, b in zip(idx, idx[1:] + idx[:1]):
        total += d.entries[a][b]
    return total


def congruence_witness(d: DirectedDistance, d2: DirectedDistance) -> Optional[Potential]:
    """Potential alpha with d(x,y) = d2(x,y) - alpha(x) + alpha(y), or None.

    Normalized so alpha vanishes at the first label.  Congruence preserves
    every cycle length, and holds as soon as it holds on all 3-element cycles.
    """
    if d.ground != d2.ground:
        raise DomainError("GroundSetMismatch", "congruence needs a common ground set")
    n = d.n
    alpha = [d.entries[0][x] - d2.entries[0][x] for x in range(n)]
    for x in range(n):
        for y in range(n):
            if d.entries[x][y] != d2.entries[x][y] - alpha[x] + alpha[y]:
                return None
    return {d.labels[x]: alpha[x] for x in range(n)}


# condition -> (matching mode, minor size) of the minors that violate it
CONDITIONS = {"path": ("MT", 2), "tree": ("PMT", 3)}


def _expand(m, n: int, positive: bool, memo: dict, a: int, b: int):
    """(value, unique) of the minor (A, B) from its sub-minors, memoized."""
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
        value, sub_unique = memo.get(base | b ^ low) or _expand(m, n, positive, memo, rest, b ^ low)
        w = row[low.bit_length() - 1]
        value += w
        if value > best:
            best, unique = value, sub_unique and (w > 0 or not positive)
        elif value == best:
            unique = False
    memo[(a << n) | b] = got = (best, unique)
    return got


def _minor_optima(m: Sequence[Sequence[int]], mode: str):
    """optimum(A, B) -> (value, unique) for the minor of the integer matrix m
    on row mask A and column mask B, |A| = |B| (see the module docstring).

    States are memoized under (A << n) | B for the life of the returned
    function, which does not refer to itself, so no cycle keeps the memo.
    """
    n = len(m)
    positive = mode == "MT"
    memo = {0: (0, True)}

    def optimum(a: int, b: int):
        return memo.get((a << n) | b) or _expand(m, n, positive, memo, a, b)

    return optimum


def _matching(m, optimum, a: int, b: int):
    """The unique optimum of the minor (A, B) as sorted (row, col) pairs: at
    each row, from the top down, the one column whose sub-minor attains the
    minor's value."""
    pairs = []
    while a:
        value = optimum(a, b)[0]
        r = a.bit_length() - 1
        a ^= 1 << r
        j = next(j for j in range(len(m)) if b >> j & 1 and optimum(a, b ^ (1 << j))[0] + m[r][j] == value)
        b ^= 1 << j
        pairs.append((r, j))
    return tuple(sorted(pairs))


def _search(mu: DirectedDistance, mode: str, size: int = 0, full: bool = True):
    """(K, witness, violator) from the bottom-up search, stopped after
    ``size`` unless ``full``.  The witness is the first unique K x K minor
    as (rows, cols, matching), its matching read only when ``size`` is 0.
    The violator is the smallest (rows, cols) whose ``size`` x ``size``
    minor has rows[i] -> cols[i] as its unique optimum, or None.  Repeated
    rows or columns tie with a transposition, and sorting the rows with
    their columns keeps a violator one.  So the smallest is the first row
    set with a unique minor, in ``combinations`` order, plus the smallest
    column tuple those minors match to it.
    """
    n = mu.n
    _, m = scaled_entries(mu)
    optimum = _minor_optima(m, mode)
    top, witness, violator = 0, None, None
    for k in range(1, n + 1):
        subsets = [(s, sum(1 << i for i in s)) for s in combinations(range(n), k)]
        hits = ((r, c, a, b) for (r, a), (c, b) in product(subsets, subsets) if optimum(a, b)[1])
        first = next(hits, None)
        if first is None:
            break
        top, witness = k, first
        if k == size:
            same = chain((first,), takewhile(lambda hit: hit[0] == first[0], hits))
            violator = first[0] + min(tuple(j for _, j in _matching(m, optimum, a, b)) for _, _, a, b in same)
            if not full:
                break
    if witness:
        rows, cols, a, b = witness
        witness = rows, cols, None if size else _matching(m, optimum, a, b)
    return top, witness, violator


def check_path_condition(mu: DirectedDistance) -> Tuple[bool, Optional[Tuple[int, int, int, int]]]:
    """Quadruple condition equivalent to the tight span being at most a segment.

    For every (s,t,u,v), with repeats allowed:
        mu(s,u) + mu(t,v) <= max{mu(s,v) + mu(t,u), mu(s,u), mu(s,v), mu(t,u), mu(t,v)}
    Returns (True, None) or (False, first violating quadruple), read off
    the 2 x 2 minors with a unique MT optimum.
    """
    violator = _search(mu, *CONDITIONS["path"], full=False)[2]
    return violator is None, violator


def check_tree_condition(mu: DirectedDistance) -> Tuple[bool, Optional[Tuple[int, ...]]]:
    """Sextuple condition equivalent to tropical rank at most two.

    For every (x,y,z,u,v,w), with repeats allowed, the diagonal sum
    mu(x,u) + mu(y,v) + mu(z,w) must not exceed the best of the other five
    ways to match {x,y,z} with {u,v,w}: no 3 x 3 minor has a unique PMT
    optimum.
    """
    violator = _search(mu, *CONDITIONS["tree"], full=False)[2]
    return violator is None, violator


def check_directed_tree_metric(mu: DirectedDistance) -> bool:
    """Test whether a directed metric is a directed tree metric.

    Two parts, both necessary and together sufficient:
    (i)  the symmetrization mu + mu^T satisfies the four-point condition;
    (ii) for every triple, both cyclic orders have the same total length.
    """
    if not is_metric(mu):
        raise DomainError("NotAMetric", "directed tree metrics are defined for metrics only")
    n = mu.n
    _, e = scaled_entries(mu)
    sig = [[e[i][j] + e[j][i] for j in range(n)] for i in range(n)]
    for s, t, u, v in product(range(n), repeat=4):
        if sig[s][t] + sig[u][v] > max(sig[s][u] + sig[t][v], sig[s][v] + sig[t][u]):
            return False
    for x, y, z in product(range(n), repeat=3):
        if e[x][y] + e[y][z] + e[z][x] != e[z][y] + e[y][x] + e[x][z]:
            return False
    return True
