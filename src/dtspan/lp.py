"""Exact linear programming: an integer primal simplex for packing programs.

Every program here has one form: maximize c . x subject to A x <= b and
x >= 0, with b >= 0 and A of any sign.  That is the path LP of the maximum
multiflow, and any restricted master built from its columns.  The all-slack
basis is feasible for it, so the simplex starts there with no phase 1 and
ends OPTIMAL or UNBOUNDED; an infeasible program cannot be stated.

Bland's rule everywhere, so no cycling and no tolerances.  The tableau holds
Python ints and its pivots never divide.  Each row starts scaled by the
least common multiple of its own denominators and is held projectively: it
stands for row / row[basis[i]], with that entry kept positive, and a pivot
cross-multiplies and then divides the row by the gcd of its entries.  The
objective row (the reduced costs) is one more such row, z / zd, updated by
every pivot, so pricing is a scan of its signs.  The ratio test compares
cross products, from which the row scales cancel, so every comparison and
tie is that of the rational tableau and the pivot sequence is the one of
the Fraction simplex.  Rows are stored dense, sized for the
few-hundred-variable programs the flow module produces, but pivots and the
certificate skip zero entries, which 0/1 path rows are mostly made of.
Every optimal solve is returned together with dual multipliers y >= 0
satisfying A^T y >= c and b . y = c . x, and is re-verified against that
certificate, by integer substitution into the program itself, before it
leaves this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd
from typing import List, Optional, Tuple

from .errors import DomainError, certify
from .metrics import as_fraction, lcm_scaled

F0 = Fraction(0)

OPTIMAL = "optimal"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    """maximize objective . x subject to rows x <= rhs, x >= 0; rhs >= 0."""

    objective: Tuple[Fraction, ...]
    rows: Tuple[Tuple[Fraction, ...], ...]
    rhs: Tuple[Fraction, ...]

    def __post_init__(self):
        n = len(self.objective)
        if len(self.rows) != len(self.rhs):
            raise DomainError("MalformedLP", "row and rhs counts differ")
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise DomainError("MalformedLP", f"row {i} has width {len(row)}, expected {n}")
        for i, b in enumerate(self.rhs):
            if b < 0:
                raise DomainError("MalformedLP", f"row {i} has a negative right-hand side")

    @property
    def nvars(self) -> int:
        return len(self.objective)


def linear_program(objective, rows, rhs) -> LinearProgram:
    """Build a validated program: maximize c . x, A x <= b, x >= 0, b >= 0."""
    return LinearProgram(
        tuple(as_fraction(c) for c in objective),
        tuple(tuple(as_fraction(a) for a in row) for row in rows),
        tuple(as_fraction(b) for b in rhs),
    )


@dataclass(frozen=True)
class LPSolution:
    status: str
    x: Optional[Tuple[Fraction, ...]] = None
    value: Optional[Fraction] = None
    duals: Optional[Tuple[Fraction, ...]] = None


def certificate_ok(lp: LinearProgram, sol: LPSolution) -> bool:
    """Full optimality certificate by direct substitution: x >= 0, A x <= b,
    y >= 0, A^T y >= c and c . x = value = b . y.

    x, y, A|b and c are each scaled to integers by the least common multiple
    of their denominators (Lx, Ly, La, Lc), and every check is the rational
    one multiplied through by those positive scales.
    """
    if sol.status != OPTIMAL or sol.x is None or sol.duals is None or sol.value is None:
        return False
    if len(sol.x) != lp.nvars or len(sol.duals) != len(lp.rows):
        return False
    lx, x = lcm_scaled(sol.x)
    ly, y = lcm_scaled(sol.duals)
    if any(v < 0 for v in x) or any(v < 0 for v in y):
        return False
    la, ab = lcm_scaled([a for row in lp.rows for a in row] + list(lp.rhs))
    lc, c = lcm_scaled(lp.objective)
    n = lp.nvars
    b = ab[len(ab) - len(lp.rhs) :]
    pulled = [0] * n
    for i, yi in enumerate(y):
        row = ab[i * n : (i + 1) * n]
        # A x <= b, times La * Lx
        if sum(a * v for a, v in zip(row, x) if a and v) > b[i] * lx:
            return False
        if yi:
            for j, a in enumerate(row):
                if a:
                    pulled[j] += yi * a
    # A^T y >= c, times La * Ly * Lc
    if any(p * lc < cj * la * ly for p, cj in zip(pulled, c)):
        return False
    # c . x = value, times Lc * Lx * value.denominator; c . x = b . y, times Lc * Lx * La * Ly
    primal = sum(cj * v for cj, v in zip(c, x) if cj and v)
    dual = sum(bi * yi for bi, yi in zip(b, y) if bi and yi)
    value = sol.value
    return (
        primal * value.denominator == value.numerator * lc * lx
        and primal * la * ly == dual * lc * lx
    )


def solve(lp: LinearProgram) -> LPSolution:
    """Simplex from the all-slack basis; optimal results carry a verified dual certificate."""
    m, n = len(lp.rows), lp.nvars
    ncols = n + m
    # Row i is held projectively: its true value is row / row[basis[i]], and
    # row[basis[i]] > 0.  Column n + i is the slack of row i; the last column
    # is the right-hand side.  Each row starts scaled by the least common
    # multiple of its own denominators, which lands on its slack.
    tab: List[List[int]] = []
    for i, (row, b) in enumerate(zip(lp.rows, lp.rhs)):
        scale, ints = lcm_scaled([*row, b])
        cells = ints[:n] + [0] * m + ints[n:]
        cells[n + i] = scale
        tab.append(cells)
    basis: List[int] = list(range(n, ncols))
    # the reduced costs are z / zd with zd > 0; last entry: the objective value
    zd, c = lcm_scaled(lp.objective)
    z = [-v for v in c] + [0] * (m + 1)

    while True:
        enter = next((j for j in range(ncols) if z[j] < 0), -1)
        if enter < 0:
            break
        # Bland's ratio test; each row's own scale cancels from the comparison
        leave = -1
        for i, row in enumerate(tab):
            if row[enter] > 0:
                if leave < 0:
                    leave = i
                    continue
                best = tab[leave]
                mine, theirs = row[-1] * best[enter], best[-1] * row[enter]
                if mine < theirs or (mine == theirs and basis[i] < basis[leave]):
                    leave = i
        if leave < 0:
            return LPSolution(UNBOUNDED)
        prow = tab[leave]
        p = prow[enter]
        for i, row in enumerate(tab):
            f = row[enter]
            if i != leave and f:
                new = [a * p - f * v if v else a * p for a, v in zip(row, prow)]
                g = gcd(*new)
                tab[i] = [a // g for a in new] if g > 1 else new
        f = z[enter]
        z = [a * p - f * v if v else a * p for a, v in zip(z, prow)]
        zd *= p
        g = gcd(zd, *z)
        if g > 1:
            z = [a // g for a in z]
            zd //= g
        basis[leave] = enter

    x = [F0] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = Fraction(tab[i][-1], tab[i][b])
    duals = tuple([Fraction(v, zd) for v in z[n:ncols]])
    sol = LPSolution(OPTIMAL, tuple(x), Fraction(z[-1], zd), duals)
    certify(certificate_ok(lp, sol), "simplex returned an uncertified optimum")
    return sol
