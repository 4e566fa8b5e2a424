"""Exact linear programming: the primal simplex over Fractions for packing programs.

Every program here has one form: maximize c . x subject to A x <= b and
x >= 0, with b >= 0 and A of any sign.  That is the path LP of the maximum
multiflow, and any restricted master built from its columns.  The all-slack
basis is feasible for it, so the simplex starts there with no phase 1 and
ends OPTIMAL or UNBOUNDED; an infeasible program cannot be stated.

Bland's rule everywhere, so no cycling and no tolerances.  The tableau
keeps the objective row (the reduced costs) as one more row that every
pivot updates, so pricing is a scan of that row.  Rows are stored dense,
sized for the few-hundred-variable programs the flow module produces, but
pivots and the certificate skip zero entries, which 0/1 path rows are
mostly made of.  Every optimal solve is returned together with dual
multipliers y >= 0 satisfying A^T y >= c and b . y = c . x, and is
re-verified against that certificate before it leaves this module.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Tuple

from .errors import DomainError, certify
from .metrics import as_fraction

F0 = Fraction(0)
F1 = Fraction(1)

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
    y >= 0, A^T y >= c and c . x = value = b . y."""
    if sol.status != OPTIMAL or sol.x is None or sol.duals is None:
        return False
    x, y = sol.x, sol.duals
    if len(x) != lp.nvars or len(y) != len(lp.rows):
        return False
    if any(v < 0 for v in x) or any(v < 0 for v in y):
        return False
    for row, b in zip(lp.rows, lp.rhs):
        if sum((a * v for a, v in zip(row, x) if a and v), F0) > b:
            return False
    for j in range(lp.nvars):
        pulled = sum((yi * row[j] for yi, row in zip(y, lp.rows) if yi and row[j]), F0)
        if pulled < lp.objective[j]:
            return False
    primal = sum((c * v for c, v in zip(lp.objective, x) if c and v), F0)
    dual = sum((b * yi for b, yi in zip(lp.rhs, y) if b and yi), F0)
    return primal == sol.value and primal == dual


def solve(lp: LinearProgram) -> LPSolution:
    """Simplex from the all-slack basis; optimal results carry a verified dual certificate."""
    m, n = len(lp.rows), lp.nvars
    ncols = n + m
    # column n + i is the slack of row i; the last column is the right-hand side
    tab = [
        list(row) + [F1 if k == i else F0 for k in range(m)] + [b]
        for i, (row, b) in enumerate(zip(lp.rows, lp.rhs))
    ]
    basis: List[int] = list(range(n, ncols))
    # the reduced costs; last entry: the objective value
    z = [-c for c in lp.objective] + [F0] * (m + 1)

    while True:
        enter = next((j for j in range(ncols) if z[j] < 0), -1)
        if enter < 0:
            break
        leave, best = -1, None
        for i, row in enumerate(tab):
            if row[enter] > 0:
                ratio = row[-1] / row[enter]
                if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                    best, leave = ratio, i
        if leave < 0:
            return LPSolution(UNBOUNDED)
        piv = tab[leave][enter]
        if piv != 1:
            tab[leave] = [v / piv if v else v for v in tab[leave]]
        prow = tab[leave]
        for i, row in enumerate(tab):
            f = row[enter]
            if i != leave and f:
                tab[i] = [a - f * b if b else a for a, b in zip(row, prow)]
        f = z[enter]
        z = [a - f * b if b else a for a, b in zip(z, prow)]
        basis[leave] = enter

    x = [F0] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
    sol = LPSolution(OPTIMAL, tuple(x), z[-1], tuple(z[n:ncols]))
    certify(certificate_ok(lp, sol), "simplex returned an uncertified optimum")
    return sol
