"""Exact linear programming: two-phase primal simplex over Fractions.

Bland's rule everywhere, so no cycling and no tolerances.  The tableau
keeps the current phase's objective row (the reduced costs) as one more
row that every pivot updates, so pricing is a scan of that row.  Rows are
stored dense, sized for the few-hundred-variable programs the flow module
produces, but pivots and the certificate skip zero entries, which 0/1
path rows are mostly made of.  Every optimal solve is returned together
with dual multipliers and is re-verified against the full optimality
certificate (primal feasibility, dual feasibility, equal objectives)
before it leaves this module.

Conventions: variables are nonnegative, row senses are "<=", ">=", "==".
For a maximization the duals y satisfy A^T y >= c with y >= 0 on <= rows
and y <= 0 on >= rows; for a minimization A^T y <= c with the signs
mirrored.  Equality rows carry free duals.  Either way b . y equals the
optimal objective.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from typing import List, Optional, Sequence, Set, Tuple

from .errors import DomainError, certify
from .metrics import as_fraction

F0 = Fraction(0)
F1 = Fraction(1)

SENSES = ("<=", ">=", "==")

OPTIMAL = "optimal"
INFEASIBLE = "infeasible"
UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class LinearProgram:
    objective: Tuple[Fraction, ...]
    rows: Tuple[Tuple[Fraction, ...], ...]
    senses: Tuple[str, ...]
    rhs: Tuple[Fraction, ...]
    maximize: bool = True

    def __post_init__(self):
        n = len(self.objective)
        if not (len(self.rows) == len(self.senses) == len(self.rhs)):
            raise DomainError("MalformedLP", "row, sense, and rhs counts differ")
        for i, row in enumerate(self.rows):
            if len(row) != n:
                raise DomainError("MalformedLP", f"row {i} has width {len(row)}, expected {n}")
        for s in self.senses:
            if s not in SENSES:
                raise DomainError("MalformedLP", f"unknown sense {s!r}")

    @property
    def nvars(self) -> int:
        return len(self.objective)


def linear_program(objective, rows, senses, rhs, maximize=True, upper=None) -> LinearProgram:
    """Build a validated program; optional upper bounds become explicit rows."""
    obj = tuple(as_fraction(c) for c in objective)
    out_rows = [tuple(as_fraction(a) for a in row) for row in rows]
    out_senses = list(senses)
    out_rhs = [as_fraction(b) for b in rhs]
    if upper is not None:
        if len(upper) != len(obj):
            raise DomainError("MalformedLP", "one upper bound slot per variable")
        for j, u in enumerate(upper):
            if u is None:
                continue
            bound_row = [F0] * len(obj)
            bound_row[j] = F1
            out_rows.append(tuple(bound_row))
            out_senses.append("<=")
            out_rhs.append(as_fraction(u))
    return LinearProgram(obj, tuple(out_rows), tuple(out_senses), tuple(out_rhs), maximize)


@dataclass(frozen=True)
class LPSolution:
    status: str
    x: Optional[Tuple[Fraction, ...]] = None
    value: Optional[Fraction] = None
    duals: Optional[Tuple[Fraction, ...]] = None


def certificate_ok(lp: LinearProgram, sol: LPSolution) -> bool:
    """Full optimality certificate by direct substitution."""
    if sol.status != OPTIMAL or sol.x is None or sol.duals is None:
        return False
    x, y = sol.x, sol.duals
    if len(x) != lp.nvars or len(y) != len(lp.rows):
        return False
    if any(v < 0 for v in x):
        return False
    for row, sense, b in zip(lp.rows, lp.senses, lp.rhs):
        lhs = sum((a * v for a, v in zip(row, x) if a and v), F0)
        if sense == "<=" and lhs > b:
            return False
        if sense == ">=" and lhs < b:
            return False
        if sense == "==" and lhs != b:
            return False
    for yi, sense in zip(y, lp.senses):
        if sense == "==":
            continue
        want_nonneg = (sense == "<=") == lp.maximize
        if want_nonneg and yi < 0:
            return False
        if not want_nonneg and yi > 0:
            return False
    for j in range(lp.nvars):
        pulled = sum((yi * row[j] for yi, row in zip(y, lp.rows) if yi and row[j]), F0)
        if lp.maximize and pulled < lp.objective[j]:
            return False
        if not lp.maximize and pulled > lp.objective[j]:
            return False
    primal = sum((c * v for c, v in zip(lp.objective, x) if c and v), F0)
    dual = sum((b * yi for b, yi in zip(lp.rhs, y) if b and yi), F0)
    return primal == sol.value and primal == dual


def solve(lp: LinearProgram) -> LPSolution:
    """Two-phase simplex; optimal results carry a verified dual certificate."""
    intc = lp.objective if lp.maximize else tuple(-c for c in lp.objective)
    rows: List[Tuple[Fraction, ...]] = []
    senses: List[str] = []
    rhs: List[Fraction] = []
    flips: List[int] = []
    for row, sense, b in zip(lp.rows, lp.senses, lp.rhs):
        if b < 0:
            rows.append(tuple(-a for a in row))
            senses.append({"<=": ">=", ">=": "<=", "==": "=="}[sense])
            rhs.append(-b)
            flips.append(-1)
        else:
            rows.append(row)
            senses.append(sense)
            rhs.append(b)
            flips.append(1)

    m, n = len(rows), lp.nvars
    logical: List[int] = []
    artificial_of: dict = {}
    ncols = n
    for i in range(m):
        if senses[i] in ("<=", ">="):
            logical.append(ncols)
            ncols += 1
        else:
            logical.append(-1)
    for i in range(m):
        if senses[i] in (">=", "=="):
            artificial_of[i] = ncols
            ncols += 1

    tab = [[F0] * (ncols + 1) for _ in range(m)]
    basis: List[int] = []
    rowid: List[int] = list(range(m))
    for i in range(m):
        for j in range(n):
            tab[i][j] = rows[i][j]
        if senses[i] == "<=":
            tab[i][logical[i]] = F1
        elif senses[i] == ">=":
            tab[i][logical[i]] = -F1
        if i in artificial_of:
            tab[i][artificial_of[i]] = F1
        tab[i][ncols] = rhs[i]
        basis.append(logical[i] if senses[i] == "<=" else artificial_of[i])
    art_cols: Set[int] = set(artificial_of.values())
    enterable = [j for j in range(ncols) if j not in art_cols]

    z: List[Fraction] = []  # the phase's reduced costs; last entry: its objective value

    def pivot(r: int, c: int) -> None:
        piv = tab[r][c]
        if piv != 1:
            tab[r] = [v / piv if v else v for v in tab[r]]
        prow = tab[r]
        for i, row in enumerate(tab):
            f = row[c]
            if i != r and f:
                tab[i] = [a - f * b if b else a for a, b in zip(row, prow)]
        f = z[c]
        if f:
            z[:] = [a - f * b if b else a for a, b in zip(z, prow)]
        basis[r] = c

    def run(cost: Sequence[Fraction]) -> str:
        z[:] = [-c for c in cost] + [F0]
        for i, row in enumerate(tab):
            cb = cost[basis[i]]
            if cb:
                z[:] = [a + cb * b if b else a for a, b in zip(z, row)]
        while True:
            enter = next((j for j in enterable if z[j] < 0), -1)
            if enter < 0:
                return OPTIMAL
            leave, best = -1, None
            for i in range(len(tab)):
                if tab[i][enter] > 0:
                    ratio = tab[i][-1] / tab[i][enter]
                    if best is None or ratio < best or (ratio == best and basis[i] < basis[leave]):
                        best, leave = ratio, i
            if leave < 0:
                return UNBOUNDED
            pivot(leave, enter)

    if art_cols:
        cost1 = [F0] * ncols
        for c in art_cols:
            cost1[c] = -F1
        status1 = run(cost1)
        certify(status1 == OPTIMAL, "phase 1 is bounded by construction")
        if z[-1] != 0:
            return LPSolution(INFEASIBLE)
        for i in sorted(range(len(tab)), reverse=True):
            if basis[i] not in art_cols:
                continue
            target = next((j for j in enterable if tab[i][j] != 0), None)
            if target is None:
                # redundant original row; its dual multiplier stays zero
                del tab[i]
                del basis[i]
                del rowid[i]
            else:
                pivot(i, target)

    cost2 = [F0] * ncols
    for j in range(n):
        cost2[j] = intc[j]
    if run(cost2) == UNBOUNDED:
        return LPSolution(UNBOUNDED)

    x = [F0] * n
    for i, b in enumerate(basis):
        if b < n:
            x[b] = tab[i][-1]
    value_int = sum((intc[j] * x[j] for j in range(n)), F0)

    duals = [F0] * m
    for i in rowid:
        r = z[logical[i] if logical[i] >= 0 else artificial_of[i]]
        duals[i] = -r if senses[i] == ">=" else r
    outer = 1 if lp.maximize else -1
    final_duals = tuple(outer * flips[i] * duals[i] for i in range(m))

    sol = LPSolution(
        OPTIMAL,
        tuple(x),
        value_int if lp.maximize else -value_int,
        final_duals,
    )
    certify(certificate_ok(lp, sol), "simplex returned an uncertified optimum")
    return sol

