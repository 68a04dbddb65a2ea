"""Bounded-variable linear programs and a deterministic two-phase simplex solver.

The solver runs on a dense tableau built straight from the program's rows:
a repeated index in a row sums its coefficients, and singleton rows, empty
rows and fixed variables (``lower == upper``) enter as they are.  Phase 1
reports infeasibility and drops redundant rows.  Pricing is Dantzig (most
negative reduced cost, first index on ties) and switches to Bland's rule
after ``10 * (rows + cols)`` iterations so that degenerate instances are
guaranteed to terminate.  Upper bounds are handled natively with the
bound-flip technique rather than as extra rows; a fixed variable has span
zero and so only ever flips or enters at zero.

A pivot's rank-1 update of the tableau matrix touches only the rows where the
pivot column is nonzero, and in them only the columns where the pivot row is
nonzero.  Every other entry would change by an exact zero, so the pivots are
the same as with a full dense update while the work follows the sparsity.

Every tie-break is by lowest index, so re-solving the same program gives a
bit-identical result.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum

import numpy as np

FEASIBILITY_TOL = 1e-6
PIVOT_TOL = 1e-7
REDUCED_COST_TOL = 1e-7

LESS_EQUAL = "<="
GREATER_EQUAL = ">="
EQUAL = "="
_RELATIONS = (LESS_EQUAL, GREATER_EQUAL, EQUAL)


class LpError(Exception):
    """Base class for solver errors."""


class LpFormatError(LpError):
    """The program violates a structural invariant (caller bug, not infeasibility)."""


class LpSolverError(LpError):
    """The solver reached a state it cannot trust; never silent."""


class LpStatus(Enum):
    OPTIMAL = "optimal"
    INFEASIBLE = "infeasible"
    UNBOUNDED = "unbounded"


@dataclass(frozen=True)
class Constraint:
    """Sparse row: ``sum(coeffs[k] * x[indices[k]]) <relation> rhs``."""

    indices: tuple[int, ...]
    coeffs: tuple[float, ...]
    relation: str
    rhs: float


@dataclass
class LinearProgram:
    """Minimize ``objective @ x`` subject to box bounds and sparse rows.

    ``var_bounds`` is an ``(num_vars, 2)`` array of ``[lower, upper]`` pairs;
    ``math.inf`` marks an unbounded side (never a large finite stand-in).
    """

    num_vars: int
    objective: np.ndarray
    var_bounds: np.ndarray
    constraints: list[Constraint] = field(default_factory=list)

    def __post_init__(self):
        self.objective = np.asarray(self.objective, dtype=float)
        self.var_bounds = np.asarray(self.var_bounds, dtype=float).reshape(-1, 2)

    def validate(self):
        """Raise :class:`LpFormatError` on any invariant violation."""
        if self.objective.shape != (self.num_vars,):
            raise LpFormatError(
                f"objective has length {self.objective.shape}, expected {self.num_vars}"
            )
        if self.var_bounds.shape != (self.num_vars, 2):
            raise LpFormatError(
                f"var_bounds has shape {self.var_bounds.shape}, expected ({self.num_vars}, 2)"
            )
        if not np.all(np.isfinite(self.objective)):
            bad = int(np.argmin(np.isfinite(self.objective)))
            raise LpFormatError(f"variable {bad}: non-finite objective coefficient")
        if np.any(np.isnan(self.var_bounds)):
            bad = int(np.argmax(np.isnan(self.var_bounds).any(axis=1)))
            raise LpFormatError(f"variable {bad}: NaN bound")
        if not np.all(self.var_bounds[:, 0] <= self.var_bounds[:, 1]):
            bad = int(np.argmax(self.var_bounds[:, 0] > self.var_bounds[:, 1]))
            raise LpFormatError(f"variable {bad}: lower bound exceeds upper bound")
        if np.any(np.isposinf(self.var_bounds[:, 0])) or np.any(
            np.isneginf(self.var_bounds[:, 1])
        ):
            raise LpFormatError("bounds must satisfy lower < +inf and upper > -inf")
        for k, con in enumerate(self.constraints):
            if con.relation not in _RELATIONS:
                raise LpFormatError(f"constraint {k}: unknown relation {con.relation!r}")
            if len(con.indices) != len(con.coeffs):
                raise LpFormatError(f"constraint {k}: indices/coeffs length mismatch")
            for j in con.indices:
                if not 0 <= j < self.num_vars:
                    raise LpFormatError(f"constraint {k}: variable index {j} out of range")
            if not math.isfinite(con.rhs):
                raise LpFormatError(f"constraint {k}: non-finite right-hand side")


@dataclass(frozen=True)
class Violation:
    """One violated bound or constraint; ``amount`` is how far beyond tolerance-free exactness."""

    kind: str  # "lower_bound" | "upper_bound" | "constraint"
    index: int
    amount: float


@dataclass(frozen=True)
class LpSolution:
    status: LpStatus
    x: np.ndarray | None
    objective_value: float | None
    iterations: int


def check_point(lp: LinearProgram, x: np.ndarray, tol: float = FEASIBILITY_TOL) -> list[Violation]:
    """Report all bounds and constraints that ``x`` violates by more than ``tol``.

    Returns an empty list iff ``x`` is feasible within ``tol``.
    """
    lp.validate()
    return _violations(lp, x, tol)


def _violations(lp: LinearProgram, x: np.ndarray, tol: float) -> list[Violation]:
    """:func:`check_point` on a program already validated."""
    x = np.asarray(x, dtype=float)
    if x.shape != (lp.num_vars,):
        raise LpFormatError(f"point has length {x.shape}, expected {lp.num_vars}")
    out: list[Violation] = []
    lo, up = lp.var_bounds[:, 0], lp.var_bounds[:, 1]
    for j in np.nonzero(x < lo - tol)[0]:
        out.append(Violation("lower_bound", int(j), float(lo[j] - x[j])))
    for j in np.nonzero(x > up + tol)[0]:
        out.append(Violation("upper_bound", int(j), float(x[j] - up[j])))
    for k, con in enumerate(lp.constraints):
        lhs = float(np.dot(con.coeffs, x[list(con.indices)])) if con.indices else 0.0
        if con.relation == LESS_EQUAL:
            gap = lhs - con.rhs
        elif con.relation == GREATER_EQUAL:
            gap = con.rhs - lhs
        else:
            gap = abs(lhs - con.rhs)
        if gap > tol:
            out.append(Violation("constraint", k, float(gap)))
    return out


def dump_lp(lp: LinearProgram) -> str:
    """Plain-text dump for bug reports: one ``c:`` line per constraint.

    Every number is written as the ``repr`` of a Python float, never of a
    numpy scalar.
    """
    lines = [f"vars {lp.num_vars}"]
    obj = " ".join(f"{j}:{float(c)!r}" for j, c in enumerate(lp.objective) if c != 0.0)
    lines.append(f"obj: {obj}")
    for j, (lo, up) in enumerate(lp.var_bounds):
        lines.append(f"b{j}: {float(lo)!r} {float(up)!r}")
    for con in lp.constraints:
        body = " ".join(f"{j}:{float(c)!r}" for j, c in zip(con.indices, con.coeffs))
        lines.append(f"c: {body} {con.relation} {float(con.rhs)!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# simplex kernel


class _Tableau:
    """Dense tableau state shared by both phases."""

    def __init__(self, mat, rhs, spans, basis, pivot_tol, rc_tol, bland_after, max_iter):
        self.mat = np.ascontiguousarray(mat)  # (m, ncols); _pivot writes through a flat view
        self.rhs = rhs  # (m,)
        self.spans = spans  # (ncols,) upper range of each column variable, inf allowed
        self.basis = basis  # (m,) column index basic in each row
        self.flipped = np.zeros(mat.shape[1], dtype=bool)
        self.in_basis = np.zeros(mat.shape[1], dtype=bool)
        self.in_basis[basis] = True
        self.pivot_tol = pivot_tol
        self.rc_tol = rc_tol
        self.bland_after = bland_after
        self.max_iter = max_iter
        self.iterations = 0

    def _enter(self, red):
        if self.iterations < self.bland_after:
            masked = np.where(self.in_basis, np.inf, red)
            q = int(np.argmin(masked))
            return q if masked[q] < -self.rc_tol else -1
        eligible = np.nonzero(~self.in_basis & (red < -self.rc_tol))[0]
        return int(eligible[0]) if len(eligible) else -1

    def run(self, red, phase: int) -> LpStatus:
        """Pivot until optimal; mutates tableau and ``red`` in place."""
        m = self.mat.shape[0]
        while True:
            if self.iterations > self.max_iter:
                raise LpSolverError(f"iteration limit exceeded in phase {phase}")
            q = self._enter(red)
            if q < 0:
                return LpStatus.OPTIMAL
            col = self.mat[:, q]
            ratios = np.full(m, np.inf)
            pos = col > self.pivot_tol
            ratios[pos] = np.maximum(self.rhs[pos], 0.0) / col[pos]
            bspan = self.spans[self.basis]
            neg = (col < -self.pivot_tol) & np.isfinite(bspan)
            ratios[neg] = (self.rhs[neg] - bspan[neg]) / col[neg]
            ratios = np.maximum(ratios, 0.0)
            r = int(np.argmin(ratios))
            t_row = ratios[r]
            if self.iterations >= self.bland_after and np.isfinite(t_row):
                # Bland leaving rule: lowest basic variable index among ties
                tied = np.nonzero(ratios <= t_row + 1e-12 * (1.0 + t_row))[0]
                r = int(tied[np.argmin(self.basis[tied])])
                t_row = ratios[r]
            t_own = self.spans[q]
            if not np.isfinite(min(t_row, t_own)):
                if phase == 1:
                    raise LpSolverError("phase-1 objective unbounded (internal bug)")
                return LpStatus.UNBOUNDED
            self.iterations += 1
            if t_own < t_row:
                self._flip(q, red)
            else:
                self._pivot(r, q, red, leaves_at_upper=bool(neg[r]))
            tiny = (self.rhs < 0.0) & (self.rhs > -1e-9)
            if tiny.any():
                self.rhs[tiny] = 0.0

    def _flip(self, q, red):
        self.rhs -= self.spans[q] * self.mat[:, q]
        self.mat[:, q] *= -1.0
        red[q] = -red[q]
        self.flipped[q] = ~self.flipped[q]

    def _pivot(self, r, q, red, leaves_at_upper):
        leaving = self.basis[r]
        piv = self.mat[r, q]
        self.mat[r] /= piv
        self.rhs[r] /= piv
        col = self.mat[:, q].copy()
        col[r] = 0.0
        prow = self.mat[r]
        # the rank-1 update would subtract exact zeros outside the rows where
        # the pivot column is nonzero and the columns where the pivot row is
        rows = col.nonzero()[0]
        cols = prow.nonzero()[0]
        cells = (rows[:, None] * len(prow) + cols).ravel()
        self.mat.reshape(-1)[cells] -= np.multiply.outer(col[rows], prow[cols]).ravel()
        self.rhs -= col * self.rhs[r]
        red -= red[q] * self.mat[r]
        red[q] = 0.0
        self.basis[r] = q
        self.in_basis[q] = True
        self.in_basis[leaving] = False
        if leaves_at_upper:
            self._flip(leaving, red)

    def values(self, ncols: int) -> np.ndarray:
        """Current value of the first ``ncols`` column variables, flips undone."""
        val = np.zeros(self.mat.shape[1])
        val[self.basis] = self.rhs
        val = np.where(self.flipped, self.spans - val, val)
        return val[:ncols]


def _simplex(lp: LinearProgram, feas_tol, pivot_tol, rc_tol):
    """Two-phase simplex over the rows of ``lp``; returns (status, x, iterations)."""
    lo, up = lp.var_bounds[:, 0], lp.var_bounds[:, 1]
    c = lp.objective

    # affine map x = off + sgn * y with y in [0, span]; free variables get a
    # mirrored partner column so every column variable is nonnegative
    fin_lo, fin_up = np.isfinite(lo), np.isfinite(up)
    free = ~fin_lo & ~fin_up
    off = np.where(fin_lo, lo, np.where(fin_up, up, 0.0))
    sgn = np.where(fin_lo | free, 1.0, -1.0)
    span = np.where(fin_lo & fin_up, up - lo, np.inf)
    n_main = lp.num_vars
    mirror = np.nonzero(free)[0]
    n_struct = n_main + len(mirror)

    m = len(lp.constraints)
    if m == 0:
        # pure box problem: each variable sits at whichever bound its cost prefers
        x = np.where(c > 0, lo, np.where(c < 0, up, off))
        if not np.all(np.isfinite(x)):
            return LpStatus.UNBOUNDED, None, 0
        return LpStatus.OPTIMAL, x, 0

    n_slack = sum(1 for con in lp.constraints if con.relation != EQUAL)
    dense = np.zeros((m, n_struct + n_slack))
    rhs = np.zeros(m)
    slack_col = n_struct
    basis = np.full(m, -1, dtype=int)
    need_art = []
    for i, con in enumerate(lp.constraints):
        idx = np.asarray(con.indices, dtype=int)
        cf = np.asarray(con.coeffs, dtype=float)
        row = np.zeros(n_struct)
        np.add.at(row, idx, cf * sgn[idx])  # a repeated index sums its coefficients
        row[n_main:] = -row[mirror]
        b = con.rhs - float(cf @ off[idx])
        s = 0 if con.relation == EQUAL else (1 if con.relation == LESS_EQUAL else -1)
        if b < 0 or (b == 0 and s < 0):
            row, b, s = -row, -b, -s
        dense[i, :n_struct] = row
        rhs[i] = b
        if s != 0:
            dense[i, slack_col] = float(s)
            if s > 0:
                basis[i] = slack_col
            slack_col += 1
        if basis[i] < 0:
            need_art.append(i)

    n_art = len(need_art)
    spans = np.concatenate([span, np.full(len(mirror) + n_slack + n_art, np.inf)])
    if n_art:
        art = np.zeros((m, n_art))
        for k, i in enumerate(need_art):
            art[i, k] = 1.0
            basis[i] = n_struct + n_slack + k
        dense = np.hstack([dense, art])

    tab = _Tableau(
        dense,
        rhs,
        spans,
        basis,
        pivot_tol,
        rc_tol,
        bland_after=10 * (m + dense.shape[1]),
        max_iter=50_000 + 200 * (m + dense.shape[1]),
    )

    n_keep = n_struct + n_slack
    if n_art:
        red1 = np.zeros(dense.shape[1])
        red1[n_keep:] = 1.0
        for i in need_art:
            red1 -= tab.mat[i]
        tab.run(red1, phase=1)
        art_rows = [i for i in range(len(tab.basis)) if tab.basis[i] >= n_keep]
        if sum(tab.rhs[i] for i in art_rows) > feas_tol:
            return LpStatus.INFEASIBLE, None, tab.iterations
        drop = []
        for i in art_rows:
            cand = np.nonzero(
                (np.abs(tab.mat[i, :n_keep]) > pivot_tol) & ~tab.in_basis[:n_keep]
            )[0]
            if len(cand):
                tab._pivot(i, int(cand[0]), red1, leaves_at_upper=False)
            else:
                drop.append(i)  # redundant row
        if drop:
            keep = np.setdiff1d(np.arange(tab.mat.shape[0]), drop)
            tab.mat = tab.mat[keep]
            tab.rhs = tab.rhs[keep]
            tab.basis = tab.basis[keep]
        tab.mat = np.ascontiguousarray(tab.mat[:, :n_keep])
        tab.spans = tab.spans[:n_keep]
        tab.flipped = tab.flipped[:n_keep]
        tab.in_basis = tab.in_basis[:n_keep]

    cost = np.zeros(n_keep)
    cost[:n_main] = c * sgn
    if len(mirror):
        cost[n_main:n_struct] = -cost[mirror]
    cost = np.where(tab.flipped, -cost, cost)
    red2 = cost - cost[tab.basis] @ tab.mat
    red2[tab.basis] = 0.0
    status = tab.run(red2, phase=2)
    if status is not LpStatus.OPTIMAL:
        return status, None, tab.iterations

    y = tab.values(n_struct)
    x = off + sgn * y[:n_main]
    if len(mirror):
        x[mirror] -= y[n_main:]
    return LpStatus.OPTIMAL, x, tab.iterations


def solve_lp(
    lp: LinearProgram,
    *,
    feasibility_tol: float = FEASIBILITY_TOL,
    pivot_tol: float = PIVOT_TOL,
    reduced_cost_tol: float = REDUCED_COST_TOL,
) -> LpSolution:
    """Solve ``lp`` to proven optimality, infeasibility, or unboundedness.

    Malformed programs raise :class:`LpFormatError`; an infeasible but
    well-formed program returns status ``INFEASIBLE``.
    """
    lp.validate()
    status, x, iters = _simplex(lp, feasibility_tol, pivot_tol, reduced_cost_tol)
    if status is not LpStatus.OPTIMAL:
        return LpSolution(status, None, None, iters)
    bad = _violations(lp, x, feasibility_tol)
    if bad:
        worst = max(v.amount for v in bad)
        raise LpSolverError(
            f"solver returned an infeasible point ({len(bad)} violations, worst {worst:.3e})"
        )
    return LpSolution(LpStatus.OPTIMAL, x, float(lp.objective @ x), iters)
