"""Bounded-variable linear programs and a deterministic simplex solver.

A program keeps its rows as CSR arrays (:class:`Rows`): ``indptr``,
``indices``, ``coeffs`` and ``rhs``.  Every row reads ``coeffs . x <= rhs``:
a builder negates a ``>=`` row, and no builder needs an equality.  The model
builders emit those arrays directly, and a program is made from them only.
Making a :class:`LinearProgram` checks it, once: the solver, the feasibility
check and the plain-text dump trust every program that exists.  Indexing a
:class:`Rows` gives one of its rows as a one-row :class:`Rows`.
Each row's left-hand side at a point is one sparse product,
:meth:`Rows.dot`; the feasibility check and the tableau build both use it.

The solver runs on one dense tableau of shape ``(rows + 1, cols + 1)``: the
basic values are its last column and the reduced costs its last row.  It is
built with a single scatter of the rows' nonzeros: a repeated index in a row
sums its coefficients, and singleton rows, empty rows and fixed variables
(``lower == upper``) enter as they are.  Each right-hand side is shifted by
its row's value at the columns' starting bounds.  Every row gets one slack
column of infinite span.  Upper bounds are handled natively with the
bound-flip technique rather than as extra rows.

A program is made only if each column has a finite bound that its cost
prefers: none is free, none with a negative cost lacks an upper bound and
none with a positive cost a lower one.  Every program the package builds is
of this kind.  Each column starts at that bound, so the objective is bounded
below on the box and the all-slack basis is dual feasible with the true
costs.  A single phase, the dual simplex, runs from that basis.  The
leaving row is the basic variable with the largest bound violation, and the
entering column comes from a bound-flipping ratio test (Maros, EJOR 146(3),
2003; Koberstein, PhD thesis, Paderborn, 2005, ch. 3): each boxed column
passed on the way moves to its other bound while the row stays violated, and
the test always ends on a pivot, so the basis stays dual feasible.  A
violated row that no column can repair proves the program infeasible, and
:func:`solve_lp` raises :class:`LpInfeasibleError`.  When no row is violated
the basis is optimal, which the phase checks before it says so: an enterable
column with a reduced cost below ``-REDUCED_COST_TOL`` raises
:class:`LpSolverError` instead.  After ``10 * (rows + cols)``
iterations the phase switches to Bland's rule so that degenerate instances
are guaranteed to terminate.  A fixed column never enters the basis.

A pivot is one rank-1 update of the whole tableau, matrix, basic values and
reduced costs together.  It touches only the rows where the pivot column is
nonzero, and in them only the columns where the pivot row is nonzero.  A
cell whose subtraction cancels, ``|new| <= CANCELLATION_TOL * |old|``, is
written as an exact zero (Maros, *Computational Techniques of the Simplex
Method*, 2003): a true result that small would carry a relative rounding
error of at least 1e-4, so no meaningful digit is lost, and the rounding
residue does not become fill that later pivots must carry.  A cell that was
zero keeps whatever the update writes.  A bound flip negates whole columns,
reduced-cost row included; a variable that leaves the basis at its upper
bound is flipped in its pivot row before the update, which then writes its
column already flipped.

The tolerances are fixed: ``FEASIBILITY_TOL`` for bound and row violations,
``PIVOT_TOL`` for pivot elements, ``REDUCED_COST_TOL`` for the optimality
check and ``CANCELLATION_TOL`` for the pivots' cancellation rule.  Every
tie-break is by lowest index, so re-solving the same program gives a
bit-identical result.
"""

from __future__ import annotations

import dataclasses
import functools
import time
from dataclasses import dataclass

import numpy as np

FEASIBILITY_TOL = 1e-6
PIVOT_TOL = 1e-7
REDUCED_COST_TOL = 1e-7
CANCELLATION_TOL = 1e-12


class LpError(Exception):
    """Base class for solver errors."""


class LpFormatError(LpError):
    """The program violates a structural invariant (caller bug, not infeasibility)."""


class LpSolverError(LpError):
    """The solver reached a state it cannot trust; never silent."""


class LpInfeasibleError(LpError):
    """The program has no feasible point; ``stats`` describes the solve that proved it."""

    def __init__(self, message: str, stats: SolverStats):
        super().__init__(message)
        self.stats = stats


def _read_only(a, dtype) -> np.ndarray:
    """``a`` as an array of ``dtype`` seen through a read-only view: no edit through a program
    can undo the check that making it runs.  A caller's own array stays writable and, if it
    needed no conversion, shared with the program."""
    view = np.asarray(a, dtype=dtype).view()
    view.flags.writeable = False
    return view


@dataclass(frozen=True, eq=False)
class Rows:
    """The rows of a program in CSR form.

    Row ``k`` is ``sum(coeffs[p] * x[indices[p]]) <= rhs[k]`` over ``p`` in
    ``indptr[k]:indptr[k + 1]``.  The arrays are read-only views.
    """

    indptr: np.ndarray
    indices: np.ndarray
    coeffs: np.ndarray
    rhs: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indptr", _read_only(self.indptr, np.intp))
        object.__setattr__(self, "indices", _read_only(self.indices, np.intp))
        object.__setattr__(self, "coeffs", _read_only(self.coeffs, float))
        object.__setattr__(self, "rhs", _read_only(self.rhs, float))

    @functools.cached_property
    def row_of(self) -> np.ndarray:
        """The row of each nonzero."""
        return np.repeat(np.arange(len(self.rhs)), np.diff(self.indptr))

    def dot(self, x: np.ndarray) -> np.ndarray:
        """Each row's left-hand side at ``x``: one sparse product for every row."""
        return np.bincount(self.row_of, self.coeffs * x[self.indices], len(self))

    def __len__(self) -> int:
        return len(self.rhs)

    def __getitem__(self, k: int) -> Rows:
        """Row ``k`` from 0 as a one-row :class:`Rows`, for ``perfbench/tracing.py``, which counts
        nonzeros row by row; ``IndexError`` past the last row ends plain iteration."""
        if not 0 <= k < len(self):
            raise IndexError(f"row {k} out of range")
        lo, hi = self.indptr[k], self.indptr[k + 1]
        return Rows([0, hi - lo], self.indices[lo:hi], self.coeffs[lo:hi], self.rhs[k : k + 1])


@dataclass(frozen=True, eq=False)
class LinearProgram:
    """Minimize ``objective @ x`` subject to box bounds and sparse rows.

    ``var_bounds`` is an ``(num_vars, 2)`` array of ``[lower, upper]`` pairs;
    ``math.inf`` marks an unbounded side (never a large finite stand-in).  The
    side a variable's cost prefers must be finite: the lower bound for a
    positive cost, the upper for a negative one, either for a zero cost.
    ``constraints`` is :class:`Rows`.  Making a program checks all of this and
    raises :class:`LpFormatError` on any breach; nothing checks it again, and
    its arrays are read-only views, so that no edit through it can undo the check.
    """

    num_vars: int
    objective: np.ndarray
    var_bounds: np.ndarray
    constraints: Rows = dataclasses.field(default_factory=lambda: Rows([0], [], [], []))

    def __post_init__(self):
        object.__setattr__(self, "objective", _read_only(self.objective, float))
        object.__setattr__(self, "var_bounds", _read_only(self.var_bounds, float).reshape(-1, 2))
        if not isinstance(self.constraints, Rows):
            raise LpFormatError(f"constraints must be Rows, got {type(self.constraints).__name__}")
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
        lo, up, c = self.var_bounds[:, 0], self.var_bounds[:, 1], self.objective
        if not np.all(lo <= up):
            bad = int(np.argmax(lo > up))
            raise LpFormatError(f"variable {bad}: lower bound exceeds upper bound")
        if np.isposinf(lo).any() or np.isneginf(up).any():
            raise LpFormatError("bounds must satisfy lower < +inf and upper > -inf")
        # the dual phase starts each column at the bound its cost prefers, which must be finite
        no_start = np.isneginf(lo) & (np.isposinf(up) | (c > 0)) | np.isposinf(up) & (c < 0)
        if no_start.any():
            j = int(no_start.argmax())
            if np.isinf(lo[j]) and np.isinf(up[j]):
                raise LpFormatError(f"variable {j}: free")
            raise LpFormatError(f"variable {j}: its cost prefers an infinite bound")
        rows = self.constraints
        m, nnz = len(rows.rhs), len(rows.indices)
        if (
            rows.indptr.shape != (m + 1,)
            or rows.coeffs.shape != (nnz,)
            or rows.indptr[0] != 0
            or rows.indptr[-1] != nnz
            or (rows.indptr[1:] < rows.indptr[:-1]).any()
        ):
            raise LpFormatError("constraint rows are not in CSR form")
        idx = rows.indices
        if nnz and (idx.min() < 0 or idx.max() >= self.num_vars):
            p = int(np.flatnonzero((idx < 0) | (idx >= self.num_vars))[0])
            k = int(np.searchsorted(rows.indptr, p, side="right")) - 1
            raise LpFormatError(f"constraint {k}: variable index {idx[p]} out of range")
        if not np.isfinite(rows.rhs).all():
            k = int(np.argmin(np.isfinite(rows.rhs)))
            raise LpFormatError(f"constraint {k}: non-finite right-hand side")
        if not np.isfinite(rows.coeffs).all():
            p = int(np.argmin(np.isfinite(rows.coeffs)))
            k = int(np.searchsorted(rows.indptr, p, side="right")) - 1
            raise LpFormatError(f"constraint {k}: non-finite coefficient")


@dataclass(frozen=True)
class Violation:
    """One violated bound or constraint; ``amount`` is how far beyond tolerance-free exactness."""

    kind: str  # "lower_bound" | "upper_bound" | "constraint"
    index: int
    amount: float


@dataclass(frozen=True)
class SolverStats:
    """What the simplex did on one solve.

    ``rows`` and ``cols`` give the size of the program solved.
    ``bound_flips`` counts the columns the ratio tests moved to their other
    bound instead of pivoting them in, and ``pivot_cells`` the tableau cells
    the pivots' rank-1 updates rewrote.  ``check_seconds`` and
    ``worst_residual`` (the largest bound or row violation of the returned
    point, 0 when it violates none) describe the final feasibility check and
    stay 0 and ``None`` in the stats of an :class:`LpInfeasibleError`.
    """

    rows: int
    cols: int
    dual_iterations: int
    bound_flips: int
    pivot_cells: int
    bland: bool  # whether Bland's rule chose any iteration
    dual_seconds: float
    check_seconds: float = 0.0
    worst_residual: float | None = None

    @property
    def iterations(self) -> int:
        """Iterations of the dual simplex, the solver's only phase."""
        return self.dual_iterations


@dataclass(frozen=True)
class LpSolution:
    """An optimal point of a program: inside its box, and within ``FEASIBILITY_TOL`` of each row."""

    x: np.ndarray
    objective_value: float
    iterations: int
    stats: SolverStats


def check_point(lp: LinearProgram, x: np.ndarray, tol: float = FEASIBILITY_TOL) -> list[Violation]:
    """Report all bounds and constraints that ``x`` violates by more than ``tol``.

    Returns an empty list iff ``x`` is feasible within ``tol``.  An infinite
    entry violates the bound on its side and a NaN entry its lower bound, and a
    NaN left-hand side (``inf - inf``) violates its row, each by ``inf``.
    :func:`solve_lp` gates every point it returns on this check.
    """
    x = np.asarray(x, dtype=float)
    if x.shape != (lp.num_vars,):
        raise LpFormatError(f"point has length {x.shape}, expected {lp.num_vars}")
    out: list[Violation] = []
    lo, up = lp.var_bounds[:, 0], lp.var_bounds[:, 1]
    finite = np.isfinite(x)
    for j in np.nonzero((x < lo - tol) | np.isnan(x) | (x == -np.inf))[0]:
        out.append(Violation("lower_bound", int(j), float(lo[j] - x[j]) if finite[j] else np.inf))
    for j in np.nonzero((x > up + tol) | (x == np.inf))[0]:
        out.append(Violation("upper_bound", int(j), float(x[j] - up[j]) if finite[j] else np.inf))
    rows = lp.constraints
    with np.errstate(invalid="ignore"):  # an infinite entry can make a left-hand side NaN
        excess = rows.dot(x) - rows.rhs
    excess[np.isnan(excess)] = np.inf
    for k in np.nonzero(excess > tol)[0]:
        out.append(Violation("constraint", int(k), float(excess[k])))
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
    rows = lp.constraints
    indptr, indices, coeffs = rows.indptr.tolist(), rows.indices.tolist(), rows.coeffs.tolist()
    for k, rhs in enumerate(rows.rhs.tolist()):
        span = range(indptr[k], indptr[k + 1])
        body = " ".join(f"{indices[p]}:{coeffs[p]!r}" for p in span)
        lines.append(f"c: {body} <= {rhs!r}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# simplex kernel


class _Tableau:
    """Dense tableau state of the dual simplex.

    ``tab`` is ``(m + 1, n + 1)`` and C-contiguous (``_pivot`` writes through
    a flat view): ``mat`` is its ``(m, n)`` block, ``rhs`` its last column
    (the value of each row's basic variable) and ``red`` its last row (the
    reduced costs).  The corner cell means nothing and is never read.  Every
    column variable lives in ``[0, span]`` and every nonbasic one sits at 0:
    ``flipped`` marks the columns substituted by ``span - y``.
    """

    bland_factor = 10  # Bland's rule after this many iterations per row and column

    def __init__(self, tab, spans, basis):
        m, n = tab.shape[0] - 1, tab.shape[1] - 1
        self.tab = tab
        self.mat = tab[:m, :n]
        self.rhs = tab[:m, n]
        self.red = tab[m, :n]
        self.spans = spans  # (n,) upper range of each column variable, inf allowed
        self.basis = basis  # (m,) column index basic in each row
        self.basic_span = spans[basis]  # (m,) span of each row's basic variable
        self.flipped = np.zeros(n, dtype=bool)
        # columns that may enter: neither basic nor fixed (span 0); a fixed column
        # cannot move and so is dual feasible at any reduced cost
        self.enterable = spans != 0
        self.enterable[basis] = False
        self.bland_after = self.bland_factor * (m + n)
        self.max_iter = 50_000 + 200 * (m + n)
        self.iterations = 0
        self.flips = 0  # columns moved to their other bound by a ratio test
        self.pivot_cells = 0  # cells rewritten by the pivots' rank-1 updates
        self.bland = False  # whether Bland's rule chose any iteration

    def _bland_due(self) -> bool:
        """Whether Bland's rule picks the next iteration; raises past the iteration limit."""
        if self.iterations > self.max_iter:
            raise LpSolverError("simplex iteration limit exceeded")
        return self.iterations >= self.bland_after

    def run_dual(self) -> int | None:
        """Dual simplex from a dual feasible basis (``red >= 0``) until every
        basic variable is within ``FEASIBILITY_TOL`` of its range, then
        ``None``; a violated row that no column can repair ends it instead, and
        its index is returned.  Mutates the tableau in place."""
        red = self.red
        while True:
            bland = self._bland_due()
            rhs = self.rhs
            above = rhs - self.basic_span
            viol = np.maximum(-rhs, above)
            if bland:
                # dual Bland rule: the violated row with the lowest basic index
                rows = (viol > FEASIBILITY_TOL).nonzero()[0]
                if not len(rows):
                    return self._optimal()
                r = int(rows[self.basis[rows].argmin()])
            else:
                r = int(viol.argmax())
                if not viol[r] > FEASIBILITY_TOL:
                    return self._optimal()
            leaves_at_upper = bool(above[r] > 0)
            # raising nonbasic column j by t moves the leaving variable by -mat[r, j] * t;
            # slope[j] > 0 moves it towards the bound it violates
            slope = self.mat[r] if leaves_at_upper else -self.mat[r]
            cand = ((slope > PIVOT_TOL) & self.enterable).nonzero()[0]
            if not len(cand):
                return r
            ratios = np.maximum(red[cand], 0.0) / slope[cand]
            self.iterations += 1
            self.bland |= bland
            if bland:
                t = ratios.min()
                q = int(cand[(ratios <= t + 1e-12 * (1.0 + t)).argmax()])
            else:
                # bound-flipping ratio test: pass each breakpoint whose boxed column,
                # moved to its other bound, leaves the row violated in the same direction
                cand = cand[ratios.argsort(kind="stable")]
                reach = (slope[cand] * self.spans[cand]).cumsum()
                k = int(reach.searchsorted(viol[r]))
                if k == len(cand) and viol[r] - reach[-1] > FEASIBILITY_TOL:
                    return r
                # the last candidate always enters, so the basis stays dual feasible
                k = min(k, len(cand) - 1)
                if k:
                    self._flip(cand[:k])
                    self.flips += k
                q = int(cand[k])
            self._pivot(r, q, leaves_at_upper)

    def _optimal(self) -> None:
        """Let a primal feasible basis end the phase as optimal only when no
        enterable column has a reduced cost below ``-REDUCED_COST_TOL``."""
        if (self.red[self.enterable] < -REDUCED_COST_TOL).any():
            raise LpSolverError("dual simplex ended on a basis that is not dual feasible")

    def _flip(self, cols):
        """Move each column in ``cols`` (nonbasic, finite span) to its other bound."""
        sub = self.tab[:, cols]
        # the (m, k) product of the rows alone: BLAS may round a taller one differently
        self.rhs -= sub[:-1] @ self.spans[cols]
        self.tab[:, cols] = np.negative(sub, out=sub)
        self.flipped[cols] = ~self.flipped[cols]

    def _pivot(self, r, q, leaves_at_upper):
        tab = self.tab
        leaving = self.basis[r]
        tab[r] /= tab[r, q]
        col = tab[:, q].copy()
        col[r] = 0.0
        prow = tab[r]
        if leaves_at_upper:
            # the leaving variable y becomes span - y in the pivot row, so the update
            # below writes its column and the basic values already flipped
            prow[-1] -= self.spans[leaving] * prow[leaving]
            prow[leaving] = -prow[leaving]
            self.flipped[leaving] = ~self.flipped[leaving]
        # one rank-1 update of matrix, basic values and reduced costs; it would
        # subtract exact zeros outside the rows where the pivot column is nonzero
        # and the columns where the pivot row is
        rows = col.nonzero()[0]
        cols = prow.nonzero()[0]
        cells = (rows[:, None] * len(prow) + cols).ravel()
        flat = tab.reshape(-1)
        new = flat[cells]
        cancels = np.abs(new) * CANCELLATION_TOL
        new -= np.multiply.outer(col[rows], prow[cols]).ravel()
        new[np.abs(new) <= cancels] = 0.0  # rounding residue, not fill for later pivots
        flat[cells] = new
        self.pivot_cells += len(cells)
        self.basis[r] = q
        self.basic_span[r] = self.spans[q]
        self.enterable[q] = False
        self.enterable[leaving] = self.spans[leaving] != 0

    def values(self, ncols: int) -> np.ndarray:
        """Current value of the first ``ncols`` column variables, flips undone."""
        val = np.zeros(self.mat.shape[1])
        val[self.basis] = self.rhs
        val = np.where(self.flipped, self.spans - val, val)
        return val[:ncols]


def _simplex(lp: LinearProgram):
    """The dual simplex over the rows of ``lp``, from the all-slack basis; making
    ``lp`` checked that each column has a finite bound its cost prefers.

    Returns ``(x, stats)`` for an optimal basis; the stats carry no check
    figures yet.  Raises :class:`LpInfeasibleError` naming the basic variable,
    or the row's slack, whose bound violation no column can repair.
    """
    lo, up, c = lp.var_bounds[:, 0], lp.var_bounds[:, 1], lp.objective

    # affine map x = off + sgn * y with y in [0, span]: a column sits at its upper
    # bound, finite in every program, when its cost is negative or it has no lower bound
    at_up = (c < 0) | np.isneginf(lo)
    off = np.where(at_up, up, lo)
    sgn = np.where(at_up, -1.0, 1.0)
    span = up - lo
    n_main = lp.num_vars

    rows = lp.constraints
    m = len(rows)
    if m == 0:
        # pure box problem: each variable sits at the bound its cost prefers
        return off, SolverStats(m, n_main, 0, 0, 0, False, 0.0)

    # every row gets one slack column of span inf, basic at the start
    n = n_main + m
    dense = np.zeros((m + 1, n + 1))
    # one scatter of every nonzero; a repeated index in a row sums its coefficients
    cells = rows.row_of * (n + 1) + rows.indices
    np.add.at(dense.reshape(-1), cells, rows.coeffs * sgn[rows.indices])
    dense[:m, n] = rows.rhs - rows.dot(off)
    basis = n_main + np.arange(m)
    dense[np.arange(m), basis] = 1.0
    dense[m, :n_main] = c * sgn
    tab = _Tableau(dense, np.concatenate([span, np.full(m, np.inf)]), basis)

    t0 = time.perf_counter()
    stuck = tab.run_dual()
    stats = SolverStats(
        m, n_main, tab.iterations, tab.flips, tab.pivot_cells, tab.bland, time.perf_counter() - t0
    )
    if stuck is not None:
        j = int(tab.basis[stuck])
        what = f"variable {j}" if j < n_main else f"the slack of row {j - n_main}"
        raise LpInfeasibleError(f"infeasible: no column can bring {what} within its bounds", stats)

    x = off + sgn * tab.values(n_main)
    # the dual phase stops within the feasibility tolerance of a bound, not on
    # it, and lower + span can round past upper: the point keeps its box exactly
    return np.clip(x, lo, up), stats


def solve_lp(lp: LinearProgram) -> LpSolution:
    """Solve ``lp`` to proven optimality: the point returned passed
    :func:`check_point`, the final gate, within ``FEASIBILITY_TOL``.

    ``lp`` was checked when it was made, so no :class:`LpFormatError` comes
    from here.  An infeasible program raises :class:`LpInfeasibleError`, and a
    point that fails the gate raises :class:`LpSolverError`.
    """
    x, stats = _simplex(lp)
    t0 = time.perf_counter()
    residuals = check_point(lp, x, 0.0)
    worst = max((v.amount for v in residuals), default=0.0)
    stats = dataclasses.replace(
        stats, check_seconds=time.perf_counter() - t0, worst_residual=worst
    )
    bad = [v for v in residuals if v.amount > FEASIBILITY_TOL]
    if bad:
        raise LpSolverError(
            f"solver returned an infeasible point ({len(bad)} violations, worst {worst:.3e})"
        )
    return LpSolution(x, float(lp.objective @ x), stats.iterations, stats)
