"""Independent oracles used by the test suite.

These deliberately avoid the production code paths they check: the vertex
enumerator knows nothing about simplex tableaus, the deviation-budget brute
force knows nothing about sorting tricks, and the schedule checker evaluates
the physical constraints straight from the scenario arrays.  The dual-route
check solves through chargeopt's LP engine: it checks the Bertsimas-Sim
reformulation against the knapsack evaluator, not the engine.
"""

from itertools import combinations

import numpy as np

from chargeopt.lp import LinearProgram, LpSolverError, Rows, solve_lp
from chargeopt.uncertainty import UncertaintyBudget, _exposure_terms, worst_case_extra_cost

LESS_EQUAL, GREATER_EQUAL, EQUAL = RELATIONS = ("<=", ">=", "=")


def rows_of(rows) -> Rows:
    """:class:`Rows` from ``(indices, coeffs, relation, rhs)`` tuples, one per row.

    A ``<=`` row is kept, a ``>=`` row negated, and an ``=`` row becomes the
    ``<=`` row followed by its negation.
    """
    signs = {LESS_EQUAL: (1.0,), GREATER_EQUAL: (-1.0,), EQUAL: (1.0, -1.0)}
    le = [
        (indices, [s * c for c in coeffs], s * rhs)
        for indices, coeffs, relation, rhs in rows
        for s in signs[relation]
    ]
    return Rows(
        np.cumsum([0] + [len(indices) for indices, _, _ in le]),
        [j for indices, _, _ in le for j in indices],
        [c for _, coeffs, _ in le for c in coeffs],
        [rhs for _, _, rhs in le],
    )


def stack_rows(blocks) -> Rows:
    """The rows of every :class:`Rows` block, in order."""
    nnz = np.cumsum([0] + [len(b.indices) for b in blocks])
    return Rows(
        np.concatenate([[0]] + [b.indptr[1:] + s for b, s in zip(blocks, nnz)]),
        np.concatenate([b.indices for b in blocks]),
        np.concatenate([b.coeffs for b in blocks]),
        np.concatenate([b.rhs for b in blocks]),
    )


def random_box_lp(rng) -> LinearProgram:
    """Random box-bounded LP with 2-6 variables and 2-8 mixed-relation rows (an ``=`` row
    reaches the program as two ``<=`` rows)."""
    n = int(rng.integers(2, 7))
    m = int(rng.integers(2, 9))
    lo = rng.uniform(-3, 0, n)
    up = lo + rng.uniform(0.5, 4, n)
    obj = rng.uniform(-2, 2, n)
    mid = (lo + up) / 2
    cons = []
    for _ in range(m):
        nz = rng.random(n) < 0.7
        if not nz.any():
            nz[rng.integers(0, n)] = True
        idx = tuple(int(j) for j in np.nonzero(nz)[0])
        cf = tuple(float(v) for v in rng.uniform(-2, 2, len(idx)))
        rel = RELATIONS[int(rng.choice([0, 1, 2], p=[0.55, 0.35, 0.10]))]
        rhs = float(np.dot(cf, mid[list(idx)])) + float(rng.uniform(-1.5, 1.5))
        cons.append((idx, cf, rel, rhs))
    return LinearProgram(n, obj, np.stack([lo, up], axis=1), rows_of(cons))


def vertex_enumeration_optimum(lp: LinearProgram, tol: float = 1e-9):
    """Brute-force optimum of a box-bounded LP by enumerating basic points.

    Every vertex of the feasible polytope makes n constraints active: k rows
    plus n-k variables pinned at a bound.  Enumerates all such candidates,
    keeps the feasible ones, and minimizes the objective over them.
    Requires finite bounds on every variable.  Returns ``(status, value)``
    with status "optimal" or "infeasible".
    """
    n = lp.num_vars
    lo, up = lp.var_bounds[:, 0], lp.var_bounds[:, 1]
    if not (np.all(np.isfinite(lo)) and np.all(np.isfinite(up))):
        raise ValueError("vertex enumeration needs a bounded box")
    rhs = lp.constraints.rhs
    m = len(rhs)
    rows = np.zeros((m, n))
    row_of = np.repeat(np.arange(m), np.diff(lp.constraints.indptr))
    # a repeated index in a row sums its coefficients
    np.add.at(rows, (row_of, lp.constraints.indices), lp.constraints.coeffs)

    def best_feasible(X):
        ok = np.all(X >= lo - tol, axis=1) & np.all(X <= up + tol, axis=1)
        if m:
            ok &= np.all(X @ rows.T <= rhs + tol, axis=1)
        if not ok.any():
            return None
        return float(np.min(X[ok] @ lp.objective))

    best = None
    for k in range(min(m, n) + 1):
        # every (k active rows, k free variables) pair at once, active-major
        actives = list(combinations(range(m), k))
        frees = list(combinations(range(n), k))
        act = np.repeat(np.array(actives, dtype=int).reshape(len(actives), k), len(frees), axis=0)
        fr = np.tile(np.array(frees, dtype=int).reshape(len(frees), k), (len(actives), 1))
        pinned = np.ones((len(fr), n), dtype=bool)
        pinned[np.arange(len(fr))[:, None], fr] = False
        pin = np.nonzero(pinned)[1].reshape(len(fr), n - k)
        if k:
            a_free = rows[act[:, :, None], fr[:, None, :]]
            regular = np.abs(np.linalg.det(a_free)) >= 1e-12
            act, fr, pin, a_free = act[regular], fr[regular], pin[regular], a_free[regular]
        if not len(pin):
            continue
        npin = n - k
        bits = (np.arange(1 << npin)[:, None] >> np.arange(npin)) & 1
        xpin = np.where(bits == 1, up[pin][:, None, :], lo[pin][:, None, :])  # (pairs, 2^npin, npin)
        at_pair = np.arange(len(pin))[:, None, None]
        at_point = np.arange(1 << npin)[None, :, None]
        X = np.empty((len(pin), 1 << npin, n))
        X[at_pair, at_point, pin[:, None, :]] = xpin
        if k:
            pin_rows = rows[act[:, :, None], pin[:, None, :]]  # (pairs, k, npin)
            b = rhs[act][:, None, :] - xpin @ pin_rows.transpose(0, 2, 1)
            solved = np.linalg.solve(a_free, b.transpose(0, 2, 1))  # (pairs, k, 2^npin)
            X[at_pair, at_point, fr[:, None, :]] = solved.transpose(0, 2, 1)
        val = best_feasible(X.reshape(-1, n))
        if val is not None and (best is None or val < best):
            best = val
    if best is None:
        return "infeasible", None
    return "optimal", best


def budget_worst_case_bruteforce(terms, gamma):
    """Exhaustive worst case of ``sum(z*terms)`` over ``0<=z<=1, sum(z)<=gamma``.

    The maximum sits at a vertex: some coordinates at 1 (at most floor(gamma))
    and at most one at the fractional remainder.
    """
    terms = np.asarray(terms, dtype=float)
    t = len(terms)
    whole = min(int(np.floor(gamma)), t)
    frac = min(gamma, float(t)) - whole
    best = 0.0
    for k in range(whole + 1):
        for ones in combinations(range(t), k):
            base = float(terms[list(ones)].sum()) if ones else 0.0
            best = max(best, base)
            if k == whole and frac > 0:
                for j in range(t):
                    if j not in ones:
                        best = max(best, base + frac * terms[j])
    return best


class DualityGapError(LpSolverError):
    """Knapsack oracle and dual LP disagree beyond tolerance."""


def verify_dual_equivalence(
    net_purchase, dt: float, budget: UncertaintyBudget, rtol: float = 1e-6
) -> float:
    """Check the dual route against the knapsack oracle; return the residual.

    Solves ``min gamma*lam + sum(mu)`` with ``-mu[t] - lam <= -exposure[t]``
    through the LP engine and compares with :func:`worst_case_extra_cost`.
    ``gamma`` is priced at ``min(gamma, T)`` for ``T`` terms, finite for an infinite
    budget: any ``gamma >= T`` gives the sum of the terms, at ``lam = 0``.
    Raises :class:`DualityGapError` if the residual exceeds
    ``rtol * (1 + oracle)``.
    """
    terms = _exposure_terms(net_purchase, dt, budget)
    oracle = worst_case_extra_cost(net_purchase, dt, budget)
    t = len(terms)
    obj = np.concatenate([[min(budget.gamma, t)], np.ones(t)])
    bounds = np.zeros((t + 1, 2))
    bounds[:, 1] = np.inf
    pairs = np.stack([np.zeros(t, dtype=np.intp), np.arange(1, t + 1)], axis=1)
    rows = Rows(2 * np.arange(t + 1), pairs.ravel(), -np.ones(2 * t), -terms)
    sol = solve_lp(LinearProgram(t + 1, obj, bounds, rows))
    residual = abs(sol.objective_value - oracle)
    if residual > rtol * (1 + oracle):
        raise DualityGapError(
            f"dual optimum {sol.objective_value!r} vs oracle {oracle!r} (residual {residual:.3e})"
        )
    return residual


def availability_reference(sessions, grid) -> np.ndarray:
    """Availability matrix by the definition: one datetime overlap per (session, slot)."""
    a = np.zeros((len(sessions), grid.num_slots))
    for i, sess in enumerate(sessions):
        for t in range(grid.num_slots):
            lo = max(sess.arrival, grid.slot_start(t))
            hi = min(sess.departure, grid.slot_start(t + 1))
            if hi > lo:
                a[i, t] = (hi - lo).total_seconds() / 3600.0 / grid.slot_hours
    return a


def highs_objective(lp: LinearProgram) -> float:
    """Optimal objective of ``lp`` from HiGHS through scipy, for LPs far beyond enumeration.

    Needs scipy, which is a test-only dependency; callers skip without it.
    """
    from scipy.optimize import linprog
    from scipy.sparse import csr_matrix

    rows = lp.constraints
    a_ub = csr_matrix((rows.coeffs, rows.indices, rows.indptr), shape=(len(rows), lp.num_vars))
    res = linprog(lp.objective, a_ub, rows.rhs, bounds=lp.var_bounds, method="highs")
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not reach an optimum: {res.message}")
    return float(res.fun)


def highs_physical_objective(sc, gamma=None) -> float:
    """Optimal cost of the paper's unfolded charging LP, built from the scenario arrays.

    Columns: all N*T charging powers (session-major, capped at ``max_power *
    availability``), solar per slot in ``[0, S_t]``, net purchase per slot,
    and for a budget ``gamma`` the budget dual and one deviation dual per
    slot.  Rows: delivered energy >= demand, ``sum charge - solar <= G``,
    ``sum charge - solar - purchase <= 0`` and ``bound * dt * purchase <=
    deviation dual + budget dual``.  Solved by HiGHS through scipy, a
    test-only dependency; callers skip without it.
    """
    from scipy import sparse
    from scipy.optimize import linprog

    n, T = sc.availability.shape
    dt = sc.grid.slot_hours
    eta = sc.station.charge_efficiency
    eye = sparse.identity(T, format="csr")
    per_slot = sparse.hstack([eye] * n)  # (T, N*T): total charging power per slot
    per_session = sparse.kron(sparse.identity(n), np.ones((1, T)))  # (N, N*T)
    blocks = [
        [-eta * dt * per_session, None, None],
        [per_slot, -eye, None],
        [per_slot, -eye, -eye],
    ]
    rhs = [
        -sc.required_energy,
        np.full(T, sc.station.grid_capacity),
        np.zeros(T),
    ]
    cost = [np.zeros(n * T), np.zeros(T), sc.prices.nominal * dt]
    caps = np.array([s.max_power for s in sc.sessions])[:, None] * sc.availability
    upper = [caps.reshape(-1), sc.solar.cap, np.full(T, np.inf)]
    if gamma is not None:
        for row in blocks:
            row += [None, None]
        deviation = sparse.diags(sc.prices.deviation_bound * dt)
        blocks.append([None, None, deviation, -np.ones((T, 1)), -eye])
        rhs.append(np.zeros(T))
        cost += [np.array([gamma]), np.ones(T)]
        upper += [np.array([np.inf]), np.full(T, np.inf)]
    upper = np.concatenate(upper)
    res = linprog(
        np.concatenate(cost),
        A_ub=sparse.bmat(blocks, format="csr"),
        b_ub=np.concatenate(rhs),
        bounds=np.column_stack([np.zeros(len(upper)), upper]),
        method="highs",
    )
    if res.status != 0:
        raise RuntimeError(f"HiGHS did not reach an optimum: {res.message}")
    return float(res.fun)


def schedule_violations(sc, charging_power, net_purchase, solar_used, tol=1e-6):
    """All physical-constraint violations of a decoded schedule, from raw arrays.

    Checks delivered energy, per-socket caps, grid capacity, purchase
    nonnegativity and linearization, and the solar range.  Returns a list of
    human-readable strings; empty means the schedule is valid within ``tol``.
    """
    grid = sc.grid
    dt = grid.slot_hours
    eta = sc.station.charge_efficiency
    out = []
    for i, sess in enumerate(sc.sessions):
        delivered = eta * float(charging_power[i] @ np.full(grid.num_slots, dt))
        if delivered < sc.required_energy[i] - tol:
            out.append(f"session {sess.id}: delivered {delivered} < {sc.required_energy[i]}")
        cap = sess.max_power * sc.availability[i]
        worst = float(np.max(charging_power[i] - cap))
        if worst > tol:
            out.append(f"session {sess.id}: socket cap exceeded by {worst}")
        if float(np.min(charging_power[i])) < -tol:
            out.append(f"session {sess.id}: negative charging power")
    total = charging_power.sum(axis=0)
    for t in range(grid.num_slots):
        if total[t] - solar_used[t] > sc.station.grid_capacity + tol:
            out.append(f"slot {t}: grid capacity exceeded")
        if net_purchase[t] < -tol:
            out.append(f"slot {t}: negative net purchase")
        if net_purchase[t] < total[t] - solar_used[t] - tol:
            out.append(f"slot {t}: net purchase below net load")
        if solar_used[t] < -tol or solar_used[t] > sc.solar.cap[t] + tol:
            out.append(f"slot {t}: solar outside [0, cap]")
    return out


# ---------------------------------------------------------------------------
# column lookups on a charging LP's variable map, for the tests only


def charge_column(vm, i: int, t: int) -> int:
    """Column of session ``i``'s charging power in slot ``t``; ``KeyError`` if unplugged."""
    flat = i * vm.num_slots + t
    k = int(np.searchsorted(vm.cells, flat))
    if k == vm.num_charge or vm.cells[k] != flat:
        raise KeyError(f"session {i} is not plugged in at slot {t}")
    return k


def variable_names(vm) -> dict[str, int]:
    """Every column of the map by name: ``charge[i,t]``, ``purchase[t]`` and the duals."""
    names = {}
    for k, flat in enumerate(vm.cells.tolist()):
        names[f"charge[{flat // vm.num_slots},{flat % vm.num_slots}]"] = k
    for t, j in zip(vm.bought.tolist(), vm.purchases.tolist()):
        names[f"purchase[{t}]"] = j
    if vm.robust:
        names["budget_dual"] = vm.budget_dual
        for k, t in enumerate(vm.protected.tolist()):
            names[f"deviation_dual[{t}]"] = vm.budget_dual + 1 + k
    return names


def allocation_to_point(allocation: np.ndarray, sc, vm) -> np.ndarray:
    """Map a feasible power allocation onto the nominal LP's variable vector.

    The net purchase of each slot with a purchase column is set to the draw
    left after solar, so a valid allocation yields a feasible LP point.
    Power in a cell where the session is not plugged in has no column and
    raises :class:`ValueError`.
    """
    if vm.robust:
        raise ValueError("expected the nominal variable map")
    flat = np.asarray(allocation, dtype=float).reshape(-1)
    if np.any(np.delete(flat, vm.cells) != 0.0):
        raise ValueError("allocation charges a session in a slot where it is not plugged in")
    x = np.zeros(vm.num_vars)
    x[: vm.num_charge] = flat[vm.cells]
    draw = allocation.sum(axis=0) - sc.solar.cap
    x[vm.purchases] = np.maximum(draw[vm.bought], 0.0)
    return x
