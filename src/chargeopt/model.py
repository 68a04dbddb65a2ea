"""Build charging LPs from a scenario and decode solver output into schedules.

The nominal program minimizes grid energy cost over the charging powers of
the plugged-in (session, slot) cells and the per-slot net purchases, bounded
by the grid capacity.  Free solar is substituted out: a supply row
``load[t] - purchase[t] <= S_t`` replaces the paper's grid-cap and
net-purchase rows, and the decoder sets ``solar_used = min(load, S)``.

A slot whose purchase is already known gets no purchase column.  A dark
slot (``S_t = 0``) buys its load: its cells carry the price, and it keeps
only the row ``load[t] <= G``, where its socket caps sum above ``G``.  A
slot whose socket caps sum to at most ``S_t`` buys nothing and has no row.

The robust variant adds a budget-priced scalar dual plus one dual per slot,
tied to the net purchases (a dark slot's load) by the dual feasibility rows
``bound[t] * dt * purchase[t] <= dev[t] + budget`` of Bertsimas and Sim
(Oper. Res. 52(1), 2004).  Each row is divided by its ``b_t = bound[t] *
dt``, with ``dev[t] = b_t * mu[t]`` and ``budget = s * scaled`` for ``s =
max b_t``, so every entry of the row is a ratio of bounds, whatever their
size (Tomlin, Math. Prog. Study 4, 1975).  A slot with ``b_t = 0``, or with
nothing to buy, has no dual row, since that row cannot bind.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .lp import (
    LinearProgram,
    LpSolution,
    LpSolverError,
    LpStatus,
    Rows,
    SolverStats,
    solve_lp,
)
from .scenario import Scenario

INF = float("inf")
CONSTRAINT_TOL = 1e-6
COST_CROSSCHECK_RTOL = 1e-9


class DemandInfeasibleError(Exception):
    """Strict demand policy: at least one session cannot receive its energy."""

    def __init__(self, shortfalls):
        self.shortfalls = list(shortfalls)
        lines = ", ".join(
            f"{s.session_id} needs {s.required:.3f} kWh, max deliverable {s.deliverable:.3f}"
            for s in self.shortfalls
        )
        super().__init__(f"unreachable demand: {lines}")


class ScheduleConsistencyError(Exception):
    """Decoded solver output violates the physical constraints (solver bug surfaced)."""


@dataclass(frozen=True)
class DemandAdjustment:
    """One session whose requirement exceeds what the station can deliver."""

    session_id: str
    required: float  # kWh as requested
    deliverable: float  # kWh actually achievable


@dataclass(frozen=True, eq=False)
class VariableMap:
    """Column layout of a charging LP.

    Columns run one charging power per plugged-in cell (``availability >
    0``), session-major, then one net purchase per slot of ``bought``, then
    for robust programs the scaled budget dual followed by one scaled
    deviation dual per slot of ``protected``.  Cells where the session is not
    plugged in have no column.  ``cells`` holds the flat index ``i *
    num_slots + t`` of each charging column.

    A slot buys its load where it has no solar (``dark``), and nothing where
    its socket caps sum to at most its solar; neither has a purchase column.
    ``bought`` lists the other slots, ``capped`` the dark slots whose socket
    caps sum above the grid capacity, and ``protected`` the slots with a
    positive deviation bound and something to buy: a purchase column, or a
    dark slot's plugged-in cells.
    """

    num_sessions: int
    num_slots: int
    robust: bool
    cells: np.ndarray
    dark: np.ndarray  # (T,) bool
    bought: np.ndarray
    capped: np.ndarray
    protected: np.ndarray

    @classmethod
    def for_scenario(cls, sc: Scenario, robust: bool, socket_caps: np.ndarray) -> "VariableMap":
        caps = socket_caps.sum(axis=0)
        dark = sc.solar.cap == 0
        bought = ~dark & (caps > sc.solar.cap)
        capped = dark & (caps > sc.station.grid_capacity)
        protected = (bought | (dark & (caps > 0))) & (sc.prices.deviation_bound > 0) & robust
        return cls(
            sc.num_sessions,
            sc.num_slots,
            robust,
            np.flatnonzero(sc.availability > 0),
            dark,
            bought.nonzero()[0],
            capped.nonzero()[0],
            protected.nonzero()[0],
        )

    @property
    def num_charge(self) -> int:
        return len(self.cells)

    @property
    def purchases(self) -> np.ndarray:
        """The purchase column of each slot of ``bought``."""
        return self.num_charge + np.arange(len(self.bought))

    @property
    def budget_dual(self) -> int:
        if not self.robust:
            raise ValueError("nominal programs have no protection variables")
        return self.num_charge + len(self.bought)

    @property
    def num_vars(self) -> int:
        base = self.num_charge + len(self.bought)
        return base + 1 + len(self.protected) if self.robust else base


@dataclass(frozen=True)
class Schedule:
    """Decoded optimization result with its cost split.

    ``protection_cost`` is the worst-case premium priced into the robust
    objective (zero for nominal runs); ``objective_value`` is always
    ``nominal_cost + protection_cost``.  ``stats`` is what the simplex did
    on the solve, ``None`` for a schedule made without one.
    """

    charging_power: np.ndarray  # (N, T) kW
    net_purchase: np.ndarray  # (T,) kW
    solar_used: np.ndarray  # (T,) kW
    budget_dual: float | None
    deviation_duals: np.ndarray | None
    nominal_cost: float
    protection_cost: float
    objective_value: float
    stats: SolverStats | None = None

    @property
    def grid_draw(self) -> np.ndarray:
        """Physical grid draw, recomputed from powers rather than the LP variable."""
        return np.maximum(self.charging_power.sum(axis=0) - self.solar_used, 0.0)


def _demand_rows(sc: Scenario, cells: np.ndarray, sign: float) -> Rows:
    """One row per session, ``sign * delivered <= sign * required``: ``sign`` -1 asks for at
    least the requirement over the session's plugged-in ``cells``, +1 for at most it."""
    coeff = sc.station.charge_efficiency * sc.grid.slot_hours
    first = np.searchsorted(cells, np.arange(sc.num_sessions + 1) * sc.num_slots)
    return Rows(
        first,
        np.arange(len(cells)),
        np.full(len(cells), sign * coeff),
        sign * np.array([sess.required_energy for sess in sc.sessions]),
    )


def _socket_caps(sc: Scenario) -> np.ndarray:
    """Per-cell power ceilings ``max_power * availability``, shape ``(N, T)``."""
    max_power = np.array([s.max_power for s in sc.sessions])
    return max_power[:, None] * sc.availability


def _rows(row: np.ndarray, cols: np.ndarray, coeffs: np.ndarray, rhs: np.ndarray) -> Rows:
    """Rows from one ``(row, column, weight)`` entry each; a row keeps its entries in the
    order given."""
    indptr = np.zeros(len(rhs) + 1, dtype=np.intp)
    np.cumsum(np.bincount(row, minlength=len(rhs)), out=indptr[1:])
    order = np.argsort(row, kind="stable")
    return Rows(indptr, cols[order], coeffs[order], rhs)


def _deviation_scales(sc: Scenario, vm: VariableMap) -> tuple[np.ndarray, np.float64]:
    """``b_t = bound[t] * dt`` over the protected slots and their largest, ``s``: the robust
    rows scale deviation dual ``t`` by ``b_t`` and the budget dual by ``s``.  ``s`` stays a
    numpy scalar, so that a product past the float range warns."""
    b = sc.prices.deviation_bound[vm.protected] * sc.grid.slot_hours
    return b, b.max(initial=0.0)


def _charging_lp(sc: Scenario, gamma: float | None) -> tuple[LinearProgram, VariableMap]:
    """Demand rows, one supply row per bought or capped slot, then for a budget ``gamma``
    one dual row per protected slot; socket and grid caps are column bounds."""
    caps = _socket_caps(sc)
    vm = VariableMap.for_scenario(sc, gamma is not None, caps)
    T, dt = sc.num_slots, sc.grid.slot_hours
    nc, purchases = vm.num_charge, vm.purchases
    slot = vm.cells % T
    price = sc.prices.nominal * dt
    obj = np.zeros(vm.num_vars)
    obj[:nc] = np.where(vm.dark[slot], price[slot], 0.0)  # a dark slot buys its load
    obj[purchases] = price[vm.bought]
    bounds = np.zeros((vm.num_vars, 2))
    bounds[:, 1] = INF
    bounds[:nc, 1] = caps.reshape(-1)[vm.cells]
    bounds[purchases, 1] = sc.station.grid_capacity
    # load[t] - purchase[t] <= S_t at a bought slot, load[t] <= G at a capped one
    supplied = np.sort(np.concatenate([vm.bought, vm.capped]))  # bought slots are not dark
    row_of = np.full(T, -1)
    row_of[supplied] = np.arange(len(supplied))
    live = (row_of[slot] >= 0).nonzero()[0]
    rows = [
        _demand_rows(sc, vm.cells, -1.0),
        _rows(
            np.concatenate([row_of[slot[live]], row_of[vm.bought]]),
            np.concatenate([live, purchases]),
            np.concatenate([np.ones(len(live)), -np.ones(len(purchases))]),
            np.where(vm.dark[supplied], sc.station.grid_capacity, sc.solar.cap[supplied]),
        ),
    ]
    if vm.robust:
        # the dual row dev[t] + budget >= b_t * purchase[t] with dev[t] = b_t * mu[t] and
        # budget = s * scaled, over b_t: purchase[t] - mu[t] - (s / b_t) * scaled <= 0, where
        # a dark slot's load stands for its purchase
        b, s = _deviation_scales(sc, vm)
        k = np.arange(len(b))
        mu = vm.budget_dual + 1 + k
        obj[vm.budget_dual] = gamma * s
        obj[mu] = b
        dual_row = np.full(T, -1)
        dual_row[vm.protected] = k
        loads = (vm.dark[slot] & (dual_row[slot] >= 0)).nonzero()[0]
        buys = (dual_row[vm.bought] >= 0).nonzero()[0]
        rows.append(
            _rows(
                np.concatenate([dual_row[slot[loads]], dual_row[vm.bought[buys]], k, k]),
                np.concatenate([loads, purchases[buys], mu, np.full(len(k), vm.budget_dual)]),
                np.concatenate([np.ones(len(loads) + len(buys)), -np.ones(len(k)), -s / b]),
                np.zeros(len(k)),
            )
        )
    return LinearProgram(vm.num_vars, obj, bounds, Rows.stack(rows)), vm


def build_nominal_lp(sc: Scenario) -> tuple[LinearProgram, VariableMap]:
    """Nominal cost-minimization LP; demand policy must already be applied."""
    return _charging_lp(sc, None)


def build_robust_lp(sc: Scenario, gamma: float) -> tuple[LinearProgram, VariableMap]:
    """Nominal LP extended with the deviation-budget protection term.

    Adds the budget dual (objective weight ``gamma``) and one deviation dual
    per protected slot (weight 1) with rows ``dev_dual[t] + budget_dual >=
    bound[t] * dt * purchase[t]``, each scaled by its bound as
    :func:`_charging_lp` sets out; :func:`extract_schedule` unscales them.
    """
    if not 0 <= gamma < math.inf:  # the budget is an objective coefficient
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma!r}")
    return _charging_lp(sc, gamma)


def max_delivery(sc: Scenario) -> np.ndarray:
    """Most energy (kWh) each session can receive, jointly, under the caps.

    This is the optimum of the auxiliary LP maximizing total delivered energy
    subject to the socket caps, the per-slot supply ``G + S_t`` (grid plus
    solar), and per-session ceilings at the requested amounts.  When the
    socket caps in every slot sum to at most that slot's supply, no slot row
    can bind, the LP splits by session, and each session gets ``min(required,
    eta * dt * sum of its caps)`` without an LP solve.
    """
    caps = _socket_caps(sc)
    if np.all(caps.sum(axis=0) <= sc.station.grid_capacity + sc.solar.cap):
        reachable = sc.station.charge_efficiency * sc.grid.slot_hours * caps.sum(axis=1)
        return np.minimum([s.required_energy for s in sc.sessions], reachable)
    return _max_delivery_lp(sc, caps)


def _max_delivery_lp(sc: Scenario, caps: np.ndarray | None = None) -> np.ndarray:
    """:func:`max_delivery` by its auxiliary LP; each cell's cap is at most its slot's supply and
    its session's requirement over ``eta * dt``, which its demand row implies anyway."""
    caps = _socket_caps(sc) if caps is None else caps
    cells = np.flatnonzero(sc.availability > 0)
    slot = cells % sc.num_slots
    coeff = sc.station.charge_efficiency * sc.grid.slot_hours
    supply = sc.station.grid_capacity + sc.solar.cap
    need = (np.array([s.required_energy for s in sc.sessions]) / coeff)[cells // sc.num_slots]
    upper = np.minimum(np.minimum(caps.reshape(-1)[cells], supply[slot]), need)
    bounds = np.column_stack([np.zeros(len(cells)), upper])
    obj = np.full(len(cells), -coeff)  # maximize delivered energy
    supply_rows = _rows(slot, np.arange(len(cells)), np.ones(len(cells)), supply)
    rows = Rows.stack([supply_rows, _demand_rows(sc, cells, 1.0)])
    sol = solve_lp(LinearProgram(len(cells), obj, bounds, rows))
    if sol.status is not LpStatus.OPTIMAL:
        raise LpSolverError(f"delivery LP ended {sol.status.value}; feasible by construction")
    power = np.zeros(caps.size)
    power[cells] = sol.x
    return coeff * power.reshape(caps.shape).sum(axis=1)


def _charging_matrix(x: np.ndarray, vm: VariableMap) -> np.ndarray:
    """``(N, T)`` charging powers from a point; unplugged cells are 0."""
    power = np.zeros(vm.num_sessions * vm.num_slots)
    power[vm.cells] = x[: vm.num_charge]
    return power.reshape(vm.num_sessions, vm.num_slots)


def apply_demand_policy(sc: Scenario, policy: str = "clamp"):
    """Make demands jointly deliverable, or prove they already are.

    ``clamp`` lowers each unreachable requirement to the deliverable amount
    and reports the adjustments; ``strict`` raises
    :class:`DemandInfeasibleError` instead.  Returns ``(scenario,
    adjustments)``; the scenario is unchanged when every demand is reachable.
    """
    if policy not in ("strict", "clamp"):
        raise ValueError(f"unknown demand policy {policy!r}")
    deliverable = max_delivery(sc)
    adjustments = []
    new_sessions = list(sc.sessions)
    for i, sess in enumerate(sc.sessions):
        if deliverable[i] >= sess.required_energy - CONSTRAINT_TOL * (1 + sess.required_energy):
            continue
        adjustments.append(DemandAdjustment(sess.id, sess.required_energy, float(deliverable[i])))
        new_sessions[i] = dataclasses.replace(sess, required_energy=float(deliverable[i]))
    if not adjustments:
        return sc, []
    if policy == "strict":
        raise DemandInfeasibleError(adjustments)
    return dataclasses.replace(sc, sessions=tuple(new_sessions)), adjustments


def extract_schedule(
    sol: LpSolution, vm: VariableMap, sc: Scenario, gamma: float | None = None
) -> Schedule:
    """Decode an optimal solution and verify it against the scenario.

    Solar usage is ``min(load, S)`` per slot, and the net purchase of a slot
    without a purchase column is its load where it is dark, 0 elsewhere.  The
    deviation duals are ``bound[t] * dt`` times their columns (0 where a slot
    has none), and the budget dual is the largest such scale times its
    column.  Costs are recomputed from the variable values and cross-checked
    against the solver's objective; any physical-constraint violation raises
    :class:`ScheduleConsistencyError` rather than passing silently.
    """
    if sol.status is not LpStatus.OPTIMAL:
        raise ValueError(f"cannot extract a schedule from a {sol.status.value} solution")
    x = sol.x
    charging = _charging_matrix(x, vm)
    load = charging.sum(axis=0)
    purchase = np.where(vm.dark, load, 0.0)
    purchase[vm.bought] = x[vm.purchases]
    solar = np.minimum(load, sc.solar.cap)
    nominal_cost = sc.energy_cost(purchase)
    if vm.robust:
        b, s = _deviation_scales(sc, vm)
        budget_dual = float(s * x[vm.budget_dual])
        dev_duals = np.zeros(vm.num_slots)
        dev_duals[vm.protected] = b * x[vm.budget_dual + 1 :]
        protection = float(gamma) * budget_dual + float(dev_duals.sum())
    else:
        budget_dual, dev_duals, protection = None, None, 0.0
    objective = nominal_cost + protection
    if abs(objective - sol.objective_value) > COST_CROSSCHECK_RTOL * (1 + abs(objective)):
        raise ScheduleConsistencyError(
            f"recomputed objective {objective!r} != solver objective {sol.objective_value!r}"
        )
    _verify_phys134(sc, charging, purchase, solar)
    return Schedule(
        charging_power=charging,
        net_purchase=purchase,
        solar_used=solar,
        budget_dual=budget_dual,
        deviation_duals=dev_duals,
        nominal_cost=nominal_cost,
        protection_cost=protection,
        objective_value=objective,
        stats=sol.stats,
    )


def _verify_phys134(sc: Scenario, charging, purchase, solar, tol=CONSTRAINT_TOL):
    dt = sc.grid.slot_hours
    eta = sc.station.charge_efficiency
    problems = []
    delivered = eta * dt * charging.sum(axis=1)
    for i, sess in enumerate(sc.sessions):
        if delivered[i] < sess.required_energy - tol:
            problems.append(f"session {sess.id} short by {sess.required_energy - delivered[i]:.2e} kWh")
    over = charging - _socket_caps(sc)
    if float(over.max(initial=-np.inf)) > tol:
        problems.append("socket cap exceeded")
    if float(charging.min(initial=np.inf)) < -tol:
        problems.append("negative charging power")
    net = charging.sum(axis=0) - solar
    if float(np.max(net)) > sc.station.grid_capacity + tol:
        problems.append("grid capacity exceeded")
    if float(np.min(purchase)) < -tol or float(np.min(purchase - net)) < -tol:
        problems.append("net purchase below net load or negative")
    if float(np.min(solar)) < -tol or float(np.max(solar - sc.solar.cap)) > tol:
        problems.append("solar usage outside its ceiling")
    if problems:
        raise ScheduleConsistencyError("; ".join(problems))


def solve_deliverable(sc: Scenario, gamma: float | None = None) -> Schedule:
    """Build, solve, and decode the charging LP of a scenario whose demands are deliverable.

    The demands must already have passed :func:`apply_demand_policy`; a
    budget ``gamma`` selects the robust LP, ``None`` the nominal one.
    """
    if gamma is None:
        lp, vm = build_nominal_lp(sc)
    else:
        lp, vm = build_robust_lp(sc, gamma)
    sol = solve_lp(lp)
    if sol.status is not LpStatus.OPTIMAL:
        raise LpSolverError(
            f"charging LP ended {sol.status.value} although demands were made deliverable"
        )
    return extract_schedule(sol, vm, sc, gamma)


def solve_offline(
    sc: Scenario, gamma: float | None = None, demand_policy: str = "clamp"
) -> tuple[Schedule, list[DemandAdjustment]]:
    """Apply the demand policy, then :func:`solve_deliverable`, in one step."""
    eff, adjustments = apply_demand_policy(sc, demand_policy)
    return solve_deliverable(eff, gamma), adjustments

