"""Build charging LPs from a scenario and decode solver output into schedules.

The nominal program minimizes grid energy cost over the charging powers of
the plugged-in (session, slot) cells and the per-slot net purchases, bounded
by the grid capacity.  Free solar is substituted out: a supply row
``load[t] - purchase[t] <= S_t`` replaces the paper's grid-cap and
net-purchase rows, and the decoder sets ``solar_used = min(load, S)``.  The
robust variant adds a budget-priced scalar dual plus one dual per slot, tied
to the net purchases by the dual feasibility rows.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .lp import (
    GREATER_EQUAL,
    LESS_EQUAL,
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
    0``), session-major, then one net purchase per slot, then for robust
    programs the budget dual followed by the per-slot deviation duals.
    Cells where the session is not plugged in have no column.  ``cells``
    holds the flat index ``i * num_slots + t`` of each charging column.
    """

    num_sessions: int
    num_slots: int
    robust: bool
    cells: np.ndarray

    @classmethod
    def for_scenario(cls, sc: Scenario, robust: bool) -> "VariableMap":
        return cls(sc.num_sessions, sc.num_slots, robust, np.flatnonzero(sc.availability > 0))

    @property
    def num_charge(self) -> int:
        return len(self.cells)

    def purchase(self, t: int) -> int:
        return self.num_charge + t

    @property
    def budget_dual(self) -> int:
        if not self.robust:
            raise ValueError("nominal programs have no protection variables")
        return self.num_charge + self.num_slots

    def deviation_dual(self, t: int) -> int:
        return self.budget_dual + 1 + t

    @property
    def num_vars(self) -> int:
        base = self.num_charge + self.num_slots
        return base + self.num_slots + 1 if self.robust else base

    def slot_rows(self, purchases: bool) -> tuple[np.ndarray, np.ndarray]:
        """One row per slot listing the charging columns of the sessions plugged in
        there, in session order, then with ``purchases`` the slot's purchase column,
        as ``(indptr, columns)``: slot ``t`` holds ``columns[indptr[t]:indptr[t + 1]]``."""
        slot_of = self.cells % self.num_slots
        if purchases:
            slot_of = np.concatenate([slot_of, np.arange(self.num_slots)])
        indptr = np.zeros(self.num_slots + 1, dtype=np.intp)
        np.cumsum(np.bincount(slot_of, minlength=self.num_slots), out=indptr[1:])
        # the charging columns come first and the purchases follow them, so a
        # column's index is its position in slot_of
        return indptr, np.argsort(slot_of, kind="stable")


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


def _demand_rows(sc: Scenario, vm: VariableMap, relation: str) -> Rows:
    """One row per session: energy delivered over its plugged-in cells vs its requirement."""
    coeff = sc.station.charge_efficiency * sc.grid.slot_hours
    first = np.searchsorted(vm.cells, np.arange(sc.num_sessions + 1) * sc.num_slots)
    return Rows(
        first,
        np.arange(vm.num_charge),
        np.full(vm.num_charge, coeff),
        relation,
        [sess.required_energy for sess in sc.sessions],
    )


def _socket_caps(sc: Scenario) -> np.ndarray:
    """Per-cell power ceilings ``max_power * availability``, shape ``(N, T)``."""
    max_power = np.array([s.max_power for s in sc.sessions])
    return max_power[:, None] * sc.availability


def _charging_lp(sc: Scenario, vm: VariableMap, gamma: float | None) -> LinearProgram:
    """Demand rows, one supply row ``load[t] - purchase[t] <= S_t`` per slot, then for
    robust maps the dual rows; socket and grid caps are column bounds."""
    T, dt = sc.num_slots, sc.grid.slot_hours
    purchases = slice(vm.purchase(0), vm.purchase(0) + T)
    obj = np.zeros(vm.num_vars)
    obj[purchases] = sc.prices.nominal * dt
    bounds = np.zeros((vm.num_vars, 2))
    bounds[:, 1] = INF
    bounds[: vm.num_charge, 1] = _socket_caps(sc).reshape(-1)[vm.cells]
    bounds[purchases, 1] = sc.station.grid_capacity
    indptr, cols = vm.slot_rows(purchases=True)
    rows = [
        _demand_rows(sc, vm, GREATER_EQUAL),
        Rows(indptr, cols, np.where(cols < vm.num_charge, 1.0, -1.0), LESS_EQUAL, sc.solar.cap),
    ]
    if vm.robust:
        obj[vm.budget_dual] = gamma
        obj[vm.budget_dual + 1 :] = 1.0
        # dev_dual[t] + budget_dual - bound[t] * dt * purchase[t] >= 0
        slot = np.arange(T)
        members = [vm.deviation_dual(0) + slot, np.full(T, vm.budget_dual), vm.purchase(0) + slot]
        weights = [np.ones(T), np.ones(T), -sc.prices.deviation_bound * dt]
        rows.append(
            Rows(
                3 * np.arange(T + 1),
                np.column_stack(members).ravel(),
                np.column_stack(weights).ravel(),
                GREATER_EQUAL,
                np.zeros(T),
            )
        )
    return LinearProgram(vm.num_vars, obj, bounds, Rows.stack(rows))


def build_nominal_lp(sc: Scenario) -> tuple[LinearProgram, VariableMap]:
    """Nominal cost-minimization LP; demand policy must already be applied."""
    vm = VariableMap.for_scenario(sc, robust=False)
    return _charging_lp(sc, vm, None), vm


def build_robust_lp(sc: Scenario, gamma: float) -> tuple[LinearProgram, VariableMap]:
    """Nominal LP extended with the deviation-budget protection term.

    Adds the budget dual (objective weight ``gamma``) and per-slot deviation
    duals (weight 1) with rows ``dev_dual[t] + budget_dual >= bound[t] * dt *
    purchase[t]``.
    """
    if not 0 <= gamma < math.inf:  # the budget is an objective coefficient
        raise ValueError(f"gamma must be finite and nonnegative, got {gamma!r}")
    vm = VariableMap.for_scenario(sc, robust=True)
    return _charging_lp(sc, vm, gamma), vm


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
    return _max_delivery_lp(sc)


def _max_delivery_lp(sc: Scenario) -> np.ndarray:
    """:func:`max_delivery` by its auxiliary LP; each cell's cap is at most its slot's supply."""
    vm = VariableMap.for_scenario(sc, robust=False)
    coeff = sc.station.charge_efficiency * sc.grid.slot_hours
    supply = sc.station.grid_capacity + sc.solar.cap
    caps = np.minimum(_socket_caps(sc).reshape(-1)[vm.cells], supply[vm.cells % vm.num_slots])
    bounds = np.column_stack([np.zeros(vm.num_charge), caps])
    obj = np.full(vm.num_charge, -coeff)  # maximize delivered energy
    indptr, cols = vm.slot_rows(purchases=False)
    supply_rows = Rows(indptr, cols, np.ones(len(cols)), LESS_EQUAL, supply)
    rows = Rows.stack([supply_rows, _demand_rows(sc, vm, LESS_EQUAL)])
    sol = solve_lp(LinearProgram(vm.num_charge, obj, bounds, rows))
    if sol.status is not LpStatus.OPTIMAL:
        raise LpSolverError(f"delivery LP ended {sol.status}; it is feasible by construction")
    return coeff * _charging_matrix(sol.x, vm).sum(axis=1)


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

    Solar usage is ``min(load, S)`` per slot.  Costs are recomputed from the
    variable values and cross-checked against the solver's objective; any
    physical-constraint violation raises :class:`ScheduleConsistencyError`
    rather than passing silently.
    """
    if sol.status is not LpStatus.OPTIMAL:
        raise ValueError(f"cannot extract a schedule from a {sol.status.value} solution")
    x = sol.x
    charging = _charging_matrix(x, vm)
    purchase = x[vm.purchase(0) : vm.purchase(0) + vm.num_slots].copy()
    solar = np.minimum(charging.sum(axis=0), sc.solar.cap)
    nominal_cost = sc.energy_cost(purchase)
    if vm.robust:
        budget_dual = float(x[vm.budget_dual])
        dev_duals = x[vm.budget_dual + 1 :].copy()
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

