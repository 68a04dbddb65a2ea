"""Build charging LPs from a scenario and decode solver output into schedules.

The nominal program minimizes grid energy cost over charging powers, net
purchases, and solar usage.  The robust variant charges extra for protection
against bounded price deviations: a budget-priced scalar dual plus one dual
per slot, tied to the net purchases by the dual feasibility rows.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

import numpy as np

from .lp import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    Constraint,
    LinearProgram,
    LpSolution,
    LpSolverError,
    LpStatus,
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


@dataclass(frozen=True)
class VariableMap:
    """Column layout of a charging LP.

    Columns run charging powers (session-major), then net purchases, then
    solar usage, then for robust programs the budget dual followed by the
    per-slot deviation duals.
    """

    num_sessions: int
    num_slots: int
    robust: bool

    def charge(self, i: int, t: int) -> int:
        return i * self.num_slots + t

    def purchase(self, t: int) -> int:
        return self.num_sessions * self.num_slots + t

    def solar(self, t: int) -> int:
        return self.num_sessions * self.num_slots + self.num_slots + t

    @property
    def budget_dual(self) -> int:
        if not self.robust:
            raise ValueError("nominal programs have no protection variables")
        return self.num_sessions * self.num_slots + 2 * self.num_slots

    def deviation_dual(self, t: int) -> int:
        return self.budget_dual + 1 + t

    @property
    def num_vars(self) -> int:
        base = self.num_sessions * self.num_slots + 2 * self.num_slots
        return base + self.num_slots + 1 if self.robust else base

    def to_json_dict(self) -> dict[str, int]:
        names = {}
        for i in range(self.num_sessions):
            for t in range(self.num_slots):
                names[f"charge[{i},{t}]"] = self.charge(i, t)
        for t in range(self.num_slots):
            names[f"purchase[{t}]"] = self.purchase(t)
            names[f"solar[{t}]"] = self.solar(t)
        if self.robust:
            names["budget_dual"] = self.budget_dual
            for t in range(self.num_slots):
                names[f"deviation_dual[{t}]"] = self.deviation_dual(t)
        return names


@dataclass(frozen=True)
class Schedule:
    """Decoded optimization result with its cost split.

    ``protection_cost`` is the worst-case premium priced into the robust
    objective (zero for nominal runs); ``objective_value`` is always
    ``nominal_cost + protection_cost``.
    """

    charging_power: np.ndarray  # (N, T) kW
    net_purchase: np.ndarray  # (T,) kW
    solar_used: np.ndarray  # (T,) kW
    budget_dual: float | None
    deviation_duals: np.ndarray | None
    nominal_cost: float
    protection_cost: float
    objective_value: float

    @property
    def grid_draw(self) -> np.ndarray:
        """Physical grid draw, recomputed from powers rather than the LP variable."""
        return np.maximum(self.charging_power.sum(axis=0) - self.solar_used, 0.0)


def _base_rows(sc: Scenario, vm: VariableMap) -> list[Constraint]:
    """Demand, grid-cap, and net-purchase rows, in that order.

    Socket caps are column bounds (see :func:`_bounds`), not rows.
    """
    n, T = sc.num_sessions, sc.num_slots
    dt = sc.grid.slot_hours
    eta = sc.station.charge_efficiency
    rows: list[Constraint] = []
    for i, sess in enumerate(sc.sessions):
        present = np.nonzero(sc.availability[i] > 0)[0]
        rows.append(
            Constraint(
                tuple(vm.charge(i, int(t)) for t in present),
                tuple(eta * dt for _ in present),
                GREATER_EQUAL,
                sess.required_energy,
            )
        )
    for t in range(T):
        idx = tuple(vm.charge(i, t) for i in range(n)) + (vm.solar(t),)
        cf = tuple(1.0 for _ in range(n)) + (-1.0,)
        rows.append(Constraint(idx, cf, LESS_EQUAL, sc.station.grid_capacity))
    for t in range(T):
        idx = tuple(vm.charge(i, t) for i in range(n)) + (vm.solar(t), vm.purchase(t))
        cf = tuple(1.0 for _ in range(n)) + (-1.0, -1.0)
        rows.append(Constraint(idx, cf, LESS_EQUAL, 0.0))
    return rows


def _socket_caps(sc: Scenario) -> np.ndarray:
    """Upper bounds of the session-major charging columns: ``max_power * availability``."""
    max_power = np.array([s.max_power for s in sc.sessions])
    return (max_power[:, None] * sc.availability).reshape(-1)


def _bounds(sc: Scenario, vm: VariableMap) -> np.ndarray:
    bounds = np.zeros((vm.num_vars, 2))
    bounds[:, 1] = INF
    bounds[: sc.num_sessions * sc.num_slots, 1] = _socket_caps(sc)
    for t in range(sc.num_slots):
        bounds[vm.solar(t), 1] = sc.solar.cap[t]
    return bounds


def build_nominal_lp(sc: Scenario) -> tuple[LinearProgram, VariableMap]:
    """Nominal cost-minimization LP; demand policy must already be applied."""
    vm = VariableMap(sc.num_sessions, sc.num_slots, robust=False)
    obj = np.zeros(vm.num_vars)
    for t in range(sc.num_slots):
        obj[vm.purchase(t)] = sc.prices.nominal[t] * sc.grid.slot_hours
    return LinearProgram(vm.num_vars, obj, _bounds(sc, vm), _base_rows(sc, vm)), vm


def build_robust_lp(sc: Scenario, gamma: float) -> tuple[LinearProgram, VariableMap]:
    """Nominal LP extended with the deviation-budget protection term.

    Adds the budget dual (objective weight ``gamma``) and per-slot deviation
    duals (weight 1) with rows ``dev_dual[t] + budget_dual >= bound[t] * dt *
    purchase[t]``.
    """
    if gamma < 0:
        raise ValueError("gamma must be nonnegative")
    vm = VariableMap(sc.num_sessions, sc.num_slots, robust=True)
    dt = sc.grid.slot_hours
    obj = np.zeros(vm.num_vars)
    for t in range(sc.num_slots):
        obj[vm.purchase(t)] = sc.prices.nominal[t] * dt
        obj[vm.deviation_dual(t)] = 1.0
    obj[vm.budget_dual] = gamma
    rows = _base_rows(sc, vm)
    for t in range(sc.num_slots):
        rows.append(
            Constraint(
                (vm.deviation_dual(t), vm.budget_dual, vm.purchase(t)),
                (1.0, 1.0, -sc.prices.deviation_bound[t] * dt),
                GREATER_EQUAL,
                0.0,
            )
        )
    return LinearProgram(vm.num_vars, obj, _bounds(sc, vm), rows), vm


def max_delivery(sc: Scenario) -> np.ndarray:
    """Most energy (kWh) each session can receive, jointly, under the caps.

    This is the optimum of the auxiliary LP maximizing total delivered energy
    subject to the socket, grid, and solar constraints with per-session
    ceilings at the requested amounts.  When the socket caps in every slot
    sum to at most the grid capacity, the grid row cannot bind (solar only
    loosens it), the LP splits by session, and each session gets
    ``min(required, eta * dt * sum of its caps)`` without an LP solve.
    """
    caps = _socket_caps(sc).reshape(sc.num_sessions, sc.num_slots)
    if np.all(caps.sum(axis=0) <= sc.station.grid_capacity):
        reachable = sc.station.charge_efficiency * sc.grid.slot_hours * caps.sum(axis=1)
        return np.minimum([s.required_energy for s in sc.sessions], reachable)
    return _max_delivery_lp(sc)


def _max_delivery_lp(sc: Scenario) -> np.ndarray:
    """:func:`max_delivery` by solving its auxiliary LP."""
    n, T = sc.num_sessions, sc.num_slots
    dt = sc.grid.slot_hours
    eta = sc.station.charge_efficiency
    num = n * T + T  # charging powers then solar
    bounds = np.zeros((num, 2))
    bounds[: n * T, 1] = _socket_caps(sc)
    bounds[n * T :, 1] = sc.solar.cap
    obj = np.zeros(num)
    obj[: n * T] = -eta * dt  # maximize delivered energy
    rows = []
    for t in range(T):
        idx = tuple(i * T + t for i in range(n)) + (n * T + t,)
        cf = tuple(1.0 for _ in range(n)) + (-1.0,)
        rows.append(Constraint(idx, cf, LESS_EQUAL, sc.station.grid_capacity))
    for i, sess in enumerate(sc.sessions):
        idx = tuple(i * T + t for t in range(T))
        rows.append(Constraint(idx, tuple(eta * dt for _ in range(T)), LESS_EQUAL, sess.required_energy))
    sol = solve_lp(LinearProgram(num, obj, bounds, rows))
    if sol.status is not LpStatus.OPTIMAL:
        raise LpSolverError(f"delivery LP ended {sol.status}; it is feasible by construction")
    power = sol.x[: n * T].reshape(n, T)
    return eta * dt * power.sum(axis=1)


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

    Costs are recomputed from the variable values and cross-checked against
    the solver's objective; any physical-constraint violation raises
    :class:`ScheduleConsistencyError` rather than passing silently.
    """
    if sol.status is not LpStatus.OPTIMAL:
        raise ValueError(f"cannot extract a schedule from a {sol.status.value} solution")
    n, T = vm.num_sessions, vm.num_slots
    dt = sc.grid.slot_hours
    x = sol.x
    charging = x[: n * T].reshape(n, T).copy()
    purchase = np.array([x[vm.purchase(t)] for t in range(T)])
    solar = np.array([x[vm.solar(t)] for t in range(T)])
    nominal_cost = float(sc.prices.nominal @ purchase) * dt
    if vm.robust:
        budget_dual = float(x[vm.budget_dual])
        dev_duals = np.array([x[vm.deviation_dual(t)] for t in range(T)])
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
    )


def _verify_phys134(sc: Scenario, charging, purchase, solar, tol=CONSTRAINT_TOL):
    dt = sc.grid.slot_hours
    eta = sc.station.charge_efficiency
    problems = []
    delivered = eta * dt * charging.sum(axis=1)
    for i, sess in enumerate(sc.sessions):
        if delivered[i] < sess.required_energy - tol:
            problems.append(f"session {sess.id} short by {sess.required_energy - delivered[i]:.2e} kWh")
    over = charging - sc.availability * np.array([s.max_power for s in sc.sessions])[:, None]
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


def solve_offline(
    sc: Scenario, gamma: float | None = None, demand_policy: str = "clamp"
) -> tuple[Schedule, list[DemandAdjustment]]:
    """Apply the demand policy, build, solve, and decode in one step."""
    eff, adjustments = apply_demand_policy(sc, demand_policy)
    if gamma is None:
        lp, vm = build_nominal_lp(eff)
    else:
        lp, vm = build_robust_lp(eff, gamma)
    sol = solve_lp(lp)
    if sol.status is not LpStatus.OPTIMAL:
        raise LpSolverError(
            f"charging LP ended {sol.status.value} although demands were made deliverable"
        )
    return extract_schedule(sol, vm, eff, gamma), adjustments


def allocation_to_point(allocation: np.ndarray, sc: Scenario, vm: VariableMap) -> np.ndarray:
    """Map a feasible power allocation onto the nominal LP's variable vector.

    Solar usage is set to cover as much of the load as the ceiling allows and
    the net purchase to the remaining draw, so a valid allocation yields a
    feasible LP point.
    """
    if vm.robust:
        raise ValueError("expected the nominal variable map")
    total = allocation.sum(axis=0)
    solar = np.minimum(total, sc.solar.cap)
    purchase = np.maximum(total - solar, 0.0)
    x = np.zeros(vm.num_vars)
    x[: vm.num_sessions * vm.num_slots] = allocation.reshape(-1)
    for t in range(vm.num_slots):
        x[vm.purchase(t)] = purchase[t]
        x[vm.solar(t)] = solar[t]
    return x
