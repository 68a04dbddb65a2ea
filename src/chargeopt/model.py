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

from .lp import LinearProgram, LpSolution, LpSolverError, Rows, SolverStats, solve_lp
from .scenario import Scenario

INF = float("inf")
CONSTRAINT_TOL = 1e-6
# a demand at most this far above its deliverable amount reaches the charging LP as asked:
# the gap is the delivery LP's rounding, and even over the eta * dt of a one-minute slot
# it stays far inside the charging LP's FEASIBILITY_TOL
DELIVERY_ROUNDING_KWH = 1e-9
COST_CROSSCHECK_RTOL = 1e-9
DEMAND_POLICIES = ("strict", "clamp")


class DemandInfeasibleError(Exception):
    """Strict demand policy: at least one session cannot receive its energy."""

    def __init__(self, shortfalls):
        self.shortfalls = list(shortfalls)
        lines = ", ".join(
            f"{s.session_id} needs {s.required:.3f} kWh, max deliverable {s.deliverable:.3f}"
            for s in self.shortfalls
        )
        super().__init__(f"unreachable demand: {lines}")


class ScheduleConsistencyError(LpSolverError):
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
    for a robust program, built with a budget ``gamma`` (``None`` for a
    nominal one), the scaled budget dual followed by one scaled deviation
    dual per slot of ``protected``.  Cells where the session is not
    plugged in have no column.  ``cells`` holds the flat index ``i *
    num_slots + t`` of each charging column.

    A slot buys its load where it has no solar (``dark``), and nothing where
    its socket caps sum to at most its solar; neither has a purchase column.
    ``bought`` lists the other slots, ``capped`` the dark slots whose socket
    caps sum above the grid capacity, and ``protected`` the slots with a
    positive deviation bound and something to buy: a purchase column, or a
    dark slot's plugged-in cells.  ``b`` holds the scale ``bound[t] * dt`` of
    each protected slot's deviation dual and ``s``, their largest, the budget
    dual's; ``s`` stays a numpy scalar, so that a product past the float
    range warns.
    """

    num_sessions: int
    num_slots: int
    gamma: float | None
    cells: np.ndarray
    dark: np.ndarray  # (T,) bool
    bought: np.ndarray
    capped: np.ndarray
    protected: np.ndarray
    b: np.ndarray
    s: np.float64

    @classmethod
    def for_scenario(cls, sc: Scenario, gamma: float | None) -> VariableMap:
        caps = sc.socket_caps.sum(axis=0)
        dark = sc.solar.cap == 0
        bought = ~dark & (caps > sc.solar.cap)
        capped = dark & (caps > sc.station.grid_capacity)
        protected = (bought | (dark & (caps > 0))) & (sc.prices.deviation_bound > 0)
        protected = (protected & (gamma is not None)).nonzero()[0]
        b = sc.prices.deviation_bound[protected] * sc.grid.slot_hours
        return cls(
            sc.num_sessions,
            sc.num_slots,
            gamma,
            np.flatnonzero(sc.availability > 0),
            dark,
            bought.nonzero()[0],
            capped.nonzero()[0],
            protected,
            b,
            b.max(initial=0.0),
        )

    @property
    def robust(self) -> bool:
        return self.gamma is not None

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
    on the solve.
    """

    charging_power: np.ndarray  # (N, T) kW
    net_purchase: np.ndarray  # (T,) kW
    solar_used: np.ndarray  # (T,) kW
    budget_dual: float | None
    deviation_duals: np.ndarray | None
    nominal_cost: float
    protection_cost: float
    objective_value: float
    stats: SolverStats

    @property
    def grid_draw(self) -> np.ndarray:
        """Physical grid draw, recomputed from powers rather than the LP variable."""
        return np.maximum(self.charging_power.sum(axis=0) - self.solar_used, 0.0)


def _demand_entries(sc: Scenario, cells: np.ndarray, sign: float, first: int):
    """Rows ``first`` on, one per session, ``sign * delivered <= sign * required``, as
    :func:`_rows` entries: ``sign`` -1 asks for at least the requirement over the session's
    plugged-in ``cells``, +1 for at most it."""
    return (
        first + cells // sc.num_slots,
        np.arange(len(cells)),
        np.full(len(cells), sign * sc.kwh_per_kw),
        sign * sc.required_energy,
    )


def _rows(*blocks) -> Rows:
    """Rows from blocks of ``(row, column, weight, rhs)`` arrays.  Each ``(row, column,
    weight)`` triple is one entry, its row numbered over all blocks, and the right-hand sides
    run block by block.  A row keeps its entries in the order given."""
    row, cols, coeffs, rhs = (np.concatenate(part) for part in zip(*blocks))
    indptr = np.zeros(len(rhs) + 1, dtype=np.intp)
    np.cumsum(np.bincount(row, minlength=len(rhs)), out=indptr[1:])
    order = np.argsort(row, kind="stable")
    return Rows(indptr, cols[order], coeffs[order], rhs)


def _charging_lp(sc: Scenario, gamma: float | None) -> tuple[LinearProgram, VariableMap]:
    """Demand rows, one supply row per bought or capped slot, then for a budget ``gamma``
    one dual row per protected slot; socket and grid caps are column bounds."""
    vm = VariableMap.for_scenario(sc, gamma)
    T, dt = sc.num_slots, sc.grid.slot_hours
    nc, purchases = vm.num_charge, vm.purchases
    slot = vm.cells % T
    price = sc.prices.nominal * dt
    obj = np.zeros(vm.num_vars)
    obj[:nc] = np.where(vm.dark[slot], price[slot], 0.0)  # a dark slot buys its load
    obj[purchases] = price[vm.bought]
    bounds = np.zeros((vm.num_vars, 2))
    bounds[:, 1] = INF
    bounds[:nc, 1] = sc.socket_caps.reshape(-1)[vm.cells]
    bounds[purchases, 1] = sc.station.grid_capacity
    # load[t] - purchase[t] <= S_t at a bought slot, load[t] <= G at a capped one
    supplied = np.sort(np.concatenate([vm.bought, vm.capped]))  # bought slots are not dark
    n, m = sc.num_sessions, len(supplied)
    row_of = np.full(T, -1)
    row_of[supplied] = n + np.arange(m)
    live = (row_of[slot] >= 0).nonzero()[0]
    blocks = [
        _demand_entries(sc, vm.cells, -1.0, 0),
        (
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
        b, s = vm.b, vm.s
        k = np.arange(len(b))
        mu = vm.budget_dual + 1 + k
        obj[vm.budget_dual] = gamma * s
        obj[mu] = b
        own = n + m + k  # each protected slot's dual row
        dual_row = np.full(T, -1)
        dual_row[vm.protected] = own
        loads = (vm.dark[slot] & (dual_row[slot] >= 0)).nonzero()[0]
        buys = (dual_row[vm.bought] >= 0).nonzero()[0]
        blocks.append(
            (
                np.concatenate([dual_row[slot[loads]], dual_row[vm.bought[buys]], own, own]),
                np.concatenate([loads, purchases[buys], mu, np.full(len(k), vm.budget_dual)]),
                np.concatenate([np.ones(len(loads) + len(buys)), -np.ones(len(k)), -s / b]),
                np.zeros(len(k)),
            )
        )
    return LinearProgram(vm.num_vars, obj, bounds, _rows(*blocks)), vm


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
    caps = sc.socket_caps
    if np.all(caps.sum(axis=0) <= sc.station.grid_capacity + sc.solar.cap):
        return np.minimum(sc.required_energy, sc.kwh_per_kw * caps.sum(axis=1))
    return _max_delivery_lp(sc)


def _max_delivery_lp(sc: Scenario) -> np.ndarray:
    """:func:`max_delivery` by its auxiliary LP; each cell's cap is at most its slot's supply and
    its session's requirement over ``eta * dt``, which its demand row implies anyway."""
    caps = sc.socket_caps
    cells = np.flatnonzero(sc.availability > 0)
    slot = cells % sc.num_slots
    coeff = sc.kwh_per_kw
    supply = sc.station.grid_capacity + sc.solar.cap
    need = (sc.required_energy / coeff)[cells // sc.num_slots]
    upper = np.minimum(np.minimum(caps.reshape(-1)[cells], supply[slot]), need)
    bounds = np.column_stack([np.zeros(len(cells)), upper])
    obj = np.full(len(cells), -coeff)  # maximize delivered energy
    rows = _rows(
        (slot, np.arange(len(cells)), np.ones(len(cells)), supply),
        _demand_entries(sc, cells, 1.0, sc.num_slots),
    )
    sol = solve_lp(LinearProgram(len(cells), obj, bounds, rows))
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

    A requirement more than ``DELIVERY_ROUNDING_KWH`` above its
    :func:`max_delivery` amount is lowered to that amount, so the charging LP
    never asks for more than it can deliver beyond rounding.  A
    shortfall beyond ``CONSTRAINT_TOL * (1 + required)`` kWh is reported:
    ``clamp`` returns it as an adjustment and ``strict`` raises
    :class:`DemandInfeasibleError` instead; a smaller one, a request just past
    the sockets' reach, is lowered silently.  Returns ``(scenario,
    adjustments)``; the scenario is unchanged when every demand is reachable.
    """
    if policy not in DEMAND_POLICIES:
        raise ValueError(f"unknown demand policy {policy!r}")
    deliverable = max_delivery(sc)
    need = sc.required_energy
    short = (deliverable < need - DELIVERY_ROUNDING_KWH).nonzero()[0]
    if not len(short):
        return sc, []
    adjustments = []
    new_sessions = list(sc.sessions)
    for i in short:
        sess, amount = sc.sessions[i], float(deliverable[i])
        new_sessions[i] = dataclasses.replace(sess, required_energy=amount)
        if amount < sess.required_energy - CONSTRAINT_TOL * (1 + sess.required_energy):
            adjustments.append(DemandAdjustment(sess.id, sess.required_energy, amount))
    if adjustments and policy == "strict":
        raise DemandInfeasibleError(adjustments)
    return dataclasses.replace(sc, sessions=tuple(new_sessions)), adjustments


def extract_schedule(sol: LpSolution, vm: VariableMap, sc: Scenario) -> Schedule:
    """Decode an optimal solution and verify it against the scenario.

    Solar usage is ``min(load, S)`` per slot, and the net purchase of a slot
    without a purchase column is its load where it is dark, 0 elsewhere.  The
    deviation duals are their scales ``vm.b`` times their columns (0 where a
    slot has none), the budget dual is ``vm.s`` times its column, and the
    protection is priced at the budget ``vm.gamma`` the program was built
    with.  Costs are recomputed from the variable values and cross-checked
    against the solver's objective; any physical-constraint violation raises
    :class:`ScheduleConsistencyError` rather than passing silently.
    """
    x = sol.x
    charging = _charging_matrix(x, vm)
    load = charging.sum(axis=0)
    purchase = np.where(vm.dark, load, 0.0)
    purchase[vm.bought] = x[vm.purchases]
    solar = np.minimum(load, sc.solar.cap)
    nominal_cost = sc.energy_cost(purchase)
    if vm.robust:
        budget_dual = float(vm.s * x[vm.budget_dual])
        dev_duals = np.zeros(vm.num_slots)
        dev_duals[vm.protected] = vm.b * x[vm.budget_dual + 1 :]
        protection = float(vm.gamma) * budget_dual + float(dev_duals.sum())
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


def _verify_phys134(sc: Scenario, charging, purchase, solar):
    tol = CONSTRAINT_TOL
    problems = []
    need, delivered = sc.required_energy, sc.kwh_per_kw * charging.sum(axis=1)
    for i in (delivered < need - tol).nonzero()[0]:
        problems.append(f"session {sc.sessions[i].id} short by {need[i] - delivered[i]:.2e} kWh")
    over = charging - sc.socket_caps
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
    lp, vm = build_nominal_lp(sc) if gamma is None else build_robust_lp(sc, gamma)
    return extract_schedule(solve_lp(lp), vm, sc)


def solve_offline(
    sc: Scenario, gamma: float | None = None, demand_policy: str = "clamp"
) -> tuple[Schedule, list[DemandAdjustment]]:
    """Apply the demand policy, then :func:`solve_deliverable`, in one step."""
    eff, adjustments = apply_demand_policy(sc, demand_policy)
    return solve_deliverable(eff, gamma), adjustments

