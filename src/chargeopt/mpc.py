"""Online receding-horizon controller with dual re-solve triggers.

Walks the time grid slot by slot: registers arrivals, takes a decision
whenever an arrival or departure occurs or the periodic interval elapses,
applies only the current slot of the latest plan, and rolls residual demands
forward.  Prices and solar over the prediction horizon are their true future
values (no forecaster), which isolates the scheduling behavior itself.

A decision re-optimizes over the remaining presence window, except that the
nominal controller keeps its latest plan at a departure or periodic trigger
when every current session is in that plan and the plan's tail still
delivers each one's residual demand.  Such a trigger brings no new
information, so the tail is still feasible, and it is still optimal: a
cheaper tail would have made the whole plan cheaper (Bellman's principle of
optimality).  A robust window always re-solves, because its per-window
deviation budget makes the problem not time-consistent.
"""

from __future__ import annotations

import dataclasses
import time
from dataclasses import dataclass

import numpy as np

from .model import CONSTRAINT_TOL, DEMAND_POLICIES, DemandAdjustment, solve_offline
from .reports import write_records_csv
from .scenario import DeviationRule, Scenario, SolarSeries, TimeGrid, build_scenario

RESIDUAL_TOL = 1e-9

TRIGGER_ARRIVAL = "arrival"
TRIGGER_DEPARTURE = "departure"
TRIGGER_PERIODIC = "periodic"


@dataclass(frozen=True)
class MpcConfig:
    """Controller knobs: re-solve every ``resolve_interval`` slots; ``gamma=None`` keeps
    the inner optimizer nominal, a number makes it robust with that budget."""

    resolve_interval: int = 1
    gamma: float | None = None
    demand_policy: str = "clamp"

    def __post_init__(self):
        interval = self.resolve_interval
        if not (interval >= 1 and float(interval).is_integer()):
            raise ValueError(f"resolve interval must be a whole number of slots, got {interval!r}")
        if self.gamma is not None and not 0 <= self.gamma < np.inf:
            raise ValueError(f"gamma must be finite and nonnegative, got {self.gamma!r}")
        if self.demand_policy not in DEMAND_POLICIES:
            raise ValueError(f"unknown demand policy {self.demand_policy!r}")


@dataclass(frozen=True)
class SolveEvent:
    slot: int
    trigger: str
    horizon_slots: int
    wall_seconds: float
    iterations: int  # simplex iterations of the window LP
    members: int  # sessions in the window
    clamped: int  # demand adjustments the window's demand policy made


@dataclass(frozen=True)
class MpcTrace:
    applied_power: np.ndarray  # (N, T) kW actually commanded
    applied_solar: np.ndarray  # (T,) kW
    solve_events: tuple[SolveEvent, ...]
    kept_plans: tuple[tuple[int, str], ...]  # (slot, trigger) decided without a solve
    residual_demand_history: np.ndarray  # (T, N) kWh after each slot's update
    total_cost: float  # EUR at realized prices
    unmet_energy: np.ndarray  # (N,) kWh still owed at the end
    demand_adjustments: tuple[tuple[int, DemandAdjustment], ...]  # (slot, adjustment)


def detect_trigger(k: int, last_solve: float, events_at_k, cfg: MpcConfig) -> str | None:
    """Why slot ``k`` re-solves, or ``None``; events dominate the periodic label."""
    if TRIGGER_ARRIVAL in events_at_k:
        return TRIGGER_ARRIVAL
    if TRIGGER_DEPARTURE in events_at_k:
        return TRIGGER_DEPARTURE
    if k - last_solve >= cfg.resolve_interval:
        return TRIGGER_PERIODIC
    return None


def _window_scenario(sc: Scenario, members, k: int, end: int, residual) -> Scenario:
    # build_scenario clips each stay to the window; only the demands change
    sessions = [
        dataclasses.replace(sc.sessions[i], required_energy=float(residual[i])) for i in members
    ]
    return build_scenario(
        sessions,
        sc.prices.nominal[k:end],
        SolarSeries(sc.solar.cap[k:end]),
        TimeGrid(sc.grid.slot_start(k), end - k, sc.grid.slot_hours),
        sc.station,
        DeviationRule.fixed(sc.prices.deviation_bound[k:end]),
    )


def _tail_serves(planned, tail, members, residual, kwh_per_kw) -> bool:
    """Whether every member is in the plan and the plan's tail (kW, one row per planned
    session) delivers its residual demand within :func:`apply_demand_policy`'s tolerance."""
    if not np.isin(members, planned).all():
        return False
    need = residual[members]
    delivered = kwh_per_kw * tail[np.searchsorted(planned, members)].sum(axis=1)
    return bool(np.all(delivered >= need - CONSTRAINT_TOL * (1 + need)))


def run_online(sc: Scenario, cfg: MpcConfig) -> MpcTrace:
    """Simulate the controller over the scenario's whole grid.

    Residual demands always track true delivered energy; when the demand
    policy clamps an unreachable requirement, the clamp applies to that
    solve's input only and is recorded, so the final unmet energy is honest.
    """
    n, T = sc.num_sessions, sc.num_slots
    kwh_per_kw = sc.kwh_per_kw

    first_slot = (sc.availability > 0).argmax(axis=1)
    last_slot = T - 1 - (sc.availability[:, ::-1] > 0).argmax(axis=1)

    demand = sc.required_energy
    residual = np.zeros(n)
    applied = np.zeros((n, T))
    history = np.zeros((T, n))
    events: list[SolveEvent] = []
    kept: list[tuple[int, str]] = []
    adjustments: list[tuple[int, DemandAdjustment]] = []
    # the latest plan only: its first slot, its sessions, their powers from that slot on
    start, planned, power = 0, np.zeros(0, dtype=int), np.zeros((0, 0))
    last_solve = -np.inf

    for k in range(T):
        arrivals = first_slot == k
        residual[arrivals] = demand[arrivals]
        active = (sc.availability[:, k] > 0) & (residual > RESIDUAL_TOL)
        members = np.flatnonzero(active)
        labels = set()
        if arrivals.any():
            labels.add(TRIGGER_ARRIVAL)
        if (last_slot == k - 1).any():
            labels.add(TRIGGER_DEPARTURE)
        trigger = detect_trigger(k, last_solve, labels, cfg)
        if trigger is not None and len(members):
            if (
                cfg.gamma is None
                and trigger != TRIGGER_ARRIVAL
                and _tail_serves(planned, power[:, k - start :], members, residual, kwh_per_kw)
            ):
                kept.append((k, trigger))
            else:
                end = int(last_slot[members].max()) + 1
                window = _window_scenario(sc, members, k, end, residual)
                t0 = time.perf_counter()
                schedule, adjs = solve_offline(window, cfg.gamma, cfg.demand_policy)
                wall = time.perf_counter() - t0
                iterations = schedule.stats.iterations
                events.append(
                    SolveEvent(k, trigger, end - k, wall, iterations, len(members), len(adjs))
                )
                adjustments.extend((k, a) for a in adjs)
                start, planned, power = k, members, schedule.charging_power
            last_solve = k  # a kept plan restarts the periodic interval as a solve does

        if k - start < power.shape[1]:
            on = active[planned]
            applied[planned[on], k] = power[on, k - start]
        residual = np.maximum(residual - kwh_per_kw * applied[:, k], 0.0)
        history[k] = residual

    load = applied.sum(axis=0)
    applied_solar = np.minimum(load, sc.solar.cap)
    return MpcTrace(
        applied_power=applied,
        applied_solar=applied_solar,
        solve_events=tuple(events),
        kept_plans=tuple(kept),
        residual_demand_history=history,
        total_cost=sc.energy_cost(np.maximum(load - applied_solar, 0.0)),
        unmet_energy=residual,
        demand_adjustments=tuple(adjustments),
    )


def trace_to_json_dict(trace: MpcTrace) -> dict:
    """JSON-serializable view of a trace; the events CSV holds the same solve events,
    and ``kept_plans`` the triggers that kept the latest plan without a solve."""
    return {
        "total_cost": trace.total_cost,
        "applied_power": trace.applied_power.tolist(),
        "applied_solar": trace.applied_solar.tolist(),
        "unmet_energy": trace.unmet_energy.tolist(),
        "residual_demand_history": trace.residual_demand_history.tolist(),
        "solve_events": [dataclasses.asdict(e) for e in trace.solve_events],
        "kept_plans": [{"slot": slot, "trigger": trigger} for slot, trigger in trace.kept_plans],
        "demand_adjustments": [
            {"slot": slot, **dataclasses.asdict(a)} for slot, a in trace.demand_adjustments
        ],
    }


def write_events_csv(trace: MpcTrace, path) -> None:
    """One row per solve event, one column per :class:`SolveEvent` field."""
    write_records_csv(path, trace.solve_events, [f.name for f in dataclasses.fields(SolveEvent)])
