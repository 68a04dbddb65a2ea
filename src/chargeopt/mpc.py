"""Online receding-horizon controller with dual re-solve triggers.

Walks the time grid slot by slot: registers arrivals, takes a decision
whenever an arrival or departure occurs or the periodic interval elapses,
applies only the current slot of the latest plan, and rolls residual demands
forward.  Prices and solar over the prediction horizon are their true future
values (no forecaster), which isolates the scheduling behavior itself.

A decision's window is a slice of the run's scenario: the records of the
sessions present (plugged in, demand outstanding), their socket powers and
availability rows from the current slot to the last one's departure, the
prices, deviation bounds and solar of those slots, and each session's
residual demand as its ``required_energy``.  It goes through
:func:`solve_offline` like any scenario.  Each stay is contiguous, so the loop
reads arrivals, departures and the sessions plugged in from each session's
first and last plugged-in slot.

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
from .scenario import PriceSeries, Scenario, SolarSeries, TimeGrid
from .scenario import build_scenario  # noqa: F401  perfbench/tracing.py wraps it by this name

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


def detect_trigger(
    k: int, last_solve: float, arrived: bool, departed: bool, cfg: MpcConfig
) -> str | None:
    """Why slot ``k`` re-solves, or ``None``; events dominate the periodic label."""
    if arrived:
        return TRIGGER_ARRIVAL
    if departed:
        return TRIGGER_DEPARTURE
    if k - last_solve >= cfg.resolve_interval:
        return TRIGGER_PERIODIC
    return None


def _window_scenario(sc: Scenario, members, k: int, end: int, residual) -> Scenario:
    """The parent's slice over slots ``k:end``, with the members' own records, socket powers and
    availability rows, and their residual demands as ``required_energy``.  ``build_scenario``
    is not called: every member is plugged in at ``k``."""
    return Scenario(
        TimeGrid(sc.grid.slot_start(k), end - k, sc.grid.slot_hours),
        PriceSeries(sc.prices.nominal[k:end], sc.prices.deviation_bound[k:end]),
        SolarSeries(sc.solar.cap[k:end]),
        sc.station,
        tuple(sc.sessions[i] for i in members),
        sc.availability[members, k:end],
        residual[members],
        sc.max_power[members],
    )


def _tail_serves(planned, tail, members, residual, kwh_per_kw) -> bool:
    """Whether every member is in the plan (``planned`` ascending) and the plan's tail (kW,
    one row per planned session) delivers its residual demand within
    :func:`apply_demand_policy`'s tolerance."""
    rows = np.searchsorted(planned, members)
    if np.any(rows == len(planned)) or np.any(planned[rows] != members):
        return False
    need = residual[members]
    delivered = kwh_per_kw * tail[rows].sum(axis=1)
    return bool(np.all(delivered >= need - CONSTRAINT_TOL * (1 + need)))


def run_online(sc: Scenario, cfg: MpcConfig) -> MpcTrace:
    """Simulate the controller over the scenario's whole grid.

    Residual demands always track true delivered energy; when the demand
    policy clamps an unreachable requirement, the clamp applies to that
    solve's input only and is recorded, so the final unmet energy is honest.
    Each session is plugged in for at least one slot, as :func:`build_scenario`
    ensures.
    """
    n, T = sc.num_sessions, sc.num_slots
    kwh_per_kw = sc.kwh_per_kw

    # a stay is contiguous: session i is plugged in at slot k exactly when first <= k <= last
    first_slot = (sc.availability > 0).argmax(axis=1)
    last_slot = T - 1 - (sc.availability[:, ::-1] > 0).argmax(axis=1)
    by_arrival = np.argsort(first_slot, kind="stable")
    arriving = np.searchsorted(first_slot[by_arrival], np.arange(T + 1))
    leaving = np.bincount(last_slot, minlength=T)  # sessions whose last slot is t

    demand = sc.required_energy
    residual = np.zeros(n)
    applied = np.zeros((n, T))
    history = np.zeros((T, n))
    events: list[SolveEvent] = []
    kept: list[tuple[int, str]] = []
    adjustments: list[tuple[int, DemandAdjustment]] = []
    # the latest plan only: its first slot, its sessions, their powers from that slot on
    start, planned, power = 0, np.zeros(0, dtype=np.intp), np.zeros((0, 0))
    plugged = np.zeros(0, dtype=np.intp)  # the sessions plugged in at slot k, ascending
    last_solve = -np.inf

    for k in range(T):
        arrivals = by_arrival[arriving[k] : arriving[k + 1]]
        arrived, departed = len(arrivals) > 0, k > 0 and leaving[k - 1] > 0
        if arrived or departed:
            plugged = np.sort(np.concatenate([plugged[last_slot[plugged] >= k], arrivals]))
        residual[arrivals] = demand[arrivals]
        members = plugged[residual[plugged] > RESIDUAL_TOL]
        trigger = detect_trigger(k, last_solve, arrived, departed, cfg)
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
            # a planned session arrived by the plan's first slot; only a departure ends it
            on = (last_slot[planned] >= k) & (residual[planned] > RESIDUAL_TOL)
            charging, step = planned[on], power[on, k - start]
            applied[charging, k] = step
            residual[charging] = np.maximum(residual[charging] - kwh_per_kw * step, 0.0)
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
