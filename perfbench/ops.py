"""The timed operations, each run through chargeopt's public API as its CLI command would.

* ``robust-week``: ingestion, FCFS baseline, robust schedule, knapsack worst-case
  score and report, as ``chargeopt simulate --policy robust`` does it (without
  the extra nominal solve that command also makes).
* ``mpc-month``: ingestion, FCFS baseline and the nominal controller through
  ``run_online``, with the report and events files ``simulate --policy mpc``
  writes.  Two parts of that command are left out: the full-horizon nominal
  solve it makes first, which dwarfs the controller at month scale, and the
  per-slot trace JSON, whose pure-Python encoding would outweigh the rest of
  the report layer.
* ``sweep-congested``: ingestion and one robust solve per budget, each scored
  by the knapsack evaluator at the evaluation budget, as ``chargeopt
  sensitivity`` does it.

Every call into chargeopt goes through a module attribute, so that the traced
run can wrap it; ``tracer.span`` marks the benchmark's own calls.
"""

from __future__ import annotations

import time
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from chargeopt import fcfs, model, mpc, reports, scenario, uncertainty

from gen import START, Spec

DEVIATION_FRACTION = 0.25  # the CLI's default


@dataclass
class Outcome:
    """What one operation produced, for the checks; decisions are solve latencies in s."""

    decisions: list[float] = field(default_factory=list)
    schedules: dict[float, object] = field(default_factory=dict)
    adjustments: dict[float, list] = field(default_factory=dict)
    worst: dict[float, float] = field(default_factory=dict)
    fcfs_cost: float | None = None
    trace: object | None = None


def load(inputs: Path, spec: Spec, tracer):
    """Ingestion as the CLI's ``_load_scenario`` does it, with its default station."""
    with tracer.span("scenario.parse"):
        grid = scenario.TimeGrid(START, spec.slots, 1.0)
        station = scenario.StationConfig(grid_capacity=spec.grid_capacity)
        sessions, _ = scenario.parse_sessions(inputs / "sessions.csv", grid, station)
        prices = scenario.parse_prices(inputs / "prices.csv", grid, "EUR/kWh")
        solar = scenario.pv_cap(scenario.parse_irradiance(inputs / "irradiance.csv", grid), station)
        return scenario.build_scenario(
            sessions, prices, solar, grid, station,
            scenario.DeviationRule.proportional(DEVIATION_FRACTION),
        )


def _timestamps(sc):
    return [sc.grid.slot_start(t).strftime("%Y-%m-%dT%H:%M:%SZ") for t in range(sc.num_slots)]


def robust_week(inputs: Path, out: Path, spec: Spec, tracer) -> Outcome:
    res = Outcome()
    sc = load(inputs, spec, tracer)
    base = fcfs.run_fcfs(sc)
    res.fcfs_cost = base.cost
    (gamma,) = spec.gammas
    t0 = time.perf_counter()
    sched, adj = model.solve_offline(sc, gamma=gamma)
    res.decisions.append(time.perf_counter() - t0)
    budget = uncertainty.UncertaintyBudget(gamma, sc.prices.deviation_bound)
    worst = uncertainty.worst_case_total_cost(sched, sc.prices, sc.grid.slot_hours, budget)
    res.schedules[gamma], res.adjustments[gamma], res.worst[gamma] = sched, adj, worst
    with tracer.span("reports.write"):
        rep = reports.RunReport(command="simulate")
        rep.slot_timestamps = _timestamps(sc)
        rep.slot_series["price_eur_per_kwh"] = [float(p) for p in sc.prices.nominal]
        rep.costs["fcfs"] = base.cost
        rep.costs["robust_nominal"] = sched.nominal_cost
        rep.costs["robust_objective"] = sched.objective_value
        rep.costs["robust_worst_case"] = worst
        rep.unmet_energy_kwh["fcfs"] = float(base.unmet_energy.sum())
        rep.slot_series["fcfs_grid_kw"] = [float(v) for v in base.grid_draw]
        rep.slot_series["robust_grid_kw"] = [float(v) for v in sched.grid_draw]
        rep.slot_series["robust_solar_kw"] = [float(v) for v in sched.solar_used]
        rep.savings_percent = reports.savings_percent(base.cost, sched.nominal_cost)
        rep.monthly = reports.monthly_rows(
            sc, reports.slot_costs(sc, base.grid_draw), reports.slot_costs(sc, sched.grid_draw)
        )
        rep.write_json(out / "report.json")
        rep.write_slot_csv(out / "report.slots.csv")
    return res


def mpc_month(inputs: Path, out: Path, spec: Spec, tracer) -> Outcome:
    res = Outcome()
    sc = load(inputs, spec, tracer)
    base = fcfs.run_fcfs(sc)
    res.fcfs_cost = base.cost
    trace = mpc.run_online(sc, mpc.MpcConfig(resolve_interval=1, gamma=None))
    res.trace = trace
    res.decisions.extend(e.wall_seconds for e in trace.solve_events)
    with tracer.span("reports.write"):
        rep = reports.RunReport(command="simulate")
        rep.slot_timestamps = _timestamps(sc)
        rep.slot_series["price_eur_per_kwh"] = [float(p) for p in sc.prices.nominal]
        rep.costs["fcfs"] = base.cost
        rep.costs["mpc"] = trace.total_cost
        rep.unmet_energy_kwh["fcfs"] = float(base.unmet_energy.sum())
        rep.unmet_energy_kwh["mpc"] = float(trace.unmet_energy.sum())
        draw = np.maximum(trace.applied_power.sum(axis=0) - trace.applied_solar, 0.0)
        rep.slot_series["fcfs_grid_kw"] = [float(v) for v in base.grid_draw]
        rep.slot_series["mpc_grid_kw"] = [float(v) for v in draw]
        rep.savings_percent = reports.savings_percent(base.cost, trace.total_cost)
        rep.monthly = reports.monthly_rows(
            sc, reports.slot_costs(sc, base.grid_draw), reports.slot_costs(sc, draw)
        )
        mpc.write_events_csv(trace, out / "report.events.csv")
        rep.write_json(out / "report.json")
        rep.write_slot_csv(out / "report.slots.csv")
    return res


def sweep_congested(inputs: Path, out: Path, spec: Spec, tracer) -> Outcome:
    res = Outcome()
    sc = load(inputs, spec, tracer)
    budget = uncertainty.UncertaintyBudget(spec.eval_gamma, sc.prices.deviation_bound)
    for gamma in spec.gammas:
        t0 = time.perf_counter()
        sched, adj = model.solve_offline(sc, gamma=gamma)
        res.decisions.append(time.perf_counter() - t0)
        res.schedules[gamma], res.adjustments[gamma] = sched, adj
        res.worst[gamma] = uncertainty.worst_case_total_cost(
            sched, sc.prices, sc.grid.slot_hours, budget
        )
    with tracer.span("reports.write"):
        rep = reports.RunReport(command="sensitivity")
        rep.notes.append(f"worst cases scored at budget {spec.eval_gamma}")
        base_nominal = res.schedules[0.0].nominal_cost
        for gamma in spec.gammas:
            nom = res.schedules[gamma].nominal_cost
            inc = 100.0 * (nom - base_nominal) / base_nominal if base_nominal > 0 else 0.0
            rep.sensitivity.append(reports.SensitivityRow(gamma, nom, res.worst[gamma], inc))
        rep.write_json(out / "report.json")
        rep.write_sensitivity_csv(out / "report.sensitivity.csv")
    return res


OPERATIONS = {
    "robust-week": robust_week,
    "mpc-month": mpc_month,
    "sweep-congested": sweep_congested,
}
