"""Machine-readable run reports: JSON document plus per-slot / per-row CSVs."""

from __future__ import annotations

import csv
import json
from dataclasses import asdict, dataclass, field, fields

import numpy as np

from .lp import SolverStats
from .scenario import Scenario


@dataclass
class MonthlyRow:
    month: str  # "YYYY-MM"
    fcfs_cost: float
    optimized_cost: float
    savings_percent: float | None


@dataclass
class SensitivityRow:
    gamma: float
    nominal_cost: float
    worst_case_cost: float
    increase_percent: float


@dataclass
class BenchRow:
    num_evs: int
    mean_solve_seconds: float
    repetitions: int
    solve_seconds: list[float] = field(default_factory=list)


@dataclass
class SolverRecord:
    """What the simplex did on one LP of the run; ``label`` names the LP."""

    label: str
    stats: SolverStats


@dataclass
class RunReport:
    """Everything a run emits; unused sections stay empty."""

    command: str
    costs: dict[str, float] = field(default_factory=dict)
    savings_percent: float | None = None
    unmet_energy_kwh: dict[str, float] = field(default_factory=dict)
    monthly: list[MonthlyRow] = field(default_factory=list)
    slot_series: dict[str, list[float]] = field(default_factory=dict)
    slot_timestamps: list[str] = field(default_factory=list)
    sensitivity: list[SensitivityRow] = field(default_factory=list)
    bench: list[BenchRow] = field(default_factory=list)
    solver: list[SolverRecord] = field(default_factory=list)
    kept_plans: dict[str, int] = field(default_factory=dict)  # MPC triggers kept without a solve
    notes: list[str] = field(default_factory=list)

    def to_json_dict(self) -> dict:
        return asdict(self)

    def write_json(self, path) -> None:
        with open(path, "w") as fh:
            json.dump(self.to_json_dict(), fh, indent=2)
            fh.write("\n")

    def write_slot_csv(self, path) -> None:
        keys = list(self.slot_series)
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(["timestamp"] + keys)
            for t, ts in enumerate(self.slot_timestamps):
                writer.writerow([ts] + [repr(self.slot_series[k][t]) for k in keys])

    def write_sensitivity_csv(self, path) -> None:
        write_records_csv(path, self.sensitivity, [f.name for f in fields(SensitivityRow)])


def write_records_csv(path, records, names) -> None:
    """A header row of ``names``, then one row per record holding those attributes."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(names)
        # getattr, not dataclasses.astuple: astuple deep-copies every value
        writer.writerows([getattr(r, n) for n in names] for r in records)


def savings_percent(fcfs_cost: float, optimized_cost: float) -> float | None:
    if fcfs_cost <= 0:
        return None
    return 100.0 * (fcfs_cost - optimized_cost) / fcfs_cost


def monthly_rows(sc: Scenario, fcfs_slot_cost, optimized_slot_cost) -> list[MonthlyRow]:
    """Aggregate per-slot costs (EUR) into calendar months, UTC."""
    buckets: dict[str, list[float]] = {}
    for t in range(sc.num_slots):
        month = sc.grid.slot_start(t).strftime("%Y-%m")
        buckets.setdefault(month, [0.0, 0.0])
        buckets[month][0] += float(fcfs_slot_cost[t])
        buckets[month][1] += float(optimized_slot_cost[t])
    rows = []
    for month in sorted(buckets):
        f, o = buckets[month]
        rows.append(MonthlyRow(month, f, o, savings_percent(f, o)))
    return rows


def slot_costs(sc: Scenario, grid_draw) -> np.ndarray:
    return sc.prices.nominal * np.asarray(grid_draw) * sc.grid.slot_hours
