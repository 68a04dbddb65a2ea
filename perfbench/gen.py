"""Seeded input files for the benchmark workloads.

The generator is the benchmark's own: it writes sessions, prices and
irradiance CSVs from ``--seed`` with numpy alone, so the program under test
sees nothing but files.  The distributions follow the instance families the
ROADMAP's tiers use (uniform arrivals, stays of 2-8 h, a daily price shape
with an evening peak, clear-sky irradiance with cloud noise).
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from pathlib import Path

import numpy as np

START = datetime(2019, 6, 3, tzinfo=timezone.utc)
EFFICIENCY = 0.9  # the CLI's default charge efficiency


@dataclass(frozen=True)
class Spec:
    """Make-up of one workload's instance; every value also reaches the program."""

    sessions: int
    slots: int
    max_power: float  # kW per socket
    grid_capacity: float  # kW
    demand_fill: tuple[float, float]  # share of each session's reachable energy
    gammas: tuple[float, ...]  # budgets solved
    eval_gamma: float | None  # budget at which worst cases are scored
    instances: int  # distinct instances in one round of operations


SPECS = {
    "robust-week": Spec(200, 168, 11.0, 300.0, (0.2, 0.9), (12.0,), 12.0, 4),
    "mpc-month": Spec(600, 720, 11.0, 300.0, (0.2, 0.9), (), None, 3),
    "sweep-congested": Spec(60, 168, 22.0, 40.0, (0.5, 1.0), (0.0, 4.0, 8.0, 16.0, 32.0), 32.0, 3),
}


def _iso(ts: datetime) -> str:
    return ts.strftime("%Y-%m-%dT%H:%M:%SZ")


def generate(spec: Spec, seed: int, instance: int, out: Path) -> None:
    """Write instance ``instance`` of ``seed`` as ``sessions.csv``, ``prices.csv`` and
    ``irradiance.csv`` into ``out``."""
    rng = np.random.default_rng([seed % 2**32, instance])
    horizon = float(spec.slots)
    n = spec.sessions
    arrival = np.round(rng.uniform(0.0, horizon - 2.0, n) * 60.0) / 60.0
    stay = rng.uniform(2.0, 8.0, n)
    departure = np.minimum(np.round(np.minimum(arrival + stay, horizon) * 60.0) / 60.0, horizon)
    reachable = EFFICIENCY * spec.max_power * (departure - arrival)
    demand = rng.uniform(*spec.demand_fill, n) * reachable

    hours = np.arange(spec.slots) % 24
    price = (
        0.05
        + 0.05 * np.sin((hours - 4.0) * np.pi / 24.0) ** 2
        + 0.04 * np.exp(-0.5 * ((hours - 19.0) / 2.5) ** 2)
        + rng.uniform(0.0, 0.01, spec.slots)
    )
    irradiance = 900.0 * np.clip(np.sin((hours - 6.0) * np.pi / 12.0), 0.0, None)
    irradiance *= rng.uniform(0.75, 1.0, spec.slots)

    out.mkdir(parents=True, exist_ok=True)
    with open(out / "sessions.csv", "w", newline="") as fh:
        w = csv.writer(fh)
        w.writerow(["session_id", "connection_time", "disconnect_time", "kwh_delivered", "max_power_kw"])
        for k in range(n):
            w.writerow([
                f"ev{k:04d}",
                _iso(START + timedelta(minutes=round(arrival[k] * 60.0))),
                _iso(START + timedelta(minutes=round(departure[k] * 60.0))),
                repr(float(demand[k])),
                repr(spec.max_power),
            ])
    for name, values in (("prices.csv", price), ("irradiance.csv", irradiance)):
        with open(out / name, "w", newline="") as fh:
            w = csv.writer(fh)
            w.writerow(["timestamp", "value"])
            for t, v in enumerate(values):
                w.writerow([_iso(START + timedelta(hours=t)), repr(float(v))])
