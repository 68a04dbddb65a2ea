"""Regenerate the bundled fixtures (toy 3-EV day and seeded week).

Run from the repo root: ``python data/make_fixtures.py``.  Output is
deterministic; the committed CSVs were produced by this script.
"""

import csv
from datetime import datetime, timezone
from pathlib import Path

import numpy as np

from chargeopt.scenario import TimeGrid
from chargeopt.synth import random_scenario

HERE = Path(__file__).parent


def _iso(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def write_sessions_csv(sessions, path):
    """Serialize sessions in the CSV layout ``chargeopt.scenario.parse_sessions`` reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["session_id", "connection_time", "disconnect_time", "kwh_delivered", "max_power_kw"]
        )
        for s in sessions:
            arrival, departure = _iso(s.arrival), _iso(s.departure)
            writer.writerow([s.id, arrival, departure, repr(s.required_energy), repr(s.max_power)])


def write_series_csv(path, grid: TimeGrid, values):
    """One ``timestamp,value`` row per slot of ``grid``, under a header row."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value"])
        for t, v in enumerate(values):
            writer.writerow([_iso(grid.slot_start(t)), repr(float(v))])


def make_week():
    out = HERE / "week"
    out.mkdir(exist_ok=True)
    sc = random_scenario(
        40,
        seed=2019,
        num_slots=168,
        start=datetime(2019, 5, 6, tzinfo=timezone.utc),
        max_power=11.0,
        demand_fill=(0.3, 0.9),
    )
    write_sessions_csv(sc.sessions, out / "sessions.csv")
    write_series_csv(out / "prices.csv", sc.grid, sc.prices.nominal)
    irr = sc.solar.cap * 1000.0 / (sc.station.pv_area * sc.station.pv_efficiency)
    write_series_csv(out / "irradiance.csv", sc.grid, irr)


def make_toy():
    out = HERE / "toy"
    out.mkdir(exist_ok=True)
    grid = TimeGrid(datetime(2019, 6, 3, tzinfo=timezone.utc), 24, 1.0)
    with open(out / "sessions.csv", "w") as fh:
        fh.write("session_id,connection_time,disconnect_time,kwh_delivered,max_power_kw\n")
        fh.write("ev-a,2019-06-03T08:00:00Z,2019-06-03T18:00:00Z,30.0,11.0\n")
        fh.write("ev-b,2019-06-03T09:30:00Z,2019-06-03T16:30:00Z,20.0,11.0\n")
        fh.write("ev-c,2019-06-03T00:00:00Z,2019-06-03T08:00:00Z,25.0,22.0\n")
    # cheap overnight, expensive morning/evening
    prices = np.array(
        [0.04, 0.04, 0.03, 0.03, 0.04, 0.05, 0.08, 0.11, 0.13, 0.12, 0.10, 0.09,
         0.08, 0.08, 0.09, 0.10, 0.12, 0.14, 0.15, 0.13, 0.10, 0.07, 0.05, 0.04]
    )
    write_series_csv(out / "prices.csv", grid, prices)
    write_series_csv(out / "prices_flat.csv", grid, np.full(24, 0.10))
    hours = np.arange(24)
    irr = 900.0 * np.clip(np.sin((hours - 6.0) * np.pi / 12.0), 0.0, None)
    write_series_csv(out / "irradiance.csv", grid, irr)


if __name__ == "__main__":
    make_week()
    make_toy()
    print("fixtures written under", HERE)
