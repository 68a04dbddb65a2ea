"""Seeded synthetic scenarios for benchmarks, fixtures, and property tests.

Arrivals are uniform over the horizon, stays run 2-8 hours, and demands are
drawn inside each session's reachable energy, so instances are plausible but
fully hermetic.  The same seed always yields the same scenario.
"""

from __future__ import annotations

from datetime import datetime, timedelta, timezone

import numpy as np

from .scenario import (
    ChargingSession,
    DeviationRule,
    Scenario,
    StationConfig,
    TimeGrid,
    build_scenario,
    pv_cap,
)

DEFAULT_START = datetime(2019, 6, 3, tzinfo=timezone.utc)


def price_profile(rng, num_slots: int) -> np.ndarray:
    """Daily price shape in EUR/kWh: cheap overnight, evening peak, mild noise."""
    hours = np.arange(num_slots) % 24
    base = 0.05 + 0.05 * np.sin((hours - 4.0) * np.pi / 24.0) ** 2
    peak = 0.04 * np.exp(-0.5 * ((hours - 19.0) / 2.5) ** 2)
    noise = rng.uniform(0.0, 0.01, num_slots)
    return base + peak + noise


def irradiance_profile(rng, num_slots: int) -> np.ndarray:
    """Daily irradiance shape in W/m^2: a half-sine from 06:00 to 18:00 peaking at 900."""
    hours = np.arange(num_slots) % 24
    shape = np.clip(np.sin((hours - 6.0) * np.pi / 12.0), 0.0, None)
    return 900.0 * shape * rng.uniform(0.75, 1.0, num_slots)


def random_scenario(
    num_evs: int,
    *,
    seed: int,
    num_slots: int = 24,
    slot_hours: float = 1.0,
    start: datetime = DEFAULT_START,
    station: StationConfig | None = None,
    max_power: float = 11.0,
    ample_grid: bool = False,
    peak_overlap: bool = False,
    all_at_start: bool = False,
    demand_fill: tuple[float, float] = (0.2, 0.9),
) -> Scenario:
    """Generate one seeded scenario.

    ``ample_grid`` sizes the grid connection so sessions never compete
    (greedy allocation then meets every reachable demand); ``peak_overlap``
    packs all sessions around midday so they are genuinely concurrent;
    ``all_at_start`` puts every arrival on the first slot boundary.
    """
    rng = np.random.default_rng(seed)
    grid = TimeGrid(start, num_slots, slot_hours)
    horizon_h = num_slots * slot_hours

    if station is None:
        cap = num_evs * max_power + 1.0 if ample_grid else 300.0
        station = StationConfig(grid_capacity=cap, default_max_power=max_power)

    sessions = []
    for k in range(num_evs):
        if all_at_start:
            arr_h = 0.0
            stay = rng.uniform(2.0, 8.0)
        elif peak_overlap:
            arr_h = rng.uniform(max(0.0, min(8.0, horizon_h - 5.0)), min(11.0, horizon_h - 4.5))
            stay = rng.uniform(4.0, 8.0)
        else:
            arr_h = rng.uniform(0.0, max(horizon_h - 2.0, 0.5))
            stay = rng.uniform(2.0, 8.0)
        arr_h = round(arr_h * 60.0) / 60.0  # minute resolution
        dep_h = min(round(min(arr_h + stay, horizon_h) * 60.0) / 60.0, horizon_h)
        if dep_h <= arr_h:
            arr_h = max(0.0, dep_h - 0.5)
        arrival = grid.start + timedelta(hours=arr_h)
        departure = grid.start + timedelta(hours=dep_h)
        present_h = dep_h - arr_h
        reachable = station.charge_efficiency * max_power * present_h
        demand = float(rng.uniform(*demand_fill) * reachable)
        sessions.append(
            ChargingSession(
                id=f"ev{k:03d}",
                arrival=arrival,
                departure=departure,
                required_energy=demand,
                max_power=max_power,
            )
        )

    prices = price_profile(rng, num_slots)
    solar = pv_cap(irradiance_profile(rng, num_slots), station)
    return build_scenario(sessions, prices, solar, grid, station, DeviationRule.proportional(0.25))


def bench_scenario(num_evs: int, *, seed: int) -> Scenario:
    """Timing instance: the requested number of EVs concurrently present, 24 slots."""
    return random_scenario(
        num_evs,
        seed=seed,
        num_slots=24,
        peak_overlap=True,
        max_power=86.0,
        demand_fill=(0.1, 0.4),
    )
