"""Greedy baseline tests: hand-stepped cases, capacity exhaustion, determinism."""

import dataclasses
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from chargeopt.fcfs import run_fcfs
from chargeopt.model import solve_offline
from chargeopt.scenario import (
    ChargingSession,
    StationConfig,
    TimeGrid,
    build_scenario,
)
from chargeopt.synth import random_scenario

DAY = datetime(2019, 6, 3, tzinfo=timezone.utc)


def scenario(sessions, prices, solar=None, grid_capacity=100.0, eta=1.0):
    t = len(prices)
    grid = TimeGrid(DAY, t, 1.0)
    station = StationConfig(grid_capacity=grid_capacity, charge_efficiency=eta, default_max_power=10.0)
    cap = np.zeros(t) if solar is None else np.asarray(solar, dtype=float)
    return build_scenario(sessions, prices, cap, grid, station)


class TestGreedySteps:
    def test_charges_immediately_ignoring_prices(self):
        # hand-stepped: greedy fills slot 1 at 0.2 EUR/kWh even though slot 2
        # is half the price; the optimizer pays 1.0 for the same energy
        sess = ChargingSession("a", DAY, DAY + timedelta(hours=2), 10.0, 10.0)
        sc = scenario([sess], [0.2, 0.1])
        result = run_fcfs(sc)
        assert np.allclose(result.allocation, [[10.0, 0.0]])
        assert result.cost == pytest.approx(2.0)
        optimized, _ = solve_offline(sc)
        assert result.cost == pytest.approx(2 * optimized.nominal_cost)

    def test_capacity_exhaustion_first_arrival_wins(self):
        first = ChargingSession("early", DAY, DAY + timedelta(hours=1), 10.0, 10.0)
        second = ChargingSession("late", DAY + timedelta(minutes=1), DAY + timedelta(hours=1), 10.0, 10.0)
        sc = scenario([second, first], [0.1], grid_capacity=10.0)
        result = run_fcfs(sc)
        idx = {s.id: i for i, s in enumerate(sc.sessions)}
        assert result.allocation[idx["early"], 0] == pytest.approx(10.0)
        assert result.allocation[idx["late"], 0] == pytest.approx(0.0)
        assert result.unmet_energy[idx["late"]] == pytest.approx(10.0)

    def test_arrival_tie_broken_by_id(self):
        a = ChargingSession("a", DAY, DAY + timedelta(hours=1), 10.0, 10.0)
        b = ChargingSession("b", DAY, DAY + timedelta(hours=1), 10.0, 10.0)
        sc = scenario([b, a], [0.1], grid_capacity=10.0)
        result = run_fcfs(sc)
        idx = {s.id: i for i, s in enumerate(sc.sessions)}
        assert result.allocation[idx["a"], 0] == pytest.approx(10.0)
        assert result.allocation[idx["b"], 0] == pytest.approx(0.0)

    def test_zero_demand_row_zero(self):
        sess = ChargingSession("a", DAY, DAY + timedelta(hours=2), 0.0, 10.0)
        result = run_fcfs(scenario([sess], [0.2, 0.1]))
        assert np.allclose(result.allocation, 0.0)
        assert result.cost == 0.0

    def test_solar_extends_headroom_and_offsets_draw(self):
        sess = ChargingSession("a", DAY, DAY + timedelta(hours=1), 15.0, 20.0)
        sc = scenario([sess], [0.1], solar=[5.0], grid_capacity=10.0)
        result = run_fcfs(sc)
        # headroom 10 + 5 = 15 kW, draw metered net of solar
        assert result.allocation[0, 0] == pytest.approx(15.0)
        assert result.grid_draw[0] == pytest.approx(10.0)
        assert result.cost == pytest.approx(1.0)

    def test_efficiency_in_demand_bookkeeping(self):
        sess = ChargingSession("a", DAY, DAY + timedelta(hours=2), 9.0, 10.0)
        result = run_fcfs(scenario([sess], [0.1, 0.1], eta=0.9))
        # 9 kWh at 0.9 efficiency needs 10 kWh drawn: full power for one hour
        assert result.allocation[0, 0] == pytest.approx(10.0)
        assert result.allocation[0, 1] == pytest.approx(0.0)
        assert result.unmet_energy[0] == pytest.approx(0.0, abs=1e-12)


class TestProperties:
    def test_greedy_maximality(self):
        for seed in range(6):
            sc = random_scenario(5, seed=seed)
            result = run_fcfs(sc)
            eta, dt = sc.station.charge_efficiency, sc.grid.slot_hours
            delivered = eta * dt * result.allocation.sum(axis=1)
            for t in range(sc.num_slots):
                headroom = sc.station.grid_capacity + sc.solar_cap[t] - result.allocation[:, t].sum()
                if headroom <= 1e-9:
                    continue
                for i, sess in enumerate(sc.sessions):
                    socket_room = sess.max_power * sc.availability[i, t] - result.allocation[i, t]
                    # remaining demand assessed at the end: a session left
                    # hungry with socket room must mean the slot was used up
                    if result.unmet_energy[i] > 1e-9 and socket_room > 1e-9:
                        pytest.fail(f"seed {seed}: slot {t} left session {sess.id} unserved")

    def test_deterministic(self):
        sc = random_scenario(6, seed=77)
        a, b = run_fcfs(sc), run_fcfs(sc)
        assert np.array_equal(a.allocation, b.allocation)
        assert a.cost == b.cost
        assert np.array_equal(a.unmet_energy, b.unmet_energy)

    def test_respects_caps_everywhere(self):
        for seed in range(6):
            sc = random_scenario(7, seed=seed)
            result = run_fcfs(sc)
            caps = np.array([s.max_power for s in sc.sessions])[:, None] * sc.availability
            assert np.all(result.allocation <= caps + 1e-9)
            net = result.allocation.sum(axis=0) - sc.solar_cap
            assert np.all(net <= sc.station.grid_capacity + 1e-9)
            expected_unmet = np.maximum(
                [s.required_energy for s in sc.sessions]
                - sc.station.charge_efficiency * sc.grid.slot_hours * result.allocation.sum(axis=1),
                0.0,
            )
            assert np.allclose(result.unmet_energy, expected_unmet, atol=1e-9)
