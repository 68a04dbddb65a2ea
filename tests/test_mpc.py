"""Controller tests: offline equivalence, triggers, plan consistency, residuals."""

import dataclasses
from datetime import datetime, timezone

import numpy as np
import pytest

from chargeopt import mpc
from chargeopt.model import CONSTRAINT_TOL, DemandInfeasibleError, solve_offline
from chargeopt.mpc import (
    MpcConfig,
    _tail_serves,
    detect_trigger,
    run_online,
    trace_to_json_dict,
)
from chargeopt.scenario import StationConfig, TimeGrid, build_scenario
from chargeopt.synth import random_scenario

UTC = timezone.utc


class TestDetectTrigger:
    CFG = MpcConfig(resolve_interval=4)

    def test_periodic_when_interval_elapsed(self):
        assert detect_trigger(8, 4, False, False, self.CFG) == "periodic"

    def test_arrival_dominates(self):
        assert detect_trigger(2, 0, True, False, self.CFG) == "arrival"
        assert detect_trigger(2, 0, True, True, self.CFG) == "arrival"

    def test_departure_between_intervals(self):
        assert detect_trigger(2, 0, False, True, self.CFG) == "departure"

    def test_none_when_quiet(self):
        assert detect_trigger(2, 0, False, False, self.CFG) is None

    def test_first_slot_fires_periodic(self):
        assert detect_trigger(0, -np.inf, False, False, self.CFG) == "periodic"


class TestOnlineRun:
    def test_matches_offline_when_all_arrive_at_start(self):
        for seed in range(6):
            sc = random_scenario(4, seed=seed, all_at_start=True)
            trace = run_online(sc, MpcConfig(resolve_interval=10 * sc.num_slots))
            offline, _ = solve_offline(sc)
            assert trace.total_cost == pytest.approx(offline.nominal_cost, rel=1e-6)
            assert trace.unmet_energy.sum() == pytest.approx(0.0, abs=1e-6)

    def test_empty_scenario(self):
        grid = TimeGrid(datetime(2019, 6, 3, tzinfo=UTC), 6, 1.0)
        sc = build_scenario([], np.full(6, 0.1), np.zeros(6), grid, StationConfig())
        trace = run_online(sc, MpcConfig())
        assert trace.total_cost == 0.0
        assert trace.solve_events == ()
        assert trace.applied_power.shape == (0, 6)

    def test_single_midday_arrival_single_solve(self):
        sc = random_scenario(1, seed=42)
        trace = run_online(sc, MpcConfig(resolve_interval=10 * sc.num_slots))
        kinds = [(e.slot, e.trigger) for e in trace.solve_events]
        assert len(kinds) == 1
        arrival_slot = int(np.nonzero(sc.availability[0] > 0)[0][0])
        assert kinds[0] == (arrival_slot, "arrival")

    def test_periodic_triggers_kept_by_nominal_plan(self):
        sc = random_scenario(1, seed=42)
        trace = run_online(sc, MpcConfig(resolve_interval=1))
        assert [e.trigger for e in trace.solve_events] == ["arrival"]
        assert "periodic" in {trigger for _, trigger in trace.kept_plans}

    def test_periodic_resolves_robust_with_small_interval(self):
        sc = random_scenario(1, seed=42)
        trace = run_online(sc, MpcConfig(resolve_interval=1, gamma=4.0))
        assert "periodic" in {e.trigger for e in trace.solve_events}
        assert trace.kept_plans == ()

    def test_applied_power_between_solves_comes_from_latest_plan(self, monkeypatch):
        sc = random_scenario(3, seed=9, all_at_start=True)
        slot_of = {sc.grid.slot_start(k): k for k in range(sc.num_slots)}
        row_of = {s.id: i for i, s in enumerate(sc.sessions)}
        plans = {}  # window start slot -> (session indices, planned powers)

        def recording_solve(window, *args):
            schedule, adjs = solve_offline(window, *args)
            sessions = [row_of[s.id] for s in window.sessions]
            plans[slot_of[window.grid.start]] = (sessions, schedule.charging_power)
            return schedule, adjs

        monkeypatch.setattr(mpc, "solve_offline", recording_solve)
        trace = run_online(sc, MpcConfig(resolve_interval=10 * sc.num_slots))
        solve_slots = {e.slot for e in trace.solve_events}
        start = None
        for k in range(sc.num_slots):
            if k in solve_slots:
                start = k
            if start is None or k - start >= plans[start][1].shape[1]:
                assert np.allclose(trace.applied_power[:, k], 0.0)
                continue
            sessions, power = plans[start]
            for local, i in enumerate(sessions):
                planned = power[local, k - start]
                applied = trace.applied_power[i, k]
                # applied power may be zero if the session already finished
                assert applied == pytest.approx(planned, abs=1e-9) or applied == 0.0

    @pytest.mark.parametrize("slot_hours", [1.0, 0.5], ids=["hourly", "half-hourly"])
    @pytest.mark.parametrize("gamma", [None, 4.0], ids=["nominal", "robust"])
    def test_residuals_monotone_and_consistent(self, gamma, slot_hours):
        for seed in range(4):
            sc = random_scenario(
                5, seed=seed, num_slots=int(24 / slot_hours), slot_hours=slot_hours
            )
            trace = run_online(sc, MpcConfig(resolve_interval=3, gamma=gamma))
            hist = trace.residual_demand_history
            eta, dt = sc.station.charge_efficiency, sc.grid.slot_hours
            for i in range(sc.num_sessions):
                first = int(np.nonzero(sc.availability[i] > 0)[0][0])
                series = hist[first:, i]
                assert np.all(np.diff(series) <= 1e-12)
            delivered = eta * dt * trace.applied_power.sum(axis=1)
            for i, sess in enumerate(sc.sessions):
                assert delivered[i] + trace.unmet_energy[i] >= sess.required_energy - 1e-6
                if trace.unmet_energy[i] > 1e-9:
                    assert delivered[i] + trace.unmet_energy[i] == pytest.approx(
                        sess.required_energy, abs=1e-6
                    )

    @pytest.mark.parametrize("slot_hours", [1.0, 0.5], ids=["hourly", "half-hourly"])
    @pytest.mark.parametrize("gamma", [None, 4.0], ids=["nominal", "robust"])
    def test_applied_power_respects_caps(self, gamma, slot_hours):
        for seed in range(4):
            sc = random_scenario(
                5, seed=seed, num_slots=int(24 / slot_hours), slot_hours=slot_hours
            )
            trace = run_online(sc, MpcConfig(resolve_interval=2, gamma=gamma))
            caps = np.array([s.max_power for s in sc.sessions])[:, None] * sc.availability
            assert np.all(trace.applied_power <= caps + 1e-6)
            net = trace.applied_power.sum(axis=0) - trace.applied_solar
            assert np.all(net <= sc.station.grid_capacity + 1e-6)

    def test_applied_solar_covers_load_up_to_cap(self):
        for seed in range(4):
            sc = random_scenario(5, seed=seed)
            trace = run_online(sc, MpcConfig(resolve_interval=2))
            load = trace.applied_power.sum(axis=0)
            assert np.array_equal(trace.applied_solar, np.minimum(load, sc.solar_cap))
            draw = np.maximum(load - trace.applied_solar, 0.0)
            assert trace.total_cost == sc.energy_cost(draw)

    def test_clamped_residuals_recorded(self):
        sc = random_scenario(3, seed=4, demand_fill=(1.4, 1.6))  # unreachable on purpose
        trace = run_online(sc, MpcConfig(resolve_interval=1, demand_policy="clamp"))
        assert len(trace.demand_adjustments) > 0
        assert trace.unmet_energy.sum() > 0

    def test_strict_policy_surfaces_infeasibility(self):
        sc = random_scenario(3, seed=4, demand_fill=(1.4, 1.6))
        with pytest.raises(DemandInfeasibleError):
            run_online(sc, MpcConfig(resolve_interval=1, demand_policy="strict"))

    def test_solve_events_describe_their_solves(self, monkeypatch):
        sc = random_scenario(3, seed=4, demand_fill=(1.4, 1.6))
        slot_of = {sc.grid.slot_start(k): k for k in range(sc.num_slots)}
        solves = {}  # window start slot -> (sessions, iterations, adjustments)

        def recording_solve(window, *args):
            schedule, adjs = solve_offline(window, *args)
            iterations = schedule.stats.dual_iterations
            solves[slot_of[window.grid.start]] = (window.num_sessions, iterations, len(adjs))
            return schedule, adjs

        monkeypatch.setattr(mpc, "solve_offline", recording_solve)
        trace = run_online(sc, MpcConfig(resolve_interval=1))
        assert {e.slot: (e.members, e.iterations, e.clamped) for e in trace.solve_events} == solves
        assert sum(e.clamped for e in trace.solve_events) == len(trace.demand_adjustments) > 0

    def test_trace_serializes(self):
        import json

        sc = random_scenario(2, seed=1)
        trace = run_online(sc, MpcConfig(resolve_interval=2))
        blob = json.dumps(trace_to_json_dict(trace))
        back = json.loads(blob)
        assert back["total_cost"] == trace.total_cost
        assert len(back["solve_events"]) == len(trace.solve_events)
        assert back["kept_plans"] == [{"slot": k, "trigger": t} for k, t in trace.kept_plans]

    def test_bad_interval_rejected(self):
        with pytest.raises(ValueError):
            MpcConfig(resolve_interval=0)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"resolve_interval": float("nan")}, "resolve interval"),
            ({"resolve_interval": float("inf")}, "resolve interval"),
            ({"resolve_interval": 2.5}, "resolve interval"),
            ({"gamma": -1.0}, "gamma must be finite and nonnegative"),
            ({"gamma": float("nan")}, "gamma must be finite and nonnegative"),
            ({"gamma": float("inf")}, "gamma must be finite and nonnegative"),
            ({"demand_policy": "drop"}, "unknown demand policy 'drop'"),
        ],
    )
    def test_bad_config_rejected_when_built(self, kwargs, message):
        with pytest.raises(ValueError, match=message):
            MpcConfig(**kwargs)


class TestWindows:
    """A window is the parent's slice over its slots, with the members' residual demands."""

    @pytest.mark.parametrize(
        "slot_hours",
        [1.0, 0.5, 0.25, 1 / 3, 0.3333333333],
        ids=["1", "1/2", "1/4", "1/3", "0.3333333333"],
    )
    @pytest.mark.parametrize("gamma", [None, 4.0], ids=["nominal", "robust"])
    def test_window_is_the_parents_slice(self, monkeypatch, gamma, slot_hours):
        windows = []

        def recording_solve(window, *args):
            windows.append(window)
            return solve_offline(window, *args)

        monkeypatch.setattr(mpc, "solve_offline", recording_solve)
        for seed in range(5):
            sc = random_scenario(
                8, seed=seed, num_slots=round(24 / slot_hours), slot_hours=slot_hours
            )
            slot_of = {sc.grid.slot_start(k): k for k in range(sc.num_slots)}
            row_of = {s.id: i for i, s in enumerate(sc.sessions)}
            first_slot = (sc.availability > 0).argmax(axis=1)
            trace = run_online(sc, MpcConfig(resolve_interval=3, gamma=gamma))
            assert len(windows) == len(trace.solve_events) > 0
            for window in windows:
                k = slot_of[window.grid.start]
                end = k + window.num_slots
                members = [row_of[s.id] for s in window.sessions]
                assert window.grid.slot_hours == sc.grid.slot_hours
                assert np.array_equal(window.availability, sc.availability[members, k:end])
                assert window.max_power.tobytes() == sc.max_power[members].tobytes()
                assert all(w is sc.sessions[i] for w, i in zip(window.sessions, members))
                assert np.array_equal(window.prices.nominal, sc.prices.nominal[k:end])
                bound = sc.prices.deviation_bound[k:end]
                assert np.array_equal(window.prices.deviation_bound, bound)
                assert np.array_equal(window.solar_cap, sc.solar_cap[k:end])
                before = trace.residual_demand_history[k - 1] if k else np.zeros(sc.num_sessions)
                residual = np.where(first_slot == k, sc.required_energy, before)
                assert np.array_equal(window.required_energy, residual[members])
            windows.clear()


class TestTailServes:
    """The nominal controller keeps a plan only if it plans every member and its tail
    delivers each member's residual demand."""

    PLANNED = np.array([1, 3, 4])
    TAIL = np.array([[2.0, 2.0], [1.0, 0.0], [0.0, 3.0]])  # kW, one row per planned session
    KWH_PER_KW = 0.9

    def residual(self, **need):
        """Residual demands of six sessions: each planned one's exactly what its tail delivers,
        unless given by keyword ``s<i>``."""
        residual = np.full(6, 50.0)
        residual[self.PLANNED] = self.KWH_PER_KW * self.TAIL.sum(axis=1)
        for name, kwh in need.items():
            residual[int(name[1:])] = kwh
        return residual

    def serves(self, members, residual, planned=PLANNED, tail=TAIL):
        return _tail_serves(planned, tail, np.array(members), residual, self.KWH_PER_KW)

    def test_tail_that_serves_every_member(self):
        assert self.serves([1, 3, 4], self.residual()) is True
        assert self.serves([1, 4], self.residual()) is True
        assert self.serves([3], self.residual(s3=0.0)) is True

    def test_member_missing_from_the_plan(self):
        assert self.serves([1, 2, 4], self.residual()) is False  # between planned sessions
        assert self.serves([0, 1], self.residual()) is False  # before the first
        empty = np.zeros(0, dtype=np.intp)
        assert self.serves([1], self.residual(), empty, np.zeros((0, 0))) is False

    def test_member_past_the_plans_last_session(self):
        assert self.serves([4, 5], self.residual()) is False
        assert self.serves([5], self.residual()) is False

    def test_tail_short_beyond_tolerance(self):
        delivered = self.KWH_PER_KW * 3.0  # session 4's tail
        slack = CONSTRAINT_TOL * (1 + delivered)
        assert self.serves([1, 4], self.residual(s4=delivered + 0.5 * slack)) is True
        assert self.serves([1, 4], self.residual(s4=delivered + 2.0 * slack)) is False


class TestKeptPlans:
    """The nominal controller keeps its latest plan at a departure or periodic trigger
    when the plan's tail still delivers every member's residual demand."""

    SETS = {
        "plain": {},
        "clamped": {"demand_fill": (0.6, 1.3)},  # some demands above what a stay can take
        "congested": {"station": StationConfig(grid_capacity=5.0)},
    }

    @pytest.mark.parametrize("interval", [1, 2, 3, 4, 5])
    @pytest.mark.parametrize("slot_hours", [1.0, 0.5], ids=["hourly", "half-hourly"])
    @pytest.mark.parametrize("kind", list(SETS))
    def test_kept_tail_costs_what_a_resolve_costs(self, monkeypatch, kind, slot_hours, interval):
        plans = {}  # solve slot -> (session indices, planned powers)
        clamps = 0
        kept = 0
        for seed in range(2):
            sc = random_scenario(
                5, seed=seed, num_slots=int(24 / slot_hours), slot_hours=slot_hours,
                **self.SETS[kind],
            )
            slot_of = {sc.grid.slot_start(k): k for k in range(sc.num_slots)}
            row_of = {s.id: i for i, s in enumerate(sc.sessions)}

            def recording_solve(window, *args):
                schedule, adjs = solve_offline(window, *args)
                sessions = np.array([row_of[s.id] for s in window.sessions])
                plans[slot_of[window.grid.start]] = (sessions, schedule.charging_power)
                return schedule, adjs

            monkeypatch.setattr(mpc, "solve_offline", recording_solve)
            trace = run_online(sc, MpcConfig(resolve_interval=interval))
            clamps += len(trace.demand_adjustments)
            kept += len(trace.kept_plans)
            last_slot = sc.num_slots - 1 - (sc.availability[:, ::-1] > 0).argmax(axis=1)
            for k, trigger in trace.kept_plans:
                assert trigger != "arrival"
                residual = trace.residual_demand_history[k - 1]
                active = (sc.availability[:, k] > 0) & (residual > mpc.RESIDUAL_TOL)
                members = np.flatnonzero(active)
                end = int(last_slot[members].max()) + 1
                start = max(slot for slot in plans if slot <= k)
                sessions, power = plans[start]
                rows = np.searchsorted(sessions, members)
                assert np.array_equal(sessions[rows], members)
                tail = power[rows, k - start : end - start]
                window = mpc._window_scenario(sc, members, k, end, residual)
                fresh, adjs = solve_offline(window)
                assert adjs == []
                tail_cost = window.energy_cost(np.maximum(tail.sum(axis=0) - window.solar_cap, 0.0))
                assert tail_cost == pytest.approx(fresh.nominal_cost, rel=1e-9)
            plans.clear()
        assert kept > 0
        if kind != "plain":
            assert clamps > 0

    def test_robust_resolves_at_every_trigger(self):
        for seed in range(4):
            sc = random_scenario(5, seed=seed)
            trace = run_online(sc, MpcConfig(resolve_interval=2, gamma=4.0))
            assert trace.kept_plans == ()
            assert "periodic" in {e.trigger for e in trace.solve_events}

    def test_clamped_member_resolves_rather_than_keeps(self):
        sc = random_scenario(3, seed=4, demand_fill=(1.4, 1.6))
        trace = run_online(sc, MpcConfig(resolve_interval=1))
        row_of = {s.id: i for i, s in enumerate(sc.sessions)}
        solves = {e.slot for e in trace.solve_events}
        checked = 0
        for slot, adj in trace.demand_adjustments:
            i, nxt = row_of[adj.session_id], slot + 1
            # still plugged in and still owed energy at the next slot: a trigger there
            # (every slot is one at interval 1) must solve, not keep the clamped plan
            if nxt < sc.num_slots and sc.availability[i, nxt] > 0:
                if trace.residual_demand_history[slot, i] > mpc.RESIDUAL_TOL:
                    assert nxt in solves
                    checked += 1
        assert checked > 0

    @pytest.mark.parametrize("interval", [1, 3])
    def test_criterion_6_holds_with_kept_plans(self, interval):
        for seed in range(6):
            sc = random_scenario(4, seed=seed, all_at_start=True)
            trace = run_online(sc, MpcConfig(resolve_interval=interval))
            offline, _ = solve_offline(sc)
            assert [(e.slot, e.trigger) for e in trace.solve_events] == [(0, "arrival")]
            assert trace.kept_plans
            assert trace.total_cost == pytest.approx(offline.nominal_cost, rel=1e-9)
            assert trace.unmet_energy.sum() == pytest.approx(0.0, abs=1e-6)
