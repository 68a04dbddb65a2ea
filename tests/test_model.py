"""LP assembly and schedule decoding: worked examples and structural checks."""

import dataclasses
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

import chargeopt.model
from chargeopt.fcfs import run_fcfs
from chargeopt.lp import check_point, solve_lp
from chargeopt.model import (
    DemandInfeasibleError,
    ScheduleConsistencyError,
    apply_demand_policy,
    build_nominal_lp,
    build_robust_lp,
    extract_schedule,
    max_delivery,
    _max_delivery_lp,
    solve_deliverable,
    solve_offline,
)
from chargeopt.scenario import (
    ChargingSession,
    PriceSeries,
    SolarSeries,
    StationConfig,
    TimeGrid,
    build_scenario,
)
from chargeopt.synth import random_scenario
from oracles import (
    allocation_to_point,
    charge_column,
    highs_objective,
    highs_physical_objective,
    schedule_violations,
    variable_names,
)

UTC = timezone.utc
DAY = datetime(2019, 6, 3, tzinfo=UTC)


def two_slot_scenario():
    grid = TimeGrid(DAY, 2, 1.0)
    station = StationConfig(grid_capacity=100.0, charge_efficiency=1.0, default_max_power=10.0)
    sess = ChargingSession("a", DAY, DAY + timedelta(hours=2), 10.0, 10.0)
    return build_scenario([sess], [0.2, 0.1], SolarSeries(np.zeros(2)), grid, station)


def folded_slots(sc):
    """The bought, capped and (robust) protected slots of a scenario, from its arrays."""
    caps = (np.array([s.max_power for s in sc.sessions])[:, None] * sc.availability).sum(axis=0)
    solar = sc.solar.cap
    bought = (solar > 0) & (caps > solar)
    capped = (solar == 0) & (caps > sc.station.grid_capacity)
    exposed = bought | ((solar == 0) & (caps > 0))
    protected = exposed & (sc.prices.deviation_bound > 0)
    return np.flatnonzero(bought), np.flatnonzero(capped), np.flatnonzero(protected)


def inflated(sc):
    prices = PriceSeries(sc.prices.nominal + sc.prices.deviation_bound, np.zeros(sc.num_slots))
    return dataclasses.replace(sc, prices=prices)


class TestNominal:
    def test_two_slot_charges_in_cheap_slot(self):
        # enumeration of the two extreme schedules: all in slot 1 costs 2.0,
        # all in slot 2 costs 1.0
        sched, adjustments = solve_offline(two_slot_scenario())
        assert adjustments == []
        assert sched.objective_value == pytest.approx(1.0, abs=1e-9)
        assert np.allclose(sched.charging_power, [[0.0, 10.0]], atol=1e-9)
        assert np.allclose(sched.net_purchase, [0.0, 10.0], atol=1e-9)
        assert sched.protection_cost == 0.0
        assert sched.budget_dual is None and sched.deviation_duals is None

    def test_solar_covers_everything(self):
        grid = TimeGrid(DAY, 2, 1.0)
        station = StationConfig(grid_capacity=100.0, charge_efficiency=1.0, default_max_power=10.0)
        sess = ChargingSession("a", DAY, DAY + timedelta(hours=2), 10.0, 10.0)
        sc = build_scenario([sess], [0.2, 0.1], SolarSeries(np.full(2, 50.0)), grid, station)
        sched, _ = solve_offline(sc)
        assert sched.objective_value == pytest.approx(0.0, abs=1e-9)

    def test_zero_demand_zero_cost(self):
        sc = two_slot_scenario()
        sc = dataclasses.replace(sc, required_energy=np.zeros(sc.num_sessions))
        sched, _ = solve_offline(sc)
        assert sched.objective_value == pytest.approx(0.0, abs=1e-12)
        assert np.allclose(sched.charging_power, 0.0, atol=1e-9)

    def test_variable_and_constraint_counts(self):
        for seed, n_evs in [(1, 2), (2, 5), (3, 40)]:
            sc = random_scenario(n_evs, seed=seed, station=StationConfig(grid_capacity=30.0))
            n, t = sc.num_sessions, sc.num_slots
            live = int(np.count_nonzero(sc.availability > 0))
            assert live < n * t  # unplugged cells get no column
            bought, capped, protected = folded_slots(sc)
            # demand, supply (and robust dual) rows; socket and grid caps are bounds
            lp, vm = build_nominal_lp(sc)
            assert vm.bought.tolist() == bought.tolist()
            assert vm.capped.tolist() == capped.tolist()
            assert lp.num_vars == live + len(bought) == vm.num_vars
            assert len(lp.constraints) == n + len(bought) + len(capped)
            lp, vm = build_robust_lp(sc, 3.0)
            assert vm.protected.tolist() == protected.tolist()
            assert lp.num_vars == live + len(bought) + 1 + len(protected) == vm.num_vars
            assert len(lp.constraints) == n + len(bought) + len(capped) + len(protected)
            for i, sess in enumerate(sc.sessions):
                for k in np.flatnonzero(sc.availability[i] > 0):
                    assert lp.var_bounds[charge_column(vm, i, k), 1] == sess.max_power * sc.availability[i, k]
            purchases = lp.var_bounds[vm.purchases]
            assert np.all(purchases == [0.0, sc.station.grid_capacity])
        assert len(capped) and len(bought) and len(protected)  # the largest day has each kind

    def test_rows_list_only_plugged_in_sessions(self):
        sc = random_scenario(40, seed=3, station=StationConfig(grid_capacity=30.0))
        lp, vm = build_nominal_lp(sc)
        n = sc.num_sessions
        rows = lp.constraints

        def columns(k):
            return rows.indices[rows.indptr[k] : rows.indptr[k + 1]].tolist()

        for i in range(n):
            assert columns(i) == [charge_column(vm, i, k) for k in np.flatnonzero(sc.availability[i] > 0)]
        bought, capped, _ = folded_slots(sc)
        supplied = sorted(bought.tolist() + capped.tolist())
        assert len(rows) == n + len(supplied)
        purchase = dict(zip(vm.bought.tolist(), vm.purchases.tolist()))
        for r, k in enumerate(supplied, start=n):
            plugged = [charge_column(vm, i, k) for i in np.flatnonzero(sc.availability[:, k] > 0)]
            if k in purchase:
                assert columns(r) == plugged + [purchase[k]]
                assert rows.rhs[r] == sc.solar.cap[k]
            else:  # a dark slot whose caps exceed the grid
                assert columns(r) == plugged
                assert rows.rhs[r] == sc.station.grid_capacity
        i, k = np.argwhere(sc.availability == 0)[0]
        with pytest.raises(KeyError):
            charge_column(vm, int(i), int(k))

    def test_over_cap_charge_is_upper_bound_violation(self):
        sc = two_slot_scenario()
        lp, vm = build_nominal_lp(sc)
        x = np.zeros(vm.num_vars)
        x[charge_column(vm, 0, 1)] = 10.5  # socket cap is 10 kW; a dark slot buys its load
        violations = check_point(lp, x, 1e-9)
        assert [(v.kind, v.index) for v in violations] == [("upper_bound", charge_column(vm, 0, 1))]
        assert violations[0].amount == pytest.approx(0.5)

    def test_variable_map_json(self):
        sc = two_slot_scenario()
        _, vm = build_robust_lp(sc, 1.0)
        names = variable_names(vm)
        assert names["charge[0,1]"] == 1
        assert names["budget_dual"] == 2  # two plugged-in cells; both slots are dark
        assert names["deviation_dual[1]"] == 4
        assert len(names) == vm.num_vars


class TestRobust:
    def test_gamma_zero_equals_nominal(self):
        sc = two_slot_scenario()
        nominal, _ = solve_offline(sc)
        robust, _ = solve_offline(sc, gamma=0.0)
        assert robust.objective_value == pytest.approx(nominal.objective_value, rel=1e-9)
        assert robust.protection_cost == pytest.approx(0.0, abs=1e-9)

    def test_gamma_at_horizon_equals_inflated_prices(self):
        for seed in range(3):
            sc = random_scenario(3, seed=seed, num_slots=12)
            robust, _ = solve_offline(sc, gamma=float(sc.num_slots))
            infl, _ = solve_offline(inflated(sc))
            assert robust.objective_value == pytest.approx(infl.objective_value, rel=1e-6)

    def test_zero_deviation_bound_any_gamma(self):
        sc = two_slot_scenario()
        sc = dataclasses.replace(sc, prices=PriceSeries(sc.prices.nominal, np.zeros(2)))
        nominal, _ = solve_offline(sc)
        robust, _ = solve_offline(sc, gamma=7.0)
        assert robust.objective_value == pytest.approx(nominal.objective_value, rel=1e-9)

    def test_objective_nondecreasing_in_gamma(self):
        sc = random_scenario(4, seed=12, num_slots=12)
        values = [solve_offline(sc, gamma=float(g))[0].objective_value for g in range(0, 13, 3)]
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-9

    def test_negative_gamma_rejected(self):
        for gamma in (-1.0, float("nan"), float("inf")):
            with pytest.raises(ValueError, match=f"gamma must be finite and nonnegative, got {gamma!r}"):
                build_robust_lp(two_slot_scenario(), gamma)

    def test_week_scale_matches_highs(self):
        pytest.importorskip("scipy")
        sc, _ = apply_demand_policy(random_scenario(40, seed=1, num_slots=168), "clamp")
        lp, _ = build_robust_lp(sc, 12.0)
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(highs_objective(lp), rel=1e-6)
        # against the unfolded model, so a wrong fold of solar or the grid cap shows;
        # the grid cap binds on the 15 kW station
        congested = random_scenario(
            40, seed=1, num_slots=168, station=StationConfig(grid_capacity=15.0)
        )
        for raw in (sc, congested):
            eff, _ = apply_demand_policy(raw, "clamp")
            assert np.any(eff.solar.cap > 0)
            for gamma in (None, 12.0):
                sched, _ = solve_offline(raw, gamma)
                expected = highs_physical_objective(eff, gamma)
                assert sched.objective_value == pytest.approx(expected, rel=1e-6)


    def test_month_scale_matches_highs(self):
        pytest.importorskip("scipy")
        sc, _ = apply_demand_policy(random_scenario(600, seed=2, num_slots=720), "clamp")
        for lp, _ in (build_nominal_lp(sc), build_robust_lp(sc, 12.0)):
            sol = solve_lp(lp)
            assert sol.objective_value == pytest.approx(highs_objective(lp), rel=1e-6)

    def test_net_purchase_never_negative(self):
        # the simplex stops within its tolerance of a bound; the decoded
        # purchases must still be nonnegative, as the worst-case scoring requires
        for seed in range(100):
            sc = random_scenario(
                2 + seed % 4, seed=9000 + seed, ample_grid=(seed % 3 == 0), demand_fill=(0.2, 1.1)
            )
            eff, _ = apply_demand_policy(sc, "clamp")
            sched = solve_deliverable(eff, [None, 0.0, 4.5, 24.0][seed % 4])
            assert np.all(sched.net_purchase >= 0.0), f"seed {seed}"
            assert np.all(sched.charging_power >= 0.0), f"seed {seed}"


def folding_case(seed):
    """A generated day with dark, sunny and partly sunny slots, some zero prices and some
    zero deviation bounds, the bounds given as a per-slot series as the MPC windows give them."""
    rng = np.random.default_rng(seed)
    grid = float(rng.choice([12.0, 30.0, 1e4]))
    sc = random_scenario(
        int(rng.integers(3, 12)), seed=seed, num_slots=12, peak_overlap=bool(seed % 2),
        station=StationConfig(grid_capacity=grid),
    )
    caps = (np.array([s.max_power for s in sc.sessions])[:, None] * sc.availability).sum(axis=0)
    kind = rng.integers(0, 3, sc.num_slots)  # dark, sunny, partly sunny
    solar = np.select([kind == 0, kind == 1], [0.0, caps + rng.uniform(0.0, 5.0, sc.num_slots)],
                      rng.uniform(0.0, 1.0, sc.num_slots) * caps)
    prices = np.where(rng.random(sc.num_slots) < 0.2, 0.0, sc.prices.nominal)
    bounds = np.where(rng.random(sc.num_slots) < 0.3, 0.0, rng.uniform(0.0, 0.05, sc.num_slots))
    sc = build_scenario(sc.sessions, prices, SolarSeries(solar), sc.grid, sc.station)
    return dataclasses.replace(sc, prices=PriceSeries(prices, bounds))


class TestFoldedProgram:
    def test_matches_the_unfolded_program(self):
        # the paper's LP, with a purchase column and both rows in every slot, against the
        # folded and scaled one, over every kind of slot the fold treats apart
        pytest.importorskip("scipy")
        seen = set()
        for seed in range(40):
            sc, _ = apply_demand_policy(folding_case(seed), "clamp")
            bought, capped, protected = folded_slots(sc)
            dark = sc.solar.cap == 0
            folded = np.setdiff1d(np.arange(sc.num_slots), bought)
            seen.update(
                name for name, hit in [
                    ("dark", dark.any()), ("sunny", (~dark[folded]).any()), ("capped", len(capped)),
                    ("zero price", (sc.prices.nominal == 0).any()),
                    ("zero bound", (sc.prices.deviation_bound == 0).any()),
                    ("protected dark", dark[protected].any()),
                ] if hit
            )
            for gamma in (None, 0.0, 4.0, 12.0):
                sched = solve_deliverable(sc, gamma)
                expected = highs_physical_objective(sc, gamma)
                assert sched.objective_value == pytest.approx(expected, rel=1e-7, abs=1e-9), seed
                load = sched.charging_power.sum(axis=0)
                np.testing.assert_array_equal(
                    sched.net_purchase[folded], np.maximum(load - sc.solar.cap, 0.0)[folded]
                )
                assert schedule_violations(
                    sc, sched.charging_power, sched.net_purchase, sched.solar_used
                ) == []
        assert seen == {"dark", "sunny", "capped", "zero price", "zero bound", "protected dark"}


class TestDemandPolicy:
    def unreachable_scenario(self):
        grid = TimeGrid(DAY, 2, 1.0)
        station = StationConfig(grid_capacity=100.0, charge_efficiency=0.9, default_max_power=10.0)
        sess = ChargingSession("b", DAY, DAY + timedelta(hours=1), 20.0, 10.0)
        return build_scenario([sess], [0.1, 0.1], SolarSeries(np.zeros(2)), grid, station)

    def test_clamp_to_max_deliverable(self):
        sc = self.unreachable_scenario()
        clamped, adjustments = apply_demand_policy(sc, "clamp")
        assert clamped.required_energy[0] == pytest.approx(9.0, abs=1e-9)
        assert clamped.sessions is sc.sessions
        assert len(adjustments) == 1
        assert adjustments[0].session_id == "b"
        assert adjustments[0].required == sc.required_energy[0]
        assert adjustments[0].deliverable == pytest.approx(9.0, abs=1e-9)

    def test_reachable_demands_unchanged(self):
        sc = two_slot_scenario()
        for policy in ("strict", "clamp"):
            out, adjustments = apply_demand_policy(sc, policy)
            assert out is sc
            assert adjustments == []

    def test_strict_raises_listing_deliverable(self):
        with pytest.raises(DemandInfeasibleError) as err:
            apply_demand_policy(self.unreachable_scenario(), "strict")
        assert err.value.shortfalls[0].deliverable == pytest.approx(9.0, abs=1e-9)

    @staticmethod
    def near_reach_scenario(excess, grid_capacity=100.0):
        """One session asking ``excess`` kWh past its reach: 0.9 * 11 kW * 5 h = 49.5 kWh at its
        socket, or the grid's share of that on a grid below 11 kW (an LP then finds it)."""
        grid = TimeGrid(DAY, 24, 1.0)
        station = StationConfig(grid_capacity=grid_capacity, charge_efficiency=0.9)
        arrival = DAY + timedelta(hours=2)
        need = 0.9 * 5 * min(11.0, grid_capacity) + excess
        sess = ChargingSession("a", arrival, arrival + timedelta(hours=5), need, 11.0)
        return build_scenario([sess], [0.1] * 24, SolarSeries(np.zeros(24)), grid, station)

    @pytest.mark.parametrize("gamma", [None, 6.0], ids=["nominal", "robust"])
    @pytest.mark.parametrize("policy", ["clamp", "strict"])
    @pytest.mark.parametrize("grid_capacity", [100.0, 9.9], ids=["sockets", "grid"])
    @pytest.mark.parametrize("excess", [1e-5, 9.5e-7])
    def test_demand_just_past_reach_is_lowered_silently(self, policy, gamma, grid_capacity, excess):
        # within the policy's tolerance the shortfall is not reported, but the LP, whose rows
        # allow only FEASIBILITY_TOL per variable, must not receive it: it used to end
        # infeasible here, and 9.5e-7 kWh over 0.9 kWh per kW is past that tolerance too
        sc = self.near_reach_scenario(excess, grid_capacity)
        reach = max_delivery(sc)[0]
        assert reach == pytest.approx(0.9 * 5 * min(11.0, grid_capacity), rel=1e-12)
        eff, adjustments = apply_demand_policy(sc, policy)
        assert adjustments == []
        assert eff.required_energy[0] == reach
        sched, adjustments = solve_offline(sc, gamma, policy)
        assert adjustments == []
        assert 0.9 * sched.charging_power.sum() == pytest.approx(reach, rel=1e-9)

    def test_shortfall_past_the_tolerance_is_reported(self):
        sc = self.near_reach_scenario(1e-4)
        clamped, adjustments = apply_demand_policy(sc, "clamp")
        assert [a.deliverable for a in adjustments] == [clamped.required_energy[0]]
        with pytest.raises(DemandInfeasibleError):
            apply_demand_policy(sc, "strict")

    def test_max_delivery_respects_grid_cap(self):
        grid = TimeGrid(DAY, 1, 1.0)
        station = StationConfig(grid_capacity=10.0, charge_efficiency=1.0, default_max_power=8.0)
        sessions = [
            ChargingSession("a", DAY, DAY + timedelta(hours=1), 8.0, 8.0),
            ChargingSession("b", DAY, DAY + timedelta(hours=1), 8.0, 8.0),
        ]
        sc = build_scenario(sessions, [0.1], SolarSeries(np.zeros(1)), grid, station)
        total = max_delivery(sc).sum()
        assert total == pytest.approx(10.0, abs=1e-6)


def slack_unreachable(seed):
    """Grid above the sum of all socket caps; some demands exceed what the sockets reach."""
    return random_scenario(25, seed=seed, num_slots=12, ample_grid=True, demand_fill=(0.5, 1.8))


def congested(seed):
    return random_scenario(
        25, seed=seed, num_slots=12, peak_overlap=True,
        station=StationConfig(grid_capacity=40.0, default_max_power=11.0),
    )


def count_lp_calls(monkeypatch):
    calls = []

    def counting(lp):
        calls.append(lp)
        return solve_lp(lp)

    monkeypatch.setattr(chargeopt.model, "solve_lp", counting)
    return calls


class TestMaxDeliveryClosedForm:
    @pytest.mark.parametrize("seed", range(6))
    def test_matches_delivery_lp_on_slack_grid(self, seed):
        sc = slack_unreachable(seed)
        required = np.array([s.required_energy for s in sc.sessions])
        closed = max_delivery(sc)
        assert np.any(closed < required - 1e-6)  # the ceilings do real work
        np.testing.assert_allclose(closed, _max_delivery_lp(sc), rtol=1e-9, atol=0)

    def test_slack_grid_solves_no_lp(self, monkeypatch):
        calls = count_lp_calls(monkeypatch)
        max_delivery(slack_unreachable(0))
        apply_demand_policy(slack_unreachable(1), "clamp")
        assert calls == []

    def test_congested_grid_still_solves_the_lp(self, monkeypatch):
        sc = congested(0)
        caps = np.array([s.max_power for s in sc.sessions])[:, None] * sc.availability
        assert caps.sum(axis=0).max() > sc.station.grid_capacity
        calls = count_lp_calls(monkeypatch)
        max_delivery(sc)
        assert len(calls) == 1

    @pytest.mark.parametrize("seed", range(3))
    def test_solar_widens_closed_form(self, seed, monkeypatch):
        sc = slack_unreachable(seed)
        load = (np.array([s.max_power for s in sc.sessions])[:, None] * sc.availability).sum(axis=0)
        grid = 0.5 * load.max()
        station = dataclasses.replace(sc.station, grid_capacity=grid)
        sc = dataclasses.replace(sc, station=station, solar=SolarSeries(np.maximum(load - grid, 0.0)))
        assert np.any(load > grid) and np.all(load <= grid + sc.solar.cap)
        calls = count_lp_calls(monkeypatch)
        closed = max_delivery(sc)
        assert calls == []
        np.testing.assert_allclose(closed, _max_delivery_lp(sc), rtol=1e-9, atol=0)
        calls.clear()
        max_delivery(dataclasses.replace(sc, solar=SolarSeries(0.5 * sc.solar.cap)))
        assert len(calls) == 1  # some slot's caps now exceed grid plus solar

    def test_strict_on_slack_grid_lists_lp_deliverable(self):
        sc = slack_unreachable(2)
        lp_amounts = _max_delivery_lp(sc)
        with pytest.raises(DemandInfeasibleError) as err:
            apply_demand_policy(sc, "strict")
        ids = [s.id for s in sc.sessions]
        assert err.value.shortfalls
        for short in err.value.shortfalls:
            i = ids.index(short.session_id)
            assert short.required == sc.sessions[i].required_energy
            assert short.deliverable == pytest.approx(lp_amounts[i], rel=1e-9)


class TestExtract:
    def test_cross_check_catches_tampered_objective(self):
        sc = two_slot_scenario()
        lp, vm = build_nominal_lp(sc)
        sol = solve_lp(lp)
        broken = dataclasses.replace(sol, objective_value=sol.objective_value + 1.0)
        with pytest.raises(ScheduleConsistencyError):
            extract_schedule(broken, vm, sc)

    @pytest.mark.parametrize("gamma", [0.0, 1.5, 12.0])
    def test_robust_map_carries_its_budget_and_scales(self, gamma):
        sc = random_scenario(4, seed=3)
        lp, vm = build_robust_lp(sc, gamma)
        assert vm.gamma == gamma and vm.robust and len(vm.protected)
        b = sc.prices.deviation_bound[vm.protected] * sc.grid.slot_hours
        np.testing.assert_array_equal(vm.b, b)
        assert vm.s == b.max()
        sol = solve_lp(lp)
        assert extract_schedule(sol, vm, sc).objective_value == pytest.approx(
            sol.objective_value, rel=1e-12
        )

    def test_nominal_map_has_no_budget_and_no_scales(self):
        sc = random_scenario(4, seed=3)
        lp, vm = build_nominal_lp(sc)
        assert vm.gamma is None and not vm.robust
        assert len(vm.protected) == len(vm.b) == 0 and vm.s == 0.0
        sol = solve_lp(lp)
        sched = extract_schedule(sol, vm, sc)
        assert sched.objective_value == pytest.approx(sol.objective_value, rel=1e-12)
        assert sched.budget_dual is None and sched.protection_cost == 0.0

    def test_delivered_energy_property(self):
        for seed in range(5):
            sc = random_scenario(4, seed=seed)
            sched, _ = solve_offline(sc)
            dt, eta = sc.grid.slot_hours, sc.station.charge_efficiency
            delivered = eta * dt * sched.charging_power.sum(axis=1)
            for i, s in enumerate(sc.sessions):
                assert delivered[i] >= s.required_energy - 1e-6

    def test_grid_draw_recomputed_not_copied(self):
        # zero price in one slot lets the purchase variable exceed the real draw
        grid = TimeGrid(DAY, 2, 1.0)
        station = StationConfig(grid_capacity=100.0, charge_efficiency=1.0, default_max_power=10.0)
        sess = ChargingSession("a", DAY, DAY + timedelta(hours=2), 5.0, 10.0)
        sc = build_scenario([sess], [0.0, 0.5], SolarSeries(np.zeros(2)), grid, station)
        sched, _ = solve_offline(sc)
        assert np.allclose(sched.grid_draw, np.maximum(sched.charging_power.sum(axis=0) - sched.solar_used, 0))
        assert sched.grid_draw[1] == pytest.approx(0.0, abs=1e-9)


class TestFcfsDominance:
    def test_fcfs_point_feasible_and_dominated(self):
        for seed in range(8):
            sc = random_scenario(4, seed=seed, ample_grid=True)
            result = run_fcfs(sc)
            assert result.unmet_energy.sum() == pytest.approx(0.0, abs=1e-9)
            lp, vm = build_nominal_lp(sc)
            point = allocation_to_point(result.allocation, sc, vm)
            assert check_point(lp, point, 1e-6) == []
            sched, _ = solve_offline(sc)
            assert sched.nominal_cost <= result.cost + 1e-6 * (1 + result.cost)

    def test_unplugged_power_rejected(self):
        sc = random_scenario(4, seed=0, ample_grid=True)
        _, vm = build_nominal_lp(sc)
        allocation = run_fcfs(sc).allocation
        i, t = np.argwhere(sc.availability == 0)[0]
        allocation[i, t] = 1e-3
        with pytest.raises(ValueError, match="not plugged in"):
            allocation_to_point(allocation, sc, vm)
