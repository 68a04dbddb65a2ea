"""Acceptance criteria, one test per criterion, each printing PASS or FAIL.

Run with output enabled to see the lines: ``pytest tests/test_acceptance.py -v -s``.
Tolerances are fixed here and match the module contracts; directional checks
on the bundled week fixture print the achieved percentages, which are
fixture-bound by design.
"""

import dataclasses
import time
from datetime import datetime, timezone

import numpy as np
import pytest

from chargeopt.fcfs import run_fcfs
from chargeopt.lp import LpInfeasibleError, Rows, check_point, solve_lp
from chargeopt.model import (
    apply_demand_policy,
    build_nominal_lp,
    build_robust_lp,
    solve_offline,
)
from chargeopt.mpc import MpcConfig, run_online
from chargeopt.scenario import (
    DeviationRule,
    PriceSeries,
    SolarSeries,
    StationConfig,
    TimeGrid,
    build_scenario,
    parse_irradiance,
    parse_prices,
    parse_sessions,
    parse_timestamp,
    pv_cap,
)
from chargeopt.synth import bench_scenario, random_scenario
from chargeopt.uncertainty import (
    UncertaintyBudget,
    verify_dual_equivalence,
    worst_case_total_cost,
)
from oracles import (
    allocation_to_point,
    random_box_lp,
    schedule_violations,
    vertex_enumeration_optimum,
)


def report(num, name, ok, detail=""):
    verdict = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num} ({name}): {verdict}{suffix}")
    assert ok, f"criterion {num} {name}: {detail}"


def load_week_fixture(week_dir):
    grid = TimeGrid(parse_timestamp("2019-05-06T00:00:00Z"), 168, 1.0)
    station = StationConfig()
    sessions, _ = parse_sessions(week_dir / "sessions.csv", grid, station)
    prices = parse_prices(week_dir / "prices.csv", grid)
    solar = pv_cap(parse_irradiance(week_dir / "irradiance.csv", grid), station)
    return build_scenario(
        sessions, prices, solar, grid, station, DeviationRule.proportional(0.25)
    )


def test_criterion_1_dual_equivalence():
    rng = np.random.default_rng(1001)
    t0 = time.perf_counter()
    worst = 0.0
    for _ in range(500):
        t = int(rng.integers(1, 13))
        purchase = rng.uniform(0.0, 50.0, t)
        bounds = rng.uniform(0.0, 0.3, t)
        gamma = float(rng.uniform(0.0, t + 2))
        if rng.random() < 0.5:
            gamma = float(int(gamma))
        residual = verify_dual_equivalence(
            purchase, 1.0, UncertaintyBudget(gamma, bounds), rtol=1e-6
        )
        worst = max(worst, residual)
    elapsed = time.perf_counter() - t0
    report(
        1,
        "dual equivalence",
        elapsed < 10.0,
        f"500 trials, worst residual {worst:.2e}, {elapsed:.1f}s",
    )


def test_criterion_2_lp_oracle_equivalence():
    rng = np.random.default_rng(1002)
    t0 = time.perf_counter()
    optima = 0
    for trial in range(200):
        lp = random_box_lp(rng)
        status, oracle = vertex_enumeration_optimum(lp)
        if status == "infeasible":
            with pytest.raises(LpInfeasibleError):
                solve_lp(lp)
        else:
            optima += 1
            sol = solve_lp(lp)
            assert abs(sol.objective_value - oracle) <= 1e-6 * (1 + abs(oracle)), f"trial {trial}"
    # degenerate fixtures terminate: this one, every row twice, proves itself infeasible
    dup = random_box_lp(np.random.default_rng(77))
    degenerate = dataclasses.replace(dup, constraints=Rows.stack([dup.constraints] * 2))
    with pytest.raises(LpInfeasibleError):
        solve_lp(degenerate)
    elapsed = time.perf_counter() - t0
    report(
        2,
        "LP vs vertex enumeration",
        elapsed < 10.0,
        f"200 LPs ({optima} optimal), degenerate fixture terminated, {elapsed:.1f}s",
    )


def test_criterion_3_fcfs_dominance():
    t0 = time.perf_counter()
    for seed in range(200):
        sc = random_scenario(
            3 + seed % 4, seed=3000 + seed, ample_grid=True, demand_fill=(0.2, 0.85)
        )
        result = run_fcfs(sc)
        assert result.unmet_energy.sum() <= 1e-9, f"seed {seed}: FCFS left demand unmet"
        lp, vm = build_nominal_lp(sc)
        point = allocation_to_point(result.allocation, sc, vm)
        violations = check_point(lp, point, 1e-6)
        assert violations == [], f"seed {seed}: FCFS point infeasible: {violations[:3]}"
        sched, _ = solve_offline(sc)
        assert sched.nominal_cost <= result.cost + 1e-6 * (1 + result.cost), f"seed {seed}"
    elapsed = time.perf_counter() - t0
    report(3, "FCFS dominance", elapsed < 60.0, f"200 scenarios, {elapsed:.1f}s")


def test_criterion_4_gamma_monotone_and_endpoints():
    for seed in range(50):
        slots = 8 + seed % 5
        sc = random_scenario(2 + seed % 3, seed=4000 + seed, num_slots=slots)
        sc, _ = apply_demand_policy(sc, "clamp")
        values = []
        for gamma in range(slots + 1):
            sched, _ = solve_offline(sc, gamma=float(gamma))
            values.append(sched.objective_value)
        for lo, hi in zip(values, values[1:]):
            assert lo <= hi + 1e-9, f"seed {seed}: objective decreased with gamma"
        nominal, _ = solve_offline(sc)
        assert abs(values[0] - nominal.objective_value) <= 1e-9 * (
            1 + abs(nominal.objective_value)
        ), f"seed {seed}: gamma=0 mismatch"
        inflated = dataclasses.replace(
            sc,
            prices=PriceSeries(
                sc.prices.nominal + sc.prices.deviation_bound, np.zeros(slots)
            ),
        )
        infl, _ = solve_offline(inflated)
        assert abs(values[-1] - infl.objective_value) <= 1e-6 * (
            1 + abs(infl.objective_value)
        ), f"seed {seed}: gamma=T mismatch"
    report(4, "gamma monotonicity and endpoints", True, "50 scenarios")


def test_criterion_5_sensitivity_trend(week_dir):
    sc = load_week_fixture(week_dir)
    plain, _ = solve_offline(sc, gamma=0.0)
    protected, _ = solve_offline(sc, gamma=30.0)
    eval_budget = UncertaintyBudget(30.0, sc.prices.deviation_bound)
    worst_plain = worst_case_total_cost(plain, sc.prices, 1.0, eval_budget)
    worst_protected = worst_case_total_cost(protected, sc.prices, 1.0, eval_budget)
    nominal_up = protected.nominal_cost - plain.nominal_cost
    worst_down = worst_plain - worst_protected
    inc_pct = 100.0 * nominal_up / plain.nominal_cost
    red_pct = 100.0 * worst_down / worst_plain
    report(
        5,
        "sensitivity trend",
        nominal_up > 0 and worst_down > 0,
        f"nominal {plain.nominal_cost:.2f}->{protected.nominal_cost:.2f} EUR (+{inc_pct:.2f}%), "
        f"worst-case {worst_plain:.2f}->{worst_protected:.2f} EUR (-{red_pct:.2f}%)",
    )


def test_criterion_6_mpc_equals_offline():
    worst = 0.0
    for seed in range(50):
        sc = random_scenario(2 + seed % 4, seed=6000 + seed, all_at_start=True)
        trace = run_online(sc, MpcConfig(resolve_interval=10 * sc.num_slots))
        offline, _ = solve_offline(sc)
        rel = abs(trace.total_cost - offline.nominal_cost) / (1 + abs(offline.nominal_cost))
        worst = max(worst, rel)
        assert rel <= 1e-6, f"seed {seed}: mpc {trace.total_cost} vs offline {offline.nominal_cost}"
    report(6, "MPC equals offline", True, f"50 scenarios, worst rel diff {worst:.2e}")


def test_criterion_7_solve_time():
    means = {}
    for count, limit in ((10, 1.0), (50, 5.0)):
        sc = bench_scenario(count, seed=0)
        sc, _ = apply_demand_policy(sc, "clamp")
        lp, _ = build_robust_lp(sc, 12.0)
        times = []
        for _ in range(5):
            t0 = time.perf_counter()
            solve_lp(lp)
            times.append(time.perf_counter() - t0)
        means[count] = float(np.mean(times))
        assert means[count] <= limit, f"{count} EVs: mean {means[count]:.2f}s over limit {limit}s"
    report(
        7,
        "solve time",
        True,
        f"10 EVs {means[10]*1e3:.0f} ms (limit 1 s), 50 EVs {means[50]*1e3:.0f} ms (limit 5 s)",
    )


def test_criterion_8_savings_smoke(week_dir):
    sc = load_week_fixture(week_dir)
    baseline = run_fcfs(sc)
    sched, _ = solve_offline(sc)
    savings = 100.0 * (baseline.cost - sched.nominal_cost) / baseline.cost
    report(
        8,
        "savings vs FCFS",
        sched.nominal_cost < baseline.cost,
        f"fcfs {baseline.cost:.2f} EUR, optimized {sched.nominal_cost:.2f} EUR, savings {savings:.1f}%",
    )


def test_criterion_9_constraint_fuzz():
    t0 = time.perf_counter()
    for seed in range(500):
        gamma = [None, 0.0, 4.5, 24.0][seed % 4]
        sc = random_scenario(
            2 + seed % 4,
            seed=9000 + seed,
            ample_grid=(seed % 3 == 0),
            demand_fill=(0.2, 1.1),
        )
        eff, _ = apply_demand_policy(sc, "clamp")
        sched, _ = solve_offline(eff, gamma=gamma)
        problems = schedule_violations(
            eff, sched.charging_power, sched.net_purchase, sched.solar_used, tol=1e-6
        )
        assert problems == [], f"seed {seed}: {problems[:3]}"
    elapsed = time.perf_counter() - t0
    report(9, "constraint fuzz", True, f"500 scenarios, {elapsed:.1f}s")
