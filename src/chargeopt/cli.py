"""Command-line surface: offline/online simulation, budget sweeps, benchmarks.

Subcommands
-----------
``simulate``     FCFS baseline vs optimized schedule (nominal, robust, or MPC)
                 on data files; writes a JSON report and a per-slot CSV.
``sensitivity``  Robust solves across a list of budgets; nominal cost, oracle
                 worst-case cost, and the increase relative to budget zero.
``bench``        Solve-time measurement on seeded synthetic instances.

Exit codes: 0 success, 1 input error (a malformed command line included) or a
solver failure, 2 infeasible demand under the strict policy.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import time
from collections import Counter
from concurrent.futures import ProcessPoolExecutor

import numpy as np

from . import reports
from .fcfs import run_fcfs
from .lp import LpError, dump_lp, solve_lp
from .model import (
    DEMAND_POLICIES,
    DemandInfeasibleError,
    apply_demand_policy,
    build_nominal_lp,
    build_robust_lp,
    solve_deliverable,
)
from .mpc import MpcConfig, run_online, trace_to_json_dict, write_events_csv
from .scenario import (
    DeviationRule,
    ScenarioError,
    StationConfig,
    TimeGrid,
    build_scenario,
    parse_irradiance,
    parse_sessions,
    parse_timestamp,
    price_scale,
    pv_cap,
    read_series_csv,
)
from .synth import bench_scenario
from .uncertainty import UncertaintyBudget, worst_case_total_cost


class _Parser(argparse.ArgumentParser):
    """Command-line errors are input errors: exit code 1, not argparse's 2."""

    def error(self, message):
        raise ScenarioError(f"{self.prog}: {message}")


def _flag_type(parse):
    """An argparse ``type`` from ``parse``: its ScenarioError becomes a message naming the flag."""
    def convert(text):
        try:
            return parse(text)
        except ScenarioError as exc:
            raise argparse.ArgumentTypeError(str(exc)) from None
    return convert


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="chargeopt",
        description="Cost-minimal EV charging schedules with solar and price-uncertainty protection.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_data_flags(p):
        p.add_argument("--sessions", required=True, help="session CSV or ACN-style JSON")
        p.add_argument("--prices", required=True, help="two-column CSV: timestamp, price")
        p.add_argument(
            "--price-units", dest="price_scale", metavar="UNITS", type=_flag_type(price_scale),
            default="EUR/kWh", help="units of the price file: EUR/kWh (default) or EUR/MWh",
        )
        p.add_argument("--irradiance", help="two-column CSV: timestamp, W/m^2 (omit for no PV)")
        p.add_argument("--start", required=True, type=_flag_type(parse_timestamp),
                       help="grid start, ISO-8601 UTC")
        p.add_argument("--hours", type=int, default=24, help="number of slots (default 24)")
        p.add_argument("--slot-hours", type=float, default=1.0, help="slot length in hours")
        p.add_argument("--grid-capacity", type=float, default=300.0, help="kW (default 300)")
        p.add_argument("--efficiency", type=float, default=0.9, help="charging efficiency")
        p.add_argument("--pv-efficiency", type=float, default=0.2, help="PV panel efficiency")
        p.add_argument("--pv-area", type=float, default=80.0, help="PV area in m^2")
        p.add_argument(
            "--default-max-power", type=float, default=86.0, help="fallback socket kW"
        )
        p.add_argument(
            "--deviation-fraction",
            type=float,
            default=0.25,
            help="price deviation bound as a fraction of the nominal price",
        )
        p.add_argument(
            "--demand-policy", choices=DEMAND_POLICIES, default="clamp",
            help="unreachable demands: fail (strict) or lower them loudly (clamp)",
        )
        p.add_argument("--out", required=True, help="JSON report path; CSVs land next to it")

    sim = sub.add_parser("simulate", help="FCFS baseline vs optimized schedule")
    add_data_flags(sim)
    sim.add_argument(
        "--policy",
        choices=["fcfs", "nominal", "robust", "mpc"],
        default="nominal",
        help="optimized method for the headline comparison",
    )
    sim.add_argument("--gamma", type=float, help="uncertainty budget (robust and mpc only)")
    sim.add_argument(
        "--resolve-interval", type=int,
        help="mpc periodic decision interval, slots (default 1); the nominal controller "
        "re-solves there only when its plan falls short",
    )
    sim.add_argument("--dump-lp", help="write the optimized LP in plain text (bug reports)")

    sens = sub.add_parser("sensitivity", help="cost vs protection across budgets")
    add_data_flags(sens)
    sens.add_argument(
        "--gamma",
        default="0,15,30",
        help="comma-separated budget list (default 0,15,30)",
    )
    sens.add_argument(
        "--eval-gamma",
        type=float,
        default=None,
        help="budget used to score worst cases (default: max of the list)",
    )
    sens.add_argument(
        "--workers", type=int, default=1, help="most solver processes, one per budget and CPU"
    )

    bench = sub.add_parser("bench", help="solve-time benchmark on synthetic instances")
    bench.add_argument("--ev-counts", default="10,25,50", help="comma-separated EV counts")
    bench.add_argument("--repetitions", type=int, default=5)
    bench.add_argument("--seed", type=int, default=0)
    bench.add_argument("--gamma", type=float, default=12.0, help="uncertainty budget")
    bench.add_argument("--out", required=True, help="JSON report path")
    return parser


def _load_scenario(args):
    _check("--hours", args.hours, 1)
    deviation = DeviationRule.proportional(args.deviation_fraction)
    grid = TimeGrid(args.start, args.hours, args.slot_hours)
    station = StationConfig(
        grid_capacity=args.grid_capacity,
        charge_efficiency=args.efficiency,
        pv_efficiency=args.pv_efficiency,
        pv_area=args.pv_area,
        default_max_power=args.default_max_power,
    )
    sessions, report = parse_sessions(args.sessions, grid, station)
    for _, reason in report.rejected:
        print(f"warning: {reason}", file=sys.stderr)
    if report.rejected:
        print(f"note: rejected {len(report.rejected)} session row(s)", file=sys.stderr)
    if report.dropped_outside_window:
        print(
            f"note: dropped {report.dropped_outside_window} session(s) outside the time grid",
            file=sys.stderr,
        )
    if report.defaulted_power:
        print(
            f"note: defaulted {report.defaulted_power} session(s) without a power to "
            f"{station.default_max_power:g} kW (--default-max-power)",
            file=sys.stderr,
        )
    prices = read_series_csv(args.prices, grid) * args.price_scale
    if args.irradiance:
        solar = pv_cap(parse_irradiance(args.irradiance, grid), station)
    else:
        solar = np.zeros(grid.num_slots)
    return build_scenario(sessions, prices, solar, grid, station, deviation)


def _check(flag: str, value, least):
    """The value of a numeric flag; nan, infinite or below ``least`` is an input error."""
    if not math.isfinite(value):
        raise ScenarioError(f"{flag} must be finite, got {value!r}")
    if value < least:
        raise ScenarioError(f"{flag} must be at least {least}, got {value!r}")
    return value


def _number_list(flag: str, text: str, kind) -> list:
    """The items of a comma-separated list flag; a bad item or an empty list is an input error."""
    try:
        values = [kind(item) for item in text.split(",") if item.strip() != ""]
    except ValueError as exc:
        raise ScenarioError(f"{flag}: {exc}") from None
    if not values:
        raise ScenarioError(f"{flag} lists no values, got {text!r}")
    return values


def _unmet(adjustments) -> float:
    """kWh the demand policy's adjustments leave undelivered."""
    return float(sum(a.required - a.deliverable for a in adjustments))


def _out_path(base: str, suffix: str) -> str:
    return (base[:-5] if base.endswith(".json") else base) + suffix


def cmd_simulate(args) -> int:
    if args.gamma is not None:
        _check("--gamma", args.gamma, 0)
    if args.resolve_interval is not None:
        _check("--resolve-interval", args.resolve_interval, 1)
    if args.policy == "robust" and args.gamma is None:
        raise ScenarioError("--policy robust requires --gamma")
    if args.gamma is not None and args.policy in ("fcfs", "nominal"):
        raise ScenarioError(f"--gamma needs --policy robust or mpc, got {args.policy}")
    if args.resolve_interval is not None and args.policy != "mpc":
        raise ScenarioError(f"--resolve-interval needs --policy mpc, got {args.policy}")
    if args.policy == "fcfs" and args.dump_lp:
        raise ScenarioError("--dump-lp needs an optimized policy: nominal, robust or mpc")
    sc = _load_scenario(args)

    report = reports.RunReport(command="simulate")
    ts = [sc.grid.slot_start(t).strftime("%Y-%m-%dT%H:%M:%SZ") for t in range(sc.num_slots)]
    report.slot_timestamps = ts
    report.slot_series["price_eur_per_kwh"] = [float(p) for p in sc.prices.nominal]

    fcfs = run_fcfs(sc)
    report.costs["fcfs"] = fcfs.cost
    report.unmet_energy_kwh["fcfs"] = float(fcfs.unmet_energy.sum())
    report.slot_series["fcfs_grid_kw"] = [float(v) for v in fcfs.grid_draw]
    fcfs_slot_cost = reports.slot_costs(sc, fcfs.grid_draw)

    headline = fcfs.cost
    optimized_slot_cost = fcfs_slot_cost
    if args.policy != "fcfs":
        eff, adjustments = apply_demand_policy(sc, args.demand_policy)
        schedule = solve_deliverable(eff)
        report.solver.append(reports.SolverRecord("nominal", schedule.stats))
        report.costs["nominal"] = schedule.nominal_cost
        report.unmet_energy_kwh["nominal"] = _unmet(adjustments)
        report.slot_series["nominal_grid_kw"] = [float(v) for v in schedule.grid_draw]
        report.slot_series["nominal_solar_kw"] = [float(v) for v in schedule.solar_used]
        headline = schedule.nominal_cost
        optimized_slot_cost = reports.slot_costs(sc, schedule.grid_draw)
        if args.policy == "robust":
            rsched = solve_deliverable(eff, args.gamma)
            report.solver.append(reports.SolverRecord(f"robust gamma={args.gamma!r}", rsched.stats))
            report.costs["robust_nominal"] = rsched.nominal_cost
            report.costs["robust_objective"] = rsched.objective_value
            report.slot_series["robust_grid_kw"] = [float(v) for v in rsched.grid_draw]
            report.slot_series["robust_solar_kw"] = [float(v) for v in rsched.solar_used]
            headline = rsched.nominal_cost
            optimized_slot_cost = reports.slot_costs(sc, rsched.grid_draw)
        if args.dump_lp:
            # the offline LP as solved above: built on the demand-clamped scenario
            robust = args.policy == "robust"
            lp, _ = build_robust_lp(eff, args.gamma) if robust else build_nominal_lp(eff)
            with open(args.dump_lp, "w") as fh:
                fh.write(dump_lp(lp))
        if args.policy == "mpc":
            cfg = MpcConfig(
                resolve_interval=args.resolve_interval or 1,
                gamma=args.gamma,
                demand_policy=args.demand_policy,
            )
            trace = run_online(sc, cfg)
            report.costs["mpc"] = trace.total_cost
            report.kept_plans = dict(Counter(trigger for _, trigger in trace.kept_plans))
            report.unmet_energy_kwh["mpc"] = float(trace.unmet_energy.sum())
            mpc_draw = np.maximum(
                trace.applied_power.sum(axis=0) - trace.applied_solar, 0.0
            )
            report.slot_series["mpc_grid_kw"] = [float(v) for v in mpc_draw]
            headline = trace.total_cost
            optimized_slot_cost = reports.slot_costs(sc, mpc_draw)
            with open(_out_path(args.out, ".trace.json"), "w") as fh:
                json.dump(trace_to_json_dict(trace), fh, indent=2)
            write_events_csv(trace, _out_path(args.out, ".events.csv"))

    report.savings_percent = reports.savings_percent(fcfs.cost, headline)
    report.monthly = reports.monthly_rows(sc, fcfs_slot_cost, optimized_slot_cost)
    report.write_json(args.out)
    report.write_slot_csv(_out_path(args.out, ".slots.csv"))
    if report.savings_percent is not None:
        print(
            f"fcfs {fcfs.cost:.4f} EUR, optimized {headline:.4f} EUR "
            f"({report.savings_percent:.2f}% savings)"
        )
    else:
        print(f"fcfs {fcfs.cost:.4f} EUR")
    return 0


def _sensitivity_point(payload):
    sc, gamma, eval_gamma = payload
    schedule = solve_deliverable(sc, gamma)
    budget = UncertaintyBudget(eval_gamma, sc.prices.deviation_bound)
    worst = worst_case_total_cost(schedule, sc.prices, sc.grid.slot_hours, budget)
    return gamma, schedule.nominal_cost, worst, schedule.stats


def cmd_sensitivity(args) -> int:
    gammas = sorted({_check("--gamma", g, 0) for g in _number_list("--gamma", args.gamma, float)})
    _check("--workers", args.workers, 1)
    if args.eval_gamma is not None:
        _check("--eval-gamma", args.eval_gamma, 0)
    sc = _load_scenario(args)
    eval_gamma = args.eval_gamma if args.eval_gamma is not None else max(gammas)
    # one demand pass: every budget solves the same deliverable scenario
    eff, adjustments = apply_demand_policy(sc, args.demand_policy)
    work = [(eff, g, eval_gamma) for g in gammas]
    if 0.0 not in gammas:
        work.insert(0, (eff, 0.0, eval_gamma))
    # the pool starts all its processes at once: at most one per solve and one per CPU
    workers = min(args.workers, len(work), os.cpu_count() or 1)
    if workers > 1:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(_sensitivity_point, work))
    else:
        results = [_sensitivity_point(w) for w in work]
    by_gamma = {g: (nom, worst) for g, nom, worst, _ in results}
    base_nominal = by_gamma[0.0][0]

    report = reports.RunReport(command="sensitivity")
    report.unmet_energy_kwh["robust"] = _unmet(adjustments)
    for g, _, _, stats in results:
        report.solver.append(reports.SolverRecord(f"robust gamma={g!r}", stats))
    report.notes.append(f"worst cases scored at budget {eval_gamma}")
    for g in gammas:
        nom, worst = by_gamma[g]
        inc = 100.0 * (nom - base_nominal) / base_nominal if base_nominal > 0 else 0.0
        report.sensitivity.append(reports.SensitivityRow(g, nom, worst, inc))
        print(
            f"gamma {g:g}: nominal {nom:.4f} EUR, worst-case {worst:.4f} EUR, "
            f"increase {inc:.2f}%"
        )
    report.write_json(args.out)
    report.write_sensitivity_csv(_out_path(args.out, ".sensitivity.csv"))
    return 0


def cmd_bench(args) -> int:
    counts = [_check("--ev-counts", c, 1) for c in _number_list("--ev-counts", args.ev_counts, int)]
    _check("--repetitions", args.repetitions, 1)
    _check("--seed", args.seed, 0)
    _check("--gamma", args.gamma, 0)
    report = reports.RunReport(command="bench")
    for count in counts:
        sc = bench_scenario(count, seed=args.seed)
        sc, _ = apply_demand_policy(sc, "clamp")
        lp, _ = build_robust_lp(sc, args.gamma)
        times = []
        for _ in range(args.repetitions):
            t0 = time.perf_counter()
            solve_lp(lp)
            times.append(time.perf_counter() - t0)
        row = reports.BenchRow(count, float(np.mean(times)), args.repetitions, times)
        report.bench.append(row)
        print(f"{count} EVs: mean {row.mean_solve_seconds:.3f} s over {args.repetitions} runs")
    report.write_json(args.out)
    reports.write_records_csv(
        _out_path(args.out, ".bench.csv"),
        report.bench,
        ["num_evs", "mean_solve_seconds", "repetitions"],
    )
    return 0


def main(argv=None) -> int:
    handler = {"simulate": cmd_simulate, "sensitivity": cmd_sensitivity, "bench": cmd_bench}
    try:
        args = build_parser().parse_args(argv)
        # a cost past the float range is an input error, not an infinite report
        with np.errstate(over="raise"):
            return handler[args.command](args)
    except DemandInfeasibleError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FloatingPointError as exc:
        print(
            f"error: a cost overflows ({exc}): an input that scales a cost or a power is too "
            "large: the prices, energies or powers in the files, --deviation-fraction, --gamma, "
            "--default-max-power or --pv-area",
            file=sys.stderr,
        )
        return 1
    except (ScenarioError, LpError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
