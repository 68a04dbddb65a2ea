"""End-to-end command tests on the bundled fixtures."""

import json
import math
import warnings

import numpy as np
import pytest

from chargeopt import cli, model
from chargeopt.cli import _load_scenario, build_parser, main
from chargeopt.lp import LpSolverError, SolverStats, _Tableau, dump_lp, solve_lp
from chargeopt.model import apply_demand_policy, build_nominal_lp, build_robust_lp
from chargeopt.reports import BenchRow, MonthlyRow, RunReport, SensitivityRow, SolverRecord

TOY_ARGS = [
    "--start", "2019-06-03T00:00:00Z", "--hours", "24", "--grid-capacity", "40",
]


def toy_flags(toy_dir, out, prices="prices.csv", solar=True):
    args = [
        "--sessions", str(toy_dir / "sessions.csv"),
        "--prices", str(toy_dir / prices),
        *TOY_ARGS,
        "--out", str(out),
    ]
    if solar:
        args += ["--irradiance", str(toy_dir / "irradiance.csv")]
    return args


def toy_sessions_at_power(toy_dir, path, power):
    """A copy of the toy sessions with every socket at ``power`` kW."""
    lines = (toy_dir / "sessions.csv").read_text().splitlines()
    rows = [",".join(ln.split(",")[:4] + [power]) for ln in lines[1:]]
    path.write_text("\n".join([lines[0], *rows]) + "\n")
    return path


def load(out):
    with open(out) as fh:
        return json.load(fh)


def report_from_json_dict(data: dict) -> RunReport:
    """The :class:`RunReport` that a loaded JSON report was written from."""
    data = dict(data)
    data["monthly"] = [MonthlyRow(**r) for r in data.get("monthly", [])]
    data["sensitivity"] = [SensitivityRow(**r) for r in data.get("sensitivity", [])]
    data["bench"] = [BenchRow(**r) for r in data.get("bench", [])]
    data["solver"] = [
        SolverRecord(r["label"], SolverStats(**r["stats"])) for r in data.get("solver", [])
    ]
    return RunReport(**data)


class TestSimulate:
    def test_optimized_beats_fcfs_on_toy(self, toy_dir, tmp_path):
        out = tmp_path / "r.json"
        assert main(["simulate", *toy_flags(toy_dir, out)]) == 0
        report = load(out)
        assert report["costs"]["nominal"] <= report["costs"]["fcfs"]
        assert report["savings_percent"] > 0
        assert (tmp_path / "r.slots.csv").exists()

    def test_no_solar_zeroes_solar_series(self, toy_dir, tmp_path):
        out = tmp_path / "r.json"
        assert main(["simulate", *toy_flags(toy_dir, out), "--no-solar"]) == 0
        report = load(out)
        assert all(v == 0.0 for v in report["slot_series"]["nominal_solar_kw"])

    def test_flat_prices_no_solar_costs_equal(self, toy_dir, tmp_path):
        out = tmp_path / "r.json"
        assert main(
            ["simulate", *toy_flags(toy_dir, out, prices="prices_flat.csv", solar=False), "--no-solar"]
        ) == 0
        report = load(out)
        assert report["costs"]["nominal"] == pytest.approx(report["costs"]["fcfs"], rel=1e-9)

    def test_robust_policy_and_lp_dump(self, toy_dir, tmp_path):
        out = tmp_path / "r.json"
        dump = tmp_path / "lp.txt"
        code = main(
            ["simulate", *toy_flags(toy_dir, out), "--policy", "robust", "--gamma", "6",
             "--dump-lp", str(dump)]
        )
        assert code == 0
        report = load(out)
        assert report["costs"]["robust_objective"] >= report["costs"]["robust_nominal"] - 1e-9
        text = dump.read_text()
        assert text.count("\nc: ") >= 24  # one line per constraint

    def test_dump_lp_is_the_solved_lp(self, toy_dir, tmp_path):
        out = tmp_path / "r.json"
        dump = tmp_path / "lp.txt"
        flags = [*toy_flags(toy_dir, out, solar=False), "--grid-capacity", "3"]
        code = main(["simulate", *flags, "--policy", "robust", "--gamma", "6", "--dump-lp", str(dump)])
        assert code == 0
        args = build_parser().parse_args(["simulate", *flags])
        clamped, adjustments = apply_demand_policy(_load_scenario(args), "clamp")
        assert adjustments  # the 3 kW grid cannot meet every demand
        assert dump.read_text() == dump_lp(build_robust_lp(clamped, 6.0)[0])
        assert "np." not in dump.read_text()  # plain numbers, not numpy scalar reprs

    def test_mpc_policy_writes_trace_and_events(self, toy_dir, tmp_path):
        out = tmp_path / "r.json"
        code = main(["simulate", *toy_flags(toy_dir, out), "--policy", "mpc", "--resolve-interval", "6"])
        assert code == 0
        assert (tmp_path / "r.trace.json").exists()
        events = (tmp_path / "r.events.csv").read_text().splitlines()
        assert events[0] == "slot,trigger,horizon_slots,wall_seconds,iterations,members,clamped"
        assert len(events) > 1

    def test_nominal_mpc_solves_only_at_arrivals_on_toy_day(self, toy_dir, tmp_path):
        out = tmp_path / "r.json"
        assert main(["simulate", *toy_flags(toy_dir, out), "--policy", "mpc"]) == 0
        rows = (tmp_path / "r.events.csv").read_text().splitlines()[1:]
        assert rows and {row.split(",")[1] for row in rows} == {"arrival"}
        kept = load(out)["kept_plans"]
        assert sum(kept.values()) > 0
        trace = json.loads((tmp_path / "r.trace.json").read_text())
        assert sum(kept.values()) == len(trace["kept_plans"])

    def test_report_totals_match_slot_series(self, toy_dir, tmp_path):
        out = tmp_path / "r.json"
        main(["simulate", *toy_flags(toy_dir, out)])
        report = load(out)
        price = np.array(report["slot_series"]["price_eur_per_kwh"])
        for method in ("fcfs", "nominal"):
            draw = np.array(report["slot_series"][f"{method}_grid_kw"])
            assert float((price * draw).sum()) == pytest.approx(
                report["costs"][method], abs=1e-6
            )
        monthly_f = sum(r["fcfs_cost"] for r in report["monthly"])
        assert monthly_f == pytest.approx(report["costs"]["fcfs"], abs=1e-6)

    def test_json_report_roundtrip(self, toy_dir, tmp_path):
        out = tmp_path / "r.json"
        main(["simulate", *toy_flags(toy_dir, out), "--policy", "robust", "--gamma", "6"])
        raw = load(out)
        assert len(raw["solver"]) == 2
        again = report_from_json_dict(raw)
        assert isinstance(again.solver[0].stats, SolverStats)
        assert all(r.stats.rows > 0 and r.stats.cols > 0 for r in again.solver)
        assert again.to_json_dict() == raw  # floats survive the round trip exactly

    def test_solver_records_one_per_lp(self, toy_dir, tmp_path):
        out = tmp_path / "r.json"
        flags = toy_flags(toy_dir, out)
        assert main(["simulate", *flags, "--policy", "robust", "--gamma", "6"]) == 0
        records = load(out)["solver"]
        assert [r["label"] for r in records] == ["nominal", "robust gamma=6.0"]
        args = build_parser().parse_args(["simulate", *flags])
        eff, _ = apply_demand_policy(_load_scenario(args), "clamp")
        for record, lp in zip(records, [build_nominal_lp(eff)[0], build_robust_lp(eff, 6.0)[0]]):
            sol = solve_lp(lp)
            stats = record["stats"]
            assert stats["dual_iterations"] == sol.iterations > 0
            assert stats["bound_flips"] == sol.stats.bound_flips
            assert stats["pivot_cells"] == sol.stats.pivot_cells > 0
            assert stats["worst_residual"] is not None and stats["worst_residual"] <= 1e-6
            assert (stats["rows"], stats["cols"]) == (len(lp.constraints), lp.num_vars)

    @pytest.mark.parametrize("policy", [["--policy", "robust"], ["--policy", "mpc"], []])
    @pytest.mark.parametrize("gamma", ["nan", "inf", "-inf"])
    def test_non_finite_gamma_exits_1(self, toy_dir, tmp_path, capsys, policy, gamma):
        out = tmp_path / "r.json"
        assert main(["simulate", *toy_flags(toy_dir, out), *policy, f"--gamma={gamma}"]) == 1
        assert f"--gamma must be finite, got {float(gamma)!r}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags, field",
        [
            (["--policy", "fcfs", "--pv-area", "nan"], "pv_area"),
            (["--policy", "fcfs", "--grid-capacity", "nan"], "grid_capacity"),
            (["--policy", "nominal", "--grid-capacity", "nan"], "grid_capacity"),
            (["--slot-hours", "inf"], "slot_hours"),
            (["--slot-hours", "nan"], "slot_hours"),
            (["--default-max-power", "nan"], "default_max_power"),
            (["--policy", "robust", "--gamma", "6", "--deviation-fraction", "nan"], "deviation_fraction"),
        ],
    )
    def test_nan_station_value_exits_1(self, toy_dir, tmp_path, capsys, flags, field):
        out = tmp_path / "r.json"
        assert main(["simulate", *toy_flags(toy_dir, out), *flags]) == 1
        assert f"error: {field} must be" in capsys.readouterr().err
        assert not out.exists()

    def test_huge_deviation_fraction_solves(self, toy_dir, tmp_path, capsys):
        # the robust rows are scaled by their bounds: no fraction puts them below the
        # pivot tolerance, and a cost past the float range is an input error
        out = tmp_path / "r.json"
        flags = [*toy_flags(toy_dir, out), "--policy", "robust", "--gamma", "6"]
        with warnings.catch_warnings():
            warnings.simplefilter("error", RuntimeWarning)
            assert main(["simulate", *flags, "--deviation-fraction", "1e10"]) == 0
            costs = load(out)["costs"]
            assert math.isfinite(costs["robust_objective"])
            assert costs["robust_objective"] > costs["robust_nominal"]
            out.unlink()
            code = main(
                ["simulate", *flags, "--grid-capacity", "3", "--deviation-fraction", "1.7e308"]
            )
        assert code == 1
        err = capsys.readouterr().err
        assert "error: a cost overflows" in err and "--deviation-fraction" in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "power, flags, cause",
        [
            ("1e308", [], "powers in the files"),
            (None, ["--pv-area", "1e308", "--pv-efficiency", "1"], "--pv-area"),
        ],
        ids=["socket-power", "pv-area"],
    )
    def test_power_overflow_names_its_input(self, toy_dir, tmp_path, capsys, power, flags, cause):
        out = tmp_path / "r.json"
        args = toy_flags(toy_dir, out)
        if power is not None:
            sessions = toy_sessions_at_power(toy_dir, tmp_path / "s.csv", power)
            args[args.index("--sessions") + 1] = str(sessions)
        assert main(["simulate", *args, *flags]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: a cost overflows") and cause in err
        assert "Traceback" not in err
        assert not out.exists()

    @pytest.mark.parametrize("power, grid", [("1e15", "1e14"), ("1e12", "1e11")])
    def test_huge_grid_clamps_no_demand(self, toy_dir, tmp_path, power, grid):
        # the delivery LP bounds each cell by its session's requirement as well, so no
        # bound sits at the grid's scale and every toy demand stays deliverable
        sessions = toy_sessions_at_power(toy_dir, tmp_path / "s.csv", power)
        for policy in (["nominal"], ["robust", "--gamma", "6"], ["mpc"]):
            out = tmp_path / f"{policy[0]}.json"
            flags = toy_flags(toy_dir, out)
            flags[flags.index("--sessions") + 1] = str(sessions)
            code = main(
                ["simulate", *flags, "--grid-capacity", grid, "--demand-policy", "strict",
                 "--policy", *policy]
            )
            assert code == 0, policy
            assert not any(load(out)["unmet_energy_kwh"].values())

    def test_infinite_grid_capacity_is_unlimited(self, toy_dir, tmp_path):
        out = tmp_path / "r.json"
        assert main(["simulate", *toy_flags(toy_dir, out), "--grid-capacity", "inf"]) == 0
        costs = load(out)["costs"]
        assert costs["nominal"] <= costs["fcfs"]

    def test_missing_file_exits_1(self, toy_dir, tmp_path):
        code = main(
            ["simulate", "--sessions", str(toy_dir / "nope.csv"),
             "--prices", str(toy_dir / "prices.csv"), *TOY_ARGS,
             "--out", str(tmp_path / "r.json")]
        )
        assert code == 1

    @pytest.mark.parametrize(
        "name, content, problem",
        [
            ("sessions.json", b"{'a': 1}", "Expecting property name enclosed in double quotes"),
            ("sessions.csv", b"\xff\xfesession_id\n", "'utf-8' codec can't decode byte 0xff"),
            ("prices.csv", b"timestamp,value\n\xff,1\n", "'utf-8' codec can't decode byte 0xff"),
        ],
        ids=["json-malformed", "sessions-not-utf8", "prices-not-utf8"],
    )
    def test_unreadable_file_exits_1_naming_it(self, toy_dir, tmp_path, capsys, name, content, problem):
        for other in ("sessions.csv", "prices.csv", "irradiance.csv"):
            (tmp_path / other).write_text((toy_dir / other).read_text())
        (tmp_path / name).write_bytes(content)
        flags = toy_flags(tmp_path, tmp_path / "r.json")
        sessions = name if name.startswith("sessions") else "sessions.csv"
        flags[flags.index("--sessions") + 1] = str(tmp_path / sessions)
        assert main(["simulate", *flags]) == 1
        assert f"error: {tmp_path / name}: {problem}" in capsys.readouterr().err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "policy", [["nominal"], ["robust", "--gamma", "6"], ["mpc"]], ids=["nominal", "robust", "mpc"]
    )
    def test_solver_failure_exits_1(self, toy_dir, tmp_path, capsys, monkeypatch, policy):
        def stuck(tableau):
            raise LpSolverError("simplex iteration limit exceeded")

        monkeypatch.setattr(_Tableau, "_bland_due", stuck)
        flags = toy_flags(toy_dir, tmp_path / "r.json")
        code = main(["simulate", *flags, "--grid-capacity", "3", "--policy", *policy])
        assert code == 1
        assert capsys.readouterr().err == "error: simplex iteration limit exceeded\n"
        assert not (tmp_path / "r.json").exists()

    def test_schedule_check_failure_exits_1(self, toy_dir, tmp_path, capsys, monkeypatch):
        def broken(*args):
            raise model.ScheduleConsistencyError("socket cap exceeded")

        monkeypatch.setattr(model, "_verify_phys134", broken)
        out = tmp_path / "r.json"
        assert main(["simulate", *toy_flags(toy_dir, out)]) == 1
        assert capsys.readouterr().err == "error: socket cap exceeded\n"
        assert not out.exists()

    def test_infeasible_lp_exits_1(self, toy_dir, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(_Tableau, "run_dual", lambda tab: 0)  # row 0 cannot be repaired
        out = tmp_path / "r.json"
        assert main(["simulate", *toy_flags(toy_dir, out)]) == 1
        err = capsys.readouterr().err
        assert err == "error: infeasible: no column can bring the slack of row 0 within its bounds\n"
        assert not out.exists()

    def test_sessions_outside_the_grid_noted(self, toy_dir, tmp_path, capsys):
        # the toy day's first session a year later: every row falls outside the grid
        sessions = tmp_path / "s.csv"
        header, first = (toy_dir / "sessions.csv").read_text().splitlines()[:2]
        sessions.write_text(f"{header}\n{first.replace('2019', '2020')}\n")
        out = tmp_path / "r.json"
        flags = toy_flags(toy_dir, out)
        flags[flags.index("--sessions") + 1] = str(sessions)
        assert main(["simulate", *flags, "--policy", "fcfs"]) == 0
        captured = capsys.readouterr()
        assert captured.err == "note: dropped 1 session(s) outside the time grid\n"
        assert captured.out == "fcfs 0.0000 EUR\n"

    def test_defaulted_powers_noted(self, toy_dir, tmp_path, capsys):
        # the toy sessions without their power column: every car charges at the default
        sessions = tmp_path / "s.csv"
        lines = (toy_dir / "sessions.csv").read_text().splitlines()
        sessions.write_text("".join(",".join(ln.split(",")[:4]) + "\n" for ln in lines))
        flags = toy_flags(toy_dir, tmp_path / "r.json")
        flags[flags.index("--sessions") + 1] = str(sessions)
        assert main(["simulate", *flags, "--policy", "fcfs"]) == 0
        assert capsys.readouterr().err == (
            "note: defaulted 3 session(s) without a power to 86 kW (--default-max-power)\n"
        )
        assert main(["simulate", *flags, "--policy", "fcfs", "--default-max-power", "7.5"]) == 0
        assert "to 7.5 kW (--default-max-power)" in capsys.readouterr().err
        assert main(["simulate", *toy_flags(toy_dir, tmp_path / "r.json"), "--policy", "fcfs"]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize(
        "flags",
        [[], ["--demand-policy", "strict"], ["--policy", "robust", "--gamma", "6"],
         ["--policy", "mpc"]],
        ids=["clamp", "strict", "robust", "mpc"],
    )
    def test_demand_just_past_reach_solves(self, toy_dir, tmp_path, capsys, flags):
        # 0.9 * 11 kW * 5 h = 49.5 kWh reach: 1e-5 kWh more is within the demand policy's
        # tolerance, and the LP receives the reach, not the request
        sessions = tmp_path / "near.csv"
        sessions.write_text(
            "session_id,connection_time,disconnect_time,kwh_delivered,max_power_kw\n"
            "ev-a,2019-06-03T02:00:00Z,2019-06-03T07:00:00Z,49.50001,11\n"
        )
        out = tmp_path / "r.json"
        code = main(
            ["simulate", "--sessions", str(sessions), "--prices", str(toy_dir / "prices.csv"),
             "--start", "2019-06-03T00:00:00Z", "--hours", "24", "--out", str(out), *flags]
        )
        assert (code, capsys.readouterr().err) == (0, "")
        assert out.exists()

    @pytest.mark.parametrize(
        "policy", [["nominal"], ["robust", "--gamma", "6"], ["mpc"]], ids=["nominal", "robust", "mpc"]
    )
    def test_huge_socket_cap_costs_as_a_large_one(self, toy_dir, tmp_path, policy):
        # on a 3 kW grid every socket cap above the slot's supply delivers the same
        costs = []
        for power in ("1e6", "1e300"):
            lines = (toy_dir / "sessions.csv").read_text().splitlines()
            row = next(k for k, ln in enumerate(lines) if ln.startswith("ev-b,"))
            lines[row] = ",".join(lines[row].split(",")[:4] + [power])
            sessions = tmp_path / f"s{power}.csv"
            sessions.write_text("\n".join(lines) + "\n")
            flags = toy_flags(toy_dir, tmp_path / f"r{power}.json")
            flags[flags.index("--sessions") + 1] = str(sessions)
            assert main(["simulate", *flags, "--grid-capacity", "3", "--policy", *policy]) == 0
            costs.append(load(tmp_path / f"r{power}.json")["costs"])
        assert costs[1].keys() == costs[0].keys()
        for key, cost in costs[0].items():
            assert costs[1][key] == pytest.approx(cost, rel=1e-9, abs=0.0), key

    def test_nan_price_exits_1(self, toy_dir, tmp_path, capsys):
        lines = (toy_dir / "prices.csv").read_text().splitlines()
        lines[10] = lines[10].split(",")[0] + ",nan"
        (tmp_path / "prices.csv").write_text("\n".join(lines) + "\n")
        for name in ("sessions.csv", "irradiance.csv"):
            (tmp_path / name).write_text((toy_dir / name).read_text())
        assert main(["simulate", *toy_flags(tmp_path, tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert "prices.csv row 11, field 'value': non-finite 'nan'" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize(
        "column, field, value, problem",
        [
            pytest.param(3, "energy", "nan", "non-finite 'nan'", id="3-energy"),
            pytest.param(4, "power", "nan", "non-finite 'nan'", id="4-power"),
            pytest.param(3, "energy", "-5", "negative '-5'", id="energy-negative"),
            pytest.param(4, "power", "0", "non-positive '0'", id="power-zero"),
            pytest.param(3, "energy", "", "missing", id="energy-missing"),
            pytest.param(2, "departure", None, "missing", id="cut-after-arrival"),
            pytest.param(3, "energy", None, "missing", id="cut-after-departure"),
        ],
    )
    def test_nan_session_value_exits_1(self, toy_dir, tmp_path, capsys, column, field, value, problem):
        lines = (toy_dir / "sessions.csv").read_text().splitlines()
        row = next(k for k, ln in enumerate(lines) if ln.startswith("ev-b,"))
        cells = lines[row].split(",")
        if value is None:  # the row ends before the column
            del cells[column:]
        else:
            cells[column] = value
        lines[row] = ",".join(cells)
        (tmp_path / "sessions.csv").write_text("\n".join(lines) + "\n")
        for name in ("prices.csv", "irradiance.csv"):
            (tmp_path / name).write_text((toy_dir / name).read_text())
        assert main(["simulate", *toy_flags(tmp_path, tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert f"sessions.csv row {row + 1}, field '{field}': {problem}\n" in err
        assert not (tmp_path / "r.json").exists()

    @pytest.mark.parametrize("name", ["prices.csv", "irradiance.csv"])
    def test_repeated_timestamp_exits_1(self, toy_dir, tmp_path, capsys, name):
        lines = (toy_dir / name).read_text().splitlines()
        lines.append(lines[2].split(",")[0] + ",9.99")  # slot 1 again, another value
        (tmp_path / name).write_text("\n".join(lines) + "\n")
        for other in {"sessions.csv", "prices.csv", "irradiance.csv"} - {name}:
            (tmp_path / other).write_text((toy_dir / other).read_text())
        assert main(["simulate", *toy_flags(tmp_path, tmp_path / "r.json")]) == 1
        err = capsys.readouterr().err
        assert (
            f"{name} row {len(lines)}, field 'timestamp': duplicate 2019-06-03T01:00:00Z "
            "(first on row 3)"
        ) in err
        assert not (tmp_path / "r.json").exists()

    def test_rejected_session_rows_are_reported_by_the_command(self, toy_dir, tmp_path, capsys):
        # the library prints nothing; the command writes one warning per row, then a note
        lines = (toy_dir / "sessions.csv").read_text().splitlines()
        back = "ev-x,2019-06-03T12:00:00Z,2019-06-03T08:00:00Z,10.0,11.0"
        sessions = tmp_path / "s.csv"
        sessions.write_text("\n".join([*lines, back]) + "\n")
        flags = toy_flags(toy_dir, tmp_path / "r.json")
        flags[flags.index("--sessions") + 1] = str(sessions)
        assert main(["simulate", *flags]) == 0
        assert capsys.readouterr().err == (
            f"warning: row {len(lines) + 1}: departure 2019-06-03T08:00:00Z not after arrival\n"
            "note: rejected 1 session row(s)\n"
        )

    def test_strict_policy_unreachable_exits_2(self, toy_dir, tmp_path, capsys):
        # 1 kW sockets cannot deliver the toy demands
        code = main(
            ["simulate", *toy_flags(toy_dir, tmp_path / "r.json"),
             "--demand-policy", "strict", "--default-max-power", "86"]
        )
        assert code == 0
        bad = tmp_path / "s.csv"
        bad.write_text(
            "session_id,connection_time,disconnect_time,kwh_delivered,max_power_kw\n"
            "a,2019-06-03T08:00:00Z,2019-06-03T09:00:00Z,50.0,1.0\n"
        )
        code = main(
            ["simulate", "--sessions", str(bad), "--prices", str(toy_dir / "prices.csv"),
             *TOY_ARGS, "--demand-policy", "strict", "--out", str(tmp_path / "r2.json")]
        )
        assert code == 2
        assert "unreachable demand" in capsys.readouterr().err


class TestDemandPolicyOnce:
    """Each command clamps a scenario once, however many LPs it then solves."""

    @pytest.fixture
    def delivery_calls(self, monkeypatch):
        calls = []
        real = model.max_delivery

        def counting(sc):
            calls.append(sc)
            return real(sc)

        monkeypatch.setattr(model, "max_delivery", counting)
        return calls

    @staticmethod
    def congested(toy_dir, out):
        # a 3 kW grid without solar cannot meet every toy demand
        return [*toy_flags(toy_dir, out, solar=False), "--grid-capacity", "3"]

    def test_simulate_robust_with_dump(self, toy_dir, tmp_path, delivery_calls):
        flags = self.congested(toy_dir, tmp_path / "r.json")
        code = main(
            ["simulate", *flags, "--policy", "robust", "--gamma", "6",
             "--dump-lp", str(tmp_path / "lp.txt")]
        )
        assert code == 0
        assert load(tmp_path / "r.json")["unmet_energy_kwh"]["nominal"] > 0
        assert len(delivery_calls) == 1

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_sensitivity_every_budget(self, toy_dir, tmp_path, delivery_calls, workers):
        flags = self.congested(toy_dir, tmp_path / "s.json")
        code = main(["sensitivity", *flags, "--gamma", "0,6,12", "--workers", workers])
        assert code == 0
        assert len(delivery_calls) == 1


class TestSensitivity:
    @pytest.mark.parametrize("cpus, pools", [(8, [2]), (1, [])])
    def test_pool_has_at_most_one_process_per_solve(
        self, toy_dir, tmp_path, monkeypatch, cpus, pools
    ):
        # a fake executor records its size and maps in-process: no process is started
        made = []

        class FakePool:
            def __init__(self, max_workers):
                made.append(max_workers)

            def __enter__(self):
                return self

            def __exit__(self, *exc):
                return False

            def map(self, fn, items):
                return map(fn, items)

        monkeypatch.setattr(cli, "ProcessPoolExecutor", FakePool)
        monkeypatch.setattr(cli.os, "cpu_count", lambda: cpus)
        out = tmp_path / "s.json"
        flags = [*toy_flags(toy_dir, out), "--gamma", "0,6", "--workers", "64"]
        assert main(["sensitivity", *flags]) == 0
        assert made == pools
        assert [r["gamma"] for r in load(out)["sensitivity"]] == [0.0, 6.0]

    def test_rows_sorted_and_zero_row_baseline(self, toy_dir, tmp_path):
        out = tmp_path / "s.json"
        code = main(
            ["sensitivity", *toy_flags(toy_dir, out), "--gamma", "12,0,24"]
        )
        assert code == 0
        rows = load(out)["sensitivity"]
        gammas = [r["gamma"] for r in rows]
        assert gammas == sorted(gammas) == [0.0, 12.0, 24.0]
        assert rows[0]["increase_percent"] == 0.0
        assert (tmp_path / "s.sensitivity.csv").exists()

    def test_single_zero_gamma(self, toy_dir, tmp_path):
        out = tmp_path / "s.json"
        assert main(["sensitivity", *toy_flags(toy_dir, out), "--gamma", "0"]) == 0
        rows = load(out)["sensitivity"]
        assert len(rows) == 1 and rows[0]["increase_percent"] == 0.0

    def test_zero_deviation_fraction_flat_rows(self, toy_dir, tmp_path):
        out = tmp_path / "s.json"
        main(["sensitivity", *toy_flags(toy_dir, out), "--gamma", "0,6,12",
              "--deviation-fraction", "0"])
        rows = load(out)["sensitivity"]
        costs = {r["nominal_cost"] for r in rows}
        worsts = {r["worst_case_cost"] for r in rows}
        assert len(costs) == 1 and len(worsts) == 1

    def test_parallel_workers_match_sequential(self, toy_dir, tmp_path):
        seq, par = tmp_path / "seq.json", tmp_path / "par.json"
        main(["sensitivity", *toy_flags(toy_dir, seq), "--gamma", "0,8"])
        main(["sensitivity", *toy_flags(toy_dir, par), "--gamma", "0,8", "--workers", "2"])
        assert load(seq)["sensitivity"] == load(par)["sensitivity"]

    def test_negative_gamma_exits_1(self, toy_dir, tmp_path):
        assert main(["sensitivity", *toy_flags(toy_dir, tmp_path / "s.json"), "--gamma", "-3"]) == 1

    @pytest.mark.parametrize(
        "flags, named",
        [
            (["--gamma", "0,nan"], "--gamma"),
            (["--gamma", "inf"], "--gamma"),
            (["--gamma", "0,6", "--eval-gamma", "nan"], "--eval-gamma"),
            (["--gamma", "0,6", "--eval-gamma", "inf"], "--eval-gamma"),
        ],
    )
    def test_non_finite_budget_exits_1(self, toy_dir, tmp_path, capsys, flags, named):
        out = tmp_path / "s.json"
        assert main(["sensitivity", *toy_flags(toy_dir, out), *flags]) == 1
        assert f"{named} must be finite" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("workers", ["1", "2"])
    def test_solver_records_every_budget(self, toy_dir, tmp_path, workers):
        out = tmp_path / "s.json"
        assert main(
            ["sensitivity", *toy_flags(toy_dir, out), "--gamma", "6,12", "--workers", workers]
        ) == 0
        raw = load(out)
        # the zero budget is solved as the baseline even when it is not listed
        labels = [r["label"] for r in raw["solver"]]
        assert labels == ["robust gamma=0.0", "robust gamma=6.0", "robust gamma=12.0"]
        assert all(r["stats"]["dual_iterations"] > 0 for r in raw["solver"])
        assert report_from_json_dict(raw).to_json_dict() == raw


class TestBench:
    def test_rows_and_positive_times(self, tmp_path):
        out = tmp_path / "b.json"
        code = main(["bench", "--ev-counts", "2,3", "--repetitions", "2", "--seed", "5",
                     "--out", str(out)])
        assert code == 0
        rows = load(out)["bench"]
        assert [r["num_evs"] for r in rows] == [2, 3]
        assert all(r["mean_solve_seconds"] > 0 for r in rows)
        assert all(len(r["solve_seconds"]) == 2 for r in rows)
        assert (tmp_path / "b.bench.csv").exists()

    def test_bad_count_exits_1(self, tmp_path):
        assert main(["bench", "--ev-counts", "0", "--out", str(tmp_path / "b.json")]) == 1

    @pytest.mark.parametrize("count", ["0", "-2"])
    def test_bad_repetitions_exits_1(self, tmp_path, capsys, count):
        out = tmp_path / "b.json"
        assert main(["bench", "--ev-counts", "2", "--repetitions", count, "--out", str(out)]) == 1
        assert f"--repetitions must be at least 1, got {count}" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("gamma", ["nan", "inf"])
    def test_non_finite_gamma_exits_1(self, tmp_path, capsys, gamma):
        out = tmp_path / "b.json"
        assert main(["bench", "--ev-counts", "2", "--gamma", gamma, "--out", str(out)]) == 1
        assert "--gamma must be finite" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "command, flags, message",
    [
        ("sensitivity", ["--gamma", "abc"], "--gamma: could not convert string to float: 'abc'"),
        ("sensitivity", ["--gamma", ","], "--gamma lists no values, got ','"),
        ("sensitivity", ["--workers", "0"], "--workers must be at least 1, got 0"),
        ("sensitivity", ["--workers", "-2"], "--workers must be at least 1, got -2"),
        ("bench", ["--ev-counts", "abc"], "--ev-counts: invalid literal for int()"),
        ("bench", ["--ev-counts", ","], "--ev-counts lists no values, got ','"),
        ("sensitivity", ["--eval-gamma", "-3"], "--eval-gamma must be at least 0, got -3.0"),
        (
            "simulate",
            ["--policy", "mpc", "--resolve-interval", "0"],
            "--resolve-interval must be at least 1, got 0",
        ),
        ("simulate", ["--hours", "0"], "--hours must be at least 1, got 0"),
        ("bench", ["--seed", "-1"], "--seed must be at least 0, got -1"),
        ("simulate", ["--policy", "nominal", "--gamma", "-1"], "--gamma must be at least 0, got -1.0"),
        ("simulate", ["--hours", "abc"], "argument --hours: invalid int value: 'abc'"),
        ("simulate", ["--policy", "bogus"], "argument --policy: invalid choice: 'bogus'"),
        (
            "simulate",
            ["--start", "9999-12-31T00:00:00Z"],
            "time grid ends after year 9999: start 9999-12-31T00:00:00Z, 24 slots, slot_hours 1.0",
        ),
        ("simulate", ["--slot-hours", "1e300"], "24 slots, slot_hours 1e+300"),
        ("simulate", ["--start", "garbage"], "argument --start: unparsable timestamp 'garbage'"),
        ("sensitivity", ["--price-units", "EUR"], "argument --price-units: unknown price units 'EUR'"),
        ("simulate", ["--policy", "robust"], "--policy robust requires --gamma"),
        (
            "simulate",
            ["--policy", "fcfs", "--dump-lp", "lp.txt"],
            "--dump-lp needs an optimized policy: nominal, robust or mpc",
        ),
        (
            "simulate",
            ["--policy", "nominal", "--gamma", "5"],
            "--gamma needs --policy robust or mpc, got nominal",
        ),
        (
            "simulate",
            ["--policy", "fcfs", "--gamma", "5"],
            "--gamma needs --policy robust or mpc, got fcfs",
        ),
        (
            "simulate",
            ["--policy", "robust", "--gamma", "5", "--resolve-interval", "7"],
            "--resolve-interval needs --policy mpc, got robust",
        ),
        (
            "simulate",
            ["--policy", "nominal", "--resolve-interval", "3"],
            "--resolve-interval needs --policy mpc, got nominal",
        ),
    ],
    ids=[
        "gamma-abc", "gamma-empty", "workers-0", "workers-neg", "counts-abc", "counts-empty",
        "eval-gamma-neg", "resolve-interval-0", "hours-0", "seed-neg", "nominal-gamma-neg",
        "hours-abc", "policy-bogus", "start-overflow", "slot-hours-overflow", "start-garbage",
        "price-units-garbage", "robust-no-gamma", "fcfs-dump-lp", "nominal-gamma", "fcfs-gamma",
        "robust-resolve-interval", "nominal-resolve-interval",
    ],
)
def test_bad_flag_exits_1(toy_dir, tmp_path, capsys, monkeypatch, command, flags, message):
    def no_reading(*args):
        raise AssertionError("a bad flag must fail before any file is read")

    monkeypatch.setattr(cli, "parse_sessions", no_reading)
    out = tmp_path / "r.json"
    data = ["--out", str(out)] if command == "bench" else toy_flags(toy_dir, out)
    assert main([command, *data, *flags]) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


def test_missing_flag_exits_1(toy_dir, tmp_path, capsys):
    out = tmp_path / "r.json"
    flags = toy_flags(toy_dir, out)
    k = flags.index("--start")
    del flags[k : k + 2]
    assert main(["simulate", *flags]) == 1
    assert "the following arguments are required: --start" in capsys.readouterr().err
    assert not out.exists()


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["simulate", "--help"])
    assert exc.value.code == 0
    assert "--resolve-interval" in capsys.readouterr().out
