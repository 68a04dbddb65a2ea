"""Ingestion tests: windowing, units, the PV formula, availability invariants."""

import json
import re
from datetime import datetime, timedelta, timezone

import numpy as np
import pytest

from chargeopt.fcfs import run_fcfs
from chargeopt.model import solve_offline
from chargeopt.synth import random_scenario
from chargeopt.scenario import (
    ChargingSession,
    DeviationRule,
    PriceSeries,
    ScenarioError,
    SolarSeries,
    StationConfig,
    TimeGrid,
    availability_matrix,
    build_scenario,
    parse_irradiance,
    parse_prices,
    parse_sessions,
    pv_cap,
)
from make_fixtures import write_series_csv, write_sessions_csv
from oracles import availability_reference

UTC = timezone.utc
DAY = datetime(2019, 6, 3, tzinfo=UTC)


def day_grid(hours=24):
    return TimeGrid(DAY, hours, 1.0)


def write(path, text):
    path.write_text(text)
    return path


class TestParseSessions:
    def test_window_spanning_slots(self, tmp_path):
        path = write(
            tmp_path / "s.csv",
            "session_id,connection_time,disconnect_time,kwh_delivered\n"
            "a,2019-06-03T08:30:00Z,2019-06-03T11:30:00Z,10.0\n",
        )
        sessions, report = parse_sessions(path, day_grid(), StationConfig())
        assert len(sessions) == 1
        sc = build_scenario(sessions, np.full(24, 0.1), SolarSeries(np.zeros(24)), day_grid(), StationConfig())
        present = np.nonzero(sc.availability[0] > 0)[0]
        assert present.tolist() == [8, 9, 10, 11]
        assert sc.availability[0, 8] == pytest.approx(0.5)
        assert sc.availability[0, 11] == pytest.approx(0.5)

    def test_row_before_grid_dropped(self, tmp_path):
        path = write(
            tmp_path / "s.csv",
            "session_id,connection_time,disconnect_time,kwh_delivered\n"
            "a,2019-06-02T01:00:00Z,2019-06-02T05:00:00Z,10.0\n",
        )
        sessions, report = parse_sessions(path, day_grid(), StationConfig())
        assert sessions == []
        assert report.dropped_outside_window == 1

    def test_missing_power_falls_back_to_station_default(self, tmp_path):
        path = write(
            tmp_path / "s.csv",
            "session_id,connection_time,disconnect_time,kwh_delivered\n"
            "a,2019-06-03T08:00:00Z,2019-06-03T12:00:00Z,10.0\n",
        )
        sessions, report = parse_sessions(path, day_grid(), StationConfig())
        assert sessions[0].max_power == pytest.approx(86.0)
        assert report.defaulted_power == 1

    def test_unparsable_row_names_row_and_field(self, tmp_path):
        path = write(
            tmp_path / "s.csv",
            "session_id,connection_time,disconnect_time,kwh_delivered\n"
            "a,not-a-time,2019-06-03T12:00:00Z,10.0\n",
        )
        with pytest.raises(ScenarioError, match="row 2.*arrival"):
            parse_sessions(path, day_grid(), StationConfig())

    def test_departure_before_arrival_rejected_with_count(self, tmp_path, capsys):
        path = write(
            tmp_path / "s.csv",
            "session_id,connection_time,disconnect_time,kwh_delivered\n"
            "bad,2019-06-03T12:00:00Z,2019-06-03T08:00:00Z,10.0\n"
            "ok,2019-06-03T08:00:00Z,2019-06-03T12:00:00Z,10.0\n",
        )
        sessions, report = parse_sessions(path, day_grid(), StationConfig())
        assert [s.id for s in sessions] == ["ok"]
        assert report.rejected == [(2, "row 2: departure 2019-06-03T08:00:00Z not after arrival")]
        assert capsys.readouterr() == ("", "")  # the library prints nothing

    def test_duplicate_session_id_names_row_and_field(self, toy_dir, tmp_path):
        lines = (toy_dir / "sessions.csv").read_text().splitlines()
        dup = [ln for ln in lines if ln.startswith("ev-a,")]
        path = write(tmp_path / "s.csv", "\n".join(lines + dup) + "\n")
        with pytest.raises(ScenarioError, match=f"row {len(lines) + 1}, field 'session_id'.*'ev-a'"):
            parse_sessions(path, day_grid(), StationConfig())

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            pytest.param("kwh_delivered", "nan", "energy': non-finite 'nan'", id="kwh_delivered-nan"),
            pytest.param("kwh_delivered", "inf", "energy': non-finite 'inf'", id="kwh_delivered-inf"),
            pytest.param("max_power_kw", "inf", "power': non-finite 'inf'", id="max_power_kw-inf"),
            pytest.param("max_power_kw", "nan", "power': non-finite 'nan'", id="max_power_kw-nan"),
            pytest.param("kwh_delivered", "-5", "energy': negative '-5'", id="energy-negative"),
            pytest.param("kwh_delivered", "", "energy': missing", id="energy-missing"),
            pytest.param("max_power_kw", "0", "power': non-positive '0'", id="power-zero"),
            pytest.param("max_power_kw", "-1", "power': negative '-1'", id="power-negative"),
            pytest.param("kwh_delivered", None, "energy': missing", id="cut-before-energy"),
            pytest.param("disconnect_time", None, "departure': missing", id="cut-before-departure"),
        ],
    )
    def test_non_finite_energy_or_power_names_row_and_field(self, tmp_path, field, value, problem):
        header = ["session_id", "connection_time", "disconnect_time", "kwh_delivered", "max_power_kw"]
        cells = ["b", "2019-06-03T08:00:00Z", "2019-06-03T10:00:00Z", "10.0", "11.0"]
        col = header.index(field)
        if value is None:  # the row ends before the field
            del cells[col:]
        else:
            cells[col] = value
        path = write(
            tmp_path / "s.csv",
            ",".join(header) + "\n"
            "a,2019-06-03T08:00:00Z,2019-06-03T10:00:00Z,5.0,11.0\n" + ",".join(cells) + "\n",
        )
        with pytest.raises(ScenarioError, match=re.escape(f"{tmp_path}/s.csv row 3, field '{problem}") + "$"):
            parse_sessions(path, day_grid(), StationConfig())

    @pytest.mark.parametrize(
        "field, value, problem",
        [
            pytest.param("kWhDelivered", float("nan"), ", field 'kWhDelivered': non-finite nan", id="kWhDelivered"),
            pytest.param("maxPower", float("nan"), ", field 'maxPower': non-finite nan", id="maxPower"),
            pytest.param("kWhDelivered", -5, ", field 'kWhDelivered': negative -5", id="energy-negative"),
            pytest.param("kWhDelivered", None, ", field 'kWhDelivered': missing", id="energy-missing"),
            pytest.param("maxPower", 0, ", field 'maxPower': non-positive 0", id="power-zero"),
            pytest.param("kWhDelivered", True, ", field 'kWhDelivered': expected a number, got True", id="energy-bool"),
            pytest.param(
                "connectionTime", 5, ", field 'connectionTime': expected a timestamp string, got 5",
                id="time-not-a-string",
            ),
            pytest.param(None, 5, ": expected an object, got int", id="item-not-an-object"),
        ],
    )
    def test_acn_json_non_finite_names_item_and_field(self, tmp_path, field, value, problem):
        item = {
            "sessionID": "x",
            "connectionTime": "2019-06-03T08:00:00Z",
            "disconnectTime": "2019-06-03T10:00:00Z",
            "kWhDelivered": 12.5,
            "maxPower": 11.0,
        }
        bad = {**item, "sessionID": "y", field: value} if field else value
        path = tmp_path / "s.json"
        path.write_text(json.dumps({"_items": [item, bad]}))
        with pytest.raises(ScenarioError, match=re.escape(f"{tmp_path}/s.json item 2{problem}") + "$"):
            parse_sessions(path, day_grid(), StationConfig())

    def test_acn_json_layout(self, tmp_path):
        payload = {
            "_items": [
                {
                    "sessionID": "1_39_78_362_2019-06-03",
                    "connectionTime": "Mon, 03 Jun 2019 08:15:00 GMT",
                    "disconnectTime": "Mon, 03 Jun 2019 14:45:00 GMT",
                    "kWhDelivered": 12.5,
                }
            ]
        }
        path = tmp_path / "s.json"
        for bom in ("", "\ufeff"):  # a leading byte-order mark is dropped
            path.write_text(bom + json.dumps(payload), encoding="utf-8")
            sessions, _ = parse_sessions(path, day_grid(), StationConfig())
            assert sessions[0].id == "1_39_78_362_2019-06-03"
            assert sessions[0].arrival == datetime(2019, 6, 3, 8, 15, tzinfo=UTC)
            assert sessions[0].required_energy == pytest.approx(12.5)

    @pytest.mark.parametrize(
        "header, row, field, names",
        [
            pytest.param(
                "connection_time,arrival,disconnect_time,kwh",
                "2019-06-03T08:00:00Z,2019-06-03T02:00:00Z,2019-06-03T12:00:00Z,5",
                "arrival", "'connection_time' (column 1) and 'arrival' (column 2)", id="two-aliases",
            ),
            pytest.param(
                "id,session_id,connection_time,disconnect_time,kwh",
                "a,b,2019-06-03T08:00:00Z,2019-06-03T12:00:00Z,5",
                "session_id", "'id' (column 1) and 'session_id' (column 2)", id="id-and-session_id",
            ),
            pytest.param(
                "connection_time,disconnect_time,kwh,kwh",
                "2019-06-03T08:00:00Z,2019-06-03T12:00:00Z,5,7",
                "energy", "'kwh' (column 3) and 'kwh' (column 4)", id="repeated-name",
            ),
        ],
    )
    def test_field_named_twice_names_file_field_and_headers(self, tmp_path, header, row, field, names):
        # either column could be meant: reading one and ignoring the other would be a guess
        path = write(tmp_path / "s.csv", f"{header}\n{row}\n")
        message = f"{tmp_path}/s.csv: header names field {field!r} twice: {names}"
        with pytest.raises(ScenarioError, match=re.escape(message) + "$"):
            parse_sessions(path, day_grid(), StationConfig())

    def test_acn_style_csv_header(self, tmp_path):
        path = write(
            tmp_path / "s.csv",
            "sessionID,connectionTime,disconnectTime,kWhDelivered\n"
            "x,2019-06-03T08:00:00Z,2019-06-03T10:00:00Z,5\n",
        )
        sessions, _ = parse_sessions(path, day_grid(), StationConfig())
        assert [(s.id, s.arrival, s.required_energy) for s in sessions] == [
            ("x", DAY + timedelta(hours=8), 5.0)
        ]

    def test_roundtrip_lossless_for_in_window_sessions(self, tmp_path):
        sessions = [
            ChargingSession("a", DAY + timedelta(hours=1, minutes=7), DAY + timedelta(hours=5), 12.345678901234, 11.0),
            ChargingSession("b", DAY + timedelta(hours=3), DAY + timedelta(hours=9, minutes=59), 7.0, 22.0),
        ]
        path = tmp_path / "s.csv"
        write_sessions_csv(sessions, path)
        back, report = parse_sessions(path, day_grid(), StationConfig())
        assert back == sessions
        assert not report.rejected and report.dropped_outside_window == 0
        # a leading byte-order mark is dropped, so the first column keeps its header
        path.write_text("\ufeff" + path.read_text(encoding="utf-8"), encoding="utf-8")
        assert parse_sessions(path, day_grid(), StationConfig())[0] == sessions


class TestSeries:
    def test_eur_mwh_division(self, tmp_path, capsys):
        grid = TimeGrid(DAY, 2, 1.0)
        path = write(
            tmp_path / "p.csv",
            "timestamp,value\n2019-06-03T00:00:00Z,55.0\n2019-06-03T01:00:00Z,60.0\n",
        )
        prices = parse_prices(path, grid, "EUR/MWh")
        assert prices[0] == pytest.approx(0.055)

    def test_eur_kwh_passthrough(self, tmp_path):
        grid = TimeGrid(DAY, 1, 1.0)
        path = write(tmp_path / "p.csv", "timestamp,value\n2019-06-03T00:00:00Z,0.12\n")
        assert parse_prices(path, grid, "EUR/kWh")[0] == pytest.approx(0.12)
        # a headerless file whose first row follows a byte-order mark keeps that row
        path.write_text("\ufeff2019-06-03T00:00:00Z,0.12\n", encoding="utf-8")
        assert parse_prices(path, grid, "EUR/kWh")[0] == pytest.approx(0.12)

    def test_constant_series(self, tmp_path):
        grid = day_grid()
        write_series_csv(tmp_path / "p.csv", grid, np.ones(24))
        assert np.array_equal(parse_prices(tmp_path / "p.csv", grid), np.ones(24))

    def test_gap_lists_missing_slots(self, tmp_path):
        grid = TimeGrid(DAY, 3, 1.0)
        path = write(
            tmp_path / "p.csv",
            "timestamp,value\n2019-06-03T00:00:00Z,0.1\n2019-06-03T02:00:00Z,0.1\n",
        )
        with pytest.raises(ScenarioError, match="2019-06-03T01:00:00Z"):
            parse_prices(path, grid)

    @pytest.mark.parametrize(
        "row, problem",
        [
            pytest.param("2019-06-03T01:00:00Z,nan", "value': non-finite 'nan'", id="nan"),
            pytest.param("2019-06-03T01:00:00Z,inf", "value': non-finite 'inf'", id="inf"),
            pytest.param("2019-06-03T01:00:00Z,-inf", "value': non-finite '-inf'", id="-inf"),
            pytest.param("2019-06-03T01:00:00Z,-0.1", "value': negative '-0.1'", id="negative"),
            pytest.param("2019-06-03T01:00:00Z,", "value': missing", id="value-missing"),
            pytest.param("2019-06-03T01:00:00Z", "value': missing", id="cut-before-value"),
            pytest.param(",0.1", "timestamp': missing", id="timestamp-missing"),
        ],
    )
    def test_non_finite_value_names_row_and_field(self, tmp_path, row, problem):
        grid = TimeGrid(DAY, 2, 1.0)
        path = write(tmp_path / "p.csv", f"timestamp,value\n2019-06-03T00:00:00Z,0.1\n{row}\n")
        with pytest.raises(ScenarioError, match=re.escape(f"{tmp_path}/p.csv row 3, field '{problem}") + "$"):
            parse_prices(path, grid)

    @pytest.mark.parametrize("slot_hours", [1.0, 0.5], ids=["hourly", "half-hourly"])
    @pytest.mark.parametrize("read", [parse_prices, parse_irradiance], ids=["prices", "irradiance"])
    def test_off_hour_row_names_row_and_field(self, tmp_path, read, slot_hours):
        # a slot reads the row of its hour, so a row off the hour would be read and then ignored
        grid = TimeGrid(DAY, round(1 / slot_hours), slot_hours)
        path = write(
            tmp_path / "p.csv", "timestamp,value\n2019-06-03T00:00:00Z,0.1\n2019-06-03T00:30:00Z,99\n"
        )
        message = f"{tmp_path}/p.csv row 3, field 'timestamp': 2019-06-03T00:30:00Z is not on the hour"
        with pytest.raises(ScenarioError, match=re.escape(message) + "$"):
            read(path, grid)

    def test_off_hour_first_row_is_not_a_header(self, tmp_path):
        # only a first row whose timestamp does not parse is a header
        grid = TimeGrid(DAY, 1, 1.0)
        path = write(tmp_path / "p.csv", "2019-06-03T00:30:00Z,99\n2019-06-03T00:00:00Z,0.1\n")
        with pytest.raises(ScenarioError, match="p.csv row 1, field 'timestamp': .* not on the hour"):
            parse_prices(path, grid)

    @pytest.mark.parametrize("bad", [float("nan"), float("inf")])
    def test_price_series_rejects_non_finite(self, bad):
        with pytest.raises(ScenarioError, match="slot 1: non-finite price"):
            PriceSeries(np.array([0.1, bad]), np.zeros(2))
        with pytest.raises(ScenarioError, match="slot 0: non-finite deviation bound"):
            PriceSeries(np.array([0.1, 0.1]), np.array([bad, 0.0]))

    def test_negative_irradiance_rejected(self, tmp_path):
        grid = TimeGrid(DAY, 1, 1.0)
        path = write(tmp_path / "g.csv", "timestamp,value\n2019-06-03T00:00:00Z,-5\n")
        with pytest.raises(ScenarioError, match="g.csv row 2, field 'value': negative '-5'"):
            parse_irradiance(path, grid)


class TestPvCap:
    def test_zero_irradiance(self):
        assert pv_cap(np.zeros(3), StationConfig()).cap.tolist() == [0.0, 0.0, 0.0]

    def test_reference_constants(self):
        # 80 m^2 * 1000/1000 * 0.2 = 16 kW; half irradiance halves it
        station = StationConfig(pv_area=80.0, pv_efficiency=0.2)
        assert pv_cap(np.array([1000.0]), station).cap[0] == pytest.approx(16.0)
        assert pv_cap(np.array([500.0]), station).cap[0] == pytest.approx(8.0)

    def test_linear_in_irradiance_and_area(self):
        rng = np.random.default_rng(3)
        g = rng.uniform(0, 1000, 24)
        st1 = StationConfig(pv_area=40.0)
        st2 = StationConfig(pv_area=80.0)
        assert np.allclose(pv_cap(2 * g, st1).cap, 2 * pv_cap(g, st1).cap)
        assert np.allclose(pv_cap(g, st2).cap, 2 * pv_cap(g, st1).cap)

    def test_negative_input_error(self):
        with pytest.raises(ValueError):
            pv_cap(np.array([-1.0]), StationConfig())


class TestBuildScenario:
    def test_partial_slot_fraction(self):
        # plugged in for 10 minutes of one hour
        sess = ChargingSession("a", DAY + timedelta(hours=2), DAY + timedelta(hours=2, minutes=10), 1.0, 10.0)
        sc = build_scenario([sess], np.full(24, 0.1), SolarSeries(np.zeros(24)), day_grid(), StationConfig())
        assert sc.availability[0, 2] == pytest.approx(10 / 60)

    def test_full_slots_pattern(self):
        sess = ChargingSession("a", DAY + timedelta(hours=3), DAY + timedelta(hours=6), 1.0, 10.0)
        sc = build_scenario([sess], np.full(24, 0.1), SolarSeries(np.zeros(24)), day_grid(), StationConfig())
        expected = np.zeros(24)
        expected[3:6] = 1.0
        assert np.array_equal(sc.availability[0], expected)

    def test_deviation_fraction_rule(self):
        sess = ChargingSession("a", DAY, DAY + timedelta(hours=1), 1.0, 10.0)
        sc = build_scenario(
            [sess],
            np.full(24, 0.08),
            SolarSeries(np.zeros(24)),
            day_grid(),
            StationConfig(),
            DeviationRule.proportional(0.25),
        )
        assert np.allclose(sc.prices.deviation_bound, 0.02)

    def test_deviation_fraction_has_no_upper_limit(self, toy_dir):
        # the robust rows are scaled by their bounds, so any finite fraction solves
        grid = day_grid()
        station = StationConfig(grid_capacity=40.0)
        sessions, _ = parse_sessions(toy_dir / "sessions.csv", grid, station)
        solar = pv_cap(parse_irradiance(toy_dir / "irradiance.csv", grid), station)
        prices = parse_prices(toy_dir / "prices.csv", grid)
        for fraction in (0.25, 1e10):
            sc = build_scenario(
                sessions, prices, solar, grid, station, DeviationRule.proportional(fraction)
            )
            robust, _ = solve_offline(sc, gamma=6.0)
            assert np.isfinite(robust.objective_value)
            assert robust.objective_value >= robust.nominal_cost > 0
        with pytest.raises(ScenarioError, match="must be finite and nonnegative, got -1.0"):
            DeviationRule.proportional(-1.0)

    def test_default_deviation_rule(self):
        # without a rule, the bounds are a quarter of each nominal price, bit for bit
        grid = day_grid()
        sess = ChargingSession("a", DAY, DAY + timedelta(hours=1), 1.0, 10.0)
        nominal = np.random.default_rng(5).uniform(0.0, 0.3, grid.num_slots)
        args = ([sess], nominal, SolarSeries(np.zeros(grid.num_slots)), grid, StationConfig())
        default = build_scenario(*args).prices.deviation_bound
        stated = build_scenario(*args, DeviationRule.proportional(0.25)).prices.deviation_bound
        assert default.tobytes() == (0.25 * nominal).tobytes() == stated.tobytes()

    def test_availability_sums_to_presence_hours(self):
        rng = np.random.default_rng(11)
        grid = day_grid()
        sessions = []
        for k in range(20):
            a = float(rng.uniform(0, 23))
            d = min(float(rng.uniform(a + 0.05, a + 9)), 24.0)
            sessions.append(
                ChargingSession(f"s{k}", DAY + timedelta(hours=a), DAY + timedelta(hours=d), 1.0, 10.0)
            )
        sc = build_scenario(sessions, np.full(24, 0.1), SolarSeries(np.zeros(24)), grid, StationConfig())
        for i, s in enumerate(sessions):
            hours = (min(s.departure, grid.end) - max(s.arrival, grid.start)).total_seconds() / 3600
            assert sc.availability[i].sum() * grid.slot_hours == pytest.approx(hours, abs=1e-9)
        assert np.all(sc.availability >= 0) and np.all(sc.availability <= 1 + 1e-12)

    @pytest.mark.parametrize("slot_hours", [1.0, 0.25, 1 / 3, 2.0])
    def test_availability_matches_scalar_reference(self, slot_hours):
        rng = np.random.default_rng(5)
        grid = TimeGrid(DAY + timedelta(microseconds=250_001), 30, slot_hours)
        span_us = int(grid.num_slots * slot_hours * 3600e6)
        sessions = []
        for k in range(60):
            # from before the grid to after it, with microsecond-resolution times
            a = int(rng.integers(-span_us // 4, span_us))
            longest = int(slot_hours * 3600e6) if k % 3 == 0 else span_us // 2  # a third within one slot
            stay = int(rng.integers(1, longest))
            sessions.append(
                ChargingSession(
                    f"s{k}", grid.start + timedelta(microseconds=a),
                    grid.start + timedelta(microseconds=a + stay), 1.0, 10.0,
                )
            )
        sessions.append(ChargingSession("before", grid.start - timedelta(hours=3), grid.start, 1.0, 10.0))
        sessions.append(ChargingSession("whole", grid.start - timedelta(hours=1), grid.end + timedelta(hours=1), 1.0, 10.0))
        got = availability_matrix(sessions, grid)
        want = availability_reference(sessions, grid)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    def test_session_outside_grid_rejected(self):
        sess = ChargingSession("a", DAY + timedelta(days=2), DAY + timedelta(days=2, hours=1), 1.0, 10.0)
        with pytest.raises(ScenarioError, match="overlap"):
            build_scenario([sess], np.full(24, 0.1), SolarSeries(np.zeros(24)), day_grid(), StationConfig())

    def test_length_mismatch(self):
        sess = ChargingSession("a", DAY, DAY + timedelta(hours=1), 1.0, 10.0)
        with pytest.raises(ScenarioError, match="length"):
            build_scenario([sess], np.full(23, 0.1), SolarSeries(np.zeros(24)), day_grid(), StationConfig())

    def test_invariant_guards(self):
        with pytest.raises(ScenarioError):
            TimeGrid(DAY, 0, 1.0)
        with pytest.raises(ScenarioError):
            ChargingSession("a", DAY, DAY, 1.0, 10.0)
        with pytest.raises(ScenarioError):
            StationConfig(charge_efficiency=0.0)
        with pytest.raises(ScenarioError):
            StationConfig(grid_capacity=-1.0)

    @pytest.mark.parametrize(
        "energy, power",
        [(float("nan"), 10.0), (float("inf"), 10.0), (1.0, float("inf")), (1.0, float("nan"))],
    )
    def test_session_rejects_non_finite_energy_and_power(self, energy, power):
        with pytest.raises(ScenarioError, match="non-finite"):
            ChargingSession("a", DAY, DAY + timedelta(hours=1), energy, power)

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize("field", ["slot_hours", "pv_area", "solar cap", "deviation_fraction"])
    def test_station_and_grid_values_must_be_finite(self, field, value):
        make = {
            "slot_hours": lambda: TimeGrid(DAY, 24, value),
            "pv_area": lambda: StationConfig(pv_area=value),
            "solar cap": lambda: SolarSeries(np.array([1.0, value])),
            "deviation_fraction": lambda: DeviationRule.proportional(value),
        }[field]
        with pytest.raises(ScenarioError, match=f"{field} must be finite .*, got {value!r}"):
            make()

    @pytest.mark.parametrize("field", ["grid_capacity", "default_max_power"])
    def test_limits_reject_nan_and_keep_inf_unlimited(self, field):
        with pytest.raises(ScenarioError, match=f"{field} must be .*positive, got nan"):
            StationConfig(**{field: float("nan")})
        if field == "grid_capacity":
            assert StationConfig(grid_capacity=float("inf")).grid_capacity == float("inf")
        else:
            # a session falling back on an unlimited socket would have no finite power limit
            with pytest.raises(
                ScenarioError, match="default_max_power must be finite and positive, got inf"
            ):
                StationConfig(default_max_power=float("inf"))


class TestDerivedArrays:
    @pytest.mark.parametrize("slot_hours", [1.0, 0.5, 1 / 3, 0.75])
    def test_equal_their_formulas(self, slot_hours):
        for seed in range(4):
            sc = random_scenario(
                6, seed=seed, num_slots=round(24 / slot_hours), slot_hours=slot_hours,
                max_power=[7.4, 11.0, 22.0][seed % 3],
            )
            required = np.array([s.required_energy for s in sc.sessions])
            max_power = np.array([s.max_power for s in sc.sessions])
            assert sc.required_energy.shape == (6,)
            assert np.array_equal(sc.required_energy, required)
            assert np.array_equal(sc.socket_caps, max_power[:, None] * sc.availability)
            assert sc.kwh_per_kw == sc.station.charge_efficiency * slot_hours

    def test_sockets_of_different_power(self):
        sessions = [
            ChargingSession("a", DAY + timedelta(minutes=30), DAY + timedelta(hours=2), 5.0, 11.0),
            ChargingSession("b", DAY, DAY + timedelta(hours=1), 3.0, 22.0),
        ]
        sc = build_scenario(sessions, np.full(3, 0.1), SolarSeries(np.zeros(3)), day_grid(3), StationConfig())
        assert sc.socket_caps.tolist() == [[5.5, 11.0, 0.0], [22.0, 0.0, 0.0]]
        assert sc.required_energy.tolist() == [5.0, 3.0]

    def test_no_sessions(self):
        sc = build_scenario([], np.full(24, 0.1), SolarSeries(np.zeros(24)), day_grid(), StationConfig())
        assert sc.required_energy.shape == (0,)
        assert sc.socket_caps.shape == (0, 24)

    @pytest.mark.parametrize("ample_grid", [False, True], ids=["congested", "ample"])
    def test_fcfs_leaves_the_demands_alone(self, ample_grid):
        # the arrays are plain and shared: the FCFS baseline counts its residuals down in a copy
        station = None if ample_grid else StationConfig(grid_capacity=5.0)
        sc = random_scenario(6, seed=2, station=station, ample_grid=ample_grid, peak_overlap=True)
        before = sc.required_energy.tobytes()
        result = run_fcfs(sc)
        assert result.allocation.sum() > 0
        assert sc.required_energy.tobytes() == before
