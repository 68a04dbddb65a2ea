"""Input ingestion and the immutable scenario bundle.

Reads charging sessions (CSV or the ACN JSON export layout), hourly price and
irradiance series (two-column CSV: ISO-8601 UTC timestamp, value), aligns
everything on a common time grid, and assembles a :class:`Scenario` with the
per-session availability matrix.  All timestamps are UTC; naive inputs are
taken as UTC.
"""

from __future__ import annotations

import csv
import dataclasses
import json
import math
import sys
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from email.utils import parsedate_to_datetime
from pathlib import Path

import numpy as np


class ScenarioError(Exception):
    """Bad or inconsistent input data."""


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 or RFC-1123 timestamp; naive values are taken as UTC."""
    text = text.strip()
    try:
        ts = datetime.fromisoformat(text.replace("Z", "+00:00"))
    except ValueError:
        try:
            ts = parsedate_to_datetime(text)
        except (TypeError, ValueError) as exc:
            raise ScenarioError(f"unparsable timestamp {text!r}") from exc
    if ts.tzinfo is None:
        return ts.replace(tzinfo=timezone.utc)
    return ts.astimezone(timezone.utc)


def _iso(ts: datetime) -> str:
    return ts.astimezone(timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


@dataclass(frozen=True)
class TimeGrid:
    """Uniform slot grid: ``num_slots`` slots of ``slot_hours`` starting at ``start`` (UTC)."""

    start: datetime
    num_slots: int
    slot_hours: float = 1.0

    def __post_init__(self):
        if self.num_slots < 1:
            raise ScenarioError("time grid needs at least one slot")
        if not 0 < self.slot_hours < math.inf:
            raise ScenarioError(f"slot_hours must be finite and positive, got {self.slot_hours!r}")
        if self.start.tzinfo is None:
            object.__setattr__(self, "start", self.start.replace(tzinfo=timezone.utc))

    @property
    def end(self) -> datetime:
        return self.start + timedelta(hours=self.num_slots * self.slot_hours)

    def slot_start(self, t: int) -> datetime:
        return self.start + timedelta(hours=t * self.slot_hours)


@dataclass(frozen=True)
class ChargingSession:
    """One EV plug-in interval with its energy requirement and socket limit."""

    id: str
    arrival: datetime
    departure: datetime
    required_energy: float  # kWh
    max_power: float  # kW

    def __post_init__(self):
        if self.departure <= self.arrival:
            raise ScenarioError(f"session {self.id}: departure not after arrival")
        if not (math.isfinite(self.required_energy) and math.isfinite(self.max_power)):
            raise ScenarioError(
                f"session {self.id}: non-finite required energy or max power "
                f"({self.required_energy!r} kWh, {self.max_power!r} kW)"
            )
        if self.required_energy < 0:
            raise ScenarioError(f"session {self.id}: negative required energy")
        if self.max_power <= 0:
            raise ScenarioError(f"session {self.id}: non-positive max power")


@dataclass(frozen=True)
class PriceSeries:
    """Per-slot nominal price and its deviation bound, both EUR/kWh."""

    nominal: np.ndarray
    deviation_bound: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "nominal", np.asarray(self.nominal, dtype=float))
        object.__setattr__(
            self, "deviation_bound", np.asarray(self.deviation_bound, dtype=float)
        )
        if self.nominal.shape != self.deviation_bound.shape:
            raise ScenarioError("price series length mismatch")
        for name, values in (("price", self.nominal), ("deviation bound", self.deviation_bound)):
            bad = np.flatnonzero(~np.isfinite(values))
            if len(bad):
                raise ScenarioError(f"slot {bad[0]}: non-finite {name} {float(values[bad[0]])!r}")
        if np.any(self.nominal < 0) or np.any(self.deviation_bound < 0):
            raise ScenarioError("prices and deviation bounds must be nonnegative")


@dataclass(frozen=True)
class SolarSeries:
    """Per-slot usable PV output ceiling, kW."""

    cap: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "cap", np.asarray(self.cap, dtype=float))
        bad = np.flatnonzero(~((self.cap >= 0) & (self.cap < math.inf)))
        if len(bad):
            raise ScenarioError(
                f"slot {bad[0]}: solar cap must be finite and nonnegative, "
                f"got {float(self.cap[bad[0]])!r}"
            )


@dataclass(frozen=True)
class StationConfig:
    """Site constants; defaults follow the reference charging-station setup."""

    grid_capacity: float = 300.0  # kW
    charge_efficiency: float = 0.9
    pv_efficiency: float = 0.2
    pv_area: float = 80.0  # m^2
    default_max_power: float = 86.0  # kW, fallback socket limit per session

    def __post_init__(self):
        # inf is an unlimited grid connection or socket; nan fails every comparison
        if not self.grid_capacity > 0:
            raise ScenarioError(f"grid_capacity must be positive, got {self.grid_capacity!r}")
        if not 0 < self.charge_efficiency <= 1:
            raise ScenarioError("charge efficiency must lie in (0, 1]")
        if not 0 < self.pv_efficiency <= 1:
            raise ScenarioError("PV efficiency must lie in (0, 1]")
        if not 0 <= self.pv_area < math.inf:
            raise ScenarioError(f"pv_area must be finite and nonnegative, got {self.pv_area!r}")
        if not self.default_max_power > 0:
            raise ScenarioError(
                f"default_max_power must be positive, got {self.default_max_power!r}"
            )


@dataclass(frozen=True)
class DeviationRule:
    """How to derive per-slot price deviation bounds from nominal prices."""

    fraction: float | None = 0.25
    absolute: np.ndarray | float | None = None

    @classmethod
    def proportional(cls, fraction: float) -> "DeviationRule":
        if not 0 <= fraction < math.inf:
            raise ScenarioError(
                f"deviation_fraction must be finite and nonnegative, got {fraction!r}"
            )
        return cls(fraction=fraction, absolute=None)

    @classmethod
    def fixed(cls, bound) -> "DeviationRule":
        return cls(fraction=None, absolute=bound)

    def bounds_for(self, nominal: np.ndarray) -> np.ndarray:
        if self.absolute is not None:
            return np.broadcast_to(
                np.asarray(self.absolute, dtype=float), nominal.shape
            ).copy()
        return self.fraction * nominal


@dataclass(frozen=True)
class Scenario:
    """Immutable bundle of everything one optimization or simulation run needs.

    ``availability[i, t]`` is the fraction of slot ``t`` during which session
    ``i`` is plugged in; its session's usable power in that slot is
    ``max_power * availability[i, t]``.
    """

    grid: TimeGrid
    prices: PriceSeries
    solar: SolarSeries
    station: StationConfig
    sessions: tuple[ChargingSession, ...]
    availability: np.ndarray

    @property
    def num_sessions(self) -> int:
        return len(self.sessions)

    @property
    def num_slots(self) -> int:
        return self.grid.num_slots

    def energy_cost(self, draw) -> float:
        """Cost (EUR) of a per-slot grid draw (kW) at the nominal prices."""
        return float(self.prices.nominal @ draw) * self.grid.slot_hours


def availability_matrix(sessions, grid: TimeGrid) -> np.ndarray:
    """Fraction of each slot each session is plugged in, shape ``(len(sessions), num_slots)``.

    Works on integer microsecond offsets from ``grid.start``: slot edges come
    from :meth:`TimeGrid.slot_start`, so fractional slot lengths round as
    ``timedelta`` does, and ``us / 1e6 / 3600 / slot_hours`` rounds as
    ``timedelta.total_seconds()`` followed by the same divisions.
    """
    us = timedelta(microseconds=1)
    edges = np.array(
        [(grid.slot_start(t) - grid.start) // us for t in range(grid.num_slots + 1)],
        dtype=np.int64,
    )
    arrive = np.array([(s.arrival - grid.start) // us for s in sessions], dtype=np.int64)
    depart = np.array([(s.departure - grid.start) // us for s in sessions], dtype=np.int64)
    overlap = np.minimum(depart[:, None], edges[None, 1:])
    overlap -= np.maximum(arrive[:, None], edges[None, :-1])
    np.maximum(overlap, 0, out=overlap)
    a = overlap / 1e6
    a /= 3600.0
    a /= grid.slot_hours
    return a


def build_scenario(
    sessions,
    nominal_prices,
    solar: SolarSeries,
    grid: TimeGrid,
    station: StationConfig,
    deviation_rule: DeviationRule | None = None,
) -> Scenario:
    """Assemble and validate a :class:`Scenario`.

    Every session must overlap the grid window (use :func:`parse_sessions`
    to clip raw data first).  Deviation bounds come from ``deviation_rule``
    (default: proportional at 0.25).
    """
    nominal = np.asarray(nominal_prices, dtype=float)
    if nominal.shape != (grid.num_slots,):
        raise ScenarioError(
            f"price series has length {nominal.shape}, grid has {grid.num_slots} slots"
        )
    if solar.cap.shape != (grid.num_slots,):
        raise ScenarioError(
            f"solar series has length {solar.cap.shape}, grid has {grid.num_slots} slots"
        )
    rule = deviation_rule if deviation_rule is not None else DeviationRule()
    prices = PriceSeries(nominal, rule.bounds_for(nominal))
    sessions = tuple(sessions)
    avail = availability_matrix(sessions, grid)
    for i, sess in enumerate(sessions):
        if avail[i].sum() <= 0.0:
            raise ScenarioError(f"session {sess.id} does not overlap the time grid")
    return Scenario(grid, prices, solar, station, sessions, avail)


def without_solar(sc: Scenario) -> Scenario:
    """Copy of ``sc`` with the PV ceiling zeroed (grid-only comparison)."""
    return dataclasses.replace(sc, solar=SolarSeries(np.zeros(sc.num_slots)))


# ---------------------------------------------------------------------------
# session files

_SESSION_HEADERS = {
    "id": ("session_id", "id", "sessionid"),
    "arrival": ("connection_time", "arrival", "connectiontime", "start"),
    "departure": ("disconnect_time", "departure", "disconnecttime", "end"),
    "energy": ("kwh_delivered", "energy_kwh", "kwhdelivered", "required_kwh", "kwh"),
    "power": ("max_power_kw", "max_power", "maxpower"),
}


@dataclass
class SessionParseReport:
    """Row-level diagnostics from :func:`parse_sessions`."""

    rejected: list[tuple[int, str]] = dataclasses.field(default_factory=list)
    dropped_outside_window: int = 0
    defaulted_power: int = 0


def _pick_column(fieldnames, key):
    lowered = {name.strip().lower(): name for name in fieldnames}
    for alias in _SESSION_HEADERS[key]:
        if alias in lowered:
            return lowered[alias]
    return None


def _clip_session(sess: ChargingSession, grid: TimeGrid):
    arrival = max(sess.arrival, grid.start)
    departure = min(sess.departure, grid.end)
    if departure <= arrival:
        return None
    return dataclasses.replace(sess, arrival=arrival, departure=departure)


def parse_sessions(path, grid: TimeGrid, station: StationConfig):
    """Read sessions from CSV or ACN-style JSON, clipped to the grid window.

    Returns ``(sessions, report)``.  Rows whose departure does not follow the
    arrival are rejected (counted in the report, echoed to stderr); rows that
    cannot be parsed at all, or that repeat an earlier session ID, raise
    :class:`ScenarioError` naming the row and field.  Sessions entirely
    outside the window are dropped; a missing per-session power column falls
    back to ``station.default_max_power``.
    """
    path = Path(path)
    if path.suffix.lower() == ".json":
        raw = _read_acn_json(path)
    else:
        raw = _read_session_csv(path)

    report = SessionParseReport()
    sessions = []
    first_row: dict[str, int] = {}
    for row_num, rec in raw:
        if rec["id"] in first_row:
            raise ScenarioError(
                f"{path} row {row_num}, field 'session_id': duplicate {rec['id']!r} "
                f"(first on row {first_row[rec['id']]})"
            )
        first_row[rec["id"]] = row_num
        if rec["power"] is None:
            rec["power"] = station.default_max_power
            report.defaulted_power += 1
        if rec["departure"] <= rec["arrival"]:
            reason = f"row {row_num}: departure {_iso(rec['departure'])} not after arrival"
            report.rejected.append((row_num, reason))
            print(f"warning: {reason}", file=sys.stderr)
            continue
        sess = ChargingSession(
            id=rec["id"],
            arrival=rec["arrival"],
            departure=rec["departure"],
            required_energy=rec["energy"],
            max_power=rec["power"],
        )
        clipped = _clip_session(sess, grid)
        if clipped is None:
            report.dropped_outside_window += 1
            continue
        sessions.append(clipped)
    return sessions, report


def _finite_float(value, field: str | None = None) -> float:
    """``float(value)``, rejecting nan and inf; ``field`` prefixes the message."""
    out = float(value)
    if not math.isfinite(out):
        where = f"field {field!r}: " if field else ""
        raise ScenarioError(f"{where}non-finite {value!r}")
    return out


def _read_session_csv(path: Path):
    out = []
    with open(path, newline="") as fh:
        reader = csv.DictReader(fh)
        if reader.fieldnames is None:
            raise ScenarioError(f"{path}: empty session file")
        cols = {key: _pick_column(reader.fieldnames, key) for key in _SESSION_HEADERS}
        for key in ("arrival", "departure", "energy"):
            if cols[key] is None:
                raise ScenarioError(f"{path}: missing required column for {key!r}")
        for row_num, row in enumerate(reader, start=2):
            rec = {}
            rec["id"] = (row.get(cols["id"]) or f"row{row_num}") if cols["id"] else f"row{row_num}"
            for key, cast in (("arrival", parse_timestamp), ("departure", parse_timestamp)):
                try:
                    rec[key] = cast(row[cols[key]])
                except (ScenarioError, ValueError, TypeError) as exc:
                    raise ScenarioError(f"{path} row {row_num}, field {key!r}: {exc}") from exc
            try:
                rec["energy"] = _finite_float(row[cols["energy"]])
            except (ScenarioError, ValueError, TypeError) as exc:
                raise ScenarioError(f"{path} row {row_num}, field 'energy': {exc}") from exc
            rec["power"] = None
            if cols["power"] and row.get(cols["power"], "").strip():
                try:
                    rec["power"] = _finite_float(row[cols["power"]])
                except (ScenarioError, ValueError) as exc:
                    raise ScenarioError(f"{path} row {row_num}, field 'power': {exc}") from exc
            out.append((row_num, rec))
    return out


def _read_acn_json(path: Path):
    with open(path) as fh:
        payload = json.load(fh)
    items = payload.get("_items", payload) if isinstance(payload, dict) else payload
    if not isinstance(items, list):
        raise ScenarioError(f"{path}: expected a JSON list or an object with '_items'")
    out = []
    for k, item in enumerate(items, start=1):
        try:
            rec = {
                "id": str(item.get("sessionID", f"item{k}")),
                "arrival": parse_timestamp(item["connectionTime"]),
                "departure": parse_timestamp(item["disconnectTime"]),
                "energy": _finite_float(item["kWhDelivered"], "kWhDelivered"),
                "power": (
                    _finite_float(item["maxPower"], "maxPower")
                    if item.get("maxPower") is not None
                    else None
                ),
            }
        except KeyError as exc:
            raise ScenarioError(f"{path} item {k}: missing field {exc}") from exc
        except (ScenarioError, ValueError, TypeError) as exc:
            raise ScenarioError(f"{path} item {k}: {exc}") from exc
        out.append((k, rec))
    return out


def write_sessions_csv(sessions, path):
    """Serialize sessions in the CSV layout :func:`parse_sessions` reads."""
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(
            ["session_id", "connection_time", "disconnect_time", "kwh_delivered", "max_power_kw"]
        )
        for s in sessions:
            writer.writerow(
                [s.id, _iso(s.arrival), _iso(s.departure), repr(s.required_energy), repr(s.max_power)]
            )


# ---------------------------------------------------------------------------
# price and irradiance files

_PRICE_UNITS = {"eur/kwh": 1.0, "eur/mwh": 1e-3}


def read_series_csv(path, grid: TimeGrid) -> np.ndarray:
    """Read a two-column (timestamp, value) CSV aligned to the grid.

    Source rows are hourly; each slot takes the value whose timestamp equals
    the slot start truncated to the hour.  Any uncovered slot, and any
    timestamp given twice, is an error.
    """
    values: dict[datetime, float] = {}
    first_row: dict[datetime, int] = {}
    with open(path, newline="") as fh:
        for row_num, row in enumerate(csv.reader(fh), start=1):
            if not row or not row[0].strip():
                continue
            try:
                ts = parse_timestamp(row[0])
            except ScenarioError:
                if row_num == 1:
                    continue  # header line
                raise ScenarioError(f"{path} row {row_num}: unparsable timestamp {row[0]!r}")
            if ts in first_row:
                raise ScenarioError(
                    f"{path} row {row_num}, field 'timestamp': duplicate {_iso(ts)} "
                    f"(first on row {first_row[ts]})"
                )
            first_row[ts] = row_num
            try:
                values[ts] = float(row[1])
            except (ValueError, IndexError) as exc:
                raise ScenarioError(f"{path} row {row_num}: bad value") from exc
            if not math.isfinite(values[ts]):
                raise ScenarioError(f"{path} row {row_num}, field 'value': non-finite {row[1]!r}")
    out = np.empty(grid.num_slots)
    missing = []
    for t in range(grid.num_slots):
        key = grid.slot_start(t).replace(minute=0, second=0, microsecond=0)
        if key not in values:
            missing.append(_iso(key))
            continue
        out[t] = values[key]
    if missing:
        shown = ", ".join(missing[:5]) + ("..." if len(missing) > 5 else "")
        raise ScenarioError(f"{path}: no data for {len(missing)} slot(s): {shown}")
    return out


def parse_prices(path, grid: TimeGrid, source_units: str = "EUR/kWh") -> np.ndarray:
    """Per-slot nominal prices in EUR/kWh; EUR/MWh sources are divided by 1000."""
    key = source_units.strip().lower()
    if key not in _PRICE_UNITS:
        raise ScenarioError(f"unknown price units {source_units!r} (use EUR/kWh or EUR/MWh)")
    prices = read_series_csv(path, grid) * _PRICE_UNITS[key]
    if np.any(prices < 0):
        raise ScenarioError(f"{path}: negative prices are not supported")
    return prices


def parse_irradiance(path, grid: TimeGrid) -> np.ndarray:
    """Per-slot solar irradiance in W/m^2."""
    irr = read_series_csv(path, grid)
    if np.any(irr < 0):
        raise ScenarioError(f"{path}: negative irradiance")
    return irr


def write_series_csv(path, grid: TimeGrid, values):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["timestamp", "value"])
        for t, v in enumerate(values):
            writer.writerow([_iso(grid.slot_start(t)), repr(float(v))])


def pv_cap(irradiance, station: StationConfig) -> SolarSeries:
    """Usable PV power ceiling: ``area * irradiance/1000 * panel_efficiency`` (kW)."""
    irr = np.asarray(irradiance, dtype=float)
    if np.any(irr < 0):
        raise ValueError("irradiance must be nonnegative")
    return SolarSeries(station.pv_area * irr / 1000.0 * station.pv_efficiency)
