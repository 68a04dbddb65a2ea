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
from dataclasses import dataclass
from datetime import datetime, timedelta, timezone
from email.utils import parsedate_to_datetime
from pathlib import Path

import numpy as np


class ScenarioError(Exception):
    """Bad or inconsistent input data."""


def parse_timestamp(text: str) -> datetime:
    """Parse an ISO-8601 or RFC-1123 timestamp string; naive values are taken as UTC."""
    if not isinstance(text, str):
        raise ScenarioError(f"expected a timestamp string, got {text!r}")
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
        try:
            self.end
        except OverflowError:
            raise ScenarioError(
                f"time grid ends after year 9999: start {_iso(self.start)}, "
                f"{self.num_slots} slots, slot_hours {self.slot_hours!r}"
            ) from None

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
        # inf is an unlimited grid connection; nan fails every comparison
        if not self.grid_capacity > 0:
            raise ScenarioError(f"grid_capacity must be positive, got {self.grid_capacity!r}")
        for name in ("charge_efficiency", "pv_efficiency"):
            if not 0 < getattr(self, name) <= 1:
                raise ScenarioError(f"{name} must lie in (0, 1], got {getattr(self, name)!r}")
        if not 0 <= self.pv_area < math.inf:
            raise ScenarioError(f"pv_area must be finite and nonnegative, got {self.pv_area!r}")
        if not 0 < self.default_max_power < math.inf:
            raise ScenarioError(
                f"default_max_power must be finite and positive, got {self.default_max_power!r}"
            )


@dataclass(frozen=True)
class DeviationRule:
    """Per-slot price deviation bounds as a fraction of the nominal prices."""

    fraction: float = 0.25

    @classmethod
    def proportional(cls, fraction: float) -> "DeviationRule":
        if not 0 <= fraction < math.inf:
            raise ScenarioError(
                f"deviation_fraction must be finite and nonnegative, got {fraction!r}"
            )
        return cls(fraction=fraction)


@dataclass(frozen=True)
class Scenario:
    """Immutable bundle of everything one optimization or simulation run needs.

    ``sessions`` are the records as parsed; the solve reads the arrays.
    ``availability[i, t]`` is the fraction of slot ``t`` during which session
    ``i`` is plugged in.  A demand clamp or an MPC window replaces
    ``required_energy``, never a record.
    """

    grid: TimeGrid
    prices: PriceSeries
    solar: SolarSeries
    station: StationConfig
    sessions: tuple[ChargingSession, ...]
    availability: np.ndarray  # (N, T)
    required_energy: np.ndarray  # (N,) kWh
    max_power: np.ndarray  # (N,) kW

    @property
    def num_sessions(self) -> int:
        return len(self.sessions)

    @property
    def num_slots(self) -> int:
        return self.grid.num_slots

    @property
    def socket_caps(self) -> np.ndarray:
        """Each cell's power ceiling ``max_power * availability``, kW, shape ``(N, T)``."""
        return self.max_power[:, None] * self.availability

    @property
    def kwh_per_kw(self) -> float:
        """Energy one kW stores over one slot: ``charge_efficiency * slot_hours``."""
        return self.station.charge_efficiency * self.grid.slot_hours

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
    prices = PriceSeries(nominal, rule.fraction * nominal)
    sessions = tuple(sessions)
    avail = availability_matrix(sessions, grid)
    for i, sess in enumerate(sessions):
        if avail[i].sum() <= 0.0:
            raise ScenarioError(f"session {sess.id} does not overlap the time grid")
    required = np.array([s.required_energy for s in sessions], dtype=float)
    max_power = np.array([s.max_power for s in sessions], dtype=float)
    return Scenario(grid, prices, solar, station, sessions, avail, required, max_power)


# ---------------------------------------------------------------------------
# input fields


def _nonnegative(raw) -> float:
    """A finite, nonnegative amount: an energy or a series value."""
    if isinstance(raw, bool):  # JSON true and false are not amounts
        raise ScenarioError(f"expected a number, got {raw!r}")
    value = float(raw)
    if not math.isfinite(value):
        raise ScenarioError(f"non-finite {raw!r}")
    if value < 0:
        raise ScenarioError(f"negative {raw!r}")
    return value


def _positive(raw) -> float:
    """A finite, positive amount: a socket's power."""
    value = _nonnegative(raw)
    if value == 0:
        raise ScenarioError(f"non-positive {raw!r}")
    return value


# the cast of every session and series field
_CASTS = {
    "arrival": parse_timestamp,
    "departure": parse_timestamp,
    "energy": _nonnegative,
    "power": _positive,
    "timestamp": parse_timestamp,
    "value": _nonnegative,
}


def _blank(raw) -> bool:
    return raw is None or (isinstance(raw, str) and not raw.strip())


def _field(where: str, name: str, raw, cast):
    """``cast(raw)``, the typed value of one input field; a missing, unreadable or
    out-of-range value raises ``ScenarioError("<where>, field '<name>': <problem>")``."""
    if _blank(raw):
        raise ScenarioError(f"{where}, field {name!r}: missing")
    try:
        return cast(raw)
    except (ScenarioError, ValueError, TypeError, OverflowError) as exc:
        raise ScenarioError(f"{where}, field {name!r}: {exc}") from exc


def _csv_rows(path) -> list[tuple[int, list[str]]]:
    """A UTF-8 CSV file's rows, numbered from 1, without blank rows or a byte-order mark."""
    try:
        with open(path, newline="", encoding="utf-8-sig") as fh:
            rows = list(csv.reader(fh))
    except (ValueError, csv.Error) as exc:  # not text, or not CSV
        raise ScenarioError(f"{path}: {exc}") from exc
    return [(num, row) for num, row in enumerate(rows, start=1) if not all(map(_blank, row))]


# ---------------------------------------------------------------------------
# session files

# each session field by its name in CSV messages: its CSV header aliases and its ACN JSON key
_SESSION_FIELDS = {
    "session_id": (("session_id", "id", "sessionid"), "sessionID"),
    "arrival": (("connection_time", "arrival", "connectiontime", "start"), "connectionTime"),
    "departure": (("disconnect_time", "departure", "disconnecttime", "end"), "disconnectTime"),
    "energy": (
        ("kwh_delivered", "energy_kwh", "kwhdelivered", "required_kwh", "kwh"), "kWhDelivered"
    ),
    "power": (("max_power_kw", "max_power", "maxpower"), "maxPower"),
}
_REQUIRED = ("arrival", "departure", "energy")


@dataclass
class SessionParseReport:
    """Row-level diagnostics from :func:`parse_sessions`."""

    rejected: list[tuple[int, str]] = dataclasses.field(default_factory=list)
    dropped_outside_window: int = 0
    defaulted_power: int = 0


def _pick_column(path, header, key):
    """The column of ``header`` that names field ``key``, or ``None``; two such columns are an
    input error."""
    cols = [c for c, name in enumerate(header) if name.strip().lower() in _SESSION_FIELDS[key][0]]
    if len(cols) > 1:
        a, b = cols[:2]
        raise ScenarioError(
            f"{path}: header names field {key!r} twice: {header[a].strip()!r} (column {a + 1}) "
            f"and {header[b].strip()!r} (column {b + 1})"
        )
    return cols[0] if cols else None


def parse_sessions(path, grid: TimeGrid, station: StationConfig):
    """Read sessions from CSV or ACN-style JSON, clipped to the grid window.

    Returns ``(sessions, report)``.  Rows whose departure does not follow the
    arrival are rejected: ``report.rejected`` holds each one's number and
    reason, and nothing is printed.  A missing, unreadable or out-of-range
    field, and a repeated session ID, raise :class:`ScenarioError` naming the
    file, the row (CSV) or item (JSON) and the field.  Sessions entirely
    outside the window are dropped; a missing per-session power falls back to
    ``station.default_max_power``.
    """
    path = Path(path)
    acn = path.suffix.lower() == ".json"
    unit, records = ("item", _read_acn_json(path)) if acn else ("row", _read_session_csv(path))
    names = {key: fields[1] if acn else key for key, fields in _SESSION_FIELDS.items()}

    report = SessionParseReport()
    sessions = []
    first: dict[str, int] = {}
    for num, raw in records:
        where = f"{path} {unit} {num}"
        sid = f"{unit}{num}" if _blank(raw["session_id"]) else str(raw["session_id"])
        if sid in first:
            raise ScenarioError(
                f"{where}, field {names['session_id']!r}: duplicate {sid!r} "
                f"(first on {unit} {first[sid]})"
            )
        first[sid] = num
        arrival, departure, energy = (_field(where, names[k], raw[k], _CASTS[k]) for k in _REQUIRED)
        if _blank(raw["power"]):
            power = station.default_max_power
            report.defaulted_power += 1
        else:
            power = _field(where, names["power"], raw["power"], _CASTS["power"])
        if departure <= arrival:
            reason = f"{unit} {num}: departure {_iso(departure)} not after arrival"
            report.rejected.append((num, reason))
            continue
        arrival, departure = max(arrival, grid.start), min(departure, grid.end)
        if departure <= arrival:
            report.dropped_outside_window += 1
            continue
        sessions.append(ChargingSession(sid, arrival, departure, energy, power))
    return sessions, report


def _read_session_csv(path: Path):
    """``(row number, {field: raw cell or None})`` for each data row."""
    rows = _csv_rows(path)
    if not rows:
        raise ScenarioError(f"{path}: empty session file")
    cols = {key: _pick_column(path, rows[0][1], key) for key in _SESSION_FIELDS}
    for key in _REQUIRED:
        if cols[key] is None:
            raise ScenarioError(f"{path}: missing required column for {key!r}")
    return [
        (num, {key: row[c] if c is not None and c < len(row) else None for key, c in cols.items()})
        for num, row in rows[1:]
    ]


def _read_acn_json(path: Path):
    """``(item number, {field: raw value or None})`` per item of a UTF-8 file, BOM or not."""
    try:
        with open(path, encoding="utf-8-sig") as fh:
            payload = json.load(fh)
    except ValueError as exc:  # not text, or not JSON
        raise ScenarioError(f"{path}: {exc}") from exc
    items = payload.get("_items", payload) if isinstance(payload, dict) else payload
    if not isinstance(items, list):
        raise ScenarioError(f"{path}: expected a JSON list or an object with '_items'")
    out = []
    for k, item in enumerate(items, start=1):
        if not isinstance(item, dict):
            raise ScenarioError(f"{path} item {k}: expected an object, got {type(item).__name__}")
        out.append((k, {key: item.get(acn) for key, (_, acn) in _SESSION_FIELDS.items()}))
    return out


# ---------------------------------------------------------------------------
# price and irradiance files

_PRICE_UNITS = {"eur/kwh": 1.0, "eur/mwh": 1e-3}


def read_series_csv(path, grid: TimeGrid) -> np.ndarray:
    """Read a two-column (timestamp, value) CSV aligned to the grid.

    Source rows are hourly, each timestamp on the hour; each slot takes the
    value whose timestamp equals the slot start truncated to the hour.  Values
    are finite and nonnegative.  A first row whose timestamp does not parse is
    a header.  Any uncovered slot, and any timestamp given twice or off the
    hour, is an error.
    """
    values: dict[datetime, tuple[int, float]] = {}  # row number and value by timestamp
    rows = _csv_rows(path)
    for num, row in rows:
        where = f"{path} row {num}"
        raw = dict(zip(("timestamp", "value"), row))
        try:
            ts = _field(where, "timestamp", raw.get("timestamp"), _CASTS["timestamp"])
        except ScenarioError:
            if num == rows[0][0]:
                continue  # header line
            raise
        if ts.minute or ts.second or ts.microsecond:
            raise ScenarioError(f"{where}, field 'timestamp': {_iso(ts)} is not on the hour")
        if ts in values:
            raise ScenarioError(
                f"{where}, field 'timestamp': duplicate {_iso(ts)} (first on row {values[ts][0]})"
            )
        values[ts] = num, _field(where, "value", raw.get("value"), _CASTS["value"])
    starts = [grid.slot_start(t) for t in range(grid.num_slots)]
    hours = [ts.replace(minute=0, second=0, microsecond=0) for ts in starts]
    missing = [_iso(hour) for hour in hours if hour not in values]
    if missing:
        shown = ", ".join(missing[:5]) + ("..." if len(missing) > 5 else "")
        raise ScenarioError(f"{path}: no data for {len(missing)} slot(s): {shown}")
    return np.array([values[hour][1] for hour in hours])


def price_scale(units: str) -> float:
    """EUR/kWh per unit of a price in ``units``: EUR/kWh or EUR/MWh, in any case."""
    scale = _PRICE_UNITS.get(units.strip().lower())
    if scale is None:
        raise ScenarioError(f"unknown price units {units!r} (use EUR/kWh or EUR/MWh)")
    return scale


def parse_prices(path, grid: TimeGrid, source_units: str = "EUR/kWh") -> np.ndarray:
    """Per-slot nominal prices in EUR/kWh; EUR/MWh sources are divided by 1000."""
    return read_series_csv(path, grid) * price_scale(source_units)


def parse_irradiance(path, grid: TimeGrid) -> np.ndarray:
    """Per-slot solar irradiance in W/m^2."""
    return read_series_csv(path, grid)


def pv_cap(irradiance, station: StationConfig) -> SolarSeries:
    """Usable PV power ceiling: ``area * irradiance/1000 * panel_efficiency`` (kW)."""
    irr = np.asarray(irradiance, dtype=float)
    if np.any(irr < 0):
        raise ValueError("irradiance must be nonnegative")
    return SolarSeries(station.pv_area * irr / 1000.0 * station.pv_efficiency)
