"""Generated bad inputs: one field of the toy day mutated, run through ``cli.main``.

Each example copies ``data/toy`` and mutates one field of one file: a cell of
the sessions CSV, a field of an ACN-JSON rendering of the same sessions, or a
timestamp or value of the price or irradiance series.  ``main`` must never
raise.  It either returns 0 with only finite numbers in the report, or
returns 1 with a message naming the file, the row or item, and the field.
"""

import contextlib
import io
import json
import math
import re
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeopt.cli import main

TOY = Path(__file__).parent.parent / "data" / "toy"
ACN_FIELDS = ["sessionID", "connectionTime", "disconnectTime", "kWhDelivered", "maxPower"]
MUTATIONS = ["nan", "inf", "-inf", "", "-1", "0", "garbage", "truncated", "repeated"]
POLICIES = [["--policy", "nominal"], ["--policy", "robust", "--gamma", "6"], ["--policy", "mpc"]]


def toy_acn_items() -> list[dict]:
    """The toy sessions as ACN JSON items, numbers as numbers."""
    lines = (TOY / "sessions.csv").read_text().splitlines()[1:]
    items = []
    for line in lines:
        sid, arrival, departure, energy, power = line.split(",")
        items.append(dict(zip(ACN_FIELDS, [sid, arrival, departure, float(energy), float(power)])))
    return items


def mutate_csv(text: str, row: int, col: int, mutation: str) -> str:
    """``text`` with data row ``row`` (0 is the first after the header) mutated at ``col``."""
    lines = text.splitlines()
    data = [line.split(",") for line in lines[1:]]
    cells = data[row]
    if mutation == "truncated":
        del cells[max(col, 1):]  # a row cut to nothing is a deleted row, not a bad field
    elif mutation == "repeated":
        cells[col] = data[row - 1 if row else 1][col]
    else:
        cells[col] = mutation
    return "\n".join([lines[0]] + [",".join(c) for c in data]) + "\n"


def mutate_acn(items: list[dict], item: int, field: str, mutation: str) -> str:
    literal = {"nan": math.nan, "inf": math.inf, "-inf": -math.inf, "-1": -1, "0": 0}
    target = items[item]
    if mutation == "truncated":
        del target[field]
    elif mutation == "repeated":
        target[field] = items[item - 1 if item else 1][field]
    else:
        target[field] = literal.get(mutation, mutation)
    return json.dumps({"_items": items})


@st.composite
def mutated_toy(draw):
    """``(file name, its mutated text)`` for one mutated field of the toy day."""
    mutation = draw(st.sampled_from(MUTATIONS))
    name = draw(st.sampled_from(["sessions.csv", "sessions.json", "prices.csv", "irradiance.csv"]))
    if name == "sessions.json":
        items = toy_acn_items()
        item = draw(st.integers(0, len(items) - 1))
        return name, mutate_acn(items, item, draw(st.sampled_from(ACN_FIELDS)), mutation)
    text = (TOY / name).read_text()
    rows = len(text.splitlines()) - 1
    cols = 5 if name == "sessions.csv" else 2
    return name, mutate_csv(text, draw(st.integers(0, rows - 1)), draw(st.integers(0, cols - 1)), mutation)


@settings(derandomize=True, database=None, deadline=None, max_examples=200)
@given(case=mutated_toy(), policy=st.sampled_from(POLICIES))
def test_mutated_field_exits_0_with_finite_report_or_1_naming_it(case, policy):
    name, text = case
    with tempfile.TemporaryDirectory() as tmp:
        d = Path(tmp)
        for other in ("sessions.csv", "prices.csv", "irradiance.csv"):
            (d / other).write_text((TOY / other).read_text())
        (d / name).write_text(text)
        sessions = "sessions.json" if name == "sessions.json" else "sessions.csv"
        out = d / "r.json"
        argv = [
            "simulate", "--sessions", str(d / sessions), "--prices", str(d / "prices.csv"),
            "--irradiance", str(d / "irradiance.csv"), "--start", "2019-06-03T00:00:00Z",
            "--hours", "24", "--grid-capacity", "3", *policy, "--out", str(out),
        ]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(argv)
        if code == 0:
            # json writes a non-finite number as NaN, Infinity or -Infinity
            json.loads(out.read_text(), parse_constant=lambda c: pytest.fail(f"report holds {c}"))
        else:
            assert code == 1
            message = err.getvalue().strip().splitlines()[-1]
            assert re.search(rf"{re.escape(name)} (row|item) \d+, field '\w+': ", message), message
