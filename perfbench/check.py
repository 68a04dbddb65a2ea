"""Checks of the program's outputs, computed apart from the program.

Everything here works from the input files and shares no code with chargeopt:
its own CSV reading and availability, its own sparse LPs solved by HiGHS
through scipy, its own continuous knapsack and its own feasibility checker.
Each check returns a list of problems; an empty list means the output passed.
"""

from __future__ import annotations

import csv
from dataclasses import dataclass
from datetime import datetime, timedelta
from pathlib import Path

import numpy as np
from scipy import sparse
from scipy.optimize import linprog

from gen import EFFICIENCY, SPECS, START, Spec

DT = 1.0  # hours per slot
PV_KW_PER_W_M2 = 80.0 / 1000.0 * 0.2  # the CLI's default panel area and efficiency
DEVIATION_FRACTION = 0.25
FEAS_TOL = 1e-5  # kW or kWh, scaled by (1 + magnitude)
RTOL = 1e-6  # costs and objectives


@dataclass(frozen=True)
class Instance:
    ids: list[str]
    demand: np.ndarray  # (N,) kWh
    max_power: np.ndarray  # (N,) kW
    avail: np.ndarray  # (N, T) share of each slot the car is plugged in
    price: np.ndarray  # (T,) EUR/kWh
    deviation: np.ndarray  # (T,) EUR/kWh
    solar: np.ndarray  # (T,) kW
    grid_capacity: float


def _hours(text: str) -> float:
    return (datetime.fromisoformat(text) - START).total_seconds() / 3600.0


def _series(path: Path, slots: int) -> np.ndarray:
    with open(path, newline="") as fh:
        rows = {datetime.fromisoformat(r["timestamp"]): float(r["value"]) for r in csv.DictReader(fh)}
    return np.array([rows[START + timedelta(hours=t)] for t in range(slots)])


def read_instance(inputs: Path, spec: Spec) -> Instance:
    with open(inputs / "sessions.csv", newline="") as fh:
        rows = list(csv.DictReader(fh))
    arrival = np.clip([_hours(r["connection_time"]) for r in rows], 0.0, spec.slots)
    departure = np.clip([_hours(r["disconnect_time"]) for r in rows], 0.0, spec.slots)
    t = np.arange(spec.slots)
    avail = np.clip(
        np.minimum(departure[:, None], t + 1.0) - np.maximum(arrival[:, None], t), 0.0, 1.0
    )
    price = _series(inputs / "prices.csv", spec.slots)
    return Instance(
        ids=[r["session_id"] for r in rows],
        demand=np.array([float(r["kwh_delivered"]) for r in rows]),
        max_power=np.array([float(r["max_power_kw"]) for r in rows]),
        avail=avail,
        price=price,
        deviation=DEVIATION_FRACTION * price,
        solar=PV_KW_PER_W_M2 * _series(inputs / "irradiance.csv", spec.slots),
        grid_capacity=spec.grid_capacity,
    )


# ---------------------------------------------------------------------------
# reference LPs, over the plugged-in cells only


def _cells(inst: Instance):
    ii, tt = np.nonzero(inst.avail > 0)
    return ii, tt, inst.max_power[ii] * inst.avail[ii, tt]


def reference_objective(inst: Instance, demand: np.ndarray, gamma: float | None) -> float:
    """Optimal cost of the nominal (``gamma=None``) or budgeted-robust charging LP.

    Columns: charge per plugged-in cell, solar per slot, purchase per slot,
    then for the robust form the budget dual and one deviation dual per slot.
    """
    n, T = inst.avail.shape
    ii, tt, cap = _cells(inst)
    nc = len(ii)
    s0, u0, lam, mu0 = nc, nc + T, nc + 2 * T, nc + 2 * T + 1
    nv = nc + 2 * T + (T + 1 if gamma is not None else 0)
    slots = np.arange(T)
    c = np.zeros(nv)
    c[u0:u0 + T] = inst.price * DT
    blocks = [
        # delivered energy >= demand
        (np.full(nc, -EFFICIENCY * DT), ii, np.arange(nc), -demand),
        # charging - solar <= grid capacity
        (np.concatenate([np.ones(nc), -np.ones(T)]), np.concatenate([tt, slots]),
         np.concatenate([np.arange(nc), s0 + slots]), np.full(T, inst.grid_capacity)),
        # charging - solar - purchase <= 0
        (np.concatenate([np.ones(nc), -np.ones(2 * T)]), np.concatenate([tt, slots, slots]),
         np.concatenate([np.arange(nc), s0 + slots, u0 + slots]), np.zeros(T)),
    ]
    if gamma is not None:
        c[lam] = gamma
        c[mu0:mu0 + T] = 1.0
        # deviation * dt * purchase <= deviation dual + budget dual
        blocks.append((
            np.concatenate([inst.deviation * DT, -np.ones(2 * T)]),
            np.concatenate([slots, slots, slots]),
            np.concatenate([u0 + slots, mu0 + slots, np.full(T, lam)]),
            np.zeros(T),
        ))
    data, rows, cols, rhs, base = [], [], [], [], 0
    for v, r, k, b in blocks:
        data.append(v)
        rows.append(r + base)
        cols.append(k)
        rhs.append(b)
        base += len(b)
    a = sparse.csr_matrix(
        (np.concatenate(data), (np.concatenate(rows), np.concatenate(cols))), shape=(base, nv)
    )
    upper = np.full(nv, np.inf)
    upper[:nc] = cap
    upper[s0:s0 + T] = inst.solar
    res = linprog(c, A_ub=a, b_ub=np.concatenate(rhs), bounds=np.column_stack([np.zeros(nv), upper]),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"reference LP ended with status {res.status}: {res.message}")
    return float(res.fun)


def max_total_delivery(inst: Instance) -> float:
    """Most energy (kWh) the station can deliver in total, each car capped at its demand."""
    n, T = inst.avail.shape
    ii, tt, cap = _cells(inst)
    nc = len(ii)
    slots = np.arange(T)
    a = sparse.vstack([
        sparse.csr_matrix((np.full(nc, EFFICIENCY * DT), (ii, np.arange(nc))), shape=(n, nc + T)),
        sparse.csr_matrix(
            (np.concatenate([np.ones(nc), -np.ones(T)]),
             (np.concatenate([tt, slots]), np.concatenate([np.arange(nc), nc + slots]))),
            shape=(T, nc + T),
        ),
    ]).tocsr()
    c = np.concatenate([np.full(nc, -EFFICIENCY * DT), np.zeros(T)])
    res = linprog(c, A_ub=a, b_ub=np.concatenate([inst.demand, np.full(T, inst.grid_capacity)]),
                  bounds=np.column_stack([np.zeros(nc + T), np.concatenate([cap, inst.solar])]),
                  method="highs")
    if res.status != 0:
        raise RuntimeError(f"delivery LP ended with status {res.status}: {res.message}")
    return float(-res.fun)


# ---------------------------------------------------------------------------
# knapsack, feasibility and comparison


def knapsack_premium(purchase, deviation, gamma: float) -> float:
    """Worst-case extra cost: the ``gamma`` largest exposures, the last one fractionally."""
    terms = np.sort(np.asarray(deviation) * np.maximum(purchase, 0.0) * DT)[::-1]
    whole = min(int(gamma), len(terms))
    total = float(terms[:whole].sum())
    if whole < len(terms):
        total += (gamma - whole) * float(terms[whole])
    return total


def close(a: float, b: float, rtol: float = RTOL) -> bool:
    return abs(a - b) <= rtol * (1.0 + abs(b))


def premium_mismatch(premium: float, purchase, deviation, gamma: float) -> str | None:
    own = knapsack_premium(purchase, deviation, gamma)
    return None if close(premium, own) else f"premium {premium!r}, knapsack {own!r}"


def violations(inst: Instance, demand, power, solar, purchase=None) -> list[str]:
    """Physical faults of a schedule: energy owed, socket caps x presence, grid cap,
    solar ceiling, non-negativity and (when given) purchases covering the net load."""
    out = []
    power, solar = np.asarray(power), np.asarray(solar)

    def tol(x):
        return FEAS_TOL * (1.0 + np.abs(x))

    short = demand - EFFICIENCY * DT * power.sum(axis=1)
    if np.any(short > tol(demand)):
        out.append(f"{int(np.sum(short > tol(demand)))} session(s) short of their energy")
    cap = inst.max_power[:, None] * inst.avail
    if np.any(power > cap + tol(cap)):
        out.append(f"{int(np.sum(power > cap + tol(cap)))} power(s) above socket cap x presence")
    if np.any(power < -FEAS_TOL) or np.any(solar < -FEAS_TOL):
        out.append("negative power or solar")
    net = power.sum(axis=0) - solar
    if np.any(net > inst.grid_capacity + tol(inst.grid_capacity)):
        out.append("grid capacity exceeded")
    if np.any(solar > inst.solar + tol(inst.solar)):
        out.append("solar above its ceiling")
    if purchase is not None:
        purchase = np.asarray(purchase)
        if np.any(purchase < -FEAS_TOL) or np.any(purchase < net - tol(net)):
            out.append("purchase below the net load or negative")
    return out


# ---------------------------------------------------------------------------
# per-workload checks


def effective_demand(inst: Instance, adjustments) -> tuple[np.ndarray, list[str]]:
    """Demands after the program's clamping, and whether the clamping is sound:
    only lowered, never below zero, and to a total the station can just deliver."""
    demand = inst.demand.copy()
    problems = []
    index = {sid: k for k, sid in enumerate(inst.ids)}
    for a in adjustments:
        k = index[a.session_id]
        if not close(a.required, inst.demand[k]) or not -FEAS_TOL <= a.deliverable < a.required:
            problems.append(f"unsound clamp of {a.session_id}")
        demand[k] = a.deliverable
    if adjustments:
        best = max_total_delivery(inst)
        if not close(demand.sum(), best, 1e-5):
            problems.append(f"clamped demands total {demand.sum()!r}, deliverable {best!r}")
    return demand, problems


def check_robust(inst: Instance, spec: Spec, out) -> list[str]:
    """robust-week and sweep-congested: reference objective at every budget, the
    knapsack premium, the worst-case score, feasibility, and across budgets a
    non-decreasing objective with the lowest worst case at the evaluation budget."""
    problems = []
    demand, clamp_problems = effective_demand(inst, out.adjustments[spec.gammas[0]])
    problems += clamp_problems
    worst = {}
    for gamma in spec.gammas:
        s = out.schedules[gamma]
        if out.adjustments[gamma] != out.adjustments[spec.gammas[0]]:
            problems.append(f"gamma {gamma:g}: clamping differs between budgets")
        ref = reference_objective(inst, demand, gamma)
        if not close(s.objective_value, ref):
            problems.append(f"gamma {gamma:g}: objective {s.objective_value!r}, HiGHS {ref!r}")
        mismatch = premium_mismatch(s.protection_cost, s.net_purchase, inst.deviation, gamma)
        if mismatch:
            problems.append(f"gamma {gamma:g}: {mismatch}")
        nominal = float(inst.price @ s.net_purchase) * DT
        worst[gamma] = nominal + knapsack_premium(s.net_purchase, inst.deviation, spec.eval_gamma)
        if not close(out.worst[gamma], worst[gamma]):
            problems.append(f"gamma {gamma:g}: worst case {out.worst[gamma]!r}, knapsack {worst[gamma]!r}")
        problems += [f"gamma {gamma:g}: {v}" for v in
                     violations(inst, demand, s.charging_power, s.solar_used, s.net_purchase)]
    objectives = [out.schedules[g].objective_value for g in spec.gammas]
    if any(b < a - RTOL * (1.0 + abs(a)) for a, b in zip(objectives, objectives[1:])):
        problems.append(f"robust objective decreases in gamma: {objectives}")
    least = min(worst.values())
    if worst[spec.eval_gamma] > least + RTOL * (1.0 + least):
        problems.append("the schedule solved at the evaluation budget is not the most robust")
    return problems


def check_mpc(inst: Instance, spec: Spec, out) -> list[str]:
    """mpc-month: feasibility of the applied powers, the controller's cost
    recomputed, and no cost below the offline optimum."""
    tr = out.trace
    problems = violations(inst, inst.demand, tr.applied_power, tr.applied_solar)
    draw = np.maximum(tr.applied_power.sum(axis=0) - tr.applied_solar, 0.0)
    cost = float(inst.price @ draw) * DT
    if not close(tr.total_cost, cost):
        problems.append(f"controller cost {tr.total_cost!r}, recomputed {cost!r}")
    optimum = reference_objective(inst, inst.demand, None)
    if tr.total_cost < optimum - RTOL * (1.0 + optimum):
        problems.append(f"controller cost {tr.total_cost!r} below the offline optimum {optimum!r}")
    return problems


CHECKS = {"robust-week": check_robust, "mpc-month": check_mpc, "sweep-congested": check_robust}


def self_test(inst: Instance, spec: Spec, out) -> list[str]:
    """The checkers must reject a schedule with one power past its socket cap and a
    premium off by 1e-3; returns what they failed to reject."""
    if out.trace is None:
        gamma = spec.gammas[-1]
        s = out.schedules[gamma]
        power, solar, purchase, premium = s.charging_power, s.solar_used, s.net_purchase, s.protection_cost
    else:
        # the controller prices no premium: score its purchases at the robust-week budget
        gamma = SPECS["robust-week"].gammas[0]
        power, solar = out.trace.applied_power, out.trace.applied_solar
        purchase = np.maximum(power.sum(axis=0) - solar, 0.0)
        premium = knapsack_premium(purchase, inst.deviation, gamma)
    missed = []
    bad = np.array(power, copy=True)
    i, t = np.unravel_index(np.argmax(inst.avail), inst.avail.shape)
    bad[i, t] = inst.max_power[i] * inst.avail[i, t] * 1.001 + 1e-3
    if not any("socket cap" in v for v in violations(inst, np.zeros_like(inst.demand), bad, solar)):
        missed.append("a power past its socket cap passed")
    if premium_mismatch(premium + 1e-3, purchase, inst.deviation, gamma) is None:
        missed.append("a premium off by 1e-3 passed")
    return missed
