"""First-come-first-served baseline: greedy power allocation in arrival order.

Prices play no role; each slot hands every present vehicle the most power its
socket, its remaining demand, and the station headroom allow, earlier
arrivals first (ties broken by session id).  Available solar extends the
headroom and offsets the metered grid draw.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .scenario import Scenario


@dataclass(frozen=True)
class FcfsResult:
    allocation: np.ndarray  # (N, T) kW
    unmet_energy: np.ndarray  # (N,) kWh
    cost: float  # EUR
    grid_draw: np.ndarray  # (T,) kW


def run_fcfs(sc: Scenario) -> FcfsResult:
    n, T = sc.num_sessions, sc.num_slots
    caps, kwh_per_kw = sc.socket_caps, sc.kwh_per_kw
    order = np.array(
        sorted(range(n), key=lambda i: (sc.sessions[i].arrival, sc.sessions[i].id)), dtype=int
    )
    residual = sc.required_energy.copy()
    allocation = np.zeros((n, T))
    draw = np.zeros(T)
    for t in range(T):
        headroom = sc.station.grid_capacity + sc.solar.cap[t]
        for i in order[sc.availability[order, t] > 0].tolist():
            if residual[i] <= 1e-12 or headroom <= 1e-12:
                continue
            power = min(caps[i, t], residual[i] / kwh_per_kw, headroom)
            allocation[i, t] = power
            residual[i] -= kwh_per_kw * power
            headroom -= power
        draw[t] = max(allocation[:, t].sum() - sc.solar.cap[t], 0.0)
    return FcfsResult(allocation, np.maximum(residual, 0.0), sc.energy_cost(draw), draw)
