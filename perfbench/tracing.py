"""Per-layer self time and counts, recorded from outside the program.

The traced run replaces chargeopt's public functions by wrappers at every
module attribute through which they are called, so the program's source stays
as it is.  A layer's self time is the time its spans were open minus the time
their child spans were open; a count is exact.  The untraced run uses a
disabled tracer, whose ``span`` is a no-op and which patches nothing.
"""

from __future__ import annotations

import contextlib
import functools
import time
from collections import defaultdict

import chargeopt.fcfs
import chargeopt.lp
import chargeopt.model
import chargeopt.mpc
import chargeopt.scenario
import chargeopt.uncertainty

# Reported names, in output order: "<layer>_s" is busy self time, the rest are counts.
TIMES = (
    "scenario.parse", "scenario.build", "fcfs.run", "model.demand_policy", "model.build",
    "model.extract", "lp.solve", "lp.check", "uncertainty.score", "mpc.loop", "reports.write",
)
COUNTS = (
    "scenario.build_calls", "model.demand_policy_calls", "model.clamped_sessions",
    "lp.solve_calls", "lp.iterations", "lp.rows", "lp.cols", "lp.nonzeros",
    "mpc.resolves", "mpc.window_slots",
)


def _count_solve(args, sol):
    lp = args[0]
    return {
        "lp.solve_calls": 1,
        "lp.iterations": sol.iterations,
        "lp.rows": len(lp.constraints),
        "lp.cols": lp.num_vars,
        "lp.nonzeros": sum(len(c.indices) for c in lp.constraints),
    }


def _count_build(args, sc):
    return {"scenario.build_calls": 1}


def _count_policy(args, result):
    return {"model.demand_policy_calls": 1, "model.clamped_sessions": len(result[1])}


def _count_online(args, trace):
    return {
        "mpc.resolves": len(trace.solve_events),
        "mpc.window_slots": sum(e.horizon_slots for e in trace.solve_events),
    }


# (module, attribute, layer, counter); a function imported into several modules
# is wrapped at each of them, because callers look it up where they live.
# Ingestion ("scenario.parse") and report writing ("reports.write") are spans
# the operations open around their own calls.
WRAPPED = (
    (chargeopt.scenario, "build_scenario", "scenario.build", _count_build),
    (chargeopt.mpc, "build_scenario", "scenario.build", _count_build),
    (chargeopt.fcfs, "run_fcfs", "fcfs.run", None),
    (chargeopt.model, "apply_demand_policy", "model.demand_policy", _count_policy),
    (chargeopt.model, "max_delivery", "model.demand_policy", None),
    (chargeopt.model, "build_nominal_lp", "model.build", None),
    (chargeopt.model, "build_robust_lp", "model.build", None),
    (chargeopt.model, "extract_schedule", "model.extract", None),
    (chargeopt.model, "solve_lp", "lp.solve", _count_solve),
    (chargeopt.uncertainty, "solve_lp", "lp.solve", _count_solve),
    (chargeopt.lp, "check_point", "lp.check", None),
    (chargeopt.uncertainty, "worst_case_total_cost", "uncertainty.score", None),
    (chargeopt.mpc, "run_online", "mpc.loop", _count_online),
    (chargeopt.mpc, "write_events_csv", "reports.write", None),
)


class Tracer:
    """Span and counter store for one process; ``enabled=False`` records nothing."""

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.busy: dict[str, float] = defaultdict(float)
        self.counts: dict[str, int] = defaultdict(int)
        self._open: list[float] = []  # child time of each open span

    def span(self, layer: str):
        if not self.enabled:
            return contextlib.nullcontext()
        return self._span(layer)

    @contextlib.contextmanager
    def _span(self, layer):
        self._open.append(0.0)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            took = time.perf_counter() - t0
            self.busy[layer] += took - self._open.pop()
            if self._open:
                self._open[-1] += took

    def _wrap(self, fn, layer, counter):
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(layer):
                result = fn(*args, **kwargs)
            if counter is not None:
                # counting is tracer work: keep it out of the enclosing span's self time
                t0 = time.perf_counter()
                for name, k in counter(args, result).items():
                    self.counts[name] += k
                if self._open:
                    self._open[-1] += time.perf_counter() - t0
            return result

        return traced

    def install(self) -> None:
        """Wrap every function in ``WRAPPED`` for the rest of the process."""
        if not self.enabled:
            return
        for module, name, layer, counter in WRAPPED:
            setattr(module, name, self._wrap(getattr(module, name), layer, counter))

    def take(self) -> dict[str, float]:
        """This operation's metrics by reported name; resets the store."""
        out = {f"{layer}_s": self.busy.get(layer, 0.0) for layer in TIMES}
        out.update({name: self.counts.get(name, 0) for name in COUNTS})
        self.busy.clear()
        self.counts.clear()
        return out
