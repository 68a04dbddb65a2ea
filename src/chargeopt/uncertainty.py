"""Worst-case cost under the deviation budget, independent of the LP route.

For a fixed purchase profile the adversary raises prices where it hurts most:
the worst case is a continuous knapsack over the per-slot exposure terms.
This module evaluates it directly (sort, take the largest terms up to the
budget) so schedules can be scored without trusting the dual reformulation,
and provides the cross-check that both routes agree.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .lp import LinearProgram, LpSolverError, Rows, solve_lp


class DualityGapError(LpSolverError):
    """Knapsack oracle and dual LP disagree beyond tolerance."""


@dataclass(frozen=True)
class UncertaintyBudget:
    """Deviation budget ``gamma`` with per-slot price deviation bounds (EUR/kWh)."""

    gamma: float
    deviation_bound: np.ndarray

    def __post_init__(self):
        object.__setattr__(
            self, "deviation_bound", np.asarray(self.deviation_bound, dtype=float)
        )
        if not self.gamma >= 0:  # inf prices every slot at its bound
            raise ValueError(f"gamma must be nonnegative, got {self.gamma!r}")
        if not np.all(np.isfinite(self.deviation_bound) & (self.deviation_bound >= 0)):
            raise ValueError("deviation bounds must be finite and nonnegative")


def _exposure_terms(net_purchase, dt, budget: UncertaintyBudget) -> np.ndarray:
    purchase = np.asarray(net_purchase, dtype=float)
    if purchase.shape != budget.deviation_bound.shape:
        raise ValueError("net purchase and deviation bounds differ in length")
    if not np.all(np.isfinite(purchase) & (purchase >= 0)):
        raise ValueError("net purchase must be finite and nonnegative")
    if not 0 < dt < np.inf:
        raise ValueError(f"slot length must be positive and finite, got {dt!r}")
    return budget.deviation_bound * purchase * dt


def worst_case_extra_cost(net_purchase, dt: float, budget: UncertaintyBudget) -> float:
    """Maximal adversarial extra cost for a fixed purchase profile (EUR).

    Continuous knapsack: sort the per-slot exposures descending and weight
    the ``i``-th (from 0) by ``clip(gamma - i, 0, 1)``, so the ``floor(gamma)``
    largest count in full and the next by the fractional remainder.  A budget
    of 0 weights nothing and one of at least ``T`` (``inf`` included) every
    term.
    """
    terms = np.sort(_exposure_terms(net_purchase, dt, budget))[::-1]
    weights = np.clip(budget.gamma - np.arange(len(terms)), 0.0, 1.0)
    return float(terms @ weights)


def worst_case_total_cost(schedule, prices, dt: float, budget: UncertaintyBudget) -> float:
    """Nominal cost plus the worst-case premium, both recomputed from the schedule."""
    purchase = np.asarray(schedule.net_purchase, dtype=float)
    nominal = float(np.asarray(prices.nominal) @ purchase) * dt
    return nominal + worst_case_extra_cost(purchase, dt, budget)


def verify_dual_equivalence(
    net_purchase, dt: float, budget: UncertaintyBudget, rtol: float = 1e-6
) -> float:
    """Check the dual route against the knapsack oracle; return the residual.

    Solves ``min gamma*lam + sum(mu)`` with ``-mu[t] - lam <= -exposure[t]``
    through the LP engine and compares with :func:`worst_case_extra_cost`.
    ``gamma`` is priced at ``min(gamma, T)`` for ``T`` terms, finite for an infinite
    budget: any ``gamma >= T`` gives the sum of the terms, at ``lam = 0``.
    Raises :class:`DualityGapError` if the residual exceeds
    ``rtol * (1 + oracle)``.
    """
    terms = _exposure_terms(net_purchase, dt, budget)
    oracle = worst_case_extra_cost(net_purchase, dt, budget)
    t = len(terms)
    obj = np.concatenate([[min(budget.gamma, t)], np.ones(t)])
    bounds = np.zeros((t + 1, 2))
    bounds[:, 1] = np.inf
    pairs = np.stack([np.zeros(t, dtype=np.intp), np.arange(1, t + 1)], axis=1)
    rows = Rows(2 * np.arange(t + 1), pairs.ravel(), -np.ones(2 * t), -terms)
    sol = solve_lp(LinearProgram(t + 1, obj, bounds, rows))
    residual = abs(sol.objective_value - oracle)
    if residual > rtol * (1 + oracle):
        raise DualityGapError(
            f"dual optimum {sol.objective_value!r} vs oracle {oracle!r} (residual {residual:.3e})"
        )
    return residual
