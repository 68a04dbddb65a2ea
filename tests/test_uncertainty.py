"""Worst-case oracle tests and the dual-equivalence theorem check."""

import numpy as np
import pytest

from chargeopt.model import solve_offline
from chargeopt.synth import random_scenario
from chargeopt.uncertainty import (
    DualityGapError,
    UncertaintyBudget,
    verify_dual_equivalence,
    worst_case_extra_cost,
    worst_case_total_cost,
)
from oracles import budget_worst_case_bruteforce


def budget(gamma, bounds):
    return UncertaintyBudget(gamma, np.asarray(bounds, dtype=float))


class TestWorstCaseExtraCost:
    def test_zero_budget(self):
        assert worst_case_extra_cost(np.array([5.0, 2.0]), 1.0, budget(0.0, [1, 1])) == 0.0

    def test_budget_beyond_horizon_takes_everything(self):
        purchase = np.array([3.0, 1.0, 2.0])
        b = budget(3.0, [1, 1, 1])
        assert worst_case_extra_cost(purchase, 1.0, b) == pytest.approx(6.0)
        assert worst_case_extra_cost(purchase, 1.0, budget(99.0, [1, 1, 1])) == pytest.approx(6.0)

    def test_fractional_budget_reference_case(self):
        # exposures [3, 1, 2], budget 1.5: top term plus half the next = 4
        value = worst_case_extra_cost(np.array([3.0, 1.0, 2.0]), 1.0, budget(1.5, [1, 1, 1]))
        assert value == pytest.approx(4.0)
        assert value == pytest.approx(
            budget_worst_case_bruteforce(np.array([3.0, 1.0, 2.0]), 1.5)
        )

    def test_matches_bruteforce_small_instances(self):
        rng = np.random.default_rng(31)
        for _ in range(120):
            t = int(rng.integers(1, 7))
            purchase = rng.uniform(0, 5, t)
            bounds = rng.uniform(0, 0.3, t)
            gamma = float(rng.uniform(0, t + 1))
            if rng.random() < 0.4:
                gamma = float(int(gamma))
            got = worst_case_extra_cost(purchase, 0.5, budget(gamma, bounds))
            want = budget_worst_case_bruteforce(bounds * purchase * 0.5, gamma)
            assert got == pytest.approx(want, abs=1e-12)

    def test_monotone_in_gamma_and_bounds_homogeneous_in_purchase(self):
        rng = np.random.default_rng(8)
        purchase = rng.uniform(0, 10, 12)
        bounds = rng.uniform(0, 0.2, 12)
        values = [
            worst_case_extra_cost(purchase, 1.0, budget(g, bounds))
            for g in np.linspace(0, 14, 20)
        ]
        assert all(a <= b + 1e-12 for a, b in zip(values, values[1:]))
        base = worst_case_extra_cost(purchase, 1.0, budget(2.5, bounds))
        assert worst_case_extra_cost(purchase, 1.0, budget(2.5, 2 * bounds)) >= base
        assert worst_case_extra_cost(3 * purchase, 1.0, budget(2.5, bounds)) == pytest.approx(
            3 * base
        )

    def test_input_validation(self):
        with pytest.raises(ValueError):
            worst_case_extra_cost(np.array([-1.0]), 1.0, budget(1.0, [1.0]))
        with pytest.raises(ValueError):
            budget(-1.0, [1.0])
        with pytest.raises(ValueError, match="gamma must be nonnegative, got nan"):
            budget(float("nan"), [1.0])
        with pytest.raises(ValueError):
            budget(1.0, [-1.0])
        # a non-finite bound, purchase or slot length would score nan or inf, not a cost
        for bound in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="deviation bounds must be finite"):
                budget(1.0, [bound, 1.0])
        for purchase in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="net purchase must be finite"):
                worst_case_extra_cost(np.array([purchase, 1.0]), 1.0, budget(1.0, [1.0, 1.0]))
        for dt in (float("nan"), float("inf"), 0.0):
            with pytest.raises(ValueError, match="slot length must be positive and finite"):
                worst_case_extra_cost(np.array([1.0, 1.0]), dt, budget(1.0, [1.0, 1.0]))


class TestWorstCaseTotalCost:
    def test_zero_budget_equals_nominal(self):
        sc = random_scenario(3, seed=5)
        sched, _ = solve_offline(sc)
        total = worst_case_total_cost(
            sched, sc.prices, sc.grid.slot_hours, budget(0.0, sc.prices.deviation_bound)
        )
        assert total == pytest.approx(sched.nominal_cost, rel=1e-12)

    def test_all_solar_schedule_costs_nothing(self):
        sc = random_scenario(2, seed=6)
        sched, _ = solve_offline(sc)
        free = type(sched)(
            charging_power=sched.charging_power * 0,
            net_purchase=sched.net_purchase * 0,
            solar_used=sched.solar_used,
            budget_dual=None,
            deviation_duals=None,
            nominal_cost=0.0,
            protection_cost=0.0,
            objective_value=0.0,
        )
        for gamma in (0.0, 5.0, 100.0):
            assert worst_case_total_cost(
                free, sc.prices, 1.0, budget(gamma, sc.prices.deviation_bound)
            ) == pytest.approx(0.0)

    def test_protected_schedule_has_lower_worst_case(self):
        sc = random_scenario(40, seed=2019, num_slots=168, demand_fill=(0.3, 0.9))
        plain, _ = solve_offline(sc, gamma=0.0)
        protected, _ = solve_offline(sc, gamma=30.0)
        b = budget(30.0, sc.prices.deviation_bound)
        w_plain = worst_case_total_cost(plain, sc.prices, 1.0, b)
        w_protected = worst_case_total_cost(protected, sc.prices, 1.0, b)
        assert w_protected < w_plain


class TestDualEquivalence:
    def test_zero_exposures(self):
        assert verify_dual_equivalence(np.zeros(4), 1.0, budget(2.0, np.zeros(4))) == 0.0

    def test_reference_case(self):
        # an infinite budget prices every slot at its bound
        for gamma, oracle in ((1.5, 4.0), (float("inf"), 6.0)):
            residual = verify_dual_equivalence(
                np.array([3.0, 1.0, 2.0]), 1.0, budget(gamma, [1, 1, 1])
            )
            assert residual <= 1e-6 * (1 + oracle)

    def test_randomized_trials(self):
        rng = np.random.default_rng(20260810)
        for _ in range(100):
            t = int(rng.integers(1, 13))
            purchase = rng.uniform(0, 40, t)
            bounds = rng.uniform(0, 0.25, t)
            gamma = float(rng.uniform(0, t + 2))
            if rng.random() < 0.5:
                gamma = float(int(gamma))
            verify_dual_equivalence(purchase, 1.0, budget(gamma, bounds))

    def test_gap_raises(self):
        # a corrupted oracle comparison must not pass silently: exercise the
        # error path by checking against an inconsistent tolerance
        with pytest.raises(DualityGapError):
            verify_dual_equivalence(
                np.array([3.0, 1.0, 2.0]), 1.0, budget(1.5, [1, 1, 1]), rtol=-1.0
            )
