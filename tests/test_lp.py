"""Solver unit tests: worked examples, oracle agreement, degeneracy, determinism."""

import numpy as np
import pytest

from chargeopt.lp import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    Constraint,
    LinearProgram,
    LpFormatError,
    LpStatus,
    check_point,
    dump_lp,
    solve_lp,
)
from oracles import random_box_lp, vertex_enumeration_optimum

INF = float("inf")


def lp_1d(constraints):
    return LinearProgram(1, [1.0], [[0.0, INF]], constraints)


class TestSolveExamples:
    def test_single_binding_bound(self):
        sol = solve_lp(lp_1d([Constraint((0,), (1.0,), GREATER_EQUAL, 1.0)]))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_contradictory_constraints_infeasible(self):
        sol = solve_lp(
            lp_1d(
                [
                    Constraint((0,), (1.0,), GREATER_EQUAL, 1.0),
                    Constraint((0,), (1.0,), LESS_EQUAL, 0.0),
                ]
            )
        )
        assert sol.status is LpStatus.INFEASIBLE
        assert sol.x is None and sol.objective_value is None

    def test_two_var_polytope_matches_enumeration(self):
        lp = LinearProgram(
            2,
            [-1.0, -1.0],
            [[0.0, 1.0], [0.0, 1.0]],
            [Constraint((0, 1), (1.0, 1.0), LESS_EQUAL, 1.0)],
        )
        status, oracle = vertex_enumeration_optimum(lp)
        assert status == "optimal"
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(oracle, rel=1e-9)
        assert oracle == pytest.approx(-1.0)

    def test_unbounded(self):
        lp = LinearProgram(1, [-1.0], [[0.0, INF]], [])
        assert solve_lp(lp).status is LpStatus.UNBOUNDED

    def test_equality_native(self):
        lp = LinearProgram(
            2,
            [1.0, 1.0],
            [[0.0, 2.0], [0.0, 2.0]],
            [Constraint((0, 1), (1.0, 1.0), EQUAL, 3.0)],
        )
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_free_variables(self):
        lp = LinearProgram(
            2,
            [1.0, -1.0],
            [[-INF, INF], [-INF, INF]],
            [
                Constraint((0, 1), (1.0, 1.0), EQUAL, 2.0),
                Constraint((0, 1), (1.0, -1.0), GREATER_EQUAL, -4.0),
            ],
        )
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-4.0, abs=1e-9)

    def test_malformed_raises_not_infeasible(self):
        lp = LinearProgram(2, [1.0], [[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(LpFormatError):
            solve_lp(lp)
        lp = LinearProgram(1, [1.0], [[0.0, 1.0]], [Constraint((3,), (1.0,), LESS_EQUAL, 1.0)])
        with pytest.raises(LpFormatError):
            solve_lp(lp)
        lp = LinearProgram(1, [1.0], [[2.0, 1.0]])
        with pytest.raises(LpFormatError):
            solve_lp(lp)
        for obj in (float("nan"), INF, -INF):
            with pytest.raises(LpFormatError, match="variable 1: non-finite objective"):
                solve_lp(LinearProgram(2, [1.0, obj], [[0.0, 1.0], [0.0, 1.0]]))
        for bound in ([float("nan"), 1.0], [0.0, float("nan")]):
            with pytest.raises(LpFormatError, match="variable 0: NaN bound"):
                solve_lp(LinearProgram(2, [1.0, 1.0], [bound, [0.0, 1.0]]))


class TestRowsAsGiven:
    """Repeated indices, empty and singleton rows, and fixed variables reach the simplex unfolded."""

    def test_repeated_indices_solve_like_merged_row(self):
        def lp(con):
            return LinearProgram(2, [-1.0, -2.0], [[0.0, 2.0], [0.0, 2.0]], [con])

        repeated_row = Constraint((0, 1, 1, 0), (1.0, 0.5, 1.5, 1.0), LESS_EQUAL, 3.0)
        repeated = solve_lp(lp(repeated_row))
        merged = solve_lp(lp(Constraint((0, 1), (2.0, 2.0), LESS_EQUAL, 3.0)))
        assert repeated.status is merged.status is LpStatus.OPTIMAL
        assert repeated.objective_value == pytest.approx(merged.objective_value, abs=1e-12)
        assert repeated.objective_value == pytest.approx(-3.0, abs=1e-9)
        np.testing.assert_allclose(repeated.x, merged.x, atol=1e-12)
        status, oracle = vertex_enumeration_optimum(lp(repeated_row))
        assert status == "optimal" and oracle == pytest.approx(-3.0, abs=1e-9)

    @pytest.mark.parametrize(
        "relation, rhs, status",
        [
            (LESS_EQUAL, 1.0, LpStatus.OPTIMAL),
            (LESS_EQUAL, -1.0, LpStatus.INFEASIBLE),
            (GREATER_EQUAL, -1.0, LpStatus.OPTIMAL),
            (GREATER_EQUAL, 1.0, LpStatus.INFEASIBLE),
            (EQUAL, 0.0, LpStatus.OPTIMAL),
            (EQUAL, 0.5, LpStatus.INFEASIBLE),
        ],
    )
    def test_empty_row(self, relation, rhs, status):
        lp = LinearProgram(
            2,
            [1.0, -1.0],
            [[0.0, 1.0], [0.0, 1.0]],
            [Constraint((), (), relation, rhs), Constraint((0, 1), (1.0, 1.0), LESS_EQUAL, 1.5)],
        )
        sol = solve_lp(lp)
        assert sol.status is status
        if status is LpStatus.OPTIMAL:
            assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)

    @pytest.mark.parametrize(
        "rows, status",
        [
            ([Constraint((0, 1), (1.0, 1.0), LESS_EQUAL, 3.0)], LpStatus.OPTIMAL),
            ([Constraint((0, 1), (1.0, -1.0), EQUAL, -1.0)], LpStatus.OPTIMAL),
            ([Constraint((0, 1), (1.0, 1.0), GREATER_EQUAL, 4.0)], LpStatus.INFEASIBLE),
            ([Constraint((1,), (1.0,), EQUAL, 2.5)], LpStatus.INFEASIBLE),
        ],
    )
    def test_all_variables_fixed(self, rows, status):
        lp = LinearProgram(2, [3.0, -1.0], [[1.0, 1.0], [2.0, 2.0]], rows)
        sol = solve_lp(lp)
        assert sol.status is status
        if status is LpStatus.OPTIMAL:
            np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-12)
            assert sol.objective_value == pytest.approx(1.0, abs=1e-12)

    def test_singleton_equality_row(self):
        def lp(rhs):
            return LinearProgram(
                2,
                [1.0, 1.0],
                [[0.0, 4.0], [0.0, 4.0]],
                [
                    Constraint((0,), (2.0,), EQUAL, rhs),
                    Constraint((0, 1), (1.0, 1.0), GREATER_EQUAL, 2.0),
                ],
            )

        sol = solve_lp(lp(3.0))
        assert sol.status is LpStatus.OPTIMAL
        assert sol.x[0] == pytest.approx(1.5, abs=1e-9)
        assert sol.objective_value == pytest.approx(2.0, abs=1e-9)
        status, oracle = vertex_enumeration_optimum(lp(3.0))
        assert status == "optimal" and oracle == pytest.approx(sol.objective_value, abs=1e-9)
        assert solve_lp(lp(10.0)).status is LpStatus.INFEASIBLE  # x0 = 5 is above its bound


class TestCheckPoint:
    def test_feasible_point_empty_report(self):
        lp = lp_1d([Constraint((0,), (1.0,), GREATER_EQUAL, 1.0)])
        assert check_point(lp, np.array([1.0]), 1e-9) == []

    def test_violation_magnitude(self):
        lp = lp_1d([Constraint((0,), (1.0,), GREATER_EQUAL, 1.0)])
        report = check_point(lp, np.array([0.5]), 1e-9)
        assert len(report) == 1
        assert report[0].kind == "constraint"
        assert report[0].amount == pytest.approx(0.5)

    def test_length_mismatch(self):
        lp = lp_1d([])
        with pytest.raises(LpFormatError):
            check_point(lp, np.array([1.0, 2.0]), 1e-9)

    def test_solve_validates_once(self, monkeypatch):
        calls = []
        validate = LinearProgram.validate

        def counting(lp):
            calls.append(lp)
            return validate(lp)

        monkeypatch.setattr(LinearProgram, "validate", counting)
        rng = np.random.default_rng(5)
        for k in range(1, 21):
            solve_lp(random_box_lp(rng))
            assert len(calls) == k

    def test_bound_violations_reported(self):
        lp = LinearProgram(2, [0.0, 0.0], [[0.0, 1.0], [0.0, 1.0]])
        report = check_point(lp, np.array([-0.25, 1.5]), 1e-9)
        kinds = {(v.kind, v.index) for v in report}
        assert kinds == {("lower_bound", 0), ("upper_bound", 1)}


class TestAgainstEnumeration:
    def test_random_lps_match_bruteforce(self):
        rng = np.random.default_rng(424242)
        optimal = 0
        for _ in range(60):
            lp = random_box_lp(rng)
            sol = solve_lp(lp)
            status, oracle = vertex_enumeration_optimum(lp)
            if status == "infeasible":
                assert sol.status is LpStatus.INFEASIBLE
            else:
                optimal += 1
                assert sol.status is LpStatus.OPTIMAL
                assert abs(sol.objective_value - oracle) <= 1e-6 * (1 + abs(oracle))
        assert optimal >= 20  # the generator must exercise the optimal path

    def test_weak_duality_on_sampled_feasible_points(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 10:
            lp = random_box_lp(rng)
            sol = solve_lp(lp)
            if sol.status is not LpStatus.OPTIMAL:
                continue
            lo, up = lp.var_bounds[:, 0], lp.var_bounds[:, 1]
            for _ in range(200):
                x = rng.uniform(lo, up)
                if not check_point(lp, x, 1e-9):
                    assert lp.objective @ x >= sol.objective_value - 1e-6 * (
                        1 + abs(sol.objective_value)
                    )
                    checked += 1


class TestDegeneracyAndDeterminism:
    def test_beale_cycling_instance_terminates(self):
        lp = LinearProgram(
            4,
            [-0.75, 150.0, -0.02, 6.0],
            [[0.0, INF]] * 4,
            [
                Constraint((0, 1, 2, 3), (0.25, -60.0, -1 / 25, 9.0), LESS_EQUAL, 0.0),
                Constraint((0, 1, 2, 3), (0.5, -90.0, -1 / 50, 3.0), LESS_EQUAL, 0.0),
                Constraint((2,), (1.0,), LESS_EQUAL, 1.0),
            ],
        )
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-0.05, abs=1e-9)

    def test_duplicate_constraints_terminate(self):
        dup = Constraint((0, 1), (1.0, 1.0), LESS_EQUAL, 1.0)
        lp = LinearProgram(
            2,
            [-1.0, -1.0],
            [[0.0, 1.0], [0.0, 1.0]],
            [dup, dup, Constraint((0, 1), (2.0, 2.0), LESS_EQUAL, 2.0)],
        )
        sol = solve_lp(lp)
        assert sol.status is LpStatus.OPTIMAL
        assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)

    def test_resolve_is_bit_identical(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            lp = random_box_lp(rng)
            a, b = solve_lp(lp), solve_lp(lp)
            assert a.status == b.status
            assert a.iterations == b.iterations
            if a.status is LpStatus.OPTIMAL:
                assert np.array_equal(a.x, b.x)
                assert a.objective_value == b.objective_value

    def test_objective_matches_dot_product(self):
        rng = np.random.default_rng(5)
        for _ in range(20):
            lp = random_box_lp(rng)
            sol = solve_lp(lp)
            if sol.status is LpStatus.OPTIMAL:
                direct = float(lp.objective @ sol.x)
                assert abs(sol.objective_value - direct) <= 1e-9 * (1 + abs(direct))


def test_dump_lp_one_line_per_constraint():
    lp = LinearProgram(
        2,
        [1.0, 0.0],
        [[0.0, 1.0], [0.0, INF]],
        [Constraint((0, 1), (1.0, -2.0), LESS_EQUAL, 3.0)],
    )
    text = dump_lp(lp)
    lines = [l for l in text.splitlines() if l.startswith("c: ")]
    assert lines == ["c: 0:1.0 1:-2.0 <= 3.0"]
