"""Solver unit tests: worked examples, oracle agreement, degeneracy, determinism."""

import contextlib
import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chargeopt.lp import (
    LinearProgram,
    LpFormatError,
    LpInfeasibleError,
    LpSolverError,
    Rows,
    _Tableau,
    check_point,
    dump_lp,
    solve_lp,
)
from chargeopt import lp as lp_module
from chargeopt import model
from chargeopt.model import (
    apply_demand_policy,
    build_nominal_lp,
    build_robust_lp,
    solve_deliverable,
)
from chargeopt.scenario import StationConfig
from chargeopt.synth import bench_scenario, random_scenario
from oracles import (
    EQUAL,
    GREATER_EQUAL,
    LESS_EQUAL,
    random_box_lp,
    rows_of,
    stack_rows,
    vertex_enumeration_optimum,
)

INF = float("inf")


def lp_1d(constraints):
    return LinearProgram(1, [1.0], [[0.0, INF]], rows_of(constraints))


class TestSolveExamples:
    def test_single_binding_bound(self):
        sol = solve_lp(lp_1d([((0,), (1.0,), GREATER_EQUAL, 1.0)]))
        assert sol.x[0] == pytest.approx(1.0, abs=1e-9)
        assert sol.objective_value == pytest.approx(1.0, abs=1e-9)

    def test_contradictory_constraints_infeasible(self):
        lp = lp_1d([((0,), (1.0,), GREATER_EQUAL, 1.0), ((0,), (1.0,), LESS_EQUAL, 0.0)])
        with pytest.raises(LpInfeasibleError):
            solve_lp(lp)

    def test_two_var_polytope_matches_enumeration(self):
        lp = LinearProgram(
            2,
            [-1.0, -1.0],
            [[0.0, 1.0], [0.0, 1.0]],
            rows_of([((0, 1), (1.0, 1.0), LESS_EQUAL, 1.0)]),
        )
        status, oracle = vertex_enumeration_optimum(lp)
        assert status == "optimal"
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(oracle, rel=1e-9)
        assert oracle == pytest.approx(-1.0)

    def test_unbounded(self):
        # a cost that prefers an infinite bound has no dual feasible start
        with pytest.raises(LpFormatError, match="variable 0: its cost prefers an infinite bound"):
            LinearProgram(1, [-1.0], [[0.0, INF]])

    def test_equality_native(self):
        lp = LinearProgram(
            2,
            [1.0, 1.0],
            [[0.0, 2.0], [0.0, 2.0]],
            rows_of([((0, 1), (1.0, 1.0), EQUAL, 3.0)]),
        )
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(3.0, abs=1e-9)

    def test_free_variables(self):
        with pytest.raises(LpFormatError, match="variable 0: free"):
            LinearProgram(
                2,
                [1.0, -1.0],
                [[-INF, INF], [-INF, INF]],
                rows_of(
                    [
                        ((0, 1), (1.0, 1.0), EQUAL, 2.0),
                        ((0, 1), (1.0, -1.0), GREATER_EQUAL, -4.0),
                    ]
                ),
            )

    def test_malformed_raises_not_infeasible(self):
        with pytest.raises(LpFormatError):
            LinearProgram(2, [1.0], [[0.0, 1.0], [0.0, 1.0]])
        with pytest.raises(LpFormatError):
            LinearProgram(1, [1.0], [[0.0, 1.0]], rows_of([((3,), (1.0,), LESS_EQUAL, 1.0)]))
        with pytest.raises(LpFormatError):
            LinearProgram(1, [1.0], [[2.0, 1.0]])
        for obj in (float("nan"), INF, -INF):
            with pytest.raises(LpFormatError, match="variable 1: non-finite objective"):
                LinearProgram(2, [1.0, obj], [[0.0, 1.0], [0.0, 1.0]])
        for bound in ([float("nan"), 1.0], [0.0, float("nan")]):
            with pytest.raises(LpFormatError, match="variable 0: NaN bound"):
                LinearProgram(2, [1.0, 1.0], [bound, [0.0, 1.0]])


class TestRowsAsGiven:
    """Repeated indices, empty and singleton rows, and fixed variables reach the simplex unfolded."""

    def test_repeated_indices_solve_like_merged_row(self):
        def lp(con):
            return LinearProgram(2, [-1.0, -2.0], [[0.0, 2.0], [0.0, 2.0]], rows_of([con]))

        repeated_row = ((0, 1, 1, 0), (1.0, 0.5, 1.5, 1.0), LESS_EQUAL, 3.0)
        repeated = solve_lp(lp(repeated_row))
        merged = solve_lp(lp(((0, 1), (2.0, 2.0), LESS_EQUAL, 3.0)))
        assert repeated.objective_value == pytest.approx(merged.objective_value, abs=1e-12)
        assert repeated.objective_value == pytest.approx(-3.0, abs=1e-9)
        np.testing.assert_allclose(repeated.x, merged.x, atol=1e-12)
        status, oracle = vertex_enumeration_optimum(lp(repeated_row))
        assert status == "optimal" and oracle == pytest.approx(-3.0, abs=1e-9)

    # the case ids keep the names these cases have always had, outcome included
    @pytest.mark.parametrize(
        "relation, rhs, feasible",
        [
            (LESS_EQUAL, 1.0, True),
            (LESS_EQUAL, -1.0, False),
            (GREATER_EQUAL, -1.0, True),
            (GREATER_EQUAL, 1.0, False),
            (EQUAL, 0.0, True),
            (EQUAL, 0.5, False),
        ],
        ids=[
            "<=-1.0-LpStatus.OPTIMAL", "<=--1.0-LpStatus.INFEASIBLE",
            ">=--1.0-LpStatus.OPTIMAL", ">=-1.0-LpStatus.INFEASIBLE",
            "=-0.0-LpStatus.OPTIMAL", "=-0.5-LpStatus.INFEASIBLE",
        ],
    )
    def test_empty_row(self, relation, rhs, feasible):
        lp = LinearProgram(
            2,
            [1.0, -1.0],
            [[0.0, 1.0], [0.0, 1.0]],
            rows_of([((), (), relation, rhs), ((0, 1), (1.0, 1.0), LESS_EQUAL, 1.5)]),
        )
        if feasible:
            assert solve_lp(lp).objective_value == pytest.approx(-1.0, abs=1e-9)
        else:
            with pytest.raises(LpInfeasibleError):
                solve_lp(lp)

    @pytest.mark.parametrize(
        "rows, feasible",
        [
            ([((0, 1), (1.0, 1.0), LESS_EQUAL, 3.0)], True),
            ([((0, 1), (1.0, -1.0), EQUAL, -1.0)], True),
            ([((0, 1), (1.0, 1.0), GREATER_EQUAL, 4.0)], False),
            ([((1,), (1.0,), EQUAL, 2.5)], False),
        ],
        ids=[
            "rows0-LpStatus.OPTIMAL", "rows1-LpStatus.OPTIMAL",
            "rows2-LpStatus.INFEASIBLE", "rows3-LpStatus.INFEASIBLE",
        ],
    )
    def test_all_variables_fixed(self, rows, feasible):
        lp = LinearProgram(2, [3.0, -1.0], [[1.0, 1.0], [2.0, 2.0]], rows_of(rows))
        if feasible:
            sol = solve_lp(lp)
            np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-12)
            assert sol.objective_value == pytest.approx(1.0, abs=1e-12)
        else:
            with pytest.raises(LpInfeasibleError):
                solve_lp(lp)

    def test_singleton_equality_row(self):
        def lp(rhs):
            return LinearProgram(
                2,
                [1.0, 1.0],
                [[0.0, 4.0], [0.0, 4.0]],
                rows_of(
                    [
                        ((0,), (2.0,), EQUAL, rhs),
                        ((0, 1), (1.0, 1.0), GREATER_EQUAL, 2.0),
                    ]
                ),
            )

        sol = solve_lp(lp(3.0))
        assert sol.x[0] == pytest.approx(1.5, abs=1e-9)
        assert sol.objective_value == pytest.approx(2.0, abs=1e-9)
        status, oracle = vertex_enumeration_optimum(lp(3.0))
        assert status == "optimal" and oracle == pytest.approx(sol.objective_value, abs=1e-9)
        with pytest.raises(LpInfeasibleError):
            solve_lp(lp(10.0))  # x0 = 5 is above its bound


def criterion_2_lps():
    """The 200 random LPs of acceptance criterion 2."""
    rng = np.random.default_rng(1002)
    return [random_box_lp(rng) for _ in range(200)]


def bounds_as_rows(lp):
    """The same program with the box side each column's cost does not prefer
    moved into a row: the lower bound of a negative-cost column, the upper bound
    of any other.  Every column then has span inf and starts at its finite side."""
    bounds = lp.var_bounds.copy()
    moved = []
    for j, (lo, up) in enumerate(lp.var_bounds):
        if lp.objective[j] < 0:
            bounds[j, 0] = -INF
            moved.append(((j,), (1.0,), GREATER_EQUAL, lo))
        else:
            bounds[j, 1] = INF
            moved.append(((j,), (1.0,), LESS_EQUAL, up))
    return LinearProgram(
        lp.num_vars, lp.objective, bounds, stack_rows([lp.constraints, rows_of(moved)])
    )


def beale_tableau():
    """Beale's cycling instance on its all-slack basis: primal feasible (every
    right-hand side is nonnegative) but not dual feasible, so the dual simplex
    must not call it optimal.  Its optimum is -0.05 at (0.04, 0, 1, 0)."""
    tab = np.array(
        [
            [0.25, -60.0, -1 / 25, 9.0, 1.0, 0.0, 0.0, 0.0],
            [0.5, -90.0, -1 / 50, 3.0, 0.0, 1.0, 0.0, 0.0],
            [0.0, 0.0, 1.0, 0.0, 0.0, 0.0, 1.0, 1.0],
            [-0.75, 150.0, -0.02, 6.0, 0.0, 0.0, 0.0, 0.0],
        ]
    )
    return _Tableau(tab, np.full(7, INF), np.array([4, 5, 6]))


def assert_matches_enumeration(lp, solved=None):
    """Solve ``solved`` (by default ``lp``), an equivalent of ``lp``: it raises
    :class:`LpInfeasibleError` exactly where vertex enumeration of ``lp`` finds
    no vertex, and otherwise reaches its optimum.  Returns the solve's stats."""
    solved = lp if solved is None else solved
    status, oracle = vertex_enumeration_optimum(lp)
    if status == "infeasible":
        with pytest.raises(LpInfeasibleError) as exc:
            solve_lp(solved)
        return exc.value.stats
    sol = solve_lp(solved)
    assert abs(sol.objective_value - oracle) <= 1e-6 * (1 + abs(oracle))
    return sol.stats


def optimal_solves(lps):
    """``(lp, solution)`` for each program of ``lps`` that is feasible."""
    for lp in lps:
        try:
            sol = solve_lp(lp)
        except LpInfeasibleError:
            continue
        yield lp, sol


class TestDualPhase:
    """The dual simplex from the all-slack basis, the solver's only phase."""

    @pytest.mark.parametrize("moved", [False, True], ids=["boxed", "bounds-as-rows"])
    def test_bland_from_the_first_iteration(self, monkeypatch, moved):
        monkeypatch.setattr(_Tableau, "bland_factor", 0)
        used = 0
        for lp in criterion_2_lps():
            stats = assert_matches_enumeration(lp, bounds_as_rows(lp) if moved else lp)
            assert stats.bland == (stats.iterations > 0)
            used += stats.dual_iterations
        assert used > 0

    @pytest.mark.parametrize("bland_factor", [0, 10])
    def test_optimal_only_when_dual_feasible(self, monkeypatch, bland_factor):
        # no row of Beale's tableau is violated, but two columns price below zero
        monkeypatch.setattr(_Tableau, "bland_factor", bland_factor)
        tab = beale_tableau()
        with pytest.raises(LpSolverError, match="not dual feasible"):
            tab.run_dual()
        assert tab.iterations == 0

    def test_program_without_a_dual_feasible_start_is_rejected(self):
        # the transform that used to give columns a start their cost does not
        # prefer: negative-cost columns lose their upper bound, every third is free
        rejected = 0
        for lp in criterion_2_lps():
            no_start = (lp.objective < 0) | (np.arange(lp.num_vars) % 3 == 2)
            if not no_start.any():
                continue
            bounds = lp.var_bounds.copy()
            bounds[lp.objective < 0, 1] = INF
            bounds[2::3] = [-INF, INF]
            with pytest.raises(LpFormatError, match=f"variable {no_start.argmax()}: "):
                LinearProgram(lp.num_vars, lp.objective, bounds, lp.constraints)
            rejected += 1
        assert rejected == 193  # the other 7 have two columns, both of cost >= 0

    def test_unbounded_program_with_rows_is_rejected(self):
        with pytest.raises(LpFormatError, match="variable 0: its cost prefers an infinite bound"):
            LinearProgram(
                2,
                [-1.0, 1.0],
                [[0.0, INF], [0.0, 1.0]],
                rows_of([((0, 1), (1.0, -1.0), GREATER_EQUAL, 0.5)]),
            )
        with pytest.raises(LpFormatError, match="variable 0: free"):
            LinearProgram(
                2, [1.0, 0.0], [[-INF, INF], [0.0, 1.0]], rows_of([((0, 1), (1.0, 1.0), LESS_EQUAL, 1.0)])
            )

    def test_infeasible_row_without_an_eligible_column(self):
        # -x0 >= 1 with x0 >= 0: no column can raise the row's slack
        lp = LinearProgram(
            2,
            [1.0, 1.0],
            [[0.0, INF], [0.0, 1.0]],
            rows_of([((0, 1), (-1.0, 0.0), GREATER_EQUAL, 1.0)]),
        )
        with pytest.raises(LpInfeasibleError) as exc:
            solve_lp(lp)
        assert exc.value.stats.bound_flips == 0

    def test_infeasible_when_the_boxed_breakpoints_run_out(self):
        def lp(up):
            return LinearProgram(
                2,
                [1.0, 2.0],
                [[0.0, 1.0], [0.0, up]],
                rows_of([((0, 1), (1.0, 1.0), GREATER_EQUAL, 3.0)]),
            )

        with pytest.raises(LpInfeasibleError) as exc:
            solve_lp(lp(1.0))  # both columns at their upper bound still leave it short
        assert exc.value.stats.bound_flips == 0
        sol = solve_lp(lp(5.0))  # x0 is passed at its upper bound, x1 enters
        assert sol.stats.bound_flips == 1
        np.testing.assert_allclose(sol.x, [1.0, 2.0], atol=1e-12)

    @pytest.mark.parametrize(
        "rows, what, iterations",
        [
            ([((0,), (-1.0,), GREATER_EQUAL, 1.0)], "the slack of row 0", 0),
            # the second row pushes x1, basic since the first pivot, to 2: past its bound 1
            (
                [((0, 1), (1.0, 1.0), GREATER_EQUAL, 2.0), ((1,), (1.0,), GREATER_EQUAL, 2.0)],
                "variable 1",
                2,
            ),
        ],
    )
    def test_infeasible_error_names_what_it_cannot_repair(self, rows, what, iterations):
        lp = LinearProgram(2, [1.0, 1.0], [[0.0, 1.0], [0.0, 1.0]], rows_of(rows))
        with pytest.raises(LpInfeasibleError, match=f"no column can bring {what} within") as exc:
            solve_lp(lp)
        stats = exc.value.stats
        assert stats.iterations == iterations
        assert (stats.rows, stats.cols) == (len(rows), 2)
        assert (stats.check_seconds, stats.worst_residual) == (0.0, None)

    @pytest.mark.parametrize("bland", [False, True])
    def test_equality_pairs(self, monkeypatch, bland):
        if bland:
            monkeypatch.setattr(_Tableau, "bland_factor", 0)

        def lp(second_rhs):
            return LinearProgram(
                3,
                [1.0, 2.0, -1.0],
                [[0.0, 2.0], [0.0, 2.0], [0.0, 1.0]],
                rows_of(
                    [
                        ((0, 1, 2), (1.0, 1.0, 1.0), EQUAL, 2.0),
                        ((0, 1, 2), (2.0, 2.0, 2.0), EQUAL, second_rhs),
                        ((0, 2), (1.0, -1.0), GREATER_EQUAL, 0.0),
                    ]
                ),
            )

        assert_matches_enumeration(lp(4.0))
        assert solve_lp(lp(4.0)).objective_value == pytest.approx(0.0, abs=1e-9)
        with pytest.raises(LpInfeasibleError):
            solve_lp(lp(4.5))
        assert_matches_enumeration(lp(4.5))

    @pytest.mark.parametrize("gamma", [None, 12.0])
    def test_charging_lp_stats(self, gamma):
        sc, _ = apply_demand_policy(bench_scenario(10, seed=0), "clamp")
        lp, _ = build_nominal_lp(sc) if gamma is None else build_robust_lp(sc, gamma)
        sol = solve_lp(lp)
        stats = sol.stats
        assert stats.dual_iterations == sol.iterations > 0
        assert not stats.bland
        assert 0.0 <= stats.worst_residual <= 1e-6
        assert min(stats.dual_seconds, stats.check_seconds) >= 0.0

    @settings(derandomize=True, database=None, deadline=None, max_examples=40)
    @given(
        seed=st.integers(0, 2**16),
        slot_hours=st.sampled_from([1.0, 0.5]),
        gamma=st.sampled_from([0.0, 4.0, 12.0]),
    )
    def test_random_scenario_lps_end_dual_feasible(self, seed, slot_hours, gamma):
        # a 10 kW grid under 22 kW sockets congests every dark slot with a session in it,
        # so the delivery LP is solved before the nominal and robust charging LPs
        sc = random_scenario(
            12,
            seed=seed,
            slot_hours=slot_hours,
            max_power=22.0,
            station=StationConfig(grid_capacity=10.0),
        )
        solved = []
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(model, "solve_lp", lambda lp: solved.append(solve_lp(lp)) or solved[-1])
            eff, _ = apply_demand_policy(sc, "clamp")
            solve_deliverable(eff)
            solve_deliverable(eff, gamma)
        # each solve checks that its final basis is dual feasible before it returns
        assert len(solved) == 3

    def test_points_keep_their_box_exactly(self):
        rng = np.random.default_rng(2)
        lps = criterion_2_lps() + [random_box_lp(rng) for _ in range(1000)]
        optimal = 0
        for lp, sol in optimal_solves(lps):
            optimal += 1
            assert np.all(lp.var_bounds[:, 0] <= sol.x)
            assert np.all(sol.x <= lp.var_bounds[:, 1])
        assert optimal >= 500


def opening(lp, floor):
    """The tableau of ``lp`` as the loop receives it, after the opening pass with its floor at
    ``floor``; a floor above the row count gives the all-slack start."""
    seen = []
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_Tableau, "batch_floor", floor)
        mp.setattr(_Tableau, "run_dual", lambda tab: seen.append(tab))
        lp_module._simplex(lp)
    return seen[0]


def loop_opening(tab, r):
    """Row ``r``'s pivot as the loop makes it from a start where no basic variable has a finite
    span: its bound-flipping ratio test, then ``_flip`` and ``_pivot``."""
    slope = -tab.mat[r]
    cand = ((slope > lp_module.PIVOT_TOL) & tab.enterable).nonzero()[0]
    cand = cand[(np.maximum(tab.red[cand], 0.0) / slope[cand]).argsort(kind="stable")]
    k = int((slope[cand] * tab.spans[cand]).cumsum().searchsorted(-tab.rhs[r]))
    k = min(k, len(cand) - 1)
    if k:
        tab._flip(cand[:k])
        tab.flips += k
    tab.iterations += 1
    tab._pivot(r, int(cand[k]), leaves_at_upper=False)


def disjoint_rows(k):
    """``x_i >= 1`` for ``k`` columns of cost 1 in ``[0, 2]``: ``k`` violated rows, no column
    shared."""
    rows = [((i,), (1.0,), GREATER_EQUAL, 1.0) for i in range(k)]
    return LinearProgram(k, np.ones(k), [[0.0, 2.0]] * k, rows_of(rows))


class TestBatchedPivots:
    """The opening pass pivots every column-disjoint violated row of the all-slack start at once."""

    @pytest.mark.parametrize("gamma", [None, 12.0], ids=["nominal", "robust"])
    @pytest.mark.parametrize("seed", [0, 1])
    def test_same_as_the_loop_pivots_in_order(self, seed, gamma):
        sc = random_scenario(60, seed=seed, max_power=22.0, station=StationConfig(grid_capacity=40.0))
        eff, _ = apply_demand_policy(sc, "clamp")
        lp, _ = build_nominal_lp(eff) if gamma is None else build_robust_lp(eff, gamma)
        batched = opening(lp, _Tableau.batch_floor)
        loop = opening(lp, len(lp.constraints) + 1)
        rows = (batched.basis != loop.basis).nonzero()[0]
        assert batched.batched == len(rows) >= _Tableau.batch_floor
        for r in rows:
            loop_opening(loop, r)
        np.testing.assert_array_equal(batched.basis, loop.basis)
        np.testing.assert_array_equal(batched.flipped, loop.flipped)
        np.testing.assert_array_equal(batched.enterable, loop.enterable)
        assert batched.flips == loop.flips > 0
        assert (batched.iterations, batched.pivot_cells) == (loop.iterations, loop.pivot_cells)
        # every cell but the basic values is written once, by the same arithmetic
        np.testing.assert_array_equal(batched.mat, loop.mat)
        np.testing.assert_array_equal(batched.red, loop.red)
        assert np.abs(batched.rhs - loop.rhs).max() <= 1e-12 * np.abs(loop.rhs).max()

    def test_shared_and_repeated_columns_leave_their_rows_to_the_loop(self):
        rows = rows_of(
            [
                ((0, 1), (1.0, 1.0), GREATER_EQUAL, 1.0),  # shares x0 with the next row
                ((0, 2), (1.0, 1.0), GREATER_EQUAL, 1.0),
                ((3, 3), (1.0, 1.0), GREATER_EQUAL, 1.0),  # holds x3 twice
                ((4,), (1.0,), GREATER_EQUAL, 1.0),
                ((5, 6), (1.0, 1.0), GREATER_EQUAL, 1.0),
                ((6, 6), (1.0, 1.0), LESS_EQUAL, 10.0),  # satisfied, but holds x6 twice
                ((7,), (1.0,), GREATER_EQUAL, 1.0),
            ]
        )
        lp = LinearProgram(8, np.arange(1.0, 9.0), [[0.0, 2.0]] * 8, rows)
        tab = opening(lp, 2)
        assert tab.batched == 2
        assert tab.basis.tolist() == [8, 9, 10, 4, 12, 13, 7]
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Tableau, "batch_floor", 2)
            assert assert_matches_enumeration(lp).batched_pivots == 2

    def test_infeasible_row_is_left_to_the_loop(self):
        # x0 + x1 >= 5 over [0, 1]^2: both breakpoints pass and the row is still violated
        rows = [((0, 1), (1.0, 1.0), GREATER_EQUAL, 5.0)]
        rows += [((i,), (1.0,), GREATER_EQUAL, 1.0) for i in range(2, 6)]
        lp = LinearProgram(6, np.ones(6), [[0.0, 1.0]] * 2 + [[0.0, 2.0]] * 4, rows_of(rows))
        with pytest.raises(LpInfeasibleError) as parent:
            solve_lp(lp)
        assert parent.value.stats.batched_pivots == 0  # below the floor
        with pytest.MonkeyPatch.context() as mp:
            mp.setattr(_Tableau, "batch_floor", 2)
            with pytest.raises(LpInfeasibleError) as exc:
                solve_lp(lp)
        assert str(exc.value) == str(parent.value)
        assert "the slack of row 0" in str(exc.value)
        stats = exc.value.stats
        assert (stats.batched_pivots, stats.bound_flips) == (4, 0)
        assert stats.iterations == 4 + parent.value.stats.iterations

    def test_no_pivot_below_the_floor(self):
        floor = _Tableau.batch_floor
        below = solve_lp(disjoint_rows(floor - 1)).stats
        assert below.batched_pivots == 0
        assert below.iterations == floor - 1
        at = solve_lp(disjoint_rows(floor))
        assert at.stats.batched_pivots == at.iterations == floor
        np.testing.assert_array_equal(at.x, np.ones(floor))

    def test_no_pivot_when_bland_is_due_from_the_start(self, monkeypatch):
        monkeypatch.setattr(_Tableau, "bland_factor", 0)
        stats = solve_lp(disjoint_rows(2 * _Tableau.batch_floor)).stats
        assert stats.batched_pivots == 0
        assert stats.bland and stats.iterations == 2 * _Tableau.batch_floor

    def test_flips_and_cells_count_like_the_loop(self, monkeypatch):
        # x_i + y_i >= 1.5 over [0, 1]^2 with y_i dearer: each row passes x_i and pivots y_i in,
        # and the loop, which takes the rows in index order, makes the same pivots
        k = _Tableau.batch_floor
        rows = [((i, k + i), (1.0, 1.0), GREATER_EQUAL, 1.5) for i in range(k)]
        lp = LinearProgram(2 * k, [1.0] * k + [2.0] * k, [[0.0, 1.0]] * (2 * k), rows_of(rows))
        batched = solve_lp(lp)
        monkeypatch.setattr(_Tableau, "batch_floor", k + 1)
        loop = solve_lp(lp)
        assert (batched.stats.batched_pivots, loop.stats.batched_pivots) == (k, 0)
        assert batched.stats.iterations == loop.stats.iterations == k
        assert batched.stats.bound_flips == loop.stats.bound_flips == k
        assert batched.stats.pivot_cells == loop.stats.pivot_cells > 0
        np.testing.assert_array_equal(batched.x, loop.x)

    def test_criterion_2_lps_match_enumeration_with_the_floor_at_2(self, monkeypatch):
        monkeypatch.setattr(_Tableau, "batch_floor", 2)
        batched = sum(assert_matches_enumeration(lp).batched_pivots for lp in criterion_2_lps())
        assert batched > 0

    def test_block_lps_match_enumeration_with_the_floor_at_2(self, monkeypatch):
        # >= rows over their own blocks of columns, coupled by random <= rows: the criterion 2
        # LPs share most columns, these let most rows qualify
        monkeypatch.setattr(_Tableau, "batch_floor", 2)
        rng = np.random.default_rng(33)
        batched = optimal = 0
        for _ in range(200):
            sizes = rng.integers(1, 3, int(rng.integers(2, 5)))
            n = int(sizes.sum())
            lo = rng.uniform(-1, 0, n)
            up = lo + rng.uniform(0.5, 3, n)
            ends = np.cumsum(sizes)
            rows = []
            for s, e in zip(sizes.tolist(), ends.tolist()):
                cf = rng.uniform(0.2, 2, s)
                # above the row's value at the lower bounds, below its value at the upper
                rhs = cf @ (lo + rng.uniform(0.1, 0.9) * (up - lo))[e - s : e]
                rows.append((tuple(range(e - s, e)), tuple(cf), GREATER_EQUAL, rhs))
            for _ in range(int(rng.integers(1, 4))):
                idx = tuple(np.flatnonzero(rng.random(n) < 0.6).tolist()) or (0,)
                cf = rng.uniform(-2, 2, len(idx))
                # at most the row's range above its value at the lower bounds
                rhs = cf @ lo[list(idx)] + rng.uniform(0, 1) * (abs(cf) @ (up - lo)[list(idx)])
                rows.append((idx, tuple(cf), LESS_EQUAL, rhs))
            lp = LinearProgram(n, rng.uniform(-0.5, 2, n), np.stack([lo, up], axis=1), rows_of(rows))
            stats = assert_matches_enumeration(lp)
            batched += stats.batched_pivots
            optimal += stats.worst_residual is not None
        assert batched >= 300 and optimal >= 100


class TestCheckPoint:
    def test_feasible_point_empty_report(self):
        lp = lp_1d([((0,), (1.0,), GREATER_EQUAL, 1.0)])
        assert check_point(lp, np.array([1.0]), 1e-9) == []

    def test_violation_magnitude(self):
        lp = lp_1d([((0,), (1.0,), GREATER_EQUAL, 1.0)])
        report = check_point(lp, np.array([0.5]), 1e-9)
        assert len(report) == 1
        assert report[0].kind == "constraint"
        assert report[0].amount == pytest.approx(0.5)

    def test_length_mismatch(self):
        lp = lp_1d([])
        with pytest.raises(LpFormatError):
            check_point(lp, np.array([1.0, 2.0]), 1e-9)

    def test_solve_and_check_never_validate_again(self, monkeypatch):
        calls = []
        post_init = LinearProgram.__post_init__

        def counting(lp):
            calls.append(lp)
            post_init(lp)

        monkeypatch.setattr(LinearProgram, "__post_init__", counting)
        rng = np.random.default_rng(5)
        for k in range(1, 21):
            lp = random_box_lp(rng)
            assert len(calls) == k
            with contextlib.suppress(LpInfeasibleError):
                check_point(lp, solve_lp(lp).x)
            check_point(lp, np.zeros(lp.num_vars))
            assert len(calls) == k

    def test_solve_gates_on_check_point_once(self, monkeypatch):
        calls = []
        check = lp_module.check_point

        def counting(lp, x, tol=lp_module.FEASIBILITY_TOL):
            calls.append(tol)
            return check(lp, x, tol)

        monkeypatch.setattr(lp_module, "check_point", counting)
        rng = np.random.default_rng(5)
        solved = 0
        for _ in range(20):
            with contextlib.suppress(LpInfeasibleError):
                solve_lp(random_box_lp(rng))
                solved += 1
                assert calls == [0.0]
            calls.clear()
        assert solved >= 5

    def test_non_finite_points_violate(self):
        box = [[0.0, 1.0], [0.0, 1.0]]
        lp = LinearProgram(2, [1.0, 1.0], box, rows_of([((0, 1), (1.0, 1.0), GREATER_EQUAL, 1.0)]))
        report = check_point(lp, np.array([np.nan, np.nan]), 1e-9)
        assert {(v.kind, v.index, v.amount) for v in report} == {
            ("lower_bound", 0, INF), ("lower_bound", 1, INF), ("constraint", 0, INF)
        }
        half_line = [[0.0, INF], [0.0, INF]]
        lp = LinearProgram(2, [1.0, 1.0], half_line, rows_of([((0, 1), (1.0, -1.0), LESS_EQUAL, 0.0)]))
        report = check_point(lp, np.array([INF, INF]), 1e-9)
        assert {(v.kind, v.index, v.amount) for v in report} == {
            ("upper_bound", 0, INF), ("upper_bound", 1, INF), ("constraint", 0, INF)
        }
        report = check_point(lp, np.array([-INF, 0.0]), 1e-9)
        assert {(v.kind, v.index, v.amount) for v in report} == {("lower_bound", 0, INF)}

    def test_solve_rejects_a_non_finite_point(self, monkeypatch):
        lp = lp_1d([((0,), (1.0,), GREATER_EQUAL, 1.0)])
        stats = lp_module.SolverStats(1, 1, 0, 0, 0, 0, False, 0.0)
        monkeypatch.setattr(lp_module, "_simplex", lambda lp: (np.array([np.nan]), stats))
        with pytest.raises(LpSolverError, match="worst inf"):
            solve_lp(lp)

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
            status, oracle = vertex_enumeration_optimum(lp)
            if status == "infeasible":
                with pytest.raises(LpInfeasibleError):
                    solve_lp(lp)
            else:
                optimal += 1
                sol = solve_lp(lp)
                assert abs(sol.objective_value - oracle) <= 1e-6 * (1 + abs(oracle))
        assert optimal >= 20  # the generator must exercise the optimal path

    def test_weak_duality_on_sampled_feasible_points(self):
        rng = np.random.default_rng(7)
        checked = 0
        while checked < 10:
            lp = random_box_lp(rng)
            try:
                sol = solve_lp(lp)
            except LpInfeasibleError:
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
    def test_dual_phase_iteration_limit(self, monkeypatch):
        # -x_i <= -1 for five columns of cost 1: each violated row takes one pivot
        def tableau():
            k = 5
            tab = np.zeros((k + 1, 2 * k + 1))
            tab[np.arange(k), np.arange(k)] = -1.0
            tab[np.arange(k), k + np.arange(k)] = 1.0
            tab[:k, -1] = -1.0
            tab[k, :k] = 1.0
            return _Tableau(tab, np.full(2 * k, INF), k + np.arange(k))

        monkeypatch.setattr(_Tableau, "bland_factor", 10**9)
        tab = tableau()
        assert tab.run_dual() is None
        assert tab.iterations == 5
        np.testing.assert_array_equal(tab.values(5), np.ones(5))
        tab = tableau()
        tab.max_iter = 2
        with pytest.raises(LpSolverError, match="iteration limit"):
            tab.run_dual()
        assert tab.iterations == 3 and not tab.bland

    def test_duplicate_constraints_terminate(self):
        dup = ((0, 1), (1.0, 1.0), LESS_EQUAL, 1.0)
        lp = LinearProgram(
            2,
            [-1.0, -1.0],
            [[0.0, 1.0], [0.0, 1.0]],
            rows_of([dup, dup, ((0, 1), (2.0, 2.0), LESS_EQUAL, 2.0)]),
        )
        sol = solve_lp(lp)
        assert sol.objective_value == pytest.approx(-1.0, abs=1e-9)

    def test_resolve_is_bit_identical(self):
        rng = np.random.default_rng(99)
        for _ in range(20):
            lp = random_box_lp(rng)
            runs = []
            for _ in range(2):
                try:
                    sol = solve_lp(lp)
                    runs.append((sol.x.tobytes(), sol.objective_value, sol.iterations))
                except LpInfeasibleError as exc:
                    runs.append((str(exc), exc.stats.iterations))
            assert runs[0] == runs[1]

    def test_objective_matches_dot_product(self):
        rng = np.random.default_rng(5)
        for lp, sol in optimal_solves(random_box_lp(rng) for _ in range(20)):
            direct = float(lp.objective @ sol.x)
            assert abs(sol.objective_value - direct) <= 1e-9 * (1 + abs(direct))


class TestPivot:
    """One pivot on a hand-built tableau: basis (4, 5), pivot on row 0, column 0.

    The pivot row is ``[1, 3, 2, 9.99999999, 1, 0 | 3]`` and the pivot column holds 0.1
    in row 1 and in the reduced-cost row, so each of their cells changes by 0.1
    times the pivot row's entry.
    """

    @staticmethod
    def pivoted():
        tab = np.array(
            [
                [1.0, 3.0, 2.0, 9.99999999, 1.0, 0.0, 3.0],
                [0.1, 0.3, 0.0, 1.0, 0.0, 1.0, 0.3],
                [0.1, 0.3, 0.0, 0.0, 0.0, 0.0, 0.0],
            ]
        )
        spans = np.array([1.0, INF, INF, INF, INF, INF])
        tab = _Tableau(tab, spans, np.array([4, 5]))
        tab._pivot(0, 0, leaves_at_upper=False)
        return tab

    def test_cancelling_cells_become_exact_zeros(self):
        assert 0.3 - 0.1 * 3.0 != 0.0  # the residue the rule removes
        tab = self.pivoted()
        # the matrix cell, the basic value and the reduced cost
        assert tab.tab[1, 1] == tab.rhs[1] == tab.red[1] == 0.0
        assert tab.pivot_cells == 12  # rows 1 and 2, columns 0-4 and the basic values
        assert tab.basis.tolist() == [0, 5]
        assert tab.basic_span.tolist() == [1.0, INF]
        assert tab.enterable.tolist() == [False, True, True, True, True, False]

    def test_fill_cells_are_kept(self):
        tab = self.pivoted()
        assert tab.tab[1, [2, 4]].tolist() == [-0.2, -0.1]
        assert tab.red[[2, 4]].tolist() == [-0.2, -0.1]

    def test_results_far_above_the_tolerance_are_kept(self):
        tab = self.pivoted()
        # 1 - 0.999999999: a result of 1e-9 relative to the old value is not residue
        assert tab.tab[1, 3] == 1.0 - 0.1 * 9.99999999 == pytest.approx(1e-9, rel=1e-6)


def test_dump_lp_one_line_per_constraint():
    lp = LinearProgram(
        2,
        [1.0, 0.0],
        [[0.0, 1.0], [0.0, INF]],
        rows_of([((0, 1), (1.0, -2.0), LESS_EQUAL, 3.0), ((0,), (1.0,), GREATER_EQUAL, 0.5)]),
    )
    text = dump_lp(lp)
    lines = [l for l in text.splitlines() if l.startswith("c: ")]
    assert lines == ["c: 0:1.0 1:-2.0 <= 3.0", "c: 0:-1.0 <= -0.5"]


class TestRows:
    """Rows are CSR arrays of ``<=`` rows; indexing gives one row as a one-row :class:`Rows`."""

    CONS = [
        ((0, 2), (1.0, -2.5), LESS_EQUAL, 3.0),
        ((), (), EQUAL, 0.0),
        ((1, 1, 0), (0.5, 0.5, 4.0), GREATER_EQUAL, -1.0),
    ]
    # the same rows as ``<=`` rows, (indices, coeffs, rhs) each: the "=" row as a pair,
    # the ">=" row negated
    READ = [
        ((0, 2), (1.0, -2.5), 3.0),
        ((), (), 0.0),
        ((), (), -0.0),
        ((1, 1, 0), (-0.5, -0.5, -4.0), 1.0),
    ]
    ROWS = Rows(
        [0, 2, 2, 2, 5], [0, 2, 1, 1, 0], [1.0, -2.5, -0.5, -0.5, -4.0], [3.0, 0.0, -0.0, 1.0]
    )

    @staticmethod
    def read(rows):
        """``(indices, coeffs, rhs)`` of each row, read from its one-row :class:`Rows`."""
        out = []
        for row in rows:
            assert isinstance(row, Rows) and row.indptr.tolist() == [0, len(row.indices)]
            (rhs,) = row.rhs.tolist()
            out.append((tuple(row.indices.tolist()), tuple(row.coeffs.tolist()), rhs))
        return out

    def test_constraints_read_back(self):
        lp = LinearProgram(3, [1.0, 1.0, 1.0], [[0.0, 1.0]] * 3, rows_of(self.CONS))
        assert self.read(lp.constraints) == self.READ
        assert self.read([lp.constraints[3]]) == self.READ[3:]
        assert lp.constraints.indptr.tolist() == [0, 2, 2, 2, 5]
        assert lp.constraints.rhs.tolist() == [3.0, 0.0, -0.0, 1.0]
        for k in (4, -1):  # rows are read forward from 0 only
            with pytest.raises(IndexError):
                lp.constraints[k]
        with pytest.raises(TypeError):
            Rows([0, 1], [0], [1.0], [0], [1.0])  # no relation field

    def test_replace_and_concatenate(self):
        lp = LinearProgram(3, [1.0, 1.0, 1.0], [[0.0, 1.0]] * 3, rows_of(self.CONS))
        doubled = dataclasses.replace(lp, constraints=stack_rows([lp.constraints] * 2))
        assert self.read(doubled.constraints) == self.READ * 2
        assert len(dataclasses.replace(lp, constraints=rows_of([])).constraints) == 0
        assert len(LinearProgram(3, [1.0, 1.0, 1.0], [[0.0, 1.0]] * 3).constraints) == 0

    def test_a_program_cannot_be_edited_in_place(self):
        bounds, rhs = np.array([[0.0, 1.0]]), np.array([1.0])
        lp = LinearProgram(1, [1.0], bounds, Rows([0, 1], [0], [1.0], rhs))
        # these two writes used to solve to objective_value=nan past the check made at creation
        with pytest.raises(ValueError, match="read-only"):
            lp.objective[0] = np.nan
        with pytest.raises(ValueError, match="read-only"):
            lp.var_bounds[0, 0] = -np.inf
        for name in ("indptr", "indices", "coeffs", "rhs"):
            with pytest.raises(ValueError, match="read-only"):
                getattr(lp.constraints, name)[0] = 0
        assert bounds.flags.writeable and rhs.flags.writeable  # the caller's arrays are theirs
        assert solve_lp(lp).objective_value == 0.0

    def test_list_and_arrays_dump_identically(self):
        listed = LinearProgram(3, [1.0, 0.0, 2.0], [[0.0, 1.0]] * 3, rows_of(self.CONS))
        arrays = LinearProgram(3, [1.0, 0.0, 2.0], [[0.0, 1.0]] * 3, self.ROWS)
        assert dump_lp(listed) == dump_lp(arrays)
        for name in ("indptr", "indices", "coeffs", "rhs"):
            got, want = getattr(listed.constraints, name), getattr(self.ROWS, name)
            assert got.dtype == want.dtype and np.array_equal(got, want)
        sc, _ = apply_demand_policy(bench_scenario(10, seed=0), "clamp")
        for built, _ in (build_nominal_lp(sc), build_robust_lp(sc, 12.0)):
            read = [(i, c, LESS_EQUAL, rhs) for i, c, rhs in self.read(built.constraints)]
            relisted = dataclasses.replace(built, constraints=rows_of(read))
            assert dump_lp(relisted) == dump_lp(built)

    @pytest.mark.parametrize(
        "rows, message",
        [
            (Rows([0, 2], [0, 3], [1.0, 1.0], [1.0]), "constraint 0: variable index 3"),
            (Rows([0, 1, 2], [0, -1], [1.0, 1.0], [1.0, 1.0]), "constraint 1: variable index -1"),
            (Rows([0, 1], [0], [1.0], [1.0, 1.0]), "not in CSR form"),  # two rhs, one row
            (Rows([0, 1], [0], [1.0], [np.nan]), "constraint 0: non-finite right-hand side"),
            (Rows([0, 2, 1], [0, 1], [1.0, 1.0], [1.0, 1.0]), "not in CSR form"),
            (Rows([0, 2], [0, 1], [1.0], [1.0]), "not in CSR form"),
            (Rows([0, 1, 3], [0, 0, 1], [1.0, np.nan, 1.0], [1.0, 1.0]),
             "constraint 1: non-finite coefficient"),
            (Rows([0, 1, 3], [0, 0, 1], [1.0, 1.0, -np.inf], [1.0, 1.0]),
             "constraint 1: non-finite coefficient"),
        ],
    )
    def test_malformed_rows_raise(self, rows, message):
        with pytest.raises(LpFormatError, match=message):
            LinearProgram(2, [1.0, 1.0], [[0.0, 1.0]] * 2, rows)

    def test_violations_match_row_by_row(self):
        rng = np.random.default_rng(11)
        for _ in range(50):
            lp = random_box_lp(rng)
            rows = lp.constraints
            x = rng.uniform(lp.var_bounds[:, 0] - 1, lp.var_bounds[:, 1] + 1)
            expected, lhs_by_row = {}, []
            for k, rhs in enumerate(rows.rhs):
                span = slice(rows.indptr[k], rows.indptr[k + 1])
                lhs = sum(c * x[j] for j, c in zip(rows.indices[span], rows.coeffs[span]))
                lhs_by_row.append(lhs)
                gap = lhs - rhs
                if gap > 1e-6:
                    expected[k] = gap
            assert rows.dot(x).tolist() == lhs_by_row
            got = {v.index: v.amount for v in check_point(lp, x, 1e-6) if v.kind == "constraint"}
            assert got.keys() == expected.keys()
            for k, gap in expected.items():
                assert got[k] == pytest.approx(gap, rel=1e-12, abs=1e-12)

    def test_constraint_list_raises(self):
        for constraints in ([((0,), (1.0,), 1.0)], [], ()):
            kind = type(constraints).__name__
            with pytest.raises(LpFormatError, match=f"constraints must be Rows, got {kind}"):
                LinearProgram(1, [1.0], [[0.0, 1.0]], constraints)


# (iterations, pivot cells, objective repr) of the delivery, nominal and robust
# (budget 12) LPs of two congested synthetic days; a change of the kernel's
# arithmetic or of its pivot choices shows here, and so does rounding residue
# that fills the tableau again.  The second day puts more than 32 sessions in
# some slot rows.  The charging LPs open with batched pivots (48 on the first
# day, 16 on the second); the delivery LPs stay below the pass's floor.
PINNED = [
    (
        dict(seed=1, num_slots=48),
        [
            (105, 3222, "-1875.2901459269854"),
            (198, 31475, "171.05853327497317"),
            (301, 454482, "186.53005903232005"),
        ],
    ),
    (
        dict(seed=2, num_slots=24, peak_overlap=True),
        [
            (14, 1494, "-446.41016378711856"),
            (54, 25226, "39.87578332112573"),
            (73, 39736, "49.84472915140717"),
        ],
    ),
]


@pytest.mark.parametrize("kwargs, expected", PINNED)
def test_kernel_is_pinned(monkeypatch, kwargs, expected):
    solved = []
    real = model.solve_lp

    def recording(lp):
        solved.append(real(lp))
        return solved[-1]

    monkeypatch.setattr(model, "solve_lp", recording)
    sc = random_scenario(60, max_power=22.0, station=StationConfig(grid_capacity=40.0), **kwargs)
    eff, adjustments = apply_demand_policy(sc, "clamp")
    assert adjustments  # the delivery LP was solved
    solve_deliverable(eff)
    solve_deliverable(eff, 12.0)
    assert [
        (s.iterations, s.stats.pivot_cells, repr(s.objective_value)) for s in solved
    ] == expected
