"""Cost-minimal EV charging with on-site solar and price-uncertainty protection."""

from .fcfs import FcfsResult, run_fcfs
from .lp import (
    LinearProgram,
    LpFormatError,
    LpInfeasibleError,
    LpSolution,
    LpSolverError,
    Rows,
    SolverStats,
    check_point,
    dump_lp,
    solve_lp,
)
from .model import (
    DemandAdjustment,
    DemandInfeasibleError,
    Schedule,
    ScheduleConsistencyError,
    VariableMap,
    apply_demand_policy,
    build_nominal_lp,
    build_robust_lp,
    extract_schedule,
    max_delivery,
    solve_deliverable,
    solve_offline,
)
from .mpc import MpcConfig, MpcTrace, SolveEvent, detect_trigger, run_online
from .scenario import (
    ChargingSession,
    DeviationRule,
    PriceSeries,
    Scenario,
    ScenarioError,
    StationConfig,
    TimeGrid,
    build_scenario,
    parse_irradiance,
    parse_prices,
    parse_sessions,
    pv_cap,
)
from .synth import bench_scenario, random_scenario
from .uncertainty import UncertaintyBudget, worst_case_extra_cost, worst_case_total_cost

__version__ = "0.1.0"
