"""swarmform: decentralized rigid-formation motion planning and simulation.

Each robot maps its desired velocity into the five-parameter space of a
formation transformation (rotation, per-axis scaling, translation), runs
consensus and constraint-satisfaction steps against its communication
neighbours, and recovers a safe velocity command that keeps the swarm in
formation.
"""

from .apf import (
    ApfGains,
    Obstacle,
    PenetrationWarning,
    attractive_velocity,
    desired_velocity,
    potential_field,
    repulsive_velocity,
)
from .bench import BenchReport, StepStats, bench, collect_samples
from .constraints import (
    ConstraintSpec,
    OutsideHardSetError,
    hard_scale_factor,
    project_scaling,
    soft_set_distance,
)
from .fileio import (
    CSV_HEADER,
    ParseError,
    ValidationError,
    emit_scenario,
    export_csv,
    format_metrics_summary,
    parse_scenario,
    scenario_from_dict,
    scenario_to_dict,
    write_metrics_summary,
)
from .network import build_graph, exchange, square_distances
from .planner import (
    NonFiniteInputError,
    PlannerGains,
    PlannerState,
    TickResult,
    consensus_term,
    plan_tick,
    raw_derivative,
    recover_velocity,
    scale_derivative,
    soft_term,
    tracking_term,
)
from .presets import NOISE_SIGMA, reference_scenario
from .simulator import (
    ConsensusStabilityWarning,
    RunMetrics,
    Scenario,
    TrajectoryLog,
    compute_metrics,
    initial_positions,
    run,
    step_world,
)
from .sweep import SweepEntry, format_sweep_table, sweep
from .transform import (
    BaseConfiguration,
    FormationParams,
    ParamDerivative,
    SingularMatrixError,
    apply_transform,
    apply_transform_many,
    jacobian,
    pseudo_inverse,
    unit_grid,
)

__version__ = "0.1.0"
