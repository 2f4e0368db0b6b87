"""Variance-aware gradient budgeting for group-relative policy optimization
on chunked trajectories."""

from .allocation import (
    AllocationPlan,
    PhaseStats,
    bias_bound,
    estimator_variance,
    make_plan,
    min_variance,
    neyman_allocation,
    ratio_estimator,
    speedup_ratio,
)
from .grpo import (
    ChunkedTrajectory,
    GaussianChunkPolicy,
    PhaseGradientStats,
    RolloutGroup,
    full_loss,
    full_loss_grad,
    group_advantages,
    masked_loss_grad,
    phase_gradient_stats,
    reweighted_loss_grad,
)
from .phases import (
    PHASES,
    GripperTrace,
    LabelingConfig,
    PhaseLabel,
    find_sustained_intervals,
    gripper_close_fraction,
    label_phases,
    label_trace,
    phase_ids,
)
from .sampling import (SelectionMask, shrink_batch, weighted_sample_rows,
                       weighted_sample_without_replacement)
from .scores import (
    GroupCollapsedError,
    PhaseScoreReport,
    PhaseScoreState,
    compute_phase_scores,
)
from .analysis import (
    AnalysisResult,
    BudgetSweep,
    GroupAnalysis,
    analyze,
    knee_point,
    sweep_budget,
)
from .toyworld import (
    ToyRollout,
    ToyTaskSpec,
    default_gripper_profile,
    generate_group,
    generate_rollout,
    ground_truth_variance,
    initial_policy,
)
from .traces import (
    TraceFormatError,
    TraceRecord,
    read_traces,
    records_to_group,
    write_traces,
)
from .trainer import (
    MODES,
    StepMetrics,
    TrainConfig,
    evaluate,
    final_success,
    run_seeds,
    train,
    write_metrics_csv,
)
from .verify import CheckResult, run_checks

__all__ = [name for name in dir() if not name.startswith("_")]
