"""Variance-aware gradient budgeting for group-relative policy optimization
on chunked trajectories."""

from .allocation import (
    PhaseStats,
    bias_bound,
    estimator_variance,
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
    group_advantages,
    masked_loss_grad,
    phase_gradient_stats,
    reweighted_loss_grad,
)
from .phases import (
    PHASES,
    LabelingConfig,
    PhaseLabel,
    find_sustained_intervals,
    gripper_close_fraction,
    label_phases,
    phase_dict,
    phase_ids,
)
from .sampling import (SelectionMask, shrink_batch, weighted_sample_rows,
                       weighted_sample_without_replacement)
from .scores import (
    GroupCollapsedError,
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
    ToyTaskSpec,
    default_gripper_profile,
    generate_group,
    ground_truth_variance,
    initial_policy,
)
from .traces import (
    GroupShapeError,
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
