"""Offline analysis of trajectory traces: per-group phase score tables,
keep-probability estimation, mask sampling, and the budget sweep with knee
detection on the cumulative score-mass curve."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .phases import phase_dict
from .sampling import weighted_sample_without_replacement
from .scores import GroupCollapsedError, PhaseScoreState, compute_phase_scores
from .traces import GroupShapeError, group_records, records_to_group


@dataclass
class GroupAnalysis:
    task_id: str
    num_trajectories: int
    report: np.ndarray = None  # (P,) phase scores, NaN unscored; None if skipped
    masks: list = None
    skipped_reason: str = None


@dataclass
class AnalysisResult:
    groups: list          # GroupAnalysis, file order
    keep_probs: dict      # aggregated phase -> p


def _score_groups(records, p_min: float = 0.1):
    """Build and score every task group once. Returns the per-group analyses
    (file order), the groups, and the refreshed keep-probability state.

    Groups whose rewards have zero variance, and groups that cannot be
    stacked (fewer than 2 trajectories, or trajectories that differ in chunk
    shape; their group is None), are reported as skipped; if every group is,
    the ValueError names each reason.
    """
    grouped = group_records(records)
    if not grouped:
        raise ValueError("no trace records to analyze")
    state = PhaseScoreState(refresh_window=len(grouped), floor=p_min)
    analyses, groups = [], []
    for task_id, members in grouped.items():
        analysis, group = GroupAnalysis(task_id=task_id, num_trajectories=len(members)), None
        try:
            group = records_to_group(members)
            analysis.report = compute_phase_scores(group)
        except GroupShapeError as exc:
            analysis.skipped_reason = str(exc)
        except GroupCollapsedError:
            analysis.skipped_reason = "zero reward variance"
        else:
            state.append_scores(analysis.report)
        analyses.append(analysis)
        groups.append(group)

    if state.buffers_empty:
        raise ValueError("every group was skipped; nothing to score ("
                         + "; ".join(a.skipped_reason for a in analyses) + ")")
    state.refresh()
    return analyses, groups, state


def analyze(records, budget: int = 12, p_min: float = 0.1,
            seed: int = 0) -> AnalysisResult:
    """Score every task group, aggregate a keep-probability table across
    the scoreable groups, and sample a budgeted chunk mask per trajectory."""
    analyses, groups, state = _score_groups(records, p_min)
    rng = np.random.default_rng(seed)
    for analysis, group in zip(analyses, groups):
        if analysis.report is None:
            continue
        weights = state.chunk_weights(group.phase_ids)
        analysis.masks = [
            weighted_sample_without_replacement(w[:n], min(budget, n), rng)
            for w, n in zip(weights, group.chunk_mask.sum(axis=1))]
    return AnalysisResult(groups=analyses, keep_probs=phase_dict(state.keep_probs))


@dataclass
class BudgetSweep:
    fractions: np.ndarray   # fraction of chunks retained, ascending
    captured: np.ndarray    # cumulative share of total phase-score mass
    knee_index: int         # index into the arrays; last point if undefined
    knee_fraction: float
    knee_captured: float
    knee_defined: bool
    skipped: list = field(default_factory=list)  # reasons, for groups left off the curve


def knee_point(fractions, captured) -> tuple:
    """Index of maximum vertical distance above the uniform diagonal.

    Returns (index, defined); a curve that never rises above the diagonal
    has no knee, and the full budget (last index) is reported.
    """
    fractions = np.asarray(fractions, dtype=float)
    captured = np.asarray(captured, dtype=float)
    gap = captured - fractions
    best = int(np.argmax(gap))
    if gap[best] <= 1e-12:
        return len(fractions) - 1, False
    return best, True


def sweep_budget(records) -> BudgetSweep:
    """Rank all chunks by their phase score and trace how much of the total
    score mass is captured as the retained fraction grows."""
    analyses, groups, _ = _score_groups(records)
    scores = np.nansum([a.report for a in analyses if a.report is not None], axis=0)
    chunk_scores = np.concatenate([scores[g.phase_ids[g.chunk_mask]]
                                   for g in groups if g is not None])
    chunk_scores = np.sort(chunk_scores)[::-1]

    total = chunk_scores.sum()
    n = chunk_scores.size
    fractions = np.arange(1, n + 1) / n
    if total <= 0.0:
        captured = fractions.copy()  # uniform mass degenerates to the diagonal
    else:
        captured = np.cumsum(chunk_scores) / total
    index, defined = knee_point(fractions, captured)
    return BudgetSweep(
        fractions=fractions, captured=captured, knee_index=index,
        knee_fraction=float(fractions[index]),
        knee_captured=float(captured[index]), knee_defined=defined,
        skipped=[a.skipped_reason for a, g in zip(analyses, groups) if g is None])
