"""Offline analysis of trajectory traces: per-group phase score tables,
keep-probability estimation, mask sampling, and the budget sweep with knee
detection on the cumulative score-mass curve."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .phases import PHASES
from .sampling import weighted_sample_without_replacement
from .scores import (
    GroupCollapsedError,
    PhaseScoreReport,
    PhaseScoreState,
    compute_phase_scores,
)
from .traces import group_records, records_to_group


@dataclass
class GroupAnalysis:
    task_id: str
    num_trajectories: int
    report: PhaseScoreReport = None
    masks: list = None
    skipped_reason: str = None


@dataclass
class AnalysisResult:
    groups: list          # GroupAnalysis, file order
    keep_probs: dict      # aggregated phase -> p
    budget: int


def _score_groups(records, p_min: float = 0.1):
    """Build and score every task group once. Returns the per-group analyses
    (file order), the groups, and the refreshed keep-probability state.

    Groups whose rewards have zero variance are reported as skipped; a group
    with fewer than 2 trajectories is an input error.
    """
    grouped = group_records(records)
    if not grouped:
        raise ValueError("no trace records to analyze")
    state = PhaseScoreState(refresh_window=len(grouped), floor=p_min)
    analyses, groups = [], []
    for task_id, members in grouped.items():
        if len(members) < 2:
            raise ValueError(
                f"task {task_id!r}: group size {len(members)} < 2")
        group = records_to_group(members)
        groups.append(group)
        try:
            report = compute_phase_scores(group)
        except GroupCollapsedError:
            analyses.append(GroupAnalysis(
                task_id=task_id, num_trajectories=len(members),
                skipped_reason="zero reward variance"))
            continue
        state.append_scores(report)
        analyses.append(GroupAnalysis(
            task_id=task_id, num_trajectories=len(members), report=report))

    if state.buffers_empty:
        raise ValueError("every group was skipped; nothing to score")
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
            weighted_sample_without_replacement(w[:n], min(budget, n), rng, i)
            for i, (w, n) in enumerate(zip(weights, group.chunk_mask.sum(axis=1)))]
    return AnalysisResult(groups=analyses, keep_probs=dict(state.keep_probs),
                          budget=budget)


@dataclass
class BudgetSweep:
    fractions: np.ndarray   # fraction of chunks retained, ascending
    captured: np.ndarray    # cumulative share of total phase-score mass
    knee_index: int         # index into the arrays; last point if undefined
    knee_fraction: float
    knee_captured: float
    knee_defined: bool


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
    scores = np.zeros(len(PHASES))
    for analysis in analyses:
        if analysis.report is not None:
            for c, value in analysis.report.scores.items():
                scores[PHASES.index(c)] += value
    chunk_scores = np.concatenate([scores[g.phase_ids[g.chunk_mask]] for g in groups])
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
        knee_captured=float(captured[index]), knee_defined=defined)
