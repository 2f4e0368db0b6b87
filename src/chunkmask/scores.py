"""Success-failure action variance per phase, online score buffers, and
floored keep probabilities."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grpo import RolloutGroup
from .phases import PHASES


class GroupCollapsedError(ValueError):
    """All rewards in the group are equal, so the variance signal is empty."""


@dataclass
class PhaseScoreReport:
    """Per-phase success-failure scores for one rollout group.

    A phase gets a score only when both outcome groups contain at least one
    of its chunks; otherwise it is flagged skipped.
    """

    scores: dict = field(default_factory=dict)  # phase -> C_c
    skipped: set = field(default_factory=set)


def compute_phase_scores(group: RolloutGroup) -> PhaseScoreReport:
    """Success-failure action variance per phase.

    Pools the per-timestep action vectors of every phase-c chunk across
    successful trajectories, likewise across failed ones, and scores the
    phase with the Euclidean norm of the difference of the two mean vectors.
    Only real timesteps are pooled. Rewards are binary (trace records are
    validated so), and a trajectory counts as a success when its reward is 1.
    """
    if group.reward_variance == 0.0:
        raise GroupCollapsedError("group rewards have zero variance")
    p = len(PHASES)
    g, n, l, d = group.actions.shape
    # One bin per (outcome, phase) pair: failures 0..P-1, successes P..2P-1.
    bins = (group.phase_ids + p * (group.rewards == 1.0)[:, None]).reshape(-1)
    onehot_t = (np.arange(2 * p)[:, None] == bins).astype(float)  # (2P, G*N)
    valid = group.valid.reshape(g * n, l)
    real = (group.actions * group.valid[..., None]).reshape(g * n, l * d)
    sums = (onehot_t @ real).reshape(2 * p, l, d).sum(axis=1)  # (2P, D)
    steps = (onehot_t @ valid).sum(axis=1)                    # (2P,)
    chunks = onehot_t @ valid.any(axis=1)                      # (2P,)

    report = PhaseScoreReport()
    for k in np.flatnonzero(chunks[:p] + chunks[p:]):
        phase, neg, pos = PHASES[k], k, p + k
        if chunks[pos] == 0 or chunks[neg] == 0:
            report.skipped.add(phase)
            continue
        gap = sums[pos] / steps[pos] - sums[neg] / steps[neg]
        report.scores[phase] = float(np.linalg.norm(gap))
    return report


@dataclass
class PhaseScoreState:
    """Online keep-probability state: short per-phase score buffers that are
    collapsed into floored, max-normalized keep probabilities every
    refresh_window scored batches."""

    refresh_window: int = 5
    floor: float = 0.1
    buffers: dict = None
    keep_probs: dict = None  # None until the first refresh
    steps_since_refresh: int = 0

    def __post_init__(self):
        if self.refresh_window < 1:
            raise ValueError("refresh_window must be >= 1")
        if not (0.0 < self.floor <= 1.0):
            raise ValueError("floor must lie in (0, 1]")
        if self.buffers is None:
            self.buffers = {c: [] for c in PHASES}

    def append_scores(self, report: PhaseScoreReport) -> None:
        """Append each scored phase's value to its buffer; skipped phases get
        no entry (a zero would bias the share against phases that were merely
        unobserved)."""
        for phase, value in report.scores.items():
            self.buffers[phase].append(value)
        self.steps_since_refresh += 1

    @property
    def buffers_empty(self) -> bool:
        return all(not buf for buf in self.buffers.values())

    @property
    def refresh_due(self) -> bool:
        return self.keep_probs is None or self.steps_since_refresh >= self.refresh_window

    def refresh(self) -> dict:
        """Collapse buffers into keep probabilities and reset them.

        S_c = sum of the buffer, shares are S_c / sum(S), max-normalized and
        floored at `floor`. If every S_c is zero the previous probabilities
        are retained.
        """
        sums = {c: float(sum(self.buffers[c])) for c in PHASES}
        total = sum(sums.values())
        if total > 0.0:
            shares = {c: sums[c] / total for c in PHASES}
            top = max(shares.values())
            self.keep_probs = {
                c: max(self.floor, shares[c] / top) for c in PHASES
            }
        elif self.keep_probs is None:
            # Degenerate first refresh with no signal anywhere: fall back to
            # keeping everything until scores arrive.
            self.keep_probs = {c: 1.0 for c in PHASES}
        self.buffers = {c: [] for c in PHASES}
        self.steps_since_refresh = 0
        return self.keep_probs

    def chunk_weights(self, phase_ids) -> np.ndarray:
        """Per-chunk sampling weights, shaped like phase_ids: each chunk
        inherits its phase's keep probability. Requires a prior refresh."""
        if self.keep_probs is None:
            raise ValueError("keep probabilities are undefined before the first refresh")
        return np.array([self.keep_probs[c] for c in PHASES])[phase_ids]
