"""Success-failure action variance per phase, online score sums, and
floored keep probabilities. Phase-keyed values are (P,) arrays indexed by
phase id (an index into PHASES), NaN where a phase has no value."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grpo import RolloutGroup
from .phases import PHASES


class GroupCollapsedError(ValueError):
    """All rewards in the group are equal, so the variance signal is empty."""


def compute_phase_scores(group: RolloutGroup) -> np.ndarray:
    """Success-failure action variance per phase, C_c as a (P,) array.

    Pools the per-timestep action vectors of every phase-c chunk across
    successful trajectories, likewise across failed ones, and scores the
    phase with the Euclidean norm of the difference of the two mean vectors.
    Only real timesteps are pooled. Rewards are binary (trace records are
    validated so), and a trajectory counts as a success when its reward is 1.
    A phase without chunks in both outcome groups is unscored (NaN).
    """
    if group.reward_variance == 0.0:
        raise GroupCollapsedError("group rewards have zero variance")
    p = len(PHASES)
    g, n, l, d = group.actions.shape
    # One bin per (outcome, phase) pair: failures 0..P-1, successes P..2P-1.
    bins = (group.phase_ids + p * (group.rewards == 1.0)[:, None]).reshape(-1)
    onehot_t = (np.arange(2 * p)[:, None] == bins).astype(float)  # (2P, G*N)
    real = group.actions.copy()
    real[~group.valid] = 0.0
    sums = (onehot_t @ real.reshape(g * n, l * d)).reshape(2 * p, l, d).sum(axis=1)
    per_chunk = group.valid.reshape(g * n, l) @ np.ones(l)  # real steps, exact
    steps = np.bincount(bins, weights=per_chunk, minlength=2 * p)       # (2P,)
    chunks = np.bincount(bins, weights=per_chunk > 0, minlength=2 * p)  # (2P,)
    means = sums / np.maximum(steps, 1.0)[:, None]
    gap = means[p:] - means[:p]
    # Row-wise dot products: the same BLAS arithmetic as the norm of one row.
    scores = np.sqrt((gap[:, None] @ gap[:, :, None]).ravel())
    scores[(chunks[p:] == 0) | (chunks[:p] == 0)] = np.nan
    return scores


@dataclass
class PhaseScoreState:
    """Online keep-probability state: per-phase score sums that are collapsed
    into floored, max-normalized keep probabilities every refresh_window
    scored batches."""

    refresh_window: int = 5
    floor: float = 0.1
    sums: np.ndarray = field(init=False)        # (P,) scores since the last refresh
    scored: bool = field(init=False)            # a finite score arrived since then
    keep_probs: np.ndarray = field(init=False)  # (P,); None until the first refresh
    steps_since_refresh: int = field(init=False)

    def __post_init__(self):
        if self.refresh_window < 1:
            raise ValueError("refresh_window must be >= 1")
        if not (0.0 < self.floor <= 1.0):
            raise ValueError("floor must lie in (0, 1]")
        self.sums, self.scored = np.zeros(len(PHASES)), False
        self.keep_probs, self.steps_since_refresh = None, 0

    def append_scores(self, scores: np.ndarray) -> None:
        """Add each scored phase's value to its sum; unscored (NaN) phases
        add nothing (a zero would bias the share against phases that were
        merely unobserved)."""
        finite = np.isfinite(scores)
        self.sums += np.where(finite, scores, 0.0)
        self.scored |= bool(finite.any())
        self.steps_since_refresh += 1

    @property
    def buffers_empty(self) -> bool:
        """No finite score was appended since the last refresh."""
        return not self.scored

    @property
    def refresh_due(self) -> bool:
        return self.keep_probs is None or self.steps_since_refresh >= self.refresh_window

    def refresh(self) -> np.ndarray:
        """Collapse the sums into keep probabilities and reset them.

        Shares are S_c / sum(S), max-normalized and floored at `floor`. If
        every S_c is zero the previous probabilities are retained.
        """
        total = self.sums.sum()
        if total > 0.0:
            shares = self.sums / total
            self.keep_probs = np.maximum(self.floor, shares / shares.max())
        elif self.keep_probs is None:
            # Degenerate first refresh with no signal anywhere: fall back to
            # keeping everything until scores arrive.
            self.keep_probs = np.ones(len(PHASES))
        self.sums, self.scored = np.zeros(len(PHASES)), False
        self.steps_since_refresh = 0
        return self.keep_probs

    def chunk_weights(self, phase_ids) -> np.ndarray:
        """Per-chunk sampling weights, shaped like phase_ids: each chunk
        inherits its phase's keep probability. Requires a prior refresh."""
        if self.keep_probs is None:
            raise ValueError("keep probabilities are undefined before the first refresh")
        return self.keep_probs[phase_ids]
