"""Fixed-budget weighted sampling without replacement over chunks, and the
physical shrinking of a rollout group to its selected chunks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grpo import RolloutGroup


@dataclass(frozen=True)
class SelectionMask:
    """Selected chunk indices for one trajectory; budget = min(B, N)."""

    trajectory_id: int
    indices: np.ndarray  # sorted, unique
    budget: int

    def __post_init__(self):
        indices = np.sort(np.asarray(self.indices, dtype=int))
        object.__setattr__(self, "indices", indices)
        if indices.size != self.budget:
            raise ValueError("mask size must equal the trajectory budget")
        if indices.size != np.unique(indices).size:
            raise ValueError("mask indices must be unique")


def weighted_sample_without_replacement(weights, m: int, rng,
                                        trajectory_id: int = 0) -> SelectionMask:
    """Draw min(m, N) distinct indices with sequential probability
    proportional to the remaining weights.

    Implemented with weight-scaled exponential keys (take the m smallest),
    which is distributionally identical to sequential draws without
    replacement and runs in linear time. Deterministic given the generator
    state.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 1 or weights.size == 0:
        raise ValueError("weights must be a nonempty 1-D array")
    if np.any(weights <= 0.0):
        raise ValueError("all sampling weights must be positive")
    if m < 1:
        raise ValueError("sample size must be >= 1")
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    m = min(m, weights.size)
    keys = rng.exponential(size=weights.size) / weights
    selected = np.argpartition(keys, m - 1)[:m]
    return SelectionMask(trajectory_id=trajectory_id,
                         indices=np.sort(selected), budget=m)


def inclusion_probabilities(weights, m: int) -> np.ndarray:
    """Exact inclusion probabilities of sequential weighted sampling without
    replacement, by enumeration over ordered draw sequences. Exponential in m;
    intended as a small-instance oracle."""
    from itertools import permutations

    weights = np.asarray(weights, dtype=float)
    n = weights.size
    m = min(m, n)
    probs = np.zeros(n)
    for seq in permutations(range(n), m):
        p = 1.0
        remaining = weights.sum()
        for idx in seq:
            p *= weights[idx] / remaining
            remaining -= weights[idx]
        for idx in seq:
            probs[idx] += p
    return probs


def weighted_sample_rows(weights, m: int, rngs) -> np.ndarray:
    """Row-wise weighted_sample_without_replacement: row r of weights (R, N)
    draws its keys from rngs[r], and one row-wise partition picks the
    min(m, N) smallest keys of every row. Returns sorted indices (R, min(m, N));
    row r equals weighted_sample_without_replacement(weights[r], m, rngs[r])."""
    weights = np.asarray(weights, dtype=float)
    m = min(m, weights.shape[1])
    keys = np.stack([rng.exponential(size=weights.shape[1]) for rng in rngs]) / weights
    return np.sort(np.argpartition(keys, m - 1, axis=1)[:, :m], axis=1)


def shrink_batch(group: RolloutGroup, indices) -> RolloutGroup:
    """Compact a group to its selected chunks, gathering along the chunk axis:
    row i of indices (G, m) holds the chunk positions kept from trajectory i.

    Every retained chunk keeps its observation, actions, validity, gripper
    commands, phase id and original chunk index, and every trajectory its
    reward and advantage; the compacted group remembers the source group size
    so loss normalization is unchanged.
    """
    idx = np.asarray(indices, dtype=int)
    g, n = group.phase_ids.shape
    if idx.ndim != 2 or idx.shape[0] != g:
        raise ValueError("need exactly one row of chunk indices per trajectory")
    rows = np.arange(g)[:, None]
    if idx.size and (idx.min() < 0 or idx.max() >= n or not group.chunk_mask[rows, idx].all()):
        raise ValueError(f"chunk indices {idx.tolist()} reference chunks outside "
                         "the trajectories")
    return RolloutGroup(
        observations=group.observations[rows, idx], actions=group.actions[rows, idx],
        phase_ids=group.phase_ids[rows, idx], valid=group.valid[rows, idx],
        rewards=group.rewards, gripper=group.gripper[rows, idx],
        trajectory_ids=group.trajectory_ids, chunk_indices=group.chunk_indices[rows, idx],
        epsilon=group.epsilon, advantages=group.advantages, group_size=group.group_size)
