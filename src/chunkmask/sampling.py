"""Fixed-budget weighted sampling without replacement over chunks, and the
physical shrinking of a rollout group to its selected chunks."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .grpo import RolloutGroup


@dataclass(frozen=True, eq=False)  # array fields: compared and hashed by identity
class SelectionMask:
    """Selected chunk indices for one trajectory, stored sorted."""

    indices: np.ndarray

    def __post_init__(self):
        object.__setattr__(self, "indices", np.sort(np.asarray(self.indices, dtype=int)))


def weighted_sample_rows(weights, m: int, rng) -> np.ndarray:
    """Draw min(m, N) distinct indices from every row of weights (R, N), each
    with sequential probability proportional to the remaining weights.

    Implemented with weight-scaled exponential keys (take the m smallest of
    each row with one row-wise partition), which is distributionally
    identical to sequential draws without replacement and runs in linear
    time. rng is one Generator, which draws the keys of all rows as one
    row-major (R, N) block (the same stream as drawing the rows one after
    another), or a sequence of R generators, one per row. Returns sorted
    indices (R, min(m, N)); deterministic given the generator states.
    """
    weights = np.asarray(weights, dtype=float)
    if weights.ndim != 2 or weights.size == 0:
        raise ValueError("weights must be a nonempty 2-D array")
    if not np.all(weights > 0.0):  # also rejects NaN
        raise ValueError("all sampling weights must be positive")
    if m < 1:
        raise ValueError("sample size must be >= 1")
    r, n = weights.shape
    m = min(m, n)
    if isinstance(rng, np.random.Generator):
        keys = rng.exponential(size=(r, n))
    else:
        if len(rng) != r:
            raise ValueError("need exactly one generator per row")
        keys = np.empty((r, n))
        for g, row in zip(rng, keys):
            g.standard_exponential(out=row)  # exponential(size=n), in place
    keys /= weights
    return np.sort(np.argpartition(keys, m - 1, axis=1)[:, :m], axis=1)


def weighted_sample_without_replacement(weights, m: int, rng) -> SelectionMask:
    """One row of weighted_sample_rows: min(m, N) distinct indices of a 1-D
    weight vector, drawn from the Generator rng."""
    indices = weighted_sample_rows(np.asarray(weights, dtype=float)[None], m, rng)[0]
    return SelectionMask(indices)


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


def shrink_batch(group: RolloutGroup, indices) -> RolloutGroup:
    """Compact a group to its selected chunks, gathering along the chunk axis:
    row i of indices (G, m) holds the chunk positions kept from trajectory i.

    Every retained chunk keeps its observation, actions, validity, gripper
    commands and phase id, and every trajectory its reward and advantage;
    the compacted group remembers the source group size so loss
    normalization is unchanged.
    """
    idx = np.asarray(indices, dtype=int)
    g, n = group.phase_ids.shape
    if idx.ndim != 2 or idx.shape[0] != g:
        raise ValueError("need exactly one row of chunk indices per trajectory")
    rows = np.arange(g)[:, None]
    in_range = idx.size == 0 or (idx.min() >= 0 and idx.max() < n)
    valid = group.valid[rows, idx] if in_range else None
    # Every kept chunk must hold a real timestep, not only padding.
    if not in_range or not valid.any(axis=2).all():
        raise ValueError(f"chunk indices {idx.tolist()} reference chunks outside "
                         "the trajectories")
    return RolloutGroup(
        observations=group.observations[rows, idx], actions=group.actions[rows, idx],
        phase_ids=group.phase_ids[rows, idx], valid=valid,
        rewards=group.rewards, gripper=group.gripper[rows, idx],
        trajectory_ids=group.trajectory_ids, advantages=group.advantages,
        group_size=group.group_size)
