"""Group-relative advantages, analytic Gaussian chunk policy, and loss
gradients with per-phase decomposition and variance estimates.

A RolloutGroup holds G trajectories of up to N chunks as stacked arrays,
from rollout to gradient:

    observations   (G, N, F)     per-chunk features
    actions        (G, N, L, D)  L timesteps of D-dimensional actions per chunk
    phase_ids      (G, N)        integer phase of each chunk, an index into PHASES
    valid          (G, N, L)     True on real timesteps; False on the zero
                                 padding of a partial trailing chunk and of
                                 chunks past a shorter trajectory's end
    gripper        (G, N, L)     per-timestep gripper-close commands
    rewards        (G,)          binary outcomes; advantages, trajectory_ids (G,)

Scores and gradients weight every timestep by `valid`, so padding never
counts. Shrinking a group to selected chunks gathers along the chunk axis
and keeps `group_size`, the size of the source group, for normalization;
masked_loss_grad is the one gradient of the objective, over all chunks of
an unshrunk group and over the kept chunks of a shrunk one.

Per-phase values are (P,) arrays indexed by phase id, NaN where a phase
has no value: keep probabilities for reweighted_loss_grad, and the counts,
mean score terms (P, K) and variances of PhaseGradientStats.

ChunkedTrajectory is the per-trajectory form used at the edges, trace I/O
and tests; it carries the same phase ids, (N,) per trajectory
(RolloutGroup.from_trajectories and .trajectories convert between the two).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .phases import PHASES


@dataclass
class ChunkedTrajectory:
    """One rollout: per-chunk observations and actions plus the gripper trace,
    phase ids, and binary reward.

    observations: (N, F); actions: (N, L, D); phase_ids: (N,) indices into
    PHASES.
    """

    observations: np.ndarray
    actions: np.ndarray
    gripper: np.ndarray
    phase_ids: np.ndarray
    reward: float
    trajectory_id: int = 0

    def __post_init__(self):
        self.observations = np.asarray(self.observations, dtype=float)
        self.actions = np.asarray(self.actions, dtype=float)
        self.phase_ids = np.asarray(self.phase_ids, dtype=int)
        n = self.observations.shape[0]
        if self.actions.shape[0] != n or self.phase_ids.shape != (n,):
            raise ValueError("observations, actions, and phase ids must cover the same chunks")

    @property
    def num_chunks(self) -> int:
        return self.observations.shape[0]


@dataclass
class RolloutGroup:
    """G trajectories for one task prompt, stacked chunk by chunk and padded
    to the longest trajectory (see the module docstring for the layout)."""

    observations: np.ndarray
    actions: np.ndarray
    phase_ids: np.ndarray
    valid: np.ndarray
    rewards: np.ndarray
    gripper: np.ndarray
    trajectory_ids: np.ndarray = None
    advantages: np.ndarray = None
    # Group size of the uncompacted source group; kept through shrinking so
    # the masked loss normalizes identically to the full loss.
    group_size: int = None

    def __post_init__(self):
        g = self.phase_ids.shape[0]
        if self.trajectory_ids is None:
            self.trajectory_ids = np.arange(g)
        if self.group_size is None:
            self.group_size = g
        if self.advantages is None:
            self.advantages = group_advantages(self.rewards)
        else:
            self.advantages = np.asarray(self.advantages, dtype=float)

    @classmethod
    def from_trajectories(cls, trajectories) -> "RolloutGroup":
        """Stack ChunkedTrajectory objects, zero-padding shorter ones. A
        trajectory's real timesteps are the first len(gripper) of its
        chunks; the rest of its chunks is marked invalid."""
        trajectories = list(trajectories)
        g, n = len(trajectories), max(t.num_chunks for t in trajectories)
        f = trajectories[0].observations.shape[1]
        l, d = trajectories[0].actions.shape[1:]
        obs, actions = np.zeros((g, n, f)), np.zeros((g, n, l, d))
        ids, valid = np.zeros((g, n), dtype=int), np.zeros((g, n, l), dtype=bool)
        gripper = np.zeros((g, n, l))
        for i, traj in enumerate(trajectories):
            k, t = traj.num_chunks, min(len(traj.gripper), traj.num_chunks * l)
            obs[i, :k], actions[i, :k] = traj.observations, traj.actions
            ids[i, :k] = traj.phase_ids
            valid[i].reshape(-1)[:t] = True
            gripper[i].reshape(-1)[:t] = traj.gripper[:t]
        return cls(obs, actions, ids, valid,
                   np.array([t.reward for t in trajectories], dtype=float),
                   gripper, np.array([t.trajectory_id for t in trajectories]))

    @property
    def trajectories(self) -> list[ChunkedTrajectory]:
        """Per-trajectory view without padding, for trace writing and tests."""
        chunks = self.chunk_mask.sum(axis=1).tolist()
        return [
            ChunkedTrajectory(
                observations=self.observations[i, :k], actions=self.actions[i, :k],
                gripper=self.gripper[i, :k][self.valid[i, :k]],
                phase_ids=self.phase_ids[i, :k], reward=reward, trajectory_id=tid)
            for i, (k, reward, tid) in enumerate(
                zip(chunks, self.rewards.tolist(), self.trajectory_ids.tolist()))
        ]

    @property
    def chunk_mask(self) -> np.ndarray:
        """(G, N): chunks holding at least one real timestep."""
        return self.valid.any(axis=2)

    @property
    def reward_variance(self) -> float:
        r = self.rewards
        return float(((r - r.sum() / r.size) ** 2).sum() / r.size)


def group_advantages(rewards, epsilon: float = 1e-6) -> np.ndarray:
    """Reward standardized against the group's population mean and standard
    deviation: A_i = (r_i - mean) / (std + epsilon)."""
    rewards = np.asarray(rewards, dtype=float)
    if rewards.size < 2:
        raise ValueError("need at least 2 rollouts to form group-relative advantages")
    mu = rewards.sum() / rewards.size
    sigma = np.sqrt(((rewards - mu) ** 2).sum() / rewards.size)
    return (rewards - mu) / (sigma + epsilon)


@dataclass
class GaussianChunkPolicy:
    """Linear-Gaussian chunk policy.

    The action-mean for a chunk is obs @ weights, a flattened (L*D,) vector;
    every action entry carries the same standard deviation sigma. Log
    probabilities and their parameter gradients are analytic, so gradient
    claims can be checked exactly.
    """

    weights: np.ndarray  # (F, L*D)
    sigma: float
    chunk_len: int
    action_dim: int

    def __post_init__(self):
        self.weights = np.asarray(self.weights, dtype=float)
        if self.sigma <= 0.0:
            raise ValueError("policy sigma must be positive")
        if self.weights.shape[1] != self.chunk_len * self.action_dim:
            raise ValueError("weights must map features to chunk_len * action_dim means")

    def mean(self, obs: np.ndarray) -> np.ndarray:
        """Flattened action mean(s); obs may be a single (F,) vector or a
        batch (..., F)."""
        return np.asarray(obs, dtype=float) @ self.weights

    def logprob_grad(self, obs: np.ndarray, actions: np.ndarray):
        """(log probability, gradient wrt weights) for one chunk. The log
        probability is that of a factorized Gaussian over all L*D action
        entries; the score is outer(obs, (a - mu) / sigma^2), shape (F, L*D).
        """
        obs = np.asarray(obs, dtype=float)
        delta = np.asarray(actions, dtype=float).reshape(-1) - self.mean(obs)
        grad = np.outer(obs, delta / self.sigma**2)
        logp = (-0.5 * np.dot(delta, delta) / self.sigma**2
                - delta.size * (np.log(self.sigma) + 0.5 * np.log(2.0 * np.pi)))
        return float(logp), grad


def _deltas(group: RolloutGroup, policy: GaussianChunkPolicy) -> np.ndarray:
    """(G, N, L*D) action residuals a - mu, zero at padded timesteps."""
    g, n, l, d = group.actions.shape
    mean = (group.observations.reshape(g * n, -1) @ policy.weights).reshape(g, n, l, d)
    delta = group.actions - mean
    delta[~group.valid] = 0.0
    return delta.reshape(g, n, l * d)


def _loss_grad(group: RolloutGroup, policy: GaussianChunkPolicy,
               chunk_scale=None) -> np.ndarray:
    """-(1/G) sum_{i,k} w_ik A_i dlogpi(a_ik|s_ik)/dtheta, flattened, as one
    contraction over the chunk axes; w_ik = chunk_scale (default 1)."""
    weight = group.advantages[:, None]
    if chunk_scale is not None:
        weight = weight * chunk_scale
    f = group.observations.shape[-1]
    obs = (group.observations * weight[..., None]).reshape(-1, f)
    delta = _deltas(group, policy) / policy.sigma**2
    grad = obs.T @ delta.reshape(obs.shape[0], -1)
    return -grad.reshape(-1) / group.group_size


def _score_terms(group: RolloutGroup, policy: GaussianChunkPolicy):
    """Per-chunk advantage-weighted score terms A_i * dlogpi/dtheta of the
    real chunks, flattened to (M, F*L*D), plus their phase ids (M,)."""
    delta = _deltas(group, policy) / policy.sigma**2
    scores = group.observations[..., None] * delta[..., None, :]  # (G, N, F, L*D)
    terms = group.advantages[:, None, None, None] * scores
    real = group.chunk_mask
    return terms[real].reshape(int(real.sum()), -1), group.phase_ids[real]


def full_loss(group: RolloutGroup, policy: GaussianChunkPolicy) -> float:
    """Value of the group objective -(1/G) sum_i A_i sum_k log pi(a_k|s_k),
    over real timesteps only."""
    delta = _deltas(group, policy)
    entries = group.valid.sum(axis=2) * group.actions.shape[-1]  # (G, N)
    logp = (-0.5 * (delta**2).sum(axis=2) / policy.sigma**2
            - entries * (np.log(policy.sigma) + 0.5 * np.log(2.0 * np.pi)))
    return -float(group.advantages @ logp.sum(axis=1)) / group.group_size


def masked_loss_grad(compacted: RolloutGroup, policy: GaussianChunkPolicy) -> np.ndarray:
    """Gradient of -(1/G) sum_{i,k} A_i log pi(a_ik|s_ik) wrt the policy
    weights, flattened, over the chunks the group holds, with no 1/p_c
    importance weights: on an unshrunk group it is the full loss gradient.
    Normalization uses the source group size carried through shrinking."""
    return _loss_grad(compacted, policy)


def reweighted_loss_grad(compacted: RolloutGroup, policy: GaussianChunkPolicy,
                         keep_probs: np.ndarray) -> np.ndarray:
    """Importance-weighted unbiased counterpart of masked_loss_grad: each
    selected chunk is scaled by 1 / p_phase, keep_probs being (P,). Used for
    variance comparisons, not as the training update."""
    return _loss_grad(compacted, policy, 1.0 / np.asarray(keep_probs)[compacted.phase_ids])


@dataclass
class PhaseGradientStats:
    """Per-phase chunk counts (P,), mean score terms (P, K) and scalar
    variances (P,), indexed by phase id.

    mean_scores[c] is the mean of the per-chunk terms A_i * dlogpi (NaN for a
    phase without chunks); the phase gradient is -(counts[c] / G) *
    mean_scores[c], so the phase gradients of the present phases sum to the
    full loss gradient. variances[c] is the trace of the sample covariance of
    the terms (NaN for phases with < 2 chunks).
    """

    counts: np.ndarray
    mean_scores: np.ndarray
    variances: np.ndarray
    group_size: int = 1

    @property
    def gradients(self) -> np.ndarray:
        """(P, K) phase gradients; NaN rows for absent phases."""
        return -self.counts[:, None] * self.mean_scores / self.group_size


def phase_gradient_stats(group: RolloutGroup, policy: GaussianChunkPolicy) -> PhaseGradientStats:
    """Phase-wise decomposition of the group gradient plus per-phase scalar
    variance of the advantage-weighted score terms."""
    terms, ids = _score_terms(group, policy)
    onehot = (ids[:, None] == np.arange(len(PHASES))).astype(float)  # (M, P)
    counts = onehot.sum(axis=0)
    means = (onehot.T @ terms) / np.maximum(counts, 1.0)[:, None]
    sq = onehot.T @ ((terms - means[ids]) ** 2).sum(axis=1)
    means[counts == 0] = np.nan
    variances = np.where(counts >= 2, sq / np.maximum(counts - 1.0, 1.0), np.nan)
    return PhaseGradientStats(counts, means, variances, group.group_size)
