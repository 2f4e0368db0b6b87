"""Synthetic chunked-manipulation environment with scripted phase structure.

Each trajectory follows a fixed scripted gripper profile, so the phase
layout is identical across rollouts. Success is decided solely by how close
the realized mean action of each outcome-critical phase lands to that
phase's latent target (shifted by a small per-rollout scene jitter, playing
the role of varied initial object configurations). Non-critical phases are
executed with strongly damped sampling noise, emulating phases a fine-tuned
policy has already mastered; this is what concentrates both the
success-failure action divergence and the true gradient variance on the
critical phases, with a known ground-truth ordering.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .grpo import GaussianChunkPolicy, RolloutGroup, _score_terms
from .phases import PHASES, PhaseLabel, label_phases

_DEFAULT_TARGETS = {
    PhaseLabel.ACTIVE_GRIP: (0.9, -0.4),
    PhaseLabel.PRE_GRASP: (0.45, 0.5),
}

# Scripted demonstration actions the policy is pre-fit to in phases it is
# assumed to have mastered.
_DEFAULT_BASE_ACTIONS = {
    PhaseLabel.APPROACH: (0.1, 0.1),
    PhaseLabel.RELEASE_RAMP: (0.2, -0.2),
    PhaseLabel.TAIL: (0.0, 0.0),
}

# Sampling-noise multiplier per phase (fraction of the policy sigma actually
# realized during execution). Critical phases explore at full sigma; mastered
# phases are nearly deterministic, with distinct levels so the ground-truth
# variance ordering over all five phases is strict.
_DEFAULT_EXEC_NOISE = {
    PhaseLabel.ACTIVE_GRIP: 1.0,
    PhaseLabel.PRE_GRASP: 0.65,
    PhaseLabel.APPROACH: 0.06,
    PhaseLabel.RELEASE_RAMP: 0.035,
    PhaseLabel.TAIL: 0.015,
}


def default_gripper_profile(num_chunks: int) -> np.ndarray:
    """Per-chunk gripper-close fractions producing all five phases.

    Supports the fast 16-chunk profile and the long 64-chunk profile used
    for budget-fraction checks; other sizes scale the 16-chunk segment
    layout proportionally.
    """
    if num_chunks == 16:
        segments = [(5, 0.0), (1, 0.2), (1, 0.3), (4, 0.9),
                    (1, 0.3), (1, 0.2), (1, 0.05), (2, 0.0)]
    elif num_chunks == 64:
        segments = [(16, 0.0), (1, 0.2), (1, 0.3), (1, 0.4), (24, 0.9),
                    (1, 0.3), (1, 0.2), (1, 0.12), (18, 0.05)]
    else:
        base = default_gripper_profile(16)
        idx = np.minimum((np.arange(num_chunks) * 16) // num_chunks, 15)
        return base[idx]
    return np.concatenate([np.full(n, v) for n, v in segments])


@dataclass
class ToyTaskSpec:
    chunks_per_traj: int = 16
    chunk_len: int = 8
    action_dim: int = 2
    critical_phases: tuple = (PhaseLabel.ACTIVE_GRIP, PhaseLabel.PRE_GRASP)
    targets: dict = field(default_factory=lambda: {
        c: np.asarray(v, dtype=float) for c, v in _DEFAULT_TARGETS.items()})
    base_actions: dict = field(default_factory=lambda: {
        c: np.asarray(v, dtype=float) for c, v in _DEFAULT_BASE_ACTIONS.items()})
    exec_noise: dict = field(default_factory=lambda: dict(_DEFAULT_EXEC_NOISE))
    tolerance: float = 0.15
    target_jitter: float = 0.05
    obs_noise: float = 0.003
    gripper_profile: np.ndarray = None
    # Phase ids (N,) and their one-hot rows (N, F) of the scripted profile,
    # labelled once at construction with the default LabelingConfig, as trace
    # records are: the layout is the same for every rollout.
    layout_ids: np.ndarray = field(init=False, repr=False, compare=False)
    layout_onehot: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.gripper_profile is None:
            self.gripper_profile = default_gripper_profile(self.chunks_per_traj)
        self.gripper_profile = np.asarray(self.gripper_profile, dtype=float)
        if self.gripper_profile.size != self.chunks_per_traj:
            raise ValueError("gripper profile length must equal chunks_per_traj")
        self.layout_ids = label_phases(self.gripper_profile)
        self.layout_onehot = np.eye(len(PHASES))[self.layout_ids]
        if np.unique(self.layout_ids).size != len(PHASES):
            raise ValueError("gripper profile must produce all five phases")
        for c in self.critical_phases:
            if c not in self.targets:
                raise ValueError(f"critical phase {c} has no latent target")


def initial_policy(spec: ToyTaskSpec, sigma: float = 0.3,
                   critical_offset: float = 0.11) -> GaussianChunkPolicy:
    """Policy emulating a supervised-fine-tuned initialization: mastered
    phases are pre-fit to the scripted demonstration actions, critical phases
    start offset from their latent targets."""
    ld = spec.chunk_len * spec.action_dim
    weights = np.zeros((len(PHASES), ld))
    for phase in PHASES:
        if phase in spec.critical_phases:
            direction = np.ones(spec.action_dim) / np.sqrt(spec.action_dim)
            mean = spec.targets[phase] + critical_offset * direction
        else:
            mean = spec.base_actions.get(phase, np.zeros(spec.action_dim))
        weights[PHASES.index(phase)] = np.tile(mean, spec.chunk_len)
    return GaussianChunkPolicy(weights=weights, sigma=sigma,
                               chunk_len=spec.chunk_len,
                               action_dim=spec.action_dim)


def phase_mean_action(actions: np.ndarray, idx: np.ndarray) -> np.ndarray:
    """(num, D) mean action over the chunks idx (sorted, unique, nonempty) of
    actions (num, N, L, D), in the summation order generate_batch fixes. Bit
    for bit actions[:, idx].mean(axis=(1, 2)) when D >= 2; for D = 1 numpy
    sums that reduction pairwise, so the two differ in the last bits."""
    num, _, l, d = actions.shape
    if idx[-1] - idx[0] + 1 == idx.size:  # contiguous, as in every profile: a view
        block = actions[:, idx[0]:idx[-1] + 1]
    else:
        block = actions[:, idx]
    return np.einsum("nkd->nd", block.reshape(num, -1, d)) / (idx.size * l)


def noise_size(spec: ToyTaskSpec, num: int, greedy: bool = False) -> int:
    """Length of the flat standard-normal block behind generate_batch(spec,
    policy, num, ..., greedy): observation noise, action noise unless
    greedy, and one jitter pair per critical phase."""
    n, f = spec.chunks_per_traj, len(PHASES)
    actions = 0 if greedy else n * spec.chunk_len * spec.action_dim
    return num * (n * f + actions + len(spec.critical_phases) * spec.action_dim)


def _noise_block(spec: ToyTaskSpec, num: int, rng, greedy: bool) -> np.ndarray:
    """rng itself when it is a pre-drawn block (any ndarray), checked against
    noise_size; otherwise one block drawn from the Generator rng."""
    size = noise_size(spec, num, greedy)
    if not isinstance(rng, np.ndarray):
        return rng.standard_normal(size)
    if rng.shape != (size,) or rng.dtype != np.float64:
        raise ValueError(f"noise block must be a flat float64 array of length {size}, "
                         f"got {rng.dtype} of shape {rng.shape}")
    return rng


def generate_batch(spec: ToyTaskSpec, policy: GaussianChunkPolicy, num: int,
                   rng, greedy: bool = False):
    """Vectorized rollout generation.

    rng is a Generator or a pre-drawn noise block: a flat float64 array of
    noise_size(spec, num, greedy) standard normals. The block is scaled in
    place, and the returned observations are a view of it.

    Returns (observations (num, N, F), actions (num, N, L, D),
    rewards (num,), distances {phase: (num,)}).

    Stream contract: all the randomness of a batch is one flat block of
    standard normals, taken from a Generator in one standard_normal call,
    in this order: the observation noise (num, N, F); then, unless greedy,
    the action noise (num, N, L*D); then one (num, D) jitter pair per
    critical phase, in spec.critical_phases order. Each part is read in C
    order. A Generator yields the same numbers in one call as in several,
    so this is the stream of drawing the parts one after another, and a
    block drawn ahead from the same Generator gives the same batch.

    Summation-order contract: the draws, their order and shapes, and every
    rounding that feeds a reward are fixed, so a seed gives the same
    rollouts, rewards and training runs bit for bit. The realized mean
    action of a critical phase with K chunks (phase_mean_action) adds its
    K*L timesteps one after another, in chunk then timestep order,
    separately for each action dimension, and divides by K*L once. Another
    order (pairwise, chunk by chunk, over a transposed copy) can move that
    mean by an ulp, enough to flip a reward lying at the tolerance and with
    it every random stream downstream.
    """
    n, f = spec.chunks_per_traj, len(PHASES)
    l, d = spec.chunk_len, spec.action_dim
    block = _noise_block(spec, num, rng, greedy)

    cut = num * n * f
    obs = block[:cut].reshape(num, n, f)
    obs *= spec.obs_noise
    obs += spec.layout_onehot
    actions = obs @ policy.weights  # (num, N, L*D) means, plus noise unless greedy
    if not greedy:
        noise = block[cut:cut + actions.size].reshape(actions.shape)
        cut += actions.size
        noise_scale = np.array([spec.exec_noise[c] for c in PHASES])[spec.layout_ids]
        noise *= policy.sigma * noise_scale[:, None]
        actions += noise
    actions = actions.reshape(num, n, l, d)

    rewards = np.ones(num)
    distances = {}
    for phase in spec.critical_phases:
        idx = np.flatnonzero(spec.layout_ids == PHASES.index(phase))
        realized = phase_mean_action(actions, idx)  # (num, D)
        jitter = spec.target_jitter * block[cut:cut + num * d].reshape(num, d)
        cut += num * d
        gap = realized - spec.targets[phase][None] - jitter
        dist = np.sqrt(np.add.reduce(gap * gap, axis=1))
        distances[phase] = dist
        rewards *= dist <= spec.tolerance
    return obs, actions, rewards, distances


def generate_group(spec: ToyTaskSpec, policy: GaussianChunkPolicy,
                   group_size: int, rng) -> RolloutGroup:
    """A rollout group for one task prompt. rng is a Generator, a seed or a
    pre-drawn noise block, as for generate_batch."""
    if not isinstance(rng, np.ndarray):
        rng = np.random.default_rng(rng)  # a Generator passes through unchanged
    obs, actions, rewards, _ = generate_batch(spec, policy, group_size, rng)
    n, l = spec.chunks_per_traj, spec.chunk_len
    return RolloutGroup(
        observations=obs, actions=actions,
        phase_ids=np.broadcast_to(spec.layout_ids, (group_size, n)),
        valid=np.ones((group_size, n, l), dtype=bool), rewards=rewards,
        gripper=np.broadcast_to(spec.gripper_profile[:, None], (group_size, n, l)))


def ground_truth_variance(spec: ToyTaskSpec, policy: GaussianChunkPolicy,
                          samples: int, rng, group_size: int = 10):
    """Monte Carlo oracle for the per-phase gradient variance.

    Draws `samples` rollouts in groups of `group_size`, forms group-relative
    advantages (collapsed groups are skipped), and returns per phase the
    trace of the sample covariance of the advantage-weighted score terms and
    its standard error, as two (P,) arrays (V_c, stderr), NaN for a phase
    with fewer than 2 chunks.
    """
    if samples < 1000:
        raise ValueError("oracle needs at least 1000 rollouts")
    rng = np.random.default_rng(rng)  # a Generator passes through unchanged
    blocks = []
    for _ in range(samples // group_size):
        group = generate_group(spec, policy, group_size, rng)
        if group.reward_variance == 0.0:
            continue
        blocks.append(_score_terms(group, policy))
    variances, stderr = np.full(len(PHASES), np.nan), np.full(len(PHASES), np.nan)
    if not blocks:
        return variances, stderr
    # One phase at a time: a copy of every term at once would double the
    # peak memory, which the groups' terms dominate.
    for k in range(len(PHASES)):
        block = np.concatenate([terms[ids == k] for terms, ids in blocks])
        m = block.shape[0]
        if m >= 2:
            sq = ((block - block.mean(axis=0)) ** 2).sum(axis=1)
            variances[k] = sq.sum() / (m - 1)
            stderr[k] = sq.std(ddof=1) / np.sqrt(m)
    return variances, stderr
