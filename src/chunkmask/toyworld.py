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

from .grpo import ChunkedTrajectory, GaussianChunkPolicy, RolloutGroup, _score_terms
from .phases import PHASES, LabelingConfig, PhaseLabel, label_phases, phase_ids

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
    labeling: LabelingConfig = field(default_factory=LabelingConfig)
    # Phase ids (N,) and their one-hot rows (N, F) of the scripted profile,
    # labelled once at construction: the layout is the same for every rollout.
    layout_ids: np.ndarray = field(init=False, repr=False, compare=False)
    layout_onehot: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if self.gripper_profile is None:
            self.gripper_profile = default_gripper_profile(self.chunks_per_traj)
        self.gripper_profile = np.asarray(self.gripper_profile, dtype=float)
        if self.gripper_profile.size != self.chunks_per_traj:
            raise ValueError("gripper profile length must equal chunks_per_traj")
        self.layout_ids = phase_ids(label_phases(self.gripper_profile, self.labeling))
        self.layout_onehot = np.eye(len(PHASES))[self.layout_ids]
        if np.unique(self.layout_ids).size != len(PHASES):
            raise ValueError("gripper profile must produce all five phases")
        for c in self.critical_phases:
            if c not in self.targets:
                raise ValueError(f"critical phase {c} has no latent target")

    def phase_layout(self) -> list[PhaseLabel]:
        """Per-chunk phase labels of the scripted profile (same for every
        rollout)."""
        return [PHASES[k] for k in self.layout_ids]

    def phase_counts(self) -> dict:
        counts = np.bincount(self.layout_ids, minlength=len(PHASES))
        return {c: int(counts[k]) for k, c in enumerate(PHASES)}

    def gripper_commands(self) -> np.ndarray:
        """Per-timestep close commands: each chunk holds its fraction
        constant, so the per-chunk means reproduce the profile exactly."""
        return np.repeat(self.gripper_profile, self.chunk_len)

    @property
    def num_features(self) -> int:
        return len(PHASES)

    def phase_index(self, phase: PhaseLabel) -> int:
        return PHASES.index(phase)


@dataclass
class ToyRollout:
    """A generated trajectory plus its ground-truth success determinants."""

    trajectory: ChunkedTrajectory
    critical_distances: dict  # phase -> distance of realized mean action to target


def initial_policy(spec: ToyTaskSpec, sigma: float = 0.3,
                   critical_offset: float = 0.11) -> GaussianChunkPolicy:
    """Policy emulating a supervised-fine-tuned initialization: mastered
    phases are pre-fit to the scripted demonstration actions, critical phases
    start offset from their latent targets."""
    ld = spec.chunk_len * spec.action_dim
    weights = np.zeros((spec.num_features, ld))
    for phase in PHASES:
        if phase in spec.critical_phases:
            direction = np.ones(spec.action_dim) / np.sqrt(spec.action_dim)
            mean = spec.targets[phase] + critical_offset * direction
        else:
            mean = spec.base_actions.get(phase, np.zeros(spec.action_dim))
        weights[spec.phase_index(phase)] = np.tile(mean, spec.chunk_len)
    return GaussianChunkPolicy(weights=weights, sigma=sigma,
                               chunk_len=spec.chunk_len,
                               action_dim=spec.action_dim)


def generate_batch(spec: ToyTaskSpec, policy: GaussianChunkPolicy, num: int,
                   rng: np.random.Generator, greedy: bool = False):
    """Vectorized rollout generation.

    Returns (observations (num, N, F), actions (num, N, L, D),
    rewards (num,), distances {phase: (num,)}).
    """
    n, f = spec.chunks_per_traj, spec.num_features
    l, d = spec.chunk_len, spec.action_dim

    obs = spec.layout_onehot[None] + spec.obs_noise * rng.standard_normal((num, n, f))
    mean = obs @ policy.weights  # (num, N, L*D)
    if greedy:
        actions = mean
    else:
        noise = rng.standard_normal(mean.shape)
        noise_scale = np.array([spec.exec_noise[c] for c in PHASES])[spec.layout_ids]
        actions = mean + policy.sigma * noise_scale[None, :, None] * noise
    actions = actions.reshape(num, n, l, d)

    rewards = np.ones(num)
    distances = {}
    for phase in spec.critical_phases:
        idx = np.flatnonzero(spec.layout_ids == spec.phase_index(phase))
        realized = actions[:, idx].mean(axis=(1, 2))  # (num, D)
        jitter = spec.target_jitter * rng.standard_normal((num, d))
        dist = np.linalg.norm(realized - spec.targets[phase][None] - jitter, axis=1)
        distances[phase] = dist
        rewards *= dist <= spec.tolerance
    return obs, actions, rewards, distances


def generate_rollout(spec: ToyTaskSpec, policy: GaussianChunkPolicy,
                     seed) -> ToyRollout:
    """One seeded rollout; identical (spec, policy, seed) give identical
    output."""
    rng = np.random.default_rng(seed)
    obs, actions, rewards, distances = generate_batch(spec, policy, 1, rng)
    traj = ChunkedTrajectory(
        observations=obs[0],
        actions=actions[0],
        gripper=spec.gripper_commands(),
        labels=spec.phase_layout(),
        reward=float(rewards[0]),
    )
    return ToyRollout(trajectory=traj,
                      critical_distances={c: float(v[0]) for c, v in distances.items()})


def generate_group(spec: ToyTaskSpec, policy: GaussianChunkPolicy,
                   group_size: int, rng, epsilon: float = 1e-6) -> RolloutGroup:
    """A rollout group for one task prompt."""
    rng = np.random.default_rng(rng)  # a Generator passes through unchanged
    obs, actions, rewards, _ = generate_batch(spec, policy, group_size, rng)
    n, l = spec.chunks_per_traj, spec.chunk_len
    return RolloutGroup(
        observations=obs, actions=actions,
        phase_ids=np.broadcast_to(spec.layout_ids, (group_size, n)),
        valid=np.ones((group_size, n, l), dtype=bool), rewards=rewards,
        gripper=np.broadcast_to(spec.gripper_profile[:, None], (group_size, n, l)),
        epsilon=epsilon)


def ground_truth_variance(spec: ToyTaskSpec, policy: GaussianChunkPolicy,
                          samples: int, rng, group_size: int = 10):
    """Monte Carlo oracle for the per-phase gradient variance.

    Draws `samples` rollouts in groups of `group_size`, forms group-relative
    advantages (collapsed groups are skipped), and returns per phase the
    trace of the sample covariance of the advantage-weighted score terms,
    with its standard error: {phase: (V_c, stderr)}.
    """
    if samples < 1000:
        raise ValueError("oracle needs at least 1000 rollouts")
    rng = np.random.default_rng(rng)  # a Generator passes through unchanged
    terms_by_phase = {c: [] for c in PHASES}
    for _ in range(samples // group_size):
        group = generate_group(spec, policy, group_size, rng)
        if group.reward_variance == 0.0:
            continue
        terms, ids = _score_terms(group, policy)
        for k, phase in enumerate(PHASES):
            terms_by_phase[phase].append(terms[ids == k])

    result = {}
    for phase, blocks in terms_by_phase.items():
        if not blocks:
            continue
        block = np.concatenate(blocks)
        m = block.shape[0]
        if m < 2:
            continue
        centered = block - block.mean(axis=0)
        sq = (centered**2).sum(axis=1)
        variance = float(sq.sum() / (m - 1))
        stderr = float(sq.std(ddof=1) / np.sqrt(m))
        result[phase] = (variance, stderr)
    return result
