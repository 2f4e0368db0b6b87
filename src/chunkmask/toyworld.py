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

A ToyTaskSpec is an immutable value: it sets the trajectory length, the
critical phases, the per-phase execution noise and the scene jitter, holds
the rest as class constants, and derives every array a rollout reads once.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from types import MappingProxyType
from typing import ClassVar, Mapping

import numpy as np

from .grpo import GaussianChunkPolicy, RolloutGroup, _score_terms
from .phases import PHASES, PhaseLabel, label_phases

# Sampling-noise multiplier per phase (fraction of the policy sigma actually
# realized during execution). Critical phases explore at full sigma; mastered
# phases are nearly deterministic, with distinct levels so the ground-truth
# variance ordering over all five phases is strict.
_DEFAULT_EXEC_NOISE = MappingProxyType({
    PhaseLabel.ACTIVE_GRIP: 1.0,
    PhaseLabel.PRE_GRASP: 0.65,
    PhaseLabel.APPROACH: 0.06,
    PhaseLabel.RELEASE_RAMP: 0.035,
    PhaseLabel.TAIL: 0.015,
})

POLICY_SIGMA = 0.3  # standard deviation of the initial policy's actions
CRITICAL_OFFSET = 0.11  # distance of a critical phase's initial mean from its target
_ORACLE_GROUP_SIZE = 10  # rollouts per group in ground_truth_variance


def _read_only(array: np.ndarray) -> np.ndarray:
    array.setflags(write=False)
    return array


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


@dataclass(frozen=True)
class ToyTaskSpec:
    chunks_per_traj: int = 16
    critical_phases: tuple = (PhaseLabel.ACTIVE_GRIP, PhaseLabel.PRE_GRASP)
    # Copied at construction into a read-only mapping.
    exec_noise: Mapping = field(default_factory=lambda: _DEFAULT_EXEC_NOISE)
    target_jitter: float = 0.05

    chunk_len: ClassVar[int] = 8
    action_dim: ClassVar[int] = 2
    tolerance: ClassVar[float] = 0.15
    obs_noise: ClassVar[float] = 0.003
    # Latent target of each phase that can be critical.
    targets: ClassVar[Mapping] = MappingProxyType({
        PhaseLabel.ACTIVE_GRIP: _read_only(np.array([0.9, -0.4])),
        PhaseLabel.PRE_GRASP: _read_only(np.array([0.45, 0.5])),
    })
    # Scripted demonstration actions the policy is pre-fit to in phases it
    # is assumed to have mastered.
    base_actions: ClassVar[Mapping] = MappingProxyType({
        PhaseLabel.APPROACH: _read_only(np.array([0.1, 0.1])),
        PhaseLabel.RELEASE_RAMP: _read_only(np.array([0.2, -0.2])),
        PhaseLabel.TAIL: _read_only(np.array([0.0, 0.0])),
    })

    # Derived at construction, read-only: the scripted profile (N,); its
    # phase ids (N,) and their one-hot rows (N, F), labelled as trace
    # records are, since the layout is the same for every rollout; the
    # execution-noise multiplier of each chunk (N,); and the chunks of each
    # critical phase as one slice, in critical_phases order.
    gripper_profile: np.ndarray = field(init=False, repr=False, compare=False)
    layout_ids: np.ndarray = field(init=False, repr=False, compare=False)
    layout_onehot: np.ndarray = field(init=False, repr=False, compare=False)
    noise_scale: np.ndarray = field(init=False, repr=False, compare=False)
    critical_chunks: tuple = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        profile = default_gripper_profile(self.chunks_per_traj)
        ids = label_phases(profile)
        if np.unique(ids).size != len(PHASES):
            raise ValueError("gripper profile must produce all five phases")
        chunks = []
        for c in self.critical_phases:
            if c not in self.targets:
                raise ValueError(f"critical phase {c} has no latent target")
            idx = np.flatnonzero(ids == PHASES.index(c))
            if idx[-1] - idx[0] + 1 != idx.size:
                raise ValueError(f"critical phase {c} is not one run of chunks")
            chunks.append(slice(int(idx[0]), int(idx[-1]) + 1))
        noise = MappingProxyType(dict(self.exec_noise))
        derived = {
            "critical_phases": tuple(self.critical_phases),
            "exec_noise": noise,
            "gripper_profile": _read_only(profile),
            "layout_ids": _read_only(ids),
            "layout_onehot": _read_only(np.eye(len(PHASES))[ids]),
            "noise_scale": _read_only(np.array([noise[c] for c in PHASES])[ids]),
            "critical_chunks": tuple(chunks),
        }
        for name, value in derived.items():
            object.__setattr__(self, name, value)


def initial_policy(spec: ToyTaskSpec) -> GaussianChunkPolicy:
    """Policy emulating a supervised-fine-tuned initialization: mastered
    phases are pre-fit to the scripted demonstration actions, critical phases
    start CRITICAL_OFFSET from their latent targets; every action has
    standard deviation POLICY_SIGMA."""
    weights = np.zeros((len(PHASES), spec.chunk_len * spec.action_dim))
    for phase in PHASES:
        if phase in spec.critical_phases:
            direction = np.ones(spec.action_dim) / np.sqrt(spec.action_dim)
            mean = spec.targets[phase] + CRITICAL_OFFSET * direction
        else:
            mean = spec.base_actions.get(phase, np.zeros(spec.action_dim))
        weights[PHASES.index(phase)] = np.tile(mean, spec.chunk_len)
    return GaussianChunkPolicy(weights=weights, sigma=POLICY_SIGMA)


def phase_mean_action(actions: np.ndarray, chunks: slice) -> np.ndarray:
    """(num, D) mean action over the nonempty chunk range chunks of actions
    (num, N, L, D), in the summation order generate_batch fixes. Bit for bit
    actions[:, chunks].mean(axis=(1, 2)) when D >= 2; for D = 1 numpy sums
    that reduction pairwise, so the two differ in the last bits."""
    num, _, l, d = actions.shape
    block = actions[:, chunks]  # a view
    return np.einsum("nkd->nd", block.reshape(num, -1, d)) / (block.shape[1] * l)


def noise_size(spec: ToyTaskSpec, num: int, greedy: bool = False) -> int:
    """Length of the flat standard-normal block behind generate_batch(spec,
    policy, num, ..., greedy): observation noise, action noise unless
    greedy, and one jitter pair per critical phase."""
    n, f = spec.chunks_per_traj, len(PHASES)
    actions = 0 if greedy else n * spec.chunk_len * spec.action_dim
    return num * (n * f + actions + len(spec.critical_phases) * spec.action_dim)


def generate_batch(spec: ToyTaskSpec, policy: GaussianChunkPolicy, num: int,
                   block: np.ndarray, greedy: bool = False):
    """Vectorized rollout generation from a pre-drawn noise block: a flat
    float64 array of noise_size(spec, num, greedy) standard normals, scaled
    in place; the returned observations are a view of it. Anything else
    raises ValueError.

    Returns (observations (num, N, F), actions (num, N, L, D), rewards (num,)).

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
    size = noise_size(spec, num, greedy)
    if not (isinstance(block, np.ndarray) and block.shape == (size,)
            and block.dtype == np.float64):
        raise ValueError(f"noise block must be a flat float64 array of length {size}, "
                         f"got {getattr(block, 'dtype', type(block).__name__)} "
                         f"of shape {np.shape(block)}")

    cut = num * n * f
    obs = block[:cut].reshape(num, n, f)
    obs *= spec.obs_noise
    obs += spec.layout_onehot
    actions = obs @ policy.weights  # (num, N, L*D) means, plus noise unless greedy
    if not greedy:
        noise = block[cut:cut + actions.size].reshape(actions.shape)
        cut += actions.size
        noise *= policy.sigma * spec.noise_scale[:, None]
        actions += noise
    actions = actions.reshape(num, n, l, d)

    rewards = np.ones(num)
    for phase, chunks in zip(spec.critical_phases, spec.critical_chunks):
        realized = phase_mean_action(actions, chunks)  # (num, D)
        jitter = spec.target_jitter * block[cut:cut + num * d].reshape(num, d)
        cut += num * d
        gap = realized - spec.targets[phase][None] - jitter
        rewards *= np.sqrt(np.add.reduce(gap * gap, axis=1)) <= spec.tolerance
    return obs, actions, rewards


def generate_group(spec: ToyTaskSpec, policy: GaussianChunkPolicy,
                   group_size: int, rng) -> RolloutGroup:
    """A rollout group for one task prompt. rng is a pre-drawn noise block,
    as for generate_batch, or a Generator or a seed, from which this draws
    the block in one standard_normal call."""
    if not isinstance(rng, np.ndarray):
        rng = np.random.default_rng(rng).standard_normal(noise_size(spec, group_size))
    obs, actions, rewards = generate_batch(spec, policy, group_size, rng)
    n, l = spec.chunks_per_traj, spec.chunk_len
    return RolloutGroup(
        observations=obs, actions=actions,
        phase_ids=np.broadcast_to(spec.layout_ids, (group_size, n)),
        valid=np.ones((group_size, n, l), dtype=bool), rewards=rewards,
        gripper=np.broadcast_to(spec.gripper_profile[:, None], (group_size, n, l)))


def ground_truth_variance(spec: ToyTaskSpec, policy: GaussianChunkPolicy,
                          samples: int, rng):
    """Monte Carlo oracle for the per-phase gradient variance.

    Draws `samples` rollouts in groups of _ORACLE_GROUP_SIZE, forms group-relative
    advantages (collapsed groups are skipped), and returns per phase the
    trace of the sample covariance of the advantage-weighted score terms and
    its standard error, as two (P,) arrays (V_c, stderr), NaN for a phase
    with fewer than 2 chunks.
    """
    if samples < 1000:
        raise ValueError("oracle needs at least 1000 rollouts")
    rng = np.random.default_rng(rng)  # a Generator passes through unchanged
    blocks = []
    for _ in range(samples // _ORACLE_GROUP_SIZE):
        group = generate_group(spec, policy, _ORACLE_GROUP_SIZE, rng)
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
