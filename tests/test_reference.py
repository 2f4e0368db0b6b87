"""The array code against small loop references on random ragged groups.

Each reference walks trajectories and chunks one at a time: pooled-mean
phase scores over real timesteps, and sums of per-chunk logprob_grad terms
for the full, masked and reweighted gradients. Trajectories have
different chunk counts and partial trailing chunks, so padding is exercised.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkmask.grpo import (
    ChunkedTrajectory,
    GaussianChunkPolicy,
    RolloutGroup,
    masked_loss_grad,
    reweighted_loss_grad,
)
from chunkmask.phases import PHASES
from chunkmask.sampling import (
    shrink_batch,
    weighted_sample_rows,
    weighted_sample_without_replacement,
)
from chunkmask.scores import compute_phase_scores

SETTINGS = settings(max_examples=60, deadline=None, database=None)
TOL = dict(rtol=1e-12, atol=1e-12)


@st.composite
def ragged_groups(draw):
    """(trajectories, policy): 2-5 trajectories of 1-6 chunks, each cut
    somewhere inside its last chunk; both outcomes present."""
    seed = draw(st.integers(0, 2**32 - 1))
    g = draw(st.integers(2, 5))
    f, l, d = draw(st.integers(1, 3)), draw(st.integers(1, 4)), draw(st.integers(1, 3))
    rng = np.random.default_rng(seed)
    rewards = [1.0, 0.0] + [float(r) for r in rng.integers(0, 2, size=g - 2)]
    trajectories = []
    for i in range(g):
        n = draw(st.integers(1, 6))
        t = draw(st.integers((n - 1) * l + 1, n * l))
        # Timesteps past t are padding; they hold junk that must never count.
        trajectories.append(ChunkedTrajectory(
            observations=rng.normal(size=(n, f)), actions=rng.normal(size=(n, l, d)),
            gripper=rng.uniform(size=t),
            phase_ids=rng.integers(0, len(PHASES), size=n),
            reward=rewards[i], trajectory_id=i))
    policy = GaussianChunkPolicy(rng.normal(size=(f, l * d)), float(rng.uniform(0.3, 1.5)))
    return trajectories, policy


def reference_scores(trajectories) -> dict:
    """C_c: distance between the success and failure means of the real
    per-timestep actions pooled over every phase-c chunk."""
    pools = {}
    for traj in trajectories:
        length, dim = traj.actions.shape[1:]
        real = traj.actions.reshape(-1, dim)[:len(traj.gripper)]
        for j, action in enumerate(real):
            pool = pools.setdefault(PHASES[traj.phase_ids[j // length]], {True: [], False: []})
            pool[traj.reward == 1.0].append(action)
    return {c: float(np.linalg.norm(np.mean(p[True], axis=0) - np.mean(p[False], axis=0)))
            for c, p in pools.items() if p[True] and p[False]}


def reference_grad(trajectories, advantages, policy, group_size, chunks=None,
                   scale=lambda phase: 1.0) -> np.ndarray:
    """-(1/G) sum over the chosen chunks of scale(phase) * A_i * logprob_grad,
    with the columns of padded action entries zeroed."""
    grad = np.zeros(policy.weights.shape)
    for i, (traj, a) in enumerate(zip(trajectories, advantages)):
        entries = len(traj.gripper) * traj.actions.shape[-1]
        width = traj.actions.shape[1] * traj.actions.shape[2]
        for k in (range(traj.num_chunks) if chunks is None else chunks[i]):
            _, g = policy.logprob_grad(traj.observations[k], traj.actions[k])
            g[:, max(entries - k * width, 0):] = 0.0
            grad -= scale(PHASES[traj.phase_ids[k]]) * a * g
    return grad.reshape(-1) / group_size


@SETTINGS
@given(ragged_groups())
def test_phase_scores_match_pooled_reference(case):
    trajectories, _ = case
    report = compute_phase_scores(RolloutGroup.from_trajectories(trajectories))
    expected = reference_scores(trajectories)
    assert {PHASES[k] for k in np.flatnonzero(np.isfinite(report))} == set(expected)
    for phase, value in expected.items():
        np.testing.assert_allclose(report[PHASES.index(phase)], value, **TOL)


@SETTINGS
@given(ragged_groups())
def test_full_gradient_matches_per_chunk_sum(case):
    trajectories, policy = case
    group = RolloutGroup.from_trajectories(trajectories)
    expected = reference_grad(trajectories, group.advantages, policy, len(trajectories))
    np.testing.assert_allclose(masked_loss_grad(group, policy), expected, **TOL)


@SETTINGS
@given(ragged_groups(), st.integers(0, 2**32 - 1))
def test_masked_and_reweighted_gradients_match_per_chunk_sums(case, seed):
    trajectories, policy = case
    group = RolloutGroup.from_trajectories(trajectories)
    rng = np.random.default_rng(seed)
    m = int(rng.integers(1, min(t.num_chunks for t in trajectories) + 1))
    chosen = np.array([np.sort(rng.choice(t.num_chunks, size=m, replace=False))
                       for t in trajectories])
    small = shrink_batch(group, chosen)
    g = len(trajectories)
    expected = reference_grad(trajectories, group.advantages, policy, g, chosen)
    np.testing.assert_allclose(masked_loss_grad(small, policy), expected, **TOL)

    probs = rng.uniform(0.1, 1.0, size=len(PHASES))
    expected = reference_grad(trajectories, group.advantages, policy, g, chosen,
                              scale=lambda phase: 1.0 / probs[PHASES.index(phase)])
    np.testing.assert_allclose(reweighted_loss_grad(small, policy, probs), expected, **TOL)


@SETTINGS
@given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=20),
       st.integers(1, 25), st.integers(0, 2**32 - 1))
def test_sampler_masks_are_unique_and_budget_sized(weights, m, seed):
    mask = weighted_sample_without_replacement(weights, m, np.random.default_rng(seed))
    assert mask.indices.size == min(m, len(weights))
    assert np.unique(mask.indices).size == mask.indices.size
    assert 0 <= mask.indices.min() and mask.indices.max() < len(weights)


@SETTINGS
@given(st.integers(1, 6), st.integers(1, 20), st.integers(1, 25), st.integers(0, 2**32 - 1))
def test_row_sampler_equals_single_row_sampler(rows, n, m, seed):
    weights = np.random.default_rng(seed).uniform(0.05, 1.0, size=(rows, n))
    streams = lambda: [np.random.default_rng((seed, r)) for r in range(rows)]  # noqa: E731
    batched = weighted_sample_rows(weights, m, streams())
    assert batched.shape == (rows, min(m, n))
    for row, w, rng in zip(batched, weights, streams()):
        assert np.array_equal(row, weighted_sample_without_replacement(w, m, rng).indices)
    # One Generator draws the keys of all rows as one row-major block: the
    # same stream as row-by-row draws from one shared generator.
    batched = weighted_sample_rows(weights, m, np.random.default_rng(seed))
    shared = np.random.default_rng(seed)
    for row, w in zip(batched, weights):
        assert np.array_equal(row, weighted_sample_without_replacement(w, m, shared).indices)
