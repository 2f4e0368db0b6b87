import numpy as np
import pytest

from chunkmask.grpo import (
    ChunkedTrajectory,
    GaussianChunkPolicy,
    RolloutGroup,
    full_loss,
    group_advantages,
    masked_loss_grad,
    phase_gradient_stats,
    reweighted_loss_grad,
)
from chunkmask.phases import PHASES
from chunkmask.sampling import shrink_batch


class TestAdvantages:
    def test_single_success_example(self):
        adv = group_advantages([1.0, 0.0, 0.0, 0.0], epsilon=0.0)
        expected = [np.sqrt(3), -1 / np.sqrt(3), -1 / np.sqrt(3), -1 / np.sqrt(3)]
        assert np.allclose(adv, expected)

    def test_population_statistics_used(self):
        # Std is the population value sqrt(0.25), not the sample value.
        adv = group_advantages([1.0, 0.0], epsilon=0.0)
        assert np.allclose(adv, [1.0, -1.0])

    def test_epsilon_stabilizes_uniform_rewards(self):
        adv = group_advantages([1.0, 1.0, 1.0], epsilon=1e-6)
        assert np.allclose(adv, 0.0)

    def test_too_few_rollouts(self):
        with pytest.raises(ValueError):
            group_advantages([1.0])


def random_group(rng, g=4, n=5, f=3, l=2, d=2):
    trajectories = []
    rewards = [1.0, 0.0] + [float(rng.integers(0, 2)) for _ in range(g - 2)]
    for i in range(g):
        trajectories.append(ChunkedTrajectory(
            observations=rng.normal(size=(n, f)),
            actions=rng.normal(size=(n, l, d)),
            gripper=np.zeros(n * l),
            phase_ids=np.arange(n) % len(PHASES),
            reward=rewards[i],
            trajectory_id=i,
        ))
    return RolloutGroup.from_trajectories(trajectories)


def random_policy(rng, f=3, l=2, d=2):
    return GaussianChunkPolicy(weights=rng.normal(size=(f, l * d)),
                               sigma=float(rng.uniform(0.4, 1.2)))


class TestGroupLayout:
    def test_ragged_trajectories_are_padded_and_masked(self):
        rng = np.random.default_rng(11)
        short = ChunkedTrajectory(rng.normal(size=(2, 3)), rng.normal(size=(2, 2, 2)),
                                  np.zeros(3), [0, 1], 1.0, trajectory_id=7)
        long = ChunkedTrajectory(rng.normal(size=(3, 3)), rng.normal(size=(3, 2, 2)),
                                 np.zeros(6), [2] * 3, 0.0, trajectory_id=8)
        group = RolloutGroup.from_trajectories([short, long])
        assert group.actions.shape == (2, 3, 2, 2)
        assert group.valid.tolist() == [[[True, True], [True, False], [False, False]],
                                        [[True, True]] * 3]
        assert group.phase_ids[:, :2].tolist() == [[0, 1], [2, 2]]
        assert group.chunk_mask.sum(axis=1).tolist() == [2, 3]
        back = group.trajectories
        assert [t.num_chunks for t in back] == [2, 3]
        assert [len(t.gripper) for t in back] == [3, 6]
        assert np.array_equal(back[0].phase_ids, short.phase_ids) and back[1].trajectory_id == 8
        assert np.array_equal(back[0].actions, short.actions)

    def test_shrink_rejects_padded_chunks(self):
        rng = np.random.default_rng(12)
        trajs = [ChunkedTrajectory(rng.normal(size=(n, 3)), rng.normal(size=(n, 2, 2)),
                                   np.zeros(2 * n), [0] * n, float(i), trajectory_id=i)
                 for i, n in enumerate((1, 3))]
        group = RolloutGroup.from_trajectories(trajs)
        with pytest.raises(ValueError):
            shrink_batch(group, np.array([[1], [1]]))
        assert shrink_batch(group, np.array([[0], [2]])).chunk_mask.all()


class TestPolicy:
    def test_log_prob_matches_gaussian_density(self):
        rng = np.random.default_rng(0)
        policy = random_policy(rng)
        obs = rng.normal(size=3)
        act = rng.normal(size=(2, 2))
        delta = act.reshape(-1) - obs @ policy.weights
        expected = np.sum(
            -0.5 * delta**2 / policy.sigma**2
            - np.log(policy.sigma) - 0.5 * np.log(2 * np.pi))
        assert np.isclose(policy.logprob_grad(obs, act)[0], expected)

    def test_score_is_outer_product(self):
        rng = np.random.default_rng(1)
        policy = random_policy(rng)
        obs = rng.normal(size=3)
        act = rng.normal(size=(2, 2))
        _, grad = policy.logprob_grad(obs, act)
        delta = act.reshape(-1) - obs @ policy.weights
        assert np.allclose(grad, np.outer(obs, delta / policy.sigma**2))

    def test_sigma_validated(self):
        with pytest.raises(ValueError):
            GaussianChunkPolicy(np.zeros((2, 4)), 0.0)


class TestGradients:
    def test_finite_differences(self):
        rng = np.random.default_rng(3)
        for _ in range(10):
            group = random_group(rng)
            policy = random_policy(rng)
            grad = masked_loss_grad(group, policy)
            eps = 1e-6
            flat = policy.weights.reshape(-1)
            fd = np.empty_like(grad)
            for j in range(flat.size):
                saved = flat[j]
                flat[j] = saved + eps
                hi = full_loss(group, policy)
                flat[j] = saved - eps
                lo = full_loss(group, policy)
                flat[j] = saved
                fd[j] = (hi - lo) / (2 * eps)
            assert np.allclose(grad, fd, rtol=1e-5, atol=1e-7)

    def test_phase_decomposition_sums_to_full_gradient(self):
        rng = np.random.default_rng(4)
        group = random_group(rng, g=6, n=10)
        policy = random_policy(rng)
        stats = phase_gradient_stats(group, policy)
        assert np.allclose(stats.gradients.sum(axis=0),
                           masked_loss_grad(group, policy), atol=1e-12)

    def test_masked_equals_full_when_everything_selected(self):
        rng = np.random.default_rng(5)
        group = random_group(rng)
        policy = random_policy(rng)
        small = shrink_batch(group, np.tile(np.arange(5), (4, 1)))
        assert np.allclose(masked_loss_grad(small, policy),
                           masked_loss_grad(group, policy), atol=1e-14)

    def test_masked_keeps_source_normalization(self):
        rng = np.random.default_rng(6)
        group = random_group(rng)
        policy = random_policy(rng)
        small = shrink_batch(group, np.tile([0, 1], (4, 1)))
        # Recompute by hand with explicit 1/G normalization.
        expected = np.zeros(policy.weights.size)
        for traj, a in zip(small.trajectories, small.advantages):
            for k in range(traj.num_chunks):
                _, g = policy.logprob_grad(traj.observations[k], traj.actions[k])
                expected -= a * g.reshape(-1)
        expected /= len(group.trajectories)
        assert np.allclose(masked_loss_grad(small, policy), expected)

    def test_reweighted_divides_by_keep_probability(self):
        rng = np.random.default_rng(7)
        group = random_group(rng)
        policy = random_policy(rng)
        small = shrink_batch(group, np.tile(np.arange(5), (4, 1)))
        probs = np.ones(len(PHASES))
        assert np.allclose(reweighted_loss_grad(small, policy, probs),
                           masked_loss_grad(group, policy))
        halved = np.full(len(PHASES), 0.5)
        assert np.allclose(reweighted_loss_grad(small, policy, halved),
                           2 * masked_loss_grad(group, policy))


class TestPhaseVariance:
    def test_variance_is_trace_of_sample_covariance(self):
        rng = np.random.default_rng(9)
        group = random_group(rng, g=6, n=10)
        policy = random_policy(rng)
        stats = phase_gradient_stats(group, policy)
        # Recompute for one phase directly.
        phase = PHASES[0]
        terms = []
        for traj, a in zip(group.trajectories, group.advantages):
            for k in range(traj.num_chunks):
                if traj.phase_ids[k] == PHASES.index(phase):
                    _, g = policy.logprob_grad(traj.observations[k],
                                               traj.actions[k])
                    terms.append(a * g.reshape(-1))
        terms = np.array(terms)
        centered = terms - terms.mean(axis=0)
        expected = (centered**2).sum() / (len(terms) - 1)
        assert np.isclose(stats.variances[PHASES.index(phase)], expected)

    def test_single_chunk_phase_has_no_variance_entry(self):
        rng = np.random.default_rng(10)
        policy = random_policy(rng)
        # Each phase appears in exactly one chunk across the whole group.
        trajs = [
            ChunkedTrajectory(rng.normal(size=(1, 3)),
                              rng.normal(size=(1, 2, 2)), np.zeros(2),
                              [i], float(i), trajectory_id=i)
            for i in range(2)
        ]
        stats = phase_gradient_stats(RolloutGroup.from_trajectories(trajs), policy)
        assert np.isnan(stats.variances).all()
        assert stats.counts.tolist() == [1, 1, 0, 0, 0]
        assert np.isnan(stats.mean_scores[2:]).all() and np.isfinite(stats.mean_scores[:2]).all()
