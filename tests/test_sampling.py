import numpy as np
import pytest

from chunkmask.grpo import ChunkedTrajectory, RolloutGroup
from chunkmask.phases import PhaseLabel
from chunkmask.sampling import (
    SelectionMask,
    inclusion_probabilities,
    shrink_batch,
    weighted_sample_without_replacement,
)

AG = PhaseLabel.ACTIVE_GRIP
AP = PhaseLabel.APPROACH


class TestSelectionMask:
    def test_sorts_indices(self):
        mask = SelectionMask(0, np.array([3, 1, 2]), 3)
        assert mask.indices.tolist() == [1, 2, 3]

    def test_size_must_match_budget(self):
        with pytest.raises(ValueError):
            SelectionMask(0, np.array([1, 2]), 3)

    def test_duplicates_rejected(self):
        with pytest.raises(ValueError):
            SelectionMask(0, np.array([1, 1, 2]), 3)


class TestWeightedSampling:
    def test_deterministic_given_seed(self):
        w = [0.3, 1.0, 0.5, 0.9, 0.1]
        a = weighted_sample_without_replacement(w, 3, 42)
        b = weighted_sample_without_replacement(w, 3, 42)
        assert np.array_equal(a.indices, b.indices)

    def test_budget_clamped_to_population(self):
        mask = weighted_sample_without_replacement([1.0, 1.0], 5, 0)
        assert mask.indices.tolist() == [0, 1]

    def test_first_draw_probabilities(self):
        # With m=1 the inclusion probability is just the normalized weight.
        probs = inclusion_probabilities([2.0, 1.0, 1.0], 1)
        assert np.allclose(probs, [0.5, 0.25, 0.25])

    def test_inclusion_oracle_sums_to_m(self):
        rng = np.random.default_rng(2)
        for _ in range(5):
            w = rng.uniform(0.1, 3.0, size=5)
            for m in (1, 2, 3):
                assert np.isclose(inclusion_probabilities(w, m).sum(), m)

    def test_empirical_matches_enumeration(self):
        w = np.array([1.0, 2.0, 3.0, 4.0])
        m, draws = 2, 200000
        exact = inclusion_probabilities(w, m)
        rng = np.random.default_rng(9)
        counts = np.zeros(4)
        keys = rng.exponential(size=(draws, 4)) / w[None]
        chosen = np.argpartition(keys, m - 1, axis=1)[:, :m]
        counts = np.bincount(chosen.reshape(-1), minlength=4)
        freq = counts / draws
        sigma = np.sqrt(exact * (1 - exact) / draws)
        assert np.all(np.abs(freq - exact) < 4 * sigma)

    def test_invalid_inputs(self):
        with pytest.raises(ValueError):
            weighted_sample_without_replacement([1.0, -1.0], 1, 0)
        with pytest.raises(ValueError):
            weighted_sample_without_replacement([1.0, 1.0], 0, 0)
        with pytest.raises(ValueError):
            weighted_sample_without_replacement([], 1, 0)


def make_group():
    rng = np.random.default_rng(0)
    trajectories = [
        ChunkedTrajectory(
            observations=rng.normal(size=(4, 2)),
            actions=rng.normal(size=(4, 3, 1)),
            gripper=np.zeros(12),
            labels=[AG, AG, AP, AP],
            reward=float(i % 2),
            trajectory_id=i,
        )
        for i in range(4)
    ]
    return RolloutGroup.from_trajectories(trajectories)


class TestShrinkBatch:
    def test_retains_selected_chunk_fields(self):
        group = make_group()
        small = shrink_batch(group, np.tile([0, 2], (4, 1)))
        for orig, kept in zip(group.trajectories, small.trajectories):
            assert np.array_equal(kept.observations, orig.observations[[0, 2]])
            assert np.array_equal(kept.actions, orig.actions[[0, 2]])
            assert kept.labels == [orig.labels[0], orig.labels[2]]
            assert kept.chunk_indices.tolist() == [0, 2]
            assert kept.reward == orig.reward

    def test_advantages_and_group_size_preserved(self):
        group = make_group()
        small = shrink_batch(group, np.ones((4, 1), dtype=int))
        assert np.array_equal(small.advantages, group.advantages)
        assert small.group_size == 4

    def test_mask_count_must_match(self):
        group = make_group()
        with pytest.raises(ValueError):
            shrink_batch(group, np.zeros((1, 1), dtype=int))

    def test_out_of_range_mask_rejected(self):
        group = make_group()
        with pytest.raises(ValueError):
            shrink_batch(group, np.full((4, 1), 7))
