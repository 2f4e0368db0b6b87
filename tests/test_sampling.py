import numpy as np
import pytest

from chunkmask.grpo import ChunkedTrajectory, RolloutGroup
from chunkmask.phases import PHASES, PhaseLabel
from chunkmask.sampling import (
    SelectionMask,
    inclusion_probabilities,
    shrink_batch,
    weighted_sample_rows,
    weighted_sample_without_replacement,
)

AG = PHASES.index(PhaseLabel.ACTIVE_GRIP)
AP = PHASES.index(PhaseLabel.APPROACH)


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
        chosen = weighted_sample_rows(np.broadcast_to(w, (draws, 4)), m, rng)
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
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            weighted_sample_rows([[1.0, -1.0]], 1, rng)
        with pytest.raises(ValueError):
            weighted_sample_rows([[1.0, np.nan]], 1, rng)
        with pytest.raises(ValueError):
            weighted_sample_rows([[1.0, 1.0]], 0, rng)
        with pytest.raises(ValueError):
            weighted_sample_rows(np.ones((0, 3)), 1, rng)
        with pytest.raises(ValueError):
            weighted_sample_rows([1.0, 1.0], 1, rng)
        with pytest.raises(ValueError):
            weighted_sample_rows(np.ones((2, 3)), 1, [rng])


def make_group():
    rng = np.random.default_rng(0)
    trajectories = [
        ChunkedTrajectory(
            observations=rng.normal(size=(4, 2)),
            actions=rng.normal(size=(4, 3, 1)),
            gripper=np.zeros(12),
            phase_ids=[AG, AG, AP, AP],
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
            assert kept.phase_ids.tolist() == [orig.phase_ids[0], orig.phase_ids[2]]
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

    def test_partial_chunk_kept_padding_only_chunk_rejected(self):
        # Trajectory 1 holds 7 real timesteps in 3 chunks of length 3 and is
        # padded to the group's 4: its chunk 2 is partial, chunk 3 padding only.
        rng = np.random.default_rng(1)
        trajectories = [
            ChunkedTrajectory(
                observations=rng.normal(size=(k, 2)), actions=rng.normal(size=(k, 3, 1)),
                gripper=np.zeros(t), phase_ids=[AG] * k, reward=float(i), trajectory_id=i)
            for i, (k, t) in enumerate([(4, 12), (3, 7)])]
        group = RolloutGroup.from_trajectories(trajectories)
        assert shrink_batch(group, [[3], [2]]).valid[1, 0].tolist() == [True, False, False]
        with pytest.raises(ValueError):
            shrink_batch(group, [[2], [3]])

    def test_out_of_range_mask_rejected(self):
        group = make_group()
        with pytest.raises(ValueError):
            shrink_batch(group, np.full((4, 1), 7))
