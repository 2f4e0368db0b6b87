import numpy as np
import pytest

from chunkmask.phases import PHASES, PhaseLabel
from chunkmask.toyworld import (
    ToyTaskSpec,
    default_gripper_profile,
    generate_batch,
    generate_group,
    generate_rollout,
    initial_policy,
)

AG = PhaseLabel.ACTIVE_GRIP
PG = PhaseLabel.PRE_GRASP


class TestSpec:
    def test_default_profile_produces_all_phases(self):
        for n in (16, 24, 64):
            spec = ToyTaskSpec(chunks_per_traj=n)
            assert set(spec.phase_layout()) == set(PHASES)

    def test_64_chunk_phase_counts(self):
        counts = ToyTaskSpec(chunks_per_traj=64).phase_counts()
        assert counts[AG] == 24
        assert counts[PG] == 3
        assert sum(counts.values()) == 64

    def test_profile_length_validated(self):
        with pytest.raises(ValueError):
            ToyTaskSpec(chunks_per_traj=16, gripper_profile=np.zeros(10))

    def test_profile_without_grasp_rejected(self):
        with pytest.raises(ValueError):
            ToyTaskSpec(chunks_per_traj=16, gripper_profile=np.zeros(16))

    def test_critical_phase_needs_target(self):
        with pytest.raises(ValueError):
            ToyTaskSpec(critical_phases=(AG, PG, PhaseLabel.TAIL))

    def test_gripper_commands_reproduce_profile_means(self):
        spec = ToyTaskSpec()
        commands = spec.gripper_commands()
        means = commands.reshape(spec.chunks_per_traj, spec.chunk_len).mean(axis=1)
        assert np.allclose(means, spec.gripper_profile)


class TestRollouts:
    def test_seeded_rollouts_are_reproducible(self):
        spec = ToyTaskSpec()
        policy = initial_policy(spec)
        a = generate_rollout(spec, policy, 123)
        b = generate_rollout(spec, policy, 123)
        assert np.array_equal(a.trajectory.actions, b.trajectory.actions)
        assert a.trajectory.reward == b.trajectory.reward
        assert a.critical_distances == b.critical_distances

    def test_different_seeds_differ(self):
        spec = ToyTaskSpec()
        policy = initial_policy(spec)
        a = generate_rollout(spec, policy, 1)
        b = generate_rollout(spec, policy, 2)
        assert not np.array_equal(a.trajectory.actions, b.trajectory.actions)

    def test_outcome_depends_only_on_critical_phases(self):
        # Replaying the success rule on the stored actions must reproduce the
        # reward, and perturbing only non-critical chunks cannot change it.
        spec = ToyTaskSpec(target_jitter=0.0)
        policy = initial_policy(spec)
        rng = np.random.default_rng(0)
        obs, actions, rewards, dists = generate_batch(spec, policy, 64, rng)
        layout = spec.phase_layout()
        replay = np.ones(64, dtype=bool)
        for phase in spec.critical_phases:
            idx = [k for k, c in enumerate(layout) if c is phase]
            realized = actions[:, idx].mean(axis=(1, 2))
            replay &= (np.linalg.norm(realized - spec.targets[phase][None],
                                      axis=1) <= spec.tolerance)
        assert np.array_equal(replay, rewards.astype(bool))
        noncritical = [k for k, c in enumerate(layout)
                       if c not in spec.critical_phases]
        perturbed = actions.copy()
        perturbed[:, noncritical] += rng.normal(size=perturbed[:, noncritical].shape)
        replay2 = np.ones(64, dtype=bool)
        for phase in spec.critical_phases:
            idx = [k for k, c in enumerate(layout) if c is phase]
            realized = perturbed[:, idx].mean(axis=(1, 2))
            replay2 &= (np.linalg.norm(realized - spec.targets[phase][None],
                                       axis=1) <= spec.tolerance)
        assert np.array_equal(replay2, rewards.astype(bool))

    def test_initial_policy_offsets_critical_means(self):
        spec = ToyTaskSpec()
        policy = initial_policy(spec, critical_offset=0.11)
        for phase in spec.critical_phases:
            row = policy.weights[spec.phase_index(phase)].reshape(
                spec.chunk_len, spec.action_dim)[0]
            assert np.isclose(np.linalg.norm(row - spec.targets[phase]), 0.11)
        # Mastered phases sit exactly on the scripted demonstration actions.
        for phase, base in spec.base_actions.items():
            row = policy.weights[spec.phase_index(phase)].reshape(
                spec.chunk_len, spec.action_dim)[0]
            assert np.allclose(row, base)

    def test_initial_success_rate_is_intermediate(self):
        # The starting policy must fail often enough to give signal but
        # succeed often enough for informative group advantages.
        spec = ToyTaskSpec()
        policy = initial_policy(spec)
        rng = np.random.default_rng(7)
        _, _, rewards, _ = generate_batch(spec, policy, 2000, rng)
        assert 0.15 < rewards.mean() < 0.85

    def test_group_has_labels_and_rewards(self):
        spec = ToyTaskSpec()
        policy = initial_policy(spec)
        group = generate_group(spec, policy, 10, 3)
        assert len(group.trajectories) == 10
        for traj in group.trajectories:
            assert traj.labels == spec.phase_layout()
            assert traj.reward in (0.0, 1.0)
        assert group.advantages.shape == (10,)

    def test_layout_is_labelled_once_per_spec(self, monkeypatch):
        import chunkmask.toyworld as toyworld

        spec = ToyTaskSpec()
        policy = initial_policy(spec)
        calls = []
        monkeypatch.setattr(toyworld, "label_phases",
                            lambda *args: calls.append(args) or [])
        group = generate_group(spec, policy, 4, 0)
        generate_batch(spec, policy, 4, np.random.default_rng(0), greedy=True)
        assert calls == []
        assert group.phase_ids.tolist() == [spec.layout_ids.tolist()] * 4
