from dataclasses import FrozenInstanceError

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkmask.phases import PHASES, PhaseLabel
from chunkmask.toyworld import (
    ToyTaskSpec,
    default_gripper_profile,
    generate_batch,
    generate_group,
    initial_policy,
    noise_size,
    phase_mean_action,
)
from chunkmask.trainer import evaluate

AG = PhaseLabel.ACTIVE_GRIP
PG = PhaseLabel.PRE_GRASP

SPECS = {
    "16": lambda: ToyTaskSpec(),
    "64": lambda: ToyTaskSpec(chunks_per_traj=64),
    "one-critical": lambda: ToyTaskSpec(critical_phases=(AG,)),
}


class TestSpec:
    def test_default_profile_produces_all_phases(self):
        for n in (16, 24, 64):
            spec = ToyTaskSpec(chunks_per_traj=n)
            assert set(spec.layout_ids.tolist()) == set(range(len(PHASES)))

    def test_64_chunk_phase_counts(self):
        counts = np.bincount(ToyTaskSpec(chunks_per_traj=64).layout_ids)
        assert counts[PHASES.index(AG)] == 24
        assert counts[PHASES.index(PG)] == 3
        assert counts.sum() == 64

    def test_profile_without_grasp_rejected(self, monkeypatch):
        import chunkmask.toyworld as toyworld

        monkeypatch.setattr(toyworld, "default_gripper_profile", np.zeros)
        with pytest.raises(ValueError, match="all five phases"):
            ToyTaskSpec(chunks_per_traj=16)

    def test_critical_phase_needs_target(self):
        with pytest.raises(ValueError):
            ToyTaskSpec(critical_phases=(AG, PG, PhaseLabel.TAIL))


class TestImmutableSpec:
    @pytest.mark.parametrize("name, value", [
        ("chunks_per_traj", 64), ("critical_phases", (AG,)), ("exec_noise", {}),
        ("target_jitter", 0.0), ("noise_scale", np.zeros(16))])
    def test_fields_cannot_be_assigned(self, name, value):
        spec = ToyTaskSpec()
        with pytest.raises(FrozenInstanceError):
            setattr(spec, name, value)

    def test_exec_noise_is_read_only(self):
        spec = ToyTaskSpec()
        with pytest.raises(TypeError):
            spec.exec_noise[PG] = 0.0
        assert spec.exec_noise[PG] == 0.65

    def test_arrays_are_read_only(self):
        spec = ToyTaskSpec()
        arrays = [spec.gripper_profile, spec.layout_ids, spec.layout_onehot,
                  spec.noise_scale, *spec.critical_chunks, *spec.targets.values(),
                  *spec.base_actions.values()]
        for array in arrays:
            with pytest.raises(ValueError, match="read-only"):
                array[0] = 1

    def test_spec_copies_the_noise_it_is_given(self):
        noise = dict(ToyTaskSpec().exec_noise)
        spec = ToyTaskSpec(exec_noise=noise)
        scale = spec.noise_scale.copy()
        noise[PG] = 0.06
        assert spec.exec_noise[PG] == 0.65
        assert np.array_equal(spec.noise_scale, scale)

    @pytest.mark.parametrize("which", sorted(SPECS))
    def test_derived_arrays_match_per_call_expressions(self, which):
        # The expressions generate_batch evaluated on every call before the
        # spec derived them once.
        spec = SPECS[which]()
        scale = np.array([spec.exec_noise[c] for c in PHASES])[spec.layout_ids]
        assert scale.dtype == spec.noise_scale.dtype
        assert scale.tobytes() == spec.noise_scale.tobytes()
        assert len(spec.critical_chunks) == len(spec.critical_phases)
        for phase, idx in zip(spec.critical_phases, spec.critical_chunks):
            assert np.array_equal(idx, np.flatnonzero(spec.layout_ids == PHASES.index(phase)))


class TestRollouts:
    def test_outcome_depends_only_on_critical_phases(self):
        # Replaying the success rule on the stored actions must reproduce the
        # reward, and perturbing only non-critical chunks cannot change it.
        spec = ToyTaskSpec(target_jitter=0.0)
        policy = initial_policy(spec)
        rng = np.random.default_rng(0)
        obs, actions, rewards, dists = generate_batch(spec, policy, 64, rng)
        layout = [PHASES[k] for k in spec.layout_ids]
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
        policy = initial_policy(spec)
        for phase in spec.critical_phases:
            row = policy.weights[PHASES.index(phase)].reshape(
                spec.chunk_len, spec.action_dim)[0]
            assert np.isclose(np.linalg.norm(row - spec.targets[phase]), 0.11)
        # Mastered phases sit exactly on the scripted demonstration actions.
        for phase, base in spec.base_actions.items():
            row = policy.weights[PHASES.index(phase)].reshape(
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
            assert np.array_equal(traj.phase_ids, spec.layout_ids)
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


class TestNoiseBlock:
    """A pre-drawn noise block stands in for the Generator it came from."""

    @staticmethod
    def _same(a, b):
        if isinstance(a, dict):
            return a.keys() == b.keys() and all(TestNoiseBlock._same(a[k], b[k]) for k in a)
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("greedy", [False, True], ids=["sampled", "greedy"])
    @pytest.mark.parametrize("which", sorted(SPECS))
    def test_batch_from_block_matches_generator(self, which, greedy):
        spec = SPECS[which]()
        policy = initial_policy(spec)
        expected = generate_batch(spec, policy, 7, np.random.default_rng(5), greedy=greedy)
        block = np.random.default_rng(5).standard_normal(noise_size(spec, 7, greedy))
        got = generate_batch(spec, policy, 7, block, greedy=greedy)
        assert all(self._same(a, b) for a, b in zip(got, expected))

    @pytest.mark.parametrize("which", sorted(SPECS))
    def test_group_and_evaluate_from_block(self, which):
        spec = SPECS[which]()
        policy = initial_policy(spec)
        group = generate_group(spec, policy, 10, np.random.default_rng(9))
        block = np.random.default_rng(9).standard_normal(noise_size(spec, 10))
        for rng in (block, 9):
            from_other = generate_group(spec, policy, 10, rng)
            for field in ("observations", "actions", "rewards"):
                assert self._same(getattr(from_other, field), getattr(group, field)), field
        success = evaluate(spec, policy, 50, np.random.default_rng(4))
        block = np.random.default_rng(4).standard_normal(noise_size(spec, 50, greedy=True))
        assert evaluate(spec, policy, 50, block) == success

    @pytest.mark.parametrize("delta", [-1, 1])
    def test_wrong_length_names_expected(self, delta):
        spec = ToyTaskSpec(chunks_per_traj=64)
        policy = initial_policy(spec)
        size = noise_size(spec, 10)
        assert size == 10 * (64 * len(PHASES) + 64 * 8 * 2 + 2 * 2)
        with pytest.raises(ValueError, match=f"length {size}"):
            generate_batch(spec, policy, 10, np.zeros(size + delta))
        with pytest.raises(ValueError, match=f"length {size}"):
            generate_group(spec, policy, 10, np.zeros(size + delta))

    def test_integer_array_is_a_block_not_a_seed(self):
        spec = ToyTaskSpec()
        size = noise_size(spec, 3, greedy=True)
        with pytest.raises(ValueError, match=f"length {size}"):
            generate_batch(spec, initial_policy(spec), 3, np.arange(size), greedy=True)


class TestPhaseMeanAction:
    """generate_batch's summation-order contract. For D = 1 numpy's
    mean(axis=(1, 2)) sums pairwise and differs by ulps, so D starts at 2;
    no spec uses D = 1."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.data(), st.integers(2, 3), st.integers(1, 12), st.integers(1, 40),
           st.integers(1, 10), st.booleans())
    def test_equals_numpy_mean_bit_for_bit(self, data, d, num, n, l, contiguous):
        k = data.draw(st.integers(1, n))
        if contiguous:
            start = data.draw(st.integers(0, n - k))
            idx = np.arange(start, start + k)
        else:
            idx = np.array(sorted(data.draw(st.sets(st.integers(0, n - 1),
                                                    min_size=k, max_size=k))))
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        actions = rng.standard_normal((num, n, l, d)) * 10.0 ** rng.uniform(-3, 3)
        assert np.array_equal(phase_mean_action(actions, idx),
                              actions[:, idx].mean(axis=(1, 2)))
