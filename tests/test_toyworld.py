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

    def test_split_critical_phase_rejected(self, monkeypatch):
        import chunkmask.toyworld as toyworld

        # Two grasps: active_grip and pre_grasp each fall into two runs.
        profile = np.array([0, 0, 0, 0.2, 0.9, 0.9, 0.9, 0.2, 0.9, 0.9, 0.9,
                            0.3, 0.2, 0.05, 0, 0])
        monkeypatch.setattr(toyworld, "default_gripper_profile", lambda n: profile)
        for critical in ((AG,), (PG,)):
            with pytest.raises(ValueError, match="not one run of chunks"):
                ToyTaskSpec(critical_phases=critical)

    def test_critical_chunks_cover_each_phase_for_every_size(self):
        built = 0
        for n in range(1, 1025):
            try:
                spec = ToyTaskSpec(chunks_per_traj=n)
            except ValueError as error:  # a profile too short for five phases
                assert "all five phases" in str(error)
                continue
            built += 1
            chunks = np.arange(n)
            for phase, sl in zip(spec.critical_phases, spec.critical_chunks):
                assert np.array_equal(chunks[sl],
                                      np.flatnonzero(spec.layout_ids == PHASES.index(phase)))
        assert built == 1012


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
                  spec.noise_scale, *spec.targets.values(), *spec.base_actions.values()]
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
        chunks = np.arange(spec.chunks_per_traj)
        for phase, sl in zip(spec.critical_phases, spec.critical_chunks):
            assert np.array_equal(chunks[sl],
                                  np.flatnonzero(spec.layout_ids == PHASES.index(phase)))


class TestRollouts:
    def test_outcome_depends_only_on_critical_phases(self):
        # Replaying the success rule on the stored actions must reproduce the
        # reward, and perturbing only non-critical chunks cannot change it.
        spec = ToyTaskSpec(target_jitter=0.0)
        policy = initial_policy(spec)
        rng = np.random.default_rng(0)
        obs, actions, rewards = generate_batch(spec, policy, 64,
                                               rng.standard_normal(noise_size(spec, 64)))
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
        block = np.random.default_rng(7).standard_normal(noise_size(spec, 2000))
        _, _, rewards = generate_batch(spec, policy, 2000, block)
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
        generate_batch(spec, policy, 4, np.zeros(noise_size(spec, 4, greedy=True)), greedy=True)
        assert calls == []
        assert group.phase_ids.tolist() == [spec.layout_ids.tolist()] * 4


def reference_batch(spec, policy, num, rng, greedy):
    """The batch of generate_batch's stream contract, drawing its parts one
    after another from the Generator rng: (observations, actions, rewards)."""
    n, f, d = spec.chunks_per_traj, len(PHASES), spec.action_dim
    obs = spec.layout_onehot + spec.obs_noise * rng.standard_normal((num, n, f))
    actions = obs @ policy.weights
    if not greedy:
        scale = policy.sigma * spec.noise_scale[:, None]
        actions = actions + scale * rng.standard_normal(actions.shape)
    actions = actions.reshape(num, n, spec.chunk_len, d)
    rewards = np.ones(num)
    for phase, chunks in zip(spec.critical_phases, spec.critical_chunks):
        jitter = spec.target_jitter * rng.standard_normal((num, d))
        gap = actions[:, chunks].mean(axis=(1, 2)) - spec.targets[phase] - jitter
        rewards *= np.sqrt((gap * gap).sum(axis=1)) <= spec.tolerance
    return obs, actions, rewards


class TestNoiseBlock:
    """A noise block drawn from a Generator in one call stands in for the
    parts of the stream contract drawn one after another."""

    @staticmethod
    def _same(a, b):
        return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()

    @pytest.mark.parametrize("greedy", [False, True], ids=["sampled", "greedy"])
    @pytest.mark.parametrize("which", sorted(SPECS))
    def test_batch_from_block_matches_generator(self, which, greedy):
        spec = SPECS[which]()
        policy = initial_policy(spec)
        expected = reference_batch(spec, policy, 7, np.random.default_rng(5), greedy)
        block = np.random.default_rng(5).standard_normal(noise_size(spec, 7, greedy))
        got = generate_batch(spec, policy, 7, block, greedy=greedy)
        assert len(got) == 3
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
        _, _, rewards = reference_batch(spec, policy, 50, np.random.default_rng(4), True)
        block = np.random.default_rng(4).standard_normal(noise_size(spec, 50, greedy=True))
        assert evaluate(spec, policy, 50, block) == float(rewards.mean())

    @pytest.mark.parametrize("bad", ["generator", "short", "long", "int64", "float32"])
    @pytest.mark.parametrize("caller", ["generate_batch", "evaluate"])
    def test_only_a_float64_block_is_accepted(self, caller, bad):
        spec = ToyTaskSpec()
        policy = initial_policy(spec)
        size = noise_size(spec, 5, greedy=caller == "evaluate")
        block = {"generator": np.random.default_rng(0), "short": np.zeros(size - 1),
                 "long": np.zeros(size + 1), "int64": np.zeros(size, dtype=np.int64),
                 "float32": np.zeros(size, dtype=np.float32)}[bad]
        message = f"noise block must be a flat float64 array of length {size}, got "
        with pytest.raises(ValueError, match=message):
            if caller == "evaluate":
                evaluate(spec, policy, 5, block)
            else:
                generate_batch(spec, policy, 5, block)

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
        policy = initial_policy(spec)
        size = noise_size(spec, 3, greedy=True)
        with pytest.raises(ValueError, match=f"length {size}"):
            generate_batch(spec, policy, 3, np.arange(size), greedy=True)
        size = noise_size(spec, 3)
        with pytest.raises(ValueError, match=f"length {size}"):
            generate_group(spec, policy, 3, np.arange(size))


class TestPhaseMeanAction:
    """generate_batch's summation-order contract. For D = 1 numpy's
    mean(axis=(1, 2)) sums pairwise and differs by ulps, so D starts at 2;
    no spec uses D = 1."""

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.data(), st.integers(2, 3), st.integers(1, 12), st.integers(1, 40),
           st.integers(1, 10))
    def test_equals_numpy_mean_bit_for_bit(self, data, d, num, n, l):
        k = data.draw(st.integers(1, n))
        start = data.draw(st.integers(0, n - k))
        chunks = slice(start, start + k)
        rng = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1)))
        actions = rng.standard_normal((num, n, l, d)) * 10.0 ** rng.uniform(-3, 3)
        assert np.array_equal(phase_mean_action(actions, chunks),
                              actions[:, chunks].mean(axis=(1, 2)))
