from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from chunkmask.phases import (
    ACTIVE_GRIP_THRESHOLD,
    PHASES,
    PRE_GRASP_LOW,
    SUSTAINED_CLOSE_THRESHOLD,
    WINDOW_LEN,
    PhaseLabel,
    find_sustained_intervals,
    gripper_close_fraction,
    label_phases,
)
from chunkmask.traces import TraceRecord

AG = PHASES.index(PhaseLabel.ACTIVE_GRIP)
PG = PHASES.index(PhaseLabel.PRE_GRASP)
RR = PHASES.index(PhaseLabel.RELEASE_RAMP)
AP = PHASES.index(PhaseLabel.APPROACH)
TL = PHASES.index(PhaseLabel.TAIL)


class TestCloseFraction:
    def test_constant_per_chunk(self):
        commands = np.array([1, 1, 1, 1, 0, 0, 0, 0], dtype=float)
        assert gripper_close_fraction(commands, 4).tolist() == [1.0, 0.0]

    def test_uniform_value(self):
        assert gripper_close_fraction(np.full(8, 0.5), 8).tolist() == [0.5]

    def test_trailing_partial_chunk_averages_real_timesteps(self):
        commands = np.array([1, 0, 1, 0, 1, 1], dtype=float)
        assert gripper_close_fraction(commands, 4).tolist() == [0.5, 1.0]

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60), st.integers(1, 12))
    def test_partial_chunk_averages_only_its_timesteps(self, commands, chunk_len):
        fractions = gripper_close_fraction(commands, chunk_len)
        assert fractions.size == -(-len(commands) // chunk_len)
        for k, value in enumerate(fractions):
            real = commands[k * chunk_len:(k + 1) * chunk_len]
            assert value == pytest.approx(sum(real) / len(real), abs=1e-12)

    def test_empty_trace_rejected(self):
        # Traces are validated where they enter, when a record is built.
        with pytest.raises(ValueError, match="empty gripper trace"):
            TraceRecord(trajectory_id=0, task_id="t", reward=0.0, chunk_len=4,
                        gripper=[], observations=[], actions=[], action_dim=2)


class TestSustainedIntervals:
    def test_single_run(self):
        assert find_sustained_intervals([0.0, 0.8, 0.8, 0.0], 0.75) == [(1, 2)]

    def test_no_closure(self):
        assert find_sustained_intervals([0.0, 0.0], 0.75) == []

    def test_two_maximal_runs(self):
        assert find_sustained_intervals([0.9, 0.2, 0.9], 0.75) == [(0, 0), (2, 2)]


class TestGoldenLabelings:
    def test_basic_grasp_cycle(self):
        g_f = [0.0, 0.2, 0.8, 0.8, 0.3, 0.0]
        assert label_phases(g_f).tolist() == [AP, PG, AG, AG, RR, RR]

    def test_all_open_is_approach(self):
        assert label_phases([0.0] * 6).tolist() == [AP] * 6

    def test_release_window_then_tail(self):
        g_f = [0.0, 0.0, 0.9, 0.9, 0.0, 0.0, 0.0, 0.05]
        expected = [AP, AP, AG, AG, RR, RR, RR, TL]
        assert label_phases(g_f).tolist() == expected

    def test_multi_grasp_between_cycles_is_approach(self):
        # Two grasp cycles far enough apart that the middle chunks fall in
        # neither the release window of the first nor the pre-grasp window
        # of the second.
        g_f = [0.0, 0.2, 0.9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2, 0.9, 0.0, 0.0]
        labels = label_phases(g_f).tolist()
        assert labels[2] == AG and labels[10] == AG
        assert labels[6] == AP  # between cycles, outside both windows
        assert labels[-1] == RR
        assert TL not in labels[:11]

    def test_pre_grasp_outranks_release_ramp_on_overlap(self):
        # Chunk 3 lies in the release window of the first interval and in the
        # pre-grasp band of the second.
        g_f = [0.2, 0.9, 0.9, 0.3, 0.9, 0.0]
        labels = label_phases(g_f).tolist()
        assert labels[3] == PG

    def test_isolated_close_chunk_without_sustained_interval(self):
        labels = label_phases([0.0, 0.6, 0.0]).tolist()
        assert labels == [AP, AG, AP]

    def test_mid_band_after_final_release_is_approach_not_tail(self):
        g_f = [0.0, 0.9, 0.9, 0.0, 0.0, 0.0, 0.3]
        labels = label_phases(g_f).tolist()
        assert labels[-1] == AP


class TestProperties:
    @pytest.fixture
    def random_fractions(self):
        rng = np.random.default_rng(11)
        return [rng.uniform(0, 1, size=rng.integers(1, 40)) for _ in range(50)]

    def test_deterministic(self, random_fractions):
        for g_f in random_fractions:
            assert np.array_equal(label_phases(g_f), label_phases(g_f))

    def test_every_chunk_gets_exactly_one_label(self, random_fractions):
        for g_f in random_fractions:
            labels = label_phases(g_f).tolist()
            assert len(labels) == len(g_f)
            assert all(c in range(len(PHASES)) for c in labels)

    def test_active_grip_priority_is_absolute(self, random_fractions):
        for g_f in random_fractions:
            for g, label in zip(g_f, label_phases(g_f).tolist()):
                if g >= ACTIVE_GRIP_THRESHOLD:
                    assert label == AG

    def test_window_caps(self, random_fractions):
        w = WINDOW_LEN
        for g_f in random_fractions:
            labels = label_phases(g_f).tolist()
            intervals = find_sustained_intervals(g_f, SUSTAINED_CLOSE_THRESHOLD)
            for start, end in intervals:
                before = labels[max(0, start - w):start]
                assert sum(c == PG for c in before) <= w
                after = labels[end + 1:end + 1 + w]
                assert sum(c == RR for c in after) <= w
            # No pre-grasp chunk further than WINDOW_LEN from an interval.
            for j, label in enumerate(labels):
                if label == PG:
                    assert any(0 < start - j <= w for start, _ in intervals)
                if label == RR:
                    assert any(0 < j - end <= w for _, end in intervals)

    def test_labels_blind_to_trace_scale_outside_thresholds(self):
        # Same fractions, averaged per chunk from the timestep trace.
        commands = np.array([0.0, 0.0, 0.2, 0.2, 0.9, 0.9, 0.9, 0.9,
                             0.3, 0.3, 0.0, 0.0], dtype=float)
        labels = label_phases(gripper_close_fraction(commands, 2)).tolist()
        assert labels == [AP, PG, AG, AG, RR, RR]

    @settings(max_examples=300, deadline=None, database=None)
    @given(st.lists(st.one_of(st.floats(0.0, 1.0), st.sampled_from([0.0, 0.1, 0.5, 0.75, 1.0])),
                    min_size=1, max_size=40))
    def test_matches_per_chunk_reference(self, g_f):
        assert label_phases(g_f).tolist() == reference_labels(g_f)

    @settings(max_examples=100, deadline=None, database=None)
    @given(st.lists(st.floats(0.0, 1.0), min_size=1, max_size=60), st.integers(1, 8),
           st.integers(1, 3), st.sampled_from([0.0, 1.0]), st.integers(0, 2**32 - 1))
    def test_labels_blind_to_reward_and_actions(self, gripper, chunk_len, dim, reward, seed):
        rng = np.random.default_rng(seed)
        n = -(-len(gripper) // chunk_len)
        record = TraceRecord(
            trajectory_id=0, task_id="t", reward=reward, chunk_len=chunk_len,
            gripper=gripper, observations=rng.normal(size=(n, 2)).tolist(),
            actions=rng.normal(size=len(gripper) * dim).tolist(), action_dim=dim)
        flipped = replace(record, reward=1.0 - reward,
                          actions=(np.asarray(record.actions) + rng.normal(
                              scale=10.0, size=len(record.actions))).tolist())
        assert np.array_equal(flipped.to_trajectory().phase_ids,
                              record.to_trajectory().phase_ids)


def reference_labels(g_f):
    """The five rules applied chunk by chunk in priority order: active-grip,
    pre-grasp, release-ramp, tail, and approach for everything else."""
    closed = [g >= SUSTAINED_CLOSE_THRESHOLD for g in g_f]
    intervals, j = [], 0
    while j < len(g_f):
        if closed[j]:
            start = j
            while j + 1 < len(g_f) and closed[j + 1]:
                j += 1
            intervals.append((start, j))
        j += 1
    w, labels = WINDOW_LEN, []
    for j, g in enumerate(g_f):
        if g >= ACTIVE_GRIP_THRESHOLD:
            labels.append(AG)
        elif g >= PRE_GRASP_LOW and any(0 < s - j <= w for s, _ in intervals):
            labels.append(PG)
        elif any(0 < j - e <= w for _, e in intervals):
            labels.append(RR)
        elif intervals and j > intervals[-1][1] + w and g < PRE_GRASP_LOW:
            labels.append(TL)
        else:
            labels.append(AP)
    return labels
