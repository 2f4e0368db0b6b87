import numpy as np
import pytest

from chunkmask.grpo import ChunkedTrajectory, RolloutGroup
from chunkmask.phases import PhaseLabel, phase_ids
from chunkmask.scores import (
    GroupCollapsedError,
    PhaseScoreReport,
    PhaseScoreState,
    compute_phase_scores,
)
from chunkmask.traces import TraceRecord, records_to_group

AG = PhaseLabel.ACTIVE_GRIP
PG = PhaseLabel.PRE_GRASP


def make_traj(actions, labels, reward, tid=0):
    actions = np.asarray(actions, dtype=float)
    n = actions.shape[0]
    return ChunkedTrajectory(
        observations=np.zeros((n, 2)),
        actions=actions,
        gripper=np.zeros(n * actions.shape[1]),
        labels=labels,
        reward=reward,
        trajectory_id=tid,
    )


class TestPhaseScores:
    def test_hand_computed_mean_gap(self):
        # Success chunks at constant action 1.0, failure chunks at 0.2:
        # the per-timestep mean gap is 0.8 in a single dimension.
        success = make_traj(np.full((2, 3, 1), 1.0), [AG, AG], 1.0, 0)
        failure = make_traj(np.full((2, 3, 1), 0.2), [AG, AG], 0.0, 1)
        report = compute_phase_scores(RolloutGroup.from_trajectories([success, failure]))
        assert np.isclose(report.scores[AG], 0.8)

    def test_score_uses_euclidean_norm_over_action_dims(self):
        success = make_traj(np.tile([1.0, 2.0], (1, 2, 1)), [AG], 1.0, 0)
        failure = make_traj(np.tile([0.0, 0.0], (1, 2, 1)), [AG], 0.0, 1)
        report = compute_phase_scores(RolloutGroup.from_trajectories([success, failure]))
        assert np.isclose(report.scores[AG], np.sqrt(5.0))

    def test_pooling_over_chunks_and_trajectories(self):
        # Success pool mixes actions 1.0 and 3.0 -> mean 2.0.
        s1 = make_traj(np.full((1, 2, 1), 1.0), [PG], 1.0, 0)
        s2 = make_traj(np.full((1, 2, 1), 3.0), [PG], 1.0, 1)
        f1 = make_traj(np.full((1, 2, 1), 0.5), [PG], 0.0, 2)
        report = compute_phase_scores(RolloutGroup.from_trajectories([s1, s2, f1]))
        assert np.isclose(report.scores[PG], 1.5)

    def test_phase_missing_an_outcome_is_skipped(self):
        success = make_traj(np.zeros((1, 2, 1)), [AG], 1.0, 0)
        failure = make_traj(np.zeros((1, 2, 1)), [PG], 0.0, 1)
        report = compute_phase_scores(RolloutGroup.from_trajectories([success, failure]))
        assert AG in report.skipped and PG in report.skipped
        assert report.scores == {}

    def test_collapsed_group_raises(self):
        t0 = make_traj(np.zeros((1, 2, 1)), [AG], 1.0, 0)
        t1 = make_traj(np.ones((1, 2, 1)), [AG], 1.0, 1)
        with pytest.raises(GroupCollapsedError):
            compute_phase_scores(RolloutGroup.from_trajectories([t0, t1]))


class TestScoreState:
    def report(self, **scores):
        return PhaseScoreReport(scores={PhaseLabel(k): v for k, v in scores.items()})

    def test_refresh_worked_example(self):
        state = PhaseScoreState(refresh_window=1, floor=0.1)
        state.append_scores(self.report(
            active_grip=2.0, pre_grasp=1.0, release_ramp=1.0,
            approach=0.0, tail=0.0))
        probs = state.refresh()
        assert probs[PhaseLabel.ACTIVE_GRIP] == 1.0
        assert probs[PhaseLabel.PRE_GRASP] == 0.5
        assert probs[PhaseLabel.RELEASE_RAMP] == 0.5
        assert probs[PhaseLabel.APPROACH] == 0.1
        assert probs[PhaseLabel.TAIL] == 0.1

    def test_buffers_accumulate_across_window(self):
        state = PhaseScoreState(refresh_window=2, floor=0.1)
        state.append_scores(self.report(active_grip=1.0, pre_grasp=3.0))
        state.append_scores(self.report(active_grip=5.0, pre_grasp=3.0))
        probs = state.refresh()
        assert probs[PhaseLabel.ACTIVE_GRIP] == 1.0
        assert probs[PhaseLabel.PRE_GRASP] == 1.0

    def test_refresh_due_first_batch_then_window(self):
        state = PhaseScoreState(refresh_window=3)
        assert state.refresh_due  # no probabilities yet
        state.append_scores(self.report(active_grip=1.0))
        state.refresh()
        assert not state.refresh_due
        for _ in range(3):
            state.append_scores(self.report(active_grip=1.0))
        assert state.refresh_due

    def test_all_zero_sums_retain_previous_probs(self):
        state = PhaseScoreState(refresh_window=1)
        state.append_scores(self.report(active_grip=2.0, pre_grasp=1.0))
        before = dict(state.refresh())
        state.append_scores(PhaseScoreReport(scores={}))
        after = state.refresh()
        assert after == before

    def test_first_refresh_without_signal_keeps_everything(self):
        state = PhaseScoreState(refresh_window=1)
        state.append_scores(PhaseScoreReport(scores={}))
        probs = state.refresh()
        assert all(p == 1.0 for p in probs.values())

    def test_chunk_weights_require_refresh(self):
        state = PhaseScoreState()
        with pytest.raises(ValueError):
            state.chunk_weights(phase_ids([AG]))

    def test_chunk_weights_follow_labels(self):
        state = PhaseScoreState(refresh_window=1)
        state.append_scores(self.report(active_grip=2.0, pre_grasp=1.0))
        state.refresh()
        w = state.chunk_weights(phase_ids([AG, PG, AG]))
        assert w.tolist() == [1.0, 0.5, 1.0]

    def test_floor_applies_to_every_phase(self):
        state = PhaseScoreState(refresh_window=1, floor=0.25)
        state.append_scores(self.report(active_grip=100.0, pre_grasp=1e-6))
        probs = state.refresh()
        assert probs[PhaseLabel.PRE_GRASP] == 0.25
        assert probs[PhaseLabel.TAIL] == 0.25

    def test_invalid_config_rejected(self):
        with pytest.raises(ValueError):
            PhaseScoreState(refresh_window=0)
        with pytest.raises(ValueError):
            PhaseScoreState(floor=0.0)


def test_padding_never_counts():
    # Two traces whose real actions are all 1.0, cut at 5 and 7 timesteps of
    # 4-step chunks: zero-padding the trailing chunks must not separate the
    # outcome means.
    def record(tid, t, reward):
        return TraceRecord(
            trajectory_id=tid, task_id="t", reward=reward, chunk_len=4,
            gripper=[0.0] * t, observations=[[1.0, 0.0]] * 2,
            actions=[1.0] * t, action_dim=1)

    group = records_to_group([record(0, 5, 1.0), record(1, 7, 0.0)])
    report = compute_phase_scores(group)
    assert report.scores[PhaseLabel.APPROACH] == 0.0
