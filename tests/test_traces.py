import json
from dataclasses import FrozenInstanceError, fields, replace

import numpy as np
import pytest

from chunkmask import traces
from chunkmask.allocation import PhaseStats
from chunkmask.grpo import ChunkedTrajectory
from chunkmask.phases import PHASES, PhaseLabel, phase_ids
from chunkmask.sampling import SelectionMask
from chunkmask.toyworld import ToyTaskSpec, generate_group, initial_policy
from chunkmask.traces import (
    TraceFormatError,
    TraceRecord,
    group_records,
    read_traces,
    records_to_group,
    write_traces,
)


def toy_records(seed=0, tasks=2, group_size=4):
    spec = ToyTaskSpec()
    policy = initial_policy(spec)
    rng = np.random.default_rng(seed)
    records = []
    for t in range(tasks):
        group = generate_group(spec, policy, group_size, rng)
        for traj in group.trajectories:
            records.append(TraceRecord.from_trajectory(traj, task_id=f"task-{t}"))
    return records


class TestRoundTrip:
    def test_json_round_trip_preserves_everything(self):
        record = toy_records()[0]
        parsed = TraceRecord.from_json(record.to_json())
        assert parsed.trajectory_id == record.trajectory_id
        assert parsed.task_id == record.task_id
        assert parsed.reward == record.reward
        assert parsed.chunk_len == record.chunk_len
        assert parsed.action_dim == record.action_dim
        assert np.allclose(parsed.actions, record.actions)
        assert np.allclose(parsed.gripper, record.gripper)
        assert parsed.labels == record.labels

    def test_trajectory_round_trip(self):
        spec = ToyTaskSpec()
        policy = initial_policy(spec)
        group = generate_group(spec, policy, 2, 0)
        original = group.trajectories[0]
        back = TraceRecord.from_trajectory(original, "t").to_trajectory()
        assert np.allclose(back.observations, original.observations)
        assert np.allclose(back.actions, original.actions)
        assert np.array_equal(back.phase_ids, original.phase_ids)
        assert back.reward == original.reward

    def test_file_round_trip(self, tmp_path):
        records = toy_records()
        path = tmp_path / "traces.jsonl"
        write_traces(path, records)
        loaded = read_traces(path)
        assert len(loaded) == len(records)
        assert [r.trajectory_id for r in loaded] == [r.trajectory_id for r in records]

    def test_missing_labels_are_recomputed_from_gripper(self):
        record = toy_records()[0]
        expected = phase_ids(record.labels)
        traj = replace(record, labels=None).to_trajectory()
        assert np.array_equal(traj.phase_ids, expected)


class TestWireFormat:
    # A labelled record as written before the labeler returned phase ids.
    # Its stored labels are not the ones its gripper trace gives, so reading
    # them back shows that stored labels win.
    LINE = ('{"trajectory_id": 42, "task_id": "task-7", "reward": 1.0, "chunk_len": 2, '
            '"action_dim": 1, "gripper": [0.0, 0.2, 0.9, 1.0, 0.05], "observations": '
            '[[1.0, 0.1], [0.0, -2.5], [0.3, 1e-07]], "actions": [0.5, -0.25, 0.1, 2.0, '
            '0.3333333333333333], "labels": ["approach", "active_grip", "tail"]}')
    IDS = [PHASES.index(PhaseLabel(c)) for c in ("approach", "active_grip", "tail")]

    def test_labelled_line_parses_to_phase_ids(self):
        record = TraceRecord.from_json(self.LINE)
        assert record.to_trajectory().phase_ids.tolist() == self.IDS
        assert replace(record, labels=None).to_trajectory().phase_ids.tolist() != self.IDS

    def test_from_trajectory_writes_the_line_byte_for_byte(self):
        traj = ChunkedTrajectory(
            observations=[[1.0, 0.1], [0.0, -2.5], [0.3, 1e-7]],
            actions=np.array([0.5, -0.25, 0.1, 2.0, 1.0 / 3.0, 0.0]).reshape(3, 2, 1),
            gripper=np.array([0.0, 0.2, 0.9, 1.0, 0.05]),
            phase_ids=self.IDS, reward=1.0, trajectory_id=42)
        assert TraceRecord.from_trajectory(traj, "task-7").to_json() == self.LINE
        assert TraceRecord.from_json(self.LINE).to_json() == self.LINE


class TestValidation:
    # A record is checked when it is built: in code with ValueError, from a
    # trace line with TraceFormatError naming the line.
    @staticmethod
    def line(record, **changes):
        return json.dumps(dict(json.loads(record.to_json()), **changes))

    def test_action_length_must_be_t_times_d(self):
        record = toy_records()[0]
        short = record.actions[:-1]
        with pytest.raises(ValueError, match="action array length"):
            replace(record, actions=short)
        with pytest.raises(TraceFormatError, match="line 7: action array length"):
            TraceRecord.from_json(self.line(record, actions=short.tolist()), 7)

    def test_non_binary_reward_rejected(self):
        record = toy_records()[0]
        with pytest.raises(ValueError, match="reward"):
            replace(record, reward=0.7)
        with pytest.raises(TraceFormatError, match="line 3: reward"):
            TraceRecord.from_json(self.line(record, reward=0.7), 3)
        assert replace(record, reward=1.0).reward == 1.0
        assert TraceRecord.from_json(self.line(record, reward=1.0), 3).reward == 1.0

    def test_gripper_outside_unit_interval_rejected(self):
        record = toy_records()[0]
        for value in (1.5, -0.1, float("nan")):
            gripper = record.gripper.copy()
            gripper[2] = value
            with pytest.raises(ValueError, match="^gripper commands must lie in"):
                replace(record, gripper=gripper)
            if np.isfinite(value):  # a trace line holds no NaN
                with pytest.raises(TraceFormatError, match="line 5: gripper"):
                    TraceRecord.from_json(self.line(record, gripper=gripper.tolist()), 5)

    def test_malformed_json_reports_line_number(self, tmp_path):
        records = toy_records(tasks=1, group_size=2)
        path = tmp_path / "traces.jsonl"
        lines = [r.to_json() for r in records]
        lines.insert(1, "{not json")
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(TraceFormatError) as exc:
            read_traces(path)
        assert exc.value.line_number == 2

    def test_on_error_continues_past_bad_lines(self, tmp_path):
        records = toy_records(tasks=1, group_size=3)
        path = tmp_path / "traces.jsonl"
        lines = [r.to_json() for r in records]
        lines.insert(1, '{"trajectory_id": 1}')
        lines.insert(3, "garbage")
        path.write_text("\n".join(lines) + "\n")
        errors = []
        loaded = read_traces(path, on_error=errors.append)
        assert len(loaded) == 3
        assert sorted(e.line_number for e in errors) == [2, 4]

    @pytest.mark.parametrize("value", ["5", '"x"', "true", "null"],
                             ids=["number", "string", "bool", "null"])
    @pytest.mark.parametrize("field", ["gripper", "observations", "actions"])
    def test_non_array_field_rejected(self, tmp_path, field, value):
        records = toy_records(tasks=1, group_size=3)
        lines = [r.to_json() for r in records]
        payload = json.loads(lines[1])
        payload[field] = "VALUE"
        lines[1] = json.dumps(payload).replace('"VALUE"', value)
        path = tmp_path / "traces.jsonl"
        path.write_text("\n".join(lines) + "\n")
        errors = []
        loaded = read_traces(path, on_error=errors.append)
        assert [r.trajectory_id for r in loaded] == [0, 2]
        assert len(errors) == 1 and errors[0].line_number == 2
        assert f"{field} must be an array, got {value}" in str(errors[0])
        # The same value in a record built in code.
        built = dict(trajectory_id=0, task_id="t", reward=1.0, chunk_len=2,
                     gripper=[0.0, 0.0], observations=[[0.0]], actions=[0.0, 0.0],
                     action_dim=1)
        built[field] = json.loads(value)
        with pytest.raises(ValueError, match=f"^{field} must be an array, got "):
            TraceRecord(**built)

    def test_blank_lines_ignored(self, tmp_path):
        records = toy_records(tasks=1, group_size=2)
        path = tmp_path / "traces.jsonl"
        path.write_text("\n" + records[0].to_json() + "\n\n" + records[1].to_json() + "\n")
        assert len(read_traces(path)) == 2


class TestImmutableRecord:
    def test_no_field_can_be_assigned(self):
        record = toy_records()[0]
        for f in fields(TraceRecord):
            with pytest.raises(FrozenInstanceError):
                setattr(record, f.name, getattr(record, f.name))
        assert not hasattr(TraceRecord, "validate")

    def test_arrays_are_read_only_copies(self):
        traj = generate_group(ToyTaskSpec(), initial_policy(ToyTaskSpec()), 2, 0).trajectories[0]
        record = TraceRecord.from_trajectory(traj, "t")
        for array in (record.gripper, record.observations, record.actions, record.phase_ids):
            assert not array.flags.writeable
        with pytest.raises(ValueError, match="read-only"):
            record.gripper[0] = 0.5
        assert traj.observations.flags.writeable and traj.gripper.flags.writeable
        assert record.labels == tuple(PHASES[k].value for k in traj.phase_ids)

    def test_to_trajectory_passes_the_ids_through(self, monkeypatch):
        record = toy_records()[0]
        unlabelled = replace(record, labels=None)

        def refuse(g_f):
            raise AssertionError("to_trajectory labelled the gripper trace")

        monkeypatch.setattr(traces, "label_phases", refuse)
        for r in (record, unlabelled):
            traj = r.to_trajectory()
            assert traj.phase_ids is r.phase_ids
            assert traj.observations is r.observations and traj.gripper is r.gripper


@pytest.mark.parametrize("make", [
    lambda: toy_records()[0],
    lambda: SelectionMask(np.array([3, 1, 2])),
    lambda: PhaseStats(counts=np.array([10.0, 5.0]), variances=np.array([4.0, 1.0]), budget=6),
], ids=["TraceRecord", "SelectionMask", "PhaseStats"])
def test_array_valued_records_compare_and_hash_by_identity(make):
    value = make()
    copy = replace(value)
    assert (value == copy) is False and (value != copy) is True
    assert (value == value) is True
    assert hash(value) == hash(value) and isinstance(hash(copy), int)


class TestGrouping:
    def test_group_records_preserves_order(self):
        records = toy_records(tasks=3, group_size=2)
        groups = group_records(records)
        assert list(groups) == ["task-0", "task-1", "task-2"]
        assert all(len(v) == 2 for v in groups.values())

    def test_records_to_group_builds_advantages(self):
        records = toy_records(tasks=1, group_size=4)
        group = records_to_group(records)
        assert len(group.trajectories) == 4
        assert group.advantages.shape == (4,)

    def test_single_record_group_rejected(self):
        with pytest.raises(ValueError):
            records_to_group(toy_records(tasks=1, group_size=2)[:1])


def test_partial_trailing_chunk_zero_padded():
    record = TraceRecord(
        trajectory_id=0, task_id="t", reward=1.0, chunk_len=4,
        gripper=[0.0] * 6, observations=[[1.0, 0.0], [0.0, 1.0]],
        actions=list(np.arange(6.0)), action_dim=1)
    traj = record.to_trajectory()
    assert traj.actions.shape == (2, 4, 1)
    assert np.allclose(traj.actions[1].reshape(-1), [4.0, 5.0, 0.0, 0.0])
