import json

import numpy as np
import pytest

from chunkmask.cli import main
from chunkmask.toyworld import ToyTaskSpec, generate_group, initial_policy
from chunkmask.traces import TraceRecord, write_traces


# An array field given as a JSON number, string, bool or null, with test ids.
_KINDS = {"5": "number", '"x"': "string", "true": "bool", "null": "null"}
NOT_ARRAYS = [(field, None, value) for field in ("gripper", "observations", "actions")
              for value in _KINDS]
NOT_ARRAY_IDS = [f"{field}-not-array-{_KINDS[value]}" for field, _, value in NOT_ARRAYS]


@pytest.fixture
def trace_file(tmp_path):
    spec = ToyTaskSpec()
    policy = initial_policy(spec)
    rng = np.random.default_rng(3)
    records = []
    for t in range(4):
        group = generate_group(spec, policy, 10, rng)
        for traj in group.trajectories:
            records.append(TraceRecord.from_trajectory(traj, task_id=f"task-{t}"))
    path = tmp_path / "traces.jsonl"
    write_traces(path, records)
    return path


class TestTrain:
    def test_writes_metrics_csv(self, tmp_path, capsys):
        out = tmp_path / "metrics.csv"
        code = main(["train", "--mode", "pcm", "--steps", "6",
                     "--out", str(out)])
        assert code == 0
        lines = out.read_text().strip().splitlines()
        assert lines[0].startswith("step,success_rate,")
        assert len(lines) == 7
        assert "final_success" in capsys.readouterr().out

    def test_mode_spellings_with_hyphens(self, tmp_path):
        for mode in ("vanilla", "random-mask", "full-mask"):
            out = tmp_path / f"{mode}.csv"
            assert main(["train", "--mode", mode, "--steps", "3",
                         "--out", str(out)]) == 0

    def test_multi_seed_averaging(self, tmp_path):
        out = tmp_path / "metrics.csv"
        code = main(["train", "--steps", "3", "--seeds", "2",
                     "--out", str(out)])
        assert code == 0
        assert len(out.read_text().strip().splitlines()) == 4

    def test_invalid_group_size_exits_1(self, tmp_path):
        code = main(["train", "--group-size", "1", "--steps", "2",
                     "--out", str(tmp_path / "m.csv")])
        assert code == 1

    @pytest.mark.parametrize("flag, value, message", [
        ("--seeds", "0", "--seeds must be >= 1"),
        ("--seeds", "-2", "--seeds must be >= 1"),
        ("--steps", "0", "steps must be >= 1"),
        ("--lr", "nan", "learning_rate must be finite"),
        ("--lr", "inf", "learning_rate must be finite"),
        ("--seed", "-1", "seed must be >= 0"),
    ], ids=["seeds-0", "seeds-negative", "steps-0", "lr-nan", "lr-inf", "seed-negative"])
    def test_bad_count_or_rate_exits_1(self, tmp_path, capsys, flag, value, message):
        out = tmp_path / "m.csv"
        assert main(["train", "--steps", "2", flag, value, "--out", str(out)]) == 1
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and message in captured.err
        assert captured.out == "" and not out.exists()


class TestAnalyze:
    def test_reports_scores_and_masks(self, trace_file, capsys):
        assert main(["analyze", str(trace_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert set(report["keep_probs"]) == {
            "active_grip", "pre_grasp", "release_ramp", "approach", "tail"}
        assert len(report["groups"]) == 4
        for group in report["groups"]:
            if "skipped" not in group:
                assert len(group["masks"]) == 10
                assert all(len(m) == 12 for m in group["masks"])

    def test_missing_file_exits_1(self, capsys):
        assert main(["analyze", "/nonexistent/traces.jsonl"]) == 1
        assert "error:" in capsys.readouterr().err

    def test_malformed_lines_warn_but_continue(self, trace_file, capsys):
        with open(trace_file, "a") as fh:
            fh.write("not json\n")
        assert main(["analyze", str(trace_file)]) == 0
        captured = capsys.readouterr()
        assert "malformed" in captured.err

    def test_group_with_mixed_chunk_shapes_is_skipped(self, trace_file, capsys):
        # Trajectory 4 of task-1 (line 15) has 3 observation features, the
        # rest of its group 5: that group is skipped with a reason naming
        # the task, the trajectory and both shapes; the others are analyzed
        # exactly as in a file without task-1.
        lines = trace_file.read_text().splitlines()
        payload = json.loads(lines[14])
        payload["observations"] = [row[:3] for row in payload["observations"]]
        trace_file.write_text("\n".join(lines[:14] + [json.dumps(payload)] + lines[15:]) + "\n")
        assert main(["analyze", str(trace_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        trace_file.write_text("\n".join(lines[:10] + lines[20:]) + "\n")
        assert main(["analyze", str(trace_file)]) == 0
        reference = json.loads(capsys.readouterr().out)

        skipped = report["groups"].pop(1)
        assert skipped["task_id"] == "task-1" and "masks" not in skipped
        assert skipped["skipped"] == (
            "task 'task-1': trajectory 4 has chunk shape (features, steps, action dims) "
            "(3, 8, 2), trajectory 0 has (5, 8, 2)")
        assert report == reference

    def test_single_record_group_is_skipped(self, trace_file, capsys):
        # A record with a task id of its own forms a group of one: that group
        # is skipped with its reason, and the others are analyzed exactly as
        # in a file without that record.
        assert main(["analyze", str(trace_file)]) == 0
        reference = json.loads(capsys.readouterr().out)
        payload = json.loads(trace_file.read_text().splitlines()[0])
        with open(trace_file, "a") as fh:
            fh.write(json.dumps(dict(payload, task_id="lonely")) + "\n")
        assert main(["analyze", str(trace_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["groups"].pop() == {"task_id": "lonely", "trajectories": 1,
                                          "skipped": "task 'lonely': group size 1 < 2"}
        assert report == reference

    def test_zero_action_dim_skips_its_line(self, trace_file, capsys):
        lines = trace_file.read_text().splitlines()
        payload = json.loads(lines[0])
        lines[0] = json.dumps(dict(payload, action_dim=0, actions=[]))
        trace_file.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(trace_file)]) == 0
        captured = capsys.readouterr()
        assert "malformed" in captured.err and "line 1: action_dim must be >= 1" in captured.err
        report = json.loads(captured.out)
        assert [g["trajectories"] for g in report["groups"]] == [9, 10, 10, 10]

    # `value` is JSON text, so that numbers json cannot write (1e999) and
    # malformed shapes reach the reader as they would in a trace file.
    @pytest.mark.parametrize("field, index, value", [
        ("gripper", 3, "1.5"),
        ("gripper", 3, "-0.1"),
        ("gripper", 3, "NaN"),
        ("labels", 0, '"banana"'),
        ("actions", 0, "NaN"),
        ("actions", 0, "Infinity"),
        ("actions", 0, "1e999"),
        ("observations", 0, "[-1e999, 0.0, 0.0, 0.0, 0.0]"),
        ("actions", 0, '"x"'),
        ("actions", 0, "[1, 2]"),
        ("observations", 0, "[0.0, 0.0]"),
        # Scalar fields (index None). The toy records have chunk_len 8 and
        # action_dim 2, which int(8.9) and int(2.5) give back, so only a type
        # check rejects these lines.
        ("trajectory_id", None, "3.7"),
        ("trajectory_id", None, '"7"'),
        ("chunk_len", None, "8.9"),
        ("action_dim", None, "2.5"),
        ("task_id", None, "null"),
        ("task_id", None, "7"),
        ("reward", None, '"1"'),
        ("reward", None, "true"),
    ] + NOT_ARRAYS, ids=["gripper-above-1", "gripper-below-0", "gripper-nan", "unknown-label",
            "action-nan", "action-infinity", "action-overflow", "observation-overflow",
            "action-string", "action-nested", "observation-short-row",
            "trajectory-id-float", "trajectory-id-string", "chunk-len-float",
            "action-dim-float", "task-id-null", "task-id-number",
            "reward-string", "reward-bool"] + NOT_ARRAY_IDS)
    def test_invalid_value_skips_its_line(self, trace_file, capsys, field, index, value):
        lines = trace_file.read_text().splitlines()
        payload = json.loads(lines[0])
        if index is None:
            payload[field] = "VALUE"
        else:
            payload[field][index] = "VALUE"
        lines[0] = json.dumps(payload).replace('"VALUE"', value)
        trace_file.write_text("\n".join(lines) + "\n")
        assert main(["analyze", str(trace_file)]) == 0
        captured = capsys.readouterr()
        assert "malformed" in captured.err and "line 1:" in captured.err
        assert len(captured.err.splitlines()) == 1

        def reject(name):
            raise AssertionError(f"non-standard JSON constant {name} in the report")

        report = json.loads(captured.out, parse_constant=reject)
        assert [g["trajectories"] for g in report["groups"]] == [9, 10, 10, 10]


class TestAllocate:
    def test_worked_example(self, capsys):
        code = main(["allocate", "--counts", "10,5", "--variances", "4,1",
                     "--budget", "6", "--integer"])
        assert code == 0
        report = json.loads(capsys.readouterr().out)
        assert report["budgets"] == [4.8, 1.2]
        assert report["total_variance"] == pytest.approx(report["min_variance"])
        assert report["speedup"] == pytest.approx(1.36)
        assert report["integer_budgets"] == [5, 1]

    def test_mismatched_lengths_exit_1(self, capsys):
        assert main(["allocate", "--counts", "1,2", "--variances", "4",
                     "--budget", "3"]) == 1

    @pytest.mark.parametrize("counts, variances, field", [
        ("1,2", "1,nan", "variances"), ("1,inf", "1,1", "counts")],
        ids=["variance-nan", "count-inf"])
    def test_non_finite_stats_exit_1(self, capsys, counts, variances, field):
        assert main(["allocate", "--counts", counts, "--variances", variances,
                     "--budget", "3", "--integer"]) == 1
        captured = capsys.readouterr()
        assert captured.out == "" and f"error: {field} must be finite" in captured.err


class TestSweepBudget:
    def test_emits_curve_and_knee(self, trace_file, capsys):
        assert main(["sweep-budget", str(trace_file)]) == 0
        report = json.loads(capsys.readouterr().out)
        assert report["knee_defined"]
        assert 0.0 < report["knee_fraction"] < 1.0
        assert len(report["curve"]) == 4 * 10 * 16

    def test_group_with_mixed_chunk_shapes_is_skipped(self, trace_file, capsys):
        lines = trace_file.read_text().splitlines()
        payload = json.loads(lines[14])
        payload["observations"] = [row[:3] for row in payload["observations"]]
        trace_file.write_text("\n".join(lines[:14] + [json.dumps(payload)] + lines[15:]) + "\n")
        assert main(["sweep-budget", str(trace_file)]) == 0
        captured = capsys.readouterr()
        assert "skipped group (task 'task-1': trajectory 4 has chunk shape" in captured.err
        trace_file.write_text("\n".join(lines[:10] + lines[20:]) + "\n")
        assert main(["sweep-budget", str(trace_file)]) == 0
        assert json.loads(captured.out) == json.loads(capsys.readouterr().out)

    def test_single_record_group_is_skipped(self, trace_file, capsys):
        assert main(["sweep-budget", str(trace_file)]) == 0
        reference = capsys.readouterr().out
        payload = json.loads(trace_file.read_text().splitlines()[0])
        with open(trace_file, "a") as fh:
            fh.write(json.dumps(dict(payload, task_id="lonely")) + "\n")
        assert main(["sweep-budget", str(trace_file)]) == 0
        captured = capsys.readouterr()
        assert "warning: skipped group (task 'lonely': group size 1 < 2)" in captured.err
        assert captured.out == reference


class TestVerify:
    def test_passes_with_exit_0(self, capsys):
        assert main(["verify", "--fast"]) == 0
        out = capsys.readouterr().out
        assert out.count("PASS") == 6

    def test_zero_budget_exits_1(self, capsys):
        assert main(["verify", "--budget", "0"]) == 1

    def test_failure_exits_2(self, monkeypatch, capsys):
        from chunkmask import cli
        from chunkmask.verify import CheckResult

        monkeypatch.setattr(
            cli, "run_checks",
            lambda **kwargs: [CheckResult("stub", False, "forced failure")])
        assert main(["verify"]) == 2
        assert "FAIL" in capsys.readouterr().out
