import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from chunkmask import traces
from chunkmask.analysis import analyze, knee_point, sweep_budget
from chunkmask.phases import PHASES, PhaseLabel, label_phases
from chunkmask.toyworld import ToyTaskSpec, generate_group, initial_policy
from chunkmask.traces import TraceRecord, read_traces

AG = PhaseLabel.ACTIVE_GRIP
PG = PhaseLabel.PRE_GRASP


def toy_records(seed=0, tasks=4, group_size=10, force_uniform_task=None):
    spec = ToyTaskSpec()
    policy = initial_policy(spec)
    rng = np.random.default_rng(seed)
    records = []
    for t in range(tasks):
        group = generate_group(spec, policy, group_size, rng)
        for traj in group.trajectories:
            record = TraceRecord.from_trajectory(traj, task_id=f"task-{t}")
            if force_uniform_task == t:
                record = replace(record, reward=1.0)
            records.append(record)
    return records


class TestAnalyze:
    def test_scores_concentrate_on_critical_phases(self):
        result = analyze(toy_records())
        assert result.keep_probs[AG] > 0.5
        assert result.keep_probs[PG] > 0.5
        for phase in (PhaseLabel.RELEASE_RAMP, PhaseLabel.APPROACH,
                      PhaseLabel.TAIL):
            assert result.keep_probs[phase] == pytest.approx(0.1)

    def test_uniform_reward_group_reported_skipped(self):
        result = analyze(toy_records(force_uniform_task=1))
        skipped = {g.task_id: g.skipped_reason for g in result.groups
                   if g.skipped_reason}
        assert skipped == {"task-1": "zero reward variance"}
        scored = [g for g in result.groups if g.report is not None]
        assert len(scored) == 3

    def test_masks_respect_budget(self):
        result = analyze(toy_records(), budget=5)
        for g in result.groups:
            if g.masks:
                assert all(len(m.indices) == 5 for m in g.masks)

    def test_single_trajectory_group_is_an_error(self):
        records = toy_records(tasks=1)[:1]
        with pytest.raises(ValueError, match="group size"):
            analyze(records)

    def test_all_groups_skipped_is_an_error(self):
        records = toy_records(tasks=1, force_uniform_task=0)
        with pytest.raises(ValueError, match="skipped"):
            analyze(records)

    def test_deterministic_given_seed(self):
        a = analyze(toy_records(), seed=3)
        b = analyze(toy_records(), seed=3)
        for ga, gb in zip(a.groups, b.groups):
            if ga.masks:
                assert all(np.array_equal(ma.indices, mb.indices)
                           for ma, mb in zip(ga.masks, gb.masks))


class TestKneePoint:
    def test_constructed_knee_recovered_within_one_chunk(self):
        # Piecewise-linear curve over 100 chunks with its corner at 20%
        # retained / 80% captured: the analytic maximum-gap point.
        n = 100
        fractions = np.arange(1, n + 1) / n
        captured = np.where(fractions <= 0.2, 4.0 * fractions,
                            0.8 + 0.25 * (fractions - 0.2))
        idx, defined = knee_point(fractions, captured)
        assert defined
        assert abs(fractions[idx] - 0.2) <= 1.0 / n

    def test_diagonal_has_no_knee(self):
        fractions = np.arange(1, 11) / 10
        idx, defined = knee_point(fractions, fractions.copy())
        assert not defined
        assert idx == 9  # full budget

    def test_concave_oracle_grid(self):
        # sqrt curve: gap f(x) = sqrt(x) - x peaks at x = 1/4.
        n = 400
        fractions = np.arange(1, n + 1) / n
        idx, defined = knee_point(fractions, np.sqrt(fractions))
        assert defined
        assert abs(fractions[idx] - 0.25) <= 1.0 / n


class TestSweepBudget:
    def test_concentrated_traces_lie_above_diagonal(self):
        sweep = sweep_budget(toy_records())
        assert sweep.knee_defined
        interior = slice(0, -1)
        assert np.all(sweep.captured[interior] > sweep.fractions[interior])
        assert sweep.captured[-1] == pytest.approx(1.0)

    def test_knee_matches_critical_chunk_fraction(self):
        # The six critical chunks (4 active-grip + 2 pre-grasp of 16) carry
        # nearly all the score mass, so the knee sits at their fraction.
        sweep = sweep_budget(toy_records())
        assert sweep.knee_fraction == pytest.approx(6 / 16, abs=1 / 16)
        assert sweep.knee_captured > 0.8

    def test_uniform_scores_degenerate_to_diagonal(self):
        # Force every phase to the same score by zeroing reward structure:
        # identical actions in all phases make the mean gaps equal (zero),
        # collapsing the curve onto the diagonal.
        records = [replace(r, actions=[0.0] * len(r.actions)) for r in toy_records(tasks=2)]
        sweep = sweep_budget(records)
        assert not sweep.knee_defined
        assert sweep.knee_fraction == pytest.approx(1.0)
        assert np.allclose(sweep.captured, sweep.fractions)


def unlabelled_trace_file(tmp_path):
    """An unlabelled trace file of 4 toy groups of 6 in which about half of
    the trajectories end in a partial trailing chunk."""
    spec = ToyTaskSpec()
    policy = initial_policy(spec)
    rng = np.random.default_rng(20261020)
    length, dim = spec.chunk_len, spec.action_dim
    lines = []
    for t in range(4):
        for traj in generate_group(spec, policy, 6, rng).trajectories:
            cut = spec.chunks_per_traj * length
            if rng.random() < 0.5:
                cut -= int(rng.integers(1, length))
            lines.append(json.dumps({
                "trajectory_id": traj.trajectory_id, "task_id": f"task-{t}",
                "reward": traj.reward, "chunk_len": length, "action_dim": dim,
                "gripper": traj.gripper[:cut].tolist(),
                "observations": traj.observations.tolist(),
                "actions": traj.actions.reshape(-1, dim)[:cut].reshape(-1).tolist(),
            }))
    path = tmp_path / "traces.jsonl"
    path.write_text("\n".join(lines) + "\n")
    return path


class TestOutputsPinned:
    # sha256 of the outputs below, recorded before the labeler returned
    # phase ids; the counterpart of test_random_streams_pinned for analysis.
    PINNED = "7d01ce50b04022c834a5e726670a21c26ce580fe6bca4d1190bcc6be40e93c90"

    def test_analysis_outputs_pinned(self, tmp_path):
        """analyze's keep probabilities, phase scores and masks and
        sweep_budget's curve, bit for bit, on unlabelled_trace_file."""
        records = read_traces(unlabelled_trace_file(tmp_path))
        result = analyze(records, budget=5, seed=1)
        sweep = sweep_budget(records)

        digest = hashlib.sha256()
        digest.update(np.array([result.keep_probs[c] for c in PHASES]).tobytes())
        for group in result.groups:
            digest.update(repr((group.task_id, group.skipped_reason)).encode())
            if group.report is not None:
                digest.update(group.report.tobytes())
                for mask in group.masks:
                    digest.update(mask.indices.astype(np.int64).tobytes())
        digest.update(sweep.fractions.tobytes() + sweep.captured.tobytes())
        digest.update(repr((sweep.knee_index, sweep.knee_defined, sweep.skipped)).encode())
        assert digest.hexdigest() == self.PINNED, (
            "analyze or sweep_budget outputs moved from the pinned run: a refactor "
            "changed the analysis outputs (keep probabilities, phase scores, masks "
            "or the budget-sweep curve)")


def test_each_record_is_labelled_once(tmp_path, monkeypatch):
    """A read + analyze + sweep_budget pass over an unlabelled file labels
    each record once, when the reader builds it."""
    calls = []

    def counted(g_f):
        calls.append(1)
        return label_phases(g_f)

    monkeypatch.setattr(traces, "label_phases", counted)
    records = read_traces(unlabelled_trace_file(tmp_path))
    analyze(records, budget=5, seed=1)
    sweep_budget(records)
    assert len(records) == 24 and len(calls) == len(records)
