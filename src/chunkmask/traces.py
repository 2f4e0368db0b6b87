"""Line-delimited trajectory trace records (one JSON object per line).

The wire format is language-neutral: numeric fields are plain decimals,
actions are stored per timestep (length T*D), observations per chunk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .grpo import ChunkedTrajectory, RolloutGroup
from .phases import GripperTrace, LabelingConfig, PhaseLabel, gripper_close_fraction, label_phases


class TraceFormatError(ValueError):
    """Malformed trace record; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


@dataclass
class TraceRecord:
    trajectory_id: int
    task_id: str
    reward: float
    chunk_len: int
    gripper: list          # per-timestep close commands, length T
    observations: list     # per-chunk feature vectors, length N
    actions: list          # per-timestep action values, flattened, length T*D
    action_dim: int
    labels: list = None    # optional phase label names, length N

    def validate(self, line_number: int = 0) -> None:
        t = len(self.gripper)
        if t == 0:
            raise TraceFormatError(line_number, "empty gripper trace")
        if self.chunk_len < 1:
            raise TraceFormatError(line_number, "chunk_len must be >= 1")
        n = -(-t // self.chunk_len)
        if len(self.observations) != n:
            raise TraceFormatError(
                line_number, f"expected {n} per-chunk observations, got {len(self.observations)}")
        if len(self.actions) != t * self.action_dim:
            raise TraceFormatError(
                line_number,
                f"action array length {len(self.actions)} != T*D = {t * self.action_dim}")
        if self.labels is not None and len(self.labels) != n:
            raise TraceFormatError(line_number, "labels must cover every chunk")
        if self.reward not in (0.0, 1.0):
            raise TraceFormatError(
                line_number, f"reward must be 0 (failure) or 1 (success), got {self.reward}")

    def to_json(self) -> str:
        payload = {
            "trajectory_id": self.trajectory_id,
            "task_id": self.task_id,
            "reward": self.reward,
            "chunk_len": self.chunk_len,
            "action_dim": self.action_dim,
            "gripper": list(map(float, self.gripper)),
            "observations": [list(map(float, o)) for o in self.observations],
            "actions": list(map(float, self.actions)),
        }
        if self.labels is not None:
            payload["labels"] = [c.value if isinstance(c, PhaseLabel) else c
                                 for c in self.labels]
        return json.dumps(payload)

    @classmethod
    def from_json(cls, line: str, line_number: int = 0) -> "TraceRecord":
        try:
            payload = json.loads(line)
        except json.JSONDecodeError as exc:
            raise TraceFormatError(line_number, f"invalid JSON: {exc}") from exc
        try:
            record = cls(
                trajectory_id=int(payload["trajectory_id"]),
                task_id=str(payload["task_id"]),
                reward=float(payload["reward"]),
                chunk_len=int(payload["chunk_len"]),
                action_dim=int(payload["action_dim"]),
                gripper=payload["gripper"],
                observations=payload["observations"],
                actions=payload["actions"],
                labels=payload.get("labels"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(line_number, f"bad record: {exc}") from exc
        record.validate(line_number)
        return record

    def to_trajectory(self, labeling: LabelingConfig = LabelingConfig()) -> ChunkedTrajectory:
        """Chunk the flat arrays; missing labels are recomputed from the
        gripper trace. A trailing partial chunk is zero-padded in the action
        tensor; the gripper trace keeps the real length T, from which
        RolloutGroup.from_trajectories marks the padding invalid, so scores
        and gradients see only the real timesteps."""
        gripper = np.asarray(self.gripper, dtype=float)
        t = gripper.size
        n = -(-t // self.chunk_len)
        actions = np.asarray(self.actions, dtype=float).reshape(t, self.action_dim)
        padded = np.zeros((n * self.chunk_len, self.action_dim))
        padded[:t] = actions
        chunked = padded.reshape(n, self.chunk_len, self.action_dim)
        if self.labels is not None:
            labels = [PhaseLabel(c) for c in self.labels]
        else:
            trace = GripperTrace(gripper, self.chunk_len)
            labels = label_phases(gripper_close_fraction(trace), labeling)
        return ChunkedTrajectory(
            observations=np.asarray(self.observations, dtype=float),
            actions=chunked,
            gripper=gripper,
            labels=labels,
            reward=self.reward,
            trajectory_id=self.trajectory_id,
        )

    @classmethod
    def from_trajectory(cls, traj: ChunkedTrajectory, task_id: str,
                        include_labels: bool = True) -> "TraceRecord":
        t = len(traj.gripper)
        d = traj.actions.shape[-1]
        flat = traj.actions.reshape(-1, d)[:t].reshape(-1)
        return cls(
            trajectory_id=traj.trajectory_id,
            task_id=task_id,
            reward=traj.reward,
            chunk_len=traj.actions.shape[1],
            action_dim=d,
            gripper=list(traj.gripper),
            observations=[list(o) for o in traj.observations],
            actions=list(flat),
            labels=list(traj.labels) if include_labels else None,
        )


def write_traces(path, records) -> None:
    with open(path, "w") as fh:
        for record in records:
            fh.write(record.to_json() + "\n")


def read_traces(path, on_error=None) -> list[TraceRecord]:
    """Read a trace file. Malformed lines raise TraceFormatError unless
    on_error is given, in which case it is called with the error and
    processing continues."""
    records = []
    with open(path) as fh:
        for number, line in enumerate(fh, start=1):
            line = line.strip()
            if not line:
                continue
            try:
                records.append(TraceRecord.from_json(line, number))
            except TraceFormatError as exc:
                if on_error is None:
                    raise
                on_error(exc)
    return records


def group_records(records) -> dict:
    """Group records by task id, preserving file order."""
    groups = {}
    for record in records:
        groups.setdefault(record.task_id, []).append(record)
    return groups


def records_to_group(records, epsilon: float = 1e-6) -> RolloutGroup:
    if len(records) < 2:
        raise ValueError("a rollout group needs at least 2 trajectories")
    return RolloutGroup.from_trajectories(
        [r.to_trajectory() for r in records], epsilon=epsilon)
