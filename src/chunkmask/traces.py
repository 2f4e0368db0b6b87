"""Line-delimited trajectory trace records (one JSON object per line).

The wire format is language-neutral: numeric fields are plain decimals,
actions are stored per timestep (length T*D), observations per chunk.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

from .grpo import ChunkedTrajectory, RolloutGroup
from .phases import PHASES, PhaseLabel, gripper_close_fraction, label_phases, phase_ids


class TraceFormatError(ValueError):
    """Malformed trace record; carries the 1-based line number."""

    def __init__(self, line_number: int, message: str):
        super().__init__(f"line {line_number}: {message}")
        self.line_number = line_number


class GroupShapeError(ValueError):
    """The records of one task group cannot be stacked into a group: there
    are fewer than 2, or they differ in observation width, chunk length or
    action dimension."""


def _reject_constant(name: str):
    raise ValueError(f"non-finite number {name}")


# The JSON type of each scalar field. A bool is no number here (json reads
# true as True, an int), and neither a float nor a string is an integer.
_SCALAR_TYPES = {"trajectory_id": (int, "an integer"), "task_id": (str, "a string"),
                 "reward": ((int, float), "a number"), "chunk_len": (int, "an integer"),
                 "action_dim": (int, "an integer")}


@dataclass
class TraceRecord:
    trajectory_id: int
    task_id: str
    reward: float
    chunk_len: int
    # Lists as read; validate() stores them as float arrays.
    gripper: list          # per-timestep close commands, length T
    observations: list     # per-chunk feature vectors, length N
    actions: list          # per-timestep action values, flattened, length T*D
    action_dim: int
    labels: list = None    # optional phase label names, length N

    def validate(self, line_number: int = 0) -> None:
        """Raise TraceFormatError for a malformed record; otherwise store
        gripper, actions and observations as the float arrays checked."""
        t = len(self.gripper)
        if t == 0:
            raise TraceFormatError(line_number, "empty gripper trace")
        if self.chunk_len < 1:
            raise TraceFormatError(line_number, "chunk_len must be >= 1")
        if self.action_dim < 1:
            raise TraceFormatError(line_number, "action_dim must be >= 1")
        n = -(-t // self.chunk_len)
        if len(self.observations) != n:
            raise TraceFormatError(
                line_number, f"expected {n} per-chunk observations, got {len(self.observations)}")
        if len(self.actions) != t * self.action_dim:
            raise TraceFormatError(
                line_number,
                f"action array length {len(self.actions)} != T*D = {t * self.action_dim}")
        try:
            gripper = np.asarray(self.gripper, dtype=float)
            actions = np.asarray(self.actions, dtype=float)
            observations = np.asarray(self.observations, dtype=float)
            labels = None if self.labels is None else [PhaseLabel(c) for c in self.labels]
        except (TypeError, ValueError) as exc:
            raise TraceFormatError(line_number, f"bad record: {exc}") from exc
        if gripper.ndim != 1 or actions.ndim != 1 or observations.ndim != 2:
            raise TraceFormatError(
                line_number, "gripper and actions must be flat lists and observations "
                "a list of equal-length feature rows")
        if not np.all((gripper >= 0.0) & (gripper <= 1.0)):
            raise TraceFormatError(line_number, "gripper commands must lie in [0, 1]")
        if not (np.isfinite(actions).all() and np.isfinite(observations).all()):
            raise TraceFormatError(line_number, "actions and observations must be finite")
        if labels is not None and len(labels) != n:
            raise TraceFormatError(line_number, "labels must cover every chunk")
        if self.reward not in (0.0, 1.0):
            raise TraceFormatError(
                line_number, f"reward must be 0 (failure) or 1 (success), got {self.reward}")
        self.gripper, self.actions, self.observations = gripper, actions, observations

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
            payload["labels"] = [PhaseLabel(c).value for c in self.labels]
        return json.dumps(payload)

    @classmethod
    def from_json(cls, line: str, line_number: int = 0) -> "TraceRecord":
        try:
            payload = json.loads(line, parse_constant=_reject_constant)
        except ValueError as exc:
            raise TraceFormatError(line_number, f"invalid JSON: {exc}") from exc
        try:
            for key, (types, kind) in _SCALAR_TYPES.items():
                value = payload[key]
                if isinstance(value, bool) or not isinstance(value, types):
                    raise TypeError(f"{key} must be {kind}, got {json.dumps(value)}")
            record = cls(
                trajectory_id=payload["trajectory_id"],
                task_id=payload["task_id"],
                reward=float(payload["reward"]),
                chunk_len=payload["chunk_len"],
                action_dim=payload["action_dim"],
                gripper=payload["gripper"],
                observations=payload["observations"],
                actions=payload["actions"],
                labels=payload.get("labels"),
            )
        except (KeyError, TypeError, ValueError) as exc:
            raise TraceFormatError(line_number, f"bad record: {exc}") from exc
        record.validate(line_number)
        return record

    def to_trajectory(self) -> ChunkedTrajectory:
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
            ids = phase_ids(self.labels)
        else:
            ids = label_phases(gripper_close_fraction(gripper, self.chunk_len))
        return ChunkedTrajectory(
            observations=np.asarray(self.observations, dtype=float),
            actions=chunked,
            gripper=gripper,
            phase_ids=ids,
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
            labels=[PHASES[k].value for k in traj.phase_ids] if include_labels else None,
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


def records_to_group(records) -> RolloutGroup:
    """Stack one task's records into a RolloutGroup. Raises GroupShapeError,
    naming the task, when there are fewer than 2 records, or, naming also the
    trajectory and both shapes, when a record's observation width or (chunk
    length, action dimension) differs from the first record's."""
    if len(records) < 2:
        task = records[0].task_id if records else None
        raise GroupShapeError(f"task {task!r}: group size {len(records)} < 2")
    trajectories = [r.to_trajectory() for r in records]
    shapes = [(t.observations.shape[1], *t.actions.shape[1:]) for t in trajectories]
    for record, shape in zip(records, shapes):
        if shape != shapes[0]:
            raise GroupShapeError(
                f"task {record.task_id!r}: trajectory {record.trajectory_id} has chunk "
                f"shape (features, steps, action dims) {shape}, trajectory "
                f"{records[0].trajectory_id} has {shapes[0]}")
    return RolloutGroup.from_trajectories(trajectories)
