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


# The JSON type of each required field, in wire order. A bool is no number
# here (json reads true as True, an int), and neither a float nor a string is
# an integer.
_FIELD_TYPES = {"trajectory_id": (int, "an integer"), "task_id": (str, "a string"),
                "reward": ((int, float), "a number"), "chunk_len": (int, "an integer"),
                "action_dim": (int, "an integer"), "gripper": (list, "an array"),
                "observations": (list, "an array"), "actions": (list, "an array")}


def _length(name: str, value) -> int:
    """len() of an array field; ValueError naming the field if it is no array."""
    try:
        if not isinstance(value, str):
            return len(value)
    except TypeError:
        pass
    raise ValueError(f"{name} must be an array, got {value!r}")


@dataclass(frozen=True)
class TraceRecord:
    """One trajectory of a trace file, checked when it is built: a malformed
    record raises ValueError. The arrays are stored read-only, as float
    copies; labels as a tuple of label names. phase_ids (N,) is computed
    once: the ids of the stored labels, which win, or without labels the
    ids label_phases gives the gripper trace."""

    trajectory_id: int
    task_id: str
    reward: float
    chunk_len: int
    gripper: np.ndarray       # per-timestep close commands, (T,)
    observations: np.ndarray  # per-chunk feature vectors, (N, F)
    actions: np.ndarray       # per-timestep action values, flattened, (T*D,)
    action_dim: int
    labels: tuple = None      # optional phase label names, length N
    phase_ids: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        t, rows, values = (_length(name, getattr(self, name))
                           for name in ("gripper", "observations", "actions"))
        if t == 0:
            raise ValueError("empty gripper trace")
        if self.chunk_len < 1:
            raise ValueError("chunk_len must be >= 1")
        if self.action_dim < 1:
            raise ValueError("action_dim must be >= 1")
        n = -(-t // self.chunk_len)
        if rows != n:
            raise ValueError(f"expected {n} per-chunk observations, got {rows}")
        if values != t * self.action_dim:
            raise ValueError(f"action array length {values} != T*D = {t * self.action_dim}")
        try:
            gripper = np.array(self.gripper, dtype=float)
            actions = np.array(self.actions, dtype=float)
            observations = np.array(self.observations, dtype=float)
            labels = (None if self.labels is None
                      else tuple(PhaseLabel(c).value for c in self.labels))
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bad record: {exc}") from exc
        if gripper.ndim != 1 or actions.ndim != 1 or observations.ndim != 2:
            raise ValueError("gripper and actions must be flat lists and observations "
                             "a list of equal-length feature rows")
        if not np.all((gripper >= 0.0) & (gripper <= 1.0)):
            raise ValueError("gripper commands must lie in [0, 1]")
        if not (np.isfinite(actions).all() and np.isfinite(observations).all()):
            raise ValueError("actions and observations must be finite")
        if labels is not None and len(labels) != n:
            raise ValueError("labels must cover every chunk")
        if self.reward not in (0.0, 1.0):
            raise ValueError(f"reward must be 0 (failure) or 1 (success), got {self.reward}")
        ids = (phase_ids(labels) if labels is not None
               else label_phases(gripper_close_fraction(gripper, self.chunk_len)))
        for name, value in (("gripper", gripper), ("actions", actions),
                            ("observations", observations), ("phase_ids", ids)):
            value.setflags(write=False)
            object.__setattr__(self, name, value)
        object.__setattr__(self, "labels", labels)

    def to_json(self) -> str:
        payload = {key: getattr(self, key) for key in _FIELD_TYPES}
        for key in ("gripper", "observations", "actions"):
            payload[key] = payload[key].tolist()
        if self.labels is not None:
            payload["labels"] = list(self.labels)
        return json.dumps(payload)

    @classmethod
    def from_json(cls, line: str, line_number: int = 0) -> "TraceRecord":
        try:
            payload = json.loads(line, parse_constant=_reject_constant)
        except ValueError as exc:
            raise TraceFormatError(line_number, f"invalid JSON: {exc}") from exc
        try:
            for key, (types, kind) in _FIELD_TYPES.items():
                value = payload[key]
                if isinstance(value, bool) or not isinstance(value, types):
                    raise TypeError(f"{key} must be {kind}, got {json.dumps(value)}")
            values = {key: payload[key] for key in _FIELD_TYPES}
            values["reward"] = float(values["reward"])
        except (KeyError, TypeError, OverflowError) as exc:
            raise TraceFormatError(line_number, f"bad record: {exc}") from exc
        try:
            return cls(**values, labels=payload.get("labels"))
        except ValueError as exc:
            raise TraceFormatError(line_number, str(exc)) from exc

    def to_trajectory(self) -> ChunkedTrajectory:
        """The record as a trajectory of N chunks, its arrays and phase ids
        passed through. A trailing partial chunk is zero-padded in the action
        tensor; the gripper trace keeps the real length T, from which
        RolloutGroup.from_trajectories marks the padding invalid, so scores
        and gradients see only the real timesteps."""
        t, n = self.gripper.size, self.phase_ids.size
        padded = np.zeros((n * self.chunk_len, self.action_dim))
        padded[:t] = self.actions.reshape(t, self.action_dim)
        return ChunkedTrajectory(
            observations=self.observations,
            actions=padded.reshape(n, self.chunk_len, self.action_dim),
            gripper=self.gripper,
            phase_ids=self.phase_ids,
            reward=self.reward,
            trajectory_id=self.trajectory_id,
        )

    @classmethod
    def from_trajectory(cls, traj: ChunkedTrajectory, task_id: str,
                        include_labels: bool = True) -> "TraceRecord":
        t = len(traj.gripper)
        d = traj.actions.shape[-1]
        return cls(
            trajectory_id=traj.trajectory_id,
            task_id=task_id,
            reward=traj.reward,
            chunk_len=traj.actions.shape[1],
            action_dim=d,
            gripper=traj.gripper,
            observations=traj.observations,
            actions=traj.actions.reshape(-1, d)[:t].reshape(-1),
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
    shapes = [(r.observations.shape[1], r.chunk_len, r.action_dim) for r in records]
    for record, shape in zip(records, shapes):
        if shape != shapes[0]:
            raise GroupShapeError(
                f"task {record.task_id!r}: trajectory {record.trajectory_id} has chunk "
                f"shape (features, steps, action dims) {shape}, trajectory "
                f"{records[0].trajectory_id} has {shapes[0]}")
    return RolloutGroup.from_trajectories(r.to_trajectory() for r in records)
