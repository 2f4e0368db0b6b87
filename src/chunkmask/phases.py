"""Deterministic chunk-level phase labeling from gripper command traces.

A trajectory's gripper-close commands (reals in [0, 1]) are averaged per
chunk, sustained-close intervals are located, and each chunk gets one of
five semantic phase labels. Labels depend only on the gripper trace, never
on the trajectory outcome.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np


class PhaseLabel(Enum):
    ACTIVE_GRIP = "active_grip"
    PRE_GRASP = "pre_grasp"
    RELEASE_RAMP = "release_ramp"
    APPROACH = "approach"
    TAIL = "tail"


# Priority order for overlapping window rules (highest first).
PHASE_PRIORITY = (
    PhaseLabel.ACTIVE_GRIP,
    PhaseLabel.PRE_GRASP,
    PhaseLabel.RELEASE_RAMP,
    PhaseLabel.APPROACH,
    PhaseLabel.TAIL,
)

# Canonical ordering used for arrays indexed by phase: a phase id is an
# index into PHASES.
PHASES = PHASE_PRIORITY


def phase_ids(labels) -> np.ndarray:
    """Integer phase ids (indices into PHASES) of a sequence of labels."""
    return np.array([PHASES.index(c) for c in labels], dtype=int)


@dataclass(frozen=True)
class LabelingConfig:
    sustained_close_threshold: float = 0.75
    active_grip_threshold: float = 0.5
    pre_grasp_low: float = 0.1
    window_len: int = 3

    def __post_init__(self):
        if not (0.0 <= self.pre_grasp_low < self.active_grip_threshold
                <= self.sustained_close_threshold <= 1.0):
            raise ValueError(
                "thresholds must satisfy 0 <= pre_grasp_low < active_grip_threshold"
                " <= sustained_close_threshold <= 1"
            )
        if self.window_len < 1:
            raise ValueError("window_len must be >= 1")


@dataclass(frozen=True)
class GripperTrace:
    """Per-timestep gripper-close commands plus the chunking length."""

    commands: np.ndarray
    chunk_len: int

    def __post_init__(self):
        commands = np.asarray(self.commands, dtype=float)
        object.__setattr__(self, "commands", commands)
        if commands.ndim != 1 or commands.size == 0:
            raise ValueError("gripper trace must be a nonempty 1-D array")
        if self.chunk_len < 1:
            raise ValueError("chunk_len must be >= 1")
        if np.any(commands < 0.0) or np.any(commands > 1.0):
            raise ValueError("gripper commands must lie in [0, 1]")

    @property
    def num_chunks(self) -> int:
        return -(-self.commands.size // self.chunk_len)


def gripper_close_fraction(trace: GripperTrace) -> np.ndarray:
    """Mean close command per chunk; a trailing partial chunk averages over
    its actual timesteps."""
    length, commands = trace.chunk_len, trace.commands
    full = commands.size // length
    fractions = commands[:full * length].reshape(full, length).mean(axis=1)
    if full * length < commands.size:
        fractions = np.append(fractions, commands[full * length:].mean())
    return fractions


def find_sustained_intervals(g_f, threshold: float) -> list[tuple[int, int]]:
    """Maximal consecutive runs of chunks with g_f >= threshold, as inclusive
    [start, end] index pairs in increasing order."""
    g_f = np.asarray(g_f, dtype=float)
    if np.any(g_f < 0.0) or np.any(g_f > 1.0):
        raise ValueError("close fractions must lie in [0, 1]")
    edges = np.flatnonzero(np.diff(np.concatenate([[0], g_f >= threshold, [0]])))
    return list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))


def label_phases(g_f, cfg: LabelingConfig = LabelingConfig()) -> list[PhaseLabel]:
    """Assign one phase label per chunk.

    Rules, resolved by the priority ACTIVE_GRIP > PRE_GRASP > RELEASE_RAMP >
    APPROACH > TAIL:
      - active-grip: g_f >= active_grip_threshold;
      - pre-grasp: up to window_len chunks immediately before a sustained-close
        interval, with pre_grasp_low <= g_f < active_grip_threshold;
      - release-ramp: up to window_len chunks immediately after a sustained
        interval, with g_f < active_grip_threshold;
      - tail: chunks after the last interval's release window with
        g_f < pre_grasp_low;
      - approach: everything else.

    Without any sustained interval there are no window or tail anchors, so
    only the active-grip and approach rules can fire.
    """
    g_f = np.asarray(g_f, dtype=float)
    intervals = find_sustained_intervals(g_f, cfg.sustained_close_threshold)
    j, w = np.arange(g_f.size), cfg.window_len
    below_grip = g_f < cfg.active_grip_threshold
    labels = np.full(g_f.size, PhaseLabel.APPROACH, dtype=object)
    # Each assignment below overrides the previous ones, implementing the
    # priority ordering from lowest to highest.
    if intervals:
        labels[(j > intervals[-1][1] + w) & (g_f < cfg.pre_grasp_low)] = PhaseLabel.TAIL
    for _, end in intervals:
        labels[(j > end) & (j <= end + w) & below_grip] = PhaseLabel.RELEASE_RAMP
    for start, _ in intervals:
        labels[(j >= start - w) & (j < start) & below_grip
               & (g_f >= cfg.pre_grasp_low)] = PhaseLabel.PRE_GRASP
    labels[~below_grip] = PhaseLabel.ACTIVE_GRIP
    return labels.tolist()


def label_trace(trace: GripperTrace, cfg: LabelingConfig = LabelingConfig()) -> list[PhaseLabel]:
    """Convenience wrapper: chunk the trace and label it in one step."""
    return label_phases(gripper_close_fraction(trace), cfg)
