"""Deterministic chunk-level phase labeling from gripper command traces.

A trajectory's gripper-close commands (reals in [0, 1]) are averaged per
chunk, sustained-close intervals are located, and each chunk gets one of
five semantic phases, as its phase id (an index into PHASES). Phases depend
only on the gripper trace, never on the trajectory outcome. The labeling
thresholds and window length are module constants.
"""

from __future__ import annotations

import math
from enum import Enum

import numpy as np


class PhaseLabel(Enum):
    ACTIVE_GRIP = "active_grip"
    PRE_GRASP = "pre_grasp"
    RELEASE_RAMP = "release_ramp"
    APPROACH = "approach"
    TAIL = "tail"


# Canonical ordering used for arrays indexed by phase: a phase id is an
# index into PHASES. It is also the priority order for overlapping window
# rules (highest first).
PHASES = (
    PhaseLabel.ACTIVE_GRIP,
    PhaseLabel.PRE_GRASP,
    PhaseLabel.RELEASE_RAMP,
    PhaseLabel.APPROACH,
    PhaseLabel.TAIL,
)


def phase_ids(labels) -> np.ndarray:
    """Integer phase ids (indices into PHASES) of a sequence of label names
    or PhaseLabel members."""
    return np.array([PHASES.index(PhaseLabel(c)) for c in labels], dtype=int)


def phase_dict(values) -> dict:
    """{PhaseLabel: float} of a (P,) array indexed by phase id, without the
    NaN (unscored) entries; for output only."""
    return {c: v for c, v in zip(PHASES, np.asarray(values, dtype=float).tolist())
            if not math.isnan(v)}


# Labeling rule constants, with 0 <= PRE_GRASP_LOW < ACTIVE_GRIP_THRESHOLD
# <= SUSTAINED_CLOSE_THRESHOLD <= 1.
SUSTAINED_CLOSE_THRESHOLD = 0.75  # close fraction of a sustained-close chunk
ACTIVE_GRIP_THRESHOLD = 0.5
PRE_GRASP_LOW = 0.1
WINDOW_LEN = 3  # chunks of the pre-grasp and release windows


def gripper_close_fraction(commands, chunk_len: int) -> np.ndarray:
    """Mean close command per chunk of chunk_len timesteps; a trailing partial
    chunk averages over its actual timesteps."""
    commands = np.asarray(commands, dtype=float)
    full = commands.size // chunk_len
    fractions = commands[:full * chunk_len].reshape(full, chunk_len).mean(axis=1)
    if full * chunk_len < commands.size:
        fractions = np.append(fractions, commands[full * chunk_len:].mean())
    return fractions


def find_sustained_intervals(g_f, threshold: float) -> list[tuple[int, int]]:
    """Maximal consecutive runs of chunks with g_f >= threshold, as inclusive
    [start, end] index pairs in increasing order."""
    g_f = np.asarray(g_f, dtype=float)
    if np.any(g_f < 0.0) or np.any(g_f > 1.0):
        raise ValueError("close fractions must lie in [0, 1]")
    edges = np.flatnonzero(np.diff(np.concatenate([[0], g_f >= threshold, [0]])))
    return list(zip(edges[::2].tolist(), (edges[1::2] - 1).tolist()))


def label_phases(g_f) -> np.ndarray:
    """Assign one phase per chunk, as a (N,) array of phase ids.

    Rules, resolved by the priority ACTIVE_GRIP > PRE_GRASP > RELEASE_RAMP >
    APPROACH > TAIL:
      - active-grip: g_f >= ACTIVE_GRIP_THRESHOLD;
      - pre-grasp: up to WINDOW_LEN chunks immediately before a sustained-close
        interval (g_f >= SUSTAINED_CLOSE_THRESHOLD), with
        PRE_GRASP_LOW <= g_f < ACTIVE_GRIP_THRESHOLD;
      - release-ramp: up to WINDOW_LEN chunks immediately after a sustained
        interval, with g_f < ACTIVE_GRIP_THRESHOLD;
      - tail: chunks after the last interval's release window with
        g_f < PRE_GRASP_LOW;
      - approach: everything else.

    Without any sustained interval there are no window or tail anchors, so
    only the active-grip and approach rules can fire.
    """
    g_f = np.asarray(g_f, dtype=float)
    intervals = find_sustained_intervals(g_f, SUSTAINED_CLOSE_THRESHOLD)
    j, w = np.arange(g_f.size), WINDOW_LEN
    below_grip = g_f < ACTIVE_GRIP_THRESHOLD
    ids = np.full(g_f.size, PHASES.index(PhaseLabel.APPROACH))
    # Each assignment below overrides the previous ones, implementing the
    # priority ordering from lowest to highest.
    if intervals:
        ids[(j > intervals[-1][1] + w) & (g_f < PRE_GRASP_LOW)] = PHASES.index(PhaseLabel.TAIL)
    for _, end in intervals:
        ids[(j > end) & (j <= end + w) & below_grip] = PHASES.index(PhaseLabel.RELEASE_RAMP)
    for start, _ in intervals:
        ids[(j >= start - w) & (j < start) & below_grip
            & (g_f >= PRE_GRASP_LOW)] = PHASES.index(PhaseLabel.PRE_GRASP)
    ids[~below_grip] = PHASES.index(PhaseLabel.ACTIVE_GRIP)
    return ids
