"""Training loop: rollout groups, phase scoring, budgeted chunk selection,
and masked gradient-descent updates, with per-step metrics."""

from __future__ import annotations

import csv
from collections import deque
from concurrent.futures import ThreadPoolExecutor
from contextlib import closing
from dataclasses import dataclass, field, replace

import numpy as np

from .grpo import GaussianChunkPolicy, masked_loss_grad
from .phases import PHASES, phase_dict
from .sampling import shrink_batch, weighted_sample_rows
# Imported for perfbench/tracing.py, which wraps it under this module's name.
from .sampling import weighted_sample_without_replacement  # noqa: F401
from .scores import PhaseScoreState, compute_phase_scores
from .toyworld import ToyTaskSpec, generate_batch, generate_group, initial_policy, noise_size

MODES = ("pcm", "vanilla", "random_mask", "full_mask")
EVAL_ROLLOUTS = 50  # greedy rollouts behind each step's success rate
DRAW_AHEAD = 2  # steps whose noise the draw worker holds ready beyond the current one
FINAL_WINDOW = 10  # last steps averaged by final_success


@dataclass
class TrainConfig:
    mode: str = "pcm"
    group_size: int = 10
    budget: int = 12
    refresh_window: int = 5
    p_min: float = 0.1
    learning_rate: float = 2e-3
    steps: int = 300
    seed: int = 0

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")
        if self.steps < 1:
            raise ValueError("steps must be >= 1")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if not np.isfinite(self.learning_rate):
            raise ValueError(f"learning_rate must be finite, got {self.learning_rate}")


@dataclass
class StepMetrics:
    step: int
    success_rate: float
    chunks_used: int
    cumulative_chunks: int
    allocation: dict = field(default_factory=dict)  # phase -> selected chunks / trajectory
    keep_probs: dict = field(default_factory=dict)
    phase_scores: dict = field(default_factory=dict)
    skipped: bool = False


def _select_masks(mode, group, state: PhaseScoreState, budget, seed, step):
    """(G, m) sorted chunk indices per trajectory; the rows of a toyworld
    group share one phase layout, so every row keeps as many chunks.

    Stream contract: row i draws from its own generator, seeded with the
    uint32 words of seed (little-endian, [0] for 0), step and i. numpy
    coerces the tuple (seed, step, i) to these same words, so this is
    SeedSequence((seed, step, i)) for every seed >= 0; any other derivation
    moves every pcm, random_mask and full_mask run."""
    g, n = group.phase_ids.shape
    m = min(budget, n)
    width = max(1, (int(seed).bit_length() + 31) // 32)
    words = np.empty((g, width + 2), dtype=np.uint32)
    words[:, :width] = np.frombuffer(int(seed).to_bytes(4 * width, "little"), "<u4")
    words[:, width], words[:, width + 1] = step, np.arange(g)
    rngs = [np.random.Generator(np.random.PCG64(np.random.SeedSequence(w))) for w in words]
    if mode == "pcm":
        return weighted_sample_rows(state.chunk_weights(group.phase_ids), m, rngs)
    if mode == "random_mask":
        return np.sort([rng.choice(n, size=m, replace=False) for rng in rngs], axis=1)
    if mode == "full_mask":
        top = np.argmax(state.keep_probs)  # the first phase of highest probability
        candidates = np.flatnonzero(group.phase_ids[0] == top)
        if candidates.size == 0:
            candidates = np.arange(n)
        size = min(m, candidates.size)
        return np.sort([rng.choice(candidates, size=size, replace=False) for rng in rngs],
                       axis=1)
    raise ValueError(f"no masking rule for mode {mode}")


def evaluate(spec: ToyTaskSpec, policy: GaussianChunkPolicy, rollouts: int,
             block: np.ndarray) -> float:
    """Greedy (mean-action) evaluation success rate over the pre-drawn noise
    block of noise_size(spec, rollouts, greedy=True) standard normals."""
    _, _, rewards = generate_batch(spec, policy, rollouts, block, greedy=True)
    return float(rewards.mean())


def _drawn_ahead(draw, count: int):
    """Yield draw(0), ..., draw(count - 1). One worker thread makes each
    call DRAW_AHEAD calls before its result is taken, so numpy's fills,
    which release the GIL, overlap the caller's work. Close the generator
    to shut the worker down."""
    pool = ThreadPoolExecutor(max_workers=1, thread_name_prefix="chunkmask-draw")
    try:
        pending = deque(pool.submit(draw, i) for i in range(min(DRAW_AHEAD, count)))
        for i in range(DRAW_AHEAD, count + DRAW_AHEAD):
            if i < count:
                pending.append(pool.submit(draw, i))
            yield pending.popleft().result()
    finally:
        pool.shutdown(cancel_futures=True)


def train(config: TrainConfig, spec: ToyTaskSpec = None,
          spec_switch: tuple = None) -> list[StepMetrics]:
    """Run the training loop from the spec's initial policy and return
    per-step metrics.

    Per step: sample a rollout group and evaluate the policy; unless the
    group's rewards collapsed, update the policy. A masking mode first
    scores the phases, appends the score buffers, refreshes the keep
    probabilities on the first scored batch or when the refresh window
    fills, selects chunks per the mode and shrinks the batch; vanilla
    updates on all chunks and reports no keep probabilities or phase scores.

    The rollout and evaluation noise does not depend on the policy, so a
    worker thread, which alone owns the two generators, draws each step's
    two blocks (see generate_batch), each in one standard_normal call, in
    step order, DRAW_AHEAD steps ahead of the loop. So the run does not
    depend on when the worker draws; no worker thread outlives the call,
    whether it returns or raises.

    spec_switch, when given as (step, new_spec), swaps the task spec mid-run
    (used to probe allocation adaptation).
    """
    if spec is None:
        spec = ToyTaskSpec()
    policy = initial_policy(spec)
    specs = []  # the task spec of each step
    for step in range(config.steps):
        if spec_switch is not None and step == spec_switch[0]:
            spec = spec_switch[1]
        specs.append(spec)

    state = PhaseScoreState(refresh_window=config.refresh_window,
                            floor=config.p_min)
    rollout_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    eval_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 2)))

    def draw(step):
        step_spec = specs[step]
        return (rollout_rng.standard_normal(noise_size(step_spec, config.group_size)),
                eval_rng.standard_normal(noise_size(step_spec, EVAL_ROLLOUTS, greedy=True)))

    metrics = []
    cumulative = 0
    with closing(_drawn_ahead(draw, config.steps)) as noise:
        for step, (rollout_noise, eval_noise) in enumerate(noise):
            spec = specs[step]
            group = generate_group(spec, policy, config.group_size, rollout_noise)
            step_metrics = StepMetrics(
                step=step,
                success_rate=evaluate(spec, policy, EVAL_ROLLOUTS, eval_noise),
                chunks_used=0,
                cumulative_chunks=cumulative,
            )
            metrics.append(step_metrics)

            # A collapsed group has all-zero advantages; the update is skipped
            # outright and the score buffers stay untouched.
            collapsed = group.reward_variance == 0.0
            update_group = group
            if config.mode != "vanilla":
                if not collapsed:
                    scores = compute_phase_scores(group)
                    state.append_scores(scores)
                    if state.refresh_due:
                        state.refresh()
                    step_metrics.phase_scores = phase_dict(scores)
                    masks = _select_masks(config.mode, group, state, config.budget,
                                          config.seed, step)
                    update_group = shrink_batch(group, masks)
                    alloc = np.bincount(update_group.phase_ids.reshape(-1),
                                        minlength=len(PHASES)) / config.group_size
                    step_metrics.allocation = phase_dict(alloc)
                if state.keep_probs is not None:  # None until the first scored step
                    step_metrics.keep_probs = phase_dict(state.keep_probs)
            if collapsed:
                step_metrics.skipped = True
                continue

            grad = masked_loss_grad(update_group, policy)
            policy.weights -= config.learning_rate * grad.reshape(policy.weights.shape)

            # Every chunk of a toyworld group, and every kept chunk, is real.
            used = update_group.phase_ids.size
            cumulative += used
            step_metrics.chunks_used = used
            step_metrics.cumulative_chunks = cumulative
    return metrics


def run_seeds(config: TrainConfig, seeds,
              spec: ToyTaskSpec = None) -> list[list[StepMetrics]]:
    """Independent training runs, one per seed."""
    return [train(replace(config, seed=int(seed)), spec) for seed in seeds]


def final_success(run: list[StepMetrics]) -> float:
    """Mean evaluation success over the last FINAL_WINDOW steps of a run."""
    return float(np.mean([m.success_rate for m in run[-FINAL_WINDOW:]]))


def moving_average(values, window: int = 5) -> np.ndarray:
    """Trailing mean over the last `window` values, fewer at the start."""
    values = np.asarray(values, dtype=float)
    sums = np.concatenate([[0.0], np.cumsum(values)])
    ends = np.arange(1, values.size + 1)
    starts = np.maximum(ends - window, 0)
    return (sums[ends] - sums[starts]) / (ends - starts)


def metrics_to_rows(run: list[StepMetrics]) -> tuple[list[str], list[list]]:
    """CSV header and rows: step, raw and 5-step-smoothed success, chunk
    accounting, per-phase realized allocation, and keep probabilities."""
    header = ["step", "success_rate", "success_rate_ma5", "chunks_used",
              "cumulative_chunks"]
    header += [f"alloc_{c.value}" for c in PHASES]
    header += [f"p_{c.value}" for c in PHASES]
    smoothed = moving_average([m.success_rate for m in run])
    rows = []
    for m, ma in zip(run, smoothed):
        row = [m.step, f"{m.success_rate:.4f}", f"{ma:.4f}", m.chunks_used,
               m.cumulative_chunks]
        row += [f"{m.allocation.get(c, 0.0):.4f}" for c in PHASES]
        row += [f"{m.keep_probs.get(c, float('nan')):.4f}" for c in PHASES]
        rows.append(row)
    return header, rows


def write_metrics_csv(path, runs: list[list[StepMetrics]]) -> None:
    """Write one run, or the step-wise average of several seeded runs."""
    if len(runs) == 1:
        header, rows = metrics_to_rows(runs[0])
    else:
        header, _ = metrics_to_rows(runs[0])
        per_run = [metrics_to_rows(run)[1] for run in runs]
        rows = []
        for step_rows in zip(*per_run):
            avg = [float(np.mean([float(r[j]) for r in step_rows]))
                   for j in range(len(header))]
            rows.append([int(avg[0])] + [f"{v:.4f}" for v in avg[1:]])
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(header)
        writer.writerows(rows)
