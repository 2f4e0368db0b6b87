"""Training loop: rollout groups, phase scoring, budgeted chunk selection,
and masked gradient-descent updates, with per-step metrics."""

from __future__ import annotations

import csv
from dataclasses import dataclass, field, replace

import numpy as np

from .grpo import GaussianChunkPolicy, masked_loss_grad
from .phases import PHASES
from .sampling import shrink_batch, weighted_sample_rows
# Imported for perfbench/tracing.py, which wraps it under this module's name.
from .sampling import weighted_sample_without_replacement  # noqa: F401
from .scores import PhaseScoreState, compute_phase_scores
from .toyworld import ToyTaskSpec, generate_batch, generate_group, initial_policy

MODES = ("pcm", "vanilla", "random_mask", "full_mask")


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
    eval_rollouts: int = 50
    policy_sigma: float = 0.3

    def __post_init__(self):
        if self.mode not in MODES:
            raise ValueError(f"mode must be one of {MODES}")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")
        if self.group_size < 2:
            raise ValueError("group_size must be >= 2")


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


def _traj_rng(master_seed: int, step: int, traj: int) -> np.random.Generator:
    # Independent deterministic stream per (step, trajectory).
    return np.random.default_rng(np.random.SeedSequence((master_seed, step, traj)))


def _select_masks(mode, group, state: PhaseScoreState, budget, seed, step):
    """(G, m) sorted chunk indices per trajectory. Every trajectory draws from
    its own (seed, step, trajectory) stream; the rows of a toyworld group
    share one phase layout, so every row keeps the same number of chunks."""
    g, n = group.phase_ids.shape
    m = min(budget, n)
    rngs = [_traj_rng(seed, step, i) for i in range(g)]
    if mode == "pcm":
        return weighted_sample_rows(state.chunk_weights(group.phase_ids), m, rngs)
    if mode == "random_mask":
        return np.sort([rng.choice(n, size=m, replace=False) for rng in rngs], axis=1)
    if mode == "full_mask":
        top = max(state.keep_probs, key=state.keep_probs.get)
        rows = []
        for ids, rng in zip(group.phase_ids, rngs):
            candidates = np.flatnonzero(ids == PHASES.index(top))
            if candidates.size == 0:
                candidates = np.arange(n)
            rows.append(rng.choice(candidates, size=min(m, candidates.size), replace=False))
        return np.sort(rows, axis=1)
    raise ValueError(f"no masking rule for mode {mode}")


def evaluate(spec: ToyTaskSpec, policy: GaussianChunkPolicy, rollouts: int,
             rng) -> float:
    """Greedy (mean-action) evaluation success rate."""
    if isinstance(rng, (int, np.integer)):
        rng = np.random.default_rng(rng)
    _, _, rewards, _ = generate_batch(spec, policy, rollouts, rng, greedy=True)
    return float(rewards.mean())


def train(config: TrainConfig, spec: ToyTaskSpec = None,
          policy: GaussianChunkPolicy = None,
          spec_switch: tuple = None) -> list[StepMetrics]:
    """Run the training loop and return per-step metrics.

    Per step: sample a rollout group, form advantages, score phases, append
    the score buffers, refresh keep probabilities on the first scored batch
    or when the refresh window fills, select chunks per the configured mode,
    shrink the batch, and apply a gradient-descent update on the masked
    objective. Vanilla mode updates on all chunks and skips the scoring
    machinery except for metrics.

    spec_switch, when given as (step, new_spec), swaps the task spec mid-run
    (used to probe allocation adaptation).
    """
    if spec is None:
        spec = ToyTaskSpec()
    if policy is None:
        policy = initial_policy(spec, sigma=config.policy_sigma)
    policy = policy.copy()

    state = PhaseScoreState(refresh_window=config.refresh_window,
                            floor=config.p_min)
    rollout_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 1)))
    eval_rng = np.random.default_rng(np.random.SeedSequence((config.seed, 2)))

    metrics = []
    cumulative = 0
    for step in range(config.steps):
        if spec_switch is not None and step == spec_switch[0]:
            spec = spec_switch[1]
        group = generate_group(spec, policy, config.group_size, rollout_rng)

        report = None
        collapsed = group.reward_variance == 0.0
        if not collapsed:
            report = compute_phase_scores(group)
            state.append_scores(report)
            if state.refresh_due:
                state.refresh()

        step_metrics = StepMetrics(
            step=step,
            success_rate=evaluate(spec, policy, config.eval_rollouts, eval_rng),
            chunks_used=0,
            cumulative_chunks=cumulative,
            keep_probs=dict(state.keep_probs) if state.keep_probs else {},
            phase_scores=dict(report.scores) if report else {},
        )

        # A collapsed group has all-zero advantages; the update is skipped
        # outright and the buffers stay untouched.
        if collapsed or (config.mode != "vanilla" and state.keep_probs is None):
            step_metrics.skipped = True
            metrics.append(step_metrics)
            continue

        if config.mode == "vanilla":
            update_group = group
        else:
            masks = _select_masks(config.mode, group, state, config.budget,
                                  config.seed, step)
            update_group = shrink_batch(group, masks)
            alloc = np.bincount(update_group.phase_ids.reshape(-1),
                                minlength=len(PHASES)) / config.group_size
            step_metrics.allocation = dict(zip(PHASES, alloc.tolist()))

        grad = masked_loss_grad(update_group, policy)
        policy.weights -= config.learning_rate * grad.reshape(policy.weights.shape)

        used = int(update_group.chunk_mask.sum())
        cumulative += used
        step_metrics.chunks_used = used
        step_metrics.cumulative_chunks = cumulative
        metrics.append(step_metrics)
    return metrics


def run_seeds(config: TrainConfig, seeds, spec: ToyTaskSpec = None,
              spec_switch: tuple = None) -> list[list[StepMetrics]]:
    """Independent training runs, one per seed."""
    runs = []
    for seed in seeds:
        runs.append(train(replace(config, seed=int(seed)), spec,
                          spec_switch=spec_switch))
    return runs


def final_success(run: list[StepMetrics], window: int = 10) -> float:
    """Mean evaluation success over the last `window` steps of a run."""
    tail = run[-window:]
    return float(np.mean([m.success_rate for m in tail]))


def moving_average(values, window: int = 5) -> np.ndarray:
    values = np.asarray(values, dtype=float)
    out = np.empty_like(values)
    for i in range(values.size):
        out[i] = values[max(0, i - window + 1):i + 1].mean()
    return out


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
