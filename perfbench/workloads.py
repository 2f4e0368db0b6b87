"""The four benchmark workloads: inputs made from the seed, one operation of
work, and the invariants every output must satisfy.

An operation is one training run (whose steps are the timed units), one
read + analyze + sweep pass over a trace file, or one verify suite. The loop
in run() repeats operations for the run time; a traced run runs a fixed
number of operations with spans, so that its counts repeat exactly, and some
of them once more without spans as the reference for the tracing overhead.

The machine this benchmark was written on switches between a fast and a
slow state (about 1.6x apart) every few seconds, and CPU time follows wall
time. So each untraced operation is bracketed by a fixed calibration kernel,
and the end-to-end times are reported scaled to the speed at which that
kernel takes REFERENCE_S; the raw times are reported beside them.
"""

from __future__ import annotations

import json
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

import tracing

CHUNKS = 64          # the long gripper profile
GROUP_SIZE = 10
BUDGET = 12
STEPS = 300
P_MIN = 0.1
TARGET = 0.9         # 5-step moving average of eval success
TRACE_GROUPS = 6     # task groups of GROUP_SIZE trajectories in the trace file
REFERENCE_S = 0.005  # calibration kernel time that scaled times refer to
CALIBRATE_EVERY = 20  # training steps between calibrations inside a run

# Per-layer figures read from outputs, not spans; zero where a workload does
# not reach the layer.
OUTPUT_LAYER_METRICS = (
    "grpo.chunks_per_update", "trainer.skipped_step_fraction", "trainer.steps_to_target",
    "trainer.final_success", "traces.records_parsed_per_op",
    "traces.records_rejected_per_op", "verify.checks_failed_per_op")


@dataclass
class Result:
    metrics: dict = field(default_factory=dict)     # BENCHMARK.json name -> value
    samples: dict = field(default_factory=dict)     # metric name -> sample count
    extra: dict = field(default_factory=dict)       # name -> (value, unit, samples)
    counters: dict = field(default_factory=dict)    # exact counts
    attempted: int = 0
    failed: int = 0
    violations: list = field(default_factory=list)  # broken invariants, exceptions
    misses: list = field(default_factory=list)      # training seeds that missed TARGET


_KERNEL = np.random.default_rng(0).standard_normal((64, 16))


def calibrate(reps: int = 3) -> float:
    """Median wall time, in s, of a fixed mix of interpreted Python and small
    numpy products: the same kind of work as chunkmask's, so its time tracks
    how fast the machine runs at the moment it is measured."""
    times = []
    for _ in range(reps):
        start = time.perf_counter()
        total = 0
        for i in range(20000):
            total += i * i
        x = _KERNEL
        for _ in range(300):
            x = np.tanh(x @ _KERNEL.T @ _KERNEL * 1e-3)
        times.append(time.perf_counter() - start)
    return float(np.median(times))


@dataclass
class Sample:
    index: int              # operation index
    durations: np.ndarray   # s, per timed unit
    scale: np.ndarray       # per timed unit, REFERENCE_S / calibration time


def _ms(durations) -> tuple:
    """(median ms, 95th percentile ms, sample count)."""
    d = np.asarray(durations) * 1e3
    return float(np.median(d)), float(np.percentile(d, 95)), int(d.size)


def _valid_keep_probs(probs) -> bool:
    p = np.asarray(list(probs), dtype=float)
    return (p.size == 5 and p.min() >= P_MIN - 1e-12 and p.max() <= 1.0 + 1e-12
            and abs(p.max() - 1.0) <= 1e-12)


def moving_average(values, window: int = 5) -> np.ndarray:
    """Trailing mean over up to `window` values (shorter at the start), the
    trainer's smoothing, computed here so the target step does not depend on
    the code under test."""
    values = np.asarray(values, dtype=float)
    sums = np.concatenate([[0.0], np.cumsum(values)])
    ends = np.arange(1, values.size + 1)
    starts = np.maximum(ends - window, 0)
    return (sums[ends] - sums[starts]) / (ends - starts)


class Workload:
    ops = 3             # operations every untraced run makes, whatever --seconds
    traced_ops = 3      # operations of a traced run
    reference_ops = 3   # of those, run once more untraced
    groups_per_op = 0
    tracing = False     # set by run() for a traced run

    def prepare(self, mods, seed: int, workdir: Path) -> None:
        self.mods, self.seed = mods, seed

    def op(self, index: int, result: Result) -> np.ndarray:
        """Run operation `index`; return the durations of its timed units."""
        raise NotImplementedError

    def kernel_times(self, units: int, before: float, after: float) -> np.ndarray:
        """Calibration kernel time that applies to each timed unit of the last
        operation: the mean of the times measured just before and after it."""
        return np.full(units, (before + after) / 2)

    def summarize(self, samples: list, result: Result) -> None:
        """End-to-end figures of an untraced run. For one-pass workloads the
        target is the pass's result, so time_to_target_s is the mean pass."""
        scaled = np.concatenate([s.durations * s.scale for s in samples])
        raw = np.concatenate([s.durations for s in samples])
        p50, p95, n = _ms(scaled)
        result.metrics.update(op_ms_p50=p50, time_to_target_s=float(scaled.mean()))
        result.samples.update(op_ms_p50=n, time_to_target_s=n)
        result.extra.update({
            "op_ms_p95": (p95, "ms", n),
            "op_ms_p50_raw": (_ms(raw)[0], "ms", n),
            "op_ms_p95_raw": (_ms(raw)[1], "ms", n),
            "time_to_target_s_raw": (float(raw.mean()), "s", n),
        })

    def layer_extras(self, samples: list, result: Result) -> None:
        """Per-layer figures that come from outputs rather than spans."""

    def close(self) -> None:
        pass


def _op(work: Workload, index: int, result: Result, before: float) -> tuple:
    """Operation `index`, then the calibration kernel; `before` is the kernel
    time measured just before. Returns (Sample or None, kernel time after).
    An exception or a broken invariant makes the operation a failed one, and
    the run carries on."""
    seen = len(result.violations), len(result.misses)
    try:
        durations = work.op(index, result)
    except Exception:  # noqa: BLE001 - counted and reported, not fatal
        result.violations.append(f"operation {index} raised:\n{traceback.format_exc()}")
        durations = None
    after = calibrate()
    result.attempted += 1
    if durations is None or (len(result.violations), len(result.misses)) != seen:
        result.failed += 1
    if durations is None:
        return None, after
    durations = np.asarray(durations, dtype=float)
    kernel = work.kernel_times(durations.size, before, after)
    return Sample(index, durations, REFERENCE_S / kernel), after


def _scaled_ms_p50(samples: list) -> float:
    return _ms(np.concatenate([s.durations * s.scale for s in samples]))[0]


def run(work: Workload, seconds: float, trace: bool) -> Result:
    """Untraced: operations 0, 1, ... until `work.ops` are done and `seconds`
    have passed. Traced: operations 0 .. traced_ops-1 with spans, and
    reference_ops of them, spread over the run, once more without spans
    just before, as the reference for the tracing overhead."""
    result = Result()
    samples, reference = [], []
    work.tracing = trace
    kernel = calibrate()
    try:
        if not trace:
            start, index = time.perf_counter(), 0
            while index < work.ops or time.perf_counter() - start < seconds:
                sample, kernel = _op(work, index, result, kernel)
                samples.append(sample)
                index += 1
            samples = [s for s in samples if s is not None]
            if samples:
                work.summarize(samples, result)
                result.extra["machine_speed"] = (
                    float(np.median(np.concatenate([s.scale for s in samples]))),
                    "ratio", len(samples))
            return result
        stride = max(work.traced_ops // work.reference_ops, 1)
        tracer = tracing.Tracer()
        for index in range(work.traced_ops):
            if index % stride == 0 and len(reference) < work.reference_ops:
                sample, kernel = _op(work, index, result, kernel)
                reference.append(sample)
            tracing.install(tracer, work.mods)
            try:
                sample, kernel = _op(work, index, result, kernel)
            finally:
                tracer.undo()
            samples.append(sample)
        samples = [s for s in samples if s is not None]
        reference = [s for s in reference if s is not None]
        if not samples or not reference:
            return result
        units = sum(s.durations.size for s in samples)
        result.metrics = tracing.layer_metrics(tracer, units, work.groups_per_op)
        plain_ms, traced_ms = _scaled_ms_p50(reference), _scaled_ms_p50(samples)
        result.metrics.update({
            "trace.op_ms_p50_untraced": plain_ms,
            "trace.op_ms_p50_traced": traced_ms,
            "trace.overhead_ms_p50": traced_ms - plain_ms,
        })
        result.metrics.update(dict.fromkeys(OUTPUT_LAYER_METRICS, 0.0))
        work.layer_extras(samples, result)
        return result
    finally:
        work.close()


# --------------------------------------------------------------- training

class Train(Workload):
    """Training runs of STEPS steps on fixed seeds seed*1000 + i. The first
    `ops` runs give the learning figures; further runs only add step-time
    samples until --seconds is used up."""

    ops = 20
    reference_ops = 4
    traced_ops = 20

    def __init__(self, mode: str):
        self.mode = mode
        self.figures = {}  # op index -> learning figures of that run

    def prepare(self, mods, seed, workdir):
        super().prepare(mods, seed, workdir)
        trainer = mods.trainer
        self.spec = mods.toyworld.ToyTaskSpec(chunks_per_traj=CHUNKS)
        self.config = trainer.TrainConfig(mode=self.mode, group_size=GROUP_SIZE,
                                          budget=BUDGET, p_min=P_MIN, steps=STEPS)
        # A step runs from one generate_group call to the next, evaluation
        # included. Untraced, every CALIBRATE_EVERY steps the calibration
        # kernel runs between the end of one step and the start of the next.
        self.starts, self.ends, self.kernel = [], [], []
        self._generate_group = original = trainer.generate_group
        starts, ends, kernel, clock = self.starts, self.ends, self.kernel, time.perf_counter

        def stamped(*args, **kwargs):
            ends.append(clock())
            step = len(starts)
            if step and step % CALIBRATE_EVERY == 0 and not self.tracing:
                kernel.append((step, calibrate(reps=1)))
            starts.append(clock())
            return original(*args, **kwargs)

        trainer.generate_group = stamped

    def close(self):
        self.mods.trainer.generate_group = self._generate_group

    def op(self, index, result):
        seed = self.seed * 1000 + index % self.ops
        for stamps in (self.starts, self.ends, self.kernel):
            stamps.clear()
        run = self.mods.trainer.run_seeds(self.config, [seed], self.spec)[0]
        self.ends.append(time.perf_counter())
        durations = np.asarray(self.ends[1:]) - np.asarray(self.starts)
        self._check(run, seed, result)
        success = [m.success_rate for m in run]
        reached = np.nonzero(moving_average(success) >= TARGET)[0]
        used = [m.chunks_used for m in run if not m.skipped]
        if not reached.size:
            result.misses.append(seed)
        self.figures[index] = {
            "steps_to_target": int(reached[0]) + 1 if reached.size else None,
            "final_success": float(np.mean(success[-10:])),
            "chunks_per_update": float(np.mean(used)) if used else 0.0,
            "skipped_fraction": sum(m.skipped for m in run) / len(run),
        }
        return durations

    def kernel_times(self, units, before, after):
        """Kernel times measured before the run, inside it and after it,
        interpolated to the middle of each step."""
        points = [(0, before)] + self.kernel + [(units, after)]
        return np.interp(np.arange(units) + 0.5, *zip(*points))

    def _check(self, run, seed, result):
        kept = GROUP_SIZE * (CHUNKS if self.mode == "vanilla" else min(BUDGET, CHUNKS))
        bad = result.violations.append
        if len(run) != STEPS:
            bad(f"seed {seed}: {len(run)} step records for {STEPS} steps")
        for m in run:
            where = f"seed {seed} step {m.step}"
            if not 0.0 <= m.success_rate <= 1.0:
                bad(f"{where}: success rate {m.success_rate}")
            if m.keep_probs and not _valid_keep_probs(m.keep_probs.values()):
                bad(f"{where}: keep probabilities {m.keep_probs}")
            if m.skipped:
                if m.chunks_used:
                    bad(f"{where}: skipped step used {m.chunks_used} chunks")
                continue
            if m.chunks_used != kept:
                bad(f"{where}: {m.chunks_used} chunks in the update, expected {kept}")
            if self.mode != "vanilla":
                realized = sum(m.allocation.values()) * GROUP_SIZE
                if abs(realized - m.chunks_used) > 1e-6:
                    bad(f"{where}: allocation sums to {realized}, kept {m.chunks_used}")

    def _learning(self, indices, samples=(), scaled=True) -> dict:
        """Means over the fixed seed set; seeds that missed the target are
        left out of the target means (they are counted as failed). The time
        to target is the sum of the (scaled) step times up to the target."""
        figures = [self.figures[i] for i in indices if i in self.figures]
        hit = [f for f in figures if f["steps_to_target"] is not None]
        mean = lambda key, rows: float(np.mean([f[key] for f in rows]))  # noqa: E731
        times = []
        for s in samples:
            steps = self.figures[s.index]["steps_to_target"]
            if s.index in indices and (steps is not None or not hit):
                d = s.durations * s.scale if scaled else s.durations
                times.append(float(d[:steps].sum()))
        return {
            "steps_to_target": mean("steps_to_target", hit) if hit else float(STEPS),
            "time_to_target_s": float(np.mean(times)) if times else 0.0,
            "final_success": mean("final_success", figures),
            "chunks_per_update": mean("chunks_per_update", figures),
            "skipped_fraction": mean("skipped_fraction", figures),
            "runs": len(figures),
        }

    def summarize(self, samples, result):
        super().summarize(samples, result)
        fig = self._learning(range(self.ops), samples)
        runs = fig["runs"]
        result.metrics["time_to_target_s"] = fig["time_to_target_s"]
        result.samples["time_to_target_s"] = runs
        result.extra.update({
            "time_to_target_s_raw": (self._learning(range(self.ops), samples, scaled=False)
                                     ["time_to_target_s"], "s", runs),
            "steps_to_target": (fig["steps_to_target"], "count", runs),
            "final_success": (fig["final_success"], "fraction", runs),
            "backprop_chunks_per_update": (fig["chunks_per_update"], "count", runs),
            "skipped_step_fraction": (fig["skipped_fraction"], "fraction", runs),
            "training_runs": (len(samples), "count", len(samples)),
        })
        result.counters.update({
            key: [self.figures[i][key] for i in range(self.ops) if i in self.figures]
            for key in ("steps_to_target", "final_success", "chunks_per_update")})

    def layer_extras(self, samples, result):
        fig = self._learning(range(self.traced_ops))
        result.metrics.update({
            "grpo.chunks_per_update": fig["chunks_per_update"],
            "trainer.skipped_step_fraction": fig["skipped_fraction"],
            "trainer.steps_to_target": fig["steps_to_target"],
            "trainer.final_success": fig["final_success"],
        })


# --------------------------------------------------------------- analysis

class AnalyzeTraces(Workload):
    """read_traces + analyze + sweep_budget over a trace file written once
    from toyworld groups, as `chunkmask analyze` and `chunkmask sweep-budget`
    run them."""

    reference_ops = 20
    traced_ops = 40
    groups_per_op = TRACE_GROUPS

    def prepare(self, mods, seed, workdir):
        super().prepare(mods, seed, workdir)
        workdir.mkdir(parents=True, exist_ok=True)
        self.path = workdir / f"traces-{seed}.jsonl"
        self.chunk_counts = self._write(mods, seed)

    def _write(self, mods, seed) -> list:
        """TRACE_GROUPS toyworld groups, without stored labels, so the reader
        labels every trajectory. About half of the trajectories are cut inside
        their last chunk and so end in a partial trailing chunk. Returns the
        chunk count of each line."""
        toyworld = mods.toyworld
        spec = toyworld.ToyTaskSpec(chunks_per_traj=CHUNKS)
        policy = toyworld.initial_policy(spec)
        rng = np.random.default_rng(np.random.SeedSequence((seed, 0xA7)))
        length, dim = spec.chunk_len, spec.action_dim
        counts = []
        with open(self.path, "w") as fh:
            for g in range(TRACE_GROUPS):
                for traj in toyworld.generate_group(spec, policy, GROUP_SIZE, rng).trajectories:
                    t = CHUNKS * length
                    if rng.random() < 0.5:
                        t -= int(rng.integers(1, length))
                    fh.write(json.dumps({
                        "trajectory_id": traj.trajectory_id,
                        "task_id": f"task-{g}",
                        "reward": traj.reward,
                        "chunk_len": length,
                        "action_dim": dim,
                        "gripper": traj.gripper[:t].tolist(),
                        "observations": traj.observations.tolist(),
                        "actions": traj.actions.reshape(-1, dim)[:t].reshape(-1).tolist(),
                    }) + "\n")
                    counts.append(-(-t // length))
        return counts

    def close(self):
        self.path.unlink(missing_ok=True)

    def op(self, index, result):
        start = time.perf_counter()
        errors = []
        records = self.mods.traces.read_traces(self.path, on_error=errors.append)
        analysed = self.mods.analysis.analyze(records, budget=BUDGET, p_min=P_MIN,
                                              seed=self.seed)
        sweep = self.mods.analysis.sweep_budget(records)
        elapsed = time.perf_counter() - start
        self.parsed, self.rejected = len(records), len(errors)
        self._check(records, errors, analysed, sweep, result)
        return [elapsed]

    def _check(self, records, errors, analysed, sweep, result):
        bad = result.violations.append
        counts = self.chunk_counts
        if errors:
            bad(f"{len(errors)} records rejected, first: {errors[0]}")
        if len(records) != len(counts):
            bad(f"parsed {len(records)} records of {len(counts)}")
            return
        if not _valid_keep_probs(analysed.keep_probs.values()):
            bad(f"keep probabilities {analysed.keep_probs}")
        offset = 0
        for g in analysed.groups:
            sizes = counts[offset:offset + g.num_trajectories]
            offset += g.num_trajectories
            if g.report is None:
                continue
            if len(g.masks) != len(sizes):
                bad(f"{g.task_id}: {len(g.masks)} masks for {len(sizes)} trajectories")
            for mask, n in zip(g.masks, sizes):
                idx = np.asarray(mask.indices)
                if (idx.size != min(BUDGET, n) or np.unique(idx).size != idx.size
                        or idx.min() < 0 or idx.max() >= n):
                    bad(f"{g.task_id}: mask {idx.tolist()} over {n} chunks")
        f, c = sweep.fractions, sweep.captured
        if (f.size != sum(counts) or np.any(np.diff(f) <= 0) or abs(f[-1] - 1.0) > 1e-12
                or np.any(np.diff(c) < -1e-12) or c.min() < 0.0 or abs(c[-1] - 1.0) > 1e-9
                or not 0 <= sweep.knee_index < f.size):
            bad("budget sweep is not a cumulative share curve over every chunk")

    def summarize(self, samples, result):
        super().summarize(samples, result)
        p50, n = result.metrics["op_ms_p50"], result.samples["op_ms_p50"]
        trajectories = len(self.chunk_counts)
        result.extra.update({
            "analyze_traj_per_s": (trajectories / (p50 / 1e3), "1/s", n),
            "file_trajectories": (trajectories, "count", 1),
            "file_chunks": (sum(self.chunk_counts), "count", 1),
            "file_bytes": (self.path.stat().st_size, "B", 1),
        })
        result.counters.update(trajectories=trajectories, chunks=sum(self.chunk_counts))

    def layer_extras(self, samples, result):
        result.metrics.update({
            "traces.records_parsed_per_op": float(self.parsed),
            "traces.records_rejected_per_op": float(self.rejected),
        })


# --------------------------------------------------------------- verify

class VerifySuite(Workload):
    """run_checks at the `chunkmask verify --fast` sizes, with the benchmark
    seed as the suite seed."""

    ops = 3
    reference_ops = 3
    traced_ops = 3

    def op(self, index, result):
        start = time.perf_counter()
        checks = self.mods.verify.run_checks(seed=self.seed, budget=BUDGET, fast=True)
        elapsed = time.perf_counter() - start
        if len(checks) != len(tracing.CHECKS):
            result.violations.append(f"{len(checks)} checks, expected {len(tracing.CHECKS)}")
        for check in checks:
            if not check.passed:
                result.violations.append(f"check {check.name} failed: {check.detail}")
        self.failed_checks = sum(not c.passed for c in checks)
        return [elapsed]

    def summarize(self, samples, result):
        super().summarize(samples, result)
        result.extra["verify_s"] = (result.metrics["op_ms_p50"] / 1e3, "s",
                                    result.samples["op_ms_p50"])

    def layer_extras(self, samples, result):
        result.metrics["verify.checks_failed_per_op"] = float(self.failed_checks)


WORKLOADS = {
    "train_pcm_64": lambda: Train("pcm"),
    "train_vanilla_64": lambda: Train("vanilla"),
    "analyze_traces": AnalyzeTraces,
    "verify_suite": VerifySuite,
}
