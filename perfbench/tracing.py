"""Spans and counters recorded at the calls into chunkmask's modules.

The traced run replaces module-level names that the trainer, the analysis
and the verifier look up at call time (and two methods of PhaseScoreState)
with wrappers that record one span per call: name, start, end and the span
that was open when the call began. Nothing inside the package changes, so a
span covers exactly one call into a layer, and a layer's self time is its
span's duration minus the durations of its child spans.

Spans stay in memory until the run ends; a 20-seed training run records
about 200k of them.
"""

from __future__ import annotations

import time

import numpy as np


class Tracer:
    """Records spans and counters; undo() restores every wrapped name."""

    def __init__(self):
        self.spans = []      # (name, start, end, parent index or -1)
        self.counts = {}     # counter name -> total
        self._stack = []
        self._undo = []

    def add(self, name: str, amount) -> None:
        self.counts[name] = self.counts.get(name, 0) + amount

    def wrap(self, owner, attr: str, name: str, count=None) -> None:
        """Replace owner.attr by a traced wrapper; count(tracer, args,
        result) may add counters after each call."""
        original = owner.__dict__[attr]
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        def traced(*args, **kwargs):
            index = len(spans)
            spans.append(None)
            parent = stack[-1] if stack else -1
            stack.append(index)
            start = clock()
            try:
                result = original(*args, **kwargs)
            finally:
                spans[index] = (name, start, clock(), parent)
                stack.pop()
            if count is not None:
                count(self, args, result)
            return result

        setattr(owner, attr, traced)
        self._undo.append((owner, attr, original))

    def undo(self) -> None:
        for owner, attr, original in reversed(self._undo):
            setattr(owner, attr, original)
        self._undo.clear()

    def summary(self) -> dict:
        """name -> (durations array in s, total self time in s)."""
        child = np.zeros(len(self.spans))
        for name, start, end, parent in self.spans:
            if parent >= 0:
                child[parent] += end - start
        durations, self_time = {}, {}
        for (name, start, end, _), inner in zip(self.spans, child):
            durations.setdefault(name, []).append(end - start)
            self_time[name] = self_time.get(name, 0.0) + (end - start - inner)
        return {name: (np.asarray(d), self_time[name])
                for name, d in durations.items()}


def _count_shrink(tracer, args, result):
    group, _ = args
    tracer.add("sampling.rolled_chunks", sum(t.num_chunks for t in group.trajectories))
    tracer.add("sampling.kept_chunks", sum(t.num_chunks for t in result.trajectories))


def _count_backprop(tracer, args, result):
    tracer.add("grpo.chunks_backprop", sum(t.num_chunks for t in args[0].trajectories))


def _count_terms(tracer, args, result):
    tracer.add("grpo.score_terms_formed", len(result[1]))


ALLOCATION_FUNCTIONS = ("neyman_allocation", "estimator_variance", "min_variance",
                        "speedup_ratio", "bias_bound", "ratio_estimator")
CHECKS = ("check_allocation_optimality", "check_speedup", "check_ratio_estimator",
          "check_bias_bound", "check_gradient_finite_difference",
          "check_sampling_inclusion")


def install(tracer: Tracer, mods) -> None:
    """Wrap the names each layer is reached through. Every workload gets
    the same wrappers, so a layer a workload does not use reports zero."""
    trainer, analysis, verify = mods.trainer, mods.analysis, mods.verify
    state = mods.scores.PhaseScoreState
    sampler = "sampling.weighted_sample_without_replacement"
    table = [
        (trainer, "train", "trainer.train", None),
        (trainer, "generate_group", "toyworld.generate_group", None),
        (trainer, "evaluate", "trainer.evaluate", None),
        (trainer, "compute_phase_scores", "scores.compute_phase_scores", None),
        (trainer, "_select_masks", "trainer.select_masks", None),
        (trainer, "weighted_sample_without_replacement", sampler, None),
        (trainer, "shrink_batch", "sampling.shrink_batch", _count_shrink),
        (trainer, "masked_loss_grad", "grpo.masked_loss_grad", _count_backprop),
        (state, "refresh", "scores.refresh", None),
        (state, "chunk_weights", "scores.chunk_weights", None),
        (mods.grpo, "_score_terms", "grpo.score_terms", _count_terms),
        (mods.toyworld, "label_phases", "phases.label_phases", None),
        (mods.traces, "label_phases", "phases.label_phases", None),
        (mods.traces, "read_traces", "traces.read_traces", None),
        (mods.traces.TraceRecord, "to_trajectory", "traces.to_trajectory", None),
        (analysis, "analyze", "analysis.analyze", None),
        (analysis, "sweep_budget", "analysis.sweep_budget", None),
        (analysis, "records_to_group", "traces.records_to_group", None),
        (analysis, "compute_phase_scores", "scores.compute_phase_scores", None),
        (analysis, "weighted_sample_without_replacement", sampler, None),
        (verify, "run_checks", "verify.run_checks", None),
        (verify, "weighted_sample_without_replacement", sampler, None),
        (verify, "generate_group", "toyworld.generate_group", None),
        (verify, "_score_terms", "grpo.score_terms", _count_terms),
    ]
    table += [(verify, f, f"allocation.{f}", None) for f in ALLOCATION_FUNCTIONS]
    table += [(verify, c, f"verify.{c}", None) for c in CHECKS]
    for owner, attr, name, count in table:
        tracer.wrap(owner, attr, name, count)


def layer_metrics(tracer: Tracer, ops: int, groups_per_op: int = 0) -> dict:
    """Per-layer metrics of BENCHMARK.json from one traced segment of `ops`
    operations (training steps, analysis passes or verify suites)."""
    summary = tracer.summary()
    empty = (np.zeros(0), 0.0)

    def calls(name):
        return summary.get(name, empty)[0].size / ops

    def ms_p50(name):
        d = summary.get(name, empty)[0]
        return float(np.median(d)) * 1e3 if d.size else 0.0

    def ms_per_op(name):
        return float(summary.get(name, empty)[0].sum()) * 1e3 / ops

    def self_ms_per_op(name):
        return summary.get(name, empty)[1] * 1e3 / ops

    counts = tracer.counts
    rolled = counts.get("sampling.rolled_chunks", 0)
    out = {
        "toyworld.generate_group.ms_p50": ms_p50("toyworld.generate_group"),
        "toyworld.generate_group.calls_per_op": calls("toyworld.generate_group"),
        "trainer.evaluate.ms_p50": ms_p50("trainer.evaluate"),
        "phases.label_phases.calls_per_op": calls("phases.label_phases"),
        "phases.label_phases.ms_per_op": ms_per_op("phases.label_phases"),
        "scores.compute_phase_scores.ms_p50": ms_p50("scores.compute_phase_scores"),
        "scores.compute_phase_scores.calls_per_op": calls("scores.compute_phase_scores"),
        "scores.refresh.calls_per_op": calls("scores.refresh"),
        "scores.chunk_weights.ms_per_op": ms_per_op("scores.chunk_weights"),
        "trainer.select_masks.ms_p50": ms_p50("trainer.select_masks"),
        "sampling.weighted_sample_without_replacement.calls_per_op":
            calls("sampling.weighted_sample_without_replacement"),
        "sampling.weighted_sample_without_replacement.ms_per_op":
            ms_per_op("sampling.weighted_sample_without_replacement"),
        "sampling.shrink_batch.ms_p50": ms_p50("sampling.shrink_batch"),
        "sampling.kept_fraction":
            counts.get("sampling.kept_chunks", 0) / rolled if rolled else 0.0,
        "grpo.masked_loss_grad.ms_p50": ms_p50("grpo.masked_loss_grad"),
        "grpo.chunks_backprop_per_op": counts.get("grpo.chunks_backprop", 0) / ops,
        "grpo.score_terms_formed_per_op": counts.get("grpo.score_terms_formed", 0) / ops,
        "trainer.self_ms_per_step": self_ms_per_op("trainer.train"),
        "traces.read_traces.ms_per_op": ms_per_op("traces.read_traces"),
        "traces.records_to_group.calls_per_group":
            calls("traces.records_to_group") / groups_per_op if groups_per_op else 0.0,
        "traces.to_trajectory.calls_per_op": calls("traces.to_trajectory"),
        "analysis.analyze.self_ms_per_op": self_ms_per_op("analysis.analyze"),
        "analysis.sweep_budget.self_ms_per_op": self_ms_per_op("analysis.sweep_budget"),
    }
    for check in CHECKS:
        out[f"verify.{check}.s"] = ms_p50(f"verify.{check}") / 1e3
    for function in ALLOCATION_FUNCTIONS:
        out[f"allocation.{function}.calls_per_op"] = calls(f"allocation.{function}")
        out[f"allocation.{function}.ms_per_op"] = ms_per_op(f"allocation.{function}")
    return out
