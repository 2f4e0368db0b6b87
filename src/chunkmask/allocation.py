"""Variance-minimizing gradient-budget allocation across phases, with the
estimator-variance, speedup, bias-bound, and ratio-estimator machinery used
to verify it."""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)  # array fields: compared and hashed by identity
class PhaseStats:
    """Expected chunk counts and per-chunk gradient variances per phase, plus
    the total chunk budget."""

    counts: np.ndarray     # finite N_c >= 0
    variances: np.ndarray  # finite V_c >= 0
    budget: int

    def __post_init__(self):
        object.__setattr__(self, "counts", np.asarray(self.counts, dtype=float))
        object.__setattr__(self, "variances", np.asarray(self.variances, dtype=float))
        if self.counts.shape != self.variances.shape:
            raise ValueError("counts and variances must have the same length")
        for name, values in (("counts", self.counts), ("variances", self.variances)):
            if not (np.isfinite(values) & (values >= 0)).all():
                raise ValueError(f"{name} must be finite and nonnegative")
        if self.budget < 1:
            raise ValueError("budget must be >= 1")

    @property
    def num_phases(self) -> int:
        return self.counts.size

    @property
    def weights(self) -> np.ndarray:
        """N_c * sqrt(V_c), the quantity the optimal allocation is
        proportional to."""
        return self.counts * np.sqrt(self.variances)


def neyman_allocation(stats: PhaseStats) -> np.ndarray:
    """Fractional budgets b_c = B * N_c sqrt(V_c) / sum N sqrt(V)."""
    w = stats.weights
    total = w.sum()
    if total <= 0.0:
        raise ValueError("all N_c * sqrt(V_c) are zero; allocation is degenerate")
    return stats.budget * w / total


def integerize(budgets, total: int) -> np.ndarray:
    """Largest-remainder rounding of a fractional allocation to integers
    summing to `total` (analysis convenience; the sampler realizes fractional
    allocations in expectation)."""
    budgets = np.asarray(budgets, dtype=float)
    floors = np.floor(budgets).astype(int)
    remainder = total - floors.sum()
    order = np.argsort(-(budgets - floors))
    floors[order[:remainder]] += 1
    return floors


def estimator_variance(stats: PhaseStats, budgets) -> float:
    """Total stratified-estimator variance sum_c N_c^2 V_c / b_c; infinite
    when a phase with signal gets zero budget."""
    budgets = np.asarray(budgets, dtype=float)
    num = stats.counts**2 * stats.variances
    if np.any((budgets <= 0.0) & (num > 0.0)):
        return float("inf")
    active = num > 0.0
    return float((num[active] / budgets[active]).sum())


def min_variance(stats: PhaseStats) -> float:
    """Closed-form variance at the optimal allocation: (sum N sqrt(V))^2 / B."""
    return float(stats.weights.sum() ** 2 / stats.budget)


def speedup_ratio(stats: PhaseStats) -> float:
    """Convergence-step ratio of uniform over optimal allocation:
    K * sum N^2 V / (sum N sqrt(V))^2. Always >= 1 by Cauchy-Schwarz, with
    equality iff all N_c^2 V_c are equal."""
    w_sum = stats.weights.sum()
    if w_sum <= 0.0:
        raise ValueError("all N_c * sqrt(V_c) are zero; speedup is undefined")
    k = stats.num_phases
    return float(k * (stats.counts**2 * stats.variances).sum() / w_sum**2)


def bias_bound(keep_probs, grad_norms) -> float:
    """Upper bound sum_c (1 - p_c) * ||g_c|| on the masked-estimator bias
    norm."""
    keep_probs = np.asarray(keep_probs, dtype=float)
    grad_norms = np.asarray(grad_norms, dtype=float)
    if keep_probs.shape != grad_norms.shape:
        raise ValueError("keep_probs and grad_norms must have the same length")
    if np.any(keep_probs < 0.0) or np.any(keep_probs > 1.0):
        raise ValueError("keep probabilities must lie in [0, 1]")
    if np.any(grad_norms < 0.0):
        raise ValueError("gradient norms must be nonnegative")
    return float(((1.0 - keep_probs) * grad_norms).sum())


def ratio_estimator(samples, phase_count: float) -> np.ndarray:
    """(N_c / b_c)-rescaled sum of the b_c sampled per-chunk gradient terms
    (rows of samples); unbiased for the full phase gradient under uniform
    without-replacement sampling."""
    samples = np.atleast_2d(np.asarray(samples, dtype=float))
    b = samples.shape[0]
    if b == 0:
        raise ValueError("ratio estimator needs at least one sampled chunk")
    return phase_count / b * samples.sum(axis=0)

