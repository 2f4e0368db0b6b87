"""Self-contained verification suite for the estimator theory.

Every check compares an implementation against an independent oracle
(closed forms, brute-force grids, exhaustive enumeration, finite
differences, or Monte Carlo) and returns a machine-readable result.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from itertools import combinations

import numpy as np

from .allocation import (
    PhaseStats,
    bias_bound,
    estimator_variance,
    min_variance,
    neyman_allocation,
    ratio_estimator,
    speedup_ratio,
)
from .grpo import _score_terms, full_loss, masked_loss_grad, phase_gradient_stats
from .phases import PHASES
from .sampling import (inclusion_probabilities, weighted_sample_rows,
                       weighted_sample_without_replacement)
from .toyworld import ToyTaskSpec, generate_group, initial_policy


@dataclass
class CheckResult:
    name: str
    passed: bool
    detail: str
    measured: dict = field(default_factory=dict)


def _random_stats(rng, budget: int, max_phases: int = 5) -> PhaseStats:
    k = int(rng.integers(2, max_phases + 1))
    counts = rng.integers(1, 21, size=k).astype(float)
    variances = rng.uniform(0.0, 10.0, size=k)
    if variances.max() == 0.0:
        variances[0] = 1.0
    return PhaseStats(counts=counts, variances=variances, budget=budget)


def _simplex_grid(k: int, budget: float, resolution: float, rng,
                  samples: int) -> np.ndarray:
    """Lattice points on the budget simplex at the given resolution.

    K=2 is enumerated exhaustively; larger K is sampled uniformly over
    compositions (the variance surface is convex, so any lattice point is a
    valid no-better witness)."""
    units = max(1, int(round(budget / resolution)))
    if k == 2:
        a = np.arange(units + 1)
        grid = np.stack([a, units - a], axis=1)
    else:
        cuts = np.sort(rng.integers(0, units + 1, size=(samples, k - 1)), axis=1)
        grid = np.diff(np.concatenate(
            [np.zeros((samples, 1), dtype=int), cuts,
             np.full((samples, 1), units)], axis=1), axis=1)
    return grid * (budget / units)


def check_allocation_optimality(seed: int = 0, instances: int = 100,
                                budget: int = 12, resolution_factor: float = 1e-3,
                                grid_samples: int = 20000,
                                rtol: float = 1e-9) -> CheckResult:
    """The closed-form minimum matches the variance at the computed
    allocation, and no simplex grid point does better."""
    rng = np.random.default_rng(seed)
    worst_rel = 0.0
    for _ in range(instances):
        stats = _random_stats(rng, budget)
        b_star = neyman_allocation(stats)
        at_opt = estimator_variance(stats, b_star)
        closed = min_variance(stats)
        rel = abs(at_opt - closed) / closed
        worst_rel = max(worst_rel, rel)
        if rel > rtol:
            return CheckResult(
                "allocation_optimality", False,
                f"closed form {closed} vs variance at allocation {at_opt}",
                {"relative_error": rel})
        grid = _simplex_grid(stats.num_phases, budget,
                             resolution_factor * budget, rng, grid_samples)
        num = stats.counts**2 * stats.variances
        with np.errstate(divide="ignore"):
            grid_var = np.where(
                ((grid <= 0.0) & (num[None] > 0.0)).any(axis=1),
                np.inf, (num[None] / np.maximum(grid, 1e-300)).sum(axis=1))
        if grid_var.min() < at_opt * (1.0 - rtol):
            return CheckResult(
                "allocation_optimality", False,
                f"grid point beats the allocation: {grid_var.min()} < {at_opt}",
                {"grid_min": float(grid_var.min()), "at_allocation": at_opt})
    return CheckResult("allocation_optimality", True,
                       f"{instances} randomized instances, grid resolution "
                       f"{resolution_factor * budget}",
                       {"worst_relative_error": worst_rel})


def check_speedup(seed: int = 0, instances: int = 10000,
                  budget: int = 12) -> CheckResult:
    """Speedup ratio is >= 1 everywhere, exactly 1 under equal per-phase
    constants, and K under full concentration."""
    rng = np.random.default_rng(seed)
    for _ in range(instances):
        stats = _random_stats(rng, budget)
        delta = speedup_ratio(stats)
        if delta < 1.0 - 1e-12:
            return CheckResult("speedup_ratio", False,
                               f"ratio {delta} < 1", {"delta": delta})
    # Equal N_c^2 V_c across phases -> ratio exactly 1.
    for k in range(2, 6):
        counts = rng.integers(1, 21, size=k).astype(float)
        variances = 7.3 / counts**2
        delta = speedup_ratio(PhaseStats(counts, variances, budget))
        if abs(delta - 1.0) > 1e-12:
            return CheckResult("speedup_ratio", False,
                               f"equal-constant case gave {delta}", {"delta": delta})
    # All variance on one of 5 phases -> ratio exactly K.
    variances = np.array([0.0, 0.0, 4.0, 0.0, 0.0])
    delta = speedup_ratio(PhaseStats(np.full(5, 8.0), variances, budget))
    if abs(delta - 5.0) > 1e-12:
        return CheckResult("speedup_ratio", False,
                           f"concentrated case gave {delta}", {"delta": delta})
    return CheckResult("speedup_ratio", True,
                       f"{instances} random instances plus equality and "
                       "concentration cases", {})


def check_ratio_estimator(seed: int = 0, mc_draws: int = 100000) -> CheckResult:
    """Exact unbiasedness by subset enumeration on small phases; Monte Carlo
    agreement on a large one."""
    rng = np.random.default_rng(seed)
    for n in (3, 5, 8):
        terms = rng.normal(size=(n, 4))
        target = terms.sum(axis=0)
        for b in range(1, n + 1):
            subsets = list(combinations(range(n), b))
            mean = np.mean(
                [ratio_estimator(terms[list(s)], n) for s in subsets], axis=0)
            err = np.abs(mean - target).max()
            if err > 1e-12:
                return CheckResult(
                    "ratio_estimator_unbiased", False,
                    f"enumeration mean off by {err} at N={n}, b={b}",
                    {"max_abs_error": float(err)})
    n, b = 64, 12
    terms = rng.normal(size=(n, 4))
    target = terms.sum(axis=0)
    draws = np.empty((mc_draws, 4))
    for j in range(mc_draws):
        idx = rng.choice(n, size=b, replace=False)
        draws[j] = ratio_estimator(terms[idx], n)
    stderr = draws.std(axis=0, ddof=1) / np.sqrt(mc_draws)
    z = np.abs(draws.mean(axis=0) - target) / stderr
    if z.max() > 3.0:
        return CheckResult("ratio_estimator_unbiased", False,
                           f"Monte Carlo mean {z.max():.2f} standard errors off",
                           {"max_z": float(z.max())})
    return CheckResult("ratio_estimator_unbiased", True,
                       f"exact on N<=8; Monte Carlo max |z| = {z.max():.2f} "
                       f"over {mc_draws} draws", {"max_z": float(z.max())})


_BIAS_P_TABLES = (
    (1.0, 0.8, 0.3, 0.15, 0.1),
    (1.0, 0.5, 0.5, 0.1, 0.1),
    (1.0, 1.0, 0.2, 0.2, 0.2),
    (0.9, 0.7, 0.4, 0.3, 0.1),
)


def check_bias_bound(seed: int = 0, draws: int = 10000,
                     budget: int = 12) -> CheckResult:
    """On a fixed toy batch, the empirical masked-estimator bias stays below
    the keep-probability bound for every tested probability table."""
    rng = np.random.default_rng(seed)
    spec = ToyTaskSpec()
    policy = initial_policy(spec)
    group = None
    for _ in range(50):
        candidate = generate_group(spec, policy, 10, rng)
        if candidate.reward_variance > 0.0:
            group = candidate
            break
    if group is None:
        return CheckResult("bias_bound", False,
                           "could not draw a mixed-outcome toy group", {})
    terms, _ = _score_terms(group, policy)
    full = -terms.sum(axis=0) / group.group_size
    stats = phase_gradient_stats(group, policy)
    present = stats.counts > 0
    grad_norms = np.linalg.norm(stats.gradients[present], axis=1)
    # Toy groups have no padding: the terms are the (G, N) chunks row-major.
    g, n = group.phase_ids.shape
    first_chunk = n * np.arange(g)[:, None]

    measured = {}
    for table in _BIAS_P_TABLES:
        probs = np.asarray(table)
        weights = np.tile(probs[group.phase_ids], (draws, 1))
        chosen = weighted_sample_rows(weights, budget, rng).reshape(draws, g, -1)
        inclusion = np.bincount((chosen + first_chunk).ravel(), minlength=g * n) / draws
        expected = -(inclusion[:, None] * terms).sum(axis=0) / group.group_size
        bias = float(np.linalg.norm(expected - full))
        bound = bias_bound(probs[present], grad_norms)
        measured[str(table)] = {"bias": bias, "bound": bound}
        if bias > bound:
            return CheckResult("bias_bound", False,
                               f"bias {bias:.6f} exceeds bound {bound:.6f} "
                               f"for p-table {table}", measured)
    return CheckResult("bias_bound", True,
                       f"{len(_BIAS_P_TABLES)} p-tables, {draws} mask draws each",
                       measured)


def check_gradient_finite_difference(seed: int = 0, instances: int = 100,
                                     rtol: float = 1e-5) -> CheckResult:
    """Analytic loss gradients match central finite differences."""
    from .grpo import ChunkedTrajectory, GaussianChunkPolicy, RolloutGroup

    rng = np.random.default_rng(seed)
    worst = 0.0
    for _ in range(instances):
        f, l, d, g, n = 3, 2, 2, 3, 4
        policy = GaussianChunkPolicy(
            weights=rng.normal(size=(f, l * d)),
            sigma=float(rng.uniform(0.3, 1.5)), chunk_len=l, action_dim=d)
        rewards = np.array([1.0, 0.0, float(rng.integers(0, 2))])
        trajectories = [
            ChunkedTrajectory(
                observations=rng.normal(size=(n, f)),
                actions=rng.normal(size=(n, l, d)),
                gripper=np.zeros(n * l),
                phase_ids=np.arange(n) % len(PHASES),
                reward=float(rewards[i]), trajectory_id=i)
            for i in range(g)
        ]
        group = RolloutGroup.from_trajectories(trajectories)
        grad = masked_loss_grad(group, policy)
        eps = 1e-6
        fd = np.empty_like(grad)
        flat = policy.weights.reshape(-1)
        for j in range(flat.size):
            saved = flat[j]
            flat[j] = saved + eps
            hi = full_loss(group, policy)
            flat[j] = saved - eps
            lo = full_loss(group, policy)
            flat[j] = saved
            fd[j] = (hi - lo) / (2.0 * eps)
        scale = max(np.abs(fd).max(), 1.0)
        rel = float(np.abs(grad - fd).max() / scale)
        worst = max(worst, rel)
        if rel > rtol:
            return CheckResult("gradient_finite_difference", False,
                               f"relative error {rel} > {rtol}",
                               {"relative_error": rel})
    return CheckResult("gradient_finite_difference", True,
                       f"{instances} randomized policy/batch pairs",
                       {"worst_relative_error": worst})


_SAMPLING_CASES = (
    ((2.0, 1.0, 1.0), 1),
    ((1.0, 2.0, 3.0, 4.0), 2),
    ((5.0, 1.0, 1.0, 1.0, 1.0, 1.0), 3),
    ((0.7, 1.3, 0.2, 2.1, 0.9, 1.6), 3),
)


def check_sampling_inclusion(seed: int = 0, draws: int = 1000000) -> CheckResult:
    """Empirical inclusion frequencies match the enumeration oracle, and
    identical seeds reproduce identical masks."""
    rng = np.random.default_rng(seed)
    worst_z = 0.0
    for weights, m in _SAMPLING_CASES:
        w = np.asarray(weights)
        exact = inclusion_probabilities(w, m)
        chosen = weighted_sample_rows(np.broadcast_to(w, (draws, w.size)), m, rng)
        counts = np.bincount(chosen.reshape(-1), minlength=w.size)
        freq = counts / draws
        sigma = np.sqrt(exact * (1.0 - exact) / draws)
        z = float((np.abs(freq - exact) / np.maximum(sigma, 1e-12)).max())
        worst_z = max(worst_z, z)
        if z > 3.0:
            return CheckResult(
                "sampling_inclusion", False,
                f"weights {weights}, m={m}: max |z| = {z:.2f} over {draws} draws",
                {"max_z": z})
    a = weighted_sample_without_replacement([3.0, 1.0, 2.0, 0.5], 2,
                                            np.random.default_rng(7))
    b = weighted_sample_without_replacement([3.0, 1.0, 2.0, 0.5], 2,
                                            np.random.default_rng(7))
    if not np.array_equal(a.indices, b.indices):
        return CheckResult("sampling_inclusion", False,
                           "identical seeds produced different masks", {})
    return CheckResult("sampling_inclusion", True,
                       f"{len(_SAMPLING_CASES)} weight sets, {draws} draws, "
                       f"max |z| = {worst_z:.2f}", {"max_z": worst_z})


def run_checks(seed: int = 0, budget: int = 12, fast: bool = False) -> list[CheckResult]:
    """Run the whole suite. `fast` shrinks the Monte Carlo sizes for quick
    smoke runs; acceptance-grade sizes are the defaults."""
    if budget < 1:
        raise ValueError("budget must be >= 1")
    scale = 10 if fast else 1
    return [
        check_allocation_optimality(seed, instances=100 // scale, budget=budget),
        check_speedup(seed, instances=10000 // scale, budget=budget),
        check_ratio_estimator(seed, mc_draws=100000 // scale),
        check_bias_bound(seed, draws=10000 // scale, budget=budget),
        check_gradient_finite_difference(seed, instances=100 // scale),
        check_sampling_inclusion(seed, draws=1000000 // scale),
    ]
