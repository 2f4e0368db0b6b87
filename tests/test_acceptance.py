"""Acceptance suite: one test and one printed pass/fail line per criterion.

Each check rests on an independent oracle (closed forms, exhaustive
enumeration, brute-force grids, finite differences, Monte Carlo, or the toy
environment's ground truth) at the stated tolerances.
"""

import time

import numpy as np
import pytest

from chunkmask.analysis import knee_point, sweep_budget
from chunkmask.grpo import (
    ChunkedTrajectory,
    GaussianChunkPolicy,
    RolloutGroup,
    _score_terms,
    group_advantages,
    phase_gradient_stats,
)
from chunkmask.phases import PHASES, PhaseLabel, label_phases, phase_dict, phase_ids
from chunkmask.sampling import weighted_sample_rows
from chunkmask.scores import GroupCollapsedError, compute_phase_scores
from chunkmask.toyworld import (
    ToyTaskSpec,
    generate_group,
    ground_truth_variance,
    initial_policy,
)
from chunkmask.traces import TraceRecord
from chunkmask.trainer import TrainConfig, final_success, run_seeds, train
from chunkmask.verify import (
    check_allocation_optimality,
    check_bias_bound,
    check_gradient_finite_difference,
    check_ratio_estimator,
    check_sampling_inclusion,
    check_speedup,
)

from conftest import record_criterion

AG = PhaseLabel.ACTIVE_GRIP
PG = PhaseLabel.PRE_GRASP
RR = PhaseLabel.RELEASE_RAMP
AP = PhaseLabel.APPROACH
TL = PhaseLabel.TAIL

CRITICAL = (AG, PG)
NON_CRITICAL = (RR, AP, TL)


def check(number, name, passed, detail=""):
    record_criterion(number, name, passed, detail)
    assert passed, f"criterion {number} ({name}) failed: {detail}"


@pytest.fixture(scope="module")
def training_runs():
    """Final success per mode: 5 seeds, 300 steps, 64-chunk profile, B=12."""
    spec = ToyTaskSpec(chunks_per_traj=64)
    finals = {}
    for mode in ("vanilla", "pcm", "random_mask", "full_mask"):
        runs = run_seeds(TrainConfig(mode=mode, steps=300), range(5), spec)
        finals[mode] = float(np.mean([final_success(r) for r in runs]))
    return finals


def test_criterion_01_neyman_optimality():
    start = time.time()
    result = check_allocation_optimality(seed=0, instances=100, rtol=1e-9)
    elapsed = time.time() - start
    check(1, "neyman-optimality", result.passed and elapsed < 10.0,
          f"{result.detail}; {elapsed:.1f}s")


def test_criterion_02_speedup_ratio():
    result = check_speedup(seed=0, instances=10000)
    check(2, "speedup-ratio", result.passed, result.detail)


def test_criterion_03_ratio_estimator_unbiased():
    result = check_ratio_estimator(seed=0, mc_draws=100000)
    check(3, "ratio-estimator-unbiased", result.passed, result.detail)


def test_criterion_04_bias_bound():
    result = check_bias_bound(seed=0, draws=10000)
    margin = min(v["bound"] - v["bias"] for v in result.measured.values())
    check(4, "bias-bound", result.passed,
          f"{result.detail}; smallest margin {margin:.3f}")


def test_criterion_05_gradient_correctness():
    result = check_gradient_finite_difference(seed=0, instances=100, rtol=1e-5)
    check(5, "gradient-correctness", result.passed, result.detail)


def _mean_phase_scores(spec, policy, rollouts, rng):
    sums = {c: [] for c in PHASES}
    for _ in range(rollouts // 10):
        group = generate_group(spec, policy, 10, rng)
        try:
            report = compute_phase_scores(group)
        except GroupCollapsedError:
            continue
        for c, v in phase_dict(report).items():
            sums[c].append(v)
    return {c: float(np.mean(v)) for c, v in sums.items() if v}


def _spearman(rank_a, rank_b):
    pos_a = {c: i for i, c in enumerate(rank_a)}
    pos_b = {c: i for i, c in enumerate(rank_b)}
    d2 = sum((pos_a[c] - pos_b[c]) ** 2 for c in rank_a)
    n = len(rank_a)
    return 1.0 - 6.0 * d2 / (n * (n**2 - 1))


def test_criterion_06_signal_and_variance_concentration():
    spec = ToyTaskSpec()
    policy = initial_policy(spec)

    oracle = ground_truth_variance(spec, policy, 10000,
                                   np.random.default_rng(100))
    variances = dict(zip(PHASES, oracle[0]))
    scores = _mean_phase_scores(spec, policy, 10000, np.random.default_rng(0))

    min_crit_c = min(scores[c] for c in CRITICAL)
    min_crit_v = min(variances[c] for c in CRITICAL)
    conc_c = all(scores[c] < 0.1 * min_crit_c for c in NON_CRITICAL)
    conc_v = all(variances[c] < 0.1 * min_crit_v for c in NON_CRITICAL)

    v_rank = sorted(PHASES, key=lambda c: -variances[c])
    rhos = []
    for seed in range(10):
        seed_scores = _mean_phase_scores(spec, policy, 10000,
                                         np.random.default_rng(1000 + seed))
        c_rank = sorted(PHASES, key=lambda c: -seed_scores[c])
        rhos.append(_spearman(c_rank, v_rank))
    mean_rho = float(np.mean(rhos))

    # Literal lower bound V_c >= C_c^2 / (4 sigma^2) on one-dimensional
    # constructions: policy mean at the failure actions, successes offset
    # by d, one success and one failure per group.
    bound_ok = True
    for sigma in (0.3, 0.6, 1.0):
        for d in (0.2, 1.0, 3.0):
            policy1 = GaussianChunkPolicy(np.zeros((1, 1)), sigma)
            rng = np.random.default_rng(7)
            trajs = []
            for i in range(200):
                success = i % 2 == 0
                action = (d if success else 0.0) + 1e-3 * rng.standard_normal()
                trajs.append(ChunkedTrajectory(
                    observations=np.ones((1, 1)), actions=np.full((1, 1, 1), action),
                    gripper=np.zeros(1), phase_ids=[PHASES.index(AG)],
                    reward=float(success), trajectory_id=i))
            group = RolloutGroup.from_trajectories(trajs)
            group.advantages = group_advantages(group.rewards, epsilon=0.0)
            v_c = phase_gradient_stats(group, policy1).variances[PHASES.index(AG)]
            c_c = compute_phase_scores(group)[PHASES.index(AG)]
            bound_ok &= v_c >= c_c**2 / (4.0 * sigma**2)

    check(6, "signal-and-variance-concentration",
          conc_c and conc_v and mean_rho == 1.0 and bound_ok,
          f"C conc {conc_c}, V conc {conc_v}, mean Spearman {mean_rho}, "
          f"1-D bound {bound_ok}")


def test_criterion_07_learning_parity(training_runs):
    start_gap = abs(training_runs["pcm"] - training_runs["vanilla"])
    spec = ToyTaskSpec(chunks_per_traj=64)
    run = train(TrainConfig(mode="pcm", steps=12), spec)
    fractions = {m.chunks_used / (10 * 64) for m in run if not m.skipped}
    check(7, "learning-dynamics-parity",
          start_gap <= 0.05 and fractions == {0.1875},
          f"final gap {start_gap * 100:.1f}pts, chunk fraction "
          f"{sorted(fractions)}")


def test_criterion_08_ablation_ordering(training_runs):
    gap_rand = training_runs["pcm"] - training_runs["random_mask"]
    gap_full = training_runs["random_mask"] - training_runs["full_mask"]
    check(8, "ablation-ordering", gap_rand >= 0.05 and gap_full >= 0.05,
          f"pcm-random {gap_rand * 100:.1f}pts, random-full "
          f"{gap_full * 100:.1f}pts")


def test_criterion_09_masked_vs_reweighted_variance():
    spec = ToyTaskSpec()
    policy = initial_policy(spec)
    rng = np.random.default_rng(11)
    group = None
    for _ in range(50):
        candidate = generate_group(spec, policy, 10, rng)
        if candidate.reward_variance > 0.0:
            group = candidate
            break
    terms, ids = _score_terms(group, policy)
    probs = {AG: 1.0, PG: 0.87, RR: 0.1, AP: 0.1, TL: 0.1}
    weights = np.array([probs[c] for c in PHASES])[ids]
    n = spec.chunks_per_traj
    draws, budget = 10000, 12

    chosen = weighted_sample_rows(np.tile(weights.reshape(10, n), (draws, 1)), budget, rng)
    selection = np.zeros((draws * 10, n), dtype=bool)
    selection[np.arange(draws * 10)[:, None], chosen] = True
    selection = selection.reshape(draws, len(ids))
    masked = -(selection @ terms) / 10.0
    reweighted = -((selection / weights[None]) @ terms) / 10.0
    var_masked = float(masked.var(axis=0, ddof=1).sum())
    var_reweighted = float(reweighted.var(axis=0, ddof=1).sum())
    check(9, "masked-below-reweighted-variance", var_masked < var_reweighted,
          f"masked {var_masked:.3f} < importance-weighted {var_reweighted:.3f}")


def test_criterion_10_sampling_correctness():
    result = check_sampling_inclusion(seed=0, draws=1000000)
    check(10, "sampling-correctness", result.passed, result.detail)


def test_criterion_11_phase_labeling():
    golden = [
        ([0.0, 0.2, 0.8, 0.8, 0.3, 0.0], [AP, PG, AG, AG, RR, RR]),
        ([0.0] * 6, [AP] * 6),
        ([0.0, 0.0, 0.9, 0.9, 0.0, 0.0, 0.0, 0.05],
         [AP, AP, AG, AG, RR, RR, RR, TL]),
        # Multi-grasp: two cycles, middle chunk in neither window.
        ([0.0, 0.2, 0.9, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.2, 0.9, 0.0, 0.0],
         [AP, PG, AG, RR, RR, RR, AP, AP, AP, PG, AG, RR, RR]),
        # No grasp anywhere, mid-band values stay approach.
        ([0.05, 0.3, 0.4, 0.2, 0.0], [AP] * 5),
    ]
    golden_ok = all(np.array_equal(label_phases(g), phase_ids(expected))
                    for g, expected in golden)

    # Reward-blindness: label-free trace records of a toy group are labelled
    # from their gripper traces by the reader, before and after each reward
    # is flipped.
    spec = ToyTaskSpec()
    policy = initial_policy(spec)
    group = generate_group(spec, policy, 6, 0)
    records = [TraceRecord.from_trajectory(t, "task-0", include_labels=False)
               for t in group.trajectories]
    labels = [r.to_trajectory().phase_ids.tolist() for r in records]
    for r in records:
        r.reward = 1.0 - r.reward
    blind_ok = labels == [r.to_trajectory().phase_ids.tolist() for r in records] and all(
        lab == spec.layout_ids.tolist() for lab in labels)
    check(11, "phase-labeling", golden_ok and blind_ok,
          f"golden {golden_ok}, reward-blind {blind_ok}")


def test_criterion_12_budget_sweep_knee():
    # Constructed concave curve with its corner at 20% retained.
    n = 100
    fractions = np.arange(1, n + 1) / n
    captured = np.where(fractions <= 0.2, 4.0 * fractions,
                        0.8 + 0.25 * (fractions - 0.2))
    idx, defined = knee_point(fractions, captured)
    knee_ok = defined and abs(fractions[idx] - 0.2) <= 1.0 / n

    spec = ToyTaskSpec()
    policy = initial_policy(spec)
    rng = np.random.default_rng(5)
    records = []
    for t in range(4):
        group = generate_group(spec, policy, 10, rng)
        for traj in group.trajectories:
            records.append(TraceRecord.from_trajectory(traj, f"task-{t}"))
    sweep = sweep_budget(records)
    above = bool(np.all(sweep.captured[:-1] > sweep.fractions[:-1]))
    check(12, "budget-sweep-knee", knee_ok and sweep.knee_defined and above,
          f"constructed knee at {fractions[idx]:.2f}, toy curve above "
          f"diagonal {above}")
