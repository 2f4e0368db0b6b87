import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from chunkmask.allocation import (
    PhaseStats,
    bias_bound,
    estimator_variance,
    integerize,
    min_variance,
    neyman_allocation,
    ratio_estimator,
    speedup_ratio,
)


def stats(counts, variances, budget):
    return PhaseStats(np.asarray(counts, dtype=float),
                      np.asarray(variances, dtype=float), budget)


class TestAllocation:
    def test_two_phase_worked_example(self):
        b = neyman_allocation(stats([10, 5], [4, 1], 6))
        assert np.allclose(b, [4.8, 1.2])

    def test_fractional_budgets_sum_to_total(self):
        rng = np.random.default_rng(0)
        for _ in range(20):
            k = rng.integers(2, 6)
            s = stats(rng.integers(1, 20, k), rng.uniform(0.1, 10, k), 12)
            assert np.isclose(neyman_allocation(s).sum(), 12.0)

    def test_degenerate_all_zero_signal(self):
        with pytest.raises(ValueError):
            neyman_allocation(stats([3, 4], [0, 0], 5))

    def test_monotone_in_variance(self):
        base = stats([8, 8, 8], [1.0, 2.0, 3.0], 10)
        bumped = stats([8, 8, 8], [1.0, 2.0, 5.0], 10)
        assert neyman_allocation(bumped)[2] > neyman_allocation(base)[2]

    def test_integerize_largest_remainder(self):
        assert integerize([4.8, 1.2], 6).tolist() == [5, 1]
        assert integerize([3.5, 3.5, 5.0], 12).sum() == 12

    @settings(max_examples=200, deadline=None, database=None)
    @given(st.lists(st.tuples(st.integers(0, 200), st.floats(0.0, 1e3)),
                    min_size=1, max_size=8),
           st.integers(1, 500))
    def test_integerized_neyman_allocation_sums_to_budget(self, phases, budget):
        counts, variances = zip(*phases)
        s = stats(counts, variances, budget)
        assume(np.any(s.weights > 0.0))
        fractional = neyman_allocation(s)
        rounded = integerize(fractional, budget)
        assert rounded.sum() == budget
        assert np.all(np.abs(rounded - fractional) < 1.0)


class TestVariance:
    def test_direct_arithmetic(self):
        s = stats([10, 5], [4, 1], 6)
        assert np.isclose(estimator_variance(s, [4.8, 1.2]), 625 / 6)

    def test_closed_form_matches_variance_at_allocation(self):
        s = stats([10, 5], [4, 1], 6)
        assert np.isclose(min_variance(s), 625 / 6)
        assert np.isclose(estimator_variance(s, neyman_allocation(s)),
                          min_variance(s))

    def test_single_phase(self):
        s = stats([7], [3], 4)
        assert np.isclose(estimator_variance(s, [4]), 49 * 3 / 4)

    def test_zero_budget_with_signal_is_infinite(self):
        s = stats([10, 5], [4, 1], 6)
        assert estimator_variance(s, [6.0, 0.0]) == float("inf")

    def test_zero_budget_without_signal_is_fine(self):
        s = stats([10, 5], [4, 0], 6)
        assert np.isfinite(estimator_variance(s, [6.0, 0.0]))


class TestSpeedup:
    def test_worked_example(self):
        assert np.isclose(speedup_ratio(stats([10, 5], [4, 1], 6)), 1.36)

    def test_equality_case(self):
        # All N_c^2 V_c equal -> exactly 1.
        s = stats([2, 4, 8], [16.0, 4.0, 1.0], 6)
        assert abs(speedup_ratio(s) - 1.0) < 1e-12

    def test_full_concentration_gives_k(self):
        s = stats([8, 8, 8, 8, 8], [0, 0, 4, 0, 0], 6)
        assert abs(speedup_ratio(s) - 5.0) < 1e-12

    def test_degenerate_rejected(self):
        with pytest.raises(ValueError):
            speedup_ratio(stats([1, 1], [0, 0], 3))


class TestBiasBound:
    def test_worked_example(self):
        assert bias_bound([1.0, 0.5], [3.0, 2.0]) == 1.0

    def test_no_masking_no_bias(self):
        assert bias_bound([1.0, 1.0, 1.0], [5.0, 2.0, 9.0]) == 0.0

    def test_full_masking_extreme(self):
        assert bias_bound([0.0, 0.0], [3.0, 2.0]) == 5.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            bias_bound([0.5], [1.0, 2.0])

    def test_probability_range_checked(self):
        with pytest.raises(ValueError):
            bias_bound([1.5], [1.0])


class TestRatioEstimator:
    def test_scale_factor(self):
        samples = np.array([[1.0, 2.0], [3.0, 4.0]])
        assert np.allclose(ratio_estimator(samples, 4), 2 * samples.sum(axis=0))

    def test_all_chunks_is_plain_sum(self):
        samples = np.arange(12.0).reshape(4, 3)
        assert np.allclose(ratio_estimator(samples, 4), samples.sum(axis=0))

    def test_empty_sample_rejected(self):
        with pytest.raises(ValueError):
            ratio_estimator(np.zeros((0, 3)), 4)

    def test_enumeration_unbiasedness_small(self):
        from itertools import combinations
        rng = np.random.default_rng(5)
        for n in range(2, 9):
            terms = rng.normal(size=(n, 3))
            for b in range(1, n + 1):
                mean = np.mean([ratio_estimator(terms[list(s)], n)
                                for s in combinations(range(n), b)], axis=0)
                assert np.allclose(mean, terms.sum(axis=0), atol=1e-12)

