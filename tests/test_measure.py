from __future__ import annotations

import warnings
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import stats

from snnrobust.attack import AdversarialExample
from snnrobust.measure import (DegenerateDataError, MeasureError,
                               avg_confidence, avg_epsilon, cohen_label,
                               error_rate, kendall, rank_groups,
                               robustness_record, spearman)

from tests.conftest import run_child
from tests.oracles import kendall_pair_count, spearman_rank_diff


def outcome(success, confidence=0.5, epsilon=None):
    return AdversarialExample(original_index=0, success=success, confidence=confidence,
                              epsilon_used=epsilon)


class TestErrorRate:
    def test_fraction(self):
        outs = [outcome(True)] * 4 + [outcome(False)] * 6
        assert error_rate(outs) == pytest.approx(0.4)

    def test_extremes(self):
        assert error_rate([outcome(False)] * 3) == 0.0
        assert error_rate([outcome(True)] * 3) == 1.0

    def test_empty_rejected(self):
        with pytest.raises(MeasureError):
            error_rate([])


class TestAvgConfidence:
    def test_mean_over_successes_only(self):
        outs = [outcome(True, 0.8), outcome(True, 0.6), outcome(False, 0.99)]
        assert avg_confidence(outs) == pytest.approx(0.7)

    def test_single_success(self):
        assert avg_confidence([outcome(True, 0.51)]) == pytest.approx(0.51)

    def test_no_success_absent(self):
        assert avg_confidence([outcome(False, 0.9)]) is None


class TestAvgEpsilon:
    def test_mean(self):
        outs = [outcome(True, epsilon=0.001), outcome(True, epsilon=0.021)]
        assert avg_epsilon(outs) == pytest.approx(0.011)

    def test_censored_excluded_and_counted(self):
        outs = [outcome(True, epsilon=0.001), outcome(False)]
        assert avg_epsilon(outs) == pytest.approx(0.001)
        rec = robustness_record("m", "U", "fgsm_search", outs)
        assert rec.n_censored == 1
        assert rec.avg_epsilon == pytest.approx(0.001)

    def test_all_censored_absent(self):
        assert avg_epsilon([outcome(False), outcome(False)]) is None


class TestSpearman:
    def test_identical_orderings(self):
        assert spearman([1, 2, 3, 4], [10, 20, 30, 40]) == pytest.approx(1.0)

    def test_reversed(self):
        assert spearman([1, 2, 3], [3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        # d = (0, 1, -1): rho = 1 - 6*2/(3*8) = 0.5
        assert spearman([1, 2, 3], [1, 3, 2]) == pytest.approx(0.5, abs=1e-12)

    def test_zero_variance_flagged(self):
        with pytest.raises(DegenerateDataError):
            spearman([1, 1, 1], [1, 2, 3])

    def test_too_short_rejected(self):
        with pytest.raises(MeasureError):
            spearman([1, 2], [2, 1])

    def test_matches_rank_diff_oracle_on_permutations(self):
        base = list(range(5))
        for perm in permutations(base):
            assert spearman(base, perm) == pytest.approx(
                spearman_rank_diff(base, perm), abs=1e-12)


class TestKendall:
    def test_identical_and_reversed(self):
        assert kendall([1, 2, 3, 4], [1, 2, 3, 4]) == pytest.approx(1.0)
        assert kendall([1, 2, 3, 4], [4, 3, 2, 1]) == pytest.approx(-1.0)

    def test_hand_computed(self):
        # concordant 5, discordant 1 over 6 pairs
        assert kendall([1, 2, 3, 4], [1, 3, 2, 4]) == pytest.approx(4 / 6, abs=1e-12)

    def test_all_tied_flagged(self):
        with pytest.raises(DegenerateDataError):
            kendall([2, 2, 2], [1, 2, 3])

    @pytest.mark.parametrize("v", [np.inf, -np.inf])
    def test_all_infinite_is_all_tied_without_warnings(self, v):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DegenerateDataError, match="all-tied input"):
                kendall([v] * 3, [1, 2, 3])

    def test_matches_pair_count_oracle_on_permutations(self):
        base = list(range(5))
        for perm in permutations(base):
            assert kendall(base, perm) == pytest.approx(
                kendall_pair_count(base, perm), abs=1e-12)

    def test_infinities_compare_without_warnings(self):
        # inf - inf is nan, with a RuntimeWarning: pairs are compared, not
        # subtracted
        xs, ys = [np.inf, np.inf, 1, 2, -np.inf], [1, 2, 3, 4, 2]
        want = float(stats.kendalltau(xs, ys, variant="b").statistic)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = kendall(xs, ys)
        assert got == want == pytest.approx(-2 / 9, abs=1e-15)

    @settings(max_examples=60, deadline=None)
    @given(st.lists(st.integers(-100, 100), min_size=4, max_size=30, unique=True),
           st.randoms(use_true_random=False))
    def test_monotone_transform_invariance(self, xs, rnd):
        # integer-spaced inputs keep exp strictly monotone in float64
        ys = list(xs)
        rnd.shuffle(ys)
        rho1, tau1 = spearman(xs, ys), kendall(xs, ys)
        xs2 = np.exp(np.asarray(xs, dtype=float) / 100.0)
        ys2 = 2 * np.asarray(ys, dtype=float) + 7
        assert spearman(xs2, ys2) == pytest.approx(rho1, abs=1e-9)
        assert kendall(xs2, ys2) == pytest.approx(tau1, abs=1e-9)
        assert -1 <= rho1 <= 1 and -1 <= tau1 <= 1

    def test_sign_agreement_on_tie_free_data(self):
        # near-zero coefficients can legitimately disagree in sign (the
        # 3*tau - 2*rho bound allows it); agreement is asserted for
        # non-negligible associations
        rng = np.random.default_rng(0)
        checked = 0
        for _ in range(1000):
            n = int(rng.integers(4, 16))
            xs = rng.permutation(n)
            ys = rng.permutation(n)
            rho, tau = spearman(xs, ys), kendall(xs, ys)
            if abs(rho) > 0.1 and abs(tau) > 0.1:
                checked += 1
                assert np.sign(rho) == np.sign(tau)
        assert checked > 100


def random_pairs(seed: int, count: int, lengths: tuple[int, int] = (3, 60)):
    """Seeded (xs, ys) pairs with lengths in [lengths[0], lengths[1]): half
    integer-valued draws from one to five levels, so with heavy ties, half
    continuous and tie-free."""
    rng = np.random.default_rng(seed)
    for k in range(count):
        n = int(rng.integers(*lengths))
        if k % 2:
            yield rng.normal(size=n), rng.normal(size=n)
        else:
            yield (rng.integers(0, rng.integers(1, 6), n).astype(float),
                   rng.integers(0, rng.integers(1, 6), n).astype(float))


def outcome_or_flag(f, xs, ys):
    try:
        return f(xs, ys)
    except DegenerateDataError as exc:
        return str(exc)


class TestEqualsScipyBitForBit:
    """The numpy rank statistics against scipy.stats, the reference."""

    def test_spearman_equals_rankdata_corrcoef(self):
        defined = 0
        for xs, ys in random_pairs(1, 1500):
            rx = stats.rankdata(xs, method="average")
            ry = stats.rankdata(ys, method="average")
            if np.ptp(rx) == 0 or np.ptp(ry) == 0:
                assert outcome_or_flag(spearman, xs, ys) == "zero rank variance"
                continue
            defined += 1
            assert spearman(xs, ys) == float(np.corrcoef(rx, ry)[0, 1])
        assert defined > 1200

    def test_kendall_equals_kendalltau_b(self):
        defined = 0
        for xs, ys in random_pairs(2, 1500):
            if np.ptp(xs) == 0 or np.ptp(ys) == 0:
                assert outcome_or_flag(kendall, xs, ys) == "all-tied input"
                continue
            defined += 1
            assert kendall(xs, ys) == float(
                stats.kendalltau(xs, ys, variant="b").statistic)
        assert defined > 1200

    def test_kendall_equals_kendalltau_b_at_model_counts(self):
        # up to 700 models, 244,650 pairs
        defined = 0
        for xs, ys in random_pairs(3, 200, lengths=(60, 700)):
            if np.ptp(xs) == 0 or np.ptp(ys) == 0:
                continue
            defined += 1
            assert kendall(xs, ys) == float(
                stats.kendalltau(xs, ys, variant="b").statistic)
        assert defined > 150

    def test_nan_as_in_scipy(self):
        xs, ys = [1.0, np.nan, 3.0, 4.0], [1.0, 2.0, 3.0, 4.0]
        assert np.isnan(spearman(xs, ys))
        assert outcome_or_flag(kendall, xs, ys) == "tau undefined for this input"


def test_cli_import_leaves_scipy_stats_out():
    # scipy.stats costs every process about 0.4 s and 27 MiB to import
    assert run_child("import sys, snnrobust.cli; "
                     "print('scipy.stats' in sys.modules)") == "False"


class TestRankGroups:
    def test_identical_and_reversed_rankings_group(self):
        n = [250, 300, 250, 400]
        groups = rank_groups({"n": n, "edges": [2 * v for v in n],
                              "density": [4 / (v - 1) for v in n],
                              "apl": [4.1, 4.6, 4.2, 5.0], "const": [7, 7, 7, 7]})
        assert groups == [[("n", 1), ("edges", 1), ("density", -1)]]

    def test_same_order_with_other_ties_is_not_identical(self):
        assert rank_groups({"a": [1, 2, 2], "b": [1, 2, 3]}) == []

    def test_groups_give_equal_correlations(self):
        a, b, ys = [1, 5, 3, 9], [-2, -30, -4, -90], [0.3, 0.1, 0.4, 0.2]
        assert rank_groups({"a": a, "b": b}) == [[("a", 1), ("b", -1)]]
        assert spearman(a, ys) == -spearman(b, ys)
        assert kendall(a, ys) == -kendall(b, ys)


class TestCohenLabel:
    @pytest.mark.parametrize("rho,label", [
        (0.09, "negligible"), (0.10, "weak"), (0.29, "weak"),
        (0.30, "moderate"), (0.49, "moderate"), (0.50, "large"),
        (0.15, "weak"), (-0.35, "moderate"), (0.6, "large"), (-1.0, "large"),
    ])
    def test_thresholds(self, rho, label):
        assert cohen_label(rho) == label

    def test_out_of_range_rejected(self):
        with pytest.raises(MeasureError):
            cohen_label(1.2)
