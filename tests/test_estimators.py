import math

import numpy as np
import pytest

from helpers import bounded_random_joint, random_joint
from margfit import (
    AdjustedTable,
    CloneCounts,
    CountTable,
    JointDistribution,
    MarginalDistribution,
    WeightVector,
    adjust_to_known_marginal,
    adjusted_row_marginal,
    cloned_frequencies,
    column_marginal,
    cross_product_ratios,
    empirical_joint,
    ipf_column_step,
    ipf_fit,
    row_marginal,
    weighted_frequencies,
)
from margfit.asymptotics import effective_sample_factor
from margfit.asymptotics import adjusted_marginal_covariance, marginal_covariance
from margfit.io import load_destatis2014, load_gidas_table3
from margfit.simulation import replicate_marginal_estimates
from margfit.tables import build_2x2_from_marginals_cpr


def marg(values):
    return MarginalDistribution(values)


class TestWeightedFrequencies:
    def test_uniform_weights_give_relative_frequencies(self):
        xs = np.array([1, 2, 2, 3, 1, 1])
        result = weighted_frequencies(xs, WeightVector.uniform(6))
        np.testing.assert_allclose(result, np.bincount(xs - 1) / 6, atol=1e-15)

    def test_direct_two_point(self):
        result = weighted_frequencies([1, 2], WeightVector([0.9, 0.1]))
        np.testing.assert_allclose(result, [0.9, 0.1], atol=1e-15)

    def test_direct_three_observations(self):
        result = weighted_frequencies([1, 1, 2], WeightVector([0.5, 0.25, 0.25]))
        np.testing.assert_allclose(result, [0.75, 0.25], atol=1e-15)

    def test_explicit_category_count_pads(self):
        result = weighted_frequencies([1, 2], WeightVector([0.9, 0.1]), n_categories=4)
        np.testing.assert_allclose(result, [0.9, 0.1, 0.0, 0.0], atol=1e-15)

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="observations but"):
            weighted_frequencies([1, 2, 3], WeightVector([0.5, 0.5]))

    def test_zero_based_labels_rejected(self):
        with pytest.raises(ValueError, match="1-based"):
            weighted_frequencies([0, 1], WeightVector([0.5, 0.5]))

    def test_fractional_labels_rejected_not_truncated(self):
        for xs in ([1.5, 2.7], [1.0, float("nan")], np.array([1.0, 2.5])):
            with pytest.raises(ValueError, match="category labels must be integers"):
                weighted_frequencies(xs, WeightVector.uniform(2))
        result = weighted_frequencies([1.0, 2.0], WeightVector([0.75, 0.25]))
        np.testing.assert_array_equal(result, [0.75, 0.25])

    def test_labels_beyond_int64_rejected(self):
        with pytest.raises(ValueError, match="category labels must lie in the int64 range"):
            weighted_frequencies([1.0, 1e19], WeightVector.uniform(2))

    def test_category_count_must_be_a_positive_integer(self):
        for n_categories in (1.5, 2.5, True, "3"):
            with pytest.raises(ValueError, match="n_categories must be an integer"):
                weighted_frequencies([1, 2], WeightVector.uniform(2), n_categories)
            with pytest.raises(ValueError, match="n_categories must be an integer"):
                cloned_frequencies([1, 2], CloneCounts([1, 1]), n_categories)
        with pytest.raises(ValueError, match="n_categories must be >= 1"):
            weighted_frequencies([1, 2], WeightVector.uniform(2), 0)
        result = weighted_frequencies([1, 2], WeightVector([0.75, 0.25]), 3.0)
        np.testing.assert_array_equal(result, [0.75, 0.25, 0.0])

    def test_weight_vector_validation(self):
        with pytest.raises(ValueError):
            WeightVector([0.5, 0.6])
        with pytest.raises(ValueError):
            WeightVector([1.5, -0.5])


class TestClonedFrequencies:
    def test_no_cloning_is_empirical(self):
        xs = np.array([1, 2, 1, 3])
        result = cloned_frequencies(xs, CloneCounts(np.ones(4, dtype=np.int64)))
        np.testing.assert_allclose(result, np.bincount(xs - 1) / 4, atol=1e-15)

    def test_direct_evaluation(self):
        result = cloned_frequencies([1, 2], CloneCounts(np.array([3, 1])))
        np.testing.assert_allclose(result, [0.75, 0.25], atol=1e-15)

    def test_uniform_cloning_cancels(self):
        xs = np.array([2, 1, 2, 2])
        cloned = cloned_frequencies(xs, CloneCounts(np.full(4, 7)))
        np.testing.assert_allclose(cloned, np.bincount(xs - 1) / 4, atol=1e-15)

    def test_matches_weighting_by_share(self):
        rng = np.random.default_rng(5)
        for _ in range(25):
            n = int(rng.integers(2, 40))
            xs = rng.integers(1, 6, size=n)
            clones = CloneCounts(rng.integers(1, 9, size=n))
            via_clones = cloned_frequencies(xs, clones, n_categories=5)
            via_weights = weighted_frequencies(
                xs, WeightVector(clones.counts / clones.total), n_categories=5
            )
            np.testing.assert_allclose(via_clones, via_weights, atol=1e-15)

    def test_fractional_labels_rejected_not_truncated(self):
        with pytest.raises(ValueError, match="category labels must be integers"):
            cloned_frequencies([1.5, 2.0], CloneCounts([1, 1]))

    def test_clone_counts_validation(self):
        with pytest.raises(ValueError, match=">= 1"):
            CloneCounts(np.array([1, 0]))
        with pytest.raises(ValueError, match="integers"):
            CloneCounts(np.array([1.5, 2.5]))

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="clone counts"):
            cloned_frequencies([1, 2, 1], CloneCounts(np.array([1, 2])))

    @pytest.mark.parametrize("xs", [5, []])
    def test_labels_must_form_a_non_empty_vector(self, xs):
        with pytest.raises(ValueError) as excinfo:
            cloned_frequencies(xs, CloneCounts([1]))
        assert str(excinfo.value) == "observations must be a non-empty vector of category labels"


class TestAdjustToKnownMarginal:
    def test_identity_when_marginal_already_matches(self):
        table = bounded_random_joint(np.random.default_rng(3))
        adjusted = adjust_to_known_marginal(table, column_marginal(table))
        assert np.array_equal(adjusted.cells, table.cells)
        assert adjusted.zero_column_mask == frozenset()

    def test_uniform_table_direct_evaluation(self):
        table = JointDistribution(np.full((2, 2), 0.25))
        adjusted = adjust_to_known_marginal(table, marg([0.8, 0.2]))
        np.testing.assert_allclose(adjusted.cells, [[0.4, 0.1], [0.4, 0.1]], atol=1e-15)

    def test_accident_table_first_row_hand_computation(self):
        # With the rounded marginal (0.896, 0.100, 0.004) the first adjusted
        # row estimate is 0.896*(346/2538) + 0.100*(24/676) + 0.004*(2/40).
        joint = empirical_joint(load_gidas_table3())
        adjusted = adjust_to_known_marginal(joint, marg([0.896, 0.100, 0.004]))
        expected = 0.896 * (346 / 2538) + 0.100 * (24 / 676) + 0.004 * (2 / 40)
        assert adjusted_row_marginal(adjusted)[0] == pytest.approx(expected, abs=1e-12)

    def test_zero_column_masked(self):
        table = JointDistribution([[0.5, 0.0], [0.5, 0.0]])
        adjusted = adjust_to_known_marginal(table, marg([0.7, 0.3]))
        assert adjusted.zero_column_mask == frozenset({1})
        np.testing.assert_allclose(adjusted.cells, [[0.35, 0.0], [0.35, 0.0]], atol=1e-15)
        assert adjusted_row_marginal(adjusted).sum() == pytest.approx(0.7, abs=1e-12)

    def test_dims_are_the_source_table_dims(self):
        table = JointDistribution([[0.25, 0.0, 0.25], [0.25, 0.0, 0.25]])
        assert adjust_to_known_marginal(table, marg([0.5, 0.2, 0.3])).dims == (2, 3)

    def test_zero_marginal_entry_rejected(self):
        table = JointDistribution(np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match="strictly positive"):
            adjust_to_known_marginal(table, marg([1.0, 0.0]))

    def test_marginal_length_checked(self):
        table = JointDistribution(np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match="columns"):
            adjust_to_known_marginal(table, marg([0.5, 0.3, 0.2]))

    def test_column_calibration_is_exact(self):
        # Unmasked column sums equal the known marginal to 1e-12.
        rng = np.random.default_rng(17)
        for _ in range(200):
            table = random_joint(rng)
            target = 0.1 + rng.random(table.n_cols)
            target = marg(target / target.sum())
            adjusted = adjust_to_known_marginal(table, target)
            assert np.abs(adjusted.cells.sum(axis=0) - target.probs).max() < 1e-12
            assert abs(adjusted.cells.sum() - 1.0) < 1e-12

    def test_cross_product_ratios_preserved(self):
        rng = np.random.default_rng(19)
        for _ in range(200):
            table = bounded_random_joint(rng)
            target = 0.1 + rng.random(table.n_cols)
            target = marg(target / target.sum())
            adjusted = adjust_to_known_marginal(table, target)
            before = cross_product_ratios(table).ratios
            after = cross_product_ratios(JointDistribution(adjusted.cells)).ratios
            defined = np.isfinite(before)
            assert np.array_equal(defined, np.isfinite(after))
            np.testing.assert_allclose(after[defined], before[defined], atol=1e-12)


def post_stratified_and_weighted(counts: CountTable, known: MarginalDistribution):
    """The adjusted row marginal of ``counts`` and the weighted frequencies of
    its row labels, each observation in column j weighted c_j / N_j, with a
    bound on their distance from float rounding alone, and the weights."""
    cells = counts.counts
    n_rows, n_cols = cells.shape
    adjusted = adjusted_row_marginal(adjust_to_known_marginal(empirical_joint(counts), known))
    labels = np.repeat(np.arange(1, n_rows + 1), cells.sum(axis=1))
    columns = np.concatenate([np.repeat(np.arange(n_cols), row) for row in cells])
    weights = WeightVector(known.probs[columns] / cells.sum(axis=0)[columns])
    weighted = weighted_frequencies(labels, weights, n_rows)
    # Both are sums of the nonnegative terms C_ij c_j / N_j. The adjusted one
    # rounds each term at most n_rows + 3 times (C_ij / N, the column sum, the
    # scale, the product) and adds n_cols of them; the weighted one rounds each
    # weight once and adds row i's N_i of them one by one. With
    # gamma_k = k u / (1 - k u), each lies within gamma_k x_i of the exact x_i.
    u = np.finfo(np.float64).eps / 2
    g_adjusted = (n_rows + n_cols + 2) * u / (1 - (n_rows + n_cols + 2) * u)
    g_weighted = cells.sum(axis=1) * u / (1 - cells.sum(axis=1) * u)
    bound = (g_adjusted + g_weighted) * adjusted / (1 - g_adjusted)
    return adjusted, weighted, bound, weights


class TestPostStratificationIsWeighting:
    # Adjusting the empirical table to a known column marginal is weighting
    # each observation by its column's known over observed share.
    def test_random_count_tables(self):
        rng = np.random.default_rng(2301)
        for _ in range(200):
            table = random_joint(rng)
            n = int(rng.integers(20, 10001))
            cells = rng.multinomial(n, table.cells.ravel()).reshape(table.dims)
            if (cells.sum(axis=0) == 0).any():
                continue
            known = 0.1 + rng.random(table.n_cols)
            adjusted, weighted, bound, _ = post_stratified_and_weighted(
                CountTable(cells), marg(known / known.sum())
            )
            assert (np.abs(adjusted - weighted) <= bound).all()

    def test_accident_case(self):
        counts = load_gidas_table3()
        adjusted, weighted, bound, weights = post_stratified_and_weighted(
            counts, load_destatis2014()
        )
        assert (np.abs(adjusted - weighted) <= bound).all()
        # Kish's design effect n sum_t w_t^2 of these weights.
        assert round(counts.total * effective_sample_factor(weights), 3) == 1.079


class TestPostStratifiedVarianceIsNotKish:
    """The post-stratified estimate's variance is the adjusted covariance, not
    Kish's fixed-weight prediction: its weights c_j / N_j are estimated from
    the same sample, and that removes variance instead of adding it."""

    def test_monte_carlo_matches_adjusted_covariance_and_not_kish(self):
        n, replications = 1000, 20000
        row = marg([0.5, 0.5])
        col = marg([0.5, 0.5])
        table = build_2x2_from_marginals_cpr(row, col, math.exp(4.0))
        adjusted = adjusted_marginal_covariance(table).entries[0, 0]
        plain = marginal_covariance(table).entries[0, 0]
        assert 1.0 - adjusted / plain > 0.5  # a large asymptotic reduction
        reps = replicate_marginal_estimates(table, col, n, replications, 2501, rows=(0,))
        assert not reps.excluded.any()
        x = reps.ptilde_rows[:, 0]
        variance = float(np.var(x, ddof=1))
        fourth = float(np.mean((x - x.mean()) ** 4))
        # n Var and the standard error of the sample variance, scaled by n.
        n_var = n * variance
        se = n * math.sqrt((fourth - variance * variance) / replications)
        assert abs(n_var - adjusted) <= 4 * se, (n_var, adjusted, se)
        # Kish's design effect n sum_j c_j^2 / N_j has expectation about 1 + (J - 1)/n.
        kish = (1.0 + (table.n_cols - 1) / n) * plain
        assert abs(kish - n_var) > 4 * se and kish > plain > n_var, (
            f"Kish's fixed-weight design effect predicts n Var = {kish:.4f}, more "
            f"than the plain {plain:.4f}, but the post-stratified estimate has "
            f"{n_var:.4f} +- {se:.4f}: fixed-weight reasoning gets the sign wrong here"
        )


class TestAdjustedRowMarginal:
    def test_sums_to_one_without_mask(self):
        table = random_joint(np.random.default_rng(23))
        target = column_marginal(table)
        adjusted = adjust_to_known_marginal(table, target)
        assert adjusted_row_marginal(adjusted).sum() == pytest.approx(1.0, abs=1e-12)

    def test_direct_values(self):
        adjusted = AdjustedTable(
            cells=np.array([[0.4, 0.1], [0.4, 0.1]]),
            known_col_marginal=marg([0.8, 0.2]),
            zero_column_mask=frozenset(),
        )
        np.testing.assert_allclose(adjusted_row_marginal(adjusted), [0.5, 0.5], atol=1e-15)

    def test_identity_supported_table_moves_all_mass(self):
        table = JointDistribution([[0.5, 0.0], [0.0, 0.5]])
        adjusted = adjust_to_known_marginal(table, marg([0.3, 0.7]))
        np.testing.assert_allclose(adjusted_row_marginal(adjusted), [0.3, 0.7], atol=1e-15)


class TestAdjustedTableValidation:
    def test_column_sum_mismatch_rejected(self):
        with pytest.raises(ValueError, match="column 0"):
            AdjustedTable(
                cells=np.array([[0.5, 0.1], [0.3, 0.1]]),
                known_col_marginal=marg([0.7, 0.3]),
                zero_column_mask=frozenset(),
            )

    def test_masked_column_must_be_zero(self):
        with pytest.raises(ValueError, match="masked column"):
            AdjustedTable(
                cells=np.array([[0.5, 0.1], [0.3, 0.1]]),
                known_col_marginal=marg([0.8, 0.2]),
                zero_column_mask=frozenset({1}),
            )


class TestIpf:
    def test_fixed_point_returns_immediately(self):
        table = bounded_random_joint(np.random.default_rng(29))
        result = ipf_fit(table, row_marginal(table), column_marginal(table))
        assert result.converged and result.iterations == 0
        assert result.table == table

    def test_column_step_equals_adjustment_bit_for_bit(self):
        rng = np.random.default_rng(31)
        for _ in range(100):
            table = random_joint(rng)
            target = 0.1 + rng.random(table.n_cols)
            target = marg(target / target.sum())
            step = ipf_column_step(table, target)
            assert np.array_equal(step, adjust_to_known_marginal(table, target).cells)

    def test_uniform_converges_in_one_iteration(self):
        table = JointDistribution(np.full((2, 2), 0.25))
        result = ipf_fit(table, marg([0.5, 0.5]), marg([0.5, 0.5]), tol=1e-10)
        assert result.converged and result.iterations <= 1
        np.testing.assert_allclose(result.table.cells, 0.25, atol=1e-15)

    def test_converges_to_both_targets(self):
        rng = np.random.default_rng(37)
        for _ in range(20):
            table = random_joint(rng)
            rows = 0.1 + rng.random(table.n_rows)
            cols = 0.1 + rng.random(table.n_cols)
            row_target = marg(rows / rows.sum())
            col_target = marg(cols / cols.sum())
            result = ipf_fit(table, row_target, col_target, tol=1e-12)
            assert result.converged
            fitted = result.table
            np.testing.assert_allclose(row_marginal(fitted).probs, row_target.probs, atol=1e-11)
            np.testing.assert_allclose(
                column_marginal(fitted).probs, col_target.probs, atol=1e-11
            )

    def test_zeros_and_ratios_preserved_every_iteration(self):
        cells = np.array([[0.3, 0.0, 0.1], [0.05, 0.25, 0.1], [0.05, 0.05, 0.1]])
        table = JointDistribution(cells)
        before = cross_product_ratios(table).ratios
        result = ipf_fit(
            table, marg([0.2, 0.5, 0.3]), marg([0.4, 0.35, 0.25]), max_iter=1
        )
        fitted = result.table
        assert fitted.cells[0, 1] == 0.0
        after = cross_product_ratios(fitted).ratios
        defined = np.isfinite(before)
        np.testing.assert_allclose(after[defined], before[defined], rtol=1e-12)

    def test_structurally_infeasible_rejected(self):
        table = JointDistribution([[0.0, 0.0], [0.5, 0.5]])
        with pytest.raises(ValueError, match="infeasible"):
            ipf_fit(table, marg([0.3, 0.7]), marg([0.5, 0.5]))

    def test_unconverged_flag_when_budget_too_small(self):
        table = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
        result = ipf_fit(table, marg([0.2, 0.8]), marg([0.7, 0.3]), max_iter=0)
        assert not result.converged and result.iterations == 0
        assert result.table == table

    def test_target_positivity_required(self):
        table = JointDistribution(np.full((2, 2), 0.25))
        with pytest.raises(ValueError, match="strictly positive"):
            ipf_fit(table, marg([1.0, 0.0]), marg([0.5, 0.5]))


class TestIpfTolerance:
    def test_non_finite_tol_rejected(self):
        table = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
        for tol in (float("nan"), float("inf")):
            with pytest.raises(ValueError, match="tol"):
                ipf_fit(table, marg([0.2, 0.8]), marg([0.7, 0.3]), tol=tol)

    def test_int_tol_beyond_double_range_rejected(self):
        table = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
        with pytest.raises(ValueError, match="tol must be finite"):
            ipf_fit(table, marg([0.2, 0.8]), marg([0.7, 0.3]), tol=10**400)

    def test_max_iter_and_tol_must_be_numbers(self):
        table = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
        rows, cols = marg([0.2, 0.8]), marg([0.7, 0.3])
        for max_iter in (2.5, True, "3", -1):
            with pytest.raises(ValueError, match="max_iter"):
                ipf_fit(table, rows, cols, max_iter=max_iter)
        for tol in ("1e-10", True, None):
            with pytest.raises(ValueError, match="tol"):
                ipf_fit(table, rows, cols, tol=tol)
        assert ipf_fit(table, rows, cols, max_iter=5.0) == ipf_fit(table, rows, cols, max_iter=5)


def deviation(cells, row_target, col_target):
    return max(
        float(np.abs(cells.sum(axis=1) - row_target.probs).max()),
        float(np.abs(cells.sum(axis=0) - col_target.probs).max()),
    )


def reference_ipf(init, row_target, col_target, tol, max_iter):
    """(cells, iterations, converged) from the IPF loop written out in full,
    summing both marginals afresh for every convergence test and step."""
    cells = init.cells
    rows, cols = row_target.probs, col_target.probs
    for iteration in range(max_iter + 1):
        if deviation(cells, row_target, col_target) < tol:
            return cells, iteration, True
        if iteration == max_iter:
            break
        col_sums = cells.sum(axis=0)
        cells = cells * np.divide(cols, col_sums, out=np.zeros_like(col_sums), where=col_sums > 0)
        cells = cells * (rows / cells.sum(axis=1))[:, None]
    return cells, max_iter, False


def random_ipf_problem(rng):
    table = random_joint(rng, max_dim=8)
    if rng.random() < 0.5:  # zero cells, each row and column keeping some mass
        cells = table.cells * (rng.random(table.dims) < 0.7)
        cells[np.arange(table.n_rows), rng.integers(table.n_cols, size=table.n_rows)] += 0.1
        cells[rng.integers(table.n_rows, size=table.n_cols), np.arange(table.n_cols)] += 0.1
        table = JointDistribution(cells / cells.sum())
    return (table, *random_targets(rng, table))


def random_targets(rng, table):
    rows = 0.05 + rng.random(table.n_rows)
    cols = 0.05 + rng.random(table.n_cols)
    return marg(rows / rows.sum()), marg(cols / cols.sum())


class TestIpfMatchesReference:
    @pytest.mark.parametrize("max_iter", [0, 1, 2, 7, 1000])
    @pytest.mark.parametrize("tol", [1e-3, 1e-10, 1e-300])
    def test_bit_for_bit(self, max_iter, tol):
        rng = np.random.default_rng(max_iter + 1000 * int(-np.log10(tol)))
        for _ in range(25):
            table, rows, cols = random_ipf_problem(rng)
            result = ipf_fit(table, rows, cols, tol=tol, max_iter=max_iter)
            cells, iterations, converged = reference_ipf(table, rows, cols, tol, max_iter)
            assert np.array_equal(result.table.cells, cells)
            assert (result.iterations, result.converged) == (iterations, converged)


class TestIpfMaxDeviation:
    def test_below_tol_when_converged(self):
        rng = np.random.default_rng(47)
        for _ in range(20):
            table = bounded_random_joint(rng)
            rows, cols = random_targets(rng, table)
            result = ipf_fit(table, rows, cols, tol=1e-10)
            assert result.converged
            assert result.max_deviation < 1e-10
            assert result.max_deviation == deviation(result.table.cells, rows, cols)

    def test_at_least_tol_when_not_converged(self):
        table = JointDistribution([[0.4, 0.1], [0.1, 0.4]])
        rows, cols = marg([0.2, 0.8]), marg([0.7, 0.3])
        result = ipf_fit(table, rows, cols, max_iter=0)
        assert not result.converged and result.max_deviation >= 1e-10
        assert result.max_deviation == deviation(table.cells, rows, cols)
        result = ipf_fit(table, rows, cols, tol=1e-300, max_iter=3)
        assert not result.converged and result.max_deviation >= 1e-300
        assert result.max_deviation == deviation(result.table.cells, rows, cols)

    def test_fixed_point_reads_zero(self):
        table = JointDistribution(np.full((2, 2), 0.25))
        result = ipf_fit(table, marg([0.5, 0.5]), marg([0.5, 0.5]))
        assert (result.iterations, result.max_deviation) == (0, 0.0)


class TestIpfBuffers:
    def test_two_fits_return_independent_tables(self):
        rng = np.random.default_rng(53)
        table = bounded_random_joint(rng, 4, 3)
        first = ipf_fit(table, *random_targets(rng, table))
        kept = first.table.cells.copy()
        second = ipf_fit(table, *random_targets(rng, table))
        assert np.array_equal(first.table.cells, kept)
        assert not np.shares_memory(first.table.cells, second.table.cells)

    @pytest.mark.parametrize("max_iter", [0, 1, 3, 1000])
    def test_init_is_untouched(self, max_iter):
        rng = np.random.default_rng(59 + max_iter)
        table, rows, cols = random_ipf_problem(rng)
        before = table.cells.copy()
        result = ipf_fit(table, rows, cols, max_iter=max_iter)
        assert np.array_equal(table.cells, before)
        assert not np.shares_memory(result.table.cells, table.cells)


class TestSubnormalColumnSum:
    """target / col_sum overflows for a subnormal column sum; that column is
    divided by its sum first, every other column keeps its scale."""

    CELLS = [[0.5, 1e-320, 1e-300, 0.0], [0.4999999999999999, 0.0, 0.0, 0.0]]

    def test_adjust_hits_the_marginal(self):
        table = JointDistribution(self.CELLS)
        known = marg([0.4, 0.3, 0.2, 0.1])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            adjusted = adjust_to_known_marginal(table, known)
        assert adjusted.zero_column_mask == {3}
        cells = np.array(self.CELLS)
        assert np.array_equal(adjusted.cells[:, 1], cells[:, 1] / 1e-320 * 0.3)
        for j in (0, 2):
            scale = known.probs[j] / cells[:, j].sum()
            assert np.array_equal(adjusted.cells[:, j], cells[:, j] * scale)
        assert np.array_equal(ipf_column_step(table, known), adjusted.cells)

    def test_ipf_converges(self):
        table = JointDistribution([row[:3] for row in self.CELLS])
        rows, cols = marg([0.6, 0.4]), marg([0.5, 0.3, 0.2])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            result = ipf_fit(table, rows, cols)
        assert result.converged
        assert result.max_deviation == deviation(result.table.cells, rows, cols)


class TestSubnormalRowSum:
    """rows / row_sum overflows for a subnormal row sum after the column
    step; the row step is the same guarded scaling, on the transpose."""

    @pytest.mark.parametrize(
        ("cells", "rows", "cols"),
        [
            ([[1e-320, 1e-320], [0.5, 0.5]], [0.5, 0.5], [0.5, 0.5]),
            ([[1.0], [1e-320], [5e-324]], [5e-324, 1.0, 1e-16], [1.0]),
        ],
    )
    def test_ipf_converges(self, cells, rows, cols):
        table = JointDistribution(cells)
        rows, cols = marg(rows), marg(cols)
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            result = ipf_fit(table, rows, cols)
        assert result.converged
        assert result.max_deviation == deviation(result.table.cells, rows, cols)

    def test_row_whose_mass_underflows_to_zero_is_infeasible(self):
        # The column step scales 5e-324 by 0.4 to 0; row 1 can never regain mass.
        table = JointDistribution([[0.5, 0.5], [5e-324, 0.0]])
        with np.errstate(over="raise", divide="raise", invalid="raise"):
            with pytest.raises(ValueError, match="underflowed to zero"):
                ipf_fit(table, marg([0.5, 0.5]), marg([0.2, 0.8]))


def subnormal_ipf_problem(rng):
    """A random table whose cells are zero, subnormal or ordinary, every row
    and column keeping a positive cell, with random positive targets."""
    shape = tuple(rng.integers(1, 6, size=2))
    kinds = rng.integers(3, size=shape)  # 0 zero, 1 subnormal, 2 ordinary
    kinds.flat[rng.integers(kinds.size)] = 2
    ordinary = rng.random(shape) * (kinds == 2)
    cells = ordinary / ordinary.sum() + rng.random(shape) * 1e-310 * (kinds == 1)
    for index in (
        (np.arange(shape[0]), rng.integers(shape[1], size=shape[0])),
        (rng.integers(shape[0], size=shape[1]), np.arange(shape[1])),
    ):
        cells[index] = np.maximum(cells[index], 5e-324)
    table = JointDistribution(cells)
    return (table, *random_targets(rng, table))


class TestIpfCellsStayFinite:
    """With both half-steps guarded, no finite table scales to an infinite or
    NaN cell, so the fit runs under the CLI's errstate without a
    floating-point fault. Its one refusal is a row or column whose every
    cell underflowed to zero."""

    def test_random_subnormal_tables(self):
        rng = np.random.default_rng(24)
        for _ in range(300):
            table, rows, cols = subnormal_ipf_problem(rng)
            tol, max_iter = 1e-10, int(rng.integers(0, 40))
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    result = ipf_fit(table, rows, cols, tol=tol, max_iter=max_iter)
            except ValueError as exc:
                assert "underflowed to zero" in str(exc)
                continue
            assert np.isfinite(result.table.cells).all()
            if result.converged:
                assert deviation(result.table.cells, rows, cols) < tol
            try:
                with np.errstate(over="raise", divide="raise", invalid="raise"):
                    cells, iterations, converged = reference_ipf(table, rows, cols, tol, max_iter)
            except FloatingPointError:
                continue
            assert np.array_equal(result.table.cells, cells)
            assert (result.iterations, result.converged) == (iterations, converged)


class TestWeightVectorUniform:
    def test_size_must_be_a_positive_integer(self):
        for n in (0, -1, 2.5, True, "3"):
            with pytest.raises(ValueError, match="^n must be"):
                WeightVector.uniform(n)
        assert WeightVector.uniform(4.0) == WeightVector([0.25] * 4)


class TestWeightingTakesPlainSequences:
    """A plain sequence becomes the value type, so a bad one is its ValueError."""

    def test_sequence_gives_the_value_type_result(self):
        xs = [1, 2, 2]
        by_type = weighted_frequencies(xs, WeightVector([0.5, 0.25, 0.25]))
        assert np.array_equal(weighted_frequencies(xs, [0.5, 0.25, 0.25]), by_type)
        by_type = cloned_frequencies(xs, CloneCounts([2, 1, 1]))
        assert np.array_equal(cloned_frequencies(xs, [2, 1, 1]), by_type)
        assert effective_sample_factor([0.75, 0.25]) == effective_sample_factor(
            WeightVector([0.75, 0.25])
        )

    def test_bad_sequence_is_the_value_type_error(self):
        with pytest.raises(ValueError, match="^weights must sum to 1"):
            weighted_frequencies([1, 2], [0.5, 0.6])
        with pytest.raises(ValueError, match="^clone counts must be >= 1$"):
            cloned_frequencies([1, 2], [1, 0])
        with pytest.raises(ValueError, match="^weights must be finite and >= 0$"):
            effective_sample_factor([1.5, -0.5])


class TestReachableChecks:
    TABLE = JointDistribution([[0.4, 0.1], [0.1, 0.4]])

    @pytest.mark.parametrize(
        ("rows", "cols"),
        [([0.2, 0.3, 0.5], [0.5, 0.5]), ([0.5, 0.5], [0.2, 0.3, 0.5]), ([1.0], [1.0])],
    )
    def test_ipf_targets_of_the_wrong_length(self, rows, cols):
        with pytest.raises(ValueError) as excinfo:
            ipf_fit(self.TABLE, marg(rows), marg(cols))
        assert str(excinfo.value) == "target marginal lengths must match the table dims"

    @pytest.mark.parametrize("cols", [[1.0], [0.2, 0.3, 0.5]])
    def test_column_step_target_of_the_wrong_length(self, cols):
        with pytest.raises(ValueError) as excinfo:
            ipf_column_step(self.TABLE, marg(cols))
        assert str(excinfo.value) == "target length must match the number of columns"

    @pytest.mark.parametrize("xs", [[], np.empty(0, dtype=np.int64), [[1, 2]]])
    def test_weighted_frequencies_without_observations(self, xs):
        with pytest.raises(ValueError) as excinfo:
            weighted_frequencies(xs, WeightVector.uniform(2))
        assert str(excinfo.value) == "observations must be a non-empty vector of category labels"

    def test_label_above_the_category_count(self):
        with pytest.raises(ValueError) as excinfo:
            weighted_frequencies([1, 4, 2], WeightVector.uniform(3), n_categories=3)
        assert str(excinfo.value) == "label 4 exceeds n_categories=3"
        with pytest.raises(ValueError, match="^label 2 exceeds n_categories=1$"):
            cloned_frequencies([1, 2], CloneCounts([1, 1]), n_categories=1.0)
