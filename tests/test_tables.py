import math

import numpy as np
import pytest

from helpers import bounded_random_joint, random_joint
from margfit import (
    CountTable,
    JointDistribution,
    MarginalDistribution,
    SampleBatch,
    build_2x2_from_marginals_cpr,
    column_marginal,
    cross_product_ratios,
    empirical_joint,
    row_marginal,
    sample,
)
from margfit.io import load_gidas_table3

SYMMETRIC_2X2 = JointDistribution([[0.375, 0.125], [0.125, 0.375]])


def marg(values, axis):
    return MarginalDistribution(values, axis=axis)


class TestValidation:
    def test_joint_rejects_negative_cells(self):
        with pytest.raises(ValueError, match=">= 0"):
            JointDistribution([[0.6, -0.1], [0.25, 0.25]])

    def test_joint_rejects_bad_total(self):
        with pytest.raises(ValueError, match="sum to 1"):
            JointDistribution([[0.5, 0.4], [0.05, 0.04]])

    def test_joint_rejects_empty_and_1d(self):
        with pytest.raises(ValueError):
            JointDistribution(np.zeros((0, 2)))
        with pytest.raises(ValueError):
            JointDistribution([0.5, 0.5])

    def test_joint_cells_are_immutable(self):
        table = JointDistribution([[0.5, 0.5]])
        with pytest.raises(ValueError):
            table.cells[0, 0] = 1.0

    def test_marginal_rejects_zero_sum_and_negative(self):
        with pytest.raises(ValueError):
            MarginalDistribution([0.6, 0.5], axis="row")
        with pytest.raises(ValueError):
            MarginalDistribution([1.2, -0.2], axis="row")

    def test_marginal_require_positive(self):
        with pytest.raises(ValueError, match="strictly positive"):
            MarginalDistribution([1.0, 0.0], axis="column").require_positive()

    def test_count_table_rejects_negative_and_fractional(self):
        with pytest.raises(ValueError):
            CountTable(np.array([[1, -1], [0, 2]]))
        with pytest.raises(ValueError):
            CountTable(np.array([[1.5, 0.5], [0.0, 0.0]]))

    def test_count_table_total(self):
        assert CountTable(np.array([[2, 3], [4, 1]])).total == 10

    def test_sample_batch_range_checks(self):
        with pytest.raises(ValueError, match="out of range"):
            SampleBatch(np.array([[1, 3]]), dims=(2, 2))
        batch = SampleBatch(np.array([[1, 1], [2, 2], [1, 1]]), dims=(2, 2))
        assert len(batch) == 3
        assert np.array_equal(batch.to_count_table().counts, [[2, 0], [0, 1]])


class TestMarginals:
    def test_row_marginal_symmetric_table(self):
        assert np.allclose(row_marginal(SYMMETRIC_2X2).probs, [0.5, 0.5], atol=1e-15)

    def test_row_marginal_single_row(self):
        table = JointDistribution([[0.2, 0.3, 0.5]])
        np.testing.assert_allclose(row_marginal(table).probs, [1.0], atol=1e-15)

    def test_row_marginal_matches_published_totals(self):
        # The bundled accident table's row shares, rounded to one decimal in %.
        joint = empirical_joint(load_gidas_table3())
        pct = np.round(100 * row_marginal(joint).probs, 1)
        np.testing.assert_array_equal(pct, [11.4, 32.4, 28.7, 15.2, 6.9, 3.0, 1.4, 0.9])

    def test_column_marginal_matches_published_totals(self):
        joint = empirical_joint(load_gidas_table3())
        np.testing.assert_array_equal(
            np.round(column_marginal(joint).probs, 3), [0.780, 0.208, 0.012]
        )

    def test_column_marginal_of_outer_product(self):
        a = np.array([0.3, 0.7])
        b = np.array([0.2, 0.5, 0.3])
        table = JointDistribution(np.outer(a, b))
        np.testing.assert_allclose(column_marginal(table).probs, b, atol=1e-15)

    def test_column_marginal_degenerate(self):
        np.testing.assert_array_equal(column_marginal(JointDistribution([[1.0]])).probs, [1.0])

    def test_axis_labels(self):
        assert row_marginal(SYMMETRIC_2X2).axis == "row"
        assert column_marginal(SYMMETRIC_2X2).axis == "column"


class TestEmpiricalJoint:
    def test_published_counts(self):
        joint = empirical_joint(load_gidas_table3())
        assert joint.cells[0, 0] == 346 / 3254

    def test_point_mass(self):
        joint = empirical_joint(CountTable(np.array([[1, 0], [0, 0]])))
        np.testing.assert_array_equal(joint.cells, [[1.0, 0.0], [0.0, 0.0]])

    def test_uniform(self):
        joint = empirical_joint(CountTable(np.full((2, 2), 2)))
        np.testing.assert_array_equal(joint.cells, np.full((2, 2), 0.25))

    def test_empty_table_rejected(self):
        with pytest.raises(ValueError, match="no observations"):
            empirical_joint(CountTable(np.zeros((2, 2), dtype=np.int64)))


class TestSample:
    def test_deterministic_for_fixed_seed(self):
        table = random_joint(np.random.default_rng(7))
        assert sample(table, 1234, seed=99) == sample(table, 1234, seed=99)

    def test_point_mass_lands_in_one_cell(self):
        table = JointDistribution([[0.0, 1.0], [0.0, 0.0]])
        counts = sample(table, 57, seed=3)
        assert counts.counts[0, 1] == 57 and counts.total == 57

    def test_total_equals_n(self):
        table = random_joint(np.random.default_rng(8))
        assert sample(table, 999, seed=5).total == 999

    def test_law_of_large_numbers_uniform(self):
        # Multinomial tail bound: 0.005 is ~11 standard errors at n=1e6.
        table = JointDistribution(np.full((2, 2), 0.25))
        counts = sample(table, 10**6, seed=2024)
        assert np.abs(counts.counts / 10**6 - 0.25).max() < 0.005

    def test_sampled_marginals_converge(self):
        # 3 standard errors per entry at n=1e6.
        table = random_joint(np.random.default_rng(11), n_rows=3, n_cols=4)
        n = 10**6
        joint = empirical_joint(sample(table, n, seed=515))
        for observed, expected in (
            (row_marginal(joint).probs, row_marginal(table).probs),
            (column_marginal(joint).probs, column_marginal(table).probs),
        ):
            se = np.sqrt(expected * (1 - expected) / n)
            assert (np.abs(observed - expected) <= 3 * se).all()

    def test_invalid_n_and_seed(self):
        with pytest.raises(ValueError):
            sample(SYMMETRIC_2X2, 0, seed=1)
        with pytest.raises(ValueError):
            sample(SYMMETRIC_2X2, 10, seed=-1)
        with pytest.raises(ValueError):
            sample(SYMMETRIC_2X2, 10, seed=2**64)


class TestCrossProductRatios:
    def test_symmetric_table_scalar(self):
        assert cross_product_ratios(SYMMETRIC_2X2).scalar == pytest.approx(9.0, abs=1e-12)

    def test_outer_product_ratios_are_one(self):
        rng = np.random.default_rng(21)
        a = 0.2 + rng.random(4)
        b = 0.2 + rng.random(3)
        table = JointDistribution(np.outer(a, b) / (a.sum() * b.sum()))
        ratios = cross_product_ratios(table).ratios
        defined = ratios[np.isfinite(ratios)]
        assert defined.size == 6 * 3  # C(4,2) * C(3,2)
        np.testing.assert_allclose(defined, 1.0, atol=1e-12)

    def test_zero_cell_flagged_not_raised(self):
        table = JointDistribution([[0.5, 0.0], [0.25, 0.25]])
        result = cross_product_ratios(table)
        assert (0, 1, 0, 1) in result.undefined
        assert np.isnan(result.ratios[0, 1, 0, 1])

    def test_scalar_requires_2x2(self):
        with pytest.raises(ValueError):
            cross_product_ratios(JointDistribution([[0.2, 0.3, 0.5]])).scalar


class TestBuild2x2:
    def test_independence(self):
        table = build_2x2_from_marginals_cpr(
            marg([0.5, 0.5], "row"), marg([0.5, 0.5], "column"), 1.0
        )
        np.testing.assert_array_equal(table.cells, np.full((2, 2), 0.25))

    def test_cpr_nine_feasible_root(self):
        # 8 p^2 - 9 p + 2.25 = 0 has roots 0.75 and 0.375; only 0.375 is feasible.
        table = build_2x2_from_marginals_cpr(
            marg([0.5, 0.5], "row"), marg([0.5, 0.5], "column"), 9.0
        )
        assert table.cells[0, 0] == pytest.approx(0.375, abs=1e-12)

    def test_product_table_for_skewed_marginals(self):
        table = build_2x2_from_marginals_cpr(
            marg([0.9, 0.1], "row"), marg([0.7, 0.3], "column"), 1.0
        )
        assert table.cells[0, 0] == pytest.approx(0.63, abs=1e-15)

    def test_invalid_cpr(self):
        row, col = marg([0.5, 0.5], "row"), marg([0.5, 0.5], "column")
        for bad in (0.0, -1.0, math.inf, math.nan):
            with pytest.raises(ValueError):
                build_2x2_from_marginals_cpr(row, col, bad)

    def test_degenerate_marginals_rejected(self):
        with pytest.raises(ValueError, match="non-degenerate"):
            build_2x2_from_marginals_cpr(
                marg([1.0, 0.0], "row"), marg([0.5, 0.5], "column"), 2.0
            )

    def test_wrong_length_rejected(self):
        with pytest.raises(ValueError, match="length 2"):
            build_2x2_from_marginals_cpr(
                marg([0.2, 0.3, 0.5], "row"), marg([0.5, 0.5], "column"), 2.0
            )

    def test_requested_marginals_and_cpr_over_grid(self):
        for a in (0.2, 0.5, 0.9):
            for b in (0.3, 0.5, 0.7):
                for log_cpr in np.linspace(-5.0, 5.0, 11):
                    cpr = math.exp(log_cpr)
                    table = build_2x2_from_marginals_cpr(
                        marg([a, 1 - a], "row"), marg([b, 1 - b], "column"), cpr
                    )
                    np.testing.assert_allclose(
                        row_marginal(table).probs, [a, 1 - a], atol=1e-12
                    )
                    np.testing.assert_allclose(
                        column_marginal(table).probs, [b, 1 - b], atol=1e-12
                    )
                    assert cross_product_ratios(table).scalar == pytest.approx(
                        cpr, abs=1e-10, rel=1e-10
                    )

    def test_round_trip_from_existing_table(self):
        # build(row, col, cpr) recovers any positive 2x2 table to 1e-10.
        rng = np.random.default_rng(31)
        for _ in range(50):
            original = bounded_random_joint(rng, n_rows=2, n_cols=2)
            rebuilt = build_2x2_from_marginals_cpr(
                row_marginal(original),
                column_marginal(original),
                cross_product_ratios(original).scalar,
            )
            np.testing.assert_allclose(rebuilt.cells, original.cells, atol=1e-10)


class TestSampleRefusesTruncation:
    def test_fractional_or_bool_n(self):
        for n in (2.5, True):
            with pytest.raises(ValueError, match="sample size"):
                sample(SYMMETRIC_2X2, n, seed=1)

    def test_fractional_or_bool_seed(self):
        for seed in (1.5, True, "3"):
            with pytest.raises(ValueError, match="seed"):
                sample(SYMMETRIC_2X2, 10, seed=seed)

    def test_integral_float_and_numpy_values_accepted(self):
        assert sample(SYMMETRIC_2X2, 10.0, np.uint64(3)) == sample(SYMMETRIC_2X2, 10, 3)
