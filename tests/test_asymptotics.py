import numpy as np
import pytest

from helpers import dependent_table, outer_product_table, random_joint
from margfit import (
    CovarianceMatrix,
    JointDistribution,
    WeightVector,
    adjusted_marginal_covariance,
    chi2_reduction_bound,
    effective_sample_factor,
    expected_conditional_covariance,
    marginal_covariance,
    multinomial_covariance,
    variance_gap_quadratic,
)

SYMMETRIC_2X2 = JointDistribution([[0.375, 0.125], [0.125, 0.375]])


class TestMultinomialCovariance:
    def test_fair_coin(self):
        np.testing.assert_allclose(
            multinomial_covariance([0.5, 0.5]).entries,
            [[0.25, -0.25], [-0.25, 0.25]],
            atol=1e-15,
        )

    def test_degenerate_distribution(self):
        np.testing.assert_array_equal(
            multinomial_covariance([1.0, 0.0]).entries, np.zeros((2, 2))
        )

    def test_skewed(self):
        np.testing.assert_allclose(
            multinomial_covariance([0.9, 0.1]).entries,
            [[0.09, -0.09], [-0.09, 0.09]],
            atol=1e-15,
        )

    def test_marginal_covariance_composes(self):
        table = random_joint(np.random.default_rng(2))
        rows = table.cells.sum(axis=1)
        assert marginal_covariance(table) == multinomial_covariance(rows)


class TestAdjustedCovariance:
    def test_equals_plain_for_independent_tables(self):
        table = outer_product_table(np.random.default_rng(3), 3, 4)
        gap = marginal_covariance(table).entries - adjusted_marginal_covariance(table).entries
        assert np.abs(gap).max() < 1e-12

    def test_hand_computed_diagonal(self):
        # 0.5 - (0.375^2 + 0.125^2) / 0.5 = 0.1875
        assert adjusted_marginal_covariance(SYMMETRIC_2X2).entries[0, 0] == pytest.approx(
            0.1875, abs=1e-15
        )

    def test_point_mass_column_contributes_nothing(self):
        # Column 0 determines the row, so only column 1 carries conditional variance.
        cells = np.array([[0.4, 0.3], [0.0, 0.3]])
        table = JointDistribution(cells)
        adjusted = adjusted_marginal_covariance(table).entries
        sub = JointDistribution(cells[:, 1:] / cells[:, 1:].sum())
        sub_adjusted = adjusted_marginal_covariance(sub).entries
        np.testing.assert_allclose(adjusted, 0.6 * sub_adjusted, atol=1e-15)

    def test_zero_column_marginal_rejected(self):
        table = JointDistribution([[0.5, 0.0], [0.5, 0.0]])
        with pytest.raises(ValueError, match="column marginals"):
            adjusted_marginal_covariance(table)
        with pytest.raises(ValueError, match="column marginals"):
            expected_conditional_covariance(table)


class TestConditionalCovarianceOracle:
    def test_matches_closed_form_on_random_tables(self):
        rng = np.random.default_rng(5)
        for _ in range(300):
            table = random_joint(rng)
            closed = adjusted_marginal_covariance(table).entries
            enumerated = expected_conditional_covariance(table).entries
            assert np.abs(closed - enumerated).max() < 1e-12

    def test_independent_table_reduces_to_plain(self):
        table = outer_product_table(np.random.default_rng(7), 4, 3)
        enumerated = expected_conditional_covariance(table).entries
        plain = marginal_covariance(table).entries
        assert np.abs(enumerated - plain).max() < 1e-12

    def test_hand_computed_value(self):
        assert expected_conditional_covariance(SYMMETRIC_2X2).entries[0, 0] == pytest.approx(
            0.1875, abs=1e-15
        )


class TestVarianceGapQuadratic:
    def test_constant_direction_gives_zero(self):
        table = random_joint(np.random.default_rng(11))
        gap, direct = variance_gap_quadratic(table, np.full(table.n_rows, 3.7))
        assert abs(gap) < 1e-12 and abs(direct) < 1e-12

    def test_independent_table_gives_zero(self):
        table = outer_product_table(np.random.default_rng(13), 3, 3)
        gap, direct = variance_gap_quadratic(table, [1.0, -0.5, 0.25])
        assert abs(gap) < 1e-12 and abs(direct) < 1e-12

    def test_hand_computed_direction(self):
        gap, direct = variance_gap_quadratic(SYMMETRIC_2X2, [1.0, 0.0])
        assert gap == pytest.approx(0.0625, abs=1e-12)
        assert direct == pytest.approx(0.0625, abs=1e-12)

    def test_identity_on_random_pairs(self):
        rng = np.random.default_rng(17)
        for _ in range(300):
            table = random_joint(rng)
            c = rng.uniform(-1.0, 1.0, table.n_rows)
            gap, direct = variance_gap_quadratic(table, c)
            assert abs(gap - direct) < 1e-12
            assert gap >= -1e-12 and direct >= -1e-12

    def test_law_of_total_variance_per_row(self):
        # Diagonal gaps equal the variance of the conditional row indicator.
        rng = np.random.default_rng(19)
        for _ in range(100):
            table = random_joint(rng)
            plain = marginal_covariance(table).entries
            adjusted = adjusted_marginal_covariance(table).entries
            for i in range(table.n_rows):
                basis = np.zeros(table.n_rows)
                basis[i] = 1.0
                _, direct = variance_gap_quadratic(table, basis)
                assert abs((plain[i, i] - adjusted[i, i]) - direct) < 1e-12

    def test_length_mismatch(self):
        with pytest.raises(ValueError, match="length"):
            variance_gap_quadratic(SYMMETRIC_2X2, [1.0, 0.0, 0.0])


class TestOrderingAndEquality:
    def test_gap_matrix_is_positive_semidefinite(self):
        rng = np.random.default_rng(23)
        for _ in range(300):
            table = random_joint(rng)
            gap = (
                marginal_covariance(table).entries
                - adjusted_marginal_covariance(table).entries
            )
            assert float(np.linalg.eigvalsh(gap).min()) >= -1e-10

    def test_equality_holds_exactly_for_independence(self):
        rng = np.random.default_rng(29)
        for _ in range(50):
            table = outer_product_table(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            gap = (
                marginal_covariance(table).entries
                - adjusted_marginal_covariance(table).entries
            )
            assert np.abs(gap).max() < 1e-12

    def test_dependence_forces_a_visible_gap(self):
        rng = np.random.default_rng(31)
        for _ in range(50):
            table = dependent_table(rng, int(rng.integers(2, 7)), int(rng.integers(2, 7)))
            gap = (
                marginal_covariance(table).entries
                - adjusted_marginal_covariance(table).entries
            )
            assert np.abs(gap).max() > 1e-6


class TestChi2ReductionBound:
    def test_independent_table_is_zero(self):
        table = outer_product_table(np.random.default_rng(37), 3, 4)
        assert chi2_reduction_bound(table) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_symmetric(self):
        assert chi2_reduction_bound(SYMMETRIC_2X2) == pytest.approx(0.25, abs=1e-14)

    def test_hand_computed_near_diagonal(self):
        table = JointDistribution([[0.49, 0.01], [0.01, 0.49]])
        assert chi2_reduction_bound(table) == pytest.approx(0.9216, abs=1e-13)

    def test_bounds_total_relative_reduction(self):
        rng = np.random.default_rng(41)
        for _ in range(200):
            table = random_joint(rng)
            plain = marginal_covariance(table).entries
            adjusted = adjusted_marginal_covariance(table).entries
            diag = np.diag(plain)
            total_reduction = float(((diag - np.diag(adjusted)) / diag).sum())
            assert total_reduction >= chi2_reduction_bound(table) - 1e-10

    def test_zero_marginal_rejected(self):
        with pytest.raises(ValueError, match="> 0"):
            chi2_reduction_bound(JointDistribution([[0.5, 0.5], [0.0, 0.0]]))

    def test_zero_cell_with_underflowed_expected_value_adds_nothing(self):
        # r_2 * c_2 = 0.333... * 5e-324 underflows to 0 where p_22 = 0.
        table = JointDistribution([[0.6666666666666666, 5e-324], [0.3333333333333333, 0.0]])
        with np.errstate(divide="raise", invalid="raise"):
            assert chi2_reduction_bound(table) == 0.0

    def test_positive_expected_cells_keep_the_plain_sum(self):
        rng = np.random.default_rng(43)
        for _ in range(100):
            table = random_joint(rng, max_dim=8)
            expected = np.outer(table.cells.sum(axis=1), table.cells.sum(axis=0))
            plain = float(((table.cells - expected) ** 2 / expected).sum())
            assert chi2_reduction_bound(table) == plain


class TestEffectiveSampleFactor:
    def test_uniform_weights(self):
        assert effective_sample_factor(WeightVector.uniform(100)) == pytest.approx(
            0.01, abs=1e-15
        )

    def test_single_effective_observation(self):
        assert effective_sample_factor(WeightVector([1.0, 0.0, 0.0])) == 1.0

    def test_direct_value(self):
        assert effective_sample_factor(WeightVector([0.5, 0.25, 0.25])) == pytest.approx(
            0.375, abs=1e-15
        )

    def test_lower_bound_with_equality_only_at_uniform(self):
        rng = np.random.default_rng(43)
        for _ in range(300):
            n = int(rng.integers(2, 200))
            w = rng.random(n) + 1e-3
            factor = effective_sample_factor(WeightVector(w / w.sum()))
            assert factor > 1.0 / n
        assert effective_sample_factor(WeightVector.uniform(64)) == pytest.approx(
            1.0 / 64, abs=1e-16
        )


class TestCovarianceMatrixValidation:
    def test_asymmetric_rejected(self):
        with pytest.raises(ValueError, match="symmetric"):
            CovarianceMatrix(np.array([[0.25, -0.2], [-0.3, 0.25]]))

    def test_indefinite_rejected(self):
        with pytest.raises(ValueError, match="semi-definite"):
            CovarianceMatrix(np.array([[-1.0, 1.0], [1.0, -1.0]]))

    def test_nonzero_row_sums_rejected(self):
        with pytest.raises(ValueError, match="sum to zero"):
            CovarianceMatrix(np.eye(2))

    def test_valid_matrix_accepted(self):
        m = CovarianceMatrix(np.array([[0.25, -0.25], [-0.25, 0.25]]))
        assert m.dim == 2
