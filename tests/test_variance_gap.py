"""The covariance gap in closed form: symmetric in bits, never negative, and
within a derived rounding bound of 0 on outer-product tables."""

import contextlib
import io

import numpy as np
import pytest

import margfit.asymptotics as asymptotics
from helpers import gamma, outer_product_table, random_joint
from margfit import (
    JointDistribution,
    adjusted_marginal_covariance,
    asymptotic_reduction,
    variance_gap,
)
from margfit.cli import main
from margfit.io import parse_grid_csv_text


def generated_tables(rng, count):
    """``count`` tables with I, J in 2..6, alternately dependent (uniform
    cells) and outer products, where the gap is zero up to rounding."""
    for k in range(count):
        rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
        yield random_joint(rng, rows, cols) if k % 2 else outer_product_table(rng, rows, cols)


class TestSignAndSymmetryInBits:
    def test_adjusted_covariance_is_symmetric_and_reductions_are_nonnegative(self):
        for table in generated_tables(np.random.default_rng(2701), 2000):
            adjusted = adjusted_marginal_covariance(table).entries
            assert np.array_equal(adjusted, adjusted.T)
            for row in range(table.n_rows):
                assert asymptotic_reduction(table, row) >= 0.0

    def test_gap_is_symmetric_with_a_nonnegative_diagonal(self):
        for table in generated_tables(np.random.default_rng(2702), 500):
            gap = variance_gap(table)
            assert np.array_equal(gap, gap.T) and (gap.diagonal() >= 0.0).all()


class TestOuterProductGapBound:
    def test_gap_diagonal_within_rounding_of_zero(self):
        # The table is fl(a_i b_j) with a = v / fl(sum v), and b likewise, so
        # A = sum a and B = sum b lie within gamma_I and gamma_J of 1. With
        # theta_k any factor within gamma_k of 1, variance_gap computes
        #   col_j = b_j A theta_I, row_r = a_r B theta_J,
        #   p(r|j) = (a_r / A) theta_(I+2),
        # and d_rj = p(r|j) - row_r exactly (the two lie within a factor 2 of
        # each other), so |d_rj| <= a_r g with
        #   g = |1/A - B| + gamma_(I+2) / A + gamma_J B.
        # e_rj^2 = d_rj^2 col_j rounds 4 times (sqrt, product, both squared),
        # its square once more and J of them add in J - 1 roundings, so
        #   gap_rr <= theta_(J+4) (a_r g)^2 sum_j col_j,
        # with sum_j col_j <= A B theta_I.
        rng = np.random.default_rng(2703)
        for _ in range(2000):
            rows, cols = int(rng.integers(2, 7)), int(rng.integers(2, 7))
            v, w = 0.3 + rng.random(rows), 0.3 + rng.random(cols)
            a, b = v / v.sum(), w / w.sum()
            table = JointDistribution(np.outer(a, b))
            inv_a, big_a, big_b = 1 / (1 - gamma(rows)), 1 + gamma(rows), 1 + gamma(cols)
            g = (inv_a - 1 + gamma(cols)) + gamma(rows + 2) * inv_a + gamma(cols) * big_b
            bound = (a * g) ** 2 * big_a * big_b * (1 + gamma(rows)) * (1 + gamma(cols + 4))
            diagonal = variance_gap(table).diagonal()
            assert (diagonal >= 0.0).all() and (diagonal <= bound).all(), (diagonal, bound)


class TestAsymptoticReductionReadsTheGap:
    def test_builds_no_covariance_matrix(self, monkeypatch):
        built = []
        validate = asymptotics.CovarianceMatrix.__post_init__

        def counting(self):
            built.append(self.entries.shape)
            validate(self)

        monkeypatch.setattr(asymptotics.CovarianceMatrix, "__post_init__", counting)
        table = random_joint(np.random.default_rng(2704), 5, 4)
        for row in range(table.n_rows):
            asymptotic_reduction(table, row)
        assert built == []

    @pytest.mark.parametrize(
        "row, message",
        [
            (True, "row must be an integer, got True"),
            (1.5, "row must be an integer, got 1.5"),
            ("0", "row must be an integer, got '0'"),
            (None, "row must be an integer, got None"),
            (-1, "row must be >= 0"),
            (2, "row index 2 out of range"),
            (2**70, "row must lie in the int64 range"),
        ],
    )
    def test_row_is_checked_as_every_index(self, row, message):
        table = JointDistribution([[0.375, 0.125], [0.125, 0.375]])
        with pytest.raises(ValueError) as excinfo:
            asymptotic_reduction(table, row)
        assert str(excinfo.value) == message

    def test_integral_rows_of_any_number_type_agree(self):
        table = random_joint(np.random.default_rng(2705), 3, 4)
        expected = asymptotic_reduction(table, 1)
        assert asymptotic_reduction(table, np.int64(1)) == expected
        assert asymptotic_reduction(table, 1.0) == expected


@pytest.mark.parametrize("case", ["I", "II", "III"])
def test_bundled_simulate_prints_no_negative_asymptotic_pct(tmp_path, monkeypatch, case):
    # The asymptotic value does not depend on the replications.
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(["simulate", "--config", f"case{case}.json", "--replications", "2"])
    assert code == 0
    cells = parse_grid_csv_text(out.getvalue()).cells
    assert len(cells) == 100
    assert all(cell.asymptotic_pct >= 0.0 for cell in cells)
