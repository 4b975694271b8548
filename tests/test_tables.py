import math
from fractions import Fraction

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
from margfit.simulation import _stream

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

    @pytest.mark.filterwarnings("error")
    def test_underflowed_product_flagged_without_warning(self):
        # c10 * c01 = 1e-400 underflows to zero: that ratio is undefined,
        # and the two others, whose products stay positive, are computed.
        c = np.array([[1e-200, 1e-200, 0.5], [1e-200, 0.25, 0.25]])
        result = cross_product_ratios(JointDistribution(c))
        assert result.undefined == {(0, 1, 0, 1)}
        assert np.isnan(result.ratios[0, 1, 0, 1])
        assert result.ratios[0, 1, 0, 2] == (c[0, 0] * c[1, 2]) / (c[1, 0] * c[0, 2])
        assert result.ratios[0, 1, 1, 2] == (c[0, 1] * c[1, 2]) / (c[1, 1] * c[0, 2])

    @pytest.mark.filterwarnings("error")
    def test_overflowed_quotient_flagged_without_warning(self):
        # The denominator 1e-160 * 1e-160 is subnormal but positive, and
        # 0.25 / 1e-320 overflows: that ratio is undefined, not inf.
        result = cross_product_ratios(JointDistribution([[0.5, 1e-160], [1e-160, 0.5]]))
        assert result.undefined == {(0, 1, 0, 1)}
        assert np.isnan(result.ratios[0, 1, 0, 1])
        # A subnormal numerator gives a finite positive ratio, which is kept.
        result = cross_product_ratios(JointDistribution([[1e-160, 0.5], [0.5, 1e-160]]))
        assert result.undefined == frozenset()
        assert result.ratios[0, 1, 0, 1] == (1e-160 * 1e-160) / (0.5 * 0.5)

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


def two_root_search(a, b, cpr):
    """The builder's earlier root search, kept as a reference: both roots of
    the quadratic, a search of the open Fréchet interval, a retry with 1e-12
    of slack and a sort of near ties. Returns the cells or raises as it did,
    ZeroDivisionError included."""
    if cpr == 1.0:
        return np.array([[a * b, a * (1.0 - b)], [(1.0 - a) * b, (1.0 - a) * (1.0 - b)]])

    def cpr_of(p):
        return p * (1.0 - a - b + p) / ((a - p) * (b - p))

    quad = 1.0 - cpr
    lin = 1.0 - a - b + cpr * (a + b)
    const = -cpr * a * b
    disc = lin * lin - 4.0 * quad * const
    if disc < 0.0:
        disc = 0.0
    q = -(lin + math.copysign(math.sqrt(disc), lin)) / 2.0
    roots = [q / quad, const / q]
    lo = max(0.0, a + b - 1.0)
    hi = min(a, b)
    inside = [p for p in roots if lo < p < hi]
    if not inside:
        inside = [p for p in roots if lo - 1e-12 <= p <= hi + 1e-12]
    if not inside:
        raise ValueError("no feasible table")
    if len(inside) == 2:
        inside.sort(key=lambda p: abs(cpr_of(p) - cpr))
    p11 = inside[0]
    cells = np.array([[p11, a - p11], [b - p11, 1.0 - a - b + p11]])
    if (cells <= 0.0).any():
        raise ValueError("too extreme")
    if abs(cpr_of(p11) - cpr) > 1e-9 * cpr:
        raise ValueError("misses cpr")
    return cells


def assert_exact_table(cells, a, b, cpr):
    """The float cells, read as exact rationals, have the requested
    marginals to 1e-15 and the requested cpr to 1e-9 relative."""
    p11, p12, p21, p22 = (Fraction(float(x)) for x in cells.ravel())
    assert min(p11, p12, p21, p22) > 0
    assert abs(p11 + p12 - Fraction(a)) <= Fraction(1e-15)
    assert abs(p11 + p21 - Fraction(b)) <= Fraction(1e-15)
    assert abs(p11 * p22 / (p12 * p21) / Fraction(cpr) - 1) <= Fraction(1e-9)


class TestBuildMatchesTwoRootSearch:
    # Marginals from 1e-12 to 1 - 1e-12; log cpr over [-700, 700] in steps of
    # 20, over [-40, 40] in steps of 2, and the case below that crashed.
    MARGINALS = (1e-12, 1e-9, 1e-6, 1e-3, 0.02, 0.2, 0.5, 0.8, 0.98)
    MARGINALS += tuple(1.0 - m for m in MARGINALS[:4])
    LOG_CPRS = np.unique(
        np.r_[np.linspace(-700, 700, 71), np.linspace(-40, 40, 41), 37.272715500598906]
    )

    def test_same_cells_or_a_value_error_on_a_fixed_grid(self):
        outcomes = {"same": 0, "both refuse": 0}
        for a in self.MARGINALS:
            row = marg([a, 1 - a], "row")
            for b in self.MARGINALS:
                col = marg([b, 1 - b], "column")
                for log_cpr in self.LOG_CPRS:
                    cpr = math.exp(log_cpr)
                    try:
                        want = two_root_search(a, b, cpr)
                    except (ValueError, ZeroDivisionError):
                        want = None
                    try:
                        got = build_2x2_from_marginals_cpr(row, col, cpr).cells
                    except ValueError:
                        got = None
                    assert (got is None) == (want is None), (a, b, log_cpr)
                    if want is None:
                        outcomes["both refuse"] += 1
                    else:
                        assert got.tobytes() == want.tobytes(), (a, b, log_cpr)
                        outcomes["same"] += 1
        # Both outcomes are well represented on the grid.
        assert min(outcomes.values()) > 5000

    def test_random_inputs_give_a_table_or_a_value_error(self):
        # Marginals log-uniform down to 1e-300, or up to within 1e-15 of 1, as
        # a library caller may pass them; any other exception fails the test.
        rng = np.random.default_rng(2024)
        built = 0
        for _ in range(3000):
            a, b = (
                10.0 ** -x if rng.random() < 0.5 else 1.0 - 10.0 ** -min(x, 15.0)
                for x in rng.uniform(0.0, 300.0, 2) ** rng.choice([1.0, 0.5])
            )
            cpr = math.exp(rng.uniform(-700.0, 700.0) * rng.choice([1.0, 0.05]))
            try:
                table = build_2x2_from_marginals_cpr(
                    marg([a, 1 - a], "row"), marg([b, 1 - b], "column"), cpr
                )
            except ValueError:
                continue
            assert_exact_table(table.cells, a, b, cpr)
            built += 1
        assert built > 300

    @pytest.mark.parametrize(
        ("a", "b", "cpr"),
        [
            # The root search divided by zero in its near-tie sort on the
            # first and in its final cpr check on the second.
            (0.98, 0.98, math.exp(37.272715500598906)),
            (3.13510375609085e-295, 1.698727734994505e-97, 6.982277865761945e98),
        ],
    )
    def test_inputs_the_root_search_crashed_on_raise_value_error(self, a, b, cpr):
        with pytest.raises(ZeroDivisionError):
            two_root_search(a, b, cpr)
        with pytest.raises(ValueError, match="too extreme for double precision"):
            build_2x2_from_marginals_cpr(marg([a, 1 - a], "row"), marg([b, 1 - b], "column"), cpr)

    def test_overflowed_quadratic_is_too_extreme(self):
        with pytest.raises(ValueError, match="too extreme for double precision"):
            build_2x2_from_marginals_cpr(
                marg([0.5, 0.5], "row"), marg([0.5, 0.5], "column"), 1e308
            )

    def test_a_table_the_near_tie_sort_refused_is_built(self):
        # a + b is just above 1 and cpr is tiny: both roots fell inside the
        # slack window, the sort kept the negative one and the cell check
        # refused it. The root inside the interval gives a valid table.
        a, b, cpr = 0.9999999999982968, 2.121890952889074e-12, 1.576478532102105e-17
        with pytest.raises(ValueError, match="too extreme"):
            two_root_search(a, b, cpr)
        table = build_2x2_from_marginals_cpr(
            marg([a, 1 - a], "row"), marg([b, 1 - b], "column"), cpr
        )
        assert_exact_table(table.cells, a, b, cpr)


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


class TestSampleDrawsFromThePackageStream:
    """``sample`` draws one multinomial from ``_stream(seed, ())``, the
    factory both Monte Carlo paths draw from, and from no other generator."""

    @pytest.mark.parametrize(
        "table, n, seed",
        [
            (SYMMETRIC_2X2, 100, 7),
            (random_joint(np.random.default_rng(11), n_rows=3, n_cols=4), 1000, 2**64 - 1),
            (JointDistribution([[0.5, 0.0, 0.25], [0.125, 0.125, 0.0]]), 10**6, 0),
        ],
    )
    def test_counts_are_one_multinomial_of_the_stream(self, table, n, seed):
        want = _stream(seed, ()).multinomial(n, table.cells.ravel())
        got = sample(table, n, seed).counts.ravel()
        assert got.dtype == want.dtype and np.array_equal(got, want)

    def test_counts_pinned(self):
        assert sample(SYMMETRIC_2X2, 100, 7).counts.tolist() == [[33, 11], [11, 45]]


class TestSampleSizeBeyondInt64:
    @pytest.mark.parametrize("n", [2**63, 1e19, np.uint64(2**63)])
    def test_refused_with_the_range_message(self, n):
        with pytest.raises(ValueError) as excinfo:
            sample(SYMMETRIC_2X2, n, seed=1)
        assert str(excinfo.value) == "sample size must lie in the int64 range"

    def test_seeds_keep_the_full_unsigned_range(self):
        assert sample(SYMMETRIC_2X2, 10, 2**64 - 1).total == 10


class TestPackageExports:
    def test_package_exports_each_module_list_in_order(self):
        import margfit
        from margfit import asymptotics, estimators, simulation, tables

        modules = (asymptotics, estimators, simulation, tables)
        assert margfit.__all__ == [name for module in modules for name in module.__all__]
        assert len(set(margfit.__all__)) == len(margfit.__all__)
        for module in modules:
            for name in module.__all__:
                assert getattr(margfit, name) is getattr(module, name)
