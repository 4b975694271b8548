"""The value contract shared by margfit's array-holding types.

Each type compares field by field (arrays by shape and entries, NaN equal to
NaN), is unhashable, and refuses each single fault in its input with one
fixed message.
"""

import numpy as np
import pytest

from margfit import (
    AdjustedTable,
    CloneCounts,
    CountTable,
    CovarianceMatrix,
    CrossProductRatios,
    JointDistribution,
    MarginalDistribution,
    SampleBatch,
    WeightVector,
    cross_product_ratios,
)

NAN = float("nan")
INF = float("inf")


def joint(cells):
    return JointDistribution(cells)


def row(probs):
    return MarginalDistribution(probs, axis="row")


def pairs(labels):
    return SampleBatch(labels, dims=(2, 2))


def adjusted(cells, known, mask=()):
    return AdjustedTable(
        cells=cells,
        known_col_marginal=MarginalDistribution(known, axis="column"),
        zero_column_mask=frozenset(mask),
    )


def halves(cells):
    return adjusted(cells, [0.5, 0.5])


# name -> (factory of the reference value, variants that differ from it in
# one respect: an entry, the shape, the axis or the dims)
EQUALITY_CASES = {
    "JointDistribution": (
        lambda: joint([[0.25, 0.25], [0.25, 0.25]]),
        [
            lambda: joint([[0.5, 0.0], [0.25, 0.25]]),
            lambda: joint([[0.25, 0.25, 0.25, 0.25]]),
        ],
    ),
    "MarginalDistribution": (
        lambda: MarginalDistribution([0.5, 0.5], axis="row"),
        [
            lambda: MarginalDistribution([0.25, 0.75], axis="row"),
            lambda: MarginalDistribution([0.25, 0.25, 0.5], axis="row"),
            lambda: MarginalDistribution([0.5, 0.5], axis="column"),
        ],
    ),
    "WeightVector": (
        lambda: WeightVector([0.5, 0.5]),
        [
            lambda: WeightVector([0.25, 0.75]),
            lambda: WeightVector([0.25, 0.25, 0.5]),
        ],
    ),
    "CountTable": (
        lambda: CountTable([[1, 2], [3, 4]]),
        [
            lambda: CountTable([[1, 2], [3, 5]]),
            lambda: CountTable([[1, 2, 3, 4]]),
        ],
    ),
    "CloneCounts": (
        lambda: CloneCounts([1, 2, 3]),
        [
            lambda: CloneCounts([1, 2, 4]),
            lambda: CloneCounts([1, 2, 3, 1]),
        ],
    ),
    "SampleBatch": (
        lambda: SampleBatch([[1, 1], [2, 2]], dims=(2, 2)),
        [
            lambda: SampleBatch([[1, 2], [2, 2]], dims=(2, 2)),
            lambda: SampleBatch([[1, 1], [2, 2], [1, 1]], dims=(2, 2)),
            lambda: SampleBatch([[1, 1], [2, 2]], dims=(2, 3)),
        ],
    ),
    "CrossProductRatios": (
        # Every position outside i<r, j<s is NaN, so equality needs NaN == NaN.
        lambda: cross_product_ratios(joint([[0.375, 0.125], [0.125, 0.375]])),
        [
            lambda: cross_product_ratios(joint([[0.25, 0.25], [0.25, 0.25]])),
            lambda: cross_product_ratios(joint([[0.25, 0.125, 0.125], [0.125, 0.125, 0.25]])),
            lambda: cross_product_ratios(joint([[0.5, 0.0], [0.25, 0.25]])),
        ],
    ),
    "AdjustedTable": (
        lambda: adjusted([[0.25, 0.25], [0.25, 0.25]], [0.5, 0.5]),
        [
            lambda: adjusted([[0.375, 0.125], [0.125, 0.375]], [0.5, 0.5]),
            lambda: adjusted([[0.25, 0.25], [0.125, 0.125], [0.125, 0.125]], [0.5, 0.5]),
            lambda: adjusted([[0.3, 0.2], [0.3, 0.2]], [0.6, 0.4]),
            lambda: adjusted([[0.5, 0.0], [0.25, 0.0]], [0.75, 0.25], mask=[1]),
        ],
    ),
    "CovarianceMatrix": (
        lambda: CovarianceMatrix([[0.25, -0.25], [-0.25, 0.25]]),
        [
            lambda: CovarianceMatrix([[0.16, -0.16], [-0.16, 0.16]]),
            lambda: CovarianceMatrix(
                np.diag([0.25, 0.25, 0.5]) - np.outer([0.25, 0.25, 0.5], [0.25, 0.25, 0.5])
            ),
        ],
    ),
}


@pytest.mark.parametrize("name", sorted(EQUALITY_CASES))
class TestEquality:
    def test_equal_copy_compares_equal(self, name):
        make, _ = EQUALITY_CASES[name]
        x, y = make(), make()
        assert x is not y
        assert x == y
        assert not (x != y)

    def test_one_changed_respect_compares_unequal(self, name):
        make, variants = EQUALITY_CASES[name]
        x = make()
        for variant in variants:
            other = variant()
            assert x != other
            assert not (x == other)
            assert other != x

    def test_other_types_are_not_implemented(self, name):
        make, _ = EQUALITY_CASES[name]
        x = make()
        assert x.__eq__(object()) is NotImplemented
        assert x != object()

    def test_unhashable(self, name):
        make, _ = EQUALITY_CASES[name]
        with pytest.raises(TypeError):
            hash(make())


# (constructor, argument, the exact message); one fault per input.
ERROR_CASES = [
    # JointDistribution
    (joint, [0.5, 0.5], "cells must form a non-empty 2-d table"),
    (joint, np.zeros((0, 2)), "cells must form a non-empty 2-d table"),
    (joint, [[NAN, 0.5], [0.25, 0.25]], "cell probabilities must be finite and >= 0"),
    (joint, [[INF, 0.5], [0.25, 0.25]], "cell probabilities must be finite and >= 0"),
    (joint, [[0.6, -0.1], [0.25, 0.25]], "cell probabilities must be finite and >= 0"),
    (joint, [[0.5, 0.25], [0.125, 0.0625]], "cell probabilities must sum to 1, got 0.9375"),
    # MarginalDistribution
    (row, [[0.5, 0.5]], "marginal must be a non-empty vector"),
    (row, [], "marginal must be a non-empty vector"),
    (row, [NAN, 1.0], "marginal entries must be finite and >= 0"),
    (row, [1.5, -0.5], "marginal entries must be finite and >= 0"),
    (row, [0.5, 0.25], "marginal entries must sum to 1, got 0.75"),
    (
        lambda axis: MarginalDistribution([0.5, 0.5], axis=axis),
        "diag",
        "axis must be 'row' or 'column', got 'diag'",
    ),
    # WeightVector
    (WeightVector, [[0.5, 0.5]], "weights must be a non-empty vector"),
    (WeightVector, [], "weights must be a non-empty vector"),
    (WeightVector, [INF, 0.0], "weights must be finite and >= 0"),
    (WeightVector, [1.5, -0.5], "weights must be finite and >= 0"),
    (WeightVector, [0.5, 0.25], "weights must sum to 1, got 0.75"),
    # CountTable
    (CountTable, [1, 2], "counts must form a non-empty 2-d table"),
    (CountTable, np.zeros((2, 0), dtype=np.int64), "counts must form a non-empty 2-d table"),
    (CountTable, [[1.5, 0.0]], "counts must be integers"),
    (CountTable, [[NAN, 1.0]], "counts must be integers"),
    (CountTable, [[1, -1]], "counts must be >= 0"),
    (CountTable, [[2**63 - 1, 1]], f"count total {2**63} exceeds the int64 range"),
    # CloneCounts
    (CloneCounts, [[1, 2]], "clone counts must be a non-empty vector"),
    (CloneCounts, [], "clone counts must be a non-empty vector"),
    (CloneCounts, [1.5, 2.0], "clone counts must be integers"),
    (CloneCounts, [INF, 1.0], "clone counts must be integers"),
    (CloneCounts, [0, 1], "clone counts must be >= 1"),
    (CloneCounts, [-1, 1], "clone counts must be >= 1"),
    # SampleBatch
    (pairs, [1, 2], "pairs must be an (n, 2) array of category labels"),
    (pairs, [[1, 2, 1]], "pairs must be an (n, 2) array of category labels"),
    (pairs, [[0, 1]], "pair labels out of range for the given dims"),
    (pairs, [[1, 3]], "pair labels out of range for the given dims"),
    (lambda v: SampleBatch([[1, 1]], dims=v), (0, 2), "dims must be positive"),
    # AdjustedTable
    (halves, [0.5, 0.5], "cells must form a non-empty 2-d table"),
    (halves, [[NAN, 0.25], [0.25, 0.25]], "cells must be finite and >= 0"),
    (halves, [[0.75, 0.5], [-0.25, 0.0]], "cells must be finite and >= 0"),
    (
        lambda v: adjusted(v, [0.25, 0.25, 0.5]),
        [[0.25, 0.25], [0.25, 0.25]],
        "known marginal length must match the number of columns",
    ),
    (
        lambda mask: adjusted([[0.5, 0.0], [0.25, 0.0]], [0.75, 0.25], mask=mask),
        [2],
        "zero_column_mask indices out of range",
    ),
    (
        lambda v: adjusted(v, [0.75, 0.25], mask=[1]),
        [[0.5, 0.125], [0.25, 0.0]],
        "masked column 1 must be all zero",
    ),
    (
        halves,
        [[0.5, 0.25], [0.25, 0.25]],
        # The column sums appear with numpy's repr of a float64 scalar.
        f"column 0 sums to {np.float64(0.75)!r}, expected {np.float64(0.5)!r}",
    ),
    # CovarianceMatrix
    (CovarianceMatrix, [0.0, 0.0], "covariance must be a non-empty square matrix"),
    (CovarianceMatrix, [[0.25, -0.25]], "covariance must be a non-empty square matrix"),
    (CovarianceMatrix, np.zeros((0, 0)), "covariance must be a non-empty square matrix"),
    (CovarianceMatrix, [[NAN, 0.0], [0.0, 0.0]], "covariance entries must be finite"),
    (CovarianceMatrix, [[0.25, -0.25], [-0.24, 0.24]], "covariance must be symmetric"),
    (CovarianceMatrix, [[-1.0, 1.0], [1.0, -1.0]], "covariance must be positive semi-definite"),
    (CovarianceMatrix, [[1.0, 0.0], [0.0, 1.0]], "covariance rows must sum to zero"),
    # Integer inputs are checked before the int64 cast: nothing is truncated
    # or wrapped, and no cast warns.
    (CountTable, np.array([[2**63, 1]], dtype=np.uint64), "counts must lie in the int64 range"),
    (CountTable, [[1e19, 1]], "counts must lie in the int64 range"),
    (CountTable, [[-1e19, 1]], "counts must lie in the int64 range"),
    (CountTable, [["1", "2"]], "counts must be integers"),
    (CloneCounts, [1e19, 1.0], "clone counts must lie in the int64 range"),
    (pairs, [[1.9, 1], [2, 2.5]], "pair labels must be integers"),
    (pairs, [[NAN, 1]], "pair labels must be integers"),
    (pairs, [[1e19, 1]], "pair labels must lie in the int64 range"),
]


@pytest.mark.parametrize(("make", "value", "message"), ERROR_CASES)
def test_single_fault_message(make, value, message):
    with pytest.raises(ValueError) as excinfo:
        make(value)
    assert str(excinfo.value) == message


def test_cross_product_ratios_are_read_only():
    ratios = CrossProductRatios(ratios=np.ones((2, 2, 2, 2)), undefined=[])
    assert ratios.undefined == frozenset()
    with pytest.raises(ValueError):
        ratios.ratios[0, 1, 0, 1] = 2.0


def test_sample_batch_keeps_integral_float_labels_and_empty_batches():
    assert pairs([[1.0, 2.0], [2.0, 1.0]]) == pairs([[1, 2], [2, 1]])
    for empty in (np.empty((0, 2)), np.empty((0, 2), dtype=np.int64)):
        batch = pairs(empty)
        assert len(batch) == 0
        assert batch.to_count_table().total == 0
