"""The value contract shared by margfit's array-holding types.

Each type compares field by field (arrays by shape and entries, NaN equal to
NaN), is unhashable, and refuses each single fault in its input with one
fixed message.
"""

import dataclasses

import numpy as np
import pytest

import margfit
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
    ipf_fit,
    replicate_marginal_estimates,
    tables,
)

NAN = float("nan")
INF = float("inf")


def joint(cells):
    return JointDistribution(cells)


def row(probs):
    return MarginalDistribution(probs)


def pairs(labels):
    return SampleBatch(labels, dims=(2, 2))


def adjusted(cells, known, mask=()):
    return AdjustedTable(
        cells=cells,
        known_col_marginal=MarginalDistribution(known),
        zero_column_mask=frozenset(mask),
    )


def halves(cells):
    return adjusted(cells, [0.5, 0.5])


def fit(row_target, max_iter=1000):
    init = joint([[0.375, 0.125], [0.125, 0.375]])
    return ipf_fit(init, row(row_target), row([0.5, 0.5]), max_iter=max_iter)


# name -> (factory of the reference value, variants that differ from it in
# one respect: an entry, the shape or the dims; for an IpfResult, the fit)
EQUALITY_CASES = {
    "JointDistribution": (
        lambda: joint([[0.25, 0.25], [0.25, 0.25]]),
        [
            lambda: joint([[0.5, 0.0], [0.25, 0.25]]),
            lambda: joint([[0.25, 0.25, 0.25, 0.25]]),
        ],
    ),
    "MarginalDistribution": (
        lambda: MarginalDistribution([0.5, 0.5]),
        [
            lambda: MarginalDistribution([0.25, 0.75]),
            lambda: MarginalDistribution([0.25, 0.25, 0.5]),
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
    "IpfResult": (
        lambda: fit([0.5, 0.5]),
        [
            lambda: fit([0.25, 0.75]),
            lambda: fit([0.25, 0.75], max_iter=0),
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
    # CloneCounts totals that an int64 sum would wrap, to -2**63 and to 0
    (CloneCounts, [2**62, 2**62], f"clone count total {2**63} exceeds the int64 range"),
    (CloneCounts, [2**62] * 4, f"clone count total {2**64} exceeds the int64 range"),
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


def test_sample_batch_dims_are_integers_refused_not_truncated():
    for dims in ((2.5, 2), (True, 2), (2, "2")):
        with pytest.raises(ValueError, match="each dims entry must be an integer"):
            SampleBatch([[1, 1]], dims=dims)
    for dims in ((2,), (2, 2, 2), 2):
        with pytest.raises(ValueError, match=r"dims must be a \(rows, cols\) pair"):
            SampleBatch([[1, 1]], dims=dims)
    batch = SampleBatch([[1, 2]], dims=(2.0, np.int64(2)))
    assert batch.dims == (2, 2) and all(type(d) is int for d in batch.dims)
    assert batch.to_count_table() == CountTable([[0, 1], [0, 0]])
    assert len(SampleBatch(np.empty((0, 2)), dims=(1.0, 3))) == 0


def test_python_ints_beyond_int64_get_the_range_message():
    # numpy holds these as object arrays; no cast warning may escape.
    for values in ([[2**64, 1]], [[-(2**63) - 1, 1]]):
        with pytest.raises(ValueError) as excinfo:
            CountTable(values)
        assert str(excinfo.value) == "counts must lie in the int64 range"
    with pytest.raises(ValueError) as excinfo:
        pairs([[2**64, 1]])
    assert str(excinfo.value) == "pair labels must lie in the int64 range"
    for values in ([[2**64, None]], np.array([[np.int64(1), 2**64]], dtype=object)):
        with pytest.raises(ValueError) as excinfo:
            CountTable(values)
        assert str(excinfo.value) == "counts must be integers"
    assert CountTable(np.array([[1, 2]], dtype=object)) == CountTable([[1, 2]])


def test_clone_count_total_at_the_int64_maximum_is_exact():
    clones = CloneCounts([2**62, 2**62 - 1])
    assert clones.total == 2**63 - 1 and type(clones.total) is int
    assert clones.to_weights() == WeightVector([0.5, 0.5])


def replicates(seed):
    # Column 2 has probability 0.1, so at n = 5 some tables leave it empty.
    p = [[0.45, 0.05], [0.45, 0.05]]
    return replicate_marginal_estimates(p, [0.9, 0.1], n=5, replications=64, seed=seed)


class TestMarginalReplicatesContract:
    def test_equal_runs_compare_equal_with_nan_entries(self):
        first, second = replicates(7), replicates(7)
        assert first.excluded.any() and np.isnan(first.ptilde_rows).any()
        assert first is not second
        assert first == second
        assert not (first != second)

    def test_another_seed_compares_unequal(self):
        # Decided by value: identity equality would return NotImplemented here.
        first, other = replicates(7), replicates(8)
        assert first.__eq__(other) is False
        assert first != other

    def test_unhashable(self):
        with pytest.raises(TypeError):
            hash(replicates(7))

    def test_arrays_are_read_only(self):
        reps = replicates(7)
        for name in ("phat_rows", "ptilde_rows", "excluded"):
            with pytest.raises(ValueError):
                getattr(reps, name)[0] = 0


def test_every_exported_value_type_has_the_shared_contract():
    """An exported dataclass that turns off the generated ``__eq__`` must
    take ``_fields_equal`` and be unhashable, as ``tables._value_type`` makes
    it; identity equality on a value type is a silent fault."""
    exported = (getattr(margfit, name) for name in margfit.__all__)
    value_types = [
        cls
        for cls in exported
        if isinstance(cls, type)
        and dataclasses.is_dataclass(cls)
        and not cls.__dataclass_params__.eq
    ]
    assert {cls.__name__ for cls in value_types} >= {*EQUALITY_CASES, "MarginalReplicates"}
    for cls in value_types:
        assert cls.__eq__ is tables._fields_equal, cls.__name__
        assert cls.__hash__ is None, cls.__name__
