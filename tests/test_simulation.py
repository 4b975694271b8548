import hashlib
import math
import warnings

import numpy as np
import pytest

from helpers import outer_product_table
from margfit import (
    ExperimentConfig,
    JointDistribution,
    MarginalDistribution,
    WeightVector,
    adjusted_marginal_covariance,
    asymptotic_reduction,
    build_2x2_from_marginals_cpr,
    column_marginal,
    effective_sample_factor,
    marginal_covariance,
    multinomial_covariance,
    replicate_marginal_estimates,
    replicate_weighted_frequencies,
    run_case_study,
    run_experiment,
)
from margfit.io import load_destatis2014, load_gidas_table3
from margfit.simulation import CHUNK_REPLICATIONS, _chunk_estimates, _stream
from margfit.tables import PROB_TOL, CountTable, empirical_joint, row_marginal

SYMMETRIC_2X2 = JointDistribution([[0.375, 0.125], [0.125, 0.375]])


def marg(values, axis="column"):
    return MarginalDistribution(values, axis=axis)


class TestAsymptoticReduction:
    def test_independent_table_is_zero(self):
        table = outer_product_table(np.random.default_rng(1), 2, 3)
        assert asymptotic_reduction(table) == pytest.approx(0.0, abs=1e-12)

    def test_hand_computed_quarter(self):
        assert asymptotic_reduction(SYMMETRIC_2X2, 0) == pytest.approx(0.25, abs=1e-14)

    def test_row_determined_by_column_gives_one(self):
        table = JointDistribution([[0.7, 0.0], [0.0, 0.3]])
        assert asymptotic_reduction(table, 0) == pytest.approx(1.0, abs=1e-14)
        assert asymptotic_reduction(table, 1) == pytest.approx(1.0, abs=1e-14)

    def test_degenerate_row_rejected(self):
        table = JointDistribution([[0.6, 0.4], [0.0, 0.0]])
        with pytest.raises(ValueError, match="degenerate"):
            asymptotic_reduction(table, 1)

    def test_row_index_validated(self):
        with pytest.raises(ValueError, match="out of range"):
            asymptotic_reduction(SYMMETRIC_2X2, 2)


class TestExperimentConfig:
    def test_defaults(self):
        cfg = ExperimentConfig(row_marginal=(0.5, 0.5), col_marginal=(0.5, 0.5))
        assert len(cfg.log_cpr_grid) == 25
        assert cfg.log_cpr_grid[12] == 0.0
        assert cfg.n_grid == (20, 100, 1000, 10000)
        assert cfg.replications == 20000

    def test_validation(self):
        with pytest.raises(ValueError, match="inside"):
            ExperimentConfig(row_marginal=(1.0, 0.0), col_marginal=(0.5, 0.5))
        with pytest.raises(ValueError, match="sum to 1"):
            ExperimentConfig(row_marginal=(0.5, 0.6), col_marginal=(0.5, 0.5))
        with pytest.raises(ValueError, match="replications"):
            ExperimentConfig(
                row_marginal=(0.5, 0.5), col_marginal=(0.5, 0.5), replications=1
            )

    def test_dict_round_trip(self):
        cfg = ExperimentConfig(
            row_marginal=(0.9, 0.1),
            col_marginal=(0.7, 0.3),
            log_cpr_grid=(0.0, 1.5),
            n_grid=(50, 200),
            replications=100,
            seed=7,
        )
        assert ExperimentConfig.from_dict(cfg.to_dict()) == cfg

    def test_unknown_keys_rejected(self):
        with pytest.raises(ValueError, match="unknown"):
            ExperimentConfig.from_dict(
                {"row_marginal": [0.5, 0.5], "col_marginal": [0.5, 0.5], "reps": 3}
            )


def small_config(**overrides):
    base = dict(
        row_marginal=(0.5, 0.5),
        col_marginal=(0.5, 0.5),
        log_cpr_grid=(0.0, math.log(9.0)),
        n_grid=(20, 1000),
        replications=2000,
        seed=11,
    )
    base.update(overrides)
    return ExperimentConfig(**base)


class TestRunExperiment:
    def test_deterministic_across_runs(self):
        cfg = small_config()
        assert run_experiment(cfg).cells == run_experiment(cfg).cells

    def test_parallel_schedule_is_bit_identical(self):
        cfg = small_config(replications=5000)
        serial = run_experiment(cfg, workers=1)
        threaded = run_experiment(cfg, workers=4)
        assert serial.cells == threaded.cells

    def test_matches_standalone_replication_helper(self):
        cfg = small_config()
        grid = run_experiment(cfg)
        table = build_2x2_from_marginals_cpr(
            marg(cfg.row_marginal, "row"), marg(cfg.col_marginal), math.exp(cfg.log_cpr_grid[1])
        )
        # Cell index 1 is (n=20, second cpr) in n-major order.
        reps = replicate_marginal_estimates(
            table, marg(cfg.col_marginal), 20, cfg.replications, cfg.seed, stream_key=(1,)
        )
        included = ~reps.excluded
        expected = 100.0 * (
            1.0
            - np.var(reps.ptilde_rows[included, 0], ddof=1)
            / np.var(reps.phat_rows[included, 0], ddof=1)
        )
        assert grid.cells[1].reduction_pct == expected

    def test_independent_cell_reduction_near_zero(self):
        grid = run_experiment(small_config(replications=20000))
        cell = grid.find(1000, 0.0)
        assert abs(cell.reduction_pct) < 2.0
        assert cell.asymptotic_pct == pytest.approx(0.0, abs=1e-10)

    def test_reduction_approaches_asymptotic_value(self):
        grid = run_experiment(small_config(replications=20000))
        cell = grid.find(1000, math.log(9.0))
        assert cell.asymptotic_pct == pytest.approx(25.0, abs=1e-9)
        assert cell.reduction_pct == pytest.approx(25.0, abs=3.0)

    def test_zero_column_events_counted_and_excluded(self):
        cfg = ExperimentConfig(
            row_marginal=(0.5, 0.5),
            col_marginal=(0.97, 0.03),
            log_cpr_grid=(0.0,),
            n_grid=(20,),
            replications=4000,
            seed=5,
        )
        cell = run_experiment(cfg).cells[0]
        # Column 2 is empty with probability 0.97^20 ~ 0.54 per replication.
        assert 0.45 * 4000 < cell.zero_column_events < 0.65 * 4000
        assert cell.error is None and math.isfinite(cell.reduction_pct)

    def test_infeasible_cells_marked_not_raised(self):
        cfg = small_config(log_cpr_grid=(0.0, 800.0))
        grid = run_experiment(cfg)
        good = grid.find(20, 0.0)
        bad = grid.find(20, 800.0)
        assert good.error is None
        assert bad.error is not None and bad.reduction_pct is None

    def test_reported_reduction_stays_in_range(self):
        grid = run_experiment(small_config(replications=4000))
        for cell in grid.cells:
            assert -100.0 <= cell.reduction_pct <= 100.0
            assert cell.zero_column_events <= 4000

    def test_bias_columns_are_small_and_reported(self):
        grid = run_experiment(small_config(replications=20000))
        cell = grid.find(1000, math.log(9.0))
        # Unadjusted estimator is exactly unbiased; 5 standard errors of the mean.
        se = math.sqrt(0.25 / 1000 / 20000)
        assert abs(cell.bias_hat) < 5 * se
        assert abs(cell.bias_tilde) < 5 * se + 1e-3


class TestReplicateMarginalEstimates:
    def test_excluded_replications_have_nan_adjusted_rows(self):
        table = JointDistribution([[0.5, 0.49], [0.0, 0.01]])
        reps = replicate_marginal_estimates(table, marg([0.99, 0.01]), 10, 500, seed=1)
        assert reps.excluded.any()
        assert np.isnan(reps.ptilde_rows[reps.excluded]).all()
        assert np.isfinite(reps.ptilde_rows[~reps.excluded]).all()

    def test_adjusted_rows_sum_to_one_when_included(self):
        table = SYMMETRIC_2X2
        reps = replicate_marginal_estimates(table, marg([0.5, 0.5]), 100, 300, seed=2)
        included = reps.ptilde_rows[~reps.excluded]
        np.testing.assert_allclose(included.sum(axis=1), 1.0, atol=1e-12)

    def test_scaled_covariance_approaches_adjusted_covariance(self):
        # Entrywise within 5 standard errors of the replication noise.
        rng = np.random.default_rng(3)
        cells = 0.2 + rng.random((3, 3))
        table = JointDistribution(cells / cells.sum())
        n, reps_count = 2000, 4000
        reps = replicate_marginal_estimates(
            table, column_marginal(table), n, reps_count, seed=77
        )
        assert not reps.excluded.any()
        target_rows = row_marginal(table).probs

        adjusted = adjusted_marginal_covariance(table).entries
        scaled = math.sqrt(n) * (reps.ptilde_rows - target_rows)
        observed = np.cov(scaled, rowvar=False, ddof=1)
        se = np.sqrt(
            (np.outer(np.diag(adjusted), np.diag(adjusted)) + adjusted**2) / reps_count
        )
        assert (np.abs(observed - adjusted) <= 5 * se + 1e-12).all()

        plain = marginal_covariance(table).entries
        scaled_hat = math.sqrt(n) * (reps.phat_rows - target_rows)
        observed_hat = np.cov(scaled_hat, rowvar=False, ddof=1)
        se_hat = np.sqrt(
            (np.outer(np.diag(plain), np.diag(plain)) + plain**2) / reps_count
        )
        assert (np.abs(observed_hat - plain) <= 5 * se_hat + 1e-12).all()


class TestReplicateWeightedFrequencies:
    def test_scaled_variance_matches_multinomial_covariance(self):
        # Var(weighted freq) / sum(w^2) recovers p_i (1 - p_i).
        n, reps_count = 1000, 4000
        ramp = np.arange(1, n + 1, dtype=float)
        weights = WeightVector(ramp / ramp.sum())
        estimates = replicate_weighted_frequencies([0.3, 0.7], weights, reps_count, seed=9)
        factor = effective_sample_factor(weights)
        target = multinomial_covariance([0.3, 0.7]).entries[0, 0]
        observed = float(np.var(estimates[:, 0], ddof=1)) / factor
        assert observed == pytest.approx(target, rel=5 * math.sqrt(2.0 / reps_count))

    def test_rows_sum_to_one(self):
        weights = WeightVector.uniform(50)
        estimates = replicate_weighted_frequencies([0.2, 0.5, 0.3], weights, 200, seed=4)
        np.testing.assert_allclose(estimates.sum(axis=1), 1.0, atol=1e-12)
        assert estimates.shape == (200, 3)

    def test_deterministic(self):
        weights = WeightVector.uniform(64)
        a = replicate_weighted_frequencies([0.4, 0.6], weights, 100, seed=12)
        b = replicate_weighted_frequencies([0.4, 0.6], weights, 100, seed=12)
        assert np.array_equal(a, b)


class TestCaseStudy:
    def test_unadjusted_column_matches_published_percentages(self):
        result = run_case_study(load_gidas_table3(), load_destatis2014())
        pct = np.round(100 * result.phat_vector, 1)
        np.testing.assert_array_equal(pct, [11.4, 32.4, 28.7, 15.2, 6.9, 3.0, 1.4, 0.9])

    def test_sign_pattern_of_relative_differences(self):
        result = run_case_study(load_gidas_table3(), load_destatis2014())
        rel = [row.relative_difference_pct for row in result.rows]
        assert all(r > 0 for r in rel[:3])
        assert all(r < 0 for r in rel[3:])

    def test_adjusted_column_sums_to_one(self):
        result = run_case_study(load_gidas_table3(), load_destatis2014())
        assert result.zero_column_mask == frozenset()
        assert result.ptilde_vector.sum() == pytest.approx(1.0, abs=1e-12)
        assert result.phat_vector.sum() == pytest.approx(1.0, abs=1e-12)

    def test_identity_when_marginal_matches_sample(self):
        counts = load_gidas_table3()
        observed_col = column_marginal(empirical_joint(counts))
        result = run_case_study(counts, observed_col)
        np.testing.assert_array_equal(result.phat_vector, result.ptilde_vector)
        assert all(row.relative_difference_pct == 0.0 for row in result.rows)

    def test_zero_column_raises_warning_mask(self):
        counts = CountTable(np.array([[3, 0], [1, 0]]))
        result = run_case_study(counts, marg([0.6, 0.4]))
        assert result.zero_column_mask == frozenset({1})
        assert result.ptilde_vector.sum() == pytest.approx(0.6, abs=1e-12)

    def test_zero_row_yields_undefined_relative_difference(self):
        counts = CountTable(np.array([[2, 2], [0, 0]]))
        result = run_case_study(counts, marg([0.5, 0.5]))
        assert result.rows[1].relative_difference_pct is None


class TestExperimentConfigRefusesTruncation:
    def test_fractional_n_grid_rejected(self):
        with pytest.raises(ValueError, match="n_grid"):
            small_config(n_grid=(20.7,))
        assert small_config(n_grid=(20.0,)).n_grid == (20,)

    def test_fractional_replications_rejected(self):
        with pytest.raises(ValueError, match="replications"):
            small_config(replications=2.9)

    def test_bool_or_fractional_seed_rejected(self):
        for seed in (True, 1.5):
            with pytest.raises(ValueError, match="seed"):
                small_config(seed=seed)


class TestWeightedFrequencyBlocksPinned:
    def test_output_digest(self):
        # 1000 observations make blocks of 4_000_000 // 1000 = 4000
        # replications, so 9000 replications span two full blocks and a
        # partial one, each drawn from the stream keyed (block index,).
        ramp = np.arange(1, 1001, dtype=float)
        weights = WeightVector(ramp / ramp.sum())
        expected = {
            (0.3, 0.7): "245bb9396b638164d270a32604b67181864630f085872afea2c188dc5e8f5673",
            (0.2, 0.5, 0.3): "1003803722a413a0123d0b4ec063dff676ac4f833f49748b0809b0f134520642",
        }
        for probs, digest in expected.items():
            out = replicate_weighted_frequencies(list(probs), weights, 9000, seed=6)
            assert hashlib.sha256(out.tobytes()).hexdigest() == digest


def searchsorted_weighted_frequencies(probs, weights, replications, seed):
    """Reference for :func:`replicate_weighted_frequencies`: the same blocks
    and streams, with categories found by ``np.searchsorted``."""
    probs = np.asarray(probs, dtype=np.float64)
    w = weights.weights
    n = w.shape[0]
    edges = np.cumsum(probs)
    edges[-1] = 1.0
    block = max(1, 4_000_000 // n)
    out = np.empty((replications, probs.shape[0]))
    for c, start in enumerate(range(0, replications, block)):
        size = min(block, replications - start)
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(c,))
        draws = np.random.Generator(np.random.Philox(seq)).random((size, n))
        xs = np.searchsorted(edges, draws, side="right")
        for i in range(probs.shape[0]):
            out[start : start + size, i] = (xs == i).astype(np.float64) @ w
    return out


def random_weights(rng, n):
    raw = rng.random(n) + 0.01
    return WeightVector(raw / raw.sum())


class TestWeightedKernelMatchesSearchsorted:
    def test_random_marginals_with_zero_categories(self):
        rng = np.random.default_rng(2024)
        for case in range(24):
            k = int(rng.integers(2, 10))
            probs = rng.dirichlet(np.ones(k))
            if case % 2:
                # zero out up to k - 1 categories, never all of them
                zeros = rng.choice(k, size=int(rng.integers(1, k)), replace=False)
                probs[zeros] = 0.0
                probs /= probs.sum()
            n = int(rng.choice([1, 2, 7, 31, 300]))
            weights = random_weights(rng, n)
            reps = int(rng.integers(1, 60))
            seed = int(rng.integers(0, 2**63))
            got = replicate_weighted_frequencies(probs, weights, reps, seed)
            want = searchsorted_weighted_frequencies(probs, weights, reps, seed)
            assert np.array_equal(got, want), (case, probs, n, reps)

    def test_sum_above_one_puts_an_edge_beyond_the_clamped_last(self):
        # Sums of 1 + PROB_TOL/2 are accepted; the second-to-last cumulative
        # edge then exceeds the last, which is clamped to exactly 1.
        half_tol = PROB_TOL / 2
        rng = np.random.default_rng(5)
        for probs in ([0.5, 0.5 + half_tol, 0.0], [0.3, 0.7 + half_tol - 1e-13, 1e-13]):
            edges = np.cumsum(probs)
            assert edges[-2] > 1.0
            for n in (1, 64, 257):
                weights = random_weights(rng, n)
                got = replicate_weighted_frequencies(probs, weights, 40, seed=n)
                want = searchsorted_weighted_frequencies(probs, weights, 40, seed=n)
                assert np.array_equal(got, want)

    def test_several_blocks_with_a_partial_last_block(self):
        # 3000 observations make blocks of 1333 replications: 3000
        # replications are two full blocks and one of 334.
        weights = random_weights(np.random.default_rng(8), 3000)
        probs = [0.1, 0.0, 0.25, 0.4, 0.25]
        got = replicate_weighted_frequencies(probs, weights, 3000, seed=31)
        want = searchsorted_weighted_frequencies(probs, weights, 3000, seed=31)
        assert np.array_equal(got, want)


class TestReplicationArgumentsRefused:
    def test_weighted_replications_and_seed(self):
        weights = WeightVector.uniform(8)
        for reps in (True, 2.5, "4"):
            with pytest.raises(ValueError, match="replications"):
                replicate_weighted_frequencies([0.5, 0.5], weights, reps, 1)
        for seed in (1.5, True, -1, 2**64, "3"):
            with pytest.raises(ValueError, match="seed"):
                replicate_weighted_frequencies([0.5, 0.5], weights, 4, seed)
        assert np.array_equal(
            replicate_weighted_frequencies([0.5, 0.5], weights, 4.0, np.uint64(3)),
            replicate_weighted_frequencies([0.5, 0.5], weights, 4, 3),
        )

    def test_marginal_estimates_n_replications_and_seed(self):
        col = marg([0.5, 0.5])
        for n in (2.5, True):
            with pytest.raises(ValueError, match="sample size"):
                replicate_marginal_estimates(SYMMETRIC_2X2, col, n, 4, 1)
        for reps in (True, 2.5):
            with pytest.raises(ValueError, match="replications"):
                replicate_marginal_estimates(SYMMETRIC_2X2, col, 10, reps, 1)
        for seed in (1.5, False, -1, 2**64):
            with pytest.raises(ValueError, match="seed"):
                replicate_marginal_estimates(SYMMETRIC_2X2, col, 10, 4, seed)

    def test_run_experiment_workers(self):
        cfg = small_config(replications=2)
        for workers in (True, 2.5, "2", 0):
            with pytest.raises(ValueError, match="workers"):
                run_experiment(cfg, workers=workers)


class TestExperimentConfigRefusesNonNumbers:
    def test_sequence_fields_must_be_arrays(self):
        base = {"row_marginal": [0.5, 0.5], "col_marginal": [0.5, 0.5]}
        for field_name, value in (
            ("n_grid", 5),
            ("log_cpr_grid", "12"),
            ("row_marginal", "0.5,0.5"),
            ("col_marginal", {"a": 0.5}),
        ):
            with pytest.raises(ValueError, match=field_name):
                ExperimentConfig.from_dict({**base, field_name: value})

    def test_row_marginal_entries_must_be_numbers(self):
        for value in (("0.5", "0.5"), (True, 0.5)):
            with pytest.raises(ValueError, match="row_marginal"):
                small_config(row_marginal=value)

    def test_col_marginal_entries_must_be_numbers(self):
        for value in (("0.3", "0.7"), (0.5, None)):
            with pytest.raises(ValueError, match="col_marginal"):
                small_config(col_marginal=value)

    def test_log_cpr_grid_entries_must_be_numbers(self):
        for value in (("1", "2"), (0.0, False)):
            with pytest.raises(ValueError, match="log_cpr_grid"):
                small_config(log_cpr_grid=value)
        cfg = small_config(log_cpr_grid=(np.float32(0.5), np.int64(1), 2))
        assert cfg.log_cpr_grid == (0.5, 1.0, 2.0)


class TestWeightsAsPlainArray:
    def test_array_gives_the_weight_vector_output(self):
        raw = np.random.default_rng(5).random(40)
        raw /= raw.sum()
        probs = [0.2, 0.0, 0.3, 0.5]
        got = replicate_weighted_frequencies(probs, raw, 50, seed=7)
        want = replicate_weighted_frequencies(probs, WeightVector(raw), 50, seed=7)
        assert np.array_equal(got, want)

    def test_non_normalised_array_refused(self):
        with pytest.raises(ValueError, match="weights must sum to 1"):
            replicate_weighted_frequencies([0.5, 0.5], np.full(8, 0.2), 4, 1)


def reference_chunk_estimates(flat_cells, col_probs, dims, n, size, rng):
    """Reference for ``simulation._chunk_estimates``: the same multinomial
    draw, reduced over the reshaped ``(size, I, J)`` table with numpy's
    ``sum`` along each axis."""
    n_rows, n_cols = dims
    counts = rng.multinomial(n, flat_cells, size=size).reshape(size, n_rows, n_cols)
    col_sums = counts.sum(axis=1)
    excluded = (col_sums == 0).any(axis=1)
    phat = counts.sum(axis=2) / n
    with np.errstate(divide="ignore", invalid="ignore"):
        scale = col_probs / col_sums
        ptilde = (counts * scale[:, None, :]).sum(axis=2)
    ptilde[excluded] = np.nan
    return phat, ptilde, excluded


def random_chunk_inputs(rng, n_rows, n_cols, thin_column):
    cells = rng.dirichlet(np.ones(n_rows * n_cols)).reshape(n_rows, n_cols)
    if thin_column:
        # one near-empty column, so small samples often miss it entirely
        cells[:, int(rng.integers(n_cols))] *= 1e-3
        cells /= cells.sum()
    return cells.ravel(), rng.dirichlet(np.ones(n_cols))


class TestChunkKernelMatchesReference:
    def test_bit_identical_up_to_seven_columns(self):
        rng = np.random.default_rng(606)
        excluded_seen = 0
        for n_rows in range(2, 6):
            for n_cols in range(2, 8):
                for n in (1, 3, 20, 1000):
                    thin = bool(rng.integers(2))
                    flat, col = random_chunk_inputs(rng, n_rows, n_cols, thin_column=thin)
                    args = (flat, col, (n_rows, n_cols), n, int(rng.integers(1, 700)))
                    key = (n_rows, n_cols, n)
                    got = _chunk_estimates(*args, _stream(9, key))
                    want = reference_chunk_estimates(*args, _stream(9, key))
                    for g, w in zip(got, want):
                        assert np.array_equal(g, w, equal_nan=True), key
                    excluded_seen += int(got[2].sum())
        assert excluded_seen > 0

    def test_replications_over_two_full_chunks_and_a_partial_one(self):
        reps = 10000
        assert 2 * CHUNK_REPLICATIONS < reps < 3 * CHUNK_REPLICATIONS
        col = marg([0.9, 0.1])
        table = JointDistribution([[0.6, 0.06], [0.3, 0.04]])
        got = replicate_marginal_estimates(table, col, 20, reps, seed=4, stream_key=(7,))
        parts = [
            reference_chunk_estimates(
                table.cells.ravel(), col.probs, (2, 2), 20, size, _stream(4, (7, c))
            )
            for c, size in enumerate((CHUNK_REPLICATIONS, CHUNK_REPLICATIONS, reps - 8192))
        ]
        want = [np.concatenate(arrays) for arrays in zip(*parts)]
        assert want[2].any()
        assert np.array_equal(got.phat_rows, want[0])
        assert np.array_equal(got.ptilde_rows, want[1], equal_nan=True)
        assert np.array_equal(got.excluded, want[2])

    def test_eight_or_more_columns_differ_only_in_summation_order(self):
        # From 8 columns numpy's sum(axis=2) is pairwise, the kernel's stays
        # left to right: the integer outputs are equal, ptilde to 1e-14.
        rng = np.random.default_rng(88)
        for n_cols in (8, 9, 12):
            for n in (20, 1000):
                flat, col = random_chunk_inputs(rng, 3, n_cols, thin_column=n == 20)
                args = (flat, col, (3, n_cols), n, 500)
                got = _chunk_estimates(*args, _stream(2, (n_cols, n)))
                want = reference_chunk_estimates(*args, _stream(2, (n_cols, n)))
                assert np.array_equal(got[0], want[0])
                assert np.array_equal(got[2], want[2])
                np.testing.assert_allclose(got[1], want[1], rtol=1e-14, atol=0)


class TestEmptyColumnsStaySilent:
    def test_no_warning_when_a_column_is_empty(self):
        # An empty column makes the kernel compute 0 * inf; that must stay
        # inside its errstate and never surface as a RuntimeWarning.
        table = JointDistribution([[0.5, 0.0], [0.5, 0.0]])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            reps = replicate_marginal_estimates(table, marg([0.5, 0.5]), 10, 50, seed=3)
        assert reps.excluded.all()
        assert np.isnan(reps.ptilde_rows).all()


class TestStreamKeyRefused:
    def run(self, stream_key):
        return replicate_marginal_estimates(
            SYMMETRIC_2X2, marg([0.5, 0.5]), 10, 4, seed=1, stream_key=stream_key
        )

    def test_bool_entry(self):
        with pytest.raises(ValueError, match="each stream_key entry"):
            self.run((True,))

    def test_fractional_entry(self):
        with pytest.raises(ValueError, match="each stream_key entry"):
            self.run((1.5,))

    def test_negative_entry(self):
        with pytest.raises(ValueError, match="each stream_key entry must be >= 0"):
            self.run((0, -1))

    def test_bare_integer(self):
        with pytest.raises(ValueError, match="stream_key must be a tuple"):
            self.run(5)

    def test_list(self):
        with pytest.raises(ValueError, match="stream_key must be a tuple"):
            self.run([1])

    def test_integral_entries_keep_their_stream(self):
        got = self.run((np.int64(2), 3.0))
        want = self.run((2, 3))
        assert np.array_equal(got.phat_rows, want.phat_rows)
