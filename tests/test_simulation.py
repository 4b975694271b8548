import concurrent.futures
import decimal
import hashlib
import itertools
import json
import math
import os
import subprocess
import sys
import tracemalloc
import warnings
from fractions import Fraction

import numpy as np
import pytest

from helpers import gamma, outer_product_table
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
    exact_reduction,
    marginal_covariance,
    multinomial_covariance,
    replicate_marginal_estimates,
    replicate_weighted_frequencies,
    run_case_study,
    run_experiment,
    sample,
)
import margfit.simulation as simulation
from margfit.io import load_destatis2014, load_gidas_table3, load_study_config
from margfit.simulation import CHUNK_REPLICATIONS, _chunk_estimates, _stream
from margfit.tables import PROB_TOL, CountTable, empirical_joint, row_marginal

SYMMETRIC_2X2 = JointDistribution([[0.375, 0.125], [0.125, 0.375]])


def marg(values):
    return MarginalDistribution(values)


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

    def test_another_degenerate_row_does_not_matter(self):
        cells = [[0.3, 0.2], [0.1, 0.4]]
        table = JointDistribution(cells + [[0.0, 0.0]])
        for row in (0, 1):
            assert asymptotic_reduction(table, row) == pytest.approx(
                asymptotic_reduction(JointDistribution(cells), row), rel=1e-12
            )
        with pytest.raises(ValueError, match="degenerate"):
            asymptotic_reduction(table, 2)


def study_table(case, log_cpr):
    cfg = load_study_config(case)
    col = marg(cfg.col_marginal)
    return build_2x2_from_marginals_cpr(marg(cfg.row_marginal), col, math.exp(log_cpr)), col


def enumerated_reduction(table, n):
    """Variance reduction over every count table of size n with both columns
    observed, weighted by its multinomial probability."""
    (p11, p12), (p21, p22) = table.cells
    b = p11 + p21
    prob, phat, ptilde = [], [], []
    for n11 in range(n + 1):
        for n12 in range(n + 1 - n11):
            for n21 in range(n + 1 - n11 - n12):
                n22 = n - n11 - n12 - n21
                if n11 + n21 == 0 or n12 + n22 == 0:
                    continue
                ways = math.factorial(n) // (
                    math.factorial(n11) * math.factorial(n12) * math.factorial(n21) * math.factorial(n22)
                )
                prob.append(ways * p11**n11 * p12**n12 * p21**n21 * p22**n22)
                phat.append((n11 + n12) / n)
                ptilde.append(b * n11 / (n11 + n21) + (1 - b) * n12 / (n12 + n22))
    prob = np.array(prob) / sum(prob)

    def var(x):
        x = np.array(x)
        return prob @ (x - prob @ x) ** 2

    return 1.0 - var(ptilde) / var(phat)


class TestExactReduction:
    @pytest.mark.parametrize(
        "n, pct", [(20, -0.474), (100, 9.048), (1000, 10.556), (10000, 10.699)]
    )
    def test_case_two_cpr_nine(self, n, pct):
        table, _ = study_table("II", math.log(9.0))
        assert 100.0 * exact_reduction(table, n) == pytest.approx(pct, abs=5e-4)

    @pytest.mark.parametrize("n", [2, 3, 5, 8])
    def test_matches_enumeration_of_all_tables(self, n):
        rng = np.random.default_rng(n)
        tables = [study_table("II", math.log(9.0))[0], SYMMETRIC_2X2]
        tables += [JointDistribution(rng.dirichlet(np.ones(4)).reshape(2, 2)) for _ in range(3)]
        for table in tables:
            assert exact_reduction(table, n) == pytest.approx(
                enumerated_reduction(table, n), rel=1e-10, abs=1e-12
            )

    @pytest.mark.parametrize("case", ["I", "II", "III"])
    @pytest.mark.parametrize("log_cpr", [-4.0, 0.0, math.log(9.0), 3.0])
    def test_approaches_asymptotic_value(self, case, log_cpr):
        # The finite-n penalty shrinks like 1/n: n * (exact - asymptotic)
        # settles to a negative constant.
        table, _ = study_table(case, log_cpr)
        asym = asymptotic_reduction(table)
        scaled = [n * (exact_reduction(table, n) - asym) for n in (100, 1000, 10000)]
        assert all(-3.0 < s < 0.0 for s in scaled)
        assert abs(scaled[2] - scaled[1]) < 0.1 * abs(scaled[1] - scaled[0]) + 1e-6

    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_independent_table_loses_one_over_n(self, case):
        table, _ = study_table(case, 0.0)
        assert 10000 * exact_reduction(table, 10000) == pytest.approx(-1.0, rel=1e-3)

    def test_refuses_tables_that_are_not_two_by_two(self):
        table = outer_product_table(np.random.default_rng(1), 2, 3)
        with pytest.raises(ValueError, match="2x2"):
            exact_reduction(table, 100)

    @pytest.mark.parametrize("n", [1, 0, -5, 2.5, True])
    def test_refuses_sample_sizes_below_two(self, n):
        with pytest.raises(ValueError, match="sample size"):
            exact_reduction(SYMMETRIC_2X2, n)

    def test_refuses_an_empty_column(self):
        with pytest.raises(ValueError, match="column"):
            exact_reduction(JointDistribution([[0.6, 0.0], [0.4, 0.0]]), 10)

    def test_refuses_a_degenerate_row(self):
        with pytest.raises(ValueError, match="degenerate"):
            exact_reduction(JointDistribution([[0.6, 0.4], [0.0, 0.0]]), 10)


def rational_exact_reduction(table, n):
    """The formula of :func:`exact_reduction` evaluated in exact rationals
    from the float values it reads: p11, p12 and the column probability
    b = p11 + p21 rounded to a double (1 - b is then exact for b >= 0.5)."""
    (p11, p12), (p21, _) = table.cells
    b = Fraction(float(p11 + p21))
    p11, p12 = Fraction(float(p11)), Fraction(float(p12))
    q1, q2 = p11 / b, p12 / (1 - b)
    # Bin(n, b) weights times D**n, where b = B / D: integers.
    big_b, big_d = b.numerator, b.denominator
    w = {k: math.comb(n, k) * big_b**k * (big_d - big_b) ** (n - k) for k in range(1, n)}
    total = sum(w.values())
    mean_inv_k = sum(Fraction(v, k) for k, v in w.items()) / total
    mean_inv_rest = sum(Fraction(v, n - k) for k, v in w.items()) / total
    mean_k = Fraction(sum(v * k for k, v in w.items()), total)
    var_k = Fraction(sum(v * k * k for k, v in w.items()), total) - mean_k * mean_k
    v1, v2 = q1 * (1 - q1), q2 * (1 - q2)
    var_tilde = b * b * v1 * mean_inv_k + (1 - b) * (1 - b) * v2 * mean_inv_rest
    var_hat = (mean_k * v1 + (n - mean_k) * v2) / (n * n) + (q1 - q2) ** 2 * var_k / (n * n)
    return 1 - var_tilde / var_hat


class TestExactReductionMatchesRationalOracle:
    @staticmethod
    def column_near(b):
        # Column marginal (b, 1 - b), rows split 0.3/0.7 and 0.6/0.4 within columns.
        return JointDistribution([[b * 0.3, (1 - b) * 0.6], [b * 0.7, (1 - b) * 0.4]])

    @pytest.mark.parametrize("n", [2, 3, 50, 400])
    def test_within_1e_12_relative(self, n):
        rng = np.random.default_rng(400 + n)
        tables = [JointDistribution(rng.dirichlet(np.ones(4)).reshape(2, 2)) for _ in range(6)]
        tables += [self.column_near(b) for b in (1e-9, 3e-10, 1 - 1e-9, 1 - 3e-10)]
        for table in tables:
            exact = rational_exact_reduction(table, n)
            got = exact_reduction(table, n)
            assert abs(Fraction(got) - exact) <= Fraction(1, 10**12) * abs(exact), table.cells


class TestMonteCarloMatchesExact:
    """Each MC reduction of cases I-III lies within 4 delta-method standard
    errors of :func:`exact_reduction`. The SE is that of the ratio of the
    included replications' squared deviations, so it shrinks with the
    replication count and no band is chosen by hand."""

    REPLICATIONS = 20000

    def test_cases_one_to_three(self):
        z_scores = {}
        cells = [
            (case, n, lc)
            for case in ("I", "II", "III")
            for n in (20, 100, 1000)
            for lc in (-4.0, -2.0, 0.0, math.log(9.0), 3.0)
        ]
        for k, (case, n, lc) in enumerate(cells):
            table, col = study_table(case, lc)
            reps = replicate_marginal_estimates(
                table, col, n, self.REPLICATIONS, seed=2016, stream_key=(k,)
            )
            included = ~reps.excluded
            phat = reps.phat_rows[included, 0]
            ptilde = reps.ptilde_rows[included, 0]
            dev_hat = (phat - phat.mean()) ** 2
            dev_tilde = (ptilde - ptilde.mean()) ** 2
            ratio = dev_tilde.sum() / dev_hat.sum()
            se = np.std(dev_tilde - ratio * dev_hat, ddof=1) / (
                math.sqrt(included.sum()) * dev_hat.mean()
            )
            z_scores[case, n, lc] = ((1.0 - ratio) - exact_reduction(table, n)) / se
        worst = max(z_scores, key=lambda cell: abs(z_scores[cell]))
        assert abs(z_scores[worst]) < 4.0, (worst, z_scores[worst])


def count_vectors(n, cells):
    """Every vector of ``cells`` non-negative integers summing to n."""
    if cells == 1:
        yield (n,)
        return
    for first in range(n + 1):
        for rest in count_vectors(n - first, cells - 1):
            yield (first, *rest)


def rational_table_reduction(table, known_col, n):
    """Each row's reduction 1 - Var(ptilde)/Var(phat) in exact rationals, over
    every count table of size n with all columns observed, weighted by its
    multinomial probability under the float cells of ``table``."""
    n_rows, n_cols = table.dims
    cells = [Fraction(v) for v in table.cells.ravel().tolist()]
    col = [Fraction(v) for v in known_col.probs.tolist()]
    weights, phat, ptilde = [], [], []
    for x in count_vectors(n, len(cells)):
        rows = [x[i * n_cols : (i + 1) * n_cols] for i in range(n_rows)]
        col_sums = [sum(row[j] for row in rows) for j in range(n_cols)]
        if 0 in col_sums:
            continue
        ways = math.factorial(n)
        for count in x:
            ways //= math.factorial(count)
        weight = Fraction(ways)
        for prob, count in zip(cells, x):
            weight *= prob**count
        weights.append(weight)
        phat.append([Fraction(sum(row), n) for row in rows])
        ptilde.append([sum(col[j] * row[j] / col_sums[j] for j in range(n_cols)) for row in rows])
    total = sum(weights)

    def variance(values):
        mean = sum(w * v for w, v in zip(weights, values)) / total
        return sum(w * (v - mean) ** 2 for w, v in zip(weights, values)) / total

    return [
        1 - variance([t[i] for t in ptilde]) / variance([h[i] for h in phat])
        for i in range(n_rows)
    ]


class TestTableCellsMatchExactEnumeration:
    """Each row's MC reduction of an I x J cell drawn from its outcome table
    lies within 4 delta-method SEs (as in TestMonteCarloMatchesExact) of an
    exact rational enumeration that shares no code with the draw."""

    REPLICATIONS = 20000
    CELLS = [
        ([[0.20, 0.10, 0.05], [0.15, 0.30, 0.20]], 10, 3003),
        ([[0.20, 0.05, 0.05], [0.05, 0.20, 0.05], [0.05, 0.05, 0.30]], 5, 1287),
    ]

    @pytest.mark.parametrize("k", range(len(CELLS)), ids=["2x3-n10", "3x3-n5"])
    def test_every_row_within_4_se(self, k):
        cells, n, outcomes = self.CELLS[k]
        table = JointDistribution(cells)
        known_col = column_marginal(table)
        size = table.cells.size
        assert math.comb(n + size - 1, size - 1) == outcomes <= simulation.TABLE_OUTCOMES
        exact = rational_table_reduction(table, known_col, n)
        reps = replicate_marginal_estimates(
            table, known_col, n, self.REPLICATIONS, seed=2016, stream_key=(k,)
        )
        included = ~reps.excluded
        z_scores = []
        for r, reduction in enumerate(exact):
            phat = reps.phat_rows[included, r]
            ptilde = reps.ptilde_rows[included, r]
            dev_hat = (phat - phat.mean()) ** 2
            dev_tilde = (ptilde - ptilde.mean()) ** 2
            ratio = dev_tilde.sum() / dev_hat.sum()
            se = np.std(dev_tilde - ratio * dev_hat, ddof=1) / (
                math.sqrt(included.sum()) * dev_hat.mean()
            )
            z_scores.append(((1.0 - ratio) - float(reduction)) / se)
        assert max(map(abs, z_scores)) < 4.0, (exact, z_scores)


def truncated_mean(b, n):
    """E[N1 | 1 <= N1 <= n-1] for N1 ~ Binomial(n, b)."""
    k = np.arange(1, n)
    log_pmf = np.array(
        [
            math.lgamma(n + 1) - math.lgamma(j + 1) - math.lgamma(n - j + 1)
            + j * math.log(b) + (n - j) * math.log1p(-b)
            for j in range(1, n)
        ]
    )
    weights = np.exp(log_pmf - log_pmf.max())
    return float((weights * k).sum() / weights.sum())


def binomial_central_interval(trials, prob, tails):
    """The exact central interval [lo, hi] of Binomial(trials, prob): each of
    P(X < lo) and P(X > hi) is at most tails / 2."""
    pmf = math.exp(trials * math.log1p(-prob))  # P(X = 0)
    below, k, lo = 0.0, 0, 0  # below = P(X < k)
    while True:
        if below <= tails / 2:
            lo = k
        below += pmf
        if 1.0 - below <= tails / 2:
            return lo, k
        pmf *= (trials - k) / (k + 1) * (prob / (1.0 - prob))
        k += 1


class TestMonteCarloColumnsMatchExact:
    """The other printed columns of the cells of
    :class:`TestMonteCarloMatchesExact`, from the same streams, against their
    exact values given both columns observed. With column probability b and
    q1 = p11/b, q2 = p12/(1-b): ``bias_tilde`` has expectation 0, since the
    adjusted estimate is conditionally unbiased; ``bias_hat`` has expectation
    (q1 - q2)(E[N1 | 1 <= N1 <= n-1] - n b)/n; each lies within 4 standard
    errors sd/sqrt(kept) of it. ``zero_column_events`` is Binomial(R,
    b^n + (1-b)^n) and lies in its exact central interval whose two tails
    hold the two-sided 4-sigma normal mass: a normal band would be wrong for
    case I, whose expected count at n = 20 is 0.038."""

    REPLICATIONS = TestMonteCarloMatchesExact.REPLICATIONS
    TAILS = math.erfc(4.0 / math.sqrt(2.0))  # 6.3e-5

    def test_cases_one_to_three(self):
        z_scores, counts = {}, {}
        cells = [
            (case, n, lc)
            for case in ("I", "II", "III")
            for n in (20, 100, 1000)
            for lc in (-4.0, -2.0, 0.0, math.log(9.0), 3.0)
        ]
        for k, (case, n, lc) in enumerate(cells):
            table, col = study_table(case, lc)
            reps = replicate_marginal_estimates(
                table, col, n, self.REPLICATIONS, seed=2016, stream_key=(k,)
            )
            phat, ptilde = reps.phat_rows[:, 0], reps.ptilde_rows[:, 0]
            target = load_study_config(case).row_marginal[0]
            cell = simulation._aggregate_cell(n, lc, 0.0, target, phat, ptilde, reps.excluded)
            kept = ~reps.excluded
            (p11, p12), (p21, _) = table.cells
            b = p11 + p21
            gap = p11 / b - p12 / (1.0 - b)
            expected_hat = gap * (truncated_mean(b, n) - n * b) / n
            se_hat = np.std(phat[kept], ddof=1) / math.sqrt(kept.sum())
            se_tilde = np.std(ptilde[kept], ddof=1) / math.sqrt(kept.sum())
            z_scores[case, n, lc, "bias_hat"] = (cell.bias_hat - expected_hat) / se_hat
            z_scores[case, n, lc, "bias_tilde"] = cell.bias_tilde / se_tilde
            lo, hi = binomial_central_interval(
                self.REPLICATIONS, b**n + (1.0 - b) ** n, self.TAILS
            )
            counts[case, n, lc] = (lo, cell.zero_column_events, hi)
        worst = max(z_scores, key=lambda key: abs(z_scores[key]))
        assert abs(z_scores[worst]) < 4.0, (worst, z_scores[worst])
        outside = {key: c for key, c in counts.items() if not c[0] <= c[1] <= c[2]}
        assert not outside, outside


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

    def test_callers_decimal_context_is_neither_read_nor_changed(self):
        # Each cell's cpr is a decimal exp in a context of its own.
        cfg = small_config(replications=200)
        expected = run_experiment(cfg, workers=1).cells
        with decimal.localcontext() as ctx:
            ctx.prec = 3
            ctx.traps[decimal.FloatOperation] = True
            ctx.clear_flags()
            assert run_experiment(cfg, workers=1).cells == expected
            assert not any(ctx.flags.values())

    def test_matches_standalone_replication_helper(self):
        cfg = small_config()
        grid = run_experiment(cfg)
        table = build_2x2_from_marginals_cpr(
            marg(cfg.row_marginal), marg(cfg.col_marginal), math.exp(cfg.log_cpr_grid[1])
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


@pytest.fixture
def pools(monkeypatch):
    """The ``max_workers`` of every pool that the simulation starts."""
    started = []

    class RecordingPool(concurrent.futures.ThreadPoolExecutor):
        def __init__(self, max_workers=None, **kwargs):
            started.append(max_workers)
            super().__init__(max_workers=max_workers, **kwargs)

    monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", RecordingPool)
    return started


class TestDefaultWorkers:
    """``run_experiment(cfg)`` uses one thread per available core, at most
    one per grid cell; one worker runs on the calling thread, with no pool."""

    @staticmethod
    def set_cores(monkeypatch, cores):
        monkeypatch.setattr(simulation, "_available_cores", lambda: cores)

    def test_one_cell_grid_starts_no_pool(self, pools, monkeypatch):
        self.set_cores(monkeypatch, 4)
        run_experiment(small_config(log_cpr_grid=(0.0,), n_grid=(20,), replications=50))
        assert pools == []

    @pytest.mark.parametrize("cores", [1, 3, 4, 16])
    def test_capped_at_cells_and_cores(self, pools, monkeypatch, cores):
        self.set_cores(monkeypatch, cores)
        run_experiment(small_config(replications=50))  # 2 x 2 = 4 cells
        assert pools == ([] if cores == 1 else [min(cores, 4)])

    def test_available_cores_default_stays_within_cells_and_cores(self, pools):
        if hasattr(os, "sched_getaffinity"):
            cores = len(os.sched_getaffinity(0))
        else:
            cores = os.cpu_count() or 1
        assert simulation._available_cores() == cores
        run_experiment(small_config(replications=50))
        assert pools == ([] if cores == 1 else [min(cores, 4)])

    @pytest.mark.parametrize("cpu_count, cores", [(6, 6), (None, 1)])
    def test_available_cores_without_an_affinity_call(self, monkeypatch, cpu_count, cores):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: cpu_count)
        assert simulation._available_cores() == cores

    def test_explicit_workers_are_kept(self, pools, monkeypatch):
        self.set_cores(monkeypatch, 4)
        run_experiment(small_config(replications=50), workers=1)
        assert pools == []
        run_experiment(small_config(replications=50), workers=8)
        assert pools == [8]

    @pytest.mark.parametrize("cores", [None, 3])
    def test_default_equals_serial_cell_for_cell(self, monkeypatch, cores):
        if cores is not None:
            self.set_cores(monkeypatch, cores)
        cfg = small_config(replications=5000)
        default = run_experiment(cfg).cells
        serial = run_experiment(cfg, workers=1).cells
        assert len(default) == len(serial) == 4
        for got, want in zip(default, serial):
            assert got == want


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
        # 1000 observations make blocks of 2**18 // 1000 = 262 replications,
        # so 9000 replications span 34 full blocks and a partial one of 92,
        # each drawn from the stream keyed (block index,).
        ramp = np.arange(1, 1001, dtype=float)
        weights = WeightVector(ramp / ramp.sum())
        expected = {
            (0.3, 0.7): "77ebda6099082834fd21243cafe875d95e05fff9b29c4c3289e988233a8be333",
            (0.2, 0.5, 0.3): "88f49738df6b22f915623e3bb93ca80470376ba15c2cf12857181bfc6898f416",
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
    block = max(1, 2**18 // n)
    out = np.empty((replications, probs.shape[0]))
    for c, start in enumerate(range(0, replications, block)):
        size = min(block, replications - start)
        seq = np.random.SeedSequence(entropy=seed, spawn_key=(c,))
        draws = np.random.Generator(np.random.PCG64DXSM(seq)).random((size, n))
        xs = np.searchsorted(edges, draws, side="right")
        for i in range(probs.shape[0]):
            out[start : start + size, i] = ((xs == i) * w).sum(axis=1)
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

    def test_more_observations_than_a_block_holds(self):
        # 300000 > 2**18 observations make one-replication blocks.
        weights = random_weights(np.random.default_rng(17), 300000)
        probs = [0.2, 0.3, 0.5]
        got = replicate_weighted_frequencies(probs, weights, 3, seed=41)
        want = searchsorted_weighted_frequencies(probs, weights, 3, seed=41)
        assert np.array_equal(got, want)

    def test_several_blocks_with_a_partial_last_block(self):
        # 3000 observations make blocks of 2**18 // 3000 = 87 replications:
        # 3000 replications are 34 full blocks and one of 42.
        weights = random_weights(np.random.default_rng(8), 3000)
        probs = [0.1, 0.0, 0.25, 0.4, 0.25]
        got = replicate_weighted_frequencies(probs, weights, 3000, seed=31)
        want = searchsorted_weighted_frequencies(probs, weights, 3000, seed=31)
        assert np.array_equal(got, want)

    @pytest.mark.parametrize("slab_draws", [1, 2**16, 2**18, 2**20])
    def test_slab_size_never_changes_bits(self, monkeypatch, slab_draws):
        # One row per slab, the default, and one slab per block (2**18 and
        # up): the blocks and their streams stay, so the bits stay. At the
        # default, 3000 observations make blocks of 87 replications and slabs
        # of 21, so every full block ends on a slab of 3, and 214
        # replications add a partial block of 40 (slabs of 21 and 19); 70000
        # observations make one-replication slabs in blocks of 3, and 7
        # replications end on a partial block of 1.
        monkeypatch.setattr(simulation, "_SLAB_DRAWS", slab_draws)
        rng = np.random.default_rng(29)
        for n, reps in ((1, 50), (1000, 600), (3000, 214), (70000, 7)):
            weights = random_weights(rng, n)
            probs = [0.25, 0.0, 0.45, 0.3]
            got = replicate_weighted_frequencies(probs, weights, reps, seed=n)
            want = searchsorted_weighted_frequencies(probs, weights, reps, seed=n)
            assert np.array_equal(got, want), (n, reps)


class TestWeightedWorkingMemory:
    """Each worker of ``replicate_weighted_frequencies`` holds buffers for one
    slab of at most ``_SLAB_DRAWS`` draws, 18 bytes a draw, not for a block."""

    @pytest.mark.parametrize("cores", [1, 2])
    def test_peak_stays_within_one_slab_per_worker(self, monkeypatch, cores):
        # 10000 observations make blocks of 26 replications and slabs of 6:
        # 200 replications are 8 blocks, shared over both workers at 2 cores.
        monkeypatch.setattr(simulation, "_available_cores", lambda: cores)
        ramp = np.arange(1, 10001, dtype=float)
        weights = WeightVector(ramp / ramp.sum())
        # The first call imports numpy.random's lazy modules; measure a later one.
        replicate_weighted_frequencies([0.3, 0.7], weights, 200, seed=8)
        tracemalloc.start()
        try:
            out = replicate_weighted_frequencies([0.3, 0.7], weights, 200, seed=8)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak <= cores * 18 * simulation._SLAB_DRAWS * 1.1 + out.nbytes


class TestWeightedWorkers:
    """``replicate_weighted_frequencies`` shares its blocks over one thread
    per available core, at most one per block; the bits never change."""

    def test_worker_count_is_bit_identical(self, pools, monkeypatch):
        # 1000 observations make blocks of 262 replications: 2000 are 8 blocks.
        weights = random_weights(np.random.default_rng(3), 1000)
        probs = [0.15, 0.35, 0.5]
        outputs = []
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for cores in (1, 3, 8):
                monkeypatch.setattr(simulation, "_available_cores", lambda: cores)
                outputs.append(replicate_weighted_frequencies(probs, weights, 2000, seed=23))
        finally:
            sys.setswitchinterval(interval)
        assert pools == [3, 8]
        for out in outputs[1:]:
            assert np.array_equal(out, outputs[0])

    def test_one_block_starts_no_pool(self, pools, monkeypatch):
        monkeypatch.setattr(simulation, "_available_cores", lambda: 4)
        replicate_weighted_frequencies([0.5, 0.5], WeightVector.uniform(1000), 262, seed=1)
        assert pools == []

    def test_blas_thread_count_is_bit_identical(self):
        script = (
            "import hashlib, numpy as np\n"
            "from margfit import WeightVector, replicate_weighted_frequencies\n"
            "ramp = np.arange(1, 10001, dtype=float)\n"
            "out = replicate_weighted_frequencies([0.3, 0.7], WeightVector(ramp / ramp.sum()), 60, 7)\n"
            "print(hashlib.sha256(out.tobytes()).hexdigest())\n"
        )
        src = os.path.dirname(os.path.dirname(simulation.__file__))
        digests = []
        for threads in ("1", "2"):
            env = dict(os.environ, OPENBLAS_NUM_THREADS=threads, PYTHONPATH=src)
            proc = subprocess.run(
                [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
            )
            assert proc.returncode == 0, proc.stderr
            digests.append(proc.stdout.strip())
        assert digests[0] == digests[1]


class TestBlockEngine:
    """``_run_blocks`` draws block c from the stream of ``(*key, c)`` and
    shares the blocks out over its workers without touching the bits."""

    @staticmethod
    def run(seed, key, replications, block, workers):
        """The engine's output for a kernel writing ``rng.random(size)`` into
        its rows, the (start, size) of each block drawn, and the number of
        kernel calls."""
        out = np.full(replications, np.nan)
        drawn, calls = [], []

        def kernel(blocks):
            calls.append(1)
            for rng, start, size in blocks:
                drawn.append((start, size))
                out[start : start + size] = rng.random(size)

        simulation._run_blocks(seed, key, replications, block, kernel, workers)
        return out, sorted(drawn), len(calls)

    @pytest.mark.parametrize("key", [(), (5, 2)])
    def test_worker_count_is_bit_identical(self, pools, key):
        # 1000 replications in blocks of 96: ten full blocks and one of 40.
        seed, reps, block = 31, 1000, 96
        starts = range(0, reps, block)
        want = np.concatenate(
            [_stream(seed, (*key, c)).random(min(block, reps - s)) for c, s in enumerate(starts)]
        )
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)  # switch threads as often as possible
        try:
            for workers in (1, 2, 3, 8):
                got, drawn, calls = self.run(seed, key, reps, block, workers)
                assert np.array_equal(got, want), workers
                assert drawn == [(s, min(block, reps - s)) for s in starts]
                assert calls == workers
        finally:
            sys.setswitchinterval(interval)
        assert pools == [2, 3, 8]

    def test_one_block_starts_no_pool(self, pools):
        _, drawn, calls = self.run(4, (), 5, 8, workers=4)
        assert (drawn, calls, pools) == ([(0, 5)], 1, [])

    def test_workers_beyond_the_blocks_start_one_per_block(self, pools):
        _, drawn, calls = self.run(4, (), 10, 3, workers=8)
        assert (drawn, calls, pools) == ([(0, 3), (3, 3), (6, 3), (9, 1)], 4, [4])


class TestOutputIndependentOfBlasKernel:
    # OpenBLAS picks its kernel by CPU; Haswell fuses multiply-adds and
    # Sandybridge does not, so a value that went through BLAS would differ
    # in its last bits between the two.
    SCRIPT = (
        "import contextlib, hashlib, io, math\n"
        "import numpy as np\n"
        "import margfit\n"
        "from margfit import build_2x2_from_marginals_cpr, exact_reduction\n"
        "from margfit.asymptotics import variance_gap_quadratic\n"
        "from margfit.cli import main\n"
        "from margfit.io import load_gidas_table3, load_study_config\n"
        "from margfit.tables import MarginalDistribution, empirical_joint\n"
        "def stdout(*argv):\n"
        "    out = io.StringIO()\n"
        "    with contextlib.redirect_stdout(out):\n"
        "        assert main(list(argv)) == 0\n"
        "    return out.getvalue()\n"
        "def sha(text):\n"
        "    return hashlib.sha256(text.encode()).hexdigest()\n"
        "gidas = margfit.__path__[0] + '/data/gidas_table3.csv'\n"
        "print(sha(stdout('asymptotics', '--counts', gidas)))\n"
        "print(sha(stdout('simulate', '--config', 'caseII.json', '--replications', '200')))\n"
        "values = []\n"
        "joint = empirical_joint(load_gidas_table3())\n"
        "values += variance_gap_quadratic(joint, np.arange(joint.n_rows, dtype=float))\n"
        "for case in ('I', 'II', 'III'):\n"
        "    cfg = load_study_config(case)\n"
        "    row = MarginalDistribution(cfg.row_marginal)\n"
        "    col = MarginalDistribution(cfg.col_marginal)\n"
        "    for lc in cfg.log_cpr_grid:\n"
        "        table = build_2x2_from_marginals_cpr(row, col, math.exp(lc))\n"
        "        values += variance_gap_quadratic(table, [1.0, 0.0])\n"
        "        values += [exact_reduction(table, n) for n in cfg.n_grid]\n"
        "print(sha(' '.join(v.hex() for v in values)))\n"
    )

    def run(self, coretype, cwd):
        src = os.path.dirname(os.path.dirname(simulation.__file__))
        env = dict(os.environ, OPENBLAS_CORETYPE=coretype, OPENBLAS_VERBOSE="2", PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        cores = [line for line in proc.stderr.splitlines() if line.startswith("Core:")]
        return cores, proc.stdout.split()

    def test_haswell_and_sandybridge_give_the_same_bits(self, tmp_path):
        haswell_core, haswell = self.run("Haswell", tmp_path)
        sandybridge_core, sandybridge = self.run("Sandybridge", tmp_path)
        if haswell_core == sandybridge_core:
            pytest.skip(f"both runs used the same BLAS kernel: {haswell_core}")
        names = ("asymptotics on GIDAS", "simulate case II", "exact/gap sweep")
        assert len(haswell) == len(sandybridge) == len(names)
        assert dict(zip(names, haswell)) == dict(zip(names, sandybridge))


class TestOutputIndependentOfCpuMath:
    # numpy picks its own AVX-512 exp where the CPU has it, and glibc picks
    # FMA variants of exp and pow; a printed value computed through either
    # would differ in its last bits between these environments. The extra
    # config's two log cprs are points where glibc's two exp variants differ.
    SCRIPT = TestOutputIndependentOfBlasKernel.SCRIPT + (
        "print(sha(stdout('simulate', '--config', 'exp_points.json')))\n"
    )
    SETTINGS = ("NPY_DISABLE_CPU_FEATURES", "GLIBC_TUNABLES")
    ENVIRONMENTS = (
        {},
        {"NPY_DISABLE_CPU_FEATURES": "X86_V4 AVX512_ICL AVX512_SPR"},
        {"GLIBC_TUNABLES": "glibc.cpu.hwcaps=-FMA,-AVX2,-FMA4"},
    )

    def run(self, extra, cwd):
        src = os.path.dirname(os.path.dirname(simulation.__file__))
        # The default run is made without either setting, even where the
        # calling environment has one.
        env = {k: v for k, v in os.environ.items() if k not in self.SETTINGS}
        env.update(extra, PYTHONPATH=src)
        proc = subprocess.run(
            [sys.executable, "-c", self.SCRIPT],
            env=env, cwd=cwd, capture_output=True, text=True, timeout=300,
        )
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.split()

    def test_numpy_and_glibc_dispatch_give_the_same_bits(self, tmp_path):
        config = {
            "row_marginal": [0.3, 0.7],
            "col_marginal": [0.6, 0.4],
            "log_cpr_grid": [-4.0599, -2.71569],
            "n_grid": [100],
            "replications": 400,
            "seed": 3,
        }
        (tmp_path / "exp_points.json").write_text(json.dumps(config))
        names = ("asymptotics on GIDAS", "simulate case II", "exact/gap sweep", "simulate")
        runs = [dict(zip(names, self.run(extra, tmp_path))) for extra in self.ENVIRONMENTS]
        assert all(len(digests) == len(names) for digests in runs)
        assert runs == [runs[0]] * len(runs)


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


class TestMarginalInputsAsPlainLists:
    def test_lists_give_the_typed_output(self):
        cells = [[0.3, 0.1, 0.05], [0.1, 0.25, 0.2]]
        col = [0.4, 0.35, 0.25]
        got = replicate_marginal_estimates(cells, col, 30, 500, seed=8)
        want = replicate_marginal_estimates(JointDistribution(cells), marg(col), 30, 500, seed=8)
        assert np.array_equal(got.phat_rows, want.phat_rows)
        assert np.array_equal(got.ptilde_rows, want.ptilde_rows, equal_nan=True)
        assert np.array_equal(got.excluded, want.excluded)

    @pytest.mark.parametrize(
        "cells, col, message",
        [
            ([[0.5, 0.5], [0.5, 0.5]], [0.5, 0.5], "cell probabilities must sum to 1"),
            ([0.5, 0.5], [0.5, 0.5], "2-d table"),
            ([[0.25, 0.25], [0.25, 0.25]], [0.7, 0.7], "marginal entries must sum to 1"),
            ([[0.25, 0.25], [0.25, 0.25]], [1.0, 0.0], "strictly positive"),
        ],
        ids=["cells", "shape", "marginal", "zero-entry"],
    )
    def test_bad_lists_refused(self, cells, col, message):
        with pytest.raises(ValueError, match=message):
            replicate_marginal_estimates(cells, col, 10, 4, 1)


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


class DrawnCounts:
    """A generator stand-in whose ``multinomial`` returns given count vectors,
    so a kernel that draws its counts can be run on counts drawn elsewhere."""

    def __init__(self, counts):
        self.counts = counts

    def multinomial(self, n, pvals, size):
        assert size == len(self.counts)
        return self.counts


def lexicographic_counts(n, k):
    """Every k-tuple of counts summing to n, in lexicographic order."""
    if k == 1:
        return [(n,)]
    return [(x, *rest) for x in range(n + 1) for rest in lexicographic_counts(n - x, k - 1)]


def exact_multinomial(flat_cells, n):
    """The count vectors of n draws over the cells, in lexicographic order,
    and their exact multinomial probabilities as integer numerators over one
    denominator: with the cells' doubles written as A_k / D, outcome x has
    probability (prod_k comb(n - x_1 - ... - x_{k-1}, x_k) A_k**x_k) / (sum_k
    A_k)**n, the law of the cells rescaled to sum to 1."""
    probs = [Fraction(float(v)) for v in flat_cells]
    den = math.lcm(*(p.denominator for p in probs))
    big = [int(p * den) for p in probs]
    powers = [[a**c for c in range(n + 1)] for a in big]
    outcomes = lexicographic_counts(n, len(big))
    numerators = []
    for x in outcomes:
        value, left = 1, n
        for k, c in enumerate(x):
            value *= math.comb(left, c) * powers[k][c]
            left -= c
        numerators.append(value)
    return outcomes, numerators, sum(big) ** n


def table_rule_estimates(flat_cells, col_probs, dims, n, size, rng):
    """Reference for a block of a cell drawn from its outcome table: the
    outcomes of :func:`exact_multinomial`, the exact running sums of their
    probabilities each rounded once to a double as the CDF, outcome
    ``np.searchsorted(cdf, u, side="right")`` for each of ``size`` doubles u
    of ``rng``, reduced by :func:`reference_chunk_estimates`. This CDF and the
    kernel's differ by rounding alone, under 1e-12, so the two could pick
    different outcomes only for a u that close to a CDF value."""
    outcomes, numerators, total = exact_multinomial(flat_cells, n)
    cdf = np.array([float(Fraction(s, total)) for s in itertools.accumulate(numerators)])
    index = np.searchsorted(cdf, rng.random(size), side="right")
    drawn = DrawnCounts(np.array(outcomes)[index])
    return reference_chunk_estimates(flat_cells, col_probs, dims, n, size, drawn)


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
        # n = 20 on a 2x2 table is a cell drawn from its outcome table.
        reps = 10000
        assert 2 * CHUNK_REPLICATIONS < reps < 3 * CHUNK_REPLICATIONS
        col = marg([0.9, 0.1])
        table = JointDistribution([[0.6, 0.06], [0.3, 0.04]])
        got = replicate_marginal_estimates(table, col, 20, reps, seed=4, stream_key=(7,))
        parts = [
            table_rule_estimates(
                table.cells.ravel(), col.probs, (2, 2), 20, size, _stream(4, (7, c))
            )
            for c, size in enumerate((CHUNK_REPLICATIONS, CHUNK_REPLICATIONS, reps - 8192))
        ]
        want = [np.concatenate(arrays) for arrays in zip(*parts)]
        assert want[2].any()
        assert np.array_equal(got.phat_rows, want[0])
        assert np.array_equal(got.ptilde_rows, want[1], equal_nan=True)
        assert np.array_equal(got.excluded, want[2])

    def test_multinomial_cell_over_two_full_chunks_and_a_partial_one(self):
        # n = 1000 is above the outcome-table cap; the second column is thin
        # enough to be empty in about 5 % of the replications.
        reps = 10000
        col = marg([0.9, 0.1])
        table = JointDistribution([[0.6, 0.002], [0.397, 0.001]])
        got = replicate_marginal_estimates(table, col, 1000, reps, seed=4, stream_key=(7,))
        parts = [
            reference_chunk_estimates(
                table.cells.ravel(), col.probs, (2, 2), 1000, size, _stream(4, (7, c))
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


class TestOutcomeTable:
    """A cell with at most TABLE_OUTCOMES possible count tables draws an
    outcome index from its exact table, checked here against stdlib
    references."""

    # Two 2x2 tables (case II at log cpr 2, and one with a thin column and an
    # empty cell) and one 2x3 table with a thin column.
    TABLES = [
        study_table("II", 2.0)[0].cells,
        [[0.5, 0.0], [0.499, 0.001]],
        [[0.25, 0.125, 0.002], [0.3, 0.3, 0.023]],
    ]

    @pytest.mark.parametrize("n", [1, 2, 3, 20])
    def test_pmf_is_the_exact_multinomial(self, n):
        # A count x_k at distance d_k from its factor's mode takes d_k
        # divisions by (or of) the rounded n * p_k and d_k - 1 products, and
        # sum_k d_k <= 2n; the K factors take K - 1 products: a = 6n + K
        # roundings per weight. Their sum of M terms adds M - 1 and the
        # division one, so each probability lies within gamma(2a + M).
        for cells in self.TABLES:
            flat = np.array(cells, dtype=float).ravel()
            counts, pmf, _ = simulation._outcome_table(flat, n)
            outcomes, numerators, total = exact_multinomial(flat, n)
            assert counts.tolist() == [list(x) for x in outcomes]
            bound = Fraction(gamma(2 * (6 * n + flat.size) + len(outcomes)))
            for value, exact in zip(pmf.tolist(), numerators):
                num, den = value.as_integer_ratio()
                # |value - exact / total| <= bound * exact / total, in integers
                error = abs(num * total - exact * den) * bound.denominator
                assert error <= bound.numerator * exact * den, (cells, n, value)

    @pytest.mark.parametrize("n", [2, 57, 400])
    def test_two_cell_pmf_is_the_exact_binomial(self, n):
        # exact_reduction reads N1's law from a two-cell table, whose n + 1
        # outcomes stay under the draw cap at any n. The bound above holds
        # while no rounding underflows. A factor is a running product of
        # ratios <= 1, so every step of a weight is at least the weight,
        # p * S; the weights sum to S = (n**n / n!) / prod_k (m**d / d!) >=
        # 1 / (e sqrt(n)), as each m**d / d! <= e**m and n! <= e n**n sqrt(n)
        # / e**n. So a probability p >= (isqrt(n) + 1) / 2**1020 is held to the
        # bound, and a smaller one underflows towards 0 and stays below twice that.
        small = (math.isqrt(n) + 1) * 2.0**-1020
        for b in (0.3, 0.9, 1e-9, 1.0 - 1e-9):
            flat = np.array([b, 1.0 - b])
            counts, pmf, _ = simulation._outcome_table(flat, n)
            outcomes, numerators, total = exact_multinomial(flat, n)
            assert counts.tolist() == [list(x) for x in outcomes]
            bound = Fraction(gamma(2 * (6 * n + flat.size) + len(outcomes)))
            for value, exact in zip(pmf.tolist(), numerators):
                if exact << 1020 < total * (math.isqrt(n) + 1):
                    assert 0.0 <= value < 2 * small, (b, n, value)
                    continue
                num, den = value.as_integer_ratio()
                error = abs(num * total - exact * den) * bound.denominator
                assert error <= bound.numerator * exact * den, (b, n, value)

    def test_guide_table_index_is_the_searchsorted_rule(self):
        u_rng = _stream(29, ())
        for cells in self.TABLES:
            for n in (1, 3, 20):
                flat = np.array(cells, dtype=float).ravel()
                _, _, cdf = simulation._outcome_table(flat, n)
                assert cdf[-1] == 1.0
                inner = cdf[cdf < 1.0]  # a draw is below 1
                u = np.concatenate(
                    (
                        [0.0, np.nextafter(1.0, 0.0)],
                        inner,
                        np.nextafter(inner, 0.0),
                        np.nextafter(inner, 1.0),
                        u_rng.random(2000),
                    )
                )
                guide = simulation._guide_table(cdf)
                got = simulation._outcome_index(cdf, guide, u)
                assert np.array_equal(got, np.searchsorted(cdf, u, side="right")), (cells, n)

    def test_edge_draws_through_replicate_marginal_estimates(self, monkeypatch):
        # u = 0, every CDF value below 1 and the largest double below 1, in
        # place of a table cell's stream doubles, over more than one block.
        table, col = JointDistribution(self.TABLES[1]), marg([0.6, 0.4])
        flat = table.cells.ravel()
        counts, _, cdf = simulation._outcome_table(flat, 20)
        u = np.tile(np.concatenate(([0.0], cdf[cdf < 1.0], [np.nextafter(1.0, 0.0)])), 3)
        assert u.size > CHUNK_REPLICATIONS

        class Doubles:
            def __init__(self, block):
                self.start = block * CHUNK_REPLICATIONS

            def random(self, size):
                return u[self.start : self.start + size]

        monkeypatch.setattr(simulation, "_stream", lambda seed, key: Doubles(key[-1]))
        got = replicate_marginal_estimates(table, col, 20, u.size, seed=0)
        drawn = DrawnCounts(counts[np.searchsorted(cdf, u, side="right")])
        want = _chunk_estimates(flat, col.probs, (2, 2), 20, u.size, drawn)
        assert np.array_equal(got.phat_rows, want[0])
        assert np.array_equal(got.ptilde_rows, want[1], equal_nan=True)
        assert np.array_equal(got.excluded, want[2])

    def test_estimates_are_the_chunk_kernel_on_the_drawn_counts(self):
        reps = 2 * CHUNK_REPLICATIONS + 7
        excluded_seen = 0
        for cells, known, n, rows in [
            (self.TABLES[1], [0.6, 0.4], 20, None),
            (self.TABLES[2], [0.5, 0.3, 0.2], 3, (1,)),
            ([[0.2, 0.001], [0.5, 0.099], [0.1, 0.1]], [0.6, 0.4], 4, (2, 0)),
        ]:
            table, col = JointDistribution(cells), marg(known)
            flat, dims = table.cells.ravel(), table.dims
            got = replicate_marginal_estimates(table, col, n, reps, 12, (4,), rows=rows)
            counts, _, cdf = simulation._outcome_table(flat, n)
            parts = []
            for c, start in enumerate(range(0, reps, CHUNK_REPLICATIONS)):
                size = min(CHUNK_REPLICATIONS, reps - start)
                index = np.searchsorted(cdf, _stream(12, (4, c)).random(size), side="right")
                drawn = DrawnCounts(counts[index])
                parts.append(_chunk_estimates(flat, col.probs, dims, n, size, drawn, rows))
            want = [np.concatenate(arrays) for arrays in zip(*parts)]
            assert np.array_equal(got.phat_rows, want[0])
            assert np.array_equal(got.ptilde_rows, want[1], equal_nan=True)
            assert np.array_equal(got.excluded, want[2])
            excluded_seen += int(got.excluded.sum())
        assert excluded_seen > 0

    @pytest.mark.parametrize("n, from_table", [(56, True), (57, False)])
    def test_cap_on_a_two_by_two_cell(self, monkeypatch, n, from_table):
        assert (math.comb(n + 3, 3) <= simulation.TABLE_OUTCOMES) == from_table
        calls = []
        for name in ("_outcome_table", "_chunk_estimates"):
            original = getattr(simulation, name)

            def recording(*args, _original=original, _name=name, **kwargs):
                calls.append(_name)
                return _original(*args, **kwargs)

            monkeypatch.setattr(simulation, name, recording)
        table, col = JointDistribution(self.TABLES[0]), marg([0.7, 0.3])
        got = replicate_marginal_estimates(table, col, n, 300, seed=5, stream_key=(2,))
        assert calls == (["_outcome_table"] if from_table else ["_chunk_estimates"])
        if not from_table:  # numpy's multinomial, with the bits it always had
            args = (table.cells.ravel(), col.probs, (2, 2), n, 300, _stream(5, (2, 0)))
            want = reference_chunk_estimates(*args)
            assert np.array_equal(got.phat_rows, want[0])
            assert np.array_equal(got.ptilde_rows, want[1], equal_nan=True)


def grown(*errors):
    """The relative error (1 + e_1)(1 + e_2)... - 1 of a product of factors."""
    return math.prod(1.0 + e for e in errors) - 1.0


class TestOutcomeTableGivesExactReduction:
    """The reduction over the kept outcomes of the table that draws a cell with
    n <= 56, weighted by their pmf, is :func:`exact_reduction`, on the 25 log
    cprs of cases I-III at n = 20 and 56.

    Both round R = 1 - Vt/Vh of the law P* that exact_reduction reads: column
    b, rows q1 = p11/b and q2 = p12/(1 - b) as doubles, the adjustment to
    (b, 1 - b), and N1 in 1..n-1. Each variance V lies within a relative eps
    of P*'s, from these facts, with u the unit roundoff:
    - a pmf within gamma(k) of a law whose cells are within rho of P*'s has
      kept, renormalised weights w within a factor 1 + g of P*'s w*, g =
      ((1 + rho)/(1 - rho))**n (1 + gamma(k))/(1 - gamma(k)) - 1, with k =
      2(6n + K) + M as test_pmf_is_the_exact_multinomial derives. A sum of
      positive terms under w is within 1 + g of its value under w*, and so is
      a variance, since each law's mean minimises its weighted squares;
    - centred values within e of exact ones move the root of their weighted
      squares by at most e (the triangle inequality);
    - a sum of m terms of k roundings each is within gamma(m - 1 + k), and
      (1 + theta_j)/(1 + theta_k) within gamma(j + k) (Higham, Lemma 3.3).
    Vt/Vh then lies within (1 + eps_t)(1 + u)/(1 - eps_h) - 1 of P*'s ratio,
    and each R within that times 1 - R, plus u|R| for the last subtraction.
    gamma(1) stands for u, which it exceeds.
    """

    @staticmethod
    def weight_error(law, model, n, k):
        """g for a pmf within gamma(k) of ``law``, against ``model``'s cells."""
        rho = float(max(abs(a / m - 1) for a, m in zip(law, model)))
        return ((1 + rho) / (1 - rho)) ** n * (1 + gamma(k)) / (1 - gamma(k)) - 1

    @staticmethod
    def variance_error(v, k, g, e):
        """eps of a variance computed as v = (1 + theta_k) sum w d**2, with
        weights within 1 + g and centred values d within e of exact ones."""
        root = (math.sqrt(v / (1 + gamma(k))) - e) / math.sqrt(1 + g)  # <= the exact root
        high = (1 + gamma(k)) * (math.sqrt(1 + g) + e / root) ** 2 - 1
        low = 1 - (1 - gamma(k)) * (1 / math.sqrt(1 + g) - e / root) ** 2
        return max(high, low)

    @staticmethod
    def reduction_error(reduction, eps_tilde, eps_hat):
        ratio = (1 + eps_tilde) * (1 + gamma(1)) / (1 - eps_hat) - 1
        last = 2 * gamma(1) * abs(reduction)
        return (abs(1 - reduction) + last) * ratio * (1 + 2 * ratio) + last

    @pytest.mark.parametrize("case", ["I", "II", "III"])
    def test_bundled_grids_at_n_20_and_56(self, case):
        for lc in load_study_config(case).log_cpr_grid:
            table, _ = study_table(case, lc)
            flat = table.cells.ravel()
            b = float(table.cells[:, 0].sum())
            q1, q2 = table.cells[0, 0] / b, table.cells[0, 1] / (1.0 - b)
            fb, fq1, fq2 = Fraction(b), Fraction(q1), Fraction(q2)
            model = [fb * fq1, (1 - fb) * fq2, fb * (1 - fq1), (1 - fb) * (1 - fq2)]
            law = [Fraction(v) / sum(map(Fraction, flat.tolist())) for v in flat.tolist()]
            rest = Fraction(1.0 - b)
            two_cells = [fb / (fb + rest), rest / (fb + rest)]
            for n in (20, 56):
                counts, pmf, _ = simulation._outcome_table(flat, n)
                phat, ptilde, excluded = simulation._count_estimates(
                    counts, np.array([b, 1.0 - b]), (2, 2), n, (0,)
                )
                kept, weight = ~excluded, pmf[~excluded]
                m, total = int(kept.sum()), weight.sum()
                variances, eps = [], []
                g = self.weight_error(law, model, n, 2 * (6 * n + 4) + pmf.size)
                for x in (phat[kept, 0], ptilde[kept, 0]):
                    mean = (weight * x).sum() / total
                    variances.append((weight * (x - mean) ** 2).sum() / total)
                    # x within gamma(4) of P*'s values (ptilde's target 1 - b
                    # is rounded), so within gamma(5) |x| of them, and the mean
                    # within gamma(2m) of its weighted sum: e <= (2 gamma(5) +
                    # gamma(2m)) max |x|. The squares' sum over the total
                    # takes 2m + 3 roundings.
                    e = gamma(2 * m + 10) * np.abs(x).max()
                    eps.append(self.variance_error(variances[-1], 2 * m + 3, g, e))
                enumerated = 1.0 - variances[1] / variances[0]
                error = self.reduction_error(enumerated, eps[1], eps[0])

                # exact_reduction: weights within gamma(n) after its
                # renormalisation; mean_k within gamma(2n - 1), so n - mean_k
                # within n - 1 times that, as 1 <= mean_k <= n - 1; 9
                # roundings in each weighted term of Vt; 5 in each of mean_k
                # v1 / n**2, (n - mean_k) v2 / n**2 and gap**2 var_k / n**2,
                # and 1 in their sum.
                exact = exact_reduction(table, n)
                g = self.weight_error(two_cells, [fb, 1 - fb], n, 2 * (6 * n + 2) + n + 1)
                w = simulation._outcome_table(np.array([b, 1.0 - b]), n)[1][1:n]
                w /= w.sum()
                k = np.arange(1, n)
                mean_k = (w * k).sum()
                var_k = (w * (k - mean_k) ** 2).sum()
                eps_mean = grown(g, gamma(2 * n - 1))
                eps_rest = grown((n - 1) * eps_mean, gamma(1))
                eps_var_k = self.variance_error(var_k, 2 * n + 2, g, gamma(2 * n - 1) * (n - 1))
                eps_first = grown(max(eps_mean, eps_rest), gamma(5))
                eps_hat = grown(max(eps_first, grown(eps_var_k, gamma(5))), gamma(1))
                error += self.reduction_error(exact, grown(g, gamma(2 * n + 7)), eps_hat)

                assert m == pmf.size - 2 * (n + 1)  # kept: N1 in 1..n-1
                assert abs(enumerated - exact) <= error, (case, lc, n, enumerated, exact, error)


def row_subsets(rng, n_rows):
    """Row selections of an I-row table: first, last, reversed, random."""
    picked = rng.choice(n_rows, size=int(rng.integers(1, n_rows + 1)), replace=False)
    return [(0,), (n_rows - 1,), tuple(range(n_rows))[::-1], tuple(int(i) for i in picked)]


class TestRowSubsetMatchesAllRows:
    """Estimating only some rows gives, bit for bit, those rows' columns of
    the all-rows result, NaN included."""

    def test_chunk_kernel(self):
        rng = np.random.default_rng(707)
        excluded_seen = 0
        for n_rows in range(2, 6):
            for n_cols in range(2, 10):
                for n in (1, 3, 20, 1000):
                    thin = bool(rng.integers(2))
                    flat, col = random_chunk_inputs(rng, n_rows, n_cols, thin_column=thin)
                    args = (flat, col, (n_rows, n_cols), n, int(rng.integers(1, 700)))
                    key = (n_rows, n_cols, n)
                    every = _chunk_estimates(*args, _stream(5, key))
                    for rows in row_subsets(rng, n_rows):
                        got = _chunk_estimates(*args, _stream(5, key), rows=rows)
                        assert np.array_equal(got[0], every[0][:, rows]), (key, rows)
                        assert np.array_equal(got[1], every[1][:, rows], equal_nan=True)
                        assert np.array_equal(got[2], every[2])
                    excluded_seen += int(every[2].sum())
        assert excluded_seen > 0

    def test_replicate_marginal_estimates(self):
        rng = np.random.default_rng(708)
        for n_rows in range(2, 6):
            for n_cols in range(2, 10):
                for n in (1, 3, 20, 1000):
                    thin = bool(rng.integers(2))
                    flat, col = random_chunk_inputs(rng, n_rows, n_cols, thin_column=thin)
                    table = JointDistribution(flat.reshape(n_rows, n_cols))
                    args = (table, marg(col), n, int(rng.integers(2, 300)), 6)
                    every = replicate_marginal_estimates(*args, stream_key=(n_rows, n_cols))
                    for rows in row_subsets(rng, n_rows):
                        got = replicate_marginal_estimates(
                            *args, stream_key=(n_rows, n_cols), rows=rows
                        )
                        key = (n_rows, n_cols, n, rows)
                        assert np.array_equal(got.phat_rows, every.phat_rows[:, rows]), key
                        assert np.array_equal(
                            got.ptilde_rows, every.ptilde_rows[:, rows], equal_nan=True
                        ), key
                        assert np.array_equal(got.excluded, every.excluded), key

    def test_over_several_blocks_each_row_is_contiguous(self):
        reps = 2 * CHUNK_REPLICATIONS + 5
        table = JointDistribution([[0.3, 0.02, 0.1], [0.2, 0.03, 0.35]])
        col = marg([0.5, 0.05, 0.45])
        every = replicate_marginal_estimates(table, col, 20, reps, seed=8, stream_key=(3,))
        got = replicate_marginal_estimates(table, col, 20, reps, 8, (3,), rows=(1,))
        assert every.excluded.any()
        assert np.array_equal(got.phat_rows, every.phat_rows[:, [1]])
        assert np.array_equal(got.ptilde_rows, every.ptilde_rows[:, [1]], equal_nan=True)
        for result in (every, got):
            for k in range(result.phat_rows.shape[1]):
                assert result.phat_rows[:, k].flags.c_contiguous
                assert result.ptilde_rows[:, k].flags.c_contiguous

    @pytest.mark.parametrize(
        "rows", [(), [], (2,), (0, 2), (-1,), (True,), (0.5,), ("0",), "0", 0, {0}]
    )
    def test_bad_rows_refused(self, rows):
        with pytest.raises(ValueError, match="rows"):
            replicate_marginal_estimates(SYMMETRIC_2X2, marg([0.5, 0.5]), 10, 4, 1, rows=rows)

    def test_run_experiment_equals_cells_from_all_rows(self):
        # n <= 3 from a skewed column marginal, so that excluded
        # replications and error cells both occur.
        cfg = ExperimentConfig(
            row_marginal=(0.4, 0.6),
            col_marginal=(0.8, 0.2),
            log_cpr_grid=(-1.0, 0.0, 2.0, 800.0),
            n_grid=(1, 2, 3, 50),
            replications=400,
            seed=13,
        )
        row = marg(cfg.row_marginal)
        col = marg(cfg.col_marginal)
        want = []
        for k, (n, lc) in enumerate((n, lc) for n in cfg.n_grid for lc in cfg.log_cpr_grid):
            cpr = float(decimal.Decimal.from_float(lc).exp(decimal.Context(prec=40, traps=[])))
            try:
                table = build_2x2_from_marginals_cpr(row, col, cpr)
            except ValueError as exc:
                want.append(simulation.GridCell(n, lc, error=str(exc)))
                continue
            asym_pct = 100.0 * asymptotic_reduction(table, 0)
            reps = replicate_marginal_estimates(
                table, col, n, cfg.replications, cfg.seed, stream_key=(k,)
            )
            want.append(
                simulation._aggregate_cell(
                    n,
                    lc,
                    asym_pct,
                    cfg.row_marginal[0],
                    reps.phat_rows[:, 0],
                    reps.ptilde_rows[:, 0],
                    reps.excluded,
                )
            )
        got = run_experiment(cfg, workers=1).cells
        assert got == tuple(want)
        assert any(c.error and "fewer than 2" in c.error for c in got)
        assert any(c.error is None and c.zero_column_events for c in got)


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


class TestSizesBeyondInt64:
    def test_sample_size(self):
        col = marg([0.5, 0.5])
        with pytest.raises(ValueError, match="^sample size must lie in the int64 range$"):
            replicate_marginal_estimates(SYMMETRIC_2X2, col, 2**63, 4, 1)

    def test_replications(self):
        col = marg([0.5, 0.5])
        for reps in (2**63, 1e300):
            with pytest.raises(ValueError, match="^replications must lie in the int64 range$"):
                replicate_marginal_estimates(SYMMETRIC_2X2, col, 10, reps, 1)
        with pytest.raises(ValueError, match="^replications must lie in the int64 range$"):
            replicate_weighted_frequencies([0.5, 0.5], WeightVector.uniform(4), 2**63, 1)

    @pytest.mark.parametrize(
        ("field_name", "value", "message"),
        [
            ("n_grid", (2**63,), "each n_grid entry must lie in the int64 range"),
            ("n_grid", (1e19,), "each n_grid entry must lie in the int64 range"),
            ("replications", 1e300, "replications must lie in the int64 range"),
        ],
    )
    def test_config(self, field_name, value, message):
        with pytest.raises(ValueError) as excinfo:
            small_config(**{field_name: value})
        assert str(excinfo.value) == message

    def test_largest_sizes_and_seeds_are_kept(self):
        cfg = small_config(n_grid=(2**63 - 1,), replications=2**63 - 1, seed=2**64 - 1)
        assert cfg.n_grid == (2**63 - 1,)
        assert cfg.replications == 2**63 - 1 and cfg.seed == 2**64 - 1
        reps = replicate_marginal_estimates(SYMMETRIC_2X2, marg([0.5, 0.5]), 10, 4, 2**64 - 1)
        assert reps.phat_rows.shape == (4, 2)


class TestMultinomialSizeCap:
    """numpy's multinomial overstates the variance from n = 2**62 on (README,
    Simulation config), so no draw of that size is made."""

    MESSAGE = f"sample size {2**62} >= 2**62: numpy's multinomial is inexact there"

    def test_sample_refuses_2_62(self):
        with pytest.raises(ValueError) as excinfo:
            sample(SYMMETRIC_2X2, 2**62, 1)
        assert str(excinfo.value) == self.MESSAGE

    def test_replicates_refuse_2_62(self):
        with pytest.raises(ValueError) as excinfo:
            replicate_marginal_estimates(SYMMETRIC_2X2, marg([0.5, 0.5]), 2**62, 4, 1)
        assert str(excinfo.value) == self.MESSAGE

    def test_one_below_the_cap_still_draws(self):
        assert sample(SYMMETRIC_2X2, 2**62 - 1, 1).total == 2**62 - 1
        reps = replicate_marginal_estimates(SYMMETRIC_2X2, marg([0.5, 0.5]), 2**62 - 1, 4, 1)
        assert reps.phat_rows.shape == (4, 2) and np.isfinite(reps.phat_rows).all()

    def test_grid_cell_at_the_cap_is_an_error_cell(self):
        cfg = small_config(n_grid=(2**62 - 1, 2**62), log_cpr_grid=(0.0,), replications=20)
        below, at = run_experiment(cfg).cells
        assert below.n == 2**62 - 1 and below.error is None
        assert math.isfinite(below.reduction_pct)
        assert at.n == 2**62 and at.error == self.MESSAGE


class TestReachableChecks:
    @pytest.mark.parametrize(
        ("overrides", "message"),
        [
            ({"log_cpr_grid": ()}, "log_cpr_grid must be non-empty and finite"),
            ({"log_cpr_grid": (0.0, math.inf)}, "log_cpr_grid must be non-empty and finite"),
            ({"log_cpr_grid": (math.nan,)}, "log_cpr_grid must be non-empty and finite"),
            ({"n_grid": (20, 0)}, "n_grid must be non-empty with entries >= 1"),
        ],
    )
    def test_experiment_config(self, overrides, message):
        with pytest.raises(ValueError) as excinfo:
            small_config(**overrides)
        assert str(excinfo.value) == message

    def test_known_marginal_of_the_wrong_length(self):
        with pytest.raises(ValueError) as excinfo:
            replicate_marginal_estimates(SYMMETRIC_2X2, marg([0.2, 0.3, 0.5]), 10, 4, 1)
        assert str(excinfo.value) == "known marginal length must match the number of columns"

    def test_find_a_missing_cell(self):
        grid = run_experiment(small_config(n_grid=(20,), log_cpr_grid=(0.0,), replications=2))
        assert grid.find(20, 0.0) is grid.cells[0]
        for n, log_cpr in ((20, 1.0), (21, 0.0), (20, 1e-9)):
            with pytest.raises(KeyError, match=f"no grid cell at n={n}, log_cpr={log_cpr}"):
                grid.find(n, log_cpr)
