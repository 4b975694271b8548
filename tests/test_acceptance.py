"""Acceptance suite: one test per exit criterion, at its stated tolerance.

Each criterion prints a single PASS/FAIL line (run with ``pytest -v -s`` to
see them live); stated runtime budgets are enforced.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest

from helpers import bounded_random_joint, dependent_table, outer_product_table, random_joint
from margfit import (
    ExperimentConfig,
    MarginalDistribution,
    WeightVector,
    adjust_to_known_marginal,
    adjusted_marginal_covariance,
    build_2x2_from_marginals_cpr,
    cross_product_ratios,
    effective_sample_factor,
    expected_conditional_covariance,
    ipf_column_step,
    marginal_covariance,
    multinomial_covariance,
    replicate_marginal_estimates,
    replicate_weighted_frequencies,
    run_case_study,
    run_experiment,
    variance_gap_quadratic,
)
from margfit.io import (
    load_destatis2014,
    load_gidas_table3,
    load_study_config,
    render_grid_csv,
)
from margfit.tables import JointDistribution


@contextmanager
def criterion(number: int, name: str, max_seconds: float | None = None):
    start = time.perf_counter()
    try:
        yield
        elapsed = time.perf_counter() - start
        if max_seconds is not None and elapsed >= max_seconds:
            raise AssertionError(
                f"runtime {elapsed:.2f}s exceeds the {max_seconds}s budget"
            )
    except BaseException:
        print(f"[criterion {number}] {name}: FAIL")
        raise
    print(f"[criterion {number}] {name}: PASS ({elapsed:.2f}s)")


def marg(values):
    return MarginalDistribution(values)


def thousand_tables():
    rng = np.random.default_rng(20250809)
    return [random_joint(rng) for _ in range(1000)]


def test_criterion_1_oracle_equivalence():
    with criterion(1, "closed form equals conditional-covariance oracle", 1.0):
        for table in thousand_tables():
            closed = adjusted_marginal_covariance(table).entries
            enumerated = expected_conditional_covariance(table).entries
            assert np.abs(closed - enumerated).max() < 1e-12


def test_criterion_2_psd_ordering():
    with criterion(2, "plain covariance dominates adjusted covariance", 2.0):
        for table in thousand_tables():
            gap = (
                marginal_covariance(table).entries
                - adjusted_marginal_covariance(table).entries
            )
            assert float(np.linalg.eigvalsh(gap).min()) >= -1e-10
        rng = np.random.default_rng(77)
        for _ in range(100):
            independent = outer_product_table(
                rng, int(rng.integers(2, 7)), int(rng.integers(2, 7))
            )
            gap = (
                marginal_covariance(independent).entries
                - adjusted_marginal_covariance(independent).entries
            )
            assert np.abs(gap).max() < 1e-12
        for _ in range(100):
            dependent = dependent_table(
                rng, int(rng.integers(2, 7)), int(rng.integers(2, 7))
            )
            gap = (
                marginal_covariance(dependent).entries
                - adjusted_marginal_covariance(dependent).entries
            )
            assert np.abs(gap).max() > 1e-6


def test_criterion_3_quadratic_form_identity():
    with criterion(3, "matrix quadratic form equals enumerated variance"):
        rng = np.random.default_rng(303)
        for _ in range(1000):
            table = random_joint(rng)
            c = rng.uniform(-1.0, 1.0, table.n_rows)
            gap, direct = variance_gap_quadratic(table, c)
            assert abs(gap - direct) < 1e-12
            assert gap >= -1e-12 and direct >= -1e-12


def test_criterion_4_monte_carlo_clt():
    with criterion(4, "scaled replication variances match both limits", 30.0):
        table = build_2x2_from_marginals_cpr(
            marg([0.5, 0.5]), marg([0.5, 0.5]), 9.0
        )
        n, reps_count = 10000, 20000
        reps = replicate_marginal_estimates(
            table, marg([0.5, 0.5]), n, reps_count, seed=4
        )
        assert not reps.excluded.any()
        var_adjusted = n * float(np.var(reps.ptilde_rows[:, 0], ddof=1))
        var_plain = n * float(np.var(reps.phat_rows[:, 0], ddof=1))
        assert abs(var_adjusted - 0.1875) <= 0.05 * 0.1875
        assert abs(var_plain - 0.25) <= 0.05 * 0.25


def test_criterion_5_figure_level_reproduction():
    with criterion(5, "grid study reproduces the analytic limits", 300.0):
        # Strong-dependence spot check: 25% reduction at cpr=9, n=10000.
        spot = run_experiment(
            ExperimentConfig(
                row_marginal=(0.5, 0.5),
                col_marginal=(0.5, 0.5),
                log_cpr_grid=(math.log(9.0),),
                n_grid=(10000,),
                replications=20000,
                seed=1,
            )
        ).cells[0]
        assert spot.reduction_pct == pytest.approx(25.0, abs=2.0)
        assert spot.asymptotic_pct == pytest.approx(25.0, abs=1e-9)

        # Full three-configuration study at desk scale.
        bands = {100: 5.0, 1000: 3.0, 10000: 2.0}
        for case in ("I", "II", "III"):
            cfg = load_study_config(case)
            grid = run_experiment(cfg)
            assert all(cell.error is None for cell in grid.cells)
            for cell in grid.cells:
                assert -100.0 <= cell.reduction_pct <= 100.0
                # Zero-column replications are (1-b)^n-rare for n >= 100.
                if cell.n >= 100:
                    assert cell.zero_column_events < 0.001 * cfg.replications
                # Finite-n reductions approach the analytic value.
                if cell.n in bands:
                    assert abs(cell.reduction_pct - cell.asymptotic_pct) <= bands[cell.n]
            # Independent marginals: no gain, and a slight small-n penalty.
            for n in cfg.n_grid:
                independent = grid.find(n, 0.0)
                if n >= 100:
                    assert abs(independent.reduction_pct) <= 2.0
                else:
                    assert independent.reduction_pct <= 0.5


def test_criterion_6_case_study():
    with criterion(6, "accident case study matches published unadjusted column", 0.1):
        result = run_case_study(load_gidas_table3(), load_destatis2014())
        rounded = np.round(100 * result.phat_vector, 1)
        np.testing.assert_array_equal(
            rounded, [11.4, 32.4, 28.7, 15.2, 6.9, 3.0, 1.4, 0.9]
        )
        rel = [row.relative_difference_pct for row in result.rows]
        assert all(r > 0 for r in rel[:3]), "low speed-reduction rows must gain mass"
        assert all(r < 0 for r in rel[3:]), "high speed-reduction rows must lose mass"
        assert result.zero_column_mask == frozenset()
        assert result.ptilde_vector.sum() == pytest.approx(1.0, abs=1e-12)


def test_criterion_7_weighting_penalty():
    with criterion(7, "non-uniform weights always inflate variance"):
        rng = np.random.default_rng(707)
        for _ in range(1000):
            n = int(rng.integers(2, 400))
            raw = rng.random(n) + 1e-6
            factor = effective_sample_factor(WeightVector(raw / raw.sum()))
            assert factor > 1.0 / n
        assert effective_sample_factor(WeightVector.uniform(250)) == pytest.approx(
            1.0 / 250, abs=1e-16
        )

        n, reps_count = 10000, 20000
        ramp = np.arange(1, n + 1, dtype=float)
        weights = WeightVector(ramp / ramp.sum())
        estimates = replicate_weighted_frequencies([0.3, 0.7], weights, reps_count, seed=6)
        scaled = float(np.var(estimates[:, 0], ddof=1)) / effective_sample_factor(weights)
        target = multinomial_covariance([0.3, 0.7]).entries[0, 0]
        assert abs(scaled - target) <= 0.05 * target


def test_criterion_8_structural_properties():
    with criterion(8, "structural invariants of the adjustment", 10.0):
        rng = np.random.default_rng(808)

        # Cross-product ratios survive the adjustment.
        for _ in range(100):
            table = bounded_random_joint(rng)
            target = 0.1 + rng.random(table.n_cols)
            target = marg(target / target.sum())
            adjusted = adjust_to_known_marginal(table, target)
            before = cross_product_ratios(table).ratios
            after = cross_product_ratios(JointDistribution(adjusted.cells)).ratios
            defined = np.isfinite(before)
            np.testing.assert_allclose(after[defined], before[defined], atol=1e-12)

        # Unmasked columns are calibrated exactly.
        for _ in range(100):
            table = random_joint(rng)
            target = 0.1 + rng.random(table.n_cols)
            target = marg(target / target.sum())
            adjusted = adjust_to_known_marginal(table, target)
            assert np.abs(adjusted.cells.sum(axis=0) - target.probs).max() < 1e-12

        # The adjustment is the first IPF half-step, bit for bit.
        for _ in range(100):
            table = random_joint(rng)
            target = 0.1 + rng.random(table.n_cols)
            target = marg(target / target.sum())
            assert np.array_equal(
                ipf_column_step(table, target),
                adjust_to_known_marginal(table, target).cells,
            )

        # Any parallel schedule reproduces the serial run exactly.
        cfg = ExperimentConfig(
            row_marginal=(0.9, 0.1),
            col_marginal=(0.7, 0.3),
            log_cpr_grid=(-2.0, 0.0, 2.0),
            n_grid=(50, 500),
            replications=6000,
            seed=88,
        )
        serial = run_experiment(cfg, workers=1)
        for workers in (2, 5):
            parallel = run_experiment(cfg, workers=workers)
            assert parallel.cells == serial.cells
            assert render_grid_csv(parallel) == render_grid_csv(serial)
