"""Shared random generators for the property and acceptance tests."""

from __future__ import annotations

import numpy as np

from margfit import JointDistribution


def random_joint(
    rng: np.random.Generator,
    n_rows: int | None = None,
    n_cols: int | None = None,
    max_dim: int = 6,
    min_col_marginal: float = 1e-3,
) -> JointDistribution:
    """Table of normalized i.i.d. uniform cell weights.

    Tables with any column marginal below ``min_col_marginal`` are rejected:
    tiny column mass only stresses floating point, not the estimators.
    """
    while True:
        rows = n_rows or int(rng.integers(2, max_dim + 1))
        cols = n_cols or int(rng.integers(2, max_dim + 1))
        cells = rng.random((rows, cols))
        cells /= cells.sum()
        if cells.sum(axis=0).min() >= min_col_marginal:
            return JointDistribution(cells)


def bounded_random_joint(
    rng: np.random.Generator, n_rows: int | None = None, n_cols: int | None = None
) -> JointDistribution:
    """Table with all cells bounded well away from zero (cells in [0.1, 1.1]
    before normalization), keeping cross-product ratios O(100) at most."""
    rows = n_rows or int(rng.integers(2, 7))
    cols = n_cols or int(rng.integers(2, 7))
    cells = 0.1 + rng.random((rows, cols))
    return JointDistribution(cells / cells.sum())


def _floored_simplex(rng: np.random.Generator, k: int, floor: float = 0.3) -> np.ndarray:
    v = floor + rng.random(k)
    return v / v.sum()


def outer_product_table(rng: np.random.Generator, n_rows: int, n_cols: int) -> JointDistribution:
    """An exactly independent table with comfortably positive marginals."""
    return JointDistribution(
        np.outer(_floored_simplex(rng, n_rows), _floored_simplex(rng, n_cols))
    )


def dependent_table(
    rng: np.random.Generator, n_rows: int, n_cols: int, mix: float = 0.5
) -> JointDistribution:
    """A visibly dependent table: a mixture of an independent table and one
    where the row is a fixed function of the column. The mixture keeps every
    column marginal positive and guarantees a conditional-mean variance of at
    least mix^2 * 0.001 in some direction."""
    a = _floored_simplex(rng, n_rows)
    b = _floored_simplex(rng, n_cols)
    concentrated = np.zeros((n_rows, n_cols))
    for j in range(n_cols):
        concentrated[j % n_rows, j] = b[j]
    return JointDistribution((1.0 - mix) * np.outer(a, b) + mix * concentrated)


def gamma(k: int) -> float:
    """Higham's gamma_k = k u / (1 - k u), with u the unit roundoff of a
    double: a value that went through k roundings lies within this factor of
    its exact value's magnitude."""
    u = np.finfo(np.float64).eps / 2
    return k * u / (1 - k * u)
