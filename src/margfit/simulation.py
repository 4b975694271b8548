"""Monte Carlo study of the variance removed by the marginal adjustment.

The harness sweeps 2x2 tables with fixed marginals over a grid of sample
sizes and log cross-product ratios. For every grid cell it draws count
tables, computes the first-row marginal estimate with and without the
column adjustment, and reports the percentage of estimator variance the
adjustment removed, next to the analytic large-sample value.

Reproducibility scheme
----------------------
Each grid cell runs through :func:`replicate_marginal_estimates`, which
draws replications in fixed blocks of ``CHUNK_REPLICATIONS``. The generator
for block c of grid cell k is PCG64DXSM seeded with
``SeedSequence(entropy=seed, spawn_key=(k, c))``; a replication's stream
therefore depends only on the master seed and its own indices, never on
scheduling. Every block gets its own seed sequence, so no stream is ever
split or jumped, and a counter-based generator such as Philox would add
cost and nothing else: PCG64DXSM fills uniforms more than twice as fast.
Both Monte Carlo paths draw from :func:`_stream`. Per-replication
estimates land in index-addressed arrays and are aggregated in a fixed
order, so serial and parallel runs of the same configuration are
bit-identical. ``run_experiment``'s ``workers`` threads parallelise over
grid cells, never within one. By default they are as many as the cores the
process may run on, capped at the number of grid cells, so ``margfit
simulate`` uses every available core and its output bits equal those of
the serial run.

A block is one ``multinomial(n, cells, size)`` call, reduced over strided
column views of its ``(size, I*J)`` output. Row and column totals are exact
integer sums; the adjusted estimate adds ``count[i, j] * known_col[j] /
col_sum[j]`` from j = 0 upward, the order of numpy's ``sum(axis=2)`` over
the ``(size, I, J)`` products for up to 7 columns, so the bits equal that
reduction's. From 8 columns numpy sums pairwise; the two agree to 1e-14.

:func:`replicate_weighted_frequencies` draws blocks of
``max(1, WEIGHTED_BLOCK_DRAWS // n)`` replications of n observations, so a
block holds at most 2**18 category draws (one replication when n is larger)
and its buffers stay in cache; block c is keyed by ``spawn_key=(c,)``. The
blocks are shared out over W threads, one per available core and at most
one per block: worker k draws blocks k, k + W, k + 2W, ... into its own
buffers and writes those replications' rows of the output, so the schedule
never touches the bits. A uniform draw u in [0, 1) falls in category
x = #{edges <= u}, with ``edges = cumsum(probs)`` and the last edge taken as
1: the rule of ``np.searchsorted(edges, u, side="right")`` with that edge
clamped. The kernel compares u with every edge but the last, which it never
reads, so x is the last category exactly where u is not below
``edges[-2]``. The weighted frequency of category i is the numpy row sum of
``1{x == i} * w``, which adds each row on its own in an order fixed by n.
The tests require the bits of the searchsorted form.

:func:`exact_reduction` is the exact finite-n value of a 2x2 grid cell's
reduction over the samples with both columns observed, against which the
tests check the Monte Carlo cells within their standard errors.

Values use IEEE basic operations, sqrt, numpy sums in an order fixed by array
shapes and, for a cell's cpr, a correctly rounded :mod:`decimal` exp: no BLAS,
and no libm exp, log or pow outside numpy's multinomial sampler (see README).
"""

from __future__ import annotations

import math
import os
from concurrent.futures import ThreadPoolExecutor
from dataclasses import MISSING, dataclass, field, fields, replace
from decimal import Context, Decimal
from typing import Sequence

import numpy as np

from .asymptotics import adjusted_marginal_covariance, marginal_covariance, variance_reduction
from .estimators import WeightVector, adjust_to_known_marginal, adjusted_row_marginal
from .tables import (
    CountTable,
    JointDistribution,
    MarginalDistribution,
    _integer,
    _real,
    _seed,
    build_2x2_from_marginals_cpr,
    empirical_joint,
)

__all__ = [
    "CHUNK_REPLICATIONS",
    "WEIGHTED_BLOCK_DRAWS",
    "DEFAULT_N_GRID",
    "DEFAULT_REPLICATIONS",
    "default_log_cpr_grid",
    "ExperimentConfig",
    "GridCell",
    "ExperimentGrid",
    "MarginalReplicates",
    "replicate_marginal_estimates",
    "replicate_weighted_frequencies",
    "asymptotic_reduction",
    "exact_reduction",
    "run_experiment",
    "CaseStudyRow",
    "CaseStudyResult",
    "run_case_study",
]

# Replication block size; part of the determinism contract (changing it
# changes which stream serves which replication).
CHUNK_REPLICATIONS = 4096

# Category draws per block of replicate_weighted_frequencies, which draws
# blocks of max(1, WEIGHTED_BLOCK_DRAWS // n) replications; part of the
# determinism contract in the same way.
WEIGHTED_BLOCK_DRAWS = 2**18

DEFAULT_N_GRID = (20, 100, 1000, 10000)
DEFAULT_REPLICATIONS = 20000

def default_log_cpr_grid() -> tuple[float, ...]:
    """25 equispaced log cross-product ratios spanning [-5, 5]."""
    return tuple(float(x) for x in np.linspace(-5.0, 5.0, 25))


def _stream(seed: int, key: tuple[int, ...]) -> np.random.Generator:
    return np.random.Generator(
        np.random.PCG64DXSM(np.random.SeedSequence(entropy=seed, spawn_key=key))
    )


@dataclass(frozen=True)
class ExperimentConfig:
    """Grid specification for :func:`run_experiment`.

    ``row_marginal``/``col_marginal`` are the fixed 2x2 marginals (a, 1-a)
    and (b, 1-b); the grid is the cross product of ``n_grid`` and
    ``log_cpr_grid``.
    """

    row_marginal: tuple[float, float]
    col_marginal: tuple[float, float]
    log_cpr_grid: tuple[float, ...] = field(default_factory=default_log_cpr_grid)
    n_grid: tuple[int, ...] = DEFAULT_N_GRID
    replications: int = DEFAULT_REPLICATIONS
    seed: int = 0

    def __post_init__(self):
        for name, axis in (("row_marginal", "row"), ("col_marginal", "column")):
            pair = tuple(_real(x, f"each {name} entry") for x in getattr(self, name))
            if len(pair) != 2 or not all(0.0 < x < 1.0 for x in pair):
                raise ValueError(f"{name} must be two probabilities strictly inside (0, 1)")
            try:
                MarginalDistribution(pair, axis=axis)
            except ValueError as exc:
                raise ValueError(f"{name}: {exc}") from None
            object.__setattr__(self, name, pair)
        log_grid = tuple(_real(x, "each log_cpr_grid entry") for x in self.log_cpr_grid)
        if not log_grid or not all(math.isfinite(x) for x in log_grid):
            raise ValueError("log_cpr_grid must be non-empty and finite")
        object.__setattr__(self, "log_cpr_grid", log_grid)
        n_grid = tuple(_integer(n, "each n_grid entry") for n in self.n_grid)
        if not n_grid or any(n < 1 for n in n_grid):
            raise ValueError("n_grid must be non-empty with entries >= 1")
        object.__setattr__(self, "n_grid", n_grid)
        object.__setattr__(self, "replications", _integer(self.replications, "replications", 2))
        object.__setattr__(self, "seed", _seed(self.seed))

    def with_overrides(self, seed: int | None = None, replications: int | None = None):
        given = {"seed": seed, "replications": replications}
        updates = {k: v for k, v in given.items() if v is not None}
        return replace(self, **updates) if updates else self

    def to_dict(self) -> dict:
        """The fields in declaration order, sequences as lists (JSON arrays)."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            out[f.name] = list(value) if isinstance(value, tuple) else value
        return out

    @classmethod
    def from_dict(cls, data: dict) -> "ExperimentConfig":
        if not isinstance(data, dict):
            raise ValueError("experiment config must be a JSON object")
        unknown = set(data) - {f.name for f in fields(cls)}
        if unknown:
            raise ValueError(f"unknown config keys: {sorted(unknown)}")
        for f in fields(cls):
            if f.default is MISSING and f.default_factory is MISSING and f.name not in data:
                raise ValueError(f"config is missing {f.name!r}")
        kwargs = dict(data)
        for key in ("row_marginal", "col_marginal", "log_cpr_grid", "n_grid"):
            if key in kwargs:
                if not isinstance(kwargs[key], list):
                    raise ValueError(f"{key} must be a JSON array, got {kwargs[key]!r}")
                kwargs[key] = tuple(kwargs[key])
        return cls(**kwargs)


@dataclass(frozen=True)
class GridCell:
    """One (n, log cpr) grid point of an experiment.

    Numeric fields are ``None`` and ``error`` explains why whenever the cell
    could not be computed; the run itself keeps going.
    """

    n: int
    log_cpr: float
    reduction_pct: float | None = None
    asymptotic_pct: float | None = None
    bias_hat: float | None = None
    bias_tilde: float | None = None
    zero_column_events: int | None = None
    error: str | None = None


@dataclass(frozen=True)
class ExperimentGrid:
    """All grid cells of one experiment, n-major in configuration order."""

    cells: tuple[GridCell, ...]

    def find(self, n: int, log_cpr: float, atol: float = 1e-12) -> GridCell:
        for cell in self.cells:
            if cell.n == n and abs(cell.log_cpr - log_cpr) <= atol:
                return cell
        raise KeyError(f"no grid cell at n={n}, log_cpr={log_cpr}")


@dataclass(frozen=True, eq=False)
class MarginalReplicates:
    """Per-replication row-marginal estimates from repeated sampling.

    ``excluded`` flags replications whose count table had an empty column,
    where the adjusted estimate is undefined; their ``ptilde_rows`` are NaN.
    """

    phat_rows: np.ndarray
    ptilde_rows: np.ndarray
    excluded: np.ndarray


def _chunk_estimates(
    flat_cells: np.ndarray,
    col_probs: np.ndarray,
    dims: tuple[int, int],
    n: int,
    size: int,
    rng: np.random.Generator,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    n_rows, n_cols = dims
    counts = rng.multinomial(n, flat_cells, size=size)
    # Views of the table's rows, (size, n_cols) each, and columns, (size,
    # n_rows) each; every sum adds whole views from left to right.
    rows = [counts[:, i * n_cols : (i + 1) * n_cols] for i in range(n_rows)]
    cols = [counts[:, j::n_cols] for j in range(n_cols)]
    col_sums = sum(rows[1:], rows[0])
    excluded = np.logical_or.reduce([col_sums[:, j] == 0 for j in range(n_cols)])
    phat = sum(cols[1:], cols[0]) / n
    with np.errstate(divide="ignore", invalid="ignore"):  # an empty column gives 0 * inf
        scale = col_probs / col_sums
        terms = (cols[j] * scale[:, j : j + 1] for j in range(1, n_cols))
        ptilde = sum(terms, cols[0] * scale[:, :1])
    ptilde[excluded] = np.nan
    return phat, ptilde, excluded


def _chunk_bounds(replications: int, block: int) -> list[tuple[int, int, int]]:
    """(chunk index, start, size) triples covering all replications in
    blocks of at most ``block``."""
    return [
        (c, start, min(block, replications - start))
        for c, start in enumerate(range(0, replications, block))
    ]


def replicate_marginal_estimates(
    p: JointDistribution,
    known_col: MarginalDistribution,
    n: int,
    replications: int,
    seed: int,
    stream_key: tuple[int, ...] = (),
) -> MarginalReplicates:
    """Draw ``replications`` count tables of size n from p and estimate the
    row marginal both ways on each.

    ``stream_key`` prefixes the per-chunk spawn keys, letting callers embed
    this routine in a larger deterministic experiment (the grid runner
    passes its cell index).
    """
    n = _integer(n, "sample size", 1)
    replications = _integer(replications, "replications", 1)
    seed = _seed(seed)
    if not isinstance(stream_key, tuple):
        raise ValueError(f"stream_key must be a tuple of integers, got {stream_key!r}")
    stream_key = tuple(_integer(k, "each stream_key entry", 0) for k in stream_key)
    known_col.require_positive("known column marginal")
    if len(known_col) != p.n_cols:
        raise ValueError("known marginal length must match the number of columns")
    flat = p.cells.ravel(order="C")
    phat = np.empty((replications, p.n_rows))
    ptilde = np.empty((replications, p.n_rows))
    excluded = np.empty(replications, dtype=bool)
    for c, start, size in _chunk_bounds(replications, CHUNK_REPLICATIONS):
        rng = _stream(seed, (*stream_key, c))
        ph, pt, ex = _chunk_estimates(flat, known_col.probs, p.dims, n, size, rng)
        phat[start : start + size] = ph
        ptilde[start : start + size] = pt
        excluded[start : start + size] = ex
    return MarginalReplicates(phat_rows=phat, ptilde_rows=ptilde, excluded=excluded)


def replicate_weighted_frequencies(
    probs: Sequence[float] | MarginalDistribution,
    weights: Sequence[float] | WeightVector,
    replications: int,
    seed: int,
) -> np.ndarray:
    """Per-replication weighted category frequencies, shape (replications, I).

    Each replication draws len(weights) i.i.d. categories from ``probs`` and
    forms sum_t w_t * 1{x_t == i}. Used to check the slower convergence rate
    of non-uniformly weighted estimates. The blocks of replications run on
    one thread per available core; the output bits do not depend on how
    many.
    """
    if not isinstance(probs, MarginalDistribution):
        probs = MarginalDistribution(probs, axis="row")
    if not isinstance(weights, WeightVector):
        weights = WeightVector(weights)
    probs = probs.probs
    replications = _integer(replications, "replications", 1)
    seed = _seed(seed)
    n = len(weights)
    n_categories = probs.shape[0]
    edges = np.cumsum(probs)  # edges[-1] is never read: the last edge is 1
    w = weights.weights
    block = max(1, WEIGHTED_BLOCK_DRAWS // n)
    bounds = _chunk_bounds(replications, block)
    workers = min(_available_cores(), len(bounds))
    rows = min(block, replications)
    out = np.empty((replications, n_categories))

    def run_worker(k: int) -> None:
        draws = np.empty((rows, n))
        below = np.empty((rows, n), dtype=bool)
        below_prev = np.empty((rows, n), dtype=bool)
        member = np.empty((rows, n))
        for c, start, size in bounds[k::workers]:
            rng = _stream(seed, (c,))
            u = rng.random(out=draws[:size])
            below_prev[:size] = False
            for i in range(n_categories):
                # edges[:-1] never decrease, so "u < edges[i]" switches on at
                # most once as i grows: x == i exactly where below is set and
                # below_prev is not.
                if i < n_categories - 1:
                    np.less(u, edges[i], out=below[:size])
                    np.greater(below[:size], below_prev[:size], out=member[:size])
                else:  # every u < 1, the last edge: below would be all set
                    np.logical_not(below_prev[:size], out=member[:size])
                member[:size] *= w
                member[:size].sum(axis=1, out=out[start : start + size, i])
                below, below_prev = below_prev, below

    _map_threads(run_worker, workers, workers)
    return out


def asymptotic_reduction(p: JointDistribution, row: int = 0) -> float:
    """Large-sample fraction of row-marginal variance removed by adjustment.

    (plain_rr - adjusted_rr) / plain_rr for the requested row (0-based);
    zero for outer-product tables, one when the row variable is a function
    of the column variable.
    """
    if not 0 <= row < p.n_rows:
        raise ValueError(f"row index {row} out of range")
    plain = marginal_covariance(p).entries[row, row]
    adjusted = adjusted_marginal_covariance(p).entries[row, row]
    return float(variance_reduction(plain, adjusted))


def exact_reduction(p: JointDistribution, n: int) -> float:
    """Exact fraction of first-row marginal variance that the adjustment to
    the table's own column marginal removes at sample size n, among the
    samples with both columns observed (the replications the Monte Carlo
    study keeps). 2x2 tables only.

    With column probability b and q1 = p11/b, q2 = p12/(1-b), the column
    count N1 is Bin(n, b) truncated to 1..n-1. Given N1 the adjusted
    estimate has mean a = p11 + p12 and variance b^2 q1(1-q1)/N1 +
    (1-b)^2 q2(1-q2)/(n-N1); the plain estimate has mean (N1 q1 + (n-N1)
    q2)/n, and its variance follows by the law of total variance.
    """
    if p.dims != (2, 2):
        raise ValueError(f"exact_reduction needs a 2x2 table, got {p.dims[0]}x{p.dims[1]}")
    n = _integer(n, "sample size", 2)
    p11, p12 = p.cells[0]
    b = float(p.cells[:, 0].sum())
    if not 0.0 < b < 1.0:
        raise ValueError("a column has zero probability; no sample observes both columns")
    q1, q2 = p11 / b, p12 / (1.0 - b)
    k = np.arange(1, n)
    # ratio[k - 1] = pmf(k) / pmf(k - 1) is <= 1 above a mode m and >= 1 up
    # to it, so the products outward from m stay <= 1.
    m = min(max(int((n + 1) * b), 1), n - 1)
    ratio = (n - k + 1) / k * (b / (1.0 - b))
    below = np.cumprod(1.0 / ratio[m - 1 : 0 : -1])[::-1]
    pmf = np.concatenate((below, [1.0], np.cumprod(ratio[m:])))
    pmf /= pmf.sum()
    v1, v2 = q1 * (1.0 - q1), q2 * (1.0 - q2)
    var_tilde = float((pmf * (b * b * v1 / k + (1.0 - b) * (1.0 - b) * v2 / (n - k))).sum())
    mean_k = float((pmf * k).sum())
    var_k = float((pmf * (k - mean_k) ** 2).sum())
    gap = q1 - q2
    var_hat = float((mean_k * v1 + (n - mean_k) * v2) / (n * n) + gap * gap * var_k / (n * n))
    if var_hat == 0.0:
        raise ValueError("row marginal is degenerate; variance is zero")
    return 1.0 - var_tilde / var_hat


def _aggregate_cell(
    n: int,
    log_cpr: float,
    asym_pct: float,
    target: float,
    phat: np.ndarray,
    ptilde: np.ndarray,
    excluded: np.ndarray,
) -> GridCell:
    included = ~excluded
    cell = GridCell(n, log_cpr, asymptotic_pct=asym_pct, zero_column_events=int(excluded.sum()))
    if int(included.sum()) < 2:
        return replace(cell, error="fewer than 2 replications had all columns observed")
    var_hat = float(np.var(phat[included], ddof=1))
    var_tilde = float(np.var(ptilde[included], ddof=1))
    if var_hat == 0.0:
        return replace(cell, error="unadjusted estimator variance is zero")
    return replace(
        cell,
        reduction_pct=100.0 * (1.0 - var_tilde / var_hat),
        bias_hat=float(phat[included].mean() - target),
        bias_tilde=float(ptilde[included].mean() - target),
    )


def _available_cores() -> int:
    """The number of cores this process may run on."""
    try:
        return len(os.sched_getaffinity(0))
    except AttributeError:  # no affinity call on this platform (macOS, Windows)
        return os.cpu_count() or 1


def _map_threads(task, count: int, workers: int) -> list:
    """``[task(k) for k in range(count)]`` on ``workers`` threads; one worker
    runs the tasks in order on the calling thread, with no pool."""
    if workers == 1:
        return [task(k) for k in range(count)]
    with ThreadPoolExecutor(max_workers=workers) as pool:
        return list(pool.map(task, range(count)))


def run_experiment(cfg: ExperimentConfig, workers: int | None = None) -> ExperimentGrid:
    """Run the full (n, log cpr) grid of ``cfg``.

    Infeasible grid points (e.g. a cpr too extreme for the marginals in
    double precision) become error cells and the run continues. Grid cell k
    draws its replications through :func:`replicate_marginal_estimates`
    with stream key ``(k,)``; ``workers`` threads share out whole cells and
    any setting produces bit-identical results, because every block's
    stream and every aggregation order is fixed by indices alone. ``None``
    means one thread per available core, at most one per grid cell; one
    worker runs the cells in order on the calling thread.
    """
    points = [(n, lc) for n in cfg.n_grid for lc in cfg.log_cpr_grid]
    if workers is None:
        workers = min(_available_cores(), len(points))
    else:
        workers = _integer(workers, "workers", 1)
    row = MarginalDistribution(cfg.row_marginal, axis="row")
    col = MarginalDistribution(cfg.col_marginal, axis="column")
    target = cfg.row_marginal[0]

    def run_cell(k: int) -> GridCell:
        n, lc = points[k]
        try:
            cpr = float(Decimal.from_float(lc).exp(Context(prec=40, traps=[])))
            table = build_2x2_from_marginals_cpr(row, col, cpr)
            asym_pct = 100.0 * asymptotic_reduction(table, 0)
        except ValueError as exc:
            return GridCell(n=n, log_cpr=lc, error=str(exc))
        reps = replicate_marginal_estimates(
            table, col, n, cfg.replications, cfg.seed, stream_key=(k,)
        )
        return _aggregate_cell(
            n, lc, asym_pct, target, reps.phat_rows[:, 0], reps.ptilde_rows[:, 0], reps.excluded
        )

    return ExperimentGrid(cells=tuple(_map_threads(run_cell, len(points), workers)))


@dataclass(frozen=True)
class CaseStudyRow:
    """Marginal estimates for one row, with and without the adjustment."""

    phat: float
    ptilde: float
    relative_difference_pct: float | None


@dataclass(frozen=True)
class CaseStudyResult:
    rows: tuple[CaseStudyRow, ...]
    zero_column_mask: frozenset

    @property
    def phat_vector(self) -> np.ndarray:
        return np.array([r.phat for r in self.rows])

    @property
    def ptilde_vector(self) -> np.ndarray:
        return np.array([r.ptilde for r in self.rows])


def run_case_study(counts: CountTable, known_col: MarginalDistribution) -> CaseStudyResult:
    """Row-marginal estimates of a count table, unadjusted and adjusted to a
    known column marginal, with their relative difference in percent.

    An empty empirical column is reported through ``zero_column_mask``; the
    relative difference of a row with zero unadjusted estimate is ``None``.
    """
    phat_joint = empirical_joint(counts)
    adjusted = adjust_to_known_marginal(phat_joint, known_col)
    phat_rows = phat_joint.cells.sum(axis=1)
    ptilde_rows = adjusted_row_marginal(adjusted)
    rows = []
    for ph, pt in zip(phat_rows, ptilde_rows):
        rel = 100.0 * (float(pt) / float(ph) - 1.0) if ph > 0 else None
        rows.append(CaseStudyRow(phat=float(ph), ptilde=float(pt), relative_difference_pct=rel))
    return CaseStudyResult(rows=tuple(rows), zero_column_mask=adjusted.zero_column_mask)
