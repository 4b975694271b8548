"""Monte Carlo study of the variance removed by the marginal adjustment.

The harness sweeps 2x2 tables with fixed marginals over a grid of sample
sizes and log cross-product ratios. For every grid cell it draws count
tables, computes the first-row marginal estimate with and without the
column adjustment, and reports the percentage of estimator variance the
adjustment removed, next to the analytic large-sample value.

Reproducibility scheme
----------------------
Both Monte Carlo paths run through one block engine, :func:`_run_blocks`.
With blocks of B replications, block c covers replications [c*B,
min((c+1)*B, R)) and draws from ``_stream(seed, (*key, c))``, the PCG64DXSM
generator seeded with ``SeedSequence(entropy=seed, spawn_key=(*key, c))``
that :mod:`margfit.tables` defines as the package's one stream factory.
Worker k of W, at most one per block, runs blocks k, k + W, k + 2W, ... and
writes only those replications' entries of index-addressed arrays, so the
results depend on the master seed, the key and the indices, never on W.
Every block gets its own seed sequence, so no stream is ever split or
jumped, and a counter-based generator such as Philox would add cost and
nothing else: PCG64DXSM fills uniforms more than twice as fast.
:func:`replicate_marginal_estimates` uses blocks of ``CHUNK_REPLICATIONS``,
its ``stream_key`` as the key prefix (grid cell k of :func:`run_experiment`
passes ``(k,)``) and one worker. :func:`replicate_weighted_frequencies` uses
blocks of ``max(1, WEIGHTED_BLOCK_DRAWS // n)`` replications of n
observations, at most 2**18 draws (one replication when n is larger), an
empty key prefix and one worker per available core.

Grid cells are aggregated in a fixed order, so serial and parallel runs of
the same configuration are bit-identical. ``run_experiment``'s ``workers``
threads parallelise over grid cells, never within one. By default they are
as many as the cores the process may run on, capped at the number of grid
cells, so ``margfit simulate`` uses every available core and its output bits
equal those of the serial run.

A block of :func:`replicate_marginal_estimates` above the outcome-table cap
(next paragraph) is one ``multinomial(n, cells, size)`` call, reduced over
the 1-D view ``counts[:, i*J + j]`` of each cell of its ``(size, I*J)``
output. Column totals and row totals are exact integer sums; ``phat[i]`` is the row total
divided by n, and ``ptilde[i]`` adds ``count[i, j] * (known_col[j] /
col_sum[j])`` from j = 0 upward, the order of numpy's ``sum(axis=2)`` over
the ``(size, I, J)`` products for up to 7 columns, so the bits equal that
reduction's. From 8 columns numpy sums pairwise; the two agree to 1e-14.
Only the rows that ``rows`` selects are reduced (``run_experiment`` reads
row 0 alone), each into a row-major ``(rows, R)`` store, so one row's
estimates are contiguous; a selected row's bits equal its column of the
all-rows result, and the CLI output bits did not move with this layout.

A cell of at least two table cells with at most ``TABLE_OUTCOMES`` possible
count tables, C(n + I*J - 1, I*J - 1) of them (n <= 56 for 2x2), is drawn
from its outcome table instead: the count vectors in lexicographic order and
their multinomial pmf. Count x of cell k gets the factor (m**x / x!) / (m**d
/ d!), m = n * p[k] and d = floor(m), a ``np.cumprod`` of the ratios m / t up
from d and t / m down from it, so no factor exceeds 1; an outcome's weight is
the product of its cells' factors, and the pmf the weights over their sum.
Each outcome is reduced once, as a block's counts are. Block c maps ``size``
doubles u of ``_stream(seed, (*key, c))`` to outcome ``np.searchsorted(cdf,
u, side="right")``, ``cdf`` being the running sum of the pmf divided by its
last entry (which makes that entry 1), and takes that outcome's estimates.
A guide table (Chen & Asau 1974) finds the same index with fewer
comparisons; its size is outside the determinism contract. Every other
cell, like :func:`_chunk_estimates` itself, draws with numpy's multinomial.

Each worker of :func:`replicate_weighted_frequencies` allocates its buffers
once, for a slab of ``max(1, _SLAB_DRAWS // n)`` replications capped at the
block: about 1.1 MiB at 18 bytes a draw, small enough for a 2 MiB L2 cache.
The block is the stream unit and the slab the buffer unit: each block is
drawn slab by slab, one ``random(out=...)`` call on the block's generator per
slab. Successive calls continue one stream of doubles and every row is
summed whole within its slab, so the slab size never changes a bit and is
outside the determinism contract. A uniform draw u in [0, 1)
falls in category x = #{edges <= u}, with ``edges = cumsum(probs)`` and the
last edge taken as 1: the rule of ``np.searchsorted(edges, u,
side="right")`` with that edge clamped. The kernel compares u with every
edge but the last, which it never reads, so x is the last category exactly
where u is not below ``edges[-2]``. The weighted frequency of category i is
the numpy row sum of ``1{x == i} * w``, which adds each row on its own in an
order fixed by n. The tests require the bits of the searchsorted form.

:func:`exact_reduction` is the exact finite-n value of a 2x2 grid cell's
reduction over the samples with both columns observed, against which the
tests check the Monte Carlo cells within their standard errors. It reads the
column count's law from the outcome table of the column marginal's two cells.

Values use IEEE basic operations, sqrt, numpy sums in an order fixed by array
shapes and, for a cell's cpr, a correctly rounded :mod:`decimal` exp: no BLAS,
and no libm exp, log or pow outside numpy's multinomial sampler, which only
cells above the outcome-table cap call (see README).
"""

from __future__ import annotations

import math
import os
from dataclasses import MISSING, dataclass, field, fields, replace
from typing import Sequence

import numpy as np

from .asymptotics import variance_gap, variance_reduction
from .estimators import WeightVector, adjust_to_known_marginal, adjusted_row_marginal
from .tables import (
    CountTable,
    JointDistribution,
    MarginalDistribution,
    _coerce,
    _frozen,
    _integer,
    _json_array,
    _json_object,
    _real,
    _sample_size,
    _seed,
    _stream,
    _text,
    _value_type,
    build_2x2_from_marginals_cpr,
    empirical_joint,
)

__all__ = [
    "CHUNK_REPLICATIONS",
    "TABLE_OUTCOMES",
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

# Most outcomes (count tables) that a cell of replicate_marginal_estimates
# may have to be drawn from its outcome table; part of the determinism
# contract, since a cell above it draws its counts with numpy's multinomial.
TABLE_OUTCOMES = 2**15

# Category draws per block of replicate_weighted_frequencies, which draws
# blocks of max(1, WEIGHTED_BLOCK_DRAWS // n) replications; part of the
# determinism contract in the same way.
WEIGHTED_BLOCK_DRAWS = 2**18

# Category draws per slab, the part of a block that a worker of
# replicate_weighted_frequencies holds in its buffers at once; not part of
# the determinism contract (see the module docstring).
_SLAB_DRAWS = 2**16

DEFAULT_N_GRID = (20, 100, 1000, 10000)
DEFAULT_REPLICATIONS = 20000

def default_log_cpr_grid() -> tuple[float, ...]:
    """25 equispaced log cross-product ratios spanning [-5, 5]."""
    return tuple(float(x) for x in np.linspace(-5.0, 5.0, 25))


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
        for name in ("row_marginal", "col_marginal"):
            pair = tuple(_real(x, f"each {name} entry") for x in getattr(self, name))
            if len(pair) != 2 or not all(0.0 < x < 1.0 for x in pair):
                raise ValueError(f"{name} must be two probabilities strictly inside (0, 1)")
            try:
                MarginalDistribution(pair)
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
        names = [f.name for f in fields(cls)]
        required = [
            f.name for f in fields(cls) if f.default is MISSING and f.default_factory is MISSING
        ]
        kwargs = dict(_json_object(data, "experiment config", required, names))
        for key in ("row_marginal", "col_marginal", "log_cpr_grid", "n_grid"):
            if key in kwargs:
                kwargs[key] = tuple(_json_array(kwargs[key], key))
        return cls(**kwargs)


def _column(kind: type, least: int | None = None, key: str | None = None, default=MISSING):
    """A field of a ``_record`` class: a ``kind`` value (int, float or str), an
    int at least ``least``, keyed ``key`` (the attribute name when None) in
    JSON and, for a grid cell, in CSV. ``default=None`` makes it optional: None
    when absent, as an empty CSV field or a JSON null."""
    return field(default=default, metadata={"kind": kind, "least": least, "key": key})


def _record(prefix: str):
    """The decorated class, of ``_column`` fields, as a frozen dataclass that
    stores each value as its type, refusing a NaN float and keeping an
    infinite one; messages name ``prefix`` + key. Its ``_schema`` holds (key,
    attribute, type, least value, required) of each field in order."""

    def check(record) -> None:
        for key, attr, kind, least, required in record._schema:
            value = getattr(record, attr)
            if value is not None or required:
                name = prefix + key
                if kind is int:
                    value = _integer(value, name, least)
                elif kind is str:
                    value = _text(value, name)
                elif math.isnan(value := _real(value, name)):
                    raise ValueError(f"{name} must not be NaN")
                object.__setattr__(record, attr, value)

    def make(cls):
        cls.__post_init__ = check
        cls = dataclass(frozen=True)(cls)
        cls._schema = tuple(
            (f.metadata["key"] or f.name, f.name, f.metadata["kind"], f.metadata["least"],
             f.default is not None)
            for f in fields(cls)
        )
        return cls

    return make


@_record("grid value ")
class GridCell:
    """One (n, log cpr) grid point of an experiment.

    Numeric fields are ``None`` and ``error`` explains why whenever the cell
    could not be computed; the run itself keeps going. A value outside its
    field's type or range, or a NaN float, is refused; an infinite float is
    kept.
    """

    n: int = _column(int, 1)
    log_cpr: float = _column(float)
    reduction_pct: float | None = _column(float, default=None)
    asymptotic_pct: float | None = _column(float, default=None)
    bias_hat: float | None = _column(float, default=None)
    bias_tilde: float | None = _column(float, default=None)
    zero_column_events: int | None = _column(int, 0, "zero_columns", default=None)
    error: str | None = _column(str, default=None)


@dataclass(frozen=True)
class ExperimentGrid:
    """All grid cells of one experiment, n-major in configuration order."""

    cells: tuple[GridCell, ...]

    def find(self, n: int, log_cpr: float) -> GridCell:
        for cell in self.cells:
            if cell.n == n and abs(cell.log_cpr - log_cpr) <= 1e-12:
                return cell
        raise KeyError(f"no grid cell at n={n}, log_cpr={log_cpr}")


@_value_type
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
    rows: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    counts = rng.multinomial(n, flat_cells, size=size)
    return _count_estimates(counts, col_probs, dims, n, rows)


def _count_estimates(
    counts: np.ndarray,
    col_probs: np.ndarray,
    dims: tuple[int, int],
    n: int,
    rows: Sequence[int] | None = None,
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The estimates of each row of ``counts``, a ``(size, I*J)`` array of
    row-major count tables: phat and ptilde ``(size, rows)``, excluded ``(size,)``."""
    n_rows, n_cols = dims
    rows = range(n_rows) if rows is None else rows
    size = counts.shape[0]
    # cell[i][j] is the 1-D view of count[i, j] over the block; every sum
    # adds whole views from left to right.
    cell = [[counts[:, i * n_cols + j] for j in range(n_cols)] for i in range(n_rows)]
    excluded = np.zeros(size, dtype=bool)
    scale = np.empty((n_cols, size))
    phat = np.empty((len(rows), size))
    ptilde = np.empty((len(rows), size))
    term = np.empty(size)
    with np.errstate(divide="ignore", invalid="ignore"):  # an empty column gives 0 * inf
        for j in range(n_cols):
            col_sum = sum((cell[i][j] for i in range(1, n_rows)), cell[0][j])
            excluded |= col_sum == 0
            np.divide(col_probs[j], col_sum, out=scale[j])
        for r, i in enumerate(rows):
            np.divide(sum(cell[i][1:], cell[i][0]), n, out=phat[r])
            np.multiply(cell[i][0], scale[0], out=ptilde[r])
            for j in range(1, n_cols):
                ptilde[r] += np.multiply(cell[i][j], scale[j], out=term)
    np.copyto(ptilde, np.nan, where=excluded)
    return phat.T, ptilde.T, excluded


def _outcome_table(flat_cells: np.ndarray, n: int) -> tuple[np.ndarray, ...]:
    """Every count vector of n draws over ``flat_cells``, as the rows of an
    ``(outcomes, cells)`` array in lexicographic order, their multinomial
    pmf and the CDF that draws them, by the table rule of the module
    docstring: the CDF's last entry is 1."""
    counts = np.zeros((1, 0), dtype=np.int64)
    left = np.array([n])  # draws not yet placed, per prefix
    for _ in range(flat_cells.size - 1):
        # Prefix m grows into left[m] + 1 vectors, whose next count runs 0..left[m].
        width = left + 1
        value = np.arange(width.sum()) - np.repeat(np.cumsum(width) - width, width)
        counts = np.column_stack((np.repeat(counts, width, axis=0), value))
        left = np.repeat(left, width) - value
    counts = np.column_stack((counts, left))
    t = np.arange(1, n + 1)
    weight = np.ones(counts.shape[0])
    for k, prob in enumerate(flat_cells):
        # factor[x] = (m**x / x!) / (m**mode / mode!) with m = n * prob, from
        # the ratios m / t multiplied outward from the mode: each is <= 1.
        m = n * prob
        mode = min(int(m), n)
        below = np.cumprod(t[:mode][::-1] / m)[::-1]
        factor = np.concatenate((below, [1.0], np.cumprod(m / t[mode:])))
        weight *= factor[counts[:, k]]
    pmf = weight / weight.sum()
    cdf = np.cumsum(pmf)
    cdf /= cdf[-1]
    return counts, pmf, cdf


def _guide_table(cdf: np.ndarray) -> np.ndarray:
    """Chen & Asau's guide table of a CDF: ``guide[j] = #{cdf <= j/G}`` for
    j = 0..G, with G the power of two from 4 to 8 times ``cdf.size``."""
    grid = 4 << (cdf.size - 1).bit_length()
    # cdf * grid is exact, so cdf <= j/G exactly where ceil(cdf * grid) <= j.
    return np.cumsum(np.bincount(np.ceil(cdf * grid).astype(np.intp), minlength=grid + 1))


def _outcome_index(cdf: np.ndarray, guide: np.ndarray, u: np.ndarray) -> np.ndarray:
    """``np.searchsorted(cdf, u, side="right")`` for draws u in [0, 1). With
    j = floor(u*G), exact for G a power of two, j/G <= u < (j+1)/G, so the
    index lies in [guide[j], guide[j+1]]: the CDF is searched only for the
    draws where those two differ."""
    j = (u * (guide.size - 1)).astype(np.intp)
    index = guide[j]
    search = np.flatnonzero(index != guide[j + 1])
    index[search] = np.searchsorted(cdf, u[search], side="right")
    return index


def _run_blocks(seed: int, key: tuple, replications: int, block: int, kernel, workers=1) -> None:
    """Run ``kernel`` over ``replications`` in blocks of ``block``, by the
    block rule of the module docstring. Worker k of W = min(workers, blocks)
    calls ``kernel`` once, with an iterator over the (rng, start, size) of its
    blocks, so a kernel can allocate its buffers once per worker."""
    blocks = -(-replications // block)
    workers = min(workers, blocks)

    def worker_blocks(k: int):
        for c in range(blocks)[k::workers]:
            yield _stream(seed, (*key, c)), c * block, min(block, replications - c * block)

    _map_threads(lambda k: kernel(worker_blocks(k)), workers, workers)


def replicate_marginal_estimates(
    p: Sequence[Sequence[float]] | JointDistribution,
    known_col: Sequence[float] | MarginalDistribution,
    n: int,
    replications: int,
    seed: int,
    stream_key: tuple[int, ...] = (),
    *,
    rows: Sequence[int] | None = None,
) -> MarginalReplicates:
    """Draw ``replications`` count tables of size n from p and estimate the
    row marginal both ways on each.

    ``stream_key`` prefixes the per-chunk spawn keys, letting callers embed
    this routine in a larger deterministic experiment (the grid runner
    passes its cell index). ``rows`` selects the 0-based table rows to
    estimate, in that order, and ``None`` means all of them: column k of
    the estimates is row ``rows[k]``, bit for bit as in the all-rows result.
    """
    n = _sample_size(n)
    replications = _integer(replications, "replications", 1)
    seed = _seed(seed)
    if not isinstance(stream_key, tuple):
        raise ValueError(f"stream_key must be a tuple of integers, got {stream_key!r}")
    stream_key = tuple(_integer(k, "each stream_key entry", 0) for k in stream_key)
    p = _coerce(p, JointDistribution)
    known_col = _coerce(known_col, MarginalDistribution)
    known_col.require_positive("known column marginal")
    if len(known_col) != p.n_cols:
        raise ValueError("known marginal length must match the number of columns")
    if rows is None:
        rows = range(p.n_rows)
    elif isinstance(rows, str) or not isinstance(rows, Sequence):
        raise ValueError(f"rows must be a sequence of row indices, got {rows!r}")
    rows = tuple(_integer(i, "each rows entry", 0) for i in rows)
    if not rows or max(rows) >= p.n_rows:
        raise ValueError(f"rows must be non-empty row indices below {p.n_rows}, got {rows!r}")
    flat = p.cells.ravel(order="C")
    # Row-major (rows, replications) stores: each row's estimates are contiguous.
    phat = np.empty((len(rows), replications))
    ptilde = np.empty((len(rows), replications))
    excluded = np.empty(replications, dtype=bool)
    # One cell has one outcome whatever n is, and a table's pmf arrays hold n + 1 entries.
    if flat.size > 1 and math.comb(n + flat.size - 1, flat.size - 1) <= TABLE_OUTCOMES:
        counts, _, cdf = _outcome_table(flat, n)
        outcomes = _count_estimates(counts, known_col.probs, p.dims, n, rows)
        guide = _guide_table(cdf)

        def estimates(rng, size):
            index = _outcome_index(cdf, guide, rng.random(size))
            return [np.take(values, index, axis=0) for values in outcomes]

    else:

        def estimates(rng, size):
            return _chunk_estimates(flat, known_col.probs, p.dims, n, size, rng, rows)

    def kernel(blocks) -> None:
        for rng, start, size in blocks:
            ph, pt, ex = estimates(rng, size)
            phat[:, start : start + size] = ph.T
            ptilde[:, start : start + size] = pt.T
            excluded[start : start + size] = ex

    _run_blocks(seed, stream_key, replications, CHUNK_REPLICATIONS, kernel)
    return MarginalReplicates(_frozen(phat.T), _frozen(ptilde.T), _frozen(excluded))


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
    probs = _coerce(probs, MarginalDistribution).probs
    weights = _coerce(weights, WeightVector)
    replications = _integer(replications, "replications", 1)
    seed = _seed(seed)
    n = len(weights)
    n_categories = probs.shape[0]
    edges = np.cumsum(probs)  # edges[-1] is never read: the last edge is 1
    w = weights.weights
    block = max(1, WEIGHTED_BLOCK_DRAWS // n)
    slab = min(max(1, _SLAB_DRAWS // n), block, replications)
    out = np.empty((replications, n_categories))

    def kernel(blocks) -> None:
        draws = np.empty((slab, n))
        below = np.empty((slab, n), dtype=bool)
        below_prev = np.empty((slab, n), dtype=bool)
        member = np.empty((slab, n))
        for rng, start, size in blocks:
            for lo in range(start, start + size, slab):
                m = min(slab, start + size - lo)
                u = rng.random(out=draws[:m])
                below_prev[:m] = False
                for i in range(n_categories):
                    # edges[:-1] never decrease, so "u < edges[i]" switches on
                    # at most once as i grows: x == i exactly where below is
                    # set and below_prev is not.
                    if i < n_categories - 1:
                        np.less(u, edges[i], out=below[:m])
                        np.greater(below[:m], below_prev[:m], out=member[:m])
                    else:  # every u < 1, the last edge: below would be all set
                        np.logical_not(below_prev[:m], out=member[:m])
                    member[:m] *= w
                    member[:m].sum(axis=1, out=out[lo : lo + m, i])
                    below, below_prev = below_prev, below

    _run_blocks(seed, (), replications, block, kernel, _available_cores())
    return out


def asymptotic_reduction(p: JointDistribution, row: int = 0) -> float:
    """Large-sample fraction of row-marginal variance removed by adjustment.

    gap_rr / plain_rr for the requested row (0-based), with gap from
    :func:`~margfit.asymptotics.variance_gap`: never negative, zero for outer
    products up to rounding, one when the row is a function of the column.
    """
    row = _integer(row, "row", 0)
    if row >= p.n_rows:
        raise ValueError(f"row index {row} out of range")
    prob = p.cells.sum(axis=1)[row]
    return float(variance_reduction(prob - prob * prob, variance_gap(p)[row, row]))


def exact_reduction(p: JointDistribution, n: int) -> float:
    """Exact fraction of first-row marginal variance that the adjustment to
    the table's own column marginal removes at sample size n, among the
    samples with both columns observed (the replications the Monte Carlo
    study keeps). 2x2 tables only.

    With column probability b and q1 = p11/b, q2 = p12/(1-b), the column
    count N1 is Bin(n, b), read from the outcome table of cells (b, 1-b),
    truncated to 1..n-1. Given N1 the adjusted estimate has mean p11 + p12
    and variance b^2 q1(1-q1)/N1 + (1-b)^2 q2(1-q2)/(n-N1); the plain one
    has mean (N1 q1 + (n-N1) q2)/n and a variance by the law of total variance.
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
    # The two-cell outcome table lists (k, n - k) for k = 0..n: N1's law.
    pmf = _outcome_table(np.array([b, 1.0 - b]), n)[1][1:n]
    pmf /= pmf.sum()
    v1, v2 = q1 * (1.0 - q1), q2 * (1.0 - q2)
    var_tilde = float((pmf * (b * b * v1 / k + (1.0 - b) * (1.0 - b) * v2 / (n - k))).sum())
    mean_k = float((pmf * k).sum())
    var_k = float((pmf * (k - mean_k) ** 2).sum())
    gap = q1 - q2
    var_hat = float((mean_k * v1 + (n - mean_k) * v2) / (n * n) + gap * gap * var_k / (n * n))
    return 1.0 - float(variance_reduction(var_hat, var_tilde))


def _aggregate_cell(
    n: int,
    log_cpr: float,
    asym_pct: float,
    target: float,
    phat: np.ndarray,
    ptilde: np.ndarray,
    excluded: np.ndarray,
) -> GridCell:
    zeros = int(excluded.sum())
    if excluded.size - zeros < 2:
        error = "fewer than 2 replications had all columns observed"
        return GridCell(n, log_cpr, asymptotic_pct=asym_pct, zero_column_events=zeros, error=error)
    included = ~excluded
    var_hat, bias_hat = _moments(phat[included], target)
    if var_hat == 0.0:
        error = "unadjusted estimator variance is zero"
        return GridCell(n, log_cpr, asymptotic_pct=asym_pct, zero_column_events=zeros, error=error)
    var_tilde, bias_tilde = _moments(ptilde[included], target)
    reduction_pct = 100.0 * (1.0 - var_tilde / var_hat)
    return GridCell(n, log_cpr, reduction_pct, asym_pct, bias_hat, bias_tilde, zeros)


def _moments(x: np.ndarray, target: float) -> tuple[float, float]:
    """The sample variance of ``x`` and its mean's bias from ``target``.
    Each caller passes a fresh copy that is freed on return, so at most one
    copy is alive: with both alive, the temporaries of ``np.var`` took fresh
    pages from the allocator on every call, and a cell took about 1.5 times
    as long to aggregate."""
    return float(np.var(x, ddof=1)), float(x.mean() - target)


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
    from concurrent.futures import ThreadPoolExecutor  # imported on use: only a pool needs it

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
    worker runs the cells on the calling thread. Cells are handed out from
    both ends of the n-major list in turn (0, N-1, 1, N-2, ...) and the grid
    is assembled by index.
    """
    from decimal import Context, Decimal  # imported on use: only a grid cell needs it

    points = [(n, lc) for n in cfg.n_grid for lc in cfg.log_cpr_grid]
    if workers is None:
        workers = min(_available_cores(), len(points))
    else:
        workers = _integer(workers, "workers", 1)
    row = MarginalDistribution(cfg.row_marginal)
    col = MarginalDistribution(cfg.col_marginal)
    target = cfg.row_marginal[0]

    def run_cell(k: int) -> GridCell:
        n, lc = points[k]
        try:
            cpr = float(Decimal.from_float(lc).exp(Context(prec=40, traps=[])))
            table = build_2x2_from_marginals_cpr(row, col, cpr)
            asym_pct = 100.0 * asymptotic_reduction(table, 0)
            reps = replicate_marginal_estimates(
                table, col, n, cfg.replications, cfg.seed, stream_key=(k,), rows=(0,)
            )
        except ValueError as exc:
            return GridCell(n=n, log_cpr=lc, error=str(exc))
        return _aggregate_cell(
            n, lc, asym_pct, target, reps.phat_rows[:, 0], reps.ptilde_rows[:, 0], reps.excluded
        )

    # Small cells (outcome table, GIL held) run beside large ones (multinomial, GIL
    # released): on 2 cores this order won 7 of 8 30-s grid-study pairs against plain
    # n-major order, median 6.39e6 against 6.06e6 tables/s, p50 950 against 986 ms.
    order = [k // 2 if k % 2 == 0 else len(points) - 1 - k // 2 for k in range(len(points))]
    cells = _map_threads(lambda k: run_cell(order[k]), len(points), workers)
    return ExperimentGrid(cells=tuple(cell for _, cell in sorted(zip(order, cells))))


@_record("")
class CaseStudyRow:
    """Marginal estimates for one row, with and without the adjustment, checked
    as ``GridCell`` is; only ``relative_difference_pct`` may be None."""

    phat: float = _column(float)
    ptilde: float = _column(float)
    relative_difference_pct: float | None = _column(float, default=None)


@dataclass(frozen=True)
class CaseStudyResult:
    """The :func:`run_case_study` estimates, one ``CaseStudyRow`` per row of
    the count table in order, and the 0-based indices of the columns with no
    observations, which the adjustment could not rescale."""

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
        rows.append(CaseStudyRow(ph, pt, rel))
    return CaseStudyResult(rows=tuple(rows), zero_column_mask=adjusted.zero_column_mask)
