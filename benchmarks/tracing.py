"""Spans around margfit's layer boundaries, recorded from outside the package.

:func:`instrument` replaces module attributes of ``margfit`` (including the
names that ``margfit.cli`` imported from the other modules) with wrappers
that record a span per call, and restores them on exit. Nothing under
``src/`` is edited. Each span records its name, start, end, parent span and
request id; spans stay in memory until :meth:`Tracer.write` is called at the
end of the run. A span's self time is its duration minus the time covered by
its direct children.

Span names are ``<module>.<stage>`` and the stage part uses the layer names of
ROADMAP aim 1 (build, sample, reduce, aggregate, covariance, weighted, parse,
render), so in-program tracing can reuse them later.
"""

from __future__ import annotations

import json
import os
from array import array
from collections import defaultdict
from contextlib import contextmanager
from time import perf_counter

ROOT_SPAN = "client"


class Tracer:
    """In-memory span recorder for one thread of calls."""

    def __init__(self):
        # One entry per span in each column. Numbers live in arrays, which the
        # garbage collector does not traverse, so a long run stays cheap to trace.
        self.names: list[str] = []
        self.starts = array("d")
        self.ends = array("d")
        self.parents = array("q")
        self.requests = array("q")
        self.counters: defaultdict[str, float] = defaultdict(float)
        self.maxima: defaultdict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self.request = -1

    def current(self) -> str | None:
        return self.names[self._stack[-1]] if self._stack else None

    def caller(self) -> str | None:
        """Name of the span that called the current one."""
        parent = self.parents[self._stack[-1]] if self._stack else -1
        return self.names[parent] if parent >= 0 else None

    def wrap(self, name: str, fn, on_result=None):
        """``fn`` recording one span per call; ``on_result(tracer, args,
        kwargs, result)`` runs inside the span, after ``fn`` returned, so its
        cost lands in this span's self time and not in the caller's."""

        def traced(*args, **kwargs):
            index = len(self.names)
            self.parents.append(self._stack[-1] if self._stack else -1)
            self.requests.append(self.request)
            self.names.append(name)
            self.ends.append(0.0)
            self._stack.append(index)
            self.starts.append(perf_counter())
            try:
                result = fn(*args, **kwargs)
                if on_result is not None:
                    on_result(self, args, kwargs, result)
            finally:
                self.ends[index] = perf_counter()
                self._stack.pop()
            return result

        traced.__wrapped__ = fn
        return traced

    def self_times(self) -> dict[str, tuple[int, float]]:
        """name -> (calls, total self seconds)."""
        covered = [0.0] * len(self.names)
        for start, end, parent in zip(self.starts, self.ends, self.parents):
            if parent >= 0:
                covered[parent] += end - start
        out: dict[str, list] = defaultdict(lambda: [0, 0.0])
        for name, start, end, child_time in zip(self.names, self.starts, self.ends, covered):
            entry = out[name]
            entry[0] += 1
            entry[1] += (end - start) - child_time
        return {name: (calls, total) for name, (calls, total) in out.items()}

    def write(self, path) -> None:
        os.makedirs(os.path.dirname(path) or ".", exist_ok=True)
        with open(path, "w", encoding="utf-8") as fh:
            for span in zip(self.names, self.starts, self.ends, self.parents, self.requests):
                fh.write(json.dumps(span) + "\n")


class _StreamProxy:
    """A random generator whose draw methods are timed as ``simulation.sample``."""

    def __init__(self, rng, tracer: Tracer):
        self._rng = rng
        self._tracer = tracer

    def __getattr__(self, attr):
        value = getattr(self._rng, attr)
        if not callable(value):
            return value
        return self._tracer.wrap("simulation.sample", value, _count_drawn_bytes)


def _count_drawn_bytes(tracer, args, kwargs, result):
    nbytes = getattr(result, "nbytes", 0)
    if tracer.caller() == "simulation.reduce":
        tracer.counters["simulation.counts_bytes"] += nbytes
    elif tracer.caller() == "simulation.weighted":
        tracer.counters["simulation.weighted.bytes"] += nbytes


def _parse_bytes(tracer, args, kwargs, result):
    path = args[0] if args else None
    if isinstance(path, (str, os.PathLike)) and os.path.exists(path):
        tracer.counters["io.parse.bytes"] += os.path.getsize(path)


def _render_bytes(tracer, args, kwargs, result):
    tracer.counters["io.render.bytes"] += len(result.encode("utf-8"))


def _ipf_result(tracer, args, kwargs, result):
    tracer.counters["estimators.ipf.results"] += 1
    tracer.counters["estimators.ipf.iterations_sum"] += result.iterations
    tracer.counters["estimators.ipf.converged"] += bool(result.converged)
    tracer.maxima["estimators.ipf.iterations_max"] = max(
        tracer.maxima["estimators.ipf.iterations_max"], result.iterations
    )


def _aggregate_args(tracer, args, kwargs, result):
    # _aggregate_cell(n, log_cpr, asym_pct, target, phat, ptilde, excluded)
    phat, ptilde, excluded = args[4:7]
    tracer.counters["simulation.replications_drawn"] += excluded.size
    tracer.counters["simulation.replications_used"] += excluded.size - int(
        excluded.sum()
    )
    tracer.counters["simulation.store_bytes"] += phat.nbytes + ptilde.nbytes + excluded.nbytes


def _weighted_args(tracer, args, kwargs, result):
    tracer.counters["simulation.weighted.draws"] += result.shape[0] * len(args[1])
    tracer.counters["simulation.weighted.bytes"] += result.nbytes


def _bundled_bytes(data_dir, name_of):
    """Hook counting the size of the bundled data file ``name_of(args)``."""

    def count(tracer, args, kwargs, result):
        path = os.path.join(data_dir, name_of(args))
        if os.path.exists(path):
            tracer.counters["io.parse.bytes"] += os.path.getsize(path)

    return count


def _weighted_blocks(tracer, args, kwargs, result):
    if tracer.current() == "simulation.weighted":
        tracer.counters["simulation.weighted.blocks"] += 1


class MissingLayer(RuntimeError):
    """margfit lacks attributes that :func:`instrument` is planned to wrap."""

    def __init__(self, missing: list[str]):
        super().__init__("traced run cannot wrap missing margfit attributes: " + ", ".join(missing))
        self.missing = missing


@contextmanager
def instrument(tracer: Tracer):
    """Patch margfit's layer functions to record spans into ``tracer``.

    Raises :class:`MissingLayer` before patching anything when margfit no
    longer has an attribute of the plan, since that layer's metrics would
    otherwise read zero and look like a gain. A change that renames or
    merges a wrapped function updates the plan below with it.
    """
    import margfit.asymptotics as asymptotics
    import margfit.cli as cli
    import margfit.simulation as simulation

    data_dir = os.path.join(os.path.dirname(simulation.__file__), "data")
    # (namespace, attribute, span name, hook)
    plan = [(cli, "main", "cli", None)]
    for attr in ("read_count_table", "read_marginal", "read_joint_table", "read_experiment_config"):
        plan.append((cli, attr, "io.parse", _parse_bytes))
    plan += [
        (cli, "load_study_config", "io.parse", _bundled_bytes(data_dir, lambda a: f"case{a[0]}.json")),
        (cli, "load_gidas_table3", "io.parse", _bundled_bytes(data_dir, lambda a: "gidas_table3.csv")),
        (cli, "load_destatis2014", "io.parse", _bundled_bytes(data_dir, lambda a: "destatis2014.csv")),
    ]
    for attr in ("render_sections", "render_grid_csv", "render_case_study_csv"):
        plan.append((cli, attr, "io.render", _render_bytes))
    for ns in (cli, simulation):
        plan += [
            (ns, "asymptotic_reduction", "asymptotics.reduction", None),
            (ns, "adjust_to_known_marginal", "estimators.adjust", None),
            (ns, "run_experiment", "simulation.run", None),
            (ns, "run_case_study", "simulation.run", None),
            (ns, "empirical_joint", "tables.other", None),
        ]
    for attr in ("marginal_covariance", "adjusted_marginal_covariance", "chi2_reduction_bound"):
        plan.append((cli, attr, "asymptotics.other", None))
    for attr in ("row_marginal", "column_marginal"):
        plan.append((cli, attr, "tables.other", None))
    plan += [
        (cli, "ipf_fit", "estimators.ipf", _ipf_result),
        (simulation, "build_2x2_from_marginals_cpr", "tables.build", None),
        (simulation, "_chunk_estimates", "simulation.reduce", None),
        (simulation, "_aggregate_cell", "simulation.aggregate", _aggregate_args),
        (simulation, "replicate_weighted_frequencies", "simulation.weighted", _weighted_args),
    ]

    missing = [f"{ns.__name__}.{attr}" for ns, attr, _, _ in plan if not hasattr(ns, attr)]
    if not hasattr(simulation, "_stream"):
        missing.append("margfit.simulation._stream")
    # CovarianceMatrix construction: the dataclass __init__ looks up
    # __post_init__ (the eigvalsh validation) on the class at call time.
    matrix = getattr(asymptotics, "CovarianceMatrix", None)
    if matrix is None or "__post_init__" not in vars(matrix):
        missing.append("margfit.asymptotics.CovarianceMatrix.__post_init__")
    if missing:
        raise MissingLayer(missing)

    saved = []
    try:
        for ns, attr, name, hook in plan:
            saved.append((ns, attr, getattr(ns, attr)))
            setattr(ns, attr, tracer.wrap(name, getattr(ns, attr), hook))
        factory = simulation._stream
        saved.append((simulation, "_stream", factory))

        def stream(*args, **kwargs):
            _weighted_blocks(tracer, args, kwargs, None)
            return _StreamProxy(factory(*args, **kwargs), tracer)

        simulation._stream = stream
        saved.append((matrix, "__post_init__", matrix.__post_init__))
        matrix.__post_init__ = tracer.wrap("asymptotics.covariance", matrix.__post_init__)
        yield tracer
    finally:
        for ns, attr, original in reversed(saved):
            setattr(ns, attr, original)
