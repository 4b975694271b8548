"""margfit benchmark: one command, three workloads, a separate traced run.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload grid-study --seed 1 --seconds 20 --trace 0

The package is imported from ``src/`` of the checkout; nothing is installed
and nothing under ``src/`` is edited. All load comes from this one process and
one client thread (a closed loop: the next request is sent when the previous
one has returned and been checked). ``--trace 0`` measures the end-to-end
metrics; ``--trace 1`` measures half the time untraced and half traced and
reports the per-layer metrics. Human-readable lines and the run manifest come
first; the last line of stdout is the JSON result. A copy of the full record
goes to ``.bench_out/``.
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
BENCH_DIR = Path(__file__).resolve().parent
SETUP_SAMPLES = 7
PROBE_INTERVAL_S = 0.25
PROBE_REFERENCE_S = 0.001  # nominal probe time: times are reported at the speed where it takes this long
TAIL_LADDER = (0.99, 0.95, 0.9, 0.75, 0.5)
TAIL_MIN_BEYOND = 10


def _import_margfit():
    if not (SRC / "margfit" / "__init__.py").is_file():
        raise SystemExit(f"benchmark: no margfit package under {SRC.relative_to(ROOT)}/")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH_DIR))
    import margfit

    if Path(margfit.__file__).resolve().parent != (SRC / "margfit").resolve():
        raise SystemExit(f"benchmark: margfit imported from {margfit.__file__}, not from src/")


# ---------------------------------------------------------------------------
# measurements


def multinomial_kernel() -> None:
    """numpy's multinomial sampler on a fixed Philox stream (about 1 ms)."""
    import numpy as np

    rng = np.random.Generator(np.random.Philox(0))
    rng.multinomial(1000, (0.4, 0.1, 0.2, 0.3), size=4000)


def argparse_kernel() -> None:
    """Build a stdlib argparse parser with subcommands and parse one command
    line (about 1 ms): plain interpreter work, like a CLI request."""
    parser = argparse.ArgumentParser(prog="probe")
    commands = parser.add_subparsers(dest="command", required=True)
    for name in ("a", "b", "c", "d", "e", "f"):
        sub = commands.add_parser(name, help=f"command {name}")
        sub.add_argument("--counts")
        sub.add_argument("--table")
        sub.add_argument("--format", choices=("csv", "json"), default="csv")
    parser.parse_args(["c", "--counts", "probe.csv"])


PROBE_KERNELS = {"multinomial": multinomial_kernel, "argparse": argparse_kernel}


class SpeedProbe:
    """A fixed reference kernel, timed between requests.

    On a shared host, other tenants slow every instruction of this process
    by up to a fifth for stretches of seconds to minutes, far more than the
    differences the benchmark must resolve. The probe runs the workload's
    reference kernel (the median of three runs). Each workload names the
    kernel whose slowdown tracks its own best: numpy's multinomial sampler
    for the simulation workloads, stdlib argparse for the CLI requests of
    analysis. It runs between requests, never inside one. A request's
    slowdown is the mean of the probes just before and after it, divided by
    ``PROBE_REFERENCE_S``, and its latency is divided by that slowdown. The
    kernels do not call margfit, so a change to margfit moves the scaled
    metrics by the same factor as the raw ones.
    """

    def __init__(self, kernel: str):
        self.kernel = PROBE_KERNELS[kernel]
        self.samples: list[float] = []
        self._last = -math.inf

    def sample(self) -> None:
        times = []
        for _ in range(3):
            start = time.perf_counter()
            self.kernel()
            times.append(time.perf_counter() - start)
        self.samples.append(statistics.median(times))
        self._last = time.perf_counter()

    def maybe_sample(self) -> int:
        """Probe if the last probe is older than ``PROBE_INTERVAL_S``; the
        index of the latest probe."""
        if time.perf_counter() - self._last >= PROBE_INTERVAL_S:
            self.sample()
        return len(self.samples) - 1

    def mean_slowdown(self) -> float:
        return statistics.fmean(self.samples) / PROBE_REFERENCE_S

    def slowdown(self, before: int) -> float:
        """Slowdown of work done between probe ``before`` and the next one."""
        return (self.samples[before] + self.samples[before + 1]) / (2 * PROBE_REFERENCE_S)


# A fresh interpreter that imports only numpy: the reference for set-up time.
SETUP_REFERENCE_CHILD = "import time\nimport numpy\nprint(repr(time.clock_gettime(time.CLOCK_MONOTONIC)))\n"
SETUP_REFERENCE_S = 0.1  # set-up is reported at the speed where the reference takes this long


class SetupTimer:
    """Seconds from starting a fresh interpreter until margfit is imported and
    the workload's bundled data is loaded, at reference speed.

    Set-up time drifts with the machine's state by up to a third over tens of
    minutes, and the between-request probes do not follow it: it includes
    process start and file access, which their kernels do not exercise. So
    each sample is taken between two starts of ``SETUP_REFERENCE_CHILD``,
    which does not import margfit, and is divided by their mean and
    multiplied by ``SETUP_REFERENCE_S``. The samples are taken after the
    timed loop, so they do not disturb its requests.
    """

    def __init__(self, setup_code: str):
        self.child = (
            "import sys, time\n"
            f"sys.path.insert(0, {str(SRC)!r})\n"
            f"{setup_code}"
            "ready = time.clock_gettime(time.CLOCK_MONOTONIC)\n"
            "import margfit\n"
            f"assert margfit.__file__.startswith({str(SRC)!r}), margfit.__file__\n"
            "print(repr(ready))\n"
        )
        self.times: list[float] = []  # raw seconds
        self.scaled: list[float] = []  # at reference speed

    @staticmethod
    def _spawn(code: str) -> float:
        start = time.clock_gettime(time.CLOCK_MONOTONIC)
        proc = subprocess.run(
            [sys.executable, "-c", code], capture_output=True, text=True, timeout=120, cwd=ROOT
        )
        if proc.returncode != 0:
            raise SystemExit(f"benchmark: set-up interpreter failed:\n{proc.stderr}")
        return float(proc.stdout.strip()) - start

    def warm(self) -> None:
        """One start of each interpreter, not counted."""
        self._spawn(SETUP_REFERENCE_CHILD)
        self._spawn(self.child)

    def sample(self) -> None:
        before = self._spawn(SETUP_REFERENCE_CHILD)
        raw = self._spawn(self.child)
        after = self._spawn(SETUP_REFERENCE_CHILD)
        self.times.append(raw)
        self.scaled.append(raw * 2 * SETUP_REFERENCE_S / (before + after))


def tail_percentile(n: int) -> float:
    """The highest percentile of the ladder with at least ten samples beyond it."""
    for q in TAIL_LADDER:
        if n * (1.0 - q) >= TAIL_MIN_BEYOND:
            return q
    return 0.5


def quantile(values: list[float], q: float) -> float:
    """Nearest-rank quantile; the median is the usual midpoint median."""
    if q == 0.5:
        return statistics.median(values)
    ordered = sorted(values)
    return ordered[min(len(ordered), math.ceil(q * len(ordered))) - 1]


class Loop:
    """Results of one closed-loop measurement."""

    def __init__(self, probe_kernel: str):
        self.probe = SpeedProbe(probe_kernel)
        self.latencies: list[float] = []
        self.probe_before: list[int] = []  # per request, the probe just before it
        self.items = 0
        self.attempted = 0
        self.failed_ops: set[tuple[int, int]] = set()
        self.incorrect_ops: set[tuple[int, int]] = set()
        self.failures: list[str] = []
        self.by_label: dict[str, list[int]] = {}

    @property
    def busy_s(self) -> float:
        return sum(self.latencies)

    def scaled_latencies(self) -> list[float]:
        """Request latencies at reference machine speed (see SpeedProbe)."""
        slow = self.probe.slowdown
        return [t / slow(p) for t, p in zip(self.latencies, self.probe_before)]

    def throughput(self) -> float:
        """Items per second of request time, at reference machine speed."""
        return self.items / sum(self.scaled_latencies())

    def fail(self, key, category, label, message):
        if key not in self.failed_ops:
            self.failed_ops.add(key)
            self.by_label[label][1] += 1
        if category != "exit_class":
            self.incorrect_ops.add(key)
        if len(self.failures) < 20:
            self.failures.append(f"{label}: {message}")


class Runner:
    def __init__(self, workload):
        self.workload = workload
        self.references: dict[tuple[int, int], str] = {}
        self.first_cycle: list[str] = []
        self.mismatches = 0
        self.sequence = 0  # request number across all loops of the run

    def loop(self, seconds: float, tracer=None) -> Loop:
        """Send requests until ``seconds`` have passed and one full cycle is
        done."""
        wl = self.workload
        stats = Loop(wl.probe_kernel)
        cycle = wl.cycle
        run_request = wl.run_request
        if tracer is not None:
            from tracing import ROOT_SPAN

            run_request = tracer.wrap(ROOT_SPAN, wl.run_request)
        cycle_ops = sum(len(r.ops) for r in cycle)
        done, pending = 0, []
        start = time.perf_counter()
        while done < len(cycle) or time.perf_counter() - start < seconds:
            stats.probe_before.append(stats.probe.maybe_sample())
            position = done % len(cycle)
            request = cycle[position]
            if tracer is not None:
                tracer.request = self.sequence
            t0 = time.perf_counter()
            outcomes = run_request(request)
            stats.latencies.append(time.perf_counter() - t0)
            stats.items += request.items
            key = self.sequence
            for op, label in enumerate(request.labels):
                stats.attempted += 1
                stats.by_label.setdefault(label, [0, 0])[0] += 1
            for op, category, message in wl.check(request, outcomes):
                stats.fail((key, op), category, request.labels[op], message)
            for op, outcome in enumerate(outcomes):
                digest = hashlib.sha256(wl.digest(outcome)).hexdigest()
                reference = self.references.setdefault((position, op), digest)
                if len(self.first_cycle) < cycle_ops:
                    self.first_cycle.append(digest)
                if digest != reference:
                    self.mismatches += 1
                    stats.fail((key, op), "incorrect", request.labels[op], "output bytes changed for identical inputs")
            pending.append((key, request, outcomes))
            if position == len(cycle) - 1:
                for pos, op, category, message in wl.check_cycle([(r, o) for _, r, o in pending]):
                    stats.fail((pending[pos][0], op), category, pending[pos][1].labels[op], message)
                pending = []
            self.sequence += 1
            done += 1
        stats.probe.sample()
        return stats

    def output_sha256(self) -> str:
        return hashlib.sha256("".join(self.first_cycle).encode()).hexdigest()


# ---------------------------------------------------------------------------
# metrics


def end_to_end(stats: Loop, setup: SetupTimer) -> dict:
    """The end-to-end metrics, times at reference machine speed (see
    SpeedProbe and SetupTimer)."""
    latencies = stats.scaled_latencies()
    return {
        "setup_s": (statistics.median(setup.scaled), "s"),
        "throughput_per_s": (stats.throughput(), "1/s"),
        "request_p50_ms": (1e3 * statistics.median(latencies), "ms"),
        "request_tail_ms": (1e3 * quantile(latencies, tail_percentile(len(latencies))), "ms"),
        "peak_rss_mib": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB"),
    }


LAYER_SPANS = (
    "client",
    "cli",
    "io.parse",
    "io.render",
    "asymptotics.reduction",
    "asymptotics.covariance",
    "asymptotics.other",
    "estimators.adjust",
    "estimators.ipf",
    "tables.build",
    "tables.other",
    "simulation.run",
    "simulation.sample",
    "simulation.reduce",
    "simulation.aggregate",
    "simulation.weighted",
)


def per_layer(tracer, traced: Loop, base: Loop, extras: dict) -> dict:
    """Per-request totals from the traced loop, plus run-level ratios."""
    requests = len(traced.latencies)
    times = tracer.self_times()
    c = tracer.counters
    out = {}
    for name in LAYER_SPANS:
        calls, self_s = times.get(name, (0, 0.0))
        if name != "client":
            out[f"{name}.calls"] = (calls / requests, "calls/req")
        out[f"{name}.self_s"] = (self_s / requests, "s/req")
    ipf_results = c["estimators.ipf.results"]
    drawn = c["simulation.replications_drawn"]
    out.update(
        {
            "io.parse.bytes": (c["io.parse.bytes"] / requests, "B/req"),
            "io.render.bytes": (c["io.render.bytes"] / requests, "B/req"),
            "estimators.ipf.iterations_sum": (c["estimators.ipf.iterations_sum"] / requests, "iter/req"),
            "estimators.ipf.iterations_max": (tracer.maxima["estimators.ipf.iterations_max"], "iter"),
            "estimators.ipf.converged_frac": (
                c["estimators.ipf.converged"] / ipf_results if ipf_results else 0.0,
                "ratio",
            ),
            "simulation.counts_bytes": (c["simulation.counts_bytes"] / requests, "computed-B/req"),
            "simulation.replications_used_frac": (
                c["simulation.replications_used"] / drawn if drawn else 0.0,
                "ratio",
            ),
            "simulation.store_bytes": (c["simulation.store_bytes"] / requests, "computed-B/req"),
            "simulation.weighted.blocks": (c["simulation.weighted.blocks"] / requests, "blocks/req"),
            "simulation.weighted.draws": (c["simulation.weighted.draws"] / requests, "draws/req"),
            "simulation.weighted.bytes": (c["simulation.weighted.bytes"] / requests, "computed-B/req"),
            "simulation.parallel_efficiency": (extras.get("parallel_efficiency", 0.0), "ratio"),
            "trace_overhead_frac": (base.throughput() / traced.throughput() - 1.0, "ratio"),
        }
    )
    return out


# ---------------------------------------------------------------------------
# manifest


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if ref.startswith("ref: "):
            return (ROOT / ".git" / ref[5:]).read_text().strip()
        return ref
    except OSError:
        return "unknown (not a git checkout)"


def manifest(args, wl, nproc) -> dict:
    import numpy
    import margfit
    import margfit.simulation as simulation

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "scale": args.scale,
        "nproc": nproc,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "margfit": getattr(margfit, "__version__", "unknown"),
        "git_commit": git_commit(),
        "chunk_replications": getattr(simulation, "CHUNK_REPLICATIONS", None),
        "load_generator_threads": 1,
        "sizes": wl.sizes(),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scale", choices=("full", "tiny"), default="full", help="tiny: smoke-check sizes"
    )
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be >= 0")
    os.chdir(ROOT)
    _import_margfit()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"--workload must be one of {sorted(WORKLOADS)}")
    wl = WORKLOADS[args.workload]()
    nproc = len(os.sched_getaffinity(0))

    workdir = os.path.join(".bench_work", f"{wl.name}-s{args.seed}")
    shutil.rmtree(workdir, ignore_errors=True)
    os.makedirs(workdir)
    try:
        wl.prepare(args.seed, args.scale, workdir)
        wl.warmup()
        known_defects = wl.known_defects()
        # The prepared requests are the benchmark's heap, not the program's: keep
        # the collector from rescanning them during timed requests.
        gc.collect()
        gc.freeze()
        runner = Runner(wl)
        extras: dict = {}
        setup_times = []
        if args.trace == 0:
            loops = [runner.loop(args.seconds)]
            setup = SetupTimer(wl.setup_code)
            setup.warm()
            for _ in range(SETUP_SAMPLES):
                setup.sample()
            setup_times = setup.times
            metrics = end_to_end(loops[0], setup)
        else:
            from tracing import MissingLayer, Tracer, instrument

            base = runner.loop(args.seconds / 2)
            tracer = Tracer()
            try:
                with instrument(tracer):
                    traced = runner.loop(args.seconds / 2, tracer)
            except MissingLayer as exc:
                raise SystemExit(f"benchmark: {exc}; update the plan in benchmarks/tracing.py") from exc
            loops = [base, traced]
            if hasattr(wl, "parallel_check"):
                t1, tn, same = wl.parallel_check(nproc)
                extras["parallel_efficiency"] = t1 / (nproc * tn)
                extras["parallel_seconds"] = {"workers=1": t1, f"workers={nproc}": tn}
                if not same:
                    runner.mismatches += 1
                    traced.attempted += 1
                    traced.by_label.setdefault("workers", [0, 0])[0] += 1
                    traced.fail((-1, 0), "incorrect", "workers", "grid output differs between workers=1 and workers=nproc")
            metrics = per_layer(tracer, traced, base, extras)
            metrics["failed_frac"] = (
                sum(len(s.failed_ops) for s in loops) / sum(s.attempted for s in loops),
                "ratio",
            )
            metrics["determinism_mismatches"] = (runner.mismatches, "count")
            metrics["known_defect_mismatches"] = (len(known_defects), "count")
            tracer.write(os.path.join(".bench_out", f"spans-{wl.name}-s{args.seed}.jsonl"))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(s.attempted for s in loops)
    failed = sum(len(s.failed_ops) for s in loops)
    incorrect = sum(len(s.incorrect_ops) for s in loops)
    by_label: dict[str, list[int]] = {}
    for s in loops:
        for label, (a, f) in s.by_label.items():
            entry = by_label.setdefault(label, [0, 0])
            entry[0] += a
            entry[1] += f

    # Human-readable report: raw (unscaled) figures under the names users know.
    main_loop = loops[-1]
    report = dict(wl.report(main_loop.items, main_loop.busy_s))
    q = tail_percentile(len(main_loop.latencies))
    report["requests_per_s"] = (len(main_loop.latencies) / main_loop.busy_s, "1/s")
    report["request_p50_ms"] = (1e3 * statistics.median(main_loop.latencies), "ms")
    report[f"request_p{round(100 * q)}_ms"] = (1e3 * quantile(main_loop.latencies, q), "ms")
    if setup_times:
        report["setup_s"] = (statistics.median(setup_times), "s")
    report["peak_rss_mib"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    report["failed_frac"] = (failed / attempted, "ratio")
    report["slowdown"] = (main_loop.probe.mean_slowdown(), "x (mean probe time / reference)")
    for name, (value, unit) in report.items():
        print(f"{name} = {value:.6g} {unit}")
    print(f"samples = {len(main_loop.latencies)} requests, {attempted} operations attempted, {failed} failed")

    record = {
        "manifest": manifest(args, wl, nproc),
        "output_sha256": runner.output_sha256(),
        "determinism_mismatches": runner.mismatches,
        "requests": [len(s.latencies) for s in loops],
        "operations_by_label": {k: {"attempted": a, "failed": f} for k, (a, f) in sorted(by_label.items())},
        "failures": [msg for s in loops for msg in s.failures][:20],
        "known_defects": known_defects,
        "setup_times_s": setup_times,
        "extras": extras,
        "report": {k: {"value": v, "unit": u} for k, (v, u) in report.items()},
    }
    print("manifest = " + json.dumps(record["manifest"], sort_keys=True))
    print(f"output_sha256 = {record['output_sha256']} (determinism mismatches: {runner.mismatches})")
    for message in record["failures"][:5]:
        print(f"failure: {message}")
    for message in known_defects:
        print(f"known defect (not counted in failed): {message}")
    result = {
        "correct": incorrect == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    record["result"] = result
    os.makedirs(".bench_out", exist_ok=True)
    out_path = os.path.join(".bench_out", f"{wl.name}-s{args.seed}-trace{args.trace}.json")
    with open(out_path, "w", encoding="utf-8") as fh:
        json.dump(record, fh, indent=2, sort_keys=True)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
