"""The benchmark's three workloads: inputs, timed calls and correctness checks.

Every workload is a fixed *cycle* of requests made from the benchmark seed.
The closed loop in ``run.py`` sends the cycle's requests one after another and
starts over at the end, so repeated requests double as the determinism check
(same code, same inputs, same bytes). A request is one or more *operations*
(one ``margfit`` call each); every operation is checked and counts toward the
attempted/failed totals.

Failure categories: ``exit_class`` is an input the program rejected cleanly
(documented exit code 1, 2 or 3, nothing on stdout, a one-line message) but in
another class than the documented one; ``incorrect`` is everything else (a
wrong value, an output that does not re-parse, a traceback, a valid request
that failed, bytes that changed between identical requests).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import traceback
from dataclasses import dataclass, field

import numpy as np
from margfit.tables import PROB_TOL

STUDY_CASES = ("I", "II", "III")


def derive_seed(seed: int, *key: int) -> int:
    """A 64-bit seed for one request, fixed by the benchmark seed and ``key``."""
    state = np.random.SeedSequence(entropy=seed, spawn_key=key).generate_state(1, np.uint64)
    return int(state[0])


@dataclass
class Request:
    ops: list
    labels: list[str]
    items: int


@dataclass
class CliOutcome:
    code: int
    stdout: str
    stderr: str

    def digest_bytes(self) -> bytes:
        return f"{self.code}\n".encode() + self.stdout.encode() + b"\0" + self.stderr.encode()


def call_cli(argv: list[str]) -> CliOutcome:
    """``margfit.cli.main(argv)`` in this process, as the console script runs it.

    ``main`` is looked up at call time so the tracer's wrapper is used. An
    exception escaping ``main`` is what the console script would turn into a
    traceback and exit status 1.
    """
    import margfit.cli

    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = margfit.cli.main(argv)
        except SystemExit as exc:
            code = exc.code if isinstance(exc.code, int) else 1
        except Exception:
            traceback.print_exc()
            code = 1
    return CliOutcome(int(code), out.getvalue(), err.getvalue())


def _one_line_rejection(outcome: CliOutcome) -> bool:
    return (
        outcome.code in (1, 2, 3)
        and outcome.stdout == ""
        and outcome.stderr.endswith("\n")
        and outcome.stderr.count("\n") == 1
    )


class Workload:
    name = ""
    setup_code = ""  # statements a fresh interpreter runs for setup_s
    probe_kernel = "multinomial"  # run.PROBE_KERNELS: the reference speed kernel
    cycle: list[Request]

    def prepare(self, seed: int, scale: str, workdir: str) -> None:
        raise NotImplementedError

    def warmup(self) -> None:
        raise NotImplementedError

    def run_request(self, request: Request) -> list:
        """The timed part: one outcome per operation."""
        raise NotImplementedError

    def digest(self, outcome) -> bytes:
        raise NotImplementedError

    def check(self, request: Request, outcomes: list) -> list[tuple[int, str, str]]:
        """(operation index, category, message) per failed check."""
        raise NotImplementedError

    def check_cycle(self, results: list[tuple[Request, list]]) -> list[tuple[int, int, str, str]]:
        """Checks over one complete cycle: (request position, operation, category, message)."""
        return []

    def known_defects(self) -> list[str]:
        """Run the requests of known, documented defects once, outside the
        timed loop and the attempted/failed totals; one message per check
        that still fails."""
        return []

    def sizes(self) -> dict:
        raise NotImplementedError

    def report(self, items: int, busy_s: float) -> dict[str, tuple[float, str]]:
        """Workload-specific throughput figures, by name: (value, unit)."""
        return {}


# ---------------------------------------------------------------------------
# grid-study


class GridStudy(Workload):
    """``margfit simulate`` for the three bundled study configurations.

    One request is one pass over cases I, II and III (6.0M count tables at the
    bundled sizes); each ``simulate`` call is one operation.
    """

    name = "grid-study"
    setup_code = (
        "import margfit.cli\n"
        "from margfit.io import load_study_config\n"
        "for case in ('I', 'II', 'III'):\n"
        "    load_study_config(case)\n"
    )

    def prepare(self, seed, scale, workdir):
        from margfit.io import load_study_config, read_experiment_config

        self.configs = []  # (--config argument, seed, ExperimentConfig)
        for k, case in enumerate(STUDY_CASES):
            case_seed = derive_seed(seed, 1, k)
            if scale == "full":
                arg = f"case{case}.json"  # the CLI falls back to the bundled config
                cfg = load_study_config(case)
            else:
                data = load_study_config(case).to_dict()
                data.update(log_cpr_grid=[-2.0, 0.0, 2.0], n_grid=[100, 1000])
                arg = os.path.join(workdir, f"tiny-case{case}.json")
                with open(arg, "w", encoding="utf-8") as fh:
                    json.dump(data, fh)
                cfg = read_experiment_config(arg)
            self.configs.append((arg, case_seed, cfg.with_overrides(seed=case_seed)))
        tables = sum(
            len(c.n_grid) * len(c.log_cpr_grid) * c.replications for _, _, c in self.configs
        )
        self.draws_per_pass = sum(
            sum(c.n_grid) * len(c.log_cpr_grid) * c.replications for _, _, c in self.configs
        )
        self.cycle = [Request(ops=self.configs, labels=["simulate"] * 3, items=tables)]

    def warmup(self):
        arg, case_seed, _ = self.configs[0]
        call_cli(["simulate", "--config", arg, "--seed", str(case_seed), "--replications", "2"])

    def run_request(self, request):
        return [
            call_cli(["simulate", "--config", arg, "--seed", str(case_seed)])
            for arg, case_seed, _ in request.ops
        ]

    def digest(self, outcome):
        return outcome.digest_bytes()

    def check(self, request, outcomes):
        from margfit.io import parse_grid_csv_text, render_grid_csv

        failures = []
        for op, ((_, _, cfg), outcome) in enumerate(zip(request.ops, outcomes)):
            if outcome.code != 0 or outcome.stderr:
                failures.append((op, "incorrect", f"exit {outcome.code}: {outcome.stderr[:200]!r}"))
                continue
            try:
                grid = parse_grid_csv_text(outcome.stdout)
            except ValueError as exc:
                failures.append((op, "incorrect", f"grid CSV does not re-parse: {exc}"))
                continue
            if op == 1:
                self.case_ii_csv = outcome.stdout
            if render_grid_csv(grid) != outcome.stdout:
                failures.append((op, "incorrect", "grid CSV round trip changed the bytes"))
            failures += [(op, "incorrect", msg) for msg in _grid_band_violations(grid, cfg)]
        return failures

    def sizes(self):
        return {
            "configs": [arg for arg, _, _ in self.configs],
            "seeds": [case_seed for _, case_seed, _ in self.configs],
            "tables_per_pass": self.cycle[0].items,
            "draws_per_pass": self.draws_per_pass,
        }

    def report(self, items, busy_s):
        passes = items / self.cycle[0].items
        return {
            "replications_per_s": (items / busy_s, "1/s"),
            "draws_per_s": (passes * self.draws_per_pass / busy_s, "1/s"),
        }

    def parallel_check(self, workers: int):
        """Seconds for run_experiment(case II) serially and with ``workers``
        threads, and whether both render the bytes ``simulate`` printed."""
        from time import perf_counter

        import margfit.simulation as simulation
        from margfit.io import render_grid_csv

        cfg = self.configs[1][2]
        t0 = perf_counter()
        serial = simulation.run_experiment(cfg, workers=1)
        t1 = perf_counter()
        parallel = simulation.run_experiment(cfg, workers=workers)
        t2 = perf_counter()
        same = render_grid_csv(serial) == self.case_ii_csv == render_grid_csv(parallel)
        return t1 - t0, t2 - t1, same


def _grid_band_violations(grid, cfg) -> list[str]:
    """The criterion-5 bands of the acceptance suite, applied to one grid."""
    out = []
    expected = len(cfg.n_grid) * len(cfg.log_cpr_grid)
    if len(grid.cells) != expected:
        out.append(f"{len(grid.cells)} grid cells, expected {expected}")
    bands = {100: 5.0, 1000: 3.0, 10000: 2.0}
    for cell in grid.cells:
        where = f"n={cell.n} log_cpr={cell.log_cpr!r}"
        if cell.error is not None or cell.reduction_pct is None:
            out.append(f"error cell at {where}: {cell.error}")
            continue
        if not -100.0 <= cell.reduction_pct <= 100.0:
            out.append(f"reduction {cell.reduction_pct!r} outside [-100, 100] at {where}")
        if cell.n >= 100 and cell.zero_column_events >= 0.001 * cfg.replications:
            out.append(f"{cell.zero_column_events} zero-column replications at {where}")
        if cell.n in bands and abs(cell.reduction_pct - cell.asymptotic_pct) > bands[cell.n]:
            out.append(
                f"reduction {cell.reduction_pct!r} vs limit {cell.asymptotic_pct!r} at {where}"
            )
        if abs(cell.log_cpr) <= 1e-12:
            limit_ok = (
                abs(cell.reduction_pct) <= 2.0 if cell.n >= 100 else cell.reduction_pct <= 0.5
            )
            if not limit_ok:
                out.append(f"independent-table reduction {cell.reduction_pct!r} at {where}")
    return out


# ---------------------------------------------------------------------------
# weighted-penalty


class WeightedPenalty(Workload):
    """``replicate_weighted_frequencies`` with ramp weights (criterion 7).

    One request draws ``replications`` weighted samples on each of the two
    marginals with one seed; a cycle is sixteen seeds, 20000 replications per
    marginal, the scale at which criterion 7 checks the scaled variance.
    Requests are kept near half a second so that the speed probes taken
    between them bracket each one closely (see ``run.SpeedProbe``).
    """

    name = "weighted-penalty"
    setup_code = "import margfit\nfrom margfit.io import load_destatis2014\nload_destatis2014()\n"
    SEEDS_PER_CYCLE = 16
    REPLICATIONS = 1250

    def prepare(self, seed, scale, workdir):
        from margfit import WeightVector
        from margfit.io import load_destatis2014

        self.observations = 10000 if scale == "full" else 500
        ramp = np.arange(1, self.observations + 1, dtype=np.float64)
        self.weights = WeightVector(ramp / ramp.sum())
        self.sum_w2 = float(np.sum(self.weights.weights**2))
        self.marginals = [
            ("criterion7", np.array([0.3, 0.7])),
            ("destatis2014", load_destatis2014()),
        ]
        self.seeds = [derive_seed(seed, 2, k) for k in range(self.SEEDS_PER_CYCLE)]
        draws = self.REPLICATIONS * self.observations
        self.cycle = [
            Request(
                ops=[(index, s) for index in range(len(self.marginals))],
                labels=[name for name, _ in self.marginals],
                items=draws * len(self.marginals),
            )
            for s in self.seeds
        ]

    def _call(self, index, s, replications):
        import margfit.simulation as simulation

        probs = self.marginals[index][1]
        return simulation.replicate_weighted_frequencies(probs, self.weights, replications, seed=s)

    def warmup(self):
        for index in range(len(self.marginals)):
            self._call(index, self.seeds[0], 50)

    def run_request(self, request):
        return [self._call(index, s, self.REPLICATIONS) for index, s in request.ops]

    def digest(self, outcome):
        return outcome.tobytes()

    def _probs(self, index):
        probs = self.marginals[index][1]
        return np.asarray(getattr(probs, "probs", probs), dtype=np.float64)

    def check(self, request, outcomes):
        failures = []
        for op, ((index, _), est) in enumerate(zip(request.ops, outcomes)):
            shape = (self.REPLICATIONS, self._probs(index).size)
            if getattr(est, "shape", None) != shape:
                failures.append((op, "incorrect", f"shape {getattr(est, 'shape', None)}, expected {shape}"))
            elif not np.isfinite(est).all() or np.abs(est.sum(axis=1) - 1.0).max() > 1e-9:
                failures.append((op, "incorrect", "weighted frequencies do not sum to 1"))
        return failures

    def check_cycle(self, results):
        """Scaled variance of each category within 5% of the multinomial limit
        p(1-p), pooled over the cycle's seeds (criterion 7's tolerance at its
        replication count)."""
        failures = []
        for index, (name, _) in enumerate(self.marginals):
            probs = self._probs(index)
            pooled = np.concatenate([outcomes[index] for _, outcomes in results])
            for i, p in enumerate(probs):
                scaled = float(np.var(pooled[:, i], ddof=1)) / self.sum_w2
                target = p * (1.0 - p)
                if abs(scaled - target) > 0.05 * target:
                    message = f"{name} category {i}: scaled variance {scaled!r} vs limit {target!r}"
                    failures += [(pos, index, "incorrect", message) for pos in range(len(results))]
        return failures

    def sizes(self):
        return {
            "observations": self.observations,
            "replications_per_call": self.REPLICATIONS,
            "marginals": [name for name, _ in self.marginals],
            "seeds": self.seeds,
        }

    def report(self, items, busy_s):
        return {
            "replications_per_s": (items / self.observations / busy_s, "1/s"),
            "draws_per_s": (items / busy_s, "1/s"),
        }


# ---------------------------------------------------------------------------
# analysis

# Malformed requests: (label, documented exit code). Exit codes: 1 usage,
# 2 parse, 3 numeric/contract.
MALFORMED = (
    ("unknown-command", 1),
    ("missing-flag", 1),
    ("table-and-counts", 1),
    ("bad-format", 1),
    ("bad-int-flag", 1),
    ("bad-header", 2),
    ("non-integer", 2),
    ("column-count", 2),
    ("missing-file", 2),
    ("negative-count", 2),
    ("empty-marginal", 2),
    ("marginal-length", 3),
    ("zero-marginal", 3),
    ("empty-column", 3),
    ("infeasible-ipf", 3),
    ("bad-tol", 3),
)
MALFORMED_SHARE = 0.05
# Malformed requests the code is known to answer in another exit class than
# the documented one. They stay out of the timed mix, whose operations must
# all pass; each run sends them once, checks them like any malformed request
# and reports every mismatch. ``over-int64`` is a documented parse error that
# the code reports as exit 3 (ROADMAP open item 4). Once a defect is fixed,
# its kind moves to MALFORMED.
KNOWN_DEFECTS = (("over-int64", 2),)
# The traffic mix is an assumption, not measured usage: nothing records how
# margfit is used. Where no proportion is given, options are weighted evenly:
# the five request kinds, --counts vs --table, a marginal written as counts vs
# as probabilities, and (for estimate and adjust, the kinds that accept one)
# a table with or without an empty column. Every request uses the CLI's
# default csv output. Table totals are log-uniform over the paper's sample
# sizes, 20 to 10000 (margfit.simulation.DEFAULT_N_GRID).
VALID_KINDS = ("estimate", "adjust", "asymptotics", "ipf", "case-study")
EMPTY_COLUMN_SHARE = 0.5
TOTAL_RANGE = (20, 10000)


@dataclass
class CliOp:
    argv: list[str]
    expected: int
    kind: str
    context: dict = field(default_factory=dict)


def _table_text(cells, fmt=str) -> str:
    rows, cols = cells.shape
    lines = [f"#rows={rows} cols={cols}"] + [",".join(fmt(v) for v in row) for row in cells]
    return "\n".join(lines) + "\n"


class Analysis(Workload):
    """One client sending a seeded closed-loop stream of small CLI requests."""

    name = "analysis"
    probe_kernel = "argparse"  # cli.main's own cost is mostly argparse
    setup_code = (
        "import margfit.cli\n"
        "from margfit.io import load_destatis2014, load_gidas_table3\n"
        "load_gidas_table3()\n"
        "load_destatis2014()\n"
    )

    def prepare(self, seed, scale, workdir):
        from margfit.io import load_gidas_table3

        size = 3000 if scale == "full" else 100
        self.workdir = workdir
        self.gidas = load_gidas_table3().counts
        rng = np.random.default_rng(np.random.SeedSequence(entropy=seed, spawn_key=(3,)))
        n_bad = max(round(MALFORMED_SHARE * size), len(MALFORMED))
        bad_at = {int(i): MALFORMED[k % len(MALFORMED)] for k, i in enumerate(rng.choice(size, n_bad, replace=False))}
        self.cycle = []
        for index in range(size):
            self._index = index
            if index in bad_at:
                label, code = bad_at[index]
                op = self._malformed(rng, label, code)
                self.cycle.append(Request(ops=[op], labels=[f"bad{code}:{label}"], items=1))
            else:
                kind = VALID_KINDS[rng.integers(len(VALID_KINDS))]
                op = getattr(self, "_" + kind.replace("-", "_"))(rng)
                self.cycle.append(Request(ops=[op], labels=[f"ok:{kind}"], items=1))
        self.defect_probes = []
        for k, (label, code) in enumerate(KNOWN_DEFECTS):
            self._index = size + k
            op = self._malformed(rng, label, code)
            self.defect_probes.append(Request(ops=[op], labels=[f"bad{code}:{label}"], items=1))

    # -- input files ------------------------------------------------------

    def _write(self, role: str, text: str) -> str:
        path = os.path.join(self.workdir, f"r{self._index:05d}-{role}.csv")
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
        return path

    @staticmethod
    def _counts(rng, positive=False, empty_cols=0):
        rows, cols = (int(x) for x in rng.integers(2, 9, size=2))
        total = int(math.exp(rng.uniform(*np.log(TOTAL_RANGE))))
        counts = rng.multinomial(total, rng.dirichlet(np.ones(rows * cols))).reshape(rows, cols)
        if positive:
            return counts + 1
        # every row and column observed, then blank the requested columns
        for i in np.flatnonzero(counts.sum(axis=1) == 0):
            counts[i, rng.integers(cols)] += 1
        for j in np.flatnonzero(counts.sum(axis=0) == 0):
            counts[rng.integers(rows), j] += 1
        if empty_cols:
            counts[:, rng.choice(cols, min(empty_cols, cols - 1), replace=False)] = 0
        return counts

    def _marginal(self, rng, length, role, as_counts=None):
        """Write a strictly positive marginal; returns (path, normalized probs)."""
        if as_counts is None:
            as_counts = rng.random() < 0.5
        if as_counts:
            values = rng.integers(1, 1_000_000, size=length)
            probs = values / values.sum()
            text = ",".join(str(int(v)) for v in values)
        else:
            raw = rng.dirichlet(np.full(length, 2.0)) + 0.02
            probs = raw / raw.sum()
            text = ",".join(repr(float(v)) for v in probs)
        return self._write(role, text + "\n"), probs

    def _table_input(self, rng, counts, allow_table=True):
        """(--counts or --table flag, path, probability table)."""
        joint = counts / counts.sum()
        if allow_table and rng.random() < 0.5:
            return "--table", self._write("table", _table_text(joint, lambda v: repr(float(v)))), joint
        return "--counts", self._write("counts", _table_text(counts)), joint

    # -- valid requests ---------------------------------------------------

    def _estimate(self, rng):
        counts = self._counts(rng, empty_cols=int(rng.random() < EMPTY_COLUMN_SHARE))
        path = self._write("counts", _table_text(counts))
        return CliOp(["estimate", "--counts", path], 0, "estimate", {"counts": counts})

    def _adjust(self, rng):
        counts = self._counts(rng, empty_cols=int(rng.random() < EMPTY_COLUMN_SHARE))
        flag, path, joint = self._table_input(rng, counts)
        mpath, probs = self._marginal(rng, counts.shape[1], "marginal")
        ctx = {"joint": joint, "marginal": probs}
        return CliOp(["adjust", flag, path, "--marginal", mpath], 0, "adjust", ctx)

    def _asymptotics(self, rng):
        counts = self._counts(rng)
        flag, path, joint = self._table_input(rng, counts)
        return CliOp(["asymptotics", flag, path], 0, "asymptotics", {"joint": joint})

    def _ipf(self, rng):
        counts = self._counts(rng, positive=True)
        flag, path, _ = self._table_input(rng, counts)
        rpath, rows = self._marginal(rng, counts.shape[0], "rows", as_counts=False)
        cpath, cols = self._marginal(rng, counts.shape[1], "cols", as_counts=False)
        argv = ["ipf", flag, path, "--row-marginal", rpath, "--col-marginal", cpath]
        return CliOp(argv, 0, "ipf", {"rows": rows, "cols": cols})

    def _case_study(self, rng):
        return CliOp(["case-study"], 0, "case-study")

    # -- malformed requests -----------------------------------------------

    def _malformed(self, rng, label, code):
        counts = self._counts(rng)
        rows, cols = counts.shape
        lines = _table_text(counts).splitlines()
        r = 1 + int(rng.integers(rows))  # the data line to corrupt

        def counts_file(text=None):
            return self._write("counts", text if text is not None else "\n".join(lines) + "\n")

        def bad_line(token):  # the first cell of line r replaced by ``token``
            tokens = lines[r].split(",")
            return counts_file("\n".join(lines[:r] + [",".join([token] + tokens[1:])] + lines[r + 1 :]) + "\n")

        def marginal(length, role="marginal"):
            return self._marginal(rng, length, role)[0]

        def ipf(table, *extra):
            return ["ipf", "--counts", table, "--row-marginal", marginal(rows, "rows"), "--col-marginal", marginal(cols, "cols"), *extra]

        empty_column, empty_row = counts.copy(), counts + 1
        empty_column[:, rng.integers(cols)] = 0
        empty_row[rng.integers(rows), :] = 0
        build = {
            "unknown-command": lambda: ["tabulate", "--counts", counts_file()],
            "missing-flag": lambda: ["adjust", "--counts", counts_file()],
            "table-and-counts": lambda: ["asymptotics", "--table", counts_file(), "--counts", counts_file()],
            "bad-format": lambda: ["estimate", "--counts", counts_file(), "--format", "xml"],
            "bad-int-flag": lambda: ipf(counts_file(), "--max-iter", "many"),
            "bad-header": lambda: ["estimate", "--counts", counts_file("\n".join(lines[1:]) + "\n")],
            "non-integer": lambda: ["estimate", "--counts", bad_line("1.5")],
            "column-count": lambda: ["estimate", "--counts", bad_line("1," + lines[r].split(",")[0])],
            "missing-file": lambda: ["estimate", "--counts", os.path.join(self.workdir, f"r{self._index:05d}-absent.csv")],
            "negative-count": lambda: ["estimate", "--counts", bad_line("-3")],
            "empty-marginal": lambda: ["adjust", "--counts", counts_file(), "--marginal", self._write("marginal", "# no data\n")],
            "over-int64": lambda: ["estimate", "--counts", bad_line(str(2**63 + int(rng.integers(1, 10**6))))],
            "marginal-length": lambda: ["adjust", "--counts", counts_file(), "--marginal", marginal(cols + 1)],
            "zero-marginal": lambda: ["adjust", "--counts", counts_file(), "--marginal", self._write("marginal", ",".join(["0"] + ["1"] * (cols - 1)) + "\n")],
            "empty-column": lambda: ["asymptotics", "--counts", counts_file(_table_text(empty_column))],
            "infeasible-ipf": lambda: ipf(counts_file(_table_text(empty_row))),
            "bad-tol": lambda: ipf(counts_file(), "--tol=-1e-10"),
        }
        return CliOp(build[label](), code, label)

    # -- running and checking ---------------------------------------------

    def warmup(self):
        for request in self.cycle[:50]:
            self.run_request(request)

    def run_request(self, request):
        return [call_cli(op.argv) for op in request.ops]

    def known_defects(self):
        messages = []
        for request in self.defect_probes:
            messages += [message for _, _, message in self.check(request, self.run_request(request))]
        return messages

    def digest(self, outcome):
        return outcome.digest_bytes()

    def check(self, request, outcomes):
        op, outcome = request.ops[0], outcomes[0]
        if op.expected != 0:
            if outcome.code == op.expected and _one_line_rejection(outcome):
                return []
            category = "exit_class" if _one_line_rejection(outcome) else "incorrect"
            return [(0, category, f"{op.kind}: exit {outcome.code}, expected {op.expected}: {outcome.stderr[:200]!r}")]
        if outcome.code != 0 or outcome.stderr:
            return [(0, "incorrect", f"{op.kind}: exit {outcome.code}: {outcome.stderr[:200]!r}")]
        try:
            problem = getattr(self, "_check_" + op.kind.replace("-", "_"))(op, outcome.stdout)
        except (ValueError, KeyError, TypeError, IndexError) as exc:
            problem = f"output does not re-parse: {type(exc).__name__}: {exc}"
        return [(0, "incorrect", f"{op.kind}: {problem}")] if problem else []

    @staticmethod
    def _sections(text) -> dict:
        from margfit.io import parse_sections_text

        return parse_sections_text(text)

    def _check_estimate(self, op, text):
        s = self._sections(text)
        counts = op.context["counts"]
        joint = np.asarray(s["joint"], dtype=np.float64).reshape(counts.shape)
        if np.abs(joint - counts / counts.sum()).max() > 1e-14:
            return "joint table differs from counts/total"
        rows = np.ravel(s["row_marginal"])
        cols = np.ravel(s["column_marginal"])
        if np.abs(rows - joint.sum(axis=1)).max() > PROB_TOL or np.abs(cols - joint.sum(axis=0)).max() > PROB_TOL:
            return "marginals differ from the joint table's sums"
        return None

    def _check_adjust(self, op, text):
        s = self._sections(text)
        joint, target = op.context["joint"], op.context["marginal"]
        cells = np.asarray(s["adjusted_cells"], dtype=np.float64).reshape(joint.shape)
        col_mass = joint.sum(axis=0)
        empty = col_mass == 0.0
        zero_columns = sorted(int(j) for j in np.ravel(s["zero_columns"]))
        if zero_columns != [int(j) for j in np.flatnonzero(empty)]:
            return f"zero_columns {zero_columns}, expected {np.flatnonzero(empty).tolist()}"
        sums = cells.sum(axis=0)
        if np.abs(sums[~empty] - target[~empty]).max() > PROB_TOL or (cells[:, empty] != 0.0).any():
            return "adjusted column sums miss the known marginal"
        expected = np.where(empty, 0.0, joint * target / np.where(empty, 1.0, col_mass))
        if np.abs(cells - expected).max() > PROB_TOL:
            return "adjusted cells differ from p_ij * m_j / p_+j"
        if np.abs(np.ravel(s["adjusted_row_marginal"]) - cells.sum(axis=1)).max() > PROB_TOL:
            return "adjusted row marginal differs from the adjusted row sums"
        return None

    def _check_asymptotics(self, op, text):
        s = self._sections(text)
        p = op.context["joint"]
        rows, cols = p.sum(axis=1), p.sum(axis=0)
        plain = np.diag(rows) - np.outer(rows, rows)
        adjusted = np.diag(rows) - (p / cols) @ p.T
        dim = rows.size
        got_plain = np.asarray(s["plain_covariance"], dtype=np.float64).reshape(dim, dim)
        got_adj = np.asarray(s["adjusted_covariance"], dtype=np.float64).reshape(dim, dim)
        got_gap = np.asarray(s["variance_gap"], dtype=np.float64).reshape(dim, dim)
        if np.abs(got_plain - plain).max() > 1e-12 or np.abs(got_adj - adjusted).max() > 1e-12:
            return "covariances differ from the closed forms"
        if np.abs(got_gap - (got_plain - got_adj)).max() > 1e-12:
            return "variance gap is not plain minus adjusted"
        expected = np.outer(rows, cols)
        chi2 = float(((p - expected) ** 2 / expected).sum())
        if abs(float(np.ravel(s["chi2_bound"])[0]) - chi2) > 1e-9 * max(1.0, chi2):
            return "chi-square bound differs"
        reduction = 100.0 * (np.diag(plain) - np.diag(adjusted)) / np.diag(plain)
        if np.abs(np.ravel(s["asymptotic_reduction_pct"]) - reduction).max() > 1e-8:
            return "asymptotic reductions differ"
        return None

    def _check_ipf(self, op, text):
        s = self._sections(text)
        rows, cols = op.context["rows"], op.context["cols"]
        fitted = np.asarray(s["fitted"], dtype=np.float64).reshape(rows.size, cols.size)
        if int(np.ravel(s["converged"])[0]) != 1:
            return f"IPF did not converge in {int(np.ravel(s['iterations'])[0])} iterations"
        if np.abs(fitted.sum(axis=1) - rows).max() > 1e-9 or np.abs(fitted.sum(axis=0) - cols).max() > 1e-9:
            return "fitted marginals miss the targets"
        return None

    def _check_case_study(self, op, text):
        from margfit.io import parse_case_study_csv_text

        result = parse_case_study_csv_text(text)
        zero = sorted(result.zero_column_mask)
        phat, ptilde = result.phat_vector, result.ptilde_vector
        expected = self.gidas.sum(axis=1) / self.gidas.sum()
        if phat.shape != expected.shape or np.abs(phat - expected).max() > 1e-14:
            return "unadjusted row estimates differ from the bundled counts"
        if zero or abs(float(ptilde.sum()) - 1.0) > PROB_TOL:
            return "adjusted row estimates do not sum to 1"
        return None

    def sizes(self):
        labels = [r.labels[0] for r in self.cycle]
        return {
            "requests_per_cycle": len(self.cycle),
            "malformed_per_cycle": sum(label.startswith("bad") for label in labels),
            "malformed_kinds": len(MALFORMED),
            "known_defect_probes": [r.labels[0] for r in self.defect_probes],
        }

    def report(self, items, busy_s):
        return {"requests_per_s": (items / busy_s, "1/s")}


WORKLOADS = {w.name: w for w in (GridStudy, WeightedPenalty, Analysis)}
