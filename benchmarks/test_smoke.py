"""Smoke check of the benchmark itself, at tiny sizes.

Every metric that BENCHMARK.json names is emitted, with its unit, by the
untraced and the traced run of every workload with no failed operation,
malformed requests are attempted and counted, and known defects are probed
outside the counted mix. Run from the repository root::

    python3 -m pytest benchmarks/test_smoke.py
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
SEED = 3


def run_benchmark(workload: str, trace: int) -> dict:
    command = [sys.executable, *SPEC["command"][1:]]
    args = ["--workload", workload, "--seed", str(SEED), "--seconds", "1", "--trace", str(trace)]
    proc = subprocess.run(
        command + args + ["--scale", "tiny"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.splitlines()[-1])


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", WORKLOADS)
def test_every_metric_is_emitted_with_its_unit(workload, trace):
    result = run_benchmark(workload, trace)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    spec = SPEC["end_to_end" if trace == 0 else "per_layer"]
    emitted = {name: metric["unit"] for name, metric in result["metrics"].items()}
    assert emitted == {m["name"]: m["unit"] for m in spec}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    assert result["failed"] == 0
    if trace == 0:
        assert all(metric["value"] > 0 for metric in result["metrics"].values())


def test_malformed_requests_are_attempted_and_counted():
    result = run_benchmark("analysis", 0)
    record = json.loads((ROOT / ".bench_out" / f"analysis-s{SEED}-trace0.json").read_text())
    by_label = record["operations_by_label"]
    for code in (1, 2, 3):
        assert any(k.startswith(f"bad{code}:") and v["attempted"] for k, v in by_label.items())
    assert result["attempted"] == sum(v["attempted"] for v in by_label.values())
    assert result["failed"] == sum(v["failed"] for v in by_label.values())


def test_known_defects_are_probed_outside_the_counted_mix():
    run_benchmark("analysis", 0)
    record = json.loads((ROOT / ".bench_out" / f"analysis-s{SEED}-trace0.json").read_text())
    probes = record["manifest"]["sizes"]["known_defect_probes"]
    assert probes and not set(probes) & set(record["operations_by_label"])
    assert all(isinstance(message, str) for message in record["known_defects"])


def test_misclassified_rejection_counts_as_failed_but_not_incorrect():
    sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "src")]
    from run import Runner
    from workloads import Analysis, CliOp, CliOutcome, Request

    class Misclassifying(Analysis):
        def warmup(self):
            pass

        def run_request(self, request):
            return [CliOutcome(3, "", "error: too large\n")]

    workload = Misclassifying()
    workload.cycle = [Request(ops=[CliOp(["estimate"], 2, "over-int64")], labels=["bad2:x"], items=1)]
    stats = Runner(workload).loop(0.0)
    assert (stats.attempted, len(stats.failed_ops), len(stats.incorrect_ops)) == (1, 1, 0)


def test_traced_run_refuses_a_missing_layer(monkeypatch):
    sys.path[:0] = [str(ROOT / "benchmarks"), str(ROOT / "src")]
    import margfit.cli as cli
    import margfit.simulation as simulation
    from tracing import MissingLayer, Tracer, instrument

    main = cli.main
    monkeypatch.delattr(simulation, "_aggregate_cell")
    with pytest.raises(MissingLayer) as excinfo:
        with instrument(Tracer()):
            pass
    assert excinfo.value.missing == ["margfit.simulation._aggregate_cell"]
    assert cli.main is main
