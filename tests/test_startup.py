"""What importing margfit loads beyond numpy. The standard-library modules
that only one code path uses (a thread pool, a grid's decimal cpr, a CSV
record, a JSON document) load on that path's first use, so a one-shot command
that takes none of those paths does not pay for their import."""

import os
import subprocess
import sys

import pytest

import margfit

# Each loads only with the code path that uses it.
DEFERRED = ("concurrent.futures", "logging", "decimal", "csv", "json")

SCRIPT = """\
import sys
import numpy
baseline = set(sys.modules)
{code}
print("\\n".join(sorted(set(sys.modules) - baseline)))
"""


def added_modules(code: str) -> set[str]:
    """The modules that a fresh interpreter loads running ``code`` after
    ``import numpy``, with this process's margfit first on its path."""
    package_root = os.path.dirname(os.path.dirname(margfit.__file__))
    env = dict(os.environ, PYTHONPATH=package_root)
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT.format(code=code)],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return set(proc.stdout.split())


@pytest.mark.parametrize(
    "code",
    [
        "import margfit",
        # The CLI's start-up with the bundled loaders imported; the two that
        # read table files are called, load_study_config reads JSON.
        "import margfit.cli\n"
        "from margfit.io import load_destatis2014, load_gidas_table3, load_study_config\n"
        "load_gidas_table3()\n"
        "load_destatis2014()\n",
    ],
    ids=["package", "cli"],
)
def test_import_loads_no_deferred_module(code):
    added = added_modules(code)
    assert "margfit" in added
    assert not added & set(DEFERRED), sorted(m for m in added if not m.startswith("margfit"))


def test_one_worker_grid_loads_decimal_but_no_pool():
    added = added_modules(
        "from margfit import ExperimentConfig, run_experiment\n"
        "cfg = ExperimentConfig((0.5, 0.5), (0.5, 0.5), (0.0,), (20,), 2)\n"
        "run_experiment(cfg, workers=1)\n"
    )
    assert "decimal" in added
    assert not added & {"concurrent.futures", "logging"}


def test_thread_pool_class_is_a_cached_module_attribute():
    from concurrent.futures import ThreadPoolExecutor

    import margfit.simulation as simulation

    assert simulation.ThreadPoolExecutor is ThreadPoolExecutor
    assert vars(simulation)["ThreadPoolExecutor"] is ThreadPoolExecutor
    with pytest.raises(AttributeError, match="has no attribute 'ProcessPoolExecutor'"):
        simulation.ProcessPoolExecutor
