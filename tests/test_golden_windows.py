"""Each benchmark workload's golden window, at the seed its record was taken on.

The benchmark checks the first ``window`` ops of every workload against
``benchmarks/golden.json`` when it runs at seed 0, so a change that moves a
seeded output bit shows up there.  This runs the same ops and comparison
without the timing harness: the workload's ``run`` and ``check`` over its
window, then ``golden()`` against the record through ``golden_mismatches``.
The benchmark files are read, never written.
"""

import importlib.util
import json
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"
GOLDEN_SEED = 0  # the seed benchmarks/run.py takes its golden records on


def load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = load("workloads")
GOLDEN = json.loads((BENCHMARKS / "golden.json").read_text())


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_the_golden_window_matches_the_record(name):
    workload = workloads.WORKLOADS[name](workloads.derive(name, GOLDEN_SEED))
    problems = []
    for k in range(workload.window):
        problems += workload.check(k, workload.run(k))
    assert problems == []
    assert workloads.golden_mismatches(name, workload.golden(), GOLDEN[name]) == []
