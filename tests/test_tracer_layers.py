"""The benchmark tracer's layers exist and every workload's expected spans fire.

A traced benchmark run fails when a function it lists is missing, or when a
span a workload expects never fires (say, because a caller stopped going
through the module-level name the tracer wraps).  Both show up here first:
the layer list is checked by name, and each workload's verifiers are driven
under the tracer without running the benchmark harness: the exact oracle
and mc-fit by the workload's own ops, expected-length at toy size.
"""

import importlib
import importlib.util
from pathlib import Path

import specverify as sv

BENCHMARKS = Path(__file__).resolve().parents[1] / "benchmarks"


def load(name):
    spec = importlib.util.spec_from_file_location(f"benchmark_{name}", BENCHMARKS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_traced_layer_exists():
    tracer = load("tracer")
    missing = []
    for module_name, funcs in tracer.LAYERS.items():
        module = importlib.import_module(f"specverify.{module_name}")
        for qual in funcs:
            owner, _, attr = qual.rpartition(".")
            # a method must be defined on its class itself, where the tracer patches it
            names = vars(getattr(module, owner, object)) if owner else vars(module)
            if not callable(names.get(attr)):
                missing.append(f"{module_name}.{qual}")
    assert not missing, f"benchmarks/tracer.py LAYERS names functions that do not exist: {missing}"


def drive_workload(workload):
    # the workload's own first chunk: for the exact oracle, one pair's three
    # certificates and its h-double refutation at its gamma of 5; for mc-fit,
    # its seven fits.  Inside either, the branch chains (and a fit's
    # verifiers) read the run memo, so each span has to fire on a memo miss
    ops = workload(0)
    for k in range(workload.chunk):
        ops.run(k)


def drive_expected_length(workload):
    p, q = sv.generate_model_pair(sv.ModelPairSpec(2, 2, 3, 1.0, 1.0))
    for i in range(20):
        trace = sv.sample_draft(q, p, (), 2, sv.substream(7, i))
        for method in workload.METHODS:
            sv.method_expected_tau(method, trace)
        sv.whole_draft_acceptance(trace)


def test_every_workload_fires_its_expected_spans():
    tracer_module, workloads = load("tracer"), load("workloads")
    drives = {
        workloads.ExactOracle: drive_workload,
        workloads.McFit: drive_workload,
        workloads.ExpectedLength: drive_expected_length,
    }
    assert set(drives) == set(workloads.WORKLOADS.values())
    silent = {}
    for workload, drive in drives.items():
        tracer = tracer_module.Tracer()
        tracer.install(sv)
        try:
            tracer.run_op(drive, workload)
        finally:
            tracer.uninstall()
        silent[workload.name] = tracer.silent(workload.expected_spans)
    assert silent == {name: [] for name in workloads.WORKLOADS}, "spans a benchmark workload expects never fired"
