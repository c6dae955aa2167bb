"""The benchmark tracer's layers exist and every workload's expected spans fire.

A traced benchmark run fails when a function it lists is missing, or when a
span a workload expects never fires (say, because a caller stopped going
through the module-level name the tracer wraps).  Both show up here first:
the layer list is checked by name, and each workload's verifiers are driven
at toy size under the tracer without running the benchmark harness.
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


def drive_exact_oracle(workload):
    p, q = sv.generate_model_pair(sv.ModelPairSpec(2, 2, 3, workload.EPS))
    target = sv.target_joint_distribution(p, 2)
    for verifier in sv.oracle.SINGLE_DRAFT_VERIFIERS:
        sv.total_variation(sv.enumerate_yield(verifier, p, q, 2, 2), target)


def drive_mc_fit(workload):
    # every fit whole, at the 10^4-trial minimum: inside a fit the verifiers
    # read the run's plan table, so each span has to fire on a table miss
    p, q = sv.generate_model_pair(sv.ModelPairSpec(2, 3, 3, workload.EPS))
    for verifier, drafts, mutate in workload.FITS:
        sv.monte_carlo_fit(verifier, p, q, 2, 2, 10_000, 5, k_drafts=drafts, mutate=mutate)


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
        workloads.ExactOracle: drive_exact_oracle,
        workloads.McFit: drive_mc_fit,
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
