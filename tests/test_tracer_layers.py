"""The benchmark tracer's layer list names functions that exist.

A traced benchmark run fails when a function it lists is missing, so a
rename in ``src/`` that the list does not follow shows up here first.  Only
the list is read; the tracer itself is not run.
"""

import importlib
import importlib.util
from pathlib import Path

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_every_traced_layer_exists():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
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
