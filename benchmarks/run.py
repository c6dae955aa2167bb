"""Benchmark of the specverify lab: one workload per run, results checked.

Usage, from the root of a checkout:

    python3 benchmarks/run.py --workload exact-oracle --seed 1 --seconds 40 --trace 0

The program is imported from ``src/`` of the same checkout.  With ``--trace 0``
the run times ops untraced and reports the end-to-end metrics; with
``--trace 1`` it wraps the library's public functions and reports per-layer
counts and self times instead.  Every op's output is checked either way.  The
last line of standard output is one JSON object:
``{"correct", "attempted", "failed", "metrics"}``.  See NOTES.md.
"""

import time

_STARTED = time.perf_counter()  # before any import the run pays for

import argparse
import hashlib
import importlib
import json
import math
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

from calibration import NOMINAL_NS, calibration_ns
from tracer import Tracer, TraceError

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
PACKAGE_DIR = SRC / "specverify"
GOLDEN = HERE / "golden.json"
DEFAULT_SEED = 0  # the seed the golden records were taken on
SETUP_REPEATS = 5
SLICE_NS = 250_000_000  # ops timed between two calibrations
# A slice is rescaled by the median of the calibrations nearest it, this many
# on either side: one 7 ms calibration reads the host's speed of that moment,
# which flickers faster than an op runs.
NEAREST = 5
SRC_MODULES = ("__init__", "cli", "divergence", "metrics", "models", "oracle", "verify", "worked_example")
# work unit -> name of its rate in the report lines
RATE_NAMES = {"cert": "certs_per_s", "trial": "trials_per_s", "trace": "traces_per_s"}


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--record-golden",
        action="store_true",
        help=f"write this workload's golden record (seed {DEFAULT_SEED} only) instead of checking it",
    )
    return parser.parse_args(argv)


def import_afresh(name: str) -> None:
    """Import package ``name`` again from its files, then put the loaded one back."""
    def own(module_name):
        return module_name == name or module_name.startswith(name + ".")

    loaded = {module_name: module for module_name, module in sys.modules.items() if own(module_name)}
    for module_name in loaded:
        del sys.modules[module_name]
    try:
        importlib.import_module(name)
    finally:
        for module_name in [module_name for module_name in sys.modules if own(module_name)]:
            del sys.modules[module_name]
        sys.modules.update(loaded)


def import_program():
    """Import specverify from this checkout's src/, and from nowhere else."""
    if not (PACKAGE_DIR / "__init__.py").is_file():
        sys.exit(f"run.py: no specverify package under {SRC}; run from the root of a full checkout")
    sys.path.insert(0, str(SRC))
    import specverify

    if Path(specverify.__file__).resolve().parent != PACKAGE_DIR:
        sys.exit(f"run.py: imported specverify from {specverify.__file__}, not from {PACKAGE_DIR}")
    return specverify


class Pass:
    """Ops run in one pass: (index, duration in ns, work units, slice) of those that succeeded.

    In a calibrated pass, slice ``i`` is timed between calibrations
    ``refs[i]`` and ``refs[i + 1]``; otherwise the slice is 0 and ``refs`` empty.
    """

    def __init__(self) -> None:
        self.ops: list[tuple[int, int, int, int]] = []
        self.refs: list[int] = []
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.window_ns = 0
        self.counts: dict | None = None

    def durations_ns(self) -> list[int]:
        return sorted(duration for _, duration, _, _ in self.ops)

    def at_nominal_speed(self) -> list[tuple[int, float, int]]:
        """(index, duration in ns rescaled to a core at nominal speed, work units) per op."""
        scale = [
            NOMINAL_NS / statistics.median(self.refs[max(0, s + 1 - NEAREST) : s + 1 + NEAREST])
            for s in range(len(self.refs) - 1)
        ]
        return [(k, duration * scale[s], units) for k, duration, units, s in self.ops]


def run_pass(workload, deadline, tracer=None) -> Pass:
    """Run ops 0, 1, ... until the window is done and ``deadline`` has passed.

    ``deadline=None`` runs the window only.  With a tracer, the counts are
    taken when the window completes, so they cover the same ops every run.
    An untraced pass with a deadline is calibrated: it times the calibration
    block before the first op and after every slice of ops.
    """
    done = Pass()
    clock = time.perf_counter_ns
    calibrated = tracer is None and deadline is not None
    if calibrated:
        done.refs.append(calibration_ns())
    slice_start, slice_open = clock(), False
    k = 0
    while k < workload.window or (deadline is not None and time.perf_counter() < deadline):
        done.attempted += 1
        try:
            if tracer is None:
                start = clock()
                result = workload.run(k)
                duration = clock() - start
            else:
                result, duration = tracer.run_op(workload.run, k)
            problems = workload.check(k, result)
        except TraceError:
            raise
        except Exception as exc:  # an op that raises is a failed op; the run goes on
            traceback.print_exc()
            problems = [f"op {k}: {type(exc).__name__}: {exc}"]
        if problems:
            done.failed += 1
            done.problems.extend(problems)
        else:
            done.ops.append((k, duration, workload.units(k), max(len(done.refs) - 1, 0)))
            slice_open = True
        k += 1
        if k == workload.window:
            done.window_ns = sum(duration for _, duration, _, _ in done.ops)
            if tracer is not None:
                done.counts = tracer.counts()
        if calibrated and clock() - slice_start >= SLICE_NS:
            done.refs.append(calibration_ns())
            slice_start, slice_open = clock(), False
    if calibrated and slice_open:
        done.refs.append(calibration_ns())
    return done


def nearest_rank(sorted_values: list, pct: float):
    """Value at percentile ``pct`` by nearest rank, and how many values lie beyond it."""
    rank = max(1, math.ceil(len(sorted_values) * pct / 100))
    return sorted_values[rank - 1], len(sorted_values) - rank


def chunk_rates(ops: list, size: int) -> list[float]:
    """Sorted work rates of the complete chunks of ``size`` consecutive ops, from (index, ns, units)."""
    chunks: dict[int, list] = {}
    for k, duration, units in ops:
        chunks.setdefault(k // size, []).append((duration, units))
    return sorted(
        sum(units for _, units in chunk) / (sum(duration for duration, _ in chunk) / 1e9)
        for chunk in chunks.values()
        if len(chunk) == size
    )


def end_to_end(workload, done: Pass, setup_s: float) -> tuple[dict, list[str]]:
    """The bounded metrics, and report lines for the rest."""
    durations = done.durations_ns()
    rates = chunk_rates(done.at_nominal_speed(), workload.chunk)
    if not rates:
        return {}, ["no complete chunk of ops succeeded"]
    # Each op's time is rescaled by the calibrations around it to a core at
    # nominal speed, which takes the host's slow stretches out; the median
    # chunk keeps a long GC pause or a badly tracked slice from moving it.
    work_per_ref_s = statistics.median(rates)
    mean_rate = sum(units for _, _, units, _ in done.ops) / (sum(durations) / 1e9)
    host_speed = NOMINAL_NS / statistics.median(done.refs)
    tail, beyond = nearest_rank(durations, workload.tail_pct)
    metrics = {
        "work_per_ref_s": (work_per_ref_s, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
        "setup_s": (setup_s, "s"),
    }
    rate_name = RATE_NAMES[workload.unit]
    notes = [
        f"work_per_ref_s is {rate_name} at nominal core speed, the median over {len(rates)} chunks of {workload.chunk} ops",
        f"{rate_name} over all ops, wall clock: {mean_rate:.6g} 1/s",
        f"host speed: the median of {len(done.refs)} calibrations ran at {host_speed:.4g} of nominal",
        f"op_p50_ms: {statistics.median(durations) / 1e6:.6g} ms",
        f"op_tail_ms: {tail / 1e6:.6g} ms at p{workload.tail_pct}, {beyond} of {len(durations)} ops beyond it"
        + ("" if beyond >= 10 else " (fewer than 10: a rough tail)"),
    ]
    return metrics, notes


def per_layer(tracer, workload, done: Pass, untraced: Pass) -> dict:
    metrics = dict(done.counts)
    for name, value in tracer.self_seconds_per_op().items():
        metrics[name] = (value, "s/op")
    overhead = done.window_ns / untraced.window_ns if untraced.window_ns else 0.0
    metrics["tracing.overhead"] = (overhead, "ratio")
    metrics["tracing.window_ops"] = (workload.window, "count")
    metrics["tracing.traced_ops"] = (tracer.ops, "count")
    metrics.update(src_lines())
    return metrics


def src_lines() -> dict:
    """Static rows: lines of each module of the package (0 once a module is gone)."""
    rows = {}
    total = 0
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        total += len(path.read_bytes().splitlines())
    for module in SRC_MODULES:
        path = PACKAGE_DIR / f"{module}.py"
        lines = len(path.read_bytes().splitlines()) if path.is_file() else 0
        rows[f"{module.strip('_') or module}.src_lines"] = (lines, "count")
    rows["total.src_lines"] = (total, "count")
    return rows


def provenance(args, workload_seed: int, workload) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        try:
            out = subprocess.run(
                ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, timeout=30
            )
            commit = out.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            commit = None
    digest = hashlib.sha256()
    for path in sorted(PACKAGE_DIR.glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    import numpy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "workload_seed": workload_seed,
        "config": workload.config(),
        "seconds": args.seconds,
        "trace": args.trace,
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
    }


def check_golden(args, workload) -> list[str]:
    from workloads import golden_mismatches

    if args.seed != DEFAULT_SEED:
        return []
    doc = json.loads(GOLDEN.read_text()) if GOLDEN.is_file() else {}
    got = workload.golden()
    if args.record_golden:
        doc[args.workload] = got
        GOLDEN.write_text(json.dumps(doc, indent=1, sort_keys=True) + "\n")
        print(f"recorded golden record for {args.workload} in {GOLDEN.name}")
        return []
    if args.workload not in doc:
        return [f"no golden record for {args.workload} in {GOLDEN.name}"]
    return golden_mismatches(args.workload, got, doc[args.workload])


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.seconds <= 0:
        sys.exit("run.py: --seconds must be positive")
    if args.record_golden and args.seed != DEFAULT_SEED:
        sys.exit(f"run.py: golden records are taken on seed {DEFAULT_SEED}")
    package = import_program()
    from workloads import WORKLOADS, derive

    if args.workload not in WORKLOADS:
        sys.exit(f"run.py: unknown workload {args.workload!r}; expected one of {sorted(WORKLOADS)}")
    cls = WORKLOADS[args.workload]
    workload_seed = derive(args.workload, args.seed)
    imports_s = time.perf_counter() - _STARTED
    calibration_ns()  # warm the calibration block; it is not set-up the program needs

    # Set-up is importing specverify and building the workload.  It is
    # repeated between calibrations, and its median is rescaled to a core at
    # nominal speed by theirs.  The interpreter's and numpy's imports are paid
    # once per process, so they are reported only.
    walls, refs = [], [calibration_ns()]
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter_ns()
        import_afresh(package.__name__)
        workload = cls(workload_seed)
        walls.append(time.perf_counter_ns() - start)
        refs.append(calibration_ns())
    setup_s = statistics.median(walls) * NOMINAL_NS / statistics.median(refs) / 1e9
    setup_notes = [
        f"set-up by the wall clock: imports {imports_s:.4g} s once, "
        f"then a median {statistics.median(walls) / 1e9:.4g} s over {SETUP_REPEATS} set-ups"
    ]

    deadline = time.perf_counter() + args.seconds
    if args.trace:
        untraced = run_pass(cls(workload_seed), None)
        tracer = Tracer()
        try:
            tracer.install(package)
            workload = cls(workload_seed)
            done = run_pass(workload, deadline, tracer)
        finally:
            tracer.uninstall()
        silent = tracer.silent(cls.expected_spans)
        if silent:
            raise TraceError(f"{args.workload}: spans that should fire never did: {', '.join(silent)}")
        metrics = per_layer(tracer, workload, done, untraced)
        notes = [f"counts cover the first {workload.window} ops; self_s is mean self time per op over {tracer.ops} ops"]
        attempted, failed = done.attempted + untraced.attempted, done.failed + untraced.failed
        problems = untraced.problems + done.problems
    else:
        done = run_pass(workload, deadline)
        metrics, notes = end_to_end(workload, done, setup_s)
        attempted, failed, problems = done.attempted, done.failed, done.problems
    golden_problems = check_golden(args, workload)

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  ops {attempted}  ops_failed {failed}")
    for name, (value, unit) in metrics.items():
        print(f"  {name:56s} {value:>16.6g} {unit}")
    for line in setup_notes + notes + workload.report():
        print(f"  note: {line}")
    for line in (problems + golden_problems)[:20]:
        print(f"  problem: {line}")
    print("provenance " + json.dumps(provenance(args, workload_seed, workload), sort_keys=True))
    result = {
        "correct": failed == 0 and not golden_problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
