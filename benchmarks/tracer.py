"""Per-layer tracer that wraps specverify's public functions from outside.

Every listed function is replaced, wherever a specverify module holds a
reference to it, by a wrapper that times the call.  Spans are aggregated per
function (calls, self time, errors) instead of being stored one by one,
because ``TableArModel.conditional`` alone runs millions of times per run.
Self time is a span's duration minus the durations of the spans it called.

Each op the benchmark times is a root span.  Its duration must equal its own
self time plus the self times of every span below it; ``run_op`` checks that
identity in integer nanoseconds.
"""

from __future__ import annotations

import sys
import time
import weakref

# module -> functions traced in it.  "Class.method" names a method.
LAYERS = {
    "models": ("substream", "TableArModel.conditional", "sample_draft", "trace_for", "generate_model_pair"),
    "divergence": ("ratio_chain", "joint_products", "capped_branch_masses"),
    "verify": (
        "tokenwise_chain",
        "naive_hsd_chain",
        "capped_hsd_chain",
        "blockwise_acceptance_chain",
        "tokenwise_residual",
        "naive_branch_residual",
        "capped_branch_residual",
        "forward_scan",
        "backward_scan",
        "tokenwise_verify",
        "naive_hsd_verify",
        "capped_hsd_verify",
        "multidraft_hsd_verify",
        "multidraft_tokenwise_verify",
        "expected_accept_length",
    ),
    "oracle": ("enumerate_yield", "target_joint_distribution", "total_variation", "monte_carlo_fit"),
    "metrics": ("method_expected_tau", "whole_draft_acceptance"),
}
# method_expected_tau is reported once per method it is asked for.
TAU_METHODS = ("tokenwise", "blockwise", "hsd")
RESIDUALS = ("verify.tokenwise_residual", "verify.naive_branch_residual", "verify.capped_branch_residual")


class TraceError(RuntimeError):
    """The tracer cannot measure what it was asked to measure."""


def span_names() -> list[str]:
    names = []
    for module, funcs in LAYERS.items():
        for qual in funcs:
            name = f"{module}.{qual.rsplit('.', 1)[-1]}"
            if qual == "method_expected_tau":
                names.extend(f"{name}.{method}" for method in TAU_METHODS)
            else:
                names.append(name)
    return names


class Stat:
    __slots__ = ("calls", "self_ns", "errors")

    def __init__(self) -> None:
        self.calls = 0
        self.self_ns = 0
        self.errors = 0


class Tracer:
    """Aggregated spans plus the counters the per-layer ratios need."""

    def __init__(self) -> None:
        self.stats = {name: Stat() for name in span_names()}
        self.first_seen = 0  # distinct (model, prefix) pairs asked of conditional
        self.conditional_in_enum = 0  # conditional calls made inside enumerate_yield
        self.leaves = 0  # output sequences in the yields enumerate_yield returned
        self.ops = 0
        self.root_self_ns = 0
        self._seen: weakref.WeakKeyDictionary = weakref.WeakKeyDictionary()
        self._enum_depth = 0
        self._stack: list[list[int]] = []  # one [child_ns] cell per open span
        self._below_root = [0]  # self time of every span under the current root
        self._restore: list[tuple] = []

    # -- patching -------------------------------------------------------------

    def install(self, package) -> None:
        """Wrap every listed function; raise TraceError if one is missing."""
        prefix = package.__name__ + "."
        modules = [m for name, m in sorted(sys.modules.items()) if name == package.__name__ or name.startswith(prefix)]
        for module_name, funcs in LAYERS.items():
            home = sys.modules.get(f"{package.__name__}.{module_name}")
            if home is None:
                raise TraceError(f"module {package.__name__}.{module_name} is not loaded")
            for qual in funcs:
                self._install_one(home, module_name, qual, modules)

    def _install_one(self, home, module_name: str, qual: str, modules: list) -> None:
        name = f"{module_name}.{qual.rsplit('.', 1)[-1]}"
        if "." in qual:
            cls_name, attr = qual.split(".")
            owner = getattr(home, cls_name, None)
            original = None if owner is None else owner.__dict__.get(attr)
            if original is None:
                raise TraceError(f"{home.__name__}.{qual} does not exist")
            wrapper = self._wrap(original, name)
            self._restore.append((owner, attr, original))
            setattr(owner, attr, wrapper)
            return
        original = getattr(home, qual, None)
        if not callable(original):
            raise TraceError(f"{home.__name__}.{qual} does not exist")
        wrapper = self._wrap(original, name)
        for module in modules:
            # a name imported with ``from .x import f`` or held in a table (metrics.METHODS)
            # keeps calling the unwrapped function unless it is replaced too
            for key, value in list(vars(module).items()):
                if value is original:
                    self._restore.append((module, key, value))
                    setattr(module, key, wrapper)
                elif isinstance(value, dict):
                    self._patch_table(value, original, wrapper)

    def _patch_table(self, table: dict, original, wrapper) -> None:
        for key, value in list(table.items()):
            if value is original:
                new = wrapper
            elif isinstance(value, tuple) and any(item is original for item in value):
                new = tuple(wrapper if item is original else item for item in value)
            else:
                continue
            self._restore.append((table, key, value))
            table[key] = new

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            if isinstance(owner, dict):
                owner[key] = value
            else:
                setattr(owner, key, value)
        self._restore.clear()

    # -- spans ----------------------------------------------------------------

    def _wrap(self, fn, name: str):
        stack = self._stack
        below_root = self._below_root
        clock = time.perf_counter_ns
        enter = leave = None
        if name == "metrics.method_expected_tau":
            by_method = {method: self.stats[f"{name}.{method}"] for method in TAU_METHODS}

            def stat_for(args):
                return by_method[args[0]]
        else:
            stat = self.stats[name]

            def stat_for(args):
                return stat
        if name == "models.conditional":
            enter = self._enter_conditional
        elif name == "oracle.enumerate_yield":
            enter, leave = self._enter_enumerate, self._leave_enumerate

        def traced(*args, **kwargs):
            if not stack:  # outside a timed op: set-up work is not traced
                return fn(*args, **kwargs)
            span_stat = stat_for(args)
            if enter is not None:
                enter(args)
            cell = [0]
            stack.append(cell)
            start = clock()
            result = None
            try:
                result = fn(*args, **kwargs)
                return result
            except Exception:
                span_stat.errors += 1
                raise
            finally:
                duration = clock() - start
                stack.pop()
                stack[-1][0] += duration
                own = duration - cell[0]
                span_stat.calls += 1
                span_stat.self_ns += own
                below_root[0] += own
                if leave is not None:
                    leave(result)

        traced.__wrapped__ = fn
        return traced

    def _enter_conditional(self, args) -> None:
        model, prefix = args[0], args[1]
        seen = self._seen.get(model)
        if seen is None:
            seen = self._seen[model] = set()
        key = prefix if type(prefix) is tuple else tuple(prefix)
        if key not in seen:
            seen.add(key)
            self.first_seen += 1
        if self._enum_depth:
            self.conditional_in_enum += 1

    def _enter_enumerate(self, args) -> None:
        self._enum_depth += 1

    def _leave_enumerate(self, result) -> None:
        self._enum_depth -= 1
        if result is not None:
            self.leaves += len(result.probs)

    def run_op(self, fn, *args):
        """Run one op as a root span; return (result, duration in ns)."""
        if self._stack:
            raise TraceError("ops cannot nest")
        root = [0]
        self._stack.append(root)
        self._below_root[0] = 0
        start = time.perf_counter_ns()
        try:
            result = fn(*args)
        finally:
            duration = time.perf_counter_ns() - start
            self._stack.pop()
        root_self = duration - root[0]
        # every nanosecond of the op is somebody's self time, exactly once
        if root_self < 0 or root_self + self._below_root[0] != duration:
            raise TraceError(
                f"span tree does not add up: root {duration} ns, own {root_self} ns, "
                f"children {root[0]} ns, self below root {self._below_root[0]} ns"
            )
        self.ops += 1
        self.root_self_ns += root_self
        return result, duration

    # -- results --------------------------------------------------------------

    def counts(self) -> dict[str, tuple[float, str]]:
        """Counts, as (value, unit), that repeat bit for bit for the same ops on the same inputs."""
        stats = self.stats
        out = {f"{name}.calls": (stat.calls, "count") for name, stat in stats.items()}
        conditional = stats["models.conditional"].calls
        traces = stats["models.sample_draft"].calls + stats["models.trace_for"].calls
        certs = stats["oracle.enumerate_yield"].calls
        out["models.conditional.first_seen"] = (self.first_seen, "count")
        out["models.conditional.hit_ratio"] = (_ratio(conditional - self.first_seen, conditional), "ratio")
        out["divergence.ratio_chain.calls_per_trace"] = (_ratio(stats["divergence.ratio_chain"].calls, traces), "ratio")
        out["oracle.enumerate_yield.conditional_calls_per_cert"] = (_ratio(self.conditional_in_enum, certs), "ratio")
        out["oracle.enumerate_yield.conditional_calls_per_leaf"] = (_ratio(self.conditional_in_enum, self.leaves), "ratio")
        out["verify.residual.errors"] = (sum(stats[name].errors for name in RESIDUALS), "count")
        return out

    def self_seconds_per_op(self) -> dict[str, float]:
        ops = max(self.ops, 1)
        out = {f"{name}.self_s": stat.self_ns / 1e9 / ops for name, stat in self.stats.items()}
        out["bench.op.self_s"] = self.root_self_ns / 1e9 / ops
        return out

    def silent(self, expected: tuple[str, ...]) -> list[str]:
        """Spans a workload should call that never fired."""
        return [name for name in expected if self.stats[name].calls == 0]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0
