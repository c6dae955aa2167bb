"""A fixed calibration block that reads the speed of the core the run is on.

The benchmark's host is shared.  Other tenants slow every instruction on it
by 20-45% for stretches of seconds to minutes, and process CPU time slows
with wall time, so no clock separates the program's speed from the host's.
Timing a fixed block of work between slices of ops does: the block slows down
with the host, and never with the program, because it calls no specverify
code.  Its mix follows the program's.  One half computes on small data: dicts
keyed by tuples, float sums over small tuples, tiny numpy arrays and numpy
random generator construction.  The other half looks keys up in a dict of
about 8 MB, past the core's own caches, so it also slows when another tenant
evicts the shared cache, as the program's memos and yields do.
"""

import gc
import time

import numpy as np

# Time of one calibration near the fastest this host gives, on the 2-vCPU
# Xeon VM this was written on.  It only sets the scale of work_per_ref_s: at
# this speed a reference second is a wall-clock second.
NOMINAL_NS = 5_000_000
_TABLE_SIZE = 40_000
_STEP = 40_503  # coprime with _TABLE_SIZE: the walk visits every key once a round
_LOOKUPS = 4_000
_walk_state: dict = {}


def _compute() -> float:
    memo = {}
    total = 0.0
    for i in range(600):
        key = (i & 7, (i >> 3) & 7, i % 5)
        value = memo.get(key)
        if value is None:
            z = np.exp(np.array([0.1 * (i % 4), 0.2, -0.3, 0.05 * (i % 9)]))
            value = memo[key] = tuple((z / z.sum()).tolist())
        total += sum(a * b for a, b in zip(value, value[::-1]))
        if i % 50 == 0:
            total += np.random.default_rng(np.random.SeedSequence((12345, i))).random()
    return total


def _walk() -> float:
    """Look up the next _LOOKUPS keys of the table, in scattered order."""
    state = _walk_state
    if not state:
        keys = [(i % 97, (i * 7919) % 65521, i) for i in range(_TABLE_SIZE)]
        state["table"] = {key: float(i) for i, key in enumerate(keys)}
        state["order"] = [keys[(i * _STEP) % _TABLE_SIZE] for i in range(_TABLE_SIZE)]
        state["next"] = 0
    table, order, j = state["table"], state["order"], state["next"]
    total = 0.0
    for _ in range(_LOOKUPS):
        total += table[order[j]]
        j = j + 1 if j + 1 < _TABLE_SIZE else 0
    state["next"] = j
    return total


def calibration_ns() -> int:
    """Wall time of one calibration, with the collector off.

    A collection started here would scan the program's heap and be charged
    to the host, so the collector waits until the block is done.  The first
    call builds the table, untimed.
    """
    if not _walk_state:
        _walk()
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter_ns()
        _compute()
        _walk()
        return time.perf_counter_ns() - start
    finally:
        if enabled:
            gc.enable()
