"""Ground-truth certification of verifier losslessness.

:func:`enumerate_yield` computes, exactly, the probability of every
full-length output sequence under a verifier.  Each draft deposits mass at
what the verifier can emit, with scan decisions treated analytically (they
are independent uniforms); the mass is then pushed one level at a time out
to the output length, so every prefix is expanded once.  A branch of a
chain and a residual drawn after a rejection depend only on the drafted
prefix, so each is built once per prefix, not once per draft: the branch
sums in the call's run memo, :func:`models.run_memo`, and the residuals in
a local dict.  Comparing that yield against the target joint certifies or
refutes losslessness to floating-point precision.
:func:`monte_carlo_fit` is the statistical fallback for configurations
where enumeration is infeasible, such as multi-draft verification.  Each
run of its trials (one serial fit, or one worker's chunk) keeps one run
memo, capped at :data:`models.RUN_MEMO_CAP` entries: a draft it has seen
before is the same trace object, drawn without fetching conditionals
again, and a trace it has seen before skips its chain and residual builds.
Either memo is the opening thread's alone and is dropped with the run,
also on an exception.  The run also keeps the sampler's decision tree: an
inner node tests ``u_k < c`` on a trial's k-th uniform, a leaf is an
emitted sequence.  A trial walks it and runs the sampler only where it
falls off, on probes that allow ``<`` alone and log each test; that path
is grafted on.  A sampler reads its uniforms only through ``<`` and emits
a function of them, so histograms stay bit for bit; any other read raises
``TypeError``, a path that disagrees with the tree ``RuntimeError``.  The
tree is dropped with the run; :func:`monte_carlo_fit` states its bound.

Both take each single-draft verifier from :data:`verify.SINGLE_DRAFT`, the
one definition the sampler of :mod:`specverify.verify` also reads, for one
draft or, under the names of :data:`verify.MULTI_DRAFT`, several.  Their ``mutate`` argument
corrupts a verifier on purpose, and a healthy test suite must catch every
mutation: ``h-double`` doubles the acceptance chain (clamped to 1) of any
single-draft verifier, under enumeration or sampling; ``unclamp`` hands
capped-hsd's ratios to the analytic scan law before their clamp to 1, which
only enumeration can see.
"""

from __future__ import annotations

import math
import os
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import asdict, dataclass
from itertools import product

import numpy as np

from .divergence import joint_products
from .models import RUN_MEMO_CAP, Sequence, TableArModel, index_from_uniform, run_memo, sample_draft
from .models import stream_run, trace_for
from .verify import (
    MULTI_DRAFT,
    SINGLE_DRAFT,
    capped_hsd_verify,
    multidraft_hsd_verify,
    multidraft_tokenwise_verify,
    naive_branch_residual,
    naive_hsd_verify,
    tokenwise_verify,
    _capped_ratios,
    _verify,
)

ENUMERATION_GUARD = 100_000
SINGLE_DRAFT_VERIFIERS = tuple(SINGLE_DRAFT)
MULTI_DRAFT_VERIFIERS = tuple(MULTI_DRAFT)
MUTATIONS = ("h-double", "unclamp")
TREE_CAP = 2_048  # inner nodes after which a decision tree grafts no more paths
TREE_BLOCK = 256  # trials between two judgements of a full decision tree


@dataclass(frozen=True)
class YieldDistribution:
    """Exact probability of each full-length output sequence."""

    probs: dict[Sequence, float]
    length: int

    def total(self) -> float:
        return math.fsum(self.probs.values())


def _push(levels: list[dict[Sequence, float]], start: int, stop: int, step) -> None:
    """Move the mass at levels ``start .. stop - 1`` on by the ``(token, prob)`` pairs of ``step(prefix)``."""
    for n in range(start, stop):
        nxt = levels[n + 1]
        for prefix, mass in levels[n].items():
            for tok, pr in step(prefix):
                nxt[prefix + (tok,)] += mass * pr


def target_joint_distribution(p_model: TableArModel, length: int) -> YieldDistribution:
    """The target joint over all sequences of a fixed length.

    Pushes unit mass from the empty prefix through the target conditionals;
    each probability is the product :meth:`TableArModel.joint` takes, in the
    same order, so the two agree bit for bit.
    """
    if length > p_model.max_depth:
        raise ValueError(f"length {length} exceeds the target model's depth {p_model.max_depth}")
    if p_model.vocab_size**length > ENUMERATION_GUARD:
        raise ValueError(f"{p_model.vocab_size}^{length} sequences exceed the enumeration guard")
    levels = [{(): 1.0}] + [defaultdict(float) for _ in range(length)]
    _push(levels, 0, length, lambda prefix: enumerate(p_model.conditional(prefix)))
    return YieldDistribution(dict(levels[length]), length)


def total_variation(a: YieldDistribution, b: YieldDistribution) -> float:
    """Half the L1 distance between two yield distributions."""
    if a.length != b.length:
        raise ValueError(f"length mismatch: {a.length} vs {b.length}")
    keys = set(a.probs) | set(b.probs)
    return 0.5 * math.fsum(abs(a.probs.get(k, 0.0) - b.probs.get(k, 0.0)) for k in keys)


def _tau_probs_backward(h: tuple[float, ...]) -> list[float]:
    gamma = len(h)
    pr = [0.0] * (gamma + 1)
    tail = 1.0
    for t in range(gamma, 0, -1):
        pr[t] = h[t - 1] * tail
        tail *= 1.0 - h[t - 1]
    pr[0] = tail
    return pr


def _tau_probs_forward(h: tuple[float, ...]) -> list[float]:
    gamma = len(h)
    pr = [0.0] * (gamma + 1)
    run = 1.0
    for t in range(1, gamma + 1):
        pr[t - 1] = run * (1.0 - h[t - 1])
        run *= h[t - 1]
    pr[gamma] = run
    return pr


# scan direction -> accepted-length law of that scan over a chain
TAU_LAWS = {"forward": _tau_probs_forward, "backward": _tau_probs_backward}


def _doubled(h: tuple[float, ...]) -> tuple[float, ...]:
    return tuple(min(2.0 * v, 1.0) for v in h)


def _check_mutation(verifier: str, mutate: str | None, enumerated: bool) -> None:
    if mutate is None:
        return
    if mutate not in MUTATIONS:
        raise ValueError(f"unknown mutation {mutate!r}; expected one of {MUTATIONS}")
    if verifier not in SINGLE_DRAFT_VERIFIERS:
        raise ValueError("mutations are not supported for multi-draft verifiers")
    if mutate == "unclamp" and verifier != "capped-hsd":
        raise ValueError("the unclamp mutation only applies to capped-hsd")
    if mutate == "unclamp" and not enumerated:
        # a sampling scan cannot tell h > 1 from h = 1
        raise ValueError("the unclamp mutation is only observable under enumeration")


def enumerate_yield(
    verifier: str,
    p_model: TableArModel,
    q_model: TableArModel,
    gamma: int,
    length: int | None = None,
    mutate: str | None = None,
) -> YieldDistribution:
    """Exact yield distribution of a single-draft verifier.

    Every draft of length ``gamma``, weighted by its draft joint and the
    analytic accepted-length law of the verifier's scan, deposits mass at
    what the verifier emits: the accepted prefix plus each resampled token,
    or the whole draft.  naive-hsd deposits its accepted prefixes instead,
    pushed through the naive branch residual out to ``gamma``.  All mass is
    then pushed through the target conditionals out to ``length``.
    """
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if verifier not in SINGLE_DRAFT_VERIFIERS:
        raise ValueError(f"unknown verifier {verifier!r}; expected one of {SINGLE_DRAFT_VERIFIERS}")
    _check_mutation(verifier, mutate, enumerated=True)
    vocab = p_model.vocab_size
    L = gamma if length is None else length
    if L < gamma:
        raise ValueError(f"length {L} shorter than draft length {gamma}")
    if vocab**gamma > ENUMERATION_GUARD:
        raise ValueError(f"{vocab}^{gamma} drafts exceed the enumeration guard ({ENUMERATION_GUARD})")
    if min(p_model.max_depth, q_model.max_depth) < L:
        raise ValueError(f"models of depth < {L} cannot be enumerated to that length")

    plan, scan = SINGLE_DRAFT[verifier]
    tau_law = TAU_LAWS[scan]
    # levels[n]: mass at emitted prefixes of length n; for a verifier that
    # refills (naive-hsd), levels below gamma hold the contexts it resamples
    levels: list[dict[Sequence, float]] = [defaultdict(float) for _ in range(L + 1)]
    refill = False
    residuals: dict[Sequence, list[tuple[Sequence, float]]] = {}  # draft[:tau] -> children of residual(tau)
    with run_memo(ENUMERATION_GUARD):  # fewer branches than drafts: the guard never binds
        for draft in product(range(vocab), repeat=gamma):
            trace = trace_for(q_model, p_model, (), draft)
            q_joint = joint_products(trace)[1][gamma]
            if q_joint == 0.0:
                continue
            h, residual = plan(trace)
            refill = residual is None
            if mutate == "h-double":
                h = _doubled(h)
            elif mutate == "unclamp":
                h = _capped_ratios(trace)
            for tau, pr_tau in enumerate(tau_law(h)):
                weight = q_joint * pr_tau
                if weight == 0.0:
                    continue
                stem = draft[:tau]
                if tau == gamma or refill:
                    levels[tau][stem] += weight
                    continue
                children = residuals.get(stem)
                if children is None:  # residual(tau) depends on stem alone: one build per stem
                    dist = residual(tau)
                    children = residuals[stem] = [(stem + (tok,), pr) for tok, pr in enumerate(dist) if pr > 0.0]
                nxt = levels[tau + 1]
                for child, pr in children:
                    nxt[child] += weight * pr

    start = 0
    if refill:
        def resample(context: Sequence) -> list[tuple[int, float]]:
            return [(tok, pr) for tok, pr in enumerate(naive_branch_residual(p_model, q_model, context)) if pr > 0.0]

        _push(levels, 0, gamma, resample)
        start = gamma
    _push(levels, start, L, lambda prefix: enumerate(p_model.conditional(prefix)))
    return YieldDistribution(dict(levels[L]), L)


# ---------------------------------------------------------------------------
# Monte Carlo goodness of fit
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class FitReport:
    """Outcome of a Monte Carlo goodness-of-fit run, with its thresholds."""

    verifier: str
    vocab_size: int
    gamma: int
    length: int
    seed: int
    trials: int
    k_drafts: int
    mutate: str | None
    tv: float
    tv_bound: float
    max_z: float
    z_bound: float
    z_violations: int
    worst_sequence: Sequence
    worst_error: float
    passed: bool

    def to_dict(self) -> dict:
        doc = asdict(self)  # field order; passed is the last field, so "pass" stays last
        doc["worst_sequence"] = list(self.worst_sequence)
        doc["pass"] = doc.pop("passed")
        return doc


def _simulate_sequence(
    p_model: TableArModel,
    q_model: TableArModel,
    verifier: str,
    gamma: int,
    length: int,
    k_drafts: int,
    mutate: str | None,
    rng: np.random.Generator,
) -> Sequence:
    """One end-to-end generation: draft, verify, continue, by ``.random()`` of ``rng``, a stream or stand-in for one."""
    if verifier in SINGLE_DRAFT_VERIFIERS:
        trace = sample_draft(q_model, p_model, (), gamma, rng)
        if mutate is not None:  # h-double, the one mutation sampling can see
            outcome = _verify(verifier, [trace], rng, p_model, q_model, _doubled)
        elif verifier == "tokenwise":
            outcome = tokenwise_verify(trace, rng)
        elif verifier == "naive-hsd":
            outcome = naive_hsd_verify(trace, p_model, q_model, rng)
        else:
            outcome = capped_hsd_verify(trace, rng)
    else:
        traces = [sample_draft(q_model, p_model, (), gamma, rng) for _ in range(k_drafts)]
        if verifier == "multidraft-hsd":
            outcome = multidraft_hsd_verify(traces, rng)
        else:
            outcome = multidraft_tokenwise_verify(traces, rng)
    seq = outcome.emitted[:length]
    while len(seq) < length:
        seq = seq + (index_from_uniform(p_model.conditional(seq), rng.random()),)
    return seq


class _Probe:
    """A trial's ``k``-th uniform, readable by ``u < c`` alone; each such test is logged as ``(k, c, outcome)``."""

    __slots__ = ("_u", "_k", "_log")

    def __init__(self, u: float, k: int, log: list):
        self._u, self._k, self._log = u, k, log

    def __lt__(self, c) -> bool:
        below = self._u < c
        self._log.append((self._k, c, below))
        return below

    def _refuse(self, *other):
        raise TypeError("a Monte Carlo trial reads its uniforms by < alone")

    __eq__ = __bool__ = _refuse


class _Replay:
    """A trial's stream: the uniforms its walk drew, then the rest; with a ``log``, as probes logging to it."""

    __slots__ = ("_drawn", "_rng", "_k", "_log")

    def __init__(self, drawn: list[float], rng, log: list | None = None):
        self._drawn, self._rng, self._k, self._log = drawn, rng, 0, log

    def random(self) -> float | _Probe:
        k, drawn = self._k, self._drawn
        self._k = k + 1
        u = drawn[k] if k < len(drawn) else self._rng.random()
        return u if self._log is None else _Probe(u, k, self._log)


def _walk(node, rng) -> tuple[Sequence | None, list[float]]:
    """The leaf a trial reaches from ``node`` (None if it falls off), and the uniforms it drew.

    An inner node ``[k, c, if_not_below, if_below]`` tests ``u_k < c``.
    """
    drawn = []
    while node.__class__ is list:
        k, c, if_not_below, if_below = node
        while k >= len(drawn):
            drawn.append(rng.random())
        node = if_below if drawn[k] < c else if_not_below
    return node, drawn


def _graft(top: list, log: list, seq: Sequence) -> int:
    """Graft path ``log``, ending at ``seq``, onto the tree at ``top[0]``; return the nodes added."""
    slot, i, added = top, 0, 0
    for k, c, below in log:
        node = slot[i]
        if node is None:
            node = slot[i] = [k, c, None, None]
            added += 1
        elif node.__class__ is not list or node[0] != k or node[1] != c:
            raise RuntimeError(f"a trial is not a function of its uniforms: u_{k} < {c!r} leaves the tree")
        slot, i = node, 3 if below else 2
    if slot[i] is not None:
        raise RuntimeError(f"a trial is not a function of its uniforms: {seq} ends inside the tree")
    slot[i] = seq
    return added


def _trial_counts(payload: tuple) -> Counter:
    """Tally the sequences one chunk's trials generate; :func:`monte_carlo_fit` builds its ``payload``."""
    p_model, q_model, trials, master_seed, *run = payload
    counts: Counter = Counter()
    top, size, hits = [None], 0, 0  # top[0] is the root of the tree
    with run_memo(RUN_MEMO_CAP):
        for n, rng in enumerate(stream_run(master_seed, trials), 1):
            if top is None:
                seq = _simulate_sequence(p_model, q_model, *run, rng)
            else:
                seq, drawn = _walk(top[0], rng)
                if seq is None:
                    log = [] if size < TREE_CAP else None
                    seq = _simulate_sequence(p_model, q_model, *run, _Replay(drawn, rng, log))
                    if log is not None:
                        size += _graft(top, log, seq)
                else:
                    hits += 1
                if n % TREE_BLOCK == 0:  # a full tree that answered under half of this block is dropped
                    if size >= TREE_CAP and 2 * hits < TREE_BLOCK:
                        top = None
                    hits = 0
            counts[seq] += 1
    return counts


def pool_map(fn, payloads: list, workers: int) -> list:
    """``[fn(p) for p in payloads]`` on at most ``min(workers, len(payloads), os.cpu_count())`` processes.

    A fork-started pool starts all of its workers at the first submit, so its
    size is capped by the jobs and the cores; results never depend on it.
    """
    size = min(workers, len(payloads), os.cpu_count() or 1)
    if size <= 1:
        return [fn(p) for p in payloads]
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, payloads))


def monte_carlo_fit(
    verifier: str,
    p_model: TableArModel,
    q_model: TableArModel,
    gamma: int,
    length: int,
    trials: int,
    master_seed: int,
    k_drafts: int = 1,
    mutate: str | None = None,
    workers: int = 1,
) -> FitReport:
    """Simulate end-to-end generations and test them against the target joint.

    Every trial owns the random substream derived from (master_seed, trial
    index), so results are identical for any worker count.  The run passes
    when every per-sequence count sits within 4-sigma binomial bounds and the
    empirical total variation stays under ``3 * sqrt(V**L / trials)``.  A
    simulated sequence outside the target's support fails the fit with an
    infinite z and is reported as the worst sequence.  The trials run in
    ``min(workers, os.cpu_count())`` chunks, one in this process or each in a
    worker that receives both models by pickle, so there a model whose
    generator does not pickle (a ``lambda``, say) raises pickle's own error.

    Each chunk runs the sampler once per distinct decision path, in a tree
    that grafts no path once it holds ``TREE_CAP`` inner nodes, so it holds
    at most that many plus one path.  A full tree that answered fewer
    than half of the last ``TREE_BLOCK`` trials is dropped, and the rest of
    the chunk runs the sampler on every trial.  This needs a sampler that
    reads its uniforms only through ``<`` and emits a function of them.
    """
    if gamma < 1:
        raise ValueError(f"gamma must be >= 1, got {gamma}")
    if trials < 10_000:
        raise ValueError(f"trials must be >= 10^4, got {trials}")
    if verifier not in SINGLE_DRAFT_VERIFIERS + MULTI_DRAFT_VERIFIERS:
        raise ValueError(f"unknown verifier {verifier!r}")
    if verifier in SINGLE_DRAFT_VERIFIERS and k_drafts != 1:
        raise ValueError(f"{verifier} takes exactly one draft")
    if k_drafts < 1:
        raise ValueError(f"k_drafts must be >= 1, got {k_drafts}")
    if workers < 1:
        raise ValueError(f"workers must be >= 1, got {workers}")
    if length < gamma:
        raise ValueError(f"length {length} shorter than draft length {gamma}")
    depth = min(p_model.max_depth, q_model.max_depth)
    if depth < max(length, gamma + 1):
        raise ValueError(f"models of depth {depth} cannot run gamma={gamma} with continuations to {length}")
    _check_mutation(verifier, mutate, enumerated=False)
    expected = target_joint_distribution(p_model, length)  # its enumeration guard, before any trial

    run = (master_seed, verifier, gamma, length, k_drafts, mutate)
    chunks = min(workers, os.cpu_count() or 1)  # one chunk, run memo and model copy per process
    bounds = [round(i * trials / chunks) for i in range(chunks + 1)]
    payloads = [(p_model, q_model, range(start, stop), *run) for start, stop in zip(bounds[:-1], bounds[1:])]
    counts, *rest = pool_map(_trial_counts, payloads, workers)  # a single chunk runs in this process
    for chunk in rest:
        counts.update(chunk)

    z_bound = 4.0
    max_z, z_violations = 0.0, 0
    worst_seq, worst_err = (), 0.0
    l1_terms = []
    for seq, p_s in expected.probs.items():
        count = counts.get(seq, 0)
        emp = count / trials
        err = abs(emp - p_s)
        l1_terms.append(err)
        if err > worst_err:
            worst_seq, worst_err = seq, err
        sigma = math.sqrt(trials * p_s * (1.0 - p_s))
        if sigma > 0.0:
            z = abs(count - trials * p_s) / sigma
            max_z = max(max_z, z)
            if z > z_bound:
                z_violations += 1
        elif count != trials * p_s:  # an impossible sequence observed, or a sure one missed
            z_violations += 1
            max_z = math.inf
    # a sequence the target cannot emit at all (a token out of range) is the
    # worst deviation there is: infinite z, and all its mass in tv
    stray = set(counts) - set(expected.probs)
    if stray:
        l1_terms.extend(counts[seq] / trials for seq in stray)
        z_violations += len(stray)
        max_z = math.inf
        worst_seq = max(sorted(stray), key=counts.__getitem__)
        worst_err = counts[worst_seq] / trials
    tv = 0.5 * math.fsum(l1_terms)
    tv_bound = 3.0 * math.sqrt(p_model.vocab_size**length / trials)
    passed = z_violations == 0 and tv < tv_bound
    return FitReport(
        verifier=verifier,
        vocab_size=p_model.vocab_size,
        gamma=gamma,
        length=length,
        seed=master_seed,
        trials=trials,
        k_drafts=k_drafts,
        mutate=mutate,
        tv=tv,
        tv_bound=tv_bound,
        max_z=max_z,
        z_bound=z_bound,
        z_violations=z_violations,
        worst_sequence=worst_seq,
        worst_error=worst_err,
        passed=passed,
    )
