"""Ground-truth certification of verifier losslessness.

:func:`enumerate_yield` computes, exactly, the probability of every
full-length output sequence under a verifier.  Each draft deposits mass at
what the verifier can emit, with scan decisions treated analytically (they
are independent uniforms); the mass is then pushed one level at a time out
to the output length, so every prefix is expanded once.  A branch of a
chain and a residual drawn after a rejection depend only on the drafted
prefix, so each is built once per prefix, not once per draft: the branch
gap lists and sums in the call's run memo, :func:`models.run_memo`, and the residuals in
a local dict.  Comparing that yield against the target joint certifies or
refutes losslessness to floating-point precision.
:func:`monte_carlo_fit` is the statistical fallback for configurations
where enumeration is infeasible, such as multi-draft verification.  Each
run of its trials (one serial fit, or one worker's chunk) keeps one run
memo, capped at :data:`models.RUN_MEMO_CAP` entries: a draft it has seen
before is the same trace object, drawn without fetching conditionals
again, and a trace it has seen before skips its chain and residual builds.
Either memo is the opening thread's alone and is dropped with the run,
also on an exception.

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
from .models import stream_run, trace_for, uniforms
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
    """One end-to-end generation: draft, verify, continue from the target; ``rng`` needs only ``.random()``."""
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


def _trial_counts(p_model: TableArModel, q_model: TableArModel, trials: range, master_seed: int, *run) -> Counter:
    """Tally the sequences ``trials`` generate; ``run`` is ``(verifier, gamma, length, k_drafts, mutate)``."""
    counts: Counter = Counter()
    with run_memo(RUN_MEMO_CAP):
        for trial in stream_run(master_seed, trials):
            counts[_simulate_sequence(p_model, q_model, *run, uniforms(master_seed, trial))] += 1
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


def _mc_chunk(payload: tuple) -> Counter:
    return _trial_counts(*payload)


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
    infinite z and is reported as the worst sequence.  With ``workers > 1``
    each chunk pickles both models, so a model whose generator does not
    pickle (a ``lambda``, say) raises pickle's own error there.
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
    if length < gamma:
        raise ValueError(f"length {length} shorter than draft length {gamma}")
    depth = min(p_model.max_depth, q_model.max_depth)
    if depth < max(length, gamma + 1):
        raise ValueError(f"models of depth {depth} cannot run gamma={gamma} with continuations to {length}")
    _check_mutation(verifier, mutate, enumerated=False)
    expected = target_joint_distribution(p_model, length)  # its enumeration guard, before any trial

    run = (master_seed, verifier, gamma, length, k_drafts, mutate)
    if workers > 1:
        chunks = min(workers, os.cpu_count() or 1)  # one chunk, run memo and model copy per process
        bounds = [round(i * trials / chunks) for i in range(chunks + 1)]
        payloads = [(p_model, q_model, range(start, stop), *run) for start, stop in zip(bounds[:-1], bounds[1:])]
        counts: Counter = Counter()
        for chunk in pool_map(_mc_chunk, payloads, workers):
            counts.update(chunk)
    else:
        counts = _trial_counts(p_model, q_model, range(trials), *run)

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
        elif count > 0:  # impossible sequence observed
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
