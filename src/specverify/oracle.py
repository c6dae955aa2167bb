"""Ground-truth certification of verifier losslessness.

:func:`enumerate_yield` computes, exactly, the probability of every
full-length output sequence under a verifier.  Each draft deposits mass at
what the verifier can emit, with scan decisions treated analytically (they
are independent uniforms); the mass is then pushed one level at a time out
to the output length, so every prefix is expanded once.  Comparing that
yield against the target joint certifies or refutes losslessness to
floating-point precision.  :func:`monte_carlo_fit` is the statistical
fallback for configurations where enumeration is infeasible, such as
multi-draft verification.

Both take each single-draft verifier from :data:`verify.SINGLE_DRAFT`, the
one definition its public sampler also reads.  Their ``mutate`` argument
corrupts a verifier on purpose, and a healthy test suite must catch every
mutation: ``h-double`` doubles the acceptance chain (clamped to 1) of any
single-draft verifier, under enumeration or sampling; ``unclamp`` hands
capped-hsd's ratios to the analytic scan law before their clamp to 1, which
only enumeration can see.
"""

from __future__ import annotations

import math
from collections import Counter, defaultdict
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from itertools import product

import numpy as np

from .divergence import joint_products, ratio_chain
from .models import Sequence, TableArModel, sample_draft, sample_index, substream, trace_for
from .verify import (
    SINGLE_DRAFT,
    capped_hsd_verify,
    multidraft_hsd_verify,
    multidraft_tokenwise_verify,
    naive_branch_residual,
    naive_hsd_verify,
    tokenwise_verify,
    _capped_ratios,
    _single_draft_verify,
)

ENUMERATION_GUARD = 100_000
SINGLE_DRAFT_VERIFIERS = tuple(SINGLE_DRAFT)
MULTI_DRAFT_VERIFIERS = ("multidraft-tokenwise", "multidraft-hsd")
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
    for draft in product(range(vocab), repeat=gamma):
        trace = trace_for(q_model, p_model, (), draft)
        cums = joint_products(trace)
        q_joint = cums[1][gamma]
        if q_joint == 0.0:
            continue
        h, residual = plan(trace, cums)
        refill = residual is None
        if mutate == "h-double":
            h = _doubled(h)
        elif mutate == "unclamp":
            h = _capped_ratios(trace, ratio_chain(trace), cums)
        for tau, pr_tau in enumerate(tau_law(h)):
            weight = q_joint * pr_tau
            if weight == 0.0:
                continue
            if tau == gamma or refill:
                levels[tau][draft[:tau]] += weight
                continue
            nxt = levels[tau + 1]
            for tok, pr in enumerate(residual(tau)):
                if pr > 0.0:
                    nxt[draft[:tau] + (tok,)] += weight * pr

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
        return {
            "verifier": self.verifier,
            "vocab_size": self.vocab_size,
            "gamma": self.gamma,
            "length": self.length,
            "seed": self.seed,
            "trials": self.trials,
            "k_drafts": self.k_drafts,
            "mutate": self.mutate,
            "tv": self.tv,
            "tv_bound": self.tv_bound,
            "max_z": self.max_z,
            "z_bound": self.z_bound,
            "z_violations": self.z_violations,
            "worst_sequence": list(self.worst_sequence),
            "worst_error": self.worst_error,
            "pass": self.passed,
        }


def _simulate_sequence(
    verifier: str,
    p_model: TableArModel,
    q_model: TableArModel,
    gamma: int,
    length: int,
    k_drafts: int,
    rng: np.random.Generator,
    mutate: str | None,
) -> Sequence:
    """One end-to-end generation: draft, verify, continue from the target."""
    if verifier in SINGLE_DRAFT_VERIFIERS:
        trace = sample_draft(q_model, p_model, (), gamma, rng)
        if mutate is not None:  # h-double, the one mutation sampling can see
            outcome = _single_draft_verify(verifier, trace, rng, p_model, q_model, _doubled)
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
        seq = seq + (sample_index(p_model.conditional(seq), rng),)
    return seq


def _mc_chunk(payload: dict) -> Counter:
    p_model = TableArModel(payload["vocab_size"], payload["depth"], table=payload["p_table"])
    q_model = TableArModel(payload["vocab_size"], payload["depth"], table=payload["q_table"])
    counts: Counter = Counter()
    for trial in range(payload["start"], payload["stop"]):
        rng = substream(payload["seed"], trial)
        counts[
            _simulate_sequence(
                payload["verifier"],
                p_model,
                q_model,
                payload["gamma"],
                payload["length"],
                payload["k_drafts"],
                rng,
                payload["mutate"],
            )
        ] += 1
    return counts


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
    infinite z and is reported as the worst sequence.
    """
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

    if workers > 1:
        payloads = []
        bounds = [round(i * trials / workers) for i in range(workers + 1)]
        p_table = {prefix: p_model.conditional(prefix) for prefix in p_model.prefixes()}
        q_table = {prefix: q_model.conditional(prefix) for prefix in q_model.prefixes()}
        for start, stop in zip(bounds[:-1], bounds[1:]):
            payloads.append(
                {
                    "vocab_size": p_model.vocab_size,
                    "depth": p_model.max_depth,
                    "p_table": p_table,
                    "q_table": q_table,
                    "verifier": verifier,
                    "gamma": gamma,
                    "length": length,
                    "k_drafts": k_drafts,
                    "mutate": mutate,
                    "seed": master_seed,
                    "start": start,
                    "stop": stop,
                }
            )
        counts: Counter = Counter()
        with ProcessPoolExecutor(max_workers=workers) as pool:
            for chunk in pool.map(_mc_chunk, payloads):
                counts.update(chunk)
    else:
        counts = Counter()
        for trial in range(trials):
            rng = substream(master_seed, trial)
            counts[_simulate_sequence(verifier, p_model, q_model, gamma, length, k_drafts, rng, mutate)] += 1

    expected = target_joint_distribution(p_model, length)
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
