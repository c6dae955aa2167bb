"""Draft verification strategies over table models.

Each single-draft verifier is defined once, as an entry of the
:data:`SINGLE_DRAFT` table: tokenwise accept/resample, branch resampling in
its naive form (whose refill queries the models off the drafted path), and
branch resampling with the maximal prefix ratio capped (which needs nothing
beyond the trace).  The exact enumeration and mutation tests of
:mod:`specverify.oracle` read that table, and so does the one sampler here,
recursive rejection sampling over one draft or several: one draft is the
single-draft verifier, and each multi-draft verifier of :data:`MULTI_DRAFT`
scans every draft with a single-draft plan.  Both branch chains run one
loop: naive-hsd is capped-hsd with every cap index 0.  Blockwise acceptance
is kept to chain depth, as the independent reference for capped-hsd; the
tests check its running clamp against the suffix-minimum closed form.

Inside a run memo (:func:`specverify.models.run_memo`) the sampler builds
each distinct trace's plan once, and the branch chains each branch's two
sums once.

Every verifier consumes one uniform per decision, drawn in scan order, and
reads it by ``u < c`` alone, so a Monte Carlo trial replays from the log of
those tests (:class:`specverify.oracle._Probe`).  Branch and block sums
``fsum`` filtered gap lists: bit for bit the sums of ``max(gap, 0)``, for the
reason :func:`_branch_ratios` gives.
"""

from __future__ import annotations

import logging
import math
from functools import cache
from typing import Callable, Iterable, NamedTuple

import numpy as np

from .divergence import branch_gaps, capped_branch_masses, capped_scales, joint_products, ratio_chain
from .models import Dist, DraftTrace, Sequence, TableArModel, _run, index_from_uniform, remember

logger = logging.getLogger(__name__)


class VerifyOutcome(NamedTuple):
    """Accepted prefix length and emitted tokens."""

    tau: int
    emitted: Sequence


def backward_scan(h: tuple[float, ...], rng: np.random.Generator) -> int:
    """Scan positions from the end, accepting the longest surviving prefix."""
    for t in range(len(h), 0, -1):
        if rng.random() < h[t - 1]:
            return t
    return 0


def forward_scan(h: tuple[float, ...], rng: np.random.Generator) -> int:
    """Scan positions from the front, stopping at the first rejection."""
    for t in range(1, len(h) + 1):
        if not rng.random() < h[t - 1]:
            return t - 1
    return len(h)


# ---------------------------------------------------------------------------
# Residual (resampling) distributions
# ---------------------------------------------------------------------------


class DegenerateResidual(ValueError):
    """A residual with no mass: on valid inputs, a numerical failure, as floats cannot see the target's excess."""


def _normalised(gaps: Iterable[float], degenerate: str, *where) -> Dist:
    """The law proportional to ``max(gap, 0)``; ``degenerate % where`` is the error when it has no mass."""
    num = [max(g, 0.0) for g in gaps]
    den = math.fsum(num)
    if den <= 0.0:
        raise DegenerateResidual(degenerate % where)
    return tuple(n / den for n in num)


def tokenwise_residual(p_dist: Dist, q_dist: Dist) -> Dist:
    """Normalised target-minus-draft excess over one branch's conditionals."""
    gaps = [pi - qi for pi, qi in zip(p_dist, q_dist)]
    return _normalised(gaps, "degenerate residual: target nowhere exceeds draft on this branch")


def naive_branch_residual(p_model: TableArModel, q_model: TableArModel, context: Sequence) -> Dist:
    """Branch resampling distribution from exact joints, valid off the drafted path."""
    gaps = branch_gaps(p_model, q_model, context)
    return _normalised(gaps, "degenerate branch residual at context %s", context)


def capped_branch_residual(trace: DraftTrace, t: int) -> Dist:
    """Single-step resampling distribution over the branch of the first ``t`` tokens."""
    gaps = capped_branch_masses(trace, t)
    return _normalised(gaps, "degenerate capped residual at a reached resample point (t=%d)", t)


# ---------------------------------------------------------------------------
# Acceptance chains
# ---------------------------------------------------------------------------


def tokenwise_chain(trace: DraftTrace) -> tuple[float, ...]:
    """Per-position conditional-ratio acceptance, clamped to 1."""
    return tuple(min(cr, 1.0) for cr in ratio_chain(trace).cond_r)


def _branch_ratios(trace: DraftTrace, caps: tuple[int, ...], warn: bool) -> list[float]:
    """Unclamped ratios ``d_pq / d_qp`` (1 where ``d_qp == 0``) of branches t = 1 .. gamma - 1, capped at ``caps[t]``.

    Both sums filter the one gap list ``a - b``: ``fsum`` is correctly rounded (numpy's sum is not), so zeros
    and order do not matter, and they equal, bit for bit, ``fsum(max(a - b, 0))`` and, as ``b - a == -(a - b)``,
    ``fsum(max(b - a, 0))``.  Inside a :func:`~specverify.models.run_memo` they come from the memo, stored on a miss.
    ``warn`` logs, once per build, a branch with excess 0 but deficit > 0: under the
    trace's own caps ``r_t <= r_{m_t}``, so only rounding gives that; uncapped, any ``r_t > 1`` can.
    """
    memo = _run.memo  # once per chain: outside a run this is all it costs
    cums = None if memo is None else joint_products(trace)
    p_dists, q_dists = trace.p_dists, trace.q_dists
    h = []
    for t in range(1, trace.gamma):
        key = None if cums is None else (p_dists[t], q_dists[t], *capped_scales(cums, t, caps[t]))
        sums = None if key is None else memo.get(key)
        if sums is None:
            gaps = capped_branch_masses(trace, t, caps[t])
            sums = math.fsum([g for g in gaps if g > 0.0]), math.fsum([-g for g in gaps if g < 0.0])
            if key is not None:
                remember(key, sums)
            if warn and sums[1] <= 0.0 < sums[0]:
                logger.warning("capped branch at position %d has excess 0 but deficit %g; accepting", t, sums[0])
        d_pq, d_qp = sums
        h.append(d_pq / d_qp if d_qp > 0.0 else 1.0)
    return h


def naive_hsd_chain(trace: DraftTrace) -> tuple[float, ...]:
    """Acceptance chain of the naive branch-resampling verifier: every branch capped at index 0."""
    ratios = _branch_ratios(trace, (0,) * trace.gamma, False)
    return tuple([min(v, 1.0) for v in ratios] + [min(ratio_chain(trace).r[-1], 1.0)])


def _capped_ratios(trace: DraftTrace) -> tuple[float, ...]:
    """The capped acceptance ratios before their clamp to 1."""
    chain = ratio_chain(trace)
    return (*_branch_ratios(trace, chain.m, True), chain.rstar[-1])


def capped_hsd_chain(trace: DraftTrace) -> tuple[float, ...]:
    """Acceptance chain of the capped branch-resampling verifier."""
    return tuple([min(v, 1.0) for v in _capped_ratios(trace)])


def blockwise_acceptance_chain(trace: DraftTrace) -> tuple[float, ...]:
    """Acceptance chain of blockwise verification.

    Tracks the running clamp ``p_t = min(p_{t-1} * cond_r[t], 1)``; the final
    position accepts with ``p_gamma`` itself.  The tests check the clamp
    against its suffix-minimum closed form.
    """
    cond_r, p_dists, q_dists = ratio_chain(trace).cond_r, trace.p_dists, trace.q_dists
    gamma = len(cond_r)
    clamp = [1.0]
    for cr in cond_r:
        clamp.append(min(clamp[-1] * cr, 1.0))
    h = []
    for t in range(1, gamma):
        pt = clamp[t]
        num = math.fsum([g for px, qx in zip(p_dists[t], q_dists[t]) if (g := pt * px - qx) > 0.0])
        den = num + (1.0 - pt)
        h.append(1.0 if den <= 0.0 else num / den)
    return (*h, clamp[gamma])


def expected_accept_length(h: tuple[float, ...], mode: str) -> float:
    """Expected accepted prefix length implied by an acceptance chain.

    ``token`` mode sums running products (front scan with stopping);
    ``backward`` mode sums tail survival probabilities (backward scan).
    """
    if mode == "token":
        terms = []
        prod = 1.0
        for v in h:
            prod *= v
            terms.append(prod)
        return math.fsum(terms)
    if mode == "backward":
        terms = []
        tail = 1.0
        for v in reversed(h):
            tail *= 1.0 - v
            terms.append(1.0 - tail)
        return math.fsum(terms)
    raise ValueError(f"unknown mode {mode!r}")


# ---------------------------------------------------------------------------
# Single-draft verifiers
# ---------------------------------------------------------------------------


Plan = tuple[tuple[float, ...], Callable[[int], Dist] | None]


def _tokenwise_plan(trace: DraftTrace) -> Plan:
    return tokenwise_chain(trace), lambda tau: tokenwise_residual(trace.p_dists[tau], trace.q_dists[tau])


def _naive_hsd_plan(trace: DraftTrace) -> Plan:
    return naive_hsd_chain(trace), None


def _capped_hsd_plan(trace: DraftTrace) -> Plan:
    return capped_hsd_chain(trace), lambda tau: capped_branch_residual(trace, tau)


# verifier -> (plan, scan direction).  A plan maps a trace to ``(h, residual)``:
# the acceptance chain, and ``residual(tau)``, the law of the token drawn
# after a rejection at ``tau``.  ``residual`` is None for naive-hsd, which
# refills positions ``tau + 1 .. gamma`` one at a time from
# ``naive_branch_residual``.  For t < gamma, ``h[t - 1]`` and ``residual(t)``
# depend only on the model pair, the trace's prefix and ``x_{1:t}``: every
# draft that shares those gets them bit for bit, and the exact oracle keeps
# each residual by drafted prefix on that ground.  Plans, residuals and scans
# are called by their module-level names, so whatever rebinds those names is
# seen by every caller.  Inside a run memo (models.run_memo) a Monte Carlo run
# builds each distinct trace's plan once, so a rebinding is seen from the next
# run on.
SINGLE_DRAFT = {
    "tokenwise": (_tokenwise_plan, "forward"),
    "naive-hsd": (_naive_hsd_plan, "backward"),
    "capped-hsd": (_capped_hsd_plan, "backward"),
}
SCANS = {"forward": forward_scan, "backward": backward_scan}


def _planned(plan: Callable[[DraftTrace], Plan], trace: DraftTrace) -> Plan:
    """``plan(trace)``, from this thread's open run memo if there is one, with each residual built once per ``tau``."""
    memo = _run.memo
    if memo is None:
        return plan(trace)
    key = (plan, trace)  # the whole trace: a multi-draft sub-trace can share its tokens and differ in p_dists[0]
    found = memo.get(key)
    if found is None:
        h, residual = plan(trace)
        found = remember(key, (h, None if residual is None else cache(residual)))
    return found


def _verify(
    verifier: str,
    traces: list[DraftTrace],
    rng: np.random.Generator,
    p_model: TableArModel | None = None,
    q_model: TableArModel | None = None,
    transform: Callable[[tuple[float, ...]], tuple[float, ...]] | None = None,
) -> VerifyOutcome:
    """Recursive rejection sampling over ``traces`` by the :data:`SINGLE_DRAFT` entry of ``verifier``.

    Drafts are tried in order; one that extends the accepted prefix has its
    suffix scanned against the target left by the residuals of the drafts
    that failed before it, and the last residual is the fallback draw.  One
    draft is the single-draft verifier.  ``transform`` maps each chain before
    its scan (the mutation tests' hook); a plan with no single-step residual
    (naive-hsd) refills to the end of the block from both models.
    """
    if not traces:
        raise ValueError("need at least one draft trace")
    prefix, gamma = traces[0].prefix, traces[0].gamma
    for tr in traces[1:]:
        if tr.prefix != prefix:
            raise ValueError("draft traces do not share a prefix")
        if tr.gamma != gamma:
            raise ValueError("draft traces differ in length")
    if gamma == 0:
        raise ValueError("empty drafts cannot be verified")
    plan, scan = SINGLE_DRAFT[verifier]
    accepted, tau, override = (), 0, None
    for tr in traces:
        if tau and tr.tokens[:tau] != accepted:
            continue  # prefix mismatch, skip this draft
        sub = tr
        if override is not None:  # set by every failed extension, so whenever tau > 0
            p_dists = (override, *tr.p_dists[tau + 1 :])
            sub = DraftTrace(prefix + accepted, tr.tokens[tau:], tr.q_dists[tau:], p_dists, tr.bonus_dist)
        h, residual = _planned(plan, sub)
        t_local = SCANS[scan](h if transform is None else transform(h), rng)
        if t_local:
            tau += t_local
            accepted = tr.tokens[:tau]
        if tau == gamma:
            if tr.bonus_dist is None:
                raise ValueError("full draft accepted but the trace has no bonus distribution")
            return VerifyOutcome(tau, accepted + (index_from_uniform(tr.bonus_dist, rng.random()),))
        if residual is None:  # no single-step residual: refill every position to the end of the block
            emitted = list(accepted)
            for t in range(tau, gamma):
                dist = naive_branch_residual(p_model, q_model, prefix + tuple(emitted))
                emitted.append(index_from_uniform(dist, rng.random()))
            return VerifyOutcome(tau, tuple(emitted))
        override = residual(t_local)
    return VerifyOutcome(tau, accepted + (index_from_uniform(override, rng.random()),))


def tokenwise_verify(trace: DraftTrace, rng: np.random.Generator) -> VerifyOutcome:
    """Front-to-back accept/resample verification of one drafted block."""
    return _verify("tokenwise", [trace], rng)


def naive_hsd_verify(
    trace: DraftTrace,
    p_model: TableArModel,
    q_model: TableArModel,
    rng: np.random.Generator,
) -> VerifyOutcome:
    """Backward-scan branch verification with sequential branch resampling.

    On any rejection this resamples every position from the accepted prefix
    through the end of the block, querying both models at prefixes off the
    drafted path; the output is then the full block length with no bonus
    token.  Only a fully accepted draft earns the bonus, so emitted length is
    gamma + 1 exactly when tau == gamma and gamma otherwise.
    """
    return _verify("naive-hsd", [trace], rng, p_model, q_model)


def capped_hsd_verify(trace: DraftTrace, rng: np.random.Generator) -> VerifyOutcome:
    """Backward-scan branch verification with one capped resampling step.

    Needs nothing beyond the trace: acceptance probabilities and the single
    residual draw all live on branches reachable from the drafted path.
    Emits the accepted prefix plus exactly one token (resampled or bonus).
    """
    return _verify("capped-hsd", [trace], rng)


# ---------------------------------------------------------------------------
# Multi-draft verifiers
# ---------------------------------------------------------------------------


# multi-draft verifier -> the single-draft verifier whose plan each of its drafts is scanned by
MULTI_DRAFT = {"multidraft-tokenwise": "tokenwise", "multidraft-hsd": "capped-hsd"}


def multidraft_hsd_verify(traces: list[DraftTrace], rng: np.random.Generator) -> VerifyOutcome:
    """Capped branch verification over several independent drafts, each scanned backward by the capped rule."""
    return _verify(MULTI_DRAFT["multidraft-hsd"], traces, rng)


def multidraft_tokenwise_verify(traces: list[DraftTrace], rng: np.random.Generator) -> VerifyOutcome:
    """Per-position recursive rejection sampling with replacement over drafts.

    A rejected token keeps no residual mass, so no draft tried before the one
    accepted at a position can extend it: scanning each draft forward to its
    first rejection makes the same draws as trying the drafts position by position.
    """
    return _verify(MULTI_DRAFT["multidraft-tokenwise"], traces, rng)
