"""Draft verification strategies over table models.

Each single-draft verifier is defined once, as an entry of the
:data:`SINGLE_DRAFT` table: tokenwise accept/resample, branch resampling in
its naive form (whose refill queries the models off the drafted path), and
branch resampling with the maximal prefix ratio capped (which needs nothing
beyond the trace).  The samplers here and the exact enumeration and mutation
tests of :mod:`specverify.oracle` all read that table.  Both branch chains
run one loop: naive-hsd is capped-hsd with every cap index 0.  Blockwise
acceptance is kept to chain depth, as the independent reference for
capped-hsd.  Two multi-draft variants layer recursive rejection sampling
with replacement on top of the tokenwise and capped verifiers.

Every verifier consumes one uniform per decision, drawn in scan order, so a
trajectory can be replayed from its event log.  Branch and block sums
``fsum`` filtered gap lists: bit for bit the sums of ``max(gap, 0)``, for the
reason :func:`specverify.divergence._branch_sums` gives.
"""

from __future__ import annotations

import json
import logging
import math
from collections.abc import Callable, Iterable, Iterator
from contextlib import contextmanager
from dataclasses import dataclass
from functools import cache

import numpy as np

from .divergence import branch_gaps, capped_branch_masses, ratio_chain
from .models import Dist, DraftTrace, Sequence, TableArModel, index_from_uniform

logger = logging.getLogger(__name__)


@dataclass(frozen=True, slots=True)
class Event:
    """One verification decision: which position, what happened, at what odds."""

    position: int
    kind: str  # accept | reject | resample | bonus
    prob: float | None = None
    u: float | None = None


def events_to_jsonl(trial: int, events: tuple[Event, ...]) -> str:
    """Render an event log as JSON lines for offline debugging."""
    lines = [
        json.dumps({"trial": trial, "position": e.position, "kind": e.kind, "h": e.prob, "u": e.u})
        for e in events
    ]
    return "\n".join(lines)


@dataclass(frozen=True, slots=True)
class VerifyOutcome:
    """Accepted prefix length, emitted tokens, and the decision log."""

    tau: int
    emitted: Sequence
    events: tuple[Event, ...]


def _draw(dist: Dist, rng: np.random.Generator) -> tuple[int, float]:
    u = rng.random()
    return index_from_uniform(dist, u), u


def _resample(dist: Dist, position: int, rng: np.random.Generator, events: list[Event]) -> int:
    tok, u = _draw(dist, rng)
    events.append(Event(position, "resample", dist[tok], u))
    return tok


def _emit_bonus(bonus: Dist | None, position: int, rng: np.random.Generator, events: list[Event]) -> int:
    if bonus is None:
        raise ValueError("full draft accepted but the trace has no bonus distribution")
    tok, u = _draw(bonus, rng)
    events.append(Event(position, "bonus", bonus[tok], u))
    return tok


def backward_scan(h: tuple[float, ...], rng: np.random.Generator) -> tuple[int, list[Event]]:
    """Scan positions from the end, accepting the longest surviving prefix."""
    events: list[Event] = []
    for t in range(len(h), 0, -1):
        u = rng.random()
        if u < h[t - 1]:
            events.append(Event(t, "accept", h[t - 1], u))
            return t, events
        events.append(Event(t, "reject", h[t - 1], u))
    return 0, events


def forward_scan(h: tuple[float, ...], rng: np.random.Generator) -> tuple[int, list[Event]]:
    """Scan positions from the front, stopping at the first rejection."""
    events: list[Event] = []
    for t in range(1, len(h) + 1):
        u = rng.random()
        if u < h[t - 1]:
            events.append(Event(t, "accept", h[t - 1], u))
            continue
        events.append(Event(t, "reject", h[t - 1], u))
        return t - 1, events
    return len(h), events


# ---------------------------------------------------------------------------
# Residual (resampling) distributions
# ---------------------------------------------------------------------------


def _normalised(gaps: Iterable[float], degenerate: str, *where) -> Dist:
    """The law proportional to ``max(gap, 0)``; ``degenerate % where`` is the error when it has no mass."""
    num = [max(g, 0.0) for g in gaps]
    den = math.fsum(num)
    if den <= 0.0:
        raise ValueError(degenerate % where)
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

    The sums are those of ``capped_branch_divergences``, inline because every chain runs this loop.
    ``warn`` logs a branch with excess 0 but deficit > 0: under the trace's own caps
    ``r_t <= r_{m_t}``, so only rounding gives that; uncapped, any ``r_t > 1`` can.
    """
    h = []
    for t in range(1, trace.gamma):
        gaps = capped_branch_masses(trace, t, caps[t])
        d_pq, d_qp = math.fsum([g for g in gaps if g > 0.0]), math.fsum([-g for g in gaps if g < 0.0])
        if warn and d_qp <= 0.0 < d_pq:
            logger.warning("capped branch at position %d has excess 0 but deficit %g; accepting", t, d_pq)
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

    Tracks the running clamp ``p_t = min(p_{t-1} * cond_r[t], 1)`` and checks
    it against its suffix-minimum closed form before using it; the final
    position accepts with ``p_gamma`` itself.
    """
    chain = ratio_chain(trace)
    gamma = trace.gamma
    clamp = [1.0]
    for cr in chain.cond_r:
        clamp.append(min(clamp[-1] * cr, 1.0))
    # best[t] = min(1, min over s < t of cond_r[s] * ... * cond_r[t - 1]), each
    # product built left to right from s and the minimum taken in order of s
    best = [1.0] * (gamma + 1)
    for s in range(gamma):
        prod = 1.0
        for t in range(s + 1, gamma + 1):
            prod = prod * chain.cond_r[t - 1]
            best[t] = min(best[t], prod)
    for t in range(gamma + 1):
        if abs(clamp[t] - best[t]) > 1e-12:
            raise AssertionError(f"clamp recursion {clamp[t]!r} disagrees with suffix minimum {best[t]!r} at {t}")
    h = []
    for t in range(1, gamma + 1):
        if t == gamma:
            h.append(clamp[gamma])
            break
        pt = clamp[t]
        num = math.fsum([g for px, qx in zip(trace.p_dists[t], trace.q_dists[t]) if (g := pt * px - qx) > 0.0])
        den = num + (1.0 - pt)
        h.append(1.0 if den <= 0.0 else num / den)
    return tuple(h)


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
# ``naive_branch_residual``.  Plans, residuals and scans are called by their
# module-level names, so whatever rebinds those names is seen by every caller.
# A Monte Carlo run keeps one bounded plan table (plan_table) and builds each
# distinct trace's plan once in it, so a rebinding is seen from the next run on.
SINGLE_DRAFT = {
    "tokenwise": (_tokenwise_plan, "forward"),
    "naive-hsd": (_naive_hsd_plan, "backward"),
    "capped-hsd": (_capped_hsd_plan, "backward"),
}
SCANS = {"forward": forward_scan, "backward": backward_scan}

PLAN_TABLE_CAP = 4_096  # plans one run's table stores; past it, a plan is built and not stored
# the open run's table, (plan, trace) -> plan; a holder, not a parameter, so the verifiers keep their signatures
_plans: dict | None = None


@contextmanager
def plan_table() -> Iterator[None]:
    """Keep one bounded plan table for the enclosed run, dropped on exit, also on an exception.

    Inside, the verifiers build each distinct trace's plan once, and each of
    its residuals once per ``tau``.  A plan is a pure function of the trace,
    which hashes by value, and building one draws no random numbers, so
    sampled outcomes are bit-identical with or without the table.
    """
    global _plans
    outer, _plans = _plans, {}
    try:
        yield
    finally:
        _plans = outer


def _planned(plan: Callable[[DraftTrace], Plan], trace: DraftTrace) -> Plan:
    """``plan(trace)``, from the open run's plan table if there is one."""
    table = _plans
    if table is None:
        return plan(trace)
    key = (plan, trace)  # the whole trace: a multidraft-hsd sub-trace can share its tokens and differ in p_dists[0]
    found = table.get(key)
    if found is None:
        found = plan(trace)
        if len(table) < PLAN_TABLE_CAP:
            h, residual = found
            found = table[key] = (h, None if residual is None else cache(residual))
    return found


def _single_draft_verify(
    verifier: str,
    trace: DraftTrace,
    rng: np.random.Generator,
    p_model: TableArModel | None = None,
    q_model: TableArModel | None = None,
    transform: Callable[[tuple[float, ...]], tuple[float, ...]] | None = None,
) -> VerifyOutcome:
    """Sample one verification of ``trace`` by the :data:`SINGLE_DRAFT` entry of ``verifier``.

    ``transform``, if given, maps the acceptance chain before the scan; the
    mutation tests use it to corrupt a verifier on purpose.  naive-hsd needs
    both models for its refill.
    """
    plan, scan = SINGLE_DRAFT[verifier]
    h, residual = _planned(plan, trace)
    if transform is not None:
        h = transform(h)
    tau, events = SCANS[scan](h, rng)
    emitted = list(trace.tokens[:tau])
    if tau == trace.gamma:
        emitted.append(_emit_bonus(trace.bonus_dist, trace.gamma + 1, rng, events))
    elif residual is not None:
        emitted.append(_resample(residual(tau), tau + 1, rng, events))
    else:  # no single-step residual: refill every position to the end of the block
        for t in range(tau, trace.gamma):
            dist = naive_branch_residual(p_model, q_model, trace.prefix + tuple(emitted))
            emitted.append(_resample(dist, t + 1, rng, events))
    return VerifyOutcome(tau, tuple(emitted), tuple(events))


def tokenwise_verify(trace: DraftTrace, rng: np.random.Generator) -> VerifyOutcome:
    """Front-to-back accept/resample verification of one drafted block."""
    return _single_draft_verify("tokenwise", trace, rng)


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
    return _single_draft_verify("naive-hsd", trace, rng, p_model, q_model)


def capped_hsd_verify(trace: DraftTrace, rng: np.random.Generator) -> VerifyOutcome:
    """Backward-scan branch verification with one capped resampling step.

    Needs nothing beyond the trace: acceptance probabilities and the single
    residual draw all live on branches reachable from the drafted path.
    Emits the accepted prefix plus exactly one token (resampled or bonus).
    """
    return _single_draft_verify("capped-hsd", trace, rng)


# ---------------------------------------------------------------------------
# Multi-draft verifiers
# ---------------------------------------------------------------------------


def _check_shared(traces: list[DraftTrace]) -> tuple[Sequence, int]:
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
    return prefix, gamma


def multidraft_hsd_verify(traces: list[DraftTrace], rng: np.random.Generator) -> VerifyOutcome:
    """Capped branch verification over several independent drafts.

    Drafts are tried in order.  One that does not extend the currently
    accepted prefix is skipped; otherwise its suffix is scanned backward with
    the capped acceptance rule.  After each failed extension the target
    conditional at the next position is replaced by the capped residual, so
    later drafts are verified against what is left of the target mass; the
    final fallback samples from that residual directly.
    """
    prefix, gamma = _check_shared(traces)
    accepted: tuple[int, ...] = ()
    tau = 0
    override: Dist | None = None
    events: list[Event] = []
    for tr in traces:
        if tr.tokens[: tau] != accepted:
            continue  # prefix mismatch, skip this draft
        if tau == 0 and override is None:
            sub = tr
        else:
            p_dists = list(tr.p_dists[tau:])
            if override is not None:
                p_dists[0] = override
            sub = DraftTrace(
                prefix + accepted,
                tr.tokens[tau:],
                tr.q_dists[tau:],
                tuple(p_dists),
                tr.bonus_dist,
            )
        h, residual = _planned(_capped_hsd_plan, sub)
        base = tau
        t_local, scan_events = backward_scan(h, rng)
        if base == 0:
            events.extend(scan_events)
        else:
            events.extend(Event(e.position + base, e.kind, e.prob, e.u) for e in scan_events)
        if t_local > 0:
            tau = base + t_local
            accepted = tr.tokens[:tau]
        if tau == gamma:
            emitted = list(accepted)
            emitted.append(_emit_bonus(tr.bonus_dist, gamma + 1, rng, events))
            return VerifyOutcome(tau, tuple(emitted), tuple(events))
        override = residual(t_local)
    tok = _resample(override, tau + 1, rng, events)
    return VerifyOutcome(tau, tuple(accepted) + (tok,), tuple(events))


def multidraft_tokenwise_verify(traces: list[DraftTrace], rng: np.random.Generator) -> VerifyOutcome:
    """Per-position recursive rejection sampling with replacement over drafts.

    At each position every draft that still extends the accepted prefix gets
    one tokenwise try against the running residual target; each rejection
    subtracts the draft conditional and renormalises.  When all tries fail
    the position is filled from the residual and verification stops.
    """
    _, gamma = _check_shared(traces)
    accepted: tuple[int, ...] = ()
    events: list[Event] = []
    last_match: DraftTrace | None = None
    for t in range(gamma):
        candidates = [tr for tr in traces if tr.tokens[:t] == accepted]
        p_cur: Dist = candidates[0].p_dists[t]
        accepted_tok: int | None = None
        for tr in candidates:
            x = tr.tokens[t]
            qd = tr.q_dists[t]
            if qd[x] <= 0.0:
                raise ValueError(f"draft token {x} at position {t + 1} has zero draft probability")
            h = min(1.0, p_cur[x] / qd[x])
            u = rng.random()
            if u < h:
                events.append(Event(t + 1, "accept", h, u))
                accepted_tok = x
                last_match = tr
                break
            events.append(Event(t + 1, "reject", h, u))
            p_cur = tokenwise_residual(p_cur, qd)
        if accepted_tok is None:
            tok = _resample(p_cur, t + 1, rng, events)
            return VerifyOutcome(t, accepted + (tok,), tuple(events))
        accepted = accepted + (accepted_tok,)
    emitted = list(accepted)
    emitted.append(_emit_bonus(last_match.bonus_dist, gamma + 1, rng, events))
    return VerifyOutcome(gamma, tuple(emitted), tuple(events))
