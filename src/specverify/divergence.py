"""Divergence and prefix-ratio machinery for draft verification.

Everything here is pure arithmetic over exact model probabilities: deficient
and excess mass between target and draft (per token, per branch, and per
branch with the maximal prefix ratio capped), plus the per-position ratio
chain that drives the verifiers.  Branch sums use ``math.fsum`` throughout,
so accumulation order never affects results.

Everything here that reads a trace is a function of the trace alone.
:func:`ratio_chain` and :func:`joint_products` each keep their last result,
so a repeat call with the very same trace object is free and returns the
same immutable value: exact, as a ``DraftTrace`` is immutable.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Iterable, NamedTuple

from .models import Dist, DraftTrace, Sequence, TableArModel

_last_chain: list[tuple] = [(None, None)]  # (trace, chain) of the last ratio_chain build
_last_cums: list[tuple] = [(None, None)]  # (trace, (p_cum, q_cum)) of the last joint_products build


def generalized_divergence(p: Dist, q: Dist, subset: Iterable[int]) -> float:
    """Deficient mass of ``q`` relative to ``p`` over a subset of outcomes.

    On the full outcome space this is symmetric in its arguments and equals
    half the L1 distance; on proper subsets it is genuinely directional.
    """
    if len(p) != len(q):
        raise ValueError(f"distribution lengths differ: {len(p)} vs {len(q)}")
    terms = []
    for w in subset:
        if not 0 <= w < len(p):
            raise ValueError(f"outcome {w} out of range [0, {len(p)})")
        terms.append(max(p[w] - q[w], 0.0))
    return math.fsum(terms)


class BranchDivergences(NamedTuple):
    """Deficient/excess joint mass over the one-token extensions of a prefix."""

    d_pq: float
    d_qp: float

    @property
    def asymmetry(self) -> float:
        return self.d_pq - self.d_qp


def _branch_sums(gaps: list[float]) -> BranchDivergences:
    """Deficit and excess of a branch's gap list ``a - b``.

    Both sums filter the one list: ``fsum`` is correctly rounded (numpy's sum
    is not), so zeros and order do not matter, and they equal, bit for bit,
    ``fsum(max(a - b, 0))`` and, as ``b - a == -(a - b)``, ``fsum(max(b - a, 0))``.
    """
    return BranchDivergences(math.fsum([g for g in gaps if g > 0.0]), math.fsum([-g for g in gaps if g < 0.0]))


def branch_gaps(p_model: TableArModel, q_model: TableArModel, prefix: Sequence) -> list[float]:
    """Target-minus-draft joint mass ``p(prefix, x) - q(prefix, x)`` of each one-token extension."""
    pj, qj = p_model.joint(prefix), q_model.joint(prefix)
    return [pj * pc - qj * qc for pc, qc in zip(p_model.conditional(prefix), q_model.conditional(prefix))]


def branch_divergences(p_model: TableArModel, q_model: TableArModel, prefix: Sequence) -> BranchDivergences:
    """Branch divergences at ``prefix``, from exact joint probabilities.

    The asymmetry of the result equals p(prefix) - q(prefix): excess and
    deficient mass over a branch can only differ by the gap already present
    at its root.
    """
    prefix = tuple(prefix)
    if len(prefix) >= min(p_model.max_depth, q_model.max_depth):
        raise ValueError(f"prefix of length {len(prefix)} leaves no room for extensions")
    return _branch_sums(branch_gaps(p_model, q_model, prefix))


def hierarchy_check(p_model: TableArModel, q_model: TableArModel, prefix: Sequence) -> tuple[float, float]:
    """Positive child asymmetries summed against the parent's deficient mass.

    Returns ``(lhs, rhs)`` where lhs aggregates the positive asymmetry over
    every child branch of ``prefix`` and rhs is the parent branch's deficient
    mass; the two are equal.  Swapping the model arguments checks the mirror
    identity for excess mass.
    """
    prefix = tuple(prefix)
    if len(prefix) + 2 > min(p_model.max_depth, q_model.max_depth):
        raise ValueError(f"prefix of length {len(prefix)} leaves no room for child branches")
    positives = []
    for x in range(p_model.vocab_size):
        child = branch_divergences(p_model, q_model, prefix + (x,))
        if child.asymmetry > 0.0:
            positives.append(child.asymmetry)
    lhs = math.fsum(positives)
    rhs = branch_divergences(p_model, q_model, prefix).d_pq
    return lhs, rhs


@dataclass(frozen=True)
class RatioChain:
    """Per-position ratio data along a drafted block, all 0-indexed by position.

    ``cond_r[t]`` is the target/draft conditional ratio of the drafted token
    at position ``t + 1``; ``r[t]`` the cumulative joint ratio; ``m[t]`` the
    1-based index of the maximal strict-prefix ratio exceeding 1 (0 when none
    does); ``rstar[t]`` the joint ratio with that maximal prefix factor capped
    at 1, and ``clamped_rstar[t] = min(rstar[t], 1)``.
    """

    cond_r: tuple[float, ...]
    r: tuple[float, ...]
    m: tuple[int, ...]
    rstar: tuple[float, ...]
    clamped_rstar: tuple[float, ...]

    @property
    def gamma(self) -> int:
        return len(self.r)


def ratio_chain_from_conditionals(p_cond: Iterable[float], q_cond: Iterable[float]) -> RatioChain:
    """Build the ratio chain from the drafted tokens' conditional probabilities.

    A zero draft probability anywhere on the path is an error (such a block
    cannot have been drafted); a zero target probability sends the joint
    ratio to 0, where it stays.  Ties in the maximal prefix ratio resolve to
    the latest position.
    """
    p_cond, q_cond = list(p_cond), list(q_cond)
    if len(p_cond) != len(q_cond):
        raise ValueError(f"conditional lists differ in length: {len(p_cond)} vs {len(q_cond)}")
    if not p_cond:
        raise ValueError("empty draft has no ratio chain")
    cond_r, r, m, rstar, clamped = [], [], [], [], []
    r_prev = 1.0
    best_val, best_idx = 1.0, 0  # running maximum of r over earlier positions, where it exceeds 1
    for t in range(1, len(p_cond) + 1):
        pc, qc = p_cond[t - 1], q_cond[t - 1]
        if qc <= 0.0:
            raise ValueError(f"zero draft probability at position {t} along the drafted path")
        cr = pc / qc
        r_t = r_prev * cr
        m_t = best_idx
        rs = r_t / (best_val if best_idx > 0 else 1.0)
        cond_r.append(cr)
        r.append(r_t)
        m.append(m_t)
        rstar.append(rs)
        clamped.append(min(rs, 1.0))
        if r_t > 1.0 and r_t >= best_val:
            best_val, best_idx = r_t, t
        r_prev = r_t
    return RatioChain(tuple(cond_r), tuple(r), tuple(m), tuple(rstar), tuple(clamped))


def ratio_chain(trace: DraftTrace) -> RatioChain:
    """Ratio chain of a trace's drafted tokens (memoised on the last trace)."""
    last = _last_chain[0]  # one read, so a concurrent store cannot mix two entries
    if last[0] is trace:
        return last[1]
    p_cond = [trace.p_dists[t][tok] for t, tok in enumerate(trace.tokens)]
    q_cond = [trace.q_dists[t][tok] for t, tok in enumerate(trace.tokens)]
    chain = ratio_chain_from_conditionals(p_cond, q_cond)
    _last_chain[0] = (trace, chain)
    return chain


def joint_products(trace: DraftTrace) -> tuple[tuple[float, ...], tuple[float, ...]]:
    """Cumulative target/draft joints along the drafted block (memoised on the last trace).

    Returns ``(p_cum, q_cum)`` with ``p_cum[t]`` the target joint of the
    first ``t`` drafted tokens given the trace prefix (``p_cum[0] == 1``).
    """
    last = _last_cums[0]
    if last[0] is trace:
        return last[1]
    p_cum, q_cum = [1.0], [1.0]
    for t, tok in enumerate(trace.tokens):
        p_cum.append(p_cum[-1] * trace.p_dists[t][tok])
        q_cum.append(q_cum[-1] * trace.q_dists[t][tok])
    cums = (tuple(p_cum), tuple(q_cum))
    _last_cums[0] = (trace, cums)
    return cums


def capped_branch_masses(trace: DraftTrace, t: int, mb: int | None = None) -> list[float]:
    """Capped hybrid mass minus draft mass, the gap list, over the extensions of the first ``t`` tokens.

    Extension x at position ``t + 1`` has its prefix ratio capped at the shared
    index ``mb`` (default: the trace's maximal-prefix index ``m[t]``), so its
    mass ``q(X_{1:mb}) * p(X_{mb+1:t}) * p(x | X_{1:t})`` stays finite where the
    draft joint ``q(X_{1:t}) * q(x | X_{1:t})`` is 0.  At ``mb = 0`` the hybrid
    factor is ``1.0 * (p(X_{1:t}) / 1.0)``: naive-hsd's uncapped branch, exactly.
    """
    if not 0 <= t < trace.gamma:
        raise ValueError(f"branch position {t} outside [0, {trace.gamma})")
    if mb is None:
        mb = ratio_chain(trace).m[t]
    hybrid, base_q = capped_scales(joint_products(trace), t, mb)
    return [hybrid * px - base_q * qx for px, qx in zip(trace.p_dists[t], trace.q_dists[t])]


def capped_scales(cums: tuple[tuple[float, ...], tuple[float, ...]], t: int, mb: int) -> tuple[float, float]:
    """The hybrid and draft joints that scale branch ``t``'s conditionals in its gap list, capped at ``mb``.

    ``cums`` is :func:`joint_products` of the trace.
    """
    p_cum, q_cum = cums
    return q_cum[mb] * (p_cum[t] / p_cum[mb]), q_cum[t]


def capped_branch_divergences(trace: DraftTrace, t: int, mb: int | None = None) -> BranchDivergences:
    """Branch divergences of the first ``t`` drafted tokens, capped at ``mb``: from the trace alone."""
    return _branch_sums(capped_branch_masses(trace, t, mb))


def unique_capping_indices(chain: RatioChain) -> tuple[int, ...]:
    """Ordered distinct positive maximal-prefix indices of a chain.

    These are the record positions where the running joint ratio sets a new
    maximum above 1; resampling mass concentrates exactly there.
    """
    return tuple(sorted({idx for idx in chain.m if idx > 0}))
