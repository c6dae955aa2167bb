"""Divergence and prefix-ratio machinery for draft verification.

Everything here is pure arithmetic over exact model probabilities: the
target-minus-draft gap list of a branch (uncapped, from the models, or with
the maximal prefix ratio capped, from the trace), plus the per-position ratio
chain that drives the verifiers.  The verifiers sum the gap lists.

Everything here that reads a trace is a function of the trace alone.
:func:`ratio_chain` and :func:`joint_products` each keep their last result,
so a repeat call with the very same trace object is free and returns the
same immutable value: exact, as a ``DraftTrace`` is immutable.
"""

from __future__ import annotations

from typing import Iterable, NamedTuple

from .models import DraftTrace, Sequence, TableArModel

_last_chain: list[tuple] = [(None, None)]  # (trace, chain) of the last ratio_chain build
_last_cums: list[tuple] = [(None, None)]  # (trace, (p_cum, q_cum)) of the last joint_products build


def branch_gaps(p_model: TableArModel, q_model: TableArModel, prefix: Sequence) -> list[float]:
    """Target-minus-draft joint mass ``p(prefix, x) - q(prefix, x)`` of each one-token extension."""
    pj, qj = p_model.joint(prefix), q_model.joint(prefix)
    return [pj * pc - qj * qc for pc, qc in zip(p_model.conditional(prefix), q_model.conditional(prefix))]


class RatioChain(NamedTuple):
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
    p_cond = [dist[tok] for dist, tok in zip(trace.p_dists, trace.tokens)]
    q_cond = [dist[tok] for dist, tok in zip(trace.q_dists, trace.tokens)]
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
    for tok, p_dist, q_dist in zip(trace.tokens, trace.p_dists, trace.q_dists):
        p_cum.append(p_cum[-1] * p_dist[tok])
        q_cum.append(q_cum[-1] * q_dist[tok])
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
