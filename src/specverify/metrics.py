"""Efficiency metrics for comparing verifiers on one drafted trace.

Reports analytic expected accepted-prefix lengths (no Monte Carlo noise in
method comparisons) and whole-draft acceptance probabilities.  Averaging
over seeded drafts is left to the caller: the ``bench`` command and the
acceptance tests.
"""

from __future__ import annotations

from .divergence import ratio_chain
from .models import DraftTrace
from .verify import blockwise_acceptance_chain, capped_hsd_chain, expected_accept_length, tokenwise_chain

# verifier id -> (chain builder, expected-length mode)
METHODS = {
    "tokenwise": (tokenwise_chain, "token"),
    "blockwise": (blockwise_acceptance_chain, "backward"),
    "hsd": (capped_hsd_chain, "backward"),
}


def method_expected_tau(method: str, trace: DraftTrace) -> float:
    """Analytic expected accepted length of one method on one trace."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {sorted(METHODS)}")
    builder, mode = METHODS[method]
    return expected_accept_length(builder(trace), mode)


def whole_draft_acceptance(trace: DraftTrace) -> dict[str, float]:
    """Probability of accepting the entire draft, under four rules.

    ``ideal`` clamps the full joint ratio; ``token`` multiplies per-position
    clamped ratios; ``block`` takes the minimum over suffix joint ratios;
    ``ours`` clamps the ratio with its maximal prefix factor capped.  On any
    trace ideal >= ours >= block >= token.
    """
    chain = ratio_chain(trace)
    token = 1.0
    for cr in chain.cond_r:
        token *= min(cr, 1.0)
    block = 1.0
    for cr in chain.cond_r:
        block = min(block * cr, 1.0)
    return {
        "ideal": min(chain.r[-1], 1.0),
        "token": token,
        "block": block,
        "ours": chain.clamped_rstar[-1],
    }

