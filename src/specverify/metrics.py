"""Aggregate efficiency metrics for comparing verifiers.

Reports analytic expected accepted-prefix lengths (no Monte Carlo noise in
method comparisons) and whole-draft acceptance probabilities, averaged over
seeded draft samples.  A sampled-length mode exists to validate the analytic
formulas against actual scans.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .divergence import ratio_chain
from .models import DraftTrace, ModelPairSpec, TableArModel, sample_draft
from .verify import (
    backward_scan,
    blockwise_acceptance_chain,
    capped_hsd_chain,
    expected_accept_length,
    forward_scan,
    tokenwise_chain,
)

# verifier id -> (chain builder, expected-length mode, scan)
METHODS = {
    "tokenwise": (tokenwise_chain, "token", forward_scan),
    "blockwise": (blockwise_acceptance_chain, "backward", backward_scan),
    "hsd": (capped_hsd_chain, "backward", backward_scan),
}


@dataclass(frozen=True)
class BenchResult:
    method: str
    mean_expected_tau: float
    mean_whole_draft_accept: float
    trials: int
    gamma: int
    model_spec: ModelPairSpec | None = None

    @property
    def mean_block_efficiency(self) -> float:
        """Accepted tokens plus the one token every verification step emits."""
        return self.mean_expected_tau + 1.0


def method_expected_tau(method: str, trace: DraftTrace) -> float:
    """Analytic expected accepted length of one method on one trace."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {sorted(METHODS)}")
    builder, mode, _ = METHODS[method]
    return expected_accept_length(builder(trace), mode)


def sampled_tau(method: str, trace: DraftTrace, rng: np.random.Generator) -> int:
    """One stochastic scan of the method; validates the analytic formulas."""
    if method not in METHODS:
        raise ValueError(f"unknown method {method!r}; expected one of {sorted(METHODS)}")
    builder, _, scan = METHODS[method]
    tau, _ = scan(builder(trace).h, rng)
    return tau


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


def bench_expected_tau(
    method: str,
    p_model: TableArModel,
    q_model: TableArModel,
    gamma: int,
    n_drafts: int,
    rng: np.random.Generator,
    model_spec: ModelPairSpec | None = None,
) -> BenchResult:
    """Average analytic expected tau and whole-draft acceptance over drafts."""
    if n_drafts < 1:
        raise ValueError(f"n_drafts must be >= 1, got {n_drafts}")
    whole_key = {"tokenwise": "token", "blockwise": "block", "hsd": "ours"}[method] if method in METHODS else None
    if whole_key is None:
        raise ValueError(f"unknown method {method!r}; expected one of {sorted(METHODS)}")
    taus, wholes = [], []
    for _ in range(n_drafts):
        trace = sample_draft(q_model, p_model, (), gamma, rng)
        taus.append(method_expected_tau(method, trace))
        wholes.append(whole_draft_acceptance(trace)[whole_key])
    return BenchResult(
        method=method,
        mean_expected_tau=math.fsum(taus) / n_drafts,
        mean_whole_draft_accept=math.fsum(wholes) / n_drafts,
        trials=n_drafts,
        gamma=gamma,
        model_spec=model_spec,
    )
