"""Verification-algorithm laboratory for speculative decoding at desk scale.

Table-based autoregressive models expose exact conditionals, so the accept,
reject, and resample behaviour of every verifier can be checked against the
target distribution by exhaustive enumeration or Monte Carlo.
"""

from .divergence import (
    BranchDivergences,
    RatioChain,
    branch_divergences,
    capped_branch_divergences,
    generalized_divergence,
    hierarchy_check,
    ratio_chain,
    ratio_chain_from_conditionals,
    unique_capping_indices,
)
from .metrics import method_expected_tau, whole_draft_acceptance
from .models import (
    Dist,
    DraftTrace,
    ModelPairSpec,
    Sequence,
    TableArModel,
    generate_model_pair,
    sample_draft,
    substream,
    trace_for,
)
from .oracle import (
    FitReport,
    YieldDistribution,
    enumerate_yield,
    monte_carlo_fit,
    target_joint_distribution,
    total_variation,
)
from .verify import (
    Event,
    VerifyOutcome,
    blockwise_acceptance_chain,
    capped_hsd_chain,
    capped_hsd_verify,
    expected_accept_length,
    multidraft_hsd_verify,
    multidraft_tokenwise_verify,
    naive_hsd_chain,
    naive_hsd_verify,
    tokenwise_chain,
    tokenwise_verify,
)

__version__ = "0.1.0"

__all__ = [
    "BranchDivergences",
    "Dist",
    "DraftTrace",
    "Event",
    "FitReport",
    "ModelPairSpec",
    "RatioChain",
    "Sequence",
    "TableArModel",
    "VerifyOutcome",
    "YieldDistribution",
    "blockwise_acceptance_chain",
    "branch_divergences",
    "capped_branch_divergences",
    "capped_hsd_chain",
    "capped_hsd_verify",
    "enumerate_yield",
    "expected_accept_length",
    "generalized_divergence",
    "generate_model_pair",
    "hierarchy_check",
    "method_expected_tau",
    "monte_carlo_fit",
    "multidraft_hsd_verify",
    "multidraft_tokenwise_verify",
    "naive_hsd_chain",
    "naive_hsd_verify",
    "ratio_chain",
    "ratio_chain_from_conditionals",
    "sample_draft",
    "substream",
    "target_joint_distribution",
    "tokenwise_chain",
    "tokenwise_verify",
    "total_variation",
    "trace_for",
    "unique_capping_indices",
    "whole_draft_acceptance",
]
