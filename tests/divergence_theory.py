"""The paper's branch-mass identities, as the tests state them.

Deficient and excess mass between target and draft, per token subset, per
branch from the models, and per branch of a trace with the maximal prefix
ratio capped; the hierarchy that balances a branch's mass against its
children's; and the capping indices the telescoping identity runs over.
The verifiers need none of them: :func:`specverify.verify._branch_ratios`
sums the same gap lists inline.
"""

import math
from typing import Iterable, NamedTuple

from specverify.divergence import RatioChain, branch_gaps, capped_branch_masses
from specverify.models import Dist, DraftTrace, Sequence, TableArModel


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
    """Deficit and excess of a branch's gap list, summed as :func:`specverify.verify._branch_ratios` sums them."""
    return BranchDivergences(math.fsum([g for g in gaps if g > 0.0]), math.fsum([-g for g in gaps if g < 0.0]))


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


def capped_branch_divergences(trace: DraftTrace, t: int, mb: int | None = None) -> BranchDivergences:
    """Branch divergences of the first ``t`` drafted tokens, capped at ``mb``: from the trace alone."""
    return _branch_sums(capped_branch_masses(trace, t, mb))


def unique_capping_indices(chain: RatioChain) -> tuple[int, ...]:
    """Ordered distinct positive maximal-prefix indices of a chain.

    These are the record positions where the running joint ratio sets a new
    maximum above 1; resampling mass concentrates exactly there.
    """
    return tuple(sorted({idx for idx in chain.m if idx > 0}))
