"""Reference worked example: a ten-token draft from a math-word-problem prompt.

The constants below are the published per-position conditional probabilities
that a large target model and a small draft model assigned to one drafted
continuation ("she work ed 45 - 40 = 5 hours of"), together with the chain
quantities reported for it, all rounded to four decimals.  Recomputing the
chain from the raw conditionals and matching the reported values pins down
every indexing and tie-breaking convention in :mod:`specverify.divergence`.

The reported capped branch divergences cannot be recomputed here: they sum
over the full vocabulary at each branch, and only the drafted tokens'
conditionals were published.  The acceptance chain they imply is therefore
embedded as data, not derived.
"""

from __future__ import annotations

from dataclasses import dataclass

from .divergence import RatioChain, ratio_chain_from_conditionals

# Target and draft conditional probabilities of the ten drafted tokens.
REFERENCE_P_COND = (0.7156, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 0.4968)
REFERENCE_Q_COND = (0.8771, 0.7900, 0.6514, 0.2592, 0.6773, 0.1490, 0.5775, 1.0, 0.4611, 0.3630)

# Reported chain values (four-decimal rounding).
REFERENCE_R = (0.8159, 1.0327, 1.5855, 6.1171, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
REFERENCE_M = (0, 0, 2, 3, 4, 4, 4, 4, 4, 4)
REFERENCE_CLAMPED_RSTAR = (0.8159, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
REFERENCE_TOKENWISE_H = (0.8159, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 1.0, 0.0, 1.0)

# Branch acceptance chain reported for the backward scan (embedded, see above).
REFERENCE_BRANCH_H = (0.1231, 1.0, 1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0)
REFERENCE_ACCEPTED_LENGTH = 4


@dataclass(frozen=True)
class ExampleCheck:
    name: str
    max_error: float
    ok: bool


def recomputed_chain() -> RatioChain:
    return ratio_chain_from_conditionals(REFERENCE_P_COND, REFERENCE_Q_COND)


def recomputed_tokenwise_h() -> tuple[float, ...]:
    return tuple(min(p / q, 1.0) for p, q in zip(REFERENCE_P_COND, REFERENCE_Q_COND))


def run_checks(tolerance: float = 1e-3) -> list[ExampleCheck]:
    """Recompute every derivable chain and compare against the reported values."""
    chain = recomputed_chain()
    pairs = [
        ("r", chain.r, REFERENCE_R),
        ("m", tuple(float(v) for v in chain.m), tuple(float(v) for v in REFERENCE_M)),
        ("clamped_rstar", chain.clamped_rstar, REFERENCE_CLAMPED_RSTAR),
        ("tokenwise_h", recomputed_tokenwise_h(), REFERENCE_TOKENWISE_H),
    ]
    checks = []
    for name, computed, expected in pairs:
        max_err = max(abs(c - e) for c, e in zip(computed, expected))
        checks.append(ExampleCheck(name, max_err, max_err <= tolerance))
    return checks
