import pytest

from specverify.models import ModelPairSpec, generate_model_pair
from specverify.verify import VerifyOutcome, tokenwise_verify


@pytest.fixture
def small_pair():
    """V=3, depth 4 pair with a moderate draft/target gap."""
    spec = ModelPairSpec(vocab_size=3, max_depth=4, seed=101, divergence_knob=0.8, concentration=1.2)
    return generate_model_pair(spec)


@pytest.fixture
def identical_pair():
    """Draft and target bit-identical (zero divergence knob)."""
    spec = ModelPairSpec(vocab_size=3, max_depth=4, seed=101, divergence_knob=0.0, concentration=1.2)
    return generate_model_pair(spec)


def pair_for(seed, vocab=3, depth=4, eps=0.8, conc=1.2):
    return generate_model_pair(
        ModelPairSpec(vocab_size=vocab, max_depth=depth, seed=seed, divergence_knob=eps, concentration=conc)
    )


def exact_grid_pairs():
    """Criterion 3's exact grid: 3 seeded ``(p, q, gamma)`` at each V, gamma in {2,3,4}, eps in {0.5,1}."""
    grid = [(v, g, e) for v in (2, 3, 4) for g in (2, 3, 4) for e in (0.5, 1.0)]
    for index, (vocab, gamma, eps) in enumerate(grid):
        for k in range(3):
            p, q = pair_for(34_000 + 10 * index + k, vocab=vocab, depth=gamma, eps=eps, conc=1.0)
            yield p, q, gamma


def stray_tokenwise(draft, token=None):
    """A tokenwise verifier that emits ``token``, by default the out-of-range V, on every trace that drafted ``draft``.

    The fault is a function of the trace, as a Monte Carlo trial must be of
    its uniforms.  The stray output covers the whole draft plus its bonus, so
    no target continuation is asked for the impossible prefix.
    """

    def verify(trace, rng):
        outcome = tokenwise_verify(trace, rng)
        if trace.tokens != draft:
            return outcome
        stray = len(trace.q_dists[0]) if token is None else token
        return VerifyOutcome(outcome.tau, (stray,) * (trace.gamma + 1))

    return verify
