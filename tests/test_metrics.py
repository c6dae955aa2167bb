import math

import pytest

from specverify.metrics import METHODS as METHOD_CHAINS
from specverify.metrics import method_expected_tau, whole_draft_acceptance
from specverify.models import ModelPairSpec, generate_model_pair, sample_draft, substream
from specverify.verify import backward_scan, expected_accept_length, forward_scan, tokenwise_chain
from specverify.worked_example import REFERENCE_P_COND, REFERENCE_Q_COND

from test_verify import synthetic_trace

METHODS = ("tokenwise", "blockwise", "hsd")


def test_identical_models_accept_every_draft_token(identical_pair):
    p, q = identical_pair
    for i in range(200):
        trace = sample_draft(q, p, (), 3, substream(71, i))
        for method in METHODS:
            assert method_expected_tau(method, trace) == pytest.approx(3.0, abs=1e-12)
        assert whole_draft_acceptance(trace) == pytest.approx(dict.fromkeys(("ideal", "token", "block", "ours"), 1.0), abs=1e-12)


def test_all_methods_agree_at_single_token_drafts(small_pair):
    # the three formulas coincide as reals at gamma=1; the backward form
    # rounds through 1 - (1 - h), so agreement is to a ulp, not to the bit
    p, q = small_pair
    for i in range(200):
        trace = sample_draft(q, p, (), 1, substream(72, i))
        values = [method_expected_tau(m, trace) for m in METHODS]
        assert abs(values[0] - values[1]) <= 1e-12
        assert abs(values[1] - values[2]) <= 1e-12


def test_capped_branch_never_trails_blockwise_and_means_order(small_pair):
    p, q = small_pair
    sums = dict.fromkeys(METHODS, 0.0)
    for i in range(2000):
        trace = sample_draft(q, p, (), 4, substream(73, i))
        e_tok = method_expected_tau("tokenwise", trace)
        e_blk = method_expected_tau("blockwise", trace)
        e_hsd = method_expected_tau("hsd", trace)
        assert e_hsd >= e_blk - 1e-10
        sums["tokenwise"] += e_tok
        sums["blockwise"] += e_blk
        sums["hsd"] += e_hsd
    assert sums["hsd"] >= sums["blockwise"] >= sums["tokenwise"]
    assert sums["blockwise"] > sums["tokenwise"] + 1.0  # clearly separated in the mean


def test_blockwise_trails_tokenwise_on_single_traces():
    # block verification orders above tokenwise only once the draft's unseen
    # continuation is averaged out (docs/criterion-3.md); these two traces
    # record that the per-trace ordering does not hold
    # by hand: ratio 1/2 at position 1, then a drafted token the target never
    # emits, so p_2 = 0 and S_1 = 0 leave blockwise nothing to accept
    trace = synthetic_trace((0.25, 0.0), (0.5, 0.5))
    assert method_expected_tau("tokenwise", trace) == 0.5
    assert method_expected_tau("blockwise", trace) == 0.0

    # seeded: V=2, gamma=2, eps=1.0
    p, q = generate_model_pair(ModelPairSpec(2, 2, 0, 1.0))
    trace = sample_draft(q, p, (), 2, substream(0, 2))
    assert trace.tokens == (0, 1)
    e_tok = method_expected_tau("tokenwise", trace)
    e_blk = method_expected_tau("blockwise", trace)
    assert e_tok == pytest.approx(1.1348, abs=1e-4)
    assert e_blk == pytest.approx(0.9643, abs=1e-4)
    assert method_expected_tau("hsd", trace) == pytest.approx(e_blk, abs=1e-12)
    assert e_tok > e_blk


def test_scans_validate_the_analytic_formulas(small_pair):
    p, q = small_pair
    trace = sample_draft(q, p, (), 4, substream(74))
    n = 50_000
    scans = {"token": forward_scan, "backward": backward_scan}
    for method in METHODS:
        builder, mode = METHOD_CHAINS[method]
        h = builder(trace)
        rng = substream(75)
        mean = sum(scans[mode](h, rng)[0] for _ in range(n)) / n
        analytic = method_expected_tau(method, trace)
        assert abs(mean - analytic) <= 4.0 * math.sqrt(4.0**2 / n) + 0.01


def test_whole_draft_acceptance_is_one_when_target_dominates():
    trace = synthetic_trace((0.9, 0.8), (0.5, 0.5))
    values = whole_draft_acceptance(trace)
    assert values == {"ideal": 1.0, "token": 1.0, "block": 1.0, "ours": 1.0}


def test_whole_draft_acceptance_reference_trace_is_dead():
    trace = synthetic_trace(REFERENCE_P_COND, REFERENCE_Q_COND)
    values = whole_draft_acceptance(trace)
    assert values["token"] == 0.0
    assert values["ours"] == 0.0
    assert values["ideal"] == 0.0


def test_whole_draft_acceptance_ordering(small_pair):
    p, q = small_pair
    for i in range(1000):
        trace = sample_draft(q, p, (), 4, substream(76, i))
        values = whole_draft_acceptance(trace)
        assert values["ideal"] >= values["ours"] - 1e-12
        assert values["ours"] >= values["block"] - 1e-12
        assert values["block"] >= values["token"] - 1e-12
        assert 0.0 <= values["token"] and values["ideal"] <= 1.0


def test_whole_draft_token_form_is_the_chain_product(small_pair):
    p, q = small_pair
    trace = sample_draft(q, p, (), 3, substream(77))
    h = tokenwise_chain(trace)
    prod = 1.0
    for v in h:
        prod *= v
    assert whole_draft_acceptance(trace)["token"] == pytest.approx(prod, abs=1e-15)
    assert expected_accept_length(tokenwise_chain(trace), "token") >= prod


def test_method_expected_tau_rejects_unknown_methods(small_pair):
    p, q = small_pair
    with pytest.raises(ValueError):
        method_expected_tau("nonsense", sample_draft(q, p, (), 2, substream(79)))
