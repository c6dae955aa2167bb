import logging
import math
import pickle
from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specverify.divergence import RatioChain, capped_branch_masses, joint_products, ratio_chain
from specverify.metrics import whole_draft_acceptance
from specverify.models import DraftTrace, index_from_uniform, sample_draft, substream, trace_for
from specverify.oracle import _Replay, enumerate_yield, target_joint_distribution, total_variation
from specverify.verify import (
    SINGLE_DRAFT,
    VerifyOutcome,
    _capped_ratios,
    backward_scan,
    blockwise_acceptance_chain,
    capped_branch_residual,
    capped_hsd_chain,
    capped_hsd_verify,
    expected_accept_length,
    forward_scan,
    multidraft_hsd_verify,
    multidraft_tokenwise_verify,
    naive_hsd_chain,
    naive_hsd_verify,
    tokenwise_chain,
    tokenwise_residual,
    tokenwise_verify,
)
from specverify.worked_example import (
    REFERENCE_BRANCH_H,
    REFERENCE_P_COND,
    REFERENCE_Q_COND,
    REFERENCE_TOKENWISE_H,
)

from conftest import exact_grid_pairs, pair_for
from divergence_theory import capped_branch_divergences


def synthetic_trace(p_cond, q_cond):
    """V=2 trace drafting token 0 everywhere, with the given scalar conditionals."""
    p_dists = tuple((pc, 1.0 - pc) for pc in p_cond)
    q_dists = tuple((qc, 1.0 - qc) for qc in q_cond)
    tokens = tuple(0 for _ in p_cond)
    return DraftTrace((), tokens, q_dists, p_dists, (0.5, 0.5))


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------


def test_backward_scan_law_against_simulation():
    h = (0.3, 0.9, 0.5)
    n = 100_000
    rng = substream(31)
    counts = [0] * 4
    for _ in range(n):
        tau = backward_scan(h, rng)
        counts[tau] += 1
    for i in range(1, 4):
        analytic = 1.0
        for k in range(i, 4):
            analytic *= 1.0 - h[k - 1]
        analytic = 1.0 - analytic
        empirical = sum(counts[i:]) / n
        sigma = math.sqrt(analytic * (1 - analytic) / n)
        assert abs(empirical - analytic) <= 4.0 * sigma


def test_forward_scan_stops_at_first_rejection():
    h, log = (1.0, 0.0, 1.0), []
    assert forward_scan(h, _Replay([], substream(32), log)) == 1
    assert log == [(0, 1.0, True), (1, 0.0, False)]  # accept, then reject


# ---------------------------------------------------------------------------
# acceptance chains
# ---------------------------------------------------------------------------


def test_tokenwise_chain_reproduces_reference_values():
    trace = synthetic_trace(REFERENCE_P_COND, REFERENCE_Q_COND)
    for got, want in zip(tokenwise_chain(trace), REFERENCE_TOKENWISE_H):
        assert abs(got - want) <= 1e-3


def test_chains_are_all_ones_for_identical_models(identical_pair):
    p, q = identical_pair
    trace = sample_draft(q, p, (), 3, substream(33))
    assert tokenwise_chain(trace) == (1.0, 1.0, 1.0)
    assert naive_hsd_chain(trace) == (1.0, 1.0, 1.0)
    assert capped_hsd_chain(trace) == (1.0, 1.0, 1.0)
    assert blockwise_acceptance_chain(trace) == (1.0, 1.0, 1.0)


def test_blockwise_clamp_follows_the_two_step_example():
    trace = DraftTrace(
        (),
        (0, 0),
        ((0.4, 0.6), (0.8, 0.2)),
        ((0.8, 0.2), (0.2, 0.8)),
        (0.5, 0.5),
    )
    chain = ratio_chain(trace)
    assert chain.cond_r == (2.0, 0.25)
    h = blockwise_acceptance_chain(trace)
    # final entry is the clamp value itself: min{1, 0.25, 0.5} = 0.25
    assert h[-1] == pytest.approx(0.25, abs=1e-15)


def definitional_capped_ratios(trace):
    """Capped acceptance ratios before the clamp, summed as ``fsum(max(gap, 0))``."""
    chain = ratio_chain(trace)
    ratios = []
    for t in range(1, trace.gamma):
        gaps = capped_branch_masses(trace, t)
        d_pq = math.fsum(max(g, 0.0) for g in gaps)
        d_qp = math.fsum(max(-g, 0.0) for g in gaps)
        ratios.append(d_pq / d_qp if d_qp > 0.0 else 1.0)
    return (*ratios, chain.rstar[-1])


def definitional_naive_chain(trace):
    """naive-hsd's chain from its own vocabulary loop over the uncapped target and draft joints."""
    chain = ratio_chain(trace)
    p_cum, q_cum = joint_products(trace)
    h = []
    for t in range(1, trace.gamma):
        deficits, excesses = [], []
        for px, qx in zip(trace.p_dists[t], trace.q_dists[t]):
            gap = p_cum[t] * px - q_cum[t] * qx
            if gap > 0.0:
                deficits.append(gap)
            else:
                excesses.append(-gap)
        d_pq, d_qp = math.fsum(deficits), math.fsum(excesses)
        den = max(d_pq, d_qp)
        h.append(1.0 if den <= 0.0 else d_pq / den)
    return (*h, min(chain.r[-1], 1.0))


def suffix_minimum_clamp(trace):
    """Block verification's clamp ``p_0 .. p_gamma`` in closed form, the reference for the library's recursion.

    ``p_t = min(1, min over s < t of cond_r[s] * ... * cond_r[t - 1])``, each product built left to
    right from ``s`` and the minimum taken in order of ``s``.
    """
    cond_r = ratio_chain(trace).cond_r
    best = [1.0] * (len(cond_r) + 1)
    for s in range(len(cond_r)):
        prod = 1.0
        for t in range(s + 1, len(cond_r) + 1):
            prod = prod * cond_r[t - 1]
            best[t] = min(best[t], prod)
    return best


def definitional_blockwise_h(trace, clamp=None):
    """Blockwise acceptance chain with its per-position sum as ``fsum(max(gap, 0))``.

    ``clamp`` is ``p_0 .. p_gamma``, by default the running ``p_t = min(p_{t-1} * cond_r[t], 1)``.
    """
    if clamp is None:
        clamp = [1.0]
        for cr in ratio_chain(trace).cond_r:
            clamp.append(min(clamp[-1] * cr, 1.0))
    h = []
    for t in range(1, trace.gamma):
        pt = clamp[t]
        num = math.fsum(max(pt * px - qx, 0.0) for px, qx in zip(trace.p_dists[t], trace.q_dists[t]))
        den = num + (1.0 - pt)
        h.append(1.0 if den <= 0.0 else num / den)
    return (*h, clamp[-1])


def exact_sum_traces():
    for seed in range(60):
        vocab, gamma = (2, 3, 8, 32)[seed % 4], 2 + seed % 7
        eps = 0.0 if seed % 5 == 0 else (0.1, 0.5, 1.0, 2.0)[seed % 4]  # every fifth pair: identical models
        p, q = pair_for(seed, vocab=vocab, depth=gamma, eps=eps)
        yield sample_draft(q, p, (), gamma, substream(41, seed))
    # a zero target conditional on the drafted path sends the joint ratio to 0
    yield DraftTrace(
        (),
        (1, 0, 2),
        ((0.2, 0.5, 0.3), (0.6, 0.1, 0.3), (0.3, 0.3, 0.4)),
        ((0.3, 0.4, 0.3), (0.0, 0.7, 0.3), (0.0, 0.2, 0.8)),
        (0.5, 0.25, 0.25),
    )


def test_one_pass_sums_equal_the_definitional_sums_bit_for_bit():
    saw_all_zero_gaps = False
    for trace in exact_sum_traces():
        for t in range(trace.gamma):
            gaps = capped_branch_masses(trace, t)
            saw_all_zero_gaps |= not any(gaps)
            d = capped_branch_divergences(trace, t)
            assert d.d_pq == math.fsum(max(g, 0.0) for g in gaps)
            assert d.d_qp == math.fsum(max(-g, 0.0) for g in gaps)
        assert _capped_ratios(trace) == definitional_capped_ratios(trace)
        assert blockwise_acceptance_chain(trace) == definitional_blockwise_h(trace)
    assert saw_all_zero_gaps


def test_naive_chain_is_the_capped_chain_at_cap_index_zero_bit_for_bit():
    saw_excess_free_branch = False
    for trace in exact_sum_traces():
        assert naive_hsd_chain(trace) == definitional_naive_chain(trace)
        p_cum, q_cum = joint_products(trace)
        saw_excess_free_branch |= any(
            all(p_cum[t] * px >= q_cum[t] * qx for px, qx in zip(trace.p_dists[t], trace.q_dists[t]))
            and p_cum[t] != q_cum[t]
            for t in range(1, trace.gamma)
        )
    assert saw_excess_free_branch


def test_naive_accepts_a_branch_without_excess_silently(caplog):
    # the branch after token 0 carries target joint 0.9 against draft joint 0.5:
    # deficit 0.4, excess 0, so h_1 = 1; routine for naive-hsd, not worth a warning
    trace = DraftTrace((), (0, 0), ((0.5, 0.5), (0.5, 0.5)), ((0.9, 0.1), (0.5, 0.5)), (0.5, 0.5))
    assert capped_branch_divergences(trace, 1, 0) == (0.4, 0.0)
    with caplog.at_level(logging.WARNING, logger="specverify.verify"):
        h = naive_hsd_chain(trace)
    assert h[0] == 1.0
    assert not caplog.records


def test_the_capped_chain_warns_once_per_branch_it_builds(caplog):
    # a peaked pair where rounding leaves two capped branches with excess 0 but deficit > 0
    p, q = pair_for(4, vocab=3, depth=3, eps=0.8, conc=30)
    with caplog.at_level(logging.WARNING, logger="specverify.verify"):
        enumerate_yield("capped-hsd", p, q, 3)
    certified = [record.getMessage() for record in caplog.records]
    assert len(certified) == len(set(certified)) == 2  # a certificate builds each branch once
    caplog.clear()
    traces = [trace_for(q, p, (), draft) for draft in product(range(3), repeat=3)]
    with caplog.at_level(logging.WARNING, logger="specverify.verify"):
        for trace in traces + traces:
            capped_hsd_chain(trace)
    outside = [record.getMessage() for record in caplog.records]
    assert len(outside) == 24 and set(outside) == set(certified)  # outside a run every call builds, and warns


def assert_block_chain_matches_the_suffix_minimum(trace):
    """The library's block chain and whole-draft block acceptance, against the clamp's closed form, to 1e-12."""
    clamp = suffix_minimum_clamp(trace)
    reference, h = definitional_blockwise_h(trace, clamp), blockwise_acceptance_chain(trace)
    assert len(h) == len(reference) == trace.gamma
    for t, (got, want) in enumerate(zip(h, reference), 1):
        assert abs(got - want) <= 1e-12, (t, h, reference)
    assert abs(whole_draft_acceptance(trace)["block"] - clamp[-1]) <= 1e-12


def test_blockwise_recursion_matches_suffix_minimum():
    # every draft of criterion 3's exact grid
    for p, q, gamma in exact_grid_pairs():
        for draft in product(range(p.vocab_size), repeat=gamma):
            assert_block_chain_matches_the_suffix_minimum(trace_for(q, p, (), draft))


@st.composite
def raw_ratio_traces(draw):
    """V=2 traces drafting token 0 whose conditional ratios include zeros and ratios above 1."""
    ratio = st.one_of(st.just(0.0), st.floats(0.0, 1.0), st.floats(1.0, 16.0))
    ratios = draw(st.lists(ratio, min_size=1, max_size=8))
    q_cond = [draw(st.floats(0.01, 1.0 / max(r, 1.0))) for r in ratios]
    return synthetic_trace([min(r * qc, 1.0) for r, qc in zip(ratios, q_cond)], q_cond)


@settings(max_examples=300, deadline=None)
@given(raw_ratio_traces())
def test_blockwise_recursion_matches_suffix_minimum_on_raw_ratio_chains(trace):
    assert_block_chain_matches_the_suffix_minimum(trace)


def test_capped_chain_dominates_blockwise_per_position():
    for seed in range(150):
        p, q = pair_for(seed, vocab=4, depth=5, eps=0.9)
        trace = sample_draft(q, p, (), 5, substream(35, seed))
        h_capped = capped_hsd_chain(trace)
        h_block = blockwise_acceptance_chain(trace)
        for hb, hk in zip(h_capped, h_block):
            assert hb >= hk - 1e-10


def test_reference_branch_chain_scans_to_length_four():
    tau = backward_scan(REFERENCE_BRANCH_H, substream(36))
    assert tau == 4


def bits_or_error(build):
    """The bit patterns of ``build()``'s floats, or the message of the ValueError it raises."""
    try:
        return tuple(v.hex() for v in build())
    except ValueError as exc:
        return str(exc)


@pytest.mark.parametrize("verifier", SINGLE_DRAFT)
def test_every_chain_entry_and_residual_below_gamma_depends_on_the_drafted_prefix_alone(verifier):
    # the SINGLE_DRAFT contract the exact oracle's prefix table relies on, over every draft of V=3, gamma=4
    plan, gamma = SINGLE_DRAFT[verifier][0], 4
    for seed, eps in ((0, 1.0), (1, 0.5), (2, 2.0)):
        p, q = pair_for(seed, vocab=3, depth=gamma + 1, eps=eps)
        seen, stems = {}, set()
        for draft in product(range(3), repeat=gamma):
            h, residual = plan(trace_for(q, p, (), draft))
            for t in range(gamma):
                entry = h[t - 1].hex() if t > 0 else None
                got = (entry, None if residual is None else bits_or_error(lambda: residual(t)))
                assert seen.setdefault(draft[:t], got) == got, (seed, draft, t)
                stems.add(draft[:t])
        assert len(stems) == sum(3**t for t in range(gamma))


# ---------------------------------------------------------------------------
# expected accepted length
# ---------------------------------------------------------------------------


def test_expected_length_degenerate_chains():
    ones = (1.0,) * 10
    zeros = (0.0,) * 10
    for mode in ("token", "backward"):
        assert expected_accept_length(ones, mode) == pytest.approx(10.0, abs=1e-12)
        assert expected_accept_length(zeros, mode) == 0.0


def test_expected_length_hand_values():
    h = (0.5, 0.5)
    assert expected_accept_length(h, "backward") == pytest.approx(1.25, abs=1e-12)
    assert expected_accept_length(h, "token") == pytest.approx(0.75, abs=1e-12)
    with pytest.raises(ValueError):
        expected_accept_length(h, "forward")


def test_expected_length_matches_simulated_scans():
    h = (0.7, 0.2, 0.9, 0.4)
    n = 200_000
    rng = substream(37)
    total_fwd = sum(forward_scan(h, rng) for _ in range(n))
    rng = substream(38)
    total_bwd = sum(backward_scan(h, rng) for _ in range(n))
    assert abs(total_fwd / n - expected_accept_length(h, "token")) <= 0.02
    assert abs(total_bwd / n - expected_accept_length(h, "backward")) <= 0.02


# ---------------------------------------------------------------------------
# tokenwise verification
# ---------------------------------------------------------------------------


def test_tokenwise_accepts_everything_for_identical_models(identical_pair):
    p, q = identical_pair
    trace, log = sample_draft(q, p, (), 3, substream(41)), []
    outcome = tokenwise_verify(trace, _Replay([], substream(42), log))
    assert outcome.tau == 3
    assert outcome.emitted[:3] == trace.tokens
    assert len(outcome.emitted) == 4
    assert [(k, below) for k, _, below in log[:3]] == [(0, True), (1, True), (2, True)]
    assert {k for k, _, _ in log[3:]} == {3}  # the bonus draw, the one uniform read after the scan


def test_tokenwise_residual_requires_a_deficit():
    with pytest.raises(ValueError):
        tokenwise_residual((0.5, 0.5), (0.5, 0.5))


def test_tokenwise_exact_yield_by_hand():
    from specverify.models import TableArModel

    p = TableArModel(2, 2, table={(): (0.8, 0.2), (0,): (0.5, 0.5), (1,): (0.5, 0.5)})
    q = TableArModel(2, 2, table={(): (0.5, 0.5), (0,): (0.5, 0.5), (1,): (0.5, 0.5)})
    yielded = enumerate_yield("tokenwise", p, q, 1, 1)
    assert yielded.probs[(0,)] == pytest.approx(0.8, abs=1e-12)
    assert yielded.probs[(1,)] == pytest.approx(0.2, abs=1e-12)


def test_tokenwise_emitted_prefix_is_verbatim(small_pair):
    p, q = small_pair
    for i in range(50):
        trace = sample_draft(q, p, (), 3, substream(43, i))
        outcome = tokenwise_verify(trace, substream(44, i))
        assert outcome.emitted[: outcome.tau] == trace.tokens[: outcome.tau]
        assert len(outcome.emitted) == outcome.tau + 1


# ---------------------------------------------------------------------------
# naive branch verification
# ---------------------------------------------------------------------------


def test_naive_accepts_everything_for_identical_models(identical_pair):
    p, q = identical_pair
    trace = sample_draft(q, p, (), 3, substream(45))
    outcome = naive_hsd_verify(trace, p, q, substream(46))
    assert outcome.tau == 3 and len(outcome.emitted) == 4


def test_naive_matches_tokenwise_at_single_token_drafts(small_pair):
    p, q = small_pair
    a = enumerate_yield("tokenwise", p, q, 1, 1)
    b = enumerate_yield("naive-hsd", p, q, 1, 1)
    assert total_variation(a, b) <= 1e-12


def test_naive_is_lossless_at_depth_two(small_pair):
    p, q = small_pair
    yielded = enumerate_yield("naive-hsd", p, q, 2, 2)
    assert total_variation(yielded, target_joint_distribution(p, 2)) <= 1e-9


def test_naive_emitted_lengths_follow_the_printed_loop(small_pair):
    p, q = small_pair
    saw_reject = saw_accept = False
    for i in range(200):
        trace, log = sample_draft(q, p, (), 3, substream(47, i)), []
        outcome = naive_hsd_verify(trace, p, q, _Replay([], substream(48, i), log))
        if outcome.tau == 3:
            saw_accept = True
            assert len(outcome.emitted) == 4
        else:
            saw_reject = True
            assert len(outcome.emitted) == 3
            scanned = 3 - outcome.tau + (outcome.tau > 0)  # the rejections, then the accept if any
            assert [k for k, _, _ in log[:scanned]] == list(range(scanned))
            resamples = {k for k, _, _ in log[scanned:]}  # one uniform per resampled position
            assert len(resamples) == 3 - outcome.tau
        assert outcome.emitted[: outcome.tau] == trace.tokens[: outcome.tau]
    assert saw_accept and saw_reject


# ---------------------------------------------------------------------------
# capped branch verification
# ---------------------------------------------------------------------------


def test_capped_accepts_everything_for_identical_models(identical_pair):
    p, q = identical_pair
    trace = sample_draft(q, p, (), 3, substream(49))
    outcome = capped_hsd_verify(trace, substream(50))
    assert outcome.tau == 3 and len(outcome.emitted) == 4


def test_capped_is_lossless_at_depth_three(small_pair):
    p, q = small_pair
    yielded = enumerate_yield("capped-hsd", p, q, 3, 3)
    assert total_variation(yielded, target_joint_distribution(p, 3)) <= 1e-9


def test_capped_emits_exactly_one_extra_token(small_pair):
    p, q = small_pair
    taus = set()
    for i in range(300):
        trace = sample_draft(q, p, (), 3, substream(51, i))
        outcome = capped_hsd_verify(trace, substream(52, i))
        taus.add(outcome.tau)
        assert len(outcome.emitted) == outcome.tau + 1
        assert outcome.emitted[: outcome.tau] == trace.tokens[: outcome.tau]
    assert 0 in taus  # the root resample path is exercised
    assert 3 in taus


def test_full_acceptance_requires_the_bonus_distribution(identical_pair):
    p, q = identical_pair
    trace = trace_for(q, p, (), (0, 1, 2, 0))  # full depth, no bonus possible; identical models accept it whole
    for verify in (
        lambda: tokenwise_verify(trace, substream(53)),
        lambda: capped_hsd_verify(trace, substream(53)),
        lambda: multidraft_hsd_verify([trace, trace], substream(53)),
    ):
        with pytest.raises(ValueError, match="^full draft accepted but the trace has no bonus distribution$"):
            verify()


# ---------------------------------------------------------------------------
# multi-draft verification
# ---------------------------------------------------------------------------


def test_multidraft_hsd_with_one_draft_is_the_single_draft_verifier(small_pair):
    p, q = small_pair
    for i in range(300):
        trace = sample_draft(q, p, (), 3, substream(54, i))
        assert multidraft_hsd_verify([trace], substream(55, i)) == capped_hsd_verify(trace, substream(55, i))


def test_multidraft_tokenwise_with_one_draft_is_the_single_draft_verifier(small_pair):
    p, q = small_pair
    for i in range(300):
        trace = sample_draft(q, p, (), 3, substream(56, i))
        assert multidraft_tokenwise_verify([trace], substream(57, i)) == tokenwise_verify(trace, substream(57, i))


def tokenwise_rrs_by_position(traces, rng):
    """Recursive rejection sampling position by position: every draft extending the prefix tries each position."""
    accepted = ()
    for t in range(traces[0].gamma):
        candidates = [tr for tr in traces if tr.tokens[:t] == accepted]
        p_cur = candidates[0].p_dists[t]
        for tr in candidates:
            x, qd = tr.tokens[t], tr.q_dists[t]
            if rng.random() < min(1.0, p_cur[x] / qd[x]):
                accepted, last = accepted + (x,), tr
                break
            p_cur = tokenwise_residual(p_cur, qd)
        else:
            return VerifyOutcome(t, accepted + (index_from_uniform(p_cur, rng.random()),))
    return VerifyOutcome(len(accepted), accepted + (index_from_uniform(last.bonus_dist, rng.random()),))


@pytest.mark.parametrize("vocab, gamma", list(product((2, 3, 5), (1, 2, 4))))
def test_multidraft_tokenwise_is_recursive_rejection_sampling_position_by_position(vocab, gamma):
    # draft by draft is the per-position law only because a rejected token keeps no residual mass:
    # no draft tried before the one accepted at a position can extend the accepted prefix
    p, q = pair_for(vocab, vocab=vocab, depth=gamma + 1, eps=1.0)
    for k_drafts, i in product((1, 2, 3, 4), range(100)):
        traces = [sample_draft(q, p, (), gamma, substream(66, k_drafts, i, k)) for k in range(k_drafts)]
        by_draft_log, by_position_log = [], []
        by_draft = multidraft_tokenwise_verify(traces, _Replay([], substream(67, k_drafts, i), by_draft_log))
        by_position = tokenwise_rrs_by_position(traces, _Replay([], substream(67, k_drafts, i), by_position_log))
        assert (by_draft, by_draft_log) == (by_position, by_position_log)


def test_multidraft_accepts_the_first_draft_when_models_agree(identical_pair):
    p, q = identical_pair
    rng = substream(58)
    traces = [sample_draft(q, p, (), 3, rng) for _ in range(3)]
    for verify in (multidraft_hsd_verify, multidraft_tokenwise_verify):
        outcome = verify(traces, substream(59))
        assert outcome.tau == 3
        assert outcome.emitted[:3] == traces[0].tokens


def test_multidraft_validates_inputs(small_pair):
    p, q = small_pair
    t1 = sample_draft(q, p, (), 2, substream(60))
    t2 = sample_draft(q, p, (0,), 2, substream(61))
    t3 = sample_draft(q, p, (), 3, substream(62))
    for verify in (multidraft_hsd_verify, multidraft_tokenwise_verify):
        with pytest.raises(ValueError):
            verify([], substream(63))
        with pytest.raises(ValueError):
            verify([t1, t2], substream(63))
        with pytest.raises(ValueError):
            verify([t1, t3], substream(63))


def test_empty_drafts_cannot_be_verified(small_pair):
    p, q = small_pair
    empty = trace_for(q, p, (), ())
    for verify in (tokenwise_verify, capped_hsd_verify, lambda trace, rng: naive_hsd_verify(trace, p, q, rng)):
        with pytest.raises(ValueError, match="^empty drafts cannot be verified$"):
            verify(empty, substream(64))
    for verify in (multidraft_hsd_verify, multidraft_tokenwise_verify):
        with pytest.raises(ValueError, match="^empty drafts cannot be verified$"):
            verify([empty, empty], substream(64))


@pytest.mark.parametrize("t", [-1, 2])
def test_a_capped_residual_outside_the_draft_is_refused(t):
    trace = synthetic_trace((0.5, 0.6), (0.4, 0.7))
    with pytest.raises(ValueError, match=rf"^branch position {t} outside \[0, 2\)$"):
        capped_branch_residual(trace, t)


def multidraft_tokenwise_yield_by_hand(p_root, q_root):
    """Exhaustive enumeration of two-draft single-position RRS with replacement."""
    vocab = len(p_root)
    yielded = [0.0] * vocab
    residual1 = [max(pi - qi, 0.0) for pi, qi in zip(p_root, q_root)]
    z1 = math.fsum(residual1)
    p2 = [v / z1 for v in residual1]
    residual2 = [max(pi - qi, 0.0) for pi, qi in zip(p2, q_root)]
    z2 = math.fsum(residual2)
    p3 = [v / z2 for v in residual2]
    for x1 in range(vocab):
        a1 = min(1.0, p_root[x1] / q_root[x1])
        yielded[x1] += q_root[x1] * a1
        for x2 in range(vocab):
            a2 = min(1.0, p2[x2] / q_root[x2])
            yielded[x2] += q_root[x1] * (1 - a1) * q_root[x2] * a2
            for x3 in range(vocab):
                yielded[x3] += q_root[x1] * (1 - a1) * q_root[x2] * (1 - a2) * p3[x3]
    return yielded


def test_multidraft_tokenwise_two_drafts_exact_yield():
    p_root, q_root = (0.8, 0.2), (0.5, 0.5)
    yielded = multidraft_tokenwise_yield_by_hand(p_root, q_root)
    assert yielded[0] == pytest.approx(0.8, abs=1e-12)
    assert yielded[1] == pytest.approx(0.2, abs=1e-12)
    # and the implementation agrees with the enumeration statistically
    from specverify.models import TableArModel

    p = TableArModel(2, 2, table={(): p_root, (0,): (0.5, 0.5), (1,): (0.5, 0.5)})
    q = TableArModel(2, 2, table={(): q_root, (0,): (0.5, 0.5), (1,): (0.5, 0.5)})
    n = 50_000
    counts = [0, 0]
    for i in range(n):
        rng = substream(64, i)
        traces = [sample_draft(q, p, (), 1, rng) for _ in range(2)]
        outcome = multidraft_tokenwise_verify(traces, rng)
        counts[outcome.emitted[0]] += 1
    sigma = math.sqrt(n * 0.8 * 0.2)
    assert abs(counts[0] - n * 0.8) <= 4.0 * sigma


# ---------------------------------------------------------------------------
# probe logs
# ---------------------------------------------------------------------------


def test_scan_uniforms_are_replayable_from_the_log(small_pair):
    p, q = small_pair
    trace, log = sample_draft(q, p, (), 3, substream(67)), []
    outcome = capped_hsd_verify(trace, _Replay([], substream(68), log))
    h = capped_hsd_chain(trace)
    scanned = 3 - outcome.tau + (outcome.tau > 0)  # the rejections, then the accept if any
    scan = log[:scanned]
    assert [(k, c) for k, c, _ in scan] == [(k, h[2 - k]) for k in range(scanned)]  # u_k < h[t - 1], t = 3, 2, ...
    assert [below for _, _, below in scan] == [False] * (3 - outcome.tau) + [True] * (outcome.tau > 0)
    rng = substream(68)
    uniforms = [rng.random() for _ in range(log[-1][0] + 1)]
    assert all((uniforms[k] < c) == below for k, c, below in log)


# ---------------------------------------------------------------------------
# value types
# ---------------------------------------------------------------------------


@pytest.mark.parametrize(
    "value, field, text",
    [
        (VerifyOutcome(1, (0, 1)), "tau", "VerifyOutcome(tau=1, emitted=(0, 1))"),
        (
            DraftTrace((0,), (1,), ((0.5, 0.5),), ((0.25, 0.75),), None),
            "tokens",
            "DraftTrace(prefix=(0,), tokens=(1,), q_dists=((0.5, 0.5),), p_dists=((0.25, 0.75),), bonus_dist=None)",
        ),
        (
            RatioChain((1.5,), (1.5,), (0,), (1.5,), (1.0,)),
            "m",
            "RatioChain(cond_r=(1.5,), r=(1.5,), m=(0,), rstar=(1.5,), clamped_rstar=(1.0,))",
        ),
    ],
    ids=["outcome", "trace", "chain"],
)
def test_value_types_are_immutable_hashable_picklable_and_print_as_before(value, field, text):
    # each repr is pinned to the string the type printed when it was a frozen dataclass
    with pytest.raises(AttributeError):
        setattr(value, field, getattr(value, field))
    copy = pickle.loads(pickle.dumps(value))
    assert copy == value and type(copy) is type(value)
    assert hash(copy) == hash(value)
    assert repr(value) == text
