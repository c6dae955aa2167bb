import math
from itertools import product

import numpy as np
import pytest

from specverify.divergence import (
    branch_divergences,
    capped_branch_divergences,
    capped_branch_masses,
    generalized_divergence,
    hierarchy_check,
    joint_products,
    ratio_chain,
    ratio_chain_from_conditionals,
    unique_capping_indices,
)
from specverify.models import DraftTrace, sample_draft, substream
from specverify.worked_example import (
    REFERENCE_CLAMPED_RSTAR,
    REFERENCE_M,
    REFERENCE_P_COND,
    REFERENCE_Q_COND,
    REFERENCE_R,
)

from conftest import pair_for


def random_dist(rng, size):
    w = rng.random(size) + 1e-3
    total = math.fsum(w.tolist())
    return tuple(v / total for v in w.tolist())


# ---------------------------------------------------------------------------
# generalized divergence
# ---------------------------------------------------------------------------


def test_generalized_divergence_hand_values():
    p, q = (0.8, 0.2), (0.5, 0.5)
    assert generalized_divergence(p, q, {0, 1}) == pytest.approx(0.3, abs=1e-15)
    assert generalized_divergence(q, p, {0, 1}) == pytest.approx(0.3, abs=1e-15)
    assert generalized_divergence(p, q, {1}) == 0.0


def test_generalized_divergence_validates_inputs():
    with pytest.raises(ValueError):
        generalized_divergence((0.5, 0.5), (1.0,), {0})
    with pytest.raises(ValueError):
        generalized_divergence((0.5, 0.5), (0.5, 0.5), {2})


def test_full_space_symmetry_and_half_l1():
    rng = np.random.default_rng(11)
    for _ in range(200):
        p, q = random_dist(rng, 5), random_dist(rng, 5)
        full = range(5)
        d_pq = generalized_divergence(p, q, full)
        d_qp = generalized_divergence(q, p, full)
        assert abs(d_pq - d_qp) <= 1e-12
        half_l1 = 0.5 * math.fsum(abs(a - b) for a, b in zip(p, q))
        assert abs(d_pq - half_l1) <= 1e-12


def test_partial_recovery_condition():
    # wherever deficit <= excess, the normalised residual is a sub-distribution
    rng = np.random.default_rng(12)
    checked = 0
    while checked < 100:
        p, q = random_dist(rng, 6), random_dist(rng, 6)
        subset = [w for w in range(6) if rng.random() < 0.6]
        d_pq = generalized_divergence(p, q, subset)
        d_qp = generalized_divergence(q, p, subset)
        if d_pq > d_qp or d_qp == 0.0:
            continue
        residual_total = math.fsum(max(p[w] - q[w], 0.0) / d_qp for w in subset)
        assert residual_total <= 1.0 + 1e-12
        assert abs(residual_total - d_pq / d_qp) <= 1e-12
        checked += 1


# ---------------------------------------------------------------------------
# branch divergences and hierarchy
# ---------------------------------------------------------------------------


def test_branch_divergences_vanish_for_identical_models(identical_pair):
    p, q = identical_pair
    for prefix in [(), (0,), (1, 2)]:
        bd = branch_divergences(p, q, prefix)
        assert bd.d_pq == 0.0 and bd.d_qp == 0.0


def test_root_branch_asymmetry_is_zero(small_pair):
    p, q = small_pair
    assert abs(branch_divergences(p, q, ()).asymmetry) <= 1e-12


def test_asymmetry_equals_joint_gap(small_pair):
    p, q = small_pair
    for prefix in product(range(3), repeat=2):
        bd = branch_divergences(p, q, prefix)
        assert abs(bd.asymmetry - (p.joint(prefix) - q.joint(prefix))) <= 1e-10


def test_branch_divergences_depth_guard(small_pair):
    p, q = small_pair
    with pytest.raises(ValueError):
        branch_divergences(p, q, (0, 1, 2, 0))


def test_hierarchy_identity_both_directions():
    for seed in range(25):
        p, q = pair_for(seed)
        for prefix in [(), (0,), (2, 1)]:
            lhs, rhs = hierarchy_check(p, q, prefix)
            assert abs(lhs - rhs) <= 1e-10
            lhs, rhs = hierarchy_check(q, p, prefix)  # mirror: excess side
            assert abs(lhs - rhs) <= 1e-10


def test_hierarchy_trivial_for_identical_models(identical_pair):
    p, q = identical_pair
    assert hierarchy_check(p, q, ()) == (0.0, 0.0)


def test_hierarchy_depth_guard(small_pair):
    p, q = small_pair
    with pytest.raises(ValueError):
        hierarchy_check(p, q, (0, 1, 2))


# ---------------------------------------------------------------------------
# ratio chain
# ---------------------------------------------------------------------------


def test_ratio_chain_reproduces_reference_values():
    chain = ratio_chain_from_conditionals(REFERENCE_P_COND, REFERENCE_Q_COND)
    assert chain.m == REFERENCE_M
    for got, want in zip(chain.r, REFERENCE_R):
        assert abs(got - want) <= 1e-3
    for got, want in zip(chain.clamped_rstar, REFERENCE_CLAMPED_RSTAR):
        assert abs(got - want) <= 1e-3


def test_ratio_chain_recurrence_and_m_invariants():
    rng = np.random.default_rng(13)
    for _ in range(200):
        gamma = int(rng.integers(1, 9))
        p_cond = rng.random(gamma) * 0.9 + 0.05
        q_cond = rng.random(gamma) * 0.9 + 0.05
        chain = ratio_chain_from_conditionals(p_cond, q_cond)
        r_prev = 1.0
        for t in range(gamma):
            assert chain.r[t] == r_prev * chain.cond_r[t]
            earlier = chain.r[:t]
            if chain.m[t] == 0:
                assert t == 0 or max(earlier) <= 1.0
                assert chain.rstar[t] == chain.r[t]
            else:
                assert chain.r[chain.m[t] - 1] == max(earlier) > 1.0
            assert chain.clamped_rstar[t] == min(chain.rstar[t], 1.0)
            r_prev = chain.r[t]


def test_ratio_chain_ties_pick_the_largest_index():
    # r = (2, 2): both positions attain the maximum; the later one wins
    chain = ratio_chain_from_conditionals((0.8, 0.5), (0.4, 0.5))
    assert chain.r == (2.0, 2.0)
    assert chain.m == (0, 1)
    later = ratio_chain_from_conditionals((0.8, 0.5, 0.3), (0.4, 0.5, 0.3))
    assert later.m == (0, 1, 2)


def test_ratio_chain_zero_target_sticks():
    chain = ratio_chain_from_conditionals((0.5, 0.0, 0.7), (0.5, 0.5, 0.7))
    assert chain.r[1] == 0.0 and chain.r[2] == 0.0
    assert chain.rstar[2] == 0.0


def test_ratio_chain_rejects_zero_draft_probability():
    with pytest.raises(ValueError):
        ratio_chain_from_conditionals((0.5, 0.5), (0.5, 0.0))


def test_ratio_chain_rejects_conditional_lists_of_different_lengths():
    with pytest.raises(ValueError, match=r"^conditional lists differ in length: 2 vs 1$"):
        ratio_chain_from_conditionals((0.5, 0.5), (0.5,))


def test_ratio_chain_rejects_empty_trace():
    with pytest.raises(ValueError):
        ratio_chain_from_conditionals((), ())


def test_ratio_chain_is_built_once_per_trace_object(small_pair):
    p, q = small_pair
    trace = sample_draft(q, p, (), 3, substream(27))
    chain = ratio_chain(trace)
    assert ratio_chain(trace) is chain
    # an equal but distinct trace gets a fresh chain with the same values
    twin = DraftTrace(trace.prefix, trace.tokens, trace.q_dists, trace.p_dists, trace.bonus_dist)
    twin_chain = ratio_chain(twin)
    assert twin == trace and twin_chain is not chain and twin_chain == chain
    p_cond = [trace.p_dists[t][tok] for t, tok in enumerate(trace.tokens)]
    q_cond = [trace.q_dists[t][tok] for t, tok in enumerate(trace.tokens)]
    assert chain == ratio_chain_from_conditionals(p_cond, q_cond)


def test_joint_products_are_built_once_per_trace_object(small_pair):
    p, q = small_pair
    trace = sample_draft(q, p, (), 3, substream(27))
    cums = joint_products(trace)
    assert joint_products(trace) is cums
    # an equal but distinct trace gets fresh tuples with the same values
    twin = DraftTrace(trace.prefix, trace.tokens, trace.q_dists, trace.p_dists, trace.bonus_dist)
    twin_cums = joint_products(twin)
    assert twin_cums is not cums and twin_cums == cums
    assert all(type(cum) is tuple for cum in twin_cums)


def test_interleaved_traces_never_read_each_others_memo(small_pair):
    p, q = small_pair
    first, second = (sample_draft(q, p, (), 3, substream(30, i)) for i in range(2))
    want = [capped_branch_masses(trace, 1) for trace in (first, second)]
    assert want[0] != want[1]
    for trace, other, masses in ((first, second, want[0]), (second, first, want[1])):
        ratio_chain(trace)
        joint_products(other)  # the two memos now hold different traces
        assert capped_branch_masses(trace, 1) == masses


def test_ratio_chain_of_an_undraftable_trace_raises_every_time(small_pair):
    p, q = small_pair
    good = sample_draft(q, p, (), 2, substream(28))
    chain = ratio_chain(good)
    bad = DraftTrace((), (0, 1), ((0.5, 0.5), (0.5, 0.0)), ((0.5, 0.5), (0.5, 0.5)), None)
    for _ in range(2):
        with pytest.raises(ValueError):
            ratio_chain(bad)
    assert ratio_chain(good) is chain
    other = sample_draft(q, p, (), 3, substream(29))
    p_cond = [other.p_dists[t][tok] for t, tok in enumerate(other.tokens)]
    q_cond = [other.q_dists[t][tok] for t, tok in enumerate(other.tokens)]
    assert ratio_chain(other) == ratio_chain_from_conditionals(p_cond, q_cond)


def test_capping_index_structure():
    # between consecutive capping indices the capped ratio stays at most 1,
    # and at a capping index it is the fragment ratio from the previous one
    rng = np.random.default_rng(14)
    seen_multi = 0
    for _ in range(300):
        gamma = int(rng.integers(2, 10))
        p_cond = rng.random(gamma) * 0.9 + 0.05
        q_cond = rng.random(gamma) * 0.9 + 0.05
        chain = ratio_chain_from_conditionals(p_cond, q_cond)
        caps = unique_capping_indices(chain)
        if len(caps) >= 2:
            seen_multi += 1
        bounds = (0,) + caps
        for prev, cur in zip(bounds[:-1], bounds[1:]):
            for i in range(prev + 1, cur):
                assert chain.rstar[i - 1] <= 1.0 + 1e-12
            fragment = chain.r[cur - 1] / (chain.r[prev - 1] if prev > 0 else 1.0)
            assert fragment > 1.0 - 1e-12
            assert abs(chain.rstar[cur - 1] - fragment) <= 1e-12
    assert seen_multi >= 10


# ---------------------------------------------------------------------------
# capped branch divergences
# ---------------------------------------------------------------------------


def test_capped_divergences_vanish_for_identical_models(identical_pair):
    p, q = identical_pair
    trace = sample_draft(q, p, (), 3, substream(21))
    for t in range(3):
        d = capped_branch_divergences(trace, t)
        assert d.d_pq <= 1e-15 and d.d_qp <= 1e-15


def test_capped_at_index_zero_equals_plain_divergence_on_path():
    # cap index 0 leaves the prefix ratio uncapped: naive-hsd's branch, exactly
    branches = 0
    for seed in range(30):
        vocab, gamma = (2, 3, 5)[seed % 3], 2 + seed % 4
        p, q = pair_for(seed, vocab=vocab, depth=gamma, eps=(0.0, 0.5, 1.0)[seed % 3])
        trace = sample_draft(q, p, (), gamma, substream(22, seed))
        for t in range(gamma):
            assert capped_branch_divergences(trace, t, 0) == branch_divergences(p, q, trace.tokens[:t])
            branches += 1
    assert branches >= 100


def literal_capped_divergences(trace, t):
    """Transcription of the capped-divergence definition, one extension at a time.

    Rebuilds the full ratio list for every extension, takes the maximal
    strict-prefix ratio above 1 (latest on ties), caps that factor at 1, and
    sums deficits/excesses of the capped mass against the draft joint.
    """
    p_cond = [trace.p_dists[i][tok] for i, tok in enumerate(trace.tokens[:t])]
    q_cond = [trace.q_dists[i][tok] for i, tok in enumerate(trace.tokens[:t])]
    deficits, excesses = [], []
    for x in range(len(trace.p_dists[t])):
        ratios = []
        run = 1.0
        for pc, qc in zip(p_cond + [trace.p_dists[t][x]], q_cond + [trace.q_dists[t][x]]):
            run *= pc / qc if qc > 0 else math.inf
            ratios.append(run)
        m, best = 0, 1.0
        for i, value in enumerate(ratios[:-1], start=1):
            if value > 1.0 and value >= best:
                m, best = i, value
        q_joint = 1.0
        for qc in q_cond + [trace.q_dists[t][x]]:
            q_joint *= qc
        capped = min(best, 1.0)
        fragment_p = 1.0
        fragment_q = 1.0
        for pc, qc in zip((p_cond + [trace.p_dists[t][x]])[m:], (q_cond + [trace.q_dists[t][x]])[m:]):
            fragment_p *= pc
            fragment_q *= qc
        q_prefix = q_joint / fragment_q if fragment_q > 0 else 0.0
        mass = capped * q_prefix * fragment_p
        gap = mass - q_joint
        if gap > 0:
            deficits.append(gap)
        else:
            excesses.append(-gap)
    return math.fsum(deficits), math.fsum(excesses)


def test_capped_divergences_match_literal_transcription():
    for seed in range(40):
        p, q = pair_for(seed, vocab=3, depth=3)
        trace = sample_draft(q, p, (), 2, substream(23, seed))
        for t in range(2):
            d = capped_branch_divergences(trace, t)
            lit_pq, lit_qp = literal_capped_divergences(trace, t)
            assert abs(d.d_pq - lit_pq) <= 1e-12
            assert abs(d.d_qp - lit_qp) <= 1e-12


def test_capped_branch_position_guard(small_pair):
    p, q = small_pair
    trace = sample_draft(q, p, (), 2, substream(24))
    with pytest.raises(ValueError):
        capped_branch_divergences(trace, 2)


# ---------------------------------------------------------------------------
# telescoping of resampling mass
# ---------------------------------------------------------------------------


def test_telescoping_of_resampling_mass():
    rng = np.random.default_rng(15)
    seen = 0
    for seed in range(200):
        p, q = pair_for(seed, vocab=3, depth=6, eps=1.0)
        trace = sample_draft(q, p, (), 6, substream(25, seed))
        chain = ratio_chain(trace)
        caps = unique_capping_indices(chain)
        if not caps:
            continue
        seen += 1
        p_cum, q_cum = joint_products(trace)
        gamma = trace.gamma

        def segmented(idx):
            # draft joint up to idx, target conditionals after, straight from the trace
            value = q_cum[idx]
            for j in range(idx, gamma):
                value *= trace.p_dists[j][trace.tokens[j]]
            return value

        bounds = (0,) + caps
        for prev, cur in zip(bounds[:-1], bounds[1:]):
            fragment = chain.r[cur - 1] / (chain.r[prev - 1] if prev > 0 else 1.0)
            resample_mass = max(fragment - 1.0, 0.0) * q_cum[cur] * (segmented(cur) / q_cum[cur])
            assert abs(resample_mass - (segmented(prev) - segmented(cur))) <= 1e-10
    assert seen >= 50
