"""Acceptance gate: every criterion at its stated tolerance, one line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
PASS/FAIL lines.  Criterion 3 asserts branch >= block per trace on sampled
drafts, but block >= token in the form block verification promises it: once
the draft's unseen continuation is averaged out, checked exactly by
enumeration.  Per trace, block >= token fails on a visible share of drafts
(see ``docs/criterion-3.md``); the sampled grid reports that count without
asserting it.
"""

import math
import time
from collections import defaultdict
from itertools import product

import numpy as np
import pytest

from specverify.divergence import joint_products, ratio_chain
from specverify.metrics import method_expected_tau, whole_draft_acceptance
from specverify.models import ModelPairSpec, generate_model_pair, sample_draft, substream, trace_for
from specverify.oracle import (
    enumerate_yield,
    monte_carlo_fit,
    target_joint_distribution,
    total_variation,
)
from specverify.verify import (
    backward_scan,
    blockwise_acceptance_chain,
    capped_hsd_chain,
    capped_branch_residual,
    expected_accept_length,
    naive_branch_residual,
    tokenwise_chain,
    tokenwise_residual,
)
from specverify.worked_example import (
    REFERENCE_ACCEPTED_LENGTH,
    REFERENCE_BRANCH_H,
    run_checks,
)

from conftest import exact_grid_pairs, pair_for
from divergence_theory import branch_divergences, generalized_divergence, hierarchy_check, unique_capping_indices

VERIFIERS = ("tokenwise", "naive-hsd", "capped-hsd")

TV_TOL = 1e-9
CONSERVATION_TOL = 1e-9
ORDER_SLACK = 1e-10
GAMMA_ONE_TOL = 1e-12
SURVIVAL_TOL = 1e-12


def report(number, name, passed, detail):
    print(f"ACCEPTANCE {number} {name}: {'PASS' if passed else 'FAIL'} ({detail})")


@pytest.fixture(scope="module")
def exhaustive_sweep():
    """Criteria 1 and 6 share one enumeration sweep: 20 pairs at V=3 plus 10 at V=4."""
    results = []
    for vocab, n_pairs in ((3, 20), (4, 10)):
        for pair_index in range(n_pairs):
            p, q = pair_for(1000 * vocab + pair_index, vocab=vocab, depth=3, eps=0.8)
            target = target_joint_distribution(p, 3)
            for verifier in VERIFIERS:
                yielded = enumerate_yield(verifier, p, q, 3, 3)
                results.append(
                    {
                        "vocab": vocab,
                        "pair": pair_index,
                        "verifier": verifier,
                        "tv": total_variation(yielded, target),
                        "total": yielded.total(),
                    }
                )
    return results


def test_criterion_1_exhaustive_losslessness(exhaustive_sweep):
    worst = max(r["tv"] for r in exhaustive_sweep)
    passed = worst < TV_TOL
    report(1, "losslessness (exhaustive)", passed, f"{len(exhaustive_sweep)} enumerations, worst tv={worst:.3e} < {TV_TOL}")
    assert passed


def test_criterion_2_multidraft_monte_carlo():
    spec = ModelPairSpec(2, 3, seed=20_002, divergence_knob=0.8, concentration=1.0)
    p, q = generate_model_pair(spec)
    details = []
    passed = True
    for k in (2, 3):
        t0 = time.time()
        fit = monte_carlo_fit("multidraft-hsd", p, q, 2, 2, 1_000_000, 9000 + k, k_drafts=k)
        details.append(
            f"K={k}: tv={fit.tv:.2e} (bound {fit.tv_bound:.2e}), max_z={fit.max_z:.2f}, {time.time() - t0:.0f}s"
        )
        passed = passed and fit.passed
    report(2, "losslessness (multi-draft Monte Carlo)", passed, "; ".join(details))
    assert passed


def block_clamps(trace):
    """Block verification's running clamp ``p_i = min(p_{i-1} * r_i, 1)``, ``p_0 = 1``."""
    clamp, values = 1.0, []
    for cr in ratio_chain(trace).cond_r:
        clamp = min(clamp * cr, 1.0)
        values.append(clamp)
    return tuple(values)


def exact_block_ordering(p, q, gamma, chain_builder=blockwise_acceptance_chain):
    """Check block >= token exactly over every draft of one pair, by enumeration.

    For each drafted prefix ``x^{1:i}``, the draft-weighted mean over all
    continuations of blockwise ``P(tau >= i) = 1 - prod_{t >= i} (1 - h_t)``
    must equal the clamp ``p_i(x^{1:i})``, and the clamp must be at least
    tokenwise ``P(tau >= i) = prod_{j <= i} min(1, r_j)``.  Summed over ``i``
    the two give ``E_q[E_block] >= E_q[E_token]``.
    """
    mass = defaultdict(float)  # draft probability of each prefix
    survival = defaultdict(float)  # draft-weighted blockwise P(tau >= len(prefix))
    clamp, token = {}, {}
    mean_block = mean_token = 0.0
    for tokens in product(range(p.vocab_size), repeat=gamma):
        trace = trace_for(q, p, (), tokens)
        weight = q.joint(tokens)
        h = chain_builder(trace)
        clamps, token_h = block_clamps(trace), tokenwise_chain(trace)
        tail = 1.0
        for i in range(gamma, 0, -1):
            tail *= 1.0 - h[i - 1]
            prefix = tokens[:i]
            mass[prefix] += weight
            survival[prefix] += weight * (1.0 - tail)
            clamp[prefix] = clamps[i - 1]
            token[prefix] = math.prod(token_h[:i])
        mean_block += weight * expected_accept_length(h, "backward")
        mean_token += weight * method_expected_tau("tokenwise", trace)
    return {
        "prefixes": len(mass),
        "worst": max(abs(survival[x] / mass[x] - clamp[x]) for x in mass),
        "token_above": sum(token[x] > clamp[x] for x in mass),
        "mean_block": mean_block,
        "mean_token": mean_token,
    }


def exact_block_ordering_sweep(chain_builder=blockwise_acceptance_chain):
    """``exact_block_ordering`` over every pair of the exact grid."""
    return [exact_block_ordering(p, q, gamma, chain_builder) for p, q, gamma in exact_grid_pairs()]


def test_criterion_3_expected_length_ordering():
    grid = [(v, g, e) for v in (8, 32) for g in (5, 10) for e in (0.1, 0.5, 1.0)]
    n_traces = 10_000
    rows = []
    for index, (vocab, gamma, eps) in enumerate(grid):
        p, q = pair_for(30_000 + index, vocab=vocab, depth=gamma, eps=eps, conc=1.0)
        branch_block_bad = block_token_bad = 0
        strict_chain = strict_branch_block = strict_block_token = 0
        for i in range(n_traces):
            trace = sample_draft(q, p, (), gamma, substream(31_000 + index, i))
            e_tok = method_expected_tau("tokenwise", trace)
            e_blk = method_expected_tau("blockwise", trace)
            e_hsd = method_expected_tau("hsd", trace)
            if e_hsd < e_blk - ORDER_SLACK:
                branch_block_bad += 1
            if e_blk < e_tok - ORDER_SLACK:
                block_token_bad += 1
            if e_hsd > e_tok + 1e-9:
                strict_chain += 1
            if e_hsd > e_blk + 1e-9:
                strict_branch_block += 1
            if e_blk > e_tok + 1e-9:
                strict_block_token += 1
        rows.append(
            {
                "vocab": vocab,
                "gamma": gamma,
                "eps": eps,
                "branch_block_bad": branch_block_bad,
                "block_token_bad": block_token_bad,
                "strict_chain": strict_chain / n_traces,
                "strict_branch_block": strict_branch_block / n_traces,
                "strict_block_token": strict_block_token / n_traces,
            }
        )
        print(
            f"  criterion 3 config V={vocab:2d} gamma={gamma:2d} eps={eps:3.1f}: "
            f"violations branch>=block {branch_block_bad}; per-trace block<token {block_token_bad}; "
            f"strict chain {strict_chain / n_traces:.1%} (branch>block {strict_branch_block / n_traces:.1%},"
            f" block>token {strict_block_token / n_traces:.1%})"
        )
    # gamma = 1: exact three-way equality per trace (to a ulp of the mode formulas)
    gamma_one_bad = 0
    p1, q1 = pair_for(32_000, vocab=8, depth=1, eps=0.5, conc=1.0)
    for i in range(1000):
        trace = sample_draft(q1, p1, (), 1, substream(33_000, i))
        values = [method_expected_tau(m, trace) for m in ("tokenwise", "blockwise", "hsd")]
        if max(values) - min(values) > GAMMA_ONE_TOL:
            gamma_one_bad += 1

    # block >= token as block verification promises it: exactly, over every draft
    exact = exact_block_ordering_sweep()
    worst_survival = max(r["worst"] for r in exact)
    token_above = sum(r["token_above"] for r in exact)
    mean_bad = sum(r["mean_block"] < r["mean_token"] - ORDER_SLACK for r in exact)

    branch_block_total = sum(r["branch_block_bad"] for r in rows)
    block_token_total = sum(r["block_token_bad"] for r in rows)
    strict_ok = all(r["strict_chain"] >= 0.01 for r in rows)
    exact_ok = worst_survival <= SURVIVAL_TOL and token_above == 0 and mean_bad == 0
    passed = branch_block_total == 0 and strict_ok and gamma_one_bad == 0 and exact_ok
    report(
        3,
        "expected-length ordering",
        passed,
        f"branch>=block violations {branch_block_total}/120000, strict-chain>=1% {'yes' if strict_ok else 'no'}, "
        f"gamma=1 equality violations {gamma_one_bad}/1000; exact over {sum(r['prefixes'] for r in exact)} "
        f"drafted prefixes of {len(exact)} pairs: worst |E_q[P_block(tau>=i)] - p_i| = {worst_survival:.1e} "
        f"<= {SURVIVAL_TOL}, p_i < P_token(tau>=i) on {token_above}, E_q[block] < E_q[token] on {mean_bad} pairs; "
        f"reported, not asserted: per-trace block<token on {block_token_total}/120000 (docs/criterion-3.md)",
    )
    assert branch_block_total == 0, "capped branch expected length fell below blockwise"
    assert strict_ok, "strict ordering not observed on at least 1% of traces"
    assert gamma_one_bad == 0, "methods disagree at gamma=1"
    assert worst_survival <= SURVIVAL_TOL, (
        f"blockwise P(tau >= i), averaged over the draft's continuations, misses the clamp p_i by {worst_survival:.3e}"
    )
    assert token_above == 0, f"the clamp p_i fell below tokenwise P(tau >= i) on {token_above} drafted prefixes"
    assert mean_bad == 0, f"E_q[E[tau]_block] < E_q[E[tau]_token] on {mean_bad} pairs"


def test_criterion_3_exact_check_detects_corrupted_block_chains():
    # the exact block-vs-token check must fail for a blockwise chain that is
    # wrong; each corruption keeps h a probability
    def doubled(trace):
        return tuple(min(2.0 * v, 1.0) for v in blockwise_acceptance_chain(trace))

    def clamp_as_h(trace):
        return block_clamps(trace)

    def last_forced_to_one(trace):
        return blockwise_acceptance_chain(trace)[:-1] + (1.0,)

    worst = {
        builder.__name__: max(r["worst"] for r in exact_block_ordering_sweep(builder))
        for builder in (doubled, clamp_as_h, last_forced_to_one)
    }
    print(f"  criterion 3 exact check on corrupted chains: worst deviation {worst}")
    assert all(value > SURVIVAL_TOL for value in worst.values()), worst


def block_residual(trace, t, clamp):
    """Block verification's residual after a rejection at ``t``: ``∝ max(p_t p(x) - q(x), 0)``, or None."""
    num = [max(clamp * px - qx, 0.0) for px, qx in zip(trace.p_dists[t], trace.q_dists[t])]
    den = math.fsum(num)
    return tuple(n / den for n in num) if den > 0.0 else None


def test_capped_hsd_is_block_verification():
    # docs/capped-hsd-is-block.md: over every draft of criterion 3's exact
    # grid, capped-hsd's chain, residuals and whole-draft acceptance are
    # block verification's
    worst_chain = worst_residual = worst_whole = 0.0
    compared = degenerate = unreachable_degenerate = 0
    for p, q, gamma in exact_grid_pairs():
        for tokens in product(range(p.vocab_size), repeat=gamma):
            trace = trace_for(q, p, (), tokens)
            h = capped_hsd_chain(trace)
            block_h = blockwise_acceptance_chain(trace)
            worst_chain = max(worst_chain, *(abs(a - b) for a, b in zip(h, block_h)))
            whole = whole_draft_acceptance(trace)
            worst_whole = max(worst_whole, abs(whole["ours"] - whole["block"]))
            clamps = (1.0,) + block_clamps(trace)
            for t in range(gamma):
                want = block_residual(trace, t, clamps[t])
                try:
                    got = capped_branch_residual(trace, t)
                except ValueError:
                    got = None
                assert (got is None) == (want is None), (tokens, t, got, want)
                if got is None:
                    # a resample at t needs h_t > 0 (t > 0) and every later test rejected
                    degenerate += 1
                    unreachable_degenerate += (t > 0 and h[t - 1] == 0.0) or 1.0 in h[t:]
                    continue
                compared += 1
                worst_residual = max(worst_residual, *(abs(a - b) for a, b in zip(got, want)))
    print(
        f"  capped-hsd = block: worst chain gap {worst_chain:.1e}, worst residual gap {worst_residual:.1e}"
        f" over {compared} residuals ({degenerate} degenerate in both, {unreachable_degenerate} of them"
        f" unreachable), worst whole-draft gap {worst_whole:.1e}"
    )
    assert worst_chain <= 1e-12
    assert worst_residual <= 1e-12
    assert unreachable_degenerate == degenerate
    assert worst_whole <= 1e-12


def test_criterion_4_reference_vectors():
    checks = run_checks(1e-3)
    tau = backward_scan(REFERENCE_BRANCH_H, substream(40_000))
    ok = all(c.ok for c in checks) and tau == REFERENCE_ACCEPTED_LENGTH
    detail = ", ".join(f"{c.name} err={c.max_error:.1e}" for c in checks) + f", scan tau={tau}"
    report(4, "reference worked-example vectors", ok, detail)
    assert ok


def test_criterion_5_theory_identities():
    rng = np.random.default_rng(50_000)
    failures = []

    def dist(size):
        w = rng.random(size) + 1e-3
        total = math.fsum(w.tolist())
        return tuple(v / total for v in w.tolist())

    # symmetry and half-L1 equivalence over the full space
    for _ in range(150):
        p_dist, q_dist = dist(6), dist(6)
        full = range(6)
        d_pq = generalized_divergence(p_dist, q_dist, full)
        d_qp = generalized_divergence(q_dist, p_dist, full)
        if abs(d_pq - d_qp) > 1e-12:
            failures.append("symmetry")
        half_l1 = 0.5 * math.fsum(abs(a - b) for a, b in zip(p_dist, q_dist))
        if abs(d_pq - half_l1) > 1e-12:
            failures.append("half-L1")

    # asymmetry identity and hierarchy, both directions
    checked = 0
    for seed in range(25):
        p, q = pair_for(51_000 + seed, vocab=3, depth=4, eps=0.9)
        for prefix in [(), (0,), (1, 2), (2,)]:
            bd = branch_divergences(p, q, prefix)
            if abs(bd.asymmetry - (p.joint(prefix) - q.joint(prefix))) > 1e-10:
                failures.append("asymmetry")
            lhs, rhs = hierarchy_check(p, q, prefix)
            if abs(lhs - rhs) > 1e-10:
                failures.append("hierarchy")
            lhs, rhs = hierarchy_check(q, p, prefix)
            if abs(lhs - rhs) > 1e-10:
                failures.append("hierarchy-mirror")
            checked += 1
    assert checked >= 100

    # suffix-minimum closed form, capped-vs-blockwise dominance, telescoping
    telescoped = 0
    for seed in range(300):
        p, q = pair_for(52_000 + seed, vocab=4, depth=6, eps=1.0)
        trace = sample_draft(q, p, (), 6, substream(53_000, seed))
        chain = ratio_chain(trace)
        clamp = 1.0
        for t in range(1, trace.gamma + 1):
            clamp = min(clamp * chain.cond_r[t - 1], 1.0)
            best = 1.0
            for s in range(t):
                prod = 1.0
                for i in range(s, t):
                    prod *= chain.cond_r[i]
                best = min(best, prod)
            if abs(clamp - best) > 1e-12:
                failures.append("suffix-min")
        for hb, hk in zip(capped_hsd_chain(trace), blockwise_acceptance_chain(trace)):
            if hb < hk - 1e-10:
                failures.append("dominance")
        caps = unique_capping_indices(chain)
        if caps:
            telescoped += 1
            p_cum, q_cum = joint_products(trace)

            def segmented(idx):
                value = q_cum[idx]
                for j in range(idx, trace.gamma):
                    value *= trace.p_dists[j][trace.tokens[j]]
                return value

            bounds = (0,) + caps
            for prev, cur in zip(bounds[:-1], bounds[1:]):
                fragment = chain.r[cur - 1] / (chain.r[prev - 1] if prev > 0 else 1.0)
                mass = max(fragment - 1.0, 0.0) * segmented(cur)
                if abs(mass - (segmented(prev) - segmented(cur))) > 1e-10:
                    failures.append("telescoping")
    assert telescoped >= 100

    passed = not failures
    report(5, "theory identities", passed, f"failures={sorted(set(failures)) or 'none'}, telescoped traces={telescoped}")
    assert passed, failures


def test_criterion_6_conservation(exhaustive_sweep):
    worst_total = max(abs(r["total"] - 1.0) for r in exhaustive_sweep)
    residual_bad = 0
    checked = 0
    for seed in range(100):
        p, q = pair_for(60_000 + seed, vocab=3, depth=4, eps=1.0)
        trace = sample_draft(q, p, (), 3, substream(61_000, seed))
        dists = []
        for t in range(3):
            try:
                dists.append(tokenwise_residual(trace.p_dists[t], trace.q_dists[t]))
            except ValueError:
                pass
            try:
                dists.append(capped_branch_residual(trace, t))
            except ValueError:
                pass
            try:
                dists.append(naive_branch_residual(p, q, trace.tokens[:t]))
            except ValueError:
                pass
        for dist in dists:
            checked += 1
            if math.fsum(dist) > 1.0 + 1e-12 or min(dist) < 0.0:
                residual_bad += 1
    passed = worst_total < CONSERVATION_TOL and residual_bad == 0
    report(
        6,
        "conservation",
        passed,
        f"worst |total-1|={worst_total:.3e} < {CONSERVATION_TOL}, {checked} residual distributions, {residual_bad} bad",
    )
    assert passed


def test_criterion_7_mutation_sensitivity():
    # doubling acceptance probabilities must break criterion-1-style sweeps
    # for every verifier, and the Monte Carlo fit for the capped verifier
    detected = {}
    for verifier in VERIFIERS:
        bad = 0
        for seed in range(10):
            p, q = pair_for(70_000 + seed, vocab=3, depth=3, eps=0.8)
            yielded = enumerate_yield(verifier, p, q, 3, 3, mutate="h-double")
            if total_variation(yielded, target_joint_distribution(p, 3)) >= TV_TOL:
                bad += 1
        detected[f"h-double/{verifier}"] = bad
    bad = 0
    for seed in range(20):
        p, q = pair_for(70_000 + seed, vocab=3, depth=3, eps=0.8)
        yielded = enumerate_yield("capped-hsd", p, q, 3, 3, mutate="unclamp")
        if total_variation(yielded, target_joint_distribution(p, 3)) >= TV_TOL:
            bad += 1
    detected["unclamp/capped-hsd"] = bad
    p, q = pair_for(70_001, vocab=3, depth=3, eps=0.8)
    mc = monte_carlo_fit("capped-hsd", p, q, 2, 2, 50_000, 71_000, mutate="h-double")
    detected["h-double/mc"] = 0 if mc.passed else 1
    passed = all(v >= 1 for v in detected.values())
    report(7, "mutation sensitivity", passed, ", ".join(f"{k}={v}" for k, v in detected.items()))
    assert passed, detected


def test_criterion_8_determinism(tmp_path):
    from specverify.cli import main

    byte_pairs = []
    for command, args in (
        ("oracle", ["oracle", "--vocab", "3", "--gamma", "3", "--pairs", "5", "--seed", "88"]),
        ("bench", ["bench", "--vocab", "4,6", "--gamma", "2,3", "--eps", "0.4", "--trials", "300", "--seed", "88"]),
    ):
        outputs = []
        for workers in (1, 3):
            out = tmp_path / f"{command}_{workers}.out"
            main(args + ["--workers", str(workers), "--out", str(out)])
            outputs.append(out.read_bytes())
        byte_pairs.append((command, outputs[0] == outputs[1]))
    passed = all(ok for _, ok in byte_pairs)
    report(8, "determinism across worker counts", passed, ", ".join(f"{c}={'identical' if ok else 'DIFFERS'}" for c, ok in byte_pairs))
    assert passed
