import collections
import dataclasses
import hashlib
import json
import math
import struct
import threading
from itertools import product

import pytest

from specverify import models, oracle, verify
from specverify.models import (
    ModelPairSpec,
    TableArModel,
    generate_model_pair,
    sample_draft,
    substream,
    trace_for,
    uniforms,
)
from specverify.oracle import (
    SINGLE_DRAFT_VERIFIERS,
    YieldDistribution,
    enumerate_yield,
    monte_carlo_fit,
    target_joint_distribution,
    total_variation,
)
from specverify.verify import (
    capped_hsd_verify,
    multidraft_hsd_verify,
    multidraft_tokenwise_verify,
    naive_hsd_verify,
    tokenwise_verify,
)

from conftest import pair_for, stray_tokenwise


@pytest.mark.parametrize("verifier", SINGLE_DRAFT_VERIFIERS)
def test_identical_models_yield_the_target_exactly(identical_pair, verifier):
    p, q = identical_pair
    yielded = enumerate_yield(verifier, p, q, 3, 3)
    assert total_variation(yielded, target_joint_distribution(p, 3)) <= 1e-12


@pytest.mark.parametrize("verifier", SINGLE_DRAFT_VERIFIERS)
def test_random_pairs_are_lossless(verifier):
    for seed in range(5):
        p, q = pair_for(seed, vocab=3, depth=3, eps=1.0)
        yielded = enumerate_yield(verifier, p, q, 3, 3)
        assert total_variation(yielded, target_joint_distribution(p, 3)) <= 1e-9
        assert abs(yielded.total() - 1.0) <= 1e-9


# Refutation TVs of pair_for(0, vocab=3, eps=1.0), taken with the recursive
# enumeration that the level-by-level push replaced: (depth, gamma, length) ->
# h-double TV per single-draft verifier, then capped-hsd's unclamp TV.  The
# second config runs target continuations past the bonus token.
PINNED_REFUTATION_TVS = {
    (3, 3, 3): (0.2972987942860805, 0.2668943197326449, 0.18951392117288965, 0.02296920744170482),
    (4, 2, 4): (0.27341743272759855, 0.2298690660645002, 0.1797475934498639, 0.06470696759647031),
}


@pytest.mark.parametrize("depth, gamma, length", sorted(PINNED_REFUTATION_TVS))
def test_refutation_tvs_match_the_pinned_enumeration(depth, gamma, length):
    p, q = pair_for(0, vocab=3, depth=depth, eps=1.0)
    target = target_joint_distribution(p, length)
    runs = [(v, "h-double") for v in SINGLE_DRAFT_VERIFIERS] + [("capped-hsd", "unclamp")]
    for (verifier, mutate), want in zip(runs, PINNED_REFUTATION_TVS[depth, gamma, length]):
        tv = total_variation(enumerate_yield(verifier, p, q, gamma, length, mutate=mutate), target)
        assert abs(tv - want) <= 1e-12 * want, (verifier, mutate, tv, want)
    for verifier in SINGLE_DRAFT_VERIFIERS:
        yielded = enumerate_yield(verifier, p, q, gamma, length)
        assert total_variation(yielded, target) < 1e-9, verifier
        assert abs(yielded.total() - 1.0) < 1e-9, verifier


def test_target_joint_distribution_is_the_model_joint_bit_for_bit():
    p, _ = pair_for(2, vocab=3, depth=4, eps=1.0)
    target = target_joint_distribution(p, 4)
    assert len(target.probs) == 3**4
    for seq in product(range(3), repeat=4):
        assert target.probs[seq] == p.joint(seq), seq


def test_larger_grid_certifies_and_refutes():
    # V=6, gamma=L=5: 7,776 drafts per verifier
    p, q = pair_for(0, vocab=6, depth=5, eps=0.8)
    target = target_joint_distribution(p, 5)
    for verifier in SINGLE_DRAFT_VERIFIERS:
        yielded = enumerate_yield(verifier, p, q, 5, 5)
        assert total_variation(yielded, target) < 1e-9, verifier
        assert abs(yielded.total() - 1.0) < 1e-9, verifier
    mutated = enumerate_yield("naive-hsd", p, q, 5, 5, mutate="h-double")
    assert total_variation(mutated, target) > 0.1


def test_enumeration_guards():
    p, q = pair_for(0, vocab=3, depth=3)
    with pytest.raises(ValueError):
        enumerate_yield("capped-hsd", p, q, 3, 2)  # length shorter than draft
    with pytest.raises(ValueError):
        enumerate_yield("nonsense", p, q, 3, 3)
    with pytest.raises(ValueError):
        enumerate_yield("capped-hsd", p, q, 3, 4)  # models too shallow for length
    big_p, big_q = pair_for(0, vocab=12, depth=6, eps=0.3)
    with pytest.raises(ValueError):
        enumerate_yield("capped-hsd", big_p, big_q, 6, 6)  # 12^6 drafts


def test_total_variation_properties():
    a = YieldDistribution({(0,): 1.0}, 1)
    b = YieldDistribution({(1,): 1.0}, 1)
    assert total_variation(a, a) == 0.0
    assert total_variation(a, b) == 1.0
    with pytest.raises(ValueError):
        total_variation(a, YieldDistribution({(0, 0): 1.0}, 2))


def test_total_variation_is_half_l1():
    p, q = pair_for(3, vocab=3, depth=2, eps=1.0)
    a = target_joint_distribution(p, 2)
    b = target_joint_distribution(q, 2)
    half_l1 = 0.5 * math.fsum(abs(a.probs[k] - b.probs[k]) for k in a.probs)
    assert abs(total_variation(a, b) - half_l1) <= 1e-15


def test_monte_carlo_requires_enough_trials(small_pair):
    p, q = small_pair
    with pytest.raises(ValueError):
        monte_carlo_fit("capped-hsd", p, q, 3, 3, 5000, 1)


def test_monte_carlo_passes_for_identical_models(identical_pair):
    p, q = identical_pair
    report = monte_carlo_fit("capped-hsd", p, q, 3, 3, 20_000, 11)
    assert report.passed
    assert report.tv < report.tv_bound


def test_monte_carlo_passes_for_a_real_pair(small_pair):
    p, q = small_pair
    report = monte_carlo_fit("tokenwise", p, q, 3, 3, 30_000, 12)
    assert report.passed


def test_monte_carlo_catches_a_corrupted_verifier(small_pair):
    p, q = small_pair
    report = monte_carlo_fit("capped-hsd", p, q, 3, 3, 30_000, 13, mutate="h-double")
    assert not report.passed
    assert report.z_violations >= 1


def test_enumeration_catches_doubled_acceptance():
    detected = 0
    for seed in range(5):
        p, q = pair_for(seed, vocab=3, depth=3, eps=1.0)
        yielded = enumerate_yield("capped-hsd", p, q, 3, 3, mutate="h-double")
        if total_variation(yielded, target_joint_distribution(p, 3)) > 1e-9:
            detected += 1
    assert detected == 5


def test_enumeration_catches_unclamped_acceptance():
    detected = 0
    for seed in range(20):
        p, q = pair_for(seed, vocab=3, depth=3, eps=1.0)
        yielded = enumerate_yield("capped-hsd", p, q, 3, 3, mutate="unclamp")
        if total_variation(yielded, target_joint_distribution(p, 3)) > 1e-9:
            detected += 1
    assert detected >= 1


def test_mutation_validation(small_pair, monkeypatch):
    p, q = small_pair
    with pytest.raises(ValueError):
        enumerate_yield("capped-hsd", p, q, 3, 3, mutate="nonsense")
    with pytest.raises(ValueError):
        enumerate_yield("tokenwise", p, q, 3, 3, mutate="unclamp")

    def no_trial(*args):
        raise AssertionError("a trial ran before the mutation was validated")

    monkeypatch.setattr(oracle, "_simulate_sequence", no_trial)
    with pytest.raises(ValueError):
        monte_carlo_fit("capped-hsd", p, q, 3, 3, 10_000, 1, mutate="unclamp")
    with pytest.raises(ValueError):
        monte_carlo_fit("capped-hsd", p, q, 3, 3, 10_000, 1, mutate="nonsense")
    with pytest.raises(ValueError):
        monte_carlo_fit("multidraft-hsd", p, q, 3, 3, 10_000, 1, k_drafts=2, mutate="h-double")


def test_monte_carlo_is_worker_count_independent(small_pair):
    p, q = small_pair
    serial = monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 21, workers=1)
    parallel = monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 21, workers=3)
    assert serial == parallel
    # a draft model deeper than the target is shipped at its own depth
    deep_q = pair_for(101, vocab=3, depth=5, eps=0.8, conc=1.2)[1]
    assert monte_carlo_fit("capped-hsd", p, deep_q, 2, 2, 10_000, 21, workers=2) == serial


def test_monte_carlo_derives_one_substream_per_trial_from_one_block_at_a_time(monkeypatch):
    p, q = pair_for(5, vocab=2, depth=3, eps=0.8)
    calls = []

    def counted(*keys):
        calls.append(keys)
        assert len(models._stored) <= 1024
        return uniforms(*keys)

    monkeypatch.setattr(oracle, "uniforms", counted)
    monte_carlo_fit("tokenwise", p, q, 2, 2, 10_000, 17)
    assert calls == [(17, trial) for trial in range(10_000)]
    assert not models._stored


def test_a_fit_that_raises_leaves_no_stored_state(monkeypatch):
    p, q = pair_for(5, vocab=2, depth=3, eps=0.8)
    simulate, trials = oracle._simulate_sequence, []

    def fails_at_1500(*args):
        trials.append(len(models._stored))
        if len(trials) > 1_500:
            raise RuntimeError("trial 1,500 failed")
        return simulate(*args)

    monkeypatch.setattr(oracle, "_simulate_sequence", fails_at_1500)
    with pytest.raises(RuntimeError, match="1,500"):
        monte_carlo_fit("tokenwise", p, q, 2, 2, 10_000, 17)
    assert len(trials) == 1_501 and max(trials) == 1024
    assert not models._stored


# every single-draft verifier, healthy and h-double, and multidraft-hsd at K=3
PLANNED_FITS = [(v, 1, m) for m in (None, "h-double") for v in SINGLE_DRAFT_VERIFIERS] + [("multidraft-hsd", 3, None)]


def open_runs_with_cap(monkeypatch, cap):
    """Make every run memo the oracle opens store at most ``cap`` entries."""
    monkeypatch.setattr(oracle, "run_memo", lambda _: models.run_memo(cap))


def memo_kinds(memo):
    """A run memo's entries counted by key shape: trie nodes, plans and branch sums."""
    return collections.Counter(
        "node" if isinstance(key[0], (TableArModel, models._Node)) else "plan" if len(key) == 2 else "sums"
        for key in memo
    )


@pytest.mark.parametrize("verifier, drafts, mutate", PLANNED_FITS + [("multidraft-tokenwise", 3, None)])
def test_a_fit_that_stores_no_plans_is_the_same_fit(monkeypatch, verifier, drafts, mutate):
    p, q = pair_for(5, vocab=2, depth=3, eps=0.8)
    trial_counts, tallies = oracle._trial_counts, []

    def tallied(*args):
        tallies.append(trial_counts(*args))
        return tallies[-1]

    monkeypatch.setattr(oracle, "_trial_counts", tallied)

    def fit():
        report = monte_carlo_fit(verifier, p, q, 2, 2, 10_000, 31, k_drafts=drafts, mutate=mutate)
        return tallies[-1], report.to_dict()

    stored = fit()
    for cap in (0, 5):  # nothing stored; a memo full after its first five entries
        open_runs_with_cap(monkeypatch, cap)
        assert fit() == stored
    assert stored[1]["pass"] == (mutate is None)  # h-double is still caught


def test_a_run_memo_never_outgrows_its_cap(monkeypatch):
    p, q = pair_for(5, vocab=3, depth=4, eps=0.8)  # 27 drafts, more sub-traces
    simulate, sizes, memos = oracle._simulate_sequence, [], []
    chain, builds = verify.capped_hsd_chain, []
    trace_for, drafts = models.trace_for, []

    def measured(*args):
        seq = simulate(*args)
        sizes.append(len(models._run.memo))
        memos.append(models._run.memo)
        return seq

    def counted(trace):
        builds.append(trace)
        return chain(trace)

    def assembled(q, p, prefix, tokens):
        drafts.append(tokens)
        return trace_for(q, p, prefix, tokens)

    monkeypatch.setattr(oracle, "_simulate_sequence", measured)
    monkeypatch.setattr(verify, "capped_hsd_chain", counted)
    monkeypatch.setattr(models, "trace_for", assembled)
    for cap in (models.RUN_MEMO_CAP, 5):
        open_runs_with_cap(monkeypatch, cap)
        sizes.clear(), memos.clear(), builds.clear(), drafts.clear()
        monte_carlo_fit("multidraft-hsd", p, q, 3, 3, 10_000, 32, k_drafts=3)
        assert len(sizes) == 10_000 and max(sizes) <= cap and len({id(memo) for memo in memos}) == 1
        kinds = memo_kinds(memos[-1])
        if cap == 5:  # full: every trace or draft not stored is built again
            assert max(sizes) == 5 and len(builds) > 1_000 and len(drafts) > 1_000
        else:  # room for all: each distinct trace is built once, each draft assembled once
            assert len(builds) == kinds["plan"] == len(set(builds)) > 5 and kinds["sums"] > 0
            assert len(drafts) == len(set(drafts)) == 27 and kinds["node"] == 1 + 3 + 9 + 27


def test_no_run_memo_outlives_its_fit(monkeypatch):
    p, q = pair_for(5, vocab=2, depth=3, eps=0.8)
    monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 17)
    assert models._run.memo is None
    simulate, memos = oracle._simulate_sequence, []

    def fails_at_1500(*args):
        memos.append(models._run.memo)
        if len(memos) > 1_500:
            raise RuntimeError("trial 1,500 failed")
        return simulate(*args)

    monkeypatch.setattr(oracle, "_simulate_sequence", fails_at_1500)
    with pytest.raises(RuntimeError, match="1,500"):
        monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 17)
    kinds = memo_kinds(memos[-1])
    assert len(memos) == 1_501 and len({id(memo) for memo in memos}) == 1
    assert 0 < kinds["plan"] <= 4 and kinds["node"] == 1 + 2 + 4
    assert models._run.memo is None and models._run.cap == 0


def test_a_chain_rebound_between_fits_is_seen_by_the_next_fit(monkeypatch):
    p, q = generate_model_pair(ModelPairSpec(2, 3, 20_002, 0.8))
    healthy = monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 33)
    chain = verify.capped_hsd_chain
    monkeypatch.setattr(verify, "capped_hsd_chain", lambda trace: oracle._doubled(chain(trace)))
    rebound = monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 33)
    monkeypatch.setattr(verify, "capped_hsd_chain", chain)
    doubled = monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 33, mutate="h-double")
    assert healthy.passed and not rebound.passed
    assert rebound == dataclasses.replace(doubled, mutate=None)


def test_a_conditional_rebound_between_fits_is_seen_by_the_next_fit(monkeypatch):
    p, q = generate_model_pair(ModelPairSpec(2, 3, 20_002, 0.8))
    drafted = monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 33)
    monkeypatch.setattr(q, "conditional", p.conditional)  # the draft model now drafts from the target
    rebound = monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 33)
    assert rebound != drafted
    assert rebound == monte_carlo_fit("capped-hsd", p, p, 2, 2, 10_000, 33)


ENUMERATED_RUNS = [(v, m) for v in SINGLE_DRAFT_VERIFIERS for m in (None, "h-double")] + [("capped-hsd", "unclamp")]


@pytest.mark.parametrize("verifier, mutate", ENUMERATED_RUNS)
def test_a_certificate_that_stores_no_prefixes_is_the_same_certificate(monkeypatch, verifier, mutate):
    p, q = pair_for(3, vocab=3, depth=5, eps=1.0)
    stored = [enumerate_yield(verifier, p, q, 3, length, mutate=mutate) for length in (3, 5)]
    for cap in (0, 5):  # no branch sum stored; a memo full after its first five
        open_runs_with_cap(monkeypatch, cap)
        for length, certified in zip((3, 5), stored):
            unstored = enumerate_yield(verifier, p, q, 3, length, mutate=mutate)
            assert {k: v.hex() for k, v in unstored.probs.items()} == {k: v.hex() for k, v in certified.probs.items()}


@pytest.mark.parametrize("verifier, mutate", ENUMERATED_RUNS)
def test_a_certificate_builds_each_branch_and_residual_once_per_prefix(monkeypatch, verifier, mutate):
    vocab, gamma = 3, 4
    p, q = pair_for(4, vocab=vocab, depth=gamma, eps=1.0)
    builds = collections.Counter()

    def counted(name):
        build = getattr(verify, name)

        def counting(*args):
            builds[name] += 1
            return build(*args)

        monkeypatch.setattr(verify, name, counting)

    for name in ("capped_branch_masses", "tokenwise_residual", "capped_branch_residual"):
        counted(name)
    enumerate_yield(verifier, p, q, gamma, gamma, mutate=mutate)
    branches = sum(vocab**t for t in range(1, gamma))  # one per drafted prefix x_{1:t}, 1 <= t < gamma
    stems = sum(vocab**t for t in range(gamma))  # a residual at each x_{1:tau}, tau < gamma
    residuals = builds["tokenwise_residual"] + builds["capped_branch_residual"]
    assert residuals <= stems
    # a capped residual reads its branch from the memo; only the tau = 0 branch is built outside the chain
    masses = {"tokenwise": 0, "naive-hsd": branches, "capped-hsd": branches + 1}[verifier]
    assert builds["capped_branch_masses"] == masses


def test_no_run_memo_outlives_its_certificate(monkeypatch):
    p, q = pair_for(5, vocab=3, depth=3, eps=0.8)
    enumerate_yield("capped-hsd", p, q, 3)
    assert models._run.memo is None
    plan, scan = verify.SINGLE_DRAFT["capped-hsd"]
    sizes = []

    def fails_at_draft_20(trace):
        sizes.append(len(models._run.memo))
        if len(sizes) == 20:
            raise RuntimeError("draft 20 failed")
        return plan(trace)

    monkeypatch.setitem(verify.SINGLE_DRAFT, "capped-hsd", (fails_at_draft_20, scan))
    with pytest.raises(RuntimeError, match="draft 20"):
        enumerate_yield("capped-hsd", p, q, 3)
    assert len(sizes) == 20 and 0 < max(sizes) <= 3 + 9
    assert models._run.memo is None and models._run.cap == 0


def test_a_value_inside_an_open_run_memo_is_the_value_outside_it():
    chains = (verify.naive_hsd_chain, verify.capped_hsd_chain, verify._capped_ratios)
    pairs = [pair_for(seed, vocab=3, depth=4, eps=1.0) for seed in (6, 7)]
    drafts = list(product(range(3), repeat=3))

    def attempt(build, *args):
        try:
            return build(*args)
        except ValueError as error:  # a degenerate residual raises the same inside a run
            return str(error)

    def every_value(p, q):
        traces = [trace_for(q, p, (), draft) for draft in drafts]
        values = [chain(trace) for trace in traces for chain in chains]
        for trace, (plan, _) in product(traces, verify.SINGLE_DRAFT.values()):
            h, residual = verify._planned(plan, trace)
            values.append((h, residual and [attempt(residual, tau) for tau in range(trace.gamma)]))
        return values + [sample_draft(q, p, (), 3, substream(8, i)) for i in range(60)]

    outside = [every_value(p, q) for p, q in pairs]
    seen_from_a_thread = []
    with models.run_memo(models.RUN_MEMO_CAP):
        assert every_value(*pairs[0]) == outside[0]
        filled = memo_kinds(models._run.memo)
        assert min(filled.values()) > 0
        # the other pair drafts the same tokens: an entry keyed by its tokens alone would serve it the wrong values
        assert every_value(*pairs[1]) == outside[1]
        grown = memo_kinds(models._run.memo)
        assert all(grown[kind] > filled[kind] for kind in ("node", "plan", "sums"))
        thread = threading.Thread(target=lambda: seen_from_a_thread.append((models._run.memo, every_value(*pairs[1]))))
        thread.start()
        thread.join(timeout=60)
        assert not thread.is_alive()
        assert memo_kinds(models._run.memo) == grown  # the thread's values neither read nor grew it
    assert seen_from_a_thread == [(None, outside[1])]
    assert models._run.memo is None


def test_gamma_below_one_is_refused_before_any_work(monkeypatch):
    p, q = pair_for(5, vocab=2, depth=3, eps=0.8)

    def no_work(*args):
        raise AssertionError("work started before gamma was checked")

    monkeypatch.setattr(oracle, "_trial_counts", no_work)
    monkeypatch.setattr(oracle, "trace_for", no_work)
    for gamma in (0, -1):
        # gamma is named first, ahead of every other bad argument
        with pytest.raises(ValueError, match=rf"^gamma must be >= 1, got {gamma}$"):
            monte_carlo_fit("nonsense", p, q, gamma, -5, 10, 1, k_drafts=0)
        with pytest.raises(ValueError, match=rf"^gamma must be >= 1, got {gamma}$"):
            enumerate_yield("nonsense", p, q, gamma, -5)


def test_the_enumeration_guard_is_checked_before_any_trial(monkeypatch):
    p, q = pair_for(5, vocab=20, depth=5, eps=0.8)

    def no_trials(*args):
        raise AssertionError("trials ran before the enumeration guard was checked")

    monkeypatch.setattr(oracle, "_trial_counts", no_trials)
    monkeypatch.setattr(oracle, "pool_map", no_trials)
    for workers in (1, 2):
        with pytest.raises(ValueError, match=r"^20\^4 sequences exceed the enumeration guard$"):
            monte_carlo_fit("capped-hsd", p, q, 2, 4, 10_000, 1, workers=workers)


def test_a_target_joint_deeper_than_its_model_is_refused():
    p, _ = pair_for(5, vocab=2, depth=1, eps=0.8)
    assert target_joint_distribution(p, 1).total() == pytest.approx(1.0)
    with pytest.raises(ValueError, match=r"^length 2 exceeds the target model's depth 1$"):
        target_joint_distribution(p, 2)


def test_monte_carlo_workers_ship_a_deep_generated_pair_without_its_tables(monkeypatch):
    p, q = pair_for(7, vocab=32, depth=8)  # 3.5e10 prefixes per model
    serial = monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 1, workers=1)

    def refuse(*args, **kwargs):
        raise AssertionError("a model's prefixes were materialised")

    monkeypatch.setattr(TableArModel, "prefixes", refuse)
    p, q = pair_for(7, vocab=32, depth=8)  # fresh memos: each worker regenerates what it asks for
    assert monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 1, workers=2) == serial


def test_monte_carlo_multidraft_small_run():
    p, q = pair_for(5, vocab=2, depth=3, eps=0.8)
    for verifier, k in (("multidraft-hsd", 3), ("multidraft-tokenwise", 2)):
        report = monte_carlo_fit(verifier, p, q, 2, 2, 20_000, 22, k_drafts=k)
        assert report.passed, (verifier, report.tv, report.max_z)


def test_monte_carlo_rejects_shallow_models():
    p, q = pair_for(6, vocab=2, depth=2, eps=0.5)
    with pytest.raises(ValueError):
        monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 1)  # no room for a bonus


def test_monte_carlo_reports_stray_sequences_as_a_failed_fit(monkeypatch):
    p, q = pair_for(5, vocab=2, depth=3, eps=0.8)
    monkeypatch.setattr(oracle, "tokenwise_verify", stray_tokenwise(100))
    report = monte_carlo_fit("tokenwise", p, q, 2, 2, 10_000, 24)
    assert not report.passed
    assert report.max_z == math.inf
    assert report.z_violations >= 1
    assert report.worst_sequence == (2, 2)
    assert report.worst_error == 100 / 10_000
    assert report.tv >= 0.5 * 100 / 10_000


def test_fit_report_round_trips_to_dict(small_pair):
    p, q = small_pair
    report = monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 23)
    doc = report.to_dict()
    assert doc["pass"] == report.passed
    assert doc["verifier"] == "capped-hsd"
    assert isinstance(doc["worst_sequence"], list)


def test_target_joint_guard():
    model = TableArModel(12, 8, generator=lambda prefix: (1.0 / 12,) * 12)
    with pytest.raises(ValueError):
        target_joint_distribution(model, 8)


def _verifier_outputs_digest() -> str:
    """SHA-256 over exact yields, seeded verifier outcomes and Monte Carlo fit reports."""
    digest = hashlib.sha256()
    # every exact yield, healthy and mutated; the last config runs target
    # continuations past the bonus token
    runs = [(v, None) for v in SINGLE_DRAFT_VERIFIERS] + [(v, "h-double") for v in SINGLE_DRAFT_VERIFIERS]
    runs.append(("capped-hsd", "unclamp"))
    for seed, vocab, depth, gamma, length in ((0, 2, 3, 3, 3), (1, 3, 3, 3, 3), (2, 3, 2, 2, 2), (0, 3, 4, 2, 4)):
        p, q = pair_for(seed, vocab=vocab, depth=depth, eps=1.0)
        for verifier, mutate in runs:
            yielded = enumerate_yield(verifier, p, q, gamma, length, mutate=mutate)
            for seq in sorted(yielded.probs):
                digest.update(bytes(seq) + struct.pack("<d", yielded.probs[seq]))
    # tau, emitted tokens and the full event log of every verifier on seeded traces
    p, q = pair_for(7, vocab=3, depth=4, eps=1.0)
    for i in range(400):
        traces = [sample_draft(q, p, (), 3, substream(95, i, k)) for k in range(3)]
        outcomes = (
            tokenwise_verify(traces[0], substream(96, i)),
            naive_hsd_verify(traces[0], p, q, substream(96, i)),
            capped_hsd_verify(traces[0], substream(96, i)),
            multidraft_hsd_verify(traces, substream(96, i)),
            multidraft_tokenwise_verify(traces, substream(96, i)),
        )
        for outcome in outcomes:
            digest.update(repr((outcome.tau, outcome.emitted, outcome.events)).encode())
    # whole fit reports, healthy and h-double, on a V=2 pair
    p, q = pair_for(5, vocab=2, depth=3, eps=0.8)
    for verifier, mutate in runs[:-1]:
        report = monte_carlo_fit(verifier, p, q, 2, 2, 10_000, 97, mutate=mutate)
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def test_verifier_outputs_match_the_golden_digest():
    assert _verifier_outputs_digest() == "7be23a52f14cda5e1da6d2abb0e83eb20fcc0fc5a0c7a4621faa06d828706267"
