import collections
import dataclasses
import hashlib
import json
import math
import re
import struct
import threading
from itertools import product

import numpy as np
import pytest

from specverify import models, oracle, verify
from specverify.models import (
    ModelPairSpec,
    TableArModel,
    generate_model_pair,
    sample_draft,
    stream_blocks,
    stream_run,
    substream,
    trace_for,
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


def test_enumeration_guards(small_pair):
    p, q = pair_for(0, vocab=3, depth=3)
    with pytest.raises(ValueError):
        enumerate_yield("capped-hsd", p, q, 3, 2)  # length shorter than draft
    with pytest.raises(ValueError):
        enumerate_yield("nonsense", p, q, 3, 3)
    with pytest.raises(ValueError):
        enumerate_yield("capped-hsd", p, q, 3, 4)  # models too shallow for length
    with pytest.raises(ValueError, match=r"^models of depth < 5 cannot be enumerated to that length$"):
        enumerate_yield("tokenwise", *small_pair, 2, 5)  # small_pair has depth 4
    big_p, big_q = pair_for(0, vocab=12, depth=6, eps=0.3)
    with pytest.raises(ValueError):
        enumerate_yield("capped-hsd", big_p, big_q, 6, 6)  # 12^6 drafts


def undraftable_pair():
    """A fresh explicit pair whose draft model never drafts token 1 first: those drafts have draft joint 0."""
    p = TableArModel(2, 2, table={(): (0.6, 0.4), (0,): (0.3, 0.7), (1,): (0.5, 0.5)})
    q = TableArModel(2, 2, table={(): (1.0, 0.0), (0,): (0.2, 0.8), (1,): (0.9, 0.1)})
    return p, q


@pytest.mark.parametrize("verifier", SINGLE_DRAFT_VERIFIERS)
def test_drafts_the_draft_model_cannot_make_are_skipped(verifier):
    # a ratio chain of the drafts starting with token 1 would divide by 0
    p, q = undraftable_pair()
    assert total_variation(enumerate_yield(verifier, p, q, 2, 2), target_joint_distribution(p, 2)) <= 1e-15


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


@pytest.mark.parametrize(
    "args, message",
    [
        (("nonsense", 2, 2, 1), "unknown verifier 'nonsense'"),
        (("tokenwise", 2, 2, 2), "tokenwise takes exactly one draft"),
        (("multidraft-hsd", 2, 2, 0), "k_drafts must be >= 1, got 0"),
        (("capped-hsd", 2, 1, 1), "length 1 shorter than draft length 2"),
        # small_pair has depth 4: no room for the bonus token after a full draft, or for the continuation
        (("capped-hsd", 4, 4, 1), "models of depth 4 cannot run gamma=4 with continuations to 4"),
        (("tokenwise", 2, 5, 1), "models of depth 4 cannot run gamma=2 with continuations to 5"),
    ],
)
def test_monte_carlo_refuses_bad_arguments_before_any_trial(monkeypatch, small_pair, args, message):
    def no_trials(*args):
        raise AssertionError("trials ran before the arguments were checked")

    monkeypatch.setattr(oracle, "pool_map", no_trials)
    verifier, gamma, length, drafts = args
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        monte_carlo_fit(verifier, *small_pair, gamma, length, 10_000, 1, k_drafts=drafts)


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
    runs, blocks = [], []

    def counted(*args):
        runs.append(args)
        for block, rows in stream_blocks(*args):
            assert list(models._stored) == [(17,)] and models._stored[17,][0] == block  # this block's store alone
            blocks.append(block)
            yield block, rows

    monkeypatch.setattr(oracle, "stream_blocks", counted)
    draws = counted_calls(monkeypatch, oracle, "trial_draws")
    monte_carlo_fit("tokenwise", p, q, 2, 2, 10_000, 17)
    assert runs == [(17, range(10_000))]
    assert [i for block in blocks for i in block] == list(range(10_000)) and len(blocks) == 10  # one key per trial
    keys = [key for key, _ in draws]  # the trials the tree did not answer from their rows, in trial order
    assert 0 < len(keys) < 1_000 and keys == sorted(set(keys)) and {master for master, _ in keys} == {17}
    assert not models._stored


class _FailingRows:
    def _fail(self, *args):
        raise RuntimeError("the second block failed")

    __getitem__ = __getattr__ = _fail  # any read of the rows raises


def failing_in_the_second_block(seen):
    """A ``stream_blocks`` that calls ``seen()`` on each block and whose second block's rows raise when read."""

    def run(*args):
        for n, (block, rows) in enumerate(stream_blocks(*args)):
            seen()
            yield block, rows if n == 0 else _FailingRows()

    return run


def test_a_fit_that_raises_leaves_no_stored_state(monkeypatch):
    p, q = pair_for(5, vocab=2, depth=3, eps=0.8)
    stored = []
    monkeypatch.setattr(oracle, "stream_blocks", failing_in_the_second_block(lambda: stored.append(dict(models._stored))))
    with pytest.raises(RuntimeError, match="second block"):
        monte_carlo_fit("tokenwise", p, q, 2, 2, 10_000, 17)
    assert [list(store) for store in stored] == [[(17,)], [(17,)]]  # one entry per block, not one per key
    assert [store[17,][0] for store in stored] == [range(1024), range(1024, 2048)]
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


def reference_histogram(p, q, verifier, gamma, length, master_seed, drafts, mutate, trials=10_000):
    """The loop the decision tree replaced: the sampler run on every trial's stream, inside one run memo."""
    counts = collections.Counter()
    with models.run_memo(models.RUN_MEMO_CAP):
        for rng in stream_run(master_seed, range(trials)):
            counts[oracle._simulate_sequence(p, q, verifier, gamma, length, drafts, mutate, rng)] += 1
    return counts


def fit_histogram(monkeypatch, p, q, verifier, gamma, length, master_seed, drafts, mutate, workers=1, trials=10_000):
    """The histogram of ``monte_carlo_fit``, summed over its chunks."""
    pool, tallies = oracle.pool_map, []

    def tallied(fn, payloads, workers):
        chunks = pool(fn, payloads, workers)
        tallies.append(sum(chunks, collections.Counter()))  # before the fit adds the rest into the first chunk
        return chunks

    monkeypatch.setattr(oracle, "pool_map", tallied)
    monte_carlo_fit(verifier, p, q, gamma, length, trials, master_seed, k_drafts=drafts, mutate=mutate, workers=workers)
    return tallies[-1]


def counted_calls(monkeypatch, module, name):
    """Every call's arguments of ``module.name`` from now on."""
    fn, calls = getattr(module, name), []

    def counting(*args):
        calls.append(args)
        return fn(*args)

    monkeypatch.setattr(module, name, counting)
    return calls


CRITERION_2_PAIR = ModelPairSpec(2, 3, 20_002, 0.8)
TREE_FILLING_PAIR = ModelPairSpec(8, 5, 10, 0.5, 1.2)  # its capped-hsd trials at gamma 4 seldom retrace a path
RETRACING_PAIR = ModelPairSpec(4, 5, 11, 0.5, 1.2)  # its tokenwise trials at gamma 2 retrace more as the tree grows
# the five verifiers: single-draft ones healthy and h-double, multi-draft ones at K = 1-3
EVERY_FIT = [(v, 1, m) for v in SINGLE_DRAFT_VERIFIERS for m in (None, "h-double")] + [
    (v, k, None) for v in oracle.MULTI_DRAFT_VERIFIERS for k in (1, 2, 3)
]


@pytest.mark.parametrize("verifier, drafts, mutate", EVERY_FIT)
def test_a_fit_replays_the_histogram_of_the_sampler_run_on_every_trial(monkeypatch, verifier, drafts, mutate):
    p, q = generate_model_pair(CRITERION_2_PAIR)
    want = reference_histogram(p, q, verifier, 2, 2, 41, drafts, mutate)
    runs = counted_calls(monkeypatch, oracle, "_simulate_sequence")
    assert fit_histogram(monkeypatch, p, q, verifier, 2, 2, 41, drafts, mutate) == want
    assert len(runs) < 1_000  # once per distinct decision path, not once per trial


def test_a_fit_whose_trials_draw_past_the_drawn_ahead_row_replays_them(monkeypatch):
    p, q = pair_for(9, vocab=2, depth=5, eps=0.8)
    want = reference_histogram(p, q, "multidraft-hsd", 4, 4, 42, 3, None)
    derived = counted_calls(monkeypatch, models, "substream")
    assert fit_histogram(monkeypatch, p, q, "multidraft-hsd", 4, 4, 42, 3, None) == want
    assert any(args[0] == 42 for args in derived)  # some trial's stream went on past its row


@pytest.mark.parametrize(
    "spec, verifier, gamma, length, kept",
    [
        (TREE_FILLING_PAIR, "capped-hsd", 4, 4, False),  # full within its first block, which it answers 2% of
        (RETRACING_PAIR, "tokenwise", 2, 5, True),  # answers 35% of its first block, over 80% once full
    ],
)
def test_a_full_tree_is_walked_while_it_answers_half_of_a_block(monkeypatch, spec, verifier, gamma, length, kept):
    p, q = generate_model_pair(spec)
    want = reference_histogram(p, q, verifier, gamma, length, 43, 1, None)
    graft, sizes = oracle._Tree.graft, []
    walk_rows, walked = oracle._Tree.walk_rows, []

    def counted(tree, *args):  # the tree's size before and after each graft
        sizes.append(len(tree.k))
        graft(tree, *args)
        sizes.append(len(tree.k))

    def walking(tree, rows):  # every trial of a run is walked on the tree a block at a time, while it is kept
        walked.append(len(rows))
        return walk_rows(tree, rows)

    monkeypatch.setattr(oracle._Tree, "graft", counted)
    monkeypatch.setattr(oracle._Tree, "walk_rows", walking)
    assert fit_histogram(monkeypatch, p, q, verifier, gamma, length, 43, 1, None) == want
    assert sizes[-2] < oracle.TREE_CAP <= sizes[-1]  # full, and grown no further
    if kept:
        assert sum(walked) == 10_000
    else:  # dropped at the end of a block
        assert sum(walked) % oracle.TREE_BLOCK == 0 and sum(walked) < 10_000


@pytest.mark.parametrize(
    "spec, verifier, gamma, drafts",
    [(CRITERION_2_PAIR, "multidraft-hsd", 2, 3), (TREE_FILLING_PAIR, "capped-hsd", 4, 1)],
)
def test_a_fit_in_two_workers_replays_the_same_histogram(monkeypatch, spec, verifier, gamma, drafts):
    p, q = generate_model_pair(spec)
    want = reference_histogram(p, q, verifier, gamma, gamma, 44, drafts, None)
    assert fit_histogram(monkeypatch, p, q, verifier, gamma, gamma, 44, drafts, None, workers=2) == want


def trial_by_trial_counts(payload):
    """The loop the block walk replaced: each trial walks the tree in trial order, judged every ``TREE_BLOCK`` trials."""
    p, q, trials, master_seed, *run = payload
    counts, tree, hits = collections.Counter(), oracle._Tree(), 0
    with models.run_memo(models.RUN_MEMO_CAP):
        for n, rng in enumerate(stream_run(master_seed, trials), 1):
            if tree is None:
                seq = oracle._simulate_sequence(p, q, *run, rng)
            else:
                seq, drawn = tree.walk(rng)
                if seq is None:
                    log = [] if len(tree.k) < oracle.TREE_CAP else None
                    seq = oracle._simulate_sequence(p, q, *run, oracle._Replay(drawn, rng, log))
                    if log is not None:
                        tree.graft(log, seq)
                else:
                    hits += 1
                if n % oracle.TREE_BLOCK == 0:
                    if len(tree.k) >= oracle.TREE_CAP and 2 * hits < oracle.TREE_BLOCK:
                        tree = None
                    hits = 0
            counts[seq] += 1
    return counts


TREE_FITS = [(TREE_FILLING_PAIR, "capped-hsd", 4, 4), (RETRACING_PAIR, "tokenwise", 2, 5)]


@pytest.mark.parametrize("spec, verifier, gamma, length", TREE_FITS)
def test_each_chunk_of_an_unaligned_split_runs_the_sampler_on_the_trials_the_trial_by_trial_loop_does(
    monkeypatch, spec, verifier, gamma, length
):
    # 10,001 trials in three chunks: starts off the block grid, and a short last sub-block in each chunk
    p, q = generate_model_pair(spec)
    runs = counted_calls(monkeypatch, oracle, "_simulate_sequence")
    bounds = [round(i * 10_001 / 3) for i in range(4)]
    for start, stop in zip(bounds[:-1], bounds[1:]):
        payload = (p, q, range(start, stop), 47, verifier, gamma, length, 1, None)
        want = trial_by_trial_counts(payload), len(runs)  # the same sampler runs: the same trials fell off
        runs.clear()
        assert (oracle._trial_counts(payload), len(runs)) == want, (start, stop)
        runs.clear()


@pytest.mark.parametrize("trials, workers", [(10_001, 1), (10_001, 3)])
@pytest.mark.parametrize("spec, verifier, gamma, length", TREE_FITS)
def test_a_fit_of_any_length_and_split_replays_the_same_histogram(monkeypatch, spec, verifier, gamma, length, trials, workers):
    p, q = generate_model_pair(spec)
    want = reference_histogram(p, q, verifier, gamma, length, 47, 1, None, trials)
    assert fit_histogram(monkeypatch, p, q, verifier, gamma, length, 47, 1, None, workers, trials) == want


class _RowOnly:
    """A trial's row of uniforms, and nothing past it."""

    def __init__(self, row):
        self._draws = iter(row.tolist())

    def random(self):
        for u in self._draws:
            return u
        raise IndexError("past the row")


def grown_trees(monkeypatch, fits):
    """The decision tree each ``(spec, verifier, gamma, length, drafts, mutate)`` fit grows, as the fit leaves it."""
    trees = []

    class Kept(oracle._Tree):
        def __init__(self):
            super().__init__()
            trees.append(self)

    monkeypatch.setattr(oracle, "_Tree", Kept)
    for spec, verifier, gamma, length, drafts, mutate in fits:
        monte_carlo_fit(verifier, *generate_model_pair(spec), gamma, length, 10_000, 45, k_drafts=drafts, mutate=mutate)
    return trees


def handmade_trees():
    """An empty tree, a tree whose root is a leaf, and one whose root reads the first uniform past a row."""
    empty, leaf, far = oracle._Tree(), oracle._Tree(), oracle._Tree()
    leaf.graft([], (0, 1))
    far.graft([(0, 0.5, True), (models._ROW, 0.25, False)], (1, 1))
    far.graft([(0, 0.5, False)], (0, 0))
    return [empty, leaf, far]


def test_the_block_walk_ends_each_lane_where_the_scalar_walk_does(monkeypatch):
    fits = [(CRITERION_2_PAIR, v, 2, 2, k, m) for v, k, m in EVERY_FIT] + [
        (RETRACING_PAIR, "tokenwise", 2, 5, 1, None),
        (ModelPairSpec(2, 5, 9, 0.8, 1.2), "multidraft-hsd", 4, 4, 3, None),  # some paths read past the row
    ]
    trees = handmade_trees() + grown_trees(monkeypatch, fits)
    assert len(trees) == 3 + len(fits)  # one run, so one tree, per fit
    rows = np.concatenate([rows for _, rows in stream_blocks(46, range(2_048))])
    rows[::7, 0] = 0.5  # a tie with the hand-made thresholds: < is strict in both walks
    ends = collections.Counter()
    for tree in trees:
        for row, code in zip(rows, tree.walk_rows(rows).tolist()):
            try:
                seq, _ = tree.walk(_RowOnly(row))
                end = "fell off" if seq is None else "leaf"
            except IndexError:
                end = "past the row"
            if end == "leaf":
                assert code <= -2 and tree.leaves[-2 - code] is seq, (row, code, seq)
            else:
                assert code == -1, (row, code, end)
            ends[end] += 1
    assert len(ends) == 3, ends  # lanes reached a leaf, fell off and read past the row
    assert not models._stored


@pytest.mark.parametrize("misread", [lambda u: u * 1.0, float, lambda u: u <= 0.5, lambda u: u == 0.5, bool])
def test_a_sampler_that_reads_a_uniform_other_than_by_less_than_fails_the_fit(monkeypatch, misread):
    p, q = pair_for(5, vocab=2, depth=3, eps=0.8)
    index = models.index_from_uniform

    def misreading(dist, u):
        misread(u)
        return index(dist, u)

    monkeypatch.setattr(models, "index_from_uniform", misreading)
    assert sample_draft(q, p, (), 2, substream(1, 0)).gamma == 2  # a float reads either way
    with pytest.raises(TypeError):
        monte_carlo_fit("tokenwise", p, q, 2, 2, 10_000, 1)


def test_a_sampler_whose_thresholds_hide_state_fails_the_fit(monkeypatch):
    p, q = pair_for(5, vocab=2, depth=3, eps=0.8)
    index, calls = models.index_from_uniform, []

    def drifting(dist, u):  # the first call inverts the CDF from its other end: the same law at other thresholds
        calls.append(dist)
        return index(dist, u) if len(calls) > 1 else len(dist) - 1 - index(dist[::-1], u)

    monkeypatch.setattr(models, "index_from_uniform", drifting)
    with pytest.raises(RuntimeError, match="not a function of its uniforms: u_0 < "):
        monte_carlo_fit("tokenwise", p, q, 2, 2, 10_000, 1)


def test_a_run_memo_never_outgrows_its_cap(monkeypatch):
    p, q = pair_for(5, vocab=3, depth=4, eps=0.8)  # 27 drafts, more sub-traces
    sizes, memos = [], []
    chain, builds = verify.capped_hsd_chain, []
    trace_for, drafts = models.trace_for, []
    runs = counted_calls(monkeypatch, oracle, "_simulate_sequence")
    simulate = oracle._simulate_sequence

    def measured(*args):  # the run memo, measured once each sampler run, where it grows, is done
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
        sizes.clear(), memos.clear(), builds.clear(), drafts.clear(), runs.clear()
        monte_carlo_fit("multidraft-hsd", p, q, 3, 3, 10_000, 32, k_drafts=3)
        assert len(sizes) == len(runs) and max(sizes) <= cap and len({id(memo) for memo in memos}) == 1
        kinds = memo_kinds(memos[-1])
        if cap == 5:  # full: every sampler run builds again each trace or draft not stored
            assert max(sizes) == 5 and len(builds) > len(runs) > 1_000 and len(drafts) > len(runs)
        else:  # room for all: each distinct trace is built once, each draft assembled once
            assert len(builds) == kinds["plan"] == len(set(builds)) > 5 and kinds["sums"] > 0
            assert len(drafts) == len(set(drafts)) == 27 and kinds["node"] == 1 + 3 + 9 + 27


def test_no_run_memo_outlives_its_fit(monkeypatch):
    p, q = pair_for(5, vocab=2, depth=3, eps=0.8)
    monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 17)
    assert models._run.memo is None
    memos = []
    monkeypatch.setattr(oracle, "stream_blocks", failing_in_the_second_block(lambda: memos.append(models._run.memo)))
    with pytest.raises(RuntimeError, match="second block"):
        monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 17)
    kinds = memo_kinds(memos[-1])
    assert len(memos) == 2 and len({id(memo) for memo in memos}) == 1
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


def hex_probs(dist):
    return {k: v.hex() for k, v in dist.probs.items()}


@pytest.mark.parametrize("verifier, mutate", ENUMERATED_RUNS)
@pytest.mark.parametrize(
    "fresh_pair, runs",
    [(lambda: pair_for(3, vocab=3, depth=5, eps=1.0), [(3, 3), (3, 5)]), (undraftable_pair, [(2, 2), (1, 2)])],
    ids=["generated", "undraftable"],
)
def test_a_certificate_from_a_held_draft_table_is_the_fresh_certificate(verifier, mutate, fresh_pair, runs):
    other = SINGLE_DRAFT_VERIFIERS[SINGLE_DRAFT_VERIFIERS.index(verifier) - 1]
    for gamma, length in runs:  # (gamma, length): at L = gamma, then past it
        fresh = enumerate_yield(verifier, *fresh_pair(), gamma, length, mutate=mutate)
        p, q = fresh_pair()
        enumerate_yield(other, p, q, gamma, gamma)  # the table now holds this pair's drafts
        held = oracle._draft_table[0]
        assert held[0][:2] == (p.conditional, q.conditional) and len(held[1]) == p.vocab_size**gamma
        assert hex_probs(enumerate_yield(verifier, p, q, gamma, length, mutate=mutate)) == hex_probs(fresh)
        assert oracle._draft_table[0] is held


def test_the_draft_table_is_keyed_by_every_operand_and_stored_only_once_complete(monkeypatch):
    p, q = pair_for(5, vocab=3, depth=4, eps=0.8)
    built, failing = [], [False]

    def assembled(q, p, prefix, tokens):  # bound in place of trace_for for every certificate below
        built.append(tokens)
        if failing[0] and len(built) == 20:
            raise RuntimeError("draft 20 failed")
        return trace_for(q, p, prefix, tokens)

    def certified(p, q, gamma=3):
        built.clear()
        return hex_probs(enumerate_yield("capped-hsd", p, q, gamma))

    monkeypatch.setattr(oracle, "trace_for", assembled)
    drafted = certified(p, q)
    assert len(built) == 27 and certified(p, q) == drafted and built == []  # a hit builds nothing
    monkeypatch.setattr(q, "conditional", p.conditional)  # the draft model now drafts from the target
    rebound = certified(p, q)
    assert len(built) == 27 and rebound != drafted
    target = pair_for(5, vocab=3, depth=4, eps=0.8)[0]
    assert rebound == certified(target, target) and len(built) == 27
    monkeypatch.delattr(q, "conditional")  # the draft model's own again
    assert certified(p, q) == drafted and len(built) == 27

    assert certified(p, q, 2) and len(built) == 9  # another gamma, another table
    held, failing[0] = oracle._draft_table[0], True
    with pytest.raises(RuntimeError, match="draft 20"):
        certified(p, q)
    assert len(built) == 20 and oracle._draft_table[0] is held  # no part of a table is stored
    failing[0] = False
    assert certified(p, q) == drafted and len(built) == 27  # the next one rebuilds
    monkeypatch.setattr(oracle, "trace_for", lambda *args: assembled(*args))
    assert certified(p, q) == drafted and len(built) == 27  # another trace_for, another table

    other = pair_for(6, vocab=3, depth=4, eps=0.8)
    certified(*other)
    assert len(built) == 27 and oracle._draft_table[0][0][:2] == (other[0].conditional, other[1].conditional)
    assert certified(p, q) == drafted and len(built) == 27  # the second pair's table replaced the first's


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
    # the chain builds each branch once; each capped residual builds its own gap list
    masses = {"tokenwise": 0, "naive-hsd": branches, "capped-hsd": branches + builds["capped_branch_residual"]}
    assert builds["capped_branch_masses"] == masses[verifier]


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


def test_monte_carlo_refuses_fewer_than_one_worker_before_any_trial(monkeypatch):
    p, q = pair_for(5, vocab=2, depth=3, eps=0.8)

    def no_trials(*args):
        raise AssertionError("trials ran before the worker count was checked")

    monkeypatch.setattr(oracle, "pool_map", no_trials)
    for workers in (0, -1, -4):
        with pytest.raises(ValueError, match=rf"^workers must be >= 1, got {workers}$"):
            monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 1, workers=workers)


def test_a_serial_fit_tallies_its_trials_in_one_counter(monkeypatch):
    # one chunk runs in this process and its Counter is the fit's histogram
    made = []

    class Recording(collections.Counter):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            made.append(self)

    monkeypatch.setattr(oracle, "Counter", Recording)
    p, q = pair_for(5, vocab=2, depth=3, eps=0.8)
    report = monte_carlo_fit("capped-hsd", p, q, 2, 2, 10_000, 1)
    assert len(made) == 1 and sum(made[0].values()) == report.trials


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


def drafted(p, q, gamma, master_seed, draft):
    """How many of a fit's 10^4 trials draft ``draft`` first."""
    return sum(sample_draft(q, p, (), gamma, rng).tokens == draft for rng in stream_run(master_seed, range(10_000)))


def test_monte_carlo_reports_stray_sequences_as_a_failed_fit(monkeypatch):
    p, q = pair_for(5, vocab=2, depth=3, eps=0.8)
    strays = drafted(p, q, 2, 24, (1, 0))
    assert 0 < strays < 500
    monkeypatch.setattr(oracle, "tokenwise_verify", stray_tokenwise((1, 0)))
    report = monte_carlo_fit("tokenwise", p, q, 2, 2, 10_000, 24)
    assert not report.passed
    assert report.max_z == math.inf
    assert report.z_violations >= 1
    assert report.worst_sequence == (2, 2)
    assert report.worst_error == strays / 10_000
    assert report.tv >= 0.5 * strays / 10_000


def sure_first_token_pair():
    """V=2, depth 2: the target's first token is 0 for sure, so at length 1 the sequence (0,) has probability 1.0."""
    p = TableArModel(2, 2, table={(): (1.0, 0.0), (0,): (0.6, 0.4), (1,): (0.5, 0.5)})
    q = TableArModel(2, 2, table={(): (0.7, 0.3), (0,): (0.5, 0.5), (1,): (0.2, 0.8)})
    return p, q


@pytest.mark.parametrize("verifier, drafts", [(v, 1) for v in SINGLE_DRAFT_VERIFIERS] + [("multidraft-hsd", 2)])
def test_a_sure_sequence_passes_the_fit(verifier, drafts):
    p, q = sure_first_token_pair()
    target = target_joint_distribution(p, 1)
    assert target.probs == {(0,): 1.0, (1,): 0.0}
    if drafts == 1:
        assert total_variation(enumerate_yield(verifier, p, q, 1, 1), target) == 0.0
    report = monte_carlo_fit(verifier, p, q, 1, 1, 10_000, 3, k_drafts=drafts)
    assert (report.passed, report.max_z, report.z_violations, report.tv) == (True, 0.0, 0, 0.0)


def test_an_impossible_in_range_sequence_still_fails_the_fit(monkeypatch):
    p, q = sure_first_token_pair()
    strays = drafted(p, q, 1, 3, (1,))
    assert strays > 0
    monkeypatch.setattr(oracle, "tokenwise_verify", stray_tokenwise((1,), token=1))
    report = monte_carlo_fit("tokenwise", p, q, 1, 1, 10_000, 3)
    assert not report.passed
    assert report.max_z == math.inf
    assert report.z_violations == 2  # (1,) drawn on every draft of 1, and so the sure (0,) missed as often
    assert report.worst_error == pytest.approx(strays / 10_000)
    assert report.tv == pytest.approx(strays / 10_000)


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
    # tau, emitted tokens and the probe log, every ``u_k < c`` test in order, of every verifier on seeded traces
    p, q = pair_for(7, vocab=3, depth=4, eps=1.0)
    for i in range(400):
        traces = [sample_draft(q, p, (), 3, substream(95, i, k)) for k in range(3)]
        for verify_one in (
            lambda rng: tokenwise_verify(traces[0], rng),
            lambda rng: naive_hsd_verify(traces[0], p, q, rng),
            lambda rng: capped_hsd_verify(traces[0], rng),
            lambda rng: multidraft_hsd_verify(traces, rng),
            lambda rng: multidraft_tokenwise_verify(traces, rng),
        ):
            log = []
            outcome = verify_one(oracle._Replay([], substream(96, i), log))
            digest.update(repr((outcome.tau, outcome.emitted, log)).encode())
    # whole fit reports, healthy and h-double, on a V=2 pair
    p, q = pair_for(5, vocab=2, depth=3, eps=0.8)
    for verifier, mutate in runs[:-1]:
        report = monte_carlo_fit(verifier, p, q, 2, 2, 10_000, 97, mutate=mutate)
        digest.update(json.dumps(report.to_dict(), sort_keys=True).encode())
    return digest.hexdigest()


def test_verifier_outputs_match_the_golden_digest():
    assert _verifier_outputs_digest() == "e29557fc9776143dea62c7d5a18e3bacdaa856f8e6c073c41b72edd927e1a5dc"
