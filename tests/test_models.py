import hashlib
import math
import pickle
import re
import struct
import threading
from itertools import product

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from specverify import models
from specverify.cli import derive_seed
from specverify.models import (
    DraftTrace,
    ModelPairSpec,
    TableArModel,
    generate_model_pair,
    index_from_uniform,
    sample_draft,
    seed_state,
    stream_run,
    substream,
    trace_for,
)

from conftest import pair_for


def test_zero_knob_gives_identical_models():
    p, q = pair_for(7, vocab=2, depth=2, eps=0.0)
    for prefix in p.prefixes():
        assert p.conditional(prefix) == q.conditional(prefix)


def test_generation_is_deterministic():
    spec = ModelPairSpec(3, 3, seed=7, divergence_knob=0.5)
    p1, q1 = generate_model_pair(spec)
    p2, q2 = generate_model_pair(spec)
    for prefix in p1.prefixes():
        assert p1.conditional(prefix) == p2.conditional(prefix)
        assert q1.conditional(prefix) == q2.conditional(prefix)


def test_positive_knob_moves_the_root_conditional():
    p, q = pair_for(7, vocab=3, depth=3, eps=0.5)
    tv = 0.5 * math.fsum(abs(a - b) for a, b in zip(p.conditional(()), q.conditional(())))
    assert tv > 0.0


@pytest.mark.parametrize(
    "kwargs",
    [
        {"vocab_size": 1, "max_depth": 2, "seed": 0},
        {"vocab_size": 3, "max_depth": 0, "seed": 0},
        {"vocab_size": 3, "max_depth": 2, "seed": 0, "concentration": 0.0},
        {"vocab_size": 3, "max_depth": 2, "seed": 0, "divergence_knob": -0.1},
    ],
)
def test_bad_pair_specs_are_rejected(kwargs):
    with pytest.raises(ValueError):
        generate_model_pair(ModelPairSpec(**kwargs))


@pytest.mark.parametrize("field", ["divergence_knob", "concentration"])
@pytest.mark.parametrize("value", [math.nan, math.inf, -math.inf])
def test_non_finite_knobs_are_rejected_by_name(field, value):
    with pytest.raises(ValueError, match=f"^{field} must be finite, got {value}$"):
        ModelPairSpec(4, 3, 1, **{field: value})


@pytest.mark.parametrize(
    "knobs",
    [
        {"concentration": 1e308},
        {"divergence_knob": 1e308},
        {"concentration": 4e306, "divergence_knob": 4e306},
        {"concentration": 1.7e308, "divergence_knob": 1.7e308},  # a sum of inf
    ],
)
def test_knobs_that_could_overflow_a_logit_are_rejected_by_name(knobs):
    with pytest.raises(ValueError, match=r"^concentration \+ divergence_knob must be <= 6\.42e\+306, got "):
        ModelPairSpec(4, 3, 1, **knobs)


def test_knobs_up_to_the_cap_generate_without_overflow():
    cap = models._KNOB_SUM_MAX
    for concentration, knob in ((cap, 0.0), (cap / 2, cap / 2), (1e-300, cap)):
        # any numpy RuntimeWarning fails the test
        p, q = generate_model_pair(ModelPairSpec(4, 3, 5, knob, concentration))
        for prefix in p.prefixes():
            assert max(q.conditional(prefix)) > 0.0 and max(p.conditional(prefix)) > 0.0


def test_conditional_lookup_and_purity(small_pair):
    p, _ = small_pair
    root = p.conditional(())
    assert p.conditional(()) == root
    assert p.conditional((0,)) == p.conditional((0,))
    uniform = TableArModel(2, 2, table={(): (0.5, 0.5), (0,): (0.5, 0.5), (1,): (0.5, 0.5)})
    assert uniform.conditional((1,)) == (0.5, 0.5)


def test_conditional_rejects_bad_prefixes(small_pair):
    p, _ = small_pair
    with pytest.raises(ValueError):
        p.conditional((0, 1, 2, 0))  # length == max_depth
    with pytest.raises(ValueError):
        p.conditional((5,))
    explicit = TableArModel(2, 2, table={(): (0.5, 0.5), (0,): (0.5, 0.5), (1,): (0.5, 0.5)})
    with pytest.raises(ValueError):
        explicit.conditional((-1,))


def test_every_conditional_is_normalised(small_pair):
    for model in small_pair:
        for prefix in model.prefixes():
            dist = model.conditional(prefix)
            assert abs(math.fsum(dist) - 1.0) <= 1e-12
            assert min(dist) >= 0.0


def test_joint_of_empty_sequence_is_one(small_pair):
    p, _ = small_pair
    assert p.joint(()) == 1.0


def test_joint_follows_the_chain_rule_by_hand():
    model = TableArModel(
        2,
        2,
        table={(): (0.8, 0.2), (0,): (0.5, 0.5), (1,): (0.5, 0.5)},
    )
    assert model.joint((0, 0)) == pytest.approx(0.4, abs=1e-15)


def test_joints_sum_to_one_at_every_length(small_pair):
    for model in small_pair:
        for length in range(1, model.max_depth + 1):
            total = math.fsum(model.joint(seq) for seq in product(range(model.vocab_size), repeat=length))
            assert abs(total - 1.0) <= 1e-9


def test_joint_equals_prefix_joint_times_conditional(small_pair):
    p, _ = small_pair
    for seq in product(range(3), repeat=3):
        assert p.joint(seq) == p.joint(seq[:-1]) * p.conditional(seq[:-1])[seq[-1]]


def test_sample_draft_of_length_zero_keeps_only_the_bonus(small_pair):
    p, q = small_pair
    trace = sample_draft(q, p, (0,), 0, substream(1))
    assert trace.tokens == ()
    assert trace.q_dists == () and trace.p_dists == ()
    assert trace.bonus_dist == p.conditional((0,))


def test_sample_draft_follows_a_deterministic_draft_model():
    forced = TableArModel(
        2,
        3,
        table={
            (): (0.0, 1.0),
            (0,): (1.0, 0.0),
            (1,): (1.0, 0.0),
            (0, 0): (0.5, 0.5),
            (0, 1): (0.5, 0.5),
            (1, 0): (0.5, 0.5),
            (1, 1): (0.5, 0.5),
        },
    )
    target = TableArModel(2, 3, generator=lambda prefix: (0.5, 0.5))
    trace = sample_draft(forced, target, (), 2, substream(0))
    assert trace.tokens == (1, 0)


def test_sample_draft_marginal_matches_the_table(small_pair):
    p, q = small_pair
    counts = [0, 0, 0]
    n = 100_000
    rng = substream(2024)
    for _ in range(n):
        counts[sample_draft(q, p, (), 1, rng).tokens[0]] += 1
    root = q.conditional(())
    for tok in range(3):
        sigma = math.sqrt(n * root[tok] * (1 - root[tok]))
        assert abs(counts[tok] - n * root[tok]) <= 3.0 * sigma


def test_sample_draft_records_distributions_from_the_tables(small_pair):
    p, q = small_pair
    trace = sample_draft(q, p, (), 3, substream(5))
    for t in range(3):
        context = trace.tokens[:t]
        assert trace.q_dists[t] == q.conditional(context)
        assert trace.p_dists[t] == p.conditional(context)
    assert trace.bonus_dist == p.conditional(trace.tokens)


def test_sample_draft_validates_depth_and_vocab(small_pair):
    p, q = small_pair
    with pytest.raises(ValueError):
        sample_draft(q, p, (), 5, substream(0))
    other = TableArModel(4, 4, generator=lambda prefix: (0.25, 0.25, 0.25, 0.25))
    with pytest.raises(ValueError):
        sample_draft(q, other, (), 2, substream(0))


@pytest.mark.parametrize("vocab", [2, 3, 8])
def test_a_draft_trie_draws_the_traces_drawn_without_one(monkeypatch, vocab):
    p, q = pair_for(61, vocab=vocab, depth=5, eps=0.8)
    # gamma 0, 1 and 3 through one trie, from the root and from a non-empty
    # prefix, for the pair and the pair with its roles swapped; (1, 0) + 3
    # tokens reaches model depth, so those traces have no bonus
    draws = [
        (pair, prefix, gamma, i)
        for pair in ((q, p), (p, q))
        for prefix in ((), (1,), (1, 0))
        for gamma in (0, 1, 3)
        for i in range(60)
    ]

    def drawn():
        return [sample_draft(*pair, prefix, gamma, substream(62, gamma, i)) for pair, prefix, gamma, i in draws]

    with monkeypatch.context() as outside:
        outside.setattr(models, "_Node", None)  # no run, no node
        plain = drawn()
    for cap in (0, 5):  # no node stored; a trie full after its first five nodes
        with models.run_memo(cap):
            assert drawn() == plain
            assert len(models._run.memo) == cap
    with models.run_memo(models.RUN_MEMO_CAP):
        walked = drawn()
        assert 0 < len(models._run.memo) < models.RUN_MEMO_CAP
    assert walked == plain
    assert any(trace.bonus_dist is None for trace in walked)
    # a repeated draft is the one stored trace
    first = {}
    for (pair, *_), trace in zip(draws, walked):
        assert first.setdefault((pair, trace.prefix, trace.tokens), trace) is trace
    assert len(first) < len(walked)


def test_sample_draft_raises_the_same_inside_a_run(small_pair):
    p, q = small_pair
    other = TableArModel(4, 4, generator=lambda prefix: (0.25, 0.25, 0.25, 0.25))
    bad = [(q, p, (), -1), (q, other, (), 2), (q, p, (), 5), (q, p, (0, 1), 3)]

    def messages():
        found = []
        for args in bad:
            with pytest.raises(ValueError) as error:
                sample_draft(*args, substream(0))
            found.append(str(error.value))
        return found

    plain = messages()
    with models.run_memo(models.RUN_MEMO_CAP):
        assert messages() == plain
        assert len(models._run.memo) == 0
    assert [m.split()[0] for m in plain] == ["gamma", "vocab", "prefix(0)", "prefix(2)"]


def test_runs_that_exit_out_of_order_on_two_threads_leave_no_run_open(small_pair):
    p, q = small_pair
    a_open, b_open, a_closed = threading.Event(), threading.Event(), threading.Event()
    seen = {}

    def stored():
        """Whether drawing one draft twice hands back one stored trace."""
        first, again = (sample_draft(q, p, (), 3, substream(70)) for _ in range(2))
        assert first == again
        return first is again

    def thread_a():
        with models.run_memo(models.RUN_MEMO_CAP):
            seen["a inside"] = stored()
            a_open.set()
            seen["a saw b open"] = b_open.wait(30)
        a_closed.set()
        seen["a after"] = models._run.memo, stored()

    def thread_b():
        seen["b saw a open"] = a_open.wait(30)
        with models.run_memo(models.RUN_MEMO_CAP):
            seen["b inside"] = stored()
            b_open.set()
            seen["b saw a closed"] = a_closed.wait(30)
        seen["b after"] = models._run.memo, stored()

    # A opens, then B opens, then A exits, then B exits
    threads = [threading.Thread(target=thread_a), threading.Thread(target=thread_b)]
    for thread in threads:
        thread.start()
    for thread in threads:
        thread.join(timeout=60)
    assert not any(thread.is_alive() for thread in threads)
    assert seen == {
        "a inside": True,
        "a saw b open": True,
        "a after": (None, False),
        "b saw a open": True,
        "b inside": True,
        "b saw a closed": True,
        "b after": (None, False),
    }
    assert models._run.memo is None and not stored()


def test_trace_for_skips_bonus_at_full_depth(small_pair):
    p, q = small_pair
    trace = trace_for(q, p, (), (0, 1, 2, 0))
    assert trace.bonus_dist is None
    assert trace.gamma == 4


def test_a_pickled_pair_keeps_its_conditionals_and_its_link_to_the_target():
    p, q = pair_for(13, vocab=4, depth=5)
    q.conditional((1,))  # the copies carry what the memos hold
    p2, q2 = pickle.loads(pickle.dumps((p, q)))
    # a draft miss on the copy fills the copied target's memo, not the original's
    miss = (2, 3, 0)
    assert miss not in p._table and miss not in p2._table
    q2.conditional(miss)
    assert miss in p2._table and miss not in p._table
    rng = np.random.default_rng(5)
    prefixes = [(1,), miss] + [tuple(rng.integers(0, 4, size=n).tolist()) for n in range(5) for _ in range(3)]
    for prefix in prefixes:
        for copy, original in ((p2, p), (q2, q)):
            assert struct.pack("4d", *copy.conditional(prefix)) == struct.pack("4d", *original.conditional(prefix))
    explicit = TableArModel(2, 1, table={(): (0.25, 0.75)})
    assert pickle.loads(pickle.dumps(explicit)).conditional(()) == (0.25, 0.75)


def uniform_model(vocab, depth):
    return TableArModel(vocab, depth, generator=lambda prefix: (1.0 / vocab,) * vocab)


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: TableArModel(1, 1, table={(): (1.0,)}), "vocab_size must be >= 2, got 1"),
        (lambda: TableArModel(2, 0, table={(): (0.5, 0.5)}), "max_depth must be >= 1, got 0"),
        (lambda: TableArModel(2, 1, table={(): (0.2, 0.8, 0.0)}), "distribution for prefix () has length 3, expected 2"),
        (lambda: TableArModel(2, 2, table={(): (0.5, 0.5)}).conditional((1,)), "prefix (1,) missing from explicit table"),
        (lambda: trace_for(uniform_model(3, 2), uniform_model(2, 2), (), (0,)), "vocab mismatch: draft 3 vs target 2"),
        (
            lambda: trace_for(uniform_model(2, 3), uniform_model(2, 2), (0,), (0, 1)),
            "prefix(1) + draft(2) exceeds model depth 2",
        ),
    ],
    ids=["vocab", "depth", "row-length", "missing-prefix", "trace-vocab", "trace-depth"],
)
def test_bad_model_arguments_are_refused_by_message(build, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        build()


def test_a_uniform_in_the_rounding_sliver_takes_the_last_positive_token():
    dist = (0.3, 0.35, 0.35, 0.0)
    assert math.fsum(dist) == 1.0 and 0.3 + 0.35 + 0.35 == 1 - 2**-53  # the running sum stops short of 1
    assert index_from_uniform(dist, 1 - 2**-53) == 2


def test_explicit_table_validation():
    with pytest.raises(ValueError):
        TableArModel(2, 1, table={(): (0.7, 0.4)})
    with pytest.raises(ValueError):
        TableArModel(2, 1, table={(): (1.1, -0.1)})
    with pytest.raises(ValueError):
        TableArModel(2, 1, table={(): (float("nan"), 1.0)})
    with pytest.raises(ValueError):
        TableArModel(2, 1, generator=lambda prefix: (1.0, float("nan"))).conditional(())
    with pytest.raises(ValueError):
        TableArModel(2, 1)
    # keys are checked too: too long for the depth, or a token out of range
    with pytest.raises(ValueError):
        TableArModel(2, 1, table={(): (0.5, 0.5), (0,): (0.5, 0.5), (7, 7): (0.5, 0.5)})
    with pytest.raises(ValueError):
        TableArModel(2, 2, table={(): (0.5, 0.5), (2,): (0.5, 0.5)})


def test_draft_trace_is_immutable(small_pair):
    p, q = small_pair
    trace = sample_draft(q, p, (), 2, substream(3))
    assert isinstance(trace, DraftTrace)
    with pytest.raises(AttributeError):
        trace.tokens = (0, 0)


def _numpy_stream(master, *keys):
    return np.random.default_rng(np.random.SeedSequence((master & ((1 << 64) - 1), *keys)))


def test_substream_equals_the_numpy_seed_sequence_stream():
    masters = [0, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, -1, 2**70 + 3]
    keygen = np.random.default_rng(2026)
    for i in range(2_000):
        master = masters[i % len(masters)] if i % 2 else int(keygen.integers(0, 2**63))
        n_keys = i % 15
        bound = 2**63 if i % 5 == 0 else 100
        keys = [int(k) for k in keygen.integers(0, bound, size=n_keys)]
        if i % 3 == 0:
            keys = [np.int64(k) for k in keys]
        elif i % 7 == 0 and keys:
            keys[-1] += 2**64  # a key wider than 64 bits
        ours, ref = substream(master, *keys), _numpy_stream(master, *keys)
        assert ours.bit_generator.state == ref.bit_generator.state, (master, keys)
        assert ours.random() == ref.random()
        assert ours.standard_normal(3).tolist() == ref.standard_normal(3).tolist()
        assert derive_seed(master, *keys) == int(
            np.random.SeedSequence((master & ((1 << 64) - 1), *keys)).generate_state(1, np.uint64)[0]
        )


@pytest.mark.parametrize("keys", [(-1,), (0, -5), (3, np.int64(-2))])
def test_substream_rejects_negative_keys_like_numpy(keys):
    with pytest.raises(ValueError):
        _numpy_stream(7, *keys)
    with pytest.raises(ValueError):
        substream(7, *keys)
    with pytest.raises(ValueError):
        derive_seed(7, *keys)


def _check_draws(master, keys, rng, draws=20):
    """``rng`` draws numpy's stream of ``(master, *keys)``, past the row drawn ahead too."""
    ref = _numpy_stream(master, *keys)
    assert [rng.random() for _ in range(draws)] == ref.random(draws).tolist(), (master, keys)


def _check_stream_run(master, trials, head=()):
    """Walk a run: each yield is numpy's stream of its key, and each stored state is seed_state's and numpy's."""
    visited = []
    for rng in stream_run(master, trials, head):
        i = trials[len(visited)]
        assert len(models._stored) <= 1024
        stored = models._stored.get((master, *head, i))
        if 0 <= i < 2**32:
            assert isinstance(rng, models._DrawnAhead)
            assert stored == seed_state(master, (*head, i)).tolist(), (master, head, i)
        else:
            assert isinstance(rng, np.random.Generator) and stored is None  # wider keys take the scalar path
        ours, ref = substream(master, *head, i), _numpy_stream(master, *head, i)
        assert ours.bit_generator.state == ref.bit_generator.state, (master, head, i)
        _check_draws(master, (*head, i), rng)
        visited.append(i)
    assert visited == list(trials)
    assert not models._stored


BLOCK_MASTERS = [0, 1, 2**32 - 1, 2**32, 2**63 - 1, 2**64 - 1, -1, 2**70 + 3]


@pytest.mark.parametrize("head", [(), (5,), (2**40, 0)])
@pytest.mark.parametrize("master", BLOCK_MASTERS + [int(m) for m in np.random.default_rng(8).integers(0, 2**63, 3)])
def test_stream_run_blocks_are_bit_identical(master, head):
    for trials in (
        range(0),
        range(9, 9),
        range(1026),  # two blocks
        range(1023, 1026),
        range(2**32 - 3, 2**32),  # ends at the last one-word key
        range(2**32 - 2, 2**32 + 2),
    ):
        _check_stream_run(master, trials, head)


@settings(max_examples=30, deadline=None)
@given(
    master=st.integers(-(2**72), 2**72),
    start=st.integers(0, 2**32 + 2),
    size=st.integers(0, 1100),
    head=st.lists(st.integers(0, 2**66), max_size=3),
)
def test_stream_run_matches_numpy_for_any_master_and_range(master, start, size, head):
    _check_stream_run(master, range(start, start + size), tuple(head))


def test_a_stored_state_answers_only_its_own_key_tuple():
    master = 2026
    for head in ((), (3,)):
        for i, _ in enumerate(stream_run(master, range(4), head)):
            for keys in ((*head, i), (*head, i, 0), (i,), (i, 0)):
                for m in (master, master + 1):
                    ours, ref = substream(m, *keys), _numpy_stream(m, *keys)
                    assert ours.bit_generator.state == ref.bit_generator.state, (m, keys)
        assert not models._stored


@settings(max_examples=50, deadline=None)
@given(
    states=st.lists(st.lists(st.integers(0, 2**64 - 1), min_size=4, max_size=4), min_size=1, max_size=8),
    n=st.integers(0, 40),
)
def test_lane_uniforms_are_numpy_pcg64_draws(states, n):
    states = np.array(states, dtype=np.uint64)
    rows = models._lane_uniforms(states, n)
    assert rows.shape == (len(states), n)
    for state, row in zip(states, rows):
        ref = np.random.Generator(np.random.PCG64(models._FixedSeedState(state)))
        assert row.tolist() == ref.random(n).tolist(), state


@pytest.mark.parametrize("head", [(), (5,), (2**40, 0)])
@pytest.mark.parametrize("master", BLOCK_MASTERS)
def test_uniforms_are_the_substream_draws_inside_and_outside_a_run(master, head):
    # two blocks, then lanes on both sides of 2**32, which are not drawn ahead; every
    # other yield is drawn after the run, whose store is gone by then
    for trials in (range(1020, 2050), range(2**32 - 2, 2**32 + 2)):
        kept = []
        for rng, i in zip(stream_run(master, trials, head), trials):
            if i % 2:
                kept.append((i, rng))
            else:
                _check_draws(master, (*head, i), rng)
        assert not models._stored
        for i, rng in kept:
            _check_draws(master, (*head, i), rng)


def test_a_run_left_early_stores_nothing():
    with pytest.raises(RuntimeError, match="trial 1,500"):
        for n, _ in enumerate(stream_run(7, range(3_000), (2,))):
            assert len(models._stored) == 1024
            if n == 1_500:
                raise RuntimeError("trial 1,500 failed")
    assert not models._stored
    for _ in stream_run(7, range(3_000)):
        break
    assert not models._stored


def _model_outputs_digest() -> str:
    """SHA-256 over seeded conditionals, sampled draft tokens and derived seeds."""
    digest = hashlib.sha256()
    # the target is asked first for one pair and the draft first for the
    # other, so a memo shared between the two cannot change a value unseen
    for seed, eps, target_first in ((11, 0.0, True), (12, 0.8, False)):
        p, q = generate_model_pair(ModelPairSpec(3, 4, seed, eps))
        for model in (p, q) if target_first else (q, p):
            for prefix in model.prefixes():
                model.conditional(prefix)
        for model in (p, q):
            for prefix in model.prefixes():
                digest.update(struct.pack("<3d", *model.conditional(prefix)))
    p, q = generate_model_pair(ModelPairSpec(4, 6, 13, 0.5))
    for i in range(200):
        digest.update(bytes(sample_draft(q, p, (), 5, substream(90, i)).tokens))
    for key in ((0,), (0, 1), (7, 3), (2**64 + 5, 2), (-1, 0), (123456789, 4, 2**40)):
        digest.update(derive_seed(*key).to_bytes(8, "little"))
    return digest.hexdigest()


def test_model_outputs_match_the_golden_digest():
    assert _model_outputs_digest() == "5224075dea028adb373ca8e88361925c6f478f17717bb1db9c205f8caedf8670"
