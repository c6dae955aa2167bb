"""Table-based autoregressive categorical models.

A :class:`TableArModel` assigns an exact next-token distribution to every
prefix shorter than its depth, so joint probabilities of whole sequences can
be enumerated rather than estimated.  One model plays the target (``p``) and
another the draft (``q``); :func:`generate_model_pair` builds a seeded pair
whose disagreement is controlled by a single scalar knob.

Conditionals are produced lazily from the seed and memoised, which keeps the
model semantically total over all prefixes while staying usable at depths
where an explicit table would not fit in memory.
Inside a :func:`run_memo`, the one store of a run, :func:`sample_draft`
walks the contexts drafted so far and hands back one stored trace per
distinct draft.
"""

from __future__ import annotations

import math
import sys
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from itertools import chain, product
from typing import Callable, Iterator, NamedTuple

import numpy as np
from numpy.random import Generator
from numpy.random.bit_generator import ISeedSequence

# A categorical distribution over token ids [0, V); entries sum to 1.
Dist = tuple[float, ...]
# A token sequence, used both as prefix key and as draft.
Sequence = tuple[int, ...]

_SEED_MASK = (1 << 64) - 1
_MASK32 = (1 << 32) - 1
_STREAM_LOGITS = 0
_STREAM_NOISE = 1


# numpy's SeedSequence.generate_state hashes output word i with the pair
# (INIT_B * MULT_B**i, INIT_B * MULT_B**(i + 1)) mod 2**32: an xor, then a
# multiplier.  Neither depends on the entropy, so they are computed once.
_STATE_HASH = tuple(
    (0x8B51F9DD * 0x58F38DED**i & _MASK32, 0x8B51F9DD * 0x58F38DED ** (i + 1) & _MASK32) for i in range(8)
)
_BLOCK = 1024  # a stream_blocks block derives this many streams at once
# Uniforms drawn ahead per stream: on the mc-fit benchmark's pair, all a trial draws but in 1.3-2.0% of multidraft-hsd
# K=3 trials (13-14); the other fits draw at most 6 (single-draft), 10 (multidraft-hsd K=2) or 11 (tokenwise K=3).
_ROW = 12
_stored: dict[tuple[int, ...], tuple[range, np.ndarray]] = {}  # (master_seed, *head) -> (block, seed states)
_PCG_MULT_HI, _PCG_MULT_LO = 0x2360ED051FC65DA4, 0x4385DF649FCCF645  # numpy's PCG64 multiplier, by uint64 half


def _key_words(keys: tuple[int, ...]) -> list[int]:
    """Split each key into little-endian uint32 words, as numpy's SeedSequence does."""
    words = []
    for key in keys:
        if key < 0:
            # numpy's SeedSequence rejects negative entropy the same way
            raise ValueError(f"stream keys must be non-negative, got {key}")
        while key > _MASK32:
            words.append(key & _MASK32)
            key >>= 32
        words.append(key)
    return words


def seed_state(master_seed: int, keys: tuple[int, ...]) -> np.ndarray:
    """``SeedSequence((master_seed & 2**64 - 1, *keys)).generate_state(4, np.uint64)``, the words PCG64 seeds from.

    The keys are split into uint32 words here, and only the mixing of those
    words into the pool is left to numpy.
    """
    words = _key_words((master_seed & _SEED_MASK, *keys))
    pool = np.random.SeedSequence(np.array(words, dtype=np.uint32)).pool.tolist()
    state = []
    for i, (xor, mult) in enumerate(_STATE_HASH):
        # output word i cycles over the 4 pool words
        word = (pool[i & 3] ^ xor) * mult & _MASK32
        state.append(word ^ word >> 16)
    # numpy views its uint32 output as uint64 the same way
    return np.array(state, dtype=np.uint32).view(np.uint64)


def _lane_states(master_seed: int, head: tuple[int, ...], lanes: range) -> np.ndarray:
    """Row j is ``seed_state(master_seed, (*head, lanes[j]))``, for lanes below 2**32.

    numpy's SeedSequence mixes its words by uint32 hash-and-mix steps whose
    constants do not depend on the entropy, and uint32 arrays wrap mod 2**32
    as its C code does, so the steps run once over all lanes.
    """
    n = len(lanes)
    entropy = [np.full(n, w, np.uint32) for w in _key_words((master_seed & _SEED_MASK, *head))]
    entropy.append((lanes.start + lanes.step * np.arange(n)).astype(np.uint32))
    entropy += [np.zeros(n, np.uint32)] * (4 - len(entropy))  # the hash runs out over zeros
    const = 0x43B0D7E5

    def hashmix(value):
        nonlocal const
        value = value ^ const
        const = const * 0x931E8875 & _MASK32
        value = value * const
        return value ^ value >> 16

    def mix(x, y):
        value = x * 0xCA01F9DD - y * 0x4973F715
        return value ^ value >> 16

    # fill the pool of 4 words, mix each into the others, then mix in the rest
    pool = [hashmix(word) for word in entropy[:4]]
    for src in range(4):
        for dst in range(4):
            if src != dst:
                pool[dst] = mix(pool[dst], hashmix(pool[src]))
    for word in entropy[4:]:
        for dst in range(4):
            pool[dst] = mix(pool[dst], hashmix(word))
    state = np.empty((n, 8), np.uint32)
    for i, (xor, mult) in enumerate(_STATE_HASH):
        word = (pool[i & 3] ^ xor) * mult
        state[:, i] = word ^ word >> 16
    return state.view(np.uint64)


def _lane_uniforms(states: np.ndarray, n: int) -> np.ndarray:
    """Row j is ``Generator(PCG64(s)).random(n)`` for the uint64 seed state ``s = states[j]``.

    PCG64 steps the 128-bit LCG ``state * MULT + inc`` and outputs ``rotr64(hi ^ lo, hi >> 58)`` of the
    new state; a uniform is that ``>> 11`` times 2**-53.  The state is kept in uint64 halves, which wrap as C's do.
    """
    m0, m1 = _PCG_MULT_LO & _MASK32, _PCG_MULT_LO >> 32

    def step(hi, lo):
        a0, a1 = lo & _MASK32, lo >> 32
        p01, p10 = a0 * m1, a1 * m0
        mid = (a0 * m0 >> 32) + (p01 & _MASK32) + (p10 & _MASK32)
        carry = a1 * m1 + (p01 >> 32) + (p10 >> 32) + (mid >> 32)  # high half of lo * MULT_LO
        new_lo = lo * _PCG_MULT_LO + inc_lo
        return hi * _PCG_MULT_LO + lo * _PCG_MULT_HI + carry + inc_hi + (new_lo < inc_lo), new_lo

    # seeding: state = 0, inc = initseq << 1 | 1; step; state += initstate; step
    init_hi, init_lo, seq_hi, seq_lo = states.T
    inc_hi, inc_lo = seq_hi << 1 | seq_lo >> 63, seq_lo << 1 | 1
    lo = inc_lo + init_lo
    hi, lo = step(inc_hi + init_hi + (lo < init_lo), lo)
    out = np.empty((len(states), n))
    for k in range(n):
        hi, lo = step(hi, lo)
        x, rot = hi ^ lo, hi >> 58
        out[:, k] = (x >> rot | x << (64 - rot & 63)) >> 11
    return out * 2.0**-53


def stream_blocks(master_seed: int, trials: range, head: tuple[int, ...] = ()) -> Iterator[tuple[range, np.ndarray]]:
    """Yield ``trials`` a block at a time, with one row per trial ``i``: the first draws of its stream.

    The stream is ``substream(master_seed, *head, i)``.  One numpy pass derives a block's seed states and ``_ROW``
    draws per trial, bit-identical to :func:`substream`'s, which reads the states from the block's store until the
    loop leaves the block, also on an exception.  A block reaching outside ``[0, 2**32)`` gets empty rows.
    """
    for j in range(0, len(trials), _BLOCK):
        block = trials[j : j + _BLOCK]
        if not (0 <= block[0] <= _MASK32 and 0 <= block[-1] <= _MASK32):  # a range's ends bound it
            yield block, np.empty((len(block), 0))
            continue
        key, states = (master_seed, *head), _lane_states(master_seed, head, block)
        _stored[key] = block, states
        try:
            yield block, _lane_uniforms(states, _ROW)
        finally:
            _stored.pop(key, None)


def trial_draws(key: tuple[int, ...], row: list[float]) -> _DrawnAhead | Generator:
    """The draws of ``substream(*key)``: ``row``, drawn ahead, then the stream past it; for an empty row, the stream."""
    return _DrawnAhead(row, key) if row else substream(*key)


def stream_run(master_seed: int, trials: range, head: tuple[int, ...] = ()) -> Iterator[_DrawnAhead | Generator]:
    """Yield each trial ``i``'s draws of ``substream(master_seed, *head, i)``: :func:`trial_draws` of its row."""
    for block, rows in stream_blocks(master_seed, trials, head):
        for i, row in zip(block, rows.tolist()):
            yield trial_draws((master_seed, *head, i), row)


class _FixedSeedState(ISeedSequence):
    """Hands ``PCG64`` the seed state :func:`seed_state` computed; it cannot spawn."""

    def __init__(self, state: np.ndarray):
        self._state = state

    def generate_state(self, n_words: int, dtype=np.uint32) -> np.ndarray:
        return self._state


def substream(master_seed: int, *keys: int) -> np.random.Generator:
    """Derive an independent random stream from a master seed and index keys.

    Streams for distinct key tuples are statistically independent, and the
    derivation is deterministic, so trials can run concurrently or in any
    order without sharing generator state.  The stream equals
    ``np.random.default_rng(np.random.SeedSequence((master_seed & 2**64 - 1, *keys)))``
    bit for bit, and negative keys raise ``ValueError`` as there.  Inside a
    :func:`stream_blocks` block the seed state of each of its keys is read from
    the block's store instead of derived again.  Unlike numpy's generator,
    the returned one's ``bit_generator.seed_seq`` cannot ``spawn``.
    """
    stored = _stored.get((master_seed, *keys[:-1])) if _stored and keys else None  # (block, states) of a run
    inside = stored is not None and keys[-1] in stored[0]
    state = stored[1][stored[0].index(keys[-1])] if inside else seed_state(master_seed, keys)
    # PCG64 seeds itself from generate_state(4, np.uint64)
    return np.random.Generator(np.random.PCG64(_FixedSeedState(state)))


class _DrawnAhead:
    """A trial's draws in a :func:`stream_run`: its block's row of ``substream(*key)``, then the stream past it."""

    __slots__ = ("random",)

    def __init__(self, row: list[float], key: tuple[int, ...]):
        self.random = chain(row, _past_the_row(key)).__next__


def _past_the_row(key: tuple[int, ...]) -> Iterator[float]:
    """The draws of ``substream(*key)`` after its first ``_ROW``, derived at the first one asked for."""
    rest = substream(*key)
    rest.random(_ROW)  # skip the row's draws in one call
    yield from iter(rest.random, None)  # endless: random() never returns None


def index_from_uniform(dist: Dist, u: float) -> int:
    """Invert the CDF of ``dist`` at ``u`` in [0, 1)."""
    acc = 0.0
    last_positive = 0
    for i, w in enumerate(dist):
        if w > 0.0:
            last_positive = i
            acc += w
            if u < acc:
                return i
    # u landed in the rounding sliver past the last cumulative step.
    return last_positive


def _softmax(logits: np.ndarray) -> Dist:
    z = np.exp(logits - logits.max())
    values = z.tolist()
    total = math.fsum(values)
    return tuple(v / total for v in values)


# numpy's normals stay below 14 in magnitude: up to this knob sum no logit or logit difference overflows
_KNOB_SUM_MAX = sys.float_info.max / 28


@dataclass(frozen=True)
class ModelPairSpec:
    """Recipe for a seeded target/draft model pair.

    ``divergence_knob`` is the magnitude of the zero-mean logit perturbation
    that turns the target's conditionals into the draft's; zero makes the two
    models identical entrywise.  ``concentration`` scales the raw logits and
    therefore controls how peaked the generated conditionals are.  A spec
    validates on construction: a bad value raises ``ValueError`` there.
    """

    vocab_size: int
    max_depth: int
    seed: int
    divergence_knob: float = 0.5
    concentration: float = 1.0

    def __post_init__(self) -> None:
        if self.vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {self.vocab_size}")
        if self.max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {self.max_depth}")
        for name, knob in (("concentration", self.concentration), ("divergence_knob", self.divergence_knob)):
            if not math.isfinite(knob):  # NaN or inf would otherwise fail deep inside generation
                raise ValueError(f"{name} must be finite, got {knob}")
        if self.concentration <= 0:
            raise ValueError(f"concentration must be > 0, got {self.concentration}")
        if self.divergence_knob < 0:
            raise ValueError(f"divergence_knob must be >= 0, got {self.divergence_knob}")
        if (total := self.concentration + self.divergence_knob) > _KNOB_SUM_MAX:
            raise ValueError(f"concentration + divergence_knob must be <= {_KNOB_SUM_MAX:.3g}, got {total}")


class TableArModel:
    """Autoregressive categorical model backed by an exact per-prefix table.

    Every prefix of length ``< max_depth`` over ``[0, vocab_size)`` has a
    next-token distribution, either stored explicitly or produced on demand
    by ``generator`` and cached.  Models are immutable after construction
    (the cache is an internal memo), so they are safe to share across
    concurrent readers.  A model pickles, memo included, when its generator does.
    """

    def __init__(
        self,
        vocab_size: int,
        max_depth: int,
        table: dict[Sequence, Dist] | None = None,
        generator: Callable[[Sequence], Dist] | None = None,
    ):
        if vocab_size < 2:
            raise ValueError(f"vocab_size must be >= 2, got {vocab_size}")
        if max_depth < 1:
            raise ValueError(f"max_depth must be >= 1, got {max_depth}")
        if table is None and generator is None:
            raise ValueError("need an explicit table or a generator")
        self.vocab_size = vocab_size
        self.max_depth = max_depth
        self._table: dict[Sequence, Dist] = {}
        self._generator = generator
        if table:
            for prefix, dist in table.items():
                prefix = self._check_prefix(prefix, max_depth - 1)
                self._table[prefix] = self._check_dist(prefix, tuple(dist))

    def _check_dist(self, prefix: Sequence, dist: Dist) -> Dist:
        if len(dist) != self.vocab_size:
            raise ValueError(f"distribution for prefix {prefix} has length {len(dist)}, expected {self.vocab_size}")
        if not all(w >= 0.0 for w in dist):  # NaN fails too, so no NaN gap reaches a branch sum
            raise ValueError(f"negative or NaN probability in distribution for prefix {prefix}")
        if abs(math.fsum(dist) - 1.0) > 1e-12:
            raise ValueError(f"distribution for prefix {prefix} sums to {math.fsum(dist)!r}, not 1")
        return dist

    def _check_prefix(self, prefix: Sequence, max_len: int) -> Sequence:
        prefix = tuple(prefix)
        if len(prefix) > max_len:
            raise ValueError(f"prefix of length {len(prefix)} exceeds model depth {self.max_depth}")
        for tok in prefix:
            if not 0 <= tok < self.vocab_size:
                raise ValueError(f"token {tok} out of range [0, {self.vocab_size})")
        return prefix

    def conditional(self, prefix: Sequence) -> Dist:
        """Exact next-token distribution after ``prefix``.  Pure."""
        dist = self._table.get(prefix) if type(prefix) is tuple else None
        if dist is None:
            # validate only off the cached path; cached prefixes were checked once
            prefix = self._check_prefix(prefix, self.max_depth - 1)
            dist = self._table.get(prefix)
            if dist is None:
                if self._generator is None:
                    raise ValueError(f"prefix {prefix} missing from explicit table")
                dist = self._check_dist(prefix, self._generator(prefix))
                self._table[prefix] = dist
        return dist

    def joint(self, seq: Sequence) -> float:
        """Probability of ``seq`` as the product of its conditionals."""
        seq = self._check_prefix(seq, self.max_depth)
        prob = 1.0
        for t, tok in enumerate(seq):
            prob *= self.conditional(seq[:t])[tok]
        return prob

    def prefixes(self) -> Iterator[Sequence]:
        """All prefixes the table covers, shortest first."""
        for length in range(self.max_depth):
            yield from product(range(self.vocab_size), repeat=length)


def generate_model_pair(spec: ModelPairSpec) -> tuple[TableArModel, TableArModel]:
    """Build the seeded (target, draft) pair described by ``spec``.

    Target conditionals are softmaxes of i.i.d. normal logits scaled by the
    concentration; draft conditionals re-softmax the same logits after adding
    a zero-mean perturbation of magnitude ``divergence_knob``.  Deterministic
    for a fixed seed, and a zero knob reproduces the target bit for bit.
    """
    p = TableArModel(spec.vocab_size, spec.max_depth, generator=_PairGenerator(spec))
    q = TableArModel(spec.vocab_size, spec.max_depth, generator=_PairGenerator(spec, p))
    return p, q


class _PairGenerator:
    """The conditionals of a generated pair: the target's, or with ``target`` set the draft's.

    Unlike a closure it pickles, so a pair crosses a process boundary as its
    spec and memo; pickled in one payload, a draft keeps its link to the target.
    """

    def __init__(self, spec: ModelPairSpec, target: TableArModel | None = None):
        self.spec, self.target = spec, target

    def __call__(self, prefix: Sequence) -> Dist:
        spec, p = self.spec, self.target
        rng = substream(spec.seed, _STREAM_LOGITS, len(prefix), *prefix)
        logits = spec.concentration * rng.standard_normal(spec.vocab_size)
        if p is None:
            return _softmax(logits)
        # the target conditional comes from the same logits: keep it, so the
        # target never derives this prefix's stream a second time
        if prefix not in p._table:
            p._table[prefix] = p._check_dist(prefix, _softmax(logits))
        if spec.divergence_knob != 0.0:
            noise = substream(spec.seed, _STREAM_NOISE, len(prefix), *prefix).standard_normal(spec.vocab_size)
            logits = logits + spec.divergence_knob * noise
        return _softmax(logits)


class DraftTrace(NamedTuple):
    """A drafted token block plus every distribution a verifier may touch.

    ``q_dists[t]`` and ``p_dists[t]`` are the draft and target conditionals
    at position ``t + 1`` given ``prefix + tokens[:t]``.  ``bonus_dist`` is
    the target conditional after the full block, present when the model depth
    allows one more token.
    """

    prefix: Sequence
    tokens: Sequence
    q_dists: tuple[Dist, ...]
    p_dists: tuple[Dist, ...]
    bonus_dist: Dist | None

    @property
    def gamma(self) -> int:
        return len(self.tokens)


def trace_for(
    q: TableArModel,
    p: TableArModel,
    prefix: Sequence,
    tokens: Sequence,
) -> DraftTrace:
    """Assemble the trace for a given (already chosen) token block."""
    prefix, tokens = tuple(prefix), tuple(tokens)
    if q.vocab_size != p.vocab_size:
        raise ValueError(f"vocab mismatch: draft {q.vocab_size} vs target {p.vocab_size}")
    depth = min(q.max_depth, p.max_depth)
    if len(prefix) + len(tokens) > depth:
        raise ValueError(f"prefix({len(prefix)}) + draft({len(tokens)}) exceeds model depth {depth}")
    q_dists, p_dists = [], []
    for t in range(len(tokens)):
        context = prefix + tokens[:t]
        q_dists.append(q.conditional(context))
        p_dists.append(p.conditional(context))
    bonus = None
    if len(prefix) + len(tokens) < p.max_depth:
        bonus = p.conditional(prefix + tokens)
    return DraftTrace(prefix, tokens, tuple(q_dists), tuple(p_dists), bonus)


RUN_MEMO_CAP = 8_192  # entries one Monte Carlo run's memo stores; past it, a value is built and not stored


class _Run(threading.local):
    """This thread's open run: its memo, or None outside a run, and the number of entries it may store."""

    memo: dict | None = None
    cap = 0


_run = _Run()


@contextmanager
def run_memo(cap: int) -> Iterator[None]:
    """Keep one memo for the enclosed run, in this thread alone, dropped on exit, also on an exception.

    While the memo holds fewer than ``cap`` entries, a value that is a pure
    function of its key is stored by that key: draft trie nodes by
    ``(q, p, prefix)`` and ``(node, token)``, plans by ``(plan, trace)``, and
    branch sums by ``(p_dist, q_dist, hybrid, base_q)``.  Each key holds
    every operand of its value, so one memo serves every pair and prefix only
    its own values, and outcomes are bit-identical with or without it.
    """
    outer = _run.memo, _run.cap
    _run.memo, _run.cap = {}, cap
    try:
        yield
    finally:
        _run.memo, _run.cap = outer


def remember(key, value):
    """``value``, stored under ``key`` while this thread's open run memo holds fewer entries than its cap."""
    memo = _run.memo
    if memo is not None and len(memo) < _run.cap:
        memo[key] = value
    return value


class _Node:
    """A drafted context in a run's trie: the draft conditional at it, and the trace that ends at it."""

    __slots__ = ("context", "q_dist", "trace")

    def __init__(self, context: Sequence):
        self.context, self.q_dist, self.trace = context, None, None


def sample_draft(
    q: TableArModel,
    p: TableArModel,
    prefix: Sequence,
    gamma: int,
    rng: np.random.Generator,
) -> DraftTrace:
    """Draw ``gamma`` tokens ancestrally from the draft model.

    Records the full draft and target conditionals at every position (and the
    bonus target conditional when depth permits), which is exactly the
    information available to a verifier after one draft + one target pass.
    Inside a :func:`run_memo` the conditionals come from the run's trie of
    drafted contexts, fetched once per context, and a repeated draft returns
    the same trace object; the same uniforms invert the same conditionals, so
    the drafts are bit-identical.  Outside a run nothing is stored.  ``rng``
    is a stream or a :func:`stream_run` yield: only its ``.random()`` is called.
    """
    if gamma < 0:
        raise ValueError(f"gamma must be >= 0, got {gamma}")
    if q.vocab_size != p.vocab_size:
        raise ValueError(f"vocab mismatch: draft {q.vocab_size} vs target {p.vocab_size}")
    prefix = tuple(prefix)
    if len(prefix) + gamma > min(q.max_depth, p.max_depth):
        raise ValueError(f"prefix({len(prefix)}) + draft({gamma}) exceeds model depth")
    memo = _run.memo
    node = None if memo is None else (memo.get((q, p, prefix)) or remember((q, p, prefix), _Node(prefix)))
    context = prefix
    q_dists, p_dists = [], []
    for _ in range(gamma):
        if node is None:  # no run: fetch this position's conditionals and keep them
            q_dist = q.conditional(context)
            q_dists.append(q_dist)
            p_dists.append(p.conditional(context))
        else:
            q_dist = node.q_dist
            if q_dist is None:
                q_dist = node.q_dist = q.conditional(node.context)
        tok = index_from_uniform(q_dist, rng.random())
        if node is None:
            context += (tok,)
        else:
            node = memo.get((node, tok)) or remember((node, tok), _Node(node.context + (tok,)))
    if node is not None:
        if node.trace is None:
            node.trace = trace_for(q, p, prefix, node.context[len(prefix):])
        return node.trace
    bonus = p.conditional(context) if len(context) < p.max_depth else None
    return DraftTrace(prefix, context[len(prefix):], tuple(q_dists), tuple(p_dists), bonus)
