"""The three benchmark workloads.

Each workload turns a workload seed into a deterministic sequence of ops.
``run(k)`` performs op ``k`` through specverify's public functions and is the
only part that is timed; ``check(k, result)`` verifies its output and returns
the problems found.  The first ``window`` ops are the same on every run with
the same seed: they feed the golden records and the tracer's exact counts.
Every ``chunk`` consecutive ops hold the same mix of work, so the work rates
of chunks can be compared with each other.

Library functions are looked up on the package at call time (``sv.f``), so
the tracer's wrappers are the ones called when tracing is on.
"""

from __future__ import annotations

import collections
import hashlib
import math

import specverify as sv
from specverify import oracle

TV_TOL = 1e-9  # the losslessness tolerance of acceptance criterion 1
CONSERVATION_TOL = 1e-9
ORDER_SLACK = 1e-10  # slack of the per-trace expected-length ordering (criterion 3)
WHOLE_DRAFT_SLACK = 1e-12
GOLDEN_REL_TOL = 1e-12  # E[tau] sums and refutation TVs; everything else is compared exactly
# A correct verifier fails monte_carlo_fit's 4-sigma test on about 2.5e-4 of
# fits.  Such a FAIL counts as a false alarm, not a failed op, as long as every
# sequence stays within this many sigma and the TV stays under its bound.
FALSE_ALARM_Z = 6.0

SINGLE_DRAFT = ("tokenwise", "naive-hsd", "capped-hsd")


def derive(*parts) -> int:
    """Stable 63-bit seed from any tuple of ints and strings."""
    digest = hashlib.sha256(repr(parts).encode()).digest()
    return int.from_bytes(digest[:8], "little") >> 1


class ExactOracle:
    """Exact certificates by enumeration at V=4, gamma=L=5.

    Per model pair: one certificate each for tokenwise, naive-hsd and
    capped-hsd, then one h-double refutation.  The pairs come from a pool of
    POOL pairs that is the same for every seed, and the run visits it over and
    over in an order the seed picks.  A pair's four certificates cost from
    0.7 to 1.4 s, and a run covers about 30 pairs, so pairs drawn afresh from
    each seed would make two runs differ by the pairs they drew.  Pool pair
    ``i`` is refuted with verifier ``i % 3``, so every verifier is refuted on
    a third of the pool.
    """

    name = "exact-oracle"
    unit = "cert"
    tail_pct = 90
    window = 8  # two pairs
    chunk = 4  # one pair
    VOCAB, GAMMA, EPS = 4, 5, 0.8
    POOL, POOL_SEED = 24, 40_004
    expected_spans = (
        "models.substream",
        "models.conditional",
        "models.trace_for",
        "models.generate_model_pair",
        "divergence.ratio_chain",
        "divergence.joint_products",
        "divergence.capped_branch_masses",
        "verify.tokenwise_chain",
        "verify.naive_hsd_chain",
        "verify.capped_hsd_chain",
        "verify.tokenwise_residual",
        "verify.naive_branch_residual",
        "verify.capped_branch_residual",
        "oracle.enumerate_yield",
        "oracle.target_joint_distribution",
        "oracle.total_variation",
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.order = sorted(range(self.POOL), key=lambda i: derive(seed, "order", i))
        self._visit = -1  # every visit builds its pair afresh, with an empty memo
        self._pair = None
        self._refutation_tvs: list[float] = []

    def config(self) -> dict:
        return {
            "vocab": self.VOCAB,
            "gamma": self.GAMMA,
            "length": self.GAMMA,
            "eps": self.EPS,
            "ops_per_pair": 4,
            "pool": self.POOL,
            "pool_seed": self.POOL_SEED,
            "order": self.order,
        }

    def _op(self, k: int) -> tuple[int, int, str, str | None]:
        """(visit, pool pair, verifier, mutation) of op ``k``."""
        visit, slot = divmod(k, 4)
        i = self.order[visit % self.POOL]
        if slot < 3:
            return visit, i, SINGLE_DRAFT[slot], None
        return visit, i, SINGLE_DRAFT[i % 3], "h-double"

    def run(self, k: int):
        visit, i, verifier, mutate = self._op(k)
        if visit != self._visit:
            self._pair = sv.generate_model_pair(
                sv.ModelPairSpec(self.VOCAB, self.GAMMA, derive(self.POOL_SEED, i), self.EPS)
            )
            self._visit = visit
        p, q = self._pair
        yielded = sv.enumerate_yield(verifier, p, q, self.GAMMA, self.GAMMA, mutate=mutate)
        target = sv.target_joint_distribution(p, self.GAMMA)
        return sv.total_variation(yielded, target), yielded.total()

    def check(self, k: int, result) -> list[str]:
        _, i, verifier, mutate = self._op(k)
        tv, total = result
        if mutate is not None:
            if k < self.window:
                self._refutation_tvs.append(tv)
            return [] if tv >= TV_TOL else [f"pool pair {i}: {verifier} {mutate} not detected (tv={tv:.3e})"]
        problems = []
        if not tv < TV_TOL:
            problems.append(f"pool pair {i}: {verifier} tv={tv:.3e} >= {TV_TOL}")
        if not abs(total - 1.0) < CONSERVATION_TOL:
            problems.append(f"pool pair {i}: {verifier} total mass {total!r}")
        return problems

    def units(self, k: int) -> int:
        return 1

    def golden(self) -> dict:
        return {"refutation_tv": self._refutation_tvs}

    def report(self) -> list[str]:
        return []


class _HistogramProbe:
    """Captures the Counter that monte_carlo_fit tallies its trials in.

    FitReport carries no counts, so the exact histogram is read from the one
    ``oracle.Counter`` instance a single-worker fit creates.  Swapping the
    class costs nothing per trial.
    """

    def __init__(self) -> None:
        self.made: list[collections.Counter] = []

    def __enter__(self):
        if oracle.Counter is not collections.Counter:
            raise RuntimeError("histogram probe: specverify.oracle no longer tallies trials in collections.Counter")
        made = self.made

        class Recording(collections.Counter):
            def __init__(self, *args, **kwargs):
                super().__init__(*args, **kwargs)
                made.append(self)

        oracle.Counter = Recording
        return self

    def __exit__(self, *exc) -> None:
        oracle.Counter = collections.Counter

    def histogram(self) -> dict:
        if len(self.made) != 1:
            raise RuntimeError(f"histogram probe: expected one Counter per fit, saw {len(self.made)}")
        return dict(self.made[0])


class McFit:
    """Monte Carlo fits at 10^4 trials on acceptance criterion 2's pair.

    Rotates over the multi-draft verifiers, the three single-draft verifiers
    and one h-double mutation that must FAIL.  The pair (V=2, depth 3) is the
    same for every seed, because the cost of a trial moves by up to 25% from
    pair to pair; the seed picks the trials' random streams.  The pair's
    h-double yield sits at an expected z of 21.5 at 10^4 trials, against the
    test's bound of 4, so the mutation is always detected.
    """

    name = "mc-fit"
    unit = "trial"
    tail_pct = 75
    VOCAB, DEPTH, GAMMA, LENGTH, EPS, TRIALS = 2, 3, 2, 2, 0.8, 10_000
    PAIR_SEED = 20_002
    # (verifier, drafts, mutation)
    FITS = (
        ("multidraft-hsd", 2, None),
        ("multidraft-hsd", 3, None),
        ("multidraft-tokenwise", 3, None),
        ("naive-hsd", 1, None),
        ("tokenwise", 1, None),
        ("capped-hsd", 1, None),
        ("capped-hsd", 1, "h-double"),
    )
    window = chunk = len(FITS)
    expected_spans = (
        "models.substream",
        "models.conditional",
        "models.sample_draft",
        "divergence.ratio_chain",
        "divergence.joint_products",
        "divergence.capped_branch_masses",
        "verify.tokenwise_chain",
        "verify.naive_hsd_chain",
        "verify.capped_hsd_chain",
        "verify.tokenwise_residual",
        "verify.naive_branch_residual",
        "verify.capped_branch_residual",
        "verify.forward_scan",
        "verify.backward_scan",
        "verify.tokenwise_verify",
        "verify.naive_hsd_verify",
        "verify.capped_hsd_verify",
        "verify.multidraft_hsd_verify",
        "verify.multidraft_tokenwise_verify",
        "oracle.target_joint_distribution",
        "oracle.monte_carlo_fit",
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self.p, self.q = sv.generate_model_pair(sv.ModelPairSpec(self.VOCAB, self.DEPTH, self.PAIR_SEED, self.EPS))
        for prefix in self.p.prefixes():  # fill the memo: every prefix is a hit from the first trial on
            self.p.conditional(prefix)
            self.q.conditional(prefix)
        self.false_alarms = 0
        self._golden: list[dict] = []

    def config(self) -> dict:
        return {
            "vocab": self.VOCAB,
            "depth": self.DEPTH,
            "gamma": self.GAMMA,
            "length": self.LENGTH,
            "eps": self.EPS,
            "trials": self.TRIALS,
            "pair_seed": self.PAIR_SEED,
            "fits": [list(fit) for fit in self.FITS],
        }

    def run(self, k: int):
        verifier, drafts, mutate = self.FITS[k % len(self.FITS)]
        with _HistogramProbe() as probe:
            fit = sv.monte_carlo_fit(
                verifier, self.p, self.q, self.GAMMA, self.LENGTH, self.TRIALS, derive(self.seed, k),
                k_drafts=drafts, mutate=mutate,
            )
        return fit, probe.histogram()

    def check(self, k: int, result) -> list[str]:
        verifier, drafts, mutate = self.FITS[k % len(self.FITS)]
        fit, histogram = result
        label = f"fit {k} ({verifier} K={drafts}{' ' + mutate if mutate else ''})"
        problems = []
        if sum(histogram.values()) != self.TRIALS:
            problems.append(f"{label}: histogram holds {sum(histogram.values())} trials, not {self.TRIALS}")
        if mutate is not None:
            if fit.passed:
                problems.append(f"{label}: mutation not detected (tv={fit.tv:.3e}, max_z={fit.max_z:.2f})")
        elif not fit.passed:
            if fit.max_z <= FALSE_ALARM_Z and fit.tv < fit.tv_bound:
                self.false_alarms += 1
            else:
                problems.append(f"{label}: FAIL (tv={fit.tv:.3e}, max_z={fit.max_z:.2f})")
        if k < self.window:
            self._golden.append({",".join(map(str, seq)): n for seq, n in sorted(histogram.items())})
        return problems

    def units(self, k: int) -> int:
        return self.TRIALS

    def report(self) -> list[str]:
        return [f"{self.false_alarms} healthy fits failed the 4-sigma test within {FALSE_ALARM_Z:g} sigma (false alarms)"]

    def golden(self) -> dict:
        return {"fits": self._golden}


class ExpectedLength:
    """The criterion-3 / ``bench`` grid: one op is one drafted trace.

    Ops go round-robin over the 12 configs.  Every TRACES_PER_CONFIG traces
    a config starts a new round on a fresh pair, which bounds the memo and
    with it peak RSS no matter how fast the program runs.  The configs' rounds
    are staggered, so after the first round every stretch of the run holds
    the same mix of fresh and warm memos.
    """

    name = "expected-length"
    unit = "trace"
    tail_pct = 99.9
    GRID = tuple((v, g, e) for v in (8, 32) for g in (5, 10) for e in (0.1, 0.5, 1.0))
    TRACES_PER_CONFIG = 1000
    METHODS = ("tokenwise", "blockwise", "hsd")
    window = 1200  # the first 100 traces of every config
    chunk = 600
    expected_spans = (
        "models.substream",
        "models.conditional",
        "models.sample_draft",
        "models.generate_model_pair",
        "divergence.ratio_chain",
        "divergence.joint_products",
        "divergence.capped_branch_masses",
        "verify.tokenwise_chain",
        "verify.capped_hsd_chain",
        "verify.blockwise_acceptance_chain",
        "verify.expected_accept_length",
        "metrics.method_expected_tau.tokenwise",
        "metrics.method_expected_tau.blockwise",
        "metrics.method_expected_tau.hsd",
        "metrics.whole_draft_acceptance",
    )

    def __init__(self, seed: int) -> None:
        self.seed = seed
        self._pairs: dict[int, tuple] = {}  # config -> (round, p, q, stream seed)
        self.block_below_token = 0
        self._digest = hashlib.sha256()
        self._window_taus = {m: [] for m in self.METHODS}
        self._window_block_below_token = 0

    def config(self) -> dict:
        return {"grid": [list(c) for c in self.GRID], "traces_per_config": self.TRACES_PER_CONFIG, "concentration": 1.0}

    def _where(self, k: int) -> tuple[int, int, int]:
        """(config, round, trace index in the round) of op ``k``."""
        config, i = k % len(self.GRID), k // len(self.GRID)
        shifted = i + config * self.TRACES_PER_CONFIG // len(self.GRID)
        return config, shifted // self.TRACES_PER_CONFIG, shifted % self.TRACES_PER_CONFIG

    def run(self, k: int):
        config, rnd, i = self._where(k)
        vocab, gamma, eps = self.GRID[config]
        pair = self._pairs.get(config)
        if pair is None or pair[0] != rnd:
            spec = sv.ModelPairSpec(vocab, gamma, derive(self.seed, rnd, config, "pair"), eps, 1.0)
            pair = self._pairs[config] = (rnd, *sv.generate_model_pair(spec), derive(self.seed, rnd, config, "draft"))
        _, p, q, stream = pair
        trace = sv.sample_draft(q, p, (), gamma, sv.substream(stream, i))
        taus = tuple(sv.method_expected_tau(method, trace) for method in self.METHODS)
        return trace.tokens, taus, sv.whole_draft_acceptance(trace)

    def check(self, k: int, result) -> list[str]:
        tokens, (e_tok, e_blk, e_hsd), whole = result
        gamma = self.GRID[self._where(k)[0]][1]
        problems = []
        for method, tau in zip(self.METHODS, (e_tok, e_blk, e_hsd)):
            if not -WHOLE_DRAFT_SLACK <= tau <= gamma + WHOLE_DRAFT_SLACK:
                problems.append(f"trace {k}: E[tau] {method} = {tau!r} outside [0, {gamma}]")
        if e_hsd < e_blk - ORDER_SLACK:
            problems.append(f"trace {k}: E[tau] hsd {e_hsd!r} < blockwise {e_blk!r}")
        if not (
            whole["ideal"] >= whole["ours"] - WHOLE_DRAFT_SLACK
            and whole["ours"] >= whole["block"] - WHOLE_DRAFT_SLACK
            and whole["block"] >= whole["token"] - WHOLE_DRAFT_SLACK
        ):
            problems.append(f"trace {k}: whole-draft acceptance out of order {whole}")
        # the known criterion-3 result: counted, pinned by the golden record, not a failure
        below = e_blk < e_tok - ORDER_SLACK
        self.block_below_token += below
        if k < self.window:
            self._digest.update(bytes(tokens))  # every vocabulary here is below 256
            self._window_block_below_token += below
            for method, tau in zip(self.METHODS, (e_tok, e_blk, e_hsd)):
                self._window_taus[method].append(tau)
        return problems

    def units(self, k: int) -> int:
        return 1

    def report(self) -> list[str]:
        return [f"E[tau] blockwise < tokenwise on {self.block_below_token} traces (criterion 3's known red)"]

    def golden(self) -> dict:
        return {
            "tokens_sha256": self._digest.hexdigest(),
            "block_below_token": self._window_block_below_token,
            "tau_sums": {m: math.fsum(v) for m, v in self._window_taus.items()},
        }


WORKLOADS = {w.name: w for w in (ExactOracle, McFit, ExpectedLength)}


def golden_mismatches(path: str, got, want) -> list[str]:
    """Every golden field must match exactly; floats within GOLDEN_REL_TOL."""
    if isinstance(want, float) and isinstance(got, float):
        return [] if abs(got - want) <= GOLDEN_REL_TOL * abs(want) else [f"golden {path}: {got!r} != {want!r}"]
    if isinstance(want, dict) and isinstance(got, dict) and got.keys() == want.keys():
        return [problem for key in want for problem in golden_mismatches(f"{path}.{key}", got[key], want[key])]
    if isinstance(want, list) and isinstance(got, list) and len(got) == len(want):
        return [problem for i, (g, w) in enumerate(zip(got, want)) for problem in golden_mismatches(f"{path}[{i}]", g, w)]
    return [] if got == want else [f"golden {path}: {got!r} != {want!r}"]
