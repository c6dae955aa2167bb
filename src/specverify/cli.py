"""Command-line harness for the verification laboratory.

Subcommands:
    oracle   enumerate verifier yield distributions over seeded model pairs
             and check them against the target joint (exit 2 on any failure)
    bench    sweep a (vocab, gamma, eps) grid and report expected accepted
             tokens per method, enforcing hsd >= block per trace and
             counting traces where block falls below token
    mc       Monte Carlo goodness of fit, including multi-draft verifiers
    example  replay the embedded reference worked example

Exit codes: 0 success, 1 usage/config error, 2 scientific assertion failure.
Every command is deterministic given its config and master seed, and output
files are byte-identical for any worker count.  When ``--out`` is omitted,
reports land in ``$SPECVERIFY_OUT_DIR`` (or the working directory).
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import math
import os
import sys
from functools import partial
from pathlib import Path

from .metrics import method_expected_tau, whole_draft_acceptance
from .models import ModelPairSpec, generate_model_pair, sample_draft, seed_state, stream_run, uniforms
from .oracle import (
    ENUMERATION_GUARD,
    MULTI_DRAFT_VERIFIERS,
    MUTATIONS,
    SINGLE_DRAFT_VERIFIERS,
    enumerate_yield,
    monte_carlo_fit,
    pool_map,
    target_joint_distribution,
    total_variation,
)
from .verify import MULTI_DRAFT
from .worked_example import (
    REFERENCE_ACCEPTED_LENGTH,
    REFERENCE_BRANCH_H,
    REFERENCE_P_COND,
    REFERENCE_Q_COND,
    deterministic_accepted_length,
    recomputed_chain,
    recomputed_tokenwise_h,
    run_checks,
)

EXIT_OK, EXIT_USAGE, EXIT_SCIENCE = 0, 1, 2
ENV_OUT_DIR = "SPECVERIFY_OUT_DIR"

TV_TOL = 1e-9
CONSERVATION_TOL = 1e-9
ORDER_SLACK = 1e-10
WHOLE_DRAFT_SLACK = 1e-12
STRICT_GAP = 1e-9

def derive_seed(master: int, *keys: int) -> int:
    """Stable 64-bit seed for a sub-experiment."""
    return int(seed_state(master, keys, 1)[0])


def _write_report(args: argparse.Namespace, stem: str, doc: dict, rows: list[dict]) -> Path:
    """Write ``doc`` as JSON or ``rows`` as CSV (header: the first row's keys) to ``--out``.

    The default path is ``<stem>.<format>`` in ``$SPECVERIFY_OUT_DIR``, or in the working directory.
    """
    if args.out:
        out = Path(args.out)
    else:
        out = Path(os.environ.get(ENV_OUT_DIR, "")) / f"{stem}.{args.format}"
    if args.format == "json":
        text = json.dumps(doc, indent=2) + "\n"
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(rows[0])
        writer.writerows([_cell(v) for v in row.values()] for row in rows)
        text = buf.getvalue()
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(text)
    return out


def _cell(value) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, (list, tuple)):
        return " ".join(str(v) for v in value)
    return str(value)


def _int_list(text: str) -> list[int]:
    return [int(v) for v in text.split(",") if v != ""]


def _float_list(text: str) -> list[float]:
    return [float(v) for v in text.split(",") if v != ""]


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def _oracle_pair_job(job: tuple[int, ModelPairSpec], gamma: int, length: int, verifiers: list[str], mutate) -> list:
    pair_index, spec = job
    p_model, q_model = generate_model_pair(spec)
    target = target_joint_distribution(p_model, length)
    reports = []
    for verifier in verifiers:
        dist = enumerate_yield(verifier, p_model, q_model, gamma, length, mutate=mutate)
        tv = total_variation(dist, target)
        conservation = abs(dist.total() - 1.0)
        worst_seq, worst_err = (), 0.0
        for seq, expected in target.probs.items():
            err = abs(dist.probs.get(seq, 0.0) - expected)
            if err > worst_err:
                worst_seq, worst_err = seq, err
        reports.append(
            {
                "verifier": verifier,
                "vocab_size": spec.vocab_size,
                "gamma": gamma,
                "length": length,
                "seed": spec.seed,
                "pair_index": pair_index,
                "tv": tv,
                "conservation": conservation,
                "worst_sequence": list(worst_seq),
                "worst_error": worst_err,
                "pass": tv < TV_TOL and conservation < CONSERVATION_TOL,
            }
        )
    return reports


def _output_length(args: argparse.Namespace) -> int:
    """``--length``, by default ``--gamma``; refused before any work when either is out of range."""
    if args.gamma < 1:
        raise ValueError(f"--gamma must be >= 1, got {args.gamma}")
    length = args.length if args.length is not None else args.gamma
    if length < args.gamma:
        raise ValueError(f"--length {length} is shorter than --gamma {args.gamma}")
    return length


def cmd_oracle(args: argparse.Namespace) -> int:
    verifiers = [v.strip() for v in args.verifiers.split(",") if v.strip()]
    if not verifiers:
        raise ValueError("no verifier to certify")
    for v in verifiers:
        if v not in SINGLE_DRAFT_VERIFIERS:
            raise ValueError(f"unknown verifier {v!r}; oracle enumerates {SINGLE_DRAFT_VERIFIERS}")
    length = _output_length(args)
    depth = args.depth if args.depth is not None else length
    if depth < length:
        raise ValueError(f"--depth {depth} is shallower than the output length {length}")
    if args.pairs < 1:
        raise ValueError("need at least one model pair")
    specs = [
        ModelPairSpec(args.vocab, depth, derive_seed(args.seed, i), args.eps, args.concentration)
        for i in range(args.pairs)
    ]
    for spec in specs:
        spec.validate()
    if args.vocab**length > ENUMERATION_GUARD:
        raise ValueError(f"{args.vocab}^{length} sequences exceed the enumeration guard ({ENUMERATION_GUARD})")
    job = partial(_oracle_pair_job, gamma=args.gamma, length=length, verifiers=verifiers, mutate=args.mutate)
    reports = [report for group in pool_map(job, list(enumerate(specs)), args.workers) for report in group]
    all_pass = all(r["pass"] for r in reports)
    doc = {
        "command": "oracle",
        "config": {
            "vocab_size": args.vocab,
            "gamma": args.gamma,
            "length": length,
            "depth": depth,
            "eps": args.eps,
            "concentration": args.concentration,
            "seed": args.seed,
            "pairs": args.pairs,
            "verifiers": verifiers,
            "mutate": args.mutate,
            "tv_tolerance": TV_TOL,
            "conservation_tolerance": CONSERVATION_TOL,
        },
        "reports": reports,
        "all_pass": all_pass,
    }
    out = _write_report(args, "oracle_report", doc, reports)
    for r in reports:
        status = "pass" if r["pass"] else "FAIL"
        print(f"oracle {r['verifier']:>12s} pair {r['pair_index']:3d}  tv={r['tv']:.3e}  {status}")
    print(f"oracle: {len(reports)} reports, all_pass={all_pass}, wrote {out}")
    return EXIT_OK if all_pass else EXIT_SCIENCE


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def _bench_config_job(job: tuple[int, int, ModelPairSpec], n: int, master_seed: int) -> tuple[list[dict], dict]:
    """The three method rows of one grid configuration, and its ``summary.configs`` entry."""
    index, gamma, spec = job
    p_model, q_model = generate_model_pair(spec)
    taus = {"tokenwise": [], "blockwise": [], "hsd": []}
    wholes = {"tokenwise": [], "blockwise": [], "hsd": []}
    violations = 0
    block_below_token = 0  # allowed per trace: the ordering holds over drafts
    strict_branch_block = 0
    strict_block_token = 0
    for draft_index in stream_run(master_seed, range(n), head=(index,)):
        rng = uniforms(master_seed, index, draft_index)
        trace = sample_draft(q_model, p_model, (), gamma, rng)
        e_tok = method_expected_tau("tokenwise", trace)
        e_blk = method_expected_tau("blockwise", trace)
        e_hsd = method_expected_tau("hsd", trace)
        whole = whole_draft_acceptance(trace)
        taus["tokenwise"].append(e_tok)
        taus["blockwise"].append(e_blk)
        taus["hsd"].append(e_hsd)
        wholes["tokenwise"].append(whole["token"])
        wholes["blockwise"].append(whole["block"])
        wholes["hsd"].append(whole["ours"])
        if e_hsd < e_blk - ORDER_SLACK:
            violations += 1
        if e_blk < e_tok - ORDER_SLACK:
            block_below_token += 1
        if not (
            whole["ideal"] >= whole["ours"] - WHOLE_DRAFT_SLACK
            and whole["ours"] >= whole["block"] - WHOLE_DRAFT_SLACK
            and whole["block"] >= whole["token"] - WHOLE_DRAFT_SLACK
        ):
            violations += 1
        if e_hsd > e_blk + STRICT_GAP:
            strict_branch_block += 1
        if e_blk > e_tok + STRICT_GAP:
            strict_block_token += 1
    rows = [
        {
            "method": method,
            "vocab_size": spec.vocab_size,
            "gamma": gamma,
            "eps": spec.divergence_knob,
            "seed": spec.seed,
            "n_drafts": n,
            "mean_expected_tau": math.fsum(taus[method]) / n,
            "mean_block_efficiency": math.fsum(taus[method]) / n + 1.0,
            "mean_whole_draft_accept": math.fsum(wholes[method]) / n,
        }
        for method in ("tokenwise", "blockwise", "hsd")
    ]
    config = {
        "index": index,
        "vocab_size": spec.vocab_size,
        "gamma": gamma,
        "eps": spec.divergence_knob,
        "violations": violations,
        "block_below_token": block_below_token,
        "strict_branch_block": strict_branch_block / n,
        "strict_block_token": strict_block_token / n,
    }
    return rows, config


def cmd_bench(args: argparse.Namespace) -> int:
    vocabs, gammas, epss = args.vocab, args.gamma, args.eps
    if args.trials < 1:
        raise ValueError("need at least one draft per configuration")
    grid = [(v, g, e) for v in vocabs for g in gammas for e in epss]
    if not grid:
        raise ValueError("empty grid: --vocab, --gamma and --eps each need at least one value")
    jobs = []
    for i, (v, g, e) in enumerate(grid):
        if g < 1:
            raise ValueError(f"--gamma must be >= 1, got {g}")
        if args.depth is not None and args.depth < g:
            raise ValueError(f"depth {args.depth} is shallower than gamma {g}")
        spec = ModelPairSpec(v, args.depth or g, derive_seed(args.seed, i), e, args.concentration)
        spec.validate()
        jobs.append((i, g, spec))
    results = pool_map(partial(_bench_config_job, n=args.trials, master_seed=args.seed), jobs, args.workers)
    rows = [row for res_rows, _ in results for row in res_rows]
    configs = [config for _, config in results]
    total_violations = sum(c["violations"] for c in configs)
    summary = {
        "configs": configs,
        "ordering_violations": total_violations,
        "block_below_token": sum(c["block_below_token"] for c in configs),
        "order_slack": ORDER_SLACK,
    }
    doc = {
        "command": "bench",
        "config": {
            "vocab": vocabs,
            "gamma": gammas,
            "eps": epss,
            "concentration": args.concentration,
            "seed": args.seed,
            "n_drafts": args.trials,
        },
        "rows": rows,
        "summary": summary,
    }
    out = _write_report(args, "bench_results", doc, rows)
    for c in configs:
        print(
            f"bench V={c['vocab_size']:3d} gamma={c['gamma']:3d} eps={c['eps']:4.2f}  violations={c['violations']}"
            f"  block<token={c['block_below_token']}"
            f"  strict(hsd>block)={c['strict_branch_block']:.3f}"
            f"  strict(block>token)={c['strict_block_token']:.3f}"
        )
    print(f"bench: {len(rows)} rows, ordering_violations={total_violations}, wrote {out}")
    return EXIT_OK if total_violations == 0 else EXIT_SCIENCE


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def cmd_mc(args: argparse.Namespace) -> int:
    verifier = args.verifier
    if args.drafts < 1:
        raise ValueError(f"--drafts must be >= 1, got {args.drafts}")
    if args.drafts > 1 and verifier in SINGLE_DRAFT_VERIFIERS:
        variants = {single: multi for multi, single in MULTI_DRAFT.items()}
        if verifier not in variants:
            raise ValueError(f"{verifier} has no multi-draft variant")
        verifier = variants[verifier]
    length = _output_length(args)
    need = max(length, args.gamma + 1)  # the output, and the bonus token after a full draft
    depth = args.depth if args.depth is not None else need
    if depth < need:
        raise ValueError(f"--depth {depth} is shallower than {need}, the larger of --length and --gamma + 1")
    spec = ModelPairSpec(args.vocab, depth, derive_seed(args.seed, 0), args.eps, args.concentration)
    spec.validate()
    p_model, q_model = generate_model_pair(spec)
    report = monte_carlo_fit(
        verifier,
        p_model,
        q_model,
        args.gamma,
        length,
        args.trials,
        args.seed,
        k_drafts=args.drafts,  # a single-draft verifier is left only at --drafts 1
        mutate=args.mutate,
        workers=args.workers,
    )
    row = report.to_dict()
    out = _write_report(args, "mc_report", {"command": "mc", "report": row}, [row])
    print(
        f"mc {report.verifier} V={report.vocab_size} gamma={report.gamma} K={report.k_drafts}"
        f" trials={report.trials}  tv={report.tv:.3e} (bound {report.tv_bound:.3e})"
        f"  max_z={report.max_z:.2f}  {'pass' if report.passed else 'FAIL'}"
    )
    print(f"mc: wrote {out}")
    return EXIT_OK if report.passed else EXIT_SCIENCE


# ---------------------------------------------------------------------------
# example
# ---------------------------------------------------------------------------


def cmd_example(args: argparse.Namespace) -> int:
    if not args.tolerance >= 0:  # NaN fails too
        raise ValueError(f"--tolerance must be >= 0, got {args.tolerance}")
    checks = run_checks(args.tolerance)
    chain = recomputed_chain()
    shows = {
        "r": chain.r,
        "m": tuple(float(v) for v in chain.m),
        "rstar": chain.clamped_rstar,
        "tokenwise": recomputed_tokenwise_h(),
        "branch": REFERENCE_BRANCH_H,
    }
    if args.show != "all":
        print(", ".join(f"{v:.4f}" for v in shows[args.show]))
    else:
        header = f"{'pos':>3s} {'p':>8s} {'q':>8s} {'r':>8s} {'m':>3s} {'r*clamp':>8s} {'h_token':>8s} {'h_branch':>8s}"
        print(header)
        for i in range(len(REFERENCE_P_COND)):
            print(
                f"{i + 1:3d} {REFERENCE_P_COND[i]:8.4f} {REFERENCE_Q_COND[i]:8.4f}"
                f" {chain.r[i]:8.4f} {chain.m[i]:3d} {chain.clamped_rstar[i]:8.4f}"
                f" {recomputed_tokenwise_h()[i]:8.4f} {REFERENCE_BRANCH_H[i]:8.4f}"
            )
        print(
            "note: the reported branch acceptance chain is embedded data; its capped"
            " branch divergences sum over the full vocabulary, which the published"
            " example does not include."
        )
    ok = True
    for check in checks:
        status = "pass" if check.ok else "FAIL"
        print(f"example check {check.name:>14s}: max_err={check.max_error:.2e} tol={args.tolerance:g} {status}")
        ok = ok and check.ok
    tau = deterministic_accepted_length(REFERENCE_BRANCH_H)
    tau_ok = tau == REFERENCE_ACCEPTED_LENGTH
    print(
        f"example check accepted_len: backward scan gives tau={tau}"
        f" (expected {REFERENCE_ACCEPTED_LENGTH}) {'pass' if tau_ok else 'FAIL'}"
    )
    return EXIT_OK if ok and tau_ok else EXIT_SCIENCE


# ---------------------------------------------------------------------------
# parser and entry point
# ---------------------------------------------------------------------------


def build_parser() -> tuple[argparse.ArgumentParser, dict[str, argparse.ArgumentParser]]:
    parser = argparse.ArgumentParser(
        prog="specverify",
        description="verification-algorithm laboratory for speculative decoding",
    )
    subs = parser.add_subparsers(dest="command", required=True)
    subparsers: dict[str, argparse.ArgumentParser] = {}

    def common(sp: argparse.ArgumentParser, *, workers: bool = True) -> None:
        sp.add_argument("--seed", type=int, default=42, help="master seed")
        sp.add_argument("--concentration", type=float, default=1.0, help="peakedness of generated conditionals")
        sp.add_argument("--out", type=str, default=None, help=f"output path (default: ${ENV_OUT_DIR} or cwd)")
        sp.add_argument("--config", type=str, default=None, help="JSON config file; explicit flags win")
        if workers:
            sp.add_argument("--workers", type=int, default=1, help="worker processes (never changes results)")

    sp = subs.add_parser("oracle", help="exhaustive losslessness check")
    sp.add_argument("--verifiers", type=str, default="tokenwise,naive-hsd,capped-hsd")
    sp.add_argument("--vocab", type=int, default=3)
    sp.add_argument("--gamma", type=int, default=3)
    sp.add_argument("--depth", type=int, default=None, help="model depth (default max(gamma, length))")
    sp.add_argument("--length", type=int, default=None, help="output length to enumerate (default gamma)")
    sp.add_argument("--eps", type=float, default=0.5)
    sp.add_argument("--pairs", type=int, default=20)
    sp.add_argument("--mutate", type=str, default=None, choices=list(MUTATIONS), help="corrupt the verifier on purpose")
    sp.add_argument("--format", type=str, default="json", choices=["json", "csv"])
    common(sp)
    subparsers["oracle"] = sp

    sp = subs.add_parser("bench", help="expected accepted-tokens sweep")
    sp.add_argument("--vocab", type=_int_list, default=[8, 32])
    sp.add_argument("--gamma", type=_int_list, default=[5, 10])
    sp.add_argument("--eps", type=_float_list, default=[0.1, 0.5, 1.0])
    sp.add_argument("--depth", type=int, default=None, help="model depth (default: gamma per configuration)")
    sp.add_argument("--trials", type=int, default=10_000, help="drafts per configuration")
    sp.add_argument("--format", type=str, default="csv", choices=["json", "csv"])
    common(sp)
    subparsers["bench"] = sp

    sp = subs.add_parser("mc", help="Monte Carlo goodness of fit")
    sp.add_argument(
        "--verifier",
        type=str,
        default="capped-hsd",
        choices=list(SINGLE_DRAFT_VERIFIERS + MULTI_DRAFT_VERIFIERS),
    )
    sp.add_argument("--vocab", type=int, default=2)
    sp.add_argument("--gamma", type=int, default=2)
    sp.add_argument("--depth", type=int, default=None)
    sp.add_argument("--length", type=int, default=None)
    sp.add_argument("--eps", type=float, default=0.5)
    sp.add_argument("--drafts", type=int, default=1, help="independent drafts per step (multi-draft)")
    sp.add_argument("--trials", type=int, default=100_000)
    sp.add_argument("--mutate", type=str, default=None, choices=["h-double"])
    sp.add_argument("--format", type=str, default="json", choices=["json", "csv"])
    common(sp)
    subparsers["mc"] = sp

    sp = subs.add_parser("example", help="replay the embedded worked example")
    sp.add_argument("--show", type=str, default="all", choices=["all", "r", "m", "rstar", "tokenwise", "branch"])
    sp.add_argument("--tolerance", type=float, default=1e-3)
    common(sp, workers=False)
    subparsers["example"] = sp

    return parser, subparsers


def _flag_value(action: argparse.Action, key: str, value):
    """``value`` as its flag gives it, refused unless the flag could produce it.

    A string is parsed by the flag's own ``type``; any other value must parse back
    equal from its command-line text, and ``null`` only stands for a default of None.
    """
    if value is None and action.default is None:
        return None
    text = ",".join(map(str, value)) if isinstance(value, list) else str(value)
    try:
        parsed = (action.type or str)(text)
        valid = isinstance(value, str) or parsed == value
    except ValueError:
        valid = False
    if not valid:
        raise ValueError(f"config key {key!r}: invalid value {value!r}")
    if action.choices is not None and parsed not in action.choices:  # argparse checks these on the command line only
        raise ValueError(f"config key {key!r}: invalid choice {value!r} (choose from {list(action.choices)})")
    return parsed


def _apply_config_file(argv: list[str], args: argparse.Namespace) -> argparse.Namespace:
    with open(args.config) as f:
        overrides = json.load(f)
    if not isinstance(overrides, dict):
        raise ValueError("config file must hold a JSON object")
    parser, subparsers = build_parser()
    sp = subparsers[args.command]
    actions = {a.dest: a for a in sp._actions}
    unknown = set(overrides) - set(actions)
    if unknown:
        raise ValueError(f"unknown config keys: {sorted(unknown)}")
    for key, value in overrides.items():
        overrides[key] = _flag_value(actions[key], key, value)
    sp.set_defaults(**overrides)
    return parser.parse_args(argv)


def main(argv: list[str] | None = None) -> int:
    argv = list(sys.argv[1:] if argv is None else argv)
    parser, _ = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:  # argparse reports usage errors with code 2
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    handlers = {"oracle": cmd_oracle, "bench": cmd_bench, "mc": cmd_mc, "example": cmd_example}
    try:
        if getattr(args, "config", None):
            args = _apply_config_file(argv, args)
        if getattr(args, "workers", 1) < 1:
            raise ValueError(f"--workers must be >= 1, got {args.workers}")
        return handlers[args.command](args)
    except SystemExit as exc:
        return EXIT_OK if exc.code in (0, None) else EXIT_USAGE
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
