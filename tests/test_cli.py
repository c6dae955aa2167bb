import hashlib
import json

import pytest

from specverify import cli, oracle
from specverify.cli import EXIT_OK, EXIT_SCIENCE, EXIT_USAGE, main

from conftest import stray_tokenwise


def no_work(*args):
    raise AssertionError("work started before the arguments were checked")


def run(argv, capsys):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ---------------------------------------------------------------------------
# example
# ---------------------------------------------------------------------------


def test_example_replays_the_reference_chains(capsys):
    code, out, _ = run(["example"], capsys)
    assert code == EXIT_OK
    assert "accepted_len: backward scan gives tau=4" in out
    assert out.count("pass") >= 5


def test_example_show_tokenwise_prints_the_chain(capsys):
    code, out, _ = run(["example", "--show", "tokenwise"], capsys)
    assert code == EXIT_OK
    assert out.splitlines()[0].startswith("0.8159, 1.0000, 1.0000, 1.0000, 0.0000")


EXAMPLE_STDOUT_SHA256 = {  # every byte `specverify example --show <value>` prints
    "all": "8ac060a1f3e2599d5a2db2c9b46866aeb917a1d6dc3601359ba0b94f80ff7ff1",
    "r": "01458399e35e67b2dc773c2f779598b994f3696b3b6463a756a23849106d2acd",
    "m": "56c0f1a1dfa3762042c7da114fe67a28f15d94e22cd790deb6229cff19a37966",
    "rstar": "5e4e0f89b1577653992d0f7f6754c75d4a697d09a8d44a2fb95bbb1eca778276",
    "tokenwise": "6535220c566fb98a6373badf6c48bc061a663ea2e800769b9314f816ec12b25e",
    "branch": "8098a0714bc07e502355ed68fc7396b9e1e4384e109b0470083e960e3347e644",
}


@pytest.mark.parametrize("show", EXAMPLE_STDOUT_SHA256)
def test_example_stdout_matches_the_golden_digest(capsys, show):
    code, out, _ = run(["example", "--show", show], capsys)
    assert code == EXIT_OK
    assert hashlib.sha256(out.encode()).hexdigest() == EXAMPLE_STDOUT_SHA256[show]


def test_example_fails_at_unreachable_tolerance(capsys):
    code, out, _ = run(["example", "--tolerance", "1e-9"], capsys)
    assert code == EXIT_SCIENCE
    assert "FAIL" in out


def test_a_negative_or_nan_tolerance_is_a_usage_error_before_the_checks(capsys, monkeypatch):
    monkeypatch.setattr(cli, "run_checks", no_work)
    for value in ("-1", "nan", "-inf"):
        code, out, err = run(["example", f"--tolerance={value}"], capsys)
        assert code == EXIT_USAGE, value
        assert out == ""
        assert err == f"error: --tolerance must be >= 0, got {float(value)}\n", value


@pytest.mark.parametrize("flag", ["--seed=3", "--concentration=-3", "--out=/nonexistent/x", "--workers=2"])
def test_example_refuses_the_flags_of_a_seeded_run(capsys, monkeypatch, flag):
    monkeypatch.setattr(cli, "run_checks", no_work)
    code, out, err = run(["example", flag], capsys)
    assert code == EXIT_USAGE
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


def test_a_zero_tolerance_is_valid(capsys):
    code, out, _ = run(["example", "--tolerance", "0"], capsys)
    assert code == EXIT_SCIENCE  # the rounded reference values miss by more than 0 ...
    assert "example check              m: max_err=0.00e+00 tol=0 pass" in out  # ... but an exact match passes


# ---------------------------------------------------------------------------
# oracle
# ---------------------------------------------------------------------------


def test_oracle_small_sweep_passes(tmp_path, capsys):
    out_path = tmp_path / "oracle.json"
    code, out, _ = run(
        ["oracle", "--vocab", "3", "--gamma", "2", "--pairs", "3", "--seed", "42", "--out", str(out_path)],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert doc["all_pass"] is True
    assert len(doc["reports"]) == 9  # 3 pairs x 3 verifiers
    for report in doc["reports"]:
        assert report["tv"] < doc["config"]["tv_tolerance"]
        assert set(report) >= {"verifier", "vocab_size", "gamma", "length", "seed", "tv", "pass"}


def test_oracle_rejects_tiny_vocabulary(tmp_path, capsys):
    code, _, err = run(["oracle", "--vocab", "1", "--out", str(tmp_path / "x.json")], capsys)
    assert code == EXIT_USAGE
    assert "vocab" in err


def test_oracle_mutation_is_detected(tmp_path, capsys):
    out_path = tmp_path / "oracle.json"
    code, _, _ = run(
        [
            "oracle",
            "--verifiers",
            "capped-hsd",
            "--vocab",
            "3",
            "--gamma",
            "3",
            "--pairs",
            "5",
            "--mutate",
            "h-double",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == EXIT_SCIENCE
    assert json.loads(out_path.read_text())["all_pass"] is False


def test_oracle_csv_format(tmp_path, capsys):
    out_path = tmp_path / "oracle.csv"
    code, _, _ = run(
        ["oracle", "--vocab", "3", "--gamma", "2", "--pairs", "2", "--format", "csv", "--out", str(out_path)],
        capsys,
    )
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert lines[0] == "verifier,vocab_size,gamma,length,seed,pair_index,tv,conservation,worst_sequence,worst_error,pass"
    assert len(lines) == 7


def test_oracle_workers_do_not_change_bytes(tmp_path, capsys):
    args = ["oracle", "--vocab", "3", "--gamma", "2", "--pairs", "4", "--seed", "7"]
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run(args + ["--out", str(a), "--workers", "1"], capsys)[0] == EXIT_OK
    assert run(args + ["--out", str(b), "--workers", "3"], capsys)[0] == EXIT_OK
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# bench
# ---------------------------------------------------------------------------


def test_bench_single_token_grid_orders_trivially(tmp_path, capsys):
    out_path = tmp_path / "bench.csv"
    code, _, _ = run(
        ["bench", "--vocab", "4", "--gamma", "1", "--eps", "0.5,1.0", "--trials", "300", "--out", str(out_path)],
        capsys,
    )
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    assert lines[0].startswith("method,vocab_size,gamma,eps,seed,n_drafts,")
    assert len(lines) == 7
    rows = [line.split(",") for line in lines[1:]]
    by_config = {}
    for row in rows:
        by_config.setdefault(row[3], {})[row[0]] = float(row[6])
    for values in by_config.values():
        assert abs(values["hsd"] - values["blockwise"]) <= 1e-12
        assert abs(values["blockwise"] - values["tokenwise"]) <= 1e-12


def test_bench_reports_per_trace_violations_of_the_pinned_formula(tmp_path, capsys):
    # with the pinned blockwise acceptance formula, block >= token fails on a
    # visible fraction of single traces; block verification only promises it
    # over the draft distribution (docs/criterion-3.md), so bench reports the
    # count on its own and exits 0
    out_path = tmp_path / "bench.json"
    code, out, _ = run(
        [
            "bench",
            "--vocab",
            "4",
            "--gamma",
            "4",
            "--eps",
            "0.8",
            "--trials",
            "400",
            "--format",
            "json",
            "--out",
            str(out_path),
        ],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert doc["summary"]["ordering_violations"] == 0
    assert doc["summary"]["block_below_token"] > 0
    assert doc["summary"]["block_below_token"] == doc["summary"]["configs"][0]["block_below_token"]
    assert f"block<token={doc['summary']['block_below_token']}" in out
    # the mean-level ordering still holds
    means = {row["method"]: row["mean_expected_tau"] for row in doc["rows"]}
    assert means["hsd"] >= means["blockwise"] >= means["tokenwise"]


def test_bench_bytes_are_worker_count_independent(tmp_path, capsys):
    args = ["bench", "--vocab", "3,4", "--gamma", "2", "--eps", "0.3,0.9", "--trials", "150", "--seed", "9"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    code_a = run(args + ["--out", str(a), "--workers", "1"], capsys)[0]
    code_b = run(args + ["--out", str(b), "--workers", "4"], capsys)[0]
    assert code_a == code_b
    assert a.read_bytes() == b.read_bytes()


BENCH_REPORT_SHA256 = "5e8ca56cab92aa25c1a6a0e46ad638eecb879b55714128d5c8c01e81f78e518f"


def test_bench_report_bytes_match_the_golden_digest(tmp_path, capsys):
    # pins every byte of a small JSON report, so speeding up the chains,
    # sums or ratio-chain reuse behind bench cannot move a single result
    out_path = tmp_path / "bench.json"
    args = ["bench", "--vocab", "8", "--gamma", "3,5", "--eps", "0.5,1.0", "--trials", "300", "--seed", "5"]
    assert run(args + ["--format", "json", "--out", str(out_path)], capsys)[0] == EXIT_OK
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == BENCH_REPORT_SHA256


ORACLE_REPORT_SHA256 = "7fe1a978fb73f8d0ff8ff3fcedc30413c252d5bd47cea094836041787fcb42b9"
MC_REPORT_SHA256 = "feefa43ca0b5b7026c80b0f6da469958ba37275882a52b7fc5e4f9fc09e56450"


def test_oracle_report_bytes_match_the_golden_digest(tmp_path, capsys):
    # every single-draft verifier enumerated past its draft length
    out_path = tmp_path / "oracle.json"
    args = ["oracle", "--vocab", "3", "--gamma", "3", "--length", "4", "--pairs", "3", "--seed", "11"]
    assert run(args + ["--format", "json", "--out", str(out_path)], capsys)[0] == EXIT_OK
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == ORACLE_REPORT_SHA256


def test_mc_report_bytes_match_the_golden_digest(tmp_path, capsys):
    # multi-draft capped-hsd: the capped plan and its residual inside every trial
    out_path = tmp_path / "mc.json"
    args = ["mc", "--verifier", "capped-hsd", "--drafts", "2", "--vocab", "2", "--gamma", "2", "--trials", "10000"]
    assert run(args + ["--seed", "4", "--format", "json", "--out", str(out_path)], capsys)[0] == EXIT_OK
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == MC_REPORT_SHA256


CSV_REPORT_SHA256 = {  # the CSV twins of the three JSON reports above
    "oracle": "cdd808ab3aa46a6a778d09074f79b4afba84f2a4a39549777bea20f254207254",
    "bench": "d09268f9f7b094b3d6813e5a9814949f8dfe4102499b5b7f297791893513a06e",
    "mc": "9d17897ce5346cbb89d4202b033299eb6a03a7efadc4aac5d4508e8380adde0b",
}


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "--vocab", "3", "--gamma", "3", "--length", "4", "--pairs", "3", "--seed", "11", "--format", "csv"],
        ["bench", "--vocab", "8", "--gamma", "3,5", "--eps", "0.5,1.0", "--trials", "300", "--seed", "5"],
        ["mc", "--verifier", "capped-hsd", "--drafts", "2", "--vocab", "2", "--gamma", "2", "--trials", "10000"]
        + ["--seed", "4", "--format", "csv"],
    ],
    ids=lambda argv: argv[0],
)
def test_csv_report_bytes_match_the_golden_digest(tmp_path, capsys, argv):
    # bench writes CSV by default; the header row and every cell are pinned
    out_path = tmp_path / "report.csv"
    assert run(argv + ["--out", str(out_path)], capsys)[0] == EXIT_OK
    assert hashlib.sha256(out_path.read_bytes()).hexdigest() == CSV_REPORT_SHA256[argv[0]]


def test_bench_repeated_runs_are_byte_identical(tmp_path, capsys):
    args = ["bench", "--vocab", "3", "--gamma", "1,2", "--eps", "0.5", "--trials", "200", "--seed", "3"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    run(args + ["--out", str(a)], capsys)
    run(args + ["--out", str(b)], capsys)
    assert a.read_bytes() == b.read_bytes()


# ---------------------------------------------------------------------------
# mc
# ---------------------------------------------------------------------------


def test_mc_single_draft_run(tmp_path, capsys):
    out_path = tmp_path / "mc.json"
    code, _, _ = run(
        ["mc", "--verifier", "capped-hsd", "--vocab", "2", "--gamma", "2", "--trials", "20000", "--out", str(out_path)],
        capsys,
    )
    assert code == EXIT_OK
    report = json.loads(out_path.read_text())["report"]
    assert report["pass"] is True
    assert report["k_drafts"] == 1


def test_mc_drafts_flag_switches_to_multidraft(tmp_path, capsys):
    out_path = tmp_path / "mc.json"
    code, _, _ = run(
        ["mc", "--verifier", "capped-hsd", "--drafts", "2", "--trials", "20000", "--out", str(out_path)],
        capsys,
    )
    assert code == EXIT_OK
    report = json.loads(out_path.read_text())["report"]
    assert report["verifier"] == "multidraft-hsd"
    assert report["k_drafts"] == 2


def test_mc_exits_with_science_failure_on_stray_sequences(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(oracle, "tokenwise_verify", stray_tokenwise((1, 1)))
    out_path = tmp_path / "mc.json"
    code, out, _ = run(
        ["mc", "--verifier", "tokenwise", "--vocab", "2", "--gamma", "2", "--trials", "10000", "--out", str(out_path)],
        capsys,
    )
    assert code == EXIT_SCIENCE
    assert "FAIL" in out
    report = json.loads(out_path.read_text())["report"]
    assert report["pass"] is False
    assert report["worst_sequence"] == [2, 2]


def test_mc_passes_a_target_whose_only_sequence_is_sure(tmp_path, capsys):
    # at concentration 1000 the target's first token has probability 1.0
    out_path = tmp_path / "mc.json"
    argv = ["mc", "--vocab", "2", "--gamma", "1", "--length", "1", "--concentration", "1000", "--trials", "10000"]
    code, out, _ = run(argv + ["--out", str(out_path)], capsys)
    assert code == EXIT_OK
    assert "max_z=0.00  pass" in out
    report = json.loads(out_path.read_text())["report"]
    assert (report["tv"], report["z_violations"], report["worst_sequence"]) == (0.0, 0, [])


def test_mc_naive_has_no_multidraft_variant(tmp_path, capsys):
    code, _, err = run(["mc", "--verifier", "naive-hsd", "--drafts", "2", "--out", str(tmp_path / "x")], capsys)
    assert code == EXIT_USAGE
    assert "multi-draft" in err


def test_mc_rejects_fewer_than_one_draft(tmp_path, capsys):
    out_path = tmp_path / "mc.json"
    for drafts in ("0", "-2"):
        code, _, err = run(["mc", "--drafts", drafts, "--trials", "10000", "--out", str(out_path)], capsys)
        assert code == EXIT_USAGE
        assert "--drafts" in err
    assert not out_path.exists()


def test_gamma_below_one_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "pool_map", no_work)
    out_path = tmp_path / "report"
    for argv, bad in (
        (["mc", "--gamma", "0", "--length", "1"], 0),
        (["mc", "--gamma", "-1"], -1),
        (["oracle", "--gamma", "0"], 0),
        (["bench", "--gamma", "0"], 0),  # named as gamma, not as a depth of 0
        (["bench", "--gamma", "2,-1"], -1),
    ):
        code, _, err = run(argv + ["--out", str(out_path)], capsys)
        assert code == EXIT_USAGE, argv
        assert err == f"error: --gamma must be >= 1, got {bad}\n", argv
    assert not out_path.exists()


def test_model_depth_is_no_flag_of_any_run(tmp_path, capsys, monkeypatch):
    # each run generates its pair at the depth it needs; a pair's conditionals never depend on it
    monkeypatch.setattr(cli, "pool_map", no_work)
    monkeypatch.setattr(cli, "generate_model_pair", no_work)
    out_path = tmp_path / "report"
    for command in ("oracle", "bench", "mc"):
        code, out, err = run([command, "--depth", "5", "--out", str(out_path)], capsys)
        assert (code, out) == (EXIT_USAGE, ""), command
        assert "unrecognized arguments: --depth 5" in err, command
    assert not out_path.exists()


def test_an_oracle_beyond_the_enumeration_guard_is_a_usage_error_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "pool_map", no_work)
    out_path = tmp_path / "report"
    for argv, sequences in ((["--vocab", "40", "--gamma", "4"], "40^4"), (["--gamma", "2", "--length", "11"], "3^11")):
        code, _, err = run(["oracle", *argv, "--out", str(out_path)], capsys)
        assert code == EXIT_USAGE, argv
        assert err == f"error: {sequences} sequences exceed the enumeration guard ({oracle.ENUMERATION_GUARD})\n", argv
    assert not out_path.exists()


def test_a_negative_bench_eps_is_a_usage_error_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "pool_map", no_work)
    monkeypatch.setattr(cli, "generate_model_pair", no_work)
    out_path = tmp_path / "report"
    code, _, err = run(["bench", "--eps", "0.5,-1", "--out", str(out_path)], capsys)
    assert code == EXIT_USAGE
    assert err == "error: divergence_knob must be >= 0, got -1.0\n"
    assert not out_path.exists()


def test_non_finite_model_knobs_are_usage_errors_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "pool_map", no_work)
    monkeypatch.setattr(cli, "generate_model_pair", no_work)
    out_path = tmp_path / "report"
    for command in ("oracle", "bench", "mc"):
        for flag, field in (("--eps", "divergence_knob"), ("--concentration", "concentration")):
            for value in ("nan", "inf", "-inf"):
                code, _, err = run([command, f"{flag}={value}", "--out", str(out_path)], capsys)
                assert code == EXIT_USAGE, (command, flag, value)
                assert err == f"error: {field} must be finite, got {float(value)}\n", (command, flag, value)
    assert not out_path.exists()


def test_model_knobs_that_could_overflow_a_logit_are_usage_errors_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "pool_map", no_work)
    monkeypatch.setattr(cli, "generate_model_pair", no_work)
    out_path = tmp_path / "report"
    for command in ("oracle", "bench", "mc"):
        for flag in ("--eps", "--concentration"):
            code, _, err = run([command, f"{flag}=1e308", "--out", str(out_path)], capsys)
            assert code == EXIT_USAGE, (command, flag)
            assert err == "error: concentration + divergence_knob must be <= 6.42e+306, got 1e+308\n", (command, flag)
    assert not out_path.exists()


def test_a_length_below_gamma_is_a_usage_error_before_any_work(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "pool_map", no_work)
    monkeypatch.setattr(cli, "generate_model_pair", no_work)
    out_path = tmp_path / "report"
    for argv in (
        ["oracle", "--vocab", "2", "--gamma", "3", "--length", "2"],
        ["mc", "--vocab", "2", "--gamma", "3", "--length", "2"],
        ["mc", "--gamma", "3", "--length", "2", "--drafts", "2"],
    ):
        code, _, err = run(argv + ["--out", str(out_path)], capsys)
        assert code == EXIT_USAGE, argv
        assert err == "error: --length 2 is shorter than --gamma 3\n", argv
    assert not out_path.exists()


def test_a_verifier_no_run_can_use_is_a_usage_error(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(cli, "pool_map", no_work)
    monkeypatch.setattr(cli, "generate_model_pair", no_work)
    out_path = tmp_path / "report"
    code, out, err = run(["oracle", "--verifiers", "tokenwise,nonsense", "--out", str(out_path)], capsys)
    message = f"unknown verifier 'nonsense'; oracle enumerates {oracle.SINGLE_DRAFT_VERIFIERS}"
    assert (code, out, err) == (EXIT_USAGE, "", f"error: {message}\n")
    assert not out_path.exists()


# ---------------------------------------------------------------------------
# config file, env var, usage errors
# ---------------------------------------------------------------------------


def test_an_empty_certificate_is_a_usage_error(tmp_path, capsys):
    # nothing to certify must not pass as all_pass=True over 0 reports, or 0 rows
    out_path = tmp_path / "report"
    for argv in (
        ["oracle", "--verifiers", ","],
        ["oracle", "--pairs", "0"],
        ["bench", "--trials", "0"],
        ["bench", "--vocab", ""],
        ["bench", "--gamma", ","],
        ["bench", "--eps", ""],
    ):
        code, _, err = run(argv + ["--out", str(out_path)], capsys)
        assert code == EXIT_USAGE, argv
        assert "error:" in err
    assert not out_path.exists()


def test_worker_pools_never_outnumber_their_jobs_or_the_cores(tmp_path, capsys, monkeypatch):
    sizes = []

    class RecordingPool:
        """Records the pool size asked for and runs every job in this process."""

        def __init__(self, max_workers):
            sizes.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, payloads):
            # here every command has at most as many jobs as cores: one payload per process
            assert len(payloads) == sizes[-1]
            return map(fn, payloads)

    monkeypatch.setattr(oracle, "ProcessPoolExecutor", RecordingPool)
    monkeypatch.setattr(oracle.os, "cpu_count", lambda: 4)
    runs = {  # command -> (argv, pool size for --workers 64)
        "oracle": (["oracle", "--vocab", "3", "--gamma", "2", "--pairs", "3"], 3),  # 3 pair jobs
        "bench": (["bench", "--vocab", "3,4", "--gamma", "2", "--eps", "0.5", "--trials", "50"], 2),  # 2 configs
        "mc": (["mc", "--verifier", "tokenwise", "--trials", "10000"], 4),  # 4 chunks, one per core
    }
    for name, (argv, size) in runs.items():
        sizes.clear()
        wide, serial = tmp_path / f"{name}-64", tmp_path / f"{name}-1"
        assert run(argv + ["--workers", "64", "--out", str(wide)], capsys)[0] == EXIT_OK
        assert sizes == [size], name
        assert run(argv + ["--workers", "1", "--out", str(serial)], capsys)[0] == EXIT_OK
        assert wide.read_bytes() == serial.read_bytes()
        for workers in ("0", "-1"):
            code, _, err = run(argv + ["--workers", workers, "--out", str(tmp_path / "none")], capsys)
            assert code == EXIT_USAGE and "--workers" in err
        assert sizes == [size]  # neither the serial run nor the rejected ones asked for a pool
    assert not (tmp_path / "none").exists()


def test_config_file_fills_defaults_and_flags_win(tmp_path, capsys):
    config = tmp_path / "config.json"
    config.write_text(json.dumps({"vocab": 3, "gamma": 2, "pairs": 2, "verifiers": "tokenwise"}))
    out_path = tmp_path / "oracle.json"
    code, _, _ = run(
        ["oracle", "--config", str(config), "--pairs", "1", "--out", str(out_path)],
        capsys,
    )
    assert code == EXIT_OK
    doc = json.loads(out_path.read_text())
    assert doc["config"]["pairs"] == 1  # explicit flag beat the config file
    assert doc["config"]["verifiers"] == ["tokenwise"]


@pytest.mark.parametrize(
    "command, overrides, message",
    [
        ("oracle", {"vocabulary": 3}, "unknown config keys"),
        ("mc", {"depth": 4}, "unknown config keys"),  # each run picks its model depth
        ("oracle", {"format": "xml"}, "config key 'format'"),  # choices bind in the file too
        ("example", {"show": "bogus"}, "config key 'show'"),
        # a value the flag itself could not produce is refused before any work
        ("oracle", {"vocab": 3.5}, "config key 'vocab'"),
        ("oracle", {"pairs": 2.5}, "config key 'pairs'"),
        ("oracle", {"gamma": None}, "config key 'gamma'"),
        ("oracle", {"verifiers": ["tokenwise"]}, "config key 'verifiers'"),
        ("oracle", {"workers": 2.5}, "config key 'workers'"),
        ("oracle", {"seed": True}, "config key 'seed'"),
        ("mc", {"trials": 20000.0}, "config key 'trials'"),
        ("bench", {"vocab": 8}, "config key 'vocab'"),
        ("bench", {"gamma": "2,x"}, "config key 'gamma'"),
        ("mc", ["trials", 20000], "config file must hold a JSON object"),
    ],
    ids=[
        "unknown-key",
        "depth-key",
        "oracle-format",
        "example-show",
        "float-vocab",
        "float-pairs",
        "null-gamma",
        "list-verifiers",
        "float-workers",
        "bool-seed",
        "float-trials",
        "scalar-bench-vocab",
        "unparsed-string",
        "not-an-object",
    ],
)
def test_config_file_rejects_unknown_keys(tmp_path, capsys, monkeypatch, command, overrides, message):
    monkeypatch.setattr(cli, "pool_map", no_work)
    monkeypatch.setattr(cli, "generate_model_pair", no_work)
    config = tmp_path / "config.json"
    config.write_text(json.dumps(overrides))
    report = [] if command == "example" else ["--out", str(tmp_path / "out")]  # example writes no report
    code, _, err = run([command, "--config", str(config), *report], capsys)
    assert code == EXIT_USAGE
    assert message in err
    assert not (tmp_path / "out").exists()


def test_config_file_takes_every_value_its_flags_can_produce(tmp_path, capsys):
    # JSON ints, strings the flag parses, bench lists and null where the default is None
    config = tmp_path / "config.json"
    for command, overrides, flags in (
        ("oracle", {"vocab": "3", "gamma": 2, "pairs": 1, "eps": 1, "length": None}, ["--eps", "1"]),
        ("bench", {"vocab": [3], "gamma": "2", "eps": [0.5, 1], "trials": 50}, ["--eps", "0.5,1"]),
    ):
        by_file, by_flags = tmp_path / f"{command}-file", tmp_path / f"{command}-flags"
        config.write_text(json.dumps(overrides))
        assert run([command, "--config", str(config), "--out", str(by_file)], capsys)[0] == EXIT_OK
        others = {k: v for k, v in overrides.items() if k != "eps"}
        config.write_text(json.dumps(others))
        assert run([command, "--config", str(config), *flags, "--out", str(by_flags)], capsys)[0] == EXIT_OK
        assert by_file.read_bytes() == by_flags.read_bytes()  # a config value is the value its flag gives


@pytest.mark.parametrize("fmt", ["json", "csv"])
@pytest.mark.parametrize(
    "argv, stem",
    [
        (["oracle", "--vocab", "3", "--gamma", "2", "--pairs", "1"], "oracle_report"),
        (["bench", "--vocab", "3", "--gamma", "2", "--eps", "0.5", "--trials", "50"], "bench_results"),
        (["mc", "--verifier", "tokenwise", "--trials", "10000"], "mc_report"),
    ],
    ids=["oracle", "bench", "mc"],
)
def test_default_output_dir_comes_from_the_environment(tmp_path, capsys, monkeypatch, argv, stem, fmt):
    monkeypatch.setenv("SPECVERIFY_OUT_DIR", str(tmp_path / "reports"))
    code, _, _ = run(argv + ["--format", fmt], capsys)
    assert code == EXIT_OK
    assert [path.name for path in (tmp_path / "reports").iterdir()] == [f"{stem}.{fmt}"]


def test_unknown_subcommand_is_a_usage_error(capsys):
    assert main(["frobnicate"]) == EXIT_USAGE
