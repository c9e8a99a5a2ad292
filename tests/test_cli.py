import contextlib
import copy
import csv
import hashlib
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import relbc
from relbc.cli import ExperimentConfig, ConfigError, dispatch
from relbc.field import Field
from relbc.sim import run_protocol


def run(capsys, *argv):
    code = dispatch(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_no_subcommand_is_usage_error(capsys):
    code, _, err = run(capsys)
    assert code == 1


def test_simulate_no_loss(capsys):
    code, out, _ = run(
        capsys, "simulate", "--protocol", "fq", "--k", "10", "--q", "97",
        "--p", "0", "--seed", "1", "--trials", "200",
    )
    assert code == 0
    doc = json.loads(out)
    assert doc["p_ok_mc"] == 1.0


def test_simulate_deep_tree_completes(capsys):
    code, out, _ = run(
        capsys, "simulate", "--protocol", "tree", "--k", "200", "--q", "101",
        "--p", "0.002", "--m", "5", "--seed", "7", "--trials", "2000",
    )
    assert code == 0
    assert json.loads(out)["k"] == 200


@pytest.mark.parametrize(
    "argv",
    [("--protocol", "tree", "--k", "10", "--q", "97", "--trials", "1"),
     ("--protocol", "fq", "--m", "3", "--trials", "3")],
    ids=["tree", "fq_m3"],
)
def test_simulate_without_loss_prints_strict_json(capsys, argv):
    # RFC 8259 has no Infinity: an infinite half-life is written as null
    def refuse(name):
        raise ValueError(f"{name} is not JSON")

    code, out, err = run(capsys, "simulate", "--p", "0", "--seed", "3", *argv)
    assert code == 0, err
    doc = json.loads(out, parse_constant=refuse)
    meta = doc["metadata"]
    assert doc["half_life_formula"] is None
    assert meta.get("half_life_from_survival_formula") is None
    assert "null" in meta["half_life_note"]


@pytest.mark.parametrize("argv, message", [
    (["bounds", "--frobnicate"], "unrecognized arguments: --frobnicate"),
    (["simulate", "--k", "abc"], "argument --k: invalid int value: 'abc'"),
    (["chsh"], "arguments are required: --q"),
    (["bind-oracle", "--protocol", "tree", "--q", "2", "--unreduced"],
     "unrecognized arguments: --unreduced"),
    (["simulate", "--seed", "1", "--comm-samples", "16"],
     "unrecognized arguments: --comm-samples 16"),
], ids=["unknown_flag", "bad_value", "missing_flag", "unreduced", "comm_samples"])
def test_usage_errors_exit_1(capsys, argv, message):
    # exit 2 is for a budget refusal; a bad command line is bad input
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: ") and message in err


def test_help_exits_0(capsys):
    with pytest.raises(SystemExit) as exc:
        dispatch(["bounds", "--help"])
    assert exc.value.code == 0
    assert "--invert-epsilon" in capsys.readouterr().out


def test_simulate_requires_seed(capsys):
    code, _, err = run(capsys, "simulate", "--protocol", "fq", "--p", "0")
    assert code == 1
    assert "seed" in err


def test_simulate_validation_reports_field(capsys):
    code, _, err = run(
        capsys, "simulate", "--protocol", "tree", "--p", "2.0", "--seed", "1"
    )
    assert code == 1
    assert "p:" in err


def test_simulate_negative_seed_exit_1_naming_seed(capsys, tmp_path):
    # from a flag or a config file, under either engine
    config = tmp_path / "config.json"
    config.write_text('{"seed": -1}')
    for source in (["--seed", "-1"], ["--config", str(config)]):
        for engine in ("fast", "events"):
            code, out, err = run(
                capsys, "simulate", "--k", "3", "--trials", "10", "--engine", engine, *source
            )
            assert (code, out, err) == (1, "", "error: seed: must be >= 0, got -1\n")


SIMULATE = ["simulate", "--k", "3", "--seed", "1", "--trials", "10"]


@pytest.mark.parametrize("argv, flag", [
    ([*SIMULATE, "--out-json"], "out-json"),
    ([*SIMULATE, "--out-csv"], "out-csv"),
    ([*SIMULATE, "--transcript-out"], "transcript-out"),
    (["bind-oracle", "--protocol", "single", "--q", "2", "--out"], "out"),
    (["chsh", "--q", "2", "--out"], "out"),
    (["bounds", "--out"], "out"),
    (["verify-transcript", "run.json", "--out"], "out"),
])
def test_unwritable_output_path_exit_1_naming_the_flag(capsys, tmp_path, monkeypatch, argv, flag):
    # every output flag of every command, given a directory: bad input
    # naming the flag and the path, never a traceback
    monkeypatch.chdir(tmp_path)
    assert run(capsys, *SIMULATE, "--transcript-out", "run.json")[0] == 0
    code, _, err = run(capsys, *argv, str(tmp_path))
    assert code == 1
    assert err.startswith(f"error: {flag}: ") and repr(str(tmp_path)) in err


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
@pytest.mark.parametrize("argv", [
    SIMULATE,
    ["bind-oracle", "--protocol", "single", "--q", "2"],
    ["chsh", "--q", "2"],
    ["bounds", "--pretty"],
    ["verify-transcript", "run.json"],
], ids=lambda argv: argv[0])
def test_unwritable_stdout_exit_1_naming_stdout(capsys, tmp_path, argv):
    # a full stdout is bad output like an unwritable --out path: exit 1
    # naming stdout, never a traceback, in a fresh interpreter whose stdout
    # is /dev/full
    assert run(capsys, *SIMULATE, "--transcript-out", str(tmp_path / "run.json"))[0] == 0
    src = str(Path(relbc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    with open("/dev/full", "w") as full:
        proc = subprocess.run(
            [sys.executable, "-m", "relbc.cli", *argv], cwd=tmp_path, env=env,
            stdout=full, stderr=subprocess.PIPE, text=True, timeout=120,
        )
    assert proc.returncode == 1, proc.stderr
    assert re.fullmatch(r"error: stdout: \[Errno 28\] .*\n", proc.stderr), proc.stderr


def _cli_in_shell(argv, cwd, redirect):
    """``relbc`` run by ``sh`` in a fresh interpreter, with ``redirect``
    (say ``>&-``) applied to it as a user's shell would."""
    src = str(Path(relbc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh", sys.executable, "-m", "relbc.cli", *argv],
        cwd=cwd, env=env, stderr=subprocess.PIPE, text=True, timeout=120,
    )


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full on this platform")
def test_simulate_with_a_full_stdout_leaves_no_file(tmp_path):
    # stdout's text is printed before any file is written
    proc = _cli_in_shell(
        ["simulate", "--protocol", "tree", "--k", "8", "--seed", "1", "--trials", "100",
         "--out-csv", "rowx.csv"], tmp_path, "> /dev/full",
    )
    assert proc.returncode == 1, proc.stderr
    assert proc.stderr.startswith("error: stdout: ")
    assert list(tmp_path.iterdir()) == []


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 through a POSIX shell")
@pytest.mark.parametrize("argv", [
    SIMULATE,
    [*SIMULATE, "--pretty", "--out-json", "r.json"],
    ["bind-oracle", "--protocol", "single", "--q", "2"],
    ["chsh", "--q", "2"],
    ["bounds", "--pretty"],
    ["verify-transcript", "run.json"],
    ["bounds", "--help"],
    ["--help"],
], ids=["simulate", "simulate_pretty", "bind-oracle", "chsh", "bounds", "verify-transcript",
        "bounds_help", "help"])
def test_closed_stdout_exit_1_naming_stdout(capsys, tmp_path, argv):
    # with fd 1 closed Python starts with sys.stdout None, where print
    # would drop the text and exit 0; it is a stdout that cannot be written
    assert run(capsys, *SIMULATE, "--transcript-out", str(tmp_path / "run.json"))[0] == 0
    proc = _cli_in_shell(argv, tmp_path, ">&-")
    assert proc.returncode == 1, proc.stderr
    assert re.fullmatch(r"error: stdout: \[Errno 9\] .*\n", proc.stderr), proc.stderr
    assert sorted(p.name for p in tmp_path.iterdir()) == ["run.json"]


@pytest.mark.skipif(os.name != "posix", reason="closes fd 1 through a POSIX shell")
@pytest.mark.parametrize("argv, files", [
    ([*SIMULATE, "--out-json", "r.json", "--out-csv", "row.csv"], ["r.json", "row.csv"]),
    (["bounds", "--out", "b.json"], ["b.json"]),
], ids=["simulate", "bounds"])
def test_closed_stdout_is_not_needed_when_every_output_goes_to_a_file(tmp_path, argv, files):
    proc = _cli_in_shell(argv, tmp_path, ">&-")
    assert (proc.returncode, proc.stderr) == (0, "")
    assert sorted(p.name for p in tmp_path.iterdir()) == files
    for name in files:
        assert (tmp_path / name).read_text()


@pytest.mark.parametrize("bad", [
    ["--transcript-out", "tt.json", "--out-csv", "."],
    ["--out-csv", "row.csv", "--out-json", "/dev/null/r.json"],
    ["--transcript-out", ".", "--out-json", "r.json"],
])
def test_simulate_refused_output_path_leaves_no_file_and_runs_nothing(capsys, tmp_path, monkeypatch, bad):
    # every output path is tried before the walk, and nothing is written
    # until every output is built
    import relbc.analysis

    def no_walk(*args, **kwargs):
        raise AssertionError("the walk started")

    monkeypatch.setattr(relbc.analysis, "monte_carlo_reliability", no_walk)
    monkeypatch.chdir(tmp_path)
    code, out, err = run(capsys, "simulate", "--protocol", "tree", "--k", "12", "--seed", "7",
                         "--trials", "100", *bad)
    assert (code, out) == (1, "")
    assert re.fullmatch(r"error: (out-csv|out-json|transcript-out): \[Errno \d+\] .*\n", err), err
    assert list(tmp_path.iterdir()) == []


def test_simulate_csv_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    for out in (a, b):
        code, _, _ = run(
            capsys, "simulate", "--protocol", "tree", "--k", "8", "--q", "101",
            "--p", "0.02", "--m", "2", "--seed", "9", "--trials", "500",
            "--out-csv", str(out),
        )
        assert code == 0
    assert a.read_bytes() == b.read_bytes()


def test_simulate_output_identical_across_hash_seeds():
    argv = [
        sys.executable, "-m", "relbc.cli", "simulate", "--protocol", "tree",
        "--k", "12", "--q", "101", "--p", "0.02", "--m", "5", "--seed", "7",
        "--trials", "5000",
    ]
    src = str(Path(relbc.__file__).resolve().parents[1])
    outs = []
    for hash_seed in ("1", "2"):
        env = dict(os.environ, PYTHONHASHSEED=hash_seed)
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
        outs.append(proc.stdout)
    assert outs[0] == outs[1]
    assert 0.0 < json.loads(outs[0])["p_ok_mc"] < 1.0


def test_events_engine_output_identical_across_hash_seeds(tmp_path):
    argv = [
        sys.executable, "-m", "relbc.cli", "simulate", "--protocol", "tree",
        "--k", "12", "--q", "101", "--p", "0.02", "--m", "5", "--seed", "7",
        "--trials", "200", "--engine", "events", "--transcript-out", "run.json",
    ]
    src = str(Path(relbc.__file__).resolve().parents[1])
    outs, transcripts = [], []
    for hash_seed in ("1", "2"):
        out_dir = tmp_path / hash_seed
        out_dir.mkdir()
        env = dict(os.environ, PYTHONHASHSEED=hash_seed, RELBC_OUT_DIR=str(out_dir))
        env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
        proc = subprocess.run(argv, env=env, capture_output=True, timeout=120, check=True)
        outs.append(proc.stdout)
        transcripts.append((out_dir / "run.json").read_bytes())
    assert outs[0] == outs[1]
    assert transcripts[0] == transcripts[1]
    assert 0.0 < json.loads(outs[0])["p_ok_mc"] < 1.0
    assert json.loads(transcripts[0])["records"]


@pytest.mark.parametrize("argv, digest", [
    (["--protocol", "fq", "--k", "12", "--p", "0.05", "--m", "3", "--trials", "3000"],
     "e8e649b9e714225ad227b179884a86cd0dd54cb0a9d01f16fc6a21f0f358ed8c"),
    (["--protocol", "single", "--p", "0.2", "--trials", "3000"],
     "db7ce7a564a425f8627514ad91f1ebc44aa8b0d9265910431ed6bda53ae25b96"),
    (["--protocol", "fq", "--k", "40", "--p", "0.01", "--trials", "2000"],
     "68a73e774a61c7602aa14e3fd00ea1c8bd1137a9775ee342d42afcb074351741"),
], ids=["fq_k12_m3", "single", "fq_k40"])
def test_events_engine_reports_match_golden_digest(capsys, argv, digest):
    # every trial's abort round comes from the event engine's loss draws,
    # so a change to how a run is scheduled or recorded that keeps those
    # draws keeps these reports to the byte
    code, out, err = run(capsys, "simulate", *argv, "--seed", "5", "--q", "101", "--engine", "events")
    assert code == 0, err
    assert hashlib.sha256(out.encode()).hexdigest() == digest


@pytest.mark.parametrize("argv, csv_digest, pretty_digest", [
    (["--protocol", "tree", "--k", "12", "--q", "101", "--p", "0.02", "--m", "5", "--seed", "7",
      "--trials", "5000"],
     "8871abc6169a679be99ff57d2be94972b41b54275d93bcdd213f1fe92f55a4d7",
     "c085d9ba26bc9106335108f4e370d7db815ebdf8a1fc31659b0c2d9b912dfd43"),
    (["--protocol", "tree", "--k", "8", "--p", "0.05", "--seed", "1", "--trials", "30",
      "--engine", "events"],
     "4113532e027bf24d6cf87c46c37d95ed34af79f27bae0b625c2017b064f3b7e4",
     "69001fb2107f68fce1af7edf1a57a1ac6c8daeded09b5d5ebd1aa58fdf5ec4cf"),
    (["--protocol", "tree", "--k", "8", "--p", "0.05", "--seed", "1", "--trials", "5",
      "--engine", "events"],
     "5c4007dea8a121921f25b2d6cebd19c0e9ab264f8ba9d85f4a07481bfcc8ecac",
     "6093322fd539386933ec85aa4d39461e22046e91c929e805c13bae9d8dd412af"),
    (["--protocol", "fq", "--k", "12", "--q", "101", "--p", "0.05", "--m", "3", "--seed", "7",
      "--trials", "500", "--engine", "events"],
     "3c7bb93982ad30eeddfe584eb3a36494cca0e9bc6bc801afc7f59b62e039ea1c",
     "c64539518414afae8d89b756109c66a0e777326692075821d69f82061cdbca3e"),
], ids=["tree_fast", "tree_events", "tree_events_few_trials", "fq_events"])
def test_simulate_tables_match_golden_digest(capsys, tmp_path, monkeypatch, argv, csv_digest,
                                             pretty_digest):
    # the CSV row and the --pretty table, cost column included: the cost
    # samples are the first event-engine trials, under either engine
    monkeypatch.setenv("RELBC_OUT_DIR", str(tmp_path))
    code, out, err = run(capsys, "simulate", *argv, "--out-csv", "row.csv", "--pretty")
    assert code == 0, err
    assert hashlib.sha256((tmp_path / "row.csv").read_bytes()).hexdigest() == csv_digest
    assert hashlib.sha256(out.encode()).hexdigest() == pretty_digest


def test_output_dir_env_override(capsys, tmp_path, monkeypatch):
    monkeypatch.setenv("RELBC_OUT_DIR", str(tmp_path))
    code, _, _ = run(
        capsys, "simulate", "--protocol", "fq", "--k", "3", "--q", "5",
        "--p", "0", "--seed", "1", "--trials", "50", "--out-csv", "sub/row.csv",
    )
    assert code == 0
    assert (tmp_path / "sub" / "row.csv").exists()


@pytest.mark.parametrize("engine", ["fast", "events"])
def test_simulate_single_is_one_round_whatever_k(capsys, engine):
    code, out, err = run(
        capsys, "simulate", "--protocol", "single", "--k", "10", "--p", "0.1",
        "--seed", "1", "--trials", "2000", "--engine", engine,
    )
    assert code == 0, err
    doc = json.loads(out)
    assert (doc["protocol"], doc["k"], doc["n_stations"]) == ("single", 1, 2)
    assert list(doc["abort_round_freq"]) == ["1"]


def test_simulate_single_at_a_huge_k_is_one_round(capsys):
    # the walk budget is for the one round run, not for the k asked
    code, out, err = run(
        capsys, "simulate", "--protocol", "single", "--k", "100000",
        "--seed", "1", "--trials", "100000",
    )
    assert code == 0, err
    assert json.loads(out)["k"] == 1


def test_simulate_chain_reports_two_stations(capsys, tmp_path):
    csv_path = tmp_path / "row.csv"
    code, out, err = run(
        capsys, "simulate", "--protocol", "fq", "--n-stations", "42",
        "--seed", "1", "--trials", "50", "--out-csv", str(csv_path),
    )
    assert code == 0, err
    assert json.loads(out)["n_stations"] == 2
    with csv_path.open() as f:
        assert [row["n"] for row in csv.DictReader(f)] == ["2"]


def test_simulate_chain_at_k1_is_single_as_transcript_and_oracle_say(capsys, tmp_path):
    tr_path = tmp_path / "run.json"
    code, out, err = run(
        capsys, "simulate", "--protocol", "fq", "--k", "1", "--seed", "1",
        "--trials", "50", "--transcript-out", str(tr_path),
    )
    assert code == 0, err
    assert json.loads(out)["protocol"] == "single"
    assert json.loads(tr_path.read_text())["protocol"] == "single"
    code, out, err = run(capsys, "bind-oracle", "--protocol", "fq", "--k", "1", "--q", "2")
    assert code == 0, err
    assert json.loads(out)["kind"] == "single"


def test_bind_oracle_single(capsys):
    code, out, _ = run(capsys, "bind-oracle", "--protocol", "single", "--q", "2")
    assert code == 0
    assert json.loads(out)["sum"] == 1.5


@pytest.mark.parametrize("q, want_sum, search_size, strategy", [
    ("2", 1.875, 144, "root=(0, 0), left=(0, None), right=(0, 0)"),
    ("3", 1.7037037037037037, 27 * 64 * 27,
     "root=(0, 0, 0), left=(0, None, None), right=(0, 0, 0)"),
])
def test_bind_oracle_tree_pinned(capsys, q, want_sum, search_size, strategy):
    code, out, err = run(capsys, "bind-oracle", "--protocol", "tree", "--q", q)
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert (doc["sum"], doc["search_size"], doc["strategy"]) == (want_sum, search_size, strategy)


def test_bind_oracle_tree_guard_counts_the_tables_scored(capsys):
    # the refusal names the work, q**(q-1) roots x (q+1)**q depth-1 tables
    # x 2*q lookups: 4.86e7 at q=5, over the default 2e7
    t0 = time.process_time()
    code, out, err = run(capsys, "bind-oracle", "--protocol", "tree", "--q", "5")
    assert time.process_time() - t0 < 0.5
    assert code == 2 and out == "" and err.startswith("refused:")
    factors = re.search(
        r"(\d+)\*\*(\d+) roots x (\d+)\*\*(\d+) depth-1 tables x 2\*(\d+) lookups "
        r"exceeds the budget of 20000000", err)
    roots, root_exp, tables, table_exp, per_table = map(int, factors.groups())
    assert roots**root_exp * tables**table_exp * 2 * per_table == 48_600_000


def test_bind_oracle_budget_refusal_exit_2(capsys):
    code, _, err = run(capsys, "bind-oracle", "--protocol", "tree", "--q", "7")
    assert code == 2
    assert "refused" in err


def test_simulate_over_a_work_budget_exit_2_at_once(capsys):
    cases = [
        (["--k", "1000000000", "--p", "0.001", "--trials", "1"], "1000000001 trial-rounds"),
        (["--k", "5001", "--trials", "1", "--pretty"], "per-run cap of 5000"),
        (["--k", "100", "--trials", "100000", "--engine", "events"], "scheduled nodes"),
        # 16 cost samples x 5001 x 2**5 = 2560512 nodes
        (["--k", "5000", "--N", "5", "--trials", "16", "--pretty"], "scheduled nodes"),
        # 10**4400 nodes a run is refused by its factors, not formatted
        (["--k", "5000", "--n-stations", "11", "--N", "4400", "--trials", "5", "--pretty"],
         "EVENT_BUDGET"),
    ]
    for flags, size in cases:
        t0 = time.process_time()
        code, out, err = run(capsys, "simulate", "--protocol", "tree", "--seed", "1", *flags)
        assert time.process_time() - t0 < 0.5
        assert code == 2 and out == ""
        assert err.startswith("refused:") and size in err


def test_oracle_over_budget_exit_2_at_once(capsys):
    # Each search size is multiplied out factor by factor and refused
    # before any q**q power, table list or game spec is built.
    cases = [
        (["bind-oracle", "--protocol", "tree", "--q", "11"], "budget of 20000000"),
        (["bind-oracle", "--protocol", "single", "--q", "10000019"], "budget of 20000000"),
        (["bind-oracle", "--protocol", "fq", "--q", "10000019"], "budget of 20000000"),
        (["chsh", "--q", "1000003"], "budget of 5000000"),
        (["chsh", "--q", "10000019"], "budget of 5000000"),
    ]
    for argv, budget in cases:
        t0 = time.process_time()
        code, out, err = run(capsys, *argv)
        assert time.process_time() - t0 < 0.5, argv
        assert code == 2 and out == "", argv
        assert err.startswith("refused:") and budget in err, argv


def test_huge_walk_is_refused_by_its_factors_at_once(capsys):
    # rounds x trials has 4401 digits, past what Python converts to a
    # string: the refusal names the factors instead
    huge = str(10**2200)
    t0 = time.process_time()
    code, out, err = run(capsys, "simulate", "--protocol", "fq", "--k", huge,
                         "--trials", huge, "--seed", "1")
    assert time.process_time() - t0 < 0.5
    assert code == 2 and out == ""
    assert err.startswith("refused:") and "WALK_BUDGET" in err


def test_oracle_budgets_count_the_tables_searched(capsys):
    # the single-round game searches 101**2 claim pairs, not 101**101
    # answer tables; search_size still counts every answer table
    code, out, err = run(capsys, "bind-oracle", "--protocol", "single", "--q", "101")
    assert code == 0 and err == ""
    doc = json.loads(out)
    assert doc["sum"] == 1.00990099009901 and doc["search_size"] == 101**101
    cases = [
        (["--protocol", "fq", "--q", "7"], "7**7 y2 tables x 7**2"),
        (["--protocol", "single", "--q", "10000019"], "10000019**2 second-player tables"),
    ]
    for flags, size in cases:
        t0 = time.process_time()
        code, out, err = run(capsys, "bind-oracle", *flags)
        assert time.process_time() - t0 < 0.5, flags
        assert code == 2 and out == "", flags
        assert err.startswith("refused:") and size in err, flags


@pytest.mark.parametrize("flags, runs", [
    (("--trials", "100"), 0),
    (("--trials", "100", "--pretty"), 16),
    (("--trials", "100", "--out-csv", "row.csv"), 16),
    (("--trials", "5", "--pretty", "--out-csv", "row.csv"), 5),
    (("--trials", "100", "--transcript-out", "run.json"), 1),
    (("--trials", "100", "--pretty", "--transcript-out", "run.json"), 17),
    (("--trials", "30", "--engine", "events"), 30),
    (("--trials", "30", "--engine", "events", "--pretty"), 30),
], ids=["json", "pretty", "csv", "few_trials", "transcript", "pretty_transcript",
        "events", "events_pretty"])
def test_simulate_runs_the_event_engine_only_for_output_it_prints(
    capsys, monkeypatch, tmp_path, flags, runs
):
    # the cost samples run only for a printed table, at most one per trial
    import relbc.analysis
    import relbc.sim

    real, calls = relbc.sim.run_protocol, []

    def counted(*args, **kwargs):
        calls.append(args)
        return real(*args, **kwargs)

    monkeypatch.setattr(relbc.sim, "run_protocol", counted)
    monkeypatch.setattr(relbc.analysis, "run_protocol", counted)
    monkeypatch.setenv("RELBC_OUT_DIR", str(tmp_path))
    code, _, err = run(
        capsys, "simulate", "--protocol", "tree", "--k", "8", "--p", "0.05",
        "--seed", "1", *flags,
    )
    assert code == 0, err
    assert len(calls) == runs


@pytest.mark.parametrize("flags, size", [
    # 21 rounds x 2**15 nodes fit the node budget; the per-round cap refuses
    # them before the 20M-trial walk starts
    (("--k", "20", "--N", "15", "--trials", "20000000"), "2**15 nodes per round"),
    # 5001 x 10**2 nodes, but 1.25e9 label characters
    (("--k", "5000", "--n-stations", "11", "--trials", "1"), "label characters"),
    (("--k", "5000", "--n-stations", "4", "--trials", "1"), "label characters"),
    (("--k", "5000", "--N", "3", "--trials", "1"), "label characters"),
], ids=["lag15", "n11", "n4", "N3"])
def test_simulate_refuses_a_transcript_run_before_the_walk(capsys, tmp_path, flags, size):
    target = tmp_path / "t.json"
    t0 = time.process_time()
    code, out, err = run(
        capsys, "simulate", "--protocol", "tree", "--seed", "1", *flags,
        "--transcript-out", str(target),
    )
    assert time.process_time() - t0 < 0.5
    assert code == 2 and out == "" and not target.exists()
    assert err.startswith("refused:") and size in err


def test_simulate_past_the_event_cap_prints_its_walk(capsys):
    # the JSON report runs no event engine, so the per-run cap is not asked
    code, out, err = run(
        capsys, "simulate", "--protocol", "tree", "--k", "5001", "--trials", "1", "--seed", "1",
    )
    assert code == 0, err
    assert json.loads(out)["k"] == 5001


@pytest.mark.parametrize("pretty", [False, True], ids=["json", "pretty"])
def test_simulate_writes_out_json_whenever_given(capsys, tmp_path, pretty):
    argv = ["simulate", "--protocol", "tree", "--k", "6", "--p", "0.05", "--seed", "2",
            "--trials", "50"]
    code, report, err = run(capsys, *argv)
    assert code == 0, err
    path = tmp_path / "o.json"
    code, out, err = run(capsys, *argv, "--out-json", str(path), *(["--pretty"] if pretty else []))
    assert code == 0, err
    assert path.read_text() == report
    # --pretty replaces stdout; without it the report goes to the file alone
    assert out.startswith("protocol  ") if pretty else out == ""


def test_simulate_tree_cost_past_a_float_exit_1_before_the_walk(capsys, tmp_path):
    argv = ("simulate", "--protocol", "tree", "--k", "3", "--p", "0.1", "--seed", "1")
    # at k=3, q=97 the cost 3*2^(N+2)*log2(97) is a finite float up to N = 1017
    csv_path = tmp_path / "row.csv"
    code, _, err = run(capsys, *argv, "--N", "1017", "--trials", "5", "--out-csv", str(csv_path))
    assert code == 0, err
    with csv_path.open() as f:
        assert math.isfinite(float(next(csv.DictReader(f))["comm_bits_formula"]))
    # 1.2e8 trial-rounds of walk would take seconds; the check comes first
    for lag, pretty in (("1018", False), ("1021", True)):
        t0 = time.process_time()
        code, out, err = run(
            capsys, *argv, "--N", lag, "--trials", "30000000",
            *(["--pretty"] if pretty else ["--out-csv", str(tmp_path / "bad.csv")]),
        )
        assert time.process_time() - t0 < 0.5
        assert code == 1 and out == ""
        assert err.startswith("error: N:") and "Traceback" not in err
    assert not (tmp_path / "bad.csv").exists()
    # the JSON report has no cost column, so the lag does not matter to it
    code, _, err = run(capsys, *argv, "--N", "1021", "--trials", "5")
    assert code == 0, err


@pytest.mark.parametrize("flags", [
    ("--engine", "fast"), ("--engine", "events"), ("--protocol", "fq"), ("--p", "0"),
])
def test_simulate_m_past_a_float_exit_1_naming_m(capsys, tmp_path, flags):
    # the report's loss figures take m * p as a float
    code, out, err = run(
        capsys, "simulate", "--k", "5", "--m", "7" * 400, "--seed", "1", "--trials", "10",
        "--transcript-out", str(tmp_path / "t.json"), *flags,
    )
    assert code == 1 and out == ""
    assert err.startswith("error: m: too large for a float") and "Traceback" not in err
    assert not (tmp_path / "t.json").exists()


def test_simulate_tree_over_eleven_stations_exit_1(capsys):
    # a node label spends one digit per level, so a node has at most ten
    # children; the cap holds for every tree request, so that a report's
    # labels and transcripts are always possible
    code, out, err = run(
        capsys, "simulate", "--protocol", "tree", "--k", "4", "--seed", "1",
        "--trials", "5", "--n-stations", "12",
    )
    assert code == 1 and out == ""
    assert err.startswith("error: n_stations:") and "3 to 11" in err


def test_chsh_uniform(capsys):
    code, out, _ = run(capsys, "chsh", "--q", "2", "--uniform")
    assert code == 0
    doc = json.loads(out)
    assert doc["value_float"] == 0.75
    assert doc["bound"] == pytest.approx(1.5)
    assert doc["gap"] == pytest.approx(0.75)


def test_chsh_custom_distribution(capsys):
    code, out, _ = run(capsys, "chsh", "--q", "3", "--y-dist", "1,0,0")
    assert code == 0
    assert json.loads(out)["value_float"] == 1.0


def test_chsh_uniform_with_a_y_dist_exit_1_naming_both_flags(capsys):
    code, out, err = run(capsys, "chsh", "--q", "3", "--uniform", "--y-dist", "1,0,0")
    assert code == 1 and out == ""
    assert err.startswith("error: y-dist:") and "--uniform" in err and "--y-dist" in err


def test_chsh_uniform_flag_is_the_default(capsys):
    assert run(capsys, "chsh", "--q", "3", "--uniform") == run(capsys, "chsh", "--q", "3")


def test_chsh_bad_distribution(capsys):
    code, _, err = run(capsys, "chsh", "--q", "3", "--y-dist", "1,1")
    assert code == 1
    assert "y-dist" in err


@pytest.mark.parametrize("argv, field", [
    (["chsh", "--q", "2", "--budget", "0"], "budget:"),
    (["bind-oracle", "--protocol", "single", "--q", "2", "--budget", "-1"], "budget:"),
    (["chsh", "--q", "5", "--support", ","], "support:"),
    (["chsh", "--q", "5", "--support="], "support:"),
    (["chsh", "--q", "3", "--y-dist="], "y-dist:"),
])
def test_oracle_bad_value_exit_1_naming_the_field(capsys, argv, field):
    code, out, err = run(capsys, *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: " + field)


def test_bounds_table_and_inversion(capsys):
    code, out, _ = run(
        capsys, "bounds", "--k", "1,2", "--q", "2,97", "--invert-epsilon", "0.5"
    )
    assert code == 0
    rows = json.loads(out)
    grid = [r for r in rows if "epsilon_bound" in r]
    inv = [r for r in rows if "min_q" in r]
    assert len(grid) == 4 and len(inv) == 2
    assert inv[0]["min_q"] == pytest.approx(25 * 1 / (2 * 0.25))
    assert [(r["k"], r["n_stations"], r["status"]) for r in inv] == [(1, 3, "proven"), (2, 3, "proven")]


def test_bounds_inversion_per_station_count(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "2", "--q", "97", "--n", "3,5", "--invert-epsilon", "0.1")
    assert code == 0
    inv = [r for r in json.loads(out) if "min_q" in r]
    assert [(r["n_stations"], r["min_q"]) for r in inv] == [(3, 5000.0), (5, 8423.124851367418)]
    assert [r["status"] for r in inv] == ["proven", "conjectured"]


def test_bounds_pretty_prints_every_column_of_every_row(capsys):
    code, out, _ = run(
        capsys, "bounds", "--k", "1,10,100", "--q", "97,1009", "--invert-epsilon", "1e-6", "--pretty"
    )
    assert code == 0
    header, rule, *data = out.splitlines()
    assert header.split() == [
        "k", "q", "n_stations", "epsilon_bound", "epsilon_capped", "x_n", "status",
        "target_epsilon", "min_q",
    ]
    assert len(data) == 9
    assert [line.split() for line in data[6:]] == [
        [k, "3", "proven", "1e-06", min_q]
        for k, min_q in (("1", "1.25e+13"), ("10", "1.25e+15"), ("100", "1.25e+17"))
    ]


@pytest.mark.parametrize("argv, field", [
    (["--q", "0"], "q:"),
    (["--q", "-5"], "q:"),
    (["--k", "1" + "0" * 400], "k:"),
    (["--invert-epsilon", "1e-300"], "epsilon:"),
    (["--k", "0"], "k:"),
    (["--n", "2"], "n:"),
])
def test_bounds_bad_value_exit_1_naming_the_field(capsys, argv, field):
    code, out, err = run(capsys, "bounds", *argv)
    assert code == 1 and out == ""
    assert err.startswith("error: " + field)


def test_bounds_station_count_over_the_cap_exit_2_at_once(capsys):
    t0 = time.process_time()
    code, out, err = run(capsys, "bounds", "--n", "1000000000")
    assert time.process_time() - t0 < 0.5
    assert code == 2 and out == ""
    assert err.startswith("refused:") and "X_SEQUENCE_MAX_N" in err


@pytest.mark.parametrize("protocol", ["single", "fq", "tree"])
def test_bind_oracle_depth_below_1_exit_1(capsys, protocol):
    code, out, err = run(capsys, "bind-oracle", "--protocol", protocol, "--k", "0", "--q", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: k:")


@pytest.mark.parametrize("protocol", ["fq", "tree"])
def test_bind_oracle_unsupported_depth_exit_1(capsys, protocol):
    # exit 2 is for an input over a budget; a depth the search cannot do
    # is bad input
    code, out, err = run(capsys, "bind-oracle", "--protocol", protocol, "--k", "3", "--q", "2")
    assert code == 1 and out == ""
    assert err.startswith("error: k:") and "got 3" in err
    assert "Traceback" not in err


@pytest.mark.parametrize("eps", ["inf", "1e400"])
def test_bounds_non_finite_target_epsilon_exit_1(capsys, eps):
    # 1e400 parses to inf; the row it gave was "target_epsilon": Infinity,
    # which strict JSON cannot hold
    code, out, err = run(capsys, "bounds", "--k", "1,10", "--invert-epsilon", eps)
    assert code == 1 and out == ""
    assert err.startswith("error: epsilon:") and "finite" in err
    assert "Traceback" not in err


def test_pretty_rendering(capsys):
    code, out, _ = run(capsys, "bounds", "--k", "1", "--q", "2", "--pretty")
    assert code == 0
    assert "epsilon_bound" in out and "{" not in out


def test_verify_transcript_roundtrip(capsys, tmp_path):
    tr_path = tmp_path / "run.json"
    code, _, _ = run(
        capsys, "simulate", "--protocol", "tree", "--k", "5", "--q", "97",
        "--p", "0", "--seed", "3", "--trials", "10",
        "--transcript-out", str(tr_path), "--commit-bit", "1",
    )
    assert code == 0
    code, out, _ = run(capsys, "verify-transcript", str(tr_path))
    assert code == 0
    doc = json.loads(out)
    assert doc["outcome"] == "accept"
    assert doc["revealed"] == 1


@pytest.mark.parametrize("k", [2**32 - 1, 10**11])
def test_verify_transcript_past_the_deepest_k_exit_1_naming_k(capsys, tmp_path, k):
    # the label patterns repeat a digit k times, and re refuses a count of 2**32 - 1
    doc = {"protocol": "tree", "k": k, "q": 5, "records": [], "reveals": [], "abort": None}
    tr_path = tmp_path / "deep.json"
    tr_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-transcript", str(tr_path))
    assert (code, out) == (1, "")
    assert err == f"error: transcript: k: a transcript is at most {2**32 - 2} rounds deep, got {k}\n"
    # the deepest k read: nothing recorded, so the root did not respond
    doc["k"] = 2**32 - 2
    tr_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-transcript", str(tr_path))
    assert code == 0, err
    assert json.loads(out)["outcome"] == "abort"


def test_verify_transcript_missing_file(capsys, tmp_path):
    code, _, err = run(capsys, "verify-transcript", str(tmp_path / "nope.json"))
    assert code == 1


def test_verify_transcript_detects_tampering(capsys, tmp_path):
    tr_path = tmp_path / "run.json"
    run(
        capsys, "simulate", "--protocol", "fq", "--k", "4", "--q", "11",
        "--p", "0", "--seed", "5", "--trials", "10",
        "--transcript-out", str(tr_path),
    )
    doc = json.loads(tr_path.read_text())
    doc["reveals"][0]["claim"] = (doc["reveals"][0]["claim"] + 1) % 11
    tr_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify-transcript", str(tr_path))
    assert code == 0
    assert json.loads(out)["outcome"] == "reject"


def test_verify_transcript_exported_chain_abort(capsys, tmp_path):
    tr_path = tmp_path / "run.json"
    code, _, _ = run(
        capsys, "simulate", "--protocol", "fq", "--k", "3", "--q", "97",
        "--p", "0.9", "--seed", "3", "--trials", "1", "--transcript-out", str(tr_path),
    )
    assert code == 0
    assert json.loads(tr_path.read_text())["abort"] is not None
    code, out, _ = run(capsys, "verify-transcript", str(tr_path))
    assert code == 0
    assert json.loads(out) == {
        "outcome": "abort", "revealed": None, "reason": "root did not respond",
    }


@pytest.mark.parametrize("protocol", ["fq", "tree"])
def test_verify_transcript_recorded_abort_beats_a_valid_reveal(capsys, tmp_path, protocol):
    tr_path = tmp_path / "run.json"
    run(
        capsys, "simulate", "--protocol", protocol, "--k", "3", "--q", "11",
        "--p", "0", "--seed", "5", "--trials", "1", "--transcript-out", str(tr_path),
    )
    code, out, _ = run(capsys, "verify-transcript", str(tr_path))
    assert json.loads(out)["outcome"] == "accept"
    doc = json.loads(tr_path.read_text())
    doc["abort"] = {"round": 2, "reason": "cut"}
    tr_path.write_text(json.dumps(doc))
    code, out, _ = run(capsys, "verify-transcript", str(tr_path))
    assert code == 0
    assert json.loads(out) == {"outcome": "abort", "revealed": None, "reason": "cut"}


def test_verify_transcript_single_past_k1_exit_1(capsys, tmp_path):
    doc = json.loads(run_protocol("single", 1, Field(5), d=1, seed=3).transcript.to_json())
    doc["k"] = 2
    path = tmp_path / "single_k2.json"
    path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-transcript", str(path))
    assert code == 1 and out == ""
    assert err.startswith("error: transcript: k:")


@pytest.mark.parametrize("j", [1, 2])
def test_verify_transcript_refuses_a_chain_reveal_before_the_last_round(capsys, tmp_path, j):
    # a chain reveals once, at leaf "0"*k after round k; the node of an
    # earlier round is not a leaf
    tr_path = tmp_path / "run.json"
    run(
        capsys, "simulate", "--protocol", "fq", "--k", "3", "--q", "11",
        "--p", "0", "--seed", "5", "--trials", "1", "--transcript-out", str(tr_path),
    )
    doc = json.loads(tr_path.read_text())
    assert [rv["leaf"] for rv in doc["reveals"]] == ["000"]
    doc["reveals"][0]["leaf"] = leaf = "0" * j
    tr_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-transcript", str(tr_path))
    assert code == 1 and out == ""
    assert err.startswith(f"error: transcript: reveals[0].leaf: '{leaf}' is not a leaf of the protocol")


@pytest.mark.parametrize("edit, verdict", [
    # a chain is verified as the tree on two stations: a missing response
    # or reveal is a dead branch (reject), and only a silent root aborts
    (lambda doc: doc["reveals"].clear(), ("reject", "no alive child below '00' (depth 2)")),
    (lambda doc: doc["records"].pop(1), ("reject", "no alive child below '' (depth 0)")),
    (lambda doc: doc["records"].pop(0), ("abort", "root did not respond")),
    (lambda doc: doc["reveals"][0].update(claim=(doc["reveals"][0]["claim"] + 1) % 11),
     ("reject", "claimed share mismatch")),
], ids=["no_reveal", "no_round_2", "no_round_1", "wrong_claim"])
def test_verify_transcript_judges_a_chain_as_a_two_station_tree(capsys, tmp_path, edit, verdict):
    tr_path = tmp_path / "run.json"
    run(
        capsys, "simulate", "--protocol", "fq", "--k", "3", "--q", "11",
        "--p", "0", "--seed", "5", "--trials", "1", "--transcript-out", str(tr_path),
    )
    doc = json.loads(tr_path.read_text())
    assert [rec["node"] for rec in doc["records"]] == ["", "0", "00"]
    edit(doc)
    tr_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-transcript", str(tr_path))
    assert (code, err) == (0, "")
    outcome, reason = verdict
    assert json.loads(out) == {"outcome": outcome, "revealed": None, "reason": reason}


@pytest.mark.parametrize("n_stations", [42, 3])
def test_verify_transcript_refuses_a_chain_off_two_stations(capsys, tmp_path, n_stations):
    tr_path = tmp_path / "run.json"
    run(
        capsys, "simulate", "--protocol", "fq", "--k", "3", "--q", "11",
        "--p", "0", "--seed", "5", "--trials", "1", "--transcript-out", str(tr_path),
    )
    doc = json.loads(tr_path.read_text())
    assert doc["n_stations"] == 2
    doc["n_stations"] = n_stations
    tr_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-transcript", str(tr_path))
    assert code == 1 and out == ""
    assert err.startswith(
        f"error: transcript: n_stations: a chain transcript runs on 2 stations, got {n_stations}")


@pytest.mark.parametrize("field, value", [("records", 5), ("y", "x")])
def test_verify_transcript_bad_types_exit_1(capsys, tmp_path, field, value):
    tr_path = tmp_path / "run.json"
    run(
        capsys, "simulate", "--protocol", "tree", "--k", "3", "--q", "11",
        "--p", "0", "--seed", "5", "--trials", "1",
        "--transcript-out", str(tr_path),
    )
    doc = json.loads(tr_path.read_text())
    if field == "records":
        doc["records"] = value
    else:
        doc["records"][0][field] = value
    tr_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-transcript", str(tr_path))
    assert code == 1
    assert out == ""
    assert err.startswith("error: transcript: ") and field in err


def test_verify_transcript_refuses_records_off_their_node_timing(capsys, tmp_path):
    # every node claiming round 1 on station 1 was accepted
    tr_path = tmp_path / "run.json"
    run(
        capsys, "simulate", "--protocol", "tree", "--k", "3", "--q", "11",
        "--p", "0", "--seed", "5", "--trials", "1", "--transcript-out", str(tr_path),
    )
    doc = json.loads(tr_path.read_text())
    for rec in doc["records"]:
        rec.update(round=1, color=1)
    tr_path.write_text(json.dumps(doc))
    code, out, err = run(capsys, "verify-transcript", str(tr_path))
    assert code == 1 and out == ""
    assert err.startswith("error: transcript: records[1].round: node '0' has round 2, got 1")


def test_verify_transcript_deep_tree_accepts(capsys, tmp_path):
    tr_path = tmp_path / "run.json"
    code, _, _ = run(
        capsys, "simulate", "--protocol", "tree", "--k", "40", "--q", "97",
        "--p", "0", "--seed", "3", "--trials", "1",
        "--transcript-out", str(tr_path),
    )
    assert code == 0
    code, out, _ = run(capsys, "verify-transcript", str(tr_path))
    assert code == 0
    assert json.loads(out)["outcome"] == "accept"


def test_config_file_with_flag_override(capsys, tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({
        "protocol": "fq", "k": 5, "q": 97, "p": 0.0, "m": 1,
        "seed": 2, "trials": 100,
    }))
    code, out, _ = run(capsys, "simulate", "--config", str(cfg), "--trials", "40")
    assert code == 0
    assert json.loads(out)["trials"] == 40


@pytest.mark.parametrize("p", [0, 1])
def test_config_file_p_writes_the_bytes_of_the_flag(capsys, tmp_path, p):
    # a JSON 0 is an int; p is stored as the float --p gives
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"p": p}))
    outs = []
    for name, source in (("file", ["--config", str(cfg)]), ("flag", ["--p", str(p)])):
        csv_path = tmp_path / f"{name}.csv"
        code, out, err = run(capsys, "simulate", "--k", "5", "--seed", "1", "--trials", "10",
                             "--out-csv", str(csv_path), *source)
        assert code == 0, err
        outs.append((out, csv_path.read_bytes()))
    assert outs[0] == outs[1]
    assert json.loads(outs[0][0])["p"] == float(p)


def test_experiment_config_validation_collects_errors():
    cfg = ExperimentConfig(
        protocol="bogus", k=0, q=4, p=0.5, m=1, n_stations=3,
        prune_lag=2, seed=None, trials=10,
    )
    with pytest.raises(ConfigError) as exc:
        cfg.validate()
    msg = str(exc.value)
    assert "protocol" in msg and "k:" in msg and "q:" in msg and "seed" in msg


@pytest.mark.parametrize("doc, field", [
    ({"k": "x", "seed": 1}, "k:"),
    ({"p": "0.1", "seed": 1}, "p:"),
    ({"seed": 1.5}, "seed:"),
    ({"k": True, "seed": 1}, "k:"),
    ({"p": False, "seed": 1}, "p:"),
    ({"seed": True}, "seed:"),
    ({"protocol": 3, "seed": 1}, "protocol:"),
    ({"engine": ["fast"], "seed": 1}, "engine:"),
    ({"out_csv": 5, "seed": 1}, "out_csv:"),
])
def test_config_file_wrong_type_exit_1(capsys, tmp_path, doc, field):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(doc))
    code, out, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err


def test_config_file_unknown_key_exit_1_before_any_work(capsys, tmp_path, monkeypatch):
    # a misspelt key would otherwise run the default 1000 trials
    import relbc.analysis

    monkeypatch.setattr(relbc.analysis, "monte_carlo_reliability", None)
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"trails": 5, "seed": 1, "N": 2, "bogus": 0}))
    code, out, err = run(capsys, "simulate", "--config", str(cfg))
    assert code == 1 and out == ""
    assert err == "error: config: unknown key 'trails'; config: unknown key 'bogus'\n"


@pytest.mark.parametrize("text, message", [
    ("nope", "error: config: Expecting value: line 1 column 1 (char 0)\n"),
    ("[1]", "error: config: top level must be a JSON object\n"),
    ('{"seed": 1, "engine": "exact"}', "error: engine: must be 'fast' or 'events', got 'exact'\n"),
])
def test_config_file_bad_document_exit_1(capsys, tmp_path, text, message):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(text)
    assert run(capsys, "simulate", "--config", str(cfg)) == (1, "", message)


def test_bind_oracle_pretty_prints_the_report_as_a_table(capsys):
    code, out, err = run(capsys, "bind-oracle", "--protocol", "single", "--q", "2", "--pretty")
    assert code == 0 and err == ""
    header, rule, row = out.splitlines()
    assert header.split() == [
        "kind", "k", "q", "sum", "epsilon", "bound", "search_size", "seconds", "strategy",
    ]
    assert row.split()[:7] == ["single", "1", "2", "1.5", "0.5", "3", "4"]
    assert row.split()[8:] == ["y=(0,", "0)"]


def test_chsh_pretty_prints_value_and_bound(capsys):
    code, out, err = run(capsys, "chsh", "--q", "2", "--pretty")
    assert (code, err) == (0, "")
    assert out == "q=2  |S|=2  p=1/2\nvalue = 3/4 (0.75)\nbound = 1.5   gap = 0.75\n"


def _run_script(script: str) -> subprocess.CompletedProcess:
    """Run a Python script in a fresh interpreter that imports relbc from
    the tree under test."""
    src = str(Path(relbc.__file__).resolve().parents[1])
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(p for p in (src, env.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=120
    )


def test_import_and_light_commands_load_no_scipy():
    # scipy is imported only where a command computes an interval, so
    # start-up stays cheap for every command
    script = (
        "import sys\n"
        "import relbc.cli\n"
        "def scipy_loaded():\n"
        "    return sorted(m for m in sys.modules if m == 'scipy' or m.startswith('scipy.'))\n"
        "assert not scipy_loaded(), scipy_loaded()[:5]\n"
        "for argv in (['bounds', '--k', '1,10', '--q', '97', '--invert-epsilon', '0.5'],\n"
        "             ['chsh', '--q', '2', '--uniform']):\n"
        "    assert relbc.cli.dispatch(argv) == 0\n"
        "    assert not scipy_loaded(), (argv, scipy_loaded()[:5])\n"
    )
    proc = _run_script(script)
    assert proc.returncode == 0, proc.stderr


def test_no_command_loads_scipy(tmp_path):
    # the interval is plain Python: with scipy made unimportable, every
    # subcommand runs, simulate under both engines and with every output
    out = str(tmp_path)
    simulate = ["simulate", "--protocol", "tree", "--k", "12", "--q", "101", "--p", "0.02",
                "--m", "5", "--seed", "7", "--trials", "200"]
    argvs = [
        simulate,
        [*simulate, "--pretty", "--out-csv", f"{out}/fast.csv", "--transcript-out", f"{out}/t.json"],
        [*simulate, "--engine", "events", "--pretty", "--out-csv", f"{out}/events.csv",
         "--out-json", f"{out}/events.json"],
        ["simulate", "--protocol", "fq", "--k", "9", "--p", "0.05", "--seed", "4", "--trials", "100"],
        ["verify-transcript", f"{out}/t.json"],
        ["bind-oracle", "--protocol", "tree", "--q", "2"],
        ["chsh", "--q", "2", "--uniform"],
        ["bounds", "--k", "1,10", "--q", "97", "--invert-epsilon", "0.5"],
    ]
    script = (
        "import sys\n"
        "sys.modules['scipy'] = None  # any import of scipy now raises ImportError\n"
        "import relbc.cli\n"
        f"for argv in {argvs!r}:\n"
        "    assert relbc.cli.dispatch(argv) == 0, argv\n"
    )
    proc = _run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert all((tmp_path / f).stat().st_size for f in ("fast.csv", "t.json", "events.csv", "events.json"))


def test_import_and_numpy_free_commands_load_no_numpy(tmp_path):
    # only simulate runs the station walk (relbc.analysis), the one user
    # of numpy; the oracles and bounds read the closed forms of
    # relbc.formulas, in plain Python
    transcript = tmp_path / "run.json"
    transcript.write_text(run_protocol("tree", 4, Field(97), d=1, seed=3, trial=0).transcript.to_json())
    script = (
        "import sys\n"
        "import relbc.cli\n"
        "def walk_loaded():\n"
        "    return sorted(m for m in sys.modules\n"
        "                  if m in ('numpy', 'relbc.analysis') or m.startswith('numpy.'))\n"
        "assert not walk_loaded(), walk_loaded()[:5]\n"
        "import relbc.adversary\n"
        "assert not walk_loaded(), walk_loaded()[:5]\n"
        "for argv in (['bind-oracle', '--protocol', 'single', '--q', '2'],\n"
        "             ['bind-oracle', '--protocol', 'tree', '--q', '2'],\n"
        "             ['chsh', '--q', '2', '--uniform'],\n"
        f"             ['verify-transcript', {str(transcript)!r}],\n"
        "             ['bounds', '--k', '1,10', '--q', '97', '--invert-epsilon', '0.5']):\n"
        "    assert relbc.cli.dispatch(argv) == 0\n"
        "    assert not walk_loaded(), (argv, walk_loaded()[:5])\n"
    )
    proc = _run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert '"accept"' in proc.stdout


def test_only_the_searching_commands_load_the_oracles(tmp_path):
    # adversary and games load only for bind-oracle and chsh; chsh needs
    # games alone
    transcript = tmp_path / "run.json"
    script = (
        "import sys\n"
        "import relbc.cli\n"
        "def oracles():\n"
        "    return sorted(m for m in ('relbc.adversary', 'relbc.games') if m in sys.modules)\n"
        "assert oracles() == [], oracles()\n"
        "for argv in (['simulate', '--protocol', 'tree', '--k', '3', '--seed', '1',\n"
        f"              '--trials', '5', '--transcript-out', {str(transcript)!r}],\n"
        "             ['bounds', '--k', '1,10', '--q', '97', '--invert-epsilon', '0.5'],\n"
        f"             ['verify-transcript', {str(transcript)!r}]):\n"
        "    assert relbc.cli.dispatch(argv) == 0\n"
        "    assert oracles() == [], (argv, oracles())\n"
        "assert relbc.cli.dispatch(['chsh', '--q', '2', '--uniform']) == 0\n"
        "assert oracles() == ['relbc.games'], oracles()\n"
    )
    proc = _run_script(script)
    assert proc.returncode == 0, proc.stderr
    assert '"accept"' in proc.stdout


def test_the_oracles_load_neither_csv_nor_hashlib():
    # the oracles read their ceiling from relbc.formulas, which loads
    # neither the walk (hashlib, for its stream key) nor the CSV writer
    script = (
        "import sys\n"
        "import relbc.adversary\n"
        "loaded = sorted(m for m in ('csv', 'hashlib') if m in sys.modules)\n"
        "assert loaded == [], loaded\n"
    )
    proc = _run_script(script)
    assert proc.returncode == 0, proc.stderr


def test_simulate_accepts_a_dead_time_past_int32(capsys):
    code, out, err = run(
        capsys, "simulate", "--protocol", "tree", "--k", "5", "--m", "3000000000",
        "--p", "0.1", "--seed", "1", "--trials", "10",
    )
    assert code == 0, err
    assert "Traceback" not in err
    doc = json.loads(out)
    assert doc["m"] == 3_000_000_000 and doc["trials"] == 10


@pytest.mark.parametrize(
    "argv",
    [
        ("--k", "5", "--m", "3000000000"),
        ("--k", "50", "--m", "20"),
        # the most stations a tree takes; lag 1 keeps the cost samples small
        ("--k", "5", "--m", "3000000000", "--n-stations", "11", "--N", "1"),
    ],
    ids=["mp_huge", "mp_2", "mp_huge_n11"],
)
def test_simulate_keeps_the_tree_formula_in_range_past_mp_1(capsys, argv):
    code, out, err = run(
        capsys, "simulate", "--protocol", "tree", "--p", "0.1", "--seed", "1",
        "--trials", "10", *argv,
    )
    assert code == 0, err
    doc = json.loads(out)
    assert 0 <= doc["p_ok_formula"] <= 1
    assert doc["half_life_formula"] >= 1


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=8),
    lambda kids: st.lists(kids, max_size=4) | st.dictionaries(st.text(max_size=8), kids, max_size=4),
    max_leaves=12,
)

VALID_TRANSCRIPTS = [
    json.loads(run_protocol(kind, k, Field(5), d=1, seed=3, trial=0).transcript.to_json())
    for kind, k in (("tree", 2), ("fq", 3), ("single", 1))
]


@st.composite
def mutated_transcripts(draw):
    """A valid transcript with one top-level or per-message value replaced."""
    doc = copy.deepcopy(draw(st.sampled_from(VALID_TRANSCRIPTS)))
    parts = [doc, *doc["records"], *doc["reveals"]]
    target = draw(st.sampled_from(parts))
    target[draw(st.sampled_from(sorted(target)))] = draw(JSON_VALUES)
    return doc


@settings(max_examples=200, deadline=2000)
@given(doc=JSON_VALUES | mutated_transcripts())
def test_verify_transcript_fuzz_exits_cleanly(tmp_path_factory, doc):
    path = tmp_path_factory.getbasetemp() / "fuzz.json"
    path.write_text(json.dumps(doc))
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(["verify-transcript", str(path)])
    assert code in (0, 1)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert out.getvalue() == "" and err.getvalue().startswith("error: ")


def _small_or_wild(small, wild):
    """A small value, or one time in eight a wild one, as a flag value."""
    return st.integers(0, 7).flatmap(lambda i: small if i else st.sampled_from(wild)).map(str)


# Small values keep an accepted run under about 10^4 trial-rounds and 10^4
# scheduled nodes: a tree run schedules at most (k+1)*(n-1)^min(N, k) =
# 5*3^4 nodes, over at most 8 trials and 8 cost samples, and a walk is at
# most 5*8 trial-rounds.  A wild value is out of range, or so large that
# the walk or the event budget refuses it; a huge lag or dead time is
# accepted, and then bounded by k.
SIMULATE_FLAGS = st.fixed_dictionaries({
    "--protocol": st.sampled_from(["tree", "fq", "single"]),
    "--k": _small_or_wild(st.integers(1, 4), [0, -1, 10**10, 10**30]),
    "--N": _small_or_wild(st.integers(1, 3), [0, -2, 1018, 10**4, 10**30]),
    "--n-stations": _small_or_wild(st.integers(3, 4), [0, 2, 12, 10**9]),
    "--m": _small_or_wild(st.integers(1, 5), [0, -1, 3_000_000_000, 10**30]),
    "--trials": _small_or_wild(st.integers(1, 8), [0, -1, 10**12]),
    "--p": _small_or_wild(st.floats(0, 1), [math.nan, math.inf, -math.inf, -0.5, 1.5]),
    "--engine": st.sampled_from(["fast", "events"]),
})


@settings(max_examples=150, deadline=None)
@given(flags=SIMULATE_FLAGS, pretty=st.booleans())
def test_simulate_fuzz_exits_cleanly(flags, pretty):
    argv = ["simulate", "--seed", "1", *(x for kv in flags.items() for x in kv)]
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = dispatch(argv + ["--pretty"] * pretty)
    assert code in (0, 1, 2), argv
    assert "Traceback" not in err.getvalue()
    if code:
        assert out.getvalue() == ""
        assert err.getvalue().startswith("error: " if code == 1 else "refused: ")
