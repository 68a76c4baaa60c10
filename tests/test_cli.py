"""Command-line behavior: records, exit codes, reproducibility, formats."""

import importlib.util
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import rmrsim
from rmrsim import cli
from rmrsim.algorithms import REGISTRY
from rmrsim.cli import main
from rmrsim.harness import RECORD_KEYS


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_run_emits_record_and_succeeds(capsys):
    code, out, _ = run_cli(capsys, "run", "--algo", "cc_flag", "--n", "4", "--seed", "1")
    assert code == 0
    record = json.loads(out)
    assert record["algorithm"] == "cc_flag"
    assert record["k"] == 4
    assert record["totals"]["rmr_cc"] <= 2 * 4 + 1
    assert set(record["per_process"]["2"]) == {"rmr_dsm", "rmr_cc", "msg_bus", "msg_dir", "steps"}
    assert record["violations"] == []


def test_run_single_waiter_default_roles(capsys):
    code, out, _ = run_cli(capsys, "run", "--algo", "dsm_single_waiter", "--n", "4")
    assert code == 0
    assert json.loads(out)["k"] == 2  # one waiter plus the signaler


def test_run_two_waiters_on_single_waiter_is_usage_error(capsys):
    code, _, err = run_cli(
        capsys, "run", "--algo", "dsm_single_waiter", "--n", "4", "--waiters", "2"
    )
    assert code == 2
    assert "waiter" in err


def test_run_repeated_waiter_ids_refused(capsys):
    code, out, err = run_cli(
        capsys, "run", "--algo", "cc_flag", "--n", "4", "--waiters", "3,3,2"
    )
    assert (code, out) == (2, "")
    assert "[3] repeated" in err


def test_sweep_repeated_waiter_counts_refused(capsys):
    code, out, err = run_cli(
        capsys, "sweep", "--algo", "cc_flag", "--model", "cc", "--W", "4,2,4,2,8"
    )
    assert (code, out) == (2, "")
    assert "waiter counts [2, 4] repeated in --W" in err


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("algo", ["dsm_registration", "dsm_registration+blocking"])
def test_waiter_that_is_the_designated_signaler_refused(capsys, command, algo):
    # Process 1 signals dsm_registration; as a waiter it would lose its role.
    code, out, err = run_cli(capsys, command, "--algo", algo, "--n", "3", "--waiters", "1,2")
    assert (code, out) == (2, "")
    assert f"waiter id 1 is {algo}'s designated signaler" in err


def test_waiters_beside_the_designated_signaler_accepted(capsys):
    code, out, _ = run_cli(capsys, "run", "--algo", "dsm_registration", "--n", "3",
                           "--waiters", "2,3")
    assert code == 0
    assert json.loads(out)["k"] == 3


@pytest.mark.parametrize("algo", ["dsm_fixed_waiters_term", "dsm_fixed_waiters_term+blocking"])
def test_run_fixed_waiter_set_is_the_waiters_option(capsys, algo):
    # Two waiters, 2 and 3: the signaler waits for and notifies just them.
    # Built with the default set 2..4, it would spin on process 4's presence
    # flag to the step budget.
    code, out, _ = run_cli(capsys, "run", "--algo", algo, "--n", "4", "--waiters", "2")
    record = json.loads(out)
    assert (code, record["incomplete"]) == (0, False)
    assert sorted(record["per_process"]) == ["1", "2", "3"]
    assert record["per_process"]["1"]["rmr_dsm"] == 2


def test_run_reproducible_byte_for_byte(capsys):
    argv = ("run", "--algo", "dsm_queue", "--n", "6", "--seed", "42")
    _, first, _ = run_cli(capsys, *argv)
    _, second, _ = run_cli(capsys, *argv)
    assert first == second


def test_run_detects_violation(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--algo", "mutant_single_waiter", "--n", "3",
        "--waiters", "1", "--schedule", "explicit:2,2,1,1,2", "--budget", "50",
    )
    assert code == 1
    record = json.loads(out)
    assert any(v["kind"] == "POLL_FALSE_AFTER_SIGNAL" for v in record["violations"])


def test_parser_built_once_per_process(capsys):
    run_cli(capsys, "run", "--algo", "cc_flag", "--n", "3")
    first = cli._build_parser()
    run_cli(capsys, "check", "--algo", "cc_flag", "--schedule", "exhaustive:4")
    assert cli._build_parser() is first


def test_check_clean_algorithm(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--algo", "cc_flag", "--n", "3",
        "--schedule", "exhaustive:20",
    )
    assert code == 0
    summary = json.loads(out)
    assert summary["violation_count"] == 0
    assert summary["histories_explored"] > 0


def test_check_mutant_fails(capsys):
    code, out, _ = run_cli(
        capsys, "check", "--algo", "mutant_single_waiter", "--n", "3",
        "--waiters", "1", "--schedule", "exhaustive:25",
    )
    assert code == 1
    assert json.loads(out)["violation_count"] > 0


def test_check_overflow_exits_three(capsys, monkeypatch):
    import rmrsim.cli as cli
    from rmrsim.errors import EnumerationOverflow

    def explode(*args, **kwargs):
        raise EnumerationOverflow(123, 123)
        yield  # pragma: no cover

    monkeypatch.setattr(cli, "enumerate_histories", explode)
    code, _, err = run_cli(capsys, "check", "--algo", "cc_flag", "--n", "3")
    assert code == 3
    assert "123" in err


def test_check_large_n_rejected(capsys):
    code, _, err = run_cli(capsys, "check", "--algo", "cc_flag", "--n", "5")
    assert code == 2
    assert "n<=4" in err


@pytest.mark.parametrize("command", ["run", "check"])
@pytest.mark.parametrize("algo", sorted(REGISTRY))
def test_one_process_leaves_no_waiter_and_is_refused(capsys, command, algo):
    # Process 1 would signal to nobody, and the run would have no Poll to check.
    code, out, err = run_cli(capsys, command, "--algo", algo, "--n", "1")
    assert (code, out) == (2, "")
    assert "need at least one waiter among 1..1" in err


def test_adversary_queue(capsys):
    code, out, _ = run_cli(
        capsys, "adversary", "--algo", "dsm_queue", "--W", "16", "--signaler", "1"
    )
    assert code == 0
    report = json.loads(out)
    assert report["W"] == 16
    assert report["signaler_rmrs"] >= 16


def test_adversary_cc_flag_under_cc(capsys):
    code, out, _ = run_cli(
        capsys, "adversary", "--algo", "cc_flag", "--model", "cc", "--W", "16"
    )
    assert code == 0
    assert json.loads(out)["signaler_rmrs"] == 1


def test_adversary_cc_flag_under_dsm_inapplicable(capsys):
    code, _, err = run_cli(
        capsys, "adversary", "--algo", "cc_flag", "--model", "dsm", "--W", "8"
    )
    assert code == 4
    assert "RMR" in err or "stab" in err


def test_sweep_csv_columns_fixed(capsys):
    code, out, _ = run_cli(capsys, "sweep", "--algo", "dsm_fixed_waiters", "--W", "4,8")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(RECORD_KEYS)
    assert len(lines) == 3
    first = dict(zip(RECORD_KEYS, lines[1].split(",")))
    assert first["algorithm"] == "dsm_fixed_waiters"
    assert int(first["W"]) == 4
    assert int(first["signaler_rmrs"]) >= 3


def test_sweep_json_format(capsys):
    code, out, _ = run_cli(
        capsys, "sweep", "--algo", "dsm_registration", "--W", "4,8",
        "--format", "json",
    )
    assert code == 0
    rows = json.loads(out)
    assert [r["W"] for r in rows] == [4, 8]
    assert all(r["signaler_rmrs"] >= r["W"] - 1 for r in rows)


# Per case, its small W and the exit code at W = small and W = 16.  The
# single-waiter mutant fails its post-poll check at W = 1 and refuses 16
# waiters.
DRILL_CASES = {
    "dsm_queue": (4, 0, 0),
    "dsm_fixed_waiters": (4, 0, 0),
    "dsm_fixed_waiters --erase": (4, 0, 0),
    "dsm_registration": (4, 0, 0),
    "dsm_registration --erase": (4, 0, 0),
    "cc_flag --model cc": (4, 0, 0),
    "mutant_single_waiter": (1, 1, 2),
}


@pytest.mark.parametrize("case", sorted(DRILL_CASES))
@pytest.mark.parametrize("large", [False, True], ids=["W-small", "W-16"])
@pytest.mark.parametrize("spare", [0, 4], ids=["n-default", "n-W+4"])
def test_adversary_prints_the_record_sweep_lists(capsys, case, large, spare):
    # Both commands signal with the same process, so they agree at each W,
    # also with idle processes beyond the waiters.
    small, small_code, large_code = DRILL_CASES[case]
    w = 16 if large else small
    argv = ["--algo", *case.split(), "--W", str(w)]
    if spare:
        argv += ["--n", str(w + spare)]
    code, out, err = run_cli(capsys, "adversary", *argv)
    listed_code, listed, listed_err = run_cli(capsys, "sweep", *argv, "--format", "json")
    assert code == listed_code == (large_code if large else small_code)
    assert err == listed_err
    assert ([json.loads(out)] if out else []) == (json.loads(listed) if listed else [])


def test_output_file(tmp_path, capsys):
    target = tmp_path / "record.json"
    code, out, _ = run_cli(
        capsys, "run", "--algo", "cc_flag", "--n", "2", "--out", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["algorithm"] == "cc_flag"


def test_budget_flag_bounds_a_run(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--algo", "dsm_fixed_waiters_term", "--n", "4",
        "--schedule", "rr", "--budget", "7",
    )
    assert code == 0
    record = json.loads(out)
    assert record["totals"]["steps"] <= 7
    assert record["incomplete"] is True


def test_budget_flag_lets_a_run_finish(capsys):
    code, out, _ = run_cli(
        capsys, "run", "--algo", "cc_flag", "--n", "3", "--budget", "1000",
        "--seed", "3",
    )
    assert code == 0
    assert json.loads(out)["incomplete"] is False


def test_config_file_with_flag_override(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algo": "cc_flag", "n": 3, "seed": 5}))
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 0
    assert json.loads(out)["k"] == 3
    code, out, _ = run_cli(capsys, "run", "--config", str(cfg), "--n", "4")
    assert code == 0
    assert json.loads(out)["k"] == 4


def test_config_file_unknown_key_rejected(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algo": "cc_flag", "bogus": 1}))
    code, _, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert "bogus" in err


def test_unknown_algorithm_usage_error(capsys):
    code, _, err = run_cli(capsys, "run", "--algo", "nope")
    assert code == 2
    assert "unknown algorithm" in err


def test_missing_algorithm_usage_error(capsys):
    code, _, err = run_cli(capsys, "run")
    assert code == 2
    assert "--algo" in err


@pytest.mark.parametrize("argv, needle", [
    pytest.param(("adversary", "--algo", "dsm_queue", "--W", "0"), "waiter counts",
                 id="adversary-W-0"),
    pytest.param(("sweep", "--algo", "dsm_queue", "--W", "8,-2"), "waiter counts",
                 id="sweep-W-negative"),
    pytest.param(("run", "--algo", "cc_flag", "--budget", "-1"), "budget",
                 id="run-budget-negative"),
    pytest.param(("run", "--algo", "cc_flag", "--budget", "0"), "budget",
                 id="run-budget-0"),
    pytest.param(("check", "--algo", "cc_flag", "--schedule", "exhaustive:-1"), "depth",
                 id="check-depth-negative"),
    pytest.param(("check", "--algo", "cc_flag", "--schedule", "exhaustive:0"), "depth",
                 id="check-depth-0"),
    pytest.param(("check", "--algo", "cc_flag", "--polls", "0"), "poll",
                 id="check-polls-0"),
    # An id that can never run would end the run with a plausible empty record.
    *(pytest.param(("run", "--algo", "cc_flag", "--n", "3", "--schedule", f"explicit:{ids}"),
                   f"schedule id {bad} outside 1..3", id=f"run-explicit-{bad}")
      for ids, bad in (("9,0,-1", 9), ("2,1,0", 0), ("1,2,4", 4), ("3,-2", -2))),
    # An empty variant would run the base protocol under a name it does not have.
    pytest.param(("run", "--algo", "cc_flag+", "--n", "3"),
                 "unknown algorithm variant ''", id="run-empty-variant"),
    # Process 3 has no role, so it could never take a step.
    pytest.param(("run", "--algo", "cc_flag", "--n", "3", "--waiters", "1",
                  "--schedule", "explicit:3,3,3"),
                 "schedule id 3 names a process with no role", id="run-explicit-no-role"),
    # A number that does not parse names the option it came from.
    pytest.param(("run", "--algo", "cc_flag", "--n", "3", "--schedule", "explicit:1,x"),
                 "schedule explicit: needs an integer, got 'x'", id="run-explicit-not-a-number"),
    pytest.param(("check", "--algo", "cc_flag", "--schedule", "exhaustive:abc"),
                 "schedule exhaustive:DEPTH needs an integer, got 'abc'",
                 id="check-depth-not-a-number"),
])
def test_nonsensical_input_refused(capsys, argv, needle):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2
    assert out == ""
    assert needle in err


def test_sweep_erase_on_non_read_write_algorithm_inapplicable(capsys):
    code, out, err = run_cli(capsys, "sweep", "--algo", "dsm_queue", "--erase", "--W", "4")
    assert code == 4
    assert out == ""
    assert "read/write" in err and "fai" in err


# Each command's options, written out by hand: the parser must offer
# exactly these, and every other option of the old shared set is refused.
OPTIONS_BY_COMMAND = {
    "run": {"--config", "--algo", "--model", "--n", "--waiters", "--schedule", "--seed",
            "--budget", "--out"},
    "check": {"--config", "--algo", "--n", "--waiters", "--schedule", "--polls", "--out"},
    "adversary": {"--config", "--algo", "--model", "--n", "--W", "--out", "--signaler",
                  "--erase"},
    "sweep": {"--config", "--algo", "--model", "--n", "--W", "--out", "--format",
              "--signaler", "--erase"},
}
FORMER_OPTIONS = {
    "--config": "cfg.json", "--algo": "cc_flag", "--model": "cc", "--n": "3",
    "--waiters": "1", "--schedule": "rr", "--seed": "5", "--budget": "3", "--c": "3",
    "--W": "8", "--out": "out.txt", "--format": "json", "--polls": "1",
    "--signaler": "1", "--erase": None,
}
DROPPED = [
    (command, flag)
    for command, accepted in OPTIONS_BY_COMMAND.items()
    for flag in sorted(set(FORMER_OPTIONS) - accepted)
]


def run_cli_exit(capsys, *argv):
    """Like ``run_cli``, but an argparse refusal counts as its exit code."""
    try:
        code = main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_option_sets_add_up():
    assert len(DROPPED) == 27
    assert sum(len(flags) for flags in OPTIONS_BY_COMMAND.values()) == 33


@pytest.mark.parametrize("command", sorted(OPTIONS_BY_COMMAND))
def test_help_lists_only_the_commands_options(capsys, command):
    code, out, _ = run_cli_exit(capsys, command, "--help")
    assert code == 0
    listed = {word.strip("[],") for word in out.split() if word.startswith(("--", "[--"))}
    assert listed - {"--help"} == OPTIONS_BY_COMMAND[command]


@pytest.mark.parametrize("command, flag", DROPPED, ids=[f"{c}{f}" for c, f in DROPPED])
def test_option_not_read_by_command_refused(capsys, command, flag):
    value = FORMER_OPTIONS[flag]
    argv = [command, "--algo", "cc_flag", flag] + ([] if value is None else [value])
    code, out, err = run_cli_exit(capsys, *argv)
    assert code == 2
    assert out == ""
    assert f"unrecognized arguments: {flag}" in err


@pytest.mark.parametrize("argv", [
    ("adversary", "--algo", "dsm_queue", "--W", "8,16"),
    ("adversary", "--algo", "dsm_queue", "--W", "8", "--sig", "1"),
    ("sweep", "--algo", "dsm_queue", "--W", "8", "--form", "json"),
], ids=["adversary-two-W", "abbreviated-signaler", "abbreviated-format"])
def test_malformed_drill_options_refused(capsys, argv):
    code, out, _ = run_cli_exit(capsys, *argv)
    assert code == 2
    assert out == ""


@pytest.mark.parametrize("values, needle", [
    ({"algo": "cc_flag", "model": "xyz"}, "xyz"),
    ({"algo": "cc_flag", "n": "3"}, "'n'"),
    ({"algo": "cc_flag", "erase": True}, "erase"),
    ({"algo": "cc_flag", "config": "other.json"}, "config"),
], ids=["bad-choice", "string-for-int", "other-commands-key", "nested-config"])
def test_config_values_checked_like_flags(tmp_path, capsys, values, needle):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(values))
    code, out, err = run_cli_exit(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert needle in err


def test_config_file_drill_options(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"algo": "dsm_fixed_waiters", "W": "4,8", "erase": True}))
    code, out, _ = run_cli(capsys, "sweep", "--config", str(cfg), "--W", "4")
    assert code == 0
    assert out.strip().splitlines()[1].startswith("dsm_fixed_waiters,dsm,4,")
    assert len(out.strip().splitlines()) == 2


@pytest.mark.parametrize("content", [None, "{not json", "[1, 2]"],
                         ids=["missing", "not-json", "not-an-object"])
def test_unreadable_config_file_is_usage_error(tmp_path, capsys, content):
    cfg = tmp_path / "cfg.json"
    if content is not None:
        cfg.write_text(content)
    code, out, err = run_cli(capsys, "run", "--config", str(cfg))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "cfg.json" in err


def test_sweep_prints_failing_row_then_exits_one(capsys):
    code, out, err = run_cli(capsys, "sweep", "--algo", "mutant_single_waiter", "--W", "1")
    assert code == 1
    lines = out.strip().splitlines()
    assert lines[0] == ",".join(RECORD_KEYS)
    assert lines[1].startswith("mutant_single_waiter,dsm,1,")
    assert "polled false" in err


def test_unwritable_out_is_usage_error(tmp_path, capsys):
    target = tmp_path / "missing" / "x.json"
    code, out, err = run_cli(capsys, "run", "--algo", "cc_flag", "--out", str(target))
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "x.json" in err


@pytest.mark.parametrize("signaler", ["99", "0", "-3"])
def test_drill_signaler_outside_processes_is_usage_error(capsys, signaler):
    code, out, err = run_cli(
        capsys, "adversary", "--algo", "dsm_queue", "--W", "4", "--signaler", signaler
    )
    assert code == 2
    assert out == ""
    assert err.startswith("error:") and "outside 1..5" in err


def cli_env() -> dict:
    """This environment, with the package under test first on the path of
    a ``python -m rmrsim`` child."""
    env = dict(os.environ)
    src = str(Path(rmrsim.__file__).resolve().parents[1])
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [src, env.get("PYTHONPATH")]))
    return env


@pytest.mark.parametrize("argv", [
    "run --algo dsm_queue --n 64 --schedule random --seed 2",
    "sweep --algo dsm_queue --model cc --W 8,64",
], ids=["run", "sweep"])
def test_records_do_not_depend_on_the_hash_seed(argv):
    # Sets of enum members and strings iterate in an order that the hash
    # seed picks; no record may show it.
    env = cli_env()
    outputs = []
    for seed in ("0", "1"):
        env["PYTHONHASHSEED"] = seed
        done = subprocess.run([sys.executable, "-m", "rmrsim", *argv.split()], env=env,
                              capture_output=True, timeout=120)
        assert done.returncode == 0, done.stderr
        outputs.append(done.stdout)
    assert outputs[0] == outputs[1]
    assert outputs[0]


@pytest.mark.parametrize("argv, code", [
    ("run --algo cc_flag --n 3 --seed 1", 0),
    ("check --algo cc_flag --n 3 --schedule exhaustive:12", 0),
    ("check --algo mutant_single_waiter --n 3 --waiters 1 --schedule exhaustive:25", 1),
], ids=["run", "check", "check-violation"])
def test_closed_stdout_pipe_keeps_the_exit_code(argv, code):
    # As under ``| head -1``, but with no reader at all from the start, so
    # the first write always fails.
    env = cli_env()
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        done = subprocess.run([sys.executable, "-m", "rmrsim", *argv.split()], env=env,
                              stdout=write_end, stderr=subprocess.PIPE, text=True, timeout=120)
    finally:
        os.close(write_end)
    assert done.returncode == code
    assert "Traceback" not in done.stderr and "BrokenPipe" not in done.stderr


def test_pins_report_a_pin_that_cannot_start_and_run_the_rest(monkeypatch, capsys):
    # Each pin runs as ``python -m rmrsim`` under this interpreter; one whose
    # process cannot be started is one stderr line, and the rest still run.
    path = Path(__file__).resolve().parents[1] / ".github" / "pins.py"
    spec = importlib.util.spec_from_file_location("pins", path)
    pins = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(pins)
    monkeypatch.setenv("PYTHONPATH", cli_env()["PYTHONPATH"])
    started, spawn = [], pins.run

    def run(argv):
        started.append(argv[:3])
        if len(started) == 1:
            raise FileNotFoundError(2, "No such file or directory", argv[0])
        return spawn(argv)

    monkeypatch.setattr(pins, "run", run)
    monkeypatch.setattr(pins, "PINS", [
        ("first", "run --algo cc_flag --n 3 --seed 1", 0, None, {"k": 3}, None),
        ("second", "run --algo cc_flag --n 3 --seed 1", 0, None, {"k": 4}, None),
    ])
    assert pins.main() == 1
    assert capsys.readouterr().err.splitlines() == [
        f"first: not started: [Errno 2] No such file or directory: '{sys.executable}'",
        "second: (k) = (3,)",
    ]
    assert started == [[sys.executable, "-m", "rmrsim"]] * 2
