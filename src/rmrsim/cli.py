"""Batch command-line front end.

Subcommands: ``run`` (one simulation plus safety checks), ``check``
(exhaustive interleaving enumeration through both checkers), ``adversary``
(one separation drill), ``sweep`` (drills across a list of waiter counts).
Everything is machine-readable JSON or CSV, reproducible byte for byte
given the same configuration and seed; no timestamps appear in records.

Exit codes: 0 clean, 1 safety violation, 2 usage/configuration error,
3 enumeration budget overflow, 4 drill inapplicable.

Every option is a row of ``OPTIONS`` and each command accepts exactly the
rows it reads.  A JSON config file (``--config``) holds the same options
and goes through the same parser; flags win over file values.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from collections import Counter

from . import checker
from .algorithms import make_algorithm
from .costs import Model
from .errors import ConfigError, DrillNotApplicable, EnumerationOverflow, SimError
from .harness import RECORD_KEYS, adversary_separation, enumerate_histories
from .runner import (
    DEFAULT_BUDGET,
    ExplicitSchedule,
    RoundRobin,
    SeededRandom,
    poll_at_most,
    poll_until_true,
    run,
    signal_once,
    wait_once,
    waiter_roles,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_OVERFLOW = 3
EXIT_INAPPLICABLE = 4

COMMANDS = {
    "run": "run one simulation and check the polling/blocking contracts",
    "check": "enumerate every interleaving (small n) through the checkers",
    "adversary": "run the separation drill once",
    "sweep": "run the drill over a list of waiter counts",
}


def int_list(text: str) -> list[int]:
    return [int(x) for x in text.split(",")]


EVERY = dict.fromkeys(COMMANDS)

# One row per option: the flag, its argparse settings, and its default in
# each command that reads it.  A command's parser and config keys are its
# rows and nothing else.
OPTIONS = (
    ("--config", {"help": "JSON config file; flags override it"}, EVERY),
    ("--algo", {"help": "algorithm name, e.g. dsm_queue or cc_flag+blocking"}, EVERY),
    ("--model", {"choices": ["dsm", "cc", "both"], "help": "cost model focus"},
     {"run": "dsm", "adversary": "dsm", "sweep": "dsm"}),
    ("--n", {"type": int, "help": "number of processes (drills: W + 1)"},
     {"run": 4, "check": 3, "adversary": None, "sweep": None}),
    ("--waiters", {"type": int_list, "help": "waiter count or comma-separated ids"},
     {"run": None, "check": None}),
    ("--schedule", {"help": "rr | random | explicit:1,2,..."}, {"run": "random"}),
    ("--schedule", {"help": "exhaustive:DEPTH"}, {"check": "exhaustive:25"}),
    ("--seed", {"type": int, "help": "seed for random schedules"}, {"run": 0}),
    ("--budget", {"type": int, "help": "step budget"}, {"run": DEFAULT_BUDGET}),
    ("--W", {"type": int, "help": "waiter count"}, {"adversary": 8}),
    ("--W", {"type": int_list, "help": "waiter counts, comma separated"},
     {"sweep": "8,16,32,64,128"}),
    ("--out", {"help": "output file (default stdout)"}, EVERY),
    ("--format", {"choices": ["json", "csv"], "help": "output format"}, {"sweep": "csv"}),
    ("--polls", {"type": int, "help": "poll bound per waiter"}, {"check": 2}),
    ("--signaler", {"type": int, "help": "drill signaler: a process id (default: the "
                                         "designated one, else the lowest non-waiter)"},
     {"adversary": None, "sweep": None}),
    ("--erase", {"action": "store_true",
                 "help": "erase unobserved waiters the drill signaler discovers"},
     {"adversary": False, "sweep": False}),
)


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        if args.config:
            file_argv = _config_argv(args.config, args.command)
            args = parser.parse_args(argv[:1] + file_argv + argv[1:])
        if not args.algo:
            raise ConfigError("an algorithm is required (--algo)")
        cfg = vars(args)
        if args.command == "run":
            return _cmd_run(cfg)
        if args.command == "check":
            return _cmd_check(cfg)
        return _cmd_drill(cfg)
    except EnumerationOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except DrillNotApplicable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (SimError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


@functools.cache  # one per process: no default is a mutable object
def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmrsim",
        description="Deterministic shared-memory simulator with RMR accounting",
        allow_abbrev=False,
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for command, doc in COMMANDS.items():
        p = sub.add_parser(command, help=doc, allow_abbrev=False)
        for flag, settings, defaults in OPTIONS:
            if command in defaults:
                p.add_argument(flag, default=defaults[command], **settings)
    return parser


def _config_argv(path: str, command: str) -> list[str]:
    """The flags a config file stands for.  Its keys are the command's
    options; a value is a JSON number for an integer option, true or false
    for ``erase``, and a string, written as on the command line, otherwise."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            values = json.load(fh)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot read config file {path}: {exc}") from None
    if not isinstance(values, dict):
        raise ConfigError(f"config file {path} must hold a JSON object")
    rows = {flag[2:]: settings for flag, settings, defaults in OPTIONS
            if command in defaults and flag != "--config"}
    unknown = set(values) - set(rows)
    if unknown:
        raise ConfigError(f"unknown config keys for {command}: {sorted(unknown)}")
    argv = []
    for key, value in values.items():
        settings = rows[key]
        kind = bool if "action" in settings else int if settings.get("type") is int else str
        if type(value) is not kind:
            raise ConfigError(f"config key {key!r} needs a JSON {kind.__name__}, got {value!r}")
        if kind is not bool:
            argv.append(f"--{key}={value}")
        elif value:
            argv.append(f"--{key}")
    return argv


def _integer(what: str, text) -> int:
    try:
        return int(text)
    except ValueError:
        raise ConfigError(f"{what} needs an integer, got {text!r}") from None


def _at_least_one(what: str, value: int) -> int:
    if value < 1:
        raise ConfigError(f"{what} must be at least 1, got {value}")
    return value


def _refuse_repeats(values, what: str, option: str) -> None:
    repeated = sorted(v for v, times in Counter(values).items() if times > 1)
    if repeated:
        raise ConfigError(f"{what} {repeated} repeated in {option}")


def _parse_waiters(raw, n: int):
    """One number means 'that many waiters starting at process 2'; none
    means the protocol's default set."""
    if raw is None:
        return None
    if len(raw) > 1:
        _refuse_repeats(raw, "waiter ids", "--waiters")
        return raw
    count = raw[0]
    if count < 1 or count > n - 1:
        raise ConfigError(f"waiter count {count} needs 1..{n - 1} (one process must signal)")
    return range(2, count + 2)


def _parse_policy(raw: str, seed: int, n: int, roles):
    if raw == "random":
        return SeededRandom(seed)
    if raw == "rr":
        return RoundRobin()
    if raw.startswith("explicit:"):
        ids = [_integer("schedule explicit:", x) for x in raw[len("explicit:"):].split(",")]
        for pid in ids:
            if not 1 <= pid <= n:
                raise ConfigError(f"schedule id {pid} outside 1..{n}")
            if pid not in roles:
                raise ConfigError(f"schedule id {pid} names a process with no role")
        return ExplicitSchedule(ids)
    raise ConfigError(f"unknown schedule {raw!r}")


def _emit(cfg: dict, text: str) -> None:
    if cfg["out"]:
        try:
            with open(cfg["out"], "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise ConfigError(f"cannot write {cfg['out']}: {exc.strerror}") from None
    else:
        try:
            print(text, flush=True)
        except BrokenPipeError:
            # The reader left early (``| head``).  Later writes, and the
            # flush at exit, go to the null device, so the command still
            # ends with its own exit code and no traceback.
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _algorithm_and_roles(cfg: dict, n: int, poller):
    """The algorithm and its roles: each waiter runs Wait where the
    protocol blocks and the ``poller`` script otherwise; the default
    signaler signals once."""
    algorithm = make_algorithm(cfg["algo"], n, waiters=_parse_waiters(cfg["waiters"], n))
    roles, signaler = waiter_roles(algorithm, wait_once() if algorithm.blocking else poller)
    roles[signaler] = signal_once()
    return algorithm, roles


def _checked_run(cfg: dict) -> tuple[dict, list[checker.Violation]]:
    """One simulation, checked: the record the run command emits, and its
    violations."""
    algorithm, roles = _algorithm_and_roles(cfg, cfg["n"], poll_until_true())
    policy = _parse_policy(cfg["schedule"], cfg["seed"], cfg["n"], roles)
    history, ledger = run(algorithm, roles, policy, budget=cfg["budget"])
    violations = checker.check_polling(history) + checker.check_blocking(history)
    participants = sorted(history.participants)
    record = {
        "algorithm": algorithm.name,
        "model": cfg["model"],
        "k": len(participants),
        "per_process": {str(p): ledger.per_process(p) for p in participants},
        "totals": ledger.totals(),
        "violations": [v.to_dict() for v in violations],
        "incomplete": history.incomplete,
    }
    return record, violations


def _cmd_run(cfg: dict) -> int:
    _at_least_one("step budget", cfg["budget"])
    record, violations = _checked_run(cfg)
    _emit(cfg, json.dumps(record, sort_keys=True, indent=2))
    _print_violation_lines(record["violations"])
    return EXIT_VIOLATION if checker.real_violations(violations) else EXIT_OK


def _print_violation_lines(violations) -> None:
    """Violations also go to stderr, one JSON object per line."""
    for violation in violations:
        print(json.dumps(violation, sort_keys=True), file=sys.stderr)


# ---------------------------------------------------------------------------
# check
# ---------------------------------------------------------------------------


def _cmd_check(cfg: dict) -> int:
    n = cfg["n"]
    if n > 4:
        raise ConfigError(f"exhaustive checking is limited to n<=4, got n={n}")
    kind, _, depth = cfg["schedule"].partition(":")
    if kind != "exhaustive" or not depth:
        raise ConfigError("check requires an exhaustive:DEPTH schedule")
    depth = _at_least_one("exhaustive depth", _integer("schedule exhaustive:DEPTH", depth))
    polls = _at_least_one("poll bound", cfg["polls"])
    algorithm, roles = _algorithm_and_roles(cfg, n, poll_at_most(polls))

    histories = 0
    violations: list[checker.Violation] = []
    for history in enumerate_histories(algorithm, roles, depth):
        histories += 1
        violations.extend(checker.real_violations(checker.check_polling(history)))
        violations.extend(checker.check_blocking(history))
    summary = {
        "algorithm": algorithm.name,
        "n": n,
        "depth": depth,
        "histories_explored": histories,
        "violations": [v.to_dict() for v in violations[:50]],
        "violation_count": len(violations),
    }
    _emit(cfg, json.dumps(summary, sort_keys=True, indent=2))
    _print_violation_lines(summary["violations"])
    return EXIT_VIOLATION if violations else EXIT_OK


# ---------------------------------------------------------------------------
# adversary and sweep
# ---------------------------------------------------------------------------


def _drill(cfg: dict, w_count: int):
    if cfg["model"] == "both":
        raise ConfigError("the drill needs one model: dsm or cc")
    n = w_count + 1 if cfg["n"] is None else cfg["n"]
    if n < w_count + 1:
        raise ConfigError(f"n={n} cannot host {w_count} waiters plus a signaler")
    return adversary_separation(
        make_algorithm(cfg["algo"], n, waiters=range(2, w_count + 2)),
        model=Model(cfg["model"]),
        signaler=cfg["signaler"],
        erase_on_discovery=cfg["erase"],
    )


def _cmd_drill(cfg: dict) -> int:
    """``adversary`` (one W, one JSON record) and ``sweep`` (CSV rows or a
    JSON list, sorted).  An inapplicable drill prints nothing and exits 4;
    a failed post-poll check prints the records so far, its own included,
    and exits 1."""
    sweep = cfg["command"] == "sweep"
    counts = cfg["W"] if sweep else [cfg["W"]]
    _at_least_one("waiter counts", min(counts))
    _refuse_repeats(counts, "waiter counts", "--W")
    records = []
    for w_count in counts:
        report = _drill(cfg, w_count)
        records.append(report.to_record())
        if not report.post_poll_ok:
            break
    records.sort(key=lambda r: (r["algorithm"], r["model"], r["W"]))
    if not sweep:
        _emit(cfg, json.dumps(records[0], sort_keys=True, indent=2))
    elif cfg["format"] == "json":
        _emit(cfg, json.dumps(records, sort_keys=True, indent=2))
    else:
        lines = [",".join(RECORD_KEYS)]
        lines.extend(",".join(str(r[col]) for col in RECORD_KEYS) for r in records)
        _emit(cfg, "\n".join(lines))
    if not report.post_poll_ok:
        print("error: a stable waiter polled false after Signal completed", file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
