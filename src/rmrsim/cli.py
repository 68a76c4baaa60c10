"""Batch command-line front end.

Subcommands: ``run`` (one simulation plus safety checks), ``check``
(exhaustive interleaving enumeration through both checkers), ``adversary``
(one separation drill), ``sweep`` (drills across a list of waiter counts).
Everything is machine-readable JSON or CSV, reproducible byte for byte
given the same configuration and seed; no timestamps appear in records.

Exit codes: 0 clean, 1 safety violation, 2 usage/configuration error,
3 enumeration budget overflow, 4 drill inapplicable.

Options may come from a JSON config file (``--config``); flags win over
file values.  ``RMRSIM_BUDGET`` overrides the default step budget.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import checker
from .algorithms import make_algorithm
from .costs import Model
from .errors import (
    CapacityError,
    ConfigError,
    DrillNotApplicable,
    EnumerationOverflow,
    RoleError,
    SimError,
)
from .harness import adversary_separation, enumerate_histories
from .runner import (
    DEFAULT_BUDGET,
    ExplicitSchedule,
    RoundRobin,
    Runner,
    SeededRandom,
    poll_at_most,
    poll_until_true,
    signal_once,
    wait_once,
)

EXIT_OK = 0
EXIT_VIOLATION = 1
EXIT_USAGE = 2
EXIT_OVERFLOW = 3
EXIT_INAPPLICABLE = 4

SWEEP_COLUMNS = (
    "algorithm", "model", "W", "k", "signaler_rmrs",
    "total_rmr_dsm", "total_rmr_cc", "msg_bus", "msg_dir",
)


def main(argv=None) -> int:
    parser = _build_parser()
    args = parser.parse_args(argv)
    try:
        cfg = _merge_config(args)
        if args.command == "run":
            return _cmd_run(cfg)
        if args.command == "check":
            return _cmd_check(cfg)
        if args.command == "adversary":
            return _cmd_adversary(cfg)
        return _cmd_sweep(cfg)
    except EnumerationOverflow as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_OVERFLOW
    except DrillNotApplicable as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    except (ConfigError, RoleError, CapacityError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SimError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="rmrsim",
        description="Deterministic shared-memory simulator with RMR accounting",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    for name, doc in (
        ("run", "run one simulation and check the polling/blocking contracts"),
        ("check", "enumerate every interleaving (small n) through the checkers"),
        ("adversary", "run the separation drill once"),
        ("sweep", "run the drill over a list of waiter counts"),
    ):
        p = sub.add_parser(name, help=doc)
        p.add_argument("--config", help="JSON config file; flags override it")
        p.add_argument("--algo", help="algorithm name, e.g. dsm_queue or cc_flag+blocking")
        p.add_argument("--model", choices=["dsm", "cc", "both"], help="cost model focus")
        p.add_argument("--n", type=int, help="number of processes")
        p.add_argument("--waiters", help="waiter count or comma-separated ids")
        p.add_argument("--schedule", help="rr | random | explicit:1,2,... | exhaustive:DEPTH")
        p.add_argument("--seed", type=int, help="seed for random schedules")
        p.add_argument("--budget", type=int, help="step budget (env RMRSIM_BUDGET)")
        p.add_argument("--c", type=int, help="amortized RMR constant")
        p.add_argument("--W", help="waiter counts for drills, comma separated")
        p.add_argument("--out", help="output file (default stdout)")
        p.add_argument("--format", choices=["json", "csv"], help="output format")
        p.add_argument("--polls", type=int, help="poll bound per waiter (check mode)")
        p.add_argument("--signaler", help="drill signaler: auto or a process id")
        p.add_argument("--erase", action="store_true", default=None,
                       help="erase unobserved waiters the drill signaler discovers")
    return parser


_DEFAULTS = {
    "algo": None,
    "model": "dsm",
    "n": None,
    "waiters": None,
    "schedule": None,
    "seed": 0,
    "budget": None,
    "c": 3,
    "W": "8,16,32,64,128",
    "out": None,
    "format": None,
    "polls": 2,
    "signaler": None,
    "erase": False,
}


def _merge_config(args) -> dict:
    cfg = dict(_DEFAULTS)
    cfg["command"] = args.command
    if args.config:
        with open(args.config, "r", encoding="utf-8") as fh:
            file_cfg = json.load(fh)
        unknown = set(file_cfg) - set(_DEFAULTS)
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        cfg.update(file_cfg)
    for key in _DEFAULTS:
        value = getattr(args, key, None)
        if value is not None:
            cfg[key] = value
    if not cfg["algo"]:
        raise ConfigError("an algorithm is required (--algo)")
    if cfg["budget"] is None:
        env = os.environ.get("RMRSIM_BUDGET")
        cfg["budget"] = int(env) if env else DEFAULT_BUDGET
    if cfg["budget"] < 1:
        raise ConfigError(f"step budget must be at least 1, got {cfg['budget']}")
    return cfg


def _parse_waiters(raw, n: int, algo: str = "") -> tuple[int, ...]:
    """A count means 'that many waiters starting at process 2'."""
    if raw is None:
        if algo.startswith("dsm_single_waiter") or algo.startswith("mutant_single"):
            return (2,)
        return tuple(range(2, n + 1))
    if isinstance(raw, int):
        count = raw
    elif isinstance(raw, str) and "," not in raw:
        count = int(raw)
    else:
        ids = raw if isinstance(raw, (list, tuple)) else [int(x) for x in raw.split(",")]
        return tuple(sorted(set(int(x) for x in ids)))
    if count < 1 or count > n - 1:
        raise ConfigError(f"waiter count {count} needs 1..{n - 1} (one process must signal)")
    return tuple(range(2, count + 2))


def _parse_policy(raw: str, seed: int):
    if raw in (None, "random"):
        return SeededRandom(seed)
    if raw == "rr":
        return RoundRobin()
    if raw.startswith("explicit:"):
        return ExplicitSchedule(int(x) for x in raw[len("explicit:"):].split(","))
    raise ConfigError(f"unknown schedule {raw!r}")


def _emit(cfg: dict, text: str) -> None:
    if cfg["out"]:
        with open(cfg["out"], "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        print(text)


# ---------------------------------------------------------------------------
# run
# ---------------------------------------------------------------------------


def _build_roles(cfg: dict, n: int, poller):
    """The algorithm and its roles: each waiter runs Wait under
    ``+blocking`` and the ``poller`` script otherwise; the designated
    signaler, or else the lowest non-waiter, signals once."""
    algorithm = make_algorithm(cfg["algo"], n)
    waiters = _parse_waiters(cfg["waiters"], n, cfg["algo"])
    signaler = algorithm.designated_signaler
    if signaler is None:
        candidates = sorted(set(range(1, n + 1)) - set(waiters))
        if not candidates:
            raise ConfigError("no process left to signal; lower the waiter count")
        signaler = candidates[0]
    waiter_script = wait_once() if cfg["algo"].endswith("+blocking") else poller
    roles = {w: waiter_script for w in waiters}
    roles[signaler] = signal_once()
    return algorithm, roles


def build_run_record(cfg: dict) -> dict:
    """One simulation, checked; the record the run command emits."""
    return _checked_run(cfg)[0]


def _checked_run(cfg: dict) -> tuple[dict, list[checker.Violation]]:
    algorithm, roles = _build_roles(cfg, cfg["n"] or 4, poll_until_true())
    runner = Runner(algorithm, roles)
    runner.drive(_parse_policy(cfg["schedule"], cfg["seed"]), cfg["budget"])
    history = runner.history()
    violations = checker.check_polling(history) + checker.check_blocking(history)
    ledger = runner.ledger
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
    n = cfg["n"] or 3
    if n > 4:
        raise ConfigError(f"exhaustive checking is limited to n<=4, got n={n}")
    depth = 25
    if cfg["schedule"]:
        if not cfg["schedule"].startswith("exhaustive"):
            raise ConfigError("check requires an exhaustive:DEPTH schedule")
        _, _, d = cfg["schedule"].partition(":")
        depth = int(d) if d else depth
        if depth < 1:
            raise ConfigError(f"exhaustive depth must be at least 1, got {depth}")
    algorithm, roles = _build_roles(cfg, n, poll_at_most(cfg["polls"]))

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


def _drill(cfg: dict, w_count: int, default_signaler):
    if cfg["model"] == "both":
        raise ConfigError("the drill needs one model: dsm or cc")
    model = Model(cfg["model"])
    n = cfg["n"] or (w_count + 1)
    if n < w_count + 1:
        raise ConfigError(f"n={n} cannot host {w_count} waiters plus a signaler")
    params = {"waiters": tuple(range(2, w_count + 2))} if cfg["algo"].startswith(
        "dsm_fixed_waiters") else {}
    algorithm = make_algorithm(cfg["algo"], n, **params)
    choice = cfg["signaler"] if cfg["signaler"] is not None else default_signaler
    if choice != "auto":
        choice = int(choice)
    return adversary_separation(
        algorithm,
        waiters=tuple(range(2, w_count + 2)),
        model=model,
        signaler=choice,
        erase_on_discovery=cfg["erase"],
    )


def _w_list(cfg: dict) -> list[int]:
    raw = cfg["W"]
    items = raw if isinstance(raw, (list, tuple)) else str(raw).split(",")
    counts = [int(x) for x in items]
    if min(counts) < 1:
        raise ConfigError(f"waiter counts must be at least 1, got {min(counts)}")
    return counts


def _cmd_adversary(cfg: dict) -> int:
    w_count = _w_list(cfg)[0]
    report = _drill(cfg, w_count, default_signaler="auto")
    if report.status != "ok":
        print(f"error: {report.diagnosis}", file=sys.stderr)
        return EXIT_INAPPLICABLE
    _emit(cfg, json.dumps(report.to_record(), sort_keys=True, indent=2))
    if not report.post_poll_ok:
        print("error: a stable waiter polled false after Signal completed",
              file=sys.stderr)
        return EXIT_VIOLATION
    return EXIT_OK


def _cmd_sweep(cfg: dict) -> int:
    rows = []
    for w_count in _w_list(cfg):
        report = _drill(cfg, w_count, default_signaler="1")
        if report.status != "ok":
            print(f"error: {report.diagnosis}", file=sys.stderr)
            return EXIT_INAPPLICABLE
        if not report.post_poll_ok:
            print("error: a stable waiter polled false after Signal completed",
                  file=sys.stderr)
            return EXIT_VIOLATION
        rows.append(report.to_record())
    rows.sort(key=lambda r: (r["algorithm"], r["model"], r["W"]))
    if (cfg["format"] or "csv") == "json":
        _emit(cfg, json.dumps(rows, sort_keys=True, indent=2))
    else:
        lines = [",".join(SWEEP_COLUMNS)]
        lines.extend(
            ",".join(str(row[col]) for col in SWEEP_COLUMNS) for row in rows
        )
        _emit(cfg, "\n".join(lines))
    return EXIT_OK


if __name__ == "__main__":
    sys.exit(main())
