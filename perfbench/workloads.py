"""The benchmark's three workloads and the pass that runs one of them.

Each workload is a closed loop: it issues its next unit only after the
previous one returned.  A *unit* is one input (a seeded run, one enumerated
configuration, one drill); an *item* is what a user waits for (a run, a
history, a drill) and is the unit of latency and of failure counting.  A
*pass* runs a list of units: the same list every time for ``enum`` and
``drill``; for ``sim`` a fresh batch drawn from the seed each time, since
its tail latency needs thousands of distinct schedules.

Known defects are kept out of every workload, so that fixing them cannot
change the benchmark's outputs: ``sweep --algo dsm_queue --erase`` (erase
mode is meant for read/write-only protocols), ``--W 0``, a negative
budget, and ``exhaustive:-1`` each exit 0 with a meaningless record today.
"""

from __future__ import annotations

import contextlib
import io
import json
import random
import sys
import traceback
from pathlib import Path
from time import perf_counter

from rmrsim import algorithms, checker, cli, harness, runner
from rmrsim.costs import Model

FIXTURES = Path(__file__).with_name("fixtures.json")


def load_fixtures() -> dict:
    """Expected outputs: per enumerated configuration its history count and
    violation kinds, per drill its exit code and exact CSV text."""
    return json.loads(FIXTURES.read_text(encoding="utf-8"))


class Sim:
    """Checked random-schedule runs, the work of ``rmrsim run``.

    Read-heavy ``cc_flag`` (the waiters spin on one flag the CC cache keeps
    local), ``dsm_queue`` (FAI plus remote writes into each waiter's
    module) and a ``+blocking`` variant whose Wait loops inside one call.
    The seed draws every run's schedule seed; nothing else depends on it.
    The step count of a ``dsm_queue`` run varies tenfold with its schedule,
    so a pass holds thousands of runs and each pass draws new ones.
    """

    n = 64
    algos = ("cc_flag", "dsm_queue", "dsm_queue+blocking")
    runs_per_algo = 800
    amortized_c = 3

    def __init__(self, seed: int):
        self.seed = seed

    def pass_units(self, index: int):
        rng = random.Random(f"{self.seed}/{index}")
        return tuple(
            (name, rng.getrandbits(32))
            for _ in range(self.runs_per_algo) for name in self.algos
        )

    def run(self, unit, spans):
        name, seed = unit
        t0 = perf_counter()
        algo = algorithms.make_algorithm(name, self.n)
        waiter = runner.wait_once() if name.endswith("+blocking") else runner.poll_until_true()
        roles = {pid: waiter for pid in range(2, self.n + 1)}
        roles[1] = runner.signal_once()
        run = runner.Runner(algo, roles)
        run.drive(runner.SeededRandom(seed))
        history = run.history()
        violations = checker.real_violations(
            checker.check_polling(history) + checker.check_blocking(history)
        )
        dsm = checker.check_amortized(history, self.amortized_c, Model.DSM)
        cc = checker.check_amortized(history, self.amortized_c, Model.CC)
        spans.append((t0, perf_counter()))
        ledger = run.ledger
        ok = (not violations and not history.incomplete
              and dsm.total == ledger.total_rmr_dsm and cc.total == ledger.total_rmr_cc)
        output = (len(history.events), ledger.total_rmr_dsm, ledger.total_rmr_cc,
                  ledger.total_msg_bus, ledger.total_msg_dir)
        return output, len(history.events), 1, 0 if ok else 1


class Enum:
    """Stateless exhaustive enumeration, ledger off, every history through
    both checkers: the criterion-3 configurations (n=3, two polls per
    waiter) and the mutant.  ``dsm_fixed_waiters_term`` alone would give
    127k histories at depth 25, so it runs at depth 12."""

    configs = (
        ("cc_flag", (), ((2, 2), (3, 2)), 25),
        ("dsm_single_waiter", (), ((2, 2),), 25),
        ("dsm_fixed_waiters", (("waiters", (2, 3)),), ((2, 2), (3, 2)), 25),
        ("dsm_fixed_waiters_term", (("waiters", (2, 3)),), ((2, 2), (3, 1)), 12),
        ("dsm_registration", (), ((2, 2), (3, 2)), 25),
        ("dsm_queue", (), ((2, 2), (3, 2)), 25),
        ("mutant_single_waiter", (), ((2, 2),), 25),
    )

    def __init__(self, seed: int, expected=None):
        self.expected = load_fixtures()["enum"] if expected is None else expected

    def pass_units(self, index: int):
        return self.configs

    @staticmethod
    def key(unit) -> str:
        return unit[0]

    def run(self, unit, spans):
        name, params, polls, depth = unit
        algo = algorithms.make_algorithm(name, 3, **dict(params))
        roles = {pid: runner.poll_at_most(calls) for pid, calls in polls}
        roles[1] = runner.signal_once()
        histories = steps = 0
        kinds: set[str] = set()
        it = harness.enumerate_histories(algo, roles, depth)
        while True:
            t0 = perf_counter()
            history = next(it, None)
            if history is None:
                break
            found = checker.real_violations(checker.check_polling(history))
            found += checker.check_blocking(history)
            spans.append((t0, perf_counter()))
            histories += 1
            steps += len(history.events)
            kinds.update(v.kind for v in found)
        output = {"histories": histories, "kinds": sorted(kinds)}
        failed = 0 if output == self.expected.get(name) else max(histories, 1)
        return output, steps, max(histories, 1), failed


class Drill:
    """In-process ``rmrsim sweep`` (``cli.main``), one drill per call, for
    three cases: stability forks only, erase replays, and the CC
    cache-held configuration probe."""

    cases = (
        ("--algo", "dsm_queue", "--model", "dsm"),
        ("--algo", "dsm_fixed_waiters", "--erase"),
        ("--algo", "cc_flag", "--model", "cc"),
    )
    w_points = (8, 16, 24, 32, 48, 64, 96, 128, 192, 256)

    def __init__(self, seed: int, expected=None):
        self.expected = load_fixtures()["drill"] if expected is None else expected

    def pass_units(self, index: int):
        return tuple(
            ("sweep", *case, "--W", str(w)) for case in self.cases for w in self.w_points
        )

    @staticmethod
    def key(unit) -> str:
        return " ".join(unit)

    def run(self, unit, spans):
        reports = []
        drill = cli.adversary_separation

        def capture(*args, **kwargs):
            report = drill(*args, **kwargs)
            reports.append(report)
            return report

        out = io.StringIO()
        cli.adversary_separation = capture
        try:
            t0 = perf_counter()
            with contextlib.redirect_stdout(out):
                code = cli.main(list(unit))
            spans.append((t0, perf_counter()))
        finally:
            cli.adversary_separation = drill
        output = {"exit": code, "csv": out.getvalue()}
        steps = sum(len(r.history.events) for r in reports if r.history is not None)
        failed = 0 if output == self.expected.get(self.key(unit)) else 1
        return output, steps, 1, failed


WORKLOADS = {"sim": Sim, "enum": Enum, "drill": Drill}


class Pass:
    """The outcome of running every unit of a workload once."""

    def __init__(self):
        self.outputs: list = []
        self.steps = 0
        self.items = 0
        self.failed = 0
        # (item, start, end) per item; an item is (unit, its index in the unit)
        self.spans: list[tuple] = []
        self.seconds = 0.0
        self.scale = 1.0  # host seconds to reference seconds, see speed.py


def run_pass(workload, units) -> Pass:
    """Run each unit in order; a unit that raises counts as one failed item."""
    result = Pass()
    t0 = perf_counter()
    for unit in units:
        spans: list[tuple[float, float]] = []
        try:
            output, steps, items, failed = workload.run(unit, spans)
        except Exception:  # a crash is a failed item, not an aborted benchmark
            traceback.print_exc(file=sys.stderr)
            output, steps, items, failed = None, 0, 1, 1
        result.spans.extend(((unit, k), start, end) for k, (start, end) in enumerate(spans))
        result.outputs.append(output)
        result.steps += steps
        result.items += items
        result.failed += failed
    result.seconds = perf_counter() - t0
    return result
