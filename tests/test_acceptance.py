"""Acceptance battery.

One test per criterion, each printing a PASS line with its headline numbers
(run with ``pytest -s`` to see them).  Criteria 1-4 feed a shared
accumulator that criterion 7 audits; running criterion 7 alone falls back
to a small battery of its own.
"""

from statistics import linear_regression

from rmrsim.algorithms import make_algorithm
from rmrsim.checker import (
    check_amortized,
    check_blocking,
    check_polling,
    real_violations,
)
from rmrsim.costs import Model
from rmrsim.harness import (
    adversary_separation,
    enumerate_histories,
    erase,
    stability,
    validate_erasure,
)
from rmrsim.runner import (
    POLL,
    Runner,
    SeededRandom,
    poll_at_most,
    poll_until_true,
    run,
    signal_once,
)

from test_golden import run_case
from test_properties import RMR, classify_cc, classify_dsm

# (ledger msg_dir, ledger msg_bus, independent attempt count, independent
# CC read-RMR count) per registered run; criterion 7 audits the totals.
MESSAGE_AUDIT: list[tuple[int, int, int, int]] = []


def register_run(events, msg_dir_total: int, msg_bus_total: int) -> None:
    attempts = sum(1 for e in events if not e.op.trivial)
    cache = {}
    cc_reads = sum(
        1 for e in events
        if e.op.trivial and classify_cc(e, cache) is RMR
    )
    MESSAGE_AUDIT.append((msg_dir_total, msg_bus_total, attempts, cc_reads))


def waiter_roles(waiters, signaler=None, script=None):
    roles = {w: (script or poll_until_true()) for w in waiters}
    if signaler is not None:
        roles[signaler] = signal_once()
    return roles


def dsm_rmrs_of_call(history, call):
    """The call's DSM RMRs: its process's events from its start seq to its
    end seq, or to the last event while it is open."""
    last = history.events[-1].seq if call.end_seq is None else call.end_seq
    return sum(
        1 for e in history.events
        if e.proc == call.proc and call.start_seq <= e.seq <= last and classify_dsm(e) is RMR
    )


def test_criterion_1_cc_upper_bound():
    # Shared-flag algorithm under the CC model: per-process cost never
    # exceeds 2 RMRs and a k-participant run never exceeds 2k+1 in total.
    worst_total = 0
    for n in (2, 4, 8, 16, 32, 64):
        algo = make_algorithm("cc_flag", n)
        for seed in range(1000):
            runner = Runner(algo, waiter_roles(range(2, n + 1), 1))
            runner.drive(SeededRandom(seed), 100_000)
            ledger = runner.ledger
            k = len(runner.participants())
            assert all(ledger.rmr(Model.CC, p) <= 2 for p in runner.participants())
            assert ledger.total_rmr_cc <= 2 * k + 1
            worst_total = max(worst_total, ledger.total_rmr_cc)
            register_run(runner.events, ledger.total_msg_dir, ledger.total_msg_bus)
    print(f"criterion 1: PASS (6000 runs, worst CC total {worst_total})")


def test_criterion_2_dsm_algorithm_bounds():
    n = 16
    # Single waiter: first poll costs exactly 2, extra polls are free, and
    # the signaler never exceeds 3 (globals live at process 1; waiter 2,
    # signaler 3 so both ends pay their remote accesses).
    algo = make_algorithm("dsm_single_waiter", n)
    for seed in range(1000):
        roles = waiter_roles([2], 3)
        history, ledger = run(algo, roles, SeededRandom(seed))
        assert ledger.rmr(Model.DSM, 2) == 2
        assert ledger.rmr(Model.DSM, 3) <= 3
        register_run(history.events, ledger.total_msg_dir, ledger.total_msg_bus)

    # Fixed waiters: the signal pays exactly one remote write per waiter
    # other than itself, plain and terminating variants alike.
    for name in ("dsm_fixed_waiters", "dsm_fixed_waiters_term"):
        algo = make_algorithm(name, n, waiters=tuple(range(2, n + 1)))
        for seed in range(1000):
            history, ledger = run(
                algo, waiter_roles(range(2, n + 1), 1), SeededRandom(seed)
            )
            assert ledger.rmr(Model.DSM, 1) == n - 1, (name, seed)
            register_run(history.events, ledger.total_msg_dir, ledger.total_msg_bus)

    # Queue: a waiter's first poll costs at most 4 RMRs (3 with the default
    # homes) and the signaler stays within 3W + O(1).
    algo = make_algorithm("dsm_queue", n)
    for seed in range(1000):
        history, ledger = run(algo, waiter_roles(range(2, n + 1), 1), SeededRandom(seed))
        for w in range(2, n + 1):
            first = next(c for c in history.calls if c.proc == w and c.kind == "Poll")
            assert dsm_rmrs_of_call(history, first) == 3
        assert ledger.rmr(Model.DSM, 1) <= 3 * (n - 1) + 5
        assert ledger.rmr(Model.DSM, 1) <= n - 1  # exact with globals at the signaler
        register_run(history.events, ledger.total_msg_dir, ledger.total_msg_bus)
    print("criterion 2: PASS (4000 runs x exact per-process DSM counts)")


def test_criterion_3_exhaustive_safety():
    # Every library algorithm, 2 waiters + 1 signaler at n=3 (the single
    # waiter variant takes its one allowed waiter), depth 25: no violation
    # in any interleaving.
    configs = [
        ("cc_flag", {}, {2: poll_at_most(2), 3: poll_at_most(2)}),
        ("dsm_single_waiter", {}, {2: poll_at_most(2)}),
        ("dsm_fixed_waiters", {"waiters": (2, 3)}, {2: poll_at_most(2), 3: poll_at_most(2)}),
        ("dsm_fixed_waiters_term", {"waiters": (2, 3)}, {2: poll_at_most(2), 3: poll_at_most(1)}),
        ("dsm_registration", {}, {2: poll_at_most(2), 3: poll_at_most(2)}),
        ("dsm_queue", {}, {2: poll_at_most(2), 3: poll_at_most(2)}),
    ]
    explored = {}
    for name, params, roles in configs:
        algo = make_algorithm(name, 3, **params)
        roles = dict(roles)
        roles[1] = signal_once()
        count = 0
        for history in enumerate_histories(algo, roles, depth=25):
            count += 1
            assert real_violations(check_polling(history)) == [], (name, history.trace)
            assert check_blocking(history) == [], (name, history.trace)
        explored[name] = count

    # Checker self-test: a signal that skips its remote write is caught.
    algo = make_algorithm("mutant_single_waiter", 3)
    mutant_roles = {2: poll_at_most(2), 1: signal_once()}
    mutant_violations = 0
    for history in enumerate_histories(algo, mutant_roles, depth=25):
        mutant_violations += len(real_violations(check_polling(history)))
    assert mutant_violations > 0
    total = sum(explored.values())
    print(f"criterion 3: PASS ({total} interleavings clean across "
          f"{len(configs)} algorithms; mutant flagged {mutant_violations} times)")


def test_criterion_4_separation_curve():
    w_points = (8, 16, 32, 64, 128)
    for name in ("dsm_queue", "dsm_registration", "dsm_fixed_waiters"):
        costs = []
        for w in w_points:
            n = w + 1
            algo = make_algorithm(name, n, waiters=range(2, n + 1))
            report = adversary_separation(algo, signaler=1)
            assert report.post_poll_ok
            assert report.signaler_rmrs >= w - 1, (name, w)
            costs.append(report.signaler_rmrs)
            register_run(report.history.events, report.msg_dir, report.msg_bus)
        slope = linear_regression(w_points, costs).slope
        assert slope >= 0.99, (name, slope)

    flat = []
    for w in w_points:
        algo = make_algorithm("cc_flag", w + 1, waiters=range(2, w + 2))
        report = adversary_separation(algo, model=Model.CC)
        assert report.signaler_rmrs == 1, (w, report.signaler_rmrs)
        flat.append(report.signaler_rmrs)
        register_run(report.history.events, report.msg_dir, report.msg_bus)
    print(f"criterion 4: PASS (linear signaler cost for dsm algorithms, "
          f"flat {set(flat)} for cc_flag)")


def test_criterion_5_amortized_falsification():
    # Read/write-only algorithm, 128 stabilized waiters, erase-on-discovery:
    # the surviving history keeps all the signaler's remote writes but only
    # a handful of participants, so no constant c=3 can amortize it.
    w = 128
    algo = make_algorithm("dsm_fixed_waiters", w + 1, waiters=tuple(range(2, w + 2)))
    report = adversary_separation(algo, erase_on_discovery=True)
    result = check_amortized(report.history, c=3, model=Model.DSM)
    assert not result.passed
    assert result.k <= 10
    assert result.total >= w
    print(f"criterion 5: PASS ({result.total} DSM RMRs over k={result.k} "
          f"participants > c*k={3 * result.k})")


def test_criterion_6_tool_soundness():
    # (a) a thousand validated erasures replay bit-identically minus the
    # erased process's steps (the erase call itself certifies survivor
    # equality; the counts are checked here).
    erasures = 0
    for seed in range(100):
        for name in ("dsm_registration", "dsm_fixed_waiters"):
            params = {"waiters": tuple(range(2, 7))} if name == "dsm_fixed_waiters" else {}
            algo = make_algorithm(name, 6, **params)
            runner = Runner(algo, waiter_roles(range(2, 7)))
            runner.drive(SeededRandom(seed), 50)
            for target in sorted(runner.participants() - runner.terminated):
                assert validate_erasure(runner.history(), target)
                before = len(runner.events)
                own = sum(1 for e in runner.events if e.proc == target)
                runner = erase(runner, target)
                assert len(runner.events) == before - own
                assert all(e.proc != target for e in runner.events)
                erasures += 1
    assert erasures >= 1000

    # (b) every stable verdict survives a 10x longer solo extension with
    # zero DSM RMRs: the extra Polls run on a fork with no checkpoint open,
    # so its ledger counts them independently of the probe's own rule.
    verdicts = 0
    for name in ("dsm_queue", "dsm_registration", "dsm_fixed_waiters",
                 "dsm_fixed_waiters_term"):
        params = {"waiters": tuple(range(2, 7))} if "fixed" in name else {}
        algo = make_algorithm(name, 6, **params)
        runner = Runner(algo, waiter_roles(range(2, 7)))
        for w in range(2, 7):
            runner.run_call(w)
        for w, verdict in zip(range(2, 7), stability(runner, range(2, 7))):
            assert verdict.stable
            fork = runner.fork()
            before = fork.ledger.rmr(Model.DSM, w)
            for _ in range(10 * verdict.solo_calls):
                fork.force_next_call(w, POLL)
                if fork.run_call(w).response:
                    break
            assert fork.ledger.rmr(Model.DSM, w) == before
            verdicts += 1

    # (c) a hundred configuration+seed pairs reproduce byte-identically:
    # two ``rmrsim run`` command lines print the same.
    pairs = 0
    for name in ("cc_flag", "dsm_queue", "dsm_registration", "dsm_fixed_waiters"):
        for n in (3, 5):
            for seed in range(13):
                argv = f"run --algo {name} --n {n} --seed {seed} --budget 10000"
                first = run_case(argv)
                assert first["exit"] == 0 and first["stdout"]
                assert run_case(argv) == first
                pairs += 1
    assert pairs >= 100
    print(f"criterion 6: PASS ({erasures} erasures, {verdicts} stable "
          f"verdicts extended, {pairs} reproducible configs)")


def test_criterion_7_message_metric_invariants():
    if not MESSAGE_AUDIT:
        _fallback_battery()
    msg_dir = sum(row[0] for row in MESSAGE_AUDIT)
    msg_bus = sum(row[1] for row in MESSAGE_AUDIT)
    attempts = sum(row[2] for row in MESSAGE_AUDIT)
    cc_reads = sum(row[3] for row in MESSAGE_AUDIT)
    for dir_total, bus_total, attempt_count, cc_read_count in MESSAGE_AUDIT:
        assert bus_total == attempt_count
        assert dir_total <= cc_read_count
    assert msg_bus == attempts
    assert msg_dir <= cc_reads
    print(f"criterion 7: PASS over {len(MESSAGE_AUDIT)} runs "
          f"(directory {msg_dir} <= read-RMRs {cc_reads}; bus {msg_bus} == "
          f"attempts {attempts})")


def _fallback_battery():
    for name in ("cc_flag", "dsm_queue", "dsm_registration"):
        algo = make_algorithm(name, 6)
        for seed in range(50):
            runner = Runner(algo, waiter_roles(range(2, 7), 1))
            runner.drive(SeededRandom(seed), 10_000)
            ledger = runner.ledger
            register_run(runner.events, ledger.total_msg_dir, ledger.total_msg_bus)
