"""Polling/blocking contract checks and amortized-budget falsification."""

import json

from rmrsim.algorithms import make_algorithm
from rmrsim.checker import (
    HARNESS_MISUSE,
    POLL_FALSE_AFTER_SIGNAL,
    POLL_TRUE_NO_SIGNAL,
    WAIT_BEFORE_SIGNAL,
    check_amortized,
    check_blocking,
    check_polling,
    real_violations,
)
from rmrsim.costs import Model
from rmrsim.harness import adversary_separation, enumerate_histories
from rmrsim.runner import (
    CallRecord,
    History,
    SeededRandom,
    poll_at_most,
    poll_until_true,
    run,
    signal_once,
    wait_once,
)


def synthetic(calls):
    return History(events=[], calls=calls, finished=frozenset(), incomplete=False, trace=())


def rec(call_id, proc, kind, response=None, start=None, end=None):
    return CallRecord(call_id=call_id, proc=proc, kind=kind, response=response,
                      start_seq=start, end_seq=end)


# -- polling ------------------------------------------------------------------


def test_poll_true_without_signal_flagged():
    history = synthetic([rec(0, 2, "Poll", True, start=0, end=0)])
    kinds = [v.kind for v in check_polling(history)]
    assert kinds == [POLL_TRUE_NO_SIGNAL]


def test_poll_false_after_completed_signal_flagged():
    history = synthetic([
        rec(0, 1, "Signal", None, start=0, end=1),
        rec(1, 2, "Poll", False, start=2, end=3),
    ])
    kinds = [v.kind for v in check_polling(history)]
    assert kinds == [POLL_FALSE_AFTER_SIGNAL]


def test_poll_false_during_open_signal_allowed():
    # Only a *completed* signal forbids a false poll.
    history = synthetic([
        rec(0, 1, "Signal", None, start=0, end=5),
        rec(1, 2, "Poll", False, start=2, end=3),
    ])
    assert check_polling(history) == []


def test_poll_true_after_signal_began_allowed():
    history = synthetic([
        rec(0, 1, "Signal", None, start=0, end=None),
        rec(1, 2, "Poll", True, start=1, end=2),
    ])
    assert check_polling(history) == []


def test_signal_with_no_steps_has_not_begun():
    history = synthetic([
        rec(0, 1, "Signal", None, start=None, end=None),
        rec(1, 2, "Poll", True, start=0, end=1),
    ])
    assert [v.kind for v in check_polling(history)] == [POLL_TRUE_NO_SIGNAL]


def test_poll_after_true_is_misuse_not_algorithm_failure():
    history = synthetic([
        rec(0, 1, "Signal", None, start=0, end=0),
        rec(1, 2, "Poll", True, start=1, end=1),
        rec(2, 2, "Poll", False, start=2, end=2),
    ])
    violations = check_polling(history)
    assert [v.kind for v in violations] == [HARNESS_MISUSE]
    assert real_violations(violations) == []


def test_false_poll_blames_first_completed_signal_in_call_order():
    # Call order (0, 1) differs from end order (1 ends at 2, 0 at 5).
    signals = [
        rec(0, 1, "Signal", None, start=0, end=5),
        rec(1, 3, "Signal", None, start=1, end=2),
    ]
    after_both = check_polling(synthetic([*signals, rec(2, 2, "Poll", False, start=6, end=7)]))
    assert [(v.kind, v.call_ids, v.seqs) for v in after_both] == [
        (POLL_FALSE_AFTER_SIGNAL, (2, 0), (6, 5))]
    between = check_polling(synthetic([*signals, rec(2, 2, "Poll", False, start=3, end=4)]))
    assert [(v.kind, v.call_ids, v.seqs) for v in between] == [
        (POLL_FALSE_AFTER_SIGNAL, (2, 1), (3, 2))]
    assert "signal by 3 completed first" in between[0].message


def test_violation_serialization():
    history = synthetic([rec(0, 2, "Poll", True, start=4, end=4)])
    blob = json.dumps([v.to_dict() for v in check_polling(history)])
    decoded = json.loads(blob)
    assert decoded[0]["kind"] == POLL_TRUE_NO_SIGNAL
    assert decoded[0]["call_ids"] == [0]


def test_clean_runs_produce_no_violations():
    for name in ("cc_flag", "dsm_registration", "dsm_queue"):
        algo = make_algorithm(name, 5)
        roles = {w: poll_until_true() for w in range(2, 6)}
        roles[1] = signal_once()
        for seed in range(20):
            history, _ = run(algo, roles, SeededRandom(seed))
            assert check_polling(history) == []


def test_mutant_caught_by_exhaustive_check():
    algo = make_algorithm("mutant_single_waiter", 3)
    roles = {2: poll_at_most(2), 1: signal_once()}
    bad = 0
    for history in enumerate_histories(algo, roles, depth=25):
        bad += len(real_violations(check_polling(history)))
    assert bad > 0


# -- blocking -----------------------------------------------------------------


def test_wait_after_signal_ok():
    history = synthetic([
        rec(0, 1, "Signal", None, start=0, end=0),
        rec(1, 2, "Wait", True, start=1, end=2),
    ])
    assert check_blocking(history) == []


def test_wait_return_without_any_signal_flagged():
    history = synthetic([rec(0, 2, "Wait", True, start=0, end=1)])
    assert [v.kind for v in check_blocking(history)] == [WAIT_BEFORE_SIGNAL]


def test_wait_during_open_signal_allowed():
    # Only a begun Signal is needed, not a completed one.
    history = synthetic([
        rec(0, 1, "Signal", None, start=0, end=None),
        rec(1, 2, "Wait", True, start=1, end=2),
    ])
    assert check_blocking(history) == []


def test_open_wait_is_fine():
    history = synthetic([rec(0, 2, "Wait", None, start=0, end=None)])
    assert check_blocking(history) == []


# -- amortized budgets ----------------------------------------------------------


def test_amortized_empty_history_passes():
    result = check_amortized(synthetic([]), c=3, model=Model.DSM)
    assert result.passed and result.total == 0 and result.k == 0


def test_amortized_cc_flag_passes_at_three():
    algo = make_algorithm("cc_flag", 8)
    roles = {w: poll_until_true() for w in range(2, 9)}
    roles[1] = signal_once()
    for seed in range(10):
        history, _ = run(algo, roles, SeededRandom(seed))
        assert check_amortized(history, c=3, model=Model.CC).passed


def test_amortized_fails_on_erased_drill_history():
    algo = make_algorithm("dsm_fixed_waiters", 13, waiters=range(2, 14))
    report = adversary_separation(algo, erase_on_discovery=True)
    result = check_amortized(report.history, c=3, model=Model.DSM)
    assert not result.passed
    assert result.k == 1
    assert result.total >= 12
    assert result.violations and result.violations[0].kind == "AMORTIZED_BUDGET"


def test_amortized_totals_match_ledger():
    algo = make_algorithm("dsm_queue", 5)
    roles = {w: poll_until_true() for w in range(2, 6)}
    roles[1] = signal_once()
    history, ledger = run(algo, roles, SeededRandom(3))
    for model in (Model.DSM, Model.CC):
        assert check_amortized(history, c=50, model=model).total == ledger.totals()[f"rmr_{model.value}"]


def test_amortized_documented_bounds_hold_without_an_adversary():
    # Each algorithm's own amortized constant under its natural model.
    bounds = [
        ("cc_flag", Model.CC, 3),
        ("dsm_single_waiter", Model.DSM, 3),
        ("dsm_fixed_waiters", Model.DSM, 3),
        ("dsm_registration", Model.DSM, 3),
        ("dsm_queue", Model.DSM, 4),
    ]
    for name, model, c in bounds:
        n = 12
        algo = make_algorithm(name, n)
        waiters = [2] if name == "dsm_single_waiter" else list(range(2, n + 1))
        roles = {w: poll_until_true() for w in waiters}
        roles[1] = signal_once()
        for seed in range(25):
            history, _ = run(algo, roles, SeededRandom(seed))
            result = check_amortized(history, c=c, model=model)
            assert result.passed, (name, seed, result.total, result.k)


def test_statistical_safety_at_larger_n():
    # Exhaustive checking stops at n=3; at n=64 the contracts are sampled.
    n = 64
    for name in ("cc_flag", "dsm_fixed_waiters", "dsm_registration", "dsm_queue"):
        algo = make_algorithm(name, n)
        roles = {w: poll_until_true() for w in range(2, n + 1)}
        roles[1] = signal_once()
        for seed in range(12):
            history, _ = run(algo, roles, SeededRandom(seed))
            assert not history.incomplete
            assert check_polling(history) == []


def test_blocking_wrappers_enumerated_shallow():
    from rmrsim.harness import enumerate_histories as enum

    for name in ("cc_flag+blocking", "dsm_queue+blocking"):
        algo = make_algorithm(name, 3)
        roles = {2: wait_once(), 3: wait_once(), 1: signal_once()}
        count = 0
        for history in enum(algo, roles, depth=11):
            count += 1
            assert check_blocking(history) == []
            assert real_violations(check_polling(history)) == []
        assert count > 10
