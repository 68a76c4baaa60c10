"""Per-protocol behavior: exact RMR traces, preconditions, and the registry."""

import pytest

from rmrsim.algorithms import REGISTRY, make_algorithm
from rmrsim.checker import check_blocking, check_polling
from rmrsim.costs import Model
from rmrsim.errors import CapacityError, ConfigError, RoleError
from rmrsim.memory import Memory, OpKind
from rmrsim.runner import (
    WAIT,
    ExplicitSchedule,
    RoundRobin,
    Runner,
    SeededRandom,
    poll_at_most,
    poll_until_true,
    run,
    signal_once,
    wait_once,
)

from test_properties import RMR, classify_dsm


def dsm_rmrs_of_call(history, call):
    """The call's DSM RMRs: its process's events from its start seq to its
    end seq, or to the last event while it is open."""
    last = history.events[-1].seq if call.end_seq is None else call.end_seq
    return sum(
        1 for e in history.events
        if e.proc == call.proc and call.start_seq <= e.seq <= last and classify_dsm(e) is RMR
    )


def roles_with_signaler(waiters, signaler, waiter_script=None):
    roles = {w: (waiter_script or poll_until_true()) for w in waiters}
    roles[signaler] = signal_once()
    return roles


# -- registry ---------------------------------------------------------------


def test_registry_names():
    expected = {
        "cc_flag", "dsm_single_waiter", "dsm_fixed_waiters",
        "dsm_fixed_waiters_term", "dsm_registration", "dsm_queue",
    }
    assert expected <= set(REGISTRY)


def test_registry_blocking_suffix():
    algo = make_algorithm("dsm_queue+blocking", 4)
    assert algo.name == "dsm_queue+blocking"


@pytest.mark.parametrize("name", sorted(REGISTRY) + [n + "+blocking" for n in sorted(REGISTRY)])
def test_every_protocol_owns_its_waiter_set(name):
    # The default is every process but 1, or process 2 alone for a
    # single-waiter protocol; a given set is kept, ascending, and one past
    # the protocol's cap is refused as the protocol is built.
    single = name.startswith(("dsm_single_waiter", "mutant_single_waiter"))
    assert make_algorithm(name, 5).waiters == ((2,) if single else (2, 3, 4, 5))
    if single:
        assert make_algorithm(name, 5, waiters=[5]).waiters == (5,)
        with pytest.raises(RoleError, match=r"supports a single waiter, got \[3, 5\]$"):
            make_algorithm(name, 5, waiters=[5, 3])
    else:
        assert make_algorithm(name, 5, waiters=[5, 3]).waiters == (3, 5)
    assert make_algorithm(name, 5).blocking == name.endswith("+blocking")


def test_registration_keeps_one_signaler():
    # Process 1 alone may signal, and every global word is in its module.
    algo = make_algorithm("dsm_registration", 4)
    assert algo.designated_signaler == algo.home == 1
    assert not hasattr(algo, "signaler")
    locs = algo.setup(Memory(4))
    assert {loc.home for loc in (locs.done, *locs.registered.values())} == {1}
    for pid in (2, 3):
        with pytest.raises(RoleError, match="only process 1 may signal"):
            Runner(algo, {pid: signal_once()}).step(pid)


def test_unknown_algorithm_rejected():
    with pytest.raises(ConfigError):
        make_algorithm("nope", 4)
    with pytest.raises(ConfigError):
        make_algorithm("cc_flag+turbo", 4)


def test_declared_primitive_sets():
    rw = frozenset({OpKind.READ, OpKind.WRITE})
    for name in ("cc_flag", "dsm_single_waiter", "dsm_fixed_waiters",
                 "dsm_fixed_waiters_term", "dsm_registration"):
        assert make_algorithm(name, 4).primitives == rw
    assert make_algorithm("dsm_queue", 4).primitives == rw | {OpKind.FAI}


# -- cc_flag ----------------------------------------------------------------


def test_cc_flag_poll_false_before_signal():
    algo = make_algorithm("cc_flag", 2)
    history, _ = run(algo, {2: poll_at_most(1)}, RoundRobin())
    assert history.calls[0].response is False


def test_cc_flag_poll_true_after_signal():
    algo = make_algorithm("cc_flag", 2)
    history, _ = run(algo, roles_with_signaler([2], 1), ExplicitSchedule([1, 2]))
    poll = next(c for c in history.calls if c.kind == "Poll")
    assert poll.response is True


def test_cc_flag_total_cc_rmrs_bounded():
    # k processes polling around one signal: at most 2k+1 CC RMRs in total.
    for seed in range(50):
        n = 6
        algo = make_algorithm("cc_flag", n)
        history, ledger = run(
            algo, roles_with_signaler(range(2, n + 1), 1), SeededRandom(seed)
        )
        k = len(history.participants)
        assert ledger.total_rmr_cc <= 2 * k + 1
        assert all(ledger.rmr(Model.CC, p) <= 2 for p in history.participants)


# -- dsm_single_waiter ------------------------------------------------------


def test_single_waiter_poll_costs():
    # Globals at process 1; waiter 2 pays 2 DSM RMRs on its first poll and
    # nothing afterwards.
    algo = make_algorithm("dsm_single_waiter", 3)
    runner = Runner(algo, {2: poll_until_true(), 1: signal_once()})
    first = runner.run_call(2)
    assert dsm_rmrs_of_call(runner.history(), first) == 2
    second = runner.run_call(2)
    third = runner.run_call(2)
    history = runner.history()
    assert dsm_rmrs_of_call(history, second) == 0
    assert dsm_rmrs_of_call(history, third) == 0


def test_single_waiter_signal_with_no_waiter_is_free():
    algo = make_algorithm("dsm_single_waiter", 3)
    runner = Runner(algo, {1: signal_once()})
    sig = runner.run_call(1)
    assert sig.end_seq is not None
    assert runner.ledger.rmr(Model.DSM, 1) == 0


def test_single_waiter_poll_true_after_signal_via_notify():
    algo = make_algorithm("dsm_single_waiter", 3)
    runner = Runner(algo, {2: poll_until_true(), 1: signal_once()})
    runner.run_call(2)          # waiter announces, reads false
    runner.run_call(1)          # signal: sets flag, notifies waiter
    poll = runner.run_call(2)   # reads its own notify word
    assert poll.response is True
    assert check_polling(runner.history()) == []


def test_single_waiter_second_waiter_rejected_dynamically():
    algo = make_algorithm("dsm_single_waiter", 3)
    runner = Runner(algo, {})
    runner.force_next_call(2, "Poll")
    runner.run_call(2)
    with pytest.raises(RoleError):
        runner.force_next_call(3, "Poll")


# -- dsm_fixed_waiters ------------------------------------------------------


def test_fixed_waiters_signal_pays_one_rmr_per_other_waiter():
    algo = make_algorithm("dsm_fixed_waiters", 6, waiters=(2, 3, 4, 5, 6))
    runner = Runner(algo, roles_with_signaler([2, 3, 4, 5, 6], 1))
    sig = runner.run_call(1)
    assert dsm_rmrs_of_call(runner.history(), sig) == 5


def test_fixed_waiters_signaler_inside_set_skips_itself():
    algo = make_algorithm("dsm_fixed_waiters", 4, waiters=(1, 2, 3))
    runner = Runner(algo, {1: signal_once()})
    runner.run_call(1)
    assert runner.ledger.rmr(Model.DSM, 1) == 2  # notify words of 2 and 3 only


def test_fixed_waiters_polling_is_free():
    algo = make_algorithm("dsm_fixed_waiters", 4, waiters=(2, 3))
    history, ledger = run(algo, roles_with_signaler([2, 3], 1), SeededRandom(4))
    assert ledger.rmr(Model.DSM, 2) == 0
    assert ledger.rmr(Model.DSM, 3) == 0


def test_fixed_waiters_outsider_poll_rejected():
    algo = make_algorithm("dsm_fixed_waiters", 4, waiters=(2, 3))
    with pytest.raises(RoleError):
        Runner(algo, {4: poll_until_true()})


def test_fixed_waiters_term_signal_blocks_until_everyone_arrives():
    algo = make_algorithm("dsm_fixed_waiters_term", 3, waiters=(2, 3))
    roles = {1: signal_once(), 2: poll_until_true(), 3: poll_until_true()}
    runner = Runner(algo, roles)
    runner.run_call(2)                   # waiter 2 arrives; 3 never does
    for _ in range(500):
        runner.step(1)
    assert runner.open_call(1) is not None
    runner.run_call(3)                   # now 3 arrives
    while runner.open_call(1) is not None:
        runner.step(1)
    assert runner.ledger.rmr(Model.DSM, 1) == 2


def test_fixed_waiters_term_same_signal_cost():
    algo = make_algorithm("dsm_fixed_waiters_term", 6, waiters=(2, 3, 4, 5, 6))
    runner = Runner(algo, roles_with_signaler([2, 3, 4, 5, 6], 1))
    for w in (2, 3, 4, 5, 6):
        runner.run_call(w)
    sig = runner.run_call(1)
    assert dsm_rmrs_of_call(runner.history(), sig) == 5


# -- dsm_registration -------------------------------------------------------


def test_registration_waiter_costs():
    algo = make_algorithm("dsm_registration", 4)
    runner = Runner(algo, roles_with_signaler([2, 3], 1))
    first = runner.run_call(2)
    assert dsm_rmrs_of_call(runner.history(), first) == 2
    later = runner.run_call(2)
    assert dsm_rmrs_of_call(runner.history(), later) == 0


def test_registration_signal_pays_one_rmr_per_registered_waiter():
    algo = make_algorithm("dsm_registration", 16)
    runner = Runner(algo, roles_with_signaler(range(2, 16), 1))
    for w in range(2, 16):
        runner.run_call(w)
    sig = runner.run_call(1)
    assert dsm_rmrs_of_call(runner.history(), sig) == 14


def test_registration_wrong_signaler_rejected():
    algo = make_algorithm("dsm_registration", 4)
    with pytest.raises(RoleError):
        Runner(algo, {2: signal_once()})


def test_registration_race_registering_during_signal():
    # The waiter registers after the done flag is set but before the scan
    # reaches its registration word: its first poll reads true, no
    # notification needed, and the polling contract holds.
    algo = make_algorithm("dsm_registration", 3)
    roles = {1: signal_once(), 2: poll_until_true()}
    runner = Runner(algo, roles)
    runner.step(1)               # write done flag
    runner.step(2)               # waiter registers
    runner.step(2)               # waiter reads done flag
    poll = runner.calls[-1]
    assert poll.kind == "Poll" and poll.response is True
    while runner.open_call(1) is not None:
        runner.step(1)           # scan sees the registration, notifies
    assert check_polling(runner.history()) == []


def test_registration_race_scan_misses_late_registration():
    algo = make_algorithm("dsm_registration", 3)
    roles = {1: signal_once(), 2: poll_until_true()}
    runner = Runner(algo, roles)
    runner.step(1)               # write done flag
    runner.step(1)               # scan reads registered[1] = 0
    runner.step(1)               # scan reads registered[2] = 0
    runner.step(2)               # waiter registers too late for the scan
    while runner.open_call(1) is not None:
        runner.step(1)
    poll = runner.run_call(2)    # first poll still reads done flag: true
    assert poll.response is True
    assert check_polling(runner.history()) == []


# -- dsm_queue --------------------------------------------------------------


def test_queue_waiter_first_poll_costs_three():
    algo = make_algorithm("dsm_queue", 4)
    runner = Runner(algo, roles_with_signaler([2, 3], 1))
    first = runner.run_call(2)
    assert dsm_rmrs_of_call(runner.history(), first) == 3
    later = runner.run_call(2)
    assert dsm_rmrs_of_call(runner.history(), later) == 0


def test_queue_signaler_pays_k_rmrs_for_k_waiters():
    algo = make_algorithm("dsm_queue", 8)
    runner = Runner(algo, roles_with_signaler(range(2, 8), 1))
    for w in range(2, 8):
        runner.run_call(w)
    sig = runner.run_call(1)
    # Globals live with the signaler: only the notify writes are remote.
    assert dsm_rmrs_of_call(runner.history(), sig) == 6


def test_queue_scan_skips_unfilled_slot():
    algo = make_algorithm("dsm_queue", 3)
    roles = {1: signal_once(), 2: poll_until_true()}
    runner = Runner(algo, roles)
    runner.step(2)               # FAI: slot 0 reserved, not yet written
    runner.step(1)               # signal: set done flag
    runner.step(1)               # read tail = 1
    runner.step(1)               # read slot 0 = empty, skip
    assert runner.open_call(1) is None
    runner.step(2)               # waiter writes its slot
    runner.step(2)               # waiter reads the done flag
    poll = next(c for c in runner.calls if c.proc == 2 and c.kind == "Poll")
    assert poll.response is True
    assert check_polling(runner.history()) == []
    sig = next(c for c in runner.calls if c.kind == "Signal")
    assert dsm_rmrs_of_call(runner.history(), sig) == 0


def test_queue_capacity_guard():
    algo = make_algorithm("dsm_queue", 2)
    runner = Runner(algo, {2: poll_until_true()})
    request = __import__("rmrsim.memory", fromlist=["fai"]).fai(runner.locs.tail)
    for seq in range(2):
        runner.mem.apply(1, *request, seq)
    with pytest.raises(CapacityError):
        runner.run_call(2)


def test_queue_any_process_may_signal():
    algo = make_algorithm("dsm_queue", 3)
    for signaler in (1, 2, 3):
        runner = Runner(algo, {signaler: signal_once()})
        sig = runner.run_call(signaler)
        assert sig.end_seq is not None


# -- blocking ---------------------------------------------------------------


def test_wait_returns_only_after_signal_begun():
    algo = make_algorithm("cc_flag+blocking", 3)
    roles = {2: wait_once(), 3: wait_once(), 1: signal_once()}
    for seed in range(30):
        history, _ = run(algo, roles, SeededRandom(seed))
        assert check_blocking(history) == []
        assert not history.incomplete


def test_wait_without_signal_never_returns():
    algo = make_algorithm("cc_flag+blocking", 2)
    history, _ = run(algo, {2: wait_once()}, RoundRobin(), budget=200)
    assert history.incomplete
    wait = history.calls[0]
    assert wait.kind == "Wait" and wait.end_seq is None
    assert len(history.events) == 200  # every spin iteration terminated


def test_wait_over_cc_flag_costs_at_most_two_cc_rmrs():
    algo = make_algorithm("cc_flag+blocking", 2)
    roles = {2: wait_once(), 1: signal_once()}
    history, ledger = run(
        algo, roles, ExplicitSchedule([2, 2, 2, 1, 2, 2])
    )
    assert next(c for c in history.calls if c.kind == "Wait").response is True
    assert ledger.rmr(Model.CC, 2) == 2


@pytest.mark.parametrize("name", sorted(REGISTRY))
def test_blocking_variant_is_the_base_protocol_with_wait(name):
    base = make_algorithm(name, 4)
    blocking = make_algorithm(name + "+blocking", 4)
    kept = ("n", "waiters", "designated_signaler", "primitives", "home")
    assert [getattr(blocking, a) for a in kept] == [getattr(base, a) for a in kept]
    assert (blocking.name, blocking.blocking) == (name + "+blocking", True)
    # The mark is on the instance built, never on its class.
    later = make_algorithm(name, 4)
    assert (later.name, later.blocking) == (name, False)
    waiter = base.waiters[0]
    with pytest.raises(ConfigError, match=r"\+blocking"):
        Runner(base, {waiter: wait_once()})
    with pytest.raises(ConfigError, match=r"\+blocking"):
        Runner(base, {}).force_next_call(waiter, WAIT)


def test_blocking_wrapper_wait_loops_inner_poll():
    algo = make_algorithm("dsm_queue+blocking", 3)
    roles = {2: wait_once(), 3: wait_once(), 1: signal_once()}
    history, ledger = run(algo, roles, SeededRandom(12))
    assert not history.incomplete
    assert check_blocking(history) == []
    waits = [c for c in history.calls if c.kind == "Wait"]
    assert all(c.response for c in waits)


def test_blocking_wrapper_preserves_preconditions():
    algo = make_algorithm("dsm_registration+blocking", 3)
    with pytest.raises(RoleError):
        Runner(algo, {2: signal_once()})
