"""Engine behavior: scripts, policies, determinism, budgets, and replay."""

import contextlib
import dataclasses
import random
import re
from types import SimpleNamespace

import pytest

from rmrsim.algorithms import REGISTRY, SignalingAlgorithm, make_algorithm
from rmrsim.errors import ConfigError, RoleError, SchedulingError, SimError
from rmrsim.harness import adversary_separation, enumerate_histories, erase, stability
from rmrsim.memory import Memory, OpKind, read, write
from rmrsim.runner import (
    POLL,
    SIGNAL,
    CallRecord,
    WAIT,
    ExplicitSchedule,
    RoundRobin,
    Runner,
    Script,
    SeededRandom,
    poll_at_most,
    poll_until_true,
    run,
    signal_once,
    wait_once,
    waiter_roles,
)

from rmrsim.costs import Model

from test_properties import (
    LEDGER_READS,
    TEST_ALGORITHMS,
    holder_pairs,
    read_as_recounted,
    recount,
)


def waiter_signaler_roles(waiters, signaler, script=None):
    roles = {w: (script or poll_until_true()) for w in waiters}
    roles[signaler] = signal_once()
    return roles


def test_smoke_round_robin_completes():
    algo = make_algorithm("cc_flag", 2)
    history, ledger = run(algo, waiter_signaler_roles([2], 1), RoundRobin())
    assert not history.incomplete
    assert history.finished == {1, 2}
    assert all(c.end_seq is not None for c in history.calls)


def test_identical_seed_identical_history():
    algo = make_algorithm("dsm_queue", 5)
    roles = waiter_signaler_roles([2, 3, 4, 5], 1)
    h1, _ = run(algo, roles, SeededRandom(7))
    h2, _ = run(algo, roles, SeededRandom(7))
    assert [e.signature() for e in h1.events] == [e.signature() for e in h2.events]
    assert h1.trace == h2.trace
    assert [(c.proc, c.kind, c.response) for c in h1.calls] == [
        (c.proc, c.kind, c.response) for c in h2.calls
    ]


@pytest.mark.parametrize("seed", [0, 1, 29, 2**40 + 3])
def test_seeded_draws_equal_randrange_draw_for_draw(seed):
    # Lengths 1..300 interleaved, with 1, the powers of two and 2^k +- 1
    # three times more, since a draw retries more often just above 2^k.
    special = [1] + [m for k in range(1, 9) for m in (2**k - 1, 2**k, 2**k + 1)]
    lengths = list(range(1, 301)) + special * 3
    random.Random(seed + 1).shuffle(lengths)
    policy, reference = SeededRandom(seed), random.Random(seed)
    for n in lengths:
        runnable = list(range(10, 10 + n))
        assert policy.choose(runnable) == runnable[reference.randrange(n)]


def test_every_policy_answers_none_to_an_empty_list():
    # None is "stop" in choose's contract.  SeededRandom draws nothing for
    # it, where its rejection loop would never find r < 0, so the draws
    # after it are those of a fresh policy.
    for policy in (RoundRobin(), SeededRandom(3), ExplicitSchedule([1, 2])):
        assert policy.choose([]) is None
    policy, fresh = SeededRandom(3), SeededRandom(3)
    policy.choose([])
    assert [policy.choose([4, 5, 6]) for _ in range(20)] == [
        fresh.choose([4, 5, 6]) for _ in range(20)]


def test_different_seeds_usually_differ():
    algo = make_algorithm("dsm_queue", 5)
    roles = waiter_signaler_roles([2, 3, 4, 5], 1)
    traces = {run(algo, roles, SeededRandom(s))[0].trace for s in range(8)}
    assert len(traces) > 1


def test_busy_wait_exhausts_budget_incomplete():
    # Terminating fixed-waiters Signal spins while a waiter never shows up.
    algo = make_algorithm("dsm_fixed_waiters_term", 3, waiters=(2, 3))
    roles = {1: signal_once(), 2: poll_until_true(), 3: poll_until_true()}
    history, _ = run(algo, roles, ExplicitSchedule([1] * 10_000), budget=10_000)
    assert history.incomplete
    sig = next(c for c in history.calls if c.kind == "Signal")
    assert sig.end_seq is None


def test_explicit_schedule_skips_dead_and_stops():
    algo = make_algorithm("cc_flag", 3)
    roles = waiter_signaler_roles([2, 3], 1)
    history, _ = run(algo, roles, ExplicitSchedule([1, 1, 2, 3, 2, 3]))
    # Signaler has a single step; the second entry is skipped, not an error.
    assert [e.proc for e in history.events] == [1, 2, 3]


def test_poll_script_stops_on_true():
    algo = make_algorithm("cc_flag", 2)
    history, _ = run(algo, waiter_signaler_roles([2], 1), ExplicitSchedule([2, 2, 1, 2, 2]))
    polls = [c for c in history.calls if c.kind == "Poll"]
    assert [bool(c.response) for c in polls] == [False, False, True]
    assert 2 in history.finished


def test_poll_at_most_gives_up():
    algo = make_algorithm("cc_flag", 2)
    roles = {2: poll_at_most(2)}
    history, _ = run(algo, roles, RoundRobin())
    assert len(history.calls) == 2
    assert all(c.response is False for c in history.calls)
    assert history.finished == {2}


def test_signal_at_most_once_per_process():
    algo = make_algorithm("cc_flag", 2)
    runner = Runner(algo, {})
    runner.force_next_call(1, "Signal")
    with pytest.raises(RoleError):
        runner.force_next_call(1, "Signal")


@pytest.mark.parametrize("undo", ["probe", "checkpoint"])
def test_a_rolled_back_signal_may_be_made_again(undo):
    runner = Runner(make_algorithm("cc_flag", 2), {2: poll_until_true()})
    runner.run_call(2)  # 2 has stepped, so only its further calls are probed
    for _ in range(2):
        if undo == "probe":
            with runner.probe([1]):
                runner.force_next_call(1, "Signal")
                runner.run_call(1)
        else:
            runner.checkpoint()
            runner.force_next_call(1, "Signal")
            runner.run_call(1)
            runner.rollback(close=True)
        assert runner.participants() == {2} and runner.terminated == frozenset()
    runner.force_next_call(1, "Signal")
    assert runner.run_call(1).end_seq is not None
    assert runner.run_call(2).response is True


@pytest.mark.parametrize("name", sorted(REGISTRY) + [n + "+blocking" for n in sorted(REGISTRY)])
def test_a_poll_or_wait_outside_the_waiters_is_refused_changing_nothing(name):
    # Only the protocol's waiters may call Poll or Wait: any other process's
    # role is refused as the run is built, and its call as it is queued,
    # before its queue, the calls, the trace or the runnable list change.
    # A Wait the protocol lacks is refused as an outsider's first.
    algo = make_algorithm(name, 4, waiters=[2])
    for pid in (1, 3, 4):
        for kind in (POLL, WAIT):
            refused = f"process {pid} is not a waiter and may not call {kind}$"
            with pytest.raises(RoleError, match=refused):
                Runner(algo, {2: poll_at_most(1), pid: Script(kind, 1)})
            runner = Runner(algo, {2: poll_at_most(1)})
            runner.run_call(2)
            state = runner.ctxs[pid]
            before = (runner.runnable(), list(runner.calls), list(runner.trace), state.forced)
            with pytest.raises(RoleError, match=refused):
                runner.force_next_call(pid, kind)
            after = (runner.runnable(), list(runner.calls), list(runner.trace), state.forced)
            assert after == before


@pytest.mark.parametrize("name, roles, error, message", [
    ("dsm_fixed_waiters", {3: poll_until_true(), 1: signal_once()}, RoleError,
     "dsm_fixed_waiters: process 3 is not a waiter and may not call Poll"),
    ("cc_flag", {2: wait_once()}, ConfigError,
     "cc_flag has no Wait procedure; use cc_flag+blocking"),
    ("dsm_registration", {3: signal_once()}, RoleError,
     "dsm_registration: only process 1 may signal"),
    ("cc_flag", {1: Script(SIGNAL, 2)}, RoleError, "process 1 may call Signal at most once"),
    ("cc_flag", {1: Script(SIGNAL)}, RoleError, "process 1 may call Signal at most once"),
], ids=["outsider-poll", "wait-without-blocking", "other-signaler", "two-signals",
        "unbounded-signal"])
def test_a_forbidden_role_is_refused_as_the_run_is_built(name, roles, error, message):
    # Before any step, and so before any history of an enumeration.
    algo = make_algorithm(name, 3, waiters=[2])
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        Runner(algo, roles)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        next(enumerate_histories(algo, roles, 8))


@pytest.mark.parametrize("under", ["no checkpoint", "probe"])
@pytest.mark.parametrize("pid, kind, error, message", [
    (1, SIGNAL, RoleError, "process 1 may call Signal at most once"),
    (2, SIGNAL, RoleError, "process 2 may call Signal at most once"),
    (3, SIGNAL, RoleError, "process 3 may call Signal at most once"),
    (4, POLL, RoleError, "cc_flag: process 4 is not a waiter and may not call Poll"),
    (2, WAIT, ConfigError, "cc_flag has no Wait procedure; use cc_flag+blocking"),
], ids=["scripted-signal", "queued-signal", "made-signal", "outsider-poll",
        "wait-without-blocking"])
def test_force_next_call_refuses_a_forbidden_call_changing_nothing(under, pid, kind, error,
                                                                   message):
    # Refused before the trace, any queue, the calls, the runnable list or
    # a probe's saved states change, and so refused alike when asked again.
    algo = make_algorithm("cc_flag", 4, waiters=[2, 3])
    runner = Runner(algo, {1: signal_once(), 2: poll_at_most(3), 3: poll_at_most(3)})
    # 1 has a Signal scripted, 2 one queued, and 3 has made one and polls on.
    runner.run_call(2)
    runner.force_next_call(2, SIGNAL)
    runner.force_next_call(3, SIGNAL)
    runner.run_call(3)

    def engine():
        return (list(runner.trace), {p: s.forced for p, s in runner.ctxs.items()},
                list(runner.calls), runner.runnable(),
                None if runner._saved is None else dict(runner._saved))

    with contextlib.ExitStack() as stack:
        if under == "probe":
            stack.enter_context(runner.probe([1, 2, 3, 4]))
        before = engine()
        for _ in range(2):
            with pytest.raises(error, match=f"^{re.escape(message)}$"):
                runner.force_next_call(pid, kind)
            assert engine() == before


def test_force_next_call_refuses_to_queue_behind_a_call_begun_by_peek():
    # The trace records no peek, so a replay would begin a Poll queued
    # behind the peeked one first.  Refused, changing nothing; once the
    # peeked call has stepped, the run and its fork agree.
    runner = Runner(make_algorithm("cc_flag", 2), {2: poll_at_most(2)})
    runner.peek(2)

    def engine():
        state = runner.ctxs[2]
        return list(runner.trace), list(runner.calls), state.calls_made, state.forced

    before = engine()
    with pytest.raises(SimError, match="^process 2's Poll has begun but not stepped; "
                                       "no call may be queued behind it$"):
        runner.force_next_call(2, POLL)
    assert engine() == before
    runner.step(2)
    runner.force_next_call(2, POLL)
    fork = runner.fork()
    assert ((fork.ctxs[2].calls_made, fork.ctxs[2].forced)
            == (runner.ctxs[2].calls_made, runner.ctxs[2].forced) == (1, (POLL,)))


def test_step_on_terminated_process_rejected():
    algo = make_algorithm("cc_flag", 2)
    runner = Runner(algo, {1: signal_once()})
    runner.step(1)
    with pytest.raises(SchedulingError):
        runner.step(1)


@pytest.mark.parametrize("entry", [
    lambda runner, pid: runner.step(pid),
    lambda runner, pid: runner.force_next_call(pid, POLL),
    lambda runner, pid: runner.run_call(pid),
    lambda runner, pid: runner.peek(pid),
    lambda runner, pid: runner.observers(pid),
    lambda runner, pid: runner.open_call(pid),
    lambda runner, pid: runner.probe([pid]).__enter__(),
], ids=["step", "force_next_call", "run_call", "peek", "observers", "open_call", "probe"])
@pytest.mark.parametrize("pid", [0, 3, -1])
def test_a_process_outside_the_run_is_refused_by_name(entry, pid):
    # A negative id would index another process's count from the end, and
    # the probe must refuse before it opens its checkpoint.
    runner = Runner(make_algorithm("cc_flag", 2), waiter_signaler_roles([2], 1))
    runner.step(2)
    runner.force_next_call(2, POLL)
    before = list(runner.trace)
    with pytest.raises(SchedulingError, match=rf"no process {pid}: process ids are 1\.\.2"):
        entry(runner, pid)
    assert runner.trace == before
    assert not runner._checkpoints and runner._probed is None


@pytest.mark.parametrize("entry, ended", [
    (lambda runner, pid: runner.peek(pid), {}),
    (lambda runner, pid: runner.step(pid), {"response": False, "start_seq": 1, "end_seq": 1}),
    (lambda runner, pid: runner.run_call(pid),
     {"response": False, "start_seq": 1, "end_seq": 1}),
], ids=["peek", "step", "run_call"])
def test_a_begun_call_has_the_record_its_class_builds(entry, ended):
    # The engine stores a begun call's slots one by one instead of calling
    # CallRecord: every slot must be stored (astuple reads them all, and an
    # unset slot raises), and the record must equal the class-built one.
    runner = Runner(make_algorithm("cc_flag", 3), waiter_signaler_roles([2, 3], 1))
    runner.step(2)
    entry(runner, 3)
    rec = runner.calls[1]
    assert type(rec) is CallRecord
    assert len(dataclasses.astuple(rec)) == len(dataclasses.fields(CallRecord)) == 6
    built = CallRecord(1, 3, POLL, **ended)
    assert rec == built
    assert repr(rec) == repr(built)
    assert rec.open is (not ended)


@pytest.mark.parametrize("name", sorted(REGISTRY) + sorted(TEST_ALGORITHMS))
def test_declared_primitives_are_checked_in_kind_order(name):
    # In OpKind's order, READ first, whatever the hash seed: a copy of the
    # declared frozenset would follow the kinds' name hashes.
    algorithm = TEST_ALGORITHMS[name](3) if name in TEST_ALGORITHMS else make_algorithm(name, 3)
    primitives = Runner(algorithm, {})._primitives
    assert list(primitives) == [kind for kind in OpKind if kind in algorithm.primitives]
    assert set(primitives) == algorithm.primitives


def test_wait_script_on_polling_algorithm_needs_wrapper():
    from rmrsim.errors import ConfigError

    algo = make_algorithm("dsm_queue", 2)
    with pytest.raises(ConfigError):
        Runner(algo, {2: wait_once()})


def test_replay_rebuilds_run_exactly():
    algo = make_algorithm("dsm_registration", 4)
    roles = waiter_signaler_roles([2, 3, 4], 1)
    runner = Runner(algo, roles)
    runner.drive(SeededRandom(3), 10_000)
    twin = Runner.replay(algo, roles, list(runner.trace))
    assert [e.signature() for e in twin.events] == [e.signature() for e in runner.events]
    assert twin.mem.words() == runner.mem.words()
    assert twin.terminated == runner.terminated


def test_memory_image_determinism_on_prefix():
    algo = make_algorithm("dsm_queue", 4)
    roles = waiter_signaler_roles([2, 3, 4], 1)
    runner = Runner(algo, roles)
    runner.drive(SeededRandom(9), 10_000)
    prefix = list(runner.trace)[: len(runner.trace) // 2]
    partial = Runner.replay(algo, roles, prefix)
    again = Runner.replay(algo, roles, prefix)
    assert partial.mem.words() == again.mem.words()


def test_fork_is_independent():
    algo = make_algorithm("cc_flag", 3)
    roles = waiter_signaler_roles([2, 3], 1)
    runner = Runner(algo, roles)
    runner.step(2)
    fork = runner.fork()
    fork.step(1)
    assert len(runner.events) == 1
    assert len(fork.events) == 2


# -- probes -------------------------------------------------------------------


def queue_after_signal():
    """dsm_queue: waiter 2 enqueued and notified, waiter 3 (one Poll at
    most) not yet polled, signaler 1 done."""
    algo = make_algorithm("dsm_queue", 3)
    runner = Runner(algo, {1: signal_once(), 2: poll_until_true(), 3: poll_at_most(1)})
    runner.run_call(2)
    runner.run_call(1)
    return runner


def observable(runner):
    """What a run shows, its ledger as folded at this read included."""
    ledger = runner.ledger
    return (
        [e.signature() for e in runner.events],
        [(c.call_id, c.proc, c.kind, c.response, c.start_seq, c.end_seq) for c in runner.calls],
        list(runner.trace),
        runner.mem.words(),
        [ledger.per_process(p) for p in range(1, runner.n + 1)],
        holder_pairs(ledger.cache),
        runner.participants(),
        runner.runnable(),
        runner.terminated,
        {p: dict(ctx.state) for p, ctx in runner.ctxs.items()},
    )


def test_probe_runs_in_place_and_rolls_back():
    runner = queue_after_signal()
    before = observable(runner)
    trace = list(runner.trace)
    with runner.probe([2, 3]) as probe:
        assert probe is runner
        runner.force_next_call(2, POLL)
        assert runner.run_call(2).response  # notified: true, and 2 terminates
        runner.run_call(3)  # its one scripted Poll: enqueues, writes a slot
        assert {2, 3} <= runner.terminated
        assert runner.participants() == {1, 2, 3}
        assert runner.ctxs[3].state == {"enqueued": True}
    assert observable(runner) == before
    # Rolled back means indistinguishable from a run that was never probed.
    twin = Runner.replay(runner.algorithm, runner.roles, trace)
    runner.drive(RoundRobin())
    twin.drive(RoundRobin())
    assert [e.signature() for e in runner.events] == [e.signature() for e in twin.events]
    assert runner.ledger.totals() == twin.ledger.totals()
    assert runner.terminated == twin.terminated == {1, 2, 3}


def test_probe_rolls_back_on_exception():
    runner = queue_after_signal()
    before = observable(runner)
    trace = list(runner.trace)
    with pytest.raises(RuntimeError):
        with runner.probe([3]):
            runner.step(3)
            runner.step(3)
            runner.force_next_call(3, POLL)  # queued, never started
            raise RuntimeError("abandon the probe mid-call")
    assert observable(runner) == before
    assert runner.open_call(3) is None
    twin = Runner.replay(runner.algorithm, runner.roles, trace)
    runner.drive(RoundRobin())
    twin.drive(RoundRobin())
    assert [(c.proc, c.response) for c in runner.calls] == [(c.proc, c.response) for c in twin.calls]
    assert [c.proc for c in runner.calls] == [2, 1, 2, 3]


def test_probe_drops_queued_calls():
    # Process 3 has no role: only the forced call made it runnable.
    runner = Runner(make_algorithm("dsm_queue", 3), {2: poll_at_most(1)})
    with runner.probe([2, 3]):
        runner.force_next_call(2, POLL)
        runner.force_next_call(3, POLL)
        assert runner.runnable() == [2, 3]
    assert runner.runnable() == [2]
    runner.drive(RoundRobin())
    assert [(c.proc, c.response) for c in runner.calls] == [(2, False)]


def test_probe_refusals():
    runner = queue_after_signal()
    runner.step(3)  # waiter 3 is now mid-call
    with pytest.raises(SimError, match="mid-call"):
        with runner.probe([3]):
            pass
    with runner.probe([2]):
        with pytest.raises(SchedulingError):
            runner.step(3)
        with pytest.raises(SchedulingError):
            runner.force_next_call(3, POLL)
        with pytest.raises(SimError, match="already open"):
            with runner.probe([2]):
                pass
    runner.run_call(3)  # the open call survived the probe untouched
    fresh = Runner(make_algorithm("dsm_queue", 3), {2: poll_at_most(1), 3: poll_at_most(1)})
    with fresh.probe([2]):
        with pytest.raises(SchedulingError):
            fresh.peek(3)  # would start 3's first call
    assert fresh.calls == []
    # The ledger after a probe counts none of the probe's steps.
    plain = Runner(make_algorithm("dsm_queue", 3), {2: poll_at_most(1)})
    with plain.probe([2]):
        plain.run_call(2)
    assert plain.calls == [] and plain.participants() == set()
    assert plain.ledger.totals()["steps"] == 0


# -- checkpoints --------------------------------------------------------------


def test_rollback_rebuilds_a_call_that_changed_its_state_before_yielding():
    # dsm_queue's first Poll sets "enqueued" before its first request, so
    # the rebuilt body must start from the state the call found, not the
    # state the rolled-back steps left.
    roles = {2: poll_at_most(2), 3: poll_at_most(1)}
    runner = Runner(make_algorithm("dsm_queue", 3), roles)
    runner.checkpoint()
    runner.step(2)  # FAI on the tail; 2 is mid-call
    before = observable(runner)
    runner.checkpoint()
    runner.step(2)
    runner.step(3)
    runner.step(2)  # 2's first Poll returns
    runner.step(2)  # and its second begins
    runner.rollback()
    assert observable(runner) == before
    assert runner.ctxs[2].state == {"enqueued": True}
    runner.drive(RoundRobin())
    twin = Runner(make_algorithm("dsm_queue", 3), roles)
    twin.step(2)
    twin.drive(RoundRobin())
    assert observable(runner) == observable(twin)
    runner.rollback(close=True)
    runner.rollback(close=True)
    assert observable(runner) == observable(Runner(make_algorithm("dsm_queue", 3), roles))


def test_checkpoints_nest_and_close():
    runner = queue_after_signal()
    with pytest.raises(SimError, match="no checkpoint"):
        runner.rollback()
    outer = observable(runner)
    runner.checkpoint()
    runner.step(3)
    inner = observable(runner)
    runner.checkpoint()
    runner.step(3)
    runner.rollback()  # stays open
    assert observable(runner) == inner
    runner.step(3)
    runner.rollback(close=True)
    assert observable(runner) == inner
    runner.rollback(close=True)
    assert observable(runner) == outer
    with pytest.raises(SimError, match="no checkpoint"):
        runner.rollback()


def test_rollback_rebuilds_a_generator_an_inner_rollback_left_behind():
    # 2 is touched under the outer checkpoint without a step (a queued
    # call), then steps under the inner one.  Rolling back the inner one
    # rebuilds 2's generator, and the outer one must not bring back the
    # generator those steps advanced.
    def started():
        run = Runner(make_algorithm("dsm_queue", 3), {2: poll_at_most(1), 3: poll_at_most(1)})
        run.checkpoint()
        run.step(2)  # FAI on the tail; 2 is mid-call
        return run

    runner = started()
    before = observable(runner)
    runner.checkpoint()
    runner.force_next_call(2, POLL)
    runner.checkpoint()
    runner.step(2)
    runner.rollback(close=True)
    runner.rollback(close=True)
    assert observable(runner) == before
    twin = started()
    for run in (runner, twin):
        run.drive(RoundRobin())
    assert observable(runner) == observable(twin)
    for run in (runner, twin):
        run.rollback(close=True)
    assert observable(runner) == observable(twin)


def test_rollback_unbegins_a_call_begun_without_a_step():
    runner = Runner(make_algorithm("cc_flag", 3), {2: poll_at_most(1), 3: poll_at_most(1)})
    runner.checkpoint()
    runner.peek(2)  # 2's Poll has begun, with no step yet
    runner.checkpoint()
    runner.step(3)
    runner.step(2)
    runner.rollback()
    assert [(c.proc, c.start_seq, c.end_seq, c.response) for c in runner.calls] == [
        (2, None, None, None)
    ]
    runner.drive(RoundRobin())
    assert [(c.proc, c.start_seq) for c in runner.calls] == [(2, 0), (3, 1)]


class Spin(SignalingAlgorithm):
    """Signal reads the flag until Poll's 5 arrives, reads it once more and
    returns how many reads it spun; Poll writes it.  Each read issues the
    same request, so a rebuilt Signal is out of the loop, with the right
    count, only if it is sent each recorded response."""

    name = "spin"

    def setup(self, mem):
        return SimpleNamespace(flag=mem.alloc("flag", home=1))

    def signal(self, ctx):
        spun = 0
        while (yield read(ctx.locs.flag)) != 5:
            spun += 1
        yield read(ctx.locs.flag)
        return spun

    def poll(self, ctx):
        yield write(ctx.locs.flag, 5)
        return False


def test_rollback_rebuilds_a_call_across_spinning_and_exiting_reads():
    roles = {1: signal_once(), 2: poll_at_most(1)}
    runner = Runner(Spin(2), roles)
    runner.checkpoint()
    for pid in (1, 1, 2, 1):  # two reads of 0, the write, the read of 5
        runner.step(pid)
    before = observable(runner)
    runner.checkpoint()
    runner.step(1)  # the last read; Signal returns
    runner.rollback()
    assert observable(runner) == before
    runner.step(1)
    assert runner.calls[0].response == 2 and runner.calls[0].end_seq == 4
    assert [e.value_read for e in runner.events if e.proc == 1] == [0, 0, 5, 5]
    runner.rollback(close=True)
    runner.rollback(close=True)
    assert observable(runner) == observable(Runner(Spin(2), roles))


@pytest.mark.parametrize("read", LEDGER_READS)
def test_ledger_reads_under_a_checkpoint_see_the_run_as_it_stands(read):
    # Each read through run.ledger, under a checkpoint or a probe too,
    # equals a recount of the run's events as they stand; after a rollback
    # it equals the read taken before the checkpoint, and a ledger held
    # from before the first checkpoint keeps that read throughout.
    runner = Runner(make_algorithm("cc_flag", 3), {1: signal_once(), 2: poll_until_true(),
                                                   3: poll_at_most(2)})
    runner.run_call(2)

    def reads(ledger):
        return [read_as_recounted(ledger, read, pid, model, runner)[0]
                for pid in (1, 2, 3) for model in Model]

    def recounted():
        for pid in (1, 2, 3):
            for model in Model:
                got, expected = read_as_recounted(runner.ledger, read, pid, model, runner)
                assert got == expected

    held = runner.ledger
    before = reads(held)
    runner.checkpoint()
    recounted()
    runner.step(3)
    recounted()
    inner = reads(runner.ledger)
    runner.checkpoint()
    runner.step(1)
    recounted()
    runner.rollback(close=True)
    assert reads(runner.ledger) == inner
    runner.rollback(close=True)
    assert reads(runner.ledger) == before
    with runner.probe([2]):
        runner.force_next_call(2, POLL)
        runner.run_call(2)
        recounted()
    assert reads(runner.ledger) == before
    runner.drive(RoundRobin())
    recounted()
    assert reads(held) == before


def test_a_read_only_probe_round_journals_no_word(monkeypatch):
    # A read changes neither a word's value nor its last writer, so a
    # stability round whose polls only read journals nothing, and its
    # rollback still leaves every word as it was.  A write is journaled.
    algo = make_algorithm("dsm_queue", 5)
    runner = Runner(algo, {1: signal_once(), **dict.fromkeys(algo.waiters, poll_until_true())})
    for pid in algo.waiters:
        runner.run_call(pid)  # the first Poll enqueues; later ones spin on a local word
    saved = []
    save = Memory.save_word
    monkeypatch.setattr(Memory, "save_word", lambda mem, uid: saved.append(uid) or save(mem, uid))
    words, events = runner.mem.words(), len(runner.events)
    for model in Model:
        assert len(stability(runner, algo.waiters, model=model)) == len(algo.waiters)
    assert saved == []
    assert (runner.mem.words(), len(runner.events)) == (words, events)
    with runner.probe([1]):
        runner.run_call(1)
        assert saved
    assert runner.mem.words() == words


def test_rollback_cannot_rewind_a_call_begun_before_any_checkpoint():
    # So the call may not step under one: the step is refused before
    # anything is applied, and the run goes on as in a replay.
    runner = Runner(make_algorithm("dsm_queue", 3), {2: poll_at_most(1)})
    runner.step(2)
    runner.checkpoint()
    before = observable(runner)
    with pytest.raises(SimError, match="began before any checkpoint; it cannot step under one"):
        runner.step(2)
    assert observable(runner) == before
    runner.rollback(close=True)
    runner.run_call(2)
    twin = Runner.replay(runner.algorithm, runner.roles, [2])
    twin.run_call(2)
    assert observable(runner) == observable(twin)


def test_rollback_keeps_a_call_begun_before_any_checkpoint_that_only_queued():
    # A Poll queued under the checkpoint saves 2 without a step, so the
    # rollback keeps the generator of the call 2 had open, and 2 goes on.
    runner = Runner(make_algorithm("dsm_queue", 3), {2: poll_at_most(1), 3: poll_at_most(1)})
    runner.step(2)
    before = observable(runner)
    runner.checkpoint()
    runner.force_next_call(2, POLL)
    runner.step(3)
    runner.rollback(close=True)
    assert observable(runner) == before
    runner.drive(RoundRobin())
    twin = Runner.replay(runner.algorithm, runner.roles, [2])
    twin.drive(RoundRobin())
    assert observable(runner) == observable(twin)


def test_history_sets():
    algo = make_algorithm("cc_flag", 4)
    roles = waiter_signaler_roles([2, 3], 1)  # process 4 stays idle
    runner = Runner(algo, roles)
    runner.drive(RoundRobin())
    history = runner.history()
    assert history.participants == {1, 2, 3} == runner.participants()
    assert history.finished <= history.participants
    assert history.participants - history.finished == set()


def test_history_builds_its_participants_once():
    # On a run's history, on enumerated histories and on the certified erase
    # drill's: the set is the processes of the begun calls, and a second
    # read returns the set the first built.
    runner = Runner(make_algorithm("dsm_queue", 4), waiter_signaler_roles([2, 3, 4], 1))
    runner.drive(SeededRandom(3))
    drill = adversary_separation(make_algorithm("dsm_fixed_waiters", 5), erase_on_discovery=True)
    assert drill.erased == 4 and drill.history.participants == {drill.signaler}
    enumerated = enumerate_histories(make_algorithm("dsm_queue", 3),
                                     waiter_signaler_roles([2, 3], 1, poll_at_most(1)), 12)
    for history in [runner.history(), drill.history, *enumerated]:
        participants = history.participants
        assert participants == frozenset([c.proc for c in history.calls
                                          if c.start_seq is not None])
        assert history.participants is participants


def test_history_snapshot_stays_put():
    # A snapshot copies every call record: closing a call later, on the
    # live run, does not reach back into it.
    runner = Runner(make_algorithm("dsm_queue", 3), waiter_signaler_roles([2], 1))
    runner.step(2)  # 2's first Poll enqueues in several steps
    snapshot = runner.history()
    before = [(c.call_id, c.proc, c.kind, c.response, c.start_seq, c.end_seq)
              for c in snapshot.calls]
    assert [(c.proc, c.response, c.end_seq) for c in snapshot.calls] == [(2, None, None)]
    runner.drive(RoundRobin())
    assert all(not c.open for c in runner.calls)
    assert any(c.response for c in runner.calls)
    assert [(c.call_id, c.proc, c.kind, c.response, c.start_seq, c.end_seq)
            for c in snapshot.calls] == before
    assert snapshot.calls[0].open


@pytest.mark.parametrize("erased", [True, False])
def test_is_active_agrees_with_active(erased):
    # Also on an erased run, whose ledger is refused.
    algo = make_algorithm("cc_flag", 4)
    roles = {2: poll_until_true(), 3: poll_at_most(1), 4: poll_until_true()}
    runner = Runner(algo, roles)
    for pid in (2, 3):
        runner.run_call(pid)  # 2 stays active; 3 terminates after its one poll
    if erased:
        runner.run_call(4)
        runner.erase(4)  # 4 is as if it never ran; 1 never runs
    assert runner.participants() - runner.terminated == {2}
    assert [p for p in range(1, 5) if runner.is_active(p)] == [2]


def test_seq_values_dense():
    algo = make_algorithm("dsm_queue", 4)
    history, _ = run(algo, waiter_signaler_roles([2, 3, 4], 1), SeededRandom(1))
    assert [e.seq for e in history.events] == list(range(len(history.events)))


def test_call_intervals_never_overlap_per_process():
    algo = make_algorithm("dsm_registration", 4)
    history, _ = run(algo, waiter_signaler_roles([2, 3, 4], 1), SeededRandom(2))
    for proc in history.participants:
        calls = [c for c in history.calls if c.proc == proc and c.start_seq is not None]
        for earlier, later in zip(calls, calls[1:]):
            assert earlier.end_seq is not None
            assert earlier.end_seq < later.start_seq


def test_declared_primitives_enforced():
    from rmrsim.errors import ConfigError
    from rmrsim.memory import fai

    algo = make_algorithm("cc_flag", 2)

    def bad_poll(ctx):
        return bool((yield fai(ctx.locs.flag)))

    algo.poll = bad_poll
    runner = Runner(algo, {2: poll_until_true()})
    with pytest.raises(ConfigError):
        runner.step(2)


def test_erase_refusals():
    algo = make_algorithm("cc_flag", 4)
    roles = {2: poll_until_true(), 3: poll_at_most(1), 4: poll_until_true()}
    runner = Runner(algo, roles)
    for pid in (2, 3):
        runner.run_call(pid)  # 2 stays active; 3 terminates after its one poll
    before = [e.signature() for e in runner.events], list(runner.trace)
    with runner.probe([2]):
        with pytest.raises(SimError, match="probe"):
            runner.erase(2)
    for pid in (3, 4, 1):  # terminated, never ran, no role
        with pytest.raises(SimError, match="not active"):
            runner.erase(pid)
    assert ([e.signature() for e in runner.events], list(runner.trace)) == before
    runner.erase(2)
    assert [e.proc for e in runner.events] == [3]
    # The participant set is the run's, so a run an earlier erasure left
    # erases too.
    again = Runner(algo, roles)
    for pid in (2, 4):
        again.run_call(pid)
    again.erase(4)
    again.erase(2)
    assert again.participants() == set() and again.events == []


def test_erased_forced_process_leaves_the_runnable_list():
    # 3 has no script: only its queued Wait made it runnable.
    runner = Runner(make_algorithm("cc_flag+blocking", 3), {2: poll_until_true()})
    runner.force_next_call(3, WAIT)
    runner.step(3)  # the flag is down, so the Wait spins on
    oracle = erase(runner, 3)
    runner.erase(3)
    assert runner.runnable() == oracle.runnable() == [2]


def test_erase_renumbers_a_call_begun_before_its_first_step():
    # peek begins 2's call before 3's, but 3 steps first; a replay without 2
    # numbers 3's call 0, and so must the erasure.
    runner = Runner(make_algorithm("cc_flag", 3), {2: poll_until_true(), 3: poll_until_true()})
    runner.peek(2)
    runner.step(3)
    runner.step(2)
    oracle = erase(runner, 2)
    runner.erase(2)
    # The live run keeps the survivors' numbering; its fork renumbers.
    assert [(c.call_id, c.proc, c.start_seq) for c in runner.calls] == [(1, 3, 0)]
    fork = runner.fork()
    assert fork.events == oracle.events
    assert [(c.call_id, c.proc, c.start_seq) for c in fork.calls] == [(0, 3, 0)]


def test_erase_cuts_below_a_watermark_and_keeps_what_the_process_adds_after():
    # 2's entries below its watermark are erased; the ones it adds running
    # again stay, as in the fork, under the live run's seqs and call ids.
    # Each Poll of 2 and 3 takes 3 events, so the watermarks differ.
    runner = Runner(make_algorithm("dsm_queue", 3), {2: poll_until_true(), 3: poll_until_true()})
    runner.run_call(3)
    runner.run_call(2)
    runner.erase(2)
    runner.run_call(2)
    fork = runner.fork()
    assert [e.signature() for e in runner.events] == [e.signature() for e in fork.events]
    assert [e.seq for e in runner.events] == [0, 1, 2, 6, 7, 8]
    assert ([(c.proc, c.kind, c.response) for c in runner.calls]
            == [(c.proc, c.kind, c.response) for c in fork.calls]
            == [(3, POLL, False), (2, POLL, False)])
    assert [c.call_id for c in runner.calls] == [0, 2]
    assert runner.trace == fork.trace == [3, 3, 3, 2, 2, 2]
    runner.erase(2)
    assert [e.proc for e in runner.events] == [3, 3, 3]
    assert [c.proc for c in runner.calls] == [3]
    assert runner.trace == [3, 3, 3]


def test_erased_run_refuses_whole_run_reads():
    # Seqs and call ids keep their gaps, so whatever reads the run as a
    # whole is refused and names the fork; a probe is refused by its
    # checkpoint.
    runner = Runner(make_algorithm("cc_flag", 3), {2: poll_until_true(), 3: poll_until_true()})
    runner.run_call(2)
    runner.run_call(3)
    runner.erase(2)
    for whole in (runner.history, runner.configuration, runner.checkpoint):
        with pytest.raises(SimError, match=r"after an erasure; fork\(\)"):
            whole()
    with pytest.raises(SimError, match="fork"):
        with runner.probe([3]):
            pass
    assert runner.fork().history().participants == {3}


def test_erased_run_keeps_no_stale_ledger():
    # The erased waiter's poll is charged nowhere: the live run refuses
    # its ledger, and the fork charges the one poll left.
    runner = Runner(make_algorithm("cc_flag", 3), {2: poll_until_true(), 3: poll_until_true()})
    runner.run_call(2)
    runner.run_call(3)
    runner.erase(2)
    with pytest.raises(SimError, match="the ledger refused after an erasure"):
        runner.ledger
    fork = runner.fork()
    assert runner.participants() == fork.participants() == {3}
    assert not runner.is_active(2)
    assert fork.ledger.totals()["steps"] == 1


def test_ledger_held_across_an_erasure_keeps_the_run_before_it():
    # A ledger read before the erasure is a snapshot of the run as it was:
    # neither the erasure nor the steps after it reach it.
    runner = Runner(make_algorithm("cc_flag", 3), {2: poll_until_true(), 3: poll_until_true()})
    runner.run_call(2)
    runner.run_call(3)
    ledger = runner.ledger
    before = recount(runner.events, runner.n)
    runner.erase(2)
    runner.force_next_call(3, POLL)
    runner.run_call(3)
    assert [ledger.per_process(p) for p in (1, 2, 3)] == [before[p] for p in (1, 2, 3)]


@pytest.mark.parametrize("name, waiters, roles, signaler", [
    ("cc_flag", None, (2, 3, 4), 1),
    ("dsm_single_waiter", None, (2,), 1),
    ("mutant_single_waiter+blocking", None, (2,), 1),
    ("dsm_queue", (1, 3), (1, 3), 2),
    ("dsm_registration", (2, 4), (2, 4), 1),
    ("dsm_registration", None, (2, 3, 4), 1),
    ("dsm_fixed_waiters_term", (4, 2), (2, 4), 1),
])
def test_waiter_roles_default_signaler(name, waiters, roles, signaler):
    # The protocol's waiters each get the script; the designated signaler,
    # else the lowest process that does not wait, signals.
    script = poll_at_most(2)
    got, got_signaler = waiter_roles(make_algorithm(name, 4, waiters=waiters), script)
    assert got == dict.fromkeys(roles, script)
    assert got_signaler == signaler


@pytest.mark.parametrize("name, waiters, needle", [
    ("dsm_registration", (1, 2), "waiter id 1 is dsm_registration's designated signaler"),
    ("cc_flag", (1, 2, 3), "no process left to signal"),
])
def test_waiter_roles_refusals(name, waiters, needle):
    with pytest.raises(ConfigError, match=needle):
        waiter_roles(make_algorithm(name, 3, waiters=waiters), poll_until_true())
