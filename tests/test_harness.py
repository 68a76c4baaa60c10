"""Enumeration, stability, erasure, and the adversary drill."""

from types import SimpleNamespace

import pytest

from rmrsim import harness
from rmrsim.algorithms import REGISTRY, SignalingAlgorithm, make_algorithm
from rmrsim.costs import Model, RmrLedger
from rmrsim.errors import (
    ConfigError,
    DrillNotApplicable,
    EnumerationOverflow,
    ErasureRefused,
    ReplayDivergence,
    SimError,
)
from rmrsim.harness import (
    adversary_separation,
    enumerate_histories,
    erase,
    stability,
    validate_erasure,
)
from rmrsim.memory import Memory, read, write
from rmrsim.runner import (
    POLL,
    SIGNAL,
    Runner,
    SeededRandom,
    poll_at_most,
    poll_until_true,
    signal_once,
)


def raw_events(n, script):
    """Apply (proc, request) pairs directly to a fresh memory image."""
    mem = Memory(n)
    locs = {name: mem.alloc(name, home=home) for name, home in script.pop("locs")}
    events = []
    for i, (proc, fn, name, *args) in enumerate(script.pop("ops")):
        events.append(mem.apply(proc, *fn(locs[name], *args), i))
    return events


# -- enumeration ------------------------------------------------------------


def test_enumerate_two_processes_two_steps_each():
    # Two 2-step straight-line calls interleave in C(4,2) = 6 ways.
    algo = make_algorithm("dsm_registration", 3)
    roles = {2: poll_at_most(1), 3: poll_at_most(1)}
    histories = list(enumerate_histories(algo, roles, depth=12))
    assert len(histories) == 6
    assert all(not h.incomplete for h in histories)
    assert len({tuple(e.proc for e in h.events) for h in histories}) == 6


def test_enumerate_deterministic_order():
    algo = make_algorithm("cc_flag", 3)
    roles = {2: poll_at_most(2), 3: poll_at_most(1), 1: signal_once()}
    first = [h.trace for h in enumerate_histories(algo, roles, depth=10)]
    second = [h.trace for h in enumerate_histories(algo, roles, depth=10)]
    assert first == second
    assert len(first) == len(set(first))


def test_enumerate_depth_prunes():
    algo = make_algorithm("cc_flag", 2)
    roles = {2: poll_until_true()}  # polls false forever without a signal
    histories = list(enumerate_histories(algo, roles, depth=5))
    assert len(histories) == 1
    assert histories[0].incomplete
    assert len(histories[0].events) == 5


def test_enumeration_builds_one_runner_and_steps_each_dag_edge_once(monkeypatch):
    # The schedule tree has 37,742 edges, but only 1,094 distinct
    # (configuration, choice) pairs: each is stepped exactly once, every
    # choice of a configuration stepped from is taken, and the histories
    # below a configuration met again are walked, not stepped.
    inits = []
    stepped = []  # (configuration, pid) per step
    choices = {}  # configuration -> its runnable processes
    init, step = Runner.__init__, Runner.step

    def counted_init(self, *args, **kwargs):
        inits.append(self)
        init(self, *args, **kwargs)

    def counted_step(self, pid):
        key = len(self.events), len(self.calls), self.configuration()
        stepped.append((key, pid))
        choices[key] = self.runnable()
        return step(self, pid)

    monkeypatch.setattr(Runner, "__init__", counted_init)
    monkeypatch.setattr(Runner, "step", counted_step)
    algo = make_algorithm("dsm_queue", 3)
    roles = {2: poll_at_most(2), 3: poll_at_most(2), 1: signal_once()}
    prefixes = set()
    histories = 0
    for history in enumerate_histories(algo, roles, depth=25):
        histories += 1
        prefixes.update(history.trace[:k] for k in range(1, len(history.trace) + 1))
    assert (histories, len(prefixes)) == (10_298, 37_742)
    assert len(inits) == 1
    assert len(stepped) == len(set(stepped)) == 1_094
    assert set(stepped) == {(key, pid) for key, pids in choices.items() for pid in pids}


#: Poll bodies started so far, across every run: state outside ctx.state.
STARTED = []


def _read_a(locs):
    return read(locs.a)


class Fickle(SignalingAlgorithm):
    """Poll makes the request ``first`` twice the first time any Poll body
    runs; every later time it makes ``later`` as request number
    ``changes`` instead, so a rebuilt call asks for something else than the
    call it rebuilds.  Each request is built from the protocol's words; by
    default Poll reads ``a``, and later ``b``."""

    name = "fickle"

    def __init__(self, n: int, changes: int = 1, first=_read_a,
                 later=lambda locs: read(locs.b)):
        super().__init__(n)
        self.changes, self.first, self.later = changes, first, later

    def setup(self, mem):
        return SimpleNamespace(a=mem.alloc("a", home=1), b=mem.alloc("b", home=1))

    def poll(self, ctx):
        STARTED.append(ctx.pid)
        requests = [self.first(ctx.locs), self.first(ctx.locs)]
        if len(STARTED) > 1:
            requests[self.changes] = self.later(ctx.locs)
        yield requests[0]
        return bool((yield requests[1]))

    def signal(self, ctx):
        yield read(ctx.locs.a)


def test_enumeration_of_a_protocol_with_hidden_state_diverges():
    # Backtracking rebuilds a Poll, which then asks for another word than
    # it did.
    STARTED.clear()
    histories = enumerate_histories(Fickle(3), {2: poll_at_most(1), 3: poll_at_most(1)}, 4)
    assert next(histories).trace == (2, 2, 3, 3)
    with pytest.raises(ReplayDivergence, match="when rebuilt"):
        list(histories)


#: Bodies whose rebuilt call asks for something else, by name: Fickle's
#: first and later requests, then the later one and the first as the
#: divergence names them.  A read where the body wrote is refused by the
#: kind alone; a write where it read also by its value.
REBUILT = {
    "": (_read_a, lambda locs: read(locs.b), "read on word 1", "read on word 0"),
    "another-value": (lambda locs: write(locs.a, 7), lambda locs: write(locs.a, 5),
                      "write 5 on word 0", "write 7 on word 0"),
    "write-where-read": (_read_a, lambda locs: write(locs.a, 7),
                         "write 7 on word 0", "read on word 0"),
    "read-where-written": (lambda locs: write(locs.a, 7), _read_a,
                           "read on word 0", "write 7 on word 0"),
}


@pytest.mark.parametrize("changes, body", [
    pytest.param(changes, body, id="-".join(filter(None, [body, where, "request"])))
    for body in REBUILT for changes, where in [(0, "recorded"), (1, "pending")]])
def test_rebuilt_call_that_asks_for_something_else_diverges(changes, body):
    # Rolled back past two steps of 2's Poll, taken after one: the rebuilt
    # body's first request is checked against the recorded step, its
    # second against the pending one.
    first, later, issued, run_has = REBUILT[body]
    STARTED.clear()
    runner = Runner(Fickle(3, changes, first, later), {2: poll_at_most(1)})
    runner.checkpoint()
    runner.step(2)
    runner.checkpoint()
    runner.step(2)
    with pytest.raises(ReplayDivergence,
                       match=f"process 2 issued {issued} when rebuilt, "
                             f"where the run has {run_has}$"):
        runner.rollback()


def test_enumerate_overflow():
    algo = make_algorithm("dsm_registration", 4)
    roles = {2: poll_at_most(2), 3: poll_at_most(2), 4: poll_at_most(2)}
    with pytest.raises(EnumerationOverflow) as err:
        list(enumerate_histories(algo, roles, depth=20, max_histories=3))
    assert err.value.explored == 3


@pytest.mark.parametrize("roles, depth, incomplete", [
    pytest.param({}, 25, False, id="no-roles"),
    pytest.param({2: poll_at_most(1), 1: signal_once()}, 0, True, id="depth-0"),
])
def test_enumeration_with_nothing_to_step_yields_one_empty_history(roles, depth, incomplete):
    # The root is a leaf: one history, the one a run that takes no step has.
    algo = make_algorithm("dsm_queue", 3)
    histories = list(enumerate_histories(algo, roles, depth))
    assert histories == [Runner(algo, roles).history()]
    assert histories[0].incomplete is incomplete


def test_enumeration_steps_only_as_far_as_its_histories(monkeypatch):
    # Stopped by its budget after 10 of 10,298 histories, the enumeration
    # has stepped along their paths, not the DAG's 1,094 edges.
    steps = []
    step = Runner.step

    def counted_step(self, pid):
        steps.append(pid)
        return step(self, pid)

    monkeypatch.setattr(Runner, "step", counted_step)
    algo = make_algorithm("dsm_queue", 3)
    roles = {2: poll_at_most(2), 3: poll_at_most(2), 1: signal_once()}
    with pytest.raises(EnumerationOverflow):
        list(enumerate_histories(algo, roles, depth=25, max_histories=10))
    assert len(steps) <= 26


# -- solo runs and stability --------------------------------------------------


def solo_polls(runner, pid, calls):
    """Let ``pid`` alone make ``calls`` further Polls, on a fork or inside
    an open probe of it, stopping after one that returns true."""
    for _ in range(calls):
        runner.force_next_call(pid, POLL)
        if runner.run_call(pid).response:
            break


def test_solo_extend_stable_waiter_pays_nothing():
    # The charges are read on a fork that polls with no checkpoint open,
    # and inside the probe, which takes the fork's steps and rolls them
    # back.
    algo = make_algorithm("dsm_queue", 4)
    runner = Runner(algo, {2: poll_until_true()})
    runner.run_call(2)
    before = runner.ledger.rmr(Model.DSM, 2)
    steps = len(runner.events)
    fork = runner.fork()
    solo_polls(fork, 2, 100)
    assert fork.ledger.rmr(Model.DSM, 2) == before
    with runner.probe((2,)):
        solo_polls(runner, 2, 100)
        assert [e.signature() for e in runner.events] == [e.signature() for e in fork.events]
        assert len(runner.events) == steps + 100
        assert runner.ledger.rmr(Model.DSM, 2) == before
    assert len(runner.events) == steps


def test_solo_extend_cc_flag_waiter_pays_per_poll_under_dsm():
    algo = make_algorithm("cc_flag", 3)
    runner = Runner(algo, {2: poll_until_true()})
    runner.run_call(2)
    before = runner.ledger.rmr(Model.DSM, 2)
    fork = runner.fork()
    solo_polls(fork, 2, 50)
    assert fork.ledger.rmr(Model.DSM, 2) == before + 50
    with runner.probe((2,)):
        solo_polls(runner, 2, 50)
        assert runner.ledger.rmr(Model.DSM, 2) == before + 50
    assert runner.ledger.rmr(Model.DSM, 2) == before


def test_solo_extend_replays_identically():
    algo = make_algorithm("dsm_queue", 3)
    runner = Runner(algo, {2: poll_until_true()})
    runner.run_call(2)
    with runner.probe((2,)):
        solo_polls(runner, 2, 5)
        twin = Runner.replay(algo, runner.roles, list(runner.trace))
        assert [e.signature() for e in twin.events] == [e.signature() for e in runner.events]


def test_solo_extend_terminated_process_rejected():
    algo = make_algorithm("cc_flag", 2)
    runner = Runner(algo, {1: signal_once()})
    runner.run_call(1)
    with pytest.raises(SimError, match="terminated"), runner.probe((1,)):
        solo_polls(runner, 1, 1)


def test_stability_verdicts_dsm():
    # Queue and single-waiter pollers go quiet after their first poll;
    # a shared-flag poller never does under the DSM rule.
    for name in ("dsm_queue", "dsm_single_waiter"):
        algo = make_algorithm(name, 3)
        runner = Runner(algo, {2: poll_until_true()})
        runner.run_call(2)
        assert stability(runner, [2])[0].stable

    algo = make_algorithm("cc_flag", 3)
    runner = Runner(algo, {2: poll_until_true()})
    runner.run_call(2)
    assert not stability(runner, [2])[0].stable


def test_stability_cc_flag_under_cc_model():
    algo = make_algorithm("cc_flag", 3)
    runner = Runner(algo, {2: poll_until_true()})
    runner.run_call(2)
    assert stability(runner, [2], model=Model.CC)[0].stable


class _Overwrite(SignalingAlgorithm):
    """Process 3's Poll writes 0 to one word, every other Poll reads it;
    every Poll returns false."""

    name = "overwrite"

    def setup(self, mem):
        return SimpleNamespace(word=mem.alloc("word", home=1, init=0))

    def poll(self, ctx):
        if ctx.pid == 3:
            yield write(ctx.locs.word, 0)
        else:
            yield read(ctx.locs.word)
        return False

    def signal(self, ctx):
        yield write(ctx.locs.word, 1)


def test_cc_stability_asks_for_the_pollers_own_copy():
    # 2's read gains it a copy, so its next solo read is local.  3's write
    # destroys that copy and leaves 3 the one holder: 2's next read misses,
    # although somebody holds the word.
    runner = Runner(_Overwrite(3), {2: poll_until_true(), 3: poll_until_true()})
    runner.run_call(2)
    assert stability(runner, [2], model=Model.CC) == [(True, 1)]
    runner.run_call(3)
    assert runner.ledger.cache[runner.events[-1].loc] == {3}
    assert stability(runner, [2], model=Model.CC) == [(False, 1)]


def test_cc_stability_leaves_the_observed_by_counts_alone(monkeypatch):
    # The probe reads the CC holder table from the ledger alone and never enters
    # the erase index, so the index's observed-by counts never see the
    # probe's events.
    algo = make_algorithm("cc_flag", 3)
    runner = Runner(algo, {2: poll_until_true(), 3: poll_until_true()})
    runner.run_call(2)
    runner.run_call(3)
    observed = runner.observers(2)
    entries = []
    index = Runner._index

    def counted(self):
        entries.append(len(self.events))
        return index(self)

    monkeypatch.setattr(Runner, "_index", counted)
    assert stability(runner, [2], model=Model.CC)[0].stable
    assert entries == []
    assert runner.observers(2) == observed


def test_stability_requires_between_calls():
    algo = make_algorithm("dsm_queue", 3)
    runner = Runner(algo, {2: poll_until_true()})
    runner.step(2)
    with pytest.raises(SimError):
        stability(runner, [2])


def test_stability_refuses_an_erased_run():
    # Under either model: under CC by the ledger the holder table is read
    # from, under DSM by the probe's checkpoint.
    algo = make_algorithm("cc_flag", 3)
    erased = Runner(algo, {2: poll_until_true(), 3: poll_until_true()})
    erased.run_call(2)
    erased.run_call(3)
    erased.erase(2)
    for model in Model:
        with pytest.raises(SimError, match="refused after an erasure"):
            stability(erased, [3], model=model)


class _UnboundedCounter(SignalingAlgorithm):
    """Poll bumps a local counter: no RMRs, but no repeating configuration."""

    name = "unbounded_counter"

    def setup(self, mem):
        return SimpleNamespace(
            counter={i: mem.alloc(f"c[{i}]", home=i) for i in range(1, self.n + 1)}
        )

    def poll(self, ctx):
        v = yield read(ctx.locs.counter[ctx.pid])
        yield write(ctx.locs.counter[ctx.pid], v + 1)
        return False

    def signal(self, ctx):
        yield write(ctx.locs.counter[ctx.pid], -1)


def test_stability_undecided_reported_never_guessed():
    algo = _UnboundedCounter(2)
    runner = Runner(algo, {2: poll_until_true()})
    runner.run_call(2)
    assert stability(runner, [2], horizon=50) == [None]


def test_stable_verdicts_survive_long_solo_runs():
    for name in ("dsm_queue", "dsm_registration", "dsm_fixed_waiters"):
        algo = make_algorithm(name, 4)
        runner = Runner(algo, {2: poll_until_true(), 3: poll_until_true()})
        runner.run_call(2)
        runner.run_call(3)
        verdict, = stability(runner, [2])
        assert verdict.stable
        fork = runner.fork()
        before = fork.ledger.rmr(Model.DSM, 2)
        solo_polls(fork, 2, 10 * verdict.solo_calls)
        assert fork.ledger.rmr(Model.DSM, 2) == before


# -- observation ------------------------------------------------------------


def test_observed_via_read_of_last_write():
    # cc_flag: waiter 2 polls the flag after signaler 1 wrote it, so 2
    # observed 1; 2 wrote nothing anyone read.
    runner = Runner(make_algorithm("cc_flag", 3), {1: signal_once(), 2: poll_at_most(1)})
    runner.run_call(1)
    runner.run_call(2)
    assert (runner.observers(1), runner.observers(2)) == (1, 0)
    history = runner.history()
    assert not validate_erasure(history, 1)
    assert validate_erasure(history, 2)


def test_unobserved_without_contact():
    events = raw_events(3, {
        "locs": [("a", 1), ("b", 2)],
        "ops": [(1, read, "a"), (2, read, "b")],
    })
    assert validate_erasure(events, 1) and validate_erasure(events, 2)


def test_validate_erasure_invisible_writer():
    events = raw_events(2, {
        "locs": [("x", 1)],
        "ops": [(2, write, "x", 5)],
    })
    assert validate_erasure(events, 2)


def test_validate_erasure_rejects_seen_process():
    events = raw_events(2, {
        "locs": [("x", 1)],
        "ops": [(2, write, "x", 5), (1, read, "x")],
    })
    assert not validate_erasure(events, 2)


def test_validate_erasure_shielded_overwrite():
    # p wrote, q overwrote before anyone read: p left no observable trace.
    events = raw_events(3, {
        "locs": [("x", 1)],
        "ops": [(2, write, "x", 5), (3, write, "x", 6), (1, read, "x")],
    })
    assert validate_erasure(events, 2)
    assert not validate_erasure(events, 3)


def queue_of_two() -> Runner:
    """dsm_queue waiters 2 and 3 enqueued in that order: 3's enqueue read
    the tail 2 wrote."""
    runner = Runner(make_algorithm("dsm_queue", 3), {2: poll_until_true(), 3: poll_until_true()})
    runner.run_call(2)
    runner.run_call(3)
    return runner


def test_observed_by_count_follows_erasure_and_rollback():
    runner = Runner(make_algorithm("dsm_queue", 3), {2: poll_until_true(), 3: poll_until_true()})
    runner.run_call(2)
    with runner.probe([3]):
        runner.run_call(3)
        with pytest.raises(SimError, match="checkpoint or probe"):
            runner.observers(2)
    assert runner.observers(2) == 0
    runner = queue_of_two()
    assert (runner.observers(2), runner.observers(3)) == (1, 0)
    runner.erase(3)
    assert runner.observers(2) == 0


@pytest.mark.parametrize("built_before", [False, True])
def test_erase_index_refused_under_a_checkpoint(built_before):
    # observers() and erase() read the erase index, which answers nothing
    # while a checkpoint or a probe is open, whether or not it was built
    # before they opened; a refused erasure changes nothing.  Once the
    # outermost one closes, the counts cover the steps since, as the scan.
    runner = Runner(make_algorithm("dsm_queue", 3), {2: poll_until_true(), 3: poll_until_true()})
    runner.run_call(2)
    if built_before:
        assert runner.observers(2) == 0

    def refused() -> None:
        for read in (lambda: runner.observers(2), lambda: runner.erase(2)):
            with pytest.raises(SimError, match="checkpoint or probe"):
                read()
        # Not marked erased: the ledger still reads, as the run stands.
        assert runner.ledger.totals()["steps"] == len(runner.events) and runner.is_active(2)

    runner.checkpoint()
    refused()
    runner.run_call(3)  # 3's enqueue reads the tail 2 wrote
    with runner.probe([3]):
        runner.run_call(3)
        refused()
    refused()
    runner.rollback(close=True)
    runner.run_call(3)
    history = runner.history()
    assert [runner.observers(p) for p in (1, 2, 3)] == [
        sum(e.proc != p and e.op.reads_value and e.writer_before == p for e in history.events)
        for p in (1, 2, 3)] == [0, 1, 0]
    assert [runner.observers(p) == 0 for p in (2, 3)] == [
        validate_erasure(history, p) for p in (2, 3)]


@pytest.mark.parametrize("order, erased", [((2, 3), 1), ((3, 2), 2)])
def test_erase_unobserved_picks_in_order(order, erased):
    # 2 is observed until 3 is erased, so only the order (3, 2) takes both.
    runner = queue_of_two()
    assert harness._erase_unobserved(runner, order) == erased
    assert len(runner.participants()) == 2 - erased
    harness._certify(runner)


# -- erasure by replay --------------------------------------------------------


def test_erase_removes_exactly_the_targets_steps():
    algo = make_algorithm("dsm_registration", 4)
    roles = {2: poll_until_true(), 3: poll_until_true()}
    runner = Runner(algo, roles)
    runner.drive(SeededRandom(5), 40)  # waiters stay active, no signal
    own = len([e for e in runner.events if e.proc == 3])
    assert own > 0
    assert validate_erasure(runner.history(), 3)
    erased = erase(runner, 3)
    assert len(erased.events) == len(runner.events) - own
    assert all(e.proc != 3 for e in erased.events)


def test_erase_commutes_for_independent_targets():
    algo = make_algorithm("dsm_fixed_waiters", 4, waiters=(2, 3))
    roles = {2: poll_until_true(), 3: poll_until_true()}
    runner = Runner(algo, roles)
    runner.drive(SeededRandom(8), 40)
    one = erase(erase(runner, 2), 3)
    other = erase(erase(runner, 3), 2)
    assert [e.signature() for e in one.events] == [e.signature() for e in other.events]


def test_erase_terminated_process_rejected():
    algo = make_algorithm("dsm_registration", 3)
    runner = Runner(algo, {2: poll_at_most(1)})
    runner.drive(SeededRandom(0), 100)
    assert 2 in runner.terminated
    with pytest.raises(SimError):
        erase(runner, 2)


def test_erase_refused_when_observed():
    algo = make_algorithm("dsm_queue", 3)
    roles = {2: poll_until_true(), 3: poll_until_true()}
    runner = Runner(algo, roles)
    runner.run_call(2)  # FAI leaves a value waiter 3's FAI will observe
    runner.run_call(3)
    with pytest.raises(ErasureRefused):
        erase(runner, 2)


# -- adversary drill ----------------------------------------------------------


def test_drill_queue_signaler_pays_per_waiter():
    algo = make_algorithm("dsm_queue", 9, waiters=range(2, 10))
    report = adversary_separation(algo, signaler=1)
    assert report.signaler_rmrs >= 8
    assert report.post_poll_ok
    assert report.k == 9


def test_drill_registration_signaler_pays_per_waiter():
    algo = make_algorithm("dsm_registration", 9, waiters=range(2, 10))
    report = adversary_separation(algo)
    assert report.signaler_rmrs >= 8


def test_drill_fixed_waiters_default_signaler():
    # Process 1 is the lowest process outside the waiter set.
    algo = make_algorithm("dsm_fixed_waiters", 9, waiters=range(2, 10))
    report = adversary_separation(algo)
    assert report.signaler == 1
    assert report.signaler_rmrs == 8


def test_drill_cc_flag_under_cc_costs_one():
    algo = make_algorithm("cc_flag", 9)
    report = adversary_separation(algo, model=Model.CC)
    assert report.signaler_rmrs == 1
    assert report.post_poll_ok


def test_drill_cc_flag_under_dsm_non_stabilizing():
    # Every waiter pays to read the remote flag in each round's probe.
    algo = make_algorithm("cc_flag", 5)
    with pytest.raises(DrillNotApplicable) as err:
        adversary_separation(algo, model=Model.DSM)
    assert str(err.value) == "waiters [2, 3, 4, 5] (4 of 4) still pay RMRs after 8 polling rounds"


def test_drill_counts_an_undecided_waiter_as_unstable(monkeypatch):
    # Free polls that never repeat leave every verdict undecided at a small
    # horizon, in each of the drill's rounds, and the drill gives up.
    probe, verdicts = harness.stability, []

    def short(runner, pids, *, model):
        verdicts.append(probe(runner, pids, model=model, horizon=50))
        return verdicts[-1]

    monkeypatch.setattr(harness, "stability", short)
    with pytest.raises(DrillNotApplicable) as err:
        adversary_separation(_UnboundedCounter(3))
    assert verdicts == [[None, None]] * harness.MAX_ROUNDS
    assert str(err.value) == (
        "waiters [2, 3] (2 of 2) are undecided at the stability horizon after 8 polling rounds")


def test_drill_diagnosis_names_paying_and_undecided_waiters_apart(monkeypatch):
    # Of the last round's verdicts, 2 pays and 3 is undecided; the paying
    # list is cut at 8 ids, and the counts say how many there are.
    def split(runner, pids, *, model):
        return [None if w == 3 else harness.StabilityResult(False, 1) for w in pids]

    monkeypatch.setattr(harness, "stability", split)
    with pytest.raises(DrillNotApplicable) as err:
        adversary_separation(make_algorithm("cc_flag", 11))
    assert str(err.value) == (
        "waiters [2, 4, 5, 6, 7, 8, 9, 10] (9 of 10) still pay RMRs after 8 polling rounds; "
        "waiters [3] (1 of 10) are undecided at the stability horizon after 8 polling rounds")


def test_stability_refuses_a_horizon_below_one():
    algo = make_algorithm("dsm_queue", 3)
    runner = Runner(algo, {2: poll_until_true()})
    runner.run_call(2)
    for horizon in (0, -1):
        with pytest.raises(ValueError, match="at least 1"):
            stability(runner, [2], horizon=horizon)


def test_drill_rw_algorithms_meet_lower_bound():
    for name in ("dsm_fixed_waiters", "dsm_registration"):
        algo = make_algorithm(name, 7, waiters=range(2, 8))
        report = adversary_separation(algo)
        assert report.signaler_rmrs >= 6 - 1


def test_drill_erase_on_discovery_shrinks_participants():
    algo = make_algorithm("dsm_fixed_waiters", 9, waiters=range(2, 10))
    report = adversary_separation(algo, erase_on_discovery=True)
    assert report.k == 1
    assert report.erased == 8
    assert report.signaler_rmrs == 8
    assert report.history.participants == {report.signaler}


def test_erase_drill_never_erases_its_signaler():
    # Signaler 2 is one of the waiters: after Signal it still has a poll
    # script, so it is active, and nobody read its write.
    algo = make_algorithm("cc_flag", 4)
    report = adversary_separation(algo, model=Model.CC, signaler=2, erase_on_discovery=True)
    assert (report.W, report.signaler, report.erased) == (3, 2, 2)
    assert report.history.participants == {2}
    assert (report.k, report.signaler_rmrs, report.total_rmr_cc) == (1, 2, 2)
    assert report.post_poll_ok


def test_drill_queue_cost_tracks_waiter_count_exactly():
    # With the globals at the signaler, the scan is local and the only
    # remote steps are the notify writes: one per enqueued waiter.
    for w in (8, 16, 32):
        algo = make_algorithm("dsm_queue", w + 1, waiters=range(2, w + 2))
        report = adversary_separation(algo, signaler=1)
        assert w <= report.signaler_rmrs <= w + 4


def test_drill_ratio_grows_with_w_at_fixed_participants():
    ratios = []
    for w in (16, 64, 128):
        algo = make_algorithm("dsm_fixed_waiters", w + 1, waiters=range(2, w + 2))
        report = adversary_separation(algo, erase_on_discovery=True)
        ratios.append(report.total_rmr_dsm / report.k)
        assert report.k <= 2
    assert ratios[0] < ratios[1] < ratios[2]


def test_drill_report_record_keys():
    algo = make_algorithm("dsm_queue", 5)
    report = adversary_separation(algo, signaler=1)
    record = report.to_record()
    assert tuple(record) == (
        "algorithm", "model", "W", "k", "signaler_rmrs",
        "total_rmr_dsm", "total_rmr_cc", "msg_bus", "msg_dir",
    )


@pytest.fixture
def rebuilds(monkeypatch):
    """Counts of Runner.fork and Runner.replay calls (a fork replays too)."""
    counts = {"fork": 0, "replay": 0}
    replay, fork = Runner.replay.__func__, Runner.fork

    def counted_replay(cls, *args, **kwargs):
        counts["replay"] += 1
        return replay(cls, *args, **kwargs)

    def counted_fork(self):
        counts["fork"] += 1
        return fork(self)

    monkeypatch.setattr(Runner, "replay", classmethod(counted_replay))
    monkeypatch.setattr(Runner, "fork", counted_fork)
    return counts


def _drill_outcome(name: str, w: int, model: Model, erase: bool):
    """The drill's record, erasures and history, or its error."""
    try:
        report = adversary_separation(make_algorithm(name, w + 1, waiters=range(2, w + 2)),
                                      model=model, erase_on_discovery=erase)
    except SimError as exc:
        return type(exc).__name__, str(exc)
    history = report.history
    if history is not None:
        history = ([e.signature() for e in history.events],
                   [(c.call_id, c.proc, c.kind, c.response, c.start_seq, c.end_seq)
                    for c in history.calls],
                   history.finished, history.incomplete, history.trace)
    return report.to_record(), report.erased, history


def test_post_poll_check_leaves_the_report_alone(monkeypatch):
    # The post-poll check runs on the drill's run after the report has read
    # it: with the check stubbed out, every record and history is the same.
    # W = 1 lets the single-waiter protocols in.  dsm_fixed_waiters_term's
    # erase drill spins its Signal a million steps (a known defect), so it
    # runs without --erase only.
    cases = [(name, w, model, erase) for name in sorted(REGISTRY) for w in (1, 2, 3, 4)
             for model in Model for erase in (False, True)
             if not (erase and name == "dsm_fixed_waiters_term")]
    real = [_drill_outcome(*case) for case in cases]
    monkeypatch.setattr(harness, "_verify_post_polls", lambda runner, waiters: True)
    assert [_drill_outcome(*case) for case in cases] == real
    assert sum(isinstance(got[0], dict) and got[1] > 0 for got in real) > 0


def test_drill_probes_rebuild_nothing(rebuilds, monkeypatch):
    # Stability probes and the post-poll check run in place.  The one
    # polling round's probe only reads (each waiter polls its own notify
    # word), so it is rolled back once, when it closes.
    closes = []
    rollback = Runner.rollback

    def counted_rollback(self, *, close=False):
        closes.append(close)
        return rollback(self, close=close)

    monkeypatch.setattr(Runner, "rollback", counted_rollback)
    algo = make_algorithm("dsm_queue", 33, waiters=range(2, 34))
    report = adversary_separation(algo, signaler=1)
    assert report.post_poll_ok
    assert rebuilds == {"fork": 0, "replay": 0}
    assert closes == [True]


@pytest.mark.parametrize("name, model, erase, snapshots, steps, record", [
    ("dsm_queue", Model.DSM, False, 32, 226,
     {"k": 33, "signaler_rmrs": 32, "total_rmr_dsm": 128, "total_rmr_cc": 162,
      "msg_bus": 97, "msg_dir": 63}),
    ("dsm_fixed_waiters", Model.DSM, True, 32, 128,
     {"k": 1, "signaler_rmrs": 32, "total_rmr_dsm": 32, "total_rmr_cc": 32,
      "msg_bus": 32, "msg_dir": 0}),
    ("cc_flag", Model.CC, False, 0, 97,
     {"k": 33, "signaler_rmrs": 1, "total_rmr_dsm": 32, "total_rmr_cc": 33,
      "msg_bus": 1, "msg_dir": 32}),
], ids=["dsm_queue-dsm", "dsm_fixed_waiters-erase", "cc_flag-cc"])
def test_drill_probes_snapshot_a_module_once_per_stable_waiter(
        monkeypatch, name, model, erase, snapshots, steps, record):
    # Each of the 32 waiters is stable after one probed poll that changed
    # nothing, so under DSM its own module is snapshotted once, for the
    # configuration the poll starts from, and never after the poll; under
    # CC never.  The probe takes the same steps as one that keys every poll.
    counts = {"snapshots": 0, "steps": 0}
    snapshot, step = Memory.module_snapshot, Runner.step

    def counted_snapshot(self, home):
        counts["snapshots"] += 1
        return snapshot(self, home)

    def counted_step(self, pid):
        counts["steps"] += 1
        return step(self, pid)

    monkeypatch.setattr(Memory, "module_snapshot", counted_snapshot)
    monkeypatch.setattr(Runner, "step", counted_step)
    algo = make_algorithm(name, 33, waiters=range(2, 34))
    report = adversary_separation(algo, model=model, erase_on_discovery=erase)
    assert report.post_poll_ok
    assert counts == {"snapshots": snapshots, "steps": steps}
    assert report.to_record() == {"algorithm": name, "model": model.value, "W": 32, **record}


def test_erase_drill_certifies_with_one_replay(rebuilds):
    # Erasures run in place; one fork at the end builds the erased run the
    # report reads and certifies every erasure.
    algo = make_algorithm("dsm_fixed_waiters", 33, waiters=range(2, 34))
    report = adversary_separation(algo, erase_on_discovery=True)
    assert report.erased == 32
    assert rebuilds == {"fork": 1, "replay": 1}


@pytest.fixture
def erasure_work(monkeypatch):
    """Counts of events built, one per Memory.apply call, and of the words
    erasures restore: the Memory.restore_word calls made in Runner.erase."""
    counts = {"built": 0, "restored": 0}
    apply, restore_word, runner_erase = Memory.apply, Memory.restore_word, Runner.erase
    erasing = []

    def counted_apply(self, proc, kind, loc, value, seq):
        counts["built"] += 1
        return apply(self, proc, kind, loc, value, seq)

    def counted_restore_word(self, saved):
        counts["restored"] += bool(erasing)
        return restore_word(self, saved)

    def counted_erase(self, p):
        erasing.append(p)
        try:
            return runner_erase(self, p)
        finally:
            erasing.pop()

    monkeypatch.setattr(Memory, "apply", counted_apply)
    monkeypatch.setattr(Memory, "restore_word", counted_restore_word)
    monkeypatch.setattr(Runner, "erase", counted_erase)
    return counts


@pytest.mark.parametrize("name, model", [
    ("dsm_fixed_waiters", Model.DSM), ("dsm_registration", Model.DSM), ("cc_flag", Model.CC),
])
def test_erase_drill_work_grows_linearly_in_w(erasure_work, name, model):
    # Each erasure costs what its waiter touched, and one replay builds the
    # erased run: a 4x step in W may not cost 4.5x the work.  An erasure
    # restores only the words its waiter wrote: a dsm_registration waiter's
    # registration word, and nothing for waiters that only read.
    work = []
    for w in (64, 256):
        erasure_work.update(built=0, restored=0)
        report = adversary_separation(make_algorithm(name, w + 1), model=model,
                                      erase_on_discovery=True)
        assert (report.erased, report.k) == (w, 1)
        work.append(dict(erasure_work))
    small, large = work
    assert small["restored"] == (64 if name == "dsm_registration" else 0)
    for kind in ("built", "restored"):
        assert large[kind] <= 4.5 * small[kind], (kind, work)


@pytest.fixture
def held_visits(monkeypatch):
    """Entries read from every ledger's holder table: one per lookup, and
    one per entry of a scan over the table."""
    counts = {"visited": 0}

    class CountedHolders(dict):
        def get(self, key, default=None):
            counts["visited"] += 1
            return dict.get(self, key, default)

        def __getitem__(self, key):
            counts["visited"] += 1
            return dict.__getitem__(self, key)

        def items(self):
            counts["visited"] += len(self)
            return dict.items(self)

    init = RmrLedger.__init__

    def counted_init(self, n, events):
        # The counting table goes in before the fold, so the fold's lookups count.
        init(self, n, [])
        self.cache = CountedHolders()
        self.record(events)

    monkeypatch.setattr(RmrLedger, "__init__", counted_init)
    return counts


@pytest.mark.parametrize("name", ["dsm_queue", "dsm_fixed_waiters", "dsm_registration"])
def test_cc_drill_holder_work_grows_linearly_in_w(held_visits, name):
    # A CC stability probe reads the holders of the locations its waiter
    # was given copies of, not every cached word of the run, which grows
    # with W: a 4x step in W may not cost 4.5x the holder entries visited.
    work = []
    for w in (64, 256):
        held_visits["visited"] = 0
        report = adversary_separation(make_algorithm(name, w + 1), model=Model.CC, signaler=1)
        assert report.post_poll_ok
        work.append(held_visits["visited"])
    small, large = work
    assert small >= 64
    assert large <= 4.5 * small, work


def test_certifying_replay_catches_a_wrong_erasure(monkeypatch):
    # Waiter 2 also signals, so it stays active after writing the flag;
    # waiter 3 then reads the flag, so erasing 2 changes what 3 saw.
    algo = make_algorithm("cc_flag", 3)
    runner = Runner(algo, {2: poll_until_true(), 3: poll_until_true()})
    runner.force_next_call(2, SIGNAL)
    runner.run_call(2)
    assert runner.run_call(3).response is True
    assert harness._erase_unobserved(runner, (2, 3)) == 0
    monkeypatch.setattr(runner, "observers", lambda p: 0)
    assert harness._erase_unobserved(runner, (2, 3)) == 1
    with pytest.raises(ReplayDivergence, match="events"):
        harness._certify(runner)


@pytest.mark.parametrize("signaler", [99, 0, -3])
def test_drill_signaler_outside_processes_refused(signaler):
    algo = make_algorithm("dsm_queue", 5)
    with pytest.raises(ConfigError, match="outside 1..5"):
        adversary_separation(algo, signaler=signaler)


def test_erase_mode_needs_read_write_only_algorithm(monkeypatch):
    # FAI, the one primitive beyond read/write that the engine keeps: erase
    # mode refuses it before it builds a run.
    algo = make_algorithm("dsm_queue", 5)
    with monkeypatch.context() as m:
        m.setattr(harness, "Runner", lambda *args: pytest.fail("the drill built a run"))
        with pytest.raises(DrillNotApplicable, match="read/write.*; dsm_queue uses fai$"):
            adversary_separation(algo, signaler=1, erase_on_discovery=True)
    assert adversary_separation(algo, signaler=1).post_poll_ok
