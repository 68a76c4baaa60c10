"""Engine invariants as properties over random runs.

Each example is a registered algorithm, or for some properties a test-only
one defined here (plain or ``+blocking``), on n <= 6 processes, a random
mix of waiter scripts with or without a signaler, a seeded random schedule
cut at a random step budget, and sometimes an extra Poll forced on a
waiter.  The properties pin what replay, forking, checkpoints, probing,
erasure, enumeration, drive, the ledger and the contract checkers promise,
independently of how the engine implements them.
"""

from contextlib import suppress
from copy import deepcopy
from dataclasses import dataclass
from itertools import islice
from types import SimpleNamespace

import pytest
from hypothesis import Phase, example, given, settings, strategies as st

from rmrsim import harness
from rmrsim.algorithms import SignalingAlgorithm, make_algorithm
from rmrsim.checker import (
    HARNESS_MISUSE,
    POLL_FALSE_AFTER_SIGNAL,
    POLL_TRUE_NO_SIGNAL,
    WAIT_BEFORE_SIGNAL,
    Violation,
    check_amortized,
    check_blocking,
    check_polling,
)
from rmrsim.costs import Model, RmrLedger
from rmrsim.errors import (
    EnumerationOverflow,
    SchedulingError,
    SimError,
    StepBudgetExceeded,
)
from rmrsim.harness import (
    StabilityResult,
    _assert_survivors_match,
    _verify_post_polls,
    adversary_separation,
    enumerate_histories,
    erase,
    stability,
    validate_erasure,
)
from rmrsim.memory import WORD_MAX, Memory, OpKind, fai, read, write
from rmrsim.runner import (
    POLL,
    SIGNAL,
    WAIT,
    CallRecord,
    ExplicitSchedule,
    History,
    RoundRobin,
    Runner,
    SeededRandom,
    poll_at_most,
    poll_until_true,
    signal_once,
    wait_once,
    _runnable,
)

ALGORITHMS = (
    "cc_flag",
    "dsm_single_waiter",
    "dsm_fixed_waiters",
    "dsm_fixed_waiters_term",
    "dsm_registration",
    "dsm_queue",
    "mutant_single_waiter",
)
SINGLE_WAITER = ("dsm_single_waiter", "mutant_single_waiter")
TRIVIAL = ("read",)


class Drift(SignalingAlgorithm):
    """Poll counts its calls modulo ``period`` in a word of its own module,
    by a read and a write, and reads the signal flag, homed at process 1,
    only when the count wraps.  Solo polls are free of DSM RMRs and of
    repeats until the wrap, so a horizon shorter than that leaves stability
    undecided."""

    name = "drift"
    period = 4

    def setup(self, mem):
        return SimpleNamespace(
            flag=mem.alloc("flag", home=1),
            count={i: mem.alloc(f"count[{i}]", home=i) for i in range(1, self.n + 1)},
        )

    def poll(self, ctx):
        count = (yield read(ctx.locs.count[ctx.pid])) + 1
        yield write(ctx.locs.count[ctx.pid], count % self.period)
        if count < self.period:
            return False
        return bool((yield read(ctx.locs.flag)))

    def signal(self, ctx):
        yield write(ctx.locs.flag, 1)


class Scribble(SignalingAlgorithm):
    """Poll overwrites a board word nobody reads, then reads a ping word
    nobody writes and the flag, which only Signal writes, and returns
    false.  Every poller stays active and unobserved, yet erasing one
    changes the others' writers before, CC charges and directory messages,
    and the board word it wrote must be set from the last of the others'
    writes."""

    name = "scribble"

    def setup(self, mem):
        return SimpleNamespace(
            board=mem.alloc("board", home=1, init=-1),  # erasing must restore it
            ping=mem.alloc("ping", home=1),
            flag=mem.alloc("flag", home=1),
        )

    def poll(self, ctx):
        yield write(ctx.locs.board, ctx.pid)
        yield read(ctx.locs.ping)
        yield read(ctx.locs.flag)
        return False

    def signal(self, ctx):
        yield write(ctx.locs.flag, 1)


class Faulty(SignalingAlgorithm):
    """Poll reads the flag, which only Signal writes.  A process's second
    Poll breaks an engine rule: under an even id it applies FAI, which the
    protocol does not declare, and under an odd one it makes no memory
    access."""

    name = "faulty"

    def setup(self, mem):
        return SimpleNamespace(flag=mem.alloc("flag", home=1))

    def poll(self, ctx):
        polls = ctx.state["polls"] = ctx.state.get("polls", 0) + 1
        if polls == 2:
            if ctx.pid % 2:
                return False
            yield fai(ctx.locs.flag)
        return bool((yield read(ctx.locs.flag)))

    def signal(self, ctx):
        yield write(ctx.locs.flag, 1)


TEST_ALGORITHMS = {cls.name: cls for cls in (Drift, Scribble)}
#: Adds solo-free counting polls (Drift) and unobserved pollers that share
#: a written word (Scribble) to the registry's mix.
EVERY_PRIMITIVE = ALGORITHMS + tuple(TEST_ALGORITHMS)


def build(name: str, n: int, roles: dict):
    """The algorithm, whose waiters are the processes ``roles`` has poll or
    wait: the only ones the engine lets call Poll or Wait."""
    waiters = [pid for pid, script in roles.items() if script.kind != SIGNAL]
    base, _, suffix = name.partition("+")
    # Faulty is not in TEST_ALGORITHMS: only the tests that expect its
    # refusals run it.
    if base in TEST_ALGORITHMS or base == Faulty.name:
        algorithm = TEST_ALGORITHMS.get(base, Faulty)(n, waiters)
        if suffix == "blocking":
            algorithm.blocking = True
            algorithm.name += "+blocking"
        return algorithm
    return make_algorithm(name, n, waiters=waiters)


@dataclass(frozen=True)
class Config:
    name: str
    n: int
    roles: dict
    seed: int
    budget: int
    forced: int | None  # waiter that gets one extra Poll after the budget


def draw_setting(draw, names, max_n: int) -> tuple[str, int, dict]:
    """An algorithm name, plain or ``+blocking``, n and the roles: waiters
    that poll (until true or a few times) or, under ``+blocking``, wait,
    and sometimes a signaler."""
    base = draw(st.sampled_from(names))
    blocking = draw(st.booleans())
    n = draw(st.integers(2, max_n))
    scripts = st.one_of(
        st.just(poll_until_true()),
        st.integers(1, 3).map(poll_at_most),
        *([st.just(wait_once())] if blocking else []),
    )
    waiters = draw(st.lists(
        st.integers(2, n), min_size=1, unique=True,
        max_size=1 if base in SINGLE_WAITER else n - 1,
    ))
    roles = {w: draw(scripts) for w in sorted(waiters)}
    if draw(st.booleans()):
        roles[1] = signal_once()
    return base + ("+blocking" if blocking else ""), n, roles


@st.composite
def configs(draw, names=ALGORITHMS) -> Config:
    name, n, roles = draw_setting(draw, names, 6)
    forced = draw(st.none() | st.sampled_from(sorted(pid for pid in roles if pid != 1)))
    return Config(
        name=name,
        n=n,
        roles=roles,
        seed=draw(st.integers(0, 2**32 - 1)),
        budget=draw(st.integers(1, 250)),
        forced=forced,
    )


def execute(cfg: Config) -> Runner:
    runner = Runner(build(cfg.name, cfg.n, cfg.roles), cfg.roles)
    runner.drive(SeededRandom(cfg.seed), cfg.budget)
    if cfg.forced is not None and cfg.forced not in runner.terminated:
        runner.force_next_call(cfg.forced, POLL)
        runner.drive(SeededRandom(cfg.seed + 1), len(runner.events) + 40)
    return runner


def signatures(runner: Runner, skip=()) -> list:
    return [e.signature() for e in runner.events if e.proc not in skip]


def calls(runner: Runner) -> list:
    return [(c.call_id, c.proc, c.kind, c.response, c.start_seq, c.end_seq)
            for c in runner.calls]


def started_calls(runner: Runner, skip=()) -> list:
    return [(c.proc, c.kind, c.response) for c in runner.calls
            if c.proc not in skip and c.start_seq is not None]


def ledger_state(runner: Runner, ledger: RmrLedger | None = None) -> tuple:
    """Every row and holder pair of ``ledger``, else of one read of the run's."""
    ledger = runner.ledger if ledger is None else ledger
    rows = tuple(tuple(ledger.per_process(p).items()) for p in range(1, runner.n + 1))
    return rows, holder_pairs(ledger.cache)


def holder_pairs(cache: dict[int, set[int]]) -> set[tuple[int, int]]:
    """Every (process, word) pair with a valid copy, by a scan of the cache."""
    return {(p, uid) for uid, holders in cache.items() for p in holders}


# -- the charging rules, one event at a time ---------------------------------
#
# The spec that ``check_amortized``'s recount and the ledger are held to.

LOCAL = "local"
RMR = "rmr"


def classify_dsm(event) -> str:
    """DSM rule: remote iff the location lives in another process's module."""
    return RMR if event.home != event.proc else LOCAL


def classify_cc(event, cache: dict[int, set[int]]) -> str:
    """CC rule.  ``cache`` maps a word's uid to the processes that hold a
    valid copy of it; mutated to reflect the event."""
    holders = cache.get(event.loc)
    if event.op.trivial:
        if holders is not None and event.proc in holders:
            return LOCAL
        if holders is None:
            cache[event.loc] = {event.proc}
        else:
            holders.add(event.proc)
        return RMR
    # Nontrivial step: write-through to memory, invalidate remote copies,
    # refresh the issuer's own copy.  Always an RMR, cached copy or not.
    if holders is None:
        cache[event.loc] = {event.proc}
    else:
        holders.clear()
        holders.add(event.proc)
    return RMR


def count_messages(event, cache: dict[int, set[int]]) -> int:
    """The directory rule: an event's ideal-directory invalidation messages,
    one per copy another process holds in ``cache``, the state before the
    event.  Trivial operations send none.  The oracle for the ledger's
    ``msg_dir`` column."""
    if event.op.trivial:
        return 0
    holders = cache.get(event.loc, ())
    return len(holders) - (event.proc in holders)


def recount(events, n: int) -> dict[int, dict[str, int]]:
    """Per-process metrics folded from raw events through the charging rules."""
    rows = {p: dict.fromkeys(("rmr_dsm", "rmr_cc", "msg_bus", "msg_dir", "steps"), 0)
            for p in range(1, n + 1)}
    cache = {}
    for e in events:
        row = rows[e.proc]
        row["steps"] += 1
        row["rmr_dsm"] += classify_dsm(e) is RMR
        row["msg_bus"] += not e.op.trivial
        row["msg_dir"] += count_messages(e, cache)
        row["rmr_cc"] += classify_cc(e, cache) is RMR
    return rows


@given(configs())
def test_replay_reproduces_the_run(cfg):
    runner = execute(cfg)
    twin = Runner.replay(runner.algorithm, runner.roles, list(runner.trace))
    assert signatures(twin) == signatures(runner)
    assert calls(twin) == calls(runner)
    assert ledger_state(twin) == ledger_state(runner)
    fork = runner.fork()
    assert signatures(fork) == signatures(runner)
    assert ledger_state(fork) == ledger_state(runner)


def execute_noting_calls(cfg: Config) -> tuple[Runner, list[CallRecord]]:
    """:func:`execute`'s run, stepped here one step at a time, with the call
    each step's process had open, noted as it stepped: the open call before
    the step, or the call the step began, the last one begun."""
    runner = Runner(build(cfg.name, cfg.n, cfg.roles), cfg.roles)
    owners = []

    def drive(policy, budget):
        while runner.runnable() and len(runner.events) < budget:
            pid = policy.choose(runner.runnable())
            rec = runner.open_call(pid)
            runner.step(pid)
            owners.append(runner.calls[-1] if rec is None else rec)

    drive(SeededRandom(cfg.seed), cfg.budget)
    if cfg.forced is not None and cfg.forced not in runner.terminated:
        runner.force_next_call(cfg.forced, POLL)
        drive(SeededRandom(cfg.seed + 1), len(runner.events) + 40)
    return runner, owners


@given(configs())
def test_an_events_call_is_the_interval_holding_it(cfg):
    # An event names no call: its process's call whose [start_seq, end_seq]
    # holds its seq (to the end while open) is the one noted as open.
    runner, owners = execute_noting_calls(cfg)
    assert runner.trace == execute(cfg).trace
    history = runner.history()
    for e in history.events:
        holding = [c for c in history.calls if c.proc == e.proc and c.start_seq is not None
                   and c.start_seq <= e.seq <= (e.seq if c.end_seq is None else c.end_seq)]
        assert [c.call_id for c in holding] == [owners[e.seq].call_id]


@given(configs(EVERY_PRIMITIVE))
def test_ledger_equals_recount_from_events(cfg):
    runner = execute(cfg)
    expected = recount(runner.events, runner.n)
    for p in range(1, runner.n + 1):
        assert runner.ledger.per_process(p) == expected[p]
    totals = {k: sum(row[k] for row in expected.values()) for k in expected[1]}
    assert runner.ledger.totals() == totals


def assert_participants_stepped(history) -> None:
    """A history's participants, read from its begun calls, are the
    processes with an event."""
    assert history.participants == {e.proc for e in history.events}


@given(configs(EVERY_PRIMITIVE))
def test_participants_are_the_processes_that_stepped(cfg):
    runner = execute(cfg)
    # A peek begins a due call without a step: a call record with no event.
    for pid in runner.runnable():
        runner.peek(pid)
    assert_participants_stepped(runner.history())
    erasable = [p for p in sorted(runner.participants() - runner.terminated)
                if not runner.observers(p)]
    if erasable:
        runner.erase(erasable[0])
        assert_participants_stepped(runner.fork().history())


@settings(max_examples=25)
@given(st.data())
def test_enumerated_participants_are_the_processes_that_stepped(data):
    name, n, roles = draw_setting(data.draw, EVERY_PRIMITIVE, 3)
    histories, _ = first_histories(
        enumerate_histories(build(name, n, roles), roles, data.draw(st.integers(1, 8))))
    for history in histories:
        assert_participants_stepped(history)


@given(configs(EVERY_PRIMITIVE))
def test_bus_messages_equal_nontrivial_attempts(cfg):
    runner = execute(cfg)
    for p in range(1, runner.n + 1):
        attempts = sum(1 for e in runner.events
                       if e.proc == p and e.op.value not in TRIVIAL)
        assert runner.ledger.per_process(p)["msg_bus"] == attempts
    # Every nontrivial step writes.
    assert all((e.value_written is None) == e.op.trivial for e in runner.events)


@given(configs())
def test_directory_messages_bounded_by_cc_read_rmrs(cfg):
    # A copy an invalidation destroys was made by a read RMR, or belongs to
    # a process whose running call still has a read RMR to come; the bound
    # holds once every participant's first call has returned.
    runner = execute(cfg)
    first_calls = {}
    for c in runner.calls:
        if c.start_seq is not None:
            first_calls.setdefault(c.proc, c)
    if any(c.end_seq is None for c in first_calls.values()):
        return
    cache = {}
    cc_reads = 0
    for e in runner.events:
        if classify_cc(e, cache) is RMR and e.op.value in TRIVIAL:
            cc_reads += 1
    assert runner.ledger.totals()["msg_dir"] <= cc_reads


@given(configs(EVERY_PRIMITIVE))
def test_directory_messages_bounded_by_cc_rmrs(cfg):
    # Every copy an invalidation destroys was made by one CC RMR of its
    # holder.  A nontrivial step also leaves its issuer a copy, without a
    # read: Scribble's pollers overwrite each other's board copies, so the
    # read-RMR bound above holds for the registry's protocols only.
    runner = execute(cfg)
    totals = runner.ledger.totals()
    assert totals["msg_dir"] <= totals["rmr_cc"]


@given(configs())
def test_validated_erasure_keeps_survivors_and_commutes(cfg):
    runner = execute(cfg)
    history = runner.history()
    active = runner.participants() - runner.terminated
    erasable = [p for p in sorted(active) if validate_erasure(history, p)]
    for p in erasable:
        erased = erase(runner, p)
        assert signatures(erased) == signatures(runner, skip=(p,))
        assert started_calls(erased) == started_calls(runner, skip=(p,))
    if len(erasable) >= 2:
        p, q = erasable[:2]
        pq = erase(erase(runner, p), q)
        qp = erase(erase(runner, q), p)
        assert signatures(pq) == signatures(qp) == signatures(runner, skip=(p, q))
        assert calls(pq) == calls(qp)
        assert ledger_state(pq) == ledger_state(qp)


def erased_state(runner: Runner) -> tuple:
    """Full events (seq, call id and writer before included) plus all the
    observable state."""
    return runner.events, observable_state(runner)


def assert_erased_as(live: Runner, oracle: Runner) -> None:
    """An in-place erasure keeps right what the steps to come read: the
    survivors' steps, the words, the observed-by counts and who
    is active and runnable.  Its fork, the erased run, is the oracle's run
    in full."""
    assert erased_state(live.fork()) == erased_state(oracle)
    assert signatures(live) == signatures(oracle)
    assert live.mem.words() == oracle.mem.words()
    assert ([live.observers(p) for p in range(1, live.n + 1)]
            == [oracle.observers(p) for p in range(1, oracle.n + 1)])
    assert live.participants() == oracle.participants()
    assert live.runnable() == oracle.runnable()
    assert live.terminated == oracle.terminated


def step_both(live: Runner, oracle: Runner, policy, steps: int) -> None:
    """Step both runs alike: ``steps`` choices of ``policy`` among the live
    run's runnable processes."""
    for _ in range(steps):
        runnable = live.runnable()
        if not runnable:
            break
        pid = policy.choose(runnable)
        live.step(pid)
        oracle.step(pid)


@given(configs())
def test_in_place_erase_matches_replay_oracle(cfg):
    check_in_place_erase(cfg)


@given(configs((Scribble.name,)))
def test_in_place_erase_refolds_shared_words(cfg):
    # Registered algorithms rarely let an unobserved process share words
    # with others; Scribble's pollers always do.
    check_in_place_erase(cfg)


def check_in_place_erase(cfg: Config) -> None:
    """``Runner.erase`` in place agrees with the ``harness.erase`` replay
    oracle, also after both runs go on under one schedule, and in the
    drill's own pattern; two erasures commute, and erasing every erasable
    process equals the oracle chain."""
    runner = execute(cfg)
    history = runner.history()
    active = runner.participants() - runner.terminated
    erasable = [p for p in sorted(active) if validate_erasure(history, p)]
    for p in erasable:
        oracle = erase(runner, p)
        live = execute(cfg)
        live.erase(p)
        assert live.ctxs[p].state == oracle.ctxs[p].state == {}
        assert_erased_as(live, oracle)
        # The erased process runs again, from scratch.
        step_both(live, oracle, SeededRandom(cfg.seed + 3), 30)
        assert_erased_as(live, oracle)
    if erasable:
        check_deferred_erase(cfg, erasable[0])
    if len(erasable) >= 2:
        p, q = erasable[:2]
        pq, qp = execute(cfg), execute(cfg)
        pq.erase(p)
        pq.erase(q)
        qp.erase(q)
        qp.erase(p)
        oracle = erase(erase(runner, p), q)
        assert_erased_as(pq, oracle)
        assert_erased_as(qp, oracle)
        every, oracle = execute(cfg), runner
        for p in erasable:
            every.erase(p)
            oracle = erase(oracle, p)
        assert_erased_as(every, oracle)


def erased_twice(cfg: Config, p: int) -> tuple[Runner, Runner]:
    """The drill's pattern, on a live run and on the replay oracle: erase
    ``p``, let the processes step, erase the first process then erasable,
    if any."""
    live, oracle = execute(cfg), erase(execute(cfg), p)
    live.erase(p)
    step_both(live, oracle, SeededRandom(cfg.seed + 5), 12)
    history = oracle.history()
    for q in sorted(oracle.participants() - oracle.terminated):
        if validate_erasure(history, q):
            live.erase(q)
            oracle = erase(oracle, q)
            break
    return live, oracle


def check_deferred_erase(cfg: Config, p: int) -> None:
    """After the drill's pattern, whatever reads the erased run as a whole
    is refused and names the fork, and the fork is the oracle's run."""
    live, oracle = erased_twice(cfg, p)
    for whole in (live.history, live.configuration, live.checkpoint):
        with pytest.raises(SimError, match="fork"):
            whole()
    with pytest.raises(SimError, match="fork"):
        with live.probe([]):
            pass
    assert_erased_as(live, oracle)


@given(st.one_of(configs(EVERY_PRIMITIVE), configs((Scribble.name,))))
def test_certified_erasures_equal_the_oracle_chain(cfg):
    # The drill's pattern, then its certificate: the run _certify returns
    # is the oracle chain's, field for field, also where the erased
    # processes shared words with the survivors.
    runner = execute(cfg)
    history = runner.history()
    erasable = [p for p in sorted(runner.participants() - runner.terminated)
                if validate_erasure(history, p)]
    if erasable:
        live, oracle = erased_twice(cfg, erasable[0])
        assert harness._certify(live).history() == oracle.history()


@given(configs(EVERY_PRIMITIVE), st.randoms(use_true_random=False))
def test_observed_by_index_matches_scan_oracle(cfg, rnd):
    # The drill's verdict, from the observed-by count of the run's erase
    # index, equals the scan of validate_erasure over the run's replay for
    # every active process: after a probe that stepped (inside it the index
    # is refused), then before and after each of a few random erasures
    # with steps between them.
    runner = execute(cfg)

    def agree() -> list[int]:
        active = runner.participants() - runner.terminated
        verdicts = {p: not runner.observers(p) for p in sorted(active)}
        history = runner.fork().history()
        assert verdicts == {p: validate_erasure(history, p) for p in verdicts}
        return [p for p, safe in verdicts.items() if safe]

    # Any waiter between calls, begun or not, polls once more.
    probed = [pid for pid, script in cfg.roles.items() if script.kind != SIGNAL
              and pid not in runner.terminated and runner.open_call(pid) is None]
    with runner.probe(probed):
        for pid in probed:
            runner.force_next_call(pid, POLL)
            with suppress(StepBudgetExceeded):  # a Poll spinning on its own
                runner.run_call(pid, max_steps=20)
        for p in runner.participants() - runner.terminated:
            with pytest.raises(SimError, match="checkpoint or probe"):
                runner.observers(p)
    for _ in range(3):
        erasable = agree()
        if not erasable:
            break
        runner.erase(rnd.choice(erasable))
        for _ in range(rnd.randrange(8)):
            runnable = runner.runnable()
            if not runnable:
                break
            runner.step(rnd.choice(runnable))
    agree()


def fork_stability(fork: Runner, pid: int, model: Model,
                   horizon: int) -> StabilityResult | None:
    """The stability probe as it ran on a replayed fork of the run, with no
    checkpoint open, reading the fork's ledger after each poll: the oracle
    for the in-place probe, which decides from its own events.  None when
    the horizon comes first."""
    seen = {configuration(fork, pid, model)}
    for made in range(1, horizon + 1):
        before = fork.ledger.rmr(model, pid)
        fork.force_next_call(pid, POLL)
        try:
            rec = fork.run_call(pid, max_steps=horizon)
        except StepBudgetExceeded:
            if fork.ledger.rmr(model, pid) > before:
                return StabilityResult(stable=False, solo_calls=made)
            return None  # the poll ran past the horizon
        if fork.ledger.rmr(model, pid) > before:
            return StabilityResult(stable=False, solo_calls=made)
        if rec.response:
            return StabilityResult(stable=True, solo_calls=made)
        config = configuration(fork, pid, model)
        if config in seen:
            return StabilityResult(stable=True, solo_calls=made)
        seen.add(config)
        if len(seen) > horizon:
            break
    return None  # no repeat within the horizon


def configuration(runner: Runner, pid: int, model: Model) -> tuple:
    state = tuple(sorted(runner.ctxs[pid].state.items()))
    if model is Model.DSM:
        return state, runner.mem.module_snapshot(pid)
    held = held_scan(runner.ledger.cache, pid)
    values = runner.mem.words()
    return state, tuple((uid, values[uid]) for uid in held)


def held_scan(cache: dict[int, set[int]], proc: int) -> tuple[int, ...]:
    """The words ``proc`` holds, by a scan of every holder set."""
    return tuple(sorted(uid for p, uid in holder_pairs(cache) if p == proc))


def outcome(probe) -> tuple:
    """A probe's result, ``("undecided",)`` for a None verdict, or the kind
    of error it raised."""
    try:
        got = probe()
    except SimError as exc:
        return (type(exc).__name__, str(exc))
    return ("undecided",) if got is None else ("result", got)


def observable_state(runner: Runner) -> tuple:
    """What a run shows, its ledger as folded at this read included."""
    return (
        signatures(runner),
        calls(runner),
        list(runner.trace),
        runner.mem.words(),
        ledger_state(runner),
        runner.participants(),
        {p: dict(runner.ctxs[p].state) for p in runner.ctxs},
        runner.runnable(),
        runner.terminated,
    )


class Relay(SignalingAlgorithm):
    """Process 2's Poll writes its call count into a word of process 3's
    module; any other Poll reads its own word and, when that is odd, the
    flag.  A solo poll of 2 flips what every later solo poll of 3 reads,
    so a probe of 2 then 3 must roll back between them."""

    name = "relay"

    def setup(self, mem):
        return SimpleNamespace(
            flag=mem.alloc("flag", home=1),
            mine={i: mem.alloc(f"mine[{i}]", home=i) for i in range(1, self.n + 1)},
        )

    def poll(self, ctx):
        if ctx.pid == 2:
            made = ctx.state["made"] = ctx.state.get("made", 0) + 1
            yield write(ctx.locs.mine[min(3, self.n)], made)
            return False
        if (yield read(ctx.locs.mine[ctx.pid])) % 2:
            return bool((yield read(ctx.locs.flag)))
        return False

    def signal(self, ctx):
        yield write(ctx.locs.flag, 1)


# Built by name; EVERY_PRIMITIVE keeps to Drift and Scribble.
TEST_ALGORITHMS[Relay.name] = Relay


@given(configs(ALGORITHMS + (Drift.name, Relay.name)), st.sampled_from(Model),
       st.integers(1, 6))
@example(Config("relay", 3, {2: poll_until_true(), 3: poll_until_true()}, 0, 8, None),
         Model.DSM, 6)
def test_stability_probe_matches_fork_oracle_and_rolls_back(cfg, model, horizon):
    # Drift and small horizons make an undecided verdict a common outcome.
    # One probe decides every active process between calls, rolled back
    # between them (Relay needs that): each verdict is the fork oracle's and
    # a probe of that process alone's, or the call raises what the first
    # process to raise alone raises.
    runner = execute(cfg)
    for pid in sorted(runner.participants() - runner.terminated):
        if runner.open_call(pid) is not None:
            with suppress(StepBudgetExceeded):  # a Wait spinning on its own
                runner.run_call(pid, max_steps=20)
    trace = list(runner.trace)
    between = [pid for pid in sorted(runner.participants() - runner.terminated)
               if runner.open_call(pid) is None]
    before = observable_state(runner)
    expected = [outcome(lambda: fork_stability(runner.fork(), pid, model, horizon))
                for pid in between]
    alone = [outcome(lambda: stability(runner, [pid], model=model, horizon=horizon)[0])
             for pid in between]
    assert alone == expected
    assert observable_state(runner) == before
    got = outcome(lambda: stability(runner, between, model=model, horizon=horizon))
    raised = [o for o in expected if o[0] not in ("result", "undecided")]
    if raised:
        assert got == raised[0]
    else:
        assert got == ("result", [o[1] if o[0] == "result" else None for o in expected])
    assert observable_state(runner) == before
    # The probed run goes on exactly as one that was never probed.
    twin = Runner.replay(runner.algorithm, runner.roles, trace)
    for run in (runner, twin):
        run.drive(SeededRandom(cfg.seed + 2), len(run.events) + 30)
    assert signatures(runner) == signatures(twin)
    assert calls(runner) == calls(twin)
    assert ledger_state(runner) == ledger_state(twin)


class Countdown(SignalingAlgorithm):
    """Poll counts its calls in ``ctx.state`` and reads a word of its own
    module, but from its third call on reads the flag, homed at process 1.
    It writes no word, yet each probed poll changes what the process's next
    probe finds, so a probe of one process twice must roll back between."""

    name = "countdown"

    def setup(self, mem):
        return SimpleNamespace(
            flag=mem.alloc("flag", home=1),
            mine={i: mem.alloc(f"mine[{i}]", home=i) for i in range(1, self.n + 1)},
        )

    def poll(self, ctx):
        made = ctx.state["made"] = ctx.state.get("made", 0) + 1
        if made < 3:
            return bool((yield read(ctx.locs.mine[ctx.pid])))
        return bool((yield read(ctx.locs.flag)))

    def signal(self, ctx):
        yield write(ctx.locs.flag, 1)


TEST_ALGORITHMS[Countdown.name] = Countdown


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("name, polls, probed, expected", [
    # 2's probed poll writes 3 into the word 3 polls, which 3 then finds
    # odd and reads the flag: a poll that wrote rolls the probe back.
    ("relay", {2: 2, 3: 1}, [2, 3], [(False, 1), (True, 1)]),
    # 2's probed polls only read, but leave it one call from the flag.
    ("countdown", {2: 1}, [2, 2], [(False, 2), (False, 2)]),
    # Reads alone: 3 polls after 2 with no rollback, and 2 again after one.
    ("countdown", {2: 1, 3: 1}, [2, 3, 2], [(False, 2)] * 3),
], ids=["after-a-write", "same-process", "reads-only"])
def test_one_probe_rolls_back_after_a_write_and_before_a_process_probed_again(
        name, polls, probed, expected, model):
    # The verdicts of one probe of every process in ``probed`` are each
    # process's probed alone and the fork oracle's.
    roles = {pid: poll_until_true() for pid in polls}
    runner = Runner(build(name, 3, roles), roles)
    for pid, made in polls.items():
        for _ in range(made):
            runner.run_call(pid)
    before = observable_state(runner)
    expected = [StabilityResult(*verdict) for verdict in expected]
    assert [stability(runner, [pid], model=model, horizon=6)[0] for pid in probed] == expected
    assert [fork_stability(runner.fork(), pid, model, 6) for pid in probed] == expected
    assert stability(runner, probed, model=model, horizon=6) == expected
    assert observable_state(runner) == before


class _OwnWord(SignalingAlgorithm):
    """Each process has a word of its own module; Signal writes the flag,
    homed at process 1, which no Poll here reads."""

    def setup(self, mem):
        return SimpleNamespace(
            flag=mem.alloc("flag", home=1),
            mine={i: mem.alloc(f"mine[{i}]", home=i) for i in range(1, self.n + 1)},
        )

    def signal(self, ctx):
        yield write(ctx.locs.flag, 1)


class Rewrite(_OwnWord):
    """Poll writes back the value it reads from its own word: a nontrivial
    step that changes no word."""

    name = "rewrite"

    def poll(self, ctx):
        mine = ctx.locs.mine[ctx.pid]
        yield write(mine, (yield read(mine)))
        return False


class Toggle(_OwnWord):
    """Poll flips its own word between 0 and 1: ``ctx.state`` never changes,
    but the module does, and is back where it was after two polls."""

    name = "toggle"

    def poll(self, ctx):
        mine = ctx.locs.mine[ctx.pid]
        yield write(mine, 1 - (yield read(mine)))
        return False


class Count3(_OwnWord):
    """Poll only reads its own word and steps ``ctx.state["k"]`` modulo 3:
    the configuration comes back to where a probe starts after three polls."""

    name = "count3"

    def poll(self, ctx):
        ctx.state["k"] = (ctx.state.get("k", 0) + 1) % 3
        yield read(ctx.locs.mine[ctx.pid])
        return False


class Hoard(_OwnWord):
    """Poll appends to a list in ``ctx.state`` and reads its own word: the
    state is equal to its copy after every poll, since the copy shares the
    list, yet it never repeats.  No configuration key can hold it."""

    name = "hoard"

    def poll(self, ctx):
        ctx.state.setdefault("seen", []).append(0)
        yield read(ctx.locs.mine[ctx.pid])
        return False


TEST_ALGORITHMS.update({cls.name: cls for cls in (Rewrite, Toggle, Count3, Hoard)})


def probed_after_one_poll(name: str) -> Runner:
    """A run of ``name`` on 3 processes whose waiters, 2 and 3, polled once."""
    roles = {2: poll_until_true(), 3: poll_until_true()}
    runner = Runner(build(name, 3, roles), roles)
    for pid in roles:
        runner.run_call(pid)
    return runner


@pytest.mark.parametrize("model", list(Model))
@pytest.mark.parametrize("name, verdicts", [
    # Under DSM a write of the value read changes no word: back where the
    # poll began.  Under CC every write pays.
    ("rewrite", {Model.DSM: (True, 1), Model.CC: (False, 1)}),
    # The state stays equal, but the first poll changed the module: the
    # second is the one that returns to a configuration seen.
    ("toggle", {Model.DSM: (True, 2), Model.CC: (False, 1)}),
    # Only the configuration the probe started from is met again, after
    # three polls.
    ("count3", {Model.DSM: (True, 3), Model.CC: (True, 3)}),
], ids=["rewrite", "toggle", "count3"])
def test_a_poll_repeats_a_configuration_only_when_it_changed_none_of_it(
        name, verdicts, model):
    # The verdicts of the probe, which keys only a configuration a poll
    # changed, are the fork oracle's, which keys every one.
    runner = probed_after_one_poll(name)
    before = observable_state(runner)
    expected = [StabilityResult(*verdicts[model])] * 2
    assert stability(runner, [2, 3], model=model, horizon=6) == expected
    assert [fork_stability(runner.fork(), pid, model, 6) for pid in (2, 3)] == expected
    assert observable_state(runner) == before


HOARD_REFUSED = r"hoard: process 2's ctx.state\['seen'\] holds a list"


@pytest.mark.parametrize("model", list(Model))
def test_a_state_no_key_can_hold_is_refused(model):
    # Hoard's state is equal to its copy after each poll, but it holds a
    # list: the probe's checkpoint refuses it before the first probed poll.
    # The oracle, which runs with no checkpoint, fails to hash its key.
    runner = probed_after_one_poll("hoard")
    before = observable_state(runner)
    with pytest.raises(SimError, match=HOARD_REFUSED):
        stability(runner, [2, 3], model=model, horizon=6)
    with pytest.raises(TypeError):
        fork_stability(runner.fork(), 2, model, 6)
    assert observable_state(runner) == before


def test_a_rollback_over_a_state_that_is_no_value_is_refused():
    # A save copies ctx.state, which shares the list a poll grows in place,
    # so a rollback would keep what the poll appended: the first checkpoint
    # refuses the state before anything changes, and then every call that
    # begins under one.
    runner = probed_after_one_poll("hoard")  # {'seen': [0]} each
    before = observable_state(runner)
    runner.checkpoint()
    with pytest.raises(SimError, match=HOARD_REFUSED):
        runner.run_call(2)
    assert observable_state(runner) == before
    runner.rollback(close=True)
    assert observable_state(runner) == before
    roles = {2: poll_until_true()}
    fresh = Runner(build("hoard", 3, roles), roles)
    fresh.checkpoint()
    fresh.run_call(2)  # begun at {}: the save is a copy
    with pytest.raises(SimError, match=HOARD_REFUSED):
        fresh.run_call(2)
    fresh.rollback(close=True)
    assert fresh.ctxs[2].state == {} and not fresh.events


class Keep(_OwnWord):
    """Poll keeps ``value`` in ``ctx.state`` and reads its own word."""

    name = "keep"
    value = None

    def poll(self, ctx):
        ctx.state["kept"] = self.value
        yield read(ctx.locs.mine[ctx.pid])
        return False


@pytest.mark.parametrize("value, kept", [
    (7, True), (True, True), ("s", True), (None, True), ((1, "a", None), True),
    (frozenset({1, 2}), True), ([1], False), ({1}, False), ((1, [2]), False),
    ((1, (2,)), False),
])
def test_a_checkpoint_keeps_only_a_state_of_values(value, kept):
    # Ints, bools, strs, None, and tuples or frozensets of those; a tuple
    # of tuples too is refused, where the next call begins.
    roles = {2: poll_until_true()}
    algorithm = Keep(3, [2])
    algorithm.value = value
    runner = Runner(algorithm, roles)
    runner.checkpoint()
    runner.run_call(2)
    if kept:
        runner.run_call(2)
    else:
        with pytest.raises(SimError, match=r"ctx.state\['kept'\] holds a"):
            runner.run_call(2)
    runner.rollback(close=True)
    assert runner.ctxs[2].state == {} and not runner.events


# No shrink phase: on these examples the shrinker fails an assertion of its
# own instead of printing the falsifying example.
@settings(phases=[Phase.explicit, Phase.reuse, Phase.generate, Phase.target])
@given(configs(EVERY_PRIMITIVE), st.integers(1, 12),
       st.lists(st.integers(0, 40), min_size=1, max_size=3))
def test_probe_decides_rmrs_as_the_ledger_does(cfg, horizon, bursts):
    # stability() decides from its probe's own events whether a poll paid
    # an RMR: under DSM an access to another module, under CC a nontrivial
    # attempt or an access to a word outside the copies held before the
    # probe opened.  The oracle polls a fork with no checkpoint open and
    # reads its ledger after each poll.  Both give the same verdict and
    # solo calls, or both leave it undecided, under either model, for every
    # active process after each burst of steps of a random schedule and
    # the end of its open call.
    runner = Runner(build(cfg.name, cfg.n, cfg.roles), cfg.roles)
    policy = SeededRandom(cfg.seed)
    for burst in bursts:
        runner.drive(policy, len(runner.events) + burst)
        active = sorted(runner.participants() - runner.terminated)
        for pid in active:
            if runner.open_call(pid) is not None:
                with suppress(StepBudgetExceeded):  # a Wait spinning on its own
                    runner.run_call(pid, max_steps=20)
        for pid in active:
            if runner.is_active(pid) and runner.open_call(pid) is None:
                for model in Model:
                    expected = outcome(lambda: fork_stability(runner.fork(), pid, model, horizon))
                    got = outcome(lambda: stability(runner, [pid], model=model,
                                                    horizon=horizon)[0])
                    assert got == expected


#: Every ledger read.
LEDGER_READS = ("rmr", "per_process", "totals", "total_rmr_dsm", "total_rmr_cc",
                "total_msg_bus", "total_msg_dir", "cache")
INTERLUDES = st.sampled_from(("run.ledger", "probe", "checkpoint"))


def recount_holders(events) -> set[tuple[int, int]]:
    """The (process, word) copy pairs folded from raw events through the CC
    rule: the oracle for the ledger's cache."""
    cache = {}
    for e in events:
        classify_cc(e, cache)
    return holder_pairs(cache)


def read_as_recounted(ledger, read: str, pid: int, model: Model, runner: Runner) -> tuple:
    """One ``read`` of ``ledger`` and the value a recount of the run's events
    gives for it."""
    expected = recount(runner.events, runner.n)
    totals = {k: sum(row[k] for row in expected.values()) for k in expected[1]}
    if read == "rmr":
        return ledger.rmr(model, pid), expected[pid][f"rmr_{model.value}"]
    if read == "per_process":
        return ledger.per_process(pid), expected[pid]
    if read == "totals":
        return ledger.totals(), totals
    if read == "cache":
        return holder_pairs(ledger.cache), recount_holders(runner.events)
    return getattr(ledger, read), totals[read.removeprefix("total_")]


@given(configs(EVERY_PRIMITIVE), st.data())
def test_every_ledger_read_sees_every_event(cfg, data):
    # Before each burst of steps: one read through run.ledger, a snapshot
    # that the burst leaves as it was.  Before that read, nothing or one of
    # these: a stability probe of a waiter between calls, then a probe in
    # which it polls once, with a read inside; or a checkpoint, steps of
    # processes that were between calls (on words nobody has touched, if
    # it comes first) with a read inside, and a rollback.  Every read
    # equals a recount of the events as they stand, a rolled-back interlude
    # leaves the ledger as it was, and each kind of read made first on a
    # replay of the whole run equals a recount too.
    runner = Runner(build(cfg.name, cfg.n, cfg.roles), cfg.roles)
    policy = SeededRandom(cfg.seed)

    def check(ledger) -> None:
        got, expected = read_as_recounted(
            ledger, data.draw(st.sampled_from(LEDGER_READS)),
            data.draw(st.integers(1, runner.n)), data.draw(st.sampled_from(Model)), runner)
        assert got == expected

    for _ in range(data.draw(st.integers(1, 8))):
        interlude = data.draw(INTERLUDES)
        before = ledger_state(runner)
        if interlude == "probe":
            between = [pid for pid in sorted(runner.participants() - runner.terminated)
                       if runner.open_call(pid) is None and cfg.roles[pid].kind != SIGNAL]
            if between:
                pid = data.draw(st.sampled_from(between))
                model = data.draw(st.sampled_from(Model))
                outcome(lambda: stability(runner, [pid], model=model, horizon=6))
                with runner.probe([pid]):
                    runner.force_next_call(pid, POLL)
                    outcome(lambda: runner.run_call(pid, max_steps=6))
                    check(runner.ledger)
        elif interlude == "checkpoint":
            # Only a call begun under the checkpoint can be rewound.
            free = [pid for pid in runner.runnable() if runner.open_call(pid) is None]
            runner.checkpoint()
            for k in data.draw(st.lists(st.integers(0, 7), min_size=1, max_size=8)):
                live = [pid for pid in runner.runnable() if pid in free]
                if live:
                    runner.step(live[k % len(live)])
            check(runner.ledger)
            runner.rollback(close=True)
        snapshot = runner.ledger
        check(snapshot)
        held = ledger_state(runner, snapshot)
        assert held == before
        runner.drive(policy, len(runner.events) + data.draw(st.integers(0, 12)))
        assert ledger_state(runner, snapshot) == held
    pid, model = data.draw(st.integers(1, runner.n)), data.draw(st.sampled_from(Model))
    for read in LEDGER_READS:
        twin = Runner.replay(runner.algorithm, runner.roles, runner.trace)
        got, expected = read_as_recounted(twin.ledger, read, pid, model, twin)
        assert got == expected, read


def fork_post_polls(fork: Runner, waiters) -> bool:
    """The post-Signal check as it ran on a replayed fork of the run: the
    oracle for ``_verify_post_polls``, which runs on the drill's run."""
    for w in [w for w in waiters if fork.is_active(w)]:
        fork.force_next_call(w, POLL)
        if not fork.run_call(w).response:
            return False
    return True


@given(configs(), st.sampled_from(Model))
def test_post_poll_check_matches_fork_oracle(cfg, model):
    # The drill's last check, on a run with or without a Signal, after the
    # stability probe the drill runs before it under the model: every
    # active waiter between calls polls once more, on the run itself, which
    # then goes on as the fork did.
    runner = execute(cfg)
    for pid in sorted(runner.participants() - runner.terminated):
        if runner.open_call(pid) is not None:
            with suppress(StepBudgetExceeded):  # a Wait spinning on its own
                runner.run_call(pid, max_steps=20)
    waiters = [pid for pid, script in cfg.roles.items()
               if script.kind != SIGNAL and runner.open_call(pid) is None]
    active = [pid for pid in waiters if runner.is_active(pid)]
    outcome(lambda: stability(runner, active, model=model, horizon=6))
    fork = runner.fork()
    expected = outcome(lambda: fork_post_polls(fork, waiters))
    assert outcome(lambda: _verify_post_polls(runner, waiters)) == expected
    assert signatures(runner) == signatures(fork)
    assert calls(runner) == calls(fork)


@given(configs(EVERY_PRIMITIVE))
def test_rollback_restores_the_run_exactly(cfg):
    # Checkpoint mid-run, go on (a forced Poll included), roll back: the run
    # is as it was, and goes on as a run that never left.
    runner = Runner(build(cfg.name, cfg.n, cfg.roles), cfg.roles)
    runner.checkpoint()  # calls begun from here on can be rewound
    runner.drive(SeededRandom(cfg.seed), cfg.budget)
    before, trace = observable_state(runner), list(runner.trace)
    runner.checkpoint()
    runner.drive(SeededRandom(cfg.seed + 1), len(runner.events) + 20)
    if cfg.forced is not None and cfg.forced not in runner.terminated:
        runner.force_next_call(cfg.forced, POLL)
        runner.drive(SeededRandom(cfg.seed + 2), len(runner.events) + 20)
    runner.rollback()
    assert observable_state(runner) == before
    twin = Runner.replay(runner.algorithm, runner.roles, trace)
    for run in (runner, twin):
        run.drive(SeededRandom(cfg.seed + 3), len(run.events) + 30)
    assert observable_state(runner) == observable_state(twin)
    runner.rollback(close=True)
    assert observable_state(runner) == before
    runner.rollback(close=True)
    assert observable_state(runner) == observable_state(Runner(runner.algorithm, runner.roles))


def replay_enumeration(algorithm, roles, depth):
    """The stateless enumerator before it backtracked in place, kept as
    the oracle: a fresh runner per history re-executes the whole prefix."""
    pending = [()]
    while pending:
        prefix = pending.pop()
        runner = Runner(algorithm, roles)
        for pid in prefix:
            runner.step(pid)
        schedule = list(prefix)
        while len(schedule) < depth:
            choices = runner.runnable()
            if not choices:
                break
            for alt in choices[:0:-1]:
                pending.append((*schedule, alt))
            runner.step(choices[0])
            schedule.append(choices[0])
        yield runner.history()


#: Enough histories to backtrack through every level of a small tree.
ENUM_LIMIT = 400


def first_histories(histories, limit: int | None = ENUM_LIMIT) -> tuple:
    """Up to ``limit`` histories (all of them for None), and the kind of
    error that ended the enumeration early, if any."""
    taken = []
    try:
        for history in islice(histories, limit):
            taken.append(history)
    except SimError as exc:
        return taken, type(exc).__name__
    return taken, None


@given(st.data())
def test_in_place_enumeration_matches_replay_oracle(data):
    name, n, roles = draw_setting(data.draw, EVERY_PRIMITIVE, 4)
    depth = data.draw(st.integers(1, 10))
    algorithm = build(name, n, roles)
    got = first_histories(enumerate_histories(algorithm, roles, depth))
    want = first_histories(replay_enumeration(algorithm, roles, depth))
    # Histories compare on every event field, every call record, finished,
    # incomplete and the trace.
    assert got == want


# -- the enumeration's memo against the key-free oracle ----------------------


def criterion_3(name, params, polls, depth):
    """A criterion-3 style setting: process 1 signals once, the others poll
    at most ``polls[pid]`` times."""
    roles = {pid: poll_at_most(calls) for pid, calls in polls}
    roles[1] = signal_once()
    return pytest.param(make_algorithm(name, 3, **dict(params)), roles, depth,
                        id=f"{name}-{depth}")


def blocking(name, depth):
    roles = {2: wait_once(), 3: wait_once(), 1: signal_once()}
    return pytest.param(make_algorithm(name, 3), roles, depth, id=f"{name}-{depth}")


TWO_POLLS = ((2, 2), (3, 2))
FIXED = (("waiters", (2, 3)),)
CRITERION_3 = (
    ("cc_flag", (), TWO_POLLS),
    ("dsm_single_waiter", (), ((2, 2),)),
    ("dsm_fixed_waiters", FIXED, TWO_POLLS),
    ("dsm_fixed_waiters_term", FIXED, ((2, 2), (3, 1))),
    ("dsm_registration", (), TWO_POLLS),
    ("dsm_queue", (), TWO_POLLS),
)


@pytest.mark.parametrize("algorithm, roles, depth", [
    *(criterion_3(name, params, polls, 12) for name, params, polls in CRITERION_3),
    criterion_3("dsm_registration", (), TWO_POLLS, 25),
    criterion_3("dsm_queue", (), TWO_POLLS, 25),
    criterion_3("mutant_single_waiter", (), ((2, 2),), 25),
    blocking("cc_flag+blocking", 10),
    blocking("dsm_queue+blocking", 10),
])
def test_memoized_enumeration_equals_oracle_completely(algorithm, roles, depth):
    got = first_histories(enumerate_histories(algorithm, roles, depth), None)
    assert got == first_histories(replay_enumeration(algorithm, roles, depth), None)
    assert got[1] is None and len(got[0]) > 1


class Echo(SignalingAlgorithm):
    """Poll writes 1 into a shared word, then reads it; Signal reads it.
    Both pollers' writes leave the same value, but not the same last
    writer, which the reads after them report."""

    name = "echo"

    def setup(self, mem):
        return SimpleNamespace(word=mem.alloc("word", home=1))

    def poll(self, ctx):
        yield write(ctx.locs.word, 1)
        return bool((yield read(ctx.locs.word)))

    def signal(self, ctx):
        yield read(ctx.locs.word)


class Forgetful(SignalingAlgorithm):
    """The first Poll keeps the flag it read in ``ctx.state``; the second
    pops it before its first yield, reads ``a``, then reads ``a`` again if
    the flag was set and ``b`` if not.  After its first step the second
    Poll has the same ``ctx.state`` and responses either way, but not the
    same next step."""

    name = "forgetful"

    def setup(self, mem):
        return SimpleNamespace(flag=mem.alloc("flag", home=1), a=mem.alloc("a", home=1),
                               b=mem.alloc("b", home=1))

    def poll(self, ctx):
        if "flag" not in ctx.state:
            ctx.state["flag"] = yield read(ctx.locs.flag)
            return False
        flag = ctx.state.pop("flag")
        yield read(ctx.locs.a)
        yield read(ctx.locs.a if flag else ctx.locs.b)
        return bool(flag)

    def signal(self, ctx):
        yield write(ctx.locs.flag, 1)


@pytest.mark.parametrize("algorithm, roles, seen, values", [
    pytest.param(Echo(3), {2: poll_at_most(1), 3: poll_at_most(1), 1: signal_once()},
                 lambda e: e.writer_before if e.proc == 1 else None, {2, 3}, id="writer"),
    pytest.param(Drift(3), {2: poll_at_most(3), 3: poll_at_most(2), 1: signal_once()},
                 lambda e: e.value_written if e.proc != 1 else None, {1, 2, 3}, id="drift"),
    pytest.param(Forgetful(2), {2: poll_at_most(2), 1: signal_once()},
                 lambda e: e.loc if e.proc == 2 and e.loc else None, {1, 2}, id="start-state"),
])
def test_memo_tells_apart_configurations_only_the_key_separates(algorithm, roles, seen, values):
    # Keyed without last writers or the call's start state, two of these
    # configurations would share one recorded future.  ``seen`` picks what
    # differs between them: who wrote what the Signal reads, the count each
    # Drift Poll writes back, or which word the second Poll reads.
    got = first_histories(enumerate_histories(algorithm, roles, 20), None)
    assert got == first_histories(replay_enumeration(algorithm, roles, 20), None)
    assert {seen(e) for history in got[0] for e in history.events} - {None} == values


def test_overflow_inside_a_walk_counts_as_the_oracle_does(monkeypatch):
    # A history walked from a recorded configuration takes no step, so a
    # limit between two of them falls inside a walk.
    algorithm = make_algorithm("dsm_queue", 3)
    roles = {2: poll_at_most(2), 3: poll_at_most(2), 1: signal_once()}
    want = list(replay_enumeration(algorithm, roles, 25))
    steps = []
    step = Runner.step

    def counted_step(self, pid):
        steps.append(pid)
        return step(self, pid)

    monkeypatch.setattr(Runner, "step", counted_step)
    before = []  # steps taken before each history
    for _ in enumerate_histories(algorithm, roles, 25):
        before.append(len(steps))
    walked = [k for k in range(1, len(before)) if before[k] == before[k - 1]]
    assert len(before) == len(want) and len(walked) > len(want) // 2
    for limit in (walked[0], walked[len(walked) // 2], walked[-1]):
        got = []
        with pytest.raises(EnumerationOverflow) as err:
            for history in enumerate_histories(algorithm, roles, 25, max_histories=limit):
                got.append(history)
        assert err.value.explored == limit
        assert got == want[:limit]


class Brittle(SignalingAlgorithm):
    """Poll reads a counter of its own, then the flag, and once the flag is
    set adds one to the counter.  Process 1's counter starts at the top of
    the word range, so that overflows (a ``CapacityError``).  Signal reads
    its own counter twice before it writes the flag, so that an error in
    that write (:class:`Unwritten`) comes only once the walk has
    backtracked past histories it took.  Processes 1 to 3 wait."""

    name = "brittle"
    primitives = frozenset({OpKind.READ, OpKind.WRITE, OpKind.FAI})

    def __init__(self, n: int):
        super().__init__(n, waiters=(1, 2, 3))

    def setup(self, mem):
        return SimpleNamespace(flag=mem.alloc("flag", home=1), counter={
            pid: mem.alloc(f"counter[{pid}]", home=pid, init=WORD_MAX if pid == 1 else 0)
            for pid in range(1, self.n + 1)})

    def poll(self, ctx):
        yield read(ctx.locs.counter[ctx.pid])  # commutes with the others' steps
        if (yield read(ctx.locs.flag)):
            yield fai(ctx.locs.counter[ctx.pid])
        return False

    def signal(self, ctx):
        yield read(ctx.locs.counter[ctx.pid])
        yield read(ctx.locs.counter[ctx.pid])
        yield write(ctx.locs.flag, 1)


class Unwritten(Brittle):
    """Brittle that declares no write: its Signal's write of the flag, after
    two reads, is an undeclared primitive (a ``ConfigError``)."""

    name = "unwritten"
    primitives = frozenset({OpKind.READ, OpKind.FAI})


@pytest.mark.parametrize("algorithm, roles, error", [
    pytest.param(Brittle(4), {1: poll_at_most(2), 2: poll_at_most(2), 4: signal_once()},
                 "CapacityError", id="capacity"),
    pytest.param(Unwritten(4), {2: poll_until_true(), 3: poll_until_true(), 4: signal_once()},
                 "ConfigError", id="undeclared"),
])
def test_errors_come_after_the_oracles_histories(monkeypatch, algorithm, roles, error):
    want = first_histories(replay_enumeration(algorithm, roles, 12), None)
    steps = []
    step = Runner.step

    def counted_step(self, pid):
        steps.append(pid)
        return step(self, pid)

    monkeypatch.setattr(Runner, "step", counted_step)
    before = []  # steps taken before each history
    got = []
    with pytest.raises(SimError) as err:
        for history in enumerate_histories(algorithm, roles, 12):
            before.append(len(steps))
            got.append(history)
    assert (got, type(err.value).__name__) == want
    assert want[1] == error
    # Some of the histories before the error were walked, not stepped.
    assert any(before[k] == before[k - 1] for k in range(1, len(before)))


ACTIONS = st.sampled_from(("step", "step", "step", "force", "checkpoint", "rollback", "close"))


@given(st.data())
def test_checkpoints_agree_with_replay_under_any_mix_of_actions(data):
    # Steps, queued Polls, checkpoints and rollbacks in any order: each
    # rollback restores the state its checkpoint saw, and the run always
    # equals a replay of its trace, its ledger included.
    name, n, roles = draw_setting(data.draw, EVERY_PRIMITIVE, 4)
    actions = data.draw(st.lists(st.tuples(ACTIONS, st.integers(0, 7)), min_size=20, max_size=80))
    runner = Runner(build(name, n, roles), roles)
    runner.checkpoint()  # kept open, so that every call can be rewound
    seen = [observable_state(runner)]
    waiters = sorted(pid for pid in roles if pid != 1)
    for action, k in actions:
        if action == "step":
            live = runner.runnable()
            if not live:
                continue
            runner.step(live[k % len(live)])
        elif action == "force":
            pid = waiters[k % len(waiters)]
            if pid in runner.terminated:
                continue
            runner.force_next_call(pid, POLL)
        elif action == "checkpoint":
            runner.checkpoint()
            seen.append(observable_state(runner))
        else:
            close = action == "close" and len(seen) > 1
            runner.rollback(close=close)
            assert observable_state(runner) == (seen.pop() if close else seen[-1])
        twin = Runner.replay(runner.algorithm, runner.roles, runner.trace)
        assert observable_state(runner) == observable_state(twin)
    while seen:
        runner.rollback(close=True)
        assert observable_state(runner) == seen.pop()
    assert observable_state(runner) == observable_state(Runner(runner.algorithm, runner.roles))


def enumerate_in_place(runner: Runner, pids: list[int], depth: int, visit) -> None:
    """Every interleaving of ``pids``' next ``depth`` steps, on the run
    itself, backtracked as ``enumerate_histories`` backtracks: a checkpoint
    at each node with a choice, rolled back and closed once its last choice
    is taken.  ``visit`` runs at each leaf; the run ends as it began."""
    start = len(runner.events)
    runner.checkpoint()
    untried: list[list[int]] = []
    while True:
        while len(runner.events) - start < depth:
            choices = [pid for pid in runner.runnable() if pid in pids]
            if not choices:
                break
            if len(choices) > 1:
                runner.checkpoint()
                untried.append(choices[:0:-1])
            runner.step(choices[0])
        visit()
        if not untried:
            break
        alternatives = untried[-1]
        pid = alternatives.pop()
        if not alternatives:
            untried.pop()
        runner.rollback(close=not alternatives)
        runner.step(pid)
    runner.rollback(close=True)


SNAPSHOT_ACTIONS = st.sampled_from(("step", "step", "step", "force", "enumerate", "probe", "erase"))


@st.composite
def snapshot_cases(draw) -> tuple:
    """A setting and the actions to take on it, each with a number that
    picks among its choices."""
    name, n, roles = draw_setting(draw, EVERY_PRIMITIVE, 4)
    actions = draw(st.lists(st.tuples(SNAPSHOT_ACTIONS, st.integers(0, 7)),
                            min_size=10, max_size=40))
    return name, n, roles, actions


@given(snapshot_cases())
def test_histories_stay_as_taken(case):
    # A history shares the run's closed call records, so nothing the run
    # does afterwards may change one: steps, queued Polls, nested rollbacks
    # that reopen a call, probes, and an erasure, which ends the actions
    # because an erased run has no history of its own.  The erasure is
    # certified as the drill certifies it, by a replay of the erased run.
    name, n, roles, actions = case
    runner = Runner(build(name, n, roles), roles)
    taken = []

    def snapshot():
        history = runner.history()
        taken.append((history, deepcopy(history)))

    waiters = sorted(pid for pid in roles if pid != 1)
    for action, k in actions:
        live = runner.runnable()
        # Processes between calls: a rollback can rebuild any call they begin.
        idle = [pid for pid in live if runner.open_call(pid) is None]
        if action == "step" and live:
            runner.step(live[k % len(live)])
        elif action == "force":
            pid = waiters[k % len(waiters)]
            if pid not in runner.terminated:
                runner.force_next_call(pid, POLL)
        elif action == "enumerate" and idle:
            enumerate_in_place(runner, idle, 2 + k % 4, snapshot)
        elif action == "probe":
            probed = [pid for pid in waiters
                      if pid not in runner.terminated and runner.open_call(pid) is None]
            with runner.probe(probed):
                for pid in probed:
                    runner.force_next_call(pid, POLL)
                    with suppress(StepBudgetExceeded):  # a Poll spinning on its own
                        runner.run_call(pid, max_steps=10)
                snapshot()
        elif action == "erase":
            active = runner.participants() - runner.terminated
            erasable = [p for p in sorted(active) if not runner.observers(p)]
            if erasable:
                runner.erase(erasable[k % len(erasable)])
                _assert_survivors_match(runner.events, runner.calls, runner.fork())
                break
        snapshot()
    for history, copy in taken:
        assert history == copy


# Built by name as well; EVERY_PRIMITIVE keeps to Drift and Scribble.
TEST_ALGORITHMS[Echo.name] = Echo
#: Every primitive mix, plus a protocol whose paths only the memo's key
#: tells apart (by last writer), so that walks meet it.
WALKED = EVERY_PRIMITIVE + ("echo",)


@given(st.data())
def test_walked_histories_stay_as_taken(data):
    # Walked histories share recorded events, recorded call records and
    # rebuilt call records with each other, while the run goes on stepping
    # and rolling back below them.  Each history is copied as it is yielded
    # and must equal its copy once the enumeration is over.
    name, n, roles = draw_setting(data.draw, WALKED, 4)
    depth = data.draw(st.integers(1, 10))
    taken = []
    with suppress(EnumerationOverflow):
        for history in enumerate_histories(build(name, n, roles), roles, depth,
                                           max_histories=ENUM_LIMIT):
            taken.append((history, deepcopy(history)))
    assert taken
    for history, copy in taken:
        assert history == copy


# -- the amortized recount against the per-event rules ----------------------


def assert_recount_is_spec(history, ledger_totals: dict) -> None:
    """``check_amortized``'s total, in both models, equals the count of the
    per-event rules over the history's events and the ledger's total."""
    cache = {}
    spec = {Model.DSM: sum(classify_dsm(e) is RMR for e in history.events),
            Model.CC: sum(classify_cc(e, cache) is RMR for e in history.events)}
    for model in Model:
        total = check_amortized(history, 1, model).total
        assert total == spec[model] == ledger_totals[f"rmr_{model.value}"], model


OPS = {"read": read, "write": lambda loc: write(loc, 1), "fai": fai}


@st.composite
def event_plans(draw) -> tuple:
    """n processes, the homes of a few words, and steps (process, op, word)."""
    n = draw(st.integers(2, 4))
    homes = draw(st.lists(st.integers(1, n), min_size=1, max_size=4))
    steps = draw(st.lists(st.tuples(st.integers(1, n), st.sampled_from(sorted(OPS)),
                                    st.integers(0, len(homes) - 1)), max_size=40))
    return n, tuple(homes), tuple(steps)


@given(event_plans())
# A writer re-reads its own write on a word of its module: CC local, DSM local.
@example((2, (1,), ((1, "write", 0), (1, "read", 0))))
# A read after another process's write: the reader's copy is gone.
@example((3, (1,), ((2, "read", 0), (3, "write", 0), (2, "read", 0))))
def test_recount_equals_the_per_event_rules_on_drawn_events(plan):
    n, homes, steps = plan
    mem = Memory(n)
    words = [mem.alloc(f"w{i}", home=home) for i, home in enumerate(homes)]
    events = []
    for proc, op, i in steps:
        events.append(mem.apply(proc, *OPS[op](words[i]), len(events)))
    history = History(events=events, calls=[], finished=frozenset(), incomplete=False, trace=())
    assert_recount_is_spec(history, RmrLedger(n, list(events)).totals())


@given(configs(EVERY_PRIMITIVE))
def test_recount_equals_the_per_event_rules_on_runs(cfg):
    runner = execute(cfg)
    assert_recount_is_spec(runner.history(), runner.ledger.totals())


@pytest.mark.parametrize("algorithm, roles, depth", [
    *(criterion_3(name, params, polls, 12) for name, params, polls in CRITERION_3),
    blocking("dsm_queue+blocking", 10),
])
def test_recount_equals_the_per_event_rules_on_enumerated_histories(algorithm, roles, depth):
    for history in enumerate_histories(algorithm, roles, depth):
        assert_recount_is_spec(history, RmrLedger(algorithm.n, list(history.events)).totals())


@pytest.mark.parametrize("name, model", [("dsm_fixed_waiters", Model.DSM),
                                         ("cc_flag", Model.CC)])
def test_recount_equals_the_per_event_rules_on_the_erase_drill(name, model):
    # The surviving history, certified by its replay, against that replay's ledger.
    report = adversary_separation(make_algorithm(name, 9), model=model, erase_on_discovery=True)
    assert report.erased
    assert_recount_is_spec(report.history, {"rmr_dsm": report.total_rmr_dsm,
                                            "rmr_cc": report.total_rmr_cc})


# -- the history's copy of the call list -------------------------------------


def assert_history_as_copied(runner: Runner) -> None:
    """``history()`` shares each closed record of the run and gives each open
    one as a copy, equal field by field to what the comprehension it
    replaced built; ``terminated``, and the history's ``finished``, are the
    processes that stepped and that ``_runnable`` says are not runnable."""
    history = runner.history()
    assert len(history.calls) == len(runner.calls)
    for got, rec in zip(history.calls, runner.calls):
        if rec.end_seq is not None:
            assert got is rec
        else:
            assert got is not rec
            assert got == CallRecord(rec.call_id, rec.proc, rec.kind, rec.response,
                                     rec.start_seq)
    assert runner.terminated == frozenset(
        pid for pid, state in runner.ctxs.items() if state.stepped and not _runnable(state))
    assert history.finished == runner.terminated


@given(configs(EVERY_PRIMITIVE), st.integers(0, 5))
def test_history_shares_closed_records_and_copies_open_ones(cfg, peeks):
    # A run cut by its step budget, often mid-call; then a Poll queued
    # behind an open call, which leaves its process between calls and not
    # terminated once the call returns; then calls closed under a
    # checkpoint nested in one that saw them begin, which its rollback
    # reopens as new records; then calls begun by peek, with no step yet.
    runner = execute(cfg)
    assert_history_as_copied(runner)
    waiting = [pid for pid in runner.runnable()
               if runner.open_call(pid) is not None and cfg.roles[pid].kind != SIGNAL]
    if waiting:
        runner.force_next_call(waiting[0], POLL)
        with suppress(StepBudgetExceeded):  # a Wait spinning on its own
            runner.run_call(waiting[0], max_steps=20)
        assert_history_as_copied(runner)
    free = [pid for pid in runner.runnable() if runner.open_call(pid) is None]
    runner.checkpoint()
    for pid in free:
        runner.step(pid)
    begun = [pid for pid in free if runner.open_call(pid) is not None]
    runner.checkpoint()
    closed = {}
    for pid in begun:
        with suppress(StepBudgetExceeded):  # a Wait spinning on its own
            closed[pid] = runner.run_call(pid, max_steps=20)
    assert_history_as_copied(runner)
    runner.rollback()
    for pid, rec in closed.items():
        reopened = runner.open_call(pid)
        assert reopened is not rec and reopened.call_id == rec.call_id
    assert_history_as_copied(runner)
    runner.rollback(close=True)
    runner.rollback(close=True)
    assert_history_as_copied(runner)
    for pid in [pid for pid in runner.runnable() if runner.open_call(pid) is None][:peeks]:
        runner.peek(pid)
    assert_history_as_copied(runner)


# -- the contract checkers against their generator-based oracles --------------


def oracle_polling(history):
    """``check_polling`` as it was before its flat passes, kept verbatim."""
    out: list[Violation] = []
    begun_signals = [
        c for c in history.calls if c.kind == SIGNAL and c.start_seq is not None
    ]
    completed_signals = [c for c in begun_signals if c.end_seq is not None]
    earliest_begun = min((c.start_seq for c in begun_signals), default=None)

    got_true_at: dict[int, int] = {}
    for call in history.calls:
        if call.kind != POLL:
            continue
        true_seq = got_true_at.get(call.proc)
        if true_seq is not None:
            out.append(Violation(
                HARNESS_MISUSE,
                call_ids=(call.call_id,),
                seqs=(true_seq,),
                message=f"process {call.proc} polled again after a true response",
            ))
            continue
        if call.end_seq is None:
            continue
        if call.response:
            got_true_at[call.proc] = call.end_seq
            if earliest_begun is None or earliest_begun >= call.end_seq:
                out.append(Violation(
                    POLL_TRUE_NO_SIGNAL,
                    call_ids=(call.call_id,),
                    seqs=(call.end_seq,),
                    message=f"poll by {call.proc} returned true before any signal began",
                ))
        else:
            culprit = next(
                (s for s in completed_signals if s.end_seq < call.start_seq), None
            )
            if culprit is not None:
                out.append(Violation(
                    POLL_FALSE_AFTER_SIGNAL,
                    call_ids=(call.call_id, culprit.call_id),
                    seqs=(call.start_seq, culprit.end_seq),
                    message=(
                        f"poll by {call.proc} returned false although signal "
                        f"by {culprit.proc} completed first"
                    ),
                ))
    return out


def oracle_blocking(history):
    """``check_blocking`` as it was before its flat passes, kept verbatim."""
    out: list[Violation] = []
    begun = [
        c.start_seq for c in history.calls
        if c.kind == SIGNAL and c.start_seq is not None
    ]
    for call in history.calls:
        if call.kind != WAIT or call.end_seq is None:
            continue
        if not any(s < call.end_seq for s in begun):
            out.append(Violation(
                WAIT_BEFORE_SIGNAL,
                call_ids=(call.call_id,),
                seqs=(call.end_seq,),
                message=f"wait by {call.proc} returned before any signal began",
            ))
    return out


def assert_checkers_match_oracles(history) -> None:
    # Violations are frozen dataclasses: equal lists mean equal kinds, call
    # ids, seqs and messages, in the same order.
    assert check_polling(history) == oracle_polling(history), history.calls
    assert check_blocking(history) == oracle_blocking(history), history.calls


@st.composite
def call_lists(draw) -> list[CallRecord]:
    """Calls in an arbitrary call order, their seqs unrelated to it and
    sometimes tied: Signals unbegun, open or completed; Polls true, false,
    open or after a true response; Waits open or returned."""
    records = []
    for call_id in range(draw(st.integers(0, 10))):
        kind = draw(st.sampled_from((SIGNAL, SIGNAL, POLL, POLL, WAIT)))
        start = end = response = None
        stage = draw(st.sampled_from(("unbegun", "open", "completed", "completed")))
        if stage != "unbegun":
            # Signals early and short, so later Polls often follow several.
            start = draw(st.integers(0, 4 if kind == SIGNAL else 8))
        if stage == "completed":
            end = start + draw(st.integers(0, 3))
            response = {POLL: draw(st.booleans()), WAIT: True}.get(kind)
        records.append(CallRecord(call_id, draw(st.integers(1, 2)), kind, response,
                                  start, end))
    return records


@settings(max_examples=400)  # cheap examples; ties at the bounds need many
@given(call_lists())
def test_contract_checkers_match_oracles_on_synthetic_calls(records):
    assert_checkers_match_oracles(
        History(events=[], calls=records, finished=frozenset(), incomplete=False, trace=()))


#: The configurations of perfbench's ``enum`` workload: the criterion-3
#: settings and the mutant.
ENUM_WORKLOAD = (
    *((name, params, polls, 12 if name == "dsm_fixed_waiters_term" else 25)
      for name, params, polls in CRITERION_3),
    ("mutant_single_waiter", (), ((2, 2),), 25),
)


def test_walk_builds_each_rebuilt_call_record_once(monkeypatch):
    # A walked path whose call has another id or start seq than a recorded
    # closed record gets a rebuilt one, built once per (recorded record,
    # path call id, start seq) and then shared: over the enum workload,
    # 2,182 rebuilt records fill 32,679 places in the histories' call lists.
    # (2,156 and 30,641 while a key held each open call's responses: the
    # frame key also merges calls that got different responses they do not
    # keep, so more paths walk a recorded node.)
    built = {}  # by id; kept alive here, so no id is reused

    def record(*args):
        rec = CallRecord(*args)
        if rec.end_seq is not None:
            built[id(rec)] = rec
        return rec

    monkeypatch.setattr(harness, "CallRecord", record)
    histories = held = 0
    used = set()
    for name, params, polls, depth in ENUM_WORKLOAD:
        roles = {pid: poll_at_most(calls) for pid, calls in polls}
        roles[1] = signal_once()
        for history in enumerate_histories(make_algorithm(name, 3, **dict(params)), roles, depth):
            histories += 1
            for rec in history.calls:
                if id(rec) in built:
                    held += 1
                    used.add(id(rec))
    assert histories == 21_248
    assert len(built) == len(used) == 2_182
    assert held == 32_679


def test_contract_checkers_match_oracles_on_every_enum_workload_history():
    histories = violations = 0
    for name, params, polls, depth in ENUM_WORKLOAD:
        roles = {pid: poll_at_most(calls) for pid, calls in polls}
        roles[1] = signal_once()
        for history in enumerate_histories(make_algorithm(name, 3, **dict(params)),
                                           roles, depth):
            assert_checkers_match_oracles(history)
            histories += 1
            violations += len(oracle_polling(history))
    assert histories == 21_248
    assert violations > 0  # the mutant's false Polls are among them


# -- drive against step ----------------------------------------------------


@dataclass(frozen=True)
class DriveCase:
    name: str
    n: int
    roles: dict
    # Per drive: a call forced before it, or None; the policy; the events
    # it may add to the budget.
    rounds: tuple


def make_policy(spec: tuple):
    """A fresh policy from its spec, so that two runs get twins."""
    if spec[0] == "random":
        return SeededRandom(spec[1])
    if spec[0] == "round-robin":
        return RoundRobin()
    return ExplicitSchedule(spec[1])


@st.composite
def drive_cases(draw) -> DriveCase:
    name, n, roles = draw_setting(draw, EVERY_PRIMITIVE + (Faulty.name,), 6)
    policies = st.one_of(
        st.integers(0, 2**32 - 1).map(lambda seed: ("random", seed)),
        st.just(("round-robin",)),
        st.lists(st.integers(1, n), max_size=80).map(lambda pids: ("explicit", tuple(pids))),
    )
    forced = st.none() | st.tuples(st.integers(1, n), st.sampled_from((POLL, POLL, SIGNAL, WAIT)))
    rounds = draw(st.lists(st.tuples(forced, policies, st.integers(1, 150)),
                           min_size=1, max_size=3))
    if 1 in roles and draw(st.integers(0, 3)) == 0:
        rounds[0] = ((1, SIGNAL), *rounds[0][1:])  # a second Signal, refused as queued
    return DriveCase(name, n, roles, tuple(rounds))


def step_loop(runner: Runner, policy, budget: int) -> None:
    """The oracle: drive's contract as a loop of single steps."""
    while runner.runnable() and len(runner.events) < budget:
        pid = policy.choose(runner.runnable())
        if pid is None:
            break
        runner.step(pid)


def engine_state(runner: Runner) -> tuple:
    """Everything a run holds: its events with all eight slots, its calls
    with all six fields, trace, words, ledger and runnable list, and each
    process's engine fields."""
    return (
        [(e.seq, e.proc, e.op, e.loc, e.home, e.value_read, e.value_written, e.writer_before)
         for e in runner.events],
        calls(runner),
        list(runner.trace),
        runner.mem.words(),
        ledger_state(runner),
        runner.ledger.totals(),
        runner.runnable(),
        [(s.pid, s.script, s.pending, s.gen is None, s.call and s.call.call_id, s.calls_made,
          s.forced, s.next_kind, s.part, s.stepped, dict(s.state)) for s in runner.ctxs.values()],
    )


def outcome_of(action) -> tuple | None:
    try:
        action()
    except SimError as exc:
        return type(exc).__name__, str(exc)
    return None


def assert_runs_as_scripted(runner: Runner) -> None:
    """What neither loop may break, since both close a call through one
    method: a process is runnable exactly while it has an open, a queued or
    a scripted call, and no script runs past its call bound."""
    assert runner.runnable() == [
        pid for pid, s in runner.ctxs.items()
        if s.call is not None or s.forced or s.next_kind is not None]
    for s in runner.ctxs.values():
        bound = s.script and s.script.max_calls
        assert bound is None or s.calls_made <= bound


@settings(max_examples=150)
@given(drive_cases())
# An undeclared primitive (process 2) and a call with no memory access (3),
# then a step of the call that made none.
@example(DriveCase("faulty", 3, {2: poll_at_most(3)}, ((None, ("round-robin",), 50),)))
@example(DriveCase("faulty", 3, {3: poll_until_true()},
                   ((None, ("round-robin",), 50), (None, ("round-robin",), 50))))
# A Wait the protocol has not, a second Signal, a refused signaler and a
# Poll by a process outside the waiters: each refused as it is queued, and
# the drives go on.
@example(DriveCase("cc_flag", 3, {2: poll_at_most(2), 1: signal_once()},
                   (((2, WAIT), ("explicit", (2,)), 50), (None, ("explicit", (2,)), 50))))
@example(DriveCase("cc_flag", 2, {1: signal_once(), 2: poll_at_most(1)},
                   (((1, SIGNAL), ("round-robin",), 50), ((1, SIGNAL), ("round-robin",), 50),
                    (None, ("round-robin",), 50))))
@example(DriveCase("dsm_registration", 3, {2: poll_until_true()},
                   ((None, ("random", 4), 3), ((3, SIGNAL), ("round-robin",), 20),
                    (None, ("round-robin",), 20))))
@example(DriveCase("dsm_single_waiter", 3, {1: signal_once(), 2: poll_at_most(2)},
                   ((None, ("random", 1), 2), ((3, POLL), ("round-robin",), 20),
                    (None, ("round-robin",), 20))))
def test_drive_steps_as_step_does(case):
    # drive's own loop against a loop of step with a twin of its policy:
    # after every drive, and after any refusal, the same run, the same
    # ledger and the same exception.  Budgets land inside calls, calls are
    # forced between drives, and the drives go on after a refusal.
    algorithm = build(case.name, case.n, case.roles)
    live, oracle = Runner(algorithm, case.roles), Runner(algorithm, case.roles)
    budget = 0
    for forced, spec, more in case.rounds:
        budget += more
        got = want = None
        if forced is not None:
            got = outcome_of(lambda: live.force_next_call(*forced))
            want = outcome_of(lambda: oracle.force_next_call(*forced))
        if got is None and want is None:
            got = outcome_of(lambda: live.drive(make_policy(spec), budget))
            want = outcome_of(lambda: step_loop(oracle, make_policy(spec), budget))
        assert got == want
        assert engine_state(live) == engine_state(oracle)
        # A policy picks a runnable process, which has a step to take.
        assert got is None or got[0] != SchedulingError.__name__, got
        assert_runs_as_scripted(live)
