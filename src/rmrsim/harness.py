"""Exploration and proof-style tooling over recorded runs.

* exhaustive bounded enumeration of interleavings: one walk over the
  configuration graph to a depth (``graph.ConfigurationGraph``) builds
  every history from its path.  The graph steps a configuration's edges
  when the walk first meets it, its one run backtracking to each branching
  point by rolling back a checkpoint; met again, the walk follows them.
  Every history is exactly what a normal run of its schedule produces;
* a stability probe, one per list of processes: a process is *stable* when
  letting it poll alone forever would never cost another remote reference.
  The probe is rolled back before a process only after a probed poll wrote
  or when that process was probed already since the last rollback: a read
  changes no word and no last writer, and a process's solo polls depend
  only on its own context and the words.  A process's configuration key
  is built where its polls start and after each poll that changed it; a
  poll that changed nothing is back where it began;
* erasure: removing every step of a process nobody observed (read a value
  it last wrote) yields another legal run, which is certified rather than
  trusted.  The drill asks the observed-by count the run's erase index
  keeps (``Runner.observers``) and erases in place for the Signal's steps
  to come; the erased run it reports is one replay of the surviving trace,
  which certifies every erasure at once.  ``erase`` replays per erasure and
  compares, the slow oracle, after the scan ``validate_erasure``;
* the adversary drill: stabilize a crowd of waiters, one probe per polling
  round, then make a signaler run alone and count what it must spend to
  reach them all; its last check polls the waiters on the finished run.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

from .costs import Model
from .errors import (
    ConfigError,
    DrillNotApplicable,
    EnumerationOverflow,
    ErasureRefused,
    ReplayDivergence,
    SimError,
    StepBudgetExceeded,
)
from .algorithms import READ_WRITE
from .graph import ConfigurationGraph
from .memory import Event
from .runner import (
    POLL,
    SIGNAL,
    CallRecord,
    History,
    Runner,
    Script,
    poll_until_true,
    waiter_roles,
)

_DSM = Model.DSM

DEFAULT_HORIZON = 10_000
DEFAULT_ENUM_BUDGET = 1_000_000
#: Drill limits: polling rounds to reach stability, and steps for Signal.
MAX_ROUNDS = 8
SIGNAL_BUDGET = 1_000_000


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------


def enumerate_histories(algorithm, roles: dict[int, Script], depth: int, *,
                        max_histories: int = DEFAULT_ENUM_BUDGET):
    """Yield every schedule interleaving up to ``depth`` steps, once each.

    One depth-first walk, lowest process first, over the configuration
    graph with ``depth`` (:class:`ConfigurationGraph`), a DAG whose key
    holds the event and call counts.  A node's edges come from the graph's
    one run, stepped when the walk first meets the node
    (:meth:`ConfigurationGraph.explore`), and from the node after that,
    which yields what stepping would, in the same order, as long as the
    protocol keeps its state in ``ctx.state``, as the rollback's rebuild of
    a call assumes too.  The run steps only as the walk asks for a new
    node's edges, so histories come out lazily.

    Every history is built from the walk's path, and shares with others,
    which is why none may change them, the recorded events (which name no
    call) and the call records on edges.  A call open at a node may have
    another id and start seq on this path than where the node was recorded
    (calls begun below it have the same ids on every path: the key holds
    the call count); its recorded closed record is then rebuilt, once per
    recorded record, path id and start seq.  No calls are queued, so each
    event's process is its trace entry.

    A history is maximal when every process terminated or the depth was
    reached (the latter are yielded with ``incomplete`` set).  Raises
    :class:`EnumerationOverflow` past ``max_histories`` histories, and
    :class:`ReplayDivergence` when a call rebuilt on a rollback asks for
    another step than it took, which a protocol keeping state outside
    ``ctx.state`` does.
    """
    # No ledger is read: the histories are the output.
    graph = ConfigurationGraph(algorithm, roles, depth)
    # Rebuilt closed records by (recorded record's id, path call id, start
    # seq); the graph keeps every recorded record, so no id is reused.
    relabelled: dict[tuple, CallRecord] = {}
    # Each edge's event and process go in at its seq; a leaf takes those to its own.
    events, procs = [None] * depth, [None] * depth
    # For the deepest node with edges on the path, and in ``stack`` for each
    # above it: its edges left, the path's call records by call id, and each
    # process's open call id by pid (a closed call's stays till the next begins).
    edges, stack = iter(()), []
    calls, opened = path_calls, path_opened = [], [None] * (algorithm.n + 1)
    node, seq, explored = graph.root, 0, 0
    while True:
        if node.end is None:
            stack.append((edges, calls, opened))
            edges = iter(node.edges) if node.edges else graph.explore(node)
            calls, opened = path_calls, path_opened
        else:
            explored += 1
            if explored > max_histories:
                raise EnumerationOverflow(explored - 1, max_histories)
            yield History(events[:seq], list(path_calls), *node.end, tuple(procs[:seq]))
        while True:  # the next edge, of the deepest node with one left
            for pid, ev, node, begun, closed in edges:
                break
            else:
                if not stack:
                    return
                edges, calls, opened = stack.pop()
                continue
            break
        path_calls, path_opened = calls, opened
        if begun is not None:
            path_calls = calls + [begun]
            if closed is None:
                path_opened = opened.copy()
                path_opened[pid] = begun.call_id
        elif closed is not None:
            cid = opened[pid]
            start = calls[cid].start_seq
            if closed.call_id != cid or closed.start_seq != start:
                key = (id(closed), cid, start)
                rebuilt = relabelled.get(key)
                if rebuilt is None:
                    rebuilt = relabelled[key] = CallRecord(
                        cid, pid, closed.kind, closed.response, start, ev.seq)
                closed = rebuilt
            path_calls = calls.copy()
            path_calls[cid] = closed
        events[ev.seq] = ev
        procs[ev.seq] = pid
        seq = ev.seq + 1


# ---------------------------------------------------------------------------
# Stability
# ---------------------------------------------------------------------------


class StabilityResult(NamedTuple):
    stable: bool
    solo_calls: int


def stability(base: Runner, pids, *, model: Model = Model.DSM,
              horizon: int = DEFAULT_HORIZON) -> list[StabilityResult | None]:
    """Decide for each of ``pids``, in order, whether it, polling alone from
    here on, ever pays another RMR under ``model``.

    UNSTABLE as soon as a solo poll costs an RMR.  STABLE when a solo poll
    returns true (no further polls are legal) or when the configuration the
    process can observe without an RMR (its persistent state plus the
    memory it can read locally) repeats between calls, which pins the solo
    run in a zero-cost cycle.  None, undecided, when the horizon comes first.
    A poll that paid nothing, made no nontrivial step and left the state
    equal repeats the configuration it began from, and no key is built for
    it.  That is exact: an unpaid nontrivial step is the only one that can
    change a word the process reads locally (under DSM one of its own
    module; under CC every nontrivial step pays).

    One probe holds every process's polls.  It is rolled back before a
    process only when the polls probed since the last rollback made a
    nontrivial step, or when that process was probed since.  Otherwise
    the process polls from the run as it was: the polls before it only
    read, and a read changes no word and no last writer, while a process's
    solo polls depend only on its own ``ctx`` and the words.  Each poll
    is charged from its own events: under CC against the holder table of
    a ledger read once before the probe opens, which the probe's steps
    leave as it is.
    """
    if horizon < 1:
        raise ValueError("stability horizon must be at least 1")
    pids = list(pids)
    for pid in pids:
        if not base.is_active(pid):
            raise SimError(f"process {pid} is not active")
    cache = None if model is _DSM else base.ledger.cache
    verdicts = []
    with base.probe(pids):
        events = base.events  # the run's own list, which a rollback truncates
        probed, wrote = set(), False  # since the last rollback
        for pid in pids:
            if wrote or pid in probed:
                base.rollback()
                probed.clear()
            probed.add(pid)
            verdict, wrote = _solo(base, events, pid, cache, horizon)
            verdicts.append(verdict)
    return verdicts


def _solo(run: Runner, events: list[Event], pid: int, cache: dict[int, set[int]] | None,
          horizon: int) -> tuple[StabilityResult | None, bool]:
    """``pid``'s :func:`stability` verdict, from solo polls in the open
    probe whose run has ``events``, and whether they made a nontrivial step.

    A poll pays an RMR for an event under DSM (``cache`` None) that
    accesses another module, under CC for a nontrivial step or an access
    to a word ``pid`` held no copy of in the holder table ``cache``, which
    only such an event changes.  The configuration compared between polls
    is everything a solo run of ``pid`` can branch on without paying: its
    persistent local state, plus under DSM the values in its own module.
    Under CC the state alone: the words it can read locally are those it
    holds a copy of, which no step changes before one pays.

    A key is built only once a poll changed the configuration: for the
    one the polls started from, then for each one a poll changed.  A poll
    that paid nothing, made no nontrivial step and left the state equal to
    a copy taken before it changed neither: it is back at a configuration
    already seen.  The state holds only values, which the probe's
    checkpoint checks."""
    # Every event from here on is one of pid's; the first ``checked`` paid nothing.
    checked = len(events)
    ctx = run.ctxs[pid]
    snapshot = run.mem.module_snapshot if cache is None else None
    state = dict(ctx.state)  # as the next poll finds it
    module = None if snapshot is None else snapshot(pid)  # likewise; None under CC
    seen = None  # the keys met, (sorted state, module), once a poll changed one
    wrote = False
    for made in range(1, horizon + 1):
        run.force_next_call(pid, POLL)
        try:
            rec = run.run_call(pid, max_steps=horizon)
        except StepBudgetExceeded:
            rec = None
        paid = moved = False
        for e in events[checked:]:
            trivial = e.op.trivial
            if not trivial:
                moved = True
            if (e.home != pid if cache is None
                    else not trivial or pid not in cache.get(e.loc, ())):
                paid = True
        wrote = wrote or moved
        if paid:
            return StabilityResult(False, made), wrote
        if rec is None:
            return None, wrote
        if rec.response:
            return StabilityResult(True, made), wrote
        now = ctx.state
        if not moved and now == state:
            return StabilityResult(True, made), wrote
        if seen is None:  # the start's key, now that a poll changed something
            seen = {(tuple(sorted(state.items())), module)}
        checked = len(events)
        state = dict(now)
        module = None if snapshot is None else snapshot(pid)
        config = tuple(sorted(state.items())), module
        if config in seen:
            return StabilityResult(True, made), wrote
        seen.add(config)
    return None, wrote


# ---------------------------------------------------------------------------
# Erasure
# ---------------------------------------------------------------------------


def validate_erasure(history: History | list, p: int) -> bool:
    """True iff removing every step of ``p`` cannot change anyone else's
    steps: nobody read a value last written by ``p``.  A scan of the whole
    run: the oracle for :meth:`Runner.observers`, the observed-by count the
    drill asks."""
    events = history.events if isinstance(history, History) else history
    return not any(e.proc != p and e.op.reads_value and e.writer_before == p for e in events)


def erase(base: Runner, p: int) -> Runner:
    """Replay the run with every step of ``p`` dropped from the schedule,
    into a separate runner; ``base`` is left as it was.

    Refused unless :func:`validate_erasure` holds.  The survivors' replayed
    steps are then compared against their originals; any difference means
    the validator is wrong and raises :class:`ReplayDivergence`.  This is
    the slow oracle that ``Runner.erase``, the in-place erasure, is tested
    against.  No product path calls it; the perfbench tracer hooks it by name.
    """
    if not base.is_active(p):
        raise SimError(f"process {p} is not active; only active processes can be erased")
    if not validate_erasure(base.events, p):
        raise ErasureRefused(f"some process observed {p}; erasure would change the run")
    trace = [
        entry for entry in base.trace
        if (entry[1] if isinstance(entry, tuple) else entry) != p
    ]
    replayed = Runner.replay(base.algorithm, base.roles, trace)
    _assert_survivors_match([e for e in base.events if e.proc != p],
                            [c for c in base.calls if c.proc != p], replayed)
    return replayed


def _assert_survivors_match(events: list[Event], calls: list[CallRecord],
                            replayed: Runner) -> None:
    """The survivors' steps (:meth:`Event.signature`) and the kinds and
    responses of their begun calls, in order, must be the replay's, or
    :class:`ReplayDivergence`."""
    if [e.signature() for e in events] != [e.signature() for e in replayed.events]:
        raise ReplayDivergence("the survivors' events differ from a replay of their trace")
    # A call with no steps yet has not begun; it materializes lazily and is
    # not part of the run being compared.
    begun = [(c.proc, c.kind, c.response) for c in calls if c.start_seq is not None]
    if begun != [(c.proc, c.kind, c.response) for c in replayed.calls
                 if c.start_seq is not None]:
        raise ReplayDivergence("the survivors' calls differ from a replay of their trace")


# ---------------------------------------------------------------------------
# The adversary drill
# ---------------------------------------------------------------------------


#: A drill record's keys, in the order of the sweep's CSV columns.
RECORD_KEYS = ("algorithm", "model", "W", "k", "signaler_rmrs",
               "total_rmr_dsm", "total_rmr_cc", "msg_bus", "msg_dir")


@dataclass(slots=True)
class SeparationReport:
    """Outcome of one adversary drill.

    ``post_poll_ok`` records whether every waiter still active after the
    drill got true from its next poll, which is the correctness property
    the drill leans on.
    """

    algorithm: str
    model: str
    W: int
    k: int | None = None
    signaler_rmrs: int | None = None
    total_rmr_dsm: int | None = None
    total_rmr_cc: int | None = None
    msg_bus: int | None = None
    msg_dir: int | None = None
    signaler: int | None = None
    erased: int = 0
    post_poll_ok: bool | None = None
    history: History | None = None

    def to_record(self) -> dict:
        """The fixed wire format: the fields named in ``RECORD_KEYS``."""
        return {key: getattr(self, key) for key in RECORD_KEYS}


def adversary_separation(algorithm, *, model: Model = Model.DSM, signaler: int | None = None,
                         erase_on_discovery: bool = False) -> SeparationReport:
    """Run the two-phase separation drill on ``algorithm``'s waiters.

    Phase one schedules the waiters' polls (Poll, also under ``+blocking``)
    round-robin, one complete poll per waiter per round, until the round's
    one stability probe finds every waiter stable (undecided counts as
    unstable), for at most ``MAX_ROUNDS`` rounds, else it raises
    :class:`DrillNotApplicable`.  Each waiter then has no open call.  Phase
    two runs a Signal alone to completion, counting its remote references.
    The process that signals is the one :func:`waiter_roles` picks, the
    designated signaler, else the lowest process that does not wait, unless
    ``signaler`` names another: a waiter may signal, but a designated
    signaler admits no other.

    With ``erase_on_discovery`` (read/write-only algorithms; any other
    raises :class:`DrillNotApplicable`), whenever the signaler is about to
    read a value last written by a still active unobserved waiter, or to
    write into such a waiter's module, that waiter is erased first, and any
    unobserved waiters left after Signal are erased too; the surviving
    history then has few participants but all of the signaler's spending.
    Erasures run in place, for the Signal's steps to come; the report reads
    the erased run from one replay of the surviving trace, which certifies
    them all: a difference raises :class:`ReplayDivergence`.  Last, each
    waiter still active polls once more on the finished run: ``post_poll_ok``.
    """
    if erase_on_discovery and not algorithm.primitives <= READ_WRITE:
        raise DrillNotApplicable(
            f"erase mode needs a read/write-only algorithm; {algorithm.name} uses "
            + ", ".join(sorted(k.value for k in algorithm.primitives - READ_WRITE))
        )
    roles, s = waiter_roles(algorithm, poll_until_true())
    if signaler is not None:
        if not 1 <= signaler <= algorithm.n:
            raise ConfigError(f"signaler {signaler} outside 1..{algorithm.n}")
        if algorithm.designated_signaler not in (None, signaler):
            raise DrillNotApplicable(
                f"{algorithm.name} fixes the signaler to {algorithm.designated_signaler}"
            )
        s = signaler
    waiters = algorithm.waiters
    report = SeparationReport(algorithm=algorithm.name, model=model.value, W=len(waiters),
                              signaler=s)
    runner = Runner(algorithm, roles)

    for _ in range(MAX_ROUNDS):
        try:
            for w in waiters:
                runner.run_call(w, max_steps=DEFAULT_HORIZON)
        except StepBudgetExceeded:
            raise DrillNotApplicable(
                f"a poll by waiter {w} ran past {DEFAULT_HORIZON} steps") from None
        verdicts = stability(runner, waiters, model=model)
        if all(v is not None and v.stable for v in verdicts):
            break
    else:
        paying = [w for w, v in zip(waiters, verdicts) if v is not None and not v.stable]
        undecided = [w for w, v in zip(waiters, verdicts) if v is None]
        raise DrillNotApplicable("; ".join(
            f"waiters {ws[:8]} ({len(ws)} of {report.W}) {why} after {MAX_ROUNDS} polling rounds"
            for ws, why in ((paying, "still pay RMRs"),
                            (undecided, "are undecided at the stability horizon")) if ws))

    runner.force_next_call(s, SIGNAL)
    runner.peek(s)  # begins the Signal, so its record can be kept
    signal = runner.open_call(s)
    steps = 0
    while signal.open:
        if erase_on_discovery:
            target = _discovery_target(runner, s)
            if target is not None:
                runner.erase(target)
                report.erased += 1
                continue
        runner.step(s)
        steps += 1
        if steps > SIGNAL_BUDGET:
            raise DrillNotApplicable(f"Signal by {s} ran past {SIGNAL_BUDGET} steps")

    if erase_on_discovery:
        # The signaler may be one of the waiters; it is never erased.
        report.erased += _erase_unobserved(runner, [w for w in waiters if w != s])
    if report.erased:
        runner = _certify(runner)

    ledger = runner.ledger
    report.k = len(runner.participants())
    report.signaler_rmrs = ledger.rmr(model, s)
    report.total_rmr_dsm = ledger.total_rmr_dsm
    report.total_rmr_cc = ledger.total_rmr_cc
    report.msg_bus = ledger.total_msg_bus
    report.msg_dir = ledger.total_msg_dir
    report.history = runner.history()
    # Last: the history shares only closed call records, which never change.
    report.post_poll_ok = _verify_post_polls(runner, waiters)
    return report


def _discovery_target(runner: Runner, s: int) -> int | None:
    """The active, unobserved process the signaler's next step would
    observe (read its last write) or whose module it would write."""
    req = runner.peek(s)
    if req is None:
        return None
    kind, loc, _ = req
    if kind.reads_value:
        writer = runner.mem.current_writer(loc)
        if (writer is not None and writer != s and runner.is_active(writer)
                and not runner.observers(writer)):
            return writer
    if not kind.trivial and loc.home != s and runner.is_active(loc.home):
        if not runner.observers(loc.home):
            return loc.home
    return None


def _erase_unobserved(runner: Runner, waiters) -> int:
    """Erase, in place, every waiter still active that nobody observed;
    return how many were erased.  The waiters are picked in order, each
    erasure taking its waiter's reads out of the observed-by count before
    the next pick."""
    erased = 0
    for w in waiters:
        if runner.is_active(w) and not runner.observers(w):
            runner.erase(w)
            erased += 1
    return erased


def _certify(runner: Runner) -> Runner:
    """The erased run: one replay of the run's surviving trace, in which
    every survivor must take the steps and get the responses it had.  A
    difference means an erased process was observed after all, and raises
    :class:`ReplayDivergence`."""
    rebuilt = runner.fork()
    _assert_survivors_match(runner.events, runner.calls, rebuilt)
    return rebuilt


def _verify_post_polls(runner: Runner, waiters) -> bool:
    """Every waiter still active must get true from its next poll, run on
    ``runner`` itself, with no probe: the drill's run is finished."""
    for w in [w for w in waiters if runner.is_active(w)]:
        runner.force_next_call(w, POLL)
        if not runner.run_call(w).response:
            return False
    return True
