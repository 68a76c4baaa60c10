"""Deterministic execution engine.

Each process runs a *script* (its planned sequence of procedure calls) and
the procedure bodies are generators that yield one primitive operation per
step.  The engine owns all interleaving: a scheduled step applies exactly
one memory operation of one process.  Interleaving decisions are recorded
in a *trace*, so any run can be rebuilt bit-identically by replaying the
trace, which is what the determinism guarantees rest on, and what
certifies an erasure.

Each process is one record in ``Runner.ctxs``: the context its procedure
bodies receive, extended with the engine's state for it (script position,
queued calls, open call, and whether it has stepped).  A process has
terminated when it has stepped and has no open, queued or scripted call.

A *checkpoint* lets the run go on and then come back: while one is open,
each step journals the word it changes and each process's state is saved
before it first changes (``ctx.state`` may then hold only values, so that
the save is a copy), and a rollback undoes both and rebuilds every call it
reopens by re-sending its recorded responses.  Exhaustive enumeration
backtracks this way, and a *probe* ("what if these processes made more
calls from here?") is a checkpoint that only the probed processes may act
under.  An *erasure* takes a process nobody observed out
of the live run, at the cost of what the process touched, so that the
others step on as in a replay without it; the erased run itself, numbered
and charged as a run, is that replay (:meth:`Runner.fork`), which
certifies the erasure.  One erase index, built on first use, finds an
erasure's work and counts who observed whom.

Procedure-call rules enforced here: a process makes calls one at a time,
calls Signal at most once and only if the protocol designates no other
signaler, calls Poll or Wait only if it is one of the protocol's waiters,
and Wait only on a ``+blocking`` protocol; a scripted poller stops polling
after a call returns true.  The role rules are checked where a call is
planned, when the run is built or the call queued, so every call that
begins is one its process may make.  Every procedure call must perform at
least one memory access.

Per event a step calls ``Memory.apply`` once and resumes the procedure
body once.  :meth:`Runner.step` is the single step that enumeration, the
drill, replay and ``run_call`` take; :meth:`Runner.drive` runs the same
per-step core in its own loop while no checkpoint is open, with ``step``
as its oracle, and both close a returning call through one method.  The
ledger is folded from the run's events at each read; the erase index
folds the events added since it was last read, and refuses every read
while a checkpoint is open, so a rollback has nothing of it to undo.

The run's event, call and trace lists only grow, but for a rollback's
truncation and the new record it puts in place of a closed call it reopens:
:meth:`Runner.history` shares closed records, so none is ever changed.  An
open record keeps its identity.  An erasure cuts nothing out of the lists:
below its process's watermark, their entries no longer count.
"""

from __future__ import annotations

import bisect
import contextlib
import random
from collections import defaultdict
from dataclasses import dataclass, field
from typing import Iterable, Iterator, Sequence

from .algorithms import Ctx
from .costs import RmrLedger
from .errors import (
    ConfigError,
    ReplayDivergence,
    RoleError,
    SchedulingError,
    SimError,
    StepBudgetExceeded,
)
from .memory import Event, Location, Memory, OpKind

_KINDS = tuple(OpKind)  # in declaration order; iterating the enum itself is slow
_new = object.__new__  # builds a CallRecord without its __init__: see _ensure_pending

DEFAULT_BUDGET = 100_000

POLL = "Poll"
SIGNAL = "Signal"
WAIT = "Wait"
_CALL_KINDS = (POLL, SIGNAL, WAIT)


# ---------------------------------------------------------------------------
# Scripts
# ---------------------------------------------------------------------------


@dataclass(frozen=True, slots=True)
class Script:
    """What a process plans to call: ``kind``, one of POLL, SIGNAL and
    WAIT, until a Poll returns true or after ``max_calls`` calls.

    A poller without a bound polls until true; one with a bound gives up
    and terminates after that many false responses.  ``signal_once`` and
    ``wait_once`` make one call.
    """

    kind: str
    max_calls: int | None = None


def poll_until_true() -> Script:
    return Script(POLL, None)


def poll_at_most(calls: int) -> Script:
    return Script(POLL, calls)


def signal_once() -> Script:
    return Script(SIGNAL, 1)


def wait_once() -> Script:
    return Script(WAIT, 1)


def waiter_roles(algorithm, script: Script) -> tuple[dict[int, Script], int]:
    """Roles in which each of ``algorithm``'s waiters runs ``script``, and
    the process that signals by default: the designated signaler, else the
    lowest process that does not wait."""
    waiters = algorithm.waiters
    signaler = algorithm.designated_signaler
    if signaler in waiters:
        raise ConfigError(f"waiter id {signaler} is {algorithm.name}'s designated signaler")
    if signaler is None:
        signaler = next((p for p in range(1, algorithm.n + 1) if p not in waiters), None)
        if signaler is None:
            raise ConfigError("no process left to signal; lower the waiter count")
    return dict.fromkeys(waiters, script), signaler


# ---------------------------------------------------------------------------
# Histories
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CallRecord:
    """One procedure call: its interval in the event sequence and response.

    ``start_seq`` is the seq of the call's first event (a call with no
    events has not begun); ``end_seq`` is the seq of the event on which the
    call returned, or None while the call is open.  Once closed, a record
    is never changed, since histories share it.

    :meth:`Runner._ensure_pending` builds each call's record slot by slot,
    without the ``__init__`` frame of a class call; a field added here must
    be stored there too.
    """

    call_id: int
    proc: int
    kind: str
    response: object = None
    start_seq: int | None = None
    end_seq: int | None = None

    @property
    def open(self) -> bool:
        return self.end_seq is None


@dataclass(slots=True)
class History:
    """An execution: the event sequence plus its procedure-call records.

    ``finished`` holds the processes that terminated; ``incomplete`` is set
    when the run stopped while some process still had steps to take (budget
    exhaustion during a busy-wait, a depth cutoff, or a schedule that ended
    early).  ``trace`` is the replay recipe.  Treat a history as immutable:
    it builds its participants once, on their first read.
    """

    events: list[Event]
    calls: list[CallRecord]
    finished: frozenset[int]
    incomplete: bool
    trace: tuple
    _participants: frozenset[int] | None = field(default=None, init=False, repr=False,
                                                 compare=False)

    @property
    def participants(self) -> frozenset[int]:
        """The processes that took a step: every step lies in a begun call
        of its process, and every begun call has a step."""
        found = self._participants
        if found is None:
            found = self._participants = frozenset(
                [c.proc for c in self.calls if c.start_seq is not None])
        return found


# ---------------------------------------------------------------------------
# Scheduling policies
# ---------------------------------------------------------------------------


class RoundRobin:
    """Cycle through runnable processes in ascending id order.

    Every policy answers None, "stop", when nothing is runnable."""

    def __init__(self):
        self._last = 0

    def choose(self, runnable: Sequence[int]) -> int | None:
        for pid in runnable:
            if pid > self._last:
                self._last = pid
                return pid
        if not runnable:
            return None
        self._last = runnable[0]
        return runnable[0]


class SeededRandom:
    """Uniform choice among runnable processes from a seeded generator."""

    def __init__(self, seed: int):
        self.seed = seed
        self._bits = random.Random(seed).getrandbits

    def choose(self, runnable: Sequence[int]) -> int | None:
        # What randrange(n) draws, without its argument checks.  Only at
        # n = 0, which has no r < n, does a draw retry forever: tested in
        # the retry loop, it costs the common draw nothing.
        n = len(runnable)
        k = n.bit_length()
        r = self._bits(k)
        while r >= n:
            if not n:
                return None
            r = self._bits(k)
        return runnable[r]


class ExplicitSchedule:
    """Follow a fixed process-id sequence; entries that are not currently
    runnable are skipped, and the run stops when the sequence ends."""

    def __init__(self, sequence: Iterable[int]):
        self._entries = list(sequence)
        self._pos = 0

    def choose(self, runnable: Sequence[int]) -> int | None:
        while self._pos < len(self._entries):
            pid = self._entries[self._pos]
            self._pos += 1
            if pid in runnable:
                return pid
        return None


# ---------------------------------------------------------------------------
# The engine
# ---------------------------------------------------------------------------


class _ProcState(Ctx):
    """One process: the context its procedure bodies receive, which read
    only its :class:`Ctx` fields, and the engine's state for it.

    ``script`` is the process's role, or None.  ``next_kind`` is the
    script's next call as of the last return, read when the process starts
    a call, and ``forced`` the calls queued ahead of the script, a tuple
    that a save shares.  ``stepped`` says whether the process has taken a
    step.  ``part`` is a copy of ``state`` as the open call found it, for a
    call begun under a checkpoint, which a rollback restarts the body from
    (never the current ``state``, which a body may change before it
    yields); else None."""

    __slots__ = ("script", "gen", "call", "pending", "calls_made", "forced",
                 "next_kind", "part", "stepped")


class _Erased:
    """The index erasures find their work through: ``by_proc`` gives each
    process's event positions since its last erasure, ``by_word`` each
    word's, ``observed[p]`` how many value-reading events of others have
    ``p`` as their writer before; it covers the first ``upto`` events.
    ``dead[p]``, ``p``'s watermark, holds the event, call and trace list
    lengths at its last erasure: its entries below them are erased."""

    __slots__ = ("by_proc", "by_word", "observed", "upto", "dead")

    def __init__(self, n: int):
        self.by_proc: list[list[int]] = [[] for _ in range(n + 1)]
        self.by_word: defaultdict[int, list[int]] = defaultdict(list)
        self.observed = [0] * (n + 1)
        self.upto = 0
        self.dead = [(0, 0, 0)] * (n + 1)


class Runner:
    """A single deterministic simulation instance.

    Confined to one thread of control.  :meth:`checkpoint` and
    :meth:`rollback` let a run branch and come back in place, which costs
    the steps taken since instead of a replay of the whole trace;
    :meth:`probe` runs extra calls of some processes under a checkpoint and
    rolls them back.  :meth:`erase` takes a process out in place, at the
    cost of what that process touched, for the steps still to come; one
    :meth:`fork` then builds the erased run.
    """

    def __init__(self, algorithm, roles: dict[int, Script]):
        self.algorithm = algorithm
        n = algorithm.n
        self.n = n
        waiters = frozenset(algorithm.waiters)  # who may call Poll or Wait
        self._waiters = waiters
        for pid, script in roles.items():
            kind = script.kind
            if pid in waiters and (kind == POLL or kind == WAIT and algorithm.blocking):
                continue  # a waiter's Poll or Wait, which every check below lets pass
            if not 1 <= pid <= n:
                raise ConfigError(f"role process {pid} outside 1..{n}")
            if kind not in _CALL_KINDS:
                raise ConfigError(f"unknown script kind {kind!r}")
            self._check_role(pid, kind)
            if kind == SIGNAL and (script.max_calls is None or script.max_calls > 1):
                raise RoleError(f"process {pid} may call Signal at most once")
        self.roles = dict(roles)
        self.mem = Memory(self.n)
        self.locs = algorithm.setup(self.mem)
        # For step's check, the declared kinds in OpKind's order: a tuple
        # matches by identity and finds READ, the commonest, first.  The
        # frozenset's own order follows the hash seed, and so would the cost.
        self._primitives = tuple(sorted(algorithm.primitives, key=_KINDS.index))
        self._apply = self.mem.apply
        # Each process's one record: its context, its role and the engine's state.
        self.ctxs: dict[int, _ProcState] = {}
        self._live: list[int] = self._fresh(range(1, n + 1))
        self._bodies = {POLL: algorithm.poll, SIGNAL: algorithm.signal, WAIT: algorithm.wait}
        self._events: list[Event] = []
        self._calls: list[CallRecord] = []
        self._trace: list = []
        self._was_erased = False
        # Set while a checkpoint is open: per step, in step order, the word
        # it is about to change.
        self._undo: list | None = None
        # Open checkpoints, innermost last: the event, call and trace list
        # lengths, the undo log's length, and the processes' saved states.
        self._checkpoints: list[tuple] = []
        self._saved: dict[int, tuple] | None = None  # the innermost one's
        self._probed: frozenset[int] | None = None  # set while a probe is open
        # Built by the first erasure or observed-by query, for good.
        self._erased: _Erased | None = None
        # Per process in a call, its share of the key but the queued calls
        # and the pending request it was built at; a checkpoint saves it too.
        self._call_keys: dict[int, tuple | None] = {}

    # -- public state -----------------------------------------------------

    @property
    def events(self) -> list[Event]:
        """The run's events; ``events[i].seq == i`` until an erasure, after
        which the survivors' keep their seqs."""
        return self._kept(self._events, 0)

    @property
    def calls(self) -> list[CallRecord]:
        """Every call begun, in the order begun; ``calls[i].call_id == i``
        until an erasure, after which the survivors' keep their ids."""
        return self._kept(self._calls, 1)

    @property
    def trace(self) -> list:
        """The replay recipe: a pid per step, ``("force", pid, kind)`` per
        queued call."""
        return self._kept(self._trace, 2)

    @property
    def terminated(self) -> frozenset[int]:
        """The processes that have stepped and have no call left to make:
        :func:`_runnable`'s test, read in place."""
        return frozenset([pid for pid, state in self.ctxs.items()
                          if state.stepped and state.call is None
                          and not state.forced and state.next_kind is None])

    def runnable(self) -> list[int]:
        """Processes with at least one enabled step, ascending."""
        return list(self._live)

    def open_call(self, pid: int) -> CallRecord | None:
        return self._record(pid).call

    def participants(self) -> frozenset[int]:
        return frozenset([pid for pid, state in self.ctxs.items() if state.stepped])

    def is_active(self, pid: int) -> bool:
        """Whether ``pid`` has taken a step and not terminated."""
        state = self.ctxs.get(pid)
        return state is not None and state.stepped and _runnable(state)

    def observers(self, p: int) -> int:
        """How many value-reading events of other processes read a value
        whose last writer was ``p``, from the erase index (so refused while
        a checkpoint is open); an erasure takes out its process's own
        reads."""
        self._record(p)  # refuses an id outside 1..n
        return self._index().observed[p]

    @property
    def ledger(self) -> RmrLedger:
        """The run's costs: a ledger folded from its events at this read,
        which later steps leave as it is, so hold it to read it more than
        once.  Refused after an erasure."""
        if self._was_erased:
            self._refuse("the ledger")
        return RmrLedger(self.n, self._events)

    def history(self) -> History:
        """A snapshot of the run.  It shares the closed call records, which
        never change, and copies the open ones: each process's open call,
        the only open records in the list."""
        if self._was_erased:
            self._refuse("history()")
        calls = list(self._calls)
        for state in self.ctxs.values():
            c = state.call
            if c is not None:
                calls[c.call_id] = CallRecord(c.call_id, c.proc, c.kind, c.response, c.start_seq)
        return History(
            events=list(self._events),
            calls=calls,
            finished=self.terminated,
            incomplete=bool(self._live),
            trace=tuple(self._trace),
        )

    def configuration(self) -> tuple:
        """A hashable key of what the run's further steps depend on, the
        ledger aside: the words' values and last writers, and per process
        its calls made, next kind, ``ctx.state`` items and queued calls, and
        for an open call its pending request and its frames
        (:func:`_call_key`).  No event or call count: a search to a depth
        adds those (``graph.ConfigurationGraph``).

        Two runs with equal keys take the same steps, up to the ids and
        start seqs of the calls open now, if every protocol body keeps the
        soundness rule of :class:`SignalingAlgorithm`: its next steps depend
        only on its frame's program point and named locals, on
        ``ctx.state`` and on what it reads.  A rollback's rebuild of a call
        assumes that too.

        A process's share in an open call is built once per request.  By
        the same rule each step of a body makes a new request, and only a
        step moves the frames or changes ``ctx.state``, calls made and next
        kind, so while the pending request is the one a share was built at,
        the share holds.  A checkpoint saves it with its process, and a
        rollback, whose rebuild of the call comes back to the saved request,
        keeps it.  The queued calls, which ``force_next_call`` changes at
        any time, go in beside it.
        """
        if self._was_erased:
            self._refuse("configuration()")
        key = [self.mem.words()]
        append, call_keys = key.append, self._call_keys
        for pid, state in self.ctxs.items():
            if state.call is None:
                items = state.state
                append((state.calls_made, state.next_kind, tuple(items.items()) if items else ()))
            else:
                req = state.pending  # None once the body raised
                known = call_keys.get(pid)
                if known is None or known[0] is not req:
                    known = call_keys[pid] = (req, (
                        state.calls_made, state.next_kind, tuple(state.state.items()),
                        *_call_key(req, state.gen)))
                append(known[1])
            append(state.forced)
        return tuple(key)

    # -- scheduling -------------------------------------------------------

    def step(self, pid: int) -> Event:
        """Run one step of ``pid``: apply one memory operation and resume
        the procedure body up to its next operation or return."""
        try:
            state = self.ctxs[pid]
        except KeyError:
            self._record(pid)  # raises
        req = state.pending or self._ensure_pending(state)
        if req is None:
            raise SchedulingError(f"process {pid} has no enabled step")
        kind, loc, value = req
        if kind not in self._primitives:
            raise ConfigError(
                f"{self.algorithm.name} issued undeclared primitive {kind.value}"
            )
        rec = state.call
        undo = self._undo
        if undo is not None:  # journal the word
            if pid not in self._saved:
                self._touch(state)
            if state.part is None:
                raise SimError(f"process {pid}'s call began before any checkpoint; "
                               "it cannot step under one")
            if not kind.trivial:  # a read changes no value and no last writer
                undo.append(self.mem.save_word(loc.uid))
        events = self._events
        ev = self._apply(pid, kind, loc, value, len(events))
        self._trace.append(pid)
        events.append(ev)
        if rec.start_seq is None:
            rec.start_seq = ev.seq
            state.stepped = True
        state.pending = None
        try:
            state.pending = state.gen.send(ev.value_read)
        except StopIteration as stop:
            self._return(state, rec, stop.value, ev.seq)
        return ev

    def drive(self, policy, budget: int = DEFAULT_BUDGET) -> None:
        """Step per policy until nothing is runnable or the budget, counted
        in events taken (erased ones too), is spent.

        With no checkpoint open, the loop runs :meth:`step`'s per-step core
        in its own frame, with the run's lists and methods bound once and
        the seq counted in a local; ``step``, which a differential test
        holds it to, is its oracle.  Under a checkpoint every step goes
        through ``step``, which journals.  The policy only chooses: it must
        not act on the run."""
        live, events, choose = self._live, self._events, policy.choose
        if self._undo is not None:
            step = self.step
            while live and len(events) < budget:
                pid = choose(live)
                if pid is None:
                    break
                step(pid)
            return
        ctxs, trace, primitives = self.ctxs, self._trace, self._primitives
        apply, ensure, returned = self._apply, self._ensure_pending, self._return
        seq = len(events)
        while live and seq < budget:
            pid = choose(live)
            if pid is None:
                break
            try:
                state = ctxs[pid]
            except KeyError:
                self._record(pid)  # raises
            req = state.pending or ensure(state)
            if req is None:
                raise SchedulingError(f"process {pid} has no enabled step")
            kind, loc, value = req
            if kind not in primitives:
                raise ConfigError(
                    f"{self.algorithm.name} issued undeclared primitive {kind.value}"
                )
            rec = state.call
            ev = apply(pid, kind, loc, value, seq)
            trace.append(pid)
            events.append(ev)
            if rec.start_seq is None:
                rec.start_seq = seq
                state.stepped = True
            state.pending = None
            try:
                state.pending = state.gen.send(ev.value_read)
            except StopIteration as stop:
                returned(state, rec, stop.value, seq)
            seq += 1

    def force_next_call(self, pid: int, kind: str) -> None:
        """Queue a procedure call for ``pid`` ahead of its script.  A call
        its process may not make is refused before anything changes: by the
        role rules the run's roles are held to (:meth:`_check_role`), a
        second Signal, queued, scripted or made, and one behind a call
        :meth:`peek` began, which the trace, recording no peek, would put
        first.  A waiter's Poll, which every role rule lets pass, is let
        through on one membership test."""
        waiter_poll = kind == POLL and pid in self._waiters
        if not waiter_poll and kind not in _CALL_KINDS:
            raise ConfigError(f"unknown procedure {kind!r}")
        try:
            state = self.ctxs[pid]
        except KeyError:
            self._record(pid)  # raises
        live = state.call is not None or bool(state.forced) or state.next_kind is not None
        if state.stepped and not live:
            raise SimError(f"process {pid} has terminated")
        if state.call is not None and state.call.start_seq is None:
            raise SimError(f"process {pid}'s {state.call.kind} has begun but not stepped; "
                           "no call may be queued behind it")
        if not waiter_poll:
            self._check_role(pid, kind)
            if kind == SIGNAL and (SIGNAL in state.forced or state.next_kind == SIGNAL or any(
                    c.proc == pid and c.kind == SIGNAL for c in self.calls)):
                raise RoleError(f"process {pid} may call Signal at most once")
        if self._undo is not None and pid not in self._saved:
            self._touch(state)
        self._trace.append(("force", pid, kind))
        if not live:
            self._set_live(pid, True)
        state.forced += (kind,)

    def run_call(self, pid: int, *, max_steps: int = DEFAULT_BUDGET) -> CallRecord:
        """Step ``pid`` until its current (or next) procedure call returns."""
        state = self._record(pid)
        self._ensure_pending(state)
        rec = state.call
        if rec is None:
            raise SchedulingError(f"process {pid} has no call to run")
        for _ in range(max_steps):
            self.step(pid)
            if rec.end_seq is not None:
                return rec
        raise StepBudgetExceeded(f"call did not complete within {max_steps} steps")

    def peek(self, pid: int):
        """The (kind, location, value) the process will apply on its next
        step, or None.  Starts the next procedure call if one is due."""
        return self._ensure_pending(self._record(pid))

    # -- checkpoints --------------------------------------------------------

    def checkpoint(self) -> None:
        """Open a checkpoint that :meth:`rollback` returns the run to.

        Checkpoints nest.  While one is open each nontrivial step journals
        the word it is about to change (value and writer), each process's
        state is saved before it first changes (script position, queued
        calls, ``ctx.state``, whether it has stepped, and its open call's
        record), and the erase index refuses every read.  A ``ctx.state``
        that holds anything but values is refused (:class:`SimError`)
        where it is saved: when its process is first touched, and where a
        call begins.  A call begun before any checkpoint cannot be rewound,
        so its steps are refused (:class:`SimError`) before anything is
        applied.
        """
        if self._was_erased:
            self._refuse("checkpoint()")
        if self._undo is None:
            self._undo = []
        self._saved = {}
        self._checkpoints.append(
            (len(self._events), len(self._calls), len(self._trace), len(self._undo), self._saved)
        )

    def rollback(self, *, close: bool = False) -> None:
        """Put the run back exactly as it was at the innermost open
        checkpoint, which stays open unless ``close`` is set.

        Words come back from the journal, the event, call and trace lists
        by truncation, the processes from their saves; the erase index,
        which read nothing meanwhile, needs nothing.  Every
        open call it restores is rebuilt: the body restarts from
        ``ctx.state`` as the call found it and is sent the responses of the
        call's own events; one begun before any checkpoint has not stepped
        since, and keeps its generator.  A request that differs from the recorded
        one means the protocol keeps state outside its context; it raises
        :class:`ReplayDivergence` and leaves the run unusable.
        """
        if not self._checkpoints:
            raise SimError("no checkpoint is open")
        events, calls, trace, mark, saved = self._checkpoints[-1]
        undo, mem = self._undo, self.mem
        for word in reversed(undo[mark:]):
            mem.restore_word(word)
        del undo[mark:]
        del self._events[events:]
        del self._calls[calls:]
        del self._trace[trace:]
        for pid, state in saved.items():
            self._restore_process(pid, state)
        saved.clear()
        if close:
            self._checkpoints.pop()
            if self._checkpoints:
                self._saved = self._checkpoints[-1][4]
            else:
                self._undo = self._saved = None

    @contextlib.contextmanager
    def probe(self, pids: Iterable[int]) -> Iterator[Runner]:
        """Let ``pids`` make further calls on this run, then undo them.

        A context manager: on entry, a checkpoint under which only these
        processes may start calls or step; on exit, also by an exception,
        it is rolled back and closed.  Each process must be between calls,
        since the probe asks what its further calls would do.  Probes do
        not nest.
        """
        if self._probed is not None:
            raise SimError("a probe is already open")
        pids = frozenset(pids)
        for pid in pids:
            if self._record(pid).call is not None:
                raise SimError(f"process {pid} is mid-call; a probe starts between calls")
        depth = len(self._checkpoints)
        self.checkpoint()
        self._probed = pids
        try:
            yield self
        finally:
            self._probed = None
            while len(self._checkpoints) > depth:
                self.rollback(close=True)

    # -- replay -----------------------------------------------------------

    @classmethod
    def replay(cls, algorithm, roles: dict[int, Script], trace: Iterable) -> "Runner":
        run = cls(algorithm, roles)
        for entry in trace:
            if isinstance(entry, tuple):
                run.force_next_call(entry[1], entry[2])
            else:
                run.step(entry)
        return run

    def fork(self) -> "Runner":
        """Independent copy rebuilt by replaying this run's trace: after an
        erasure, the erased run, numbered and charged as a run."""
        return Runner.replay(self.algorithm, self.roles, list(self.trace))

    # -- erasure ----------------------------------------------------------

    def erase(self, p: int) -> None:
        """Take every step, call and trace entry of ``p`` out of this run,
        so that the others step on as in a replay of the remaining trace.

        Sound only if no other process observed ``p`` (see
        ``harness.validate_erasure``), which is not checked here: the other
        processes keep their events and their programs keep the responses
        they got.  It costs what ``p`` touched, found through the erase
        index, not the run: the lists stay as they are and ``p``'s
        watermark moves to their ends, and each word ``p`` wrote is set as
        the last surviving write on it left it, else to its initial value.
        The index's observed-by counts lose ``p``'s reads, and ``p``'s
        record is replaced by a fresh one, as if it never ran.

        What the steps to come do not read is left for :meth:`fork`, the
        replay that builds and certifies the erased run: :attr:`events`,
        :attr:`calls` and :attr:`trace` give the entries at or above their
        process's watermark under their old seqs and call ids, and
        :attr:`ledger`, :meth:`history`, :meth:`configuration` and
        :meth:`checkpoint` (so :meth:`probe`) are refused: a ledger read
        before keeps the counts of the run before the erasure, and the fork
        charges the erased run.  Refused,
        changing nothing, while a checkpoint or probe is open (by the
        index) and for a process not active.
        """
        erased = self._index()
        if not self.is_active(p):
            raise SimError(f"process {p} is not active; only active processes can be erased")
        self._was_erased = True
        events, mem, dead = self._events, self.mem, erased.dead
        doomed = [events[pos] for pos in erased.by_proc[p]]
        erased.by_proc[p] = []
        _observe(erased.observed, doomed, -1)
        dead[p] = (len(events), len(self._calls), len(self._trace))
        for uid in {e.loc for e in doomed if not e.op.trivial}:
            # As a refold of the word's surviving events would: the last write wins.
            for pos in reversed(erased.by_word[uid]):
                e = events[pos]
                if pos >= dead[e.proc][0] and not e.op.trivial:
                    mem.restore_word((uid, e.value_written, e.proc))
                    break
            else:
                mem.restore_word((uid, mem.inits[uid], None))
        self._set_live(p, bool(self._fresh((p,))))

    def _index(self) -> "_Erased":
        """The erase index, extended to the events added since it was last
        used.  Refused while a checkpoint or probe is open, so that it
        never covers what a rollback takes out."""
        if self._undo is not None:
            raise SimError("the erase index is refused while a checkpoint or probe is open")
        erased = self._erased
        if erased is None:
            erased = self._erased = _Erased(self.n)
        events = self._events
        if erased.upto == len(events):  # nothing added since it was last extended
            return erased
        by_proc, by_word = erased.by_proc, erased.by_word
        _observe(erased.observed, events[erased.upto:], 1)
        for pos in range(erased.upto, len(events)):
            e = events[pos]
            by_proc[e.proc].append(pos)
            by_word[e.loc].append(pos)
        erased.upto = len(events)
        return erased

    def _kept(self, entries: list, which: int) -> list:
        """The run's own list, or after an erasure its entries at or above
        their process's watermark: ``which`` picks the list's own one."""
        if not self._was_erased:
            return entries
        dead = [marks[which] for marks in self._erased.dead]
        if which == 2:  # the trace: a pid per step, ("force", pid, kind)
            return [x for i, x in enumerate(entries) if i >= dead[x if type(x) is int else x[1]]]
        return [x for i, x in enumerate(entries) if i >= dead[x.proc]]

    def _refuse(self, what: str):
        raise SimError(f"{what} refused after an erasure; fork() replays the erased run")

    # -- internals ----------------------------------------------------------

    def _record(self, pid: int) -> _ProcState:
        """``pid``'s record; :class:`SchedulingError` for an id outside 1..n."""
        try:
            return self.ctxs[pid]
        except KeyError:
            raise SchedulingError(f"no process {pid}: process ids are 1..{self.n}") from None

    def _fresh(self, pids: Iterable[int]) -> list[int]:
        """Put each process's record as the run begins in ``ctxs``, slot by
        slot (every run builds n); return the ones whose script makes a call."""
        ctxs = self.ctxs
        n = self.n
        locs = self.locs
        roles = self.roles
        live = []
        for pid in pids:
            state = _ProcState()  # a class call with no __init__ frame
            ctxs[pid] = state
            state.pid = pid
            state.n = n
            state.locs = locs
            state.state = {}
            script = roles.get(pid)
            state.script = script
            state.gen = state.pending = state.call = state.part = None
            state.calls_made = 0
            state.forced = ()
            state.stepped = False
            if script is None or script.max_calls is not None and script.max_calls < 1:
                state.next_kind = None
            else:
                state.next_kind = script.kind
                live.append(pid)
        return live

    def _check_role(self, pid: int, kind: str) -> None:
        """Refuse a ``kind`` call by ``pid`` that the protocol forbids: Poll
        or Wait by a process outside its waiters (:class:`RoleError`), Wait
        on a protocol without ``+blocking`` (:class:`ConfigError`), Signal
        by any but its designated signaler (:class:`RoleError`)."""
        algorithm = self.algorithm
        if kind == SIGNAL:
            if algorithm.designated_signaler not in (None, pid):
                raise RoleError(f"{algorithm.name}: only process "
                                f"{algorithm.designated_signaler} may signal")
        elif pid not in self._waiters:
            raise RoleError(f"{algorithm.name}: process {pid} is not a waiter "
                            f"and may not call {kind}")
        elif kind == WAIT and not algorithm.blocking:
            raise ConfigError(f"{algorithm.name} has no Wait procedure; "
                              f"use {algorithm.name}+blocking")

    def _touch(self, state: _ProcState) -> None:
        """Under an open checkpoint, before a process's state first changes
        (the caller checks that it is not saved yet): refuse a process
        outside an open probe, and save the state, all but an open call's
        generator, which a rollback rebuilds, with its call's share of the
        configuration key.  Every process saved under an open probe passed
        the refusal, even under a checkpoint nested in it, so a saved one
        needs no second look."""
        pid = state.pid
        if self._probed is not None and pid not in self._probed:
            raise SchedulingError(f"process {pid} is outside the open probe")
        rec = state.call
        self._saved[pid] = (
            rec, state.pending, None if rec is None else rec.start_seq,
            state.calls_made, state.forced, state.next_kind, state.part,
            # An open call's own steps alone change ctx.state, and after
            # them the generator rebuild restores it.
            self._checked(state) if rec is None else None,
            state.stepped, self._call_keys.get(pid),
        )

    def _checked(self, state: _ProcState) -> dict:
        """A copy of the process's ``ctx.state``, which a save under a
        checkpoint takes: refused (:class:`SimError`) unless each value is
        an int, bool, str or None, or a tuple or frozenset of those, so
        that the copy is the state and not a view of it."""
        copy = dict(state.state)
        for key, value in copy.items():
            kind = type(value)
            if kind not in _SCALARS and (kind is not tuple and kind is not frozenset
                                         or not _SCALARS.issuperset(map(type, value))):
                raise SimError(
                    f"{self.algorithm.name}: process {state.pid}'s ctx.state[{key!r}] holds a "
                    f"{type(value).__name__}; under a checkpoint it may hold only int, bool, "
                    "str, None, and tuples or frozensets of those")
        return copy

    def _restore_process(self, pid: int, saved: tuple) -> None:
        (rec, pending, start_seq, calls_made, forced, next_kind, part, ctx_state, stepped,
         call_key) = saved
        self._call_keys[pid] = call_key
        state = self.ctxs[pid]
        # _runnable's test, before and after, inline.
        was_live = state.call is not None or bool(state.forced) or state.next_kind is not None
        state.call, state.pending = rec, pending
        state.calls_made, state.forced, state.next_kind = calls_made, forced, next_kind
        state.part, state.stepped = part, stepped
        if (rec is not None or bool(forced) or next_kind is not None) != was_live:
            self._set_live(pid, not was_live)
        if rec is None:
            state.gen = None
            state.state = ctx_state  # the save's own copy: a rollback clears the save
        else:
            if rec.end_seq is not None:  # closed since: reopen it as a new record
                rec = state.call = self._calls[rec.call_id] = CallRecord(
                    rec.call_id, pid, rec.kind)
            rec.start_seq = start_seq
            if part is not None:  # else begun before any checkpoint: not stepped since
                state.gen = self._rebuild(pid)

    def _rebuild(self, pid: int):
        """A generator for ``pid``'s open call, at the point the call has
        reached in ``self.events``: the body restarted from the call's
        start state and sent each recorded response.  Every request must
        match the recorded step (its kind, word and, for a write, value),
        and the last equal the pending one."""
        state = self.ctxs[pid]
        rec = state.call
        state.state = dict(state.part)
        gen = self._bodies[rec.kind](state)
        try:
            req = next(gen)
            if rec.start_seq is not None:
                for e in self._events[rec.start_seq:]:
                    if e.proc == pid:
                        kind, loc, value = req
                        if (kind is not e.op or loc.uid != e.loc
                                or kind is OpKind.WRITE and value != e.value_written):
                            _diverged(pid, req, e.op, e.loc, e.value_written)
                        req = gen.send(e.value_read)
        except StopIteration:
            raise ReplayDivergence(
                f"process {pid}'s {rec.kind} returned early when rebuilt"
            ) from None
        if req != state.pending:
            kind, loc, value = state.pending
            _diverged(pid, req, kind, loc.uid, value)
        return gen

    def _ensure_pending(self, state: _ProcState):
        """The process's next request, after beginning its next call if none
        is open; None if it has no call to make.  Each call was checked
        where it was planned (:meth:`_check_role`); a call whose body
        raised stays open, and every step of it is refused."""
        if state.pending is not None:
            return state.pending
        pid = state.pid
        if state.gen is not None:
            raise SimError(f"process {pid}'s {state.call.kind} (call {state.call.call_id}) "
                           "stopped on an error; it has no step to take")
        if self._undo is not None and pid not in self._saved:
            self._touch(state)
        forced = state.forced
        kind = forced[0] if forced else state.next_kind
        if kind is None:
            return None
        start = None if self._undo is None else self._checked(state)
        if forced:
            state.forced = forced[1:]
        else:
            state.calls_made += 1
        # One record per call, and CPython 3.11's class call does not inline
        # a Python __init__: stored slot by slot, all six, it costs no frame.
        rec = state.call = _new(CallRecord)
        rec.call_id = len(self._calls)
        rec.proc = pid
        rec.kind = kind
        rec.response = rec.start_seq = rec.end_seq = None
        self._calls.append(rec)
        state.part = start
        state.gen = self._bodies[kind](state)
        try:
            state.pending = next(state.gen)
        except StopIteration:
            raise SimError(
                f"{self.algorithm.name}.{kind} performed no memory access"
            ) from None
        return state.pending

    def _return(self, state: _ProcState, rec: CallRecord, response, seq: int) -> None:
        """Close ``rec``, the call of ``state`` that returned ``response`` on
        event ``seq``; the process terminates, and leaves the runnable list,
        if it has no call left to make.  A Poll that returns true ends the
        script."""
        rec.response = response
        rec.end_seq = seq
        state.gen = state.call = state.part = None
        if rec.kind == POLL and response:
            state.next_kind = None
        elif state.next_kind is not None:
            # A set next kind is the script's, so only the call bound can
            # end the script.  An unset one stays unset: calls_made falls
            # only by a rollback, which restores next_kind with it.
            bound = state.script.max_calls
            if bound is not None and state.calls_made >= bound:
                state.next_kind = None
        if state.next_kind is None and not state.forced:
            self._set_live(state.pid, False)

    def _set_live(self, pid: int, live: bool) -> None:
        """Put ``pid`` in or out of the runnable list, kept sorted so that
        a bisect finds it."""
        runnable = self._live
        i = bisect.bisect_left(runnable, pid)
        if i < len(runnable) and runnable[i] == pid:
            if not live:
                del runnable[i]
        elif live:
            runnable.insert(i, pid)


def _runnable(state: _ProcState) -> bool:
    """Whether the process has an open, a queued or a scripted call: what
    puts it in the runnable list."""
    return state.call is not None or bool(state.forced) or state.next_kind is not None


_SCALARS = frozenset((int, bool, str, type(None)))  # the types a ctx.state value may have


def _call_key(req, gen) -> tuple:
    """An open call's part of a configuration key: its pending request
    ``req`` as (kind, uid, value), or None once its body raised, then per
    generator along the chain from ``gen`` (each ``gi_yieldfrom``, which is
    how a Wait runs its Polls) its code, its program point and its named
    locals but ``self`` and ``ctx`` as name, value: a location by its uid,
    a list as a tuple of its items.  The code goes in by identity, which is
    cheaper to hash than the code and as exact for code the run's protocol
    holds; an int, not a str, it also marks where a generator's share
    starts.  A finished generator has no frame, and adds nothing."""
    part = [None] if req is None else [req[0], req[1].uid, req[2]]
    append = part.append
    while gen is not None:
        frame = gen.gi_frame
        if frame is None:
            break
        append(id(gen.gi_code))
        append(frame.f_lasti)
        for name, value in frame.f_locals.items():
            if name != "self" and name != "ctx":
                append(name)
                kind = type(value)
                append(value.uid if kind is Location else tuple(value) if kind is list else value)
        gen = gen.gi_yieldfrom
    return tuple(part)


def _observe(counts: list[int], events: Iterable[Event], sign: int) -> None:
    """Add ``sign`` to ``counts[p]`` per value-reading event of another
    process whose writer before is ``p``."""
    for e in events:
        writer = e.writer_before
        if writer is not None and writer != e.proc and e.op.reads_value:
            counts[writer] += sign


def _diverged(pid: int, req, kind: OpKind, uid: int, value):
    """Refuse the rebuilt request ``req`` where the run has ``kind`` on
    word ``uid``, with ``value`` the word a write stores."""
    shown = [f"{k.value}{f' {v}' if k is OpKind.WRITE else ''} on word {u}"
             for k, u, v in ((req[0], req[1].uid, req[2]), (kind, uid, value))]
    raise ReplayDivergence(
        f"process {pid} issued {shown[0]} when rebuilt, where the run has {shown[1]}"
    )


def run(algorithm, roles: dict[int, Script], policy, *,
        budget: int = DEFAULT_BUDGET) -> tuple[History, RmrLedger]:
    """Run the algorithm under the policy and return (history, ledger)."""
    runner = Runner(algorithm, roles)
    runner.drive(policy, budget)
    return runner.history(), runner.ledger
