"""Deterministic execution engine.

Each process runs a *script* (its planned sequence of procedure calls) and
the procedure bodies are generators that yield one primitive operation per
step.  The engine owns all interleaving: a scheduled step applies exactly
one memory operation of one process.  Interleaving decisions are recorded
in a *trace*, so any run can be rebuilt bit-identically by replaying the
trace, which is what forking and the determinism guarantees rest on, and
what certifies an erasure.

A *checkpoint* lets the run go on and then come back: while one is open,
each step journals the word it changes and each process's state is saved
before it first changes, and a rollback undoes both and rebuilds any
generator that moved by re-sending its recorded responses.  Exhaustive
enumeration backtracks this way, and a *probe* ("what if these processes
made more calls from here?") is a checkpoint that only the probed
processes may act under.  An *erasure* takes a process nobody observed out
of the live run, leaving what a replay without it would build.

Procedure-call rules enforced here: a process makes calls one at a time,
calls Signal at most once, and a scripted poller stops polling after a call
returns true.  Every procedure call must perform at least one memory
access.

Per event a step calls ``Memory.apply`` and ``RmrLedger.record`` (every
charge at once) once each, and resumes the procedure body once.
"""

from __future__ import annotations

import bisect
import random
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Iterable, Sequence

from .costs import RmrLedger
from .errors import (
    ConfigError,
    ReplayDivergence,
    RoleError,
    SchedulingError,
    SimError,
    StepBudgetExceeded,
)
from .memory import Event, Memory, OpKind

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
    """What a process plans to call.

    ``poll`` scripts call Poll repeatedly until a call returns true; a
    ``max_calls`` bound lets the process give up and terminate after that
    many false responses.  ``signal`` and ``wait`` scripts make one call.
    """

    kind: str
    max_calls: int | None = None


def poll_until_true() -> Script:
    return Script("poll", None)


def poll_at_most(calls: int) -> Script:
    return Script("poll", calls)


def signal_once() -> Script:
    return Script("signal", 1)


def wait_once() -> Script:
    return Script("wait", 1)


# ---------------------------------------------------------------------------
# Histories
# ---------------------------------------------------------------------------


@dataclass(slots=True)
class CallRecord:
    """One procedure call: its interval in the event sequence and response.

    ``start_seq`` is the seq of the call's first event (a call with no
    events has not begun); ``end_seq`` is the seq of the event on which the
    call returned, or None while the call is open.
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
    early).  ``trace`` is the replay recipe.
    """

    events: list[Event]
    calls: list[CallRecord]
    finished: frozenset[int]
    incomplete: bool
    trace: tuple

    @property
    def participants(self) -> frozenset[int]:
        return frozenset(e.proc for e in self.events)

    @property
    def active(self) -> frozenset[int]:
        return self.participants - self.finished

    def calls_of(self, proc: int) -> list[CallRecord]:
        return [c for c in self.calls if c.proc == proc]


# ---------------------------------------------------------------------------
# Scheduling policies
# ---------------------------------------------------------------------------


class RoundRobin:
    """Cycle through runnable processes in ascending id order."""

    def __init__(self):
        self._last = 0

    def choose(self, runnable: Sequence[int]) -> int | None:
        for pid in runnable:
            if pid > self._last:
                self._last = pid
                return pid
        self._last = runnable[0]
        return runnable[0]


class SeededRandom:
    """Uniform choice among runnable processes from a seeded generator."""

    def __init__(self, seed: int):
        self.seed = seed
        self._rng = random.Random(seed)

    def choose(self, runnable: Sequence[int]) -> int | None:
        return runnable[self._rng.randrange(len(runnable))]


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


class _ProcState:
    """``next_kind`` is the script's next call as of the last return, read
    when the process starts a call; ``start_state`` is a copy of
    ``ctx.state`` at the open call's start, taken while a checkpoint is
    open, which a rollback restarts the call body from."""

    __slots__ = ("gen", "call", "pending", "calls_made", "saw_true", "forced",
                 "next_kind", "start_state")

    def __init__(self):
        self.gen = None
        self.call: CallRecord | None = None
        self.pending = None
        self.calls_made = 0
        self.saw_true = False
        self.forced: list[str] = []
        self.next_kind: str | None = None
        self.start_state: dict | None = None


class Runner:
    """A single deterministic simulation instance.

    Confined to one thread of control.  :meth:`checkpoint` and
    :meth:`rollback` let a run branch and come back in place, which costs
    the steps taken since instead of a replay of the whole trace;
    :meth:`probe` runs extra calls of some processes under a checkpoint and
    rolls them back.  :meth:`fork` replays the trace into a fresh,
    independent instance; :meth:`erase` removes a process in place, which
    costs one pass over the events instead of a replay.
    """

    def __init__(self, algorithm, roles: dict[int, Script], *, with_ledger: bool = True):
        self.algorithm = algorithm
        self.n = algorithm.n
        for pid, script in roles.items():
            if not 1 <= pid <= self.n:
                raise ConfigError(f"role process {pid} outside 1..{self.n}")
            if script.kind not in ("poll", "signal", "wait"):
                raise ConfigError(f"unknown script kind {script.kind!r}")
        algorithm.validate_roles(roles)
        self.roles = dict(roles)
        self.mem = Memory(self.n)
        self.locs = algorithm.setup(self.mem)
        # A tuple matches by identity; a set would call Enum.__hash__, in Python.
        self._primitives = tuple(algorithm.primitives)
        self.ctxs = {
            pid: algorithm.make_ctx(pid, self.locs) for pid in range(1, self.n + 1)
        }
        self.events: list[Event] = []
        self.calls: list[CallRecord] = []
        self.trace: list = []
        self.ledger: RmrLedger | None = RmrLedger(self.n) if with_ledger else None
        self._procs = {pid: _ProcState() for pid in range(1, self.n + 1)}
        self._terminated: set[int] = set()
        self._pollers: set[int] = set()
        self._signaled: set[int] = set()
        for pid in self.roles:
            self._procs[pid].next_kind = self._script_next(pid)
        self._live: list[int] = [
            pid for pid, state in self._procs.items() if state.next_kind is not None
        ]
        # Set while a checkpoint is open: per step, in step order, the
        # process, the word it is about to change and that word's cache
        # holders.
        self._undo: list | None = None
        # Open checkpoints, innermost last: the event, call and trace list
        # lengths, the undo log's length, and the processes' saved states.
        self._checkpoints: list[tuple] = []
        self._saved: dict[int, tuple] | None = None  # the innermost one's
        self._probed: frozenset[int] | None = None  # set while a probe is open

    # -- public state -----------------------------------------------------

    @property
    def terminated(self) -> frozenset[int]:
        return frozenset(self._terminated)

    def runnable(self) -> list[int]:
        """Processes with at least one enabled step, ascending."""
        return list(self._live)

    def open_call(self, pid: int) -> CallRecord | None:
        return self._procs[pid].call

    def participants(self) -> frozenset[int]:
        if self.ledger is not None:
            return frozenset(self.ledger.participants)
        return frozenset(e.proc for e in self.events)

    def active(self) -> frozenset[int]:
        return self.participants() - self._terminated

    def is_active(self, pid: int) -> bool:
        """``pid in self.active()``, without building the set."""
        if pid in self._terminated:
            return False
        if self.ledger is not None:
            return pid in self.ledger.participants
        return any(e.proc == pid for e in self.events)

    def history(self) -> History:
        return History(
            events=list(self.events),
            calls=[CallRecord(c.call_id, c.proc, c.kind, c.response, c.start_seq, c.end_seq)
                   for c in self.calls],
            finished=frozenset(self._terminated),
            incomplete=bool(self._live),
            trace=tuple(self.trace),
        )

    # -- scheduling -------------------------------------------------------

    def step(self, pid: int) -> Event:
        """Run one step of ``pid``: apply one memory operation and resume
        the procedure body up to its next operation or return."""
        state = self._procs[pid]
        req = state.pending or self._ensure_pending(pid)
        if req is None:
            raise SchedulingError(f"process {pid} has no enabled step")
        op, loc = req
        kind = op.kind
        if kind not in self._primitives:
            raise ConfigError(
                f"{self.algorithm.name} issued undeclared primitive {kind.value}"
            )
        rec = state.call
        if self._undo is not None:
            self._journal(pid, op, loc.uid)
        events = self.events
        ev = self.mem.apply(pid, op, loc, seq=len(events), call_id=rec.call_id)
        self.trace.append(pid)
        events.append(ev)
        if self.ledger is not None:
            self.ledger.record(ev)
        if rec.start_seq is None:
            rec.start_seq = ev.seq
        state.pending = None
        try:
            # An SC responds with its verdict; a write with value_read, None.
            state.pending = state.gen.send(ev.outcome if kind is OpKind.SC else ev.value_read)
        except StopIteration as stop:
            rec.response = stop.value
            rec.end_seq = ev.seq
            state.gen = None
            state.call = None
            if rec.kind == POLL and stop.value:
                state.saw_true = True
            state.next_kind = self._script_next(pid)
            if state.next_kind is None and not state.forced:
                self._terminate(pid)
        return ev

    def drive(self, policy, budget: int = DEFAULT_BUDGET) -> None:
        """Step per policy until nothing is runnable or the budget is spent."""
        live, events, choose, step = self._live, self.events, policy.choose, self.step
        while live and len(events) < budget:
            pid = choose(live)
            if pid is None:
                break
            step(pid)

    def force_next_call(self, pid: int, kind: str) -> None:
        """Queue a procedure call for ``pid`` ahead of its script."""
        if kind not in _CALL_KINDS:
            raise ConfigError(f"unknown procedure {kind!r}")
        if pid in self._terminated:
            raise SimError(f"process {pid} has terminated")
        if self._undo is not None:
            self._touch(pid)
        self.trace.append(("force", pid, kind))
        self._procs[pid].forced.append(kind)
        if pid not in self._live:
            self._live.append(pid)
            self._live.sort()

    def run_call(self, pid: int, *, max_steps: int = DEFAULT_BUDGET) -> CallRecord:
        """Step ``pid`` until its current (or next) procedure call returns."""
        self._ensure_pending(pid)
        rec = self._procs[pid].call
        if rec is None:
            raise SchedulingError(f"process {pid} has no call to run")
        for _ in range(max_steps):
            self.step(pid)
            if rec.end_seq is not None:
                return rec
        raise StepBudgetExceeded(f"call did not complete within {max_steps} steps")

    def peek(self, pid: int):
        """The (op, location) the process will apply on its next step, or
        None.  Starts the next procedure call if one is due."""
        return self._ensure_pending(pid)

    # -- checkpoints --------------------------------------------------------

    def checkpoint(self) -> None:
        """Open a checkpoint that :meth:`rollback` returns the run to.

        Checkpoints nest.  While one is open each step journals the word it
        is about to change (value, writer, links, cache holders), and each
        process's state is saved before it first changes: script position,
        queued calls, ``ctx.state``, ledger row, set memberships, and its
        open call's generator and record.
        """
        if self._undo is None:
            self._undo = []
        self._saved = {}
        self._checkpoints.append(
            (len(self.events), len(self.calls), len(self.trace), len(self._undo), self._saved)
        )

    def rollback(self, *, close: bool = False) -> None:
        """Put the run back exactly as it was at the innermost open
        checkpoint, which stays open unless ``close`` is set.

        Words and cache holders come back from the journal, the event, call
        and trace lists by truncation, the processes from their saves.  A
        call open at the checkpoint whose process has stepped since gets a
        fresh generator: the body restarts from ``ctx.state`` as the call
        found it and is sent the call's recorded responses.  A request that
        differs from the recorded one means the protocol keeps state outside
        its context; it raises :class:`ReplayDivergence` and leaves the run
        unusable.
        """
        if not self._checkpoints:
            raise SimError("no checkpoint is open")
        events, calls, trace, mark, saved = self._checkpoints[-1]
        undo, mem = self._undo, self.mem
        cache = None if self.ledger is None else self.ledger.cache
        stepped = set()
        for pid, word, holders in reversed(undo[mark:]):
            stepped.add(pid)
            mem.restore_word(word)
            if holders is not None:
                cache.restore(holders)
        del undo[mark:]
        del self.events[events:]
        del self.calls[calls:]
        del self.trace[trace:]
        for pid, state in saved.items():
            self._restore_process(pid, state, pid in stepped)
        saved.clear()
        if close:
            self._checkpoints.pop()
            if self._checkpoints:
                self._saved = self._checkpoints[-1][4]
            else:
                self._undo = self._saved = None

    @contextmanager
    def probe(self, pids: Iterable[int]):
        """Let ``pids`` make further calls on this run, then undo them.

        A checkpoint under which only these processes may start calls or
        step; on exit, also by an exception, it is rolled back and closed.
        Each process must be between calls, since the probe asks what its
        further calls would do.  Probes do not nest.
        """
        if self._probed is not None:
            raise SimError("a probe is already open")
        if self.ledger is None:
            raise SimError("a probe restores the ledger; this run keeps none")
        pids = frozenset(pids)
        for pid in pids:
            if self._procs[pid].call is not None:
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
        """Independent copy rebuilt by replaying this run's trace."""
        return Runner.replay(self.algorithm, self.roles, list(self.trace))

    # -- erasure ----------------------------------------------------------

    def erase(self, p: int) -> None:
        """Take every step, call and trace entry of ``p`` out of this run,
        leaving what a replay of the remaining trace would build.

        Sound only if no other process observed ``p`` (see
        ``harness.validate_erasure``), which is not checked here: the other
        processes keep their events' values and their programs keep the
        responses they got.  Their events and calls are renumbered as a
        replay numbers them, the events as new objects because
        :meth:`history` snapshots share the old ones.  The words ``p``
        accessed are refolded from their initial values over the others'
        events on them, and so are their cache holders and the others' CC
        and directory counts.  ``p`` is left as if it never ran.  Refused
        while a checkpoint or probe is open, without a ledger, and for a
        process not active.
        """
        if self._undo is not None:
            raise SimError("cannot erase while a checkpoint or probe is open")
        if self.ledger is None:
            raise SimError("erasure corrects the ledger; this run keeps none")
        if not self.is_active(p):
            raise SimError(f"process {p} is not active; only active processes can be erased")
        events = self.events
        # A process makes one call at a time, so its events lie within its calls.
        dropped: list[int] = []
        for rec in self.calls:
            if rec.proc == p and rec.start_seq is not None:
                end = len(events) if rec.open else rec.end_seq + 1
                dropped += [e.seq for e in events[rec.start_seq:end] if e.proc == p]
        touched = {events[seq].loc for seq in dropped}
        # Renumber the calls; events before ``start`` keep seq and call id.
        first = start = dropped[0]
        ids = [0] * len(self.calls)
        calls: list[CallRecord] = []
        for rec in self.calls:
            if rec.proc == p:
                continue
            if rec.call_id != len(calls) and rec.start_seq is not None and rec.start_seq < start:
                start = rec.start_seq
            old, rec.call_id = rec.call_id, len(calls)
            ids[old] = rec.call_id
            calls.append(rec)
            if rec.start_seq is not None and rec.start_seq > first:
                rec.start_seq -= bisect.bisect_left(dropped, rec.start_seq)
            if rec.end_seq is not None and rec.end_seq > first:
                rec.end_seq -= bisect.bisect_left(dropped, rec.end_seq)
        mem = self.mem
        for uid in touched:
            mem.reset_word(uid)
        refold = [e for e in events[:start] if e.loc in touched]
        for e in refold:
            mem.redo(e)
        kept = events[:start]
        for e in events[start:]:
            writer = e.writer_before
            if e.loc in touched:
                refold.append(e)
                if e.proc == p:
                    continue
                writer = mem.redo(e)
            kept.append(Event(len(kept), e.proc, e.op, e.loc, e.home, e.value_read,
                              e.value_written, e.outcome, ids[e.call_id], writer))
        self.events, self.calls = kept, calls
        self.trace = [t for t in self.trace
                      if t != p and (type(t) is not tuple or t[1] != p)]
        self.ledger.drop(p, refold)
        self._procs[p] = fresh = _ProcState()
        fresh.next_kind = self._script_next(p)
        self.ctxs[p] = self.algorithm.make_ctx(p, self.locs)
        self._pollers.discard(p)
        self._signaled.discard(p)
        if p in self._live:
            self._live.remove(p)
        if fresh.next_kind is not None:
            bisect.insort(self._live, p)

    # -- internals ----------------------------------------------------------

    def _touch(self, pid: int) -> None:
        """Under an open checkpoint, before ``pid``'s state first changes:
        refuse a process outside an open probe, and save the state."""
        if self._probed is not None and pid not in self._probed:
            raise SchedulingError(f"process {pid} is outside the open probe")
        if pid not in self._saved:
            self._saved[pid] = self._save_process(pid)

    def _journal(self, pid: int, op, uid: int) -> None:
        self._touch(pid)
        ledger = self.ledger
        self._undo.append((
            pid, self.mem.save_word(uid),
            None if ledger is None else ledger.cache.save(pid, uid, op.trivial),
        ))

    def _pid_sets(self) -> tuple[set[int], ...]:
        """The sets a process's steps can add it to; none of them ever
        shrinks, so a rollback only drops what was added."""
        if self.ledger is None:
            return self._terminated, self._pollers, self._signaled
        return (self._terminated, self._pollers, self._signaled,
                self.ledger.participants, self.ledger.finished)

    def _save_process(self, pid: int) -> tuple:
        state = self._procs[pid]
        rec = state.call
        return (
            state.gen, rec, state.pending, None if rec is None else rec.start_seq,
            state.calls_made, state.saw_true, list(state.forced), state.next_kind,
            state.start_state,
            # An open call's own steps alone change ctx.state, and after
            # them the generator rebuild restores it.
            dict(self.ctxs[pid].state) if rec is None else None,
            None if self.ledger is None else self.ledger.row(pid),
            pid in self._live, [members for members in self._pid_sets() if pid not in members],
        )

    def _restore_process(self, pid: int, saved: tuple, stepped: bool) -> None:
        (gen, rec, pending, start_seq, calls_made, saw_true, forced, next_kind,
         start_state, ctx_state, row, live, absent) = saved
        state = self._procs[pid]
        state.call, state.pending = rec, pending
        state.calls_made, state.saw_true, state.forced = calls_made, saw_true, forced
        state.next_kind, state.start_state = next_kind, start_state
        if rec is None:
            state.gen = None
            self.ctxs[pid].state = ctx_state
        else:
            rec.response = rec.end_seq = None
            rec.start_seq = start_seq
            # The saved generator has moved on if the process stepped since
            # the save, or if it stepped under a later checkpoint whose
            # rollback put a rebuilt generator in its place.
            state.gen = gen if gen is state.gen and not stepped else self._rebuild(pid)
        if row is not None:
            self.ledger.set_row(pid, row)
        if live != (pid in self._live):
            if live:
                bisect.insort(self._live, pid)
            else:
                self._live.remove(pid)
        for members in absent:
            members.discard(pid)

    def _rebuild(self, pid: int):
        """A generator for ``pid``'s open call, at the point the call has
        reached in ``self.events``: the body restarted from the call's
        start state and sent each recorded response.  Every request must
        match the recorded one, and the last the pending one."""
        state = self._procs[pid]
        rec = state.call
        if state.start_state is None:
            raise SimError(f"process {pid}'s call began before any checkpoint; "
                           "it cannot be rewound")
        ctx = self.ctxs[pid]
        ctx.state = dict(state.start_state)
        gen = self._body(rec.kind, ctx)
        try:
            req = next(gen)
            if rec.start_seq is not None:
                for e in self.events[rec.start_seq:]:
                    if e.proc == pid:
                        op = e.op
                        if req[1].uid != e.loc or (req[0] is not op and req[0] != op):
                            _diverged(pid, req, op, e.loc)
                        req = gen.send(e.outcome if op.kind is OpKind.SC else e.value_read)
        except StopIteration:
            raise ReplayDivergence(
                f"process {pid}'s {rec.kind} returned early when rebuilt"
            ) from None
        op, loc = state.pending
        if req[1].uid != loc.uid or (req[0] is not op and req[0] != op):
            _diverged(pid, req, op, loc.uid)
        return gen

    def _script_next(self, pid: int) -> str | None:
        script = self.roles.get(pid)
        if script is None:
            return None
        state = self._procs[pid]
        if script.kind == "poll":
            if state.saw_true:
                return None
            if script.max_calls is not None and state.calls_made >= script.max_calls:
                return None
            return POLL
        if script.kind == "signal":
            return SIGNAL if state.calls_made < 1 else None
        return WAIT if state.calls_made < 1 else None

    def _ensure_pending(self, pid: int):
        state = self._procs[pid]
        if state.pending is not None:
            return state.pending
        if state.gen is not None:  # pragma: no cover - engine invariant
            raise AssertionError("open call without a pending operation")
        if self._undo is not None:
            self._touch(pid)
        if state.forced:
            kind = state.forced.pop(0)
            forced = True
        else:
            kind = state.next_kind
            forced = False
        if kind is None:
            return None
        self._begin_call(pid, kind, forced)
        try:
            state.pending = next(state.gen)
        except StopIteration:
            raise SimError(
                f"{self.algorithm.name}.{kind} performed no memory access"
            ) from None
        return state.pending

    def _begin_call(self, pid: int, kind: str, forced: bool) -> None:
        if kind == SIGNAL and pid in self._signaled:
            raise RoleError(f"process {pid} may call Signal at most once")
        self.algorithm.validate_call(pid, kind, self._pollers)
        if kind == SIGNAL:
            self._signaled.add(pid)
        else:
            self._pollers.add(pid)
        state = self._procs[pid]
        if not forced:
            state.calls_made += 1
        rec = CallRecord(call_id=len(self.calls), proc=pid, kind=kind)
        self.calls.append(rec)
        state.call = rec
        ctx = self.ctxs[pid]
        state.start_state = None if self._undo is None else dict(ctx.state)
        state.gen = self._body(kind, ctx)

    def _body(self, kind: str, ctx):
        if kind == POLL:
            return self.algorithm.poll(ctx)
        if kind == SIGNAL:
            return self.algorithm.signal(ctx)
        return self.algorithm.wait(ctx)

    def _terminate(self, pid: int) -> None:
        self._terminated.add(pid)
        if self.ledger is not None:
            self.ledger.mark_finished(pid)
        try:
            self._live.remove(pid)
        except ValueError:  # pragma: no cover - forced call on role-less pid
            pass


def _diverged(pid: int, req, op, uid: int):
    raise ReplayDivergence(
        f"process {pid} issued {req[0].kind.value} on word {req[1].uid} when rebuilt, "
        f"where the run has {op.kind.value} on word {uid}"
    )


def run(algorithm, roles: dict[int, Script], policy, *,
        budget: int = DEFAULT_BUDGET) -> tuple[History, RmrLedger]:
    """Run the algorithm under the policy and return (history, ledger)."""
    runner = Runner(algorithm, roles)
    runner.drive(policy, budget)
    return runner.history(), runner.ledger
