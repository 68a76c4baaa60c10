"""Deterministic execution engine.

Each process runs a *script* (its planned sequence of procedure calls) and
the procedure bodies are generators that yield one primitive operation per
step.  The engine owns all interleaving: a scheduled step applies exactly
one memory operation of one process.  Interleaving decisions are recorded
in a *trace*, so any run can be rebuilt bit-identically by replaying the
trace, which is what forking and the determinism guarantees rest on, and
what certifies an erasure.  A *probe* asks "what if these processes made
more calls from here?" without a copy: the calls run on the live runner,
which is rolled back when the probe ends.  An *erasure* takes a process
nobody observed out of the live run, leaving what a replay without it
would build.

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
    __slots__ = ("gen", "call", "pending", "calls_made", "saw_true", "forced")

    def __init__(self):
        self.gen = None
        self.call: CallRecord | None = None
        self.pending = None
        self.calls_made = 0
        self.saw_true = False
        self.forced: list[str] = []


class Runner:
    """A single deterministic simulation instance.

    Confined to one thread of control.  :meth:`fork` replays the trace into
    a fresh, independent instance; :meth:`probe` runs extra calls in place
    and undoes them, which costs the probe's steps instead of the run's;
    :meth:`erase` removes a process in place, which costs one pass over the
    events instead of a replay.
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
        self._live: list[int] = sorted(
            pid for pid in self.roles if self._script_next(pid) is not None
        )
        # Set while a probe is open: the words the probe's steps are about
        # to change, with their cache holders, in step order.
        self._undo: list | None = None
        self._probed: frozenset[int] = frozenset()

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
            if not state.forced and self._script_next(pid) is None:
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
            self._check_probed(pid)
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

    @contextmanager
    def probe(self, pids: Iterable[int]):
        """Let ``pids`` make further calls on this run, then undo them.

        Each process must be between calls: a generator cannot be rewound.
        Inside the scope only these processes may start calls or step.  On
        exit, also by an exception, the run is restored exactly: memory
        words and cache holders from an undo log the probe's steps write,
        the probed processes' own state (script position, ``ctx.state``,
        ledger row, set memberships) from a copy taken here, and the event,
        call and trace lists by truncation.  Probes do not nest.
        """
        if self._undo is not None:
            raise SimError("a probe is already open")
        if self.ledger is None:
            raise SimError("a probe restores the ledger; this run keeps none")
        pids = frozenset(pids)
        for pid in pids:
            if self._procs[pid].call is not None:
                raise SimError(f"process {pid} is mid-call; a probe starts between calls")
        saved = {pid: self._save_process(pid) for pid in pids}
        lengths = len(self.events), len(self.calls), len(self.trace)
        self._undo, self._probed = [], pids
        try:
            yield self
        finally:
            undo, self._undo, self._probed = self._undo, None, frozenset()
            for word, holders in reversed(undo):
                self.mem.restore_word(word)
                if holders is not None:
                    self.ledger.cache.restore(holders)
            del self.events[lengths[0]:]
            del self.calls[lengths[1]:]
            del self.trace[lengths[2]:]
            for pid, state in saved.items():
                self._restore_process(pid, state)

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
        inside a probe, without a ledger, and for a process not active.
        """
        if self._undo is not None:
            raise SimError("cannot erase inside an open probe")
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
        self._procs[p] = _ProcState()
        self.ctxs[p] = self.algorithm.make_ctx(p, self.locs)
        self._pollers.discard(p)
        self._signaled.discard(p)
        if p in self._live:
            self._live.remove(p)
        if self._script_next(p) is not None:
            bisect.insort(self._live, p)

    # -- internals ----------------------------------------------------------

    def _check_probed(self, pid: int) -> None:
        if pid not in self._probed:
            raise SchedulingError(f"process {pid} is outside the open probe")

    def _journal(self, pid: int, op, uid: int) -> None:
        self._check_probed(pid)
        self._undo.append(
            (self.mem.save_word(uid), self.ledger.cache.save(pid, uid, op.trivial))
        )

    def _pid_sets(self) -> tuple[set[int], ...]:
        """The sets a probed process's steps can add it to; none of them
        ever shrinks, so undoing a probe only drops what it added."""
        return (self._terminated, self._pollers, self._signaled,
                self.ledger.participants, self.ledger.finished)

    def _save_process(self, pid: int) -> tuple:
        state = self._procs[pid]
        return (
            state.calls_made, state.saw_true, list(state.forced),
            dict(self.ctxs[pid].state), self.ledger.row(pid), pid in self._live,
            tuple(pid in members for members in self._pid_sets()),
        )

    def _restore_process(self, pid: int, saved: tuple) -> None:
        calls_made, saw_true, forced, ctx_state, row, live, memberships = saved
        state = self._procs[pid]
        state.gen = state.call = state.pending = None
        state.calls_made, state.saw_true, state.forced = calls_made, saw_true, forced
        self.ctxs[pid].state = ctx_state
        self.ledger.set_row(pid, row)
        if live != (pid in self._live):
            if live:
                bisect.insort(self._live, pid)
            else:
                self._live.remove(pid)
        for members, member in zip(self._pid_sets(), memberships):
            if not member:
                members.discard(pid)

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
            self._check_probed(pid)
        if state.forced:
            kind = state.forced.pop(0)
            forced = True
        else:
            kind = self._script_next(pid)
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
        if kind == POLL:
            state.gen = self.algorithm.poll(ctx)
        elif kind == SIGNAL:
            state.gen = self.algorithm.signal(ctx)
        else:
            state.gen = self.algorithm.wait(ctx)

    def _terminate(self, pid: int) -> None:
        self._terminated.add(pid)
        if self.ledger is not None:
            self.ledger.mark_finished(pid)
        try:
            self._live.remove(pid)
        except ValueError:  # pragma: no cover - forced call on role-less pid
            pass


def run(algorithm, roles: dict[int, Script], policy, *,
        budget: int = DEFAULT_BUDGET) -> tuple[History, RmrLedger]:
    """Run the algorithm under the policy and return (history, ledger)."""
    runner = Runner(algorithm, roles)
    runner.drive(policy, budget)
    return runner.history(), runner.ledger
