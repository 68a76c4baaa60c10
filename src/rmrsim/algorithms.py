"""The signaling protocol library.

Each algorithm solves the same problem: one process announces an event by
calling Signal, and waiters learn of it through Poll (which returns whether
the signal has been issued) or Wait (which returns only once it has).  The
variants differ in which primitives they use and in where their shared
words live, which is what drives their remote-reference costs apart under
the two cost models.

Procedure bodies are generators yielding one primitive operation per step;
the value sent back is the operation's response.  Per-process state that
survives across calls (e.g. "already announced myself") lives in the
process context, so a run is a pure function of the schedule.  A loop that
spans a yield is a ``while`` over a named index, never a ``for``, whose
iterator no configuration key sees (see :class:`SignalingAlgorithm`).
"""

from __future__ import annotations

from types import SimpleNamespace

from .errors import CapacityError, ConfigError, RoleError
from .memory import NIL, Memory, OpKind, fai, read, write

READ_WRITE = frozenset({OpKind.READ, OpKind.WRITE})


class Ctx:
    """Per-process runtime context: id, location handles, persistent state;
    the engine's record of each process extends it and sets these fields."""

    __slots__ = ("pid", "n", "locs", "state")


class SignalingAlgorithm:
    """Base class: an immutable protocol configuration.

    Instances hold no run state; ``setup`` allocates this protocol's
    locations into a fresh memory image and every simulation keeps its own
    contexts, so one instance can back any number of independent runs.

    A subclass writes Signal and Poll.  Wait is Poll repeated until it
    returns true, and the engine lets a run call it only on an instance
    :func:`make_algorithm` built as ``name+blocking``.  Only the instance's
    ``waiters``, at most ``max_waiters`` of them, may call Poll or Wait.

    The soundness rule every body keeps: its next steps depend only on its
    frame's program point and named locals (``self`` and ``ctx`` aside), on
    ``ctx.state`` and on what it reads.  That is what
    :meth:`Runner.configuration` keys an open call by, and what a rollback's
    rebuild of a call assumes.  So no ``for`` loop's body yields (its
    iterator is no named local) and no expression holds two yields (the
    first one's result waits unnamed while the second is suspended); and
    ``ctx.state`` holds only values: ints, bools, strs, None, and tuples or
    frozensets of those.  Each yield makes its request there, by a call of
    :func:`read`, :func:`write` or :func:`fai`, so every step's request is
    a new object: the key takes a request it has met as proof that the
    frames have not moved.
    """

    name = "signaling"
    primitives: frozenset = READ_WRITE
    #: Only this process may call Signal, when set; the engine refuses any
    #: other.
    designated_signaler: int | None = None
    #: Whether a run's waiters call Wait, once, instead of polling.
    blocking = False
    #: How many waiters the protocol supports, and so a run has by default,
    #: from process 2 on; None for any number, by default every process but 1.
    max_waiters: int | None = None

    #: The process whose module holds the global words.
    home = 1

    def __init__(self, n: int, waiters=None):
        if n < 1:
            raise ConfigError(f"need at least one process, got n={n}")
        self.n = n
        if waiters is None:
            waiters = range(2, n + 1)[:self.max_waiters]
        #: The processes that wait in a run of this protocol, ascending: the
        #: only ones the engine lets call Poll or Wait.
        self.waiters = tuple(sorted(set(waiters)))
        if not self.waiters:
            raise ConfigError(f"need at least one waiter among 1..{n}, got none")
        if self.waiters[0] < 1 or self.waiters[-1] > n:
            raise ConfigError(f"waiter ids {self.waiters} outside 1..{n}")
        cap = self.max_waiters
        if cap is not None and len(self.waiters) > cap:
            supports = "a single waiter" if cap == 1 else f"at most {cap} waiters"
            raise RoleError(f"{self.name} supports {supports}, got {list(self.waiters)}")

    def setup(self, mem: Memory):
        raise NotImplementedError

    def poll(self, ctx: Ctx):
        raise NotImplementedError

    def signal(self, ctx: Ctx):
        raise NotImplementedError

    def wait(self, ctx: Ctx):
        while True:
            if (yield from self.poll(ctx)):
                return True


class CcFlag(SignalingAlgorithm):
    """One shared flag word.

    Signal writes the flag; Poll reads it.  Under the CC model a waiter's
    repeated reads are cached, so every process pays O(1) remote
    references.  Under the DSM model every poll by a non-owner is remote.
    """

    name = "cc_flag"

    def setup(self, mem: Memory):
        return SimpleNamespace(flag=mem.alloc("flag", self.home))

    def poll(self, ctx: Ctx):
        return bool((yield read(ctx.locs.flag)))

    def signal(self, ctx: Ctx):
        yield write(ctx.locs.flag, 1)


class SingleWaiter(SignalingAlgorithm):
    """At most one waiter, whose id the signaler learns at runtime.

    The waiter's first Poll announces its id in a global word and reads the
    global done flag; later Polls spin on a notification word in the
    waiter's own module.  Signal sets the done flag, then notifies the
    announced waiter, if any.
    """

    name = "dsm_single_waiter"
    max_waiters = 1

    def setup(self, mem: Memory):
        return SimpleNamespace(
            announce=mem.alloc("waiter_id", self.home, NIL),
            done=mem.alloc("signaled", self.home),
            notify=_notify_words(mem.alloc, range(1, self.n + 1)),
        )

    def poll(self, ctx: Ctx):
        if not ctx.state.get("announced"):
            ctx.state["announced"] = True
            yield write(ctx.locs.announce, ctx.pid)
            return bool((yield read(ctx.locs.done)))
        return bool((yield read(ctx.locs.notify[ctx.pid])))

    def signal(self, ctx: Ctx):
        yield write(ctx.locs.done, 1)
        waiter = yield read(ctx.locs.announce)
        if waiter != NIL:
            yield write(ctx.locs.notify[waiter], 1)


class MutantSingleWaiter(SingleWaiter):
    """Deliberately broken single-waiter variant: Signal never writes the
    waiter's notification word.  Checker self-test material only."""

    name = "mutant_single_waiter"

    def signal(self, ctx: Ctx):
        yield write(ctx.locs.done, 1)
        yield read(ctx.locs.announce)


class FixedWaiters(SignalingAlgorithm):
    """Waiter ids fixed in advance.

    Poll reads a notification word in the poller's own module, so polling
    is free of remote references.  Signal writes every fixed waiter's word,
    paying one remote reference per waiter other than itself.  The
    terminating variant first spins on per-waiter presence flags (set by
    each waiter's first Poll) before notifying anyone, so Signal blocks
    until every fixed waiter has shown up.
    """

    def __init__(self, n: int, waiters=None, terminating: bool = False):
        super().__init__(n, waiters)
        self.terminating = terminating
        self.name = "dsm_fixed_waiters_term" if terminating else "dsm_fixed_waiters"

    def setup(self, mem: Memory):
        alloc, home = mem.alloc, self.home
        locs = SimpleNamespace(notify=_notify_words(alloc, self.waiters))
        if self.terminating:
            locs.present = {i: alloc(f"present[{i}]", home) for i in self.waiters}
        return locs

    def poll(self, ctx: Ctx):
        if self.terminating and not ctx.state.get("present"):
            ctx.state["present"] = True
            yield write(ctx.locs.present[ctx.pid], 1)
        return bool((yield read(ctx.locs.notify[ctx.pid])))

    def signal(self, ctx: Ctx):
        waiters = self.waiters
        if self.terminating:
            i = 0
            while i < len(waiters):
                while not (yield read(ctx.locs.present[waiters[i]])):
                    pass
                i += 1
        i = 0
        while i < len(waiters):
            yield write(ctx.locs.notify[waiters[i]], 1)
            i += 1


class Registration(SignalingAlgorithm):
    """One signaler, process 1, fixed in advance; waiters register with it.

    A waiter's first Poll sets its registration flag in the signaler's
    module and then reads the global done flag, which closes the race with
    a concurrent Signal: Signal sets the done flag first and only then
    scans the registrations, so a registration that the scan misses implies
    the waiter's first Poll already saw the flag set.
    """

    name = "dsm_registration"
    designated_signaler = 1  # the home of every global word

    def setup(self, mem: Memory):
        alloc, home, ids = mem.alloc, self.home, range(1, self.n + 1)
        return SimpleNamespace(
            registered={i: alloc(f"registered[{i}]", home) for i in ids},
            done=alloc("signaled", home),
            notify=_notify_words(alloc, ids),
        )

    def poll(self, ctx: Ctx):
        if not ctx.state.get("registered"):
            ctx.state["registered"] = True
            yield write(ctx.locs.registered[ctx.pid], 1)
            return bool((yield read(ctx.locs.done)))
        return bool((yield read(ctx.locs.notify[ctx.pid])))

    def signal(self, ctx: Ctx):
        yield write(ctx.locs.done, 1)
        i = 1
        while i <= ctx.n:
            if (yield read(ctx.locs.registered[i])):
                yield write(ctx.locs.notify[i], 1)
            i += 1


class QueueSignaling(SignalingAlgorithm):
    """Signaler not fixed in advance; waiters enqueue themselves.

    A waiter's first Poll grabs a slot with fetch-and-increment, records
    its id there, and reads the global done flag; later Polls read the
    waiter's own notification word.  Signal sets the done flag, then scans
    the filled slots and notifies each enqueued waiter.  A slot whose write
    has not landed when the scan passes is skipped; its owner's done-flag
    read necessarily follows its slot write, so that Poll returns true.
    """

    name = "dsm_queue"
    primitives = frozenset({OpKind.READ, OpKind.WRITE, OpKind.FAI})

    def setup(self, mem: Memory):
        alloc, home = mem.alloc, self.home
        return SimpleNamespace(
            tail=alloc("tail", home),
            done=alloc("signaled", home),
            slots=[alloc(f"queue[{k}]", home, NIL) for k in range(self.n)],
            notify=_notify_words(alloc, range(1, self.n + 1)),
        )

    def poll(self, ctx: Ctx):
        if not ctx.state.get("enqueued"):
            ctx.state["enqueued"] = True
            slot = yield fai(ctx.locs.tail)
            if slot >= ctx.n:
                raise CapacityError(f"queue capacity {ctx.n} exceeded")
            yield write(ctx.locs.slots[slot], ctx.pid)
            return bool((yield read(ctx.locs.done)))
        return bool((yield read(ctx.locs.notify[ctx.pid])))

    def signal(self, ctx: Ctx):
        yield write(ctx.locs.done, 1)
        tail = yield read(ctx.locs.tail)
        k = 0
        while k < min(tail, ctx.n):
            waiter = yield read(ctx.locs.slots[k])
            if waiter != NIL:
                yield write(ctx.locs.notify[waiter], 1)
            k += 1


def _notify_words(alloc, ids) -> dict:
    """One notification word per process id, each homed at its own process."""
    return {i: alloc(f"notify[{i}]", i) for i in ids}


REGISTRY = {
    "cc_flag": CcFlag,
    "dsm_single_waiter": SingleWaiter,
    "dsm_fixed_waiters": FixedWaiters,
    "dsm_fixed_waiters_term": lambda n, **kw: FixedWaiters(n, terminating=True, **kw),
    "dsm_registration": Registration,
    "dsm_queue": QueueSignaling,
    "mutant_single_waiter": MutantSingleWaiter,
}


def make_algorithm(name: str, n: int, **params) -> SignalingAlgorithm:
    """Build a registered algorithm; append ``+blocking`` to give it Wait.
    Every protocol takes ``waiters``, the processes that wait in its runs."""
    base, plus, suffix = name.partition("+")
    factory = REGISTRY.get(base)
    if factory is None:
        raise ConfigError(f"unknown algorithm {name!r}; known: {sorted(REGISTRY)}")
    if plus and suffix != "blocking":
        raise ConfigError(f"unknown algorithm variant {suffix!r}; the one variant is +blocking")
    algorithm = factory(n=n, **params)
    if plus:
        algorithm.blocking = True
        algorithm.name += "+blocking"
    return algorithm
