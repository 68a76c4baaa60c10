"""Remote-memory-reference cost models and coherence-message accounting.

Two charging rules classify every event as local or remote (RMR):

* distributed shared memory (DSM): an access is an RMR iff it targets a
  location homed at another process's module; a pure function of the event.
* cache-coherent (CC): every process may cache any location.  A read is
  local while the reader holds a valid copy; it is an RMR (and creates a
  copy) otherwise.  Any nontrivial attempt, including a failed CAS/SC/TAS,
  costs one RMR, destroys all remote copies, and refreshes the writer's own.

Invalidation traffic is counted for two interconnects: a broadcast bus
(one message per nontrivial attempt) and an ideal directory (one message
per remote copy actually held).
"""

from __future__ import annotations

from enum import Enum

from .memory import Event

LOCAL = "local"
RMR = "rmr"


class Model(Enum):
    DSM = "dsm"
    CC = "cc"


_DSM = Model.DSM  # ``Model.DSM`` goes through the enum metaclass on every lookup


#: Metric key order used in every serialized record.
METRIC_NAMES = ("rmr_dsm", "rmr_cc", "msg_bus", "msg_dir", "steps")


def classify_dsm(event: Event) -> str:
    """DSM rule: remote iff the location lives in another process's module."""
    return RMR if event.home != event.proc else LOCAL


class CacheState:
    """Which processes hold a valid cached copy of which location.

    The ideal cache never drops a copy spuriously; a copy disappears only
    when some other process performs a nontrivial attempt on the location.
    """

    __slots__ = ("_holders",)

    def __init__(self):
        self._holders: dict[int, set[int]] = {}

    def held_among(self, proc: int, locs) -> tuple[int, ...]:
        """Those of ``locs`` that ``proc`` currently holds, in uid order."""
        holders = self._holders
        return tuple(sorted([u for u in locs if proc in holders.get(u, ())]))

    def save(self, proc: int, loc: int, trivial: bool) -> tuple | None:
        """What :meth:`restore` needs to undo a step of ``proc`` on ``loc``:
        None if the step keeps the holders, ``("drop", loc, proc)`` if it
        only adds the reader's copy, else the whole holder set it replaces."""
        holders = self._holders.get(loc)
        if not trivial:
            return "put", loc, None if holders is None else set(holders)
        if holders is None or proc not in holders:
            return "drop", loc, proc
        return None

    def restore(self, saved: tuple) -> None:
        action, loc, arg = saved
        if action == "drop":
            self._holders[loc].discard(arg)
        elif arg is None:
            self._holders.pop(loc, None)
        else:
            self._holders[loc] = arg


def classify_cc(event: Event, cache: CacheState) -> str:
    """CC rule.  Mutates ``cache`` to reflect the event."""
    holders = cache._holders.get(event.loc)
    if event.op.trivial:
        if holders is not None and event.proc in holders:
            return LOCAL
        if holders is None:
            cache._holders[event.loc] = {event.proc}
        else:
            holders.add(event.proc)
        return RMR
    # Nontrivial attempt: write-through to memory, invalidate remote copies,
    # refresh the issuer's own copy.  Always an RMR, cached copy or not.
    if holders is None:
        cache._holders[event.loc] = {event.proc}
    else:
        holders.clear()
        holders.add(event.proc)
    return RMR


class RmrLedger:
    """Per-process cost accounting folded over an event sequence.

    One count table: a row per process id, a column per metric in
    ``METRIC_NAMES`` order (DSM RMRs, CC RMRs, bus and ideal-directory
    invalidation messages, steps).  Counts are nonnegative and only grow.
    """

    __slots__ = ("n", "cache", "_rows")

    def __init__(self, n: int):
        self.n = n
        self.cache = CacheState()
        self._rows = [[0] * len(METRIC_NAMES) for _ in range(n + 1)]

    def record(self, event: Event) -> None:
        """Charge one event: :func:`classify_dsm`, the ideal-directory
        count (one message per copy another process held before the event)
        and :func:`classify_cc`, folded over a single holder-set lookup."""
        p = event.proc
        row = self._rows[p]  # columns: rmr_dsm, rmr_cc, msg_bus, msg_dir, steps
        row[4] += 1
        if event.home != p:
            row[0] += 1
        holders = self.cache._holders.get(event.loc)
        if event.op.trivial:
            if holders is None:
                self.cache._holders[event.loc] = {p}
                row[1] += 1
            elif p not in holders:
                holders.add(p)
                row[1] += 1
            return
        row[1] += 1
        row[2] += 1
        if holders is None:
            self.cache._holders[event.loc] = {p}
        else:
            row[3] += len(holders) - (p in holders)
            holders.clear()
            holders.add(p)

    def row(self, proc: int) -> list[int]:
        """A copy of one process's counts, for :meth:`set_row`."""
        return list(self._rows[proc])

    def set_row(self, proc: int, row: list[int]) -> None:
        self._rows[proc] = row

    def rmr(self, model: Model, proc: int) -> int:
        return self._rows[proc][0 if model is _DSM else 1]

    def per_process(self, proc: int) -> dict[str, int]:
        """Metrics for one process under the fixed metric names."""
        return dict(zip(METRIC_NAMES, self._rows[proc]))

    def totals(self) -> dict[str, int]:
        return dict(zip(METRIC_NAMES, map(sum, zip(*self._rows))))

    @property
    def total_rmr_dsm(self) -> int:
        return sum(row[0] for row in self._rows)

    @property
    def total_rmr_cc(self) -> int:
        return sum(row[1] for row in self._rows)

    @property
    def total_msg_bus(self) -> int:
        return sum(row[2] for row in self._rows)

    @property
    def total_msg_dir(self) -> int:
        return sum(row[3] for row in self._rows)
