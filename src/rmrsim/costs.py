"""Remote-memory-reference cost models and coherence-message accounting.

Two charging rules classify every event as local or remote (RMR):

* distributed shared memory (DSM): an access is an RMR iff it targets a
  location homed at another process's module; a pure function of the event.
* cache-coherent (CC): every process may cache any location.  A read is
  local while the reader holds a valid copy; it is an RMR (and creates a
  copy) otherwise.  Every nontrivial step (a write or a fetch-and-increment)
  costs one RMR, destroys all remote copies, and refreshes the writer's own.
  Its one state is a holder table: per word uid, who holds a valid copy.

Invalidation traffic is counted for two interconnects: a broadcast bus
(one message per nontrivial step) and an ideal directory (one message
per remote copy actually held).
"""

from __future__ import annotations

from enum import Enum

from .errors import SimError
from .memory import Event


class Model(Enum):
    DSM = "dsm"
    CC = "cc"


_DSM = Model.DSM  # ``Model.DSM`` goes through the enum metaclass on every lookup


#: Metric key order used in every serialized record.
METRIC_NAMES = ("rmr_dsm", "rmr_cc", "msg_bus", "msg_dir", "steps")


class RmrLedger:
    """Per-process cost accounting folded over a run's event list.

    One count table: a row per process id, a column per metric in
    ``METRIC_NAMES`` order (DSM RMRs, CC RMRs, bus and ideal-directory
    invalidation messages, steps).  Counts are nonnegative and only grow.
    Beside it, the CC holder table (:attr:`cache`).  The ledger holds the
    list the run appends its events to and a cursor into it: :meth:`record`
    charges the events past the cursor, and every read charges first, so no
    read sees fewer events than the list holds.
    While the run has a checkpoint open (``checkpointed``, set by the run),
    every read raises :class:`SimError`: those events may be rolled back.
    """

    __slots__ = ("_cache", "_rows", "_events", "_charged", "checkpointed")

    def __init__(self, n: int, events: list[Event]):
        self._cache: dict[int, set[int]] = {}
        zeros = [0] * len(METRIC_NAMES)
        self._rows = [zeros.copy() for _ in range(n + 1)]
        self._events = events
        self._charged = 0
        self.checkpointed = False

    def record(self) -> None:
        """Charge each event past the cursor, in order, by the DSM rule, the
        ideal-directory count (one message per copy another process held
        before the event) and the CC rule, folded over a single holder-set
        lookup per event.  Refused while a checkpoint is open."""
        if self.checkpointed:
            raise SimError("ledger read while a checkpoint is open; read it after, or a fork")
        events = self._events
        if self._charged == len(events):
            return
        rows, holders_of = self._rows, self._cache
        for event in events[self._charged:]:
            p, loc = event.proc, event.loc
            row = rows[p]  # columns: rmr_dsm, rmr_cc, msg_bus, msg_dir, steps
            row[4] += 1
            if event.home != p:
                row[0] += 1
            holders = holders_of.get(loc)
            if event.op.trivial:
                if holders is None:
                    holders_of[loc] = {p}
                elif p in holders:
                    continue
                else:
                    holders.add(p)
                row[1] += 1
                continue
            row[1] += 1
            row[2] += 1
            if holders is None:
                holders_of[loc] = {p}
            else:
                row[3] += len(holders) - (p in holders)
                holders.clear()
                holders.add(p)
        self._charged = len(events)

    def detach(self) -> None:
        """Charge what is left and let go of the event list: the counts
        stay as they are from here on."""
        self.record()
        self._events, self._charged = [], 0

    @property
    def cache(self) -> dict[int, set[int]]:
        """The CC holder table, charged to the end of the list: the
        ledger's own dict, which the next charge changes."""
        self.record()
        return self._cache

    def rmr(self, model: Model, proc: int) -> int:
        self.record()
        return self._rows[proc][0 if model is _DSM else 1]

    def per_process(self, proc: int) -> dict[str, int]:
        """Metrics for one process under the fixed metric names."""
        self.record()
        return dict(zip(METRIC_NAMES, self._rows[proc]))

    def totals(self) -> dict[str, int]:
        self.record()
        return dict(zip(METRIC_NAMES, map(sum, zip(*self._rows))))

    def _total(self, column: int) -> int:
        self.record()
        return sum(row[column] for row in self._rows)

    @property
    def total_rmr_dsm(self) -> int:
        return self._total(0)

    @property
    def total_rmr_cc(self) -> int:
        return self._total(1)

    @property
    def total_msg_bus(self) -> int:
        return self._total(2)

    @property
    def total_msg_dir(self) -> int:
        return self._total(3)
