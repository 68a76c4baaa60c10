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

from .memory import Event


class Model(Enum):
    DSM = "dsm"
    CC = "cc"


_DSM = Model.DSM  # ``Model.DSM`` goes through the enum metaclass on every lookup


#: Metric key order used in every serialized record.
METRIC_NAMES = ("rmr_dsm", "rmr_cc", "msg_bus", "msg_dir", "steps")


class RmrLedger:
    """Per-process cost accounting folded over a run's events: a value, not
    a view of the run.

    One count table: a row per process id, a column per metric in
    ``METRIC_NAMES`` order (DSM RMRs, CC RMRs, bus and ideal-directory
    invalidation messages, steps).  Counts are nonnegative.  Beside it,
    ``cache``, the CC holder table.  The constructor folds the events it
    is given, once; events the run takes later do not change it.
    """

    __slots__ = ("cache", "_rows")

    def __init__(self, n: int, events: list[Event]):
        self.cache: dict[int, set[int]] = {}
        zeros = [0] * len(METRIC_NAMES)
        self._rows = [zeros.copy() for _ in range(n + 1)]
        self.record(events)

    def record(self, events: list[Event]) -> None:
        """Charge ``events``, in order, by the DSM rule, the ideal-directory
        count (one message per copy another process held before the event)
        and the CC rule, folded over a single holder-set lookup per event."""
        rows, holders_of = self._rows, self.cache
        for event in events:
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

    def rmr(self, model: Model, proc: int) -> int:
        return self._rows[proc][0 if model is _DSM else 1]

    def per_process(self, proc: int) -> dict[str, int]:
        """Metrics for one process under the fixed metric names."""
        return dict(zip(METRIC_NAMES, self._rows[proc]))

    def totals(self) -> dict[str, int]:
        return dict(zip(METRIC_NAMES, map(sum, zip(*self._rows))))

    def _total(self, column: int) -> int:
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
