"""Safety and budget checks over recorded histories.

The polling contract has two directions: a Poll that returns true needs
some Signal to have already begun (its first step precedes the Poll's
returning step), and a Poll that returns false forbids any Signal having
completed before the Poll began.  The blocking contract is one-sided: a
Wait may return only after some Signal has begun.  Each contract costs
two passes over a history's call records: one finds the earliest begun
and completed Signal, one decides every Poll or Wait from those marks.
Violations come out in call order.

The budget is falsification-only: an amortized per-participant RMR bound
can be refuted by a history, never proven.  Its totals are recounted from
the events under the charging rules of ``costs``, one loop per model, in
code apart from the ledger's.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable

from .costs import Model
from .runner import History, POLL, SIGNAL, WAIT

POLL_TRUE_NO_SIGNAL = "POLL_TRUE_NO_SIGNAL"
POLL_FALSE_AFTER_SIGNAL = "POLL_FALSE_AFTER_SIGNAL"
WAIT_BEFORE_SIGNAL = "WAIT_BEFORE_SIGNAL"
AMORTIZED_BUDGET = "AMORTIZED_BUDGET"
HARNESS_MISUSE = "HARNESS_MISUSE"

_NEVER = float("inf")  # the seq of a Signal that never began or never completed


@dataclass(frozen=True, slots=True)
class Violation:
    """One broken property, with enough positions to replay and confirm it."""

    kind: str
    call_ids: tuple[int, ...] = ()
    seqs: tuple[int, ...] = ()
    message: str = ""

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "call_ids": list(self.call_ids),
            "seqs": list(self.seqs),
            "message": self.message,
        }


def check_polling(history: History) -> list[Violation]:
    """Both polling bullets for every completed Poll.

    "Begun" means the Signal's first step happened (a call with no steps
    has not begun).  Polls issued after the caller already got true are
    harness misuse: flagged, excluded from the bullet checks.
    """
    calls = history.calls
    first_begun = first_end = _NEVER
    for c in calls:
        if c.kind == SIGNAL and c.start_seq is not None:
            if c.start_seq < first_begun:
                first_begun = c.start_seq
            if c.end_seq is not None and c.end_seq < first_end:
                first_end = c.end_seq

    out: list[Violation] = []
    got_true_at: dict[int, int] = {}
    for call in calls:
        if call.kind != POLL:
            continue
        true_seq = got_true_at.get(call.proc)
        if true_seq is not None:
            out.append(Violation(
                HARNESS_MISUSE, call_ids=(call.call_id,), seqs=(true_seq,),
                message=f"process {call.proc} polled again after a true response"))
        elif call.end_seq is None:
            continue
        elif call.response:
            got_true_at[call.proc] = call.end_seq
            if first_begun >= call.end_seq:
                out.append(Violation(
                    POLL_TRUE_NO_SIGNAL, call_ids=(call.call_id,), seqs=(call.end_seq,),
                    message=f"poll by {call.proc} returned true before any signal began"))
        elif first_end < call.start_seq:
            # The violation is certain; blame the first such Signal in call order.
            culprit = next(
                s for s in calls if s.kind == SIGNAL and s.start_seq is not None
                and s.end_seq is not None and s.end_seq < call.start_seq
            )
            out.append(Violation(
                POLL_FALSE_AFTER_SIGNAL, call_ids=(call.call_id, culprit.call_id),
                seqs=(call.start_seq, culprit.end_seq),
                message=(f"poll by {call.proc} returned false although signal "
                         f"by {culprit.proc} completed first")))
    return out


def check_blocking(history: History) -> list[Violation]:
    """A completed Wait needs some Signal begun before its return."""
    calls = history.calls
    first_begun = _NEVER
    for c in calls:
        if c.kind == SIGNAL and c.start_seq is not None and c.start_seq < first_begun:
            first_begun = c.start_seq

    out: list[Violation] = []
    for call in calls:
        if call.kind == WAIT and call.end_seq is not None and first_begun >= call.end_seq:
            out.append(Violation(
                WAIT_BEFORE_SIGNAL, call_ids=(call.call_id,), seqs=(call.end_seq,),
                message=f"wait by {call.proc} returned before any signal began"))
    return out


@dataclass(frozen=True, slots=True)
class AmortizedResult:
    passed: bool
    total: int
    k: int
    c: int
    model: Model
    violations: tuple[Violation, ...] = field(default=())


def check_amortized(history: History, c: int, model: Model) -> AmortizedResult:
    """Does the history keep total RMRs within c per participant?

    Totals are recomputed here from the raw events, independently of any
    ledger the run kept.
    """
    if c < 1:
        raise ValueError("amortized constant must be at least 1")
    events = history.events
    if model is Model.DSM:
        # Remote iff the word lives in another process's module.
        total = len([None for e in events if e.home != e.proc])
    else:
        # Every event is an RMR but a read by a process holding a valid
        # copy; a nontrivial step leaves its issuer the only holder.
        holders_of: dict[int, set[int]] = {}
        local = 0
        for e in events:
            if e.op.trivial:
                holders = holders_of.get(e.loc)
                if holders is None:
                    holders_of[e.loc] = {e.proc}
                elif e.proc in holders:
                    local += 1
                else:
                    holders.add(e.proc)
            else:
                holders_of[e.loc] = {e.proc}
        total = len(events) - local
    k = len(history.participants)
    passed = total <= c * k
    violations = ()
    if not passed:
        violations = (Violation(
            AMORTIZED_BUDGET,
            seqs=(len(events) - 1,) if events else (),
            message=f"{total} {model.value} RMRs across {k} participants exceeds c*k={c * k}",
        ),)
    return AmortizedResult(passed=passed, total=total, k=k, c=c, model=model,
                           violations=violations)


def real_violations(violations: Iterable[Violation]) -> list[Violation]:
    """Everything except harness-misuse notes."""
    return [v for v in violations if v.kind != HARNESS_MISUSE]
