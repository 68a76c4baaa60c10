"""Primitive-operation semantics, event bookkeeping, and allocation rules."""

import dataclasses

import pytest

from rmrsim import memory
from rmrsim.errors import CapacityError, ConfigError
from rmrsim.memory import (
    NIL,
    WORD_MAX,
    WORD_MIN,
    Event,
    Memory,
    OpKind,
    PrimitiveOp,
    cas,
    fai,
    ll,
    read,
    sc,
    write,
)


def apply(mem, proc, request, seq=0):
    op, loc = request
    return mem.apply(proc, op, loc, seq)


def last_writer(events, loc):
    """Process of the most recent memory-modifying event on ``loc`` in the
    given event prefix, or None if the location was never written there:
    the oracle for ``Event.writer_before``."""
    found = None
    for e in events:
        if e.loc == loc.uid and e.value_written is not None:
            found = e.proc
    return found


def test_alloc_basic():
    mem = Memory(3)
    flag = mem.alloc("flag", home=1, init=0)
    assert flag.home == 1
    assert mem.words(False)[flag.uid] == 0


def test_alloc_per_process_home():
    mem = Memory(3)
    notify = mem.alloc("notify[2]", home=2, init=0)
    assert notify.home == 2


def test_module_snapshot_lists_the_homes_words():
    mem = Memory(3)
    first = mem.alloc("notify[2]", home=2)
    mem.alloc("flag", home=1)
    assert mem.module_snapshot(2) == ((first.uid, 0),)
    later = mem.alloc("extra[2]", home=2, init=5)  # allocated after a snapshot
    assert mem.module_snapshot(2) == ((first.uid, 0), (later.uid, 5))
    assert mem.module_snapshot(3) == ()


def test_alloc_duplicate_name_rejected():
    mem = Memory(2)
    mem.alloc("s", home=1)
    with pytest.raises(ConfigError):
        mem.alloc("s", home=2)


def test_alloc_invalid_home_rejected():
    mem = Memory(2)
    with pytest.raises(ConfigError):
        mem.alloc("x", home=3)
    with pytest.raises(ConfigError):
        mem.alloc("y", home=0)


def test_write_event_fields():
    mem = Memory(2)
    b = mem.alloc("b", home=1, init=0)
    ev = apply(mem, 1, write(b, 1))
    assert ev.value_written == 1
    assert ev.value_read is None
    assert ev.outcome is True
    assert mem.words(False)[b.uid] == 1


def test_writes_of_one_value_share_one_op():
    mem = Memory(2)
    x, y = mem.alloc("x", home=1), mem.alloc("y", home=2)
    op, loc = write(x, 41)
    assert loc is x and write(y, 41)[0] is op
    fresh = PrimitiveOp(OpKind.WRITE, 41)
    assert op == fresh and hash(op) == hash(fresh)
    assert (op.trivial, op.reads_value) == (fresh.trivial, fresh.reads_value) == (False, False)
    # Equal and equally hashed, but other operands: each keeps its own.
    assert write(x, True)[0].value is True and write(x, 1.0)[0].value.__class__ is float
    assert apply(mem, 1, write(x, True)).value_written is True


def test_writes_past_the_op_table_bound_stay_correct(monkeypatch):
    monkeypatch.setattr(memory, "_WRITE_OPS", {})
    mem = Memory(1)
    x = mem.alloc("x", home=1)
    for value in range(-2, memory._WRITE_OPS_MAX + 3):
        op, _ = write(x, value)
        assert op == PrimitiveOp(OpKind.WRITE, value) and op.trivial is False
        ev = apply(mem, 1, (op, x))
        assert (ev.value_written, mem.words(False)[x.uid]) == (value, value)
    assert len(memory._WRITE_OPS) == memory._WRITE_OPS_MAX
    assert write(x, -2)[0] is write(x, -2)[0]
    assert write(x, memory._WRITE_OPS_MAX + 2)[0] is not write(x, memory._WRITE_OPS_MAX + 2)[0]


def test_failed_cas_reads_but_does_not_write():
    mem = Memory(2)
    x = mem.alloc("x", home=1, init=3)
    ev = apply(mem, 2, cas(x, expected=0, value=5))
    assert ev.outcome is False
    assert ev.value_read == 3
    assert ev.value_written is None
    assert mem.words(False)[x.uid] == 3


def test_successful_cas_writes():
    mem = Memory(2)
    x = mem.alloc("x", home=1, init=3)
    ev = apply(mem, 2, cas(x, expected=3, value=5))
    assert ev.outcome is True
    assert ev.value_written == 5
    assert mem.words(False)[x.uid] == 5


def test_fai_returns_old_and_increments():
    mem = Memory(2)
    tail = mem.alloc("tail", home=1, init=4)
    ev = apply(mem, 1, fai(tail))
    assert ev.value_read == 4
    assert ev.value_written == 5
    assert mem.words(False)[tail.uid] == 5


def test_sc_without_ll_fails_quietly():
    mem = Memory(2)
    x = mem.alloc("x", home=1, init=0)
    ev = apply(mem, 1, sc(x, 5))
    assert ev.outcome is False
    assert mem.words(False)[x.uid] == 0


def test_ll_sc_roundtrip():
    mem = Memory(2)
    x = mem.alloc("x", home=1, init=0)
    apply(mem, 1, ll(x))
    ev = apply(mem, 1, sc(x, 5))
    assert ev.outcome is True
    assert mem.words(False)[x.uid] == 5


def test_sc_fails_after_intervening_write():
    mem = Memory(2)
    x = mem.alloc("x", home=1, init=0)
    apply(mem, 1, ll(x))
    apply(mem, 2, write(x, 9))
    ev = apply(mem, 1, sc(x, 5))
    assert ev.outcome is False
    assert mem.words(False)[x.uid] == 9


def test_sc_attempt_consumes_link():
    mem = Memory(2)
    x = mem.alloc("x", home=1, init=0)
    apply(mem, 1, ll(x))
    apply(mem, 1, sc(x, 5))
    ev = apply(mem, 1, sc(x, 6))
    assert ev.outcome is False


def test_failed_rmw_does_not_clear_links():
    mem = Memory(2)
    x = mem.alloc("x", home=1, init=1)
    apply(mem, 1, ll(x))
    apply(mem, 2, cas(x, expected=0, value=5))  # fails, no write
    ev = apply(mem, 1, sc(x, 7))
    assert ev.outcome is True


def test_last_writer_none_before_any_write():
    mem = Memory(2)
    x = mem.alloc("x", home=1)
    events = [apply(mem, 1, read(x))]
    assert last_writer(events, x) is None


def test_last_writer_follows_writes():
    mem = Memory(2)
    x = mem.alloc("x", home=1)
    events = [
        apply(mem, 1, write(x, 1), seq=0),
        apply(mem, 2, write(x, 2), seq=1),
    ]
    assert last_writer(events, x) == 2


def test_last_writer_ignores_failed_cas():
    mem = Memory(2)
    x = mem.alloc("x", home=1)
    events = [
        apply(mem, 1, write(x, 1), seq=0),
        apply(mem, 2, cas(x, expected=7, value=9), seq=1),
    ]
    assert events[1].value_written is None
    assert last_writer(events, x) == 1
    assert mem.current_writer(x) == 1


def test_writer_before_equals_last_writer_of_prefix():
    mem = Memory(3)
    x = mem.alloc("x", home=1)
    y = mem.alloc("y", home=2)
    script = [
        (1, write(x, 1)), (2, read(x)), (2, write(y, 4)), (3, fai(y)),
        (1, cas(x, 1, 8)), (3, read(x)), (2, cas(y, 0, 1)), (1, read(y)),
    ]
    events = []
    for i, (proc, req) in enumerate(script):
        before = last_writer(events, req[1])
        ev = apply(mem, proc, req, seq=i)
        assert ev.writer_before == before
        events.append(ev)


def test_word_range_enforced():
    mem = Memory(2)
    x = mem.alloc("x", home=1)
    with pytest.raises(CapacityError):
        apply(mem, 1, write(x, 1 << 70))
    for init in (WORD_MAX + 1, WORD_MIN - 1):
        with pytest.raises(CapacityError):
            mem.alloc(f"y{init}", home=1, init=init)
    top = mem.alloc("top", home=1, init=WORD_MAX)
    bottom = mem.alloc("bottom", home=1, init=WORD_MIN)
    assert mem.words(False)[top.uid] == WORD_MAX
    assert mem.words(False)[bottom.uid] == WORD_MIN


# Per kind: operands, the word's value before, whether process 1 holds an
# LL link on it; then the event's value read, value written and outcome,
# and whether process 1 (and process 3, which linked first) holds a link
# after.  Process 2 wrote the word last before the op.
APPLY_TABLE = [
    (OpKind.READ, {}, 5, False, (5, None, True), False),
    (OpKind.WRITE, {"value": 7}, 5, False, (None, 7, True), False),
    (OpKind.CAS, {"expected": 5, "value": 7}, 5, False, (5, 7, True), False),
    (OpKind.CAS, {"expected": 4, "value": 7}, 5, False, (5, None, False), False),
    (OpKind.LL, {}, 5, False, (5, None, True), True),
    (OpKind.SC, {"value": 7}, 5, True, (None, 7, True), False),
    (OpKind.SC, {"value": 7}, 5, False, (None, None, False), False),
    (OpKind.FAI, {}, 5, False, (5, 6, True), False),
]


def test_apply_table_covers_every_kind():
    assert {row[0] for row in APPLY_TABLE} == set(OpKind)


@pytest.mark.parametrize("kind, operands, before, linked, expected, linked_after", APPLY_TABLE)
def test_apply_table(kind, operands, before, linked, expected, linked_after):
    # Builds each op from the enum member itself, so a kind constant bound
    # to the wrong member sends it down the wrong branch and fails here.
    mem = Memory(3)
    x = mem.alloc("x", home=2)
    apply(mem, 2, write(x, before))
    apply(mem, 3, ll(x))
    if linked:
        apply(mem, 1, ll(x))
    ev = mem.apply(1, PrimitiveOp(kind, **operands), x, 9)
    assert (ev.value_read, ev.value_written, ev.outcome) == expected
    assert (ev.seq, ev.proc, ev.loc, ev.home, ev.writer_before) == (9, 1, x.uid, 2, 2)
    written = expected[1]
    _, value, writer, links = mem.save_word(x.uid)
    assert (value, writer) == ((before, 2) if written is None else (written, 1))
    assert links == ({1} if linked_after else set()) | (set() if written is not None else {3})


@pytest.mark.parametrize("kind, operands, before, linked, expected, linked_after", APPLY_TABLE)
def test_apply_builds_the_event_its_class_builds(kind, operands, before, linked, expected,
                                                  linked_after):
    # apply stores the event's slots one by one instead of calling Event:
    # every field must be stored (astuple reads them all, and an unset slot
    # raises), and the event must equal, and print as, the class-built one.
    mem = Memory(3)
    x = mem.alloc("x", home=2)
    apply(mem, 2, write(x, before))
    if linked:
        apply(mem, 1, ll(x))
    op = PrimitiveOp(kind, **operands)
    ev = mem.apply(1, op, x, 9)
    assert type(ev) is Event
    assert len(dataclasses.astuple(ev)) == len(dataclasses.fields(Event)) == 9
    built = Event(9, 1, op, x.uid, 2, *expected, 2)
    assert ev == built
    assert repr(ev) == repr(built)
    assert ev.signature() == built.signature()


def test_event_kind_sets():
    assert {k for k in OpKind if k.trivial} == {OpKind.READ, OpKind.LL}
    assert {k for k in OpKind if not k.reads_value} == {OpKind.WRITE, OpKind.SC}
    assert all(PrimitiveOp(k).trivial is k.trivial for k in OpKind)
    assert all(PrimitiveOp(k).reads_value is k.reads_value for k in OpKind)


def test_nil_is_zero_and_ids_start_at_one():
    assert NIL == 0
