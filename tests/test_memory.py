"""Primitive-operation semantics, event bookkeeping, and allocation rules."""

import dataclasses
import re

import pytest

from rmrsim.errors import CapacityError, ConfigError
from rmrsim.memory import (
    NIL,
    WORD_MAX,
    WORD_MIN,
    Event,
    Location,
    Memory,
    OpKind,
    fai,
    read,
    write,
)


def apply(mem, proc, request, seq=0):
    return mem.apply(proc, *request, seq)


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
    assert mem.words()[flag.uid] == 0


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


# Each refused allocation, with its error and message, on a memory of
# n = 2 that holds "s" (home 1) and "t" (home 2, init 7).  Where several
# faults meet, the home is named before the name, and the name before the
# initial value.
ALLOC_REFUSALS = [
    (("x", 3), ConfigError, "home 3 outside 1..2"),
    (("x", 0), ConfigError, "home 0 outside 1..2"),
    (("s", 9, "0"), ConfigError, "home 9 outside 1..2"),
    (("s", 2), ConfigError, "location name 's' already allocated"),
    (("s", 1, 1.5), ConfigError, "location name 's' already allocated"),
    (("x", 1, "0"), ConfigError, "initial value '0' of 'x' is not an int"),
    (("x", 1, 0.0), ConfigError, "initial value 0.0 of 'x' is not an int"),
    (("x", 1, None), ConfigError, "initial value None of 'x' is not an int"),
    (("x", 1, WORD_MAX + 1), CapacityError, f"value {WORD_MAX + 1} outside the 64-bit word range"),
    (("x", 1, WORD_MIN - 1), CapacityError, f"value {WORD_MIN - 1} outside the 64-bit word range"),
]


@pytest.mark.parametrize("args, error, message", ALLOC_REFUSALS,
                         ids=[f"{a[0]}-{a[1]}-{a[2:]}" for a, _, _ in ALLOC_REFUSALS])
def test_a_refused_alloc_changes_nothing(args, error, message):
    mem = Memory(2)
    mem.alloc("s", 1)
    mem.alloc("t", 2, 7)
    apply(mem, 2, write(mem.alloc("u", 1), 4))
    before = (mem.words(), list(mem.inits), mem.module_snapshot(1))
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        mem.alloc(*args)
    assert (mem.words(), list(mem.inits), mem.module_snapshot(1)) == before
    # The next word takes the next uid, and the refused name is free.
    x = mem.alloc("x", 1, 3)
    assert (x.uid, x.name, x.home) == (3, "x", 1)
    assert mem.words() == (0, 7, 4, 3, None, None, 2, None)
    assert mem.inits == [0, 7, 0, 3]


def test_an_alloc_stores_its_fields_and_takes_ints_of_every_width():
    mem = Memory(3)
    words = [mem.alloc(f"w{i}", home, init)
             for i, (home, init) in enumerate([(1, 0), (3, WORD_MIN), (2, WORD_MAX), (3, True)])]
    assert [(w.uid, w.name, w.home) for w in words] == [
        (0, "w0", 1), (1, "w1", 3), (2, "w2", 2), (3, "w3", 3)]
    # Compared and hashed by their fields, as the run's dict keys need.
    twin = Memory(3).alloc("w0", 1)
    assert twin == words[0] and hash(twin) == hash(words[0]) and len(set(words)) == 4
    # The class keeps its constructor: one built field by field, or replaced,
    # equals the allocated word with those fields.
    assert Location(0, "w0", 1) == words[0]
    assert dataclasses.replace(words[1], home=1) == Location(1, "w1", 1)
    assert mem.inits == [0, WORD_MIN, WORD_MAX, True]
    assert mem.module_snapshot(3) == ((1, WORD_MIN), (3, True))


def test_a_write_of_none_is_refused_before_the_word_or_its_writer_changes():
    mem = Memory(2)
    x = mem.alloc("x", 2)
    apply(mem, 1, write(x, 5))
    with pytest.raises(ConfigError, match=r"^process 2 writes None to word 0 \(x\)$"):
        apply(mem, 2, write(x, None), seq=1)
    assert mem.words() == (5, 1)
    assert mem.current_writer(x) == 1


def test_a_write_of_a_float_is_refused_so_a_later_fai_counts_in_ints():
    mem = Memory(2)
    x = mem.alloc("x", 1)
    with pytest.raises(ConfigError, match=r"^process 2 writes 1\.5, not an int, to word 0 \(x\)$"):
        apply(mem, 2, write(x, 1.5))
    assert mem.words() == (0, None)
    ev = apply(mem, 1, fai(x), seq=1)
    assert (ev.value_read, ev.value_written, ev.writer_before) == (0, 1, None)
    assert type(ev.value_written) is int and mem.words() == (1, 1)


@pytest.mark.parametrize("value, shown", [
    ("a", "'a'"), (b"1", "b'1'"), ([1], r"\[1\]"), (2.0, r"2\.0"),
])
def test_a_write_of_any_non_int_is_a_config_error_not_a_type_error(value, shown):
    mem = Memory(3)
    mem.alloc("w", 1)
    x = mem.alloc("x", 3, init=7)
    with pytest.raises(ConfigError, match=rf"^process 3 writes {shown}, not an int, "
                                          r"to word 1 \(x\)$"):
        apply(mem, 3, write(x, value))
    assert mem.words() == (0, 7, None, None)


def test_write_event_fields():
    mem = Memory(2)
    b = mem.alloc("b", home=1, init=0)
    ev = apply(mem, 1, write(b, 1))
    assert ev.value_written == 1
    assert ev.value_read is None
    assert mem.words()[b.uid] == 1


def test_a_request_is_kind_location_value():
    mem = Memory(2)
    x = mem.alloc("x", home=1)
    assert read(x) == (OpKind.READ, x, None) and read(x)[1] is x
    assert fai(x) == (OpKind.FAI, x, None)
    assert write(x, 41) == (OpKind.WRITE, x, 41)
    # True equals 1, but the write stores the operand it was given.
    assert write(x, True)[2] is True
    assert apply(mem, 1, write(x, True)).value_written is True
    assert mem.words()[x.uid] is True


def test_fai_returns_old_and_increments():
    mem = Memory(2)
    tail = mem.alloc("tail", home=1, init=4)
    ev = apply(mem, 1, fai(tail))
    assert ev.value_read == 4
    assert ev.value_written == 5
    assert mem.words()[tail.uid] == 5


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


def test_writer_before_equals_last_writer_of_prefix():
    mem = Memory(3)
    x = mem.alloc("x", home=1)
    y = mem.alloc("y", home=2)
    script = [
        (1, write(x, 1)), (2, read(x)), (2, write(y, 4)), (3, fai(y)),
        (1, fai(x)), (3, read(x)), (2, write(y, 1)), (1, read(y)),
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
    assert mem.words()[top.uid] == WORD_MAX
    assert mem.words()[bottom.uid] == WORD_MIN


# Per kind: the request's operands and the word's value before; then the
# event's value read and value written.  Process 2 wrote the word last
# before the step.
APPLY_TABLE = [
    (OpKind.READ, {}, 5, (5, None)),
    (OpKind.WRITE, {"value": 7}, 5, (None, 7)),
    (OpKind.FAI, {}, 5, (5, 6)),
]


def test_apply_table_covers_every_kind():
    assert {row[0] for row in APPLY_TABLE} == set(OpKind)


@pytest.mark.parametrize("kind, operands, before, expected", APPLY_TABLE)
def test_apply_table(kind, operands, before, expected):
    # Passes the enum member itself, so a kind constant bound to the wrong
    # member sends it down the wrong branch and fails here.
    mem = Memory(3)
    x = mem.alloc("x", home=2)
    apply(mem, 2, write(x, before))
    ev = mem.apply(1, kind, x, operands.get("value"), 9)
    assert (ev.value_read, ev.value_written) == expected
    assert (ev.seq, ev.proc, ev.loc, ev.home, ev.writer_before) == (9, 1, x.uid, 2, 2)
    written = expected[1]
    _, value, writer = mem.save_word(x.uid)
    assert (value, writer) == ((before, 2) if written is None else (written, 1))


@pytest.mark.parametrize("kind, operands, before, expected", APPLY_TABLE)
def test_apply_builds_the_event_its_class_builds(kind, operands, before, expected):
    # apply stores the event's slots one by one instead of calling Event:
    # every field must be stored (astuple reads them all, and an unset slot
    # raises), and the event must equal, and print as, the class-built one.
    mem = Memory(3)
    x = mem.alloc("x", home=2)
    apply(mem, 2, write(x, before))
    ev = mem.apply(1, kind, x, operands.get("value"), 9)
    assert type(ev) is Event
    assert len(dataclasses.astuple(ev)) == len(dataclasses.fields(Event)) == 8
    built = Event(9, 1, kind, x.uid, 2, *expected, 2)
    assert ev == built
    assert repr(ev) == repr(built)
    assert ev.signature() == built.signature()


def test_event_kind_sets():
    # Only reads and writes and FAI: every nontrivial step writes.
    assert set(OpKind) == {OpKind.READ, OpKind.WRITE, OpKind.FAI}
    assert {k for k in OpKind if k.trivial} == {OpKind.READ}
    assert {k for k in OpKind if not k.reads_value} == {OpKind.WRITE}


def test_nil_is_zero_and_ids_start_at_one():
    assert NIL == 0
