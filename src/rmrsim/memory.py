"""Atomic shared-memory core.

Memory is a set of named single-word locations, each tied to the memory
module of one owning process (its *home*).  Processes act on locations
through the primitive operations below; every applied operation is recorded
as an :class:`Event` carrying the data later needed by the cost models and
the safety checker (values moved, previous writer).  The primitives are
read, write and fetch-and-increment, so every nontrivial step writes.
:meth:`Memory.apply` builds each step's event slot by slot, without a call
of the class, since it builds one per step, and :meth:`Memory.alloc` each
location the same way.

All steps are sequentially consistent atomic events; there is no weak
ordering and no interleaving inside a step.  A program asks for a step
with a request ``(kind, location, value)``: the kind is an :class:`OpKind`
member, and ``value`` is the word a WRITE stores, None for the others.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

from .errors import CapacityError, ConfigError

WORD_MIN = -(1 << 63)
WORD_MAX = (1 << 63) - 1

#: NIL process id / empty slot marker.  Real process ids start at 1.
NIL = 0


class OpKind(Enum):
    """A primitive, with two flags the cost models and the observation
    relation read on every step: ``trivial`` kinds never modify memory
    (everything else overwrites the location), and ``reads_value`` kinds
    respond with the value found at the location."""

    def __new__(cls, value: str, trivial: bool, reads_value: bool):
        kind = object.__new__(cls)
        kind._value_ = value
        kind.trivial = trivial
        kind.reads_value = reads_value
        return kind

    READ = "read", True, True
    WRITE = "write", False, False
    FAI = "fai", False, True


# The kinds as globals, bound one by one, for the hot paths to compare
# against: ``OpKind.X`` goes through the enum metaclass on every lookup.
_READ, _WRITE, _FAI = OpKind.READ, OpKind.WRITE, OpKind.FAI
_new = object.__new__  # builds an Event or Location without its __init__: see Memory.apply


@dataclass(slots=True, unsafe_hash=True)
class Location:
    """A named shared word living in the memory module of process ``home``.

    Treat a location as immutable: it is not a frozen dataclass, because
    every run allocates its words and frozen construction costs about three
    times as much.  :meth:`Memory.alloc` builds each location slot by slot;
    a field added here must be stored there too.
    """

    uid: int
    name: str
    home: int


def read(loc: Location):
    return (_READ, loc, None)


def write(loc: Location, value: int):
    return (_WRITE, loc, value)


def fai(loc: Location):
    return (_FAI, loc, None)


@dataclass(slots=True)
class Event:
    """One atomic step: a primitive applied by one process to one location.

    ``op`` is the primitive's kind.  ``value_written`` is present iff the
    operation is nontrivial, and holds a write's value; the step's
    response is always ``value_read``.  ``writer_before`` is the
    process whose write was last applied to the location before this event,
    which is what the observation relation and erasure validation need.
    The event names no call: a process makes one call at a time, so the
    step is in the call of ``proc`` whose ``[start_seq, end_seq]`` holds
    ``seq``.

    :meth:`Memory.apply` builds each step's event slot by slot, without
    the ``__init__`` frame of a class call; a field added here must be
    stored there too.
    """

    seq: int
    proc: int
    op: OpKind
    loc: int
    home: int
    value_read: int | None
    value_written: int | None
    writer_before: int | None

    def signature(self) -> tuple:
        """Schedule-independent identity of the step, used by replay checks."""
        return (self.proc, self.op, self.loc, self.value_read, self.value_written)


class Memory:
    """Word storage partitioned into per-process modules: each word's
    value, initial value and last writer."""

    __slots__ = ("n", "_values", "inits", "_writers", "_by_name", "_homed")

    def __init__(self, n: int):
        if n < 1:
            raise ConfigError(f"need at least one process, got n={n}")
        self.n = n
        self._values: list[int] = []
        self.inits: list[int] = []  # each word's initial value, by uid; read only
        self._writers: list[int | None] = []
        self._by_name: dict[str, Location] = {}  # every location, in uid order
        self._homed: list[list[int]] | None = None  # uids by home, built on demand

    # -- allocation ---------------------------------------------------------

    def alloc(self, name: str, home: int, init: int = 0) -> Location:
        """Register a fresh location owned by ``home`` with initial value;
        a refused one changes nothing."""
        by_name = self._by_name
        if not 1 <= home <= self.n:
            raise ConfigError(f"home {home} outside 1..{self.n}")
        if name in by_name:
            raise ConfigError(f"location name {name!r} already allocated")
        if init is not NIL:  # the commonest initial value, a good word
            if not isinstance(init, int):
                raise ConfigError(f"initial value {init!r} of {name!r} is not an int")
            if not WORD_MIN <= init <= WORD_MAX:
                _check_word(init)  # raises
        # Stored slot by slot, as apply builds its event: every run
        # allocates its protocol's words, 2n + 2 of them for dsm_queue.
        loc = _new(Location)
        loc.uid = len(by_name)
        loc.name = name
        loc.home = home
        by_name[name] = loc
        self._homed = None
        self._values.append(init)
        self.inits.append(init)
        self._writers.append(None)
        return loc

    # -- inspection ---------------------------------------------------------

    def current_writer(self, loc: Location | int) -> int | None:
        """Process whose write was applied most recently, or None."""
        return self._writers[loc if isinstance(loc, int) else loc.uid]

    def module_snapshot(self, home: int) -> tuple[tuple[int, int], ...]:
        """(uid, value) pairs for every location homed at ``home``."""
        if self._homed is None:
            self._homed = [[] for _ in range(self.n + 1)]
            for loc in self._by_name.values():
                self._homed[loc.home].append(loc.uid)
        values = self._values
        return tuple([(uid, values[uid]) for uid in self._homed[home]])

    def words(self) -> tuple:
        """Every word's value and last writer, as one hashable tuple."""
        return (*self._values, *self._writers)

    # -- undo ---------------------------------------------------------------

    def save_word(self, uid: int) -> tuple:
        """One word's value and last writer, for :meth:`restore_word`."""
        return uid, self._values[uid], self._writers[uid]

    def restore_word(self, saved: tuple) -> None:
        uid, value, writer = saved
        self._values[uid] = value
        self._writers[uid] = writer

    # -- execution ----------------------------------------------------------

    def apply(self, proc: int, kind: OpKind, loc: Location, value: int | None,
              seq: int) -> Event:
        """Atomically apply one primitive, with ``value`` the word a WRITE
        stores; return its event, numbered ``seq``.  A write of anything
        but an int is refused with :class:`ConfigError` before the word or
        its writer changes."""
        uid = loc.uid
        old = self._values[uid]
        writer_before = self._writers[uid]
        value_read: int | None = None
        written: int | None = None

        if kind is _READ:
            value_read = old
        elif kind is _WRITE:
            if value.__class__ is not int and not isinstance(value, int):
                # Refused before the word changes; a bool is an int, stored as given.
                what = "None" if value is None else f"{value!r}, not an int,"
                raise ConfigError(f"process {proc} writes {what} to word {uid} ({loc.name})")
            written = value
        elif kind is _FAI:
            value_read = old
            written = old + 1
        else:  # pragma: no cover - enum is closed
            raise ConfigError(f"unknown primitive {kind}")

        if written is not None:
            if not WORD_MIN <= written <= WORD_MAX:
                _check_word(written)  # raises
            self._values[uid] = written
            self._writers[uid] = proc

        # One event per step, and CPython 3.11's class call does not inline
        # a Python __init__: stored slot by slot, the event costs no frame.
        ev = _new(Event)
        ev.seq = seq
        ev.proc = proc
        ev.op = kind
        ev.loc = uid
        ev.home = loc.home
        ev.value_read = value_read
        ev.value_written = written
        ev.writer_before = writer_before
        return ev


def _check_word(value: int) -> None:
    if not WORD_MIN <= value <= WORD_MAX:
        raise CapacityError(f"value {value} outside the 64-bit word range")
