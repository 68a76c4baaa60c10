"""How a run is built: its words, its process records and its role checks,
each held to a reference written out here."""

import re
from types import SimpleNamespace

import pytest

from rmrsim.algorithms import REGISTRY, SignalingAlgorithm, make_algorithm
from rmrsim.costs import METRIC_NAMES
from rmrsim.errors import ConfigError, RoleError, SchedulingError, SimError
from rmrsim.memory import Location, read, write
from rmrsim.runner import (
    _CALL_KINDS,
    POLL,
    SIGNAL,
    WAIT,
    ExplicitSchedule,
    RoundRobin,
    Runner,
    Script,
    _ProcState,
    poll_at_most,
    poll_until_true,
    signal_once,
    wait_once,
    waiter_roles,
)

NAMES = sorted(REGISTRY) + [name + "+blocking" for name in sorted(REGISTRY)]
SLOTS = ("pid", "n", "locs", "state", "script", "gen", "call", "pending", "calls_made",
         "forced", "next_kind", "part", "stepped")


def reference_record(pid, n, locs, script):
    """A process record as the run begins, as ``_ProcState.__init__`` built
    it before the engine built records slot by slot."""
    state = object.__new__(_ProcState)
    state.pid, state.n, state.locs, state.state = pid, n, locs, {}
    state.script = script
    state.gen = state.pending = None
    state.call = None
    state.calls_made = 0
    state.forced = ()
    state.part = None
    state.stepped = False
    state.next_kind = None if script is None or (
        script.max_calls is not None and script.max_calls < 1) else script.kind
    return state


class ReferenceMemory:
    """An allocator that only records what ``setup`` asks for, numbering the
    words in allocation order."""

    def __init__(self, n):
        self.n = n
        self.asked = []

    def alloc(self, name, home, init=0):
        self.asked.append((name, home, init))
        return SimpleNamespace(uid=len(self.asked) - 1, name=name, home=home)


def word_handles(locs):
    """Every word handle in a protocol's namespace, by path: the field name,
    then the key or index inside a dict or list."""
    found = {}
    for field, value in vars(locs).items():
        items = value.items() if isinstance(value, dict) else (
            enumerate(value) if isinstance(value, list) else [(None, value)])
        for key, handle in items:
            found[field, key] = (handle.uid, handle.name, handle.home)
    return found


def fields(state):
    return {slot: getattr(state, slot) for slot in SLOTS}


def settings():
    """(name, n, waiters) for every registry protocol and its ``+blocking``
    form at n = 1, 2, 3, 5 and 64: the default waiters where there are any,
    and a custom set, which at n = 1 is process 1."""
    for name in NAMES:
        cap = REGISTRY[name.partition("+")[0]](n=2).max_waiters
        for n in (1, 2, 3, 5, 64):
            if n > 1:
                yield name, n, None
            custom = [1] if n == 1 else list(range(n, 1, -2))[:cap]
            yield name, n, custom


def roles_for(algo):
    """Its waiters' roles and a signaler's where there is one; without
    ``+blocking``, the last waiter's poll bound is 0, so it makes no call.
    With custom waiters, the processes neither waiting nor signaling have
    no role."""
    script = wait_once() if algo.blocking else poll_until_true()
    try:
        roles, signaler = waiter_roles(algo, script)
        roles[signaler] = signal_once()
    except ConfigError:  # no process is left to signal
        roles = dict.fromkeys(algo.waiters, script)
    if not algo.blocking:
        roles[algo.waiters[-1]] = poll_at_most(0)
    return roles


@pytest.mark.parametrize("name, n, waiters", list(settings()), ids=[
    f"{name}-{n}-{'default' if waiters is None else 'custom'}"
    for name, n, waiters in settings()])
def test_a_run_is_built_as_the_reference_builds_it(name, n, waiters):
    params = {} if waiters is None else {"waiters": waiters}
    algo = make_algorithm(name, n, **params)
    roles = roles_for(algo)
    run = Runner(algo, roles)

    reference = ReferenceMemory(n)
    expected_words = word_handles(algo.setup(reference))
    assert word_handles(run.locs) == expected_words
    assert all(type(h) is Location for h in vars(run.locs).values()
               if not isinstance(h, (dict, list)))
    inits = [init for _, _, init in reference.asked]
    assert run.mem.inits == inits
    assert run.mem.words() == (*inits, *[None] * len(inits))

    assert list(run.ctxs) == list(range(1, n + 1))
    for pid, state in run.ctxs.items():
        assert type(state) is _ProcState
        assert fields(state) == fields(reference_record(pid, n, run.locs, roles.get(pid)))
        assert state.locs is run.locs
    assert len({id(state.state) for state in run.ctxs.values()}) == n
    assert run.runnable() == [pid for pid, state in run.ctxs.items()
                              if state.next_kind is not None]
    assert run.ledger.totals() == dict.fromkeys(METRIC_NAMES, 0)
    assert all(run.ledger.per_process(p) == dict.fromkeys(METRIC_NAMES, 0)
               for p in range(1, n + 1))


@pytest.mark.parametrize("name, n", [("dsm_fixed_waiters", 5), ("dsm_fixed_waiters_term", 5),
                                     ("cc_flag", 3), ("dsm_registration", 4)])
def test_an_erased_process_gets_the_record_a_run_begins_with(name, n):
    algo = make_algorithm(name, n)
    roles, signaler = waiter_roles(algo, poll_at_most(2))
    roles[signaler] = signal_once()
    run = Runner(algo, roles)
    for pid in algo.waiters:
        run.run_call(pid)
    # The ledger's rows are the run's own: one per process, none shared.
    assert sum(run.ledger.per_process(p)["steps"] for p in range(1, n + 1)) == len(run.events)
    for p in algo.waiters:
        assert p in run.runnable()
        run.erase(p)
        fresh = run.ctxs[p]
        assert type(fresh) is _ProcState
        assert fields(fresh) == fields(reference_record(p, n, run.locs, roles[p]))
        assert p in run.runnable() and run.runnable() == sorted(run.runnable())


# -- the role checks ------------------------------------------------------------


def reference_roles_check(algo, roles):
    """The role checks in the order the engine made them before it let a
    waiter's Poll or Wait through on one test: per role, in dict order."""
    waiters = set(algo.waiters)
    for pid, script in roles.items():
        kind = script.kind
        if not 1 <= pid <= algo.n:
            raise ConfigError(f"role process {pid} outside 1..{algo.n}")
        if kind not in _CALL_KINDS:
            raise ConfigError(f"unknown script kind {kind!r}")
        if kind == SIGNAL:
            if algo.designated_signaler not in (None, pid):
                raise RoleError(f"{algo.name}: only process {algo.designated_signaler} "
                                "may signal")
        elif pid not in waiters:
            raise RoleError(f"{algo.name}: process {pid} is not a waiter and may not call {kind}")
        elif kind == WAIT and not algo.blocking:
            raise ConfigError(f"{algo.name} has no Wait procedure; use {algo.name}+blocking")
        if kind == SIGNAL and (script.max_calls is None or script.max_calls > 1):
            raise RoleError(f"process {pid} may call Signal at most once")


# One role per fault, each on its own process of dsm_registration at n = 6
# with waiters 2, 3 and 4; process 4's Poll is no fault.
FAULTS = {
    "outside": (9, poll_until_true(), ConfigError, "role process 9 outside 1..6"),
    "unknown-kind": (2, Script("Nap"), ConfigError, "unknown script kind 'Nap'"),
    "outsider-poll": (5, poll_until_true(), RoleError,
                      "dsm_registration: process 5 is not a waiter and may not call Poll"),
    "wait-without-blocking": (3, wait_once(), ConfigError,
                              "dsm_registration has no Wait procedure; "
                              "use dsm_registration+blocking"),
    "other-signaler": (6, signal_once(), RoleError, "dsm_registration: only process 1 may signal"),
    "second-signal": (1, Script(SIGNAL, 2), RoleError, "process 1 may call Signal at most once"),
}


@pytest.mark.parametrize("first", sorted(FAULTS))
def test_the_first_faulty_role_in_dict_order_is_refused(first):
    algo = make_algorithm("dsm_registration", 6, waiters=[2, 3, 4])
    order = [first] + [f for f in sorted(FAULTS) if f != first]
    roles = {4: poll_until_true()}
    roles.update({FAULTS[f][0]: FAULTS[f][1] for f in order})
    _, _, error, message = FAULTS[first]
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        reference_roles_check(algo, roles)
    with pytest.raises(error, match=f"^{re.escape(message)}$"):
        Runner(algo, roles)


@pytest.mark.parametrize("name, pid, script, error, message", [
    ("dsm_registration", 9, Script("Nap"), ConfigError, "role process 9 outside 1..3"),
    ("dsm_registration", 0, signal_once(), ConfigError, "role process 0 outside 1..3"),
    ("dsm_registration", 3, Script("Nap"), ConfigError, "unknown script kind 'Nap'"),
    ("dsm_registration", 3, Script(SIGNAL, 2), RoleError,
     "dsm_registration: only process 1 may signal"),
    ("cc_flag", 3, wait_once(), RoleError,
     "cc_flag: process 3 is not a waiter and may not call Wait"),
    ("cc_flag", 2, Script(WAIT, 2), ConfigError,
     "cc_flag has no Wait procedure; use cc_flag+blocking"),
], ids=["outside-before-kind", "outside-signal", "kind-before-waiters", "signaler-before-once",
        "waiters-before-blocking", "waiter-wait-without-blocking"])
def test_one_role_with_several_faults_is_refused_for_the_first(name, pid, script, error, message):
    algo = make_algorithm(name, 3, waiters=[2])
    for roles in ({pid: script}, {2: poll_until_true(), pid: script}):
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            reference_roles_check(algo, roles)
        with pytest.raises(error, match=f"^{re.escape(message)}$"):
            Runner(algo, roles)


@pytest.mark.parametrize("name", NAMES)
def test_role_checks_agree_with_the_reference_on_every_small_role(name):
    # Every single role of every kind on every process id from 0 to n + 1,
    # then a spread of two-role dicts: refused alike, or accepted by both.
    algo = make_algorithm(name, 3, waiters=[3])
    scripts = [poll_until_true(), poll_at_most(2), wait_once(), signal_once(), Script(SIGNAL),
               Script(SIGNAL, 2), Script("Nap")]
    singles = [(pid, s) for pid in range(5) for s in scripts]
    cases = [dict([a]) for a in singles] + [dict([a, b]) for a in singles[::3]
                                             for b in singles[1::4] if a[0] != b[0]]
    for roles in cases:
        try:
            reference_roles_check(algo, roles)
        except (ConfigError, RoleError) as exc:
            with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                Runner(algo, roles)
        else:
            assert Runner(algo, roles).roles == roles


def reference_force_check(run, pid, kind):
    """The refusals of ``force_next_call`` as the engine made them before it
    let a waiter's Poll through on one test: every call through the role
    checks, in this order."""
    algo = run.algorithm
    if kind not in _CALL_KINDS:
        raise ConfigError(f"unknown procedure {kind!r}")
    if pid not in run.ctxs:
        raise SchedulingError(f"no process {pid}: process ids are 1..{algo.n}")
    state = run.ctxs[pid]
    live = state.call is not None or bool(state.forced) or state.next_kind is not None
    if state.stepped and not live:
        raise SimError(f"process {pid} has terminated")
    if kind == SIGNAL:
        if algo.designated_signaler not in (None, pid):
            raise RoleError(f"{algo.name}: only process {algo.designated_signaler} may signal")
    elif pid not in algo.waiters:
        raise RoleError(f"{algo.name}: process {pid} is not a waiter and may not call {kind}")
    elif kind == WAIT and not algo.blocking:
        raise ConfigError(f"{algo.name} has no Wait procedure; use {algo.name}+blocking")
    if kind == SIGNAL and (SIGNAL in state.forced or state.next_kind == SIGNAL
                           or any(c.proc == pid and c.kind == SIGNAL for c in run.calls)):
        raise RoleError(f"process {pid} may call Signal at most once")


@pytest.mark.parametrize("name", NAMES)
def test_forced_calls_are_refused_as_the_reference_refuses_them(name):
    # Every kind, a bad one too, forced on every process id from 0 to n + 1,
    # on runs fresh, part-way and finished, with and without a signaler:
    # refused alike, or accepted by both.  Each force gets a replay of its
    # run, since an accepted one changes it.
    algo = make_algorithm(name, 3)
    roles, signaler = waiter_roles(algo, poll_at_most(2))
    runs = []
    for script_roles, steps in (({}, 0), (roles, 0), ({**roles, signaler: signal_once()}, 0),
                                ({**roles, signaler: signal_once()}, 3),
                                ({**roles, signaler: signal_once()}, 100)):
        run = Runner(algo, script_roles)
        run.drive(RoundRobin(), steps)
        runs.append((script_roles, list(run.trace)))
    for script_roles, trace in runs:
        for pid in range(algo.n + 2):
            for kind in (*_CALL_KINDS, "Nap"):
                run = Runner.replay(algo, script_roles, trace)
                try:
                    reference_force_check(run, pid, kind)
                except SimError as exc:
                    with pytest.raises(type(exc), match=f"^{re.escape(str(exc))}$"):
                        run.force_next_call(pid, kind)
                    assert run.trace == trace
                else:
                    run.force_next_call(pid, kind)
                    assert run.trace == trace + [("force", pid, kind)]
                    assert run.ctxs[pid].forced[-1] == kind
                    assert pid in run.runnable()
    # A scripted waiter's Poll passes before and after it has polled.
    for script_roles, trace in runs[1:3]:
        for w in algo.waiters:
            run = Runner.replay(algo, script_roles, trace)
            run.force_next_call(w, POLL)
            run.run_call(w)
            run.force_next_call(w, POLL)
            assert run.ctxs[w].forced == (POLL,)


# -- a write of None ---------------------------------------------------------------


class WritesNone(SignalingAlgorithm):
    """Test-only: Signal writes the flag 1, then None."""

    name = "writes_none"

    def setup(self, mem):
        return SimpleNamespace(flag=mem.alloc("flag", 1))

    def poll(self, ctx):
        return bool((yield read(ctx.locs.flag)))

    def signal(self, ctx):
        yield write(ctx.locs.flag, 1)
        yield write(ctx.locs.flag, None)


def test_a_write_of_none_is_refused_through_drive_before_the_word_changes():
    run = Runner(WritesNone(2), {1: signal_once(), 2: poll_at_most(1)})
    with pytest.raises(ConfigError, match=r"^process 1 writes None to word 0 \(flag\)$"):
        run.drive(ExplicitSchedule([1, 1]))
    assert [e.value_written for e in run.events] == [1]
    assert run.trace == [1]
    assert run.mem.words() == (1, 1)
    assert run.mem.current_writer(0) == 1

