"""Cost-model classification rules, message counting, and ledger invariants."""

import random

import pytest

from rmrsim.costs import Model, RmrLedger
from rmrsim.memory import Memory, OpKind, fai, read, write

from test_properties import LOCAL, RMR, classify_cc, classify_dsm, count_messages, holder_pairs


def apply(mem, proc, request, seq=0):
    return mem.apply(proc, *request, seq)


def events_from(mem, script):
    return [apply(mem, proc, req, seq=i) for i, (proc, req) in enumerate(script)]


# -- DSM rule ---------------------------------------------------------------


def test_dsm_own_module_local():
    mem = Memory(3)
    v2 = mem.alloc("v2", home=2)
    assert classify_dsm(apply(mem, 2, read(v2))) is LOCAL


def test_dsm_remote_write_is_rmr():
    mem = Memory(3)
    w = mem.alloc("w", home=1)
    assert classify_dsm(apply(mem, 2, write(w, 1))) is RMR


def test_dsm_first_touch_of_own_module_local():
    mem = Memory(3)
    x = mem.alloc("x", home=1)
    assert classify_dsm(apply(mem, 1, read(x))) is LOCAL


def test_dsm_is_memoryless_under_permutation():
    # Classification of one event never depends on the other events.
    mem = Memory(4)
    locs = [mem.alloc(f"l{i}", home=(i % 4) + 1) for i in range(6)]
    rng = random.Random(5)
    script = [
        (rng.randrange(1, 5), rng.choice([read, lambda l: write(l, rng.randrange(4))])(rng.choice(locs)))
        for _ in range(60)
    ]
    events = events_from(mem, script)
    labels = [classify_dsm(e) for e in events]
    order = list(range(len(events)))
    rng.shuffle(order)
    assert [classify_dsm(events[i]) for i in order] == [labels[i] for i in order]


# -- CC rule ----------------------------------------------------------------


def test_cc_repeat_read_local_until_invalidated():
    mem = Memory(2)
    b = mem.alloc("b", home=1)
    cache = {}
    first = apply(mem, 2, read(b))
    assert classify_cc(first, cache) is RMR
    again = apply(mem, 2, read(b))
    assert classify_cc(again, cache) is LOCAL


def test_cc_write_invalidates_remote_copies():
    mem = Memory(2)
    b = mem.alloc("b", home=1)
    cache = {}
    classify_cc(apply(mem, 2, read(b)), cache)
    assert classify_cc(apply(mem, 1, write(b, 1)), cache) is RMR
    assert holder_pairs(cache) == {(1, b.uid)}
    assert classify_cc(apply(mem, 2, read(b)), cache) is RMR


def test_cc_first_read_ever_is_rmr():
    mem = Memory(2)
    b = mem.alloc("b", home=1)
    assert classify_cc(apply(mem, 2, read(b)), {}) is RMR


def test_cc_write_costs_rmr_even_with_cached_copy():
    mem = Memory(2)
    b = mem.alloc("b", home=1)
    cache = {}
    classify_cc(apply(mem, 1, read(b)), cache)
    assert classify_cc(apply(mem, 1, write(b, 1)), cache) is RMR


# -- messages ---------------------------------------------------------------


def _three_remote_copies():
    mem = Memory(4)
    b = mem.alloc("b", home=1)
    cache = {}
    for p in (2, 3, 4):
        classify_cc(apply(mem, p, read(b)), cache)
    return mem, b, cache


def test_messages_bus_broadcast_is_one():
    mem, b, _ = _three_remote_copies()
    ledger = RmrLedger(4, [apply(mem, 1, write(b, 1))])
    assert ledger.per_process(1)["msg_bus"] == 1


def test_messages_ideal_directory_counts_remote_holders():
    mem, b, cache = _three_remote_copies()
    ev = apply(mem, 1, write(b, 1))
    assert count_messages(ev, cache) == 3


def test_messages_none_for_reads():
    mem, b, cache = _three_remote_copies()
    ev = apply(mem, 1, read(b))
    assert count_messages(ev, cache) == 0
    ledger = RmrLedger(4, [ev])
    assert ledger.per_process(1)["msg_bus"] == 0


def test_messages_own_copy_not_counted():
    mem = Memory(2)
    b = mem.alloc("b", home=1)
    cache = {}
    classify_cc(apply(mem, 1, read(b)), cache)
    ev = apply(mem, 1, write(b, 1))
    assert count_messages(ev, cache) == 0


# -- ledger -----------------------------------------------------------------


def test_ledger_single_remote_write():
    mem = Memory(2)
    w = mem.alloc("w", home=1)
    ledger = RmrLedger(2, [apply(mem, 2, write(w, 1))])
    assert ledger.rmr(Model.DSM, 2) == 1
    assert ledger.rmr(Model.CC, 2) == 1
    assert ledger.totals()["steps"] == ledger.per_process(2)["steps"] == 1


def test_ledger_cc_flag_roundtrip_by_hand():
    # Waiter polls twice, signal, waiter polls again: waiter pays 2 CC RMRs
    # (cold read + re-read after invalidation), signaler pays 1.
    mem = Memory(2)
    b = mem.alloc("b", home=1)
    script = [(2, read(b)), (2, read(b)), (1, write(b, 1)), (2, read(b))]
    ledger = RmrLedger(2, events_from(mem, script))
    assert ledger.rmr(Model.CC, 2) == 2
    assert ledger.rmr(Model.CC, 1) == 1


def test_ledger_same_trace_under_dsm():
    # Same access pattern, flag homed at the signaler: every waiter read is
    # remote, so the waiter pays 3 DSM RMRs.
    mem = Memory(2)
    b = mem.alloc("b", home=1)
    script = [(2, read(b)), (2, read(b)), (1, write(b, 1)), (2, read(b))]
    ledger = RmrLedger(2, events_from(mem, script))
    assert ledger.rmr(Model.DSM, 2) == 3
    assert ledger.rmr(Model.DSM, 1) == 0


def _random_soup(seed, n=4, steps=200):
    rng = random.Random(seed)
    mem = Memory(n)
    locs = [mem.alloc(f"l{i}", home=rng.randrange(1, n + 1)) for i in range(5)]
    events = []
    for i in range(steps):
        proc = rng.randrange(1, n + 1)
        loc = rng.choice(locs)
        roll = rng.random()
        if roll < 0.55:
            req = read(loc)
        elif roll < 0.85:
            req = write(loc, rng.randrange(3))
        else:
            req = fai(loc)
        events.append(apply(mem, proc, req, seq=i))
    return events, RmrLedger(n, events), n


def test_cc_read_bound_between_invalidations():
    # Between two nontrivial attempts by others on a location, a process
    # accrues at most one CC RMR from reads of it.
    events, _, n = _random_soup(11)
    cache = {}
    windows = {}  # (proc, loc) -> read RMRs since last foreign invalidation
    for e in events:
        label = classify_cc(e, cache)
        if e.op is OpKind.READ:
            if label is RMR:
                key = (e.proc, e.loc)
                windows[key] = windows.get(key, 0) + 1
                assert windows[key] <= 1
        else:
            for p in range(1, n + 1):
                if p != e.proc:
                    windows[(p, e.loc)] = 0


def test_directory_messages_bounded_by_cc_rmrs():
    # Universally, every invalidation destroys a copy some RMR created.
    for seed in range(6):
        _, ledger, _ = _random_soup(seed)
        assert ledger.total_msg_dir <= ledger.total_rmr_cc


def test_per_event_message_bounds():
    events, _, n = _random_soup(23)
    cache = {}
    for e in events:
        assert count_messages(e, cache) <= n - 1
        classify_cc(e, cache)


def test_bus_messages_equal_nontrivial_attempts():
    events, ledger, _ = _random_soup(31)
    attempts = sum(1 for e in events if e.op is not OpKind.READ)
    assert ledger.total_msg_bus == attempts


def test_ledger_counts_monotone():
    # One ledger per prefix, each one event longer than the last: no count
    # falls, and the step count grows by the one event.
    events, _, n = _random_soup(47, steps=80)
    prev = RmrLedger(n, []).totals()
    for length in range(1, len(events) + 1):
        now = RmrLedger(n, events[:length]).totals()
        assert all(now[k] >= prev[k] for k in now)
        assert now["steps"] == prev["steps"] + 1
        prev = now


def test_metric_names_fixed():
    ledger = RmrLedger(2, [])
    assert tuple(ledger.totals()) == ("rmr_dsm", "rmr_cc", "msg_bus", "msg_dir", "steps")
    assert tuple(ledger.per_process(1)) == ("rmr_dsm", "rmr_cc", "msg_bus", "msg_dir", "steps")


# -- the fused ledger against the reference rules ---------------------------

#: One request per kind on x (initially 0).
REQUEST = {
    OpKind.READ: read,
    OpKind.WRITE: lambda x: write(x, 5),
    OpKind.FAI: fai,
}


def _ending_in(kind, issuer_holds):
    """Events ending in one ``kind`` step of process 2 on x, homed at 1.
    Process 3 holds a copy of x before that step; process 2 holds one iff
    ``issuer_holds``."""
    mem = Memory(3)
    x = mem.alloc("x", home=1, init=0)
    script = [(3, read(x))]
    if issuer_holds:
        script.append((2, read(x)))
    script.append((2, REQUEST[kind](x)))
    return events_from(mem, script)


def row(ledger: RmrLedger, proc: int) -> list[int]:
    """One process's counts in metric order."""
    return list(ledger.per_process(proc).values())


@pytest.mark.parametrize("kind, issuer_holds", [
    (kind, holds) for kind in OpKind for holds in (True, False)
])
def test_fused_record_matches_reference_rules(kind, issuer_holds):
    *before, last = _ending_in(kind, issuer_holds)
    ledger, cache = RmrLedger(3, before), {}
    for e in before:
        classify_cc(e, cache)
    held = holder_pairs(cache)
    assert ((2, last.loc) in held) is issuer_holds and (3, last.loc) in held
    others = [row(ledger, 1), row(ledger, 3)]
    start = row(ledger, 2)
    bus = not last.op.trivial
    directory = count_messages(last, cache)
    cc = classify_cc(last, cache) is RMR  # moves the cache past ``last``
    expected = [classify_dsm(last) is RMR, cc, bus, directory, 1]
    grown = RmrLedger(3, [*before, last])
    assert [now - was for now, was in zip(row(grown, 2), start)] == expected
    assert [row(grown, 1), row(grown, 3)] == others
    assert holder_pairs(grown.cache) == holder_pairs(cache)
