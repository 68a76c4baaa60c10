"""The configuration key's soundness rule, held to every protocol body.

``Runner.configuration`` keys an open call by its frames: per generator
along its chain, the code, the program point and the named locals.  That
is exact only if a body's next steps depend on nothing else but
``ctx.state`` and what it reads, and an open call's share is built once
per request only if each step makes a new one.  Two checks hold every
registered and every test protocol body to that: one on the source (no
``for`` loop whose body yields, no statement whose expressions hold two
yields, no yield of a request made elsewhere), and one on the runs, a
depth-first build of the configuration graph under
``checkpoint()``/``rollback()`` whose complete paths must be the
histories ``enumerate_histories`` yields.  Two more hold the key itself:
each part of a process's share in a call tells apart configurations that
differ in it alone, and a key built from shares kept across steps,
queued calls and rollbacks equals the one a replay builds afresh.
"""

from __future__ import annotations

import ast
import importlib
import inspect
import textwrap
from pathlib import Path
from types import SimpleNamespace

import pytest
from hypothesis import given, settings, strategies as st

from rmrsim.algorithms import REGISTRY, SignalingAlgorithm, make_algorithm
from rmrsim.errors import SimError
from rmrsim.harness import enumerate_histories
from rmrsim.memory import read, write
from rmrsim.runner import POLL, Runner, SeededRandom, poll_at_most, signal_once

from test_properties import EVERY_PRIMITIVE, Count3, build, draw_setting


class HiddenLoop(SignalingAlgorithm):
    """Poll reads the flag three times in a ``for`` loop, then once more
    for its answer.  Which read is next lives only in the loop's iterator,
    which no named local holds, so the frame key cannot tell the loop's
    reads apart: it breaks the soundness rule on purpose."""

    name = "hidden_loop"

    def setup(self, mem):
        return SimpleNamespace(flag=mem.alloc("flag", home=1))

    def poll(self, ctx):
        for _ in (1, 1, 1):
            yield read(ctx.locs.flag)
        return bool((yield read(ctx.locs.flag)))

    def signal(self, ctx):
        yield write(ctx.locs.flag, 1)


# -- the rule on the source --------------------------------------------------

#: The test protocol bodies that break the rule on purpose, by qualified
#: name, with the rule each breaks.
BREAK_THE_RULE = {
    # The value read waits on the stack, unnamed, while the write is pending;
    # the pending request in the key holds what the write depends on.
    "Rewrite.poll": {"an expression holds two yields"},
    "Toggle.poll": {"an expression holds two yields"},
    "HiddenLoop.poll": {"a for loop's body yields"},
    # Yields requests from a list it fills by a module-level count of the
    # Poll bodies started, so a rebuilt call asks for another step.
    "Fickle.poll": {"a yield's request is made elsewhere"},
    "Copy.poll": {"an expression holds two yields"},
}

#: The calls that make a request.
REQUESTS = {"read", "write", "fai"}


def protocol_classes() -> set[type]:
    """Every registered protocol's class and every test protocol's, with
    the base class, whose Wait every protocol shares."""
    for path in Path(__file__).parent.glob("test_*.py"):
        importlib.import_module(path.stem)  # defines its test protocols
    classes, todo = set(), [SignalingAlgorithm]
    while todo:
        cls = todo.pop()
        if cls not in classes:
            classes.add(cls)
            todo.extend(cls.__subclasses__())
    registered = {type(make_algorithm(name, 3)) for name in REGISTRY}
    assert registered <= classes
    assert len({cls.__name__ for cls in classes}) == len(classes)  # names tell them apart
    return classes


def bodies() -> dict[str, object]:
    """Every generator function a protocol class defines, by qualified name."""
    return {f"{cls.__name__}.{name}": func
            for cls in protocol_classes()
            for name, func in vars(cls).items() if inspect.isgeneratorfunction(func)}


def _yields(node: ast.AST) -> int:
    return sum(isinstance(n, (ast.Yield, ast.YieldFrom)) for n in ast.walk(node))


def broken_rules(func) -> set[str]:
    """The rules the body of ``func`` breaks, read from its source."""
    broken = set()
    for node in ast.walk(ast.parse(textwrap.dedent(inspect.getsource(func)))):
        if isinstance(node, (ast.For, ast.AsyncFor)) and any(
                _yields(stmt) for stmt in node.body + node.orelse):
            broken.add("a for loop's body yields")
        if isinstance(node, ast.stmt):
            # The statement's own expressions, not those of a body under it.
            exprs = [value for _, field in ast.iter_fields(node)
                     for value in (field if isinstance(field, list) else [field])
                     if isinstance(value, ast.expr)]
            if sum(map(_yields, exprs)) > 1:
                broken.add("an expression holds two yields")
        if isinstance(node, ast.Yield) and not (
                isinstance(node.value, ast.Call) and isinstance(node.value.func, ast.Name)
                and node.value.func.id in REQUESTS):
            broken.add("a yield's request is made elsewhere")
    return broken


def test_protocol_bodies_keep_no_state_outside_their_named_locals():
    found = {name: rules for name, func in bodies().items() if (rules := broken_rules(func))}
    assert found == BREAK_THE_RULE


def test_the_rule_check_sees_each_way_to_break_it():
    def loop(ctx):
        for k in range(2):
            yield read(k)

    def two(ctx):
        x = (yield read(1)) + (yield read(2))
        return x

    def nested(ctx):
        yield write(1, (yield read(1)))

    def stored(ctx):
        request = read(1)
        yield request

    def kept(ctx):
        k = 0
        while k < 2:
            if (yield read(k)):
                yield write(k, 1)
            k += 1
        for k in range(2):
            pass

    assert broken_rules(loop) == {"a for loop's body yields"}
    assert broken_rules(two) == broken_rules(nested) == {"an expression holds two yields"}
    assert broken_rules(stored) == {"a yield's request is made elsewhere"}
    assert broken_rules(kept) == set()


# -- the rule on the runs: the path-count gate --------------------------------


class KeyCycle(Exception):
    """A configuration key met again on the current path."""


def count_paths(algorithm, roles) -> tuple[int, int]:
    """(configurations, complete paths) of a depth-first build of the run's
    configuration graph, keyed by ``configuration()[2:]``, the key without
    the event and call counts: each runnable process is stepped from a
    configuration met first, under a checkpoint rolled back between them,
    and a configuration met again adds its memoized count.  A key met again
    on the current path raises :class:`KeyCycle`."""
    run = Runner(algorithm, roles)
    run.checkpoint()  # every call begins under one, so that a rollback rebuilds it
    memo: dict[tuple, int] = {}
    path: set[tuple] = set()

    def paths() -> int:
        key = run.configuration()[2:]
        if key in path:
            raise KeyCycle(key)
        found = memo.get(key)
        if found is not None:
            return found
        choices = run.runnable()
        found = 0 if choices else 1
        if choices:
            path.add(key)
            run.checkpoint()
            for i, pid in enumerate(choices):
                if i:
                    run.rollback()
                run.step(pid)
                found += paths()
            run.rollback(close=True)
            path.remove(key)
        memo[key] = found
        return found

    total = paths()
    return len(memo), total


def polls(algorithm, calls: int = 2) -> dict:
    roles = {pid: poll_at_most(calls) for pid in algorithm.waiters}
    roles[1] = signal_once()
    return roles


def complete_histories(algorithm, roles) -> int:
    histories = list(enumerate_histories(algorithm, roles, 200))
    assert not any(h.incomplete for h in histories)
    return len(histories)


@pytest.mark.parametrize("name, n, configurations, paths", [
    ("cc_flag", 4, 91, 408),
    ("dsm_registration", 3, 198, 1_871),
    ("dsm_fixed_waiters", 4, 175, 3_585),
    ("dsm_queue", 3, 503, 10_298),
])
def test_frame_keyed_graph_has_a_path_per_history(name, n, configurations, paths):
    algorithm = make_algorithm(name, n)
    roles = polls(algorithm)
    assert count_paths(algorithm, roles) == (configurations, paths)
    assert complete_histories(algorithm, roles) == paths


def test_a_hidden_loop_position_fails_the_gate():
    # The second read of a Poll has the first one's key: a cycle, where the
    # runs have 630 histories and no cycle.
    algorithm = HiddenLoop(3)
    roles = polls(algorithm, 1)
    with pytest.raises(KeyCycle):
        count_paths(algorithm, roles)
    assert complete_histories(algorithm, roles) == 630
    assert broken_rules(HiddenLoop.poll) == {"a for loop's body yields"}


class Copy(SignalingAlgorithm):
    """Poll writes into word ``a`` the value it reads from ``b``, which
    waits on the stack while the write is pending; Signal writes ``b``.  It
    breaks the rule on purpose: only the pending request tells apart a
    Poll that read before the Signal from one that read after it."""

    name = "copy"

    def setup(self, mem):
        return SimpleNamespace(a=mem.alloc("a", home=1), b=mem.alloc("b", home=1))

    def poll(self, ctx):
        yield write(ctx.locs.a, (yield read(ctx.locs.b)))
        return False

    def signal(self, ctx):
        yield write(ctx.locs.b, 1)


def finish(run: Runner) -> Runner:
    run.run_call(2)
    return run


def finish_and_queue(run: Runner) -> Runner:
    run.run_call(2)
    run.force_next_call(2, POLL)
    return run


def queue(run: Runner) -> Runner:
    run.force_next_call(2, POLL)
    return run


#: Per part of a process's share in a call: a protocol, roles, a trace
#: after which 2 begins its call, and a way on from there to a run in which
#: 2, its call begun again, differs in that part alone, words and all.
ONE_PART_APART = {
    # cc_flag's first and second Poll.
    "calls made": (make_algorithm("cc_flag", 3), {2: poll_at_most(2)}, [], finish),
    # Count3's Polls, queued ahead of the script, so that the calls made
    # stay 0: only ctx.state["k"] differs.
    "ctx.state": (Count3(3), {2: poll_at_most(1)}, [("force", 2, POLL)], finish_and_queue),
    # The Poll read b before or after the Signal wrote it.
    "pending request": (Copy(3), {2: poll_at_most(1), 1: signal_once()}, [2, 1],
                        lambda run: Runner.replay(run.algorithm, run.roles, [1, 2])),
    # A Poll queued behind the open one.
    "queued calls": (make_algorithm("cc_flag", 3), {2: poll_at_most(2)}, [], queue),
}


@pytest.mark.parametrize("part", ONE_PART_APART)
def test_the_key_separates_configurations_one_part_of_a_call_tells_apart(part):
    algorithm, roles, trace, apart = ONE_PART_APART[part]
    runs = []
    for moved in (False, True):
        run = Runner.replay(algorithm, roles, trace)
        run.peek(2)
        if moved:
            run = apart(run)
            run.peek(2)
        runs.append(run)
    first, second = (run.configuration()[2:] for run in runs)
    # The words and every process's share but one are equal.
    assert len(first) == len(second)
    assert sum(a != b for a, b in zip(first, second)) == 1


# -- shares kept from one key to the next ----------------------------------


@settings(max_examples=150, deadline=None)
@given(st.data())
def test_a_key_is_the_key_of_a_replay_whatever_came_between(data):
    # configuration() builds a process's share in a call once per request,
    # and a rollback restores the share with the process.  Between two keys
    # the run takes a random mix of steps, drives, queued Polls, peeks
    # (which begin a call with no step), checkpoints and rollbacks; each key
    # equals the one a replay of the run's trace, and the same peeks,
    # builds afresh.
    name, n, roles = draw_setting(data.draw, EVERY_PRIMITIVE, 4)
    algorithm = build(name, n, roles)
    run = Runner(algorithm, roles)
    for _ in range(data.draw(st.integers(1, 40))):
        op = data.draw(st.sampled_from(("step", "step", "drive", "force", "peek",
                                        "checkpoint", "rollback", "key")))
        live = run.runnable()
        try:
            if op == "step" and live:
                run.step(data.draw(st.sampled_from(live)))
            elif op == "drive":
                run.drive(SeededRandom(data.draw(st.integers(0, 99))),
                          len(run.events) + data.draw(st.integers(1, 8)))
            elif op == "force":
                pid = data.draw(st.sampled_from(algorithm.waiters))
                call = run.open_call(pid)
                # Not behind a peeked call: its trace would queue the Poll
                # first, since it does not record a peek.
                if call is None or call.start_seq is not None:
                    run.force_next_call(pid, POLL)
            elif op == "peek" and live:
                run.peek(data.draw(st.sampled_from(live)))
            elif op == "checkpoint":
                run.checkpoint()
            elif op == "rollback" and run._checkpoints:
                run.rollback(close=data.draw(st.booleans()))
            elif op == "key":
                assert run.configuration() == replayed(run).configuration()
        except SimError:  # a refused call or step, which changes nothing
            pass
    assert run.configuration() == replayed(run).configuration()


def replayed(run: Runner) -> Runner:
    """A replay of ``run``'s trace whose processes began the calls ``run``'s
    have open, stepped or only peeked at."""
    twin = Runner.replay(run.algorithm, run.roles, run.trace)
    for pid, state in run.ctxs.items():
        if state.call is not None:
            twin.peek(pid)
    return twin
