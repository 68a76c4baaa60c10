"""The configuration graph of a run: a node per configuration met, keyed
by :meth:`Runner.configuration` and, given a depth, by the event and call
counts too, which makes it a DAG.  Without one, an edge to a node whose
edges are still being asked for closes a cycle: it is kept, and recorded
as a back edge.  ``harness.enumerate_histories`` walks it with a depth."""

from __future__ import annotations

from .runner import CallRecord, Runner, Script


class Node:
    """A configuration the graph met.  ``edges`` are its steps in choice
    order, each ``(pid, event, child, begun, closed)``: ``begun`` is the
    record of a call the step began, ``closed`` the record of a call it
    ended, the same record when it did both.  Neither is ever changed.
    ``end`` is ``(finished, incomplete)`` where a path ends, known when the
    node is made; any other node has edges once a search leaves it."""

    __slots__ = ("edges", "end")

    def __init__(self, end: tuple | None = None):
        self.edges: list[tuple] = []
        self.end = end


class ConfigurationGraph:
    """The configurations of ``algorithm`` under ``roles`` from ``root``,
    each node in ``nodes`` by its key.  A path ends where nothing is
    runnable or ``depth`` steps are taken.  ``back_edges`` holds each edge
    met, as ``(node, edge)``, whose child's edges were still being asked
    for: a cycle, which only a graph without a depth can have."""

    def __init__(self, algorithm, roles: dict[int, Script], depth: int | None = None):
        self.run = Runner(algorithm, roles)
        # Never rolled back: it keeps the journal on, so that every call starts
        # under a checkpoint, can be rebuilt and has a part in the key.
        self.run.checkpoint()
        self.depth = depth
        self.back_edges: list[tuple[Node, tuple]] = []
        self._open: set[Node] = set()  # the nodes whose edges are being asked for
        self.root = Node(self._end())
        self.nodes = {self._key(): self.root}

    def explore(self, node: Node):
        """The edges of ``node``, met first, stepped from its configuration,
        where the run is when the first one is asked for, and recorded on
        ``node`` as they are yielded.  More than one choice opens a
        checkpoint there, rolled back to between them and closed for the
        last.  A child met first gets its ``end``."""
        run, nodes, opened = self.run, self.nodes, self._open
        opened.add(node)
        choices = run.runnable()
        last = len(choices) - 1
        if last:
            run.checkpoint()
        for i, pid in enumerate(choices):
            if i:
                run.rollback(close=i == last)
            rec = run.open_call(pid)
            ev = run.step(pid)
            if rec is None:  # the step began a call
                rec = run.calls[-1]
            fresh = Node()  # setdefault hashes the key once; get and set would twice
            child = nodes.setdefault(self._key(), fresh)
            closed = rec if rec.end_seq is not None else None
            begun = None
            if rec.start_seq == ev.seq:
                begun = closed or CallRecord(rec.call_id, pid, rec.kind, None, ev.seq)
            edge = (pid, ev, child, begun, closed)
            if child is fresh:
                fresh.end = self._end()
            elif child in opened:
                self.back_edges.append((node, edge))
            node.edges.append(edge)
            yield edge
        opened.discard(node)

    def _key(self) -> tuple:
        run = self.run
        key = run.configuration()
        return key if self.depth is None else (len(run.events), len(run.calls), key)

    def _end(self) -> tuple | None:
        """The ``end`` of the run's configuration; None if a path goes on."""
        run = self.run
        live = run.runnable()
        if live and (self.depth is None or len(run.events) < self.depth):
            return None
        return run.terminated, bool(live)
