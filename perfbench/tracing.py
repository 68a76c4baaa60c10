"""Per-layer timing from outside the program.

The tracer replaces public functions of the ``rmrsim`` modules with
wrappers that record nested spans: each call's duration minus the time
its child spans cover is the layer's self time.  Spans are folded into
per-layer totals as they close, so memory stays flat however many steps
a run takes.  ``uninstall`` puts every original back.
"""

from __future__ import annotations

import functools
import inspect
from time import perf_counter

# (layer, module, attribute, the end-to-end metric a change to the layer
# should move).  ``*.setup`` means every algorithm class's own ``setup``.
LAYERS = (
    ("memory.apply", "memory", "Memory.apply",
     "sim_steps_per_s on sim; on enum and drill only through amplification"),
    ("costs.record", "costs", "RmrLedger.record",
     "sim_steps_per_s on sim; on enum and drill only through amplification"),
    ("runner.step", "runner", "Runner.step",
     "sim_steps_per_s on sim (includes the algorithms' generator bodies)"),
    ("runner.init", "runner", "Runner.__init__", "wall_s on enum and drill"),
    ("algorithms.setup", "algorithms", "*.setup", "wall_s on enum and drill"),
    ("runner.replay", "runner", "Runner.replay", "wall_s on drill; about 0 on sim"),
    ("runner.fork", "runner", "Runner.fork", "wall_s on drill; about 0 on sim"),
    ("harness.stability", "harness", "stability", "wall_s on drill; about 0 on sim"),
    ("harness.erase", "harness", "erase", "wall_s on drill; about 0 on sim"),
    ("harness.adversary", "harness", "adversary_separation",
     "wall_s on drill (self time includes the _erasure_safe and _discovery_target scans)"),
    ("harness.enumerate", "harness", "enumerate_histories", "item_p50_ms on enum"),
    ("checker.polling", "checker", "check_polling", "item_p50_ms on enum and sim"),
    ("checker.blocking", "checker", "check_blocking", "item_p50_ms on enum and sim"),
    ("checker.amortized", "checker", "check_amortized", "item_p50_ms on sim"),
    ("cli.main", "cli", "main", "wall_s on drill"),
)

# What each metric should move, printed beside it in a traced run.
NOTES = {
    f"{layer}.{kind}": moves for layer, _, _, moves in LAYERS for kind in ("calls", "self_s")
}
NOTES.update({
    "runner.replay.steps": "wall_s on drill; 0 on sim",
    "harness.enumerate.histories": "item_p50_ms on enum",
    "runner.amplification": "wall_s on drill and enum: steps executed per output-history step",
    "trace.overhead": "traced pass time over untraced pass time",
})


class Tracer:
    """Span totals per layer for one process; one thread of control."""

    def __init__(self, package):
        self.package = package
        self.calls = {layer: 0 for layer, *_ in LAYERS}
        self.self_s = {layer: 0.0 for layer, *_ in LAYERS}
        self.replay_steps = 0
        self.histories = 0
        self._stack: list[list] = []  # open spans: [layer, time covered by children]
        self._undo: list[tuple] = []

    def snapshot(self) -> dict:
        out = {}
        for layer in self.calls:
            out[f"{layer}.calls"] = self.calls[layer]
            out[f"{layer}.self_s"] = self.self_s[layer]
        out["runner.replay.steps"] = self.replay_steps
        out["harness.enumerate.histories"] = self.histories
        return out

    # -- spans ------------------------------------------------------------

    def _enter(self, layer):
        frame = [layer, 0.0, perf_counter()]
        self._stack.append(frame)
        return frame

    def _exit(self, frame):
        duration = perf_counter() - frame[2]
        self._stack.pop()
        layer = frame[0]
        self.calls[layer] += 1
        self.self_s[layer] += duration - frame[1]
        if self._stack:
            self._stack[-1][1] += duration

    def _wrap(self, layer, fn):
        stack = self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            # A wrapper calling its inner algorithm's method is one span.
            if stack and stack[-1][0] == layer:
                return fn(*args, **kwargs)
            frame = self._enter(layer)
            try:
                return fn(*args, **kwargs)
            finally:
                self._exit(frame)

        return traced

    def _wrap_generator(self, layer, fn):
        """Each resumption of the generator is one span; the consumer's
        work between resumptions is not part of it."""

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            gen = fn(*args, **kwargs)
            while True:
                frame = self._enter(layer)
                try:
                    item = next(gen)
                except StopIteration:
                    return
                finally:
                    self._exit(frame)
                self.histories += 1
                yield item

        return traced

    def _wrap_replay(self, layer, fn):
        wrapped = self._wrap(layer, fn)

        @functools.wraps(fn)
        def traced(cls, algorithm, roles, trace, **kwargs):
            self.replay_steps += sum(1 for entry in trace if not isinstance(entry, tuple))
            return wrapped(cls, algorithm, roles, trace, **kwargs)

        return traced

    # -- installation -------------------------------------------------------

    def install(self) -> None:
        modules = [self.package] + [getattr(self.package, name) for _, name, _, _ in LAYERS]
        for layer, module_name, attr, _ in LAYERS:
            module = getattr(self.package, module_name)
            if attr == "*.setup":
                base = module.SignalingAlgorithm
                for cls in vars(module).values():
                    if (isinstance(cls, type) and issubclass(cls, base)
                            and "setup" in vars(cls)):
                        self._patch(cls, "setup", self._wrap(layer, vars(cls)["setup"]))
            elif "." in attr:
                cls_name, method = attr.split(".")
                cls = getattr(module, cls_name)
                raw = vars(cls)[method]
                if isinstance(raw, classmethod):
                    self._patch(cls, method, classmethod(self._wrap_replay(layer, raw.__func__)))
                else:
                    self._patch(cls, method, self._wrap(layer, raw))
            else:
                original = getattr(module, attr)
                if inspect.isgeneratorfunction(original):
                    traced = self._wrap_generator(layer, original)
                else:
                    traced = self._wrap(layer, original)
                # Rebind every module that imported the function by name.
                for mod in modules:
                    if getattr(mod, attr, None) is original:
                        self._patch(mod, attr, traced)

    def _patch(self, owner, attr, value) -> None:
        self._undo.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, value)

    def uninstall(self) -> None:
        while self._undo:
            owner, attr, original = self._undo.pop()
            setattr(owner, attr, original)
