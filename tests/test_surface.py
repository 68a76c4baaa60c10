"""The engine has no function that only tests call.

Every golden command line, plus a ``check_amortized`` call per model, runs
under a profile hook; every function defined in the engine, checker and
protocol modules must be entered, except the few named in ``UNREACHED``
with the reason each one stays.  The CLI is left out: no golden passes
``--config``, so only its own tests reach the config-file reader.
"""

import inspect
import sys
import types
from pathlib import Path

from rmrsim import algorithms, checker, costs, harness, memory, runner
from rmrsim.algorithms import make_algorithm
from rmrsim.checker import check_amortized
from rmrsim.costs import Model
from rmrsim.runner import RoundRobin, Runner, poll_until_true, signal_once

from test_golden import CORPUS, run_case

ENGINE = (memory, costs, runner, harness, checker, algorithms)

#: Functions no product path enters, by qualified name, and why each stays.
UNREACHED = {
    "memory.OpKind.__new__": "runs once, when the enum class is built at import",
    "memory._check_word": "error path: a value outside the 64-bit word",
    "runner._diverged": "error path: a rebuilt call asks for another step",
    "runner.Runner._refuse": "error path: an erased run read as a whole",
    "harness.erase": "the erase oracle; perfbench/tracing.py hooks it by name",
    "harness.validate_erasure": "the erase oracle's observation scan",
    "algorithms.SignalingAlgorithm.setup": "abstract: every registered protocol overrides it",
    "algorithms.SignalingAlgorithm.poll": "abstract: every registered protocol overrides it",
    "algorithms.SignalingAlgorithm.signal": "abstract: every registered protocol overrides it",
}


def _key(code) -> tuple:
    return code.co_filename, code.co_name, code.co_firstlineno


def _functions(module) -> dict:
    """Every named function in the module's source, by qualified name, keyed
    as the loaded module's code objects are.  A class body is walked but is
    no function."""
    path = module.__file__
    found = {}

    def walk(code, prefix):
        for const in code.co_consts:
            if isinstance(const, types.CodeType) and not const.co_name.startswith("<"):
                qualname = f"{prefix}.{const.co_name}"
                if const.co_flags & inspect.CO_OPTIMIZED:
                    found[qualname] = _key(const)
                walk(const, qualname)

    walk(compile(Path(path).read_text(encoding="utf-8"), path, "exec"),
         module.__name__.rsplit(".", 1)[-1])
    return found


def _entered() -> set:
    entered = set()
    files = {m.__file__ for m in ENGINE}

    def hook(frame, event, arg):
        if event == "call" and frame.f_code.co_filename in files:
            entered.add(_key(frame.f_code))

    sys.setprofile(hook)
    try:
        for command in CORPUS.values():
            run_case(command)
        # Not runner.run: the command lines must reach it themselves.
        run = Runner(make_algorithm("cc_flag", 3), {2: poll_until_true(), 1: signal_once()})
        run.drive(RoundRobin())
        check_amortized(run.history(), c=3, model=Model.DSM)
        check_amortized(run.history(), c=3, model=Model.CC)
    finally:
        sys.setprofile(None)
    return entered


def test_every_engine_function_is_reached_by_a_product_path():
    entered = _entered()
    defined = {q: key for module in ENGINE for q, key in _functions(module).items()}
    assert set(UNREACHED) <= set(defined), sorted(set(UNREACHED) - set(defined))
    unreached = sorted(q for q, key in defined.items() if key not in entered)
    assert unreached == sorted(UNREACHED), {
        "never entered": sorted(set(unreached) - set(UNREACHED)),
        "entered after all": sorted(set(UNREACHED) - set(unreached)),
    }
