"""Golden command-line outputs.

Each case in ``CORPUS`` runs ``rmrsim`` in-process and must reproduce the
recorded stdout, stderr and exit code in ``tests/golden/<case>.json`` byte
for byte.  Inputs with known defects are left out; their refusals are
tested in ``test_cli.py``.  To re-record after an intended output change:

    PYTHONPATH=src python tests/test_golden.py --record
"""

import contextlib
import io
import json
import sys
from pathlib import Path

import pytest

from rmrsim.cli import main

GOLDEN = Path(__file__).with_name("golden")

CORPUS = {
    "run_cc_flag": "run --algo cc_flag --n 4 --seed 1",
    "run_cc_flag_model_cc": "run --algo cc_flag --n 3 --model cc --seed 9",
    "run_cc_flag_blocking": "run --algo cc_flag+blocking --n 3 --seed 2",
    "run_queue_seeded": "run --algo dsm_queue --n 6 --seed 42",
    "run_queue_rr": "run --algo dsm_queue --n 5 --schedule rr",
    "run_queue_blocking": "run --algo dsm_queue+blocking --n 4 --seed 5",
    "run_registration": "run --algo dsm_registration --n 4 --seed 3",
    "run_single_waiter": "run --algo dsm_single_waiter --n 4",
    "run_fixed_term_budget": "run --algo dsm_fixed_waiters_term --n 4 --schedule rr --budget 7",
    "run_fixed_waiter_ids": "run --algo dsm_fixed_waiters --n 5 --waiters 3,5 --seed 4",
    "run_mutant_violation": (
        "run --algo mutant_single_waiter --n 3 --waiters 1"
        " --schedule explicit:2,2,1,1,2 --budget 50"
    ),
    "run_two_single_waiters": "run --algo dsm_single_waiter --n 4 --waiters 2",
    "run_unknown_algorithm": "run --algo nope",
    "run_missing_algorithm": "run",
    "run_unknown_schedule": "run --algo cc_flag --schedule zigzag",
    "check_cc_flag": "check --algo cc_flag --n 3 --schedule exhaustive:12",
    "check_queue_one_poll": "check --algo dsm_queue --n 3 --schedule exhaustive:14 --polls 1",
    "check_registration": "check --algo dsm_registration --n 3 --schedule exhaustive:12",
    "check_blocking_depth": "check --algo cc_flag+blocking --n 3 --schedule exhaustive:10",
    "check_mutant": (
        "check --algo mutant_single_waiter --n 3 --waiters 1 --schedule exhaustive:25"
    ),
    "check_large_n": "check --algo cc_flag --n 5",
    "check_not_exhaustive": "check --algo cc_flag --schedule rr",
    "adversary_queue": "adversary --algo dsm_queue --W 16 --signaler 1",
    "adversary_cc_flag_cc": "adversary --algo cc_flag --model cc --W 16",
    "adversary_cc_flag_dsm": "adversary --algo cc_flag --model dsm --W 8",
    "adversary_registration": "adversary --algo dsm_registration --W 8",
    "adversary_fixed_erase": "adversary --algo dsm_fixed_waiters --W 8 --erase",
    "adversary_erase_signaler_waiter": (
        "adversary --algo cc_flag --model cc --W 3 --signaler 2 --erase"
    ),
    "adversary_mutant": "adversary --algo mutant_single_waiter --W 1",
    "adversary_both_models": "adversary --algo dsm_queue --model both --W 4",
    "sweep_fixed": "sweep --algo dsm_fixed_waiters --W 4,8",
    "sweep_fixed_erase": "sweep --algo dsm_fixed_waiters --erase --W 8,16",
    "sweep_registration_json": "sweep --algo dsm_registration --W 4,8 --format json",
    "sweep_cc_flag_cc": "sweep --algo cc_flag --model cc --W 4,8,16",
    "sweep_queue_unsorted": "sweep --algo dsm_queue --W 4,16,8",
    "sweep_registration_erase": "sweep --algo dsm_registration --erase --W 6",
}


def run_case(command: str) -> dict:
    """Run one command line in-process."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(command.split())
    return {"argv": command, "exit": code, "stdout": out.getvalue(), "stderr": err.getvalue()}


@pytest.mark.parametrize("case", sorted(CORPUS))
def test_golden_output(case):
    expected = json.loads((GOLDEN / f"{case}.json").read_text(encoding="utf-8"))
    assert run_case(CORPUS[case]) == expected


def test_every_golden_file_has_a_case():
    assert sorted(p.stem for p in GOLDEN.glob("*.json")) == sorted(CORPUS)


def record() -> None:
    GOLDEN.mkdir(exist_ok=True)
    for old in GOLDEN.glob("*.json"):
        old.unlink()
    for case, command in sorted(CORPUS.items()):
        text = json.dumps(run_case(command), indent=2, sort_keys=True) + "\n"
        (GOLDEN / f"{case}.json").write_text(text, encoding="utf-8")


if __name__ == "__main__":
    if sys.argv[1:] != ["--record"]:
        sys.exit("usage: test_golden.py --record")
    record()
