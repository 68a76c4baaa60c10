"""Pinned records of ``rmrsim`` at sizes the tests do not reach.

Each pin runs one command as ``python -m rmrsim``, under the interpreter
that runs this script, and checks its exit code, a needle in its stderr,
the fields of the JSON record it prints, and, where given, its peak RSS.
Run from the repository root, after ``pip install -e .`` or from the
source tree:

    python .github/pins.py
    PYTHONPATH=src python .github/pins.py

A failing pin, one that cannot be started included, prints one line to
stderr and the script exits 1, after running the rest.
"""

import json
import os
import subprocess
import sys
import tempfile

# How a field is named in a failure message, where not by its own name.
SHOWN = {"histories_explored": "histories", "violation_count": "violations"}

# (label, argv, exit code, stderr needle, {field: value}, peak RSS bound in MB)
PINS = [
    # The separation certificate on the erase path, at 4x the largest W the
    # tests cover: one participant left, who paid W RMRs.
    ("adversary --erase --W 1024", "adversary --algo dsm_fixed_waiters --erase --W 1024",
     0, None, {"k": 1, "signaler_rmrs": 1024}, None),
    # The same at W = 16,384, with the engine's memory per waiter pinned:
    # one record per process and no link state per word peak at 61-66 MB
    # on Python 3.10-3.13 (74-78 MB with a context and a state object per
    # process and a link set per word), so the bound has about 10 % room.
    ("adversary --erase --W 16384", "adversary --algo dsm_fixed_waiters --erase --W 16384",
     0, None, {"k": 1, "signaler_rmrs": 16384}, 72),
    # The drill's default signaler at 4x the largest W the tests cover:
    # process 1, as in sweep, not a waiter.
    ("adversary dsm_queue --W 64", "adversary --algo dsm_queue --W 64",
     0, None, {"k": 65, "signaler_rmrs": 64}, None),
    # The DSM drill at W = 1024 over waiters with a non-empty ctx.state:
    # each probed waiter reads its own notify word, a poll that changes
    # no part of its configuration, so its stability is decided with no
    # key built after the poll.
    ("adversary dsm_queue --W 1024", "adversary --algo dsm_queue --W 1024",
     0, None, {"k": 1025, "signaler_rmrs": 1024, "total_rmr_dsm": 4096,
               "total_rmr_cc": 5122}, None),
    # The CC drill at W = 1024: each round's one stability probe decides
    # from its own events, against the ledger's holder table read before it
    # opens, that a waiter polling its cached flag pays nothing; one
    # signaler write then reaches every waiter.
    ("adversary cc_flag --model cc --W 1024", "adversary --algo cc_flag --model cc --W 1024",
     0, None, {"k": 1025, "signaler_rmrs": 1}, None),
    # The CC drill at W = 1024 with waiters that write: each runs FAI on the
    # tail and writes its slot, so every probe reads a holder table that
    # other waiters' writes have rewritten.
    ("adversary dsm_queue --model cc --W 1024", "adversary --algo dsm_queue --model cc --W 1024",
     0, None, {"k": 1025, "signaler_rmrs": 2050, "total_rmr_cc": 6146}, None),
    # The CC erase drill at W = 1024: no waiter observed another, so the end
    # of the Signal erases all 1,024 of them through the erase index, and
    # the one signaler write is all that is charged.
    ("adversary cc_flag --model cc --erase --W 1024",
     "adversary --algo cc_flag --model cc --erase --W 1024",
     0, None, {"k": 1, "signaler_rmrs": 1, "total_rmr_cc": 1}, None),
    # The degenerate erase drill: the signaler reads the registrations in
    # its own module, each waiter it would observe is erased first, and it
    # is left alone, having paid nothing.
    ("adversary dsm_registration --erase --W 1024",
     "adversary --algo dsm_registration --erase --W 1024",
     0, None, {"k": 1, "signaler_rmrs": 0}, None),
    # The drill's unstable path at W = 1024: under DSM each cc_flag waiter
    # pays to read the remote flag, so all 8 polling rounds, one stability
    # probe of 1,024 waiters each, end unstable: exit 4.
    ("adversary cc_flag --model dsm --W 1024", "adversary --algo cc_flag --model dsm --W 1024",
     4, "still pay RMRs after 8 polling rounds", None, None),
    # Seeded random runs at the benchmark's n = 64, the tests' runs being
    # at n <= 6: a Wait per waiter, and a one-step Poll per step.
    ("run dsm_queue+blocking n=64",
     "run --algo dsm_queue+blocking --n 64 --schedule random --seed 2",
     0, None, {"k": 64, "incomplete": False, "totals": {
         "msg_bus": 181, "msg_dir": 87, "rmr_cc": 323, "rmr_dsm": 243, "steps": 726}}, None),
    ("run cc_flag n=64", "run --algo cc_flag --n 64 --schedule random --seed 2",
     0, None, {"k": 64, "incomplete": False, "totals": {
         "msg_bus": 1, "msg_dir": 52, "rmr_cc": 116, "rmr_dsm": 161, "steps": 162}}, None),
    # The step budget at n = 64, which drive counts in its own loop: the
    # run stops after its 300th step, with all 64 processes begun and the
    # record marked incomplete.
    ("run dsm_queue n=64 --budget 300",
     "run --algo dsm_queue --n 64 --schedule random --seed 2 --budget 300",
     0, None, {"k": 64, "incomplete": True, "totals": {
         "msg_bus": 131, "msg_dir": 77, "rmr_cc": 214, "rmr_dsm": 193, "steps": 300}}, None),
    # A step request carries its written value: at n = 2048 the waiters
    # write 2,048 distinct values before the budget stops the run.
    ("run dsm_queue n=2048", "run --algo dsm_queue --n 2048 --seed 2",
     0, None, {"k": 2048, "incomplete": True, "totals": {
         "msg_bus": 4463, "msg_dir": 2317, "rmr_cc": 7150, "rmr_dsm": 6509, "steps": 100000}},
     None),
    # The enumeration DAG at n = 4, through 139,492 histories; the tests
    # stop at n = 3 or a few hundred histories.
    ("check dsm_registration n=4",
     "check --algo dsm_registration --n 4 --schedule exhaustive:12 --polls 1",
     0, None, {"histories_explored": 139492, "violation_count": 0}, None),
    # The terminating fixed-waiter protocol enumerated at n = 4, through
    # 181,961 histories; the tests stop at n = 3.
    ("check dsm_fixed_waiters_term n=4",
     "check --algo dsm_fixed_waiters_term --n 4 --schedule exhaustive:12 --polls 1",
     0, None, {"histories_explored": 181961, "violation_count": 0}, None),
    # Wait as Poll repeated, enumerated at depth 12; the tests stop at
    # depth 11 for a +blocking protocol.
    ("check dsm_queue+blocking n=3",
     "check --algo dsm_queue+blocking --n 3 --schedule exhaustive:12",
     0, None, {"histories_explored": 75402, "violation_count": 0}, None),
    # The history budget on a DAG of 18.7 M paths: the walk steps only as
    # far as the histories it yields, so the run stops at 1 M of them with
    # a small memory peak (about 22 MB) instead of first building the whole
    # DAG.
    ("check dsm_queue n=4 depth 60",
     "check --algo dsm_queue --n 4 --schedule exhaustive:60 --polls 10",
     3, "enumeration budget exceeded", None, 100),
]


def run(argv: list[str]) -> tuple[int, str, str, float]:
    """Exit code, stdout, stderr and peak RSS in MB of one command."""
    with tempfile.TemporaryFile() as out, tempfile.TemporaryFile() as err:
        proc = subprocess.Popen(argv, stdout=out, stderr=err)
        _, status, usage = os.wait4(proc.pid, 0)  # this child's own peak
        proc.returncode = os.waitstatus_to_exitcode(status)
        out.seek(0)
        err.seek(0)
        return proc.returncode, out.read().decode(), err.read().decode(), usage.ru_maxrss / 1024


def check(label, args, code, needle, fields, rss_mb) -> str | None:
    """The pin's failure message, or None."""
    try:
        rc, stdout, stderr, peak_mb = run([sys.executable, "-m", "rmrsim", *args.split()])
    except OSError as exc:
        return f"{label}: not started: {exc}"
    if rc != code or (needle is not None and needle not in stderr):
        return f"{label}: exit {rc}, {stderr!r}"
    if fields is not None:
        got = tuple(json.loads(stdout)[field] for field in fields)
        if got != tuple(fields.values()):
            return f"{label}: ({', '.join(SHOWN.get(f, f) for f in fields)}) = {got}"
    if rss_mb is not None:
        if peak_mb >= rss_mb:
            return f"{label}: peak RSS {peak_mb:.1f} MB"
        print(f"{label}: exit {code}, peak RSS {peak_mb:.1f} MB")
    return None


def main() -> int:
    failures = [msg for msg in (check(*pin) for pin in PINS) if msg is not None]
    for msg in failures:
        print(msg, file=sys.stderr)
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
