"""Seeded runs at large n, pinned by digest.

The goldens run at n <= 5, so a scheduler draw among more runnable
processes, and everything downstream of it, is pinned nowhere else.  Each
case is a ``run`` of the default roles of one registered protocol (or its
``+blocking`` variant) under a seeded random schedule with the default
budget.  Its digest covers the event count, the ledger totals and
per-process rows, and (proc, kind, response, start_seq, end_seq) of every
call.  A digest that moves means some run's bytes moved.
"""

import hashlib
import json

import pytest

from rmrsim.algorithms import REGISTRY, make_algorithm
from rmrsim.runner import (
    DEFAULT_BUDGET,
    Runner,
    SeededRandom,
    poll_until_true,
    signal_once,
    wait_once,
    waiter_roles,
)

NS = (16, 64)
SEEDS = (0, 7, 29)
ALGOS = tuple(name + suffix for name in sorted(REGISTRY) for suffix in ("", "+blocking"))


def fingerprint(algo: str, n: int, seed: int) -> str:
    algorithm = make_algorithm(algo, n)
    waiter = wait_once() if algorithm.blocking else poll_until_true()
    roles, signaler = waiter_roles(algorithm, waiter)
    roles[signaler] = signal_once()
    run = Runner(algorithm, roles)
    run.drive(SeededRandom(seed), DEFAULT_BUDGET)
    history, ledger = run.history(), run.ledger
    digest = {
        "events": len(history.events),
        "totals": ledger.totals(),
        "per_process": {p: ledger.per_process(p) for p in sorted(history.participants)},
        "calls": [(c.proc, c.kind, c.response, c.start_seq, c.end_seq) for c in history.calls],
    }
    text = json.dumps(digest, sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()[:16]


PINNED = {
    ("cc_flag", 16, 0): "5e01530029442cbe",
    ("cc_flag", 16, 7): "0c7cd98a80f1b9cc",
    ("cc_flag", 16, 29): "8989ca32ef66b2f8",
    ("cc_flag", 64, 0): "38d726d9fa5f6cf3",
    ("cc_flag", 64, 7): "3a4d2c0099319774",
    ("cc_flag", 64, 29): "606059f6de3e4ea4",
    ("cc_flag+blocking", 16, 0): "07a2b8dad2818158",
    ("cc_flag+blocking", 16, 7): "574e0212df2cce3a",
    ("cc_flag+blocking", 16, 29): "8a3171d4d175290d",
    ("cc_flag+blocking", 64, 0): "cd5936eb66c73126",
    ("cc_flag+blocking", 64, 7): "85898a162bf22322",
    ("cc_flag+blocking", 64, 29): "6db044358b62b0e7",
    ("dsm_fixed_waiters", 16, 0): "163d7b9b1589bf72",
    ("dsm_fixed_waiters", 16, 7): "ba47e5cb7d753b5e",
    ("dsm_fixed_waiters", 16, 29): "0de66908c75aef6c",
    ("dsm_fixed_waiters", 64, 0): "f7641e63a5bcdb14",
    ("dsm_fixed_waiters", 64, 7): "183d61a361ef3681",
    ("dsm_fixed_waiters", 64, 29): "26af27c16f4aad21",
    ("dsm_fixed_waiters+blocking", 16, 0): "30de0b0ad3c460e9",
    ("dsm_fixed_waiters+blocking", 16, 7): "3ab5843c32b43a7a",
    ("dsm_fixed_waiters+blocking", 16, 29): "14a4821b3cbcd707",
    ("dsm_fixed_waiters+blocking", 64, 0): "77ac025a55685a83",
    ("dsm_fixed_waiters+blocking", 64, 7): "0771d9254721879f",
    ("dsm_fixed_waiters+blocking", 64, 29): "426658b515efb0b1",
    ("dsm_fixed_waiters_term", 16, 0): "24fa6df8fc3a77c8",
    ("dsm_fixed_waiters_term", 16, 7): "11811224ff0a4442",
    ("dsm_fixed_waiters_term", 16, 29): "470e6a439cd89cc4",
    ("dsm_fixed_waiters_term", 64, 0): "28d13410a9f4ed65",
    ("dsm_fixed_waiters_term", 64, 7): "1ab775bce19587d9",
    ("dsm_fixed_waiters_term", 64, 29): "d43fdda6e9568b9e",
    ("dsm_fixed_waiters_term+blocking", 16, 0): "448a2b6f92b0c0fb",
    ("dsm_fixed_waiters_term+blocking", 16, 7): "2ee23bcf9d93bcfc",
    ("dsm_fixed_waiters_term+blocking", 16, 29): "da5983bf770d483b",
    ("dsm_fixed_waiters_term+blocking", 64, 0): "2e7a11d8e082b249",
    ("dsm_fixed_waiters_term+blocking", 64, 7): "64a7f86b7a988167",
    ("dsm_fixed_waiters_term+blocking", 64, 29): "e76f55f2c9448b87",
    ("dsm_queue", 16, 0): "49e018f6f8752d0a",
    ("dsm_queue", 16, 7): "224fcd016aa41c83",
    ("dsm_queue", 16, 29): "0f21fa91e73c9ac5",
    ("dsm_queue", 64, 0): "5c06d56e3cc66b27",
    ("dsm_queue", 64, 7): "bbd90059670fb5d4",
    ("dsm_queue", 64, 29): "5c779065a6f61601",
    ("dsm_queue+blocking", 16, 0): "84e2130c1e1deb8c",
    ("dsm_queue+blocking", 16, 7): "33ee06d3541b91fa",
    ("dsm_queue+blocking", 16, 29): "e13f11d0f0a5d50d",
    ("dsm_queue+blocking", 64, 0): "38eef6e051af8f41",
    ("dsm_queue+blocking", 64, 7): "9c2bea392e6404ee",
    ("dsm_queue+blocking", 64, 29): "2e25964cc637a6e2",
    ("dsm_registration", 16, 0): "d45da1209c84b2c9",
    ("dsm_registration", 16, 7): "5d097dcef7ff27ec",
    ("dsm_registration", 16, 29): "1e65a1007d21362c",
    ("dsm_registration", 64, 0): "9af3d263f3d5727b",
    ("dsm_registration", 64, 7): "6f8d991d69583897",
    ("dsm_registration", 64, 29): "c2bf0f6d7ea7d684",
    ("dsm_registration+blocking", 16, 0): "693f90c4058e3563",
    ("dsm_registration+blocking", 16, 7): "948ec9fb39216724",
    ("dsm_registration+blocking", 16, 29): "b606015107bd3f16",
    ("dsm_registration+blocking", 64, 0): "6213c387918edb3c",
    ("dsm_registration+blocking", 64, 7): "fde83d31cf2eab45",
    ("dsm_registration+blocking", 64, 29): "b293d63d73545d86",
    ("dsm_single_waiter", 16, 0): "654175aac4a298c2",
    ("dsm_single_waiter", 16, 7): "63dd3ad0117e8610",
    ("dsm_single_waiter", 16, 29): "74adfc8c3c4b1528",
    ("dsm_single_waiter", 64, 0): "654175aac4a298c2",
    ("dsm_single_waiter", 64, 7): "63dd3ad0117e8610",
    ("dsm_single_waiter", 64, 29): "74adfc8c3c4b1528",
    ("dsm_single_waiter+blocking", 16, 0): "cd040f98dfb6ce42",
    ("dsm_single_waiter+blocking", 16, 7): "8b2ef61318c8a804",
    ("dsm_single_waiter+blocking", 16, 29): "35e980aa931264ea",
    ("dsm_single_waiter+blocking", 64, 0): "cd040f98dfb6ce42",
    ("dsm_single_waiter+blocking", 64, 7): "8b2ef61318c8a804",
    ("dsm_single_waiter+blocking", 64, 29): "35e980aa931264ea",
    ("mutant_single_waiter", 16, 0): "65ea8c353e4583e2",
    ("mutant_single_waiter", 16, 7): "f227847237658649",
    ("mutant_single_waiter", 16, 29): "3ef7aee409a18f74",
    ("mutant_single_waiter", 64, 0): "65ea8c353e4583e2",
    ("mutant_single_waiter", 64, 7): "f227847237658649",
    ("mutant_single_waiter", 64, 29): "3ef7aee409a18f74",
    ("mutant_single_waiter+blocking", 16, 0): "4be347e4cd2a83df",
    ("mutant_single_waiter+blocking", 16, 7): "e21348f538fedff8",
    ("mutant_single_waiter+blocking", 16, 29): "6e7c056bbd7e1816",
    ("mutant_single_waiter+blocking", 64, 0): "4be347e4cd2a83df",
    ("mutant_single_waiter+blocking", 64, 7): "e21348f538fedff8",
    ("mutant_single_waiter+blocking", 64, 29): "6e7c056bbd7e1816",
}


@pytest.mark.parametrize("algo", ALGOS)
@pytest.mark.parametrize("n", NS)
def test_seeded_runs_match_their_pinned_digests(algo, n):
    got = {seed: fingerprint(algo, n, seed) for seed in SEEDS}
    assert got == {seed: PINNED[algo, n, seed] for seed in SEEDS}
