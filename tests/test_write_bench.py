"""Smoke test of ``scripts/write_bench.py``: one short enum pair, with the
repository as both trees."""

import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_one_enum_pair_writes_a_correct_record(tmp_path):
    out = tmp_path / "BENCH_0.json"
    subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "write_bench.py"), "--parent", str(ROOT),
         "--change", str(ROOT), "--out", str(out), "--workloads", "enum", "--pairs", "1",
         "--traced", "1", "--seconds", "0.3"],
        check=True, capture_output=True, timeout=60,
    )
    record = json.loads(out.read_text(encoding="utf-8"))
    assert record["correct"] is True
    enum = record["workloads"]["enum"]
    assert enum["seeds"] == [201]
    assert [p["first"] for p in enum["pairs"]] == ["parent"]
    wall = enum["end_to_end"]["wall_s"]
    assert wall["better"] == "lower" and wall["change_won"] in (0, 1)
    assert wall["parent"]["q1"] == wall["parent"]["median"] == wall["parent"]["q3"] > 0
    # The per-layer table is the traced run's, one per tree.
    assert len(enum["traced"]["parent"]) == len(enum["traced"]["change"]) == 1
    assert enum["per_layer"]["memory.apply.calls"]["parent"] > 0
    assert set(record["machine"]) == {"python", "cpus", "platform"}
