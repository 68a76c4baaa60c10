"""Rewrite fixtures.json from the program's current outputs.

    python3 perfbench/make_fixtures.py

Only for a change that means to alter the enum or drill outputs.  It
refuses to write fixtures in which the mutant is not flagged or another
configuration is.
"""

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads  # noqa: E402


def main() -> int:
    fixtures = {}
    for key, cls in (("enum", workloads.Enum), ("drill", workloads.Drill)):
        workload = cls(0, expected={})
        units = workload.pass_units(0)
        result = workloads.run_pass(workload, units)
        fixtures[key] = {workload.key(unit): out for unit, out in zip(units, result.outputs)}
    for name, output in fixtures["enum"].items():
        if bool(output["kinds"]) != name.startswith("mutant"):
            print(f"error: {name} found {output['kinds']}", file=sys.stderr)
            return 1
    workloads.FIXTURES.write_text(json.dumps(fixtures, indent=1, sort_keys=True) + "\n",
                                  encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
