"""Freeze the gate's expected values: run each workload once at seed 0.

Usage (from the repository root): python3 perfbench/freeze.py [WORKLOAD...]

Writes expected/<workload>.json with, for every check of the report, the
fields that no search produces (see run.FROZEN_FIELDS).  Rerun it only when a
change is meant to alter those values, and say so in CHANGES.md.
"""

import json
import sys
import time

import run


def main(names: list[str]) -> None:
    sys.path.insert(0, str(run.SRC))
    from workloads import WORKLOADS, config

    run.OUT.mkdir(exist_ok=True)
    for name in names or WORKLOADS:
        workload = WORKLOADS[name]
        path = run.OUT / f"{name}-seed0.json"
        path.write_text(json.dumps(config(name, 0), indent=1) + "\n")
        inv = run.invoke(workload, path, None, False, time.monotonic() + run.KILL_AT_S)
        if inv.errors:
            raise SystemExit(f"{name}: {inv.errors}")
        report = json.loads((run.OUT / f"{name}-report.json").read_text())
        frozen = {key: run.frozen_values(check) for key, check in run.report_checks(report).items()}
        target = run.HERE / "expected" / f"{name}.json"
        target.parent.mkdir(exist_ok=True)
        target.write_text(json.dumps(frozen, indent=1, sort_keys=True) + "\n")
        print(f"{name}: froze {len(frozen)} checks into {target}")


if __name__ == "__main__":
    main(sys.argv[1:])
