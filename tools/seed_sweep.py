"""Run the builtin-matrix workload at seed offsets 0..K and fail on any fault but a known defect.

Usage: python3 tools/seed_sweep.py [K]    (K defaults to 39)

Offset k runs `orliczlab run` on `perfbench/workloads.config("builtin-matrix", k)`
with the `orliczlab` package in this checkout's `src/`.  The offset fails when
the run exits with a code outside {0, 1}, when its report is not strict JSON
(a bare NaN or Infinity, say), or when a check fails that is not one of
`WORKLOADS["builtin-matrix"].known_defects`.  One line is printed per offset,
and a last line gives the failed offsets and how many offsets each known
defect failed at.  The exit code is 1 if any offset failed, else 0.  Standard
library only; it reads `perfbench/` and runs one child at a time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOAD = "builtin-matrix"

# Run in a child: print the workload's known defects and its config at each offset.
_CASES = """
import json, sys
from workloads import WORKLOADS, config
name, k = sys.argv[1], int(sys.argv[2])
json.dump({"known_defects": WORKLOADS[name].known_defects,
           "configs": [config(name, s) for s in range(k + 1)]}, sys.stdout)
"""


def _python(args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(ROOT / "src"), str(ROOT / "perfbench")]))
    env.pop("ORLICZLAB_OUT_DIR", None)
    return subprocess.run([sys.executable, *args], env=env, capture_output=True, text=True, check=False)


def _refuse(constant: str):
    raise ValueError(f"bare {constant}")


def _failed_checks(proc: subprocess.CompletedProcess) -> list[tuple[str, str, str]]:
    """(scenario, suite, check) of every failing check; ValueError for a bad exit code or report."""
    if proc.returncode not in (0, 1):
        raise ValueError(f"exit {proc.returncode}: {proc.stderr.strip()[-300:]}")
    try:
        report = json.loads(proc.stdout, parse_constant=_refuse)
    except ValueError as exc:
        raise ValueError(f"the report is not strict JSON: {exc}") from exc
    return [
        (section["scenario"]["name"], suite, check["name"])
        for section in report["scenarios"]
        for suite, result in section["suites"].items()
        for check in result["checks"]
        if not check["passed"]
    ]


def main(argv: list[str]) -> int:
    if len(argv) > 1 or (argv and not argv[0].isdigit()):
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    last = int(argv[0]) if argv else 39
    proc = _python(["-c", _CASES, WORKLOAD, str(last)])
    if proc.returncode != 0:
        raise SystemExit(f"cannot build the {WORKLOAD} configs:\n{proc.stderr}")
    cases = json.loads(proc.stdout)
    known = {tuple(defect): 0 for defect in cases["known_defects"]}
    bad = []
    with tempfile.TemporaryDirectory() as tmp:
        for k, cfg in enumerate(cases["configs"]):
            path = Path(tmp) / f"{WORKLOAD}-{k}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            try:
                failed = _failed_checks(_python(["-m", "orliczlab", "run", "--config", str(path)]))
            except ValueError as exc:
                bad.append(k)
                print(f"FAIL offset {k}: {exc}")
                continue
            for defect in set(failed) & known.keys():
                known[defect] += 1
            unknown = [defect for defect in failed if defect not in known]
            if unknown:
                bad.append(k)
            print(f"{'FAIL' if unknown else 'ok  '} offset {k}: " + (", ".join("/".join(d) for d in failed) or "all passed"))
    counts = ", ".join(f"{'/'.join(d)} at {n}" for d, n in known.items()) or "none"
    print(f"{len(bad)} of {last + 1} offsets failed {bad}; known defects failed: {counts}")
    return 1 if bad else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
