"""Compare `orliczlab run` reports and `export-matrix` CSVs between two source trees.

Usage: python3 tools/compare_reports.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the `orliczlab` package, such
as the `src/` of two checkouts.  Each tree runs every builtin scenario, the
config of every workload in `perfbench/workloads.py` (built by that tree's
own `orliczlab`), UNEQUAL_BLOCKS, a search on a partition of unequal
blocks, and WIDE_BLOCKS, a search whose chunks are averaged both by member
gather and by bincount, each at seeds 0, 1 and 2.  A builtin, UNEQUAL_BLOCKS
and WIDE_BLOCKS run with `--seed`, a workload config is built at the seed.  Each tree also writes every
builtin's operator with `export-matrix`.  The `timing` block is dropped, each report or
CSV whose text or exit code differs is printed, the last line gives both
totals, and the exit code is 1 if any differs, else 0.  For a differing pair
of reports the line also gives the number of checks whose `passed` flipped and
the largest relative move |new - old| / max(1, |old|) of any number found at
the same place in both, with its path.  Standard library only; runs one child
at a time.
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
import tempfile
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
SEEDS = (0, 1, 2)
EXPORT = "export-matrix"
# 8 blocks of 1 to 9 members on 24 weighted atoms: the one case here whose
# Hölder search averages a partition of unequal blocks.
UNEQUAL_BLOCKS = {
    "name": "unequal-blocks",
    "space": {"type": "explicit", "weights": list(range(1, 25))},
    "partition": {"labels": [0] * 9 + [1] * 4 + [2] * 3 + [3] * 2 + [4] + [5] * 3 + [6, 7]},
    "young": {"kind": "scaled_power", "p": 3.0},
    "u": {"type": "generator", "name": "identity"},
    "budget": 12000,
}
# 16 rotation blocks of 8 members on 128 atoms, budget 8200: a search chunk of
# at least 256 rows is averaged by member gather, a shorter one by bincount.
WIDE_BLOCKS = {
    "name": "wide-blocks",
    "space": {"type": "rotation", "n": 8, "cells_per_block_orbit": 16},
    "young": {"kind": "scaled_power", "p": 3.0},
    "u": {"type": "law", "name": "reciprocal"},
    "budget": 8200,
}

# Run under one tree: print the builtin names and every workload config.
_CASES = """
import json, sys
from orliczlab.scenarios import BUILTIN_ORDER
from workloads import WORKLOADS, config
seeds = [int(s) for s in sys.argv[1:]]
json.dump({"builtins": list(BUILTIN_ORDER),
           "workloads": {w: [config(w, s) for s in seeds] for w in WORKLOADS}}, sys.stdout)
"""


def _python(src: Path, args: list[str]) -> subprocess.CompletedProcess:
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([str(src), str(PERFBENCH)]))
    env.pop("ORLICZLAB_OUT_DIR", None)
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, check=False
    )


def _cases(src: Path, tmp: Path) -> dict[str, list[str]]:
    """Label -> `orliczlab` arguments, with workload configs written under tmp."""
    proc = _python(src, ["-c", _CASES, *map(str, SEEDS)])
    if proc.returncode != 0:
        raise SystemExit(f"{src}: cannot list the cases:\n{proc.stderr}")
    listed = json.loads(proc.stdout)
    cases = {}
    for name in listed["builtins"]:
        for seed in SEEDS:
            cases[f"{name} --seed {seed}"] = ["run", "--config", name, "--seed", str(seed)]
        cases[f"{EXPORT} {name}"] = [EXPORT, "--config", name]
    for name, configs in listed["workloads"].items():
        for seed, cfg in zip(SEEDS, configs):
            path = tmp / f"{name}-seed{seed}.json"
            path.write_text(json.dumps(cfg), encoding="utf-8")
            cases[f"{name} workload, seed {seed}"] = ["run", "--config", str(path)]
    for cfg in (UNEQUAL_BLOCKS, WIDE_BLOCKS):
        path = tmp / f"{cfg['name']}.json"
        path.write_text(json.dumps(cfg), encoding="utf-8")
        for seed in SEEDS:
            cases[f"{cfg['name']} --seed {seed}"] = ["run", "--config", str(path), "--seed", str(seed)]
    return cases


def _run(src: Path, args: list[str]) -> tuple[int, str, object]:
    """Exit code, the report without `timing` as text (or stdout and stderr if it
    is no report, such as a CSV), and the parsed report (None if it is no report)."""
    proc = _python(src, ["-m", "orliczlab", *args])
    try:
        report = json.loads(proc.stdout)
    except json.JSONDecodeError:
        report = None
    if not isinstance(report, dict):  # a one-value CSV parses as a JSON number
        return proc.returncode, proc.stdout + proc.stderr, None
    report.pop("timing", None)
    return proc.returncode, json.dumps(report, indent=2, sort_keys=True), report


def _first_difference(old: str, new: str) -> str:
    for k, (a, b) in enumerate(zip(old.splitlines(), new.splitlines()), 1):
        if a != b:
            return f"line {k}: {a.strip()} -> {b.strip()}"
    return f"lengths differ: {len(old.splitlines())} vs {len(new.splitlines())} lines"


def _leaves(old, new, path: str = ""):
    """(path, old, new) for each pair of scalars at the same place in both reports.

    A list item with a `name` (a check) is addressed by that name.
    """
    if isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() & new.keys()):
            yield from _leaves(old[key], new[key], f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            label = a.get("name", i) if isinstance(a, dict) else i
            yield from _leaves(a, b, f"{path}[{label}]")
    elif not isinstance(old, (dict, list)) and not isinstance(new, (dict, list)):
        yield path, old, new


def _is_number(x) -> bool:
    return isinstance(x, (int, float)) and not isinstance(x, bool)


def _what_moved(old, new) -> str:
    """Flipped check verdicts and the largest relative move of a number."""
    flipped, worst, where = 0, 0.0, None
    for path, a, b in _leaves(old, new):
        if path.endswith(".passed") and ".checks[" in path and a != b:
            flipped += 1
        if _is_number(a) and _is_number(b) and a != b:
            move = abs(b - a) / max(1.0, abs(a))
            if move > worst:
                worst, where = move, path
    moved = f"largest move {worst:.3g} at {where}" if where else "no number moved"
    return f"{flipped} checks flipped; {moved}"


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        sys.stderr.write(__doc__.split("\n\n")[1] + "\n")
        return 2
    old_src, new_src = (Path(a).resolve() for a in argv)
    with tempfile.TemporaryDirectory() as tmp_dir:
        tmp = Path(tmp_dir)
        (tmp / "old").mkdir()
        (tmp / "new").mkdir()
        old_cases = _cases(old_src, tmp / "old")
        new_cases = _cases(new_src, tmp / "new")
        labels = old_cases.keys() | new_cases.keys()
        differ_labels = set()
        for label in sorted(labels):
            if label not in old_cases or label not in new_cases:
                differ_labels.add(label)
                print(f"DIFFERS {label}: present in one tree only")
                continue
            old_code, old, old_report = _run(old_src, old_cases[label])
            new_code, new, new_report = _run(new_src, new_cases[label])
            if (old_code, old) != (new_code, new):
                differ_labels.add(label)
                detail = f"exit {old_code} -> {new_code}"
                if old != new:
                    detail += "; " + _first_difference(old, new)
                if old_report is not None and new_report is not None:
                    detail += "; " + _what_moved(old_report, new_report)
                print(f"DIFFERS {label}: {detail}")
            else:
                print(f"same    {label} (exit {new_code})")
    csvs = [label for label in labels if label.startswith(EXPORT)]
    differ_csv = sum(label in differ_labels for label in csvs)
    print(
        f"{len(differ_labels) - differ_csv} of {len(labels) - len(csvs)} reports and "
        f"{differ_csv} of {len(csvs)} {EXPORT} CSVs differ"
    )
    return 1 if differ_labels else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
