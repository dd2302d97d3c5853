"""Compare `orliczlab run` reports and `export-matrix` CSVs between two source trees.

Usage: python3 tools/compare_reports.py OLD_SRC NEW_SRC

OLD_SRC and NEW_SRC are directories that hold the `orliczlab` package, such
as the `src/` of two checkouts.  Each tree runs every builtin scenario, the
config of every workload in `perfbench/workloads.py` (built by that tree's
own `orliczlab`), UNEQUAL_BLOCKS, a search on a partition of unequal
blocks, UNEQUAL_EXP, the same on the exp pair, WIDE_BLOCKS, a member gather
over 8 ranks whose chunk boundaries differ between 1 and 2 CPUs, SYMMETRIC_2048,
the largest search, KIND_CONFIGS, one scenario for each Young kind that no
other case takes as phi, and SCHEMA_CONFIGS, one for each row and default of
the scenario schema tables that no other case takes, each at seeds 0, 1 and
2: 63 reports.  A builtin and each of these configs run with `--seed`, a
workload config is built at the seed.  Each tree also writes every
builtin's operator with `export-matrix` (7 CSVs).  The `timing` block is
dropped, each report or CSV whose text or exit code differs is printed, the
last line gives both totals, and the exit code is 1 if any differs, else 0.
For a differing pair of reports the line also gives the number of checks
whose `passed` flipped, the largest relative move |new - old| / max(1,
|old|) of any finite number found at the same place in both, with its path,
the path of each number that changes to or from NaN or +-inf (strict JSON
writes these as the strings "NaN", "Infinity" and "-Infinity"), and each
key found in one report only, dropped (old only) or added (new only), named
once with its count.  Every report of either tree is also re-judged: a check
whose `passed` is not what its `rule` gives on its own numbers (rejudge) is
printed as MISJUDGED and counts its report as differing.
Standard library only; runs one child at a time.
"""

from __future__ import annotations

import json
import math
import os
import subprocess
import sys
import tempfile
from collections import Counter
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
# UNEQUAL_BLOCKS with phi = exp_type: the exp pair's ratio search, which drops
# the ratios that a Jensen bound proves below its range's maximum, on unequal
# weights and blocks.
UNEQUAL_EXP = {**UNEQUAL_BLOCKS, "name": "unequal-exp", "young": {"kind": "exp_type"}}
# 16 rotation blocks of 8 members on 128 atoms, budget 8200: every block mean is
# a member gather over 8 ranks, and one search range reads 2048-row chunks and
# ends on 8 rows, two ranges read 1024-row chunks and end on 4.
WIDE_BLOCKS = {
    "name": "wide-blocks",
    "space": {"type": "rotation", "n": 8, "cells_per_block_orbit": 16},
    "young": {"kind": "scaled_power", "p": 3.0},
    "u": {"type": "law", "name": "reciprocal"},
    "budget": 8200,
}
# The 2048-atom scenario of the symmetric-sweep workload at its default budget
# of 10000: one search range reads 128-row chunks from one buffer pair and ends
# on 16 rows, two ranges read 64-row chunks and end on 8.
SYMMETRIC_2048 = {
    "name": "symmetric-2048",
    "space": {"type": "symmetric", "n_half": 1024},
    "young": {"kind": "scaled_power", "p": 2.0},
    "u": {"type": "generator", "name": "random_uniform", "seed": 7},
}
# phi = power p = 3, conjugate_power p = 3 and log_type on 16 symmetric atoms:
# with the builtins (scaled_power, exp_type) every row of young._KINDS is
# compared as phi.  The log_type run exits 1: its numeric conjugate finds no
# bracket past y ~ 354.9, so young-calculus fails as solver_budget_exhausted.
KIND_CONFIGS = [
    {
        "name": name,
        "space": {"type": "symmetric", "n_half": 8},
        "young": young,
        "u": {"type": "generator", "name": "random_uniform", "seed": 5},
    }
    for name, young in (
        ("power-3", {"kind": "power", "p": 3.0}),
        ("conjugate-power-3", {"kind": "conjugate_power", "p": 3.0}),
        ("log-type", {"kind": "log_type"}),
    )
]
# One scenario for each row and default of scenarios._SPACES and _MULTIPLIERS
# that no case above takes: the indicator generator, identity on a labelled
# (symmetric) space, a rotation space at its default cells_per_block_orbit with
# random_uniform at its default seed, and a family at its default
# atoms_per_block.
SCHEMA_CONFIGS = [
    {"name": name, "young": {"kind": "scaled_power", "p": 2.0}, **fields}
    for name, fields in (
        (
            "indicator",
            {
                "space": {"type": "explicit", "weights": [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]},
                "partition": {"labels": [0, 0, 1, 1, 2, 2]},
                "u": {"type": "generator", "name": "indicator", "block": 1},
            },
        ),
        (
            "identity-symmetric",
            {"space": {"type": "symmetric", "n_half": 4}, "u": {"type": "generator", "name": "identity"}},
        ),
        (
            "rotation-defaults",
            {"space": {"type": "rotation", "n": 4}, "u": {"type": "generator", "name": "random_uniform"}},
        ),
        (
            "family-defaults",
            {"space": {"type": "family", "sizes": [16, 32, 64]}, "u": {"type": "law", "name": "reciprocal"}},
        ),
    )
]

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
    for cfg in (UNEQUAL_BLOCKS, UNEQUAL_EXP, WIDE_BLOCKS, SYMMETRIC_2048, *KIND_CONFIGS, *SCHEMA_CONFIGS):
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


_ABSENT = object()  # the side of a key that one report lacks


def _leaves(old, new, path: str = ""):
    """(path, old, new) for each pair of scalars at the same place in both
    reports, and for each key of a dict in one report only, with _ABSENT on
    the other side.

    A list item with a `name` (a check) is addressed by that name.
    """
    if old is _ABSENT or new is _ABSENT:
        yield path, old, new
    elif isinstance(old, dict) and isinstance(new, dict):
        for key in sorted(old.keys() | new.keys()):
            yield from _leaves(old.get(key, _ABSENT), new.get(key, _ABSENT), f"{path}.{key}" if path else key)
    elif isinstance(old, list) and isinstance(new, list) and len(old) == len(new):
        for i, (a, b) in enumerate(zip(old, new)):
            label = a.get("name", i) if isinstance(a, dict) else i
            yield from _leaves(a, b, f"{path}[{label}]")
    elif not isinstance(old, (dict, list)) and not isinstance(new, (dict, list)):
        yield path, old, new


def _number(x) -> float | None:
    """A report value as a float if it is a number, else None; strict JSON
    writes NaN and +-inf as strings."""
    if isinstance(x, str):
        return float(x) if x in ("NaN", "Infinity", "-Infinity") else None
    return float(x) if isinstance(x, (int, float)) and not isinstance(x, bool) else None


def _finite(x) -> bool:
    """Whether every number in x, through nested lists and dicts, is finite."""
    if isinstance(x, dict):
        return all(_finite(item) for item in x.values())
    if isinstance(x, list):
        return all(_finite(item) for item in x)
    n = _number(x)
    return n is None or math.isfinite(n)


def _betas_vanish(b: list) -> bool:
    steps = all(later <= 1.01 * earlier for earlier, later in zip(b, b[1:]))
    return steps and b[-1] <= b[0] / 2.0


# Each rule a report check can name, restated from the report format alone:
# rule -> (the keys whose numbers must all be finite, the rule on the record).
# `n` reads a key as a float, strict JSON's "NaN" and "Infinity" included.
_REJUDGE = {
    "at_most_tolerance": (("value", "tolerance"), lambda c, n: n("value") <= n("tolerance")),
    "at_most_bound": (("value", "bound", "tolerance"), lambda c, n: n("value") <= n("bound") * (1.0 + n("tolerance"))),
    "near_bound": (
        ("value", "bound", "tolerance"),
        lambda c, n: abs(n("value") - n("bound")) <= n("tolerance") * max(1.0, n("bound")),
    ),
    "near_bound_absolute": (
        ("value", "bound", "tolerance"),
        lambda c, n: abs(n("value") - n("bound")) <= n("tolerance"),
    ),
    "members_at_most_bound": (
        ("members", "tolerance"),
        lambda c, n: all(
            _number(row["gap_lower_bound"]) <= _number(row["bound"]) * (1.0 + n("tolerance")) for row in c["members"]
        ),
    ),
    "non_increasing": (("counts",), lambda c, n: c["counts"] == sorted(c["counts"], reverse=True)),
    "matches_expected": (("verdict", "expected"), lambda c, n: c["verdict"] == c["expected"]),
    "certificate_as_expected": (
        ("value", "certificate_present", "expected_present"),
        lambda c, n: c["certificate_present"] == c["expected_present"],
    ),
    "betas_vanish": (("betas",), lambda c, n: _betas_vanish([_number(b) for b in c["betas"]])),
    "betas_stabilize": (
        ("betas",),
        lambda c, n: all(
            abs(_number(b) - _number(c["betas"][0])) <= 0.01 * max(_number(c["betas"][0]), 1e-300) for b in c["betas"]
        ),
    ),
    "raised": ((), lambda c, n: False),
}


def rejudge(check: dict) -> bool:
    """The verdict of a report check re-judged from its own record: its `rule`
    holds on the numbers it carries, and every number that rule reads is
    finite.  Shares no code with orliczlab; an unknown rule raises KeyError."""
    keys, rule = _REJUDGE[check["rule"]]
    if not all(_finite(check[key]) for key in keys if key in check):
        return False
    return bool(rule(check, lambda key: _number(check[key])))


def _misjudged(report: dict):
    """(path, passed) of each check in `report` whose `passed` differs from rejudge();
    a check without a rule, as in an older report, is not re-judged."""
    for section in report.get("scenarios", ()):
        for suite, result in section["suites"].items():
            for check in result["checks"]:
                if "rule" in check and rejudge(check) != check["passed"]:
                    yield f"{section['scenario']['name']}/{suite}/{check['name']}", check["passed"]


def _what_moved(old, new) -> str:
    """Flipped check verdicts, the largest relative move of a finite number,
    each number that changes to or from a non-finite one, and the keys in
    one report only."""
    flipped, worst, where, nonfinite = 0, 0.0, None, []
    one_sided = {"dropped": Counter(), "added": Counter()}
    for path, a, b in _leaves(old, new):
        if a is _ABSENT or b is _ABSENT:
            one_sided["added" if a is _ABSENT else "dropped"][path.rsplit(".", 1)[-1]] += 1
            continue
        if path.endswith(".passed") and ".checks[" in path and a != b:
            flipped += 1
        x, y = _number(a), _number(b)
        if x is None or y is None or a == b:
            continue
        if not (math.isfinite(x) and math.isfinite(y)):
            nonfinite.append(f"{path} ({a} -> {b})")
            continue
        move = abs(y - x) / max(1.0, abs(x))
        if move > worst:
            worst, where = move, path
    moved = [f"largest move {worst:.3g} at {where}"] if where else []
    if nonfinite:
        moved.append("non-finite change at " + ", ".join(nonfinite))
    keys = [
        f"{side}: " + ", ".join(f"{key} ×{count}" for key, count in sorted(counts.items()))
        for side, counts in one_sided.items()
        if counts
    ]
    return "; ".join([f"{flipped} checks flipped", *(moved or ["no number moved"]), *keys])


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
            for side, rep in (("old", old_report), ("new", new_report)):
                for path, passed in _misjudged(rep or {}):
                    differ_labels.add(label)
                    print(f"MISJUDGED {label} ({side} tree): {path} reads passed={passed}, its rule gives {not passed}")
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
