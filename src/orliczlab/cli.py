"""Command-line interface: run suites, list builtin scenarios, export operator matrices.

Verbs:
  run             execute check suites for a scenario config (or builtin name)
  list-scenarios  one line per builtin scenario
  export-matrix   write the operator matrix as CSV for external cross-checks

A `run` materializes every scenario first, so a config error exits 2 with the
first bad scenario's message before any suite runs.  The scenarios then run
whole on W = min(CPUs, 2, scenarios) forked workers, gathered in config order;
with W = 1 they run in this process and nothing is forked.  The timing block
holds total_seconds, workers (W) and, per scenario, its seconds and each suite's.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 config error.
Reports are deterministic for a fixed config and seed, except the timing block,
and strict JSON: a non-finite float is written as "NaN", "Infinity" or "-Infinity".
The only environment override is ORLICZLAB_OUT_DIR, which prefixes relative
--out paths; OPENBLAS_NUM_THREADS is set to 1 when the caller leaves it unset.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import sys
import time
from dataclasses import replace

# One OpenBLAS thread unless the caller chose: the lab's BLAS calls are too
# small to split, and an idle second OpenBLAS thread spins after numpy loads.
# Set before numpy is first imported, which is when OpenBLAS reads it.
os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")

import numpy as np

from . import __version__
from .errors import ConfigError
from .holder import _worker_count
from .scenarios import BUILTIN_ORDER, as_seed, builtin_scenario, from_config, materialize, to_config
from .suites import SUITE_ORDER, run_all_suites

__all__ = ["main"]


def _load_scenarios(config: str, seed_override: int | None = None) -> list:
    if seed_override is not None:
        as_seed(seed_override, "--seed")
    if config in BUILTIN_ORDER:
        return [builtin_scenario(config, seed_override)]
    if not os.path.exists(config):
        raise ConfigError(
            f"config: {config!r} is neither a builtin scenario nor an existing file; "
            f"builtins: {', '.join(BUILTIN_ORDER)}"
        )
    try:
        with open(config, encoding="utf-8") as fh:
            try:
                raw = json.load(fh)
            except json.JSONDecodeError as exc:
                raise ConfigError(
                    f"config: invalid JSON at line {exc.lineno} column {exc.colno}: {exc.msg}"
                ) from exc
    except OSError as exc:
        raise ConfigError(f"config: cannot read {config!r}: {exc.strerror or exc}") from exc
    if isinstance(raw, dict) and "scenarios" in raw:
        items = raw["scenarios"]
        if not isinstance(items, list) or not items:
            raise ConfigError("config.scenarios: expected a nonempty list")
    elif isinstance(raw, dict):
        items = [raw]
    else:
        raise ConfigError("config: expected a scenario object or {'scenarios': [...]}")
    scenarios = [from_config(item) for item in items]
    if seed_override is not None:
        scenarios = [replace(s, seed=seed_override) for s in scenarios]
    return scenarios


def _validate_suites(names) -> tuple:
    if not names:
        return SUITE_ORDER
    for name in names:
        if name not in SUITE_ORDER:
            raise ConfigError(f"suite: unknown suite {name!r}; known: {', '.join(SUITE_ORDER)}")
    return tuple(names)


def _run_scenario(mat, suite_names) -> tuple:
    """A scenario's report section, and its timing: its seconds and each suite's."""
    start = time.perf_counter()
    result = run_all_suites(mat, suite_names)
    section = {"scenario": to_config(mat.scenario), "suites": result["suites"], "passed": result["passed"]}
    return section, {"seconds": time.perf_counter() - start, "suites": result["seconds"]}


# (materialized scenario, suite names) per scenario of a fanned-out run.  Forked
# workers inherit them and receive only indices; fork spares each a fresh
# import, and no thread of this package runs when it forks (searches join theirs).
_FANNED: list = []


def _run_fanned(index: int) -> tuple:
    return _run_scenario(*_FANNED[index])


def _build_report(scenarios, suite_names) -> dict:
    t0 = time.perf_counter()
    jobs = [(materialize(s), suite_names) for s in scenarios]  # a ConfigError exits 2 before any fork
    workers = _worker_count(len(jobs)) if hasattr(os, "fork") else 1
    if workers == 1:
        runs = [_run_scenario(*job) for job in jobs]
    else:
        import multiprocessing  # here alone, so a serial run never imports it

        _FANNED[:] = jobs
        try:  # leaving the pool's block terminates and joins every worker
            with multiprocessing.get_context("fork").Pool(workers) as pool:
                runs = pool.map(_run_fanned, range(len(jobs)), chunksize=1)
        finally:
            _FANNED.clear()
    sections = [section for section, _ in runs]
    return {
        "schema": "orliczlab-report/1",
        "versions": {
            "orliczlab": __version__,
            "numpy": np.__version__,
            "python": platform.python_version(),
        },
        "scenarios": sections,
        "passed": all(s["passed"] for s in sections),
        "timing": {
            "total_seconds": time.perf_counter() - t0,
            "workers": workers,
            "scenarios": [timing for _, timing in runs],
        },
    }


def _strict(obj):
    """obj with each non-finite float spelled as the string "NaN", "Infinity" or "-Infinity"."""
    if isinstance(obj, float) and not math.isfinite(obj):
        return "NaN" if math.isnan(obj) else ("Infinity" if obj > 0 else "-Infinity")
    if isinstance(obj, dict):
        return {key: _strict(value) for key, value in obj.items()}
    if isinstance(obj, (list, tuple)):
        return [_strict(value) for value in obj]
    return obj


def _render_table(report: dict) -> str:
    """The checks, scenario by scenario, with each scenario's and each suite's seconds from `timing`."""
    lines = []
    timing = report["timing"]
    for section, seconds in zip(report["scenarios"], timing["scenarios"]):
        name = section["scenario"]["name"]
        status = "PASS" if section["passed"] else "FAIL"
        lines.append(f"scenario {name}: {status} in {seconds['seconds']:.3f} s")
        for suite_name, suite in section["suites"].items():
            lines.append(f"  {suite_name:<18} {seconds['suites'][suite_name]:.3f} s")
            for check in suite["checks"]:
                mark = "PASS" if check["passed"] else "FAIL"
                value = check.get("value")
                bound = check.get("bound")
                val_s = f"{value:.6g}" if isinstance(value, float) else "-"
                bnd_s = f"{bound:.6g}" if isinstance(bound, float) else "-"
                lines.append(
                    f"  {suite_name:<18} {check['name']:<38} {mark:<4} "
                    f"value={val_s:<12} bound={bnd_s}"
                )
    lines.append(
        f"overall: {'PASS' if report['passed'] else 'FAIL'} in {timing['total_seconds']:.3f} s "
        f"on {timing['workers']} worker(s)"
    )
    return "\n".join(lines) + "\n"


def _write_out(path: str | None, write) -> bool:
    """Call write(fh) on the --out file, under ORLICZLAB_OUT_DIR if relative; False if there is none."""
    prefix = os.environ.get("ORLICZLAB_OUT_DIR")
    if prefix and path is not None and not os.path.isabs(path):
        path = os.path.join(prefix, path)
    if not path:
        return False
    try:
        with open(path, "w", encoding="utf-8") as fh:
            write(fh)
    except OSError as exc:
        raise ConfigError(f"out: cannot write {path!r}: {exc.strerror or exc}") from exc
    return True


def _cmd_run(args) -> int:
    scenarios = _load_scenarios(args.config, args.seed)
    suite_names = _validate_suites(args.suite)
    report = _build_report(scenarios, suite_names)
    body = json.dumps(_strict(report), indent=2, sort_keys=True, allow_nan=False) + "\n"
    _write_out(args.out, lambda fh: fh.write(body))
    if args.format == "table":
        sys.stdout.write(_render_table(report))
    else:
        sys.stdout.write(body)
    return 0 if report["passed"] else 1


def _cmd_list_scenarios(_args) -> int:
    for name in BUILTIN_ORDER:
        sys.stdout.write(f"{name}: {builtin_scenario(name).description}\n")
    return 0


def _cmd_export_matrix(args) -> int:
    scenarios = _load_scenarios(args.config)
    if len(scenarios) != 1:
        raise ConfigError(f"config.scenarios: export-matrix takes one scenario, got {len(scenarios)}")
    matrix = materialize(scenarios[0]).operator.matrix
    save = lambda fh: np.savetxt(fh, matrix, delimiter=",", fmt="%.17g")
    if not _write_out(args.out, save):
        save(sys.stdout)
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(
        prog="orliczlab",
        description="Numerical checks for weighted averaging operators on Orlicz spaces",
    )
    sub = parser.add_subparsers(dest="verb", required=True)
    config_help = "path to a JSON scenario config, or a builtin name"

    run_p = sub.add_parser("run", help="run check suites for a scenario")
    run_p.add_argument("--config", required=True, help=config_help)
    run_p.add_argument(
        "--suite",
        action="append",
        metavar="NAME",
        help=f"suite to run (repeatable); default all: {', '.join(SUITE_ORDER)}",
    )
    run_p.add_argument("--out", help="write the JSON report to this path")
    run_p.add_argument("--seed", type=int, help="override the scenario seed")
    run_p.add_argument("--format", choices=("json", "table"), default="json")
    run_p.set_defaults(func=_cmd_run)

    ls_p = sub.add_parser("list-scenarios", help="list builtin scenarios")
    ls_p.set_defaults(func=_cmd_list_scenarios)

    ex_p = sub.add_parser("export-matrix", help="export the operator matrix as CSV")
    ex_p.add_argument("--config", required=True, help=config_help)
    ex_p.add_argument("--out", help="write CSV here instead of stdout")
    ex_p.set_defaults(func=_cmd_export_matrix)

    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except ConfigError as exc:
        sys.stderr.write(f"config error: {exc}\n")
        return 2


if __name__ == "__main__":
    raise SystemExit(main())
