"""Command-line interface: run suites, list builtin scenarios, export operator matrices.

Verbs:
  run             execute check suites for a scenario config (or builtin name)
  list-scenarios  one line per builtin scenario
  export-matrix   write the operator matrix as CSV for external cross-checks

A `run` materializes every scenario first, so a config error exits 2 before any suite
runs.  Each (scenario, suite, part) is one task: gcthi's parts are its searches, and every
other suite is one part.  W = min(CPUs, 2, tasks) forked workers take them from one pipe,
the searches first and the largest first, and the parent, which only coordinates, judges
each suite from its parts' values in config order; with W = 1 they run in process, in the
same order.  The timing block holds total_seconds, workers (W) and, per scenario, each
suite's seconds (the sum of its parts') and their sum.

Exit codes: 0 all checks passed, 1 at least one check failed, 2 config error.
Reports are deterministic for a fixed config and seed, except the timing block,
and strict JSON: a non-finite float is written as "NaN", "Infinity" or "-Infinity".
OPENBLAS_NUM_THREADS is set to 1 when the caller leaves it unset.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import math
import os
import pickle
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
from .scenarios import BUILTIN_ORDER, as_seed, builtin_scenario, from_config, materialize, to_config
from .suites import SUITE_ORDER, judge, part_samples, run_part

__all__ = ["main"]

# Most tasks a `run` runs in parallel (_build_report); only 2 CPUs have been measured.
_MAX_WORKERS = 2


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


def _worker_count(tasks: int) -> int:
    """Workers for `tasks` run tasks: min(CPUs this process may run on, _MAX_WORKERS, tasks)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, _MAX_WORKERS, tasks)


def _tasks(mats, suite_names) -> list:
    """The (mat, suite, part index, samples x atoms) tasks in config order: scenario, suite, part."""
    return [(mat, suite, k, samples * mat.operator.n_atoms) for mat in mats for suite in suite_names
            for k, samples in enumerate(part_samples(suite, mat))]


def _run_task(task) -> tuple:
    """One (scenario, suite, part) task: the part's value (an error it returns too) and its seconds."""
    mat, suite, k, _ = task
    start = time.perf_counter()
    return run_part(suite, mat, k), time.perf_counter() - start


def _task_order(tasks) -> list:
    """Indices of the config-order tasks in the order workers take them: the searches first, the
    largest samples x atoms first, then every other part; ties in config order."""
    return sorted(range(len(tasks)), key=lambda i: -tasks[i][3])


def _serve(tasks, task_r, result_w):
    """A forked worker's whole life: run the tasks whose 4-byte indices it reads from task_r
    until EOF, write the pickled [(index, result), ...] to result_w, or the exception at the
    first error, and end the process.  It never returns to its caller."""
    try:
        try:
            done = []
            while record := task_r.read(4):
                index = int.from_bytes(record, "little")
                done.append((index, _run_task(tasks[index])))
            payload = pickle.dumps(done)
        except BaseException as exc:  # raised again in the parent; its repr if it does not round-trip
            try:
                pickle.loads(payload := pickle.dumps(exc))
            except Exception:
                payload = pickle.dumps(RuntimeError(repr(exc)))
        with result_w:
            result_w.write(payload)
        os._exit(0)
    finally:
        os._exit(1)


def _fan_out(tasks, order, workers: int) -> dict:
    """task index -> _run_task's result, from `workers` forked workers that take the indices of `order`
    from one pipe and send their results back through one pipe each; all are reaped before this ends."""
    ends = []  # every pipe end opened here, all closed on the way out

    def pipe():  # the read end unbuffered, so that a worker reads no task but its own
        r, w = os.pipe()
        ends.extend((os.fdopen(r, "rb", buffering=0), os.fdopen(w, "wb")))
        return ends[-2:]

    task_r, task_w = pipe()
    children = {}  # pid -> the read end of its result pipe, until the pid is reaped
    try:
        for _ in range(workers):
            result_r, result_w = pipe()
            if (pid := os.fork()) == 0:  # safe: src/ starts no thread
                task_w.close()  # else the task pipe never reads EOF
                _serve(tasks, task_r, result_w)
            result_w.close()
            children[pid] = result_r
        task_r.close()
        # Every worker exists now, so no task count can fill the pipe before a reader does.  A
        # broken pipe means every worker stopped early, and its result says why.
        with contextlib.suppress(BrokenPipeError), task_w:
            task_w.write(b"".join(index.to_bytes(4, "little") for index in order))
        results = {}
        for pid in list(children):
            payload = children[pid].read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status or not payload:
                raise RuntimeError(f"a run worker ended with exit status {status} and no result")
            if isinstance(value := pickle.loads(payload), BaseException):
                raise value
            results.update(value)
        return results
    finally:
        for end in ends:
            end.close()
        if children:
            import signal  # here alone: only a failed run needs it

            for pid in children:
                os.kill(pid, signal.SIGTERM)
                os.waitpid(pid, 0)


def _build_report(scenarios, suite_names) -> dict:
    t0 = time.perf_counter()
    mats = [materialize(s) for s in scenarios]  # a ConfigError exits 2 before any fork
    tasks = _tasks(mats, suite_names)
    order = _task_order(tasks)
    workers = _worker_count(len(tasks)) if hasattr(os, "fork") else 1
    results = {i: _run_task(tasks[i]) for i in order} if workers == 1 else _fan_out(tasks, order, workers)
    parts = {}  # (id(mat), suite) -> the (value, seconds) of each of its parts, in part order
    for i, (mat, suite, _, _) in enumerate(tasks):
        parts.setdefault((id(mat), suite), []).append(results[i])
    sections, timings = [], []
    for mat in mats:
        suites = {suite: judge(suite, mat, [v for v, _ in parts[id(mat), suite]]) for suite in suite_names}
        seconds = {suite: sum(s for _, s in parts[id(mat), suite]) for suite in suite_names}
        passed = all(record["passed"] for record in suites.values())
        sections.append({"scenario": to_config(mat.scenario), "suites": suites, "passed": passed})
        timings.append({"seconds": sum(seconds.values()), "suites": seconds})
    return {
        "schema": "orliczlab-report/1",
        "versions": {"orliczlab": __version__, "numpy": np.__version__, "python": platform.python_version()},
        "scenarios": sections,
        "passed": all(s["passed"] for s in sections),
        "timing": {"total_seconds": time.perf_counter() - t0, "workers": workers, "scenarios": timings},
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
    """The checks, scenario by scenario, each with its value, bound, rule and tolerance, and each
    scenario's and each suite's seconds from `timing`."""
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
                val_s, bnd_s, tol_s = (
                    f"{x:.6g}" if isinstance(x, float) else "-"
                    for x in (check.get(key) for key in ("value", "bound", "tolerance"))
                )
                lines.append(
                    f"  {suite_name:<18} {check['name']:<38} {mark:<4} value={val_s:<12} "
                    f"bound={bnd_s:<12} rule={check.get('rule', '-')} tolerance={tol_s}"
                )
    lines.append(
        f"overall: {'PASS' if report['passed'] else 'FAIL'} in {timing['total_seconds']:.3f} s "
        f"on {timing['workers']} worker(s)"
    )
    return "\n".join(lines) + "\n"


def _write_out(path: str | None, write) -> bool:
    """Call write(fh) on the --out file; False if there is none."""
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
