"""orliczlab benchmark: the CLI `run` verb on fixed workloads, end to end and per layer.

Usage (from the repository root):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is one of builtin-matrix, symmetric-sweep, exp-pair, or `all`.  The
benchmark is a closed loop with one client: it writes the workload's config
from the seed, then runs `orliczlab run` on it in a fresh child interpreter,
one invocation at a time, for about S seconds and at least twice.  Every
report goes through the correctness gate: the set of checks, their verdicts
and the values no search produces must match `expected/<workload>.json`,
frozen at seed 0 by freeze.py.

With --trace 0 it prints the end-to-end metrics of BENCHMARK.json; with
--trace 1 it alternates plain and traced invocations and prints the per-layer
metrics.  Human-readable lines go to stderr; the last stdout line is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"
# Set-up probes run in every gap between invocations (before the first, between
# each pair, after the last), so their median spans the whole run rather than
# a few seconds of it: the shared machine's speed shifts within seconds.
PROBES_PER_GAP = 3
# A run makes at least this many invocations, so its median never rests on one.
MIN_INVOCATIONS = 2
# A workload's run must end within 180 s: no invocation starts once the
# longest one so far would end past RUN_LIMIT_S, and a child still running at
# KILL_AT_S dies.  Both count from the start of the workload.
RUN_LIMIT_S = 150.0
KILL_AT_S = 170.0

# Report fields no search produces: structure, certified constants, verdicts
# and sample counts.  Search outputs are gated only through their verdicts.
FROZEN_FIELDS = (
    "predicted", "constant", "counts", "expected", "verdict", "level_sups",
    "level_counts", "eps_grid", "flags", "betas", "beta", "samples", "cases",
    "certificate_present", "expected_present",
)
# Checks whose `bound` is certified in advance rather than found by search.
FROZEN_BOUNDS = (
    "ratio_within_domination_constant", "homogeneous_pair_unit_constant",
    "norm_nonexpansive", "normalized_average_first_factor",
    "normalized_average_second_factor", "norm_sandwich", "gap_within_scaled_threshold",
)
FROZEN_RTOL = 1e-8


@dataclass
class Invocation:
    traced: bool
    ok: bool = False
    wall_s: float = math.nan
    rss_mb: float = math.nan
    checks_passed: int = 0
    trace: dict | None = None
    errors: list[str] = field(default_factory=list)


def _child_env() -> dict:
    paths = [str(SRC), os.environ.get("PYTHONPATH", "")]
    return dict(os.environ, PYTHONPATH=os.pathsep.join(p for p in paths if p))


def _spawn(result: Path, args: list[str], log: Path, kill_at: float) -> tuple[float, int | None]:
    """Run child.py; return its spawn time and exit code (None if killed at kill_at)."""
    result.unlink(missing_ok=True)
    spawned = time.monotonic()
    timeout = max(1.0, kill_at - spawned)
    with open(log, "ab") as err:
        try:
            proc = subprocess.run(
                [sys.executable, str(HERE / "child.py"), str(result), *args],
                cwd=ROOT, env=_child_env(), stdout=subprocess.DEVNULL, stderr=err,
                timeout=timeout,
            )
        except subprocess.TimeoutExpired:  # run() has killed and reaped the child
            return spawned, None
    return spawned, proc.returncode


def setup_probe(name: str, kill_at: float) -> float:
    """Seconds from spawning a child interpreter to `import orliczlab.cli` done."""
    result = OUT / f"{name}-probe.json"
    spawned, code = _spawn(result, [], OUT / f"{name}-stderr.log", kill_at)
    if code != 0:
        raise SystemExit(f"set-up probe exited with {code}; see {OUT / f'{name}-stderr.log'}")
    return json.loads(result.read_text())["imported"] - spawned


def frozen_values(check: dict) -> dict:
    keep = {k: check[k] for k in FROZEN_FIELDS if k in check}
    if check["name"] in FROZEN_BOUNDS and "bound" in check:
        keep["bound"] = check["bound"]
    return keep


def _same(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool) or isinstance(a, str):
        return a == b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=FROZEN_RTOL, abs_tol=1e-300)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(_same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(_same(a[k], b[k]) for k in a)
    return a == b


def report_checks(report: dict) -> dict[str, dict]:
    return {
        f"{sec['scenario']['name']}/{suite}/{check['name']}": check
        for sec in report["scenarios"]
        for suite, result in sec["suites"].items()
        for check in result["checks"]
    }


def gate(report: dict, workload, frozen: dict[str, dict]) -> tuple[int, list[str]]:
    """Passed-check count and the ways `report` departs from the frozen one."""
    checks = report_checks(report)
    errors = []
    if checks.keys() != frozen.keys():
        missing = sorted(frozen.keys() - checks.keys())
        extra = sorted(checks.keys() - frozen.keys())
        errors.append(f"check set differs: missing {missing}, extra {extra}")
    allowed = {"/".join(k) for k in workload.known_defects}
    for key, check in checks.items():
        if not check["passed"] and key not in allowed:
            errors.append(f"{key} failed")
        if key in frozen and not _same(frozen_values(check), frozen[key]):
            errors.append(f"{key}: frozen values differ: {frozen_values(check)} != {frozen[key]}")
    return sum(c["passed"] for c in checks.values()), errors


def invoke(workload, config: Path, frozen: dict | None, traced: bool, kill_at: float) -> Invocation:
    name = workload.name
    result, report = OUT / f"{name}-result.json", OUT / f"{name}-report.json"
    report.unlink(missing_ok=True)
    args = [str(config), str(report), "1" if traced else "0"]
    _, code = _spawn(result, args, OUT / f"{name}-stderr.log", kill_at)
    inv = Invocation(traced)
    if code != 0 or not report.exists():
        inv.errors.append(f"child exited with {code} and no report")
        return inv
    out = json.loads(result.read_text())
    rep = json.loads(report.read_text())
    inv.wall_s, inv.rss_mb, inv.trace = out["wall_s"], out["maxrss_kb"] / 1024.0, out.get("trace")
    if out["exit"] != (0 if rep["passed"] else 1):
        inv.errors.append(f"`run` exited with {out['exit']} but the report has passed={rep['passed']}")
    if frozen is not None:
        inv.checks_passed, errors = gate(rep, workload, frozen)
        inv.errors += errors
    inv.ok = not inv.errors
    return inv


def layer_metrics(trace: dict, wall: float) -> dict[str, float]:
    from orliczlab.suites import SUITE_ORDER

    calls, incl, self_ = defaultdict(int), defaultdict(float), defaultdict(float)
    for span, _parent, n, inclusive, own in trace["table"]:
        calls[span] += n
        incl[span] += inclusive
        self_[span] += own
    counters = defaultdict(int, trace["counters"])
    m = {f"suites.{s}.s": incl[f"suites.{s}"] for s in SUITE_ORDER}
    covered = sum(m.values()) + incl["scenarios.materialize"]
    lux, est = "orlicz.luxemburg_norm", "operators.norm_estimate"
    m.update({
        "scenarios.materialize.calls": calls["scenarios.materialize"],
        "scenarios.materialize.s": incl["scenarios.materialize"],
        "young.evaluate.calls": calls["young.evaluate"],
        "young.evaluate.self_s": self_["young.evaluate"],
        "young.inverse.calls": calls["young.inverse"],
        "young.inverse.s": incl["young.inverse"],
        "young.inverse.self_s": self_["young.inverse"],
        "young.inverse.bisect_targets": counters["young.inverse.bisect_targets"],
        "young.conjugate_numeric.calls": calls["young.conjugate_numeric"],
        "young.conjugate_numeric.s": incl["young.conjugate_numeric"],
        "young.certificates.s": incl["young.certificates"],
        "measure.cond_exp.calls": calls["measure.cond_exp"],
        "measure.cond_exp.self_s": self_["measure.cond_exp"],
        "measure.jensen.s": incl["measure.jensen"],
        "orlicz.luxemburg_norm.calls": calls[lux],
        "orlicz.luxemburg_norm.s": incl[lux],
        "orlicz.modular.calls": calls["orlicz.modular"],
        "orlicz.modular.self_s": self_["orlicz.modular"],
        "orlicz.modular_per_norm": counters["orlicz.modular.nested"] / max(calls[lux], 1),
        "holder.search.calls": calls["holder.search"],
        "holder.search.s": incl["holder.search"],
        "holder.search.samples": counters["holder.search.samples"],
        "holder.search.bytes_computed": counters["holder.search.bytes_computed"],
        "holder.normalization.s": incl["holder.normalization"],
        "operators.norm_estimate.calls": calls[est],
        "operators.norm_estimate.s": incl[est],
        "operators.norm_estimate.norms_per_call": counters[lux + ".nested"] / max(calls[est], 1),
        "operators.operator_builds": calls["operators.operator_build"],
        "operators.operator_build.s": incl["operators.operator_build"],
        "operators.dense_bytes_computed": counters["operators.dense_bytes_computed"],
        "operators.spectrum.s": incl["operators.spectrum"],
        "operators.truncation_gap.s": incl["operators.truncation_gap"],
        "operators.classifier.calls": calls["operators.classifier"],
        "sampling.signed_log_uniform.calls": calls["sampling.signed_log_uniform"],
        "sampling.signed_log_uniform.self_s": self_["sampling.signed_log_uniform"],
        "cli.other_s": wall - covered,
        "trace.wall_s": wall,
        "trace.coverage": covered / wall,
        "orlicz.luxemburg_norm.share": incl[lux] / wall,
        "holder.search.share": incl["holder.search"] / wall,
        "young.inverse.share": incl["young.inverse"] / wall,
    })
    return m


# Layer that each workload was chosen to stress; the trace confirms it.
DOMINANT = {
    "builtin-matrix": "orlicz.luxemburg_norm",
    "symmetric-sweep": "holder.search",
    "exp-pair": "young.inverse",
}


def _counts(m: dict) -> dict:
    return {k: v for k, v in m.items() if isinstance(v, int)}


def run_workload(workload, seed: int, seconds: int, trace: bool) -> tuple[dict, int, int, bool]:
    from workloads import config as make_config

    began = time.monotonic()
    kill_at = began + KILL_AT_S
    config = OUT / f"{workload.name}-seed{seed}.json"
    config.write_text(json.dumps(make_config(workload.name, seed), indent=1) + "\n")
    frozen_path = HERE / "expected" / f"{workload.name}.json"
    frozen = json.loads(frozen_path.read_text())

    # A traced run reports no setup_s, so it makes no probes.
    probes: list[float] = []

    def probe_gap() -> None:
        if not trace:
            probes.extend(setup_probe(workload.name, kill_at) for _ in range(PROBES_PER_GAP))

    # A traced run steps by pairs (plain, traced), a plain run by invocations.
    # Past MIN_INVOCATIONS, another step starts only if the run then ends
    # nearer to `seconds` than it would without it, so a run lasts about
    # `seconds` however fast the shared machine is at the time.
    per_step = 2 if trace else 1
    start = time.monotonic()
    invocations: list[Invocation] = []
    cycles: list[float] = []
    while True:
        t0 = time.monotonic()
        probe_gap()
        inv = invoke(workload, config, frozen, trace and len(invocations) % 2 == 1, kill_at)
        invocations.append(inv)
        for err in inv.errors:
            print(f"{workload.name}: {err}", file=sys.stderr)
        cycles.append(time.monotonic() - t0)
        if len(invocations) % per_step:
            continue
        now = time.monotonic()
        step = per_step * statistics.median(cycles)
        if now - began + per_step * max(cycles) > RUN_LIMIT_S:
            break
        if len(invocations) >= MIN_INVOCATIONS and now - start + step / 2 > seconds:
            break
    probe_gap()

    # A report that fails the gate still times the run; the gate sets `correct`.
    timed = [i for i in invocations if not math.isnan(i.wall_s)]
    plain = [i for i in timed if not i.traced]
    traced = [i for i in timed if i.traced]
    if not plain or (trace and not traced):
        raise SystemExit(f"{workload.name}: no invocation produced a report")
    correct = all(i.ok for i in invocations)

    expected_checks = len(frozen) * len(invocations)
    passed_checks = sum(i.checks_passed for i in invocations)
    wall = statistics.median(i.wall_s for i in plain)
    setup = statistics.median(probes) if probes else math.nan
    metrics = {
        "wall_s": wall,
        "setup_s": setup,
        "peak_rss_mb": statistics.median(i.rss_mb for i in plain),
        "check_pass_ratio": passed_checks / expected_checks,
    }
    setup_note = f"setup_s {setup:.4f} s ({len(probes)} probes)" if probes else "setup_s not probed"
    print(
        f"{workload.name}: wall_s {wall:.3f} s | {setup_note} | "
        f"peak_rss_mb {metrics['peak_rss_mb']:.1f} MB | check_pass_ratio "
        f"{metrics['check_pass_ratio']:.4f} ({expected_checks - passed_checks} of "
        f"{expected_checks} checks failed) | plain invocations "
        f"{', '.join(f'{i.wall_s:.2f}' for i in plain)} s",
        file=sys.stderr,
    )
    if trace and traced:
        per_run = [layer_metrics(i.trace, i.wall_s) for i in traced]
        if any(_counts(m) != _counts(per_run[0]) for m in per_run):
            print(f"{workload.name}: counters differ between traced invocations", file=sys.stderr)
            correct = False
        metrics = {k: statistics.median(m[k] for m in per_run) for k in per_run[0]}
        metrics.update(_counts(per_run[0]))
        metrics["trace.overhead_s"] = metrics["trace.wall_s"] - wall
        metrics["trace.overhead_ratio"] = metrics["trace.overhead_s"] / wall
        dominant = DOMINANT[workload.name]
        share = metrics[f"{dominant}.share"]
        print(
            f"{workload.name}: {len(traced)} traced invocations, tracing overhead "
            f"{metrics['trace.overhead_ratio']:+.1%}, suites+materialize cover "
            f"{metrics['trace.coverage']:.1%}; {dominant} takes {share:.1%} of traced wall "
            f"({'meets' if share >= 0.5 else 'MISSES'} the >= 50% design)",
            file=sys.stderr,
        )
        (OUT / f"{workload.name}-trace.json").write_text(
            json.dumps({"metrics": metrics, "trace": traced[-1].trace}, indent=1) + "\n"
        )
    failed = sum(not i.ok for i in invocations)
    return metrics, len(invocations), failed, correct


def _openblas_threads() -> int | None:
    import ctypes
    import glob

    import numpy as np

    libs = glob.glob(os.path.join(os.path.dirname(np.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        try:
            return ctypes.CDLL(path).scipy_openblas_get_num_threads64_()
        except (OSError, AttributeError):
            continue
    return None


def provenance() -> str:
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"].get("blas", {})
    mem_gb = os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES") / 2**30
    return (
        f"machine: {len(os.sched_getaffinity(0))} cpus, {mem_gb:.1f} GiB, shared and unpinned; "
        f"python {platform.python_version()}, numpy {np.__version__}, "
        f"{blas.get('name', '?')} {blas.get('version', '?')} with {_openblas_threads()} threads"
    )


def main(argv=None) -> int:
    if not (SRC / "orliczlab").is_dir():
        print(f"no orliczlab source tree at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    # Turn SIGTERM into SystemExit so subprocess.run kills and reaps the child.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=int, default=30)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0:
        parser.error("--seed must be nonnegative")

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = spec["per_layer" if args.trace else "end_to_end"]
    OUT.mkdir(exist_ok=True)
    print(provenance(), file=sys.stderr)

    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    out = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in names:
        metrics, attempted, failed, correct = run_workload(
            WORKLOADS[name], args.seed, args.seconds, bool(args.trace)
        )
        if set(metrics) != {d["name"] for d in declared}:
            raise SystemExit(f"metrics {sorted(metrics)} differ from BENCHMARK.json")
        prefix = f"{name}." if len(names) > 1 else ""
        for d in declared:
            out["metrics"][prefix + d["name"]] = {"value": metrics[d["name"]], "unit": d["unit"]}
        out["correct"] = out["correct"] and correct
        out["attempted"] += attempted
        out["failed"] += failed
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
