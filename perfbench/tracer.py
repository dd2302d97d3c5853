"""Outside-in tracer: wraps orliczlab's public functions without editing them.

Modules import functions by name (`suites.luxemburg_norm`,
`operators.luxemburg_norm`, `cli.run_all_suites`, ...), so each wrapped
function is replaced at every binding in every loaded orliczlab module.
Spans are aggregated per (span, parent span) instead of being kept one per
call: the hot leaves (`young.evaluate`, `orlicz.modular`, `measure.cond_exp`)
run hundreds of thousands of times.
"""

from __future__ import annotations

import functools
import sys
import time
from collections import defaultdict

import numpy as np

_CLOSED_FORM_INVERSES = ("power", "scaled_power", "conjugate_power")


def _arg(args, kwargs, index: int, name: str):
    return args[index] if len(args) > index else kwargs[name]


def _count_inverse(tracer, args, kwargs):
    if _arg(args, kwargs, 0, "phi").kind not in _CLOSED_FORM_INVERSES:
        tracer.counters["young.inverse.bisect_targets"] += int(np.size(_arg(args, kwargs, 1, "t")))


def _count_search(tracer, args, kwargs):
    budget = args[4] if len(args) > 4 else kwargs.get("budget", 10_000)
    n = _arg(args, kwargs, 0, "space").n_atoms
    tracer.counters["holder.search.samples"] += budget
    tracer.counters["holder.search.bytes_computed"] += budget * n * 8


def _count_build(tracer, args, kwargs):
    n = args[0].space.n_atoms
    tracer.counters["operators.dense_bytes_computed"] += n * n * 8


# (module, attribute, span name, counter).  Functions sharing a span name form
# one layer boundary; a span's inclusive time counts only its outermost call.
TARGETS = (
    ("orliczlab.suites", "run_suite", None, None),  # span "suites.<suite name>"
    ("orliczlab.scenarios", "materialize", "scenarios.materialize", None),
    ("orliczlab.young", "evaluate", "young.evaluate", None),
    ("orliczlab.young", "inverse", "young.inverse", _count_inverse),
    ("orliczlab.young", "conjugate_numeric", "young.conjugate_numeric", None),
    ("orliczlab.young", "check_delta2", "young.certificates", None),
    ("orliczlab.young", "check_delta_prime", "young.certificates", None),
    ("orliczlab.young", "check_nabla_prime", "young.certificates", None),
    ("orliczlab.young", "check_ordering", "young.certificates", None),
    ("orliczlab.young", "check_product_convexity", "young.certificates", None),
    ("orliczlab.young", "young_inequality_check", "young.certificates", None),
    ("orliczlab.measure", "cond_exp", "measure.cond_exp", None),
    ("orliczlab.measure", "jensen_check", "measure.jensen", None),
    ("orliczlab.measure", "generalized_jensen_check", "measure.jensen", None),
    ("orliczlab.orlicz", "luxemburg_norm", "orlicz.luxemburg_norm", None),
    ("orliczlab.orlicz", "modular", "orlicz.modular", None),
    ("orliczlab.holder", "empirical_holder_constant", "holder.search", _count_search),
    ("orliczlab.holder", "normalization_constants", "holder.normalization", None),
    ("orliczlab.operators", "norm_estimate", "operators.norm_estimate", None),
    ("orliczlab.operators", "spectrum", "operators.spectrum", None),
    ("orliczlab.operators", "truncation_gap_check", "operators.truncation_gap", None),
    ("orliczlab.operators", "boundedness_classifier", "operators.classifier", None),
    ("orliczlab.sampling", "signed_log_uniform", "sampling.signed_log_uniform", None),
)

# Calls of the first span made anywhere below the second one.
NESTED = {
    "orlicz.modular": "orlicz.luxemburg_norm",
    "orlicz.luxemburg_norm": "operators.norm_estimate",
}


class Tracer:
    def __init__(self) -> None:
        self.table: dict[tuple[str, str], list] = {}  # (span, parent) -> [calls, incl, self]
        self.counters: dict[str, int] = defaultdict(int)
        self._active: dict[str, int] = defaultdict(int)
        self._stack: list[list] = [["cli", 0.0]]  # [span name, time inside child spans]

    def wrap(self, fn, name, count=None):
        nested = NESTED.get(name)
        stack, active, table = self._stack, self._active, self.table
        perf = time.perf_counter

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            span = name or "suites." + _arg(args, kwargs, 0, "name")
            parent = stack[-1]
            if nested is not None and active[nested]:
                self.counters[span + ".nested"] += 1
            if count is not None:
                count(self, args, kwargs)
            frame = [span, 0.0]
            stack.append(frame)
            active[span] += 1
            start = perf()
            try:
                return fn(*args, **kwargs)
            finally:
                dur = perf() - start
                stack.pop()
                active[span] -= 1
                key = (span, parent[0])
                rec = table.get(key)
                if rec is None:
                    rec = table[key] = [0, 0.0, 0.0]
                rec[0] += 1
                rec[2] += dur - frame[1]
                if not active[span]:
                    rec[1] += dur
                parent[1] += dur

        return wrapper

    def install(self) -> None:
        """Replace each target at every binding in the loaded orliczlab modules."""
        modules = [m for k, m in list(sys.modules.items()) if k.split(".")[0] == "orliczlab"]
        for module_name, attr, name, count in TARGETS:
            original = getattr(sys.modules[module_name], attr)
            wrapped = self.wrap(original, name, count)
            for module in modules:
                for key, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, key, wrapped)
        # Dataclass __init__ looks __post_init__ up on the class at each call.
        from orliczlab.operators import WeightedConditionalExpectation as op_cls

        op_cls.__post_init__ = self.wrap(op_cls.__post_init__, "operators.operator_build", _count_build)

    def dump(self) -> dict:
        return {
            "table": [[s, p, *rec] for (s, p), rec in sorted(self.table.items())],
            "counters": dict(self.counters),
        }
