"""Every builtin scenario through every suite, in process.

Each check's verdict is asserted, and the values no search produces
(predicted spectra, certified constants C0**2 and bounds, level counts and
sups, betas, classifier verdicts and sample counts) are compared against
`builtin_matrix.json`, frozen from a run at the builtin seeds.  Search outputs
(norm estimates, empirical Hölder constants) enter only through verdicts.
Which fields are pinned (`frozen_values`) and which failures are known
(`known_defects`) are the benchmark gate's own definitions, read from
`perfbench/`.

Refreeze, only when a change is meant to alter pinned values:
    PYTHONPATH=src python3 tests/test_builtin_matrix.py
"""

import importlib.util
import json
import math
import pathlib
import sys

import pytest

from orliczlab import suites
from orliczlab.operators import WeightedConditionalExpectation
from orliczlab.scenarios import BUILTIN_ORDER, builtin_scenario, materialize
from orliczlab.suites import SUITE_ORDER, run_suite

FROZEN_PATH = pathlib.Path(__file__).parent / "builtin_matrix.json"
PERFBENCH = pathlib.Path(__file__).resolve().parent.parent / "perfbench"


def _load(name: str, filename: str):
    # Registered before it runs: a dataclass looks its module up in sys.modules.
    spec = importlib.util.spec_from_file_location(name, PERFBENCH / filename)
    module = sys.modules[name] = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


frozen_values = _load("perfbench_run", "run.py").frozen_values
KNOWN_DEFECTS = set(_load("perfbench_workloads", "workloads.py").WORKLOADS["builtin-matrix"].known_defects)


def run_builtin(name: str) -> dict[str, dict]:
    mat = materialize(builtin_scenario(name))
    return {f"{suite}/{check['name']}": check for suite in SUITE_ORDER for check in run_suite(suite, mat)["checks"]}


def same(a, b) -> bool:
    if isinstance(a, bool) or isinstance(b, bool):
        return a is b
    if isinstance(a, (int, float)) and isinstance(b, (int, float)):
        return math.isclose(a, b, rel_tol=1e-12, abs_tol=1e-300)
    if isinstance(a, list) and isinstance(b, list):
        return len(a) == len(b) and all(map(same, a, b))
    if isinstance(a, dict) and isinstance(b, dict):
        return a.keys() == b.keys() and all(same(a[k], b[k]) for k in a)
    return a == b


@pytest.fixture(scope="module")
def frozen():
    return json.loads(FROZEN_PATH.read_text())


def assert_matches_frozen(name: str, frozen: dict) -> None:
    checks = run_builtin(name)
    assert checks.keys() == frozen[name].keys()
    for key, check in checks.items():
        suite, check_name = key.split("/")
        if (name, suite, check_name) not in KNOWN_DEFECTS:
            assert check["passed"], (key, check)
        assert same(frozen_values(check), frozen[name][key]), (key, frozen_values(check), frozen[name][key])


@pytest.mark.parametrize("name", BUILTIN_ORDER)
def test_builtin_through_every_suite(name, frozen, monkeypatch):
    def refuse(_op):
        raise AssertionError("dense matrix read by a suite")

    # No suite builds the dense matrix: the spectrum oracle reads block_rows.
    monkeypatch.setattr(WeightedConditionalExpectation, "matrix", property(refuse))
    assert_matches_frozen(name, frozen)


def test_a_bound_moved_by_1e_10_fails(frozen, monkeypatch):
    # The certified norm bound is pinned to 1e-12: a move far inside every
    # check's tolerance still fails against the frozen value.
    true_bound = suites.norm_upper_bound
    monkeypatch.setattr(suites, "norm_upper_bound", lambda *args: true_bound(*args) * (1 + 1e-10))
    with pytest.raises(AssertionError, match="norm_sandwich"):
        assert_matches_frozen("spectrum-demo", frozen)


if __name__ == "__main__":
    table = {
        name: {key: frozen_values(check) for key, check in run_builtin(name).items()}
        for name in BUILTIN_ORDER
    }
    FROZEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
