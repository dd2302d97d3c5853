"""Every builtin scenario through every suite, in process.

Each check's verdict is asserted, and the values no search produces
(predicted spectra, certified constants C0**2, level counts and sups, betas,
classifier verdicts and sample counts) are compared against
`builtin_matrix.json`, frozen from a run at the builtin seeds.  Search outputs
(norm estimates, empirical Hölder constants) enter only through verdicts.

Refreeze, only when a change is meant to alter pinned values:
    PYTHONPATH=src python3 tests/test_builtin_matrix.py
"""

import json
import math
import pathlib

import pytest

from orliczlab.operators import WeightedConditionalExpectation
from orliczlab.scenarios import BUILTIN_ORDER, builtin_scenario, materialize
from orliczlab.suites import SUITE_ORDER, run_suite

FROZEN_PATH = pathlib.Path(__file__).parent / "builtin_matrix.json"
PINNED = (
    "predicted", "constant", "counts", "level_counts", "level_sups", "eps_grid",
    "betas", "beta", "verdict", "expected", "flags", "samples", "cases",
    "certificate_present", "expected_present",
)
# Checks whose bound is certified in advance (C0**2, 1, or f(C0)), not searched.
PINNED_BOUNDS = (
    "ratio_within_domination_constant", "homogeneous_pair_unit_constant",
    "norm_nonexpansive", "normalized_average_first_factor",
    "normalized_average_second_factor",
)
# A program defect kept as it stands: with exp_type, an overflowing block
# average makes phi(E|f|) - E(phi f) NaN, so this check fails, with value NaN,
# at some seeds (it passes at the builtin seed).
ALLOWED_FAILURES = {("example-1.6b", "jensen", "convexity_inequality")}


def run_builtin(name: str) -> dict[str, dict]:
    mat = materialize(builtin_scenario(name))
    return {f"{suite}/{check['name']}": check for suite in SUITE_ORDER for check in run_suite(suite, mat)["checks"]}


def pinned(check: dict) -> dict:
    keep = {k: check[k] for k in PINNED if k in check}
    if check["name"] in PINNED_BOUNDS:
        keep["bound"] = check["bound"]
    return keep


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


@pytest.mark.parametrize("name", BUILTIN_ORDER)
def test_builtin_through_every_suite(name, frozen, monkeypatch):
    def refuse(_op):
        raise AssertionError("dense matrix read by a suite")

    # No suite builds the dense matrix: the spectrum oracle reads block_rows.
    monkeypatch.setattr(WeightedConditionalExpectation, "matrix", property(refuse))
    checks = run_builtin(name)
    assert checks.keys() == frozen[name].keys()
    for key, check in checks.items():
        suite, check_name = key.split("/")
        if (name, suite, check_name) not in ALLOWED_FAILURES:
            assert check["passed"], (key, check)
        assert same(pinned(check), frozen[name][key]), (key, pinned(check), frozen[name][key])


if __name__ == "__main__":
    table = {
        name: {key: pinned(check) for key, check in run_builtin(name).items()}
        for name in BUILTIN_ORDER
    }
    FROZEN_PATH.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
