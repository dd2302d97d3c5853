"""Every verdict can be re-judged from its own record.

`rejudge` of tools/compare_reports.py restates each rule of the suites' verdict
table from the report format alone, sharing no code with orliczlab.  The
property re-judges every check of every builtin report and of UNEQUAL_BLOCKS,
and judges one record on each side of every rule's edge through both.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from orliczlab import measure, suites
from orliczlab.scenarios import BUILTIN_ORDER, builtin_scenario, from_config, materialize
from orliczlab.suites import SUITE_ORDER, run_suite

from test_builtin_matrix import KNOWN_DEFECTS

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"
spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
tool = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tool)
rejudge = tool.rejudge

# (rule, fields, verdict): a record just inside and one just outside each rule,
# the outside one within twice the rule's slack, and records that a non-finite
# number fails whatever the comparison says.
EDGES = [
    ("at_most_tolerance", {"value": 0.5e-9, "tolerance": 1e-9}, True),
    ("at_most_tolerance", {"value": 1.5e-9, "tolerance": 1e-9}, False),
    ("at_most_tolerance", {"value": math.nan, "tolerance": 1e300}, False),
    ("at_most_bound", {"value": 2.0 * (1.0 + 0.5e-6), "bound": 2.0, "tolerance": 1e-6}, True),
    ("at_most_bound", {"value": 2.0 * (1.0 + 1.5e-6), "bound": 2.0, "tolerance": 1e-6}, False),
    ("at_most_bound", {"value": math.inf, "bound": math.inf, "tolerance": 1e-6}, False),
    ("near_bound", {"value": 4.0 - 2e-9, "bound": 4.0, "tolerance": 1e-9}, True),
    ("near_bound", {"value": 4.0 + 6e-9, "bound": 4.0, "tolerance": 1e-9}, False),
    ("near_bound_absolute", {"value": 3.0 - 0.5e-6, "bound": 3.0, "tolerance": 1e-6}, True),
    ("near_bound_absolute", {"value": 3.0 + 1.5e-6, "bound": 3.0, "tolerance": 1e-6}, False),
    ("near_bound_absolute", {"value": 3.0, "bound": 3.0, "tolerance": math.inf}, False),
    *(
        ("members_at_most_bound", {"tolerance": 1e-6, "members": [{"gap_lower_bound": 0.5, "bound": 1.0}, row]}, verdict)
        for row, verdict in (
            ({"gap_lower_bound": 1.0 + 0.5e-6, "bound": 1.0}, True),
            ({"gap_lower_bound": 1.0 + 1.5e-6, "bound": 1.0}, False),
            ({"gap_lower_bound": 0.5, "bound": math.nan, "beta": math.nan}, False),
        )
    ),
    ("non_increasing", {"counts": [3, 3, 1, 0]}, True),
    ("non_increasing", {"counts": [3, 4, 1, 0]}, False),
    ("matches_expected", {"verdict": True, "expected": True}, True),
    ("matches_expected", {"verdict": None, "expected": False}, False),
    ("certificate_as_expected", {"value": 4.0, "certificate_present": True, "expected_present": True}, True),
    ("certificate_as_expected", {"certificate_present": False, "expected_present": True}, False),
    ("betas_vanish", {"betas": [1.0, 1.005, 0.45]}, True),
    ("betas_vanish", {"betas": [1.0, 1.015, 0.45]}, False),
    ("betas_vanish", {"betas": [1.0, 0.9, 0.55]}, False),
    ("betas_stabilize", {"betas": [2.0, 2.01, 1.99]}, True),
    ("betas_stabilize", {"betas": [2.0, 2.03, 2.0]}, False),
    ("betas_stabilize", {"betas": [2.0, math.nan]}, False),
    ("raised", {"error": "out of budget"}, False),
]

UNEQUAL_BLOCKS = {**tool.UNEQUAL_BLOCKS, "seed": 0}


def report_checks(names=None) -> dict[str, dict]:
    """scenario/suite/check -> record, for every builtin and UNEQUAL_BLOCKS through the named suites."""
    scenarios = [builtin_scenario(name) for name in BUILTIN_ORDER] + [from_config(UNEQUAL_BLOCKS)]
    return {
        f"{scenario.name}/{suite}/{check['name']}": check
        for scenario, mat in zip(scenarios, map(materialize, scenarios))
        for suite in names or SUITE_ORDER
        for check in run_suite(suite, mat)["checks"]
    }


def assert_rejudged(checks: dict[str, dict]) -> None:
    """The property: each record's `passed` is what rejudge() gives, and every
    check passes (bar the builtin matrix's known defects); and on each
    side of every rule's edge, the suites' table and rejudge() agree."""
    for key, check in checks.items():
        assert rejudge(check) is check["passed"], (key, check)
        if tuple(key.split("/")) not in KNOWN_DEFECTS:
            assert check["passed"], (key, check)
    assert {rule for rule, _, _ in EDGES} == set(suites._RULES)
    for rule, fields, verdict in EDGES:
        record = suites._check("edge", rule, **fields)
        assert record["passed"] is verdict, (rule, fields)
        assert rejudge(record) is verdict, (rule, fields)


@pytest.fixture(scope="module")
def checks():
    return report_checks()


def test_every_verdict_is_rejudged_from_its_record(checks):
    assert_rejudged(checks)


def test_a_doubled_slack_fails_the_property(checks, monkeypatch):
    reads, _ = suites._RULES["at_most_bound"]
    doubled = lambda c: c["value"] <= c["bound"] * (1.0 + 2.0 * c["tolerance"])
    monkeypatch.setitem(suites._RULES, "at_most_bound", (reads, doubled))
    with pytest.raises(AssertionError):
        assert_rejudged({**checks, **report_checks(["gcthi"])})


def test_a_jensen_margin_without_its_row_scale_fails_the_property(monkeypatch):
    def unscaled(gap, rhs):
        worst = float(np.max(gap))
        return {"max_violation": worst, "margin": worst}

    monkeypatch.setattr(measure, "_gap_report", unscaled)
    with pytest.raises(AssertionError):
        assert_rejudged(report_checks(["jensen"]))
