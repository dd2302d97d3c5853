"""tools/compare_reports.py must name every value that moves between two reports."""

import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "compare_reports.py"
spec = importlib.util.spec_from_file_location("compare_reports", TOOL)
compare_reports = importlib.util.module_from_spec(spec)
spec.loader.exec_module(compare_reports)


def report(value, passed=True, **extra):
    """A one-check report in the shape `orliczlab run` writes."""
    check = {"name": "inversion_residuals", "passed": passed, "value": value, **extra}
    return {"scenarios": [{"name": "s", "suites": {"resolvent": {"checks": [check]}}}]}


PATH = "scenarios[s].suites.resolvent.checks[inversion_residuals]"


def what_moved(old, new):
    return compare_reports._what_moved(old, new)


def test_equal_reports_move_nothing():
    assert what_moved(report(0.5), report(0.5)) == "0 checks flipped; no number moved"


def test_a_flipped_check_is_counted():
    assert what_moved(report(0.5), report(0.5, passed=False)) == "1 checks flipped; no number moved"


def test_the_largest_relative_move_is_named():
    old = report(2.0, bound=100.0)
    new = report(2.5, bound=110.0)
    assert what_moved(old, new) == f"0 checks flipped; largest move 0.25 at {PATH}.value"


def test_a_number_turning_nonfinite_and_back_is_named():
    to_nan = what_moved(report(0.0), report("NaN", passed=False, nonfinite=True))
    assert to_nan == f"1 checks flipped; non-finite change at {PATH}.value (0.0 -> NaN); added: nonfinite ×1"
    back = what_moved(report("NaN"), report(1.5))
    assert back == f"0 checks flipped; non-finite change at {PATH}.value (NaN -> 1.5)"
    signs = what_moved(report("Infinity"), report("-Infinity"))
    assert signs == f"0 checks flipped; non-finite change at {PATH}.value (Infinity -> -Infinity)"
    assert what_moved(report("NaN"), report("NaN")) == "0 checks flipped; no number moved"


def test_a_dropped_and_an_added_key_are_named_with_their_counts():
    old = report(1.0, lower_str="1.0")
    new = report(1.0, cases=20)
    assert what_moved(old, new) == "0 checks flipped; no number moved; dropped: lower_str ×1; added: cases ×1"


def test_a_check_whose_passed_disagrees_with_its_rule_is_misjudged():
    def run_report(passed, **extra):
        check = {"name": "inversion_residuals", "rule": "at_most_tolerance", "passed": passed, **extra}
        return {"scenarios": [{"scenario": {"name": "s"}, "suites": {"resolvent": {"checks": [check]}}}]}

    misjudged = compare_reports._misjudged
    assert list(misjudged(run_report(True, value=1e-10, tolerance=1e-9))) == []
    assert list(misjudged(run_report(True, value=2e-9, tolerance=1e-9))) == [("s/resolvent/inversion_residuals", True)]
    assert list(misjudged(run_report(True, value="NaN", tolerance=1.0))) == [("s/resolvent/inversion_residuals", True)]
    assert list(misjudged(run_report(False, value="NaN", tolerance=1.0, nonfinite=True))) == []
    assert list(misjudged(report(0.5))) == []  # a check without a rule, as in an older report
