"""The ledger of known defects: one entry per open defect, each asserting what
the mathematics says and marked xfail(strict=True).

An entry's id names where the defect is written up: a ROADMAP item ("item1-")
or a FOUND line of CHANGES.md.  A fix turns its entry into an XPASS, which
fails the suite until the mark comes off; removing a mark is a test change
to record in CHANGES.md with the fixing commit.  `pytest -rxX` lists every
entry under its id.
"""

import importlib.util
import math
from pathlib import Path

import numpy as np
import pytest

from orliczlab import holder, measure
from orliczlab.errors import BracketFailure
from orliczlab.operators import multiplier_levels
from orliczlab.scenarios import from_config, materialize
from orliczlab.suites import run_suite
from orliczlab.young import (
    check_delta2,
    conjugate_closed_form,
    conjugate_numeric,
    evaluate,
    exp_type,
    log_type,
    power,
    scaled_power,
)

TOOLS = Path(__file__).resolve().parent.parent / "tools"
# Reference values recorded from mpmath, which the tests do not need, rounded to
# the nearest double: expm1(1e-9) - 1e-9 at 50 digits (x**2/2 + x**3/6 to the
# same double), and sqrt(mean u**2) for u = [1e200, 1, 2, 3] at 30 digits.
EXP_TYPE_AT_1E_9 = 5.000000001666667e-19
LEVEL_OF_1E200 = 5e199


def _check(scenario: dict, suite: str, name: str) -> dict:
    report = run_suite(suite, materialize(from_config(scenario)))
    return next(c for c in report["checks"] if c["name"] == name)


def loss_near_zero():
    # exp(x) - 1 - x at x = 1e-9 to a few ulps; expm1(x) - x cancels to 1.5e-7.
    assert evaluate(exp_type(), 1e-9) == pytest.approx(EXP_TYPE_AT_1E_9, rel=1e-14, abs=0.0)


def infinity(phi):
    def entry():
        assert evaluate(phi, math.inf) == math.inf

    return entry


def infinite_level():
    # theta^{-1}(E theta|f|) is +inf on a block where |f| is, for the exp kind as for a power kind.
    space, part = measure.build_symmetric_space(2)
    levels = measure.block_level(space, part, exp_type(), np.array([math.inf, 1.0, 1.0, 1.0]))
    assert levels[0] == math.inf and levels[1] == pytest.approx(1.0)


def infinite_search_row():
    # The exp pair's ratio on a block with an infinite |f| is inf / inf, NaN as for the power pair.
    space, part = measure.build_symmetric_space(4)
    f, g = np.ones(8), np.ones(8)
    f[0] = math.inf
    phi = exp_type()
    ratios = holder._holder_ratios(space, part, phi, conjugate_closed_form(phi), f, g)
    assert np.isnan(ratios[0]) and np.allclose(ratios[1:], 1.0)


def doubling(p):
    def entry():
        # |x|**p meets Delta_2 with k = 2**p.
        assert check_delta2(power(p)) is not None

    return entry


def bracket(phi, y):
    def entry():
        # sup_x (x y - phi(x)) is psi(y), finite here, whatever the size of the maximiser.
        assert conjugate_numeric(phi, y) == pytest.approx(evaluate(conjugate_closed_form(phi), y), rel=1e-6)

    return entry


def jensen_exp_pair():
    # phi(E|f|) <= E phi(|f|) holds; the exp-pair workload's scenario at seed 0 computes inf - inf.
    scenario = {
        "name": "exp-pair-128",
        "space": {"type": "symmetric", "n_half": 64},
        "young": {"kind": "exp_type"},
        "u": {"type": "generator", "name": "random_uniform", "seed": 7},
        "seed": 5,
    }
    assert _check(scenario, "jensen", "convexity_inequality")["passed"]


def overflowed_level():
    # One block of 4 unit weights, u = [1e200, 1, 2, 3], psi = y**2 / 2: the
    # level is sqrt(mean u**2), near 5e199, not inf.
    u = [1e200, 1.0, 2.0, 3.0]
    scenario = {
        "name": "overflowed-level",
        "space": {"type": "explicit", "weights": [1.0] * 4},
        "partition": {"labels": [0] * 4},
        "young": {"kind": "scaled_power", "p": 2.0},
        "u": {"type": "explicit", "values": u},
    }
    mat = materialize(from_config(scenario))
    assert multiplier_levels(mat.operator, mat.psi) == pytest.approx([LEVEL_OF_1E200], rel=1e-12)


def underflowed_family_levels():
    # psi = y**q / q with q near 8.6e5: each level lies in (0, max |u|] on a
    # block where u is not all 0, and is 0 where it is.
    scenario = {
        "name": "underflowed-levels",
        "space": {"type": "family", "sizes": [16, 64], "atoms_per_block": 2},
        "young": {"kind": "scaled_power", "p": 1.00000116},
        "u": {"type": "law", "name": "log_growth"},
    }
    mat = materialize(from_config(scenario))
    for _, op in mat.family.members:
        levels = multiplier_levels(op, mat.psi)
        peaks = np.zeros(op.partition.n_blocks)
        np.maximum.at(peaks, op.partition.labels, np.abs(op.u))
        assert np.all(np.isfinite(levels))
        assert np.all((levels > 0) == (peaks > 0)) and np.all(levels <= peaks * (1.0 + 1e-12))


def jensen_scale():
    # A record's verdict follows from its own numbers: the scale that the
    # Jensen rule multiplies its tolerance by must be in the record.
    spec = importlib.util.spec_from_file_location("compare_reports", TOOLS / "compare_reports.py")
    tool = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tool)
    unequal = tool.UNEQUAL_BLOCKS
    check = _check({**unequal, "seed": 0}, "jensen", "convexity_inequality")
    assert check["passed"] == (check["value"] <= check["tolerance"] * check.get("scale", 1.0))


def _entry(check, id, reason, raises=AssertionError):
    """One ledger entry: it must fail with `raises`, so that a broken entry fails the suite."""
    mark = pytest.mark.xfail(strict=True, raises=raises, reason=f"{id}: {reason}")
    return pytest.param(check, id=id, marks=mark)


DEFECTS = [
    _entry(loss_near_zero, "item1-loss-near-0", "evaluate(exp_type, 1e-9) cancels to a relative error of 1.5e-7"),
    _entry(infinity(exp_type()), "item1-infinity-exp_type", "evaluate maps +inf to NaN"),
    _entry(infinity(log_type()), "item1-infinity-log_type", "evaluate maps +inf to NaN"),
    _entry(infinite_level, "item1-infinity-level", "the level's inverse raises ValueError on the NaN of phi(inf)", ValueError),
    _entry(infinite_search_row, "item1-infinity-search", "the ratio search raises ValueError on an infinite |f|", ValueError),
    _entry(doubling(100), "item1-delta2-p100", "check_delta2 overflows and returns None"),
    _entry(doubling(300), "item1-delta2-p300", "check_delta2 overflows and returns None"),
    *(
        _entry(bracket(phi, y), f"item1-bracket-{phi.kind}", "conjugate_numeric raises BracketFailure", BracketFailure)
        for phi, y in ((log_type(), 415.96), (power(1.01), 37.28), (scaled_power(1.001), 1.73))
    ),
    _entry(jensen_exp_pair, "item1-jensen-nan-exp-pair", "exp-pair-128 at seed 0 fails convexity_inequality on inf - inf"),
    _entry(overflowed_level, "item1-level-overflow", "psi(1e200) overflows and the level reads inf"),
    _entry(underflowed_family_levels, "item1-level-underflow-family", "psi(|u|) under- and overflows: levels 0 and inf"),
    _entry(jensen_scale, "item4-jensen-scale", "convexity_inequality passes on a scale its record leaves out"),
]


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
@pytest.mark.parametrize("check", DEFECTS)
def test_known_defect(check):
    check()
