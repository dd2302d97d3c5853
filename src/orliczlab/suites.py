"""The nine check suites the CLI can run against a scenario.

Each suite is a pure function of a materialized scenario returning one record
per check.  It runs as one or more independent parts, whose values one judge
turns into its checks: gcthi's parts are its random searches, and every other
suite is one part.  Every check is judged here and nowhere else: its record
names a rule of the one verdict table, _RULES, and carries every number that
rule reads, so every number in a report is auditable and every verdict can be
re-judged from its record alone.  Where a rule holds per row or per case, the
record's value is the worst case's normalised margin.  The suites share the
operators built at materialize: `mat.operator` (a family's middle member)
and the family's members.  Each forked worker of `run` solves their levels,
norm brackets and classifier verdict once for itself.
"""

from __future__ import annotations

import math
from functools import partial

import numpy as np

from . import young as young_mod
from .errors import BracketFailure, SpectralOracleError
from .holder import domination_holder_constant, empirical_holder_constant, normalization_constants
from .measure import cond_exp, domination_constant, generalized_jensen_check, jensen_check
from .operators import (
    RefinementFamily,
    WeightedConditionalExpectation,
    essential_gap,
    level_set,
    mean_multiplier,
    multiplier_levels,
    norm_estimate,
    norm_upper_bound,
    resolvent_check,
    spectrum,
    truncate,
)
from .orlicz import NORM_TOL, contraction_check, luxemburg_norm
from .sampling import signed_log_uniform
from .scenarios import Materialized
from .young import evaluate

__all__ = ["SUITE_ORDER", "judge", "part_samples", "run_part", "run_suite"]

# The verdict tolerances of the checks whose value is a normalised margin (README, "Reports").
JENSEN_TOL = 1e-12  # both Jensen checks: the worst row's gap over max(1, max|rhs|) of that row
CONTRACTION_TOL = 1e-9  # norm_nonexpansive: the worst (||E f|| - ||f||) / (||f|| + 1)
TRUNCATION_GAP_TOL = 1e-6  # gap_within_scaled_threshold: gap <= C * epsilon * (1 + TRUNCATION_GAP_TOL)
RESOLVENT_TOL = 1e-9  # inversion_residuals: the worst composition residual over ||f||_inf


def _betas_vanish(b: list) -> bool:
    """Each beta at most 1 % above the one before, and the last at most half the first."""
    return all(b2 <= b1 * 1.01 for b1, b2 in zip(b, b[1:])) and b[-1] <= 0.5 * b[0]


def _betas_stabilize(b: list) -> bool:
    """Every beta within 1 % of the first."""
    return all(abs(x - b[0]) <= 0.01 * max(b[0], 1e-300) for x in b)


_VBT = ("value", "bound", "tolerance")  # what each rule of a value against a bound reads
# The one verdict table: rule -> (the record keys it reads, its predicate on the
# record).  A check passes when its predicate holds and every number under
# those keys is finite; otherwise it fails, flagged `nonfinite` if a number is not.
_RULES = {
    "at_most_tolerance": (("value", "tolerance"), lambda c: c["value"] <= c["tolerance"]),
    "at_most_bound": (_VBT, lambda c: c["value"] <= c["bound"] * (1.0 + c["tolerance"])),
    "near_bound": (_VBT, lambda c: abs(c["value"] - c["bound"]) <= c["tolerance"] * max(1.0, c["bound"])),
    "near_bound_absolute": (_VBT, lambda c: abs(c["value"] - c["bound"]) <= c["tolerance"]),
    "members_at_most_bound": (
        ("members", "tolerance"),
        lambda c: all(r["gap_lower_bound"] <= r["bound"] * (1.0 + c["tolerance"]) for r in c["members"]),
    ),
    "non_increasing": (("counts",), lambda c: all(b <= a for a, b in zip(c["counts"], c["counts"][1:]))),
    "matches_expected": (("verdict", "expected"), lambda c: c["verdict"] == c["expected"]),
    "certificate_as_expected": (
        ("value", "certificate_present", "expected_present"),
        lambda c: c["certificate_present"] == c["expected_present"],
    ),
    "betas_vanish": (("betas",), lambda c: _betas_vanish(c["betas"])),
    "betas_stabilize": (("betas",), lambda c: _betas_stabilize(c["betas"])),
    "raised": ((), lambda c: False),
}


def _numbers(x) -> list:
    """Every int or float in x, through nested lists and dicts."""
    if isinstance(x, (list, dict)):
        return [y for item in (x.values() if isinstance(x, dict) else x) for y in _numbers(item)]
    return [x] if isinstance(x, (int, float)) and not isinstance(x, bool) else []


def _check(name: str, rule: str, value=None, bound=None, tolerance=None, **details) -> dict:
    """The record of check `name`, judged by `rule` of _RULES from its own numbers."""
    out = {"name": name, "rule": rule}
    for key, x in (("value", value), ("bound", bound), ("tolerance", tolerance)):
        if x is not None:
            out[key] = float(x)
    out.update(details)
    reads, holds = _RULES[rule]
    finite = all(math.isfinite(x) for key in reads if key in out for x in _numbers(out[key]))
    out["passed"] = finite and bool(holds(out))
    if not finite:
        out["nonfinite"] = True
    return out


def _trend_check(mat: Materialized, which: str, *shown: str) -> dict:
    """trend_verdict_<which>: the classifier's verdict on whether the family is
    `which` (bounded or compact) against the trend its law predicts
    (RefinementFamily.LAWS), with the verdict's `shown` entries."""
    verdict = mat.trend_verdict
    _, bounded, compact = RefinementFamily.LAWS[mat.scenario.u["name"]]
    expected = bounded if which == "bounded" else compact
    details = {key: verdict[key] for key in shown}
    return _check(f"trend_verdict_{which}", "matches_expected", expected=expected, verdict=verdict[which], **details)


def _suite_young_calculus(mat: Materialized) -> list[dict]:
    phi, psi = mat.phi, mat.psi
    # The one check of psi against phi*: max |psi(y) - phi*(y)| / max(1, |phi*(y)|), NaN propagating.
    ys = np.logspace(-3, 3, 64)
    star = young_mod.conjugate_numeric(phi, ys)
    conj_err = float(np.max(np.abs(evaluate(psi, ys) - star) / np.maximum(1.0, np.abs(star))))

    xs = np.logspace(-3, 3, 256)
    ts = evaluate(phi, xs)
    ts = ts[np.isfinite(ts)]  # the exponential kind overflows before x = 1e3
    back = evaluate(phi, phi.inverse(ts))
    inv_err = float(np.max(np.abs(back - ts) / np.maximum(1.0, ts)))

    samples = 5_000
    violation = young_mod.young_inequality_check(phi, psi, samples=samples, seed=mat.scenario.seed + 3)

    cert = young_mod.check_delta2(phi)
    expect_cert = phi.row.doubling  # a kind that fails Delta_2 must get no certificate

    return [
        _check("conjugate_consistency", "at_most_tolerance", value=conj_err, tolerance=1e-6),
        _check("inverse_roundtrip", "at_most_tolerance", value=inv_err, tolerance=1e-9),
        _check("product_inequality", "at_most_tolerance", value=violation, tolerance=1e-9, samples=samples),
        _check(
            "doubling_certificate",
            "certificate_as_expected",
            value=cert,
            certificate_present=cert is not None,
            expected_present=expect_cert,
        ),
    ]


def _suite_jensen(mat: Materialized) -> list[dict]:
    op = mat.operator
    space, n = op.space, op.n_atoms
    rng = np.random.default_rng(mat.scenario.seed + 11)
    fs = np.stack([signed_log_uniform(rng, n) for _ in range(200)])
    rep = jensen_check(space, op.partition, mat.phi, fs)
    pairs = np.abs([[signed_log_uniform(rng, n), signed_log_uniform(rng, n)] for _ in range(50)])
    gen = generalized_jensen_check(
        space, op.partition, lambda stacked: np.min(stacked, axis=0), [pairs[:, 0], pairs[:, 1]]
    )
    return [
        _check("convexity_inequality", "at_most_tolerance", value=rep["margin"], tolerance=JENSEN_TOL, cases=200),
        _check("concave_min_inequality", "at_most_tolerance", value=gen["margin"], tolerance=JENSEN_TOL, cases=50),
    ]


def _suite_contraction(mat: Materialized) -> list[dict]:
    op = mat.operator
    space, part = op.space, op.partition
    rng = np.random.default_rng(mat.scenario.seed + 13)
    fs = np.stack([signed_log_uniform(rng, space.n_atoms) for _ in range(200)])
    rep = contraction_check(space, part, mat.phi, fs)
    g = signed_log_uniform(rng, part.n_blocks)[part.labels]  # measurable by construction
    ng, neg = luxemburg_norm(space, mat.phi, np.stack([g, cond_exp(space, part, g)]))
    # bound: the ratio ||E f|| / ||f|| the theorem bounds by 1, which the margin measures.
    return [
        _check(
            "norm_nonexpansive", "at_most_tolerance", value=rep["margin"], bound=1.0, tolerance=CONTRACTION_TOL, cases=200
        ),
        _check("fixed_on_measurable", "near_bound", value=neg, bound=ng, tolerance=1e-9),
    ]


def _gcthi_parts(mat: Materialized) -> list:
    """gcthi's independent searches, in suite order, each a (samples, search) pair."""
    op = mat.operator
    args = (op.space, op.partition, mat.phi, mat.psi)
    budget, seed = mat.scenario.budget, mat.scenario.seed
    parts = [(budget, partial(empirical_holder_constant, *args, budget, seed + 17))]
    if mat.phi.row.takes_p:  # a pair of the homogeneous kinds has unit constant
        parts.append((budget, partial(empirical_holder_constant, *args, budget, seed + 18)))
    return parts + [(2_000, partial(normalization_constants, *args, 2_000, seed + 19))]


def _judge_gcthi(mat: Materialized, values: list) -> list[dict]:
    searched, *unit, (c1, c2) = values
    space, part = mat.operator.space, mat.operator.partition
    budget = mat.scenario.budget
    c0 = domination_constant(space, part)
    checks = [("ratio_within_domination_constant", searched, domination_holder_constant(space, part), {"samples": budget})]
    checks += [("homogeneous_pair_unit_constant", u, 1.0, {"samples": budget}) for u in unit]
    checks += [
        ("normalized_average_first_factor", c1, float(evaluate(mat.phi, c0)), {}),
        ("normalized_average_second_factor", c2, float(evaluate(mat.psi, c0)), {}),
        ("sum_constant_dominates_search", searched, c1 + c2, {}),
    ]
    return [_check(name, "at_most_bound", value=v, bound=b, tolerance=1e-9, **more) for name, v, b, more in checks]


def _sandwich_checks(mat: Materialized, op: WeightedConditionalExpectation, seed: int) -> list[dict]:
    C = domination_holder_constant(op.space, op.partition)
    upper = norm_upper_bound(op, mat.psi, C)
    lower = norm_estimate(op, mat.phi, budget=300, seed=seed)
    # max|E(u)| against the computed ratio ||T 1_B|| / ||1_B|| on the top block
    # B.  Each norm lies in [||g||, ||g|| + NORM_TOL * max(1, ||g||)], which
    # bounds the ratio's error by `slack`.
    eu = np.abs(mean_multiplier(op))
    sup = float(np.max(eu))
    chi = (op.partition.labels == np.argmax(eu)).astype(float)
    n_chi, n_t = luxemburg_norm(op.space, mat.phi, np.stack([chi, op.apply(chi)]))
    route = n_t / n_chi
    slack = NORM_TOL * (max(1.0, n_t) + route * max(1.0, n_chi)) / n_chi
    return [
        _check("norm_sandwich", "at_most_bound", value=lower, bound=upper, tolerance=1e-6, constant=C),
        _check("block_mean_attained", "near_bound_absolute", value=route, bound=sup, tolerance=slack),
    ]


def _suite_boundedness(mat: Materialized) -> list[dict]:
    seed = mat.scenario.seed + 19
    checks = _sandwich_checks(mat, mat.operator, seed)
    if mat.is_family:
        checks.append(_trend_check(mat, "bounded", "level_sups", "flags"))
    return checks


def _suite_compactness(mat: Materialized) -> list[dict]:
    psi = mat.psi
    op = mat.operator
    levels = multiplier_levels(op, psi)
    positive = levels[levels > 0]
    checks = []
    if positive.size:
        grid = np.geomspace(0.5 * float(np.min(positive)), 1.5 * float(np.max(positive)), 12)
        counts = [level_set(op, psi, float(e)).size for e in grid]
        checks.append(_check("level_count_monotone", "non_increasing", counts=counts))
        same = np.max(np.abs(truncate(op, psi, 0.5 * float(np.min(positive))).u - op.u))
        zero = np.max(np.abs(truncate(op, psi, 1.5 * float(np.max(positive))).u))
        checks += [
            _check("truncation_below_min_level_is_identity", "at_most_tolerance", value=same, tolerance=1e-14),
            _check("truncation_above_max_level_is_zero", "at_most_tolerance", value=zero, tolerance=1e-14),
        ]
    if mat.is_family:
        checks.append(_trend_check(mat, "compact", "level_counts", "eps_grid"))
    return checks


def _suite_spectrum(mat: Materialized) -> list[dict]:
    op = mat.operator
    rep = spectrum(op)
    return [
        _check(
            "predicted_matches_oracle",
            "at_most_tolerance",
            value=rep.max_match_distance,
            tolerance=rep.tolerance,
            predicted=[float(v) for v in rep.predicted],
        )
    ]


def _suite_resolvent(mat: Materialized) -> list[dict]:
    op = mat.operator
    rng = np.random.default_rng(mat.scenario.seed + 23)
    eu = np.append(mean_multiplier(op), 0.0)  # read only by max, min and max|.|: order and repeats do not matter
    span = float(np.max(np.abs(eu))) + 2.0
    cases = 20 if math.isfinite(2.0 * span) else 0  # no lambda is drawn from an infinite [-span, span]
    residuals = []
    for _ in range(cases):
        f = signed_log_uniform(rng, op.n_atoms)
        # The first of 100 draws at least 0.5 from every block mean and 0, else max E(u) + 1.5.
        draws = (rng.uniform(-span, span) for _ in range(100))
        lam = next((x for x in draws if np.min(np.abs(eu - x)) >= 0.5), float(np.max(eu)) + 1.5)
        residuals.append(resolvent_check(op, lam, f)["relative_residual"])
    worst = np.max(residuals) if cases else math.nan  # no case: the residuals are unknown
    return [_check("inversion_residuals", "at_most_tolerance", value=worst, tolerance=RESOLVENT_TOL, cases=cases, margin=0.5)]


def _suite_essential_norm(mat: Materialized) -> list[dict]:
    phi, psi = mat.phi, mat.psi
    seed = mat.scenario.seed + 29
    if mat.is_family:
        # beta_m across the members, each gap bounded by its own member's C.
        members = [{"m": m, **essential_gap(op, phi, psi, seed)} for m, op in mat.family.members]
        betas = [row["beta"] for row in members]
        _, bounded, compact = RefinementFamily.LAWS[mat.scenario.u["name"]]
        checks = [
            _check(
                "gap_within_scaled_threshold",
                "members_at_most_bound",
                tolerance=TRUNCATION_GAP_TOL,
                betas=betas,
                members=members,
            )
        ]
        if compact:
            checks.append(_check("threshold_vanishes", "betas_vanish", betas=betas))
        elif bounded:
            checks.append(_check("threshold_stabilizes", "betas_stabilize", value=betas[0], betas=betas))
        return checks
    gap = essential_gap(mat.operator, phi, psi, seed)
    return [
        _check(
            "gap_within_scaled_threshold",
            "at_most_bound",
            value=gap["gap_lower_bound"],
            bound=gap["bound"],
            tolerance=TRUNCATION_GAP_TOL,
            beta=gap["beta"],
        )
    ]


def _one_part(suite):
    """The parts and the judge of a suite that runs as one part whose value is its checks."""
    return lambda mat: [(0, partial(suite, mat))], lambda mat, values: values[0]


# Each suite's parts(mat), its (samples, run) pairs in suite order (samples > 0
# for a random search of that many samples, 0 otherwise; run() takes no argument),
# and its judge(mat, values), the checks from the parts' values in that order.
_SUITES = {
    "young-calculus": _one_part(_suite_young_calculus),
    "jensen": _one_part(_suite_jensen),
    "contraction": _one_part(_suite_contraction),
    "gcthi": (_gcthi_parts, _judge_gcthi),
    "boundedness": _one_part(_suite_boundedness),
    "compactness-trend": _one_part(_suite_compactness),
    "spectrum": _one_part(_suite_spectrum),
    "resolvent": _one_part(_suite_resolvent),
    "essential-norm": _one_part(_suite_essential_norm),
}

SUITE_ORDER = tuple(_SUITES)


def part_samples(name: str, mat: Materialized) -> list[int]:
    """The samples of each part of suite `name` on mat, in suite order: a random search's
    sample count, 0 for a part that is not a search.  Every suite has at least one part."""
    return [samples for samples, _ in _SUITES[name][0](mat)]


def run_part(name: str, mat: Materialized, k: int):
    """The value of part k of suite `name` on mat, or the BracketFailure or
    SpectralOracleError it raised, returned to be judged (judge)."""
    try:
        return _SUITES[name][0](mat)[k][1]()
    except (BracketFailure, SpectralOracleError) as exc:
        return exc


def judge(name: str, mat: Materialized, values: list) -> dict:
    """The record of suite `name` from its parts' values in suite order.  A
    part that raised fails the suite with one check, from the first such part:
    `solver_budget_exhausted` for a solver that ran out of budget and
    `oracle_rejected` for a spectrum oracle that rejected its own output, each
    carrying the error's message."""
    raised = next((v for v in values if isinstance(v, Exception)), None)
    if raised is None:
        checks = _SUITES[name][1](mat, values)
    else:
        failed = "solver_budget_exhausted" if isinstance(raised, BracketFailure) else "oracle_rejected"
        checks = [_check(failed, "raised", error=str(raised))]
    return {"suite": name, "passed": all(c["passed"] for c in checks), "checks": checks}


def run_suite(name: str, mat: Materialized) -> dict:
    """Run one suite in process, its parts in order, and judge it.  The CLI
    rejects an unknown name before any work, so `name` is one of SUITE_ORDER."""
    return judge(name, mat, [run_part(name, mat, k) for k in range(len(part_samples(name, mat)))])
