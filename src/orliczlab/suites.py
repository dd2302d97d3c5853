"""The nine check suites the CLI can run against a scenario.

Each suite is a pure function of a materialized scenario returning a dict with
one entry per check; a check carries its measured value, the bound it was
compared against, and the tolerance used, so every number in a report is
auditable.  Every single-space suite reads `mat.operator`, which for a family
scenario is the family's own middle member; the trend checks read the family's
members, so all suites share one set of operators and the levels and norm
brackets solved on them.
"""

from __future__ import annotations

import math
import time

import numpy as np

from . import young as young_mod
from .errors import BracketFailure, SpectralOracleError
from .holder import domination_holder_constant, empirical_holder_constant, normalization_constants
from .measure import JENSEN_TOL, cond_exp, domination_constant, generalized_jensen_check, jensen_check
from .operators import (
    RESOLVENT_TOL,
    TRUNCATION_GAP_TOL,
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
from .orlicz import CONTRACTION_TOL, NORM_TOL, contraction_check, luxemburg_norm
from .sampling import signed_log_uniform
from .scenarios import Materialized
from .young import evaluate

__all__ = ["SUITE_ORDER", "run_suite", "run_all_suites"]


def _check(name: str, passed: bool, value=None, bound=None, tolerance=None, **details) -> dict:
    """A check record; a non-finite value, bound, beta or betas entry fails it and is flagged `nonfinite`."""
    out = {"name": name, "passed": bool(passed)}
    if value is not None:
        out["value"] = float(value)
    if bound is not None:
        out["bound"] = float(bound)
    if tolerance is not None:
        out["tolerance"] = float(tolerance)
    numbers = [out.get("value", 0.0), out.get("bound", 0.0), details.get("beta", 0.0), *details.get("betas", ())]
    if not all(math.isfinite(x) for x in numbers):
        out["passed"] = False
        out["nonfinite"] = True
    out.update(details)
    return out


def _at_most(name: str, value: float, bound: float, tolerance: float, **details) -> dict:
    """The check value <= bound * (1 + tolerance)."""
    return _check(name, value <= bound * (1.0 + tolerance), value, bound, tolerance, **details)


def _trend_check(mat: Materialized, which: str, *shown: str) -> dict:
    """trend_verdict_<which>: the classifier's verdict on whether the family is
    `which` (bounded or compact) against the trend its law predicts
    (RefinementFamily.LAWS), with the verdict's `shown` entries."""
    verdict = mat.trend_verdict
    _, bounded, compact = RefinementFamily.LAWS[mat.scenario.u["name"]]
    expected = bounded if which == "bounded" else compact
    details = {key: verdict[key] for key in shown}
    return _check(
        f"trend_verdict_{which}", verdict[which] == expected, expected=expected, verdict=verdict[which], **details
    )


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
    doubling_ok = (cert is not None) == expect_cert

    checks = [
        _check("conjugate_consistency", conj_err <= 1e-6, value=conj_err, tolerance=1e-6),
        _check("inverse_roundtrip", inv_err <= 1e-9, value=inv_err, tolerance=1e-9),
        _check("product_inequality", violation <= 1e-9, value=violation, tolerance=1e-9, samples=samples),
        _check(
            "doubling_certificate",
            doubling_ok,
            value=cert,
            certificate_present=cert is not None,
            expected_present=expect_cert,
        ),
    ]
    return checks


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
        _check("convexity_inequality", rep["holds"], value=rep["max_violation"], tolerance=JENSEN_TOL, cases=200),
        _check("concave_min_inequality", gen["holds"], value=gen["max_violation"], tolerance=JENSEN_TOL, cases=50),
    ]


def _suite_contraction(mat: Materialized) -> list[dict]:
    op = mat.operator
    space, part = op.space, op.partition
    rng = np.random.default_rng(mat.scenario.seed + 13)
    fs = np.stack([signed_log_uniform(rng, space.n_atoms) for _ in range(200)])
    rep = contraction_check(space, part, mat.phi, fs)
    positive = rep["norm_f"] > 0
    worst_ratio = float(np.max(rep["norm_Ef"][positive] / rep["norm_f"][positive], initial=0.0))  # NaN propagating
    g = signed_log_uniform(rng, part.n_blocks)[part.labels]  # measurable by construction
    ng, neg = luxemburg_norm(space, mat.phi, np.stack([g, cond_exp(space, part, g)]))
    fixed = abs(neg - ng) <= 1e-9 * max(1.0, ng)
    return [
        _check("norm_nonexpansive", rep["holds"], value=worst_ratio, bound=1.0, tolerance=CONTRACTION_TOL, cases=200),
        _check("fixed_on_measurable", fixed, value=neg, bound=ng, tolerance=1e-9),
    ]


def _suite_gcthi(mat: Materialized) -> list[dict]:
    op = mat.operator
    space, part = op.space, op.partition
    phi, psi = mat.phi, mat.psi
    budget = mat.scenario.budget
    seed = mat.scenario.seed + 17
    claimed = domination_holder_constant(space, part)
    searched = empirical_holder_constant(space, part, phi, psi, budget=budget, seed=seed)
    c0 = domination_constant(space, part)
    checks = [_at_most("ratio_within_domination_constant", searched, claimed, 1e-9, samples=budget)]
    if phi.row.takes_p:  # a pair of the homogeneous kinds has unit constant
        unit = empirical_holder_constant(space, part, phi, psi, budget=budget, seed=seed + 1)
        checks.append(_at_most("homogeneous_pair_unit_constant", unit, 1.0, 1e-9, samples=budget))
    c1, c2 = normalization_constants(space, part, phi, psi, sample_budget=2_000, seed=seed + 2)
    checks += [
        _at_most("normalized_average_first_factor", c1, float(evaluate(phi, c0)), 1e-9),
        _at_most("normalized_average_second_factor", c2, float(evaluate(psi, c0)), 1e-9),
        _at_most("sum_constant_dominates_search", searched, c1 + c2, 1e-9),
    ]
    return checks


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
        _at_most("norm_sandwich", lower, upper, 1e-6, constant=C),
        _check(
            "block_mean_attained",
            abs(route - sup) <= slack,
            value=route,
            bound=sup,
            tolerance=slack,
        ),
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
        monotone = all(b <= a for a, b in zip(counts, counts[1:]))
        checks.append(_check("level_count_monotone", monotone, counts=counts))
        tiny = 0.5 * float(np.min(positive))
        full = truncate(op, psi, tiny)
        same = float(np.max(np.abs(full.u - op.u)))
        checks.append(
            _check("truncation_below_min_level_is_identity", same <= 1e-14, value=same, tolerance=1e-14)
        )
        big = 1.5 * float(np.max(positive))
        zero = truncate(op, psi, big)
        z = float(np.max(np.abs(zero.u)))
        checks.append(
            _check("truncation_above_max_level_is_zero", z <= 1e-14, value=z, tolerance=1e-14)
        )
    if mat.is_family:
        checks.append(_trend_check(mat, "compact", "level_counts", "eps_grid"))
    return checks


def _suite_spectrum(mat: Materialized) -> list[dict]:
    op = mat.operator
    rep = spectrum(op)
    return [
        _check(
            "predicted_matches_oracle",
            rep.max_match_distance <= rep.tolerance,
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
    if not math.isfinite(2.0 * span):  # no lambda is drawn from [-span, span]; the residuals are unknown
        return [_check("inversion_residuals", False, value=math.nan, tolerance=RESOLVENT_TOL, cases=0, margin=0.5)]
    residuals = []
    ok = True
    for _ in range(20):
        f = signed_log_uniform(rng, op.n_atoms)
        lam = None
        for _ in range(100):
            cand = rng.uniform(-span, span)
            if np.min(np.abs(eu - cand)) >= 0.5:
                lam = cand
                break
        if lam is None:
            lam = float(np.max(eu)) + 1.5
        rep = resolvent_check(op, lam, f)
        residuals += [rep["residual_left"], rep["residual_right"]]
        ok = ok and rep["holds"]
    return [
        _check("inversion_residuals", ok, value=np.max(residuals), tolerance=RESOLVENT_TOL, cases=20, margin=0.5)
    ]


def _suite_essential_norm(mat: Materialized) -> list[dict]:
    phi, psi = mat.phi, mat.psi
    seed = mat.scenario.seed + 29
    if mat.is_family:
        # beta_m across the members, each gap bounded by its own member's C.
        members = [{"m": m, **essential_gap(op, phi, psi, seed)} for m, op in mat.family.members]
        betas = [row["beta"] for row in members]
        _, bounded, compact = RefinementFamily.LAWS[mat.scenario.u["name"]]
        checks = [
            _check("gap_within_scaled_threshold", all(row["holds"] for row in members), betas=betas, members=members)
        ]
        if compact:
            decreasing = all(b2 <= b1 * 1.01 for b1, b2 in zip(betas, betas[1:]))  # 1 % slack per step
            vanishing = decreasing and betas[-1] <= 0.5 * betas[0]
            checks.append(_check("threshold_vanishes", vanishing, betas=betas))
        elif bounded:
            level = betas[0]
            stable = all(abs(b - level) <= 0.01 * max(level, 1e-300) for b in betas)
            checks.append(_check("threshold_stabilizes", stable, value=level, betas=betas))
        return checks
    gap = essential_gap(mat.operator, phi, psi, seed)
    return [
        _check(
            "gap_within_scaled_threshold",
            gap["holds"],
            value=gap["gap_lower_bound"],
            bound=gap["bound"],
            tolerance=TRUNCATION_GAP_TOL,
            beta=gap["beta"],
        )
    ]


_SUITES = {
    "young-calculus": _suite_young_calculus,
    "jensen": _suite_jensen,
    "contraction": _suite_contraction,
    "gcthi": _suite_gcthi,
    "boundedness": _suite_boundedness,
    "compactness-trend": _suite_compactness,
    "spectrum": _suite_spectrum,
    "resolvent": _suite_resolvent,
    "essential-norm": _suite_essential_norm,
}

SUITE_ORDER = tuple(_SUITES)


def run_suite(name: str, mat: Materialized) -> dict:
    """Run one suite.  A solver that runs out of budget fails the suite with one
    `solver_budget_exhausted` check carrying the solver's message, and a
    spectrum oracle that rejects its own output with one `oracle_rejected`
    check carrying the oracle's.  The CLI rejects an unknown name before any
    work, so `name` is one of SUITE_ORDER."""
    try:
        checks = _SUITES[name](mat)
    except BracketFailure as exc:
        checks = [_check("solver_budget_exhausted", False, error=str(exc))]
    except SpectralOracleError as exc:
        checks = [_check("oracle_rejected", False, error=str(exc))]
    return {
        "suite": name,
        "passed": all(c["passed"] for c in checks),
        "checks": checks,
    }


def run_all_suites(mat: Materialized, names=None) -> dict:
    """Run the named suites (default all) in order; "seconds" holds each one's wall time."""
    results, seconds = {}, {}
    for name in tuple(names) if names else SUITE_ORDER:
        start = time.perf_counter()
        results[name] = run_suite(name, mat)
        seconds[name] = time.perf_counter() - start
    return {
        "scenario": mat.scenario.name,
        "suites": results,
        "passed": all(r["passed"] for r in results.values()),
        "seconds": seconds,
    }
