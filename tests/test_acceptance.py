"""End-to-end acceptance criteria for the laboratory, one test per criterion.

Each test prints a single pass/fail line (visible even under pytest capture)
with the measured quantity and the tolerance it was held to, then asserts.
Criteria run against frozen seeds; expected values come from closed-form
oracles or independent computation routes, never from the code under test.
"""

import numpy as np
import pytest

from orliczlab import young
from orliczlab.holder import empirical_holder_constant, normalization_constants
from orliczlab.measure import (
    MeasureSpace,
    Partition,
    cond_exp,
    domination_constant,
)
from orliczlab.operators import (
    RefinementFamily,
    WeightedConditionalExpectation,
    boundedness_classifier,
    essential_norm_bound,
    mean_multiplier,
    norm_estimate,
    norm_upper_bound,
    resolvent_check,
    spectrum,
    truncation_gap_check,
)
from orliczlab.orlicz import luxemburg_norm
from orliczlab.scenarios import builtin_scenario, materialize
from orliczlab.young import check_delta_prime, conjugate_numeric, evaluate

from oracles import indicator_norm, luxemburg_norm_closed_form, random_partition, random_space


@pytest.fixture
def announce(capsys):
    def _announce(num, name, ok, detail):
        with capsys.disabled():
            status = "PASS" if ok else "FAIL"
            print(f"[criterion {num:02d}] {status} {name}: {detail}")

    return _announce


def power_pair(p):
    phi = young.scaled_power(p)
    return phi, young.conjugate_closed_form(phi)


def random_operator(rng, n_lo=2, n_hi=13):
    n = int(rng.integers(n_lo, n_hi))
    space = random_space(rng, n)
    part = random_partition(rng, n)
    u = rng.normal(0.0, 2.0, n)
    return WeightedConditionalExpectation(space, part, u)


def test_criterion_01_conjugation_oracle(announce):
    # Numeric Legendre-Fenchel conjugate of x^p/p must equal y^q/q, 1/p+1/q=1.
    tol = 1e-6
    grid = np.logspace(-3.0, 3.0, 256)
    worst = 0.0
    for p in (1.5, 2.0, 3.0):
        phi = young.scaled_power(p)
        q = p / (p - 1.0)
        psi = young.scaled_power(q)
        want = evaluate(psi, grid)
        got = conjugate_numeric(phi, grid)
        worst = max(worst, float(np.max(np.abs(got - want) / np.abs(want))))
    ok = worst <= tol
    announce(1, "conjugation oracle", ok, f"max rel err {worst:.3e} <= {tol:.0e}")
    assert ok


def test_criterion_02_luxemburg_norm_oracle(announce):
    # Newton route against the closed-form p-norm and the indicator formula.
    tol = 1e-8
    rng = np.random.default_rng(20_202)
    worst = 0.0
    for case in range(200):
        n = int(rng.integers(1, 13))
        space = random_space(rng, n)
        p = float(rng.choice([1.5, 2.0, 3.0, 4.0]))
        phi = young.power(p) if case % 2 else young.scaled_power(p)
        if case % 4 == 3:
            atoms = rng.permutation(n)[: int(rng.integers(1, n + 1))]
            chi = np.zeros(n)
            chi[atoms] = 1.0
            want = indicator_norm(space, phi, atoms)
            got = luxemburg_norm(space, phi, chi)
        else:
            f = rng.normal(0.0, 3.0, n)
            if not np.any(f):
                f[0] = 1.0
            want = luxemburg_norm_closed_form(space, phi, f)
            got = luxemburg_norm(space, phi, f)
        worst = max(worst, abs(got - want) / want)
    ok = worst <= tol
    announce(2, "Luxemburg norm oracle", ok, f"max rel err {worst:.3e} <= {tol:.0e} (200 cases)")
    assert ok


def test_criterion_03_jensen_and_contraction(announce):
    # Atomwise convexity slack and the norm contraction of the projection.
    slack_tol = 1e-12
    norm_tol = 1e-9
    rng = np.random.default_rng(30_303)
    phis = [
        young.scaled_power(1.5),
        young.scaled_power(2.0),
        young.scaled_power(3.0),
        young.power(2.0),
        young.power(3.0),
        young.exp_type(),
    ]
    worst_slack = -np.inf
    worst_ratio = 0.0
    for _ in range(1_000):
        n = int(rng.integers(2, 11))
        space = random_space(rng, n)
        part = random_partition(rng, n)
        phi = phis[int(rng.integers(0, len(phis)))]
        # Unit-scale samples keep phi values near 1 so the absolute slack
        # tolerance is meaningful against double-precision roundoff.
        f = rng.uniform(-1.0, 1.0, n)
        lhs = evaluate(phi, cond_exp(space, part, f))
        rhs = cond_exp(space, part, evaluate(phi, f))
        worst_slack = max(worst_slack, float(np.max(lhs - rhs)))
        nf = luxemburg_norm(space, phi, f)
        nef = luxemburg_norm(space, phi, cond_exp(space, part, f))
        if nf > 0:
            worst_ratio = max(worst_ratio, nef / nf)
    ok = worst_slack <= slack_tol and worst_ratio <= 1.0 + norm_tol
    announce(
        3,
        "Jensen and contraction",
        ok,
        f"max convexity violation {worst_slack:.3e} <= {slack_tol:.0e}, "
        f"max norm ratio {worst_ratio:.12f} <= 1+{norm_tol:.0e} (1000 cases)",
    )
    assert ok


def test_criterion_04_conditional_holder_constants(announce):
    # Certified constants on the three worked scenarios, each >= 1e4 pairs.
    results = []

    mat = materialize(builtin_scenario("example-1.6a"))
    c_a = empirical_holder_constant(
        mat.operator.space, mat.operator.partition, mat.phi, mat.psi,
        budget=10_000, seed=mat.scenario.seed,
    )
    results.append(("power pair unit constant", c_a, 1.0 + 1e-9))

    mat = materialize(builtin_scenario("example-1.6b"))
    c_b = empirical_holder_constant(
        mat.operator.space, mat.operator.partition, mat.phi, mat.psi,
        budget=10_000, seed=mat.scenario.seed,
    )
    results.append(("exp pair constant", c_b, 4.0))
    c1, c2 = normalization_constants(
        mat.operator.space, mat.operator.partition, mat.phi, mat.psi,
        sample_budget=10_000, seed=mat.scenario.seed,
    )
    results.append(("normalization C1", c1, float(evaluate(mat.phi, 2.0))))
    results.append(("normalization C2", c2, float(evaluate(mat.psi, 2.0))))

    mat = materialize(builtin_scenario("example-1.6d"))
    c_d = empirical_holder_constant(
        mat.operator.space, mat.operator.partition, mat.phi, mat.psi,
        budget=10_000, seed=mat.scenario.seed,
    )
    results.append(("rotation pair constant", c_d, 9.0))

    ok = all(value <= bound for _, value, bound in results)
    detail = "; ".join(f"{name} {value:.6g} <= {bound:.6g}" for name, value, bound in results)
    announce(4, "conditional Hoelder constants", ok, detail)
    assert ok


def test_criterion_05_norm_sandwich(announce):
    # Lower bound <= certified upper bound, and block indicators attain the
    # best block mean through the numeric norm route.
    rel_tol = 1e-6
    rng = np.random.default_rng(50_505)
    worst_rel = 0.0
    worst_attain = np.inf
    for case in range(50):
        op = random_operator(rng)
        p = float(rng.choice([1.5, 2.0, 3.0]))
        phi, psi = power_pair(p)
        C = domination_constant(op.space, op.partition) ** 2
        upper = norm_upper_bound(op, phi, psi, C)
        lower, _ = norm_estimate(op, phi, budget=120, seed=case)
        worst_rel = max(worst_rel, lower / upper if upper else 0.0)
        eu = np.abs(mean_multiplier(op))
        b_star = int(np.argmax(eu))
        chi = (op.partition.labels == b_star).astype(float)
        if eu[b_star] > 0:
            numeric = luxemburg_norm(op.space, phi, op.apply(chi)) / luxemburg_norm(
                op.space, phi, chi
            )
            worst_attain = min(worst_attain, numeric / eu[b_star])
        assert lower >= np.max(np.abs(mean_multiplier(op))) * (1.0 - 1e-12)
    ok = worst_rel <= 1.0 + rel_tol and worst_attain >= 0.99
    announce(
        5,
        "norm sandwich",
        ok,
        f"max lower/upper {worst_rel:.6f} <= 1+{rel_tol:.0e}, "
        f"worst indicator attainment {worst_attain:.6f} >= 0.99 (50 scenarios)",
    )
    assert ok


def test_criterion_06_spectrum_oracle(announce):
    # Predicted multiset {E(u)(B)} plus forced zeros against dense eigenvalues.
    rng = np.random.default_rng(60_606)
    worst = 0.0
    ops = [
        WeightedConditionalExpectation(
            MeasureSpace(np.ones(4)), Partition([0, 0, 1, 1]), np.array([1.0, 3.0, 2.0, 2.0])
        )
    ]
    ops += [random_operator(rng, n_lo=2, n_hi=17) for _ in range(100)]
    demo = spectrum(ops[0])
    assert np.allclose(demo.predicted, [0.0, 0.0, 2.0, 2.0])
    for op in ops:
        report = spectrum(op)
        scale = 1.0 + float(np.max(np.abs(report.predicted)))
        worst = max(worst, report.max_match_distance / scale)
    ok = worst <= 1e-8
    announce(
        6,
        "spectrum oracle",
        ok,
        f"max scaled pairing distance {worst:.3e} <= 1e-08 (100 scenarios + worked case)",
    )
    assert ok


def test_criterion_07_resolvent_identities(announce):
    # Both composition residuals below 1e-9 * ||f||_inf at margin >= 0.5.
    rng = np.random.default_rng(70_707)
    worst = 0.0
    min_margin = np.inf
    for _ in range(100):
        op = random_operator(rng)
        lam = float(np.max(np.abs(mean_multiplier(op)))) + 0.5 + float(rng.uniform(0.0, 1.0))
        f = rng.normal(0.0, 3.0, op.n_atoms)
        report = resolvent_check(op, lam, f, tol=1e-9)
        peak = float(np.max(np.abs(f)))
        worst = max(worst, max(report["residual_left"], report["residual_right"]) / peak)
        min_margin = min(min_margin, report["margin"])
        assert report["holds"]
    ok = worst <= 1e-9 and min_margin >= 0.5
    announce(
        7,
        "resolvent identities",
        ok,
        f"max residual/||f|| {worst:.3e} <= 1e-09, min margin {min_margin:.3f} >= 0.5 (100 cases)",
    )
    assert ok


def test_criterion_08_truncation_gap(announce):
    # Estimated ||T - T_eps|| <= C*eps across a 16-point grid, three sizes.
    family = RefinementFamily("reciprocal", (16, 64, 256))
    phi, psi = power_pair(2.0)
    C = 4.0  # domination constant 2 for paired equal-weight atoms, squared
    eps_grid = np.geomspace(0.02, 1.2, 16)
    worst = 0.0
    for m, op in family.members():
        assert domination_constant(op.space, op.partition) == pytest.approx(2.0)
        for eps in eps_grid:
            report = truncation_gap_check(op, phi, psi, C, float(eps), budget=80, seed=m)
            worst = max(worst, report["gap_lower_bound"] / report["bound"])
            assert report["holds"], report
    ok = worst <= 1.0 + 1e-6
    announce(
        8,
        "truncation gap",
        ok,
        f"max gap/(C*eps) {worst:.6f} <= 1+1e-06 (3 sizes x 16 epsilons)",
    )
    assert ok


def test_criterion_09_essential_norm_trend(announce):
    # Decay family: thresholds decrease toward zero with bounded gaps;
    # flat family: thresholds pin at the flat level.
    phi, psi = power_pair(2.0)
    decay = essential_norm_bound(
        RefinementFamily("reciprocal", (16, 64, 256)), phi, psi, C=4.0, budget=60, seed=9
    )
    flat = essential_norm_bound(
        RefinementFamily("flat", (16, 64, 256)), phi, psi, C=4.0, budget=60, seed=9
    )
    decay_ok = (
        decay["trend_decreasing"]
        and decay["all_gaps_hold"]
        and decay["betas"][-1] <= 0.1 * decay["betas"][0]
    )
    flat_ok = flat["all_gaps_hold"] and all(
        b == pytest.approx(1.0, rel=1e-9) for b in flat["betas"]
    )
    ok = decay_ok and flat_ok
    announce(
        9,
        "essential norm trend",
        ok,
        f"decay betas {['%.4g' % b for b in decay['betas']]} decreasing toward 0, "
        f"flat betas {['%.4g' % b for b in flat['betas']]} stable",
    )
    assert ok


def test_criterion_10_classifier_verdicts(announce):
    # Exact boundedness/compactness verdicts on the three families.
    phi, psi = power_pair(2.0)
    # The classifier finds this certificate itself; compactness verdicts need it.
    assert check_delta_prime(phi) is not None
    expected = {
        "reciprocal": (True, True),
        "flat": (True, False),
        "log_growth": (False, False),
    }
    got = {}
    for law, want in expected.items():
        family = RefinementFamily(law, (16, 64, 256))
        verdict = boundedness_classifier(family, phi, psi)
        got[law] = (verdict["bounded"], verdict["compact"])
    ok = got == expected
    announce(
        10,
        "classifier verdicts",
        ok,
        "; ".join(
            f"{law}: bounded={b}, compact={c}" for law, (b, c) in got.items()
        ),
    )
    assert ok
