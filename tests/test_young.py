"""Young-function calculus: evaluation, inversion, conjugation, growth certificates."""

import functools
import json
import math
import pathlib
import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from oracles import newton_inverse_masked
from orliczlab import scenarios, young
from orliczlab.errors import BracketFailure, ConfigError
from orliczlab.measure import block_mean, build_symmetric_space
from orliczlab.sampling import log_uniform
from orliczlab.suites import run_suite

GOLDEN = json.loads((pathlib.Path(__file__).parent / "golden.json").read_text())


# evaluation


def test_scaled_power_evaluation():
    phi = young.scaled_power(2.0)
    assert phi(2.0) == 2.0
    assert phi(0.0) == 0.0


def test_evenness():
    assert young.power(3.0)(-2.0) == 8.0
    assert young.exp_type()(-1.5) == young.exp_type()(1.5)


def test_vectorized_evaluation():
    phi = young.power(2.0)
    out = phi(np.array([-1.0, 0.0, 3.0]))
    assert np.allclose(out, [1.0, 0.0, 9.0])


def test_monotone_on_grid():
    for phi in (young.power(1.7), young.scaled_power(3.0), young.exp_type(), young.log_type()):
        xs = np.logspace(-3, 2, 200)
        vals = phi(xs)
        assert np.all(np.diff(vals) >= 0)


# derivative


@pytest.mark.parametrize("p", [1.05, 1.5, 2.0, 3.0, 7.0])
def test_derivative_closed_forms_for_power_kinds(p):
    xs = np.logspace(-8, 2, 101)
    assert np.allclose(young.derivative(young.power(p), xs), p * xs ** (p - 1.0), rtol=1e-14, atol=0.0)
    assert np.allclose(young.derivative(young.scaled_power(p), -xs), xs ** (p - 1.0), rtol=1e-14, atol=0.0)
    # The conjugate's slope inverts the slope of |x|**p: (phi*)'(y) = (y/p)**(1/(p-1)).
    assert np.allclose(
        young.derivative(young.conjugate_power(p), xs), (xs / p) ** (1.0 / (p - 1.0)), rtol=1e-12, atol=0.0
    )
    assert young.derivative(young.power(p), 0.0) == 0.0


@pytest.mark.parametrize("phi", [young.exp_type(), young.log_type()], ids=lambda phi: phi.kind)
def test_derivative_matches_central_differences(phi):
    # A step of 1e-3 * min(x, 1) keeps truncation near 2e-7 and, where the
    # evaluation cancels near 0, round-off below 1e-5.
    xs = np.logspace(-8, 2, 101)
    h = 1e-3 * np.minimum(xs, 1.0)
    central = (young.evaluate(phi, xs + h) - young.evaluate(phi, xs - h)) / (2.0 * h)
    slope = young.derivative(phi, xs)
    assert np.all(np.abs(central - slope) <= 2e-5 * slope)
    assert young.derivative(phi, -2.0) == young.derivative(phi, 2.0)
    assert type(young.derivative(phi, 2.0)) is float


# inversion


# Bisection down to `tol`, the reference oracle of the Newton inverse: a route
# that shares no code with young._newton_inverse.
def bisect_inverse(phi, tt, tol):
    flat = np.atleast_1d(tt).astype(float).copy()
    infinite = ~np.isfinite(flat)
    flat[infinite] = 1.0  # placeholder; overwritten with inf below
    hi = np.ones_like(flat)
    for _ in range(200):
        mask = young.evaluate(phi, hi) < flat
        if not mask.any():
            break
        hi[mask] *= 2.0
    else:
        raise BracketFailure(f"no bracket for the inverse of {phi.kind} within 200 doublings")
    lo = np.zeros_like(flat)
    scale = np.maximum(1.0, flat)
    # The returned point must be the exact iterate the tolerance test saw, so
    # the candidate midpoint is evaluated before the bracket moves past it.
    mid = 0.5 * (lo + hi)
    out = mid
    for _ in range(200):
        val = young.evaluate(phi, mid)
        high = val > flat
        hi = np.where(high, mid, hi)
        lo = np.where(high, lo, mid)
        out = mid
        mid = 0.5 * (lo + hi)
        if np.all(np.abs(val - flat) <= tol * scale):
            break
        if np.all(np.abs(mid - out) <= 1e-16 * np.maximum(1.0, np.abs(out))):
            break  # bracket at machine resolution; tol is unreachably small
    out = out.copy()
    out[flat == 0.0] = 0.0
    out[infinite] = np.inf
    return out.reshape(tt.shape)


def test_inverse_closed_forms():
    assert young.scaled_power(2.0).inverse(2.0) == pytest.approx(2.0, abs=1e-12)
    assert young.power(3.0).inverse(8.0) == pytest.approx(2.0, abs=1e-12)
    assert young.exp_type().inverse(0.0) == 0.0


def test_inverse_exp_type_golden():
    got = young.exp_type().inverse(1.0)
    assert got == pytest.approx(GOLDEN["exp_type_inverse_at_1"], abs=1e-9)


def test_inverse_tolerance_contract():
    phi = young.log_type()
    for t in (0.3, 1.0, 17.0, 4096.0):
        x = phi.inverse(t)
        assert abs(phi(x) - t) <= 1e-10 * max(1.0, t) * 4


def test_inverse_rejects_bad_targets():
    with pytest.raises(ValueError):
        young.power(2.0).inverse(-1.0)
    with pytest.raises(ValueError):
        young.exp_type().inverse(float("nan"))


def test_inverse_infinite_target_maps_to_inf():
    assert young.exp_type().inverse(float("inf")) == math.inf
    assert young.power(2.0).inverse(float("inf")) == math.inf


@pytest.mark.parametrize("kind", ["exp_type", "log_type"])
def test_newton_inverse_matches_high_precision_roots(kind):
    phi = young.YoungFunction(kind)
    pairs = GOLDEN["inverse_roots"][kind]
    targets = np.array([float(t) for t, _ in pairs])
    roots = np.array([float(r) for _, r in pairs])
    batch = young.inverse(phi, targets)
    for t, want, got in zip(targets, roots, batch):
        assert young.inverse(phi, t) == got  # independent of the batch
        assert abs(got - want) <= 1e-14 * want, (t, got, want)
        assert abs(phi(got) - t) <= young.INVERSE_TOL * max(1.0, t), t


@pytest.mark.parametrize("phi", [young.exp_type(), young.log_type()], ids=lambda phi: phi.kind)
def test_newton_inverse_agrees_with_bisection_oracle(phi):
    # The bracket of the bisection reaches 2**200, so log_type targets stop near 1e60.
    ts = np.logspace(-8, 60, 300)
    fast = young.inverse(phi, ts)
    slow = bisect_inverse(phi, ts, 1e-12)
    # Both solve phi(x) = t to within 1e-12 * max(1, t), hence lie this close.
    low = np.minimum(fast, slow)
    slope = np.expm1(low) if phi.kind == "exp_type" else np.log1p(low)
    assert np.all(np.abs(fast - slow) <= 2e-12 * np.maximum(1.0, ts) / slope)


def test_newton_inverse_fails_loudly_at_its_iteration_cap(monkeypatch):
    monkeypatch.setattr(young, "_NEWTON_ITERS", 2)
    with pytest.raises(BracketFailure):
        young.inverse(young.log_type(), 1e300)


NEWTON_KINDS = [young.exp_type(), young.log_type()]


@functools.cache
def _newton_targets(kind: str) -> dict[str, np.ndarray]:
    """Target sets for the working-set Newton loop, by name."""
    phi = young.YoungFunction(kind)
    # The block means of one search chunk: 1,024 rows of 128 log-uniform atoms on 64 blocks.
    space, partition = build_symmetric_space(64)
    f = log_uniform(np.random.default_rng(0), (1024, 128))
    with np.errstate(over="ignore"):
        chunk = block_mean(space, partition, young.evaluate(phi, f)).ravel()
    edges = np.array(
        [0.0, 5e-324, 1e-300, 1e-12, 1e-9, phi(0.25), 1.0, 17.0, 1e62, 1e300, sys.float_info.max, math.inf]
    )
    sets = {"search-chunk": chunk, "edges": edges, "logspace": np.logspace(-300, 300, 20001)}
    mix = np.concatenate(list(sets.values()))
    np.random.default_rng(1).shuffle(mix)
    sets["mix"] = mix
    for ts in sets.values():
        ts.setflags(write=False)  # shared between tests; the inverse must not write its targets
    return sets


def _same_bits(a: np.ndarray, b: np.ndarray) -> bool:
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


@pytest.mark.parametrize("name", ["search-chunk", "edges", "logspace", "mix"])
@pytest.mark.parametrize("phi", NEWTON_KINDS, ids=lambda phi: phi.kind)
def test_newton_inverse_is_bitwise_the_masked_loop(phi, name):
    ts = _newton_targets(phi.kind)[name]
    assert _same_bits(young.inverse(phi, ts), newton_inverse_masked(phi, ts))


@pytest.mark.parametrize("name", ["search-chunk", "edges", "one"])
@pytest.mark.parametrize("phi", NEWTON_KINDS, ids=lambda phi: phi.kind)
def test_newton_inverse_cap_matches_the_masked_loop(phi, name, monkeypatch):
    # The smallest cap that settles is the one where the set empties on the last allowed pass.
    ts = np.array([1.0]) if name == "one" else _newton_targets(phi.kind)[name]
    settled = []
    for cap in range(1, 11):
        monkeypatch.setattr(young, "_NEWTON_ITERS", cap)
        try:
            want = newton_inverse_masked(phi, ts)
        except BracketFailure:
            with pytest.raises(BracketFailure):
                young.inverse(phi, ts)
            settled.append(False)
        else:
            assert _same_bits(young.inverse(phi, ts), want), cap
            settled.append(True)
    assert not settled[0] and settled[-1] and settled == sorted(settled)


@pytest.mark.parametrize(
    "ts", [np.zeros(5), np.full(5, math.inf), np.empty(0), np.empty((0, 3))], ids=["zero", "inf", "size-0", "0x3"]
)
@pytest.mark.parametrize("phi", NEWTON_KINDS, ids=lambda phi: phi.kind)
def test_newton_inverse_returns_on_an_empty_working_set(phi, ts, monkeypatch):
    monkeypatch.setattr(young, "_NEWTON_ITERS", 1)  # an empty set must not run on to the cap
    got = young.inverse(phi, ts)
    assert got.shape == ts.shape and np.array_equal(got, ts)


@pytest.mark.parametrize("phi", [young.power(2.0), *NEWTON_KINDS], ids=lambda phi: phi.kind)
def test_inverse_checks_its_targets(phi):
    for bad in (-1.0, math.nan, np.array([1.0, math.nan, 2.0])):
        with pytest.raises(ValueError, match="nonnegative and not nan"):
            young.inverse(phi, bad)
    assert young.inverse(phi, -0.0) == 0.0


def test_bisection_fails_loudly_without_a_bracket():
    # phi(2**200) = 2**400 < 1e300: the doubling budget ends before phi reaches the target.
    with pytest.raises(BracketFailure):
        bisect_inverse(young.power(2.0), np.array([1e300]), 1e-10)


def test_log_type_evaluates_finite_up_to_float_max():
    y = float(GOLDEN["inverse_roots"]["log_type"][-1][1])
    assert young.log_type()(y) == pytest.approx(sys.float_info.max, rel=1e-14)
    assert young.log_type()(3.0 * y) == math.inf


@settings(max_examples=60, deadline=None)
@given(st.floats(min_value=1e-3, max_value=1e3))
def test_inverse_roundtrip_property(x):
    for phi in (young.power(2.5), young.scaled_power(1.5), young.exp_type()):
        t = phi(x)
        if not math.isfinite(t):
            continue
        back = phi.inverse(t)
        assert abs(phi(back) - t) <= 1e-9 * max(1.0, t)


# conjugation


def test_conjugate_closed_form_registry():
    psi = young.conjugate_closed_form(young.scaled_power(2.0))
    assert psi.kind == "scaled_power" and psi.p == 2.0
    psi = young.conjugate_closed_form(young.scaled_power(3.0))
    assert psi.p == pytest.approx(1.5)
    assert young.conjugate_closed_form(young.exp_type()).kind == "log_type"
    assert young.conjugate_closed_form(young.power(3.0)) == young.conjugate_power(3.0)


def test_conjugate_numeric_golden_values():
    assert young.conjugate_numeric(young.scaled_power(2.0), 3.0) == pytest.approx(
        GOLDEN["scaled_power2_conjugate_at_3"], rel=1e-8
    )
    assert young.conjugate_numeric(young.exp_type(), 1.0) == pytest.approx(
        GOLDEN["exp_type_conjugate_at_1"], rel=1e-7
    )
    assert young.conjugate_numeric(young.power(3.0), 2.0) == pytest.approx(
        GOLDEN["power3_conjugate_at_2"], rel=1e-7
    )


def test_conjugate_numeric_at_zero():
    assert young.conjugate_numeric(young.power(2.0), 0.0) == 0.0


def test_conjugate_numeric_brute_force_cross_check():
    # dense-grid brute force as a second, independent route
    phi = young.scaled_power(2.0)
    xs = np.linspace(0.0, 50.0, 400_001)
    brute = float(np.max(3.0 * xs - phi(xs)))
    assert young.conjugate_numeric(phi, 3.0) == pytest.approx(brute, abs=1e-6)


def test_conjugate_consistency_on_log_grid():
    ys = np.logspace(-3, 3, 40)
    for phi in (young.scaled_power(1.5), young.scaled_power(3.0), young.power(2.0), young.power(3.0), young.exp_type()):
        want = young.evaluate(young.conjugate_closed_form(phi), ys)
        got = young.conjugate_numeric(phi, ys)
        assert np.all(np.abs(got - want) <= 1e-6 * np.maximum(1.0, want))


def test_biconjugation_recovers_scaled_power():
    phi = young.scaled_power(2.5)
    psi = young.conjugate_closed_form(phi)
    xs = np.logspace(-2, 2, 15)
    twice = young.conjugate_numeric(psi, xs)
    want = phi(xs)
    assert np.all(np.abs(twice - want) <= 1e-5 * np.maximum(1.0, want))


def test_bracket_failure_for_linear_growth():
    # x**(1 + 1e-9) stays below 2x until x = 2**(1e9): far past 512 doublings from x = 1.
    with pytest.raises(BracketFailure):
        young.conjugate_numeric(young.power(1.0 + 1e-9), 2.0)


# The scalar ternary search that conjugate_numeric runs on every row at once,
# kept as its oracle.  phi is evaluated on 1-element arrays: a 0-d x**p takes
# another libm route and can differ from the array loop in the last ulp.
def conjugate_scalar(phi, y):
    y = float(y)
    if y < 0:
        raise ValueError("conjugate argument must be nonnegative")
    if y == 0.0:
        return 0.0

    def obj(x):
        v = x * y - float(young.evaluate(phi, np.array([x]))[0])
        return v if math.isfinite(v) else -math.inf

    hi = 1.0
    prev = obj(hi)
    for _ in range(512):
        nxt = obj(2.0 * hi)
        if nxt < prev:
            hi *= 2.0
            break
        hi *= 2.0
        prev = nxt
    else:
        raise BracketFailure(f"no bracket for the conjugate of {phi.kind} at y = {y}")

    lo = 0.0
    best = max(0.0, obj(hi))
    for _ in range(2000):
        if hi - lo <= young.CONJUGATE_TOL * max(1.0, lo):
            break
        m1 = lo + (hi - lo) / 3.0
        m2 = hi - (hi - lo) / 3.0
        v1, v2 = obj(m1), obj(m2)
        best = max(best, v1, v2)
        if v1 < v2:
            lo = m1
        elif v1 > v2:
            hi = m2
        else:
            lo, hi = m1, m2
    return max(best, obj(0.5 * (lo + hi)))


def bits(values):
    return np.asarray(values, dtype=float).view(np.int64).tolist()


# power 1.5 is the kind whose 0-d and array x**p differ in the last ulp.
ALL_KINDS = [
    young.power(1.5),
    young.scaled_power(2.0),
    young.conjugate_power(3.0),
    young.exp_type(),
    young.log_type(),
]


def test_every_row_has_test_cases():
    # A new row of the kind table fails here until ALL_KINDS holds a case of it.
    assert {phi.kind for phi in ALL_KINDS} == set(young._KINDS)


# EVAL_BATCH + 3 signed values over about [1e-4, 1e3] with 0, -0.0, a tiny and an
# overflowing one.  The evaluate tests run at _BATCH = EVAL_BATCH, so the
# Newton kinds fill a second block of 3 values, and the scalar loop stays short.
EVAL_BATCH = 64
EVAL_X = np.concatenate(
    ([0.0, -0.0, 1e-300, 800.0], np.exp(np.random.default_rng(4).uniform(-9.2, 6.9, EVAL_BATCH - 1)))
)
EVAL_X[1::3] *= -1.0


@functools.cache
def evaluated_one_by_one(phi):
    return np.array([young.evaluate(phi, float(x)) for x in EVAL_X])


EVAL_INPUTS = {
    "strided": lambda x: x[::2],
    "transposed": lambda x: x[:12].reshape(3, 4).T,
    "0-d": lambda x: np.array(x[3]),
    "float": lambda x: float(x[5]),
    "two-blocks": lambda x: x,
}


@pytest.mark.parametrize("work", [False, True], ids=["no-work", "work"])
@pytest.mark.parametrize("given_out", [False, True], ids=["new-out", "given-out"])
@pytest.mark.parametrize("shape", EVAL_INPUTS)
@pytest.mark.parametrize("phi", ALL_KINDS, ids=lambda phi: phi.kind)
def test_evaluate_is_the_scalar_loop_bitwise(phi, shape, given_out, work, monkeypatch):
    monkeypatch.setattr(young, "_BATCH", EVAL_BATCH)
    x, want = (EVAL_INPUTS[shape](a) for a in (EVAL_X.copy(), evaluated_one_by_one(phi)))
    out = np.empty(np.shape(x)) if given_out else None
    got = young.evaluate(phi, x, out=out, work=young.Workspace() if work else None)
    assert (type(got) is float) == (np.ndim(x) == 0 and not given_out)
    if given_out:
        assert got is out
    assert bits(np.ravel(got)) == bits(np.ravel(want))


@pytest.mark.parametrize("layout", ["read-only", "strided", "transposed", "in-place"])
@pytest.mark.parametrize("phi", ALL_KINDS, ids=lambda phi: phi.kind)
def test_inverse_solves_in_place_only_a_writeable_contiguous_target(phi, layout):
    ts = evaluated_one_by_one(phi)
    ts = ts[np.isfinite(ts)][:60]
    t = {"strided": ts[::2], "transposed": ts.reshape(6, 10).T}.get(layout, ts.copy())
    if layout == "read-only":
        t.flags.writeable = False
    before, want = bits(t.ravel()), bits(young.inverse(phi, t).ravel())
    got = young.inverse(phi, t, young.Workspace())
    assert bits(got.ravel()) == want
    if layout == "in-place":
        assert got is t
    else:
        assert got is not t and bits(t.ravel()) == before


# Grids for conjugate_numeric, all three at its one tolerance: the
# young-calculus suite's (its one caller), three points, and a coarse 9-point
# log grid.  The keys name the test ids, so the last two stay as they are.
CALLER_GRIDS = {
    "young-calculus": np.logspace(-3, 3, 64),
    "verify-pair": np.array([0.25, 1.0, 4.0]),
    "materialize": np.logspace(-2, 2, 9),
}


@pytest.mark.parametrize("grid", CALLER_GRIDS)
@pytest.mark.parametrize("phi", ALL_KINDS, ids=lambda phi: f"{phi.kind}-{phi.p}")
def test_batched_conjugate_is_the_scalar_oracle_bitwise(phi, grid):
    ys = np.concatenate(([0.0], CALLER_GRIDS[grid], [0.0]))
    want = {}
    for y in ys:
        try:
            want[y] = conjugate_scalar(phi, y)
        except BracketFailure:
            pass  # log_type past y = 355: its maximiser lies beyond 2**512
    solved = np.array([y in want for y in ys])
    if not solved.all():
        with pytest.raises(BracketFailure):
            young.conjugate_numeric(phi, ys)
    got = young.conjugate_numeric(phi, ys[solved])
    assert bits(got) == bits([want[y] for y in ys[solved]])


@pytest.mark.parametrize(
    "phi, ys",
    [
        (young.power(1.0 + 1e-9), [0.5, 2.0, 0.0]),
        (young.log_type(), [1.0, 356.0, 354.0, 400.0]),
    ],
    ids=["near-linear", "log_type-past-355"],
)
def test_a_row_without_a_bracket_fails_both_routes(phi, ys):
    with pytest.raises(BracketFailure):
        [conjugate_scalar(phi, y) for y in ys]
    with pytest.raises(BracketFailure):
        young.conjugate_numeric(phi, np.array(ys))


def test_bracket_failure_names_the_first_failing_y():
    phi = young.log_type()
    # The maximiser of x*y - phi(x) is e**y - 1, which passes 2**512 near y = 512 log 2 = 354.9.
    assert young.conjugate_numeric(phi, 354.0) == pytest.approx(young.exp_type()(354.0), rel=1e-6)
    with pytest.raises(BracketFailure, match=r"y = 356\b.*2\*\*512"):
        young.conjugate_numeric(phi, np.array([1.0, 354.0, 356.0, 400.0]))
    with pytest.raises(BracketFailure, match=r"y = 400\b"):
        young.conjugate_numeric(phi, np.array([400.0, 356.0]))


@pytest.mark.parametrize("phi", ALL_KINDS[:4], ids=lambda phi: f"{phi.kind}-{phi.p}")
def test_a_row_alone_equals_its_value_in_a_batch(phi):
    ys = np.logspace(-3, 3, 64)
    batch = young.conjugate_numeric(phi, ys)
    assert bits(batch[::7]) == bits([young.conjugate_numeric(phi, y) for y in ys[::7]])


def test_conjugate_numeric_input_shapes():
    phi = young.scaled_power(2.0)
    for y in (3.0, 3, np.float64(3.0), np.array(3.0)):
        got = young.conjugate_numeric(phi, y)
        assert type(got) is float and got == pytest.approx(4.5, rel=1e-8)
    grid = young.conjugate_numeric(phi, np.array([[0.0, 1.0], [2.0, 3.0]]))
    assert grid.shape == (2, 2) and bits(grid.ravel()) == bits(young.conjugate_numeric(phi, [0.0, 1.0, 2.0, 3.0]))
    assert young.conjugate_numeric(phi, np.array([])).shape == (0,)


@pytest.mark.parametrize("ys", [-1.0, [1.0, -1e-300, 2.0], [0.0, -math.inf]])
def test_conjugate_numeric_rejects_a_negative_row(ys):
    with pytest.raises(ValueError):
        young.conjugate_numeric(young.power(2.0), ys)


# growth conditions


def test_delta2_power_constant_matches_analytic():
    for p in (1.5, 2.0, 3.0):
        cert = young.check_delta2(young.power(p))
        assert cert == pytest.approx(young.SAFETY_FACTOR * 2.0**p, rel=1e-9)


def test_delta2_scaled_power_two():
    cert = young.check_delta2(young.scaled_power(2.0))
    assert cert == pytest.approx(young.SAFETY_FACTOR * 4.0, rel=1e-9)


def test_delta2_absent_for_exp_type():
    assert young.check_delta2(young.exp_type()) is None


def test_delta2_empirical_sup_grows_for_exp_type():
    phi = young.exp_type()
    sups = []
    for hi in (10.0, 20.0, 40.0):
        xs = np.logspace(-3, np.log10(hi), 512)
        sups.append(float(np.max(phi(2 * xs) / phi(xs))))
    assert sups[0] < sups[1] < sups[2]


def test_delta_prime_power_is_exactly_multiplicative():
    cert = young.check_delta_prime(young.power(2.0))
    assert cert == pytest.approx(young.SAFETY_FACTOR, rel=1e-9)


def test_delta_prime_scaled_power_constant_p():
    cert = young.check_delta_prime(young.scaled_power(3.0))
    assert cert == pytest.approx(young.SAFETY_FACTOR * 3.0, rel=1e-6)


def test_delta_prime_implies_delta2():
    for phi in (young.power(2.0), young.scaled_power(2.0), young.scaled_power(3.0)):
        if young.check_delta_prime(phi) is not None:
            assert young.check_delta2(phi) is not None


def test_nabla_prime_power_unit_factor():
    cert = young.check_nabla_prime(young.power(2.0))
    # the bisected factor is 1 within 1e-6, and the safety factor only raises it
    assert cert == pytest.approx(young.SAFETY_FACTOR, abs=young.SAFETY_FACTOR * 1e-6)
    assert cert >= 1.0


def test_ordering_same_function():
    cert = young.check_ordering(young.power(2.0), young.power(2.0))
    assert cert == pytest.approx(1.0, rel=1e-6)


def test_ordering_higher_power_dominates_above_one():
    grid = young.GridSpec(lo=1.0, hi=1e3, n=512)
    cert = young.check_ordering(young.power(3.0), young.power(2.0), grid=grid)
    assert cert is not None
    assert cert <= 1.0 + 1e-9


def test_ordering_absent_when_growth_outpaces():
    cert = young.check_ordering(young.power(2.0), young.power(3.0))
    assert cert is None


# check_delta2 and check_delta_prime pinned to the bit, so that no change to
# _certify or to either side moves a constant; exp_type has neither.
CERTIFICATE_PINS = [
    (young.power(1.5), 2.8567113959936528, 1.0100000000000005),
    (young.power(2.0), 4.04, 1.0100000000000005),
    (young.power(3.0), 8.08, 1.0100000000000007),
    (young.scaled_power(2.0), 4.04, 2.020000000000001),
    (young.scaled_power(2.5), 5.7134227919873055, 2.5250000000000017),
    (young.scaled_power(3.0), 8.08, 3.0300000000000025),
    (young.conjugate_power(3.0), 2.856711395993653, 2.6240569734668506),
    (young.exp_type(), None, None),
    (young.log_type(), 4.038654902369619, 131.9504847601564),
]


@pytest.mark.parametrize("phi, delta2, delta_prime", CERTIFICATE_PINS, ids=lambda v: getattr(v, "kind", None))
def test_certificates_are_pinned_to_the_bit(phi, delta2, delta_prime):
    assert young.check_delta2(phi) == delta2
    assert young.check_delta_prime(phi) == delta_prime


def test_certify_takes_the_sup_on_three_grids_and_bounds_the_last():
    seen = []

    def sides(m):
        seen.append(m)
        xs = np.arange(1.0, m + 1.0)
        return 2.0 * xs, xs

    assert young._certify(sides, 5) == 2.0 * young.SAFETY_FACTOR
    assert seen == [5, 10, 20]  # the final bound reuses the 20-point arrays


@pytest.mark.parametrize(
    "sides",
    [
        lambda m: (np.ones(m), np.zeros(m)),  # the ratio is inf
        lambda m: (np.zeros(m), np.zeros(m)),  # the ratio is NaN
        lambda m: (np.full(m, float(m)), np.ones(m)),  # the sup doubles with the grid
        lambda m: (-np.ones(m), -np.ones(m)),  # ratio 1, but -1 > 1.01 * -1
    ],
    ids=["infinite-ratio", "nan-ratio", "unstable-sups", "final-bound-fails"],
)
def test_certify_returns_none(sides):
    assert young._certify(sides, 4) is None


def test_certificates_validate_on_fresh_grid():
    # the stored constant must hold on a grid the checker never saw
    cert = young.check_delta2(young.scaled_power(2.5))
    xs = np.logspace(-2.7, 2.7, 1777)
    phi = young.scaled_power(2.5)
    assert np.all(phi(2 * xs) <= cert * phi(xs))


# product convexity and the two-function inequality


def test_product_convexity_reports_failure_honestly():
    phi = young.scaled_power(2.0)
    rep = young.check_product_convexity(phi, phi)
    assert not rep.holds
    x, y = rep.worst_point
    # analytic determinant: x^2 y^2 (1/4 - 1) < 0
    assert rep.worst_value < 0
    assert rep.worst_value == pytest.approx(-(3.0 / 4.0) * x * x * y * y, rel=1e-3)


def test_finite_difference_second_derivative_accuracy():
    phi = young.power(4.0)
    grid = young.GridSpec(n=256)
    xs = grid.points()
    _, d1, d2 = young._derivatives_fd(phi, xs)
    assert np.max(np.abs(d1 - 4 * xs**3) / np.maximum(1.0, 4 * xs**3)) <= 1e-5
    assert np.max(np.abs(d2 - 12 * xs**2) / np.maximum(1.0, 12 * xs**2)) <= 1e-5


def test_young_inequality_conjugate_pair_touching_point():
    phi = young.scaled_power(2.0)
    # x = y = 1 is the equality case: 1 <= 0.5 + 0.5
    assert 1.0 <= phi(1.0) + phi(1.0) + 1e-15


def test_young_inequality_samples():
    phi = young.scaled_power(3.0)
    psi = young.conjugate_closed_form(phi)
    assert young.young_inequality_check(phi, psi, samples=10_000, seed=42) <= 1e-9


@settings(max_examples=40, deadline=None)
@given(
    st.floats(min_value=0.0, max_value=100.0),
    st.floats(min_value=0.0, max_value=100.0),
)
def test_young_inequality_property(x, y):
    phi = young.scaled_power(2.0)
    psi = young.conjugate_closed_form(phi)
    assert x * y <= float(phi(x)) + float(psi(y)) + 1e-9 * max(1.0, x * y)


# construction and serialization


def test_bad_parameters_rejected():
    with pytest.raises(ConfigError):
        young.power(1.0)
    with pytest.raises(ConfigError):
        young.scaled_power(0.5)
    with pytest.raises(ConfigError):
        young.YoungFunction("mystery")
    with pytest.raises(ConfigError, match="young.kind: unknown kind"):
        young.YoungFunction(["power"])  # unhashable: the kind table cannot look it up


@pytest.mark.parametrize("kind", ["exp_type", "log_type"])
def test_a_kind_that_takes_no_p_refuses_one(kind):
    # A kept p would make the function unequal to its constructor's, so every memo keyed by phi would miss.
    with pytest.raises(ConfigError, match=r"young\.p: .* takes no p, got 3\.0"):
        young.YoungFunction(kind, 3.0)
    assert young.from_config({"kind": kind, "p": 3.0}) == young.YoungFunction(kind)


def test_a_new_kind_is_one_row(monkeypatch):
    # |x|**4 / 4, whose conjugate is |y|**(4/3) / (4/3); nothing but the row is added.
    monkeypatch.setitem(
        young._KINDS, "quartic", young._Kind(lambda phi: young.scaled_power(4.0 / 3.0), power=lambda p: (1.0, 4.0, 4.0))
    )
    phi = young.from_config({"kind": "quartic"})
    assert phi == young.YoungFunction("quartic") and phi.p is None
    xs = np.array([-3.0, 0.0, 0.5, 1.0, 2.0])
    assert np.allclose(young.evaluate(phi, xs), xs**4 / 4.0, rtol=1e-15, atol=0.0)
    assert np.allclose(young.derivative(phi, xs), np.abs(xs) ** 3, rtol=1e-15, atol=0.0)
    assert np.allclose(young.inverse(phi, xs**4 / 4.0), np.abs(xs), rtol=1e-15, atol=0.0)
    assert young.conjugate_closed_form(phi) == young.scaled_power(4.0 / 3.0)
    scenario = scenarios.from_config(
        {
            "name": "quartic",
            "space": {"type": "symmetric", "n_half": 2},
            "young": {"kind": "quartic"},
            "u": {"type": "generator", "name": "identity"},
        }
    )
    report = run_suite("young-calculus", scenarios.materialize(scenario))
    assert report["passed"], report
    assert next(c for c in report["checks"] if c["name"] == "doubling_certificate")["certificate_present"]


def test_config_round_trip():
    for fragment, phi in (
        ({"kind": "scaled_power", "p": 2.0}, young.scaled_power(2.0)),
        ({"kind": "power", "p": 3}, young.power(3.0)),
        ({"kind": "exp_type"}, young.exp_type()),
        ({"kind": "log_type"}, young.log_type()),
        ({"kind": "exp_type", "p": 3}, young.exp_type()),  # a stray p is ignored, so memos keyed by phi match
    ):
        assert young.from_config(fragment) == phi


def test_config_fragment_shapes():
    phi = young.from_config({"kind": "scaled_power", "p": 2.0})
    assert phi.kind == "scaled_power" and phi.p == 2.0
    with pytest.raises(ConfigError):
        young.from_config({"kind": "scaled_power"})
    with pytest.raises(ConfigError):
        young.from_config({"p": 2.0})
    with pytest.raises(ConfigError):
        young.from_config({"kind": "nope"})
    with pytest.raises(ConfigError, match="young.kind: unknown kind"):
        young.from_config({"kind": "piecewise_linear", "breakpoints": [0.0], "slopes": [1.0]})
