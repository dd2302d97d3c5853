"""Modular and Luxemburg norm: the Newton route against the bisection oracle and closed forms."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczlab import orlicz, young
from orliczlab.errors import BracketFailure, PreconditionViolated, SpaceMismatch
from orliczlab.measure import MeasureSpace, Partition, _rows
from orliczlab.orlicz import contraction_check, luxemburg_norm, modular

from oracles import indicator_norm, luxemburg_norm_closed_form, random_space


def unit_space(n):
    return MeasureSpace(np.full(n, 1.0 / n))


def luxemburg_norm_bisect(space, phi, f, tol=orlicz.NORM_TOL):
    """The oracle for luxemburg_norm: the same bracket, then bisection in k.

    Each row's result is the upper end of a bracket no wider than
    tol * max(1, hi), so it is feasible and within that width of the norm.
    It shares `modular` and the bracket's upper end with the Newton route.
    """
    f = _rows(space, f)
    rows = f.reshape(-1, space.n_atoms)
    peak = np.max(np.abs(rows), axis=-1, initial=0.0)
    hi = np.zeros_like(peak)
    live = np.flatnonzero(peak != 0.0)
    if live.size:
        hi[live] = peak[live] / young.inverse(phi, 1.0 / space.total)
    # Numerical slack at the theoretical bracket; widen until feasible.  A NaN
    # modular is not > 1, so it counts as feasible.
    wide = live[modular(space, phi, rows[live] / hi[live, None]) > 1.0]
    for _ in range(200):
        if not wide.size:
            break
        hi[wide] *= 2.0
        wide = wide[modular(space, phi, rows[wide] / hi[wide, None]) > 1.0]
    if wide.size:
        raise BracketFailure("no feasible scale for the Luxemburg norm within 200 doublings")
    lo = np.zeros_like(hi)
    # The stop tests are negated `<=`, not `>`, so a NaN row keeps bisecting.
    for _ in range(200):
        mid = 0.5 * (lo[live] + hi[live])
        go = ~(mid <= 0.0)
        live, mid = live[go], mid[go]
        if not live.size:
            break
        feasible = modular(space, phi, rows[live] / mid[:, None]) <= 1.0
        hi[live[feasible]] = mid[feasible]
        lo[live[~feasible]] = mid[~feasible]
        live = live[~(hi[live] - lo[live] <= tol * np.maximum(1.0, hi[live]))]
    if f.ndim == 1:
        return float(hi[0])
    return hi.reshape(f.shape[:-1])


class TestModular:
    def test_matches_compensated_sum(self):
        rng = np.random.default_rng(20)
        space = MeasureSpace(rng.uniform(0.1, 10.0, 50))
        phi = young.scaled_power(2.5)
        f = rng.normal(0.0, 5.0, 50)
        want = math.fsum(
            w * abs(v) ** 2.5 / 2.5 for w, v in zip(space.weights, f)
        )
        assert modular(space, phi, f) == pytest.approx(want, rel=1e-13)

    def test_scales_with_the_young_function(self):
        space = unit_space(4)
        f = np.array([1.0, 2.0, 3.0, 4.0])
        m2 = modular(space, young.power(2.0), f)
        assert m2 == pytest.approx((1 + 4 + 9 + 16) / 4.0)


class TestLuxemburgNorm:
    @pytest.mark.parametrize("p", [1.5, 2.0, 3.0, 7.0])
    def test_matches_closed_form_power(self, p):
        rng = np.random.default_rng(int(p * 10))
        space = MeasureSpace(rng.uniform(0.1, 10.0, 12))
        f = rng.normal(0.0, 3.0, 12)
        for phi in (young.power(p), young.scaled_power(p)):
            want = luxemburg_norm_closed_form(space, phi, f)
            got = luxemburg_norm(space, phi, f)
            assert got == pytest.approx(want, rel=1e-8)

    def test_matches_closed_form_conjugate_power(self):
        space = unit_space(6)
        rng = np.random.default_rng(21)
        f = rng.normal(0.0, 2.0, 6)
        phi = young.conjugate_power(3.0)
        want = luxemburg_norm_closed_form(space, phi, f)
        assert luxemburg_norm(space, phi, f) == pytest.approx(want, rel=1e-8)

    def test_no_closed_form_for_exp_type(self):
        assert luxemburg_norm_closed_form(unit_space(2), young.exp_type(), [1.0, 1.0]) is None

    def test_zero_function_has_zero_norm(self):
        assert luxemburg_norm(unit_space(5), young.power(2.0), np.zeros(5)) == 0.0

    def test_upper_end_convention_keeps_modular_feasible(self):
        rng = np.random.default_rng(22)
        space = MeasureSpace(rng.uniform(0.1, 10.0, 9))
        for phi in (young.scaled_power(2.0), young.exp_type()):
            f = rng.normal(0.0, 4.0, 9)
            norm = luxemburg_norm(space, phi, f)
            assert modular(space, phi, f / norm) <= 1.0

    def test_norm_is_the_infimum(self):
        # Slightly below the returned value the modular must exceed 1.
        rng = np.random.default_rng(23)
        space = MeasureSpace(rng.uniform(0.5, 2.0, 7))
        phi = young.exp_type()
        f = rng.normal(0.0, 2.0, 7)
        norm = luxemburg_norm(space, phi, f)
        assert modular(space, phi, f / (norm * (1.0 - 1e-3))) > 1.0

    def test_indicator_norm_identity_both_routes(self):
        rng = np.random.default_rng(24)
        space = MeasureSpace(rng.uniform(0.1, 10.0, 10))
        for phi in (young.power(2.0), young.scaled_power(3.0), young.exp_type()):
            atoms = rng.permutation(10)[:4]
            chi = np.zeros(10)
            chi[atoms] = 1.0
            formula = indicator_norm(space, phi, atoms)
            mass = float(np.sum(space.weights[atoms]))
            direct = 1.0 / young.inverse(phi, 1.0 / mass)
            assert formula == pytest.approx(direct, rel=1e-12)
            assert luxemburg_norm(space, phi, chi) == pytest.approx(formula, rel=1e-8)

    def test_modular_that_cancels_to_zero(self):
        # At the second atom's scale expm1(x) - x and (1+y) log1p(y) - y cancel
        # to 0, so every scale below the bracket looks feasible: bisection from 0
        # runs out of halvings at 4.4e92.  The single-atom lower end,
        # 1e-3 / phi^{-1}(1e-300) from the series inverse, holds the norm.
        space = MeasureSpace([1.0, 1e300])
        f = np.array([1e3, 1e-3])
        want = 1e-3 * math.sqrt(0.5e300)
        for phi in (young.exp_type(), young.log_type()):
            assert luxemburg_norm(space, phi, f) == pytest.approx(want, rel=orlicz.NORM_TOL)
        assert luxemburg_norm(space, young.power(2.0), f) == pytest.approx(math.sqrt(1e6 + 1e294), rel=1e-15)

    def test_indicator_norm_needs_positive_mass(self):
        with pytest.raises(PreconditionViolated):
            indicator_norm(unit_space(3), young.power(2.0), np.array([], dtype=int))

    def test_homogeneity(self):
        rng = np.random.default_rng(25)
        space = MeasureSpace(rng.uniform(0.5, 2.0, 8))
        phi = young.exp_type()
        f = rng.normal(0.0, 1.0, 8)
        base = luxemburg_norm(space, phi, f)
        for c in (0.25, 3.0, -7.0):
            assert luxemburg_norm(space, phi, c * f) == pytest.approx(
                abs(c) * base, rel=1e-8
            )

    def test_triangle_inequality(self):
        rng = np.random.default_rng(26)
        space = MeasureSpace(rng.uniform(0.5, 2.0, 8))
        phi = young.scaled_power(2.5)
        for _ in range(20):
            f = rng.normal(0.0, 3.0, 8)
            g = rng.normal(0.0, 3.0, 8)
            nfg = luxemburg_norm(space, phi, f + g)
            nf = luxemburg_norm(space, phi, f)
            ng = luxemburg_norm(space, phi, g)
            assert nfg <= (nf + ng) * (1.0 + 1e-9) + 1e-12

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_definiteness(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 9))
        space = MeasureSpace(rng.uniform(0.1, 10.0, n))
        phi = young.scaled_power(float(rng.uniform(1.2, 4.0)))
        f = rng.normal(0.0, 2.0, n)
        norm = luxemburg_norm(space, phi, f)
        assert (norm == 0.0) == bool(np.all(f == 0.0))
        assert norm >= 0.0

    def test_infeasible_bracket_fails_loudly(self, monkeypatch):
        # A modular that never drops to 1: every widened bracket stays infeasible.
        # It returns one value per row, as the batched bisection expects.
        monkeypatch.setattr(orlicz, "modular", lambda space, phi, f: np.full(np.shape(f)[:-1], 2.0))
        with pytest.raises(BracketFailure):
            luxemburg_norm(unit_space(2), young.scaled_power(2.0), np.ones(2))


def same_bits(a, b):
    """Bitwise equality of float arrays, NaN matching NaN."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


SUPERLINEAR = (
    young.power(2.0),
    young.scaled_power(2.5),
    young.conjugate_power(3.0),
    young.exp_type(),
    young.log_type(),
)


def oracle_rows(rng, n):
    """Rows over twelve decades, with a zero, a half-zero, an all-inf and a NaN row."""
    fs = rng.normal(0.0, 1.0, (9, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (9, 1))
    fs[0] = 0.0
    fs[1, : (n + 1) // 2] = 0.0
    fs[2] = np.inf
    fs[3, n // 2] = np.nan
    return fs


class TestAgainstBisectionOracle:
    """The Newton route lands within the oracle's bracket, feasible and tight."""

    @staticmethod
    def solve(phi, n):
        rng = np.random.default_rng(n)
        space = random_space(rng, n)
        fs = oracle_rows(rng, n)
        with np.errstate(invalid="ignore"):  # inf / inf in the all-inf row
            got = luxemburg_norm(space, phi, fs)
            want = luxemburg_norm_bisect(space, phi, fs)
        finite = [i for i, f in enumerate(fs) if np.all(np.isfinite(f)) and np.any(f != 0.0)]
        return space, fs, got, want, finite

    @pytest.mark.parametrize("n", [1, 8, 63, 128, 2048])
    @pytest.mark.parametrize("phi", SUPERLINEAR, ids=lambda phi: phi.kind)
    def test_within_the_oracle_bracket(self, phi, n):
        space, fs, got, want, finite = self.solve(phi, n)
        assert got[0] == want[0] == 0.0 and got[2] == want[2] == math.inf
        assert math.isnan(got[3]) and math.isnan(want[3])
        for i in finite:
            k, b = got[i], want[i]
            assert b - orlicz.NORM_TOL * max(1.0, b) <= k <= b + 4.0 * np.spacing(b)
            assert modular(space, phi, fs[i] / k) <= 1.0

    @pytest.mark.parametrize("n", [1, 8, 63, 128, 2048])
    @pytest.mark.parametrize("phi", SUPERLINEAR, ids=lambda phi: phi.kind)
    def test_tight(self, phi, n):
        # The oracle stops anywhere in a bracket of width NORM_TOL * max(1, k);
        # the Newton route stops within a few ulps of the smallest feasible scale.
        space, fs, got, _, finite = self.solve(phi, n)
        for i in finite:
            assert modular(space, phi, fs[i] / (got[i] * (1.0 - 1e-12))) > 1.0

    @pytest.mark.parametrize("phi", SUPERLINEAR, ids=lambda phi: phi.kind)
    def test_bisection_fallback_without_a_slope(self, phi, monkeypatch):
        # With a NaN slope every Newton step is rejected, so each row is solved
        # by bisection in log k alone and stops on the bracket width.
        monkeypatch.setattr(orlicz, "derivative", lambda phi, x: np.full(np.shape(x), np.nan))
        rng = np.random.default_rng(50)
        space = random_space(rng, 16)
        fs = oracle_rows(rng, 16)[4:]
        got = luxemburg_norm(space, phi, fs)
        want = luxemburg_norm_bisect(space, phi, fs)
        assert np.all(np.abs(got - want) <= orlicz.NORM_TOL * np.maximum(1.0, want))
        assert np.all(modular(space, phi, fs / got[:, None]) <= 1.0)

    def test_iteration_cap_fails_loudly(self, monkeypatch):
        # Feasible only at the bracket's upper end, where max|f/k| = 1, and one
        # ulp above 1 everywhere below it: Newton converges at once, and only
        # the doubling step-up, about 50 passes, reaches a feasible scale.
        def stuck(space, phi, f):
            return np.where(np.max(np.abs(f), axis=-1) <= 1.0, 0.5, 1.0 + 2.0**-52)

        monkeypatch.setattr(orlicz, "modular", stuck)
        assert luxemburg_norm(unit_space(2), young.power(2.0), np.ones(2)) == 1.0
        monkeypatch.setattr(orlicz, "_NEWTON_ITERS", 30)
        with pytest.raises(BracketFailure, match="did not settle"):
            luxemburg_norm(unit_space(2), young.power(2.0), np.ones(2))


class TestBatch:
    """(..., n) input: one solve over all rows, each row bitwise a single call."""

    @pytest.mark.parametrize("n", [1, 5, 64])
    def test_rows_equal_single_calls_bitwise(self, n):
        rng = np.random.default_rng(40 + n)
        space = MeasureSpace(rng.uniform(0.1, 3.0, n))
        for phi in SUPERLINEAR:
            fs = rng.normal(0.0, 1.0, (7, n)) * 10.0 ** rng.uniform(-6.0, 6.0, (7, 1))
            fs[0] = 0.0
            fs[1, : (n + 1) // 2] = 0.0
            fs[2] = np.inf
            with np.errstate(invalid="ignore"):  # inf / inf in the all-inf row
                norms = luxemburg_norm(space, phi, fs)
                singles = [luxemburg_norm(space, phi, f) for f in fs]
                assert same_bits(modular(space, phi, fs), [modular(space, phi, f) for f in fs])
                assert same_bits(luxemburg_norm(space, phi, fs.reshape(7, 1, n)), norms.reshape(7, 1))
            assert same_bits(norms, singles)
            assert all(type(x) is float for x in singles)
            assert norms[0] == 0.0 and norms[2] == math.inf

    def test_empty_batch(self):
        norms = luxemburg_norm(unit_space(3), young.power(2.0), np.zeros((0, 3)))
        assert norms.shape == (0,)

    @pytest.mark.parametrize("f", [np.zeros(2), np.zeros(0), np.zeros((4, 2)), 1.0])
    def test_rejects_a_wrong_trailing_length(self, f):
        # Zero rows need no solve, so the length is checked up front.
        with pytest.raises(SpaceMismatch):
            luxemburg_norm(unit_space(3), young.power(2.0), f)

    def test_widened_rows_equal_single_calls_bitwise(self):
        # Rounding puts the theoretical bracket of a constant function just
        # outside the feasible set on this space, so the bracket must widen.
        space = MeasureSpace([1.361, 0.314, 0.775])
        phi = young.scaled_power(2.0)
        assert modular(space, phi, np.ones(3) / (1.0 / young.inverse(phi, 1.0 / space.total))) > 1.0
        fs = np.array([[1.0, 1.0, 1.0], [0.0, 0.0, 0.0], [1.0, -2.0, 0.5]])
        norms = luxemburg_norm(space, phi, fs)
        assert same_bits(norms, [luxemburg_norm(space, phi, f) for f in fs])
        assert modular(space, phi, fs[0] / norms[0]) <= 1.0

    def test_one_unbracketable_row_fails_the_batch(self, monkeypatch):
        # An inverse 2**220 too large shrinks every bracket by that factor.  With
        # phi = x**2 the row peaking on the atom of weight 1e-30 needs about 171
        # doublings and succeeds; the flat row needs about 220 and fails.
        space = MeasureSpace([1e-30, 1.0])
        phi = young.power(2.0)
        monkeypatch.setattr(orlicz, "inverse", lambda phi, t: 2.0**220)
        fs = np.array([[1.0, 0.0], [-3.0, 0.0], [0.0, 0.0]])
        norms = luxemburg_norm(space, phi, fs)
        assert same_bits(norms, [luxemburg_norm(space, phi, f) for f in fs])
        assert norms[0] == pytest.approx(1e-15, rel=1e-9)
        with pytest.raises(BracketFailure):
            luxemburg_norm(space, phi, np.array([[1.0, 0.0], [1.0, 1.0]]))

    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_batch_is_invariant_under_atom_permutation(self, seed):
        # Permuting atoms reorders the modular's sum, so each norm may move
        # within its final bracket, NORM_TOL * max(1, norm), but no further.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        weights = rng.uniform(0.1, 10.0, n)
        phi = SUPERLINEAR[seed % len(SUPERLINEAR)]
        fs = rng.normal(0.0, 1.0, (6, n)) * 10.0 ** rng.uniform(-3.0, 3.0, (6, 1))
        perm = rng.permutation(n)
        norms = luxemburg_norm(MeasureSpace(weights), phi, fs)
        permuted = luxemburg_norm(MeasureSpace(weights[perm]), phi, fs[:, perm])
        assert np.all(np.abs(permuted - norms) <= 2 * orlicz.NORM_TOL * np.maximum(1.0, norms))

    def test_contraction_rows_equal_single_calls_bitwise(self):
        rng = np.random.default_rng(44)
        space = MeasureSpace(rng.uniform(0.5, 2.0, 9))
        part = Partition(np.arange(9) % 4)
        for phi in (young.scaled_power(2.0), young.exp_type()):
            fs = rng.normal(0.0, 3.0, (20, 9))
            fs[3] = 0.0
            batch = contraction_check(space, part, phi, fs)
            singles = [contraction_check(space, part, phi, f) for f in fs]
            assert batch["holds"] is True
            for key in ("norm_f", "norm_Ef", "slack"):
                assert same_bits(batch[key], [s[key] for s in singles])
            assert all(type(s["norm_f"]) is float for s in singles)


class TestContraction:
    @given(st.integers(0, 10_000))
    @settings(max_examples=40, deadline=None)
    def test_projection_never_expands(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        space = MeasureSpace(rng.uniform(0.5, 2.0, n))
        part = Partition(np.arange(n) % int(rng.integers(1, n + 1)))
        phi = young.scaled_power(float(rng.uniform(1.2, 4.0)))
        f = rng.normal(0.0, 3.0, n)
        assert contraction_check(space, part, phi, f)["holds"]

    def test_fixed_point_on_measurable_functions(self):
        space = unit_space(4)
        part = Partition([0, 0, 1, 1])
        phi = young.power(2.0)
        f = np.array([3.0, 3.0, -1.0, -1.0])
        report = contraction_check(space, part, phi, f)
        assert report["holds"]
        assert report["norm_Ef"] == pytest.approx(report["norm_f"], rel=1e-9)


class TestMonotonicity:
    def test_dominated_function_has_smaller_norm(self):
        rng = np.random.default_rng(27)
        space = MeasureSpace(rng.uniform(0.5, 2.0, 8))
        phi = young.exp_type()
        g = rng.normal(0.0, 2.0, 8)
        f = g * rng.uniform(0.0, 1.0, 8)
        # |f| <= |g| atomwise, so every scale feasible for g is feasible for f.
        assert luxemburg_norm(space, phi, f) <= luxemburg_norm(space, phi, g) * (1.0 + 1e-9) + 1e-9
