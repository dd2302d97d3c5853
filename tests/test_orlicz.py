"""Modular and Luxemburg norm: bisection route against closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczlab import orlicz, young
from orliczlab.errors import BracketFailure, PreconditionViolated, SpaceMismatch
from orliczlab.measure import MeasureSpace, Partition
from orliczlab.orlicz import (
    contraction_check,
    indicator_norm,
    luxemburg_norm,
    luxemburg_norm_closed_form,
    modular,
)


def unit_space(n):
    return MeasureSpace(np.full(n, 1.0 / n))


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


class TestBatch:
    """(..., n) input: one bisection over all rows, each row bitwise a single call."""

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
        # Zero rows need no bisection, so the length is checked up front.
        with pytest.raises(SpaceMismatch):
            luxemburg_norm(unit_space(3), young.power(2.0), f)

    def test_widened_rows_equal_single_calls_bitwise(self):
        # Rounding puts the theoretical bracket of a constant function just
        # outside the feasible set on this space, so the bisection must widen.
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
