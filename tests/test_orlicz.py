"""Modular and Luxemburg norm: bisection route against closed-form oracles."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczlab import orlicz, young
from orliczlab.errors import BracketFailure, NotSuperlinear, PreconditionViolated
from orliczlab.measure import MeasureSpace, Partition
from orliczlab.orlicz import (
    contraction_check,
    indicator_norm,
    luxemburg_norm,
    luxemburg_norm_closed_form,
    modular,
    norm_monotonicity_check,
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

    def test_rejects_non_superlinear_kind(self):
        phi = young.piecewise_linear([0.0, 1.0], [0.0, 2.0])
        with pytest.raises(NotSuperlinear):
            luxemburg_norm(unit_space(2), phi, np.ones(2))

    def test_infeasible_bracket_fails_loudly(self, monkeypatch):
        # A modular that never drops to 1: every widened bracket stays infeasible.
        monkeypatch.setattr(orlicz, "modular", lambda space, phi, f: 2.0)
        with pytest.raises(BracketFailure):
            luxemburg_norm(unit_space(2), young.scaled_power(2.0), np.ones(2))


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
        assert norm_monotonicity_check(space, phi, f, g)["holds"]

    def test_rejects_non_dominated_pair(self):
        space = unit_space(3)
        with pytest.raises(PreconditionViolated):
            norm_monotonicity_check(
                space, young.power(2.0), np.array([1.0, 5.0, 1.0]), np.ones(3)
            )
