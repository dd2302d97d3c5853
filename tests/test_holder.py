"""Conditional Hölder inequality: ratios, empirical constants, sufficient conditions."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczlab import young
from orliczlab.errors import ConjugateMismatch
from orliczlab.holder import (
    _ratio_atoms,
    conditional_holder_ratio,
    empirical_holder_constant,
    holder_from_domination,
    normalization_constants,
    verify_conjugate_pair,
)
from orliczlab.measure import (
    MeasureSpace,
    Partition,
    build_rotation_space,
    build_symmetric_space,
    domination_constant,
)


def scaled_pair(p):
    phi = young.scaled_power(p)
    return phi, young.conjugate_closed_form(phi)


class TestConjugatePairCheck:
    def test_accepts_registered_pairs(self):
        verify_conjugate_pair(*scaled_pair(2.0))
        verify_conjugate_pair(young.exp_type(), young.log_type())
        verify_conjugate_pair(young.power(3.0), young.conjugate_power(3.0))

    def test_rejects_a_mismatched_pair(self):
        with pytest.raises(ConjugateMismatch):
            verify_conjugate_pair(young.scaled_power(2.0), young.scaled_power(3.0))


class TestRatio:
    def test_constant_one_gives_ratio_one(self):
        space, part = build_symmetric_space(3)
        for phi, psi in (scaled_pair(2.0), (young.exp_type(), young.log_type())):
            ones = np.ones(space.n_atoms)
            ratio = conditional_holder_ratio(space, part, phi, psi, ones, ones)
            # E(1) = 1 and phi^{-1}(phi(1)) = 1, so the ratio is exactly 1.
            assert ratio == pytest.approx(1.0, rel=1e-9)

    def test_zero_function_gives_zero_ratio(self):
        space, part = build_symmetric_space(2)
        phi, psi = scaled_pair(2.0)
        zeros = np.zeros(space.n_atoms)
        g = np.ones(space.n_atoms)
        assert conditional_holder_ratio(space, part, phi, psi, zeros, g) == 0.0

    def test_ratio_atom_conventions(self):
        lhs = np.array([0.0, 2.0, 3.0])
        rhs = np.array([0.0, 0.0, 1.5])
        out = _ratio_atoms(lhs, rhs)
        assert out[0] == 0.0
        assert out[1] == math.inf
        assert out[2] == pytest.approx(2.0)

    def test_power_pair_is_scale_invariant(self):
        rng = np.random.default_rng(30)
        space, part = build_symmetric_space(4)
        phi, psi = scaled_pair(3.0)
        f = rng.normal(0.0, 2.0, 8)
        g = rng.normal(0.0, 2.0, 8)
        base = conditional_holder_ratio(space, part, phi, psi, f, g)
        for c in (1e-3, 1e3):
            scaled = conditional_holder_ratio(space, part, phi, psi, c * f, g)
            assert scaled == pytest.approx(base, rel=1e-9)

    @given(st.integers(0, 10_000), st.floats(1e-3, 1e3))
    @settings(max_examples=40, deadline=None)
    def test_invariant_under_weight_scaling(self, seed, c):
        # Every factor is a conditional expectation, a ratio of weighted sums,
        # so scaling every weight by c > 0 changes the ratio only by rounding.
        rng = np.random.default_rng(seed)
        n = int(rng.integers(1, 12))
        weights = rng.uniform(0.1, 10.0, n)
        part = Partition(np.arange(n) % int(rng.integers(1, n + 1)))
        phi, psi = (scaled_pair(3.0), (young.exp_type(), young.log_type()))[seed % 2]
        f, g = rng.normal(0.0, 2.0, (2, n))
        base = conditional_holder_ratio(MeasureSpace(weights), part, phi, psi, f, g, check_pair=False)
        scaled = conditional_holder_ratio(MeasureSpace(c * weights), part, phi, psi, f, g, check_pair=False)
        assert scaled == pytest.approx(base, rel=1e-12)


class TestEmpiricalConstant:
    def test_power_pair_never_exceeds_one(self):
        space, part = build_symmetric_space(4)
        report = empirical_holder_constant(
            space, part, *scaled_pair(2.0), budget=2_000, seed=1061, claimed_C=1.0
        )
        assert report.holds_with_claimed
        assert report.empirical_C <= 1.0 + 1e-9
        assert report.samples == 2_000

    def test_worst_pair_reproduces_the_reported_ratio(self):
        space, part = build_symmetric_space(4)
        phi, psi = young.exp_type(), young.log_type()
        report = empirical_holder_constant(space, part, phi, psi, budget=1_000, seed=7)
        again = conditional_holder_ratio(
            space, part, phi, psi, report.worst_f, report.worst_g
        )
        assert again == pytest.approx(report.empirical_C, rel=1e-9)


class TestNormalizationConstants:
    def test_bounded_by_young_function_at_domination_constant(self):
        space, part = build_symmetric_space(4)
        phi, psi = young.exp_type(), young.log_type()
        c0 = domination_constant(space, part)
        c1, c2 = normalization_constants(space, part, phi, psi, sample_budget=2_000, seed=1062)
        assert c1 <= young.evaluate(phi, c0) + 1e-9
        assert c2 <= young.evaluate(psi, c0) + 1e-9

    def test_sum_is_a_valid_constant_for_the_search(self):
        space, part = build_symmetric_space(3)
        phi, psi = young.exp_type(), young.log_type()
        c1, c2 = normalization_constants(space, part, phi, psi, sample_budget=1_000, seed=3)
        report = empirical_holder_constant(
            space, part, phi, psi, budget=2_000, seed=3, claimed_C=c1 + c2
        )
        assert report.holds_with_claimed


class TestDominationRoute:
    def test_symmetric_space_certifies_four(self):
        space, part = build_symmetric_space(4)
        phi, psi = young.exp_type(), young.log_type()
        report = holder_from_domination(space, part, phi, psi, budget=3_000, seed=1062)
        assert report.claimed_C == pytest.approx(4.0)
        assert report.holds_with_claimed

    def test_rotation_space_certifies_nine(self):
        space, part = build_rotation_space(3, 2)
        phi, psi = scaled_pair(3.0)
        report = holder_from_domination(space, part, phi, psi, budget=3_000, seed=1064)
        assert report.claimed_C == pytest.approx(9.0)
        assert report.holds_with_claimed

    def test_singleton_blocks_certify_one(self):
        space = MeasureSpace([1.0, 2.0, 0.5])
        part = Partition([0, 1, 2])
        phi, psi = scaled_pair(2.0)
        report = holder_from_domination(space, part, phi, psi, budget=2_000, seed=5)
        assert report.claimed_C == pytest.approx(1.0)
        assert report.holds_with_claimed
