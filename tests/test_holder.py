"""Conditional Hölder inequality: ratios, empirical constants, sufficient conditions."""

import math
import threading
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczlab import holder, sampling, young
from orliczlab.errors import BracketFailure, ConjugateMismatch, PreconditionViolated
from orliczlab.holder import (
    HolderReport,
    _holder_ratios,
    _ratio_atoms,
    _RunningMax,
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
    block_mean,
    build_symmetric_space,
    domination_constant,
)
from orliczlab.sampling import log_uniform_chunks, signed_log_uniform, signed_log_uniform_chunks


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


def one_shot_search(space, part, phi, psi, budget, seed, claimed_C=None):
    """The unchunked search: both whole batches drawn at once, then argmax."""
    rng = np.random.default_rng(seed)
    fs = signed_log_uniform(rng, (budget, space.n_atoms))
    gs = signed_log_uniform(rng, (budget, space.n_atoms))
    ratios = _holder_ratios(space, part, part.block_measures(space), phi, psi, fs, gs)
    k = int(np.argmax(np.max(ratios, axis=-1)))
    atom = int(np.argmax(ratios[k, part.labels]))
    best = float(ratios[k, part.labels[atom]])
    holds = None if claimed_C is None else best <= claimed_C * (1.0 + 1e-9)
    return HolderReport(best, fs[k].copy(), gs[k].copy(), atom, claimed_C, holds, budget)


def one_shot_normalization(space, part, phi, psi, budget, seed):
    rng = np.random.default_rng(seed)

    def sup_for(theta):
        batch = signed_log_uniform(rng, (budget, space.n_atoms))
        denom = young.inverse(theta, block_mean(space, part, young.evaluate(theta, batch)))
        denom = denom[..., part.labels]
        return float(np.max(block_mean(space, part, young.evaluate(theta, batch / denom))))

    return sup_for(phi), sup_for(psi)


def bits(x):
    return np.asarray(x, dtype=float).tobytes()


ODD_SPACE = (MeasureSpace(np.ones(127)), Partition(np.arange(127) % 5))  # 37 * 127 is odd
CASES = {
    "odd-power": (ODD_SPACE, scaled_pair(2.0), 37, 11),
    "odd-exp": (ODD_SPACE, (young.exp_type(), young.log_type()), 37, 12),
    "symmetric-power": (build_symmetric_space(4), scaled_pair(3.0), 1_000, 13),
    "rotation-exp": (build_rotation_space(3, 3), (young.exp_type(), young.log_type()), 501, 14),
}
# (case, rows per chunk), rows being 1, a count dividing no budget above, or one chunk for
# the whole budget.  One-row chunks run on the two 37-row budgets only: the generator range
# test at one row per chunk and the hand-built _RunningMax streams cover them on every range.
CHUNK_GRID = [(case, rows) for case in sorted(CASES) for rows in (1, 7, None) if rows != 1 or CASES[case][2] == 37]
# Row ranges forced on the searches, whatever the CPU count: one, the cap of 2, and one more.
WORKERS = (1, 2, 3)


class TestStreamedSearch:
    @pytest.mark.parametrize(
        "rows, n, chunk_rows", [(37, 127, 5), (37, 127, 37), (3, 1, 2), (64, 8, 64), (9, 3, 4), (9, 3, 1), (6, 4, 1)]
    )
    def test_chunks_are_the_one_shot_rows(self, rows, n, chunk_rows):
        rng = np.random.default_rng(rows + n)
        first = signed_log_uniform(rng, (rows, n))
        second = signed_log_uniform(rng, (rows, n))
        chunks = list(signed_log_uniform_chunks(rows + n, (rows, n), chunk_rows))
        assert [len(f) for f, _ in chunks][:-1] == [chunk_rows] * (len(chunks) - 1)
        assert bits(np.concatenate([f for f, _ in chunks])) == bits(first)
        assert bits(np.concatenate([g for _, g in chunks])) == bits(second)
        # Every row range, as the split searches draw it, and their magnitudes, as the searches
        # score them; N = rows * n is odd in five cases.  At one row per chunk, [row, row + 1)
        # is the searches' one-row signed draw, at row 0 (the carried 32-bit half) and the last.
        for start in range(rows):
            for stop in range(start + 1, rows + 1):
                chunks = list(signed_log_uniform_chunks(rows + n, (rows, n), chunk_rows, start, stop))
                assert bits(np.concatenate([f for f, _ in chunks])) == bits(first[start:stop])
                assert bits(np.concatenate([g for _, g in chunks])) == bits(second[start:stop])
                mags = list(log_uniform_chunks(rows + n, (rows, n), chunk_rows, start, stop))
                assert [len(f) for f, _ in mags] == [len(f) for f, _ in chunks]
                assert bits(np.concatenate([f for f, _ in mags])) == bits(np.abs(first[start:stop]))
                assert bits(np.concatenate([g for _, g in mags])) == bits(np.abs(second[start:stop]))

    @pytest.mark.parametrize("case, chunk_rows", CHUNK_GRID)
    def test_streamed_search_equals_one_shot(self, monkeypatch, case, chunk_rows):
        (space, part), (phi, psi), budget, seed = CASES[case]
        if chunk_rows is not None:
            monkeypatch.setattr(holder, "_SEARCH_CHUNK", chunk_rows * space.n_atoms)
        else:
            assert holder._SEARCH_CHUNK // space.n_atoms >= budget
        want = one_shot_search(space, part, phi, psi, budget, seed, claimed_C=2.0)
        for workers in WORKERS:
            monkeypatch.setattr(holder, "_worker_count", lambda rows, w=workers: min(w, rows))
            got = empirical_holder_constant(space, part, phi, psi, budget=budget, seed=seed, claimed_C=2.0)
            assert bits(got.empirical_C) == bits(want.empirical_C)
            assert got.worst_atom == want.worst_atom
            assert bits(got.worst_f) == bits(want.worst_f)
            assert bits(got.worst_g) == bits(want.worst_g)
            assert (got.claimed_C, got.holds_with_claimed, got.samples) == (2.0, want.holds_with_claimed, budget)

    @pytest.mark.parametrize("case, chunk_rows", CHUNK_GRID)
    def test_streamed_normalization_equals_one_shot(self, monkeypatch, case, chunk_rows):
        (space, part), (phi, psi), budget, seed = CASES[case]
        if chunk_rows is not None:
            monkeypatch.setattr(holder, "_SEARCH_CHUNK", chunk_rows * space.n_atoms)
        want = one_shot_normalization(space, part, phi, psi, budget, seed)
        for workers in WORKERS:
            monkeypatch.setattr(holder, "_worker_count", lambda rows, w=workers: min(w, rows))
            got = normalization_constants(space, part, phi, psi, sample_budget=budget, seed=seed)
            assert bits(got) == bits(want)

    @pytest.mark.parametrize("workers", [1, 2])
    def test_signs_are_drawn_for_the_reported_row_only(self, monkeypatch, workers):
        drawn, signs = [], sampling._signs

        def counted_signs(rng, size):
            out = signs(rng, size)
            drawn.append(out.size)
            return out

        monkeypatch.setattr(sampling, "_signs", counted_signs)
        monkeypatch.setattr(holder, "_worker_count", lambda rows: min(workers, rows))
        space, part = build_symmetric_space(4)
        report = empirical_holder_constant(space, part, *scaled_pair(2.0), budget=300, seed=3)
        assert 0 < sum(drawn) <= 2 * space.n_atoms and report.worst_f.shape == (space.n_atoms,)
        drawn.clear()
        normalization_constants(space, part, *scaled_pair(2.0), sample_budget=300, seed=3)
        assert sum(drawn) == 0

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_a_range_failure_reaches_the_caller_after_every_join(self, monkeypatch, where):
        def failing_inverse(theta, t):
            if (threading.current_thread() is threading.main_thread()) == (where == "caller"):
                raise BracketFailure(f"planted in the {where} thread")
            return young.inverse(theta, t)

        monkeypatch.setattr(holder, "_worker_count", lambda rows: min(2, rows))
        monkeypatch.setattr(holder, "inverse", failing_inverse)
        space, part = build_symmetric_space(4)
        before = threading.active_count()
        for search in (empirical_holder_constant, normalization_constants):
            with pytest.raises(BracketFailure, match=where):
                search(space, part, *scaled_pair(2.0), 100, 0)
            assert threading.active_count() == before

    def test_ties_keep_the_first_row_and_a_nan_wins_and_stays(self):
        stream = [
            np.array([[1.0, 2.0], [0.5, 0.0]]),
            np.array([[2.0, 1.0]]),  # ties row 0
            np.array([[0.0, np.nan], [3.0, 0.0]]),  # NaN row 3 beats the later 3.0
            np.array([[5.0, math.inf]]),
        ]
        lead = _RunningMax()
        assert [lead.update(chunk) for chunk in stream[:2]] == [0, None]
        assert (lead.value, lead.row) == (2.0, 0)
        assert [lead.update(chunk) for chunk in stream[2:]] == [0, None]
        assert math.isnan(lead.value) and lead.row == 3
        assert lead.row == np.argmax(np.max(np.concatenate(stream), axis=-1))
        one_row = _RunningMax()  # the same rows, one chunk each
        assert [one_row.update(row[None]) for row in np.concatenate(stream)] == [0, None, None, 0, None, None]
        assert math.isnan(one_row.value) and one_row.row == 3

    def test_merged_range_leaders_are_the_streamed_leader(self):
        stream = [
            np.array([[1.0, 2.0], [0.5, 0.0]]),
            np.array([[2.0, 1.0]]),
            np.array([[0.0, np.nan], [3.0, 0.0]]),
            np.array([[5.0, math.inf]]),
        ]
        for cuts in [(1,), (2,), (3,), (1, 2), (1, 3), (2, 3), (1, 2, 3)]:
            leaders = []
            for lo, hi in zip((0, *cuts), (*cuts, len(stream))):
                leaders.append(_RunningMax())
                for chunk in stream[lo:hi]:
                    leaders[-1].update(chunk)
            first, *later = leaders
            for other in later:
                first.merge(other)
            assert math.isnan(first.value) and first.row == 3, cuts
        tie, later_tie = _RunningMax(), _RunningMax()
        tie.update(np.array([[2.0]]))
        later_tie.update(np.array([[1.0], [2.0]]))
        assert not tie.merge(later_tie) and (tie.value, tie.row) == (2.0, 0)

    def test_nan_in_the_first_chunk_stays(self):
        lead = _RunningMax()
        assert lead.update(np.array([[np.nan], [1.0]])) == 0
        assert lead.update(np.array([[math.inf]])) is None
        assert math.isnan(lead.value) and lead.row == 0

    def test_empty_budget_is_refused(self):
        space, part = build_symmetric_space(2)
        with pytest.raises(PreconditionViolated):
            empirical_holder_constant(space, part, *scaled_pair(2.0), budget=0)
        with pytest.raises(PreconditionViolated):
            normalization_constants(space, part, *scaled_pair(2.0), sample_budget=0)

    def test_memory_is_bounded_by_the_chunk(self):
        # The one-shot search held 10000 x 512 arrays and peaked near 177 MB.
        space, part = build_symmetric_space(256)
        tracemalloc.start()
        try:
            empirical_holder_constant(space, part, *scaled_pair(2.0), budget=10_000, seed=0)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 32 * 2**20
