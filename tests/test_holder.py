"""Conditional Hölder inequality: ratios, empirical constants, sufficient conditions."""

import math
import sys
import threading
import tracemalloc
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczlab import holder, sampling, young
from orliczlab.errors import BracketFailure, PreconditionViolated
from orliczlab.holder import (
    _holder_ratios,
    _ratio_atoms,
    domination_holder_constant,
    empirical_holder_constant,
    normalization_constants,
)
from orliczlab.measure import (
    MeasureSpace,
    Partition,
    build_rotation_space,
    block_mean,
    build_symmetric_space,
    domination_constant,
)
from orliczlab.sampling import log_uniform_chunks, signed_log_uniform
from orliczlab.scenarios import from_config, materialize
from orliczlab.suites import run_suite

from oracles import conditional_holder_ratio


def scaled_pair(p):
    phi = young.scaled_power(p)
    return phi, young.conjugate_closed_form(phi)


class TestConjugatePairCheck:
    """The pairs the Hölder tests use pass young-calculus/conjugate_consistency."""

    def test_accepts_registered_pairs(self):
        cfg = {
            "name": "tiny",
            "space": {"type": "symmetric", "n_half": 2},
            "young": {"kind": "scaled_power", "p": 2.0},
            "u": {"type": "generator", "name": "identity"},
        }
        mat = materialize(from_config(cfg))
        pairs = [scaled_pair(2.0), (young.exp_type(), young.log_type()), (young.power(3.0), young.conjugate_power(3.0))]
        for phi, psi in pairs:
            report = run_suite("young-calculus", replace(mat, phi=phi, psi=psi))
            check = next(check for check in report["checks"] if check["name"] == "conjugate_consistency")
            assert check["passed"] is True and check["value"] <= check["tolerance"]


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
        base = conditional_holder_ratio(MeasureSpace(weights), part, phi, psi, f, g)
        scaled = conditional_holder_ratio(MeasureSpace(c * weights), part, phi, psi, f, g)
        assert scaled == pytest.approx(base, rel=1e-12)


class TestEmpiricalConstant:
    def test_power_pair_never_exceeds_one(self):
        space, part = build_symmetric_space(4)
        searched = empirical_holder_constant(space, part, *scaled_pair(2.0), budget=2_000, seed=1061)
        assert searched <= 1.0 + 1e-9


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
        searched = empirical_holder_constant(space, part, phi, psi, budget=2_000, seed=3)
        assert searched <= (c1 + c2) * (1.0 + 1e-9)


def certified_and_searched(space, part, phi, psi, budget, seed):
    """The domination certificate C0**2 and the searched constant, checked against it as gcthi does."""
    certified = domination_holder_constant(space, part)
    searched = empirical_holder_constant(space, part, phi, psi, budget=budget, seed=seed)
    assert searched <= certified * (1.0 + 1e-9)
    return certified


class TestDominationRoute:
    def test_symmetric_space_certifies_four(self):
        space, part = build_symmetric_space(4)
        phi, psi = young.exp_type(), young.log_type()
        assert certified_and_searched(space, part, phi, psi, 3_000, 1062) == pytest.approx(4.0)

    def test_rotation_space_certifies_nine(self):
        space, part = build_rotation_space(3, 2)
        phi, psi = scaled_pair(3.0)
        assert certified_and_searched(space, part, phi, psi, 3_000, 1064) == pytest.approx(9.0)

    def test_singleton_blocks_certify_one(self):
        space = MeasureSpace([1.0, 2.0, 0.5])
        part = Partition([0, 1, 2])
        phi, psi = scaled_pair(2.0)
        assert certified_and_searched(space, part, phi, psi, 2_000, 5) == pytest.approx(1.0)


def one_shot_search(space, part, phi, psi, budget, seed):
    """The unchunked search: both whole signed batches drawn at once, then np.max."""
    rng = np.random.default_rng(seed)
    fs = signed_log_uniform(rng, (budget, space.n_atoms))
    gs = signed_log_uniform(rng, (budget, space.n_atoms))
    return float(np.max(_holder_ratios(space, part, phi, psi, fs, gs)))


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


def drawn_chunks(*args):
    """log_uniform_chunks(*args) as a list of copies, each taken before the next chunk is drawn.

    One call draws every chunk into the same two buffers, so consecutive chunks
    must share memory with the one before them.
    """
    chunks, previous = [], None
    for f, g in log_uniform_chunks(*args):
        if previous is not None:
            assert np.shares_memory(f, previous[0]) and np.shares_memory(g, previous[1])
        chunks.append((f.copy(), g.copy()))
        previous = f, g
    return chunks


ODD_SPACE = (MeasureSpace(np.ones(127)), Partition(np.arange(127) % 5))  # 37 * 127 is odd
CASES = {
    "odd-power": (ODD_SPACE, scaled_pair(2.0), 37, 11),
    "odd-exp": (ODD_SPACE, (young.exp_type(), young.log_type()), 37, 12),
    "symmetric-power": (build_symmetric_space(4), scaled_pair(3.0), 1_000, 13),
    "rotation-exp": (build_rotation_space(3, 3), (young.exp_type(), young.log_type()), 501, 14),
}
# (case, rows per chunk), rows being 1, a count dividing no budget above, or one chunk for
# the whole budget.  One-row chunks run on the two 37-row budgets only: the generator range
# test covers them on every range, and the fold takes a maximum, whatever the chunking.
CHUNK_GRID = [(case, rows) for case in sorted(CASES) for rows in (1, 7, None) if rows != 1 or CASES[case][2] == 37]
# Row ranges forced on the searches, whatever the CPU count: one, the cap of 2, and one more.
WORKERS = (1, 2, 3)


class TestStreamedSearch:
    @pytest.mark.parametrize(
        "rows, n, chunk_rows", [(37, 127, 5), (37, 127, 37), (3, 1, 2), (64, 8, 64), (9, 3, 4), (9, 3, 1), (6, 4, 1)]
    )
    def test_chunks_are_the_one_shot_rows(self, rows, n, chunk_rows):
        rng = np.random.default_rng(rows + n)
        first = np.abs(signed_log_uniform(rng, (rows, n)))
        second = np.abs(signed_log_uniform(rng, (rows, n)))
        chunks = drawn_chunks(rows + n, (rows, n), chunk_rows)
        assert [len(f) for f, _ in chunks][:-1] == [chunk_rows] * (len(chunks) - 1)
        assert bits(np.concatenate([f for f, _ in chunks])) == bits(first)
        assert bits(np.concatenate([g for _, g in chunks])) == bits(second)
        # Every row range, as the split searches draw it.  N = rows * n is odd in five cases,
        # where the first batch's N one-half-word signs end inside a word.
        for start in range(rows):
            for stop in range(start + 1, rows + 1):
                chunks = drawn_chunks(rows + n, (rows, n), chunk_rows, start, stop)
                sizes = [min(chunk_rows, stop - lo) for lo in range(start, stop, chunk_rows)]
                assert [len(f) for f, _ in chunks] == sizes
                assert bits(np.concatenate([f for f, _ in chunks])) == bits(first[start:stop])
                assert bits(np.concatenate([g for _, g in chunks])) == bits(second[start:stop])

    @pytest.mark.parametrize("case, chunk_rows", CHUNK_GRID)
    def test_streamed_search_equals_one_shot(self, monkeypatch, case, chunk_rows):
        (space, part), (phi, psi), budget, seed = CASES[case]
        if chunk_rows is not None:
            monkeypatch.setattr(holder, "_SEARCH_CHUNK", chunk_rows * space.n_atoms)
        else:
            assert holder._SEARCH_CHUNK // space.n_atoms >= budget
        want = one_shot_search(space, part, phi, psi, budget, seed)
        for workers in WORKERS:
            monkeypatch.setattr(holder, "_worker_count", lambda rows, w=workers: min(w, rows))
            got = empirical_holder_constant(space, part, phi, psi, budget=budget, seed=seed)
            assert bits(got) == bits(want)

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
    def test_neither_search_draws_a_sign(self, monkeypatch, workers):
        drawn, signs = [], sampling._signs

        def counted_signs(rng, size):
            out = signs(rng, size)
            drawn.append(out.size)
            return out

        monkeypatch.setattr(sampling, "_signs", counted_signs)
        monkeypatch.setattr(holder, "_worker_count", lambda rows: min(workers, rows))
        space, part = build_symmetric_space(4)
        empirical_holder_constant(space, part, *scaled_pair(2.0), budget=300, seed=3)
        normalization_constants(space, part, *scaled_pair(2.0), sample_budget=300, seed=3)
        assert drawn == []

    @pytest.mark.parametrize("where", ["helper", "caller"])
    def test_a_range_failure_reaches_the_caller_after_every_join(self, monkeypatch, where):
        inverse = young.inverse

        def failing_inverse(theta, t, work=None):
            if (threading.current_thread() is threading.main_thread()) == (where == "caller"):
                raise BracketFailure(f"planted in the {where} thread")
            return inverse(theta, t, work)

        monkeypatch.setattr(holder, "_worker_count", lambda rows: min(2, rows))
        # measure.block_level inverts every level through YoungFunction.inverse.
        monkeypatch.setattr(young, "inverse", failing_inverse)
        space, part = build_symmetric_space(4)
        before = threading.active_count()
        for search in (empirical_holder_constant, normalization_constants):
            with pytest.raises(BracketFailure, match=where):
                search(space, part, *scaled_pair(2.0), 100, 0)
            assert threading.active_count() == before

    @pytest.mark.parametrize("workers", WORKERS)
    @pytest.mark.parametrize("where", ["first", "last"])
    @pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
    def test_a_nan_in_one_chunk_wins(self, monkeypatch, where, workers):
        # An infinite |f| and |g| on one atom of one row makes that row score NaN in both
        # searches: inf/inf in the ratio, and inf/inf in each normalized factor.  The first row
        # is in range 0, on the calling thread, with finite chunks after it; the last row is in
        # the last range, a helper thread's when W > 1, with finite chunks and ranges before
        # it.  Two rows per chunk give every range more than one chunk.
        space, part = build_symmetric_space(4)
        budget = 9
        row = 0 if where == "first" else budget - 1
        chunks = holder.log_uniform_chunks

        def planted(seed, shape, chunk_rows, start=0, stop=None):
            lo = start
            for f, g in chunks(seed, shape, chunk_rows, start, stop):
                if lo <= row < lo + len(f):
                    f[row - lo, 0] = g[row - lo, 0] = math.inf
                lo += len(f)
                yield f, g

        monkeypatch.setattr(holder, "log_uniform_chunks", planted)
        monkeypatch.setattr(holder, "_SEARCH_CHUNK", 2 * workers * space.n_atoms)
        monkeypatch.setattr(holder, "_worker_count", lambda rows: min(workers, rows))
        searched = empirical_holder_constant(space, part, *scaled_pair(2.0), budget=budget, seed=3)
        c1, c2 = normalization_constants(space, part, *scaled_pair(2.0), sample_budget=budget, seed=3)
        assert math.isnan(searched) and math.isnan(c1) and math.isnan(c2)

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_the_callers_errstate_reaches_every_range(self, monkeypatch):
        # numpy's error state is per thread (per context from numpy 2), so the
        # helper thread's range must be run under the caller's.
        monkeypatch.setattr(holder, "_worker_count", lambda rows: min(2, rows))
        space, _ = build_symmetric_space(2)
        with np.errstate(divide="ignore"):
            (best,) = holder._search_max(space, 4, 0, lambda f, g, work: np.divide(f, 0.0))
        assert best == math.inf

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


class TestRangeWorkspace:
    """Each row range scores its chunks in one workspace, made at its first chunk."""

    PAIRS = {"power": scaled_pair(3.0), "exp": (young.exp_type(), young.log_type())}
    SEARCHES = {
        "ratio": lambda space, part, pair, budget: empirical_holder_constant(space, part, *pair, budget=budget, seed=5),
        "normalization": lambda space, part, pair, budget: normalization_constants(
            space, part, *pair, sample_budget=budget, seed=5
        ),
    }

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    @pytest.mark.parametrize("pair", sorted(PAIRS))
    def test_later_chunks_allocate_under_an_eighth_of_a_chunk(self, monkeypatch, pair, search):
        # The exp-pair workload's space, one range of four chunks of the size the
        # searches draw on one CPU.  A later chunk still allocates numpy's ufunc
        # buffers (2 x 8192 values, for the member gather's strided passes) and
        # Newton's index arrays (one integer per series row or kept row).
        space, part = build_symmetric_space(64)
        monkeypatch.setattr(holder, "_worker_count", lambda rows: 1)
        budget = 4 * (holder._SEARCH_CHUNK // space.n_atoms)
        chunks, transient, sizes = holder.log_uniform_chunks, [], []

        def measured(*args):
            for k, (f, g) in enumerate(chunks(*args)):
                sizes.append(f.nbytes)
                tracemalloc.reset_peak()
                before = tracemalloc.get_traced_memory()[0]
                yield f, g  # scored before the next chunk is asked for
                if k:
                    transient.append(tracemalloc.get_traced_memory()[1] - before)

        monkeypatch.setattr(holder, "log_uniform_chunks", measured)
        tracemalloc.start()
        try:
            self.SEARCHES[search](space, part, self.PAIRS[pair], budget)
        finally:
            tracemalloc.stop()
        assert len(transient) == 3 and len(set(sizes)) == 1
        assert max(transient) < sizes[0] / 8, (transient, sizes[0])

    @pytest.mark.parametrize("search", sorted(SEARCHES))
    def test_every_range_has_its_own_workspace(self, monkeypatch, search):
        # More ranges than CPUs, switching threads as often as the interpreter
        # allows: two ranges sharing a workspace would overwrite each other's
        # levels and move the result off the one-shot bits.
        (space, part), pair, budget, seed = CASES["odd-exp"]
        want = (one_shot_search if search == "ratio" else one_shot_normalization)(space, part, *pair, budget, seed)
        made = []

        class Counted(young.Workspace):
            def __init__(self):
                super().__init__()
                made.append(self)

        monkeypatch.setattr(holder, "Workspace", Counted)
        monkeypatch.setattr(holder, "_worker_count", lambda rows: min(4, rows))
        monkeypatch.setattr(holder, "_SEARCH_CHUNK", 2 * space.n_atoms)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(3):
                made.clear()
                if search == "ratio":
                    got = empirical_holder_constant(space, part, *pair, budget=budget, seed=seed)
                else:
                    got = normalization_constants(space, part, *pair, sample_budget=budget, seed=seed)
                assert bits(got) == bits(want)
                assert len(made) == 4
        finally:
            sys.setswitchinterval(interval)
