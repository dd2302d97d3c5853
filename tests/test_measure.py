"""Measure spaces, partitions, and the block-averaging conditional expectation."""

import math
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczlab import holder, measure, young
from orliczlab.errors import ConfigError, NegativeInput, SpaceMismatch
from orliczlab.holder import _holder_ratios
from orliczlab.measure import (
    MeasureSpace,
    Partition,
    as_values,
    block_mean,
    build_rotation_space,
    build_symmetric_space,
    cond_exp,
    domination_constant,
    generalized_jensen_check,
    jensen_check,
)
from oracles import block_mean_sequential, conditional_holder_ratio


def unit_space(n):
    return MeasureSpace(np.full(n, 1.0 / n))


class TestMeasureSpace:
    def test_total_and_integrate(self):
        space = MeasureSpace([0.5, 1.5, 2.0])
        assert space.n_atoms == 3
        assert space.total == pytest.approx(4.0)
        assert space.integrate([1.0, 2.0, 3.0]) == pytest.approx(0.5 + 3.0 + 6.0)

    def test_rejects_bad_weights(self):
        with pytest.raises(ConfigError):
            MeasureSpace([])
        with pytest.raises(ConfigError):
            MeasureSpace([1.0, 0.0])
        with pytest.raises(ConfigError):
            MeasureSpace([1.0, -2.0])
        with pytest.raises(ConfigError):
            MeasureSpace([1.0, np.inf])
        with pytest.raises(ConfigError):
            MeasureSpace([1.0, np.nan])

    def test_rejects_label_count_mismatch(self):
        with pytest.raises(ConfigError):
            MeasureSpace([1.0, 1.0], labels=(0.5,))

    def test_weights_are_read_only(self):
        space = MeasureSpace([1.0, 2.0])
        with pytest.raises(ValueError):
            space.weights[0] = 3.0

    def test_integrate_rejects_wrong_shape(self):
        with pytest.raises(SpaceMismatch):
            MeasureSpace([1.0, 2.0]).integrate([1.0, 2.0, 3.0])


class TestPartition:
    def test_blocks_and_measures(self):
        part = Partition([0, 1, 0, 2])
        assert part.n_blocks == 3
        assert list(np.flatnonzero(part.labels == 0)) == [0, 2]
        space = MeasureSpace([1.0, 2.0, 3.0, 4.0])
        assert list(part.block_measures(space)) == [4.0, 2.0, 4.0]

    def test_rejects_label_gaps(self):
        with pytest.raises(ConfigError):
            Partition([0, 2])  # block 1 missing
        with pytest.raises(ConfigError):
            Partition([1, 2])  # must start at 0
        with pytest.raises(ConfigError):
            Partition([0, 10**15])  # a gap no count array could hold
        with pytest.raises(ConfigError):
            Partition([])

    def test_space_size_must_match(self):
        part, space = Partition([0, 1]), MeasureSpace([1.0, 1.0, 1.0])
        for _ in range(2):
            with pytest.raises(SpaceMismatch):
                part.block_measures(space)
        assert part not in space._memo

    def test_block_measures_are_kept_per_space(self):
        part = Partition([0, 1, 0])
        one, two = MeasureSpace([1.0, 2.0, 3.0]), MeasureSpace([2.0, 2.0, 2.0])
        first = {space: part.block_measures(space) for space in (one, two)}
        for space in (one, two, one, two):
            mass = part.block_measures(space)
            assert mass is first[space]
            assert not mass.flags.writeable
        assert list(first[one]) == [4.0, 2.0] and list(first[two]) == [4.0, 2.0]
        with pytest.raises(ValueError):
            first[one][0] = 9.0

    def test_compares_and_hashes_by_identity(self):
        for make in (lambda: Partition([0, 1, 0]), lambda: MeasureSpace([1.0, 2.0])):
            a, b = make(), make()
            assert (a == b) is False and a != b
            assert a == a
            assert hash(a) == hash(a) and len({a, b}) == 2


class TestSimpleFunction:
    """as_values: exactly one function on the space, shape (n,)."""

    def test_binds_values_to_space(self):
        assert np.array_equal(as_values(unit_space(3), [1.0, 2.0, 3.0]), [1.0, 2.0, 3.0])

    def test_rejects_wrong_length(self):
        with pytest.raises(SpaceMismatch):
            as_values(unit_space(3), [1.0, 2.0])
        with pytest.raises(SpaceMismatch):
            as_values(unit_space(3), np.ones((2, 3)))  # a batch is not one function


class TestCondExp:
    def test_whole_space_block_is_the_mean(self):
        space = unit_space(4)
        part = Partition([0, 0, 0, 0])
        out = cond_exp(space, part, [1.0, 2.0, 3.0, 4.0])
        assert np.allclose(out, 2.5)

    def test_weighted_average_per_block(self):
        space = MeasureSpace([1.0, 3.0, 2.0, 2.0])
        part = Partition([0, 0, 1, 1])
        out = cond_exp(space, part, [4.0, 0.0, 1.0, 5.0])
        # block 0: (1*4 + 3*0)/4 = 1; block 1: (2*1 + 2*5)/4 = 3
        assert np.allclose(out, [1.0, 1.0, 3.0, 3.0])

    def test_idempotent(self):
        rng = np.random.default_rng(7)
        space = MeasureSpace(rng.uniform(0.5, 2.0, 10))
        part = Partition(np.arange(10) % 3)
        f = rng.normal(size=10)
        once = cond_exp(space, part, f)
        twice = cond_exp(space, part, once)
        assert np.max(np.abs(twice - once)) <= 1e-14 * max(1.0, np.max(np.abs(once)))

    def test_preserves_block_integrals(self):
        rng = np.random.default_rng(8)
        space = MeasureSpace(rng.uniform(0.5, 2.0, 12))
        part = Partition(np.arange(12) % 4)
        f = rng.normal(size=12)
        ef = cond_exp(space, part, f)
        for b in range(part.n_blocks):
            members = np.flatnonzero(part.labels == b)
            got = np.sum(space.weights[members] * ef[members])
            want = np.sum(space.weights[members] * f[members])
            assert got == pytest.approx(want, rel=1e-12)

    def test_positive_and_linear(self):
        rng = np.random.default_rng(9)
        space = MeasureSpace(rng.uniform(0.5, 2.0, 8))
        part = Partition(np.arange(8) % 3)
        f = rng.normal(size=8)
        g = rng.normal(size=8)
        assert np.all(cond_exp(space, part, np.abs(f)) >= 0)
        lhs = cond_exp(space, part, 2.0 * f - 3.0 * g)
        rhs = 2.0 * cond_exp(space, part, f) - 3.0 * cond_exp(space, part, g)
        assert np.allclose(lhs, rhs, atol=1e-13)

    def test_tower_property_refined_then_coarse(self):
        rng = np.random.default_rng(10)
        space = MeasureSpace(rng.uniform(0.5, 2.0, 8))
        fine = Partition([0, 0, 1, 1, 2, 2, 3, 3])
        coarse = Partition([0, 0, 0, 0, 1, 1, 1, 1])
        assert np.array_equal(fine.labels // 2, coarse.labels)  # each fine block in one coarse block
        f = rng.normal(size=8)
        via_fine = cond_exp(space, coarse, cond_exp(space, fine, f))
        direct = cond_exp(space, coarse, f)
        assert np.allclose(via_fine, direct, atol=1e-13)


class TestBuilders:
    def test_symmetric_space_shape(self):
        space, part = build_symmetric_space(2)
        assert np.allclose(space.weights, 0.25)
        assert space.labels == (-0.75, -0.25, 0.25, 0.75)
        assert list(part.labels) == [0, 1, 1, 0]

    def test_symmetric_cond_exp_is_symmetrization(self):
        space, part = build_symmetric_space(4)
        f = np.asarray(space.labels) ** 3 + 1.0  # odd part cancels
        out = cond_exp(space, part, f)
        assert np.allclose(out, (f + f[::-1]) / 2.0, atol=1e-15)

    def test_symmetric_rejects_bad_size(self):
        with pytest.raises(ConfigError):
            build_symmetric_space(0)

    def test_rotation_space_shape(self):
        space, part = build_rotation_space(3, 2)
        assert space.n_atoms == 6
        assert np.allclose(space.weights, 1.0 / 6.0)
        assert list(part.labels) == [0, 1, 0, 1, 0, 1]

    def test_rotation_cond_exp_averages_orbits(self):
        space, part = build_rotation_space(3, 2)
        f = np.array([6.0, 1.0, 0.0, 2.0, 3.0, 3.0])
        out = cond_exp(space, part, f)
        assert np.allclose(out, [3.0, 2.0, 3.0, 2.0, 3.0, 2.0])

    def test_rotation_rejects_bad_params(self):
        with pytest.raises(ConfigError):
            build_rotation_space(1, 2)
        with pytest.raises(ConfigError):
            build_rotation_space(3, 0)


class TestAveraging:
    def test_holds_for_block_constant_multiplier(self):
        rng = np.random.default_rng(11)
        space = MeasureSpace(rng.uniform(0.5, 2.0, 6))
        part = Partition([0, 0, 1, 1, 2, 2])
        f = rng.normal(size=6)
        g = np.array([2.0, 2.0, -1.0, -1.0, 0.5, 0.5])
        # E(fg) = E(f) g, exactly up to summation error, for block-constant g.
        lhs = cond_exp(space, part, f * g)
        rhs = cond_exp(space, part, f) * g
        assert np.max(np.abs(lhs - rhs)) <= 1e-12 * max(1.0, float(np.max(np.abs(rhs))))

    def test_rejects_non_measurable_multiplier(self):
        # The identity rejects a g that varies inside a block: with f = 1 it reads E(g) = g.
        space = MeasureSpace([1.0, 1.0, 2.0, 2.0])
        part = Partition([0, 0, 1, 1])
        g = np.array([1.0, 2.0, 3.0, 3.0])
        assert np.array_equal(cond_exp(space, part, np.ones(4)) * g, g)
        assert np.max(np.abs(cond_exp(space, part, g) - g)) == pytest.approx(0.5)


class TestJensen:
    @given(st.integers(0, 10_000))
    @settings(max_examples=60, deadline=None)
    def test_convexity_gap_never_positive(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 10))
        space = MeasureSpace(rng.uniform(0.5, 2.0, n))
        part = Partition(np.arange(n) % int(rng.integers(1, n + 1)))
        phi = young.scaled_power(float(rng.uniform(1.2, 4.0)))
        f = rng.uniform(-3.0, 3.0, n)
        report = jensen_check(space, part, phi, f)
        assert report["holds"], report

    def test_strict_inequality_visible_for_spread_data(self):
        space = unit_space(2)
        part = Partition([0, 0])
        phi = young.power(2.0)
        report = jensen_check(space, part, phi, np.array([0.0, 2.0]))
        # phi(E f) = 1 while E(phi f) = 2; the gap is strictly negative.
        assert report["holds"]
        assert report["max_violation"] == pytest.approx(-1.0)

    def test_each_row_is_held_to_its_own_scale(self):
        # sqrt is concave, so row 0 violates by sqrt(2) - 1 against E(phi f) = 1.
        # Row 1 holds with E(phi f) = 1e15; one shared scale would excuse row 0.
        space, part = unit_space(2), Partition([0, 0])
        phi = lambda x: np.sqrt(np.abs(x))
        fs = np.array([[0.0, 4.0], [1e30, 1e30]])
        assert not jensen_check(space, part, phi, fs[0])["holds"]
        assert jensen_check(space, part, phi, fs[1])["holds"]
        report = jensen_check(space, part, phi, fs)
        assert not report["holds"]
        assert report["max_violation"] == pytest.approx(np.sqrt(2.0) - 1.0)

    def test_overflow_shows_as_nan_and_fails(self):
        # exp_type overflows on both sides at 1e3: inf - inf is a NaN gap.
        space, part = unit_space(4), Partition([0, 0, 1, 1])
        fs = np.array([[0.5, 1.0, 2.0, 0.25], [1e3, 1e3, 1.0, 2.0]])
        assert jensen_check(space, part, young.exp_type(), fs[0])["holds"]
        with np.errstate(invalid="ignore"):
            report = jensen_check(space, part, young.exp_type(), fs)
        assert np.isnan(report["max_violation"])
        assert report["holds"] is False


def min_of_stacked(stacked):
    """theta(f_1,..,f_n) = min_i f_i, a min of nonnegative linear forms."""
    return np.min(stacked, axis=0)


class TestGeneralizedJensen:
    def test_single_linear_piece_commutes_exactly(self):
        space = MeasureSpace([1.0, 2.0, 1.0])
        part = Partition([0, 0, 1])
        fs = [np.array([1.0, 2.0, 0.5]), np.array([0.0, 1.0, 4.0])]
        report = generalized_jensen_check(space, part, lambda s: 2.0 * s[0] + 3.0 * s[1], fs)
        assert report["holds"]
        assert abs(report["max_violation"]) <= 1e-13

    def test_min_of_two_coordinates(self):
        space = unit_space(4)
        part = Partition([0, 0, 0, 0])
        f = np.array([1.0, 4.0, 2.0, 8.0])
        g = np.array([3.0, 1.0, 5.0, 2.0])
        report = generalized_jensen_check(space, part, min_of_stacked, [f, g])
        assert report["holds"]
        # E(min) = (1+1+2+2)/4 = 1.5 < min(E f, E g) = min(3.75, 2.75)
        assert report["max_violation"] == pytest.approx(1.5 - 2.75)

    def test_tangent_envelope_of_sqrt(self):
        # theta(x) = min over 64 slopes 1/(2 sqrt t) of x * slope: a concave,
        # monotone, nonnegative surrogate for sqrt built from tangent slopes.
        slopes = 1.0 / (2.0 * np.sqrt(np.geomspace(0.01, 100.0, 64)))
        rng = np.random.default_rng(12)
        space = MeasureSpace(rng.uniform(0.5, 2.0, 10))
        part = Partition(np.arange(10) % 3)
        f = rng.uniform(0.0, 50.0, 10)
        report = generalized_jensen_check(
            space, part, lambda s: np.min(np.multiply.outer(slopes, s[0]), axis=0), [f]
        )
        assert report["holds"]

    def test_rejects_negative_inputs(self):
        space = unit_space(3)
        part = Partition([0, 0, 0])
        with pytest.raises(NegativeInput):
            generalized_jensen_check(space, part, min_of_stacked, [np.array([1.0, -1.0, 2.0])])


class TestBlockMean:
    def test_batched_rows_equal_single_rows_exactly(self):
        # 2 x 75 rows of 1024 atoms span several bincount chunks and a partial one.
        rng = np.random.default_rng(31)
        space = MeasureSpace(rng.uniform(0.5, 2.0, 1024))
        part = Partition(rng.permutation(np.arange(1024) % 300))
        batch = rng.normal(0.0, 3.0, (2, 75, 1024))
        got = block_mean(space, part, batch)
        assert got.shape == (2, 75, part.n_blocks)
        for idx in np.ndindex(2, 75):
            assert np.array_equal(got[idx], block_mean(space, part, batch[idx]))
            assert np.array_equal(got[idx][part.labels], cond_exp(space, part, batch[idx]))

    def test_rejects_wrong_trailing_length(self):
        space, part = build_symmetric_space(2)
        with pytest.raises(SpaceMismatch):
            block_mean(space, part, np.ones((3, 5)))
        with pytest.raises(SpaceMismatch):
            cond_exp(space, part, np.ones((3, 5)))

    def test_batched_callers_equal_per_row_calls_exactly(self):
        rng = np.random.default_rng(32)
        space = MeasureSpace(rng.uniform(0.5, 2.0, 12))
        part = Partition(np.arange(12) % 5)
        fs = rng.normal(0.0, 2.0, (40, 12))
        gs = rng.normal(0.0, 2.0, (40, 12))
        assert np.array_equal(cond_exp(space, part, fs), [cond_exp(space, part, f) for f in fs])

        batch = jensen_check(space, part, young.exp_type(), fs)
        rows = [jensen_check(space, part, young.exp_type(), f) for f in fs]
        assert batch["holds"] is all(r["holds"] for r in rows)
        assert batch["max_violation"] == max(r["max_violation"] for r in rows)

        batch = generalized_jensen_check(space, part, min_of_stacked, [np.abs(fs), np.abs(gs)])
        rows = [generalized_jensen_check(space, part, min_of_stacked, [abs(f), abs(g)]) for f, g in zip(fs, gs)]
        assert batch["holds"] is all(r["holds"] for r in rows)
        assert batch["max_violation"] == max(r["max_violation"] for r in rows)

        for phi in (young.scaled_power(3.0), young.exp_type()):
            psi = young.conjugate_closed_form(phi)
            batch = np.max(_holder_ratios(space, part, phi, psi, fs, gs), axis=-1)
            rows = [conditional_holder_ratio(space, part, phi, psi, f, g) for f, g in zip(fs, gs)]
            assert np.array_equal(batch, rows)


def _kernel_partitions():
    """(name, space, partition) covering the shapes the two strategies handle differently."""
    rng = np.random.default_rng(41)
    n = 64
    weights = rng.uniform(0.25, 4.0, n)
    return [
        ("equal", *build_symmetric_space(n // 2)),
        ("rotation", *build_rotation_space(8, 8)),
        ("rotation-wide", *build_rotation_space(4, 32)),  # 4 ranks of 32 blocks
        ("unequal", MeasureSpace(weights), Partition(np.repeat(np.arange(11), [1, 2, 3, 4, 5, 6, 7, 8, 9, 10, 9]))),
        ("singleton", MeasureSpace(weights), Partition(np.arange(n))),
        ("one-wide-block", MeasureSpace(weights), Partition(np.zeros(n, dtype=int))),
        ("skewed", MeasureSpace(weights), Partition(np.r_[np.zeros(n // 2, dtype=int), np.arange(1, n // 2 + 1)])),
        ("shuffled", MeasureSpace(weights), Partition(rng.permutation(np.arange(n) % 5))),
    ]


_KERNEL_PARTITIONS = _kernel_partitions()
_KERNEL_IDS = [name for name, _, _ in _KERNEL_PARTITIONS]


def _hard_values(shape, seed):
    """Normal draws with NaN, +-inf, -0.0, +0.0 and subnormals spread over them;
    one row is all -0.0, whose block sums must come out +0.0."""
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 3.0, shape)
    flat = x.reshape(-1)
    specials = np.array([math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, -1e-310, 2.2e-308])
    if flat.size:
        at = rng.choice(flat.size, size=min(flat.size, 4 * specials.size), replace=False)
        flat[at] = np.resize(specials, at.size)
        x.reshape(-1, shape[-1])[0] = -0.0
    return x


def _same_bits(got, want):
    return got.shape == want.shape and np.array_equal(got.view(np.int64), want.view(np.int64))


# The member gather takes only partitions of equal-size blocks; bincount takes all.
_STRATEGY_CASES = [
    (strategy, name, space, part)
    for strategy in ("_gather_sums", "_bincount_sums")
    for name, space, part in _KERNEL_PARTITIONS
    if strategy == "_bincount_sums" or part._ranks is not None
]


@pytest.mark.filterwarnings("error::RuntimeWarning")
class TestBlockMeanKernel:
    """Both strategies of the one kernel against a scalar loop, bit for bit (int64 views)."""

    @pytest.mark.parametrize("name, space, part", _KERNEL_PARTITIONS, ids=_KERNEL_IDS)
    def test_every_shape_matches_the_scalar_loop(self, name, space, part):
        # Short batches, chunk-sized batches and a full one-CPU search chunk
        # on every partition.
        n = space.n_atoms
        rows = [1, 3, 63, 64, 127, 128, 511, 512, holder._SEARCH_CHUNK // n]
        shapes = [(n,), (0, n), (2, 3, n)] + [(r, n) for r in rows]
        for seed, shape in enumerate(shapes):
            x = _hard_values(shape, seed)
            want = block_mean_sequential(space, part, x)
            assert _same_bits(block_mean(space, part, x), want), shape
            assert _same_bits(cond_exp(space, part, x), want[..., part.labels]), shape

    @pytest.mark.parametrize(
        "strategy, name, space, part", _STRATEGY_CASES, ids=[f"{c[0]}-{c[1]}" for c in _STRATEGY_CASES]
    )
    def test_each_strategy_matches_the_scalar_loop(self, strategy, name, space, part):
        # Whichever the partition rule would pick, each strategy is exact on every partition it takes.
        sums = getattr(measure, strategy)
        mass = part.block_measures(space)
        for rows in (0, 1, 7, 40):
            x = _hard_values((rows, space.n_atoms), rows)
            got = sums(space.weights, part, x)
            got /= mass
            assert _same_bits(got, block_mean_sequential(space, part, x)), rows

    def test_the_partition_rule_reaches_both_strategies(self, monkeypatch):
        # The partition alone picks the kernel: every batch length takes the same one.
        taken = []
        for strategy in ("_gather_sums", "_bincount_sums"):
            kernel = getattr(measure, strategy)
            monkeypatch.setattr(measure, strategy, lambda *a, k=kernel, s=strategy: taken.append(s) or k(*a))

        def kernels(space, part):
            taken.clear()
            for rows in (1, 3, 127, 128, 4096):
                x = _hard_values((rows, space.n_atoms), rows)
                assert _same_bits(block_mean(space, part, x), block_mean_sequential(space, part, x)), rows
            return set(taken)

        for name, space, part in _KERNEL_PARTITIONS:
            assert len(kernels(space, part)) == 1, name
        # rotation 16 x 4: 16 ranks, the most the gather takes; rotation 17 x 4: 17 ranks;
        # unequal blocks: no rank table.
        unequal = next((space, part) for name, space, part in _KERNEL_PARTITIONS if name == "unequal")
        assert kernels(*build_rotation_space(16, 4)) == {"_gather_sums"}
        assert kernels(*build_rotation_space(17, 4)) == {"_bincount_sums"}
        assert kernels(*unequal) == {"_bincount_sums"}

    def test_rank_table_lists_members_by_rank(self):
        # Blocks 0 (atoms 1, 3), 1 (0, 5), 2 (2, 4): rank j holds each block's j-th member.
        # The table is one read-only C-contiguous (ranks, blocks) intp array.
        ranks = Partition([1, 0, 2, 0, 2, 1])._ranks
        assert ranks.dtype == np.intp and ranks.flags.c_contiguous and not ranks.flags.writeable
        assert ranks.tolist() == [[1, 0, 2], [3, 5, 4]]
        # Evenly spaced members are listed like any others.
        assert build_symmetric_space(8)[1]._ranks.tolist() == [list(range(8)), list(range(15, 7, -1))]
        assert build_symmetric_space(2)[1]._ranks.tolist() == [[0, 1], [3, 2]]
        # Blocks of different sizes have no rank table.
        assert Partition([2, 0, 0, 1, 2, 0])._ranks is None

    def test_threads_average_on_a_fresh_partition(self):
        # The threads may build the partition's rank table at once; each must
        # still get the scalar loop's bits.  More threads than the 2 search
        # workers, switching as often as the interpreter allows.
        space, _ = build_rotation_space(2, 512)
        x = _hard_values((64, space.n_atoms), 7)
        want = block_mean_sequential(space, Partition(np.arange(space.n_atoms) % 512), x[:2])
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            for _ in range(5):
                part = Partition(np.arange(space.n_atoms) % 512)
                start, got = threading.Barrier(4, timeout=30), [None] * 4

                def run(k, part=part, start=start, got=got):
                    start.wait()
                    got[k] = block_mean(space, part, x)

                threads = [threading.Thread(target=run, args=(k,)) for k in range(4)]
                for thread in threads:
                    thread.start()
                for thread in threads:
                    thread.join(timeout=30)
                    assert not thread.is_alive()
                for out in got:
                    assert _same_bits(out[:2], want)
                    assert _same_bits(out, got[0])
        finally:
            sys.setswitchinterval(interval)


class TestDominationConstant:
    def test_symmetric_pairing_gives_two(self):
        space, part = build_symmetric_space(4)
        assert domination_constant(space, part) == pytest.approx(2.0)

    def test_rotation_orbits_give_n(self):
        space, part = build_rotation_space(3, 2)
        assert domination_constant(space, part) == pytest.approx(3.0)

    def test_singleton_blocks_give_one(self):
        space = MeasureSpace([0.3, 1.7, 2.0])
        assert domination_constant(space, Partition([0, 1, 2])) == pytest.approx(1.0)

    def test_bounds_concentrated_functions(self):
        rng = np.random.default_rng(13)
        space = MeasureSpace(rng.uniform(0.5, 2.0, 8))
        part = Partition(np.arange(8) % 3)
        c0 = domination_constant(space, part)
        for i in range(8):
            h = np.zeros(8)
            h[i] = 1.0
            assert cond_exp(space, part, h)[i] <= c0 * h[i] + 1e-15

    @given(
        st.lists(st.floats(0.1, 10.0), min_size=6, max_size=6),
        st.lists(st.one_of(st.just(0.0), st.floats(1e-100, 1e100)), min_size=6, max_size=6),
    )
    @settings(max_examples=200, deadline=None)
    def test_function_is_dominated_by_c0_times_its_average(self, weights, h):
        # The direction domination_holder_constant relies on: h <= C0 * E(h).
        space = MeasureSpace(weights)
        part = Partition([0, 0, 1, 1, 1, 2])
        h = np.asarray(h)
        c0 = domination_constant(space, part)
        assert np.all(h <= c0 * cond_exp(space, part, h) * (1.0 + 1e-12))
