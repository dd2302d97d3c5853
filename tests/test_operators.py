"""Weighted averaging operator: matrix form, norms, truncation, spectrum, trends."""

import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orliczlab import young
from orliczlab.errors import (
    ConfigError,
    SingularLambda,
    SpaceMismatch,
    SpectralOracleError,
)
from orliczlab.measure import MeasureSpace, Partition, build_symmetric_space, cond_exp
from orliczlab.operators import (
    RefinementFamily,
    WeightedConditionalExpectation,
    boundedness_classifier,
    essential_gap,
    law_values,
    level_set,
    mean_multiplier,
    multiplier_levels,
    norm_estimate,
    norm_upper_bound,
    resolvent_check,
    spectrum,
    truncate,
    truncation_gap_check,
)
from orliczlab.orlicz import luxemburg_norm
from orliczlab.sampling import signed_log_uniform
from orliczlab.suites import RESOLVENT_TOL, TRUNCATION_GAP_TOL

from oracles import random_partition, random_space


def demo_op():
    """Four equal atoms, two blocks, multiplier [1, 3, 2, 2]: block means both 2."""
    space = MeasureSpace(np.ones(4))
    part = Partition([0, 0, 1, 1])
    return WeightedConditionalExpectation(space, part, np.array([1.0, 3.0, 2.0, 2.0]))


def random_op(seed, n_lo=2, n_hi=12):
    rng = np.random.default_rng(seed)
    n = int(rng.integers(n_lo, n_hi))
    space = random_space(rng, n)
    part = random_partition(rng, n)
    u = rng.normal(0.0, 2.0, n)
    return WeightedConditionalExpectation(space, part, u), rng


def off_block_first(partition, values):
    """Largest distance of a value from the value at the first atom of its block."""
    _, first = np.unique(partition.labels, return_index=True)
    return float(np.max(np.abs(values - values[first][partition.labels])))


def pair(p=2.0):
    phi = young.scaled_power(p)
    return phi, young.conjugate_closed_form(phi)


class TestOperatorStructure:
    def test_one_function_inputs_reject_a_batch(self):
        op = demo_op()
        with pytest.raises(SpaceMismatch):
            WeightedConditionalExpectation(op.space, op.partition, np.ones((2, 4)))
        with pytest.raises(SpaceMismatch):
            resolvent_check(op, 5.0, np.ones((2, 4)))

    def test_matrix_worked_example(self):
        op = demo_op()
        want = np.array(
            [
                [0.5, 1.5, 0.0, 0.0],
                [0.5, 1.5, 0.0, 0.0],
                [0.0, 0.0, 1.0, 1.0],
                [0.0, 0.0, 1.0, 1.0],
            ]
        )
        assert np.allclose(op.matrix, want, atol=1e-15)

    def test_rows_constant_per_block(self):
        for seed in range(10):
            op, _ = random_op(seed)
            for col in range(op.n_atoms):
                assert off_block_first(op.partition, op.matrix[:, col]) <= 1e-15

    def test_matrix_times_ones_is_the_block_mean(self):
        op, _ = random_op(42)
        eu = mean_multiplier(op)[op.partition.labels]
        assert np.allclose(op.matrix @ np.ones(op.n_atoms), eu, atol=1e-13)

    def test_apply_agrees_with_matrix(self):
        for seed in range(20):
            op, rng = random_op(seed)
            f = rng.normal(0.0, 3.0, op.n_atoms)
            direct = op.apply(f)
            via_matrix = op.matrix @ f
            scale = max(1.0, float(np.max(np.abs(via_matrix))))
            assert np.max(np.abs(direct - via_matrix)) <= 1e-12 * scale

    def test_unit_multiplier_reduces_to_cond_exp(self):
        op, rng = random_op(3)
        op1 = op.with_multiplier(np.ones(op.n_atoms))
        f = rng.normal(0.0, 2.0, op.n_atoms)
        assert np.allclose(op1.apply(f), cond_exp(op.space, op.partition, f), atol=1e-14)

    def test_block_indicators_are_eigenvectors(self):
        op, _ = random_op(4)
        eu = mean_multiplier(op)
        for b in range(op.partition.n_blocks):
            chi = (op.partition.labels == b).astype(float)
            assert np.allclose(op.apply(chi), eu[b] * chi, atol=1e-13)

    def test_linearity(self):
        for seed in range(10):
            op, rng = random_op(seed + 100)
            f = rng.normal(0.0, 2.0, op.n_atoms)
            g = rng.normal(0.0, 2.0, op.n_atoms)
            a, b = rng.normal(0.0, 3.0, 2)
            lhs = op.apply(a * f + b * g)
            rhs = a * op.apply(f) + b * op.apply(g)
            scale = max(1.0, float(np.max(np.abs(rhs))))
            assert np.max(np.abs(lhs - rhs)) <= 1e-12 * scale

    def test_range_is_measurable(self):
        for seed in range(10):
            op, rng = random_op(seed + 200)
            f = rng.normal(0.0, 5.0, op.n_atoms)
            assert off_block_first(op.partition, op.apply(f)) <= 1e-12

    def test_multiplier_is_read_only(self):
        op = demo_op()
        with pytest.raises(ValueError):
            op.u[0] = 9.0


class TestMultiplierLevels:
    def test_worked_example_block_means(self):
        op = demo_op()
        assert np.allclose(mean_multiplier(op), [2.0, 2.0])
        assert np.max(np.abs(mean_multiplier(op))) == pytest.approx(2.0)

    def test_levels_for_power_pair_are_quadratic_means(self):
        op = demo_op()
        _, psi = pair(2.0)
        # psi^{-1}(E psi(|u|)) with psi = x^2/2 is the weighted quadratic mean.
        want = [np.sqrt((1.0 + 9.0) / 2.0), 2.0]
        assert np.allclose(multiplier_levels(op, psi), want, rtol=1e-12)

    def test_levels_of_block_constant_multiplier_are_its_values(self):
        family = RefinementFamily("reciprocal", (8, 16))
        op = family.member(8)
        _, psi = pair(2.0)
        assert np.allclose(multiplier_levels(op, psi), 1.0 / np.arange(1, 9), rtol=1e-12)

    def test_underflowed_level_below_a_known_one_keeps_the_bound(self):
        # psi = c*|y|**q with q near 1e10: psi(1/j) underflows for j >= 2, but
        # those levels are at most 1/2, below block 1's exact level 1.
        op = RefinementFamily("reciprocal", (8, 16)).member(8)
        phi = young.power(1.0000000001)
        psi = young.conjugate_closed_form(phi)
        with np.errstate(all="ignore"):
            assert np.count_nonzero(multiplier_levels(op, psi) == 0) == 7
            assert norm_upper_bound(op, psi, 4.0) == 4.0

    def test_underflowed_level_that_could_be_the_max_gives_nan(self):
        op = WeightedConditionalExpectation(MeasureSpace(np.ones(4)), Partition([0, 0, 1, 1]), [0.5, 0.5, 0.0, 0.0])
        phi = young.power(1.0000000001)
        psi = young.conjugate_closed_form(phi)
        with np.errstate(all="ignore"):
            assert math.isnan(norm_upper_bound(op, psi, 4.0))
            assert norm_upper_bound(op.with_multiplier(np.zeros(4)), psi, 4.0) == 0.0


class TestNormEstimate:
    def test_scalar_multiplier_attains_its_absolute_value(self):
        rng = np.random.default_rng(50)
        space = MeasureSpace(rng.uniform(0.5, 2.0, 6))
        part = Partition(np.arange(6) % 2)
        phi, _ = pair(2.0)
        for c in (0.5, -3.0):
            op = WeightedConditionalExpectation(space, part, np.full(6, c))
            lower = norm_estimate(op, phi, budget=100, seed=1)
            assert lower == pytest.approx(abs(c), rel=1e-4)

    def test_lower_bound_is_a_true_ratio(self):
        op, _ = random_op(60)
        phi, _ = pair(2.0)
        # The batched search returns the bound alone; the sequential oracle,
        # bitwise equal to it (TestBatchedNormSearch), also returns its witness.
        lower = norm_estimate(op, phi, budget=150, seed=2)
        want, witness, _, _ = sequential_norm_estimate(op, phi, 150, 2)
        assert lower == want
        nf = luxemburg_norm(op.space, phi, witness)
        ratio = luxemburg_norm(op.space, phi, op.apply(witness)) / nf
        assert lower <= ratio * (1.0 + 1e-9)

    def test_a_later_ascent_beats_the_block_mean(self):
        # Why the search keeps NORM_RESTARTS ascents: on this 8-atom log_type
        # case the three reach 6.915237133689802, while one ascent from the best
        # start stops at 6.854020110800984, max|E(u)| up to rounding.  It is one
        # of 2 losses in a probe of 250 random explicit configs at budget 300.
        weights = [0.14279860217091778, 80.7571702231696, 1.4602347787917425, 0.2327994135772857]
        weights += [3.29010222211641, 33.46268174441815, 0.010088841511749247, 0.11372381713111723]
        u = [0.02509395183595438, -0.3115274786976662, 0.44477550149385764, 8.289593787691558]
        u += [-0.03167677629434867, 0.0, -5.595559606253196, -6.854020110800983]
        space, part = MeasureSpace(np.array(weights)), Partition(np.array([2, 0, 3, 2, 3, 3, 1, 4]))
        op = WeightedConditionalExpectation(space, part, np.array(u))
        block_mean_norm = float(np.max(np.abs(mean_multiplier(op))))
        assert norm_estimate(op, young.log_type(), budget=300, seed=2974) > block_mean_norm * (1.0 + 1e-3)

    def test_deterministic_for_a_fixed_seed(self):
        op, _ = random_op(61)
        phi, _ = pair(2.0)
        assert norm_estimate(op, phi, budget=120, seed=9) == norm_estimate(op, phi, budget=120, seed=9)

    def test_sandwich_against_certified_upper_bound(self):
        from orliczlab.measure import domination_constant

        phi, psi = pair(2.0)
        for seed in range(15):
            op, _ = random_op(seed + 300)
            c = domination_constant(op.space, op.partition) ** 2
            upper = norm_upper_bound(op, psi, c)
            lower = norm_estimate(op, phi, budget=120, seed=seed)
            assert lower <= upper * (1.0 + 1e-6)


def sequential_norm_estimate(op, phi, budget, seed, restarts=3, read=None):
    """The one-ratio-at-a-time search that the batched norm_estimate must
    reproduce bitwise; also returns the evaluation count and whether the budget
    ran out inside a sweep, before its last coordinate.  A `read` list gets a
    copy of each vector whose ratio is evaluated, in order."""
    rng = np.random.default_rng(seed)
    n = op.n_atoms
    evals = 0

    def ratio(f):
        nonlocal evals
        evals += 1
        if read is not None:
            read.append(f.copy())
        nf = luxemburg_norm(op.space, phi, f)
        return 0.0 if nf == 0.0 else luxemburg_norm(op.space, phi, op.apply(f)) / nf

    eu = np.abs(mean_multiplier(op))
    b_star = int(np.argmax(eu))
    best_r = float(eu[b_star])
    best_f = (op.partition.labels == b_star).astype(float)

    starts = [best_f]
    if np.any(op.u != 0.0):
        starts.append(op.u.copy())
    starts.append(np.ones(n))
    for _ in range(restarts):
        starts.append(signed_log_uniform(rng, n, 0.1, 10.0))

    scored = sorted(((ratio(s), i) for i, s in enumerate(starts)), reverse=True)
    if scored[0][0] > best_r:
        best_r, best_f = scored[0][0], starts[scored[0][1]].copy()

    mid_sweep = False
    coords = np.arange(n) if n <= 32 else rng.permutation(n)[:32]
    for r, idx in scored[:restarts]:
        f = starts[idx].copy()
        step = 0.5
        while step > 1e-4 and evals < budget:
            improved = False
            for pos, i in enumerate(coords):
                base = f[i]
                scale = max(abs(base), 0.1 * float(np.max(np.abs(f))), 1e-6)
                for delta in (step * scale, -step * scale):
                    f[i] = base + delta
                    cand = ratio(f)
                    if cand > r * (1.0 + 1e-12):
                        r = cand
                        improved = True
                        break
                    f[i] = base
                if evals >= budget:
                    mid_sweep = mid_sweep or pos < len(coords) - 1
                    break
            if not improved:
                step *= 0.5
        if r > best_r:
            best_r, best_f = r, f
    return best_r, best_f, evals, mid_sweep


# 10, 2 and 38 atoms, then 48 atoms of which 32 coordinates are sampled, then
# 7 and 31 atoms: every kind of young._KINDS is searched.
SEARCH_CASES = [
    (random_op(700, n_hi=40)[0], young.scaled_power(2.0)),
    (random_op(701)[0], young.exp_type()),
    (random_op(703, n_hi=40)[0], young.conjugate_power(3.0)),
    (RefinementFamily("reciprocal", (12, 24)).member(24), young.exp_type()),
    (random_op(704)[0], young.log_type()),
    (random_op(706, n_hi=40)[0], young.power(3.0)),
]
SEARCH_BUDGETS = (4, 23, 60, 61, 96)


class TestBatchedNormSearch:
    """norm_estimate scores its ratios in batches; the search must not change."""

    def test_equals_the_sequential_search_bitwise(self):
        ran_out_mid_sweep = on_budget = over_budget = 0
        for k, (op, phi) in enumerate(SEARCH_CASES):
            for seed, budget in enumerate(SEARCH_BUDGETS, start=k):
                got_r = norm_estimate(op, phi, budget=budget, seed=seed)
                want_r, _, evals, mid_sweep = sequential_norm_estimate(op, phi, budget, seed)
                assert got_r == want_r and type(got_r) is float
                # The documented bound on ratio evaluations.  The last batch
                # leaves an even remainder (the budget is met exactly) or an odd
                # one (both steps of the last coordinate go one past it).
                assert evals <= max(budget + 1, 3 + 3)
                on_budget += evals == budget
                over_budget += evals == budget + 1
                ran_out_mid_sweep += mid_sweep
        assert ran_out_mid_sweep > 0 and on_budget > 0 and over_budget > 0

    def test_each_batch_solves_only_the_rows_the_budget_can_reach(self, monkeypatch):
        solved = []

        def recording_norm(space, phi, f):
            solved.append(f[0].copy())  # f stacks the rows over their images
            return luxemburg_norm(space, phi, f)

        monkeypatch.setattr("orliczlab.operators.luxemburg_norm", recording_norm)
        for k, (op, phi) in enumerate(SEARCH_CASES):
            for seed, budget in enumerate(SEARCH_BUDGETS, start=k):
                solved.clear()
                norm_estimate(op, phi, budget=budget, seed=seed)
                read = []
                sequential_norm_estimate(op, phi, budget, seed, read=read)
                starts, *batches = solved
                evals = len(starts)
                assert np.array_equal(starts, read[:evals])
                for rows in batches:
                    assert len(rows) <= 2 * ((budget - evals + 1) // 2)
                    # The rows the walk reads are those the sequential search
                    # evaluates next; after the first improvement they differ.
                    used = 0
                    while used < len(rows) and evals + used < len(read) and np.array_equal(rows[used], read[evals + used]):
                        used += 1
                    assert used > 0
                    evals += used
                assert evals == len(read)


@given(st.integers(0, 10_000), st.floats(1e-3, 1e3))
@settings(max_examples=40, deadline=None)
def test_spectrum_is_invariant_under_weight_scaling(seed, c):
    # E is a ratio of weighted sums, so scaling every weight by c > 0 changes
    # neither the block means nor the matrix beyond rounding.
    op, _ = random_op(seed)
    scaled = WeightedConditionalExpectation(MeasureSpace(c * op.space.weights), op.partition, op.u)
    a, b = spectrum(op), spectrum(scaled)
    tol = 1e-12 * max(1.0, float(np.max(np.abs(op.u))))
    assert np.allclose(b.predicted, a.predicted, rtol=1e-12, atol=tol)
    assert np.allclose(b.computed, a.computed, rtol=1e-12, atol=tol)


class TestLevelSetsAndTruncation:
    def test_counts_follow_the_reciprocal_law(self):
        family = RefinementFamily("reciprocal", (16, 32))
        op = family.member(16)
        _, psi = pair(2.0)
        for eps in (0.011, 0.1, 0.3, 0.9, 1.5):
            want = min(16, int(np.floor(1.0 / eps)))
            # the blocks 0..want-1, ascending: block j carries level 1/(j+1)
            assert np.array_equal(level_set(op, psi, eps), np.arange(want))

    def test_rejects_nonpositive_epsilon(self):
        op = demo_op()
        _, psi = pair(2.0)
        with pytest.raises(ConfigError):
            level_set(op, psi, 0.0)

    def test_truncation_below_min_level_is_identity(self):
        op = demo_op()
        _, psi = pair(2.0)
        trunc = truncate(op, psi, 0.01)
        assert np.array_equal(trunc.u, op.u)

    def test_truncation_above_max_level_is_zero(self):
        op = demo_op()
        _, psi = pair(2.0)
        trunc = truncate(op, psi, 100.0)
        assert np.all(trunc.u == 0.0)

    def test_truncated_rank_bounded_by_level_count(self):
        family = RefinementFamily("reciprocal", (12, 24))
        op = family.member(12)
        _, psi = pair(2.0)
        for eps in (0.09, 0.26, 0.55):
            count = level_set(op, psi, eps).size
            rank = np.linalg.matrix_rank(truncate(op, psi, eps).matrix)
            assert rank <= count

    def test_truncation_fixes_supported_functions(self):
        family = RefinementFamily("reciprocal", (10, 20))
        op = family.member(10)
        _, psi = pair(2.0)
        eps = 0.25  # keeps blocks 1..4 (levels 1, 1/2, 1/3, 1/4)
        keep = level_set(op, psi, eps)
        rng = np.random.default_rng(70)
        f = rng.normal(0.0, 2.0, op.n_atoms)
        f[~np.isin(op.partition.labels, keep)] = 0.0
        trunc = truncate(op, psi, eps)
        assert np.max(np.abs(trunc.apply(f) - op.apply(f))) <= 1e-14

    def test_zero_multiplier_truncates_to_zero_gap(self):
        space = MeasureSpace(np.ones(6))
        part = Partition(np.arange(6) % 3)
        op = WeightedConditionalExpectation(space, part, np.zeros(6))
        phi, psi = pair(2.0)
        assert level_set(op, psi, 0.5).size == 0
        report = truncation_gap_check(op, phi, psi, epsilon=0.5, budget=50, seed=0)
        assert gap_within(report)
        assert report["gap_lower_bound"] == 0.0

    def test_gap_bounded_by_constant_times_epsilon(self):
        family = RefinementFamily("reciprocal", (16, 32))
        op = family.member(16)
        phi, psi = pair(2.0)
        for eps in (0.05, 0.2, 0.7):
            report = truncation_gap_check(op, phi, psi, epsilon=eps, budget=80, seed=1)
            assert gap_within(report), report
            assert report["bound"] == 4.0 * eps  # C0 = 2 for paired equal-weight atoms

    def test_distinct_blocks_keep_images_apart(self):
        # Unit-norm indicators of blocks with |E(u)| >= eps0 have pairwise
        # image distances at least eps0, because each image dominates its own
        # block's scaled indicator atomwise: the separation argument behind
        # non-compactness when infinitely many blocks clear the level.
        op = demo_op()
        phi, _ = pair(2.0)
        eps0 = 2.0
        eu = mean_multiplier(op)
        images = []
        for b in range(op.partition.n_blocks):
            assert abs(eu[b]) >= eps0
            chi = (op.partition.labels == b).astype(float)
            images.append(op.apply(chi / luxemburg_norm(op.space, phi, chi)))
        for i in range(len(images)):
            for j in range(i + 1, len(images)):
                dist = luxemburg_norm(op.space, phi, images[i] - images[j])
                assert dist >= eps0 * (1.0 - 1e-9)


class TestRefinementFamily:
    def test_member_shapes(self):
        family = RefinementFamily("flat", (4, 8), atoms_per_block=3)
        op = family.member(4)
        assert op.n_atoms == 12
        assert op.partition.n_blocks == 4
        assert op.space.total == pytest.approx(1.0)
        assert np.all(op.u == 1.0)

    def test_law_values(self):
        assert np.allclose(law_values("log_growth", 3), np.log1p([1, 2, 3]))

    def test_member_listing_matches_sizes(self):
        family = RefinementFamily("reciprocal", (4, 8, 16))
        assert [m for m, _ in family.members] == [4, 8, 16]
        assert family.members is family.members

    def test_rejects_bad_parameters(self):
        with pytest.raises(ConfigError):
            RefinementFamily("unknown", (4, 8))
        with pytest.raises(ConfigError):
            RefinementFamily("flat", (8, 4))
        with pytest.raises(ConfigError):
            RefinementFamily("flat", ())
        with pytest.raises(ConfigError):
            RefinementFamily("flat", (4, 8), atoms_per_block=0)


def gap_within(report):
    """The truncation gap at most its bound C*epsilon, up to TRUNCATION_GAP_TOL."""
    return report["gap_lower_bound"] <= report["bound"] * (1.0 + TRUNCATION_GAP_TOL)


def member_gaps(law, sizes):
    """essential_gap at seed 0 on every member of a refinement family, in size order."""
    phi, psi = pair(2.0)
    return [essential_gap(op, phi, psi, 0) for _, op in RefinementFamily(law, sizes).members]


class TestEssentialNorm:
    def test_decay_family_threshold_vanishes(self):
        rows = member_gaps("reciprocal", (16, 64, 256))
        betas = [row["beta"] for row in rows]
        assert betas == pytest.approx([1.0 / 5.0, 1.0 / 17.0, 1.0 / 65.0])
        assert betas[0] > betas[1] > betas[2]
        assert all(map(gap_within, rows))

    def test_flat_family_threshold_stabilizes(self):
        rows = member_gaps("flat", (16, 64))
        assert [row["beta"] for row in rows] == pytest.approx([1.0, 1.0])
        assert all(map(gap_within, rows))


class TestSpectrum:
    def test_worked_example(self):
        report = spectrum(demo_op())
        assert np.allclose(report.predicted, [0.0, 0.0, 2.0, 2.0])
        assert report.max_match_distance <= 1e-8

    def test_zero_multiplier_gives_all_zeros(self):
        space = MeasureSpace(np.ones(5))
        part = Partition([0, 0, 1, 1, 1])
        op = WeightedConditionalExpectation(space, part, np.zeros(5))
        report = spectrum(op)
        assert np.allclose(report.predicted, 0.0)
        assert report.max_match_distance <= 1e-12

    def test_singleton_blocks_give_the_diagonal(self):
        space = MeasureSpace([1.0, 2.0, 0.5])
        part = Partition([0, 1, 2])
        u = np.array([3.0, -1.0, 0.25])
        op = WeightedConditionalExpectation(space, part, u)
        assert np.allclose(np.diag(op.matrix), u)
        report = spectrum(op)
        assert np.allclose(report.predicted, np.sort(u))
        assert report.max_match_distance <= 1e-12

    def test_random_scenarios_match_the_oracle(self):
        for seed in range(30):
            op, _ = random_op(seed + 500)
            report = spectrum(op)
            tol = 1e-8 * (1.0 + float(np.max(np.abs(report.predicted))))
            assert report.max_match_distance <= tol

    @staticmethod
    def tamper_rows(monkeypatch, m):
        """Make block_rows hand out the rows of m, the oracle matrix tampered with."""
        block_rows = WeightedConditionalExpectation.block_rows

        def tampered(self):
            for members, _ in block_rows(self):
                yield members, m[members]

        monkeypatch.setattr(WeightedConditionalExpectation, "block_rows", tampered)

    def test_nonzero_off_block_entry_is_rejected(self, monkeypatch):
        op = demo_op()
        m = op.matrix.copy()
        m[0, 3] = 1e-300
        self.tamper_rows(monkeypatch, m)
        with pytest.raises(SpectralOracleError):
            spectrum(op)

    def test_nan_off_block_entry_is_rejected(self, monkeypatch):
        op = demo_op()
        m = op.matrix.copy()
        m[3, 0] = np.nan
        self.tamper_rows(monkeypatch, m)
        with pytest.raises(SpectralOracleError):
            spectrum(op)

    def test_negative_zero_off_block_entry_is_accepted(self, monkeypatch):
        op = demo_op()
        m = op.matrix.copy()
        m[0, 3] = m[3, 0] = -0.0
        self.tamper_rows(monkeypatch, m)
        assert spectrum(op).max_match_distance <= 1e-12

    def test_oracle_memory_at_2048_atoms(self):
        # The matrix would be 32 MiB; the oracle holds one block's rows at a
        # time (2 x 2048 here, 32 KiB), so the peak stays far below one n**2.
        space, part = build_symmetric_space(1024)
        op = WeightedConditionalExpectation(space, part, np.linspace(-1.0, 2.0, space.n_atoms))
        tracemalloc.start()
        try:
            spectrum(op)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2**20

    def test_complex_oracle_output_is_rejected(self, monkeypatch):
        def fake_eigvals(_m):
            return np.array([2.0 + 1e-3j, 2.0 - 1e-3j, 0.0, 0.0])

        monkeypatch.setattr(np.linalg, "eigvals", fake_eigvals)
        with pytest.raises(SpectralOracleError):
            spectrum(demo_op())


class TestResolvent:
    def test_worked_example_at_lambda_five(self):
        rng = np.random.default_rng(80)
        f = rng.normal(0.0, 2.0, 4)
        report = resolvent_check(demo_op(), 5.0, f)
        assert report["relative_residual"] <= 1e-10
        assert report["margin"] == pytest.approx(3.0)

    def test_measurable_functions_simplify(self):
        op = demo_op()
        lam = 5.0
        f = np.array([4.0, 4.0, -2.0, -2.0])  # block-constant
        eu = mean_multiplier(op)[op.partition.labels]
        simplified = f / (eu - lam)
        resolved = (op.apply(f) - f * (eu - lam)) / (lam * (eu - lam))
        assert np.allclose(resolved, simplified, atol=1e-13)

    def test_random_cases_with_margin(self):
        for seed in range(20):
            op, rng = random_op(seed + 600)
            lam = float(np.max(np.abs(mean_multiplier(op)))) + 0.5 + float(rng.uniform(0, 1))
            f = rng.normal(0.0, 3.0, op.n_atoms)
            report = resolvent_check(op, lam, f)
            assert report["relative_residual"] <= RESOLVENT_TOL, report

    def test_rejects_singular_lambda(self):
        op = demo_op()
        with pytest.raises(SingularLambda):
            resolvent_check(op, 2.0, np.ones(4))  # an eigenvalue
        with pytest.raises(SingularLambda):
            resolvent_check(op, 0.0, np.ones(4))

    def test_residual_grows_near_the_singular_set(self):
        # Not asserted as a bound, only the direction: closer lambda, larger
        # residual amplification risk; here we just confirm finiteness and
        # reporting at a narrow but legal margin.
        op = demo_op()
        report = resolvent_check(op, 2.0 + 1e-6, np.ones(4))
        assert report["margin"] == pytest.approx(1e-6, rel=1e-3)

    def test_a_nan_residual_does_not_hold(self):
        # At lambda = 0.6 the right composition divides T f by 0.36 before T
        # multiplies it by u = +-1e154 again: the products overflow to -inf and
        # inf, whose mean is NaN, while the left one stays finite.  The relative
        # residual that a tolerance judges must be the NaN, not the finite one.
        space, part = MeasureSpace(np.ones(4)), Partition([0, 0, 1, 1])
        op = WeightedConditionalExpectation(space, part, np.array([1e154, -1e154, 2.0, 3.0]))
        with np.errstate(all="ignore"):
            report = resolvent_check(op, 0.6, np.array([1.0, 3.0, 1.0, 1.0]))
        assert math.isfinite(report["residual_left"]) and math.isnan(report["residual_right"])
        assert math.isnan(report["relative_residual"])


class TestClassifier:
    def _run(self, law, phi, psi):
        return boundedness_classifier(RefinementFamily(law, (16, 64, 256)), phi, psi)

    def test_expected_verdicts(self):
        phi, psi = pair(2.0)
        reciprocal = self._run("reciprocal", phi, psi)
        assert reciprocal["bounded"] is True
        assert reciprocal["compact"] is True
        assert reciprocal["flags"] == {"gcthi": True, "delta_prime": True}
        flat = self._run("flat", phi, psi)
        assert flat["bounded"] is True
        assert flat["compact"] is False
        growth = self._run("log_growth", phi, psi)
        assert growth["bounded"] is False
        assert growth["compact"] is False

    def test_compactness_needs_its_hypothesis(self):
        # exp_type has no Δ′ certificate, so the compactness criterion is not licensed.
        verdict = self._run("reciprocal", young.exp_type(), young.log_type())
        assert verdict["compact"] is None
        assert verdict["flags"]["delta_prime"] is False
