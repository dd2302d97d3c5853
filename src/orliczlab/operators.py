"""The weighted averaging operator T f = E(u f): matrix form, norms, spectrum, compactness.

T multiplies by a fixed function u and then projects onto the block
sigma-algebra.  On a finite space T is the block-diagonal matrix of rank-one
blocks M[i][j] = w_j u_j / mu(B(i)) for j in the block of i.  Every check runs
through the averaging definition; M is an independent oracle, built only when
read and from weights, u and labels alone, and the spectrum check builds its
rows one block at a time and solves each diagonal block after asserting that
the block's rows have no entry outside it.

Infinite-space phenomena (compactness, essential norm) are emulated by
refinement families: sequences of spaces with growing block counts sharing a
block-indexed multiplier law, on which trends replace limits.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, SingularLambda, SpectralOracleError
from .holder import domination_holder_constant
from .measure import MeasureSpace, Partition, _rows, as_values, block_level, block_mean, cond_exp, once
from .orlicz import luxemburg_norm
from .sampling import signed_log_uniform
from .young import YoungFunction, _stable_sup, check_delta_prime

__all__ = [
    "WeightedConditionalExpectation",
    "SpectrumReport",
    "RefinementFamily",
    "law_values",
    "mean_multiplier",
    "multiplier_levels",
    "norm_upper_bound",
    "norm_estimate",
    "level_set",
    "truncate",
    "truncation_gap_check",
    "essential_gap",
    "spectrum",
    "resolvent_check",
    "boundedness_classifier",
]


@dataclass(frozen=True, eq=False)
class WeightedConditionalExpectation:
    """T f = E(u f), with a dense matrix built on each read as an independent oracle."""

    space: MeasureSpace
    partition: Partition
    u: np.ndarray

    def __post_init__(self) -> None:
        u = as_values(self.space, self.u).copy()
        u.setflags(write=False)
        object.__setattr__(self, "u", u)

    @cached_property
    def _memo(self) -> dict:
        """Values solved once for this operator, by measure.once()."""
        return {}

    @property
    def matrix(self) -> np.ndarray:
        """The dense n x n matrix, filled from block_rows.  Not kept: at 2048
        atoms it is 32 MiB, which would stay resident through later suites."""
        m = np.zeros((self.n_atoms, self.n_atoms))
        for members, rows in self.block_rows():
            m[members] = rows
        m.setflags(write=False)
        return m

    def block_rows(self):
        """(members, rows) for each block in turn: its atoms in ascending order
        and their rows of M, M[i][j] = w_j u_j / mu(B(i)) for j in the block of
        i, else 0.  Built from weights, u and labels alone, so it shares no code
        with block_mean, the averaging it cross-checks; one block's rows are
        held at a time.  Every block's members come from one stable argsort
        of the labels, split at the cumulative block sizes."""
        wu = self.space.weights * self.u
        labels = self.partition.labels
        mass = self.partition.block_measures(self.space)
        by_block = np.argsort(labels, kind="stable")
        cuts = np.cumsum(np.bincount(labels))[:-1]
        for b, members in enumerate(np.split(by_block, cuts)):
            rows = np.zeros((members.size, self.n_atoms))
            rows[:, members] = wu[members] / mass[b]
            yield members, rows

    @property
    def n_atoms(self) -> int:
        return self.space.n_atoms

    def apply(self, f) -> np.ndarray:
        """E(u*f) by the averaging definition; agrees with matrix @ f to 1e-12.

        f has shape (..., n) and is mapped row by row.
        """
        return cond_exp(self.space, self.partition, self.u * _rows(self.space, f))

    def with_multiplier(self, u) -> "WeightedConditionalExpectation":
        return WeightedConditionalExpectation(self.space, self.partition, u)


def mean_multiplier(op: WeightedConditionalExpectation) -> np.ndarray:
    """E(u) as one value per block."""
    return block_mean(op.space, op.partition, op.u)


def multiplier_levels(op: WeightedConditionalExpectation, psi: YoungFunction) -> np.ndarray:
    """psi^{-1}(E(psi(|u|))) as one value per block; the level function of the theory.

    Solved once per operator and psi; every call returns that read-only array."""
    return once(op, psi, lambda: block_level(op.space, op.partition, psi, op.u))


def _bound_levels(op: WeightedConditionalExpectation, psi: YoungFunction) -> tuple[np.ndarray, np.ndarray]:
    """(levels, peaks): multiplier_levels with NaN for a level that underflowed
    to 0 on a block where u is not all 0, and max |u| on each block.

    psi(|u|) underflows for psi = c*|y|**q with q near 1e10, say, and the
    level 0 would then pass for a valid bound.  The true level is positive and
    at most the block's peak, since E(psi|u|) <= psi(max |u|).
    """
    levels = multiplier_levels(op, psi)
    peaks = np.zeros(levels.size)
    np.maximum.at(peaks, op.partition.labels, np.abs(op.u))
    return np.where((levels == 0) & (peaks > 0), math.nan, levels), peaks


def norm_upper_bound(
    op: WeightedConditionalExpectation,
    psi: YoungFunction,
    C: float,
) -> float:
    """C * max over blocks of psi^{-1}(E(psi|u|)), valid when C is a certified
    Hölder constant for this averaging and the pair (phi, psi).  NaN when a
    level that underflowed to 0 could hold the max (see _bound_levels)."""
    levels, peaks = _bound_levels(op, psi)
    lost = np.isnan(levels)
    top = float(np.max(levels, where=~lost, initial=0.0))
    if not np.all(peaks[lost] <= top):
        top = math.nan
    return C * top


# Random starts of norm_estimate, and how many of the best starts it ascends from.
NORM_RESTARTS = 3


def norm_estimate(
    op: WeightedConditionalExpectation,
    phi: YoungFunction,
    budget: int = 400,
    seed: int = 0,
) -> float:
    """Certified lower bound on the operator norm.

    Block indicators are exact extremal candidates: T maps the indicator of
    block B to E(u)(B) times itself, so the norm ratio is |E(u)(B)| with no
    solver error, and the best block seeds the search analytically.  The
    multiplier itself and NORM_RESTARTS seeded random vectors are then scored
    numerically, and the NORM_RESTARTS best starts are improved by
    first-improvement coordinate ascent with a shrinking step.  Every candidate
    ratio is a true lower bound, so the maximum is certified, and the result
    is deterministic given the seed.

    `budget` stops the ascent, not the scoring: all starts (at most
    NORM_RESTARTS + 3) are scored, and the ascent tests the budget only after
    both steps of a coordinate, so at most max(budget + 1, NORM_RESTARTS + 3)
    ratios are evaluated, each from two Luxemburg norms.  Ratios are computed
    in batches (all starts at once, then both steps of every coordinate the
    budget can still reach), and a batch is read in order up to its first
    improvement, so the search is the same as one ratio at a time.
    """
    rng = np.random.default_rng(seed)
    n = op.n_atoms

    def ratios(fs: np.ndarray) -> np.ndarray:
        """||T f|| / ||f|| per row, 0 where f = 0, from one batched norm solve."""
        nf, ntf = luxemburg_norm(op.space, phi, np.stack([fs, op.apply(fs)]))
        return np.divide(ntf, nf, out=np.zeros_like(nf), where=nf != 0.0)

    eu = np.abs(mean_multiplier(op))
    b_star = int(np.argmax(eu))
    best_r = float(eu[b_star])

    starts: list[np.ndarray] = [(op.partition.labels == b_star).astype(float)]
    if np.any(op.u != 0.0):
        starts.append(op.u.copy())
    starts.append(np.ones(n))
    for _ in range(NORM_RESTARTS):
        starts.append(signed_log_uniform(rng, n, 0.1, 10.0))

    scored = sorted(zip(ratios(np.stack(starts)).tolist(), range(len(starts))), reverse=True)
    evals = len(starts)
    best_r = max(best_r, scored[0][0])

    coords = np.arange(n) if n <= 32 else rng.permutation(n)[:32]
    for r, idx in scored[:NORM_RESTARTS]:
        f = starts[idx].copy()
        step = 0.5
        while step > 1e-4 and evals < budget:
            improved = False
            j = 0
            while j < len(coords) and evals < budget:
                # Rows 2k and 2k + 1 step coordinate batch[k] up and down.
                batch = coords[j : j + (budget - evals + 1) // 2]
                delta = step * np.maximum(np.abs(f[batch]), max(0.1 * float(np.max(np.abs(f))), 1e-6))
                props = np.repeat(f[None], 2 * len(batch), axis=0)
                rows = 2 * np.arange(len(batch))
                props[rows, batch] = f[batch] + delta
                props[rows + 1, batch] = f[batch] - delta
                cands = ratios(props)
                hits = np.flatnonzero(cands > r * (1.0 + 1e-12))
                used = int(hits[0]) + 1 if hits.size else len(cands)
                evals += used
                j += (used + 1) // 2
                if hits.size:
                    r = float(cands[hits[0]])
                    f = props[hits[0]].copy()
                    improved = True
            if not improved:
                step *= 0.5
        best_r = max(best_r, r)
    return best_r


def level_set(op: WeightedConditionalExpectation, psi: YoungFunction, epsilon: float) -> np.ndarray:
    """The blocks where the level function psi^{-1}(E(psi|u|)) reaches epsilon, ascending."""
    if epsilon <= 0:
        raise ConfigError("epsilon must be positive")
    return np.flatnonzero(multiplier_levels(op, psi) >= epsilon)


def truncate(
    op: WeightedConditionalExpectation, psi: YoungFunction, epsilon: float
) -> WeightedConditionalExpectation:
    """The finite-level part of T: multiplier restricted to blocks at level >= epsilon.

    The truncated operator acts only on the blocks of the level set, so its
    rank is at most the level-set count.
    """
    mask = np.isin(op.partition.labels, level_set(op, psi, epsilon))
    return op.with_multiplier(op.u * mask)


def truncation_gap_check(
    op: WeightedConditionalExpectation,
    phi: YoungFunction,
    psi: YoungFunction,
    epsilon: float,
    budget: int = 200,
    seed: int = 0,
) -> dict:
    """Estimate the norm of T minus its truncation, and the bound C*epsilon it must stay below.

    C is this operator's certified Hölder constant C0**2
    (holder.domination_holder_constant on its space and partition).  T is
    linear in the multiplier, so the difference is the operator with
    multiplier u minus the truncated multiplier; its estimated norm is a lower
    bound.
    """
    residual = op.with_multiplier(op.u - truncate(op, psi, epsilon).u)
    gap = norm_estimate(residual, phi, budget=budget, seed=seed)
    bound = domination_holder_constant(op.space, op.partition) * epsilon
    return {
        "epsilon": float(epsilon),
        "gap_lower_bound": gap,
        "bound": bound,
    }


@dataclass(frozen=True)
class RefinementFamily:
    """Spaces of growing block count sharing a block-indexed multiplier law.

    Member m has m blocks of `atoms_per_block` equal-weight atoms with total
    measure 1; block j (1-based) carries the constant multiplier law(j).  The
    laws: reciprocal 1/j, flat 1, log_growth log(1+j).
    """

    law: str
    sizes: tuple[int, ...]
    atoms_per_block: int = 2

    # The one multiplier-law table, name -> (law(j), bounded, compact): the
    # trend each law predicts.  Scenarios parse and materialize through it and
    # the suites check the family's verdicts against it.
    LAWS = {
        "reciprocal": (lambda j: 1.0 / j, True, True),
        "flat": (lambda j: 1.0, True, False),
        "log_growth": (lambda j: math.log1p(j), False, False),
    }

    def __post_init__(self) -> None:
        if self.law not in self.LAWS:
            raise ConfigError(f"u.name: unknown law {self.law!r}")
        # One member is no trend: every trend check needs a second size.
        if len(self.sizes) < 2 or any(b <= a for a, b in zip(self.sizes, self.sizes[1:])):
            raise ConfigError("space.sizes: need at least two strictly increasing block counts")
        if self.atoms_per_block < 1:
            raise ConfigError("space.atoms_per_block: must be at least 1")

    def member(self, m: int) -> WeightedConditionalExpectation:
        """A new operator for m blocks; `members` holds the family's own."""
        n = m * self.atoms_per_block
        space = MeasureSpace(np.full(n, 1.0 / n))
        labels = np.arange(n) // self.atoms_per_block
        u = law_values(self.law, m)[labels]
        return WeightedConditionalExpectation(space, Partition(labels), u)

    @cached_property
    def members(self) -> tuple[tuple[int, WeightedConditionalExpectation], ...]:
        """(m, operator) for each size, built once and shared by every reader in a
        process; each forked worker of `run` solves their levels and brackets itself."""
        return tuple((m, self.member(m)) for m in self.sizes)


def law_values(law: str, m: int) -> np.ndarray:
    """law(j) for the blocks j = 1..m, law a name in RefinementFamily.LAWS."""
    fn = RefinementFamily.LAWS[law][0]
    return np.asarray([fn(j) for j in range(1, m + 1)])


# How far above beta the essential-norm surrogate tests the truncation gap,
# and the norm search budget it tests it with.
ESSENTIAL_DELTA = 0.05
ESSENTIAL_BUDGET = 150


def essential_gap(op: WeightedConditionalExpectation, phi: YoungFunction, psi: YoungFunction, seed: int) -> dict:
    """Truncation gap at epsilon = beta + ESSENTIAL_DELTA, and its bound C*epsilon,
    by truncation_gap_check with this operator's own C and ESSENTIAL_BUDGET.

    beta is the smallest epsilon whose level set fits within K = max(1,
    n_blocks // 4) blocks ("finitely many" at desk scale): the (K+1)-th
    largest level, or 0 when there are no more than K blocks.  A level that
    underflowed to 0 (or is NaN) leaves beta unknown, so beta is then NaN,
    and so is the bound C*epsilon.
    """
    cutoff = max(1, op.partition.n_blocks // 4)
    levels = np.sort(_bound_levels(op, psi)[0])[::-1]
    if np.isnan(levels).any():
        beta = math.nan
    else:
        beta = float(levels[cutoff]) if levels.size > cutoff else 0.0
    gap = truncation_gap_check(op, phi, psi, beta + ESSENTIAL_DELTA, budget=ESSENTIAL_BUDGET, seed=seed)
    return {"cutoff": cutoff, "beta": beta, **gap}


@dataclass(frozen=True)
class SpectrumReport:
    """Structural eigenvalue prediction against the dense oracle, with the worst block's distance and bound."""

    predicted: np.ndarray
    computed: np.ndarray
    max_match_distance: float
    tolerance: float


def spectrum(op: WeightedConditionalExpectation) -> SpectrumReport:
    """Predicted eigenvalues {E(u)(B)} plus 0 with multiplicity atoms - blocks.

    The oracle takes the dense matrix's rows one block at a time
    (WeightedConditionalExpectation.block_rows), asserts that every nonzero
    entry of those rows lies in the block's columns, and solves that diagonal
    block S = 1 b^T densely: its eigenvalues are its trace m and 0 (k - 1
    times, k the block's size), and for m near 0 the zero is defective.
    Each block is judged by the larger of 1e-8 * (1 + max|predicted|)
    (eigvals' rounding scales with the entries) and 3r, with
    r = 2d + min(sqrt(2dN), 4dN/|m|), N = ||S||_2 = ||S||_F and d = k eps N
    taken as eigvals' backward error: by Sherman-Morrison on S - mu, every
    eigenvalue mu of S + E with ||E|| <= d lies within r of 0 or m, so the
    sorted pairing of the block's eigenvalues with m and its zeros is within
    3r.  An imaginary part above that bound raises SpectralOracleError (the
    prediction is real).  The report holds the sorted multisets and the
    distance and bound of the block whose distance is the largest fraction
    of its bound; a block holding inf or NaN, which eigvals refuses, gets
    NaN eigenvalues and so a NaN distance."""
    means = mean_multiplier(op)
    raw, stats = [], []
    for members, rows in op.block_rows():
        s = rows[:, members]
        if np.count_nonzero(rows) != np.count_nonzero(s):  # a NaN counts, a -0.0 does not
            raise SpectralOracleError("the dense matrix has a nonzero entry off its diagonal blocks")
        raw.append(np.linalg.eigvals(s) if np.isfinite(s).all() else np.full(len(s), np.nan))
        stats.append((np.linalg.norm(s), np.trace(s), np.abs(raw[-1].imag).max()))
    (norms, traces, imags), sizes = np.array(stats).T, np.bincount(op.partition.labels)
    d = sizes * np.finfo(float).eps * norms
    with np.errstate(divide="ignore", invalid="ignore"):  # fmin skips the 0/0 of a zero block
        near = np.fmin(np.sqrt(2.0 * d * norms), 4.0 * d * norms / np.abs(traces))
    bounds = np.maximum(1e-8 * (1.0 + float(np.max(np.abs(means)))), 3.0 * (2.0 * d + near))
    if np.any(imags > bounds):
        b = int(np.argmax(imags > bounds))
        raise SpectralOracleError(f"oracle imaginary parts up to {imags[b]:.3g} on block {b}, above its bound {bounds[b]:.3g}")
    # Pair each block's eigenvalues with its mean and zeros, both sorted within the block.
    block, starts = np.repeat(np.arange(sizes.size), sizes), np.cumsum(sizes) - sizes
    computed, predicted = np.concatenate(raw).real, np.zeros(op.n_atoms)
    predicted[starts] = means
    gaps = computed[np.lexsort((computed, block))] - predicted[np.lexsort((predicted, block))]
    dists = np.maximum.reduceat(np.abs(gaps), starts)
    worst = int(np.argmax(dists / bounds))  # the first NaN if any
    return SpectrumReport(np.sort(predicted), np.sort(computed), float(dists[worst]), float(bounds[worst]))


def resolvent_check(op: WeightedConditionalExpectation, lam: float, f) -> dict:
    """Measure how well the explicit resolvent formula inverts T - lam both ways.

    S g = (T g - g*(E(u) - lam)) / (lam*(E(u) - lam)), defined whenever lam is
    nonzero and stays away from every block mean; SingularLambda fires when the
    margin drops below 1e-12.  Both composition residuals are measured in the
    sup norm, and `relative_residual` is the larger over max(||f||_inf, 1e-300),
    NaN if either is.
    """
    f = as_values(op.space, f)
    eu = mean_multiplier(op)[op.partition.labels]
    margin = min(abs(lam), float(np.min(np.abs(eu - lam))))
    if margin < 1e-12:
        raise SingularLambda(f"lambda = {lam} is within {margin:.3g} of the singular set")

    def resolve(g: np.ndarray) -> np.ndarray:
        return (op.apply(g) - g * (eu - lam)) / (lam * (eu - lam))

    def shifted(g: np.ndarray) -> np.ndarray:
        return op.apply(g) - lam * g

    scale = float(np.max(np.abs(f))) if f.size else 0.0
    r_left = float(np.max(np.abs(resolve(shifted(f)) - f)))
    r_right = float(np.max(np.abs(shifted(resolve(f)) - f)))
    return {
        "lambda": float(lam),
        "margin": margin,
        "residual_left": r_left,
        "residual_right": r_right,
        "relative_residual": float(np.max([r_left, r_right])) / max(scale, 1e-300),
    }


def boundedness_classifier(
    family: RefinementFamily, phi: YoungFunction, psi: YoungFunction
) -> dict:
    """Trend verdicts for boundedness and compactness on a refinement family.

    Bounded: the running sup of the level function stabilizes across sizes
    (every sup finite, relative change within 1 %).  Compact: bounded, and the
    level-set count stabilizes for every epsilon on a log grid of 8 points
    from 0.1 to 2.  Boundedness rests on the conditional Hölder inequality
    (GCTHI); compactness needs Δ′ for phi as well, which check_delta_prime
    decides here.  Without it `compact` is None.
    """
    # GCTHI always holds: C0**2 (holder.domination_holder_constant) certifies
    # it on every partition.
    has_dp = check_delta_prime(phi) is not None
    grid = np.geomspace(0.1, 2.0, 8)

    sups = []
    counts = []
    for _, op in family.members:
        levels = multiplier_levels(op, psi)
        sups.append(float(np.max(levels)))
        counts.append([int(np.sum(levels >= e)) for e in grid])

    bounded = _stable_sup(sups)
    compact: bool | None
    if has_dp:
        compact = bounded and all(
            row_prev == row_next for row_prev, row_next in zip(counts, counts[1:])
        )
    else:
        compact = None
    return {
        "bounded": bounded,
        "compact": compact,
        "level_sups": sups,
        "level_counts": counts,
        "eps_grid": [float(e) for e in grid],
        "flags": {"gcthi": True, "delta_prime": has_dp},
    }
