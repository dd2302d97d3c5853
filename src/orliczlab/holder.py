"""Conditional Hölder inequality: ratio evaluation, constant search, certified constants.

The inequality bounds E(|fg|) by a constant times the product of the inverted
block averages phi^{-1}(E(phi|f|)) and psi^{-1}(E(psi|g|)) for a complementary
pair (phi, psi).  The constant has no closed form in general.  This module
estimates it by randomized search, certifies C0**2 from pointwise domination
|h| <= C0 * E(|h|) (C0 the partition's domination constant; proof in
domination_holder_constant), and samples C1 and C2, the suprema of the
normalized block averages.  Only the exact suprema make C1 + C2 a Hölder
constant (by Young's inequality x*y <= phi(x) + psi(y)); the sampled ones
are lower estimates of them, and a pair outside the sampled box can exceed
their sum.  One routine, _holder_ratios, computes every ratio from the three
block means it takes itself, inverting both targets by the pair's .inverse.
The pair is taken as given and never conjugated here: the CLI builds psi by
young.conjugate_closed_form, and the young-calculus suite's
conjugate_consistency is the one check of psi against the numeric conjugate.

Both searches split their seeded sample batches into W = min(CPUs, 2, rows)
contiguous row ranges that run on parallel threads, each drawing its rows
from the same PCG64 positions as the one-shot batches.  Each range folds its
chunks' scores into a running maximum, and the ranges' maxima are combined by
np.maximum.reduce.  The maximum propagates NaN and does not depend on the
order it is taken in, so every result is bit for bit np.max over the one-shot
batch, whatever W and the chunk size.  Every score reads a sample only
through |f| and |g|, so the ranges draw the magnitudes alone and no sign is drawn.
Each range scores its chunks in one young.Workspace of its own: the
evaluations, block means, levels and Newton passes write into its arrays,
allocated at the range's first chunk and reused by the rest.

The ratio search of a pair with a Newton kind solves few of its levels: each
score is given its range's running maximum, and _holder_ratios leaves out the
entries that the conditional Jensen inequality phi(E|f|) <= E phi(|f|), on
which the Hölder inequality rests, proves below it, about 88 % of them on the
exp-pair workload.  The result is bit for bit the same, while each range,
holding its own maximum, drops different entries for each W.
"""

from __future__ import annotations

import math
import os
import threading

import numpy as np

from .errors import PreconditionViolated
from .measure import MeasureSpace, Partition, block_level, block_mean, domination_constant
from .sampling import log_uniform_chunks
from .young import Workspace, YoungFunction, evaluate

__all__ = [
    "empirical_holder_constant",
    "normalization_constants",
    "domination_holder_constant",
]

# Elements drawn and scored at once by the randomized searches: bounds each
# sample array and temporary to 2**18 doubles (2 MiB) whatever the budget and
# space; the block means' own temporaries are no larger, whatever the chunk's
# length (the gather's two rows x n_blocks arrays, or _BLOCK_MEAN_CHUNK values).
_SEARCH_CHUNK = 1 << 18
# Most row ranges a search runs in parallel (see _search_max), and most
# scenarios a `run` runs in parallel (cli._build_report); only 2 CPUs have
# been measured.
_MAX_WORKERS = 2
# Rows of a range's first chunk scored exactly to seed its running maximum,
# and the relative slack below that maximum at which _holder_ratios drops an
# entry: far above the rounding of its bound (below 1e-12 of it).
_SEED_ROWS = 8
_PRUNE_SLACK = 1e-9


def _holder_ratios(
    space: MeasureSpace,
    partition: Partition,
    phi: YoungFunction,
    psi: YoungFunction,
    f: np.ndarray,
    g: np.ndarray,
    work: Workspace | None = None,
    best: float | None = None,
) -> np.ndarray:
    """Blockwise E(|fg|) / [phi^{-1}(E(phi|f|)) * psi^{-1}(E(psi|g|))], (..., n) -> (..., n_blocks).

    Each factor is constant on blocks, so the inverses run once per block mean;
    broadcasting the result through `partition.labels` gives the atomwise ratios.

    best: a search range's running maximum, given only with the magnitudes
    that _search_max draws.  When a kind of the pair has no power formula,
    the result is then flat and holds only the entries not proved below
    best, in order, and may be empty; a best of -inf (a range's first chunk)
    is first raised to the exact maximum of the leading _SEED_ROWS rows.  By
    the conditional Jensen inequality phi(E|f|) <= E phi(|f|), each level is
    at least E|f|, and at least phi.row.floor(E phi|f|) when phi has a floor;
    likewise for g.  So E|fg| / (lo_f * lo_g) bounds the ratio, up to the
    rounding of the means and of evaluate, below 1e-12 of it on the draws'
    range [1e-3, 1e3].  An entry is dropped when
    E|fg| < best * (1 - _PRUNE_SLACK) * lo_f * lo_g, which a NaN on either
    side never meets; an entry with a zero target (whose ratio is +inf or 0
    by _ratio_atoms, not bounded by lo) is kept.  Each kept root and ratio is
    bit for bit the one solved without best.

    Workspace contract: every pass writes into `work` (a search range's, else
    one made for this call), reading f and g and writing neither.  The block
    means of phi|f|, psi|g| and |fg| go into the three rows of its
    (3, ..., n_blocks) array "holder.levels", each taken in its (..., n)
    array "atoms" first.  To drop entries, the two bounds go into "atoms", a
    (2, ..., n_blocks) array now, each floor taken in "scratch" between
    kernels, and the verdicts into its bool array "holder.dropped"; the kept
    targets are then compacted to the front of "atoms" and the kept E|fg| to
    the front of the first row.  Both targets are solved in place and the
    ratios written over E|fg|, where the result is, valid until the next call.
    """
    work = Workspace() if work is None else work
    prune = best is not None and (phi.row.power is None or psi.row.power is None)
    if prune and best == -math.inf:
        best = np.max(_holder_ratios(space, partition, phi, psi, f[:_SEED_ROWS], g[:_SEED_ROWS], work))
    means = work.array("holder.levels", (3, *f.shape[:-1], partition.n_blocks))
    for theta, x, out in ((phi, f, means[0]), (psi, g, means[1])):
        block_mean(space, partition, theta(x, work.array("atoms", x.shape), work), out=out, work=work)
    fg = np.multiply(f, g, out=work.array("atoms", f.shape))
    block_mean(space, partition, np.abs(fg, out=fg), out=means[2], work=work)
    if prune:
        lo = work.array("atoms", means[:2].shape)
        for theta, x, t, out in ((phi, f, means[0], lo[0]), (psi, g, means[1], lo[1])):
            block_mean(space, partition, x, out=out, work=work)
            if theta.row.floor is not None:
                np.maximum(out, theta.row.floor(t, work.array("scratch", t.shape)), out=out)
        bound = np.multiply(lo[0], lo[1], out=lo[0])
        bound *= best * (1.0 - _PRUNE_SLACK)
        dropped = np.less(means[2], bound, out=work.array("holder.dropped", bound.shape, bool))
        np.logical_and(dropped, means[0], out=dropped)  # a zero target is kept
        np.logical_and(dropped, means[1], out=dropped)
        kept = np.logical_not(dropped, out=dropped).reshape(-1).nonzero()[0]
        outs = (lo[0], lo[1], means[0])  # in order: the first row is read before the kept E|fg| go there
        means = [np.take(m.reshape(-1), kept, out=o.reshape(-1)[: kept.size], mode="clip") for m, o in zip(means, outs)]
    rhs = phi.inverse(means[0], work)
    rhs *= psi.inverse(means[1], work)
    return _ratio_atoms(means[2], rhs)


def _ratio_atoms(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Elementwise lhs/rhs, written into lhs, with the conventions 0/0 -> 0 and positive/0 -> inf."""
    if np.min(rhs, initial=math.inf) > 0.0:  # no zero (and no NaN) to take a convention
        return np.divide(lhs, rhs, out=lhs)
    zero = rhs == 0.0
    np.divide(lhs, rhs, out=lhs, where=~zero)
    if zero.any():
        lhs[zero] = np.where(lhs[zero] > 0, math.inf, 0.0)
    return lhs


def _worker_count(tasks: int) -> int:
    """Workers for `tasks` rows or scenarios: min(CPUs this process may run on, _MAX_WORKERS, tasks)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, _MAX_WORKERS, tasks)


def _search_max(space: MeasureSpace, budget: int, seed: int, *scores) -> np.ndarray:
    """For each score, np.max of score(|f|, |g|, work, best) over the search's samples, NaN propagating.

    The samples are the two (budget, n) batches that signed_log_uniform draws
    in turn from default_rng(seed), as magnitudes, split into W contiguous row
    ranges.  Range 0 runs on the calling thread and each other range on its
    own thread; numpy releases the GIL in the draws and kernels, so the ranges
    run in parallel.  Each range streams _SEARCH_CHUNK // W elements at a
    time, so as many elements are in flight as with one range, drawn in place
    into one pair of buffers that the range owns (a chunk is valid until the
    next is drawn, so each is scored before the next), and folds
    best = np.maximum(best, np.max(score(f, g, work, best), initial=-inf))
    from -inf, one score after the other, under the caller's np.geterr().
    Each score is given its own running maximum `best` (-inf at the range's
    first chunk) and may leave out of its result any entry that it proves
    below `best`, or return no entry at all; the fold is then what it would
    be on every entry.  The ranges then combine by np.maximum.reduce.  Every
    thread is joined before this returns, and the first range's exception (a
    helper's BracketFailure, say) is raised here.

    Workspace contract: each range makes one Workspace, `work`, and passes it
    to every score, chunk after chunk, largest chunk first, so a score that
    borrows its arrays from `work` allocates them at the range's first chunk
    and reuses them for the rest.  A score's result is read (np.max) before
    the next score or chunk runs, so it may be a view into `work`.
    """
    if budget < 1:
        raise PreconditionViolated(f"need a budget of at least 1 sample, got {budget}")
    n = space.n_atoms
    workers = _worker_count(budget)
    chunk_rows = max(1, _SEARCH_CHUNK // workers // n)
    bounds = [budget * k // workers for k in range(workers + 1)]
    results: list = [None] * workers
    errors: list = [None] * workers
    errstate = np.geterr()  # numpy's error state is per thread (per context from numpy 2)

    def run(k: int) -> None:
        try:
            best, work = np.full(len(scores), -math.inf), Workspace()
            with np.errstate(**errstate):
                for f, g in log_uniform_chunks(seed, (budget, n), chunk_rows, bounds[k], bounds[k + 1]):
                    best = np.maximum(
                        best, [np.max(score(f, g, work, b), initial=-math.inf) for score, b in zip(scores, best)]
                    )
            results[k] = best
        except BaseException as exc:  # re-raised on the calling thread
            errors[k] = exc

    helpers = [threading.Thread(target=run, args=(k,)) for k in range(1, workers)]
    for thread in helpers:
        thread.start()
    run(0)
    for thread in helpers:
        thread.join()
    for exc in errors:
        if exc is not None:
            raise exc
    return np.maximum.reduce(results)


def empirical_holder_constant(
    space: MeasureSpace,
    partition: Partition,
    phi: YoungFunction,
    psi: YoungFunction,
    budget: int = 10_000,
    seed: int = 0,
) -> float:
    """Supremum of the Hölder ratio over seeded random (f, g) pairs.

    Magnitudes are log-uniform over [1e-3, 1e3] with random signs, so the
    search reaches both scale extremes where non-homogeneous kinds misbehave.
    The samples are the two (budget, n) batches that signed_log_uniform draws
    in turn from default_rng(seed), scored in W contiguous row ranges in
    parallel (_search_max), chunk by chunk, each range drawing its chunks into
    draw buffers it owns, so memory stays bounded whatever the budget.  The
    ratio reads only |f|, |g| and |fg| = |f|*|g| (exact in IEEE arithmetic),
    so the ranges score the magnitudes alone, each chunk in its range's
    workspace (_holder_ratios), solving for a pair with a Newton kind only
    the entries not proved below the range's maximum.  The result is the
    largest ratio over every (sample, block), NaN if any is NaN: bit for bit
    np.max over the whole batch, whatever W and the chunk size.
    """
    (best,) = _search_max(
        space, budget, seed, lambda f, g, work, best: _holder_ratios(space, partition, phi, psi, f, g, work, best)
    )
    return float(best)


def normalization_constants(
    space: MeasureSpace,
    partition: Partition,
    phi: YoungFunction,
    psi: YoungFunction,
    sample_budget: int = 2_000,
    seed: int = 0,
) -> tuple[float, float]:
    """Empirical suprema (C1, C2) of the normalized block averages.

    C1 is the sup over sampled f of the max atom value of
    E(phi(f / phi^{-1}(E(phi|f|)))), and C2 the same with (psi, g).  With the
    suprema over every f and g, C1 + C2 would be a Hölder constant, by the
    pointwise product inequality x*y <= phi(x) + psi(y) applied to the
    normalized factors; these sampled suprema only bound them from below, so
    their sum is an estimate, not a certificate.  The f and g samples are the
    two (sample_budget, n) batches that signed_log_uniform draws in turn from
    default_rng(seed), split into row ranges and chunks as in
    empirical_holder_constant; each constant is bit for bit np.max over the
    one-shot batch, NaN if any value is NaN, whatever W and the chunk size.
    No sign is drawn: theta(x/d) = theta(|x|/d) for the block factor d >= 0.

    Workspace contract: each range scores its chunks in one Workspace, as
    _holder_ratios does.  The level goes into the first row of its
    "holder.levels" (block_level solves it there in place), is spread over
    the atoms into its "atoms" array, divides the batch there and is
    evaluated there in place, and the block means go into the second row;
    the batch itself is not written.
    """

    def normalized(theta: YoungFunction, batch: np.ndarray, work: Workspace) -> np.ndarray:
        levels = work.array("holder.levels", (2, *batch.shape[:-1], partition.n_blocks))
        level = block_level(space, partition, theta, batch, out=levels[0], work=work)
        x = np.take(level, partition.labels, axis=-1, out=work.array("atoms", batch.shape), mode="clip")
        evaluate(theta, np.divide(batch, x, out=x), out=x, work=work)
        return block_mean(space, partition, x, out=levels[1], work=work)

    c1, c2 = _search_max(
        space,
        sample_budget,
        seed,
        lambda f, g, work, best: normalized(phi, f, work),
        lambda f, g, work, best: normalized(psi, g, work),
    )
    return float(c1), float(c2)


def domination_holder_constant(space: MeasureSpace, partition: Partition) -> float:
    """C0**2, the Hölder constant certified by pointwise domination |h| <= C0 * E(|h|).

    C0 is the smallest domination constant of the partition.  Applying it to
    h = phi(|f|) gives phi(|f|) <= C0*E(phi|f|) atomwise, hence
    |f| <= phi^{-1}(C0*E(phi|f|)) <= C0*phi^{-1}(E(phi|f|)) by concavity of the
    inverse, and likewise for g with psi.  Multiplying and averaging (the right
    side is now block-constant) yields C0**2 for every conjugate pair.  The
    gcthi suite stress-tests it with empirical_holder_constant.
    """
    c0 = domination_constant(space, partition)
    return c0 * c0
