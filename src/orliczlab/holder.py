"""Conditional Hölder inequality: ratio evaluation, constant search, certified constants.

The inequality bounds E(|fg|) by a constant times the product of the inverted
block averages phi^{-1}(E(phi|f|)) and psi^{-1}(E(psi|g|)) for a complementary
pair (phi, psi).  The constant has no closed form in general.  This module
estimates it by randomized search, certifies C0**2 from pointwise domination
|h| <= C0 * E(|h|) (C0 the partition's domination constant; proof in
domination_holder_constant), and estimates C1 + C2 from the normalized block
averages, a valid constant by Young's inequality x*y <= phi(x) + psi(y).
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
# space; the block means' own temporaries are no larger (two rows x n_blocks
# arrays for the member gather, measure._BLOCK_MEAN_CHUNK for bincount).
_SEARCH_CHUNK = 1 << 18
# Most row ranges a search runs in parallel (see _search_max), and most
# scenarios a `run` runs in parallel (cli._build_report); only 2 CPUs have
# been measured.
_MAX_WORKERS = 2


def _holder_ratios(
    space: MeasureSpace,
    partition: Partition,
    phi: YoungFunction,
    psi: YoungFunction,
    f: np.ndarray,
    g: np.ndarray,
    work: Workspace | None = None,
) -> np.ndarray:
    """Blockwise E(|fg|) / [phi^{-1}(E(phi|f|)) * psi^{-1}(E(psi|g|))], (..., n) -> (..., n_blocks).

    Each factor is constant on blocks, so the inverses run once per block mean;
    broadcasting the result through `partition.labels` gives the atomwise ratios.

    Workspace contract: every pass writes into `work` (a search range's, else
    one made for this call), reading f and g and writing neither.  The two
    levels go into its (2, ..., n_blocks) array "holder.levels", each solved
    in place there by block_level given `work`; phi|f|, psi|g| and then |fg|
    go into its (..., n) array "atoms"; the block means of |fg| overwrite the
    second level once the first holds the product.  The result is that row
    of "holder.levels", valid until the next call.
    """
    work = Workspace() if work is None else work
    levels = work.array("holder.levels", (2, *f.shape[:-1], partition.n_blocks))
    rhs = block_level(space, partition, phi, f, out=levels[0], work=work)
    rhs *= block_level(space, partition, psi, g, out=levels[1], work=work)
    fg = np.multiply(f, g, out=work.array("atoms", f.shape))
    return _ratio_atoms(block_mean(space, partition, np.abs(fg, out=fg), out=levels[1], work=work), rhs)


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
    """For each score, np.max of score(|f|, |g|, work) over the search's samples, NaN propagating.

    The samples are the two (budget, n) batches that signed_log_uniform draws
    in turn from default_rng(seed), as magnitudes, split into W contiguous row
    ranges.  Range 0 runs on the calling thread and each other range on its
    own thread; numpy releases the GIL in the draws and kernels, so the ranges
    run in parallel.  Each range streams _SEARCH_CHUNK // W elements at a
    time, so as many elements are in flight as with one range, drawn in place
    into one pair of buffers that the range owns (a chunk is valid until the
    next is drawn, so each is scored before the next), and folds
    np.maximum(best, np.max(score(f, g, work))) from -inf, one score after
    the other, under the caller's np.geterr().  The ranges then combine by
    np.maximum.reduce.  Every thread is joined before this returns, and the
    first range's exception (a helper's BracketFailure, say) is raised here.

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
            best, work = -math.inf, Workspace()
            with np.errstate(**errstate):
                for f, g in log_uniform_chunks(seed, (budget, n), chunk_rows, bounds[k], bounds[k + 1]):
                    best = np.maximum(best, [np.max(score(f, g, work)) for score in scores])
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
    workspace (_holder_ratios).  The result is
    the largest ratio over every (sample, block), NaN if any is NaN: bit for
    bit np.max over the whole batch, whatever W and the chunk size.
    """
    (best,) = _search_max(
        space, budget, seed, lambda f, g, work: _holder_ratios(space, partition, phi, psi, f, g, work)
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
    E(phi(f / phi^{-1}(E(phi|f|)))), and C2 the same with (psi, g).  A valid
    Hölder constant is then C1 + C2, by the pointwise product inequality
    x*y <= phi(x) + psi(y) applied to the normalized factors.  The f and g
    samples are the two (sample_budget, n) batches that signed_log_uniform
    draws in turn from default_rng(seed), split into row ranges and chunks as
    in empirical_holder_constant; each constant is bit for bit np.max over the
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
        lambda f, g, work: normalized(phi, f, work),
        lambda f, g, work: normalized(psi, g, work),
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
