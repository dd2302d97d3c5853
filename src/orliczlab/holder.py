"""Conditional Hölder inequality: ratio evaluation, constant search, certified constants.

The inequality bounds E(|fg|) by a constant times the product of the inverted
block averages phi^{-1}(E(phi|f|)) and psi^{-1}(E(psi|g|)) for a complementary
pair (phi, psi).  The constant has no closed form in general.  This module
estimates it by randomized search, certifies C0**2 from pointwise domination
|h| <= C0 * E(|h|) (C0 the partition's domination constant; proof in
holder_from_domination), and estimates C1 + C2 from the normalized block
averages, a valid constant by Young's inequality x*y <= phi(x) + psi(y).

Both searches split their seeded sample batches into W = min(CPUs, 2, rows)
contiguous row ranges that run on parallel threads, each drawing its rows
from the same PCG64 positions as the one-shot batches.  Each range keeps its
own leader, and the leaders are folded in range order by the streaming rule
(a strictly greater score leads; a NaN leads once and keeps it), so every
result is bit for bit the one-shot batch's, whatever W and the chunk size.
Every score reads a sample only through |f| and |g|, so the ranges draw the
magnitudes alone, and only the constant search's reported row gets its signs.
"""

from __future__ import annotations

import math
import os
import threading
from dataclasses import dataclass

import numpy as np

from .errors import ConjugateMismatch, PreconditionViolated
from .measure import MeasureSpace, Partition, _block_mean, as_values, domination_constant
from .sampling import log_uniform_chunks, signed_log_uniform_chunks
from .young import YoungFunction, conjugate_error, evaluate, inverse

__all__ = [
    "HolderReport",
    "verify_conjugate_pair",
    "conditional_holder_ratio",
    "empirical_holder_constant",
    "normalization_constants",
    "domination_holder_constant",
    "holder_from_domination",
]

# Elements drawn and scored at once by the randomized searches: bounds each
# sample array and temporary to 2**18 doubles (2 MiB) whatever the budget and
# space; the block means' own temporaries are no larger (two rows x n_blocks
# arrays for the member gather, measure._BLOCK_MEAN_CHUNK for bincount).
_SEARCH_CHUNK = 1 << 18
# Most row ranges a search runs in parallel (see _search_ranges); only 2 CPUs
# have been measured.
_SEARCH_WORKERS = 2


@dataclass(frozen=True)
class HolderReport:
    """Outcome of a randomized constant search for the conditional Hölder bound."""

    empirical_C: float
    worst_f: np.ndarray
    worst_g: np.ndarray
    worst_atom: int
    claimed_C: float | None = None
    holds_with_claimed: bool | None = None
    samples: int = 0


def verify_conjugate_pair(phi: YoungFunction, psi: YoungFunction) -> None:
    """Spot-check that psi is within 1e-4 (relative) of the numeric conjugate of phi at three points."""
    ys = (0.25, 1.0, 4.0)
    err = conjugate_error(phi, psi, ys, tol=1e-10)
    if not err <= 1e-4:
        raise ConjugateMismatch(f"psi is off the numeric conjugate of phi by {err:.3g} at {ys}")


def _holder_ratios(
    space: MeasureSpace,
    partition: Partition,
    mass: np.ndarray,
    phi: YoungFunction,
    psi: YoungFunction,
    f: np.ndarray,
    g: np.ndarray,
) -> np.ndarray:
    """Blockwise E(|fg|) / [phi^{-1}(E(phi|f|)) * psi^{-1}(E(psi|g|))], (..., n) -> (..., n_blocks).

    Each factor is constant on blocks, so the inverses run once per block mean;
    broadcasting the result through `partition.labels` gives the atomwise ratios.
    `mass` is partition.block_measures(space).  The elementwise passes run in
    place on arrays this call made, the inverses first and |fg| last, so no
    more than one (..., n) temporary is alive beside f and g.
    """
    rhs = inverse(phi, _block_mean(space, partition, mass, evaluate(phi, f)))
    rhs *= inverse(psi, _block_mean(space, partition, mass, evaluate(psi, g)))
    fg = np.multiply(f, g)
    return _ratio_atoms(_block_mean(space, partition, mass, np.abs(fg, out=fg)), rhs)


def _ratio_atoms(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Elementwise lhs/rhs, written into lhs, with the conventions 0/0 -> 0 and positive/0 -> inf."""
    zero = rhs == 0.0
    np.divide(lhs, rhs, out=lhs, where=~zero)
    if zero.any():
        lhs[zero] = np.where(lhs[zero] > 0, math.inf, 0.0)
    return lhs


def conditional_holder_ratio(
    space: MeasureSpace,
    partition: Partition,
    phi: YoungFunction,
    psi: YoungFunction,
    f,
    g,
    check_pair: bool = True,
) -> float:
    """Max over atoms of E(|fg|) / [phi^{-1}(E(phi|f|)) * psi^{-1}(E(psi|g|))].

    0/0 counts as 0 (the bound trivially holds there) and positive/0 as inf.
    By default the pair is spot-checked by numeric conjugation first and a
    mismatch raises ConjugateMismatch.
    """
    if check_pair:
        verify_conjugate_pair(phi, psi)
    f, g = as_values(space, f), as_values(space, g)
    ratios = _holder_ratios(space, partition, partition.block_measures(space), phi, psi, f, g)
    return float(np.max(ratios))


class _RunningMax:
    """The first maximal row of a stream of (rows, m) score chunks, as np.argmax finds it.

    A row scores its maximum.  A chunk takes the lead only with a strictly
    greater score, so a tie keeps the earlier row; a NaN, which np.max and
    np.argmax take as the maximum, takes the lead once and keeps it.
    """

    def __init__(self) -> None:
        self.value = math.nan
        self.row = -1  # index of the leading row in the whole stream
        self._seen = 0

    def update(self, scores: np.ndarray) -> int | None:
        """Take the next chunk; return the index in it of a new leading row, else None."""
        row_max = np.max(scores, axis=-1)
        i = int(np.argmax(row_max))
        lead = self._offer(float(row_max[i]), self._seen + i)
        self._seen += len(scores)
        return i if lead else None

    def merge(self, later: "_RunningMax") -> bool:
        """Take the leader of the rows streamed after this one's, by the same rule; True if it leads."""
        lead = self._offer(later.value, self._seen + later.row)
        self._seen += later._seen
        return lead

    def _offer(self, v: float, row: int) -> bool:
        lead = self.row < 0 or v > self.value or (math.isnan(v) and not math.isnan(self.value))
        if lead:
            self.value, self.row = v, row
        return lead


def _worker_count(rows: int) -> int:
    """Row ranges a search splits into: min(CPUs this process may run on, _SEARCH_WORKERS, rows)."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return min(cpus or 1, _SEARCH_WORKERS, rows)


def _search_ranges(space: MeasureSpace, budget: int, seed: int, scan) -> list:
    """scan(chunks) on each of W contiguous row ranges of the search's magnitudes, in range order.

    The chunks are (|f|, |g|) row chunks of the two (budget, n) batches that
    signed_log_uniform draws in turn from default_rng(seed).  Range 0 runs on
    the calling thread and each other range on its own thread; numpy releases
    the GIL in the draws and kernels, so the ranges run in parallel.  Each range streams
    _SEARCH_CHUNK // W elements at a time, so as many elements are in flight
    as with one range.  Every thread is joined before this returns, and the
    first range's exception (a helper's BracketFailure, say) is raised here.
    """
    if budget < 1:
        raise PreconditionViolated(f"need a budget of at least 1 sample, got {budget}")
    n = space.n_atoms
    workers = _worker_count(budget)
    chunk_rows = max(1, _SEARCH_CHUNK // workers // n)
    bounds = [budget * k // workers for k in range(workers + 1)]
    results: list = [None] * workers
    errors: list = [None] * workers

    def run(k: int) -> None:
        try:
            chunks = log_uniform_chunks(seed, (budget, n), chunk_rows, bounds[k], bounds[k + 1])
            results[k] = scan(chunks)
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
    return results


def empirical_holder_constant(
    space: MeasureSpace,
    partition: Partition,
    phi: YoungFunction,
    psi: YoungFunction,
    budget: int = 10_000,
    seed: int = 0,
    claimed_C: float | None = None,
) -> HolderReport:
    """Supremum of the Hölder ratio over seeded random (f, g) pairs.

    Magnitudes are log-uniform over [1e-3, 1e3] with random signs, so the
    search reaches both scale extremes where non-homogeneous kinds misbehave.
    The samples are the two (budget, n) batches that signed_log_uniform draws
    in turn from default_rng(seed), bitwise, scored in W contiguous row
    ranges in parallel (_search_ranges), chunk by chunk, so memory stays
    bounded whatever the budget.  The ratio reads only |f|, |g| and
    |fg| = |f|*|g| (exact in IEEE arithmetic), so the ranges score the
    magnitudes alone.  The range leaders fold in range order by one rule (a
    strictly greater score leads; a NaN leads once and keeps it), so the
    report holds the first maximal (sample, atom) in row-major order, as
    np.argmax over the whole batch finds it, bit for bit whatever W and the
    chunk size; worst_f and worst_g are that row alone, redrawn with signs.
    """
    verify_conjugate_pair(phi, psi)
    mass = partition.block_measures(space)

    def scan(chunks):
        lead, atom_ratios = _RunningMax(), None
        for f, g in chunks:
            ratios = _holder_ratios(space, partition, mass, phi, psi, f, g)
            k = lead.update(ratios)
            if k is not None:
                atom_ratios = ratios[k, partition.labels]
        return lead, atom_ratios

    (lead, atom_ratios), *later = _search_ranges(space, budget, seed, scan)
    for other, other_ratios in later:
        if lead.merge(other):
            atom_ratios = other_ratios
    ((worst_f, worst_g),) = signed_log_uniform_chunks(
        seed, (budget, space.n_atoms), 1, lead.row, lead.row + 1
    )
    atom = int(np.argmax(atom_ratios))
    best = float(atom_ratios[atom])
    holds = None if claimed_C is None else best <= claimed_C * (1.0 + 1e-9)
    return HolderReport(best, worst_f[0], worst_g[0], atom, claimed_C, holds, budget)


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
    draws in turn from default_rng(seed), bitwise, split into row ranges and
    chunks and folded in range order as in empirical_holder_constant, so the
    result does not depend on W or the chunk size; a NaN value wins, as under
    np.max.  No sign is drawn: theta(x/d) = theta(|x|/d) for the block factor d >= 0.
    """
    mass = partition.block_measures(space)

    def normalized(theta: YoungFunction, batch: np.ndarray) -> np.ndarray:
        denom = inverse(theta, _block_mean(space, partition, mass, evaluate(theta, batch)))
        x = denom[..., partition.labels]
        return _block_mean(space, partition, mass, evaluate(theta, np.divide(batch, x, out=x)))

    def scan(chunks):
        c1, c2 = _RunningMax(), _RunningMax()
        for f, g in chunks:
            c1.update(normalized(phi, f))
            c2.update(normalized(psi, g))
        return c1, c2

    (c1, c2), *later = _search_ranges(space, sample_budget, seed, scan)
    for other1, other2 in later:
        c1.merge(other1)
        c2.merge(other2)
    return c1.value, c2.value


def domination_holder_constant(space: MeasureSpace, partition: Partition) -> float:
    """C0**2, the Hölder constant certified by pointwise domination (proof below)."""
    c0 = domination_constant(space, partition)
    return c0 * c0


def holder_from_domination(
    space: MeasureSpace,
    partition: Partition,
    phi: YoungFunction,
    psi: YoungFunction,
    budget: int = 10_000,
    seed: int = 0,
) -> HolderReport:
    """Certified Hölder constant from pointwise domination |h| <= C0 * E(|h|).

    C0 is the smallest domination constant of the partition.  Applying it to
    h = phi(|f|) gives phi(|f|) <= C0*E(phi|f|) atomwise, hence
    |f| <= phi^{-1}(C0*E(phi|f|)) <= C0*phi^{-1}(E(phi|f|)) by concavity of the
    inverse, and likewise for g with psi.  Multiplying and averaging (the right
    side is now block-constant) yields the claimed constant C0**2 for every
    conjugate pair.  The claim is then stress-tested by randomized search.
    """
    claimed = domination_holder_constant(space, partition)
    return empirical_holder_constant(
        space, partition, phi, psi, budget=budget, seed=seed, claimed_C=claimed
    )
