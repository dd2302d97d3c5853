"""Finite measure spaces, partitions, and conditional expectation by block averaging.

A space is a finite list of atoms with positive weights; a sub-sigma-algebra is
represented by a partition of the atoms into blocks.  Conditional expectation
averages a function over each block with respect to the weights, which makes it
an exact projection: idempotent, positive, and multiplicative against
block-measurable factors.

All block averaging runs through one entry point, block_mean.  It sums a
batch either by member gather (one pass per member rank, for a partition of
equal-size blocks) or by one bincount over labels offset by row, choosing from
the partition alone.  Both add each block's weighted values to +0.0 in
ascending atom order, so they agree to the bit and every batched row equals a
single call on it.  The block masses it divides by are solved only by
Partition.block_measures, once per space and partition.  Spaces, partitions
and operators compare and hash by identity, so a partition can key a space's
memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .errors import ConfigError, NegativeInput, SpaceMismatch

__all__ = [
    "MeasureSpace",
    "Partition",
    "as_values",
    "block_mean",
    "block_level",
    "cond_exp",
    "build_symmetric_space",
    "build_rotation_space",
    "jensen_check",
    "generalized_jensen_check",
    "domination_constant",
]


@dataclass(frozen=True, eq=False)
class MeasureSpace:
    """Atoms 0..n-1 with strictly positive weights and optional position labels."""

    weights: np.ndarray
    labels: tuple[float, ...] | None = None

    def __post_init__(self) -> None:
        w = np.asarray(self.weights, dtype=float)
        if w.ndim != 1 or w.size == 0:
            raise ConfigError("space.weights: need a nonempty 1D array")
        with np.errstate(over="ignore"):  # a NaN or inf weight, or a total past float max
            if np.any(w <= 0) or not np.isfinite(np.sum(w)):
                raise ConfigError("space.weights: weights must be finite and positive, with a finite total")
        if self.labels is not None and len(self.labels) != w.size:
            raise ConfigError("space.labels: must have one label per atom")
        w = w.copy()
        w.setflags(write=False)
        object.__setattr__(self, "weights", w)

    @property
    def n_atoms(self) -> int:
        return int(self.weights.size)

    @cached_property
    def _memo(self) -> dict:
        """Values solved once for this space, by once()."""
        return {}

    @property
    def total(self) -> float:
        return float(np.sum(self.weights))

    def integrate(self, values: np.ndarray):
        """Weighted sum over the atoms: a float for shape (n,), an array for (..., n).

        Each row is summed in the same order as a single vector, so batched
        rows are bit-identical to single calls.
        """
        values = _rows(self, values)
        out = np.sum(self.weights * values, axis=-1)
        return float(out) if values.ndim == 1 else out


@dataclass(frozen=True, eq=False)
class Partition:
    """Blocks of atom indices covering a space exactly once.

    `labels[i]` is the block index of atom i; blocks are numbered 0..n_blocks-1
    with every label present.
    """

    labels: np.ndarray

    def __post_init__(self) -> None:
        lab = np.asarray(self.labels, dtype=int)
        if lab.ndim != 1 or lab.size == 0:
            raise ConfigError("partition.labels: need a nonempty 1D array")
        # The max bound first, so that bincount never sizes its count by a stray label.
        if not (lab.min() == 0 and lab.max() < lab.size and np.all(np.bincount(lab))):
            raise ConfigError("partition.labels: block ids must be 0..n_blocks-1 with no gaps")
        lab = lab.copy()
        lab.setflags(write=False)
        object.__setattr__(self, "labels", lab)

    @property
    def n_atoms(self) -> int:
        return int(self.labels.size)

    @cached_property
    def n_blocks(self) -> int:
        return int(self.labels.max()) + 1

    @cached_property
    def _ranks(self) -> np.ndarray | None:
        """The members of every block by their rank inside it, or None when
        block sizes differ: a read-only C-contiguous (ranks, blocks) intp
        array whose row j holds the j-th member, in ascending atom order, of
        every block in block order."""
        sizes = np.bincount(self.labels)
        if np.any(sizes != sizes[0]):
            return None
        by_block = np.argsort(self.labels, kind="stable").reshape(sizes.size, -1)
        ranks = np.ascontiguousarray(by_block.T)
        ranks.setflags(write=False)
        return ranks

    def block_measures(self, space: MeasureSpace) -> np.ndarray:
        """The weight of each block, read-only, solved once per space by
        once(space, self, ...); a space of another size raises SpaceMismatch
        and keeps nothing."""

        def solve():
            if self.n_atoms != space.n_atoms:
                raise SpaceMismatch(
                    f"partition covers {self.n_atoms} atoms but the space has {space.n_atoms}"
                )
            return np.bincount(self.labels, weights=space.weights, minlength=self.n_blocks)

        return once(space, self, solve)


def once(owner, key, solve):
    """solve() the first time `key` is asked of `owner`, a frozen object with a
    `_memo` dict (a space or an operator); later calls return that value, and
    an array comes back read-only, since every caller shares it.  A key may
    be a partition, which hashes by identity; if solve() raises, nothing is
    kept."""
    memo = owner._memo
    if key not in memo:
        value = solve()
        if isinstance(value, np.ndarray):
            value.setflags(write=False)
        memo[key] = value
    return memo[key]


def as_values(space: MeasureSpace, f) -> np.ndarray:
    """f as one function on `space`: an array of shape exactly (n,)."""
    v = np.asarray(f, dtype=float)
    if v.shape != space.weights.shape:
        raise SpaceMismatch(
            f"function has {v.size} values but the space has {space.n_atoms} atoms"
        )
    return v


def _rows(space: MeasureSpace, f) -> np.ndarray:
    """f as an array of shape (..., n): one function or a batch of them on `space`."""
    v = np.asarray(f, dtype=float)
    if v.shape[-1:] != space.weights.shape:
        raise SpaceMismatch(f"values of shape {v.shape} for a space of {space.n_atoms} atoms")
    return v


# Elements per bincount call in _bincount_sums: bounds the offset-label and
# weighted-chunk temporaries (2**16 doubles, 512 KiB) whatever the batch.
_BLOCK_MEAN_CHUNK = 1 << 16
# The member gather takes a partition of equal-size blocks of at most
# _GATHER_RANKS members, whatever the batch: each rank costs a few calls and a
# pass over every row, which many ranks do not repay, while bincount costs the
# same per value whatever the partition (2 CPUs; ROADMAP, "at numpy's floor").
_GATHER_RANKS = 16


def block_mean(space: MeasureSpace, partition: Partition, values, out=None, work=None) -> np.ndarray:
    """Weighted mean of `values` over each block: shape (..., n) -> (..., n_blocks).

    The one block-averaging kernel.  The values are summed by member gather
    when the partition has a rank table of at most _GATHER_RANKS ranks, else
    by bincount over row-offset labels, whatever the batch's length.  Each
    strategy adds w_i * x_i to +0.0 in ascending atom order per block, as a
    bincount does, so the sums are the same to the bit either way and a
    batched row equals a single call on it.

    out: a C-contiguous float array of shape (..., n_blocks) that receives
    the means; the member gather then takes its one other array of that
    shape from `work` (a young.Workspace) when one is given, and bincount
    its chunk products and row-offset labels, so neither allocates more
    than bincount's own counts.  bincount's arrays stay below
    _BLOCK_MEAN_CHUNK values.
    """
    values = _rows(space, values)
    mass = partition.block_measures(space)
    rows = values.reshape(-1, space.n_atoms)
    sums = None if out is None else out.reshape(rows.shape[0], partition.n_blocks)
    ranks = partition._ranks
    if ranks is not None and len(ranks) <= _GATHER_RANKS:
        part = None if work is None else work.array("scratch", (rows.shape[0], partition.n_blocks))
        sums = _gather_sums(space.weights, partition, rows, sums, part)
    else:
        sums = _bincount_sums(space.weights, partition, rows, sums, work)
    sums /= mass
    return sums.reshape(values.shape[:-1] + (partition.n_blocks,))


def _gather_sums(w: np.ndarray, partition: Partition, rows: np.ndarray, acc=None, part=None) -> np.ndarray:
    """Block sums of (rows, n) by member rank (Partition._ranks), into acc when given: +0.0 plus
    each rank's w * x in turn, formed in part when given; +inf + -inf is NaN silently, as in bincount."""
    acc = np.empty((len(rows), partition.n_blocks)) if acc is None else acc
    part = np.empty_like(acc) if part is None else part
    with np.errstate(invalid="ignore"):
        for j, (sel, ws) in enumerate(zip(partition._ranks, w[partition._ranks])):
            np.multiply(np.take(rows, sel, axis=1, out=part, mode="clip"), ws, out=part)
            np.add(acc if j else 0.0, part, out=acc)
    return acc


def _bincount_sums(w: np.ndarray, partition: Partition, rows: np.ndarray, sums=None, work=None) -> np.ndarray:
    """Block sums of (rows, n) by bincount over labels offset by row, in chunks
    of whole rows, written into sums when given; the chunk products and
    labels go into the arrays "scratch" and "measure.offsets" of `work`
    when given, else into new arrays (cheaper for the one-row calls of
    cond_exp)."""
    lab, k = partition.labels, partition.n_blocks
    sums = np.empty((rows.shape[0], k)) if sums is None else sums
    step = max(1, _BLOCK_MEAN_CHUNK // rows.shape[1])
    for start in range(0, rows.shape[0], step):
        chunk = rows[start : start + step]
        offsets = np.arange(0, len(chunk) * k, k)[:, None]
        if work is None:
            chunk, index = chunk * w, offsets + lab
        else:
            chunk = np.multiply(chunk, w, out=work.array("scratch", chunk.shape))
            index = np.add(offsets, lab, out=work.array("measure.offsets", chunk.shape, np.intp))
        sums[start : start + step] = np.bincount(
            index.ravel(), weights=chunk.ravel(), minlength=len(chunk) * k
        ).reshape(-1, k)
    return sums


def block_level(space: MeasureSpace, partition: Partition, theta, values, out=None, work=None) -> np.ndarray:
    """theta^{-1}(E(theta|values|)) per block, shape (..., n) -> (..., n_blocks):
    the level of `values` in the conditional Hölder inequality.  theta is a
    Young function, evaluated on |x| by calling it and inverted by its
    .inverse.  Every level but the Hölder ratio's two is solved here:
    holder._holder_ratios takes its own means, to prune the exp pair's first.

    out: a C-contiguous float array of shape (..., n_blocks) for the block
    means.  Given `work` (a young.Workspace), theta|values| goes into its
    "atoms" array of values' shape, the member gather and theta's passes
    borrow from it too, and theta.inverse solves the means in place, so the
    levels are out itself and nothing is allocated that grows with the batch.
    """
    values = theta(values, None if work is None else work.array("atoms", np.shape(values)), work)
    return theta.inverse(block_mean(space, partition, values, out=out, work=work), work)


def cond_exp(space: MeasureSpace, partition: Partition, f) -> np.ndarray:
    """Weighted average of f over each partition block, broadcast back to atoms.

    This is the conditional expectation onto the block sigma-algebra: linear,
    idempotent, positive, and exact in double precision up to summation error.
    f has shape (..., n); each row is averaged on its own, bit-identically to
    a single call on that row.
    """
    return block_mean(space, partition, f)[..., partition.labels]


def build_symmetric_space(n_half: int) -> tuple[MeasureSpace, Partition]:
    """The interval [-1, 1] with half-Lebesgue measure, cut into 2*n_half equal cells.

    Each cell carries weight 1/(2*n_half) so the total measure is 1; blocks
    pair cell i with its mirror cell, making conditional expectation the
    symmetrization f(x) -> (f(x) + f(-x)) / 2.  Labels are cell midpoints.
    """
    if n_half < 1:
        raise ConfigError(f"space.n_half: must be at least 1, got {n_half}")
    n = 2 * n_half
    mids = tuple(-1.0 + (2 * i + 1) / n for i in range(n))
    labels = np.minimum(np.arange(n), n - 1 - np.arange(n))
    return MeasureSpace(np.full(n, 1.0 / n), labels=mids), Partition(labels)


def build_rotation_space(n: int, cells_per_block_orbit: int) -> tuple[MeasureSpace, Partition]:
    """The circle [0, 1) cut into n*m equal cells; blocks are orbits of the 1/n shift.

    With m = cells_per_block_orbit, the shift by 1/n moves cell i to cell i+m,
    so the orbit of cell i is {i, i+m, i+2m, ...} with exactly n members and
    there are m blocks.  Conditional expectation averages over each orbit with
    an explicit 1/n factor; the plain orbit sum would not be idempotent, which
    forces the averaged convention here.  Labels are cell midpoints.
    """
    if n < 2:
        raise ConfigError(f"space.n: need at least 2 cells per orbit, got {n}")
    if cells_per_block_orbit < 1:
        raise ConfigError(f"space.cells_per_block_orbit: must be at least 1, got {cells_per_block_orbit}")
    m = cells_per_block_orbit
    total = n * m
    mids = tuple((i + 0.5) / total for i in range(total))
    labels = np.arange(total) % m
    return MeasureSpace(np.full(total, 1.0 / total), labels=mids), Partition(labels)


# Relative slack of both Jensen checks: gap <= JENSEN_TOL * max(1, max|rhs|) per row.
JENSEN_TOL = 1e-12


def jensen_check(space: MeasureSpace, partition: Partition, phi, f: np.ndarray) -> dict:
    """Verify the convexity inequality phi(E f) <= E(phi(|f|)) atomwise, up to JENSEN_TOL.

    phi is any callable convex function accepting arrays (a YoungFunction in
    practice, which evaluates on |x| and so absorbs the absolute value).  f may
    be a batch of shape (..., n).
    """
    f = _rows(space, f)
    lhs = np.asarray(phi(cond_exp(space, partition, np.abs(f))))
    rhs = cond_exp(space, partition, np.asarray(phi(f)))
    return _gap_report(lhs - rhs, rhs)


def _gap_report(gap: np.ndarray, rhs: np.ndarray) -> dict:
    """gap <= JENSEN_TOL * max(1, max|rhs|) in every row, each row on its own scale; a NaN fails and shows."""
    worst = np.max(gap, axis=-1)
    scale = np.maximum(1.0, np.max(np.abs(rhs), axis=-1))
    return {
        "holds": bool(np.all(worst <= JENSEN_TOL * scale)),
        "max_violation": float(np.max(worst)),
        "scale": float(np.max(scale)),
    }


def generalized_jensen_check(space: MeasureSpace, partition: Partition, theta, fs) -> dict:
    """Verify E(theta(f_1,..,f_n)) <= theta(E f_1,..,E f_n) for nonnegative inputs, up to JENSEN_TOL.

    This is conditional Jensen for a concave theta, since each block average is
    a convex combination of its atoms; the jensen suite's min(f, g) is a min of
    nonnegative linear forms.  theta is any callable from the stacked inputs,
    shape (n, ..., atoms), to (..., atoms), as jensen_check takes phi.  Raises
    NegativeInput when any input has a negative entry.
    """
    stacked = np.stack([_rows(space, f) for f in fs])
    if np.any(stacked < 0):
        raise NegativeInput("generalized Jensen check needs nonnegative functions")
    lhs = cond_exp(space, partition, np.asarray(theta(stacked)))
    rhs = np.asarray(theta(cond_exp(space, partition, stacked)))
    return _gap_report(lhs - rhs, rhs)


def domination_constant(space: MeasureSpace, partition: Partition) -> float:
    """Smallest C0 with h(atom) <= C0 * E(h)(atom) for every h >= 0 and every atom.

    E(h) at atom i is a weighted average over i's block, at least w_i * h(i) /
    mu(block), so h(i) <= mu(block) / w_i * E(h)(i), with equality when h
    concentrates on i; the constant is the maximum of that ratio over atoms.
    The reverse direction E(h) <= C0 * h fails wherever h vanishes inside a
    block on which it is not identically zero.
    """
    block_mass = partition.block_measures(space)
    return float(np.max(block_mass[partition.labels] / space.weights))
