"""Seeded random generators shared by the randomized checks.

All helpers take an explicit numpy Generator so every caller's determinism
contract reduces to its master seed.  Magnitudes default to log-uniform over
[1e-3, 1e3]: ratio extremes for non-homogeneous kinds occur at scale
boundaries, which uniform sampling would almost never reach.
"""

from __future__ import annotations

import numpy as np

from .measure import MeasureSpace, Partition

__all__ = [
    "log_uniform",
    "signed_log_uniform",
    "signed_log_uniform_chunks",
    "random_space",
    "random_partition",
]

LOG_LO = 1e-3
LOG_HI = 1e3


def log_uniform(rng: np.random.Generator, size, lo: float = LOG_LO, hi: float = LOG_HI):
    """Positive magnitudes with log10 uniform on [log10(lo), log10(hi)]."""
    return 10.0 ** rng.uniform(np.log10(lo), np.log10(hi), size)


def signed_log_uniform(rng: np.random.Generator, size, lo: float = LOG_LO, hi: float = LOG_HI):
    """Log-uniform magnitudes with independent random signs."""
    return log_uniform(rng, size, lo, hi) * _signs(rng, size)


def _signs(rng: np.random.Generator, size):
    return rng.choice([-1.0, 1.0], size)


def signed_log_uniform_chunks(
    seed: int, shape: tuple[int, int], chunk_rows: int, start: int = 0, stop: int | None = None
):
    """Row chunks of rows [start, stop) of two successive `signed_log_uniform(rng, shape)` batches.

    With rng = np.random.default_rng(seed), yields (first, second) pairs of at
    most `chunk_rows` rows, bitwise equal to the matching rows of the two
    one-shot batches, while holding one chunk of each.  `stop` defaults to all
    rows, so any split of the rows into contiguous ranges yields, range after
    range, the same rows as one call over all of them.

    The one-shot draws spend the PCG64 stream in four runs: N = rows*n
    magnitudes of one 64-bit word each, N signs of one 32-bit half each (a
    word's low half first, its upper half buffered in the bit generator),
    then the same for the second batch.  Each run draws from its own copy of
    the seeded bit generator, moved by PCG64.advance to the range's first
    element a = start*n and then drawn chunk after chunk.  With S = ceil(N/2)
    sign words, the first batch's magnitudes start at word a, its signs at
    32-bit half 2N + a, the second batch's magnitudes at word N + S + a and
    its signs at half 2(2N + S) + a - (N mod 2): for odd N the first
    batch's signs leave the upper half of word N + S - 1 buffered, and the
    second batch's first sign spends it, so at a = 0 that half is set
    explicitly.
    """
    rows, n = shape
    stop = rows if stop is None else stop
    count = rows * n
    sign_words = (count + 1) // 2
    a = start * n
    f_mag, f_sign = _run(seed, a), _run_at_half(seed, 2 * count + a)
    g_mag = _run(seed, count + sign_words + a)
    if a == 0 and count % 2:
        g_sign = _run(seed, 2 * count + sign_words, carry=count + sign_words - 1)
    else:
        g_sign = _run_at_half(seed, 2 * (2 * count + sign_words) + a - count % 2)
    for lo in range(start, stop, chunk_rows):
        size = (min(chunk_rows, stop - lo), n)
        f = log_uniform(f_mag, size) * _signs(f_sign, size)
        yield f, log_uniform(g_mag, size) * _signs(g_sign, size)


def _run(seed: int, word: int, carry: int | None = None) -> np.random.Generator:
    """The seeded stream from its `word`-th 64-bit output, with the upper half
    of output `carry` (< word) as the buffered 32-bit half."""
    bits = np.random.PCG64(seed)
    if carry is None:
        bits.advance(word)
        return np.random.Generator(bits)
    bits.advance(carry)
    upper = int(bits.random_raw()) >> 32
    bits.advance(word - carry - 1)  # advancing drops a buffered half, so set it after
    state = bits.state
    state["has_uint32"], state["uinteger"] = 1, upper
    bits.state = state
    return np.random.Generator(bits)


def _run_at_half(seed: int, half: int) -> np.random.Generator:
    """The seeded stream from its `half`-th 32-bit output: the low half of word
    half // 2 when `half` is even, else that word's upper half, buffered."""
    if half % 2:
        return _run(seed, half // 2 + 1, carry=half // 2)
    return _run(seed, half // 2)


def random_space(rng: np.random.Generator, n_atoms: int) -> MeasureSpace:
    """Weights log-uniform over [0.1, 10], a mild spread around unit mass."""
    return MeasureSpace(log_uniform(rng, n_atoms, 0.1, 10.0))


def random_partition(rng: np.random.Generator, n_atoms: int) -> Partition:
    """Uniformly random block labels, relabeled to the dense range 0..k-1."""
    n_blocks = int(rng.integers(1, n_atoms + 1))
    raw = rng.integers(0, n_blocks, n_atoms)
    raw[rng.permutation(n_atoms)[:n_blocks]] = np.arange(n_blocks)  # no empty block
    _, dense = np.unique(raw, return_inverse=True)
    return Partition(dense)
