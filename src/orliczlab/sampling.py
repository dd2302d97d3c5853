"""Seeded random generators shared by the randomized checks.

All helpers take an explicit numpy Generator, or the chunked runs its seed, so
every caller's determinism contract reduces to its master seed.  Magnitudes
default to log-uniform over [1e-3, 1e3]: ratio extremes for non-homogeneous
kinds occur at scale boundaries, which uniform sampling would almost never reach.
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "log_uniform",
    "signed_log_uniform",
    "log_uniform_chunks",
    "signed_log_uniform_chunks",
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


def log_uniform_chunks(
    seed: int, shape: tuple[int, int], chunk_rows: int, start: int = 0, stop: int | None = None
):
    """The chunks of signed_log_uniform_chunks with no sign drawn: (|first|, |second|)
    pairs, bitwise, from its two magnitude runs at words a and N + S + a."""
    rows, n = shape
    stop = rows if stop is None else stop
    count = rows * n
    a = start * n
    f_mag, g_mag = _run(seed, 2 * a), _run(seed, 2 * (count + (count + 1) // 2 + a))
    for lo in range(start, stop, chunk_rows):
        size = (min(chunk_rows, stop - lo), n)
        yield log_uniform(f_mag, size), log_uniform(g_mag, size)


def signed_log_uniform_chunks(
    seed: int, shape: tuple[int, int], chunk_rows: int, start: int = 0, stop: int | None = None
):
    """Row chunks of rows [start, stop) of two successive `signed_log_uniform(rng, shape)` batches.

    With rng = np.random.default_rng(seed), yields (first, second) pairs of at
    most `chunk_rows` rows, bitwise equal to the matching rows of the two
    one-shot batches, while holding one chunk of each.  `stop` defaults to all
    rows, so any split of the rows into contiguous ranges yields, range after
    range, the same rows as one call over all of them.  The Hölder searches
    score log_uniform_chunks, the magnitudes alone, and draw only their
    reported row from here, as a one-row range.

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
    count = rows * n
    sign_words = (count + 1) // 2
    a = start * n
    f_sign = _run(seed, 2 * count + a)
    carry = count + sign_words - 1 if a == 0 and count % 2 else None
    g_sign = _run(seed, 2 * (2 * count + sign_words) + a - count % 2, carry)
    for f, g in log_uniform_chunks(seed, shape, chunk_rows, start, stop):
        yield f * _signs(f_sign, f.shape), g * _signs(g_sign, g.shape)


def _run(seed: int, half: int, carry: int | None = None) -> np.random.Generator:
    """The seeded stream from its `half`-th 32-bit output: the low half of word
    half // 2 when `half` is even, else that word's upper half, buffered, or in
    its place the upper half of an earlier word `carry`."""
    bits = np.random.PCG64(seed)
    word = half // 2
    if half % 2 == 0:
        bits.advance(word)
        return np.random.Generator(bits)
    carry = word if carry is None else carry
    bits.advance(carry)
    upper = int(bits.random_raw()) >> 32
    bits.advance(word - carry)  # advancing drops a buffered half, so set it after
    state = bits.state
    state["has_uint32"], state["uinteger"] = 1, upper
    bits.state = state
    return np.random.Generator(bits)
