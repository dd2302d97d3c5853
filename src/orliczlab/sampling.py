"""Seeded random generators shared by the randomized checks.

All helpers take an explicit numpy Generator, or the searches' chunked
magnitudes their seed, so every caller's determinism contract reduces to its
master seed.  Magnitudes default to log-uniform over [1e-3, 1e3]: ratio
extremes for non-homogeneous kinds occur at scale boundaries, which uniform
sampling would almost never reach.
"""

from __future__ import annotations

import numpy as np

__all__ = ["log_uniform", "signed_log_uniform", "log_uniform_chunks"]

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
    """The magnitudes of rows [start, stop) of two successive `signed_log_uniform(rng, shape)` batches.

    With rng = np.random.default_rng(seed), yields (|first|, |second|) pairs
    of at most `chunk_rows` rows, bitwise equal to the matching rows of the
    two one-shot batches' absolute values, while holding one chunk of each.
    `stop` defaults to all rows, so any split of the rows into contiguous
    ranges yields, range after range, the same rows as one call over all of
    them.  No sign is drawn.

    The one-shot draws spend the PCG64 stream in four runs: N = rows*n
    magnitudes of one 64-bit word each, N signs of one 32-bit half each,
    that is S = ceil(N/2) words, then the same for the second batch.  So
    with a = start*n the first batch's magnitudes start at word a and the
    second batch's at word N + S + a; each is drawn from its own copy of the
    seeded bit generator, moved there by PCG64.advance.
    """
    rows, n = shape
    stop = rows if stop is None else stop
    count = rows * n
    a = start * n
    f_mag, g_mag = _run(seed, a), _run(seed, count + (count + 1) // 2 + a)
    for lo in range(start, stop, chunk_rows):
        size = (min(chunk_rows, stop - lo), n)
        yield log_uniform(f_mag, size), log_uniform(g_mag, size)


def _run(seed: int, word: int) -> np.random.Generator:
    """The seeded stream from its `word`-th 64-bit output on."""
    bits = np.random.PCG64(seed)
    bits.advance(word)
    return np.random.Generator(bits)
