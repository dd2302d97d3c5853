"""Seeded random generators shared by the randomized checks.

All helpers take an explicit numpy Generator, or the searches' chunked
magnitudes their seed, so every caller's determinism contract reduces to its
master seed.  Magnitudes default to log-uniform over [1e-3, 1e3]: ratio
extremes for non-homogeneous kinds occur at scale boundaries, which uniform
sampling would almost never reach.

Every magnitude is exp(ln lo + r*(ln hi - ln lo)) for one r = rng.random()
per value, computed in place in the array the draw fills, so it lies in
[lo, hi] up to the rounding of exp and the logarithms (exp(ln 10) is
10.000000000000002).  The searches' chunks are drawn into two buffers that
each search allocates once: a yielded chunk stays valid only until the next
one is drawn.
"""

from __future__ import annotations

import math

import numpy as np

__all__ = ["log_uniform", "signed_log_uniform", "log_uniform_chunks"]

LOG_LO = 1e-3
LOG_HI = 1e3


def log_uniform(rng: np.random.Generator, size, lo: float = LOG_LO, hi: float = LOG_HI):
    """Positive magnitudes of shape `size` (an int or a tuple) with log uniform on [ln lo, ln hi].

    Each is exp(ln lo + r*(ln hi - ln lo)) for one rng.random() value r,
    computed in place: one 64-bit PCG64 word per value, as rng.uniform spends.
    The values lie in [lo, hi] up to rounding (a few ulps at either end).
    """
    return _log_uniform_into(rng, np.empty(size), lo, hi)


def _log_uniform_into(rng: np.random.Generator, out: np.ndarray, lo: float = LOG_LO, hi: float = LOG_HI):
    """log_uniform(rng, out.shape, lo, hi), written into the C-contiguous float64 `out`."""
    rng.random(out=out)
    out *= math.log(hi) - math.log(lo)
    out += math.log(lo)
    return np.exp(out, out=out)


def signed_log_uniform(rng: np.random.Generator, size, lo: float = LOG_LO, hi: float = LOG_HI):
    """Log-uniform magnitudes with independent random signs."""
    return log_uniform(rng, size, lo, hi) * _signs(rng, size)


_SIGNS = np.array([-1.0, 1.0])


def _signs(rng: np.random.Generator, size):
    """rng.choice([-1.0, 1.0], size), which draws the same integers, at less cost per call."""
    return _SIGNS[rng.integers(0, 2, size)]


def log_uniform_chunks(seed: int, shape: tuple[int, int], chunk_rows: int):
    """The magnitudes of two successive `signed_log_uniform(rng, shape)` batches, chunk by chunk.

    With rng = np.random.default_rng(seed), yields (|first|, |second|) pairs
    of at most `chunk_rows` rows, bitwise equal to the matching rows of the
    two one-shot batches' absolute values.  No sign is drawn.

    Each call allocates two buffers of min(chunk_rows, rows) rows and draws
    every chunk into them in place (log_uniform's exp route), so a yielded
    chunk stays valid only until the next one is drawn: copy it to keep it.

    The one-shot draws spend the PCG64 stream in four runs: N = rows*n
    magnitudes of one 64-bit word each, N signs of one 32-bit half each,
    that is S = ceil(N/2) words, then the same for the second batch.  So
    the second batch's magnitudes start at word N + S, and are drawn from
    a second bit generator, seeded alike and moved there by PCG64.advance.
    """
    rows, n = shape
    count = rows * n
    g_bits = np.random.PCG64(seed)
    g_bits.advance(count + (count + 1) // 2)
    f_mag, g_mag = np.random.default_rng(seed), np.random.Generator(g_bits)
    f_buf, g_buf = np.empty((2, min(chunk_rows, rows), n))
    for lo in range(0, rows, chunk_rows):
        m = min(chunk_rows, rows - lo)
        yield _log_uniform_into(f_mag, f_buf[:m]), _log_uniform_into(g_mag, g_buf[:m])
