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
    return log_uniform(rng, size, lo, hi) * rng.choice([-1.0, 1.0], size)


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
