"""Random spaces and partitions for the tests; no CLI path draws them."""

import numpy as np

from orliczlab.measure import MeasureSpace, Partition
from orliczlab.sampling import log_uniform


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
