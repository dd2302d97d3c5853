"""Reference routes for the tests: random spaces and partitions, the scalar
block mean and the pass-by-pass Newton inverse.  No CLI path uses them."""

import math

import numpy as np

from orliczlab import young
from orliczlab.errors import BracketFailure
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


def block_mean_sequential(space: MeasureSpace, partition: Partition, values) -> np.ndarray:
    """measure.block_mean by a Python loop over Python floats: each block's
    sum of w_i * x_i, and its mass, start from +0.0 and add the block's atoms
    in ascending order, one row at a time.  Shares no code with either of the
    kernel's strategies (member gather, bincount)."""
    x = np.asarray(values, dtype=float)
    n, k = space.n_atoms, partition.n_blocks
    labels = [int(b) for b in partition.labels]
    weights = [float(w) for w in space.weights]
    mass = [0.0] * k
    for i in range(n):
        mass[labels[i]] += weights[i]
    rows = x.reshape(-1, n)
    out = np.empty((rows.shape[0], k))
    for r, row in enumerate(rows.tolist()):
        sums = [0.0] * k
        for i in range(n):
            sums[labels[i]] += row[i] * weights[i]
        out[r] = [s / m for s, m in zip(sums, mass)]
    return out.reshape(x.shape[:-1] + (k,))


def newton_inverse_masked(phi: young.YoungFunction, tt: np.ndarray) -> np.ndarray:
    """young._newton_inverse as a masked loop: each pass gathers the rows still
    moving and scatters their next iterate back.  The bitwise reference for the
    working-set loop; it reads the pass cap and series tables from `young` at
    call time, so a test that patches the cap changes both."""
    t = np.ravel(tt)
    root_t = math.sqrt(2.0) * np.sqrt(t)
    if phi.kind == "exp_type":
        x = np.minimum(np.minimum(root_t, math.log(2.0) + np.log1p(t)), young._LOG_MAX)
    else:
        x = t + root_t
    todo = np.flatnonzero((t > 0.0) & (t < math.inf))
    for _ in range(young._NEWTON_ITERS):
        xa = x[todo]
        slope = young.derivative(phi, xa)
        if phi.kind == "exp_type":
            z = xa
            phi_over_slope = 1.0 - xa / slope
        else:
            z = slope
            phi_over_slope = 1.0 + xa - xa / slope
        small = z < young._SERIES_BELOW
        if small.any():
            zs = z[small]
            series = np.polyval(young._NEWTON_SERIES[phi.kind], zs)
            phi_over_slope[small] = zs * series * (zs / slope[small])
        nxt = xa - (phi_over_slope - t[todo] / slope)
        moving = nxt < xa
        x[todo[moving]] = nxt[moving]
        todo = todo[moving]
        if not todo.size:
            break
    else:
        raise BracketFailure(f"Newton inverse of {phi.kind} did not settle in {young._NEWTON_ITERS} passes")
    x[t == math.inf] = math.inf
    return x.reshape(tt.shape)
