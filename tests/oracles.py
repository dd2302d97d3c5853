"""Reference routes for the tests: random spaces and partitions, the scalar
block mean, the pass-by-pass Newton inverse, the power kinds' closed-form
norms, the indicator norm, the single-pair Hölder ratio and numpy's own sign
draw.  No CLI path uses them."""

import math

import numpy as np

from orliczlab import young
from orliczlab.errors import BracketFailure, PreconditionViolated
from orliczlab.holder import _holder_ratios
from orliczlab.measure import MeasureSpace, Partition, as_values
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
    working-set loop; it reads the pass cap from `young` at call time, so a
    test that patches the cap changes both, and the series from phi's row."""
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
            series = np.polyval(phi.row.series, zs)
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


def luxemburg_norm_closed_form(space: MeasureSpace, phi: young.YoungFunction, f) -> float | None:
    """Exact norm for kinds of the shape c * |x|**p; None when no closed form applies.

    For phi = c*|x|**p the defining equation c * sum w |f/k|**p = 1 solves to
    k = (c * sum w |f|**p)**(1/p).
    """
    if phi.kind == "power":
        c, p = 1.0, phi.p
    elif phi.kind == "scaled_power":
        c, p = 1.0 / phi.p, phi.p
    elif phi.kind == "conjugate_power":
        q = phi.p / (phi.p - 1.0)
        c, p = (phi.p - 1.0) * phi.p ** (-q), q
    else:
        return None
    f = np.asarray(f, dtype=float)
    s = space.integrate(np.abs(f) ** p)
    return float((c * s) ** (1.0 / p))


def indicator_norm(space: MeasureSpace, phi: young.YoungFunction, atoms) -> float:
    """Norm of an indicator function: 1 / phi^{-1}(1 / mu(A))."""
    atoms = np.asarray(atoms, dtype=int)
    mass = float(np.sum(space.weights[atoms]))
    if mass <= 0.0:
        raise PreconditionViolated("indicator support must have positive measure")
    return 1.0 / young.inverse(phi, 1.0 / mass)


def conditional_holder_ratio(
    space: MeasureSpace,
    partition: Partition,
    phi: young.YoungFunction,
    psi: young.YoungFunction,
    f,
    g,
) -> float:
    """Max over atoms of E(|fg|) / [phi^{-1}(E(phi|f|)) * psi^{-1}(E(psi|g|))].

    0/0 counts as 0 (the bound trivially holds there) and positive/0 as inf.
    """
    f, g = as_values(space, f), as_values(space, g)
    ratios = _holder_ratios(space, partition, phi, psi, f, g)
    return float(np.max(ratios))


def signs_by_choice(rng: np.random.Generator, size) -> np.ndarray:
    """Random signs by numpy's own route, rng.choice([-1.0, 1.0], size): the
    draw sampling._signs must match in values and in the generator state it
    leaves."""
    return rng.choice([-1.0, 1.0], size)
