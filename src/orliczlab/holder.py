"""Conditional Hölder inequality: ratio evaluation, constant search, certified constants.

The inequality bounds E(|fg|) by a constant times the product of the inverted
block averages phi^{-1}(E(phi|f|)) and psi^{-1}(E(psi|g|)) for a complementary
pair (phi, psi).  The constant has no closed form in general.  This module
estimates it by randomized search, certifies C0**2 from pointwise domination
|h| <= C0 * E(|h|) (C0 the partition's domination constant; proof in
holder_from_domination), and estimates C1 + C2 from the normalized block
averages, a valid constant by Young's inequality x*y <= phi(x) + psi(y).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .errors import ConjugateMismatch
from .measure import MeasureSpace, Partition, as_values, block_mean, domination_constant
from .sampling import signed_log_uniform
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
    phi: YoungFunction,
    psi: YoungFunction,
    f: np.ndarray,
    g: np.ndarray,
) -> np.ndarray:
    """Blockwise E(|fg|) / [phi^{-1}(E(phi|f|)) * psi^{-1}(E(psi|g|))], (..., n) -> (..., n_blocks).

    Each factor is constant on blocks, so the inverses run once per block mean;
    broadcasting the result through `partition.labels` gives the atomwise ratios.
    """
    rhs = inverse(phi, block_mean(space, partition, evaluate(phi, f)))
    rhs *= inverse(psi, block_mean(space, partition, evaluate(psi, g)))
    return _ratio_atoms(block_mean(space, partition, np.abs(f * g)), rhs)


def _ratio_atoms(lhs: np.ndarray, rhs: np.ndarray) -> np.ndarray:
    """Elementwise lhs/rhs with the conventions 0/0 -> 0 and positive/0 -> inf."""
    out = np.zeros_like(lhs)
    zero = rhs == 0.0
    np.divide(lhs, rhs, out=out, where=~zero)
    out[zero & (lhs > 0)] = math.inf
    return out


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
    ratios = _holder_ratios(space, partition, phi, psi, as_values(space, f), as_values(space, g))
    return float(np.max(ratios))


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
    The whole batch is evaluated vectorized; the report records the worst pair.
    """
    verify_conjugate_pair(phi, psi)
    rng = np.random.default_rng(seed)
    n = space.n_atoms
    fs = signed_log_uniform(rng, (budget, n))
    gs = signed_log_uniform(rng, (budget, n))
    ratios = _holder_ratios(space, partition, phi, psi, fs, gs)
    # The first maximal (sample, atom) in row-major order, as argmax over atomwise ratios.
    k = int(np.argmax(np.max(ratios, axis=-1)))
    atom = int(np.argmax(ratios[k, partition.labels]))
    best = float(ratios[k, partition.labels[atom]])
    holds = None if claimed_C is None else best <= claimed_C * (1.0 + 1e-9)
    return HolderReport(best, fs[k].copy(), gs[k].copy(), atom, claimed_C, holds, budget)


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
    x*y <= phi(x) + psi(y) applied to the normalized factors.
    """
    rng = np.random.default_rng(seed)

    def sup_for(theta: YoungFunction) -> float:
        batch = signed_log_uniform(rng, (sample_budget, space.n_atoms))
        denom = inverse(theta, block_mean(space, partition, evaluate(theta, batch)))
        denom = denom[..., partition.labels]
        return float(np.max(block_mean(space, partition, evaluate(theta, batch / denom))))

    return sup_for(phi), sup_for(psi)


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
