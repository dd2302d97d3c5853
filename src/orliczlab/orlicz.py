"""Orlicz modular and Luxemburg norm on finite measure spaces.

The modular of f is the weighted sum of phi(|f|) over atoms; the Luxemburg norm
is the smallest scale k with modular(f/k) <= 1, computed by bracketing and
bisection.  Closed forms exist for the power-type kinds and are kept in a
separate oracle so the bisection path can be cross-checked against them.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BracketFailure, PreconditionViolated
from .measure import MeasureSpace, _rows, cond_exp
from .young import YoungFunction, evaluate, inverse

__all__ = [
    "modular",
    "luxemburg_norm",
    "luxemburg_norm_closed_form",
    "indicator_norm",
    "contraction_check",
]

NORM_TOL = 1e-10


def modular(space: MeasureSpace, phi: YoungFunction, f: np.ndarray):
    """Weighted sum of phi(|f|) over the atoms: a float for shape (n,), one per row for (..., n)."""
    f = np.asarray(f, dtype=float)
    return space.integrate(evaluate(phi, f))


def luxemburg_norm(space: MeasureSpace, phi: YoungFunction, f: np.ndarray, tol: float = NORM_TOL):
    """inf over k > 0 of modular(f/k) <= 1, by bisection on the monotone modular.

    One function of shape (n,) gives a float; a batch of shape (..., n) gives
    one norm per row.  All rows are bisected together, each under its own
    mask and with the scalar step, so every row is bit-identical to a single
    call.
    The initial bracket upper end k0 = max|f| / phi^{-1}(1 / mu(total)) always
    satisfies modular(f/k0) <= 1, because each atom contributes at most
    w_i * (1/mu) <= 1 in total; every kind is unbounded and 0 only at 0, so
    phi^{-1}(1 / mu(total)) is finite and positive.  The returned value is the upper end of the
    final bracket, so modular(f/result) <= 1 holds by construction.  A row
    whose bracket stays infeasible after 200 doublings raises BracketFailure.
    """
    f = _rows(space, f)
    rows = f.reshape(-1, space.n_atoms)
    peak = np.max(np.abs(rows), axis=-1, initial=0.0)
    hi = np.zeros_like(peak)
    live = np.flatnonzero(peak != 0.0)
    if live.size:
        hi[live] = peak[live] / inverse(phi, 1.0 / space.total)
    # Numerical slack at the theoretical bracket; widen until feasible.  A NaN
    # modular is not > 1, so it counts as feasible.
    wide = live[modular(space, phi, rows[live] / hi[live, None]) > 1.0]
    for _ in range(200):
        if not wide.size:
            break
        hi[wide] *= 2.0
        wide = wide[modular(space, phi, rows[wide] / hi[wide, None]) > 1.0]
    if wide.size:
        raise BracketFailure("no feasible scale for the Luxemburg norm within 200 doublings")
    lo = np.zeros_like(hi)
    # The stop tests are negated `<=`, not `>`, so a NaN row keeps bisecting.
    for _ in range(200):
        mid = 0.5 * (lo[live] + hi[live])
        go = ~(mid <= 0.0)
        live, mid = live[go], mid[go]
        if not live.size:
            break
        feasible = modular(space, phi, rows[live] / mid[:, None]) <= 1.0
        hi[live[feasible]] = mid[feasible]
        lo[live[~feasible]] = mid[~feasible]
        live = live[~(hi[live] - lo[live] <= tol * np.maximum(1.0, hi[live]))]
    if f.ndim == 1:
        return float(hi[0])
    return hi.reshape(f.shape[:-1])


def luxemburg_norm_closed_form(
    space: MeasureSpace, phi: YoungFunction, f: np.ndarray
) -> float | None:
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


def indicator_norm(space: MeasureSpace, phi: YoungFunction, atoms: np.ndarray) -> float:
    """Norm of an indicator function: 1 / phi^{-1}(1 / mu(A))."""
    atoms = np.asarray(atoms, dtype=int)
    mass = float(np.sum(space.weights[atoms]))
    if mass <= 0.0:
        raise PreconditionViolated("indicator support must have positive measure")
    return 1.0 / inverse(phi, 1.0 / mass)


def contraction_check(
    space: MeasureSpace,
    partition,
    phi: YoungFunction,
    f: np.ndarray,
    tol: float = 1e-9,
) -> dict:
    """Verify the averaging projection does not increase the Luxemburg norm.

    The mechanism is the convexity inequality phi(|E f| / k) <= E(phi(|f| / k))
    pointwise, so every scale feasible for f stays feasible for E f.  f may be
    a batch of shape (..., n): the norms are reported per row, and `holds`
    needs every row.
    """
    f = np.asarray(f, dtype=float)
    nf = luxemburg_norm(space, phi, f)
    nef = luxemburg_norm(space, phi, cond_exp(space, partition, f))
    return {
        "holds": bool(np.all(nef <= nf * (1.0 + tol) + tol)),
        "norm_f": nf,
        "norm_Ef": nef,
        "slack": nf - nef,
    }
