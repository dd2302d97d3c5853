"""Orlicz modular and Luxemburg norm on finite measure spaces.

The modular of f is the weighted sum of phi(|f|) over atoms; the Luxemburg norm
is the smallest scale k with modular(f/k) <= 1, computed by safeguarded Newton
on log modular(f/k) inside a bracket.  The result is feasible and satisfies
||f|| <= result <= ||f|| + NORM_TOL * max(1, ||f||).  The closed forms of the
power-type kinds, the tests' oracle for the Newton route, live in the tests.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import BracketFailure
from .measure import MeasureSpace, _rows, cond_exp, once
from .young import YoungFunction, derivative, evaluate, inverse

__all__ = [
    "modular",
    "luxemburg_norm",
    "contraction_check",
]

NORM_TOL = 1e-10


def modular(space: MeasureSpace, phi: YoungFunction, f: np.ndarray):
    """Weighted sum of phi(|f|) over the atoms: a float for shape (n,), one per row for (..., n)."""
    f = np.asarray(f, dtype=float)
    return space.integrate(evaluate(phi, f))


# Passes of the Newton loop, the step-up to feasibility included.  The power
# kinds settle in 3 or 4 and exp_type and log_type in 5 to 7; bisection needs
# at most about 50, and so does a step-up that keeps doubling.
_NEWTON_ITERS = 100
# Newton has converged once its step is at most _NEWTON_STEP relative and
# |log modular| <= _NEAR_ONE.  Near the root log modular is the step times
# x phi'/phi, which is under 750 wherever w phi(x) <= 1 for every kind, so the
# second test fails only for a modular that lost its digits (evaluate cancels
# for exp_type and log_type near 0) while phi' did not.
_NEWTON_STEP = 1e-13
_NEAR_ONE = 1e-10


def luxemburg_norm(space: MeasureSpace, phi: YoungFunction, f: np.ndarray, tol: float = NORM_TOL):
    """inf over k > 0 of modular(f/k) <= 1, by safeguarded Newton on log modular(f/k).

    One function of shape (n,) gives a float; a batch of shape (..., n) gives
    one norm per row.  All rows are solved together, each under its own mask
    and with the scalar step, so every row is bit-identical to a single call.
    A zero row gives 0, a row with an inf gives inf and one with a NaN gives NaN.

    The bracket's upper end k0 = max|f| / phi^{-1}(1 / mu(total)) satisfies
    modular(f/k0) <= 1, because each atom contributes at most w_i * (1/mu) <= 1
    in total; every kind is unbounded and 0 only at 0, so phi^{-1}(1/mu(total))
    is finite and positive.  A row whose upper end stays infeasible after 200
    doublings raises BracketFailure.  The lower end is the largest single-atom
    norm max_i |f_i| / phi^{-1}(1 / w_i), which is at most ||f|| because
    |f| >= |f_i| 1_{i} atomwise.

    Newton runs on F(log k) = log modular(f/k) from the upper end; its slope
    is minus the ratio of sum w x phi'(x) to sum w phi(x) at x = |f|/k.  For
    the power kinds F is linear, so one step lands on the root; for exp_type
    and log_type x phi'/phi is monotone and a few steps suffice.  A step below
    the lower end moves onto it, where one dominant atom puts the root.  A
    step that is not finite, leaves the bracket otherwise, or is longer than
    half the move before the last (rtsafe's test that Newton converges) is
    replaced by bisection in log k, and every evaluation tightens the bracket.
    Once Newton has converged, k steps up from the infeasible end to the first
    scale with modular(f/k) <= 1, by Newton's step but at least one ulp, and
    after the first move at least twice the last one.  A bisection stops once
    the bracket is no wider than tol * max(1, k).  The result is the upper end
    of the final bracket, so modular(f/result) <= 1 holds by construction and
    ||f|| <= result <= ||f|| + tol * max(1, ||f||).  A row that has not
    stopped after _NEWTON_ITERS passes raises BracketFailure.
    """
    f = _rows(space, f)
    rows = f.reshape(-1, space.n_atoms)
    peak = np.max(np.abs(rows), axis=-1, initial=0.0)
    hi = np.zeros_like(peak)
    live = np.flatnonzero(peak != 0.0)
    if live.size:
        hi[live] = peak[live] / once(space, (phi, "total"), lambda: inverse(phi, 1.0 / space.total))
    # Rows holding an inf or a NaN keep k0 as their norm: inf or NaN.
    live = live[hi[live] < math.inf]
    # Numerical slack at the theoretical bracket; widen until feasible.
    m = np.zeros_like(hi)
    m[live] = modular(space, phi, rows[live] / hi[live, None])
    wide = live[m[live] > 1.0]
    for _ in range(200):
        if not wide.size:
            break
        hi[wide] *= 2.0
        m[wide] = modular(space, phi, rows[wide] / hi[wide, None])
        wide = wide[m[wide] > 1.0]
    if wide.size:
        raise BracketFailure("no feasible scale for the Luxemburg norm within 200 doublings")
    live = live[hi[live] < math.inf]  # doubling overflowed: the norm is inf
    # The bracket's lower end is the larger of `floor`, a bound never evaluated,
    # and `lo`, the largest scale evaluated infeasible.
    floor = np.zeros_like(hi)
    if live.size:
        atoms = once(space, (phi, "atoms"), lambda: inverse(phi, 1.0 / space.weights))
        floor[live] = np.minimum(np.max(np.abs(rows[live]) / atoms, axis=-1), hi[live])
    lo = np.zeros_like(hi)
    k = hi.copy()
    settling = np.zeros(hi.shape, dtype=bool)  # Newton has converged; step up to feasibility
    # |change of log k| in each row's last move and in the one before it.
    last, before = np.full(hi.shape, math.inf), np.full(hi.shape, math.inf)
    for it in range(_NEWTON_ITERS):
        if not live.size:
            break
        kt, was_settling = k[live], settling[live]
        x = rows[live]  # a copy, so it is scaled in place
        np.abs(x, out=x)
        x /= kt[:, None]
        # The first pass starts from the upper end, where the bracket evaluated the modular.
        mt = modular(space, phi, x) if it else m[live]
        feasible = mt <= 1.0
        hi[live[feasible]] = kt[feasible]
        lo[live[~feasible]] = kt[~feasible]
        lo_t, hi_t = lo[live], hi[live]
        low = np.maximum(lo_t, floor[live])
        # dm = sum w x phi'(x) = -d modular / d log k; an overflowed dm would
        # give a zero step, which must not pass for convergence.  The doubling
        # step-up outpaces a modular that rounding makes noisier than an ulp.
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            dm = space.integrate(np.multiply(x, derivative(phi, x), out=x))
            log_m = np.log(mt)
            newton = np.maximum(kt * np.exp(log_m * mt / dm), floor[live])
            move = np.abs(np.log(newton / kt))
            up = np.nextafter(lo_t, math.inf)
            up = np.where(was_settling, np.fmax(up, lo_t * np.exp(2.0 * last[live])), up)
        sound = dm < math.inf
        now_settling = was_settling | (sound & (move <= _NEWTON_STEP) & (np.abs(log_m) <= _NEAR_ONE))
        inside = sound & (lo_t < newton) & (newton <= hi_t) & (0.0 < move) & (move <= 0.5 * before[live])
        nk = np.where(
            now_settling,
            np.fmax(newton, up),
            np.where(inside, newton, np.sqrt(low) * np.sqrt(hi_t)),
        )
        done = (
            (was_settling & feasible)
            | (now_settling & (nk >= hi_t))
            | (~now_settling & ~inside & (hi_t - low <= tol * np.maximum(1.0, hi_t)))
        )
        before[live], last[live] = last[live], np.abs(np.log(nk / kt))
        k[live] = nk
        settling[live] = now_settling
        live = live[~done]
    if live.size:
        raise BracketFailure(f"Luxemburg norm did not settle within {_NEWTON_ITERS} passes")
    if f.ndim == 1:
        return float(hi[0])
    return hi.reshape(f.shape[:-1])


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
