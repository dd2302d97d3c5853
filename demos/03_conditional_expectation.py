"""
Conditional expectation by block averaging
==========================================

A sub-sigma-algebra on a finite space is a partition of its atoms; conditional
expectation is the measure-weighted average over each block.  This script
builds the two geometric model spaces, verifies the projection identities, and
measures the domination constant that later certifies operator bounds.
"""

import numpy as np

from orliczlab import young
from orliczlab.measure import (
    build_rotation_space,
    build_symmetric_space,
    cond_exp,
    domination_constant,
    jensen_check,
)
from orliczlab.orlicz import contraction_check
from orliczlab.suites import CONTRACTION_TOL, JENSEN_TOL

# ---------------------------------------------------------------------------
# The symmetric interval: [-1, 1] in 8 equal cells, blocks pairing x with -x.
# Conditional expectation becomes the even part of the function.
space, part = build_symmetric_space(4)
x = np.asarray(space.labels)
f = x ** 3 + 0.25 * x ** 2  # odd part cancels, even part survives
ef = cond_exp(space, part, f)
print("symmetric space: E f is the even part")
print(f"  f     = {np.round(f, 4)}")
print(f"  E f   = {np.round(ef, 4)}")
print(f"  even  = {np.round(0.25 * x ** 2, 4)}")

# ---------------------------------------------------------------------------
# The rotation space: the circle in 6 cells, blocks are orbits of the 1/3
# shift.  Averaging over an orbit is idempotent; the orbit sum would not be.
space_r, part_r = build_rotation_space(3, 2)
g = np.arange(6, dtype=float)
eg = cond_exp(space_r, part_r, g)
egg = cond_exp(space_r, part_r, eg)
print("\nrotation space: orbit averaging, idempotent")
print(f"  E g       = {np.round(eg, 4)}")
print(f"  E (E g)   = {np.round(egg, 4)}")
print(f"  max |E(Eg) - Eg| = {np.max(np.abs(egg - eg)):.3e}")

# ---------------------------------------------------------------------------
# The averaging identity E(fg) = E(f) g holds exactly when g is block-constant.
h = np.array([2.0, -1.0, 2.0, -1.0, 2.0, -1.0])  # constant on each orbit
err = np.max(np.abs(cond_exp(space_r, part_r, g * h) - cond_exp(space_r, part_r, g) * h))
print(f"\naveraging identity for a measurable multiplier: max |E(gh) - E(g) h| = {err:.3e}")

# ---------------------------------------------------------------------------
# Jensen and the norm contraction: the two inequalities underlying everything.
# The kernels measure; each verdict is the margin against the suites' tolerance.
phi = young.scaled_power(2.0)
rng = np.random.default_rng(7)
w = rng.normal(0.0, 2.0, 8)
jensen = jensen_check(space, part, phi, w)
contraction = contraction_check(space, part, phi, w)
print(f"\nJensen: phi(E f) <= E(phi f): worst gap {jensen['max_violation']:.3e}, "
      f"over its scale {jensen['margin']:.3e} <= {JENSEN_TOL:g}: {jensen['margin'] <= JENSEN_TOL}")
print(f"contraction: N(E f) = {contraction['norm_Ef']:.6f} <= N(f) = {contraction['norm_f']:.6f}: "
      f"margin {contraction['margin']:.3e} <= {CONTRACTION_TOL:g}: {contraction['margin'] <= CONTRACTION_TOL}")

# ---------------------------------------------------------------------------
# Domination: E(h) <= C0 * h atomwise for h >= 0, with the smallest C0 fixed
# by the geometry.  Squaring C0 gives the certified conditional Hoelder
# constant used throughout the operator scripts.
print("\ndomination constants:")
print(f"  symmetric pairing: C0 = {domination_constant(space, part):.1f}")
print(f"  3-cell orbits:     C0 = {domination_constant(space_r, part_r):.1f}")
