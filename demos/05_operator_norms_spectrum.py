"""
The weighted averaging operator: norm sandwich, spectrum, resolvent
===================================================================

T f = E(u f) multiplies by a fixed function and projects onto the blocks.  On
a finite space T is a concrete matrix, so every structural claim has an
independent linear-algebra oracle: the norm is sandwiched between a search
lower bound and a certified upper bound, the spectrum is predicted exactly
from block means, and the resolvent formula is verified by composition.
"""

import numpy as np

from orliczlab.measure import domination_constant
from orliczlab.operators import (
    mean_multiplier,
    norm_estimate,
    norm_upper_bound,
    resolvent_check,
    spectrum,
)
from orliczlab.scenarios import builtin_scenario, materialize
from orliczlab.suites import RESOLVENT_TOL

# ---------------------------------------------------------------------------
# The worked four-atom scenario: two blocks, multiplier [1, 3, 2, 2].
mat = materialize(builtin_scenario("spectrum-demo"))
op = mat.operator
print("operator matrix (block-diagonal, rank one per block):")
print(op.matrix)
print(f"\nblock means E(u): {mean_multiplier(op)}")

# ---------------------------------------------------------------------------
# Norm sandwich.  The upper bound is C * sup of the level function; the lower
# bound comes from block indicators plus randomized ascent, and block
# indicators are exact eigenvectors so the best block mean is attained.
C = domination_constant(op.space, op.partition) ** 2
upper = norm_upper_bound(op, mat.psi, C)
lower = norm_estimate(op, mat.phi, budget=300, seed=0)
print(f"\nnorm sandwich: {lower:.9f} <= ||T|| <= {upper:.9f}")

# ---------------------------------------------------------------------------
# Spectrum.  Predicted: the block means plus 0 with multiplicity atoms-blocks.
# Computed: dense eigenvalues of the matrix.
report = spectrum(op)
print(f"\npredicted eigenvalues: {report.predicted}")
print(f"computed eigenvalues : {report.computed}")
print(f"max paired distance  : {report.max_match_distance:.3e}")

# ---------------------------------------------------------------------------
# Resolvent.  Away from the block means and zero, (T - lambda)^{-1} has an
# explicit formula; both compositions must return the input, up to
# RESOLVENT_TOL relative to ||f||_inf.
rng = np.random.default_rng(11)
f = rng.normal(0.0, 2.0, op.n_atoms)
for lam in (5.0, -1.5, 0.7):
    res = resolvent_check(op, lam, f)
    print(f"lambda = {lam:>5}: margin {res['margin']:.2f}, "
          f"residuals (left {res['residual_left']:.2e}, right {res['residual_right']:.2e}), "
          f"relative {res['relative_residual']:.2e} <= {RESOLVENT_TOL:g}: {res['relative_residual'] <= RESOLVENT_TOL}")
