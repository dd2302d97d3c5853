"""
Conditional Hoelder constants: certified versus empirical
=========================================================

The conditional Hoelder inequality bounds E(|fg|) by a constant times the
product of inverted block averages of a conjugate Young pair.  Pointwise
domination certifies the constant C0^2 in advance; a randomized search then
stress-tests the claim and reports how much of the budget the worst pair uses.
"""

import numpy as np

from orliczlab.holder import (
    conditional_holder_ratio,
    holder_from_domination,
    normalization_constants,
)
from orliczlab.measure import domination_constant
from orliczlab.scenarios import builtin_scenario, materialize
from orliczlab.young import evaluate

# ---------------------------------------------------------------------------
# Three worked setups, each a builtin scenario: the power pair on the
# symmetric space (constant 1), the exponential pair on the symmetric space
# (constant 4), and the power-3 pair on the rotation space (constant 9).
for name in ("example-1.6a", "example-1.6b", "example-1.6d"):
    mat = materialize(builtin_scenario(name))
    c0 = domination_constant(mat.operator.space, mat.operator.partition)
    report = holder_from_domination(
        mat.operator.space, mat.operator.partition, mat.phi, mat.psi,
        budget=10_000, seed=mat.scenario.seed,
    )
    print(f"{name}: {mat.scenario.description}")
    print(f"  domination constant C0 = {c0:.0f}, certified C = C0^2 = {report.claimed_C:.0f}")
    print(f"  empirical worst ratio over {report.samples} pairs: {report.empirical_C:.6f} "
          f"({'within' if report.holds_with_claimed else 'EXCEEDS'} the certificate)")

# ---------------------------------------------------------------------------
# The normalization route: C1 and C2 bound the modulars of the normalized
# factors, and C1 + C2 is itself a valid Hoelder constant.
mat = materialize(builtin_scenario("example-1.6b"))
c1, c2 = normalization_constants(
    mat.operator.space, mat.operator.partition, mat.phi, mat.psi,
    sample_budget=5_000, seed=42,
)
print("\nnormalization constants on the exponential pair:")
print(f"  C1 = {c1:.6f} <= phi(2) = {evaluate(mat.phi, 2.0):.6f}")
print(f"  C2 = {c2:.6f} <= psi(2) = {evaluate(mat.psi, 2.0):.6f}")
print(f"  C1 + C2 = {c1 + c2:.6f} is an alternative certified constant")

# ---------------------------------------------------------------------------
# A single ratio evaluation, to see the object itself: the constant function 1
# makes every factor equal 1, so the ratio is exactly 1 for any pair.
ones = np.ones(mat.operator.n_atoms)
ratio = conditional_holder_ratio(
    mat.operator.space, mat.operator.partition, mat.phi, mat.psi, ones, ones
)
print(f"\nratio at f = g = 1: {ratio:.12f}")
